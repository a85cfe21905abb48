//! Fundamental scalar types used across the simulator.
//!
//! The simulator runs at a nominal 1 GHz ([`CYCLES_PER_SECOND`]), so one
//! [`Cycle`] equals one nanosecond. Addresses come in two flavours:
//! [`PhysAddr`] for the DRAM/physical address space and [`VirtCacheAddr`]
//! for the per-model virtual cache address space introduced by CaMDN's
//! hardware paging (Section III-B3 of the paper).

use serde::{Deserialize, Serialize};

/// One kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte (1024 KiB).
pub const MIB: u64 = 1024 * KIB;

/// Simulated clock cycles. The SoC runs at 1 GHz, so 1 cycle == 1 ns.
pub type Cycle = u64;

/// Clock frequency of the simulated SoC (Table II: 1 GHz).
pub const CYCLES_PER_SECOND: u64 = 1_000_000_000;

/// Converts cycles to milliseconds under the 1 GHz clock.
#[inline]
pub fn cycles_to_ms(cycles: Cycle) -> f64 {
    cycles as f64 / (CYCLES_PER_SECOND as f64 / 1e3)
}

/// Converts milliseconds to cycles under the 1 GHz clock.
#[inline]
pub fn ms_to_cycles(ms: f64) -> Cycle {
    (ms * (CYCLES_PER_SECOND as f64 / 1e3)).round() as Cycle
}

/// A physical (DRAM) byte address.
///
/// Physical addresses index the flat DRAM space. The shared-cache slice,
/// set and DRAM channel/bank are all derived from bit fields of this
/// address, mirroring real SoC address interleaving.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Byte address of the cache line containing this address.
    #[inline]
    pub fn line_base(self, line_bytes: u64) -> PhysAddr {
        PhysAddr(self.0 & !(line_bytes - 1))
    }

    /// Sequential line index (address divided by the line size).
    #[inline]
    pub fn line_index(self, line_bytes: u64) -> u64 {
        self.0 / line_bytes
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// A virtual cache address inside a model-exclusive region.
///
/// `vcaddr` values are produced by the offline mapper and translated at
/// runtime by the per-NPU cache page table (CPT) into physical cache
/// addresses (slice/set/way), as shown in Fig. 5(b) of the paper.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtCacheAddr(pub u64);

impl VirtCacheAddr {
    /// Virtual cache page number for a given page size.
    #[inline]
    pub fn vcpn(self, page_bytes: u64) -> u64 {
        self.0 / page_bytes
    }

    /// Offset within the virtual cache page.
    #[inline]
    pub fn page_offset(self, page_bytes: u64) -> u64 {
        self.0 % page_bytes
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> VirtCacheAddr {
        VirtCacheAddr(self.0 + bytes)
    }
}

impl std::fmt::Display for VirtCacheAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vc:{:#010x}", self.0)
    }
}

impl From<u64> for VirtCacheAddr {
    fn from(v: u64) -> Self {
        VirtCacheAddr(v)
    }
}

/// Integer ceiling division.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0, "division by zero in ceil_div");
    a.div_ceil(b)
}

/// `x.ceil() as u64`, bit for bit for every `f64` (NaN and negatives
/// give 0, values past `u64::MAX` saturate), without the libm call:
/// baseline x86-64 has no rounding instruction, so `f64::ceil` is a
/// function call on the engine's per-transfer cycle counts.
///
/// Exact because `x as u64` truncates toward zero and saturates, and
/// `t as f64` is exact wherever `x` has a fractional part (below 2^52).
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// `ceil_u64(n as f64 / d)` for a fixed divisor `d`, bit for bit, with
/// an integer shift in place of the divide when `d` is a power-of-two
/// integer (8.0 lines per cycle across the paper SoC's cache slices)
/// and `n < 2^53`.
///
/// Exact because such an `n` converts to `f64` exactly and dividing it
/// by a power of two only moves the exponent, so the `f64` quotient is
/// `n / d` itself and its ceiling is the integer one. Larger `n` round
/// on conversion, so they keep the `f64` form.
#[derive(Debug, Clone, Copy)]
pub struct CeilDiv {
    d: f64,
    /// `log2(d)` when `d` is a power-of-two integer.
    shift: Option<u32>,
}

impl CeilDiv {
    /// Precomputes the divide by `d`.
    pub fn new(d: f64) -> Self {
        let int = d as u64;
        let shift = (int as f64 == d && int.is_power_of_two()).then(|| int.trailing_zeros());
        CeilDiv { d, shift }
    }

    /// `ceil(n / d)`, as [`ceil_u64`] of the `f64` quotient.
    #[inline]
    pub fn ceil(self, n: u64) -> u64 {
        match self.shift {
            Some(s) if n < 1 << 53 => (n + (1 << s) - 1) >> s,
            _ => ceil_u64(n as f64 / self.d),
        }
    }
}

/// Rounds `a` up to the next multiple of `b`.
#[inline]
pub fn round_up(a: u64, b: u64) -> u64 {
    ceil_div(a, b) * b
}

/// Formats a byte count with a binary suffix for human-readable reports.
pub fn format_bytes(bytes: u64) -> String {
    if bytes >= MIB {
        format!("{:.2} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.2} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_masks_low_bits() {
        let a = PhysAddr(0x1234_5678);
        assert_eq!(a.line_base(64).0, 0x1234_5640);
        assert_eq!(a.line_index(64), 0x1234_5678 / 64);
    }

    #[test]
    fn vcaddr_page_split() {
        let page = 32 * KIB;
        let a = VirtCacheAddr(3 * page + 17);
        assert_eq!(a.vcpn(page), 3);
        assert_eq!(a.page_offset(page), 17);
    }

    #[test]
    fn cycle_time_conversions_roundtrip() {
        assert_eq!(ms_to_cycles(1.0), 1_000_000);
        assert!((cycles_to_ms(6_700_000) - 6.7).abs() < 1e-9);
    }

    #[test]
    fn ceil_div_and_round_up() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(round_up(10, 8), 16);
        assert_eq!(round_up(16, 8), 16);
    }

    #[test]
    fn ceil_u64_matches_libm_ceil_on_edges_and_random_bits() {
        let p52 = 2f64.powi(52);
        let p53 = 2f64.powi(53);
        let p63 = 2f64.powi(63);
        let p64 = 2f64.powi(64);
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let edges = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -0.5,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1), // smallest subnormal
            0.5,
            1.0,
            up(1.0),
            down(1.0),
            p52,
            up(p52),
            down(p52),
            p53,
            up(p53),
            down(p53),
            p63,
            up(p63),
            down(p63),
            p64,
            up(p64),
            down(p64),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in edges {
            assert_eq!(
                ceil_u64(x),
                x.ceil() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
        let mut rng = crate::SimRng::new(0xCE11);
        for _ in 0..200_000 {
            let x = f64::from_bits(rng.next_u64());
            assert_eq!(ceil_u64(x), x.ceil() as u64, "bits {:#x}", x.to_bits());
            // Bit patterns rarely land in the cycle range; probe it too.
            let y = (rng.next_u64() >> 11) as f64 / 1024.0;
            assert_eq!(ceil_u64(y), y.ceil() as u64, "y = {y}");
        }
    }

    #[test]
    fn ceil_div_matches_the_f64_quotient() {
        let p53 = 1u64 << 53;
        let mut rng = crate::SimRng::new(0xD1F8);
        // Powers of two take the shift; the rest, and `n ≥ 2^53`, the
        // f64 form.
        for d in [
            8.0,
            1.0,
            2.0,
            16.0,
            2f64.powi(40),
            3.0,
            2.5,
            0.5,
            1e-3,
            12.0,
        ] {
            let div = CeilDiv::new(d);
            let want = |n: u64| ceil_u64(n as f64 / d);
            let di = d as u64;
            let edges = [
                0,
                1,
                di.saturating_sub(1),
                di,
                di + 1,
                2 * di + 1,
                p53 - 1,
                p53,
                p53 + 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            for n in edges {
                assert_eq!(div.ceil(n), want(n), "d = {d}, n = {n}");
            }
            for _ in 0..20_000 {
                // Uniform bits, then values in the common range.
                let n = rng.next_u64();
                assert_eq!(div.ceil(n), want(n), "d = {d}, n = {n}");
                let n = rng.next_u64() >> (11 + rng.next_below(50));
                assert_eq!(div.ceil(n), want(n), "d = {d}, n = {n}");
            }
        }
        assert!(CeilDiv::new(8.0).shift == Some(3));
        assert!(CeilDiv::new(2f64.powi(64)).shift.is_none());
        assert!(CeilDiv::new(f64::NAN).shift.is_none());
    }

    #[test]
    fn format_bytes_suffixes() {
        assert_eq!(format_bytes(12), "12 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * MIB), "3.00 MiB");
    }
}
