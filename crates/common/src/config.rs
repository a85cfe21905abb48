//! SoC configuration types.
//!
//! [`SocConfig::paper_default`] reproduces Table II of the paper:
//!
//! | Parameter | Value |
//! |---|---|
//! | PE array (per core) | 32×32 |
//! | Scratchpad (per core) | 256 KiB |
//! | NPU cores | 16 |
//! | Shared cache | 16 MiB, 16 ways (12 NPU ways), 8 slices |
//! | DRAM | 102.4 GB/s, 4 channels |
//! | Frequency | 1 GHz |

use crate::types::{KIB, MIB};
use serde::{Deserialize, Serialize};

/// Configuration of a single NPU core (Gemmini-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NpuConfig {
    /// Rows of the processing-element array.
    pub pe_rows: u32,
    /// Columns of the processing-element array.
    pub pe_cols: u32,
    /// Private scratchpad capacity per core, in bytes.
    pub scratchpad_bytes: u64,
    /// Number of NPU cores on the SoC.
    pub cores: u32,
    /// Peak MACs per cycle per core (`pe_rows * pe_cols` for a systolic array).
    pub macs_per_cycle: u64,
}

impl NpuConfig {
    /// NPU configuration from Table II of the paper.
    pub fn paper_default() -> Self {
        NpuConfig {
            pe_rows: 32,
            pe_cols: 32,
            scratchpad_bytes: 256 * KIB,
            cores: 16,
            macs_per_cycle: 32 * 32,
        }
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the sliced shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub total_bytes: u64,
    /// Associativity (total ways).
    pub ways: u32,
    /// Ways reserved for the NPU subspace (way partitioning, Section III-B1).
    pub npu_ways: u32,
    /// Number of address-interleaved slices.
    pub slices: u32,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Cache page size for the NPU subspace (Section III-B3: 32 KiB).
    pub page_bytes: u64,
    /// Hit latency of a slice, in cycles.
    pub hit_latency: u64,
    /// Lines a slice can serve per cycle (bandwidth model).
    pub lines_per_cycle: f64,
}

impl CacheConfig {
    /// Most ways a cache may have: way masks are `u16`, and an LRU
    /// order word packs one 4-bit way index per recency rank.
    pub const MAX_WAYS: u32 = 16;

    /// Shared-cache configuration from Table II (16 MiB, 16 ways, 12 NPU
    /// ways, 8 slices, 64 B lines, 32 KiB pages).
    pub fn paper_default() -> Self {
        CacheConfig {
            total_bytes: 16 * MIB,
            ways: 16,
            npu_ways: 12,
            slices: 8,
            line_bytes: 64,
            page_bytes: 32 * KIB,
            hit_latency: 30,
            lines_per_cycle: 1.0,
        }
    }

    /// Returns a copy with a different total capacity, keeping the page
    /// count of the NPU subspace consistent (used by the scaling sweeps).
    pub fn with_total_bytes(mut self, total_bytes: u64) -> Self {
        self.total_bytes = total_bytes;
        self
    }

    /// Total number of cache lines.
    pub fn total_lines(&self) -> u64 {
        self.total_bytes / self.line_bytes
    }

    /// Sets (per slice) = lines / slices / ways.
    pub fn sets_per_slice(&self) -> u64 {
        self.total_lines() / u64::from(self.slices) / u64::from(self.ways)
    }

    /// Capacity of the NPU subspace in bytes.
    pub fn npu_subspace_bytes(&self) -> u64 {
        self.total_bytes * u64::from(self.npu_ways) / u64::from(self.ways)
    }

    /// Number of 32 KiB (by default) cache pages in the NPU subspace.
    pub fn npu_pages(&self) -> u64 {
        self.npu_subspace_bytes() / self.page_bytes
    }

    /// Cache lines per page.
    pub fn lines_per_page(&self) -> u64 {
        self.page_bytes / self.line_bytes
    }

    /// Checks the geometric invariants the cache model asserts at
    /// construction, so callers can reject a bad configuration with an
    /// error instead of panicking.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err("cache line size must be a power of two".into());
        }
        if self.slices == 0 || !self.slices.is_power_of_two() {
            return Err("cache slice count must be a power of two".into());
        }
        if self.ways == 0 || !self.ways.is_power_of_two() {
            return Err("cache way count must be a power of two".into());
        }
        if self.ways > Self::MAX_WAYS {
            return Err(format!(
                "cache way count ({}) exceeds the {} ways a way mask covers",
                self.ways,
                Self::MAX_WAYS
            ));
        }
        if self.npu_ways > self.ways {
            return Err(format!(
                "npu_ways ({}) cannot exceed total ways ({})",
                self.npu_ways, self.ways
            ));
        }
        if !self
            .total_bytes
            .is_multiple_of(self.line_bytes * u64::from(self.slices) * u64::from(self.ways))
        {
            return Err("cache capacity must divide evenly into slices and ways".into());
        }
        let sets_per_slice = self.sets_per_slice();
        if sets_per_slice == 0 || !sets_per_slice.is_power_of_two() {
            return Err("sets per slice must be a (positive) power of two".into());
        }
        if self.page_bytes == 0 || !self.page_bytes.is_multiple_of(self.line_bytes) {
            return Err("cache page size must be a positive multiple of the line size".into());
        }
        if !self.lines_per_page().is_multiple_of(u64::from(self.slices)) {
            return Err("a cache page must span all slices evenly".into());
        }
        let sets_per_page = self.lines_per_page() / u64::from(self.slices);
        if sets_per_page == 0 || !sets_per_slice.is_multiple_of(sets_per_page) {
            return Err("sets per slice must be a multiple of sets per page".into());
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Aggregate peak bandwidth in bytes per cycle (at 1 GHz,
    /// 102.4 GB/s == 102.4 B/cycle).
    pub bytes_per_cycle: f64,
    /// Extra latency of a row-buffer miss (precharge + activate), cycles.
    pub row_miss_penalty: u64,
    /// Column-access latency (row hit), cycles.
    pub cas_latency: u64,
}

impl DramConfig {
    /// The longest span of time, in cycles, the DRAM model represents:
    /// it keeps bus time in 64-bit fixed point at 2^20 ticks per cycle.
    pub const MAX_HORIZON_CYCLES: u64 = 1 << 44;

    /// DRAM configuration from Table II (102.4 GB/s over 4 channels).
    pub fn paper_default() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 16,
            row_bytes: 2 * KIB,
            bytes_per_cycle: 102.4,
            row_miss_penalty: 40,
            cas_latency: 20,
        }
    }

    /// Peak bandwidth of a single channel, bytes per cycle.
    pub fn channel_bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle / f64::from(self.channels)
    }

    /// Cycles for one cache line burst on one channel at peak bandwidth.
    pub fn line_burst_cycles(&self, line_bytes: u64) -> u64 {
        (line_bytes as f64 / self.channel_bytes_per_cycle()).ceil() as u64
    }

    /// Checks the invariants the DRAM model relies on (it divides by
    /// the channel, bank and row sizes, and one `line_bytes` burst must
    /// fit its fixed-point time), so callers can reject a bad
    /// configuration with an error instead of panicking or pricing
    /// bursts with a meaningless bandwidth.
    pub fn validate(&self, line_bytes: u64) -> Result<(), String> {
        if self.channels == 0 {
            return Err("the DRAM needs at least one channel".into());
        }
        if self.banks_per_channel == 0 {
            return Err("the DRAM needs at least one bank per channel".into());
        }
        if self.row_bytes == 0 {
            return Err("the DRAM row size must be positive".into());
        }
        if !(self.bytes_per_cycle.is_finite() && self.bytes_per_cycle > 0.0) {
            return Err(format!(
                "DRAM bandwidth must be positive and finite, got {} bytes/cycle",
                self.bytes_per_cycle
            ));
        }
        let burst = line_bytes as f64 / self.channel_bytes_per_cycle();
        if burst >= Self::MAX_HORIZON_CYCLES as f64 {
            return Err(format!(
                "one {line_bytes} B line takes {burst:.3e} cycles on a channel at {} bytes/cycle, \
                 past the DRAM model's {}-cycle range",
                self.bytes_per_cycle,
                Self::MAX_HORIZON_CYCLES
            ));
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Complete SoC configuration (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SocConfig {
    /// NPU core parameters.
    pub npu: NpuConfig,
    /// Shared cache parameters.
    pub cache: CacheConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
}

impl SocConfig {
    /// The exact configuration of Table II.
    pub fn paper_default() -> Self {
        SocConfig {
            npu: NpuConfig::paper_default(),
            cache: CacheConfig::paper_default(),
            dram: DramConfig::paper_default(),
        }
    }

    /// Scaling-experiment variant: same SoC with a different cache size.
    pub fn with_cache_bytes(mut self, total_bytes: u64) -> Self {
        self.cache.total_bytes = total_bytes;
        self
    }

    /// Scaling-experiment variant: same SoC with a different DRAM
    /// channel count, keeping *per-channel* bandwidth constant — the
    /// aggregate `bytes_per_cycle` scales with the channel count, so
    /// doubling the channels doubles peak memory bandwidth (the
    /// physical meaning of adding channels to a design).
    ///
    /// # Panics
    ///
    /// Panics on `channels == 0` — a zero-channel DRAM has no
    /// bandwidth and would otherwise only surface as a
    /// division-by-zero deep inside the memory model.
    pub fn with_dram_channels(mut self, channels: u32) -> Self {
        assert!(channels > 0, "the DRAM needs at least one channel");
        let per_channel = self.dram.channel_bytes_per_cycle();
        self.dram.channels = channels;
        self.dram.bytes_per_cycle = per_channel * f64::from(channels);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = SocConfig::paper_default();
        assert_eq!(c.npu.pe_rows, 32);
        assert_eq!(c.npu.pe_cols, 32);
        assert_eq!(c.npu.scratchpad_bytes, 256 * KIB);
        assert_eq!(c.npu.cores, 16);
        assert_eq!(c.cache.total_bytes, 16 * MIB);
        assert_eq!(c.cache.ways, 16);
        assert_eq!(c.cache.npu_ways, 12);
        assert_eq!(c.cache.slices, 8);
        assert_eq!(c.dram.channels, 4);
        assert!((c.dram.bytes_per_cycle - 102.4).abs() < 1e-9);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::paper_default();
        // 16 MiB / 64 B = 256 Ki lines; /8 slices /16 ways = 2048 sets.
        assert_eq!(c.total_lines(), 256 * 1024);
        assert_eq!(c.sets_per_slice(), 2048);
        // NPU subspace: 12/16 of 16 MiB = 12 MiB -> 384 pages of 32 KiB.
        assert_eq!(c.npu_subspace_bytes(), 12 * MIB);
        assert_eq!(c.npu_pages(), 384);
        assert_eq!(c.lines_per_page(), 512);
    }

    #[test]
    fn paper_page_table_bound() {
        // Section III-B3: with a 16 MiB cache and 32 KiB pages the CPT has
        // at most 512 entries.
        let c = CacheConfig::paper_default();
        let max_pages_full_cache = c.total_bytes / c.page_bytes;
        assert_eq!(max_pages_full_cache, 512);
    }

    #[test]
    fn dram_channel_math() {
        let d = DramConfig::paper_default();
        assert!((d.channel_bytes_per_cycle() - 25.6).abs() < 1e-9);
        // One 64 B line needs ceil(64/25.6) = 3 cycles on a channel.
        assert_eq!(d.line_burst_cycles(64), 3);
    }

    #[test]
    fn dram_validation() {
        let with = |edit: fn(&mut DramConfig)| {
            let mut c = DramConfig::paper_default();
            edit(&mut c);
            c.validate(64)
        };
        assert!(with(|_| {}).is_ok());
        // Odd but runnable geometry stays legal.
        assert!(with(|c| c.row_bytes = 100).is_ok());
        // Slow but representable: 2.56e11 cycles per line.
        assert!(with(|c| c.bytes_per_cycle = 1e-9).is_ok());
        for bad in [
            with(|c| c.channels = 0),
            with(|c| c.banks_per_channel = 0),
            with(|c| c.row_bytes = 0),
            with(|c| c.bytes_per_cycle = 0.0),
            with(|c| c.bytes_per_cycle = -1.0),
            with(|c| c.bytes_per_cycle = f64::NAN),
            with(|c| c.bytes_per_cycle = f64::INFINITY),
            // A 64 B line would take 2.56e14 cycles, past the 2^44-cycle
            // range of the model's fixed-point time.
            with(|c| c.bytes_per_cycle = 1e-12),
        ] {
            assert!(bad.is_err());
        }
    }

    #[test]
    fn scaling_variant_keeps_other_fields() {
        let c = SocConfig::paper_default().with_cache_bytes(64 * MIB);
        assert_eq!(c.cache.total_bytes, 64 * MIB);
        assert_eq!(c.cache.ways, 16);
        assert_eq!(c.npu.cores, 16);
    }

    #[test]
    fn channel_variant_scales_aggregate_bandwidth() {
        let c = SocConfig::paper_default().with_dram_channels(8);
        assert_eq!(c.dram.channels, 8);
        // Per-channel bandwidth is held at the Table II 25.6 B/cycle, so
        // the aggregate doubles with the channel count.
        assert!((c.dram.channel_bytes_per_cycle() - 25.6).abs() < 1e-9);
        assert!((c.dram.bytes_per_cycle - 204.8).abs() < 1e-9);
        // Identity at the paper's own channel count.
        let same = SocConfig::paper_default().with_dram_channels(4);
        assert_eq!(same.dram, DramConfig::paper_default());
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_are_rejected_at_configuration_time() {
        let _ = SocConfig::paper_default().with_dram_channels(0);
    }
}
