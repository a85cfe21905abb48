//! The result line, plus the order statistics every metric is built
//! from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation reports: the output-check verdict, the
/// operation counts and the metrics.
#[derive(Default)]
pub struct Report {
    /// Operations run (engine runs, replay windows, layer replays).
    pub attempted: u64,
    /// Operations that returned an error or whose output mismatched.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation; `ok == false` marks it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one operation, failing it on error or on `Ok(false)`, and
    /// prints the reason of a failure to stderr.
    pub fn check(&mut self, what: &str, outcome: Result<bool, String>) {
        match outcome {
            Ok(true) => self.op(true),
            Ok(false) => {
                eprintln!("output check failed: {what}");
                self.op(false);
            }
            Err(e) => {
                eprintln!("operation failed: {what}: {e}");
                self.op(false);
            }
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The single-line JSON result. Values print in Rust's shortest
    /// round-trip form, so every measured digit survives.
    ///
    /// # Errors
    ///
    /// A non-finite metric (JSON cannot carry it) or no operation at
    /// all.
    pub fn to_json(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            // f64's Display never uses an exponent, so it is valid JSON.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest order statistic with at least ten samples above it, or
/// the maximum when there are fewer than eleven samples; NaN when
/// empty.
pub fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n <= 10 => v[n - 1],
        n => v[n - 11],
    }
}

/// The host-speed probe's median time on this benchmark's reference
/// host, an otherwise idle 2-vCPU Intel Xeon VM, seconds.
pub const PROBE_REF_S: f64 = 0.02;
/// Steps of the host-speed probe.
const PROBE_STEPS: u64 = 4_000_000;

/// Runs the host-speed probe once and returns its wall seconds: eight
/// independent multiply-xor-shift chains, enough parallel work to keep
/// a core's integer units busy. It touches no memory, so its time does
/// not depend on what the program left in the caches, and it never
/// changes with the program. Other tenants of the host that share the
/// core or lower its clock slow it as they slow the simulator: over a
/// run's repeats its time and the repeat's correlate at 0.5 to 0.6. (A
/// pointer chase over a 4 MiB table, tried first, did not: its time
/// mostly told how much of the table the last repeat had evicted.)
pub fn host_probe_s() -> f64 {
    let t0 = Instant::now();
    let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..PROBE_STEPS {
        for (k, v) in chains.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(i ^ k as u64);
            *v ^= *v >> 17;
        }
    }
    std::hint::black_box(chains);
    t0.elapsed().as_secs_f64()
}

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` has held.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak.
///
/// The peak counts bytes the program asked for, whether or not it has
/// touched them yet, so it does not depend on which pages of a
/// reserved buffer a seed happens to reach (the resident set size
/// does).
pub struct PeakAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// the sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap of this process so far, MiB (needs [`PeakAlloc`] as
/// the global allocator).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(tail(&[1.0, 5.0, 2.0]), 5.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), 90.0, "ten samples lie above the tail");
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.op(true);
        r.push("latency_ms", 1.25, "ms");
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.push("bad", f64::NAN, "ms");
        assert!(r.to_json().is_err());
    }
}
