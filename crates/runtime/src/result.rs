//! The result pipeline: compact run summaries and opt-in per-task
//! detail.
//!
//! A simulation's observable output is split in two:
//!
//! * [`RunSummary`] — a `Copy` struct of scalar aggregates (hit rate,
//!   latency, DRAM traffic, makespan, SLA rate) plus a compact
//!   [`LatencyTail`] (fixed-size bucket counts; p50/p90/p95/p99/p99.9
//!   queries). This is what scaling studies keep per grid cell: its
//!   size is independent of the tenant count, so a 256-tenant ×
//!   1000-cell sweep stays memory-bounded — and tail percentiles are
//!   available even when no detail is retained.
//! * [`RunDetail`] — the per-task [`TaskSummary`] table and, at
//!   [`DetailLevel::Full`], a latency histogram. Opt-in via
//!   [`SimulationBuilder::detail`](crate::SimulationBuilder::detail),
//!   because its size grows with the number of co-located tasks.
//!
//! Every run returns a [`RunOutput`] carrying the summary, the policy
//! label and (depending on the configured [`DetailLevel`]) the detail.
//! The summary is computed identically at every detail level, so a
//! summary-only run is bit-for-bit the `summary` of a detailed run
//! (tested in `crates/camdn/tests/results_pipeline.rs`).

use camdn_common::stats::{bucket_quantile, Histogram};
use camdn_common::types::{cycles_to_ms, Cycle};
use serde::{Deserialize, Serialize};

/// How much per-run output the engine should retain.
///
/// Ordered: each level includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DetailLevel {
    /// Scalar aggregates only ([`RunSummary`]); `RunOutput::detail` is
    /// `None`. The right level for large sweeps.
    Summary,
    /// Summary plus the per-task [`TaskSummary`] table.
    Tasks,
    /// Summary, per-task table and the run-level latency histogram.
    Full,
}

/// Latency-histogram bucket edges, in cycles (1 GHz clock): powers of
/// two from ~65 µs (`2^16`) to ~1.07 s (`2^30`).
pub const LATENCY_HIST_EDGES: [u64; 15] = [
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
    1 << 27,
    1 << 28,
    1 << 29,
    1 << 30,
];

/// Number of buckets of the fixed latency ladder
/// ([`LATENCY_HIST_EDGES`] plus the open-ended overflow bucket).
pub const LATENCY_HIST_BUCKETS: usize = LATENCY_HIST_EDGES.len() + 1;

/// Compact tail-latency statistics of one run: a fixed-size bucket
/// ladder over [`LATENCY_HIST_EDGES`], queryable for p50/p90/p95/p99/
/// p99.9, and carried *inside* [`RunSummary`] — so percentiles are
/// available even at [`DetailLevel::Summary`], where no [`RunDetail`]
/// (and no heap-allocated [`Histogram`]) is retained.
///
/// `Copy` and exactly `O(bins)` in size (16 bucket counts + min/max),
/// independent of the inference count, so sweep cells stay
/// memory-flat. Tails over the same ladder are mergeable
/// ([`LatencyTail::merge`]): merged counts pool the underlying
/// samples, which is how [`SeedAggregate`] derives per-coordinate
/// percentiles from *pooled* seeds rather than averaging per-seed
/// percentiles (percentiles do not average).
///
/// Quantile estimates inherit the [`bucket_quantile`] guarantees:
/// never below the exact sorted-sample quantile, and
/// within the matching bucket's width of it (a `< 2×` relative error
/// on this power-of-two ladder).
///
/// [`SeedAggregate`]: https://docs.rs/camdn-sweep
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyTail {
    /// Per-bucket sample counts over [`LATENCY_HIST_EDGES`].
    counts: [u64; LATENCY_HIST_BUCKETS],
    /// Total recorded samples (the sum of `counts`).
    total: u64,
    /// Smallest recorded latency in cycles (`u64::MAX` when empty).
    min_cycles: u64,
    /// Largest recorded latency in cycles (`0` when empty).
    max_cycles: u64,
}

impl Default for LatencyTail {
    fn default() -> Self {
        LatencyTail::new()
    }
}

impl LatencyTail {
    /// An empty tail (no samples; every percentile reads 0.0 ms).
    pub fn new() -> Self {
        LatencyTail {
            counts: [0; LATENCY_HIST_BUCKETS],
            total: 0,
            min_cycles: u64::MAX,
            max_cycles: 0,
        }
    }

    /// Records one inference latency in cycles.
    pub fn record(&mut self, latency_cycles: Cycle) {
        let idx = LATENCY_HIST_EDGES.partition_point(|&e| e <= latency_cycles);
        self.counts[idx] += 1;
        self.total += 1;
        self.min_cycles = self.min_cycles.min(latency_cycles);
        self.max_cycles = self.max_cycles.max(latency_cycles);
    }

    /// Folds another tail into this one (bucket counts add, min/max
    /// pool) — quantiles of the merged tail are quantiles of the
    /// pooled samples.
    pub fn merge(&mut self, other: &LatencyTail) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.min_cycles = self.min_cycles.min(other.min_cycles);
        self.max_cycles = self.max_cycles.max(other.max_cycles);
    }

    /// Recorded sample count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bucket counts ([`LATENCY_HIST_BUCKETS`] entries over
    /// [`LATENCY_HIST_EDGES`]).
    pub fn counts(&self) -> &[u64; LATENCY_HIST_BUCKETS] {
        &self.counts
    }

    /// Smallest recorded latency in cycles (`None` when empty).
    pub fn min_cycles(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min_cycles)
    }

    /// Largest recorded latency in cycles (`None` when empty).
    pub fn max_cycles(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_cycles)
    }

    /// Upper-bound estimate of the `q`-quantile latency in cycles
    /// (`None` when empty); see [`bucket_quantile`] for the
    /// documented error bound.
    pub fn quantile_cycles(&self, q: f64) -> Option<u64> {
        bucket_quantile(&LATENCY_HIST_EDGES, &self.counts, self.max_cycles, q)
    }

    /// Upper-bound estimate of the `q`-quantile latency in
    /// milliseconds (0.0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_cycles(q).map_or(0.0, cycles_to_ms)
    }

    /// Median latency estimate, ms.
    pub fn p50_ms(&self) -> f64 {
        self.quantile_ms(0.50)
    }

    /// 90th-percentile latency estimate, ms.
    pub fn p90_ms(&self) -> f64 {
        self.quantile_ms(0.90)
    }

    /// 95th-percentile latency estimate, ms.
    pub fn p95_ms(&self) -> f64 {
        self.quantile_ms(0.95)
    }

    /// 99th-percentile latency estimate, ms.
    pub fn p99_ms(&self) -> f64 {
        self.quantile_ms(0.99)
    }

    /// 99.9th-percentile latency estimate, ms.
    pub fn p999_ms(&self) -> f64 {
        self.quantile_ms(0.999)
    }
}

/// Per-task summary of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSummary {
    /// Model abbreviation (Table I).
    pub abbr: String,
    /// QoS target in ms.
    pub qos_ms: f64,
    /// Measured inferences (after warm-up).
    pub inferences: usize,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Mean DRAM traffic per inference, MB.
    pub mean_dram_mb: f64,
    /// SLA satisfaction rate (QoS mode).
    pub sla_rate: f64,
    /// Arrivals shed by deadline-aware admission control (0 unless
    /// admission control is on and the task missed its deadline
    /// prediction).
    #[serde(default)]
    pub shed: u64,
}

/// Compact scalar aggregates of one run. `Copy`: its size does not
/// depend on the workload, so grid sweeps can keep one per cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Number of tasks in the workload.
    pub tasks: usize,
    /// Total measured inferences across all tasks (after warm-up).
    pub inferences: usize,
    /// Shared-cache hit rate (transparent path for baselines;
    /// controlled hits over all NPU line movements for CaMDN).
    pub cache_hit_rate: f64,
    /// Mean of per-task mean latencies, ms.
    pub avg_latency_ms: f64,
    /// Mean DRAM traffic per model inference, MB.
    pub mem_mb_per_model: f64,
    /// Wall-clock span of the simulation, ms.
    pub makespan_ms: f64,
    /// Inference-weighted SLA satisfaction rate over all tasks
    /// (1.0 when nothing was measured, or without QoS deadlines).
    pub sla_rate: f64,
    /// Line transfers saved by multicast, MB.
    pub multicast_saved_mb: f64,
    /// Tail-latency statistics over every measured inference:
    /// p50/p90/p95/p99/p99.9 queries at O(bins) memory, populated at
    /// *every* [`DetailLevel`] (mean latency hides the SLA-violating
    /// p99 spikes multi-tenant cache contention produces).
    pub latency_tail: LatencyTail,
    /// Arrivals shed by deadline-aware admission control across all
    /// tasks (always 0 unless
    /// [`SimulationBuilder::admission_control`](crate::SimulationBuilder::admission_control)
    /// is on).
    #[serde(default)]
    pub shed_requests: u64,
    /// Inferences killed by an NPU failure and re-queued (always 0
    /// without a [`FaultPlan`](crate::FaultPlan)).
    #[serde(default)]
    pub retried_inferences: u64,
    /// Inferences dropped after exhausting the fault-retry budget
    /// (always 0 without a [`FaultPlan`](crate::FaultPlan)).
    #[serde(default)]
    pub dropped_inferences: u64,
}

/// One point of an opt-in queue-depth timeline: how many requests had
/// arrived but not yet finished at a fixed sampling boundary.
///
/// Produced only when
/// [`SimulationBuilder::sample_queue_depth`](crate::SimulationBuilder::sample_queue_depth)
/// sets a sampling interval; the default engine run records none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueSample {
    /// Sample time in engine cycles (a multiple of the interval).
    pub cycle: Cycle,
    /// Requests arrived but not yet retired across all tasks
    /// (executing requests count: depth 0 means a fully idle system).
    pub outstanding: u32,
}

/// Opt-in per-task (and, at [`DetailLevel::Full`], per-latency) detail
/// of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDetail {
    /// Per-task summaries in task order.
    pub tasks: Vec<TaskSummary>,
    /// Histogram of measured inference latencies in cycles over
    /// [`LATENCY_HIST_EDGES`] (`None` below [`DetailLevel::Full`]).
    pub latency_hist: Option<Histogram>,
    /// Queue-depth timeline at the configured sampling interval
    /// (empty unless queue sampling was requested).
    pub queue_depth: Vec<QueueSample>,
}

/// Everything one engine run produces: the policy label, the compact
/// [`RunSummary`], and — when the builder asked for it — a
/// [`RunDetail`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutput {
    /// Label of the policy that produced this result.
    pub policy: String,
    /// Scalar aggregates (always present).
    pub summary: RunSummary,
    /// Per-task detail (`None` when the run was summary-only).
    pub detail: Option<RunDetail>,
}

impl RunOutput {
    /// The per-task summaries.
    ///
    /// # Panics
    ///
    /// Panics when the run was summary-only — request detail with
    /// [`SimulationBuilder::detail`](crate::SimulationBuilder::detail)
    /// (or the sweep builder's `detail`) first. Use
    /// [`RunOutput::try_tasks`] for a non-panicking variant.
    pub fn tasks(&self) -> &[TaskSummary] {
        self.try_tasks()
            // camdn-lint: allow(panic-in-lib, reason = "documented panicking accessor; try_tasks is the fallible variant")
            .expect("run was summary-only; request DetailLevel::Tasks or ::Full")
    }

    /// The per-task summaries, or `None` for a summary-only run.
    pub fn try_tasks(&self) -> Option<&[TaskSummary]> {
        self.detail.as_ref().map(|d| d.tasks.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(detail: Option<RunDetail>) -> RunOutput {
        RunOutput {
            policy: "Baseline".into(),
            summary: RunSummary {
                tasks: 1,
                inferences: 2,
                cache_hit_rate: 0.5,
                avg_latency_ms: 1.25,
                mem_mb_per_model: 3.5,
                makespan_ms: 10.0,
                sla_rate: 1.0,
                multicast_saved_mb: 0.0,
                latency_tail: LatencyTail::new(),
                shed_requests: 0,
                retried_inferences: 0,
                dropped_inferences: 0,
            },
            detail,
        }
    }

    #[test]
    fn detail_levels_are_ordered() {
        assert!(DetailLevel::Summary < DetailLevel::Tasks);
        assert!(DetailLevel::Tasks < DetailLevel::Full);
    }

    #[test]
    #[should_panic(expected = "summary-only")]
    fn tasks_accessor_names_the_fix() {
        let _ = output(None).tasks();
    }

    #[test]
    fn latency_tail_quantiles_track_recorded_samples() {
        let mut t = LatencyTail::new();
        assert_eq!(t.total(), 0);
        assert_eq!(t.quantile_cycles(0.99), None);
        assert_eq!(t.p99_ms(), 0.0, "empty tail is NaN-free");
        assert_eq!(t.min_cycles(), None);
        // 99 fast inferences in [2^20, 2^21), one slow one in
        // [2^24, 2^25): the p50 stays in the fast bucket, the p99.9
        // lands on the straggler's bucket (clamped to the recorded
        // max).
        for _ in 0..99 {
            t.record(1_500_000);
        }
        t.record(20_000_000);
        assert_eq!(t.total(), 100);
        assert_eq!(t.min_cycles(), Some(1_500_000));
        assert_eq!(t.max_cycles(), Some(20_000_000));
        let p50 = t.quantile_cycles(0.50).unwrap();
        assert!((1_500_000..1 << 21).contains(&p50), "p50 {p50}");
        assert_eq!(t.quantile_cycles(0.999), Some(20_000_000));
        assert_eq!(t.quantile_cycles(1.0), Some(20_000_000));
        // ms accessors are cycles_to_ms of the cycle estimates.
        assert!((t.p999_ms() - cycles_to_ms(20_000_000)).abs() < 1e-12);
    }

    #[test]
    fn latency_tail_merge_pools_samples() {
        let mut a = LatencyTail::new();
        let mut b = LatencyTail::new();
        let mut all = LatencyTail::new();
        for (i, v) in [(0u64, 100_000u64), (1, 2_000_000), (2, 40_000_000)]
            .iter()
            .flat_map(|&(k, v)| std::iter::repeat_n((k, v), 5))
        {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must pool exactly");
        // An empty merge is the identity (min/max untouched).
        let before = a;
        a.merge(&LatencyTail::new());
        assert_eq!(a, before);
    }
}
