//! Cell sinks: collection of sweep results as cells finish.
//!
//! A [`CellSink`] receives each cell *as it finishes*; the executor
//! drives it from the worker threads (serialized — a sink never sees
//! two cells at once), in completion order, so every sink must turn
//! any delivery order of the same cells into the same result.
//!
//! Two sinks ship with the crate:
//!
//! * [`MemorySink`] — the in-memory [`SweepResult`](crate::SweepResult) behind
//!   [`SweepBuilder::run`](crate::SweepBuilder::run), summary-only by
//!   default;
//! * [`SeedAggregate`] — folds the seeds axis into mean / sample
//!   stddev / 95% Student-t confidence intervals per non-seed cell,
//!   pooling the per-seed latency tails by histogram merge so
//!   percentiles come from the pooled samples — the multi-seed
//!   statistics the scaling studies report.

use crate::{CellCoord, SweepAxes, SweepCell};
use camdn_common::stats::Welford;
use camdn_runtime::{EngineError, LatencyTail, RunSummary};
use std::collections::BTreeMap;

pub use crate::exec::CellRun;

/// Outcome of one finished cell, as delivered to a [`CellSink`]
/// (the executor's [`CellRun`] under the name the sink API uses).
pub type CellOutcome = CellRun;

/// A consumer of finished sweep cells.
///
/// The executor calls [`CellSink::on_cell`] once per cell, in
/// *completion* order (non-deterministic under more than one worker
/// thread); the coordinate identifies the cell. Calls are serialized —
/// implementations need no locking of their own, but must be `Send`
/// because the call comes from a worker thread.
pub trait CellSink: Send {
    /// Receives one finished cell.
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome);
}

// ------------------------------------------------------------------
// In-memory sink
// ------------------------------------------------------------------

/// Collects cells into row-major order for a [`SweepResult`].
///
/// [`SweepResult`]: crate::SweepResult
#[derive(Debug)]
pub struct MemorySink {
    axes: SweepAxes,
    cells: Vec<Option<SweepCell>>,
}

impl MemorySink {
    /// Creates a sink for a grid with the given axes (one slot per
    /// coordinate of the cross-product).
    pub fn new(axes: SweepAxes) -> Self {
        let slots = axes.cell_count();
        MemorySink {
            axes,
            cells: (0..slots).map(|_| None).collect(),
        }
    }

    /// Consumes the sink: the cells in row-major order (missing slots —
    /// a cell the executor never delivered — become structured errors).
    pub fn into_cells(self) -> Vec<SweepCell> {
        let axes = self.axes;
        self.cells
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| SweepCell {
                    coord: axes.coord_of(i),
                    outcome: Err(EngineError::Panicked {
                        detail: "worker thread lost this cell".into(),
                    }),
                    wall_s: 0.0,
                })
            })
            .collect()
    }
}

impl CellSink for MemorySink {
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome) {
        let idx = self.axes.index_of(&coord);
        self.cells[idx] = Some(SweepCell {
            coord,
            outcome: outcome.outcome,
            wall_s: outcome.wall_s,
        });
    }
}

// ------------------------------------------------------------------
// Multi-seed statistics sink
// ------------------------------------------------------------------

/// Mean / sample stddev / 95% CI half-width of one metric over the
/// seeds of a cell group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Arithmetic mean over seeds.
    pub mean: f64,
    /// Sample standard deviation (0.0 with fewer than two seeds).
    pub stddev: f64,
    /// Half-width of the two-sided 95% Student-t confidence interval
    /// of the mean (0.0 with fewer than two seeds).
    pub ci95: f64,
}

impl From<&Welford> for MetricStats {
    fn from(w: &Welford) -> Self {
        MetricStats {
            mean: w.mean(),
            stddev: w.stddev(),
            ci95: w.ci95(),
        }
    }
}

/// Multi-seed statistics of one non-seed coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStats {
    /// The group's coordinate with `seed` normalized to 0.
    pub coord: CellCoord,
    /// Successful runs folded into the statistics.
    pub n: u64,
    /// Failed cells in the group (excluded from the statistics).
    pub errors: u64,
    /// Stats over [`RunSummary::avg_latency_ms`].
    pub avg_latency_ms: MetricStats,
    /// Stats over [`RunSummary::mem_mb_per_model`].
    pub mem_mb_per_model: MetricStats,
    /// Stats over [`RunSummary::cache_hit_rate`].
    pub cache_hit_rate: MetricStats,
    /// Stats over [`RunSummary::makespan_ms`].
    pub makespan_ms: MetricStats,
    /// Stats over [`RunSummary::sla_rate`].
    pub sla_rate: MetricStats,
    /// The group's per-seed [`RunSummary::latency_tail`]s pooled by
    /// histogram merge: `latency_tail.p99_ms()` is the p99 of *all*
    /// inferences across the seeds, not an average of per-seed p99s
    /// (percentiles do not average — a seed with a long tail would be
    /// washed out).
    pub latency_tail: LatencyTail,
}

/// The per-seed scalars [`SeedAggregate`] keeps: average latency,
/// memory per model, hit rate, makespan and SLA rate, in that order.
type SeedScalars = [f64; 5];

#[derive(Debug, Default)]
struct SeedGroup {
    errors: u64,
    /// Each successful seed's scalars, sorted by seed index.
    seeds: Vec<(usize, SeedScalars)>,
    tail: LatencyTail,
}

/// Folds the seeds axis into per-group mean / stddev / 95% CI as cells
/// arrive: two cells belong to the same group when every coordinate
/// but `seed` matches.
///
/// Each group keeps its seeds' five scalars keyed by seed index
/// (O(seeds) per group, independent of the tenant count), and
/// [`stats`](SeedAggregate::stats) runs the Welford fold in seed order.
/// The latency tails merge by integer bucket counts. So the statistics
/// are bit-identical whatever order the cells arrive in: a streamed
/// sweep at any thread count equals [`SeedAggregate::of`] over the
/// finished in-memory result.
#[derive(Debug, Default)]
pub struct SeedAggregate {
    groups: BTreeMap<CellCoord, SeedGroup>,
}

impl SeedAggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        SeedAggregate::default()
    }

    /// Folds a whole in-memory sweep and returns the statistics.
    pub fn of(result: &crate::SweepResult) -> Vec<SeedStats> {
        let mut agg = SeedAggregate::new();
        for cell in &result.cells {
            match &cell.outcome {
                Ok(run) => agg.fold(cell.coord, &run.summary),
                Err(_) => agg.fold_error(cell.coord),
            }
        }
        agg.stats()
    }

    /// Folds one successful cell's summary into its group: its scalars
    /// are filed under its seed index, and its latency tail is merged.
    pub fn fold(&mut self, coord: CellCoord, summary: &RunSummary) {
        let g = self.groups.entry(group_key(coord)).or_default();
        let at = g.seeds.partition_point(|&(seed, _)| seed <= coord.seed);
        g.seeds.insert(
            at,
            (
                coord.seed,
                [
                    summary.avg_latency_ms,
                    summary.mem_mb_per_model,
                    summary.cache_hit_rate,
                    summary.makespan_ms,
                    summary.sla_rate,
                ],
            ),
        );
        g.tail.merge(&summary.latency_tail);
    }

    /// Counts one failed cell against its group.
    pub fn fold_error(&mut self, coord: CellCoord) {
        self.groups.entry(group_key(coord)).or_default().errors += 1;
    }

    /// The per-group statistics, sorted in row-major coordinate order.
    pub fn stats(&self) -> Vec<SeedStats> {
        let mut out: Vec<SeedStats> = self
            .groups
            .iter()
            .map(|(coord, g)| {
                let mut w = [Welford::new(); 5];
                for (_, scalars) in &g.seeds {
                    for (w, &v) in w.iter_mut().zip(scalars) {
                        w.record(v);
                    }
                }
                SeedStats {
                    coord: *coord,
                    n: g.seeds.len() as u64,
                    errors: g.errors,
                    avg_latency_ms: (&w[0]).into(),
                    mem_mb_per_model: (&w[1]).into(),
                    cache_hit_rate: (&w[2]).into(),
                    makespan_ms: (&w[3]).into(),
                    sla_rate: (&w[4]).into(),
                    latency_tail: g.tail,
                }
            })
            .collect();
        out.sort_by_key(|s| {
            let c = s.coord;
            (
                c.policy,
                c.soc,
                c.cache,
                c.channel,
                c.workload,
                c.qos,
                c.lookahead,
                c.fault,
            )
        });
        out
    }
}

impl CellSink for SeedAggregate {
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome) {
        match &outcome.outcome {
            Ok(run) => self.fold(coord, &run.summary),
            Err(_) => self.fold_error(coord),
        }
    }
}

fn group_key(mut coord: CellCoord) -> CellCoord {
    coord.seed = 0;
    coord
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(seed: usize) -> CellCoord {
        CellCoord {
            policy: 1,
            soc: 0,
            cache: 2,
            channel: 0,
            workload: 0,
            qos: 0,
            lookahead: 0,
            fault: 0,
            seed,
        }
    }

    fn summary(lat: f64) -> RunSummary {
        let mut latency_tail = LatencyTail::new();
        latency_tail.record(camdn_common::types::ms_to_cycles(lat));
        RunSummary {
            tasks: 2,
            inferences: 4,
            cache_hit_rate: lat / 100.0,
            avg_latency_ms: lat,
            mem_mb_per_model: 2.0 * lat,
            makespan_ms: 10.0 * lat,
            sla_rate: 1.0,
            multicast_saved_mb: 0.0,
            shed_requests: 0,
            retried_inferences: 0,
            dropped_inferences: 0,
            latency_tail,
        }
    }

    #[test]
    fn seed_aggregate_matches_hand_computed_fixture() {
        // Latencies {10, 12, 14} over three seeds: mean 12, sample
        // stddev 2, CI95 half-width t(0.975, 2) * 2 / sqrt(3).
        let mut agg = SeedAggregate::new();
        for (seed, lat) in [(0, 10.0), (1, 12.0), (2, 14.0)] {
            agg.fold(coord(seed), &summary(lat));
        }
        let stats = agg.stats();
        assert_eq!(stats.len(), 1, "one non-seed group");
        let s = &stats[0];
        assert_eq!(s.coord.seed, 0);
        assert_eq!((s.coord.policy, s.coord.cache), (1, 2));
        assert_eq!(s.n, 3);
        assert_eq!(s.errors, 0);
        assert!((s.avg_latency_ms.mean - 12.0).abs() < 1e-12);
        assert!((s.avg_latency_ms.stddev - 2.0).abs() < 1e-12);
        let expect_ci = 4.303 * 2.0 / 3.0_f64.sqrt();
        assert!(
            (s.avg_latency_ms.ci95 - expect_ci).abs() < 1e-9,
            "ci {} != {expect_ci}",
            s.avg_latency_ms.ci95
        );
        // The dependent metrics scale with the fixture.
        assert!((s.mem_mb_per_model.mean - 24.0).abs() < 1e-12);
        assert!((s.makespan_ms.stddev - 20.0).abs() < 1e-12);
        assert!((s.sla_rate.stddev - 0.0).abs() < 1e-12);
    }

    #[test]
    fn seed_aggregate_is_independent_of_arrival_order() {
        // Latencies whose Welford fold rounds differently in different
        // orders: the statistics must still match the in-order fold bit
        // for bit, because the fold runs in seed order.
        let lat = |seed: usize| 2e3 + (seed as f64 * 0.731).sin() * 1e3 + seed as f64 / 7.0;
        let feed = |order: &[usize]| {
            let mut agg = SeedAggregate::new();
            for &seed in order {
                agg.fold(coord(seed), &summary(lat(seed)));
            }
            agg.stats()
        };
        let in_order: Vec<usize> = (0..24).collect();
        let want = feed(&in_order);
        let reversed: Vec<usize> = in_order.iter().rev().copied().collect();
        assert_eq!(feed(&reversed), want, "reversed delivery");
        let mut rng = camdn_common::SimRng::new(0x5EED);
        for _ in 0..8 {
            let mut shuffled = in_order.clone();
            rng.shuffle(&mut shuffled);
            assert_eq!(feed(&shuffled), want, "shuffled delivery {shuffled:?}");
        }
    }

    #[test]
    fn error_cells_are_counted_not_folded() {
        let mut agg = SeedAggregate::new();
        agg.fold(coord(0), &summary(10.0));
        agg.fold_error(coord(1));
        let stats = agg.stats();
        assert_eq!(stats[0].n, 1);
        assert_eq!(stats[0].errors, 1);
        assert_eq!(stats[0].avg_latency_ms.mean, 10.0);
        assert_eq!(stats[0].avg_latency_ms.ci95, 0.0, "one sample, no CI");
    }

    #[test]
    fn seed_aggregate_pools_tails_instead_of_averaging_percentiles() {
        // Seed 0: 99 fast inferences. Seed 1: 99 fast + 99 slow. The
        // pooled p99 must see the slow samples (pooled tail ranks over
        // all 297 samples); an average of per-seed p99s would sit half
        // way and a fast-only pool would miss them entirely.
        let fast = 1_000_000u64; // ~1 ms
        let slow = 500_000_000u64; // ~500 ms
        let mk = |n_fast: u64, n_slow: u64| {
            let mut s = summary(1.0);
            let mut t = LatencyTail::new();
            for _ in 0..n_fast {
                t.record(fast);
            }
            for _ in 0..n_slow {
                t.record(slow);
            }
            s.latency_tail = t;
            s
        };
        let mut agg = SeedAggregate::new();
        agg.fold(coord(0), &mk(99, 0));
        agg.fold(coord(1), &mk(99, 99));
        let stats = agg.stats();
        assert_eq!(stats.len(), 1);
        let pooled = stats[0].latency_tail;
        assert_eq!(pooled.total(), 297);
        // A third of the pooled samples are slow: p90 and above land in
        // the slow straggler's bucket (clamped to the recorded max).
        assert_eq!(pooled.quantile_cycles(0.90), Some(slow));
        assert_eq!(pooled.max_cycles(), Some(slow));
        // The median stays fast.
        let p50 = pooled.quantile_cycles(0.50).unwrap();
        assert!(p50 < 2 * fast, "median {p50} must stay in the fast bucket");
    }
}
