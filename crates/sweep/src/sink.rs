//! Cell sinks: streaming collection of sweep results.
//!
//! The original sweep buffered every cell until the whole grid
//! finished, which made very large grids (hundreds of tenants × many
//! seeds) memory-unbounded and non-resumable. A [`CellSink`] receives
//! each cell *as it finishes* instead; the executor drives it from the
//! worker threads (serialized — a sink never sees two cells at once).
//!
//! Three sinks ship with the crate:
//!
//! * [`MemorySink`] — today's in-memory [`SweepResult`], now
//!   summary-only by default and bounded by an optional per-grid
//!   detail-memory budget;
//! * [`JsonlSink`] — a streamed `camdn-sweep-cells/3` writer: one JSON
//!   line per cell (summary scalars + the compact latency tail),
//!   written the moment the cell completes, so a killed grid leaves a
//!   valid log behind and
//!   [`SweepBuilder::resume`](crate::SweepBuilder::resume) can skip the
//!   already-recorded coordinates;
//! * [`SeedAggregate`] — folds the seeds axis into mean / sample
//!   stddev / 95% Student-t confidence intervals per non-seed cell,
//!   pooling the per-seed latency tails by histogram merge so
//!   percentiles come from the pooled samples — the multi-seed
//!   statistics the scaling studies report.

use crate::jsonl::{esc, field, jnum, parse_flat_object, JsonVal};
use crate::{CellCoord, SweepAxes, SweepCell};
use camdn_common::stats::Welford;
use camdn_runtime::{
    EngineError, LatencyTail, RunOutput, RunSummary, LATENCY_HIST_BUCKETS, LATENCY_HIST_EDGES,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

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
// JSONL streaming sink
// ------------------------------------------------------------------

/// Streamed cell log: schema `camdn-sweep-cells/3`.
///
/// The first line is a header naming the schema, every axis, and the
/// latency-histogram bucket edges; each subsequent line is one cell —
/// its coordinate, wall time, and either the policy label +
/// [`RunSummary`] scalars (including the fault counters
/// `shed_requests` / `retried_inferences` / `dropped_inferences`)
/// plus the compact latency tail (`"ok": true`) or the error text.
/// Lines are written unbuffered the moment the cell completes, so a
/// killed grid leaves every finished cell on disk; a torn final line
/// (kill mid-write) is ignored by the reader and the cell simply
/// re-runs on resume.
///
/// Summary floats are serialized with Rust's shortest-roundtrip
/// `Display`, so a parsed line reproduces the in-memory summary —
/// including its [`LatencyTail`] (integer bucket counts + min/max
/// cycles) — bit-for-bit.
///
/// [`SweepBuilder::resume`](crate::SweepBuilder::resume) reads only
/// this schema: a log written under an older `camdn-sweep-cells`
/// version is an [`EngineError::InvalidConfig`] that names it.
#[derive(Debug)]
pub struct JsonlSink {
    file: std::fs::File,
    path: PathBuf,
    error: Option<String>,
}

/// Schema identifier of the cell-log header line.
pub const CELLS_SCHEMA: &str = "camdn-sweep-cells/3";

impl JsonlSink {
    /// Creates (truncates) the log at `path` and writes the header line
    /// for `axes`.
    pub fn create(path: impl AsRef<Path>, axes: &SweepAxes) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path)?;
        file.write_all(header_line(axes).as_bytes())?;
        file.write_all(b"\n")?;
        Ok(JsonlSink {
            file,
            path,
            error: None,
        })
    }

    /// Rewrites the log at `path` as header + the given cells, then
    /// opens it for appending. The rewrite goes through a scratch file
    /// that is atomically renamed over the original, so the previously
    /// persisted cells can never be lost to a kill mid-rewrite.
    pub(crate) fn rewrite(
        path: impl AsRef<Path>,
        axes: &SweepAxes,
        cells: &[(CellCoord, CellOutcome)],
    ) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".rewrite");
        let tmp = PathBuf::from(tmp);
        {
            let mut sink = JsonlSink::create(&tmp, axes)?;
            for (coord, cell) in cells {
                sink.write_cell(*coord, cell);
            }
            if let Some(detail) = sink.error {
                return Err(std::io::Error::other(detail));
            }
            sink.file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(JsonlSink {
            file,
            path,
            error: None,
        })
    }

    /// Writes one cell line. I/O failures are recorded and re-surfaced
    /// by [`JsonlSink::finish`] (a sink callback has nowhere to return
    /// an error mid-grid).
    pub fn write_cell(&mut self, coord: CellCoord, outcome: &CellOutcome) {
        if self.error.is_some() {
            return;
        }
        let mut line = cell_line(coord, outcome);
        line.push('\n');
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            self.error = Some(format!("writing {}: {e}", self.path.display()));
        }
    }

    /// Flushes and closes the log, surfacing any write error deferred
    /// during the grid.
    pub fn finish(mut self) -> Result<(), EngineError> {
        if self.error.is_none() {
            if let Err(e) = self.file.flush() {
                self.error = Some(format!("flushing {}: {e}", self.path.display()));
            }
        }
        match self.error {
            None => Ok(()),
            Some(detail) => Err(EngineError::Io { detail }),
        }
    }
}

impl CellSink for JsonlSink {
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome) {
        self.write_cell(coord, &outcome);
    }
}

/// The header line of a cell log for `axes`.
pub(crate) fn header_line(axes: &SweepAxes) -> String {
    let seeds: Vec<String> = axes.seeds.iter().map(u64::to_string).collect();
    let edges: Vec<String> = LATENCY_HIST_EDGES.iter().map(u64::to_string).collect();
    format!(
        "{{\"schema\": \"{}\", \"policies\": {}, \"socs\": {}, \"caches\": {}, \
         \"channels\": {}, \"workloads\": {}, \"qos\": {}, \"lookaheads\": {}, \
         \"faults\": {}, \"seeds\": [{}], \"hist_edges\": [{}]}}",
        CELLS_SCHEMA,
        crate::report::str_array(&axes.policies),
        crate::report::str_array(&axes.socs),
        crate::report::str_array(&axes.caches),
        crate::report::str_array(&axes.channels),
        crate::report::str_array(&axes.workloads),
        crate::report::str_array(&axes.qos),
        crate::report::str_array(&axes.lookaheads),
        crate::report::str_array(&axes.faults),
        seeds.join(", "),
        edges.join(", "),
    )
}

/// One cell as a JSONL line (no trailing newline).
pub(crate) fn cell_line(coord: CellCoord, outcome: &CellOutcome) -> String {
    let mut s = String::with_capacity(384);
    let _ = write!(
        s,
        "{{\"policy\": {}, \"soc\": {}, \"cache\": {}, \"channel\": {}, \"workload\": {}, \
         \"qos\": {}, \"lookahead\": {}, \"fault\": {}, \"seed\": {}, \"wall_s\": {}, ",
        coord.policy,
        coord.soc,
        coord.cache,
        coord.channel,
        coord.workload,
        coord.qos,
        coord.lookahead,
        coord.fault,
        coord.seed,
        jnum(outcome.wall_s),
    );
    match &outcome.outcome {
        Ok(run) => {
            let m = &run.summary;
            let tail = &m.latency_tail;
            let counts: Vec<String> = tail.counts().iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "\"ok\": true, \"label\": \"{}\", \"tasks\": {}, \"inferences\": {}, \
                 \"cache_hit_rate\": {}, \"avg_latency_ms\": {}, \"mem_mb_per_model\": {}, \
                 \"makespan_ms\": {}, \"sla_rate\": {}, \"multicast_saved_mb\": {}, \
                 \"shed_requests\": {}, \"retried_inferences\": {}, \
                 \"dropped_inferences\": {}, \
                 \"p50_ms\": {}, \"p90_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
                 \"p999_ms\": {}, \"lat_counts\": [{}], \"lat_min_cycles\": {}, \
                 \"lat_max_cycles\": {}}}",
                esc(&run.policy),
                m.tasks,
                m.inferences,
                jnum(m.cache_hit_rate),
                jnum(m.avg_latency_ms),
                jnum(m.mem_mb_per_model),
                jnum(m.makespan_ms),
                jnum(m.sla_rate),
                jnum(m.multicast_saved_mb),
                m.shed_requests,
                m.retried_inferences,
                m.dropped_inferences,
                jnum(tail.p50_ms()),
                jnum(tail.p90_ms()),
                jnum(tail.p95_ms()),
                jnum(tail.p99_ms()),
                jnum(tail.p999_ms()),
                counts.join(", "),
                tail.min_cycles().unwrap_or(0),
                tail.max_cycles().unwrap_or(0),
            );
        }
        Err(e) => {
            let _ = write!(s, "\"ok\": false, \"error\": \"{}\"}}", esc(&e.to_string()));
        }
    }
    s
}

/// Reads the successfully recorded cells of a log, validating that its
/// header matches `axes` (a log from a different grid must not be
/// silently merged). Error cells and torn trailing lines are skipped —
/// resume re-runs them. A log under another schema version is an
/// error that names its schema.
pub(crate) fn read_recorded(
    path: impl AsRef<Path>,
    axes: &SweepAxes,
) -> Result<Vec<(CellCoord, RunOutput, f64)>, EngineError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| EngineError::Io {
        detail: format!("reading {}: {e}", path.display()),
    })?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("").trim();
    if header != header_line(axes) {
        let schema = parse_flat_object(header)
            .and_then(|fields| Some(field(&fields, "schema")?.as_str()?.to_owned()));
        return Err(EngineError::InvalidConfig(match schema {
            Some(schema) if schema != CELLS_SCHEMA => format!(
                "{} is a {schema} log, and resume reads only {CELLS_SCHEMA} logs; \
                 delete it or point the sweep elsewhere",
                path.display()
            ),
            _ => format!(
                "{} belongs to a different grid (axes header mismatch); \
                 delete it or point the sweep elsewhere",
                path.display()
            ),
        }));
    }
    let mut out = Vec::new();
    for line in lines {
        // A torn final line (killed mid-write) parses as None: skip it
        // and let the cell re-run.
        if let Some(cell) = parse_cell_line(line, axes) {
            out.push(cell);
        }
    }
    Ok(out)
}

/// Parses one cell line back into its coordinate + summary-only
/// [`RunOutput`] + recorded wall seconds. `None` for error cells,
/// malformed (torn) lines, or out-of-range coordinates.
fn parse_cell_line(line: &str, axes: &SweepAxes) -> Option<(CellCoord, RunOutput, f64)> {
    let fields = parse_flat_object(line)?;
    let num = |key: &str| fields.iter().find(|(k, _)| k.as_str() == key)?.1.as_f64();
    let coord = CellCoord {
        policy: num("policy")? as usize,
        soc: num("soc")? as usize,
        cache: num("cache")? as usize,
        channel: num("channel")? as usize,
        workload: num("workload")? as usize,
        qos: num("qos")? as usize,
        lookahead: num("lookahead")? as usize,
        fault: num("fault")? as usize,
        seed: num("seed")? as usize,
    };
    if !axes.contains(&coord) {
        return None;
    }
    let ok = fields
        .iter()
        .find(|(k, _)| k.as_str() == "ok")
        .and_then(|(_, v)| v.as_bool())?;
    if !ok {
        return None;
    }
    let label = match &fields.iter().find(|(k, _)| k.as_str() == "label")?.1 {
        JsonVal::Str(s) => s.clone(),
        _ => return None,
    };
    // Exact u64 parse (cycle counts must roundtrip bit-for-bit; the
    // f64 path would round above 2^53).
    let int = |key: &str| match &fields.iter().find(|(k, _)| k.as_str() == key)?.1 {
        JsonVal::Num(s) => s.parse::<u64>().ok(),
        _ => None,
    };
    let raw = match &fields.iter().find(|(k, _)| k.as_str() == "lat_counts")?.1 {
        JsonVal::Arr(items) => items,
        _ => return None,
    };
    if raw.len() != LATENCY_HIST_BUCKETS {
        return None;
    }
    let mut counts = [0u64; LATENCY_HIST_BUCKETS];
    for (slot, item) in counts.iter_mut().zip(raw) {
        *slot = item.parse().ok()?;
    }
    let latency_tail =
        LatencyTail::from_parts(counts, int("lat_min_cycles")?, int("lat_max_cycles")?);
    let summary = RunSummary {
        tasks: num("tasks")? as usize,
        inferences: num("inferences")? as usize,
        cache_hit_rate: num("cache_hit_rate")?,
        avg_latency_ms: num("avg_latency_ms")?,
        mem_mb_per_model: num("mem_mb_per_model")?,
        makespan_ms: num("makespan_ms")?,
        sla_rate: num("sla_rate")?,
        multicast_saved_mb: num("multicast_saved_mb")?,
        shed_requests: int("shed_requests")?,
        retried_inferences: int("retried_inferences")?,
        dropped_inferences: int("dropped_inferences")?,
        latency_tail,
    };
    Some((
        coord,
        RunOutput {
            policy: label,
            summary,
            detail: None,
        },
        num("wall_s")?,
    ))
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

    fn roundtrip_axes() -> SweepAxes {
        SweepAxes {
            policies: vec!["Baseline".into(), "needs \"escaping\"".into()],
            socs: vec!["paper".into()],
            caches: vec!["default".into(), "16MiB".into(), "32MiB".into()],
            channels: vec!["default".into()],
            workloads: vec!["w".into()],
            qos: vec!["closed".into()],
            lookaheads: vec!["default".into()],
            faults: vec!["none".into()],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn cell_lines_roundtrip_bit_for_bit() {
        let axes = roundtrip_axes();
        let c = CellCoord {
            policy: 1,
            soc: 0,
            cache: 2,
            channel: 0,
            workload: 0,
            qos: 0,
            lookahead: 0,
            fault: 0,
            seed: 1,
        };
        // A tail with samples in three buckets plus awkward extremes:
        // the integer counts/min/max must come back exactly — the max
        // is deliberately above 2^53, where an f64 path would round.
        let mut latency_tail = LatencyTail::new();
        latency_tail.record(123);
        latency_tail.record((1 << 20) + 1);
        latency_tail.record((1 << 53) + 1);
        let run = RunOutput {
            policy: "needs \"escaping\"".into(),
            summary: RunSummary {
                tasks: 3,
                inferences: 7,
                // Awkward doubles: shortest-roundtrip Display must
                // reproduce them exactly.
                cache_hit_rate: 1.0 / 3.0,
                avg_latency_ms: 0.1 + 0.2,
                mem_mb_per_model: f64::MIN_POSITIVE,
                makespan_ms: 12345.678901234567,
                sla_rate: 1.0,
                multicast_saved_mb: 0.0,
                // Non-zero fault counters: they must roundtrip exactly.
                shed_requests: 5,
                retried_inferences: 2,
                dropped_inferences: 1,
                latency_tail,
            },
            detail: None,
        };
        let line = cell_line(
            c,
            &CellRun {
                outcome: Ok(run.clone()),
                wall_s: 0.015625,
            },
        );
        let (pc, prun, wall) = parse_cell_line(&line, &axes).expect("line parses");
        assert_eq!(pc, c);
        assert_eq!(prun, run, "summary must roundtrip bit-for-bit");
        assert_eq!(
            prun.summary.latency_tail, run.summary.latency_tail,
            "tail counts/min/max must roundtrip exactly"
        );
        assert_eq!(wall, 0.015625);
        // The line carries derived percentiles for plain consumers.
        assert!(line.contains("\"p99_ms\": "));
        // Error lines are skipped (they re-run on resume).
        let err_line = cell_line(
            c,
            &CellRun {
                outcome: Err(EngineError::EmptyWorkload),
                wall_s: 0.0,
            },
        );
        assert!(parse_cell_line(&err_line, &axes).is_none());
        // Torn lines (killed mid-write) are skipped, not fatal.
        assert!(parse_cell_line(&line[..line.len() / 2], &axes).is_none());
        // Out-of-range coordinates (a log from a bigger grid) too.
        let small = SweepAxes {
            caches: vec!["default".into()],
            ..axes.clone()
        };
        assert!(parse_cell_line(&line, &small).is_none());
        // Non-finite values serialize as JSON null (never `NaN`/`inf`),
        // which the reader skips — the cell re-runs instead of
        // poisoning the log.
        let mut weird = run;
        weird.summary.avg_latency_ms = f64::NAN;
        let weird_line = cell_line(
            c,
            &CellRun {
                outcome: Ok(weird),
                wall_s: f64::INFINITY,
            },
        );
        assert!(weird_line.contains("\"avg_latency_ms\": null"));
        assert!(weird_line.contains("\"wall_s\": null"));
        assert!(!weird_line.contains(": NaN") && !weird_line.contains(": inf"));
        assert!(parse_cell_line(&weird_line, &axes).is_none());
    }

    #[test]
    fn old_schema_logs_are_rejected_by_name() {
        // Headers in the retired `/1` and `/2` formats: resume must
        // name the old schema, not merge the cells or call the log
        // another grid's.
        let axes = roundtrip_axes();
        let current = header_line(&axes);
        let v2 = current
            .replace(CELLS_SCHEMA, "camdn-sweep-cells/2")
            .replace(" \"faults\": [\"none\"],", "");
        let v1 = "{\"schema\": \"camdn-sweep-cells/1\", \"policies\": [\"Baseline\"], \
                  \"socs\": [\"paper\"], \"caches\": [\"default\"], \"workloads\": [\"w\"], \
                  \"qos\": [\"closed\"], \"lookaheads\": [\"default\"], \"seeds\": [1, 2]}";
        let path = std::env::temp_dir().join(format!(
            "camdn-sink-old-schema-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        for (header, schema) in [(v1, "camdn-sweep-cells/1"), (&v2, "camdn-sweep-cells/2")] {
            std::fs::write(&path, format!("{header}\n")).expect("write log");
            match read_recorded(&path, &axes) {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert!(msg.contains(&format!("is a {schema} log")), "{msg}");
                }
                other => panic!("{schema}: expected InvalidConfig, got {other:?}"),
            }
        }
        std::fs::write(&path, format!("{current}\n")).expect("write log");
        assert_eq!(read_recorded(&path, &axes), Ok(Vec::new()));
        std::fs::remove_file(&path).ok();
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
