//! Parallel multi-engine sweeps for the CaMDN simulator.
//!
//! The paper's figures — and any scaling study worth running — are
//! cross-products of scenarios: policies × SoCs × cache sizes ×
//! workloads × seeds. Each cell is one deterministic, single-threaded
//! engine run, so the grid parallelizes perfectly; what used to be
//! missing was a subsystem that expands the product, shares the
//! redundant offline-mapping work, survives broken cells, and hands
//! back a structured result. [`Sweep::grid`] is that subsystem:
//!
//! * **axes** — policies (built-in kinds or registry names), labelled
//!   SoCs (optionally with their own [`MapperConfig`]), cache
//!   capacities, DRAM channel counts, labelled [`Workload`]s (see
//!   [`bursty_ramp`] for ramped burst intensities), QoS deadline
//!   scales, Algorithm 1 look-ahead factors, labelled
//!   [`FaultPlan`]s (chaos studies sweep fault intensity like any
//!   other axis), and seeds. Unset axes collapse to a singleton
//!   default, so a one-axis sweep stays one line of code.
//! * **execution** — a work-queue thread pool ([`run_cells`]) where a
//!   panic or error in one cell becomes that cell's
//!   `Err(`[`EngineError`]`)` without disturbing neighbors.
//! * **shared mapping-plan cache** — one [`PlanCache`] injected into
//!   every cell's builder, so the O(models × cells) mapper re-solves
//!   are done once per distinct `(model, MapperConfig)` key. Results
//!   are bit-identical with and without it (tested); only wall time
//!   changes.
//! * **streaming collection** — finished cells are pushed into a
//!   [`CellSink`] the moment they complete. The in-memory sink backs
//!   [`SweepBuilder::run`] (summary-only cells by default);
//!   [`SeedAggregate`] folds the seeds axis into mean / stddev / 95%
//!   confidence intervals and pools the per-seed latency tails by
//!   histogram merge, so per-coordinate percentiles come from the
//!   pooled samples.
//! * **structured results** — a [`SweepResult`] with axis labels,
//!   per-cell `Result<RunOutput, EngineError>` + wall time, cache
//!   statistics, and a serde-style JSON export
//!   ([`SweepResult::to_json`], schema `camdn-bench-sweep/1`, the
//!   format of `BENCH_sweep.json`).
//!
//! ```
//! use camdn_sweep::Sweep;
//! use camdn_runtime::{PolicyKind, Workload};
//! use camdn_common::types::MIB;
//!
//! let models = vec![camdn_models::zoo::mobilenet_v2()];
//! let grid = Sweep::grid()
//!     .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
//!     .cache_bytes([8 * MIB, 16 * MIB])
//!     .workload("mb", Workload::closed(models, 2))
//!     .run()
//!     .expect("a workload axis is set");
//! assert_eq!(grid.cells.len(), 4); // 2 policies x 2 cache sizes
//! assert!(grid.cells.iter().all(|c| c.outcome.is_ok()));
//! ```
//!
//! Cells are ordered row-major with policies outermost and seeds
//! innermost (see [`SweepResult::index_of`]); the order is identical to
//! the serial double-loop you would have written by hand, and each
//! cell's [`RunOutput`] is bit-for-bit the result of running that
//! configuration alone through [`Simulation::builder`] at the grid's
//! [`DetailLevel`] (default [`DetailLevel::Summary`] — request
//! [`DetailLevel::Tasks`] via [`SweepBuilder::detail`] when a study
//! needs per-task tables).
//!
//! [`Simulation::builder`]: camdn_runtime::Simulation::builder

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

mod exec;
pub mod jsonl;
mod report;
mod sink;

pub use exec::{run_cells, run_cells_into, CellRun};
pub use sink::{CellOutcome, CellSink, MemorySink, MetricStats, SeedAggregate, SeedStats};

use camdn_common::config::SocConfig;
use camdn_common::types::{Cycle, MIB};
use camdn_mapper::{MapperConfig, PlanCache, PlanCacheStats};
use camdn_runtime::{
    DetailLevel, EngineError, FaultPlan, PolicyKind, RunOutput, Simulation, SimulationBuilder,
    Workload,
};
use std::sync::Arc;
use std::time::Instant;

/// Default seed of the engine builder, repeated here so an unset seed
/// axis matches plain `Simulation::builder()` runs.
const DEFAULT_SEED: u64 = 0xCA3D41;

/// One entry of the policy axis.
enum PolicyAxisEntry {
    Kind(PolicyKind),
    Named(String),
}

impl PolicyAxisEntry {
    fn label(&self) -> String {
        match self {
            PolicyAxisEntry::Kind(k) => k.label().to_string(),
            PolicyAxisEntry::Named(n) => n.clone(),
        }
    }
}

/// One entry of the SoC axis: a labelled configuration, optionally
/// paired with its own mapper settings (page-size studies change both).
struct SocAxisEntry {
    label: String,
    soc: SocConfig,
    mapper: Option<MapperConfig>,
}

/// Entry point of the sweep subsystem.
pub struct Sweep;

impl Sweep {
    /// Starts assembling a grid sweep. Every axis left unset collapses
    /// to a singleton default (baseline policy, Table II SoC, the
    /// SoC's own cache size and DRAM channel count, no QoS, default
    /// look-ahead, builder seed); at least one workload is required.
    pub fn grid() -> SweepBuilder {
        SweepBuilder {
            policies: Vec::new(),
            socs: Vec::new(),
            cache_bytes: Vec::new(),
            channel_counts: Vec::new(),
            workloads: Vec::new(),
            qos_scales: Vec::new(),
            lookaheads: Vec::new(),
            fault_plans: Vec::new(),
            seeds: Vec::new(),
            warmup_rounds: None,
            epoch_cycles: None,
            mapper: None,
            reference_model: false,
            threads: None,
            shared_plan_cache: true,
            detail: DetailLevel::Summary,
        }
    }
}

/// Fluent builder for a grid sweep (see [`Sweep::grid`]).
pub struct SweepBuilder {
    policies: Vec<PolicyAxisEntry>,
    socs: Vec<SocAxisEntry>,
    cache_bytes: Vec<u64>,
    channel_counts: Vec<u32>,
    workloads: Vec<(String, Workload)>,
    qos_scales: Vec<f64>,
    lookaheads: Vec<f64>,
    fault_plans: Vec<(String, Option<FaultPlan>)>,
    seeds: Vec<u64>,
    warmup_rounds: Option<u32>,
    epoch_cycles: Option<Cycle>,
    mapper: Option<MapperConfig>,
    reference_model: bool,
    threads: Option<usize>,
    shared_plan_cache: bool,
    detail: DetailLevel,
}

impl SweepBuilder {
    /// Appends one built-in policy to the policy axis.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policies.push(PolicyAxisEntry::Kind(kind));
        self
    }

    /// Appends built-in policies to the policy axis.
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies
            .extend(kinds.into_iter().map(PolicyAxisEntry::Kind));
        self
    }

    /// Appends a registry-named policy to the policy axis (resolved at
    /// cell build time, like
    /// [`SimulationBuilder::policy_named`](camdn_runtime::SimulationBuilder::policy_named)).
    pub fn policy_named(mut self, name: impl Into<String>) -> Self {
        self.policies.push(PolicyAxisEntry::Named(name.into()));
        self
    }

    /// Appends a labelled SoC configuration to the SoC axis.
    pub fn soc(mut self, label: impl Into<String>, soc: SocConfig) -> Self {
        self.socs.push(SocAxisEntry {
            label: label.into(),
            soc,
            mapper: None,
        });
        self
    }

    /// Appends a labelled SoC paired with its own mapper configuration
    /// (e.g. a page-size study must change `page_bytes` in both).
    pub fn soc_with_mapper(
        mut self,
        label: impl Into<String>,
        soc: SocConfig,
        mapper: MapperConfig,
    ) -> Self {
        self.socs.push(SocAxisEntry {
            label: label.into(),
            soc,
            mapper: Some(mapper),
        });
        self
    }

    /// Sets the cache-capacity axis: each entry runs every SoC of the
    /// SoC axis with its total cache size overridden
    /// (see [`SocConfig::with_cache_bytes`]).
    pub fn cache_bytes(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.cache_bytes.extend(sizes);
        self
    }

    /// Sets the DRAM channel-count axis: each entry runs every SoC of
    /// the SoC axis with its channel count overridden, holding
    /// *per-channel* bandwidth constant so the aggregate bandwidth
    /// scales with the channel count
    /// (see [`SocConfig::with_dram_channels`]).
    pub fn channel_counts(mut self, channels: impl IntoIterator<Item = u32>) -> Self {
        self.channel_counts.extend(channels);
        self
    }

    /// Appends a labelled workload to the workload axis (required —
    /// at least one).
    pub fn workload(mut self, label: impl Into<String>, workload: Workload) -> Self {
        self.workloads.push((label.into(), workload));
        self
    }

    /// Appends labelled workloads to the workload axis.
    pub fn workloads(mut self, entries: impl IntoIterator<Item = (String, Workload)>) -> Self {
        self.workloads.extend(entries);
        self
    }

    /// Sets the QoS deadline-scale axis (0.8 = QoS-H, 1.0 = QoS-M,
    /// 1.2 = QoS-L). Unset = closed-loop speedup mode, no deadlines.
    pub fn qos_scales(mut self, scales: impl IntoIterator<Item = f64>) -> Self {
        self.qos_scales.extend(scales);
        self
    }

    /// Sets the Algorithm 1 look-ahead-factor axis (paper default 0.2).
    pub fn lookaheads(mut self, factors: impl IntoIterator<Item = f64>) -> Self {
        self.lookaheads.extend(factors);
        self
    }

    /// Appends one labelled entry to the fault-plan axis. `None` is
    /// the fault-free baseline; `Some(plan)` injects that schedule
    /// into every run of the entry (see
    /// [`FaultPlan`]). Unset = the singleton
    /// fault-free default, which leaves every cell bit-for-bit
    /// identical to a plain builder run.
    pub fn fault_plan(mut self, label: impl Into<String>, plan: Option<FaultPlan>) -> Self {
        self.fault_plans.push((label.into(), plan));
        self
    }

    /// Appends labelled entries to the fault-plan axis (chaos studies
    /// ramp fault intensity the way [`bursty_ramp`] ramps load).
    pub fn fault_plans(
        mut self,
        entries: impl IntoIterator<Item = (String, Option<FaultPlan>)>,
    ) -> Self {
        self.fault_plans.extend(entries);
        self
    }

    /// Sets the seed axis (default: the builder's standard seed).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Warm-up rounds for every cell (builder default when unset).
    pub fn warmup_rounds(mut self, rounds: u32) -> Self {
        self.warmup_rounds = Some(rounds);
        self
    }

    /// Scheduling-epoch length for every cell (builder default when
    /// unset).
    pub fn epoch_cycles(mut self, cycles: Cycle) -> Self {
        self.epoch_cycles = Some(cycles);
        self
    }

    /// Default mapper configuration for SoC-axis entries that do not
    /// carry their own.
    pub fn mapper(mut self, mapper: MapperConfig) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Routes every cell through the per-line reference memory model
    /// (differential testing / benchmarking).
    pub fn reference_model(mut self, reference: bool) -> Self {
        self.reference_model = reference;
        self
    }

    /// Worker-thread count, clamped to `1..=available_parallelism`
    /// (default: available parallelism, capped at the number of
    /// cells).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables/disables the shared mapping-plan cache (default
    /// enabled). Cell results are bit-identical either way; disabling
    /// is for benchmarking the cache itself.
    pub fn shared_plan_cache(mut self, shared: bool) -> Self {
        self.shared_plan_cache = shared;
        self
    }

    /// Sets every cell's [`DetailLevel`] (default
    /// [`DetailLevel::Summary`]: cells carry only the compact
    /// [`RunSummary`](camdn_runtime::RunSummary), so a grid's memory is
    /// independent of the tenant count). Studies that read per-task
    /// tables ask for [`DetailLevel::Tasks`].
    pub fn detail(mut self, level: DetailLevel) -> Self {
        self.detail = level;
        self
    }

    /// Expands the cross-product and executes every cell into the
    /// in-memory sink.
    ///
    /// Cell order is row-major with the axes nested
    /// policies → SoCs → cache sizes → channel counts → workloads →
    /// QoS scales → look-aheads → fault plans → seeds (seeds
    /// innermost). Returns an error only
    /// when the grid itself is malformed (no workload axis); per-cell
    /// failures land in their cell's [`SweepCell::outcome`].
    pub fn run(self) -> Result<SweepResult, EngineError> {
        let grid = self.prepare()?;
        let threads = exec::resolve_threads(grid.threads, grid.builders.len());
        let mut memory = MemorySink::new(grid.axes.clone());
        let coords = grid.coords;
        // camdn-lint: allow(wall-clock-in-sim, reason = "reported wall_s bookkeeping only; simulated results never read it and bit-for-bit comparisons exclude it")
        let t0 = Instant::now();
        run_cells_into(grid.builders, Some(threads), &mut |i, run| {
            memory.on_cell(coords[i], run);
        });
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(SweepResult {
            axes: grid.axes,
            cells: memory.into_cells(),
            threads,
            wall_s,
            plan_cache: grid.plan_cache.map(|c| c.stats()),
        })
    }

    /// Validates the grid and expands the cross-product into cell
    /// builders + coordinates.
    fn prepare(self) -> Result<PreparedGrid, EngineError> {
        if self.workloads.is_empty() {
            return Err(EngineError::InvalidConfig(
                "a sweep needs at least one workload — call .workload(label, ...)".into(),
            ));
        }
        let policies = if self.policies.is_empty() {
            vec![PolicyAxisEntry::Kind(PolicyKind::SharedBaseline)]
        } else {
            self.policies
        };
        let socs = if self.socs.is_empty() {
            vec![SocAxisEntry {
                label: "paper".into(),
                soc: SocConfig::paper_default(),
                mapper: None,
            }]
        } else {
            self.socs
        };
        // Option axes: an empty axis is the singleton "leave the knob
        // at its builder default".
        let caches: Vec<Option<u64>> = if self.cache_bytes.is_empty() {
            vec![None]
        } else {
            self.cache_bytes.into_iter().map(Some).collect()
        };
        let channels: Vec<Option<u32>> = if self.channel_counts.is_empty() {
            vec![None]
        } else {
            self.channel_counts.into_iter().map(Some).collect()
        };
        let qos: Vec<Option<f64>> = if self.qos_scales.is_empty() {
            vec![None]
        } else {
            self.qos_scales.into_iter().map(Some).collect()
        };
        let lookaheads: Vec<Option<f64>> = if self.lookaheads.is_empty() {
            vec![None]
        } else {
            self.lookaheads.into_iter().map(Some).collect()
        };
        let faults: Vec<(String, Option<FaultPlan>)> = if self.fault_plans.is_empty() {
            vec![("none".into(), None)]
        } else {
            self.fault_plans
        };
        let seeds = if self.seeds.is_empty() {
            vec![DEFAULT_SEED]
        } else {
            self.seeds
        };
        let workloads = self.workloads;

        let axes = SweepAxes {
            policies: policies.iter().map(PolicyAxisEntry::label).collect(),
            socs: socs.iter().map(|s| s.label.clone()).collect(),
            caches: caches.iter().map(|c| cache_label(*c)).collect(),
            channels: channels.iter().map(|c| channel_label(*c)).collect(),
            workloads: workloads.iter().map(|(l, _)| l.clone()).collect(),
            qos: qos
                .iter()
                .map(|q| q.map_or_else(|| "closed".into(), |s| format!("{s:.2}x")))
                .collect(),
            lookaheads: lookaheads
                .iter()
                .map(|l| l.map_or_else(|| "default".into(), |f| format!("{f}")))
                .collect(),
            faults: faults.iter().map(|(l, _)| l.clone()).collect(),
            seeds: seeds.clone(),
        };

        let plan_cache = self.shared_plan_cache.then(|| Arc::new(PlanCache::new()));
        let mut builders = Vec::new();
        let mut coords = Vec::new();
        for (pi, policy) in policies.iter().enumerate() {
            for (si, soc) in socs.iter().enumerate() {
                for (ci, cache) in caches.iter().enumerate() {
                    for (hi, channel) in channels.iter().enumerate() {
                        for (wi, (_, workload)) in workloads.iter().enumerate() {
                            for (qi, q) in qos.iter().enumerate() {
                                for (li, lookahead) in lookaheads.iter().enumerate() {
                                    for (fi, (_, plan)) in faults.iter().enumerate() {
                                        for (ei, &seed) in seeds.iter().enumerate() {
                                            let mut b = Simulation::builder()
                                                .workload(workload.clone())
                                                .seed(seed)
                                                .detail(self.detail);
                                            b = match policy {
                                                PolicyAxisEntry::Kind(k) => b.policy(*k),
                                                PolicyAxisEntry::Named(n) => {
                                                    b.policy_named(n.clone())
                                                }
                                            };
                                            let mut cell_soc = match cache {
                                                Some(bytes) => soc.soc.with_cache_bytes(*bytes),
                                                None => soc.soc,
                                            };
                                            if let Some(n) = channel {
                                                cell_soc = cell_soc.with_dram_channels(*n);
                                            }
                                            b = b.soc(cell_soc);
                                            if let Some(m) =
                                                soc.mapper.as_ref().or(self.mapper.as_ref())
                                            {
                                                b = b.mapper(m.clone());
                                            }
                                            if let Some(scale) = q {
                                                b = b.qos_scale(*scale);
                                            }
                                            if let Some(factor) = lookahead {
                                                b = b.lookahead(*factor);
                                            }
                                            if let Some(plan) = plan {
                                                b = b.fault_plan(plan.clone());
                                            }
                                            if let Some(rounds) = self.warmup_rounds {
                                                b = b.warmup_rounds(rounds);
                                            }
                                            if let Some(cycles) = self.epoch_cycles {
                                                b = b.epoch_cycles(cycles);
                                            }
                                            if self.reference_model {
                                                b = b.reference_model(true);
                                            }
                                            if let Some(cache) = &plan_cache {
                                                b = b.plan_cache(Arc::clone(cache));
                                            }
                                            builders.push(b);
                                            coords.push(CellCoord {
                                                policy: pi,
                                                soc: si,
                                                cache: ci,
                                                channel: hi,
                                                workload: wi,
                                                qos: qi,
                                                lookahead: li,
                                                fault: fi,
                                                seed: ei,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        Ok(PreparedGrid {
            axes,
            builders,
            coords,
            threads: self.threads,
            plan_cache,
        })
    }
}

/// A validated, expanded grid ready to execute.
struct PreparedGrid {
    axes: SweepAxes,
    builders: Vec<SimulationBuilder>,
    coords: Vec<CellCoord>,
    threads: Option<usize>,
    plan_cache: Option<Arc<PlanCache>>,
}

fn cache_label(bytes: Option<u64>) -> String {
    match bytes {
        None => "default".into(),
        Some(b) if b.is_multiple_of(MIB) => format!("{}MiB", b / MIB),
        Some(b) => format!("{b}B"),
    }
}

fn channel_label(channels: Option<u32>) -> String {
    match channels {
        None => "default".into(),
        Some(n) => format!("{n}ch"),
    }
}

/// Labelled bursty workloads of rising burst intensity — the bursty
/// analogue of a Poisson rate ramp, for the sweep's workload axis.
///
/// Each entry keeps the burst count and start-to-start gap fixed and
/// ramps the *burst length* (requests per burst), so higher entries
/// deliver the same arrival pattern at higher instantaneous load —
/// the worst case for cache contention, and where p99 knees live.
/// Labels are `"burst@{len}"`.
///
/// ```
/// use camdn_sweep::{bursty_ramp, Sweep};
///
/// let models = vec![camdn_models::zoo::mobilenet_v2()];
/// let grid = Sweep::grid()
///     .workloads(bursty_ramp(&models, [1, 2, 4], 2, 20.0))
///     .run()
///     .expect("ramp grid");
/// assert_eq!(grid.axes.workloads, ["burst@1", "burst@2", "burst@4"]);
/// ```
pub fn bursty_ramp(
    models: &[camdn_models::Model],
    burst_lens: impl IntoIterator<Item = u32>,
    bursts: u32,
    gap_ms: f64,
) -> Vec<(String, Workload)> {
    burst_lens
        .into_iter()
        .map(|len| {
            (
                format!("burst@{len}"),
                Workload::bursty(models.to_vec(), bursts, len, gap_ms),
            )
        })
        .collect()
}

/// Position of a cell on every axis (indices into [`SweepAxes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellCoord {
    /// Index into [`SweepAxes::policies`].
    pub policy: usize,
    /// Index into [`SweepAxes::socs`].
    pub soc: usize,
    /// Index into [`SweepAxes::caches`].
    pub cache: usize,
    /// Index into [`SweepAxes::channels`].
    pub channel: usize,
    /// Index into [`SweepAxes::workloads`].
    pub workload: usize,
    /// Index into [`SweepAxes::qos`].
    pub qos: usize,
    /// Index into [`SweepAxes::lookaheads`].
    pub lookahead: usize,
    /// Index into [`SweepAxes::faults`].
    pub fault: usize,
    /// Index into [`SweepAxes::seeds`].
    pub seed: usize,
}

/// One executed grid cell.
#[derive(Debug)]
pub struct SweepCell {
    /// Where the cell sits in the grid.
    pub coord: CellCoord,
    /// The run's output, or the structured error that stopped it.
    pub outcome: Result<RunOutput, EngineError>,
    /// Wall-clock seconds spent building + running this cell.
    pub wall_s: f64,
}

/// Labels of every axis, in cell-coordinate order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxes {
    /// Policy labels (display labels for kinds, names for registry
    /// entries).
    pub policies: Vec<String>,
    /// SoC labels as given to the builder.
    pub socs: Vec<String>,
    /// Cache-capacity labels (`"16MiB"`, or `"default"` when the axis
    /// was unset).
    pub caches: Vec<String>,
    /// DRAM channel-count labels (`"8ch"`, or `"default"` when the
    /// axis was unset).
    pub channels: Vec<String>,
    /// Workload labels as given to the builder.
    pub workloads: Vec<String>,
    /// QoS labels (`"0.80x"`, or `"closed"` when the axis was unset).
    pub qos: Vec<String>,
    /// Look-ahead labels (`"0.2"`, or `"default"` when unset).
    pub lookaheads: Vec<String>,
    /// Fault-plan labels (`"none"` when the axis was unset).
    pub faults: Vec<String>,
    /// The seed axis values themselves.
    pub seeds: Vec<u64>,
}

impl SweepAxes {
    /// Number of cells in the cross-product.
    pub fn cell_count(&self) -> usize {
        self.policies.len()
            * self.socs.len()
            * self.caches.len()
            * self.channels.len()
            * self.workloads.len()
            * self.qos.len()
            * self.lookaheads.len()
            * self.faults.len()
            * self.seeds.len()
    }

    /// Row-major index of a coordinate (policies outermost, seeds
    /// innermost).
    pub fn index_of(&self, c: &CellCoord) -> usize {
        (((((((c.policy * self.socs.len() + c.soc) * self.caches.len() + c.cache)
            * self.channels.len()
            + c.channel)
            * self.workloads.len()
            + c.workload)
            * self.qos.len()
            + c.qos)
            * self.lookaheads.len()
            + c.lookahead)
            * self.faults.len()
            + c.fault)
            * self.seeds.len()
            + c.seed
    }

    /// The coordinate at a row-major index (inverse of
    /// [`SweepAxes::index_of`]).
    pub fn coord_of(&self, mut idx: usize) -> CellCoord {
        let seed = idx % self.seeds.len();
        idx /= self.seeds.len();
        let fault = idx % self.faults.len();
        idx /= self.faults.len();
        let lookahead = idx % self.lookaheads.len();
        idx /= self.lookaheads.len();
        let qos = idx % self.qos.len();
        idx /= self.qos.len();
        let workload = idx % self.workloads.len();
        idx /= self.workloads.len();
        let channel = idx % self.channels.len();
        idx /= self.channels.len();
        let cache = idx % self.caches.len();
        idx /= self.caches.len();
        let soc = idx % self.socs.len();
        idx /= self.socs.len();
        CellCoord {
            policy: idx,
            soc,
            cache,
            channel,
            workload,
            qos,
            lookahead,
            fault,
            seed,
        }
    }

    /// True when every component of the coordinate is inside its axis.
    pub fn contains(&self, c: &CellCoord) -> bool {
        c.policy < self.policies.len()
            && c.soc < self.socs.len()
            && c.cache < self.caches.len()
            && c.channel < self.channels.len()
            && c.workload < self.workloads.len()
            && c.qos < self.qos.len()
            && c.lookahead < self.lookaheads.len()
            && c.fault < self.faults.len()
            && c.seed < self.seeds.len()
    }
}

/// Structured result of a grid sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Axis labels (cell coordinates index into these).
    pub axes: SweepAxes,
    /// Every cell in row-major order (policies outermost, seeds
    /// innermost).
    pub cells: Vec<SweepCell>,
    /// Worker threads the executor actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole grid.
    pub wall_s: f64,
    /// Hit/miss statistics of the shared mapping-plan cache (`None`
    /// when it was disabled).
    pub plan_cache: Option<PlanCacheStats>,
}

impl SweepResult {
    /// Row-major index of a coordinate (the position of that cell in
    /// [`SweepResult::cells`]).
    pub fn index_of(&self, c: &CellCoord) -> usize {
        self.axes.index_of(c)
    }

    /// The cell at a coordinate, or `None` when any component is past
    /// its axis end (row-major index arithmetic would otherwise alias a
    /// different configuration's cell).
    pub fn cell(&self, coord: CellCoord) -> Option<&SweepCell> {
        if !self.axes.contains(&coord) {
            return None;
        }
        self.cells.get(self.index_of(&coord))
    }

    /// Cells whose runs failed.
    pub fn errors(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| c.outcome.is_err())
    }

    /// Number of cells that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Multi-seed statistics: folds the seeds axis into mean / sample
    /// stddev / 95% CI per non-seed coordinate, in row-major order
    /// (see [`SeedAggregate`]).
    pub fn seed_stats(&self) -> Vec<SeedStats> {
        SeedAggregate::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_models::zoo;

    fn one_model() -> Workload {
        Workload::closed(vec![zoo::mobilenet_v2()], 2)
    }

    #[test]
    fn missing_workload_axis_is_an_error() {
        match Sweep::grid().policy(PolicyKind::SharedBaseline).run().err() {
            Some(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("workload"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn unset_axes_collapse_to_singletons() {
        let r = Sweep::grid().workload("w", one_model()).run().unwrap();
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.axes.policies, vec!["Baseline".to_string()]);
        assert_eq!(r.axes.caches, vec!["default".to_string()]);
        assert_eq!(r.axes.qos, vec!["closed".to_string()]);
        assert_eq!(r.axes.seeds, vec![DEFAULT_SEED]);
        assert!(r.cells[0].outcome.is_ok());
        // Default cells are summary-only...
        let cell = r.cells[0].outcome.as_ref().unwrap();
        assert!(cell.detail.is_none(), "sweep default is summary-only");
        // ...and the summary matches a plain builder run bit-for-bit.
        let serial = Simulation::builder().workload(one_model()).run().unwrap();
        assert_eq!(cell.summary, serial.summary);
        assert_eq!(cell.policy, serial.policy);
    }

    #[test]
    fn detailed_grid_matches_builder_runs_exactly() {
        let r = Sweep::grid()
            .workload("w", one_model())
            .detail(DetailLevel::Tasks)
            .run()
            .unwrap();
        let serial = Simulation::builder().workload(one_model()).run().unwrap();
        assert_eq!(*r.cells[0].outcome.as_ref().unwrap(), serial);
    }

    #[test]
    fn cross_product_order_is_row_major() {
        let r = Sweep::grid()
            .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
            .cache_bytes([8 * MIB, 16 * MIB])
            .workload("w", one_model())
            .seeds([1, 2, 3])
            .run()
            .unwrap();
        assert_eq!(r.cells.len(), 2 * 2 * 3);
        for (i, cell) in r.cells.iter().enumerate() {
            assert_eq!(r.index_of(&cell.coord), i, "cell {i} out of order");
            assert_eq!(r.axes.coord_of(i), cell.coord, "coord_of must invert");
        }
        // Seeds innermost, policies outermost.
        assert_eq!(
            r.cells[0].coord,
            CellCoord {
                policy: 0,
                soc: 0,
                cache: 0,
                channel: 0,
                workload: 0,
                qos: 0,
                lookahead: 0,
                fault: 0,
                seed: 0
            }
        );
        assert_eq!(r.cells[1].coord.seed, 1);
        assert_eq!(r.cells[3].coord.cache, 1);
        assert_eq!(r.cells[6].coord.policy, 1);
        // cell() agrees with the cells order, and an out-of-range
        // coordinate is None, not an aliased neighbor.
        assert_eq!(r.cell(r.cells[6].coord).unwrap().coord, r.cells[6].coord);
        let past_seed_axis = CellCoord {
            seed: 3,
            ..r.cells[0].coord
        };
        assert!(r.cell(past_seed_axis).is_none());
    }

    #[test]
    fn named_policies_join_the_axis() {
        let r = Sweep::grid()
            .policy_named("camdn-full")
            .workload("w", one_model())
            .detail(DetailLevel::Tasks)
            .run()
            .unwrap();
        assert_eq!(r.axes.policies, vec!["camdn-full".to_string()]);
        let by_name = r.cells[0].outcome.as_ref().unwrap();
        let by_kind = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(one_model())
            .run()
            .unwrap();
        assert_eq!(*by_name, by_kind);
    }

    #[test]
    fn unknown_named_policy_is_a_cell_error_not_a_grid_error() {
        let r = Sweep::grid()
            .policy(PolicyKind::SharedBaseline)
            .policy_named("no-such-policy")
            .workload("w", one_model())
            .run()
            .unwrap();
        assert!(r.cells[0].outcome.is_ok());
        assert_eq!(
            r.cells[1].outcome.as_ref().err(),
            Some(&EngineError::UnknownPolicy("no-such-policy".into()))
        );
    }

    #[test]
    fn cache_labels_are_readable() {
        assert_eq!(cache_label(Some(16 * MIB)), "16MiB");
        assert_eq!(cache_label(Some(1000)), "1000B");
        assert_eq!(cache_label(None), "default");
        assert_eq!(channel_label(Some(8)), "8ch");
        assert_eq!(channel_label(None), "default");
    }

    #[test]
    fn channel_axis_cells_match_builder_runs_exactly() {
        let r = Sweep::grid()
            .workload("w", one_model())
            .channel_counts([2, 8])
            .detail(DetailLevel::Tasks)
            .run()
            .unwrap();
        assert_eq!(r.axes.channels, vec!["2ch".to_string(), "8ch".to_string()]);
        assert_eq!(r.cells.len(), 2);
        for (i, &n) in [2u32, 8].iter().enumerate() {
            let cell = r.cells[i].outcome.as_ref().unwrap();
            let serial = Simulation::builder()
                .soc(SocConfig::paper_default().with_dram_channels(n))
                .workload(one_model())
                .run()
                .unwrap();
            assert_eq!(*cell, serial, "channel cell {n}ch");
        }
        // More channels = more aggregate bandwidth: the 8-channel run
        // must not be slower than the 2-channel run.
        let lat = |i: usize| r.cells[i].outcome.as_ref().unwrap().summary.avg_latency_ms;
        assert!(
            lat(1) <= lat(0),
            "8ch ({:.3} ms) should not be slower than 2ch ({:.3} ms)",
            lat(1),
            lat(0)
        );
    }

    #[test]
    fn fault_axis_cells_match_builder_runs_exactly() {
        use camdn_runtime::{FaultEvent, FaultKind};
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 200_000,
                kind: FaultKind::NpuDown(0),
            },
            FaultEvent {
                at: 2_000_000,
                kind: FaultKind::NpuUp(0),
            },
        ])
        .expect("valid plan");
        let r = Sweep::grid()
            .workload("w", one_model())
            .fault_plan("none", None)
            .fault_plan("outage", Some(plan.clone()))
            .detail(DetailLevel::Tasks)
            .run()
            .unwrap();
        assert_eq!(
            r.axes.faults,
            vec!["none".to_string(), "outage".to_string()]
        );
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.cells[1].coord.fault, 1);
        // The fault-free cell is bit-for-bit a plain builder run...
        let clean = Simulation::builder().workload(one_model()).run().unwrap();
        assert_eq!(*r.cells[0].outcome.as_ref().unwrap(), clean);
        // ...and the faulted cell matches a builder run with the plan.
        let faulted = Simulation::builder()
            .workload(one_model())
            .fault_plan(plan)
            .run()
            .unwrap();
        assert_eq!(*r.cells[1].outcome.as_ref().unwrap(), faulted);
    }

    #[test]
    fn bursty_ramp_generates_rising_intensity_workloads() {
        let models = vec![zoo::mobilenet_v2()];
        let ramp = bursty_ramp(&models, [1, 2, 4], 3, 25.0);
        assert_eq!(ramp.len(), 3);
        for ((label, w), expect_len) in ramp.iter().zip([1u32, 2, 4]) {
            assert_eq!(label, &format!("burst@{expect_len}"));
            match w.arrival() {
                camdn_runtime::ArrivalProcess::Bursty {
                    bursts,
                    burst_len,
                    gap_ms,
                } => {
                    assert_eq!(bursts, 3);
                    assert_eq!(burst_len, expect_len);
                    assert_eq!(gap_ms, 25.0);
                }
                other => panic!("expected bursty arrivals, got {other:?}"),
            }
        }
    }
}
