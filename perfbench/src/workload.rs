//! The three workloads: what each one runs, its set-up, its output
//! check, its timed repeat and the end-to-end metrics it reports.
//!
//! Every workload runs on the Table II SoC, single-threaded.
//!
//! * `contention` — the 16-tenant closed loop (two instances of each
//!   Table I model) under the transparent Baseline policy. Every tensor
//!   streams through the shared tag array, so the tag pass and the DRAM
//!   miss-run replay do almost all the work.
//! * `camdn_closed` — the same tenants under CaMDN(Full), long enough
//!   to measure over 1000 inferences. NEC bulk DMA, the dynamic
//!   allocator, region install/teardown and event scheduling do the
//!   work; the tag pass does none.
//! * `serve_replay` — open loop: CaMDN(Full) replays a seeded
//!   heavy-tailed trace (Zipf popularity, Pareto gaps, diurnal rate)
//!   near its SLA knee, in 25 ms windows, with admission control, a
//!   per-window cycle budget and a light seeded fault plan. Queues,
//!   admission prediction, fault slicing and one engine build per
//!   window do work here that the closed loops never do.

use crate::report::{host_probe_s, median, peak_heap_mb, Report, PROBE_REF_S};
use camdn_common::types::{ms_to_cycles, Cycle};
use camdn_mapper::{MapperConfig, PlanCache};
use camdn_models::{zoo, Model};
use camdn_runtime::{
    DetailLevel, EngineError, FaultGenConfig, FaultPlan, LatencyTail, PolicyKind, RunOutput,
    Simulation, SimulationBuilder, Workload, LATENCY_HIST_EDGES,
};
use camdn_trace::{
    windows, ReplayAggregate, ReplayConfig, ReplayDriver, ReplaySink, SlaClass, TraceError,
    TraceGen, TraceGenConfig, TraceRecord, TraceWindow, WindowMetrics,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Error type of the benchmark's fallible steps.
pub type BoxErr = Box<dyn std::error::Error>;

/// Closed-loop rounds of `contention` (the first is warm-up).
pub const CONTENTION_ROUNDS: u32 = 4;
/// Closed-loop rounds of `camdn_closed`: 63 measured rounds of 16
/// tenants are 1008 measured inferences.
const CAMDN_ROUNDS: u32 = 64;
/// Offered rate of `serve_replay` in requests per second, at the SLA
/// knee: on the default workload seed 1156 of 1225 arrivals are served
/// and 90% of those meet their deadline (85% of all arrivals).
const SERVE_RATE_PER_S: f64 = 600.0;
/// Trace length of `serve_replay` in seconds.
const SERVE_HORIZON_S: f64 = 2.0;
/// Analysis window of `serve_replay` in µs.
const WINDOW_US: u64 = 25_000;
/// Per-window simulated-cycle budget, as a multiple of the window span.
const WINDOW_BUDGET_FACTOR: u64 = 32;
/// Cycles per trace microsecond (the engine clock runs at 1 GHz).
const CYCLES_PER_US: u64 = 1000;
/// Cycles per simulated millisecond.
const CYCLES_PER_MS: f64 = 1e6;
/// Salt that separates the fault-plan seed from the trace seed.
const FAULT_SEED_SALT: u64 = 0xC4A051;
/// Leading `serve_replay` windows re-run under the reference model.
const CHECK_WINDOWS: usize = 4;
/// Set-ups before the first timed repeat.
const SETUP_REPS: usize = 4;
/// Set-ups before each further timed repeat, so that the samples whose
/// median is `setup_s` spread over the whole run, as the repeats do.
const SETUPS_PER_REPEAT: usize = 4;
/// Timed repeats run even when `--seconds` is already used up.
const MIN_REPEATS: usize = 3;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Contention,
    CamdnClosed,
    ServeReplay,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Contention, Kind::CamdnClosed, Kind::ServeReplay];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Contention => "contention",
            Kind::CamdnClosed => "camdn_closed",
            Kind::ServeReplay => "serve_replay",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The 16-tenant set of the paper's speedup study: two instances of
/// each Table I model, one per NPU.
pub fn speedup_tenants() -> Vec<Model> {
    let zoo = zoo::all();
    zoo.iter().chain(zoo.iter()).cloned().collect()
}

// ------------------------------------------------------------------
// Closed loops
// ------------------------------------------------------------------

/// A closed-loop workload.
pub struct Closed {
    pub policy: PolicyKind,
    /// Rounds of a timed repeat (the first is warm-up).
    pub rounds: u32,
    /// Rounds of the shortened run of the output check.
    pub check_rounds: u32,
    pub models: Vec<Model>,
    pub seed: u64,
}

/// One timed closed-loop repeat.
pub struct ClosedRepeat {
    pub out: RunOutput,
    /// The whole repeat, seconds.
    pub wall_s: f64,
    /// Traced repeats only: seconds in the warm
    /// `SimulationBuilder::build` and in `Simulation::run`.
    pub spans: Option<(f64, f64)>,
    /// The host-speed probe, run just before the repeat, seconds.
    pub probe_s: f64,
}

impl Closed {
    pub fn new(kind: Kind, seed: u64) -> Closed {
        let (policy, rounds, check_rounds) = match kind {
            Kind::CamdnClosed => (PolicyKind::CamdnFull, CAMDN_ROUNDS, 2),
            _ => (PolicyKind::SharedBaseline, CONTENTION_ROUNDS, 1),
        };
        Closed {
            policy,
            rounds,
            check_rounds,
            models: speedup_tenants(),
            seed,
        }
    }

    fn builder(&self, rounds: u32) -> SimulationBuilder {
        let b = Simulation::builder()
            .policy(self.policy)
            .seed(self.seed)
            .workload(Workload::closed(self.models.clone(), rounds));
        // A one-round check run has no round to spare for warm-up.
        if rounds == 1 {
            b.warmup_rounds(0)
        } else {
            b
        }
    }

    /// One set-up: a cold plan cache maps the workload's models, then
    /// the first engine is built from it. Returns (total seconds,
    /// mapping seconds, the now-warm cache).
    pub fn setup_once(&self) -> Result<(f64, f64, Arc<PlanCache>), EngineError> {
        let t0 = Instant::now();
        let cache = Arc::new(PlanCache::new());
        let mapper = MapperConfig::paper_default();
        for m in &self.models {
            std::hint::black_box(cache.map_model(m, &mapper));
        }
        let map_s = t0.elapsed().as_secs_f64();
        let sim = self
            .builder(self.rounds)
            .plan_cache(Arc::clone(&cache))
            .build()?;
        let total_s = t0.elapsed().as_secs_f64();
        drop(sim);
        Ok((total_s, map_s, cache))
    }

    /// The output check: a shortened run must equal the same run under
    /// the per-line reference model.
    pub fn check(&self, report: &mut Report) {
        let batched = self.builder(self.check_rounds).run();
        report.check(
            "shortened run",
            batched.as_ref().map(|_| true).map_err(|e| e.to_string()),
        );
        let reference = self.builder(self.check_rounds).reference_model(true).run();
        let agree = match (&batched, reference) {
            (Ok(a), Ok(b)) => Ok(*a == b),
            (_, Err(e)) => Err(e.to_string()),
            (Err(_), Ok(_)) => Ok(false),
        };
        report.check("shortened run == reference model", agree);
    }

    /// One repeat on the warm plan cache; a traced repeat also times
    /// `build` and `run` apart.
    pub fn repeat(
        &self,
        cache: &Arc<PlanCache>,
        traced: bool,
    ) -> Result<ClosedRepeat, EngineError> {
        let probe_s = host_probe_s();
        let t0 = Instant::now();
        let builder = self.builder(self.rounds).plan_cache(Arc::clone(cache));
        let (out, spans) = if traced {
            let sim = builder.build()?;
            let t1 = Instant::now();
            let out = sim.run()?;
            let (build, run) = (t1 - t0, t1.elapsed());
            (out, Some((build.as_secs_f64(), run.as_secs_f64())))
        } else {
            (builder.run()?, None)
        };
        Ok(ClosedRepeat {
            out,
            wall_s: t0.elapsed().as_secs_f64(),
            spans,
            probe_s,
        })
    }

    /// Timed repeats (see [`timed_loop`]).
    pub fn timed(
        &self,
        cache: &Arc<PlanCache>,
        seconds: f64,
        trace: bool,
        report: &mut Report,
        between: impl FnMut() -> Result<(), BoxErr>,
    ) -> Result<Vec<ClosedRepeat>, BoxErr> {
        timed_loop(
            seconds,
            trace,
            report,
            between,
            |t| self.repeat(cache, t),
            |a, b| a.out == b.out,
        )
    }

    /// Set-up, output check, timed repeats and every end-to-end metric.
    pub fn end_to_end(&self, seconds: f64) -> Result<Report, BoxErr> {
        let mut report = Report::default();
        let mut setup = setups(SETUP_REPS, || Ok(self.setup_once()?))?;
        self.check(&mut report);
        let cache = Arc::clone(&setup.cache);
        let reps = self.timed(&cache, seconds, false, &mut report, || {
            setup.extend(SETUPS_PER_REPEAT, || Ok(self.setup_once()?))
        })?;
        let s = &reps[0].out.summary;
        let cycles = ms_to_cycles(s.makespan_ms) as f64;
        eprintln!(
            "{} repeats of {} rounds: {} measured inferences, {:.0} simulated cycles each",
            reps.len(),
            self.rounds,
            s.inferences,
            cycles
        );
        let timed: Vec<(f64, f64)> = reps.iter().map(|r| (r.wall_s, r.probe_s)).collect();
        push_host_metrics(
            &mut report,
            &setup.total_s,
            cycles,
            s.inferences as f64,
            &timed,
        );
        let arrivals = s.inferences as u64 + s.shed_requests;
        let sim = SimOutcome {
            mem_mb_per_inference: s.mem_mb_per_model,
            avg_latency_ms: s.avg_latency_ms,
            p99_latency_ms: p99_ms(&s.latency_tail),
            hit_rate: s.cache_hit_rate,
            sla_rate: s.sla_rate,
            admit_rate: 1.0 - s.shed_requests as f64 / arrivals.max(1) as f64,
        };
        sim.push(&mut report);
        Ok(report)
    }
}

// ------------------------------------------------------------------
// Open loop: trace replay
// ------------------------------------------------------------------

/// The open-loop trace replay.
pub struct Serve {
    pub trace: TraceGenConfig,
    pub replay: ReplayConfig,
}

/// One timed replay of the whole trace.
pub struct ServeRepeat {
    pub sink: Collect,
    pub wall_s: f64,
    /// Traced replays only.
    pub spans: Option<ServeSpans>,
    /// The host-speed probe, run just before the replay, seconds.
    pub probe_s: f64,
}

/// Spans around each call into the trace layer during one replay.
pub struct ServeSpans {
    /// Seconds in `Windows::next` (trace generation and grouping).
    pub next_s: f64,
    /// Seconds of each `ReplayDriver::run_window` call.
    pub window_s: Vec<f64>,
    /// Seconds in `ReplaySink::on_window`.
    pub sink_s: f64,
}

/// Replay sink keeping the aggregate and every window's metrics.
pub struct Collect {
    pub agg: ReplayAggregate,
    pub windows: Vec<WindowMetrics>,
}

impl ReplaySink for Collect {
    fn on_window(&mut self, w: &WindowMetrics) {
        self.agg.on_window(w);
        self.windows.push(w.clone());
    }
}

/// The re-run, outside the replay driver, of one window.
pub struct Replica {
    pub out: RunOutput,
    pub truncated: bool,
    pub build_s: f64,
    pub run_s: f64,
}

impl Serve {
    /// The replay of the trace and fault plan generated from
    /// `workload_seed`, with `seed` as the engine seed.
    pub fn new(seed: u64, workload_seed: u64) -> Result<Serve, BoxErr> {
        let trace = TraceGenConfig {
            seed: workload_seed,
            rate_per_s: SERVE_RATE_PER_S,
            horizon_s: SERVE_HORIZON_S,
            ..TraceGenConfig::default()
        };
        // The light regime of the chaos study: each resource's mean time
        // between failures is twice the horizon, its repairs a twentieth.
        let horizon = (SERVE_HORIZON_S * 1e6) as Cycle * CYCLES_PER_US;
        let (mtbf, mttr) = (horizon as f64 * 2.0, horizon as f64 / 20.0);
        let faults = FaultPlan::generate(&FaultGenConfig {
            seed: workload_seed ^ FAULT_SEED_SALT,
            horizon,
            npu_mtbf_cycles: mtbf,
            npu_mttr_cycles: mttr,
            dram_mtbf_cycles: mtbf,
            dram_mttr_cycles: mttr,
            throttle_mtbf_cycles: mtbf,
            throttle_mttr_cycles: mttr,
            ..FaultGenConfig::default()
        })?;
        let mut replay = ReplayConfig::new(PolicyKind::CamdnFull, WINDOW_US);
        replay.seed = seed;
        replay.fault_plan = Some(faults);
        replay.max_cycles_per_window = Some(WINDOW_BUDGET_FACTOR * WINDOW_US * CYCLES_PER_US);
        replay.admission_control = true;
        replay.validate()?;
        Ok(Serve { trace, replay })
    }

    pub fn records(
        &self,
    ) -> Result<impl Iterator<Item = Result<TraceRecord, TraceError>>, TraceError> {
        Ok(TraceGen::new(self.trace.clone())?.map(Ok))
    }

    /// Every window of the trace, materialised (untimed use only).
    pub fn all_windows(&self) -> Result<Vec<TraceWindow>, TraceError> {
        windows(self.records()?, self.replay.window_us).collect()
    }

    /// The deadline-scaled clone of a trace model, exactly as the replay
    /// driver makes it.
    fn class_model(name: &str, class: SlaClass) -> Result<Model, TraceError> {
        let mut m = zoo::by_abbr(name)
            .or_else(|| zoo::all().into_iter().find(|m| m.name == name))
            .ok_or_else(|| TraceError::UnknownModel {
                line: 0,
                model: name.to_string(),
            })?;
        m.qos_ms *= class.qos_scale();
        m.name = format!("{}+{}", m.name, class.letter());
        Ok(m)
    }

    /// The distinct deadline-scaled models a set of windows asks for,
    /// in order of first arrival.
    pub fn window_models(windows: &[TraceWindow]) -> Result<Vec<Model>, TraceError> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for rec in windows.iter().flat_map(|w| &w.records) {
            if seen.insert((rec.model.as_str(), rec.class)) {
                out.push(Self::class_model(&rec.model, rec.class)?);
            }
        }
        Ok(out)
    }

    /// The distinct models of a set of windows, without deadline
    /// scaling, in order of first arrival.
    pub fn base_models(windows: &[TraceWindow]) -> Result<Vec<Model>, TraceError> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for rec in windows.iter().flat_map(|w| &w.records) {
            if seen.insert(rec.model.as_str()) {
                out.push(Self::class_model(&rec.model, SlaClass::Medium)?);
            }
        }
        Ok(out)
    }

    /// The engine build of one window, made the way
    /// `ReplayDriver::run_window` makes it, so a window can be re-run
    /// under the reference model and its full `RunOutput` read.
    pub fn window_builder(
        &self,
        w: &TraceWindow,
        cache: &Arc<PlanCache>,
    ) -> Result<SimulationBuilder, TraceError> {
        let mut groups: BTreeMap<(String, String, SlaClass), Vec<Cycle>> = BTreeMap::new();
        for rec in &w.records {
            groups
                .entry((rec.tenant.clone(), rec.model.clone(), rec.class))
                .or_default()
                .push((rec.ts_us - w.start_us) * CYCLES_PER_US);
        }
        let mut models = Vec::with_capacity(groups.len());
        let mut schedules = Vec::with_capacity(groups.len());
        for ((_, model, class), sched) in groups {
            models.push(Self::class_model(&model, class)?);
            schedules.push(sched);
        }
        let cfg = &self.replay;
        let span = cfg.window_us * CYCLES_PER_US;
        let mut b = Simulation::builder()
            .policy(cfg.policy)
            .workload(Workload::traced(models, schedules))
            .soc(cfg.soc)
            .mapper(cfg.mapper.clone())
            .seed(cfg.seed ^ w.index)
            .qos_scale(1.0)
            .detail(DetailLevel::Tasks)
            .plan_cache(Arc::clone(cache))
            .admission_control(cfg.admission_control);
        if cfg.queue_samples_per_window > 0 {
            b = b.sample_queue_depth(span / u64::from(cfg.queue_samples_per_window));
        }
        if let Some(plan) = &cfg.fault_plan {
            let start = w.start_us * CYCLES_PER_US;
            b = b.fault_plan(plan.slice(start, start + span));
        }
        if let Some(max) = cfg.max_cycles_per_window {
            b = b.max_sim_cycles(max);
        }
        Ok(b)
    }

    /// Builds and runs one window replica; a window past its cycle
    /// budget yields its partial output, flagged truncated.
    pub fn replica(&self, b: SimulationBuilder) -> Result<Replica, EngineError> {
        let t0 = Instant::now();
        let sim = b.build()?;
        let t1 = Instant::now();
        let (out, truncated) = match sim.run() {
            Ok(out) => (out, false),
            Err(EngineError::BudgetExceeded { partial, .. }) => (*partial, true),
            Err(e) => return Err(e),
        };
        let t2 = Instant::now();
        Ok(Replica {
            out,
            truncated,
            build_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
        })
    }

    /// One set-up: a cold plan cache maps every deadline-scaled model
    /// of the trace, then the first window's engine is built from it.
    /// Returns (total seconds, mapping seconds, the now-warm cache).
    pub fn setup_once(
        &self,
        windows: &[TraceWindow],
    ) -> Result<(f64, f64, Arc<PlanCache>), BoxErr> {
        let first = windows.first().ok_or("the trace is empty")?;
        let models = Self::window_models(windows)?;
        let t0 = Instant::now();
        let cache = Arc::new(PlanCache::new());
        for m in &models {
            std::hint::black_box(cache.map_model(m, &self.replay.mapper));
        }
        let map_s = t0.elapsed().as_secs_f64();
        let sim = self.window_builder(first, &cache)?.build()?;
        let total_s = t0.elapsed().as_secs_f64();
        drop(sim);
        Ok((total_s, map_s, cache))
    }

    /// The output check: the leading windows must run identically under
    /// the per-line reference model.
    pub fn check(&self, windows: &[TraceWindow], report: &mut Report) -> Result<(), BoxErr> {
        let cache = Arc::new(PlanCache::new());
        for w in windows.iter().take(CHECK_WINDOWS) {
            let batched = self.replica(self.window_builder(w, &cache)?);
            report.check(
                "shortened replay window",
                batched.as_ref().map(|_| true).map_err(|e| e.to_string()),
            );
            let reference = self.replica(self.window_builder(w, &cache)?.reference_model(true));
            let agree = match (&batched, reference) {
                (Ok(a), Ok(b)) => Ok(a.out == b.out && a.truncated == b.truncated),
                (_, Err(e)) => Err(e.to_string()),
                (Err(_), Ok(_)) => Ok(false),
            };
            report.check("replay window == reference model", agree);
        }
        Ok(())
    }

    /// One replay of the whole trace through the replay driver: generation,
    /// windowing, one engine run per window, and the sink. An untraced
    /// replay is one `ReplayDriver::replay` call; a traced one drives
    /// `windows()`, `run_window` and `on_window` itself, timing each.
    pub fn repeat(
        &self,
        driver: &mut ReplayDriver,
        traced: bool,
    ) -> Result<ServeRepeat, TraceError> {
        let probe_s = host_probe_s();
        let t0 = Instant::now();
        let mut sink = Collect {
            agg: ReplayAggregate::new(),
            windows: Vec::new(),
        };
        let records = self.records()?;
        let spans = if traced {
            let mut sp = ServeSpans {
                next_s: 0.0,
                window_s: Vec::new(),
                sink_s: 0.0,
            };
            let mut it = windows(records, self.replay.window_us);
            loop {
                let a = Instant::now();
                let next = it.next();
                let b = Instant::now();
                sp.next_s += (b - a).as_secs_f64();
                let Some(w) = next else { break };
                let m = driver.run_window(&w?)?;
                let c = Instant::now();
                sink.on_window(&m);
                sp.window_s.push((c - b).as_secs_f64());
                sp.sink_s += c.elapsed().as_secs_f64();
            }
            Some(sp)
        } else {
            driver.replay(records, &mut sink)?;
            None
        };
        Ok(ServeRepeat {
            sink,
            wall_s: t0.elapsed().as_secs_f64(),
            spans,
            probe_s,
        })
    }

    /// Timed replays through one replay driver (see [`timed_loop`]).
    pub fn timed(
        &self,
        seconds: f64,
        trace: bool,
        report: &mut Report,
        between: impl FnMut() -> Result<(), BoxErr>,
    ) -> Result<Vec<ServeRepeat>, BoxErr> {
        let mut driver = ReplayDriver::new(self.replay.clone())?;
        timed_loop(
            seconds,
            trace,
            report,
            between,
            |t| self.repeat(&mut driver, t),
            |a, b| a.sink.windows == b.sink.windows,
        )
    }

    /// Re-runs every window outside the replay driver (untimed): each must
    /// match the replay driver's window metrics, and the full outputs give the
    /// simulated metrics the window metrics do not carry.
    pub fn detail_pass(
        &self,
        windows: &[TraceWindow],
        driven: &[WindowMetrics],
        cache: &Arc<PlanCache>,
        report: &mut Report,
    ) -> Result<(Vec<Replica>, ServeDetail), BoxErr> {
        if windows.len() != driven.len() {
            report.check("window count == replay driver's window count", Ok(false));
        }
        let mut replicas = Vec::with_capacity(windows.len());
        let mut d = ServeDetail::default();
        for (w, m) in windows.iter().zip(driven) {
            match self.replica(self.window_builder(w, cache)?) {
                Ok(r) => {
                    report.check("window re-run == replay driver's window", Ok(agrees(&r, m)));
                    d.add(&r.out);
                    replicas.push(r);
                }
                Err(e) => report.check("window re-run", Err(e.to_string())),
            }
        }
        Ok((replicas, d))
    }

    /// Set-up, output check, timed replays and every end-to-end metric.
    pub fn end_to_end(&self, seconds: f64) -> Result<Report, BoxErr> {
        let mut report = Report::default();
        let windows = self.all_windows()?;
        let mut setup = setups(SETUP_REPS, || self.setup_once(&windows))?;
        self.check(&windows, &mut report)?;
        let reps = self.timed(seconds, false, &mut report, || {
            setup.extend(SETUPS_PER_REPEAT, || self.setup_once(&windows))
        })?;
        let first = &reps[0].sink;
        let (_, detail) = self.detail_pass(&windows, &first.windows, &setup.cache, &mut report)?;
        let agg = &first.agg;
        let cycles: f64 = first
            .windows
            .iter()
            .map(|w| ms_to_cycles(w.makespan_ms) as f64)
            .sum();
        eprintln!(
            "{} replays of {} windows: {} arrivals, {} measured, {} shed, {} truncated windows",
            reps.len(),
            agg.windows,
            agg.arrivals,
            agg.sla_total,
            agg.shed,
            agg.truncated_windows
        );
        let timed: Vec<(f64, f64)> = reps.iter().map(|r| (r.wall_s, r.probe_s)).collect();
        push_host_metrics(
            &mut report,
            &setup.total_s,
            cycles,
            agg.arrivals as f64,
            &timed,
        );
        let arrivals = agg.arrivals.max(1) as f64;
        let sim = SimOutcome {
            mem_mb_per_inference: detail.mem_mb / detail.inferences,
            avg_latency_ms: detail.latency_ms / detail.inferences,
            p99_latency_ms: p99_ms(&agg.tail),
            hit_rate: detail.hit_rate / detail.inferences,
            // Over all arrivals: shed requests and requests a truncated
            // window left unfinished count as misses.
            sla_rate: agg.sla_met as f64 / arrivals,
            admit_rate: 1.0 - agg.shed as f64 / arrivals,
        };
        sim.push(&mut report);
        Ok(report)
    }
}

/// Repeated cold set-ups of one workload.
pub struct Setups {
    /// Seconds of each set-up: mapping plus the first build.
    pub total_s: Vec<f64>,
    /// Seconds of each set-up's mapping alone.
    pub map_s: Vec<f64>,
    /// The first set-up's plan cache, now warm.
    pub cache: Arc<PlanCache>,
}

/// Runs `once` (returning total seconds, mapping seconds and its cache)
/// `n` times, and at least once.
pub fn setups(
    n: usize,
    mut once: impl FnMut() -> Result<(f64, f64, Arc<PlanCache>), BoxErr>,
) -> Result<Setups, BoxErr> {
    let (total, map, cache) = once()?;
    let mut s = Setups {
        total_s: vec![total],
        map_s: vec![map],
        cache,
    };
    s.extend(n.saturating_sub(1), &mut once)?;
    Ok(s)
}

impl Setups {
    /// Runs `once` `n` more times, keeping the first set-up's cache.
    pub fn extend(
        &mut self,
        n: usize,
        mut once: impl FnMut() -> Result<(f64, f64, Arc<PlanCache>), BoxErr>,
    ) -> Result<(), BoxErr> {
        for _ in 0..n {
            let (total, map, _) = once()?;
            self.total_s.push(total);
            self.map_s.push(map);
        }
        Ok(())
    }
}

/// Runs `repeat` for `seconds`, and at least [`MIN_REPEATS`] times,
/// with `between` (untimed) before every repeat but the first; with
/// `trace`, every other repeat is traced. Each repeat must give the
/// first one's output (`same`); a mismatch or an error is a failed
/// operation, and an error ends the loop.
fn timed_loop<R, E: std::fmt::Display>(
    seconds: f64,
    trace: bool,
    report: &mut Report,
    mut between: impl FnMut() -> Result<(), BoxErr>,
    mut repeat: impl FnMut(bool) -> Result<R, E>,
    same: impl Fn(&R, &R) -> bool,
) -> Result<Vec<R>, BoxErr> {
    let start = Instant::now();
    let mut reps: Vec<R> = Vec::new();
    while reps.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        if !reps.is_empty() {
            if let Err(e) = between() {
                report.check("set-up between repeats", Err(e.to_string()));
                break;
            }
        }
        match repeat(trace && reps.len().is_multiple_of(2)) {
            Ok(r) => {
                let ok = reps.first().is_none_or(|f| same(f, &r));
                report.check("repeat == first repeat", Ok(ok));
                reps.push(r);
            }
            Err(e) => {
                report.check("timed repeat", Err(e.to_string()));
                break;
            }
        }
    }
    if reps.is_empty() {
        return Err("no timed repeat succeeded".into());
    }
    Ok(reps)
}

/// True when a window re-run reproduces the replay driver's window metrics.
fn agrees(r: &Replica, m: &WindowMetrics) -> bool {
    let s = &r.out.summary;
    let sla_met: u64 = r
        .out
        .try_tasks()
        .unwrap_or(&[])
        .iter()
        .map(|t| (t.sla_rate * t.inferences as f64).round() as u64)
        .sum();
    s.makespan_ms == m.makespan_ms
        && s.latency_tail == m.tail
        && s.shed_requests == m.shed
        && r.truncated == m.truncated
        && sla_met == m.sla_met
}

/// The 99th-percentile latency in ms, interpolated linearly inside its
/// bucket of the engine's power-of-two latency ladder and clamped to the
/// recorded extremes. (`LatencyTail::p99_ms` reports the bucket's upper
/// edge, which doubles when a seed moves the percentile across an edge.)
fn p99_ms(tail: &LatencyTail) -> f64 {
    let (Some(min), Some(max)) = (tail.min_cycles(), tail.max_cycles()) else {
        return 0.0;
    };
    let rank = 0.99 * tail.total() as f64;
    let mut below = 0u64;
    for (i, &n) in tail.counts().iter().enumerate() {
        if n > 0 && (below + n) as f64 >= rank {
            let lo = i
                .checked_sub(1)
                .map_or(0, |j| LATENCY_HIST_EDGES[j])
                .max(min);
            let hi = LATENCY_HIST_EDGES.get(i).copied().unwrap_or(max).min(max);
            let frac = (rank - below as f64) / n as f64;
            return (lo as f64 + frac * (hi - lo) as f64) / CYCLES_PER_MS;
        }
        below += n;
    }
    max as f64 / CYCLES_PER_MS
}

/// Inference-weighted sums over every window's tasks.
#[derive(Default)]
pub struct ServeDetail {
    inferences: f64,
    mem_mb: f64,
    latency_ms: f64,
    hit_rate: f64,
}

impl ServeDetail {
    fn add(&mut self, out: &RunOutput) {
        let mut n = 0.0;
        for t in out.try_tasks().unwrap_or(&[]) {
            let k = t.inferences as f64;
            n += k;
            self.mem_mb += t.mean_dram_mb * k;
            self.latency_ms += t.mean_latency_ms * k;
        }
        self.inferences += n;
        self.hit_rate += out.summary.cache_hit_rate * n;
    }
}

// ------------------------------------------------------------------
// Metrics
// ------------------------------------------------------------------

/// The simulated outcomes. They are a deterministic function of the
/// workload and seed, so a change to the simulator's speed alone must
/// leave them identical.
struct SimOutcome {
    mem_mb_per_inference: f64,
    avg_latency_ms: f64,
    p99_latency_ms: f64,
    hit_rate: f64,
    sla_rate: f64,
    admit_rate: f64,
}

impl SimOutcome {
    fn push(&self, r: &mut Report) {
        r.push("sim_mem_mb_per_inference", self.mem_mb_per_inference, "MB");
        r.push("sim_avg_latency_ms", self.avg_latency_ms, "ms");
        r.push("sim_p99_latency_ms", self.p99_latency_ms, "ms");
        r.push("sim_hit_rate", self.hit_rate, "ratio");
        r.push("sim_sla_rate", self.sla_rate, "ratio");
        r.push("sim_admit_rate", self.admit_rate, "ratio");
    }
}

/// Pushes the host-time metrics of a run: the median set-up time, and
/// simulated cycles and requests per second, each the median over the
/// timed repeats of the repeat's rate (`timed` holds each repeat's
/// seconds and the host-speed probe run just before it). All three are
/// scaled to the reference host speed, each repeat's rate by its own
/// probe's time over [`PROBE_REF_S`] and the set-up time by the median
/// probe's: other tenants of a shared host slow whole runs down for
/// minutes at a time, by up to half, and the probe slows with them. On
/// six runs of each workload this cut the spread between runs by half
/// or more.
fn push_host_metrics(
    r: &mut Report,
    setup_s: &[f64],
    cycles: f64,
    requests: f64,
    timed: &[(f64, f64)],
) {
    let probe = median(&timed.iter().map(|t| t.1).collect::<Vec<_>>());
    let wall = median(&timed.iter().map(|t| t.0).collect::<Vec<_>>());
    eprintln!(
        "{} set-ups, {} timed repeats; host probe median {probe:.4} s (reference {PROBE_REF_S} s); \
         unscaled medians: set-up {:.6} s, repeat {wall:.4} s",
        setup_s.len(),
        timed.len(),
        median(setup_s),
    );
    let rate = |work: f64| {
        median(
            &timed
                .iter()
                .map(|&(wall, probe)| work / wall * probe / PROBE_REF_S)
                .collect::<Vec<_>>(),
        )
    };
    r.push("setup_s", median(setup_s) * PROBE_REF_S / probe, "s");
    r.push("sim_cycles_per_s", rate(cycles), "cycles/s");
    r.push("requests_per_s", rate(requests), "1/s");
    r.push("peak_heap_mb", peak_heap_mb(), "MB");
}
