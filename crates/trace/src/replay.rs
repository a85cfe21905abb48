//! Bounded-memory windowed replay of a trace through the engine.
//!
//! The replay driver chops an arbitrarily long trace into fixed
//! [`TraceWindow`]s (window index = `ts_us / window_us`) and runs each
//! window as one deterministic engine run: every distinct
//! `(tenant, model, SLA class)` group in the window becomes one task
//! with its arrival cycles passed verbatim via
//! [`Workload::traced`], and per-class deadlines come from cloning the
//! model with its QoS target scaled by the class factor. Only the
//! current window's records are ever buffered — a billion-arrival
//! trace streams through in the memory of its densest window — and
//! each finished window's [`WindowMetrics`] (latency tail, per-tenant
//! SLO burn, queue-depth timeline) is flushed to a [`ReplaySink`]
//! before the next window starts.
//!
//! Window runs are independent and seeded `seed ^ window_index`, so
//! replaying the same trace twice produces bit-identical metrics, and
//! [`ReplayDriver::run_window`] on one window reproduces that window of
//! a full replay.

use crate::schema::{SlaClass, TraceError, TraceRecord};
use camdn_common::config::SocConfig;
use camdn_common::types::Cycle;
use camdn_mapper::{MapperConfig, PlanCache};
use camdn_models::{zoo, Model};
use camdn_runtime::{
    DetailLevel, EngineError, FaultPlan, LatencyTail, PolicyKind, QueueSample, RunOutput,
    Simulation, Workload,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cycles per trace microsecond (the engine clock runs at 1 GHz).
const CYCLES_PER_US: u64 = 1000;

/// One fixed-length slice of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWindow {
    /// Window index (`ts_us / window_us`).
    pub index: u64,
    /// Absolute start of the window in µs.
    pub start_us: u64,
    /// The window's records, in arrival order.
    pub records: Vec<TraceRecord>,
}

/// Streaming adapter that groups a record stream into
/// [`TraceWindow`]s, buffering exactly one window at a time.
///
/// Empty windows (no arrivals) are skipped, so indices in the output
/// may have gaps. Errors from the underlying stream are passed through
/// and fuse the iterator; records running backwards across windows are
/// reported as [`TraceError::NonMonotonic`].
#[derive(Debug)]
pub struct Windows<I> {
    inner: I,
    window_us: u64,
    pending: Option<TraceRecord>,
    last_us: Option<u64>,
    failed: bool,
}

/// Groups `records` into windows of `window_us` microseconds.
///
/// # Panics
///
/// Panics when `window_us` is zero ([`ReplayConfig::validate`] rejects
/// that earlier on the driver path).
pub fn windows<I>(records: I, window_us: u64) -> Windows<I::IntoIter>
where
    I: IntoIterator<Item = Result<TraceRecord, TraceError>>,
{
    assert!(window_us > 0, "window_us must be positive");
    Windows {
        inner: records.into_iter(),
        window_us,
        pending: None,
        last_us: None,
        failed: false,
    }
}

impl<I: Iterator<Item = Result<TraceRecord, TraceError>>> Iterator for Windows<I> {
    type Item = Result<TraceWindow, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let mut records: Vec<TraceRecord> = Vec::new();
        let mut index = None;
        loop {
            let rec = match self.pending.take() {
                Some(rec) => rec,
                None => match self.inner.next() {
                    Some(Ok(rec)) => rec,
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    None => {
                        return index.map(|index| {
                            Ok(TraceWindow {
                                index,
                                start_us: index * self.window_us,
                                records: std::mem::take(&mut records),
                            })
                        });
                    }
                },
            };
            if let Some(prev) = self.last_us {
                if rec.ts_us < prev {
                    self.failed = true;
                    return Some(Err(TraceError::NonMonotonic {
                        line: 0,
                        prev_us: prev,
                        ts_us: rec.ts_us,
                    }));
                }
            }
            self.last_us = Some(rec.ts_us);
            let rec_index = rec.ts_us / self.window_us;
            match index {
                None => {
                    index = Some(rec_index);
                    records.push(rec);
                }
                Some(cur) if rec_index == cur => records.push(rec),
                Some(cur) => {
                    self.pending = Some(rec);
                    return Some(Ok(TraceWindow {
                        index: cur,
                        start_us: cur * self.window_us,
                        records,
                    }));
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Replay configuration
// ------------------------------------------------------------------

/// How a trace is replayed: which policy serves it, the analysis
/// window, and the engine knobs shared by every window run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Policy serving the trace.
    pub policy: PolicyKind,
    /// Analysis window length in µs; each window is one engine run.
    pub window_us: u64,
    /// Base seed; window `i` runs with `seed ^ i`.
    pub seed: u64,
    /// Queue-depth samples per window (0 = no queue timeline).
    pub queue_samples_per_window: u32,
    /// SoC parameters for every window run.
    pub soc: SocConfig,
    /// Offline mapper settings for every window run.
    pub mapper: MapperConfig,
    /// Fault schedule in *absolute trace cycles* (µs × 1000): each
    /// window runs the slice overlapping its span, with faults still
    /// active at the window boundary re-materialized at its start
    /// (see [`FaultPlan::slice`]). `None` leaves every window
    /// bit-for-bit identical to a fault-free replay.
    pub fault_plan: Option<FaultPlan>,
    /// Simulated-cycle budget per window run: a window exceeding it
    /// reports the partial metrics it reached, flagged
    /// [`WindowMetrics::truncated`], instead of running unbounded in
    /// deep overload. `None` = no budget.
    pub max_cycles_per_window: Option<Cycle>,
    /// Deadline-aware admission control in every window run: arrivals
    /// whose queue-predicted completion already misses the QoS
    /// deadline are shed (counted in [`WindowMetrics::shed`]) instead
    /// of queued. Default off.
    pub admission_control: bool,
}

impl ReplayConfig {
    /// A replay of `policy` with `window_us`-µs windows on the Table II
    /// SoC: seed `0xCA3D41`, 8 queue samples per window.
    pub fn new(policy: PolicyKind, window_us: u64) -> Self {
        ReplayConfig {
            policy,
            window_us,
            seed: 0xCA3D41,
            queue_samples_per_window: 8,
            soc: SocConfig::paper_default(),
            mapper: MapperConfig::paper_default(),
            fault_plan: None,
            max_cycles_per_window: None,
            admission_control: false,
        }
    }

    /// Checks the window geometry.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.window_us == 0 {
            return Err(TraceError::InvalidConfig(
                "window_us must be positive".into(),
            ));
        }
        if self.max_cycles_per_window == Some(0) {
            return Err(TraceError::InvalidConfig(
                "max_cycles_per_window must be positive (use None for unbounded)".into(),
            ));
        }
        let window_cycles = self.window_us.checked_mul(CYCLES_PER_US).ok_or_else(|| {
            TraceError::InvalidConfig(format!(
                "a {} µs window is past the cycle clock's range ({} µs at most)",
                self.window_us,
                u64::MAX / CYCLES_PER_US
            ))
        })?;
        if u64::from(self.queue_samples_per_window) > window_cycles {
            return Err(TraceError::InvalidConfig(format!(
                "{} queue samples do not fit a {} µs window",
                self.queue_samples_per_window, self.window_us
            )));
        }
        Ok(())
    }

    /// The queue sampling interval in cycles, when sampling is on
    /// ([`ReplayConfig::validate`] has checked that the window fits the
    /// cycle clock).
    fn queue_interval_cycles(&self) -> Option<Cycle> {
        (self.queue_samples_per_window > 0).then(|| {
            self.window_us.saturating_mul(CYCLES_PER_US) / u64::from(self.queue_samples_per_window)
        })
    }
}

/// `us` trace microseconds in engine cycles, or a typed error naming
/// `window` when that is past the cycle clock's range.
fn window_cycles(window: u64, us: u64) -> Result<Cycle, TraceError> {
    us.checked_mul(CYCLES_PER_US).ok_or_else(|| {
        TraceError::InvalidConfig(format!(
            "window {window}: {us} µs is past the cycle clock's range ({} µs at most)",
            u64::MAX / CYCLES_PER_US
        ))
    })
}

// ------------------------------------------------------------------
// Windowed metrics
// ------------------------------------------------------------------

/// Per-tenant SLO accounting of one window, in exact integer counts so
/// windows pool into a [`ReplayAggregate`] without rounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBurn {
    /// Tenant identifier from the trace.
    pub tenant: String,
    /// Requests that met their deadline.
    pub met: u64,
    /// Requests measured.
    pub total: u64,
}

/// Everything one replayed window reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowMetrics {
    /// Window index in the trace.
    pub index: u64,
    /// Absolute window start in µs.
    pub start_us: u64,
    /// Arrivals replayed in this window.
    pub arrivals: u64,
    /// Deadline-met count over all arrivals.
    pub sla_met: u64,
    /// Requests measured (equals `arrivals`).
    pub sla_total: u64,
    /// Wall-clock span of the window's engine run, ms.
    pub makespan_ms: f64,
    /// Latency tail over the window's inferences.
    pub tail: LatencyTail,
    /// Per-tenant SLO accounting, sorted by tenant id.
    pub tenants: Vec<TenantBurn>,
    /// Queue-depth timeline at the configured per-window interval
    /// (window-relative cycles; empty when sampling is off).
    pub queue_depth: Vec<QueueSample>,
    /// Arrivals shed by admission control in this window (always 0
    /// unless [`ReplayConfig::admission_control`] is on).
    pub shed: u64,
    /// True when the window hit
    /// [`ReplayConfig::max_cycles_per_window`] and reports partial
    /// metrics.
    pub truncated: bool,
}

impl WindowMetrics {
    /// The window's SLA satisfaction rate (1.0 when empty).
    pub fn sla_rate(&self) -> f64 {
        if self.sla_total == 0 {
            1.0
        } else {
            self.sla_met as f64 / self.sla_total as f64
        }
    }

    /// Peak outstanding depth in the window's queue timeline.
    pub fn max_queue_depth(&self) -> u32 {
        self.queue_depth
            .iter()
            .map(|s| s.outstanding)
            .max()
            .unwrap_or(0)
    }
}

// ------------------------------------------------------------------
// Sinks
// ------------------------------------------------------------------

/// Receives each window's metrics the moment its run finishes — the
/// replay-side mirror of the sweep crate's `CellSink`.
pub trait ReplaySink {
    /// Called once per replayed window, in window order.
    fn on_window(&mut self, w: &WindowMetrics);
}

/// In-memory accumulator over a whole replay: merged latency tail,
/// exact SLO counts, per-tenant burn and peak queue depth — O(tenants)
/// memory no matter how long the trace is.
#[derive(Debug, Default)]
pub struct ReplayAggregate {
    /// Windows folded in.
    pub windows: u64,
    /// Arrivals folded in.
    pub arrivals: u64,
    /// Deadline-met count over all windows.
    pub sla_met: u64,
    /// Requests measured over all windows.
    pub sla_total: u64,
    /// Latency tail pooled over all windows by histogram merge.
    pub tail: LatencyTail,
    /// Per-tenant (met, total) counts.
    pub tenants: BTreeMap<String, (u64, u64)>,
    /// Largest queue depth seen in any window.
    pub max_queue_depth: u32,
    /// Smallest per-window SLA rate (the worst window).
    pub worst_window_sla: f64,
    /// Arrivals shed by admission control over all windows.
    pub shed: u64,
    /// Windows that hit their per-window cycle budget.
    pub truncated_windows: u64,
}

impl ReplayAggregate {
    /// A fresh, empty aggregate.
    pub fn new() -> Self {
        ReplayAggregate {
            tail: LatencyTail::new(),
            worst_window_sla: 1.0,
            ..Default::default()
        }
    }

    /// Overall SLA satisfaction rate (1.0 when nothing was measured).
    pub fn sla_rate(&self) -> f64 {
        if self.sla_total == 0 {
            1.0
        } else {
            self.sla_met as f64 / self.sla_total as f64
        }
    }
}

impl ReplaySink for ReplayAggregate {
    fn on_window(&mut self, w: &WindowMetrics) {
        self.windows += 1;
        self.arrivals += w.arrivals;
        self.sla_met += w.sla_met;
        self.sla_total += w.sla_total;
        self.tail.merge(&w.tail);
        for t in &w.tenants {
            let slot = self.tenants.entry(t.tenant.clone()).or_insert((0, 0));
            slot.0 += t.met;
            slot.1 += t.total;
        }
        self.max_queue_depth = self.max_queue_depth.max(w.max_queue_depth());
        self.worst_window_sla = self.worst_window_sla.min(w.sla_rate());
        self.shed += w.shed;
        self.truncated_windows += u64::from(w.truncated);
    }
}

// ------------------------------------------------------------------
// The driver
// ------------------------------------------------------------------

/// Summary of one [`ReplayDriver::replay`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayTotals {
    /// Windows whose engine runs executed in this call.
    pub windows_run: u64,
    /// Arrivals consumed from the stream.
    pub arrivals: u64,
}

/// Replays record streams through the engine, one window at a time.
///
/// The driver owns a shared [`PlanCache`], so every window (and every
/// policy replayed through the same driver) maps each distinct model
/// once.
pub struct ReplayDriver {
    cfg: ReplayConfig,
    plan_cache: Arc<PlanCache>,
    /// Deadline-scaled model clones, keyed by (model string, class).
    model_cache: BTreeMap<(String, SlaClass), Model>,
}

impl ReplayDriver {
    /// Validates the config and builds a driver.
    pub fn new(cfg: ReplayConfig) -> Result<Self, TraceError> {
        cfg.validate()?;
        Ok(ReplayDriver {
            cfg,
            plan_cache: Arc::new(PlanCache::new()),
            model_cache: BTreeMap::new(),
        })
    }

    /// The driver's configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.cfg
    }

    /// Switches the policy (e.g. to replay the same trace through all
    /// five systems), keeping the shared plan cache warm.
    pub fn set_policy(&mut self, policy: PolicyKind) {
        self.cfg.policy = policy;
    }

    /// Resolves a trace model string (Table I abbreviation or full
    /// name) into a deadline-scaled clone for `class`.
    fn class_model(&mut self, name: &str, class: SlaClass) -> Result<Model, TraceError> {
        let key = (name.to_string(), class);
        if let Some(m) = self.model_cache.get(&key) {
            return Ok(m.clone());
        }
        let base = zoo::by_abbr(name)
            .or_else(|| zoo::all().into_iter().find(|m| m.name == name))
            .ok_or_else(|| TraceError::UnknownModel {
                line: 0,
                model: name.to_string(),
            })?;
        let mut m = base;
        // The engine's QoS deadline is `qos_scale × model.qos_ms`; the
        // replay runs at qos_scale 1.0 and bakes the class factor into
        // a per-class model clone instead, so one window can mix
        // classes. The suffixed name keeps the clones distinct in the
        // engine's model dedup (the mapper's layer ladder still shares
        // the actual solves).
        m.qos_ms *= class.qos_scale();
        m.name = format!("{}+{}", m.name, class.letter());
        self.model_cache.insert(key, m.clone());
        Ok(m)
    }

    /// Runs one window through the engine and distills its metrics.
    pub fn run_window(&mut self, window: &TraceWindow) -> Result<WindowMetrics, TraceError> {
        // One task per distinct (tenant, model, class): BTreeMap gives
        // a deterministic task order.
        let mut groups: BTreeMap<(String, String, SlaClass), Vec<Cycle>> = BTreeMap::new();
        for rec in &window.records {
            let rel_us = rec.ts_us.checked_sub(window.start_us).ok_or_else(|| {
                TraceError::InvalidConfig(format!(
                    "window {}: a record at {} µs precedes the window start {} µs",
                    window.index, rec.ts_us, window.start_us
                ))
            })?;
            let rel_cycles = window_cycles(window.index, rel_us)?;
            groups
                .entry((rec.tenant.clone(), rec.model.clone(), rec.class))
                .or_default()
                .push(rel_cycles);
        }
        let mut models = Vec::with_capacity(groups.len());
        let mut schedules = Vec::with_capacity(groups.len());
        let mut tenants_by_task: Vec<String> = Vec::with_capacity(groups.len());
        for ((tenant, model, class), sched) in groups {
            models.push(self.class_model(&model, class)?);
            schedules.push(sched);
            tenants_by_task.push(tenant);
        }
        let mut builder = Simulation::builder()
            .policy(self.cfg.policy)
            .workload(Workload::traced(models, schedules))
            .soc(self.cfg.soc)
            .mapper(self.cfg.mapper.clone())
            .seed(self.cfg.seed ^ window.index)
            .qos_scale(1.0)
            .detail(DetailLevel::Tasks)
            .plan_cache(Arc::clone(&self.plan_cache));
        if let Some(interval) = self.cfg.queue_interval_cycles() {
            builder = builder.sample_queue_depth(interval);
        }
        if let Some(plan) = &self.cfg.fault_plan {
            // The plan speaks absolute trace cycles; each window gets
            // the slice overlapping its span, rebased to window-local
            // cycle 0 with boundary-active faults materialized.
            let start = window_cycles(window.index, window.start_us)?;
            let end_us = window.start_us.saturating_add(self.cfg.window_us);
            let end = window_cycles(window.index, end_us)?;
            builder = builder.fault_plan(plan.slice(start, end));
        }
        if let Some(max) = self.cfg.max_cycles_per_window {
            builder = builder.max_sim_cycles(max);
        }
        if self.cfg.admission_control {
            builder = builder.admission_control(true);
        }
        match builder.run() {
            Ok(run) => distill(window, &run, &tenants_by_task, false),
            // A window past its cycle budget reports what it reached,
            // flagged truncated, instead of aborting the replay.
            Err(EngineError::BudgetExceeded { partial, .. }) => {
                distill(window, &partial, &tenants_by_task, true)
            }
            Err(e) => Err(TraceError::Engine {
                window: window.index,
                detail: e.to_string(),
            }),
        }
    }

    /// Streams records through windowing, engine runs and the sink.
    pub fn replay<I>(
        &mut self,
        records: I,
        sink: &mut dyn ReplaySink,
    ) -> Result<ReplayTotals, TraceError>
    where
        I: IntoIterator<Item = Result<TraceRecord, TraceError>>,
    {
        let mut totals = ReplayTotals {
            windows_run: 0,
            arrivals: 0,
        };
        for window in windows(records, self.cfg.window_us) {
            let window = window?;
            totals.arrivals += window.records.len() as u64;
            let metrics = self.run_window(&window)?;
            sink.on_window(&metrics);
            totals.windows_run += 1;
        }
        Ok(totals)
    }
}

/// Distills one window's engine output into [`WindowMetrics`], using
/// exact integer SLA counts (`round(sla_rate × inferences)` inverts
/// the engine's mean exactly).
fn distill(
    window: &TraceWindow,
    run: &RunOutput,
    tenants_by_task: &[String],
    truncated: bool,
) -> Result<WindowMetrics, TraceError> {
    // Windows run at DetailLevel::Tasks; a missing detail block is a
    // typed error, not a panic — a budget-truncated partial must not
    // take the whole replay down.
    let detail = run.detail.as_ref().ok_or_else(|| TraceError::Engine {
        window: window.index,
        detail: "window run returned no per-task detail".into(),
    })?;
    let mut per_tenant: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut sla_met = 0u64;
    let mut sla_total = 0u64;
    for (task, tenant) in detail.tasks.iter().zip(tenants_by_task) {
        let total = task.inferences as u64;
        let met = (task.sla_rate * task.inferences as f64).round() as u64;
        let slot = per_tenant.entry(tenant).or_insert((0, 0));
        slot.0 += met;
        slot.1 += total;
        sla_met += met;
        sla_total += total;
    }
    Ok(WindowMetrics {
        index: window.index,
        start_us: window.start_us,
        arrivals: window.records.len() as u64,
        sla_met,
        sla_total,
        makespan_ms: run.summary.makespan_ms,
        tail: run.summary.latency_tail,
        tenants: per_tenant
            .into_iter()
            .map(|(tenant, (met, total))| TenantBurn {
                tenant: tenant.to_string(),
                met,
                total,
            })
            .collect(),
        queue_depth: detail.queue_depth.clone(),
        shed: run.summary.shed_requests,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TraceRecord;

    fn rec(ts_us: u64, tenant: &str, model: &str, class: SlaClass) -> TraceRecord {
        TraceRecord {
            ts_us,
            tenant: tenant.into(),
            model: model.into(),
            class,
        }
    }

    #[test]
    fn windows_group_by_index_and_buffer_one_window() {
        let records = vec![
            rec(0, "t0", "MB", SlaClass::Medium),
            rec(999, "t1", "MB", SlaClass::Medium),
            rec(1_000, "t0", "RS", SlaClass::High),
            // window 2 empty: index gap expected
            rec(3_500, "t1", "RS", SlaClass::Low),
        ];
        let wins: Vec<TraceWindow> = windows(records.into_iter().map(Ok), 1_000)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            wins.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        assert_eq!(wins[0].records.len(), 2);
        assert_eq!(wins[1].start_us, 1_000);
        assert_eq!(wins[2].records[0].ts_us, 3_500);
    }

    #[test]
    fn windows_reject_backwards_streams_and_pass_errors_through() {
        let records = vec![
            Ok(rec(5_000, "t0", "MB", SlaClass::Medium)),
            Ok(rec(100, "t0", "MB", SlaClass::Medium)),
        ];
        let mut it = windows(records, 1_000);
        assert!(matches!(
            it.next(),
            Some(Err(TraceError::NonMonotonic { .. }))
        ));
        assert!(it.next().is_none(), "fused after the error");

        let records = vec![Err(TraceError::Malformed {
            line: 2,
            detail: "x".into(),
        })];
        let mut it = windows(records, 1_000);
        assert!(matches!(it.next(), Some(Err(TraceError::Malformed { .. }))));
        assert!(it.next().is_none());
    }

    #[test]
    fn unknown_models_are_typed_errors() {
        let mut driver =
            ReplayDriver::new(ReplayConfig::new(PolicyKind::CamdnFull, 1_000)).unwrap();
        let window = TraceWindow {
            index: 0,
            start_us: 0,
            records: vec![rec(0, "t0", "NOPE", SlaClass::Medium)],
        };
        assert!(matches!(
            driver.run_window(&window),
            Err(TraceError::UnknownModel { .. })
        ));
    }

    #[test]
    fn zero_window_is_rejected() {
        assert!(matches!(
            ReplayDriver::new(ReplayConfig::new(PolicyKind::Aurora, 0)),
            Err(TraceError::InvalidConfig(_))
        ));
    }

    #[test]
    fn windows_past_the_cycle_clock_are_typed_errors() {
        // u64::MAX / 100 µs is 1000 / 100 = 10x past the 1 GHz cycle
        // range: a typed error, not a wrapped or panicking multiply.
        let cfg = ReplayConfig::new(PolicyKind::CamdnFull, u64::MAX / 100);
        assert!(matches!(cfg.validate(), Err(TraceError::InvalidConfig(_))));
        assert!(ReplayDriver::new(cfg).is_err());
        // The largest window that fits still validates.
        let widest = ReplayConfig::new(PolicyKind::CamdnFull, u64::MAX / CYCLES_PER_US);
        assert_eq!(widest.validate(), Ok(()));
    }

    #[test]
    fn a_faulted_window_past_the_cycle_clock_is_a_typed_error() {
        // A valid record 2e16 µs into the trace: its window starts past
        // the cycle clock, so the fault plan cannot be sliced to it.
        let mut cfg = ReplayConfig::new(PolicyKind::CamdnFull, 20_000);
        cfg.fault_plan = Some(FaultPlan::default());
        let records = vec![Ok(rec(
            20_000_000_000_000_000,
            "t0",
            "MB",
            SlaClass::Medium,
        ))];
        match ReplayDriver::new(cfg)
            .unwrap()
            .replay(records, &mut ReplayAggregate::new())
        {
            Err(TraceError::InvalidConfig(msg)) => {
                assert!(msg.contains("window 1000000000000"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // A hand-built window whose record precedes its start too.
        let mut driver =
            ReplayDriver::new(ReplayConfig::new(PolicyKind::CamdnFull, 1_000)).unwrap();
        let window = TraceWindow {
            index: 5,
            start_us: 5_000,
            records: vec![rec(10, "t0", "MB", SlaClass::Medium)],
        };
        assert!(matches!(
            driver.run_window(&window),
            Err(TraceError::InvalidConfig(_))
        ));
    }

    #[test]
    fn faulted_windows_slice_the_plan_and_still_distill() {
        use camdn_runtime::{FaultEvent, FaultKind};
        // An NPU outage spanning window 0's middle: the replay must
        // run, report metrics, and differ from the fault-free replay.
        let mut cfg = ReplayConfig::new(PolicyKind::SharedBaseline, 4_000);
        let records = || {
            (0..8)
                .map(|i| Ok(rec(i * 450, "t0", "MB", SlaClass::Medium)))
                .collect::<Vec<_>>()
        };
        let mut clean_agg = ReplayAggregate::new();
        ReplayDriver::new(cfg.clone())
            .unwrap()
            .replay(records(), &mut clean_agg)
            .unwrap();
        cfg.fault_plan = Some(
            FaultPlan::new(vec![
                FaultEvent {
                    at: 100_000,
                    kind: FaultKind::ClockThrottle { factor: 0.5 },
                },
                FaultEvent {
                    at: 3_000_000,
                    kind: FaultKind::ClockThrottle { factor: 1.0 },
                },
            ])
            .unwrap(),
        );
        let mut faulted_agg = ReplayAggregate::new();
        ReplayDriver::new(cfg)
            .unwrap()
            .replay(records(), &mut faulted_agg)
            .unwrap();
        assert_eq!(faulted_agg.arrivals, clean_agg.arrivals);
        assert!(
            faulted_agg.tail.quantile_cycles(0.5) > clean_agg.tail.quantile_cycles(0.5),
            "a half-speed clock must stretch window latencies"
        );
    }
}
