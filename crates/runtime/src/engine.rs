//! The multi-tenant execution engine.
//!
//! A discrete-event simulation of co-located DNN tasks on the
//! NPU-integrated SoC of Table II. Each task is a state machine that
//! acquires an NPU, walks its model's layers, and for every layer
//! executes the phase plan produced by the mapper. All tasks share the
//! DRAM channels and the shared cache, which is where the multi-tenant
//! interference — and CaMDN's advantage — comes from.
//!
//! The engine core is policy-agnostic: every scheduling choice (cache
//! pages, bandwidth shares, NPU groups) is delegated to a boxed
//! [`Policy`] through its hooks, and the workload's
//! timing comes from a [`Workload`] scenario. The five
//! systems evaluated in the paper are the built-in policies named by
//! [`PolicyKind`]; use [`Simulation::builder`](crate::Simulation) to
//! assemble and run a configuration.

use crate::error::{BudgetKind, EngineError};
use crate::fault::{
    FaultKind, FaultPlan, CHANNEL_DOWN_SCALE, MAX_INFERENCE_RETRIES, RETRY_BACKOFF_CYCLES,
};
use crate::layout::TaskLayout;
use crate::policies::{
    AllocFailure, EpochSlot, InstallEvent, PartitionCtx, Policy, PolicyCapabilities, Selection,
};
use crate::result::{DetailLevel, QueueSample, RunDetail, RunOutput, RunSummary, TaskSummary};
use crate::scenario::Workload;
use crate::sched::Scheduler;
use crate::task::{InferenceRecord, Task, TaskState};
use camdn_cache::{Nec, SharedCache};
use camdn_common::config::SocConfig;
use camdn_common::stats::Histogram;
use camdn_common::types::{cycles_to_ms, ms_to_cycles, Cycle};
use camdn_common::SimRng;
use camdn_core::{
    install_region, resolve_candidate, teardown_region, CandidateRef, Decision, PageAllocator,
    RegionError,
};
use camdn_dram::DramModel;
use camdn_mapper::{
    lower, map_model, LayerPlan, LowerMode, MapperConfig, ModelMapping, PlanCache, PlanSizes,
    Route, TensorKind,
};
use camdn_models::{Model, WeightClass};
use camdn_npu::NpuCore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sentinel task id marking a fault event in the event queue. Pushed
/// before task arrivals, so the FIFO tie-break applies same-cycle
/// faults before any task work at that cycle.
const FAULT_EVENT: u32 = u32::MAX;

/// Names one of the five built-in system configurations.
///
/// Custom systems implement [`Policy`] instead; this
/// enum remains the convenient way to pick a built-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Plain shared transparent cache, no resource scheduling.
    SharedBaseline,
    /// Dynamic memory-bandwidth partitioning (MoCA).
    Moca,
    /// Dynamic NPU + bandwidth co-allocation (AuRORA).
    Aurora,
    /// CaMDN architecture with static equal cache split.
    CamdnHwOnly,
    /// Full CaMDN co-design (Algorithm 1).
    CamdnFull,
}

impl PolicyKind {
    /// All built-in kinds, in the paper's presentation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::SharedBaseline,
        PolicyKind::Moca,
        PolicyKind::Aurora,
        PolicyKind::CamdnHwOnly,
        PolicyKind::CamdnFull,
    ];

    /// True for the two CaMDN variants (NPU-controlled cache).
    pub fn is_camdn(&self) -> bool {
        matches!(self, PolicyKind::CamdnHwOnly | PolicyKind::CamdnFull)
    }

    /// Display label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::SharedBaseline => "Baseline",
            PolicyKind::Moca => "MoCA",
            PolicyKind::Aurora => "AuRORA",
            PolicyKind::CamdnHwOnly => "CaMDN(HW-only)",
            PolicyKind::CamdnFull => "CaMDN(Full)",
        }
    }

    /// Registry identifier of the built-in
    /// (`baseline`/`moca`/`aurora`/`camdn-hw`/`camdn-full`).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::SharedBaseline => "baseline",
            PolicyKind::Moca => "moca",
            PolicyKind::Aurora => "aurora",
            PolicyKind::CamdnHwOnly => "camdn-hw",
            PolicyKind::CamdnFull => "camdn-full",
        }
    }
}

/// Policy-independent engine parameters (the builder assembles these).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimParams {
    pub soc: SocConfig,
    pub seed: u64,
    pub warmup_rounds: u32,
    pub qos_scale: Option<f64>,
    pub epoch_cycles: Cycle,
    pub mapper: MapperConfig,
    /// Route all memory-system timing through the per-line reference
    /// model instead of the batched fast paths (differential testing
    /// and benchmarking only — results are bit-identical).
    pub reference_model: bool,
    /// How much output to retain ([`RunSummary`] only, plus the
    /// per-task table, or everything including latency histograms).
    pub detail: DetailLevel,
    /// Sample the outstanding-request depth every this many cycles
    /// into [`RunDetail::queue_depth`](crate::RunDetail) (`None` — the
    /// default — records nothing and leaves the run loop untouched).
    pub queue_sample_cycles: Option<Cycle>,
    /// Fault schedule applied at event timestamps (`None` — the
    /// default — leaves the run loop untouched and results bit-for-bit
    /// identical to a fault-free engine).
    pub fault_plan: Option<FaultPlan>,
    /// Simulated-cycle budget: the run stops with a typed
    /// [`EngineError::BudgetExceeded`] partial result once an event
    /// past this cycle pops. Deterministic.
    pub max_sim_cycles: Option<Cycle>,
    /// Deadline-aware admission control: shed open-loop QoS arrivals
    /// whose predicted completion already misses the deadline.
    pub admission_control: bool,
}

/// Master cycles charged for `compute` local compute cycles on a
/// `group`-wide NPU gang at clock `rate` relative to the master clock
/// (multi-NPU gangs pay a 10% gang-scaling tax). The rate is held in
/// f64 so the full rate 1.0 stays IEEE-exact: a fault-free run divides
/// by the group throughput alone.
fn compute_master_cycles(compute: Cycle, group: u32, rate: f64) -> Cycle {
    let eff = if group > 1 { 0.9 } else { 1.0 };
    (compute as f64 / (f64::from(group) * eff * rate)).ceil() as Cycle
}

/// The multi-tenant discrete-event engine.
///
/// This is the low-level API: it is policy-agnostic and fully
/// assembled by [`Simulation::builder`](crate::Simulation::builder),
/// which is what most callers want.
pub struct Engine {
    params: SimParams,
    policy: Box<dyn Policy>,
    caps: PolicyCapabilities,
    label: String,
    models: Vec<Model>,
    /// Shared (possibly cache-served) mapping per distinct model.
    mappings: Vec<Arc<ModelMapping>>,
    tasks: Vec<Task>,
    /// Inference rounds each task will run in total.
    rounds_target: Vec<u32>,
    /// Absolute arrival cycles per task. Closed-loop tasks carry a
    /// single dispatch-jitter entry (later rounds re-issue
    /// immediately); open-loop tasks carry their full request schedule.
    arrivals: Vec<Vec<Cycle>>,
    closed_loop: bool,
    npus_free: Vec<bool>,
    /// Maintained count of `true` entries in `npus_free` (O(1) dispatch
    /// checks instead of a scan per event).
    free_npus: usize,
    /// Reused dispatch scratch (free-NPU id shuffle buffer).
    scratch_ids: Vec<usize>,
    /// Reused epoch scratch (per-task slots handed to the policy).
    slots_scratch: Vec<EpochSlot>,
    npu_cores: Vec<NpuCore>,
    dram: DramModel,
    cache: SharedCache,
    nec: Nec,
    alloc: PageAllocator,
    /// The master event heap (time-ordered, FIFO among ties).
    events: Scheduler<u32>,
    rng: SimRng,
    npu_waiters: Vec<u32>,
    page_waiters: Vec<u32>,
    /// Rough isolated-latency estimate per model (for urgency).
    iso_est: Vec<Cycle>,
    /// Queue-depth timeline (populated only when
    /// `params.queue_sample_cycles` is set).
    queue_samples: Vec<QueueSample>,
    /// Per-NPU failed flag (`params.fault_plan`). A failed NPU is out
    /// of the free pool until its `NpuUp` event.
    npu_failed: Vec<bool>,
    /// Next unapplied event of `params.fault_plan`.
    fault_cursor: usize,
    /// Master cycle at or past which the next (lazy, drifting) epoch
    /// tick fires; see [`Engine::rebalance_epoch`].
    next_epoch: Cycle,
    /// Next queue-depth sample boundary, a multiple of
    /// `params.queue_sample_cycles`; see [`Engine::sample_up_to`].
    next_sample: Cycle,
    /// NPU compute clock rate relative to the master clock (1.0 = full
    /// rate; a `ClockThrottle { factor }` fault sets it to `factor`).
    npu_clock_rate: f64,
    now: Cycle,
    started: bool,
}

impl Engine {
    /// Builds an engine from parameters, a policy instance and a
    /// workload scenario. Model mappings are served from `plan_cache`
    /// when one is supplied (sweeps share one across cells); results
    /// are bit-identical either way.
    pub(crate) fn with_policy(
        params: SimParams,
        mut policy: Box<dyn Policy>,
        workload: &Workload,
        plan_cache: Option<&PlanCache>,
    ) -> Result<Self, EngineError> {
        workload.validate()?;
        if params.soc.npu.cores == 0 {
            return Err(EngineError::InvalidConfig(
                "the SoC needs at least one NPU core".into(),
            ));
        }
        if params.soc.dram.channels == 0 {
            return Err(EngineError::InvalidConfig(
                "the DRAM needs at least one channel".into(),
            ));
        }
        params
            .soc
            .cache
            .validate()
            .map_err(EngineError::InvalidConfig)?;
        if let Some(plan) = &params.fault_plan {
            plan.validate_for(params.soc.npu.cores, params.soc.dram.channels)?;
        }
        if workload.models().len() >= FAULT_EVENT as usize {
            return Err(EngineError::InvalidConfig(
                "task count collides with the fault-event sentinel id".into(),
            ));
        }
        // A closed-loop run whose rounds never exceed the warm-up would
        // return all-zero statistics with no hint anything is wrong.
        if let Some(rounds) = workload.rounds_hint() {
            let closed = matches!(workload.arrival(), crate::ArrivalProcess::Closed { .. });
            if closed && rounds <= params.warmup_rounds {
                return Err(EngineError::InvalidConfig(format!(
                    "warmup_rounds ({}) leaves no measured rounds for a {}-round closed workload",
                    params.warmup_rounds, rounds
                )));
            }
        }
        let task_models = workload.models();
        let caps = policy.capabilities();
        let label = policy.label().to_string();

        let cache_cfg = params.soc.cache;
        let mut cache = SharedCache::new(&cache_cfg);
        let mut dram = DramModel::new(params.soc.dram, cache_cfg.line_bytes);
        cache.set_reference_model(params.reference_model);
        dram.set_reference_model(params.reference_model);
        let nec = Nec::new(&cache_cfg);
        if caps.partitions_cache {
            cache.partition_ways(cache_cfg.npu_ways, 0, &mut dram);
        }
        let alloc = PageAllocator::new(nec.first_pcpn(), nec.npu_pages());

        // Distinct models are mapped once and shared (and, under a
        // sweep's plan cache, once per *grid* rather than per cell).
        let mut models: Vec<Model> = Vec::new();
        let mut mappings: Vec<Arc<ModelMapping>> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        let mut tasks = Vec::with_capacity(task_models.len());
        for (tid, m) in task_models.iter().enumerate() {
            let midx = *index.entry(m.name.clone()).or_insert_with(|| {
                models.push(m.clone());
                mappings.push(match plan_cache {
                    Some(cache) => cache.map_model(m, &params.mapper),
                    None => Arc::new(map_model(m, &params.mapper)),
                });
                models.len() - 1
            });
            tasks.push(Task::new(tid as u32, midx, TaskLayout::new(tid as u32, m)));
        }
        // Policies that never partition the cache route every transfer
        // through the transparent path, whose 16-bit tag lanes address
        // a bounded span of lines: reject a layout that reaches past it
        // here rather than panic at its first access mid-run.
        if !caps.partitions_cache {
            let end = tasks.iter().map(|t| t.layout.end().0).max().unwrap_or(0);
            let last_line = end.saturating_sub(1) / cache_cfg.line_bytes;
            if last_line >= cache.addressable_lines() {
                const MIB: u64 = 1 << 20;
                let size = if cache_cfg.total_bytes.is_multiple_of(MIB) {
                    format!("{} MiB", cache_cfg.total_bytes / MIB)
                } else {
                    format!("{} KiB", cache_cfg.total_bytes >> 10)
                };
                return Err(EngineError::InvalidConfig(format!(
                    "{} tenants under {label} reach cache line {last_line}, past the {} \
                     lines the 16-bit tag lanes of a {size} transparent cache address; \
                     use fewer tenants or a larger cache",
                    tasks.len(),
                    cache.addressable_lines()
                )));
            }
        }
        let iso_est = mappings
            .iter()
            .map(|mm| mm.baseline.iter().map(|c| c.est_cycles).sum())
            .collect();

        let n = task_models.len();
        policy.partition(&PartitionCtx {
            num_tasks: n,
            npu_pages: nec.npu_pages(),
            npu_cores: params.soc.npu.cores,
            qos: params.qos_scale.is_some(),
        });

        // Arrival schedules are drawn in task order so the run is a
        // deterministic function of (workload, seed).
        let mut rng = SimRng::new(params.seed);
        let mut arrivals = Vec::with_capacity(n);
        let mut rounds_target = Vec::with_capacity(n);
        // Only Closed re-issues immediately; Poisson and Bursty tasks
        // honor their drawn arrival times.
        let closed_loop = matches!(workload.arrival(), crate::ArrivalProcess::Closed { .. });
        for tid in 0..n {
            let sched = workload.draw_arrivals(tid, &mut rng);
            rounds_target.push(if closed_loop {
                workload
                    .rounds_hint()
                    // camdn-lint: allow(panic-in-lib, reason = "closed_loop is true only for workloads built with a fixed round count, so rounds_hint is Some")
                    .expect("closed-loop workloads carry a fixed round count")
            } else {
                sched.len() as u32
            });
            arrivals.push(sched);
        }

        let cpt_entries = (cache_cfg.total_bytes / cache_cfg.page_bytes) as u32;
        Ok(Engine {
            caps,
            label,
            policy,
            rng,
            arrivals,
            rounds_target,
            closed_loop,
            npus_free: vec![true; params.soc.npu.cores as usize],
            free_npus: params.soc.npu.cores as usize,
            scratch_ids: Vec::with_capacity(params.soc.npu.cores as usize),
            slots_scratch: Vec::with_capacity(task_models.len()),
            npu_cores: (0..params.soc.npu.cores)
                .map(|i| NpuCore::new(i, params.soc.npu, cpt_entries, cache_cfg.page_bytes))
                .collect(),
            events: Scheduler::new(),
            npu_waiters: Vec::new(),
            page_waiters: Vec::new(),
            queue_samples: Vec::new(),
            npu_failed: vec![false; params.soc.npu.cores as usize],
            fault_cursor: 0,
            next_epoch: params.epoch_cycles,
            next_sample: params.queue_sample_cycles.unwrap_or(0),
            npu_clock_rate: 1.0,
            now: 0,
            started: false,
            params,
            models,
            mappings,
            tasks,
            dram,
            cache,
            nec,
            alloc,
            iso_est,
        })
    }

    /// Overrides Algorithm 1's look-ahead fraction (paper default 0.2)
    /// on policies that carry the knob; used by the ablation harness.
    pub fn set_lookahead(&mut self, factor: f64) {
        self.policy.set_lookahead(factor);
    }

    fn shares_active(&self) -> bool {
        self.params.qos_scale.is_some() && self.caps.reallocates_shares
    }

    fn groups_active(&self) -> bool {
        self.params.qos_scale.is_some() && self.caps.npu_groups
    }

    fn deadline_cycles(&self, model_idx: usize) -> Option<Cycle> {
        self.params
            .qos_scale
            .map(|s| ms_to_cycles(self.models[model_idx].qos_ms * s))
    }

    /// Arrival cycle of the task's next inference, or `None` when no
    /// arrival gates it (all rounds issued, or a closed-loop task —
    /// those re-issue immediately).
    fn next_arrival(&self, tid: u32) -> Option<Cycle> {
        if self.closed_loop {
            return None;
        }
        let t = &self.tasks[tid as usize];
        if t.rounds_done >= self.rounds_target[tid as usize] {
            return None;
        }
        self.arrivals[tid as usize]
            .get(t.rounds_done as usize)
            .copied()
    }

    /// Runs the simulation to completion and aggregates the results.
    ///
    /// The run primes the master heap — fault events first (plan
    /// order), then one arrival per task in task order; insertion
    /// order is part of the determinism contract — and then runs the
    /// advance loop until the heap drains or a budget trips. The golden
    /// corpus in `crates/camdn/tests/golden/run_outputs.txt` pins the
    /// outcome.
    pub fn run(&mut self) -> Result<RunOutput, EngineError> {
        if self.started {
            return Err(EngineError::InvalidConfig(
                "engine already ran; build a fresh Simulation".into(),
            ));
        }
        self.started = true;
        // Fault events go in before any arrival so the FIFO tie-break
        // applies a same-cycle fault before task work at that cycle.
        let fault_ats: Vec<Cycle> = self
            .params
            .fault_plan
            .as_ref()
            .map(|p| p.events().iter().map(|e| e.at).collect())
            .unwrap_or_default();
        for at in fault_ats {
            self.events.push(at, FAULT_EVENT);
        }
        // Closed loop: a small jitter staggers the first dispatch so
        // tasks do not execute in lock-step. Open loop: the request
        // schedule drives everything.
        for tid in 0..self.tasks.len() as u32 {
            match self.arrivals[tid as usize].first() {
                Some(&t0) => self.events.push(t0, tid),
                None => {
                    // An open-loop task may draw zero arrivals: it is
                    // done before it starts, and the policy hears about
                    // it like any other completion.
                    self.tasks[tid as usize].state = TaskState::Done;
                    self.policy.on_task_done(tid);
                }
            }
        }
        self.advance()
    }

    /// The advance loop. Every popped master-heap event goes through a
    /// fixed, documented sequence: the cycle budget guard, the sampler
    /// drains its fixed-period clock up to the event, a fault-sentinel
    /// event applies the next fault, the lazy epoch clock fires if its
    /// boundary was reached, and finally the task state machine steps.
    /// See `docs/ENGINE.md` for the architecture.
    fn advance(&mut self) -> Result<RunOutput, EngineError> {
        while let Some((now, tid)) = self.events.pop() {
            // The cycle budget trips on the first event *past* the limit
            // (deterministic) and surfaces the work done so far as a
            // partial.
            if let Some(max) = self.params.max_sim_cycles {
                if now > max {
                    return Err(EngineError::BudgetExceeded {
                        budget: BudgetKind::SimCycles,
                        at_cycle: now,
                        partial: Box::new(self.aggregate()),
                    });
                }
            }
            self.sample_up_to(now);
            self.now = now.max(self.now);
            if tid == FAULT_EVENT {
                self.apply_next_fault(now)?;
                continue;
            }
            // The epoch is a lazy clock that piggybacks on task events
            // (an idle stretch produces no empty epoch ticks).
            if self.now >= self.next_epoch {
                self.rebalance_epoch();
            }
            self.step(tid, now)?;
        }
        Ok(self.aggregate())
    }

    /// Drains the queue-depth sampler up to `now`: one sample at every
    /// multiple of `params.queue_sample_cycles` at or before `now`, in
    /// order (several boundaries may pass between two events). Unlike
    /// the epoch this clock does not drift, and since state only changes
    /// at events, sampling just before the first event at or past a
    /// boundary observes the state *at* it. A no-op when sampling is off.
    fn sample_up_to(&mut self, now: Cycle) {
        let Some(every) = self.params.queue_sample_cycles else {
            return;
        };
        while self.next_sample <= now {
            self.sample_queue_depth(self.next_sample);
            self.next_sample += every;
        }
    }

    /// Records one queue-depth sample: requests arrived by `at` but
    /// not yet retired, summed over all tasks. A closed-loop task's
    /// whole round budget "arrives" with its single dispatch jitter.
    fn sample_queue_depth(&mut self, at: Cycle) {
        let mut outstanding = 0u32;
        for (tid, sched) in self.arrivals.iter().enumerate() {
            let arrived = if self.closed_loop {
                match sched.first() {
                    Some(&t0) if t0 <= at => self.rounds_target[tid],
                    _ => 0,
                }
            } else {
                sched.partition_point(|&a| a <= at) as u32
            };
            outstanding += arrived.saturating_sub(self.tasks[tid].rounds_done);
        }
        self.queue_samples.push(QueueSample {
            cycle: at,
            outstanding,
        });
    }

    // ---------------------------------------------------------------
    // Scheduling epochs (policies with `reallocates_shares`)
    // ---------------------------------------------------------------

    /// The epoch tick: re-arm the boundary one epoch past the event
    /// that fired it (so the boundary drifts with activity), run the
    /// cache's epoch hook, and let a share-reallocating policy
    /// redistribute bandwidth and NPU quota.
    fn rebalance_epoch(&mut self) {
        self.next_epoch = self.now + self.params.epoch_cycles;
        // The cache's epoch hook is a debug-build invariant sweep over
        // its tag planes (free in release); it never changes results.
        self.cache.on_epoch();
        if !self.shares_active() {
            return;
        }
        let mut slots = std::mem::take(&mut self.slots_scratch);
        slots.clear();
        for t in &self.tasks {
            // An open-loop task sitting between arrivals is not
            // competing for resources: it must not soak up bandwidth
            // or NPU quota from the tasks actually executing.
            let idle_between_arrivals = t.state == TaskState::WaitingNpu
                && self.next_arrival(t.id).is_some_and(|a| a > self.now);
            slots.push(EpochSlot {
                active: t.state != TaskState::Done && !idle_between_arrivals,
                deadline_cycles: self.deadline_cycles(t.model_idx).unwrap_or(1),
                total_layers: self.models[t.model_idx].layers.len(),
                cur_layer: t.cur_layer,
                inference_start: t.inference_start,
                iso_est_cycles: self.iso_est[t.model_idx],
                bw_share: t.bw_share,
                npu_quota: t.npu_quota,
            });
        }
        self.policy
            .on_epoch(self.now, self.npus_free.len(), &mut slots);
        for (t, s) in self.tasks.iter_mut().zip(&slots) {
            if t.state != TaskState::Done {
                t.bw_share = s.bw_share;
                t.npu_quota = s.npu_quota;
            }
        }
        self.slots_scratch = slots;
    }

    // ---------------------------------------------------------------
    // Fault injection (`params.fault_plan`)
    // ---------------------------------------------------------------

    /// Applies the next unapplied event of the fault plan, then gives
    /// the policy its topology-change hook with the surviving capacity.
    fn apply_next_fault(&mut self, now: Cycle) -> Result<(), EngineError> {
        let kind = match &self.params.fault_plan {
            Some(p) => p.events()[self.fault_cursor].kind,
            // Defensive: a sentinel without a plan is a stale event.
            None => return Ok(()),
        };
        self.fault_cursor += 1;
        match kind {
            FaultKind::NpuDown(n) => self.fail_npu(n as usize, now)?,
            FaultKind::NpuUp(n) => self.restore_npu(n as usize, now),
            FaultKind::DramChannelDown(c) => self
                .dram
                .set_channel_bandwidth_scale(c as usize, CHANNEL_DOWN_SCALE),
            FaultKind::DramChannelUp(c) => self.dram.set_channel_bandwidth_scale(c as usize, 1.0),
            FaultKind::DramDegrade { channel, factor } => self
                .dram
                .set_channel_bandwidth_scale(channel as usize, factor),
            // DVFS: the throttle factor becomes the NPU clock's rate
            // against the master clock, and every subsequent compute
            // charge is converted through it.
            FaultKind::ClockThrottle { factor } => self.npu_clock_rate = factor,
        }
        let surviving = self.npu_failed.iter().filter(|f| !**f).count() as u32;
        let ctx = PartitionCtx {
            num_tasks: self.tasks.len(),
            npu_pages: self.nec.npu_pages(),
            // All NPUs down still hands the policy a sane divisor; no
            // work dispatches until an `NpuUp` regardless.
            npu_cores: surviving.max(1),
            qos: self.params.qos_scale.is_some(),
        };
        self.policy.on_topology_change(now, &ctx);
        Ok(())
    }

    /// Takes NPU `n` out of service: out of the free pool if idle,
    /// otherwise the inference holding it is killed and re-queued.
    fn fail_npu(&mut self, n: usize, now: Cycle) -> Result<(), EngineError> {
        if self.npu_failed[n] {
            return Ok(());
        }
        self.npu_failed[n] = true;
        if self.npus_free[n] {
            self.npus_free[n] = false;
            self.free_npus -= 1;
            return Ok(());
        }
        match self.tasks.iter().position(|t| t.npus.contains(&n)) {
            Some(tid) => self.kill_inference(tid as u32, now),
            // Held by no one and not free: already failed under a
            // racing event — nothing to do.
            None => Ok(()),
        }
    }

    /// Returns NPU `n` to service and wakes the dispatch queue.
    fn restore_npu(&mut self, n: usize, now: Cycle) {
        if !self.npu_failed[n] {
            return;
        }
        self.npu_failed[n] = false;
        self.npus_free[n] = true;
        self.free_npus += 1;
        let Engine {
            events,
            npu_waiters,
            ..
        } = self;
        for &w in npu_waiters.iter() {
            events.push(now, w);
        }
        npu_waiters.clear();
    }

    /// Kills the in-flight inference of `tid` after an NPU failure:
    /// tears down its cache grants, releases its surviving NPUs, and
    /// either re-queues the inference (bounded retries, exponential
    /// back-off in simulated time) or drops it past the retry budget.
    fn kill_inference(&mut self, tid: u32, now: Cycle) -> Result<(), EngineError> {
        let cur_layer = self.tasks[tid as usize].cur_layer;
        let primary = self.tasks[tid as usize].npus[0];
        self.tasks[tid as usize].plan = None;
        // Mirror finish_layer's teardown: LWM and LBM grants both go
        // back (a retry restarts the inference from layer 0).
        let mut released = false;
        if let Some(grant) = self.tasks[tid as usize].lwm_grant.take() {
            teardown_region(
                &grant,
                &mut self.alloc,
                &mut self.nec,
                &mut self.npu_cores[primary],
            )
            .map_err(Self::region_err(tid, cur_layer))?;
            released = true;
        }
        if let Some(grant) = self.tasks[tid as usize].lbm_grant.take() {
            teardown_region(
                &grant,
                &mut self.alloc,
                &mut self.nec,
                &mut self.npu_cores[primary],
            )
            .map_err(Self::region_err(tid, cur_layer))?;
            released = true;
        }
        self.tasks[tid as usize].lbm_block = None;
        self.tasks[tid as usize].cur_is_lbm = false;
        if released {
            self.wake_page_waiters(now);
        }
        // Surviving NPUs of the group go back to the pool; the failed
        // one stays out until its `NpuUp`.
        let mut freed = 0;
        for i in 0..self.tasks[tid as usize].npus.len() {
            let n = self.tasks[tid as usize].npus[i];
            if !self.npu_failed[n] {
                self.npus_free[n] = true;
                freed += 1;
            }
        }
        self.free_npus += freed;
        self.tasks[tid as usize].npus.clear();
        if freed > 0 {
            let Engine {
                events,
                npu_waiters,
                ..
            } = self;
            for &w in npu_waiters.iter() {
                events.push(now, w);
            }
            npu_waiters.clear();
        }
        self.page_waiters.retain(|&w| w != tid);
        let t = &mut self.tasks[tid as usize];
        t.attempt += 1;
        if t.attempt > MAX_INFERENCE_RETRIES {
            t.dropped += 1;
            t.attempt = 0;
            self.retire_without_record(tid, now);
        } else {
            t.retried += 1;
            // k-th retry backs off 50k << (k-1) simulated cycles.
            t.retry_at = now + (RETRY_BACKOFF_CYCLES << (t.attempt - 1));
            t.state = TaskState::WaitingNpu;
            let at = t.retry_at;
            self.events.push(at, tid);
        }
        Ok(())
    }

    /// Advances a task past an inference that retired without a record
    /// (dropped past the retry budget, or shed at admission): schedule
    /// the next round or finish the task.
    fn retire_without_record(&mut self, tid: u32, now: Cycle) {
        let t = &mut self.tasks[tid as usize];
        t.rounds_done += 1;
        if t.rounds_done < self.rounds_target[tid as usize] {
            t.state = TaskState::WaitingNpu;
            let at = if self.closed_loop {
                now
            } else {
                self.arrivals[tid as usize][t.rounds_done as usize].max(now)
            };
            self.events.push(at, tid);
        } else {
            t.state = TaskState::Done;
            self.policy.on_task_done(tid);
        }
    }

    // ---------------------------------------------------------------
    // Task state machine
    // ---------------------------------------------------------------

    fn step(&mut self, tid: u32, now: Cycle) -> Result<(), EngineError> {
        // `TaskState` is `Copy`: matching by value costs nothing.
        match self.tasks[tid as usize].state {
            TaskState::WaitingNpu => {
                // Stale wake (a page-release or timeout event from an
                // earlier wait): the next inference has not arrived
                // yet — its own arrival event will dispatch it.
                if self.next_arrival(tid).is_some_and(|a| now < a) {
                    return Ok(());
                }
                // Fault-retry back-off: the killed inference may not
                // re-dispatch before its retry event (always 0 — never
                // taken — without a fault plan).
                if now < self.tasks[tid as usize].retry_at {
                    return Ok(());
                }
                self.try_dispatch(tid, now)
            }
            TaskState::WaitingPages { decision } => self.try_begin_layer(tid, now, Some(decision)),
            TaskState::Running { phase_idx } => {
                // Stale wake (page-release or timeout event from an
                // earlier wait): the phase is not actually done yet.
                if now < self.tasks[tid as usize].phase_end {
                    return Ok(());
                }
                // The wake marks the end of phase `phase_idx`'s memory
                // (double buffering: its compute overlaps the next
                // phase's transfers).
                let n_phases = {
                    let t = &self.tasks[tid as usize];
                    t.plan.as_ref().map(|p| p.phases.len()).unwrap_or(0)
                };
                {
                    let t = &mut self.tasks[tid as usize];
                    if phase_idx < n_phases {
                        let plan = t.plan.as_ref().ok_or(EngineError::MissingPlan {
                            task: tid,
                            layer: t.cur_layer,
                        })?;
                        let c = plan.phases[phase_idx].compute_cycles;
                        // Local compute cycles become master cycles
                        // at the NPU clock rate; the fault-free full
                        // rate is IEEE-exact, so results without a
                        // plan are untouched bit for bit.
                        let adj = compute_master_cycles(c, t.group, self.npu_clock_rate);
                        t.compute_horizon = t.compute_horizon.max(now) + adj;
                    }
                }
                if phase_idx + 1 < n_phases {
                    self.exec_phase(tid, now, phase_idx + 1)
                } else {
                    // All memory done; drain the PE pipeline then retire.
                    let drain = self.tasks[tid as usize].compute_horizon.max(now);
                    if drain > now {
                        let t = &mut self.tasks[tid as usize];
                        t.state = TaskState::Running {
                            phase_idx: n_phases,
                        };
                        t.phase_end = drain;
                        self.events.push(drain, tid);
                        Ok(())
                    } else {
                        self.finish_layer(tid, now)
                    }
                }
            }
            TaskState::Done => Ok(()),
        }
    }

    fn free_npu_count(&self) -> usize {
        debug_assert_eq!(
            self.free_npus,
            self.npus_free.iter().filter(|f| **f).count(),
            "free-NPU counter out of sync"
        );
        self.free_npus
    }

    fn try_dispatch(&mut self, tid: u32, now: Cycle) -> Result<(), EngineError> {
        // Deadline-aware admission: when even the isolated estimate —
        // a lower bound no amount of scheduling beats — can no longer
        // land the queued request inside its deadline, shed it instead
        // of burning capacity on a guaranteed miss. Open-loop QoS only:
        // closed-loop rounds have no arrival, so nothing ever queues
        // long enough to be doomed at dispatch.
        if self.params.admission_control && !self.closed_loop {
            let model_idx = self.tasks[tid as usize].model_idx;
            if let Some(deadline) = self.deadline_cycles(model_idx) {
                let arrived = self.next_arrival(tid).map_or(now, |a| a.min(now));
                if now + self.iso_est[model_idx] > arrived + deadline {
                    self.tasks[tid as usize].shed += 1;
                    self.retire_without_record(tid, now);
                    return Ok(());
                }
            }
        }
        let want = if self.groups_active() {
            self.tasks[tid as usize].npu_quota.max(1)
        } else {
            1
        };
        let free = self.free_npu_count();
        if free == 0 {
            if !self.npu_waiters.contains(&tid) {
                self.npu_waiters.push(tid);
            }
            return Ok(());
        }
        let take = (want as usize).min(free);
        // Open-loop latency is response time: it starts at the request
        // arrival, so queueing behind busy NPUs (or earlier requests of
        // the same task) is charged. Closed-loop rounds have no arrival
        // — they start at dispatch, as in the original engine.
        let started = self.next_arrival(tid).map_or(now, |a| a.min(now));
        // "Randomly dispatch each model task to one NPU": pick the
        // primary NPU at random among the free ones (scratch buffer —
        // no allocation per dispatch).
        let mut free_ids = std::mem::take(&mut self.scratch_ids);
        free_ids.clear();
        free_ids.extend((0..self.npus_free.len()).filter(|&i| self.npus_free[i]));
        self.rng.shuffle(&mut free_ids);
        free_ids.truncate(take);
        for &n in &free_ids {
            self.npus_free[n] = false;
        }
        self.free_npus -= take;
        let t = &mut self.tasks[tid as usize];
        t.npus.clear();
        t.npus.extend_from_slice(&free_ids);
        self.scratch_ids = free_ids;
        let t = &mut self.tasks[tid as usize];
        t.group = take as u32;
        t.cur_layer = 0;
        t.inference_start = started;
        t.inference_dram = 0;
        self.try_begin_layer(tid, now, None)
    }

    fn plan_sizes(&self, tid: u32) -> PlanSizes {
        let t = &self.tasks[tid as usize];
        let layer = &self.models[t.model_idx].layers[t.cur_layer];
        PlanSizes {
            weight: layer.weight_operand_bytes(),
            input: layer.input_bytes(),
            output: layer.output_bytes(),
            bias: match layer.weight_class {
                WeightClass::Static => layer.nest.bias_bytes(),
                _ => 0,
            },
        }
    }

    /// Begins the current layer of `tid`: candidate selection, page
    /// acquisition (with the policy's timeout/degrade protocol) and
    /// plan lowering.
    ///
    /// Candidates and candidate tables are matched by reference —
    /// per-layer work never clones the mapping structures.
    fn try_begin_layer(
        &mut self,
        tid: u32,
        now: Cycle,
        pending: Option<Decision>,
    ) -> Result<(), EngineError> {
        let (model_idx, cur_layer) = {
            let t = &self.tasks[tid as usize];
            (t.model_idx, t.cur_layer)
        };
        let sizes = self.plan_sizes(tid);
        let selection = match pending {
            Some(d) => Selection::Camdn(d),
            None => {
                let mct = &self.mappings[model_idx].mcts[cur_layer];
                let lbm_active = self.tasks[tid as usize].lbm_block == Some(mct.block.id);
                let idle = self.alloc.idle_pages();
                self.policy
                    .select_candidate(now, tid, mct, lbm_active, idle)
            }
        };
        let mut decision = match selection {
            Selection::Transparent => {
                // Cache-unaware candidate, transparent lowering.
                let cand = &self.mappings[model_idx].baseline[cur_layer];
                let plan = lower(cand, sizes, LowerMode::Transparent);
                return self.start_plan(tid, now, plan, false);
            }
            Selection::Camdn(d) => d,
        };

        // Disjoint field borrows: the candidate table is read while the
        // allocator/NEC/policy mutate.
        let (plan, is_lbm) = {
            let Engine {
                tasks,
                mappings,
                policy,
                alloc,
                nec,
                npu_cores,
                events,
                page_waiters,
                ..
            } = self;
            let mct = &mappings[model_idx].mcts[cur_layer];
            loop {
                let is_lbm = decision.candidate == CandidateRef::Lbm;
                let cand = resolve_candidate(mct, &decision).ok_or(EngineError::BadDecision {
                    task: tid,
                    layer: cur_layer,
                })?;
                // LBM layers past the head reuse the block grant: no pages.
                let needs_pages = decision.pneed > 0;
                // Set when this layer installs (or zero-page-enables) the
                // block's LBM region — the policy may track it.
                let mut lbm_enabled_block = None;
                if needs_pages {
                    let primary = tasks[tid as usize].npus[0];
                    match install_region(tid, cand, alloc, nec, &mut npu_cores[primary]) {
                        Ok(grant) => {
                            let t = &mut tasks[tid as usize];
                            if is_lbm {
                                t.lbm_grant = Some(grant);
                                t.lbm_block = Some(mct.block.id);
                                lbm_enabled_block = Some(mct.block.id);
                            } else {
                                t.lwm_grant = Some(grant);
                            }
                        }
                        Err(RegionError::Alloc(_)) => {
                            match policy.on_alloc_failure(now, tid, mct, &decision) {
                                AllocFailure::Degrade(d) => {
                                    decision = d;
                                    continue;
                                }
                                AllocFailure::Wait => {
                                    let t = &mut tasks[tid as usize];
                                    t.state = TaskState::WaitingPages { decision };
                                    if let Some(dl) = decision.timeout {
                                        events.push(dl, tid);
                                    }
                                    if !page_waiters.contains(&tid) {
                                        page_waiters.push(tid);
                                    }
                                    return Ok(());
                                }
                            }
                        }
                        Err(e) => {
                            return Err(EngineError::Region {
                                task: tid,
                                layer: cur_layer,
                                detail: e.to_string(),
                            })
                        }
                    }
                } else if is_lbm && mct.block.is_head {
                    // Head with zero-page LBM (empty block) — treat as enable.
                    tasks[tid as usize].lbm_block = Some(mct.block.id);
                    lbm_enabled_block = Some(mct.block.id);
                }
                page_waiters.retain(|&w| w != tid);
                // Install book-keeping (e.g. Algorithm 1's predAvailPages:
                // when this task will reallocate next, how much it needs).
                let next_pneed = mappings[model_idx]
                    .mcts
                    .get(cur_layer + 1)
                    .map(|m| m.lwm[m.lwm.len() / 2].pneed)
                    .unwrap_or(0);
                let ev = InstallEvent {
                    lbm_block: lbm_enabled_block,
                    held_pages: alloc.held_by(tid),
                    est_finish: now + cand.est_cycles,
                    next_pneed,
                };
                policy.on_install(now, tid, &ev);
                break (lower(cand, sizes, LowerMode::Camdn), is_lbm);
            }
        };
        self.start_plan(tid, now, plan, is_lbm)
    }

    fn start_plan(
        &mut self,
        tid: u32,
        now: Cycle,
        plan: LayerPlan,
        is_lbm: bool,
    ) -> Result<(), EngineError> {
        let t = &mut self.tasks[tid as usize];
        t.plan = Some(plan);
        t.cur_is_lbm = is_lbm;
        self.exec_phase(tid, now, 0)
    }

    // ---------------------------------------------------------------
    // Phase execution: the memory system interaction
    // ---------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn exec_phase(&mut self, tid: u32, now: Cycle, idx: usize) -> Result<(), EngineError> {
        let throttled = self.shares_active();
        let peak_bw = self.params.soc.dram.bytes_per_cycle;
        let line = self.params.soc.cache.line_bytes;
        let full_mask = self.cache.full_way_mask();
        let dram_before = self.dram.stats().total_bytes();

        // Disjoint field borrows: the task's plan/layout/grants are read
        // in place while cache/DRAM/NEC advance — the per-event clones of
        // the phase, layout and grant-page vectors are gone.
        let Engine {
            tasks,
            models,
            cache,
            dram,
            nec,
            ..
        } = self;
        let t = &tasks[tid as usize];
        let model_idx = t.model_idx;
        let cur_layer = t.cur_layer;
        let group = t.group;
        let layer = &models[model_idx].layers[cur_layer];
        let weight_is_act = layer.weight_class == WeightClass::Activation;
        let weight_is_static = layer.weight_class == WeightClass::Static;
        let input_bytes = layer.input_bytes();
        let plan = t.plan.as_ref().ok_or(EngineError::MissingPlan {
            task: tid,
            layer: cur_layer,
        })?;
        let phase = &plan.phases[idx];
        let layout = &t.layout;
        let bw_share = t.bw_share;
        let mut bw_gate = t.bw_gate;
        // Pages backing this layer's cached regions: the block grant when
        // the layer runs its LBM candidate, its own LWM grant otherwise.
        let region_pages: &[u32] = if t.cur_is_lbm {
            t.lbm_grant.as_ref().map(|g| g.pages.as_slice())
        } else {
            t.lwm_grant.as_ref().map(|g| g.pages.as_slice())
        }
        .unwrap_or(&[]);

        let cache_err = |op: &'static str| {
            move |e: camdn_cache::NecError| EngineError::Cache {
                task: tid,
                op,
                detail: e.to_string(),
            }
        };

        let mut mem_finish = now;
        for tr in &phase.transfers {
            let lines = tr.bytes.div_ceil(line);
            let addr = layout.addr_of(cur_layer, tr.tensor, weight_is_act, input_bytes, tr.offset);
            // Bandwidth regulation: DRAM-touching transfers may not start
            // before the task's bandwidth gate.
            let start = if throttled && tr.route.touches_dram() {
                now.max(bw_gate)
            } else {
                now
            };
            let multicast = group > 1 && tr.tensor == TensorKind::Weight && weight_is_static;
            let done = match tr.route {
                Route::Transparent => {
                    // A multi-NPU group fetches its weights once; the
                    // replicas hit the lines the first walk brought in
                    // and are charged in closed form (no re-walk).
                    let reps = if multicast { group } else { 1 };
                    cache
                        .access_range_multicast(
                            start, addr, tr.bytes, tr.write, full_mask, dram, reps,
                        )
                        .finish
                        .max(start)
                }
                Route::BypassRead => {
                    if multicast {
                        nec.multicast_bypass_read(start, addr, lines, group, dram, 0)
                    } else {
                        nec.bypass_read(start, addr, lines, dram, 0)
                    }
                }
                Route::BypassWrite => nec.bypass_write(start, addr, lines, dram, 0),
                Route::Fill => nec
                    .fill(start, tid, region_pages, addr, lines, dram, 0)
                    .map_err(cache_err("fill"))?,
                Route::CacheRead => {
                    if multicast {
                        nec.multicast_read(start, tid, region_pages, lines, group)
                            .map_err(cache_err("multicast read"))?
                    } else {
                        nec.read(start, tid, region_pages, lines)
                            .map_err(cache_err("read"))?
                    }
                }
                Route::CacheWrite => nec
                    .write(start, tid, region_pages, lines)
                    .map_err(cache_err("write"))?,
                Route::Writeback => nec
                    .writeback(start, tid, region_pages, addr, lines, dram, 0)
                    .map_err(cache_err("writeback"))?,
            };
            mem_finish = mem_finish.max(done);
            if throttled && tr.route.touches_dram() {
                bw_gate = start + (tr.bytes as f64 / (bw_share * peak_bw)).ceil() as Cycle;
            }
        }

        // The wake fires when this phase's memory lands; its compute is
        // charged then, overlapping the next phase's transfers (double
        // buffering).
        let end = mem_finish.max(now + 1);
        let dram_delta = dram.stats().total_bytes() - dram_before;
        let t = &mut self.tasks[tid as usize];
        t.inference_dram += dram_delta;
        t.bw_gate = bw_gate;
        t.state = TaskState::Running { phase_idx: idx };
        t.phase_end = end;
        self.events.push(end, tid);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Layer / inference retirement
    // ---------------------------------------------------------------

    /// Wakes page waiters after a release — but only those whose pending
    /// decision can now be satisfied. Waking every waiter on every
    /// release scheduled a spurious retry event per waiter per release
    /// (each of which re-ran candidate resolution just to fail again).
    fn wake_page_waiters(&mut self, now: Cycle) {
        let idle = self.alloc.idle_pages();
        let Engine {
            tasks,
            events,
            page_waiters,
            ..
        } = self;
        for &w in page_waiters.iter() {
            let satisfiable = match tasks[w as usize].state {
                TaskState::WaitingPages { decision } => decision.pneed <= idle,
                // Stale entry (task moved on): wake it so the stale
                // guard in `step` clears the event harmlessly.
                _ => true,
            };
            if satisfiable {
                events.push(now, w);
            }
        }
    }

    fn region_err(tid: u32, layer: usize) -> impl Fn(RegionError) -> EngineError {
        move |e| EngineError::Region {
            task: tid,
            layer,
            detail: e.to_string(),
        }
    }

    fn finish_layer(&mut self, tid: u32, now: Cycle) -> Result<(), EngineError> {
        let (model_idx, cur_layer) = {
            let t = &self.tasks[tid as usize];
            (t.model_idx, t.cur_layer)
        };
        let block = self.mappings[model_idx].mcts[cur_layer].block.id;
        let primary = self.tasks[tid as usize].npus[0];
        self.tasks[tid as usize].plan = None;
        let mut released = false;
        // LWM pages live for exactly one layer.
        if let Some(grant) = self.tasks[tid as usize].lwm_grant.take() {
            teardown_region(
                &grant,
                &mut self.alloc,
                &mut self.nec,
                &mut self.npu_cores[primary],
            )
            .map_err(Self::region_err(tid, cur_layer))?;
            released = true;
        }
        // LBM pages live until the block's tail layer retires.
        let t = &self.tasks[tid as usize];
        let next_block = self.mappings[model_idx]
            .mcts
            .get(cur_layer + 1)
            .map(|m| m.block.id);
        let block_ends = next_block != Some(block);
        let lbm_block_ended = t.lbm_block == Some(block) && block_ends;
        if lbm_block_ended {
            if let Some(grant) = self.tasks[tid as usize].lbm_grant.take() {
                teardown_region(
                    &grant,
                    &mut self.alloc,
                    &mut self.nec,
                    &mut self.npu_cores[primary],
                )
                .map_err(Self::region_err(tid, cur_layer))?;
                released = true;
            }
            self.tasks[tid as usize].lbm_block = None;
        }
        self.policy.on_layer_retire(now, tid, lbm_block_ended);
        if released {
            self.wake_page_waiters(now);
        }

        let t = &mut self.tasks[tid as usize];
        t.cur_layer += 1;
        if t.cur_layer < self.models[t.model_idx].layers.len() {
            self.try_begin_layer(tid, now, None)
        } else {
            self.finish_inference(tid, now);
            Ok(())
        }
    }

    fn finish_inference(&mut self, tid: u32, now: Cycle) {
        let deadline = {
            let t = &self.tasks[tid as usize];
            self.deadline_cycles(t.model_idx)
        };
        let t = &mut self.tasks[tid as usize];
        let latency = now - t.inference_start;
        t.records.push(InferenceRecord {
            latency,
            dram_bytes: t.inference_dram,
            deadline_met: deadline.map(|d| latency <= d).unwrap_or(true),
        });
        t.rounds_done += 1;
        // The retry budget is per inference: a completion resets it.
        t.attempt = 0;
        // Release the NPUs and wake queued tasks (in place: the NPU id
        // and waiter vectors are long-lived, never re-allocated).
        let released = self.tasks[tid as usize].npus.len();
        for i in 0..released {
            let n = self.tasks[tid as usize].npus[i];
            self.npus_free[n] = true;
        }
        self.free_npus += released;
        self.tasks[tid as usize].npus.clear();
        {
            let Engine {
                events,
                npu_waiters,
                ..
            } = self;
            for &w in npu_waiters.iter() {
                events.push(now, w);
            }
            npu_waiters.clear();
        }
        let t = &mut self.tasks[tid as usize];
        if t.rounds_done < self.rounds_target[tid as usize] {
            t.state = TaskState::WaitingNpu;
            // Closed loop: the next inference re-issues immediately.
            // Open loop: it starts at its arrival time (or now, when the
            // request already queued up behind a slow inference).
            let at = if self.closed_loop {
                now
            } else {
                self.arrivals[tid as usize][t.rounds_done as usize].max(now)
            };
            self.events.push(at, tid);
        } else {
            t.state = TaskState::Done;
            self.policy.on_task_done(tid);
        }
    }

    // ---------------------------------------------------------------
    // Aggregation
    // ---------------------------------------------------------------

    fn aggregate(&self) -> RunOutput {
        // Warm-up is a closed-loop concept (discard the cold leading
        // rounds of a fixed schedule). Open-loop tasks draw variable
        // request counts — skipping records there would silently zero
        // out sparse tasks' statistics.
        let skip = if self.closed_loop {
            self.params.warmup_rounds as usize
        } else {
            0
        };
        // The summary is computed from the same per-task means at every
        // detail level, so a summary-only run is bit-for-bit the
        // `summary` of a detailed run.
        let want_tasks = self.params.detail >= DetailLevel::Tasks;
        let mut hist = (self.params.detail >= DetailLevel::Full)
            .then(|| Histogram::new(&crate::result::LATENCY_HIST_EDGES));
        // The compact tail is populated at *every* detail level: it is
        // `Copy`, costs O(bins) memory, and is filled here — after the
        // event loop — so the zero-alloc hot loop is untouched.
        let mut tail = crate::result::LatencyTail::new();
        let mut tasks = Vec::with_capacity(if want_tasks { self.tasks.len() } else { 0 });
        let mut lat_sum = 0.0;
        let mut dram_sum = 0.0;
        let mut measured_tasks = 0usize;
        let mut inferences = 0usize;
        let mut sla_num = 0.0;
        let mut shed_requests = 0u64;
        let mut retried_inferences = 0u64;
        let mut dropped_inferences = 0u64;
        for t in &self.tasks {
            shed_requests += t.shed;
            retried_inferences += t.retried;
            dropped_inferences += t.dropped;
            let model = &self.models[t.model_idx];
            let mean_lat = t.mean_latency(skip);
            let mean_dram = t.mean_dram_bytes(skip);
            let measured = t.records.len().saturating_sub(skip);
            let sla = t.sla_rate(skip);
            // An open-loop task may draw no arrivals; averaging its
            // phantom 0.0 latency in would deflate the run-level means.
            if measured > 0 {
                lat_sum += mean_lat;
                dram_sum += mean_dram;
                measured_tasks += 1;
            }
            inferences += measured;
            sla_num += sla * measured as f64;
            for r in &t.records[skip.min(t.records.len())..] {
                tail.record(r.latency);
                if let Some(h) = &mut hist {
                    h.record(r.latency);
                }
            }
            if want_tasks {
                tasks.push(TaskSummary {
                    abbr: model.abbr.clone(),
                    qos_ms: model.qos_ms,
                    inferences: measured,
                    mean_latency_ms: cycles_to_ms(mean_lat as Cycle),
                    mean_dram_mb: mean_dram / 1e6,
                    sla_rate: sla,
                    shed: t.shed,
                });
            }
        }
        // Guard the division: every task may have retired nothing
        // (e.g. a workload whose rounds never exceed the warm-up).
        let n = measured_tasks.max(1) as f64;
        let cache_hit_rate = if self.caps.partitions_cache {
            let s = self.nec.stats();
            let served = s.controlled_hits();
            let moved = served
                + s.fills.get()
                + s.writebacks.get()
                + s.bypass_reads.get()
                + s.bypass_writes.get();
            if moved == 0 {
                0.0
            } else {
                served as f64 / moved as f64
            }
        } else {
            self.cache.stats().hit_rate()
        };
        let summary = RunSummary {
            tasks: self.tasks.len(),
            inferences,
            cache_hit_rate,
            avg_latency_ms: cycles_to_ms((lat_sum / n) as Cycle),
            mem_mb_per_model: dram_sum / n / 1e6,
            makespan_ms: cycles_to_ms(self.now),
            sla_rate: if inferences > 0 {
                sla_num / inferences as f64
            } else {
                1.0
            },
            multicast_saved_mb: self.nec.stats().multicast_saved_lines.get() as f64
                * self.params.soc.cache.line_bytes as f64
                / 1e6,
            latency_tail: tail,
            shed_requests,
            retried_inferences,
            dropped_inferences,
        };
        RunOutput {
            policy: self.label.clone(),
            summary,
            detail: want_tasks.then_some(RunDetail {
                tasks,
                latency_hist: hist,
                queue_depth: self.queue_samples.clone(),
            }),
        }
    }

    #[cfg(test)]
    pub(crate) fn debug_cache_state(&self) -> (u32, u32, u32) {
        (
            self.alloc.idle_pages(),
            self.alloc.total_pages(),
            self.nec.claimed_pages(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::builtin_policy;
    use crate::sim::Simulation;
    use camdn_models::zoo;

    fn quick(policy: PolicyKind, models: &[Model]) -> RunOutput {
        Simulation::builder()
            .policy(policy)
            .workload(Workload::closed(models.to_vec(), 2))
            .run()
            .expect("quick run")
    }

    /// A one-task baseline engine with the given epoch length and
    /// queue-sampling period, built but not run.
    fn tiny_engine(epoch_cycles: Cycle, queue_sample_cycles: Option<Cycle>) -> Engine {
        let params = SimParams {
            soc: SocConfig::paper_default(),
            seed: 1,
            warmup_rounds: 1,
            qos_scale: None,
            epoch_cycles,
            mapper: MapperConfig::paper_default(),
            reference_model: false,
            detail: DetailLevel::Tasks,
            queue_sample_cycles,
            fault_plan: None,
            max_sim_cycles: None,
            admission_control: false,
        };
        let workload = Workload::closed(vec![zoo::mobilenet_v2()], 2);
        let policy = builtin_policy(PolicyKind::SharedBaseline);
        Engine::with_policy(params, policy, &workload, None).unwrap()
    }

    #[test]
    fn npu_clock_full_rate_is_exact_and_throttle_stretches() {
        // Single NPU at full rate: identity, even past 32-bit counts.
        for c in [0, 1, 12_345, 1 << 40, (1 << 52) + 1] {
            assert_eq!(compute_master_cycles(c, 1, 1.0), c);
        }
        // A gang of 2 pays the 0.9 efficiency: ceil(1000 / 1.8) = 556.
        assert_eq!(compute_master_cycles(1000, 2, 1.0), 556);
        // A 0.5 throttle doubles the charge.
        assert_eq!(compute_master_cycles(1000, 1, 0.5), 2000);
    }

    #[test]
    fn sampler_drains_every_boundary_in_order() {
        let cycles = |e: &Engine| e.queue_samples.iter().map(|s| s.cycle).collect::<Vec<_>>();
        let mut e = tiny_engine(200_000, Some(10));
        e.sample_up_to(5);
        assert!(e.queue_samples.is_empty());
        // Event at 34: boundaries 10, 20, 30 are all due, in order.
        e.sample_up_to(34);
        assert_eq!(cycles(&e), vec![10, 20, 30]);
        e.sample_up_to(39);
        assert_eq!(cycles(&e), vec![10, 20, 30]);
        // A disabled sampler never fires.
        let mut off = tiny_engine(200_000, None);
        off.sample_up_to(Cycle::MAX);
        assert!(off.queue_samples.is_empty());
    }

    #[test]
    fn fault_cursor_walks_the_plan() {
        let throttle = |at, factor| crate::FaultEvent {
            at,
            kind: FaultKind::ClockThrottle { factor },
        };
        let mut e = tiny_engine(200_000, None);
        let plan = FaultPlan::new(vec![throttle(10, 0.5), throttle(20, 0.25)]).unwrap();
        e.params.fault_plan = Some(plan);
        e.apply_next_fault(10).unwrap();
        assert_eq!((e.fault_cursor, e.npu_clock_rate), (1, 0.5));
        e.apply_next_fault(20).unwrap();
        assert_eq!((e.fault_cursor, e.npu_clock_rate), (2, 0.25));
    }

    #[test]
    fn epoch_rearms_from_the_firing_event() {
        let mut e = tiny_engine(100, None);
        assert_eq!(e.next_epoch, 100);
        // The boundary drifts: it re-arms one epoch past the event that
        // fired it, not on the 100-cycle grid.
        e.now = 137;
        e.rebalance_epoch();
        assert_eq!(e.next_epoch, 237);
    }

    #[test]
    fn single_task_baseline_completes() {
        // Include the cold round: real DRAM traffic.
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(vec![zoo::mobilenet_v2()], 2))
            .warmup_rounds(0)
            .run()
            .unwrap();
        assert_eq!(r.tasks().len(), 1);
        assert_eq!(r.tasks()[0].inferences, 2);
        assert!(r.tasks()[0].mean_latency_ms > 0.0);
        assert!(r.tasks()[0].mean_dram_mb > 0.0);
        assert!(
            r.summary.cache_hit_rate > 0.0,
            "refetches must hit the big cache"
        );
    }

    #[test]
    fn lone_small_model_runs_warm_from_cache() {
        // MobileNet's 3.5 MB of weights fit a lonely 16 MiB transparent
        // cache: after the warm-up inference, DRAM traffic nearly
        // vanishes — the cross-inference reuse the motivation experiment
        // destroys with co-tenants.
        let r = quick(PolicyKind::SharedBaseline, &[zoo::mobilenet_v2()]);
        assert!(
            r.tasks()[0].mean_dram_mb < 1.0,
            "warm lone run should be almost DRAM-free, got {:.2} MB",
            r.tasks()[0].mean_dram_mb
        );
    }

    #[test]
    fn single_task_camdn_completes_and_frees_pages() {
        let workload = Workload::closed(vec![zoo::mobilenet_v2()], 2);
        let params = SimParams {
            soc: SocConfig::paper_default(),
            seed: 0xCA3D41,
            warmup_rounds: 1,
            qos_scale: None,
            epoch_cycles: 200_000,
            mapper: MapperConfig::paper_default(),
            reference_model: false,
            detail: DetailLevel::Tasks,
            queue_sample_cycles: None,
            fault_plan: None,
            max_sim_cycles: None,
            admission_control: false,
        };
        let mut engine = Engine::with_policy(
            params,
            builtin_policy(PolicyKind::CamdnFull),
            &workload,
            None,
        )
        .unwrap();
        let r = engine.run().unwrap();
        assert_eq!(r.tasks()[0].inferences, 1);
        // All cache pages must be back after the run (no leaks).
        let (idle, total, claimed) = engine.debug_cache_state();
        assert_eq!(idle, total);
        assert_eq!(claimed, 0);
    }

    #[test]
    fn camdn_moves_less_dram_than_baseline() {
        let models: Vec<Model> = vec![
            zoo::mobilenet_v2(),
            zoo::efficientnet_b0(),
            zoo::mobilenet_v2(),
            zoo::efficientnet_b0(),
        ];
        let base = quick(PolicyKind::SharedBaseline, &models);
        let camdn = quick(PolicyKind::CamdnFull, &models);
        assert!(
            camdn.summary.mem_mb_per_model < base.summary.mem_mb_per_model * 1.05,
            "CaMDN {:.1} MB vs baseline {:.1} MB",
            camdn.summary.mem_mb_per_model,
            base.summary.mem_mb_per_model
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let models = vec![zoo::mobilenet_v2(), zoo::gnmt()];
        let a = quick(PolicyKind::CamdnFull, &models);
        let b = quick(PolicyKind::CamdnFull, &models);
        assert_eq!(a, b);
    }

    #[test]
    fn hw_only_policy_completes() {
        let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
        let r = quick(PolicyKind::CamdnHwOnly, &models);
        assert!(r.tasks().iter().all(|t| t.inferences == 1));
    }

    #[test]
    fn qos_mode_tracks_deadlines() {
        let models = vec![zoo::mobilenet_v2(), zoo::mobilenet_v2()];
        let r = Simulation::builder()
            .policy(PolicyKind::Aurora)
            .workload(Workload::closed(models, 2))
            .qos_scale(1.2)
            .run()
            .unwrap();
        for t in r.tasks() {
            assert!(t.sla_rate >= 0.0 && t.sla_rate <= 1.0);
        }
        assert!(r.summary.sla_rate >= 0.0 && r.summary.sla_rate <= 1.0);
    }

    #[test]
    fn more_tenants_than_npus_queue() {
        // 3 tasks on a 2-NPU SoC must still all complete.
        let mut soc = SocConfig::paper_default();
        soc.npu.cores = 2;
        let models = vec![
            zoo::mobilenet_v2(),
            zoo::mobilenet_v2(),
            zoo::mobilenet_v2(),
        ];
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .soc(soc)
            .workload(Workload::closed(models, 2))
            .run()
            .unwrap();
        assert!(r.tasks().iter().all(|t| t.inferences == 1));
    }

    #[test]
    fn contention_slows_tasks_down() {
        let one = quick(PolicyKind::SharedBaseline, &[zoo::efficientnet_b0()]);
        let crowd: Vec<Model> = (0..16).map(|_| zoo::efficientnet_b0()).collect();
        let many = quick(PolicyKind::SharedBaseline, &crowd);
        let ef_alone = one.tasks()[0].mean_latency_ms;
        let ef_crowd = many.tasks()[0].mean_latency_ms;
        assert!(
            ef_crowd > ef_alone,
            "16 tenants ({ef_crowd:.2} ms) must be slower than 1 ({ef_alone:.2} ms)"
        );
    }

    #[test]
    fn poisson_open_loop_completes_all_arrivals() {
        let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
        let r = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::poisson(models, 0.05, 100.0))
            .warmup_rounds(0)
            .run()
            .unwrap();
        // ~5 expected arrivals per task; every drawn arrival must retire.
        assert!(r.tasks().iter().any(|t| t.inferences > 0));
        assert!(r.summary.makespan_ms >= 0.0);
    }

    #[test]
    fn zero_arrival_tasks_do_not_deflate_run_averages() {
        // One task gets all the bursts, the co-tenant's schedule is
        // empty at a tiny horizon — its phantom 0.0 latency must not
        // drag avg_latency_ms below the running task's mean.
        let models = vec![zoo::mobilenet_v2(), zoo::mobilenet_v2()];
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::poisson(models, 0.001, 10.0))
            .run()
            .unwrap();
        let measured: Vec<_> = r.tasks().iter().filter(|t| t.inferences > 0).collect();
        if measured.is_empty() {
            assert_eq!(r.summary.avg_latency_ms, 0.0);
        } else {
            let mean: f64 =
                measured.iter().map(|t| t.mean_latency_ms).sum::<f64>() / measured.len() as f64;
            // Tolerance covers the cycle-truncation in cycles_to_ms.
            assert!(
                (r.summary.avg_latency_ms - mean).abs() < 1e-5,
                "avg {:.4} != mean over measured tasks {:.4}",
                r.summary.avg_latency_ms,
                mean
            );
        }
    }

    #[test]
    fn open_loop_counts_every_arrival_despite_default_warmup() {
        // Warm-up skipping is closed-loop-only: with the builder's
        // default warmup of 1, an open-loop task's arrivals must all be
        // measured (a sparse task could otherwise report zero stats).
        let models = vec![zoo::mobilenet_v2()];
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::bursty(models, 1, 2, 0.0))
            .run()
            .unwrap();
        assert_eq!(r.tasks()[0].inferences, 2);
        assert!(r.summary.avg_latency_ms > 0.0);
    }

    #[test]
    fn open_loop_latency_includes_queueing() {
        // Three same-cycle burst requests on one task: the 2nd and 3rd
        // queue behind the 1st, so mean response time must exceed the
        // dispatch-measured closed-loop latency of identical work.
        let models = vec![zoo::mobilenet_v2()];
        let burst = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::bursty(models.clone(), 1, 3, 0.0))
            .warmup_rounds(0)
            .run()
            .unwrap();
        let closed = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(models, 3))
            .warmup_rounds(0)
            .run()
            .unwrap();
        assert!(
            burst.tasks()[0].mean_latency_ms > closed.tasks()[0].mean_latency_ms * 1.5,
            "queued burst {:.2} ms should far exceed per-dispatch {:.2} ms",
            burst.tasks()[0].mean_latency_ms,
            closed.tasks()[0].mean_latency_ms
        );
    }

    #[test]
    fn page_release_with_insufficient_pages_wakes_no_one() {
        // A waiter whose pending decision still cannot be satisfied must
        // not receive a retry event on release (the old engine woke every
        // waiter on every release).
        let workload = Workload::closed(vec![zoo::mobilenet_v2(), zoo::mobilenet_v2()], 2);
        let params = SimParams {
            soc: SocConfig::paper_default(),
            seed: 1,
            warmup_rounds: 1,
            qos_scale: None,
            epoch_cycles: 200_000,
            mapper: MapperConfig::paper_default(),
            reference_model: false,
            detail: DetailLevel::Tasks,
            queue_sample_cycles: None,
            fault_plan: None,
            max_sim_cycles: None,
            admission_control: false,
        };
        let mut engine = Engine::with_policy(
            params,
            builtin_policy(PolicyKind::CamdnFull),
            &workload,
            None,
        )
        .unwrap();
        let idle = engine.alloc.idle_pages();
        engine.tasks[1].state = TaskState::WaitingPages {
            decision: camdn_core::Decision {
                candidate: camdn_core::CandidateRef::Lwm(0),
                pneed: idle + 1, // more than the whole subspace has idle
                timeout: None,
            },
        };
        engine.page_waiters.push(1);
        let before = engine.events.len();
        engine.wake_page_waiters(100);
        assert_eq!(
            engine.events.len(),
            before,
            "insufficient release must schedule no events"
        );
        // Once the demand fits, the release wakes the waiter.
        engine.tasks[1].state = TaskState::WaitingPages {
            decision: camdn_core::Decision {
                candidate: camdn_core::CandidateRef::Lwm(0),
                pneed: idle,
                timeout: None,
            },
        };
        engine.wake_page_waiters(200);
        assert_eq!(engine.events.len(), before + 1);
    }

    #[test]
    fn multicast_group_fetch_is_single_walk() {
        // Regression for the multicast thundering herd: a QoS AuRORA run
        // (multi-NPU groups, transparent route) must be deterministic and
        // count each grouped weight fetch once through the tag array —
        // replica fetches are charged analytically, so the transparent
        // hit count exceeds the miss count (replicas all "hit").
        let models = vec![zoo::mobilenet_v2(), zoo::mobilenet_v2()];
        let run = || {
            Simulation::builder()
                .policy(PolicyKind::Aurora)
                .workload(Workload::closed(models.clone(), 2))
                .qos_scale(1.2)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "group fetches must stay deterministic");
        assert!(a.tasks().iter().all(|t| t.inferences == 1));
        assert!(a.summary.cache_hit_rate > 0.0);
    }

    #[test]
    fn reference_model_matches_batched_engine() {
        // Whole-engine differential: the per-line reference memory model
        // and the batched fast paths must produce identical results.
        let models = vec![zoo::mobilenet_v2(), zoo::gnmt()];
        let run = |reference| {
            Simulation::builder()
                .policy(PolicyKind::SharedBaseline)
                .workload(Workload::closed(models.clone(), 2))
                .reference_model(reference)
                .run()
                .unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fault_knobs_left_unset_are_bitwise_inert() {
        // An empty plan, unreachable budgets and admission control on a
        // closed-loop run must all leave results bit-for-bit identical
        // to a build that never heard of the chaos layer.
        let models = vec![zoo::mobilenet_v2(), zoo::gnmt()];
        let plain = quick(PolicyKind::CamdnFull, &models);
        let armed = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::closed(models.clone(), 2))
            .fault_plan(FaultPlan::default())
            .max_sim_cycles(Cycle::MAX)
            .admission_control(true)
            .run()
            .expect("inert knobs must not trip");
        assert_eq!(plain, armed);
    }

    #[test]
    fn npu_outage_requeues_inflight_work_and_completes() {
        let models: Vec<Model> = (0..4).map(|_| zoo::mobilenet_v2()).collect();
        // Take the whole SoC down mid-run, bring it back later: every
        // in-flight inference is killed, retried after back-off, and
        // the run still retires all rounds without panic or deadlock.
        let cores = SocConfig::paper_default().npu.cores;
        let mut events = Vec::new();
        for n in 0..cores {
            events.push(crate::FaultEvent {
                at: 200_000,
                kind: FaultKind::NpuDown(n),
            });
        }
        for n in 0..cores {
            events.push(crate::FaultEvent {
                at: 2_000_000,
                kind: FaultKind::NpuUp(n),
            });
        }
        let plan = FaultPlan::new(events).unwrap();
        let r = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::closed(models, 2))
            .fault_plan(plan)
            .run()
            .expect("outage run must complete");
        assert!(
            r.summary.retried_inferences > 0,
            "a full-SoC outage at 200k cycles must kill in-flight work"
        );
        assert_eq!(r.summary.dropped_inferences, 0, "one kill never drops");
        let total: usize = r.tasks().iter().map(|t| t.inferences).sum();
        assert_eq!(total, 4, "every non-warmup round must still retire");
        // No page leaks through the kill/teardown path: rerun through
        // the raw engine to inspect allocator state.
        let params = SimParams {
            soc: SocConfig::paper_default(),
            seed: 0xCA3D41,
            warmup_rounds: 1,
            qos_scale: None,
            epoch_cycles: 200_000,
            mapper: MapperConfig::paper_default(),
            reference_model: false,
            detail: DetailLevel::Tasks,
            queue_sample_cycles: None,
            fault_plan: Some(
                FaultPlan::new(vec![crate::FaultEvent {
                    at: 200_000,
                    kind: FaultKind::NpuDown(0),
                }])
                .unwrap(),
            ),
            max_sim_cycles: None,
            admission_control: false,
        };
        let workload = Workload::closed((0..4).map(|_| zoo::mobilenet_v2()).collect(), 2);
        let mut engine = Engine::with_policy(
            params,
            builtin_policy(PolicyKind::CamdnFull),
            &workload,
            None,
        )
        .unwrap();
        engine.run().unwrap();
        let (idle, total, claimed) = engine.debug_cache_state();
        assert_eq!(idle, total, "killed inferences must return their pages");
        assert_eq!(claimed, 0);
    }

    #[test]
    fn repeated_outages_exhaust_the_retry_budget() {
        // One NPU, hammered down/up forever: the lone task's inferences
        // keep getting killed; past the retry budget they are dropped,
        // and the run still terminates.
        let mut soc = SocConfig::paper_default();
        soc.npu.cores = 1;
        let mut events = Vec::new();
        let mut at = 50_000;
        for _ in 0..200 {
            events.push(crate::FaultEvent {
                at,
                kind: FaultKind::NpuDown(0),
            });
            events.push(crate::FaultEvent {
                at: at + 400_000,
                kind: FaultKind::NpuUp(0),
            });
            at += 800_000;
        }
        let plan = FaultPlan::new(events).unwrap();
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .soc(soc)
            .workload(Workload::closed(vec![zoo::resnet50()], 4))
            .warmup_rounds(0)
            .fault_plan(plan)
            .run()
            .expect("a hammered run must still terminate");
        assert!(r.summary.retried_inferences > 0);
        assert!(
            r.summary.dropped_inferences > 0,
            "four kills of one inference must exhaust the retry budget"
        );
        assert_eq!(
            r.tasks()[0].inferences as u64 + r.summary.dropped_inferences,
            4,
            "every round retires exactly once: a record or a drop"
        );
    }

    #[test]
    fn clock_throttle_stretches_the_run() {
        let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
        let run = |plan: Option<FaultPlan>| {
            let mut b = Simulation::builder()
                .policy(PolicyKind::SharedBaseline)
                .workload(Workload::closed(models.clone(), 2))
                .warmup_rounds(0);
            if let Some(p) = plan {
                b = b.fault_plan(p);
            }
            b.run().unwrap()
        };
        let healthy = run(None);
        let throttled = run(Some(
            FaultPlan::new(vec![crate::FaultEvent {
                at: 0,
                kind: FaultKind::ClockThrottle { factor: 0.5 },
            }])
            .unwrap(),
        ));
        assert!(
            throttled.summary.makespan_ms > healthy.summary.makespan_ms,
            "half clock ({:.2} ms) must be slower than full ({:.2} ms)",
            throttled.summary.makespan_ms,
            healthy.summary.makespan_ms
        );
    }

    #[test]
    fn dram_channel_outage_stretches_the_run() {
        let models = vec![zoo::resnet50(), zoo::resnet50()];
        let run = |events: Vec<crate::FaultEvent>| {
            Simulation::builder()
                .policy(PolicyKind::SharedBaseline)
                .workload(Workload::closed(models.clone(), 2))
                .warmup_rounds(0)
                .fault_plan(FaultPlan::new(events).unwrap())
                .run()
                .unwrap()
        };
        let healthy = run(vec![]);
        let degraded = run(vec![
            crate::FaultEvent {
                at: 0,
                kind: FaultKind::DramChannelDown(0),
            },
            crate::FaultEvent {
                at: 0,
                kind: FaultKind::DramChannelDown(1),
            },
        ]);
        assert!(
            degraded.summary.makespan_ms > healthy.summary.makespan_ms,
            "two dead channels ({:.2} ms) must be slower than four live ({:.2} ms)",
            degraded.summary.makespan_ms,
            healthy.summary.makespan_ms
        );
    }

    #[test]
    fn cycle_budget_stops_deterministically_with_a_partial() {
        let models: Vec<Model> = (0..8).map(|_| zoo::resnet50()).collect();
        let run = || {
            Simulation::builder()
                .policy(PolicyKind::SharedBaseline)
                .workload(Workload::closed(models.clone(), 4))
                .warmup_rounds(0)
                .max_sim_cycles(2_000_000)
                .run()
        };
        let (a, b) = (run(), run());
        match (a, b) {
            (
                Err(EngineError::BudgetExceeded {
                    budget: a_kind,
                    at_cycle: a_at,
                    partial: a_part,
                }),
                Err(EngineError::BudgetExceeded {
                    budget: b_kind,
                    at_cycle: b_at,
                    partial: b_part,
                }),
            ) => {
                assert_eq!(a_kind, BudgetKind::SimCycles);
                assert_eq!(a_kind, b_kind);
                assert_eq!(a_at, b_at, "the cycle budget must trip deterministically");
                assert_eq!(a_part, b_part);
                assert!(
                    a_part.summary.makespan_ms <= cycles_to_ms(2_000_000),
                    "the partial covers only work inside the budget"
                );
                assert_eq!(a_part.policy, "Baseline");
            }
            other => panic!("expected two BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn admission_control_sheds_doomed_arrivals() {
        // A same-cycle burst of 6 requests against a deadline shorter
        // than two back-to-back inferences: the tail of the queue is
        // provably doomed at dispatch and must shed, not run.
        let models = vec![zoo::resnet50()];
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::bursty(models.clone(), 1, 6, 0.0))
            .qos_scale(0.5)
            .admission_control(true)
            .run()
            .unwrap();
        assert!(
            r.summary.shed_requests > 0,
            "a 6-deep same-cycle queue must shed its doomed tail"
        );
        assert_eq!(
            r.tasks()[0].inferences as u64 + r.summary.shed_requests,
            6,
            "every arrival either runs or sheds"
        );
        assert_eq!(r.tasks()[0].shed, r.summary.shed_requests);
        // Without the knob the same workload runs everything.
        let r = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::bursty(models, 1, 6, 0.0))
            .qos_scale(0.5)
            .run()
            .unwrap();
        assert_eq!(r.summary.shed_requests, 0);
        assert_eq!(r.tasks()[0].inferences, 6);
    }

    #[test]
    fn random_fault_schedules_never_panic_or_deadlock() {
        // Property test over the generator: aggressive random fault
        // schedules across every policy must complete (Ok or a typed
        // budget error — never a panic, never a hang).
        for seed in 0..6u64 {
            let plan = FaultPlan::generate(&crate::FaultGenConfig {
                seed: 0xFA017 + seed,
                horizon: 20_000_000,
                npu_cores: 16,
                dram_channels: 4,
                npu_mtbf_cycles: 2_000_000.0,
                npu_mttr_cycles: 500_000.0,
                dram_mtbf_cycles: 3_000_000.0,
                dram_mttr_cycles: 500_000.0,
                dram_degrade_factor: 0.25,
                throttle_mtbf_cycles: 4_000_000.0,
                throttle_mttr_cycles: 1_000_000.0,
                throttle_factor: 0.6,
            })
            .unwrap();
            let kind = PolicyKind::ALL[seed as usize % PolicyKind::ALL.len()];
            let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
            let r = Simulation::builder()
                .policy(kind)
                .workload(Workload::poisson(models, 1.0, 10.0))
                .qos_scale(1.0)
                .admission_control(true)
                .fault_plan(plan)
                .seed(seed)
                .run();
            assert!(
                r.is_ok(),
                "seed {seed} under {} must complete: {:?}",
                kind.label(),
                r.err()
            );
        }
    }

    #[test]
    fn bursty_arrivals_honor_the_gap() {
        let models: Vec<Model> = (0..4).map(|_| zoo::mobilenet_v2()).collect();
        let run = |gap_ms: f64| {
            Simulation::builder()
                .policy(PolicyKind::SharedBaseline)
                .workload(Workload::bursty(models.clone(), 2, 3, gap_ms))
                .warmup_rounds(0)
                .run()
                .unwrap()
        };
        let spread = run(50.0);
        let total: usize = spread.tasks().iter().map(|t| t.inferences).sum();
        assert_eq!(total, 4 * 6, "every burst arrival must complete");
        // The second burst arrives 50 ms after the first: the run must
        // span the gap, and collapsing the gap must shorten it.
        assert!(
            spread.summary.makespan_ms >= 50.0,
            "makespan {:.1} ms ignores the burst gap",
            spread.summary.makespan_ms
        );
        let packed = run(0.0);
        assert!(
            packed.summary.makespan_ms < spread.summary.makespan_ms,
            "gap 0 ({:.1} ms) must finish before gap 50 ({:.1} ms)",
            packed.summary.makespan_ms,
            spread.summary.makespan_ms
        );
    }
}
