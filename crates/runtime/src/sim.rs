//! The fluent simulation API: [`Simulation::builder`] assembles an SoC,
//! a scheduling policy and a workload scenario into a runnable
//! [`Simulation`].
//!
//! ```
//! use camdn_runtime::{PolicyKind, Simulation, Workload};
//! use camdn_models::zoo;
//!
//! let result = Simulation::builder()
//!     .policy(PolicyKind::CamdnFull)
//!     .workload(Workload::closed(vec![zoo::mobilenet_v2(), zoo::resnet50()], 2))
//!     .seed(7)
//!     .run()
//!     .expect("valid configuration");
//! assert_eq!(result.summary.tasks, 2);
//! assert_eq!(result.tasks().len(), 2); // per-task detail (default level)
//! ```

use crate::engine::{Engine, PolicyKind, SimParams};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::policies::{builtin_policy, create_policy, Policy};
use crate::result::{DetailLevel, RunOutput};
use crate::scenario::Workload;
use camdn_common::config::SocConfig;
use camdn_common::types::Cycle;
use camdn_mapper::{MapperConfig, PlanCache};
use std::sync::Arc;

/// Which policy the builder should instantiate at build time.
enum PolicyChoice {
    Kind(PolicyKind),
    Named(String),
    Instance(Box<dyn Policy>),
}

/// A fully-assembled simulation, ready to run once.
pub struct Simulation {
    engine: Engine,
}

impl Simulation {
    /// Starts assembling a simulation. Defaults: Table II SoC, the
    /// shared baseline policy, seed `0xCA3D41`, one warm-up round, a
    /// 200k-cycle scheduling epoch and [`DetailLevel::Tasks`] output.
    /// A workload must be supplied.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            soc: SocConfig::paper_default(),
            policy: PolicyChoice::Kind(PolicyKind::SharedBaseline),
            workload: None,
            seed: 0xCA3D41,
            warmup_rounds: 1,
            qos_scale: None,
            epoch_cycles: 200_000,
            mapper: MapperConfig::paper_default(),
            lookahead: None,
            reference_model: false,
            plan_cache: None,
            detail: DetailLevel::Tasks,
            queue_sample_cycles: None,
            fault_plan: None,
            max_sim_cycles: None,
            admission_control: false,
        }
    }

    /// Runs the simulation to completion.
    pub fn run(mut self) -> Result<RunOutput, EngineError> {
        self.engine.run()
    }
}

/// Fluent builder for a [`Simulation`].
pub struct SimulationBuilder {
    soc: SocConfig,
    policy: PolicyChoice,
    workload: Option<Workload>,
    seed: u64,
    warmup_rounds: u32,
    qos_scale: Option<f64>,
    epoch_cycles: Cycle,
    mapper: MapperConfig,
    lookahead: Option<f64>,
    reference_model: bool,
    plan_cache: Option<Arc<PlanCache>>,
    detail: DetailLevel,
    queue_sample_cycles: Option<Cycle>,
    fault_plan: Option<FaultPlan>,
    max_sim_cycles: Option<Cycle>,
    admission_control: bool,
}

impl SimulationBuilder {
    /// Sets the SoC parameters (default: Table II).
    pub fn soc(mut self, soc: SocConfig) -> Self {
        self.soc = soc;
        self
    }

    /// Selects a built-in policy.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = PolicyChoice::Kind(kind);
        self
    }

    /// Selects a policy by registry name (resolved at [`build`]
    /// time against the process-global registry; see
    /// [`register_policy`](crate::register_policy)).
    ///
    /// [`build`]: SimulationBuilder::build
    pub fn policy_named(mut self, name: impl Into<String>) -> Self {
        self.policy = PolicyChoice::Named(name.into());
        self
    }

    /// Supplies a policy instance directly (custom systems that are not
    /// registered).
    pub fn policy_instance(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = PolicyChoice::Instance(policy);
        self
    }

    /// Sets the workload scenario (required).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the RNG seed (dispatch jitter, NPU choice, arrivals).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Leading inferences per task excluded from statistics (cache
    /// warm-up; default 1). Applies to closed-loop workloads only —
    /// open-loop (Poisson/bursty) runs measure every arrival, since
    /// their per-task request counts vary.
    pub fn warmup_rounds(mut self, rounds: u32) -> Self {
        self.warmup_rounds = rounds;
        self
    }

    /// Enables QoS mode at a deadline scale over the Table I targets
    /// (0.8 = QoS-H, 1.0 = QoS-M, 1.2 = QoS-L).
    pub fn qos_scale(mut self, scale: f64) -> Self {
        self.qos_scale = Some(scale);
        self
    }

    /// Bandwidth/NPU reallocation epoch in cycles (default 200_000).
    pub fn epoch_cycles(mut self, cycles: Cycle) -> Self {
        self.epoch_cycles = cycles;
        self
    }

    /// Sets the offline mapper configuration.
    pub fn mapper(mut self, mapper: MapperConfig) -> Self {
        self.mapper = mapper;
        self
    }

    /// Overrides Algorithm 1's look-ahead fraction on policies that
    /// carry the knob (paper default 0.2).
    pub fn lookahead(mut self, factor: f64) -> Self {
        self.lookahead = Some(factor);
        self
    }

    /// Serves model mappings from a shared [`PlanCache`] instead of
    /// re-running the offline mapper at build time.
    ///
    /// Mapping is a pure function of `(model, MapperConfig)`, so the
    /// result is bit-identical with or without the cache; what changes
    /// is that a cache shared across many builders (a sweep grid, a
    /// service assembling engines per request) solves each distinct
    /// key once instead of once per simulation.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Selects how much output the run retains (default
    /// [`DetailLevel::Tasks`]): [`DetailLevel::Summary`] keeps only the
    /// compact scalar [`RunSummary`](crate::RunSummary) — the right
    /// level for big sweeps — while [`DetailLevel::Full`] adds the
    /// run-level latency histogram to the per-task table. The summary
    /// is computed identically at every level.
    pub fn detail(mut self, level: DetailLevel) -> Self {
        self.detail = level;
        self
    }

    /// Samples the outstanding-request depth (arrived but not yet
    /// retired, across all tasks) every `cycles` into
    /// [`RunDetail::queue_depth`](crate::RunDetail). Off by default:
    /// an unsampled run records nothing and is bit-identical to one
    /// built before this knob existed. Requires a detail level of at
    /// least [`DetailLevel::Tasks`] for the samples to be returned.
    pub fn sample_queue_depth(mut self, cycles: Cycle) -> Self {
        self.queue_sample_cycles = Some(cycles);
        self
    }

    /// Injects a [`FaultPlan`]: a validated, time-ordered schedule of
    /// NPU failures, DRAM channel degradations and DVFS throttles the
    /// engine applies at their event timestamps. Off by default — a
    /// run without a plan is bit-for-bit identical to one built before
    /// this knob existed. The plan is checked against the SoC (NPU and
    /// channel indices in range) at [`build`](SimulationBuilder::build)
    /// time.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Caps the run at a simulated-cycle budget: the first event past
    /// `cycles` stops the run with a typed
    /// [`EngineError::BudgetExceeded`] carrying the partial results.
    /// Deterministic — the same configuration always stops at the same
    /// event.
    pub fn max_sim_cycles(mut self, cycles: Cycle) -> Self {
        self.max_sim_cycles = Some(cycles);
        self
    }

    /// Enables deadline-aware admission control (default off): an
    /// open-loop QoS arrival whose queue-predicted completion already
    /// misses its deadline is shed instead of dispatched, counted in
    /// [`RunSummary::shed_requests`](crate::RunSummary) and per task in
    /// [`TaskSummary::shed`](crate::TaskSummary). No effect on
    /// closed-loop workloads or without [`qos_scale`]
    /// (there is no deadline to miss).
    ///
    /// [`qos_scale`]: SimulationBuilder::qos_scale
    pub fn admission_control(mut self, enabled: bool) -> Self {
        self.admission_control = enabled;
        self
    }

    /// Routes all memory-system timing through the per-line *reference
    /// model* instead of the batched fast paths (default `false`).
    ///
    /// Both models are bit-identical by construction — this switch
    /// exists so differential tests can prove it on full runs and so
    /// the throughput harness can measure the speedup against it.
    pub fn reference_model(mut self, reference: bool) -> Self {
        self.reference_model = reference;
        self
    }

    /// Validates the configuration and assembles the engine.
    pub fn build(self) -> Result<Simulation, EngineError> {
        let workload = self.workload.ok_or_else(|| {
            EngineError::InvalidConfig("a workload is required — call .workload(...)".into())
        })?;
        if let Some(scale) = self.qos_scale {
            let ok = scale.is_finite() && scale > 0.0;
            if !ok {
                return Err(EngineError::InvalidConfig(
                    "qos scale must be positive and finite".into(),
                ));
            }
        }
        if self.epoch_cycles == 0 {
            return Err(EngineError::InvalidConfig(
                "epoch_cycles must be positive".into(),
            ));
        }
        if self.queue_sample_cycles == Some(0) {
            return Err(EngineError::InvalidConfig(
                "queue sampling interval must be positive".into(),
            ));
        }
        if self.max_sim_cycles == Some(0) {
            return Err(EngineError::InvalidConfig(
                "the simulated-cycle budget must be positive".into(),
            ));
        }
        let mut policy = match self.policy {
            PolicyChoice::Kind(kind) => builtin_policy(kind),
            PolicyChoice::Named(name) => create_policy(&name)?,
            PolicyChoice::Instance(p) => p,
        };
        if let Some(f) = self.lookahead {
            policy.set_lookahead(f);
        }
        let params = SimParams {
            soc: self.soc,
            seed: self.seed,
            warmup_rounds: self.warmup_rounds,
            qos_scale: self.qos_scale,
            epoch_cycles: self.epoch_cycles,
            mapper: self.mapper,
            reference_model: self.reference_model,
            detail: self.detail,
            queue_sample_cycles: self.queue_sample_cycles,
            fault_plan: self.fault_plan,
            max_sim_cycles: self.max_sim_cycles,
            admission_control: self.admission_control,
        };
        let engine = Engine::with_policy(params, policy, &workload, self.plan_cache.as_deref())?;
        Ok(Simulation { engine })
    }

    /// [`build`](SimulationBuilder::build) + [`Simulation::run`] in one
    /// call.
    pub fn run(self) -> Result<RunOutput, EngineError> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_models::zoo;

    #[test]
    fn missing_or_empty_workload_is_an_error() {
        // Never calling .workload(...) names the real mistake...
        match Simulation::builder().build().err() {
            Some(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("workload is required"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // ...while an explicitly empty model list is EmptyWorkload.
        assert_eq!(
            Simulation::builder()
                .workload(Workload::closed(vec![], 2))
                .build()
                .err(),
            Some(EngineError::EmptyWorkload)
        );
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        let w = Workload::closed(vec![zoo::mobilenet_v2()], 1);
        assert!(matches!(
            Simulation::builder()
                .workload(w.clone())
                .qos_scale(0.0)
                .build(),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            Simulation::builder()
                .workload(w.clone())
                .epoch_cycles(0)
                .build(),
            Err(EngineError::InvalidConfig(_))
        ));
        let mut soc = SocConfig::paper_default();
        soc.npu.cores = 0;
        assert!(matches!(
            Simulation::builder().workload(w.clone()).soc(soc).build(),
            Err(EngineError::InvalidConfig(_))
        ));
        // A zero-channel DRAM is a typed error, not a deep panic.
        let mut soc = SocConfig::paper_default();
        soc.dram.channels = 0;
        assert!(matches!(
            Simulation::builder().workload(w).soc(soc).build(),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        // Warm-up that swallows every measured round.
        let starved = Workload::closed(vec![zoo::mobilenet_v2()], 1);
        match Simulation::builder().workload(starved).build().err() {
            Some(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("warmup"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Cache geometry the model would otherwise assert on.
        let mut soc = SocConfig::paper_default();
        soc.cache.ways = 12; // not a power of two
        let w = Workload::closed(vec![zoo::mobilenet_v2()], 2);
        match Simulation::builder().workload(w).soc(soc).build().err() {
            Some(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("power of two"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn tag_lane_overflow_is_a_build_error() {
        // The transparent cache's 16-bit tag lanes cover 16 of the 1 GiB
        // task slabs at 4 MiB and 64 at 16 MiB. Past that, a policy on
        // the transparent path must fail to build, not panic mid-run.
        let zoo = zoo::all();
        let tenants = |n: usize| -> Vec<_> { (0..n).map(|i| zoo[i % zoo.len()].clone()).collect() };
        let mk = |mib: u64, kind: PolicyKind, n: usize| {
            let mut soc = SocConfig::paper_default();
            soc.cache.total_bytes = mib << 20;
            Simulation::builder()
                .soc(soc)
                .policy(kind)
                .workload(Workload::closed(tenants(n), 2))
        };
        for (mib, kind, n) in [
            (4, PolicyKind::SharedBaseline, 17),
            (16, PolicyKind::Aurora, 65),
        ] {
            match mk(mib, kind, n).run().err() {
                Some(EngineError::InvalidConfig(msg)) => {
                    let (count, size) = (format!("{n} tenants"), format!("{mib} MiB"));
                    assert!(msg.contains(&count) && msg.contains(&size), "{msg}");
                }
                other => panic!("{mib} MiB x {n}: expected InvalidConfig, got {other:?}"),
            }
        }
        // At the bound, and on the NPU-controlled path, builds go on.
        assert!(mk(4, PolicyKind::SharedBaseline, 16).build().is_ok());
        assert!(mk(16, PolicyKind::Aurora, 64).build().is_ok());
        assert!(mk(16, PolicyKind::CamdnFull, 65).build().is_ok());
    }

    #[test]
    fn unknown_policy_name_is_reported() {
        let w = Workload::closed(vec![zoo::mobilenet_v2()], 1);
        assert_eq!(
            Simulation::builder()
                .workload(w)
                .policy_named("no-such-policy")
                .build()
                .err(),
            Some(EngineError::UnknownPolicy("no-such-policy".into()))
        );
    }

    #[test]
    fn plan_cache_is_bit_identical_and_shared() {
        let cache = Arc::new(PlanCache::new());
        let models = vec![zoo::mobilenet_v2(), zoo::resnet50()];
        let mk = || {
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::closed(models.clone(), 2))
        };
        let plain = mk().run().unwrap();
        let cached_cold = mk().plan_cache(Arc::clone(&cache)).run().unwrap();
        let cached_warm = mk().plan_cache(Arc::clone(&cache)).run().unwrap();
        assert_eq!(plain, cached_cold);
        assert_eq!(plain, cached_warm);
        let s = cache.stats();
        assert_eq!(s.model_misses, 2, "two distinct models mapped once");
        assert_eq!(s.model_hits, 2, "second run served entirely from cache");
    }

    #[test]
    fn queue_depth_sampling_is_opt_in_and_deterministic() {
        let mk = || {
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::poisson(
                    vec![zoo::mobilenet_v2(), zoo::resnet50()],
                    2.0,
                    4.0,
                ))
                .seed(11)
        };
        // Off by default: detail carries no samples and the run is
        // unchanged by a sampled run existing elsewhere.
        let plain = mk().run().unwrap();
        assert!(plain.detail.as_ref().unwrap().queue_depth.is_empty());
        let sampled = mk().sample_queue_depth(100_000).run().unwrap();
        let sampled2 = mk().sample_queue_depth(100_000).run().unwrap();
        assert_eq!(plain.summary, sampled.summary, "sampling must not perturb");
        assert_eq!(sampled, sampled2, "sampling is deterministic");
        let depth = &sampled.detail.as_ref().unwrap().queue_depth;
        assert!(!depth.is_empty(), "a 4 ms run spans many 100k boundaries");
        for (i, s) in depth.iter().enumerate() {
            assert_eq!(s.cycle, (i as Cycle + 1) * 100_000);
        }
        assert!(depth.iter().any(|s| s.outstanding > 0));
        // A zero interval is a typed error, not a hang.
        let w = Workload::closed(vec![zoo::mobilenet_v2()], 2);
        assert!(matches!(
            Simulation::builder()
                .workload(w)
                .sample_queue_depth(0)
                .build(),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn named_and_kind_paths_agree() {
        let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
        let by_kind = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::closed(models.clone(), 2))
            .run()
            .unwrap();
        let by_name = Simulation::builder()
            .policy_named("camdn-full")
            .workload(Workload::closed(models, 2))
            .run()
            .unwrap();
        assert_eq!(by_kind, by_name);
    }
}
