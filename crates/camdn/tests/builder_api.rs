//! Tests of the public simulation API: builder determinism, custom
//! policy registration and workload scenarios.

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::runtime::{
    register_policy, EngineError, Policy, PolicyCapabilities, PolicyRegistry, Selection,
};
use camdn::{PolicyKind, Simulation, Workload};
use camdn_common::types::Cycle;
use camdn_mapper::Mct;

/// A sixth, test-only policy: transparent cache, no scheduling at all —
/// implemented and registered entirely outside `camdn-runtime`.
struct NoOpPolicy;

impl Policy for NoOpPolicy {
    fn label(&self) -> &str {
        "NoOp(custom)"
    }

    fn capabilities(&self) -> PolicyCapabilities {
        PolicyCapabilities::default()
    }

    fn select_candidate(
        &mut self,
        _now: Cycle,
        _task: u32,
        _mct: &Mct,
        _lbm_active: bool,
        _idle_pages: u32,
    ) -> Selection {
        Selection::Transparent
    }
}

#[test]
fn same_seed_is_deterministic_for_every_builtin_policy() {
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    for policy in PolicyKind::ALL {
        let run = || {
            Simulation::builder()
                .policy(policy)
                .workload(Workload::closed(models.clone(), 2))
                .seed(42)
                .run()
                .expect("deterministic run")
        };
        assert_eq!(run(), run(), "{policy:?} must be seed-deterministic");
    }
}

#[test]
fn different_seeds_change_the_schedule() {
    let models: Vec<_> = (0..4).map(|_| zoo::efficientnet_b0()).collect();
    let run = |seed| {
        Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(models.clone(), 2))
            .seed(seed)
            .run()
            .expect("run")
    };
    assert_ne!(
        run(1).summary.makespan_ms,
        run(2).summary.makespan_ms,
        "dispatch jitter must depend on the seed"
    );
}

#[test]
fn custom_policy_registers_and_simulates() {
    register_policy("noop-test", || Box::new(NoOpPolicy));
    assert!(camdn::runtime::registered_policies().contains(&"noop-test".to_string()));

    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    let custom = Simulation::builder()
        .policy_named("noop-test")
        .workload(Workload::closed(models.clone(), 2))
        .run()
        .expect("custom policy run");
    assert_eq!(custom.policy, "NoOp(custom)");
    assert!(custom.tasks().iter().all(|t| t.inferences == 1));

    // With identical capabilities and selections, the custom no-op
    // matches the built-in baseline cycle for cycle.
    let baseline = Simulation::builder()
        .policy(PolicyKind::SharedBaseline)
        .workload(Workload::closed(models, 2))
        .run()
        .expect("baseline run");
    assert_eq!(custom.detail, baseline.detail);
    assert_eq!(custom.summary, baseline.summary);
}

#[test]
fn policy_instance_bypasses_the_registry() {
    let r = Simulation::builder()
        .policy_instance(Box::new(NoOpPolicy))
        .workload(Workload::closed(vec![zoo::mobilenet_v2()], 1))
        .warmup_rounds(0)
        .run()
        .expect("instance run");
    assert_eq!(r.policy, "NoOp(custom)");
    assert_eq!(r.tasks()[0].inferences, 1);
}

#[test]
fn local_registries_are_isolated() {
    let mut reg = PolicyRegistry::with_builtins();
    reg.register("local-only", || Box::new(NoOpPolicy));
    assert!(reg.contains("local-only"));
    assert!(!camdn::runtime::registered_policies().contains(&"local-only".to_string()));
}

#[test]
fn empty_workload_is_a_typed_error() {
    let err = Simulation::builder()
        .policy(PolicyKind::CamdnFull)
        .workload(Workload::closed(vec![], 2))
        .build()
        .err();
    assert_eq!(err, Some(EngineError::EmptyWorkload));
}

#[test]
fn open_loop_scenarios_run_every_builtin() {
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    for policy in PolicyKind::ALL {
        let r = Simulation::builder()
            .policy(policy)
            .workload(Workload::poisson(models.clone(), 0.05, 60.0))
            .warmup_rounds(0)
            .run()
            .expect("poisson run");
        assert!(
            r.tasks().iter().any(|t| t.inferences > 0),
            "{policy:?} open loop must complete arrivals"
        );
    }
}

#[test]
fn starved_dram_bandwidth_is_a_typed_error_not_a_wrapped_clock() {
    // The DRAM model keeps time in 64-bit fixed point, 2^44 cycles of
    // range. Down the bandwidth ladder the makespan grows as 1 /
    // bandwidth until a run would pass that range; from there on the
    // run is refused per transfer, and a line burst that does not fit
    // at all is refused at build time. Before, the horizon wrapped:
    // makespans pinned at 2^44 cycles, then read a few milliseconds.
    let run = |bytes_per_cycle: f64| {
        let mut soc = camdn::common::config::SocConfig::paper_default();
        soc.dram.bytes_per_cycle = bytes_per_cycle;
        Simulation::builder()
            .soc(soc)
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(
                vec![zoo::mobilenet_v2(), zoo::resnet50()],
                1,
            ))
            .warmup_rounds(0)
            .run()
    };
    let mut last = 0.0;
    for bw in [1e-3, 1e-4, 1e-5] {
        let ms = run(bw).expect("a representable run").summary.makespan_ms;
        if last > 0.0 {
            let ratio = ms / last;
            assert!(
                (9.0..11.0).contains(&ratio),
                "makespan x{ratio} at {bw} B/cycle"
            );
        }
        last = ms;
    }
    for bw in [1e-6, 1e-7, 1e-8, 1e-9] {
        match run(bw) {
            Err(EngineError::DramRange { .. }) => {}
            other => panic!("{bw} B/cycle: expected DramRange, got {other:?}"),
        }
    }
    for bw in [1e-11, 1e-12] {
        match run(bw) {
            Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("range"), "{msg}"),
            other => panic!("{bw} B/cycle: expected InvalidConfig, got {other:?}"),
        }
    }
}
