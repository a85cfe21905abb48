//! Whole-engine differential tests: the batched memory-system fast
//! paths (closed-form DRAM bursts, two-pass cache ranges, analytic
//! multicast replicas) must reproduce the per-line reference model
//! **exactly** — identical `RunOutput` aggregates, for every built-in
//! policy, across closed-loop, open-loop and QoS workloads.
//!
//! `RunOutput` derives `PartialEq` over every field (the scalar
//! summary plus, at the default detail level, per-task latencies and
//! DRAM traffic), so one equality assert covers the full observable
//! surface of a run.

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::{PolicyKind, RunOutput, Simulation, SimulationBuilder, Workload};

fn diff(build: impl Fn() -> SimulationBuilder) -> (RunOutput, RunOutput) {
    let fast = build().reference_model(false).run().expect("batched run");
    let refm = build().reference_model(true).run().expect("reference run");
    (fast, refm)
}

#[test]
fn all_policies_match_reference_on_closed_multi_tenant() {
    let models = vec![
        zoo::mobilenet_v2(),
        zoo::efficientnet_b0(),
        zoo::resnet50(),
        zoo::gnmt(),
    ];
    for kind in PolicyKind::ALL {
        let (fast, refm) = diff(|| {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(models.clone(), 2))
        });
        assert_eq!(fast, refm, "{kind:?} diverged on the closed workload");
    }
}

#[test]
fn all_policies_match_reference_in_qos_mode() {
    // QoS mode exercises bandwidth throttling (per-transfer gates into
    // the DRAM model) and multi-NPU groups (multicast fetch paths).
    let models = vec![zoo::mobilenet_v2(), zoo::bert_base(), zoo::mobilenet_v2()];
    for kind in PolicyKind::ALL {
        let (fast, refm) = diff(|| {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(models.clone(), 2))
                .qos_scale(0.8)
        });
        assert_eq!(fast, refm, "{kind:?} diverged in QoS mode");
    }
}

#[test]
fn open_loop_poisson_matches_reference() {
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    for kind in [PolicyKind::SharedBaseline, PolicyKind::CamdnFull] {
        let (fast, refm) = diff(|| {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::poisson(models.clone(), 0.05, 60.0))
                .warmup_rounds(0)
        });
        assert_eq!(fast, refm, "{kind:?} diverged on the Poisson workload");
    }
}

#[test]
fn bursty_arrivals_match_reference() {
    let models: Vec<_> = (0..4).map(|_| zoo::mobilenet_v2()).collect();
    let (fast, refm) = diff(|| {
        Simulation::builder()
            .policy(PolicyKind::Moca)
            .workload(Workload::bursty(models.clone(), 2, 3, 10.0))
            .qos_scale(1.0)
            .warmup_rounds(0)
    });
    assert_eq!(fast, refm, "MoCA diverged on the bursty workload");
}

#[test]
fn large_tensor_stream_matches_reference() {
    // The heavy end of the zoo: multi-MB weight tensors streamed under
    // contention, far beyond the MSHR window — the regime the
    // closed-form fast paths were built for.
    let models = vec![
        zoo::gnmt(),
        zoo::bert_base(),
        zoo::resnet50(),
        zoo::gnmt(),
        zoo::bert_base(),
        zoo::resnet50(),
    ];
    for kind in [PolicyKind::SharedBaseline, PolicyKind::CamdnFull] {
        let (fast, refm) = diff(|| {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(models.clone(), 2))
        });
        assert_eq!(fast, refm, "{kind:?} diverged on the large-tensor workload");
    }
}

#[test]
fn seed_sweep_matches_reference() {
    // Different seeds shuffle NPU assignment and arrival draws into
    // different interleavings of the shared memory system.
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    for seed in [1u64, 42, 0xDEAD, 0xCA3D41] {
        let (fast, refm) = diff(|| {
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::closed(models.clone(), 2))
                .seed(seed)
        });
        assert_eq!(fast, refm, "seed {seed} diverged");
    }
}
