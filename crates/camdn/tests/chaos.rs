//! Acceptance tests of the fault-injection layer: chaos knobs left at
//! their inert settings must not move a single bit of any result
//! across every policy and workload shape, replays under an active
//! `FaultPlan` must stay deterministic, and a window re-run on its own
//! in the middle of a fault must equal the same window of the full
//! replay bit for bit.

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::trace::{
    windows, ReplayConfig, ReplayDriver, ReplaySink, TraceGen, TraceGenConfig, WindowMetrics,
};
use camdn::{
    FaultEvent, FaultKind, FaultPlan, PolicyKind, Simulation, SimulationBuilder, Workload,
};

fn scenarios() -> Vec<(&'static str, Workload, bool)> {
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    let schedules = vec![vec![0, 2_000_000, 4_000_000], vec![1_000_000, 3_000_000]];
    vec![
        ("closed", Workload::closed(models.clone(), 2), false),
        (
            "poisson",
            Workload::poisson(models.clone(), 0.05, 60.0),
            false,
        ),
        (
            "bursty",
            Workload::bursty(models.clone(), 2, 2, 10.0),
            false,
        ),
        ("qos", Workload::closed(models.clone(), 2), true),
        ("traced", Workload::traced(models, schedules), false),
    ]
}

fn builder(policy: PolicyKind, workload: &Workload, qos: bool) -> SimulationBuilder {
    let mut b = Simulation::builder()
        .policy(policy)
        .workload(workload.clone())
        .warmup_rounds(0);
    if qos {
        b = b.qos_scale(1.0);
    }
    b
}

#[test]
fn inert_chaos_knobs_never_move_a_bit_for_any_policy_or_workload() {
    // The whole fault layer is opt-in: an empty plan and unreachable
    // budgets must leave summary AND detail bit-for-bit identical to a
    // build that never mentions them — across all 5 policies × 5
    // workload shapes.
    for policy in PolicyKind::ALL {
        for (name, workload, qos) in scenarios() {
            let plain = builder(policy, &workload, qos).run().expect("plain run");
            let knobbed = builder(policy, &workload, qos)
                .fault_plan(FaultPlan::default())
                .max_sim_cycles(u64::MAX)
                .run()
                .expect("knobbed run");
            assert_eq!(
                plain.summary, knobbed.summary,
                "{policy:?}/{name}: inert knobs drifted the summary"
            );
            assert_eq!(
                plain.detail, knobbed.detail,
                "{policy:?}/{name}: inert knobs drifted the detail"
            );
            assert_eq!(plain.summary.shed_requests, 0);
            assert_eq!(plain.summary.retried_inferences, 0);
            assert_eq!(plain.summary.dropped_inferences, 0);
        }
    }
}

/// A sink that keeps every window in memory for comparisons.
#[derive(Default)]
struct Collect(Vec<WindowMetrics>);

impl ReplaySink for Collect {
    fn on_window(&mut self, w: &WindowMetrics) {
        self.0.push(w.clone());
    }
}

fn test_trace() -> TraceGenConfig {
    TraceGenConfig {
        rate_per_s: 400.0,
        horizon_s: 0.1,
        ..TraceGenConfig::default()
    }
}

/// A schedule that spans several 20 ms replay windows: an NPU failure
/// bridging the window-1/window-2 boundary and a throttle episode in
/// windows 3-4 (absolute trace cycles, 1000 per µs).
fn test_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at: 30_000_000,
            kind: FaultKind::NpuDown(0),
        },
        FaultEvent {
            at: 55_000_000,
            kind: FaultKind::NpuUp(0),
        },
        FaultEvent {
            at: 65_000_000,
            kind: FaultKind::ClockThrottle { factor: 0.6 },
        },
        FaultEvent {
            at: 85_000_000,
            kind: FaultKind::ClockThrottle { factor: 1.0 },
        },
    ])
    .expect("valid plan")
}

fn chaos_cfg() -> ReplayConfig {
    let mut cfg = ReplayConfig::new(PolicyKind::CamdnFull, 20_000);
    cfg.fault_plan = Some(test_plan());
    cfg.max_cycles_per_window = Some(640_000_000);
    cfg.admission_control = true;
    cfg
}

fn replay_collect(cfg: &ReplayConfig) -> Vec<WindowMetrics> {
    let records = TraceGen::new(test_trace()).expect("gen config").map(Ok);
    let mut driver = ReplayDriver::new(cfg.clone()).expect("replay config");
    let mut sink = Collect::default();
    driver.replay(records, &mut sink).expect("replay");
    sink.0
}

#[test]
fn faulted_replay_is_deterministic_and_faults_actually_bite() {
    let a = replay_collect(&chaos_cfg());
    let b = replay_collect(&chaos_cfg());
    assert!(!a.is_empty(), "the test trace must produce windows");
    assert_eq!(a, b, "same trace + same plan must give identical metrics");

    let clean_cfg = ReplayConfig::new(PolicyKind::CamdnFull, 20_000);
    let clean = replay_collect(&clean_cfg);
    assert_ne!(a, clean, "the fault schedule must change the metrics");
    // Arrival accounting is untouched by faults: every request still
    // lands in its window, served, shed or dropped.
    assert_eq!(
        a.iter().map(|w| w.arrivals).sum::<u64>(),
        clean.iter().map(|w| w.arrivals).sum::<u64>(),
    );
}

#[test]
fn a_window_rerun_alone_mid_fault_matches_the_full_replay() {
    // A window's metrics depend only on its own index: re-running
    // window 2 (between NpuDown and NpuUp, so the outage is
    // re-materialized at its start) through a fresh driver must equal
    // window 2 of the full replay.
    let cfg = chaos_cfg();
    let full = replay_collect(&cfg);
    let records = TraceGen::new(test_trace()).expect("gen config").map(Ok);
    let window = windows(records, cfg.window_us)
        .map(|w| w.expect("generated trace is well-formed"))
        .find(|w| w.index == 2)
        .expect("the test trace reaches window 2");
    let alone = ReplayDriver::new(cfg)
        .expect("replay config")
        .run_window(&window)
        .expect("window 2 re-runs");
    let in_full = full
        .iter()
        .find(|w| w.index == 2)
        .expect("the full replay has window 2");
    assert_eq!(
        &alone, in_full,
        "window 2 alone must equal the full replay's"
    );
    assert!(alone.arrivals > 0, "window 2 replays real arrivals");
}
