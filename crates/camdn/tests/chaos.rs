//! Acceptance tests of the fault-injection layer: chaos knobs left at
//! their inert settings must not move a single bit of any result
//! across every policy and workload shape, replays under an active
//! `FaultPlan` must stay deterministic, and a replay log killed in
//! the middle of a fault window must resume to the uninterrupted log
//! bit for bit.

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::trace::{
    JsonlReplaySink, ReplayConfig, ReplayDriver, ReplaySink, TraceGen, TraceGenConfig,
    WindowMetrics,
};
use camdn::{
    FaultEvent, FaultKind, FaultPlan, PolicyKind, Simulation, SimulationBuilder, Workload,
};

fn unique_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "camdn-chaos-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    p
}

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
fn killed_replay_log_resumes_mid_fault_window_bit_for_bit() {
    let cfg = chaos_cfg();
    let gen_records = || TraceGen::new(test_trace()).expect("gen config").map(Ok);

    // Uninterrupted reference replay under the fault plan.
    let clean_path = unique_path("clean.jsonl");
    let mut driver = ReplayDriver::new(cfg.clone()).expect("replay config");
    let mut sink = JsonlReplaySink::create(&clean_path, &cfg).expect("create log");
    driver.replay(gen_records(), &mut sink).expect("replay");
    sink.finish().expect("close log");

    // "Kill" a second replay by tearing its log mid-line inside the
    // fault span: keep the header plus the first two windows, so the
    // torn window (index 2) sits between NpuDown and NpuUp.
    let killed_path = unique_path("killed.jsonl");
    let mut driver = ReplayDriver::new(cfg.clone()).expect("replay config");
    let mut sink = JsonlReplaySink::create(&killed_path, &cfg).expect("create log");
    driver.replay(gen_records(), &mut sink).expect("replay");
    sink.finish().expect("close log");
    let full = std::fs::read_to_string(&killed_path).expect("read log");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() > 4, "need enough windows to interrupt mid-plan");
    let keep = 3; // header + windows 0 and 1
    let mut truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&killed_path, truncated).expect("simulate kill");

    // Resume under the same plan: recorded windows skip, the faulted
    // tail re-runs, and the final log equals the clean one.
    let mut driver = ReplayDriver::new(cfg.clone()).expect("replay config");
    let mut sink = JsonlReplaySink::resume(&killed_path, &cfg).expect("resume log");
    assert_eq!(sink.recorded().len(), keep - 1, "intact windows kept");
    let totals = driver.replay(gen_records(), &mut sink).expect("replay");
    assert!(totals.windows_run > 0, "the faulted tail must re-run");
    sink.finish().expect("close log");

    let clean = camdn::trace::read_window_log(&clean_path, &cfg).expect("read clean");
    let resumed = camdn::trace::read_window_log(&killed_path, &cfg).expect("read resumed");
    assert_eq!(resumed, clean, "resumed log must equal the clean log");

    // The header fingerprints the fault schedule: a log written under
    // one plan must not resume under another (or under none).
    let mut other = cfg.clone();
    other.fault_plan = None;
    assert!(JsonlReplaySink::resume(&killed_path, &other).is_err());

    std::fs::remove_file(&clean_path).ok();
    std::fs::remove_file(&killed_path).ok();
}
