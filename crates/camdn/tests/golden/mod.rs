//! Golden corpus of run outcomes, shared by `golden_runs.rs` and
//! `sched_equivalence.rs`: a fixed matrix of cases whose outcomes are
//! recorded, by name, in `tests/golden/run_outputs.txt`.
//!
//! Each corpus line holds the case name, an FNV-1a-64 hash of the
//! outcome's `Debug` rendering, and three readable summary scalars.
//! The outcome is the whole `Result`: a `RunOutput` (summary plus
//! whatever detail the case retains), or for a budget-stopped case the
//! `BudgetExceeded` error, so the hash covers `at_cycle` and the
//! partial result too. Any change in simulated behaviour therefore
//! shows up as a reviewed diff of that file.
//!
//! The matrix spans the five built-in policies × closed, QoS, traced
//! (with same-cycle arrival collisions) and mid-run-fault workloads,
//! Poisson arrivals at every detail level, bursty arrivals with
//! queue-depth sampling, seeded chaos fault plans, cycle-budget
//! partials and several engine seeds. A case's group is its name up
//! to the first `/`.
//!
//! After an intentional behaviour change, regenerate the corpus with
//! `UPDATE_GOLDEN=1 cargo test --release -p camdn --test golden_runs`
//! and review the diff.

// Each test target that includes this module uses only part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use camdn::models::zoo;
use camdn::sweep::run_cells;
use camdn::{
    DetailLevel, EngineError, FaultEvent, FaultGenConfig, FaultKind, FaultPlan, PolicyKind,
    RunOutput, Simulation, SimulationBuilder, Workload,
};

/// FNV-1a, 64-bit.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One corpus line for a case's outcome.
fn corpus_line(name: &str, outcome: &Result<RunOutput, EngineError>) -> String {
    let summary = match outcome {
        Ok(out) => &out.summary,
        Err(EngineError::BudgetExceeded { partial, .. }) => &partial.summary,
        Err(e) => panic!("case {name} failed: {e}"),
    };
    format!(
        "{name} {:016x} inferences={} makespan_ms={:.6} avg_latency_ms={:.6}",
        fnv1a64(&format!("{outcome:?}")),
        summary.inferences,
        summary.makespan_ms,
        summary.avg_latency_ms
    )
}

/// A mid-run fault plan touching every fault kind the engine knows:
/// an NPU outage-and-repair, a DRAM brownout, a fractional channel
/// degrade, and a clock throttle that later recovers.
fn mixed_fault_plan() -> FaultPlan {
    let ev = |at, kind| FaultEvent { at, kind };
    FaultPlan::new(vec![
        ev(200_000, FaultKind::ClockThrottle { factor: 0.6 }),
        ev(400_000, FaultKind::NpuDown(1)),
        ev(600_000, FaultKind::DramChannelDown(0)),
        ev(
            900_000,
            FaultKind::DramDegrade {
                channel: 1,
                factor: 0.5,
            },
        ),
        ev(1_400_000, FaultKind::NpuUp(1)),
        ev(1_800_000, FaultKind::DramChannelUp(0)),
        ev(2_200_000, FaultKind::ClockThrottle { factor: 1.0 }),
    ])
    .expect("plan is time-ordered")
}

/// A seeded MTBF/MTTR fault process: denser, less hand-picked
/// schedules than the mixed plan.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::generate(&FaultGenConfig {
        seed,
        horizon: 3_000_000,
        npu_cores: 4,
        dram_channels: 2,
        npu_mtbf_cycles: 800_000.0,
        npu_mttr_cycles: 200_000.0,
        dram_mtbf_cycles: 1_000_000.0,
        dram_mttr_cycles: 150_000.0,
        dram_degrade_factor: 0.3,
        throttle_mtbf_cycles: 700_000.0,
        throttle_mttr_cycles: 250_000.0,
        throttle_factor: 0.5,
    })
    .expect("generated plan is valid")
}

/// Every case of the corpus, by name, in corpus order.
pub fn cases() -> Vec<(String, SimulationBuilder)> {
    let mb = zoo::mobilenet_v2;
    let en = zoo::efficientnet_b0;
    let mut cases: Vec<(String, SimulationBuilder)> = Vec::new();
    let mut add = |name: String, b: SimulationBuilder| cases.push((name, b));

    for kind in PolicyKind::ALL {
        let p = kind.name();
        let closed = vec![mb(), en(), zoo::resnet50(), zoo::gnmt()];
        add(
            format!("closed/{p}"),
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(closed, 2)),
        );
        // QoS mode redistributes bandwidth shares and NPU quotas at
        // every epoch tick.
        add(
            format!("qos0.8/{p}"),
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(vec![mb(), zoo::bert_base(), mb()], 2))
                .qos_scale(0.8),
        );
        // Same-cycle arrivals exercise the FIFO tie-break (task order).
        let schedules = vec![vec![0, 500_000, 500_000], vec![0, 500_000]];
        add(
            format!("traced/{p}"),
            Simulation::builder()
                .policy(kind)
                .workload(Workload::traced(vec![mb(), en()], schedules))
                .warmup_rounds(0),
        );
        add(
            format!("faults/{p}"),
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(vec![mb(), zoo::resnet50(), mb()], 3))
                .fault_plan(mixed_fault_plan()),
        );
    }
    for kind in [PolicyKind::SharedBaseline, PolicyKind::CamdnFull] {
        for (d, detail) in [
            ("summary", DetailLevel::Summary),
            ("tasks", DetailLevel::Tasks),
            ("full", DetailLevel::Full),
        ] {
            add(
                format!("poisson/{}/{d}", kind.name()),
                Simulation::builder()
                    .policy(kind)
                    .workload(Workload::poisson(vec![mb(), en()], 0.05, 60.0))
                    .warmup_rounds(0)
                    .detail(detail),
            );
        }
    }
    for kind in [PolicyKind::Moca, PolicyKind::Aurora] {
        add(
            format!("bursty-sampled/{}", kind.name()),
            Simulation::builder()
                .policy(kind)
                .workload(Workload::bursty((0..4).map(|_| mb()).collect(), 2, 3, 10.0))
                .qos_scale(1.0)
                .warmup_rounds(0)
                .sample_queue_depth(50_000),
        );
    }
    for seed in [3u64, 17, 0xFA11] {
        add(
            format!("chaos/{seed}"),
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::closed(vec![mb(), en()], 3))
                .fault_plan(chaos_plan(seed)),
        );
    }
    let heavy = || vec![zoo::gnmt(), zoo::bert_base(), zoo::resnet50()];
    add(
        "budget/baseline".into(),
        Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(heavy(), 2))
            .max_sim_cycles(1_500_000),
    );
    // A fault plan racing the budget: the partial is aggregated after
    // a clock throttle and an NPU kill.
    add(
        "budget/camdn-full-faults".into(),
        Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::closed(heavy(), 3))
            .fault_plan(mixed_fault_plan())
            .max_sim_cycles(1_000_000),
    );
    // Seeds reshuffle NPU assignment and arrival draws into different
    // event interleavings.
    for seed in [1u64, 42, 0xDEAD, 0xCA3D41] {
        add(
            format!("seed/{seed}"),
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::closed(vec![mb(), en()], 2))
                .seed(seed),
        );
    }
    cases
}

/// Every case group; `sched_equivalence.rs` compares each one.
pub const GROUPS: [&str; 9] = [
    "closed",
    "qos0.8",
    "traced",
    "faults",
    "poisson",
    "bursty-sampled",
    "chaos",
    "budget",
    "seed",
];

/// Path of the checked-in corpus.
pub fn corpus_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_outputs.txt")
}

/// The checked-in corpus, keyed by case name.
pub fn corpus() -> BTreeMap<String, String> {
    std::fs::read_to_string(corpus_path())
        .unwrap()
        .lines()
        .map(|l| (l.split(' ').next().unwrap().to_string(), l.to_string()))
        .collect()
}

/// Runs `cases` on up to two sweep workers; returns their corpus
/// lines in case order.
pub fn run(cases: Vec<(String, SimulationBuilder)>) -> Vec<String> {
    let (names, builders): (Vec<String>, Vec<SimulationBuilder>) = cases.into_iter().unzip();
    names
        .iter()
        .zip(run_cells(builders, Some(2)))
        .map(|(name, run)| corpus_line(name, &run.outcome))
        .collect()
}

/// Runs every case of `group` and asserts each outcome equals its
/// corpus line; names every case that changed or is not in the corpus.
pub fn assert_group_matches(group: &str) {
    let prefix = format!("{group}/");
    let group_cases: Vec<_> = cases()
        .into_iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .collect();
    assert!(!group_cases.is_empty(), "no case in group {group}");
    let want = corpus();
    let mut problems = Vec::new();
    for line in run(group_cases) {
        let name = line.split(' ').next().unwrap();
        match want.get(name) {
            None => problems.push(format!("extra case (not in the corpus): {line}")),
            Some(w) if *w != line => {
                problems.push(format!("changed: {name}\n  want {w}\n  got  {line}"))
            }
            Some(_) => {}
        }
    }
    assert!(
        problems.is_empty(),
        "{} corpus mismatches in group {group} (rerun golden_runs with UPDATE_GOLDEN=1 \
         after an intentional change):\n{}",
        problems.len(),
        problems.join("\n")
    );
}
