//! Acceptance tests of the split result pipeline: the `RunSummary` must
//! be identical at every `DetailLevel` for every built-in policy across
//! closed-loop, Poisson and bursty workloads, and the QoS metrics and
//! SLA rate must be derived consistently from it.

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::{DetailLevel, PolicyKind, Simulation, SimulationBuilder, Workload};

fn scenarios() -> Vec<(&'static str, Workload)> {
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    vec![
        ("closed", Workload::closed(models.clone(), 2)),
        ("poisson", Workload::poisson(models.clone(), 0.05, 60.0)),
        ("bursty", Workload::bursty(models, 2, 2, 10.0)),
    ]
}

fn builder(policy: PolicyKind, workload: &Workload) -> SimulationBuilder {
    Simulation::builder()
        .policy(policy)
        .workload(workload.clone())
        .warmup_rounds(0)
}

#[test]
fn summary_is_identical_at_every_detail_level() {
    // A summary-only run must be bit-for-bit the `summary` of a
    // detailed run: detail selection only changes what is retained,
    // never what is computed.
    for policy in PolicyKind::ALL {
        for (name, workload) in scenarios() {
            let levels = [DetailLevel::Summary, DetailLevel::Tasks, DetailLevel::Full];
            let runs: Vec<_> = levels
                .iter()
                .map(|&level| builder(policy, &workload).detail(level).run().expect("run"))
                .collect();
            assert_eq!(
                runs[0].summary, runs[1].summary,
                "{policy:?}/{name}: Summary vs Tasks"
            );
            assert_eq!(
                runs[1].summary, runs[2].summary,
                "{policy:?}/{name}: Tasks vs Full"
            );
            assert!(runs[0].detail.is_none(), "Summary retains no detail");
            let tasks_detail = runs[1].detail.as_ref().expect("Tasks retains the table");
            assert!(
                tasks_detail.latency_hist.is_none(),
                "histogram is Full-only"
            );
            let full_detail = runs[2].detail.as_ref().expect("Full retains the table");
            assert_eq!(tasks_detail.tasks, full_detail.tasks);
            let hist = full_detail.latency_hist.as_ref().expect("Full histogram");
            let measured: usize = runs[2].tasks().iter().map(|t| t.inferences).sum();
            assert_eq!(
                hist.total() as usize,
                measured,
                "{policy:?}/{name}: every measured inference lands in the histogram"
            );
            assert_eq!(runs[2].summary.inferences, measured);
        }
    }
}

#[test]
fn summary_sla_rate_is_inference_weighted() {
    let models = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    let r = Simulation::builder()
        .policy(PolicyKind::CamdnFull)
        .workload(Workload::closed(models, 3))
        .qos_scale(0.8)
        .run()
        .expect("qos run");
    let num: f64 = r
        .tasks()
        .iter()
        .map(|t| t.sla_rate * t.inferences as f64)
        .sum();
    let den: f64 = r.tasks().iter().map(|t| t.inferences as f64).sum();
    assert!((r.summary.sla_rate - num / den).abs() < 1e-12);
}

#[test]
fn qos_metrics_runs_off_the_detail_tasks() {
    // The metrics helper consumes the per-task table of the split
    // pipeline and reports mismatched calibration as a typed error.
    let models = vec![zoo::mobilenet_v2(), zoo::mobilenet_v2()];
    let r = Simulation::builder()
        .policy(PolicyKind::Aurora)
        .workload(Workload::closed(models, 2))
        .qos_scale(1.0)
        .run()
        .expect("qos run");
    let iso = vec![1.0; r.tasks().len()];
    let m = camdn::runtime::qos_metrics(r.tasks(), &iso).expect("matched lengths");
    assert!(m.stp > 0.0 && m.stp <= r.tasks().len() as f64 + 1e-9);
    assert!(camdn::runtime::qos_metrics(r.tasks(), &[]).is_err());
}
