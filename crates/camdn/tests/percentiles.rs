//! End-to-end tests of the tail-latency pipeline: the compact
//! `LatencyTail` carried by every `RunSummary` must agree exactly with
//! the opt-in `DetailLevel::Full` histogram, behave as a pooled sample
//! set under the sweep layer's seed folding, and order its percentile
//! estimates the way percentiles must order. (The estimator's error
//! bound against exact sorted samples is property-tested where it
//! lives, in `camdn-common::stats`.)

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::{DetailLevel, LatencyTail, PolicyKind, Simulation, Sweep, Workload};

const QS: [f64; 6] = [0.0, 0.5, 0.9, 0.95, 0.99, 0.999];

#[test]
fn summary_tail_matches_the_full_histogram_exactly() {
    // The tail is the Full histogram in compact clothing: same bucket
    // ladder, same counts, same quantile estimates — but available at
    // every detail level.
    let scenarios = [
        (
            PolicyKind::SharedBaseline,
            Workload::closed(vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()], 3),
        ),
        (
            PolicyKind::CamdnFull,
            Workload::bursty(vec![zoo::mobilenet_v2(), zoo::gnmt()], 2, 3, 15.0),
        ),
    ];
    for (policy, workload) in scenarios {
        let run = Simulation::builder()
            .policy(policy)
            .workload(workload)
            .detail(DetailLevel::Full)
            .run()
            .expect("full run");
        let tail = run.summary.latency_tail;
        let hist = run
            .detail
            .as_ref()
            .and_then(|d| d.latency_hist.as_ref())
            .expect("Full keeps the histogram");
        assert_eq!(hist.counts(), &tail.counts()[..], "{policy:?}: counts");
        assert_eq!(hist.total(), tail.total(), "{policy:?}: totals");
        assert_eq!(hist.min(), tail.min_cycles(), "{policy:?}: min");
        assert_eq!(hist.max(), tail.max_cycles(), "{policy:?}: max");
        for q in QS {
            assert_eq!(
                tail.quantile_cycles(q),
                hist.quantile(q),
                "{policy:?}: quantile {q}"
            );
        }
        // Percentile estimates are monotone in q and bracketed by the
        // recorded extremes.
        let mut prev = 0;
        for q in QS {
            let v = tail.quantile_cycles(q).expect("non-empty");
            assert!(v >= prev, "{policy:?}: quantiles must be monotone");
            prev = v;
        }
        assert!(tail.quantile_cycles(1.0) == tail.max_cycles());
        assert!(tail.quantile_cycles(0.0).unwrap() >= tail.min_cycles().unwrap());
    }
}

#[test]
fn seed_folded_tail_is_the_merge_of_the_cell_tails() {
    // SeedAggregate pools per-seed tails by histogram merge: the
    // group's tail must equal folding each cell's tail by hand, so
    // per-coordinate percentiles rank the pooled samples.
    let grid = Sweep::grid()
        .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
        .workload(
            "mb",
            Workload::closed(vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()], 2),
        )
        .seeds([1, 2, 3])
        .run()
        .expect("grid");
    let stats = grid.seed_stats();
    assert_eq!(stats.len(), 2, "one group per policy");
    for s in &stats {
        let mut expect = LatencyTail::new();
        let mut samples = 0u64;
        for cell in &grid.cells {
            if cell.coord.policy != s.coord.policy {
                continue;
            }
            let tail = cell.outcome.as_ref().unwrap().summary.latency_tail;
            expect.merge(&tail);
            samples += tail.total();
        }
        assert_eq!(s.latency_tail, expect, "pooled tail is the exact merge");
        assert_eq!(s.latency_tail.total(), samples);
        assert!(samples > 0, "every seed measured inferences");
        assert!(s.latency_tail.p99_ms() >= s.latency_tail.p50_ms());
    }
}

#[test]
fn tail_percentiles_never_understate_the_mean_regime() {
    // Sanity anchor on real data: p50 of a closed-loop run sits at or
    // above the fastest inference and at or below the slowest, and the
    // conservative p99 estimate is never below the p50.
    let run = Simulation::builder()
        .policy(PolicyKind::CamdnFull)
        .workload(Workload::closed(vec![zoo::mobilenet_v2()], 4))
        .run()
        .expect("run");
    let tail = run.summary.latency_tail;
    assert_eq!(tail.total(), run.summary.inferences as u64);
    let min = tail.min_cycles().unwrap();
    let max = tail.max_cycles().unwrap();
    let p50 = tail.quantile_cycles(0.5).unwrap();
    let p99 = tail.quantile_cycles(0.99).unwrap();
    assert!(
        min <= p50 && p50 <= p99 && p99 <= max,
        "estimates must be ordered and clamped to the recorded extremes: \
         min {min}, p50 {p50}, p99 {p99}, max {max}"
    );
}
