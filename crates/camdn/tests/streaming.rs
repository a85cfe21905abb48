//! Integration tests of the streaming result pipeline at the sweep
//! layer: the `SeedAggregate` sink must fold the seeds axis into the
//! same statistics a hand computation gives, and no sink may depend on
//! the order cells are delivered in.

#![forbid(unsafe_code)]

use camdn::common::SimRng;
use camdn::{
    CellOutcome, CellSink, MemorySink, PolicyKind, SeedAggregate, Sweep, SweepBuilder, SweepResult,
    Workload,
};
use camdn_models::zoo;

fn small_grid() -> SweepBuilder {
    Sweep::grid()
        .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
        .workload("mb", Workload::closed(vec![zoo::mobilenet_v2()], 2))
        .seeds([1, 2, 3])
}

#[test]
fn seed_aggregate_sink_matches_in_memory_statistics() {
    // Deliver the grid's cells to a SeedAggregate through the sink
    // interface, latest first, and compare to folding the buffered
    // result; both must agree with a hand computation over the
    // per-seed summaries.
    let buffered = small_grid().run().expect("in-memory grid");
    let mut sink = SeedAggregate::new();
    for cell in buffered.cells.iter().rev() {
        let outcome = CellOutcome {
            outcome: cell.outcome.clone(),
            wall_s: cell.wall_s,
        };
        sink.on_cell(cell.coord, outcome);
    }
    let streamed_stats = sink.stats();
    let buffered_stats = buffered.seed_stats();
    assert_eq!(streamed_stats.len(), 2, "one group per policy");
    assert_eq!(buffered_stats.len(), 2);

    for (s, b) in streamed_stats.iter().zip(&buffered_stats) {
        assert_eq!(s.coord, b.coord);
        assert_eq!(s.n, 3, "three seeds per group");
        assert_eq!(s.errors, 0);
        assert_eq!(s.avg_latency_ms, b.avg_latency_ms);
        assert_eq!(s.makespan_ms, b.makespan_ms);
    }

    // Hand computation for the baseline group (cells 0..3).
    let lats: Vec<f64> = buffered.cells[..3]
        .iter()
        .map(|c| c.outcome.as_ref().unwrap().summary.avg_latency_ms)
        .collect();
    let mean = lats.iter().sum::<f64>() / 3.0;
    let var = lats.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / 2.0;
    let g = &buffered_stats[0];
    assert!((g.avg_latency_ms.mean - mean).abs() < 1e-9);
    assert!((g.avg_latency_ms.stddev - var.sqrt()).abs() < 1e-9);
    let expect_ci = camdn::common::stats::t95(2) * var.sqrt() / 3.0_f64.sqrt();
    assert!((g.avg_latency_ms.ci95 - expect_ci).abs() < 1e-9);
}

/// Replays `result`'s cells into a fresh `MemorySink` and
/// `SeedAggregate` in the given delivery order, and renders what each
/// produces with `Debug`, which prints every `f64` in shortest
/// round-trip form: equal text means bit-identical output.
fn deliver_in_order(result: &SweepResult, order: &[usize]) -> (String, String) {
    let mut memory = MemorySink::new(result.axes.clone());
    let mut agg = SeedAggregate::new();
    for &i in order {
        let cell = &result.cells[i];
        let outcome = || CellOutcome {
            outcome: cell.outcome.clone(),
            wall_s: cell.wall_s,
        };
        memory.on_cell(cell.coord, outcome());
        agg.on_cell(cell.coord, outcome());
    }
    (
        format!("{:?}", memory.into_cells()),
        format!("{:?}", agg.stats()),
    )
}

#[test]
fn sinks_are_independent_of_delivery_order() {
    // Worker threads deliver cells in completion order, so the sinks
    // must turn any permutation of the same cells into the row-major
    // result.
    let result = small_grid().run().expect("in-memory grid");
    let row_major: Vec<usize> = (0..result.cells.len()).collect();
    let expected = deliver_in_order(&result, &row_major);
    for seed in [1, 2, 3, 4] {
        let mut order = row_major.clone();
        SimRng::new(seed).shuffle(&mut order);
        assert_ne!(order, row_major, "seed {seed} must actually permute");
        assert_eq!(
            deliver_in_order(&result, &order),
            expected,
            "delivery order {order:?}"
        );
    }
}
