//! Integration tests of the streaming result pipeline at the sweep
//! layer: the JSONL cell log must reproduce the in-memory grid
//! cell-for-cell, a killed-and-resumed grid must equal a cold run
//! bit-for-bit, the `SeedAggregate` sink must fold the seeds axis
//! into the same statistics a hand computation gives, and no sink may
//! depend on the order cells are delivered in.

#![forbid(unsafe_code)]

use camdn::common::SimRng;
use camdn::{
    CellOutcome, CellSink, DetailLevel, EngineError, MemorySink, PolicyKind, SeedAggregate, Sweep,
    SweepBuilder, SweepResult, Workload,
};
use camdn_models::zoo;

fn unique_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "camdn-streaming-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    p
}

fn small_grid() -> SweepBuilder {
    Sweep::grid()
        .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
        .workload("mb", Workload::closed(vec![zoo::mobilenet_v2()], 2))
        .seeds([1, 2, 3])
}

fn assert_same_cells(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.axes, b.axes);
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.coord, y.coord);
        assert_eq!(x.outcome, y.outcome, "cell {:?} diverged", x.coord);
    }
}

#[test]
fn streamed_grid_equals_in_memory_grid_cell_for_cell() {
    let path = unique_path("streamed");
    let streamed = small_grid().run_streamed(&path).expect("streamed grid");
    let in_memory = small_grid().run().expect("in-memory grid");
    assert_same_cells(&streamed, &in_memory);
    assert_eq!(streamed.cells_resumed, 0);

    // The log itself carries a header + one line per cell, and feeding
    // it back through resume re-runs nothing.
    let text = std::fs::read_to_string(&path).expect("log exists");
    assert_eq!(text.lines().count(), 1 + streamed.cells.len());
    let header = text.lines().next().unwrap();
    assert!(header.contains("camdn-sweep-cells/3"));
    assert!(
        header.contains("\"channels\": [\"default\"]"),
        "header names the channel axis: {header}"
    );
    assert!(
        header.contains("\"hist_edges\": [65536,"),
        "header names the latency bucket edges: {header}"
    );
    // Every ok cell line serializes the latency tail.
    for line in text.lines().skip(1) {
        assert!(line.contains("\"lat_counts\": ["), "cell line: {line}");
        assert!(line.contains("\"p99_ms\": "), "cell line: {line}");
    }
    let resumed = small_grid().resume(&path).expect("resume full log");
    assert_eq!(
        resumed.cells_resumed,
        resumed.cells.len(),
        "a complete log re-runs nothing"
    );
    assert_same_cells(&resumed, &in_memory);
    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_grid_resumes_to_a_bit_for_bit_cold_run() {
    // Simulate a mid-flight kill: stream the grid, then truncate the
    // log to its header + first two cell lines + one *torn* line (a
    // partial write the kill interrupted).
    let path = unique_path("resume");
    let cold = small_grid().run_streamed(&path).expect("cold grid");
    let text = std::fs::read_to_string(&path).expect("log");
    let lines: Vec<&str> = text.lines().collect();
    let keep = 3; // header + 2 cells
    let torn = &lines[keep][..lines[keep].len() / 2];
    let truncated = format!("{}\n{}", lines[..keep].join("\n"), torn);
    std::fs::write(&path, truncated).expect("truncate log");

    let resumed = small_grid().resume(&path).expect("resumed grid");
    assert_eq!(
        resumed.cells_resumed, 2,
        "exactly the two recorded cells are skipped"
    );
    assert_same_cells(&resumed, &cold);
    // Bit-for-bit includes the latency tail: resumed-from-log cells
    // reproduce their recorded bucket counts exactly.
    for cell in &resumed.cells {
        let tail = cell.outcome.as_ref().unwrap().summary.latency_tail;
        assert!(tail.total() > 0, "every cell measured inferences");
        assert!(tail.p99_ms() > 0.0);
    }

    // After the resume the log is complete again: resuming once more
    // runs nothing and still matches.
    let resumed_again = small_grid().resume(&path).expect("second resume");
    assert_eq!(resumed_again.cells_resumed, resumed_again.cells.len());
    assert_same_cells(&resumed_again, &cold);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_a_v1_log_naming_its_schema() {
    // The log the retired `camdn-sweep-cells/1` writer produced for
    // this grid's first cell (no channel axis, no latency tail).
    // Resume reads only /3 logs: it must return a typed error that
    // names the old schema, and leave the log as it was.
    let path = unique_path("v1log");
    let v1_log = "{\"schema\": \"camdn-sweep-cells/1\", \
                  \"policies\": [\"Baseline\", \"CaMDN(Full)\"], \"socs\": [\"paper\"], \
                  \"caches\": [\"default\"], \"workloads\": [\"mb\"], \"qos\": [\"closed\"], \
                  \"lookaheads\": [\"default\"], \"seeds\": [1, 2, 3]}\n\
                  {\"policy\": 0, \"soc\": 0, \"cache\": 0, \"workload\": 0, \"qos\": 0, \
                  \"lookahead\": 0, \"seed\": 0, \"wall_s\": 0.5, \"ok\": true, \
                  \"label\": \"Baseline\", \"tasks\": 1, \"inferences\": 2, \
                  \"cache_hit_rate\": 0.5, \"avg_latency_ms\": 1.5, \"mem_mb_per_model\": 3, \
                  \"makespan_ms\": 3, \"sla_rate\": 1, \"multicast_saved_mb\": 0}\n";
    std::fs::write(&path, v1_log).expect("write v1 log");
    let err = small_grid()
        .resume(&path)
        .expect_err("a v1 log must not resume");
    assert!(
        matches!(&err, EngineError::InvalidConfig(msg) if msg.contains("camdn-sweep-cells/1")),
        "{err:?}"
    );
    let text = std::fs::read_to_string(&path).expect("log still there");
    assert_eq!(text, v1_log, "a rejected log is not rewritten");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_a_v1_log_when_the_grid_has_a_channel_axis() {
    // A v1 grid could not express a channel axis, so its coordinates
    // are ambiguous against one: the log must be rejected, not
    // silently merged at channel 0.
    let path = unique_path("v1chan");
    let v1_header = "{\"schema\": \"camdn-sweep-cells/1\", \
                     \"policies\": [\"Baseline\"], \"socs\": [\"paper\"], \
                     \"caches\": [\"default\"], \"workloads\": [\"mb\"], \"qos\": [\"closed\"], \
                     \"lookaheads\": [\"default\"], \"seeds\": [1]}";
    std::fs::write(&path, format!("{v1_header}\n")).expect("write v1 header");
    let err = Sweep::grid()
        .workload("mb", Workload::closed(vec![zoo::mobilenet_v2()], 2))
        .seeds([1])
        .channel_counts([2, 4])
        .resume(&path)
        .expect_err("channel-axis grid must reject a v1 log");
    assert!(err.to_string().contains("camdn-sweep-cells/1"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_a_log_from_a_different_grid() {
    let path = unique_path("mismatch");
    small_grid().run_streamed(&path).expect("grid");
    // Same file, different axes: one more seed.
    let err = small_grid()
        .seeds([4])
        .resume(&path)
        .expect_err("axes mismatch must fail");
    assert!(
        err.to_string().contains("different grid"),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn detailed_cells_stream_summaries_and_resume_summary_only() {
    // Streaming records summaries; a resumed cell is summary-only even
    // when the live grid carries detail. The summaries still match.
    let path = unique_path("detail");
    let cold = small_grid()
        .detail(DetailLevel::Tasks)
        .run_streamed(&path)
        .expect("detailed grid");
    let resumed = small_grid()
        .detail(DetailLevel::Tasks)
        .resume(&path)
        .expect("resumed grid");
    for (x, y) in cold.cells.iter().zip(&resumed.cells) {
        let (a, b) = (x.outcome.as_ref().unwrap(), y.outcome.as_ref().unwrap());
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.policy, b.policy);
        assert!(a.detail.is_some(), "live cell keeps its detail");
        assert!(b.detail.is_none(), "resumed cell is summary-only");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn seed_aggregate_sink_matches_in_memory_statistics() {
    // Drive the grid into the SeedAggregate sink without buffering,
    // and compare to folding the buffered result; both must agree with
    // a hand computation over the per-seed summaries.
    let mut sink = SeedAggregate::new();
    let info = small_grid().run_with_sink(&mut sink).expect("sink run");
    assert_eq!(info.cells_total, 6);
    assert_eq!(info.cells_run, 6);
    let streamed_stats = sink.stats();

    let buffered = small_grid().run().expect("in-memory grid");
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

/// A sink that only counts, standing in for any custom consumer.
struct Counting(usize);

impl CellSink for Counting {
    fn on_cell(&mut self, _coord: camdn::CellCoord, outcome: camdn::CellOutcome) {
        assert!(outcome.outcome.is_ok());
        self.0 += 1;
    }
}

#[test]
fn custom_sinks_see_every_cell_without_buffering() {
    let mut sink = Counting(0);
    let info = small_grid().run_with_sink(&mut sink).expect("sink run");
    assert_eq!(sink.0, 6);
    assert!(info.plan_cache.is_some(), "shared plan cache still applies");
    assert!(info.threads >= 1);
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

#[test]
fn resume_reads_a_shuffled_log_back_to_the_same_cells() {
    // A log written by several workers holds its cell lines in
    // completion order; resume must place each line by its coordinate.
    let path = unique_path("shuffled");
    let streamed = small_grid().run_streamed(&path).expect("streamed grid");
    let text = std::fs::read_to_string(&path).expect("log exists");
    let mut lines: Vec<&str> = text.lines().collect();
    let header = lines.remove(0);
    SimRng::new(7).shuffle(&mut lines);
    let shuffled = format!("{header}\n{}\n", lines.join("\n"));
    assert_ne!(shuffled, text, "the cell lines must actually move");
    std::fs::write(&path, shuffled).expect("rewrite log");
    let resumed = small_grid().resume(&path).expect("resume shuffled log");
    assert_eq!(
        resumed.cells_resumed,
        resumed.cells.len(),
        "a complete log re-runs nothing, in any line order"
    );
    assert_same_cells(&resumed, &streamed);
    std::fs::remove_file(&path).ok();
}
