//! Integration tests of the trace subsystem end to end: generated
//! traces must replay deterministically (bit-identical windowed
//! metrics run-to-run and through the file format), the windowed
//! streaming path must hold only one window in memory across a
//! million-arrival trace, and the replay aggregate must turn any
//! delivery order of the same windows into the in-order result.

#![forbid(unsafe_code)]

use camdn::common::SimRng;
use camdn::trace::{
    windows, ReplayAggregate, ReplayConfig, ReplayDriver, ReplaySink, SlaClass, TraceGen,
    TraceGenConfig, TraceReader, TraceRecord, TraceWriter, WindowMetrics,
};
use camdn::PolicyKind;

fn unique_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "camdn-trace-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    p
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

fn replay_cfg() -> ReplayConfig {
    ReplayConfig::new(PolicyKind::CamdnFull, 20_000)
}

fn replay_collect(cfg: &ReplayConfig) -> Vec<WindowMetrics> {
    let records = TraceGen::new(test_trace()).expect("gen config").map(Ok);
    let mut driver = ReplayDriver::new(cfg.clone()).expect("replay config");
    let mut sink = Collect::default();
    driver.replay(records, &mut sink).expect("replay");
    sink.0
}

#[test]
fn replaying_the_same_trace_twice_is_bit_identical() {
    let a = replay_collect(&replay_cfg());
    let b = replay_collect(&replay_cfg());
    assert!(!a.is_empty(), "the test trace must produce windows");
    assert_eq!(a, b, "same seeded trace must give identical metrics");
    // The windows carry real analytics, not zeroed placeholders.
    assert!(a.iter().any(|w| w.tail.total() > 0));
    assert!(a.iter().any(|w| !w.queue_depth.is_empty()));
    assert!(a.iter().any(|w| !w.tenants.is_empty()));
}

#[test]
fn replay_through_the_file_format_matches_in_memory_replay() {
    let path = unique_path("roundtrip.ndjson");
    let file = std::fs::File::create(&path).expect("create trace");
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file)).expect("header");
    for rec in TraceGen::new(test_trace()).expect("gen config") {
        writer.write(&rec).expect("record");
    }
    writer.finish().expect("flush");

    let direct = replay_collect(&replay_cfg());
    let mut driver = ReplayDriver::new(replay_cfg()).expect("replay config");
    let mut sink = Collect::default();
    driver
        .replay(TraceReader::open(&path).expect("reopen"), &mut sink)
        .expect("replay from file");
    std::fs::remove_file(&path).ok();
    assert_eq!(sink.0, direct, "file roundtrip must not change metrics");
}

#[test]
fn windowing_streams_a_million_arrivals_one_window_at_a_time() {
    // 10 arrivals/window over 1M arrivals: the adapter must never
    // buffer more than one window's records, so peak memory is the
    // densest window — not the trace.
    let window_us = 1_000u64;
    let total = 1_000_000u64;
    let records = (0..total).map(|i| {
        Ok(TraceRecord {
            ts_us: i * 100,
            tenant: format!("t{:03}", i % 8),
            model: "MB".to_string(),
            class: SlaClass::Medium,
        })
    });
    let mut seen = 0u64;
    let mut max_window_len = 0usize;
    let mut last_index = None;
    for w in windows(records, window_us) {
        let w = w.expect("synthetic trace is well-formed");
        seen += w.records.len() as u64;
        max_window_len = max_window_len.max(w.records.len());
        assert!(last_index < Some(w.index), "windows must arrive in order");
        last_index = Some(w.index);
    }
    assert_eq!(seen, total, "every arrival must land in exactly one window");
    assert_eq!(
        max_window_len, 10,
        "one window buffers exactly its own arrivals"
    );
}

#[test]
fn aggregate_matches_the_sum_of_windows() {
    let cfg = replay_cfg();
    let windows = replay_collect(&cfg);
    let records = TraceGen::new(test_trace()).expect("gen config").map(Ok);
    let mut driver = ReplayDriver::new(cfg).expect("replay config");
    let mut agg = ReplayAggregate::new();
    driver.replay(records, &mut agg).expect("replay");

    assert_eq!(agg.windows, windows.len() as u64);
    assert_eq!(
        agg.arrivals,
        windows.iter().map(|w| w.arrivals).sum::<u64>()
    );
    assert_eq!(agg.sla_met, windows.iter().map(|w| w.sla_met).sum::<u64>());
    assert_eq!(
        agg.tail.total(),
        windows.iter().map(|w| w.tail.total()).sum::<u64>()
    );
    let worst = windows.iter().map(|w| w.sla_rate()).fold(1.0f64, f64::min);
    assert_eq!(agg.worst_window_sla, worst);
}

#[test]
fn replay_sinks_are_independent_of_delivery_order() {
    // Windows fed to a sink in any order — a parallel replay delivers
    // them as they finish — must aggregate to the in-order result.
    let in_order = replay_collect(&replay_cfg());
    assert!(in_order.len() >= 4, "need enough windows to permute");
    let mut agg = ReplayAggregate::new();
    for w in &in_order {
        agg.on_window(w);
    }
    let expected_agg = format!("{agg:?}");

    for seed in [1, 2, 3, 4] {
        let mut order: Vec<usize> = (0..in_order.len()).collect();
        SimRng::new(seed).shuffle(&mut order);
        assert!(
            order.windows(2).any(|p| p[0] > p[1]),
            "seed {seed} must actually permute"
        );
        let mut agg = ReplayAggregate::new();
        for &i in &order {
            agg.on_window(&in_order[i]);
        }
        assert_eq!(
            format!("{agg:?}"),
            expected_agg,
            "aggregate, order {order:?}"
        );
    }
}
