//! Engine throughput harness: simulated-cycles-per-wall-second, batched
//! fast paths vs the per-line reference model, tracked over time via
//! `BENCH_engine.json`.
//!
//! Each scenario runs twice — once through the batched memory-system
//! fast paths (the default) and once with
//! `SimulationBuilder::reference_model` — and the harness asserts the
//! two `RunOutput`s are identical before reporting the speedup, so
//! every benchmark run doubles as a whole-engine differential test.
//! It also asserts that the summary-level latency tail is populated
//! with exactly one sample per measured inference at *every* detail
//! level — the O(bins) tail accounting rides the aggregation step, not
//! the hot loop, and the cycles-per-second figures tracked per commit
//! would expose any regression there.
//!
//! The `tag_bound_sweep_w*` family re-times the contention workload at
//! 4 and 8 ways of the same 16 MiB footprint (`baseline_contention` is
//! the 16-way point), so a tag-pass regression shows up per lane width,
//! not just in aggregate.
//!
//! Usage: `cargo run --release -p camdn-bench --bin throughput`
//!
//! * `CAMDN_QUICK=1` — reduced scenario sizes (CI smoke mode).
//! * `CAMDN_BENCH_OUT=<path>` — output path (default `BENCH_engine.json`).

#![forbid(unsafe_code)]

use camdn_bench::{cycling_workload, quick_mode};
use camdn_common::config::SocConfig;
use camdn_models::zoo;
use camdn_runtime::{PolicyKind, RunOutput, Simulation, Workload};
use camdn_sweep::run_cells;

struct Scenario {
    name: &'static str,
    policy: PolicyKind,
    workload: Workload,
    soc: SocConfig,
}

/// The Table II SoC with the shared cache re-diced to `ways` ways at
/// the same 16 MiB footprint (sets shrink as ways grow) and the NPU
/// subspace kept at its paper 3/4 share.
fn soc_with_ways(ways: u32) -> SocConfig {
    let mut soc = SocConfig::paper_default();
    soc.cache.ways = ways;
    soc.cache.npu_ways = ways * 3 / 4;
    soc
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let rounds = if quick { 2 } else { 3 };
    let small: Vec<_> = (0..4).map(|_| zoo::mobilenet_v2()).collect();
    let large = if quick {
        vec![zoo::gnmt(), zoo::bert_base(), zoo::resnet50(), zoo::gnmt()]
    } else {
        // The 16-tenant Section IV-A4 workload on the transparent
        // baseline: every weight tensor streams through the shared
        // cache under full contention — the simulator's hottest regime.
        cycling_workload(16)
    };
    let open = if quick {
        Workload::poisson(
            vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()],
            0.05,
            50.0,
        )
    } else {
        Workload::poisson(zoo::all(), 0.05, 100.0)
    };
    let mut v = vec![
        Scenario {
            name: "small_closed",
            policy: PolicyKind::SharedBaseline,
            workload: Workload::closed(small, rounds),
            soc: SocConfig::paper_default(),
        },
        Scenario {
            // The paper's own system on the heavy end of the zoo: big
            // weight tensors move as NEC bulk DMA (fills, bypasses,
            // multicast), the regime the closed-form burst timing
            // targets.
            name: "large_tensor_multi_tenant",
            policy: PolicyKind::CamdnFull,
            workload: Workload::closed(large.clone(), 2),
            soc: SocConfig::paper_default(),
        },
        Scenario {
            // Same tenants through the transparent baseline: every line
            // probes the shared tag array, so this one is bounded by the
            // (shared) tag pass rather than the batched memory pass.
            name: "baseline_contention",
            policy: PolicyKind::SharedBaseline,
            workload: Workload::closed(large.clone(), 2),
            soc: SocConfig::paper_default(),
        },
        Scenario {
            name: "open_loop_poisson",
            policy: PolicyKind::CamdnFull,
            workload: open,
            soc: SocConfig::paper_default(),
        },
    ];
    // The tag-bound family: the contention workload re-diced across
    // set × way splits of the same 16 MiB footprint. Each ways count
    // monomorphizes a different tag-compare lane width, so a lane-level
    // regression is visible even when the 16-way headline number holds.
    // The 16-way point is `baseline_contention` itself.
    for (name, ways) in [("tag_bound_sweep_w4", 4u32), ("tag_bound_sweep_w8", 8)] {
        v.push(Scenario {
            name,
            policy: PolicyKind::SharedBaseline,
            workload: Workload::closed(large.clone(), 2),
            soc: soc_with_ways(ways),
        });
    }
    v
}

/// A run's output with its cell's wall seconds.
type TimedRun = (RunOutput, f64);

/// Runs one scenario through both memory models on the sweep executor
/// (one worker: the wall-clock numbers must not contend), returning
/// `(reference, batched)`.
fn run_pair(sc: &Scenario) -> (TimedRun, TimedRun) {
    let mk = |reference| {
        Simulation::builder()
            .soc(sc.soc)
            .policy(sc.policy)
            .workload(sc.workload.clone())
            .reference_model(reference)
    };
    // Reference (seed-equivalent per-line path) first, then the
    // batched fast paths.
    let mut runs = run_cells(vec![mk(true), mk(false)], Some(1));
    let fast = runs.pop().expect("batched cell");
    let reference = runs.pop().expect("reference cell");
    let unwrap = |name: &str, r: camdn_sweep::CellRun| match r.outcome {
        Ok(result) => (result, r.wall_s),
        Err(e) => panic!("{}: {} run failed: {e}", sc.name, name),
    };
    (unwrap("reference", reference), unwrap("batched", fast))
}

fn main() {
    let quick = quick_mode();
    let mut rows = Vec::new();
    for sc in scenarios(quick) {
        let ((r_ref, wall_ref), (r_fast, wall_fast)) = run_pair(&sc);
        let identical = r_ref == r_fast;
        assert!(
            identical,
            "{}: batched result diverged from the reference model",
            sc.name
        );
        // Tail stats cost O(bins) and are filled during aggregation:
        // every measured inference lands in the compact tail, at the
        // default detail level and bit-identically at summary-only.
        let tail = &r_fast.summary.latency_tail;
        assert_eq!(
            tail.total(),
            r_fast.summary.inferences as u64,
            "{}: latency tail must count every measured inference",
            sc.name
        );
        let summary_only = Simulation::builder()
            .soc(sc.soc)
            .policy(sc.policy)
            .workload(sc.workload.clone())
            .detail(camdn_runtime::DetailLevel::Summary)
            .run()
            .expect("summary-only run");
        assert_eq!(
            summary_only.summary, r_fast.summary,
            "{}: summary (incl. tail) must be bit-identical at every detail level",
            sc.name
        );
        let sim_cycles = camdn_common::types::ms_to_cycles(r_fast.summary.makespan_ms);
        let cps_fast = sim_cycles as f64 / wall_fast.max(1e-9);
        let cps_ref = sim_cycles as f64 / wall_ref.max(1e-9);
        let speedup = cps_fast / cps_ref.max(1e-9);
        println!(
            "{:<24} {:>12} sim-cycles  batched {:>10.3e} cyc/s  reference {:>10.3e} cyc/s  speedup {:>5.2}x",
            sc.name, sim_cycles, cps_fast, cps_ref, speedup
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"policy\": \"{}\",\n",
                "      \"tasks\": {},\n",
                "      \"sim_cycles\": {},\n",
                "      \"wall_s_batched\": {:.6},\n",
                "      \"wall_s_reference\": {:.6},\n",
                "      \"cycles_per_sec_batched\": {:.1},\n",
                "      \"cycles_per_sec_reference\": {:.1},\n",
                "      \"speedup\": {:.3},\n",
                "      \"tag_lane_width\": {},\n",
                "      \"results_identical\": {}\n",
                "    }}"
            ),
            sc.name,
            sc.policy.name(),
            r_fast.summary.tasks,
            sim_cycles,
            wall_fast,
            wall_ref,
            cps_fast,
            cps_ref,
            speedup,
            sc.soc.cache.ways,
            identical
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"camdn-bench-engine/3\",\n  \"quick\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        quick,
        rows.join(",\n")
    );
    let out = std::env::var("CAMDN_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".into());
    std::fs::write(&out, json).expect("write BENCH_engine.json");
    println!("wrote {out}");
}
