//! The CaMDN paper's artifacts on the paper's own grids: Figs. 2, 3,
//! 7, 8 and 9, Table III, and a per-policy traffic diagnostic. Each
//! figure prints its tables and returns its claims, the paper's value
//! next to the simulated one; a closing scorecard lists every claim of
//! the figures that ran.
//!
//! Usage: `cargo run --release -p camdn-bench --bin paper [ID]...`,
//! where each `ID` is one of `fig2`, `fig3`, `fig7`, `fig8`, `fig9`,
//! `table3` or `diag`. With no ids, everything runs.

#![forbid(unsafe_code)]

use camdn_analysis::{area_breakdown, profile_zoo, AreaModel};
use camdn_bench::{
    cycling_workload, isolated_latencies, mean_by_model, print_table, speedup_policies,
};
use camdn_common::config::{CacheConfig, NpuConfig};
use camdn_common::stats::geomean;
use camdn_common::types::MIB;
use camdn_mapper::MapperConfig;
use camdn_runtime::{qos_metrics, DetailLevel, PolicyKind, RunOutput, Simulation, Workload};
use camdn_sweep::{Sweep, SweepBuilder};
use std::process::ExitCode;

/// One paper-vs-here comparison: its id, the paper's value and the
/// simulated value.
struct Claim(&'static str, &'static str, String);

/// An artifact: prints its tables and returns its claims.
type Figure = fn(&mut Shared) -> Vec<Claim>;

/// Runs one artifact leaves for a later one. Fig. 8(b)'s 16-DNN cells
/// (AuRORA, HW-only and Full over 2 rounds at 16 MiB) are `diag`'s
/// runs of those policies.
#[derive(Default)]
struct Shared {
    dnn16: Vec<(PolicyKind, RunOutput)>,
}

const FIGURES: [(&str, Figure); 7] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table3", table3),
    ("diag", diag),
];

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = ids.iter().find(|id| FIGURES.iter().all(|(f, _)| f != id)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!(
            "unknown figure {bad:?}; expected any of {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut rows = Vec::new();
    let mut shared = Shared::default();
    for (id, figure) in FIGURES {
        if ids.is_empty() || ids.iter().any(|s| s == id) {
            rows.extend(
                figure(&mut shared)
                    .into_iter()
                    .map(|Claim(id, paper, here)| vec![id.into(), paper.into(), here]),
            );
        }
    }
    print_table(
        "Scorecard — paper vs here",
        &["claim", "paper", "here"],
        &rows,
    );
    ExitCode::SUCCESS
}

/// `lo..hi` over `values`, each with `prec` decimals and `unit`.
fn span(values: &[f64], prec: usize, unit: &str) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{lo:.prec$}{unit}..{hi:.prec$}{unit}")
}

/// Fig. 2: the motivation experiment — cache hit rate, memory access
/// per model and average latency on a plain shared transparent cache,
/// sweeping the number of co-located DNNs and the cache capacity.
///
/// A cell the engine rejects prints `n/a` with its error, and its cache
/// row is left out of the 32-DNN ranges: 4 MiB × 32 DNNs reaches past
/// the transparent cache's 16-bit tag lanes (`InvalidConfig`).
fn fig2(_: &mut Shared) -> Vec<Claim> {
    const DNNS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    const CACHE_MIBS: [u64; 5] = [4, 8, 16, 32, 64];

    // Workload axis: every model participates at every tenant count, so
    // rotate the zoo (N=1 averages eight single-model runs), remembering
    // which count each axis entry belongs to. The cache axis and the
    // cross-product are the sweep's job.
    let zoo = camdn_models::zoo::all();
    let mut workloads = Vec::new();
    let mut wl_count_idx = Vec::new(); // workload-axis index -> DNNS index
    for (ni, &n) in DNNS.iter().enumerate() {
        for rot in 0..(zoo.len() / n).max(1) {
            let models = (0..n)
                .map(|i| zoo[(rot * n + i) % zoo.len()].clone())
                .collect();
            workloads.push((format!("{n}dnn/rot{rot}"), Workload::closed(models, 2)));
            wl_count_idx.push(ni);
        }
    }
    let grid = Sweep::grid()
        .policy(PolicyKind::SharedBaseline)
        .cache_bytes(CACHE_MIBS.iter().map(|mb| mb * MIB))
        .workloads(workloads)
        .run()
        .expect("fig2 grid");

    // Sum hit rate, memory, latency and rotations per (cache, #DNN) cell;
    // a cell with a failed rotation keeps the error instead.
    let mut sums: Vec<Vec<Result<[f64; 4], String>>> =
        vec![vec![Ok([0.0; 4]); DNNS.len()]; CACHE_MIBS.len()];
    for cell in &grid.cells {
        let slot = &mut sums[cell.coord.cache][wl_count_idx[cell.coord.workload]];
        match (&cell.outcome, slot.as_mut()) {
            (Ok(r), Ok(s)) => {
                s[0] += r.summary.cache_hit_rate;
                s[1] += r.summary.mem_mb_per_model;
                s[2] += r.summary.avg_latency_ms;
                s[3] += 1.0;
            }
            (Err(e), Ok(_)) => *slot = Err(format!("{e:?}")),
            (_, Err(_)) => {}
        }
    }
    let cell = |ci: usize, ni: usize| -> Option<[f64; 3]> {
        let s = sums[ci][ni].as_ref().ok()?;
        Some([s[0] / s[3], s[1] / s[3], s[2] / s[3]])
    };

    let headers: Vec<String> = std::iter::once("cache".to_string())
        .chain(DNNS.iter().map(|n| format!("{n} DNNs")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let table = |title: &str, stat: usize, prec: usize| {
        let rows: Vec<Vec<String>> = CACHE_MIBS
            .iter()
            .enumerate()
            .map(|(ci, mb)| {
                std::iter::once(format!("{mb}MB"))
                    .chain((0..DNNS.len()).map(|ni| {
                        cell(ci, ni).map_or("n/a".into(), |c| format!("{:.prec$}", c[stat]))
                    }))
                    .collect()
            })
            .collect();
        print_table(title, &headers, &rows);
    };
    table("Fig. 2(a) — cache hit rate", 0, 3);
    table("Fig. 2(b) — memory access (MB/model)", 1, 1);
    table("Fig. 2(c) — average latency (ms)", 2, 1);
    println!();
    for (ci, row) in sums.iter().enumerate() {
        for (ni, s) in row.iter().enumerate() {
            if let Err(e) = s {
                println!("n/a at {}MB × {} DNNs: {e}", CACHE_MIBS[ci], DNNS[ni]);
            }
        }
    }

    // Headline deltas at the largest tenant count, per the paper's text.
    let last = DNNS.len() - 1;
    let (mut hit_drop, mut mem_rise, mut lat_rise) = (Vec::new(), Vec::new(), Vec::new());
    for (ci, mb) in CACHE_MIBS.iter().enumerate() {
        let (Some(one), Some(most)) = (cell(ci, 0), cell(ci, last)) else {
            println!(
                "The {mb}MB row is left out of the {}-DNN ranges in the scorecard.",
                DNNS[last]
            );
            continue;
        };
        hit_drop.push(100.0 * (one[0] - most[0]) / one[0].max(1e-9));
        mem_rise.push(100.0 * (most[1] - one[1]) / one[1].max(1e-9));
        lat_rise.push(most[2] / one[2].max(1e-9));
    }
    println!(
        "[{} cells in {:.2}s on {} threads, one shared mapping per model]",
        grid.cells.len(),
        grid.wall_s,
        grid.threads
    );
    vec![
        Claim(
            "fig2.hit_drop_32dnn",
            "18.9%..59.7%",
            span(&hit_drop, 1, "%"),
        ),
        Claim(
            "fig2.mem_rise_32dnn",
            "32.7%..64.1%",
            span(&mem_rise, 1, "%"),
        ),
        Claim(
            "fig2.latency_rise_32dnn",
            "3.46x..5.65x",
            span(&lat_rise, 2, "x"),
        ),
    ]
}

/// Fig. 3: reuse-count and reuse-distance statistics of the benchmark
/// models on the shared cache (the workload analysis that motivates
/// bypassing and NPU-controlled retention).
fn fig3(_: &mut Shared) -> Vec<Claim> {
    let profiles = profile_zoo(&MapperConfig::paper_default());
    let rows = |fractions: fn(&camdn_analysis::ReuseProfile) -> &[f64]| -> Vec<Vec<String>> {
        profiles
            .iter()
            .map(|p| {
                std::iter::once(p.abbr.clone())
                    .chain(fractions(p).iter().map(|f| format!("{:.1}%", 100.0 * f)))
                    .collect()
            })
            .collect()
    };
    print_table(
        "Fig. 3(a) — % of data by reuse count",
        &["Model", "1", "2-4", "5-8", ">=9"],
        &rows(|p| &p.count_fractions),
    );
    print_table(
        "Fig. 3(b) — % of intermediate data by reuse distance",
        &["Model", "<=1MB", "1-2MB", "2-4MB", ">4MB"],
        &rows(|p| &p.distance_fractions),
    );

    let avg = profiles.last().expect("profile_zoo appends the Avg row");
    vec![
        Claim(
            "fig3.no_reuse",
            "68.0%",
            format!("{:.1}%", 100.0 * avg.no_reuse_fraction),
        ),
        Claim(
            "fig3.beyond_1mib",
            "61.8%",
            format!("{:.1}%", 100.0 * avg.far_fraction),
        ),
        Claim(
            "fig3.beyond_2mib",
            "47.9%",
            format!(
                "{:.1}%",
                100.0 * (avg.distance_fractions[2] + avg.distance_fractions[3])
            ),
        ),
    ]
}

/// Fig. 7: model-wise speedup of CaMDN over AuRORA. 16 tenants (two
/// instances of each Table I model) on the Table II SoC, all NPUs busy,
/// closed loop.
fn fig7(_: &mut Shared) -> Vec<Claim> {
    let grid = Sweep::grid()
        .policies(speedup_policies())
        .workload("16tenant", Workload::closed(cycling_workload(16), 3))
        .detail(DetailLevel::Tasks)
        .run()
        .expect("fig7 grid");
    let tasks = |policy: usize| {
        grid.cells[policy]
            .outcome
            .as_ref()
            .expect("fig7 cell")
            .tasks()
    };
    let base_lat = mean_by_model(tasks(0), |t| t.mean_latency_ms);
    let hw_lat = mean_by_model(tasks(1), |t| t.mean_latency_ms);
    let full_lat = mean_by_model(tasks(2), |t| t.mean_latency_ms);
    let base_mem = mean_by_model(tasks(0), |t| t.mean_dram_mb);
    let full_mem = mean_by_model(tasks(2), |t| t.mean_dram_mb);

    let mut rows = Vec::new();
    let mut hw_speedups = Vec::new();
    let mut full_speedups = Vec::new();
    let mut mem_reductions = Vec::new();
    for m in camdn_models::zoo::all() {
        let a = &m.abbr;
        let s_hw = base_lat[a] / hw_lat[a];
        let s_full = base_lat[a] / full_lat[a];
        let mem_red = 100.0 * (1.0 - full_mem[a] / base_mem[a].max(1e-9));
        hw_speedups.push(s_hw);
        full_speedups.push(s_full);
        mem_reductions.push(mem_red);
        rows.push(vec![
            a.clone(),
            "1.00".into(),
            format!("{s_hw:.2}"),
            format!("{s_full:.2}"),
            format!("{mem_red:.1}%"),
        ]);
    }
    let mean_mem_red = mem_reductions.iter().sum::<f64>() / mem_reductions.len() as f64;
    rows.push(vec![
        "GMean".into(),
        "1.00".into(),
        format!("{:.2}", geomean(&hw_speedups)),
        format!("{:.2}", geomean(&full_speedups)),
        format!("{mean_mem_red:.1}%"),
    ]);
    print_table(
        "Fig. 7 — model-wise speedup over AuRORA (16 co-located DNNs)",
        &[
            "Model",
            "AuRORA",
            "CaMDN(HW-only)",
            "CaMDN(Full)",
            "MemAccess vs AuRORA",
        ],
        &rows,
    );
    vec![
        Claim(
            "fig7.peak_speedup",
            "2.56x",
            format!("{:.2}x", full_speedups.iter().copied().fold(0.0, f64::max)),
        ),
        Claim(
            "fig7.mean_speedup",
            "1.88x",
            format!("{:.2}x", geomean(&full_speedups)),
        ),
        Claim(
            "fig7.full_over_hw_only",
            "1.18x",
            format!("{:.2}x", geomean(&full_speedups) / geomean(&hw_speedups)),
        ),
        Claim("fig7.mem_cut", "33.4%", format!("{mean_mem_red:.1}%")),
    ]
}

/// Runs one Fig. 8 grid over the speedup policies, with one point
/// axis of `points` points; returns each point's AuRORA, HW-only and
/// Full outputs.
fn fig8_points(grid: SweepBuilder, points: usize) -> Vec<[RunOutput; 3]> {
    let grid = grid.policies(speedup_policies()).run().expect("fig8 grid");
    let outputs: Vec<RunOutput> = grid
        .cells
        .into_iter()
        .map(|cell| cell.outcome.expect("fig8 cell"))
        .collect();
    // Cells are row-major with the policy axis outermost.
    (0..points)
        .map(|i| [0, 1, 2].map(|p| outputs[p * points + i].clone()))
        .collect()
}

/// Prints one Fig. 8 sweep's two tables, one row per labelled point.
/// Returns the spans of the latency and the memory-access reductions
/// of CaMDN(Full) over AuRORA.
fn fig8_tables(title: &str, labels: &[String], points: &[[RunOutput; 3]]) -> (String, String) {
    let (mut lat_rows, mut mem_rows) = (Vec::new(), Vec::new());
    let (mut lat_reds, mut mem_reds) = (Vec::new(), Vec::new());
    for (label, point) in labels.iter().zip(points) {
        let [base, hw, full] = point.each_ref().map(|r| &r.summary);
        let lat_red = 100.0 * (1.0 - full.avg_latency_ms / base.avg_latency_ms.max(1e-9));
        let mem_red = 100.0 * (1.0 - full.mem_mb_per_model / base.mem_mb_per_model.max(1e-9));
        lat_reds.push(lat_red);
        mem_reds.push(mem_red);
        lat_rows.push(vec![
            label.clone(),
            format!("{:.2}", base.avg_latency_ms),
            format!("{:.2}", hw.avg_latency_ms),
            format!("{:.2}", full.avg_latency_ms),
            format!("-{lat_red:.1}%"),
        ]);
        mem_rows.push(vec![
            label.clone(),
            format!("{:.1}", base.mem_mb_per_model),
            format!("{:.1}", hw.mem_mb_per_model),
            format!("{:.1}", full.mem_mb_per_model),
            format!("-{mem_red:.1}%"),
        ]);
    }
    let headers = [
        "scale",
        "AuRORA",
        "CaMDN(HW-only)",
        "CaMDN(Full)",
        "reduction",
    ];
    print_table(
        &format!("{title} — average latency (ms)"),
        &headers,
        &lat_rows,
    );
    print_table(
        &format!("{title} — memory access (MB/model)"),
        &headers,
        &mem_rows,
    );
    (span(&lat_reds, 1, "%"), span(&mem_reds, 1, "%"))
}

/// Fig. 8: scaling — average model latency and memory access for the
/// baseline (AuRORA), CaMDN(HW-only) and CaMDN(Full), sweeping (a) the
/// shared-cache capacity 4→64 MiB at 8 co-located DNNs, and (b) the
/// number of co-located DNNs 1→16 at 16 MiB. The paper gives one range
/// across both sweeps.
///
/// The sweeps cross at 16 MiB and 8 DNNs, which runs once, in (b).
/// (b) keeps per-task detail, so `diag` can reuse its 16-DNN cells.
fn fig8(shared: &mut Shared) -> Vec<Claim> {
    const CACHE_MIBS: [u64; 5] = [4, 8, 16, 32, 64];
    const DNNS: [usize; 5] = [1, 2, 4, 8, 16];
    let mut dnn_points = fig8_points(
        Sweep::grid()
            .cache_bytes([16 * MIB])
            .workloads(DNNS.map(|n| (format!("{n}dnn"), Workload::closed(cycling_workload(n), 2))))
            .detail(DetailLevel::Tasks),
        DNNS.len(),
    );
    let dnns_at = |n| {
        DNNS.iter()
            .position(|&m| m == n)
            .expect("a swept DNN count")
    };
    let other_mibs: Vec<u64> = CACHE_MIBS.into_iter().filter(|&mb| mb != 16).collect();
    let mut cache_points = fig8_points(
        Sweep::grid()
            .cache_bytes(other_mibs.iter().map(|mb| mb * MIB))
            .workload("8dnn", Workload::closed(cycling_workload(8), 2)),
        other_mibs.len(),
    );
    let at16 = CACHE_MIBS.iter().position(|&mb| mb == 16).expect("16 MiB");
    cache_points.insert(at16, dnn_points[dnns_at(8)].clone());
    let (lat_a, mem_a) = fig8_tables(
        "Fig. 8(a) — cache capacity sweep (8 DNNs)",
        &CACHE_MIBS.map(|mb| format!("{mb}MB")),
        &cache_points,
    );
    let (lat_b, mem_b) = fig8_tables(
        "Fig. 8(b) — co-located DNN sweep (16 MiB cache)",
        &DNNS.map(|n| format!("{n} DNNs")),
        &dnn_points,
    );
    shared.dnn16 = speedup_policies()
        .into_iter()
        .zip(dnn_points.swap_remove(dnns_at(16)))
        .collect();
    let (lat_paper, mem_paper) = ("34.3%..42.3%", "16.0%..37.7%");
    vec![
        Claim("fig8a.latency_cut", lat_paper, lat_a),
        Claim("fig8a.mem_cut", mem_paper, mem_a),
        Claim("fig8b.latency_cut", lat_paper, lat_b),
        Claim("fig8b.mem_cut", mem_paper, mem_b),
    ]
}

/// Fig. 9: QoS — SLA satisfaction rate, system throughput (STP) and
/// fairness for MoCA, AuRORA and CaMDN at three deadline levels (QoS-H
/// = 0.8×, QoS-M = 1.0×, QoS-L = 1.2× the Table I targets), 8 tenants
/// (one of each Table I model) on the 16-NPU SoC. Each gain is CaMDN's
/// over the better of MoCA and AuRORA, averaged over the levels.
fn fig9(_: &mut Shared) -> Vec<Claim> {
    let workload = cycling_workload(8);
    let levels = [("QoS-H", 0.8), ("QoS-M", 1.0), ("QoS-L", 1.2)];
    let policies = [PolicyKind::Moca, PolicyKind::Aurora, PolicyKind::CamdnFull];

    // Isolated calibration for normalized progress, keyed by the task
    // abbreviation each run itself reports.
    let iso_map = isolated_latencies(PolicyKind::SharedBaseline).expect("isolated runs");
    let iso: Vec<f64> = workload.iter().map(|m| iso_map[&m.abbr]).collect();

    // One grid: policies × QoS levels, a single 8-tenant workload.
    let grid = Sweep::grid()
        .policies(policies)
        .qos_scales(levels.map(|(_, s)| s))
        .workload("qos8", Workload::closed(workload, 4))
        .detail(DetailLevel::Tasks)
        .run()
        .expect("fig9 grid");

    let mut rows = Vec::new();
    let mut gains = [0.0f64; 3]; // SLA, STP, fairness (CaMDN / best baseline)
    for (li, (name, _)) in levels.iter().enumerate() {
        // Cells are row-major with the policy axis outermost.
        let m = [0, 1, 2].map(|p| {
            let r = grid.cells[p * levels.len() + li].outcome.as_ref();
            qos_metrics(r.expect("fig9 cell").tasks(), &iso).expect("one isolated latency per task")
        });
        for (p, q) in policies.iter().zip(&m) {
            rows.push(vec![
                name.to_string(),
                p.label().to_string(),
                format!("{:.1}%", 100.0 * q.sla_rate),
                format!("{:.2}", q.stp),
                format!("{:.2}", q.fairness),
            ]);
        }
        gains[0] += m[2].sla_rate / m[0].sla_rate.max(m[1].sla_rate).max(1e-3);
        gains[1] += m[2].stp / m[0].stp.max(m[1].stp).max(1e-3);
        gains[2] += m[2].fairness / m[0].fairness.max(m[1].fairness).max(1e-3);
    }
    print_table(
        "Fig. 9 — QoS comparison (8 tenants, 16 NPUs)",
        &["level", "policy", "SLA rate", "STP", "fairness"],
        &rows,
    );
    let gain = |i: usize| format!("{:.2}x", gains[i] / levels.len() as f64);
    vec![
        Claim("fig9.sla_gain", "5.9x", gain(0)),
        Claim("fig9.stp_gain", "2.5x", gain(1)),
        Claim("fig9.fairness_gain", "3.0x", gain(2)),
    ]
}

/// Table III: area breakdown of the CaMDN architecture at 45 nm, from
/// the calibrated analytical area model (substituting for the paper's
/// Synopsys DC + OpenRAM flow).
fn table3(_: &mut Shared) -> Vec<Claim> {
    let b = area_breakdown(
        &NpuConfig::paper_default(),
        &CacheConfig::paper_default(),
        &AreaModel::calibrated_45nm(),
    );
    // Row 0 of each side is its total.
    let [npu, slice] = [&b.npu, &b.slice].map(|rows| {
        rows.iter()
            .map(|r| {
                vec![
                    r.component.clone(),
                    format!("{:.0}k", r.area_um2 / 1000.0),
                    format!("{:.1}%", r.percent),
                ]
            })
            .collect::<Vec<_>>()
    });
    let headers = ["Component", "Area(um^2)", "%"];
    print_table("Table III — NPU area breakdown (45 nm)", &headers, &npu);
    print_table(
        "Table III — cache slice area breakdown (45 nm)",
        &headers,
        &slice,
    );
    vec![
        Claim(
            "table3.cpt_share",
            "0.9%",
            format!("{:.2}%", b.cpt_percent()),
        ),
        Claim(
            "table3.nec_share",
            "0.3%",
            format!("{:.2}%", b.nec_percent()),
        ),
        Claim(
            "table3.npu_total",
            "7905k um^2",
            format!("{} um^2", npu[0][1]),
        ),
        Claim(
            "table3.slice_total",
            "24676k um^2",
            format!("{} um^2", slice[0][1]),
        ),
    ]
}

/// Diagnostic run, not a paper figure: the per-policy traffic breakdown
/// of the 16-tenant Fig. 7 workload. Fig. 8(b)'s 16-DNN cells are these
/// runs for AuRORA, HW-only and Full; they are reused when Fig. 8 ran.
fn diag(shared: &mut Shared) -> Vec<Claim> {
    println!();
    for p in [
        PolicyKind::SharedBaseline,
        PolicyKind::Aurora,
        PolicyKind::CamdnHwOnly,
        PolicyKind::CamdnFull,
    ] {
        let r = match shared.dnn16.iter().position(|(q, _)| *q == p) {
            Some(i) => shared.dnn16.swap_remove(i).1,
            None => Simulation::builder()
                .policy(p)
                .workload(Workload::closed(cycling_workload(16), 2))
                .run()
                .expect("diag run"),
        };
        println!(
            "{:16} hit={:.3} avg_lat={:8.2}ms mem/model={:7.1}MB makespan={:8.1}ms mcast={:6.1}MB",
            p.label(),
            r.summary.cache_hit_rate,
            r.summary.avg_latency_ms,
            r.summary.mem_mb_per_model,
            r.summary.makespan_ms,
            r.summary.multicast_saved_mb
        );
        for t in r.tasks() {
            print!(
                "  {}={:.1}ms/{:.0}MB",
                t.abbr, t.mean_latency_ms, t.mean_dram_mb
            );
        }
        println!();
    }
    Vec::new()
}
