//! Scaling studies on top of the streaming sweep subsystem (the
//! ROADMAP's heavy-traffic item), now with tail-latency analytics:
//!
//! 1. **Poisson rate ramp** — open-loop traffic at rising request
//!    rates, multiple seeds per cell, folded into mean ± 95% CI by
//!    `SeedAggregate`, which also pools the per-seed latency
//!    histograms so p99s come from the pooled samples; reports each
//!    policy's *knee* on both the mean and the p99 (the first rate
//!    whose statistic exceeds 2× its low-rate value). The ramp grid is
//!    streamed to a `camdn-sweep-cells/3` JSONL log, so a killed run
//!    resumes via `Sweep::grid()...resume(path)`.
//! 2. **Bursty ramp to the knee** — `bursty_ramp` workloads of rising
//!    burst length under QoS deadlines; reports each policy's p99 knee
//!    and SLA knee (the first intensity whose SLA satisfaction falls
//!    below 90%) — mean latency hides exactly these spikes.
//! 3. **256 co-located tenants** — `cycling_workload(256)` through the
//!    three speedup policies, summary-only cells (memory stays flat no
//!    matter the tenant count — tail percentiles included).
//! 4. **SoC design space** — NPU count × cache capacity × DRAM channel
//!    count under CaMDN(Full) vs the shared baseline.
//!
//! Usage: `cargo run --release -p camdn-bench --bin scaling`
//!
//! * `CAMDN_QUICK=1` — reduced grids (CI smoke mode).
//! * `CAMDN_BENCH_OUT=<path>` — JSON output (default `BENCH_scaling.json`).
//! * `CAMDN_SCALING_CELLS=<path>` — rate-ramp cell log
//!   (default `BENCH_scaling_cells.jsonl`).
//! * `CAMDN_SCALING_RESUME=1` — keep an existing cell log and resume
//!   the ramp from it (default: start fresh by deleting the log).

#![forbid(unsafe_code)]

use camdn_bench::{cycling_workload, env_flag, print_table, quick_mode, speedup_policies};
use camdn_common::types::MIB;
use camdn_common::SocConfig;
use camdn_models::zoo;
use camdn_runtime::Workload;
use camdn_sweep::{bursty_ramp, SeedStats, Sweep, SweepResult};
use std::fmt::Write as _;

/// Multiple over the lowest-intensity statistic that marks a latency
/// knee (mean or p99).
const KNEE_FACTOR: f64 = 2.0;

/// SLA satisfaction rate below which the bursty ramp calls the knee.
const SLA_KNEE_RATE: f64 = 0.9;

struct RampPoint {
    policy: String,
    /// The ramped intensity: requests/ms/task (Poisson) or burst
    /// length (bursty).
    intensity: f64,
    stats: SeedStats,
}

/// Per-policy knee intensities of one ramp (infinite = no knee inside
/// the swept range).
struct Knees {
    policy: String,
    mean: f64,
    p99: f64,
    sla: f64,
}

/// Extracts per-policy ramp points (seed-folded) and knees from a
/// ramp-shaped grid whose workload axis carries the intensities.
fn fold_ramp(grid: &SweepResult, intensities: &[f64]) -> (Vec<RampPoint>, Vec<Knees>) {
    let stats = grid.seed_stats();
    let points: Vec<RampPoint> = stats
        .iter()
        .map(|s| RampPoint {
            policy: grid.axes.policies[s.coord.policy].clone(),
            intensity: intensities[s.coord.workload],
            stats: *s,
        })
        .collect();
    // Knee per policy and per statistic: the first intensity whose
    // value exceeds KNEE_FACTOR x the lowest-intensity value (for
    // latencies; response time includes queueing, so saturation shows
    // up as a blow-up), or drops below SLA_KNEE_RATE (for SLA).
    let mut knees = Vec::new();
    for policy in &grid.axes.policies {
        let series: Vec<&RampPoint> = points
            .iter()
            .filter(|p| grid.axes.policies[p.stats.coord.policy] == *policy)
            .collect();
        let knee_of = |metric: &dyn Fn(&RampPoint) -> f64| {
            let base = series
                .iter()
                .find(|p| p.stats.coord.workload == 0)
                .map(|p| metric(p))
                .unwrap_or(0.0);
            // Without a positive baseline the knee test is
            // meaningless: report "no knee" rather than flagging the
            // first point with any measurement.
            if base.is_nan() || base <= 0.0 {
                return f64::INFINITY;
            }
            series
                .iter()
                .find(|p| metric(p) > KNEE_FACTOR * base)
                .map(|p| p.intensity)
                .unwrap_or(f64::INFINITY)
        };
        knees.push(Knees {
            policy: policy.clone(),
            mean: knee_of(&|p: &RampPoint| p.stats.avg_latency_ms.mean),
            p99: knee_of(&|p: &RampPoint| p.stats.latency_tail.p99_ms()),
            sla: series
                .iter()
                .find(|p| p.stats.sla_rate.mean < SLA_KNEE_RATE)
                .map(|p| p.intensity)
                .unwrap_or(f64::INFINITY),
        });
    }
    (points, knees)
}

fn rate_ramp(quick: bool, cells_path: &str) -> (SweepResult, Vec<RampPoint>, Vec<Knees>) {
    let (rates, seeds, horizon_ms): (Vec<f64>, Vec<u64>, f64) = if quick {
        (vec![0.02, 0.08], vec![1, 2], 40.0)
    } else {
        (
            vec![0.01, 0.02, 0.04, 0.08, 0.16],
            vec![1, 2, 3, 4, 5],
            120.0,
        )
    };
    let models = if quick {
        vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()]
    } else {
        zoo::all()
    };
    let grid = Sweep::grid()
        .policies(speedup_policies())
        .workloads(rates.iter().map(|&r| {
            (
                format!("poisson@{r}"),
                Workload::poisson(models.clone(), r, horizon_ms),
            )
        }))
        .seeds(seeds)
        .resume(cells_path)
        .expect("rate-ramp grid");
    assert_eq!(
        grid.ok_count(),
        grid.cells.len(),
        "ramp must have no errors"
    );
    let (points, knees) = fold_ramp(&grid, &rates);
    (grid, points, knees)
}

fn bursty_knee(quick: bool) -> (SweepResult, Vec<RampPoint>, Vec<Knees>) {
    let (burst_lens, seeds): (Vec<u32>, Vec<u64>) = if quick {
        (vec![1, 4], vec![1, 2])
    } else {
        (vec![1, 2, 4, 8, 16], vec![1, 2, 3])
    };
    let models = if quick {
        vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()]
    } else {
        zoo::all()
    };
    let bursts = if quick { 2 } else { 3 };
    let grid = Sweep::grid()
        .policies(speedup_policies())
        .workloads(bursty_ramp(&models, burst_lens.clone(), bursts, 20.0))
        // QoS-M deadlines: the SLA knee needs deadlines to miss.
        .qos_scales([1.0])
        .seeds(seeds)
        .run()
        .expect("bursty-ramp grid");
    assert_eq!(
        grid.ok_count(),
        grid.cells.len(),
        "bursty ramp must have no errors"
    );
    let intensities: Vec<f64> = burst_lens.iter().map(|&l| f64::from(l)).collect();
    let (points, knees) = fold_ramp(&grid, &intensities);
    (grid, points, knees)
}

fn tenants_study(quick: bool) -> SweepResult {
    let n = if quick { 32 } else { 256 };
    Sweep::grid()
        .policies(speedup_policies())
        .workload(
            format!("{n}tenant"),
            Workload::closed(cycling_workload(n), 2),
        )
        .run()
        .expect("tenant grid")
}

fn soc_grid(quick: bool) -> SweepResult {
    let (npus, cache_mibs, channels): (Vec<u32>, Vec<u64>, Vec<u32>) = if quick {
        (vec![4, 16], vec![8, 32], vec![4, 8])
    } else {
        (vec![2, 4, 8, 16, 32], vec![4, 8, 16, 32], vec![2, 4, 8])
    };
    let mut grid = Sweep::grid().policies([
        camdn_runtime::PolicyKind::SharedBaseline,
        camdn_runtime::PolicyKind::CamdnFull,
    ]);
    for &cores in &npus {
        let mut soc = SocConfig::paper_default();
        soc.npu.cores = cores;
        grid = grid.soc(format!("{cores}npu"), soc);
    }
    grid.cache_bytes(cache_mibs.iter().map(|mb| mb * MIB))
        .channel_counts(channels)
        .workload("8dnn", Workload::closed(cycling_workload(8), 2))
        .run()
        .expect("soc grid")
}

/// Ramp points table: intensity, mean ± CI, pooled p95/p99, SLA.
fn ramp_rows(points: &[RampPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.policy.clone(),
                format!("{}", p.intensity),
                format!(
                    "{:.2} ± {:.2}",
                    p.stats.avg_latency_ms.mean, p.stats.avg_latency_ms.ci95
                ),
                format!("{:.2}", p.stats.latency_tail.p95_ms()),
                format!("{:.2}", p.stats.latency_tail.p99_ms()),
                format!("{:.3}", p.stats.sla_rate.mean),
                format!("{}", p.stats.n),
            ]
        })
        .collect()
}

const RAMP_HEADERS: [&str; 7] = [
    "policy",
    "intensity",
    "mean latency (ms)",
    "p95 (ms)",
    "p99 (ms)",
    "SLA",
    "seeds",
];

fn print_knees(kind: &str, unit: &str, knees: &[Knees]) {
    for k in knees {
        let show = |v: f64| {
            if v.is_finite() {
                format!("{v} {unit}")
            } else {
                "none in range".into()
            }
        };
        println!(
            "{}: {kind} knees — mean {}, p99 {}, SLA<{SLA_KNEE_RATE} {}",
            k.policy,
            show(k.mean),
            show(k.p99),
            show(k.sla),
        );
    }
}

/// Ramp points + knees as JSON object members (`"points"`, `"knees"`).
fn ramp_json(points: &[RampPoint], knees: &[Knees], intensity_key: &str) -> String {
    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        let m = &p.stats.avg_latency_ms;
        let t = &p.stats.latency_tail;
        let _ = write!(
            body,
            "{}      {{\"policy\": \"{}\", \"{intensity_key}\": {}, \"seeds\": {}, \
             \"mean_latency_ms\": {:.6}, \"stddev_ms\": {:.6}, \"ci95_ms\": {:.6}, \
             \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"p999_ms\": {:.6}, \
             \"sla_rate\": {:.6}, \"mean_mem_mb\": {:.6}}}",
            if i == 0 { "" } else { ",\n" },
            p.policy,
            p.intensity,
            p.stats.n,
            m.mean,
            m.stddev,
            m.ci95,
            t.p50_ms(),
            t.p95_ms(),
            t.p99_ms(),
            t.p999_ms(),
            p.stats.sla_rate.mean,
            p.stats.mem_mb_per_model.mean,
        );
    }
    let jknee = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        }
    };
    let knees_json: Vec<String> = knees
        .iter()
        .map(|k| {
            format!(
                "{{\"policy\": \"{}\", \"mean_knee\": {}, \"p99_knee\": {}, \"sla_knee\": {}}}",
                k.policy,
                jknee(k.mean),
                jknee(k.p99),
                jknee(k.sla),
            )
        })
        .collect();
    format!(
        "\"knees\": [{}],\n    \"points\": [\n{}\n    ]",
        knees_json.join(", "),
        body
    )
}

fn main() {
    let quick = quick_mode();
    let cells_path =
        std::env::var("CAMDN_SCALING_CELLS").unwrap_or_else(|_| "BENCH_scaling_cells.jsonl".into());
    // A fresh invocation starts a fresh ramp; a kill mid-grid leaves
    // the log resumable by re-running the binary with the log intact.
    if !env_flag("CAMDN_SCALING_RESUME") {
        std::fs::remove_file(&cells_path).ok();
    }

    // --- 1. Poisson rate ramp -------------------------------------
    let (ramp, points, knees) = rate_ramp(quick, &cells_path);
    print_table(
        "Scaling 1 — Poisson rate ramp (mean ± 95% CI; p95/p99 pooled over seeds)",
        &RAMP_HEADERS,
        &ramp_rows(&points),
    );
    print_knees("rate", "req/ms/task", &knees);

    // --- 2. Bursty ramp to the knee -------------------------------
    let (bursty, bursty_points, bursty_knees) = bursty_knee(quick);
    print_table(
        "Scaling 2 — bursty ramp under QoS-M deadlines (burst length ramps)",
        &RAMP_HEADERS,
        &ramp_rows(&bursty_points),
    );
    print_knees("burst-length", "req/burst", &bursty_knees);

    // --- 3. co-located tenants ------------------------------------
    let tenants = tenants_study(quick);
    let mut rows = Vec::new();
    for cell in &tenants.cells {
        let r = cell.outcome.as_ref().expect("tenant cell");
        rows.push(vec![
            r.policy.clone(),
            format!("{}", r.summary.tasks),
            format!("{:.2}", r.summary.avg_latency_ms),
            format!("{:.2}", r.summary.latency_tail.p99_ms()),
            format!("{:.1}", r.summary.mem_mb_per_model),
            format!("{:.3}", r.summary.cache_hit_rate),
            format!("{:.1}", r.summary.makespan_ms),
        ]);
    }
    print_table(
        "Scaling 3 — co-located tenants (summary-only cells, tail included)",
        &[
            "policy",
            "tenants",
            "avg lat (ms)",
            "p99 (ms)",
            "MB/model",
            "hit rate",
            "makespan (ms)",
        ],
        &rows,
    );

    // --- 4. NPU count x cache size x DRAM channels ----------------
    let soc = soc_grid(quick);
    let mut rows = Vec::new();
    for cell in &soc.cells {
        let r = cell.outcome.as_ref().expect("soc cell");
        rows.push(vec![
            soc.axes.policies[cell.coord.policy].clone(),
            soc.axes.socs[cell.coord.soc].clone(),
            soc.axes.caches[cell.coord.cache].clone(),
            soc.axes.channels[cell.coord.channel].clone(),
            format!("{:.2}", r.summary.avg_latency_ms),
            format!("{:.2}", r.summary.latency_tail.p99_ms()),
            format!("{:.1}", r.summary.mem_mb_per_model),
        ]);
    }
    print_table(
        "Scaling 4 — SoC design space (NPU x cache x channels, 8 DNNs)",
        &[
            "policy",
            "NPUs",
            "cache",
            "channels",
            "avg lat (ms)",
            "p99 (ms)",
            "MB/model",
        ],
        &rows,
    );

    // --- BENCH_scaling.json ---------------------------------------
    let json = format!(
        "{{\n  \"schema\": \"camdn-bench-scaling/2\",\n  \"quick\": {},\n  \
         \"rate_ramp\": {{\n    \"cells_log\": \"{}\",\n    {},\n{}\n  }},\n  \
         \"bursty_ramp\": {{\n    \"qos_scale\": 1.0, \"sla_knee_rate\": {},\n    {},\n{}\n  }},\n  \
         \"tenants\": {{\n{}\n  }},\n  \"soc_grid\": {{\n{}\n  }}\n}}\n",
        quick,
        cells_path,
        ramp_json(&points, &knees, "rate_per_ms"),
        ramp.json_body(4),
        SLA_KNEE_RATE,
        ramp_json(&bursty_points, &bursty_knees, "burst_len"),
        bursty.json_body(4),
        tenants.json_body(4),
        soc.json_body(4),
    );
    let out = std::env::var("CAMDN_BENCH_OUT").unwrap_or_else(|_| "BENCH_scaling.json".into());
    std::fs::write(&out, json).expect("write BENCH_scaling.json");
    println!("\nwrote {out} (+ cell log {cells_path})");
}
