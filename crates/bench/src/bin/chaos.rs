//! Chaos bench: fault intensity × policy over the seeded serving
//! trace.
//!
//! Every policy replays the *same* seeded heavy-tailed trace (Zipf
//! popularity, Pareto inter-arrivals, diurnal rate curve) three times:
//! fault-free, and under a light and a heavy seeded fault schedule
//! (NPU failures, DRAM brownouts, thermal throttling — all generated
//! by [`FaultPlan::generate`] over the trace horizon). Each cell
//! reports SLO burn, admission-shed rate, and post-fault recovery
//! time: the number of windows after p99 first leaves the fault-free
//! band until it returns within 10% of the fault-free p99. Results go
//! to `BENCH_chaos.json` (schema `camdn-bench-chaos/1`).
//!
//! Usage: `cargo run --release -p camdn-bench --bin chaos`
//!
//! * `CAMDN_QUICK=1` — reduced horizon and rate (CI smoke mode).
//! * `CAMDN_BENCH_OUT=<path>` — output path (default `BENCH_chaos.json`).

#![forbid(unsafe_code)]

use camdn_bench::{print_table, quick_mode};
use camdn_runtime::{FaultGenConfig, FaultPlan, PolicyKind};
use camdn_trace::{
    ReplayAggregate, ReplayConfig, ReplayDriver, ReplaySink, TraceGen, TraceGenConfig,
    WindowMetrics,
};

/// Cycles per trace microsecond (the engine clock runs at 1 GHz).
const CYCLES_PER_US: u64 = 1000;

/// Per-window simulated-cycle budget, as a multiple of the window
/// span — bounds windows that a fault pushes into deep overload.
const WINDOW_BUDGET_FACTOR: u64 = 32;

/// A window has recovered when its p99 is back within this factor of
/// the fault-free p99.
const RECOVERY_BAND: f64 = 1.1;

/// One fault regime of the study.
struct Intensity {
    name: &'static str,
    plan: Option<FaultPlan>,
}

/// Builds the three fault regimes over a `horizon`-cycle trace. MTBFs
/// scale with the horizon so quick and full mode see comparable fault
/// counts per run, not per cycle.
fn intensities(horizon: u64) -> Result<Vec<Intensity>, Box<dyn std::error::Error>> {
    let h = horizon as f64;
    let gen = |seed: u64, mtbf: f64, mttr: f64| -> Result<FaultPlan, Box<dyn std::error::Error>> {
        Ok(FaultPlan::generate(&FaultGenConfig {
            seed,
            horizon,
            npu_mtbf_cycles: mtbf,
            npu_mttr_cycles: mttr,
            dram_mtbf_cycles: mtbf,
            dram_mttr_cycles: mttr,
            throttle_mtbf_cycles: mtbf,
            throttle_mttr_cycles: mttr,
            ..FaultGenConfig::default()
        })?)
    };
    Ok(vec![
        Intensity {
            name: "none",
            plan: None,
        },
        Intensity {
            name: "light",
            plan: Some(gen(0xC4A051, h * 2.0, h / 20.0)?),
        },
        Intensity {
            name: "heavy",
            plan: Some(gen(0xC4A052, h / 2.0, h / 8.0)?),
        },
    ])
}

/// Replay sink that keeps the pooled aggregate *and* the per-window
/// p99 series the recovery metric needs.
#[derive(Default)]
struct ChaosSink {
    agg: ReplayAggregate,
    p99s_ms: Vec<f64>,
}

impl ChaosSink {
    fn new() -> Self {
        ChaosSink {
            agg: ReplayAggregate::new(),
            p99s_ms: Vec::new(),
        }
    }
}

impl ReplaySink for ChaosSink {
    fn on_window(&mut self, w: &WindowMetrics) {
        self.agg.on_window(w);
        self.p99s_ms.push(w.tail.p99_ms());
    }
}

/// Windows from the first p99 excursion beyond `RECOVERY_BAND` × the
/// fault-free p99 until the first window back inside the band.
/// `Some(0)` when no window left the band; `None` when the run never
/// recovered within the horizon.
fn recovery_windows(p99s_ms: &[f64], baseline_p99_ms: f64) -> Option<u64> {
    let limit = baseline_p99_ms * RECOVERY_BAND;
    let Some(onset) = p99s_ms.iter().position(|&p| p > limit) else {
        return Some(0);
    };
    p99s_ms[onset..]
        .iter()
        .position(|&p| p <= limit)
        .map(|off| off as u64)
}

struct Cell {
    policy: PolicyKind,
    intensity: &'static str,
    windows: u64,
    truncated_windows: u64,
    arrivals: u64,
    shed: u64,
    sla: f64,
    worst_window_sla: f64,
    p99_ms: f64,
    recovery_windows: Option<u64>,
    wall_s: f64,
}

impl Cell {
    fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrivals as f64
        }
    }
}

fn jopt(v: Option<u64>) -> String {
    v.map_or("null".into(), |x| format!("{x}"))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("chaos: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let quick = quick_mode();
    let (rate_per_s, horizon_s, window_us): (f64, f64, u64) = if quick {
        (500.0, 0.1, 25_000)
    } else {
        (1_000.0, 0.5, 50_000)
    };
    let horizon_cycles = (horizon_s * 1e6) as u64 * CYCLES_PER_US;
    let trace_cfg = TraceGenConfig {
        rate_per_s,
        horizon_s,
        ..TraceGenConfig::default()
    };
    let regimes = intensities(horizon_cycles)?;

    let mut cells: Vec<Cell> = Vec::new();
    for regime in &regimes {
        // One driver per regime: the fault plan is a config knob, the
        // policy switches in place so the mapping-plan cache is shared
        // across the whole policy set.
        let mut cfg = ReplayConfig::new(PolicyKind::ALL[0], window_us);
        cfg.fault_plan = regime.plan.clone();
        cfg.max_cycles_per_window = Some(WINDOW_BUDGET_FACTOR * window_us * CYCLES_PER_US);
        cfg.admission_control = true;
        let mut driver = ReplayDriver::new(cfg)?;
        for policy in PolicyKind::ALL {
            driver.set_policy(policy);
            let records = TraceGen::new(trace_cfg.clone())?.map(Ok);
            let mut sink = ChaosSink::new();
            let t0 = std::time::Instant::now();
            driver.replay(records, &mut sink).inspect_err(|_| {
                eprintln!("chaos: regime={} policy={}", regime.name, policy.name());
            })?;
            // Recovery is judged against this policy's own fault-free
            // p99, recorded by the "none" regime (always first).
            let baseline_p99_ms = cells
                .iter()
                .find(|c| c.policy == policy && c.intensity == "none")
                .map_or(sink.agg.tail.p99_ms(), |c| c.p99_ms);
            cells.push(Cell {
                policy,
                intensity: regime.name,
                windows: sink.agg.windows,
                truncated_windows: sink.agg.truncated_windows,
                arrivals: sink.agg.arrivals,
                shed: sink.agg.shed,
                sla: sink.agg.sla_rate(),
                worst_window_sla: sink.agg.worst_window_sla,
                p99_ms: sink.agg.tail.p99_ms(),
                recovery_windows: recovery_windows(&sink.p99s_ms, baseline_p99_ms),
                wall_s: t0.elapsed().as_secs_f64(),
            });
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.policy.label().to_string(),
                c.intensity.to_string(),
                format!("{:.4}", c.sla),
                format!("{:.4}", 1.0 - c.sla),
                format!("{:.4}", c.shed_rate()),
                format!("{:.3}", c.p99_ms),
                c.recovery_windows.map_or("never".into(), |w| w.to_string()),
                c.truncated_windows.to_string(),
            ]
        })
        .collect();
    print_table(
        "Chaos — SLO burn and recovery under seeded fault schedules",
        &[
            "policy",
            "faults",
            "SLA",
            "SLO burn",
            "shed rate",
            "p99 (ms)",
            "recovery (win)",
            "trunc win",
        ],
        &rows,
    );

    let regimes_json: Vec<String> = regimes
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"fault_fp\": {}, \"events\": {}}}",
                r.name,
                r.plan
                    .as_ref()
                    .map_or("null".into(), |p| p.fingerprint().to_string()),
                r.plan.as_ref().map_or(0, |p| p.events().len()),
            )
        })
        .collect();
    let cells_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"policy\": \"{}\", \"intensity\": \"{}\", \"windows\": {}, \
                 \"truncated_windows\": {}, \"arrivals\": {}, \"shed\": {}, \
                 \"shed_rate\": {:.6}, \"sla\": {:.6}, \"slo_burn\": {:.6}, \
                 \"worst_window_sla\": {:.6}, \"p99_ms\": {:.6}, \
                 \"recovery_windows\": {}, \"wall_s\": {:.4}}}",
                c.policy.name(),
                c.intensity,
                c.windows,
                c.truncated_windows,
                c.arrivals,
                c.shed,
                c.shed_rate(),
                c.sla,
                1.0 - c.sla,
                c.worst_window_sla,
                c.p99_ms,
                jopt(c.recovery_windows),
                c.wall_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"camdn-bench-chaos/1\",\n  \"quick\": {},\n  \
         \"window_us\": {},\n  \"recovery_band\": {},\n  \
         \"trace\": {{\"seed\": {}, \"tenants\": {}, \"rate_per_s\": {}, \"horizon_s\": {}}},\n  \
         \"regimes\": [\n{}\n  ],\n  \"cells\": [\n{}\n  ]\n}}\n",
        quick,
        window_us,
        RECOVERY_BAND,
        trace_cfg.seed,
        trace_cfg.tenants,
        trace_cfg.rate_per_s,
        trace_cfg.horizon_s,
        regimes_json.join(",\n"),
        cells_json.join(",\n"),
    );
    let out = std::env::var("CAMDN_BENCH_OUT").unwrap_or_else(|_| "BENCH_chaos.json".into());
    std::fs::write(&out, json)?;
    println!("wrote {out}");
    Ok(())
}
