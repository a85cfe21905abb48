//! Serving bench: finds each policy's SLO-preserving maximum
//! sustainable rate on a heavy-tailed trace.
//!
//! For every policy, the bench generates the *same* seeded trace
//! (Zipf model popularity, Pareto inter-arrivals, diurnal rate curve)
//! at a ramp of offered rates, replays each through the windowed
//! replay driver, and reports the knee: the highest offered rate whose
//! overall SLA satisfaction still clears the target. Results go to
//! `BENCH_serve.json` (schema `camdn-bench-serve/1`).
//!
//! Usage: `cargo run --release -p camdn-bench --bin serve`
//!
//! * `CAMDN_QUICK=1` — reduced ramp and horizon (CI smoke mode).
//! * `CAMDN_BENCH_OUT=<path>` — output path (default `BENCH_serve.json`).

#![forbid(unsafe_code)]

use camdn_bench::{print_table, quick_mode};
use camdn_runtime::PolicyKind;
use camdn_trace::{ReplayAggregate, ReplayConfig, ReplayDriver, TraceGen, TraceGenConfig};

/// A policy sustains a rate when at least this fraction of requests
/// meet their class-scaled QoS deadline over the whole trace.
const SLA_TARGET: f64 = 0.9;

/// Simulated-cycle budget per window, as a multiple of the window
/// span. Deep-overload cells used to be skipped with an ad-hoc
/// early-exit once a rate fell below the SLA knee (their queues — and
/// the epoch-rebalance work — grow without bound); the engine's cycle
/// budget now bounds each window instead, so every offered rate
/// terminates deterministically with a partial, `truncated`-flagged
/// summary.
const WINDOW_BUDGET_FACTOR: u64 = 32;

/// Cycles per trace microsecond (the engine clock runs at 1 GHz).
const CYCLES_PER_US: u64 = 1000;

struct Point {
    rate_per_s: f64,
    arrivals: u64,
    windows: u64,
    truncated_windows: u64,
    sla: f64,
    worst_window_sla: f64,
    p99_ms: f64,
    max_queue_depth: u32,
    wall_s: f64,
}

struct PolicyRamp {
    policy: PolicyKind,
    points: Vec<Point>,
    /// Highest offered rate with `sla >= SLA_TARGET`, if any.
    knee_rate_per_s: Option<f64>,
}

fn trace_config(rate_per_s: f64, horizon_s: f64) -> TraceGenConfig {
    TraceGenConfig {
        rate_per_s,
        horizon_s,
        ..TraceGenConfig::default()
    }
}

fn ramp_policy(
    driver: &mut ReplayDriver,
    policy: PolicyKind,
    rates: &[f64],
    horizon_s: f64,
) -> Result<PolicyRamp, camdn_trace::TraceError> {
    driver.set_policy(policy);
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        let records = TraceGen::new(trace_config(rate, horizon_s))?.map(Ok);
        let mut agg = ReplayAggregate::new();
        let t0 = std::time::Instant::now();
        driver.replay(records, &mut agg)?;
        let sla = agg.sla_rate();
        points.push(Point {
            rate_per_s: rate,
            arrivals: agg.arrivals,
            windows: agg.windows,
            truncated_windows: agg.truncated_windows,
            sla,
            worst_window_sla: agg.worst_window_sla,
            p99_ms: agg.tail.p99_ms(),
            max_queue_depth: agg.max_queue_depth,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }
    let knee_rate_per_s = points
        .iter()
        .filter(|p| p.sla >= SLA_TARGET)
        .map(|p| p.rate_per_s)
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.max(r)))
        });
    Ok(PolicyRamp {
        policy,
        points,
        knee_rate_per_s,
    })
}

fn jopt(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x}"))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let quick = quick_mode();
    let (rates, horizon_s, window_us): (Vec<f64>, f64, u64) = if quick {
        (vec![125.0, 500.0, 2_000.0], 0.1, 25_000)
    } else {
        (
            vec![125.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0],
            0.5,
            100_000,
        )
    };

    // One driver for the whole ramp: the shared mapping-plan cache
    // makes every policy after the first map each (model, class) pair
    // for free. The per-window cycle budget bounds deep-overload
    // cells; their windows surface as `truncated` partial summaries.
    let mut cfg = ReplayConfig::new(PolicyKind::ALL[0], window_us);
    cfg.max_cycles_per_window = Some(WINDOW_BUDGET_FACTOR * window_us * CYCLES_PER_US);
    let mut driver = ReplayDriver::new(cfg)?;

    let ramps: Vec<PolicyRamp> = PolicyKind::ALL
        .iter()
        .map(|&p| ramp_policy(&mut driver, p, &rates, horizon_s))
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    for ramp in &ramps {
        for p in &ramp.points {
            rows.push(vec![
                ramp.policy.label().to_string(),
                format!("{:.0}", p.rate_per_s),
                p.arrivals.to_string(),
                format!("{:.4}", p.sla),
                format!("{:.4}", p.worst_window_sla),
                format!("{:.3}", p.p99_ms),
                p.max_queue_depth.to_string(),
                p.truncated_windows.to_string(),
            ]);
        }
    }
    print_table(
        "Serve — SLA vs offered rate (Zipf + Pareto + diurnal trace)",
        &[
            "policy",
            "rate (req/s)",
            "arrivals",
            "SLA",
            "worst window",
            "p99 (ms)",
            "max queue",
            "trunc win",
        ],
        &rows,
    );
    println!("\nSLO-preserving max sustainable rate (SLA >= {SLA_TARGET}):");
    for ramp in &ramps {
        match ramp.knee_rate_per_s {
            Some(r) => println!("  {:<12} {r:.0} req/s", ramp.policy.label()),
            None => println!("  {:<12} below {:.0} req/s", ramp.policy.label(), rates[0]),
        }
    }

    let policies_json: Vec<String> = ramps
        .iter()
        .map(|ramp| {
            let points: Vec<String> = ramp
                .points
                .iter()
                .map(|p| {
                    format!(
                        "        {{\"rate_per_s\": {}, \"arrivals\": {}, \"windows\": {}, \
                         \"truncated_windows\": {}, \
                         \"sla\": {:.6}, \"worst_window_sla\": {:.6}, \"p99_ms\": {:.6}, \
                         \"max_queue_depth\": {}, \"wall_s\": {:.4}}}",
                        p.rate_per_s,
                        p.arrivals,
                        p.windows,
                        p.truncated_windows,
                        p.sla,
                        p.worst_window_sla,
                        p.p99_ms,
                        p.max_queue_depth,
                        p.wall_s,
                    )
                })
                .collect();
            format!(
                "    {{\"policy\": \"{}\", \"knee_rate_per_s\": {}, \"points\": [\n{}\n      ]}}",
                ramp.policy.name(),
                jopt(ramp.knee_rate_per_s),
                points.join(",\n"),
            )
        })
        .collect();
    let base = trace_config(0.0, horizon_s);
    let json = format!(
        "{{\n  \"schema\": \"camdn-bench-serve/1\",\n  \"quick\": {},\n  \
         \"sla_target\": {},\n  \"window_us\": {},\n  \
         \"trace\": {{\"seed\": {}, \"tenants\": {}, \"zipf_s\": {}, \"pareto_alpha\": {}, \
         \"diurnal_amplitude\": {}, \"diurnal_period_s\": {}, \"horizon_s\": {}}},\n  \
         \"policies\": [\n{}\n  ]\n}}\n",
        quick,
        SLA_TARGET,
        window_us,
        base.seed,
        base.tenants,
        base.zipf_s,
        base.pareto_alpha,
        base.diurnal_amplitude,
        base.diurnal_period_s,
        base.horizon_s,
        policies_json.join(",\n"),
    );
    let out = std::env::var("CAMDN_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, json)?;
    println!("wrote {out}");
    Ok(())
}
