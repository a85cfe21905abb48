//! Experiment harness: shared helpers for regenerating every table and
//! figure of the CaMDN paper.
//!
//! The binaries in `src/bin/`:
//!
//! | Binary | What it runs |
//! |---|---|
//! | `paper` | the paper's artifacts on the paper's own grids, then one paper-vs-here scorecard |
//! | `sweep` | fig8-style grid through `Sweep::grid()` → `BENCH_sweep.json` |
//! | `scaling` | rate ramp / tenant / SoC scaling studies → `BENCH_scaling.json` |
//! | `throughput` | engine throughput, batched vs reference → `BENCH_engine.json` |
//! | `serve` | trace-driven rate ramp → per-policy SLO knee → `BENCH_serve.json` |
//! | `chaos` | the `serve` trace under seeded fault schedules → `BENCH_chaos.json` |
//! | `ablation` | look-ahead, page-size and LBM ablations |
//!
//! `paper` runs the artifacts named by its arguments (`fig2`, `fig3`,
//! `fig7`, `fig8`, `fig9`, `table3`, `diag`), or all of them when given
//! none.
//!
//! Set `CAMDN_QUICK=1` to run reduced sweeps in every binary but
//! `paper` (used by CI); see [`quick_mode`] for the accepted values.
//!
//! Grid-shaped experiments run through the
//! [`camdn_sweep`](../camdn_sweep/index.html) subsystem
//! (`Sweep::grid()`), which fans cells out over a thread pool, shares
//! one mapping-plan cache across the grid, and surfaces per-cell
//! errors without aborting the sweep. The `sweep` binary records a
//! fig8-style grid (with and without the shared cache) in
//! `BENCH_sweep.json`.

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

use camdn_models::Model;
use camdn_runtime::{EngineError, PolicyKind, Simulation, TaskSummary, Workload};
use std::collections::HashMap;

/// True when the `CAMDN_QUICK` environment variable requests reduced
/// sweeps.
///
/// Falsy values (case-insensitive, surrounding whitespace ignored):
/// unset, empty, `0`, `false`, `no`, `off`. Every other value —
/// `1`, `true`, `yes`, `on`, … — enables quick mode. The old parser
/// treated anything but the literal `"0"` as enabled, so
/// `CAMDN_QUICK=false` silently ran *reduced* sweeps.
pub fn quick_mode() -> bool {
    env_flag("CAMDN_QUICK")
}

/// True when the environment variable `name` holds a truthy value.
///
/// The single boolean-flag parse shared by every bench binary
/// (`CAMDN_QUICK`, `CAMDN_SCALING_RESUME`, …),
/// so `FLAG=false` means the same thing everywhere. Falsy
/// (case-insensitive, surrounding whitespace ignored): unset, empty,
/// `0`, `false`, `no`, `off`; everything else is truthy.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| env_flag_truthy(&v))
        .unwrap_or(false)
}

/// Truthy/falsy parse behind [`env_flag`].
fn env_flag_truthy(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "false" | "no" | "off"
    )
}

/// The standard N-tenant workload: cycle the Table I zoo models.
pub fn cycling_workload(n: usize) -> Vec<Model> {
    let zoo = camdn_models::zoo::all();
    (0..n).map(|i| zoo[i % zoo.len()].clone()).collect()
}

/// Runs every model alone under `policy` (closed loop, no QoS) and
/// returns its mean isolated latency (ms) keyed by abbreviation. Used
/// for STP/fairness.
///
/// Latencies are keyed by the abbreviation each [`TaskSummary`] itself
/// reports (not by the order models were submitted), so a reordered
/// task table cannot mis-attribute them; failures propagate as
/// [`EngineError`] instead of panicking.
///
/// [`TaskSummary`]: camdn_runtime::TaskSummary
pub fn isolated_latencies(policy: PolicyKind) -> Result<HashMap<String, f64>, EngineError> {
    let mut out = HashMap::new();
    for m in camdn_models::zoo::all() {
        let r = Simulation::builder()
            .policy(policy)
            .workload(Workload::closed(vec![m], 2))
            .run()?;
        for t in r.tasks() {
            out.insert(t.abbr.clone(), t.mean_latency_ms);
        }
    }
    Ok(out)
}

/// Mean of `field` per model abbreviation over the per-task summaries
/// of a run (see [`RunOutput::tasks`](camdn_runtime::RunOutput::tasks)),
/// e.g. `|t| t.mean_latency_ms`.
pub fn mean_by_model(
    tasks: &[TaskSummary],
    field: fn(&TaskSummary) -> f64,
) -> HashMap<String, f64> {
    let mut sums: HashMap<String, (f64, u32)> = HashMap::new();
    for t in tasks {
        let e = sums.entry(t.abbr.clone()).or_insert((0.0, 0));
        e.0 += field(t);
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(k, (s, n))| (k, s / f64::from(n)))
        .collect()
}

/// Prints a simple aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", s.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Standard policy set of the speedup/scaling experiments.
pub fn speedup_policies() -> [PolicyKind; 3] {
    [
        PolicyKind::Aurora,
        PolicyKind::CamdnHwOnly,
        PolicyKind::CamdnFull,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        // Section IV-A4's 16-tenant workload is two instances of each
        // Table I model; the 8-tenant QoS workload is one of each.
        let abbrs =
            |n| -> Vec<String> { cycling_workload(n).into_iter().map(|m| m.abbr).collect() };
        let zoo: Vec<String> = camdn_models::zoo::all()
            .into_iter()
            .map(|m| m.abbr)
            .collect();
        assert_eq!(zoo.len(), 8);
        assert_eq!(abbrs(8), zoo);
        assert_eq!(abbrs(16), [zoo.clone(), zoo].concat());
    }

    #[test]
    fn quick_mode_flag_parses_truthy_and_falsy() {
        for falsy in ["", "0", "false", "no", "off", "FALSE", " Off ", "No"] {
            assert!(!env_flag_truthy(falsy), "{falsy:?} must be falsy");
        }
        for truthy in ["1", "true", "yes", "on", "2", "quick", "TRUE"] {
            assert!(env_flag_truthy(truthy), "{truthy:?} must be truthy");
        }
    }

    #[test]
    fn isolated_latencies_key_by_task_abbreviation() {
        let iso = isolated_latencies(PolicyKind::SharedBaseline).expect("isolated runs");
        let zoo = camdn_models::zoo::all();
        assert_eq!(iso.len(), zoo.len());
        for m in &zoo {
            assert!(
                iso[&m.abbr] > 0.0,
                "{} must have a positive isolated latency",
                m.abbr
            );
        }
    }
}
