//! Fig. 9: QoS — SLA satisfaction rate, system throughput (STP) and
//! fairness for MoCA, AuRORA and CaMDN at three deadline levels
//! (QoS-H = 0.8×, QoS-M = 1.0×, QoS-L = 1.2× the Table I targets).
//!
//! Paper result: CaMDN improves SLA rate, STP and fairness by 5.9×,
//! 2.5× and 3.0× on average over the baselines.

#![forbid(unsafe_code)]

use camdn_bench::{isolated_latencies, print_table, qos_workload, quick_mode};
use camdn_runtime::{qos_metrics, DetailLevel, PolicyKind, QosMetrics, Workload};
use camdn_sweep::Sweep;

fn main() {
    let workload = qos_workload();
    let levels: Vec<(&str, f64)> = vec![("QoS-H", 0.8), ("QoS-M", 1.0), ("QoS-L", 1.2)];
    let policies = [PolicyKind::Moca, PolicyKind::Aurora, PolicyKind::CamdnFull];
    let rounds = if quick_mode() { 2 } else { 4 };

    // Isolated calibration for normalized progress, keyed by the task
    // abbreviation each run itself reports.
    let iso_map = isolated_latencies(PolicyKind::SharedBaseline).expect("isolated runs");
    let iso: Vec<f64> = workload.iter().map(|m| iso_map[&m.abbr]).collect();

    // One grid: policies × QoS levels, a single 8-tenant workload.
    let grid = Sweep::grid()
        .policies(policies)
        .qos_scales(levels.iter().map(|&(_, s)| s))
        .workload("qos8", Workload::closed(workload, rounds))
        .detail(DetailLevel::Tasks)
        .run()
        .expect("fig9 grid");

    // metrics[level][policy]
    let mut metrics: Vec<Vec<Option<QosMetrics>>> = vec![vec![None; policies.len()]; levels.len()];
    for cell in &grid.cells {
        let r = cell.outcome.as_ref().expect("fig9 cell");
        metrics[cell.coord.qos][cell.coord.policy] =
            Some(qos_metrics(r.tasks(), &iso).expect("one isolated latency per task"));
    }

    let mut rows = Vec::new();
    let mut improvements = [0.0f64; 3]; // SLA, STP, fairness (CaMDN / best baseline)
    for (li, (name, _)) in levels.iter().enumerate() {
        let m: Vec<QosMetrics> = (0..policies.len())
            .map(|pi| metrics[li][pi].expect("fig9 metric"))
            .collect();
        for (pi, p) in policies.iter().enumerate() {
            rows.push(vec![
                name.to_string(),
                p.label().to_string(),
                format!("{:.1}%", 100.0 * m[pi].sla_rate),
                format!("{:.2}", m[pi].stp),
                format!("{:.2}", m[pi].fairness),
            ]);
        }
        let base_sla = m[0].sla_rate.max(m[1].sla_rate).max(1e-3);
        let base_stp = m[0].stp.max(m[1].stp).max(1e-3);
        let base_fair = m[0].fairness.max(m[1].fairness).max(1e-3);
        improvements[0] += m[2].sla_rate / base_sla;
        improvements[1] += m[2].stp / base_stp;
        improvements[2] += m[2].fairness / base_fair;
    }
    print_table(
        "Fig. 9 — QoS comparison (8 tenants, 16 NPUs)",
        &["level", "policy", "SLA rate", "STP", "fairness"],
        &rows,
    );
    let n = levels.len() as f64;
    println!(
        "\nCaMDN vs best baseline, averaged over levels: SLA {:.2}x, STP {:.2}x, fairness {:.2}x",
        improvements[0] / n,
        improvements[1] / n,
        improvements[2] / n
    );
    println!("Paper (vs its baselines): SLA 5.9x, STP 2.5x, fairness 3.0x.");
}
