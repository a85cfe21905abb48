//! QoS showdown: MoCA vs AuRORA vs CaMDN under tight latency targets
//! (the Fig. 9 setting at QoS-M), reporting SLA satisfaction, system
//! throughput and fairness.
//!
//! ```text
//! cargo run --release --example qos_showdown
//! ```

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::runtime::{qos_metrics, PolicyKind, Simulation, Workload};

fn main() {
    let tenants = zoo::all(); // one task per Table I model, 16 NPUs

    // Isolated runs calibrate normalized progress.
    let iso: Vec<f64> = tenants
        .iter()
        .map(|m| {
            Simulation::builder()
                .policy(PolicyKind::SharedBaseline)
                .workload(Workload::closed(vec![m.clone()], 2))
                .run()
                .expect("isolated run")
                .tasks()[0]
                .mean_latency_ms
        })
        .collect();

    println!("8 tenants, QoS-M deadlines (1.0x Table I targets)\n");
    println!(
        "{:16} {:>10} {:>8} {:>10}",
        "policy", "SLA rate", "STP", "fairness"
    );
    for policy in [PolicyKind::Moca, PolicyKind::Aurora, PolicyKind::CamdnFull] {
        let r = Simulation::builder()
            .policy(policy)
            .qos_scale(1.0)
            .workload(Workload::closed(tenants.clone(), 3))
            .run()
            .expect("qos run");
        let q = qos_metrics(r.tasks(), &iso).expect("one isolated latency per task");
        println!(
            "{:16} {:>9.1}% {:>8.2} {:>10.2}",
            r.policy,
            100.0 * q.sla_rate,
            q.stp,
            q.fairness
        );
    }
}
