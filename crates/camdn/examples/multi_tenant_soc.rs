//! Multi-tenant SoC tour: 16 tenants (the full Table I zoo twice) under
//! every system configuration, printing the headline metrics each
//! policy achieves.
//!
//! ```text
//! cargo run --release --example multi_tenant_soc
//! ```

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::runtime::{PolicyKind, Simulation, Workload};

fn main() {
    // Two instances of each Table I model: one per NPU core.
    let mut tenants = Vec::new();
    for _ in 0..2 {
        tenants.extend(zoo::all());
    }

    println!("16 co-located DNNs, Table II SoC, closed loop\n");
    println!(
        "{:16} {:>9} {:>12} {:>14} {:>12}",
        "policy", "hit rate", "avg latency", "DRAM/model", "mcast saved"
    );
    for policy in PolicyKind::ALL {
        let r = Simulation::builder()
            .policy(policy)
            .workload(Workload::closed(tenants.clone(), 2))
            .run()
            .expect("valid configuration");
        println!(
            "{:16} {:>8.1}% {:>9.2} ms {:>11.1} MB {:>9.1} MB",
            r.policy,
            100.0 * r.summary.cache_hit_rate,
            r.summary.avg_latency_ms,
            r.summary.mem_mb_per_model,
            r.summary.multicast_saved_mb
        );
    }
}
