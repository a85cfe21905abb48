//! Quickstart: simulate two co-located DNNs with and without CaMDN.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use camdn::models::zoo;
use camdn::runtime::{PolicyKind, Simulation, Workload};

fn main() {
    let tenants = vec![zoo::mobilenet_v2(), zoo::resnet50()];

    println!("Two co-located DNNs on the Table II SoC (16 MiB shared cache)\n");
    for policy in [PolicyKind::SharedBaseline, PolicyKind::CamdnFull] {
        let result = Simulation::builder()
            .policy(policy)
            .workload(Workload::closed(tenants.clone(), 3))
            .run()
            .expect("valid configuration");
        println!("{}:", result.policy);
        let s = &result.summary;
        println!("  cache hit rate     {:.1}%", 100.0 * s.cache_hit_rate);
        println!("  avg model latency  {:.2} ms", s.avg_latency_ms);
        println!("  DRAM per inference {:.1} MB", s.mem_mb_per_model);
        for t in result.tasks() {
            println!(
                "    {:3}  {:.2} ms, {:.1} MB DRAM",
                t.abbr, t.mean_latency_ms, t.mean_dram_mb
            );
        }
        println!();
    }
}
