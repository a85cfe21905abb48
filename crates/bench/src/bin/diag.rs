//! Diagnostic run: per-policy traffic breakdown (not a paper figure).

#![forbid(unsafe_code)]

use camdn_bench::speedup_workload;
use camdn_runtime::{PolicyKind, Simulation, Workload};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let mut workload = speedup_workload();
    workload.truncate(n);
    for p in [
        PolicyKind::SharedBaseline,
        PolicyKind::Aurora,
        PolicyKind::CamdnHwOnly,
        PolicyKind::CamdnFull,
    ] {
        let r = Simulation::builder()
            .policy(p)
            .workload(Workload::closed(workload.clone(), 2))
            .run()
            .expect("diag run");
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
}
