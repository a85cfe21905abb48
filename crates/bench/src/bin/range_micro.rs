//! Microbenchmark of `SharedCache::access_range` against the per-line
//! reference model across its three regimes: cold streaming (clean
//! victims, one giant miss run), warm re-reads (all hits), and dirty
//! churn (every miss evicts a dirty victim — the worst case for
//! batching, where the event tape degenerates to single-line runs).
//!
//! Usage: `cargo run --release -p camdn-bench --bin range_micro`

#![forbid(unsafe_code)]

use camdn_cache::SharedCache;
use camdn_common::config::{CacheConfig, DramConfig};
use camdn_common::types::PhysAddr;
use camdn_dram::DramModel;
use std::time::Instant;

fn run(name: &str, is_write: bool, tenants: u64, passes: u64) {
    let ccfg = CacheConfig::paper_default();
    for reference in [true, false] {
        let mut c = SharedCache::new(&ccfg);
        let mut d = DramModel::new(DramConfig::paper_default(), 64);
        c.set_reference_model(reference);
        d.set_reference_model(reference);
        let mask = c.full_way_mask();
        let t0 = Instant::now();
        let mut now = 0;
        let mut lines = 0u64;
        for _ in 0..passes {
            for t in 0..tenants {
                let base = PhysAddr(t << 30);
                let out = c.access_range(now, base, 8 << 20, is_write, mask, &mut d);
                now = out.finish;
                lines += out.hits + out.misses;
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "{name:<22} reference={reference}: {lines:>9} lines {dt:.3}s = {:.1} Mlines/s",
            lines as f64 / dt / 1e6
        );
    }
}

fn main() {
    run("cold_stream_16x8MB", false, 16, 3); // read streams, clean victims
    run("warm_hits_1x8MB", false, 1, 24); // fits the cache: hits after pass 1
    run("dirty_churn_16x8MB", true, 16, 3); // write streams, dirty victims
}
