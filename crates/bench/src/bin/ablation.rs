//! Ablation studies beyond the paper's figures (DESIGN.md §7):
//!
//! 1. **Look-ahead sensitivity** — Algorithm 1 predicts availability
//!    `0.2 × T_est` ahead; sweep the factor.
//! 2. **Page-size sweep** — the CPT uses 32 KiB pages for a 16 MiB
//!    cache; smaller pages pack regions tighter but need bigger tables.
//! 3. **LBM contribution** — CaMDN(Full) vs the same system with LBM
//!    disabled (static policy semantics), isolating the layer-block
//!    mapping win that Fig. 7 attributes to MB/EF.
//!
//! All three studies are axes of `Sweep::grid()`: the look-ahead
//! factor, the SoC (paired with its mapper for the page-size study)
//! and the policy.

#![forbid(unsafe_code)]

use camdn_bench::{cycling_workload, print_table, quick_mode};
use camdn_common::SocConfig;
use camdn_mapper::MapperConfig;
use camdn_runtime::{PolicyKind, Workload};
use camdn_sweep::Sweep;

fn main() {
    let n = if quick_mode() { 4 } else { 8 };
    let workload = || Workload::closed(cycling_workload(n), 2);

    // --- 1. Look-ahead factor sweep -------------------------------
    let factors = [0.0, 0.1, 0.2, 0.5, 1.0];
    let grid = Sweep::grid()
        .policy(PolicyKind::CamdnFull)
        .lookaheads(factors)
        .workload("cycling", workload())
        .run()
        .expect("lookahead grid");
    let mut rows = Vec::new();
    for cell in &grid.cells {
        let r = &cell.outcome.as_ref().expect("lookahead run").summary;
        rows.push(vec![
            format!("{:.1}", factors[cell.coord.lookahead]),
            format!("{:.2}", r.avg_latency_ms),
            format!("{:.1}", r.mem_mb_per_model),
            format!("{:.3}", r.cache_hit_rate),
        ]);
    }
    print_table(
        "Ablation 1 — Algorithm 1 look-ahead factor (paper: 0.2)",
        &["factor", "avg latency (ms)", "MB/model", "hit rate"],
        &rows,
    );

    // --- 2. Cache page size sweep ----------------------------------
    // Page size changes the SoC *and* the mapper: the axis pairs them.
    let kibs = [8u64, 16, 32, 64, 128];
    let mut grid = Sweep::grid().policy(PolicyKind::CamdnFull);
    for &kib in &kibs {
        let mut soc = SocConfig::paper_default();
        soc.cache.page_bytes = kib * 1024;
        let mut mapper = MapperConfig::paper_default();
        mapper.page_bytes = kib * 1024;
        grid = grid.soc_with_mapper(format!("{kib}KiB"), soc, mapper);
    }
    let grid = grid
        .workload("cycling", workload())
        .run()
        .expect("page-size grid");
    let mut rows = Vec::new();
    for cell in &grid.cells {
        let r = &cell.outcome.as_ref().expect("page-size run").summary;
        let kib = kibs[cell.coord.soc];
        let cpt_entries = SocConfig::paper_default().cache.total_bytes / (kib * 1024);
        rows.push(vec![
            format!("{kib} KiB"),
            format!("{:.2}", r.avg_latency_ms),
            format!("{:.1}", r.mem_mb_per_model),
            format!(
                "{} x 3B = {:.1} KiB",
                cpt_entries,
                cpt_entries as f64 * 3.0 / 1024.0
            ),
        ]);
    }
    print_table(
        "Ablation 2 — cache page size (paper: 32 KiB, 1.5 KiB CPT)",
        &["page", "avg latency (ms)", "MB/model", "CPT SRAM"],
        &rows,
    );

    // --- 3. LBM contribution ---------------------------------------
    let grid = Sweep::grid()
        .policies([PolicyKind::CamdnHwOnly, PolicyKind::CamdnFull])
        .workload("cycling", workload())
        .run()
        .expect("lbm grid");
    let mut rows = Vec::new();
    for cell in &grid.cells {
        let r = cell.outcome.as_ref().expect("lbm run");
        rows.push(vec![
            r.policy.clone(),
            format!("{:.2}", r.summary.avg_latency_ms),
            format!("{:.1}", r.summary.mem_mb_per_model),
        ]);
    }
    print_table(
        "Ablation 3 — dynamic allocation + LBM (Full) vs static LWM-only (HW-only)",
        &["system", "avg latency (ms)", "MB/model"],
        &rows,
    );
}
