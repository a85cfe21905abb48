//! Fig. 7: model-wise speedup of CaMDN over AuRORA.
//!
//! 16 tenants (two instances of each Table I model) on the Table II SoC,
//! all NPUs busy, closed loop. Paper result: CaMDN(Full) reaches up to
//! 2.56× and 1.88× on average; CaMDN(Full) beats CaMDN(HW-only) by
//! 1.18× on average; memory access drops by 33.4% on average.

#![forbid(unsafe_code)]

use camdn_bench::{
    dram_by_model, latency_by_model, print_table, quick_mode, speedup_policies, speedup_workload,
};
use camdn_runtime::{DetailLevel, Workload};
use camdn_sweep::Sweep;

fn main() {
    let mut workload = speedup_workload();
    let mut rounds = 3;
    if quick_mode() {
        workload.truncate(8);
        rounds = 2;
    }

    let grid = Sweep::grid()
        .policies(speedup_policies())
        .workload("16tenant", Workload::closed(workload, rounds))
        .detail(DetailLevel::Tasks)
        .run()
        .expect("fig7 grid");
    let results: Vec<_> = grid
        .cells
        .iter()
        .map(|c| c.outcome.as_ref().expect("fig7 cell"))
        .collect();
    let (aurora, hw_only, full) = (results[0], results[1], results[2]);

    let base_lat = latency_by_model(aurora.tasks());
    let hw_lat = latency_by_model(hw_only.tasks());
    let full_lat = latency_by_model(full.tasks());
    let base_mem = dram_by_model(aurora.tasks());
    let full_mem = dram_by_model(full.tasks());

    let abbrs: Vec<String> = camdn_models::zoo::all()
        .iter()
        .map(|m| m.abbr.clone())
        .filter(|a| base_lat.contains_key(a))
        .collect();
    let mut rows = Vec::new();
    let mut hw_speedups = Vec::new();
    let mut full_speedups = Vec::new();
    let mut mem_reductions = Vec::new();
    for a in &abbrs {
        let s_hw = base_lat[a] / hw_lat[a];
        let s_full = base_lat[a] / full_lat[a];
        let mem_red = 100.0 * (1.0 - full_mem[a] / base_mem[a].max(1e-9));
        hw_speedups.push(s_hw);
        full_speedups.push(s_full);
        mem_reductions.push(mem_red);
        rows.push(vec![
            a.clone(),
            "1.00".into(),
            format!("{s_hw:.2}"),
            format!("{s_full:.2}"),
            format!("{mem_red:.1}%"),
        ]);
    }
    rows.push(vec![
        "GMean".into(),
        "1.00".into(),
        format!("{:.2}", camdn_bench::geomean(&hw_speedups)),
        format!("{:.2}", camdn_bench::geomean(&full_speedups)),
        format!(
            "{:.1}%",
            mem_reductions.iter().sum::<f64>() / mem_reductions.len() as f64
        ),
    ]);
    print_table(
        "Fig. 7 — model-wise speedup over AuRORA (16 co-located DNNs)",
        &[
            "Model",
            "AuRORA",
            "CaMDN(HW-only)",
            "CaMDN(Full)",
            "MemAccess vs AuRORA",
        ],
        &rows,
    );
    let max_full = full_speedups.iter().cloned().fold(0.0f64, f64::max);
    println!("\nPaper: up to 2.56x, average 1.88x; Full/HW-only ratio 1.18x; mem access -33.4%.");
    println!(
        "Here : up to {:.2}x, geomean {:.2}x; Full/HW-only ratio {:.2}x.",
        max_full,
        camdn_bench::geomean(&full_speedups),
        camdn_bench::geomean(&full_speedups) / camdn_bench::geomean(&hw_speedups)
    );
}
