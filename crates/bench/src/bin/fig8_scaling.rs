//! Fig. 8: scaling — average model latency and memory access for the
//! baseline (AuRORA), CaMDN(HW-only) and CaMDN(Full), sweeping (a) the
//! shared-cache capacity 4→64 MiB at 8 co-located DNNs, and (b) the
//! number of co-located DNNs 1→16 at 16 MiB.
//!
//! Paper result: CaMDN(Full) cuts latency by 34.3–42.3 % and memory
//! access by 16.0–37.7 % across scales, with larger caches helping more.

#![forbid(unsafe_code)]

use camdn_bench::{cycling_workload, print_table, quick_mode, speedup_policies};
use camdn_common::types::MIB;
use camdn_runtime::{RunOutput, Workload};
use camdn_sweep::SweepBuilder;

/// Runs a policies × points grid and prints the two Fig. 8 tables. The
/// point axis is either the cache axis or the workload axis — the
/// caller sets one of them on `grid`; `point` maps a cell coordinate
/// back to its point index.
fn sweep(
    title: &str,
    labels: &[String],
    grid: SweepBuilder,
    point: fn(&camdn_sweep::CellCoord) -> usize,
) {
    let n_policies = speedup_policies().len();
    let grid = grid.policies(speedup_policies()).run().expect("fig8 grid");

    // results[point][policy]
    let mut results: Vec<Vec<Option<&RunOutput>>> = vec![vec![None; n_policies]; labels.len()];
    for cell in &grid.cells {
        results[point(&cell.coord)][cell.coord.policy] =
            Some(cell.outcome.as_ref().expect("fig8 cell"));
    }

    let mut lat_rows = Vec::new();
    let mut mem_rows = Vec::new();
    for (i, label) in labels.iter().enumerate() {
        let (base, hw, full) = (
            results[i][0].expect("aurora cell"),
            results[i][1].expect("hw-only cell"),
            results[i][2].expect("full cell"),
        );
        let (base, hw, full) = (&base.summary, &hw.summary, &full.summary);
        let lat_red = 100.0 * (1.0 - full.avg_latency_ms / base.avg_latency_ms.max(1e-9));
        let mem_red = 100.0 * (1.0 - full.mem_mb_per_model / base.mem_mb_per_model.max(1e-9));
        lat_rows.push(vec![
            label.clone(),
            format!("{:.2}", base.avg_latency_ms),
            format!("{:.2}", hw.avg_latency_ms),
            format!("{:.2}", full.avg_latency_ms),
            format!("-{lat_red:.1}%"),
        ]);
        mem_rows.push(vec![
            label.clone(),
            format!("{:.1}", base.mem_mb_per_model),
            format!("{:.1}", hw.mem_mb_per_model),
            format!("{:.1}", full.mem_mb_per_model),
            format!("-{mem_red:.1}%"),
        ]);
    }
    print_table(
        &format!("{title} — average latency (ms)"),
        &[
            "scale",
            "AuRORA",
            "CaMDN(HW-only)",
            "CaMDN(Full)",
            "reduction",
        ],
        &lat_rows,
    );
    print_table(
        &format!("{title} — memory access (MB/model)"),
        &[
            "scale",
            "AuRORA",
            "CaMDN(HW-only)",
            "CaMDN(Full)",
            "reduction",
        ],
        &mem_rows,
    );
}

fn main() {
    let cache_points: Vec<u64> = if quick_mode() {
        vec![8, 16]
    } else {
        vec![4, 8, 16, 32, 64]
    };
    let dnn_points: Vec<usize> = if quick_mode() {
        vec![4, 8]
    } else {
        vec![1, 2, 4, 8, 16]
    };

    sweep(
        "Fig. 8(a) — cache capacity sweep (8 DNNs)",
        &cache_points
            .iter()
            .map(|mb| format!("{mb}MB"))
            .collect::<Vec<_>>(),
        camdn_sweep::Sweep::grid()
            .cache_bytes(cache_points.iter().map(|mb| mb * MIB))
            .workload("8dnn", Workload::closed(cycling_workload(8), 2)),
        |c| c.cache,
    );
    sweep(
        "Fig. 8(b) — co-located DNN sweep (16 MiB cache)",
        &dnn_points
            .iter()
            .map(|n| format!("{n} DNNs"))
            .collect::<Vec<_>>(),
        camdn_sweep::Sweep::grid()
            .cache_bytes([16 * MIB])
            .workloads(
                dnn_points
                    .iter()
                    .map(|&n| (format!("{n}dnn"), Workload::closed(cycling_workload(n), 2))),
            ),
        |c| c.workload,
    );
    println!("\nPaper: latency -34.3%..-42.3%, memory access -16.0%..-37.7%.");
}
