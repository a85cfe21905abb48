//! Fig. 2: the motivation experiment — cache hit rate, memory access
//! per model and average latency on a plain shared transparent cache,
//! sweeping the number of co-located DNNs {1, 2, 4, 8, 16, 32} and the
//! cache capacity {4, 8, 16, 32, 64} MiB.
//!
//! Paper result: hit rate drops by 18.9–59.7 %, memory access rises by
//! 32.7–64.1 % and latency by 3.46–5.65× as the DNN count reaches 32.

#![forbid(unsafe_code)]

use camdn_bench::{print_table, quick_mode};
use camdn_common::types::MIB;
use camdn_models::Model;
use camdn_runtime::{PolicyKind, Workload};
use camdn_sweep::Sweep;

fn rotations(n: usize) -> Vec<Vec<Model>> {
    // Every model must participate at every tenant count: rotate the zoo
    // so e.g. N=1 averages eight single-model runs.
    let zoo = camdn_models::zoo::all();
    let rots = (zoo.len() / n).max(1);
    (0..rots)
        .map(|r| {
            (0..n)
                .map(|i| zoo[(r * n + i) % zoo.len()].clone())
                .collect()
        })
        .collect()
}

fn main() {
    let (dnn_counts, cache_mibs): (Vec<usize>, Vec<u64>) = if quick_mode() {
        (vec![1, 4, 16], vec![8, 16])
    } else {
        (vec![1, 2, 4, 8, 16, 32], vec![4, 8, 16, 32, 64])
    };

    // Workload axis: every rotation of every tenant count, remembering
    // which count each axis entry belongs to. The cache axis and the
    // cross-product are the sweep's job.
    let mut workloads = Vec::new();
    let mut wl_count_idx = Vec::new(); // workload-axis index -> dnn_counts index
    for (ni, &n) in dnn_counts.iter().enumerate() {
        for (rot, models) in rotations(n).into_iter().enumerate() {
            workloads.push((format!("{n}dnn/rot{rot}"), Workload::closed(models, 2)));
            wl_count_idx.push(ni);
        }
    }
    let grid = Sweep::grid()
        .policy(PolicyKind::SharedBaseline)
        .cache_bytes(cache_mibs.iter().map(|mb| mb * MIB))
        .workloads(workloads)
        .run()
        .expect("fig2 grid");

    // Average each (cache, #DNN) cell over its rotations.
    let mut cells: Vec<Vec<(f64, f64, f64, u32)>> =
        vec![vec![(0.0, 0.0, 0.0, 0); dnn_counts.len()]; cache_mibs.len()];
    for cell in &grid.cells {
        let r = &cell.outcome.as_ref().expect("fig2 cell").summary;
        let c = &mut cells[cell.coord.cache][wl_count_idx[cell.coord.workload]];
        c.0 += r.cache_hit_rate;
        c.1 += r.mem_mb_per_model;
        c.2 += r.avg_latency_ms;
        c.3 += 1;
    }
    let cell = |ci: usize, ni: usize| {
        let (h, m, l, k) = cells[ci][ni];
        (h / f64::from(k), m / f64::from(k), l / f64::from(k))
    };

    let headers: Vec<String> = std::iter::once("cache".to_string())
        .chain(dnn_counts.iter().map(|n| format!("{n} DNNs")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let table = |title: &str, f: &dyn Fn(usize, usize) -> String| {
        let rows: Vec<Vec<String>> = cache_mibs
            .iter()
            .enumerate()
            .map(|(ci, mb)| {
                std::iter::once(format!("{mb}MB"))
                    .chain((0..dnn_counts.len()).map(|ni| f(ci, ni)))
                    .collect()
            })
            .collect();
        print_table(title, &headers, &rows);
    };

    table("Fig. 2(a) — cache hit rate", &|ci, ni| {
        format!("{:.3}", cell(ci, ni).0)
    });
    table("Fig. 2(b) — memory access (MB/model)", &|ci, ni| {
        format!("{:.1}", cell(ci, ni).1)
    });
    table("Fig. 2(c) — average latency (ms)", &|ci, ni| {
        format!("{:.1}", cell(ci, ni).2)
    });

    // Headline deltas at the largest tenant count, per the paper's text.
    let last = dnn_counts.len() - 1;
    let mut hit_drop: (f64, f64) = (f64::INFINITY, 0.0);
    let mut mem_rise: (f64, f64) = (f64::INFINITY, 0.0);
    let mut lat_rise: (f64, f64) = (f64::INFINITY, 0.0);
    for ci in 0..cache_mibs.len() {
        let (h1, m1, l1) = cell(ci, 0);
        let (hn, mn, ln) = cell(ci, last);
        let hd = 100.0 * (h1 - hn) / h1.max(1e-9);
        let mr = 100.0 * (mn - m1) / m1.max(1e-9);
        let lr = ln / l1.max(1e-9);
        hit_drop = (hit_drop.0.min(hd), hit_drop.1.max(hd));
        mem_rise = (mem_rise.0.min(mr), mem_rise.1.max(mr));
        lat_rise = (lat_rise.0.min(lr), lat_rise.1.max(lr));
    }
    println!(
        "\nAt {} DNNs: hit rate drops {:.1}%..{:.1}% (paper: 18.9%..59.7% at 32);",
        dnn_counts[last], hit_drop.0, hit_drop.1
    );
    println!(
        "memory access rises {:.1}%..{:.1}% (paper: 32.7%..64.1%);",
        mem_rise.0, mem_rise.1
    );
    println!(
        "average latency rises {:.2}x..{:.2}x (paper: 3.46x..5.65x).",
        lat_rise.0, lat_rise.1
    );
    println!(
        "\n[{} cells in {:.2}s on {} threads, one shared mapping per model]",
        grid.cells.len(),
        grid.wall_s,
        grid.threads
    );
}
