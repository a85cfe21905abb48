//! Fig. 3: reuse-count and reuse-distance statistics of the benchmark
//! models on the shared cache (the workload analysis that motivates
//! bypassing and NPU-controlled retention).
//!
//! Paper result: on average 68.0 % of data has no future reuse; 61.8 %
//! of intermediate data has reuse distances above 1 MiB and 47.9 %
//! above 2 MiB.

#![forbid(unsafe_code)]

use camdn_analysis::profile_zoo;
use camdn_bench::print_table;
use camdn_mapper::MapperConfig;

fn main() {
    let rows = profile_zoo(&MapperConfig::paper_default());

    let count_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            std::iter::once(p.abbr.clone())
                .chain(
                    p.count_fractions
                        .iter()
                        .map(|f| format!("{:.1}%", 100.0 * f)),
                )
                .collect()
        })
        .collect();
    print_table(
        "Fig. 3(a) — % of data by reuse count",
        &["Model", "1", "2-4", "5-8", ">=9"],
        &count_rows,
    );

    let dist_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            std::iter::once(p.abbr.clone())
                .chain(
                    p.distance_fractions
                        .iter()
                        .map(|f| format!("{:.1}%", 100.0 * f)),
                )
                .collect()
        })
        .collect();
    print_table(
        "Fig. 3(b) — % of intermediate data by reuse distance",
        &["Model", "<=1MB", "1-2MB", "2-4MB", ">4MB"],
        &dist_rows,
    );

    let avg = rows.last().expect("profile_zoo appends the Avg row");
    println!(
        "\nAvg no-reuse fraction: {:.1}% (paper: 68.0%)",
        100.0 * avg.no_reuse_fraction
    );
    println!(
        "Avg intermediates beyond 1 MiB: {:.1}% (paper: 61.8%); beyond 2 MiB: {:.1}% (paper: 47.9%)",
        100.0 * avg.far_fraction,
        100.0 * (avg.distance_fractions[2] + avg.distance_fractions[3])
    );
}
