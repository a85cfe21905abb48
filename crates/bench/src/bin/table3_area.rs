//! Table III: area breakdown of the CaMDN architecture at 45 nm,
//! produced by the calibrated analytical area model (substituting for
//! the paper's Synopsys DC + OpenRAM flow).
//!
//! Paper result: the CPT contributes 0.9 % of an NPU's area, the NEC
//! 0.3 % of a cache slice — the architecture is a negligible add-on.

#![forbid(unsafe_code)]

use camdn_analysis::{area_breakdown, AreaModel};
use camdn_bench::print_table;
use camdn_common::config::{CacheConfig, NpuConfig};

fn main() {
    let b = area_breakdown(
        &NpuConfig::paper_default(),
        &CacheConfig::paper_default(),
        &AreaModel::calibrated_45nm(),
    );

    let fmt = |rows: &[camdn_analysis::AreaRow]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                vec![
                    r.component.clone(),
                    format!("{:.0}k", r.area_um2 / 1000.0),
                    format!("{:.1}%", r.percent),
                ]
            })
            .collect()
    };
    print_table(
        "Table III — NPU area breakdown (45 nm)",
        &["Component", "Area(um^2)", "%"],
        &fmt(&b.npu),
    );
    print_table(
        "Table III — cache slice area breakdown (45 nm)",
        &["Component", "Area(um^2)", "%"],
        &fmt(&b.slice),
    );
    println!(
        "\nCPT share of NPU: {:.2}% (paper 0.9%); NEC share of slice: {:.2}% (paper 0.3%)",
        b.cpt_percent(),
        b.nec_percent()
    );
    println!("Paper totals: NPU 7905k um^2, slice 24676k um^2.");
}
