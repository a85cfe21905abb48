//! Mapping explorer: dump the mapping candidate table (MCT) of selected
//! layers — the Fig. 6 artifact — showing how candidates trade cache
//! pages for DRAM traffic, plus the LBM alternative.
//!
//! ```text
//! cargo run --release --example mapping_explorer [model-abbr]
//! ```

#![forbid(unsafe_code)]

use camdn::mapper::{map_model, CandidateKind, MapperConfig};
use camdn::models::zoo;

fn main() {
    let abbr = std::env::args().nth(1).unwrap_or_else(|| "VT".into());
    let model = zoo::by_abbr(&abbr).unwrap_or_else(|| {
        eprintln!("unknown model '{abbr}', using ViT");
        zoo::vit_base16()
    });
    let cfg = MapperConfig::paper_default();
    let mapping = map_model(&model, &cfg);

    println!(
        "{}: {} layers, {} LBM blocks\n",
        model.name,
        model.num_layers(),
        mapping.mcts.iter().map(|m| m.block.id).max().unwrap_or(0) + 1
    );
    // Show the most interesting layers: the largest MCTs.
    let mut order: Vec<usize> = (0..mapping.mcts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(mapping.mcts[i].lwm.len()));
    for &i in order.iter().take(4) {
        let mct = &mapping.mcts[i];
        let layer = &model.layers[mct.layer_idx];
        println!(
            "layer {:3} {:24} ({}, block {} {})",
            mct.layer_idx,
            layer.name,
            layer.op.label(),
            mct.block.id,
            if mct.block.is_head { "head" } else { "member" },
        );
        println!("    kind      pages   DRAM bytes   order        tiles (oc x sp)");
        for c in &mct.lwm {
            let cu = match c.kind {
                CandidateKind::Lwm { cu_bytes } => format!("LWM {:>5} KiB", cu_bytes / 1024),
                CandidateKind::Lbm => "LBM".into(),
            };
            println!(
                "    {:14} {:>4} {:>12} {:>10?} {:>6} x {}",
                cu, c.pneed, c.dram_bytes, c.order, c.tiling.n_oc, c.tiling.n_sp
            );
        }
        if let Some(lbm) = &mct.lbm {
            println!(
                "    {:14} {:>4} {:>12}   (intermediates pinned in cache)",
                "LBM", lbm.pneed, lbm.dram_bytes
            );
        }
        println!();
    }
}
