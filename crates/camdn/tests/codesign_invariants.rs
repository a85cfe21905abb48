//! Cross-crate invariants of the co-design: page exclusivity, CPT
//! consistency and mapping/plan agreement, including randomized checks
//! driven by the repo's deterministic [`SimRng`] (the build runs
//! offline, so the usual property-testing crates are unavailable).

#![forbid(unsafe_code)]

use camdn::cache::Nec;
use camdn::common::config::{CacheConfig, NpuConfig};
use camdn::common::SimRng;
use camdn::core::{install_region, teardown_region, PageAllocator};
use camdn::mapper::{
    lower, map_layer_lwm, map_model, LowerMode, MapperConfig, PlanSizes, TensorKind,
};
use camdn::models::{zoo, Layer, LoopNest, OpKind};
use camdn::npu::NpuCore;

fn plan_sizes(l: &Layer) -> PlanSizes {
    PlanSizes {
        weight: l.weight_operand_bytes(),
        input: l.input_bytes(),
        output: l.output_bytes(),
        bias: l
            .static_weight_bytes()
            .saturating_sub(l.nest.weight_bytes()),
    }
}

#[test]
fn plans_agree_with_candidates_across_the_zoo() {
    // For every layer of every model and every LWM candidate, the
    // unrolled plan's DRAM traffic equals the candidate's model.
    let cfg = MapperConfig::paper_default();
    for model in zoo::all() {
        let mapping = map_model(&model, &cfg);
        for (mct, layer) in mapping.mcts.iter().zip(&model.layers) {
            let sizes = plan_sizes(layer);
            for cand in &mct.lwm {
                let plan = lower(cand, sizes, LowerMode::Camdn);
                assert_eq!(
                    plan.dram_bytes(),
                    cand.dram_bytes,
                    "{}/{} LWM pneed={}",
                    model.name,
                    layer.name,
                    cand.pneed
                );
            }
            if let Some(lbm) = &mct.lbm {
                let plan = lower(lbm, sizes, LowerMode::Camdn);
                assert_eq!(
                    plan.dram_bytes(),
                    lbm.dram_bytes,
                    "{}/{} LBM",
                    model.name,
                    layer.name
                );
            }
        }
    }
}

#[test]
fn lbm_never_moves_more_than_lwm_zero() {
    // LBM pins intermediates; it must never exceed the zero-cache LWM's
    // DRAM traffic for the same layer.
    let cfg = MapperConfig::paper_default();
    for model in zoo::all() {
        let mapping = map_model(&model, &cfg);
        for mct in &mapping.mcts {
            if let Some(lbm) = &mct.lbm {
                assert!(
                    lbm.dram_bytes <= mct.lwm[0].dram_bytes,
                    "{} layer {}",
                    model.name,
                    mct.layer_idx
                );
            }
        }
    }
}

#[test]
fn region_lifecycle_is_leak_free_across_many_layers() {
    let cache = CacheConfig::paper_default();
    let mut nec = Nec::new(&cache);
    let mut alloc = PageAllocator::new(nec.first_pcpn(), nec.npu_pages());
    let mut npu = NpuCore::new(0, NpuConfig::paper_default(), 512, cache.page_bytes);
    let cfg = MapperConfig::paper_default();
    let model = zoo::vit_base16();
    let total = alloc.total_pages();
    for (i, layer) in model.layers.iter().enumerate().take(40) {
        let cand = map_layer_lwm(layer, &cfg, 2 << 20);
        if cand.pneed == 0 {
            continue;
        }
        let grant = install_region(0, &cand, &mut alloc, &mut nec, &mut npu)
            .unwrap_or_else(|e| panic!("layer {i}: {e}"));
        assert_eq!(nec.claimed_pages(), cand.pneed);
        teardown_region(&grant, &mut alloc, &mut nec, &mut npu).unwrap();
        assert_eq!(alloc.idle_pages(), total, "leak after layer {i}");
        assert_eq!(npu.cpt().mapped_count(), 0);
    }
}

#[test]
fn solver_traffic_at_least_lower_bound() {
    // Randomized conv shapes: the solver may never report less DRAM
    // traffic than the cold-miss lower bound, and cached bytes stay
    // within the budget.
    let mut rng = SimRng::new(0xC0DE_0001);
    let kernels = [1u64, 3, 5, 7];
    for _ in 0..64 {
        let oc = rng.next_range(1, 511);
        let ohw = rng.next_range(1, 63);
        let ic = rng.next_range(1, 511);
        let k = *rng.choose(&kernels);
        let cu_kib = rng.next_below(4096);
        let layer = Layer::new("p", OpKind::Conv, LoopNest::conv(oc, ohw, ohw, ic, k, 1));
        let sizes = camdn::mapper::TensorSizes::of(&layer);
        let sol = camdn::mapper::solve(&layer, &NpuConfig::paper_default(), cu_kib << 10);
        assert!(
            sol.dram_bytes >= sizes.lower_bound(),
            "oc={oc} ohw={ohw} ic={ic} k={k} cu={cu_kib}KiB"
        );
        // Cached bytes never exceed the budget.
        assert!(sol.cached_weight + sol.cached_input <= (cu_kib << 10).max(1));
    }
}

#[test]
fn more_cache_budget_never_increases_traffic() {
    let mut rng = SimRng::new(0xC0DE_0002);
    let npu = NpuConfig::paper_default();
    for _ in 0..64 {
        let oc = rng.next_range(32, 1023);
        let m = rng.next_range(16, 255);
        let ic = rng.next_range(64, 2047);
        let layer = Layer::new("fc", OpKind::Linear, LoopNest::matmul(m, ic, oc));
        let mut last = u64::MAX;
        for cu in [0u64, 256 << 10, 1 << 20, 4 << 20] {
            let sol = camdn::mapper::solve(&layer, &npu, cu);
            assert!(
                sol.dram_bytes <= last,
                "oc={oc} m={m} ic={ic} cu={cu}: {} > {last}",
                sol.dram_bytes
            );
            last = sol.dram_bytes;
        }
    }
}

#[test]
fn allocator_exclusivity_under_random_ops() {
    // Random acquire/release interleavings over four tasks: no page is
    // ever owned twice and held + idle always equals the total.
    let mut rng = SimRng::new(0xC0DE_0003);
    for _ in 0..64 {
        let mut alloc = PageAllocator::new(128, 96);
        let mut held: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let n_ops = rng.next_range(1, 59);
        for _ in 0..n_ops {
            let task = rng.next_below(4) as usize;
            let n = rng.next_range(1, 19) as u32;
            if held[task].is_empty() {
                if let Ok(pages) = alloc.acquire(task as u32, n) {
                    held[task] = pages;
                }
            } else {
                let pages = std::mem::take(&mut held[task]);
                alloc.release(task as u32, &pages).unwrap();
            }
            // Invariant: no page owned twice.
            let mut all: Vec<u32> = held.iter().flatten().copied().collect();
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(before, all.len());
            // Conservation: held + idle == total.
            let held_count: u32 = held.iter().map(|h| h.len() as u32).sum();
            assert_eq!(held_count + alloc.idle_pages(), 96);
        }
    }
}

#[test]
fn plan_output_bytes_complete() {
    // Every plan writes exactly the layer's output bytes, over random
    // conv shapes.
    let mut rng = SimRng::new(0xC0DE_0004);
    let cfg = MapperConfig::paper_default();
    for _ in 0..64 {
        let oc = rng.next_range(8, 255);
        let ohw = rng.next_range(2, 31);
        let ic = rng.next_range(8, 255);
        let layer = Layer::new("c", OpKind::Conv, LoopNest::conv(oc, ohw, ohw, ic, 3, 1));
        let cand = map_layer_lwm(&layer, &cfg, 1 << 20);
        let plan = lower(&cand, plan_sizes(&layer), LowerMode::Camdn);
        let out: u64 = plan
            .phases
            .iter()
            .flat_map(|p| &p.transfers)
            .filter(|t| t.tensor == TensorKind::Output)
            .map(|t| t.bytes)
            .sum();
        assert_eq!(out, layer.output_bytes(), "oc={oc} ohw={ohw} ic={ic}");
    }
}
