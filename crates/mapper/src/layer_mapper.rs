//! Offline model mapping: building the mapping candidate tables.
//!
//! For every layer the mapper emits one LWM candidate per cache-usage
//! level in [`MapperConfig::cu_levels`] (Section III-C1) plus one LBM
//! candidate when the layer belongs to a multi-layer block
//! (Section III-C2). The result — one [`Mct`] per layer — is the "model
//! mapping file" of Fig. 6.

use crate::candidate::{
    BlockInfo, CacheMapEntry, CandidateKind, LoopOrder, MappingCandidate, Mct, TensorKind,
};
use crate::solver::{self, TensorSizes};
use camdn_common::config::NpuConfig;
use camdn_common::types::{Cycle, VirtCacheAddr, KIB, MIB};
use camdn_models::{Layer, Model, WeightClass};
use camdn_npu::compute::ComputeSpec;
use serde::{Deserialize, Serialize};

/// Configuration of the offline mapper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// NPU hardware configuration (scratchpad size, PE array).
    pub npu: NpuConfig,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Cache page size in bytes (32 KiB in the paper).
    pub page_bytes: u64,
    /// Cache-usage levels for LWM candidates (Fig. 6: `[0KB, 256KB,
    /// 512KB, ...]`).
    pub cu_levels: Vec<u64>,
    /// Cap on pages a layer block may pin (prevents one model from
    /// occupying too much cache for too long, Section III-C2).
    pub lbm_max_block_pages: u32,
    /// Cap on layers per block.
    pub lbm_max_block_len: usize,
    /// Bandwidth share assumed by the profiling-style latency estimate
    /// (`T_est`), bytes per cycle.
    pub est_bw_bytes_per_cycle: f64,
}

impl MapperConfig {
    /// Mapper configuration matching Table II and the paper's CU ladder.
    pub fn paper_default() -> Self {
        MapperConfig {
            npu: NpuConfig::paper_default(),
            line_bytes: 64,
            page_bytes: 32 * KIB,
            cu_levels: vec![0, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB, 8 * MIB],
            lbm_max_block_pages: 96, // 3 MiB of the 12 MiB subspace
            lbm_max_block_len: 8,
            est_bw_bytes_per_cycle: 25.6, // 1/4 of peak: a busy SoC share
        }
    }
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The mapping output for one model: its MCTs plus the cache-unaware
/// baseline mapping used by the comparison systems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMapping {
    /// Name of the mapped model.
    pub model_name: String,
    /// One MCT per layer.
    pub mcts: Vec<Mct>,
    /// Cache-unaware candidate per layer (baseline systems route all its
    /// traffic through the transparent shared cache).
    pub baseline: Vec<MappingCandidate>,
}

impl ModelMapping {
    /// Largest `pneed` over all candidates (peak page demand).
    pub fn peak_pages(&self) -> u32 {
        self.mcts
            .iter()
            .flat_map(|m| {
                m.lwm
                    .iter()
                    .map(|c| c.pneed)
                    .chain(m.lbm.iter().map(|c| c.pneed))
            })
            .max()
            .unwrap_or(0)
    }
}

fn pages(bytes: u64, page_bytes: u64) -> u32 {
    bytes.div_ceil(page_bytes) as u32
}

fn compute_spec(layer: &Layer) -> ComputeSpec {
    ComputeSpec {
        macs: layer.nest.macs(),
        reduction: layer.nest.reduction(),
        out_channels: layer.nest.oc,
        spatial: layer.nest.spatial(),
    }
}

fn estimate_cycles(cfg: &MapperConfig, compute: Cycle, dram_bytes: u64) -> Cycle {
    let mem = (dram_bytes as f64 / cfg.est_bw_bytes_per_cycle).ceil() as Cycle;
    compute.max(mem)
}

/// Builds the cache map rows for an LWM solution.
fn lwm_cache_map(
    sizes: &TensorSizes,
    cached_weight: u64,
    cached_input: u64,
    page_bytes: u64,
) -> (Vec<CacheMapEntry>, u32) {
    let mut vc = 0u64;
    let mut entries = Vec::with_capacity(4);
    let mut place = |tensor, cached: u64, reuse: bool| {
        let e = CacheMapEntry {
            tensor,
            vcaddr: VirtCacheAddr(vc),
            cached_bytes: cached,
            bypass: true,
            reuse,
        };
        vc += cached.div_ceil(page_bytes) * page_bytes;
        entries.push(e);
    };
    place(TensorKind::Input, cached_input, cached_input > 0);
    place(TensorKind::Weight, cached_weight, cached_weight > 0);
    place(TensorKind::Output, 0, false);
    let _ = sizes;
    place(TensorKind::Bias, 0, false);
    (entries, pages(vc, page_bytes))
}

/// Maps one layer at one cache-usage level (one LWM candidate).
pub fn map_layer_lwm(layer: &Layer, cfg: &MapperConfig, cu_bytes: u64) -> MappingCandidate {
    let sol = solver::solve(layer, &cfg.npu, cu_bytes);
    let sizes = TensorSizes::of(layer);
    let (cache_map, pneed) =
        lwm_cache_map(&sizes, sol.cached_weight, sol.cached_input, cfg.page_bytes);
    let spec = compute_spec(layer);
    let tiles = sol.tiling.n_oc * sol.tiling.n_sp;
    let compute_cycles = spec.layer_cycles(tiles, &cfg.npu);
    MappingCandidate {
        kind: CandidateKind::Lwm { cu_bytes },
        order: sol.order,
        tiling: sol.tiling,
        cache_map,
        pneed,
        dram_bytes: sol.dram_bytes,
        compute_cycles,
        est_cycles: estimate_cycles(cfg, compute_cycles, sol.dram_bytes),
    }
}

/// Position of a layer within its block (derived during segmentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockPos {
    Head,
    Interior,
    Tail,
    /// Head and tail at once (block of length 1 — no LBM benefit).
    Solo,
}

/// Maps one layer as part of an LBM block.
///
/// Interior/tail layers read their input from the cache region written
/// by the previous layer; head layers stream it from DRAM (optionally
/// caching it under the smallest non-zero CU level so the head's own
/// re-sweeps don't regress below its LWM quality). Outputs of
/// head/interior layers stay in cache; the tail writes to DRAM. Weights
/// are always streamed with bypass (the block's pages are reserved for
/// intermediates — "zero memory space" for them, Section III-C2).
fn map_layer_lbm(layer: &Layer, cfg: &MapperConfig, pos: BlockPos, peak: u32) -> MappingCandidate {
    let sizes = TensorSizes::of(layer);
    let input_from_cache = matches!(pos, BlockPos::Interior | BlockPos::Tail);
    let output_to_cache = matches!(pos, BlockPos::Head | BlockPos::Interior);
    let head_cu = if input_from_cache {
        0
    } else {
        cfg.cu_levels.iter().copied().find(|&c| c > 0).unwrap_or(0)
    };
    let mut sol = solver::solve(layer, &cfg.npu, head_cu);
    if sol.cached_weight > 0 {
        // The block's pages are reserved for intermediates; heads may
        // cache their input but never weights.
        sol = solver::solve(layer, &cfg.npu, 0);
    }

    // DRAM traffic: start from the solved candidate and remove the
    // tensor streams that LBM keeps on-chip. When the input lives in
    // cache, re-sweeps are free, so the effective traffic is just the
    // once-through streams that remain.
    let mut dram = sizes.weight + sizes.bias;
    if !input_from_cache {
        // Head layer pays the solver's input strategy (re-sweeps minus
        // whatever it cached).
        dram += sol.dram_bytes - sizes.weight - sizes.bias - sizes.output;
    }
    if !output_to_cache {
        dram += sizes.output;
    }

    let mut vc = 0u64;
    let mut entries = Vec::with_capacity(4);
    let in_cached = if input_from_cache {
        sizes.input
    } else {
        sol.cached_input
    };
    entries.push(CacheMapEntry {
        tensor: TensorKind::Input,
        vcaddr: VirtCacheAddr(vc),
        cached_bytes: in_cached,
        // `bypass == false` marks a preloaded intermediate (written by
        // the previous layer of the block); head inputs fill from DRAM.
        bypass: !input_from_cache,
        reuse: in_cached > 0,
    });
    vc += in_cached.div_ceil(cfg.page_bytes) * cfg.page_bytes;
    let out_cached = if output_to_cache { sizes.output } else { 0 };
    entries.push(CacheMapEntry {
        tensor: TensorKind::Output,
        vcaddr: VirtCacheAddr(vc),
        cached_bytes: out_cached,
        bypass: !output_to_cache,
        reuse: false,
    });
    entries.push(CacheMapEntry {
        tensor: TensorKind::Weight,
        vcaddr: VirtCacheAddr(0),
        cached_bytes: 0,
        bypass: true,
        reuse: false,
    });
    entries.push(CacheMapEntry {
        tensor: TensorKind::Bias,
        vcaddr: VirtCacheAddr(0),
        cached_bytes: 0,
        bypass: true,
        reuse: false,
    });

    // Pages: the head reserves the whole block's peak plus its own
    // cached-input pages; members draw from the head's reservation.
    let pneed = if matches!(pos, BlockPos::Head) {
        peak + pages(sol.cached_input, cfg.page_bytes)
    } else {
        0
    };

    let spec = compute_spec(layer);
    let tiles = sol.tiling.n_oc * sol.tiling.n_sp;
    let compute_cycles = spec.layer_cycles(tiles, &cfg.npu);
    MappingCandidate {
        kind: CandidateKind::Lbm,
        order: if input_from_cache {
            // Input re-sweeps are free from cache: OcOuter streams the
            // weights exactly once.
            LoopOrder::OcOuter
        } else {
            sol.order
        },
        tiling: sol.tiling,
        cache_map: entries,
        pneed,
        dram_bytes: dram,
        compute_cycles,
        est_cycles: estimate_cycles(cfg, compute_cycles, dram),
    }
}

/// Greedy block segmentation for LBM: a block grows while every
/// interior intermediate fits the page cap and the block stays short
/// enough. Layers whose intermediates are too large form solo blocks.
fn segment_blocks(model: &Model, cfg: &MapperConfig) -> Vec<Vec<usize>> {
    let page = cfg.page_bytes;
    let cap = u64::from(cfg.lbm_max_block_pages) * page;
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    for (i, layer) in model.layers.iter().enumerate() {
        let out_bytes = layer.output_bytes();
        let is_last = i + 1 == model.layers.len();
        // Peak pages while this layer runs inside the block: its input
        // intermediate (if any) plus its output intermediate.
        let in_bytes = if cur.is_empty() {
            0
        } else {
            model.layers[i - 1].output_bytes()
        };
        let peak_here = pages(in_bytes, page) + pages(out_bytes, page);
        let fits = u64::from(peak_here) * page <= cap && cur.len() < cfg.lbm_max_block_len;
        // Activation-operand matmuls consume an extra earlier tensor that
        // the chain abstraction does not pin; exclude them from blocks.
        let chainable = layer.weight_class != WeightClass::Activation;
        if fits && chainable {
            cur.push(i);
        } else {
            if !cur.is_empty() {
                blocks.push(std::mem::take(&mut cur));
            }
            cur.push(i);
        }
        if is_last && !cur.is_empty() {
            blocks.push(std::mem::take(&mut cur));
        }
    }
    blocks
}

/// Builds the deduped, dominance-pruned LWM candidate ladder for one
/// layer: one candidate per distinct `pneed`, ascending in pages and
/// strictly descending in DRAM traffic.
pub fn lwm_ladder(layer: &Layer, cfg: &MapperConfig) -> Vec<MappingCandidate> {
    let mut lwm: Vec<MappingCandidate> = Vec::new();
    for &cu in &cfg.cu_levels {
        let cand = map_layer_lwm(layer, cfg, cu);
        match lwm.iter_mut().find(|c| c.pneed == cand.pneed) {
            Some(existing) => {
                if cand.dram_bytes < existing.dram_bytes {
                    *existing = cand;
                }
            }
            None => lwm.push(cand),
        }
    }
    lwm.sort_by_key(|c| c.pneed);
    // Drop dominated candidates (more pages, no less traffic).
    let mut pruned: Vec<MappingCandidate> = Vec::new();
    for c in lwm {
        if pruned
            .last()
            .map(|p: &MappingCandidate| c.dram_bytes < p.dram_bytes)
            .unwrap_or(true)
        {
            pruned.push(c);
        }
    }
    pruned
}

/// Maps a whole model: MCTs for every layer plus the cache-unaware
/// baseline mapping.
pub fn map_model(model: &Model, cfg: &MapperConfig) -> ModelMapping {
    map_model_with(model, cfg, &mut lwm_ladder)
}

/// [`map_model`] with an injectable LWM-ladder source, so a
/// [`PlanCache`](crate::PlanCache) can serve repeated `(layer, NPU
/// config, CU ladder)` solves from its shared memo instead of
/// re-running the solver.
pub(crate) fn map_model_with(
    model: &Model,
    cfg: &MapperConfig,
    ladder: &mut dyn FnMut(&Layer, &MapperConfig) -> Vec<MappingCandidate>,
) -> ModelMapping {
    let blocks = segment_blocks(model, cfg);
    let mut mcts: Vec<Mct> = Vec::with_capacity(model.layers.len());
    let mut baseline = Vec::with_capacity(model.layers.len());

    for (block_id, block) in blocks.iter().enumerate() {
        // Peak pages over the block: for each member, input-intermediate
        // pages + output-intermediate pages.
        let mut peak = 0u32;
        for (j, &li) in block.iter().enumerate() {
            let inb = if j == 0 {
                0
            } else {
                model.layers[li - 1].output_bytes()
            };
            let outb = if j + 1 == block.len() {
                0
            } else {
                model.layers[li].output_bytes()
            };
            peak = peak.max(pages(inb, cfg.page_bytes) + pages(outb, cfg.page_bytes));
        }

        // First pass: build candidates and the block's estimated cycles.
        let mut block_cands: Vec<(usize, Vec<MappingCandidate>, Option<MappingCandidate>)> =
            Vec::new();
        let mut block_est: u64 = 0;
        for (j, &li) in block.iter().enumerate() {
            let layer = &model.layers[li];
            // LWM candidates, deduped by pneed, ascending.
            let lwm = ladder(layer, cfg);

            let pos = match (block.len(), j) {
                (1, _) => BlockPos::Solo,
                (_, 0) => BlockPos::Head,
                (n, j) if j + 1 == n => BlockPos::Tail,
                _ => BlockPos::Interior,
            };
            let lbm = if block.len() > 1 {
                Some(map_layer_lbm(layer, cfg, pos, peak))
            } else {
                None
            };
            if j == 0 {
                // The head may add pages for its own cached input.
                if let Some(l) = &lbm {
                    peak = peak.max(l.pneed);
                }
            }
            block_est += lbm
                .as_ref()
                .map(|c| c.est_cycles)
                .unwrap_or(lwm[0].est_cycles);
            block_cands.push((li, lwm, lbm));
        }

        // Second pass: assemble MCTs with block info.
        for (j, (li, lwm, lbm)) in block_cands.into_iter().enumerate() {
            baseline.push(lwm[0].clone());
            mcts.push(Mct {
                layer_idx: li,
                lwm,
                lbm,
                block: BlockInfo {
                    id: block_id as u32,
                    is_head: j == 0,
                    len: block.len() as u32,
                    block_est_cycles: block_est,
                    peak_pages: peak,
                },
            });
        }
    }
    mcts.sort_by_key(|m| m.layer_idx);
    ModelMapping {
        model_name: model.name.clone(),
        mcts,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_models::zoo;

    fn cfg() -> MapperConfig {
        MapperConfig::paper_default()
    }

    #[test]
    fn every_layer_has_zero_page_candidate() {
        let m = zoo::mobilenet_v2();
        let mapping = map_model(&m, &cfg());
        assert_eq!(mapping.mcts.len(), m.layers.len());
        for mct in &mapping.mcts {
            assert_eq!(mct.lwm[0].pneed, 0, "layer {} lacks CU=0", mct.layer_idx);
        }
    }

    #[test]
    fn candidates_ascend_in_pages_descend_in_traffic() {
        let m = zoo::resnet50();
        let mapping = map_model(&m, &cfg());
        for mct in &mapping.mcts {
            for w in mct.lwm.windows(2) {
                assert!(w[0].pneed < w[1].pneed);
                assert!(w[0].dram_bytes > w[1].dram_bytes);
            }
        }
    }

    #[test]
    fn pneed_within_cu_level() {
        let m = zoo::vit_base16();
        let mapping = map_model(&m, &cfg());
        for mct in &mapping.mcts {
            for c in &mct.lwm {
                if let CandidateKind::Lwm { cu_bytes } = c.kind {
                    assert!(
                        u64::from(c.pneed) * cfg().page_bytes <= cu_bytes.max(1),
                        "candidate exceeds its CU level"
                    );
                }
            }
        }
    }

    #[test]
    fn lbm_blocks_respect_caps() {
        let m = zoo::mobilenet_v2();
        let c = cfg();
        let mapping = map_model(&m, &c);
        for mct in &mapping.mcts {
            assert!(mct.block.len <= c.lbm_max_block_len as u32);
            assert!(mct.block.peak_pages <= c.lbm_max_block_pages);
            if let Some(lbm) = &mct.lbm {
                if mct.block.is_head {
                    assert_eq!(lbm.pneed, mct.block.peak_pages);
                } else {
                    assert_eq!(lbm.pneed, 0);
                }
            }
        }
    }

    #[test]
    fn lbm_reduces_traffic_on_intermediate_heavy_models() {
        // MobileNet: interior LBM layers skip both input and output DRAM
        // streams.
        let m = zoo::mobilenet_v2();
        let mapping = map_model(&m, &cfg());
        let mut saved = 0i64;
        for mct in &mapping.mcts {
            if let Some(lbm) = &mct.lbm {
                saved += mct.lwm[0].dram_bytes as i64 - lbm.dram_bytes as i64;
            }
        }
        assert!(saved > 0, "LBM should save DRAM traffic on MobileNet");
    }

    #[test]
    fn attention_matmuls_are_excluded_from_blocks() {
        let m = zoo::bert_base();
        let mapping = map_model(&m, &cfg());
        for (mct, layer) in mapping.mcts.iter().zip(&m.layers) {
            if layer.weight_class == WeightClass::Activation {
                assert!(
                    mct.block.len == 1 || mct.block.is_head,
                    "activation matmul {} must start its own block",
                    layer.name
                );
            }
        }
    }

    #[test]
    fn baseline_has_one_candidate_per_layer() {
        let m = zoo::gnmt();
        let mapping = map_model(&m, &cfg());
        assert_eq!(mapping.baseline.len(), m.layers.len());
        for b in &mapping.baseline {
            assert_eq!(b.pneed, 0, "baseline is cache-unaware");
        }
    }

    #[test]
    fn est_cycles_cover_both_bounds() {
        let m = zoo::resnet50();
        let mapping = map_model(&m, &cfg());
        for mct in &mapping.mcts {
            for c in &mct.lwm {
                assert!(c.est_cycles >= c.compute_cycles);
                let mem = (c.dram_bytes as f64 / cfg().est_bw_bytes_per_cycle) as u64;
                assert!(c.est_cycles >= mem.saturating_sub(1));
            }
        }
    }
}
