//! Lowering mapping candidates to executable phase plans ("generate &
//! send NPU instructions" in Fig. 6).
//!
//! MCTs store candidates compactly. When the online allocator picks a
//! candidate, the engine holds it as a [`PhasePlan`]: a few words of
//! `Copy` state from which [`PhasePlan::phase`] generates each
//! double-buffered tile phase's memory transfers on demand, on the
//! stack. [`lower`] is the unrolled view of the same plan, a
//! [`LayerPlan`] of every [`Phase`], for callers that want the whole
//! sequence; both go through the one definition of a phase in
//! [`PhasePlan::phase`]. The same plan serves both worlds:
//!
//! * [`LowerMode::Transparent`] routes every transfer through the
//!   hardware-managed shared cache (the baseline systems);
//! * [`LowerMode::Camdn`] routes transfers according to the candidate's
//!   cache map — explicit fills/reads of the model-exclusive region and
//!   bypasses for non-reusable streams.

use crate::candidate::{LoopOrder, MappingCandidate, TensorKind};
use camdn_common::types::Cycle;
use serde::{Deserialize, Serialize};

/// How a transfer reaches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Route {
    /// Through the transparent shared cache (baseline path).
    Transparent,
    /// DRAM → model-exclusive cache region (NEC fill).
    Fill,
    /// Model-exclusive cache region → NPU (NEC read; multicast-eligible).
    CacheRead,
    /// NPU → model-exclusive cache region (NEC write).
    CacheWrite,
    /// Cache region → DRAM (NEC writeback).
    Writeback,
    /// DRAM → NPU without caching (NEC bypass-read).
    BypassRead,
    /// NPU → DRAM without caching (NEC bypass-write).
    BypassWrite,
}

impl Route {
    /// True if this route moves data over the DRAM bus.
    pub fn touches_dram(&self) -> bool {
        matches!(
            self,
            Route::Transparent
                | Route::Fill
                | Route::Writeback
                | Route::BypassRead
                | Route::BypassWrite
        )
    }
}

/// One memory transfer of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Which tensor the bytes belong to.
    pub tensor: TensorKind,
    /// Byte offset within the tensor.
    pub offset: u64,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// True for writes (NPU → memory direction).
    pub write: bool,
    /// Routing decision.
    pub route: Route,
}

/// One double-buffered tile phase: its transfers plus its compute work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Memory operations issued at phase start.
    pub transfers: Vec<Transfer>,
    /// PE-array busy cycles of this phase.
    pub compute_cycles: Cycle,
}

/// The unrolled execution plan of one layer under one candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Tile phases in execution order.
    pub phases: Vec<Phase>,
}

impl LayerPlan {
    /// Total bytes this plan moves over the DRAM bus (model check).
    pub fn dram_bytes(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| &p.transfers)
            .filter(|t| t.route.touches_dram())
            .map(|t| t.bytes)
            .sum()
    }

    /// Total compute cycles over all phases.
    pub fn compute_cycles(&self) -> Cycle {
        self.phases.iter().map(|p| p.compute_cycles).sum()
    }
}

/// Target world for lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LowerMode {
    /// Baseline: hardware-managed shared cache.
    Transparent,
    /// CaMDN: NPU-controlled regions, bypass and fills per the cache map.
    Camdn,
}

/// Tensor byte sizes needed to unroll a plan (taken from the layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanSizes {
    /// Weight operand bytes.
    pub weight: u64,
    /// Input bytes.
    pub input: u64,
    /// Output bytes.
    pub output: u64,
    /// Bias bytes.
    pub bias: u64,
}

/// Upper bound on unrolled phases; beyond this, outer iterations are
/// merged (keeps plans small for extremely tiled layers).
pub const MAX_PHASES: u64 = 256;

/// Splits `[0, total)` into `n` contiguous chunks; returns chunk `i` as
/// `(offset, len)`. Chunks differ by at most one rounding unit.
fn chunk(total: u64, n: u64, i: u64) -> (u64, u64) {
    let start = total * i / n;
    let end = total * (i + 1) / n;
    (start, end - start)
}

/// Most transfers one phase issues: the bias, the re-swept tensor's
/// cached and streamed parts, the stationary chunk's cached and streamed
/// parts, and the output chunk.
const MAX_PHASE_TRANSFERS: usize = 6;

/// One phase's transfers, held inline (no heap); derefs to a slice.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTransfers {
    buf: [Transfer; MAX_PHASE_TRANSFERS],
    len: usize,
}

impl PhaseTransfers {
    fn new() -> Self {
        const EMPTY: Transfer = Transfer {
            tensor: TensorKind::Bias,
            offset: 0,
            bytes: 0,
            write: false,
            route: Route::Transparent,
        };
        PhaseTransfers {
            buf: [EMPTY; MAX_PHASE_TRANSFERS],
            len: 0,
        }
    }

    /// Appends a transfer; empty transfers are dropped.
    fn push(&mut self, tensor: TensorKind, offset: u64, bytes: u64, write: bool, route: Route) {
        if bytes > 0 {
            self.buf[self.len] = Transfer {
                tensor,
                offset,
                bytes,
                write,
                route,
            };
            self.len += 1;
        }
    }
}

impl std::ops::Deref for PhaseTransfers {
    type Target = [Transfer];

    fn deref(&self) -> &[Transfer] {
        &self.buf[..self.len]
    }
}

/// A layer's phase plan under one candidate, generated on demand.
///
/// The phase structure mirrors the cache-level loop: one phase per outer
/// iteration (`n_oc` phases for [`LoopOrder::OcOuter`], `n_sp` for
/// [`LoopOrder::SpatialOuter`]), with the re-swept tensor re-transferred
/// every phase and the stationary tensors moved in per-phase chunks.
/// The plan is a few words of `Copy` state; [`PhasePlan::phase`] builds
/// phase `j`'s transfers on the stack, so executing a layer allocates
/// nothing. [`lower`] is the same plan unrolled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasePlan {
    mode: LowerMode,
    n_phases: u64,
    compute_per_phase: Cycle,
    bias: u64,
    /// The tensor transferred in full every phase, its size and cached
    /// bytes.
    resweep: (TensorKind, u64, u64),
    /// The tensor moved in per-phase chunks, its size and cached bytes.
    stationary: (TensorKind, u64, u64),
    output: u64,
    out_cached: u64,
    /// Under LBM, a cached *input* marked non-bypass was written into
    /// the region by the previous layer of the block: it is already
    /// resident, so even the first sweep is a cache read, never a DRAM
    /// fill. (Block-head inputs have `bypass == true` and still fill
    /// from DRAM.)
    preloaded: bool,
}

impl PhasePlan {
    /// The phase plan of `candidate` on a layer of `sizes`, lowered for
    /// `mode`.
    pub fn new(candidate: &MappingCandidate, sizes: PlanSizes, mode: LowerMode) -> Self {
        let (n_outer_raw, resweep) = match candidate.order {
            LoopOrder::OcOuter => (candidate.tiling.n_oc, TensorKind::Input),
            LoopOrder::SpatialOuter => (candidate.tiling.n_sp, TensorKind::Weight),
        };
        let n_phases = n_outer_raw.clamp(1, MAX_PHASES);
        let cached = |t: TensorKind| candidate.entry(t).map(|e| e.cached_bytes).unwrap_or(0);
        let input = (TensorKind::Input, sizes.input, cached(TensorKind::Input));
        let weight = (TensorKind::Weight, sizes.weight, cached(TensorKind::Weight));
        let (resweep, stationary) = match resweep {
            TensorKind::Input => (input, weight),
            _ => (weight, input),
        };
        let preloaded = matches!(candidate.kind, crate::candidate::CandidateKind::Lbm)
            && resweep.0 == TensorKind::Input
            && candidate
                .entry(TensorKind::Input)
                .map(|e| !e.bypass)
                .unwrap_or(false);
        PhasePlan {
            mode,
            n_phases,
            compute_per_phase: candidate.compute_cycles / n_phases,
            bias: sizes.bias,
            resweep,
            stationary,
            output: sizes.output,
            out_cached: cached(TensorKind::Output),
            preloaded,
        }
    }

    /// Number of phases (at least 1, at most [`MAX_PHASES`]).
    pub fn n_phases(&self) -> usize {
        self.n_phases as usize
    }

    /// PE-array busy cycles of every phase.
    pub fn compute_cycles(&self) -> Cycle {
        self.compute_per_phase
    }

    /// The memory transfers phase `j` issues at its start, in issue
    /// order. `j` must be below [`PhasePlan::n_phases`].
    pub fn phase(&self, j: usize) -> PhaseTransfers {
        let j = j as u64;
        let camdn = self.mode == LowerMode::Camdn;
        let mut out = PhaseTransfers::new();

        // Bias rides along with the first phase.
        if j == 0 {
            let route = if camdn {
                Route::BypassRead
            } else {
                Route::Transparent
            };
            out.push(TensorKind::Bias, 0, self.bias, false, route);
        }

        // The re-swept tensor: transferred in full every phase.
        let (rs, rs_total, rs_cached) = self.resweep;
        if !camdn {
            out.push(rs, 0, rs_total, false, Route::Transparent);
        } else {
            // First sweep fills the region; later sweeps hit it.
            let route = if j == 0 && !self.preloaded {
                Route::Fill
            } else {
                Route::CacheRead
            };
            out.push(rs, 0, rs_cached, false, route);
            out.push(
                rs,
                rs_cached,
                rs_total - rs_cached,
                false,
                Route::BypassRead,
            );
        }

        // The stationary tensor: chunk j only.
        let (st, st_total, st_cached) = self.stationary;
        let (off, len) = chunk(st_total, self.n_phases, j);
        if !camdn {
            out.push(st, off, len, false, Route::Transparent);
        } else {
            // LBM: the stationary input lives in the cache region.
            let cached_len = len.min(st_cached.saturating_sub(off));
            out.push(st, off, cached_len, false, Route::CacheRead);
            out.push(
                st,
                off + cached_len,
                len - cached_len,
                false,
                Route::BypassRead,
            );
        }

        // Output: chunk j, written once.
        let (o_off, o_len) = chunk(self.output, self.n_phases, j);
        let route = if !camdn {
            Route::Transparent
        } else if self.out_cached > 0 {
            Route::CacheWrite
        } else {
            Route::BypassWrite
        };
        out.push(TensorKind::Output, o_off, o_len, true, route);
        out
    }
}

/// Unrolls `candidate` into a [`LayerPlan`]: [`PhasePlan::new`] with
/// every phase collected.
pub fn lower(candidate: &MappingCandidate, sizes: PlanSizes, mode: LowerMode) -> LayerPlan {
    let plan = PhasePlan::new(candidate, sizes, mode);
    LayerPlan {
        phases: (0..plan.n_phases())
            .map(|j| Phase {
                transfers: plan.phase(j).to_vec(),
                compute_cycles: plan.compute_cycles(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer_mapper::{map_layer_lwm, MapperConfig};
    use camdn_models::{Layer, LoopNest, OpKind};

    fn layer() -> Layer {
        Layer::new("c", OpKind::Conv, LoopNest::conv(256, 14, 14, 256, 3, 1))
    }

    fn sizes(l: &Layer) -> PlanSizes {
        PlanSizes {
            weight: l.weight_operand_bytes(),
            input: l.input_bytes(),
            output: l.output_bytes(),
            bias: l.nest.bias_bytes(),
        }
    }

    #[test]
    fn transparent_plan_traffic_includes_resweeps() {
        let l = layer();
        let cfg = MapperConfig::paper_default();
        let cand = map_layer_lwm(&l, &cfg, 0);
        let plan = lower(&cand, sizes(&l), LowerMode::Transparent);
        // Transparent lowering re-reads the re-swept tensor every phase;
        // the amount seen by the cache equals the candidate's modelled
        // zero-cache DRAM traffic.
        assert_eq!(plan.dram_bytes(), cand.dram_bytes);
    }

    #[test]
    fn camdn_plan_matches_candidate_traffic() {
        // Every zoo layer, every LWM candidate and the LBM candidate,
        // both modes: the on-demand phases, and `lower`'s unrolled view
        // of them, carry the candidate's phase count, compute per phase
        // and DRAM traffic. CaMDN lowering moves the candidate's modelled
        // traffic; transparent lowering moves everything its loop order
        // sweeps, which is the candidate's traffic with nothing cached.
        use crate::layer_mapper::map_model;
        use crate::solver::{traffic_of, TensorSizes};
        let cfg = MapperConfig::paper_default();
        let mut checked = 0;
        for model in camdn_models::zoo::all() {
            let mapping = map_model(&model, &cfg);
            for (mct, l) in mapping.mcts.iter().zip(&model.layers) {
                let s = PlanSizes {
                    weight: l.weight_operand_bytes(),
                    input: l.input_bytes(),
                    output: l.output_bytes(),
                    bias: l.static_weight_bytes().min(l.nest.bias_bytes()),
                };
                for cand in mct.lwm.iter().chain(&mct.lbm) {
                    let n = match cand.order {
                        LoopOrder::OcOuter => cand.tiling.n_oc,
                        LoopOrder::SpatialOuter => cand.tiling.n_sp,
                    };
                    assert!(n <= MAX_PHASES, "{}: {n} phases", l.name);
                    let uncached = traffic_of(&TensorSizes::of(l), cand.order, &cand.tiling, 0).0;
                    for (mode, dram) in [
                        (LowerMode::Camdn, cand.dram_bytes),
                        (LowerMode::Transparent, uncached),
                    ] {
                        let phases = PhasePlan::new(cand, s, mode);
                        let plan = lower(cand, s, mode);
                        let at = format!("{} {} {:?} {mode:?}", model.name, l.name, cand.kind);
                        assert_eq!(phases.n_phases() as u64, n, "{at}");
                        assert_eq!(plan.phases.len() as u64, n, "{at}");
                        for (j, p) in plan.phases.iter().enumerate() {
                            assert_eq!(p.transfers, *phases.phase(j), "{at} phase {j}");
                            assert_eq!(p.compute_cycles, cand.compute_cycles / n, "{at}");
                        }
                        assert_eq!(plan.dram_bytes(), dram, "{at}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} plans checked");
    }

    #[test]
    fn cached_resweep_fills_once_then_reads() {
        let l = layer();
        let cfg = MapperConfig::paper_default();
        let cand = map_layer_lwm(&l, &cfg, 4 << 20);
        if cand.total_cached_bytes() == 0 {
            return; // nothing cached for this shape; covered elsewhere
        }
        let plan = lower(&cand, sizes(&l), LowerMode::Camdn);
        let fills: u64 = plan
            .phases
            .iter()
            .flat_map(|p| &p.transfers)
            .filter(|t| t.route == Route::Fill)
            .map(|t| t.bytes)
            .sum();
        assert_eq!(fills, cand.total_cached_bytes());
    }

    #[test]
    fn compute_is_spread_over_phases() {
        let l = layer();
        let cfg = MapperConfig::paper_default();
        let cand = map_layer_lwm(&l, &cfg, 0);
        let plan = lower(&cand, sizes(&l), LowerMode::Camdn);
        let total = plan.compute_cycles();
        assert!(total <= cand.compute_cycles);
        assert!(total >= cand.compute_cycles * 9 / 10);
    }

    #[test]
    fn chunks_partition_exactly() {
        let mut covered = 0u64;
        for i in 0..7 {
            let (off, len) = chunk(1000, 7, i);
            assert_eq!(off, covered);
            covered += len;
        }
        assert_eq!(covered, 1000);
    }

    #[test]
    fn lbm_plans_match_candidate_traffic() {
        use crate::layer_mapper::map_model;
        let model = camdn_models::zoo::mobilenet_v2();
        let cfg = MapperConfig::paper_default();
        let mapping = map_model(&model, &cfg);
        let mut checked = 0;
        for (mct, layer) in mapping.mcts.iter().zip(&model.layers) {
            if let Some(lbm) = &mct.lbm {
                let s = PlanSizes {
                    weight: layer.weight_operand_bytes(),
                    input: layer.input_bytes(),
                    output: layer.output_bytes(),
                    bias: layer.static_weight_bytes().min(layer.nest.bias_bytes()),
                };
                let plan = lower(lbm, s, LowerMode::Camdn);
                assert_eq!(
                    plan.dram_bytes(),
                    lbm.dram_bytes,
                    "LBM traffic mismatch on layer {}",
                    layer.name
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "MobileNet should have many LBM layers");
    }

    #[test]
    fn outputs_are_written_once() {
        let l = layer();
        let cfg = MapperConfig::paper_default();
        let cand = map_layer_lwm(&l, &cfg, 1 << 20);
        let plan = lower(&cand, sizes(&l), LowerMode::Camdn);
        let out_bytes: u64 = plan
            .phases
            .iter()
            .flat_map(|p| &p.transfers)
            .filter(|t| t.tensor == TensorKind::Output)
            .map(|t| t.bytes)
            .sum();
        assert_eq!(out_bytes, l.nest.output_bytes());
    }
}
