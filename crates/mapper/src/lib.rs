//! Cache-aware DNN mapping (Section III-C of the CaMDN paper).
//!
//! The offline half of CaMDN's scheduling: for every layer of a model,
//! generate multiple mapping candidates that target different
//! cache-usage levels, so the online allocator can adapt to whatever
//! cache capacity happens to be available. The pieces:
//!
//! * [`solver`] — the heuristic-solver-hybrid layer mapper;
//! * [`candidate`] — mapping candidates and the mapping candidate table
//!   (MCT) format;
//! * [`layer_mapper`] — model-level mapping: LWM ladders, LBM block
//!   segmentation, [`layer_mapper::map_model`];
//! * [`plan`] — dispatch-time tile phases of a candidate, generated on
//!   demand ([`PhasePlan`]) or unrolled ([`lower`]);
//! * [`cache`] — a shared, thread-safe [`PlanCache`] memoizing mapping
//!   results across simulations (grid sweeps map each model once).
//!
//! # Example
//!
//! ```
//! use camdn_mapper::{map_model, MapperConfig};
//! use camdn_models::zoo;
//!
//! let mapping = map_model(&zoo::mobilenet_v2(), &MapperConfig::paper_default());
//! // Every layer has a zero-page fallback candidate plus richer ones.
//! assert!(mapping.mcts.iter().all(|m| m.lwm[0].pneed == 0));
//! assert!(mapping.peak_pages() > 0);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod candidate;
pub mod layer_mapper;
pub mod plan;
pub mod solver;

pub use cache::{PlanCache, PlanCacheStats};
pub use candidate::{
    BlockInfo, CacheMapEntry, CandidateKind, LoopOrder, MappingCandidate, Mct, TensorKind, Tiling,
};
pub use layer_mapper::{lwm_ladder, map_layer_lwm, map_model, MapperConfig, ModelMapping};
pub use plan::{
    lower, LayerPlan, LowerMode, Phase, PhasePlan, PhaseTransfers, PlanSizes, Route, Transfer,
};
pub use solver::{solve, Solution, TensorSizes};
