//! Shared, thread-safe mapping-plan cache.
//!
//! Grid sweeps (policies × SoCs × workloads × seeds) rebuild an engine
//! per cell, and every engine re-maps each distinct model from scratch
//! even though the mapping is a pure function of `(model, MapperConfig)`
//! — an O(models × cells) pile of redundant solver work. A [`PlanCache`]
//! shared across cells (see `SimulationBuilder::plan_cache` in
//! `camdn-runtime`, wired up automatically by `camdn-sweep`) does each
//! of those solves exactly once:
//!
//! * **model level** — whole [`ModelMapping`]s keyed by the model's
//!   structural content plus every mapper knob, handed out as
//!   [`Arc`]s;
//! * **layer level** — solved LWM candidate ladders keyed by
//!   `(layer, NpuConfig, CU ladder, page size, estimate bandwidth)`,
//!   which also dedupes repeated identical layers *within* one model
//!   (transformer encoder stacks hit this even on a cold model).
//!
//! Lookups are lock-brief: a lookup takes the map lock only to find or
//! insert the key's once-cell, and the solve runs outside it, inside
//! that cell. Concurrent lookups of one key wait on its cell rather than
//! solving again, so each key is solved exactly once and counted as one
//! miss; every other lookup is a hit. The counters therefore do not
//! depend on which thread gets there first, and results are
//! bit-identical with and without the cache.

use crate::candidate::MappingCandidate;
use crate::layer_mapper::{lwm_ladder, map_model_with, MapperConfig, ModelMapping};
use camdn_common::config::NpuConfig;
use camdn_models::{Layer, Model};
// camdn-lint: allow(nondet-iter, reason = "keyed memo; entries are only get/insert by key, never iterated, and the keys are not Ord")
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Every [`MapperConfig`] knob, in hashable form (`f64` by bits).
#[derive(Clone, PartialEq, Eq, Hash)]
struct ConfigKey {
    npu: NpuConfig,
    line_bytes: u64,
    page_bytes: u64,
    cu_levels: Vec<u64>,
    lbm_max_block_pages: u32,
    lbm_max_block_len: usize,
    est_bw_bits: u64,
}

impl ConfigKey {
    fn of(cfg: &MapperConfig) -> Self {
        ConfigKey {
            npu: cfg.npu,
            line_bytes: cfg.line_bytes,
            page_bytes: cfg.page_bytes,
            cu_levels: cfg.cu_levels.clone(),
            lbm_max_block_pages: cfg.lbm_max_block_pages,
            lbm_max_block_len: cfg.lbm_max_block_len,
            est_bw_bits: cfg.est_bw_bytes_per_cycle.to_bits(),
        }
    }
}

/// Structural model key: name alone is not trusted (two models may
/// share a name but differ in layers), so the layer chain is part of
/// the key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ModelKey {
    name: String,
    layers: Vec<Layer>,
    cfg: ConfigKey,
}

/// One LWM ladder solve: the subset of [`MapperConfig`] that
/// [`map_layer_lwm`](crate::map_layer_lwm) actually reads, plus the
/// solve-relevant layer fields. The layer *name* is deliberately
/// excluded — it never reaches the solver, and keying on it would stop
/// structurally identical layers (transformer encoder stacks) from
/// sharing one solve.
#[derive(Clone, PartialEq, Eq, Hash)]
struct LadderKey {
    op: camdn_models::OpKind,
    nest: camdn_models::LoopNest,
    weight_class: camdn_models::WeightClass,
    io_override: Option<(u64, u64)>,
    npu: NpuConfig,
    page_bytes: u64,
    cu_levels: Vec<u64>,
    est_bw_bits: u64,
}

/// A key's shared once-cell: the first lookup initialises it, later
/// and concurrent lookups read (or wait for) that one value.
type Once<T> = Arc<OnceLock<T>>;

/// The once-cell of `key` in `map`, inserted empty on first lookup. The
/// map lock is held only for this find-or-insert.
// camdn-lint: allow(nondet-iter, reason = "keyed memo; entries are only get/insert by key, never iterated, and the keys are not Ord")
fn once_cell<K: std::hash::Hash + Eq, T>(map: &Mutex<HashMap<K, Once<T>>>, key: K) -> Once<T> {
    // camdn-lint: allow(panic-in-lib, reason = "Mutex poisoning only follows a panic on another thread; propagating it would mask that panic")
    let mut map = map.lock().expect("plan cache lock");
    Arc::clone(map.entry(key).or_default())
}

/// The value of `cell`, computed by `init` if this call is the one that
/// initialises it. That call counts a miss; every other call a hit.
fn get_or_count<'a, T>(
    cell: &'a OnceLock<T>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    init: impl FnOnce() -> T,
) -> &'a T {
    let mut solved = false;
    let value = cell.get_or_init(|| {
        solved = true;
        init()
    });
    let counter = if solved { misses } else { hits };
    counter.fetch_add(1, Ordering::Relaxed);
    value
}

/// Hit/miss counters of a [`PlanCache`], snapshotted by
/// [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Whole-model mappings served from the cache.
    pub model_hits: u64,
    /// Whole-model mappings that had to be computed.
    pub model_misses: u64,
    /// Per-layer LWM ladder solves served from the cache.
    pub layer_hits: u64,
    /// Per-layer LWM ladder solves that had to run the solver.
    pub layer_misses: u64,
}

/// Thread-safe memo of mapping results, shared across simulations.
///
/// ```
/// use camdn_mapper::{MapperConfig, PlanCache};
/// use camdn_models::zoo;
///
/// let cache = PlanCache::new();
/// let cfg = MapperConfig::paper_default();
/// let a = cache.map_model(&zoo::mobilenet_v2(), &cfg);
/// let b = cache.map_model(&zoo::mobilenet_v2(), &cfg);
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup is a hit");
/// assert_eq!(cache.stats().model_hits, 1);
/// ```
#[derive(Default)]
pub struct PlanCache {
    // camdn-lint: allow(nondet-iter, reason = "keyed memo; entries are only get/insert by key, never iterated, and the keys are not Ord")
    models: Mutex<HashMap<ModelKey, Once<Arc<ModelMapping>>>>,
    // camdn-lint: allow(nondet-iter, reason = "keyed memo; entries are only get/insert by key, never iterated, and the keys are not Ord")
    ladders: Mutex<HashMap<LadderKey, Once<Vec<MappingCandidate>>>>,
    model_hits: AtomicU64,
    model_misses: AtomicU64,
    layer_hits: AtomicU64,
    layer_misses: AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `model` under `cfg`, serving repeated lookups from the
    /// memo. Equivalent to [`map_model`](crate::map_model) — results
    /// are bit-identical — but each distinct `(model, config)` pair is
    /// solved once per cache, and distinct models still share solved
    /// layer ladders.
    pub fn map_model(&self, model: &Model, cfg: &MapperConfig) -> Arc<ModelMapping> {
        let key = ModelKey {
            name: model.name.clone(),
            layers: model.layers.clone(),
            cfg: ConfigKey::of(cfg),
        };
        let cell = once_cell(&self.models, key);
        let mapping = get_or_count(&cell, &self.model_hits, &self.model_misses, || {
            Arc::new(map_model_with(model, cfg, &mut |layer, cfg| {
                self.ladder(layer, cfg)
            }))
        });
        Arc::clone(mapping)
    }

    /// Cached LWM ladder for one layer (cloned out of the shared entry).
    fn ladder(&self, layer: &Layer, cfg: &MapperConfig) -> Vec<MappingCandidate> {
        let key = LadderKey {
            op: layer.op,
            nest: layer.nest,
            weight_class: layer.weight_class,
            io_override: layer.io_override,
            npu: cfg.npu,
            page_bytes: cfg.page_bytes,
            cu_levels: cfg.cu_levels.clone(),
            est_bw_bits: cfg.est_bw_bytes_per_cycle.to_bits(),
        };
        let cell = once_cell(&self.ladders, key);
        get_or_count(&cell, &self.layer_hits, &self.layer_misses, || {
            lwm_ladder(layer, cfg)
        })
        .clone()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            model_hits: self.model_hits.load(Ordering::Relaxed),
            model_misses: self.model_misses.load(Ordering::Relaxed),
            layer_hits: self.layer_hits.load(Ordering::Relaxed),
            layer_misses: self.layer_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_model;
    use camdn_models::zoo;

    #[test]
    fn cached_mapping_is_bit_identical() {
        let cfg = MapperConfig::paper_default();
        let cache = PlanCache::new();
        for m in zoo::all() {
            assert_eq!(
                *cache.map_model(&m, &cfg),
                map_model(&m, &cfg),
                "{} diverged through the cache",
                m.name
            );
        }
    }

    #[test]
    fn model_hits_share_one_arc() {
        let cfg = MapperConfig::paper_default();
        let cache = PlanCache::new();
        let a = cache.map_model(&zoo::resnet50(), &cfg);
        let b = cache.map_model(&zoo::resnet50(), &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.model_hits, s.model_misses), (1, 1));
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let cache = PlanCache::new();
        let base = MapperConfig::paper_default();
        let mut small_pages = base.clone();
        small_pages.page_bytes = 16 * 1024;
        let a = cache.map_model(&zoo::mobilenet_v2(), &base);
        let b = cache.map_model(&zoo::mobilenet_v2(), &small_pages);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*b, map_model(&zoo::mobilenet_v2(), &small_pages));
        assert_eq!(cache.stats().model_misses, 2);
    }

    #[test]
    fn same_name_different_layers_do_not_alias() {
        let cfg = MapperConfig::paper_default();
        let cache = PlanCache::new();
        let a = zoo::mobilenet_v2();
        let mut b = zoo::mobilenet_v2();
        b.layers.truncate(b.layers.len() / 2);
        let ma = cache.map_model(&a, &cfg);
        let mb = cache.map_model(&b, &cfg);
        assert_ne!(ma.mcts.len(), mb.mcts.len(), "must not alias by name");
    }

    #[test]
    fn concurrent_lookups_solve_each_key_once() {
        // Threads racing on the same models must not solve (or count) a
        // key twice: the counters equal a single-threaded pass's, run
        // after run.
        const THREADS: usize = 4;
        let cfg = MapperConfig::paper_default();
        let zoo = zoo::all();
        let serial = PlanCache::new();
        for _ in 0..THREADS {
            for m in &zoo {
                serial.map_model(m, &cfg);
            }
        }
        let expected = serial.stats();
        assert_eq!(expected.model_misses, zoo.len() as u64);
        for _ in 0..2 {
            let cache = PlanCache::new();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let (cache, cfg, zoo, start) = (&cache, &cfg, &zoo, &start);
                    // Released together, in the same model order, so
                    // the threads collide on every key.
                    s.spawn(move || {
                        start.wait();
                        for m in zoo {
                            cache.map_model(m, cfg);
                        }
                    });
                }
            });
            assert_eq!(cache.stats(), expected);
        }
    }

    #[test]
    fn repeated_layers_hit_the_ladder_memo() {
        // Transformers repeat identical encoder layers: even a cold
        // model must hit the layer-level memo.
        let cfg = MapperConfig::paper_default();
        let cache = PlanCache::new();
        cache.map_model(&zoo::bert_base(), &cfg);
        let s = cache.stats();
        assert!(
            s.layer_hits > 0,
            "BERT's repeated encoder layers should hit ({s:?})"
        );
    }
}
