//! Physical DRAM layout of one task's tensors.
//!
//! Every task (tenant) owns a disjoint 1 GiB-aligned slab of the physical
//! address space: per-layer weight regions, a model-input region, and an
//! *activation arena* with one region per layer output — the allocation
//! discipline of real inference runtimes, where every intermediate tensor
//! gets its own buffer. Layer `i > 0` reads its input from layer
//! `i − 1`'s output region.
//!
//! The arena is what gives the transparent baseline its Fig. 2/Fig. 3
//! behaviour: an intermediate is written once and re-read after the
//! producer's and consumer's streams have passed through the cache
//! (reuse distances of 1–4 MiB, Fig. 3b). Alone, a 16 MiB cache holds
//! that window and the re-read hits; with many co-located tenants the
//! effective distance multiplies and the reuse is lost — exactly the
//! contention CaMDN's model-exclusive regions eliminate.

use camdn_common::types::PhysAddr;
use camdn_mapper::TensorKind;
use camdn_models::{Model, WeightClass};
use serde::{Deserialize, Serialize};

/// Size of the per-task physical slab (1 GiB).
pub const TASK_SLAB_BYTES: u64 = 1 << 30;

/// Per-task tensor addressing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskLayout {
    base: PhysAddr,
    /// Weight region start per layer (bias follows the weights).
    weight_base: Vec<u64>,
    /// Bias offset within each layer's weight region.
    bias_off: Vec<u64>,
    /// Model-input region (layer 0's input).
    input_base: u64,
    /// Activation arena: output region of each layer.
    act_base: Vec<u64>,
    total: u64,
}

impl TaskLayout {
    /// Builds the layout of `model` inside the slab of task `task_id`.
    ///
    /// # Panics
    ///
    /// Panics if the model exceeds its 1 GiB slab (none in the zoo does).
    pub fn new(task_id: u32, model: &Model) -> Self {
        let base = PhysAddr(u64::from(task_id) * TASK_SLAB_BYTES);
        let mut cursor = 0u64;
        let mut weight_base = Vec::with_capacity(model.layers.len());
        let mut bias_off = Vec::with_capacity(model.layers.len());
        for layer in &model.layers {
            weight_base.push(cursor);
            let w = match layer.weight_class {
                WeightClass::Static => layer.nest.weight_bytes(),
                _ => 0,
            };
            bias_off.push(w);
            let b = match layer.weight_class {
                WeightClass::Static => layer.nest.bias_bytes(),
                _ => 0,
            };
            cursor += round_line(w + b);
        }
        let input_base = cursor;
        cursor += round_line(model.layers.first().map(|l| l.input_bytes()).unwrap_or(0));
        // Activation arena: each layer's output region must also satisfy
        // its consumer's view (input + attention weight-operand bytes).
        let mut act_base = Vec::with_capacity(model.layers.len());
        for (i, layer) in model.layers.iter().enumerate() {
            let mut sz = layer.output_bytes();
            if let Some(next) = model.layers.get(i + 1) {
                let aw = if next.weight_class == WeightClass::Activation {
                    next.weight_operand_bytes()
                } else {
                    0
                };
                sz = sz.max(next.input_bytes() + aw);
            }
            act_base.push(cursor);
            cursor += round_line(sz);
        }
        assert!(
            cursor < TASK_SLAB_BYTES,
            "{} overflows its 1 GiB task slab",
            model.name
        );
        TaskLayout {
            base,
            weight_base,
            bias_off,
            input_base,
            act_base,
            total: cursor,
        }
    }

    /// Physical address of byte `offset` of `tensor` for layer
    /// `layer_idx`.
    ///
    /// Activation weight-operands (attention K/V) live in the producer's
    /// output region after the input bytes; see the module docs.
    pub fn addr_of(
        &self,
        layer_idx: usize,
        tensor: TensorKind,
        weight_is_activation: bool,
        input_bytes: u64,
        offset: u64,
    ) -> PhysAddr {
        let in_region = if layer_idx == 0 {
            self.input_base
        } else {
            self.act_base[layer_idx - 1]
        };
        let rel = match tensor {
            TensorKind::Weight => {
                if weight_is_activation {
                    in_region + input_bytes + offset
                } else {
                    self.weight_base[layer_idx] + offset
                }
            }
            TensorKind::Bias => self.weight_base[layer_idx] + self.bias_off[layer_idx] + offset,
            TensorKind::Input => in_region + offset,
            TensorKind::Output => self.act_base[layer_idx] + offset,
        };
        self.base.offset(rel)
    }

    /// Total slab bytes actually used.
    pub fn used_bytes(&self) -> u64 {
        self.total
    }

    /// One past the last byte any tensor of this layout occupies.
    pub(crate) fn end(&self) -> PhysAddr {
        self.base.offset(self.total)
    }
}

#[inline]
fn round_line(b: u64) -> u64 {
    b.div_ceil(64) * 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_models::zoo;

    #[test]
    fn slabs_are_disjoint() {
        let m = zoo::resnet50();
        let a = TaskLayout::new(0, &m);
        let b = TaskLayout::new(1, &m);
        assert!(a.used_bytes() < TASK_SLAB_BYTES);
        let a_end = a.base.0 + a.used_bytes();
        let b_start = b.addr_of(0, TensorKind::Weight, false, 0, 0).0;
        assert!(a_end <= b_start);
    }

    #[test]
    fn producer_output_is_consumer_input() {
        let m = zoo::mobilenet_v2();
        let l = TaskLayout::new(0, &m);
        for i in 0..m.layers.len() - 1 {
            let out_i = l.addr_of(i, TensorKind::Output, false, 0, 0);
            let in_next = l.addr_of(i + 1, TensorKind::Input, false, 0, 0);
            assert_eq!(out_i, in_next, "layer {i}");
        }
    }

    #[test]
    fn intermediate_regions_are_distinct() {
        // Real runtimes give every intermediate its own buffer; no
        // ping-pong address reuse.
        let m = zoo::resnet50();
        let l = TaskLayout::new(0, &m);
        let mut bases: Vec<u64> = (0..m.layers.len())
            .map(|i| l.addr_of(i, TensorKind::Output, false, 0, 0).0)
            .collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), m.layers.len());
    }

    #[test]
    fn weights_are_per_layer_disjoint() {
        let m = zoo::gnmt();
        let l = TaskLayout::new(0, &m);
        for i in 0..m.layers.len() - 1 {
            let w_i = l.addr_of(i, TensorKind::Weight, false, 0, 0).0;
            let w_next = l.addr_of(i + 1, TensorKind::Weight, false, 0, 0).0;
            let sz = m.layers[i].static_weight_bytes();
            assert!(w_i + sz <= w_next || sz == 0);
        }
    }

    #[test]
    fn activation_weight_operand_sits_after_input() {
        // The zoo uses fused attention, but un-fused activation matmuls
        // remain supported: their K operand lives in the producer's
        // output region right after the Q bytes.
        use camdn_models::{Domain, Family, Layer, LoopNest, Model, OpKind};
        let m = Model {
            name: "AttnPair".into(),
            abbr: "AP".into(),
            domain: Domain::Nlp,
            family: Family::Transformer,
            qos_ms: 1.0,
            layers: vec![
                Layer::new("qkv", OpKind::Linear, LoopNest::matmul(64, 256, 768)),
                Layer::activation_matmul("qk", LoopNest::batched_matmul(4, 64, 64, 64)),
            ],
        };
        let l = TaskLayout::new(0, &m);
        let input_bytes = m.layers[1].input_bytes();
        let in_addr = l.addr_of(1, TensorKind::Input, false, input_bytes, 0);
        let w_addr = l.addr_of(1, TensorKind::Weight, true, input_bytes, 0);
        assert_eq!(w_addr.0, in_addr.0 + input_bytes);
    }

    #[test]
    fn every_model_fits_its_slab() {
        for m in zoo::all() {
            let l = TaskLayout::new(0, &m);
            assert!(
                l.used_bytes() < TASK_SLAB_BYTES,
                "{} overflows its slab",
                m.name
            );
        }
    }

    #[test]
    fn addresses_stable_across_inferences() {
        // The same layout answers identically every inference: weight and
        // arena addresses repeat, enabling cross-inference cache reuse.
        let m = zoo::mobilenet_v2();
        let l = TaskLayout::new(3, &m);
        let a = l.addr_of(5, TensorKind::Weight, false, 0, 128);
        let b = l.addr_of(5, TensorKind::Weight, false, 0, 128);
        assert_eq!(a, b);
    }
}
