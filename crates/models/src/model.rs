//! Whole-model description and aggregate statistics.

use crate::layer::Layer;
use serde::{Deserialize, Serialize};

/// Application domain, per Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Computer vision.
    ComputerVision,
    /// Natural language processing.
    Nlp,
    /// Audio processing.
    Audio,
    /// Point-cloud perception.
    PointCloud,
}

/// Model family, the "Type" column of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Plain convolutional network.
    Conv,
    /// Depth-wise-separable convolutional network.
    DwConv,
    /// Transformer.
    Transformer,
    /// LSTM-based recurrent network.
    Lstm,
}

/// A benchmark DNN: an ordered chain of layers with a QoS target.
///
/// Models are chains: layer `i` consumes the output of layer `i − 1` as
/// its input activation. (Residual adds appear as explicit element-wise
/// layers, which is what the memory system sees.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Full model name, e.g. `"ResNet50"`.
    pub name: String,
    /// Two-letter abbreviation used in the paper's figures, e.g. `"RS"`.
    pub abbr: String,
    /// Application domain.
    pub domain: Domain,
    /// Model family.
    pub family: Family,
    /// QoS latency target in milliseconds (Table I).
    pub qos_ms: f64,
    /// The layer chain.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Total multiply-accumulates over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.nest.macs()).sum()
    }

    /// Total static parameter bytes (weights + biases).
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.static_weight_bytes()).sum()
    }

    /// Sum of all inter-layer intermediate tensor sizes (each layer's
    /// output except the last).
    pub fn total_intermediate_bytes(&self) -> u64 {
        self.layers
            .iter()
            .take(self.layers.len().saturating_sub(1))
            .map(|l| l.output_bytes())
            .sum()
    }

    /// Largest single intermediate tensor.
    pub fn max_intermediate_bytes(&self) -> u64 {
        self.layers
            .iter()
            .take(self.layers.len().saturating_sub(1))
            .map(|l| l.output_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Fraction of traffic-relevant bytes that are intermediates rather
    /// than static weights — the models with the highest ratio (MobileNet,
    /// EfficientNet) benefit most from CaMDN's LBM (Section IV-B1).
    pub fn intermediate_ratio(&self) -> f64 {
        let w = self.total_weight_bytes() as f64;
        let i = self.total_intermediate_bytes() as f64;
        if w + i == 0.0 {
            0.0
        } else {
            i / (w + i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::OpKind;
    use crate::nest::LoopNest;

    fn tiny_model() -> Model {
        Model {
            name: "Tiny".into(),
            abbr: "TY".into(),
            domain: Domain::ComputerVision,
            family: Family::Conv,
            qos_ms: 1.0,
            layers: vec![
                Layer::new("c1", OpKind::Conv, LoopNest::conv(16, 8, 8, 3, 3, 1)),
                Layer::new("c2", OpKind::Conv, LoopNest::conv(32, 8, 8, 16, 3, 1)),
                Layer::new("fc", OpKind::Linear, LoopNest::matmul(1, 32 * 64, 10)),
            ],
        }
    }

    #[test]
    fn aggregates() {
        let m = tiny_model();
        assert_eq!(m.num_layers(), 3);
        assert_eq!(
            m.total_macs(),
            m.layers.iter().map(|l| l.nest.macs()).sum::<u64>()
        );
        // Intermediates: outputs of c1 and c2 only.
        assert_eq!(m.total_intermediate_bytes(), 16 * 64 + 32 * 64);
        assert_eq!(m.max_intermediate_bytes(), 32 * 64);
    }

    #[test]
    fn intermediate_ratio_in_unit_range() {
        let m = tiny_model();
        let r = m.intermediate_ratio();
        assert!(r > 0.0 && r < 1.0);
    }
}
