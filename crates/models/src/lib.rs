//! Benchmark DNN model zoo for the CaMDN reproduction (Table I of the
//! paper).
//!
//! Every model is described as a chain of layers on a canonical 7-D loop
//! nest ([`nest::LoopNest`]): the representation the cache-aware mapper
//! tiles and schedules. Only shapes and byte counts are modelled — cache
//! behaviour depends on sizes and reuse structure, not on tensor values.
//!
//! # Example
//!
//! ```
//! use camdn_models::zoo;
//!
//! let resnet = zoo::resnet50();
//! println!(
//!     "{}: {} layers, {:.1} GMACs, {:.1} MB weights",
//!     resnet.name,
//!     resnet.num_layers(),
//!     resnet.total_macs() as f64 / 1e9,
//!     resnet.total_weight_bytes() as f64 / 1e6,
//! );
//! assert_eq!(resnet.abbr, "RS");
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod layer;
pub mod model;
pub mod nest;
pub mod zoo;

pub use layer::{Layer, OpKind, WeightClass};
pub use model::{Domain, Family, Model};
pub use nest::LoopNest;
