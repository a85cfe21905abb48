//! NPU core model for the CaMDN simulator.
//!
//! Provides the per-core architectural state and timing models the rest
//! of the system builds on:
//!
//! * [`cpt`] — the hardware cache page table CaMDN installs in each NPU
//!   (vcaddr → pcaddr translation, 1.5 KiB SRAM);
//! * [`compute`] — systolic PE-array timing with a utilization model
//!   (dense vs depth-wise vs transformer layers);
//! * [`core`] — the [`NpuCore`] aggregate.
//!
//! # Example
//!
//! ```
//! use camdn_common::config::NpuConfig;
//! use camdn_npu::compute::ComputeSpec;
//!
//! // One ResNet-style conv: 3x3x256 reduction, 256 output channels.
//! let spec = ComputeSpec {
//!     macs: 1 << 28,
//!     reduction: 3 * 3 * 256,
//!     out_channels: 256,
//!     spatial: 14 * 14,
//! };
//! let cfg = NpuConfig::paper_default();
//! assert!(spec.utilization(&cfg) > 0.99); // dense conv fills the array
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod compute;
pub mod core;
pub mod cpt;

pub use compute::ComputeSpec;
pub use core::{NpuCore, NpuId};
pub use cpt::{CachePageTable, CptError};
