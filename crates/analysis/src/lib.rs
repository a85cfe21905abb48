//! Workload analytics and hardware-cost models for the CaMDN
//! reproduction.
//!
//! * [`reuse`] — the reuse-count / reuse-distance statistics of Fig. 3,
//!   which motivate bypassing (most data is single-use) and
//!   NPU-controlled retention (intermediates return far away);
//! * [`area`] — the analytical 45 nm area model behind Table III,
//!   substituting for the paper's Synopsys DC + OpenRAM flow.
//!
//! # Example
//!
//! ```
//! use camdn_analysis::area::{area_breakdown, AreaModel};
//! use camdn_common::config::{CacheConfig, NpuConfig};
//!
//! let b = area_breakdown(
//!     &NpuConfig::paper_default(),
//!     &CacheConfig::paper_default(),
//!     &AreaModel::calibrated_45nm(),
//! );
//! assert!(b.cpt_percent() < 1.5); // the CPT is a negligible add-on
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod area;
pub mod reuse;

pub use area::{area_breakdown, AreaBreakdown, AreaModel, AreaRow};
pub use reuse::{profile_zoo, reuse_profile, ReuseProfile};
