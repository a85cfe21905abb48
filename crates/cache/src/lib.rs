//! Sliced shared cache with way partitioning and the NPU-exclusive
//! controller (NEC) of the CaMDN architecture (Section III-B of the
//! paper).
//!
//! The crate models both faces of the shared cache:
//!
//! * the **transparent path** ([`SharedCache`]) — conventional
//!   hardware-managed set-associative lookup used by CPU traffic and by
//!   the baseline systems (MoCA, AuRORA, plain shared cache), where
//!   multi-tenant contention arises;
//! * the **NPU-controlled path** ([`Nec`]) — model-exclusive,
//!   software-scheduled regions with bypass and multicast semantics, the
//!   architectural contribution of CaMDN.
//!
//! Both faces share the same physical geometry ([`CacheGeometry`]); way
//! partitioning splits the ways between them.
//!
//! # Example
//!
//! ```
//! use camdn_cache::{Nec, SharedCache};
//! use camdn_common::config::{CacheConfig, DramConfig};
//! use camdn_dram::DramModel;
//!
//! let cfg = CacheConfig::paper_default();
//! let mut cache = SharedCache::new(&cfg);
//! let mut dram = DramModel::new(DramConfig::paper_default(), cfg.line_bytes);
//!
//! // Reserve 12 of 16 ways for the NPU subspace (Table II).
//! let npu_mask = cache.partition_ways(cfg.npu_ways, 0, &mut dram);
//! assert_eq!(npu_mask.count_ones(), 12);
//!
//! // The NEC controls the reserved subspace.
//! let nec = Nec::new(&cfg);
//! assert_eq!(nec.npu_pages(), 384);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod geometry;
pub mod nec;
pub mod transparent;

pub use geometry::{CacheGeometry, Pcaddr, TAG_LANE_WIDTH};
pub use nec::{Nec, NecError, NecStats, TaskId};
pub use transparent::{CacheStats, RangeOutcome, SharedCache};
