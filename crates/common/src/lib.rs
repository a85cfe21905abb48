//! Simulation kernel shared by every CaMDN crate.
//!
//! This crate provides the foundation of the CaMDN simulator:
//!
//! * [`types`] — strongly-typed cycles, addresses and byte sizes;
//! * [`config`] — the SoC configuration of Table II of the paper
//!   ([`SocConfig::paper_default`]);
//! * [`rng`] — a seedable, dependency-free PRNG ([`SimRng`]) so every
//!   experiment is exactly reproducible;
//! * [`stats`] — counters, histograms and summary statistics used by the
//!   memory system and the experiment harness.
//!
//! # Example
//!
//! ```
//! use camdn_common::config::SocConfig;
//!
//! let soc = SocConfig::paper_default();
//! assert_eq!(soc.cache.total_bytes, 16 << 20); // 16 MiB shared cache
//! assert_eq!(soc.npu.cores, 16);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod config;
pub mod rng;
pub mod stats;
pub mod types;

pub use config::{CacheConfig, DramConfig, NpuConfig, SocConfig};
pub use rng::SimRng;
pub use stats::{Counter, Histogram};
pub use types::{Cycle, PhysAddr, VirtCacheAddr, KIB, MIB};
