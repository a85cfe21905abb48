//! The CaMDN co-design core (Section III of the paper).
//!
//! This crate ties the architecture to the scheduling method:
//!
//! * [`alloc`] — the cache page allocator over the NPU subspace;
//! * [`dynalloc`] — **Algorithm 1**, the dynamic cache allocation
//!   algorithm that predicts near-future cache usage and selects mapping
//!   candidates;
//! * [`policy`] — the static equal-split policy of the CaMDN(HW-only)
//!   ablation;
//! * [`region`] — installing a selected candidate: acquiring pages,
//!   claiming NEC ownership and programming the NPU's CPT.
//!
//! # Example
//!
//! ```
//! use camdn_core::dynalloc::DynamicAllocator;
//!
//! let mut alg = DynamicAllocator::new(4);
//! // Task 1 holds 50 pages and is predicted to return 40 at t=1000.
//! alg.note_alloc(1, 50, 1000, 10);
//! assert_eq!(alg.pred_avail_pages(2000, 0, 5), 45);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod dynalloc;
pub mod policy;
pub mod region;

pub use alloc::{AllocError, PageAllocator};
pub use dynalloc::{degrade_decision, resolve_candidate, CandidateRef, Decision, DynamicAllocator};
pub use policy::StaticPolicy;
pub use region::{install_region, teardown_region, RegionError, RegionGrant};
