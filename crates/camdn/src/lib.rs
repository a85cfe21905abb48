//! Umbrella crate for the CaMDN reproduction.
//!
//! Re-exports the public API of every subsystem so examples, integration
//! tests and downstream users can depend on a single crate, plus the
//! headline simulation types at the top level:
//!
//! ```no_run
//! use camdn::{PolicyKind, Simulation, Workload};
//!
//! let models = camdn::models::zoo::all();
//! let result = Simulation::builder()
//!     .policy(PolicyKind::CamdnFull)
//!     .workload(Workload::closed(models, 2))
//!     .run()
//!     .expect("valid configuration");
//! println!("{}: {:.2} ms", result.policy, result.summary.avg_latency_ms);
//! ```
//!
//! Grid experiments (policies × SoCs × cache sizes × workloads ×
//! seeds) run through the sweep subsystem:
//!
//! ```no_run
//! use camdn::{PolicyKind, Sweep, Workload};
//!
//! let grid = Sweep::grid()
//!     .policies(PolicyKind::ALL)
//!     .workload("zoo", Workload::closed(camdn::models::zoo::all(), 2))
//!     .seeds([1, 2, 3])
//!     .run()
//!     .expect("valid grid");
//! assert_eq!(grid.cells.len(), 15);
//! ```
//!
//! See the crate-level docs of each member for details:
//! [`camdn_core`] (the co-design), [`camdn_runtime`] (multi-tenant
//! engine, policies and scenarios), [`camdn_sweep`] (parallel grid
//! sweeps), [`camdn_trace`] (trace-driven serving replay),
//! [`camdn_mapper`], [`camdn_models`], [`camdn_cache`],
//! [`camdn_dram`], [`camdn_npu`], [`camdn_analysis`] and
//! [`camdn_common`].

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

/// Compiles and runs the README's code examples as doctests, so the
/// documented snippets (Quickstart, Sweeps, Results pipeline) cannot
/// drift from the real API.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use camdn_analysis as analysis;
pub use camdn_cache as cache;
pub use camdn_common as common;
pub use camdn_core as core;
pub use camdn_dram as dram;
pub use camdn_mapper as mapper;
pub use camdn_models as models;
pub use camdn_npu as npu;
pub use camdn_runtime as runtime;
pub use camdn_sweep as sweep;
pub use camdn_trace as trace;

pub use camdn_mapper::{PlanCache, PlanCacheStats};
pub use camdn_runtime::{
    qos_metrics, register_policy, ArrivalProcess, BudgetKind, DetailLevel, EngineError, FaultEvent,
    FaultGenConfig, FaultKind, FaultPlan, LatencyTail, Policy, PolicyKind, PolicyRegistry,
    QosMetrics, RunDetail, RunOutput, RunSummary, Simulation, SimulationBuilder, TaskSummary,
    Workload, LATENCY_HIST_BUCKETS, LATENCY_HIST_EDGES,
};
pub use camdn_sweep::{
    bursty_ramp, CellCoord, CellOutcome, CellSink, MemorySink, MetricStats, SeedAggregate,
    SeedStats, Sweep, SweepBuilder, SweepCell, SweepResult,
};
