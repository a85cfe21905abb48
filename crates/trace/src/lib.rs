//! Trace-driven serving replay for the CaMDN simulator.
//!
//! The crates below this one answer "how fast is one run?"; this crate
//! answers "how does a policy hold up under hours of realistic,
//! bursty, multi-tenant traffic?" It has three layers:
//!
//! - [`schema`] — a versioned NDJSON trace format (`camdn-trace/1`)
//!   with a streaming [`TraceWriter`]/[`TraceReader`] pair that
//!   validates every record and rejects malformed input with typed
//!   [`TraceError`]s instead of panics.
//! - [`gen`] — seeded heavy-tailed trace generators: Zipf model
//!   popularity, Pareto inter-arrivals and a diurnal rate curve, all
//!   driven by the workspace's deterministic `SimRng`.
//! - [`replay`] — a bounded-memory [`ReplayDriver`] that streams a
//!   trace through the engine one analysis window at a time, emitting
//!   per-window SLO analytics ([`WindowMetrics`]: latency tails,
//!   per-tenant SLO burn rates, queue-depth timelines) into pluggable
//!   [`ReplaySink`]s.
//!
//! Everything is deterministic: the same seed produces the same trace,
//! and replaying the same trace twice produces bit-identical windowed
//! metrics.
//!
//! # Example
//!
//! Generate a one-second heavy-tailed trace and replay it through the
//! full CaMDN policy in 100 ms windows:
//!
//! ```
//! use camdn_trace::{
//!     ReplayAggregate, ReplayConfig, ReplayDriver, TraceGen, TraceGenConfig,
//! };
//! use camdn_runtime::PolicyKind;
//!
//! let gen_cfg = TraceGenConfig {
//!     rate_per_s: 300.0,
//!     ..TraceGenConfig::default()
//! };
//! let records = TraceGen::new(gen_cfg).unwrap().map(Ok);
//!
//! let mut driver =
//!     ReplayDriver::new(ReplayConfig::new(PolicyKind::CamdnFull, 100_000)).unwrap();
//! let mut agg = ReplayAggregate::new();
//! let totals = driver.replay(records, &mut agg).unwrap();
//!
//! assert_eq!(totals.arrivals, agg.arrivals);
//! assert!(agg.sla_rate() >= 0.0 && agg.sla_rate() <= 1.0);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod replay;
pub mod schema;

pub use gen::{generate_into, TraceGen, TraceGenConfig};
pub use replay::{
    windows, ReplayAggregate, ReplayConfig, ReplayDriver, ReplaySink, ReplayTotals, TenantBurn,
    TraceWindow, WindowMetrics, Windows,
};
pub use schema::{
    header_line, record_line, SlaClass, TraceError, TraceReader, TraceRecord, TraceWriter,
    TRACE_SCHEMA,
};
