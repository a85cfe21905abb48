//! Multi-tenant execution engine, pluggable scheduling policies,
//! workload scenarios and QoS metrics for the CaMDN reproduction
//! (Section IV of the paper).
//!
//! The engine ([`Engine`]) simulates co-located DNN tasks on the
//! NPU-integrated SoC of Table II. Scheduling is delegated to a
//! [`Policy`] object; the five systems evaluated in the paper ship as
//! built-ins named by [`PolicyKind`], and custom systems plug in
//! through [`register_policy`] or
//! [`SimulationBuilder::policy_instance`]. *When* inferences arrive is
//! a [`Workload`] scenario: the paper's closed loop, open-loop Poisson
//! traffic, or bursty arrivals.
//!
//! # Example
//!
//! ```no_run
//! use camdn_runtime::{PolicyKind, Simulation, Workload};
//!
//! // Four co-located models on the Table II SoC, full CaMDN.
//! let models = camdn_models::zoo::all().into_iter().take(4).collect();
//! let result = Simulation::builder()
//!     .policy(PolicyKind::CamdnFull)
//!     .workload(Workload::closed(models, 3))
//!     .run()
//!     .expect("valid configuration");
//! println!("avg latency {:.2} ms", result.summary.avg_latency_ms);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod fault;
pub mod layout;
pub mod metrics;
pub mod policies;
pub mod result;
pub mod scenario;
pub mod sched;
pub mod sim;
pub mod task;

pub use engine::{Engine, PolicyKind};
pub use error::{BudgetKind, EngineError};
pub use fault::{FaultEvent, FaultGenConfig, FaultKind, FaultPlan};
pub use layout::TaskLayout;
pub use metrics::{qos_metrics, QosMetrics};
pub use policies::{
    builtin_policy, create_policy, register_policy, registered_policies, AllocFailure, EpochSlot,
    InstallEvent, PartitionCtx, Policy, PolicyCapabilities, PolicyRegistry, Selection,
};
pub use result::{
    DetailLevel, LatencyTail, QueueSample, RunDetail, RunOutput, RunSummary, TaskSummary,
    LATENCY_HIST_BUCKETS, LATENCY_HIST_EDGES,
};
pub use scenario::{ArrivalProcess, Workload};
pub use sched::Scheduler;
pub use sim::{Simulation, SimulationBuilder};
pub use task::{InferenceRecord, Task, TaskState};
