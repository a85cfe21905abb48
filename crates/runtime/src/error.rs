//! Typed errors surfaced by [`Simulation::run`](crate::Simulation::run)
//! and [`SimulationBuilder::build`](crate::SimulationBuilder::build).
//!
//! The engine's hot loop used to `panic!`/`expect` on broken invariants
//! (a region install failing for a reason other than page pressure, a
//! cache operation on pages the task does not own, a running task
//! without a plan). Those conditions now propagate as [`EngineError`]
//! values so embedding services can log, retry with a different
//! configuration, or shed the offending tenant instead of crashing.

use crate::result::RunOutput;
use camdn_common::types::Cycle;
use std::error::Error;
use std::fmt;

/// Which run budget was exhausted (see
/// [`EngineError::BudgetExceeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The simulated-cycle budget
    /// ([`SimulationBuilder::max_sim_cycles`](crate::SimulationBuilder::max_sim_cycles)).
    SimCycles,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::SimCycles => write!(f, "simulated-cycle"),
        }
    }
}

/// Error type of the simulation API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The workload contains no models, so there is nothing to simulate
    /// (and aggregate statistics would be meaningless).
    EmptyWorkload,
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// A policy name was not found in the registry.
    UnknownPolicy(String),
    /// Installing or tearing down a cache region failed for a reason
    /// other than page pressure — an ownership or CPT invariant broke.
    Region {
        /// Task whose region operation failed.
        task: u32,
        /// Layer index the task was executing.
        layer: usize,
        /// Underlying region error.
        detail: String,
    },
    /// A controlled-cache operation (fill, read, write, writeback,
    /// multicast) was rejected by the NPU-exclusive controller.
    Cache {
        /// Task whose access was rejected.
        task: u32,
        /// Which operation was attempted.
        op: &'static str,
        /// Underlying NEC error.
        detail: String,
    },
    /// A task was scheduled to execute without a lowered layer plan.
    MissingPlan {
        /// Task missing its plan.
        task: u32,
        /// Layer index the task was executing.
        layer: usize,
    },
    /// A policy returned a decision that does not match the layer's
    /// mapping candidate table.
    BadDecision {
        /// Task the decision was made for.
        task: u32,
        /// Layer index the decision applies to.
        layer: usize,
    },
    /// The simulation panicked (an internal invariant `assert!` fired,
    /// or a custom policy panicked). Sweep executors catch the unwind
    /// and surface it as this variant so one broken cell cannot abort a
    /// whole grid.
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// An I/O operation on behalf of a run failed (e.g. the sweep
    /// layer's streamed JSONL cell log could not be written or read).
    Io {
        /// The underlying I/O error, as text.
        detail: String,
    },
    /// A transfer could carry the DRAM's timing horizon past the
    /// model's fixed-point range ([`DramConfig::MAX_HORIZON_CYCLES`]):
    /// the bandwidth is too low for the workload to be timed.
    ///
    /// [`DramConfig::MAX_HORIZON_CYCLES`]: camdn_common::config::DramConfig::MAX_HORIZON_CYCLES
    DramRange {
        /// Task whose transfer was refused.
        task: u32,
        /// Cycle at which the transfer would have started.
        at_cycle: Cycle,
    },
    /// A run budget expired before every task finished. The work
    /// simulated up to the cut-off is aggregated into `partial` — a
    /// truncated cell reports what it measured instead of running away.
    BudgetExceeded {
        /// Which budget tripped.
        budget: BudgetKind,
        /// Simulated cycle at which the run was cut off.
        at_cycle: Cycle,
        /// Aggregated output of the truncated run (boxed: the variant
        /// would otherwise dominate the size of every `Result`).
        partial: Box<RunOutput>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyWorkload => write!(f, "workload contains no models"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::UnknownPolicy(name) => {
                write!(f, "policy '{name}' is not registered")
            }
            EngineError::Region {
                task,
                layer,
                detail,
            } => write!(
                f,
                "region invariant broken for task {task} at layer {layer}: {detail}"
            ),
            EngineError::Cache { task, op, detail } => {
                write!(
                    f,
                    "controlled cache {op} rejected for task {task}: {detail}"
                )
            }
            EngineError::MissingPlan { task, layer } => {
                write!(f, "task {task} has no plan at layer {layer}")
            }
            EngineError::BadDecision { task, layer } => write!(
                f,
                "policy decision for task {task} does not match the MCT of layer {layer}"
            ),
            EngineError::Panicked { detail } => {
                write!(f, "simulation panicked: {detail}")
            }
            EngineError::Io { detail } => write!(f, "i/o failed: {detail}"),
            EngineError::DramRange { task, at_cycle } => write!(
                f,
                "task {task}'s transfer at cycle {at_cycle} could carry the DRAM horizon \
                 past its {}-cycle range",
                camdn_common::config::DramConfig::MAX_HORIZON_CYCLES
            ),
            EngineError::BudgetExceeded {
                budget, at_cycle, ..
            } => write!(f, "{budget} budget exceeded at cycle {at_cycle}"),
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::Cache {
            task: 3,
            op: "fill",
            detail: "page 12 owned by task 1".into(),
        };
        let s = e.to_string();
        assert!(s.contains("fill") && s.contains("task 3"), "{s}");
        assert!(EngineError::EmptyWorkload.to_string().contains("no models"));
    }
}
