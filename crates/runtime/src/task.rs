//! Task (tenant) state for the multi-tenant engine.

use crate::layout::TaskLayout;
use camdn_common::types::Cycle;
use camdn_core::{Decision, RegionGrant};
use camdn_mapper::PhasePlan;
use serde::{Deserialize, Serialize};

/// Execution state of a task.
///
/// `Copy` on purpose: the engine's event loop matches on a task's state
/// once per event, and a by-value copy of this small enum (the pending
/// [`Decision`] is itself `Copy`) keeps that hot path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for a free NPU to start the next inference.
    WaitingNpu,
    /// Waiting for cache pages (CaMDN-Full only); retried on page
    /// releases and degraded at `deadline`.
    WaitingPages {
        /// The pending allocation decision.
        decision: Decision,
    },
    /// Executing the phase at this index of the current plan.
    Running {
        /// Index of the in-flight phase.
        phase_idx: usize,
    },
    /// All rounds completed.
    Done,
}

/// Record of one completed inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceRecord {
    /// End-to-end latency in cycles.
    pub latency: Cycle,
    /// DRAM bytes attributed to this inference.
    pub dram_bytes: u64,
    /// Whether the QoS deadline was met (always true without QoS).
    pub deadline_met: bool,
}

/// One co-located tenant.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task id (also its NEC ownership id).
    pub id: u32,
    /// Index into the engine's model/mapping tables.
    pub model_idx: usize,
    /// Physical tensor layout.
    pub layout: TaskLayout,
    /// Current state.
    pub state: TaskState,
    /// NPUs currently assigned (first is the primary).
    pub npus: Vec<usize>,
    /// Layer currently executing.
    pub cur_layer: usize,
    /// Phase plan of the current layer (phases are generated on demand).
    pub plan: Option<PhasePlan>,
    /// Whether the current layer reads cached tensors via multicast.
    pub group: u32,
    /// Region grant for the current layer (LWM).
    pub lwm_grant: Option<RegionGrant>,
    /// Region grant for the active LBM block.
    pub lbm_grant: Option<RegionGrant>,
    /// Block id the LBM grant belongs to.
    pub lbm_block: Option<u32>,
    /// True when the current layer executes its LBM candidate.
    pub cur_is_lbm: bool,
    /// Completed inferences.
    pub rounds_done: u32,
    /// Start cycle of the inference in flight.
    pub inference_start: Cycle,
    /// DRAM bytes accumulated for the inference in flight.
    pub inference_dram: u64,
    /// Completion time of the in-flight phase's memory (stale-event
    /// guard: the next wake is scheduled here).
    pub phase_end: Cycle,
    /// PE-array busy horizon: compute of phase `k` starts once its
    /// memory is in and the previous phase's compute retired
    /// (double-buffered pipeline).
    pub compute_horizon: Cycle,
    /// Bandwidth-throttle horizon (MoCA-style regulation).
    pub bw_gate: Cycle,
    /// Current bandwidth share in `(0, 1]`.
    pub bw_share: f64,
    /// NPUs this task should use for its next inference.
    pub npu_quota: u32,
    /// Completed inference records.
    pub records: Vec<InferenceRecord>,
    /// Stale-event guard while waiting out a fault-retry back-off: an
    /// NPU is not requested before this cycle.
    pub retry_at: Cycle,
    /// Kills the in-flight inference has survived (reset per
    /// inference; bounded by
    /// [`MAX_INFERENCE_RETRIES`](crate::fault::MAX_INFERENCE_RETRIES)).
    pub attempt: u32,
    /// Inferences re-queued after an NPU failure (run total).
    pub retried: u64,
    /// Inferences dropped after exhausting the retry budget.
    pub dropped: u64,
    /// Arrivals shed by deadline-aware admission control.
    pub shed: u64,
}

impl Task {
    /// Creates a fresh task.
    pub fn new(id: u32, model_idx: usize, layout: TaskLayout) -> Self {
        Task {
            id,
            model_idx,
            layout,
            state: TaskState::WaitingNpu,
            npus: Vec::new(),
            cur_layer: 0,
            plan: None,
            group: 1,
            lwm_grant: None,
            lbm_grant: None,
            lbm_block: None,
            cur_is_lbm: false,
            rounds_done: 0,
            inference_start: 0,
            inference_dram: 0,
            phase_end: 0,
            compute_horizon: 0,
            bw_gate: 0,
            bw_share: 1.0,
            npu_quota: 1,
            records: Vec::new(),
            retry_at: 0,
            attempt: 0,
            retried: 0,
            dropped: 0,
            shed: 0,
        }
    }

    /// Mean latency over records `skip..`, in cycles.
    pub fn mean_latency(&self, skip: usize) -> f64 {
        let recs = &self.records[skip.min(self.records.len())..];
        if recs.is_empty() {
            return 0.0;
        }
        recs.iter().map(|r| r.latency as f64).sum::<f64>() / recs.len() as f64
    }

    /// Mean DRAM bytes per inference over records `skip..`.
    pub fn mean_dram_bytes(&self, skip: usize) -> f64 {
        let recs = &self.records[skip.min(self.records.len())..];
        if recs.is_empty() {
            return 0.0;
        }
        recs.iter().map(|r| r.dram_bytes as f64).sum::<f64>() / recs.len() as f64
    }

    /// Fraction of measured inferences that met their deadline.
    pub fn sla_rate(&self, skip: usize) -> f64 {
        let recs = &self.records[skip.min(self.records.len())..];
        if recs.is_empty() {
            return 1.0;
        }
        recs.iter().filter(|r| r.deadline_met).count() as f64 / recs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_models::zoo;

    #[test]
    fn record_aggregation() {
        let m = zoo::mobilenet_v2();
        let mut t = Task::new(0, 0, TaskLayout::new(0, &m));
        t.records.push(InferenceRecord {
            latency: 100,
            dram_bytes: 1000,
            deadline_met: false,
        });
        t.records.push(InferenceRecord {
            latency: 300,
            dram_bytes: 3000,
            deadline_met: true,
        });
        assert_eq!(t.mean_latency(0), 200.0);
        assert_eq!(t.mean_latency(1), 300.0);
        assert_eq!(t.mean_dram_bytes(1), 3000.0);
        assert_eq!(t.sla_rate(0), 0.5);
        assert_eq!(t.sla_rate(1), 1.0);
    }

    #[test]
    fn empty_records_are_safe() {
        let m = zoo::gnmt();
        let t = Task::new(0, 0, TaskLayout::new(0, &m));
        assert_eq!(t.mean_latency(0), 0.0);
        assert_eq!(t.sla_rate(0), 1.0);
    }
}
