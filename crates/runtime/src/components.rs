//! The engine's phase components.
//!
//! The run loop in [`crate::engine`] pops a master event heap
//! ([`crate::sched::Scheduler`]) and routes every event through a fixed
//! sequence of phases: fault application, the epoch boundary, queue
//! sampling, and the NPU clock domain each own their scheduling state
//! here, while the task state machine itself stays on the `Engine` (it
//! owns the hardware models). The components are plain structs the loop
//! calls directly, because their actions need `&mut Engine`.
//!
//! Determinism contract: the components add no heap events of their
//! own beyond the fault sentinels, so the event order is fixed by the
//! heap's `(cycle, insertion)` order alone. The golden corpus
//! (`crates/camdn/tests/golden/run_outputs.txt`) pins the resulting
//! `RunOutput` bit for bit.

use camdn_common::types::Cycle;

/// Scheduling state of the engine's phase components. Owned by the
/// `Engine`; the machine state the ticks mutate stays on the engine.
#[derive(Debug, Clone)]
pub(crate) struct EngineComponents {
    /// Fault-plan application.
    pub fault: FaultComponent,
    /// The (lazy) epoch boundary.
    pub epoch: EpochComponent,
    /// Queue-depth sampling.
    pub sampler: SamplerComponent,
    /// The NPU compute clock domain.
    pub npu_clock: NpuClock,
}

impl EngineComponents {
    /// Components for one run: epoch boundary at `epoch_cycles`,
    /// sampler on an `every`-cycle clock (disabled when `None`), NPU
    /// clock at full rate, fault cursor at the head of the plan.
    pub fn new(epoch_cycles: Cycle, every: Option<Cycle>) -> Self {
        EngineComponents {
            fault: FaultComponent { cursor: 0 },
            epoch: EpochComponent {
                next_epoch: epoch_cycles,
                epoch_cycles,
            },
            sampler: SamplerComponent {
                every,
                next: every.unwrap_or(0),
            },
            npu_clock: NpuClock::full_rate(),
        }
    }
}

/// Applies the fault plan in event order. Its tick is
/// `Engine::apply_next_fault`; fault events carry the `FAULT_EVENT`
/// sentinel payload and are pushed before any arrival, so the FIFO
/// tie-break applies a same-cycle fault before task work at that cycle.
#[derive(Debug, Clone)]
pub(crate) struct FaultComponent {
    /// Next unapplied event of the plan.
    pub cursor: usize,
}

impl FaultComponent {
    /// Advances past the event just applied, returning its index.
    pub fn advance(&mut self) -> usize {
        let idx = self.cursor;
        self.cursor += 1;
        idx
    }
}

/// The epoch boundary — a *lazy* clock: rather than scheduling its own
/// heap events, it fires piggybacked on the first task event popped at
/// or past the boundary, and the next boundary is measured from that
/// event's cycle, so the boundary drifts with activity. An idle
/// stretch therefore produces no empty epoch ticks.
#[derive(Debug, Clone)]
pub(crate) struct EpochComponent {
    /// Master cycle at or past which the next epoch tick fires.
    pub next_epoch: Cycle,
    /// Epoch length in master cycles.
    pub epoch_cycles: Cycle,
}

impl EpochComponent {
    /// Whether the boundary has been reached by `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_epoch
    }

    /// Re-arms the boundary one epoch past the tick that fired.
    pub fn advance(&mut self, now: Cycle) {
        self.next_epoch = now + self.epoch_cycles;
    }
}

/// Queue-depth sampling on a fixed-period clock. Unlike the epoch this
/// clock does *not* drift: boundaries are multiples of `every`, and
/// every boundary at or before the current event is drained in order
/// (state only changes at events, so sampling just before the first
/// event at-or-past a boundary observes the state *at* it).
#[derive(Debug, Clone)]
pub(crate) struct SamplerComponent {
    /// Sampling period (`None` disables the component entirely).
    pub every: Option<Cycle>,
    /// Next boundary to sample.
    pub next: Cycle,
}

impl SamplerComponent {
    /// Returns the next due boundary at or before `now` and advances
    /// past it, or `None` when caught up (or disabled). Call in a loop —
    /// several boundaries may have passed between events.
    pub fn next_due(&mut self, now: Cycle) -> Option<Cycle> {
        let every = self.every?;
        if self.next > now {
            return None;
        }
        let at = self.next;
        self.next += every;
        Some(at)
    }
}

/// The NPU compute clock domain. DVFS (`ClockThrottle` faults) retunes
/// this clock; compute charges route through
/// [`compute_master_cycles`](NpuClock::compute_master_cycles), which
/// divides local compute cycles by the current rate to get master
/// cycles. The rate is held in rational (f64) form so the full-rate 1.0
/// stays IEEE-exact and a fault-free run is untouched bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct NpuClock {
    /// Clock rate relative to the master clock (1.0 = full rate;
    /// a `ClockThrottle { factor }` fault sets it to `factor`).
    scale: f64,
}

impl NpuClock {
    /// A full-rate clock (the fault-free state).
    pub fn full_rate() -> Self {
        NpuClock { scale: 1.0 }
    }

    /// DVFS retune: the fault's throttle factor becomes the new rate.
    pub fn set_rate(&mut self, factor: f64) {
        self.scale = factor;
    }

    /// Master cycles charged for `compute` local compute cycles on a
    /// `group`-wide NPU gang (multi-NPU gangs pay a 10% gang-scaling
    /// tax). At full rate this is IEEE-exact division by the group
    /// throughput alone.
    pub fn compute_master_cycles(&self, compute: Cycle, group: u32) -> Cycle {
        let eff = if group > 1 { 0.9 } else { 1.0 };
        (compute as f64 / (f64::from(group) * eff * self.scale)).ceil() as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_lazy_and_drifts() {
        let mut e = EpochComponent {
            next_epoch: 100,
            epoch_cycles: 100,
        };
        assert!(!e.due(99));
        assert!(e.due(100));
        // The boundary re-arms from the firing event, not the grid.
        e.advance(137);
        assert_eq!(e.next_epoch, 237);
        assert!(e.due(400));
    }

    #[test]
    fn sampler_drains_every_boundary_in_order() {
        let mut s = SamplerComponent {
            every: Some(10),
            next: 10,
        };
        assert_eq!(s.next_due(5), None);
        // Event at 34: boundaries 10, 20, 30 are all due, in order.
        let mut due = Vec::new();
        while let Some(at) = s.next_due(34) {
            due.push(at);
        }
        assert_eq!(due, vec![10, 20, 30]);
        assert_eq!(s.next_due(39), None);
        // Disabled sampler never fires.
        let mut off = SamplerComponent {
            every: None,
            next: 0,
        };
        assert_eq!(off.next_due(u64::MAX), None);
    }

    #[test]
    fn npu_clock_full_rate_is_exact_and_throttle_stretches() {
        let c = NpuClock::full_rate();
        // Single NPU at full rate: identity.
        assert_eq!(c.compute_master_cycles(12_345, 1), 12_345);
        // Gang of 2 pays the 0.9 efficiency: ceil(1000 / 1.8) = 556.
        assert_eq!(c.compute_master_cycles(1000, 2), 556);
        let mut t = NpuClock::full_rate();
        t.set_rate(0.5);
        assert_eq!(t.compute_master_cycles(1000, 1), 2000);
    }

    #[test]
    fn fault_cursor_walks_the_plan() {
        let mut f = FaultComponent { cursor: 0 };
        assert_eq!(f.advance(), 0);
        assert_eq!(f.advance(), 1);
        assert_eq!(f.cursor, 2);
    }
}
