//! Deterministic fault injection: seeded, validated schedules of
//! mid-run hardware degradation.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultEvent`]s the engine
//! applies at exact simulated cycles: NPU cores dropping out and
//! returning ([`FaultKind::NpuDown`]/[`FaultKind::NpuUp`]), DRAM
//! channels browning out ([`FaultKind::DramChannelDown`]) or degrading
//! to a fractional bandwidth ([`FaultKind::DramDegrade`]), and
//! DVFS-style clock throttling ([`FaultKind::ClockThrottle`]). Plans
//! are either written by hand ([`FaultPlan::new`]) or drawn from seeded
//! exponential MTBF/MTTR processes ([`FaultPlan::generate`]), so a
//! chaos study is as reproducible as any other run: same seed, same
//! faults, same result.
//!
//! The whole layer is opt-in — an engine without a plan simulates
//! exactly as before, bit for bit.
//!
//! ```
//! use camdn_runtime::{FaultEvent, FaultKind, FaultPlan};
//!
//! // NPU 0 dies 1 ms in and comes back 2 ms later.
//! let plan = FaultPlan::new(vec![
//!     FaultEvent { at: 1_000_000, kind: FaultKind::NpuDown(0) },
//!     FaultEvent { at: 3_000_000, kind: FaultKind::NpuUp(0) },
//! ])
//! .expect("events are time-ordered and well-formed");
//! assert_eq!(plan.events().len(), 2);
//! ```

use crate::error::EngineError;
use camdn_common::rng::SimRng;
use camdn_common::types::Cycle;
use std::collections::BTreeMap;

/// Bandwidth scale a browned-out DRAM channel is re-priced at.
///
/// Channel *removal* would change the address interleaving (and with it
/// every line's placement), so a down channel is modelled as a severe
/// brownout: it still serves its interleaved share of traffic, at this
/// fraction of nominal bandwidth.
pub const CHANNEL_DOWN_SCALE: f64 = 0.05;

/// Retry budget for an inference killed by an NPU failure: after this
/// many kills the inference is dropped (counted in
/// [`RunSummary::dropped_inferences`](crate::RunSummary::dropped_inferences)).
pub const MAX_INFERENCE_RETRIES: u32 = 3;

/// Base of the exponential back-off (in simulated cycles) before a
/// killed inference re-enters the NPU queue: the k-th retry waits
/// `RETRY_BACKOFF_CYCLES << (k - 1)`.
pub const RETRY_BACKOFF_CYCLES: Cycle = 50_000;

/// One kind of hardware degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// NPU core goes down: in-flight work on it is killed and
    /// re-queued, and the core leaves the free pool.
    NpuDown(u32),
    /// NPU core returns to the free pool.
    NpuUp(u32),
    /// DRAM channel browns out to [`CHANNEL_DOWN_SCALE`] of nominal
    /// bandwidth.
    DramChannelDown(u32),
    /// DRAM channel returns to nominal bandwidth.
    DramChannelUp(u32),
    /// DRAM channel degrades to `factor` of nominal bandwidth
    /// (`0 < factor <= 1`; `1.0` restores it).
    DramDegrade {
        /// Channel index.
        channel: u32,
        /// Bandwidth scale in `(0, 1]`.
        factor: f64,
    },
    /// Global NPU clock scales to `factor` of nominal frequency
    /// (`0 < factor <= 1`; `1.0` restores it). Compute phases stretch
    /// by `1 / factor`; memory timing is untouched.
    ClockThrottle {
        /// Clock scale in `(0, 1]`.
        factor: f64,
    },
}

/// One scheduled fault, applied when simulated time reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated cycle the fault fires at.
    pub at: Cycle,
    /// What degrades (or recovers).
    pub kind: FaultKind,
}

/// A validated, time-ordered schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from explicit events, validating that timestamps
    /// are non-decreasing and every scale factor is finite and in
    /// `(0, 1]`. Resource indices are checked against the SoC when the
    /// simulation is built, not here.
    pub fn new(events: Vec<FaultEvent>) -> Result<Self, EngineError> {
        let mut last = 0;
        for (i, e) in events.iter().enumerate() {
            if e.at < last {
                return Err(EngineError::InvalidConfig(format!(
                    "fault plan is not time-ordered: event {i} at cycle {} follows cycle {last}",
                    e.at
                )));
            }
            last = e.at;
            let factor = match e.kind {
                FaultKind::DramDegrade { factor, .. } => Some(factor),
                FaultKind::ClockThrottle { factor } => Some(factor),
                _ => None,
            };
            if let Some(f) = factor {
                if !f.is_finite() || f <= 0.0 || f > 1.0 {
                    return Err(EngineError::InvalidConfig(format!(
                        "fault plan event {i}: scale factor {f} is outside (0, 1]"
                    )));
                }
            }
        }
        Ok(FaultPlan { events })
    }

    /// Draws a plan from seeded exponential MTBF/MTTR processes: each
    /// resource class alternates up-time (mean `*_mtbf_cycles`) and
    /// repair time (mean `*_mttr_cycles`) independently per resource,
    /// clipped to `cfg.horizon`. A class with MTBF `0.0` is disabled.
    /// The same configuration always yields the same plan.
    pub fn generate(cfg: &FaultGenConfig) -> Result<Self, EngineError> {
        let mut rng = SimRng::new(cfg.seed);
        let mut events = Vec::new();
        if cfg.npu_mtbf_cycles > 0.0 {
            for core in 0..cfg.npu_cores {
                push_alternating(
                    &mut rng,
                    &mut events,
                    cfg.horizon,
                    cfg.npu_mtbf_cycles,
                    cfg.npu_mttr_cycles,
                    FaultKind::NpuDown(core),
                    FaultKind::NpuUp(core),
                );
            }
        }
        if cfg.dram_mtbf_cycles > 0.0 {
            for channel in 0..cfg.dram_channels {
                push_alternating(
                    &mut rng,
                    &mut events,
                    cfg.horizon,
                    cfg.dram_mtbf_cycles,
                    cfg.dram_mttr_cycles,
                    FaultKind::DramDegrade {
                        channel,
                        factor: cfg.dram_degrade_factor,
                    },
                    FaultKind::DramChannelUp(channel),
                );
            }
        }
        if cfg.throttle_mtbf_cycles > 0.0 {
            push_alternating(
                &mut rng,
                &mut events,
                cfg.horizon,
                cfg.throttle_mtbf_cycles,
                cfg.throttle_mttr_cycles,
                FaultKind::ClockThrottle {
                    factor: cfg.throttle_factor,
                },
                FaultKind::ClockThrottle { factor: 1.0 },
            );
        }
        events.sort_by_key(|e| e.at);
        Self::new(events)
    }

    /// The schedule, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every resource index against an SoC's core and channel
    /// counts (called by
    /// [`SimulationBuilder::build`](crate::SimulationBuilder::build)).
    pub fn validate_for(&self, npu_cores: u32, dram_channels: u32) -> Result<(), EngineError> {
        for (i, e) in self.events.iter().enumerate() {
            let (idx, bound, what) = match e.kind {
                FaultKind::NpuDown(n) | FaultKind::NpuUp(n) => (n, npu_cores, "NPU core"),
                FaultKind::DramChannelDown(c)
                | FaultKind::DramChannelUp(c)
                | FaultKind::DramDegrade { channel: c, .. } => (c, dram_channels, "DRAM channel"),
                FaultKind::ClockThrottle { .. } => continue,
            };
            if idx >= bound {
                return Err(EngineError::InvalidConfig(format!(
                    "fault plan event {i}: {what} {idx} is out of range (SoC has {bound})"
                )));
            }
        }
        Ok(())
    }

    /// Order-independent fingerprint of the schedule, for reports that
    /// name a plan: two runs agree on their faults iff the fingerprints
    /// match (up to hash collision).
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical encoding of every event.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in &self.events {
            mix(e.at);
            match e.kind {
                FaultKind::NpuDown(n) => {
                    mix(1);
                    mix(u64::from(n));
                }
                FaultKind::NpuUp(n) => {
                    mix(2);
                    mix(u64::from(n));
                }
                FaultKind::DramChannelDown(c) => {
                    mix(3);
                    mix(u64::from(c));
                }
                FaultKind::DramChannelUp(c) => {
                    mix(4);
                    mix(u64::from(c));
                }
                FaultKind::DramDegrade { channel, factor } => {
                    mix(5);
                    mix(u64::from(channel));
                    mix(factor.to_bits());
                }
                FaultKind::ClockThrottle { factor } => {
                    mix(6);
                    mix(factor.to_bits());
                }
            }
        }
        h
    }

    /// The sub-plan covering `[start, end)`, rebased to cycle 0 —
    /// what a windowed replay hands each window's engine run. Faults
    /// *active* at `start` (an NPU still down, a channel still
    /// degraded, a throttled clock) are materialized as events at
    /// cycle 0, so a window that begins mid-outage starts degraded.
    pub fn slice(&self, start: Cycle, end: Cycle) -> FaultPlan {
        let mut npus: BTreeMap<u32, bool> = BTreeMap::new(); // true = down
        let mut channels: BTreeMap<u32, f64> = BTreeMap::new();
        let mut clock = 1.0f64;
        let mut events = Vec::new();
        for e in &self.events {
            if e.at >= end {
                break;
            }
            if e.at < start {
                match e.kind {
                    FaultKind::NpuDown(n) => {
                        npus.insert(n, true);
                    }
                    FaultKind::NpuUp(n) => {
                        npus.insert(n, false);
                    }
                    FaultKind::DramChannelDown(c) => {
                        channels.insert(c, CHANNEL_DOWN_SCALE);
                    }
                    FaultKind::DramChannelUp(c) => {
                        channels.insert(c, 1.0);
                    }
                    FaultKind::DramDegrade { channel, factor } => {
                        channels.insert(channel, factor);
                    }
                    FaultKind::ClockThrottle { factor } => clock = factor,
                }
            } else {
                events.push(FaultEvent {
                    at: e.at - start,
                    kind: e.kind,
                });
            }
        }
        let mut boundary = Vec::new();
        for (&n, &down) in &npus {
            if down {
                boundary.push(FaultEvent {
                    at: 0,
                    kind: FaultKind::NpuDown(n),
                });
            }
        }
        for (&c, &factor) in &channels {
            if factor != 1.0 {
                boundary.push(FaultEvent {
                    at: 0,
                    kind: FaultKind::DramDegrade { channel: c, factor },
                });
            }
        }
        if clock != 1.0 {
            boundary.push(FaultEvent {
                at: 0,
                kind: FaultKind::ClockThrottle { factor: clock },
            });
        }
        boundary.extend(events);
        FaultPlan { events: boundary }
    }
}

/// Pushes alternating down/up events for one resource until `horizon`.
fn push_alternating(
    rng: &mut SimRng,
    events: &mut Vec<FaultEvent>,
    horizon: Cycle,
    mtbf: f64,
    mttr: f64,
    down: FaultKind,
    up: FaultKind,
) {
    let mut t = exp_draw(rng, mtbf);
    while t < horizon {
        events.push(FaultEvent { at: t, kind: down });
        let repaired = t + exp_draw(rng, mttr);
        if repaired >= horizon {
            return;
        }
        events.push(FaultEvent {
            at: repaired,
            kind: up,
        });
        t = repaired + exp_draw(rng, mtbf);
    }
}

/// One exponential draw with the given mean, in whole cycles (>= 1).
fn exp_draw(rng: &mut SimRng, mean: f64) -> Cycle {
    let u = rng.next_f64();
    (-(1.0 - u).ln() * mean).ceil().max(1.0) as Cycle
}

/// Configuration of [`FaultPlan::generate`]: per-class mean time
/// between failures / to repair, in simulated cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultGenConfig {
    /// Seed of the fault process (independent of the engine seed).
    pub seed: u64,
    /// Cycle the fault processes stop at (typically the expected run
    /// length).
    pub horizon: Cycle,
    /// NPU cores the failure processes cover (match the SoC).
    pub npu_cores: u32,
    /// DRAM channels the brownout processes cover (match the SoC).
    pub dram_channels: u32,
    /// Mean cycles between failures per NPU core (`0.0` disables).
    pub npu_mtbf_cycles: f64,
    /// Mean repair cycles per NPU failure.
    pub npu_mttr_cycles: f64,
    /// Mean cycles between brownouts per DRAM channel (`0.0` disables).
    pub dram_mtbf_cycles: f64,
    /// Mean brownout duration in cycles.
    pub dram_mttr_cycles: f64,
    /// Bandwidth scale while a channel is browned out.
    pub dram_degrade_factor: f64,
    /// Mean cycles between thermal-throttle episodes (`0.0` disables).
    pub throttle_mtbf_cycles: f64,
    /// Mean throttle-episode duration in cycles.
    pub throttle_mttr_cycles: f64,
    /// Clock scale during a throttle episode.
    pub throttle_factor: f64,
}

impl Default for FaultGenConfig {
    /// Table II resource counts, all classes enabled at moderate rates
    /// over a 100 ms horizon.
    fn default() -> Self {
        FaultGenConfig {
            seed: 0xFA017,
            horizon: 100_000_000,
            npu_cores: 16,
            dram_channels: 4,
            npu_mtbf_cycles: 50_000_000.0,
            npu_mttr_cycles: 5_000_000.0,
            dram_mtbf_cycles: 50_000_000.0,
            dram_mttr_cycles: 5_000_000.0,
            dram_degrade_factor: 0.25,
            throttle_mtbf_cycles: 50_000_000.0,
            throttle_mttr_cycles: 5_000_000.0,
            throttle_factor: 0.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_events_are_rejected() {
        let err = FaultPlan::new(vec![
            FaultEvent {
                at: 10,
                kind: FaultKind::NpuDown(0),
            },
            FaultEvent {
                at: 5,
                kind: FaultKind::NpuUp(0),
            },
        ])
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn bad_factors_are_rejected() {
        for factor in [0.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            let err = FaultPlan::new(vec![FaultEvent {
                at: 0,
                kind: FaultKind::ClockThrottle { factor },
            }])
            .unwrap_err();
            assert!(matches!(err, EngineError::InvalidConfig(_)), "{factor}");
        }
        // 1.0 (restore) and small positive factors are fine.
        for factor in [1.0, 0.05] {
            FaultPlan::new(vec![FaultEvent {
                at: 0,
                kind: FaultKind::DramDegrade { channel: 0, factor },
            }])
            .unwrap();
        }
    }

    #[test]
    fn validate_for_checks_resource_ranges() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 0,
            kind: FaultKind::NpuDown(4),
        }])
        .unwrap();
        plan.validate_for(8, 8).unwrap();
        assert!(plan.validate_for(4, 8).is_err());
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 0,
            kind: FaultKind::DramChannelDown(7),
        }])
        .unwrap();
        plan.validate_for(8, 8).unwrap();
        assert!(plan.validate_for(8, 4).is_err());
    }

    #[test]
    fn generate_is_deterministic_and_ordered() {
        let cfg = FaultGenConfig::default();
        let a = FaultPlan::generate(&cfg).unwrap();
        let b = FaultPlan::generate(&cfg).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "default rates over 100 ms produce faults");
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.events().iter().all(|e| e.at < cfg.horizon));
        let c = FaultPlan::generate(&FaultGenConfig {
            seed: cfg.seed + 1,
            ..cfg
        })
        .unwrap();
        assert_ne!(a, c, "a different seed draws a different schedule");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn slice_rebases_and_materializes_active_faults() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 100,
                kind: FaultKind::NpuDown(2),
            },
            FaultEvent {
                at: 150,
                kind: FaultKind::ClockThrottle { factor: 0.5 },
            },
            FaultEvent {
                at: 300,
                kind: FaultKind::NpuUp(2),
            },
            FaultEvent {
                at: 450,
                kind: FaultKind::DramDegrade {
                    channel: 1,
                    factor: 0.25,
                },
            },
        ])
        .unwrap();
        // Window [200, 400): NPU 2 and the throttle are active at entry,
        // the NpuUp at 300 rebases to 100, the degrade at 450 is out.
        let w = plan.slice(200, 400);
        assert_eq!(
            w.events(),
            &[
                FaultEvent {
                    at: 0,
                    kind: FaultKind::NpuDown(2)
                },
                FaultEvent {
                    at: 0,
                    kind: FaultKind::ClockThrottle { factor: 0.5 }
                },
                FaultEvent {
                    at: 100,
                    kind: FaultKind::NpuUp(2)
                },
            ]
        );
        // A window after recovery sees nothing from the NPU outage —
        // but the never-restored throttle is still active at entry.
        let w = plan.slice(400, 500);
        assert_eq!(
            w.events(),
            &[
                FaultEvent {
                    at: 0,
                    kind: FaultKind::ClockThrottle { factor: 0.5 }
                },
                FaultEvent {
                    at: 50,
                    kind: FaultKind::DramDegrade {
                        channel: 1,
                        factor: 0.25
                    }
                },
            ]
        );
        // Fault-free prefix slices to an empty plan.
        assert!(plan.slice(0, 100).is_empty());
    }
}
