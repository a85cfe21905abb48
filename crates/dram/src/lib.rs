//! DRAM timing model for the CaMDN simulator.
//!
//! The paper evaluates CaMDN on an in-house cycle-accurate simulator built
//! on DRAMsim3. This crate provides the equivalent substrate: a
//! channel/bank/row-buffer model with per-channel queuing, which produces
//! the two quantities the paper's evaluation depends on — **service
//! latency under contention** and **total DRAM traffic**.
//!
//! Requests are issued as bursts of whole cache lines. Addresses are
//! interleaved across channels at line granularity (so sequential streams
//! use the full 102.4 GB/s of Table II), and across banks at row
//! granularity. A request to an open row pays only CAS latency; a row
//! miss pays precharge + activate ([`DramConfig::row_miss_penalty`]).
//!
//! # Batched accounting
//!
//! Timing is defined by a per-line recurrence: each line occupies its
//! channel's data bus for `line / channel_bandwidth` cycles behind the
//! bus's current horizon and its bank's readiness. Evaluating that
//! recurrence literally costs one loop iteration per 64 B line, which
//! made multi-MB DNN transfers the simulator's hottest loop. Because
//! consecutive lines round-robin the channels and share a row until the
//! next row boundary, the recurrence telescopes: within one (row,
//! channel) segment every line after the first starts exactly where the
//! previous one finished, so a whole segment advances the channel
//! horizon by `k × burst` in one step. [`DramModel::access_burst`]
//! walks those segments, and sub-cycle time is kept in **fixed point**
//! (2⁻²⁰ cycles) so the closed form is *bit-identical* to the per-line
//! walk (integer adds associate; float adds do not).
//!
//! Whole rows go further. When a row holds a whole number of channel
//! rounds, every full row gives each channel the same `kf` lines, and
//! rows rotate through the banks. A channel then walks one step per
//! row for its first `banks` rows. Past that first lap, if `banks × kf
//! × burst` covers the row-miss penalty, no bank and no `earliest` can
//! delay the bus again, so the remaining rows are priced in closed
//! form: one update per bank and one horizon step per channel. A channel
//! that misses the bound walks every row.
//!
//! A [`LineBatch`] prices the cache's MSHR-gated misses the same way,
//! one (row, channel) segment per step, for fill runs and for eviction
//! runs (a writeback and a fill per line). A segment's gates come from
//! the MSHR ring for a run's first window of misses and from the run's
//! own per-channel segment descriptors after that, and a segment whose
//! gates could change its closed form walks line by line. Whole rows
//! past a fill run's head are one step per channel and one update per
//! bank, under one more bound that keeps the gates off the bus (see
//! there).
//!
//! A bank's update never involves its channel's bus, so while every
//! channel holds the same state of a bank, the model stores that bank
//! once (bit `b` of a one-word agreement mask) and a burst updates it
//! once for all channels. Each channel's horizon then folds the lap in
//! closed form (a max-plus sum; see `row_run`). A burst costs
//! O(min(rows, banks) + channels) while the banks it visits agree, and
//! O(channels × min(rows, banks)) otherwise, instead of O(rows ×
//! channels). Writes to one channel's bank (the per-line walk and the
//! [`LineBatch`] paths) first give each channel its own copy.
//!
//! Time is kept in 64-bit fixed point, which spans
//! [`DramConfig::MAX_HORIZON_CYCLES`] (2^44 cycles). A horizon past it
//! would wrap silently, so [`DramModel::fits`] bounds a transfer's
//! reach before it is priced; the runtime checks it once per transfer.
//!
//! The per-line walk is retained as a **reference model**
//! ([`DramModel::set_reference_model`]) and differential tests in this
//! crate and in `camdn` assert the two agree exactly.
//!
//! # Example
//!
//! ```
//! use camdn_common::config::DramConfig;
//! use camdn_common::types::PhysAddr;
//! use camdn_dram::DramModel;
//!
//! let mut dram = DramModel::new(DramConfig::paper_default(), 64);
//! let done = dram.access_burst(0, PhysAddr(0), 16, false, 0);
//! assert!(done > 0);
//! assert_eq!(dram.stats().read_bytes.get(), 16 * 64);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

use camdn_common::config::DramConfig;
use camdn_common::stats::Counter;
use camdn_common::types::{Cycle, PhysAddr};
use serde::{Deserialize, Serialize};

/// Sub-cycle fixed-point resolution: 1 cycle == `2^FP_SHIFT` ticks,
/// so a `u64` of ticks spans [`DramConfig::MAX_HORIZON_CYCLES`] (2^20
/// ticks per cycle).
const FP_SHIFT: u32 = u64::BITS - DramConfig::MAX_HORIZON_CYCLES.trailing_zeros();
/// One cycle in fixed-point ticks.
const FP_ONE: u64 = 1 << FP_SHIFT;

/// A cycle count in fixed-point ticks.
#[inline]
fn fp(c: Cycle) -> u64 {
    c << FP_SHIFT
}

/// Rounds a fixed-point time up to whole cycles.
#[inline]
fn ceil_fp(x: u64) -> Cycle {
    (x + (FP_ONE - 1)) >> FP_SHIFT
}

/// Precomputed divide/modulo by a fixed runtime divisor.
///
/// Address decomposition (line index, row index, channel/bank
/// interleave) runs once per line in the hottest loops of the model;
/// with the paper-default geometry every divisor is a power of two, so
/// the decomposition is a shift/mask. Non-power-of-two configs (they
/// are legal) transparently fall back to real division — results are
/// identical either way, this is pure strength reduction.
#[derive(Debug, Clone, Copy)]
struct FastDiv {
    val: u64,
    shift: u32,
    po2: bool,
}

impl FastDiv {
    fn new(val: u64) -> Self {
        debug_assert!(val > 0, "divisor must be positive");
        FastDiv {
            val,
            shift: val.trailing_zeros(),
            po2: val.is_power_of_two(),
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        if self.po2 {
            x >> self.shift
        } else {
            x / self.val
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        if self.po2 {
            x & (self.val - 1)
        } else {
            x % self.val
        }
    }

    #[inline]
    fn div_ceil(self, x: u64) -> u64 {
        if self.po2 {
            (x + self.val - 1) >> self.shift
        } else {
            x.div_ceil(self.val)
        }
    }
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DramStats {
    /// Bytes read from DRAM.
    pub read_bytes: Counter,
    /// Bytes written to DRAM.
    pub write_bytes: Counter,
    /// Line requests that hit an open row.
    pub row_hits: Counter,
    /// Line requests that required activate (+precharge).
    pub row_misses: Counter,
    /// Number of burst requests served.
    pub requests: Counter,
    /// Total cycles spent actively transferring data, summed over channels.
    pub busy_cycles: Counter,
}

impl DramStats {
    /// Total traffic in bytes (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.get() + self.write_bytes.get()
    }

    /// Row-buffer hit rate over all line requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.get() + self.row_misses.get();
        if total == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / total as f64
        }
    }
}

/// Sentinel row index for a bank with no activated row (no reachable
/// byte address decomposes to it).
const NO_ROW: u64 = u64::MAX;

/// Bank `b`'s bit in [`DramModel`]'s agreement mask. Past 64 banks the
/// mask is always empty, so the bits the high banks alias are never set.
#[inline]
fn bank_bit(b: usize) -> u64 {
    1 << (b & 63)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bank {
    /// Open row index, or [`NO_ROW`].
    open_row: u64,
    /// Cycle at which the bank has an activated row and can transfer data.
    ready_at: Cycle,
}

/// A multi-channel DRAM with row-buffer timing and FCFS per-channel queues.
///
/// Contention model: each channel owns a `free_at` horizon. A burst that
/// arrives while the channel is busy is queued behind it (FCFS), which is
/// how co-located DNNs slow each other down on the memory bus. Per-task
/// bandwidth throttling (MoCA-style) is layered on top by the runtime.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    line_bytes: u64,
    /// Nominal bus occupancy of one line on one channel, fixed-point
    /// ticks.
    burst_fp: u64,
    /// Effective per-channel bus occupancy: `burst_fp / scale` for each
    /// channel's bandwidth scale (all equal to `burst_fp` until a fault
    /// degrades a channel).
    burst_fp_ch: Vec<u64>,
    /// Current per-channel bandwidth scale in `(0, 1]`.
    scale_ch: Vec<f64>,
    /// `ceil` of the nominal per-line bus occupancy (busy-cycle
    /// accounting, kept at nominal pricing even for degraded channels).
    burst_ceil: Cycle,
    /// The most one operation can move the latest horizon, fixed-point
    /// ticks (see [`DramModel::fits`]); saturates.
    op_reach: u64,
    /// The fastest channel's burst, fixed-point ticks.
    min_burst: u64,
    /// Fixed-point tick at which each channel's data bus becomes free.
    /// Sub-cycle resolution keeps a 64 B burst at 25.6 B/cycle on exactly
    /// 2.5 cycles instead of a rounded 3 — rounding up would silently
    /// shave 17 % off the peak bandwidth.
    free_at: Vec<u64>,
    /// Bank state, bank-major: `banks[bank * channels + ch]` — one
    /// flat allocation, no per-channel `Vec` indirection on the per-line
    /// hot path. A bank every channel agrees on is stored once, in its
    /// first channel's slot (see `agree`).
    banks: Vec<Bank>,
    /// Bit `b` set: every channel's bank `b` holds the same state, kept
    /// in `banks[b * channels]`; the bank's other slots are stale and
    /// never read. A step that may write one channel's bank first copies
    /// the state to every slot and clears the bit
    /// ([`DramModel::unshare`]); a step that wrote the bank on every
    /// channel rechecks it. Always empty past 64 banks per channel.
    agree: u64,
    /// The bits of every bank (`banks_per_channel ≤ 64`), else 0.
    agree_all: u64,
    /// Lines each channel receives from one full row when a row holds a
    /// whole number of channel rounds (every row then starts at channel
    /// 0); 0 when it does not, which disables the row-run step of
    /// [`DramModel::burst_lines_batched`].
    row_run_kf: u64,
    /// Precomputed shift/mask (or division-fallback) decomposers for
    /// the four per-line address divisions.
    line_div: FastDiv,
    row_div: FastDiv,
    ch_div: FastDiv,
    bank_div: FastDiv,
    stats: DramStats,
    reference: bool,
    /// Reused [`LineBatch`] scratch (MSHR ring + gate history) — range
    /// walks allocate nothing per call.
    scratch: BatchScratch,
}

/// Reusable buffers for [`LineBatch`] (returned on drop).
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    ring: Vec<Cycle>,
    hist: Vec<SegDesc>,
    hist_pos: Vec<HistPos>,
    #[cfg(test)]
    work: Work,
}

impl DramModel {
    /// Creates a DRAM model for lines of `line_bytes` bytes.
    pub fn new(cfg: DramConfig, line_bytes: u64) -> Self {
        let nch = cfg.channels as usize;
        let nbanks = cfg.banks_per_channel as usize;
        let burst_cycles = line_bytes as f64 / cfg.channel_bytes_per_cycle();
        let burst_fp = (burst_cycles * FP_ONE as f64).round() as u64;
        let round = line_bytes * u64::from(cfg.channels);
        let row_run_kf = match cfg.row_bytes.checked_rem(round) {
            Some(0) => cfg.row_bytes / round,
            _ => 0,
        };
        let agree_all = match nbanks {
            64 => u64::MAX,
            0..64 => (1 << nbanks) - 1,
            _ => 0,
        };
        let mut model = DramModel {
            cfg,
            line_bytes,
            burst_fp,
            burst_fp_ch: vec![burst_fp; cfg.channels as usize],
            scale_ch: vec![1.0; cfg.channels as usize],
            burst_ceil: ceil_fp(burst_fp),
            op_reach: 0,
            min_burst: burst_fp,
            free_at: vec![0; nch],
            banks: vec![
                Bank {
                    open_row: NO_ROW,
                    ready_at: 0,
                };
                nch * nbanks
            ],
            agree: agree_all,
            agree_all,
            row_run_kf,
            line_div: FastDiv::new(line_bytes),
            row_div: FastDiv::new(cfg.row_bytes),
            ch_div: FastDiv::new(u64::from(cfg.channels)),
            bank_div: FastDiv::new(u64::from(cfg.banks_per_channel)),
            stats: DramStats::default(),
            reference: false,
            scratch: BatchScratch::default(),
        };
        model.set_burst_bounds();
        model
    }

    /// Recomputes the fastest channel's burst and [`DramModel::fits`]'s
    /// per-operation reach, which the slowest channel's burst sets.
    fn set_burst_bounds(&mut self) {
        let bursts = self.burst_fp_ch.iter().copied();
        self.min_burst = bursts.clone().min().unwrap_or(self.burst_fp);
        let slow = bursts.max().unwrap_or(self.burst_fp);
        let slack = self
            .cfg
            .cas_latency
            .saturating_add(self.cfg.row_miss_penalty)
            + 1;
        let slack = if slack < DramConfig::MAX_HORIZON_CYCLES {
            fp(slack)
        } else {
            u64::MAX
        };
        self.op_reach = slow.saturating_add(slack);
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics (leaves bank state intact).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Selects the per-line reference walk (`true`) or the closed-form
    /// segment walk (`false`, default) for burst timing. Both produce
    /// bit-identical results; the reference path exists so differential
    /// tests and the throughput harness can prove and measure that.
    pub fn set_reference_model(&mut self, reference: bool) {
        self.reference = reference;
    }

    /// True when the per-line reference walk is selected.
    pub fn reference_model(&self) -> bool {
        self.reference
    }

    /// Channel index for a line address (line-granularity interleaving).
    #[inline]
    pub fn channel_of(&self, addr: PhysAddr) -> usize {
        self.ch_div.rem(self.line_div.div(addr.0)) as usize
    }

    /// Advances the state machine for one line at `byte_addr`, gated to
    /// start no earlier than `earliest`. Returns the line's completion
    /// cycle. Row-buffer statistics are updated here; request/byte/busy
    /// accounting is the caller's (so bursts can batch it).
    #[inline]
    fn line_timing(&mut self, earliest: Cycle, byte_addr: u64) -> Cycle {
        let line = self.line_div.div(byte_addr);
        let ch_idx = self.ch_div.rem(line) as usize;
        let row = self.row_div.div(byte_addr);
        let bank_idx = self.bank_div.rem(row) as usize;
        self.line_timing_at(earliest, ch_idx, bank_idx, row)
    }

    /// [`DramModel::line_timing`] with the address already decomposed —
    /// hot paths that track channel and row incrementally skip the
    /// divides entirely.
    #[inline]
    fn line_timing_at(
        &mut self,
        earliest: Cycle,
        ch_idx: usize,
        bank_idx: usize,
        row: u64,
    ) -> Cycle {
        self.unshare(bank_idx);
        let bank = &mut self.banks[bank_idx * self.cfg.channels as usize + ch_idx];
        if bank.open_row == row {
            self.stats.row_hits.incr();
        } else {
            // Precharge + activate runs on the bank, overlapping with
            // data transfers of other banks on the same channel
            // (bank-level parallelism, as in DRAMsim3's FR-FCFS).
            self.stats.row_misses.incr();
            bank.open_row = row;
            bank.ready_at = earliest.max(bank.ready_at) + self.cfg.row_miss_penalty;
        }
        let data_start = fp(earliest)
            .max(self.free_at[ch_idx])
            .max(fp(bank.ready_at));
        self.free_at[ch_idx] = data_start + self.burst_fp_ch[ch_idx];
        ceil_fp(self.free_at[ch_idx]) + self.cfg.cas_latency
    }

    /// Per-line reference walk over `lines` consecutive lines.
    fn burst_lines_reference(&mut self, earliest: Cycle, addr: PhysAddr, lines: u64) -> Cycle {
        let mut finish = earliest;
        for i in 0..lines {
            finish = finish.max(self.line_timing(earliest, addr.0 + i * self.line_bytes));
        }
        finish
    }

    /// Closed-form segment walk: consecutive lines share a row until the
    /// next row boundary and round-robin the channels, so each (row,
    /// channel) pair collapses to one horizon update. From the first row
    /// start on, [`DramModel::row_run`] prices all remaining full rows
    /// at once. Bit-identical to [`DramModel::burst_lines_reference`].
    ///
    /// A segment that reaches every channel updates its bank the same
    /// way on each, since `earliest` and the row are common to all. So
    /// when the channels agree on the bank, the segment updates it once
    /// and then steps each channel's horizon by its own lines.
    fn burst_lines_batched(&mut self, earliest: Cycle, addr: PhysAddr, lines: u64) -> Cycle {
        let lb = self.line_bytes;
        let nch = u64::from(self.cfg.channels);
        let row_lines = self.row_run_kf * nch;
        let pen = self.cfg.row_miss_penalty;
        let e_fp = fp(earliest);
        let first_line = self.line_div.div(addr.0);
        let mut finish = earliest;
        let mut i = 0u64;
        while i < lines {
            let byte = addr.0 + i * lb;
            let row = self.row_div.div(byte);
            // The first line starting in a row, with a full row left
            // (`row_lines` is 0 when rows do not split evenly over the
            // channels).
            if row_lines != 0 && lines - i >= row_lines && self.row_div.rem(byte) < lb {
                // `row_lines` lines span `row_bytes`: whole rows left.
                let rows = self.row_div.div((lines - i) * lb);
                finish = finish.max(self.row_run(earliest, row, rows));
                i += rows * row_lines;
                continue;
            }
            let row_end = (row + 1) * self.cfg.row_bytes;
            let seg = self.line_div.div_ceil(row_end - byte).min(lines - i);
            let bank_idx = self.bank_div.rem(row) as usize;
            let c0 = self.ch_div.rem(first_line + i);
            if seg >= nch && self.agree & bank_bit(bank_idx) != 0 {
                let bi = self.shared_at(bank_idx);
                let mut bank = self.banks[bi];
                if bank.open_row == row {
                    self.stats.row_hits.add(seg);
                } else {
                    self.stats.row_misses.add(nch);
                    self.stats.row_hits.add(seg - nch);
                    bank.open_row = row;
                    bank.ready_at = earliest.max(bank.ready_at) + pen;
                    self.banks[bi] = bank;
                }
                let floor = e_fp.max(fp(bank.ready_at));
                let mut last = 0;
                for t in 0..nch {
                    let k = self.ch_div.div_ceil(seg - t);
                    let c = if c0 + t >= nch { c0 + t - nch } else { c0 + t };
                    last = last.max(self.bus_step(c as usize, floor, k));
                }
                finish = finish.max(ceil_fp(last) + self.cfg.cas_latency);
            } else {
                for t in 0..nch.min(seg) {
                    // Lines of this segment landing on this channel.
                    let k = self.ch_div.div_ceil(seg - t);
                    let ci = (if c0 + t >= nch { c0 + t - nch } else { c0 + t }) as usize;
                    let mut bi = self.bank_at(bank_idx, ci);
                    if self.banks[bi].open_row == row {
                        self.stats.row_hits.add(k);
                    } else {
                        self.stats.row_misses.incr();
                        self.stats.row_hits.add(k - 1);
                        self.unshare(bank_idx);
                        bi = bank_idx * nch as usize + ci;
                        let bank = &mut self.banks[bi];
                        bank.open_row = row;
                        bank.ready_at = earliest.max(bank.ready_at) + pen;
                    }
                    // After the first line, each line starts exactly
                    // where the previous one on this channel finished.
                    let free = self.bus_step(ci, e_fp.max(fp(self.banks[bi].ready_at)), k);
                    finish = finish.max(ceil_fp(free) + self.cfg.cas_latency);
                }
                if seg >= nch {
                    self.recheck(bank_idx);
                }
            }
            i += seg;
        }
        finish
    }

    /// Row-run step: prices `rows` full rows from `row0` on, each giving
    /// every channel `kf` lines starting at channel 0, with one update
    /// per bank instead of one per (row, channel). Returns the last
    /// line's completion cycle.
    ///
    /// A channel walks its first `banks` rows exactly, one step per row
    /// (the per-line recurrence telescoped over the row's `kf` lines).
    /// Each step leaves its bank ready at or before the step's start,
    /// and every row advances the channel's horizon by at least `kf ×
    /// burst`. So when `banks × kf × burst ≥ fp(penalty)`, a bank's
    /// next visit, `banks` rows later, finds it ready before the bus
    /// frees, and `earliest` is below every horizon after the first
    /// row: no `max` in the recurrence picks anything but the horizon.
    /// The remaining rows then telescope. The horizon advances by `kf ×
    /// burst` per row, and a bank visited `m` more times, all row
    /// misses, ends at `max(earliest, ready) + m × penalty`, open on its
    /// last row. A channel that misses the bound (a penalty longer than
    /// a lap of rows on its bus) walks every row.
    ///
    /// A bank's update involves neither the channel nor its bus, so when
    /// every channel holds the same state of each bank the lap visits,
    /// and every channel takes the same path (no rows past the lap, or
    /// the bound holds at the fastest channel's burst and so at all),
    /// the lap updates each bank once for all channels. Each horizon is
    /// then the max-plus fold of the lap's steps `F ← max(F, e, R_j) +
    /// kf × burst` over its `n` rows: `max(max(F, e) + n × kf × burst,
    /// max_j(R_j + (n − j) × kf × burst))`, where `R_j` is row `j`'s
    /// bank ready time after its own miss. `max` and `+` distribute
    /// over `u64` and no term passes the walk's own final horizon, so
    /// the fold is exact. Otherwise each channel walks its own banks.
    fn row_run(&mut self, earliest: Cycle, row0: u64, rows: u64) -> Cycle {
        let kf = self.row_run_kf;
        let nb = u64::from(self.cfg.banks_per_channel);
        let nbanks = nb as usize;
        let nch = self.free_at.len();
        let pen = self.cfg.row_miss_penalty;
        let e_fp = fp(earliest);
        let b0 = self.bank_div.rem(row0) as usize;
        // Rows past the first lap: lap row `j`'s bank sees `laps` of
        // them, one more when `j < extra`.
        let later = rows.saturating_sub(nb);
        let (laps, extra) = (self.bank_div.div(later), self.bank_div.rem(later));
        let n = rows.min(nb);
        let mut misses = 0u64;
        if (later == 0 || nb * kf * self.min_burst >= fp(pen)) && self.span_agrees(b0, n) {
            // The shared lap. `lap` is the max-plus term at the nominal
            // burst; until the rows past the lap update them, the lap's
            // `n ≤ banks` distinct banks hold its `R_j`.
            let kfb_nom = kf * self.burst_fp;
            let mut lap = 0;
            let mut b = b0;
            for j in 0..n {
                let bi = self.shared_at(b);
                let mut bank = self.banks[bi];
                if bank.open_row != row0 + j {
                    misses += 1;
                    bank.open_row = row0 + j;
                    bank.ready_at = earliest.max(bank.ready_at) + pen;
                    self.banks[bi] = bank;
                }
                lap = lap.max(fp(bank.ready_at) + (n - j) * kfb_nom);
                b += 1;
                if b == nbanks {
                    b = 0;
                }
            }
            let mut last = 0;
            for c in 0..nch {
                let kfb = kf * self.burst_fp_ch[c];
                // A degraded channel folds the lap at its own burst.
                let lap = if kfb == kfb_nom {
                    lap
                } else {
                    (0..n)
                        .map(|j| {
                            let bi = self.shared_at((b0 + j as usize) % nbanks);
                            fp(self.banks[bi].ready_at) + (n - j) * kfb
                        })
                        .fold(0, u64::max)
                };
                let free = (self.free_at[c].max(e_fp) + n * kfb).max(lap) + later * kfb;
                self.free_at[c] = free;
                last = last.max(free);
            }
            // The rows past the lap, all misses (`n` is `banks` here).
            for j in 0..if later > 0 { n } else { 0 } {
                let m = laps + u64::from(j < extra);
                if m > 0 {
                    misses += m;
                    let bi = self.shared_at(b);
                    let mut bank = self.banks[bi];
                    bank.open_row = row0 + j + m * nb;
                    bank.ready_at = earliest.max(bank.ready_at) + m * pen;
                    self.banks[bi] = bank;
                }
                b += 1;
                if b == nbanks {
                    b = 0;
                }
            }
            let misses = misses * nch as u64;
            self.stats.row_misses.add(misses);
            self.stats.row_hits.add(rows * kf * nch as u64 - misses);
            return ceil_fp(last) + self.cfg.cas_latency;
        }
        // Every channel walks the lap's banks: give each its own copy,
        // and recheck them after.
        for j in 0..n as usize {
            self.unshare((b0 + j) % nbanks);
        }
        let mut finish = earliest;
        for c in 0..nch {
            let kfb = kf * self.burst_fp_ch[c];
            let tail = later > 0 && nb * kfb >= fp(pen);
            let mut free = self.free_at[c];
            let mut b = b0;
            for j in 0..if tail { nb } else { rows } {
                let row = row0 + j;
                let bank = &mut self.banks[b * nch + c];
                if bank.open_row != row {
                    misses += 1;
                    bank.open_row = row;
                    bank.ready_at = earliest.max(bank.ready_at) + pen;
                }
                free = free.max(e_fp).max(fp(bank.ready_at)) + kfb;
                if tail {
                    let m = laps + u64::from(j < extra);
                    if m > 0 {
                        misses += m;
                        bank.open_row = row + m * nb;
                        bank.ready_at = earliest.max(bank.ready_at) + m * pen;
                    }
                }
                b += 1;
                if b == nbanks {
                    b = 0;
                }
            }
            if tail {
                free += later * kfb;
            }
            self.free_at[c] = free;
            finish = finish.max(ceil_fp(free) + self.cfg.cas_latency);
        }
        for j in 0..n as usize {
            self.recheck((b0 + j) % nbanks);
        }
        self.stats.row_misses.add(misses);
        self.stats.row_hits.add(rows * kf * nch as u64 - misses);
        finish
    }

    /// Moves channel `c`'s horizon past `k` lines, the first starting
    /// no earlier than `floor`; returns the new horizon.
    #[inline]
    fn bus_step(&mut self, c: usize, floor: u64, k: u64) -> u64 {
        let free = self.free_at[c].max(floor) + k * self.burst_fp_ch[c];
        self.free_at[c] = free;
        free
    }

    /// Whether every channel agrees on the `n` banks from `b0` on,
    /// wrapping past the last.
    #[inline]
    fn span_agrees(&self, b0: usize, n: u64) -> bool {
        if self.agree_all == 0 {
            return false;
        }
        let span = if n >= u64::from(self.cfg.banks_per_channel) {
            self.agree_all
        } else {
            // `n < banks ≤ 64`, and the bits past the last bank wrap.
            let m = (1u64 << n) - 1;
            let wrap = m
                .checked_shr(self.cfg.banks_per_channel - b0 as u32)
                .unwrap_or(0);
            ((m << b0) | wrap) & self.agree_all
        };
        self.agree & span == span
    }

    /// Where channel `c`'s state of bank `b` is read from: the bank's
    /// one copy while every channel agrees on it.
    #[inline]
    fn bank_at(&self, b: usize, c: usize) -> usize {
        let own = if self.agree & bank_bit(b) != 0 { 0 } else { c };
        b * self.free_at.len() + own
    }

    /// Gives every channel its own copy of bank `b` and clears its
    /// agreement bit, if set.
    #[inline]
    fn unshare(&mut self, b: usize) {
        if self.agree & bank_bit(b) != 0 {
            self.copy_shared(b);
        }
    }

    /// [`DramModel::unshare`]'s copy, kept out of line so that the
    /// per-line walk that checks the bit stays small enough to inline.
    #[cold]
    fn copy_shared(&mut self, b: usize) {
        self.agree &= !bank_bit(b);
        let i = b * self.free_at.len();
        let bank = self.banks[i];
        self.banks[i..i + self.free_at.len()].fill(bank);
    }

    /// The slot of agreed bank `b`'s one copy, which a shared step reads
    /// and writes once for every channel.
    #[inline]
    fn shared_at(&self, b: usize) -> usize {
        debug_assert!(
            self.agree & bank_bit(b) != 0,
            "a shared step reads bank {b}, which the channels do not agree on"
        );
        b * self.free_at.len()
    }

    /// Sets bank `b`'s agreement bit when every channel holds the same
    /// state of it. Each channel must hold its own copy (bit clear).
    fn recheck(&mut self, b: usize) {
        debug_assert!(self.agree & bank_bit(b) == 0, "bank {b} is stored once");
        let nch = self.free_at.len();
        let bank = &self.banks[b * nch..(b + 1) * nch];
        if bank.iter().all(|s| *s == bank[0]) {
            self.agree |= bank_bit(b) & self.agree_all;
        }
    }

    /// Issues a burst of `lines` consecutive cache lines starting at `addr`.
    ///
    /// Returns the completion cycle. `extra_queue_delay` lets the caller
    /// model bandwidth throttling (the burst may not start before
    /// `now + extra_queue_delay`).
    pub fn access_burst(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        lines: u64,
        is_write: bool,
        extra_queue_delay: Cycle,
    ) -> Cycle {
        if lines == 0 {
            return now;
        }
        self.stats.requests.incr();
        let bytes = lines * self.line_bytes;
        if is_write {
            self.stats.write_bytes.add(bytes);
        } else {
            self.stats.read_bytes.add(bytes);
        }
        self.stats.busy_cycles.add(lines * self.burst_ceil);
        let earliest = now + extra_queue_delay;
        if self.reference {
            self.burst_lines_reference(earliest, addr, lines)
        } else {
            self.burst_lines_batched(earliest, addr, lines)
        }
    }

    /// Opens a batched sequence of MSHR-gated single-line fills and
    /// posted writebacks, all anchored at `now` (see [`LineBatch`]).
    ///
    /// `window` is the caller's MSHR window; `expected_misses` is the
    /// total number of fills the batch will see, which decides up front
    /// whether the window can ever fill (and hence whether completion
    /// times must be ring-buffered at all), and which completions a
    /// later miss reads.
    pub fn line_batch(&mut self, now: Cycle, window: usize, expected_misses: u64) -> LineBatch<'_> {
        let use_ring = expected_misses > window as u64;
        let nch = self.cfg.channels.max(1);
        let per_ch = (window as u64) / u64::from(nch);
        // In a gap-free run of consecutive missing lines, the fill that
        // re-uses MSHR slot `k` gates on the fill `window` lines earlier
        // — the *same channel* when channels divide the window — whose
        // data left the bus at least `(window/channels − 1) × burst`
        // cycles before this line could start. When CAS (+1 cycle of
        // rounding) cannot bridge that gap, the gate provably never
        // delays a transfer and runs collapse to the closed-form segment
        // walk. (The gate still feeds the bank-ready update of
        // row-opening lines, which the walk reproduces from per-channel
        // completion-time descriptors.)
        // Degraded channels only *lengthen* bursts, so the bound must
        // hold for the fastest (minimum-burst) channel to hold for all.
        let min_burst = self.min_burst;
        let inert_gates = window.is_multiple_of(nch as usize)
            && per_ch >= 1
            && fp(self.cfg.cas_latency) + FP_ONE <= (per_ch - 1) * min_burst;
        let track_hist = use_ring && inert_gates && !self.reference;
        // Full rows past a fill run's head telescope (see
        // `LineBatch::row_tail`) when a lap of rows covers the penalty,
        // as in `row_run`, and a row-opening line's gate plus the
        // penalty never reaches the bus. Both bounds grow with the
        // burst, so the fastest channel decides for all.
        let pen = self.cfg.row_miss_penalty;
        let row_tails = track_hist
            && self.row_run_kf != 0
            && u64::from(self.cfg.banks_per_channel) * self.row_run_kf * min_burst >= fp(pen)
            && fp(self.cfg.cas_latency + pen) + FP_ONE <= (per_ch - 1) * min_burst;
        // A power-of-two ring (at least the look-back) wraps with a
        // mask; retaining extra descriptors never changes a look-up,
        // which always takes the newest one that covers the line.
        let cap = if track_hist {
            (per_ch as usize + 2).next_power_of_two()
        } else {
            0
        };
        // Reuse the model's scratch buffers: no allocation per range.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.ring.clear();
        if use_ring {
            scratch.ring.resize(window, 0);
        }
        // History contents are gated by per-run resets of `hist_pos` (in
        // `LineBatch::start_run`), so stale values never leak.
        if scratch.hist.len() < cap * nch as usize {
            scratch.hist.resize(cap * nch as usize, SegDesc::default());
        }
        let hist_len = if track_hist { nch as usize } else { 0 };
        scratch.hist_pos.clear();
        scratch.hist_pos.resize(hist_len, HistPos::default());
        LineBatch {
            scratch,
            hist_cap: cap,
            run_hist: false,
            expected: expected_misses,
            run_miss: 0,
            ring_lo: 0,
            ring_from: 0,
            ring_to: 0,
            ch_step: nch as usize % window.max(1),
            row_tails,
            per_ch,
            dram: self,
            now,
            window,
            use_ring,
            slot: 0,
            fill_lines: 0,
            wb_lines: 0,
            finish: now,
        }
    }

    /// Re-prices one channel's bus occupancy at `scale` of its nominal
    /// bandwidth (fault injection: a browned-out or degraded channel).
    /// `1.0` restores nominal pricing exactly, so a round trip through
    /// degrade-and-restore leaves timing bit-identical. Busy-cycle
    /// statistics stay at nominal pricing (they are a utilization
    /// quantity, not timing).
    ///
    /// # Panics
    ///
    /// Panics when `channel` is out of range or `scale` is not in
    /// `(0, 1]` — the runtime validates fault plans against the SoC
    /// before the first event fires.
    pub fn set_channel_bandwidth_scale(&mut self, channel: usize, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0 && scale <= 1.0,
            "channel bandwidth scale {scale} outside (0, 1]"
        );
        self.scale_ch[channel] = scale;
        self.burst_fp_ch[channel] = if scale == 1.0 {
            self.burst_fp
        } else {
            (self.burst_fp as f64 / scale).round() as u64
        };
        self.set_burst_bounds();
    }

    /// Current bandwidth scale of `channel` (1.0 = nominal).
    pub fn channel_bandwidth_scale(&self, channel: usize) -> f64 {
        self.scale_ch[channel]
    }

    /// Whether `ops` more one-line operations (fills, writebacks or the
    /// lines of bursts), none gated before `earliest`, are sure to keep
    /// every channel's horizon inside the model's fixed-point range,
    /// [`DramConfig::MAX_HORIZON_CYCLES`]. Past it the horizon would
    /// wrap silently, so callers check this once per transfer.
    ///
    /// A bank is never ready after its channel's horizon, and a gate is
    /// a completion, at most `cas + 1` cycles past the latest horizon.
    /// So one operation moves the latest horizon by at most the slowest
    /// channel's burst plus `cas + penalty + 1` cycles beyond the later
    /// of `earliest` and that horizon.
    #[inline]
    pub fn fits(&self, earliest: Cycle, ops: u64) -> bool {
        if earliest >= DramConfig::MAX_HORIZON_CYCLES {
            return false;
        }
        let latest = self.free_at.iter().fold(fp(earliest), |m, &f| m.max(f));
        ops.checked_mul(self.op_reach)
            .and_then(|reach| reach.checked_add(latest))
            .is_some()
    }

    /// The earliest cycle at which any channel is free (useful to detect
    /// an idle memory system in tests).
    pub fn earliest_free(&self) -> Cycle {
        self.free_at.iter().map(|&f| ceil_fp(f)).min().unwrap_or(0)
    }

    /// Effective bandwidth (bytes/cycle) achieved since the last stats
    /// reset, measured over `elapsed` cycles.
    pub fn achieved_bandwidth(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.stats.total_bytes() as f64 / elapsed as f64
        }
    }

    /// Order- and content-sensitive digest of the full timing state
    /// (channel horizons, open rows, bank readiness). Lets differential
    /// tests assert that two models evolved identically.
    #[doc(hidden)]
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        let nch = self.free_at.len();
        for (c, &free) in self.free_at.iter().enumerate() {
            mix(free);
            // `NO_ROW` is the same u64::MAX the pre-flattening digest
            // mapped `None` to, so fingerprints stay comparable.
            for b in 0..self.banks.len() / nch {
                let bank = self.banks[self.bank_at(b, c)];
                mix(bank.open_row);
                mix(bank.ready_at);
            }
        }
        h
    }
}

/// Completion times of one channel's fills within one closed-form
/// segment: the segment's `i`-th fill (per-channel count `start_n + i`)
/// finished at `ceil(max(d0 + (i + 1) × step, r0 + (i + 1) × bank_step
/// + burst)) + cas`, all terms fixed-point ticks.
///
/// A fill segment's lines follow each other on the bus: `step` is the
/// burst and the bank term is zero. An eviction segment alternates a
/// writeback and a fill on one bank: `step` is two bursts, `r0` the
/// bank's readiness before it and `bank_step` two penalties (see
/// [`LineBatch::evict_seg`]).
#[derive(Debug, Clone, Copy, Default)]
struct SegDesc {
    start_n: u64,
    d0: u64,
    step: u64,
    r0: u64,
    bank_step: u64,
}

impl SegDesc {
    /// A run of fills whose first transfer starts at `d0`.
    fn fills(start_n: u64, d0: u64, burst: u64) -> Self {
        SegDesc {
            start_n,
            d0,
            step: burst,
            r0: 0,
            bank_step: 0,
        }
    }

    /// Completion cycle of per-channel fill `n` (`n ≥ start_n`).
    #[inline]
    fn done(&self, n: u64, burst: u64, cas: Cycle) -> Cycle {
        let i = n - self.start_n + 1;
        ceil_fp((self.d0 + i * self.step).max(self.r0 + i * self.bank_step + burst)) + cas
    }
}

/// Where a channel's descriptor history stands within the current run.
#[derive(Debug, Clone, Copy, Default)]
struct HistPos {
    /// The channel's fills of this run priced so far.
    fills: u64,
    /// Descriptors pushed this run; the newest `hist_cap` are retained.
    pushed: u64,
    /// The descriptor that covered the last look-up. Look-ups only move
    /// forward within a run, so a search starts here.
    cursor: u64,
}

/// Work done by the memory pass, by kind of step (test builds only).
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Work {
    /// Fills priced one line at a time.
    lines: u64,
    /// Eviction pairs priced one pair at a time.
    pairs: u64,
    /// (row, channel) segments priced in closed form.
    closed: u64,
    /// Segments whose closed form did not apply, walked one by one.
    fallback: u64,
}

/// A batched sequence of MSHR-gated demand fills and posted writebacks.
///
/// This reproduces — in closed form where provably equivalent — exactly
/// the DRAM call sequence of a per-line cache range walk: each missing
/// line is a 1-line read burst gated by the MSHR ring (miss `k` may not
/// issue before miss `k − window` completed), and each dirty victim is a
/// 1-line posted write at `now`, issued just before its line's fill.
/// Obtain one via [`DramModel::line_batch`], feed it events in line
/// order, and read [`LineBatch::finish`]. There are three kinds:
///
/// * [`LineBatch::fill_run`] — a gap-free run of missing lines that
///   evict nothing dirty;
/// * [`LineBatch::evict_run`] — a run of missing lines whose dirty
///   victims are consecutive lines too, the shape a tenant streaming
///   over another's written tensor produces;
/// * [`LineBatch::writeback`] — one posted writeback on its own.
///
/// Both kinds of run are priced one (row, channel) segment at a time:
/// a row's lines on one channel share its bank and bus, and channels
/// share no state. A segment is one closed-form step when its gates
/// cannot change the result, and is walked one line (or pair) at a
/// time otherwise; the walk is exact for any gate.
///
/// **Gates.** Within a gap-free run, miss `k`'s gate is the completion
/// of miss `k − window`. For the run's first `window` misses (its
/// head) that completion predates the run and is read from the MSHR
/// ring. Later misses gate on a completion inside the run, on the
/// *same channel* when channels divide the window, which each channel's
/// segment-descriptor (`SegDesc`) history answers in O(1): look-ups
/// move forward only, so a cursor finds the covering descriptor. Later
/// runs gate on the run's last `window` completions, so only those
/// misses write their ring slots, and only when a later miss of the
/// batch reads them. Without history (the gate bound in
/// [`DramModel::line_batch`] fails, or the run fits the window) every
/// miss reads and writes the ring, and a row longer than the window is
/// walked in line order.
///
/// **Fill segments.** A segment of `k` lines from `d0 = max(now,
/// horizon, bank ready)` ends at `d0 + k × burst`; only its
/// row-opening line's gate enters, through the bank's ready time. It is
/// exact when no ring-read gate passes its line's start,
/// `fp(g_i) ≤ d0 + i × burst`. In-run gates never do: a gate is the
/// completion of the line `window/channels` lines back on the same
/// channel, and CAS plus a cycle of rounding cannot bridge
/// `(window/channels − 1)` bursts. Whole rows past the head and before
/// the run's last `window` lines are one step per channel and one
/// update per bank (`row_tail`) once no bank can delay them
/// (`tail_banks_ready`), when `banks × kf × burst ≥ fp(penalty)` and
/// `fp(cas + penalty) + 1 cycle ≤ (window/channels − 1) × burst` (61 ≤
/// 87.5 cycles on the paper SoC).
///
/// **Eviction segments.** When each victim shares its line's channel,
/// bank and in-row offset (as every victim of a set-associative cache
/// does when a cache way spans whole laps of banks), a segment's pairs
/// all alternate one bank between the victim's row and the fill's row:
/// every operation is a row miss, and the segment is one closed-form
/// step (`evict_seg`) unless a gate binds the bank, the bank holds the
/// victim's row open, or the penalty is shorter than a burst. Other
/// eviction runs walk pair by pair.
pub struct LineBatch<'a> {
    dram: &'a mut DramModel,
    now: Cycle,
    window: usize,
    /// False when the whole batch fits the window (gates are all `now`).
    use_ring: bool,
    /// MSHR ring + per-channel descriptor history, borrowed from the
    /// model's reusable scratch (returned on drop).
    scratch: BatchScratch,
    /// Descriptors retained per channel (a power of two, 0 when no
    /// history is tracked).
    hist_cap: usize,
    /// True while the current run is long enough (`> window`) for
    /// in-run gate look-ups — only then is history recorded.
    run_hist: bool,
    /// The fills the batch will see ([`DramModel::line_batch`]).
    expected: u64,
    /// The batch's misses before the current run.
    run_miss: u64,
    /// The first miss of the current run that reads its gate from the
    /// ring: the batch's misses before `window` gate on `now`.
    ring_lo: u64,
    /// The current run's misses `ring_from..ring_to` write their ring
    /// slots: from its last `window` misses on with history (every
    /// miss without), up to the last one a later miss of the batch
    /// reads.
    ring_from: u64,
    ring_to: u64,
    /// `channels % window`: the MSHR slots between two misses on one
    /// channel.
    ch_step: usize,
    /// True when fill runs may price full rows past their head in
    /// closed form ([`LineBatch::row_tail`]).
    row_tails: bool,
    /// `window / channels`: per-channel gate look-back in lines.
    per_ch: u64,
    /// MSHR slot of the current run's first miss — the window (144) is
    /// not a power of two, so slots advance incrementally rather than
    /// by a division per miss.
    slot: usize,
    /// Fill lines seen so far; request/byte/busy statistics are
    /// accumulated here and flushed once on drop instead of as three
    /// read-modify-writes per event.
    fill_lines: u64,
    /// Writeback lines seen so far (flushed with `fill_lines`).
    wb_lines: u64,
    finish: Cycle,
}

impl LineBatch<'_> {
    /// Opens a run of `n` misses: decides whether it keeps gate history
    /// and which of its misses read and write ring slots, and resets
    /// the per-run history (in-run look-ups never reach across a gap).
    fn start_run(&mut self, n: u64) {
        let w = self.window as u64;
        self.run_hist = self.hist_cap != 0 && n > w;
        self.ring_lo = w.saturating_sub(self.run_miss);
        self.ring_from = if self.run_hist { n - w } else { 0 };
        self.ring_to = self.expected.saturating_sub(w + self.run_miss).min(n);
        if self.run_hist {
            self.scratch.hist_pos.fill(HistPos::default());
        }
    }

    /// The MSHR slot `d` misses after `slot`.
    #[inline]
    fn slot_after(&self, slot: usize, d: u64) -> usize {
        let (s, w) = (slot as u64 + d, self.window as u64);
        (if s < w {
            s
        } else if s < 2 * w {
            s - w
        } else {
            s % w
        }) as usize
    }

    /// Records channel `c`'s next `k` fills, the first being the run's
    /// miss `j0`. Look-ups only reach fills before the run's last
    /// `window` misses (`ring_from`), so a segment past them is counted
    /// but not stored.
    #[inline]
    fn hist_push(&mut self, c: usize, j0: u64, desc: SegDesc, k: u64) {
        if j0 < self.ring_from {
            let pos = &mut self.scratch.hist_pos[c];
            let slot = pos.pushed as usize & (self.hist_cap - 1);
            self.scratch.hist[c * self.hist_cap + slot] = desc;
            pos.pushed += 1;
        }
        self.scratch.hist_pos[c].fills += k;
    }

    /// The descriptor covering channel `c`'s fill `n` of this run, and
    /// the first fill the next descriptor covers (`u64::MAX` if none).
    /// `n` is at most `per_ch` fills back, so its descriptor is among
    /// the `per_ch + 1` newest, which the history retains; and no
    /// look-up goes below the one before it in the same run, so the
    /// search moves a cursor forward.
    #[inline]
    fn hist_seek(&mut self, c: usize, n: u64) -> (SegDesc, u64) {
        let cap = self.hist_cap as u64;
        let hist = &self.scratch.hist[c * self.hist_cap..][..self.hist_cap];
        let pos = &mut self.scratch.hist_pos[c];
        let mut cur = pos.cursor.max(pos.pushed.saturating_sub(cap));
        let mut next = u64::MAX;
        while cur + 1 < pos.pushed {
            let start = hist[((cur + 1) & (cap - 1)) as usize].start_n;
            if start > n {
                next = start;
                break;
            }
            cur += 1;
        }
        pos.cursor = cur;
        let d = hist[(cur & (cap - 1)) as usize];
        debug_assert!(
            cur < pos.pushed && d.start_n <= n,
            "gate history pruned below the MSHR look-back"
        );
        (d, next)
    }

    /// Completion time of channel `c`'s fill `n` of this run.
    #[inline]
    fn hist_done(&mut self, c: usize, n: u64) -> Cycle {
        let (d, _) = self.hist_seek(c, n);
        d.done(n, self.dram.burst_fp_ch[c], self.dram.cfg.cas_latency)
    }

    /// The gate of the run's miss `j`, channel `c`'s next fill, in MSHR
    /// slot `slot`.
    #[inline]
    fn gate_at(&mut self, j: u64, slot: usize, c: usize) -> Cycle {
        if self.run_hist && j >= self.window as u64 {
            let n = self.scratch.hist_pos[c].fills - self.per_ch;
            self.hist_done(c, n)
        } else if self.use_ring && j >= self.ring_lo {
            self.scratch.ring[slot].max(self.now)
        } else {
            self.now
        }
    }

    /// Of a segment's `k` misses, the first being the run's miss `j0`
    /// and each next one `channels` misses on, the first `lo` gate on
    /// `now`, the misses `lo..hi` read their gates from the ring and the
    /// rest from the run's history.
    #[inline]
    fn ring_gated(&self, j0: u64, k: u64) -> (u64, u64) {
        let hi = if !self.use_ring {
            0
        } else if !self.run_hist {
            k
        } else {
            self.misses_before(j0, k, self.window as u64)
        };
        (self.misses_before(j0, hi, self.ring_lo), hi)
    }

    /// The number of a segment's `k` misses from the run's miss `j0`
    /// on, `channels` apart, that come before the run's miss `j`.
    #[inline]
    fn misses_before(&self, j0: u64, k: u64, j: u64) -> u64 {
        if j0 >= j {
            0
        } else {
            self.dram.ch_div.div_ceil(j - j0).min(k)
        }
    }

    /// Whether `ok(i, ring value)` holds for the misses `lo..hi` of a
    /// segment whose first miss is in MSHR slot `slot0`. Reads every
    /// slot (they do not depend on each other).
    #[inline]
    fn ring_ok(&self, slot0: usize, lo: u64, hi: u64, ok: impl Fn(u64, Cycle) -> bool) -> bool {
        let mut slot = if lo == 0 {
            slot0
        } else {
            self.slot_after(slot0, lo * u64::from(self.dram.cfg.channels))
        };
        let mut all = true;
        for i in lo..hi {
            all &= ok(i, self.scratch.ring[slot]);
            slot += self.ch_step;
            if slot >= self.window {
                slot -= self.window;
            }
        }
        all
    }

    /// Writes the ring slots of a segment's misses among the run's
    /// misses `ring_from..ring_to`: `done(i)` is the completion of its
    /// `i`-th miss, the run's miss `j0 + i × channels`, in slot `slot0 +
    /// i × channels`.
    #[inline]
    fn ring_fill(&mut self, j0: u64, slot0: usize, k: u64, done: impl Fn(u64) -> Cycle) {
        let nch = u64::from(self.dram.cfg.channels);
        if j0 >= self.ring_to || j0 + (k - 1) * nch < self.ring_from {
            return;
        }
        let i1 = self.misses_before(j0, k, self.ring_to);
        let i0 = self.misses_before(j0, k, self.ring_from);
        if i0 >= i1 {
            return;
        }
        let mut slot = self.slot_after(slot0, i0 * nch);
        for i in i0..i1 {
            self.scratch.ring[slot] = done(i);
            slot += self.ch_step;
            if slot >= self.window {
                slot -= self.window;
            }
        }
    }

    /// Prices the run's miss `j`, in MSHR slot `slot`, as one exact
    /// per-line step: a fill of `row` on bank `bank` of channel `c`.
    fn fill_line(&mut self, j: u64, slot: usize, c: usize, bank: usize, row: u64) {
        #[cfg(test)]
        {
            self.scratch.work.lines += 1;
        }
        let gate = self.gate_at(j, slot, c);
        let done = self.dram.line_timing_at(gate, c, bank, row);
        if j >= self.ring_from && j < self.ring_to {
            self.scratch.ring[slot] = done;
        }
        if self.run_hist {
            // The transfer started one burst before `free_at`.
            let burst = self.dram.burst_fp_ch[c];
            let d0 = self.dram.free_at[c] - burst;
            let n = self.scratch.hist_pos[c].fills;
            self.hist_push(c, j, SegDesc::fills(n, d0, burst), 1);
        }
        self.finish = self.finish.max(done);
    }

    /// Per-line walk of the run's misses `j..j + n`, lines of `base`,
    /// the first in MSHR slot `slot`.
    fn walk_lines(&mut self, base: PhysAddr, j: u64, n: u64, slot: usize) {
        let lb = self.dram.line_bytes;
        let nch = self.dram.cfg.channels as usize;
        let mut slot = slot;
        let mut ch = self.dram.ch_div.rem(self.dram.line_div.div(base.0) + j) as usize;
        for i in j..j + n {
            let row = self.dram.row_div.div(base.0 + i * lb);
            let bank = self.dram.bank_div.rem(row) as usize;
            self.fill_line(i, slot, ch, bank, row);
            slot = if slot + 1 == self.window { 0 } else { slot + 1 };
            ch = if ch + 1 == nch { 0 } else { ch + 1 };
        }
    }

    /// Prices a fill run's `n` lines from `base`, (row, channel)
    /// segment by segment, handing whole rows past the head to
    /// [`LineBatch::row_tail`] once their banks allow it.
    fn fill_rows(&mut self, base: PhysAddr, n: u64) {
        let lb = self.dram.line_bytes;
        let nch = u64::from(self.dram.cfg.channels);
        let row_bytes = self.dram.cfg.row_bytes;
        let w = self.window as u64;
        let l0 = self.dram.line_div.div(base.0);
        let row_lines = self.dram.row_run_kf * nch;
        let mut j = 0;
        let mut slot = self.slot;
        while j < n {
            let byte = base.0 + j * lb;
            let row = self.dram.row_div.div(byte);
            // Whole rows past the head and before `ring_from`.
            if self.row_tails && j >= w && self.dram.row_div.rem(byte) < lb {
                let rows = self.ring_from.saturating_sub(j) / row_lines;
                if rows > 0 && self.tail_banks_ready(row, rows) {
                    self.row_tail(row, rows);
                    j += rows * row_lines;
                    slot = self.slot_after(slot, rows * row_lines);
                    continue;
                }
            }
            let seg = self
                .dram
                .line_div
                .div_ceil((row + 1) * row_bytes - byte)
                .min(n - j);
            if !self.run_hist && seg > w {
                // Without history a row longer than the window gates on
                // its own lines: walk it in line order.
                self.walk_lines(base, j, seg, slot);
            } else {
                let bank = self.dram.bank_div.rem(row) as usize;
                let mut c = self.dram.ch_div.rem(l0 + j) as usize;
                self.dram.unshare(bank);
                let mut s = slot;
                for t in 0..nch.min(seg) {
                    let k = self.dram.ch_div.div_ceil(seg - t);
                    self.fill_seg(c, bank, row, j + t, s, k);
                    c = if c + 1 == nch as usize { 0 } else { c + 1 };
                    s = if s + 1 == self.window { 0 } else { s + 1 };
                }
            }
            j += seg;
            slot = self.slot_after(slot, seg);
        }
    }

    /// The `k` fills of one (row, channel) segment of a fill run: row
    /// `row` of bank `bank` on channel `c`, the first being the run's
    /// miss `j0` in MSHR slot `slot0`, each next one `channels` misses
    /// on. The caller has given each channel its own copy of the bank.
    ///
    /// Only the row-opening line's gate enters the closed form, through
    /// the bank's ready time; every line then starts where the one
    /// before it on the channel ended, from `d0`. That holds unless a
    /// ring-read gate passes its line's start, in which case the
    /// segment walks per line. (In-run gates never do; see
    /// [`LineBatch`].)
    fn fill_seg(&mut self, c: usize, bank: usize, row: u64, j0: u64, slot0: usize, k: u64) {
        let nch = self.dram.free_at.len();
        let pen = self.dram.cfg.row_miss_penalty;
        let cas = self.dram.cfg.cas_latency;
        let bi = bank * nch + c;
        let burst = self.dram.burst_fp_ch[c];
        let b = self.dram.banks[bi];
        let open = b.open_row == row;
        let ready = if open {
            b.ready_at
        } else {
            self.gate_at(j0, slot0, c).max(b.ready_at) + pen
        };
        let d0 = fp(self.now).max(self.dram.free_at[c]).max(fp(ready));
        let (lo, hi) = self.ring_gated(j0, k);
        if !self.ring_ok(slot0, lo, hi, |i, g| fp(g) <= d0 + i * burst) {
            self.fill_seg_walk(c, bank, row, j0, slot0, k);
            return;
        }
        #[cfg(test)]
        {
            self.scratch.work.closed += 1;
        }
        if open {
            self.dram.stats.row_hits.add(k);
        } else {
            self.dram.stats.row_misses.incr();
            self.dram.stats.row_hits.add(k - 1);
            self.dram.banks[bi] = Bank {
                open_row: row,
                ready_at: ready,
            };
        }
        let free = d0 + k * burst;
        self.dram.free_at[c] = free;
        self.finish = self.finish.max(ceil_fp(free) + cas);
        self.ring_fill(j0, slot0, k, |i| ceil_fp(d0 + (i + 1) * burst) + cas);
        if self.run_hist {
            let n = self.scratch.hist_pos[c].fills;
            self.hist_push(c, j0, SegDesc::fills(n, d0, burst), k);
        }
    }

    /// [`LineBatch::fill_seg`]'s lines walked one by one.
    #[cold]
    #[inline(never)]
    fn fill_seg_walk(&mut self, c: usize, bank: usize, row: u64, j0: u64, slot0: usize, k: u64) {
        #[cfg(test)]
        {
            self.scratch.work.fallback += 1;
        }
        let nch = self.dram.cfg.channels as u64;
        let mut slot = slot0;
        for i in 0..k {
            self.fill_line(j0 + i * nch, slot, c, bank, row);
            slot = self.slot_after(slot, nch);
        }
    }

    /// Whether `row_tail` may price `rows` full rows from `row0` on:
    /// no bank of their first lap holds its row open, and each is ready
    /// a penalty before the bus reaches its row, `r` rows on:
    /// `fp(ready + penalty) ≤ horizon + r × kf × burst`, which a lap of
    /// walked rows also guarantees, since a walked row leaves its bank
    /// ready no later than its own start. Gives each channel its own
    /// copy of those banks.
    fn tail_banks_ready(&mut self, row0: u64, rows: u64) -> bool {
        let kf = self.dram.row_run_kf;
        let nbanks = self.dram.cfg.banks_per_channel as usize;
        let nch = self.dram.free_at.len();
        let pen = self.dram.cfg.row_miss_penalty;
        let mut b = self.dram.bank_div.rem(row0) as usize;
        for r in 0..rows.min(nbanks as u64) {
            self.dram.unshare(b);
            for c in 0..nch {
                let bank = self.dram.banks[b * nch + c];
                let start = self.dram.free_at[c] + r * kf * self.dram.burst_fp_ch[c];
                if bank.open_row == row0 + r || fp(bank.ready_at + pen) > start {
                    return false;
                }
            }
            b += 1;
            if b == nbanks {
                b = 0;
            }
        }
        true
    }

    /// Prices `rows` full rows from `row0` on in closed form, inside
    /// [`LineBatch::fill_rows`]: the rows start past the run's head, so
    /// every row-opening line gates on a line of this run, and end
    /// before the run's last `window` lines, whose MSHR slots the walk
    /// still writes.
    ///
    /// No bank or gate delays the bus in these rows. A bank's first
    /// visit finds it ready a penalty before the bus reaches it
    /// (`tail_banks_ready`), and a later visit finds it ready at most at
    /// the start of its visit before, `banks` rows and at least `banks
    /// × kf × burst ≥ fp(penalty)` earlier. A gate is the
    /// completion of the line `window/channels` lines back on the same
    /// channel, so the gate plus the penalty lands before the bus frees
    /// when `fp(cas + penalty) + 1 cycle ≤ (window/channels − 1) ×
    /// burst`. So each channel's horizon advances by `rows × kf ×
    /// burst`, and every (row, channel) is one row miss and `kf − 1`
    /// hits. The tail's lines continue the last walked row's transfer
    /// without a gap, so that row's descriptor already covers them for
    /// gate look-ups, here and after the tail.
    ///
    /// A bank visited `m` times folds `R ← max(g, R) + penalty` over
    /// its visits' gates. Its gates are completions of lines `banks ×
    /// kf` apart on one channel, so each exceeds the one before by at
    /// least the penalty, and the fold ends at `max(g_last + penalty,
    /// R + m × penalty)`.
    fn row_tail(&mut self, row0: u64, rows: u64) {
        let kf = self.dram.row_run_kf;
        let nb = u64::from(self.dram.cfg.banks_per_channel);
        let nbanks = nb as usize;
        let nch = self.dram.free_at.len();
        let pen = self.dram.cfg.row_miss_penalty;
        let cas = self.dram.cfg.cas_latency;
        let b0 = self.dram.bank_div.rem(row0) as usize;
        // Each bank's last visit is among the last `banks` rows.
        let first_last = rows.saturating_sub(nb);
        for c in 0..nch {
            let n0 = self.scratch.hist_pos[c].fills;
            self.scratch.hist_pos[c].fills = n0 + rows * kf;
            let free = self.dram.free_at[c] + rows * kf * self.dram.burst_fp_ch[c];
            self.dram.free_at[c] = free;
            self.finish = self.finish.max(ceil_fp(free) + cas);
            let mut b = (b0 + self.dram.bank_div.rem(first_last) as usize) % nbanks;
            for r in first_last..rows {
                let gate = self.hist_done(c, n0 + r * kf - self.per_ch);
                // `tail_banks_ready` unshared every bank.
                debug_assert!(self.dram.agree & bank_bit(b) == 0);
                let bank = &mut self.dram.banks[b * nch + c];
                let m = self.dram.bank_div.div(r) + 1;
                bank.ready_at = (gate + pen).max(bank.ready_at + m * pen);
                bank.open_row = row0 + r;
                b += 1;
                if b == nbanks {
                    b = 0;
                }
            }
        }
        let ops = rows * nch as u64;
        self.dram.stats.row_misses.add(ops);
        self.dram.stats.row_hits.add(ops * (kf - 1));
    }

    /// Issues a gap-free run of `lines` consecutive missing lines
    /// starting at `base` (line order, immediately after any preceding
    /// events).
    pub fn fill_run(&mut self, base: PhysAddr, lines: u64) {
        if lines == 0 {
            return;
        }
        self.fill_lines += lines;
        if !self.use_ring {
            // The window never fills: every gate is `now`, the whole run
            // is one closed-form segment walk.
            let done = self.dram.burst_lines_batched(self.now, base, lines);
            self.finish = self.finish.max(done);
            return;
        }
        self.start_run(lines);
        self.fill_rows(base, lines);
        self.slot = self.slot_after(self.slot, lines);
        self.run_miss += lines;
    }

    /// Issues one posted single-line writeback at `now` (dirty victim;
    /// occupies a channel but no MSHR and does not gate completion).
    pub fn writeback(&mut self, addr: PhysAddr) {
        self.wb_lines += 1;
        self.dram.line_timing(self.now, addr.0);
    }

    /// Issues `n` missing lines starting at `base` where line `i`
    /// evicts the dirty line `victim + i`: for each `i`, the posted
    /// writeback of the victim at `now`, then the MSHR-gated fill of
    /// the line. Exactly equivalent to `n` pairs of
    /// [`LineBatch::writeback`] and a 1-line [`LineBatch::fill_run`].
    ///
    /// A victim that shares its line's channel, bank and in-row offset
    /// from a different row keeps sharing them, so every pair stays on
    /// one channel and one bank, and such a run is priced per (row,
    /// channel) segment (`evict_rows`). Any other run walks pair by
    /// pair, stepping both channels and the MSHR slot incrementally.
    pub fn evict_run(&mut self, base: PhysAddr, victim: PhysAddr, n: u64) {
        self.fill_lines += n;
        self.wb_lines += n;
        self.start_run(n);
        let d = &*self.dram;
        let (brow, vrow) = (d.row_div.div(base.0), d.row_div.div(victim.0));
        if brow != vrow
            && d.row_div.rem(base.0) == d.row_div.rem(victim.0)
            && d.bank_div.rem(brow) == d.bank_div.rem(vrow)
            && d.channel_of(base) == d.channel_of(victim)
        {
            self.evict_rows(base, victim, n);
        } else {
            self.evict_pairs(base, victim, 0, n, self.slot);
        }
        self.slot = self.slot_after(self.slot, n);
        self.run_miss += n;
    }

    /// The per-pair walk of pairs `from..from + n` of an eviction run,
    /// the first in MSHR slot `slot`.
    fn evict_pairs(&mut self, base: PhysAddr, victim: PhysAddr, from: u64, n: u64, slot: usize) {
        #[cfg(test)]
        {
            self.scratch.work.pairs += n;
        }
        let d = &*self.dram;
        let lb = d.line_bytes;
        let nch = d.cfg.channels as usize;
        let mut fill_ch = d.ch_div.rem(d.line_div.div(base.0) + from) as usize;
        let mut wb_ch = d.ch_div.rem(d.line_div.div(victim.0) + from) as usize;
        let mut slot = slot;
        for i in from..from + n {
            let d = &mut *self.dram;
            let wb = victim.0 + i * lb;
            let row = d.row_div.div(wb);
            d.line_timing_at(self.now, wb_ch, d.bank_div.rem(row) as usize, row);
            let row = d.row_div.div(base.0 + i * lb);
            let bank = d.bank_div.rem(row) as usize;
            self.fill_line(i, slot, fill_ch, bank, row);
            slot = if slot + 1 == self.window { 0 } else { slot + 1 };
            fill_ch = if fill_ch + 1 == nch { 0 } else { fill_ch + 1 };
            wb_ch = if wb_ch + 1 == nch { 0 } else { wb_ch + 1 };
        }
    }

    /// An eviction run whose victims share their lines' channel, bank
    /// and in-row offset, priced per (row, channel) segment: channels
    /// share no state, and a row holding at most `window` lines reads
    /// only gates from before it, so the row's pairs may go channel by
    /// channel. A row longer than the window walks per pair.
    fn evict_rows(&mut self, base: PhysAddr, victim: PhysAddr, n: u64) {
        let lb = self.dram.line_bytes;
        let nch = self.dram.cfg.channels as usize;
        let w = self.window;
        let mut c0 = self.dram.channel_of(base);
        let mut slot = self.slot;
        let mut i = 0;
        while i < n {
            let byte = base.0 + i * lb;
            let row = self.dram.row_div.div(byte);
            let seg = self
                .dram
                .line_div
                .div_ceil((row + 1) * self.dram.cfg.row_bytes - byte)
                .min(n - i);
            if self.use_ring && seg > w as u64 {
                self.evict_pairs(base, victim, i, seg, slot);
            } else {
                let vrow = self.dram.row_div.div(victim.0 + i * lb);
                let bank = self.dram.bank_div.rem(row) as usize;
                self.dram.unshare(bank);
                let (mut c, mut s) = (c0, slot);
                for t in 0..nch.min(seg as usize) {
                    let k = self.dram.ch_div.div_ceil(seg - t as u64);
                    self.evict_seg(c, bank, [vrow, row], i + t as u64, s, k);
                    c = if c + 1 == nch { 0 } else { c + 1 };
                    s = if s + 1 == w { 0 } else { s + 1 };
                }
            }
            c0 = self.dram.ch_div.rem(c0 as u64 + seg) as usize;
            slot = self.slot_after(slot, seg);
            i += seg;
        }
    }

    /// The `k` pairs of one (row, channel) segment of
    /// [`LineBatch::evict_rows`]: each writes back to row `rows[0]` and
    /// fills from row `rows[1]` of bank `bank` on channel `c`. The
    /// first pair is the run's miss `j0` in MSHR slot `slot0`; each
    /// later pair is `channels` misses on. The caller has given each
    /// channel its own copy of the bank.
    ///
    /// Operation `q = 1..2k` alternates a writeback (odd) and a fill
    /// (even). Let `F` be the channel's horizon, `R = max(now, ready)`
    /// the bank's readiness, `β` the burst and `P` the penalty. When
    /// the bank is not open on the victim's row, every operation is a
    /// row miss, so the bank's readiness steps `R ← max(g, R) + P`
    /// (`g` is `now` for a writeback, the fill's gate for a fill), and
    /// the bus `F ← max(F, fp(R)) + β` (no gate passes the bank it
    /// readies). If every fill gate satisfies `g_i ≤ R + (2i + 1) × P`,
    /// the bank never waits on a gate, and after operation `q` it is
    /// ready at `R + q × P`. The bus recurrence then telescopes to the
    /// max-plus sum `F_q = max(F + q × β, max_{p ≤ q} fp(R + p × P) + (q
    /// − p + 1) × β)`, and when `fp(P) ≥ β` its `p = q` term is the
    /// largest of the bank terms: `F_q = max(F + q × β, fp(R + q × P) +
    /// β)`. This one formula covers a bus-bound prefix and the
    /// bank-bound suffix that may follow. Pair `i`'s fill completes at
    /// `ceil(F_{2i+2}) + cas`, a descriptor `(d0, step, r0, bank_step)
    /// = (F, 2β, fp(R), fp(2P))`.
    ///
    /// The gate checks need no serial chain. Ring-read gates are each
    /// checked. Within one descriptor of this run's history, the
    /// completions of consecutive fills rise by at most `fp(2P)` ticks
    /// before rounding (`2β ≤ fp(2P)`), so by at most `2P` cycles,
    /// while the bound rises by exactly `2P`: checking the first gate
    /// each descriptor supplies is enough. When a condition fails, the
    /// segment walks pair by pair.
    fn evict_seg(&mut self, c: usize, bank: usize, rows: [u64; 2], j0: u64, slot0: usize, k: u64) {
        let nch = self.dram.free_at.len();
        let pen = self.dram.cfg.row_miss_penalty;
        let cas = self.dram.cfg.cas_latency;
        let bi = bank * nch + c;
        let burst = self.dram.burst_fp_ch[c];
        let b = self.dram.banks[bi];
        let r = self.now.max(b.ready_at);
        // `rt`: the bank's readiness from the first fill on, whose gate
        // may bind (the later ones may not).
        let (lo, hi) = self.ring_gated(j0, k);
        let mut rt = r;
        let closed = b.open_row != rows[0]
            && fp(pen) >= burst
            && if hi > 0 {
                if lo == 0 {
                    rt = (r + pen).max(self.scratch.ring[slot0]) - pen;
                }
                let bound = |i: u64, g: Cycle| g <= rt + (2 * i + 1) * pen;
                self.ring_ok(slot0, lo, hi, bound) && self.hist_ok(c, hi, k, bound)
            } else {
                self.hist_ok(c, 0, k, |i, g| {
                    if i == 0 {
                        rt = (r + pen).max(g) - pen;
                    }
                    g <= rt + (2 * i + 1) * pen
                })
            };
        if !closed {
            self.evict_seg_walk(c, bank, rows, j0, slot0, k);
            return;
        }
        #[cfg(test)]
        {
            self.scratch.work.closed += 1;
        }
        let d = self.dram.free_at[c].max(fp(r + pen));
        let (rf, pf) = (fp(rt), fp(pen));
        let at = |q: u64| (d + q * burst).max(rf + q * pf + burst);
        let end = at(2 * k);
        self.dram.free_at[c] = end;
        self.dram.banks[bi] = Bank {
            open_row: rows[1],
            ready_at: rt + 2 * k * pen,
        };
        self.dram.stats.row_misses.add(2 * k);
        self.finish = self.finish.max(ceil_fp(end) + cas);
        self.ring_fill(j0, slot0, k, |i| ceil_fp(at(2 * i + 2)) + cas);
        if self.run_hist {
            let desc = SegDesc {
                start_n: self.scratch.hist_pos[c].fills,
                d0: d,
                step: 2 * burst,
                r0: rf,
                bank_step: 2 * pf,
            };
            self.hist_push(c, j0, desc, k);
        }
    }

    /// [`LineBatch::evict_seg`]'s pairs walked one by one.
    #[cold]
    #[inline(never)]
    fn evict_seg_walk(
        &mut self,
        c: usize,
        bank: usize,
        rows: [u64; 2],
        j0: u64,
        slot0: usize,
        k: u64,
    ) {
        #[cfg(test)]
        {
            self.scratch.work.fallback += 1;
            self.scratch.work.pairs += k;
        }
        let nch = self.dram.cfg.channels as u64;
        let mut slot = slot0;
        for i in 0..k {
            self.dram.line_timing_at(self.now, c, bank, rows[0]);
            self.fill_line(j0 + i * nch, slot, c, bank, rows[1]);
            slot = self.slot_after(slot, nch);
        }
    }

    /// Whether `ok(i, gate)` holds for pairs `from..k` of an eviction
    /// segment on channel `c`, whose gates come from this run's
    /// history (all gates are `now` without it): pair `i` gates on the
    /// channel's fill `per_ch` before its own. Checks pair `from` and
    /// the first pair each later descriptor supplies (see
    /// [`LineBatch::evict_seg`]).
    #[inline]
    fn hist_ok(
        &mut self,
        c: usize,
        from: u64,
        k: u64,
        mut ok: impl FnMut(u64, Cycle) -> bool,
    ) -> bool {
        if from >= k {
            return true;
        }
        if !self.run_hist {
            return ok(from, self.now);
        }
        let burst = self.dram.burst_fp_ch[c];
        let cas = self.dram.cfg.cas_latency;
        // Pair `i` gates on fill `i + base − per_ch` (`i ≥ from`).
        let base = self.scratch.hist_pos[c].fills;
        // A failed check hands the segment to the per-pair walk, which
        // looks its gates up again from the first.
        let cursor = self.scratch.hist_pos[c].cursor;
        let mut i = from;
        loop {
            let n = i + base - self.per_ch;
            let (d, next) = self.hist_seek(c, n);
            if !ok(i, d.done(n, burst, cas)) {
                self.scratch.hist_pos[c].cursor = cursor;
                return false;
            }
            if next >= k + base - self.per_ch {
                return true;
            }
            i = next + self.per_ch - base;
        }
    }

    /// Completion cycle of the latest fill so far (`now` if none).
    pub fn finish(&self) -> Cycle {
        self.finish
    }
}

impl Drop for LineBatch<'_> {
    fn drop(&mut self) {
        // Flush the batched request/byte/busy statistics (identical
        // totals to per-event accounting — Counters saturate, and line
        // counts cannot overflow the sums).
        let s = &mut self.dram.stats;
        s.requests.add(self.fill_lines + self.wb_lines);
        s.read_bytes.add(self.fill_lines * self.dram.line_bytes);
        s.write_bytes.add(self.wb_lines * self.dram.line_bytes);
        s.busy_cycles
            .add((self.fill_lines + self.wb_lines) * self.dram.burst_ceil);
        // Hand the scratch buffers back for the next range walk.
        self.dram.scratch = std::mem::take(&mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_common::types::KIB;
    use camdn_common::SimRng;

    fn model() -> DramModel {
        DramModel::new(DramConfig::paper_default(), 64)
    }

    #[test]
    fn traffic_accounting() {
        let mut d = model();
        d.access_burst(0, PhysAddr(0), 10, false, 0);
        d.access_burst(0, PhysAddr(4096), 5, true, 0);
        assert_eq!(d.stats().read_bytes.get(), 640);
        assert_eq!(d.stats().write_bytes.get(), 320);
        assert_eq!(d.stats().total_bytes(), 960);
        assert_eq!(d.stats().requests.get(), 2);
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let mut d = model();
        // First access opens the row (miss).
        let t1 = d.access_burst(0, PhysAddr(0), 1, false, 0);
        // Second access to the same row on an idle bus: row hit.
        let free = d.earliest_free().max(t1);
        let t2 = d.access_burst(free, PhysAddr(64 * 4), 1, false, 0) - free;
        // A fresh model accessing a different row: row miss.
        let mut d2 = model();
        let t3 = d2.access_burst(0, PhysAddr(0), 1, false, 0);
        assert!(t2 < t3, "row hit {t2} should beat row miss {t3}");
        assert_eq!(d.stats().row_hits.get(), 1);
        assert_eq!(d.stats().row_misses.get(), 1);
    }

    #[test]
    fn sequential_stream_uses_all_channels() {
        let d = model();
        // 64 consecutive lines interleave across 4 channels.
        let mut seen = [false; 4];
        for i in 0..64u64 {
            seen[d.channel_of(PhysAddr(i * 64))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn contention_serializes_on_a_channel() {
        let mut d = model();
        // Two requesters hammer the same addresses (same channels).
        let a = d.access_burst(0, PhysAddr(0), 32 * 4, false, 0);
        let b = d.access_burst(0, PhysAddr(0), 32 * 4, false, 0);
        assert!(b > a, "second request must queue behind the first");
    }

    const MIB_LINES: u64 = (1024 * KIB) / 64;

    #[test]
    fn big_burst_throughput_close_to_peak() {
        let mut d = model();
        // Stream 1 MiB sequentially from time 0.
        let done = d.access_burst(0, PhysAddr(0), MIB_LINES, false, 0);
        let bw = d.achieved_bandwidth(done);
        // Should reach at least half of the 102.4 B/cycle peak even with
        // row-miss overheads on a fresh bank state.
        assert!(bw > 51.0, "achieved bandwidth {bw:.1} B/cycle too low");
        assert!(bw <= 102.4 + 1e-9);
    }

    #[test]
    fn extra_queue_delay_postpones_start() {
        let mut d1 = model();
        let mut d2 = model();
        let t1 = d1.access_burst(0, PhysAddr(0), 4, false, 0);
        let t2 = d2.access_burst(0, PhysAddr(0), 4, false, 1000);
        assert_eq!(t2, t1 + 1000);
    }

    #[test]
    fn zero_line_burst_is_noop() {
        let mut d = model();
        assert_eq!(d.access_burst(77, PhysAddr(0), 0, false, 0), 77);
        assert_eq!(d.stats().requests.get(), 0);
    }

    #[test]
    fn row_hit_rate_reporting() {
        let mut d = model();
        d.access_burst(0, PhysAddr(0), 32, false, 0);
        let r = d.stats().row_hit_rate();
        assert!(r > 0.0 && r < 1.0, "mixed hits/misses expected, got {r}");
    }

    #[test]
    fn reset_stats_clears_counters_only() {
        let mut d = model();
        d.access_burst(0, PhysAddr(0), 8, false, 0);
        let busy = d.earliest_free();
        d.reset_stats();
        assert_eq!(d.stats().total_bytes(), 0);
        assert_eq!(d.earliest_free(), busy, "bank/bus state must survive");
    }

    // --- differential: closed form vs per-line reference ------------

    fn assert_same(fast: &DramModel, refm: &DramModel, ctx: &str) {
        assert_eq!(
            fast.state_fingerprint(),
            refm.state_fingerprint(),
            "timing state diverged: {ctx}"
        );
        let (f, r) = (fast.stats(), refm.stats());
        assert_eq!(f.read_bytes.get(), r.read_bytes.get(), "{ctx}");
        assert_eq!(f.write_bytes.get(), r.write_bytes.get(), "{ctx}");
        assert_eq!(f.row_hits.get(), r.row_hits.get(), "{ctx}");
        assert_eq!(f.row_misses.get(), r.row_misses.get(), "{ctx}");
        assert_eq!(f.requests.get(), r.requests.get(), "{ctx}");
        assert_eq!(f.busy_cycles.get(), r.busy_cycles.get(), "{ctx}");
    }

    #[test]
    fn batched_burst_matches_reference_exactly() {
        let configs = [
            DramConfig::paper_default(),
            DramConfig {
                channels: 2,
                banks_per_channel: 4,
                row_bytes: 512,
                bytes_per_cycle: 32.0,
                row_miss_penalty: 25,
                cas_latency: 11,
            },
            DramConfig {
                channels: 1,
                banks_per_channel: 2,
                row_bytes: 256,
                bytes_per_cycle: 7.3,
                row_miss_penalty: 3,
                cas_latency: 2,
            },
        ];
        let mut rng = SimRng::new(0xD1FF);
        for (ci, cfg) in configs.iter().enumerate() {
            for line_bytes in [32u64, 64, 128] {
                let (mut fast, mut refm) = twins(*cfg, line_bytes);
                let mut now = 0;
                for step in 0..200 {
                    // Random bursts: some sequential, some overlapping,
                    // some unaligned, reads and writes, queued or not.
                    let addr = PhysAddr(rng.next_below(1 << 22));
                    let lines = rng.next_below(700);
                    let is_write = rng.next_below(2) == 1;
                    let delay = rng.next_below(3) * 17;
                    now += rng.next_below(500);
                    let a = fast.access_burst(now, addr, lines, is_write, delay);
                    let b = refm.access_burst(now, addr, lines, is_write, delay);
                    assert_eq!(a, b, "finish diverged: cfg {ci}, step {step}");
                    assert_same(&fast, &refm, &format!("cfg {ci}, step {step}"));
                }
            }
        }

        // Long bursts, where the row-run step prices most rows: at the
        // paper geometry a row gives each channel 8 lines of 2.5 cycles,
        // so `banks × kf × burst` is 320 cycles against a 40-cycle
        // penalty and every row past the first lap is closed form.
        let paper = DramConfig::paper_default();
        let row_lines = paper.row_bytes / 64;
        let mut pair = twins(paper, 64);
        let mut now = 0;
        for step in 0..40 {
            // 2k-20k lines, so each of the 16 banks reopens 4-39 times;
            // starting and ending mid-row on odd steps, line-unaligned
            // on every fourth.
            let row = rng.next_below(1 << 12);
            let skew = (step % 2) * rng.next_below(row_lines) * 64;
            let unaligned = u64::from(step % 4 == 3) * (1 + rng.next_below(63));
            let addr = PhysAddr(row * paper.row_bytes + skew + unaligned);
            let lines = 2_000 + rng.next_below(18_000) + (step % 2) * rng.next_below(row_lines);
            now += rng.next_below(20_000);
            burst_both(&mut pair, now, addr, lines, 0, "long burst");
        }
        // A degraded channel between bursts, then restored: the bound
        // and the horizon step use each channel's own burst.
        for scale in [0.37, 1.0] {
            pair.0.set_channel_bandwidth_scale(2, scale);
            pair.1.set_channel_bandwidth_scale(2, scale);
            for _ in 0..4 {
                let addr = PhysAddr(rng.next_below(1 << 12) * paper.row_bytes + 5 * 64);
                now += rng.next_below(5_000);
                burst_both(&mut pair, now, addr, 6_000, 0, "degraded");
            }
        }
        // A burst whose `earliest` sits below banks a prior burst left
        // busy far in the future: the first lap must wait on them.
        let busy = PhysAddr(7_000 * paper.row_bytes);
        burst_both(&mut pair, now, busy, 3_000, 400_000, "busy banks");
        for addr in [busy, busy.offset(40 * paper.row_bytes + 3 * 64)] {
            burst_both(&mut pair, now + 10, addr, 9_000, 0, "below busy");
        }
        // A re-read of rows still open, long after the bus went idle:
        // no bank gates, but `earliest` is past every horizon.
        let open = PhysAddr(9_000 * paper.row_bytes);
        burst_both(&mut pair, now, open, 8 * row_lines, 0, "open rows");
        now = pair.0.earliest_free() + 50_000;
        burst_both(&mut pair, now, open, 8 * row_lines, 0, "idle re-read");

        // Configs off the closed form: three channels (a row is not a
        // whole number of channel rounds, so the segment walk prices
        // every row); penalties around the `banks × kf × burst` bound
        // (above it every row is walked); one bank per channel.
        let with = |channels, banks, pen| DramConfig {
            channels,
            banks_per_channel: banks,
            row_miss_penalty: pen,
            ..paper
        };
        for cfg in [
            paper,
            with(3, 16, 40),
            with(4, 16, 300),
            with(4, 16, 320),
            with(4, 16, 321),
            with(4, 16, 5_000),
            with(4, 1, 20),
            with(4, 1, 40),
        ] {
            let mut pair = twins(cfg, 64);
            let mut now = 0;
            for step in 0..12 {
                let addr = PhysAddr(rng.next_below(1 << 12) * cfg.row_bytes + (step % 3) * 64);
                let lines = 500 + rng.next_below(12_000);
                now += rng.next_below(30_000);
                let ctx = format!("{cfg:?} step {step}");
                burst_both(&mut pair, now, addr, lines, 0, &ctx);
            }
            // Bank-tight laps: one row opened far ahead, then a burst
            // re-reading it whose `earliest` trails the horizon by
            // `back`, so the lap opens fresh banks at `earliest +
            // penalty`. For some `back` a bank is ready exactly at its
            // segment's start, and its next visit, `banks` rows later,
            // gates the bus unless `banks × kf × burst` covers the
            // penalty.
            for back in (cfg.row_miss_penalty.saturating_sub(40)..).take(48) {
                let mut pair = twins(cfg, 64);
                let a = PhysAddr(77 * cfg.row_bytes);
                burst_both(&mut pair, 0, a, cfg.row_bytes / 64, 100_000, "open");
                let now = pair.0.earliest_free().saturating_sub(back);
                burst_both(&mut pair, now, a, 3_000, 0, &format!("{cfg:?} back {back}"));
            }
        }
    }

    /// A batched model and its per-line reference twin.
    fn twins(cfg: DramConfig, line_bytes: u64) -> (DramModel, DramModel) {
        let mut refm = DramModel::new(cfg, line_bytes);
        refm.set_reference_model(true);
        (DramModel::new(cfg, line_bytes), refm)
    }

    /// Issues one read burst to both twins and asserts they agree
    /// exactly.
    fn burst_both(
        (fast, refm): &mut (DramModel, DramModel),
        now: Cycle,
        addr: PhysAddr,
        lines: u64,
        delay: Cycle,
        ctx: &str,
    ) {
        let a = fast.access_burst(now, addr, lines, false, delay);
        let b = refm.access_burst(now, addr, lines, false, delay);
        let ctx = format!("{ctx}: {lines} lines at {addr:?}, now {now}");
        assert_eq!(a, b, "finish diverged: {ctx}");
        assert_same(fast, refm, &ctx);
    }

    /// One event of a [`LineBatch`] tape under test.
    #[derive(Clone, Copy)]
    enum Ev {
        /// `fill_run(base, lines)`.
        Fill(PhysAddr, u64),
        /// `writeback(victim)`.
        Wb(PhysAddr),
        /// `evict_run(base, victim, lines)`.
        Evict(PhysAddr, PhysAddr, u64),
    }

    /// Feeds `events` to a fresh batch on `d` and returns its finish.
    fn run_batch(d: &mut DramModel, now: Cycle, window: usize, events: &[Ev]) -> Cycle {
        let fills = events
            .iter()
            .map(|e| match *e {
                Ev::Fill(_, n) | Ev::Evict(_, _, n) => n,
                Ev::Wb(_) => 0,
            })
            .sum();
        let mut batch = d.line_batch(now, window, fills);
        for e in events {
            match *e {
                Ev::Fill(base, n) => batch.fill_run(base, n),
                Ev::Wb(victim) => batch.writeback(victim),
                Ev::Evict(base, victim, n) => batch.evict_run(base, victim, n),
            }
        }
        batch.finish()
    }

    /// Reference emulation of a gated fill/writeback sequence: the exact
    /// per-miss `access_burst` + MSHR-ring loop the shared cache used to
    /// run line by line. An eviction run expands to `n` × (1-line posted
    /// write of the victim, gated 1-line fill).
    fn emulate_gated(d: &mut DramModel, now: Cycle, window: usize, events: &[Ev]) -> Cycle {
        let mut ring = vec![0 as Cycle; window];
        let mut miss_no = 0usize;
        let mut finish = now;
        let mut fill = |d: &mut DramModel, addr: PhysAddr| {
            let slot = miss_no % window;
            let gate = if miss_no >= window {
                ring[slot].max(now)
            } else {
                now
            };
            let done = d.access_burst(gate, addr, 1, false, 0);
            ring[slot] = done;
            miss_no += 1;
            finish = finish.max(done);
        };
        for &e in events {
            match e {
                Ev::Wb(victim) => {
                    d.access_burst(now, victim, 1, true, 0);
                }
                Ev::Fill(base, n) => {
                    for i in 0..n {
                        fill(d, base.offset(i * 64));
                    }
                }
                Ev::Evict(base, victim, n) => {
                    for i in 0..n {
                        d.access_burst(now, victim.offset(i * 64), 1, true, 0);
                        fill(d, base.offset(i * 64));
                    }
                }
            }
        }
        finish
    }

    #[test]
    fn line_batch_matches_gated_reference_exactly() {
        const W: usize = 144;
        let mut rng = SimRng::new(0xBA7C4);
        for trial in 0..60 {
            // Random event tapes: runs of consecutive misses (some far
            // longer than the window), interleaved writebacks, eviction
            // runs (some longer than the window too), gaps.
            let mut events = Vec::new();
            let n_ev = 1 + rng.next_below(8);
            let mut cursor = rng.next_below(1 << 20) * 64;
            for _ in 0..n_ev {
                if rng.next_below(4) == 0 {
                    events.push(Ev::Wb(PhysAddr(rng.next_below(1 << 24) * 64)));
                }
                let lines = 1 + rng.next_below(600);
                if rng.next_below(3) == 0 {
                    let victim = PhysAddr(rng.next_below(1 << 24) * 64);
                    events.push(Ev::Evict(PhysAddr(cursor), victim, lines));
                } else {
                    events.push(Ev::Fill(PhysAddr(cursor), lines));
                }
                cursor += lines * 64 + (1 + rng.next_below(40)) * 64; // gap
            }
            let now = rng.next_below(10_000);

            let mut fast = model();
            let mut refm = model();
            // Shared warm state so runs start against non-trivial horizons.
            let warm = PhysAddr(rng.next_below(1 << 18) * 64);
            let warm_lines = rng.next_below(300);
            fast.access_burst(0, warm, warm_lines, false, 0);
            refm.access_burst(0, warm, warm_lines, false, 0);

            let a = run_batch(&mut fast, now, W, &events);
            let b = emulate_gated(&mut refm, now, W, &events);
            assert_eq!(a, b, "finish diverged on trial {trial}");
            assert_same(&fast, &refm, &format!("trial {trial}"));
        }
    }

    #[test]
    fn degraded_channels_match_reference_exactly() {
        // The closed form must stay bit-identical to the per-line walk
        // when channels carry *different* bus occupancies (telescoping
        // is per channel, so per-channel bursts keep it exact).
        let mut rng = SimRng::new(0xDE64);
        let mut fast = model();
        let mut refm = model();
        refm.set_reference_model(true);
        for d in [&mut fast, &mut refm] {
            d.set_channel_bandwidth_scale(1, 0.25);
            d.set_channel_bandwidth_scale(3, 0.05);
        }
        let mut now = 0;
        for step in 0..120 {
            let addr = PhysAddr(rng.next_below(1 << 22));
            let lines = rng.next_below(700);
            let is_write = rng.next_below(2) == 1;
            now += rng.next_below(500);
            let a = fast.access_burst(now, addr, lines, is_write, 0);
            let b = refm.access_burst(now, addr, lines, is_write, 0);
            assert_eq!(a, b, "finish diverged at step {step}");
            assert_same(&fast, &refm, &format!("degraded step {step}"));
        }
    }

    #[test]
    fn degrade_slows_and_restore_is_exact() {
        let mut d = model();
        let healthy = d.clone();
        let t0 = d.clone().access_burst(0, PhysAddr(0), 256, false, 0);
        d.set_channel_bandwidth_scale(0, 0.1);
        let t1 = d.clone().access_burst(0, PhysAddr(0), 256, false, 0);
        assert!(
            t1 > t0,
            "degraded channel must slow the burst: {t1} vs {t0}"
        );
        assert_eq!(d.channel_bandwidth_scale(0), 0.1);
        d.set_channel_bandwidth_scale(0, 1.0);
        assert_eq!(
            d.access_burst(0, PhysAddr(0), 256, false, 0),
            healthy.clone().access_burst(0, PhysAddr(0), 256, false, 0),
            "restoring 1.0 must reprice at exactly nominal"
        );
    }

    #[test]
    fn line_batch_matches_reference_with_degraded_channels() {
        const W: usize = 144;
        let mut fast = model();
        let mut refm = model();
        for d in [&mut fast, &mut refm] {
            d.set_channel_bandwidth_scale(2, 0.25);
        }
        let events = [
            Ev::Fill(PhysAddr(0), 500),
            Ev::Wb(PhysAddr(1 << 16)),
            Ev::Fill(PhysAddr(40_000 * 64), 300),
            Ev::Evict(PhysAddr(50_000 * 64), PhysAddr(7_001 * 64), 200),
        ];
        let a = run_batch(&mut fast, 100, W, &events);
        let b = emulate_gated(&mut refm, 100, W, &events);
        assert_eq!(a, b);
        assert_same(&fast, &refm, "degraded line batch");
    }

    #[test]
    fn long_run_tail_rebuilds_every_ring_slot() {
        // A run longer than the window is priced in closed form past its
        // head, which must leave the MSHR ring exactly as the per-line
        // walk would: the misses after it gate on every slot (1-line
        // fills that each open a fresh row, so a wrong gate moves a
        // bank's ready time, then an eviction run).
        const W: u64 = 144;
        let row_lines = DramConfig::paper_default().row_bytes / 64;
        let mut rng = SimRng::new(0x7A11);
        for degraded in [false, true] {
            for len in [W + 1, 2 * W - 1, 2 * W, 3 * W + 7] {
                // No lead-in: the run opens the batch and has no head.
                // A lead-in: the run's first `window` lines are its head.
                for lead in [0u64, 5] {
                    let start = 1000 * row_lines + row_lines / 2 + 3;
                    let mut events = Vec::new();
                    if lead > 0 {
                        events.push(Ev::Fill(PhysAddr(500 * row_lines * 64), lead));
                    }
                    events.push(Ev::Fill(PhysAddr(start * 64), len));
                    for _ in 0..W / 2 {
                        let row = 2000 + rng.next_below(1 << 16);
                        events.push(Ev::Fill(PhysAddr(row * row_lines * 64), 1));
                    }
                    let victim = PhysAddr((300 * row_lines + 7) * 64);
                    events.push(Ev::Evict(
                        PhysAddr(start * 64 + len * 64),
                        victim,
                        W / 2 + 8,
                    ));

                    let mut fast = model();
                    let mut refm = model();
                    if degraded {
                        for d in [&mut fast, &mut refm] {
                            d.set_channel_bandwidth_scale(1, 0.25);
                            d.set_channel_bandwidth_scale(3, 0.6);
                        }
                    }
                    let ctx = format!("len {len}, lead {lead}, degraded {degraded}");
                    let a = run_batch(&mut fast, 50, W as usize, &events);
                    let b = emulate_gated(&mut refm, 50, W as usize, &events);
                    assert_eq!(a, b, "finish diverged: {ctx}");
                    assert_same(&fast, &refm, &ctx);
                }
            }
        }
    }

    /// Runs `events` through a fresh batch on a model and through the
    /// gated emulation on its twin (same warm-up burst), asserting they
    /// agree exactly.
    fn batch_both(
        cfg: DramConfig,
        scales: &[(usize, f64)],
        warm: (PhysAddr, u64),
        events: &[Ev],
        ctx: &str,
    ) {
        const W: usize = 144;
        let mut fast = DramModel::new(cfg, 64);
        let mut refm = DramModel::new(cfg, 64);
        for d in [&mut fast, &mut refm] {
            for &(c, s) in scales {
                d.set_channel_bandwidth_scale(c, s);
            }
            d.access_burst(0, warm.0, warm.1, false, 0);
        }
        let a = run_batch(&mut fast, 70, W, events);
        let b = emulate_gated(&mut refm, 70, W, events);
        assert_eq!(a, b, "finish diverged: {ctx}");
        assert_same(&fast, &refm, ctx);
    }

    #[test]
    fn long_fill_runs_match_gated_reference_exactly() {
        // Fill runs long enough to reach rows past the first lap of
        // banks (`row_tail`): at the paper geometry a lap is 16 rows of
        // 32 lines, so a run needs ~700 lines after a 144-line head.
        // Runs start mid-row or on a row, with and without a lead-in
        // (a lead-in makes the run's first `window` lines its head),
        // and are followed by 1-line fills and an eviction run that
        // gate on the ring slots the run rewrote.
        let paper = DramConfig::paper_default();
        let row_lines = paper.row_bytes / 64;
        let with = |banks, pen| DramConfig {
            banks_per_channel: banks,
            row_miss_penalty: pen,
            ..paper
        };
        let mut rng = SimRng::new(0x7A1E);
        // The paper geometry (both bounds hold), a penalty of 400 (the
        // lap bound fails: 16 × 8 × 2.5 < 400), one of 70 (the gate
        // bound fails: 20 + 70 + 1 > 35 × 2.5), and 2 banks, whose lap
        // of 16 rows' lines is shorter than the gate look-back.
        for cfg in [paper, with(16, 400), with(16, 70), with(2, 40), with(2, 41)] {
            for scales in [&[][..], &[(1, 0.25), (3, 0.05)][..]] {
                for trial in 0..6 {
                    let len = 700 + rng.next_below(3_300);
                    let skew = (trial % 2) * rng.next_below(row_lines);
                    let start = (1000 + rng.next_below(1 << 12)) * row_lines + skew;
                    let mut events = Vec::new();
                    if trial % 3 != 0 {
                        let lead = 1 + rng.next_below(200);
                        events.push(Ev::Fill(PhysAddr(500 * row_lines * 64), lead));
                    }
                    events.push(Ev::Fill(PhysAddr(start * 64), len));
                    for _ in 0..40 {
                        let row = 9000 + rng.next_below(1 << 16);
                        events.push(Ev::Fill(PhysAddr(row * row_lines * 64), 1));
                    }
                    let victim = PhysAddr((300 * row_lines + 7) * 64);
                    events.push(Ev::Evict(PhysAddr((start + len) * 64), victim, 90));
                    let warm = (
                        PhysAddr(rng.next_below(1 << 18) * 64),
                        rng.next_below(3_000),
                    );
                    let ctx = format!("{cfg:?} {scales:?} trial {trial}, {len} lines");
                    batch_both(cfg, scales, warm, &events, &ctx);
                }
            }
        }
    }

    #[test]
    fn same_bank_eviction_runs_match_gated_reference_exactly() {
        // Victims congruent to their lines modulo 1 MiB share channel,
        // bank and in-row offset, so `evict_rows` prices them per (row,
        // channel) segment. Each tape opens with fill runs that push
        // the horizon ahead of the banks (bus-bound pairs), then evicts
        // over short, long and row-unaligned spans; the 1-line fills and
        // the second eviction run read the ring slots it wrote.
        const MIB: u64 = 1 << 20;
        let paper = DramConfig::paper_default();
        let row_lines = paper.row_bytes / 64;
        let with = |banks, pen| DramConfig {
            banks_per_channel: banks,
            row_miss_penalty: pen,
            ..paper
        };
        let mut rng = SimRng::new(0xE71C);
        // Paper geometry; 2 banks; a penalty of 2 (bank-bound pairs
        // never occur); 400 (most pairs wait on the bank).
        for cfg in [paper, with(2, 40), with(16, 2), with(16, 400)] {
            // Degraded to 0.05, a channel's burst (50 cycles) outlasts
            // the penalty, and its segments walk per pair.
            for scales in [&[][..], &[(1, 0.25), (3, 0.05)][..]] {
                for trial in 0..8u64 {
                    let start = 64 * MIB + rng.next_below(1 << 14) * 64;
                    let victim = start - (1 + rng.next_below(48)) * MIB;
                    let mut events = Vec::new();
                    let queue = rng.next_below(4) * 1_500;
                    if queue > 0 {
                        events.push(Ev::Fill(PhysAddr(8 * MIB), queue));
                    }
                    let n = [1, 7, 33, 300, 2_000][trial as usize % 5] + rng.next_below(row_lines);
                    events.push(Ev::Evict(PhysAddr(start), PhysAddr(victim), n));
                    for _ in 0..20 {
                        let row = 9000 + rng.next_below(1 << 16);
                        events.push(Ev::Fill(PhysAddr(row * row_lines * 64), 1));
                    }
                    let (b2, v2) = (start + n * 64 + 640, victim + n * 64 + 640);
                    events.push(Ev::Evict(PhysAddr(b2), PhysAddr(v2), 200));
                    let warm = (
                        PhysAddr(rng.next_below(1 << 18) * 64),
                        rng.next_below(3_000),
                    );
                    let ctx = format!("{cfg:?} {scales:?} trial {trial}, {n} pairs");
                    batch_both(cfg, scales, warm, &events, &ctx);
                }
            }
        }
        // One channel and a 16-miss window: a row of 32 lines outgrows
        // the window, so its pairs walk one by one.
        let narrow = DramConfig {
            channels: 1,
            bytes_per_cycle: 25.6,
            ..paper
        };
        let events = [
            Ev::Fill(PhysAddr(0), 400),
            Ev::Evict(PhysAddr(2 * MIB + 5 * 64), PhysAddr(MIB + 5 * 64), 500),
        ];
        for window in [16usize, 144] {
            let mut fast = DramModel::new(narrow, 64);
            let mut refm = DramModel::new(narrow, 64);
            let a = run_batch(&mut fast, 0, window, &events);
            let b = emulate_gated(&mut refm, 0, window, &events);
            assert_eq!(a, b, "window {window}");
            assert_same(&fast, &refm, &format!("one channel, window {window}"));
        }
    }

    #[test]
    fn line_batch_gates_throttle_when_window_fills() {
        // A run far longer than the window, then an eviction run, on a
        // 1-channel model with a CAS large enough that gates really
        // bind: the batch must match the reference even then (per-line
        // fallback, and ring gates inside the fused eviction walk).
        let cfg = DramConfig {
            channels: 1,
            banks_per_channel: 2,
            row_bytes: 2048,
            bytes_per_cycle: 64.0,
            row_miss_penalty: 4,
            cas_latency: 500,
        };
        let mut fast = DramModel::new(cfg, 64);
        let mut refm = DramModel::new(cfg, 64);
        let events = [
            Ev::Fill(PhysAddr(0), 400),
            Ev::Evict(PhysAddr(400 * 64), PhysAddr(9_000 * 64), 100),
        ];
        let a = run_batch(&mut fast, 0, 16, &events);
        let b = emulate_gated(&mut refm, 0, 16, &events);
        assert_eq!(a, b);
        assert_same(&fast, &refm, "binding gates");
    }

    #[test]
    fn eviction_segments_match_gated_reference_exactly() {
        // Same-bank eviction runs across the window (145, 300 and 2,000
        // pairs), from every channel offset, next to fill runs: a fill
        // run ahead of each eviction run feeds its head's ring gates,
        // and the fill run after it reads the ring slots the eviction
        // run rebuilt. Penalties 2 (bus-bound pairs), 40 and 400
        // (bank-bound), channels degraded to 0.25 and 0.05 (a burst
        // longer than the penalty), and 80 banks, past the agreement
        // mask. The warm-up burst leaves banks open on victim rows.
        const MIB: u64 = 1 << 20;
        let paper = DramConfig::paper_default();
        let with = |banks, pen| DramConfig {
            banks_per_channel: banks,
            row_miss_penalty: pen,
            ..paper
        };
        let mut rng = SimRng::new(0xE5E6);
        for cfg in [with(16, 2), paper, with(16, 400), with(80, 40)] {
            let row_lines = cfg.row_bytes / 64;
            for scales in [&[][..], &[(1, 0.25), (3, 0.05)][..]] {
                for n in [145u64, 300, 2_000] {
                    for offset in 0..4u64 {
                        let start = 64 * MIB + (rng.next_below(1 << 10) * row_lines + offset) * 64;
                        let victim = start - (1 + rng.next_below(16)) * 2 * MIB;
                        let lead = [0, 90, 700][rng.next_below(3) as usize];
                        let mut events = vec![Ev::Fill(PhysAddr(start - lead * 64), lead)];
                        events.push(Ev::Evict(PhysAddr(start), PhysAddr(victim), n));
                        events.push(Ev::Fill(PhysAddr(start + n * 64), 300));
                        let (b2, v2) = (start + (n + 300) * 64, victim + (n + 300) * 64);
                        events.push(Ev::Evict(PhysAddr(b2), PhysAddr(v2), 150));
                        let open = rng.next_below(2) == 0;
                        let warm = if open {
                            (PhysAddr(victim), 4 * row_lines)
                        } else {
                            (PhysAddr(rng.next_below(1 << 18) * 64), 1_000)
                        };
                        let ctx = format!(
                            "{cfg:?} {scales:?} {n} pairs at {offset}, lead {lead}, open {open}"
                        );
                        batch_both(cfg, scales, warm, &events, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn memory_pass_work_is_closed_form_at_paper_geometry() {
        // A fill run, a same-bank eviction run and a fill run on the
        // paper SoC: every segment is one closed-form step, with no
        // line or pair priced on its own.
        const MIB: u64 = 1 << 20;
        let base = 64 * MIB;
        let events = [
            Ev::Fill(PhysAddr(base), 3_000),
            Ev::Evict(
                PhysAddr(base + 3_000 * 64),
                PhysAddr(base + 3_000 * 64 - 8 * MIB),
                2_000,
            ),
            Ev::Fill(PhysAddr(base + 5_000 * 64), 200),
        ];
        let (mut fast, mut refm) = (model(), model());
        let a = run_batch(&mut fast, 100, 144, &events);
        let b = emulate_gated(&mut refm, 100, 144, &events);
        assert_eq!(a, b);
        assert_same(&fast, &refm, "scripted batch");
        let work = fast.scratch.work;
        assert_eq!(
            (work.lines, work.pairs, work.fallback),
            (0, 0, 0),
            "{work:?}"
        );
        assert!(work.closed > 0, "{work:?}");

        // Gates that bind (the large-CAS SoC of
        // `line_batch_gates_throttle_when_window_fills`, with a window
        // that holds a row): segments fall back to exact walks.
        let cfg = DramConfig {
            channels: 1,
            banks_per_channel: 2,
            row_bytes: 2048,
            bytes_per_cycle: 64.0,
            row_miss_penalty: 4,
            cas_latency: 500,
        };
        let events = [
            Ev::Fill(PhysAddr(0), 400),
            Ev::Evict(PhysAddr(400 * 64), PhysAddr(400 * 64 + 100 * 2048), 100),
            Ev::Fill(PhysAddr(600 * 64), 100),
        ];
        let (mut fast, mut refm) = (DramModel::new(cfg, 64), DramModel::new(cfg, 64));
        let a = run_batch(&mut fast, 0, 64, &events);
        let b = emulate_gated(&mut refm, 0, 64, &events);
        assert_eq!(a, b);
        assert_same(&fast, &refm, "binding gates");
        let work = fast.scratch.work;
        assert!(work.fallback > 0 && work.lines > 0, "{work:?}");
    }

    /// Runs one [`LineBatch`] tape on the batched twin and the gated
    /// per-line emulation on the reference twin, asserting they agree.
    fn batch_pair(pair: &mut (DramModel, DramModel), now: Cycle, events: &[Ev], ctx: &str) {
        let a = run_batch(&mut pair.0, now, 144, events);
        let b = emulate_gated(&mut pair.1, now, 144, events);
        assert_eq!(a, b, "finish diverged: {ctx}");
        assert_same(&pair.0, &pair.1, ctx);
    }

    #[test]
    fn shared_bank_steps_match_reference_exactly() {
        // Bursts that update banks once for all channels, on one model
        // pair with `LineBatch` tapes between them that leave the
        // channels' banks apart: short runs of 1-16 whole rows, bursts
        // starting or ending within three lines of a row boundary (their
        // edge segments reach fewer channels than exist), delayed and
        // idle re-reads, fill runs, eviction runs and lone writebacks.
        // Rows come from a small pool, so bursts reopen or re-read rows
        // the tapes left open.
        const MIB: u64 = 1 << 20;
        let paper = DramConfig::paper_default();
        let with = |channels, banks| DramConfig {
            channels,
            banks_per_channel: banks,
            ..paper
        };
        let mut rng = SimRng::new(0x5A4E);
        // Three channels split no row evenly (no row runs, only edge
        // segments); 64 banks fill the mask; 80 leave it empty.
        for cfg in [paper, with(3, 16), with(4, 64), with(4, 80), with(2, 4)] {
            let row_lines = cfg.row_bytes / 64;
            for scales in [&[][..], &[(1, 0.5)][..]] {
                let mut pair = twins(cfg, 64);
                for &(c, s) in scales {
                    pair.0.set_channel_bandwidth_scale(c, s);
                    pair.1.set_channel_bandwidth_scale(c, s);
                }
                // A fill run that re-reads a lap of rows a burst left
                // open (all hits, so its walk writes none of their
                // banks) and prices the rows after them in closed form
                // on the same banks; then one single-row burst per bank.
                let (nb, r0) = (u64::from(cfg.banks_per_channel), 4096);
                let lap = PhysAddr(r0 * cfg.row_bytes);
                burst_both(&mut pair, 0, lap, nb * row_lines, 0, "open a lap");
                let fill = [Ev::Fill(lap, (nb + 24) * row_lines + 144)];
                batch_pair(&mut pair, 100, &fill, "fill over open rows");
                let mut now = pair.0.earliest_free();
                for b in 0..nb {
                    let at = PhysAddr((r0 + 8 * nb + b) * cfg.row_bytes);
                    burst_both(&mut pair, now, at, row_lines, 0, "one row per bank");
                }
                for step in 0..120u64 {
                    now += rng.next_below(4_000);
                    let row = 1024 + rng.next_below(48);
                    let at = |line: u64| PhysAddr(row * cfg.row_bytes + line * 64);
                    let ctx = format!("{cfg:?} {scales:?} step {step}");
                    match step % 6 {
                        0 | 1 => {
                            let rows = 1 + rng.next_below(16);
                            burst_both(&mut pair, now, at(0), rows * row_lines, 0, &ctx);
                        }
                        2 => {
                            let edge = rng.next_below(4);
                            let (head, tail) = if rng.next_below(2) == 0 {
                                (edge, rng.next_below(row_lines))
                            } else {
                                (row_lines - edge, rng.next_below(4))
                            };
                            let lines = rng.next_below(12) * row_lines + tail;
                            burst_both(&mut pair, now, at(head), lines, 0, &ctx);
                        }
                        3 => {
                            // Bank-side waits: a delayed burst, then one
                            // trailing it; or an idle re-read of open rows.
                            let lines = (1 + rng.next_below(20)) * row_lines;
                            if rng.next_below(2) == 0 {
                                burst_both(&mut pair, now, at(0), lines, 30_000, &ctx);
                                burst_both(&mut pair, now + 10, at(3), lines, 0, &ctx);
                            } else {
                                now = pair.0.earliest_free() + 10_000;
                                burst_both(&mut pair, now, at(0), lines, 0, &ctx);
                            }
                        }
                        _ => {
                            let base = row * cfg.row_bytes + rng.next_below(row_lines) * 64;
                            let fill = [1, 90, 400, 1_400][rng.next_below(4) as usize];
                            let pairs = 1 + rng.next_below(300);
                            // Victims one MiB below share their fill's
                            // channel and bank; others land anywhere.
                            let victim = if step % 2 == 0 {
                                base - MIB
                            } else {
                                rng.next_below(1 << 18) * 64
                            };
                            let events = [
                                Ev::Wb(PhysAddr(row * cfg.row_bytes + 64 * 5)),
                                Ev::Fill(PhysAddr(base), fill),
                                Ev::Evict(
                                    PhysAddr(base + (fill + 3) * 64),
                                    PhysAddr(victim + (fill + 3) * 64),
                                    pairs,
                                ),
                                Ev::Wb(PhysAddr(victim)),
                            ];
                            batch_pair(&mut pair, now, &events, &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shared_laps_keep_each_channels_own_burst() {
        // A lap of banks updated once still prices each channel's
        // horizon at its own burst. Paper geometry: a lap of rows is
        // 16 × 8 × 2.5 = 320 cycles on a nominal channel.
        let paper = DramConfig::paper_default();
        let row_lines = paper.row_bytes / 64;
        // Penalty 330: channel 2 at half bandwidth covers it (640
        // cycles a lap), the nominal ones do not, so every channel must
        // walk past the lap. Penalty 40: all three shapes share.
        for pen in [330, 40] {
            let cfg = DramConfig {
                row_miss_penalty: pen,
                ..paper
            };
            let mut pair = twins(cfg, 64);
            let mut now = 0;
            for (scale, rows) in [(0.5, 40), (0.5, 9), (1.0, 40), (0.5, 3), (1.0, 16)] {
                pair.0.set_channel_bandwidth_scale(2, scale);
                pair.1.set_channel_bandwidth_scale(2, scale);
                let ctx = format!("penalty {pen}, scale {scale}, {rows} rows");
                // From idle, then behind banks left busy far ahead (the
                // lap's bank terms bind), then an idle re-read.
                let a = PhysAddr(300 * paper.row_bytes);
                burst_both(&mut pair, now, a, rows * row_lines, 0, &ctx);
                burst_both(
                    &mut pair,
                    now,
                    a.offset(rows * paper.row_bytes),
                    rows * row_lines,
                    200_000,
                    &ctx,
                );
                burst_both(&mut pair, now + 1, a, 2 * rows * row_lines, 0, &ctx);
                now = pair.0.earliest_free() + 5_000;
                burst_both(&mut pair, now, a, rows * row_lines, 0, &ctx);
            }
        }
    }
}
