//! The transparent (hardware-managed) cache path.
//!
//! This is the conventional set-associative lookup used (a) by CPU
//! traffic, (b) by all NPU traffic in the *baseline* systems the paper
//! compares against, where the shared cache is not NPU-controlled. Cache
//! contention between co-located DNNs — the motivation experiment of
//! Fig. 2 — emerges from this path: tasks evict each other's lines.
//!
//! Way partitioning (Section III-B1) is modelled with a per-cache way
//! mask: a lookup is only allowed to hit/allocate in the ways enabled in
//! its mask, exactly like the way-mask register CaMDN adds to each slice.
//!
//! # SoA tag planes
//!
//! Per-way state is stored structure-of-arrays, not as packed per-way
//! words:
//!
//! * `tags` — one `u16` lane per way (`tags[group * ways + way]`),
//!   holding the line's tag, `line >> log2(groups)`; the set-group index
//!   `line & (groups − 1)` is implicit in the position. A range access
//!   asserts its last line's tag fits 16 bits, so the lanes cover
//!   `2^(16 + log2 groups)` lines
//!   ([`SharedCache::addressable_lines`]). At the paper geometry
//!   (16,384 set groups) that is 64 GiB — 64 of the runtime's 1 GiB
//!   task slabs, which are indexed by task id. A 4 MiB cache covers 16
//!   slabs, and the 256-tenant scaling study needs a 64 MiB cache.
//!   Halving the lane width halves the tag pass's largest plane and
//!   its per-touch memory traffic.
//! * `lru` — one packed `u64` **order word** per set: nibble `r` holds
//!   the way index at recency rank `r` (rank 0 = LRU). Exact LRU in
//!   8 bytes per set — an order of magnitude less plane traffic than
//!   the per-way stamp lane it replaced, and with no stamp clock there
//!   is no overflow and no periodic rank-compaction pass. The victim
//!   is the lowest-ranked allowed way; ranks of *occupied* ways always
//!   equal their last-touch order, so the choice is identical to a
//!   min-stamp scan.
//! * `meta` — one packed `u64` per **set**: the occupancy bitset (bit
//!   `w` = way `w` valid) in the low 16 bits, the dirty bitset above it,
//!   and the set's generation tag in the high 32 bits. One load serves
//!   the validity test, the dirtiness test and the staleness check, and
//!   the tag compare masks spurious matches from invalid ways with the
//!   occupancy bits instead of a sentinel tag value.
//!
//! Tag lanes of invalid ways hold stale garbage by design: `occ` is the
//! source of truth (invalid ways do keep a slot in the order word — the
//! permutation covers all ways — but their rank is never consulted).
//! The lane primitives live in [`geometry`](crate::geometry): the tag
//! compares — [`eq_mask_u16`] in the tag pass (an SSE2 movemask at 16
//! and 8 ways on x86-64, the crate's one `unsafe` block) and the
//! portable [`eq_mask`] in the per-line reference path — and the LRU
//! order-word helpers ([`lru_touch`], [`lru_victim`]).
//!
//! # Generation counters
//!
//! Each set's meta word carries a generation tag; a set is **live**
//! iff that tag equals `cur_gen`, otherwise it is *stale* — logically
//! empty, its tag/order/occupancy lanes all garbage. Invariants:
//!
//! * `cur_gen` only moves forward and starts at 1 over a zeroed meta
//!   plane, so a fresh cache is all stale; every flush
//!   (`invalidate_all`) bumps it, making every set stale in O(1)
//!   without touching the planes.
//! * A stale set is materialized lazily on first touch (occ/dirty reset,
//!   generation stamped), and the tag pass takes a no-scan fast path for
//!   it: a known-empty set allocates its first allowed way directly, so
//!   set-major walks after a flush never re-scan cold tags.
//! * Set-major maintenance walks ([`SharedCache::partition_ways`],
//!   [`SharedCache::state_fingerprint`]) skip stale sets outright.
//! * On the (never observed in practice) `u32` wrap of `cur_gen`, the
//!   generation plane is hard-reset so staleness stays unambiguous.
//!
//! # Batched range accesses
//!
//! [`SharedCache::access_range`] simulates a whole transfer in two
//! passes instead of one fused per-line loop:
//!
//! 1. a **tag pass** walks the tag planes once, applying LRU updates and
//!    collecting the transfer's outcome as a compact event tape of two
//!    kinds: *runs* of consecutive missing lines that evict nothing
//!    dirty (a cold multi-MB tensor is a *single* run), and *eviction
//!    runs* of consecutive missing lines whose dirty victims are
//!    consecutive lines too — line `start + i` evicts `victim + i`, as
//!    when one tenant streams over another's freshly written tensor
//!    through the same sets. The tape grows with the number of runs,
//!    never with the number of lines;
//! 2. a **memory pass** replays that tape through
//!    [`DramModel::line_batch`], which reproduces the MSHR-gated
//!    per-miss DRAM sequence in closed form wherever the gates provably
//!    cannot bind, and prices an eviction run in one fused walk
//!    ([`LineBatch::evict_run`](camdn_dram::LineBatch::evict_run)):
//!    each victim's posted writeback, then its line's gated fill.
//!
//! The tag pass also takes a **same-state step**. Every access is a
//! range over consecutive sets, so sets that saw the same range history
//! hold the same raw state — meta word, order word and tag lane alike.
//! Once a set is resolved, each following set whose state equals the
//! resolved set's state from before its touch gets the resolved set's
//! post-touch state by a plain copy, and the whole run folds into the
//! counters and the open tape event in O(1). On perfbench's
//! `contention` workload (16 tenants under the transparent Baseline)
//! 89.2% of tag-pass lines take this step (458.0M of 513.7M in one
//! `--seconds 0` run); `camdn_closed` and `serve_replay` run
//! CaMDN(Full) and make no tag-pass touches at all.
//!
//! The original fused per-line walk is retained as a reference model
//! ([`SharedCache::set_reference_model`]); differential tests here and
//! in `camdn` assert the two paths are bit-identical.

use crate::geometry::{
    eq_mask, eq_mask_u16, lru_identity, lru_promote, lru_rank_of, lru_touch, lru_victim,
    CacheGeometry,
};
use camdn_common::config::CacheConfig;
use camdn_common::stats::Counter;
use camdn_common::types::{Cycle, PhysAddr};
use camdn_dram::DramModel;
use serde::{Deserialize, Serialize};

/// Statistics of the transparent path.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Dirty victim lines written back to DRAM.
    pub writebacks: Counter,
    /// Lines filled from DRAM.
    pub fills: Counter,
}

impl CacheStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

/// Result of a range access on the transparent path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Cycle at which the whole range is available / written.
    pub finish: Cycle,
    /// Lines that hit in the cache.
    pub hits: u64,
    /// Lines that missed and were filled from DRAM.
    pub misses: u64,
    /// Dirty victims written back.
    pub writebacks: u64,
}

/// Outcome of one tag-plane touch.
enum Touch {
    Hit,
    /// Miss; carries the dirty victim's line index if one must be
    /// written back.
    Miss(Option<u64>),
}

/// One entry of the tag pass's event tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeEvent {
    /// `len` consecutive missing lines starting at line index `start`,
    /// none of which evicts a dirty line.
    Run { start: u64, len: u64 },
    /// `len` consecutive missing lines where line `start + i` evicts
    /// the dirty line `victim + i`: each posted writeback goes out just
    /// before its line's fill.
    Evict { start: u64, victim: u64, len: u64 },
}

/// Packs one set's metadata word: occupancy bitset in the low 16
/// bits, dirty bitset in the next 16, generation tag in the high 32.
/// One plane word carries all three, so a touch reads and writes a
/// single 8-byte lane for everything but tags and recency.
#[inline]
fn meta_pack(occ: u32, dirty: u32, gen: u32) -> u64 {
    debug_assert!(occ <= 0xFFFF && dirty <= 0xFFFF);
    u64::from(occ) | u64::from(dirty) << 16 | u64::from(gen) << 32
}

/// Occupancy bitset of a packed meta word.
#[inline]
fn meta_occ(m: u64) -> u32 {
    (m & 0xFFFF) as u32
}

/// Dirty bitset of a packed meta word.
#[inline]
fn meta_dirty(m: u64) -> u32 {
    (m >> 16) as u32 & 0xFFFF
}

/// Generation tag of a packed meta word.
#[inline]
fn meta_gen(m: u64) -> u32 {
    (m >> 32) as u32
}

/// Tag-pass accumulator: hit/miss/writeback counters plus the
/// run/eviction event tape under construction. Shared by the
/// vectorized segment pass and the scalar fallback so the two paths
/// cannot drift in how they fold touches into events.
struct TagAcc {
    hits: u64,
    misses: u64,
    wbs: u64,
    /// The open event covers lines `start..end` (none is open when
    /// `end == NONE`); when `evict` is set, line `l` of it evicted the
    /// dirty line `l - start + victim`, so the next one continuing it
    /// must evict `vend`.
    start: u64,
    end: u64,
    victim: u64,
    vend: u64,
    evict: bool,
    events: Vec<RangeEvent>,
}

impl TagAcc {
    /// `end` of an accumulator with no open event (no line index
    /// reaches it: every range asserts its tags fit 16 bits).
    const NONE: u64 = u64::MAX;

    fn new(events: Vec<RangeEvent>) -> Self {
        TagAcc {
            hits: 0,
            misses: 0,
            wbs: 0,
            start: 0,
            end: Self::NONE,
            victim: 0,
            vend: 0,
            evict: false,
            events,
        }
    }

    /// Pushes the open event, if any, onto the tape.
    #[inline]
    fn close(&mut self) {
        if self.end == Self::NONE {
            return;
        }
        let (start, len) = (self.start, self.end - self.start);
        self.events.push(if self.evict {
            RangeEvent::Evict {
                start,
                victim: self.victim,
                len,
            }
        } else {
            RangeEvent::Run { start, len }
        });
        self.end = Self::NONE;
    }

    /// Closes the open event and opens a 1-line one at `line`.
    fn open(&mut self, line: u64, victim: u64, evict: bool) {
        self.close();
        self.start = line;
        self.end = line + 1;
        self.victim = victim;
        self.vend = victim + 1;
        self.evict = evict;
    }

    #[inline]
    fn hit(&mut self) {
        self.hits += 1;
        self.close();
    }

    /// Folds a miss of `line` (evicting the dirty line `victim`, if
    /// any) into the open event when it continues it — the next line,
    /// of the same kind, and for evictions the next victim line too —
    /// and otherwise closes that event and opens a new one.
    #[inline]
    fn miss(&mut self, line: u64, victim: Option<u64>) {
        self.misses += 1;
        match victim {
            None if !self.evict && self.end == line => self.end += 1,
            None => self.open(line, 0, false),
            Some(v) => {
                self.wbs += 1;
                if self.evict && self.end == line && self.vend == v {
                    self.end += 1;
                    self.vend += 1;
                } else {
                    self.open(line, v, true);
                }
            }
        }
    }

    /// Folds `k` repeats of the last touch on the `k` lines after it
    /// (the tag pass's same-state step): what [`TagAcc::hit`] or
    /// [`TagAcc::miss`] would make of them one by one, in O(1). A hit
    /// leaves no event open and a miss always leaves one open, so the
    /// open event tells which the last touch was; a repeated miss
    /// extends it, and a repeated eviction evicts the victim line after
    /// the last one.
    #[inline]
    fn repeat(&mut self, k: u64) {
        if self.end == Self::NONE {
            self.hits += k;
            return;
        }
        self.misses += k;
        self.end += k;
        if self.evict {
            self.wbs += k;
            self.vend += k;
        }
    }
}

/// A sliced, set-associative, write-back/write-allocate shared cache.
///
/// See the module docs for the SoA plane layout and the
/// generation-counter invariants.
#[derive(Debug, Clone)]
pub struct SharedCache {
    geom: CacheGeometry,
    hit_latency: Cycle,
    lines_per_cycle: f64,
    /// Way-tag lanes, set-major: `tags[(line % groups) * ways + way]`.
    /// Consecutive lines walk this array sequentially (slices are the
    /// low-order index), which is what keeps the tag pass streaming.
    /// `u16` halves the hot pass's dominant plane traffic; every range
    /// access asserts its tags fit (see `assert_tag_fits`).
    tags: Vec<u16>,
    /// Per-set packed LRU order words (nibble `r` = way at recency
    /// rank `r`; see the geometry module's order-word docs).
    lru: Vec<u64>,
    /// Per-set packed meta words (`occ | dirty << 16 | gen << 32`,
    /// see [`meta_pack`]); the set is live iff its generation field
    /// equals `cur_gen`, and `dirty` is always a subset of `occ`.
    meta: Vec<u64>,
    cur_gen: u32,
    /// `ways` (stride from one set group to the next).
    set_stride: usize,
    /// `sets_per_slice * slices − 1`: line → set-group index mask.
    group_mask: u64,
    /// `log2(groups)`: line → tag shift.
    group_bits: u32,
    npu_way_mask: u16,
    stats: CacheStats,
    /// Reused tag-pass event tape (no per-call allocation).
    scratch: Vec<RangeEvent>,
    reference: bool,
}

impl SharedCache {
    /// Builds a cache from its configuration. Initially no ways are
    /// reserved for the NPU subspace (fully transparent baseline).
    pub fn new(cfg: &CacheConfig) -> Self {
        let geom = CacheGeometry::new(cfg);
        let ways = geom.ways as usize;
        let sets = geom.sets_per_slice as usize;
        let groups = geom.slices as usize * sets;
        SharedCache {
            geom,
            hit_latency: cfg.hit_latency,
            lines_per_cycle: cfg.lines_per_cycle,
            tags: vec![0; groups * ways],
            // Order words are rebuilt from the identity permutation when
            // a stale set materializes.
            lru: vec![0; groups],
            // Generation 0 in every meta word against `cur_gen = 1`:
            // every set starts stale.
            meta: vec![0; groups],
            cur_gen: 1,
            set_stride: ways,
            group_mask: groups as u64 - 1,
            group_bits: (groups as u64).trailing_zeros(),
            npu_way_mask: 0,
            stats: CacheStats::default(),
            scratch: Vec::new(),
            reference: false,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Accumulated statistics of the transparent path.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (cache contents survive).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Selects the fused per-line reference walk (`true`) or the batched
    /// two-pass walk (`false`, default) for range accesses. Both are
    /// bit-identical; the reference path exists for differential
    /// verification and as the throughput harness's baseline.
    pub fn set_reference_model(&mut self, reference: bool) {
        self.reference = reference;
    }

    /// True when the reference walk is selected.
    pub fn reference_model(&self) -> bool {
        self.reference
    }

    /// Bit mask over all ways.
    pub fn full_way_mask(&self) -> u16 {
        self.geom.full_way_mask()
    }

    /// Mask of ways reserved for the NPU subspace.
    pub fn npu_way_mask(&self) -> u16 {
        self.npu_way_mask
    }

    /// Mask of general-purpose (CPU-visible) ways.
    pub fn general_way_mask(&self) -> u16 {
        self.full_way_mask() & !self.npu_way_mask
    }

    /// Reserves `npu_ways` ways (the highest-numbered ones) for the NPU
    /// subspace, invalidating any lines they held. Dirty victims are
    /// written back through `dram` at time `now`.
    ///
    /// The flush walk is set-major and generation-skipped: sets
    /// untouched since the last flush are known-empty and not scanned.
    ///
    /// Returns the mask of reserved ways.
    pub fn partition_ways(&mut self, npu_ways: u32, now: Cycle, dram: &mut DramModel) -> u16 {
        assert!(
            npu_ways <= self.geom.ways,
            "cannot reserve more ways than exist"
        );
        let mask = self.geom.npu_way_mask(npu_ways);
        self.npu_way_mask = mask;
        if mask == 0 {
            return 0;
        }
        let clear = u32::from(mask);
        let groups = self.group_mask as usize + 1;
        for g in 0..groups {
            let m = self.meta[g];
            if meta_gen(m) != self.cur_gen {
                continue; // stale: nothing cached, nothing to flush
            }
            let base = g * self.set_stride;
            // Flush the reserved ways: the NEC takes raw ownership of
            // them. Writebacks go out in way order, as they always have.
            let mut flush = meta_occ(m) & meta_dirty(m) & clear;
            while flush != 0 {
                let w = flush.trailing_zeros();
                flush &= flush - 1;
                self.stats.writebacks.incr();
                // Reconstruct an address in the right channel set;
                // exact identity is irrelevant for timing.
                let line = (u64::from(self.tags[base + w as usize]) << self.group_bits) | g as u64;
                dram.access_burst(now, PhysAddr(line * self.geom.line_bytes), 1, true, 0);
            }
            self.meta[g] = meta_pack(meta_occ(m) & !clear, meta_dirty(m) & !clear, self.cur_gen);
        }
        mask
    }

    /// Number of line indices the `u16` tag lanes can hold,
    /// `2^(16 + log2 groups)`: 64 GiB of address space at the paper
    /// geometry, 16 GiB at 4 MiB. A transparent access to a line at or
    /// past it panics, so callers check their address span against it
    /// up front.
    pub fn addressable_lines(&self) -> u64 {
        (u64::from(u16::MAX) + 1) << self.group_bits
    }

    /// Every range access asserts its tags fit the `u16` lanes: its
    /// last line must lie below [`SharedCache::addressable_lines`].
    #[inline]
    fn assert_tag_fits(&self, last_line: u64) {
        assert!(
            last_line < self.addressable_lines(),
            "address range exceeds the 16-bit tag lanes of this geometry"
        );
    }

    /// Plane-invariant housekeeping hook, called by the engine at
    /// scheduling epochs. Never changes simulated results. The packed
    /// LRU order words need no periodic maintenance (unlike the stamp
    /// plane they replaced, which had to be rank-compacted here before
    /// its 32-bit offset overflowed), so in release builds this is
    /// free; debug builds take the opportunity to sweep the live sets'
    /// structural invariants.
    pub fn on_epoch(&mut self) {
        #[cfg(debug_assertions)]
        self.debug_check_planes();
    }

    /// Sweeps every live set's plane invariants: `dirty ⊆ occ`, both
    /// within the real ways, and the LRU order word a permutation of
    /// `0..ways` with zero upper nibbles.
    #[cfg(debug_assertions)]
    fn debug_check_planes(&self) {
        let ways = self.set_stride as u32;
        let full = u32::from(self.full_way_mask());
        for g in 0..=self.group_mask as usize {
            let m = self.meta[g];
            if meta_gen(m) != self.cur_gen {
                continue;
            }
            debug_assert_eq!(meta_occ(m) & !full, 0, "occ outside real ways: set {g}");
            debug_assert_eq!(meta_dirty(m) & !meta_occ(m), 0, "dirty ⊄ occ: set {g}");
            let mut seen = 0u32;
            let mut o = self.lru[g];
            for _ in 0..ways {
                seen |= 1 << (o & 0xF);
                o >>= 4;
            }
            debug_assert_eq!(o, 0, "upper order nibbles not zero: set {g}");
            debug_assert_eq!(seen, full, "order word not a permutation: set {g}");
        }
    }

    /// Tag lookup and update for one line within its set — the single
    /// source of truth for hit/replacement semantics; both the batched
    /// and the reference paths run it.
    ///
    /// Hit rule: first way in way order with `tag match ∧ occupied ∧
    /// allowed` wins (a matching way outside the mask is skipped).
    /// Victim rule: the first invalid allowed way in way order, else
    /// the lowest-ranked allowed way of the set's LRU order word —
    /// occupied ways rank in last-touch order, so this is exactly the
    /// min-stamp LRU rule. Every touched way is promoted to the MRU
    /// rank.
    #[inline]
    fn touch(&mut self, line: u64, is_write: bool, mask: u32) -> Touch {
        debug_assert!(mask != 0, "empty way mask");
        let ways = self.set_stride as u32;
        let g = (line & self.group_mask) as usize;
        let tag = (line >> self.group_bits) as u16;
        let base = g * self.set_stride;
        let wr = u32::from(is_write);
        let m = self.meta[g];
        if meta_gen(m) != self.cur_gen {
            // Stale since the last flush: known-empty, no tag scan —
            // materialize and allocate the first allowed way directly.
            let w = mask.trailing_zeros();
            self.tags[base + w as usize] = tag;
            self.lru[g] = lru_touch(lru_identity(ways), w, ways);
            self.meta[g] = meta_pack(1 << w, wr << w, self.cur_gen);
            return Touch::Miss(None);
        }
        let occ = meta_occ(m);
        let dirty = meta_dirty(m);
        let lanes = &self.tags[base..base + self.set_stride];
        let hits = eq_mask(lanes, tag) & occ & mask;
        if hits != 0 {
            let w = hits.trailing_zeros();
            self.lru[g] = lru_touch(self.lru[g], w, ways);
            self.meta[g] = m | u64::from(wr << w) << 16;
            return Touch::Hit;
        }
        let invalid = !occ & mask;
        let (w, rank) = if invalid != 0 {
            let w = invalid.trailing_zeros();
            (w, lru_rank_of(self.lru[g], w))
        } else {
            lru_victim(self.lru[g], mask)
        };
        let wi = base + w as usize;
        let wb = if invalid == 0 && (dirty >> w) & 1 != 0 {
            Some((u64::from(self.tags[wi]) << self.group_bits) | g as u64)
        } else {
            None
        };
        self.tags[wi] = tag;
        self.lru[g] = lru_promote(self.lru[g], rank, w, ways);
        self.meta[g] = meta_pack(occ | 1 << w, (dirty & !(1 << w)) | wr << w, self.cur_gen);
        Touch::Miss(wb)
    }

    /// Scalar tag pass: per-line [`SharedCache::touch`] calls folded
    /// into `acc`. The fallback for ways counts with no monomorphized
    /// lane width.
    fn tag_pass_scalar(
        &mut self,
        first: u64,
        last: u64,
        is_write: bool,
        mask: u32,
        acc: &mut TagAcc,
    ) {
        for line in first..=last {
            match self.touch(line, is_write, mask) {
                Touch::Hit => acc.hit(),
                Touch::Miss(victim) => acc.miss(line, victim),
            }
        }
    }

    /// Monomorphized segment tag pass — the vectorized hot path.
    ///
    /// Consecutive lines map to consecutive set groups (the group index
    /// is the line's low bits), so the range is walked as contiguous
    /// group segments split only at the group-index wrap. Within a
    /// segment `as_chunks_mut::<N>` exposes each set's tag lane as a
    /// fixed `[u16; N]`, which is what lets the compare
    /// ([`eq_mask_u16`]: an SSE2 movemask at 16 and 8 ways on x86-64)
    /// and the same-state check below run as vector code. The stored
    /// tag (`line >> group_bits`) is constant across a segment and
    /// hoisted, as is the order word a stale set materializes with (the
    /// mask's first way promoted over the identity permutation).
    ///
    /// **Same-state step.** After a set is resolved, each following set
    /// of the segment whose raw state (meta word, order word, tag lane)
    /// equals the resolved set's state from *before* its touch takes
    /// that set's post-touch state outright, and the run of `k` such
    /// sets folds into `acc` in O(1) ([`TagAcc::repeat`]). This is
    /// exact: a touch's outcome and post-touch state are a function of
    /// the raw pre-touch state, the tag, the mask, `is_write` and
    /// `cur_gen` alone — and a segment never crosses the group-index
    /// wrap, where the tag changes. A dirty victim's tag is part of the
    /// shared state, so the `k` repeats evict the `k` lines after the
    /// resolved set's victim and extend its eviction run.
    ///
    /// Precondition (checked by the caller): `N == set_stride`.
    /// Behavior is line-for-line identical to [`SharedCache::touch`] —
    /// the differential property tests hold the two paths together.
    fn tag_pass_n<const N: usize>(
        &mut self,
        first: u64,
        last: u64,
        is_write: bool,
        mask: u32,
        acc: &mut TagAcc,
    ) {
        debug_assert_eq!(self.set_stride, N);
        debug_assert!(mask != 0, "empty way mask");
        let groups = self.group_mask as usize + 1;
        let cur_gen = self.cur_gen;
        let wr = u32::from(is_write);
        let gb = self.group_bits;
        let ways = N as u32;
        let first_way = mask.trailing_zeros();
        let stale_order = lru_touch(lru_identity(ways), first_way, ways);
        let stale_meta = meta_pack(1 << first_way, wr << first_way, cur_gen);
        let mut line = first;
        while line <= last {
            let g0 = (line & self.group_mask) as usize;
            let seg = (groups - g0).min((last - line + 1) as usize);
            let tag = (line >> gb) as u16;
            // Touches set `g` (tag lane `ts`), returning its outcome.
            let resolve = |ts: &mut [u16; N], order: &mut u64, meta: &mut u64, g: usize| {
                let m = *meta;
                if meta_gen(m) != cur_gen {
                    // Stale since the last flush: known-empty, no tag
                    // scan — allocate the first allowed way directly.
                    ts[first_way as usize] = tag;
                    *order = stale_order;
                    *meta = stale_meta;
                    return Touch::Miss(None);
                }
                let occ = meta_occ(m);
                let hits = eq_mask_u16(ts, tag) & occ & mask;
                if hits != 0 {
                    let w = hits.trailing_zeros();
                    *order = lru_touch(*order, w, ways);
                    *meta = m | u64::from(wr << w) << 16;
                    return Touch::Hit;
                }
                let dirty = meta_dirty(m);
                let invalid = !occ & mask;
                let (w, rank) = if invalid != 0 {
                    let w = invalid.trailing_zeros();
                    (w, lru_rank_of(*order, w))
                } else {
                    lru_victim(*order, mask)
                };
                let victim = if invalid == 0 && (dirty >> w) & 1 != 0 {
                    Some((u64::from(ts[w as usize]) << gb) | g as u64)
                } else {
                    None
                };
                ts[w as usize] = tag;
                *order = lru_promote(*order, rank, w, ways);
                *meta = meta_pack(occ | 1 << w, (dirty & !(1 << w)) | wr << w, cur_gen);
                Touch::Miss(victim)
            };
            let (tag_sets, _) = self.tags[g0 * N..(g0 + seg) * N].as_chunks_mut::<N>();
            let orders = &mut self.lru[g0..g0 + seg];
            let metas = &mut self.meta[g0..g0 + seg];
            let mut i = 0;
            while i < seg {
                let (ts, order, meta) = (&mut tag_sets[i], &mut orders[i], &mut metas[i]);
                let (pre_meta, pre_order, pre_ts) = (*meta, *order, *ts);
                match resolve(ts, order, meta, g0 + i) {
                    Touch::Hit => acc.hit(),
                    Touch::Miss(victim) => acc.miss(line + i as u64, victim),
                }
                let (post_meta, post_order, post_ts) = (*meta, *order, *ts);
                let rest = metas[i + 1..]
                    .iter_mut()
                    .zip(orders[i + 1..].iter_mut())
                    .zip(tag_sets[i + 1..].iter_mut());
                let mut k = 0;
                for ((meta, order), ts) in rest {
                    if *meta != pre_meta || *order != pre_order || *ts != pre_ts {
                        break;
                    }
                    *meta = post_meta;
                    *order = post_order;
                    *ts = post_ts;
                    k += 1;
                }
                acc.repeat(k as u64);
                i += 1 + k;
            }
            line += seg as u64;
        }
    }

    /// Tag lookup and update for one line: returns `(hit, writeback)`,
    /// updating statistics (the reference path's per-line primitive).
    fn touch_line(
        &mut self,
        addr: PhysAddr,
        is_write: bool,
        way_mask: u16,
    ) -> (bool, Option<PhysAddr>) {
        let line = addr.line_index(self.geom.line_bytes);
        self.assert_tag_fits(line);
        match self.touch(line, is_write, u32::from(way_mask)) {
            Touch::Hit => {
                self.stats.hits.incr();
                (true, None)
            }
            Touch::Miss(victim) => {
                self.stats.misses.incr();
                // Conventional write-allocate: write misses fetch the
                // line first (read-for-ownership). Avoiding that fetch is
                // exactly what the NEC's explicit cache-write /
                // bypass-write semantics provide.
                self.stats.fills.incr();
                let wb = victim.map(|line| {
                    self.stats.writebacks.incr();
                    PhysAddr(line * self.geom.line_bytes)
                });
                (false, wb)
            }
        }
    }

    /// Looks up a single line; fills on miss (write misses fetch the
    /// line first) and writes back dirty victims. Returns the completion
    /// cycle and whether it hit.
    pub fn access_line(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        is_write: bool,
        way_mask: u16,
        dram: &mut DramModel,
    ) -> (Cycle, bool) {
        let (hit, wb) = self.touch_line(addr, is_write, way_mask);
        if hit {
            return (now + self.hit_latency, true);
        }
        if let Some(victim_addr) = wb {
            dram.access_burst(now, victim_addr, 1, true, 0);
        }
        let fill_done = dram.access_burst(now, addr.line_base(self.geom.line_bytes), 1, false, 0);
        (fill_done + self.hit_latency, false)
    }

    /// Outstanding demand-miss window of the transparent path (total
    /// MSHRs across slices). Explicitly-managed NEC transfers are bulk
    /// DMA and do not pass through this window — one of the structural
    /// advantages of NPU-controlled regions.
    pub const MSHR_WINDOW: usize = 144;

    /// Cache port service time for `lines` line transfers: the slices
    /// collectively serve `slices * lines_per_cycle` lines per cycle.
    #[inline]
    fn port_cycles(&self, lines: u64) -> Cycle {
        (lines as f64 / (f64::from(self.geom.slices) * self.lines_per_cycle)).ceil() as Cycle
    }

    /// Accesses a contiguous byte range through the transparent path.
    ///
    /// Demand misses are limited to [`SharedCache::MSHR_WINDOW`]
    /// outstanding fills: miss `k` cannot issue before miss
    /// `k − WINDOW` completes. By Little's law the achievable miss
    /// bandwidth is `WINDOW · line / latency`, so DRAM queueing delays
    /// under multi-tenant contention directly throttle fill throughput —
    /// the latency-bandwidth spiral that makes transparent caches
    /// inefficient for co-located DNNs.
    pub fn access_range(
        &mut self,
        now: Cycle,
        base: PhysAddr,
        bytes: u64,
        is_write: bool,
        way_mask: u16,
        dram: &mut DramModel,
    ) -> RangeOutcome {
        if self.reference {
            self.access_range_reference(now, base, bytes, is_write, way_mask, dram)
        } else {
            self.access_range_batched(now, base, bytes, is_write, way_mask, dram)
        }
    }

    /// Batched implementation of [`SharedCache::access_range`]: one tag
    /// pass builds the miss-run/eviction-run event tape, one memory pass
    /// replays it through [`DramModel::line_batch`].
    fn access_range_batched(
        &mut self,
        now: Cycle,
        base: PhysAddr,
        bytes: u64,
        is_write: bool,
        way_mask: u16,
        dram: &mut DramModel,
    ) -> RangeOutcome {
        if bytes == 0 {
            return RangeOutcome {
                finish: now,
                ..RangeOutcome::default()
            };
        }
        let lb = self.geom.line_bytes;
        let first = base.line_index(lb);
        let last = base.offset(bytes - 1).line_index(lb);
        self.assert_tag_fits(last);
        let lines = last - first + 1;
        let mask = u32::from(way_mask);

        // --- tag pass -------------------------------------------------
        let mut events = std::mem::take(&mut self.scratch);
        events.clear();
        let mut acc = TagAcc::new(events);
        match self.set_stride {
            16 => self.tag_pass_n::<16>(first, last, is_write, mask, &mut acc),
            8 => self.tag_pass_n::<8>(first, last, is_write, mask, &mut acc),
            4 => self.tag_pass_n::<4>(first, last, is_write, mask, &mut acc),
            2 => self.tag_pass_n::<2>(first, last, is_write, mask, &mut acc),
            1 => self.tag_pass_n::<1>(first, last, is_write, mask, &mut acc),
            _ => self.tag_pass_scalar(first, last, is_write, mask, &mut acc),
        }
        acc.close();
        let TagAcc {
            hits,
            misses,
            wbs,
            events,
            ..
        } = acc;
        self.stats.hits.add(hits);
        self.stats.misses.add(misses);
        self.stats.fills.add(misses);
        self.stats.writebacks.add(wbs);

        // --- memory pass ---------------------------------------------
        let mut batch = dram.line_batch(now, Self::MSHR_WINDOW, misses);
        for ev in &events {
            match *ev {
                RangeEvent::Run { start, len } => batch.fill_run(PhysAddr(start * lb), len),
                RangeEvent::Evict { start, victim, len } => {
                    batch.evict_run(PhysAddr(start * lb), PhysAddr(victim * lb), len)
                }
            }
        }
        let mut finish = batch.finish();
        self.scratch = events;

        finish = finish.max(now + self.hit_latency + self.port_cycles(lines));
        RangeOutcome {
            finish,
            hits,
            misses,
            writebacks: wbs,
        }
    }

    /// Reference implementation of [`SharedCache::access_range`]: the
    /// original fused per-line walk, one tag probe and one DRAM burst
    /// call per line. Kept as the differential baseline.
    pub fn access_range_reference(
        &mut self,
        now: Cycle,
        base: PhysAddr,
        bytes: u64,
        is_write: bool,
        way_mask: u16,
        dram: &mut DramModel,
    ) -> RangeOutcome {
        if bytes == 0 {
            return RangeOutcome {
                finish: now,
                ..RangeOutcome::default()
            };
        }
        let lb = self.geom.line_bytes;
        let first = base.line_index(lb);
        let last = base.offset(bytes - 1).line_index(lb);
        let mut out = RangeOutcome {
            finish: now,
            ..RangeOutcome::default()
        };
        let mut ring = [0 as Cycle; Self::MSHR_WINDOW];
        let mut miss_no = 0usize;
        for line in first..=last {
            let addr = PhysAddr(line * lb);
            let (hit, wb) = self.touch_line(addr, is_write, way_mask);
            if hit {
                out.hits += 1;
                continue;
            }
            out.misses += 1;
            if let Some(victim_addr) = wb {
                // Posted write: occupies a channel but no MSHR.
                out.writebacks += 1;
                dram.access_burst(now, victim_addr, 1, true, 0);
            }
            // Read misses and write misses (read-for-ownership) both
            // occupy an MSHR for the fill.
            let slot = miss_no % Self::MSHR_WINDOW;
            let gate = if miss_no >= Self::MSHR_WINDOW {
                ring[slot].max(now)
            } else {
                now
            };
            let done = dram.access_burst(gate, addr, 1, false, 0);
            ring[slot] = done;
            miss_no += 1;
            out.finish = out.finish.max(done);
        }
        let lines = last - first + 1;
        out.finish = out
            .finish
            .max(now + self.hit_latency + self.port_cycles(lines));
        out
    }

    /// Accesses a range on behalf of a multicast group of `reps` NPUs
    /// running the same model: the range is walked **once**, and the
    /// `reps − 1` replica fetches are charged in closed form. Replicas
    /// hit the lines the first walk brought in — each replica costs one
    /// more pass over the cache port, no tag churn. When the range
    /// exceeds the allowed ways' capacity the first walk self-evicts its
    /// head, so the non-resident head lines are charged to each replica
    /// as straight DRAM re-fetches (they would only self-evict again if
    /// allocated).
    ///
    /// This replaces the thundering-herd model where every replica
    /// re-walked the whole range through the tag array.
    #[allow(clippy::too_many_arguments)]
    pub fn access_range_multicast(
        &mut self,
        now: Cycle,
        base: PhysAddr,
        bytes: u64,
        is_write: bool,
        way_mask: u16,
        dram: &mut DramModel,
        reps: u32,
    ) -> RangeOutcome {
        let out = self.access_range(now, base, bytes, is_write, way_mask, dram);
        if reps <= 1 || bytes == 0 {
            return out;
        }
        let lb = self.geom.line_bytes;
        let lines = base.offset(bytes - 1).line_index(lb) - base.line_index(lb) + 1;
        // At most this many lines of the range survive the first walk:
        // one line per allowed way per set group.
        let allowed_ways = u64::from((way_mask & self.full_way_mask()).count_ones());
        let capacity = (self.group_mask + 1) * allowed_ways;
        let resident = lines.min(capacity);
        let evicted = lines - resident;
        let replicas = u64::from(reps - 1);
        self.stats.hits.add(resident * replicas);
        let mut finish = out
            .finish
            .max(now + self.hit_latency + u64::from(reps) * self.port_cycles(lines));
        if evicted > 0 {
            // Each replica re-fetches the self-evicted head from DRAM
            // (one bulk burst per replica, still no tag walk).
            self.stats.misses.add(evicted * replicas);
            for _ in 1..reps {
                finish = finish.max(dram.access_burst(now, base, evicted, false, 0));
            }
        }
        RangeOutcome {
            finish,
            hits: out.hits + resident * replicas,
            misses: out.misses + evicted * replicas,
            ..out
        }
    }

    /// True if the line holding `addr` is present (test/diagnostic aid).
    pub fn probe(&self, addr: PhysAddr, way_mask: u16) -> bool {
        let line = addr.line_index(self.geom.line_bytes);
        let g = (line & self.group_mask) as usize;
        let m = self.meta[g];
        if meta_gen(m) != self.cur_gen {
            return false; // stale set: logically empty
        }
        let wide = line >> self.group_bits;
        if wide > u64::from(u16::MAX) {
            return false; // unrepresentable tags can never be cached
        }
        let base = g * self.set_stride;
        let lanes = &self.tags[base..base + self.set_stride];
        eq_mask(lanes, wide as u16) & meta_occ(m) & u32::from(way_mask) != 0
    }

    /// Invalidates the whole cache without writebacks (test aid). O(1):
    /// bumping the generation makes every set stale.
    pub fn invalidate_all(&mut self) {
        match self.cur_gen.checked_add(1) {
            Some(g) => self.cur_gen = g,
            None => {
                self.meta.fill(0);
                self.cur_gen = 1;
            }
        }
    }

    /// Order- and content-sensitive digest of the full *logical* tag
    /// state (tags, validity, dirtiness, LRU recency order). Canonical
    /// over the physical encoding: stale sets and invalid ways
    /// contribute fixed values regardless of the garbage their lanes
    /// hold — the recency walk visits only occupied ways, in rank
    /// order, so where the invalid ways sit in the order word cannot
    /// influence the digest. Lets differential tests assert two caches
    /// evolved identically.
    #[doc(hidden)]
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        let groups = self.group_mask as usize + 1;
        for g in 0..groups {
            let m = self.meta[g];
            if meta_gen(m) != self.cur_gen {
                mix(0); // canonical empty set
                continue;
            }
            let occ = meta_occ(m);
            mix(u64::from(occ));
            mix(u64::from(meta_dirty(m)));
            let base = g * self.set_stride;
            // Occupied ways LRU→MRU: the logical recency order.
            let mut order = self.lru[g];
            for _ in 0..self.set_stride {
                let w = (order & 0xF) as usize;
                order >>= 4;
                if (occ >> w) & 1 != 0 {
                    mix(w as u64);
                    mix(u64::from(self.tags[base + w]));
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_common::config::DramConfig;
    use camdn_common::SimRng;

    fn setup() -> (SharedCache, DramModel) {
        let cfg = CacheConfig::paper_default();
        (
            SharedCache::new(&cfg),
            DramModel::new(DramConfig::paper_default(), cfg.line_bytes),
        )
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut d) = setup();
        let a = PhysAddr(0x1000);
        let (_, hit1) = c.access_line(0, a, false, c.full_way_mask(), &mut d);
        let (_, hit2) = c.access_line(100, a, false, c.full_way_mask(), &mut d);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn hits_are_faster_than_misses() {
        let (mut c, mut d) = setup();
        let a = PhysAddr(0x2000);
        let (t_miss, _) = c.access_line(0, a, false, c.full_way_mask(), &mut d);
        let base = 1_000_000;
        let (t_hit, _) = c.access_line(base, a, false, c.full_way_mask(), &mut d);
        assert!(t_hit - base < t_miss, "{} !< {}", t_hit - base, t_miss);
    }

    #[test]
    fn lru_evicts_oldest() {
        let (mut c, mut d) = setup();
        let mask = c.full_way_mask();
        let geom = *c.geometry();
        // 17 lines mapping to the same (slice,set): stride = slices * sets * line.
        let stride = u64::from(geom.slices) * u64::from(geom.sets_per_slice) * geom.line_bytes;
        for i in 0..17u64 {
            c.access_line(i, PhysAddr(i * stride), false, mask, &mut d);
        }
        // Line 0 (oldest) must be gone; line 1..16 still present.
        assert!(!c.probe(PhysAddr(0), mask));
        assert!(c.probe(PhysAddr(stride), mask));
        assert!(c.probe(PhysAddr(16 * stride), mask));
    }

    #[test]
    fn way_mask_restricts_visibility() {
        let (mut c, mut d) = setup();
        let a = PhysAddr(0x40);
        let low_mask = 0x000F; // ways 0-3
        let high_mask = 0xFFF0; // ways 4-15
        c.access_line(0, a, false, low_mask, &mut d);
        assert!(c.probe(a, low_mask));
        assert!(
            !c.probe(a, high_mask),
            "line must not be visible in other ways"
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut c, mut d) = setup();
        let geom = *c.geometry();
        let mask = 0x0001; // single way -> immediate conflict
        let stride = u64::from(geom.slices) * u64::from(geom.sets_per_slice) * geom.line_bytes;
        c.access_line(0, PhysAddr(0), true, mask, &mut d); // dirty
        let wr_before = d.stats().write_bytes.get();
        c.access_line(10, PhysAddr(stride), false, mask, &mut d); // evicts
        assert_eq!(c.stats().writebacks.get(), 1);
        assert!(d.stats().write_bytes.get() > wr_before);
    }

    #[test]
    fn range_access_counts_lines() {
        let (mut c, mut d) = setup();
        let out = c.access_range(0, PhysAddr(0), 64 * 10, false, c.full_way_mask(), &mut d);
        assert_eq!(out.hits + out.misses, 10);
        assert_eq!(out.misses, 10);
        let out2 = c.access_range(
            out.finish,
            PhysAddr(0),
            64 * 10,
            false,
            c.full_way_mask(),
            &mut d,
        );
        assert_eq!(out2.hits, 10);
        assert!(
            out2.finish - out.finish < out.finish,
            "reuse must be faster"
        );
    }

    #[test]
    fn unaligned_range_touches_both_boundary_lines() {
        let (mut c, mut d) = setup();
        // 2 bytes straddling a line boundary -> 2 lines.
        let out = c.access_range(0, PhysAddr(63), 2, false, c.full_way_mask(), &mut d);
        assert_eq!(out.hits + out.misses, 2);
    }

    #[test]
    fn partition_flushes_npu_ways() {
        let (mut c, mut d) = setup();
        let a = PhysAddr(0x40);
        // Fill with full mask; line lands in some way.
        c.access_line(0, a, true, c.full_way_mask(), &mut d);
        let mask = c.partition_ways(12, 100, &mut d);
        assert_eq!(mask.count_ones(), 12);
        assert_eq!(c.general_way_mask().count_ones(), 4);
        // The line may or may not survive depending on its way, but it must
        // never be visible through the NPU mask after the flush.
        assert!(!c.probe(a, mask));
    }

    #[test]
    fn zero_byte_range_is_noop() {
        let (mut c, mut d) = setup();
        let out = c.access_range(5, PhysAddr(0), 0, false, c.full_way_mask(), &mut d);
        assert_eq!(out.finish, 5);
        assert_eq!(out.hits + out.misses, 0);
    }

    #[test]
    fn invalidate_all_is_a_generation_bump() {
        let (mut c, mut d) = setup();
        let mask = c.full_way_mask();
        let fresh_print = SharedCache::new(&CacheConfig::paper_default()).state_fingerprint();
        for i in 0..64u64 {
            c.access_line(i, PhysAddr(i * 64), i % 2 == 0, mask, &mut d);
        }
        assert!(c.probe(PhysAddr(0), mask));
        let gen_before = c.cur_gen;
        c.invalidate_all();
        assert_eq!(c.cur_gen, gen_before + 1, "O(1) generation bump");
        for i in 0..64u64 {
            assert!(!c.probe(PhysAddr(i * 64), mask), "line {i} must be gone");
        }
        // Logically empty — the canonical fingerprint ignores the stale
        // lanes, so the flushed cache digests like a truly fresh one.
        assert_eq!(fresh_print, c.state_fingerprint());
        // Re-access: everything misses again, with no phantom writebacks
        // from the discarded dirty lines.
        let wb_before = c.stats().writebacks.get();
        let out = c.access_range(0, PhysAddr(0), 64 * 64, false, mask, &mut d);
        assert_eq!(out.misses, 64);
        assert_eq!(c.stats().writebacks.get(), wb_before);
    }

    // --- batched vs reference differential ---------------------------

    fn assert_twin_state(
        fast: &(SharedCache, DramModel),
        refm: &(SharedCache, DramModel),
        ctx: &str,
    ) {
        assert_eq!(
            fast.0.state_fingerprint(),
            refm.0.state_fingerprint(),
            "tag state diverged: {ctx}"
        );
        assert_eq!(
            fast.1.state_fingerprint(),
            refm.1.state_fingerprint(),
            "dram state diverged: {ctx}"
        );
        let (fs, rs) = (fast.0.stats(), refm.0.stats());
        assert_eq!(fs.hits.get(), rs.hits.get(), "{ctx}");
        assert_eq!(fs.misses.get(), rs.misses.get(), "{ctx}");
        assert_eq!(fs.writebacks.get(), rs.writebacks.get(), "{ctx}");
        assert_eq!(fs.fills.get(), rs.fills.get(), "{ctx}");
        let (fd, rd) = (fast.1.stats(), refm.1.stats());
        assert_eq!(fd.total_bytes(), rd.total_bytes(), "{ctx}");
        assert_eq!(fd.requests.get(), rd.requests.get(), "{ctx}");
        assert_eq!(fd.row_hits.get(), rd.row_hits.get(), "{ctx}");
        assert_eq!(fd.row_misses.get(), rd.row_misses.get(), "{ctx}");
    }

    /// A batched cache and its per-line reference twin, each over its
    /// own DRAM model.
    fn twins(ccfg: CacheConfig, dcfg: DramConfig) -> [(SharedCache, DramModel); 2] {
        [false, true].map(|reference| {
            let mut twin = (
                SharedCache::new(&ccfg),
                DramModel::new(dcfg, ccfg.line_bytes),
            );
            twin.0.set_reference_model(reference);
            twin.1.set_reference_model(reference);
            twin
        })
    }

    /// Runs one range access on the batched twin `fast` and the
    /// reference twin `refm`, asserting they agree on the outcome and
    /// on all state afterwards.
    #[allow(clippy::too_many_arguments)]
    fn twin_access(
        fast: &mut (SharedCache, DramModel),
        refm: &mut (SharedCache, DramModel),
        now: Cycle,
        base: PhysAddr,
        bytes: u64,
        is_write: bool,
        mask: u16,
        ctx: &str,
    ) -> RangeOutcome {
        let a = fast
            .0
            .access_range(now, base, bytes, is_write, mask, &mut fast.1);
        let b = refm
            .0
            .access_range(now, base, bytes, is_write, mask, &mut refm.1);
        assert_eq!(a, b, "outcome diverged: {ctx}");
        assert_twin_state(fast, refm, ctx);
        a
    }

    /// Valid cache geometries of very different shapes, plus matching
    /// DRAM configs, for the property sweep.
    fn sweep_configs() -> Vec<(CacheConfig, DramConfig)> {
        let paper = CacheConfig::paper_default();
        vec![
            (paper, DramConfig::paper_default()),
            (
                CacheConfig {
                    total_bytes: 256 * 1024,
                    ways: 4,
                    npu_ways: 0,
                    slices: 2,
                    line_bytes: 64,
                    page_bytes: 8 * 1024,
                    ..paper
                },
                DramConfig {
                    channels: 2,
                    banks_per_channel: 4,
                    row_bytes: 512,
                    bytes_per_cycle: 32.0,
                    row_miss_penalty: 25,
                    cas_latency: 11,
                },
            ),
            (
                CacheConfig {
                    total_bytes: 1024 * 1024,
                    ways: 8,
                    npu_ways: 0,
                    slices: 4,
                    line_bytes: 32,
                    page_bytes: 16 * 1024,
                    ..paper
                },
                DramConfig {
                    channels: 1,
                    banks_per_channel: 2,
                    row_bytes: 256,
                    bytes_per_cycle: 7.3,
                    row_miss_penalty: 3,
                    cas_latency: 160, // gates really bind at this CAS
                },
            ),
        ]
    }

    #[test]
    fn property_sweep_batched_equals_reference() {
        // Property-style sweep: random (geometry, range, way-mask)
        // triples; the batched path must match the per-line reference on
        // outcome, statistics, tag state and DRAM state after every op.
        for (gi, (ccfg, dcfg)) in sweep_configs().into_iter().enumerate() {
            let mut rng = SimRng::new(0x5EED ^ gi as u64);
            let [mut fast, mut refm] = twins(ccfg, dcfg);
            let ways = ccfg.ways;
            // Footprint chosen to alias heavily (a few times the cache).
            let footprint = ccfg.total_bytes * 3;
            let mut now = 0;
            for op in 0..150 {
                let mask = loop {
                    let m = rng.next_below(1 << ways) as u16;
                    if m != 0 {
                        break m;
                    }
                };
                let base = PhysAddr(rng.next_below(footprint));
                // Mostly modest transfers, occasionally far beyond the
                // MSHR window to exercise the gated regime.
                let bytes = if rng.next_below(5) == 0 {
                    (200 + rng.next_below(400)) * ccfg.line_bytes
                } else {
                    rng.next_below(64 * ccfg.line_bytes)
                };
                let is_write = rng.next_below(3) == 0;
                now += rng.next_below(1000);
                let ctx = format!("geom {gi}, op {op}");
                twin_access(&mut fast, &mut refm, now, base, bytes, is_write, mask, &ctx);
            }
        }
    }

    #[test]
    fn streaming_cold_tensor_matches_reference() {
        // The motivating case: a cold multi-MB tensor streamed through
        // the paper cache — one giant miss run, far over the MSHR window.
        let (mut cf, mut df) = setup();
        let (mut cr, mut dr) = setup();
        cr.set_reference_model(true);
        dr.set_reference_model(true);
        let bytes = 3_500_000; // ~3.5 MB, > 54k lines
        let a = cf.access_range(7, PhysAddr(0), bytes, false, cf.full_way_mask(), &mut df);
        let b = cr.access_range(7, PhysAddr(0), bytes, false, cr.full_way_mask(), &mut dr);
        assert_eq!(a, b);
        assert_eq!(a.misses, bytes.div_ceil(64));
        assert_twin_state(&(cf, df), &(cr, dr), "cold stream");
    }

    #[test]
    fn dirty_eviction_stream_is_one_tape_event() {
        // One tenant writes a tensor, another streams a same-sized one
        // through the same sets: with a one-way mask a range one
        // allowed-ways capacity (`g` lines) away maps onto the same
        // sets, so every miss evicts the dirty line `g` lines below it.
        // The tape must stay O(runs) — not two events per line — and
        // the priced result must equal the per-line reference.
        let [mut fast, mut refm] = twins(CacheConfig::paper_default(), DramConfig::paper_default());
        let way0 = 1u16;
        let g = fast.0.group_mask + 1;
        let n = 4096; // lines per tensor, far over the MSHR window
        let h = n / 2;
        // (first line, lines, is_write); the last read evicts dirty
        // lines from two tensors, so its victim chain breaks halfway.
        let ops = [
            (0, n, true),
            (g, n, false),
            (2 * g, h, true),
            (3 * g + h, h, true),
            (4 * g, n, false),
        ];
        for (k, (first, lines, is_write)) in ops.into_iter().enumerate() {
            let (now, base, bytes) = (k as u64 * 5_000, PhysAddr(first * 64), lines * 64);
            let ctx = format!("op {k}");
            let a = twin_access(&mut fast, &mut refm, now, base, bytes, is_write, way0, &ctx);
            assert!(
                fast.0.scratch.len() <= 4,
                "tape holds {} events at op {k}",
                fast.0.scratch.len()
            );
            if k == 1 {
                assert_eq!(a.writebacks, n);
                assert_eq!(
                    fast.0.scratch,
                    [RangeEvent::Evict {
                        start: g,
                        victim: 0,
                        len: n,
                    }]
                );
            }
        }
        assert_eq!(
            fast.0.scratch,
            [
                RangeEvent::Evict {
                    start: 4 * g,
                    victim: 2 * g,
                    len: h,
                },
                RangeEvent::Evict {
                    start: 4 * g + h,
                    victim: 3 * g + h,
                    len: h,
                },
            ]
        );
    }

    /// One step of a scripted twin case.
    enum Step {
        /// A range access: `(first line, lines, is_write, way mask)`.
        Access(u64, u64, bool, u16),
        /// [`SharedCache::invalidate_all`].
        Invalidate,
        /// [`SharedCache::partition_ways`] reserving this many ways.
        Partition(u32),
    }

    #[test]
    fn same_state_boundaries_match_reference() {
        // Scripted cases for the tag pass's same-state step, each where
        // a run of identically-stated sets starts, breaks or must not
        // form. Every step is checked against the per-line reference.
        use Step::{Access, Invalidate, Partition};
        for (gi, (ccfg, dcfg)) in sweep_configs().into_iter().enumerate() {
            let g = ccfg.total_bytes / ccfg.line_bytes / u64::from(ccfg.ways);
            let full = CacheGeometry::new(&ccfg).full_way_mask();
            let half = ccfg.ways / 2;
            let low = (1u16 << half) - 1; // general ways after `Partition(half)`
            let n = g / 2;
            let cases: [(&str, Vec<Step>); 7] = [
                (
                    // Every set gets one dirty line, then the re-read
                    // hits in one run spanning the whole range.
                    "uniform re-read",
                    vec![Access(0, g, true, full), Access(0, g, false, full)],
                ),
                (
                    // One set touched beforehand in mid-range splits
                    // both the hit run and the later miss run.
                    "run broken mid-run",
                    vec![
                        Access(0, g, false, full),
                        Access(g + n, 1, false, full),
                        Access(0, g, false, full),
                        Access(2 * g, g, true, full),
                    ],
                ),
                (
                    // Way-1 reads break the way-0 sets' runs, but every
                    // miss still evicts the next dirty way-0 line.
                    "dirty chain across runs",
                    vec![
                        Access(0, n, true, 1),
                        Access(g + 3, 1, false, 2),
                        Access(g + 100, 1, false, 2),
                        Access(g + n - 7, 2, false, 2),
                        Access(g, n, false, 1),
                    ],
                ),
                (
                    // Sets `g - 100..g` and `0..200` hold the same state
                    // but see different tags across the wrap.
                    "group-index wrap",
                    vec![
                        Access(0, g, false, full),
                        Access(g - 100, 300, true, full),
                        Access(2 * g - 50, 100, false, full),
                    ],
                ),
                (
                    // Invalid lanes keep stale tags after the flush.
                    "after invalidate_all",
                    vec![
                        Access(0, 2 * g, true, full),
                        Access(5, 50, false, 0b0110),
                        Invalidate,
                        Access(0, g, false, 0b0101),
                        Access(g / 4, g, true, full),
                    ],
                ),
                (
                    // Reserved ways drop out of `occ` with their tags
                    // and order ranks left in place.
                    "after partition_ways",
                    vec![
                        Access(0, 2 * g, true, full),
                        Partition(half),
                        Access(0, g, false, low),
                        Access(n, g, true, 0b0001),
                        Access(0, 2 * g, false, low),
                    ],
                ),
                (
                    "partial way masks",
                    vec![
                        Access(0, g, false, 0b0110),
                        Access(g, g, true, 0b0100),
                        Access(2 * g, n, false, 0b1000),
                        Access(0, 3 * g, false, 0b0110),
                    ],
                ),
            ];
            for (name, steps) in cases {
                let [mut fast, mut refm] = twins(ccfg, dcfg);
                for (k, step) in steps.into_iter().enumerate() {
                    let ctx = format!("geom {gi}, {name}, step {k}");
                    let now = k as u64 * 50_000;
                    match step {
                        Access(first, lines, is_write, mask) => {
                            let (base, bytes) =
                                (PhysAddr(first * ccfg.line_bytes), lines * ccfg.line_bytes);
                            let out = twin_access(
                                &mut fast, &mut refm, now, base, bytes, is_write, mask, &ctx,
                            );
                            if name == "uniform re-read" && k == 1 {
                                assert_eq!(out.hits, g, "{ctx}");
                            }
                            if name == "dirty chain across runs" && k == 4 {
                                assert_eq!(out.writebacks, n, "{ctx}");
                                let one = RangeEvent::Evict {
                                    start: g,
                                    victim: 0,
                                    len: n,
                                };
                                assert_eq!(fast.0.scratch, [one], "{ctx}");
                            }
                        }
                        Invalidate => {
                            fast.0.invalidate_all();
                            refm.0.invalidate_all();
                            assert_twin_state(&fast, &refm, &ctx);
                        }
                        Partition(ways) => {
                            let a = fast.0.partition_ways(ways, now, &mut fast.1);
                            let b = refm.0.partition_ways(ways, now, &mut refm.1);
                            assert_eq!(a, b, "{ctx}");
                            assert_twin_state(&fast, &refm, &ctx);
                        }
                    }
                }
            }
        }
    }

    // --- SoA lanes vs scalar packed-meta oracle ----------------------

    /// The pre-SoA scalar model, verbatim: per-way `u64` tags with an
    /// `u64::MAX` invalid sentinel and packed
    /// `stamp << 2 | dirty << 1 | valid` meta words, scanned way by
    /// way. Used as an independent oracle for the lane-parallel path.
    struct ScalarOracle {
        tags: Vec<u64>,
        meta: Vec<u64>,
        stride: usize,
        group_mask: u64,
        clock: u64,
    }

    impl ScalarOracle {
        fn new(cfg: &CacheConfig) -> Self {
            let geom = CacheGeometry::new(cfg);
            let groups = geom.slices as usize * geom.sets_per_slice as usize;
            let ways = geom.ways as usize;
            ScalarOracle {
                tags: vec![u64::MAX; groups * ways],
                meta: vec![0; groups * ways],
                stride: ways,
                group_mask: groups as u64 - 1,
                clock: 0,
            }
        }

        /// `(hit, dirty_victim_line)` for one line touch.
        fn touch(&mut self, line: u64, is_write: bool, way_mask: u16) -> (bool, Option<u64>) {
            self.clock += 1;
            let base = (line & self.group_mask) as usize * self.stride;
            let wr = (is_write as u64) << 1;
            for w in 0..self.stride {
                if self.tags[base + w] == line && way_mask & (1 << w) != 0 {
                    self.meta[base + w] = (self.clock << 2) | (self.meta[base + w] & 2) | wr | 1;
                    return (true, None);
                }
            }
            let mut vw = 0usize;
            let mut vm = u64::MAX;
            for w in 0..self.stride {
                if way_mask & (1 << w) != 0 && self.meta[base + w] < vm {
                    vm = self.meta[base + w];
                    vw = w;
                }
            }
            let wb = if vm & 3 == 3 {
                Some(self.tags[base + vw])
            } else {
                None
            };
            self.tags[base + vw] = line;
            self.meta[base + vw] = (self.clock << 2) | wr | 1;
            (false, wb)
        }
    }

    #[test]
    fn property_soa_lanes_match_scalar_oracle() {
        // Differential property test over random (geometry, range,
        // way-mask) triples: the vectorized tag pass must match the
        // scalar packed-meta walk event for event — hits, victim
        // choices, writebacks, and the full LRU age ordering. Ways
        // counts include 1 (the lane tail) and 2 (a single chunk);
        // masks include the full mask, single ways, and random subsets.
        let paper = CacheConfig::paper_default();
        let configs = [
            paper, // 16 ways: full-width lanes
            CacheConfig {
                total_bytes: 128 * 1024,
                ways: 2,
                npu_ways: 0,
                slices: 2,
                line_bytes: 64,
                page_bytes: 8 * 1024,
                ..paper
            },
            CacheConfig {
                total_bytes: 64 * 1024,
                ways: 1, // direct-mapped: scalar tail lane, mask = 1 only
                npu_ways: 0,
                slices: 1,
                line_bytes: 64,
                page_bytes: 8 * 1024,
                ..paper
            },
        ];
        for (gi, ccfg) in configs.into_iter().enumerate() {
            let mut rng = SimRng::new(0xACE5 ^ gi as u64);
            let mut soa = SharedCache::new(&ccfg);
            let mut oracle = ScalarOracle::new(&ccfg);
            let full = soa.full_way_mask();
            let footprint_lines = (ccfg.total_bytes / ccfg.line_bytes) * 3;
            for op in 0..40 {
                let mask = match op % 4 {
                    0 => full,
                    1 => 1 << rng.next_below(u64::from(ccfg.ways)),
                    _ => loop {
                        let m = rng.next_below(1 << ccfg.ways) as u16;
                        if m != 0 {
                            break m;
                        }
                    },
                };
                let start = rng.next_below(footprint_lines);
                let len = 1 + rng.next_below(300);
                let is_write = rng.next_below(3) == 0;
                for line in start..start + len {
                    let (oh, owb) = oracle.touch(line, is_write, mask);
                    let (sh, swb) = match soa.touch(line, is_write, u32::from(mask)) {
                        Touch::Hit => (true, None),
                        Touch::Miss(wb) => (false, wb),
                    };
                    assert_eq!(oh, sh, "hit diverged: geom {gi} op {op} line {line}");
                    assert_eq!(owb, swb, "victim diverged: geom {gi} op {op} line {line}");
                }
                // Full LRU state sweep: every (way → tag, valid, dirty)
                // must agree, and the order word's ranking of the
                // occupied ways must equal the oracle's stamp order.
                for g in 0..=soa.group_mask as usize {
                    let sm = soa.meta[g];
                    let live = meta_gen(sm) == soa.cur_gen;
                    for w in 0..soa.set_stride {
                        let idx = g * soa.set_stride + w;
                        let valid = live && meta_occ(sm) & (1 << w) != 0;
                        assert_eq!(valid, oracle.meta[idx] & 1 == 1, "geom {gi} g={g} w={w}");
                        if !valid {
                            continue;
                        }
                        let line = (u64::from(soa.tags[idx]) << soa.group_bits) | g as u64;
                        assert_eq!(line, oracle.tags[idx], "tag: geom {gi} g={g} w={w}");
                        let dirty = meta_dirty(sm) & (1 << w) != 0;
                        assert_eq!(dirty, oracle.meta[idx] & 2 != 0, "geom {gi} g={g} w={w}");
                    }
                    if !live {
                        continue;
                    }
                    let base = g * soa.set_stride;
                    let by_rank: Vec<usize> = {
                        let mut o = soa.lru[g];
                        (0..soa.set_stride)
                            .map(|_| {
                                let w = (o & 0xF) as usize;
                                o >>= 4;
                                w
                            })
                            .filter(|&w| meta_occ(sm) & (1 << w) != 0)
                            .collect()
                    };
                    let by_stamp: Vec<usize> = {
                        let mut v: Vec<usize> = (0..soa.set_stride)
                            .filter(|&w| oracle.meta[base + w] & 1 == 1)
                            .collect();
                        v.sort_by_key(|&w| oracle.meta[base + w] >> 2);
                        v
                    };
                    assert_eq!(by_rank, by_stamp, "recency order: geom {gi} g={g}");
                }
            }
        }
    }

    #[test]
    fn epoch_hook_is_behavior_neutral() {
        // The epoch hook must never change simulated state — and its
        // debug-build invariant sweep must accept a cache in any phase
        // of mixed traffic (partial sets, partitioned masks, flushes).
        let cfg = CacheConfig {
            total_bytes: 256 * 1024,
            ways: 4,
            npu_ways: 0,
            slices: 2,
            line_bytes: 64,
            page_bytes: 8 * 1024,
            ..CacheConfig::paper_default()
        };
        let mut hooked = SharedCache::new(&cfg);
        let mut plain = SharedCache::new(&cfg);
        let mut dh = DramModel::new(DramConfig::paper_default(), cfg.line_bytes);
        let mut dp = DramModel::new(DramConfig::paper_default(), cfg.line_bytes);
        let mut rng = SimRng::new(42);
        let footprint = cfg.total_bytes * 2;
        let drive = |c: &mut SharedCache, d: &mut DramModel, rng: &mut SimRng| {
            let base = PhysAddr(rng.next_below(footprint));
            let bytes = 1 + rng.next_below(96 * 64);
            let wr = rng.next_below(4) == 0;
            c.access_range(0, base, bytes, wr, 0x0F, d)
        };
        for op in 0..60 {
            let a = drive(&mut hooked, &mut dh, &mut rng.clone());
            let b = drive(&mut plain, &mut dp, &mut rng);
            assert_eq!(a, b);
            hooked.on_epoch();
            if op == 30 {
                hooked.invalidate_all();
                plain.invalidate_all();
                hooked.on_epoch();
            }
            assert_eq!(
                hooked.state_fingerprint(),
                plain.state_fingerprint(),
                "epoch hook changed state: op {op}"
            );
        }
        assert_eq!(hooked.stats().hits.get(), plain.stats().hits.get());
        assert_eq!(
            hooked.stats().writebacks.get(),
            plain.stats().writebacks.get()
        );
    }

    #[test]
    fn multicast_range_charges_replicas_without_tag_churn() {
        let (mut c, mut d) = setup();
        let mask = c.full_way_mask();
        let bytes = 64 * 256; // 256 lines
        let solo = {
            let (mut c2, mut d2) = setup();
            c2.access_range_multicast(0, PhysAddr(0), bytes, false, mask, &mut d2, 1)
        };
        let grouped = c.access_range_multicast(0, PhysAddr(0), bytes, false, mask, &mut d, 4);
        // Replicas hit: 3 × 256 extra hits, no extra misses or traffic.
        assert_eq!(grouped.misses, solo.misses);
        assert_eq!(grouped.hits, solo.hits + 3 * 256);
        assert_eq!(c.stats().hits.get(), 3 * 256);
        assert_eq!(d.stats().total_bytes(), 256 * 64);
        // Replicas serialize on the cache port but never re-walk DRAM:
        // the group finish is the solo finish or the port-limited bound.
        let port = (256f64 / 8.0).ceil() as Cycle;
        assert_eq!(grouped.finish, solo.finish.max(30 + 4 * port));
        assert!(grouped.finish >= solo.finish);
    }

    #[test]
    fn multicast_over_capacity_charges_replica_refetches() {
        // A grouped fetch larger than the allowed ways' capacity
        // self-evicts its head: replicas only hit the resident tail and
        // re-fetch the evicted head from DRAM (not free hits).
        let (mut c, mut d) = setup();
        let mask = 0x0001u16; // one way: 16384-line capacity (1 MiB)
        let lines = 32768u64; // 2 MiB range, twice the capacity
        let out = c.access_range_multicast(0, PhysAddr(0), lines * 64, false, mask, &mut d, 2);
        assert_eq!(out.misses, lines + 16384, "evicted head re-misses once");
        assert_eq!(out.hits, 16384, "only the resident tail multicast-hits");
        assert_eq!(c.stats().hits.get(), 16384);
        assert_eq!(
            d.stats().read_bytes.get(),
            (lines + 16384) * 64,
            "replica re-fetch traffic must reach DRAM"
        );
    }

    #[test]
    fn multicast_group_fetch_cycles_are_pinned() {
        // Regression pin for the thundering-herd fix: exact cycle count
        // of a 4-NPU group fetch of a cold 16 KiB weight tile on the
        // paper SoC. One walk fills 256 lines; 3 replicas are charged
        // 32 port cycles each on top of the 30-cycle hit latency.
        let (mut c, mut d) = setup();
        let mask = c.full_way_mask();
        let out = c.access_range_multicast(0, PhysAddr(0), 64 * 256, false, mask, &mut d, 4);
        let solo_finish = {
            let (mut c2, mut d2) = setup();
            c2.access_range(0, PhysAddr(0), 64 * 256, false, mask, &mut d2)
                .finish
        };
        assert_eq!(out.finish, solo_finish.max(30 + 4 * 32));
        assert_eq!(out.finish, 220, "pinned group-fetch finish changed");
    }
}
