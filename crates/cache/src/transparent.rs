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
//! * `heads` — one **run-head bit** per set (2 KiB at the paper
//!   geometry). Sets are stored run-length: a set whose bit is clear
//!   shares the state of the nearest head below it, and its own entries
//!   in the three planes above are ignored. Bit 0 is always set. A
//!   fresh cache starts with every bit set, and only the batched tag
//!   pass clears bits; the per-line paths split a set off its run before
//!   touching it, so the reference model runs on exactly the per-set
//!   planes.
//! * `place` — one **placement word** per set, allocated on the first
//!   run join that needs it (at most 128 KiB at the paper geometry; a
//!   cache that never joins runs this way, as in every CaMDN(Full) run,
//!   holds none). A run head's three plane entries hold the run's state
//!   in *slot space*, and nibble `s` of a set's placement word names the
//!   physical way that holds slot `s`: the set's physical state is its
//!   head's state mapped through its own placement. Identity placement
//!   is the plain per-set meaning. Only a live, full set with distinct
//!   tags is ever placed otherwise, so a set that is not full, and every
//!   set the reference model touches, reads its planes as they are.
//!
//! Tag lanes of invalid ways hold stale garbage by design: `occ` is the
//! source of truth (invalid ways do keep a slot in the order word — the
//! permutation covers all ways — but their rank is never consulted).
//! One function, `touch_set`, reads and updates a set's three plane
//! entries for one line; the batched tag pass and the per-line walk
//! both run it. The lane primitives it uses live in
//! [`geometry`](crate::geometry): the tag compare [`eq_mask`] and the
//! LRU order-word helpers ([`lru_touch`], [`lru_victim`]).
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
//!    per-miss DRAM sequence one (row, channel) segment at a time, in
//!    closed form wherever the gates cannot change the result, up to
//!    whole rows past a run's head, and prices an eviction run
//!    ([`LineBatch::evict_run`](camdn_dram::LineBatch::evict_run)):
//!    each victim's posted writeback, then its line's gated fill. A
//!    victim sits in its line's set, so when `cache_bytes / ways` is a
//!    multiple of `row_bytes × banks` (every geometry the paper and the
//!    sweeps use) it also shares the line's DRAM channel, bank and
//!    in-row offset, and each (row, channel) segment of pairs is one
//!    closed-form step on one bank and one bus.
//!
//! The tag pass costs O(runs), not O(sets). Every access is a range
//! over consecutive sets, so neighbouring sets that saw the same range
//! history hold the same state, and the `heads` plane stores each such
//! run once. A range splits the runs at its two ends, resolves each run
//! head it covers, and folds the run's other sets into the counters and
//! the open tape event in O(1) without touching them.
//!
//! After its touch, a head joins the run before it (and the set after
//! the range joins the last run) when the two hold the same state *up
//! to a relabeling of ways*: equal raw planes, or — both live and full
//! with distinct tags — the same (tag, dirty) pairs in recency order.
//! Under LRU a set behaves as its recency-ordered stack (Mattson et
//! al.'s stack view): with the full way mask, a touch of a full set
//! with distinct tags hits its one matching line or evicts its LRU line,
//! and never consults which way holds what. A miss refills the victim's
//! own way, so two sets whose range histories once differed keep
//! different placements long after their stacks agree again; joining on
//! raw planes alone never rejoins them. On a join the smaller run's
//! placement words are rebased onto the other's slots (slots at the
//! same rank match), and when that is the left run its head takes the
//! right run's state. Readers that see physical ways give the sets they
//! read identity placement first: a per-line touch, a range under a
//! partial way mask (only tests issue these; the engine always passes
//! the full mask) and the flush of [`SharedCache::partition_ways`].
//! [`SharedCache::probe`] and [`SharedCache::state_fingerprint`] read
//! through the placement word, and [`SharedCache::invalidate_all`]
//! drops the placements with the states.
//!
//! On perfbench's `contention` workload (16 tenants under the
//! transparent Baseline; one `--seconds 0` run: 98,488 ranges, 513.7M
//! lines) the tag pass resolves 1.84M run heads, ~280 lines each, where
//! joining on raw planes alone resolved 55.8M (~9 lines each): 8.2
//! instead of 244 per full-mask range shorter than the set array, and
//! the planes hold 4–143 runs of 16,384 sets (median 67 over snapshots
//! at every 997th range; ~2,100 before). The run makes 47.6k
//! placement-free joins, which rebase 7.9M placement words. In SIGPROF samples the tag pass, joins included, is now ~15%
//! of `contention`'s samples and the memory pass ~68% (eviction runs
//! ~35%, fill runs ~22%). `camdn_closed` and `serve_replay` run
//! CaMDN(Full) and make no tag-pass touches at all.
//!
//! The original fused per-line walk is retained as a reference model
//! ([`SharedCache::set_reference_model`]); differential tests here and
//! in `camdn` assert the two paths are bit-identical.

use crate::geometry::{
    eq_mask, eq_mask_n, lru_identity, lru_promote, lru_rank_of, lru_touch, lru_victim,
    CacheGeometry, TAG_LANE_WIDTH,
};
use camdn_common::config::CacheConfig;
use camdn_common::stats::Counter;
use camdn_common::types::{CeilDiv, Cycle, PhysAddr};
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

/// True if set `g` heads a run in the run-head bitset `heads`.
#[inline]
fn is_head(heads: &[u64], g: usize) -> bool {
    heads[g / 64] >> (g % 64) & 1 != 0
}

/// The head of the run holding set `g`: the highest set bit at or
/// below `g` (bit 0 is always set, so there is one).
#[inline]
fn head_of(heads: &[u64], g: usize) -> usize {
    let mut w = g / 64;
    let mut bits = heads[w] & (u64::MAX >> (63 - g % 64));
    while bits == 0 {
        w -= 1;
        bits = heads[w];
    }
    w * 64 + 63 - bits.leading_zeros() as usize
}

/// The first run head at or after set `from`, or `end` if none lies
/// below it.
#[inline]
fn next_head(heads: &[u64], from: usize, end: usize) -> usize {
    if from >= end {
        return end;
    }
    let mut w = from / 64;
    let mut bits = heads[w] & (u64::MAX << (from % 64));
    while bits == 0 {
        w += 1;
        if w * 64 >= end {
            return end;
        }
        bits = heads[w];
    }
    (w * 64 + bits.trailing_zeros() as usize).min(end)
}

/// True if sets `a` and `b` hold the same raw state: meta word, order
/// word and tag lane.
#[inline]
fn same_state<const N: usize>(
    metas: &[u64],
    orders: &[u64],
    tags: &[[u16; N]],
    a: usize,
    b: usize,
) -> bool {
    metas[a] == metas[b] && orders[a] == orders[b] && tags[a] == tags[b]
}

/// Nibble `i` of a packed order or placement word.
#[inline]
fn nib(word: u64, i: u32) -> u32 {
    (word >> (4 * i)) as u32 & 0xF
}

/// Maps the slot bitset `bits` through placement word `place`: bit
/// `nib(place, s)` of the result is set for every bit `s` of `bits`.
#[inline]
fn place_bits(bits: u32, place: u64) -> u32 {
    let (mut b, mut out) = (bits, 0);
    while b != 0 {
        out |= 1 << nib(place, b.trailing_zeros());
        b &= b - 1;
    }
    out
}

/// Relabels the nibbles of `word`: nibble `i` of the result is nibble
/// `nib(from, i)` of `word`.
#[inline]
fn gather_nibbles(word: u64, from: u64, n: u32) -> u64 {
    (0..n).fold(0, |out, i| {
        out | u64::from(nib(word, nib(from, i))) << (4 * i)
    })
}

/// Tries to join run `[s, e)` to the run `[p, s)` just before it. True
/// if the two now form one run headed by `p`: the caller clears `s`'s
/// head bit.
///
/// Runs join when their slot states are equal, or — the placement-free
/// rule — when both are live and full with distinct tags, and list the
/// same (tag, dirty) pairs in recency order. Such a set's touches under
/// the full way mask never consult a physical way, so the two runs
/// behave alike line for line; the smaller run's placement words are
/// rebased onto the other's slots, and when that is the left run, `p`
/// takes `s`'s state. `place` is allocated (all identity) on the first
/// such join.
#[allow(clippy::too_many_arguments)]
#[inline]
fn join_runs<const N: usize>(
    metas: &mut [u64],
    orders: &mut [u64],
    tags: &mut [[u16; N]],
    place: &mut Vec<u64>,
    p: usize,
    s: usize,
    e: usize,
    cur_gen: u32,
) -> bool {
    if same_state(metas, orders, tags, p, s) {
        return true;
    }
    let (mp, ms) = (metas[p], metas[s]);
    let full = (1u32 << N) - 1;
    let live_full = |m: u64| meta_gen(m) == cur_gen && meta_occ(m) == full;
    if !live_full(mp) || !live_full(ms) {
        return false;
    }
    let (op, os) = (orders[p], orders[s]);
    let (dp, ds) = (meta_dirty(mp), meta_dirty(ms));
    for r in 0..N as u32 {
        let (a, b) = (nib(op, r), nib(os, r));
        if tags[p][a as usize] != tags[s][b as usize] || ((dp >> a) ^ (ds >> b)) & 1 != 0 {
            return false;
        }
    }
    let ts = &tags[s];
    if (0..N).any(|w| eq_mask_n(ts, ts[w]) != 1 << w) {
        return false;
    }
    if place.is_empty() {
        place.resize(metas.len(), lru_identity(N as u32));
    }
    // The smaller run moves onto the other's slots; the left one also
    // hands its head the right one's state.
    let (range, kept, moved) = if e - s <= s - p {
        (s..e, op, os)
    } else {
        metas[p] = ms;
        orders[p] = os;
        tags[p] = tags[s];
        (p..s, os, op)
    };
    // Slots at the same rank hold the same line: `from` names, for each
    // slot of the kept state, the slot of the moved one that matches it.
    let from = (0..N as u32).fold(0, |f, r| f | u64::from(nib(moved, r)) << (4 * nib(kept, r)));
    // Neighbouring sets mostly share a placement: rebase each distinct
    // word once.
    let (mut old, mut new) = (u64::MAX, 0);
    for w in &mut place[range] {
        if *w != old {
            old = *w;
            new = gather_nibbles(old, from, N as u32);
        }
        *w = new;
    }
    true
}

/// One line's lookup as [`touch_set`] sees it: everything a touch reads
/// besides the set's own state.
#[derive(Clone, Copy)]
struct Lookup {
    /// The stored tag, `line >> group_bits`.
    tag: u16,
    /// Ways the lookup may hit or allocate in (non-empty).
    mask: u32,
    /// 1 for a write, 0 for a read.
    wr: u32,
    /// The cache's current generation.
    cur_gen: u32,
    /// `log2(groups)`: rebuilds a victim's line index from its tag.
    group_bits: u32,
}

/// Tag lookup and update of set `g` (tag lane `lanes`, one entry per
/// way; order word `order`; meta word `meta`) for one line — the single
/// source of truth for hit/replacement semantics. The tag pass runs it
/// on each run head, [`SharedCache::touch`] on every line of the
/// per-line walk.
///
/// Hit rule: first way in way order with `tag match ∧ occupied ∧
/// allowed` wins (a matching way outside the mask is skipped).
/// Victim rule: the first invalid allowed way in way order, else the
/// lowest-ranked allowed way of the set's LRU order word — occupied
/// ways rank in last-touch order, so this is exactly the min-stamp LRU
/// rule. Every touched way is promoted to the MRU rank. A stale set is
/// known-empty and takes a no-scan fast path.
///
/// Always inlined: in the tag pass `lanes` is then a fixed `[u16; N]`,
/// so the ways count is a constant and [`eq_mask`] folds to the
/// monomorphized compare. (Left to the inliner, it stays an
/// out-of-line call that dispatches on the lane length per run head.)
#[inline(always)]
fn touch_set(lanes: &mut [u16], order: &mut u64, meta: &mut u64, g: usize, lk: Lookup) -> Touch {
    debug_assert!(lk.mask != 0, "empty way mask");
    let ways = lanes.len() as u32;
    let m = *meta;
    if meta_gen(m) != lk.cur_gen {
        // Stale since the last flush: known-empty, no tag scan —
        // materialize and allocate the first allowed way directly.
        let w = lk.mask.trailing_zeros();
        lanes[w as usize] = lk.tag;
        *order = lru_touch(lru_identity(ways), w, ways);
        *meta = meta_pack(1 << w, lk.wr << w, lk.cur_gen);
        return Touch::Miss(None);
    }
    let occ = meta_occ(m);
    let hits = eq_mask(lanes, lk.tag) & occ & lk.mask;
    if hits != 0 {
        let w = hits.trailing_zeros();
        *order = lru_touch(*order, w, ways);
        *meta = m | u64::from(lk.wr << w) << 16;
        return Touch::Hit;
    }
    let dirty = meta_dirty(m);
    let invalid = !occ & lk.mask;
    let (w, rank) = if invalid != 0 {
        let w = invalid.trailing_zeros();
        (w, lru_rank_of(*order, w))
    } else {
        lru_victim(*order, lk.mask)
    };
    let victim = if invalid == 0 && (dirty >> w) & 1 != 0 {
        Some((u64::from(lanes[w as usize]) << lk.group_bits) | g as u64)
    } else {
        None
    };
    lanes[w as usize] = lk.tag;
    *order = lru_promote(*order, rank, w, ways);
    *meta = meta_pack(occ | 1 << w, (dirty & !(1 << w)) | lk.wr << w, lk.cur_gen);
    Touch::Miss(victim)
}

/// Tag-pass accumulator: hit/miss/writeback counters plus the
/// run/eviction event tape under construction.
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
    /// (the rest of a run of identically-stated sets, whose head the
    /// tag pass just resolved): what [`TagAcc::hit`] or
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
    /// Lines the slices serve per cycle, as a divide.
    port: CeilDiv,
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
    /// Run-head bits, one per set group (`heads[g / 64] >> g % 64`): a
    /// set whose bit is clear holds the raw state of the nearest head
    /// below it, and its own plane entries are ignored. Bit 0 is always
    /// set. Only the tag pass clears bits; [`SharedCache::touch`] splits
    /// the sets it reads and writes off their runs first.
    heads: Vec<u64>,
    /// Placement words, one per set group, or empty while every set has
    /// identity placement (a cache that never joins runs up to a
    /// relabeling of ways allocates none). Nibble `s` of `place[g]` is
    /// the physical way of slot `s`: set `g`'s physical state is its run
    /// head's slot state with slot `s` in way `nib(place[g], s)`. Only a
    /// live, full set with distinct tags has a non-identity placement.
    place: Vec<u64>,
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
    /// Run heads the tag pass has resolved (work-count guard).
    #[cfg(test)]
    heads_resolved: u64,
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
            port: CeilDiv::new(f64::from(geom.slices) * cfg.lines_per_cycle),
            tags: vec![0; groups * ways],
            // Order words are rebuilt from the identity permutation when
            // a stale set materializes.
            lru: vec![0; groups],
            // Generation 0 in every meta word against `cur_gen = 1`:
            // every set starts stale.
            meta: vec![0; groups],
            // Every set starts as its own run.
            heads: vec![u64::MAX; groups.div_ceil(64)],
            place: Vec::new(),
            cur_gen: 1,
            set_stride: ways,
            group_mask: groups as u64 - 1,
            group_bits: (groups as u64).trailing_zeros(),
            npu_way_mask: 0,
            stats: CacheStats::default(),
            scratch: Vec::new(),
            reference: false,
            #[cfg(test)]
            heads_resolved: 0,
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
    /// The flush walk is run-major and generation-skipped: runs
    /// untouched since the last flush are known-empty and skipped
    /// whole.
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
        // The flush clears physical ways.
        self.normalize(0, groups);
        let mut s = 0;
        while s < groups {
            let e = next_head(&self.heads, s + 1, groups);
            let m = self.meta[s];
            if meta_gen(m) == self.cur_gen {
                // Flush the reserved ways: the NEC takes raw ownership
                // of them. Every set of the run shares the head's tags,
                // but its victims carry its own set index; writebacks go
                // out set by set in way order, as they always have.
                let base = s * self.set_stride;
                let flush = meta_occ(m) & meta_dirty(m) & clear;
                for g in s..e {
                    let mut f = flush;
                    while f != 0 {
                        let w = f.trailing_zeros();
                        f &= f - 1;
                        self.stats.writebacks.incr();
                        // Reconstruct an address in the right channel
                        // set; exact identity is irrelevant for timing.
                        let tag = u64::from(self.tags[base + w as usize]);
                        let line = (tag << self.group_bits) | g as u64;
                        dram.access_burst(now, PhysAddr(line * self.geom.line_bytes), 1, true, 0);
                    }
                }
                self.meta[s] =
                    meta_pack(meta_occ(m) & !clear, meta_dirty(m) & !clear, self.cur_gen);
            }
            s = e;
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
    /// free; debug builds take the opportunity to sweep the live run heads'
    /// structural invariants.
    pub fn on_epoch(&mut self) {
        #[cfg(debug_assertions)]
        self.debug_check_planes();
    }

    /// Sweeps every live run head's plane invariants: `dirty ⊆ occ`,
    /// both within the real ways, and the LRU order word a permutation
    /// of `0..ways` with zero upper nibbles. Set 0 must head a run.
    /// Every placement word must be a permutation of `0..ways` too, and
    /// a set placed other than by identity must sit in a live, full run
    /// with distinct tags — so a run mixing placements is one, and a set
    /// that is not full keeps identity placement.
    #[cfg(debug_assertions)]
    fn debug_check_planes(&self) {
        let ways = self.set_stride as u32;
        let full = u32::from(self.full_way_mask());
        let groups = self.group_mask as usize + 1;
        let is_perm = |mut o: u64| {
            let mut seen = 0u32;
            for _ in 0..ways {
                seen |= 1 << (o & 0xF);
                o >>= 4;
            }
            o == 0 && seen == full
        };
        debug_assert!(is_head(&self.heads, 0), "set 0 must head a run");
        debug_assert!(
            self.place.is_empty() || self.place.len() == groups,
            "placement plane size"
        );
        let ident = lru_identity(ways);
        let mut next = 0;
        while next < groups {
            let g = next;
            next = next_head(&self.heads, g + 1, groups);
            let m = self.meta[g];
            let live = meta_gen(m) == self.cur_gen;
            let mut placed = false;
            for s in g..next {
                let pl = self.placement(s);
                debug_assert!(is_perm(pl), "placement not a permutation: set {s}");
                placed |= pl != ident;
            }
            if placed {
                debug_assert!(live, "stale set placed off identity: run {g}");
                debug_assert_eq!(
                    meta_occ(m),
                    full,
                    "non-full set placed off identity: run {g}"
                );
                let lanes = &self.tags[g * self.set_stride..(g + 1) * self.set_stride];
                debug_assert!(
                    lanes
                        .iter()
                        .enumerate()
                        .all(|(w, &t)| eq_mask(lanes, t) == 1 << w),
                    "duplicate tags in a set placed off identity: run {g}"
                );
            }
            if !live {
                continue;
            }
            debug_assert_eq!(meta_occ(m) & !full, 0, "occ outside real ways: set {g}");
            debug_assert_eq!(meta_dirty(m) & !meta_occ(m), 0, "dirty ⊄ occ: set {g}");
            debug_assert!(
                is_perm(self.lru[g]),
                "order word not a permutation: set {g}"
            );
        }
    }

    /// Tag lookup and update for one line, on the set's own planes:
    /// the per-line reference walk's and [`SharedCache::access_line`]'s
    /// primitive. `g` and `g + 1` are split off their runs and `g` given
    /// identity placement first, so [`touch_set`] reads and writes `g`'s
    /// own physical planes and leaves its neighbours' state as it was.
    #[inline]
    fn touch(&mut self, line: u64, is_write: bool, mask: u32) -> Touch {
        let g = (line & self.group_mask) as usize;
        self.split(g);
        if g < self.group_mask as usize {
            self.split(g + 1);
        }
        self.normalize(g, g + 1);
        let lookup = self.lookup(line, is_write, mask);
        let lanes = &mut self.tags[g * self.set_stride..(g + 1) * self.set_stride];
        touch_set(lanes, &mut self.lru[g], &mut self.meta[g], g, lookup)
    }

    /// The [`Lookup`] of `line` in the cache's current generation.
    #[inline]
    fn lookup(&self, line: u64, is_write: bool, mask: u32) -> Lookup {
        Lookup {
            tag: (line >> self.group_bits) as u16,
            mask,
            wr: u32::from(is_write),
            cur_gen: self.cur_gen,
            group_bits: self.group_bits,
        }
    }

    /// Makes set `g` head a run of its own: copies its run head's state
    /// into its planes and sets its bit. The sets after `g` keep their
    /// state, now through `g`.
    #[inline]
    fn split(&mut self, g: usize) {
        if !is_head(&self.heads, g) {
            self.split_off(g);
        }
    }

    /// [`SharedCache::split`] of a set that is not a head. Out of line:
    /// the per-line reference walk tests two sets per line and never
    /// meets a set that is not a head.
    #[cold]
    fn split_off(&mut self, g: usize) {
        let h = head_of(&self.heads, g);
        let n = self.set_stride;
        self.meta[g] = self.meta[h];
        self.lru[g] = self.lru[h];
        self.tags.copy_within(h * n..(h + 1) * n, g * n);
        self.heads[g / 64] |= 1 << (g % 64);
    }

    /// Set `g`'s placement word (identity while no plane is allocated).
    #[inline]
    fn placement(&self, g: usize) -> u64 {
        match self.place.get(g) {
            Some(&w) => w,
            None => lru_identity(self.set_stride as u32),
        }
    }

    /// Gives every set of `[from, to)` identity placement, keeping its
    /// physical state: each stretch of a run whose sets share a
    /// placement becomes a run of its own, holding its physical state.
    /// `from` must head a run, and `to` too unless it is the set count.
    /// Readers that see physical ways — a partial way mask, a per-line
    /// touch, a flush of reserved ways — call it first.
    #[inline]
    fn normalize(&mut self, from: usize, to: usize) {
        if !self.place.is_empty() {
            self.normalize_placed(from, to);
        }
    }

    /// [`SharedCache::normalize`] once a placement plane exists. Out of
    /// line: the per-line reference walk calls `normalize` on every line
    /// and never allocates the plane.
    #[cold]
    fn normalize_placed(&mut self, from: usize, to: usize) {
        let n = self.set_stride;
        let ident = lru_identity(n as u32);
        let mut h = from;
        while h < to {
            let e = next_head(&self.heads, h + 1, to);
            let (meta, order) = (self.meta[h], self.lru[h]);
            let mut slots = [0u16; TAG_LANE_WIDTH];
            slots[..n].copy_from_slice(&self.tags[h * n..(h + 1) * n]);
            let mut prev = ident;
            for g in h..e {
                let pl = self.place[g];
                if (g == h && pl != ident) || (g > h && pl != prev) {
                    self.meta[g] = meta_pack(
                        place_bits(meta_occ(meta), pl),
                        place_bits(meta_dirty(meta), pl),
                        meta_gen(meta),
                    );
                    self.lru[g] = gather_nibbles(pl, order, n as u32);
                    for (slot, &tag) in slots[..n].iter().enumerate() {
                        self.tags[g * n + nib(pl, slot as u32) as usize] = tag;
                    }
                    self.heads[g / 64] |= 1 << (g % 64);
                }
                self.place[g] = ident;
                prev = pl;
            }
            h = e;
        }
    }

    /// Number of runs the planes hold now.
    #[cfg(test)]
    fn run_count(&self) -> usize {
        let groups = self.group_mask as usize + 1;
        (0..groups).filter(|&g| is_head(&self.heads, g)).count()
    }

    /// Monomorphized segment tag pass — the batched hot path.
    ///
    /// Consecutive lines map to consecutive set groups (the group index
    /// is the line's low bits), so the range is walked as contiguous
    /// group segments split only at the group-index wrap. Each set's
    /// tag lane is a fixed `[u16; N]` (`as_chunks_mut::<N>`), which is
    /// what lets [`touch_set`]'s compare and the run-state compare below
    /// run as fixed-width code. The stored tag (`line >> group_bits`) is
    /// constant across a segment and hoisted.
    ///
    /// **Run step.** A segment `[g0, end)` first splits `g0` and `end`
    /// off their runs, so its runs lie inside it; under a partial way
    /// mask it also gives its sets identity placement. It then steps
    /// from run head to run head with a bit scan: each head is resolved
    /// with [`touch_set`] on the run's slot state, and the `k` other sets
    /// of its run fold into `acc` in O(1) ([`TagAcc::repeat`]) without
    /// being touched. This is exact: a touch's outcome and post-touch
    /// state are a function of the pre-touch state, the tag, the mask,
    /// `is_write` and `cur_gen` alone — and of no physical way when the
    /// run mixes placements, as such a run is full with distinct tags
    /// and the mask is full — and a segment never crosses the
    /// group-index wrap, where the tag changes. A dirty victim's tag is
    /// part of the shared state, so the `k` repeats evict the `k` lines
    /// after the head's victim and extend its eviction run. A head then
    /// joins the previous run (the run before `g0` included) when
    /// [`join_runs`] allows, as does `end` with the last run.
    ///
    /// Precondition (checked by the caller): `N == set_stride`.
    /// Behavior is line-for-line identical to the per-line walk over
    /// [`SharedCache::touch`] — the differential property tests hold
    /// the two paths together.
    fn tag_pass_n<const N: usize>(
        &mut self,
        first: u64,
        last: u64,
        is_write: bool,
        mask: u32,
        acc: &mut TagAcc,
    ) {
        debug_assert_eq!(self.set_stride, N);
        let groups = self.group_mask as usize + 1;
        let full_mask = mask == u32::from(self.full_way_mask());
        let mut line = first;
        while line <= last {
            let g0 = (line & self.group_mask) as usize;
            let end = groups.min(g0 + (last - line) as usize + 1);
            let lookup = self.lookup(line, is_write, mask);
            self.split(g0);
            if end < groups {
                self.split(end);
            }
            if !full_mask {
                self.normalize(g0, end);
            }
            let (tag_sets, _) = self.tags.as_chunks_mut::<N>();
            let (orders, metas, heads) = (&mut self.lru, &mut self.meta, &mut self.heads);
            let place = &mut self.place;
            // Head of the run before the next head to resolve (none
            // before set 0).
            let mut p = if g0 > 0 {
                head_of(heads, g0 - 1)
            } else {
                usize::MAX
            };
            let mut s = g0;
            while s < end {
                let e = next_head(heads, s + 1, end);
                match touch_set(&mut tag_sets[s], &mut orders[s], &mut metas[s], s, lookup) {
                    Touch::Hit => acc.hit(),
                    Touch::Miss(victim) => acc.miss(line + (s - g0) as u64, victim),
                }
                acc.repeat((e - s - 1) as u64);
                #[cfg(test)]
                {
                    self.heads_resolved += 1;
                }
                if p != usize::MAX
                    && join_runs(metas, orders, tag_sets, place, p, s, e, lookup.cur_gen)
                {
                    heads[s / 64] &= !(1 << (s % 64));
                } else {
                    p = s;
                }
                s = e;
            }
            if end < groups {
                let e = next_head(heads, end + 1, groups);
                if join_runs(metas, orders, tag_sets, place, p, end, e, lookup.cur_gen) {
                    heads[end / 64] &= !(1 << (end % 64));
                }
            }
            line += (end - g0) as u64;
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
        self.port.ceil(lines)
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
            // camdn-lint: allow(panic-in-lib, reason = "CacheGeometry::new asserts a power-of-two way count of at most 16, so the arms above cover every cache")
            ways => unreachable!("{ways} ways fail CacheConfig::validate"),
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
    /// call per line. Kept as the differential baseline, selected by
    /// [`SharedCache::set_reference_model`]. Out of line: `access_range`
    /// is its only caller, and inlining this cold walk there grows the
    /// batched path's function by ~4 KiB.
    #[inline(never)]
    fn access_range_reference(
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
        let set = (line & self.group_mask) as usize;
        let h = head_of(&self.heads, set);
        let m = self.meta[h];
        if meta_gen(m) != self.cur_gen {
            return false; // stale set: logically empty
        }
        let wide = line >> self.group_bits;
        if wide > u64::from(u16::MAX) {
            return false; // unrepresentable tags can never be cached
        }
        let base = h * self.set_stride;
        let lanes = &self.tags[base..base + self.set_stride];
        let slots = eq_mask(lanes, wide as u16) & meta_occ(m);
        place_bits(slots, self.placement(set)) & u32::from(way_mask) != 0
    }

    /// Invalidates the whole cache without writebacks (test aid). O(1):
    /// bumping the generation makes every set stale.
    pub fn invalidate_all(&mut self) {
        // Every set turns stale, and a stale set materializes with
        // identity placement.
        self.place.clear();
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
        let mut head = 0;
        for g in 0..groups {
            if is_head(&self.heads, g) {
                head = g;
            }
            let m = self.meta[head];
            if meta_gen(m) != self.cur_gen {
                mix(0); // canonical empty set
                continue;
            }
            // The head's slot state, read through `g`'s placement.
            let pl = self.placement(g);
            let occ = meta_occ(m);
            mix(u64::from(place_bits(occ, pl)));
            mix(u64::from(place_bits(meta_dirty(m), pl)));
            let base = head * self.set_stride;
            // Occupied ways LRU→MRU: the logical recency order.
            let order = self.lru[head];
            for r in 0..self.set_stride as u32 {
                let slot = nib(order, r);
                if (occ >> slot) & 1 != 0 {
                    mix(u64::from(nib(pl, slot)));
                    mix(u64::from(self.tags[base + slot as usize]));
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
        #[cfg(debug_assertions)]
        fast.0.debug_check_planes();
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

    /// [`SharedCache::access_line`] on both twins, asserting they agree
    /// on the outcome and on all state afterwards.
    fn twin_line(
        fast: &mut (SharedCache, DramModel),
        refm: &mut (SharedCache, DramModel),
        now: Cycle,
        addr: PhysAddr,
        is_write: bool,
        mask: u16,
        ctx: &str,
    ) {
        let a = fast.0.access_line(now, addr, is_write, mask, &mut fast.1);
        let b = refm.0.access_line(now, addr, is_write, mask, &mut refm.1);
        assert_eq!(a, b, "line outcome diverged: {ctx}");
        assert_twin_state(fast, refm, ctx);
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

    /// Random ops on a batched cache and its reference twin over every
    /// sweep geometry, checking outcome, statistics, tag state and DRAM
    /// state after every op. `op(rng, ccfg)` draws one range access's
    /// `(base, bytes, way mask)`. Returns how many ops ended with some
    /// set placed off identity.
    fn property_sweep(
        seed: u64,
        op: impl Fn(&mut SimRng, &CacheConfig) -> (PhysAddr, u64, u16),
    ) -> u32 {
        let mut placed = 0;
        for (gi, (ccfg, dcfg)) in sweep_configs().into_iter().enumerate() {
            let mut rng = SimRng::new(seed ^ gi as u64);
            let [mut fast, mut refm] = twins(ccfg, dcfg);
            let ways = ccfg.ways;
            let mut now = 0;
            for op_no in 0..150 {
                let (base, bytes, mask) = op(&mut rng, &ccfg);
                let is_write = rng.next_below(3) == 0;
                now += rng.next_below(1000);
                let ctx = format!("geom {gi}, op {op_no}");
                // Mostly ranges; now and then a single line, a probe, a
                // flush or a repartition, each of which meets the runs
                // the ranges before it left.
                match rng.next_below(20) {
                    0 => twin_line(&mut fast, &mut refm, now, base, is_write, mask, &ctx),
                    1 => assert_eq!(fast.0.probe(base, mask), refm.0.probe(base, mask), "{ctx}"),
                    2 => {
                        fast.0.invalidate_all();
                        refm.0.invalidate_all();
                        assert_twin_state(&fast, &refm, &ctx);
                    }
                    3 => {
                        let npu = rng.next_below(u64::from(ways)) as u32;
                        let a = fast.0.partition_ways(npu, now, &mut fast.1);
                        let b = refm.0.partition_ways(npu, now, &mut refm.1);
                        assert_eq!(a, b, "{ctx}");
                        assert_twin_state(&fast, &refm, &ctx);
                    }
                    _ => {
                        twin_access(&mut fast, &mut refm, now, base, bytes, is_write, mask, &ctx);
                    }
                }
                let ident = lru_identity(ways);
                placed += u32::from(fast.0.place.iter().any(|&w| w != ident));
            }
        }
        placed
    }

    /// A random non-empty mask over `ways` ways.
    fn random_mask(rng: &mut SimRng, ways: u32) -> u16 {
        loop {
            let m = rng.next_below(1 << ways) as u16;
            if m != 0 {
                break m;
            }
        }
    }

    #[test]
    fn property_sweep_batched_equals_reference() {
        // Property-style sweep: random (geometry, range, way-mask)
        // triples; the batched path must match the per-line reference on
        // outcome, statistics, tag state and DRAM state after every op.
        property_sweep(0x5EED, |rng, ccfg| {
            let mask = random_mask(rng, ccfg.ways);
            // Footprint chosen to alias heavily (a few times the cache).
            let base = PhysAddr(rng.next_below(ccfg.total_bytes * 3));
            // Mostly modest transfers, occasionally far beyond the
            // MSHR window to exercise the gated regime.
            let bytes = if rng.next_below(5) == 0 {
                (200 + rng.next_below(400)) * ccfg.line_bytes
            } else {
                rng.next_below(64 * ccfg.line_bytes)
            };
            (base, bytes, mask)
        });
    }

    #[test]
    fn property_sweep_full_mask_runs_equal_reference() {
        // The sweep biased to what the engine issues: full-mask ranges
        // up to two laps of the set array with random ends, over four
        // times the cache, so sets fill and sets with equal LRU stacks
        // in different ways join mixed runs. One range in eight takes a
        // partial mask and meets them, as do the sweep's lines, probes,
        // flushes and repartitions.
        let placed = property_sweep(0xF011, |rng, ccfg| {
            let full = CacheGeometry::new(ccfg).full_way_mask();
            let lines = ccfg.total_bytes / ccfg.line_bytes;
            let groups = lines / u64::from(ccfg.ways);
            let mask = if rng.next_below(8) == 0 {
                random_mask(rng, ccfg.ways)
            } else {
                full
            };
            let first = rng.next_below(4 * lines);
            let len = 1 + rng.next_below(2 * groups);
            (
                PhysAddr(first * ccfg.line_bytes),
                len * ccfg.line_bytes,
                mask,
            )
        });
        assert!(placed > 0, "no mixed run formed");
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
        /// [`SharedCache::access_line`]: `(line, is_write, way mask)`.
        Line(u64, bool, u16),
        /// [`SharedCache::probe`]: `(line, way mask, expected result)`.
        Probe(u64, u16, bool),
    }

    #[test]
    fn same_state_boundaries_match_reference() {
        // Scripted cases for the tag pass's runs of identically-stated
        // sets, each where a run starts, splits, merges or must not
        // form, and for every other reader of the run planes. Every
        // step is checked against the per-line reference.
        use Step::{Access, Invalidate, Line, Partition, Probe};
        for (gi, (ccfg, dcfg)) in sweep_configs().into_iter().enumerate() {
            let g = ccfg.total_bytes / ccfg.line_bytes / u64::from(ccfg.ways);
            let full = CacheGeometry::new(&ccfg).full_way_mask();
            let half = ccfg.ways / 2;
            let low = (1u16 << half) - 1; // general ways after `Partition(half)`
            let n = g / 2;
            let (w, m) = (u64::from(ccfg.ways), g / 4);
            let h = w / 2;
            // Full-mask streams with ends staggered at set `m`: sets
            // `0..m` fill tags `h..w` into ways `h..w` in order, sets
            // `m..g` in reverse, then both re-touch them in order. Every
            // set ends with the same LRU stack but the two sides hold
            // tags `h..w` in mirrored ways, and must join one run.
            let joined = || {
                let mut steps: Vec<Step> = (0..h).map(|k| Access(k * g, g, k == 1, full)).collect();
                steps.extend((h..w).map(|k| Access(k * g, m, k % 2 == 0, full)));
                steps.extend(
                    (h..w)
                        .rev()
                        .map(|k| Access(k * g + m, g - m, k % 2 == 0, full)),
                );
                steps.extend((h..w).map(|k| Access(k * g, g, false, full)));
                steps
            };
            let joined_len = joined().len();
            let with_joined = |tail: Vec<Step>| {
                let mut steps = joined();
                steps.extend(tail);
                steps
            };
            let (mid, top) = (1u16 << h, 1u16 << (w - 1));
            let cases: Vec<(&str, Vec<Step>)> = vec![
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
                (
                    // A single line lands inside a run, then a range
                    // crosses the set it split off.
                    "access_line mid-run",
                    vec![
                        Access(0, g, true, full),
                        Line(g + n, true, full),
                        Line(2 * g + n + 1, false, 1),
                        Access(n - 7, 20, false, full),
                    ],
                ),
                (
                    // Probes of sets that are not run heads.
                    "probe off head",
                    vec![
                        Access(0, g, false, full),
                        Probe(n, full, true),
                        Probe(g + n, full, false),
                        Access(g + n, 1, false, 2),
                        Probe(g + n, 2, true),
                        Probe(n + 2, 1, true),
                        Probe(n + 2, 2, false),
                        Probe(g + n + 2, full, false),
                    ],
                ),
                (
                    // Runs of dirty sets in different states: each set
                    // of a run writes back its own victims.
                    "partition over dirty runs",
                    vec![
                        Access(0, g, false, full),
                        Access(g + n / 2, n, true, full),
                        Access(2 * g + n, n / 2, true, full),
                        Partition(half),
                        Access(0, 2 * g, false, low),
                    ],
                ),
                (
                    // The last step's first set joins the run before it
                    // and its last set the run after it.
                    "merge at both ends",
                    vec![
                        Access(0, g, false, full),
                        Access(g, n, false, full),
                        Access(g + n + 10, 10, false, full),
                        Access(g + n, 10, false, full),
                    ],
                ),
                (
                    // Ranges ending exactly at the group-index wrap.
                    "end at wrap",
                    vec![
                        Access(g - 50, 50, true, full),
                        Access(g - 100, 100, false, full),
                        Access(2 * g - 1, 1, true, full),
                        Access(0, g, false, full),
                    ],
                ),
                (
                    // A flush over merged runs leaves them all stale.
                    "invalidate over merged runs",
                    vec![
                        Access(0, g, true, full),
                        Access(g + n, 5, false, full),
                        Invalidate,
                        Access(n - 3, 10, true, 1),
                        Access(0, g, false, full),
                    ],
                ),
                (
                    // Every reader of physical ways on the joined runs:
                    // set `s` holds tag `h` in way `h` below `m` and in
                    // way `w - 1` from `m` on.
                    "joined runs, physical readers",
                    with_joined(vec![
                        Probe(h * g + 3, mid, true),
                        Probe(h * g + m + 3, mid, false),
                        Probe(h * g + m + 3, top, true),
                        Probe(h * g + m + 3, full, true),
                        Probe(w * g + 3, full, false),
                        Line(h * g + m + 3, true, full),
                        Line(w * g + 5, false, top),
                        // Hits below `m`; misses in way `h` from `m` on,
                        // leaving tag `h` in two ways there.
                        Access(h * g + m - 5, 20, true, mid),
                        Access(0, 2 * g, false, full),
                        Access(h * g, g, true, full),
                        Partition(half),
                        Access(0, 2 * g, false, low),
                        Access((w + 1) * g, g, true, full),
                    ]),
                ),
                (
                    "joined runs, invalidate",
                    with_joined(vec![
                        Invalidate,
                        Access(h * g, g, false, full),
                        Access(0, g, true, full),
                    ]),
                ),
                (
                    // Full sets with tag 0 in two ways, at ranks that
                    // mirror each other across `m`: equal LRU stacks,
                    // but a full-mask hit on tag 0 promotes the older
                    // copy below `m` and the newer one from `m` on.
                    "duplicate tags never join",
                    [0, 1]
                        .into_iter()
                        .chain(2..w)
                        .map(|k| Access(k * g, m, false, full))
                        .chain(
                            [1, 0]
                                .into_iter()
                                .chain(2..w)
                                .map(|k| Access(k * g + m, g - m, false, full)),
                        )
                        .chain([Access(0, m, false, 0b10), Access(m, g - m, false, 0b01)])
                        .chain([Access(2 * g, g, false, full), Access(0, g, false, full)])
                        .chain([Access(w * g, g, true, full)])
                        .collect(),
                ),
                (
                    // After a flush of the high ways their lanes keep
                    // tags `h..w` in mirrored ways at equal ranks: equal
                    // stacks, yet a miss fills way `h` on both sides.
                    "non-full sets never join",
                    with_joined(vec![
                        Partition(half),
                        Access(0, g, false, full),
                        Access(w * g, g, true, full),
                        Access((w + 1) * g, g, false, full),
                    ]),
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
                            if name == "uniform re-read" {
                                // A uniform stream leaves one run.
                                assert_eq!(fast.0.run_count(), 1, "{ctx}");
                                if k == 1 {
                                    assert_eq!(out.hits, g, "{ctx}");
                                }
                            }
                            if name == "merge at both ends" {
                                assert_eq!(fast.0.run_count(), [1, 2, 4, 2][k], "{ctx}");
                            }
                            if name.starts_with("joined runs") && k + 1 == joined_len {
                                assert_eq!(fast.0.run_count(), 1, "{ctx}");
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
                        Line(line, is_write, mask) => {
                            let addr = PhysAddr(line * ccfg.line_bytes);
                            twin_line(&mut fast, &mut refm, now, addr, is_write, mask, &ctx);
                        }
                        Probe(line, mask, expected) => {
                            let addr = PhysAddr(line * ccfg.line_bytes);
                            assert_eq!(fast.0.probe(addr, mask), expected, "{ctx}");
                            assert_eq!(refm.0.probe(addr, mask), expected, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn offset_tenant_streams_resolve_few_heads() {
        // Work-count guard: eight tenants of two layers each stream
        // their tensors whole, round after round. The tensors start and
        // end at scattered sets and span two to four laps of the set
        // array, so sets on either side of an end soon hold the same
        // LRU stack in different ways. Runs that join only on equal raw
        // lanes fragment: ~240 heads per range here, against ~34 with
        // placement-free joins (each range also splits at every lap).
        // Every range is checked against the reference.
        let ccfg = CacheConfig {
            total_bytes: 1024 * 1024,
            ways: 16,
            npu_ways: 0,
            slices: 1,
            line_bytes: 64,
            page_bytes: 8 * 1024,
            ..CacheConfig::paper_default()
        };
        let [mut fast, mut refm] = twins(ccfg, DramConfig::paper_default());
        let full = fast.0.full_way_mask();
        let g = fast.0.group_mask + 1;
        let (rounds, warm) = (6, 2);
        let (mut ranges, mut now) = (0u32, 0);
        for round in 0..rounds {
            if round == warm {
                fast.0.heads_resolved = 0;
                ranges = 0;
            }
            for l in 0..2u64 {
                for t in 0..8u64 {
                    // Weights, input and output.
                    for k in 0..3u64 {
                        let first = (t * 8 + l * 3 + k) * 4 * g + (t * 131 + l * 37 + k * 71) % g;
                        let lines = 2000 + (t * 211 + l * 97 + k * 53) % 2000;
                        let ctx = format!("round {round}, layer {l}, tenant {t}, tensor {k}");
                        let (base, bytes) = (PhysAddr(first * 64), lines * 64);
                        twin_access(&mut fast, &mut refm, now, base, bytes, k == 2, full, &ctx);
                        now += 20_000;
                        ranges += 1;
                    }
                }
            }
        }
        let per_range = fast.0.heads_resolved as f64 / f64::from(ranges);
        assert!(per_range <= 48.0, "{per_range:.1} heads per range");
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
        // way-mask) triples: `touch_set`, the one hit/victim/LRU rule
        // the tag pass and the per-line walk share, must match the
        // scalar packed-meta walk event for event — hits, victim
        // choices, writebacks, and the full LRU age ordering. Ways
        // counts cover every power of two the tag pass specializes,
        // 16 down to 1 (the lane tail); masks include the full mask,
        // single ways, and random subsets.
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
            // 8 and 4 ways over 128 sets: ~47 touches per set, so every
            // way fills and victim choices under partial masks occur.
            CacheConfig {
                total_bytes: 64 * 1024,
                ways: 8,
                npu_ways: 0,
                slices: 1,
                line_bytes: 64,
                page_bytes: 8 * 1024,
                ..paper
            },
            CacheConfig {
                total_bytes: 32 * 1024,
                ways: 4,
                npu_ways: 0,
                slices: 1,
                line_bytes: 64,
                page_bytes: 8 * 1024,
                ..paper
            },
            // 16 ways over 128 sets: the paper geometry above sees ~0.4
            // touches per set, so only this case fills a 16-way set and
            // checks its victim scan.
            CacheConfig {
                total_bytes: 128 * 1024,
                ways: 16,
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
