//! The NPU-Exclusive Controller (NEC), Section III-B2 of the paper.
//!
//! One NEC per cache slice takes control of the NPU subspace and serves
//! NPU-specific requests through a dual interface. We model the NECs of
//! all slices as one logical [`Nec`] because a cache page spans every
//! slice (Fig. 5b) and NPU requests are line-interleaved across slices.
//!
//! The NEC replaces hardware-managed replacement with explicit,
//! program-controlled data movement at cache-line granularity:
//!
//! * **basic semantics** — `fill` (memory → cache), `writeback`
//!   (cache → memory), `read`/`write` (cache ↔ NPU);
//! * **bypass semantics** — `bypass_read` / `bypass_write` move
//!   non-reusable data directly between memory and the NPU, reserving
//!   cache space for reusable data;
//! * **multicast semantics** — `multicast_read` /
//!   `multicast_bypass_read` combine identical requests from a group of
//!   NPUs running the same model, reducing NoC and memory pressure.
//!
//! The NEC also enforces *model exclusivity*: every operation names the
//! task that issued it, and the controller verifies the task owns the
//! pages it touches. Ownership is page-granular, maintained by the cache
//! page allocator in `camdn-core`.
//!
//! # Ownership memo
//!
//! A layer's phases name the same page list on every transfer, so the
//! check keeps, per task, the list it last verified. A check whose list
//! equals the memo (one slice compare) passes without walking the page
//! owners. This is exact: [`Nec::claim_page`] never takes an owned page,
//! and only [`Nec::release_page`] by the task itself ends a task's
//! ownership, so a verified list stays owned until that task releases a
//! page, and every such release drops its memo. Any other list is walked
//! page by page and reports the first offending page, as without the
//! memo. The memo is direct-mapped on the task id (64 slots, each
//! tagged with its task), so arbitrary task ids cost no memory; two
//! tasks sharing a slot only walk more.
//!
//! # Timing
//!
//! All NEC routes are **bulk DMA**: a transfer of `n` lines is one
//! operation, not `n` tag probes. Cache-side service time is closed
//! form (`hit_latency + n / (slices × lines_per_cycle)`), and the
//! DRAM-touching routes (`fill`, `writeback`, `bypass_*`, multicast
//! bypass) issue a single [`DramModel::access_burst`]. Its row-run
//! step prices the burst's full rows with one step per row for the
//! first lap of banks, then one update per bank for the rest, whenever
//! `banks × kf × burst` covers the row-miss penalty (`kf` lines per
//! channel per row). While every channel agrees on the banks it visits,
//! which bulk DMA nearly always leaves them doing, each bank is updated
//! once for all channels: O(min(rows, banks) + channels) per burst, and
//! O(channels × min(rows, banks)) otherwise. This is the structural
//! reason the CaMDN configurations simulate an order of magnitude
//! faster than the transparent baseline at equal fidelity. Multicast
//! routes serve a whole NPU group with one walk plus an analytic
//! `group − 1` savings term rather than one walk per replica.

use crate::geometry::CacheGeometry;
use camdn_common::config::CacheConfig;
use camdn_common::stats::Counter;
use camdn_common::types::{CeilDiv, Cycle, PhysAddr};
use camdn_dram::DramModel;
use serde::{Deserialize, Serialize};

/// Identifier of a co-located task (tenant) as seen by the hardware.
pub type TaskId = u32;

/// Errors raised by the NEC when exclusivity is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NecError {
    /// The page is not owned by the requesting task.
    NotOwner {
        /// Physical cache page that was accessed.
        pcpn: u32,
        /// Task that issued the request.
        task: TaskId,
        /// Current owner, if any.
        owner: Option<TaskId>,
    },
    /// The page number is outside the NPU subspace.
    BadPage {
        /// Offending page number.
        pcpn: u32,
    },
    /// Attempt to claim a page that is already owned.
    AlreadyOwned {
        /// Offending page number.
        pcpn: u32,
        /// Current owner.
        owner: TaskId,
    },
    /// A multicast names an empty NPU group (`group == 0`).
    EmptyGroup,
}

impl std::fmt::Display for NecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NecError::NotOwner { pcpn, task, owner } => write!(
                f,
                "task {task} accessed cache page {pcpn} owned by {owner:?}"
            ),
            NecError::BadPage { pcpn } => {
                write!(f, "cache page {pcpn} is outside the NPU subspace")
            }
            NecError::AlreadyOwned { pcpn, owner } => {
                write!(f, "cache page {pcpn} is already owned by task {owner}")
            }
            NecError::EmptyGroup => write!(f, "multicast group must be at least 1 NPU"),
        }
    }
}

impl std::error::Error for NecError {}

/// Statistics of the NEC (NPU-controlled) path.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NecStats {
    /// Lines served from the NPU subspace to NPUs (controlled hits).
    pub reads: Counter,
    /// Lines written by NPUs into the subspace.
    pub writes: Counter,
    /// Lines filled memory → cache.
    pub fills: Counter,
    /// Lines written back cache → memory.
    pub writebacks: Counter,
    /// Lines moved memory → NPU without caching.
    pub bypass_reads: Counter,
    /// Lines moved NPU → memory without caching.
    pub bypass_writes: Counter,
    /// Multicast read operations served.
    pub multicast_ops: Counter,
    /// Line transfers *saved* by multicast combining (group−1 per line).
    pub multicast_saved_lines: Counter,
}

impl NecStats {
    /// Lines that were served from cache rather than DRAM
    /// (reads + writes into the subspace).
    pub fn controlled_hits(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }
}

/// Slots of the ownership memo (module docs, "Ownership memo"): task
/// `t` uses slot `t % OWNER_MEMO_SLOTS`.
const OWNER_MEMO_SLOTS: usize = 64;

/// One slot of the ownership memo: a page list `task` owns in full,
/// verified since its last release.
#[derive(Debug, Clone, Default)]
struct OwnerMemo {
    task: TaskId,
    pages: Vec<u32>,
}

/// The logical NPU-exclusive controller over the NPU subspace.
#[derive(Debug, Clone)]
pub struct Nec {
    hit_latency: Cycle,
    /// Lines the slices move per cycle, as a divide.
    port: CeilDiv,
    npu_pages: u32,
    /// `page_owner[pcpn - first_pcpn]`: owner task, if claimed.
    page_owner: Vec<Option<TaskId>>,
    first_pcpn: u32,
    /// Last verified page list per task (see "Ownership memo").
    memo: Vec<OwnerMemo>,
    stats: NecStats,
}

impl Nec {
    /// Creates the controller for the NPU subspace defined by `cfg`
    /// (`cfg.npu_ways` of the highest ways).
    pub fn new(cfg: &CacheConfig) -> Self {
        let geom = CacheGeometry::new(cfg);
        let pages_per_way = geom.pages_per_way();
        let npu_pages = pages_per_way * cfg.npu_ways;
        // NPU subspace occupies the highest ways (the same ways
        // `CacheGeometry::npu_way_mask` reserves on the transparent
        // side); its first page number is the first page of the first
        // NPU way.
        let first_pcpn = pages_per_way * geom.first_npu_way(cfg.npu_ways);
        Nec {
            hit_latency: cfg.hit_latency,
            port: CeilDiv::new(f64::from(geom.slices) * cfg.lines_per_cycle),
            npu_pages,
            page_owner: vec![None; npu_pages as usize],
            first_pcpn,
            memo: vec![OwnerMemo::default(); OWNER_MEMO_SLOTS],
            stats: NecStats::default(),
        }
    }

    /// Number of pages in the NPU subspace.
    pub fn npu_pages(&self) -> u32 {
        self.npu_pages
    }

    /// First physical cache page number of the NPU subspace.
    pub fn first_pcpn(&self) -> u32 {
        self.first_pcpn
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NecStats {
        &self.stats
    }

    fn page_slot(&self, pcpn: u32) -> Result<usize, NecError> {
        if pcpn < self.first_pcpn || pcpn >= self.first_pcpn + self.npu_pages {
            return Err(NecError::BadPage { pcpn });
        }
        Ok((pcpn - self.first_pcpn) as usize)
    }

    /// Records that `task` now owns page `pcpn` (called by the page
    /// allocator when a CPT mapping is installed).
    ///
    /// # Errors
    ///
    /// [`NecError::AlreadyOwned`] if the page is taken,
    /// [`NecError::BadPage`] if outside the subspace.
    pub fn claim_page(&mut self, task: TaskId, pcpn: u32) -> Result<(), NecError> {
        let slot = self.page_slot(pcpn)?;
        if let Some(owner) = self.page_owner[slot] {
            return Err(NecError::AlreadyOwned { pcpn, owner });
        }
        self.page_owner[slot] = Some(task);
        Ok(())
    }

    /// Releases a page owned by `task`.
    ///
    /// # Errors
    ///
    /// [`NecError::NotOwner`] if the page is not currently owned by `task`.
    pub fn release_page(&mut self, task: TaskId, pcpn: u32) -> Result<(), NecError> {
        let slot = self.page_slot(pcpn)?;
        if self.page_owner[slot] != Some(task) {
            return Err(NecError::NotOwner {
                pcpn,
                task,
                owner: self.page_owner[slot],
            });
        }
        self.page_owner[slot] = None;
        let memo = &mut self.memo[task as usize % OWNER_MEMO_SLOTS];
        if memo.task == task {
            memo.pages.clear();
        }
        Ok(())
    }

    /// Owner of a page, if any.
    pub fn owner_of(&self, pcpn: u32) -> Option<TaskId> {
        self.page_slot(pcpn).ok().and_then(|s| self.page_owner[s])
    }

    /// Number of currently claimed pages.
    pub fn claimed_pages(&self) -> u32 {
        self.page_owner.iter().filter(|o| o.is_some()).count() as u32
    }

    fn check_owned(&mut self, task: TaskId, pcpns: &[u32]) -> Result<(), NecError> {
        let memo = &self.memo[task as usize % OWNER_MEMO_SLOTS];
        if memo.task == task && memo.pages == pcpns {
            return Ok(());
        }
        for &p in pcpns {
            let slot = self.page_slot(p)?;
            if self.page_owner[slot] != Some(task) {
                return Err(NecError::NotOwner {
                    pcpn: p,
                    task,
                    owner: self.page_owner[slot],
                });
            }
        }
        let memo = &mut self.memo[task as usize % OWNER_MEMO_SLOTS];
        memo.task = task;
        memo.pages.clear();
        memo.pages.extend_from_slice(pcpns);
        Ok(())
    }

    /// Cache-side service time for `lines` line transfers (closed form:
    /// the slices collectively move `slices × lines_per_cycle` lines per
    /// cycle, so bulk DMA never loops per line).
    #[inline]
    fn serve_cycles(&self, lines: u64) -> Cycle {
        self.hit_latency + self.port.ceil(lines)
    }

    /// **Basic semantics**: read `lines` lines of `task`'s region into the
    /// NPU (cache → NPU).
    ///
    /// # Errors
    ///
    /// Fails if any of `pcpns` is not owned by `task`.
    pub fn read(
        &mut self,
        now: Cycle,
        task: TaskId,
        pcpns: &[u32],
        lines: u64,
    ) -> Result<Cycle, NecError> {
        self.check_owned(task, pcpns)?;
        self.stats.reads.add(lines);
        Ok(now + self.serve_cycles(lines))
    }

    /// **Basic semantics**: write `lines` lines from the NPU into `task`'s
    /// region (NPU → cache).
    ///
    /// # Errors
    ///
    /// Fails if any of `pcpns` is not owned by `task`.
    pub fn write(
        &mut self,
        now: Cycle,
        task: TaskId,
        pcpns: &[u32],
        lines: u64,
    ) -> Result<Cycle, NecError> {
        self.check_owned(task, pcpns)?;
        self.stats.writes.add(lines);
        Ok(now + self.serve_cycles(lines))
    }

    /// **Basic semantics**: fill `lines` lines from DRAM (`src`) into
    /// `task`'s region (memory → cache).
    ///
    /// # Errors
    ///
    /// Fails if any of `pcpns` is not owned by `task`.
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        now: Cycle,
        task: TaskId,
        pcpns: &[u32],
        src: PhysAddr,
        lines: u64,
        dram: &mut DramModel,
        bw_delay: Cycle,
    ) -> Result<Cycle, NecError> {
        self.check_owned(task, pcpns)?;
        self.stats.fills.add(lines);
        let dram_done = dram.access_burst(now, src, lines, false, bw_delay);
        Ok(dram_done.max(now + self.serve_cycles(lines)))
    }

    /// **Basic semantics**: write back `lines` lines of `task`'s region to
    /// DRAM at `dst` (cache → memory).
    ///
    /// # Errors
    ///
    /// Fails if any of `pcpns` is not owned by `task`.
    #[allow(clippy::too_many_arguments)]
    pub fn writeback(
        &mut self,
        now: Cycle,
        task: TaskId,
        pcpns: &[u32],
        dst: PhysAddr,
        lines: u64,
        dram: &mut DramModel,
        bw_delay: Cycle,
    ) -> Result<Cycle, NecError> {
        self.check_owned(task, pcpns)?;
        self.stats.writebacks.add(lines);
        let dram_done = dram.access_burst(now, dst, lines, true, bw_delay);
        Ok(dram_done.max(now + self.serve_cycles(lines)))
    }

    /// **Bypass semantics (1)**: bypass-read `lines` lines from memory to
    /// the NPU, without occupying any cache space.
    pub fn bypass_read(
        &mut self,
        now: Cycle,
        src: PhysAddr,
        lines: u64,
        dram: &mut DramModel,
        bw_delay: Cycle,
    ) -> Cycle {
        self.stats.bypass_reads.add(lines);
        dram.access_burst(now, src, lines, false, bw_delay)
    }

    /// **Bypass semantics (2)**: bypass-write `lines` lines from the NPU
    /// to memory, without occupying any cache space.
    pub fn bypass_write(
        &mut self,
        now: Cycle,
        dst: PhysAddr,
        lines: u64,
        dram: &mut DramModel,
        bw_delay: Cycle,
    ) -> Cycle {
        self.stats.bypass_writes.add(lines);
        dram.access_burst(now, dst, lines, true, bw_delay)
    }

    /// **Multicast semantics (3)**: multicast-read `lines` lines from the
    /// cache to a group of `group` NPUs running the same model. The cache
    /// is read once; `group − 1` duplicate transfers are saved.
    ///
    /// # Errors
    ///
    /// [`NecError::EmptyGroup`] if `group == 0`; otherwise fails if any
    /// of `pcpns` is not owned by `task`.
    pub fn multicast_read(
        &mut self,
        now: Cycle,
        task: TaskId,
        pcpns: &[u32],
        lines: u64,
        group: u32,
    ) -> Result<Cycle, NecError> {
        if group == 0 {
            return Err(NecError::EmptyGroup);
        }
        self.check_owned(task, pcpns)?;
        self.stats.reads.add(lines);
        self.stats.multicast_ops.incr();
        self.stats
            .multicast_saved_lines
            .add(lines * u64::from(group - 1));
        Ok(now + self.serve_cycles(lines))
    }

    /// **Multicast semantics (4)**: multicast-bypass-read `lines` lines
    /// from memory to a group of `group` NPUs: one DRAM fetch serves the
    /// whole group.
    ///
    /// # Errors
    ///
    /// [`NecError::EmptyGroup`] if `group == 0`.
    pub fn multicast_bypass_read(
        &mut self,
        now: Cycle,
        src: PhysAddr,
        lines: u64,
        group: u32,
        dram: &mut DramModel,
        bw_delay: Cycle,
    ) -> Result<Cycle, NecError> {
        if group == 0 {
            return Err(NecError::EmptyGroup);
        }
        self.stats.bypass_reads.add(lines);
        self.stats.multicast_ops.incr();
        self.stats
            .multicast_saved_lines
            .add(lines * u64::from(group - 1));
        Ok(dram.access_burst(now, src, lines, false, bw_delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_common::config::DramConfig;

    fn setup() -> (Nec, DramModel) {
        let cfg = CacheConfig::paper_default();
        (
            Nec::new(&cfg),
            DramModel::new(DramConfig::paper_default(), cfg.line_bytes),
        )
    }

    #[test]
    fn subspace_size_matches_table2() {
        let (nec, _) = setup();
        assert_eq!(nec.npu_pages(), 384); // 12 MiB / 32 KiB
        assert_eq!(nec.first_pcpn(), 128); // 4 general ways * 32 pages/way
    }

    #[test]
    fn claim_release_cycle() {
        let (mut nec, _) = setup();
        let p = nec.first_pcpn();
        nec.claim_page(1, p).unwrap();
        assert_eq!(nec.owner_of(p), Some(1));
        assert_eq!(nec.claimed_pages(), 1);
        assert_eq!(
            nec.claim_page(2, p),
            Err(NecError::AlreadyOwned { pcpn: p, owner: 1 })
        );
        nec.release_page(1, p).unwrap();
        assert_eq!(nec.owner_of(p), None);
    }

    #[test]
    fn exclusivity_is_enforced() {
        let (mut nec, _) = setup();
        let p = nec.first_pcpn() + 3;
        nec.claim_page(7, p).unwrap();
        let err = nec.read(0, 8, &[p], 10).unwrap_err();
        assert!(matches!(err, NecError::NotOwner { task: 8, .. }));
        // The rightful owner succeeds.
        assert!(nec.read(0, 7, &[p], 10).is_ok());
    }

    #[test]
    fn pages_outside_subspace_rejected() {
        let (mut nec, _) = setup();
        // Page 0 belongs to the general-purpose ways.
        assert_eq!(nec.claim_page(1, 0), Err(NecError::BadPage { pcpn: 0 }));
        let beyond = nec.first_pcpn() + nec.npu_pages();
        assert!(matches!(
            nec.claim_page(1, beyond),
            Err(NecError::BadPage { .. })
        ));
    }

    #[test]
    fn bypass_generates_dram_traffic_only() {
        let (mut nec, mut dram) = setup();
        nec.bypass_read(0, PhysAddr(0), 16, &mut dram, 0);
        nec.bypass_write(0, PhysAddr(4096), 8, &mut dram, 0);
        assert_eq!(dram.stats().read_bytes.get(), 16 * 64);
        assert_eq!(dram.stats().write_bytes.get(), 8 * 64);
        assert_eq!(nec.stats().bypass_reads.get(), 16);
        assert_eq!(nec.stats().bypass_writes.get(), 8);
    }

    #[test]
    fn controlled_reads_do_not_touch_dram() {
        let (mut nec, dram) = setup();
        let p = nec.first_pcpn();
        nec.claim_page(1, p).unwrap();
        let done = nec.read(0, 1, &[p], 100).unwrap();
        assert!(done > 0);
        assert_eq!(dram.stats().total_bytes(), 0);
    }

    #[test]
    fn fill_reads_dram_once() {
        let (mut nec, mut dram) = setup();
        let p = nec.first_pcpn();
        nec.claim_page(1, p).unwrap();
        nec.fill(0, 1, &[p], PhysAddr(0), 512, &mut dram, 0)
            .unwrap();
        assert_eq!(dram.stats().read_bytes.get(), 512 * 64);
        assert_eq!(nec.stats().fills.get(), 512);
    }

    #[test]
    fn multicast_saves_duplicate_lines() {
        let (mut nec, mut dram) = setup();
        let p = nec.first_pcpn();
        nec.claim_page(1, p).unwrap();
        nec.multicast_read(0, 1, &[p], 100, 4).unwrap();
        assert_eq!(nec.stats().multicast_saved_lines.get(), 300);
        // Bypass multicast: one DRAM fetch for the group.
        nec.multicast_bypass_read(0, PhysAddr(0), 10, 4, &mut dram, 0)
            .unwrap();
        assert_eq!(dram.stats().read_bytes.get(), 10 * 64);
        assert_eq!(nec.stats().multicast_saved_lines.get(), 300 + 30);
    }

    #[test]
    fn bulk_dma_timing_matches_reference_model() {
        // NEC routes lean on `access_burst` for DRAM timing; the
        // closed-form segment walk must price them exactly like the
        // per-line reference across fills, writebacks and bypasses.
        let cfg = CacheConfig::paper_default();
        let mk = |reference| {
            let mut d = DramModel::new(DramConfig::paper_default(), cfg.line_bytes);
            d.set_reference_model(reference);
            (Nec::new(&cfg), d)
        };
        let (mut nf, mut df) = mk(false);
        let (mut nr, mut dr) = mk(true);
        let p = nf.first_pcpn();
        nf.claim_page(1, p).unwrap();
        nr.claim_page(1, p).unwrap();
        let script: [(u8, u64, u64); 7] = [
            (0, 0, 4096),        // fill 4096 lines
            (1, 1 << 20, 2048),  // writeback 2048
            (2, 2 << 20, 513),   // bypass read (unaligned count)
            (3, 3 << 20, 1000),  // bypass write
            (4, 4 << 20, 777),   // multicast bypass read
            (0, 5 << 20, 31),    // small fill
            (2, 6 << 20, 20000), // long bypass read: banks reopen 39 times
        ];
        let mut now = 0;
        for (op, addr, lines) in script {
            let a = PhysAddr(addr);
            let (tf, tr) = match op {
                0 => (
                    nf.fill(now, 1, &[p], a, lines, &mut df, 7).unwrap(),
                    nr.fill(now, 1, &[p], a, lines, &mut dr, 7).unwrap(),
                ),
                1 => (
                    nf.writeback(now, 1, &[p], a, lines, &mut df, 0).unwrap(),
                    nr.writeback(now, 1, &[p], a, lines, &mut dr, 0).unwrap(),
                ),
                2 => (
                    nf.bypass_read(now, a, lines, &mut df, 0),
                    nr.bypass_read(now, a, lines, &mut dr, 0),
                ),
                3 => (
                    nf.bypass_write(now, a, lines, &mut df, 0),
                    nr.bypass_write(now, a, lines, &mut dr, 0),
                ),
                _ => (
                    nf.multicast_bypass_read(now, a, lines, 4, &mut df, 0)
                        .unwrap(),
                    nr.multicast_bypass_read(now, a, lines, 4, &mut dr, 0)
                        .unwrap(),
                ),
            };
            assert_eq!(tf, tr, "finish diverged on op {op}");
            now = tf;
        }
        assert_eq!(df.state_fingerprint(), dr.state_fingerprint());
        assert_eq!(df.stats().total_bytes(), dr.stats().total_bytes());
        assert_eq!(df.stats().row_hits.get(), dr.stats().row_hits.get());
        assert_eq!(df.stats().row_misses.get(), dr.stats().row_misses.get());
    }

    #[test]
    fn empty_multicast_group_is_a_typed_error() {
        let (mut nec, mut dram) = setup();
        let p = nec.first_pcpn();
        nec.claim_page(1, p).unwrap();
        assert_eq!(
            nec.multicast_read(0, 1, &[p], 100, 0),
            Err(NecError::EmptyGroup)
        );
        assert_eq!(
            nec.multicast_bypass_read(0, PhysAddr(0), 10, 0, &mut dram, 0),
            Err(NecError::EmptyGroup)
        );
        let s = nec.stats();
        for c in [
            &s.reads,
            &s.bypass_reads,
            &s.multicast_ops,
            &s.multicast_saved_lines,
        ] {
            assert_eq!(c.get(), 0, "a rejected multicast left a count behind");
        }
        assert_eq!(dram.stats().total_bytes(), 0);
    }

    #[test]
    fn ownership_memo_is_exact() {
        let (mut nec, _) = setup();
        let base = nec.first_pcpn();
        let pages: Vec<u32> = (base..base + 4).collect();
        for &p in &pages {
            nec.claim_page(1, p).unwrap();
        }
        nec.claim_page(2, base + 10).unwrap();
        assert!(nec.read(0, 1, &pages, 8).is_ok());
        assert!(nec.read(0, 1, &pages, 8).is_ok(), "memoized list passes");

        // A different list of the same length is walked, not waved
        // through: page base + 10 belongs to task 2.
        let other = [base, base + 1, base + 2, base + 10];
        assert_eq!(
            nec.read(0, 1, &other, 8),
            Err(NecError::NotOwner {
                pcpn: base + 10,
                task: 1,
                owner: Some(2)
            })
        );
        // Another task naming task 1's verified list is rejected at its
        // first page.
        assert_eq!(
            nec.write(0, 2, &pages, 8),
            Err(NecError::NotOwner {
                pcpn: base,
                task: 2,
                owner: Some(1)
            })
        );

        // Re-verify, then release one page: the same list now fails on
        // exactly that page.
        assert!(nec.read(0, 1, &pages, 8).is_ok());
        nec.release_page(1, base + 2).unwrap();
        assert_eq!(
            nec.read(0, 1, &pages, 8),
            Err(NecError::NotOwner {
                pcpn: base + 2,
                task: 1,
                owner: None
            })
        );
        // Another task claiming the freed page keeps the list failing.
        nec.claim_page(3, base + 2).unwrap();
        assert_eq!(
            nec.read(0, 1, &pages, 8),
            Err(NecError::NotOwner {
                pcpn: base + 2,
                task: 1,
                owner: Some(3)
            })
        );
        // Once task 1 holds the page again, the list passes.
        nec.release_page(3, base + 2).unwrap();
        nec.claim_page(1, base + 2).unwrap();
        assert!(nec.read(0, 1, &pages, 8).is_ok());
        assert!(nec.read(0, 1, &pages, 8).is_ok());

        // An empty list names no page, so it always passes.
        assert!(nec.read(0, 1, &[], 8).is_ok());
        assert!(nec.read(0, 9, &[], 8).is_ok());

        // Tasks sharing a memo slot keep their own answers.
        let alias = 1 + OWNER_MEMO_SLOTS as TaskId;
        nec.claim_page(alias, base + 20).unwrap();
        assert!(nec.read(0, alias, &[base + 20], 8).is_ok());
        assert!(nec.read(0, 1, &[base + 20], 8).is_err());
        assert!(nec.read(0, alias, &pages, 8).is_err());
        assert!(nec.read(0, 1, &pages, 8).is_ok());
        // A release by the slot's other task leaves task 1's memo
        // alone, and task 1's own release still drops it.
        nec.release_page(alias, base + 20).unwrap();
        assert!(nec.read(0, 1, &pages, 8).is_ok());
        nec.release_page(1, base).unwrap();
        assert!(nec.read(0, 1, &pages, 8).is_err());
    }

    #[test]
    fn larger_transfers_take_longer() {
        let (mut nec, _) = setup();
        let p = nec.first_pcpn();
        nec.claim_page(1, p).unwrap();
        let t_small = nec.read(0, 1, &[p], 8).unwrap();
        let t_big = nec.read(0, 1, &[p], 8000).unwrap();
        assert!(t_big > t_small);
    }
}
