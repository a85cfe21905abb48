//! Randomized tests on the hardware substrates: address packing,
//! page-table translation, DRAM timing monotonicity and cache
//! statistics consistency. Driven by the repo's deterministic
//! [`SimRng`] (the build runs offline, so the usual property-testing
//! crates are unavailable).

#![forbid(unsafe_code)]

use camdn::cache::{CacheGeometry, Nec, Pcaddr, SharedCache};
use camdn::common::config::{CacheConfig, DramConfig};
use camdn::common::types::{PhysAddr, VirtCacheAddr, MIB};
use camdn::common::SimRng;
use camdn::dram::DramModel;
use camdn::npu::CachePageTable;
use camdn::runtime::Scheduler;
use std::collections::BTreeMap;

#[test]
fn pcaddr_pack_unpack_roundtrip() {
    let g = CacheGeometry::new(&CacheConfig::paper_default());
    let mut rng = SimRng::new(0x1);
    for _ in 0..128 {
        let p = Pcaddr {
            slice: rng.next_below(8) as u32,
            set: rng.next_below(2048) as u32,
            way: rng.next_below(16) as u32,
            offset: rng.next_below(64) as u32,
        };
        assert_eq!(g.unpack(g.pack(p)), p);
    }
}

#[test]
fn page_lines_are_unique() {
    let g = CacheGeometry::new(&CacheConfig::paper_default());
    let mut rng = SimRng::new(0x2);
    for _ in 0..128 {
        let pcpn = rng.next_below(512) as u32;
        let mut packed: Vec<u64> = (0..g.lines_per_page())
            .map(|i| g.pack(g.line_in_page(pcpn, i)))
            .collect();
        let before = packed.len();
        packed.sort_unstable();
        packed.dedup();
        assert_eq!(before, packed.len(), "pcpn={pcpn}");
    }
}

#[test]
fn cpt_translation_is_consistent() {
    let mut rng = SimRng::new(0x3);
    for _ in 0..128 {
        // Unique vcpns; pcpns may repeat, which the CPT itself permits
        // (exclusivity lives in the NEC/allocator).
        let mut mappings: BTreeMap<u32, u32> = BTreeMap::new();
        for _ in 0..rng.next_range(1, 63) {
            mappings.insert(rng.next_below(512) as u32, rng.next_range(128, 511) as u32);
        }
        let probe = rng.next_below(512 * 32 * 1024);
        let mut cpt = CachePageTable::new(512, 32 * 1024);
        for (&v, &p) in &mappings {
            cpt.map(v, p).unwrap();
        }
        let vcaddr = VirtCacheAddr(probe);
        let vcpn = (probe / (32 * 1024)) as u32;
        match cpt.translate(vcaddr) {
            Ok((pcpn, off)) => {
                assert_eq!(Some(&pcpn), mappings.get(&vcpn));
                assert_eq!(off, probe % (32 * 1024));
            }
            Err(_) => assert!(!mappings.contains_key(&vcpn)),
        }
    }
}

#[test]
fn dram_completion_is_monotone_in_time() {
    // The same burst issued later never completes earlier.
    let mut rng = SimRng::new(0x4);
    for _ in 0..128 {
        let t1 = rng.next_below(1_000_000);
        let dt = rng.next_range(1, 999_999);
        let lines = rng.next_range(1, 255);
        let addr = rng.next_below(1 << 30);
        let mut a = DramModel::new(DramConfig::paper_default(), 64);
        let mut b = DramModel::new(DramConfig::paper_default(), 64);
        let done1 = a.access_burst(t1, PhysAddr(addr), lines, false, 0);
        let done2 = b.access_burst(t1 + dt, PhysAddr(addr), lines, false, 0);
        assert!(done2 >= done1, "t1={t1} dt={dt} lines={lines}");
        assert!(done1 > t1);
    }
}

#[test]
fn dram_traffic_is_exact() {
    let mut rng = SimRng::new(0x5);
    for _ in 0..128 {
        let lines = rng.next_below(1024);
        let write = rng.next_below(2) == 1;
        let mut d = DramModel::new(DramConfig::paper_default(), 64);
        d.access_burst(0, PhysAddr(0), lines, write, 0);
        assert_eq!(d.stats().total_bytes(), lines * 64);
    }
}

#[test]
fn cache_stats_balance() {
    let mut rng = SimRng::new(0x6);
    for _ in 0..32 {
        let cfg = CacheConfig::paper_default();
        let mut cache = SharedCache::new(&cfg);
        let mut dram = DramModel::new(DramConfig::paper_default(), 64);
        let mask = cache.full_way_mask();
        let mut t = 0;
        for _ in 0..rng.next_range(1, 19) {
            let base = rng.next_below(4 * MIB);
            let bytes = rng.next_range(64, 65_535);
            let write = rng.next_below(2) == 1;
            t += 100_000;
            let out = cache.access_range(t, PhysAddr(base), bytes, write, mask, &mut dram);
            let lines = (base + bytes - 1) / 64 - base / 64 + 1;
            assert_eq!(out.hits + out.misses, lines);
            assert!(out.finish >= t);
        }
        let s = cache.stats();
        assert_eq!(s.fills.get(), s.misses.get(), "every miss fills (RFO)");
        assert!(s.writebacks.get() <= s.misses.get());
    }
}

#[test]
fn event_queue_is_time_ordered() {
    // The engine's RNG draw order depends on the scheduler popping in
    // (time, insertion) order: time-ordered, FIFO among equal times.
    // Timestamps come from a small range so ties are common; each
    // payload is its insertion index, so the exact expected sequence is
    // the stable sort of the pushes by time.
    let mut rng = SimRng::new(0x7);
    for _ in 0..64 {
        let times: Vec<u64> = (0..rng.next_range(1, 199))
            .map(|_| rng.next_below(50))
            .collect();
        let mut q = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut want: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        want.sort_by_key(|&(t, _)| t);
        let mut got = Vec::with_capacity(times.len());
        while let Some(ev) = q.pop() {
            assert_eq!(q.now(), ev.0, "tracked time follows the popped event");
            got.push(ev);
        }
        assert_eq!(got, want);
    }
}

#[test]
fn nec_and_transparent_paths_share_geometry() {
    // The NEC's first page sits exactly after the general-purpose ways.
    let cfg = CacheConfig::paper_default();
    let g = CacheGeometry::new(&cfg);
    let nec = Nec::new(&cfg);
    let (way, set) = g.page_location(nec.first_pcpn());
    assert_eq!(way, cfg.ways - cfg.npu_ways);
    assert_eq!(set, 0);
}
