//! Cache geometry, physical cache address (`pcaddr`) packing, and the
//! shared way-mask / tag-lane primitives.
//!
//! Figure 5(b) of the paper divides a `pcaddr` into four bit fields, from
//! low to high: **byte offset | slice index | set index | way index**.
//! In this layout consecutive data lines are distributed among all slices
//! for higher cache bandwidth utilization, and a 32 KiB cache page is a
//! contiguous `pcaddr` range that occupies one way across a block of sets
//! in every slice.
//!
//! # Way masks
//!
//! Both the transparent path ([`SharedCache`](crate::SharedCache)) and
//! the NPU-controlled subspace ([`Nec`](crate::Nec)) split the ways the
//! same way: the **highest** `npu_ways` ways belong to the NPU subspace,
//! the rest stay general-purpose. [`CacheGeometry::full_way_mask`],
//! [`CacheGeometry::npu_way_mask`] and [`CacheGeometry::first_npu_way`]
//! are the single definition of that split — there is deliberately no
//! second `1 << w` loop anywhere else in the crate.
//!
//! # Tag lanes
//!
//! The transparent cache stores per-way state as SoA planes (see
//! `transparent.rs`); the primitives over those planes live here. The
//! tag compare is [`eq_mask`], which dispatches a slice to
//! [`eq_mask_n`], monomorphized per power-of-two ways count, and falls
//! back to a scalar loop otherwise. Both are generic over the lane word.
//! The tag pass hands [`eq_mask`] a fixed `[u16; N]` lane, so the
//! dispatch folds away and LLVM emits the packed compare for that
//! width. Everything here is safe Rust; the order-word helpers below
//! are SWAR over `u64` words.
//!
//! # LRU order words
//!
//! Recency is kept as one packed `u64` per set instead of a per-way
//! stamp lane: nibble `r` holds the way index at recency rank `r`
//! (rank 0 = least recently used, rank `ways − 1` = most recently
//! used), nibbles at and above `ways` stay zero, and the low `ways`
//! nibbles always form a permutation of `0..ways`. Exact LRU in
//! 8 bytes per set: a touch rotates one nibble to the top
//! ([`lru_touch`]), the victim scan reads nibbles from the bottom
//! ([`lru_victim`]), and the rank lookup is a branch-free SWAR
//! zero-nibble find ([`lru_rank_of`]). Replacing the 32-bit stamp
//! plane with this word is what cut the tag pass's per-touch memory
//! traffic — the stamp scheme also needed a periodic rank-compaction
//! pass, which the order word makes structurally unnecessary.

use camdn_common::config::CacheConfig;
use serde::{Deserialize, Serialize};

/// Maximum ways count the lane helpers accept (and the widest fixed
/// specialization): [`CacheConfig::MAX_WAYS`].
pub const TAG_LANE_WIDTH: usize = CacheConfig::MAX_WAYS as usize;

/// Fixed-width core of [`eq_mask`]: bit `w` of the result is set iff
/// `tags[w] == probe`. `N` is at most [`TAG_LANE_WIDTH`]. Generic over
/// the lane word (the transparent cache stores `u16` tags; tests also
/// exercise `u32` lanes) — a fixed `N` and a sized element is all LLVM
/// needs to emit the packed compare.
#[inline]
#[must_use]
pub fn eq_mask_n<T: PartialEq + Copy, const N: usize>(tags: &[T; N], probe: T) -> u32 {
    const {
        assert!(N <= TAG_LANE_WIDTH, "way mask wider than 16 bits");
    }
    let mut m = 0u32;
    let mut w = 0;
    while w < N {
        m |= u32::from(tags[w] == probe) << w;
        w += 1;
    }
    m
}

/// Bitmask of ways whose stored tag equals `probe`.
///
/// `tags` is one set's way-tag lane (way 0 first, at most
/// [`TAG_LANE_WIDTH`] ways); bit `w` of the result is set iff
/// `tags[w] == probe`. Callers mask the result with the set's occupancy
/// bitset and the lookup's way mask — lanes of invalid ways hold stale
/// values and may spuriously match here.
///
/// Dispatches to the monomorphized [`eq_mask_n`] for every power-of-two
/// ways count; other (legal but unused) counts take the scalar loop.
#[inline]
#[must_use]
pub fn eq_mask<T: PartialEq + Copy>(tags: &[T], probe: T) -> u32 {
    debug_assert!(tags.len() <= TAG_LANE_WIDTH);
    match tags.len() {
        16 => {
            if let Some(t) = tags.first_chunk::<16>() {
                return eq_mask_n(t, probe);
            }
        }
        8 => {
            if let Some(t) = tags.first_chunk::<8>() {
                return eq_mask_n(t, probe);
            }
        }
        4 => {
            if let Some(t) = tags.first_chunk::<4>() {
                return eq_mask_n(t, probe);
            }
        }
        2 => {
            if let Some(t) = tags.first_chunk::<2>() {
                return eq_mask_n(t, probe);
            }
        }
        _ => {}
    }
    let mut m = 0u32;
    for (w, &t) in tags.iter().enumerate() {
        m |= u32::from(t == probe) << w;
    }
    m
}

/// Mask of the `n` lowest ways (`n ≤ 16`).
#[inline]
fn low_way_mask(n: u32) -> u16 {
    debug_assert!(n <= 16);
    if n >= 16 {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// Low `4 * ways` bits set — the nibbles an LRU order word may use.
#[inline]
#[must_use]
fn lru_nibble_mask(ways: u32) -> u64 {
    debug_assert!(0 < ways && ways as usize <= TAG_LANE_WIDTH);
    if ways >= 16 {
        u64::MAX
    } else {
        (1u64 << (4 * ways)) - 1
    }
}

/// The identity LRU order word for a `ways`-way set: way `r` at rank
/// `r`, so way 0 is the LRU and way `ways − 1` the MRU. The state a
/// set's recency order starts from when it materializes.
#[inline]
#[must_use]
pub fn lru_identity(ways: u32) -> u64 {
    0xFEDC_BA98_7654_3210 & lru_nibble_mask(ways)
}

/// Recency rank of `way` in `order` — the index of the nibble holding
/// `way`, found with a branch-free SWAR zero-nibble scan.
///
/// `way` must be present in `order`'s permutation (every way of the set
/// is, by the order-word invariant). The XOR against a broadcast of
/// `way` zeroes exactly that nibble; the classic `(y − 0x11…1) & !y &
/// 0x88…8` detector can raise spurious flags only *above* the lowest
/// genuine zero (borrows propagate upward), so the lowest set flag is
/// exact.
#[inline]
#[must_use]
pub fn lru_rank_of(order: u64, way: u32) -> u32 {
    let y = order ^ u64::from(way).wrapping_mul(0x1111_1111_1111_1111);
    let zeros = y.wrapping_sub(0x1111_1111_1111_1111) & !y & 0x8888_8888_8888_8888;
    zeros.trailing_zeros() >> 2
}

/// Rotates the way at `rank` out of `order` and reinserts it at the
/// MRU rank (`ways − 1`): nibbles below `rank` keep their place,
/// nibbles above slide down one rank, `way` lands on top.
///
/// `way` must be the value stored at `rank` (callers that just scanned
/// or looked it up already know both).
#[inline]
#[must_use]
pub fn lru_promote(order: u64, rank: u32, way: u32, ways: u32) -> u64 {
    debug_assert!(rank < ways && ways as usize <= TAG_LANE_WIDTH);
    debug_assert_eq!((order >> (4 * rank)) & 0xF, u64::from(way));
    let below = (1u64 << (4 * rank)) - 1;
    // Nibbles at and above `ways` are zero, so the slide cannot pull
    // garbage into the top rank.
    ((order & below) | ((order >> 4) & !below)) | (u64::from(way) << (4 * (ways - 1)))
}

/// Marks `way` most recently used: [`lru_rank_of`] + [`lru_promote`].
#[inline]
#[must_use]
pub fn lru_touch(order: u64, way: u32, ways: u32) -> u64 {
    lru_promote(order, lru_rank_of(order, way), way, ways)
}

/// The least recently used way among the ways in `allowed`, with its
/// rank — the nibble scan from the LRU end, stopping at the first
/// allowed way.
///
/// `allowed` must intersect the set's ways; with the common full mask
/// the scan exits on the first nibble. An `allowed` that covers no way
/// (callers guarantee non-empty masks) returns `(0, 0)` — documented
/// total behavior, like the rest of the lane helpers.
#[inline]
#[must_use]
pub fn lru_victim(order: u64, allowed: u32) -> (u32, u32) {
    let mut o = order;
    for rank in 0..TAG_LANE_WIDTH as u32 {
        let way = (o & 0xF) as u32;
        if (allowed >> way) & 1 != 0 {
            return (way, rank);
        }
        o >>= 4;
    }
    (0, 0)
}

/// A decoded physical cache address: which line of which slice/set/way,
/// plus the byte offset within the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pcaddr {
    /// Slice index.
    pub slice: u32,
    /// Set index within the slice.
    pub set: u32,
    /// Way index within the set.
    pub way: u32,
    /// Byte offset within the cache line.
    pub offset: u32,
}

/// Derived power-of-two cache geometry with `pcaddr`/page helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Number of slices.
    pub slices: u32,
    /// Sets per slice.
    pub sets_per_slice: u32,
    /// Total ways.
    pub ways: u32,
    /// Cache page size in bytes.
    pub page_bytes: u64,
    offset_bits: u32,
    slice_bits: u32,
    set_bits: u32,
}

impl CacheGeometry {
    /// Builds the geometry from a [`CacheConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the line size, slice count, set count or way count is not
    /// a power of two, or if a cache page does not cover a whole number of
    /// sets per slice (both hold for every configuration in the paper).
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets_per_slice = cfg.sets_per_slice();
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(cfg.slices.is_power_of_two(), "slice count must be 2^n");
        assert!(sets_per_slice.is_power_of_two(), "sets/slice must be 2^n");
        assert!(cfg.ways.is_power_of_two(), "way count must be 2^n");
        assert!(cfg.ways <= CacheConfig::MAX_WAYS, "way masks are u16");
        let lines_per_page = cfg.page_bytes / cfg.line_bytes;
        assert!(
            lines_per_page.is_multiple_of(u64::from(cfg.slices)),
            "a page must span all slices evenly"
        );
        let sets_per_page = lines_per_page / u64::from(cfg.slices);
        assert!(
            sets_per_slice.is_multiple_of(sets_per_page),
            "sets per slice must be a multiple of sets per page"
        );
        CacheGeometry {
            line_bytes: cfg.line_bytes,
            slices: cfg.slices,
            sets_per_slice: sets_per_slice as u32,
            ways: cfg.ways,
            page_bytes: cfg.page_bytes,
            offset_bits: cfg.line_bytes.trailing_zeros(),
            slice_bits: cfg.slices.trailing_zeros(),
            set_bits: (sets_per_slice as u32).trailing_zeros(),
        }
    }

    /// Packs a decoded address into its `u64` bit representation.
    pub fn pack(&self, p: Pcaddr) -> u64 {
        debug_assert!(p.slice < self.slices);
        debug_assert!(p.set < self.sets_per_slice);
        debug_assert!(p.way < self.ways);
        debug_assert!(u64::from(p.offset) < self.line_bytes);
        (u64::from(p.way) << (self.offset_bits + self.slice_bits + self.set_bits))
            | (u64::from(p.set) << (self.offset_bits + self.slice_bits))
            | (u64::from(p.slice) << self.offset_bits)
            | u64::from(p.offset)
    }

    /// Decodes a packed `pcaddr`.
    pub fn unpack(&self, packed: u64) -> Pcaddr {
        let offset = (packed & (self.line_bytes - 1)) as u32;
        let slice = ((packed >> self.offset_bits) & u64::from(self.slices - 1)) as u32;
        let set = ((packed >> (self.offset_bits + self.slice_bits))
            & u64::from(self.sets_per_slice - 1)) as u32;
        let way = (packed >> (self.offset_bits + self.slice_bits + self.set_bits)) as u32;
        Pcaddr {
            slice,
            set,
            way,
            offset,
        }
    }

    /// Bit mask over all ways.
    #[inline]
    pub fn full_way_mask(&self) -> u16 {
        debug_assert!(self.ways <= 16, "way masks are u16");
        if self.ways == 16 {
            u16::MAX
        } else {
            (1u16 << self.ways) - 1
        }
    }

    /// First way of the NPU subspace when the **highest** `npu_ways`
    /// ways are reserved for it — the single definition of the
    /// general/NPU way split shared by the transparent path and the NEC.
    #[inline]
    pub fn first_npu_way(&self, npu_ways: u32) -> u32 {
        debug_assert!(npu_ways <= self.ways);
        self.ways - npu_ways
    }

    /// Mask of the ways reserved for the NPU subspace (the highest
    /// `npu_ways` ways; `0` when nothing is reserved).
    #[inline]
    pub fn npu_way_mask(&self, npu_ways: u32) -> u16 {
        self.full_way_mask() & !low_way_mask(self.first_npu_way(npu_ways))
    }

    /// Lines per cache page.
    pub fn lines_per_page(&self) -> u64 {
        self.page_bytes / self.line_bytes
    }

    /// Sets (per slice) covered by one cache page.
    pub fn sets_per_page(&self) -> u32 {
        (self.lines_per_page() / u64::from(self.slices)) as u32
    }

    /// Cache pages per way (across all slices).
    pub fn pages_per_way(&self) -> u32 {
        self.sets_per_slice / self.sets_per_page()
    }

    /// Total pages in the whole cache (all ways).
    pub fn total_pages(&self) -> u32 {
        self.pages_per_way() * self.ways
    }

    /// The `(way, first_set)` block a physical cache page occupies.
    pub fn page_location(&self, pcpn: u32) -> (u32, u32) {
        let way = pcpn / self.pages_per_way();
        let set_block = pcpn % self.pages_per_way();
        (way, set_block * self.sets_per_page())
    }

    /// Physical cache page number for a way/set pair (inverse of
    /// [`CacheGeometry::page_location`]).
    pub fn pcpn_of(&self, way: u32, set: u32) -> u32 {
        way * self.pages_per_way() + set / self.sets_per_page()
    }

    /// `pcaddr` of the `i`-th line inside page `pcpn` (offset 0).
    ///
    /// Consecutive lines walk the slices first (line-interleaved), then
    /// the sets, matching the Fig. 5(b) layout.
    pub fn line_in_page(&self, pcpn: u32, line_idx: u64) -> Pcaddr {
        debug_assert!(line_idx < self.lines_per_page());
        let (way, set_base) = self.page_location(pcpn);
        let slice = (line_idx % u64::from(self.slices)) as u32;
        let set = set_base + (line_idx / u64::from(self.slices)) as u32;
        Pcaddr {
            slice,
            set,
            way,
            offset: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdn_common::config::CacheConfig;
    use camdn_common::types::MIB;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(&CacheConfig::paper_default())
    }

    #[test]
    fn paper_geometry() {
        let g = geom();
        assert_eq!(g.sets_per_slice, 2048);
        assert_eq!(g.lines_per_page(), 512);
        assert_eq!(g.sets_per_page(), 64);
        assert_eq!(g.pages_per_way(), 32);
        assert_eq!(g.total_pages(), 512); // 16 MiB / 32 KiB
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let g = geom();
        for &(slice, set, way, offset) in &[
            (0u32, 0u32, 0u32, 0u32),
            (7, 2047, 15, 63),
            (3, 1024, 12, 32),
            (5, 17, 4, 1),
        ] {
            let p = Pcaddr {
                slice,
                set,
                way,
                offset,
            };
            assert_eq!(g.unpack(g.pack(p)), p);
        }
    }

    #[test]
    fn packed_addresses_are_unique_lines() {
        let g = geom();
        // Distinct (slice,set,way) triples give distinct packed values.
        let a = g.pack(Pcaddr {
            slice: 1,
            set: 5,
            way: 2,
            offset: 0,
        });
        let b = g.pack(Pcaddr {
            slice: 2,
            set: 5,
            way: 2,
            offset: 0,
        });
        let c = g.pack(Pcaddr {
            slice: 1,
            set: 6,
            way: 2,
            offset: 0,
        });
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn page_location_roundtrip() {
        let g = geom();
        for pcpn in 0..g.total_pages() {
            let (way, set) = g.page_location(pcpn);
            assert_eq!(g.pcpn_of(way, set), pcpn);
        }
    }

    #[test]
    fn page_lines_interleave_slices() {
        let g = geom();
        let p0 = g.line_in_page(0, 0);
        let p1 = g.line_in_page(0, 1);
        let p8 = g.line_in_page(0, 8);
        assert_eq!(p0.slice, 0);
        assert_eq!(p1.slice, 1);
        assert_eq!(p8.slice, 0);
        assert_eq!(p8.set, p0.set + 1);
        assert_eq!(p0.way, p1.way);
    }

    #[test]
    fn scaling_geometries_are_valid() {
        for mb in [4u64, 8, 32, 64] {
            let cfg = CacheConfig::paper_default().with_total_bytes(mb * MIB);
            let g = CacheGeometry::new(&cfg);
            assert_eq!(
                u64::from(g.total_pages()) * g.page_bytes,
                mb * MIB,
                "page count must cover the full cache at {mb} MiB"
            );
        }
    }

    #[test]
    fn way_mask_helpers_agree_across_way_counts() {
        for ways in [1u32, 2, 4, 8, 16] {
            let cfg = CacheConfig {
                ways,
                npu_ways: 0,
                ..CacheConfig::paper_default()
            };
            let g = CacheGeometry::new(&cfg);
            assert_eq!(g.full_way_mask().count_ones(), ways);
            for npu in 0..=ways {
                let m = g.npu_way_mask(npu);
                assert_eq!(m.count_ones(), npu, "ways={ways} npu={npu}");
                // The reserved ways are exactly the highest ones.
                for w in 0..ways {
                    let reserved = w >= g.first_npu_way(npu);
                    assert_eq!(m & (1 << w) != 0, reserved, "ways={ways} npu={npu} w={w}");
                }
                assert_eq!(m & g.full_way_mask(), m, "mask stays inside real ways");
            }
        }
    }

    // --- tag-lane helpers (vector compare + LRU order words) ---------

    /// Scalar oracle for `eq_mask`.
    fn eq_mask_scalar<T: PartialEq + Copy>(tags: &[T], probe: T) -> u32 {
        tags.iter()
            .enumerate()
            .map(|(w, &t)| u32::from(t == probe) << w)
            .fold(0, |m, b| m | b)
    }

    #[test]
    fn eq_mask_matches_scalar_on_lane_edges() {
        // Every lane position of every supported ways count, including
        // the scalar tail lane of a direct-mapped (ways = 1) set and
        // matches straddling chunk boundaries.
        for ways in [1usize, 2, 3, 4, 5, 8, 15, 16] {
            let mut tags: Vec<u32> = (0..ways as u32).map(|w| 0x40_0000 + w * 7).collect();
            for probe_way in 0..ways {
                let probe = tags[probe_way];
                assert_eq!(
                    eq_mask(&tags, probe),
                    eq_mask_scalar(&tags, probe),
                    "ways={ways} probe_way={probe_way}"
                );
                assert_eq!(eq_mask(&tags, probe), 1 << probe_way);
            }
            // No match at all, and a probe differing only in the lane
            // sign bit (the SWAR carry path's edge).
            assert_eq!(eq_mask(&tags, 0xDEAD_BEEF), 0);
            tags[0] = 0x8000_0000;
            assert_eq!(eq_mask(&tags, 0x8000_0000), 1);
            assert_eq!(eq_mask(&tags, 0), 0, "sign-bit lane must not alias zero");
        }
    }

    #[test]
    fn eq_mask_reports_duplicate_and_extreme_lanes() {
        // Duplicate tags (the same line cached in two ways under
        // disjoint way masks) must all report; callers pick the first.
        let tags = [5u32, 9, 5, 5, u32::MAX, 0, u32::MAX, 5];
        assert_eq!(eq_mask(&tags, 5), 0b1000_1101);
        assert_eq!(eq_mask(&tags, u32::MAX), 0b0101_0000);
        assert_eq!(eq_mask(&tags, 0), 0b0010_0000);
        assert_eq!(eq_mask::<u32>(&[], 7), 0, "empty lane set matches nothing");
        // The u16 instantiation (the transparent cache's tag width),
        // including both u16 extremes in one chunk.
        let narrow = [5u16, u16::MAX, 0, 5, 5, 9, u16::MAX, 5];
        assert_eq!(eq_mask(&narrow, 5), 0b1001_1001);
        assert_eq!(eq_mask(&narrow, u16::MAX), 0b0100_0010);
        assert_eq!(eq_mask(&narrow, 0), 0b0000_0100);
    }

    #[test]
    fn u16_lane_compare_matches_portable_bit_for_bit() {
        // The tag pass's compare: `eq_mask` over the transparent
        // cache's `u16` lanes at every width it specializes, against
        // the scalar oracle.
        let mut x = 0x2545_F491u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        // Fixed edges: no match, every lane, and probes/lanes at or
        // above 0x8000.
        for probe in [0u16, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFE, u16::MAX] {
            assert_eq!(eq_mask(&[probe; 16], probe), 0xFFFF);
            assert_eq!(eq_mask(&[probe; 8], probe), 0xFF);
            assert_eq!(eq_mask(&[probe ^ 0x8000; 16], probe), 0);
            assert_eq!(eq_mask(&[probe ^ 1; 8], probe), 0);
        }
        let mut wide = [0x8000u16; 16];
        wide[3] = 0xFFFF;
        wide[12] = 0xFFFF;
        assert_eq!(eq_mask(&wide, 0xFFFF), 1 << 3 | 1 << 12);
        assert_eq!(eq_mask(&wide, 0x8000), 0xFFFF & !(1 << 3 | 1 << 12));
        assert_eq!(eq_mask(&wide, 0x7FFF), 0);
        // Seeded random lanes drawn from a small alphabet, so duplicate
        // matches are common, with high-bit values mixed in.
        for _ in 0..2000 {
            let r = next();
            let alphabet = [
                r as u16 & 0x3,
                0x8000 | (r >> 8) as u16 & 0x3,
                0xFFFF,
                0x7FFF,
            ];
            let mut t16 = [0u16; 16];
            for t in &mut t16 {
                *t = alphabet[(next() & 3) as usize];
            }
            let probe = if next() & 7 == 0 {
                next() as u16
            } else {
                t16[(next() & 15) as usize]
            };
            for ways in [16, 8, 4, 2, 1] {
                let lanes = &t16[..ways];
                assert_eq!(
                    eq_mask(lanes, probe),
                    eq_mask_scalar(lanes, probe),
                    "ways={ways} probe={probe:#x} tags={lanes:x?}"
                );
            }
        }
    }

    /// Reads an order word back into a rank-ordered way list.
    fn order_to_vec(order: u64, ways: u32) -> Vec<u32> {
        (0..ways)
            .map(|r| ((order >> (4 * r)) & 0xF) as u32)
            .collect()
    }

    #[test]
    fn lru_identity_is_the_identity_permutation() {
        for ways in [1u32, 2, 3, 4, 5, 8, 15, 16] {
            let id = lru_identity(ways);
            assert_eq!(order_to_vec(id, ways), (0..ways).collect::<Vec<_>>());
            // Nibbles at and above `ways` stay zero.
            if ways < 16 {
                assert_eq!(id >> (4 * ways), 0, "ways={ways}");
            }
        }
    }

    #[test]
    fn lru_touch_rotates_one_way_to_the_mru_rank() {
        // 4 ways, order LRU→MRU = [2, 0, 3, 1].
        let order = 0x1302u64;
        assert_eq!(lru_rank_of(order, 2), 0);
        assert_eq!(lru_rank_of(order, 0), 1);
        assert_eq!(lru_rank_of(order, 1), 3);
        // Touch the LRU way: everything slides down one rank.
        assert_eq!(order_to_vec(lru_touch(order, 2, 4), 4), vec![0, 3, 1, 2]);
        // Touch a middle way.
        assert_eq!(order_to_vec(lru_touch(order, 3, 4), 4), vec![2, 0, 1, 3]);
        // Touch the MRU way: a fixed point.
        assert_eq!(lru_touch(order, 1, 4), order);
        // Way 15 at the top lane of a full-width word (the SWAR scan's
        // all-ones edge).
        let full = lru_identity(16);
        assert_eq!(lru_rank_of(full, 15), 15);
        assert_eq!(lru_touch(full, 15, 16), full);
        assert_eq!(lru_rank_of(lru_touch(full, 0, 16), 0), 15);
    }

    #[test]
    fn lru_victim_scans_from_the_lru_end() {
        // 8 ways, order LRU→MRU = [5, 2, 7, 0, 1, 3, 4, 6].
        let order = 0x6431_0725u64;
        assert_eq!(lru_victim(order, 0xFF), (5, 0));
        // Disallowing the LRU way moves to the next rank.
        assert_eq!(lru_victim(order, 0xFF & !(1 << 5)), (2, 1));
        // A single allowed way is found at its own rank.
        assert_eq!(lru_victim(order, 1 << 6), (6, 7));
        // Degenerate empty mask: documented total behavior.
        assert_eq!(lru_victim(order, 0), (0, 0));
    }

    #[test]
    fn lru_order_words_match_a_list_oracle() {
        // Deterministic pseudo-random touch/evict traffic per ways
        // count, mirrored against a Vec-based recency list.
        let mut x = 0x9E37_79B9u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for ways in [1u32, 2, 3, 4, 5, 8, 11, 16] {
            let mut order = lru_identity(ways);
            let mut oracle: Vec<u32> = (0..ways).collect();
            for trial in 0..400 {
                let way = next() % ways;
                if next() & 1 == 0 {
                    // Touch: move `way` to the back (MRU) of the list.
                    assert_eq!(
                        lru_rank_of(order, way),
                        oracle.iter().position(|&w| w == way).unwrap() as u32,
                        "ways={ways} trial={trial}"
                    );
                    order = lru_touch(order, way, ways);
                    oracle.retain(|&w| w != way);
                    oracle.push(way);
                } else {
                    // Evict under a random non-empty mask, then promote
                    // the victim (what a fill does).
                    let allowed = {
                        let m = next() & (u32::from(u16::MAX) >> (16 - ways));
                        if m == 0 {
                            1
                        } else {
                            m
                        }
                    };
                    let (vw, vr) = lru_victim(order, allowed);
                    let want = oracle
                        .iter()
                        .position(|&w| (allowed >> w) & 1 != 0)
                        .unwrap();
                    assert_eq!(
                        (vw, vr),
                        (oracle[want], want as u32),
                        "ways={ways} trial={trial} allowed={allowed:#b}"
                    );
                    order = lru_promote(order, vr, vw, ways);
                    oracle.retain(|&w| w != vw);
                    oracle.push(vw);
                }
                assert_eq!(
                    order_to_vec(order, ways),
                    oracle,
                    "ways={ways} trial={trial}"
                );
                if ways < 16 {
                    assert_eq!(order >> (4 * ways), 0, "ways={ways} trial={trial}");
                }
            }
        }
    }

    #[test]
    fn page_lines_stay_inside_one_way() {
        let g = geom();
        let pcpn = 37;
        let (way, _) = g.page_location(pcpn);
        for i in 0..g.lines_per_page() {
            assert_eq!(g.line_in_page(pcpn, i).way, way);
        }
    }
}
