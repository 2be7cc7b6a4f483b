//! The candidate-scan index: popcount-sorted rows, plus bit-sliced SIMD
//! planes for large tables.
//!
//! The correlation check compares every window without an exact group match
//! against *all* groups by Hamming distance (Figure 3.5). [`GroupTable`]
//! stores each group as its own heap-allocated [`BitSet`], so the naive scan
//! chases one pointer per group. [`SlicedScanIndex`] is the structure built
//! for that scan:
//!
//! * **Popcount bands.** Rows are packed row-major in `(popcount, group id)`
//!   order, so the `|pc(q) − pc(g)| > maxDist` lower bound becomes two binary
//!   searches that select one *contiguous* slot band instead of a per-row
//!   branch. Everything outside the band is skipped wholesale. Tables below
//!   [`SCAN_CROSSOVER_GROUPS`] groups scan the band row by row and build
//!   nothing else.
//! * **Bit-sliced planes** (tables of [`SCAN_CROSSOVER_GROUPS`] groups or
//!   more). Within blocks of [`BLOCK_LANES`] rows, the table is transposed
//!   column-major: plane `i` of a block holds bit `i` of all 256 rows as four
//!   `u64` lane words. One 256-bit XOR against the broadcast query bit
//!   compares the same bit position of 256 groups at once, and per-lane
//!   distances accumulate in `K` vertical carry-save counter planes
//!   (`2^K − 1 ≥ maxDist`), with a sticky saturation plane.
//! * **Early abandon.** Once every lane of a block has saturated past
//!   `maxDist` (checked every [`EARLY_CHECK_BITS`] planes) the remaining
//!   planes of that block are skipped — with small thresholds most blocks
//!   die within the first few dozen of hh102's 270 planes.
//! * **Batched queries.** [`SlicedScanIndex::candidates_batch_into`] scans
//!   blocks in the outer loop and queries in the inner loop, so one pass
//!   over the plane data (kept cache-hot) serves a whole window batch.
//! * **Nearest groups.** [`SlicedScanIndex::nearest_into`] walks the
//!   popcount buckets outward from the query's popcount at every table size.
//!
//! The plane kernel exists for AVX2 (`std::arch`, runtime-detected) and as a
//! portable loop, which the compiler vectorises for thresholds up to 7.
//! Both read the same plane layout,
//! block width, and early-abandon cadence, so results *and* [`ScanProfile`]
//! statistics are bit-identical across backends — the cross-backend
//! proptests in `tests/properties.rs` assert exactly that. Results match the
//! naive [`GroupTable::candidates`] / [`GroupTable::nearest`] scans byte for
//! byte. The index is derived state, rebuilt whenever the model's group
//! table changes — see [`DiceModel::rebuild_index`](crate::DiceModel).

// The AVX2 kernel is the one place in dice-core that needs `unsafe`: a
// `#[target_feature]` function may only be invoked once the matching CPU
// feature has been verified at runtime (`ScanBackend::detect`), which the
// compiler cannot prove. The call site carries a SAFETY note tying it to
// that detection.
#![allow(unsafe_code)]

use crate::bitset::BitSet;
use crate::groups::{Candidate, GroupTable};
use crate::scan::ScanProfile;

use dice_types::GroupId;

const WORD_BITS: usize = 64;

/// Rows per bit-sliced block: one 256-bit SIMD lane's worth.
pub const BLOCK_LANES: usize = 256;

/// `u64` lane words per block (`BLOCK_LANES / 64`).
const LANE_WORDS: usize = 4;

/// Saturation is polled every this many bit planes, on every backend, so
/// early-abandon statistics are backend-independent.
const EARLY_CHECK_BITS: usize = 32;

/// Largest `max_distance` served by the bit-sliced kernels (six counter
/// planes); beyond it [`SlicedScanIndex::candidates_into`] scans the
/// popcount band row by row.
pub const MAX_SLICED_DISTANCE: u32 = 63;

/// Tables with at least this many groups build bit-sliced planes; smaller
/// tables scan their popcount band row by row.
///
/// One 256-lane block is the planes' minimum per-query work, so small tables
/// scan faster row by row. The value was tuned on the `bench-json` synthetic
/// workload (270-bit hh102 states, distance ≤ 3) against a row-major scan
/// that visited every row; the band scan visits only the band and is faster
/// still, so 160 is a conservative switch point. The value is recorded in
/// `BENCH_core.json` (`candidate_scan.crossover_groups`).
pub const SCAN_CROSSOVER_GROUPS: usize = 160;

/// Which plane kernel a [`SlicedScanIndex`] dispatches to.
///
/// Both backends read the same plane layout and return bit-identical
/// results; they differ only in how many lane words one instruction touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScanBackend {
    /// Portable `u64` loop over the four lane words; always available.
    #[default]
    Scalar,
    /// 256-bit `std::arch` kernel (one block row per op).
    Avx2,
}

impl ScanBackend {
    /// The widest runtime-detected backend.
    pub fn detect() -> ScanBackend {
        if ScanBackend::Avx2.is_supported() {
            ScanBackend::Avx2
        } else {
            ScanBackend::Scalar
        }
    }

    /// Whether this backend's CPU feature is available at runtime.
    pub fn is_supported(self) -> bool {
        match self {
            ScanBackend::Scalar => true,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            ScanBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            ScanBackend::Avx2 => false,
        }
    }

    /// Every backend supported on this CPU, widest last.
    pub fn available() -> Vec<ScanBackend> {
        [ScanBackend::Scalar, ScanBackend::Avx2]
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// Stable lowercase name (`scalar` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            ScanBackend::Scalar => "scalar",
            ScanBackend::Avx2 => "avx2",
        }
    }

    /// Stable numeric encoding for telemetry gauges (0 scalar, 2 AVX2).
    pub fn gauge_value(self) -> i64 {
        match self {
            ScanBackend::Scalar => 0,
            ScanBackend::Avx2 => 2,
        }
    }
}

/// A popcount-sorted mirror of a [`GroupTable`] for candidate scans, with
/// bit-sliced planes once the table reaches [`SCAN_CROSSOVER_GROUPS`] groups.
///
/// This is the index a [`DiceModel`](crate::DiceModel) builds and the engine
/// queries. Every entry point returns exactly what the naive
/// [`GroupTable::candidates`] / [`GroupTable::nearest`] scans return, on
/// either side of the crossover. Derived state: rebuilt whenever the model's
/// group table changes.
///
/// # Example
///
/// ```
/// use dice_core::{BitSet, GroupTable, SlicedScanIndex};
///
/// let mut table = GroupTable::new(5);
/// table.observe(&BitSet::from_indices(5, [0, 1]));
/// table.observe(&BitSet::from_indices(5, [3, 4]));
/// let index = SlicedScanIndex::build(&table);
/// assert!(!index.is_bitsliced()); // 2 groups scan their popcount band
///
/// let query = BitSet::from_indices(5, [0]);
/// assert_eq!(index.candidates(&query, 1), table.candidates(&query, 1));
/// assert_eq!(index.nearest(&query), table.nearest(&query));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlicedScanIndex {
    num_bits: usize,
    words_per_row: usize,
    backend: ScanBackend,
    /// `slot_to_group[slot]` = original group id of the row stored at
    /// `slot`; slots are sorted by `(popcount, group id)`.
    slot_to_group: Vec<u32>,
    /// Popcount per slot, ascending — the band search key.
    popcounts: Vec<u32>,
    /// Row-major packed rows in slot order, for the band scan and the
    /// nearest walk.
    row_words: Vec<u64>,
    /// Column-major bit planes, empty below [`SCAN_CROSSOVER_GROUPS`] rows:
    /// block `b`, plane `i`, lane word `k` lives at
    /// `planes[(b * num_bits + i) * LANE_WORDS + k]`.
    planes: Vec<u64>,
}

impl SlicedScanIndex {
    /// Builds the index from a group table with the runtime-detected backend.
    pub fn build(table: &GroupTable) -> Self {
        Self::with_backend(table, ScanBackend::detect())
    }

    /// Builds the index with an explicit backend (tests forcing a kernel);
    /// the backend only matters for tables large enough to build planes.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this CPU.
    pub fn with_backend(table: &GroupTable, backend: ScanBackend) -> Self {
        assert!(
            backend.is_supported(),
            "scan backend {} not supported on this CPU",
            backend.name()
        );
        let num_bits = table.num_bits();
        let words_per_row = num_bits.div_ceil(WORD_BITS);
        let n = table.len();

        // Slot order: ascending (popcount, group id).
        let mut order: Vec<(u32, u32)> = table
            .iter()
            .map(|(id, state)| (state.count_ones(), id.index() as u32))
            .collect();
        order.sort_unstable();

        let mut slot_to_group = Vec::with_capacity(n);
        let mut popcounts = Vec::with_capacity(n);
        let mut row_words = Vec::with_capacity(n * words_per_row);
        let num_blocks = if n >= SCAN_CROSSOVER_GROUPS {
            n.div_ceil(BLOCK_LANES)
        } else {
            0
        };
        let mut planes = vec![0u64; num_blocks * num_bits * LANE_WORDS];
        for (slot, &(pc, group)) in order.iter().enumerate() {
            slot_to_group.push(group);
            popcounts.push(pc);
            let state = table.state(GroupId::new(group));
            // Clamp to the table width: a corrupt table (verifier test fodder)
            // may hold wider rows; building must not panic on it.
            let words = state.as_words();
            for k in 0..words_per_row {
                row_words.push(words.get(k).copied().unwrap_or(0));
            }
            if num_blocks == 0 {
                continue;
            }
            let block = slot / BLOCK_LANES;
            let lane = slot % BLOCK_LANES;
            let lane_word = (block * num_bits) * LANE_WORDS + lane / WORD_BITS;
            let lane_bit = 1u64 << (lane % WORD_BITS);
            for i in state.ones().take_while(|&i| i < num_bits) {
                planes[lane_word + i * LANE_WORDS] |= lane_bit;
            }
        }

        SlicedScanIndex {
            num_bits,
            words_per_row,
            backend,
            slot_to_group,
            popcounts,
            row_words,
            planes,
        }
    }

    /// Number of indexed groups.
    pub fn len(&self) -> usize {
        self.popcounts.len()
    }

    /// Whether the index holds no groups.
    pub fn is_empty(&self) -> bool {
        self.popcounts.is_empty()
    }

    /// Width of the indexed state sets, in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// The plane kernel this index dispatches to. Reported even when the
    /// table built no planes, so the `dice_engine_scan_backend` gauge
    /// describes the hardware path consistently across model sizes.
    pub fn backend(&self) -> ScanBackend {
        self.backend
    }

    /// Whether bit-sliced planes were built: the table has at least
    /// [`SCAN_CROSSOVER_GROUPS`] groups. Otherwise candidate scans walk the
    /// popcount band row by row.
    pub fn is_bitsliced(&self) -> bool {
        self.len() >= SCAN_CROSSOVER_GROUPS
    }

    /// Whether a candidate scan at `max_distance` runs the plane kernel
    /// rather than the row-by-row band loop.
    fn uses_planes(&self, max_distance: u32) -> bool {
        self.is_bitsliced() && max_distance <= MAX_SLICED_DISTANCE
    }

    /// The contiguous slot range whose popcounts lie within `max_distance`
    /// of `query_pc` — everything outside it is pruned without XOR work.
    fn bucket_range(&self, query_pc: u32, max_distance: u32) -> (usize, usize) {
        let lo = query_pc.saturating_sub(max_distance);
        let start = self.popcounts.partition_point(|&pc| pc < lo);
        let end = self
            .popcounts
            .partition_point(|&pc| u64::from(pc) <= u64::from(query_pc) + u64::from(max_distance));
        (start, end)
    }

    /// Fills `out` with every group within Hamming distance `max_distance`
    /// of `state` (inclusive), sorted by ascending distance then group id —
    /// exactly [`GroupTable::candidates`], without allocating when `out` has
    /// capacity.
    ///
    /// The profile's `pruned` counts the rows outside the popcount band;
    /// `blocks` and `early_stops` stay zero unless the plane kernel ran.
    ///
    /// # Panics
    ///
    /// Panics if the query width does not match the index.
    pub fn candidates_into(
        &self,
        state: &BitSet,
        max_distance: u32,
        out: &mut Vec<Candidate>,
    ) -> ScanProfile {
        assert_eq!(state.len(), self.num_bits, "query width mismatch");
        out.clear();
        let mut profile = ScanProfile {
            rows: self.len() as u32,
            ..ScanProfile::default()
        };
        self.candidates_append(state, max_distance, out, &mut profile);
        out.sort_unstable_by_key(|c| (c.distance, c.group));
        profile
    }

    /// Scans one query, appending unsorted matches and accumulating into
    /// `profile` (shared by the single and batched entry points).
    fn candidates_append(
        &self,
        state: &BitSet,
        max_distance: u32,
        out: &mut Vec<Candidate>,
        profile: &mut ScanProfile,
    ) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let (start, end) = self.bucket_range(state.count_ones(), max_distance);
        profile.pruned += (n - (end - start)) as u32;
        if start >= end {
            return;
        }
        if !self.uses_planes(max_distance) {
            // Row by row over the band: small tables build no planes, and
            // wide thresholds would outgrow the counter planes.
            let query = state.as_words();
            for slot in start..end {
                let row = &self.row_words[slot * self.words_per_row..][..self.words_per_row];
                let mut distance = 0u32;
                let mut within = true;
                for (a, b) in query.iter().zip(row) {
                    distance += (a ^ b).count_ones();
                    if distance > max_distance {
                        within = false;
                        break;
                    }
                }
                if within {
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance,
                    });
                }
            }
            return;
        }
        let block_lo = start / BLOCK_LANES;
        let block_hi = end.div_ceil(BLOCK_LANES);
        dispatch_counter_planes!(counter_planes(max_distance), K => {
            for block in block_lo..block_hi {
                self.scan_block::<K>(block, state.as_words(), max_distance, out, profile);
            }
        });
    }

    /// Runs the backend kernel over one block and extracts matches.
    ///
    /// Lanes past the end of the index are pre-saturated, and lanes whose
    /// popcount falls outside the query's bucket range are rejected by their
    /// exact distance, so whole blocks are always processed.
    fn scan_block<const K: usize>(
        &self,
        block: usize,
        query: &[u64],
        max_distance: u32,
        out: &mut Vec<Candidate>,
        profile: &mut ScanProfile,
    ) {
        let planes =
            &self.planes[block * self.num_bits * LANE_WORDS..][..self.num_bits * LANE_WORDS];
        let valid = (self.len() - block * BLOCK_LANES).min(BLOCK_LANES);
        let mut sat_init = [0u64; LANE_WORDS];
        for (k, word) in sat_init.iter_mut().enumerate() {
            *word = !lane_mask(valid, k);
        }
        let mut counters = [[0u64; LANE_WORDS]; K];
        let mut sat = [0u64; LANE_WORDS];
        let early = match self.backend {
            ScanBackend::Scalar => scan_block_scalar::<K>(
                planes,
                query,
                self.num_bits,
                &sat_init,
                &mut counters,
                &mut sat,
            ),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            // SAFETY: `self.backend` is only ever set to Avx2 when
            // `ScanBackend::is_supported` confirmed the CPU feature at
            // runtime (enforced in `with_backend`).
            ScanBackend::Avx2 => unsafe {
                scan_block_avx2::<K>(
                    planes,
                    query,
                    self.num_bits,
                    &sat_init,
                    &mut counters,
                    &mut sat,
                )
            },
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            ScanBackend::Avx2 => unreachable!("AVX2 backend on unsupported target"),
        };
        profile.blocks += 1;
        if early {
            profile.early_stops += 1;
            return;
        }
        // Extract lanes whose exact count equals each admissible distance.
        for d in 0..=max_distance {
            for k in 0..LANE_WORDS {
                let mut eq = !sat[k];
                for (j, counter) in counters.iter().enumerate() {
                    let c = counter[k];
                    eq &= if (d >> j) & 1 == 1 { c } else { !c };
                }
                while eq != 0 {
                    let lane = eq.trailing_zeros() as usize;
                    eq &= eq - 1;
                    let slot = block * BLOCK_LANES + k * WORD_BITS + lane;
                    debug_assert!(slot < self.len(), "phantom lane escaped saturation");
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance: d,
                    });
                }
            }
        }
    }

    /// Fills `out` with the nearest group(s) to `state`: minimal distance,
    /// all ties, ascending by group id — exactly [`GroupTable::nearest`],
    /// without allocating when `out` has capacity.
    ///
    /// Walks popcount buckets outward from the query's popcount and stops
    /// once the popcount gap alone exceeds the best distance found, so only
    /// a thin band of rows is ever compared. Leaves `out` empty only for an
    /// empty index.
    ///
    /// # Panics
    ///
    /// Panics if the query width does not match the index.
    pub fn nearest_into(&self, state: &BitSet, out: &mut Vec<Candidate>) -> ScanProfile {
        assert_eq!(state.len(), self.num_bits, "query width mismatch");
        out.clear();
        let n = self.len();
        let mut profile = ScanProfile {
            rows: n as u32,
            ..ScanProfile::default()
        };
        if n == 0 {
            return profile;
        }
        let query = state.as_words();
        let query_pc = state.count_ones();
        let max_pc = *self.popcounts.last().expect("non-empty index");
        let mut best = u32::MAX;
        let mut visited = 0u32;
        let mut gap = 0u32;
        loop {
            // The popcount gap lower-bounds the distance: once it exceeds
            // the best distance seen, no further bucket can even tie.
            if best != u32::MAX && gap > best {
                break;
            }
            let low_exhausted = gap > query_pc;
            let high_exhausted = u64::from(query_pc) + u64::from(gap) > u64::from(max_pc);
            if low_exhausted && high_exhausted {
                break;
            }
            let mut sides = [None, None];
            if !low_exhausted {
                sides[0] = Some(query_pc - gap);
            }
            if gap > 0 && !high_exhausted {
                sides[1] = Some(query_pc + gap);
            }
            for pc in sides.into_iter().flatten() {
                let start = self.popcounts.partition_point(|&p| p < pc);
                let end = self.popcounts.partition_point(|&p| p <= pc);
                for slot in start..end {
                    visited += 1;
                    let row = &self.row_words[slot * self.words_per_row..][..self.words_per_row];
                    let mut distance = 0u32;
                    let mut beaten = false;
                    for (a, b) in query.iter().zip(row) {
                        distance += (a ^ b).count_ones();
                        if distance > best {
                            beaten = true;
                            break;
                        }
                    }
                    if beaten {
                        continue;
                    }
                    if distance < best {
                        best = distance;
                        out.clear();
                    }
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance,
                    });
                }
            }
            gap += 1;
        }
        // Ties surface in (popcount, group) slot order; the naive scan
        // returns them ascending by group id.
        out.sort_unstable_by_key(|c| c.group);
        profile.pruned = n as u32 - visited;
        profile
    }

    /// Batched [`SlicedScanIndex::candidates_into`]: one pass over the plane
    /// data serves every query in `queries`.
    ///
    /// Blocks are the outer loop and queries the inner loop, so each block's
    /// planes stay cache-hot across the whole batch; without planes each
    /// query scans its own popcount band. `out` is resized to
    /// `queries.len()`, reusing inner buffers. Returns the element-wise sum
    /// of the per-query profiles — identical to running the single-query
    /// entry point per query.
    ///
    /// # Panics
    ///
    /// Panics if any query width does not match the index.
    pub fn candidates_batch_into(
        &self,
        queries: &[&BitSet],
        max_distance: u32,
        out: &mut Vec<Vec<Candidate>>,
    ) -> ScanProfile {
        out.resize_with(queries.len(), Vec::new);
        out.truncate(queries.len());
        let mut profile = ScanProfile::default();
        for (query, slots) in queries.iter().zip(out.iter_mut()) {
            assert_eq!(query.len(), self.num_bits, "query width mismatch");
            slots.clear();
            profile.rows += self.len() as u32;
        }
        let n = self.len();
        if n == 0 || queries.is_empty() {
            return profile;
        }
        if !self.uses_planes(max_distance) {
            for (query, slots) in queries.iter().zip(out.iter_mut()) {
                self.candidates_append(query, max_distance, slots, &mut profile);
                slots.sort_unstable_by_key(|c| (c.distance, c.group));
            }
            return profile;
        }
        // Per-query bucket block ranges, then block-major over their union.
        let mut block_span = (usize::MAX, 0usize);
        let ranges: Vec<(usize, usize)> = queries
            .iter()
            .map(|query| {
                let (start, end) = self.bucket_range(query.count_ones(), max_distance);
                profile.pruned += (n - (end - start)) as u32;
                if start >= end {
                    return (usize::MAX, 0);
                }
                let blocks = (start / BLOCK_LANES, end.div_ceil(BLOCK_LANES));
                block_span.0 = block_span.0.min(blocks.0);
                block_span.1 = block_span.1.max(blocks.1);
                blocks
            })
            .collect();
        dispatch_counter_planes!(counter_planes(max_distance), K => {
            for block in block_span.0..block_span.1 {
                for ((query, slots), &(lo, hi)) in
                    queries.iter().zip(out.iter_mut()).zip(&ranges)
                {
                    if block >= lo && block < hi {
                        self.scan_block::<K>(
                            block,
                            query.as_words(),
                            max_distance,
                            slots,
                            &mut profile,
                        );
                    }
                }
            }
        });
        for slots in out.iter_mut() {
            slots.sort_unstable_by_key(|c| (c.distance, c.group));
        }
        profile
    }

    /// Batched [`SlicedScanIndex::nearest_into`] over a slice of queries.
    ///
    /// The nearest cascade is query-adaptive (its bucket walk depends on the
    /// running best distance), so this amortizes call overhead rather than
    /// plane passes. Returns the element-wise sum of per-query profiles.
    ///
    /// # Panics
    ///
    /// Panics if any query width does not match the index.
    pub fn nearest_batch_into(
        &self,
        queries: &[&BitSet],
        out: &mut Vec<Vec<Candidate>>,
    ) -> ScanProfile {
        out.resize_with(queries.len(), Vec::new);
        out.truncate(queries.len());
        let mut profile = ScanProfile::default();
        for (query, slots) in queries.iter().zip(out.iter_mut()) {
            profile.absorb(self.nearest_into(query, slots));
        }
        profile
    }

    /// Allocating convenience wrapper over
    /// [`SlicedScanIndex::candidates_into`].
    pub fn candidates(&self, state: &BitSet, max_distance: u32) -> Vec<Candidate> {
        let mut out = Vec::new();
        let _ = self.candidates_into(state, max_distance, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`SlicedScanIndex::nearest_into`].
    pub fn nearest(&self, state: &BitSet) -> Vec<Candidate> {
        let mut out = Vec::new();
        let _ = self.nearest_into(state, &mut out);
        out
    }
}

/// Number of vertical counter planes needed to count distances `0..=2^K − 1`
/// with `2^K − 1 ≥ max_distance`.
fn counter_planes(max_distance: u32) -> usize {
    debug_assert!(max_distance <= MAX_SLICED_DISTANCE);
    (u32::BITS - max_distance.leading_zeros()).max(1) as usize
}

/// Bits of lane word `k` that correspond to real rows when `valid` lanes of
/// the block are populated.
fn lane_mask(valid: usize, k: usize) -> u64 {
    let lo = k * WORD_BITS;
    if valid >= lo + WORD_BITS {
        u64::MAX
    } else if valid <= lo {
        0
    } else {
        (1u64 << (valid - lo)) - 1
    }
}

/// Dispatches a compile-time counter-plane count (`1..=6`, covering
/// [`MAX_SLICED_DISTANCE`]) so counters stay in registers.
macro_rules! dispatch_counter_planes {
    ($k:expr, $K:ident => $body:block) => {
        match $k {
            1 => {
                const $K: usize = 1;
                $body
            }
            2 => {
                const $K: usize = 2;
                $body
            }
            3 => {
                const $K: usize = 3;
                $body
            }
            4 => {
                const $K: usize = 4;
                $body
            }
            5 => {
                const $K: usize = 5;
                $body
            }
            6 => {
                const $K: usize = 6;
                $body
            }
            other => unreachable!("counter planes out of range: {other}"),
        }
    };
}
use dispatch_counter_planes;

/// Portable kernel: XOR-accumulates one block's bit planes into `K` vertical
/// counters. Returns whether the block was abandoned early (every lane
/// saturated past the threshold).
///
/// Planes are taken in chunks of [`EARLY_CHECK_BITS`], one saturation poll
/// per chunk, so the per-plane loop in [`accumulate_planes`] has no exit
/// and the compiler can keep the lane arrays in vector registers.
fn scan_block_scalar<const K: usize>(
    planes: &[u64],
    query: &[u64],
    num_bits: usize,
    sat_init: &[u64; LANE_WORDS],
    counters_out: &mut [[u64; LANE_WORDS]; K],
    sat_out: &mut [u64; LANE_WORDS],
) -> bool {
    let mut counters = [[0u64; LANE_WORDS]; K];
    let mut sat = *sat_init;
    let mut early = false;
    let chunks = planes[..num_bits * LANE_WORDS].chunks(EARLY_CHECK_BITS * LANE_WORDS);
    for (c, chunk) in chunks.enumerate() {
        // A chunk's query bits all sit in one query word: 32 divides 64.
        let first = c * EARLY_CHECK_BITS;
        let bits = query[first / WORD_BITS] >> (first % WORD_BITS);
        accumulate_planes(chunk, bits, &mut counters, &mut sat);
        if chunk.len() == EARLY_CHECK_BITS * LANE_WORDS && sat == [u64::MAX; LANE_WORDS] {
            early = true;
            break;
        }
    }
    *counters_out = counters;
    *sat_out = sat;
    early
}

/// Adds each plane of `planes` (XORed with bit `j` of `query_bits` for the
/// `j`-th plane) into the carry-save counters: counters in the outer loop,
/// the four lane words in the inner loop.
#[inline(always)]
fn accumulate_planes<const K: usize>(
    planes: &[u64],
    query_bits: u64,
    counters: &mut [[u64; LANE_WORDS]; K],
    sat: &mut [u64; LANE_WORDS],
) {
    for (j, plane) in planes.chunks_exact(LANE_WORDS).enumerate() {
        let qmask = 0u64.wrapping_sub((query_bits >> j) & 1);
        let mut carry = [0u64; LANE_WORDS];
        for k in 0..LANE_WORDS {
            carry[k] = plane[k] ^ qmask;
        }
        for counter in counters.iter_mut() {
            for k in 0..LANE_WORDS {
                let t = counter[k] & carry[k];
                counter[k] ^= carry[k];
                carry[k] = t;
            }
        }
        for k in 0..LANE_WORDS {
            sat[k] |= carry[k];
        }
    }
}

/// AVX2 kernel: one 256-bit op per block row. Bit-identical to the scalar
/// kernel, including the early-abandon cadence.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn scan_block_avx2<const K: usize>(
    planes: &[u64],
    query: &[u64],
    num_bits: usize,
    sat_init: &[u64; LANE_WORDS],
    counters_out: &mut [[u64; LANE_WORDS]; K],
    sat_out: &mut [u64; LANE_WORDS],
) -> bool {
    use std::arch::x86_64::*;
    // SAFETY: every load/store below reads or writes 32 bytes from slices /
    // arrays whose bounds are checked before the pointer cast; `loadu` /
    // `storeu` have no alignment requirement.
    unsafe {
        let mut counters = [_mm256_setzero_si256(); K];
        let mut sat = _mm256_loadu_si256(sat_init.as_ptr().cast());
        let ones = _mm256_set1_epi64x(-1);
        let mut early = false;
        for i in 0..num_bits {
            let qbit = (query[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
            let qmask = _mm256_set1_epi64x(0i64.wrapping_sub(qbit as i64));
            let plane = &planes[i * LANE_WORDS..][..LANE_WORDS];
            let p = _mm256_loadu_si256(plane.as_ptr().cast());
            let mut carry = _mm256_xor_si256(p, qmask);
            for counter in counters.iter_mut() {
                let t = _mm256_and_si256(*counter, carry);
                *counter = _mm256_xor_si256(*counter, carry);
                carry = t;
            }
            sat = _mm256_or_si256(sat, carry);
            if (i + 1) % EARLY_CHECK_BITS == 0 && _mm256_testc_si256(sat, ones) != 0 {
                early = true;
                break;
            }
        }
        for (j, counter) in counters.iter().enumerate() {
            _mm256_storeu_si256(counters_out[j].as_mut_ptr().cast(), *counter);
        }
        _mm256_storeu_si256(sat_out.as_mut_ptr().cast(), sat);
        early
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift generator so tests need no RNG dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_table(num_bits: usize, rows: usize, seed: u64) -> GroupTable {
        let mut rng = XorShift(seed | 1);
        let mut table = GroupTable::new(num_bits);
        while table.len() < rows {
            let density = rng.next() % 64;
            let state = BitSet::from_indices(
                num_bits,
                (0..num_bits).filter(|_| (rng.next() % 64) < density),
            );
            table.observe(&state);
        }
        table
    }

    fn random_query(num_bits: usize, rng: &mut XorShift) -> BitSet {
        let density = rng.next() % 64;
        BitSet::from_indices(
            num_bits,
            (0..num_bits).filter(|_| (rng.next() % 64) < density),
        )
    }

    fn backends_under_test() -> Vec<ScanBackend> {
        if cfg!(miri) {
            vec![ScanBackend::Scalar]
        } else {
            ScanBackend::available()
        }
    }

    #[test]
    fn counter_plane_count_covers_threshold() {
        assert_eq!(counter_planes(0), 1);
        assert_eq!(counter_planes(1), 1);
        assert_eq!(counter_planes(3), 2);
        assert_eq!(counter_planes(4), 3);
        assert_eq!(counter_planes(63), 6);
        for d in 0..=MAX_SLICED_DISTANCE {
            let k = counter_planes(d);
            assert!((1u32 << k) > d, "K={k} cannot represent {d}");
        }
    }

    #[test]
    fn lane_mask_tracks_partial_blocks() {
        assert_eq!(lane_mask(256, 3), u64::MAX);
        assert_eq!(lane_mask(0, 0), 0);
        assert_eq!(lane_mask(65, 1), 1);
        assert_eq!(lane_mask(64, 0), u64::MAX);
        assert_eq!(lane_mask(63, 0), u64::MAX >> 1);
    }

    #[test]
    fn matches_naive_scan_on_every_backend() {
        let num_bits = 130; // multi-word rows, partial last word
        let table = random_table(num_bits, 300, 0x5eed); // partial second block
        let mut rng = XorShift(42);
        let queries: Vec<BitSet> = (0..8).map(|_| random_query(num_bits, &mut rng)).collect();
        for backend in backends_under_test() {
            let index = SlicedScanIndex::with_backend(&table, backend);
            for query in &queries {
                for max in [0, 1, 3, 7, 64, 130] {
                    assert_eq!(
                        index.candidates(query, max),
                        table.candidates(query, max),
                        "backend={} max={max}",
                        backend.name()
                    );
                }
                assert_eq!(
                    index.nearest(query),
                    table.nearest(query),
                    "backend={}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn backends_agree_bit_for_bit_including_profiles() {
        let table = random_table(96, 520, 7);
        let mut rng = XorShift(9);
        let queries: Vec<BitSet> = (0..6).map(|_| random_query(96, &mut rng)).collect();
        let reference = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        for backend in backends_under_test() {
            let index = SlicedScanIndex::with_backend(&table, backend);
            for query in &queries {
                let mut a = Vec::new();
                let mut b = Vec::new();
                let pa = reference.candidates_into(query, 5, &mut a);
                let pb = index.candidates_into(query, 5, &mut b);
                assert_eq!(a, b, "backend={}", backend.name());
                assert_eq!(pa, pb, "profile backend={}", backend.name());
            }
        }
    }

    #[test]
    fn batch_matches_single_queries_and_sums_profiles() {
        let table = random_table(70, 300, 0xbeef);
        let mut rng = XorShift(3);
        let queries: Vec<BitSet> = (0..10).map(|_| random_query(70, &mut rng)).collect();
        let refs: Vec<&BitSet> = queries.iter().collect();
        for backend in backends_under_test() {
            let index = SlicedScanIndex::with_backend(&table, backend);
            for max in [0, 2, 6, 80] {
                let mut batch = Vec::new();
                let batch_profile = index.candidates_batch_into(&refs, max, &mut batch);
                let mut sum = ScanProfile::default();
                for (query, got) in queries.iter().zip(&batch) {
                    let mut single = Vec::new();
                    let p = index.candidates_into(query, max, &mut single);
                    assert_eq!(got, &single, "backend={} max={max}", backend.name());
                    sum.rows += p.rows;
                    sum.pruned += p.pruned;
                    sum.blocks += p.blocks;
                    sum.early_stops += p.early_stops;
                }
                assert_eq!(batch_profile, sum, "backend={} max={max}", backend.name());
            }
            let mut batch = Vec::new();
            let _ = index.nearest_batch_into(&refs, &mut batch);
            for (query, got) in queries.iter().zip(&batch) {
                assert_eq!(got, &index.nearest(query), "backend={}", backend.name());
            }
        }
    }

    #[test]
    fn bucket_cascade_prunes_out_of_range_rows() {
        // One empty row plus popcount-8 rows, enough of them to build planes.
        let mut table = GroupTable::new(16);
        table.observe(&BitSet::from_indices(16, []));
        let mut rng = XorShift(13);
        while table.len() < SCAN_CROSSOVER_GROUPS {
            let mut bits: Vec<usize> = (0..16).collect();
            for i in (1..bits.len()).rev() {
                bits.swap(i, rng.next() as usize % (i + 1));
            }
            table.observe(&BitSet::from_indices(16, bits[..8].iter().copied()));
        }
        let n = table.len() as u32;
        let index = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        assert!(index.is_bitsliced());
        let query = BitSet::from_indices(16, [0, 1]);
        let mut out = Vec::new();
        // Popcounts 0 and 8 vs query popcount 2 at threshold 1: every row
        // falls outside the bucket range, no block is ever touched.
        let profile = index.candidates_into(&query, 1, &mut out);
        assert_eq!(profile.rows, n);
        assert_eq!(profile.pruned, n);
        assert_eq!(profile.blocks, 0);
        assert!(out.is_empty());
        // Threshold 2 admits the popcount-0 row: one block scanned.
        let profile = index.candidates_into(&query, 2, &mut out);
        assert_eq!(profile.pruned, n - 1);
        assert_eq!(profile.blocks, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_index_yields_empty_results() {
        let index = SlicedScanIndex::build(&GroupTable::new(4));
        assert!(index.is_empty());
        assert!(index.candidates(&BitSet::new(4), 4).is_empty());
        assert!(index.nearest(&BitSet::new(4)).is_empty());
        let query = BitSet::new(4);
        let mut batch = Vec::new();
        let profile = index.candidates_batch_into(&[&query], 4, &mut batch);
        assert_eq!(profile.rows, 0);
        assert!(batch[0].is_empty());
    }

    #[test]
    fn scratch_buffers_are_reused_without_reallocation() {
        let table = random_table(40, SCAN_CROSSOVER_GROUPS + 40, 11);
        let index = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        assert!(index.is_bitsliced());
        let mut out = Vec::with_capacity(table.len());
        let cap = out.capacity();
        let mut rng = XorShift(5);
        for _ in 0..4 {
            let query = random_query(40, &mut rng);
            let _ = index.candidates_into(&query, 40, &mut out);
            assert_eq!(out.capacity(), cap, "candidates_into must not grow");
            let _ = index.nearest_into(&query, &mut out);
            assert_eq!(out.capacity(), cap, "nearest_into must not grow");
        }
    }

    #[test]
    fn nearest_ties_come_back_in_group_order() {
        let mut table = GroupTable::new(3);
        table.observe(&BitSet::from_indices(3, [0]));
        table.observe(&BitSet::from_indices(3, [1]));
        let index = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        let query = BitSet::from_indices(3, [2]);
        assert_eq!(index.nearest(&query), table.nearest(&query));
        assert_eq!(index.nearest(&query).len(), 2);
    }

    #[test]
    fn multi_block_index_finds_candidates_in_every_block() {
        // > 256 rows forces a second block; identical popcounts keep them in
        // one bucket so both blocks are scanned.
        let num_bits = 600;
        let mut table = GroupTable::new(num_bits);
        for i in 0..300 {
            table.observe(&BitSet::from_indices(num_bits, [i, i + 300 - 1]));
        }
        let index = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        let query = BitSet::from_indices(num_bits, [0, 299]);
        assert_eq!(index.candidates(&query, 4), table.candidates(&query, 4));
        let mut out = Vec::new();
        let profile = index.candidates_into(&query, 4, &mut out);
        assert_eq!(profile.blocks, 2);
    }

    #[test]
    fn backend_names_and_gauge_values_are_stable() {
        assert_eq!(ScanBackend::Scalar.name(), "scalar");
        assert_eq!(ScanBackend::Avx2.name(), "avx2");
        assert_eq!(ScanBackend::Scalar.gauge_value(), 0);
        assert_eq!(ScanBackend::Avx2.gauge_value(), 2);
        assert!(ScanBackend::Scalar.is_supported());
        assert!(ScanBackend::available().contains(&ScanBackend::Scalar));
        assert!(ScanBackend::available().contains(&ScanBackend::detect()));
    }

    #[test]
    fn small_tables_scan_bands_and_large_tables_build_planes() {
        for groups in [1, SCAN_CROSSOVER_GROUPS / 4, SCAN_CROSSOVER_GROUPS - 1] {
            let index = SlicedScanIndex::build(&random_table(64, groups, 21));
            assert!(!index.is_bitsliced(), "{groups} groups");
            assert!(index.planes.is_empty(), "{groups} groups");
        }
        for groups in [SCAN_CROSSOVER_GROUPS, SCAN_CROSSOVER_GROUPS + 8] {
            let index = SlicedScanIndex::build(&random_table(64, groups, 21));
            assert!(index.is_bitsliced(), "{groups} groups");
            assert_eq!(index.len(), groups);
            assert_eq!(index.planes.len(), 64 * LANE_WORDS);
        }
    }

    #[test]
    fn both_routes_match_the_naive_scan() {
        for groups in [SCAN_CROSSOVER_GROUPS / 4, SCAN_CROSSOVER_GROUPS + 8] {
            let table = random_table(64, groups, 21);
            // Random queries plus trained rows with one bit flipped, so some
            // candidates fall inside the threshold.
            let mut rng = XorShift(17);
            let queries: Vec<BitSet> = (0..8)
                .map(|q| {
                    if q % 2 == 0 {
                        random_query(64, &mut rng)
                    } else {
                        let mut near = table.state(GroupId::new(q)).clone();
                        near.set(q as usize, !near.get(q as usize));
                        near
                    }
                })
                .collect();
            let refs: Vec<&BitSet> = queries.iter().collect();
            for backend in backends_under_test() {
                let index = SlicedScanIndex::with_backend(&table, backend);
                for query in &queries {
                    assert_eq!(index.candidates(query, 3), table.candidates(query, 3));
                    assert_eq!(index.nearest(query), table.nearest(query));
                }
                let mut batch = Vec::new();
                let _ = index.candidates_batch_into(&refs, 3, &mut batch);
                for (query, got) in queries.iter().zip(&batch) {
                    assert_eq!(got, &table.candidates(query, 3));
                }
                let _ = index.nearest_batch_into(&refs, &mut batch);
                for (query, got) in queries.iter().zip(&batch) {
                    assert_eq!(got, &table.nearest(query));
                }
            }
        }
    }

    #[test]
    fn band_route_reports_the_process_backend() {
        let index = SlicedScanIndex::build(&random_table(16, 4, 21));
        assert!(!index.is_bitsliced());
        assert_eq!(index.backend(), ScanBackend::detect());
    }

    #[test]
    fn batch_reuses_slots_without_stale_entries() {
        for groups in [8, SCAN_CROSSOVER_GROUPS + 8] {
            let table = random_table(32, groups, 21);
            let index = SlicedScanIndex::build(&table);
            let q1 = BitSet::from_indices(32, [0, 5]);
            let q2 = BitSet::from_indices(32, [1]);
            let mut batch = Vec::new();
            let _ = index.candidates_batch_into(&[&q1, &q2], 32, &mut batch);
            assert_eq!(batch.len(), 2);
            // A smaller follow-up batch must truncate the slot vector.
            let _ = index.candidates_batch_into(&[&q2], 0, &mut batch);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0], table.candidates(&q2, 0));
        }
    }

    #[test]
    #[should_panic(expected = "query width mismatch")]
    fn width_mismatch_panics() {
        let index = SlicedScanIndex::build(&random_table(8, 4, 1));
        let _ = index.candidates(&BitSet::new(4), 1);
    }
}
