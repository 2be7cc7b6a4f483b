//! Bookkeeping for the candidate scan.
//!
//! The correlation check is DICE's per-window hot path: every window without
//! an exact group match is compared against *all* groups by Hamming distance
//! (Figure 3.5). [`SlicedScanIndex`](crate::SlicedScanIndex) serves that scan;
//! each of its entry points returns a [`ScanProfile`] saying what it did, so
//! the engine can report prefilter effectiveness as telemetry. The tests here
//! pin the index's small-table route, the row-by-row popcount-band scan, to
//! the naive [`GroupTable`](crate::GroupTable) scans.

/// What one candidate scan did: how many group rows it visited and how many
/// the popcount prefilter rejected before any XOR work.
///
/// `pruned / rows` is the prefilter hit rate. For a candidate scan, `pruned`
/// counts the rows whose popcount lies more than the threshold away from
/// the query's; for a nearest-group scan, the rows outside the popcount
/// buckets the walk visited.
///
/// # Example
///
/// ```
/// use dice_core::{BitSet, GroupTable, ScanProfile, SlicedScanIndex};
///
/// let mut table = GroupTable::new(5);
/// table.observe(&BitSet::from_indices(5, []));
/// table.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
/// let index = SlicedScanIndex::build(&table);
///
/// // Popcounts 0 and 5 are both more than 1 away from the query's 2.
/// let mut out = Vec::new();
/// let profile = index.candidates_into(&BitSet::from_indices(5, [0, 1]), 1, &mut out);
/// assert!(out.is_empty());
/// assert_eq!(profile, ScanProfile { rows: 2, pruned: 2, ..ScanProfile::default() });
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanProfile {
    /// Group rows considered (the whole index, for a full scan).
    pub rows: u32,
    /// Rows rejected by the popcount lower bound alone, skipped as whole
    /// bucket ranges.
    pub pruned: u32,
    /// Bit-sliced blocks visited (always 0 for a table too small for planes).
    pub blocks: u32,
    /// Blocks abandoned early once every lane saturated past the threshold
    /// (always 0 for a table too small for planes).
    pub early_stops: u32,
}

impl ScanProfile {
    /// Adds another profile's counts into this one (element-wise), for
    /// callers that merge the work of several scans into one report.
    pub fn absorb(&mut self, other: ScanProfile) {
        self.rows += other.rows;
        self.pruned += other.pruned;
        self.blocks += other.blocks;
        self.early_stops += other.early_stops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::groups::GroupTable;
    use crate::scan_sliced::SlicedScanIndex;
    use dice_types::GroupId;

    fn table() -> GroupTable {
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::from_indices(5, [0, 1])); // G0
        t.observe(&BitSet::from_indices(5, [3, 4])); // G1
        t.observe(&BitSet::from_indices(5, [0, 1, 2])); // G2
        t
    }

    #[test]
    fn build_mirrors_table_rows() {
        let t = table();
        let idx = SlicedScanIndex::build(&t);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert_eq!(idx.num_bits(), 5);
        assert!(!idx.is_bitsliced());
    }

    #[test]
    fn candidates_match_naive_scan() {
        let t = table();
        let idx = SlicedScanIndex::build(&t);
        for max in 0..=5 {
            for query in [
                BitSet::from_indices(5, [0, 1, 3]),
                BitSet::from_indices(5, []),
                BitSet::from_indices(5, [0, 1, 2, 3, 4]),
            ] {
                assert_eq!(
                    idx.candidates(&query, max),
                    t.candidates(&query, max),
                    "max_distance={max}, query={query}"
                );
            }
        }
    }

    #[test]
    fn nearest_matches_naive_scan_including_ties() {
        let mut t = GroupTable::new(3);
        t.observe(&BitSet::from_indices(3, [0]));
        t.observe(&BitSet::from_indices(3, [1]));
        let idx = SlicedScanIndex::build(&t);
        // Query {2}: both groups tie at distance 2.
        let q = BitSet::from_indices(3, [2]);
        assert_eq!(idx.nearest(&q), t.nearest(&q));
        assert_eq!(idx.nearest(&q).len(), 2);
    }

    #[test]
    fn empty_index_yields_empty_results() {
        let idx = SlicedScanIndex::build(&GroupTable::new(4));
        assert!(idx.is_empty());
        assert!(idx.candidates(&BitSet::new(4), 4).is_empty());
        assert!(idx.nearest(&BitSet::new(4)).is_empty());
    }

    #[test]
    fn scratch_buffers_are_reused_without_reallocation() {
        let t = table();
        let idx = SlicedScanIndex::build(&t);
        let mut out = Vec::with_capacity(t.len());
        let cap = out.capacity();
        let queries = [
            BitSet::from_indices(5, [0, 1]),
            BitSet::from_indices(5, [3]),
            BitSet::from_indices(5, [0, 2, 4]),
        ];
        for q in &queries {
            let _ = idx.candidates_into(q, 5, &mut out);
            assert_eq!(out.capacity(), cap, "candidates_into must not grow");
            let _ = idx.nearest_into(q, &mut out);
            assert_eq!(out.capacity(), cap, "nearest_into must not grow");
        }
    }

    #[test]
    fn scan_profile_counts_visited_and_pruned_rows() {
        // Popcounts 0 and 5 against a 2-bit query: with threshold 1 the
        // prefilter rejects both rows (gaps 2 and 3) before any XOR work.
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::from_indices(5, []));
        t.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
        let idx = SlicedScanIndex::build(&t);
        let q = BitSet::from_indices(5, [0, 1]);
        let mut out = Vec::new();
        let profile = idx.candidates_into(&q, 1, &mut out);
        assert_eq!(
            profile,
            ScanProfile {
                rows: 2,
                pruned: 2,
                ..ScanProfile::default()
            }
        );
        assert!(out.is_empty());
        // Threshold 2 admits the popcount-0 row past the prefilter.
        let profile = idx.candidates_into(&q, 2, &mut out);
        assert_eq!(
            profile,
            ScanProfile {
                rows: 2,
                pruned: 1,
                ..ScanProfile::default()
            }
        );
        // nearest_into walks buckets outward from popcount 2: the empty-set
        // row (gap 2, distance 2) ends the walk before the popcount-5 row,
        // which counts as pruned.
        let profile = idx.nearest_into(&q, &mut out);
        assert_eq!(
            profile,
            ScanProfile {
                rows: 2,
                pruned: 1,
                ..ScanProfile::default()
            }
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn popcount_prefilter_does_not_drop_true_candidates() {
        // Groups engineered so the prefilter fires: popcounts 0 and 5.
        let mut t = GroupTable::new(5);
        t.observe(&BitSet::from_indices(5, []));
        t.observe(&BitSet::from_indices(5, [0, 1, 2, 3, 4]));
        let idx = SlicedScanIndex::build(&t);
        let q = BitSet::from_indices(5, [0, 1]);
        // d(G0)=2, d(G1)=3; threshold 2 keeps only G0.
        let c = idx.candidates(&q, 2);
        assert_eq!(c, t.candidates(&q, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].group, GroupId::new(0));
    }

    #[test]
    fn multiword_rows_scan_correctly() {
        let mut t = GroupTable::new(130);
        t.observe(&BitSet::from_indices(130, [0, 64, 129]));
        t.observe(&BitSet::from_indices(130, [1, 65]));
        let idx = SlicedScanIndex::build(&t);
        let q = BitSet::from_indices(130, [0, 64]);
        assert_eq!(idx.candidates(&q, 130), t.candidates(&q, 130));
        assert_eq!(idx.nearest(&q), t.nearest(&q));
    }

    #[test]
    #[should_panic(expected = "query width mismatch")]
    fn width_mismatch_panics() {
        let idx = SlicedScanIndex::build(&table());
        let _ = idx.nearest(&BitSet::new(4));
    }
}
