//! The `RoutedScanIndex` name, kept for callers written before
//! [`SlicedScanIndex`] chose its own route by table size.

use crate::scan_sliced::SlicedScanIndex;

/// Alias of [`SlicedScanIndex`] for callers that still use this name.
///
/// The index routes itself: tables below
/// [`SCAN_CROSSOVER_GROUPS`](crate::SCAN_CROSSOVER_GROUPS) groups scan
/// popcount bands row by row, larger tables build bit-sliced planes.
///
/// # Example
///
/// ```
/// use dice_core::{BitSet, GroupTable, RoutedScanIndex};
///
/// let mut table = GroupTable::new(5);
/// table.observe(&BitSet::from_indices(5, [0, 1]));
/// table.observe(&BitSet::from_indices(5, [3, 4]));
/// let index = RoutedScanIndex::build(&table);
/// assert!(!index.is_bitsliced()); // 2 groups scan row by row
///
/// let query = BitSet::from_indices(5, [0]);
/// assert_eq!(index.candidates(&query, 1), table.candidates(&query, 1));
/// ```
pub type RoutedScanIndex = SlicedScanIndex;
