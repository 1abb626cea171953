//! Plain inverted index: item → id-sorted list of rankings containing it.
//!
//! Postings live in a compressed-sparse-row (CSR) layout: a shared
//! [`ItemRemap`] turns an item id into a dense coordinate, `offsets`
//! addresses that item's slice of one contiguous `postings` array. A query
//! item's list is therefore two loads and a slice — no hash probe, no
//! per-item heap allocation. Each slice is id-sorted: the one posting
//! layout every inverted-index algorithm of the paper scans.

use std::sync::Arc;

use ranksim_rankings::{ItemId, ItemRemap, RankingId, RankingStore};

/// The classic set-valued-attribute inverted index (paper Section 4).
///
/// Postings carry no rank information; the validation phase must fetch the
/// ranking content from the [`RankingStore`] to evaluate distances.
#[derive(Debug, Clone)]
pub struct PlainInvertedIndex {
    k: usize,
    remap: Arc<ItemRemap>,
    /// `offsets[d]..offsets[d + 1]` is the postings slice of dense item `d`.
    offsets: Vec<u32>,
    /// All postings, item-major, id-sorted within each item.
    postings: Vec<RankingId>,
    indexed: usize,
    num_items: usize,
}

impl PlainInvertedIndex {
    /// Indexes every ranking of the store.
    pub fn build(store: &RankingStore) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), store.live_ids())
    }

    /// Indexes a subset of rankings. Ids must be supplied in ascending
    /// order so that postings lists stay id-sorted.
    pub fn build_from<I: IntoIterator<Item = RankingId>>(store: &RankingStore, ids: I) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), ids)
    }

    /// Indexes a subset of rankings against a shared corpus remap (ids in
    /// ascending order). The engine builds one remap per corpus and shares
    /// it across all index structures; items the remap does not cover get
    /// no posting (the ranking stays findable through its mapped items),
    /// so a partial remap degrades results instead of panicking.
    pub fn build_with_remap<I: IntoIterator<Item = RankingId>>(
        store: &RankingStore,
        remap: Arc<ItemRemap>,
        ids: I,
    ) -> Self {
        let ids: Vec<RankingId> = ids.into_iter().collect();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        let m = remap.len();
        // Counting sort over dense item ids; iterating `ids` in ascending
        // order keeps every per-item slice id-sorted.
        let mut offsets = vec![0u32; m + 1];
        for &id in &ids {
            for &item in store.items(id) {
                // An item absent from the remap simply gets no posting:
                // the ranking stays findable through its mapped items and
                // the query side already treats unmapped items as empty
                // lists, so a partial remap degrades instead of aborting.
                let Some(d) = remap.dense(item) else { continue };
                offsets[d as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = *offsets.last().unwrap_or(&0) as usize;
        let mut cursors: Vec<u32> = offsets[..m].to_vec();
        let mut postings = vec![RankingId(0); total];
        for &id in &ids {
            for &item in store.items(id) {
                // Must skip exactly the items the counting pass skipped.
                let Some(d) = remap.dense(item) else { continue };
                let d = d as usize;
                postings[cursors[d] as usize] = id;
                cursors[d] += 1;
            }
        }
        let num_items = (0..m).filter(|&d| offsets[d] < offsets[d + 1]).count();
        PlainInvertedIndex {
            k: store.k(),
            remap,
            offsets,
            postings,
            indexed: ids.len(),
            num_items,
        }
    }

    /// The ranking size the index was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rankings indexed.
    pub fn indexed(&self) -> usize {
        self.indexed
    }

    /// Number of distinct items with at least one posting.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The shared item remap backing the CSR layout.
    #[inline]
    pub fn remap(&self) -> &Arc<ItemRemap> {
        &self.remap
    }

    /// The id-sorted postings list for `item`; `None`
    /// if the item is not in the corpus remap (the slice may be empty for
    /// subset builds).
    #[inline]
    pub fn list(&self, item: ItemId) -> Option<&[RankingId]> {
        let d = self.remap.dense(item)? as usize;
        Some(&self.postings[self.offsets[d] as usize..self.offsets[d + 1] as usize])
    }

    /// Length of the postings list for `item` (0 if absent).
    #[inline]
    pub fn list_len(&self, item: ItemId) -> usize {
        self.list(item).map(|l| l.len()).unwrap_or(0)
    }

    /// Exact heap footprint in bytes (Table 6 reporting): the index header,
    /// the two CSR arrays, and the item remap (shared remaps are counted in
    /// every index holding them).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.postings.capacity() * std::mem::size_of::<RankingId>()
            + self.remap.heap_bytes()
    }

    /// Decomposes the index into its flat persistence form (the shared
    /// remap is persisted once by the engine, not per index).
    #[doc(hidden)]
    pub fn export_parts(&self) -> PlainIndexParts {
        PlainIndexParts {
            k: self.k as u32,
            indexed: self.indexed as u32,
            offsets: self.offsets.clone(),
            postings: ranksim_rankings::ranking_vec_into_u32(self.postings.clone()),
        }
    }

    /// Rebuilds the index from its flat persistence form against the
    /// corpus remap, validating the CSR invariants (monotone offsets
    /// covering the postings arena, one offsets row per dense item).
    #[doc(hidden)]
    pub fn from_parts(parts: PlainIndexParts, remap: Arc<ItemRemap>) -> Result<Self, String> {
        validate_csr(&parts.offsets, parts.postings.len(), remap.len())?;
        let m = remap.len();
        let num_items = (0..m)
            .filter(|&d| parts.offsets[d] < parts.offsets[d + 1])
            .count();
        Ok(PlainInvertedIndex {
            k: parts.k as usize,
            remap,
            offsets: parts.offsets,
            postings: ranksim_rankings::ranking_vec_from_u32(parts.postings),
            indexed: parts.indexed as usize,
            num_items,
        })
    }
}

/// Flat persistence form of a [`PlainInvertedIndex`].
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct PlainIndexParts {
    pub k: u32,
    pub indexed: u32,
    pub offsets: Vec<u32>,
    pub postings: Vec<u32>,
}

/// Validates a CSR offsets array: `m + 1` monotone entries whose last
/// offset covers the arena exactly.
pub(crate) fn validate_csr(offsets: &[u32], arena_len: usize, m: usize) -> Result<(), String> {
    if offsets.len() != m + 1 {
        return Err(format!(
            "CSR offsets length {} != remap size {} + 1",
            offsets.len(),
            m
        ));
    }
    if offsets.first().copied().unwrap_or(0) != 0 {
        return Err("CSR offsets must start at 0".into());
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("CSR offsets not monotone".into());
    }
    let end = offsets.last().copied().unwrap_or(0) as usize;
    if end != arena_len {
        return Err(format!(
            "CSR offsets end {end} != postings arena length {arena_len}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;

    #[test]
    fn lists_are_id_sorted_and_complete() {
        let store = random_store(200, 6, 50, 1);
        let idx = PlainInvertedIndex::build(&store);
        assert_eq!(idx.indexed(), 200);
        let mut postings = 0usize;
        for item in 0..50u32 {
            if let Some(list) = idx.list(ItemId(item)) {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted list");
                for &id in list {
                    assert!(store.items(id).contains(&ItemId(item)));
                }
                postings += list.len();
            }
        }
        assert_eq!(postings, 200 * 6, "every (ranking, item) pair indexed once");
    }

    #[test]
    fn subset_build_only_covers_subset() {
        let store = random_store(100, 5, 40, 2);
        let subset: Vec<RankingId> = store.ids().filter(|id| id.0 % 3 == 0).collect();
        let idx = PlainInvertedIndex::build_from(&store, subset.iter().copied());
        assert_eq!(idx.indexed(), subset.len());
        for item in 0..40u32 {
            if let Some(list) = idx.list(ItemId(item)) {
                for &id in list {
                    assert_eq!(id.0 % 3, 0);
                }
            }
        }
    }

    #[test]
    fn partial_remap_degrades_to_empty_postings() {
        let mut store = RankingStore::new(3);
        store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        store.push_items_unchecked(&[2, 3, 4].map(ItemId));
        // The remap deliberately misses items 3 and 4: those items get
        // no posting, everything else indexes normally — no panic.
        let remap = Arc::new(ItemRemap::from_raw_ids(vec![1, 2]));
        let idx = PlainInvertedIndex::build_with_remap(&store, remap, store.live_ids());
        assert_eq!(idx.indexed(), 2);
        assert_eq!(idx.list(ItemId(1)).unwrap(), &[RankingId(0)]);
        assert_eq!(idx.list(ItemId(2)).unwrap(), &[RankingId(0), RankingId(1)]);
        assert_eq!(idx.list(ItemId(3)), None);
        assert_eq!(idx.list_len(ItemId(4)), 0);
    }

    #[test]
    fn avg_list_len_matches_hand_count() {
        let mut store = RankingStore::new(2);
        store.push_items_unchecked(&[1, 2].map(ItemId));
        store.push_items_unchecked(&[1, 3].map(ItemId));
        store.push_items_unchecked(&[1, 4].map(ItemId));
        let idx = PlainInvertedIndex::build(&store);
        // lists: 1→3 entries, 2→1, 3→1, 4→1 ⇒ avg 6/4.
        assert_eq!(idx.num_items(), 4);
        let total: usize = (1..=4).map(|i| idx.list_len(ItemId(i))).sum();
        assert!((total as f64 / idx.num_items() as f64 - 1.5).abs() < 1e-12);
        assert_eq!(idx.list_len(ItemId(1)), 3);
        assert_eq!(idx.list_len(ItemId(99)), 0);
    }

    #[test]
    fn heap_bytes_is_exact() {
        let mut store = RankingStore::new(3);
        store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        store.push_items_unchecked(&[2, 3, 4].map(ItemId));
        let idx = PlainInvertedIndex::build(&store);
        // 4 distinct items → 5 offsets; 2 rankings × k=3 → 6 postings; the
        // build sizes both arrays exactly, so capacity == len.
        let expected = std::mem::size_of::<PlainInvertedIndex>()
            + 5 * std::mem::size_of::<u32>()
            + 6 * std::mem::size_of::<RankingId>()
            + idx.remap().heap_bytes();
        assert_eq!(idx.heap_bytes(), expected);
    }
}
