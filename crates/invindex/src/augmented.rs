//! Rank-augmented inverted index: item → id-sorted `(ranking, rank)`
//! postings (paper Section 6.2).
//!
//! Carrying the rank in the posting lets algorithms compute Footrule
//! contributions on the fly — ListMerge finalizes exact distances during
//! the merge and the partial-information algorithms derive their bounds —
//! without ever touching the ranking store. Postings live in a CSR layout
//! (see [`crate::PlainInvertedIndex`]): one contiguous array addressed by
//! dense-item offsets, so ListMerge's k cursors walk one flat allocation.
//! Each item's slice is id-sorted, which ListMerge's aggregation relies
//! on for its sequential cell access and its id-sorted output.

use std::sync::Arc;

use ranksim_rankings::{ItemId, ItemRemap, RankingId, RankingStore};

/// One posting: a ranking containing the item, and the rank it holds there.
///
/// `repr(C)` pins the layout to two consecutive little-endian-persistable
/// `u32`s (8 bytes, no padding) so the persistence layer can round-trip
/// the postings arena as raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Posting {
    /// The ranking containing the item.
    pub id: RankingId,
    /// The rank (`0..k-1`) of the item inside that ranking.
    pub rank: u32,
}

/// The rank-augmented inverted index.
#[derive(Debug, Clone)]
pub struct AugmentedInvertedIndex {
    k: usize,
    remap: Arc<ItemRemap>,
    /// `offsets[d]..offsets[d + 1]` is the postings slice of dense item `d`.
    offsets: Vec<u32>,
    /// All postings, item-major, id-sorted within each item.
    postings: Vec<Posting>,
    indexed: usize,
    num_items: usize,
}

impl AugmentedInvertedIndex {
    /// Indexes every ranking of the store.
    pub fn build(store: &RankingStore) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), store.live_ids())
    }

    /// Indexes a subset of rankings (ids in ascending order).
    pub fn build_from<I: IntoIterator<Item = RankingId>>(store: &RankingStore, ids: I) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), ids)
    }

    /// Indexes a subset of rankings against a shared corpus remap (ids in
    /// ascending order).
    pub fn build_with_remap<I: IntoIterator<Item = RankingId>>(
        store: &RankingStore,
        remap: Arc<ItemRemap>,
        ids: I,
    ) -> Self {
        let ids: Vec<RankingId> = ids.into_iter().collect();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        let m = remap.len();
        let mut offsets = vec![0u32; m + 1];
        for &id in &ids {
            for &item in store.items(id) {
                // Unmapped items get no posting (partial remaps degrade
                // to empty lists instead of aborting the rebuild).
                let Some(d) = remap.dense(item) else { continue };
                offsets[d as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = *offsets.last().unwrap_or(&0) as usize;
        let mut cursors: Vec<u32> = offsets[..m].to_vec();
        let mut postings = vec![
            Posting {
                id: RankingId(0),
                rank: 0
            };
            total
        ];
        for &id in &ids {
            for (rank, &item) in store.items(id).iter().enumerate() {
                // Must skip exactly the items the counting pass skipped;
                // `rank` still reflects the item's true store position.
                let Some(d) = remap.dense(item) else { continue };
                let d = d as usize;
                postings[cursors[d] as usize] = Posting {
                    id,
                    rank: rank as u32,
                };
                cursors[d] += 1;
            }
        }
        let num_items = (0..m).filter(|&d| offsets[d] < offsets[d + 1]).count();
        AugmentedInvertedIndex {
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

    /// The whole contiguous postings array (ListMerge slices it through
    /// [`AugmentedInvertedIndex::list_range`]).
    #[inline]
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// The `[start, end)` range of `item`'s postings inside
    /// [`AugmentedInvertedIndex::postings`]; `(0, 0)` if the item is
    /// absent.
    #[inline]
    pub fn list_range(&self, item: ItemId) -> (u32, u32) {
        match self.remap.dense(item) {
            Some(d) => (self.offsets[d as usize], self.offsets[d as usize + 1]),
            None => (0, 0),
        }
    }

    /// The id-sorted postings list for `item`, if the item is in the
    /// corpus remap.
    #[inline]
    pub fn list(&self, item: ItemId) -> Option<&[Posting]> {
        let d = self.remap.dense(item)? as usize;
        Some(&self.postings[self.offsets[d] as usize..self.offsets[d + 1] as usize])
    }

    /// Length of the postings list for `item` (0 if absent).
    #[inline]
    pub fn list_len(&self, item: ItemId) -> usize {
        self.list(item).map(|l| l.len()).unwrap_or(0)
    }

    /// Exact heap footprint in bytes (Table 6 reporting).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.postings.capacity() * std::mem::size_of::<Posting>()
            + self.remap.heap_bytes()
    }

    /// Decomposes the index into its flat persistence form. Postings are
    /// split into `u32` id/rank planes (the `repr(C)` pair itself could be
    /// persisted raw, but planes keep every section a plain `u32` array).
    #[doc(hidden)]
    pub fn export_parts(&self) -> AugmentedIndexParts {
        let mut ids = Vec::with_capacity(self.postings.len());
        let mut ranks = Vec::with_capacity(self.postings.len());
        for p in &self.postings {
            ids.push(p.id.0);
            ranks.push(p.rank);
        }
        AugmentedIndexParts {
            k: self.k as u32,
            indexed: self.indexed as u32,
            offsets: self.offsets.clone(),
            ids,
            ranks,
        }
    }

    /// Rebuilds the index from its flat persistence form against the
    /// corpus remap, validating the CSR invariants and rank bounds.
    #[doc(hidden)]
    pub fn from_parts(parts: AugmentedIndexParts, remap: Arc<ItemRemap>) -> Result<Self, String> {
        crate::plain::validate_csr(&parts.offsets, parts.ids.len(), remap.len())?;
        if parts.ids.len() != parts.ranks.len() {
            return Err("augmented posting id/rank planes disagree".into());
        }
        let k = parts.k as usize;
        if let Some(bad) = parts.ranks.iter().find(|&&r| r as usize >= k.max(1)) {
            return Err(format!("posting rank {bad} out of bounds for k {k}"));
        }
        let postings = parts
            .ids
            .iter()
            .zip(&parts.ranks)
            .map(|(&id, &rank)| Posting {
                id: RankingId(id),
                rank,
            })
            .collect();
        let m = remap.len();
        let num_items = (0..m)
            .filter(|&d| parts.offsets[d] < parts.offsets[d + 1])
            .count();
        Ok(AugmentedInvertedIndex {
            k,
            remap,
            offsets: parts.offsets,
            postings,
            indexed: parts.indexed as usize,
            num_items,
        })
    }
}

/// Flat persistence form of an [`AugmentedInvertedIndex`].
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct AugmentedIndexParts {
    pub k: u32,
    pub indexed: u32,
    pub offsets: Vec<u32>,
    pub ids: Vec<u32>,
    pub ranks: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;

    #[test]
    fn postings_carry_correct_ranks() {
        let store = random_store(150, 7, 60, 4);
        let idx = AugmentedInvertedIndex::build(&store);
        for item in 0..60u32 {
            if let Some(list) = idx.list(ItemId(item)) {
                assert!(list.windows(2).all(|w| w[0].id < w[1].id));
                for p in list {
                    assert_eq!(store.items(p.id)[p.rank as usize], ItemId(item));
                }
            }
        }
    }

    #[test]
    fn partial_remap_degrades_to_empty_postings() {
        let mut store = RankingStore::new(3);
        store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        store.push_items_unchecked(&[2, 3, 4].map(ItemId));
        let remap = Arc::new(ItemRemap::from_raw_ids(vec![1, 2]));
        let idx = AugmentedInvertedIndex::build_with_remap(&store, remap, store.live_ids());
        // Mapped items keep postings with their true store ranks…
        let l2 = idx.list(ItemId(2)).unwrap();
        assert_eq!(l2.len(), 2);
        assert_eq!((l2[0].id, l2[0].rank), (RankingId(0), 1));
        assert_eq!((l2[1].id, l2[1].rank), (RankingId(1), 0));
        // …while unmapped items have none, rather than a panicking build.
        assert_eq!(idx.list(ItemId(3)), None);
        assert_eq!(idx.list_range(ItemId(4)), (0, 0));
    }

    #[test]
    fn list_range_slices_the_shared_postings_array() {
        let store = random_store(120, 5, 40, 6);
        let idx = AugmentedInvertedIndex::build(&store);
        for item in 0..45u32 {
            let (s, e) = idx.list_range(ItemId(item));
            let via_range = &idx.postings()[s as usize..e as usize];
            let via_list = idx.list(ItemId(item)).unwrap_or(&[]);
            assert_eq!(via_range, via_list);
        }
        assert_eq!(idx.list_range(ItemId(9999)), (0, 0));
    }

    #[test]
    fn paper_example_index_list() {
        // Table 4 / Section 6.2: item 7 appears in τ3 at rank 0, τ6 at rank
        // 4 and τ7 at rank 0.
        let rankings: [[u32; 5]; 10] = [
            [1, 2, 3, 4, 5],
            [1, 2, 9, 8, 3],
            [9, 8, 1, 2, 4],
            [7, 1, 9, 4, 5],
            [6, 1, 5, 2, 3],
            [4, 5, 1, 2, 3],
            [1, 6, 2, 3, 7],
            [7, 1, 6, 5, 2],
            [2, 5, 9, 8, 1],
            [6, 3, 2, 1, 4],
        ];
        let mut store = RankingStore::new(5);
        for r in rankings {
            store.push_items_unchecked(&r.map(ItemId));
        }
        let idx = AugmentedInvertedIndex::build(&store);
        let list7 = idx.list(ItemId(7)).unwrap();
        assert_eq!(
            list7,
            &[
                Posting {
                    id: RankingId(3),
                    rank: 0
                },
                Posting {
                    id: RankingId(6),
                    rank: 4
                },
                Posting {
                    id: RankingId(7),
                    rank: 0
                },
            ]
        );
    }
}
