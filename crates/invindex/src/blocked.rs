//! Blocked inverted index (paper Section 6.3).
//!
//! Each item's postings are sorted by **rank**; since ranks are integers
//! `0..k-1`, runs of equal rank form *blocks* `B_{i@j}` — the rankings in
//! which item `i` appears at rank `j`. The whole structure is one CSR
//! arena: a single contiguous `ids` array plus a `block_offsets` array of
//! `k + 1` absolute offsets per dense item, so addressing block `B_{i@j}`
//! is two loads and a slice and query processing can skip whole blocks
//! whose guaranteed partial distance `|j − q(i)|` already exceeds the
//! threshold.

use std::sync::Arc;

use ranksim_rankings::{ItemId, ItemRemap, RankingId, RankingStore};

/// The blocked, rank-partitioned inverted index.
#[derive(Debug, Clone)]
pub struct BlockedInvertedIndex {
    k: usize,
    remap: Arc<ItemRemap>,
    /// All postings, item-major, rank-major (then id-sorted) within each
    /// item.
    ids: Vec<RankingId>,
    /// `block_offsets[d * (k + 1) + j] .. block_offsets[d * (k + 1) + j + 1]`
    /// is block `B_{d@j}` inside `ids`; `k + 1` absolute offsets per dense
    /// item.
    block_offsets: Vec<u32>,
    indexed: usize,
    num_items: usize,
    /// Time spent sorting postings into blocks is part of construction;
    /// the per-query *resorting* overhead the paper discusses for the Yago
    /// dataset is modelled by the query-side block walk itself.
    pub build_sort_ops: u64,
}

impl BlockedInvertedIndex {
    /// Indexes every ranking of the store.
    pub fn build(store: &RankingStore) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), store.live_ids())
    }

    /// Indexes a subset of rankings (any order; blocks are rank-major).
    pub fn build_from<I: IntoIterator<Item = RankingId>>(store: &RankingStore, ids: I) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), ids)
    }

    /// Indexes a subset of rankings against a shared corpus remap.
    pub fn build_with_remap<I: IntoIterator<Item = RankingId>>(
        store: &RankingStore,
        remap: Arc<ItemRemap>,
        ids: I,
    ) -> Self {
        let k = store.k();
        let mut ids_in: Vec<RankingId> = ids.into_iter().collect();
        let m = remap.len();
        let stride = k + 1;
        // Counting sort over (dense item, rank): `block_offsets` doubles as
        // the per-(item, rank) counter during construction.
        let mut block_offsets = vec![0u32; m * stride + 1];
        for &id in &ids_in {
            for (rank, &item) in store.items(id).iter().enumerate() {
                // Unmapped items get no posting (partial remaps degrade
                // to empty blocks instead of aborting the rebuild).
                let Some(d) = remap.dense(item) else { continue };
                block_offsets[d as usize * stride + rank + 1] += 1;
            }
        }
        // The per-item `offsets[k]` slot (one short of the next item's
        // start) stays 0 in the counting pass — rank k never occurs — so a
        // single prefix sum turns the counts into absolute block offsets
        // with `offsets[d * stride + k] == offsets[(d + 1) * stride]`.
        for i in 1..block_offsets.len() {
            block_offsets[i] += block_offsets[i - 1];
        }
        let total = *block_offsets.last().unwrap_or(&0) as usize;
        let mut cursors: Vec<u32> = block_offsets[..m * stride].to_vec();
        let mut arena = vec![RankingId(0); total];
        // Iterating ids in ascending order keeps every block id-sorted
        // even when the caller supplied them unsorted; the original order
        // is not needed again, so sort in place.
        ids_in.sort_unstable();
        let mut build_sort_ops = 0u64;
        for &id in &ids_in {
            for (rank, &item) in store.items(id).iter().enumerate() {
                // Must skip exactly the items the counting pass skipped.
                let Some(d) = remap.dense(item) else { continue };
                let c = &mut cursors[d as usize * stride + rank];
                arena[*c as usize] = id;
                *c += 1;
                build_sort_ops += 1;
            }
        }
        let num_items = (0..m)
            .filter(|&d| block_offsets[d * stride] < block_offsets[d * stride + k])
            .count();
        BlockedInvertedIndex {
            k,
            remap,
            ids: arena,
            block_offsets,
            indexed: ids_in.len(),
            num_items,
            build_sort_ops,
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

    /// Block `B_{item@rank}`: the rankings holding `item` at `rank`.
    #[inline]
    pub fn block(&self, item: ItemId, rank: u32) -> &[RankingId] {
        match self.remap.dense(item) {
            Some(d) => {
                let base = d as usize * (self.k + 1) + rank as usize;
                let lo = self.block_offsets[base] as usize;
                let hi = self.block_offsets[base + 1] as usize;
                &self.ids[lo..hi]
            }
            None => &[],
        }
    }

    /// Total postings for `item`.
    #[inline]
    pub fn list_len(&self, item: ItemId) -> usize {
        match self.remap.dense(item) {
            Some(d) => {
                let base = d as usize * (self.k + 1);
                (self.block_offsets[base + self.k] - self.block_offsets[base]) as usize
            }
            None => 0,
        }
    }

    /// Exact heap footprint in bytes (Table 6 reporting).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ids.capacity() * std::mem::size_of::<RankingId>()
            + self.block_offsets.capacity() * std::mem::size_of::<u32>()
            + self.remap.heap_bytes()
    }

    /// Decomposes the index into its flat persistence form.
    #[doc(hidden)]
    pub fn export_parts(&self) -> BlockedIndexParts {
        BlockedIndexParts {
            k: self.k as u32,
            indexed: self.indexed as u32,
            block_offsets: self.block_offsets.clone(),
            ids: ranksim_rankings::ranking_vec_into_u32(self.ids.clone()),
        }
    }

    /// Rebuilds the index from its flat persistence form against the
    /// corpus remap, validating the strided block-offset invariants.
    #[doc(hidden)]
    pub fn from_parts(parts: BlockedIndexParts, remap: Arc<ItemRemap>) -> Result<Self, String> {
        let k = parts.k as usize;
        if k == 0 {
            return Err("blocked index k must be positive".into());
        }
        let m = remap.len();
        let stride = k + 1;
        if parts.block_offsets.len() != m * stride + 1 {
            return Err(format!(
                "block offsets length {} != remap size {} × (k + 1) + 1",
                parts.block_offsets.len(),
                m
            ));
        }
        if parts.block_offsets.first().copied().unwrap_or(0) != 0 {
            return Err("block offsets must start at 0".into());
        }
        if parts.block_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("block offsets not monotone".into());
        }
        let end = parts.block_offsets.last().copied().unwrap_or(0) as usize;
        if end != parts.ids.len() {
            return Err(format!(
                "block offsets end {end} != posting arena length {}",
                parts.ids.len()
            ));
        }
        let num_items = (0..m)
            .filter(|&d| parts.block_offsets[d * stride] < parts.block_offsets[d * stride + k])
            .count();
        Ok(BlockedInvertedIndex {
            k,
            remap,
            ids: ranksim_rankings::ranking_vec_from_u32(parts.ids),
            block_offsets: parts.block_offsets,
            indexed: parts.indexed as usize,
            num_items,
            build_sort_ops: 0,
        })
    }
}

/// Flat persistence form of a [`BlockedInvertedIndex`]. `build_sort_ops`
/// is a construction-time statistic and resets to 0 on load.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct BlockedIndexParts {
    pub k: u32,
    pub indexed: u32,
    pub block_offsets: Vec<u32>,
    pub ids: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;

    #[test]
    fn blocks_partition_each_list_by_rank() {
        let store = random_store(180, 6, 50, 9);
        let idx = BlockedInvertedIndex::build(&store);
        for item in 0..50u32 {
            let item = ItemId(item);
            let mut total = 0usize;
            for rank in 0..6u32 {
                let block = idx.block(item, rank);
                for &id in block {
                    assert_eq!(store.items(id)[rank as usize], item);
                }
                assert!(block.windows(2).all(|w| w[0] < w[1]), "block not id-sorted");
                total += block.len();
            }
            assert_eq!(total, idx.list_len(item));
        }
    }

    #[test]
    fn partial_remap_degrades_to_empty_blocks() {
        let mut store = RankingStore::new(3);
        store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        store.push_items_unchecked(&[2, 3, 4].map(ItemId));
        let remap = Arc::new(ItemRemap::from_raw_ids(vec![1, 2]));
        let idx = BlockedInvertedIndex::build_with_remap(&store, remap, store.live_ids());
        // Mapped items keep their rank-partitioned blocks at true store
        // ranks…
        assert_eq!(idx.block(ItemId(1), 0), &[RankingId(0)]);
        assert_eq!(idx.block(ItemId(2), 0), &[RankingId(1)]);
        assert_eq!(idx.block(ItemId(2), 1), &[RankingId(0)]);
        // …while unmapped items have none, rather than a panicking build.
        assert_eq!(idx.list_len(ItemId(3)), 0);
        assert_eq!(idx.list_len(ItemId(4)), 0);
        assert_eq!(idx.block(ItemId(4), 0), &[] as &[RankingId]);
    }

    #[test]
    fn unsorted_subset_build_keeps_blocks_id_sorted() {
        let store = random_store(90, 5, 30, 21);
        let mut subset: Vec<RankingId> = store.ids().filter(|id| id.0 % 2 == 1).collect();
        subset.reverse();
        let idx = BlockedInvertedIndex::build_from(&store, subset);
        for item in 0..30u32 {
            for rank in 0..5u32 {
                let block = idx.block(ItemId(item), rank);
                assert!(block.windows(2).all(|w| w[0] < w[1]));
                for &id in block {
                    assert_eq!(id.0 % 2, 1);
                }
            }
        }
    }

    #[test]
    fn paper_figure4_blocks() {
        // Figure 4 of the paper: blocks of the inverted index for Table 4
        // (plus τ10 which the figure references but Table 4 omits; we only
        // check items over the 10 rankings of Table 4).
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
        let idx = BlockedInvertedIndex::build(&store);
        // item 1 at rank 0: τ0, τ1, τ6.
        assert_eq!(
            idx.block(ItemId(1), 0),
            &[RankingId(0), RankingId(1), RankingId(6)]
        );
        // item 1 at rank 1: τ3, τ4, τ7.
        assert_eq!(
            idx.block(ItemId(1), 1),
            &[RankingId(3), RankingId(4), RankingId(7)]
        );
        // item 3 at rank 1: τ9 only.
        assert_eq!(idx.block(ItemId(3), 1), &[RankingId(9)]);
        // item 4 at rank 0: τ5 only.
        assert_eq!(idx.block(ItemId(4), 0), &[RankingId(5)]);
        // absent item: empty everywhere.
        assert!(idx.block(ItemId(42), 0).is_empty());
    }
}
