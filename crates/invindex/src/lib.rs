//! Inverted-index structures and query-processing algorithms for
//! top-k-list similarity search.
//!
//! Rankings are sets with rank information, so they can be indexed in
//! classical inverted indices (Helmer & Moerkotte, VLDB J. 2003). This
//! crate provides the three index layouts and the five algorithms of the
//! paper's Sections 4, 6 and 7:
//!
//! | structure | layout | paper |
//! |---|---|---|
//! | [`PlainInvertedIndex`] | item → id-sorted ranking ids | Section 4 |
//! | [`AugmentedInvertedIndex`] | item → id-sorted `(id, rank)` postings | Section 6.2 |
//! | [`BlockedInvertedIndex`] | item → rank-sorted postings with per-rank block offsets | Section 6.3 |
//!
//! | algorithm | entry point | paper name |
//! |---|---|---|
//! | filter & validate | [`fv::filter_validate`] | F&V |
//! | F&V with list dropping | [`fv::filter_validate_drop`] | F&V+Drop |
//! | id-sorted merge with aggregation | [`listmerge::list_merge`] | ListMerge |
//! | blocked access with pruning | [`blocked_prune::blocked_prune`] | Blocked+Prune |
//! | blocked access, pruning and dropping | [`blocked_prune::blocked_prune_drop`] | Blocked+Prune+Drop |
//! | per-query materialized oracle | [`minimal::MinimalFv`] | Minimal F&V |
//!
//! The overlap-based dropping rule (Lemma 2) lives in [`mod@drop`], the
//! NRA-style partial-information distance bounds in [`bounds`].

pub mod augmented;
pub mod blocked;
pub mod blocked_prune;
pub mod bounds;
pub mod drop;
pub mod executors;
pub mod fv;
pub mod listmerge;
pub mod minimal;
pub mod plain;

#[doc(hidden)]
pub use augmented::AugmentedIndexParts;
pub use augmented::{AugmentedInvertedIndex, Posting};
#[doc(hidden)]
pub use blocked::BlockedIndexParts;
pub use blocked::BlockedInvertedIndex;
pub use drop::{keep_positions, keep_positions_into, omega};
pub use executors::{BlockedPruneExecutor, FvDropExecutor, FvExecutor, ListMergeExecutor};
pub use minimal::MinimalFv;
#[doc(hidden)]
pub use plain::PlainIndexParts;
pub use plain::PlainInvertedIndex;

#[cfg(test)]
pub(crate) mod testutil {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use ranksim_rankings::{ItemId, PositionMap, RankingId, RankingStore};

    /// Random corpus with planted near-duplicates (mirrors the metricspace
    /// test generator; duplicated locally to keep crate deps acyclic).
    pub fn random_store(n: usize, k: usize, domain: u32, seed: u64) -> RankingStore {
        assert!(domain as usize >= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = RankingStore::with_capacity(k, n);
        let mut base: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            let items: Vec<u32> = if !base.is_empty() && rng.random_bool(0.5) {
                let mut items = base[rng.random_range(0..base.len())].clone();
                if rng.random_bool(0.5) {
                    let a = rng.random_range(0..k);
                    let b = rng.random_range(0..k);
                    items.swap(a, b);
                } else {
                    let p = rng.random_range(0..k);
                    let mut cand = rng.random_range(0..domain);
                    while items.contains(&cand) {
                        cand = rng.random_range(0..domain);
                    }
                    items[p] = cand;
                }
                items
            } else {
                let mut pool: Vec<u32> = (0..domain).collect();
                pool.shuffle(&mut rng);
                pool.truncate(k);
                pool
            };
            if i % 3 == 0 {
                base.push(items.clone());
            }
            let ids: Vec<ItemId> = items.into_iter().map(ItemId).collect();
            store.push_items_unchecked(&ids);
        }
        store
    }

    /// Brute-force oracle.
    pub fn scan(store: &RankingStore, query: &[ItemId], theta_raw: u32) -> Vec<RankingId> {
        let q = PositionMap::new(query);
        store
            .ids()
            .filter(|&id| q.distance_to(store.items(id)) <= theta_raw)
            .collect()
    }

    /// Asserts an algorithm's output equals the brute-force result set.
    pub fn assert_equals_scan(
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        mut got: Vec<RankingId>,
    ) {
        let mut expect = scan(store, query, theta_raw);
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect, "θ={theta_raw} q={query:?}");
    }

    /// A query derived from a stored ranking by light perturbation, so that
    /// result sets are non-trivial.
    pub fn perturbed_query(
        store: &RankingStore,
        id: RankingId,
        domain: u32,
        seed: u64,
    ) -> Vec<ItemId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut items: Vec<ItemId> = store.items(id).to_vec();
        let k = items.len();
        for _ in 0..rng.random_range(0..3) {
            let a = rng.random_range(0..k);
            let b = rng.random_range(0..k);
            items.swap(a, b);
        }
        if rng.random_bool(0.4) {
            let p = rng.random_range(0..k);
            let mut cand = ItemId(rng.random_range(0..domain));
            while items.contains(&cand) {
                cand = ItemId(rng.random_range(0..domain));
            }
            items[p] = cand;
        }
        items
    }
}
