//! Metric-space index structures over top-k rankings.
//!
//! The adapted Footrule distance is a metric over top-k lists (Fagin et
//! al., 2003), so classical metric access methods apply directly. This
//! crate implements the structures the paper evaluates or builds on:
//!
//! * [`BkTree`] — Burkhard–Keller tree for discrete metrics; both a
//!   similarity-search baseline (Figures 5/6) and the substrate the coarse
//!   index uses to partition the corpus (Section 4.1),
//! * [`MTree`] — the balanced M-tree of Ciaccia, Patella & Zezula
//!   (VLDB 1997), the slower metric competitor of Figure 5,
//! * [`VpTree`] — a vantage-point tree (Uhlmann 1991 / Yianilos 1993),
//!   included as the related-work structure and for ablations,
//! * [`partition`] — fixed-radius partitionings: the BK-subtree scheme of
//!   the paper's Figure 1 and the Chávez–Navarro random-medoid scheme the
//!   cost model reasons about,
//! * [`linear_scan`] — the brute-force oracle used by tests and the
//!   "validate everything" fallback.
//!
//! All structures work on raw (integer) Footrule distances and borrow a
//! [`RankingStore`] at build and query time.

pub mod bktree;
pub mod knn;
pub mod mtree;
pub mod partition;
pub mod vptree;

pub use bktree::BkTree;
#[doc(hidden)]
pub use bktree::BkTreeParts;
pub use knn::{knn_bktree, knn_linear, knn_vptree, KnnHeap};
pub use mtree::MTree;
#[doc(hidden)]
pub use partition::PartitioningParts;
pub use partition::{
    BkPartitioner, Partition, PartitionMembers, Partitioning, RandomMedoidPartitioner,
};
pub use vptree::VpTree;

use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// Brute-force range scan: evaluates the Footrule distance of every
/// **live** stored ranking against the query (= every ranking on a
/// pristine store). The correctness oracle for every index in this
/// workspace, mutated corpora included.
pub fn linear_scan(
    store: &RankingStore,
    query_pairs: &[(ItemId, u32)],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<RankingId> {
    let mut out = Vec::new();
    for id in store.live_ids() {
        stats.count_distance();
        if footrule_pairs(query_pairs, store.sorted_pairs(id), store.k()) <= theta_raw {
            out.push(id);
        }
    }
    stats.results += out.len() as u64;
    out
}

/// Sorts query items into the `(item, rank)` pair form used by the metric
/// structures' query entry points.
pub fn query_pairs(items: &[ItemId]) -> Vec<(ItemId, u32)> {
    let mut v = Vec::new();
    query_pairs_into(items, &mut v);
    v
}

/// Allocation-free variant of [`query_pairs`]: rebuilds the pair form in
/// a reusable buffer (e.g. a `QueryScratch`'s `qp` field).
pub fn query_pairs_into(items: &[ItemId], out: &mut Vec<(ItemId, u32)>) {
    out.clear();
    out.extend(items.iter().enumerate().map(|(r, &i)| (i, r as u32)));
    out.sort_unstable();
}

pub mod testutil {
    //! Shared corpus generators for this crate's tests.
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use ranksim_rankings::{ItemId, RankingStore};

    /// A small random corpus with planted near-duplicate structure so that
    /// range queries at moderate thresholds return non-trivial result sets.
    pub fn random_store(n: usize, k: usize, domain: u32, seed: u64) -> RankingStore {
        assert!(domain as usize >= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = RankingStore::with_capacity(k, n);
        let mut base: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            let items: Vec<u32> = if !base.is_empty() && rng.random_bool(0.5) {
                // Perturb an existing ranking: swap two ranks or replace one item.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::random_store;

    #[test]
    fn linear_scan_finds_self() {
        let store = random_store(50, 6, 40, 7);
        for id in store.ids() {
            let q = query_pairs(store.items(id));
            let mut stats = QueryStats::new();
            let res = linear_scan(&store, &q, 0, &mut stats);
            assert!(res.contains(&id));
            assert_eq!(stats.distance_calls, 50);
        }
    }

    #[test]
    fn linear_scan_threshold_monotone() {
        let store = random_store(80, 6, 30, 3);
        let q = query_pairs(store.items(ranksim_rankings::RankingId(0)));
        let mut prev = 0usize;
        for theta in [0u32, 6, 12, 20, 30, 42] {
            let mut stats = QueryStats::new();
            let res = linear_scan(&store, &q, theta, &mut stats);
            assert!(res.len() >= prev, "result set must grow with θ");
            prev = res.len();
        }
    }
}
