//! ListMerge: aggregation over id-sorted, rank-augmented lists (paper
//! Section 7, "Merge of Id-Sorted Lists with Aggregation").
//!
//! Because postings carry ranks, the exact Footrule distance of every
//! ranking appearing in at least one of the query's k postings lists
//! follows from the matched contributions alone:
//!
//! ```text
//! F = Σ_matched |τ(i) − q(i)|  +  (T(k) − Σ_matched (k − q(i)))
//!                              +  (T(k) − Σ_matched (k − τ(i)))
//! ```
//!
//! No distance-function call and no access to the ranking store: the
//! algorithm's cost is reading the k lists once, which is why the paper's
//! Figures 8/9 show it flat across θ.
//!
//! The paper realizes the aggregation as a k-way merge that finalizes one
//! ranking id at a time (no per-candidate state, but `O(k)` cursor-head
//! scans per distinct id). This implementation keeps the identical
//! aggregate but accumulates **item-at-a-time** into the epoch-versioned
//! cell map of the reusable [`QueryScratch`]: each posting is one O(1)
//! probe of a flat array, so the whole query costs `O(Σ list lengths)`
//! instead of `O(k · #distinct ids)` (about 3.4× faster than the
//! hashmap merge on the NYT-like workload; see `docs/perf.md`). Like the
//! merge, it reads every posting of the k lists, uses no hash map,
//! performs zero distance calls, and never touches the store; results
//! are emitted id-sorted.

use crate::augmented::AugmentedInvertedIndex;
use ranksim_rankings::{one_side_total, ItemId, QueryScratch, QueryStats, RankingId, RankingStore};

/// ListMerge: returns all indexed rankings within `theta_raw` of the query.
pub fn list_merge(
    index: &AugmentedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<RankingId> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    list_merge_into(
        index,
        store,
        query,
        theta_raw,
        &mut scratch,
        stats,
        &mut out,
    );
    out
}

/// Scratch-reusing ListMerge; appends results (id-ascending) to `out`.
pub fn list_merge_into(
    index: &AugmentedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    debug_assert_eq!(index.k(), query.len());
    let k = store.k() as u32;
    let t_k = one_side_total(store.k());
    let postings = index.postings();
    let QueryScratch { cells, .. } = scratch;
    // Aggregation phase: every posting books its exact, τ-side and q-side
    // contribution into the candidate's cell.
    cells.begin(store.len());
    for (q_rank, &item) in query.iter().enumerate() {
        let (start, end) = index.list_range(item);
        let q_rank = q_rank as u32;
        let list = &postings[start as usize..end as usize];
        stats.count_list(list.len());
        for p in list {
            let c = cells.probe(p.id.0);
            c[0] += p.rank.abs_diff(q_rank);
            c[1] += k - p.rank;
            c[2] += k - q_rank;
        }
    }
    // Finalization: one O(1) distance completion per distinct candidate.
    stats.candidates += cells.len() as u64;
    let out_start = out.len();
    for &id in cells.keys() {
        let c = cells.get(id).expect("aggregated candidate");
        let dist = c[0] + (t_k - c[2]) + (t_k - c[1]);
        if dist <= theta_raw {
            out.push(RankingId(id));
        }
    }
    // Keys surface in first-occurrence order across lists; restore the
    // id-sorted result order of the merge formulation.
    out[out_start..].sort_unstable();
    stats.results += (out.len() - out_start) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equals_scan, perturbed_query, random_store};
    use ranksim_rankings::raw_threshold;

    #[test]
    fn list_merge_equals_scan() {
        let store = random_store(300, 7, 60, 400);
        let index = AugmentedInvertedIndex::build(&store);
        for seed in 0..12u64 {
            let q = perturbed_query(&store, RankingId((seed * 17 % 300) as u32), 60, seed);
            for theta in [0.0, 0.1, 0.2, 0.3, 0.6] {
                let raw = raw_threshold(theta, 7);
                let mut stats = QueryStats::new();
                let got = list_merge(&index, &store, &q, raw, &mut stats);
                assert_equals_scan(&store, &q, raw, got);
            }
        }
    }

    #[test]
    fn shared_scratch_merge_equals_fresh_scratch() {
        let store = random_store(260, 6, 45, 401);
        let index = AugmentedInvertedIndex::build(&store);
        let mut shared = QueryScratch::new();
        for seed in 0..15u64 {
            let q = perturbed_query(&store, RankingId((seed * 19 % 260) as u32), 45, seed);
            let raw = raw_threshold(0.1 * (seed % 4) as f64, 6);
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut got = Vec::new();
            list_merge_into(&index, &store, &q, raw, &mut shared, &mut s1, &mut got);
            let expect = list_merge(&index, &store, &q, raw, &mut s2);
            assert_eq!(got, expect, "seed {seed}");
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn list_merge_performs_no_distance_calls() {
        let store = random_store(200, 6, 40, 8);
        let index = AugmentedInvertedIndex::build(&store);
        let q = perturbed_query(&store, RankingId(3), 40, 1);
        let mut stats = QueryStats::new();
        let _ = list_merge(&index, &store, &q, 12, &mut stats);
        assert_eq!(stats.distance_calls, 0, "aggregation needs no DFC");
        assert_eq!(stats.lists_accessed, 6);
    }

    #[test]
    fn results_are_id_sorted() {
        let store = random_store(250, 6, 40, 12);
        let index = AugmentedInvertedIndex::build(&store);
        let q = perturbed_query(&store, RankingId(100), 40, 2);
        let mut stats = QueryStats::new();
        let got = list_merge(&index, &store, &q, 30, &mut stats);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn candidates_counted_once_per_distinct_id() {
        // A ranking overlapping the query in m items appears in m lists but
        // must be aggregated exactly once.
        let mut store = RankingStore::new(4);
        store.push_items_unchecked(&[1, 2, 3, 4].map(ItemId));
        store.push_items_unchecked(&[1, 2, 3, 5].map(ItemId));
        store.push_items_unchecked(&[9, 8, 7, 6].map(ItemId));
        let index = AugmentedInvertedIndex::build(&store);
        let q: Vec<ItemId> = [1u32, 2, 3, 4].map(ItemId).to_vec();
        let mut stats = QueryStats::new();
        let got = list_merge(&index, &store, &q, 0, &mut stats);
        assert_eq!(got, vec![RankingId(0)]);
        assert_eq!(stats.candidates, 2, "τ0 and τ1 seen; τ2 never surfaces");
    }
}
