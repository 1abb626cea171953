//! Vantage-point tree (Uhlmann 1991; Yianilos, SODA 1993).
//!
//! Bulk-built binary metric tree: each node picks a vantage point,
//! computes the distances of the remaining set, and splits at the median
//! distance `μ` into an inner (`d ≤ μ`) and outer (`d > μ`) child.
//! Included as the third related-work metric structure and used by the
//! ablation benches to show that the paper's conclusion (inverted indices
//! beat metric trees on this workload) is not an artifact of the BK-tree
//! choice.
//!
//! Top-k Footrule distances are *discrete* (even integers `0..=k(k+1)`)
//! and heavily tied — on sparse corpora most pairs sit exactly at
//! `d_max`. A textbook median split then makes no progress (the inner
//! child receives the whole set), so this implementation (a) builds with
//! an explicit work stack instead of recursion and (b) collapses
//! tied/small sets into **bucket leaves** whose members are scanned at
//! query time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// Sets of at most this size become bucket leaves.
const LEAF_CAP: usize = 16;

#[derive(Debug, Clone)]
struct VpNode {
    vantage: RankingId,
    /// Median distance: the inner subtree holds points with `d ≤ mu`.
    mu: u32,
    inner: Option<u32>,
    outer: Option<u32>,
    /// Bucket members, each at distance exactly `mu` from `vantage`
    /// (tied split) or arbitrary (small leaf, `mu = u32::MAX` sentinel
    /// unused) — stored with their exact vantage distance.
    bucket: Vec<(u32, RankingId)>,
}

/// A bulk-built, immutable vantage-point tree.
///
/// Rankings tombstoned in the store after the build are filtered at
/// emission through [`RankingStore::is_live`] while their frozen content
/// keeps every pruning bound exact.
#[derive(Debug, Clone, Default)]
pub struct VpTree {
    nodes: Vec<VpNode>,
    root: Option<u32>,
    len: usize,
    /// Distance evaluations spent on construction.
    pub build_distance_calls: u64,
}

/// A unit of deferred construction work: build a subtree over `ids` and
/// patch the parent's child slot.
struct WorkItem {
    ids: Vec<RankingId>,
    parent: Option<(u32, bool)>, // (node index, is_inner)
}

impl VpTree {
    /// Builds a tree over all rankings of `store` (seeded vantage-point
    /// selection for reproducibility).
    pub fn build(store: &RankingStore, seed: u64) -> Self {
        let mut t = VpTree {
            nodes: Vec::with_capacity(store.live_len() / LEAF_CAP * 2 + 1),
            root: None,
            len: store.live_len(),
            build_distance_calls: 0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let k = store.k();
        let all: Vec<RankingId> = store.live_ids().collect();
        let mut work = vec![WorkItem {
            ids: all,
            parent: None,
        }];
        while let Some(WorkItem { mut ids, parent }) = work.pop() {
            if ids.is_empty() {
                continue;
            }
            let pick = rng.random_range(0..ids.len());
            ids.swap(0, pick);
            let vantage = ids[0];
            let mut with_d: Vec<(u32, RankingId)> = ids[1..]
                .iter()
                .map(|&id| {
                    t.build_distance_calls += 1;
                    (
                        footrule_pairs(store.sorted_pairs(vantage), store.sorted_pairs(id), k),
                        id,
                    )
                })
                .collect();
            let node_idx = t.nodes.len() as u32;

            // Bucket leaf: small set, or no split progress possible
            // (all remaining equidistant from the vantage).
            let tied = with_d.windows(2).all(|w| w[0].0 == w[1].0);
            if with_d.len() <= LEAF_CAP || tied {
                let mu = with_d.first().map(|&(d, _)| d).unwrap_or(0);
                t.nodes.push(VpNode {
                    vantage,
                    mu,
                    inner: None,
                    outer: None,
                    bucket: with_d,
                });
            } else {
                let mid = (with_d.len() - 1) / 2;
                with_d.select_nth_unstable_by_key(mid, |&(d, _)| d);
                let mu = with_d[mid].0;
                let mut inner_ids = Vec::with_capacity(mid + 1);
                let mut outer_ids = Vec::new();
                for (d, id) in with_d {
                    if d <= mu {
                        inner_ids.push(id);
                    } else {
                        outer_ids.push(id);
                    }
                }
                t.nodes.push(VpNode {
                    vantage,
                    mu,
                    inner: None,
                    outer: None,
                    bucket: Vec::new(),
                });
                // `outer` can be empty when ties cross the median; the
                // tie-detection above guarantees `inner` made progress.
                work.push(WorkItem {
                    ids: inner_ids,
                    parent: Some((node_idx, true)),
                });
                work.push(WorkItem {
                    ids: outer_ids,
                    parent: Some((node_idx, false)),
                });
            }
            match parent {
                None => t.root = Some(node_idx),
                Some((p, true)) => t.nodes[p as usize].inner = Some(node_idx),
                Some((p, false)) => t.nodes[p as usize].outer = Some(node_idx),
            }
        }
        t
    }

    /// Number of rankings the tree was built over (including any that
    /// were tombstoned afterwards).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Range query: every ranking within `theta_raw` of the query.
    pub fn range_query(
        &self,
        store: &RankingStore,
        query_pairs: &[(ItemId, u32)],
        theta_raw: u32,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut out = Vec::new();
        let k = store.k();
        let mut stack: Vec<u32> = Vec::new();
        if let Some(r) = self.root {
            stack.push(r);
        }
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            stats.tree_nodes_visited += 1;
            stats.count_distance();
            let d = footrule_pairs(query_pairs, store.sorted_pairs(node.vantage), k);
            if d <= theta_raw && store.is_live(node.vantage) {
                out.push(node.vantage);
            }
            // Bucket members: prune by the stored vantage distance
            // (triangle inequality), evaluate the survivors.
            for &(dv, id) in &node.bucket {
                if d.abs_diff(dv) > theta_raw || !store.is_live(id) {
                    continue;
                }
                stats.count_distance();
                if footrule_pairs(query_pairs, store.sorted_pairs(id), k) <= theta_raw {
                    out.push(id);
                }
            }
            // Inner holds d(x, v) ≤ mu: reachable iff d − θ ≤ mu.
            if let Some(inner) = node.inner {
                if d.saturating_sub(theta_raw) <= node.mu {
                    stack.push(inner);
                }
            }
            // Outer holds d(x, v) > mu: reachable iff d + θ > mu.
            if let Some(outer) = node.outer {
                if d + theta_raw > node.mu {
                    stack.push(outer);
                }
            }
        }
        stats.results += out.len() as u64;
        out
    }

    /// Best-first KNN traversal feeding `heap` (see [`crate::knn`]).
    pub(crate) fn knn_into(
        &self,
        store: &RankingStore,
        query_pairs: &[(ItemId, u32)],
        heap: &mut crate::knn::KnnHeap,
        stats: &mut QueryStats,
    ) {
        let k = store.k();
        let mut stack: Vec<u32> = Vec::new();
        if let Some(r) = self.root {
            stack.push(r);
        }
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            stats.tree_nodes_visited += 1;
            stats.count_distance();
            let d = footrule_pairs(query_pairs, store.sorted_pairs(node.vantage), k);
            if store.is_live(node.vantage) {
                heap.offer(d, node.vantage);
            }
            for &(dv, id) in &node.bucket {
                if d.abs_diff(dv) > heap.tau() || !store.is_live(id) {
                    continue;
                }
                stats.count_distance();
                let d2 = footrule_pairs(query_pairs, store.sorted_pairs(id), k);
                heap.offer(d2, id);
            }
            let tau = heap.tau();
            if let Some(inner) = node.inner {
                if d.saturating_sub(tau) <= node.mu {
                    stack.push(inner);
                }
            }
            if let Some(outer) = node.outer {
                if d.saturating_add(tau) > node.mu {
                    stack.push(outer);
                }
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<VpNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.bucket.capacity() * std::mem::size_of::<(u32, RankingId)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;
    use crate::{linear_scan, query_pairs};

    #[test]
    fn range_query_matches_linear_scan() {
        let store = random_store(350, 7, 60, 31);
        let tree = VpTree::build(&store, 42);
        assert_eq!(tree.len(), 350);
        for (qid, theta) in [(0u32, 0u32), (9, 10), (77, 24), (349, 44)] {
            let q = query_pairs(store.items(RankingId(qid)));
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut expect = linear_scan(&store, &q, theta, &mut s1);
            let mut got = tree.range_query(&store, &q, theta, &mut s2);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "qid={qid} θ={theta}");
        }
    }

    #[test]
    fn all_rankings_present_at_max_threshold() {
        let store = random_store(120, 5, 30, 8);
        let tree = VpTree::build(&store, 7);
        let q = query_pairs(store.items(RankingId(0)));
        let mut stats = QueryStats::new();
        let res = tree.range_query(&store, &q, store.max_distance(), &mut stats);
        assert_eq!(res.len(), 120);
    }

    #[test]
    fn duplicates_supported() {
        let mut store = RankingStore::new(3);
        for _ in 0..10 {
            store.push_items_unchecked(&[4, 5, 6].map(ItemId));
        }
        let tree = VpTree::build(&store, 1);
        let q = query_pairs(&[4, 5, 6].map(ItemId));
        let mut stats = QueryStats::new();
        assert_eq!(tree.range_query(&store, &q, 0, &mut stats).len(), 10);
    }

    #[test]
    fn tombstones_track_the_live_corpus_exactly() {
        let mut store = random_store(300, 6, 50, 19);
        let tree = VpTree::build(&store, 5);
        for id in (0..300u32).step_by(3) {
            assert!(store.remove(RankingId(id)));
        }
        assert_eq!(tree.len(), 300);
        // Range queries and KNN agree with the live-corpus oracle.
        for qid in [1u32, 151, 299] {
            let q = query_pairs(store.items(RankingId(qid)));
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut expect = linear_scan(&store, &q, 18, &mut s1);
            let mut got = tree.range_query(&store, &q, 18, &mut s2);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "range qid={qid}");
            let kexp = crate::knn::knn_linear(&store, &q, 7, &mut s1);
            let kgot = crate::knn::knn_vptree(&tree, &store, &q, 7, &mut s2);
            assert_eq!(kgot, kexp, "knn qid={qid}");
        }
    }

    #[test]
    fn survives_all_pairs_equidistant() {
        // The degenerate case that overflows a recursive median-split
        // build: every pair of rankings at exactly d_max (disjoint).
        let mut store = RankingStore::new(3);
        for i in 0..5000u32 {
            store.push_items_unchecked(&[i * 3, i * 3 + 1, i * 3 + 2].map(ItemId));
        }
        let tree = VpTree::build(&store, 3);
        assert_eq!(tree.len(), 5000);
        let q = query_pairs(store.items(RankingId(777)));
        let mut stats = QueryStats::new();
        let res = tree.range_query(&store, &q, 0, &mut stats);
        assert_eq!(res, vec![RankingId(777)]);
    }

    #[test]
    fn survives_sparse_high_distance_corpus() {
        // Mostly-disjoint rankings (domain ≫ k·n overlap): the regime of
        // the NYT-like generator at large domains.
        let store = random_store(4000, 6, 5_000, 5);
        let tree = VpTree::build(&store, 11);
        let q = query_pairs(store.items(RankingId(5)));
        let mut s1 = QueryStats::new();
        let mut s2 = QueryStats::new();
        let mut expect = linear_scan(&store, &q, 20, &mut s1);
        let mut got = tree.range_query(&store, &q, 20, &mut s2);
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
