//! k-nearest-neighbour search over the metric trees.
//!
//! The paper's related work frames KNN as the other canonical similarity
//! query over metric data; range search is what the coarse index
//! optimizes, but the underlying trees support best-first KNN directly.
//! All searches are branch-and-bound: a max-heap holds the current k best
//! candidates and its worst distance `τ` prunes subtrees exactly like a
//! shrinking range query.
//!
//! Results are `(distance, id)` pairs sorted ascending and fully
//! deterministic: the heap keeps the k lexicographically smallest
//! `(distance, id)` pairs, so ties at the k-th distance resolve to the
//! smallest ranking ids. Every traversal (linear scan, BK-, VP- and
//! M-tree) therefore returns the **same** result set, which is what lets
//! every tier of `ranksim_core` pick a bit-identical answer from the
//! `(distance, id)` pairs of its radius rounds, however they were split
//! across shards.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bktree::BkTree;
use crate::vptree::VpTree;
use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// A bounded max-heap of the current k best `(distance, id)` pairs.
#[derive(Debug)]
pub struct KnnHeap {
    k: usize,
    heap: BinaryHeap<(u32, RankingId)>,
}

impl KnnHeap {
    /// An empty heap for `k ≥ 1` neighbours.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        KnnHeap {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The current pruning radius: the k-th best distance, or `u32::MAX`
    /// while fewer than k candidates are known.
    #[inline]
    pub fn tau(&self) -> u32 {
        if self.heap.len() < self.k {
            u32::MAX
        } else {
            self.heap.peek().expect("non-empty").0
        }
    }

    /// Offers a candidate. The heap keeps the k lexicographically
    /// smallest `(distance, id)` pairs: a candidate tied at the k-th
    /// distance still displaces a larger id, so the result set is
    /// independent of offer order (and of how a corpus is sharded).
    #[inline]
    pub fn offer(&mut self, dist: u32, id: RankingId) {
        if self.heap.len() < self.k {
            self.heap.push((dist, id));
        } else if (dist, id) < *self.heap.peek().expect("non-empty") {
            self.heap.push((dist, id));
            self.heap.pop();
        }
    }

    /// Extracts the neighbours sorted by ascending distance (ties by id).
    pub fn into_sorted(self) -> Vec<(u32, RankingId)> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Brute-force KNN oracle over the live corpus (= all rankings on a
/// pristine store; tombstoned slots are skipped, freshly inserted ones
/// are naturally included).
pub fn knn_linear(
    store: &RankingStore,
    query_pairs: &[(ItemId, u32)],
    k_neighbours: usize,
    stats: &mut QueryStats,
) -> Vec<(u32, RankingId)> {
    let mut heap = KnnHeap::new(k_neighbours);
    for id in store.live_ids() {
        stats.count_distance();
        let d = footrule_pairs(query_pairs, store.sorted_pairs(id), store.k());
        heap.offer(d, id);
    }
    heap.into_sorted()
}

/// Best-first KNN over a [`BkTree`].
///
/// Subtrees hang under exact-distance edges, so an edge `e` under a node
/// at distance `d` from the query bounds its subtree's distances from
/// below by `|d − e|`; subtrees are visited in ascending bound order and
/// cut once the bound exceeds the heap's `τ`.
pub fn knn_bktree(
    tree: &BkTree,
    store: &RankingStore,
    query_pairs: &[(ItemId, u32)],
    k_neighbours: usize,
    stats: &mut QueryStats,
) -> Vec<(u32, RankingId)> {
    let mut heap = KnnHeap::new(k_neighbours);
    let Some(root) = tree.root() else {
        return Vec::new();
    };
    // Min-priority queue on the subtree lower bound.
    let mut frontier: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    frontier.push(Reverse((0, root)));
    while let Some(Reverse((bound, idx))) = frontier.pop() {
        if bound > heap.tau() {
            break; // every remaining subtree is at least this far away
        }
        let node = tree.node(idx);
        stats.tree_nodes_visited += 1;
        stats.count_distance();
        let d = footrule_pairs(query_pairs, store.sorted_pairs(node.ranking), store.k());
        // Tombstoned nodes still steer the traversal (frozen content keeps
        // the bounds exact) but never occupy a heap slot.
        if store.is_live(node.ranking) {
            heap.offer(d, node.ranking);
        }
        let tau = heap.tau();
        for &(e, child) in &node.children {
            let child_bound = d.abs_diff(e);
            if child_bound <= tau {
                frontier.push(Reverse((child_bound, child)));
            }
        }
    }
    heap.into_sorted()
}

/// Best-first KNN over a [`VpTree`].
pub fn knn_vptree(
    tree: &VpTree,
    store: &RankingStore,
    query_pairs: &[(ItemId, u32)],
    k_neighbours: usize,
    stats: &mut QueryStats,
) -> Vec<(u32, RankingId)> {
    let mut heap = KnnHeap::new(k_neighbours);
    tree.knn_into(store, query_pairs, &mut heap, stats);
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;
    use crate::{query_pairs, MTree};

    fn distances(v: &[(u32, RankingId)]) -> Vec<u32> {
        v.iter().map(|&(d, _)| d).collect()
    }

    #[test]
    fn heap_keeps_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (d, i) in [(9u32, 0u32), (2, 1), (7, 2), (1, 3), (8, 4), (0, 5)] {
            h.offer(d, RankingId(i));
        }
        let got = h.into_sorted();
        assert_eq!(distances(&got), vec![0, 1, 2]);
    }

    #[test]
    fn bktree_knn_matches_linear() {
        let store = random_store(300, 6, 40, 77);
        let tree = BkTree::build(&store);
        for qid in [0u32, 13, 150, 299] {
            let q = query_pairs(store.items(RankingId(qid)));
            for k in [1usize, 5, 20] {
                let mut s1 = QueryStats::new();
                let mut s2 = QueryStats::new();
                let expect = knn_linear(&store, &q, k, &mut s1);
                let got = knn_bktree(&tree, &store, &q, k, &mut s2);
                assert_eq!(distances(&got), distances(&expect), "qid={qid} k={k}");
                assert!(
                    s2.distance_calls <= s1.distance_calls,
                    "tree KNN must not exceed the scan's distance calls"
                );
            }
        }
    }

    #[test]
    fn vptree_knn_matches_linear() {
        let store = random_store(300, 6, 40, 88);
        let tree = VpTree::build(&store, 4);
        for qid in [0u32, 42, 299] {
            let q = query_pairs(store.items(RankingId(qid)));
            for k in [1usize, 7, 25] {
                let mut s1 = QueryStats::new();
                let mut s2 = QueryStats::new();
                let expect = knn_linear(&store, &q, k, &mut s1);
                let got = knn_vptree(&tree, &store, &q, k, &mut s2);
                assert_eq!(distances(&got), distances(&expect), "qid={qid} k={k}");
            }
        }
    }

    #[test]
    fn mtree_knn_matches_linear() {
        let store = random_store(300, 6, 40, 99);
        let tree = MTree::build(&store);
        for qid in [0u32, 7, 123] {
            let q = query_pairs(store.items(RankingId(qid)));
            for k in [1usize, 4, 16] {
                let mut s1 = QueryStats::new();
                let mut s2 = QueryStats::new();
                let expect = knn_linear(&store, &q, k, &mut s1);
                let got = tree.knn(&store, &q, k, &mut s2);
                assert_eq!(distances(&got), distances(&expect), "qid={qid} k={k}");
            }
        }
    }

    #[test]
    fn knn_ties_resolve_to_smallest_ids_everywhere() {
        // A store with heavy distance ties: every ranking duplicated, so
        // the k-th distance is almost always shared by several ids. All
        // four traversals must return the exact lexicographic top-k —
        // the property the sharded merge relies on.
        let base = random_store(120, 6, 25, 11);
        let mut store = RankingStore::new(6);
        for id in base.ids() {
            store.push_items_unchecked(base.items(id));
            store.push_items_unchecked(base.items(id));
        }
        let bk = BkTree::build(&store);
        let vp = VpTree::build(&store, 4);
        let mt = MTree::build(&store);
        for qid in [0u32, 37, 121, 239] {
            let q = query_pairs(store.items(RankingId(qid)));
            for k in [1usize, 3, 9, 30] {
                let mut s = QueryStats::new();
                let expect = knn_linear(&store, &q, k, &mut s);
                // The linear oracle itself is the lexicographic optimum:
                // re-offering in reverse id order changes nothing.
                let mut h = KnnHeap::new(k);
                for id in store.ids().collect::<Vec<_>>().into_iter().rev() {
                    h.offer(
                        ranksim_rankings::footrule_pairs(&q, store.sorted_pairs(id), store.k()),
                        id,
                    );
                }
                assert_eq!(h.into_sorted(), expect, "offer order changed the top-k");
                assert_eq!(
                    knn_bktree(&bk, &store, &q, k, &mut s),
                    expect,
                    "bk qid={qid} k={k}"
                );
                assert_eq!(
                    knn_vptree(&vp, &store, &q, k, &mut s),
                    expect,
                    "vp qid={qid} k={k}"
                );
                assert_eq!(mt.knn(&store, &q, k, &mut s), expect, "mt qid={qid} k={k}");
            }
        }
    }

    #[test]
    fn knn_ties_survive_tombstones_and_same_id_reinsertion() {
        // The latent tie-handling risk of a live corpus: when ids at the
        // k-th distance are deleted and later re-inserted *at the same
        // ranking id*, the lexicographic (distance, id) order must come
        // out exactly as on a freshly built corpus — smaller ids win ties
        // again, and tombstoned ids never occupy heap slots in between.
        let mut store = RankingStore::new(4);
        // Ten exact duplicates (ids 0..10) and ten distant rankings.
        for _ in 0..10 {
            store.push_items_unchecked(&[1, 2, 3, 4].map(ItemId));
        }
        for i in 0..10u32 {
            store.push_items_unchecked(
                &[100 + i * 4, 101 + i * 4, 102 + i * 4, 103 + i * 4].map(ItemId),
            );
        }
        let q = query_pairs(&[1, 2, 3, 4].map(ItemId));
        let ids = |v: &[(u32, RankingId)]| v.iter().map(|&(_, id)| id.0).collect::<Vec<_>>();
        let mut s = QueryStats::new();
        // A tree over the pristine corpus — kept across the removals to
        // prove dead nodes still route but never occupy slots.
        let full_tree = BkTree::build(&store);

        // All ten duplicates tie at distance 0; k = 4 keeps ids 0..4.
        assert_eq!(ids(&knn_linear(&store, &q, 4, &mut s)), vec![0, 1, 2, 3]);

        // Tombstone the current tie winners: the next-smallest tied ids
        // must take their heap slots, on the tree exactly like the scan.
        for v in [0u32, 1, 2] {
            assert!(store.remove(RankingId(v)));
        }
        let rebuilt = BkTree::build(&store); // post-removal live set
        assert_eq!(ids(&knn_linear(&store, &q, 4, &mut s)), vec![3, 4, 5, 6]);
        assert_eq!(
            ids(&knn_bktree(&rebuilt, &store, &q, 4, &mut s)),
            vec![3, 4, 5, 6]
        );
        assert_eq!(
            ids(&knn_bktree(&full_tree, &store, &q, 4, &mut s)),
            vec![3, 4, 5, 6],
            "a pre-removal tree must skip tombstoned ids via the store"
        );

        // Release and re-insert the same ranking ids with the same
        // content: the freshly rebuilt order must be bit-identical to the
        // never-mutated corpus — ids 0..4 win the tie again.
        store.release_removed_slots();
        for v in [0u32, 1, 2] {
            store.insert_items_at_unchecked(RankingId(v), &[1, 2, 3, 4].map(ItemId));
        }
        let tree2 = BkTree::build(&store);
        assert_eq!(ids(&knn_linear(&store, &q, 4, &mut s)), vec![0, 1, 2, 3]);
        assert_eq!(
            ids(&knn_bktree(&tree2, &store, &q, 4, &mut s)),
            vec![0, 1, 2, 3]
        );
        // Offer order still cannot matter: reversed re-offering agrees.
        let mut h = KnnHeap::new(4);
        for id in store.live_ids().collect::<Vec<_>>().into_iter().rev() {
            h.offer(
                ranksim_rankings::footrule_pairs(&q, store.sorted_pairs(id), store.k()),
                id,
            );
        }
        assert_eq!(ids(&h.into_sorted()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn knn_with_k_exceeding_corpus_returns_everything() {
        let store = random_store(20, 5, 20, 3);
        let tree = BkTree::build(&store);
        let q = query_pairs(store.items(RankingId(0)));
        let mut s = QueryStats::new();
        let got = knn_bktree(&tree, &store, &q, 50, &mut s);
        assert_eq!(got.len(), 20);
        assert_eq!(got[0].0, 0, "the query's own ranking is nearest");
    }

    #[test]
    fn knn_first_neighbour_of_member_is_itself() {
        let store = random_store(100, 5, 30, 5);
        let tree = MTree::build(&store);
        for qid in 0..20u32 {
            let q = query_pairs(store.items(RankingId(qid)));
            let mut s = QueryStats::new();
            let got = tree.knn(&store, &q, 1, &mut s);
            assert_eq!(got[0].0, 0);
        }
    }
}
