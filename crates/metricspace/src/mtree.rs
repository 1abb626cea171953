//! M-tree: the balanced, paged metric access method of Ciaccia, Patella &
//! Zezula (VLDB 1997).
//!
//! Implemented as the paper's metric-space competitor (Figure 5, Table 6).
//! Routing entries keep a covering radius and the distance to their parent
//! pivot, enabling the two classical prunes during range search:
//!
//! 1. `|d(q, parent) − d(entry, parent)| > θ + radius` — skip without any
//!    distance computation,
//! 2. `d(q, pivot) > θ + radius` — skip after one computation.
//!
//! Splits promote the two entries with maximum pairwise distance (exact
//! over the node, which is small) and distribute by generalized-hyperplane
//! assignment.

use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// Default maximum number of entries per node.
pub const DEFAULT_NODE_CAPACITY: usize = 16;

#[derive(Debug, Clone)]
struct LeafEntry {
    id: RankingId,
    /// Distance to the pivot of the routing entry pointing at this leaf.
    parent_dist: u32,
}

#[derive(Debug, Clone)]
struct RoutingEntry {
    pivot: RankingId,
    /// Covering radius: every ranking in the subtree is within this
    /// distance of `pivot`.
    radius: u32,
    /// Distance from `pivot` to the parent node's routing pivot.
    parent_dist: u32,
    child: u32,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<RoutingEntry>),
}

/// A balanced M-tree over rankings of a [`RankingStore`].
#[derive(Debug, Clone)]
pub struct MTree {
    nodes: Vec<Node>,
    root: u32,
    capacity: usize,
    len: usize,
    /// Distance evaluations spent on construction (Table 6 reporting).
    pub build_distance_calls: u64,
}

impl MTree {
    /// An empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_NODE_CAPACITY)
    }

    /// An empty tree with a custom node capacity (≥ 4).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 4, "M-tree node capacity must be at least 4");
        MTree {
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            capacity,
            len: 0,
            build_distance_calls: 0,
        }
    }

    /// Builds a tree over all **live** rankings of `store` in id order
    /// (identical to all rankings on a pristine store). [`MTree::insert`]
    /// is the native incremental append path; tombstoned rankings are
    /// filtered at leaf emission through [`RankingStore::is_live`] —
    /// routing pivots of dead rankings keep steering the descent, their
    /// frozen content keeps every covering-radius bound exact.
    pub fn build(store: &RankingStore) -> Self {
        let mut t = MTree::new();
        for id in store.live_ids() {
            t.insert(store, id);
        }
        t
    }

    /// Number of rankings in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn dist(&mut self, store: &RankingStore, a: RankingId, b: RankingId) -> u32 {
        self.build_distance_calls += 1;
        footrule_pairs(store.sorted_pairs(a), store.sorted_pairs(b), store.k())
    }

    /// Inserts ranking `id`.
    pub fn insert(&mut self, store: &RankingStore, id: RankingId) {
        self.len += 1;
        if let Some((e1, e2)) = self.insert_rec(store, self.root, id, None) {
            let new_root = self.nodes.len() as u32;
            self.nodes.push(Node::Internal(vec![e1, e2]));
            self.root = new_root;
        }
    }

    /// Recursive insert; returns replacement routing entries if `node` split.
    fn insert_rec(
        &mut self,
        store: &RankingStore,
        node: u32,
        id: RankingId,
        parent_pivot: Option<(RankingId, u32)>, // (pivot, d(id, pivot))
    ) -> Option<(RoutingEntry, RoutingEntry)> {
        let is_leaf = matches!(self.nodes[node as usize], Node::Leaf(_));
        if is_leaf {
            let parent_dist = parent_pivot.map(|(_, d)| d).unwrap_or(0);
            if let Node::Leaf(entries) = &mut self.nodes[node as usize] {
                entries.push(LeafEntry { id, parent_dist });
            }
            return self.maybe_split(store, node);
        }

        // Choose the routing entry: prefer containment (min distance among
        // entries whose radius already covers the point), otherwise minimal
        // radius enlargement.
        let n_entries = match &self.nodes[node as usize] {
            Node::Internal(es) => es.len(),
            Node::Leaf(_) => unreachable!(),
        };
        let mut best_contained: Option<(usize, u32)> = None;
        let mut best_enlarge: Option<(usize, u32, u32)> = None;
        for i in 0..n_entries {
            let (pivot, radius) = match &self.nodes[node as usize] {
                Node::Internal(es) => (es[i].pivot, es[i].radius),
                Node::Leaf(_) => unreachable!(),
            };
            let d = self.dist(store, id, pivot);
            if d <= radius {
                if best_contained.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best_contained = Some((i, d));
                }
            } else {
                let enlarge = d - radius;
                if best_enlarge.map(|(_, be, _)| enlarge < be).unwrap_or(true) {
                    best_enlarge = Some((i, enlarge, d));
                }
            }
        }
        let (chosen, d_chosen) = match (best_contained, best_enlarge) {
            (Some((i, d)), _) => (i, d),
            (None, Some((i, _, d))) => {
                // Enlarge the covering radius to admit the new point.
                if let Node::Internal(es) = &mut self.nodes[node as usize] {
                    es[i].radius = d;
                }
                (i, d)
            }
            (None, None) => unreachable!("internal node with no entries"),
        };
        let (child, chosen_pivot) = match &self.nodes[node as usize] {
            Node::Internal(es) => (es[chosen].child, es[chosen].pivot),
            Node::Leaf(_) => unreachable!(),
        };

        if let Some((mut e1, mut e2)) =
            self.insert_rec(store, child, id, Some((chosen_pivot, d_chosen)))
        {
            // The child split: fix the new entries' parent distances
            // relative to THIS node's parent pivot, then swap them in.
            match parent_pivot {
                Some((pp, _)) => {
                    e1.parent_dist = self.dist(store, e1.pivot, pp);
                    e2.parent_dist = self.dist(store, e2.pivot, pp);
                }
                None => {
                    e1.parent_dist = 0;
                    e2.parent_dist = 0;
                }
            }
            if let Node::Internal(es) = &mut self.nodes[node as usize] {
                es.remove(chosen);
                es.push(e1);
                es.push(e2);
            }
            return self.maybe_split(store, node);
        }
        None
    }

    /// Splits `node` if over capacity, returning the two replacement
    /// routing entries (parent distances left for the caller to fill).
    fn maybe_split(
        &mut self,
        store: &RankingStore,
        node: u32,
    ) -> Option<(RoutingEntry, RoutingEntry)> {
        let over = match &self.nodes[node as usize] {
            Node::Leaf(es) => es.len() > self.capacity,
            Node::Internal(es) => es.len() > self.capacity,
        };
        if !over {
            return None;
        }
        match std::mem::replace(&mut self.nodes[node as usize], Node::Leaf(Vec::new())) {
            Node::Leaf(entries) => {
                let ids: Vec<RankingId> = entries.iter().map(|e| e.id).collect();
                let (p1, p2, d_to_p1, d_to_p2) = self.promote(store, &ids);
                let mut g1 = Vec::new();
                let mut g2 = Vec::new();
                let mut r1 = 0u32;
                let mut r2 = 0u32;
                for (i, e) in entries.into_iter().enumerate() {
                    if d_to_p1[i] <= d_to_p2[i] {
                        r1 = r1.max(d_to_p1[i]);
                        g1.push(LeafEntry {
                            id: e.id,
                            parent_dist: d_to_p1[i],
                        });
                    } else {
                        r2 = r2.max(d_to_p2[i]);
                        g2.push(LeafEntry {
                            id: e.id,
                            parent_dist: d_to_p2[i],
                        });
                    }
                }
                self.nodes[node as usize] = Node::Leaf(g1);
                let idx2 = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf(g2));
                Some((
                    RoutingEntry {
                        pivot: p1,
                        radius: r1,
                        parent_dist: 0,
                        child: node,
                    },
                    RoutingEntry {
                        pivot: p2,
                        radius: r2,
                        parent_dist: 0,
                        child: idx2,
                    },
                ))
            }
            Node::Internal(entries) => {
                let ids: Vec<RankingId> = entries.iter().map(|e| e.pivot).collect();
                let (p1, p2, d_to_p1, d_to_p2) = self.promote(store, &ids);
                let mut g1 = Vec::new();
                let mut g2 = Vec::new();
                let mut r1 = 0u32;
                let mut r2 = 0u32;
                for (i, mut e) in entries.into_iter().enumerate() {
                    if d_to_p1[i] <= d_to_p2[i] {
                        r1 = r1.max(d_to_p1[i] + e.radius);
                        e.parent_dist = d_to_p1[i];
                        g1.push(e);
                    } else {
                        r2 = r2.max(d_to_p2[i] + e.radius);
                        e.parent_dist = d_to_p2[i];
                        g2.push(e);
                    }
                }
                self.nodes[node as usize] = Node::Internal(g1);
                let idx2 = self.nodes.len() as u32;
                self.nodes.push(Node::Internal(g2));
                Some((
                    RoutingEntry {
                        pivot: p1,
                        radius: r1,
                        parent_dist: 0,
                        child: node,
                    },
                    RoutingEntry {
                        pivot: p2,
                        radius: r2,
                        parent_dist: 0,
                        child: idx2,
                    },
                ))
            }
        }
    }

    /// Promotes the maximum-distance pair among `ids` (exact over the node)
    /// and returns per-entry distances to both promoted pivots.
    fn promote(
        &mut self,
        store: &RankingStore,
        ids: &[RankingId],
    ) -> (RankingId, RankingId, Vec<u32>, Vec<u32>) {
        let n = ids.len();
        debug_assert!(n >= 2);
        let mut best = (0usize, 1usize, 0u32);
        let mut table = vec![0u32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.dist(store, ids[i], ids[j]);
                table[i * n + j] = d;
                table[j * n + i] = d;
                if d > best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (a, b, _) = best;
        let d1 = (0..n).map(|i| table[a * n + i]).collect();
        let d2 = (0..n).map(|i| table[b * n + i]).collect();
        (ids[a], ids[b], d1, d2)
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
        self.query_rec(
            store,
            self.root,
            None,
            query_pairs,
            theta_raw,
            stats,
            &mut out,
        );
        stats.results += out.len() as u64;
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn query_rec(
        &self,
        store: &RankingStore,
        node: u32,
        d_q_parent: Option<u32>,
        qp: &[(ItemId, u32)],
        theta: u32,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let k = store.k();
        stats.tree_nodes_visited += 1;
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                for e in entries {
                    if !store.is_live(e.id) {
                        continue; // tombstoned: frozen content, never reported
                    }
                    if let Some(dqp) = d_q_parent {
                        if dqp.abs_diff(e.parent_dist) > theta {
                            continue;
                        }
                    }
                    stats.count_distance();
                    let d = footrule_pairs(qp, store.sorted_pairs(e.id), k);
                    if d <= theta {
                        out.push(e.id);
                    }
                }
            }
            Node::Internal(entries) => {
                for e in entries {
                    if let Some(dqp) = d_q_parent {
                        if dqp.abs_diff(e.parent_dist) > theta + e.radius {
                            continue;
                        }
                    }
                    stats.count_distance();
                    let d = footrule_pairs(qp, store.sorted_pairs(e.pivot), k);
                    if d <= theta + e.radius {
                        self.query_rec(store, e.child, Some(d), qp, theta, stats, out);
                    }
                }
            }
        }
    }

    /// Best-first KNN: the `k_neighbours` nearest rankings as ascending
    /// `(distance, id)` pairs — the exact lexicographic top-k, ties at
    /// the k-th distance resolving to smallest ids (see [`crate::knn`]).
    pub fn knn(
        &self,
        store: &RankingStore,
        query_pairs: &[(ItemId, u32)],
        k_neighbours: usize,
        stats: &mut QueryStats,
    ) -> Vec<(u32, RankingId)> {
        let mut heap = crate::knn::KnnHeap::new(k_neighbours);
        self.knn_rec(store, self.root, None, query_pairs, &mut heap, stats);
        heap.into_sorted()
    }

    fn knn_rec(
        &self,
        store: &RankingStore,
        node: u32,
        d_q_parent: Option<u32>,
        qp: &[(ItemId, u32)],
        heap: &mut crate::knn::KnnHeap,
        stats: &mut QueryStats,
    ) {
        let k = store.k();
        stats.tree_nodes_visited += 1;
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                for e in entries {
                    if !store.is_live(e.id) {
                        continue; // tombstoned: never occupies a heap slot
                    }
                    if let Some(dqp) = d_q_parent {
                        if dqp.abs_diff(e.parent_dist) > heap.tau() {
                            continue;
                        }
                    }
                    stats.count_distance();
                    let d = footrule_pairs(qp, store.sorted_pairs(e.id), k);
                    heap.offer(d, e.id);
                }
            }
            Node::Internal(entries) => {
                // Routing pivots are duplicates of leaf-resident rankings:
                // they steer the descent but are never offered to the heap
                // (otherwise ids could be reported twice).
                for e in entries {
                    if let Some(dqp) = d_q_parent {
                        if dqp.abs_diff(e.parent_dist) > heap.tau().saturating_add(e.radius) {
                            continue;
                        }
                    }
                    stats.count_distance();
                    let d = footrule_pairs(qp, store.sorted_pairs(e.pivot), k);
                    if d.saturating_sub(e.radius) <= heap.tau() {
                        self.knn_rec(store, e.child, Some(d), qp, heap, stats);
                    }
                }
            }
        }
    }

    /// Depth of the tree (1 for a single leaf). All leaves share this depth.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut cur = self.root;
        loop {
            match &self.nodes[cur as usize] {
                Node::Leaf(_) => return d,
                Node::Internal(es) => {
                    cur = es[0].child;
                    d += 1;
                }
            }
        }
    }

    /// Approximate heap footprint in bytes (Table 6 reporting).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| match n {
                    Node::Leaf(es) => es.capacity() * std::mem::size_of::<LeafEntry>(),
                    Node::Internal(es) => es.capacity() * std::mem::size_of::<RoutingEntry>(),
                })
                .sum::<usize>()
    }
}

impl Default for MTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;
    use crate::{linear_scan, query_pairs};

    #[test]
    fn range_query_matches_linear_scan() {
        let store = random_store(400, 7, 60, 21);
        let tree = MTree::build(&store);
        assert_eq!(tree.len(), 400);
        for (qid, theta) in [(0u32, 0u32), (3, 8), (42, 20), (200, 36), (399, 56)] {
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
    fn tree_is_balanced() {
        // All leaves at the same depth: verify by walking every path.
        let store = random_store(500, 6, 50, 13);
        let tree = MTree::build(&store);
        fn leaf_depths(t: &MTree, node: u32, d: usize, out: &mut Vec<usize>) {
            match &t.nodes[node as usize] {
                Node::Leaf(_) => out.push(d),
                Node::Internal(es) => {
                    for e in es {
                        leaf_depths(t, e.child, d + 1, out);
                    }
                }
            }
        }
        let mut depths = Vec::new();
        leaf_depths(&tree, tree.root, 1, &mut depths);
        assert!(
            depths.windows(2).all(|w| w[0] == w[1]),
            "unbalanced: {depths:?}"
        );
        assert!(tree.depth() > 1, "500 entries must split at least once");
    }

    #[test]
    fn covering_radii_are_sound() {
        // Every ranking reachable below a routing entry lies within the
        // entry's covering radius of its pivot.
        let store = random_store(300, 6, 40, 17);
        let tree = MTree::build(&store);
        fn collect(t: &MTree, node: u32, out: &mut Vec<RankingId>) {
            match &t.nodes[node as usize] {
                Node::Leaf(es) => out.extend(es.iter().map(|e| e.id)),
                Node::Internal(es) => {
                    for e in es {
                        collect(t, e.child, out);
                    }
                }
            }
        }
        fn check(t: &MTree, store: &RankingStore, node: u32) {
            if let Node::Internal(es) = &t.nodes[node as usize] {
                for e in es {
                    let mut members = Vec::new();
                    collect(t, e.child, &mut members);
                    for m in members {
                        let d = ranksim_rankings::footrule_store(store, e.pivot, m);
                        assert!(d <= e.radius, "member outside covering radius");
                    }
                    check(t, store, e.child);
                }
            }
        }
        check(&tree, &store, tree.root);
    }

    #[test]
    fn duplicates_supported() {
        let mut store = RankingStore::new(3);
        for _ in 0..40 {
            store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        }
        let tree = MTree::build(&store);
        let q = query_pairs(&[1, 2, 3].map(ItemId));
        let mut stats = QueryStats::new();
        assert_eq!(tree.range_query(&store, &q, 0, &mut stats).len(), 40);
    }

    #[test]
    fn incremental_insert_and_tombstones_track_the_live_corpus() {
        // The native M-tree insert path doubles as the live-corpus append
        // path: inserts after the bulk build plus tombstone filtering at
        // the leaves must keep range and KNN exactly on the oracle.
        let mut store = random_store(250, 6, 45, 23);
        let mut tree = MTree::build(&store);
        for id in (1..250u32).step_by(4) {
            assert!(store.remove(RankingId(id)));
        }
        for i in 0..30u32 {
            let base = 2000 + i * 6;
            let id = store.push_items_unchecked(
                &[base, base + 1, base + 2, base + 3, base + 4, base + 5].map(ItemId),
            );
            tree.insert(&store, id);
        }
        assert_eq!(tree.len(), 280, "len counts inserted incl. tombstoned");
        for qid in [0u32, 123, 249, 260, 279] {
            let q = query_pairs(store.items(RankingId(qid)));
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut expect = linear_scan(&store, &q, 20, &mut s1);
            let mut got = tree.range_query(&store, &q, 20, &mut s2);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "range qid={qid}");
            let kexp = crate::knn::knn_linear(&store, &q, 6, &mut s1);
            let kgot = tree.knn(&store, &q, 6, &mut s2);
            assert_eq!(kgot, kexp, "knn qid={qid}");
        }
    }

    #[test]
    fn empty_tree() {
        let store = RankingStore::new(3);
        let tree = MTree::new();
        let q = query_pairs(&[1, 2, 3].map(ItemId));
        let mut stats = QueryStats::new();
        assert!(tree.range_query(&store, &q, 10, &mut stats).is_empty());
    }
}
