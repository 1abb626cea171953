//! Burkhard–Keller tree over the (discrete) Footrule metric.
//!
//! A BK-tree node holds one ranking and one child pointer per observed
//! distance value: every ranking inserted below the edge labelled `e` is at
//! distance **exactly** `e` from the node (insertion routes by exact
//! distance). This invariant is what makes BK-subtrees usable as
//! fixed-radius partitions in the coarse index (Section 4.1 of the paper):
//! the subtree hanging off an edge `e ≤ θ_C` is, wholesale, within `θ_C` of
//! the node.
//!
//! Range queries use the triangle inequality: at a node at distance `d`
//! from the query, only child edges in `[d − θ, d + θ]` can contain
//! results.

use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// One node of the arena-allocated BK-tree.
#[derive(Debug, Clone)]
pub struct BkNode {
    /// The ranking stored at this node.
    pub ranking: RankingId,
    /// `(edge distance, child node index)`, sorted by distance.
    pub children: Vec<(u32, u32)>,
    /// Number of nodes in the subtree rooted here (including this node).
    pub subtree_size: u32,
}

/// An arena-allocated Burkhard–Keller tree.
///
/// The tree stores [`RankingId`]s; ranking content is resolved through the
/// [`RankingStore`] passed to each operation (the store must outlive and
/// match the ids, which the coarse index guarantees by construction).
#[derive(Debug, Clone, Default)]
pub struct BkTree {
    nodes: Vec<BkNode>,
    /// Distance evaluations spent on construction (Table 6 reporting).
    pub build_distance_calls: u64,
}

impl BkTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a tree over all **live** rankings of `store` in id order
    /// (identical to all rankings on a pristine store).
    pub fn build(store: &RankingStore) -> Self {
        let mut t = BkTree {
            nodes: Vec::with_capacity(store.live_len()),
            build_distance_calls: 0,
        };
        for id in store.live_ids() {
            t.insert(store, id);
        }
        t
    }

    /// Builds a tree over a subset of rankings.
    pub fn build_from<I: IntoIterator<Item = RankingId>>(store: &RankingStore, ids: I) -> Self {
        let mut t = BkTree::new();
        for id in ids {
            t.insert(store, id);
        }
        t
    }

    /// Number of rankings in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node by arena index (used by the partitioner).
    pub fn node(&self, idx: u32) -> &BkNode {
        &self.nodes[idx as usize]
    }

    /// The arena index of the root (0 unless the tree is empty).
    pub fn root(&self) -> Option<u32> {
        if self.nodes.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// Inserts ranking `id`, returning its arena index.
    pub fn insert(&mut self, store: &RankingStore, id: RankingId) -> u32 {
        if self.nodes.is_empty() {
            self.nodes.push(BkNode {
                ranking: id,
                children: Vec::new(),
                subtree_size: 1,
            });
            return 0;
        }
        self.insert_under(store, 0, id)
    }

    /// Inserts ranking `id` into the subtree rooted at arena index `from`
    /// (standard BK routing starting there), returning the new node's
    /// arena index. Any BK subtree is a BK tree, so this preserves every
    /// exact-distance edge invariant *within* that subtree. `subtree_size`
    /// counters are maintained from `from` downwards only. The content of
    /// `id` is resolved through the store at insertion time and must stay
    /// frozen while the node is referenced (the store's quarantine rule
    /// guarantees it).
    fn insert_under(&mut self, store: &RankingStore, from: u32, id: RankingId) -> u32 {
        let new_idx = self.nodes.len() as u32;
        let pairs = store.sorted_pairs(id);
        let k = store.k();
        let mut cur = from;
        loop {
            let node = &self.nodes[cur as usize];
            let d = footrule_pairs(pairs, store.sorted_pairs(node.ranking), k);
            self.build_distance_calls += 1;
            self.nodes[cur as usize].subtree_size += 1;
            match self.nodes[cur as usize]
                .children
                .binary_search_by_key(&d, |&(e, _)| e)
            {
                Ok(pos) => cur = self.nodes[cur as usize].children[pos].1,
                Err(pos) => {
                    self.nodes[cur as usize].children.insert(pos, (d, new_idx));
                    self.nodes.push(BkNode {
                        ranking: id,
                        children: Vec::new(),
                        subtree_size: 1,
                    });
                    return new_idx;
                }
            }
        }
    }

    /// Range query over the whole tree: every ranking within `theta_raw` of
    /// the query, in no particular order.
    pub fn range_query(
        &self,
        store: &RankingStore,
        query_pairs: &[(ItemId, u32)],
        theta_raw: u32,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut out = Vec::new();
        if let Some(root) = self.root() {
            let mut stack = Vec::new();
            self.range_query_from_with(
                store,
                root,
                query_pairs,
                theta_raw,
                &mut stack,
                stats,
                &mut out,
            );
        }
        stats.results += out.len() as u64;
        out
    }

    /// Range query restricted to the subtree rooted at arena index `from`
    /// (a full-fledged BK-tree itself) — the validation primitive of the
    /// coarse index's partitions. Traverses through a caller-owned
    /// `stack` buffer, so repeated queries allocate nothing (the coarse
    /// index threads its `QueryScratch` tree stack here).
    #[allow(clippy::too_many_arguments)]
    pub fn range_query_from_with(
        &self,
        store: &RankingStore,
        from: u32,
        query_pairs: &[(ItemId, u32)],
        theta_raw: u32,
        stack: &mut Vec<u32>,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let k = store.k();
        stack.clear();
        stack.push(from);
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            stats.tree_nodes_visited += 1;
            stats.count_distance();
            let d = footrule_pairs(query_pairs, store.sorted_pairs(node.ranking), k);
            // Tombstone filter: dead rankings still *route* (their frozen
            // content keeps every triangle-inequality bound exact) but are
            // never reported.
            if d <= theta_raw && store.is_live(node.ranking) {
                out.push(node.ranking);
            }
            let lo = d.saturating_sub(theta_raw);
            let hi = d + theta_raw;
            // children is sorted by edge distance: binary-search the window.
            let start = node.children.partition_point(|&(e, _)| e < lo);
            for &(e, child) in &node.children[start..] {
                if e > hi {
                    break;
                }
                stack.push(child);
            }
        }
    }

    /// Collects every ranking id in the subtree rooted at `from`.
    pub fn collect_subtree(&self, from: u32, out: &mut Vec<RankingId>) {
        let mut stack = vec![from];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            out.push(node.ranking);
            stack.extend(node.children.iter().map(|&(_, c)| c));
        }
    }

    /// Approximate heap footprint in bytes (Table 6 reporting).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<BkNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * std::mem::size_of::<(u32, u32)>())
                .sum::<usize>()
    }

    /// Decomposes the tree into its flat persistence form: one CSR arena
    /// over the per-node child lists (children keep their edge-distance
    /// sort order by flattening in place), plus parallel per-node arrays.
    #[doc(hidden)]
    pub fn export_parts(&self) -> BkTreeParts {
        let total: usize = self.nodes.iter().map(|n| n.children.len()).sum();
        let mut parts = BkTreeParts {
            rankings: Vec::with_capacity(self.nodes.len()),
            subtree_sizes: Vec::with_capacity(self.nodes.len()),
            child_offsets: Vec::with_capacity(self.nodes.len() + 1),
            child_edges: Vec::with_capacity(total),
            child_targets: Vec::with_capacity(total),
        };
        parts.child_offsets.push(0);
        for n in &self.nodes {
            parts.rankings.push(n.ranking.0);
            parts.subtree_sizes.push(n.subtree_size);
            for &(e, c) in &n.children {
                parts.child_edges.push(e);
                parts.child_targets.push(c);
            }
            parts.child_offsets.push(parts.child_edges.len() as u32);
        }
        parts
    }

    /// Rebuilds the tree from its flat persistence form, validating the
    /// CSR and arena-index invariants (`build_distance_calls` is a
    /// construction statistic and resets to 0).
    #[doc(hidden)]
    pub fn from_parts(parts: BkTreeParts) -> Result<Self, String> {
        let n = parts.rankings.len();
        if parts.subtree_sizes.len() != n || parts.child_offsets.len() != n + 1 {
            return Err("BK-tree node arrays disagree in length".into());
        }
        if parts.child_offsets.first().copied().unwrap_or(0) != 0
            || parts.child_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("BK-tree child offsets not monotone from 0".into());
        }
        let total = parts.child_offsets.last().copied().unwrap_or(0) as usize;
        if parts.child_edges.len() != total || parts.child_targets.len() != total {
            return Err("BK-tree child arena length disagrees with offsets".into());
        }
        if let Some(&bad) = parts.child_targets.iter().find(|&&c| c as usize >= n) {
            return Err(format!("BK-tree child index {bad} out of arena bounds {n}"));
        }
        // Every node must be reachable from the root exactly once — a
        // cyclic or forested child graph would hang the stack-driven
        // traversals (defense in depth for Trust-mode loads).
        if n > 0 {
            let mut seen = vec![false; n];
            let mut stack = vec![0u32];
            let mut visited = 0usize;
            while let Some(i) = stack.pop() {
                let i = i as usize;
                if seen[i] {
                    return Err(format!("BK-tree node {i} reachable twice (cycle)"));
                }
                seen[i] = true;
                visited += 1;
                let (lo, hi) = (parts.child_offsets[i], parts.child_offsets[i + 1]);
                stack.extend_from_slice(&parts.child_targets[lo as usize..hi as usize]);
            }
            if visited != n {
                return Err(format!(
                    "BK-tree has {} nodes unreachable from the root",
                    n - visited
                ));
            }
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let lo = parts.child_offsets[i] as usize;
            let hi = parts.child_offsets[i + 1] as usize;
            let children: Vec<(u32, u32)> = parts.child_edges[lo..hi]
                .iter()
                .copied()
                .zip(parts.child_targets[lo..hi].iter().copied())
                .collect();
            if children.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(format!("BK-tree node {i} child edges not strictly sorted"));
            }
            nodes.push(BkNode {
                ranking: RankingId(parts.rankings[i]),
                children,
                subtree_size: parts.subtree_sizes[i],
            });
        }
        Ok(BkTree {
            nodes,
            build_distance_calls: 0,
        })
    }
}

/// Flat persistence form of a [`BkTree`] (see [`BkTree::export_parts`]).
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct BkTreeParts {
    pub rankings: Vec<u32>,
    pub subtree_sizes: Vec<u32>,
    pub child_offsets: Vec<u32>,
    pub child_edges: Vec<u32>,
    pub child_targets: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;
    use crate::{linear_scan, query_pairs};

    #[test]
    fn empty_tree_queries_empty() {
        let store = RankingStore::new(4);
        let tree = BkTree::new();
        let q = query_pairs(&[1, 2, 3, 4].map(ItemId));
        let mut stats = QueryStats::new();
        assert!(tree.range_query(&store, &q, 100, &mut stats).is_empty());
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let store = random_store(300, 7, 60, 11);
        let tree = BkTree::build(&store);
        assert_eq!(tree.len(), 300);
        for (qid, theta) in [(0u32, 0u32), (5, 10), (17, 24), (100, 40), (299, 56)] {
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
    fn bk_invariant_subtree_distance_is_edge_label() {
        // Every node in the subtree under edge e is at distance exactly e
        // from the parent node — the partitioning correctness hinge.
        let store = random_store(200, 6, 40, 5);
        let tree = BkTree::build(&store);
        for idx in 0..tree.len() as u32 {
            let node = tree.node(idx);
            for &(e, child) in &node.children {
                let mut members = Vec::new();
                tree.collect_subtree(child, &mut members);
                for m in members {
                    let d = ranksim_rankings::footrule_store(&store, node.ranking, m);
                    assert_eq!(d, e, "subtree member at wrong distance");
                }
            }
        }
    }

    #[test]
    fn subtree_sizes_consistent() {
        let store = random_store(150, 5, 30, 9);
        let tree = BkTree::build(&store);
        for idx in 0..tree.len() as u32 {
            let node = tree.node(idx);
            let children_total: u32 = node
                .children
                .iter()
                .map(|&(_, c)| tree.node(c).subtree_size)
                .sum();
            assert_eq!(node.subtree_size, 1 + children_total);
        }
        assert_eq!(tree.node(0).subtree_size as usize, tree.len());
    }

    #[test]
    fn duplicates_chain_under_edge_zero() {
        let mut store = RankingStore::new(3);
        for _ in 0..4 {
            store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        }
        let tree = BkTree::build(&store);
        let q = query_pairs(&[1, 2, 3].map(ItemId));
        let mut stats = QueryStats::new();
        let res = tree.range_query(&store, &q, 0, &mut stats);
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn tombstoned_rankings_route_but_are_not_reported() {
        let mut store = random_store(200, 6, 40, 21);
        let tree = BkTree::build(&store);
        let victims = [RankingId(3), RankingId(77), RankingId(150)];
        for v in victims {
            assert!(store.remove(v));
        }
        let q = query_pairs(store.items(RankingId(3)));
        let mut s1 = QueryStats::new();
        let mut s2 = QueryStats::new();
        let theta = 30;
        let mut expect = linear_scan(&store, &q, theta, &mut s1);
        let mut got = tree.range_query(&store, &q, theta, &mut s2);
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
        for v in victims {
            assert!(!got.contains(&v), "tombstoned {v} reported");
        }
    }

    #[test]
    fn insert_under_keeps_subtree_bk_invariant() {
        // Append path: route the new ranking from an interior node; every
        // exact-distance edge *within that subtree* must stay valid, which
        // is what partition validation relies on.
        let mut store = random_store(120, 6, 30, 7);
        let mut tree = BkTree::build(&store);
        let root_child = tree.node(0).children[0].1;
        let fresh = store.push_items_unchecked(&[55, 4, 8, 1, 0, 29].map(ItemId));
        let new_idx = tree.insert_under(&store, root_child, fresh);
        assert_eq!(tree.node(new_idx).ranking, fresh);
        // Verify the BK invariant for the whole subtree under root_child.
        let mut stack = vec![root_child];
        while let Some(idx) = stack.pop() {
            let node = tree.node(idx);
            for &(e, child) in &node.children {
                let mut members = Vec::new();
                tree.collect_subtree(child, &mut members);
                for m in members {
                    let d = ranksim_rankings::footrule_store(&store, node.ranking, m);
                    assert_eq!(d, e, "subtree member at wrong distance after insert");
                }
                stack.push(child);
            }
        }
        // A range query from that subtree root can see the new ranking.
        let q = query_pairs(store.items(fresh));
        let mut stats = QueryStats::new();
        let mut out = Vec::new();
        tree.range_query_from_with(
            &store,
            root_child,
            &q,
            0,
            &mut Vec::new(),
            &mut stats,
            &mut out,
        );
        assert_eq!(out, vec![fresh]);
    }

    #[test]
    fn build_counts_distance_calls() {
        let store = random_store(50, 5, 25, 2);
        let tree = BkTree::build(&store);
        // At least n−1 comparisons (root comparison per insert).
        assert!(tree.build_distance_calls >= 49);
    }
}
