//! Fixed-radius partitionings of a ranking corpus (paper Section 4.1).
//!
//! A partitioning groups the corpus into disjoint partitions `P_i`, each
//! represented by a medoid `τ_m ∈ P_i` with the guarantee
//! `∀τ ∈ P_i: d(τ_m, τ) ≤ θ_C`. Two constructions are provided:
//!
//! * [`BkPartitioner`] — the paper's scheme (Figure 1): build one BK-tree
//!   over the corpus, then walk it top-down. At each medoid node, subtrees
//!   under edges `≤ θ_C` join the partition wholesale (the BK invariant
//!   makes every such node lie at distance exactly the edge label from the
//!   medoid); children under larger edges recursively become medoids. The
//!   partitions *are* BK-subtrees, so validating a partition against the
//!   original query threshold is a plain BK range query — no extra index
//!   is built and no extra distance calls are spent.
//! * [`RandomMedoidPartitioner`] — Chávez & Navarro (2005): repeatedly pick
//!   a random unassigned ranking as medoid and assign every unassigned
//!   ranking within `θ_C` to it. This is the process the paper's
//!   coupon-collector cost model describes; the cost-model tests validate
//!   the predicted medoid count against this construction.

use crate::bktree::BkTree;
use ranksim_rankings::{footrule_pairs, ItemId, QueryStats, RankingId, RankingStore};

/// How a partition's non-medoid members are stored.
#[derive(Debug, Clone)]
pub enum PartitionMembers {
    /// Arena indices of BK-subtree roots inside the shared tree
    /// (the partitioning's shared arena). Every node of every listed subtree is a
    /// member.
    BkSubtrees(Vec<u32>),
    /// A standalone BK-tree holding the members (random-medoid scheme).
    Tree(BkTree),
}

/// One partition: a medoid plus its members within `θ_C`.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The representative ranking indexed by the coarse inverted index.
    pub medoid: RankingId,
    /// The represented rankings (excluding the medoid itself).
    pub members: PartitionMembers,
    /// Total partition size including the medoid.
    pub size: u32,
    /// Arena index of the medoid's node inside the shared BK arena
    /// (`BkSubtrees` partitions); the anchor of the incremental
    /// member-append path. `None` for `Tree` partitions.
    pub medoid_node: Option<u32>,
}

/// A disjoint fixed-radius partitioning of a corpus.
#[derive(Debug, Clone)]
pub struct Partitioning {
    theta_c_raw: u32,
    /// Shared BK-tree arena backing `PartitionMembers::BkSubtrees`.
    arena: Option<BkTree>,
    partitions: Vec<Partition>,
    /// Distance evaluations spent on construction (Table 6 reporting).
    pub build_distance_calls: u64,
}

impl Partitioning {
    /// The partitioning radius in raw Footrule units.
    pub fn theta_c_raw(&self) -> u32 {
        self.theta_c_raw
    }

    /// Number of partitions (= number of medoids).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Iterator over the medoid rankings.
    pub fn medoids(&self) -> impl Iterator<Item = RankingId> + '_ {
        self.partitions.iter().map(|p| p.medoid)
    }

    /// Sum of partition sizes — equals the corpus size for a valid
    /// partitioning (asserted by tests).
    pub fn total_members(&self) -> usize {
        self.partitions.iter().map(|p| p.size as usize).sum()
    }

    /// Validates partition `pi` against the *original* query threshold:
    /// appends every member (medoid included) within `theta_raw` of the
    /// query to `out`.
    ///
    /// `medoid_dist` lets the caller pass the medoid distance already
    /// computed during the filtering phase, avoiding a duplicate distance
    /// call — the saving behind Coarse's sub-result-size DFC counts in
    /// Figure 10.
    #[allow(clippy::too_many_arguments)]
    pub fn validate_into(
        &self,
        store: &RankingStore,
        pi: usize,
        query_pairs: &[(ItemId, u32)],
        theta_raw: u32,
        medoid_dist: Option<u32>,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let mut stack = Vec::new();
        self.validate_into_with(
            store,
            pi,
            query_pairs,
            theta_raw,
            medoid_dist,
            &mut stack,
            stats,
            out,
        );
    }

    /// Like [`Partitioning::validate_into`] but traversing the partition's
    /// BK-subtrees through a caller-owned `stack` buffer, so repeated
    /// validations allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn validate_into_with(
        &self,
        store: &RankingStore,
        pi: usize,
        query_pairs: &[(ItemId, u32)],
        theta_raw: u32,
        medoid_dist: Option<u32>,
        stack: &mut Vec<u32>,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let p = &self.partitions[pi];
        let d_medoid = match medoid_dist {
            Some(d) => d,
            None => {
                stats.count_distance();
                footrule_pairs(query_pairs, store.sorted_pairs(p.medoid), store.k())
            }
        };
        // A tombstoned medoid keeps representing its partition (frozen
        // content, exact bounds) but is never reported itself.
        if d_medoid <= theta_raw && store.is_live(p.medoid) {
            out.push(p.medoid);
        }
        match &p.members {
            PartitionMembers::BkSubtrees(roots) => {
                let arena = self
                    .arena
                    .as_ref()
                    .expect("BkSubtrees partition without arena");
                for &r in roots {
                    arena.range_query_from_with(
                        store,
                        r,
                        query_pairs,
                        theta_raw,
                        stack,
                        stats,
                        out,
                    );
                }
            }
            PartitionMembers::Tree(tree) => {
                if let Some(root) = tree.root() {
                    tree.range_query_from_with(
                        store,
                        root,
                        query_pairs,
                        theta_raw,
                        stack,
                        stats,
                        out,
                    );
                }
            }
        }
    }

    /// Collects all member ids of partition `pi` (medoid first).
    pub fn members_of(&self, pi: usize) -> Vec<RankingId> {
        let p = &self.partitions[pi];
        let mut out = vec![p.medoid];
        match &p.members {
            PartitionMembers::BkSubtrees(roots) => {
                let arena = self.arena.as_ref().expect("missing arena");
                for &r in roots {
                    arena.collect_subtree(r, &mut out);
                }
            }
            PartitionMembers::Tree(tree) => {
                if let Some(root) = tree.root() {
                    tree.collect_subtree(root, &mut out);
                }
            }
        }
        out
    }

    /// Approximate heap footprint in bytes (Table 6 reporting).
    pub fn heap_bytes(&self) -> usize {
        let arena = self.arena.as_ref().map(|a| a.heap_bytes()).unwrap_or(0);
        let parts: usize = self
            .partitions
            .iter()
            .map(|p| {
                std::mem::size_of::<Partition>()
                    + match &p.members {
                        PartitionMembers::BkSubtrees(v) => v.capacity() * 4,
                        PartitionMembers::Tree(t) => t.heap_bytes(),
                    }
            })
            .sum();
        arena + parts
    }

    /// Decomposes the partitioning into its flat persistence form: the
    /// shared arena (if any) and each standalone partition tree as
    /// [`BkTreeParts`], the per-partition scalars as parallel arrays, and
    /// all subtree-root lists in one CSR plane.
    #[doc(hidden)]
    pub fn export_parts(&self) -> PartitioningParts {
        let np = self.partitions.len();
        let mut parts = PartitioningParts {
            theta_c_raw: self.theta_c_raw,
            arena: self.arena.as_ref().map(|a| a.export_parts()),
            medoids: Vec::with_capacity(np),
            sizes: Vec::with_capacity(np),
            medoid_nodes: Vec::with_capacity(np),
            root_offsets: Vec::with_capacity(np + 1),
            roots: Vec::new(),
            trees: Vec::new(),
        };
        parts.root_offsets.push(0);
        for p in &self.partitions {
            parts.medoids.push(p.medoid.0);
            parts.sizes.push(p.size);
            parts.medoid_nodes.push(p.medoid_node.unwrap_or(u32::MAX));
            match &p.members {
                PartitionMembers::BkSubtrees(roots) => parts.roots.extend_from_slice(roots),
                PartitionMembers::Tree(tree) => parts.trees.push(tree.export_parts()),
            }
            parts.root_offsets.push(parts.roots.len() as u32);
        }
        parts
    }

    /// Rebuilds a partitioning from its flat persistence form, validating
    /// the per-partition invariants (arena presence, medoid-node and
    /// subtree-root bounds, standalone-tree count).
    #[doc(hidden)]
    pub fn from_parts(parts: PartitioningParts) -> Result<Self, String> {
        let np = parts.medoids.len();
        if parts.sizes.len() != np
            || parts.medoid_nodes.len() != np
            || parts.root_offsets.len() != np + 1
        {
            return Err("partitioning per-partition arrays disagree in length".into());
        }
        if parts.root_offsets.first().copied().unwrap_or(0) != 0
            || parts.root_offsets.windows(2).any(|w| w[0] > w[1])
            || parts.root_offsets.last().copied().unwrap_or(0) as usize != parts.roots.len()
        {
            return Err("partitioning subtree-root offsets are not a valid CSR".into());
        }
        let arena = match parts.arena {
            Some(a) => Some(BkTree::from_parts(a)?),
            None => None,
        };
        let arena_len = arena.as_ref().map(|a| a.len()).unwrap_or(0);
        let mut trees = parts.trees.into_iter();
        let mut partitions = Vec::with_capacity(np);
        for i in 0..np {
            let lo = parts.root_offsets[i] as usize;
            let hi = parts.root_offsets[i + 1] as usize;
            let mnode = parts.medoid_nodes[i];
            let members = if mnode != u32::MAX {
                // Arena-backed partition: medoid node and subtree roots
                // must be valid arena indices.
                if mnode as usize >= arena_len {
                    return Err(format!("partition {i} medoid node outside the arena"));
                }
                let roots = parts.roots[lo..hi].to_vec();
                if roots.iter().any(|&r| r as usize >= arena_len) {
                    return Err(format!("partition {i} subtree root outside the arena"));
                }
                PartitionMembers::BkSubtrees(roots)
            } else {
                if lo != hi {
                    return Err(format!("partition {i} mixes a standalone tree with roots"));
                }
                PartitionMembers::Tree(
                    trees
                        .next()
                        .map(BkTree::from_parts)
                        .transpose()?
                        .ok_or_else(|| format!("partition {i} missing its standalone tree"))?,
                )
            };
            partitions.push(Partition {
                medoid: RankingId(parts.medoids[i]),
                members,
                size: parts.sizes[i],
                medoid_node: (mnode != u32::MAX).then_some(mnode),
            });
        }
        if trees.next().is_some() {
            return Err("partitioning has more standalone trees than Tree partitions".into());
        }
        Ok(Partitioning {
            theta_c_raw: parts.theta_c_raw,
            arena,
            partitions,
            build_distance_calls: 0,
        })
    }
}

/// Flat persistence form of a [`Partitioning`] (see
/// [`Partitioning::export_parts`]). `u32::MAX` encodes an absent medoid
/// node (standalone-tree partitions).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct PartitioningParts {
    pub theta_c_raw: u32,
    pub arena: Option<crate::bktree::BkTreeParts>,
    pub medoids: Vec<u32>,
    pub sizes: Vec<u32>,
    pub medoid_nodes: Vec<u32>,
    pub root_offsets: Vec<u32>,
    pub roots: Vec<u32>,
    pub trees: Vec<crate::bktree::BkTreeParts>,
}

/// The paper's BK-subtree partitioner (Section 4.1, Figure 1).
pub struct BkPartitioner;

impl BkPartitioner {
    /// Builds a BK-tree over the full store and partitions it at `θ_C`.
    pub fn partition(store: &RankingStore, theta_c_raw: u32) -> Partitioning {
        let tree = BkTree::build(store);
        Self::partition_tree(tree, theta_c_raw)
    }

    /// Partitions an already-built BK-tree (the tree must cover the corpus
    /// that subsequent queries will run against).
    pub fn partition_tree(tree: BkTree, theta_c_raw: u32) -> Partitioning {
        let mut partitions = Vec::new();
        let build_distance_calls = tree.build_distance_calls;
        if let Some(root) = tree.root() {
            // Stack of nodes that become medoids.
            let mut medoid_stack = vec![root];
            while let Some(m) = medoid_stack.pop() {
                let node = tree.node(m);
                let mut subtree_roots = Vec::new();
                let mut size = 1u32;
                for &(e, child) in &node.children {
                    if e <= theta_c_raw {
                        size += tree.node(child).subtree_size;
                        subtree_roots.push(child);
                    } else {
                        medoid_stack.push(child);
                    }
                }
                partitions.push(Partition {
                    medoid: node.ranking,
                    members: PartitionMembers::BkSubtrees(subtree_roots),
                    size,
                    medoid_node: Some(m),
                });
            }
        }
        Partitioning {
            theta_c_raw,
            arena: Some(tree),
            partitions,
            build_distance_calls,
        }
    }
}

/// The Chávez–Navarro random-medoid partitioner used by the cost model's
/// derivation.
pub struct RandomMedoidPartitioner {
    seed: u64,
}

impl RandomMedoidPartitioner {
    /// A partitioner with a deterministic medoid-selection seed.
    pub fn new(seed: u64) -> Self {
        RandomMedoidPartitioner { seed }
    }

    /// Partitions the store at radius `θ_C`: random unassigned medoids,
    /// each absorbing every unassigned ranking within the radius.
    pub fn partition(&self, store: &RankingStore, theta_c_raw: u32) -> Partitioning {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut unassigned: Vec<RankingId> = store.live_ids().collect();
        let mut partitions = Vec::new();
        let mut build_distance_calls = 0u64;
        let k = store.k();
        while !unassigned.is_empty() {
            let pick = rng.random_range(0..unassigned.len());
            let medoid = unassigned.swap_remove(pick);
            let mpairs = store.sorted_pairs(medoid);
            let mut members = Vec::new();
            let mut i = 0;
            while i < unassigned.len() {
                build_distance_calls += 1;
                let d = footrule_pairs(mpairs, store.sorted_pairs(unassigned[i]), k);
                if d <= theta_c_raw {
                    members.push(unassigned.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            let size = 1 + members.len() as u32;
            let mut tree = BkTree::new();
            for id in members {
                tree.insert(store, id);
            }
            build_distance_calls += tree.build_distance_calls;
            partitions.push(Partition {
                medoid,
                members: PartitionMembers::Tree(tree),
                size,
                medoid_node: None,
            });
        }
        Partitioning {
            theta_c_raw,
            arena: None,
            partitions,
            build_distance_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_store;
    use crate::{linear_scan, query_pairs};
    use ranksim_rankings::footrule_store;

    fn check_partitioning(store: &RankingStore, p: &Partitioning) {
        // Coverage: every ranking in exactly one partition.
        assert_eq!(p.total_members(), store.len());
        let mut seen = vec![false; store.len()];
        for pi in 0..p.num_partitions() {
            let members = p.members_of(pi);
            assert_eq!(members.len() as u32, p.partitions()[pi].size);
            for m in &members {
                assert!(!seen[m.index()], "ranking {m} in two partitions");
                seen[m.index()] = true;
            }
            // Radius invariant: every member within θ_C of the medoid.
            let medoid = p.partitions()[pi].medoid;
            for m in members {
                assert!(
                    footrule_store(store, medoid, m) <= p.theta_c_raw(),
                    "member outside θ_C"
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "uncovered ranking");
    }

    #[test]
    fn bk_partitioning_is_valid() {
        let store = random_store(250, 6, 40, 3);
        for theta_c in [0u32, 4, 10, 20, 42] {
            let p = BkPartitioner::partition(&store, theta_c);
            check_partitioning(&store, &p);
        }
    }

    #[test]
    fn random_partitioning_is_valid() {
        let store = random_store(200, 6, 40, 5);
        for theta_c in [0u32, 6, 14, 26] {
            let p = RandomMedoidPartitioner::new(99).partition(&store, theta_c);
            check_partitioning(&store, &p);
        }
    }

    #[test]
    fn theta_c_zero_groups_only_duplicates() {
        let mut store = RankingStore::new(3);
        for items in [[1u32, 2, 3], [1, 2, 3], [4, 5, 6], [1, 2, 3]] {
            store.push_items_unchecked(&items.map(ItemId));
        }
        let p = BkPartitioner::partition(&store, 0);
        assert_eq!(p.num_partitions(), 2);
        let sizes: Vec<u32> = {
            let mut s: Vec<u32> = p.partitions().iter().map(|q| q.size).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn max_theta_c_yields_single_partition() {
        let store = random_store(100, 5, 25, 7);
        let p = BkPartitioner::partition(&store, store.max_distance());
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.partitions()[0].size as usize, store.len());
    }

    #[test]
    fn larger_theta_c_never_increases_medoid_count_bk() {
        let store = random_store(300, 6, 45, 11);
        let mut prev = usize::MAX;
        for theta_c in [0u32, 2, 6, 12, 20, 30, 42] {
            let p = BkPartitioner::partition(&store, theta_c);
            assert!(p.num_partitions() <= prev);
            prev = p.num_partitions();
        }
    }

    #[test]
    fn validate_into_equals_scan_restricted_to_partition() {
        let store = random_store(220, 6, 40, 13);
        let part = BkPartitioner::partition(&store, 12);
        let q = query_pairs(store.items(RankingId(17)));
        let theta = 18u32;
        let mut stats = QueryStats::new();
        let full = linear_scan(&store, &q, theta, &mut stats);
        let mut via_partitions = Vec::new();
        for pi in 0..part.num_partitions() {
            part.validate_into(&store, pi, &q, theta, None, &mut stats, &mut via_partitions);
        }
        let mut expect = full;
        expect.sort_unstable();
        via_partitions.sort_unstable();
        assert_eq!(via_partitions, expect);
    }

    #[test]
    fn lemma1_no_false_negatives() {
        // Every true result's partition has a medoid within θ + θ_C of the
        // query (Lemma 1): validating only those partitions loses nothing.
        let store = random_store(260, 6, 40, 17);
        let theta_c = 10u32;
        let part = BkPartitioner::partition(&store, theta_c);
        for qid in [0u32, 40, 133] {
            let q = query_pairs(store.items(RankingId(qid)));
            for theta in [6u32, 14, 22] {
                let mut stats = QueryStats::new();
                let truth = linear_scan(&store, &q, theta, &mut stats);
                let mut got = Vec::new();
                for pi in 0..part.num_partitions() {
                    let medoid = part.partitions()[pi].medoid;
                    let dm = footrule_store(&store, RankingId(qid), medoid);
                    if dm <= theta + theta_c {
                        part.validate_into(&store, pi, &q, theta, Some(dm), &mut stats, &mut got);
                    }
                }
                let mut expect = truth;
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect, "qid={qid} θ={theta}");
            }
        }
    }
}
