//! The coarse hybrid index (paper Section 4).
//!
//! Construction: partition the corpus at radius `θ_C` with the BK-subtree
//! partitioner (Figure 1) and put only the partition medoids into an
//! inverted index. Querying (Algorithm 1): retrieve medoids within the
//! *relaxed* threshold `θ + θ_C` through plain F&V — optionally with
//! Lemma 2 list dropping (`Coarse+Drop`) — then validate each hit
//! partition against the original `θ` through its BK-subtrees.
//!
//! Lemma 1 (no false negatives): a result `τ` with `d(τ, q) ≤ θ` lives in
//! a partition whose medoid satisfies `d(τ_m, q) ≤ d(τ_m, τ) + d(τ, q) ≤
//! θ_C + θ`, so the relaxed filter retrieves its partition. Medoids with
//! zero query overlap are invisible to the inverted index, which is safe
//! exactly while `θ + θ_C < d_max` (their distance is then provably above
//! the relaxed threshold); beyond that the index falls back to a medoid
//! scan, preserving correctness at degraded speed.
//!
//! The index is built once over a corpus and then queried. A live corpus
//! goes through the engine's delta overlay, and `Engine::compact`
//! rebuilds the index; the persisted form keeps only the partitioning
//! and the medoid index, and derives the medoid → partition table.
//!
//! Both phases run through the reusable [`QueryScratch`]: the filter
//! reuses the F&V epoch structures, the validation reuses the sorted
//! query-pair buffer and the BK traversal stack — zero heap allocations
//! per steady-state query.

use std::sync::Arc;

use ranksim_invindex::fv::filter_validate_relaxed_into;
use ranksim_invindex::PlainInvertedIndex;
use ranksim_metricspace::{query_pairs_into, BkPartitioner, Partitioning};
use ranksim_rankings::{
    footrule_pairs, ExecStats, ItemId, ItemRemap, QueryExecutor, QueryScratch, QueryStats,
    RankingId, RankingStore,
};

/// Construction-time statistics (Table 6 reporting).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoarseBuildStats {
    /// Footrule evaluations spent building the BK-tree / partitions.
    pub distance_calls: u64,
    /// Number of partitions (= medoids in the inverted index).
    pub num_partitions: usize,
}

/// The coarse hybrid index.
///
/// Built once over a corpus and then queried; a live corpus goes through
/// the engine's delta overlay and a rebuild on compaction. Removals need
/// no index operation: tombstoned members are filtered at emission and a
/// tombstoned medoid keeps representing its partition with frozen
/// content, so every triangle-inequality bound stays exact.
#[derive(Debug, Clone)]
pub struct CoarseIndex {
    theta_c_raw: u32,
    partitioning: Partitioning,
    medoid_index: PlainInvertedIndex,
    /// `medoid_to_partition[ranking] = partition` for medoids,
    /// `u32::MAX` otherwise — a flat array instead of a hash map, derived
    /// from the partitioning (never persisted).
    medoid_to_partition: Vec<u32>,
    build: CoarseBuildStats,
}

/// The `ranking → partition` table of a partitioning's medoids over a
/// store id space of `id_space` rankings; `Err` when a medoid lies
/// outside it or two partitions share a medoid.
fn medoid_map(partitioning: &Partitioning, id_space: usize) -> Result<Vec<u32>, String> {
    let mut map = vec![u32::MAX; id_space];
    for (pi, m) in partitioning.medoids().enumerate() {
        match map.get_mut(m.index()) {
            None => return Err(format!("medoid {} is outside the store", m.0)),
            Some(slot) if *slot != u32::MAX => {
                return Err(format!("ranking {} is the medoid of two partitions", m.0))
            }
            Some(slot) => *slot = pi as u32,
        }
    }
    Ok(map)
}

impl CoarseIndex {
    /// Builds the index at partitioning radius `theta_c_raw` using the
    /// BK-subtree partitioner.
    pub fn build(store: &RankingStore, theta_c_raw: u32) -> Self {
        Self::build_with_remap(store, Arc::new(ItemRemap::build(store)), theta_c_raw)
    }

    /// Builds the index at radius `theta_c_raw` against a shared corpus
    /// remap.
    pub fn build_with_remap(store: &RankingStore, remap: Arc<ItemRemap>, theta_c_raw: u32) -> Self {
        let partitioning = BkPartitioner::partition(store, theta_c_raw);
        Self::from_partitioning_with_remap(store, remap, partitioning)
    }

    /// Builds the index from an existing partitioning (any scheme whose
    /// partitions respect the radius guarantee works).
    pub fn from_partitioning(store: &RankingStore, partitioning: Partitioning) -> Self {
        Self::from_partitioning_with_remap(store, Arc::new(ItemRemap::build(store)), partitioning)
    }

    /// Builds the index from an existing partitioning and a shared remap.
    fn from_partitioning_with_remap(
        store: &RankingStore,
        remap: Arc<ItemRemap>,
        partitioning: Partitioning,
    ) -> Self {
        let mut medoids: Vec<RankingId> = partitioning.medoids().collect();
        medoids.sort_unstable();
        let medoid_index = PlainInvertedIndex::build_with_remap(store, remap, medoids);
        let medoid_to_partition = medoid_map(&partitioning, store.len())
            .expect("a partitioner picks each medoid from the store, once");
        let build = CoarseBuildStats {
            distance_calls: partitioning.build_distance_calls,
            num_partitions: partitioning.num_partitions(),
        };
        CoarseIndex {
            theta_c_raw: partitioning.theta_c_raw(),
            partitioning,
            medoid_index,
            medoid_to_partition,
            build,
        }
    }

    /// The partitioning radius in raw Footrule units.
    pub fn theta_c_raw(&self) -> u32 {
        self.theta_c_raw
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitioning.num_partitions()
    }

    /// Construction statistics.
    pub fn build_stats(&self) -> CoarseBuildStats {
        self.build
    }

    /// The underlying partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// **Filtering phase** (Algorithm 1, line 1): the partitions whose
    /// medoid lies within `θ + θ_C` of the query, with the medoid
    /// distances already computed.
    pub fn filter(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        drop_lists: bool,
        stats: &mut QueryStats,
    ) -> Vec<(u32, u32)> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.filter_into(
            store,
            query,
            theta_raw,
            drop_lists,
            &mut scratch,
            stats,
            &mut out,
        );
        out
    }

    /// Scratch-reusing filtering phase; appends `(partition, medoid
    /// distance)` pairs to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn filter_into(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        drop_lists: bool,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<(u32, u32)>,
    ) {
        let relaxed = theta_raw.saturating_add(self.theta_c_raw);
        if relaxed >= store.max_distance() {
            // Inverted-index retrieval incomplete: scan the medoids.
            query_pairs_into(query, &mut scratch.qp);
            for (pi, p) in self.partitioning.partitions().iter().enumerate() {
                stats.count_distance();
                let d = footrule_pairs(&scratch.qp, store.sorted_pairs(p.medoid), store.k());
                if d <= relaxed {
                    out.push((pi as u32, d));
                }
            }
            return;
        }
        let mut hits = std::mem::take(&mut scratch.hits);
        hits.clear();
        filter_validate_relaxed_into(
            &self.medoid_index,
            store,
            query,
            relaxed,
            drop_lists,
            scratch,
            stats,
            &mut hits,
        );
        // Medoid hits are partitions to search, not query results.
        stats.results -= hits.len() as u64;
        out.extend(
            hits.iter()
                .map(|&(medoid, d)| (self.medoid_to_partition[medoid.index()], d)),
        );
        scratch.hits = hits;
    }

    /// **Validation phase** (Algorithm 1, lines 2–4): runs the original
    /// threshold through each retrieved partition's BK-subtrees.
    pub fn validate(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        filtered: &[(u32, u32)],
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.validate_with(
            store,
            query,
            theta_raw,
            filtered,
            &mut scratch,
            stats,
            &mut out,
        );
        out
    }

    /// Scratch-reusing validation phase; appends results to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn validate_with(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        filtered: &[(u32, u32)],
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let QueryScratch { qp, tree_stack, .. } = scratch;
        query_pairs_into(query, qp);
        let out_start = out.len();
        for &(pi, medoid_dist) in filtered {
            self.partitioning.validate_into_with(
                store,
                pi as usize,
                qp,
                theta_raw,
                Some(medoid_dist),
                tree_stack,
                stats,
                out,
            );
        }
        stats.results += (out.len() - out_start) as u64;
    }

    /// Full query: `Coarse` (`drop_lists = false`) or `Coarse+Drop`.
    pub fn query(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        drop_lists: bool,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.query_into(
            store,
            query,
            theta_raw,
            drop_lists,
            &mut scratch,
            stats,
            &mut out,
        );
        out
    }

    /// Scratch-reusing full query; appends results to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn query_into(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        drop_lists: bool,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let mut filtered = std::mem::take(&mut scratch.filtered);
        filtered.clear();
        self.filter_into(
            store,
            query,
            theta_raw,
            drop_lists,
            scratch,
            stats,
            &mut filtered,
        );
        self.validate_with(store, query, theta_raw, &filtered, scratch, stats, out);
        scratch.filtered = filtered;
    }

    /// Approximate heap footprint in bytes (Table 6's "Coarse Index" row:
    /// partition trees plus the medoid inverted index).
    pub fn heap_bytes(&self) -> usize {
        self.partitioning.heap_bytes()
            + self.medoid_index.heap_bytes()
            + self.medoid_to_partition.capacity() * std::mem::size_of::<u32>()
    }

    /// Decomposes the index into its flat persistence form.
    pub(crate) fn export_parts(&self) -> CoarseIndexParts {
        CoarseIndexParts {
            theta_c_raw: self.theta_c_raw,
            partitioning: self.partitioning.export_parts(),
            medoid_index: self.medoid_index.export_parts(),
        }
    }

    /// Rebuilds the index from its flat persistence form against the
    /// corpus remap and the store's id space (build statistics reset;
    /// partition count recomputed). The medoid table is derived from the
    /// partitioning, and the medoid index must hold exactly the partition
    /// medoids: each one indexed, and no posting naming a ranking that is
    /// no medoid.
    pub(crate) fn from_parts(
        parts: CoarseIndexParts,
        remap: Arc<ItemRemap>,
        id_space: usize,
    ) -> Result<Self, String> {
        let partitioning = Partitioning::from_parts(parts.partitioning)?;
        let medoid_to_partition = medoid_map(&partitioning, id_space)?;
        let mut posted = vec![false; partitioning.num_partitions()];
        for &id in &parts.medoid_index.postings {
            match medoid_to_partition.get(id as usize) {
                Some(&pi) if pi != u32::MAX => posted[pi as usize] = true,
                _ => {
                    return Err(format!(
                        "medoid index posts ranking {id}, which is no medoid"
                    ))
                }
            }
        }
        if let Some(pi) = posted.iter().position(|&p| !p) {
            return Err(format!("the medoid of partition {pi} has no posting"));
        }
        let medoid_index = PlainInvertedIndex::from_parts(parts.medoid_index, remap)?;
        let build = CoarseBuildStats {
            distance_calls: 0,
            num_partitions: partitioning.num_partitions(),
        };
        Ok(CoarseIndex {
            theta_c_raw: parts.theta_c_raw,
            partitioning,
            medoid_index,
            medoid_to_partition,
            build,
        })
    }
}

/// Flat persistence form of a [`CoarseIndex`].
#[derive(Debug, Clone)]
pub(crate) struct CoarseIndexParts {
    pub theta_c_raw: u32,
    pub partitioning: ranksim_metricspace::PartitioningParts,
    pub medoid_index: ranksim_invindex::PlainIndexParts,
}

/// [`QueryExecutor`] running the coarse hybrid path (`Coarse` or, with
/// `drop_lists`, `Coarse+Drop`) over a shared coarse index — the
/// metric-space side of the engine's executor table.
pub struct CoarseExecutor {
    index: Arc<CoarseIndex>,
    drop_lists: bool,
}

impl CoarseExecutor {
    /// Wraps a shared coarse index; `drop_lists` selects `Coarse+Drop`.
    pub fn new(index: Arc<CoarseIndex>, drop_lists: bool) -> Self {
        CoarseExecutor { index, drop_lists }
    }
}

impl QueryExecutor for CoarseExecutor {
    fn name(&self) -> &'static str {
        if self.drop_lists {
            "Coarse+Drop"
        } else {
            "Coarse"
        }
    }

    fn execute(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> ExecStats {
        let before = *stats;
        self.index.query_into(
            store,
            query,
            theta_raw,
            self.drop_lists,
            scratch,
            stats,
            out,
        );
        ExecStats::since(&before, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_datasets::{nyt_like, workload, WorkloadParams};
    use ranksim_metricspace::{linear_scan, query_pairs};
    use ranksim_rankings::raw_threshold;

    fn check_against_scan(theta_c: f64, thetas: &[f64]) {
        let ds = nyt_like(1200, 10, 21);
        let store = &ds.store;
        let index = CoarseIndex::build(store, raw_threshold(theta_c, 10));
        let wl = workload(
            store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 15,
                seed: 77,
                ..Default::default()
            },
        );
        let mut scratch = QueryScratch::new();
        for q in &wl.queries {
            let qp = query_pairs(q);
            for &theta in thetas {
                let raw = raw_threshold(theta, 10);
                let mut s1 = QueryStats::new();
                let mut s2 = QueryStats::new();
                let mut s3 = QueryStats::new();
                let mut expect = linear_scan(store, &qp, raw, &mut s1);
                let mut got = index.query(store, q, raw, false, &mut s2);
                // The drop arm reuses one scratch across the whole sweep.
                let mut got_drop = Vec::new();
                index.query_into(store, q, raw, true, &mut scratch, &mut s3, &mut got_drop);
                expect.sort_unstable();
                got.sort_unstable();
                got_drop.sort_unstable();
                assert_eq!(got, expect, "Coarse θ={theta} θC={theta_c}");
                assert_eq!(got_drop, expect, "Coarse+Drop θ={theta} θC={theta_c}");
            }
        }
    }

    #[test]
    fn coarse_equals_scan_small_theta_c() {
        check_against_scan(0.06, &[0.0, 0.1, 0.2, 0.3]);
    }

    #[test]
    fn coarse_equals_scan_paper_theta_c() {
        check_against_scan(0.5, &[0.0, 0.1, 0.2, 0.3]);
    }

    #[test]
    fn coarse_handles_infeasible_relaxed_threshold() {
        // θ + θC ≥ d_max triggers the medoid-scan fallback; results must
        // still be exact.
        check_against_scan(0.8, &[0.3]);
    }

    #[test]
    fn theta_c_zero_degenerates_to_plain_fv() {
        // Every non-duplicate ranking becomes its own medoid.
        let ds = nyt_like(500, 10, 5);
        let index = CoarseIndex::build(&ds.store, 0);
        assert!(index.num_partitions() <= 500);
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 5,
                seed: 3,
                ..Default::default()
            },
        );
        for q in &wl.queries {
            let raw = raw_threshold(0.2, 10);
            let qp = query_pairs(q);
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut expect = linear_scan(&ds.store, &qp, raw, &mut s1);
            let mut got = index.query(&ds.store, q, raw, false, &mut s2);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn larger_theta_c_means_fewer_medoids() {
        let ds = nyt_like(1000, 10, 9);
        let mut prev = usize::MAX;
        for theta_c in [0.0, 0.1, 0.3, 0.5] {
            let idx = CoarseIndex::build(&ds.store, raw_threshold(theta_c, 10));
            assert!(idx.num_partitions() <= prev);
            prev = idx.num_partitions();
        }
    }

    #[test]
    fn filter_distances_are_exact_medoid_distances() {
        let ds = nyt_like(800, 10, 13);
        let index = CoarseIndex::build(&ds.store, raw_threshold(0.3, 10));
        let q: Vec<ItemId> = ds.store.items(RankingId(17)).to_vec();
        let qp = query_pairs(&q);
        let mut stats = QueryStats::new();
        for (pi, d) in index.filter(&ds.store, &q, raw_threshold(0.2, 10), false, &mut stats) {
            let medoid = index.partitioning().partitions()[pi as usize].medoid;
            let truth = footrule_pairs(&qp, ds.store.sorted_pairs(medoid), 10);
            assert_eq!(d, truth);
        }
    }

    #[test]
    fn from_parts_rejects_a_medoid_index_that_is_not_the_medoids() {
        // The file loader is outside input: a tampered medoid index must
        // be an `Err`, never a query that reads partition `u32::MAX`.
        let ds = nyt_like(400, 10, 17);
        let remap = Arc::new(ItemRemap::build(&ds.store));
        let index = CoarseIndex::build_with_remap(&ds.store, remap.clone(), raw_threshold(0.3, 10));
        let parts = index.export_parts();
        assert!(CoarseIndex::from_parts(parts.clone(), remap.clone(), 400).is_ok());
        // A partitioning whose medoids lie past the store.
        assert!(CoarseIndex::from_parts(parts.clone(), remap.clone(), 10).is_err());
        let medoids: Vec<u32> = index.partitioning().medoids().map(|m| m.0).collect();
        let non_medoid = (0..400u32).find(|id| !medoids.contains(id)).unwrap();
        // A posting naming a ranking that heads no partition, one past
        // every table, and a medoid index missing a medoid.
        for forged in [non_medoid, u32::MAX - 1] {
            let mut bad = parts.clone();
            bad.medoid_index.postings[0] = forged;
            assert!(
                CoarseIndex::from_parts(bad, remap.clone(), 400).is_err(),
                "posting {forged} accepted"
            );
        }
        let mut subset = medoids.clone();
        subset.sort_unstable();
        subset.pop();
        let mut bad = parts.clone();
        bad.medoid_index = PlainInvertedIndex::build_with_remap(
            &ds.store,
            remap.clone(),
            subset.into_iter().map(RankingId),
        )
        .export_parts();
        assert!(CoarseIndex::from_parts(bad, remap, 400).is_err());
    }

    #[test]
    fn exact_duplicate_partitions_save_distance_calls() {
        // Figure 10's Coarse effect: exact duplicates of the medoid are
        // reported from the BK edge-0 subtree; they cost tree traversal
        // but the medoid itself is never re-evaluated in validation.
        let mut store = RankingStore::new(4);
        for _ in 0..50 {
            store.push_items_unchecked(&[1, 2, 3, 4].map(ItemId));
        }
        let index = CoarseIndex::build(&store, 8);
        assert_eq!(index.num_partitions(), 1);
        let q: Vec<ItemId> = [1u32, 2, 3, 4].map(ItemId).to_vec();
        let mut stats = QueryStats::new();
        let res = index.query(&store, &q, 0, false, &mut stats);
        assert_eq!(res.len(), 50);
        // Filter evaluates the medoid once; validation walks the 49-node
        // duplicate chain — 50 total, never more than one per ranking.
        assert!(stats.distance_calls <= 50, "DFC = {}", stats.distance_calls);
    }
}
