//! AdaptSearch: adaptive prefix filtering for ad-hoc set-similarity
//! search, after Wang, Li & Feng ("Can we beat the prefix filtering?",
//! SIGMOD 2012) — the competitor of the paper's Section 7.
//!
//! Rankings are treated as plain sets under a global total order (items
//! sorted by corpus frequency, rarest first). The **delta inverted index**
//! stores, for every item, the rankings in which the item occupies prefix
//! position `ℓ` of the reordered record — the incremental (`delta`) lists
//! whose unions form the ℓ-prefix indices of AdaptJoin.
//!
//! At query time the required overlap `c` follows from the Footrule
//! overlap bound (`ω` of the paper's Section 6.1, the same quantity the
//! authors plug into their AdaptSearch implementation). The *ℓ-prefix
//! scheme* then states: a ranking overlapping the query in `≥ c` items
//! shares at least `ℓ` items with the query within both `(k − c + ℓ)`-
//! prefixes. Larger `ℓ` means longer prefixes (more postings scanned) but
//! stronger filtering (count threshold `ℓ`); the cost model picks the
//! sweet spot per query:
//!
//! ```text
//! cost(ℓ) = posting_cost · S(ℓ) + candidate_cost · S(ℓ)/ℓ
//! ```
//!
//! where `S(ℓ)` is the total number of postings in the probed delta lists
//! (computable in O(k) from per-item offset arrays) and `S(ℓ)/ℓ` is a
//! sound upper bound on the candidate count (every surviving candidate
//! consumes at least `ℓ` postings).
//!
//! The delta lists live in one CSR arena (a contiguous posting-id array,
//! id-sorted within each `(item, prefix position)` run, plus `k + 1`
//! absolute prefix-position offsets per dense item, like the blocked
//! inverted index), and the per-query candidate counts accumulate
//! in the epoch-versioned [`QueryScratch`] counter — the query hot path
//! performs no hashing and, in steady state, no heap allocation.

use std::sync::Arc;

use ranksim_invindex::drop::omega;
use ranksim_rankings::{
    ExecStats, ItemId, ItemRemap, QueryExecutor, QueryScratch, QueryStats, RankingId, RankingStore,
};

/// Cost-model constants for the adaptive prefix-length choice.
#[derive(Debug, Clone, Copy)]
pub struct AdaptCostParams {
    /// Cost of scanning one posting.
    pub posting_cost: f64,
    /// Cost of verifying one candidate (count aggregation + Footrule).
    pub candidate_cost: f64,
}

impl Default for AdaptCostParams {
    fn default() -> Self {
        // Verification is roughly an order of magnitude more expensive
        // than streaming one posting; the exact ratio only shifts the
        // chosen ℓ by ±1 and can be calibrated by the caller.
        AdaptCostParams {
            posting_cost: 1.0,
            candidate_cost: 12.0,
        }
    }
}

/// The delta inverted index plus the global frequency order.
#[derive(Debug, Clone)]
pub struct AdaptSearchIndex {
    k: usize,
    remap: Arc<ItemRemap>,
    /// Corpus frequency per dense item id (defines the global order).
    freq: Vec<u32>,
    /// All delta postings, item-major, prefix-position-major within each
    /// item, id-sorted within each `(item, prefix position)` run.
    ids: Vec<RankingId>,
    /// `k + 1` absolute offsets per dense item into `ids`; the layout of
    /// the blocked inverted index with prefix positions instead of ranks.
    pos_offsets: Vec<u32>,
    indexed: usize,
    params: AdaptCostParams,
}

impl AdaptSearchIndex {
    /// Indexes every ranking of the store with default cost parameters.
    pub fn build(store: &RankingStore) -> Self {
        Self::build_with_remap(
            store,
            Arc::new(ItemRemap::build(store)),
            AdaptCostParams::default(),
        )
    }

    /// Indexes every ranking of the store against a shared corpus remap.
    pub fn build_with_remap(
        store: &RankingStore,
        remap: Arc<ItemRemap>,
        params: AdaptCostParams,
    ) -> Self {
        let k = store.k();
        let m = remap.len();
        let stride = k + 1;
        // Pass 1: global item frequencies by dense id.
        let mut freq = vec![0u32; m];
        for id in store.live_ids() {
            for &item in store.items(id) {
                // Unmapped items have no dense frequency slot; they are
                // dropped from the reordered records below, so skipping
                // them here keeps both passes consistent.
                let Some(d) = remap.dense(item) else { continue };
                freq[d as usize] += 1;
            }
        }
        // Pass 2: count (dense item, prefix position) occurrences; records
        // are reordered by (freq, item id) — the dense id rides along so
        // the fill passes need no extra lookups.
        let mut pos_offsets = vec![0u32; m * stride + 1];
        let mut record: Vec<(u32, ItemId, u32)> = Vec::with_capacity(k);
        let reorder = |record: &mut Vec<(u32, ItemId, u32)>, items: &[ItemId]| {
            record.clear();
            // Items without a dense coordinate can carry no posting, so
            // they are dropped rather than aborting the build; dropping
            // only moves the ranking's mapped items into *earlier* delta
            // lists, which can never lose a candidate at query time.
            record.extend(
                items
                    .iter()
                    .filter_map(|&i| remap.dense(i).map(|d| (freq[d as usize], i, d))),
            );
            record.sort_unstable();
        };
        for id in store.live_ids() {
            reorder(&mut record, store.items(id));
            for (pos, &(_, _, d)) in record.iter().enumerate() {
                pos_offsets[d as usize * stride + pos + 1] += 1;
            }
        }
        for i in 1..pos_offsets.len() {
            pos_offsets[i] += pos_offsets[i - 1];
        }
        let total = *pos_offsets.last().unwrap_or(&0) as usize;
        let mut cursors: Vec<u32> = pos_offsets[..m * stride].to_vec();
        let mut ids = vec![RankingId(0); total];
        // Pass 3: fill; iterating store ids ascending keeps every
        // (item, position) run id-sorted.
        for id in store.live_ids() {
            reorder(&mut record, store.items(id));
            for (pos, &(_, _, d)) in record.iter().enumerate() {
                let c = &mut cursors[d as usize * stride + pos];
                ids[*c as usize] = id;
                *c += 1;
            }
        }
        AdaptSearchIndex {
            k,
            remap,
            freq,
            ids,
            pos_offsets,
            indexed: store.live_len(),
            params,
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

    /// The shared item remap backing the CSR layout.
    #[inline]
    pub fn remap(&self) -> &Arc<ItemRemap> {
        &self.remap
    }

    /// Corpus frequency of `item` (0 if unseen).
    #[inline]
    fn item_freq(&self, item: ItemId) -> u32 {
        self.remap
            .dense(item)
            .map(|d| self.freq[d as usize])
            .unwrap_or(0)
    }

    /// The query items sorted by the global (frequency, id) order; unseen
    /// items have frequency 0 and sort to the front (rarest).
    fn reorder_query_into(&self, query: &[ItemId], out: &mut Vec<ItemId>) {
        out.clear();
        out.extend_from_slice(query);
        out.sort_unstable_by_key(|&i| (self.item_freq(i), i.0));
    }

    /// Postings of `item`'s delta lists `0..prefix_len` (the item's
    /// ℓ-prefix slice of the CSR arena); empty if the item is unseen.
    #[inline]
    fn prefix_slice(&self, item: ItemId, prefix_len: usize) -> &[RankingId] {
        match self.remap.dense(item) {
            Some(d) => {
                let base = d as usize * (self.k + 1);
                let lo = self.pos_offsets[base] as usize;
                let hi = self.pos_offsets[base + prefix_len] as usize;
                &self.ids[lo..hi]
            }
            None => &[],
        }
    }

    /// `S(ℓ)`: postings in delta lists `1..=k−c+ℓ` of the first `k−c+ℓ`
    /// query-prefix items.
    fn scan_volume(&self, qsorted: &[ItemId], prefix_len: usize) -> u64 {
        qsorted[..prefix_len]
            .iter()
            .map(|&item| self.prefix_slice(item, prefix_len).len() as u64)
            .sum()
    }

    /// Picks the prefix extension `ℓ ∈ 1..=c` minimizing the modeled cost.
    fn choose_ell(&self, qsorted: &[ItemId], c: usize) -> usize {
        let mut best = (1usize, f64::INFINITY);
        for ell in 1..=c {
            let prefix_len = (self.k - c + ell).min(self.k);
            let s = self.scan_volume(qsorted, prefix_len) as f64;
            let cost = self.params.posting_cost * s + self.params.candidate_cost * (s / ell as f64);
            if cost < best.1 {
                best = (ell, cost);
            }
        }
        best.0
    }

    /// AdaptSearch: all indexed rankings within `theta_raw` of the query.
    pub fn search(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.search_into(store, query, theta_raw, &mut scratch, stats, &mut out);
        out
    }

    /// Scratch-reusing AdaptSearch; appends results to `out`.
    fn search_into(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        debug_assert_eq!(self.k, query.len());
        // Required overlap from the Footrule bound; every result overlaps
        // the query in at least one item for θ < d_max, hence max(1, ω).
        let c = omega(self.k, theta_raw).max(1);
        let QueryScratch {
            qmap,
            counts,
            qsorted,
            ..
        } = scratch;
        self.reorder_query_into(query, qsorted);
        let ell = self.choose_ell(qsorted, c);
        let prefix_len = (self.k - c + ell).min(self.k);
        qmap.build(&self.remap, query);

        // Probe phase: count prefix co-occurrences per candidate.
        counts.begin(store.len());
        for &item in &qsorted[..prefix_len] {
            let slice = self.prefix_slice(item, prefix_len);
            stats.count_list(slice.len());
            for &id in slice {
                *counts.probe(id.0) += 1;
            }
        }

        // Verify phase: Footrule per candidate passing the count filter.
        let out_start = out.len();
        for &id in counts.keys() {
            let cnt = counts.get(id).expect("counted candidate");
            if (cnt as usize) < ell {
                continue;
            }
            stats.candidates += 1;
            stats.count_distance();
            match qmap.distance_within(&self.remap, store.items(RankingId(id)), theta_raw) {
                Some(dist) if dist <= theta_raw => out.push(RankingId(id)),
                Some(_) => {}
                None => stats.validations_pruned += 1,
            }
        }
        stats.results += (out.len() - out_start) as u64;
    }

    /// Exact heap footprint in bytes (Table 6's "Delta Inverted Index"
    /// row).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.freq.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<RankingId>()
            + self.pos_offsets.capacity() * std::mem::size_of::<u32>()
            + self.remap.heap_bytes()
    }

    /// Decomposes the index into its flat persistence form. The cost
    /// parameters' f64s are persisted as raw bits by the caller.
    #[doc(hidden)]
    pub fn export_parts(&self) -> AdaptIndexParts {
        AdaptIndexParts {
            k: self.k as u32,
            indexed: self.indexed as u32,
            params: self.params,
            freq: self.freq.clone(),
            pos_offsets: self.pos_offsets.clone(),
            ids: ranksim_rankings::ranking_vec_into_u32(self.ids.clone()),
        }
    }

    /// Rebuilds the index from its flat persistence form against the
    /// corpus remap, validating the strided offset invariants.
    #[doc(hidden)]
    pub fn from_parts(parts: AdaptIndexParts, remap: Arc<ItemRemap>) -> Result<Self, String> {
        let k = parts.k as usize;
        if k == 0 {
            return Err("adaptsearch index k must be positive".into());
        }
        let m = remap.len();
        let stride = k + 1;
        if parts.freq.len() != m {
            return Err(format!(
                "frequency table length {} != remap size {m}",
                parts.freq.len()
            ));
        }
        if parts.pos_offsets.len() != m * stride + 1 {
            return Err(format!(
                "prefix offsets length {} != remap size {m} × (k + 1) + 1",
                parts.pos_offsets.len()
            ));
        }
        if parts.pos_offsets.first().copied().unwrap_or(0) != 0 {
            return Err("prefix offsets must start at 0".into());
        }
        if parts.pos_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("prefix offsets not monotone".into());
        }
        let end = parts.pos_offsets.last().copied().unwrap_or(0) as usize;
        if end != parts.ids.len() {
            return Err(format!(
                "prefix offsets end {end} != posting arena length {}",
                parts.ids.len()
            ));
        }
        Ok(AdaptSearchIndex {
            k,
            remap,
            freq: parts.freq,
            ids: ranksim_rankings::ranking_vec_from_u32(parts.ids),
            pos_offsets: parts.pos_offsets,
            indexed: parts.indexed as usize,
            params: parts.params,
        })
    }
}

/// Flat persistence form of an [`AdaptSearchIndex`].
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct AdaptIndexParts {
    pub k: u32,
    pub indexed: u32,
    pub params: AdaptCostParams,
    pub freq: Vec<u32>,
    pub pos_offsets: Vec<u32>,
    pub ids: Vec<u32>,
}

/// [`QueryExecutor`] running AdaptSearch over a shared delta index.
pub struct AdaptSearchExecutor {
    index: Arc<AdaptSearchIndex>,
}

impl AdaptSearchExecutor {
    /// Wraps a shared delta index.
    pub fn new(index: Arc<AdaptSearchIndex>) -> Self {
        AdaptSearchExecutor { index }
    }
}

impl QueryExecutor for AdaptSearchExecutor {
    fn name(&self) -> &'static str {
        "AdaptSearch"
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
        self.index
            .search_into(store, query, theta_raw, scratch, stats, out);
        ExecStats::since(&before, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use ranksim_rankings::{raw_threshold, PositionMap};

    fn random_store(n: usize, k: usize, domain: u32, seed: u64) -> RankingStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = RankingStore::with_capacity(k, n);
        let mut base: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            let items: Vec<u32> = if !base.is_empty() && rng.random_bool(0.5) {
                let mut items = base[rng.random_range(0..base.len())].clone();
                let a = rng.random_range(0..k);
                let b = rng.random_range(0..k);
                items.swap(a, b);
                if rng.random_bool(0.4) {
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
            if i % 4 == 0 {
                base.push(items.clone());
            }
            let ids: Vec<ItemId> = items.into_iter().map(ItemId).collect();
            store.push_items_unchecked(&ids);
        }
        store
    }

    fn scan(store: &RankingStore, query: &[ItemId], theta_raw: u32) -> Vec<RankingId> {
        let q = PositionMap::new(query);
        store
            .ids()
            .filter(|&id| q.distance_to(store.items(id)) <= theta_raw)
            .collect()
    }

    #[test]
    fn partial_remap_degrades_to_empty_delta_lists() {
        let mut store = RankingStore::new(3);
        store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        store.push_items_unchecked(&[2, 3, 4].map(ItemId));
        store.push_items_unchecked(&[5, 1, 2].map(ItemId));
        // Items 3 and 4 are missing from the remap: they carry no
        // frequency and no delta-list postings, but the build completes
        // instead of panicking. Semantically the index now believes
        // those items exist in no ranking — a query *containing* an
        // unmapped item may therefore prune candidates that only match
        // through it (in engine use, unmapped query items genuinely are
        // absent from the corpus, so nothing is lost).
        let remap = Arc::new(ItemRemap::from_raw_ids(vec![1, 2, 5]));
        let index = AdaptSearchIndex::build_with_remap(&store, remap, AdaptCostParams::default());
        assert_eq!(index.item_freq(ItemId(1)), 2);
        assert_eq!(index.item_freq(ItemId(2)), 3);
        assert_eq!(index.item_freq(ItemId(3)), 0);
        assert_eq!(index.item_freq(ItemId(4)), 0);
        // Queries of entirely mapped items stay exact: any qualifying
        // overlap necessarily goes through mapped items, and the
        // verification step computes true store distances.
        let mut stats = QueryStats::new();
        for raw in [0u32, 2, 4, 8] {
            let q = [5, 1, 2].map(ItemId);
            let mut got = index.search(&store, &q, raw, &mut stats);
            got.sort_unstable();
            assert_eq!(got, scan(&store, &q, raw), "raw={raw}");
        }
    }

    #[test]
    fn adaptsearch_equals_scan() {
        let store = random_store(400, 7, 60, 77);
        let index = AdaptSearchIndex::build(&store);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let base = rng.random_range(0..400u32);
            let mut q: Vec<ItemId> = store.items(RankingId(base)).to_vec();
            q.swap(0, 3);
            for theta in [0.0, 0.1, 0.2, 0.3] {
                let raw = raw_threshold(theta, 7);
                let mut stats = QueryStats::new();
                let mut got = index.search(&store, &q, raw, &mut stats);
                let mut expect = scan(&store, &q, raw);
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "θ={theta}");
            }
        }
    }

    #[test]
    fn shared_scratch_search_equals_fresh_scratch() {
        let store = random_store(300, 6, 50, 41);
        let index = AdaptSearchIndex::build(&store);
        let mut shared = QueryScratch::new();
        for seed in 0..15u64 {
            let mut q: Vec<ItemId> = store.items(RankingId((seed * 11 % 300) as u32)).to_vec();
            q.swap(0, (seed % 5) as usize + 1);
            let raw = raw_threshold(0.1 * (seed % 4) as f64, 6);
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut got = Vec::new();
            index.search_into(&store, &q, raw, &mut shared, &mut s1, &mut got);
            let mut expect = index.search(&store, &q, raw, &mut s2);
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "seed {seed}");
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn prefix_probing_scans_fewer_postings_than_full_index() {
        let store = random_store(600, 10, 100, 99);
        let index = AdaptSearchIndex::build(&store);
        let q: Vec<ItemId> = store.items(RankingId(11)).to_vec();
        let raw = raw_threshold(0.1, 10);
        let mut stats = QueryStats::new();
        let _ = index.search(&store, &q, raw, &mut stats);
        let full: u64 = q.iter().map(|&i| index.item_freq(i) as u64).sum();
        assert!(
            stats.entries_scanned < full,
            "prefix probing ({}) must beat scanning all k lists ({full})",
            stats.entries_scanned
        );
    }

    #[test]
    fn exact_search_uses_maximal_filtering() {
        // θ = 0 ⇒ c = k ⇒ prefix length ℓ with strong count filter; all
        // returned rankings equal the query.
        let store = random_store(300, 6, 50, 55);
        let index = AdaptSearchIndex::build(&store);
        let q: Vec<ItemId> = store.items(RankingId(8)).to_vec();
        let mut stats = QueryStats::new();
        let got = index.search(&store, &q, 0, &mut stats);
        assert!(got.contains(&RankingId(8)));
        for id in got {
            assert_eq!(store.items(id), q.as_slice());
        }
    }

    #[test]
    fn cost_model_prefers_small_scan_volume() {
        let store = random_store(500, 8, 70, 31);
        let index = AdaptSearchIndex::build(&store);
        let q: Vec<ItemId> = store.items(RankingId(0)).to_vec();
        let mut qsorted = Vec::new();
        index.reorder_query_into(&q, &mut qsorted);
        // S(ℓ) grows with prefix length.
        let c = 4usize;
        let mut prev = 0u64;
        for ell in 1..=c {
            let s = index.scan_volume(&qsorted, 8 - c + ell);
            assert!(s >= prev);
            prev = s;
        }
        let ell = index.choose_ell(&qsorted, c);
        assert!((1..=c).contains(&ell));
    }

    #[test]
    fn disjoint_query_returns_empty() {
        let store = random_store(100, 5, 30, 3);
        let index = AdaptSearchIndex::build(&store);
        let q: Vec<ItemId> = (500..505u32).map(ItemId).collect();
        let mut stats = QueryStats::new();
        assert!(index.search(&store, &q, 8, &mut stats).is_empty());
    }
}
