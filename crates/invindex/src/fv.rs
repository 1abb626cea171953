//! Filter & Validate (paper Section 4) and its list-dropping variant
//! (Section 6.1).
//!
//! **Filter**: probe the inverted index with every query item and union the
//! postings into a candidate set — everything sharing at least one item
//! with the query. **Validate**: evaluate the Footrule distance of each
//! candidate against the store (one DFC per candidate) and keep those
//! within the threshold.
//!
//! `F&V+Drop` accesses only the lists chosen by [`crate::drop`], skipping
//! the longest lists the overlap bound allows; candidates and DFCs shrink
//! accordingly with zero false negatives (Lemma 2).
//!
//! The `_into` entry points are the hot path: they thread a reusable
//! [`QueryScratch`] (epoch-versioned candidate set, flat query map) and
//! append into caller-owned buffers, performing zero heap allocations in
//! steady state. The plain functions are thin compatibility wrappers that
//! allocate a scratch per call.

use crate::drop::keep_positions_into;
use crate::plain::PlainInvertedIndex;
use ranksim_rankings::{ItemId, QueryScratch, QueryStats, RankingId, RankingStore};

/// F&V: returns all indexed rankings within `theta_raw` of the query.
pub fn filter_validate(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<RankingId> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    filter_validate_into(
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

/// F&V+Drop: like [`filter_validate`] but only accesses the index lists
/// Lemma 2 requires.
pub fn filter_validate_drop(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<RankingId> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    filter_validate_drop_into(
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

/// Scratch-reusing F&V; appends results to `out`.
pub fn filter_validate_into(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    let mut positions = std::mem::take(&mut scratch.positions);
    positions.clear();
    positions.extend(0..query.len());
    let mut hits = std::mem::take(&mut scratch.hits);
    hits.clear();
    filter_validate_positions_into(
        index, store, query, &positions, theta_raw, scratch, stats, &mut hits,
    );
    out.extend(hits.iter().map(|&(id, _)| id));
    scratch.hits = hits;
    scratch.positions = positions;
}

/// Scratch-reusing F&V+Drop; appends results to `out`.
pub fn filter_validate_drop_into(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    let mut positions = std::mem::take(&mut scratch.positions);
    let mut by_len = std::mem::take(&mut scratch.positions_tmp);
    keep_positions_into(
        query,
        theta_raw,
        |p| index.list_len(query[p]),
        &mut positions,
        &mut by_len,
    );
    let mut hits = std::mem::take(&mut scratch.hits);
    hits.clear();
    filter_validate_positions_into(
        index, store, query, &positions, theta_raw, scratch, stats, &mut hits,
    );
    out.extend(hits.iter().map(|&(id, _)| id));
    scratch.hits = hits;
    scratch.positions = positions;
    scratch.positions_tmp = by_len;
}

/// Shared core returning `(id, distance)` pairs — the coarse index uses
/// the distances to seed partition validation without recomputation.
pub fn filter_validate_positions(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    positions: &[usize],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<(RankingId, u32)> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    filter_validate_positions_into(
        index,
        store,
        query,
        positions,
        theta_raw,
        &mut scratch,
        stats,
        &mut out,
    );
    out
}

/// Scratch-reusing core of every F&V variant: unions the postings of the
/// selected query positions through the epoch-versioned candidate set,
/// then validates each candidate with one flat-map distance evaluation.
/// Appends `(id, distance)` pairs to `out`.
///
/// Validation runs through
/// [`ranksim_rankings::scratch::FlatPositionMap::distance_within`]; a
/// pruned walk (`None`) is a proven miss counted in `validations_pruned`.
#[allow(clippy::too_many_arguments)]
fn filter_validate_positions_into(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    positions: &[usize],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<(RankingId, u32)>,
) {
    debug_assert_eq!(index.k(), query.len());
    let remap = index.remap();
    let QueryScratch { qmap, marks, .. } = scratch;
    // Filtering phase: union of the selected postings lists.
    marks.begin(store.len());
    for &p in positions {
        if let Some(list) = index.list(query[p]) {
            stats.count_list(list.len());
            for &id in list {
                marks.mark(id.0);
            }
        } else {
            stats.count_list(0);
        }
    }
    stats.candidates += marks.len() as u64;
    // Validation phase: one distance call per candidate.
    qmap.build(remap, query);
    let out_start = out.len();
    for &id in marks.keys() {
        stats.count_distance();
        match qmap.distance_within(remap, store.items(RankingId(id)), theta_raw) {
            Some(d) if d <= theta_raw => out.push((RankingId(id), d)),
            Some(_) => {}
            None => stats.validations_pruned += 1,
        }
    }
    stats.results += (out.len() - out_start) as u64;
}

/// Variant of [`filter_validate_positions_into`] that validates against
/// the *relaxed* threshold but reports distances, for coarse-index
/// filtering (query medoids with `θ + θ_C`, Section 4.2).
#[allow(clippy::too_many_arguments)]
pub fn filter_validate_relaxed_into(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    relaxed_theta_raw: u32,
    drop_lists: bool,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<(RankingId, u32)>,
) {
    let mut positions = std::mem::take(&mut scratch.positions);
    if drop_lists {
        let mut by_len = std::mem::take(&mut scratch.positions_tmp);
        keep_positions_into(
            query,
            relaxed_theta_raw,
            |p| index.list_len(query[p]),
            &mut positions,
            &mut by_len,
        );
        scratch.positions_tmp = by_len;
    } else {
        positions.clear();
        positions.extend(0..query.len());
    }
    filter_validate_positions_into(
        index,
        store,
        query,
        &positions,
        relaxed_theta_raw,
        scratch,
        stats,
        out,
    );
    scratch.positions = positions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equals_scan, perturbed_query, random_store, scan};
    use ranksim_rankings::{raw_threshold, PositionMap};

    #[test]
    fn fv_equals_scan() {
        let store = random_store(300, 7, 60, 100);
        let index = PlainInvertedIndex::build(&store);
        for seed in 0..12u64 {
            let q = perturbed_query(&store, RankingId((seed * 23 % 300) as u32), 60, seed);
            for theta in [0.0, 0.1, 0.2, 0.3] {
                let raw = raw_threshold(theta, 7);
                let mut stats = QueryStats::new();
                let got = filter_validate(&index, &store, &q, raw, &mut stats);
                assert_equals_scan(&store, &q, raw, got);
            }
        }
    }

    #[test]
    fn fv_drop_equals_scan() {
        let store = random_store(300, 7, 60, 200);
        let index = PlainInvertedIndex::build(&store);
        for seed in 0..12u64 {
            let q = perturbed_query(&store, RankingId((seed * 31 % 300) as u32), 60, seed);
            for theta in [0.0, 0.1, 0.2, 0.3] {
                let raw = raw_threshold(theta, 7);
                let mut stats = QueryStats::new();
                let got = filter_validate_drop(&index, &store, &q, raw, &mut stats);
                assert_equals_scan(&store, &q, raw, got);
            }
        }
    }

    #[test]
    fn shared_scratch_across_queries_equals_fresh_scratch() {
        let store = random_store(250, 6, 50, 123);
        let index = PlainInvertedIndex::build(&store);
        let mut shared = QueryScratch::new();
        for seed in 0..20u64 {
            let q = perturbed_query(&store, RankingId((seed * 13 % 250) as u32), 50, seed);
            let raw = raw_threshold(0.05 * (seed % 5) as f64, 6);
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut via_shared = Vec::new();
            filter_validate_into(
                &index,
                &store,
                &q,
                raw,
                &mut shared,
                &mut s1,
                &mut via_shared,
            );
            let via_fresh = filter_validate(&index, &store, &q, raw, &mut s2);
            let mut a = via_shared;
            let mut b = via_fresh;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "stale scratch state leaked at seed {seed}");
            assert_eq!(s1, s2, "stats must not depend on scratch reuse");
        }
    }

    #[test]
    fn drop_accesses_fewer_lists_and_distances() {
        let store = random_store(500, 10, 80, 300);
        let index = PlainInvertedIndex::build(&store);
        let q = perturbed_query(&store, RankingId(123), 80, 9);
        let raw = raw_threshold(0.1, 10);
        let mut s_full = QueryStats::new();
        let mut s_drop = QueryStats::new();
        let a = filter_validate(&index, &store, &q, raw, &mut s_full);
        let b = filter_validate_drop(&index, &store, &q, raw, &mut s_drop);
        assert_eq!(
            {
                let mut a = a;
                a.sort_unstable();
                a
            },
            {
                let mut b = b;
                b.sort_unstable();
                b
            }
        );
        assert!(s_drop.lists_accessed < s_full.lists_accessed);
        assert!(s_drop.distance_calls <= s_full.distance_calls);
        // k=10, θ=0.1 ⇒ ω=7 ⇒ only 3 lists accessed.
        assert_eq!(s_drop.lists_accessed, 3);
    }

    #[test]
    fn relaxed_reports_correct_distances() {
        let store = random_store(150, 6, 40, 5);
        let index = PlainInvertedIndex::build(&store);
        let q = perturbed_query(&store, RankingId(10), 40, 77);
        let qmap = PositionMap::new(&q);
        let mut stats = QueryStats::new();
        let mut out = Vec::new();
        let mut scratch = QueryScratch::new();
        filter_validate_relaxed_into(
            &index,
            &store,
            &q,
            20,
            false,
            &mut scratch,
            &mut stats,
            &mut out,
        );
        for (id, d) in out {
            assert_eq!(d, qmap.distance_to(store.items(id)));
            assert!(d <= 20);
        }
    }

    #[test]
    fn zero_overlap_queries_return_empty() {
        let store = random_store(100, 5, 30, 6);
        let index = PlainInvertedIndex::build(&store);
        // Items far outside the domain: no list exists.
        let q: Vec<ItemId> = (1000..1005u32).map(ItemId).collect();
        let mut stats = QueryStats::new();
        let got = filter_validate(&index, &store, &q, 10, &mut stats);
        assert!(got.is_empty());
        assert_eq!(stats.distance_calls, 0);
        assert_eq!(scan(&store, &q, 10).len(), 0);
    }
}
