//! Differential harness for the distance kernel: an engine validating
//! through the chunked, suffix-bound-aborting kernel must be
//! **indistinguishable** from the brute-force oracle (`linear_scan` /
//! `knn_linear` over the live store) across every algorithm of the
//! paper's evaluation, the `Auto` planner, exact top-k, and through the
//! mutable delta plane.
//!
//! Thresholds compare canonical (sorted) result sets; top-k answers
//! must be bit-identical `(distance, id)` sequences. The deterministic
//! test additionally pins that the kernel does exactly the work it
//! claims: one distance call per distinct candidate, most misses
//! abandoned by the suffix-bound early exit, none at all for ListMerge.
//! Those counts are exact, so they gate the kernel where a wall-clock
//! floor could not.

use proptest::prelude::*;
use ranksim::datasets::{nyt_like, workload, WorkloadParams};
use ranksim::metricspace::{knn_linear, linear_scan, query_pairs};
use ranksim::prelude::*;

fn corpus(n: usize, k: usize, domain: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::sample::subsequence((0..domain).collect::<Vec<u32>>(), k).prop_shuffle(),
        n,
    )
}

fn store_of(rankings: &[Vec<u32>]) -> RankingStore {
    let k = rankings[0].len();
    let mut store = RankingStore::new(k);
    for r in rankings {
        store
            .push(&Ranking::new(r.iter().copied()).unwrap())
            .unwrap();
    }
    store
}

fn grid_engine(store: RankingStore) -> Engine {
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .build()
}

/// Brute-force range answer over the live corpus, sorted.
fn scan(store: &RankingStore, q: &[ItemId], raw: u32) -> Vec<RankingId> {
    let mut expect = linear_scan(store, &query_pairs(q), raw, &mut QueryStats::new());
    expect.sort_unstable();
    expect
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every algorithm plus `Auto` plus top-k equals the brute-force
    /// oracle on random corpora and mixed θ (the high end drives the
    /// kernel's suffix-bound abort).
    #[test]
    fn every_algorithm_equals_the_scalar_oracle(
        rankings in corpus(70, 6, 22),
        query in proptest::sample::subsequence((0..22u32).collect::<Vec<u32>>(), 6).prop_shuffle(),
        theta in 0.0f64..0.5,
        neighbours in 1usize..20,
    ) {
        let store = store_of(&rankings);
        let raw = raw_threshold(theta, 6);
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let expect = scan(&store, &q, raw);
        let topk_expect = knn_linear(
            &store,
            &query_pairs(&q),
            neighbours.min(store.live_len()),
            &mut QueryStats::new(),
        );
        let engine = grid_engine(store);
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let mut got = engine.query_items(alg, &q, raw, &mut scratch, &mut stats);
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "{} θ={}", alg, theta);
        }
        let topk = engine.query_topk(&q, neighbours, &mut scratch, &mut stats);
        prop_assert_eq!(&topk, &topk_expect, "top-k");
    }

    /// The kernel stays exact **through mutations**: inserts land in the
    /// delta overlay, removals in the tombstone plane — answers must keep
    /// matching the brute-force oracle over the mutated live corpus.
    #[test]
    fn every_algorithm_stays_equivalent_through_mutations(
        rankings in corpus(50, 5, 16),
        inserts in corpus(6, 5, 16),
        query in proptest::sample::subsequence((0..16u32).collect::<Vec<u32>>(), 5).prop_shuffle(),
        theta in 0.0f64..0.4,
        victim in 0u32..50,
    ) {
        let raw = raw_threshold(theta, 5);
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let mut engine = grid_engine(store_of(&rankings));
        for ins in &inserts {
            let items: Vec<ItemId> = ins.iter().copied().map(ItemId).collect();
            engine.insert_ranking(&items);
        }
        engine.remove_ranking(RankingId(victim));
        let expect = scan(engine.store(), &q, raw);
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let mut got = engine.query_items(alg, &q, raw, &mut scratch, &mut stats);
            got.sort_unstable();
            prop_assert_eq!(&got, &expect, "{} θ={} after mutations", alg, theta);
        }
    }
}

/// The kernel's work counters on a NYT-like corpus at θ = 0.2:
/// - F&V makes exactly one distance call per distinct candidate, and the
///   candidates are exactly the rankings sharing an item with the query
///   (the union of its postings, counted here from the store itself) —
///   the scalar oracle's count;
/// - the suffix-bound exit of `FlatPositionMap::distance_within`
///   abandons at least 90% of the misses (on this skewed corpus nearly
///   every miss is decided before the last chunk);
/// - ListMerge aggregates from postings and makes no distance call;
/// - every answer equals the linear scan.
#[test]
fn kernel_work_counters_match_the_scalar_oracle() {
    let ds = nyt_like(8_000, 10, 42);
    let queries = workload(
        &ds.store,
        ds.params.domain,
        WorkloadParams {
            num_queries: 50,
            seed: 49,
            ..Default::default()
        },
    )
    .queries;
    let raw = raw_threshold(0.2, 10);
    let engine = EngineBuilder::new(ds.store.clone())
        .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
        .build();
    let mut scratch = engine.scratch();
    let mut fv_total = QueryStats::new();
    let mut lm_total = QueryStats::new();
    for (qi, q) in queries.iter().enumerate() {
        let union = ds
            .store
            .ids()
            .filter(|&id| ds.store.items(id).iter().any(|item| q.contains(item)))
            .count() as u64;
        let expect = scan(&ds.store, q, raw);

        let mut fv = QueryStats::new();
        let mut got = engine.query_items(Algorithm::Fv, q, raw, &mut scratch, &mut fv);
        got.sort_unstable();
        assert_eq!(got, expect, "F&V query {qi}");
        assert_eq!(fv.candidates, union, "F&V query {qi}");
        assert_eq!(fv.distance_calls, union, "F&V query {qi}");

        let mut lm = QueryStats::new();
        let mut got = engine.query_items(Algorithm::ListMerge, q, raw, &mut scratch, &mut lm);
        got.sort_unstable();
        assert_eq!(got, expect, "ListMerge query {qi}");

        fv_total.merge(&fv);
        lm_total.merge(&lm);
    }
    let misses = fv_total.candidates - fv_total.results;
    assert!(
        fv_total.validations_pruned * 10 >= misses * 9,
        "F&V: the early exit abandoned {} of {misses} misses",
        fv_total.validations_pruned
    );
    assert_eq!(lm_total.distance_calls, 0, "ListMerge");
}
