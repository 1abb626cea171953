//! Differential harness for the engine-level posting orders: an engine
//! built with insertion-ordered or suffix-bound-ordered postings — both
//! validating through the chunked, suffix-bound-aborting distance kernel
//! — must be **indistinguishable** from the brute-force oracle
//! (`linear_scan` / `knn_linear` over the live store) across every
//! algorithm of the paper's evaluation, the `Auto` planner, exact top-k,
//! and through the mutable delta plane (which maintains its own
//! suffix-bound ordering).
//!
//! Thresholds compare canonical (sorted) result sets; top-k answers
//! must be bit-identical `(distance, id)` sequences. The deterministic
//! tests additionally pin that tight thresholds actually exercise the
//! rank-window scan (`postings_skipped > 0`) — an equivalence suite
//! that never skips a posting would prove nothing about the window —
//! and that the kernel does exactly the work it claims: one distance
//! call per distinct candidate, most misses abandoned by the
//! suffix-bound early exit, none at all for ListMerge. Those counts are
//! exact, so they gate the kernel where a wall-clock floor could not.

use proptest::prelude::*;
use ranksim::datasets::{nyt_like, workload, WorkloadParams};
use ranksim::metricspace::{knn_linear, linear_scan, query_pairs};
use ranksim::prelude::*;

/// Both posting orders, each checked against the brute-force oracle.
const ARMS: [PostingOrder; 2] = [PostingOrder::Id, PostingOrder::SuffixBound];

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

fn grid_engine(store: RankingStore, order: PostingOrder) -> Engine {
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .posting_order(order)
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

    /// Every algorithm plus `Auto` plus top-k: each posting order equals
    /// the brute-force oracle on random corpora and mixed θ (the low end
    /// drives the rank window, the high end the kernel's suffix-bound
    /// abort).
    #[test]
    fn grid_arms_equal_the_scalar_unordered_oracle(
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
        for order in ARMS {
            let arm = grid_engine(store.clone(), order);
            prop_assert_eq!(arm.posting_order(), order);
            let mut scratch = arm.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let mut got = arm.query_items(alg, &q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                prop_assert_eq!(&got, &expect, "{} ({:?}) θ={}", alg, order, theta);
            }
            let topk = arm.query_topk(&q, neighbours, &mut scratch, &mut stats);
            prop_assert_eq!(&topk, &topk_expect, "top-k ({:?})", order);
        }
    }

    /// The posting orders stay equivalent **through mutations**: inserts
    /// land in the suffix-bound-ordered delta index, removals in the
    /// tombstone plane — answers must keep matching the brute-force
    /// oracle over the mutated live corpus.
    #[test]
    fn grid_arms_stay_equivalent_through_mutations(
        rankings in corpus(50, 5, 16),
        inserts in corpus(6, 5, 16),
        query in proptest::sample::subsequence((0..16u32).collect::<Vec<u32>>(), 5).prop_shuffle(),
        theta in 0.0f64..0.4,
        victim in 0u32..50,
    ) {
        let store = store_of(&rankings);
        let raw = raw_threshold(theta, 5);
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let mutate = |engine: &mut Engine| {
            for ins in &inserts {
                let items: Vec<ItemId> = ins.iter().copied().map(ItemId).collect();
                engine.insert_ranking(&items);
            }
            engine.remove_ranking(RankingId(victim));
        };
        for order in ARMS {
            let mut arm = grid_engine(store.clone(), order);
            mutate(&mut arm);
            let expect = scan(arm.store(), &q, raw);
            let mut scratch = arm.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let mut got = arm.query_items(alg, &q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                prop_assert_eq!(
                    &got, &expect,
                    "{} ({:?}) θ={} after mutations", alg, order, theta
                );
            }
        }
    }
}

/// Tight thresholds on a realistic corpus must actually exercise the
/// suffix-bound rank window — postings skipped, results unchanged. At
/// k = 10 a raw threshold below the maximum rank displacement (9) is
/// required for the window to bite; θ = 0.05 gives raw 5.
#[test]
fn tight_thresholds_skip_postings_without_changing_results() {
    let ds = nyt_like(2000, 10, 91);
    let by_id = grid_engine(ds.store.clone(), PostingOrder::Id);
    let suffix = grid_engine(ds.store.clone(), PostingOrder::SuffixBound);
    let raw = raw_threshold(0.05, 10);
    let mut iscratch = by_id.scratch();
    let mut sscratch = suffix.scratch();
    let mut istats = QueryStats::new();
    let mut sstats = QueryStats::new();
    for probe in 0..40u32 {
        let q = ds.store.items(RankingId(probe * 7)).to_vec();
        let expect = scan(&ds.store, &q, raw);
        for alg in Algorithm::ALL {
            let mut got = by_id.query_items(alg, &q, raw, &mut iscratch, &mut istats);
            got.sort_unstable();
            assert_eq!(got, expect, "{alg} (Id) at tight θ");
            let mut got = suffix.query_items(alg, &q, raw, &mut sscratch, &mut sstats);
            got.sort_unstable();
            assert_eq!(got, expect, "{alg} (SuffixBound) at tight θ");
        }
    }
    assert!(
        sstats.postings_skipped > 0,
        "tight θ on a suffix-bound engine must window out postings"
    );
    assert_eq!(
        istats.postings_skipped, 0,
        "the insertion-ordered engine never windows"
    );
}

/// The kernel's work counters on a NYT-like corpus at θ = 0.2, for both
/// posting orders (at raw θ 22 ≥ k − 1 the rank window covers every
/// list, so the orders differ only in layout):
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
    for order in ARMS {
        let engine = EngineBuilder::new(ds.store.clone())
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .posting_order(order)
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
            assert_eq!(got, expect, "F&V ({order:?}) query {qi}");
            assert_eq!(fv.candidates, union, "F&V ({order:?}) query {qi}");
            assert_eq!(fv.distance_calls, union, "F&V ({order:?}) query {qi}");

            let mut lm = QueryStats::new();
            let mut got = engine.query_items(Algorithm::ListMerge, q, raw, &mut scratch, &mut lm);
            got.sort_unstable();
            assert_eq!(got, expect, "ListMerge ({order:?}) query {qi}");

            fv_total.merge(&fv);
            lm_total.merge(&lm);
        }
        let misses = fv_total.candidates - fv_total.results;
        assert!(
            fv_total.validations_pruned * 10 >= misses * 9,
            "F&V ({order:?}): the early exit abandoned {} of {misses} misses",
            fv_total.validations_pruned
        );
        assert_eq!(lm_total.distance_calls, 0, "ListMerge ({order:?})");
    }
}
