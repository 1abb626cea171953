//! Differential harness for the engine-level kernel/ordering grid: an
//! engine built with the SIMD kernel and/or suffix-bound-ordered
//! postings must be **indistinguishable** from the scalar,
//! insertion-ordered oracle — across every algorithm of the paper's
//! evaluation, the `Auto` planner, exact top-k, and through the mutable
//! delta plane (which maintains its own suffix-bound ordering).
//!
//! Thresholds compare canonical (sorted) result sets; top-k answers
//! must be bit-identical `(distance, id)` sequences. The deterministic
//! tests additionally pin that tight thresholds actually exercise the
//! rank-window scan (`postings_skipped > 0`) — an equivalence suite
//! that never skips a posting would prove nothing about the window.

use proptest::prelude::*;
use ranksim::datasets::nyt_like;
use ranksim::prelude::*;

/// The three non-oracle cells of the (order × kernel) grid.
const ARMS: [(PostingOrder, Kernel); 3] = [
    (PostingOrder::Id, Kernel::Simd),
    (PostingOrder::SuffixBound, Kernel::Scalar),
    (PostingOrder::SuffixBound, Kernel::Simd),
];

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

fn grid_engine(store: RankingStore, order: PostingOrder, kernel: Kernel) -> Engine {
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .posting_order(order)
        .kernel(kernel)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every algorithm plus `Auto` plus top-k: each grid arm equals the
    /// scalar/insertion-ordered oracle on random corpora and mixed θ
    /// (the low end drives the rank window, the high end the kernel's
    /// suffix-bound abort).
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
        let oracle = grid_engine(store.clone(), PostingOrder::Id, Kernel::Scalar);
        let mut oscratch = oracle.scratch();
        let mut ostats = QueryStats::new();
        let topk_expect = oracle.query_topk(&q, neighbours, &mut oscratch, &mut ostats);
        for (order, kernel) in ARMS {
            let arm = grid_engine(store.clone(), order, kernel);
            prop_assert_eq!(arm.posting_order(), order);
            prop_assert_eq!(arm.kernel(), kernel);
            let mut scratch = arm.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let mut expect = oracle.query_items(alg, &q, raw, &mut oscratch, &mut ostats);
                expect.sort_unstable();
                let mut got = arm.query_items(alg, &q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                prop_assert_eq!(
                    got, expect,
                    "{} ({:?}, {:?}) θ={}", alg, order, kernel, theta
                );
            }
            let topk = arm.query_topk(&q, neighbours, &mut scratch, &mut stats);
            prop_assert_eq!(&topk, &topk_expect, "top-k ({:?}, {:?})", order, kernel);
        }
    }

    /// The grid arms stay equivalent **through mutations**: inserts land
    /// in the suffix-bound-ordered delta index, removals in the
    /// tombstone plane — answers must keep matching the oracle engine
    /// mutated identically.
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
        let mut oracle = grid_engine(store.clone(), PostingOrder::Id, Kernel::Scalar);
        mutate(&mut oracle);
        let mut oscratch = oracle.scratch();
        let mut ostats = QueryStats::new();
        for (order, kernel) in ARMS {
            let mut arm = grid_engine(store.clone(), order, kernel);
            mutate(&mut arm);
            let mut scratch = arm.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let mut expect = oracle.query_items(alg, &q, raw, &mut oscratch, &mut ostats);
                expect.sort_unstable();
                let mut got = arm.query_items(alg, &q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                prop_assert_eq!(
                    got, expect,
                    "{} ({:?}, {:?}) θ={} after mutations", alg, order, kernel, theta
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
    let oracle = grid_engine(ds.store.clone(), PostingOrder::Id, Kernel::Scalar);
    let suffix = grid_engine(ds.store.clone(), PostingOrder::SuffixBound, Kernel::Simd);
    let raw = raw_threshold(0.05, 10);
    let mut oscratch = oracle.scratch();
    let mut sscratch = suffix.scratch();
    let mut ostats = QueryStats::new();
    let mut sstats = QueryStats::new();
    for probe in 0..40u32 {
        let q = ds.store.items(RankingId(probe * 7)).to_vec();
        for alg in Algorithm::ALL {
            let mut expect = oracle.query_items(alg, &q, raw, &mut oscratch, &mut ostats);
            expect.sort_unstable();
            let mut got = suffix.query_items(alg, &q, raw, &mut sscratch, &mut sstats);
            got.sort_unstable();
            assert_eq!(got, expect, "{alg} at tight θ");
        }
    }
    assert!(
        sstats.postings_skipped > 0,
        "tight θ on a suffix-bound engine must window out postings"
    );
    assert_eq!(
        ostats.postings_skipped, 0,
        "the insertion-ordered oracle never windows"
    );
}
