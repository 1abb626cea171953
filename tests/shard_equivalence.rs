//! Differential harness: the sharded engine must be **indistinguishable**
//! from the monolithic engine.
//!
//! Random corpora are built twice — once into a monolithic [`Engine`],
//! once into a [`ShardedEngine`] at S ∈ {1, 2, 7} under both routing
//! strategies — and queried with rotating algorithms at mixed thresholds
//! plus top-k. Thresholds compare canonical (sorted) result sets; top-k
//! answers must be bit-identical `(distance, id)` sequences, which the
//! lexicographic tie rule of the KNN heap guarantees across any shard
//! layout.

use proptest::prelude::*;
use ranksim::datasets::nyt_like;
use ranksim::metricspace::{knn_linear, query_pairs};
use ranksim::prelude::*;
use ranksim::rankings::max_distance;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Strategy: a corpus of `n` size-`k` rankings over `0..domain`, biased
/// towards overlap so result sets are non-trivial.
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

fn monolith(store: RankingStore, theta_c: f64) -> Engine {
    EngineBuilder::new(store)
        .coarse_threshold(theta_c)
        .coarse_drop_threshold(0.06)
        .build()
}

fn sharded(
    store: &RankingStore,
    shards: usize,
    strategy: ShardStrategy,
    theta_c: f64,
) -> ShardedEngine {
    let mut b = ShardedEngineBuilder::new(store.k(), shards, strategy)
        .coarse_threshold(theta_c)
        .coarse_drop_threshold(0.06);
    b.extend_from_store(store);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Threshold queries: every algorithm, every shard count, both
    /// strategies, mixed θ — sharded result sets equal the monolith's.
    #[test]
    fn sharded_threshold_queries_equal_monolith(
        rankings in corpus(80, 6, 25),
        query in proptest::sample::subsequence((0..25u32).collect::<Vec<u32>>(), 6).prop_shuffle(),
        theta in 0.0f64..0.5,
        theta_c in 0.1f64..0.6,
    ) {
        let store = store_of(&rankings);
        let engine = monolith(store.clone(), theta_c);
        let raw = raw_threshold(theta, 6);
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let mut mscratch = engine.scratch();
        for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
            for (si, &shards) in SHARD_COUNTS.iter().enumerate() {
                let se = sharded(&store, shards, strategy, theta_c);
                prop_assert_eq!(se.len(), store.len());
                let mut sscratch = se.scratch();
                // Rotate which algorithm checks which shard count so the
                // whole grid is covered across cases without running the
                // full 8 × 6 cross product every time.
                for (ai, &alg) in Algorithm::ALL.iter().enumerate() {
                    if ai % SHARD_COUNTS.len() != si {
                        continue;
                    }
                    let mut st = QueryStats::new();
                    let mut expect = engine.query_items(alg, &q, raw, &mut mscratch, &mut st);
                    prop_assert_eq!(st.results, expect.len() as u64, "monolith {} counted results", alg);
                    expect.sort_unstable();
                    let mut st = QueryStats::new();
                    let got = se.query_items(alg, &q, raw, &mut sscratch, &mut st);
                    prop_assert_eq!(
                        st.results, got.len() as u64,
                        "{:?} S={} {} counted results", strategy, shards, alg
                    );
                    prop_assert_eq!(
                        got, expect,
                        "{:?} S={} {} θ={}", strategy, shards, alg, theta
                    );
                }
            }
        }
    }

    /// Top-k queries: bit-identical `(distance, id)` sequences between
    /// the sharded merge, the monolithic answer and the linear scan — on
    /// the random corpus and on an all-ties one (two distinct rankings,
    /// thirty copies each, so the k-th distance is shared by dozens of
    /// ids), for the drawn `neighbours` and for more than the corpus holds.
    #[test]
    fn sharded_topk_queries_equal_monolith(
        rankings in corpus(70, 6, 20),
        query in proptest::sample::subsequence((0..20u32).collect::<Vec<u32>>(), 6).prop_shuffle(),
        neighbours in 1usize..30,
    ) {
        let q: Vec<ItemId> = query.into_iter().map(ItemId).collect();
        let ties: Vec<Vec<u32>> = rankings.iter().take(2).cycle().take(60).cloned().collect();
        for store in [store_of(&rankings), store_of(&ties)] {
            let engine = monolith(store.clone(), 0.3);
            let mut mscratch = engine.scratch();
            let mut st = QueryStats::new();
            for neighbours in [neighbours, usize::MAX] {
                let expect = engine.query_topk(&q, neighbours, &mut mscratch, &mut st);
                prop_assert_eq!(expect.len(), neighbours.min(store.len()));
                let linear = knn_linear(&store, &query_pairs(&q), expect.len(), &mut st);
                prop_assert_eq!(&expect, &linear, "monolith ≠ linear scan kn={}", neighbours);
                for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
                    for &shards in &SHARD_COUNTS {
                        let se = sharded(&store, shards, strategy, 0.3);
                        let mut sscratch = se.scratch();
                        let got = se.query_topk(&q, neighbours, &mut sscratch, &mut st);
                        prop_assert_eq!(
                            got,
                            expect.clone(),
                            "{:?} S={} kn={}", strategy, shards, neighbours
                        );
                    }
                }
            }
        }
    }

    /// The work-stealing sharded batch driver equals per-query sharded
    /// processing (and therefore the monolith, by the tests above).
    #[test]
    fn sharded_batch_driver_equals_sequential(
        rankings in corpus(60, 5, 18),
        queries in proptest::collection::vec(
            proptest::sample::subsequence((0..18u32).collect::<Vec<u32>>(), 5).prop_shuffle(),
            1..12,
        ),
        theta in 0.0f64..0.4,
        threads in 1usize..5,
    ) {
        let store = store_of(&rankings);
        let raw = raw_threshold(theta, 5);
        let qs: Vec<Vec<ItemId>> = queries
            .into_iter()
            .map(|q| q.into_iter().map(ItemId).collect())
            .collect();
        let se = sharded(&store, 2, ShardStrategy::Hash, 0.3);
        let (got, reports) = se.query_batch_reported(Algorithm::Fv, &qs, raw, threads);
        let mut sscratch = se.scratch();
        let mut seq = QueryStats::new();
        for (qi, q) in qs.iter().enumerate() {
            let expect = se.query_items(Algorithm::Fv, q, raw, &mut sscratch, &mut seq);
            prop_assert_eq!(&got[qi], &expect, "query {}", qi);
        }
        // The driver splits work at (query × shard) granularity: each
        // worker claims one (query, active shard) task, so the claimed
        // total is queries × active shards, not queries.
        let active = se.shard_sizes().iter().filter(|&&s| s > 0).count();
        let claimed: u64 = reports.iter().map(|r| r.queries).sum();
        prop_assert_eq!(claimed as usize, qs.len() * active);
        prop_assert_eq!(ranksim::core::merge_reports(&reports), seq);
    }
}

/// θ = 1 on every shard layout, after deletes: every live ranking in
/// ascending global order, from every algorithm and `Auto`, through the
/// serial path and the batch driver — for a corpus ranking and for a
/// query of never-seen items, which shares no posting list with anyone.
#[test]
fn theta_one_returns_every_live_ranking_on_every_shard_layout() {
    let store = nyt_like(400, 8, 7).store;
    let removed = |id: u32| id % 13 == 5;
    let live: Vec<RankingId> = (0..400).filter(|&id| !removed(id)).map(RankingId).collect();
    let unseen: Vec<ItemId> = (0..8).map(|i| ItemId(9_000_000 + i)).collect();
    let queries = vec![store.items(RankingId(0)).to_vec(), unseen];
    let raw = raw_threshold(1.0, 8);
    for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
        for &shards in &SHARD_COUNTS {
            let mut se = sharded(&store, shards, strategy, 0.3);
            for id in (0..400).filter(|&id| removed(id)) {
                assert!(se.remove_ranking(RankingId(id)));
            }
            let mut scratch = se.scratch();
            for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                for q in &queries {
                    let mut st = QueryStats::new();
                    let got = se.query_items(alg, q, raw, &mut scratch, &mut st);
                    assert_eq!(got, live, "{strategy:?} S={shards} {alg} at θ = 1");
                    assert_eq!(st.results, live.len() as u64);
                }
                let (batch, _) = se.query_batch(alg, &queries, raw, 2);
                assert_eq!(
                    batch,
                    [live.clone(), live.clone()],
                    "{strategy:?} S={shards} {alg}"
                );
            }
        }
    }
}

/// Sharded top-k against the monolith and the linear scan over the
/// same live corpus, with fresh stats: `results` must count the answer,
/// not the rounds.
fn assert_topk_matches(engine: &Engine, se: &ShardedEngine, q: &[ItemId], kn: usize) {
    let mut st = QueryStats::new();
    let expect = engine.query_topk(q, kn, &mut engine.scratch(), &mut st);
    assert_eq!(expect.len(), kn.min(engine.live_len()));
    let linear = knn_linear(engine.store(), &query_pairs(q), expect.len(), &mut st);
    assert_eq!(expect, linear, "monolith ≠ linear scan at kn={kn}");
    let mut st = QueryStats::new();
    let got = se.query_topk(q, kn, &mut se.scratch(), &mut st);
    assert_eq!(got, expect, "sharded ≠ monolith at kn={kn}");
    assert_eq!(
        st.results,
        got.len() as u64,
        "sharded top-k counted its rounds"
    );
}

/// Which shard hash routing sends `items` to: routing is a function of
/// the item sequence alone, so a one-ranking engine tells.
fn hash_shard_of(items: &[ItemId], shards: usize) -> usize {
    let mut b = ShardedEngineBuilder::new(items.len(), shards, ShardStrategy::Hash)
        .algorithms(&[Algorithm::Fv]);
    b.push_ranking(items);
    let sizes = b.build().shard_sizes();
    sizes
        .iter()
        .position(|&n| n == 1)
        .expect("one shard holds it")
}

/// The ten nearest rankings all sit in one hash shard, so every other
/// shard holds only far rankings: the layout where one top-k loop per
/// shard widened each shard to the maximum radius.
#[test]
fn topk_with_the_ten_nearest_in_one_hash_shard() {
    const SHARDS: usize = 4;
    let q: Vec<ItemId> = (0..8).map(ItemId).collect();
    // Near variants: one query item replaced by a fresh one; those
    // hashed to shard 0 are kept.
    let near: Vec<Vec<ItemId>> = (4..8)
        .flat_map(|p| (0..40).map(move |j| (p, j)))
        .map(|(p, j)| {
            let mut v = (0..8).map(ItemId).collect::<Vec<_>>();
            v[p] = ItemId(1000 + 40 * p as u32 + j);
            v
        })
        .filter(|v| hash_shard_of(v, SHARDS) == 0)
        .take(10)
        .collect();
    assert_eq!(near.len(), 10);
    // Far filler over items 4.., partly overlapping the query's tail.
    let mut rankings: Vec<Vec<u32>> = (0..150u32)
        .map(|i| (0..8u32).map(|j| (i * 7 + j * 13) % 97 + 4).collect())
        .collect();
    for (slot, v) in near.iter().enumerate() {
        rankings.insert(slot * 15, v.iter().map(|i| i.0).collect());
    }
    let store = store_of(&rankings);
    let se = sharded(&store, SHARDS, ShardStrategy::Hash, 0.3);
    let nearest = knn_linear(&store, &query_pairs(&q), 10, &mut QueryStats::new());
    for &(_, id) in &nearest {
        assert_eq!(
            hash_shard_of(store.items(id), SHARDS),
            0,
            "nearest {id:?} left shard 0"
        );
    }
    let engine = monolith(store, 0.3);
    for kn in [1, 10, 11, 40, usize::MAX] {
        assert_topk_matches(&engine, &se, &q, kn);
    }
}

/// Fewer rankings overlap the query than `neighbours` asks for: the
/// rest of the answer sits at exactly `max_distance(k)` and must be the
/// smallest live ids there, deleted ones skipped.
#[test]
fn topk_short_of_overlap_fills_with_the_smallest_live_ids() {
    let q: Vec<ItemId> = (0..6).map(ItemId).collect();
    // Rankings 0, 10, …, 50 overlap the query; the rest do not.
    let rankings: Vec<Vec<u32>> = (0..60u32)
        .map(|i| match i % 10 {
            0 => vec![i / 10, 50, 51, 52, 53, 54],
            _ => (0..6).map(|j| 100 + (i * 6 + j) % 200).collect(),
        })
        .collect();
    let store = store_of(&rankings);
    let mut engine = monolith(store.clone(), 0.3);
    let removed = [1u32, 2, 4].map(RankingId);
    for id in removed {
        assert!(engine.remove_ranking(id));
    }
    for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
        let mut se = sharded(&store, 3, strategy, 0.3);
        for id in removed {
            assert!(se.remove_ranking(id));
        }
        let got = se.query_topk(&q, 9, &mut se.scratch(), &mut QueryStats::new());
        let fill = [3u32, 5, 6].map(|id| (max_distance(6), RankingId(id)));
        assert!(
            got[..6].iter().all(|&(d, _)| d < max_distance(6)),
            "{strategy:?}"
        );
        assert_eq!(
            got[6..],
            fill,
            "{strategy:?}: the fill is the smallest live ids"
        );
        for kn in [6, 7, 9, usize::MAX] {
            assert_topk_matches(&engine, &se, &q, kn);
        }
    }
}

// ---------------------------------------------------------------------
// Deadline semantics under the (query × shard) task split.
//
// The split means one query owns several stealable tasks; a deadline
// that fires on one of them while sibling tasks completed must fail the
// *whole* query — typed `timed_out`, empty result set — never return a
// silently truncated merge of the shards that happened to finish.
// ---------------------------------------------------------------------

/// A two-shard medoid engine with one deliberately heavy shard: medoid A
/// and medoid B are item-disjoint, and every later ranking overlaps A
/// heavily, so shard 0 swallows the whole corpus while shard 1 holds the
/// lone medoid B. Scanning shard 0 costs orders of magnitude more than
/// shard 1 — the straggler-task shape the deadline contract is about.
fn skewed_sharded(n: usize, seed: u64) -> (ShardedEngine, Vec<Vec<ItemId>>) {
    use rand::Rng;
    const K: usize = 8;
    let mut rng = proptest::rng_from_seed(seed);
    let mut b = ShardedEngineBuilder::new(K, 2, ShardStrategy::Medoid)
        .coarse_threshold(0.4)
        .algorithms(&[Algorithm::Fv]);
    let medoid_a: Vec<ItemId> = (0u32..K as u32).map(ItemId).collect();
    let medoid_b: Vec<ItemId> = (100u32..100 + K as u32).map(ItemId).collect();
    b.push_ranking(&medoid_a);
    b.push_ranking(&medoid_b);
    let mut near_a = || -> Vec<ItemId> {
        let mut items: Vec<ItemId> = Vec::with_capacity(K);
        while items.len() < K {
            let cand = ItemId(rng.random_range(0..12u32));
            if !items.contains(&cand) {
                items.push(cand);
            }
        }
        items
    };
    let mut queries = Vec::new();
    for i in 0..n {
        let items = near_a();
        if i % (n / 6).max(1) == 0 && queries.len() < 6 {
            queries.push(items.clone());
        }
        b.push_ranking(&items);
    }
    let se = b.build();
    assert!(
        se.shard_sizes()[0] > n && se.shard_sizes()[1] == 1,
        "medoid routing must concentrate the corpus on shard 0 (got {:?})",
        se.shard_sizes()
    );
    (se, queries)
}

/// The regression pin: a tiny budget on the skewed corpus expires while
/// shard-0 tasks are mid-scan, so some queries have completed per-shard
/// partials when their sibling task times out. Every such query must
/// come back empty and flagged — under the pre-fix behavior the
/// completed partials were merged, returning truncated result sets with
/// no failure marker.
#[test]
fn sharded_deadline_fails_whole_queries_never_truncates() {
    let (se, queries) = skewed_sharded(6000, 0x5EED_D15C);
    let raw = raw_threshold(0.35, 8);
    let (oracle, _) = se.query_batch(Algorithm::Fv, &queries, raw, 1);
    assert!(
        oracle.iter().all(|r| !r.is_empty()),
        "self-queries must match at θ=0.35 for truncation to be observable"
    );

    let (got, reports) = se.query_batch_deadline(
        Algorithm::Fv,
        &queries,
        raw,
        1,
        std::time::Duration::from_micros(100),
    );
    let mut flagged: Vec<usize> = reports.iter().flat_map(|r| r.timed_out.clone()).collect();
    flagged.sort_unstable();
    assert!(
        !flagged.is_empty(),
        "a 100µs budget cannot cover a 6000-ranking shard scan"
    );
    let deduped = {
        let mut f = flagged.clone();
        f.dedup();
        f
    };
    assert_eq!(
        flagged, deduped,
        "each timed-out query is reported exactly once across all workers"
    );
    for (qi, result) in got.iter().enumerate() {
        if flagged.binary_search(&qi).is_ok() {
            assert!(
                result.is_empty(),
                "query {qi} timed out on at least one shard task; merging its completed \
                 sibling partials would be a silently truncated result set"
            );
        } else {
            assert_eq!(
                result, &oracle[qi],
                "query {qi} ran on every shard and must be bit-identical to the oracle"
            );
        }
    }
}

/// Zero budget: every query (not every *task*) is flagged exactly once
/// and answered empty.
#[test]
fn sharded_deadline_zero_budget_times_out_every_query() {
    let (se, queries) = skewed_sharded(300, 0xBEEF);
    let raw = raw_threshold(0.2, 8);
    let (got, reports) =
        se.query_batch_deadline(Algorithm::Fv, &queries, raw, 2, std::time::Duration::ZERO);
    assert!(got.iter().all(|r| r.is_empty()));
    let mut flagged: Vec<usize> = reports.iter().flat_map(|r| r.timed_out.clone()).collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        (0..queries.len()).collect::<Vec<_>>(),
        "every query is flagged once at query granularity, not once per shard task"
    );
}

/// A generous budget is indistinguishable from the plain batch driver.
#[test]
fn sharded_deadline_generous_budget_matches_plain_batch() {
    let (se, queries) = skewed_sharded(300, 0xCAFE);
    let raw = raw_threshold(0.3, 8);
    let (expect, _) = se.query_batch(Algorithm::Fv, &queries, raw, 2);
    let (got, reports) = se.query_batch_deadline(
        Algorithm::Fv,
        &queries,
        raw,
        2,
        std::time::Duration::from_secs(120),
    );
    assert_eq!(got, expect);
    assert!(reports.iter().all(|r| r.timed_out.is_empty()));
}
