//! Regression harness for queries containing items the corpus has
//! **never** seen — in any generation.
//!
//! Historically the index build/query paths unwrapped
//! `remap.dense(item)` on the assumption that every item flowing
//! through them was known to the corpus remap; a serving front-end
//! breaks that assumption with the very first ad-hoc query. The
//! hardened contract: an unknown item behaves as an empty postings
//! list (it matches nothing, contributes no candidates), and the query
//! completes with exactly the linear-scan answer — on the monolith
//! (every algorithm and `Auto`, threshold and top-k), on a
//! mutated-then-compacted engine, on the sharded engine, and through a
//! [`SnapshotEngine`] snapshot.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim::datasets::nyt_like;
use ranksim::prelude::*;

const K: usize = 10;
/// Items at or above this id never appear in any corpus generation.
const NEVER: u32 = 1_000_000;

/// The ground truth: exact Footrule distance of every live ranking.
fn linear_scan(engine: &Engine, q: &[ItemId], raw: u32) -> Vec<RankingId> {
    let pm = PositionMap::new(q);
    let store = engine.store();
    (0..store.len() as u32)
        .map(RankingId)
        .filter(|&id| engine.is_live(id) && pm.distance_to(store.items(id)) <= raw)
        .collect()
}

/// Top-k ground truth: bit-identical `(distance, id)` under the
/// lexicographic tie rule.
fn linear_topk(engine: &Engine, q: &[ItemId], kn: usize) -> Vec<(u32, RankingId)> {
    let pm = PositionMap::new(q);
    let store = engine.store();
    let mut all: Vec<(u32, RankingId)> = (0..store.len() as u32)
        .map(RankingId)
        .filter(|&id| engine.is_live(id))
        .map(|id| (pm.distance_to(store.items(id)), id))
        .collect();
    all.sort_unstable();
    all.truncate(kn);
    all
}

/// Query batteries: fully never-seen, and live rankings with 1, 3 and
/// 5 positions replaced by never-seen items.
fn query_battery(engine: &Engine, seed: u64) -> Vec<Vec<ItemId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let store = engine.store();
    let mut queries = Vec::new();
    for b in 0..2u32 {
        queries.push((0..K as u32).map(|j| ItemId(NEVER + 100 * b + j)).collect());
    }
    for &replace in &[1usize, 3, 5] {
        for _ in 0..3 {
            let donor = loop {
                let id = RankingId(rng.random_range(0..store.len() as u32));
                if engine.is_live(id) {
                    break id;
                }
            };
            let mut items = store.items(donor).to_vec();
            for r in 0..replace {
                items[r * 2] = ItemId(NEVER + rng.random_range(0..100_000u32));
            }
            queries.push(items);
        }
    }
    queries
}

fn check_engine(engine: &Engine, queries: &[Vec<ItemId>], label: &str) {
    let mut scratch = engine.scratch();
    let mut stats = QueryStats::new();
    for (qi, q) in queries.iter().enumerate() {
        for theta in [0.0, 0.1, 0.3] {
            let raw = raw_threshold(theta, K);
            let mut expect = linear_scan(engine, q, raw);
            expect.sort_unstable();
            for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                let mut got = engine.query_items(alg, q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                assert_eq!(
                    got, expect,
                    "{label}: {alg} diverged from the linear scan on query {qi} at θ={theta}"
                );
            }
        }
    }
    check_topk(engine, queries, label);
}

/// The battery's fully never-seen queries overlap no ranking, so every
/// growing-radius round comes back empty and the linear fallback must
/// produce the answer; `usize::MAX` asks for more than the corpus holds.
fn check_topk(engine: &Engine, queries: &[Vec<ItemId>], label: &str) {
    let mut scratch = engine.scratch();
    let mut stats = QueryStats::new();
    for (qi, q) in queries.iter().enumerate() {
        for kn in [1usize, 4, 12, usize::MAX] {
            let expect = linear_topk(engine, q, kn);
            let got = engine.query_topk(q, kn, &mut scratch, &mut stats);
            assert_eq!(got, expect, "{label}: topk k={kn} on query {qi}");
        }
    }
}

#[test]
fn never_seen_query_items_match_the_linear_scan_everywhere() {
    let ds = nyt_like(600, K, 77);

    // -- Pristine monolith --------------------------------------------
    let engine = EngineBuilder::new(ds.store.clone())
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K))
        .build();
    let queries = query_battery(&engine, 0xBEEF);
    check_engine(&engine, &queries, "pristine");

    // -- Top-k without a planner, and without any threshold index ------
    for (algorithms, label) in [
        (&[Algorithm::FvDrop][..], "no planner"),
        (&[][..], "no index"),
    ] {
        let restricted = EngineBuilder::new(ds.store.clone())
            .algorithms(algorithms)
            .build();
        assert!(restricted.planner().is_none());
        check_topk(&restricted, &queries, label);
    }

    // -- Mutated then compacted ---------------------------------------
    // Inserts introduce items unknown at build time (500k range, still
    // disjoint from the never-seen range), removes punch holes; one
    // overlay check, then compaction folds everything and grows the
    // remap — the never-seen query items must stay unknown throughout.
    let mut live = EngineBuilder::new(ds.store.clone())
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K))
        .compaction_threshold(f64::INFINITY)
        .build();
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for i in 0..60u32 {
        if i % 3 == 0 {
            let items: Vec<ItemId> = (0..K as u32)
                .map(|j| ItemId(500_000 + i * 32 + j))
                .collect();
            live.insert_ranking(&items);
        } else {
            let victim = loop {
                let id = RankingId(rng.random_range(0..live.store().len() as u32));
                if live.is_live(id) {
                    break id;
                }
            };
            live.remove_ranking(victim);
        }
    }
    check_engine(&live, &queries, "mutated (overlay)");
    live.compact();
    assert_eq!(live.base_tombstones(), 0);
    check_engine(&live, &queries, "mutated (compacted)");

    // -- Sharded -------------------------------------------------------
    let mut sharded_builder = ShardedEngineBuilder::new(K, 3, ShardStrategy::Hash)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K));
    sharded_builder.extend_from_store(&ds.store);
    let sharded = sharded_builder.build();
    let mut sscratch = sharded.scratch();
    let mut sstats = QueryStats::new();
    for (qi, q) in queries.iter().enumerate() {
        for theta in [0.0, 0.1, 0.3] {
            let raw = raw_threshold(theta, K);
            let mut expect = linear_scan(&engine, q, raw);
            expect.sort_unstable();
            for alg in [Algorithm::Fv, Algorithm::Coarse, Algorithm::Auto] {
                let mut got = sharded.query_items(alg, q, raw, &mut sscratch, &mut sstats);
                got.sort_unstable();
                assert_eq!(got, expect, "sharded {alg} on query {qi} at θ={theta}");
            }
        }
    }

    // -- Snapshot engine ----------------------------------------------
    // The serving path this regression exists for: ad-hoc queries with
    // unknown items arriving at a snapshot while writes land.
    let service = SnapshotEngine::new(engine);
    let before = service.snapshot();
    for i in 0..20u32 {
        let items: Vec<ItemId> = (0..K as u32)
            .map(|j| ItemId(600_000 + i * 32 + j))
            .collect();
        service.insert_ranking(&items);
    }
    service.flush();
    let after = service.snapshot();
    check_engine(&before, &queries, "snapshot (pinned pre-write)");
    check_engine(&after, &queries, "snapshot (post-write)");
}
