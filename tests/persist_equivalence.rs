//! Load-vs-rebuild differential harness for the `RSSN` snapshot format:
//! an engine re-opened from disk must be **indistinguishable** from the
//! engine that was saved, and a checkpoint + WAL-tail recovery must be
//! indistinguishable from PR 7's rebuild-from-scratch recovery at the
//! same log prefix.
//!
//! Four engine shapes go through save/load — pristine, mutated (live
//! delta + tombstones), mutated-then-compacted, and sharded — and every
//! loaded engine is checked against its source: all 8 fixed algorithms
//! as bit-identical result vectors, `Auto` as canonical id sets (two
//! planners may legitimately pick different executors once their online
//! recalibration diverges, but the answer set may not change), and
//! top-k as bit-identical `(distance, id)` sequences.

use std::path::PathBuf;

use ranksim::datasets::{nyt_like, workload, WorkloadParams};
use ranksim::prelude::*;

const K: usize = 8;
const THETAS: [f64; 3] = [0.1, 0.2, 0.3];

fn temp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ranksim-persisteq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn temp_file(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ranksim-persisteq-{tag}-{}.{ext}",
        std::process::id()
    ))
}

fn built_engine(n: usize, seed: u64) -> (Engine, Vec<Vec<ItemId>>) {
    let ds = nyt_like(n, K, seed);
    let wl = workload(
        &ds.store,
        ds.params.domain,
        WorkloadParams {
            num_queries: 12,
            seed: seed + 7,
            ..Default::default()
        },
    );
    let engine = EngineBuilder::new(ds.store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .build();
    (engine, wl.queries)
}

/// Applies a deterministic mutation mix: inserts of recombined live
/// rankings and removals, leaving a non-trivial delta plane + tombstones.
fn churn(engine: &mut Engine, rounds: usize) {
    for i in 0..rounds {
        let donor = RankingId((i * 3 % engine.store().len()) as u32);
        if engine.store().is_live(donor) {
            let mut items = engine.store().items(donor).to_vec();
            items.swap(i % K, (i + 3) % K);
            engine.insert_ranking(&items);
        }
        let victim = RankingId((i * 7 % engine.store().len()) as u32);
        engine.remove_ranking(victim);
    }
}

/// The full differential check between a source engine and its re-opened
/// double (see the module docs for the exactness tiers).
fn assert_engines_equivalent(src: &Engine, loaded: &Engine, queries: &[Vec<ItemId>]) {
    assert_eq!(src.live_len(), loaded.live_len());
    let mut ss = src.scratch();
    let mut sl = loaded.scratch();
    let mut stats = QueryStats::new();
    for q in queries {
        for theta in THETAS {
            let raw = raw_threshold(theta, K);
            for alg in Algorithm::ALL {
                let a = src.query_items(alg, q, raw, &mut ss, &mut stats);
                let b = loaded.query_items(alg, q, raw, &mut sl, &mut stats);
                assert_eq!(a, b, "{alg:?} θ={theta} diverged after load");
            }
            let mut a = src.query_items(Algorithm::Auto, q, raw, &mut ss, &mut stats);
            let mut b = loaded.query_items(Algorithm::Auto, q, raw, &mut sl, &mut stats);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "Auto θ={theta} diverged after load");
        }
        let a = src.query_topk(q, 10, &mut ss, &mut stats);
        let b = loaded.query_topk(q, 10, &mut sl, &mut stats);
        assert_eq!(a, b, "top-k diverged after load");
    }
}

#[test]
fn pristine_engine_round_trips() {
    let (engine, queries) = built_engine(400, 3);
    let path = temp_file("pristine", "rssn");
    save_engine(&path, &engine, SnapshotMeta::default()).expect("save");
    for mode in [LoadMode::Verify, LoadMode::Trust] {
        let (loaded, meta) = load_engine(&path, mode).expect("load");
        assert_eq!(meta, SnapshotMeta::default());
        assert_engines_equivalent(&engine, &loaded, &queries);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mutated_engine_round_trips_with_live_delta_and_tombstones() {
    let (mut engine, queries) = built_engine(400, 9);
    churn(&mut engine, 40);
    let path = temp_file("mutated", "rssn");
    save_engine(&path, &engine, SnapshotMeta::default()).expect("save");
    let (loaded, _) = load_engine(&path, LoadMode::Verify).expect("load");
    assert_engines_equivalent(&engine, &loaded, &queries);

    // The loaded engine is fully mutable: the same further churn on both
    // sides keeps them in lockstep (ranking-id assignment is a pure
    // function of store state, which the snapshot must have preserved).
    let mut src = engine;
    let mut dup = loaded;
    churn(&mut src, 10);
    churn(&mut dup, 10);
    assert_engines_equivalent(&src, &dup, &queries);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compacted_engine_round_trips() {
    let (mut engine, queries) = built_engine(400, 17);
    churn(&mut engine, 60);
    engine.compact();
    let path = temp_file("compacted", "rssn");
    save_engine(&path, &engine, SnapshotMeta::default()).expect("save");
    let (loaded, _) = load_engine(&path, LoadMode::Verify).expect("load");
    assert_engines_equivalent(&engine, &loaded, &queries);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sharded_engine_round_trips_under_both_strategies() {
    for (strategy, tag) in [
        (ShardStrategy::Hash, "hash"),
        (ShardStrategy::Medoid, "medoid"),
    ] {
        let ds = nyt_like(360, K, 23);
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 10,
                seed: 31,
                ..Default::default()
            },
        );
        let mut builder = ShardedEngineBuilder::new(K, 3, strategy)
            .coarse_threshold(0.4)
            .coarse_drop_threshold(0.06);
        builder.extend_from_store(&ds.store);
        let mut sharded = builder.build();
        // Mutations so the shard directory holds holes and deltas.
        for i in 0..30u32 {
            sharded.remove_ranking(RankingId(i * 11 % 360));
        }
        for q in &wl.queries {
            sharded.insert_ranking(q);
        }

        let dir = temp_dir(tag);
        save_sharded(&dir, &sharded).expect("save sharded");
        let loaded = load_sharded(&dir, LoadMode::Verify).expect("load sharded");

        assert_eq!(loaded.num_shards(), sharded.num_shards());
        assert_eq!(loaded.live_len(), sharded.live_len());
        let mut ss = sharded.scratch();
        let mut sl = loaded.scratch();
        let mut stats = QueryStats::new();
        for q in &wl.queries {
            for theta in THETAS {
                let raw = raw_threshold(theta, K);
                for alg in [Algorithm::Fv, Algorithm::ListMerge, Algorithm::Coarse] {
                    let a = sharded.query_items(alg, q, raw, &mut ss, &mut stats);
                    let b = loaded.query_items(alg, q, raw, &mut sl, &mut stats);
                    assert_eq!(a, b, "sharded {alg:?} θ={theta} diverged ({tag})");
                }
            }
            let a = sharded.query_topk(q, 10, &mut ss, &mut stats);
            let b = loaded.query_topk(q, 10, &mut sl, &mut stats);
            assert_eq!(a, b, "sharded top-k diverged ({tag})");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The serving-spine contract: `checkpoint` + `recover_from_snapshot`
/// (load the snapshot, replay only the WAL tail) must land on exactly
/// the corpus that PR 7's `recover` (replay the whole WAL over the base
/// corpus) produces at the same log prefix.
#[test]
fn checkpoint_recovery_matches_the_rebuild_oracle() {
    let wal_path = temp_file("oracle", "wal");
    let snap_path = temp_file("oracle", "rssn");
    let (base, queries) = built_engine(300, 41);
    // Engine builds are deterministic, so a second build from the same
    // seed is the bit-identical base corpus PR 7's recovery expects.
    let (oracle_base, _) = built_engine(300, 41);

    let se = SnapshotEngine::with_wal(base, &wal_path, SyncPolicy::PerOp).expect("wal");
    for (i, q) in queries.iter().cycle().take(18).enumerate() {
        if i % 5 == 4 {
            se.remove_ranking(RankingId((i * 13 % 300) as u32));
        } else {
            se.insert_ranking(q);
        }
        if i == 9 {
            se.flush();
            se.checkpoint(&snap_path).expect("mid-run checkpoint");
        }
    }
    se.flush();
    let end_pos = se.writer_pos();
    drop(se);

    let (warm, warm_report) = SnapshotEngine::recover_from_snapshot(
        &snap_path,
        &wal_path,
        SyncPolicy::PerOp,
        LoadMode::Verify,
    )
    .expect("warm recovery");
    let (cold, cold_report) =
        SnapshotEngine::recover(oracle_base, &wal_path, SyncPolicy::PerOp).expect("cold recovery");

    assert_eq!(cold_report.applied, end_pos);
    assert!(
        warm_report.applied < end_pos,
        "warm recovery must replay only the tail ({} vs {end_pos})",
        warm_report.applied
    );
    assert_eq!(warm.writer_pos(), cold.writer_pos());

    let ws = warm.snapshot();
    let cs = cold.snapshot();
    assert_engines_equivalent(cs.engine(), ws.engine(), &queries);
    drop(warm);
    drop(cold);
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&snap_path);
}
