//! Differential harness for the distributed tier: a
//! [`RemoteShardedEngine`] fanning queries over snapshot-spawned
//! worker processes must be **bit-identical** to the in-process
//! [`ShardedEngine`] it was saved from and to a monolithic [`Engine`]
//! over the same corpus — threshold queries across every algorithm
//! plus `Auto`, and lexicographic top-k.
//!
//! The shard workers are real OS processes: each test re-enters this
//! very test binary (`remote_worker` below, dormant without the
//! router-set env vars) — the same self-exec trick as the crash
//! harness. On top of plain equivalence the harness proves the two
//! distributed-only behaviours:
//!
//! - **pruned fan-out stays exact**: clustered corpora under medoid
//!   sharding let the pivot/radius bound skip most shards at tight θ,
//!   and the answers still match the oracle bit for bit;
//! - **worker death is survivable**: a worker SIGKILLed mid-batch is
//!   detected (EOF), respawned from its snapshot, and the batch
//!   finishes with every surviving answer identical to the oracle.

use std::env;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::Rng;
use ranksim::prelude::*;
use ranksim::rankings::max_distance;

const K: usize = 6;
/// Item-disjoint clusters: cluster `c` draws from `c*SPREAD..(c+1)*SPREAD`.
/// `SPREAD` barely exceeds `K`, so same-cluster rankings share most
/// items (small covering radius) while cross-cluster rankings are
/// fully disjoint (maximal pivot distance) — exactly the geometry the
/// pivot/radius bound prunes on.
const CLUSTERS: u32 = 4;
const SPREAD: u32 = 8;

/// The worker body: dormant unless spawned by a router in this file
/// (the env vars are only ever set on spawned children). Serves one
/// shard until the router disconnects.
#[test]
fn remote_worker() {
    let served = serve_from_env().expect("worker serves its shard cleanly");
    let _ = served;
}

fn worker_spec() -> WorkerSpec {
    let exe = env::current_exe().expect("own test binary");
    WorkerSpec::new(exe)
        .arg("remote_worker")
        .arg("--exact")
        .arg("--nocapture")
}

fn clustered_ranking(rng: &mut StdRng, cluster: u32) -> Vec<ItemId> {
    let base = cluster * SPREAD;
    let mut items = Vec::with_capacity(K);
    while items.len() < K {
        let cand = ItemId(base + rng.random_range(0..SPREAD));
        if !items.contains(&cand) {
            items.push(cand);
        }
    }
    items
}

/// A clustered corpus whose first [`CLUSTERS`] rankings are one anchor
/// per cluster — under `ShardStrategy::Medoid` with
/// `num_shards == CLUSTERS` they fill the medoid slots, so every
/// cluster lands on its own shard and the pivot/radius bound has
/// something to prune.
fn clustered_corpus(n: usize, seed: u64) -> Vec<Vec<ItemId>> {
    let mut rng = proptest::rng_from_seed(seed);
    let mut corpus: Vec<Vec<ItemId>> = (0..CLUSTERS)
        .map(|c| clustered_ranking(&mut rng, c))
        .collect();
    while corpus.len() < n {
        let cluster = rng.random_range(0..CLUSTERS);
        corpus.push(clustered_ranking(&mut rng, cluster));
    }
    corpus
}

fn monolith_of(corpus: &[Vec<ItemId>]) -> Engine {
    let mut store = RankingStore::new(K);
    for items in corpus {
        store.push_items_unchecked(items);
    }
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .build()
}

fn sharded_of(corpus: &[Vec<ItemId>]) -> ShardedEngine {
    let mut b = ShardedEngineBuilder::new(K, CLUSTERS as usize, ShardStrategy::Medoid)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06);
    for items in corpus {
        b.push_ranking(items);
    }
    b.build()
}

/// Builds monolith + sharded twins over one clustered corpus, saves
/// the sharded snapshot under a test-private directory, and launches a
/// router over it. Global ids line up across all three by
/// construction (identical push order).
fn launch_trio(
    name: &str,
    n: usize,
    seed: u64,
) -> (Engine, ShardedEngine, RemoteShardedEngine, PathBuf) {
    let corpus = clustered_corpus(n, seed);
    let engine = monolith_of(&corpus);
    let sharded = sharded_of(&corpus);
    let dir = env::temp_dir().join(format!("ranksim-dist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_sharded(&dir, &sharded).expect("save sharded snapshot");
    let remote = RemoteShardedEngine::launch(&dir, worker_spec(), RemoteOptions::default())
        .expect("launch shard workers");
    (engine, sharded, remote, dir)
}

fn queries_for(n_queries: usize, seed: u64) -> Vec<Vec<ItemId>> {
    let mut rng = proptest::rng_from_seed(seed ^ 0x0D15_7ED);
    (0..n_queries)
        .map(|i| clustered_ranking(&mut rng, i as u32 % CLUSTERS))
        .collect()
}

#[test]
fn distributed_equals_sharded_equals_monolith() {
    let (engine, sharded, mut remote, dir) = launch_trio("equiv", 360, 41);
    assert_eq!(remote.k(), K);
    assert_eq!(remote.num_workers(), CLUSTERS as usize);

    // The manifest the router ran on agrees with the engine it mirrors.
    let manifest = load_sharded_manifest(&dir).expect("re-read manifest");
    assert_eq!(manifest.k, K);
    assert_eq!(manifest.num_shards, CLUSTERS as usize);
    assert_eq!(manifest.len(), sharded.len());

    let mut mscratch = engine.scratch();
    let mut sscratch = sharded.scratch();
    let mut stats = QueryStats::new();
    for query in &queries_for(4, 41) {
        for theta in [0.05, 0.2, 0.45] {
            let raw = raw_threshold(theta, K);
            let mut expect =
                engine.query_items(Algorithm::Fv, query, raw, &mut mscratch, &mut stats);
            expect.sort_unstable();
            for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                let in_proc = sharded.query_items(alg, query, raw, &mut sscratch, &mut stats);
                assert_eq!(in_proc, expect, "{alg} sharded ≠ monolith at θ={theta}");
                let dist = remote
                    .query_threshold(alg, query, raw)
                    .expect("distributed threshold query");
                assert_eq!(dist, expect, "{alg} distributed ≠ monolith at θ={theta}");
            }
        }
        // θ = 1: every ranking, also those of the other (item-disjoint)
        // clusters, which share no posting list with the query.
        let everything: Vec<RankingId> = (0..360).map(RankingId).collect();
        let raw = raw_threshold(1.0, K);
        for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
            let mono = engine.query_items(alg, query, raw, &mut mscratch, &mut stats);
            assert_eq!(mono, everything, "{alg} monolith at θ = 1");
            let in_proc = sharded.query_items(alg, query, raw, &mut sscratch, &mut stats);
            assert_eq!(in_proc, everything, "{alg} sharded at θ = 1");
            let dist = remote.query_threshold(alg, query, raw);
            assert_eq!(
                dist.expect("θ = 1 query"),
                everything,
                "{alg} distributed at θ = 1"
            );
        }
        for neighbours in [1usize, 5, 17] {
            let expect = engine.query_topk(query, neighbours, &mut mscratch, &mut stats);
            let in_proc = sharded.query_topk(query, neighbours, &mut sscratch, &mut stats);
            assert_eq!(in_proc, expect, "sharded top-{neighbours} ≠ monolith");
            let dist = remote
                .query_topk(query, neighbours)
                .expect("distributed top-k query");
            assert_eq!(dist, expect, "distributed top-{neighbours} ≠ monolith");
        }
    }

    let stats = remote.take_stats();
    assert_eq!(stats.worker_deaths, 0, "no worker died in the happy path");
    assert_eq!(stats.hedges, 0, "no straggler in the happy path");
    // Clustered corpus + tight θ: the pivot/radius bound must have
    // skipped cross-cluster shards — and every answer above matched.
    assert!(
        stats.fanout_pruned > 0,
        "medoid pruning never fired on a clustered corpus"
    );
    drop(remote);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pruned_fanout_reduces_requests_and_stays_exact() {
    let (engine, _sharded, mut remote, dir) = launch_trio("prune", 280, 77);
    let workers = remote.num_workers() as u64;
    let mut mscratch = engine.scratch();
    let mut stats = QueryStats::new();
    let queries = queries_for(6, 77);
    let raw = raw_threshold(0.05, K);
    for query in &queries {
        let mut expect = engine.query_items(Algorithm::Fv, query, raw, &mut mscratch, &mut stats);
        expect.sort_unstable();
        let dist = remote
            .query_threshold(Algorithm::Fv, query, raw)
            .expect("pruned threshold query");
        assert_eq!(dist, expect, "pruned fan-out changed an answer");
    }
    let rstats = remote.take_stats();
    // Accounting closes: every (query, worker) pair was either sent or
    // provably-empty pruned.
    assert_eq!(
        rstats.fanout_sent + rstats.fanout_pruned,
        queries.len() as u64 * workers,
        "fan-out accounting leak"
    );
    assert!(
        rstats.fanout_pruned >= queries.len() as u64,
        "tight-θ clustered queries should prune most cross-cluster shards \
         (pruned {} of {})",
        rstats.fanout_pruned,
        queries.len() as u64 * workers
    );
    drop(remote);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded directory saved *after* deletes maps more local slots than
/// its shards hold live rankings; it must still launch (the handshake
/// used to demand equality) and answer like `load_sharded` of the same
/// directory. A hostile `neighbours = u32::MAX` crosses the real worker
/// sockets unclamped and comes back as the whole live corpus in
/// `(distance, id)` order, not as a 32 GiB heap reservation.
#[test]
fn directory_saved_after_deletes_launches_and_bounds_huge_topk() {
    let corpus = clustered_corpus(200, 57);
    let mut sharded = sharded_of(&corpus);
    let removed = |id: usize| id % 9 == 4;
    for id in (0..corpus.len()).filter(|&id| removed(id)) {
        assert!(sharded.remove_ranking(RankingId(id as u32)));
    }
    let dir = env::temp_dir().join(format!("ranksim-dist-deleted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_sharded(&dir, &sharded).expect("save sharded snapshot");
    let loaded = load_sharded(&dir, LoadMode::Verify).expect("load the same directory");
    let mut remote = RemoteShardedEngine::launch(&dir, worker_spec(), RemoteOptions::default())
        .expect("a directory saved after deletes must launch");

    let mut scratch = loaded.scratch();
    let mut stats = QueryStats::new();
    for query in &queries_for(4, 57) {
        let raw = raw_threshold(0.3, K);
        let expect = loaded.query_items(Algorithm::Auto, query, raw, &mut scratch, &mut stats);
        let dist = remote
            .query_threshold(Algorithm::Auto, query, raw)
            .expect("distributed threshold query");
        assert_eq!(dist, expect, "distributed ≠ load_sharded after deletes");

        let expect = loaded.query_topk(query, 9, &mut scratch, &mut stats);
        let dist = remote.query_topk(query, 9).expect("distributed top-k");
        assert_eq!(
            dist, expect,
            "distributed top-9 ≠ load_sharded after deletes"
        );

        let map = PositionMap::new(query);
        let mut whole: Vec<(u32, RankingId)> = (0..corpus.len())
            .filter(|&id| !removed(id))
            .map(|id| (map.distance_to(&corpus[id]), RankingId(id as u32)))
            .collect();
        whole.sort_unstable();
        for huge in [u32::MAX as usize, usize::MAX] {
            let dist = remote
                .query_topk(query, huge)
                .expect("huge distributed top-k");
            assert_eq!(dist, whole, "huge top-k ≠ the whole live corpus");
            assert_eq!(
                loaded.query_topk(query, huge, &mut scratch, &mut stats),
                whole
            );
        }

        // Fewer rankings overlap the query (its own cluster) than asked
        // for: the rest sit at `max_distance(K)`, smallest live ids first.
        let overlapping = whole.iter().filter(|&&(d, _)| d < max_distance(K)).count();
        let neighbours = overlapping + 20;
        let dist = remote.query_topk(query, neighbours).expect("short top-k");
        assert_eq!(
            dist,
            whole[..neighbours],
            "distributed fill ≠ smallest live ids"
        );
        let in_proc = loaded.query_topk(query, neighbours, &mut scratch, &mut stats);
        assert_eq!(
            in_proc,
            whole[..neighbours],
            "sharded fill ≠ smallest live ids"
        );
    }
    drop(remote);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: SIGKILL a shard worker mid-batch. The router must detect
/// the death on the next query that fans out to it, respawn the worker
/// from its snapshot, and keep every surviving answer bit-identical to
/// the in-process oracle; at worst the in-flight query fails **typed**,
/// never silently truncated.
#[test]
fn sigkilled_worker_mid_batch_respawns_and_answers_stay_exact() {
    let (_engine, sharded, mut remote, dir) = launch_trio("sigkill", 300, 93);
    let mut sscratch = sharded.scratch();
    let mut stats = QueryStats::new();
    // Loose θ: no pruning, every query fans out to every worker — the
    // killed shard cannot be dodged.
    let raw = raw_threshold(0.45, K);
    let queries = queries_for(10, 93);
    let oracle: Vec<Vec<RankingId>> = queries
        .iter()
        .map(|q| sharded.query_items(Algorithm::Fv, q, raw, &mut sscratch, &mut stats))
        .collect();

    let mut failures = 0u64;
    for (qi, query) in queries.iter().enumerate() {
        if qi == 3 {
            assert!(remote.kill_worker(0), "shard 0 has a worker to kill");
        }
        match remote.query_threshold(Algorithm::Fv, query, raw) {
            Ok(got) => assert_eq!(
                got, oracle[qi],
                "query {qi} diverged from the oracle after the kill"
            ),
            // A typed per-query failure is the only acceptable
            // alternative to a correct answer.
            Err(RemoteError::WorkerDied { shard, .. }) | Err(RemoteError::TimedOut { shard }) => {
                assert_eq!(shard, 0, "only the killed shard may fail");
                failures += 1;
            }
            Err(other) => panic!("query {qi} failed untyped: {other}"),
        }
    }
    assert!(failures <= 1, "at most the in-flight query may fail");

    let rstats = remote.take_stats();
    assert!(rstats.worker_deaths >= 1, "the SIGKILL went undetected");
    assert!(rstats.respawns >= 1, "the dead worker was never respawned");

    // The respawned worker serves top-k too — the fleet fully healed.
    let expect = sharded.query_topk(&queries[0], 9, &mut sscratch, &mut stats);
    let got = remote
        .query_topk(&queries[0], 9)
        .expect("top-k after respawn");
    assert_eq!(got, expect, "post-respawn top-k diverged");
    drop(remote);
    let _ = std::fs::remove_dir_all(&dir);
}
