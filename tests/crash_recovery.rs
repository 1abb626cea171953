//! Crash-kill durability harness: a child process churns mutations
//! through a WAL-backed [`SnapshotEngine`] until it is SIGKILLed at a
//! random instant — mid-append, mid-sync, wherever the timer lands.
//! The parent then recovers from the surviving log and differentially
//! checks the result against a from-scratch oracle.
//!
//! The contract under test is exactly the paper-engine's durability
//! story ([`SnapshotEngine::recover`]): with `SyncPolicy::PerOp` every
//! acknowledged mutation is on disk, so after a kill the WAL holds a
//! **prefix** of the op stream plus at most one torn record. Both
//! sides derive the op stream deterministically from the same seed, so
//! the parent can rebuild the model state at the recovered prefix and
//! demand the recovered corpus be identical — ranking by ranking, hole
//! by hole — and that every algorithm answers like a fresh build.
//!
//! The child re-enters this very test binary (`crash_child` below,
//! dormant without its env vars), the standard self-exec trick for
//! fault harnesses.

use std::env;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use ranksim::core::read_wal;
use ranksim::prelude::*;

const K: usize = 8;
const DOMAIN: u32 = 48;
const INITIAL: usize = 60;

/// `model[id] = Some(items)` iff ranking `id` is live.
type Model = Vec<Option<Vec<ItemId>>>;

enum Op {
    Insert(Vec<ItemId>),
    Remove(RankingId),
    Compact,
}

fn random_ranking(rng: &mut StdRng) -> Vec<ItemId> {
    let mut items = Vec::with_capacity(K);
    while items.len() < K {
        let cand = ItemId(rng.random_range(0..DOMAIN));
        if !items.contains(&cand) {
            items.push(cand);
        }
    }
    items
}

/// The next op of the seed-derived stream, mirrored into `model`.
/// Child and parent drive the identical `StdRng`, so the stream —
/// including remove victims, which depend on the evolving live set —
/// is bit-identical on both sides.
fn next_op(rng: &mut StdRng, model: &mut Model) -> Op {
    let live: Vec<u32> = (0..model.len() as u32)
        .filter(|&i| model[i as usize].is_some())
        .collect();
    let roll = rng.random_range(0..100u32);
    if roll < 6 && !live.is_empty() {
        Op::Compact
    } else if roll < 55 || live.len() < 8 {
        let items = random_ranking(rng);
        model.push(Some(items.clone()));
        Op::Insert(items)
    } else {
        let victim = live[rng.random_range(0..live.len())];
        model[victim as usize] = None;
        Op::Remove(RankingId(victim))
    }
}

/// Seed → (base corpus model, op rng), identically on both sides.
fn seeded_base(seed: u64) -> (Model, StdRng) {
    let mut rng = proptest::rng_from_seed(seed);
    let model: Model = (0..INITIAL)
        .map(|_| Some(random_ranking(&mut rng)))
        .collect();
    (model, rng)
}

/// A fresh engine over the model at the original ids, holes preserved.
fn build_engine(model: &Model) -> Engine {
    let mut store = RankingStore::new(K);
    for slot in model {
        match slot {
            Some(items) => {
                store.push_items_unchecked(items);
            }
            None => {
                store.push_hole();
            }
        }
    }
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K))
        .build()
}

fn wal_path(seed: u64) -> PathBuf {
    env::temp_dir().join(format!("ranksim-crash-{seed:016x}.wal"))
}

fn ready_path(seed: u64) -> PathBuf {
    env::temp_dir().join(format!("ranksim-crash-{seed:016x}.ready"))
}

/// The child body: dormant unless spawned by the parent below. Churns
/// seed-derived ops through a `PerOp`-synced WAL forever; the parent's
/// SIGKILL is the only way out.
#[test]
fn crash_child() {
    let Ok(seed) = env::var("RANKSIM_CRASH_SEED") else {
        return;
    };
    let seed: u64 = seed.parse().expect("RANKSIM_CRASH_SEED is a u64");
    let (mut model, mut rng) = seeded_base(seed);
    let service =
        SnapshotEngine::with_wal(build_engine(&model), &wal_path(seed), SyncPolicy::PerOp)
            .expect("create child WAL");
    // Tell the parent the WAL header is on disk and churn has begun.
    std::fs::write(ready_path(seed), b"ready").expect("write ready marker");
    loop {
        match next_op(&mut rng, &mut model) {
            Op::Insert(items) => {
                service.insert_ranking(&items);
            }
            Op::Remove(id) => {
                assert!(service.remove_ranking(id), "removes target live ids");
            }
            Op::Compact => service.compact(),
        }
    }
}

/// Recovered corpus == model corpus, ranking by ranking, and every
/// algorithm answers like a fresh build over that model.
fn assert_recovered_matches(snap: &EngineSnapshot, model: &Model, seed: u64) {
    let oracle = build_engine(model);
    assert_eq!(
        snap.live_len(),
        oracle.live_len(),
        "live count after recovery"
    );
    let store = snap.store();
    assert_eq!(store.len(), model.len(), "corpus length after recovery");
    for (i, slot) in model.iter().enumerate() {
        let id = RankingId(i as u32);
        match slot {
            Some(items) => {
                assert!(store.is_live(id), "ranking {i} must be live");
                assert_eq!(store.items(id), &items[..], "ranking {i} contents");
            }
            None => assert!(!store.is_live(id), "ranking {i} must be a hole"),
        }
    }

    let mut qrng = proptest::rng_from_seed(seed ^ 0x5EED);
    let queries: Vec<Vec<ItemId>> = (0..3).map(|_| random_ranking(&mut qrng)).collect();
    let mut oscratch = oracle.scratch();
    let mut sscratch = snap.scratch();
    let mut stats = QueryStats::new();
    for q in &queries {
        for theta in [0.0, 0.15, 0.35] {
            let raw = raw_threshold(theta, K);
            let mut expect = oracle.query_items(Algorithm::Fv, q, raw, &mut oscratch, &mut stats);
            expect.sort_unstable();
            for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                let mut got = snap.query_items(alg, q, raw, &mut sscratch, &mut stats);
                got.sort_unstable();
                assert_eq!(got, expect, "{alg} diverged from the oracle at θ={theta}");
            }
        }
        let expect = oracle.query_topk(q, 7, &mut oscratch, &mut stats);
        let got = snap.query_topk(q, 7, &mut sscratch, &mut stats);
        assert_eq!(got, expect, "top-k diverged from the oracle");
    }
}

#[test]
fn sigkilled_writer_recovers_to_the_exact_surviving_prefix() {
    // The dormant-child guard: never recurse when *we* are the child.
    if env::var("RANKSIM_CRASH_SEED").is_ok() {
        return;
    }
    let exe = env::current_exe().expect("own test binary");
    let mut master = proptest::test_rng("crash_recovery::sigkill");
    let mut total_applied = 0u64;

    for round in 0..3u32 {
        let seed = proptest::case_seed(&mut master);
        let wal = wal_path(seed);
        let ready = ready_path(seed);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&ready);

        let mut child = Command::new(&exe)
            .args(["crash_child", "--exact", "--nocapture"])
            .env("RANKSIM_CRASH_SEED", seed.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn crash child");

        // Wait for the WAL header, then let the churn run for a
        // seed-random 2–30 ms before pulling the plug.
        let deadline = Instant::now() + Duration::from_secs(20);
        while !ready.exists() {
            assert!(
                Instant::now() < deadline,
                "round {round}: child never became ready"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(2 + seed % 29));
        child.kill().expect("SIGKILL the child");
        child.wait().expect("reap the child");

        // Recover against the same seeded base corpus.
        let (model0, rng0) = seeded_base(seed);
        let (service, report) =
            SnapshotEngine::recover(build_engine(&model0), &wal, SyncPolicy::PerOp)
                .expect("recovery after SIGKILL");
        total_applied += report.applied;

        // A kill can tear at most the one record being written.
        let max_record = 8 + (4 + 4 + K * 4) as u64;
        assert!(
            report.truncated_bytes <= max_record,
            "round {round}: torn tail of {} bytes exceeds one record",
            report.truncated_bytes
        );

        // Replay the deterministic op stream to the recovered prefix.
        let mut model = model0;
        let mut rng = rng0;
        for _ in 0..report.applied {
            next_op(&mut rng, &mut model);
        }
        assert_recovered_matches(&service.snapshot(), &model, seed);

        // The recovered engine keeps serving *and* stays durable: one
        // more acknowledged insert must land in the resumed WAL.
        let fresh = random_ranking(&mut rng);
        service
            .try_insert_ranking(&fresh)
            .expect("recovered engine accepts writes");
        assert!(service.flush(), "publisher alive after recovery");
        assert!(service.health().is_healthy(), "healthy after recovery");
        drop(service); // joins the publisher, syncs the WAL

        let scan = read_wal(&wal).expect("re-scan the resumed WAL");
        assert_eq!(
            scan.ops.len() as u64,
            report.applied + 1,
            "round {round}: post-recovery insert is durable"
        );
        assert_eq!(scan.truncated_bytes, 0, "resume truncated the torn tail");

        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&ready);
    }

    assert!(
        total_applied > 0,
        "no round survived any acknowledged op — the harness never exercised recovery"
    );
}
