//! Concurrent differential harness for the RCU snapshot engine: a
//! snapshot observed **mid-mutation** must be bit-identical to a
//! monolith freshly built at the same log prefix.
//!
//! This extends the machinery of `tests/mutation_equivalence.rs` (same
//! seed-derived op interleavings, same hole-preserving oracle) across a
//! thread boundary: one writer thread replays the interleaving through
//! [`SnapshotEngine`]'s `&self` writer API while reader threads
//! continuously grab snapshots and differential-check them. The crucial
//! property is the log-prefix anchor: with a single writer, every
//! logged operation is one log record, so a snapshot at `log_pos() = p`
//! must answer **exactly** like an engine built from scratch over the
//! model corpus after `ops[..p]` — no matter what the writer, the
//! publisher thread, or a racing compaction is doing at that instant.
//!
//! Readers check every algorithm (including `Auto`, whose planner state
//! is forked per generation) as canonical id sets and top-k answers as
//! bit-identical `(distance, id)` sequences, both against an `Fv`
//! oracle — the same contract the single-threaded harness enforces.

use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use rand::Rng;
use ranksim::prelude::*;

const K: usize = 8;
const DOMAIN: u32 = 64;

/// One mutation of the interleaving (the `mutation_equivalence` op
/// alphabet; removes always target a live id by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Insert(Vec<ItemId>),
    Remove(RankingId),
    Compact,
}

/// The model corpus: `model[id] = Some(items)` iff ranking `id` is live.
type Model = Vec<Option<Vec<ItemId>>>;

fn random_ranking(rng: &mut StdRng, model: &Model) -> Vec<ItemId> {
    let live: Vec<&Vec<ItemId>> = model.iter().flatten().collect();
    if !live.is_empty() && rng.random_bool(0.6) {
        let mut items = live[rng.random_range(0..live.len())].clone();
        if rng.random_bool(0.5) {
            let a = rng.random_range(0..K);
            let b = rng.random_range(0..K);
            items.swap(a, b);
        } else {
            let p = rng.random_range(0..K);
            let span = if rng.random_bool(0.2) {
                100_000
            } else {
                DOMAIN
            };
            let mut cand = ItemId(rng.random_range(0..span));
            while items.contains(&cand) {
                cand = ItemId(rng.random_range(0..span));
            }
            items[p] = cand;
        }
        items
    } else {
        let mut items = Vec::with_capacity(K);
        while items.len() < K {
            let cand = ItemId(rng.random_range(0..DOMAIN));
            if !items.contains(&cand) {
                items.push(cand);
            }
        }
        items
    }
}

/// Seed → (initial corpus, op interleaving), deterministically.
fn derive_case(seed: u64, initial: usize, ops: usize) -> (Vec<Vec<ItemId>>, Vec<Op>) {
    let mut rng = proptest::rng_from_seed(seed);
    let mut model: Model = Vec::new();
    let mut corpus = Vec::with_capacity(initial);
    for _ in 0..initial {
        let items = random_ranking(&mut rng, &model);
        model.push(Some(items.clone()));
        corpus.push(items);
    }
    let mut sequence = Vec::with_capacity(ops);
    for _ in 0..ops {
        let live: Vec<u32> = (0..model.len() as u32)
            .filter(|&i| model[i as usize].is_some())
            .collect();
        let roll = rng.random_range(0..100u32);
        let op = if roll < 8 && !live.is_empty() {
            Op::Compact
        } else if roll < 54 || live.len() < 8 {
            let items = random_ranking(&mut rng, &model);
            model.push(Some(items.clone()));
            Op::Insert(items)
        } else {
            let victim = live[rng.random_range(0..live.len())];
            model[victim as usize] = None;
            Op::Remove(RankingId(victim))
        };
        sequence.push(op);
    }
    (corpus, sequence)
}

/// A fresh engine over the model corpus at the original ids (holes
/// where the live corpus has none) — the ground truth for one prefix.
fn oracle_engine(model: &Model) -> Engine {
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

/// The model corpus after every log prefix: `models[p]` is the state a
/// snapshot at `log_pos() == p` must be equivalent to. Single-writer
/// discipline makes `p` ↔ "ops[..p] applied" exact: every op in the
/// derived sequence appends exactly one log record (removes always hit
/// a live id, so none degrade to a no-op).
fn model_prefixes(corpus: &[Vec<ItemId>], ops: &[Op]) -> Vec<Model> {
    let mut model: Model = corpus.iter().cloned().map(Some).collect();
    let mut models = Vec::with_capacity(ops.len() + 1);
    models.push(model.clone());
    for op in ops {
        match op {
            Op::Insert(items) => model.push(Some(items.clone())),
            Op::Remove(id) => model[id.index()] = None,
            Op::Compact => {}
        }
        models.push(model.clone());
    }
    models
}

/// Differential check of one observed snapshot against the oracle at
/// its log prefix. Returns the observed position (for the progress
/// assertion).
fn check_snapshot(snap: &EngineSnapshot, models: &[Model], queries: &[Vec<ItemId>]) -> usize {
    let pos = snap.log_pos() as usize;
    let oracle = oracle_engine(&models[pos]);
    assert_eq!(
        snap.live_len(),
        oracle.live_len(),
        "live count at log prefix {pos}"
    );
    let mut oscratch = oracle.scratch();
    let mut sscratch = snap.scratch();
    let mut stats = QueryStats::new();
    for q in queries {
        for theta in [0.0, 0.12, 0.3] {
            let raw = raw_threshold(theta, K);
            let mut expect = oracle.query_items(Algorithm::Fv, q, raw, &mut oscratch, &mut stats);
            expect.sort_unstable();
            for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                let mut got = snap.query_items(alg, q, raw, &mut sscratch, &mut stats);
                got.sort_unstable();
                assert_eq!(
                    got, expect,
                    "snapshot {alg} diverged from the log-prefix-{pos} oracle at θ={theta}"
                );
            }
        }
        for kn in [1usize, 5, 17] {
            let expect = oracle.query_topk(q, kn, &mut oscratch, &mut stats);
            let got = snap.query_topk(q, kn, &mut sscratch, &mut stats);
            assert_eq!(got, expect, "snapshot topk k={kn} at log prefix {pos}");
        }
    }
    pos
}

/// Runs one seed: a writer thread replays the interleaving through the
/// snapshot engine while `readers` threads race it, checking every
/// snapshot they observe against the oracle at that snapshot's exact
/// log prefix.
fn run_concurrent_case(seed: u64, initial: usize, ops: usize, readers: usize) {
    let (corpus, sequence) = derive_case(seed, initial, ops);
    let models = model_prefixes(&corpus, &sequence);

    // Fixed query set (near-misses of the *final* model keep them
    // relevant across every prefix).
    let mut qrng = proptest::rng_from_seed(seed ^ 0x5EED);
    let queries: Vec<Vec<ItemId>> = (0..3)
        .map(|_| random_ranking(&mut qrng, models.last().unwrap()))
        .collect();

    let mut store = RankingStore::new(K);
    for items in &corpus {
        store.push_items_unchecked(items);
    }
    let engine = EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K))
        .compaction_threshold(0.4) // auto-compaction racing the readers
        .build();
    let service = SnapshotEngine::new(engine);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                let service = &service;
                let done = &done;
                let models = &models;
                let queries = &queries;
                scope.spawn(move || {
                    let mut positions = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        let snap = service.snapshot();
                        positions.push(check_snapshot(&snap, models, queries));
                    }
                    positions
                })
            })
            .collect();

        // The writer: one op at a time through the `&self` API, with a
        // breather so readers observe many intermediate generations.
        let mut expected_id = corpus.len() as u32;
        for op in &sequence {
            match op {
                Op::Insert(items) => {
                    let got = service.insert_ranking(items);
                    assert_eq!(got, RankingId(expected_id), "id assignment is monotone");
                    expected_id += 1;
                }
                Op::Remove(id) => {
                    assert!(service.remove_ranking(*id), "removes target live ids");
                }
                Op::Compact => service.compact(),
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        service.flush();
        done.store(true, Ordering::Release);

        let mut observed: Vec<usize> = reader_handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        observed.sort_unstable();
        observed.dedup();
        // The race must actually have happened: readers saw genuinely
        // intermediate prefixes, not just the initial and final states.
        assert!(
            observed.len() >= 3,
            "readers observed only {observed:?} distinct log prefixes — no concurrency exercised"
        );
    });

    // After the dust settles: the final snapshot is at the full prefix
    // and equivalent to the final oracle.
    let snap = service.snapshot();
    assert_eq!(snap.log_pos() as usize, sequence.len());
    check_snapshot(&snap, &models, &queries);
}

/// The acceptance property: snapshots observed while a writer races
/// inserts, removes and compactions (explicit and automatic) through
/// the RCU engine are bit-identical to from-scratch builds at their
/// exact log prefix — for every algorithm, threshold and top-k.
#[test]
fn racing_snapshots_match_fresh_oracles_at_their_log_prefix() {
    let mut master = proptest::test_rng("snapshot_equivalence::concurrent");
    for _ in 0..2 {
        let seed = proptest::case_seed(&mut master);
        run_concurrent_case(seed, 110, 130, 3);
    }
}

/// Regression for the publisher's reclamation path: a reader pinning a
/// snapshot across many published generations must keep its frozen view
/// while the engine advances — and the abandoned generation is handed
/// off to the straggler rather than blocking publication.
#[test]
fn pinned_snapshot_survives_the_writer_racing_past_it() {
    let (corpus, sequence) = derive_case(0xD1FF, 100, 90);
    let models = model_prefixes(&corpus, &sequence);
    let mut qrng = proptest::rng_from_seed(0xD1FF ^ 0x5EED);
    let queries: Vec<Vec<ItemId>> = (0..3)
        .map(|_| random_ranking(&mut qrng, models.last().unwrap()))
        .collect();

    let mut store = RankingStore::new(K);
    for items in &corpus {
        store.push_items_unchecked(items);
    }
    let engine = EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K))
        .compaction_threshold(0.4)
        .build();
    let service = SnapshotEngine::new(engine);

    let pinned = service.snapshot();
    assert_eq!(pinned.log_pos(), 0);
    for op in &sequence {
        match op {
            Op::Insert(items) => {
                service.insert_ranking(items);
            }
            Op::Remove(id) => {
                service.remove_ranking(*id);
            }
            Op::Compact => service.compact(),
        }
    }
    service.flush();

    // The pinned snapshot still answers as the untouched initial state…
    check_snapshot(&pinned, &models, &queries);
    assert_eq!(pinned.log_pos(), 0);
    // …while the engine has long moved on.
    let fresh = service.snapshot();
    assert_eq!(fresh.log_pos() as usize, sequence.len());
    check_snapshot(&fresh, &models, &queries);
}
