//! Steady-state allocation guard: after a warm-up pass has grown the
//! scratch's epoch arrays and the result buffer to their high-water
//! marks, `Engine::query_into` must perform **zero** heap allocations for
//! every algorithm at every threshold — and so must
//! `ShardedEngine::query_into`, whose per-shard engines share one
//! grow-only scratch and whose id-translation/sort merge works in place,
//! and `Algorithm::Auto` on both engines: the planner prices candidates
//! from pre-computed tables and the scratch's `plan_freqs` buffer, and
//! its recalibration loop is a pair of relaxed atomics — no per-query
//! heap work anywhere.
//!
//! A counting global allocator tracks every `alloc`/`realloc`; the test
//! runs the full (algorithm × θ × query) grid twice for warm-up and then
//! asserts the counter does not move during a third, measured pass.
//!
//! This file intentionally holds a single test: the counter is global, so
//! a concurrently running test in the same binary would tamper with it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ranksim_core::engine::{Algorithm, EngineBuilder};
use ranksim_core::{ShardStrategy, ShardedEngineBuilder};
use ranksim_datasets::{nyt_like, workload, WorkloadParams};
use ranksim_rankings::{raw_threshold, QueryStats};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_query_into_performs_zero_allocations() {
    let ds = nyt_like(1500, 10, 99);
    let domain = ds.params.domain;
    let mut sharded_builder = ShardedEngineBuilder::new(10, 3, ShardStrategy::Hash)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06);
    sharded_builder.extend_from_store(&ds.store);
    let sharded = sharded_builder.build();
    let engine = EngineBuilder::new(ds.store)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .build();
    let wl = workload(
        engine.store(),
        domain,
        WorkloadParams {
            num_queries: 12,
            seed: 31,
            ..Default::default()
        },
    );
    let thetas: Vec<u32> = [0.0, 0.1, 0.2, 0.3]
        .iter()
        .map(|&t| raw_threshold(t, 10))
        .collect();

    let mut scratch = engine.scratch();
    let mut out = Vec::new();
    let mut stats = QueryStats::new();
    let run_grid = |scratch: &mut _, out: &mut _, stats: &mut _| {
        let mut total = 0usize;
        for alg in Algorithm::ALL {
            for &raw in &thetas {
                for q in &wl.queries {
                    engine.query_into(alg, q, raw, scratch, stats, out);
                    total += out.len();
                }
            }
        }
        total
    };

    // Warm-up: two passes grow every buffer to its high-water mark.
    let warm1 = run_grid(&mut scratch, &mut out, &mut stats);
    let warm2 = run_grid(&mut scratch, &mut out, &mut stats);
    assert_eq!(warm1, warm2, "deterministic workload expected");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let measured = run_grid(&mut scratch, &mut out, &mut stats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(measured, warm1);
    assert_eq!(
        after - before,
        0,
        "steady-state query_into must not touch the allocator \
         ({} allocations during the measured pass)",
        after - before
    );

    // The same contract for the sharded engine: one ShardedScratch per
    // caller, every per-shard query plus the translate-and-sort merge
    // allocation-free once warm.
    let mut sscratch = sharded.scratch();
    let mut sout = Vec::new();
    let mut sstats = QueryStats::new();
    let run_sharded_grid =
        |scratch: &mut ranksim_core::ShardedScratch, out: &mut Vec<_>, stats: &mut _| {
            let mut total = 0usize;
            for alg in Algorithm::ALL {
                for &raw in &thetas {
                    for q in &wl.queries {
                        sharded.query_into(alg, q, raw, scratch, stats, out);
                        total += out.len();
                    }
                }
            }
            total
        };
    let swarm1 = run_sharded_grid(&mut sscratch, &mut sout, &mut sstats);
    let swarm2 = run_sharded_grid(&mut sscratch, &mut sout, &mut sstats);
    assert_eq!(swarm1, swarm2, "deterministic workload expected");
    assert_eq!(
        swarm1, warm1,
        "sharded grid must return the same result mass"
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let smeasured = run_sharded_grid(&mut sscratch, &mut sout, &mut sstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(smeasured, swarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state sharded query_into must not touch the allocator \
         ({} allocations during the measured pass)",
        after - before
    );

    // `Algorithm::Auto`: planning (candidate pricing + argmin) and the
    // recalibration feedback must add zero allocations on top of the
    // chosen executor. Both engines carry planners (default build /
    // explicit Auto selection); all executors' buffers are already at
    // their high-water marks from the grids above, and the extra warm-up
    // passes grow `plan_freqs` and settle the planner's picks.
    let run_auto_grid = |scratch: &mut _, out: &mut Vec<_>, stats: &mut _| {
        let mut total = 0usize;
        for &raw in &thetas {
            for q in &wl.queries {
                engine.query_into(Algorithm::Auto, q, raw, scratch, stats, out);
                total += out.len();
            }
        }
        total
    };
    let awarm1 = run_auto_grid(&mut scratch, &mut out, &mut stats);
    let awarm2 = run_auto_grid(&mut scratch, &mut out, &mut stats);
    assert_eq!(awarm1, awarm2, "Auto results are algorithm-independent");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let ameasured = run_auto_grid(&mut scratch, &mut out, &mut stats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(ameasured, awarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state query_auto must not touch the allocator \
         ({} allocations during the measured pass)",
        after - before
    );

    let run_sharded_auto_grid =
        |scratch: &mut ranksim_core::ShardedScratch, out: &mut Vec<_>, stats: &mut _| {
            let mut total = 0usize;
            for &raw in &thetas {
                for q in &wl.queries {
                    sharded.query_into(Algorithm::Auto, q, raw, scratch, stats, out);
                    total += out.len();
                }
            }
            total
        };
    let sawarm1 = run_sharded_auto_grid(&mut sscratch, &mut sout, &mut sstats);
    let sawarm2 = run_sharded_auto_grid(&mut sscratch, &mut sout, &mut sstats);
    assert_eq!(sawarm1, sawarm2);
    assert_eq!(sawarm1, awarm1, "sharded Auto returns the same result mass");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let sameasured = run_sharded_auto_grid(&mut sscratch, &mut sout, &mut sstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(sameasured, sawarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state sharded query_auto must not touch the allocator \
         ({} allocations during the measured pass)",
        after - before
    );

    // --- Live corpora -------------------------------------------------
    //
    // A mutated-then-compacted engine must return to the exact same
    // steady state: mutations and the compaction itself may allocate
    // (arena growth, index rebuilds), but once compacted and re-warmed,
    // the query grid touches the allocator zero times again — including
    // `Auto` (the rebuilt planner) and tombstone/delta bookkeeping,
    // which must all be pre-sized.
    let mut live = EngineBuilder::new(nyt_like(1200, 10, 7).store)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .compaction_threshold(f64::INFINITY)
        .build();
    for id in (0..1200u32).step_by(5) {
        live.remove_ranking(ranksim_rankings::RankingId(id));
    }
    for i in 0..150u32 {
        let items: Vec<ranksim_rankings::ItemId> = (0..10)
            .map(|j| ranksim_rankings::ItemId(500_000 + i * 16 + j))
            .collect();
        live.insert_ranking(&items);
    }
    live.compact();
    assert_eq!(live.delta_len(), 0);
    assert_eq!(live.base_tombstones(), 0);
    // (`query_topk` returns an owned Vec by design — the threshold grid
    // is the strict-zero surface; the KNN path shares the same scratch
    // and store machinery.)
    let run_live_grid = |scratch: &mut _, out: &mut Vec<_>, stats: &mut _| {
        let mut total = 0usize;
        for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
            for &raw in &thetas {
                for q in &wl.queries {
                    live.query_into(alg, q, raw, scratch, stats, out);
                    total += out.len();
                }
            }
        }
        total
    };
    let mut lscratch = live.scratch();
    let mut lout = Vec::new();
    let mut lstats = QueryStats::new();
    let lwarm1 = run_live_grid(&mut lscratch, &mut lout, &mut lstats);
    let lwarm2 = run_live_grid(&mut lscratch, &mut lout, &mut lstats);
    assert_eq!(lwarm1, lwarm2, "deterministic workload expected");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let lmeasured = run_live_grid(&mut lscratch, &mut lout, &mut lstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(lmeasured, lwarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state queries on a mutated-then-compacted engine must not \
         touch the allocator ({} allocations during the measured pass)",
        after - before
    );

    // --- Snapshot engine ----------------------------------------------
    //
    // Serving reads must stay zero-allocation end to end: acquiring a
    // frozen [`SnapshotEngine`] snapshot is an `RwLock` read plus one
    // `Arc` refcount bump — no clone, no copy — and querying through it
    // is the ordinary `query_into` path on the published generation.
    // The grid below re-acquires a **fresh snapshot for every query**,
    // exactly like a serving dispatcher does. The publisher thread is
    // idled first (`flush` with nothing pending parks it on its
    // condvar), so the measured pass observes the steady serving state
    // of a corpus that has already absorbed writes.
    let service = ranksim_core::SnapshotEngine::new(
        EngineBuilder::new(nyt_like(1000, 10, 13).store)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .build(),
    );
    for i in 0..40u32 {
        let items: Vec<ranksim_rankings::ItemId> = (0..10)
            .map(|j| ranksim_rankings::ItemId(700_000 + i * 16 + j))
            .collect();
        service.insert_ranking(&items);
    }
    service.flush();
    let mut nscratch = service.snapshot().scratch();
    let mut nout = Vec::new();
    let mut nstats = QueryStats::new();
    let run_snapshot_grid = |scratch: &mut _, out: &mut Vec<_>, stats: &mut _| {
        let mut total = 0usize;
        for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
            for &raw in &thetas {
                for q in &wl.queries {
                    let snap = service.snapshot();
                    snap.query_into(alg, q, raw, scratch, stats, out);
                    total += out.len();
                }
            }
        }
        total
    };
    let nwarm1 = run_snapshot_grid(&mut nscratch, &mut nout, &mut nstats);
    let nwarm2 = run_snapshot_grid(&mut nscratch, &mut nout, &mut nstats);
    assert_eq!(nwarm1, nwarm2, "deterministic workload expected");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let nmeasured = run_snapshot_grid(&mut nscratch, &mut nout, &mut nstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(nmeasured, nwarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state snapshot reads (acquire + query_into) must not \
         touch the allocator ({} allocations during the measured pass)",
        after - before
    );

    // --- Recovered engine ---------------------------------------------
    //
    // Crash recovery must hand back an engine with the same steady-state
    // read contract: a WAL-backed engine absorbs writes, is dropped
    // (cleanly syncing its log), and a *recovered* engine replays that
    // log over the base corpus. Once warm, serving reads through the
    // recovered engine — fresh snapshot per query, like the dispatcher —
    // touch the allocator zero times. The WAL is write-path machinery
    // only; it must cost reads nothing.
    let wal_path =
        std::env::temp_dir().join(format!("ranksim-allocfree-{}.wal", std::process::id()));
    let build_base = || {
        EngineBuilder::new(nyt_like(1000, 10, 17).store)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .build()
    };
    {
        let durable = ranksim_core::SnapshotEngine::with_wal(
            build_base(),
            &wal_path,
            ranksim_core::SyncPolicy::PerOp,
        )
        .expect("create alloc-test WAL");
        for i in 0..40u32 {
            let items: Vec<ranksim_rankings::ItemId> = (0..10)
                .map(|j| ranksim_rankings::ItemId(800_000 + i * 16 + j))
                .collect();
            durable.insert_ranking(&items);
        }
        for id in (0..200u32).step_by(7) {
            durable.remove_ranking(ranksim_rankings::RankingId(id));
        }
        durable.flush();
    }
    let (recovered, report) = ranksim_core::SnapshotEngine::recover(
        build_base(),
        &wal_path,
        ranksim_core::SyncPolicy::PerOp,
    )
    .expect("recover alloc-test engine");
    assert_eq!(report.applied, 40 + (0..200u32).step_by(7).count() as u64);
    assert_eq!(
        report.truncated_bytes, 0,
        "clean shutdown leaves no torn tail"
    );
    recovered.flush();
    let mut rscratch = recovered.snapshot().scratch();
    let mut rout = Vec::new();
    let mut rstats = QueryStats::new();
    let run_recovered_grid = |scratch: &mut _, out: &mut Vec<_>, stats: &mut _| {
        let mut total = 0usize;
        for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
            for &raw in &thetas {
                for q in &wl.queries {
                    let snap = recovered.snapshot();
                    snap.query_into(alg, q, raw, scratch, stats, out);
                    total += out.len();
                }
            }
        }
        total
    };
    let rwarm1 = run_recovered_grid(&mut rscratch, &mut rout, &mut rstats);
    let rwarm2 = run_recovered_grid(&mut rscratch, &mut rout, &mut rstats);
    assert_eq!(rwarm1, rwarm2, "deterministic workload expected");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let rmeasured = run_recovered_grid(&mut rscratch, &mut rout, &mut rstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(rmeasured, rwarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state reads on a crash-recovered engine must not touch \
         the allocator ({} allocations during the measured pass)",
        after - before
    );
    drop(recovered);
    let _ = std::fs::remove_file(&wal_path);

    // --- Snapshot-loaded engine (RSSN) --------------------------------
    //
    // A warm cold-start must land in the same steady state as the
    // engine it was saved from: `load_engine` reconstructs every arena
    // by casting over one owned buffer, and the *planner section*
    // carries the saved engine's exploration tables — so the loaded
    // engine serves `Auto` without re-exploring. Only the fresh
    // scratch/result buffers need warm-up passes; the measured pass is
    // zero-allocation, `Auto` included. (`live`'s planner is fully
    // warmed by the grids above, which is exactly what the snapshot
    // must preserve.)
    let rssn_path =
        std::env::temp_dir().join(format!("ranksim-allocfree-{}.rssn", std::process::id()));
    ranksim_core::save_engine(&rssn_path, &live, ranksim_core::SnapshotMeta::default())
        .expect("save alloc-test snapshot");
    let (warm_loaded, _) = ranksim_core::load_engine(&rssn_path, ranksim_core::LoadMode::Verify)
        .expect("load alloc-test snapshot");
    let run_loaded_grid = |scratch: &mut _, out: &mut Vec<_>, stats: &mut _| {
        let mut total = 0usize;
        for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
            for &raw in &thetas {
                for q in &wl.queries {
                    warm_loaded.query_into(alg, q, raw, scratch, stats, out);
                    total += out.len();
                }
            }
        }
        total
    };
    let mut pscratch = warm_loaded.scratch();
    let mut pout = Vec::new();
    let mut pstats = QueryStats::new();
    let pwarm1 = run_loaded_grid(&mut pscratch, &mut pout, &mut pstats);
    let pwarm2 = run_loaded_grid(&mut pscratch, &mut pout, &mut pstats);
    assert_eq!(pwarm1, pwarm2, "deterministic workload expected");
    assert_eq!(
        pwarm1, lwarm1,
        "the loaded engine must return the saved engine's result mass"
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let pmeasured = run_loaded_grid(&mut pscratch, &mut pout, &mut pstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(pmeasured, pwarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state queries on a snapshot-loaded engine must not touch \
         the allocator ({} allocations during the measured pass)",
        after - before
    );
    let _ = std::fs::remove_file(&rssn_path);

    // The same contract for a snapshot-loaded *sharded* engine: the
    // manifest + per-shard files reload into per-shard engines whose
    // steady-state reads (including the id-translating merge) stay
    // zero-allocation.
    let rssn_dir =
        std::env::temp_dir().join(format!("ranksim-allocfree-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rssn_dir);
    ranksim_core::save_sharded(&rssn_dir, &sharded).expect("save alloc-test sharded snapshot");
    let loaded_sharded = ranksim_core::load_sharded(&rssn_dir, ranksim_core::LoadMode::Verify)
        .expect("load alloc-test sharded snapshot");
    let run_loaded_sharded_grid =
        |scratch: &mut ranksim_core::ShardedScratch, out: &mut Vec<_>, stats: &mut _| {
            let mut total = 0usize;
            for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                for &raw in &thetas {
                    for q in &wl.queries {
                        loaded_sharded.query_into(alg, q, raw, scratch, stats, out);
                        total += out.len();
                    }
                }
            }
            total
        };
    let mut qscratch = loaded_sharded.scratch();
    let mut qout = Vec::new();
    let mut qstats = QueryStats::new();
    let qwarm1 = run_loaded_sharded_grid(&mut qscratch, &mut qout, &mut qstats);
    let qwarm2 = run_loaded_sharded_grid(&mut qscratch, &mut qout, &mut qstats);
    assert_eq!(qwarm1, qwarm2, "deterministic workload expected");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let qmeasured = run_loaded_sharded_grid(&mut qscratch, &mut qout, &mut qstats);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(qmeasured, qwarm1);
    assert_eq!(
        after - before,
        0,
        "steady-state queries on a snapshot-loaded sharded engine must \
         not touch the allocator ({} allocations during the measured pass)",
        after - before
    );
    let _ = std::fs::remove_dir_all(&rssn_dir);
}
