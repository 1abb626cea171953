//! Mutation-path allocation guard: the allocation points of
//! `Engine::insert_ranking` / `Engine::remove_ranking` are pinned to
//! **arena growth only**. An engine whose mutation-side arenas were
//! pre-reserved (`Engine::reserve_mutations`) performs a whole
//! insert/remove sequence with zero heap allocations — removal is pure
//! state flipping, insertion appends into reserved store rows and the
//! reserved delta overlay. The same sequence without the reservation
//! must grow the arenas (the only allocations the mutation path is
//! allowed).
//!
//! The engine under test carries no planner: it absorbs mutations into
//! its own statistic tables with their own growth points, which the
//! steady-state guard in `alloc_free.rs` covers on the query side.
//!
//! This file intentionally holds a single test: the counting allocator
//! is global to the test binary, so a concurrently running test would
//! tamper with the measurement (`alloc_free.rs` owns its own binary for
//! the same reason).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ranksim_core::engine::{Algorithm, EngineBuilder};
use ranksim_datasets::nyt_like;
use ranksim_rankings::ItemId;

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
fn insert_and_remove_allocate_only_for_arena_growth() {
    let ds = nyt_like(600, 10, 13);
    let build = |store: ranksim_rankings::RankingStore| {
        EngineBuilder::new(store)
            .algorithms(&[Algorithm::Fv])
            .compaction_threshold(f64::INFINITY)
            .build()
    };
    let fresh_items =
        |i: u32| -> Vec<ItemId> { (0..10).map(|j| ItemId(700_000 + i * 16 + j)).collect() };
    const N: u32 = 64;

    // Un-reserved baseline: arena growth is allowed (and must happen —
    // the store rows, delta overlay and id table all outgrow their
    // build-time capacity).
    let mut engine = build(ds.store.clone());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..N {
        let id = engine.insert_ranking(&fresh_items(i));
        if i % 2 == 0 {
            engine.remove_ranking(id);
        }
    }
    let grew = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(grew > 0, "unreserved inserts must grow the arenas");

    // Reserved: the identical mutation sequence touches the allocator
    // zero times — every allocation point of insert/remove is arena
    // growth, and the arenas were grown up front.
    let mut engine = build(ds.store);
    let items: Vec<Vec<ItemId>> = (0..N).map(fresh_items).collect();
    engine.reserve_mutations(N as usize);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for (i, it) in items.iter().enumerate() {
        let id = engine.insert_ranking(it);
        if i % 2 == 0 {
            engine.remove_ranking(id);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "reserved insert/remove must not touch the allocator \
         ({} allocations over {N} mutations)",
        after - before
    );
    assert_eq!(engine.delta_len(), N as usize / 2);

    // Tombstoned removal of *base* rankings is pure state flipping —
    // allocation-free even without any reservation.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for id in 0..32u32 {
        assert!(engine.remove_ranking(ranksim_rankings::RankingId(id)));
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "base removals must never allocate");
}
