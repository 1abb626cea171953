//! Differential harness for the position-compare kernel: the chunked,
//! auto-vectorization-friendly `FlatPositionMap::distance_within` walk
//! against the `FlatPositionMap::distance_to` reference loop, on
//! adversarial inputs —
//!
//! * every length alignment around the [`KERNEL_CHUNK`] boundary
//!   (`k ∈ 1..=3·CHUNK+1`, covering exact multiples, ±1 and partial
//!   trailing chunks),
//! * overlaps from identical through partial (with rank displacements)
//!   to fully disjoint, including query items absent from the corpus,
//! * thresholds from 0 through the exact distance ±1 up to past the
//!   `k(k+1)` distance ceiling.
//!
//! The contract under test: the kernel returns the reference loop's
//! exact distance whenever the candidate is within θ (bit-identical
//! result sets), and `None` only when the suffix bound *proved* the
//! candidate outside θ.

use proptest::prelude::*;
use ranksim_rankings::{
    one_side_total, FlatPositionMap, ItemId, ItemRemap, Ranking, RankingStore, KERNEL_CHUNK,
};

/// The largest item domain any case uses (`2k + 2` at the top `k`).
const MAX_DOMAIN: u32 = 2 * (3 * KERNEL_CHUNK as u32 + 1) + 2;

/// A random permutation of the full `0..MAX_DOMAIN` domain; [`take_k`]
/// derives a size-`k` ranking over the per-case domain from it.
fn perm() -> impl Strategy<Value = Vec<u32>> {
    proptest::sample::subsequence((0..MAX_DOMAIN).collect::<Vec<u32>>(), MAX_DOMAIN as usize)
        .prop_shuffle()
}

/// First `k` entries of `perm` that fall inside the tight per-case
/// domain `0..2k + 2` — a uniformly random size-`k` ranking over it. The
/// tight domain forces heavy overlap and rank ties while still
/// admitting near-disjoint pairs.
fn take_k(perm: &[u32], k: usize) -> Vec<u32> {
    perm.iter()
        .copied()
        .filter(|&v| v < 2 * k as u32 + 2)
        .take(k)
        .collect()
}

fn store_of(k: usize, rankings: &[Vec<u32>]) -> RankingStore {
    let mut store = RankingStore::new(k);
    for r in rankings {
        store
            .push(&Ranking::new(r.iter().copied()).unwrap())
            .unwrap();
    }
    store
}

fn items(raw: &[u32]) -> Vec<ItemId> {
    raw.iter().copied().map(ItemId).collect()
}

/// Asserts the full `distance_within` contract for one (query map,
/// candidate, θ) cell against the known exact distance.
fn assert_kernel_contract(
    map: &FlatPositionMap,
    remap: &ItemRemap,
    candidate: &[ItemId],
    theta: u32,
    exact: u32,
) {
    let within = map.distance_within(remap, candidate, theta);
    match within {
        Some(d) => assert_eq!(d, exact, "kernel returned a wrong distance"),
        None => assert!(
            exact > theta,
            "kernel pruned a candidate within θ (exact {exact} ≤ θ {theta})"
        ),
    }
    if exact <= theta {
        assert_eq!(
            within,
            Some(exact),
            "a within-θ candidate must never be pruned"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random lengths, alignments and overlaps: the kernel agrees with
    /// the exact distance, `None` only on proven misses.
    #[test]
    fn simd_kernel_matches_scalar_oracle(
        k in 1usize..=3 * KERNEL_CHUNK + 1,
        query_perm in perm(),
        candidate_perms in proptest::collection::vec(perm(), 1..6),
        theta in 0u32..200,
    ) {
        let query = take_k(&query_perm, k);
        let candidates: Vec<Vec<u32>> =
            candidate_perms.iter().map(|p| take_k(p, k)).collect();
        let store = store_of(k, &candidates);
        let remap = ItemRemap::build(&store);
        let q = items(&query);
        let mut map = FlatPositionMap::new();
        map.build(&remap, &q);
        for id in store.ids() {
            let cand = store.items(id);
            let exact = map.distance_to(&remap, cand);
            assert_kernel_contract(&map, &remap, cand, theta, exact);
        }
    }

}

/// Deterministic sweep of the extremes at every chunk alignment:
/// identical (distance 0) and fully disjoint (distance `k(k+1)`)
/// candidates, thresholds pinned around the exact distance and at both
/// ends of the range — including `u32::MAX`, which must not overflow
/// the kernel's clamped i32 arithmetic.
#[test]
fn chunk_alignment_extremes_honor_the_contract() {
    for k in 1..=3 * KERNEL_CHUNK + 1 {
        let identical: Vec<u32> = (0..k as u32).collect();
        let disjoint: Vec<u32> = (k as u32..2 * k as u32).collect();
        let reversed: Vec<u32> = (0..k as u32).rev().collect();
        let store = store_of(k, &[identical.clone(), disjoint, reversed]);
        let remap = ItemRemap::build(&store);
        let q = items(&identical);
        let mut map = FlatPositionMap::new();
        map.build(&remap, &q);
        let ceiling = 2 * one_side_total(k) as u32; // k(k+1)
        for id in store.ids() {
            let cand = store.items(id);
            let exact = map.distance_to(&remap, cand);
            assert!(exact <= ceiling, "k={k}: distance above the ceiling");
            for theta in [
                0,
                exact.saturating_sub(1),
                exact,
                exact + 1,
                ceiling,
                u32::MAX,
            ] {
                assert_kernel_contract(&map, &remap, cand, theta, exact);
            }
        }
    }
}
