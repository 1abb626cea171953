//! Blocked access with pruning (paper Section 6.3): list-at-a-time
//! processing over the [`BlockedInvertedIndex`] with NRA-style bounds.
//!
//! For each (retained) query item `i` at query rank `q(i)`, only the blocks
//! `B_{i@j}` with `|j − q(i)| ≤ θ` are read — any ranking confined to a
//! skipped block has a single-item displacement `> θ` and cannot be a
//! result. Seen candidates accumulate [`CandidateBounds`]; after every
//! list, candidates with `L > θ` are evicted and candidates with `U ≤ θ`
//! are reported early (both directions sound, see [`crate::bounds`]).
//!
//! * `Blocked+Prune` processes all k lists: the final upper bound equals
//!   the exact distance for every surviving true result, so the algorithm
//!   finishes with **zero** distance-function calls.
//! * `Blocked+Prune+Drop` additionally drops lists per Lemma 2; membership
//!   in dropped lists is never learned, so undecided candidates fall back
//!   to one exact distance evaluation each — the DFCs Figure 10 reports.
//!
//! Candidate state lives in the reusable [`QueryScratch`]: the bound
//! accumulators in an epoch-versioned cell map (`(exact, tau_side,
//! q_side)` per candidate), decided candidates in an epoch-versioned
//! marker set — zero heap allocations in steady state.

use crate::blocked::BlockedInvertedIndex;
use crate::bounds::CandidateBounds;
use crate::drop::keep_positions_into;
use ranksim_rankings::{one_side_total, ItemId, QueryScratch, QueryStats, RankingId, RankingStore};

/// Blocked+Prune: all lists, block skipping, bound-based decisions.
pub fn blocked_prune(
    index: &BlockedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<RankingId> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    blocked_prune_into(
        index,
        store,
        query,
        theta_raw,
        &mut scratch,
        stats,
        &mut out,
    );
    out
}

/// Blocked+Prune+Drop: Lemma 2 list dropping on top of blocked pruning.
pub fn blocked_prune_drop(
    index: &BlockedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    stats: &mut QueryStats,
) -> Vec<RankingId> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    blocked_prune_drop_into(
        index,
        store,
        query,
        theta_raw,
        &mut scratch,
        stats,
        &mut out,
    );
    out
}

/// Scratch-reusing Blocked+Prune; appends results to `out`.
pub fn blocked_prune_into(
    index: &BlockedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    blocked_core(index, store, query, theta_raw, false, scratch, stats, out)
}

/// Scratch-reusing Blocked+Prune+Drop; appends results to `out`.
pub fn blocked_prune_drop_into(
    index: &BlockedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    blocked_core(index, store, query, theta_raw, true, scratch, stats, out)
}

#[inline]
fn cell_bounds(c: [u32; 3]) -> CandidateBounds {
    CandidateBounds {
        exact_seen: c[0],
        tau_side_seen: c[1],
        q_side_seen: c[2],
    }
}

#[allow(clippy::too_many_arguments)]
fn blocked_core(
    index: &BlockedInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    drop_lists: bool,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    debug_assert_eq!(index.k(), query.len());
    let k = query.len();
    let ku = k as u32;
    let t_k = one_side_total(k);
    let remap = index.remap();
    let mut positions = std::mem::take(&mut scratch.positions);
    if drop_lists {
        let mut by_len = std::mem::take(&mut scratch.positions_tmp);
        keep_positions_into(
            query,
            theta_raw,
            |p| index.list_len(query[p]),
            &mut positions,
            &mut by_len,
        );
        scratch.positions_tmp = by_len;
    } else {
        positions.clear();
        positions.extend(0..k);
    }

    let QueryScratch {
        qmap,
        marks: decided,
        cells: cands,
        ..
    } = scratch;
    cands.begin(store.len());
    decided.begin(store.len());
    let out_start = out.len();
    let mut processed_q = 0u32;

    for &p in &positions {
        // Once even a perfectly-matching new candidate would start with
        // L > θ and no open candidates remain, later lists are irrelevant.
        if processed_q > theta_raw && cands.is_empty() {
            break;
        }
        let item = query[p];
        let q_rank = p as u32;
        let lo = q_rank.saturating_sub(theta_raw);
        let hi = (ku - 1).min(q_rank.saturating_add(theta_raw));
        let mut scanned = 0usize;
        for j in lo..=hi {
            let block = index.block(item, j);
            scanned += block.len();
            let delta = j.abs_diff(q_rank);
            for &id in block {
                if decided.contains(id.0) {
                    continue;
                }
                match cands.get_mut(id.0) {
                    Some(c) => {
                        c[0] += j.abs_diff(q_rank);
                        c[1] += ku - j;
                        c[2] += ku - q_rank;
                    }
                    None => {
                        // Dead on arrival: the candidate's lower bound
                        // after this list would already exceed θ.
                        if processed_q + delta > theta_raw {
                            continue;
                        }
                        stats.candidates += 1;
                        cands.insert(id.0, [j.abs_diff(q_rank), ku - j, ku - q_rank]);
                    }
                }
            }
        }
        stats.count_list(scanned);
        processed_q += ku - q_rank;
        // Sweep: evict hopeless candidates, report certain ones early.
        cands.retain(|id, c| {
            let b = cell_bounds(*c);
            if b.lower(processed_q) > theta_raw {
                decided.mark(id);
                false
            } else if b.upper(t_k) <= theta_raw {
                decided.mark(id);
                out.push(RankingId(id));
                false
            } else {
                true
            }
        });
    }

    // Finalize survivors. Without dropping, U has converged to the exact
    // distance for every candidate that could still be a result; with
    // dropping, undecided candidates need one exact evaluation.
    let fallback = drop_lists && !cands.is_empty();
    if fallback {
        qmap.build(remap, query);
    }
    for &id in cands.keys() {
        let b = cell_bounds(cands.get(id).expect("live candidate"));
        if b.upper(t_k) <= theta_raw {
            out.push(RankingId(id));
        } else if fallback && b.lower(processed_q) <= theta_raw {
            stats.count_distance();
            match qmap.distance_within(remap, store.items(RankingId(id)), theta_raw) {
                Some(d) if d <= theta_raw => out.push(RankingId(id)),
                Some(_) => {}
                None => stats.validations_pruned += 1,
            }
        }
    }
    stats.results += (out.len() - out_start) as u64;
    scratch.positions = positions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equals_scan, perturbed_query, random_store};
    use ranksim_rankings::raw_threshold;

    #[test]
    fn blocked_prune_equals_scan() {
        let store = random_store(300, 7, 60, 500);
        let index = BlockedInvertedIndex::build(&store);
        for seed in 0..12u64 {
            let q = perturbed_query(&store, RankingId((seed * 13 % 300) as u32), 60, seed);
            for theta in [0.0, 0.1, 0.2, 0.3, 0.5] {
                let raw = raw_threshold(theta, 7);
                let mut stats = QueryStats::new();
                let got = blocked_prune(&index, &store, &q, raw, &mut stats);
                assert_equals_scan(&store, &q, raw, got);
            }
        }
    }

    #[test]
    fn blocked_prune_drop_equals_scan() {
        let store = random_store(300, 7, 60, 600);
        let index = BlockedInvertedIndex::build(&store);
        for seed in 0..12u64 {
            let q = perturbed_query(&store, RankingId((seed * 29 % 300) as u32), 60, seed);
            for theta in [0.0, 0.1, 0.2, 0.3, 0.5] {
                let raw = raw_threshold(theta, 7);
                let mut stats = QueryStats::new();
                let got = blocked_prune_drop(&index, &store, &q, raw, &mut stats);
                assert_equals_scan(&store, &q, raw, got);
            }
        }
    }

    #[test]
    fn shared_scratch_blocked_equals_fresh_scratch() {
        let store = random_store(280, 7, 55, 601);
        let index = BlockedInvertedIndex::build(&store);
        let mut shared = QueryScratch::new();
        for seed in 0..16u64 {
            let q = perturbed_query(&store, RankingId((seed * 37 % 280) as u32), 55, seed);
            let raw = raw_threshold(0.1 * (seed % 4) as f64, 7);
            let drop = seed % 2 == 0;
            let mut s1 = QueryStats::new();
            let mut s2 = QueryStats::new();
            let mut got = Vec::new();
            if drop {
                blocked_prune_drop_into(&index, &store, &q, raw, &mut shared, &mut s1, &mut got);
            } else {
                blocked_prune_into(&index, &store, &q, raw, &mut shared, &mut s1, &mut got);
            }
            let mut expect = if drop {
                blocked_prune_drop(&index, &store, &q, raw, &mut s2)
            } else {
                blocked_prune(&index, &store, &q, raw, &mut s2)
            };
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "seed {seed} drop {drop}");
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn blocked_prune_needs_no_distance_calls() {
        let store = random_store(400, 8, 70, 700);
        let index = BlockedInvertedIndex::build(&store);
        for seed in 0..8u64 {
            let q = perturbed_query(&store, RankingId((seed * 41 % 400) as u32), 70, seed);
            let mut stats = QueryStats::new();
            let _ = blocked_prune(&index, &store, &q, 20, &mut stats);
            assert_eq!(stats.distance_calls, 0);
        }
    }

    #[test]
    fn block_skipping_reads_fewer_entries_at_small_theta() {
        let store = random_store(500, 10, 90, 800);
        let index = BlockedInvertedIndex::build(&store);
        let q = perturbed_query(&store, RankingId(77), 90, 3);
        let mut s_small = QueryStats::new();
        let mut s_large = QueryStats::new();
        let _ = blocked_prune(&index, &store, &q, 4, &mut s_small);
        let _ = blocked_prune(&index, &store, &q, 110, &mut s_large);
        assert!(
            s_small.entries_scanned < s_large.entries_scanned,
            "θ=4 must touch fewer postings than θ=dmax ({} vs {})",
            s_small.entries_scanned,
            s_large.entries_scanned
        );
    }

    #[test]
    fn exact_match_search_terminates_early() {
        // θ = 0: only the exact block per list is read.
        let store = random_store(300, 6, 50, 900);
        let index = BlockedInvertedIndex::build(&store);
        let q: Vec<ItemId> = store.items(RankingId(42)).to_vec();
        let mut stats = QueryStats::new();
        let got = blocked_prune(&index, &store, &q, 0, &mut stats);
        assert!(got.contains(&RankingId(42)));
        for &id in &got {
            assert_eq!(store.items(id), q.as_slice());
        }
    }
}
