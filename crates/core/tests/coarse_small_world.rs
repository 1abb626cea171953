//! Exhaustive small world for the coarse index: the corpus is every
//! ordered top-k list over `u` items, the queries are every top-k list
//! over `u + 1` items (so some share no item with any medoid), and every
//! partitioning radius θ_C in `0..=max_distance(k)` meets every query
//! threshold θ below `max_distance(k)`, with and without list dropping.
//!
//! Random sampling at θ ≤ 0.45 reaches a defect that lives at one
//! (θ, θ_C) sum only by luck. This world pairs every θ with every θ_C,
//! so it covers the boundary `θ + θ_C = max_distance(k)` at which the
//! filter must switch from the medoid inverted index (blind to medoids
//! sharing no item with the query) to the medoid scan.

use ranksim_core::CoarseIndex;
use ranksim_metricspace::{linear_scan, query_pairs};
use ranksim_rankings::{ItemId, QueryStats, RankingStore};

/// Every ordered list of `k` distinct items drawn from `0..u`.
fn all_lists(u: u32, k: usize) -> Vec<Vec<ItemId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn extend(u: u32, k: usize, cur: &mut Vec<ItemId>, out: &mut Vec<Vec<ItemId>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in (0..u).map(ItemId) {
            if !cur.contains(&i) {
                cur.push(i);
                extend(u, k, cur, out);
                cur.pop();
            }
        }
    }
    extend(u, k, &mut cur, &mut out);
    out
}

/// Runs the world and returns the number of checks made.
fn check_world(k: usize, u: u32) -> usize {
    let mut store = RankingStore::new(k);
    for list in all_lists(u, k) {
        store.push_items_unchecked(&list);
    }
    let queries = all_lists(u + 1, k);
    let d_max = store.max_distance();
    let mut checks = 0;
    for theta_c in 0..=d_max {
        let index = CoarseIndex::build(&store, theta_c);
        for q in &queries {
            let qp = query_pairs(q);
            for theta in 0..d_max {
                let mut expect = linear_scan(&store, &qp, theta, &mut QueryStats::new());
                expect.sort_unstable();
                for drop_lists in [false, true] {
                    let mut got = index.query(&store, q, theta, drop_lists, &mut QueryStats::new());
                    got.sort_unstable();
                    assert_eq!(
                        got, expect,
                        "k={k} θ_C={theta_c} θ={theta} drop={drop_lists} q={q:?}"
                    );
                    checks += 1;
                }
            }
        }
    }
    checks
}

#[test]
fn top2_lists_over_five_items() {
    // 20 lists, 30 queries, θ_C 0..=6, θ 0..6, both drop settings.
    assert_eq!(check_world(2, 5), 7 * 30 * 6 * 2);
}

#[test]
fn top3_lists_over_six_items() {
    // 120 lists, 210 queries, θ_C 0..=12, θ 0..12, both drop settings.
    assert_eq!(check_world(3, 6), 13 * 210 * 12 * 2);
}
