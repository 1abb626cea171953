//! Cross-crate integration: every algorithm of the paper's evaluation —
//! plus the metric trees and the Minimal F&V oracle — must return exactly
//! the brute-force result set on both dataset families, across ranking
//! sizes and thresholds.

use ranksim::datasets::{nyt_like, workload, yago_like, Dataset, WorkloadParams};
use ranksim::invindex::MinimalFv;
use ranksim::metricspace::{linear_scan, query_pairs, BkTree, MTree, VpTree};
use ranksim::prelude::*;

fn check_dataset(ds: Dataset, k: usize) {
    let domain = ds.params.domain;
    let engine = EngineBuilder::new(ds.store)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .build();
    let store = engine.store();
    let bk = BkTree::build(store);
    let mtree = MTree::build(store);
    let vp = VpTree::build(store, 3);

    let wl = workload(
        store,
        domain,
        WorkloadParams {
            num_queries: 8,
            seed: 2024,
            ..Default::default()
        },
    );
    let thetas = [0.0, 0.1, 0.2, 0.3];
    // Minimal F&V materializes (query, θ) pairs.
    let oracle_workload: Vec<(Vec<ItemId>, u32)> = wl
        .queries
        .iter()
        .flat_map(|q| thetas.iter().map(|&t| (q.clone(), raw_threshold(t, k))))
        .collect();
    let oracle = MinimalFv::build(store, &oracle_workload);

    let mut scratch = engine.scratch();
    for (qi, q) in wl.queries.iter().enumerate() {
        let qp = query_pairs(q);
        for (ti, &theta) in thetas.iter().enumerate() {
            let raw = raw_threshold(theta, k);
            let mut stats = QueryStats::new();
            let mut expect = linear_scan(store, &qp, raw, &mut stats);
            expect.sort_unstable();

            for alg in Algorithm::ALL {
                let mut stats = QueryStats::new();
                let mut got = engine.query_items(alg, q, raw, &mut scratch, &mut stats);
                assert_eq!(
                    stats.results,
                    got.len() as u64,
                    "{alg} counted results at θ={theta} (query {qi})"
                );
                got.sort_unstable();
                assert_eq!(got, expect, "{alg} at θ={theta} (query {qi})");
            }
            for (name, got) in [
                ("BK-tree", bk.range_query(store, &qp, raw, &mut stats)),
                ("M-tree", mtree.range_query(store, &qp, raw, &mut stats)),
                ("VP-tree", vp.range_query(store, &qp, raw, &mut stats)),
                (
                    "Minimal F&V",
                    oracle.query(store, qi * thetas.len() + ti, q, raw, &mut stats),
                ),
            ] {
                let mut got = got;
                got.sort_unstable();
                assert_eq!(got, expect, "{name} at θ={theta} (query {qi})");
            }
        }
    }
}

#[test]
fn nyt_like_k10_all_agree() {
    check_dataset(nyt_like(1200, 10, 77), 10);
}

#[test]
fn nyt_like_k20_all_agree() {
    check_dataset(nyt_like(800, 20, 78), 20);
}

#[test]
fn yago_like_k10_all_agree() {
    check_dataset(yago_like(1200, 10, 79), 10);
}

#[test]
fn small_k_edge_case_all_agree() {
    check_dataset(nyt_like(600, 5, 80), 5);
}
