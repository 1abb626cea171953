//! Per-layer measurements every traced run makes, whatever the stack:
//! each one times or counts a call into one module's public functions.
//! What only one stack has (shards, snapshots, WAL, wire, workers) is
//! measured in that workload's own file.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim_core::engine::{Algorithm, Engine};
use ranksim_rankings::{footrule_store, raw_threshold, ItemId, RankingId, RankingStore};

use crate::inputs::{
    brute_threshold, fresh_ranking, same_ids, theta_groups, theta_raw_of, Inputs, K,
};
use crate::report::{Report, ALGORITHM_TAGS, EXECUTORS, EXEC_THETAS};
use crate::stack::{
    engine_builder, read_rounds, Counted, Stack, CHECK_EVERY, WARM_MIN, WARM_PASSES,
};
use crate::stats::{median, Samples};
use crate::trace::Tracer;

/// Rankings of the workload's corpus the side engine is built over.
pub const SIDE_ENGINE_N: usize = 50_000;
const EXEC_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::FvDrop,
    Algorithm::BlockedPruneDrop,
    Algorithm::AdaptSearch,
    Algorithm::CoarseDrop,
];
/// Queries of one fixed-algorithm pass.
const EXEC_QUERIES: usize = 500;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `rankings.footrule_ns`: one million seeded pairs of stored rankings.
pub fn footrule(report: &mut Report, store: &RankingStore, seed: u64) {
    const PAIRS: usize = 1_000_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF007);
    let n = store.len() as u32;
    let pairs: Vec<(RankingId, RankingId)> = (0..PAIRS)
        .map(|_| {
            (
                RankingId(rng.random_range(0..n)),
                RankingId(rng.random_range(0..n)),
            )
        })
        .collect();
    let t = Instant::now();
    let mut sum = 0u64;
    for &(a, b) in &pairs {
        sum += footrule_store(store, a, b) as u64;
    }
    let elapsed = t.elapsed();
    std::hint::black_box(sum);
    report.set(
        "rankings.footrule_ns",
        elapsed.as_nanos() as f64 / PAIRS as f64,
    );
}

/// One timed pass of `queries` at one threshold; returns µs per query.
fn timed_pass(
    stack: &mut impl Stack,
    algorithm: Algorithm,
    queries: &[Vec<ItemId>],
    theta_raw: u32,
    lens: &mut Vec<u32>,
) -> f64 {
    let mut out = Vec::new();
    lens.clear();
    let t = Instant::now();
    for q in queries {
        stack.threshold(algorithm, q, theta_raw, &mut out);
        lens.push(out.len() as u32);
    }
    us(t.elapsed()) / queries.len() as f64
}

/// The fixed-algorithm executor metrics, then the planner's: `Auto`
/// against the best of the four at θ = 0.05 and θ = 0.30, its picks
/// and its predicted cost over the θ-cycle.
pub fn executors_and_planner(
    report: &mut Report,
    stack: &mut impl Counted,
    inputs: &Inputs,
    oracle: &RankingStore,
) {
    let queries = &inputs.queries[..EXEC_QUERIES.min(inputs.queries.len())];
    let mut lens = Vec::new();
    for (tag, theta) in EXEC_THETAS {
        let theta_raw = raw_threshold(theta, K);
        let mut reference: Vec<u32> = Vec::new();
        let mut best_us = f64::INFINITY;
        for (exec, algorithm) in EXECUTORS.iter().zip(EXEC_ALGORITHMS) {
            timed_pass(stack, algorithm, queries, theta_raw, &mut lens);
            let before = stack.stats();
            let per_query_us = timed_pass(stack, algorithm, queries, theta_raw, &mut lens);
            let after = stack.stats();
            let n = queries.len() as f64;
            // Results are counted from the returned vectors:
            // `QueryStats::results` over-counts under the coarse
            // executors on sharded engines.
            let results: u64 = lens.iter().map(|&l| l as u64).sum();
            let candidates = (after.candidates - before.candidates) as f64;
            report.set(&format!("{exec}.{tag}.us_per_query"), per_query_us);
            report.set(
                &format!("{exec}.{tag}.postings_per_query"),
                (after.entries_scanned - before.entries_scanned) as f64 / n,
            );
            report.set(
                &format!("{exec}.{tag}.distance_calls_per_query"),
                (after.distance_calls - before.distance_calls) as f64 / n,
            );
            report.set(
                &format!("{exec}.{tag}.candidates_per_result"),
                if results == 0 {
                    0.0
                } else {
                    candidates / results as f64
                },
            );
            best_us = best_us.min(per_query_us);
            if reference.is_empty() {
                reference = lens.clone();
            }
            report.check(lens == reference, || {
                format!(
                    "{exec} at {tag} disagrees with {} on result counts",
                    EXECUTORS[0]
                )
            });
        }
        let mut out = Vec::new();
        for (i, q) in queries.iter().enumerate().step_by(CHECK_EVERY) {
            stack.threshold(Algorithm::FvDrop, q, theta_raw, &mut out);
            let expect = brute_threshold(oracle, q, theta_raw);
            report.check(same_ids(&out, &expect), || {
                format!("fixed-algorithm read {i} at {tag} is wrong")
            });
        }
        for _ in 0..WARM_PASSES {
            timed_pass(stack, Algorithm::Auto, queries, theta_raw, &mut lens);
        }
        let auto_us = timed_pass(stack, Algorithm::Auto, queries, theta_raw, &mut lens);
        report.check(lens == reference, || {
            format!("Auto at {tag} disagrees on result counts")
        });
        report.set(&format!("planner.regret.{tag}"), auto_us / best_us - 1.0);
    }

    // Picks and predicted cost over the workload's own θ-cycle.
    let mut out = Vec::new();
    for pass in 0..=WARM_PASSES {
        let before = stack.plan();
        for (i, q) in inputs.queries.iter().enumerate() {
            stack.threshold(Algorithm::Auto, q, theta_raw_of(i), &mut out);
        }
        if pass == WARM_PASSES {
            let after = stack.plan();
            let planned = (after.planned - before.planned).max(1) as f64;
            for (tag, algorithm) in ALGORITHM_TAGS.iter().zip(Algorithm::ALL) {
                let picks = after.picks_of(algorithm) - before.picks_of(algorithm);
                report.set(&format!("planner.pick_share.{tag}"), picks as f64 / planned);
            }
            let actual = after.actual_ns - before.actual_ns;
            report.set(
                "planner.predicted_over_actual",
                if actual > 0.0 {
                    (after.predicted_ns - before.predicted_ns) / actual
                } else {
                    0.0
                },
            );
        }
    }
}

/// `metricspace.topk_*`: the BK-tree's own counts around top-k queries.
pub fn topk_counts(report: &mut Report, stack: &mut impl Counted, queries: &[Vec<ItemId>]) {
    let queries = &queries[..50.min(queries.len())];
    let before = stack.stats();
    for q in queries {
        std::hint::black_box(stack.topk(q));
    }
    let after = stack.stats();
    let n = queries.len() as f64;
    let nodes = (after.tree_nodes_visited - before.tree_nodes_visited) as f64 / n;
    report.set("metricspace.topk_nodes_per_query", nodes);
    report.set(
        "metricspace.topk_visit_frac",
        nodes / stack.live_len() as f64,
    );
    report.set(
        "metricspace.topk_distance_calls_per_query",
        (after.distance_calls - before.distance_calls) as f64 / n,
    );
}

/// `engine.*` and `planner.plan_ns`, on a side engine built over the
/// first [`SIDE_ENGINE_N`] rankings of the corpus: writes and a
/// compaction would disturb the stack under test.
pub fn side_engine(report: &mut Report, inputs: &Inputs, seed: u64) -> Engine {
    let mut sample = RankingStore::with_capacity(K, SIDE_ENGINE_N.min(inputs.store.len()));
    for id in inputs.store.ids().take(SIDE_ENGINE_N) {
        sample.push_items_unchecked(inputs.store.items(id));
    }
    let t = Instant::now();
    let mut engine = engine_builder(sample.clone()).build();
    report.set("engine.build_s", t.elapsed().as_secs_f64());
    report.set("engine.heap_bytes", engine.heap_bytes() as f64);

    let planner = engine.planner().expect("the default build has a planner");
    let mut scratch = engine.scratch();
    let t = Instant::now();
    for (i, q) in inputs.queries.iter().enumerate() {
        std::hint::black_box(planner.plan(q, theta_raw_of(i), &mut scratch));
    }
    report.set(
        "planner.plan_ns",
        t.elapsed().as_nanos() as f64 / inputs.queries.len() as f64,
    );

    const WRITES: usize = 1000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE);
    let (mut insert_us, mut remove_us) = (Vec::new(), Vec::new());
    let mut inserted = Vec::new();
    for _ in 0..WRITES {
        let items = fresh_ranking(&sample, inputs.domain, &mut rng);
        let t = Instant::now();
        inserted.push(engine.insert_ranking(&items));
        insert_us.push(us(t.elapsed()));
    }
    for (j, &own) in inserted.iter().enumerate() {
        // Half the deletes hit the delta overlay, half tombstone the base.
        let id = if j % 2 == 0 {
            own
        } else {
            RankingId((j * 7) as u32)
        };
        let t = Instant::now();
        let removed = engine.remove_ranking(id);
        remove_us.push(us(t.elapsed()));
        report.check(removed, || {
            format!("side engine: live id {} reported missing", id.0)
        });
    }
    report.set("engine.insert_us", median(&insert_us));
    report.set("engine.remove_us", median(&remove_us));
    report.set("engine.delta_len", engine.delta_len() as f64);
    report.set("engine.tombstones", engine.base_tombstones() as f64);
    let t = Instant::now();
    engine.compact();
    report.set("engine.compact_s", t.elapsed().as_secs_f64());
    engine
}

/// `batch.*`: what the work-stealing driver adds to one query, and
/// what a second worker thread buys.
pub fn batch(report: &mut Report, stack: &mut impl Counted, queries: &[Vec<ItemId>]) {
    let one_by_one = &queries[..300.min(queries.len())];
    let mut out = Vec::new();
    let (mut direct, mut driven) = (Vec::new(), Vec::new());
    for (i, q) in one_by_one.iter().enumerate() {
        let theta = theta_raw_of(i);
        let t = Instant::now();
        stack.threshold(Algorithm::Auto, q, theta, &mut out);
        direct.push(us(t.elapsed()));
        let single = std::slice::from_ref(q);
        let t = Instant::now();
        let (results, _) = stack.batch(single, theta, 2, Some(Duration::from_secs(2)));
        driven.push(us(t.elapsed()));
        report.check(same_ids(&results[0], &out), || {
            format!("batch of one: query {i} differs from the direct call")
        });
    }
    report.set("batch.driver_us", median(&driven) - median(&direct));

    let groups = theta_groups(queries);
    let mut wall = [0.0f64; 2];
    let mut claimed = [0u64; 2];
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        for (theta, _, group) in &groups {
            let t = Instant::now();
            let (_, reports) = stack.batch(group, *theta, threads, None);
            wall[slot] += t.elapsed().as_secs_f64();
            if threads == 2 {
                for (w, r) in reports.iter().enumerate().take(2) {
                    claimed[w] += r.queries;
                }
            }
        }
    }
    report.set("batch.speedup_2t", wall[0] / wall[1]);
    let mean = (claimed[0] + claimed[1]) as f64 / 2.0;
    report.set(
        "batch.worker_imbalance",
        if mean > 0.0 {
            claimed[0].max(claimed[1]) as f64 / mean
        } else {
            0.0
        },
    );
}

/// `bench.timer_ns`: what one `Instant::now()` costs — every latency
/// sample contains one.
pub fn timer(report: &mut Report) {
    const CALLS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(Instant::now());
    }
    report.set(
        "bench.timer_ns",
        t.elapsed().as_nanos() as f64 / CALLS as f64,
    );
}

/// `bench.round_spread` and `bench.trace_overhead_frac`: the same read
/// loop untraced in rounds, then once with a span recorded per read.
pub fn read_loop_self_check(
    report: &mut Report,
    stack: &mut impl Stack,
    queries: &[Vec<ItemId>],
    lens: &[u32],
    budget: Duration,
    tracer: &mut Tracer,
    top_rung: &'static str,
) {
    // The other layer measurements ran in between: warm the path again
    // (by the clock: a pass over the wire takes minutes).
    let mut out = Vec::new();
    let since = Instant::now();
    for (i, q) in queries.iter().enumerate().cycle() {
        if since.elapsed() >= WARM_MIN {
            break;
        }
        stack.threshold(Algorithm::Auto, q, theta_raw_of(i), &mut out);
    }
    let (mut rounds, qps) = read_rounds(stack, queries, lens, budget, 10, report);
    let mut sorted = qps.clone();
    sorted.sort_by(f64::total_cmp);
    report.set("bench.round_spread", sorted[8] / sorted[1]);
    let mut pooled = Samples::default();
    for r in &mut rounds {
        pooled.append(r);
    }
    let count = pooled.len();
    let untraced_us = pooled.percentile_us(50.0).expect("reads were timed").value;

    // Enough reads for a steady median; every one leaves a span behind.
    let count = count.min(10_000);
    let mut out = Vec::new();
    let mut traced = Samples::with_capacity(count);
    for i in 0..count {
        let qi = i % queries.len();
        let t = Instant::now();
        let id = tracer.begin(u32::MAX, 0, top_rung);
        stack.threshold(Algorithm::Auto, &queries[qi], theta_raw_of(qi), &mut out);
        tracer.end(id);
        traced.push(t.elapsed().as_nanos() as u64);
    }
    let traced_us = traced.percentile_us(50.0).expect("reads were timed").value;
    report.set("bench.trace_overhead_frac", traced_us / untraced_us - 1.0);
}
