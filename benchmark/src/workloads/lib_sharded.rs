//! `lib_sharded`: a hash-routed four-shard `ShardedEngine` at half paper
//! scale, called as a library. Fan-out, id translation, merge and the
//! work-stealing batch driver carry the load, at `nproc` threads for
//! throughput and from one thread for latency.
//!
//! Not the paper's 1M: the default build costs 57 s and 812 MB there.
//! `setup_s` and `bytes_per_ranking` make that cost a tracked number.

use std::path::Path;
use std::time::{Duration, Instant};

use ranksim_core::engine::Algorithm;
use ranksim_core::shard::{ShardStrategy, ShardedEngine, ShardedEngineBuilder};
use ranksim_core::{load_sharded, save_sharded, LoadMode};
use ranksim_rankings::{ItemId, RankingStore};

use crate::inputs::{generate, same_ids, theta_groups, theta_raw_of, Family, Inputs, K};
use crate::layers;
use crate::report::Report;
use crate::stack::{
    checked_pass, planner_costs, read_rounds, share, spot_check, topk_phase, warm, warm_and_check,
    write_phase, Counted, Sharded, Stack, WARM_MIN, WARM_PASSES,
};
use crate::stats::{median, Samples};
use crate::trace::{ladder, TraceOut, Tracer};
use crate::Run;

const N: usize = 300_000;
const QUERIES: usize = 2000;
/// Top-k queries per pass: one costs about 50 ms at this size.
const TOPK_QUERIES: usize = 30;
pub const SHARDS: usize = 4;
/// Worker threads of the batch driver: the machine's two cores.
const THREADS: usize = 2;
const BATCH_WARM: Duration = Duration::from_millis(400);
const MAX_WRITES: usize = 6000;
/// Engines per run: the built one and pristine copies of it.
const ENGINES: usize = 3;

/// A sharded engine with the configuration every workload uses, and
/// the seconds routing and building took.
pub fn build_sharded(store: &RankingStore, strategy: ShardStrategy) -> (ShardedEngine, f64, f64) {
    let t = Instant::now();
    let mut builder = ShardedEngineBuilder::new(K, SHARDS, strategy)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .topk_trees(true)
        .calibrated_costs(planner_costs());
    builder.extend_from_store(store);
    let route_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = builder.build();
    (engine, route_s, t.elapsed().as_secs_f64())
}

pub fn first_query(stack: &mut impl Stack, inputs: &Inputs) -> bool {
    let mut out = Vec::new();
    stack.threshold(
        Algorithm::Auto,
        &inputs.queries[0],
        theta_raw_of(0),
        &mut out,
    )
}

pub fn run(run: &Run, report: &mut Report) -> Option<TraceOut> {
    let inputs = generate(Family::Nyt, N, QUERIES, TOPK_QUERIES, run.seed);
    report.sizes.push(("n", N as f64));
    report.sizes.push(("queries", QUERIES as f64));
    report.sizes.push(("shards", SHARDS as f64));
    report.sizes.push(("engines", ENGINES as f64));

    // One set-up per run: a single build of this corpus takes as long
    // as every measured phase of the run together.
    let t = Instant::now();
    let (built, route_s, build_s) = build_sharded(&inputs.store, ShardStrategy::Hash);
    first_query(&mut Sharded::new(&built), &inputs);
    report.set("setup_s", t.elapsed().as_secs_f64());
    report.set(
        "bytes_per_ranking",
        built.heap_bytes() as f64 / built.live_len() as f64,
    );
    if run.trace {
        report.set("shard.route_s", route_s);
        report.set("shard.build_s", build_s);
        return Some(traced(run, report, &inputs, &built));
    }

    // The other engines are pristine copies of the built one, reopened
    // from a snapshot taken now, before its planners have learned
    // anything: planners settle differently from engine to engine, and
    // each engine serves its share of every timed phase.
    let pristine = run.tmp.join("pristine");
    save_sharded(&pristine, &built).expect("save the pristine engine");
    let part = |share_of_run: f64| share(run.seconds, share_of_run / ENGINES as f64);
    let groups = theta_groups(&inputs.queries);
    let (mut qps, mut rounds, mut topk, mut writes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut lens = Vec::new();
    let mut last = None;
    let mut next = Some(built);
    for e in 0..ENGINES {
        drop(last.take());
        let mut engine = next.take().unwrap_or_else(|| {
            load_sharded(&pristine, LoadMode::Trust).expect("reopen the pristine engine")
        });
        let mut stack = Sharded::new(&engine);
        if lens.is_empty() {
            lens = checked_pass(&mut stack, &inputs.queries, &inputs.store, report);
        }
        warm(
            &mut stack,
            &inputs.queries,
            &lens,
            WARM_PASSES,
            WARM_MIN,
            report,
        );

        // (a) Throughput: the whole log through the batch driver, one
        // call per θ, as many rounds as fit (two at least).
        // Unmeasured rounds first: a second core that has idled through
        // the one-thread phases takes some hundred milliseconds to run
        // at full speed on this virtual machine.
        let warm_until = Instant::now() + BATCH_WARM;
        while Instant::now() < warm_until {
            for (theta, _, group) in &groups {
                engine.query_batch(Algorithm::Auto, group, *theta, THREADS);
            }
        }
        let mut engine_qps = Vec::new();
        let deadline = Instant::now() + part(0.3);
        while engine_qps.len() < 2 || Instant::now() < deadline {
            let t = Instant::now();
            let mut wrong = 0usize;
            for (theta, idx, group) in &groups {
                let (results, _) = engine.query_batch(Algorithm::Auto, group, *theta, THREADS);
                wrong += idx
                    .iter()
                    .zip(&results)
                    .filter(|(&i, r)| r.len() as u32 != lens[i])
                    .count();
            }
            engine_qps.push(QUERIES as f64 / t.elapsed().as_secs_f64());
            report.attempted(QUERIES as u64);
            for _ in 0..wrong {
                report.fail(|| "a batched read's answer differs from the checked pass".into());
            }
        }
        qps.push(median(&engine_qps));

        // (b) Latency: one caller, one query at a time.
        let (mut r, _) = read_rounds(&mut stack, &inputs.queries, &lens, part(0.3), 2, report);
        rounds.append(&mut r);

        let stretch = e * TOPK_QUERIES / ENGINES..(e + 1) * TOPK_QUERIES / ENGINES;
        topk.push(topk_phase(
            &mut stack,
            &inputs.topk_queries[stretch],
            &inputs.store,
            part(0.2),
            report,
        ));

        let mut mirror = inputs.store.clone();
        let written = write_phase(
            &mut engine,
            &mut mirror,
            inputs.domain,
            run.seed ^ (e as u64) << 32,
            part(0.2),
            MAX_WRITES / ENGINES,
            report,
        );
        let mut written = written;
        writes.push(std::mem::take(&mut written.samples));
        last = Some((engine, mirror, written));
    }
    report.mean_of("read_qps", qps);
    report.percentile_of("read_p50_us", 50.0, &mut rounds);
    report.percentile_of("read_p95_us", 95.0, &mut rounds);
    // One sample set: the engines answered different stretches of the
    // log, so their medians differ by design, not by noise.
    report.percentile_of("topk_p50_us", 50.0, &mut [Samples::pooled(topk)]);
    report.percentile_of("write_p50_us", 50.0, &mut writes);
    report.percentile_of("write_p90_us", 90.0, &mut writes);

    let (engine, mirror, written) = last.expect("at least one engine");
    spot_check(
        &mut Sharded::new(&engine),
        &inputs,
        &mirror,
        20,
        "after writes",
        report,
    );
    let dir = run.tmp.join("shards");
    save_sharded(&dir, &engine).expect("save the sharded engine");
    drop(engine);
    let t = Instant::now();
    let reopened = load_sharded(&dir, LoadMode::Verify).expect("reopen the sharded snapshot");
    first_query(&mut Sharded::new(&reopened), &inputs);
    report.set("recovery_s", t.elapsed().as_secs_f64());
    spot_check(
        &mut Sharded::new(&reopened),
        &inputs,
        &mirror,
        20,
        "after reopen",
        report,
    );
    for id in &written.inserted {
        report.check(reopened.is_live(*id), || {
            format!("reopen lost insert {}", id.0)
        });
    }
    for id in &written.removed {
        report.check(!reopened.is_live(*id), || {
            format!("reopen revived delete {}", id.0)
        });
    }
    None
}

/// One ladder rung shared with `dist_fanout`: the in-process sharded
/// query, with the executor time its shards reported as a count.
pub fn shard_query_rung(
    tracer: &mut Tracer,
    stack: &mut Sharded<'_>,
    op: u32,
    root: u32,
    query: &[ItemId],
    theta_raw: u32,
    out: &mut Vec<ranksim_rankings::RankingId>,
) {
    let (stats, plan) = (stack.stats(), stack.plan());
    let id = tracer.begin(op, root, "shard.query");
    stack.threshold(Algorithm::Auto, query, theta_raw, out);
    tracer.end(id);
    let (stats_after, plan_after) = (stack.stats(), stack.plan());
    tracer.count(id, "exec_ns", plan_after.actual_ns - plan.actual_ns);
    tracer.count(
        id,
        "postings",
        (stats_after.entries_scanned - stats.entries_scanned) as f64,
    );
    tracer.count(
        id,
        "distance_calls",
        (stats_after.distance_calls - stats.distance_calls) as f64,
    );
    tracer.count(id, "results", out.len() as f64);
}

/// `shard.merge_us`: per query, the sharded call's wall time minus the
/// executor time inside its shards — fan-out loop, id translation, sort.
pub fn merge_us(tracer: &Tracer) -> f64 {
    let merge: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "shard.query")
        .map(|s| {
            let exec_ns = s
                .counts
                .iter()
                .find(|(k, _)| *k == "exec_ns")
                .map_or(0.0, |c| c.1);
            (s.duration_ns() as f64 - exec_ns) / 1e3
        })
        .collect();
    median(&merge)
}

pub fn live_skew(engine: &ShardedEngine) -> f64 {
    let sizes = engine.shard_live_sizes();
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    *sizes.iter().max().expect("at least one shard") as f64 / mean
}

/// `persist.*` of a sharded stack: save, then reopen verified and trusted.
pub fn persist_times(
    report: &mut Report,
    engine: &ShardedEngine,
    dir: &Path,
    inputs: &Inputs,
    oracle: &RankingStore,
) {
    let t = Instant::now();
    save_sharded(dir, engine).expect("save the sharded engine");
    report.set("persist.save_s", t.elapsed().as_secs_f64());
    for (name, mode) in [
        ("persist.load_verify_s", LoadMode::Verify),
        ("persist.load_trust_s", LoadMode::Trust),
    ] {
        let t = Instant::now();
        let loaded = load_sharded(dir, mode).expect("reopen the sharded snapshot");
        report.set(name, t.elapsed().as_secs_f64());
        spot_check(&mut Sharded::new(&loaded), inputs, oracle, 10, name, report);
    }
}

const LADDER: [(&str, Option<&str>); 2] =
    [("shard.query", None), ("batch.one", Some("shard.query"))];

fn traced(run: &Run, report: &mut Report, inputs: &Inputs, engine: &ShardedEngine) -> TraceOut {
    let mut tracer = Tracer::new();
    let mut stack = Sharded::new(engine);
    let lens = warm_and_check(&mut stack, &inputs.queries, &inputs.store, report);
    let mut out = Vec::new();
    for i in (0..inputs.queries.len()).step_by(3) {
        let (q, theta, op) = (&inputs.queries[i], theta_raw_of(i), i as u32);
        let root = tracer.begin(op, 0, "op");
        shard_query_rung(&mut tracer, &mut stack, op, root, q, theta, &mut out);
        let single = std::slice::from_ref(q);
        let ((results, _), _) = tracer.span(op, root, "batch.one", || {
            stack.batch(single, theta, THREADS, Some(Duration::from_secs(2)))
        });
        tracer.end(root);
        report.check(same_ids(&results[0], &out), || {
            format!("batch of one: query {i} differs")
        });
    }
    report.set("shard.merge_us", merge_us(&tracer));
    report.set("shard.live_skew", live_skew(engine));

    report.set("datasets.gen_s", inputs.gen_s);
    layers::timer(report);
    layers::footrule(report, &inputs.store, run.seed);
    layers::executors_and_planner(report, &mut stack, inputs, &inputs.store);
    layers::topk_counts(report, &mut stack, &inputs.topk_queries);
    layers::batch(report, &mut stack, &inputs.queries);
    layers::read_loop_self_check(
        report,
        &mut stack,
        &inputs.queries,
        &lens,
        share(run.seconds, 0.2),
        &mut tracer,
        "read.traced",
    );
    layers::side_engine(report, inputs, run.seed);
    persist_times(
        report,
        engine,
        &run.tmp.join("shards"),
        inputs,
        &inputs.store,
    );

    let rungs = ladder(&tracer, &LADDER);
    TraceOut { tracer, rungs }
}
