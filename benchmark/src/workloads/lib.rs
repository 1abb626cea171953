//! `lib_mono` and `lib_uniform`: the monolithic `Engine` called as a
//! library from one thread. Executors, planner and kernels do all the
//! work; shard merge, snapshots, WAL and wire do none.
//!
//! The two differ in the corpus only. `lib_mono` is NYT-like: skewed
//! item popularity, big near-duplicate clusters. `lib_uniform` is
//! Yago-like at the paper's own size: near-uniform popularity, where
//! list dropping and coarse partitions behave differently — so a
//! change tuned on the skewed corpus that hurts uniform data shows.

use std::time::{Duration, Instant};

use ranksim_core::engine::{Algorithm, Engine};
use ranksim_core::{load_engine, save_engine, LoadMode, SnapshotMeta};
use ranksim_rankings::{footrule_pairs, QueryStats};

use crate::inputs::{generate, query_pairs, theta_raw_of, Family, Inputs, K};
use crate::layers;
use crate::report::Report;
use crate::stack::{
    checked_pass, engine_builder, read_rounds, share, spot_check, topk_phase, warm, warm_and_check,
    write_phase, Counted, Mono, Stack,
};
use crate::stats::{median, Samples};
use crate::trace::{ladder, TraceOut, Tracer};
use crate::Run;

pub struct Scale {
    family: Family,
    n: usize,
    queries: usize,
    /// Timed set-ups per run; the median is reported.
    builds: usize,
    /// Engines per run: the built ones, then pristine copies of the
    /// first, reopened from a snapshot taken before its first query.
    /// Each serves its share of every timed phase. A planner settles on
    /// one executor per θ-bucket by what it happened to measure first,
    /// so reads of one engine differ by 10–40% from the next; a run
    /// measures the planner's spread, not one draw from it.
    engines: usize,
    /// Top-k queries each engine answers per pass: its own stretch of
    /// the top-k log.
    topk_per_engine: usize,
}

pub const MONO: Scale = Scale {
    family: Family::Nyt,
    n: 200_000,
    queries: 4000,
    builds: 2,
    engines: 6,
    topk_per_engine: 10,
};
pub const UNIFORM: Scale = Scale {
    family: Family::Yago,
    n: 25_000,
    queries: 4000,
    builds: 3,
    engines: 12,
    topk_per_engine: 10,
};

/// Reopens per run; the median is reported.
const REOPENS: usize = 3;
/// Timed read rounds on each engine.
const ROUNDS_PER_ENGINE: usize = 2;
/// Most writes of one run: they must stay a small share of the corpus.
const MAX_WRITES: usize = 6000;
/// Warm-up of each engine: a planner stops re-exploring a θ-bucket
/// after some 6000 plans, so six passes of the log settle it.
const ENGINE_WARM_PASSES: usize = 6;
const ENGINE_WARM_MIN: Duration = Duration::from_millis(300);

/// Corpus in memory → first query answered.
fn set_up(inputs: &Inputs) -> (Engine, f64) {
    let store = inputs.store.clone();
    let t = Instant::now();
    let engine = engine_builder(store).build();
    first_query(&engine, inputs);
    (engine, t.elapsed().as_secs_f64())
}

fn first_query(engine: &Engine, inputs: &Inputs) {
    let mut out = Vec::new();
    engine.query_into(
        Algorithm::Auto,
        &inputs.queries[0],
        theta_raw_of(0),
        &mut engine.scratch(),
        &mut QueryStats::new(),
        &mut out,
    );
    std::hint::black_box(out);
}

pub fn run(run: &Run, report: &mut Report, scale: &Scale) -> Option<TraceOut> {
    let inputs = generate(
        scale.family,
        scale.n,
        scale.queries,
        scale.topk_per_engine * scale.engines,
        run.seed,
    );
    report.sizes.push(("n", scale.n as f64));
    report.sizes.push(("queries", scale.queries as f64));
    report.sizes.push(("engines", scale.engines as f64));
    if run.trace {
        let (engine, set_up_s) = set_up(&inputs);
        report.set("setup_s", set_up_s);
        return Some(traced(run, report, &inputs, &engine));
    }

    let pristine = run.tmp.join("pristine.rssn");
    let part = |share_of_run: f64| share(run.seconds, share_of_run / scale.engines as f64);
    let (mut setups, mut rounds, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut topk, mut writes) = (Vec::new(), Vec::new());
    let mut lens = Vec::new();
    let mut last = None;
    for e in 0..scale.engines {
        drop(last.take());
        let mut engine = if e < scale.builds {
            let (built, s) = set_up(&inputs);
            setups.push(s);
            if e == 0 {
                report.set(
                    "bytes_per_ranking",
                    built.heap_bytes() as f64 / built.live_len() as f64,
                );
                save_engine(&pristine, &built, SnapshotMeta::default())
                    .expect("save the pristine engine");
            }
            built
        } else {
            load_engine(&pristine, LoadMode::Trust)
                .expect("reopen the pristine engine")
                .0
        };
        let mut stack = Mono::new(&engine);
        if lens.is_empty() {
            lens = checked_pass(&mut stack, &inputs.queries, &inputs.store, report);
        }
        warm(
            &mut stack,
            &inputs.queries,
            &lens,
            ENGINE_WARM_PASSES,
            ENGINE_WARM_MIN,
            report,
        );
        let (mut r, q) = read_rounds(
            &mut stack,
            &inputs.queries,
            &lens,
            part(0.55),
            ROUNDS_PER_ENGINE,
            report,
        );
        rounds.append(&mut r);
        qps.push(median(&q));
        let stretch = e * scale.topk_per_engine..(e + 1) * scale.topk_per_engine;
        topk.push(topk_phase(
            &mut stack,
            &inputs.topk_queries[stretch],
            &inputs.store,
            part(0.25),
            report,
        ));
        // Every engine starts from the same corpus and takes its own writes.
        let mut mirror = inputs.store.clone();
        let written = write_phase(
            &mut engine,
            &mut mirror,
            inputs.domain,
            run.seed ^ (e as u64) << 32,
            part(0.2),
            MAX_WRITES / scale.engines,
            report,
        );
        let mut written = written;
        writes.push(std::mem::take(&mut written.samples));
        last = Some((engine, mirror, written));
    }
    report.median_of("setup_s", setups);
    report.percentile_of("read_p50_us", 50.0, &mut rounds);
    report.percentile_of("read_p95_us", 95.0, &mut rounds);
    // Each engine's rate is the median of its rounds; the engines are
    // averaged, because their planners settled differently.
    report.mean_of("read_qps", qps);
    // One sample set: the engines answered different stretches of the
    // log, so their medians differ by design, not by noise.
    report.percentile_of("topk_p50_us", 50.0, &mut [Samples::pooled(topk)]);
    report.percentile_of("write_p50_us", 50.0, &mut writes);
    report.percentile_of("write_p90_us", 90.0, &mut writes);

    let (engine, mirror, written) = last.expect("at least one engine");
    spot_check(
        &mut Mono::new(&engine),
        &inputs,
        &mirror,
        40,
        "after writes",
        report,
    );

    // Reopen: the written engine goes to disk, the process forgets it,
    // and the clock runs from the file to the first answered query.
    let path = run.tmp.join("engine.rssn");
    save_engine(&path, &engine, SnapshotMeta::default()).expect("save the engine");
    drop(engine);
    let mut reopens = Vec::new();
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let t = Instant::now();
        let (loaded, _) = load_engine(&path, LoadMode::Verify).expect("reopen the saved engine");
        first_query(&loaded, &inputs);
        reopens.push(t.elapsed().as_secs_f64());
        reopened = Some(loaded);
    }
    report.median_of("recovery_s", reopens);
    let reopened = reopened.expect("reopened at least once");
    spot_check(
        &mut Mono::new(&reopened),
        &inputs,
        &mirror,
        40,
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

/// The ladder of a library read, bottom-up.
const LADDER: [(&str, Option<&str>); 3] = [
    ("rankings.footrule", None),
    ("engine.fixed", Some("rankings.footrule")),
    ("engine.auto", Some("engine.fixed")),
];

/// One ladder op: query `i` at the footrule level (the distances its
/// answer needs), through the executor the planner picks for it called
/// by name, and through `Auto`. Shared with the serving workload, whose
/// ladder starts with the same rungs. Returns the root span.
pub fn ladder_op(
    tracer: &mut Tracer,
    stack: &mut Mono<'_>,
    engine: &Engine,
    inputs: &Inputs,
    i: usize,
) -> u32 {
    let (q, theta) = (&inputs.queries[i], theta_raw_of(i));
    let op = i as u32;
    let mut out = Vec::new();
    // Unrecorded: learns the planner's pick and warms the caches, so
    // every rung below sees the same warm state.
    stack.threshold(Algorithm::Auto, q, theta, &mut out);
    let pick = stack.last_pick;

    let root = tracer.begin(op, 0, "op");
    let id = tracer.begin(op, root, "rankings.footrule");
    let qp = query_pairs(q);
    let mut within = 0u32;
    for hit in &out {
        within += u32::from(footrule_pairs(&qp, engine.store().sorted_pairs(*hit), K) <= theta);
    }
    tracer.end(id);
    tracer.count(id, "distance_calls", out.len() as f64);
    std::hint::black_box(within);

    for (name, algorithm) in [("engine.fixed", pick), ("engine.auto", Algorithm::Auto)] {
        let before = stack.stats();
        let id = tracer.begin(op, root, name);
        stack.threshold(algorithm, q, theta, &mut out);
        tracer.end(id);
        let after = stack.stats();
        tracer.count(
            id,
            "postings",
            (after.entries_scanned - before.entries_scanned) as f64,
        );
        tracer.count(
            id,
            "distance_calls",
            (after.distance_calls - before.distance_calls) as f64,
        );
        tracer.count(id, "results", out.len() as f64);
    }
    root
}

fn traced(run: &Run, report: &mut Report, inputs: &Inputs, engine: &Engine) -> TraceOut {
    let mut tracer = Tracer::new();
    let mut stack = Mono::new(engine);
    let lens = warm_and_check(&mut stack, &inputs.queries, &inputs.store, report);
    for i in (0..inputs.queries.len()).step_by(3) {
        let root = ladder_op(&mut tracer, &mut stack, engine, inputs, i);
        tracer.end(root);
    }

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

    let path = run.tmp.join("engine.rssn");
    let t = Instant::now();
    save_engine(&path, engine, SnapshotMeta::default()).expect("save the engine");
    report.set("persist.save_s", t.elapsed().as_secs_f64());
    for (name, mode) in [
        ("persist.load_verify_s", LoadMode::Verify),
        ("persist.load_trust_s", LoadMode::Trust),
    ] {
        let t = Instant::now();
        let (loaded, _) = load_engine(&path, mode).expect("reopen the saved engine");
        report.set(name, t.elapsed().as_secs_f64());
        spot_check(
            &mut Mono::new(&loaded),
            inputs,
            &inputs.store,
            10,
            name,
            report,
        );
    }

    let rungs = ladder(&tracer, &LADDER);
    TraceOut { tracer, rungs }
}
