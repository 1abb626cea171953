//! `dist_fanout`: a medoid-routed four-shard engine saved to disk and
//! served by four worker processes over Unix sockets, queried through
//! the `RemoteShardedEngine` router from one thread. The only workload
//! that crosses the process boundary: engine work per query is
//! microseconds, so encode/socket/decode, pruning and shard skew
//! dominate.
//!
//! Workers are read-only. A write to this deployment can only land on
//! the in-process master copy the fleet was saved from, so that is what
//! `write_*` times here (medoid-routed inserts, which no other workload
//! has); `recovery_s` is the time to heal every worker, killed one by
//! one.

use std::path::Path;
use std::time::Instant;

use ranksim_core::shard::{ShardStrategy, ShardedEngine};
use ranksim_core::{
    load_sharded, save_sharded, Algorithm, LoadMode, RemoteOptions, RemoteShardedEngine, WorkerSpec,
};

use ranksim_rankings::RankingStore;

use crate::inputs::{brute_topk, generate, theta_raw_of, Family, Inputs, NEIGHBOURS};
use crate::layers;
use crate::report::Report;
use crate::stack::{
    checked_pass, read_rounds, share, spot_check, topk_phase, warm, warm_and_check, write_phase,
    Fleet, Sharded, Stack, WARM_MIN, WARM_PASSES,
};
use crate::stats::{median, Samples};
use crate::trace::{ladder, TraceOut, Tracer};
use crate::workloads::lib_sharded::{
    build_sharded, first_query, live_skew, merge_us, shard_query_rung,
};
use crate::Run;

const N: usize = 100_000;
const QUERIES: usize = 2000;
const TOPK_QUERIES: usize = 60;
const REPEATS: usize = 3;
const MAX_WRITES: usize = 4000;

/// Seconds each stage of one set-up took.
struct SetUp {
    route_s: f64,
    build_s: f64,
    save_s: f64,
    launch_s: f64,
    total_s: f64,
}

/// Corpus in memory → sharded build → snapshot directory → worker
/// fleet → first query answered through the router.
fn set_up(inputs: &Inputs, dir: &Path) -> (RemoteShardedEngine, SetUp) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let (engine, route_s, build_s) = build_sharded(&inputs.store, ShardStrategy::Medoid);
    let t = Instant::now();
    save_sharded(dir, &engine).expect("save the sharded snapshot");
    let save_s = t.elapsed().as_secs_f64();
    drop(engine);
    // The benchmark binary is its own shard worker.
    let worker = WorkerSpec::new(std::env::current_exe().expect("own path")).arg("shard-worker");
    let t = Instant::now();
    let mut fleet = RemoteShardedEngine::launch(dir, worker, RemoteOptions::default())
        .expect("launch the shard workers");
    let launch_s = t.elapsed().as_secs_f64();
    assert!(
        first_query(&mut Fleet(&mut fleet), inputs),
        "the fleet's first query failed"
    );
    let timing = SetUp {
        route_s,
        build_s,
        save_s,
        launch_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    (fleet, timing)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list the snapshot directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Kills the worker of `shard` and times the next top-k query, which
/// broadcasts and so must notice the death, respawn the worker from its
/// snapshot and reissue. Returns seconds.
fn kill_and_heal(
    fleet: &mut RemoteShardedEngine,
    shard: usize,
    inputs: &Inputs,
    report: &mut Report,
) -> f64 {
    let q = &inputs.topk_queries[shard % inputs.topk_queries.len()];
    let killed = fleet.kill_worker(shard);
    let t = Instant::now();
    let got = fleet.query_topk(q, NEIGHBOURS).ok();
    let healed_s = t.elapsed().as_secs_f64();
    let expect = brute_topk(&inputs.store, q, NEIGHBOURS);
    report.check(killed && got.as_ref() == Some(&expect), || {
        format!("shard {shard}: the query after the kill was not answered correctly")
    });
    healed_s
}

pub fn run(run: &Run, report: &mut Report) -> Option<TraceOut> {
    let inputs = generate(Family::Nyt, N, QUERIES, TOPK_QUERIES, run.seed);
    report.sizes.push(("n", N as f64));
    report.sizes.push(("queries", QUERIES as f64));

    let dir = run.tmp.join("shards");
    if run.trace {
        let (mut fleet, timing) = set_up(&inputs, &dir);
        report.set("setup_s", timing.total_s);
        return Some(traced(run, report, &inputs, &mut fleet, &timing, &dir));
    }

    // Every set-up's fleet serves its share of the timed reads and its
    // own stretch of the top-k log: the workers' planners settle
    // differently from launch to launch.
    let part = |share_of_run: f64| share(run.seconds, share_of_run / REPEATS as f64);
    let (mut setups, mut rounds, mut qps, mut topk) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut lens = Vec::new();
    let mut fleet = None;
    let mut writes = Vec::new();
    let mut master: Option<(ShardedEngine, RankingStore)> = None;
    for f in 0..REPEATS {
        drop(fleet.take());
        let (mut launched, timing) = set_up(&inputs, &dir);
        setups.push(timing.total_s);
        // The master copy: the same directory, opened as a library.
        let (local, mirror) = master.get_or_insert_with(|| {
            let local = load_sharded(&dir, LoadMode::Verify).expect("open the snapshot in-process");
            (local, inputs.store.clone())
        });
        let mut stack = Fleet(&mut launched);
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
        let (mut r, q) = read_rounds(&mut stack, &inputs.queries, &lens, part(0.6), 2, report);
        rounds.append(&mut r);
        qps.push(median(&q));
        let stretch = f * TOPK_QUERIES / REPEATS..(f + 1) * TOPK_QUERIES / REPEATS;
        topk.push(topk_phase(
            &mut stack,
            &inputs.topk_queries[stretch],
            &inputs.store,
            part(0.2),
            report,
        ));
        // Writes land on the master copy, a burst beside each fleet, so
        // that they are spread over the run like everything else.
        let written = write_phase(
            local,
            mirror,
            inputs.domain,
            run.seed ^ (f as u64) << 32,
            part(0.2),
            MAX_WRITES / REPEATS,
            report,
        );
        writes.push(written.samples);
        fleet = Some(launched);
    }
    let mut fleet = fleet.expect("set up at least once");
    report.median_of("setup_s", setups);
    report.set("bytes_per_ranking", dir_bytes(&dir) as f64 / N as f64);
    report.sizes.push(("workers", fleet.num_workers() as f64));
    report.percentile_of("read_p50_us", 50.0, &mut rounds);
    report.percentile_of("read_p95_us", 95.0, &mut rounds);
    report.mean_of("read_qps", qps);
    // One sample set: the engines answered different stretches of the
    // log, so their medians differ by design, not by noise.
    report.percentile_of("topk_p50_us", 50.0, &mut [Samples::pooled(topk)]);
    report.percentile_of("write_p50_us", 50.0, &mut writes);
    report.percentile_of("write_p90_us", 90.0, &mut writes);
    let (local, mirror) = master.expect("set up at least once");
    spot_check(
        &mut Sharded::new(&local),
        &inputs,
        &mirror,
        20,
        "after writes",
        report,
    );
    drop(local);

    // The in-process rung: every read of the log must come back from
    // the fleet as from the library, bit for bit.
    let local = load_sharded(&dir, LoadMode::Verify).expect("open the snapshot in-process");
    {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut in_process = Sharded::new(&local);
        for (i, q) in inputs.queries.iter().enumerate() {
            let theta = theta_raw_of(i);
            let answered = Fleet(&mut fleet).threshold(Algorithm::Auto, q, theta, &mut a);
            in_process.threshold(Algorithm::Auto, q, theta, &mut b);
            report.check(answered && a == b, || {
                format!("read {i}: the fleet and the in-process engine disagree")
            });
        }
    }

    let shards: Vec<usize> = fleet.worker_hellos().map(|h| h.shard as usize).collect();
    let mut heal_s = 0.0;
    for &shard in &shards {
        heal_s += kill_and_heal(&mut fleet, shard, &inputs, report);
    }
    report.set("recovery_s", heal_s);
    let stats = fleet.take_stats();
    report.check(stats.respawns >= shards.len() as u64, || {
        format!(
            "{} workers killed, {} respawned",
            shards.len(),
            stats.respawns
        )
    });
    drop(fleet);
    None
}

const LADDER: [(&str, Option<&str>); 2] =
    [("shard.query", None), ("remote.query", Some("shard.query"))];

fn traced(
    run: &Run,
    report: &mut Report,
    inputs: &Inputs,
    fleet: &mut RemoteShardedEngine,
    setup: &SetUp,
    dir: &Path,
) -> TraceOut {
    report.sizes.push(("workers", fleet.num_workers() as f64));
    report.set("shard.route_s", setup.route_s);
    report.set("shard.build_s", setup.build_s);
    report.set("persist.save_s", setup.save_s);
    report.set("remote.launch_s", setup.launch_s);
    let t = Instant::now();
    let local = load_sharded(dir, LoadMode::Verify).expect("open the snapshot in-process");
    report.set("persist.load_verify_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    drop(load_sharded(dir, LoadMode::Trust).expect("open the snapshot trusted"));
    report.set("persist.load_trust_s", t.elapsed().as_secs_f64());

    let mut tracer = Tracer::new();
    let mut in_process = Sharded::new(&local);
    let lens = warm_and_check(&mut Fleet(fleet), &inputs.queries, &inputs.store, report);
    warm_and_check(&mut in_process, &inputs.queries, &inputs.store, report);
    // Fan-out is counted over the ladder's reads alone.
    fleet.take_stats();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in (0..inputs.queries.len()).step_by(3) {
        let (q, theta, op) = (&inputs.queries[i], theta_raw_of(i), i as u32);
        let root = tracer.begin(op, 0, "op");
        shard_query_rung(&mut tracer, &mut in_process, op, root, q, theta, &mut a);
        let (answered, _) = tracer.span(op, root, "remote.query", || {
            Fleet(fleet).threshold(Algorithm::Auto, q, theta, &mut b)
        });
        tracer.end(root);
        report.check(answered && a == b, || {
            format!("read {i}: the fleet and the in-process engine disagree")
        });
    }
    let fanout = fleet.take_stats();
    let (local_ns, remote_ns) = (
        tracer.median_ns("shard.query").expect("ladder ran"),
        tracer.median_ns("remote.query").expect("ladder ran"),
    );
    report.set("remote.tax_us", (remote_ns - local_ns) / 1e3);
    report.set("remote.relative_throughput", local_ns / remote_ns);
    report.set("remote.fanout_sent", fanout.fanout_sent as f64);
    report.set("remote.fanout_pruned", fanout.fanout_pruned as f64);
    report.set(
        "remote.prune_frac",
        fanout.fanout_pruned as f64 / (fanout.fanout_sent + fanout.fanout_pruned).max(1) as f64,
    );
    report.set("shard.merge_us", merge_us(&tracer));
    report.set("shard.live_skew", live_skew(&local));

    report.set("datasets.gen_s", inputs.gen_s);
    layers::timer(report);
    layers::footrule(report, &inputs.store, run.seed);
    layers::executors_and_planner(report, &mut in_process, inputs, &inputs.store);
    layers::topk_counts(report, &mut in_process, &inputs.topk_queries);
    layers::batch(report, &mut in_process, &inputs.queries);
    layers::read_loop_self_check(
        report,
        &mut Fleet(fleet),
        &inputs.queries,
        &lens,
        share(run.seconds, 0.2),
        &mut tracer,
        "read.traced",
    );
    layers::side_engine(report, inputs, run.seed);

    fleet.take_stats();
    let shard = fleet.worker_hellos().next().expect("a worker").shard as usize;
    let heal_s = kill_and_heal(fleet, shard, inputs, report);
    report.set("remote.heal_ms", heal_s * 1e3);
    let healed = fleet.take_stats();
    report.set("remote.hedges", (fanout.hedges + healed.hedges) as f64);
    report.set(
        "remote.respawns",
        (fanout.respawns + healed.respawns) as f64,
    );

    let rungs = ladder(&tracer, &LADDER);
    TraceOut { tracer, rungs }
}
