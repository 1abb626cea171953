//! `serve_tcp`: the only path a real client sees. A durable
//! `SnapshotEngine` (WAL, group commit) behind `ServeCore` and
//! `serve_socket` on localhost; two closed-loop client connections send
//! a 90/6/4 mix of reads, inserts and deletes while a compaction is
//! forced a third of the way in; then a crash-style reopen from the
//! set-up's checkpoint plus the WAL.
//!
//! Wire → admission → dispatch → snapshot → batch → engine, with the
//! delta overlay, tombstones, WAL, publisher and compaction all live.
//! Engine work is under 1% of a read's latency here, so an engine
//! optimisation must show no change and a front-end one a large one.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ranksim_bench::serve::{serve_socket, ReadReply, ServeCore, ServeRunConfig};
use ranksim_core::engine::Algorithm;
use ranksim_core::{
    load_engine, save_engine, LoadMode, LogOp, SnapshotEngine, SnapshotMeta, SyncPolicy, WalWriter,
};
use ranksim_rankings::{ItemId, QueryScratch, QueryStats, RankingId, RankingStore};

use crate::inputs::{
    generate, query_pairs, same_ids, theta_raw_of, within, Family, Inputs, Op, OpStream,
    NEIGHBOURS, THETAS,
};
use crate::layers;
use crate::report::Report;
use crate::stack::{
    engine_builder, share, spot_check, topk_phase, warm_and_check, Mono, Stack, CHECK_EVERY,
};
use crate::stats::{median, Samples};
use crate::trace::{ladder, TraceOut, Tracer};
use crate::workloads::lib::ladder_op;
use crate::Run;

const N: usize = 100_000;
const QUERIES: usize = 4000;
const TOPK_QUERIES: usize = 100;
/// Client connections: one per core of the two-core machine.
const CLIENTS: u32 = 2;
const REPEATS: usize = 3;
/// Slices of the mixed window; read throughput is the median slice's.
const ROUNDS: usize = 5;
const POLICY: SyncPolicy = SyncPolicy::GroupCommit {
    max_ops: 64,
    max_delay: Duration::from_millis(5),
};

fn serve_config() -> ServeRunConfig {
    ServeRunConfig {
        clients: CLIENTS as usize,
        batch_threads: 2,
        duration_s: 0.0,
        write_fraction: 0.1,
        theta: 0.1,
        algorithm: Algorithm::Auto,
        queue_capacity: 1024,
        batch_max: 64,
        read_budget_ms: 2000,
        idle_timeout_s: 60,
    }
}

/// The serving spine with its dispatcher and socket threads.
struct Server {
    core: Arc<ServeCore>,
    addr: SocketAddr,
    dispatcher: JoinHandle<()>,
    acceptor: JoinHandle<()>,
}

impl Server {
    fn start(engine: SnapshotEngine) -> Server {
        let core = Arc::new(ServeCore::new(engine, &serve_config()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a localhost port");
        let addr = listener.local_addr().expect("the listener has an address");
        let dispatcher = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.dispatch_loop())
        };
        let acceptor = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_socket(&core, listener))
        };
        Server {
            core,
            addr,
            dispatcher,
            acceptor,
        }
    }

    /// Graceful shutdown; every client connection must be closed first,
    /// or the socket thread waits out their idle timeout.
    fn stop(self) -> Arc<ServeCore> {
        self.core.shutdown();
        self.dispatcher.join().expect("the dispatcher panicked");
        self.acceptor.join().expect("the socket thread panicked");
        self.core.sync_wal().expect("sync the WAL on shutdown");
        self.core
    }
}

/// One client connection speaking the line protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: String,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
        Client {
            stream,
            reader,
            request: String::new(),
            reply: String::new(),
        }
    }

    /// Sends the request line built by `write` and returns the reply line.
    fn call(&mut self, write: impl FnOnce(&mut String)) -> &str {
        self.request.clear();
        write(&mut self.request);
        self.request.push('\n');
        self.reply.clear();
        let sent = self.stream.write_all(self.request.as_bytes());
        if sent.is_err() || self.reader.read_line(&mut self.reply).is_err() {
            self.reply.clear();
            self.reply.push_str("ERR connection lost");
        }
        self.reply.trim_end()
    }

    fn read(&mut self, query: &[ItemId], theta: f64, out: &mut Vec<RankingId>) -> bool {
        let reply = self.call(|line| {
            line.push_str("Q ");
            line.push_str(&theta.to_string());
            line.push(' ');
            push_items(line, query);
        });
        out.clear();
        match reply.strip_prefix('R') {
            Some(ids) => ids
                .trim()
                .split(',')
                .filter(|s| !s.is_empty())
                .all(|s| s.parse().map(|id| out.push(RankingId(id))).is_ok()),
            None => false,
        }
    }
}

fn push_items(line: &mut String, items: &[ItemId]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&item.0.to_string());
    }
}

/// Reads through the public in-process front door (`submit_read`), or
/// over a TCP connection when one is given; top-k through a snapshot,
/// because the line protocol has no top-k verb.
struct Served<'a> {
    core: &'a ServeCore,
    wire: Option<Client>,
    scratch: QueryScratch,
}

impl<'a> Served<'a> {
    fn new(core: &'a ServeCore, wire: Option<Client>) -> Self {
        Served {
            core,
            wire,
            scratch: QueryScratch::new(),
        }
    }
}

impl Stack for Served<'_> {
    fn threshold(
        &mut self,
        _configured_in_serve_core: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        out: &mut Vec<RankingId>,
    ) -> bool {
        if let Some(client) = &mut self.wire {
            let theta = THETAS
                .into_iter()
                .find(|&t| ranksim_rankings::raw_threshold(t, query.len()) == theta_raw)
                .expect("reads use the θ-cycle");
            return client.read(query, theta, out);
        }
        out.clear();
        match self
            .core
            .submit_read(query.to_vec(), theta_raw)
            .map(|rx| rx.recv())
        {
            Ok(Ok(ReadReply::Done(ids))) => {
                *out = ids;
                true
            }
            _ => false,
        }
    }

    fn topk(&mut self, query: &[ItemId]) -> Option<Vec<(u32, RankingId)>> {
        let snap = self.core.engine().snapshot();
        Some(snap.query_topk(query, NEIGHBOURS, &mut self.scratch, &mut QueryStats::new()))
    }
}

struct Paths {
    wal: std::path::PathBuf,
    checkpoint: std::path::PathBuf,
}

/// Corpus in memory → engine build → WAL-backed snapshot engine →
/// checkpoint → listening server → first read answered over TCP.
/// Returns the seconds the whole took and the checkpoint alone.
fn set_up(inputs: &Inputs, paths: &Paths) -> (Server, f64, f64) {
    let store = inputs.store.clone();
    let t = Instant::now();
    let engine = engine_builder(store).build();
    let engine = SnapshotEngine::with_wal(engine, &paths.wal, POLICY).expect("create the WAL");
    let c = Instant::now();
    engine
        .checkpoint(&paths.checkpoint)
        .expect("take the set-up checkpoint");
    let checkpoint_s = c.elapsed().as_secs_f64();
    let server = Server::start(engine);
    let mut out = Vec::new();
    let answered = Client::connect(server.addr).read(&inputs.queries[0], THETAS[0], &mut out);
    assert!(answered, "the server's first read failed");
    (server, t.elapsed().as_secs_f64(), checkpoint_s)
}

/// What one client did during a mixed window.
#[derive(Default)]
struct Tally {
    reads: Vec<Samples>,
    reads_during_compaction: Samples,
    writes: Samples,
    inserted: Vec<(RankingId, Vec<ItemId>)>,
    removed: Vec<RankingId>,
    /// Every [`CHECK_EVERY`]-th read: query index and the ids returned.
    sampled: Vec<(usize, Vec<RankingId>)>,
    failures: Vec<String>,
    ops: u64,
    publish_lag_ms: Vec<f64>,
    publish_lag_ops_max: u64,
}

struct Window<'a> {
    server: &'a Server,
    inputs: &'a Inputs,
    seed: u64,
    length: Duration,
    /// Also watch the publisher from in-process after every write.
    probe: bool,
}

/// The mixed window: [`CLIENTS`] closed-loop connections, a compaction
/// forced at a third of `length`; lasts until both are over.
fn mixed_window(w: &Window<'_>) -> (Vec<Tally>, f64) {
    let compacting = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let slice = w.length / ROUNDS as u32;
    let mut compact_s = 0.0;
    let tallies = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (compacting, stop) = (&compacting, &stop);
                scope.spawn(move || {
                    let mut client = Client::connect(w.server.addr);
                    let engine = w.server.core.engine();
                    let ops = OpStream::new(
                        w.seed,
                        c,
                        CLIENTS,
                        &w.inputs.store,
                        w.inputs.domain,
                        QUERIES,
                    );
                    let mut tally = Tally {
                        reads: vec![Samples::default(); ROUNDS],
                        ..Tally::default()
                    };
                    let mut own: VecDeque<RankingId> = VecDeque::new();
                    let mut out = Vec::new();
                    let mut reads = 0usize;
                    for op in ops {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        tally.ops += 1;
                        let t = Instant::now();
                        match op {
                            Op::Read { query } => {
                                let theta = THETAS[query % THETAS.len()];
                                let answered =
                                    client.read(&w.inputs.queries[query], theta, &mut out);
                                let ns = t.elapsed().as_nanos() as u64;
                                let round = ((t - start).as_nanos() / slice.as_nanos()) as usize;
                                tally.reads[round.min(ROUNDS - 1)].push(ns);
                                if compacting.load(Ordering::Relaxed) {
                                    tally.reads_during_compaction.push(ns);
                                }
                                if !answered {
                                    tally
                                        .failures
                                        .push(format!("read {query}: {}", client.reply.trim_end()));
                                } else if reads.is_multiple_of(CHECK_EVERY) {
                                    tally.sampled.push((query, out.clone()));
                                }
                                reads += 1;
                                continue;
                            }
                            Op::Insert { items } => {
                                let reply = client.call(|line| {
                                    line.push_str("I ");
                                    push_items(line, &items);
                                });
                                tally.writes.push(t.elapsed().as_nanos() as u64);
                                match reply.strip_prefix("OK ").and_then(|id| id.parse().ok()) {
                                    Some(id) => {
                                        own.push_back(RankingId(id));
                                        tally.inserted.push((RankingId(id), items));
                                    }
                                    None => tally.failures.push(format!("insert: {reply}")),
                                }
                            }
                            Op::Delete { fallback } => {
                                let id = own.pop_front().unwrap_or(fallback);
                                let reply = client.call(|line| {
                                    line.push_str("D ");
                                    line.push_str(&id.0.to_string());
                                });
                                tally.writes.push(t.elapsed().as_nanos() as u64);
                                if reply == "OK" {
                                    tally.removed.push(id);
                                } else {
                                    tally.failures.push(format!("delete {}: {reply}", id.0));
                                }
                            }
                        }
                        if w.probe {
                            let health = engine.health();
                            tally.publish_lag_ops_max = tally
                                .publish_lag_ops_max
                                .max(health.writer_pos.saturating_sub(health.published_pos));
                            let t = Instant::now();
                            engine.wait_until_published(health.writer_pos);
                            tally.publish_lag_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    tally
                })
            })
            .collect();

        std::thread::sleep(w.length / 3);
        compacting.store(true, Ordering::Relaxed);
        let t = Instant::now();
        w.server.core.engine().compact();
        w.server.core.engine().flush();
        compact_s = t.elapsed().as_secs_f64();
        compacting.store(false, Ordering::Relaxed);
        std::thread::sleep((start + w.length).saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<Tally>>()
    });
    (tallies, compact_s)
}

/// Everything the clients were acknowledged, folded into `oracle`; the
/// sampled reads checked for false positives against it.
struct Acked {
    inserted: Vec<RankingId>,
    removed: Vec<RankingId>,
}

fn fold_window(
    tallies: &mut [Tally],
    inputs: &Inputs,
    oracle: &mut RankingStore,
    report: &mut Report,
) -> Acked {
    let mut inserted: Vec<(RankingId, Vec<ItemId>)> = Vec::new();
    let mut removed = Vec::new();
    for tally in tallies.iter_mut() {
        report.attempted(tally.ops);
        for failure in tally.failures.drain(..) {
            report.fail(|| failure);
        }
        inserted.append(&mut tally.inserted);
        removed.append(&mut tally.removed);
    }
    // Ids are handed out in arrival order across both connections.
    inserted.sort_unstable_by_key(|(id, _)| *id);
    let base_len = oracle.len();
    for (id, items) in &inserted {
        let mirrored = oracle.push_items_unchecked(items);
        report.check(*id == mirrored, || {
            format!(
                "insert acknowledged as {}, a monolith assigns {}",
                id.0, mirrored.0
            )
        });
    }
    // A sampled read may name any ranking that was ever live: contents
    // never change under an id, so a false positive shows regardless of
    // what was deleted meanwhile.
    for tally in tallies.iter() {
        for (query, ids) in &tally.sampled {
            let (qp, theta) = (query_pairs(&inputs.queries[*query]), theta_raw_of(*query));
            let ok = ids.iter().all(|id| {
                (id.index() < base_len + inserted.len()) && within(&qp, oracle.items(*id), theta)
            });
            report.check(ok, || {
                format!("read {query} under load returned a ranking beyond θ")
            });
        }
    }
    for id in &removed {
        report.check(oracle.remove(*id), || {
            format!("delete {} acknowledged twice", id.0)
        });
    }
    let removed_set: std::collections::HashSet<RankingId> = removed.iter().copied().collect();
    Acked {
        inserted: inserted
            .into_iter()
            .map(|(id, _)| id)
            .filter(|id| !removed_set.contains(id))
            .collect(),
        removed,
    }
}

/// Crash-style reopen from the set-up's checkpoint plus the WAL, until
/// the first answered query. Returns the engine, seconds, ops replayed.
fn reopen(paths: &Paths, inputs: &Inputs) -> (SnapshotEngine, f64, u64) {
    let t = Instant::now();
    let (engine, recovery) = SnapshotEngine::recover_from_snapshot(
        &paths.checkpoint,
        &paths.wal,
        POLICY,
        LoadMode::Verify,
    )
    .expect("recover from checkpoint and WAL");
    let snap = engine.snapshot();
    let mut out = Vec::new();
    snap.query_into(
        Algorithm::Auto,
        &inputs.queries[0],
        theta_raw_of(0),
        &mut snap.scratch(),
        &mut QueryStats::new(),
        &mut out,
    );
    std::hint::black_box(out);
    drop(snap);
    (engine, t.elapsed().as_secs_f64(), recovery.applied)
}

pub fn run(run: &Run, report: &mut Report) -> Option<TraceOut> {
    let inputs = generate(Family::Nyt, N, QUERIES, TOPK_QUERIES, run.seed);
    report.sizes.push(("n", N as f64));
    report.sizes.push(("queries", QUERIES as f64));
    report.sizes.push(("clients", CLIENTS as f64));
    let paths = Paths {
        wal: run.tmp.join("serve.wal"),
        checkpoint: run.tmp.join("checkpoint.rssn"),
    };

    let mut setups = Vec::new();
    let mut server = None;
    let mut checkpoint_s = 0.0;
    for _ in 0..if run.trace { 1 } else { REPEATS } {
        if let Some(previous) = server.take() {
            drop(Server::stop(previous));
        }
        let (started, s, c) = set_up(&inputs, &paths);
        setups.push(s);
        checkpoint_s = c;
        server = Some(started);
    }
    let server = server.expect("set up at least once");
    report.median_of("setup_s", setups);
    {
        let snap = server.core.engine().snapshot();
        report.set(
            "bytes_per_ranking",
            snap.heap_bytes() as f64 / snap.live_len() as f64,
        );
    }
    if run.trace {
        report.set("persist.checkpoint_s", checkpoint_s);
        return Some(traced(run, report, &inputs, server, &paths));
    }

    warm_and_check(
        &mut Served::new(&server.core, None),
        &inputs.queries,
        &inputs.store,
        report,
    );
    let window = Window {
        server: &server,
        inputs: &inputs,
        seed: run.seed,
        length: share(run.seconds, 0.8),
        probe: false,
    };
    let (mut tallies, _) = mixed_window(&window);
    let slice_s = window.length.as_secs_f64() / ROUNDS as f64;
    let mut rounds: Vec<Samples> = vec![Samples::default(); ROUNDS];
    let mut writes = Samples::default();
    for tally in &mut tallies {
        for (round, reads) in rounds.iter_mut().zip(&mut tally.reads) {
            round.append(reads);
        }
        writes.append(&mut tally.writes);
    }
    report.median_of(
        "read_qps",
        rounds.iter().map(|r| r.len() as f64 / slice_s).collect(),
    );
    report.percentile_of("read_p50_us", 50.0, &mut rounds);
    report.percentile_of("read_p95_us", 95.0, &mut rounds);
    report.percentile_of("write_p50_us", 50.0, &mut [writes.clone()]);
    report.percentile_of("write_p90_us", 90.0, &mut [writes]);

    let mut oracle = inputs.store.clone();
    let acked = fold_window(&mut tallies, &inputs, &mut oracle, report);
    assert!(server.core.engine().flush(), "the publisher died");
    let wire = Client::connect(server.addr);
    spot_check(
        &mut Served::new(&server.core, Some(wire)),
        &inputs,
        &oracle,
        25,
        "over TCP after the window",
        report,
    );
    spot_check(
        &mut Served::new(&server.core, None),
        &inputs,
        &oracle,
        100,
        "after the window",
        report,
    );
    let topk = topk_phase(
        &mut Served::new(&server.core, None),
        &inputs.topk_queries,
        &oracle,
        share(run.seconds, 0.2),
        report,
    );
    report.percentile_of("topk_p50_us", 50.0, &mut [topk]);

    let core = server.stop();
    for (name, count) in [
        ("shed", core.shed.load(Ordering::Relaxed)),
        ("timed out", core.timeouts.load(Ordering::Relaxed)),
        (
            "failed in a batch",
            core.batch_failures.load(Ordering::Relaxed),
        ),
    ] {
        report.check(count == 0, || format!("{count} reads were {name}"));
    }
    drop(core);

    let mut reopens = Vec::new();
    let mut reopened = None;
    for _ in 0..REPEATS {
        drop(reopened.take());
        let (engine, s, applied) = reopen(&paths, &inputs);
        reopens.push(s);
        report.check(
            applied as usize > acked.inserted.len() + acked.removed.len(),
            || format!("the WAL replayed only {applied} operations"),
        );
        reopened = Some(engine);
    }
    report.median_of("recovery_s", reopens);
    let snap = reopened
        .as_ref()
        .expect("reopened at least once")
        .snapshot();
    spot_check(
        &mut Mono::new(&snap),
        &inputs,
        &oracle,
        40,
        "after recovery",
        report,
    );
    for id in &acked.inserted {
        report.check(snap.is_live(*id), || {
            format!("recovery lost acknowledged insert {}", id.0)
        });
    }
    for id in &acked.removed {
        report.check(!snap.is_live(*id), || {
            format!("recovery revived acknowledged delete {}", id.0)
        });
    }
    None
}

/// The ladder of a served read, bottom-up; the first three rungs are
/// the library's ([`ladder_op`]).
const LADDER: [(&str, Option<&str>); 7] = [
    ("rankings.footrule", None),
    ("engine.fixed", Some("rankings.footrule")),
    ("engine.auto", Some("engine.fixed")),
    ("snapshot.query", Some("engine.auto")),
    ("batch.one", Some("snapshot.query")),
    ("serve.submit", Some("batch.one")),
    ("serve.tcp", Some("serve.submit")),
];

/// `wal.append_us`, `wal.sync_us` (this sandbox's disk), `wal.bytes_per_op`.
fn wal_layer(report: &mut Report, inputs: &Inputs, path: &Path) {
    let mut wal = WalWriter::create(path, SyncPolicy::None).expect("create a scratch WAL");
    let op = |i: usize| LogOp::Insert {
        id: RankingId(i as u32),
        items: inputs.queries[i % inputs.queries.len()].clone(),
    };
    let mut append_us = Vec::new();
    for i in 0..2000 {
        let op = op(i);
        let t = Instant::now();
        wal.append(&op).expect("append to the scratch WAL");
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut sync_us = Vec::new();
    for i in 0..50 {
        wal.append(&op(i)).expect("append to the scratch WAL");
        let t = Instant::now();
        wal.sync().expect("sync the scratch WAL");
        sync_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set("wal.append_us", median(&append_us));
    report.set("wal.sync_us", median(&sync_us));
    report.set(
        "wal.bytes_per_op",
        wal.bytes() as f64 / wal.records() as f64,
    );
}

fn traced(
    run: &Run,
    report: &mut Report,
    inputs: &Inputs,
    server: Server,
    paths: &Paths,
) -> TraceOut {
    let core = &server.core;
    let mut tracer = Tracer::new();
    let lens = warm_and_check(
        &mut Served::new(core, None),
        &inputs.queries,
        &inputs.store,
        report,
    );

    // The ladder. The upper rungs pin a fresh snapshot per call, as the
    // dispatcher does; the TCP rung is time-boxed, because a read over
    // the socket costs tens of milliseconds.
    let pinned = core.engine().snapshot();
    let mut stack = Mono::new(&pinned);
    let mut wire = Client::connect(server.addr);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let tcp_deadline = Instant::now() + share(run.seconds, 0.3);
    let mut tcp_open = true;
    for i in (0..inputs.queries.len()).step_by(3) {
        let (q, theta, op) = (&inputs.queries[i], theta_raw_of(i), i as u32);
        let root = ladder_op(&mut tracer, &mut stack, &pinned, inputs, i);
        tracer.span(op, root, "snapshot.query", || {
            let snap = core.engine().snapshot();
            snap.query_into(
                Algorithm::Auto,
                q,
                theta,
                &mut scratch,
                &mut QueryStats::new(),
                &mut out,
            );
        });
        let expect = out.clone();
        let single = std::slice::from_ref(q);
        let ((results, _), _) = tracer.span(op, root, "batch.one", || {
            core.engine().snapshot().query_batch_deadline(
                Algorithm::Auto,
                single,
                theta,
                2,
                Duration::from_secs(2),
            )
        });
        report.check(same_ids(&results[0], &expect), || {
            format!("batch of one: query {i} differs")
        });
        let (reply, _) = tracer.span(op, root, "serve.submit", || {
            core.submit_read(q.clone(), theta).map(|rx| rx.recv())
        });
        report.check(
            matches!(&reply, Ok(Ok(ReadReply::Done(ids))) if same_ids(ids, &expect)),
            || format!("submit_read: query {i} differs"),
        );
        if tcp_open {
            let (answered, _) = tracer.span(op, root, "serve.tcp", || {
                wire.read(q, THETAS[i % THETAS.len()], &mut out)
            });
            report.check(answered && same_ids(&out, &expect), || {
                format!("over TCP: query {i} differs")
            });
            tcp_open = Instant::now() < tcp_deadline;
        }
        tracer.end(root);
    }
    let ns = |name| tracer.median_ns(name).expect("the ladder ran every rung");
    report.set(
        "serve.dispatch_us",
        (ns("serve.submit") - ns("batch.one")) / 1e3,
    );
    report.set(
        "serve.wire_us",
        (ns("serve.tcp") - ns("serve.submit")) / 1e3,
    );
    let mut floor_us = Vec::new();
    for _ in 0..30 {
        let t = Instant::now();
        let reply = wire.call(|line| line.push_str("nonsense"));
        floor_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            reply.starts_with("ERR"),
            "a malformed line was answered {reply:?}"
        );
    }
    report.set("serve.wire_floor_us", median(&floor_us));
    const ACQUIRES: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..ACQUIRES {
        std::hint::black_box(core.engine().snapshot());
    }
    report.set(
        "snapshot.acquire_ns",
        t.elapsed().as_nanos() as f64 / ACQUIRES as f64,
    );

    report.set("datasets.gen_s", inputs.gen_s);
    layers::timer(report);
    layers::footrule(report, &inputs.store, run.seed);
    layers::executors_and_planner(report, &mut stack, inputs, &inputs.store);
    layers::topk_counts(report, &mut stack, &inputs.topk_queries);
    layers::batch(report, &mut stack, &inputs.queries);
    layers::read_loop_self_check(
        report,
        &mut Served::new(core, Some(wire)),
        &inputs.queries,
        &lens,
        share(run.seconds, 0.2),
        &mut tracer,
        "read.traced",
    );
    layers::side_engine(report, inputs, run.seed);
    wal_layer(report, inputs, &run.tmp.join("scratch.wal"));
    let saved = run.tmp.join("saved.rssn");
    let t = Instant::now();
    save_engine(&saved, &pinned, SnapshotMeta::default()).expect("save the served engine");
    report.set("persist.save_s", t.elapsed().as_secs_f64());
    let mut load_verify_s = 0.0;
    for (name, mode) in [
        ("persist.load_verify_s", LoadMode::Verify),
        ("persist.load_trust_s", LoadMode::Trust),
    ] {
        let t = Instant::now();
        let (loaded, _) = load_engine(&saved, mode).expect("reopen the saved engine");
        let s = t.elapsed().as_secs_f64();
        report.set(name, s);
        if mode == LoadMode::Verify {
            load_verify_s = s;
        }
        spot_check(
            &mut Mono::new(&loaded),
            inputs,
            &inputs.store,
            10,
            name,
            report,
        );
    }
    drop(stack);
    drop(pinned);

    // A third of the mixed window, with the publisher watched.
    let window = Window {
        server: &server,
        inputs,
        seed: run.seed,
        length: share(run.seconds, 0.8 / 3.0),
        probe: true,
    };
    let (mut tallies, _) = mixed_window(&window);
    let mut during = Samples::default();
    let mut lag_ms = Vec::new();
    let mut lag_ops = 0;
    for tally in &mut tallies {
        during.append(&mut tally.reads_during_compaction);
        lag_ms.append(&mut tally.publish_lag_ms);
        lag_ops = lag_ops.max(tally.publish_lag_ops_max);
    }
    report.set(
        "snapshot.read_p99_us_during_compaction",
        during.percentile_us(99.0).map_or(0.0, |p| p.value),
    );
    report.set(
        "snapshot.publish_lag_ms",
        if lag_ms.is_empty() {
            0.0
        } else {
            median(&lag_ms)
        },
    );
    report.set("snapshot.publish_lag_ops_max", lag_ops as f64);
    let mut oracle = inputs.store.clone();
    let acked = fold_window(&mut tallies, inputs, &mut oracle, report);
    assert!(core.engine().flush(), "the publisher died");
    spot_check(
        &mut Served::new(core, None),
        inputs,
        &oracle,
        40,
        "after the window",
        report,
    );
    {
        let snap = core.engine().snapshot();
        report.set("engine.delta_len", snap.delta_len() as f64);
        report.set("engine.tombstones", snap.base_tombstones() as f64);
    }
    report.set(
        "snapshot.abandoned_generations",
        core.engine().abandoned_generations() as f64,
    );

    let core = server.stop();
    report.set("serve.shed", core.shed.load(Ordering::Relaxed) as f64);
    report.set(
        "serve.timeouts",
        core.timeouts.load(Ordering::Relaxed) as f64,
    );
    report.set(
        "serve.batch_failures",
        core.batch_failures.load(Ordering::Relaxed) as f64,
    );
    drop(core);
    let (reopened, recovery_s, applied) = reopen(paths, inputs);
    // Recovery loads the checkpoint, then replays the WAL onto it.
    report.set(
        "wal.replay_ops_per_s",
        applied as f64 / (recovery_s - load_verify_s).max(1e-9),
    );
    let snap = reopened.snapshot();
    spot_check(
        &mut Mono::new(&snap),
        inputs,
        &oracle,
        20,
        "after recovery",
        report,
    );
    for id in &acked.inserted {
        report.check(snap.is_live(*id), || {
            format!("recovery lost acknowledged insert {}", id.0)
        });
    }

    let rungs = ladder(&tracer, &LADDER);
    TraceOut { tracer, rungs }
}
