//! A concurrent query service over [`SnapshotEngine`].
//!
//! This is the serving front-end the snapshot layer exists for. Its
//! front door is a **local TCP socket** ([`serve_socket`]) speaking a
//! line protocol (`Q`/`I`/`D`); the `serve_tcp` workload of the
//! `benchmark/` package measures it end to end. Socket input is
//! untrusted: rankings are validated with the non-panicking
//! [`ranksim_rankings::validate_items`] and bad requests get an `ERR`
//! line instead of a worker panic.
//!
//! The spine is [`ServeCore`]: a bounded request queue with
//! **admission control** (submissions beyond `queue_capacity` are shed
//! immediately — the client gets `Shed`, the queue never grows without
//! bound) and a dispatcher thread that drains up to `batch_max`
//! waiting requests at a time, pins **one snapshot** for the whole
//! drain, groups the requests by threshold, and runs each group
//! through the engine's existing work-stealing batch driver
//! ([`ranksim_core::engine::Engine::query_batch_reported`]). Writes
//! bypass the queue and go straight to the snapshot engine's writer
//! API — that is safe by construction, the whole point of the RCU
//! layer.
//!
//! The spine is hardened for unattended operation:
//!
//! * every read carries a **deadline** (`read_budget`): requests that
//!   expire in the queue or are not started by the batch driver before
//!   the budget elapses fail individually with
//!   [`ReadReply::TimedOut`] (socket: a `TIMEOUT` line) instead of
//!   holding their client hostage;
//! * when the engine runs on a **write-ahead log** (see
//!   [`ranksim_core::wal`]), graceful shutdown drains the admission
//!   queue and [`ServeCore::sync_wal`] syncs the log, so an orderly
//!   exit loses nothing;
//! * the dispatcher polls [`SnapshotEngine::health`] every drain —
//!   publisher death or a WAL failure is latched in
//!   [`ServeCore::unhealthy`] instead of silently serving ever-staler
//!   snapshots;
//! * the socket front door bounds line length, rejects non-UTF-8 and
//!   oversized frames with `ERR`, and hangs up on idle connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ranksim_core::engine::Algorithm;
use ranksim_core::{SnapshotEngine, WalError};
use ranksim_rankings::{raw_threshold, validate_items, ItemId, RankingId};

/// Configuration of a [`ServeCore`].
#[derive(Debug, Clone, Copy)]
pub struct ServeRunConfig {
    /// Not read by `ServeCore`; kept for `benchmark/`'s struct literal.
    pub clients: usize,
    /// Worker threads of the batch dispatcher.
    pub batch_threads: usize,
    /// Not read by `ServeCore`; kept for `benchmark/`'s struct literal.
    pub duration_s: f64,
    /// Not read by `ServeCore`; kept for `benchmark/`'s struct literal.
    pub write_fraction: f64,
    /// Not read by `ServeCore`; kept for `benchmark/`'s struct literal.
    pub theta: f64,
    /// The algorithm reads run.
    pub algorithm: Algorithm,
    /// Admission-control bound: reads waiting in the queue beyond this
    /// are shed.
    pub queue_capacity: usize,
    /// Most requests coalesced into one batch-driver call.
    pub batch_max: usize,
    /// Per-read deadline in milliseconds, enqueue to start-of-execution.
    /// Expired reads get [`ReadReply::TimedOut`].
    pub read_budget_ms: u64,
    /// Socket connections idle longer than this many seconds are hung
    /// up on by [`serve_socket`].
    pub idle_timeout_s: u64,
}

/// A read request in flight: the query, its threshold, when it was
/// admitted (for the deadline), and the reply channel the submitting
/// front-end blocks on.
struct ReadRequest {
    query: Vec<ItemId>,
    theta_raw: u32,
    enqueued: Instant,
    reply: SyncSender<ReadReply>,
}

/// The dispatcher's answer to one admitted read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadReply {
    /// The result set.
    Done(Vec<RankingId>),
    /// The read's deadline elapsed before execution started (in the
    /// queue, or claimed past the batch deadline). It failed
    /// individually; the rest of its batch completed.
    TimedOut,
}

/// Why a read submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the queue was at capacity.
    Shed,
    /// The service is shutting down.
    Stopped,
}

/// The serving spine: the snapshot engine, the bounded read queue, and
/// the dispatch/shedding counters. Shared (via `Arc`) between the
/// front-ends and the dispatcher thread.
pub struct ServeCore {
    engine: SnapshotEngine,
    queue: Mutex<VecDeque<ReadRequest>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    batch_max: usize,
    batch_threads: usize,
    algorithm: Algorithm,
    read_budget: Duration,
    idle_timeout: Duration,
    stop: AtomicBool,
    /// Reads shed by admission control.
    pub shed: AtomicU64,
    /// Batched queries whose worker panicked (empty result returned).
    pub batch_failures: AtomicU64,
    /// Reads that missed their deadline ([`ReadReply::TimedOut`]).
    pub timeouts: AtomicU64,
    /// Set by the dispatcher when [`SnapshotEngine::health`] first
    /// reports an unhealthy engine (publisher death / WAL failure).
    pub unhealthy: AtomicBool,
}

impl ServeCore {
    /// Wraps a snapshot engine in the serving spine.
    pub fn new(engine: SnapshotEngine, rc: &ServeRunConfig) -> Self {
        ServeCore {
            engine,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: rc.queue_capacity,
            batch_max: rc.batch_max,
            batch_threads: rc.batch_threads,
            algorithm: rc.algorithm,
            read_budget: Duration::from_millis(rc.read_budget_ms),
            idle_timeout: Duration::from_secs(rc.idle_timeout_s),
            stop: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            batch_failures: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            unhealthy: AtomicBool::new(false),
        }
    }

    /// The wrapped snapshot engine (writer API + snapshots).
    pub fn engine(&self) -> &SnapshotEngine {
        &self.engine
    }

    /// Submits a read; the returned channel yields a [`ReadReply`] once
    /// the dispatcher has served (or timed out) it. Sheds instead of
    /// queueing past the capacity bound.
    pub fn submit_read(
        &self,
        query: Vec<ItemId>,
        theta_raw: u32,
    ) -> Result<Receiver<ReadReply>, SubmitError> {
        if self.stop.load(Ordering::Acquire) {
            return Err(SubmitError::Stopped);
        }
        let (tx, rx) = sync_channel(1);
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= self.queue_capacity {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Shed);
            }
            q.push_back(ReadRequest {
                query,
                theta_raw,
                enqueued: Instant::now(),
                reply: tx,
            });
        }
        self.queue_cv.notify_one();
        Ok(rx)
    }

    /// Stops the dispatcher once the queue drains; pending requests
    /// are still served, later submissions get `Stopped`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.queue_cv.notify_all();
    }

    /// Graceful-shutdown epilogue: forces the WAL to stable storage.
    /// Call after [`ServeCore::shutdown`] **and** after joining the
    /// dispatcher thread, so everything the dispatcher drained — and
    /// every writer-API call — is on disk before the process exits.
    pub fn sync_wal(&self) -> Result<(), WalError> {
        self.engine.sync_wal()
    }

    /// The dispatcher loop (run it on its own thread): drains up to
    /// `batch_max` waiting reads, pins one snapshot for the drain,
    /// groups by threshold, and answers each group through the
    /// work-stealing batch driver. Returns when [`ServeCore::shutdown`]
    /// was called and the queue is empty.
    ///
    /// Deadlines are enforced in two places: a request that already
    /// expired while queued is answered [`ReadReply::TimedOut`] without
    /// execution, and each batch-driver call runs under
    /// [`ranksim_core::engine::Engine::query_batch_deadline`] so a
    /// slow batch times out its unstarted tail individually instead of
    /// stalling every queued request behind it.
    pub fn dispatch_loop(&self) {
        let mut drained: Vec<ReadRequest> = Vec::new();
        loop {
            {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                while q.is_empty() && !self.stop.load(Ordering::Acquire) {
                    q = self.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                if q.is_empty() {
                    return; // stopped and drained
                }
                let take = q.len().min(self.batch_max);
                drained.extend(q.drain(..take));
            }

            // Liveness check once per drain: a dead publisher or failed
            // WAL is latched for the operator; reads keep being served
            // from the last published generation either way.
            if !self.unhealthy.load(Ordering::Relaxed) && !self.engine.health().is_healthy() {
                self.unhealthy.store(true, Ordering::Relaxed);
            }

            // One frozen world for the whole coalesced batch: every
            // request in it sees the same consistent corpus, and the
            // batch driver's workers share it without synchronization.
            let snapshot = self.engine.snapshot();
            let drain_start = Instant::now();

            // Requests whose deadline already passed in the queue fail
            // now, without burning batch capacity on them.
            let mut expired = 0u64;
            drained.retain(|req| {
                if drain_start.duration_since(req.enqueued) >= self.read_budget {
                    let _ = req.reply.send(ReadReply::TimedOut);
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            if expired > 0 {
                self.timeouts.fetch_add(expired, Ordering::Relaxed);
            }

            // Group by threshold so each batch-driver call runs one θ
            // (requests overwhelmingly share the workload θ; the sort
            // is over at most `batch_max` elements).
            let mut order: Vec<usize> = (0..drained.len()).collect();
            order.sort_unstable_by_key(|&i| drained[i].theta_raw);
            let mut start = 0;
            while start < order.len() {
                let theta = drained[order[start]].theta_raw;
                let mut end = start + 1;
                while end < order.len() && drained[order[end]].theta_raw == theta {
                    end += 1;
                }
                let group = &order[start..end];
                let queries: Vec<Vec<ItemId>> =
                    group.iter().map(|&i| drained[i].query.clone()).collect();
                let (results, reports) = snapshot.query_batch_deadline(
                    self.algorithm,
                    &queries,
                    theta,
                    self.batch_threads,
                    self.read_budget,
                );
                let failed: u64 = reports.iter().map(|r| r.failed).sum();
                if failed > 0 {
                    self.batch_failures.fetch_add(failed, Ordering::Relaxed);
                }
                let timed_out: Vec<usize> = reports
                    .iter()
                    .flat_map(|r| r.timed_out.iter().copied())
                    .collect();
                if !timed_out.is_empty() {
                    self.timeouts
                        .fetch_add(timed_out.len() as u64, Ordering::Relaxed);
                }
                for (gi, (&i, result)) in group.iter().zip(results).enumerate() {
                    let reply = if timed_out.contains(&gi) {
                        ReadReply::TimedOut
                    } else {
                        ReadReply::Done(result)
                    };
                    // A vanished client is its own problem.
                    let _ = drained[i].reply.send(reply);
                }
                start = end;
            }
            drained.clear();
        }
    }
}

// ---------------------------------------------------------------------
// Socket front-end
// ---------------------------------------------------------------------

/// Longest request line the socket front door accepts. A legitimate
/// request is a few hundred bytes (one size-`k` ranking); anything
/// approaching this bound is malformed or hostile, and the read loop
/// must never buffer an attacker-controlled unbounded line.
const MAX_LINE: usize = 64 * 1024;

/// How often the accept loop re-checks [`ServeCore::shutdown`] while
/// no connection is arriving.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// One framing outcome of [`read_frame`].
enum Frame {
    /// A complete line (without its terminator), valid UTF-8.
    Line(String),
    /// A complete line that was not valid UTF-8 (answer `ERR`, keep
    /// the connection — framing is still line-aligned).
    NotUtf8,
    /// The line exceeded [`MAX_LINE`] before a terminator arrived
    /// (answer `ERR` and hang up; the remainder is unbounded).
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated frame with a hard length bound, never
/// buffering more than [`MAX_LINE`] bytes no matter what the peer
/// sends. Split out over `BufRead` so tests can drive it with a
/// cursor instead of a socket.
fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(Frame::Eof);
            }
            // Final unterminated line.
            break;
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..nl]);
            reader.consume(nl + 1);
            if buf.len() > MAX_LINE {
                return Ok(Frame::TooLong);
            }
            break;
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        reader.consume(n);
        if buf.len() > MAX_LINE {
            return Ok(Frame::TooLong);
        }
    }
    match std::str::from_utf8(buf) {
        Ok(s) => Ok(Frame::Line(s.to_string())),
        Err(_) => Ok(Frame::NotUtf8),
    }
}

/// Serves the line protocol on `listener` until [`ServeCore::shutdown`]
/// (one thread per connection; the dispatcher must be running):
///
/// * `Q <theta> <i1,i2,...>` → `R <id1,id2,...>` | `SHED` | `TIMEOUT`
///   | `ERR <why>`
/// * `I <i1,i2,...>` → `OK <id>` | `ERR <why>`
/// * `D <id>` → `OK` | `MISS` | `ERR <why>`
///
/// `theta` is the normalized threshold in `[0, 1]`. All ranking input
/// is validated before it can reach the engine's panicking asserts;
/// frames are length-bounded, non-UTF-8 input gets `ERR`, and a
/// connection idle past the core's `idle_timeout_s` is hung up on.
pub fn serve_socket(core: &Arc<ServeCore>, listener: TcpListener) {
    let idle = core.idle_timeout;
    // Accept in a poll loop: a blocking `accept()` would hold this
    // thread hostage after `shutdown()` until one more peer happened
    // to connect. (If nonblocking mode is unavailable the loop
    // degrades to the blocking behavior.)
    let polling = listener.set_nonblocking(true).is_ok();
    std::thread::scope(|scope| loop {
        if core.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Connection I/O is blocking (bounded by the idle
                // timeout), whatever mode the listener is in.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let core = Arc::clone(core);
                scope.spawn(move || handle_connection(&core, stream, idle));
            }
            Err(e) if polling && e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => continue,
        }
    });
}

fn handle_connection(core: &ServeCore, stream: TcpStream, idle_timeout: Duration) {
    // An idle peer holds a thread and a file descriptor; bound it.
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let response = match read_frame(&mut reader, &mut buf) {
            Ok(Frame::Line(line)) => handle_line(core, line.trim()),
            Ok(Frame::NotUtf8) => "ERR request is not utf-8".to_string(),
            Ok(Frame::TooLong) => {
                // Cannot resync framing on an unbounded line: say why,
                // then hang up.
                let _ = writer.write_all(b"ERR line too long\n");
                return;
            }
            // Idle timeout (WouldBlock/TimedOut, platform-dependent)
            // or a broken peer: hang up either way.
            Ok(Frame::Eof) | Err(_) => return,
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return;
        }
    }
}

/// Parses a comma-separated item list into a validated size-`k`
/// ranking.
fn parse_items(list: &str, k: usize) -> Result<Vec<ItemId>, String> {
    let items: Result<Vec<ItemId>, _> = list
        .split(',')
        .map(|s| s.trim().parse::<u32>().map(ItemId))
        .collect();
    let items = items.map_err(|e| format!("bad item id: {e}"))?;
    validate_items(&items, k).map_err(|e| e.to_string())?;
    Ok(items)
}

/// One request line → one response line (no I/O; unit-testable).
fn handle_line(core: &ServeCore, line: &str) -> String {
    let k = core.engine.snapshot().store().k();
    let mut parts = line.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("Q"), Some(theta), Some(items)) => {
            let theta: f64 = match theta.parse() {
                Ok(t) if (0.0..=1.0).contains(&t) => t,
                _ => return "ERR theta must be a number in [0, 1]".into(),
            };
            let query = match parse_items(items, k) {
                Ok(q) => q,
                Err(e) => return format!("ERR {e}"),
            };
            match core.submit_read(query, raw_threshold(theta, k)) {
                Ok(rx) => match rx.recv() {
                    Ok(ReadReply::Done(ids)) => {
                        let ids: Vec<String> = ids.iter().map(|id| id.0.to_string()).collect();
                        format!("R {}", ids.join(","))
                    }
                    Ok(ReadReply::TimedOut) => "TIMEOUT".into(),
                    Err(_) => "ERR service stopped".into(),
                },
                Err(SubmitError::Shed) => "SHED".into(),
                Err(SubmitError::Stopped) => "ERR service stopped".into(),
            }
        }
        (Some("I"), Some(items), None) => match parse_items(items, k) {
            // The typed writer API: a WAL fail-stop comes back as ERR,
            // never as a panic inside the connection thread.
            Ok(items) => match core.engine.try_insert_ranking(&items) {
                Ok(id) => format!("OK {}", id.0),
                Err(e) => format!("ERR {e}"),
            },
            Err(e) => format!("ERR {e}"),
        },
        (Some("D"), Some(id), None) => match id.parse::<u32>() {
            Ok(id) => match core.engine.try_remove_ranking(RankingId(id)) {
                Ok(true) => "OK".into(),
                Ok(false) => "MISS".into(),
                Err(e) => format!("ERR {e}"),
            },
            Err(e) => format!("ERR bad ranking id: {e}"),
        },
        _ => "ERR expected Q <theta> <items> | I <items> | D <id>".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_core::engine::EngineBuilder;
    use ranksim_datasets::nyt_like;
    use ranksim_rankings::QueryStats;

    fn tiny_config(queue_capacity: usize) -> ServeRunConfig {
        ServeRunConfig {
            clients: 1,
            batch_threads: 1,
            duration_s: 1.0,
            write_fraction: 0.1,
            theta: 0.1,
            algorithm: Algorithm::Fv,
            queue_capacity,
            batch_max: 8,
            read_budget_ms: 2000,
            idle_timeout_s: 60,
        }
    }

    fn tiny_core_from(rc: &ServeRunConfig) -> ServeCore {
        let ds = nyt_like(200, 8, 11);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        ServeCore::new(SnapshotEngine::new(engine), rc)
    }

    fn tiny_core(queue_capacity: usize) -> ServeCore {
        tiny_core_from(&tiny_config(queue_capacity))
    }

    #[test]
    fn admission_control_sheds_past_capacity() {
        // No dispatcher running: the queue fills and must shed.
        let core = tiny_core(2);
        let q: Vec<ItemId> = core
            .engine()
            .snapshot()
            .store()
            .items(RankingId(0))
            .to_vec();
        assert!(core.submit_read(q.clone(), 10).is_ok());
        assert!(core.submit_read(q.clone(), 10).is_ok());
        assert!(matches!(
            core.submit_read(q.clone(), 10),
            Err(SubmitError::Shed)
        ));
        assert_eq!(core.shed.load(Ordering::Relaxed), 1);
        core.shutdown();
        assert!(matches!(core.submit_read(q, 10), Err(SubmitError::Stopped)));
        // Drain the queue so pending replies do not leak: the
        // dispatcher serves what was admitted, then returns.
        core.dispatch_loop();
    }

    #[test]
    fn dispatcher_answers_match_direct_queries() {
        let core = tiny_core(64);
        let snap = core.engine().snapshot();
        let theta = raw_threshold(0.2, 8);
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| core.dispatch_loop());
            let mut expected_scratch = snap.scratch();
            let mut stats = QueryStats::new();
            for i in 0..20u32 {
                let q: Vec<ItemId> = snap.store().items(RankingId(i * 7 % 200)).to_vec();
                let rx = core.submit_read(q.clone(), theta).expect("admitted");
                let got = match rx.recv().expect("reply") {
                    ReadReply::Done(ids) => ids,
                    ReadReply::TimedOut => panic!("query {i} timed out"),
                };
                let expect =
                    snap.query_items(Algorithm::Fv, &q, theta, &mut expected_scratch, &mut stats);
                assert_eq!(got, expect, "query {i}");
            }
            core.shutdown();
            dispatcher.join().unwrap();
        });
    }

    #[test]
    fn socket_protocol_round_trips() {
        let core = Arc::new(tiny_core(64));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let dispatcher = {
                let core = Arc::clone(&core);
                scope.spawn(move || core.dispatch_loop())
            };
            let server = {
                let core = Arc::clone(&core);
                scope.spawn(move || serve_socket(&core, listener))
            };

            // Scoped so the connection closes (EOF for the handler
            // thread) before the server is asked to wind down.
            {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut send = |line: &str| -> String {
                    let mut s = stream.try_clone().unwrap();
                    s.write_all(line.as_bytes()).unwrap();
                    s.write_all(b"\n").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    response.trim_end().to_string()
                };

                // A self-query at θ = 0 must find the ranking itself.
                let items: Vec<String> = core
                    .engine()
                    .snapshot()
                    .store()
                    .items(RankingId(3))
                    .iter()
                    .map(|i| i.0.to_string())
                    .collect();
                let q = items.join(",");
                let r = send(&format!("Q 0.0 {q}"));
                assert!(r.starts_with("R "), "got: {r}");
                assert!(r[2..].split(',').any(|id| id == "3"), "got: {r}");

                // Malformed input degrades to ERR — never a panic.
                assert!(send("Q 0.1 1,2,3").starts_with("ERR"), "wrong length");
                assert!(
                    send("Q 0.1 1,1,2,3,4,5,6,7").starts_with("ERR"),
                    "duplicate"
                );
                assert!(send(&format!("Q 7 {q}")).starts_with("ERR"), "bad theta");
                assert!(send("nonsense").starts_with("ERR"));

                // Insert a fresh ranking, find it, delete it, miss it.
                let fresh = "900,901,902,903,904,905,906,907";
                let r = send(&format!("I {fresh}"));
                assert!(r.starts_with("OK "), "got: {r}");
                let id: u32 = r[3..].parse().unwrap();
                core.engine().flush();
                let r = send(&format!("Q 0.0 {fresh}"));
                assert!(r[2..].split(',').any(|x| x == id.to_string()), "got: {r}");
                assert_eq!(send(&format!("D {id}")), "OK");
                assert_eq!(send(&format!("D {id}")), "MISS");
            }

            core.shutdown();
            dispatcher.join().unwrap();
            // The accept loop polls the stop flag; no nudge connection
            // is needed for the server thread to exit.
            server.join().unwrap();
        });
    }

    #[test]
    fn socket_hangs_up_on_a_silent_client_after_the_cores_idle_timeout() {
        let rc = ServeRunConfig {
            idle_timeout_s: 1,
            ..tiny_config(64)
        };
        let core = Arc::new(tiny_core_from(&rc));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        let addr = listener.local_addr().unwrap();
        let (read, waited) = std::thread::scope(|scope| {
            let server = {
                let core = Arc::clone(&core);
                scope.spawn(move || serve_socket(&core, listener))
            };

            // Connect and say nothing: the server must close the
            // connection (EOF here) once the 1 s idle timeout passes.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let t = Instant::now();
            let mut byte = [0u8; 1];
            let read = std::io::Read::read(&mut stream, &mut byte);
            let waited = t.elapsed();

            // Close our end first so a handler that is still waiting
            // sees EOF and the server can wind down either way.
            drop(stream);
            core.shutdown();
            server.join().unwrap();
            (read, waited)
        });
        assert!(
            matches!(read, Ok(0)),
            "expected EOF from the server, got {read:?} after {waited:?}"
        );
        assert!(waited < Duration::from_secs(5), "hung up after {waited:?}");
    }

    #[test]
    fn reads_expired_in_the_queue_get_timeout_not_results() {
        // A 1 ms budget and no dispatcher while requests age: by the
        // time the dispatcher drains them they are long expired.
        let core = tiny_core_from(&ServeRunConfig {
            read_budget_ms: 1,
            ..tiny_config(64)
        });
        let q: Vec<ItemId> = core
            .engine()
            .snapshot()
            .store()
            .items(RankingId(0))
            .to_vec();
        let rx1 = core.submit_read(q.clone(), 10).expect("admitted");
        let rx2 = core.submit_read(q, 10).expect("admitted");
        std::thread::sleep(Duration::from_millis(20));
        core.shutdown();
        core.dispatch_loop();
        assert_eq!(rx1.recv().unwrap(), ReadReply::TimedOut);
        assert_eq!(rx2.recv().unwrap(), ReadReply::TimedOut);
        assert_eq!(core.timeouts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn read_frame_bounds_hostile_input() {
        use std::io::Cursor;
        let mut buf = Vec::new();

        // A normal line round-trips.
        let mut r = Cursor::new(b"Q 0.1 1,2,3\nrest".to_vec());
        match read_frame(&mut r, &mut buf).unwrap() {
            Frame::Line(l) => assert_eq!(l, "Q 0.1 1,2,3"),
            _ => panic!("expected a line"),
        }

        // An endless unterminated line is cut at the bound, not
        // buffered to exhaustion.
        let mut r = Cursor::new(vec![b'x'; MAX_LINE + 100]);
        assert!(matches!(
            read_frame(&mut r, &mut buf).unwrap(),
            Frame::TooLong
        ));

        // A terminated-but-oversized line is also rejected.
        let mut big = vec![b'y'; MAX_LINE + 1];
        big.push(b'\n');
        let mut r = Cursor::new(big);
        assert!(matches!(
            read_frame(&mut r, &mut buf).unwrap(),
            Frame::TooLong
        ));

        // Non-UTF-8 is detected, framing stays aligned.
        let mut r = Cursor::new(b"\xff\xfe\xfd\nQ next\n".to_vec());
        assert!(matches!(
            read_frame(&mut r, &mut buf).unwrap(),
            Frame::NotUtf8
        ));
        match read_frame(&mut r, &mut buf).unwrap() {
            Frame::Line(l) => assert_eq!(l, "Q next"),
            _ => panic!("framing lost alignment after a bad line"),
        }

        // Clean EOF.
        let mut r = Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut r, &mut buf).unwrap(), Frame::Eof));
    }

    /// One engine shared across all proptest cases: `queue_capacity: 0`
    /// sheds every admitted read instantly, so no dispatcher is needed
    /// and `rx.recv()` inside `handle_line` can never block.
    fn fuzz_core() -> &'static ServeCore {
        static CORE: std::sync::OnceLock<ServeCore> = std::sync::OnceLock::new();
        CORE.get_or_init(|| tiny_core(0))
    }

    /// Every reply `handle_line` may legitimately produce.
    fn known_reply(r: &str) -> bool {
        r.starts_with("ERR")
            || r.starts_with("OK")
            || r.starts_with("R ")
            || r == "SHED"
            || r == "TIMEOUT"
            || r == "MISS"
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        // Structured-ish garbage: a (possibly wrong) verb, a numeric
        // field and a comma-joined item list with printable noise.
        #[test]
        fn handle_line_never_panics_on_structured_garbage(
            verb in proptest::sample::subsequence(
                vec!["Q", "I", "D", "X", "QQ", ""], 1),
            theta in -3.0f64..9.0,
            items in proptest::collection::vec(0u32..1500, 0..12),
            noise in proptest::collection::vec(32u8..127, 0..24),
        ) {
            let items: Vec<String> = items.iter().map(u32::to_string).collect();
            let noise = String::from_utf8(noise).unwrap();
            let line = format!("{} {theta} {}{noise}", verb[0], items.join(","));
            let r = handle_line(fuzz_core(), line.trim());
            prop_assert!(known_reply(&r), "unrecognized response {r:?} to {line:?}");
        }

        // Unstructured byte soup over the printable-ASCII range plus
        // tab (valid UTF-8 by construction; non-UTF-8 is rejected by
        // the framing layer and never reaches handle_line).
        #[test]
        fn handle_line_never_panics_on_byte_soup(
            bytes in proptest::collection::vec(9u8..127, 0..120),
        ) {
            let line = String::from_utf8(bytes).unwrap();
            let r = handle_line(fuzz_core(), line.trim());
            prop_assert!(known_reply(&r), "unrecognized response {r:?} to {line:?}");
        }
    }
}
