//! Distributed shard serving: one OS process per shard, an exact
//! fan-out/merge router in front.
//!
//! [`ShardedEngine`] keeps every shard in one address space; this
//! module lifts its exact merge across process boundaries. Each
//! **shard worker** is a separate process that loads one per-shard
//! `RSSN` snapshot (the `shard-{i}.rssn` files [`save_sharded`] wrote)
//! and serves queries over a Unix-domain socket; the
//! [`RemoteShardedEngine`] **router** opens the sharded snapshot's
//! manifest only ([`load_sharded_manifest`] — no engine in the router
//! process), spawns one worker per present shard, and merges their
//! answers exactly the way the in-process engine does:
//!
//! - threshold results translate worker-local ids through the
//!   manifest's local→global maps, concatenate, and sort ascending —
//!   the canonical order;
//! - top-k runs the radius rounds here, at the top tier: every round
//!   is one threshold fan-out, whose replies carry each result's exact
//!   distance, and the lexicographic heap picks the answer with its
//!   smaller-ids-win tie rule. Workers have no top-k request.
//!
//! Both are therefore **bit-identical** to [`ShardedEngine`] and to a
//! monolithic [`Engine`](crate::engine::Engine) over the same corpus
//! (the differential harness in `tests/distributed_equivalence.rs`
//! proves it).
//!
//! # Wire protocol
//!
//! Frames reuse the WAL codec shape: `[len u32 LE][crc32 u32 LE]
//! [payload]`, with the same CRC-32 (IEEE) over the payload. The first
//! payload byte is an opcode; integers are little-endian. On connect
//! the worker speaks first with a versioned **hello** carrying its
//! shard index, ranking size `k`, live count, and its partition bound
//! (pivot ranking + covering radius). Unknown versions fail the
//! handshake typed — they are never guessed at. A threshold reply
//! (version 2) carries `[local id u32][distance u32]` per result; one
//! with a distance above the requested `θ_raw` or a local id outside
//! the shard is a typed error, and nothing of it is merged.
//!
//! # Partition pruning
//!
//! The hello's pivot/radius pair lets the router skip shards that
//! cannot contain threshold results: by the triangle inequality, every
//! member `m` of a shard with pivot `p` and radius `r = max d(p, m)`
//! satisfies `d(q, m) ≥ d(q, p) − r`, so when
//! `d(q, p) > θ + r` the shard is provably empty for the query and is
//! not contacted at all ([`RemoteStats::fanout_pruned`] counts these).
//! Pruning is exact — it only ever skips shards whose result set is
//! empty — so pruned fan-out changes cost, never answers. Every top-k
//! round is such a threshold fan-out, so rounds prune too.
//!
//! # Stragglers and worker death
//!
//! Every read carries a per-worker timeout. A worker that misses it is
//! treated as a straggler: the router **hedges** — respawns a fresh
//! worker from the same snapshot and reissues the query there once
//! ([`RemoteStats::hedges`]). A worker that died (EOF, connection
//! reset, `SIGKILL`) is detected the same way on the next frame
//! ([`RemoteStats::worker_deaths`]), respawned from its snapshot, and
//! the query reissued. If the retry also fails the query fails
//! **typed** ([`RemoteError`]) — one query's failure never corrupts or
//! truncates another's results, and the respawned worker serves
//! subsequent queries normally.

use std::fmt;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::engine::{knn_by_radius, Algorithm, Engine};
use crate::persist::{
    load_engine, load_sharded_manifest, shard_snapshot_file, LoadMode, PersistError,
};
use crate::wal::crc32;
use ranksim_rankings::{ItemId, PositionMap, QueryStats, RankingId};

/// Protocol version spoken by both sides of the hello.
pub const PROTOCOL_VERSION: u32 = 2;

/// Sanity bound on a single frame (a 16M-ranking shard answer fits).
const MAX_FRAME: usize = 64 << 20;

/// Worker-side env var: path of the per-shard `RSSN` snapshot to load.
pub const ENV_SNAPSHOT: &str = "RANKSIM_REMOTE_SNAPSHOT";
/// Worker-side env var: Unix socket path to bind and serve on.
pub const ENV_SOCKET: &str = "RANKSIM_REMOTE_SOCKET";
/// Worker-side env var: this worker's shard index (echoed in hello).
pub const ENV_SHARD: &str = "RANKSIM_REMOTE_SHARD";

const OP_HELLO: u8 = 1;
const OP_THRESHOLD: u8 = 2;
const OP_THRESHOLD_RESP: u8 = 3;
const OP_SHUTDOWN: u8 = 6;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed failure of a distributed query or of router lifecycle. Errors
/// are **per query**: a failed query leaves the router serving, with
/// the affected worker respawned from its snapshot where possible.
#[derive(Debug)]
pub enum RemoteError {
    /// Opening the sharded snapshot (manifest or a shard file) failed.
    Persist(PersistError),
    /// Spawning or connecting to a shard worker failed.
    Spawn { shard: usize, detail: String },
    /// The worker's hello was malformed or version-incompatible.
    Handshake { shard: usize, detail: String },
    /// A frame violated the protocol (bad CRC, bad opcode, bad size).
    Protocol { shard: usize, detail: String },
    /// The worker missed its deadline and the hedged retry did too.
    TimedOut { shard: usize },
    /// The worker died (EOF/reset) and the respawn-and-retry failed.
    WorkerDied { shard: usize, detail: String },
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Persist(e) => write!(f, "snapshot: {e}"),
            RemoteError::Spawn { shard, detail } => {
                write!(f, "shard {shard}: worker spawn failed: {detail}")
            }
            RemoteError::Handshake { shard, detail } => {
                write!(f, "shard {shard}: handshake failed: {detail}")
            }
            RemoteError::Protocol { shard, detail } => {
                write!(f, "shard {shard}: protocol violation: {detail}")
            }
            RemoteError::TimedOut { shard } => {
                write!(f, "shard {shard}: worker timed out (hedged retry included)")
            }
            RemoteError::WorkerDied { shard, detail } => {
                write!(f, "shard {shard}: worker died: {detail}")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<PersistError> for RemoteError {
    fn from(e: PersistError) -> Self {
        RemoteError::Persist(e)
    }
}

// ---------------------------------------------------------------------
// Framing (WAL codec shape: [len][crc32][payload])
// ---------------------------------------------------------------------

fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame into `buf` (cleared first). A clean EOF before the
/// first header byte returns `UnexpectedEof` with an empty message so
/// callers can tell worker death from a torn frame.
fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
    let want = u32::from_le_bytes(head[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    let got = crc32(buf);
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: stored {want:#010x}, computed {got:#010x}"),
        ));
    }
    Ok(())
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> io::Result<u8> {
        let b = self
            .buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "payload truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "payload truncated"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "payload has trailing bytes",
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Hello
// ---------------------------------------------------------------------

/// One covering ball of a shard's partition bound: every live member
/// assigned to this pivot is within `radius` of it.
#[derive(Debug, Clone)]
pub struct PivotBound {
    /// The pivot ranking (a real shard member).
    pub pivot: Vec<ItemId>,
    /// `max d(pivot, member)` over the members this ball covers.
    pub radius: u32,
}

/// Pivots per shard in the hello's partition bound. One global ball is
/// useless on heavy-tailed corpora (its radius approaches the metric's
/// maximum); farthest-point-sampled sub-balls are tight enough to
/// prune with while staying exact — a shard is skipped only when
/// *every* ball excludes the query. The cap must be large enough that
/// the sampler can promote a shard's unclustered outliers (pairwise
/// near-disjoint rankings that no shared ball can cover tightly) to
/// singleton balls of their own; 16 was measured to leave every ball
/// at the metric's ceiling on zipf-tailed shards, disabling pruning.
const MAX_PIVOTS: usize = 256;

/// Farthest-point sampling stops early once every member is within
/// `min(RADIUS_TIGHT, ceiling/4)` of a pivot (ceiling = `k(k+1)`, the
/// maximum footrule distance between two k-rankings): balls tighter
/// than the intra-cluster perturbation diameter no longer change
/// which shards prune.
const RADIUS_TIGHT: u32 = 24;

/// What a worker announces on connect: protocol version, identity, and
/// the partition bound the router prunes with.
#[derive(Debug, Clone)]
pub struct WorkerHello {
    /// The shard this worker serves (echo of [`ENV_SHARD`]).
    pub shard: u32,
    /// Ranking size of the loaded shard engine.
    pub k: u32,
    /// Live rankings in the shard.
    pub live: u32,
    /// Covering balls over the live members (empty iff the shard is).
    /// Every member lies inside at least one ball.
    pub bounds: Vec<PivotBound>,
}

impl WorkerHello {
    fn encode(&self) -> Vec<u8> {
        let per_bound = 8 + 4 * self.k as usize;
        let mut p = Vec::with_capacity(21 + per_bound * self.bounds.len());
        p.push(OP_HELLO);
        put_u32(&mut p, PROTOCOL_VERSION);
        put_u32(&mut p, self.shard);
        put_u32(&mut p, self.k);
        put_u32(&mut p, self.live);
        put_u32(&mut p, self.bounds.len() as u32);
        for b in &self.bounds {
            put_u32(&mut p, b.radius);
            for item in &b.pivot {
                put_u32(&mut p, item.0);
            }
        }
        p
    }

    fn decode(payload: &[u8]) -> io::Result<WorkerHello> {
        let mut c = Cursor::new(payload);
        if c.u8()? != OP_HELLO {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected hello opcode",
            ));
        }
        let version = c.u32()?;
        if version != PROTOCOL_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("protocol version {version}, this router speaks {PROTOCOL_VERSION}"),
            ));
        }
        let shard = c.u32()?;
        let k = c.u32()?;
        let live = c.u32()?;
        let nbounds = c.u32()? as usize;
        if nbounds > MAX_PIVOTS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{nbounds} pivot balls exceed the {MAX_PIVOTS}-ball bound"),
            ));
        }
        let mut bounds = Vec::with_capacity(nbounds);
        for _ in 0..nbounds {
            let radius = c.u32()?;
            let mut pivot = Vec::with_capacity(k as usize);
            for _ in 0..k {
                pivot.push(ItemId(c.u32()?));
            }
            bounds.push(PivotBound { pivot, radius });
        }
        c.done()?;
        Ok(WorkerHello {
            shard,
            k,
            live,
            bounds,
        })
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Loads the per-shard snapshot at `snapshot`, binds `socket`, and
/// serves queries until the router disconnects or sends a shutdown
/// frame. This is the entire body of a shard worker process; the
/// benchmark's `shard-worker` subcommand and the test-binary worker are
/// thin wrappers that call it (usually through [`serve_from_env`]).
///
/// The snapshot loads in [`LoadMode::Verify`] — a worker spawned from
/// a torn or bit-flipped shard file refuses to serve rather than
/// answering wrong.
pub fn serve_shard(snapshot: &Path, socket: &Path, shard: u32) -> Result<(), RemoteError> {
    let (engine, _meta) = load_engine(snapshot, LoadMode::Verify)?;
    let hello = hello_for(&engine, shard);
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket).map_err(|e| RemoteError::Spawn {
        shard: shard as usize,
        detail: format!("bind {}: {e}", socket.display()),
    })?;
    let (mut conn, _addr) = listener.accept().map_err(|e| RemoteError::Spawn {
        shard: shard as usize,
        detail: format!("accept: {e}"),
    })?;
    let io_err = |e: io::Error| RemoteError::Protocol {
        shard: shard as usize,
        detail: e.to_string(),
    };
    write_frame(&mut conn, &hello.encode()).map_err(io_err)?;
    let mut scratch = engine.scratch();
    let mut stats = QueryStats::default();
    let mut frame = Vec::new();
    let mut query = Vec::new();
    let mut local = Vec::new();
    let mut pairs = Vec::new();
    let mut resp = Vec::new();
    loop {
        match read_frame(&mut conn, &mut frame) {
            Ok(()) => {}
            // Router gone: a worker outliving its router is a leak.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(io_err(e)),
        }
        let mut c = Cursor::new(&frame);
        match c.u8().map_err(io_err)? {
            OP_THRESHOLD => {
                let alg_tag = c.u32().map_err(io_err)?;
                let theta_raw = c.u32().map_err(io_err)?;
                read_query(&mut c, engine.store().k(), &mut query).map_err(io_err)?;
                let algorithm = decode_algorithm(alg_tag).map_err(io_err)?;
                pairs.clear();
                engine.query_distances_into(
                    algorithm,
                    &query,
                    theta_raw,
                    &mut scratch,
                    &mut stats,
                    &mut local,
                    &mut pairs,
                );
                resp.clear();
                resp.push(OP_THRESHOLD_RESP);
                put_u32(&mut resp, pairs.len() as u32);
                for (d, id) in &pairs {
                    put_u32(&mut resp, id.0);
                    put_u32(&mut resp, *d);
                }
                write_frame(&mut conn, &resp).map_err(io_err)?;
            }
            OP_SHUTDOWN => return Ok(()),
            op => {
                return Err(RemoteError::Protocol {
                    shard: shard as usize,
                    detail: format!("unexpected opcode {op}"),
                })
            }
        }
    }
}

/// [`serve_shard`] configured from [`ENV_SNAPSHOT`], [`ENV_SOCKET`]
/// and [`ENV_SHARD`] — the environment [`RemoteShardedEngine`] sets on
/// every worker it spawns. Returns `Ok(false)` without serving when
/// the variables are absent, so a dormant entrypoint (a `#[test]`
/// worker, a hidden subcommand) can call it unconditionally.
pub fn serve_from_env() -> Result<bool, RemoteError> {
    let (Ok(snapshot), Ok(socket)) = (std::env::var(ENV_SNAPSHOT), std::env::var(ENV_SOCKET))
    else {
        return Ok(false);
    };
    let shard: u32 = std::env::var(ENV_SHARD)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    serve_shard(Path::new(&snapshot), Path::new(&socket), shard)?;
    Ok(true)
}

/// Farthest-point sampling of up to [`MAX_PIVOTS`] covering balls over
/// the shard's live members: start from the first live ranking, then
/// repeatedly promote the member farthest from every existing pivot to
/// a pivot of its own, reassigning members to their nearest pivot.
/// Each ball's radius is the max nearest-pivot distance of the members
/// it covers, so every member provably lies inside its ball — the
/// invariant the router's pruning rule rests on.
fn hello_for(engine: &Engine, shard: u32) -> WorkerHello {
    let store = engine.store();
    let live: Vec<RankingId> = (0..store.len() as u32)
        .map(RankingId)
        .filter(|&id| store.is_live(id))
        .collect();
    let k = store.k() as u32;
    let tight = RADIUS_TIGHT.min(k * (k + 1) / 4);
    let mut bounds = Vec::new();
    if let Some(&first) = live.first() {
        let mut pivots: Vec<Vec<ItemId>> = vec![store.items(first).to_vec()];
        let map = PositionMap::new(&pivots[0]);
        let mut nearest: Vec<u32> = live
            .iter()
            .map(|&id| map.distance_to(store.items(id)))
            .collect();
        let mut assign = vec![0usize; live.len()];
        while pivots.len() < MAX_PIVOTS {
            let (far, &dmax) = match nearest.iter().enumerate().max_by_key(|(_, d)| **d) {
                Some(m) => m,
                None => break,
            };
            if dmax <= tight {
                break; // every member already sits in a tight ball
            }
            let items = store.items(live[far]).to_vec();
            let map = PositionMap::new(&items);
            let pi = pivots.len();
            for (m, &id) in live.iter().enumerate() {
                let d = map.distance_to(store.items(id));
                if d < nearest[m] {
                    nearest[m] = d;
                    assign[m] = pi;
                }
            }
            pivots.push(items);
        }
        let mut radii = vec![0u32; pivots.len()];
        for (m, &p) in assign.iter().enumerate() {
            radii[p] = radii[p].max(nearest[m]);
        }
        bounds = pivots
            .into_iter()
            .zip(radii)
            .map(|(pivot, radius)| PivotBound { pivot, radius })
            .collect();
    }
    WorkerHello {
        shard,
        k: store.k() as u32,
        live: engine.live_len() as u32,
        bounds,
    }
}

fn read_query(c: &mut Cursor<'_>, k: usize, out: &mut Vec<ItemId>) -> io::Result<()> {
    let len = c.u32()? as usize;
    if len != k {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("query of {len} items against a k={k} shard"),
        ));
    }
    out.clear();
    for _ in 0..len {
        out.push(ItemId(c.u32()?));
    }
    c.done()
}

fn decode_algorithm(tag: u32) -> io::Result<Algorithm> {
    if tag == u32::MAX {
        return Ok(Algorithm::Auto);
    }
    Algorithm::from_dense_index(tag as usize).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown algorithm tag {tag}"),
        )
    })
}

fn encode_algorithm(algorithm: Algorithm) -> u32 {
    algorithm.dense_index().map_or(u32::MAX, |i| i as u32)
}

// ---------------------------------------------------------------------
// Router side
// ---------------------------------------------------------------------

/// How the router starts a shard worker process. The spec names the
/// program and fixed arguments; the router supplies the per-worker
/// snapshot/socket/shard environment ([`ENV_SNAPSHOT`] etc.) on top.
/// Stdout/stderr are nulled — a worker is a service, not a console.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl WorkerSpec {
    /// A spec running `program` with no extra arguments.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerSpec {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// Appends a fixed command-line argument.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Appends a fixed environment variable.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }
}

/// Router tunables. The defaults suit tests and local benches; a real
/// deployment would stretch the spawn timeout to cover cold page
/// caches.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Per-query, per-worker response deadline. A miss triggers the
    /// hedged respawn-and-reissue; a second miss fails the query typed.
    pub read_timeout: Duration,
    /// How long to wait for a spawned worker to bind its socket and
    /// speak its hello (covers snapshot load time).
    pub spawn_timeout: Duration,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            read_timeout: Duration::from_secs(10),
            spawn_timeout: Duration::from_secs(30),
        }
    }
}

/// Fan-out accounting, reset by [`RemoteShardedEngine::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Queries routed (threshold + top-k).
    pub queries: u64,
    /// (query, worker) requests actually sent.
    pub fanout_sent: u64,
    /// (query, worker) pairs skipped by the pivot/radius bound.
    pub fanout_pruned: u64,
    /// Straggler hedges: timeout → respawn → reissue.
    pub hedges: u64,
    /// Dead workers detected (EOF/reset/kill).
    pub worker_deaths: u64,
    /// Workers respawned from their snapshot.
    pub respawns: u64,
}

struct RemoteWorker {
    shard: usize,
    snapshot: PathBuf,
    socket: PathBuf,
    child: Child,
    conn: UnixStream,
    hello: WorkerHello,
    /// Translation applied to every local id this worker returns.
    globals: Vec<RankingId>,
}

/// Distinguishes a straggler (hedge) from a dead worker (respawn) in
/// the per-request error path.
enum RequestFailure {
    Timeout,
    Died(String),
}

/// The distributed counterpart of [`ShardedEngine`]: spawns one worker
/// process per present shard of a sharded `RSSN` snapshot directory
/// and serves exact queries over them. See the module docs for the
/// protocol, the pruning rule, and the failure semantics.
///
/// Dropping the router shuts the fleet down: best-effort shutdown
/// frames, then kill + reap, then socket-dir removal.
///
/// [`ShardedEngine`]: crate::shard::ShardedEngine
pub struct RemoteShardedEngine {
    k: usize,
    spec: WorkerSpec,
    options: RemoteOptions,
    socket_dir: PathBuf,
    workers: Vec<RemoteWorker>,
    stats: RemoteStats,
    /// Distinguishes respawn sockets from the originals.
    spawn_seq: u64,
}

/// Distinguishes concurrently-launched routers in one process.
static ROUTER_SEQ: AtomicU64 = AtomicU64::new(0);

impl RemoteShardedEngine {
    /// Opens the sharded snapshot at `dir` (manifest only — the router
    /// never loads an engine) and spawns one worker per present shard
    /// via `spec`. Returns once every worker answered its hello.
    pub fn launch(
        dir: &Path,
        spec: WorkerSpec,
        options: RemoteOptions,
    ) -> Result<Self, RemoteError> {
        let manifest = load_sharded_manifest(dir)?;
        let seq = ROUTER_SEQ.fetch_add(1, Ordering::Relaxed);
        let socket_dir =
            std::env::temp_dir().join(format!("ranksim-remote-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&socket_dir).map_err(|e| RemoteError::Spawn {
            shard: 0,
            detail: format!("socket dir {}: {e}", socket_dir.display()),
        })?;
        let mut router = RemoteShardedEngine {
            k: manifest.k,
            spec,
            options,
            socket_dir,
            workers: Vec::new(),
            stats: RemoteStats::default(),
            spawn_seq: 0,
        };
        for shard in 0..manifest.num_shards {
            if !manifest.engine_present[shard] {
                continue;
            }
            let snapshot = shard_snapshot_file(dir, shard);
            let globals = manifest.globals[shard].clone();
            let worker = router.spawn_worker(shard, snapshot, globals)?;
            if worker.hello.k as usize != manifest.k {
                return Err(RemoteError::Handshake {
                    shard,
                    detail: format!(
                        "worker serves k={}, manifest says k={}",
                        worker.hello.k, manifest.k
                    ),
                });
            }
            router.workers.push(worker);
        }
        Ok(router)
    }

    /// Ranking size every worker serves.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Live worker processes (one per present shard).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The hello each worker announced (shard identity + the
    /// pivot/radius bound the router prunes with), in worker order.
    pub fn worker_hellos(&self) -> impl Iterator<Item = &WorkerHello> {
        self.workers.iter().map(|w| &w.hello)
    }

    /// Fan-out/failure counters since the last [`take_stats`].
    ///
    /// [`take_stats`]: RemoteShardedEngine::take_stats
    pub fn stats(&self) -> RemoteStats {
        self.stats
    }

    /// Returns and resets the counters.
    pub fn take_stats(&mut self) -> RemoteStats {
        std::mem::take(&mut self.stats)
    }

    /// `SIGKILL`s the worker currently serving shard `shard` without
    /// telling the router's request path — the next query to that
    /// shard discovers the death (EOF), respawns from the snapshot,
    /// and reissues. Test/chaos hook for the failover machinery.
    pub fn kill_worker(&mut self, shard: usize) -> bool {
        for w in &mut self.workers {
            if w.shard == shard {
                let _ = w.child.kill();
                let _ = w.child.wait();
                return true;
            }
        }
        false
    }

    /// Exact threshold query: every live ranking within `theta_raw` of
    /// `query`, as ascending global ids — bit-identical to
    /// [`ShardedEngine::query_items`](crate::shard::ShardedEngine::query_items)
    /// and the monolith. Shards whose pivot/radius bound proves them
    /// empty are pruned from the fan-out.
    pub fn query_threshold(
        &mut self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
    ) -> Result<Vec<RankingId>, RemoteError> {
        assert_eq!(
            query.len(),
            self.k,
            "query size must match the corpus ranking size"
        );
        self.stats.queries += 1;
        let mut pairs = Vec::new();
        self.fan_out(algorithm, query, theta_raw, &mut pairs)?;
        // Same reassembly as the in-process engine: per-shard sets are
        // disjoint, concatenate then one ascending sort.
        let mut out: Vec<RankingId> = pairs.into_iter().map(|(_, id)| id).collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Exact top-k: the `neighbours` nearest rankings as ascending
    /// `(distance, global id)` pairs — bit-identical to
    /// [`ShardedEngine::query_topk`](crate::shard::ShardedEngine::query_topk).
    /// The radius rounds run here; each is one pruned threshold fan-out
    /// (`Auto` on every worker), counted in the fan-out stats.
    pub fn query_topk(
        &mut self,
        query: &[ItemId],
        neighbours: usize,
    ) -> Result<Vec<(u32, RankingId)>, RemoteError> {
        assert_eq!(
            query.len(),
            self.k,
            "query size must match the corpus ranking size"
        );
        self.stats.queries += 1;
        let live: usize = self.workers.iter().map(|w| w.hello.live as usize).sum();
        let neighbours = neighbours.min(live);
        if neighbours == 0 {
            return Ok(Vec::new());
        }
        knn_by_radius(self.k, neighbours, |theta_raw, pairs| {
            self.fan_out(Algorithm::Auto, query, theta_raw, pairs)
        })
    }

    /// One threshold request to every worker [`prune`] cannot skip;
    /// appends each result's `(distance, global id)` to `out`.
    fn fan_out(
        &mut self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        out: &mut Vec<(u32, RankingId)>,
    ) -> Result<(), RemoteError> {
        let mut req = Vec::with_capacity(13 + 4 * query.len());
        req.push(OP_THRESHOLD);
        put_u32(&mut req, encode_algorithm(algorithm));
        put_u32(&mut req, theta_raw);
        put_u32(&mut req, query.len() as u32);
        for item in query {
            put_u32(&mut req, item.0);
        }
        for wi in 0..self.workers.len() {
            if prune(&self.workers[wi].hello, query, theta_raw) {
                self.stats.fanout_pruned += 1;
                continue;
            }
            let resp = self.request(wi, &req)?;
            let worker = &self.workers[wi];
            decode_threshold_reply(&resp, worker.shard, &worker.globals, theta_raw, out)?;
        }
        Ok(())
    }

    /// Sends `req` to worker `wi` and reads the response, hedging to a
    /// respawned worker on a straggler timeout and failing over to one
    /// on worker death. One retry; a second failure is typed.
    fn request(&mut self, wi: usize, req: &[u8]) -> Result<Vec<u8>, RemoteError> {
        self.stats.fanout_sent += 1;
        match self.request_once(wi, req) {
            Ok(resp) => Ok(resp),
            Err(failure) => {
                let shard = self.workers[wi].shard;
                match &failure {
                    RequestFailure::Timeout => self.stats.hedges += 1,
                    RequestFailure::Died(_) => self.stats.worker_deaths += 1,
                }
                self.respawn(wi)?;
                self.stats.fanout_sent += 1;
                match self.request_once(wi, req) {
                    Ok(resp) => Ok(resp),
                    Err(RequestFailure::Timeout) => Err(RemoteError::TimedOut { shard }),
                    Err(RequestFailure::Died(detail)) => {
                        Err(RemoteError::WorkerDied { shard, detail })
                    }
                }
            }
        }
    }

    fn request_once(&mut self, wi: usize, req: &[u8]) -> Result<Vec<u8>, RequestFailure> {
        let worker = &mut self.workers[wi];
        let classify = |e: io::Error| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestFailure::Timeout,
            _ => RequestFailure::Died(e.to_string()),
        };
        write_frame(&mut worker.conn, req).map_err(classify)?;
        let mut resp = Vec::new();
        read_frame(&mut worker.conn, &mut resp).map_err(classify)?;
        Ok(resp)
    }

    /// Kills whatever is left of worker `wi` and starts a replacement
    /// from the same snapshot on a fresh socket.
    fn respawn(&mut self, wi: usize) -> Result<(), RemoteError> {
        let (shard, snapshot, globals) = {
            let w = &mut self.workers[wi];
            let _ = w.child.kill();
            let _ = w.child.wait();
            let _ = std::fs::remove_file(&w.socket);
            (w.shard, w.snapshot.clone(), w.globals.clone())
        };
        let fresh = self.spawn_worker(shard, snapshot, globals)?;
        self.stats.respawns += 1;
        self.workers[wi] = fresh;
        Ok(())
    }

    fn spawn_worker(
        &mut self,
        shard: usize,
        snapshot: PathBuf,
        globals: Vec<RankingId>,
    ) -> Result<RemoteWorker, RemoteError> {
        self.spawn_seq += 1;
        let socket = self
            .socket_dir
            .join(format!("shard-{shard}.{}.sock", self.spawn_seq));
        let spawn_err = |detail: String| RemoteError::Spawn { shard, detail };
        let mut cmd = Command::new(&self.spec.program);
        cmd.args(&self.spec.args)
            .envs(self.spec.envs.iter().map(|(k, v)| (k, v)))
            .env(ENV_SNAPSHOT, &snapshot)
            .env(ENV_SOCKET, &socket)
            .env(ENV_SHARD, shard.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().map_err(|e| spawn_err(e.to_string()))?;
        // The worker binds the socket only after its snapshot loaded;
        // a successful connect doubles as the readiness signal.
        let deadline = Instant::now() + self.options.spawn_timeout;
        let conn = loop {
            match UnixStream::connect(&socket) {
                Ok(conn) => break conn,
                Err(_) if Instant::now() < deadline => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker exited during startup: {status}")));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(spawn_err(format!(
                        "no socket within {:?}: {e}",
                        self.options.spawn_timeout
                    )));
                }
            }
        };
        conn.set_read_timeout(Some(self.options.read_timeout))
            .map_err(|e| spawn_err(e.to_string()))?;
        let mut conn = conn;
        let mut frame = Vec::new();
        let handshake_err = |detail: String| RemoteError::Handshake { shard, detail };
        read_frame(&mut conn, &mut frame).map_err(|e| handshake_err(e.to_string()))?;
        let hello = WorkerHello::decode(&frame).map_err(|e| handshake_err(e.to_string()))?;
        if hello.shard as usize != shard {
            return Err(handshake_err(format!(
                "worker announced shard {}, expected {shard}",
                hello.shard
            )));
        }
        // The manifest maps every local *slot*; rankings removed before
        // the save leave dead slots, so live may fall short of it.
        if hello.live as usize > globals.len() {
            return Err(handshake_err(format!(
                "worker serves {} live rankings, manifest maps only {} slots",
                hello.live,
                globals.len()
            )));
        }
        Ok(RemoteWorker {
            shard,
            snapshot,
            socket,
            child,
            conn,
            hello,
            globals,
        })
    }
}

/// The exact pruning bound: skip the shard iff **every** covering ball
/// excludes the query — `d(query, pivot) > theta + radius` for each
/// ball (u64 arithmetic: both sides fit u32 individually but their sum
/// may not). Every member lies in some ball, so a skipped shard
/// provably holds no result; a shard with no bound is never skipped.
fn prune(hello: &WorkerHello, query: &[ItemId], theta_raw: u32) -> bool {
    if hello.bounds.is_empty() {
        return false;
    }
    let map = PositionMap::new(query);
    hello
        .bounds
        .iter()
        .all(|b| map.distance_to(&b.pivot) as u64 > theta_raw as u64 + b.radius as u64)
}

/// Decodes one threshold reply into `(distance, global id)` pairs
/// appended to `out`. A reply that is malformed, names a local id
/// outside the shard or a distance above `theta_raw` is a typed
/// protocol error, and nothing of it is merged.
fn decode_threshold_reply(
    resp: &[u8],
    shard: usize,
    globals: &[RankingId],
    theta_raw: u32,
    out: &mut Vec<(u32, RankingId)>,
) -> Result<(), RemoteError> {
    let start = out.len();
    let bad = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
    let decoded = (|| {
        let mut c = Cursor::new(resp);
        if c.u8()? != OP_THRESHOLD_RESP {
            return Err(bad("expected threshold response".into()));
        }
        for _ in 0..c.u32()? {
            let (local, d) = (c.u32()?, c.u32()?);
            match globals.get(local as usize) {
                Some(&global) if d <= theta_raw => out.push((d, global)),
                _ => {
                    return Err(bad(format!(
                        "worker returned local id {local} at distance {d}; the shard \
                         holds {} slots, the request asked for θ_raw ≤ {theta_raw}",
                        globals.len()
                    )))
                }
            }
        }
        c.done()
    })();
    decoded.map_err(|e| {
        out.truncate(start);
        RemoteError::Protocol {
            shard,
            detail: e.to_string(),
        }
    })
}

impl Drop for RemoteShardedEngine {
    fn drop(&mut self) {
        for w in &mut self.workers {
            let shutdown = [OP_SHUTDOWN];
            let _ = write_frame(&mut w.conn, &shutdown);
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.socket_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello frames").unwrap();
        let mut buf = Vec::new();
        read_frame(&mut &wire[..], &mut buf).unwrap();
        assert_eq!(buf, b"hello frames");

        let mut torn = wire.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x40;
        let err = read_frame(&mut &torn[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = read_frame(&mut &wire[..4], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hello_round_trips_and_rejects_foreign_versions() {
        let hello = WorkerHello {
            shard: 3,
            k: 4,
            live: 17,
            bounds: vec![
                PivotBound {
                    pivot: vec![ItemId(9), ItemId(2), ItemId(5), ItemId(0)],
                    radius: 42,
                },
                PivotBound {
                    pivot: vec![ItemId(1), ItemId(3), ItemId(7), ItemId(8)],
                    radius: 6,
                },
            ],
        };
        let back = WorkerHello::decode(&hello.encode()).unwrap();
        assert_eq!(back.shard, 3);
        assert_eq!(back.k, 4);
        assert_eq!(back.live, 17);
        assert_eq!(back.bounds.len(), 2);
        assert_eq!(back.bounds[0].pivot, hello.bounds[0].pivot);
        assert_eq!(back.bounds[0].radius, 42);
        assert_eq!(back.bounds[1].radius, 6);

        // Version 1 threshold replies carry no distances: refused.
        for version in [1u32, 3] {
            let mut foreign = hello.encode();
            foreign[1..5].copy_from_slice(&version.to_le_bytes());
            assert!(
                WorkerHello::decode(&foreign).is_err(),
                "v{version} accepted"
            );
        }
    }

    #[test]
    fn forged_threshold_replies_are_typed_errors_and_merge_nothing() {
        let globals = [RankingId(40), RankingId(41), RankingId(42)];
        let reply = |words: &[u32]| {
            let mut p = vec![OP_THRESHOLD_RESP];
            words.iter().for_each(|&w| put_u32(&mut p, w));
            p
        };
        // `[count]` then `[local, distance]` per result, at θ_raw = 9.
        let mut out = vec![(0, RankingId(7))];
        decode_threshold_reply(&reply(&[2, 2, 5, 0, 9]), 1, &globals, 9, &mut out).unwrap();
        assert_eq!(
            out,
            [(0, RankingId(7)), (5, RankingId(42)), (9, RankingId(40))]
        );
        // After one honest pair: a distance above θ_raw, a local id
        // outside the shard, and the version-1 layout (ids only).
        for forged in [&[2, 1, 3, 2, 10][..], &[2, 1, 3, 3, 0], &[2, 1, 3]] {
            let mut out = vec![(0, RankingId(7))];
            let err = decode_threshold_reply(&reply(forged), 1, &globals, 9, &mut out).unwrap_err();
            assert!(
                matches!(err, RemoteError::Protocol { shard: 1, .. }),
                "{err}"
            );
            assert_eq!(out, [(0, RankingId(7))], "a forged reply merged pairs");
        }
    }

    #[test]
    fn algorithm_tags_round_trip_including_auto() {
        for alg in Algorithm::ALL {
            assert_eq!(decode_algorithm(encode_algorithm(alg)).unwrap(), alg);
        }
        assert_eq!(
            decode_algorithm(encode_algorithm(Algorithm::Auto)).unwrap(),
            Algorithm::Auto
        );
        assert!(decode_algorithm(99).is_err());
    }

    #[test]
    fn prune_bound_is_conservative() {
        let ball = PivotBound {
            pivot: vec![ItemId(0), ItemId(1), ItemId(2)],
            radius: 4,
        };
        let far = [ItemId(10), ItemId(11), ItemId(12)];
        let d = ranksim_rankings::footrule_items(&ball.pivot, &far);
        let radius = ball.radius;
        let hello = WorkerHello {
            shard: 0,
            k: 3,
            live: 2,
            bounds: vec![ball.clone()],
        };
        // Right at the bound the shard must still be contacted.
        assert!(!prune(&hello, &far, d - radius));
        // One past it, pruning is safe.
        assert!(prune(&hello, &far, d - radius - 1));
        // A second ball that admits the query vetoes the prune: every
        // ball must exclude before the shard is skipped.
        let near = WorkerHello {
            bounds: vec![
                ball,
                PivotBound {
                    pivot: far.to_vec(),
                    radius: 0,
                },
            ],
            ..hello.clone()
        };
        assert!(!prune(&near, &far, 0));
        // An empty shard (no balls) is never pruned by the bound.
        let empty = WorkerHello {
            bounds: Vec::new(),
            ..hello
        };
        assert!(!prune(&empty, &far, 0));
    }
}
