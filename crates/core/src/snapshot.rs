//! RCU-style snapshot engine: reads never block on writes.
//!
//! Every [`Engine`] mutation takes `&mut self`, so a serving deployment
//! built directly on one engine stalls every concurrent reader for the
//! whole duration of an insert — or, much worse, a compaction rebuild.
//! [`SnapshotEngine`] removes that coupling with a classic epoch /
//! read-copy-update arrangement over a chain of immutable engine
//! *generations*:
//!
//! * **Readers** call [`SnapshotEngine::snapshot`] and get an
//!   [`EngineSnapshot`]: an `Arc` onto the currently published
//!   generation. Acquisition is one `RwLock` read plus one atomic
//!   refcount increment — no allocation, and never blocked by a writer
//!   (the head lock is only ever write-held for a pointer swap). The
//!   snapshot is a fully frozen [`Engine`]; queries against it are
//!   bit-identical to a monolith that stopped mutating at the
//!   snapshot's log position, for as long as the snapshot is held.
//! * **Writers** apply mutations synchronously to a private *master*
//!   engine under a mutex and append the operation to a log. Writers
//!   therefore serialize with each other (and pay for any master-side
//!   auto-compaction), but never touch the published generation.
//! * A background **publisher** thread replays the accumulated log
//!   suffix into a standby replica off-lock, then publishes it as the
//!   next generation with a pointer swap. Two replicas ping-pong
//!   through this role; replaying the *same deterministic op sequence*
//!   from the same seed state keeps master and replicas bit-identical
//!   at equal log positions (ranking-id assignment is a pure function
//!   of store state, and auto-compaction triggers at the same op index
//!   because every engine runs the same [`crate::EngineConfig`]).
//!
//! **Reclamation rule:** after a swap the publisher reclaims the
//! retiring generation by waiting for its `Arc` refcount to drop to
//! one ([`Arc::try_unwrap`] in a bounded spin). A straggler reader
//! that pins the retiring snapshot past the bound does not stall
//! publication: the publisher *abandons* the pinned generation (the
//! readers holding it free it when they drop it) and forks the freshly
//! published head as the new standby instead. Readers never wait on
//! writers; the publisher never waits unboundedly on readers.
//!
//! Freshness is bounded-staleness: a read admitted while the publisher
//! is mid-replay sees the previous generation. [`SnapshotEngine::flush`]
//! blocks until everything written so far is visible to new snapshots.
//!
//! Scratch reuse stays sound across swaps because every engine build,
//! fork and mutation draws a process-unique generation stamp (PR 5's
//! scheme): a [`QueryScratch`] that last served a different snapshot
//! observes a different stamp and re-arms its epoch structures.
//!
//! # Durability
//!
//! The mutation log doubles as a write-ahead log. An engine built with
//! [`SnapshotEngine::with_wal`] appends every accepted [`LogOp`] to a
//! checksummed on-disk log (see [`crate::wal`]) *inside the writer
//! critical section, before the mutation is acknowledged*, under a
//! configurable [`SyncPolicy`]. After a crash,
//! [`SnapshotEngine::recover`] rebuilds the corpus by replaying the
//! log's valid prefix onto the same base corpus the WAL was started
//! from, truncating any torn tail, and resumes appending where the
//! valid prefix ended — replay determinism (the property the replicas
//! already rely on) makes the recovered engine bit-identical to one
//! that applied exactly those operations and never crashed.
//!
//! **WAL failure is fail-stop for writes, not for reads.** If an
//! append or sync fails (disk full, injected fault), the op that hit
//! the failure *may* still become visible to snapshots — master and
//! replicas must not diverge, so the in-memory log keeps it — but it
//! is reported as [`MutationError::WalFailed`] because its durability
//! is not guaranteed, and every subsequent mutation is refused with
//! the same error. Reads keep serving the published generation
//! indefinitely; [`SnapshotEngine::health`] surfaces the failure so an
//! operator (or the serving layer) can fail over.
//!
//! Publisher death is surfaced the same way: the publisher thread runs
//! under `catch_unwind`, records its panic, and trips a flag that
//! [`SnapshotEngine::health`] reports and that stops
//! [`SnapshotEngine::flush`] from blocking forever. Snapshots keep
//! serving the last published generation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use crate::batch::panic_message;
use crate::engine::Engine;
use crate::persist::{load_engine, save_engine, LoadMode, PersistError, SnapshotMeta};
use crate::wal::{read_wal, LogOp, RecoveryReport, SyncPolicy, WalError, WalWriter};
use ranksim_rankings::{validate_items, ItemId, RankingError, RankingId};

/// How long the publisher waits for straggler readers to release a
/// retiring generation before abandoning it and forking the head.
const RECLAIM_WAIT: Duration = Duration::from_millis(10);

/// How often a blocked [`SnapshotEngine::wait_until_published`] wakes
/// to re-check whether the publisher died.
const PUBLISH_POLL: Duration = Duration::from_millis(25);

/// Why a mutation was refused by the `try_*` mutation API.
#[derive(Debug)]
pub enum MutationError {
    /// The ranking failed validation (wrong length, duplicate item);
    /// nothing was applied or logged.
    Invalid(RankingError),
    /// The write-ahead log failed on this or an earlier mutation. The
    /// engine is fail-stop for writes (reads keep serving); the op
    /// that first hit the failure may be visible but is not durable.
    WalFailed(String),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Invalid(e) => write!(f, "invalid ranking: {e}"),
            MutationError::WalFailed(msg) => write!(f, "wal failed: {msg}"),
        }
    }
}

impl std::error::Error for MutationError {}

/// A point-in-time liveness report for the engine's moving parts,
/// cheap enough to poll from a serving loop.
#[derive(Debug, Clone)]
pub struct Health {
    /// The publisher thread is running (snapshots keep getting
    /// fresher). `false` after shutdown began or the publisher died.
    pub publisher_alive: bool,
    /// The publisher's panic message, if it died by panic.
    pub publisher_panic: Option<String>,
    /// The WAL's fail-stop marker, if an append or sync failed.
    pub wal_failure: Option<String>,
    /// Absolute log position of the last accepted mutation.
    pub writer_pos: u64,
    /// Absolute log position covered by the published head.
    pub published_pos: u64,
    /// Generations abandoned to straggler readers (observability).
    pub abandoned_generations: u64,
}

impl Health {
    /// `true` when writes are durable and snapshots are advancing.
    pub fn is_healthy(&self) -> bool {
        self.publisher_alive && self.wal_failure.is_none()
    }
}

/// One published generation: a frozen engine plus the absolute log
/// position it reflects.
struct Generation {
    engine: Engine,
    /// Number of log operations folded into `engine` (absolute, never
    /// reset by log truncation).
    log_pos: u64,
}

/// Writer-side state: the master engine, the mutation log, and the
/// optional write-ahead log mirroring it on disk.
struct WriterState {
    master: Engine,
    /// Operations not yet truncated; `log[0]` is absolute position
    /// `log_base`.
    log: Vec<LogOp>,
    /// Absolute log position of `log[0]`.
    log_base: u64,
    /// On-disk mirror of the log; `None` for a volatile engine.
    wal: Option<WalWriter>,
    /// Absolute log position of the WAL file's **first** record — 0
    /// for a fresh log, the checkpoint position after
    /// [`SnapshotEngine::checkpoint_and_truncate`]. Snapshots record
    /// it so recovery can verify the WAL tail lines up.
    wal_base: u64,
}

impl WriterState {
    fn end_pos(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    /// Refuses mutations once the WAL is fail-stop.
    fn check_wal(&self) -> Result<(), MutationError> {
        match self.wal.as_ref().and_then(|wal| wal.failure()) {
            Some(msg) => Err(MutationError::WalFailed(msg.to_string())),
            None => Ok(()),
        }
    }

    /// Appends `op` to the WAL (no-op for volatile engines). Called
    /// before the op is acknowledged to the caller.
    fn append_wal(&mut self, op: &LogOp) -> Result<(), MutationError> {
        match &mut self.wal {
            Some(wal) => wal
                .append(op)
                .map(|_| ())
                .map_err(|e| MutationError::WalFailed(e.to_string())),
            None => Ok(()),
        }
    }
}

struct Shared {
    writer: Mutex<WriterState>,
    /// The published generation; write-held only for the publish swap.
    head: RwLock<Arc<Generation>>,
    /// Log position covered by `head`, for `wait_until_published`.
    published: Mutex<u64>,
    published_cv: Condvar,
    /// Wakes the publisher when the log grows (or on shutdown).
    pending_cv: Condvar,
    shutdown: AtomicBool,
    /// Set when the publisher thread exits (cleanly or by panic), so
    /// waiters stop blocking on publication that will never come.
    publisher_down: AtomicBool,
    /// The publisher's panic message, if it died by panic.
    publisher_panic: Mutex<Option<String>>,
    /// Test hook: makes the publisher panic at its next wakeup.
    panic_requested: AtomicBool,
    /// Generations abandoned to straggler readers (observability).
    abandoned: AtomicU64,
}

/// Ignores mutex poisoning: every critical section either mutates
/// nothing before its only panic point (validation panics precede the
/// first store write, `insert_ranking_at` asserts slot freedom before
/// touching it) or performs non-panicking pointer/counter work, so the
/// protected state is consistent even after an unwind. This is what
/// keeps one panicking writer from wedging every subsequent reader and
/// writer.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An epoch/RCU snapshot layer over [`Engine`] (see the module docs):
/// `&self` mutations, wait-free reads against immutable published
/// generations, off-thread index publication, and optional crash-safe
/// durability via [`SnapshotEngine::with_wal`] /
/// [`SnapshotEngine::recover`].
pub struct SnapshotEngine {
    shared: Arc<Shared>,
    publisher: Option<std::thread::JoinHandle<()>>,
}

/// A frozen, consistent view of the corpus at one log position.
/// Dereferences to [`Engine`], so the whole read-side query API
/// (`query_into`, `query_items`, `query_topk`, `query_batch`, ...) is
/// available directly. Holding a snapshot keeps its generation alive;
/// drop it promptly so the publisher can recycle retiring generations
/// instead of abandoning them.
#[derive(Clone)]
pub struct EngineSnapshot {
    generation: Arc<Generation>,
}

impl EngineSnapshot {
    /// The frozen engine.
    #[inline]
    pub fn engine(&self) -> &Engine {
        &self.generation.engine
    }

    /// The absolute log position this snapshot reflects: queries are
    /// bit-identical to a monolith that applied exactly the first
    /// `log_pos()` logged mutations.
    #[inline]
    pub fn log_pos(&self) -> u64 {
        self.generation.log_pos
    }
}

impl std::ops::Deref for EngineSnapshot {
    type Target = Engine;

    #[inline]
    fn deref(&self) -> &Engine {
        &self.generation.engine
    }
}

impl SnapshotEngine {
    /// Wraps a built engine, forking the two replicas (published head
    /// and standby) and starting the publisher thread. The wrapped
    /// engine becomes the writer-side master. No WAL: mutations are
    /// volatile ([`SnapshotEngine::with_wal`] for durability).
    pub fn new(master: Engine) -> Self {
        Self::spawn(master, None, 0, 0)
    }

    /// Like [`SnapshotEngine::new`], but every mutation is appended to
    /// a fresh write-ahead log at `path` (created or truncated) before
    /// it is acknowledged, under `policy`. Recover with
    /// [`SnapshotEngine::recover`] from the **same base corpus**.
    pub fn with_wal(master: Engine, path: &Path, policy: SyncPolicy) -> Result<Self, WalError> {
        let wal = WalWriter::create(path, policy)?;
        Ok(Self::spawn(master, Some(wal), 0, 0))
    }

    /// Rebuilds an engine after a crash: scans the WAL at `path`,
    /// truncates any torn tail at the last valid record, replays the
    /// valid prefix onto `base` (which must be the same base corpus
    /// the WAL was created over — a divergence is reported as
    /// [`WalError::Diverged`], never applied), and resumes appending
    /// at the truncation point. Returns the recovered engine and a
    /// [`RecoveryReport`] of what was applied and cut.
    pub fn recover(
        base: Engine,
        path: &Path,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let scan = read_wal(path)?;
        let mut master = base;
        for op in &scan.ops {
            replay_checked(&mut master, op)?;
        }
        let wal = WalWriter::resume(path, policy, &scan)?;
        let applied = scan.ops.len() as u64;
        let report = RecoveryReport {
            applied,
            truncated_bytes: scan.truncated_bytes,
        };
        Ok((Self::spawn(master, Some(wal), applied, 0), report))
    }

    /// Rebuilds an engine after a crash from a checkpoint plus the WAL
    /// tail, instead of [`SnapshotEngine::recover`]'s full replay over
    /// the base corpus: loads the snapshot at `snapshot_path` (under
    /// `mode`), verifies its recorded log position against the WAL's
    /// base, replays **only** the WAL records past the snapshot, and
    /// resumes appending at the truncation point. A snapshot that does
    /// not line up with the WAL — position before the WAL's base, or
    /// past its valid prefix — is a typed [`PersistError::WalMismatch`],
    /// and a WAL record that contradicts the loaded corpus is
    /// [`WalError::Diverged`]; neither is ever applied. The
    /// [`RecoveryReport`] counts only the replayed tail.
    pub fn recover_from_snapshot(
        snapshot_path: &Path,
        wal_path: &Path,
        policy: SyncPolicy,
        mode: LoadMode,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (mut master, meta) = load_engine(snapshot_path, mode)?;
        let scan = read_wal(wal_path)?;
        if meta.log_pos < meta.wal_base {
            return Err(PersistError::WalMismatch {
                detail: format!(
                    "snapshot log position {} precedes its recorded WAL base {}",
                    meta.log_pos, meta.wal_base
                ),
            });
        }
        let skip = meta.log_pos - meta.wal_base;
        if skip > scan.ops.len() as u64 {
            return Err(PersistError::WalMismatch {
                detail: format!(
                    "snapshot is at log position {} but the WAL (base {}) holds only {} \
                     valid records",
                    meta.log_pos,
                    meta.wal_base,
                    scan.ops.len()
                ),
            });
        }
        for op in &scan.ops[skip as usize..] {
            replay_checked(&mut master, op)?;
        }
        let wal = WalWriter::resume(wal_path, policy, &scan)?;
        let end_pos = meta.wal_base + scan.ops.len() as u64;
        let report = RecoveryReport {
            applied: scan.ops.len() as u64 - skip,
            truncated_bytes: scan.truncated_bytes,
        };
        Ok((
            Self::spawn(master, Some(wal), end_pos, meta.wal_base),
            report,
        ))
    }

    /// Writes the **published** generation to `path` as an `RSSN`
    /// snapshot (see [`crate::persist`]), recording its log position
    /// and the live WAL base so [`SnapshotEngine::recover_from_snapshot`]
    /// can later replay exactly the missing tail. Readers and writers
    /// are never blocked: the engine serialized is the immutable head.
    /// Returns the log position the snapshot covers.
    pub fn checkpoint(&self, path: &Path) -> Result<u64, PersistError> {
        let snap = self.snapshot();
        let wal_base = lock_ignore_poison(&self.shared.writer).wal_base;
        if wal_base > snap.log_pos() {
            // A concurrent checkpoint_and_truncate advanced the WAL
            // past the published head; a snapshot written now could
            // never be recovered. Flush and retry.
            return Err(PersistError::WalMismatch {
                detail: format!(
                    "published head at {} predates the WAL base {wal_base}; \
                     flush before checkpointing",
                    snap.log_pos()
                ),
            });
        }
        save_engine(
            path,
            snap.engine(),
            SnapshotMeta {
                log_pos: snap.log_pos(),
                wal_base,
            },
        )?;
        Ok(snap.log_pos())
    }

    /// Checkpoints the **master** (every acknowledged mutation) to
    /// `snapshot_path` and then truncates the WAL behind it: once the
    /// snapshot is durably renamed into place, the log is restarted
    /// empty at `wal_path` with its base advanced to the checkpoint
    /// position. Crash-ordering is safe at every step — a crash before
    /// the rename leaves the old snapshot + full WAL, a crash after
    /// leaves the new snapshot + empty WAL, and both pairs recover to
    /// the same corpus. Writers are blocked for the duration (the
    /// master must not move while it is serialized); readers are not.
    /// For a volatile engine the snapshot is still written and nothing
    /// is truncated. Returns the checkpoint's log position.
    pub fn checkpoint_and_truncate(
        &self,
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<u64, PersistError> {
        let mut w = lock_ignore_poison(&self.shared.writer);
        if let Some(wal) = &mut w.wal {
            // The tail being cut must be durable first: an op that was
            // acknowledged against the old WAL may not be in any sync
            // window yet.
            wal.sync()?;
        }
        let pos = w.end_pos();
        save_engine(
            snapshot_path,
            &w.master,
            SnapshotMeta {
                log_pos: pos,
                wal_base: pos,
            },
        )?;
        if let Some(old) = &w.wal {
            let fresh = WalWriter::create(wal_path, old.policy())?;
            w.wal = Some(fresh);
            w.wal_base = pos;
        }
        Ok(pos)
    }

    fn spawn(master: Engine, wal: Option<WalWriter>, base_pos: u64, wal_base: u64) -> Self {
        let head = Arc::new(Generation {
            engine: master.fork(),
            log_pos: base_pos,
        });
        let standby = master.fork();
        let shared = Arc::new(Shared {
            writer: Mutex::new(WriterState {
                master,
                log: Vec::new(),
                log_base: base_pos,
                wal,
                wal_base,
            }),
            head: RwLock::new(head),
            published: Mutex::new(base_pos),
            published_cv: Condvar::new(),
            pending_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            publisher_down: AtomicBool::new(false),
            publisher_panic: Mutex::new(None),
            panic_requested: AtomicBool::new(false),
            abandoned: AtomicU64::new(0),
        });
        let publisher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ranksim-publisher".into())
                .spawn(move || publisher_thread(&shared, standby, base_pos))
                .expect("spawn snapshot publisher thread")
        };
        SnapshotEngine {
            shared,
            publisher: Some(publisher),
        }
    }

    /// The current published generation — wait-free with respect to
    /// writers and allocation-free (one `RwLock` read, one refcount
    /// increment).
    #[inline]
    pub fn snapshot(&self) -> EngineSnapshot {
        let head = self.shared.head.read().unwrap_or_else(|e| e.into_inner());
        EngineSnapshot {
            generation: head.clone(),
        }
    }

    /// Inserts a ranking into the live corpus (see
    /// [`Engine::insert_ranking`] for semantics). The new ranking is
    /// visible to snapshots taken after the next publication;
    /// [`SnapshotEngine::flush`] forces that. Nothing is applied on
    /// error.
    pub fn try_insert_ranking(&self, items: &[ItemId]) -> Result<RankingId, MutationError> {
        let mut w = lock_ignore_poison(&self.shared.writer);
        validate_items(items, w.master.store().k()).map_err(MutationError::Invalid)?;
        w.check_wal()?;
        let id = w.master.insert_ranking(items);
        let op = LogOp::Insert {
            id,
            items: items.to_vec(),
        };
        let durable = w.append_wal(&op);
        // The op goes to the in-memory log even when the WAL append
        // failed: master already applied it, and replicas must not
        // diverge from the master. The caller learns it is not durable.
        w.log.push(op);
        drop(w);
        self.shared.pending_cv.notify_one();
        durable.map(|()| id)
    }

    /// Re-inserts a ranking at a released id (see
    /// [`Engine::insert_ranking_at`]; passing a non-released id is API
    /// misuse and still panics).
    fn try_insert_ranking_at(&self, id: RankingId, items: &[ItemId]) -> Result<(), MutationError> {
        let mut w = lock_ignore_poison(&self.shared.writer);
        validate_items(items, w.master.store().k()).map_err(MutationError::Invalid)?;
        w.check_wal()?;
        w.master.insert_ranking_at(id, items);
        let op = LogOp::InsertAt {
            id,
            items: items.to_vec(),
        };
        let durable = w.append_wal(&op);
        w.log.push(op);
        drop(w);
        self.shared.pending_cv.notify_one();
        durable
    }

    /// Tombstones ranking `id`; `Ok(false)` when it was not live. May
    /// trigger a master-side auto-compaction (replicas re-trigger it
    /// deterministically during replay).
    pub fn try_remove_ranking(&self, id: RankingId) -> Result<bool, MutationError> {
        let mut w = lock_ignore_poison(&self.shared.writer);
        w.check_wal()?;
        if !w.master.remove_ranking(id) {
            return Ok(false);
        }
        let op = LogOp::Remove(id);
        let durable = w.append_wal(&op);
        w.log.push(op);
        drop(w);
        self.shared.pending_cv.notify_one();
        durable.map(|()| true)
    }

    /// Compacts the master and logs the compaction for the replicas.
    /// Readers are *not* blocked while replicas rebuild — that is the
    /// point of this type.
    fn try_compact(&self) -> Result<(), MutationError> {
        let mut w = lock_ignore_poison(&self.shared.writer);
        w.check_wal()?;
        w.master.compact();
        let op = LogOp::Compact;
        let durable = w.append_wal(&op);
        w.log.push(op);
        drop(w);
        self.shared.pending_cv.notify_one();
        durable
    }

    /// Panicking convenience for [`SnapshotEngine::try_insert_ranking`]
    /// (keeps [`Engine::insert_ranking`]'s assert semantics).
    pub fn insert_ranking(&self, items: &[ItemId]) -> RankingId {
        match self.try_insert_ranking(items) {
            Ok(id) => id,
            Err(e) => panic_mutation(e),
        }
    }

    /// Re-inserts a ranking at a released id (see
    /// [`Engine::insert_ranking_at`]); panics on a mutation error.
    pub fn insert_ranking_at(&self, id: RankingId, items: &[ItemId]) {
        if let Err(e) = self.try_insert_ranking_at(id, items) {
            panic_mutation(e)
        }
    }

    /// Panicking convenience for
    /// [`SnapshotEngine::try_remove_ranking`].
    pub fn remove_ranking(&self, id: RankingId) -> bool {
        match self.try_remove_ranking(id) {
            Ok(removed) => removed,
            Err(e) => panic_mutation(e),
        }
    }

    /// Compacts the master and logs the compaction for the replicas
    /// (readers are not blocked while replicas rebuild); panics on a
    /// mutation error.
    pub fn compact(&self) {
        if let Err(e) = self.try_compact() {
            panic_mutation(e)
        }
    }

    /// Forces every acknowledged mutation onto stable storage (no-op
    /// without a WAL). Graceful shutdown calls this; so does
    /// [`Drop`].
    pub fn sync_wal(&self) -> Result<(), WalError> {
        match &mut lock_ignore_poison(&self.shared.writer).wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Liveness of the engine's moving parts: publisher thread, WAL,
    /// and replication lag. Cheap enough to poll from a serving loop.
    pub fn health(&self) -> Health {
        let publisher_alive = !self.shared.publisher_down.load(Ordering::SeqCst)
            && self.publisher.as_ref().is_some_and(|h| !h.is_finished());
        let publisher_panic = lock_ignore_poison(&self.shared.publisher_panic).clone();
        let (wal_failure, writer_pos) = {
            let w = lock_ignore_poison(&self.shared.writer);
            (
                w.wal
                    .as_ref()
                    .and_then(|wal| wal.failure().map(String::from)),
                w.end_pos(),
            )
        };
        Health {
            publisher_alive,
            publisher_panic,
            wal_failure,
            writer_pos,
            published_pos: self.published_pos(),
            abandoned_generations: self.abandoned_generations(),
        }
    }

    /// The absolute log position of the last accepted mutation.
    pub fn writer_pos(&self) -> u64 {
        lock_ignore_poison(&self.shared.writer).end_pos()
    }

    /// The absolute log position covered by the published head.
    pub fn published_pos(&self) -> u64 {
        *lock_ignore_poison(&self.shared.published)
    }

    /// Generations the publisher abandoned to straggler readers
    /// instead of recycling (each one costs a head fork).
    pub fn abandoned_generations(&self) -> u64 {
        self.shared.abandoned.load(Ordering::Relaxed)
    }

    /// Blocks until snapshots reflect at least log position `pos`.
    /// Returns `false` (instead of blocking forever) if the publisher
    /// died before getting there.
    pub fn wait_until_published(&self, pos: u64) -> bool {
        let mut published = lock_ignore_poison(&self.shared.published);
        loop {
            if *published >= pos {
                return true;
            }
            if self.shared.publisher_down.load(Ordering::SeqCst) {
                return false;
            }
            let (guard, _) = self
                .shared
                .published_cv
                .wait_timeout(published, PUBLISH_POLL)
                .unwrap_or_else(|e| e.into_inner());
            published = guard;
        }
    }

    /// Blocks until every mutation accepted so far is visible to new
    /// snapshots. Returns `false` if the publisher died first.
    pub fn flush(&self) -> bool {
        let pos = self.writer_pos();
        self.wait_until_published(pos)
    }
}

impl Drop for SnapshotEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The publisher waits on `pending_cv` under the writer lock;
        // taking the lock before notifying closes the race where it
        // re-checks the predicate just before we set the flag.
        drop(lock_ignore_poison(&self.shared.writer));
        self.shared.pending_cv.notify_all();
        if let Some(h) = self.publisher.take() {
            let _ = h.join();
        }
        // Graceful shutdown is durable: flush any group-commit window.
        if let Some(wal) = &mut lock_ignore_poison(&self.shared.writer).wal {
            let _ = wal.sync();
        }
    }
}

/// Maps a `try_*` refusal onto the historical panic messages of the
/// panicking mutation API (tests and callers match on them).
fn panic_mutation(e: MutationError) -> ! {
    match e {
        MutationError::Invalid(RankingError::WrongLength { .. }) => {
            panic!("ranking size must match the corpus k")
        }
        MutationError::Invalid(RankingError::DuplicateItem(a)) => {
            panic!("duplicate item {a} in inserted ranking")
        }
        MutationError::Invalid(e) => panic!("{e}"),
        MutationError::WalFailed(msg) => panic!("wal failed: {msg}"),
    }
}

/// Replays one logged op into a replica. Ids are asserted, not
/// assigned: determinism of the transition function makes the replica
/// agree with the master by construction.
fn replay(engine: &mut Engine, op: &LogOp) {
    match op {
        LogOp::Insert { id, items } => {
            let got = engine.insert_ranking(items);
            debug_assert_eq!(got, *id, "replica id assignment diverged from master");
        }
        LogOp::InsertAt { id, items } => engine.insert_ranking_at(*id, items),
        LogOp::Remove(id) => {
            let removed = engine.remove_ranking(*id);
            debug_assert!(removed, "replica liveness diverged from master");
        }
        LogOp::Compact => engine.compact(),
    }
}

/// Recovery-path replay: every precondition is *checked* (not
/// debug-asserted) and a violation aborts recovery with
/// [`WalError::Diverged`] instead of corrupting the corpus or
/// panicking — a checksum-valid record can still disagree with the
/// base corpus when the caller recovers over the wrong one.
fn replay_checked(engine: &mut Engine, op: &LogOp) -> Result<(), WalError> {
    let diverged = |msg: String| WalError::Diverged(msg);
    match op {
        LogOp::Insert { id, items } => {
            validate_items(items, engine.store().k())
                .map_err(|e| diverged(format!("logged insert is invalid: {e}")))?;
            let got = engine.insert_ranking(items);
            if got != *id {
                return Err(diverged(format!(
                    "insert assigned {got:?} where the log recorded {id:?} (wrong base corpus?)"
                )));
            }
        }
        LogOp::InsertAt { id, items } => {
            validate_items(items, engine.store().k())
                .map_err(|e| diverged(format!("logged insert_at is invalid: {e}")))?;
            if !engine.store().is_free(*id) {
                return Err(diverged(format!(
                    "logged insert_at targets {id:?}, which is not a released slot"
                )));
            }
            engine.insert_ranking_at(*id, items);
        }
        LogOp::Remove(id) => {
            if !engine.remove_ranking(*id) {
                return Err(diverged(format!("logged removal of non-live {id:?}")));
            }
        }
        LogOp::Compact => engine.compact(),
    }
    Ok(())
}

/// The publisher thread's entry point: runs the loop under
/// `catch_unwind` so a replay panic is *detected* (recorded and
/// flagged) instead of silently leaving every future snapshot stale
/// and every `flush` hung.
fn publisher_thread(shared: &Shared, standby: Engine, start_pos: u64) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        publisher_loop(shared, standby, start_pos)
    }));
    if let Err(payload) = result {
        let msg = panic_message(payload.as_ref());
        *lock_ignore_poison(&shared.publisher_panic) = Some(msg);
    }
    shared.publisher_down.store(true, Ordering::SeqCst);
    // Waiters poll `publisher_down` under `published`; the lock/notify
    // pair bounds how long a racing waiter sleeps.
    drop(lock_ignore_poison(&shared.published));
    shared.published_cv.notify_all();
}

fn publisher_loop(shared: &Shared, mut standby: Engine, start_pos: u64) {
    // Log position `standby` currently reflects.
    let mut standby_pos: u64 = start_pos;
    loop {
        // Wait for new log entries (or shutdown), then copy the suffix
        // out so replay runs without holding the writer lock. While
        // idle, this loop is also the group-commit flusher: an unsynced
        // WAL window is bounded by `max_delay` even when traffic stops.
        let ops: Vec<LogOp>;
        let target_pos: u64;
        {
            let mut w = lock_ignore_poison(&shared.writer);
            loop {
                if shared.panic_requested.swap(false, Ordering::SeqCst) {
                    panic!("injected publisher panic");
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if w.end_pos() > standby_pos {
                    break;
                }
                let sync_due = w.wal.as_ref().and_then(|wal| wal.sync_due_at());
                match sync_due {
                    Some(at) => {
                        let now = Instant::now();
                        if at <= now {
                            if let Some(wal) = &mut w.wal {
                                let _ = wal.sync_if_due();
                            }
                            continue;
                        }
                        let (guard, _) = shared
                            .pending_cv
                            .wait_timeout(w, at - now)
                            .unwrap_or_else(|e| e.into_inner());
                        w = guard;
                    }
                    None => {
                        w = shared.pending_cv.wait(w).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
            let skip = (standby_pos - w.log_base) as usize;
            ops = w.log[skip..].to_vec();
            target_pos = w.end_pos();
        }

        // Replay off-lock: writers keep writing, readers keep reading
        // the old head. This is where compaction rebuilds burn CPU
        // without blocking anyone.
        for op in &ops {
            replay(&mut standby, op);
        }

        // Publish: a pointer swap under a momentary write lock.
        let fresh = Arc::new(Generation {
            engine: standby,
            log_pos: target_pos,
        });
        let retiring = {
            let mut head = shared.head.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *head, fresh.clone())
        };
        {
            let mut published = lock_ignore_poison(&shared.published);
            *published = target_pos;
        }
        shared.published_cv.notify_all();

        // Reclaim the retiring generation as the next standby. Readers
        // holding snapshots of it keep it alive; wait boundedly, then
        // abandon it to them and fork the head instead.
        let deadline = Instant::now() + RECLAIM_WAIT;
        let mut retiring = retiring;
        (standby, standby_pos) = loop {
            match Arc::try_unwrap(retiring) {
                Ok(generation) => break (generation.engine, generation.log_pos),
                Err(still_shared) => {
                    if Instant::now() >= deadline {
                        shared.abandoned.fetch_add(1, Ordering::Relaxed);
                        drop(still_shared);
                        break (fresh.engine.fork(), fresh.log_pos);
                    }
                    retiring = still_shared;
                    std::thread::yield_now();
                }
            }
        };

        // Truncate the log below what the standby still needs; the
        // published head is always at least as fresh as the standby.
        {
            let mut w = lock_ignore_poison(&shared.writer);
            let cut = (standby_pos - w.log_base) as usize;
            w.log.drain(..cut);
            w.log_base = standby_pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, EngineBuilder};
    use crate::wal::Fault;
    use ranksim_datasets::{nyt_like, workload, WorkloadParams};
    use ranksim_rankings::{raw_threshold, QueryStats};

    /// The WAL's fault-injection handle (`None` for a volatile engine).
    fn wal_failpoint(se: &SnapshotEngine) -> Option<crate::wal::FailPoint> {
        lock_ignore_poison(&se.shared.writer)
            .wal
            .as_ref()
            .map(|wal| wal.failpoint())
    }

    /// Makes the publisher thread panic at its next wakeup (exercises
    /// death detection without a contrived replay bug).
    fn inject_publisher_panic(se: &SnapshotEngine) {
        se.shared.panic_requested.store(true, Ordering::SeqCst);
        drop(lock_ignore_poison(&se.shared.writer));
        se.shared.pending_cv.notify_all();
    }

    fn small_engine(n: usize, seed: u64) -> (Engine, u32) {
        let ds = nyt_like(n, 8, seed);
        let domain = ds.params.domain;
        let engine = EngineBuilder::new(ds.store)
            .coarse_threshold(0.4)
            .coarse_drop_threshold(0.06)
            .compaction_threshold(0.3)
            .build();
        (engine, domain)
    }

    fn small_snapshot_engine(n: usize, seed: u64) -> (SnapshotEngine, u32) {
        let (engine, domain) = small_engine(n, seed);
        (SnapshotEngine::new(engine), domain)
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ranksim-snapshot-{tag}-{}.wal", std::process::id()));
        p
    }

    #[test]
    fn snapshots_are_stable_while_writes_land() {
        let (se, _domain) = small_snapshot_engine(300, 9);
        let theta = raw_threshold(0.25, 8);
        let before = se.snapshot();
        let q: Vec<ItemId> = before.store().items(RankingId(3)).to_vec();
        let mut scratch = before.scratch();
        let mut stats = QueryStats::new();
        let baseline = before.query_items(Algorithm::Fv, &q, theta, &mut scratch, &mut stats);
        assert!(baseline.contains(&RankingId(3)));

        // Remove the query's own ranking; the held snapshot must keep
        // answering from its frozen world.
        assert!(se.remove_ranking(RankingId(3)));
        se.flush();
        let again = before.query_items(Algorithm::Fv, &q, theta, &mut scratch, &mut stats);
        assert_eq!(again, baseline, "held snapshot changed under a write");

        // A fresh snapshot sees the removal.
        let after = se.snapshot();
        assert!(after.log_pos() >= 1);
        let fresh = after.query_items(Algorithm::Fv, &q, theta, &mut scratch, &mut stats);
        assert!(!fresh.contains(&RankingId(3)));
        assert!(fresh.len() < baseline.len() || baseline == vec![RankingId(3)]);
    }

    #[test]
    fn flush_makes_inserts_visible_and_ids_monotone() {
        let (se, domain) = small_snapshot_engine(200, 21);
        let wl = workload(
            se.snapshot().store(),
            domain,
            WorkloadParams {
                num_queries: 6,
                seed: 5,
                ..Default::default()
            },
        );
        let mut ids = Vec::new();
        for q in &wl.queries {
            ids.push(se.insert_ranking(q));
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be monotone");
        assert!(se.flush());
        let snap = se.snapshot();
        assert_eq!(snap.log_pos(), se.writer_pos());
        let theta = raw_threshold(0.0, 8);
        let mut scratch = snap.scratch();
        let mut stats = QueryStats::new();
        for (q, id) in wl.queries.iter().zip(&ids) {
            let res = snap.query_items(Algorithm::ListMerge, q, theta, &mut scratch, &mut stats);
            assert!(res.contains(id), "inserted ranking invisible after flush");
        }
    }

    #[test]
    fn explicit_compaction_publishes_a_consistent_generation() {
        let (se, _domain) = small_snapshot_engine(150, 33);
        for i in 0..20u32 {
            se.remove_ranking(RankingId(i * 3));
        }
        se.compact();
        se.flush();
        let snap = se.snapshot();
        assert_eq!(
            snap.base_tombstones(),
            0,
            "compaction must clear tombstones"
        );
        // Every algorithm still answers identically on the fresh head.
        let q: Vec<ItemId> = snap.store().items(RankingId(1)).to_vec();
        let theta = raw_threshold(0.2, 8);
        let mut scratch = snap.scratch();
        let mut stats = QueryStats::new();
        let expect = snap.query_items(Algorithm::Fv, &q, theta, &mut scratch, &mut stats);
        for alg in Algorithm::ALL {
            let mut got = snap.query_items(alg, &q, theta, &mut scratch, &mut stats);
            got.sort_unstable();
            let mut want = expect.clone();
            want.sort_unstable();
            assert_eq!(got, want, "{alg} diverged on the published snapshot");
        }
    }

    #[test]
    fn abandoned_generations_do_not_stall_publication() {
        let (se, _domain) = small_snapshot_engine(120, 7);
        // Pin the initial generation for the whole test.
        let pinned = se.snapshot();
        for i in 0..30u32 {
            se.insert_ranking(&pinned.store().items(RankingId(i % 5)).to_vec());
            let fresh: Vec<ItemId> = (1000 + i * 10..1000 + i * 10 + 8).map(ItemId).collect();
            se.insert_ranking(&fresh);
        }
        se.flush();
        assert_eq!(se.published_pos(), se.writer_pos());
        assert_eq!(
            pinned.log_pos(),
            0,
            "pinned snapshot must stay at its prefix"
        );
        // The pinned world still has its original corpus size.
        assert_eq!(pinned.store().live_len(), 120);
        let now = se.snapshot();
        assert_eq!(now.store().live_len(), 180);
    }

    #[test]
    fn wal_backed_engine_recovers_to_the_same_corpus() {
        let path = temp_wal("recover");
        let (engine, _domain) = small_engine(120, 11);
        let mut expected_live = 120usize;
        {
            let se = SnapshotEngine::with_wal(engine, &path, SyncPolicy::PerOp).unwrap();
            for i in 0..10u32 {
                let items: Vec<ItemId> = (2000 + i * 10..2000 + i * 10 + 8).map(ItemId).collect();
                se.try_insert_ranking(&items).unwrap();
                expected_live += 1;
            }
            assert!(se.try_remove_ranking(RankingId(4)).unwrap());
            expected_live -= 1;
            se.try_compact().unwrap();
            assert!(se.health().is_healthy());
        }
        // Recover over the same base corpus; same seed → same base.
        let (base, _) = small_engine(120, 11);
        let (recovered, report) = SnapshotEngine::recover(base, &path, SyncPolicy::PerOp).unwrap();
        assert_eq!(report.applied, 12);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(recovered.writer_pos(), 12);
        let snap = recovered.snapshot();
        assert_eq!(snap.log_pos(), 12);
        assert_eq!(snap.store().live_len(), expected_live);
        assert!(!snap.store().is_live(RankingId(4)));
        // The recovered engine keeps accepting durable writes.
        recovered
            .try_insert_ranking(&(5000..5008).map(ItemId).collect::<Vec<_>>())
            .unwrap();
        assert!(recovered.flush());
        drop(recovered);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_base_corpus_is_diverged_not_corrupted() {
        let path = temp_wal("diverge");
        let (engine, _domain) = small_engine(100, 3);
        {
            let se = SnapshotEngine::with_wal(engine, &path, SyncPolicy::None).unwrap();
            // Remove an id that only exists in the 100-ranking corpus.
            assert!(se.try_remove_ranking(RankingId(99)).unwrap());
        }
        // A smaller base corpus does not have RankingId(99) live.
        let (wrong_base, _domain) = small_engine(50, 3);
        match SnapshotEngine::recover(wrong_base, &path, SyncPolicy::None) {
            Err(WalError::Diverged(_)) => {}
            Err(e) => panic!("expected Diverged, got {e:?}"),
            Ok(_) => panic!("recovery over the wrong base corpus must not succeed"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_failure_is_fail_stop_for_writes_but_reads_survive() {
        let path = temp_wal("failstop");
        let (engine, _domain) = small_engine(80, 17);
        let se = SnapshotEngine::with_wal(engine, &path, SyncPolicy::PerOp).unwrap();
        se.try_insert_ranking(&(3000..3008).map(ItemId).collect::<Vec<_>>())
            .unwrap();
        wal_failpoint(&se).unwrap().inject(Fault::ShortWrite(3));
        let err = se
            .try_insert_ranking(&(3100..3108).map(ItemId).collect::<Vec<_>>())
            .unwrap_err();
        assert!(matches!(err, MutationError::WalFailed(_)), "got {err}");
        // Fail-stop: subsequent mutations refuse without touching the
        // master (no divergence between memory and a future recovery).
        let pos = se.writer_pos();
        assert!(matches!(
            se.try_remove_ranking(RankingId(0)),
            Err(MutationError::WalFailed(_))
        ));
        assert_eq!(se.writer_pos(), pos);
        let health = se.health();
        assert!(!health.is_healthy());
        assert!(health.wal_failure.is_some());
        // Reads keep serving, including the non-durable op (the
        // in-memory log kept master and replicas converged).
        assert!(se.flush());
        assert_eq!(se.snapshot().store().live_len(), 82);
        drop(se);
        // Recovery sees only the durable prefix plus a torn tail.
        let (base, _domain) = small_engine(80, 17);
        let (recovered, report) = SnapshotEngine::recover(base, &path, SyncPolicy::PerOp).unwrap();
        assert_eq!(report.applied, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(recovered.snapshot().store().live_len(), 81);
        drop(recovered);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_sync_failure_does_not_wedge_the_engine() {
        let path = temp_wal("groupfail");
        let (engine, _domain) = small_engine(80, 59);
        let policy = SyncPolicy::GroupCommit {
            max_ops: 100,
            max_delay: Duration::from_millis(50),
        };
        let se = Arc::new(SnapshotEngine::with_wal(engine, &path, policy).unwrap());
        se.try_insert_ranking(&(7000..7008).map(ItemId).collect::<Vec<_>>())
            .unwrap();
        se.try_insert_ranking(&(7100..7108).map(ItemId).collect::<Vec<_>>())
            .unwrap();
        // Fail the sync while a group-commit window is open, then let
        // the window's flush deadline pass. The regression under test:
        // a fail-stop writer that still reported a (forever-past) sync
        // deadline spun the publisher inside the writer critical
        // section, wedging health(), flush() and every write.
        wal_failpoint(&se).unwrap().inject(Fault::SyncFail);
        assert!(se.sync_wal().is_err());
        std::thread::sleep(Duration::from_millis(120));
        // Probe from a helper thread so a wedge fails the test in
        // bounded time instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = {
            let se = Arc::clone(&se);
            std::thread::spawn(move || tx.send(se.health()).unwrap())
        };
        let health = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("health() wedged after a group-commit sync failure");
        probe.join().unwrap();
        assert!(!health.is_healthy());
        assert!(health.wal_failure.is_some());
        assert!(
            health.publisher_alive,
            "publisher must outlive a WAL failure"
        );
        // Fail-stop for writes, but reads and publication sail on.
        assert!(matches!(
            se.try_insert_ranking(&(7200..7208).map(ItemId).collect::<Vec<_>>()),
            Err(MutationError::WalFailed(_))
        ));
        assert!(se.flush());
        assert_eq!(se.snapshot().store().live_len(), 82);
        drop(se);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_rankings_are_typed_errors_and_apply_nothing() {
        let (se, _domain) = small_snapshot_engine(60, 29);
        let pos = se.writer_pos();
        assert!(matches!(
            se.try_insert_ranking(&[ItemId(1), ItemId(2)]),
            Err(MutationError::Invalid(RankingError::WrongLength { .. }))
        ));
        let dup: Vec<ItemId> = [7, 7, 1, 2, 3, 4, 5, 6].map(ItemId).to_vec();
        assert!(matches!(
            se.try_insert_ranking(&dup),
            Err(MutationError::Invalid(RankingError::DuplicateItem(_)))
        ));
        assert_eq!(se.writer_pos(), pos, "failed validation must not log");
        assert_eq!(se.snapshot().store().live_len(), 60);
    }

    #[test]
    fn writer_panic_poisons_nothing_and_the_engine_keeps_serving() {
        let (se, _domain) = small_snapshot_engine(90, 41);
        // `insert_ranking_at` on a live slot is API misuse and panics
        // inside the writer critical section — the classic poisoning
        // scenario. The slot-freedom assert fires before any mutation,
        // so the protected state is still consistent.
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    se.insert_ranking_at(RankingId(0), &(0..8).map(ItemId).collect::<Vec<_>>())
                })
                .join()
        });
        assert!(result.is_err(), "insert_ranking_at at a live id must panic");
        // Readers and writers sail on.
        assert_eq!(se.snapshot().store().live_len(), 90);
        let id = se.insert_ranking(&(4000..4008).map(ItemId).collect::<Vec<_>>());
        assert!(se.flush());
        assert!(se.snapshot().store().is_live(id));
        assert!(se.health().publisher_alive);
    }

    #[test]
    fn publisher_death_is_detected_and_flush_does_not_hang() {
        let (se, _domain) = small_snapshot_engine(70, 53);
        let before = se.snapshot();
        inject_publisher_panic(&se);
        // The publisher dies at its next wakeup; wait for detection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while se.health().publisher_alive {
            assert!(Instant::now() < deadline, "publisher death undetected");
            std::thread::sleep(Duration::from_millis(5));
        }
        let health = se.health();
        assert!(!health.is_healthy());
        assert_eq!(
            health.publisher_panic.as_deref(),
            Some("injected publisher panic")
        );
        // Writes are still accepted (they just never publish)...
        se.insert_ranking(&(6000..6008).map(ItemId).collect::<Vec<_>>());
        // ...and flush reports failure instead of blocking forever.
        assert!(!se.flush());
        // Snapshots keep serving the last published generation.
        assert_eq!(se.snapshot().log_pos(), before.log_pos());
    }

    fn temp_snap(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ranksim-snapshot-{tag}-{}.rssn",
            std::process::id()
        ));
        p
    }

    fn corpus_fingerprint(se: &SnapshotEngine, domain: u32) -> Vec<Vec<RankingId>> {
        let snap = se.snapshot();
        let wl = workload(
            snap.store(),
            domain,
            WorkloadParams {
                num_queries: 5,
                seed: 77,
                ..Default::default()
            },
        );
        let theta = raw_threshold(0.3, 8);
        let mut scratch = snap.scratch();
        let mut stats = QueryStats::new();
        wl.queries
            .iter()
            .map(|q| snap.query_items(Algorithm::Auto, q, theta, &mut scratch, &mut stats))
            .collect()
    }

    #[test]
    fn checkpoint_then_recover_replays_only_the_wal_tail() {
        let wal_path = temp_wal("ckpt-tail");
        let snap_path = temp_snap("ckpt-tail");
        let (engine, domain) = small_engine(220, 31);
        let se = SnapshotEngine::with_wal(engine, &wal_path, SyncPolicy::PerOp).expect("wal");
        let wl = workload(
            se.snapshot().store(),
            domain,
            WorkloadParams {
                num_queries: 8,
                seed: 13,
                ..Default::default()
            },
        );
        // Some mutations before the checkpoint...
        for q in &wl.queries[..4] {
            se.insert_ranking(q);
        }
        se.remove_ranking(RankingId(5));
        se.flush();
        let pos = se.checkpoint(&snap_path).expect("checkpoint");
        assert_eq!(pos, 5);
        // ...and some after, which only the WAL holds.
        for q in &wl.queries[4..] {
            se.insert_ranking(q);
        }
        se.flush();
        let expect = corpus_fingerprint(&se, domain);
        drop(se);

        let (rec, report) = SnapshotEngine::recover_from_snapshot(
            &snap_path,
            &wal_path,
            SyncPolicy::PerOp,
            LoadMode::Verify,
        )
        .expect("recover from snapshot");
        assert_eq!(report.applied, 4, "only the tail past the snapshot replays");
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(rec.writer_pos(), 9);
        assert_eq!(corpus_fingerprint(&rec, domain), expect);

        // The recovered engine keeps appending to the same WAL.
        let id = rec.insert_ranking(&wl.queries[0]);
        rec.flush();
        assert!(rec.snapshot().store().is_live(id));
        drop(rec);
        let scan = read_wal(&wal_path).expect("rescan");
        assert_eq!(scan.ops.len(), 10);
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&snap_path);
    }

    #[test]
    fn checkpoint_and_truncate_restarts_the_wal_behind_the_snapshot() {
        let wal_path = temp_wal("ckpt-trunc");
        let snap_path = temp_snap("ckpt-trunc");
        let (engine, domain) = small_engine(180, 47);
        let se = SnapshotEngine::with_wal(engine, &wal_path, SyncPolicy::PerOp).expect("wal");
        let wl = workload(
            se.snapshot().store(),
            domain,
            WorkloadParams {
                num_queries: 6,
                seed: 29,
                ..Default::default()
            },
        );
        for q in &wl.queries[..3] {
            se.insert_ranking(q);
        }
        let pos = se
            .checkpoint_and_truncate(&snap_path, &wal_path)
            .expect("checkpoint_and_truncate");
        assert_eq!(pos, 3);
        // The WAL restarted empty; new writes land at the new base.
        for q in &wl.queries[3..] {
            se.insert_ranking(q);
        }
        se.flush();
        let expect = corpus_fingerprint(&se, domain);
        drop(se);
        let scan = read_wal(&wal_path).expect("scan");
        assert_eq!(scan.ops.len(), 3, "WAL holds only the post-checkpoint tail");

        let (rec, report) = SnapshotEngine::recover_from_snapshot(
            &snap_path,
            &wal_path,
            SyncPolicy::PerOp,
            LoadMode::Verify,
        )
        .expect("recover");
        assert_eq!(report.applied, 3);
        assert_eq!(rec.writer_pos(), 6);
        assert_eq!(corpus_fingerprint(&rec, domain), expect);
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&snap_path);
    }

    #[test]
    fn recover_rejects_wal_that_does_not_reach_the_snapshot() {
        let wal_path = temp_wal("ckpt-short");
        let snap_path = temp_snap("ckpt-short");
        let (engine, domain) = small_engine(120, 61);
        let se = SnapshotEngine::with_wal(engine, &wal_path, SyncPolicy::PerOp).expect("wal");
        let wl = workload(
            se.snapshot().store(),
            domain,
            WorkloadParams {
                num_queries: 3,
                seed: 3,
                ..Default::default()
            },
        );
        for q in &wl.queries {
            se.insert_ranking(q);
        }
        se.flush();
        se.checkpoint(&snap_path).expect("checkpoint");
        drop(se);
        // Hand recovery a *different*, shorter WAL: the snapshot claims
        // log position 3 but this log has never seen those records.
        let other_wal = temp_wal("ckpt-short-other");
        let (engine2, _) = small_engine(120, 61);
        let se2 = SnapshotEngine::with_wal(engine2, &other_wal, SyncPolicy::PerOp).expect("wal");
        se2.insert_ranking(&wl.queries[0]);
        se2.flush();
        drop(se2);
        match SnapshotEngine::recover_from_snapshot(
            &snap_path,
            &other_wal,
            SyncPolicy::PerOp,
            LoadMode::Verify,
        ) {
            Err(PersistError::WalMismatch { detail }) => {
                assert!(detail.contains("1 valid record"), "detail: {detail}");
            }
            Err(other) => panic!("expected WalMismatch, got {other:?}"),
            Ok(_) => panic!("short WAL must be rejected"),
        }
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&other_wal);
        let _ = std::fs::remove_file(&snap_path);
    }
}
