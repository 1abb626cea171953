//! Batch query processing (the paper's Section 8 outlook, implemented).
//!
//! Two drivers live here:
//!
//! * [`Engine::query_batch`] — the general parallel driver: a
//!   **work-stealing** pool of scoped threads claims queries one at a
//!   time from a shared atomic cursor, so a pathological sub-batch
//!   cannot strand one worker with all the expensive queries the way the
//!   old static equal-chunk split could. Every thread reuses **one**
//!   [`QueryScratch`] for its whole share, so each worker's steady state
//!   is allocation-free (only the per-query result vectors handed back
//!   to the caller are allocated). [`Engine::query_batch_reported`]
//!   additionally exposes one [`WorkerReport`] per worker for balance
//!   diagnostics. The same driver backs
//!   [`crate::shard::ShardedEngine::query_batch`].
//! * [`batch_query`] — the coarse-index-specific sharing scheme: "the
//!   query batch can be partitioned into related medoid rankings to prune
//!   the search space of potential result rankings". Queries are grouped
//!   by greedy leader clustering at radius `ρ`; each group probes the
//!   medoid inverted index **once** through its leader with the doubly
//!   relaxed threshold `θ + θ_C + ρ` (triangle inequality twice: result →
//!   medoid → query → leader), then every member query checks only the
//!   retrieved partitions.
//!
//! Both are bit-identical to processing each query individually.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::coarse::CoarseIndex;
use crate::engine::{Algorithm, Engine};
use crate::planner::PlanStats;
use ranksim_metricspace::query_pairs_into;
use ranksim_rankings::{
    footrule_items, footrule_pairs, ItemId, QueryScratch, QueryStats, RankingId, RankingStore,
};

/// What one worker of a work-stealing batch run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerReport {
    /// Work units this worker claimed and processed (including failed
    /// ones): one query in the monolithic driver, one (query, shard)
    /// task in the sharded driver's (query × shard) split.
    pub queries: u64,
    /// The stats accumulated over exactly those queries.
    pub stats: QueryStats,
    /// Planner telemetry accumulated over exactly those queries (all
    /// zero unless the batch ran [`Algorithm::Auto`]): per-algorithm pick
    /// counts plus predicted-vs-actual cost totals.
    pub plan: PlanStats,
    /// Queries whose execution panicked. Each failed query's result set
    /// is empty; the worker caught the unwind and kept draining the
    /// cursor, so one poisoned query never takes down the batch.
    pub failed: u64,
    /// The first panic message this worker observed, if any.
    pub error: Option<String>,
    /// Query indices this worker claimed at or past the batch deadline
    /// and therefore skipped (empty result set; mirrors the per-query
    /// panic containment — a timed-out query fails individually, the
    /// batch completes). Always empty without a deadline.
    pub timed_out: Vec<usize>,
}

/// Folds per-worker reports into one batch-wide [`QueryStats`].
pub fn merge_reports(reports: &[WorkerReport]) -> QueryStats {
    let mut stats = QueryStats::new();
    for r in reports {
        stats.merge(&r.stats);
    }
    stats
}

/// Folds per-worker reports into one batch-wide [`PlanStats`].
pub fn merge_plan_reports(reports: &[WorkerReport]) -> PlanStats {
    let mut plan = PlanStats::new();
    for r in reports {
        plan.merge(&r.plan);
    }
    plan
}

/// The shared work queue of a batch run: an atomic cursor over the query
/// indices `0..total`. Claiming is a single `fetch_add`, so workers that
/// finish cheap queries immediately steal the next pending one — no
/// worker idles while another still holds unstarted work.
struct TaskCursor {
    next: AtomicUsize,
    total: usize,
}

impl TaskCursor {
    fn new(total: usize) -> Self {
        TaskCursor {
            next: AtomicUsize::new(0),
            total,
        }
    }

    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

/// Resolves the worker-thread count: `0` picks the machine's available
/// parallelism; the count never exceeds the number of queries.
fn resolve_threads(threads: usize, num_queries: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    t.min(num_queries.max(1))
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!` with a literal yields `&'static str`, with a format string
/// yields `String`; anything else is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The work-stealing batch driver shared by [`Engine::query_batch`] and
/// [`crate::shard::ShardedEngine::query_batch`]. `make_worker` builds one
/// per-thread closure (owning that worker's scratch); the closure maps a
/// query index to its result set. Workers rendezvous on a barrier before
/// claiming, then drain the shared cursor; results are reassembled in
/// input order.
///
/// A panicking query is contained to that query: the worker catches the
/// unwind, records it in its [`WorkerReport`] (`failed` / `error`),
/// leaves that query's result set empty, and keeps claiming. Scratch
/// reuse after a mid-query unwind is safe because every query re-arms
/// its epoch structures from scratch-generation stamps before reading
/// them.
///
/// `deadline` bounds the batch's tail: a query *claimed* at or past the
/// deadline is skipped (recorded in [`WorkerReport::timed_out`], empty
/// result set) instead of executed, so one slow batch cannot hold a
/// serving thread hostage much past its budget. The check is at claim
/// time — an already-running query finishes (queries are short; the
/// driver never interrupts one mid-flight).
pub(crate) fn run_stealing<W, F>(
    num_queries: usize,
    threads: usize,
    deadline: Option<Instant>,
    make_worker: W,
) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>)
where
    W: Fn() -> F + Sync,
    F: FnMut(usize, &mut WorkerReport) -> Vec<RankingId>,
{
    if num_queries == 0 {
        return (Vec::new(), Vec::new());
    }
    let threads = resolve_threads(threads, num_queries);
    let cursor = TaskCursor::new(num_queries);
    let barrier = Barrier::new(threads);
    let mut per_worker: Vec<(Vec<(usize, Vec<RankingId>)>, WorkerReport)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let barrier = &barrier;
                    let make_worker = &make_worker;
                    scope.spawn(move || {
                        let mut work = make_worker();
                        let mut report = WorkerReport::default();
                        let mut claimed: Vec<(usize, Vec<RankingId>)> = Vec::new();
                        // All workers start before any claims, so a batch
                        // cannot be drained before late workers exist.
                        barrier.wait();
                        while let Some(qi) = cursor.claim() {
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                report.queries += 1;
                                report.timed_out.push(qi);
                                continue;
                            }
                            let attempt =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    work(qi, &mut report)
                                }));
                            report.queries += 1;
                            match attempt {
                                Ok(out) => claimed.push((qi, out)),
                                Err(payload) => {
                                    report.failed += 1;
                                    if report.error.is_none() {
                                        report.error = Some(panic_message(payload.as_ref()));
                                    }
                                }
                            }
                        }
                        (claimed, report)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // With per-query containment above, a join error means
                    // the worker died outside query execution (e.g. in
                    // `make_worker`); degrade to an error report rather
                    // than poisoning the whole batch.
                    h.join().unwrap_or_else(|payload| {
                        let report = WorkerReport {
                            error: Some(panic_message(payload.as_ref())),
                            ..WorkerReport::default()
                        };
                        (Vec::new(), report)
                    })
                })
                .collect()
        });
    let mut results: Vec<Vec<RankingId>> = Vec::with_capacity(num_queries);
    results.resize_with(num_queries, Vec::new);
    let mut reports = Vec::with_capacity(threads);
    for (claimed, report) in per_worker.drain(..) {
        for (qi, out) in claimed {
            results[qi] = out;
        }
        reports.push(report);
    }
    (results, reports)
}

impl Engine {
    /// Processes `queries` with `algorithm` at one raw threshold across
    /// `threads` work-stealing worker threads (`0` picks the machine's
    /// available parallelism). Returns per-query result sets in input
    /// order plus the merged stats. Every worker reuses one scratch, so
    /// the only steady-state allocations are the returned result vectors.
    pub fn query_batch(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
    ) -> (Vec<Vec<RankingId>>, QueryStats) {
        let (results, reports) = self.query_batch_reported(algorithm, queries, theta_raw, threads);
        (results, merge_reports(&reports))
    }

    /// [`Engine::query_batch`] with one [`WorkerReport`] per worker
    /// instead of pre-merged stats, exposing how evenly the stealing
    /// spread a (possibly skewed) batch.
    pub fn query_batch_reported(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        self.query_batch_inner(algorithm, queries, theta_raw, threads, None)
    }

    /// [`Engine::query_batch_reported`] with a wall-clock `budget`:
    /// queries the pool has not *started* when the budget elapses are
    /// skipped individually — empty result set, index recorded in
    /// [`WorkerReport::timed_out`] — instead of stalling the batch's
    /// caller (a serving loop with its own latency promise) for the
    /// whole remaining tail.
    pub fn query_batch_deadline(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        budget: Duration,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        let deadline = Instant::now() + budget;
        self.query_batch_inner(algorithm, queries, theta_raw, threads, Some(deadline))
    }

    fn query_batch_inner(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        run_stealing(queries.len(), threads, deadline, || {
            let mut scratch = QueryScratch::new();
            move |qi: usize, report: &mut WorkerReport| {
                let mut out = Vec::new();
                let trace = self.query_into_traced(
                    algorithm,
                    &queries[qi],
                    theta_raw,
                    &mut scratch,
                    &mut report.stats,
                    &mut out,
                );
                report.plan.record(&trace);
                out
            }
        })
    }
}

/// A batch of queries sharing one threshold.
#[derive(Debug, Clone)]
pub struct QueryBatch<'a> {
    /// The query rankings.
    pub queries: &'a [Vec<ItemId>],
    /// The shared raw query threshold.
    pub theta_raw: u32,
}

/// One leader-clustered group of query indices.
#[derive(Debug, Clone)]
struct Group {
    leader: usize,
    members: Vec<usize>,
}

/// Greedy leader clustering of the queries at radius `rho_raw`.
fn cluster_queries(queries: &[Vec<ItemId>], rho_raw: u32) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    'next: for (qi, q) in queries.iter().enumerate() {
        for g in &mut groups {
            if footrule_items(&queries[g.leader], q) <= rho_raw {
                g.members.push(qi);
                continue 'next;
            }
        }
        groups.push(Group {
            leader: qi,
            members: vec![qi],
        });
    }
    groups
}

/// Processes a batch over the coarse index. Returns per-query result sets
/// in input order. `rho_raw` is the query-clustering radius (0 disables
/// sharing within distinct queries; duplicates still share).
pub fn batch_query(
    index: &CoarseIndex,
    store: &RankingStore,
    batch: &QueryBatch<'_>,
    rho_raw: u32,
    stats: &mut QueryStats,
) -> Vec<Vec<RankingId>> {
    let theta = batch.theta_raw;
    let theta_c = index.theta_c_raw();
    let groups = cluster_queries(batch.queries, rho_raw);
    let mut results: Vec<Vec<RankingId>> = vec![Vec::new(); batch.queries.len()];
    let mut scratch = QueryScratch::new();
    let mut shared: Vec<(u32, u32)> = Vec::new();
    let mut qp: Vec<(ItemId, u32)> = Vec::new();
    let mut tree_stack: Vec<u32> = Vec::new();

    for g in &groups {
        // One shared filter probe through the leader: any partition a
        // member query needs has d(medoid, leader) ≤ θ + θ_C + ρ.
        let leader = &batch.queries[g.leader];
        shared.clear();
        index.filter_into(
            store,
            leader,
            theta.saturating_add(rho_raw),
            false,
            &mut scratch,
            stats,
            &mut shared,
        );
        for &qi in &g.members {
            let q = &batch.queries[qi];
            query_pairs_into(q, &mut qp);
            let mut out = Vec::new();
            for &(pi, leader_dist) in &shared {
                // Per-member refinement: the member's own medoid distance
                // decides whether the partition is relevant (Lemma 1).
                let medoid = index.partitioning().partitions()[pi as usize].medoid;
                let d = if qi == g.leader {
                    leader_dist
                } else {
                    stats.count_distance();
                    footrule_pairs(&qp, store.sorted_pairs(medoid), store.k())
                };
                if d <= theta + theta_c {
                    index.partitioning().validate_into_with(
                        store,
                        pi as usize,
                        &qp,
                        theta,
                        Some(d),
                        &mut tree_stack,
                        stats,
                        &mut out,
                    );
                }
            }
            results[qi] = out;
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use ranksim_datasets::{nyt_like, workload, WorkloadParams};
    use ranksim_rankings::raw_threshold;

    #[test]
    fn batch_results_equal_individual_queries() {
        let ds = nyt_like(900, 10, 55);
        let index = CoarseIndex::build(&ds.store, raw_threshold(0.3, 10));
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 30,
                seed: 8,
                ..Default::default()
            },
        );
        let theta = raw_threshold(0.2, 10);
        for rho in [0u32, 8, 20] {
            let batch = QueryBatch {
                queries: &wl.queries,
                theta_raw: theta,
            };
            let mut stats = QueryStats::new();
            let got = batch_query(&index, &ds.store, &batch, rho, &mut stats);
            for (qi, q) in wl.queries.iter().enumerate() {
                let mut s = QueryStats::new();
                let mut expect = index.query(&ds.store, q, theta, false, &mut s);
                let mut g = got[qi].clone();
                expect.sort_unstable();
                g.sort_unstable();
                assert_eq!(g, expect, "query {qi} at ρ={rho}");
            }
        }
    }

    #[test]
    fn duplicate_queries_share_one_probe() {
        let ds = nyt_like(400, 10, 66);
        let index = CoarseIndex::build(&ds.store, raw_threshold(0.3, 10));
        let q: Vec<ItemId> = ds.store.items(RankingId(7)).to_vec();
        let queries = vec![q.clone(), q.clone(), q];
        let theta = raw_threshold(0.2, 10);
        let batch = QueryBatch {
            queries: &queries,
            theta_raw: theta,
        };
        let mut batched = QueryStats::new();
        let res = batch_query(&index, &ds.store, &batch, 0, &mut batched);
        assert_eq!(res[0], res[1]);
        assert_eq!(res[1], res[2]);
        let mut individual = QueryStats::new();
        for q in &queries {
            let _ = index.query(&ds.store, q, theta, false, &mut individual);
        }
        assert!(
            batched.lists_accessed < individual.lists_accessed,
            "batching must save index probes ({} vs {})",
            batched.lists_accessed,
            individual.lists_accessed
        );
    }

    #[test]
    fn clustering_radius_zero_groups_only_identical() {
        let a: Vec<ItemId> = (0..5u32).map(ItemId).collect();
        let b: Vec<ItemId> = (5..10u32).map(ItemId).collect();
        let groups = cluster_queries(&[a.clone(), b, a], 0);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0, 2]);
    }

    #[test]
    fn query_batch_equals_sequential_for_every_algorithm() {
        let ds = nyt_like(700, 10, 91);
        let domain = ds.params.domain;
        let engine = EngineBuilder::new(ds.store)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .build();
        let wl = workload(
            engine.store(),
            domain,
            WorkloadParams {
                num_queries: 24,
                seed: 17,
                ..Default::default()
            },
        );
        let theta = raw_threshold(0.2, 10);
        for alg in Algorithm::ALL {
            for threads in [1usize, 3, 0] {
                let (got, batch_stats) = engine.query_batch(alg, &wl.queries, theta, threads);
                assert_eq!(got.len(), wl.queries.len());
                let mut scratch = engine.scratch();
                let mut seq_stats = QueryStats::new();
                for (qi, q) in wl.queries.iter().enumerate() {
                    let expect = engine.query_items(alg, q, theta, &mut scratch, &mut seq_stats);
                    assert_eq!(got[qi], expect, "{alg} query {qi} at {threads} threads");
                }
                assert_eq!(
                    batch_stats, seq_stats,
                    "{alg}: merged batch stats must equal sequential stats"
                );
            }
        }
    }

    #[test]
    fn panicking_worker_task_fails_alone() {
        // Inject panics directly into the driver: queries 3, 10 and 17
        // die, everything else must complete with correct results and
        // the panics must be visible in the per-worker reports.
        let (results, reports) = run_stealing(20, 4, None, || {
            |qi: usize, _report: &mut WorkerReport| {
                if qi % 7 == 3 {
                    panic!("injected panic on query {qi}");
                }
                vec![RankingId(qi as u32)]
            }
        });
        assert_eq!(results.len(), 20);
        for (qi, out) in results.iter().enumerate() {
            if qi % 7 == 3 {
                assert!(out.is_empty(), "failed query {qi} must yield an empty set");
            } else {
                assert_eq!(out, &vec![RankingId(qi as u32)], "query {qi}");
            }
        }
        assert_eq!(reports.iter().map(|r| r.queries).sum::<u64>(), 20);
        assert_eq!(reports.iter().map(|r| r.failed).sum::<u64>(), 3);
        let msgs: Vec<&String> = reports.iter().filter_map(|r| r.error.as_ref()).collect();
        assert!(!msgs.is_empty(), "at least one worker recorded the panic");
        assert!(msgs
            .iter()
            .all(|m| m.starts_with("injected panic on query")));
    }

    #[test]
    fn query_batch_survives_a_poisoned_query() {
        // A wrong-length query trips the engine's own size assert inside
        // the worker; the batch must degrade (empty result set, error in
        // the report), not abort.
        let ds = nyt_like(300, 10, 5);
        let domain = ds.params.domain;
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let wl = workload(
            engine.store(),
            domain,
            WorkloadParams {
                num_queries: 8,
                seed: 3,
                ..Default::default()
            },
        );
        let theta = raw_threshold(0.2, 10);
        let mut queries = wl.queries.clone();
        queries[3].truncate(4);
        let (got, reports) = engine.query_batch_reported(Algorithm::Fv, &queries, theta, 2);
        assert!(got[3].is_empty());
        let mut scratch = engine.scratch();
        let mut s = QueryStats::new();
        for (qi, q) in queries.iter().enumerate() {
            if qi == 3 {
                continue;
            }
            let expect = engine.query_items(Algorithm::Fv, q, theta, &mut scratch, &mut s);
            assert_eq!(got[qi], expect, "query {qi}");
        }
        assert_eq!(reports.iter().map(|r| r.queries).sum::<u64>(), 8);
        assert_eq!(reports.iter().map(|r| r.failed).sum::<u64>(), 1);
        let err = reports
            .iter()
            .find_map(|r| r.error.clone())
            .expect("a worker recorded the panic");
        assert!(err.contains("query size"), "unexpected message: {err}");
    }

    #[test]
    fn an_expired_deadline_times_queries_out_individually() {
        // A deadline already in the past: every query is claimed after
        // it, so every query is skipped — but the batch still returns,
        // with the full index set accounted for in `timed_out`.
        let deadline = Instant::now() - Duration::from_millis(1);
        let (results, reports) = run_stealing(12, 3, Some(deadline), || {
            |qi: usize, _report: &mut WorkerReport| vec![RankingId(qi as u32)]
        });
        assert!(results.iter().all(|r| r.is_empty()));
        assert_eq!(reports.iter().map(|r| r.queries).sum::<u64>(), 12);
        assert_eq!(reports.iter().map(|r| r.failed).sum::<u64>(), 0);
        let mut skipped: Vec<usize> = reports
            .iter()
            .flat_map(|r| r.timed_out.iter().copied())
            .collect();
        skipped.sort_unstable();
        assert_eq!(skipped, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn a_slow_query_lets_the_rest_complete_and_times_out_the_tail() {
        // Query 0 burns past the deadline on one worker; the second
        // worker drains what it can before the deadline. Whatever is
        // claimed late is timed out, never silently dropped: every
        // index is either answered or in `timed_out`.
        let deadline = Instant::now() + Duration::from_millis(30);
        let (results, reports) = run_stealing(10, 2, Some(deadline), || {
            |qi: usize, _report: &mut WorkerReport| {
                if qi == 0 {
                    std::thread::sleep(Duration::from_millis(80));
                }
                vec![RankingId(qi as u32)]
            }
        });
        // The slow query itself started before the deadline: it
        // completes (claim-time check only, no mid-flight interrupt).
        assert_eq!(results[0], vec![RankingId(0)]);
        let timed_out: Vec<usize> = reports
            .iter()
            .flat_map(|r| r.timed_out.iter().copied())
            .collect();
        for qi in 1..10 {
            if timed_out.contains(&qi) {
                assert!(results[qi].is_empty(), "timed-out query {qi} has results");
            } else {
                assert_eq!(results[qi], vec![RankingId(qi as u32)], "query {qi}");
            }
        }
        assert_eq!(reports.iter().map(|r| r.queries).sum::<u64>(), 10);
    }

    #[test]
    fn query_batch_deadline_with_a_generous_budget_matches_query_batch() {
        let ds = nyt_like(300, 10, 77);
        let domain = ds.params.domain;
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let wl = workload(
            engine.store(),
            domain,
            WorkloadParams {
                num_queries: 12,
                seed: 9,
                ..Default::default()
            },
        );
        let theta = raw_threshold(0.2, 10);
        let (plain, _) = engine.query_batch(Algorithm::Fv, &wl.queries, theta, 2);
        let (with_deadline, reports) = engine.query_batch_deadline(
            Algorithm::Fv,
            &wl.queries,
            theta,
            2,
            Duration::from_secs(60),
        );
        assert_eq!(with_deadline, plain);
        assert!(reports.iter().all(|r| r.timed_out.is_empty()));
    }

    #[test]
    fn query_batch_handles_empty_batch() {
        let ds = nyt_like(100, 10, 2);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let (res, stats) = engine.query_batch(Algorithm::Fv, &[], 10, 4);
        assert!(res.is_empty());
        assert_eq!(stats, QueryStats::new());
    }
}
