//! The stacks under test behind one small interface, and the measured
//! phases every workload shares: warm-up with brute-force checks,
//! timed read rounds, timed top-k, timed writes.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_core::shard::{ShardedEngine, ShardedScratch};
use ranksim_core::{CalibratedCosts, PlanStats, RemoteShardedEngine, WorkerReport};
use ranksim_rankings::{ItemId, QueryScratch, QueryStats, RankingId, RankingStore};

use crate::inputs::{
    brute_threshold, brute_topk, fresh_ranking, same_ids, theta_raw_of, Inputs, K, NEIGHBOURS,
};
use crate::report::Report;
use crate::stats::Samples;

/// Every `CHECK_EVERY`-th read of a pass is checked against brute force.
pub const CHECK_EVERY: usize = 50;
/// Unmeasured passes over a query list before it is timed: the planner
/// explores every candidate in its first plans of a θ-bucket.
pub const WARM_PASSES: usize = 2;
/// ...and the passes go on for at least this long: the planner keeps
/// repricing from measured runtimes, and reads drift for about a second
/// (fast stacks finish two passes in milliseconds).
pub const WARM_MIN: Duration = Duration::from_millis(500);

/// The planner's cost primitives, pinned. By default an engine measures
/// them once per process in about a millisecond, and which side of a
/// near-tie that one measurement lands on moves every read of the
/// process by 10–15%: noise no amount of measuring within the run
/// averages out. The planner's online recalibration is left alone.
pub fn planner_costs() -> CalibratedCosts {
    CalibratedCosts::nominal(K)
}

/// The engine configuration of every workload: what the committed
/// artifacts use (plus [`planner_costs`]), no environment knob read.
pub fn engine_builder(store: RankingStore) -> EngineBuilder {
    EngineBuilder::new(store)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .topk_tree(true)
        .calibrated_costs(planner_costs())
}

/// Anything that answers threshold and top-k queries. A query that the
/// stack fails to answer returns `false`/`None` and counts as failed.
pub trait Stack {
    fn threshold(
        &mut self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        out: &mut Vec<RankingId>,
    ) -> bool;
    fn topk(&mut self, query: &[ItemId]) -> Option<Vec<(u32, RankingId)>>;
}

/// An in-process stack, which also hands out the library's own counts.
pub trait Counted: Stack {
    /// Counters accumulated over every call so far.
    fn stats(&self) -> QueryStats;
    /// Planner telemetry accumulated over every `Auto` call so far.
    fn plan(&self) -> PlanStats;
    fn live_len(&self) -> usize;
    fn batch(
        &self,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        budget: Option<Duration>,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>);
}

/// A monolithic [`Engine`] (also: the engine inside a snapshot).
pub struct Mono<'a> {
    engine: &'a Engine,
    scratch: QueryScratch,
    stats: QueryStats,
    plan: PlanStats,
    /// The executor the last threshold query ran (the planner's pick
    /// under `Auto`).
    pub last_pick: Algorithm,
}

impl<'a> Mono<'a> {
    pub fn new(engine: &'a Engine) -> Self {
        Mono {
            engine,
            scratch: engine.scratch(),
            stats: QueryStats::new(),
            plan: PlanStats::new(),
            last_pick: Algorithm::Auto,
        }
    }
}

impl Stack for Mono<'_> {
    fn threshold(
        &mut self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        out: &mut Vec<RankingId>,
    ) -> bool {
        let trace = self.engine.query_into_traced(
            algorithm,
            query,
            theta_raw,
            &mut self.scratch,
            &mut self.stats,
            out,
        );
        self.plan.record(&trace);
        self.last_pick = trace.algorithm;
        true
    }

    fn topk(&mut self, query: &[ItemId]) -> Option<Vec<(u32, RankingId)>> {
        Some(
            self.engine
                .query_topk(query, NEIGHBOURS, &mut self.scratch, &mut self.stats),
        )
    }
}

impl Counted for Mono<'_> {
    fn stats(&self) -> QueryStats {
        self.stats
    }

    fn plan(&self) -> PlanStats {
        self.plan
    }

    fn live_len(&self) -> usize {
        self.engine.live_len()
    }

    fn batch(
        &self,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        budget: Option<Duration>,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        match budget {
            Some(b) => {
                self.engine
                    .query_batch_deadline(Algorithm::Auto, queries, theta_raw, threads, b)
            }
            None => self
                .engine
                .query_batch_reported(Algorithm::Auto, queries, theta_raw, threads),
        }
    }
}

/// An in-process [`ShardedEngine`].
pub struct Sharded<'a> {
    engine: &'a ShardedEngine,
    scratch: ShardedScratch,
    stats: QueryStats,
    plan: PlanStats,
}

impl<'a> Sharded<'a> {
    pub fn new(engine: &'a ShardedEngine) -> Self {
        Sharded {
            engine,
            scratch: engine.scratch(),
            stats: QueryStats::new(),
            plan: PlanStats::new(),
        }
    }
}

impl Stack for Sharded<'_> {
    fn threshold(
        &mut self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        out: &mut Vec<RankingId>,
    ) -> bool {
        self.engine.query_into_recorded(
            algorithm,
            query,
            theta_raw,
            &mut self.scratch,
            &mut self.stats,
            &mut self.plan,
            out,
        );
        true
    }

    fn topk(&mut self, query: &[ItemId]) -> Option<Vec<(u32, RankingId)>> {
        Some(
            self.engine
                .query_topk(query, NEIGHBOURS, &mut self.scratch, &mut self.stats),
        )
    }
}

impl Counted for Sharded<'_> {
    fn stats(&self) -> QueryStats {
        self.stats
    }

    fn plan(&self) -> PlanStats {
        self.plan
    }

    fn live_len(&self) -> usize {
        self.engine.live_len()
    }

    fn batch(
        &self,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        budget: Option<Duration>,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        match budget {
            Some(b) => {
                self.engine
                    .query_batch_deadline(Algorithm::Auto, queries, theta_raw, threads, b)
            }
            None => self
                .engine
                .query_batch_reported(Algorithm::Auto, queries, theta_raw, threads),
        }
    }
}

/// The router in front of a fleet of shard worker processes.
pub struct Fleet<'a>(pub &'a mut RemoteShardedEngine);

impl Stack for Fleet<'_> {
    fn threshold(
        &mut self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        out: &mut Vec<RankingId>,
    ) -> bool {
        match self.0.query_threshold(algorithm, query, theta_raw) {
            Ok(ids) => {
                *out = ids;
                true
            }
            Err(_) => false,
        }
    }

    fn topk(&mut self, query: &[ItemId]) -> Option<Vec<(u32, RankingId)>> {
        self.0.query_topk(query, NEIGHBOURS).ok()
    }
}

/// The first pass over `queries`: every [`CHECK_EVERY`]-th answer is
/// compared with a brute-force scan of `oracle`. Returns each query's
/// result count, which every later read of the unchanged corpus —
/// warm or measured — is checked against.
pub fn checked_pass(
    stack: &mut impl Stack,
    queries: &[Vec<ItemId>],
    oracle: &RankingStore,
    report: &mut Report,
) -> Vec<u32> {
    let mut out = Vec::new();
    let mut lens = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let theta = theta_raw_of(i);
        let answered = stack.threshold(Algorithm::Auto, q, theta, &mut out);
        lens.push(out.len() as u32);
        if i % CHECK_EVERY == 0 {
            let expect = brute_threshold(oracle, q, theta);
            report.check(answered && same_ids(&out, &expect), || {
                format!(
                    "read {i} (theta_raw {theta}): {} ids, brute force finds {}",
                    out.len(),
                    expect.len()
                )
            });
        } else {
            report.check(answered, || format!("read {i} was not answered"));
        }
    }
    lens
}

/// Unmeasured passes over `queries` until `passes` are done and `min`
/// has passed.
pub fn warm(
    stack: &mut impl Stack,
    queries: &[Vec<ItemId>],
    lens: &[u32],
    passes: usize,
    min: Duration,
    report: &mut Report,
) {
    let mut out = Vec::new();
    let since = Instant::now();
    for pass in 0.. {
        if pass >= passes && since.elapsed() >= min {
            break;
        }
        for (i, q) in queries.iter().enumerate() {
            let answered = stack.threshold(Algorithm::Auto, q, theta_raw_of(i), &mut out);
            report.check(answered && out.len() as u32 == lens[i], || {
                format!("read {i}: answer changed between passes")
            });
        }
    }
}

/// The checked pass, then the rest of the warm-up.
pub fn warm_and_check(
    stack: &mut impl Stack,
    queries: &[Vec<ItemId>],
    oracle: &RankingStore,
    report: &mut Report,
) -> Vec<u32> {
    let lens = checked_pass(stack, queries, oracle, report);
    warm(stack, queries, &lens, WARM_PASSES - 1, WARM_MIN, report);
    lens
}

/// Timed closed-loop reads: one caller, `rounds` rounds of
/// `budget / rounds` each, cycling through `queries`. Returns the
/// per-round latency samples and per-round reads per second.
pub fn read_rounds(
    stack: &mut impl Stack,
    queries: &[Vec<ItemId>],
    lens: &[u32],
    budget: Duration,
    rounds: usize,
    report: &mut Report,
) -> (Vec<Samples>, Vec<f64>) {
    let mut out = Vec::new();
    let mut samples = Vec::with_capacity(rounds);
    let mut qps = Vec::with_capacity(rounds);
    let mut i = 0usize;
    for _ in 0..rounds {
        let mut round = Samples::with_capacity(1 << 16);
        let start = Instant::now();
        let deadline = start + budget / rounds as u32;
        let mut t = start;
        let mut wrong = 0u64;
        loop {
            let qi = i % queries.len();
            let answered =
                stack.threshold(Algorithm::Auto, &queries[qi], theta_raw_of(qi), &mut out);
            let end = Instant::now();
            round.push((end - t).as_nanos() as u64);
            wrong += u64::from(!answered || out.len() as u32 != lens[qi]);
            i += 1;
            t = end;
            if end >= deadline {
                break;
            }
        }
        qps.push(round.len() as f64 / (t - start).as_secs_f64());
        report.attempted(round.len() as u64);
        for _ in 0..wrong {
            report.fail(|| "a timed read's answer differs from the checked warm pass".into());
        }
        samples.push(round);
    }
    (samples, qps)
}

/// Timed top-k queries: the whole of `queries` once, every answer
/// compared with the brute-force top-k of `oracle` outside the timing,
/// then again in full passes while `budget` lasts. Whole passes only:
/// one top-k costs from microseconds to tens of milliseconds depending
/// on where the query falls, so the median of a part of the list is a
/// different number.
pub fn topk_phase(
    stack: &mut impl Stack,
    queries: &[Vec<ItemId>],
    oracle: &RankingStore,
    budget: Duration,
    report: &mut Report,
) -> Samples {
    let mut samples = Samples::default();
    let mut first: Vec<Option<Vec<(u32, RankingId)>>> = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let got = stack.topk(q);
        samples.push(t.elapsed().as_nanos() as u64);
        let expect = brute_topk(oracle, q, NEIGHBOURS);
        report.check(got.as_ref() == Some(&expect), || {
            format!("top-k {i}: {got:?} differs from brute force {expect:?}")
        });
        first.push(got);
    }
    let pass = Duration::from_nanos(samples.sum_ns());
    let mut timed = pass;
    while timed + pass <= budget {
        for (i, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let got = stack.topk(q);
            samples.push(t.elapsed().as_nanos() as u64);
            report.check(got == first[i], || {
                format!("top-k {i}: answer changed between passes")
            });
        }
        timed += pass;
    }
    samples
}

/// A stack whose corpus can be written to directly.
pub trait Writable {
    fn insert(&mut self, items: &[ItemId]) -> RankingId;
    fn remove(&mut self, id: RankingId) -> bool;
}

impl Writable for Engine {
    fn insert(&mut self, items: &[ItemId]) -> RankingId {
        self.insert_ranking(items)
    }

    fn remove(&mut self, id: RankingId) -> bool {
        self.remove_ranking(id)
    }
}

impl Writable for ShardedEngine {
    fn insert(&mut self, items: &[ItemId]) -> RankingId {
        self.insert_ranking(items)
    }

    fn remove(&mut self, id: RankingId) -> bool {
        self.remove_ranking(id)
    }
}

/// What a write phase did, for the checks that follow it.
#[derive(Default)]
pub struct Written {
    pub samples: Samples,
    /// Inserted and still live.
    pub inserted: Vec<RankingId>,
    pub removed: Vec<RankingId>,
}

/// Timed writes for `budget`, at most `cap`: two inserts of fresh
/// rankings, then a delete — alternately of the oldest own insert and
/// of a seeded base ranking. (Not one to one: an insert and a delete
/// cost differently, and the median write would sit on the edge between
/// the two.) `oracle` mirrors every write and must assign the same ids.
pub fn write_phase(
    target: &mut impl Writable,
    oracle: &mut RankingStore,
    inputs_domain: u32,
    seed: u64,
    budget: Duration,
    cap: usize,
    report: &mut Report,
) -> Written {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5752_4954);
    let base_len = oracle.len() as u32;
    let mut victim = rng.random_range(0..base_len);
    let mut own: std::collections::VecDeque<RankingId> = Default::default();
    let mut w = Written::default();
    let deadline = Instant::now() + budget;
    for j in 0..cap {
        if Instant::now() >= deadline {
            break;
        }
        if j % 3 != 2 {
            let items = fresh_ranking(oracle, inputs_domain, &mut rng);
            let t = Instant::now();
            let id = target.insert(&items);
            w.samples.push(t.elapsed().as_nanos() as u64);
            let mirrored = oracle.push_items_unchecked(&items);
            report.check(id == mirrored, || {
                format!(
                    "insert {j}: stack assigned id {}, a monolith assigns {}",
                    id.0, mirrored.0
                )
            });
            own.push_back(id);
        } else {
            let oldest_own = if j % 6 == 2 { own.pop_front() } else { None };
            let id = oldest_own.unwrap_or_else(|| loop {
                victim = (victim + 1) % base_len;
                if oracle.is_live(RankingId(victim)) {
                    break RankingId(victim);
                }
            });
            let t = Instant::now();
            let removed = target.remove(id);
            w.samples.push(t.elapsed().as_nanos() as u64);
            oracle.remove(id);
            report.check(removed, || {
                format!("delete {j}: live id {} reported missing", id.0)
            });
            w.removed.push(id);
        }
    }
    w.inserted = own.into();
    w
}

/// After writes or a reopen: `count` reads spread over the query list
/// and a handful of top-k queries against brute force over `oracle`.
pub fn spot_check(
    stack: &mut impl Stack,
    inputs: &Inputs,
    oracle: &RankingStore,
    count: usize,
    what: &str,
    report: &mut Report,
) {
    let mut out = Vec::new();
    let stride = (inputs.queries.len() / count.max(1)).max(1);
    for (n, i) in (0..inputs.queries.len()).step_by(stride).enumerate() {
        let (q, theta) = (&inputs.queries[i], theta_raw_of(i));
        let answered = stack.threshold(Algorithm::Auto, q, theta, &mut out);
        let expect = brute_threshold(oracle, q, theta);
        report.check(answered && same_ids(&out, &expect), || {
            format!(
                "{what}: read {i}: {} ids, brute force finds {}",
                out.len(),
                expect.len()
            )
        });
        if n % 5 == 0 {
            let got = stack.topk(q);
            let expect = brute_topk(oracle, q, NEIGHBOURS);
            report.check(got.as_ref() == Some(&expect), || {
                format!("{what}: top-k {i} differs from brute force")
            });
        }
    }
}

/// Splits `budget` seconds by `share`.
pub fn share(budget_s: f64, share: f64) -> Duration {
    Duration::from_secs_f64(budget_s * share)
}
