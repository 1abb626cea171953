//! Experiment harness: one function per table/figure of the paper's
//! evaluation (Section 7). The `repro` binary prints the same rows and
//! series the paper reports.
//!
//! Scaling knobs (environment variables, all optional):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `RANKSIM_NYT_N` | NYT-like corpus size | 50 000 |
//! | `RANKSIM_YAGO_N` | Yago-like corpus size | 25 000 |
//! | `RANKSIM_QUERIES` | queries measured per configuration | 200 |
//!
//! Wall-clock numbers are always reported **scaled to 1000 queries** like
//! the paper's plots, independent of `RANKSIM_QUERIES`.
//!
//! System performance (sharding, live corpora, serving, durability,
//! persistence, worker processes) is measured by the standalone
//! `benchmark/` package, not here. The [`serve`] module is the TCP
//! serving front-end that package drives.

pub mod serve;

use std::time::{Duration, Instant};

use ranksim_adaptsearch::AdaptSearchIndex;
use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_core::{CalibratedCosts, CoarseIndex, CostModel};
use ranksim_datasets::{nyt_like, workload, yago_like, Dataset, WorkloadParams};
use ranksim_invindex::{
    AugmentedInvertedIndex, BlockedInvertedIndex, MinimalFv, PlainInvertedIndex,
};
use ranksim_metricspace::{query_pairs, BkPartitioner, BkTree, MTree, VpTree};
use ranksim_rankings::{raw_threshold, ItemId, QueryScratch, QueryStats, RankingStore};

/// Experiment scaling configuration (from the environment).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// NYT-like corpus size.
    pub nyt_n: usize,
    /// Yago-like corpus size.
    pub yago_n: usize,
    /// Number of measured queries per configuration.
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Environment variables override the fields of `self` (the scale
    /// baseline picked by the `repro` bin's `--scale` flag).
    pub fn with_env_overrides(self) -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        ExpConfig {
            nyt_n: get("RANKSIM_NYT_N", self.nyt_n),
            yago_n: get("RANKSIM_YAGO_N", self.yago_n),
            queries: get("RANKSIM_QUERIES", self.queries),
            seed: self.seed,
        }
    }

    /// The laptop-budget default scale (NYT n = 50k).
    pub fn default_scale() -> Self {
        ExpConfig {
            nyt_n: 50_000,
            yago_n: 25_000,
            queries: 200,
            seed: 42,
        }
    }

    /// A small configuration for smoke runs (`repro --scale small`) and
    /// tests.
    pub fn small() -> Self {
        ExpConfig {
            nyt_n: 8_000,
            yago_n: 6_000,
            queries: 50,
            seed: 42,
        }
    }

    /// The paper's experiment scale: the NYT corpus has 1M rankings and
    /// Yago 25k; plots report times per 1000 queries. The figures build
    /// monolithic engines over the full corpus at this scale, so runs
    /// are long and memory-hungry.
    pub fn paper() -> Self {
        ExpConfig {
            nyt_n: 1_000_000,
            yago_n: 25_000,
            queries: 1000,
            seed: 42,
        }
    }

    /// Resolves a `--scale` name (`small`, `default`, `paper`).
    pub fn named_scale(name: &str) -> Option<Self> {
        match name {
            "small" => Some(Self::small()),
            "default" => Some(Self::default_scale()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

/// Which dataset family an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Skewed, heavily clustered (web-search result lists).
    Nyt,
    /// Near-uniform, lightly clustered (knowledge-base entity rankings).
    Yago,
}

impl Family {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Nyt => "NYT",
            Family::Yago => "Yago",
        }
    }
}

/// A loaded dataset plus its derived query workload.
pub struct Bench {
    /// The dataset.
    pub ds: Dataset,
    /// The query rankings.
    pub queries: Vec<Vec<ItemId>>,
    /// Queries-per-1000 scale factor for reporting.
    pub scale_to_1000: f64,
}

impl Bench {
    /// Generates a dataset of `family` at ranking size `k` with its
    /// workload.
    pub fn load(cfg: &ExpConfig, family: Family, k: usize) -> Bench {
        let ds = match family {
            Family::Nyt => nyt_like(cfg.nyt_n, k, cfg.seed),
            Family::Yago => yago_like(cfg.yago_n, k, cfg.seed + 1),
        };
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: cfg.queries,
                seed: cfg.seed + 7,
                ..Default::default()
            },
        );
        Bench {
            ds,
            scale_to_1000: 1000.0 / cfg.queries as f64,
            queries: wl.queries,
        }
    }

    /// The corpus store.
    pub fn store(&self) -> &RankingStore {
        &self.ds.store
    }
}

/// Milliseconds (f64) of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` over all queries, returning (duration, stats, total results).
fn time_queries<F: FnMut(&[ItemId], &mut QueryStats) -> usize>(
    queries: &[Vec<ItemId>],
    mut f: F,
) -> (Duration, QueryStats, usize) {
    let mut stats = QueryStats::new();
    let mut results = 0usize;
    let start = Instant::now();
    for q in queries {
        results += f(q, &mut stats);
    }
    (start.elapsed(), stats, results)
}

// ---------------------------------------------------------------------
// Figure 3: modeled cost curves
// ---------------------------------------------------------------------

/// One point of the Figure 3 model curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Normalized θ_C.
    pub theta_c: f64,
    /// Modeled filter cost (ms / 1000 queries).
    pub filter_ms: f64,
    /// Modeled validation cost (ms / 1000 queries).
    pub validate_ms: f64,
}

/// Figure 3: the theoretical filter/validate/overall cost for varying
/// θ_C (k = 10, θ = 0.2). Returns the curve and the model-optimal θ_C.
pub fn fig3(bench: &Bench, theta: f64, calibrated: bool) -> (Vec<Fig3Row>, f64) {
    let k = bench.store().k();
    let costs = if calibrated {
        CalibratedCosts::measure(k)
    } else {
        CalibratedCosts::nominal(k)
    };
    let model = CostModel::from_store(bench.store(), 60_000, 11, costs);
    let theta_raw = raw_threshold(theta, k);
    let to_ms = 1000.0 / 1e6; // ns/query -> ms/1000 queries
    let mut rows = Vec::new();
    let mut tc = 0.0;
    while tc <= 0.8 + 1e-9 {
        let b = model.breakdown(theta_raw, raw_threshold(tc, k));
        rows.push(Fig3Row {
            theta_c: tc,
            filter_ms: b.filter * to_ms,
            validate_ms: b.validate * to_ms,
        });
        tc += 0.05;
    }
    let opt = model.optimal_theta_c_normalized(theta);
    (rows, opt)
}

// ---------------------------------------------------------------------
// Figures 5 & 6: metric trees vs the inverted index
// ---------------------------------------------------------------------

/// Seconds per 1000 queries for one structure at one configuration.
#[derive(Debug, Clone, Copy)]
pub struct TimedPoint {
    /// The swept parameter (k or θ).
    pub x: f64,
    /// Seconds per 1000 queries.
    pub seconds: f64,
}

/// Which structure Figures 5/6 time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Burkhard–Keller tree.
    BkTree,
    /// M-tree.
    MTree,
    /// VP-tree (ablation extra, not in the paper's figure).
    VpTree,
    /// Plain inverted index with F&V.
    Fv,
}

impl Structure {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Structure::BkTree => "BK-tree",
            Structure::MTree => "M-tree",
            Structure::VpTree => "VP-tree",
            Structure::Fv => "F&V",
        }
    }
}

/// Times `structure` on `bench` at normalized threshold `theta`.
fn time_structure(bench: &Bench, structure: Structure, theta: f64) -> f64 {
    let store = bench.store();
    let raw = raw_threshold(theta, store.k());
    let run = |f: &mut dyn FnMut(&[ItemId], &mut QueryStats) -> usize| {
        let (d, _, _) = time_queries(&bench.queries, f);
        ms(d) / 1e3 * bench.scale_to_1000
    };
    match structure {
        Structure::BkTree => {
            let t = BkTree::build(store);
            run(&mut |q, s| t.range_query(store, &query_pairs(q), raw, s).len())
        }
        Structure::MTree => {
            let t = MTree::build(store);
            run(&mut |q, s| t.range_query(store, &query_pairs(q), raw, s).len())
        }
        Structure::VpTree => {
            let t = VpTree::build(store, 5);
            run(&mut |q, s| t.range_query(store, &query_pairs(q), raw, s).len())
        }
        Structure::Fv => {
            let idx = PlainInvertedIndex::build(store);
            run(&mut |q, s| ranksim_invindex::fv::filter_validate(&idx, store, q, raw, s).len())
        }
    }
}

/// Figure 5/6 sweep (a): vary k at fixed θ.
pub fn sweep_k(
    cfg: &ExpConfig,
    family: Family,
    structures: &[Structure],
    ks: &[usize],
    theta: f64,
) -> Vec<(Structure, Vec<TimedPoint>)> {
    let mut out: Vec<(Structure, Vec<TimedPoint>)> =
        structures.iter().map(|&s| (s, Vec::new())).collect();
    for &k in ks {
        let bench = Bench::load(cfg, family, k);
        for (si, &s) in structures.iter().enumerate() {
            let secs = time_structure(&bench, s, theta);
            out[si].1.push(TimedPoint {
                x: k as f64,
                seconds: secs,
            });
        }
    }
    out
}

/// Figure 5/6 sweep (b): vary θ at fixed k. Each structure is built once
/// and queried at every θ.
pub fn sweep_theta(
    cfg: &ExpConfig,
    family: Family,
    structures: &[Structure],
    k: usize,
    thetas: &[f64],
) -> Vec<(Structure, Vec<TimedPoint>)> {
    let bench = Bench::load(cfg, family, k);
    let store = bench.store();
    let queries = &bench.queries;
    structures
        .iter()
        .map(|&s| {
            // Build once, then time the query batch per threshold.
            let mut run_at: Box<dyn FnMut(u32) -> Duration> = match s {
                Structure::BkTree => {
                    let t = BkTree::build(store);
                    Box::new(move |raw| {
                        time_queries(queries, |q, st| {
                            t.range_query(store, &query_pairs(q), raw, st).len()
                        })
                        .0
                    })
                }
                Structure::MTree => {
                    let t = MTree::build(store);
                    Box::new(move |raw| {
                        time_queries(queries, |q, st| {
                            t.range_query(store, &query_pairs(q), raw, st).len()
                        })
                        .0
                    })
                }
                Structure::VpTree => {
                    let t = VpTree::build(store, 5);
                    Box::new(move |raw| {
                        time_queries(queries, |q, st| {
                            t.range_query(store, &query_pairs(q), raw, st).len()
                        })
                        .0
                    })
                }
                Structure::Fv => {
                    let idx = PlainInvertedIndex::build(store);
                    Box::new(move |raw| {
                        time_queries(queries, |q, st| {
                            ranksim_invindex::fv::filter_validate(&idx, store, q, raw, st).len()
                        })
                        .0
                    })
                }
            };
            let pts = thetas
                .iter()
                .map(|&t| TimedPoint {
                    x: t,
                    seconds: ms(run_at(raw_threshold(t, k))) / 1e3 * bench.scale_to_1000,
                })
                .collect();
            (s, pts)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7 + Table 5: measured coarse-index sweep and model accuracy
// ---------------------------------------------------------------------

/// One measured point of the Figure 7 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Normalized θ_C.
    pub theta_c: f64,
    /// Measured filtering time (ms / 1000 queries).
    pub filter_ms: f64,
    /// Measured validation time (ms / 1000 queries).
    pub validate_ms: f64,
    /// Partitions in the index at this θ_C.
    pub partitions: usize,
}

/// Sweeps θ_C, measuring the coarse index's filter and validation phases
/// separately (k = 10 in the paper; uses the bench's k). The BK-tree is
/// built once and re-partitioned per θ_C.
pub fn fig7_sweep(bench: &Bench, theta: f64, theta_cs: &[f64]) -> Vec<Fig7Row> {
    let store = bench.store();
    let k = store.k();
    let theta_raw = raw_threshold(theta, k);
    let tree = BkTree::build(store);
    theta_cs
        .iter()
        .map(|&tc| {
            let part = BkPartitioner::partition_tree(tree.clone(), raw_threshold(tc, k));
            let index = CoarseIndex::from_partitioning(store, part);
            let mut filter_time = Duration::ZERO;
            let mut validate_time = Duration::ZERO;
            let mut stats = QueryStats::new();
            let mut scratch = QueryScratch::new();
            let mut filtered = Vec::new();
            let mut results = Vec::new();
            for q in &bench.queries {
                let t0 = Instant::now();
                filtered.clear();
                index.filter_into(
                    store,
                    q,
                    theta_raw,
                    false,
                    &mut scratch,
                    &mut stats,
                    &mut filtered,
                );
                filter_time += t0.elapsed();
                let t1 = Instant::now();
                results.clear();
                index.validate_with(
                    store,
                    q,
                    theta_raw,
                    &filtered,
                    &mut scratch,
                    &mut stats,
                    &mut results,
                );
                validate_time += t1.elapsed();
            }
            Fig7Row {
                theta_c: tc,
                filter_ms: ms(filter_time) * bench.scale_to_1000,
                validate_ms: ms(validate_time) * bench.scale_to_1000,
                partitions: index.num_partitions(),
            }
        })
        .collect()
}

/// Table 5 row: gap between the measured-best θ_C and the model-chosen
/// θ_C, in ms per 1000 queries.
#[derive(Debug, Clone, Copy)]
pub struct Table5Row {
    /// Query threshold θ.
    pub theta: f64,
    /// θ_C minimizing the measured total time.
    pub best_theta_c: f64,
    /// The model's choice.
    pub model_theta_c: f64,
    /// Measured total at the best θ_C.
    pub best_ms: f64,
    /// Measured total at the model θ_C.
    pub model_ms: f64,
}

impl Table5Row {
    /// |measured(model θ_C) − measured(best θ_C)|.
    pub fn gap_ms(&self) -> f64 {
        (self.model_ms - self.best_ms).abs()
    }
}

/// Table 5: model-accuracy check over several query thresholds.
pub fn table5(bench: &Bench, thetas: &[f64], theta_cs: &[f64]) -> Vec<Table5Row> {
    let k = bench.store().k();
    let costs = CalibratedCosts::measure(k);
    let model = CostModel::from_store(bench.store(), 60_000, 11, costs);
    thetas
        .iter()
        .map(|&theta| {
            let rows = fig7_sweep(bench, theta, theta_cs);
            let total = |r: &Fig7Row| r.filter_ms + r.validate_ms;
            let best = rows
                .iter()
                .min_by(|a, b| total(a).total_cmp(&total(b)))
                .expect("non-empty sweep");
            let model_tc = model.optimal_theta_c_normalized(theta);
            // Measure at the grid point closest to the model's choice.
            let model_row = rows
                .iter()
                .min_by(|a, b| {
                    (a.theta_c - model_tc)
                        .abs()
                        .total_cmp(&(b.theta_c - model_tc).abs())
                })
                .expect("non-empty sweep");
            Table5Row {
                theta,
                best_theta_c: best.theta_c,
                model_theta_c: model_tc,
                best_ms: total(best),
                model_ms: total(model_row),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 8, 9, 10: the all-algorithm comparison
// ---------------------------------------------------------------------

/// The nine techniques of the comparison figures (the eight ad-hoc
/// algorithms plus the Minimal F&V oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// One of the engine's ad-hoc algorithms.
    Engine(Algorithm),
    /// The workload-materialized oracle.
    MinimalFv,
}

impl Technique {
    /// All techniques in the paper's legend order.
    pub const ALL: [Technique; 9] = [
        Technique::Engine(Algorithm::Fv),
        Technique::Engine(Algorithm::ListMerge),
        Technique::Engine(Algorithm::AdaptSearch),
        Technique::MinimalFv,
        Technique::Engine(Algorithm::Coarse),
        Technique::Engine(Algorithm::CoarseDrop),
        Technique::Engine(Algorithm::BlockedPrune),
        Technique::Engine(Algorithm::BlockedPruneDrop),
        Technique::Engine(Algorithm::FvDrop),
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Engine(a) => a.name(),
            Technique::MinimalFv => "Minimal F&V",
        }
    }
}

/// Measurement of one technique at one (k, θ) configuration.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonCell {
    /// ms per 1000 queries.
    pub time_ms: f64,
    /// Distance-function calls over the measured workload (Figure 10).
    pub dfc: u64,
    /// Total results returned.
    pub results: usize,
}

/// The Figure 8/9/10 engine bundle for one dataset and k.
pub struct ComparisonSetup {
    /// The engine with all ad-hoc indexes (Coarse at θ_C = 0.5,
    /// Coarse+Drop at θ_C = 0.06 — the paper's settings).
    pub engine: Engine,
    bench: Bench,
    oracles: Vec<(f64, MinimalFv)>,
}

impl ComparisonSetup {
    /// Builds every index for `family` at ranking size `k`.
    pub fn build(cfg: &ExpConfig, family: Family, k: usize, thetas: &[f64]) -> Self {
        let bench = Bench::load(cfg, family, k);
        let engine = EngineBuilder::new(bench.ds.store.clone())
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .build();
        let oracles = thetas
            .iter()
            .map(|&t| {
                let raw = raw_threshold(t, k);
                let wl: Vec<(Vec<ItemId>, u32)> =
                    bench.queries.iter().map(|q| (q.clone(), raw)).collect();
                (t, MinimalFv::build(engine.store(), &wl))
            })
            .collect();
        ComparisonSetup {
            engine,
            bench,
            oracles,
        }
    }

    /// Measures one technique at normalized threshold `theta`.
    pub fn measure(&self, technique: Technique, theta: f64) -> ComparisonCell {
        let store = self.engine.store();
        let raw = raw_threshold(theta, store.k());
        let (d, stats, results) = match technique {
            Technique::Engine(alg) => {
                let mut scratch = self.engine.scratch();
                let mut out = Vec::new();
                time_queries(&self.bench.queries, |q, s| {
                    self.engine
                        .query_into(alg, q, raw, &mut scratch, s, &mut out);
                    out.len()
                })
            }
            Technique::MinimalFv => {
                let oracle = &self
                    .oracles
                    .iter()
                    .find(|(t, _)| (*t - theta).abs() < 1e-9)
                    .expect("oracle built for θ")
                    .1;
                let mut qi = 0usize;
                time_queries(&self.bench.queries, |q, s| {
                    let r = oracle.query(store, qi, q, raw, s).len();
                    qi += 1;
                    r
                })
            }
        };
        ComparisonCell {
            time_ms: ms(d) * self.bench.scale_to_1000,
            dfc: stats.distance_calls,
            results,
        }
    }
}

// ---------------------------------------------------------------------
// Table 6: index sizes and construction times
// ---------------------------------------------------------------------

/// One Table 6 row.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Index name as in the paper.
    pub index: &'static str,
    /// Size in MB (structure + the complete rankings, as in the paper).
    pub size_mb: f64,
    /// Construction time in seconds.
    pub construction_s: f64,
}

/// Table 6: builds each index once and reports size and build time
/// (θ_C = 0.5 for the coarse index, as in the paper).
pub fn table6(bench: &Bench) -> Vec<Table6Row> {
    let store = bench.store();
    let base = store.heap_bytes();
    let mb = |b: usize| (b + base) as f64 / (1024.0 * 1024.0);
    let mut rows = Vec::new();

    let t = Instant::now();
    let plain = PlainInvertedIndex::build(store);
    rows.push(Table6Row {
        index: "Plain Inverted Index",
        size_mb: mb(plain.heap_bytes()),
        construction_s: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    let aug = AugmentedInvertedIndex::build(store);
    let blocked = BlockedInvertedIndex::build(store);
    rows.push(Table6Row {
        index: "Augmented Inverted Index",
        size_mb: mb(aug.heap_bytes() + blocked.heap_bytes()),
        construction_s: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    let adapt = AdaptSearchIndex::build(store);
    rows.push(Table6Row {
        index: "Delta Inverted Index",
        size_mb: mb(adapt.heap_bytes()),
        construction_s: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    let bk = BkTree::build(store);
    rows.push(Table6Row {
        index: "BK-tree",
        size_mb: mb(bk.heap_bytes()),
        construction_s: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    let mtree = MTree::build(store);
    rows.push(Table6Row {
        index: "M-tree",
        size_mb: mb(mtree.heap_bytes()),
        construction_s: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    let coarse = CoarseIndex::build(store, raw_threshold(0.5, store.k()));
    rows.push(Table6Row {
        index: "Coarse Index",
        size_mb: mb(coarse.heap_bytes()),
        construction_s: t.elapsed().as_secs_f64(),
    });

    rows
}

// ---------------------------------------------------------------------
// Planner sweep: Algorithm::Auto vs the per-configuration oracle
// ---------------------------------------------------------------------

/// Configuration of one `repro planner` sweep.
#[derive(Debug, Clone)]
pub struct PlannerRunConfig {
    /// The planner's candidate set (the `--algorithms` flag; defaults to
    /// all eight techniques).
    pub candidates: Vec<Algorithm>,
    /// Normalized query thresholds swept.
    pub thetas: Vec<f64>,
    /// Corpus sizes swept.
    pub sizes: Vec<usize>,
    /// Timed passes per configuration (the median is reported).
    pub rounds: usize,
}

/// Parses the `--algorithms` flag value: a comma-separated list of
/// planner candidates in paper names or lax spellings (`fv`,
/// `F&V+Drop`, `blocked_prune`, …). At least one concrete algorithm is
/// required and `Auto` is rejected — the flag *configures* Auto's
/// candidate set.
pub fn parse_algorithms_flag(list: &str) -> Result<Vec<Algorithm>, String> {
    let parsed: Result<Vec<Algorithm>, _> = list.split(',').map(|s| s.trim().parse()).collect();
    match parsed {
        Ok(algs) if algs.is_empty() => Err("expected at least one algorithm".into()),
        Ok(algs) if algs.contains(&Algorithm::Auto) => {
            Err("Auto cannot be its own candidate; list concrete algorithms".into())
        }
        Ok(algs) => {
            // Dedup (order-preserving): a repeated candidate would get
            // multiple exploration slots and double-count in win rates.
            let mut seen = Vec::new();
            for a in algs {
                if !seen.contains(&a) {
                    seen.push(a);
                }
            }
            Ok(seen)
        }
        Err(e) => Err(e.to_string()),
    }
}

impl PlannerRunConfig {
    /// Defaults: all eight candidates, θ ∈ {0.05, 0.1, 0.2, 0.3}, corpus
    /// sizes {n/4, n}, 2 timed rounds (`RANKSIM_PLANNER_ROUNDS`).
    pub fn from_env(cfg: &ExpConfig, candidates: Option<Vec<Algorithm>>) -> Self {
        let rounds = std::env::var("RANKSIM_PLANNER_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2usize)
            .max(1);
        PlannerRunConfig {
            candidates: candidates.unwrap_or_else(|| Algorithm::ALL.to_vec()),
            thetas: vec![0.05, 0.1, 0.2, 0.3],
            sizes: vec![(cfg.nyt_n / 4).max(500), cfg.nyt_n],
            rounds,
        }
    }
}

/// One (corpus size, θ) cell of the planner sweep.
#[derive(Debug, Clone)]
pub struct PlannerRow {
    /// Corpus size.
    pub n: usize,
    /// Normalized query threshold.
    pub theta: f64,
    /// Measured ms / 1000 queries per fixed candidate algorithm.
    pub alg_ms: Vec<(Algorithm, f64)>,
    /// Measured ms / 1000 queries for `Auto` (planning + dispatch
    /// overhead included), after four recalibration warm-up passes.
    pub auto_ms: f64,
    /// The best fixed algorithm of this cell (the oracle).
    pub oracle: Algorithm,
    /// The oracle's time.
    pub oracle_ms: f64,
    /// Planner picks per algorithm over the measured pass.
    pub picks: Vec<(Algorithm, u64)>,
    /// Sum of planner-predicted costs over the measured pass (calibrated ns).
    pub predicted_ns: f64,
    /// Sum of measured executor runtimes over the measured pass (ns).
    pub actual_ns: f64,
}

impl PlannerRow {
    /// `auto / oracle − 1`: how much slower Auto was than the
    /// best-in-hindsight fixed choice (negative when per-query switching
    /// beats every fixed algorithm).
    pub fn regret(&self) -> f64 {
        self.auto_ms / self.oracle_ms.max(1e-9) - 1.0
    }
}

/// Everything one planner sweep measured (the `BENCH_planner.json`
/// artifact).
#[derive(Debug, Clone)]
pub struct PlannerReport {
    /// Dataset family name.
    pub dataset: String,
    /// Ranking size.
    pub k: usize,
    /// Queries per configuration.
    pub queries: usize,
    /// The candidate set in effect.
    pub candidates: Vec<Algorithm>,
    /// One row per (corpus size, θ).
    pub rows: Vec<PlannerRow>,
}

impl PlannerReport {
    /// Time-weighted sweep-wide regret: `Σ auto / Σ oracle − 1`.
    pub fn overall_regret(&self) -> f64 {
        let auto: f64 = self.rows.iter().map(|r| r.auto_ms).sum();
        let oracle: f64 = self.rows.iter().map(|r| r.oracle_ms).sum();
        auto / oracle.max(1e-9) - 1.0
    }

    /// Fraction of planner picks per algorithm across the whole sweep.
    pub fn win_rate(&self) -> Vec<(Algorithm, f64)> {
        let mut totals: Vec<(Algorithm, u64)> =
            self.candidates.iter().map(|&a| (a, 0u64)).collect();
        let mut all = 0u64;
        for row in &self.rows {
            for &(alg, n) in &row.picks {
                if let Some(t) = totals.iter_mut().find(|(a, _)| *a == alg) {
                    t.1 += n;
                }
                all += n;
            }
        }
        totals
            .into_iter()
            .map(|(a, n)| (a, n as f64 / all.max(1) as f64))
            .collect()
    }

    /// Renders the report as a JSON object (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"planner_sweep\",\n");
        s.push_str(&format!(
            "  \"workload\": {{\"dataset\": \"{}\", \"k\": {}, \"queries\": {}}},\n",
            self.dataset, self.k, self.queries
        ));
        s.push_str(&format!(
            "  \"candidates\": [{}],\n",
            self.candidates
                .iter()
                .map(|a| format!("\"{a}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!(
            "  \"overall_regret\": {:.4},\n",
            self.overall_regret()
        ));
        s.push_str(&format!(
            "  \"win_rate\": {{{}}},\n",
            self.win_rate()
                .iter()
                .map(|(a, w)| format!("\"{a}\": {w:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"n\": {}, \"theta\": {}, \"auto_ms\": {:.3}, \"oracle\": \"{}\", \
                 \"oracle_ms\": {:.3}, \"regret\": {:.4}, \"predicted_ns\": {:.0}, \
                 \"actual_ns\": {:.0}, \"alg_ms\": {{{}}}, \"picks\": {{{}}}}}{}\n",
                r.n,
                r.theta,
                r.auto_ms,
                r.oracle,
                r.oracle_ms,
                r.regret(),
                r.predicted_ns,
                r.actual_ns,
                r.alg_ms
                    .iter()
                    .map(|(a, m)| format!("\"{a}\": {m:.3}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.picks
                    .iter()
                    .map(|(a, n)| format!("\"{a}\": {n}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The `repro planner` sweep: for every (corpus size, θ) it interleaves
/// timed passes of each fixed candidate algorithm with `Algorithm::Auto`
/// (after four recalibration warm-up passes over the workload) and
/// reports per-technique medians, per-cell win-rates, and the planner's
/// regret against the best-in-hindsight fixed algorithm. Each engine
/// carries the real measured machine calibration, so the planner runs
/// exactly as a production caller would see it.
pub fn run_planner_sweep(cfg: &ExpConfig, rc: &PlannerRunConfig) -> PlannerReport {
    let k = 10usize;
    let mut rows = Vec::new();
    for &n in &rc.sizes {
        let mut sized = *cfg;
        sized.nyt_n = n;
        let bench = Bench::load(&sized, Family::Nyt, k);
        let mut selected = rc.candidates.clone();
        selected.push(Algorithm::Auto);
        let engine = EngineBuilder::new(bench.ds.store.clone())
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .algorithms(&selected)
            .build();
        let mut scratch = engine.scratch();
        let mut out = Vec::new();
        for &theta in &rc.thetas {
            let raw = raw_threshold(theta, k);
            let mut run_pass = |alg: Algorithm| -> (Duration, ranksim_core::PlanStats) {
                let mut plan = ranksim_core::PlanStats::new();
                let mut stats = QueryStats::new();
                let start = Instant::now();
                for q in &bench.queries {
                    let trace =
                        engine.query_into_traced(alg, q, raw, &mut scratch, &mut stats, &mut out);
                    plan.record(&trace);
                }
                (start.elapsed(), plan)
            };
            // Warm-up passes drain this θ-bucket's exploration phase and
            // recalibrate its level estimates from measured runtimes;
            // the measured rounds then reflect the planner's steady
            // state.
            for _ in 0..4 {
                let _ = run_pass(Algorithm::Auto);
            }
            // Measured rounds interleave every fixed arm with Auto so
            // environmental drift (CPU frequency, noisy neighbours)
            // spreads evenly instead of systematically taxing whichever
            // technique happens to run last; medians per technique are
            // then comparable, and symmetric between the arms and Auto.
            // Round 0 is an untimed warm round: it gives every *fixed*
            // arm the same warmed start Auto already got from its
            // recalibration passes.
            let mut arm_rounds: Vec<Vec<Duration>> = vec![Vec::new(); rc.candidates.len()];
            let mut auto_rounds: Vec<(Duration, ranksim_core::PlanStats)> = Vec::new();
            for round in 0..=rc.rounds {
                for (ai, &alg) in rc.candidates.iter().enumerate() {
                    let d = run_pass(alg).0;
                    if round > 0 {
                        arm_rounds[ai].push(d);
                    }
                }
                let r = run_pass(Algorithm::Auto);
                if round > 0 {
                    auto_rounds.push(r);
                }
            }
            // Lower median: well-defined for even round counts and
            // applied identically to the arms and Auto.
            let median = |mut ds: Vec<Duration>| -> Duration {
                ds.sort_unstable();
                ds[(ds.len() - 1) / 2]
            };
            let alg_ms: Vec<(Algorithm, f64)> = rc
                .candidates
                .iter()
                .zip(arm_rounds)
                .map(|(&alg, ds)| (alg, ms(median(ds)) * bench.scale_to_1000))
                .collect();
            auto_rounds.sort_unstable_by_key(|&(d, _)| d);
            let (auto_d, plan) = auto_rounds.swap_remove((auto_rounds.len() - 1) / 2);
            let auto_ms = ms(auto_d) * bench.scale_to_1000;
            let &(oracle, oracle_ms) = alg_ms
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty candidate set");
            rows.push(PlannerRow {
                n,
                theta,
                alg_ms: alg_ms.clone(),
                auto_ms,
                oracle,
                oracle_ms,
                picks: rc
                    .candidates
                    .iter()
                    .map(|&a| (a, plan.picks_of(a)))
                    .collect(),
                predicted_ns: plan.predicted_ns,
                actual_ns: plan.actual_ns,
            });
        }
    }
    PlannerReport {
        dataset: "NYT".into(),
        k,
        queries: cfg.queries,
        candidates: rc.candidates.clone(),
        rows,
    }
}

// ---------------------------------------------------------------------
// Verification sweep
// ---------------------------------------------------------------------

/// Asserts that all techniques return identical result sets on the given
/// bench (run before timing anything). Returns the number of checked
/// (query, θ) pairs.
pub fn verify(setup: &ComparisonSetup, thetas: &[f64]) -> usize {
    let store = setup.engine.store();
    let mut checked = 0usize;
    let mut scratch = setup.engine.scratch();
    for (qi, q) in setup.bench.queries.iter().enumerate().take(25) {
        for &theta in thetas {
            let raw = raw_threshold(theta, store.k());
            let mut stats = QueryStats::new();
            let mut expect =
                setup
                    .engine
                    .query_items(Algorithm::Fv, q, raw, &mut scratch, &mut stats);
            expect.sort_unstable();
            for alg in Algorithm::ALL {
                let mut got = setup
                    .engine
                    .query_items(alg, q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                assert_eq!(got, expect, "{alg} disagrees at θ={theta}, query {qi}");
            }
            checked += 1;
        }
    }
    checked
}

// ---------------------------------------------------------------------
// Ablations (not in the paper; validate DESIGN.md's design choices)
// ---------------------------------------------------------------------

/// Result of one ablation arm.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Arm name.
    pub arm: String,
    /// ms per 1000 queries.
    pub time_ms: f64,
    /// Distance-function calls over the workload.
    pub dfc: u64,
}

/// Ablation A — Lemma 2 list-selection policy: dropping the *longest*
/// lists (the paper's heuristic) vs naively keeping the first `k − ω`
/// query positions vs keeping all lists.
pub fn ablation_drop_policy(bench: &Bench, theta: f64) -> Vec<AblationRow> {
    use ranksim_invindex::drop::omega;
    use ranksim_invindex::fv;
    let store = bench.store();
    let k = store.k();
    let raw = raw_threshold(theta, k);
    let index = PlainInvertedIndex::build(store);
    let mut rows = Vec::new();

    let (d, stats, _) = time_queries(&bench.queries, |q, s| {
        fv::filter_validate(&index, store, q, raw, s).len()
    });
    rows.push(AblationRow {
        arm: "keep all lists (F&V)".into(),
        time_ms: ms(d) * bench.scale_to_1000,
        dfc: stats.distance_calls,
    });

    let (d, stats, _) = time_queries(&bench.queries, |q, s| {
        fv::filter_validate_drop(&index, store, q, raw, s).len()
    });
    rows.push(AblationRow {
        arm: "drop longest lists (paper)".into(),
        time_ms: ms(d) * bench.scale_to_1000,
        dfc: stats.distance_calls,
    });

    // Naive positional policy: keep query positions 0..max(1, k−ω) —
    // the prefix always contains position 0 < ω, so Lemma 2 still holds.
    let (d, stats, _) = time_queries(&bench.queries, |q, s| {
        let w = omega(k, raw);
        let keep: Vec<usize> = (0..(k - w).max(1)).collect();
        fv::filter_validate_positions(&index, store, q, &keep, raw, s).len()
    });
    rows.push(AblationRow {
        arm: "drop trailing positions (naive)".into(),
        time_ms: ms(d) * bench.scale_to_1000,
        dfc: stats.distance_calls,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithms_flag_parses_lax_spellings_and_rejects_bad_input() {
        assert_eq!(
            parse_algorithms_flag("fv, listmerge ,Coarse+Drop").unwrap(),
            vec![Algorithm::Fv, Algorithm::ListMerge, Algorithm::CoarseDrop]
        );
        assert_eq!(
            parse_algorithms_flag("F&V+Drop,blocked_prune_drop").unwrap(),
            vec![Algorithm::FvDrop, Algorithm::BlockedPruneDrop]
        );
        assert!(parse_algorithms_flag("fv,unknown")
            .unwrap_err()
            .contains("unknown algorithm 'unknown'"));
        assert!(
            parse_algorithms_flag("auto").is_err(),
            "Auto is not a candidate"
        );
        assert!(parse_algorithms_flag("").is_err());
    }

    #[test]
    fn table6_sizes_account_for_headers_and_structures_exactly() {
        let mut cfg = ExpConfig::small();
        cfg.nyt_n = 1500;
        cfg.queries = 5;
        let bench = Bench::load(&cfg, Family::Nyt, 10);
        let rows = table6(&bench);
        assert_eq!(rows.len(), 6);
        let base_mb = bench.store().heap_bytes() as f64 / (1024.0 * 1024.0);
        for r in &rows {
            assert!(
                r.size_mb > base_mb,
                "{} must include the store base plus the structure",
                r.index
            );
        }
        // The plain row reports exactly the CSR index's heap_bytes (index
        // header + offsets array + postings array + remap) on top of the
        // store — the exact accounting the heap_bytes fix introduced.
        let plain = PlainInvertedIndex::build(bench.store());
        let expect_mb =
            (plain.heap_bytes() + bench.store().heap_bytes()) as f64 / (1024.0 * 1024.0);
        assert!(
            (rows[0].size_mb - expect_mb).abs() < 1e-9,
            "Table 6 plain row {} != exact heap_bytes {}",
            rows[0].size_mb,
            expect_mb
        );
        // The exact count covers the header and one slot per (ranking,
        // item) posting, which the old hashmap accounting undercounted.
        assert!(
            plain.heap_bytes()
                >= std::mem::size_of::<PlainInvertedIndex>()
                    + bench.store().len() * bench.store().k() * 4
        );
    }
}

/// Ablation B — partitioning scheme behind the coarse index: shared
/// BK-subtrees (the paper's Figure 1 design, zero extra distance calls)
/// vs Chávez–Navarro random medoids with per-partition BK-trees. Each
/// arm reports its construction cost both as distance calls and as
/// wall-clock seconds.
pub fn ablation_partitioner(bench: &Bench, theta: f64, theta_c: f64) -> Vec<AblationRow> {
    use ranksim_metricspace::RandomMedoidPartitioner;
    let store = bench.store();
    let k = store.k();
    let raw = raw_threshold(theta, k);
    let raw_c = raw_threshold(theta_c, k);
    let mut rows = Vec::new();

    let arms: [(&str, &dyn Fn() -> CoarseIndex); 2] = [
        ("BK-subtree partitions (paper)", &|| {
            CoarseIndex::build(store, raw_c)
        }),
        ("random-medoid partitions", &|| {
            CoarseIndex::from_partitioning(
                store,
                RandomMedoidPartitioner::new(17).partition(store, raw_c),
            )
        }),
    ];
    for (name, build) in arms {
        let t = Instant::now();
        let index = build();
        let build_s = t.elapsed().as_secs_f64();
        let build_dfc = index.build_stats().distance_calls;
        let (d, stats, _) = time_queries(&bench.queries, |q, s| {
            index.query(store, q, raw, false, s).len()
        });
        rows.push(AblationRow {
            arm: format!(
                "{name} ({} partitions, {build_dfc} build DFC, {build_s:.4} s build)",
                index.num_partitions()
            ),
            time_ms: ms(d) * bench.scale_to_1000,
            dfc: stats.distance_calls,
        });
    }
    rows
}
