//! The persistence experiment (`repro persist`): what a warm cold-start
//! from an `RSSN` snapshot buys over rebuilding every index from the
//! raw corpus.
//!
//! Three measurements over the NYT-family corpus:
//!
//! 1. **Build vs open** — the full index build
//!    ([`EngineBuilder::build`]: partitioning, every inverted index)
//!    is timed against [`ranksim_core::load_engine`]
//!    re-opening the same engine from its snapshot, in both
//!    [`LoadMode::Verify`] (per-section CRC) and [`LoadMode::Trust`]
//!    (structural checks only). The headline number is the open/build
//!    speedup; at paper scale (`n ≥ 200k`) the run *asserts* the
//!    verified open is at least 10× faster than the rebuild.
//! 2. **Snapshot bandwidth** — bytes on disk and MB/s for the save and
//!    for both open modes, which separates CRC cost from I/O + cast
//!    cost.
//! 3. **Answer equivalence** — the loaded engines answer a slice of the
//!    workload through every algorithm (plus `Auto` and top-k) and
//!    every answer is asserted bit-identical to the built engine's, so
//!    a silently wrong load fails the benchmark run rather than
//!    producing pretty numbers.

use std::time::Instant;

use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_core::{load_engine, save_engine, LoadMode, SnapshotMeta};
use ranksim_rankings::{raw_threshold, QueryStats};

use crate::{Bench, ExpConfig, Family};

/// Configuration of one `repro persist` run.
#[derive(Debug, Clone, Copy)]
pub struct PersistRunConfig {
    /// Queries of the workload used for the equivalence self-check
    /// (`RANKSIM_PERSIST_CHECK_QUERIES`; default min(queries, 50)).
    pub check_queries: usize,
    /// Open/build speedup the run demands once `n` reaches
    /// [`PersistRunConfig::speedup_floor_n`].
    pub min_speedup: f64,
    /// Corpus size from which `min_speedup` is enforced.
    pub speedup_floor_n: usize,
}

impl PersistRunConfig {
    /// Defaults plus environment overrides.
    pub fn from_env(cfg: &ExpConfig) -> Self {
        let check = std::env::var("RANKSIM_PERSIST_CHECK_QUERIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| cfg.queries.min(50));
        PersistRunConfig {
            check_queries: check.max(1),
            min_speedup: 10.0,
            speedup_floor_n: 200_000,
        }
    }
}

/// One timed open of the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct OpenCost {
    /// Wall seconds for [`ranksim_core::load_engine`].
    pub open_s: f64,
    /// Snapshot bytes divided by `open_s`.
    pub mb_per_s: f64,
    /// Build time divided by `open_s`.
    pub speedup: f64,
}

/// Everything one persistence run measured (the `BENCH_persist.json`
/// artifact).
#[derive(Debug, Clone)]
pub struct PersistBenchReport {
    /// Dataset name.
    pub dataset: String,
    /// Corpus size.
    pub n: usize,
    /// Ranking size.
    pub k: usize,
    /// Full index build (every structure), seconds.
    pub build_s: f64,
    /// [`ranksim_core::save_engine`] wall seconds.
    pub save_s: f64,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Save bandwidth, MB/s.
    pub save_mb_per_s: f64,
    /// The checksum-verified open.
    pub verify: OpenCost,
    /// The structural-checks-only open.
    pub trust: OpenCost,
    /// `(query, θ, algorithm)` cells asserted bit-identical, per loaded
    /// engine.
    pub checked_cells: usize,
    /// The run configuration.
    pub config: PersistRunConfig,
}

impl PersistBenchReport {
    /// Renders the report as a JSON object (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"persist\",\n");
        s.push_str(&format!(
            "  \"workload\": {{\"dataset\": \"{}\", \"n\": {}, \"k\": {}}},\n",
            self.dataset, self.n, self.k
        ));
        s.push_str(&format!("  \"build_s\": {:.4},\n", self.build_s));
        s.push_str(&format!(
            "  \"save\": {{\"s\": {:.4}, \"bytes\": {}, \"mb_per_s\": {:.1}}},\n",
            self.save_s, self.snapshot_bytes, self.save_mb_per_s
        ));
        for (name, c) in [("open_verify", &self.verify), ("open_trust", &self.trust)] {
            s.push_str(&format!(
                "  \"{name}\": {{\"s\": {:.4}, \"mb_per_s\": {:.1}, \"speedup\": {:.1}}},\n",
                c.open_s, c.mb_per_s, c.speedup
            ));
        }
        s.push_str(&format!("  \"checked_cells\": {}\n", self.checked_cells));
        s.push_str("}\n");
        s
    }
}

/// Builds the full-fat engine the experiment snapshots: every inverted
/// index and both coarse indexes at the paper's settings — the worst
/// case for a cold rebuild.
fn build_full(bench: &Bench) -> Engine {
    EngineBuilder::new(bench.ds.store.clone())
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .build()
}

/// Asserts `loaded` answers a workload slice bit-identically to
/// `built`: every algorithm plus `Auto` at three thresholds, plus exact
/// top-k. Returns the number of compared cells.
fn assert_equivalent(
    built: &Engine,
    loaded: &Engine,
    bench: &Bench,
    check_queries: usize,
) -> usize {
    let k = built.store().k();
    let mut algorithms: Vec<Algorithm> = Algorithm::ALL.to_vec();
    algorithms.push(Algorithm::Auto);
    let mut sb = built.scratch();
    let mut sl = loaded.scratch();
    let mut stats = QueryStats::new();
    let mut cells = 0usize;
    for q in bench.queries.iter().take(check_queries) {
        for theta in [0.1, 0.2, 0.3] {
            let raw = raw_threshold(theta, k);
            for &alg in &algorithms {
                let mut a = built.query_items(alg, q, raw, &mut sb, &mut stats);
                let mut b = loaded.query_items(alg, q, raw, &mut sl, &mut stats);
                if alg == Algorithm::Auto {
                    // Auto recalibrates from measured wall times, so the
                    // two planners may legitimately pick different
                    // executors, which emit the same ids in a different
                    // order. The answer *set* must still be identical.
                    a.sort_unstable();
                    b.sort_unstable();
                }
                assert_eq!(a, b, "loaded engine diverged: {alg:?} θ={theta}");
                cells += 1;
            }
        }
        let a = built.query_topk(q, 10, &mut sb, &mut stats);
        let b = loaded.query_topk(q, 10, &mut sl, &mut stats);
        assert_eq!(a, b, "loaded engine diverged on top-k");
        cells += 1;
    }
    cells
}

/// The persistence experiment (see the module docs).
pub fn run_persist(cfg: &ExpConfig, rc: PersistRunConfig) -> PersistBenchReport {
    let bench = Bench::load(cfg, Family::Nyt, 10);
    let n = bench.store().len();
    let k = bench.store().k();
    let path = std::env::temp_dir().join(format!("ranksim-persist-{}.rssn", std::process::id()));

    let t = Instant::now();
    let built = build_full(&bench);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let snapshot_bytes =
        save_engine(&path, &built, SnapshotMeta::default()).expect("save benchmark snapshot");
    let save_s = t.elapsed().as_secs_f64();
    let mb = snapshot_bytes as f64 / (1024.0 * 1024.0);

    let mut checked_cells = 0usize;
    let mut open = |mode: LoadMode| -> OpenCost {
        let t = Instant::now();
        let (loaded, meta) = load_engine(&path, mode).expect("open benchmark snapshot");
        let open_s = t.elapsed().as_secs_f64();
        assert_eq!(meta, SnapshotMeta::default());
        assert_eq!(loaded.live_len(), built.live_len());
        checked_cells += assert_equivalent(&built, &loaded, &bench, rc.check_queries);
        OpenCost {
            open_s,
            mb_per_s: mb / open_s.max(1e-9),
            speedup: build_s / open_s.max(1e-9),
        }
    };
    let verify = open(LoadMode::Verify);
    let trust = open(LoadMode::Trust);
    let _ = std::fs::remove_file(&path);

    if n >= rc.speedup_floor_n {
        assert!(
            verify.speedup >= rc.min_speedup,
            "verified open must be ≥{}× faster than the rebuild at n={n} \
             (build {build_s:.2}s, open {:.2}s = {:.1}×)",
            rc.min_speedup,
            verify.open_s,
            verify.speedup
        );
    }

    PersistBenchReport {
        dataset: bench.ds.params.name.clone(),
        n,
        k,
        build_s,
        save_s,
        snapshot_bytes,
        save_mb_per_s: mb / save_s.max(1e-9),
        verify,
        trust,
        checked_cells,
        config: rc,
    }
}
