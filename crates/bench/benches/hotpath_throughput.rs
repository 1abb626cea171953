//! `hotpath_throughput` — measures the CSR-postings + reusable-scratch
//! hot path against the pre-refactor baseline and emits
//! `BENCH_hotpath.json`.
//!
//! The baseline re-implements, verbatim, the original query hot path this
//! repository shipped before the CSR refactor: per-item `FxHashMap<ItemId,
//! Vec<_>>` postings, a hashmap-backed `PositionMap` rebuilt per query,
//! and a fresh `FxHashSet` candidate set / cursor vectors per query. The
//! CSR arm runs the same workload through `Engine::query_into` with one
//! reused `QueryScratch` and result buffer. Both arms are verified to
//! return identical result sets before anything is timed.
//!
//! On top of the legacy-vs-CSR comparison, a **kernel grid** times the
//! same workload through three arms per algorithm:
//!
//! | arm | posting order | distance kernel |
//! |---|---|---|
//! | `scalar` | insertion (`Id`) | reference loop `FlatPositionMap::distance_to` |
//! | `simd` | insertion (`Id`) | chunked `FlatPositionMap::distance_within` |
//! | `suffix-bound` | [`PostingOrder::SuffixBound`] | chunked `distance_within` |
//!
//! The `simd` and `suffix-bound` arms are engines. The engine has one
//! distance kernel, so the `scalar` arm's F&V cell is a bench-local copy
//! of the engine's id-order F&V path ([`scalar_filter_validate`]) that
//! validates through the reference loop; its ListMerge cell, which makes
//! no distance calls, runs on a freshly built insertion-ordered engine.
//!
//! All arms are verified result-set-identical before timing, and the
//! suffix-bound arm's early-termination counters (posting-window skip
//! rate, validation abort rate) land in the artifact. When
//! `RANKSIM_HOTPATH_SPEEDUP_MIN` is set, the run fails (exit 1) unless
//! the best kernelized arm beats the scalar oracle by that factor on
//! F&V or ListMerge — the CI smoke step pins it.
//!
//! Workload: NYT-like corpus (default n = 50 000, k = 10, θ = 0.2) —
//! override with `RANKSIM_NYT_N` / `RANKSIM_QUERIES`; the CI smoke step
//! runs the `ExpConfig::small()` scale through those variables. Reported
//! numbers are the mean of `RANKSIM_HOTPATH_ROUNDS` (default 5)
//! alternating rounds, in ms per 1000 queries.
//!
//! Output: `BENCH_hotpath.json` at the workspace root (override via
//! `RANKSIM_HOTPATH_OUT`), recording both the baseline and the CSR number
//! per algorithm so the perf trajectory accumulates in-repo.

use std::time::Instant;

use ranksim_bench::{Bench, ExpConfig, Family};
use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_invindex::{PlainInvertedIndex, Posting, PostingOrder};
use ranksim_rankings::hash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap};
use ranksim_rankings::{
    one_side_total, raw_threshold, ExecStats, ItemId, PositionMap, QueryScratch, QueryStats,
    RankingId, RankingStore,
};

/// The pre-refactor `PlainInvertedIndex`: one heap-allocated `Vec` per
/// distinct item behind a hash map.
struct LegacyPlainIndex {
    lists: FxHashMap<ItemId, Vec<RankingId>>,
}

impl LegacyPlainIndex {
    fn build(store: &RankingStore) -> Self {
        let mut lists: FxHashMap<ItemId, Vec<RankingId>> = fx_map_with_capacity(1024);
        for id in store.ids() {
            for &item in store.items(id) {
                lists.entry(item).or_default().push(id);
            }
        }
        LegacyPlainIndex { lists }
    }

    /// The original F&V: fresh hash-set candidate union, hashmap-backed
    /// `PositionMap` validation, fresh output vector — all per query.
    fn filter_validate(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
    ) -> Vec<RankingId> {
        let mut candidates = fx_set_with_capacity::<RankingId>(64);
        for &item in query {
            if let Some(list) = self.lists.get(&item) {
                candidates.extend(list.iter().copied());
            }
        }
        let qmap = PositionMap::new(query);
        let mut out = Vec::new();
        for id in candidates {
            if qmap.distance_to(store.items(id)) <= theta_raw {
                out.push(id);
            }
        }
        out
    }
}

/// The pre-refactor `AugmentedInvertedIndex` plus the original ListMerge.
struct LegacyAugmentedIndex {
    lists: FxHashMap<ItemId, Vec<Posting>>,
}

impl LegacyAugmentedIndex {
    fn build(store: &RankingStore) -> Self {
        let mut lists: FxHashMap<ItemId, Vec<Posting>> = fx_map_with_capacity(1024);
        for id in store.ids() {
            for (rank, &item) in store.items(id).iter().enumerate() {
                lists.entry(item).or_default().push(Posting {
                    id,
                    rank: rank as u32,
                });
            }
        }
        LegacyAugmentedIndex { lists }
    }

    fn list_merge(&self, store: &RankingStore, query: &[ItemId], theta_raw: u32) -> Vec<RankingId> {
        let k = store.k() as u32;
        let t_k = one_side_total(store.k());
        let lists: Vec<&[Posting]> = query
            .iter()
            .map(|item| self.lists.get(item).map(|v| v.as_slice()).unwrap_or(&[]))
            .collect();
        let mut cursors = vec![0usize; lists.len()];
        let mut out = Vec::new();
        loop {
            let mut min_id: Option<RankingId> = None;
            for (li, &c) in cursors.iter().enumerate() {
                if let Some(p) = lists[li].get(c) {
                    if min_id.map(|m| p.id < m).unwrap_or(true) {
                        min_id = Some(p.id);
                    }
                }
            }
            let Some(id) = min_id else { break };
            let mut exact = 0u32;
            let mut q_side = 0u32;
            let mut tau_side = 0u32;
            for (li, cursor) in cursors.iter_mut().enumerate() {
                if let Some(p) = lists[li].get(*cursor) {
                    if p.id == id {
                        let q_rank = li as u32;
                        exact += p.rank.abs_diff(q_rank);
                        q_side += k - q_rank;
                        tau_side += k - p.rank;
                        *cursor += 1;
                    }
                }
            }
            let dist = exact + (t_k - q_side) + (t_k - tau_side);
            if dist <= theta_raw {
                out.push(id);
            }
        }
        out
    }
}

/// ms per 1000 queries for one full pass of `f` over the workload.
fn time_pass(queries: &[Vec<ItemId>], scale_to_1000: f64, mut f: impl FnMut(&[ItemId])) -> f64 {
    let start = Instant::now();
    for q in queries {
        f(q);
    }
    start.elapsed().as_secs_f64() * 1e3 * scale_to_1000
}

struct Comparison {
    name: &'static str,
    baseline_ms: f64,
    csr_ms: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.csr_ms
    }
}

/// One algorithm's row of the kernel grid: mean ms per 1000 queries for
/// the scalar reference loop, the SIMD kernel and the suffix-bound-ordered +
/// SIMD configuration, plus the suffix-bound arm's early-termination
/// counters.
struct KernelRow {
    name: &'static str,
    scalar_ms: f64,
    simd_ms: f64,
    suffix_ms: f64,
    exec: ExecStats,
}

impl KernelRow {
    fn simd_speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }

    fn suffix_speedup(&self) -> f64 {
        self.scalar_ms / self.suffix_ms
    }

    /// Fraction of validations the suffix-bound kernel aborted early.
    fn abort_rate(&self) -> f64 {
        let calls = self.exec.distance_calls;
        if calls == 0 {
            return 0.0;
        }
        self.exec.validations_pruned as f64 / calls as f64
    }

    /// Fraction of posting entries bypassed by rank-window scans.
    fn skip_rate(&self) -> f64 {
        let total = self.exec.postings_scanned + self.exec.postings_skipped;
        if total == 0 {
            return 0.0;
        }
        self.exec.postings_skipped as f64 / total as f64
    }
}

/// The scalar arm's F&V: the id-order path of the engine's F&V
/// (`ranksim_invindex::fv::filter_validate_into` over all query
/// positions) — the same epoch-set candidate union, the same
/// [`QueryStats`] calls, the same `(id, distance)` hit buffer — with
/// every candidate validated through the reference loop
/// [`ranksim_rankings::FlatPositionMap::distance_to`] instead of the
/// chunked, suffix-bound-aborting kernel.
fn scalar_filter_validate(
    index: &PlainInvertedIndex,
    store: &RankingStore,
    query: &[ItemId],
    theta_raw: u32,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
    out: &mut Vec<RankingId>,
) {
    out.clear();
    let remap = index.remap();
    let QueryScratch {
        qmap, marks, hits, ..
    } = scratch;
    hits.clear();
    marks.begin(store.len());
    for &item in query {
        if let Some(list) = index.list(item) {
            stats.count_list(list.len());
            for &id in list {
                marks.mark(id.0);
            }
        } else {
            stats.count_list(0);
        }
    }
    stats.candidates += marks.len() as u64;
    qmap.build(remap, query);
    for &id in marks.keys() {
        stats.count_distance();
        let d = qmap.distance_to(remap, store.items(RankingId(id)));
        if d <= theta_raw {
            hits.push((RankingId(id), d));
        }
    }
    stats.results += hits.len() as u64;
    out.extend(hits.iter().map(|&(id, _)| id));
}

/// Measures one kernel-grid cell in isolation: a verification pass of
/// `run` against the precomputed oracle result sets (`oracles[_][ai]`,
/// doubling as warmup and as the [`ExecStats`] source), then `rounds`
/// consecutive timed passes.
fn measure_cell(
    queries: &[Vec<ItemId>],
    oracles: &[[Vec<RankingId>; 2]],
    ai: usize,
    scale_to_1000: f64,
    rounds: usize,
    label: &str,
    mut run: impl FnMut(&[ItemId], &mut QueryStats, &mut Vec<RankingId>),
) -> (f64, ExecStats) {
    let mut stats = QueryStats::new();
    let mut out = Vec::new();
    let mut exec = ExecStats::default();
    for (q, oracle) in queries.iter().zip(oracles) {
        let before = stats;
        run(q, &mut stats, &mut out);
        exec.merge(&ExecStats::since(&before, &stats));
        out.sort_unstable();
        assert_eq!(&out, &oracle[ai], "{label} arm disagrees with legacy");
    }
    let mut ms = 0.0;
    for _ in 0..rounds {
        ms += time_pass(queries, scale_to_1000, |q| {
            run(q, &mut stats, &mut out);
            std::hint::black_box(out.len());
        });
    }
    (ms / rounds as f64, exec)
}

/// Measures the F&V (`ai` 0) and ListMerge (`ai` 1) cells of one engine
/// arm. Keeping each arm's passes back-to-back — instead of
/// round-robining the arms — stops the engines from evicting each
/// other's postings between timed passes.
fn measure_arm(
    engine: &Engine,
    queries: &[Vec<ItemId>],
    oracles: &[[Vec<RankingId>; 2]],
    theta_raw: u32,
    scale_to_1000: f64,
    rounds: usize,
    label: &str,
) -> [(f64, ExecStats); 2] {
    let mut scratch = engine.scratch();
    [(0, Algorithm::Fv), (1, Algorithm::ListMerge)].map(|(ai, alg)| {
        measure_cell(
            queries,
            oracles,
            ai,
            scale_to_1000,
            rounds,
            &format!("{alg} {label}"),
            |q, stats, out| engine.query_into(alg, q, theta_raw, &mut scratch, stats, out),
        )
    })
}

fn main() {
    let cfg = ExpConfig::from_env();
    let theta = 0.2f64;
    let k = 10usize;
    let rounds: usize = std::env::var("RANKSIM_HOTPATH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    eprintln!(
        "# hotpath_throughput: NYT-like n={} k={k} θ={theta}, {} queries, {rounds} rounds",
        cfg.nyt_n, cfg.queries
    );
    let bench = Bench::load(&cfg, Family::Nyt, k);
    let store = bench.store();
    let raw = raw_threshold(theta, k);

    let legacy_plain = LegacyPlainIndex::build(store);
    let legacy_augmented = LegacyAugmentedIndex::build(store);
    let engine = EngineBuilder::new(store.clone())
        .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
        .build();
    let mut scratch = engine.scratch();
    let mut out: Vec<RankingId> = Vec::new();
    let mut stats = QueryStats::new();

    // Oracle result sets from the legacy arms, computed once: every
    // engine arm — CSR default and each kernel-grid configuration — is
    // checked against these before it is timed.
    let oracles: Vec<[Vec<RankingId>; 2]> = bench
        .queries
        .iter()
        .map(|q| {
            let mut fv = legacy_plain.filter_validate(store, q, raw);
            fv.sort_unstable();
            [fv, legacy_augmented.list_merge(store, q, raw)]
        })
        .collect();

    // Correctness gate: the CSR arm must agree before anything is timed.
    for (q, oracle) in bench.queries.iter().zip(&oracles) {
        for (alg, expect) in [Algorithm::Fv, Algorithm::ListMerge]
            .into_iter()
            .zip(oracle)
        {
            engine.query_into(alg, q, raw, &mut scratch, &mut stats, &mut out);
            out.sort_unstable();
            assert_eq!(&out, expect, "{alg} CSR arm disagrees with legacy");
        }
    }

    // Alternate the arms per round so drift hits both equally; report the
    // mean over rounds.
    let mut fv = Comparison {
        name: "fv",
        baseline_ms: 0.0,
        csr_ms: 0.0,
    };
    let mut lm = Comparison {
        name: "listmerge",
        baseline_ms: 0.0,
        csr_ms: 0.0,
    };
    for _ in 0..rounds {
        fv.baseline_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            std::hint::black_box(legacy_plain.filter_validate(store, q, raw).len());
        });
        fv.csr_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            engine.query_into(Algorithm::Fv, q, raw, &mut scratch, &mut stats, &mut out);
            std::hint::black_box(out.len());
        });
        lm.baseline_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            std::hint::black_box(legacy_augmented.list_merge(store, q, raw).len());
        });
        lm.csr_ms += time_pass(&bench.queries, bench.scale_to_1000, |q| {
            engine.query_into(
                Algorithm::ListMerge,
                q,
                raw,
                &mut scratch,
                &mut stats,
                &mut out,
            );
            std::hint::black_box(out.len());
        });
    }
    for c in [&mut fv, &mut lm] {
        c.baseline_ms /= rounds as f64;
        c.csr_ms /= rounds as f64;
    }

    // The kernel grid: scalar reference loop, SIMD kernel, suffix-bound
    // order + SIMD kernel — each arm measured in isolation (its index or
    // engine is built, its passes run back-to-back, then it is dropped).
    // `engine` (the CSR arm above) doubles as the `simd` arm: insertion
    // order is the engine default.
    let scalar_cells = {
        let plain = PlainInvertedIndex::build(store);
        let mut fv_scratch = QueryScratch::new();
        let fv_cell = measure_cell(
            &bench.queries,
            &oracles,
            0,
            bench.scale_to_1000,
            rounds,
            "F&V scalar",
            |q, stats, out| {
                scalar_filter_validate(&plain, store, q, raw, &mut fv_scratch, stats, out)
            },
        );
        drop(plain);
        let engine_scalar = EngineBuilder::new(store.clone())
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .posting_order(PostingOrder::Id)
            .build();
        let mut lm_scratch = engine_scalar.scratch();
        let lm_cell = measure_cell(
            &bench.queries,
            &oracles,
            1,
            bench.scale_to_1000,
            rounds,
            "ListMerge scalar",
            |q, stats, out| {
                engine_scalar.query_into(Algorithm::ListMerge, q, raw, &mut lm_scratch, stats, out)
            },
        );
        [fv_cell, lm_cell]
    };
    let simd_cells = measure_arm(
        &engine,
        &bench.queries,
        &oracles,
        raw,
        bench.scale_to_1000,
        rounds,
        "simd",
    );
    let suffix_cells = {
        let engine_suffix = EngineBuilder::new(store.clone())
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .posting_order(PostingOrder::SuffixBound)
            .build();
        measure_arm(
            &engine_suffix,
            &bench.queries,
            &oracles,
            raw,
            bench.scale_to_1000,
            rounds,
            "suffix-bound",
        )
    };
    let kernel_rows = [
        KernelRow {
            name: "fv",
            scalar_ms: scalar_cells[0].0,
            simd_ms: simd_cells[0].0,
            suffix_ms: suffix_cells[0].0,
            exec: suffix_cells[0].1,
        },
        KernelRow {
            name: "listmerge",
            scalar_ms: scalar_cells[1].0,
            simd_ms: simd_cells[1].0,
            suffix_ms: suffix_cells[1].0,
            exec: suffix_cells[1].1,
        },
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"hotpath_throughput\",\n");
    json.push_str(&format!(
        "  \"workload\": {{\"family\": \"nyt-like\", \"n\": {}, \"k\": {k}, \"theta\": {theta}, \"queries\": {}, \"rounds\": {rounds}}},\n",
        cfg.nyt_n, cfg.queries
    ));
    json.push_str("  \"units\": \"ms per 1000 queries\",\n");
    json.push_str("  \"baseline\": \"pre-CSR hashmap postings + per-query allocations\",\n");
    for c in [&fv, &lm] {
        json.push_str(&format!(
            "  \"{}\": {{\"baseline_ms_per_1000q\": {:.3}, \"csr_ms_per_1000q\": {:.3}, \"mean_speedup\": {:.3}}},\n",
            c.name,
            c.baseline_ms,
            c.csr_ms,
            c.speedup(),
        ));
    }
    json.push_str("  \"kernels\": {\n");
    for (i, row) in kernel_rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"scalar_ms_per_1000q\": {:.3}, \"simd_ms_per_1000q\": {:.3}, \"suffix_bound_ms_per_1000q\": {:.3}, \"simd_speedup_vs_scalar\": {:.3}, \"suffix_bound_speedup_vs_scalar\": {:.3}, \"early_termination\": {{\"validation_abort_rate\": {:.4}, \"posting_skip_rate\": {:.4}}}}}{}\n",
            row.name,
            row.scalar_ms,
            row.simd_ms,
            row.suffix_ms,
            row.simd_speedup(),
            row.suffix_speedup(),
            row.abort_rate(),
            row.skip_rate(),
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let out_path = std::env::var("RANKSIM_HOTPATH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");

    println!("{json}");
    println!(
        "F&V:       {:8.2} -> {:8.2} ms/1000q  ({:.2}x)",
        fv.baseline_ms,
        fv.csr_ms,
        fv.speedup()
    );
    println!(
        "ListMerge: {:8.2} -> {:8.2} ms/1000q  ({:.2}x)",
        lm.baseline_ms,
        lm.csr_ms,
        lm.speedup()
    );
    for row in &kernel_rows {
        println!(
            "{:<10} scalar {:8.2}  simd {:8.2} ({:.2}x)  suffix-bound {:8.2} ({:.2}x)  abort {:.1}%  skip {:.1}%",
            row.name,
            row.scalar_ms,
            row.simd_ms,
            row.simd_speedup(),
            row.suffix_ms,
            row.suffix_speedup(),
            100.0 * row.abort_rate(),
            100.0 * row.skip_rate(),
        );
    }
    eprintln!("# wrote {out_path}");

    // Self-enforced regression floor: the best kernelized arm (SIMD or
    // suffix-bound + SIMD) must beat the scalar oracle by the configured
    // factor on at least one algorithm (CI pins
    // `RANKSIM_HOTPATH_SPEEDUP_MIN`).
    if let Some(min) = std::env::var("RANKSIM_HOTPATH_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        let best = kernel_rows
            .iter()
            .map(|r| r.simd_speedup().max(r.suffix_speedup()))
            .fold(f64::NEG_INFINITY, f64::max);
        if best < min {
            eprintln!(
                "FAIL: best kernel speedup over the scalar oracle {best:.3}x is below \
                 the RANKSIM_HOTPATH_SPEEDUP_MIN floor {min:.3}x"
            );
            std::process::exit(1);
        }
        eprintln!("# speedup floor satisfied: {best:.3}x >= {min:.3}x");
    }
}
