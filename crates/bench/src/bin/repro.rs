//! `repro` — regenerates every table and figure of the EDBT 2015
//! evaluation as text reports.
//!
//! ```sh
//! cargo run -p ranksim-bench --release --bin repro -- all
//! cargo run -p ranksim-bench --release --bin repro -- fig8
//! RANKSIM_NYT_N=100000 cargo run -p ranksim-bench --release --bin repro -- fig7
//! # cost-model planner vs the per-configuration oracle, restricted set:
//! cargo run -p ranksim-bench --release --bin repro -- --algorithms fv,listmerge,coarse planner
//! # A/B the position-compare kernels (results are bit-identical):
//! cargo run -p ranksim-bench --release --bin repro -- --kernel scalar fig8
//! ```
//!
//! `--scale small|default|paper` picks the corpus-size baseline;
//! `--algorithms a,b,c` feeds the planner's candidate set (paper names or
//! lax spellings: `fv`, `F&V+Drop`, `blocked_prune`, …); `--kernel
//! scalar|simd` selects the distance kernel the experiment engines run
//! (default `simd`); `RANKSIM_*` environment variables still override
//! individual knobs.
//!
//! `repro` reproduces the paper. System performance numbers (sharding,
//! serving, durability, persistence, worker processes) come from the
//! standalone `benchmark/` package instead.

use ranksim_bench::*;
use ranksim_core::engine::Algorithm;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut base = ExpConfig::default_scale();
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        let Some(name) = args.get(pos + 1) else {
            eprintln!("--scale needs a value: small | default | paper");
            std::process::exit(2);
        };
        base = match ExpConfig::named_scale(name) {
            Some(cfg) => cfg,
            None => {
                eprintln!("unknown scale '{name}'; expected small | default | paper");
                std::process::exit(2);
            }
        };
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--kernel") {
        let Some(value) = args.get(pos + 1) else {
            eprintln!("--kernel needs a value: scalar | simd");
            std::process::exit(2);
        };
        match parse_kernel_flag(value) {
            Ok(kernel) => base.kernel = kernel,
            Err(e) => {
                eprintln!("--kernel: {e}");
                std::process::exit(2);
            }
        }
        args.drain(pos..=pos + 1);
    }
    let mut algorithms: Option<Vec<Algorithm>> = None;
    if let Some(pos) = args.iter().position(|a| a == "--algorithms") {
        let Some(list) = args.get(pos + 1) else {
            eprintln!("--algorithms needs a comma-separated list, e.g. fv,listmerge,coarse");
            std::process::exit(2);
        };
        match parse_algorithms_flag(list) {
            Ok(list) => algorithms = Some(list),
            Err(e) => {
                eprintln!("--algorithms: {e}");
                std::process::exit(2);
            }
        }
        args.drain(pos..=pos + 1);
    }
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    if algorithms.is_some() && what != "planner" {
        eprintln!("--algorithms feeds the planner's candidate set and only applies to the 'planner' experiment (got '{what}')");
        std::process::exit(2);
    }
    let cfg = base.with_env_overrides();
    eprintln!(
        "# config: nyt_n={} yago_n={} queries={} kernel={} (override via RANKSIM_NYT_N / RANKSIM_YAGO_N / RANKSIM_QUERIES / RANKSIM_KERNEL)",
        cfg.nyt_n, cfg.yago_n, cfg.queries, cfg.kernel
    );
    let t0 = std::time::Instant::now();
    match what {
        "verify" => run_verify(&cfg),
        "fig3" => run_fig3(&cfg),
        "fig5" => run_fig56(&cfg, true),
        "fig6" => run_fig56(&cfg, false),
        "fig7" => run_fig7(&cfg),
        "table5" => run_table5(&cfg),
        "fig8" => run_fig89(&cfg, Family::Nyt),
        "fig9" => run_fig89(&cfg, Family::Yago),
        "fig10" => run_fig10(&cfg),
        "table6" => run_table6(&cfg),
        "ablation" => run_ablation(&cfg),
        "planner" => run_planner(&cfg, algorithms),
        "all" => {
            run_verify(&cfg);
            run_fig3(&cfg);
            run_fig56(&cfg, true);
            run_fig56(&cfg, false);
            run_fig7(&cfg);
            run_table5(&cfg);
            run_fig89(&cfg, Family::Nyt);
            run_fig89(&cfg, Family::Yago);
            run_fig10(&cfg);
            run_table6(&cfg);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected one of: verify fig3 fig5 fig6 fig7 table5 fig8 fig9 fig10 table6 ablation planner all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("# total wall time: {:.1?}", t0.elapsed());
}

/// The planner sweep: `Algorithm::Auto` (cost model + online
/// recalibration) against every fixed candidate and the per-cell oracle
/// across (corpus size × θ), printing per-algorithm win rates and the
/// planner's regret, and writing `BENCH_planner.json` (path override:
/// `RANKSIM_PLANNER_JSON`). `RANKSIM_PLANNER_REGRET_BUDGET` (a fraction,
/// e.g. `0.15`) turns the run into a CI guard that fails when the
/// sweep-wide regret vs oracle-best exceeds the budget.
fn run_planner(cfg: &ExpConfig, algorithms: Option<Vec<Algorithm>>) {
    let rc = PlannerRunConfig::from_env(cfg, algorithms);
    println!(
        "== planner sweep: NYT-family, k=10, {} candidates, sizes {:?}, θ {:?} ==",
        rc.candidates.len(),
        rc.sizes,
        rc.thetas
    );
    let report = run_planner_sweep(cfg, &rc);
    println!(
        "{:>8} {:>6} {:>12} {:>20} {:>12} {:>8}  picks",
        "n", "θ", "auto ms", "oracle", "oracle ms", "regret"
    );
    for r in &report.rows {
        let picks: Vec<String> = r
            .picks
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(a, n)| format!("{a}:{n}"))
            .collect();
        println!(
            "{:>8} {:>6.2} {:>12.2} {:>20} {:>12.2} {:>7.1}%  {}",
            r.n,
            r.theta,
            r.auto_ms,
            r.oracle.name(),
            r.oracle_ms,
            r.regret() * 100.0,
            picks.join(" ")
        );
    }
    let overall = report.overall_regret();
    println!("win rates:");
    for (alg, w) in report.win_rate() {
        println!("  {:<20} {:>6.1}%", alg.name(), w * 100.0);
    }
    println!("overall regret vs oracle-best: {:.1}%", overall * 100.0);

    let json_path =
        std::env::var("RANKSIM_PLANNER_JSON").unwrap_or_else(|_| "BENCH_planner.json".into());
    std::fs::write(&json_path, report.to_json()).expect("write planner report JSON");
    println!("report written to {json_path}");

    if let Some(budget) = std::env::var("RANKSIM_PLANNER_REGRET_BUDGET")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if overall > budget {
            eprintln!(
                "REGRET BUDGET EXCEEDED: {:.1}% > {:.1}%",
                overall * 100.0,
                budget * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "regret budget ok: {:.1}% <= {:.1}%",
            overall * 100.0,
            budget * 100.0
        );
    }
}

fn run_verify(cfg: &ExpConfig) {
    println!("== verify: all algorithms agree before anything is timed ==");
    let thetas = [0.0, 0.1, 0.2, 0.3];
    for family in [Family::Nyt, Family::Yago] {
        let mut small = *cfg;
        small.nyt_n = small.nyt_n.min(5000);
        small.yago_n = small.yago_n.min(5000);
        let setup = ComparisonSetup::build(&small, family, 10, &thetas);
        let checked = verify(&setup, &thetas);
        println!(
            "{:<5}: {checked} (query, θ) pairs consistent across all 8 algorithms",
            family.name()
        );
    }
    println!();
}

fn run_fig3(cfg: &ExpConfig) {
    println!("== Figure 3: modeled cost for varying θC (k=10, θ=0.2) ==");
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        let (rows, opt) = fig3(&bench, 0.2, true);
        println!("-- {} rankings, k=10, θ=0.2 --", family.name());
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            "θC", "filter", "validate", "overall(+)"
        );
        for r in rows {
            println!(
                "{:>6.2} {:>14.2} {:>14.2} {:>14.2}",
                r.theta_c,
                r.filter_ms,
                r.validate_ms,
                r.filter_ms + r.validate_ms
            );
        }
        println!("model-optimal θC = {opt:.2}\n");
    }
}

fn run_fig56(cfg: &ExpConfig, fig5: bool) {
    let (title, structures): (&str, Vec<Structure>) = if fig5 {
        (
            "Figure 5: M-tree vs BK-tree (NYT)",
            vec![Structure::BkTree, Structure::MTree, Structure::VpTree],
        )
    } else {
        (
            "Figure 6: BK-tree vs inverted index / F&V (NYT)",
            vec![Structure::BkTree, Structure::Fv],
        )
    };
    println!("== {title} ==");
    println!("-- (a) θ=0.1, varying k — seconds per 1000 queries --");
    let ks = [5usize, 10, 15, 20, 25];
    let by_k = sweep_k(cfg, Family::Nyt, &structures, &ks, 0.1);
    print!("{:>10}", "k");
    for (s, _) in &by_k {
        print!(" {:>12}", s.name());
    }
    println!();
    for (i, &k) in ks.iter().enumerate() {
        print!("{k:>10}");
        for (_, pts) in &by_k {
            print!(" {:>12.3}", pts[i].seconds);
        }
        println!();
    }
    println!("-- (b) k=10, varying θ — seconds per 1000 queries --");
    let thetas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
    let by_t = sweep_theta(cfg, Family::Nyt, &structures, 10, &thetas);
    print!("{:>10}", "θ");
    for (s, _) in &by_t {
        print!(" {:>12}", s.name());
    }
    println!();
    for (i, &t) in thetas.iter().enumerate() {
        print!("{t:>10.2}");
        for (_, pts) in &by_t {
            print!(" {:>12.3}", pts[i].seconds);
        }
        println!();
    }
    println!();
}

const THETA_C_GRID: [f64; 13] = [
    0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8,
];

fn run_fig7(cfg: &ExpConfig) {
    println!("== Figure 7: measured filter/validation time vs θC (k=10, θ=0.2) ==");
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        let rows = fig7_sweep(&bench, 0.2, &THETA_C_GRID);
        let (model_rows, model_opt) = fig3(&bench, 0.2, true);
        let _ = model_rows;
        println!("-- {} — ms per 1000 queries --", family.name());
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "θC", "filter", "validation", "overall", "partitions"
        );
        for r in &rows {
            println!(
                "{:>6.2} {:>12.2} {:>12.2} {:>12.2} {:>12}",
                r.theta_c,
                r.filter_ms,
                r.validate_ms,
                r.filter_ms + r.validate_ms,
                r.partitions
            );
        }
        let nearest = rows
            .iter()
            .min_by(|a, b| {
                (a.theta_c - model_opt)
                    .abs()
                    .total_cmp(&(b.theta_c - model_opt).abs())
            })
            .unwrap();
        println!(
            "model-chosen θC = {model_opt:.2} -> measured {:.2} ms (marker ▫ in the paper's plot)\n",
            nearest.filter_ms + nearest.validate_ms
        );
    }
}

fn run_table5(cfg: &ExpConfig) {
    println!("== Table 5: measured-best vs model-chosen θC (k=10) — ms per 1000 queries ==");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "data", "θ", "best θC", "model θC", "best ms", "model ms", "gap ms"
    );
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        for row in table5(&bench, &[0.1, 0.2, 0.3], &THETA_C_GRID) {
            println!(
                "{:>6} {:>6.1} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8.2}",
                family.name(),
                row.theta,
                row.best_theta_c,
                row.model_theta_c,
                row.best_ms,
                row.model_ms,
                row.gap_ms()
            );
        }
    }
    println!();
}

fn run_fig89(cfg: &ExpConfig, family: Family) {
    let fig = if family == Family::Nyt { 8 } else { 9 };
    println!(
        "== Figure {fig}: algorithm comparison ({}) — ms per 1000 queries ==",
        family.name()
    );
    let thetas = [0.0, 0.1, 0.2, 0.3];
    for k in [10usize, 20] {
        let setup = ComparisonSetup::build(cfg, family, k, &thetas);
        println!("-- k={k}; Coarse θC=0.5, Coarse+Drop θC=0.06 --");
        print!("{:<20}", "algorithm");
        for t in thetas {
            print!(" {:>10}", format!("θ={t}"));
        }
        println!();
        for tech in Technique::ALL {
            print!("{:<20}", tech.name());
            for &t in &thetas {
                let cell = setup.measure(tech, t);
                print!(" {:>10.1}", cell.time_ms);
            }
            println!();
        }
    }
    println!();
}

fn run_fig10(cfg: &ExpConfig) {
    println!("== Figure 10: distance function calls (thousands, whole workload scaled to 1000 queries) ==");
    let thetas = [0.0, 0.1, 0.2, 0.3];
    let dfc_techs = [
        Technique::Engine(ranksim_core::engine::Algorithm::Fv),
        Technique::Engine(ranksim_core::engine::Algorithm::FvDrop),
        Technique::Engine(ranksim_core::engine::Algorithm::BlockedPruneDrop),
        Technique::Engine(ranksim_core::engine::Algorithm::Coarse),
        Technique::Engine(ranksim_core::engine::Algorithm::CoarseDrop),
        Technique::MinimalFv,
    ];
    for family in [Family::Nyt, Family::Yago] {
        for k in [10usize, 20] {
            let setup = ComparisonSetup::build(cfg, family, k, &thetas);
            let scale = 1000.0 / cfg.queries as f64;
            println!("-- {}, k={k} --", family.name());
            print!("{:<20}", "algorithm");
            for t in thetas {
                print!(" {:>10}", format!("θ={t}"));
            }
            println!();
            for tech in dfc_techs {
                print!("{:<20}", tech.name());
                for &t in &thetas {
                    let cell = setup.measure(tech, t);
                    print!(" {:>10.1}", cell.dfc as f64 * scale / 1000.0);
                }
                println!();
            }
        }
    }
    println!();
}

fn run_table6(cfg: &ExpConfig) {
    println!("== Table 6: index size and construction time (k=10) ==");
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12}",
        "index", "NYT MB", "Yago MB", "NYT sec", "Yago sec"
    );
    let nyt = Bench::load(cfg, Family::Nyt, 10);
    let yago = Bench::load(cfg, Family::Yago, 10);
    let rows_nyt = table6(&nyt);
    let rows_yago = table6(&yago);
    for (a, b) in rows_nyt.iter().zip(&rows_yago) {
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>12.2} {:>12.2}",
            a.index, a.size_mb, b.size_mb, a.construction_s, b.construction_s
        );
    }
    println!();
}

fn run_ablation(cfg: &ExpConfig) {
    println!("== Ablations: design choices behind the paper's heuristics (k=10, θ=0.2) ==");
    for family in [Family::Nyt, Family::Yago] {
        let bench = Bench::load(cfg, family, 10);
        println!("-- {} — Lemma 2 list-selection policy --", family.name());
        println!("{:<36} {:>12} {:>12}", "arm", "ms/1000q", "DFC");
        for row in ablation_drop_policy(&bench, 0.2) {
            println!("{:<36} {:>12.1} {:>12}", row.arm, row.time_ms, row.dfc);
        }
        println!(
            "-- {} — coarse-index partitioning scheme (θC=0.3) --",
            family.name()
        );
        println!("{:<64} {:>12} {:>12}", "arm", "ms/1000q", "DFC");
        for row in ablation_partitioner(&bench, 0.2, 0.3) {
            println!("{:<64} {:>12.1} {:>12}", row.arm, row.time_ms, row.dfc);
        }
    }
    println!();
}
