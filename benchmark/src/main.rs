//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ranksim-benchmark --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
//! ranksim-benchmark compare <a> <b>
//! ranksim-benchmark shard-worker        (started by dist_fanout itself)
//! ```

mod compare;
mod inputs;
mod json;
mod layers;
mod report;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;
use trace::TraceOut;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "lib_mono",
    "lib_uniform",
    "lib_sharded",
    "serve_tcp",
    "dist_fanout",
];

/// Where the benchmark lives, relative to the checkout it is run from.
const HOME: &str = "benchmark";

/// One run's settings, from the command line.
pub struct Run {
    pub seed: u64,
    /// How long the run measures; each workload splits it over its phases.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for WAL files, snapshots and sockets. Relative,
    /// so Unix socket paths stay short wherever the checkout sits.
    pub tmp: PathBuf,
}

/// Removes the scratch directory when the run ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ranksim-benchmark --workload <{}|all> --seed <u64> [--seconds <1..60>] [--trace <0|1>]\n\
         \x20      ranksim-benchmark compare <result file or directory> <result file or directory>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn run_workload(name: &'static str, run: &Run) -> (Report, Option<TraceOut>) {
    let mut report = Report::new(name);
    let traced = match name {
        "lib_mono" => workloads::lib::run(run, &mut report, &workloads::lib::MONO),
        "lib_uniform" => workloads::lib::run(run, &mut report, &workloads::lib::UNIFORM),
        "lib_sharded" => workloads::lib_sharded::run(run, &mut report),
        "serve_tcp" => workloads::serve_tcp::run(run, &mut report),
        "dist_fanout" => workloads::dist_fanout::run(run, &mut report),
        _ => unreachable!("workload names are checked against WORKLOADS"),
    };
    (report, traced)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("shard-worker") => {
            return match ranksim_core::serve_from_env() {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => {
                    eprintln!("shard-worker: started without a shard to serve");
                    ExitCode::from(2)
                }
                Err(e) => {
                    eprintln!("shard-worker: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("compare") => {
            return match args.as_slice() {
                [_, a, b] => compare::main(Path::new(a), Path::new(b)),
                _ => usage(),
            };
        }
        _ => {}
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 7.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = Some(v)).is_ok(),
            "--seconds" => {
                value.parse().map(|v| seconds = v).is_ok() && (1.0..=60.0).contains(&seconds)
            }
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage();
    };
    let selected: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| workload == "all" || workload == *w)
        .collect();
    if selected.is_empty() {
        return usage();
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::from(2);
    }
    if !Path::new(HOME).join("Cargo.toml").is_file() {
        eprintln!("run from the repository root: ./{HOME}/ was not found");
        return ExitCode::from(2);
    }

    let out = Path::new(HOME).join("out");
    let tmp = TempDir(out.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("cannot create {}: {e}", tmp.0.display());
        return ExitCode::FAILURE;
    }
    // The library puts worker sockets under the system temp directory;
    // keep them (and everything else) inside the checkout. Set before
    // any thread exists.
    std::env::set_var("TMPDIR", &tmp.0);
    // Every thread a workload starts is scoped or joined, so a panic
    // anywhere unwinds through `main`: the fleet's `Drop` reaps the
    // workers and `tmp`'s removes the files.

    let mut all_correct = true;
    for name in selected {
        let run = Run {
            seed,
            seconds,
            trace,
            tmp: tmp.0.join(name),
        };
        std::fs::create_dir_all(&run.tmp).expect("create the workload's scratch directory");
        let (report, traced) = run_workload(name, &run);
        let _ = std::fs::remove_dir_all(&run.tmp);

        let names: Vec<(String, &'static str)> = if trace {
            report::per_layer()
        } else {
            report::END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let suffix = if trace { "_trace" } else { "" };
        let file = out.join(format!("result_{name}{suffix}.json"));
        let body = report.result_file(&names, seed, seconds, trace).render();
        std::fs::write(&file, body + "\n").expect("write the result file");
        if let Some(t) = traced {
            let file = out.join(format!("trace_{name}.json"));
            let body = trace::trace_json(name, seed, &t.rungs, &t.tracer).render();
            std::fs::write(&file, body + "\n").expect("write the trace file");
        }
        for failure in report.failures() {
            eprintln!("{name}: FAILED: {failure}");
        }
        all_correct &= report.correct();
        println!("{}", report.result_line(&names, trace).render());
    }
    drop(tmp);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
