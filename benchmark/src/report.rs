//! What a run reports: the metric names `BENCHMARK.json` fixes, the
//! values with their sample counts and per-round spread, the checks
//! that passed or failed, and where and on what the run was made.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::stats::{median, Percentile, Samples};

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports every one.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("read_qps", "1/s"),
    ("topk_p50_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("recovery_s", "s"),
    ("bytes_per_ranking", "B"),
];

/// Fixed-algorithm executors the traced run measures one by one.
pub const EXECUTORS: [&str; 4] = [
    "invindex.fv_drop",
    "invindex.blocked_prune_drop",
    "adaptsearch",
    "coarse.drop",
];
/// θ tags of the executor passes: θ = 0.05 and θ = 0.30.
pub const EXEC_THETAS: [(&str, f64); 2] = [("t005", 0.05), ("t030", 0.30)];
/// `planner.pick_share.<alg>` suffixes, in `Algorithm::ALL` order.
pub const ALGORITHM_TAGS: [&str; 8] = [
    "fv",
    "listmerge",
    "adaptsearch",
    "coarse",
    "coarse_drop",
    "blocked_prune",
    "blocked_prune_drop",
    "fv_drop",
];

/// The per-layer metrics, `(name, unit)`; the prefix is the module. A
/// layer that is not on a workload's path reports 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("rankings.footrule_ns".into(), "ns")];
    for exec in EXECUTORS {
        for (tag, _) in EXEC_THETAS {
            m.push((format!("{exec}.{tag}.us_per_query"), "us"));
            m.push((format!("{exec}.{tag}.postings_per_query"), "count"));
            m.push((format!("{exec}.{tag}.distance_calls_per_query"), "count"));
            m.push((format!("{exec}.{tag}.candidates_per_result"), "ratio"));
        }
    }
    m.push(("planner.plan_ns".into(), "ns"));
    for alg in ALGORITHM_TAGS {
        m.push((format!("planner.pick_share.{alg}"), "ratio"));
    }
    for (name, unit) in [
        ("planner.regret.t005", "ratio"),
        ("planner.regret.t030", "ratio"),
        ("planner.predicted_over_actual", "ratio"),
        ("metricspace.topk_nodes_per_query", "count"),
        ("metricspace.topk_visit_frac", "ratio"),
        ("metricspace.topk_distance_calls_per_query", "count"),
        ("engine.build_s", "s"),
        ("engine.heap_bytes", "B"),
        ("engine.insert_us", "us"),
        ("engine.remove_us", "us"),
        ("engine.compact_s", "s"),
        ("engine.delta_len", "count"),
        ("engine.tombstones", "count"),
        ("batch.driver_us", "us"),
        ("batch.speedup_2t", "ratio"),
        ("batch.worker_imbalance", "ratio"),
        ("shard.merge_us", "us"),
        ("shard.live_skew", "ratio"),
        ("shard.route_s", "s"),
        ("shard.build_s", "s"),
        ("snapshot.acquire_ns", "ns"),
        ("snapshot.publish_lag_ms", "ms"),
        ("snapshot.publish_lag_ops_max", "count"),
        ("snapshot.abandoned_generations", "count"),
        ("snapshot.read_p99_us_during_compaction", "us"),
        ("wal.append_us", "us"),
        ("wal.sync_us", "us"),
        ("wal.bytes_per_op", "B"),
        ("wal.replay_ops_per_s", "1/s"),
        ("persist.save_s", "s"),
        ("persist.load_verify_s", "s"),
        ("persist.load_trust_s", "s"),
        ("persist.checkpoint_s", "s"),
        ("remote.launch_s", "s"),
        ("remote.tax_us", "us"),
        ("remote.relative_throughput", "ratio"),
        ("remote.fanout_sent", "count"),
        ("remote.fanout_pruned", "count"),
        ("remote.prune_frac", "ratio"),
        ("remote.hedges", "count"),
        ("remote.respawns", "count"),
        ("remote.heal_ms", "ms"),
        ("serve.dispatch_us", "us"),
        ("serve.wire_us", "us"),
        ("serve.wire_floor_us", "us"),
        ("serve.shed", "count"),
        ("serve.timeouts", "count"),
        ("serve.batch_failures", "count"),
        ("datasets.gen_s", "s"),
        ("bench.timer_ns", "ns"),
        ("bench.trace_overhead_frac", "ratio"),
        ("bench.round_spread", "ratio"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// One reported value with what it rests on.
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
    /// `false` for a percentile with fewer than ten samples beyond it.
    pub resolved: bool,
    /// Per-round (or per-repeat) values; their spread is the noise
    /// `compare` weighs a difference against.
    pub rounds: Vec<f64>,
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    metrics: Vec<(String, Measured)>,
    /// Corpus sizes and other facts about the inputs.
    pub sizes: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            metrics: Vec::new(),
            sizes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, m: Measured) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = m,
            None => self.metrics.push((name.to_string(), m)),
        }
    }

    /// A single measurement or count.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(
            name,
            Measured {
                value,
                samples: 1,
                resolved: true,
                rounds: vec![value],
            },
        );
    }

    /// The median of per-round (or per-repeat) values.
    pub fn median_of(&mut self, name: &str, rounds: Vec<f64>) {
        self.put(
            name,
            Measured {
                value: median(&rounds),
                samples: rounds.len(),
                resolved: true,
                rounds,
            },
        );
    }

    /// The mean of per-engine values.
    pub fn mean_of(&mut self, name: &str, values: Vec<f64>) {
        self.put(
            name,
            Measured {
                value: values.iter().sum::<f64>() / values.len() as f64,
                samples: values.len(),
                resolved: true,
                rounds: values,
            },
        );
    }

    /// Percentile `p` (µs) over the pooled samples of all rounds; the
    /// per-round percentiles ride along as the spread.
    pub fn percentile_of(&mut self, name: &str, p: f64, rounds: &mut [Samples]) {
        let per_round: Vec<f64> = rounds
            .iter_mut()
            .filter_map(|r| r.percentile_us(p))
            .map(|pc| pc.value)
            .collect();
        let mut pooled = Samples::default();
        for r in rounds.iter_mut() {
            pooled.append(&mut r.clone());
        }
        let Percentile { value, resolved } = pooled
            .percentile_us(p)
            .unwrap_or_else(|| panic!("{name}: no samples were taken"));
        self.put(
            name,
            Measured {
                value,
                samples: pooled.len(),
                resolved,
                rounds: per_round,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.value)
    }

    /// Counts one checked operation; a failed one is remembered.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Counts operations that were attempted and not individually checked.
    pub fn attempted(&mut self, ops: u64) {
        self.attempted += ops;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: exactly the metrics in `names`.
    pub fn result_line(&self, names: &[(String, &'static str)], absent_is_zero: bool) -> Json {
        let metrics = names.iter().map(|(name, unit)| {
            let value = match self.get(name) {
                Some(v) => v,
                None if absent_is_zero => 0.0,
                None => panic!("workload {} did not measure {name}", self.workload),
            };
            (
                name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The result file: the result line's content plus provenance,
    /// sample counts and per-round values.
    pub fn result_file(
        &self,
        names: &[(String, &'static str)],
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Json {
        let metrics = names.iter().map(|(name, unit)| {
            let absent = Measured {
                value: 0.0,
                samples: 0,
                resolved: true,
                rounds: Vec::new(),
            };
            let m = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(&absent, |(_, m)| m);
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(*unit)),
                    ("samples", Json::Num(m.samples as f64)),
                    ("resolved", Json::Bool(m.resolved)),
                    ("rounds", Json::nums(&m.rounds)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("trace", Json::Bool(trace)),
            ("provenance", provenance()),
            (
                "sizes",
                Json::obj(self.sizes.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Where and on what the numbers were measured.
pub fn provenance() -> Json {
    let unknown = || "unknown".to_string();
    let git_rev = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    Json::obj([
        ("git_rev", Json::str(git_rev.unwrap_or_else(unknown))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "ram",
            Json::str(proc_field("/proc/meminfo", "MemTotal").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("harness", Json::str(env!("CARGO_PKG_VERSION"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` and the harness must name the same metrics and
    /// workloads, or the driver refuses the result line.
    #[test]
    fn benchmark_json_names_what_the_harness_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |v: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            names("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(names("per_layer"), own(per_layer()));
        assert_eq!(per_layer().len(), 94);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_holds_exactly_the_named_metrics() {
        let mut r = Report::new("lib_mono");
        r.set("a", 1.5);
        r.median_of("b", vec![3.0, 1.0, 2.0]);
        r.check(true, || unreachable!());
        r.check(false, || "boom".into());
        let names = vec![
            ("a".to_string(), "s"),
            ("b".to_string(), "us"),
            ("c".to_string(), "count"),
        ];
        let line = r.result_line(&names, true);
        assert_eq!(Json::parse(&line.render()).unwrap(), line);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(2.0));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[1].1.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(metrics[2].1.get("value").and_then(Json::as_f64), Some(0.0));
        assert_eq!(r.failures(), ["boom".to_string()]);
    }
}
