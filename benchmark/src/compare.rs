//! `compare <a> <b>`: one verdict per (workload, end-to-end metric)
//! between two result files, or two directories of them, using the
//! bounds `BENCHMARK.json` fixes and each side's own per-round spread.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::relative_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The noise is wider than the bound, or a percentile had fewer
    /// than ten samples beyond it: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
pub struct Reading {
    pub value: f64,
    pub resolved: bool,
    pub rounds: Vec<f64>,
}

impl Reading {
    fn spread(&self) -> f64 {
        if self.rounds.len() < 2 {
            0.0
        } else {
            relative_spread(&self.rounds).abs()
        }
    }
}

/// `b` against the baseline `a`. A difference counts only beyond
/// `bound`; where either side's round-to-round spread is itself wider
/// than `bound`, or a percentile is unresolved, neither is claimed.
pub fn verdict(a: &Reading, b: &Reading, lower_is_better: bool, bound: f64) -> Verdict {
    if !a.resolved || !b.resolved || a.spread().max(b.spread()) > bound || a.value == 0.0 {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The untraced result files at `path`: itself, or every
/// `result_<workload>.json` in it.
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.starts_with("result_") && n.ends_with(".json") && !n.ends_with("_trace.json")
                })
            })
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!(
            "{}: no result_<workload>.json files",
            path.display()
        ));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

fn reading(result: &Json, metric: &str) -> Option<Reading> {
    let m = result.get("metrics")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        resolved: m.get("resolved") != Some(&Json::Bool(false)),
        rounds: m
            .get("rounds")
            .and_then(Json::as_arr)
            .map(|r| r.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let run = || -> Result<bool, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no end_to_end list")?;
        let (left, right) = (load(a)?, load(b)?);
        let mut any_worse = false;
        println!(
            "{:<12} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
            "workload", "metric", "a", "b", "change", "bound"
        );
        for ra in &left {
            let workload = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
            let Some(rb) = right
                .iter()
                .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            else {
                println!("{workload:<12} (only in {})", a.display());
                continue;
            };
            for m in metrics {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("a metric has no name")?;
                let bound = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("a metric has no bound")?;
                let lower = m.get("better").and_then(Json::as_str) != Some("higher");
                let (Some(va), Some(vb)) = (reading(ra, name), reading(rb, name)) else {
                    continue;
                };
                let v = verdict(&va, &vb, lower, bound);
                any_worse |= v == Verdict::Worse;
                println!(
                    "{workload:<12} {name:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                    va.value,
                    vb.value,
                    (vb.value - va.value) / va.value * 100.0,
                    bound * 100.0,
                    v.label()
                );
            }
        }
        Ok(any_worse)
    };
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, rounds: &[f64]) -> Reading {
        Reading {
            value,
            resolved: true,
            rounds: rounds.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = |v: f64| reading(v, &[v * 0.99, v, v * 1.01, v, v]);
        // Lower is better, bound 10%.
        assert_eq!(
            verdict(&steady(100.0), &steady(105.0), true, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(120.0), true, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(80.0), true, 0.1),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&steady(100.0), &steady(120.0), false, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(80.0), false, 0.1),
            Verdict::Worse
        );
        // A side noisier than the bound resolves nothing.
        let noisy = reading(100.0, &[60.0, 80.0, 100.0, 120.0, 140.0]);
        assert_eq!(
            verdict(&noisy, &steady(150.0), true, 0.1),
            Verdict::Unresolved
        );
        // Nor does an under-sampled percentile.
        let thin = Reading {
            resolved: false,
            ..steady(100.0)
        };
        assert_eq!(
            verdict(&steady(100.0), &thin, true, 0.1),
            Verdict::Unresolved
        );
        // A single measurement has no spread of its own.
        assert_eq!(
            verdict(&reading(2.0, &[2.0]), &reading(2.1, &[2.1]), true, 0.1),
            Verdict::WithinBound
        );
    }
}
