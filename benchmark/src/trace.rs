//! In-memory spans around calls into the library's public entry points.
//!
//! The library has no spans of its own yet, so a traced run issues the
//! same query at successively taller entry points (a *ladder*): each
//! call is one span, the spans of one query share an `op_id`, and a
//! layer's self time is its rung minus the rung below. The root span of
//! an op wraps its rung calls, so what the harness itself spends
//! between rungs is the root's self time.

use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u32,
    pub span_id: u32,
    /// 0 for a root span.
    pub parent_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at this boundary (postings, distance calls, …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory; they are written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id (ids start at 1).
    pub fn begin(&mut self, op_id: u32, parent_id: u32, name: &'static str) -> u32 {
        let span_id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op_id,
            span_id,
            parent_id,
            name,
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        // Stamp last, so the push is outside the measured interval.
        self.spans[span_id as usize - 1].start_ns = self.epoch.elapsed().as_nanos() as u64;
        span_id
    }

    pub fn end(&mut self, span_id: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[span_id as usize - 1].end_ns = now;
    }

    pub fn count(&mut self, span_id: u32, key: &'static str, value: f64) {
        self.spans[span_id as usize - 1].counts.push((key, value));
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        op_id: u32,
        parent_id: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let id = self.begin(op_id, parent_id, name);
        let r = f();
        self.end(id);
        (r, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration of the spans called `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect();
        (!d.is_empty()).then(|| median(&d))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may nest, overlap each other or
/// stick out of the parent; covered time is counted once and only
/// inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent_id != 0 {
            let parent = &spans[s.parent_id as usize - 1];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[s.parent_id as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in iv {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One rung of a ladder: the entry point's median time and what it adds
/// over the rung below.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub name: &'static str,
    pub below: Option<&'static str>,
    pub samples: usize,
    pub median_ns: f64,
    pub self_ns: f64,
}

/// Derives the per-rung table from recorded spans. `ladder` lists the
/// rungs bottom-up as `(name, rung below)`; rungs without spans are
/// left out.
pub fn ladder(tracer: &Tracer, ladder: &[(&'static str, Option<&'static str>)]) -> Vec<Rung> {
    ladder
        .iter()
        .filter_map(|&(name, below)| {
            let median_ns = tracer.median_ns(name)?;
            let below_ns = below.and_then(|b| tracer.median_ns(b)).unwrap_or(0.0);
            Some(Rung {
                name,
                below,
                samples: tracer.spans().iter().filter(|s| s.name == name).count(),
                median_ns,
                self_ns: median_ns - below_ns,
            })
        })
        .collect()
}

/// What a traced run hands back for its trace file.
pub struct TraceOut {
    pub tracer: Tracer,
    pub rungs: Vec<Rung>,
}

pub fn trace_json(workload: &str, seed: u64, rungs: &[Rung], tracer: &Tracer) -> Json {
    let selfs = self_times(tracer.spans());
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "ladder",
            Json::Arr(
                rungs
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("rung", Json::str(r.name)),
                            ("below", r.below.map_or(Json::Null, Json::str)),
                            ("samples", Json::Num(r.samples as f64)),
                            ("median_ns", Json::Num(r.median_ns)),
                            ("self_ns", Json::Num(r.self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                tracer
                    .spans()
                    .iter()
                    .zip(selfs)
                    .map(|(s, self_ns)| {
                        Json::obj([
                            ("op_id", Json::Num(s.op_id as f64)),
                            ("span_id", Json::Num(s.span_id as f64)),
                            ("parent_id", Json::Num(s.parent_id as f64)),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_ns", Json::Num(self_ns as f64)),
                            (
                                "counts",
                                Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v)))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u32, parent_id: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 1,
            span_id,
            parent_id,
            name: "t",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),  // root
            span(2, 1, 10, 40),  // child
            span(3, 1, 30, 60),  // overlaps span 2 on [30, 40)
            span(4, 2, 15, 25),  // grandchild: charged to span 2 only
            span(5, 1, 90, 130), // sticks out of the root: clipped to [90, 100)
            span(6, 1, 70, 70),  // empty
        ];
        let s = self_times(&spans);
        // Root: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
        assert_eq!(s[0], 40);
        assert_eq!(s[1], 20); // 30 − grandchild 10
        assert_eq!(s[2], 30);
        assert_eq!(s[3], 10);
        assert_eq!(s[4], 40);
        assert_eq!(s[5], 0);
    }

    #[test]
    fn ladder_self_time_is_rung_minus_rung_below() {
        let mut t = Tracer::new();
        for (name, d) in [
            ("low", 10u64),
            ("low", 30),
            ("low", 20),
            ("high", 50),
            ("high", 70),
        ] {
            let id = t.begin(1, 0, name);
            t.spans[id as usize - 1].start_ns = 0;
            t.spans[id as usize - 1].end_ns = d;
        }
        let rungs = ladder(
            &t,
            &[
                ("low", None),
                ("absent", Some("low")),
                ("high", Some("low")),
            ],
        );
        assert_eq!(rungs.len(), 2);
        assert_eq!((rungs[0].median_ns, rungs[0].self_ns), (20.0, 20.0));
        assert_eq!((rungs[1].median_ns, rungs[1].self_ns), (60.0, 40.0));
        assert_eq!(rungs[1].samples, 2);
    }
}
