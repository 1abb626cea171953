//! The query-executor abstraction every processing technique plugs into.
//!
//! An algorithm's query path is a [`QueryExecutor`]: it runs one threshold
//! query through the caller's [`QueryScratch`] into a caller-owned result
//! buffer and reports what it did as an [`ExecStats`] — postings scanned,
//! candidates validated, distance computations. The engine's dispatch is
//! a table of boxed executors (one per built index structure) instead of
//! a central `match`, so algorithm crates own their execution path and
//! the cost-model planner can treat every technique uniformly: predicted
//! cost in, executor out, instrumented actuals back for recalibration.
//!
//! Executor impls live next to their index structures (`ranksim-invindex`
//! for the inverted-index family, `ranksim-adaptsearch` for AdaptSearch,
//! `ranksim-core` for the coarse hybrid path); this crate only defines
//! the contract, keeping the dependency graph acyclic.

use crate::ranking::{ItemId, RankingId, RankingStore};
use crate::scratch::QueryScratch;
use crate::stats::QueryStats;

/// What one executor invocation did, as counter deltas.
///
/// The fields mirror the [`QueryStats`] counters the paper's evaluation
/// reads (Figure 10 DFC, Section 7 phase breakdowns) but are scoped to a
/// single `execute` call, which makes them the planner's ground truth for
/// predicted-vs-actual cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Index-list entries streamed (postings read).
    pub postings_scanned: u64,
    /// Candidate rankings that reached a validation phase.
    pub candidates: u64,
    /// Full Footrule evaluations (the paper's DFC measure).
    pub distance_calls: u64,
    /// Validations aborted early by the suffix-bound distance kernel.
    pub validations_pruned: u64,
}

impl ExecStats {
    /// The delta between two cumulative [`QueryStats`] snapshots taken
    /// around one executor invocation.
    pub fn since(before: &QueryStats, after: &QueryStats) -> Self {
        ExecStats {
            postings_scanned: after.entries_scanned - before.entries_scanned,
            candidates: after.candidates - before.candidates,
            distance_calls: after.distance_calls - before.distance_calls,
            validations_pruned: after.validations_pruned - before.validations_pruned,
        }
    }

    /// Folds another record into this one (batch accumulation).
    pub fn merge(&mut self, other: &ExecStats) {
        self.postings_scanned += other.postings_scanned;
        self.candidates += other.candidates;
        self.distance_calls += other.distance_calls;
        self.validations_pruned += other.validations_pruned;
    }
}

/// One query-processing technique behind a uniform execution contract.
///
/// Implementations hold their index structure (shared via `Arc` with the
/// engine that built it) and must uphold the engine-wide hot-path
/// invariant: with a warmed-up scratch and result buffer, `execute`
/// performs **zero** heap allocations.
pub trait QueryExecutor: Send + Sync {
    /// The paper's display name of the algorithm this executor runs.
    fn name(&self) -> &'static str;

    /// Runs one threshold query, appending the result ids to `out`
    /// (callers clear the buffer; executors only append), and returns the
    /// instrumented counter deltas of exactly this invocation.
    fn execute(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> ExecStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_delta_and_merge() {
        let mut before = QueryStats::new();
        before.count_list(10);
        before.count_distance();
        let mut after = before;
        after.count_list(5);
        after.count_distances(3);
        after.candidates += 4;
        after.validations_pruned += 2;
        let d = ExecStats::since(&before, &after);
        assert_eq!(
            d,
            ExecStats {
                postings_scanned: 5,
                candidates: 4,
                distance_calls: 3,
                validations_pruned: 2,
            }
        );
        let mut acc = ExecStats::default();
        acc.merge(&d);
        acc.merge(&d);
        assert_eq!(acc.postings_scanned, 10);
        assert_eq!(acc.candidates, 8);
        assert_eq!(acc.distance_calls, 6);
        assert_eq!(acc.validations_pruned, 4);
    }
}
