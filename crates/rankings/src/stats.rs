//! Per-query instrumentation.
//!
//! The paper's Figure 10 compares algorithms by the number of **distance
//! function calls** (DFC) they perform; Table 6 and the Section 7 phase
//! breakdowns additionally need list-access and candidate counts. Every
//! query-processing routine in this workspace threads a `&mut QueryStats`
//! and bumps the relevant counters.

/// Counters accumulated while processing one query (or a batch; counters
/// are additive and [`QueryStats::merge`] folds batches together).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Full Footrule evaluations (the paper's DFC measure).
    pub distance_calls: u64,
    /// Inverted-index lists opened.
    pub lists_accessed: u64,
    /// Index-list entries scanned (postings read).
    pub entries_scanned: u64,
    /// Candidate rankings that reached the validation phase.
    pub candidates: u64,
    /// Metric-tree nodes visited (BK-/M-/VP-tree traversals).
    pub tree_nodes_visited: u64,
    /// Results reported.
    pub results: u64,
    /// Validations aborted early by the suffix-bound distance kernel
    /// (candidate proven outside θ before the walk finished).
    pub validations_pruned: u64,
}

impl QueryStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one Footrule evaluation.
    #[inline]
    pub fn count_distance(&mut self) {
        self.distance_calls += 1;
    }

    /// Records `n` Footrule evaluations.
    #[inline]
    pub fn count_distances(&mut self, n: u64) {
        self.distance_calls += n;
    }

    /// Records an opened index list of `len` postings.
    #[inline]
    pub fn count_list(&mut self, len: usize) {
        self.lists_accessed += 1;
        self.entries_scanned += len as u64;
    }

    /// Folds another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.distance_calls += other.distance_calls;
        self.lists_accessed += other.lists_accessed;
        self.entries_scanned += other.entries_scanned;
        self.candidates += other.candidates;
        self.tree_nodes_visited += other.tree_nodes_visited;
        self.results += other.results;
        self.validations_pruned += other.validations_pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = QueryStats::new();
        a.count_distance();
        a.count_list(10);
        let mut b = QueryStats::new();
        b.count_distances(4);
        b.count_list(5);
        b.candidates = 3;
        b.validations_pruned = 2;
        a.merge(&b);
        assert_eq!(a.distance_calls, 5);
        assert_eq!(a.lists_accessed, 2);
        assert_eq!(a.entries_scanned, 15);
        assert_eq!(a.candidates, 3);
        assert_eq!(a.validations_pruned, 2);
    }
}
