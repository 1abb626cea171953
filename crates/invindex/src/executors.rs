//! [`QueryExecutor`] impls for the inverted-index algorithm family.
//!
//! One executor per paper algorithm, each holding (a shared handle to)
//! the index structure it runs on. The engine builds the index once,
//! wraps it in the matching executor, and dispatches every query through
//! the uniform [`QueryExecutor`] contract — the per-algorithm `match`
//! that used to live in the engine is gone, and the instrumented
//! [`ExecStats`] each call returns feeds the cost-model planner's
//! predicted-vs-actual recalibration loop.

use std::sync::Arc;

use crate::augmented::AugmentedInvertedIndex;
use crate::blocked::BlockedInvertedIndex;
use crate::plain::PlainInvertedIndex;
use crate::{blocked_prune, fv, listmerge};
use ranksim_rankings::{
    ExecStats, ItemId, QueryExecutor, QueryScratch, QueryStats, RankingId, RankingStore,
};

/// F&V over the plain inverted index (paper Section 4).
pub struct FvExecutor {
    index: Arc<PlainInvertedIndex>,
}

impl FvExecutor {
    /// Wraps a shared plain index.
    pub fn new(index: Arc<PlainInvertedIndex>) -> Self {
        FvExecutor { index }
    }
}

impl QueryExecutor for FvExecutor {
    fn name(&self) -> &'static str {
        "F&V"
    }

    fn execute(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> ExecStats {
        let before = *stats;
        fv::filter_validate_into(&self.index, store, query, theta_raw, scratch, stats, out);
        ExecStats::since(&before, stats)
    }
}

/// F&V with Lemma 2 list dropping (paper Section 6.1).
pub struct FvDropExecutor {
    index: Arc<PlainInvertedIndex>,
}

impl FvDropExecutor {
    /// Wraps a shared plain index.
    pub fn new(index: Arc<PlainInvertedIndex>) -> Self {
        FvDropExecutor { index }
    }
}

impl QueryExecutor for FvDropExecutor {
    fn name(&self) -> &'static str {
        "F&V+Drop"
    }

    fn execute(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> ExecStats {
        let before = *stats;
        fv::filter_validate_drop_into(&self.index, store, query, theta_raw, scratch, stats, out);
        ExecStats::since(&before, stats)
    }
}

/// Merge of id-sorted augmented lists with on-the-fly aggregation
/// (paper Section 6.2).
pub struct ListMergeExecutor {
    index: Arc<AugmentedInvertedIndex>,
}

impl ListMergeExecutor {
    /// Wraps a shared augmented index.
    pub fn new(index: Arc<AugmentedInvertedIndex>) -> Self {
        ListMergeExecutor { index }
    }
}

impl QueryExecutor for ListMergeExecutor {
    fn name(&self) -> &'static str {
        "ListMerge"
    }

    fn execute(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> ExecStats {
        let before = *stats;
        listmerge::list_merge_into(&self.index, store, query, theta_raw, scratch, stats, out);
        ExecStats::since(&before, stats)
    }
}

/// Blocked access with NRA-style pruning (paper Section 6.3).
pub struct BlockedPruneExecutor {
    index: Arc<BlockedInvertedIndex>,
    /// Additionally drop lists per Lemma 2 (`Blocked+Prune+Drop`).
    drop_lists: bool,
}

impl BlockedPruneExecutor {
    /// Wraps a shared blocked index; `drop_lists` selects the `+Drop`
    /// variant.
    pub fn new(index: Arc<BlockedInvertedIndex>, drop_lists: bool) -> Self {
        BlockedPruneExecutor { index, drop_lists }
    }
}

impl QueryExecutor for BlockedPruneExecutor {
    fn name(&self) -> &'static str {
        if self.drop_lists {
            "Blocked+Prune+Drop"
        } else {
            "Blocked+Prune"
        }
    }

    fn execute(
        &self,
        store: &RankingStore,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> ExecStats {
        let before = *stats;
        if self.drop_lists {
            blocked_prune::blocked_prune_drop_into(
                &self.index,
                store,
                query,
                theta_raw,
                scratch,
                stats,
                out,
            );
        } else {
            blocked_prune::blocked_prune_into(
                &self.index,
                store,
                query,
                theta_raw,
                scratch,
                stats,
                out,
            );
        }
        ExecStats::since(&before, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equals_scan, perturbed_query, random_store};
    use ranksim_rankings::raw_threshold;

    #[test]
    fn executors_match_their_direct_entry_points() {
        let store = random_store(300, 7, 60, 11);
        let plain = Arc::new(PlainInvertedIndex::build(&store));
        let augmented = Arc::new(AugmentedInvertedIndex::build(&store));
        let blocked = Arc::new(BlockedInvertedIndex::build(&store));
        let executors: Vec<Box<dyn QueryExecutor>> = vec![
            Box::new(FvExecutor::new(plain.clone())),
            Box::new(FvDropExecutor::new(plain)),
            Box::new(ListMergeExecutor::new(augmented)),
            Box::new(BlockedPruneExecutor::new(blocked.clone(), false)),
            Box::new(BlockedPruneExecutor::new(blocked, true)),
        ];
        let mut scratch = QueryScratch::new();
        for seed in 0..6u64 {
            let q = perturbed_query(&store, RankingId((seed * 17 % 300) as u32), 60, seed);
            for theta in [0.0, 0.1, 0.25] {
                let raw = raw_threshold(theta, 7);
                for exec in &executors {
                    let mut stats = QueryStats::new();
                    let mut out = Vec::new();
                    let delta = exec.execute(&store, &q, raw, &mut scratch, &mut stats, &mut out);
                    assert_equals_scan(&store, &q, raw, out);
                    assert_eq!(
                        delta,
                        ExecStats::since(&QueryStats::new(), &stats),
                        "{}: delta must equal the fresh-stats total",
                        exec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn executor_names_match_paper() {
        let store = random_store(50, 5, 30, 3);
        let plain = Arc::new(PlainInvertedIndex::build(&store));
        let blocked = Arc::new(BlockedInvertedIndex::build(&store));
        assert_eq!(FvExecutor::new(plain.clone()).name(), "F&V");
        assert_eq!(FvDropExecutor::new(plain).name(), "F&V+Drop");
        assert_eq!(
            BlockedPruneExecutor::new(blocked.clone(), false).name(),
            "Blocked+Prune"
        );
        assert_eq!(
            BlockedPruneExecutor::new(blocked, true).name(),
            "Blocked+Prune+Drop"
        );
    }
}
