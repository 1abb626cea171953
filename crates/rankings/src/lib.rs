//! Top-k ranking model and rank-distance functions.
//!
//! This crate is the substrate every other `ranksim` crate builds on. It
//! provides:
//!
//! * [`Ranking`] — an owned, validated top-k list (a bijection from a small
//!   item domain onto ranks `0..k-1`),
//! * [`RankingStore`] — flat, cache-friendly storage for a corpus of
//!   equal-size rankings, addressed by [`RankingId`],
//! * [`footrule`] — Spearman's Footrule adapted to top-k lists following
//!   Fagin, Kumar & Sivakumar (SIAM J. Discrete Math., 2003): items missing
//!   from a ranking are assigned the artificial rank `l = k`,
//! * [`kendall`] — Kendall's tau for top-k lists (optimistic variant), kept
//!   for completeness and cross-checks,
//! * [`QueryStats`] — per-query instrumentation (distance-function calls,
//!   list accesses, candidates) used by the paper's Figure 10,
//! * [`ItemRemap`] — the corpus-wide `ItemId → dense u32` remap backing the
//!   CSR index layouts and the flat query-side maps,
//! * [`QueryScratch`] — epoch-versioned, reusable per-query working memory
//!   making steady-state query processing allocation-free,
//! * [`hash`] — a minimal Fx-style hasher for hot u32-keyed maps.
//!
//! Distances are **raw integers** throughout (`0..=k(k+1)`); the adapted
//! Footrule distance between two size-k rankings is always even. Normalized
//! thresholds in `[0, 1]` are converted at the API boundary via
//! [`footrule::raw_threshold`].

pub mod executor;
pub mod footrule;
pub mod hash;
pub mod kendall;
pub mod kernel;
pub mod ranking;
pub mod remap;
pub mod scratch;
pub mod stats;

pub use executor::{ExecStats, QueryExecutor};
pub use footrule::{
    footrule_items, footrule_pairs, footrule_store, max_distance, min_distance_for_overlap,
    one_side_total, raw_threshold, PositionMap,
};
pub use kendall::kendall_top_k;
pub use kernel::KERNEL_CHUNK;
#[doc(hidden)]
pub use ranking::{
    item_vec_from_u32, item_vec_into_u32, ranking_vec_from_u32, ranking_vec_into_u32, StoreParts,
};
pub use ranking::{validate_items, ItemId, Ranking, RankingError, RankingId, RankingStore};
pub use remap::ItemRemap;
#[doc(hidden)]
pub use remap::RemapParts;
pub use scratch::{EpochMap, EpochSet, FlatPositionMap, QueryScratch};
pub use stats::QueryStats;
