//! # ranksim — top-k-list similarity search
//!
//! A faithful, production-grade Rust implementation of
//! *"The Sweet Spot between Inverted Indices and Metric-Space Indexing for
//! Top-K-List Similarity Search"* (Milchevski, Anand & Michel, EDBT 2015).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`rankings`] — the top-k ranking model and Footrule/Kendall distances,
//! * [`metricspace`] — BK-tree, M-tree, VP-tree and fixed-radius
//!   partitioning,
//! * [`invindex`] — the inverted-index algorithm family (F&V, ListMerge,
//!   +Drop, Blocked+Prune, Minimal F&V),
//! * [`adaptsearch`] — the AdaptSearch competitor,
//! * [`datasets`] — synthetic NYT-like / Yago-like corpora and workloads,
//! * [`core`] — the paper's contribution: the coarse hybrid index, its
//!   cost model and the sweet-spot tuner, plus the unified query [`prelude::Engine`].
//!
//! ## Quickstart
//!
//! ```
//! use ranksim::prelude::*;
//!
//! // Build a tiny corpus of top-4 rankings.
//! let mut store = RankingStore::new(4);
//! for items in [[2u32, 5, 4, 3], [1, 4, 5, 9], [0, 8, 5, 7], [2, 5, 4, 9]] {
//!     store.push(&Ranking::new(items).unwrap()).unwrap();
//! }
//!
//! // Index it with the coarse hybrid index at θ_C = 0.3.
//! let engine = EngineBuilder::new(store)
//!     .coarse_threshold(0.3)
//!     .build();
//!
//! // Ad-hoc similarity query: everything within normalized Footrule 0.35.
//! let query = Ranking::new([2u32, 5, 4, 7]).unwrap();
//! let mut stats = QueryStats::new();
//! let hits = engine.query(Algorithm::Coarse, &query, 0.35, &mut stats);
//! assert!(hits.contains(&RankingId(0)));
//! ```
//!
//! ## Live corpora
//!
//! The engine is mutable: insert and remove rankings at any time, with
//! every algorithm (and the sharded engine) answering exactly as a
//! freshly built index would — removals tombstone lazily, inserts live
//! in a linearly-validated delta overlay, and
//! [`prelude::Engine::compact`] folds both into fresh arenas.
//!
//! ```
//! use ranksim::prelude::*;
//!
//! let mut store = RankingStore::new(4);
//! for items in [[2u32, 5, 4, 3], [1, 4, 5, 9], [0, 8, 5, 7]] {
//!     store.push(&Ranking::new(items).unwrap()).unwrap();
//! }
//! let mut engine = EngineBuilder::new(store).coarse_threshold(0.3).build();
//!
//! let fresh = engine.insert_ranking(&[2u32, 5, 4, 9].map(ItemId));
//! engine.remove_ranking(RankingId(1));
//! let mut stats = QueryStats::new();
//! let query = Ranking::new([2u32, 5, 4, 7]).unwrap();
//! let hits = engine.query(Algorithm::Fv, &query, 0.35, &mut stats);
//! assert!(hits.contains(&fresh) && !hits.contains(&RankingId(1)));
//!
//! engine.compact(); // rebuild arenas over the live corpus, in place
//! let hits = engine.query(Algorithm::Coarse, &query, 0.35, &mut stats);
//! assert!(hits.contains(&fresh));
//! ```
//!
//! ## Concurrent serving
//!
//! [`prelude::SnapshotEngine`] wraps an engine in an RCU-style snapshot
//! layer for mixed read/write workloads: mutations go through `&self`
//! and are published off-thread, while readers grab a frozen
//! [`prelude::EngineSnapshot`] and never block on a writer — not even
//! during a compaction rebuild.
//!
//! ```
//! use ranksim::prelude::*;
//!
//! let mut store = RankingStore::new(4);
//! for items in [[2u32, 5, 4, 3], [1, 4, 5, 9], [0, 8, 5, 7]] {
//!     store.push(&Ranking::new(items).unwrap()).unwrap();
//! }
//! let service = SnapshotEngine::new(EngineBuilder::new(store).coarse_threshold(0.3).build());
//!
//! let snap = service.snapshot(); // frozen world, zero-allocation acquire
//! let fresh = service.insert_ranking(&[2u32, 5, 4, 9].map(ItemId));
//! service.flush(); // wait for the publisher to catch up
//!
//! let mut stats = QueryStats::new();
//! let mut scratch = snap.scratch();
//! let q: Vec<ItemId> = [2u32, 5, 4, 7].map(ItemId).to_vec();
//! let theta = raw_threshold(0.35, 4);
//! // The held snapshot predates the insert; a fresh one sees it.
//! assert!(!snap.query_items(Algorithm::Fv, &q, theta, &mut scratch, &mut stats).contains(&fresh));
//! let now = service.snapshot();
//! assert!(now.query_items(Algorithm::Fv, &q, theta, &mut scratch, &mut stats).contains(&fresh));
//! ```

pub use ranksim_adaptsearch as adaptsearch;
pub use ranksim_core as core;
pub use ranksim_datasets as datasets;
pub use ranksim_invindex as invindex;
pub use ranksim_metricspace as metricspace;
pub use ranksim_rankings as rankings;

/// Everything a typical application needs, one `use` away.
pub mod prelude {
    pub use ranksim_core::engine::{Algorithm, Engine, EngineBuilder, QueryTrace};
    pub use ranksim_core::{
        load_engine, load_sharded, load_sharded_manifest, save_engine, save_sharded,
        serve_from_env, shard_snapshot_file, CalibratedCosts, CoarseIndex, CostModel,
        EngineSnapshot, Health, LoadMode, MutationError, PersistError, PlanStats, Planner,
        RebalanceConfig, RecoveryReport, RemoteError, RemoteOptions, RemoteShardedEngine,
        RemoteStats, ShardStrategy, ShardedEngine, ShardedEngineBuilder, ShardedManifest,
        SnapshotEngine, SnapshotMeta, SyncPolicy, WorkerReport, WorkerSpec,
    };
    pub use ranksim_rankings::{
        footrule_pairs, raw_threshold, ExecStats, ItemId, ItemRemap, PositionMap, QueryExecutor,
        QueryScratch, QueryStats, Ranking, RankingId, RankingStore,
    };
}
