//! The unified query engine: every algorithm of the paper's evaluation
//! behind one executor table, with a cost-model planner picking the sweet
//! spot per query.
//!
//! [`Engine`] owns the corpus and the index structures; [`Algorithm`]
//! names the paper's processing techniques (Section 7, "Algorithms under
//! Investigation") minus `Minimal F&V`, which is a workload-dependent
//! oracle rather than an ad-hoc index (see
//! [`ranksim_invindex::MinimalFv`]) — plus [`Algorithm::Auto`], which
//! lets the calibrated cost model choose the technique per `(query, θ)`
//! (the paper's Sections 8–9 outlook, implemented in
//! [`crate::planner::Planner`]).
//!
//! Dispatch is **not** a central `match` anymore: each algorithm is a
//! [`QueryExecutor`] living next to its index structure
//! (`ranksim-invindex`, `ranksim-adaptsearch`, the coarse path in this
//! crate), and the engine holds one executor per built structure in a
//! dense table. [`Engine::query_into`] resolves `Auto` through the
//! planner, runs the chosen executor, and feeds the measured runtime back
//! for online recalibration.
//!
//! All indexes share one corpus-wide [`ItemRemap`], and every query
//! threads a caller-owned [`QueryScratch`] through
//! [`Engine::query_items`] / [`Engine::query_into`] — the latter writes
//! into a reusable result buffer and performs **zero** heap allocations
//! once scratch and buffer are warmed up, planner included.
//! [`EngineBuilder::algorithms`] restricts construction to the index
//! structures the selected algorithms need and doubles as the planner's
//! candidate set when [`Algorithm::Auto`] is selected.

use std::sync::Arc;
use std::time::Instant;

use crate::coarse::{CoarseExecutor, CoarseIndex, CoarseIndexParts};
use crate::cost::calibrate::CalibratedCosts;
use crate::planner::{Planner, PlannerSaved};
use ranksim_adaptsearch::{
    AdaptCostParams, AdaptIndexParts, AdaptSearchExecutor, AdaptSearchIndex,
};
use ranksim_invindex::{
    AugmentedIndexParts, AugmentedInvertedIndex, BlockedIndexParts, BlockedInvertedIndex,
    BlockedPruneExecutor, FvDropExecutor, FvExecutor, ListMergeExecutor, PlainIndexParts,
    PlainInvertedIndex,
};
use ranksim_metricspace::{query_pairs_into, KnnHeap};
use ranksim_rankings::{
    footrule_pairs, max_distance, raw_threshold, validate_items, ExecStats, ItemId, ItemRemap,
    QueryExecutor, QueryScratch, QueryStats, Ranking, RankingError, RankingId, RankingStore,
    RemapParts, StoreParts,
};

/// Process-wide generation source: every engine build, compaction and
/// mutation draws a fresh stamp, so a [`QueryScratch`] moving between
/// engines (or across a mutation on one engine) always observes a
/// generation change and invalidates its residual buffers.
static GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
}

/// Mutation budget after which the planner's sampled corpus statistics
/// (distance CDF, Zipf skew, coarse cost tables) are refreshed at
/// mutation time; posting-length counts track every mutation exactly
/// regardless.
const PLANNER_REFRESH_BUDGET: usize = 1024;

/// The query-processing techniques of the paper's evaluation, plus
/// cost-model-driven automatic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Filter & validate over the plain inverted index (baseline).
    Fv,
    /// F&V with Lemma 2 list dropping.
    FvDrop,
    /// Merge of id-sorted augmented lists with on-the-fly aggregation
    /// (threshold-agnostic baseline).
    ListMerge,
    /// Blocked access with NRA-style pruning.
    BlockedPrune,
    /// Blocked access with pruning and list dropping.
    BlockedPruneDrop,
    /// The coarse hybrid index.
    Coarse,
    /// The coarse hybrid index with list dropping in the filter phase.
    CoarseDrop,
    /// The AdaptSearch competitor (adaptive prefix filtering).
    AdaptSearch,
    /// Per-query selection among the engine's candidate set by the
    /// calibrated cost model (see [`crate::planner::Planner`]).
    Auto,
}

impl Algorithm {
    /// Number of concrete (dispatchable) algorithms.
    pub const COUNT: usize = 8;

    /// All concrete algorithms, in the paper's presentation order
    /// (`Auto` is a selection policy, not a ninth technique).
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Fv,
        Algorithm::ListMerge,
        Algorithm::AdaptSearch,
        Algorithm::Coarse,
        Algorithm::CoarseDrop,
        Algorithm::BlockedPrune,
        Algorithm::BlockedPruneDrop,
        Algorithm::FvDrop,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Fv => "F&V",
            Algorithm::FvDrop => "F&V+Drop",
            Algorithm::ListMerge => "ListMerge",
            Algorithm::BlockedPrune => "Blocked+Prune",
            Algorithm::BlockedPruneDrop => "Blocked+Prune+Drop",
            Algorithm::Coarse => "Coarse",
            Algorithm::CoarseDrop => "Coarse+Drop",
            Algorithm::AdaptSearch => "AdaptSearch",
            Algorithm::Auto => "Auto",
        }
    }

    /// Stable dense index of a concrete algorithm (`None` for `Auto`);
    /// the coordinate of every per-algorithm table — executor slots,
    /// planner corrections, batch pick counters.
    pub fn dense_index(self) -> Option<usize> {
        match self {
            Algorithm::Fv => Some(0),
            Algorithm::FvDrop => Some(1),
            Algorithm::ListMerge => Some(2),
            Algorithm::BlockedPrune => Some(3),
            Algorithm::BlockedPruneDrop => Some(4),
            Algorithm::Coarse => Some(5),
            Algorithm::CoarseDrop => Some(6),
            Algorithm::AdaptSearch => Some(7),
            Algorithm::Auto => None,
        }
    }

    /// Inverse of [`Algorithm::dense_index`].
    pub fn from_dense_index(index: usize) -> Option<Algorithm> {
        match index {
            0 => Some(Algorithm::Fv),
            1 => Some(Algorithm::FvDrop),
            2 => Some(Algorithm::ListMerge),
            3 => Some(Algorithm::BlockedPrune),
            4 => Some(Algorithm::BlockedPruneDrop),
            5 => Some(Algorithm::Coarse),
            6 => Some(Algorithm::CoarseDrop),
            7 => Some(Algorithm::AdaptSearch),
            _ => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error of [`Algorithm::from_str`]: the input named no known algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    input: String,
}

impl std::fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm '{}'; expected one of: {}, Auto",
            self.input,
            Algorithm::ALL.map(|a| a.name()).join(", ")
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl std::str::FromStr for Algorithm {
    type Err = ParseAlgorithmError;

    /// Parses the paper display names (round-tripping [`Algorithm`]'s
    /// `Display`) case-insensitively, ignoring the `&`/`+`/`-`/`_`/space
    /// separators: `"F&V+Drop"`, `"fv-drop"` and `"FVDROP"` all parse to
    /// [`Algorithm::FvDrop`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect();
        let all = Algorithm::ALL.iter().copied().chain([Algorithm::Auto]);
        for a in all {
            let canon: String = a
                .name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .map(|c| c.to_ascii_lowercase())
                .collect();
            if norm == canon {
                return Ok(a);
            }
        }
        Err(ParseAlgorithmError {
            input: s.to_string(),
        })
    }
}

/// What one [`Engine::query_into_traced`] call did: the executor that
/// ran (the planner's pick under `Auto`), its instrumented counters, and
/// the predicted/measured costs feeding the recalibration loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTrace {
    /// The concrete algorithm that executed — or the caller's, `Auto`
    /// included, when `θ_raw ≥ max_distance(k)` answered without one.
    pub algorithm: Algorithm,
    /// Whether the planner chose it (`Auto`) or the caller named it.
    pub planned: bool,
    /// Counter deltas of exactly this execution.
    pub exec: ExecStats,
    /// The planner's predicted cost in calibrated ns (0 when not
    /// planned or the planner was degenerate).
    pub predicted_ns: f64,
    /// Measured executor wall time in ns (0 when not planned).
    pub actual_ns: f64,
}

/// Everything the engine needs to (re)build its index structures — the
/// builder's knobs, retained by the engine so [`Engine::compact`] can
/// reconstruct the exact same configuration over the compacted corpus.
#[derive(Clone)]
struct EngineConfig {
    coarse_theta_c: f64,
    coarse_theta_c_drop: Option<f64>,
    selected: Option<Vec<Algorithm>>,
    calibrated: Option<CalibratedCosts>,
    /// Auto-compaction trigger: compact once base tombstones exceed this
    /// fraction of the base live size (`f64::INFINITY` disables).
    compact_tombstone_fraction: f64,
}

/// Builder for [`Engine`].
pub struct EngineBuilder {
    store: RankingStore,
    config: EngineConfig,
}

impl EngineBuilder {
    /// Starts from a corpus.
    pub fn new(store: RankingStore) -> Self {
        EngineBuilder {
            store,
            config: EngineConfig {
                coarse_theta_c: 0.5,
                coarse_theta_c_drop: None,
                selected: None,
                calibrated: None,
                compact_tombstone_fraction: 0.5,
            },
        }
    }

    /// Tombstone fraction of the base corpus at which a removal triggers
    /// an automatic [`Engine::compact`] (default 0.5 — compact once half
    /// the base is dead; `f64::INFINITY` disables auto-compaction and
    /// leaves compaction fully to the caller).
    pub fn compaction_threshold(mut self, tombstone_fraction: f64) -> Self {
        self.config.compact_tombstone_fraction = tombstone_fraction;
        self
    }

    /// No-op, kept only because the out-of-workspace `benchmark/` package
    /// still calls it: [`Engine::query_topk`] has a single path that needs
    /// no index of its own, so there is nothing left to switch.
    pub fn topk_tree(self, _build_tree: bool) -> Self {
        self
    }

    /// Normalized partitioning threshold `θ_C` for the `Coarse` index
    /// (paper default for the comparison figures: 0.5).
    pub fn coarse_threshold(mut self, theta_c: f64) -> Self {
        self.config.coarse_theta_c = theta_c;
        self
    }

    /// Separate `θ_C` for `Coarse+Drop` (the paper measured 0.06 as
    /// optimal there). Defaults to the `Coarse` threshold when unset.
    pub fn coarse_drop_threshold(mut self, theta_c: f64) -> Self {
        self.config.coarse_theta_c_drop = Some(theta_c);
        self
    }

    /// Restricts construction to the index structures the given
    /// algorithms need (a single-algorithm engine, such as the serve
    /// tests' F&V engine or a restricted planner sweep, skips the other
    /// builds entirely); [`EngineBuilder::build`] without this call keeps the
    /// build-everything default, which also arms the planner with all
    /// eight techniques.
    ///
    /// When the list contains [`Algorithm::Auto`], the *concrete*
    /// algorithms in the list become the planner's candidate set (all
    /// eight when `Auto` stands alone) and the planner is built alongside
    /// the indexes; without `Auto` in a restricted list no planner is
    /// built and `Auto` queries panic.
    pub fn algorithms(mut self, algorithms: &[Algorithm]) -> Self {
        self.config.selected = Some(algorithms.to_vec());
        self
    }

    /// Overrides the calibrated machine primitives the planner prices
    /// executors with (defaults to a cached micro-measurement of this
    /// machine; fixed [`CalibratedCosts::nominal`] values keep tests
    /// deterministic).
    pub fn calibrated_costs(mut self, costs: CalibratedCosts) -> Self {
        self.config.calibrated = Some(costs);
        self
    }

    /// Builds the selected index structures (all of them by default),
    /// their executors, and — for the default build or when
    /// [`Algorithm::Auto`] was selected — the cost-model planner.
    pub fn build(self) -> Engine {
        let EngineBuilder { store, config } = self;
        let remap = Arc::new(ItemRemap::build(&store));
        let parts = build_parts(&store, &config, remap.clone());
        let delta_pos = vec![0u32; store.len()];
        let base_live_at_build = store.live_len();
        Engine {
            store,
            remap,
            plain: parts.plain,
            augmented: parts.augmented,
            blocked: parts.blocked,
            adapt: parts.adapt,
            coarse: parts.coarse,
            coarse_drop: parts.coarse_drop,
            executors: parts.executors,
            planner: parts.planner,
            config,
            generation: next_generation(),
            delta: Vec::new(),
            delta_pos,
            base_dead: 0,
            base_live_at_build,
        }
    }
}

/// The engine's index structures, executors and planner, built over the
/// store's **live** rankings — shared between [`EngineBuilder::build`]
/// and [`Engine::compact`].
struct EngineParts {
    plain: Option<Arc<PlainInvertedIndex>>,
    augmented: Option<Arc<AugmentedInvertedIndex>>,
    blocked: Option<Arc<BlockedInvertedIndex>>,
    adapt: Option<Arc<AdaptSearchIndex>>,
    coarse: Option<Arc<CoarseIndex>>,
    coarse_drop: Option<Arc<CoarseIndex>>,
    executors: Vec<Option<Box<dyn QueryExecutor>>>,
    planner: Option<Planner>,
}

fn build_parts(store: &RankingStore, config: &EngineConfig, remap: Arc<ItemRemap>) -> EngineParts {
    let k = store.k();
    // Resolve the candidate set and whether the planner is wanted.
    let (candidates, want_auto) = match &config.selected {
        None => (Algorithm::ALL.to_vec(), true),
        Some(sel) => {
            let auto = sel.contains(&Algorithm::Auto);
            let concrete: Vec<Algorithm> = Algorithm::ALL
                .iter()
                .copied()
                .filter(|a| sel.contains(a))
                .collect();
            let concrete = if auto && concrete.is_empty() {
                Algorithm::ALL.to_vec()
            } else {
                concrete
            };
            (concrete, auto)
        }
    };
    let want = |a: Algorithm| candidates.contains(&a);
    let plain = (want(Algorithm::Fv) || want(Algorithm::FvDrop)).then(|| {
        Arc::new(PlainInvertedIndex::build_with_remap(
            store,
            remap.clone(),
            store.live_ids(),
        ))
    });
    let augmented = want(Algorithm::ListMerge).then(|| {
        Arc::new(AugmentedInvertedIndex::build_with_remap(
            store,
            remap.clone(),
            store.live_ids(),
        ))
    });
    let blocked = (want(Algorithm::BlockedPrune) || want(Algorithm::BlockedPruneDrop)).then(|| {
        Arc::new(BlockedInvertedIndex::build_with_remap(
            store,
            remap.clone(),
            store.live_ids(),
        ))
    });
    let adapt = want(Algorithm::AdaptSearch).then(|| {
        Arc::new(AdaptSearchIndex::build_with_remap(
            store,
            remap.clone(),
            AdaptCostParams::default(),
        ))
    });
    let coarse_theta = raw_threshold(config.coarse_theta_c, k);
    let drop_theta = config
        .coarse_theta_c_drop
        .map(|t| raw_threshold(t, k))
        .unwrap_or(coarse_theta);
    // `CoarseDrop` falls back to the shared coarse index when its θ_C
    // matches; a separately tuned index is built otherwise.
    let need_shared_coarse =
        want(Algorithm::Coarse) || (want(Algorithm::CoarseDrop) && drop_theta == coarse_theta);
    let coarse = need_shared_coarse.then(|| {
        Arc::new(CoarseIndex::build_with_remap(
            store,
            remap.clone(),
            coarse_theta,
        ))
    });
    let coarse_drop = (want(Algorithm::CoarseDrop) && drop_theta != coarse_theta).then(|| {
        Arc::new(CoarseIndex::build_with_remap(
            store,
            remap.clone(),
            drop_theta,
        ))
    });
    let executors =
        build_executor_table(&plain, &augmented, &blocked, &adapt, &coarse, &coarse_drop);

    let planner = want_auto.then(|| {
        let costs = config
            .calibrated
            .unwrap_or_else(|| CalibratedCosts::measured_cached(k));
        Planner::build(
            store,
            remap.clone(),
            candidates.clone(),
            costs,
            coarse_theta,
            drop_theta,
        )
    });

    EngineParts {
        plain,
        augmented,
        blocked,
        adapt,
        coarse,
        coarse_drop,
        executors,
        planner,
    }
}

/// Assembles the executor table over a set of built index structures:
/// one executor per structure, indexed by [`Algorithm::dense_index`].
/// Selecting `FvDrop` also makes the plain index (hence `Fv`) available,
/// matching the pre-executor dispatch semantics exactly. Shared between
/// [`build_parts`] and [`Engine::fork`] (executors are not `Clone`, but
/// they are cheap wrappers over the `Arc`-shared indexes).
fn build_executor_table(
    plain: &Option<Arc<PlainInvertedIndex>>,
    augmented: &Option<Arc<AugmentedInvertedIndex>>,
    blocked: &Option<Arc<BlockedInvertedIndex>>,
    adapt: &Option<Arc<AdaptSearchIndex>>,
    coarse: &Option<Arc<CoarseIndex>>,
    coarse_drop: &Option<Arc<CoarseIndex>>,
) -> Vec<Option<Box<dyn QueryExecutor>>> {
    let mut executors: Vec<Option<Box<dyn QueryExecutor>>> =
        (0..Algorithm::COUNT).map(|_| None).collect();
    let slot = |a: Algorithm| a.dense_index().expect("concrete algorithm");
    if let Some(p) = plain {
        executors[slot(Algorithm::Fv)] = Some(Box::new(FvExecutor::new(p.clone())));
        executors[slot(Algorithm::FvDrop)] = Some(Box::new(FvDropExecutor::new(p.clone())));
    }
    if let Some(a) = augmented {
        executors[slot(Algorithm::ListMerge)] = Some(Box::new(ListMergeExecutor::new(a.clone())));
    }
    if let Some(b) = blocked {
        executors[slot(Algorithm::BlockedPrune)] =
            Some(Box::new(BlockedPruneExecutor::new(b.clone(), false)));
        executors[slot(Algorithm::BlockedPruneDrop)] =
            Some(Box::new(BlockedPruneExecutor::new(b.clone(), true)));
    }
    if let Some(a) = adapt {
        executors[slot(Algorithm::AdaptSearch)] =
            Some(Box::new(AdaptSearchExecutor::new(a.clone())));
    }
    if let Some(c) = coarse {
        executors[slot(Algorithm::Coarse)] = Some(Box::new(CoarseExecutor::new(c.clone(), false)));
    }
    if let Some(c) = coarse_drop.as_ref().or(coarse.as_ref()) {
        executors[slot(Algorithm::CoarseDrop)] =
            Some(Box::new(CoarseExecutor::new(c.clone(), true)));
    }
    executors
}

/// Flat persistence form of an [`EngineConfig`]: the build knobs as
/// plain scalars (`compact_tombstone_fraction` may be `f64::INFINITY`,
/// so the codec carries its raw bits; algorithms travel as dense slots
/// with `u32::MAX` standing in for `Auto`).
#[derive(Debug, Clone)]
pub(crate) struct EngineConfigParts {
    pub coarse_theta_c: f64,
    pub coarse_theta_c_drop: Option<f64>,
    /// Dense slots ([`Algorithm::dense_index`]); `u32::MAX` = `Auto`.
    pub selected: Option<Vec<u32>>,
    pub calibrated: Option<(f64, f64)>,
    pub compact_tombstone_fraction: f64,
}

/// Sentinel slot encoding [`Algorithm::Auto`] in a persisted candidate
/// list (`Auto` has no dense index).
const AUTO_SLOT: u32 = u32::MAX;

/// Everything `crate::persist` needs to write an engine snapshot and
/// rebuild the engine from one: the corpus and remap, the build config,
/// every built index structure in its flat parts form, the planner's
/// learned state, and the mutation overlay. Executors and the generation
/// stamp are deliberately absent — both are derived at assembly time.
#[derive(Debug, Clone)]
pub(crate) struct EnginePersistParts {
    pub store: StoreParts,
    pub remap: RemapParts,
    pub config: EngineConfigParts,
    pub plain: Option<PlainIndexParts>,
    pub augmented: Option<AugmentedIndexParts>,
    pub blocked: Option<BlockedIndexParts>,
    pub adapt: Option<AdaptIndexParts>,
    pub coarse: Option<CoarseIndexParts>,
    pub coarse_drop: Option<CoarseIndexParts>,
    pub planner: Option<PlannerSaved>,
    pub delta: Vec<u32>,
    pub delta_pos: Vec<u32>,
    pub base_dead: u64,
    pub base_live_at_build: u64,
}

/// The all-algorithms query engine.
pub struct Engine {
    store: RankingStore,
    remap: Arc<ItemRemap>,
    plain: Option<Arc<PlainInvertedIndex>>,
    augmented: Option<Arc<AugmentedInvertedIndex>>,
    blocked: Option<Arc<BlockedInvertedIndex>>,
    adapt: Option<Arc<AdaptSearchIndex>>,
    coarse: Option<Arc<CoarseIndex>>,
    /// Separately tuned coarse index for `CoarseDrop`, if configured.
    coarse_drop: Option<Arc<CoarseIndex>>,
    /// One executor per built index structure, indexed by
    /// [`Algorithm::dense_index`].
    executors: Vec<Option<Box<dyn QueryExecutor>>>,
    /// The cost-model planner behind [`Algorithm::Auto`] (present on
    /// default builds and whenever `Auto` was selected).
    planner: Option<Planner>,
    /// Build configuration, retained so [`Engine::compact`] rebuilds the
    /// same structures.
    config: EngineConfig,
    /// Corpus generation: a process-unique stamp drawn afresh on every
    /// build, mutation and compaction; queries push it into the scratch
    /// (see [`QueryScratch::ensure_generation`]).
    generation: u64,
    /// The delta overlay: live ranking ids inserted since the last
    /// (re)build, not yet part of any base index structure. Every
    /// threshold query validates them linearly and exactly against the
    /// store; compaction folds them into fresh arenas.
    delta: Vec<RankingId>,
    /// `delta_pos[id] = position in delta + 1` (0 = not in the delta),
    /// sized by the store's id space — O(1) delta removal.
    delta_pos: Vec<u32>,
    /// Rankings of the *base* (indexed at the last build) tombstoned
    /// since — the lazy-tombstone count the compaction trigger watches.
    base_dead: usize,
    /// Live corpus size at the last (re)build.
    base_live_at_build: usize,
}

fn require<T>(index: &Option<Arc<T>>, algorithm: Algorithm) -> &T {
    index.as_deref().unwrap_or_else(|| {
        panic!(
            "index for {algorithm} was not built; include it in EngineBuilder::algorithms \
             or build the engine with the default build-everything configuration"
        )
    })
}

impl Engine {
    /// The corpus.
    pub fn store(&self) -> &RankingStore {
        &self.store
    }

    /// The corpus-wide item remap shared by all index structures.
    pub fn remap(&self) -> &Arc<ItemRemap> {
        &self.remap
    }

    /// The coarse index (for `Coarse`). Panics if it was not built.
    pub fn coarse_index(&self) -> &CoarseIndex {
        require(&self.coarse, Algorithm::Coarse)
    }

    /// The cost-model planner behind [`Algorithm::Auto`], if built.
    pub fn planner(&self) -> Option<&Planner> {
        self.planner.as_ref()
    }

    /// The executor registered for a concrete algorithm. Panics with the
    /// same diagnostic the old enum dispatch produced when the backing
    /// index was not built.
    fn executor(&self, algorithm: Algorithm) -> &dyn QueryExecutor {
        let slot = algorithm
            .dense_index()
            .expect("Auto is resolved by the planner before dispatch");
        self.executors[slot].as_deref().unwrap_or_else(|| {
            panic!(
                "index for {algorithm} was not built; include it in EngineBuilder::algorithms \
                 or build the engine with the default build-everything configuration"
            )
        })
    }

    /// A fresh scratch for this engine's queries; reuse it across queries
    /// to keep the hot path allocation-free.
    pub fn scratch(&self) -> QueryScratch {
        QueryScratch::new()
    }

    /// An independent copy of this engine for snapshot publication: the
    /// store, overlay and planner state are cloned by value, the
    /// immutable index structures are shared by `Arc`, and the executor
    /// table is rebuilt over those shared structures. The fork draws a
    /// fresh generation stamp, so a [`QueryScratch`] moving between the
    /// original and the fork always re-arms its epoch structures.
    pub(crate) fn fork(&self) -> Engine {
        Engine {
            store: self.store.clone(),
            remap: self.remap.clone(),
            plain: self.plain.clone(),
            augmented: self.augmented.clone(),
            blocked: self.blocked.clone(),
            adapt: self.adapt.clone(),
            coarse: self.coarse.clone(),
            coarse_drop: self.coarse_drop.clone(),
            executors: build_executor_table(
                &self.plain,
                &self.augmented,
                &self.blocked,
                &self.adapt,
                &self.coarse,
                &self.coarse_drop,
            ),
            planner: self.planner.as_ref().map(Planner::fork),
            config: self.config.clone(),
            generation: next_generation(),
            delta: self.delta.clone(),
            delta_pos: self.delta_pos.clone(),
            base_dead: self.base_dead,
            base_live_at_build: self.base_live_at_build,
        }
    }

    /// Decomposes the engine into its flat persistence form (see
    /// [`EnginePersistParts`]); the inverse of
    /// [`Engine::from_persist_parts`].
    pub(crate) fn export_persist_parts(&self) -> EnginePersistParts {
        let encode_alg = |a: &Algorithm| a.dense_index().map_or(AUTO_SLOT, |s| s as u32);
        EnginePersistParts {
            store: self.store.export_parts(),
            remap: self.remap.export_parts(),
            config: EngineConfigParts {
                coarse_theta_c: self.config.coarse_theta_c,
                coarse_theta_c_drop: self.config.coarse_theta_c_drop,
                selected: self
                    .config
                    .selected
                    .as_ref()
                    .map(|sel| sel.iter().map(encode_alg).collect()),
                calibrated: self
                    .config
                    .calibrated
                    .map(|c| (c.footrule_ns, c.merge_posting_ns)),
                compact_tombstone_fraction: self.config.compact_tombstone_fraction,
            },
            plain: self.plain.as_ref().map(|i| i.export_parts()),
            augmented: self.augmented.as_ref().map(|i| i.export_parts()),
            blocked: self.blocked.as_ref().map(|i| i.export_parts()),
            adapt: self.adapt.as_ref().map(|i| i.export_parts()),
            coarse: self.coarse.as_ref().map(|i| i.export_parts()),
            coarse_drop: self.coarse_drop.as_ref().map(|i| i.export_parts()),
            planner: self.planner.as_ref().map(|p| p.to_saved()),
            delta: self.delta.iter().map(|id| id.0).collect(),
            delta_pos: self.delta_pos.clone(),
            base_dead: self.base_dead as u64,
            base_live_at_build: self.base_live_at_build as u64,
        }
    }

    /// Reassembles an engine from its flat persistence form: rebuilds
    /// every structure through its validating `from_parts`, re-links the
    /// shared remap, restores the planner warm, rebuilds the executor
    /// table over the reloaded structures and draws a **fresh**
    /// generation stamp (scratches from before the restart must re-arm).
    /// Errors name the inconsistency; they never panic on hostile input.
    pub(crate) fn from_persist_parts(parts: EnginePersistParts) -> Result<Engine, String> {
        let store = RankingStore::from_parts(parts.store)?;
        let remap = Arc::new(ItemRemap::from_parts(parts.remap)?);
        let k = store.k() as u32;
        let check_k = |parts_k: u32, what: &str| -> Result<(), String> {
            if parts_k != k {
                return Err(format!("{what} k {parts_k} disagrees with the store k {k}"));
            }
            Ok(())
        };
        if let Some(p) = &parts.plain {
            check_k(p.k, "plain index")?;
        }
        if let Some(a) = &parts.augmented {
            check_k(a.k, "augmented index")?;
        }
        if let Some(b) = &parts.blocked {
            check_k(b.k, "blocked index")?;
        }
        if let Some(a) = &parts.adapt {
            check_k(a.k, "adaptsearch index")?;
        }
        let plain = parts
            .plain
            .map(|p| PlainInvertedIndex::from_parts(p, remap.clone()))
            .transpose()?
            .map(Arc::new);
        let augmented = parts
            .augmented
            .map(|p| AugmentedInvertedIndex::from_parts(p, remap.clone()))
            .transpose()?
            .map(Arc::new);
        let blocked = parts
            .blocked
            .map(|p| BlockedInvertedIndex::from_parts(p, remap.clone()))
            .transpose()?
            .map(Arc::new);
        let adapt = parts
            .adapt
            .map(|p| AdaptSearchIndex::from_parts(p, remap.clone()))
            .transpose()?
            .map(Arc::new);
        let coarse = parts
            .coarse
            .map(|p| CoarseIndex::from_parts(p, remap.clone(), store.len()))
            .transpose()?
            .map(Arc::new);
        let coarse_drop = parts
            .coarse_drop
            .map(|p| CoarseIndex::from_parts(p, remap.clone(), store.len()))
            .transpose()?
            .map(Arc::new);
        if let Some(s) = &parts.planner {
            check_k(s.k, "planner")?;
        }
        let planner = parts
            .planner
            .map(|s| Planner::from_saved(s, remap.clone()))
            .transpose()?;
        let decode_alg = |slot: u32| -> Result<Algorithm, String> {
            if slot == AUTO_SLOT {
                return Ok(Algorithm::Auto);
            }
            Algorithm::from_dense_index(slot as usize)
                .ok_or_else(|| format!("config algorithm slot {slot} names no algorithm"))
        };
        let selected = parts
            .config
            .selected
            .map(|sel| sel.iter().map(|&s| decode_alg(s)).collect::<Result<_, _>>())
            .transpose()?;
        let config = EngineConfig {
            coarse_theta_c: parts.config.coarse_theta_c,
            coarse_theta_c_drop: parts.config.coarse_theta_c_drop,
            selected,
            calibrated: parts.config.calibrated.map(|(f, m)| CalibratedCosts {
                footrule_ns: f,
                merge_posting_ns: m,
            }),
            compact_tombstone_fraction: parts.config.compact_tombstone_fraction,
        };
        // The mutation overlay must describe this store exactly: the
        // position table spans the id space, every delta entry is a live
        // ranking, and table and list point at each other consistently.
        if parts.delta_pos.len() != store.len() {
            return Err(format!(
                "delta position table length {} != store id space {}",
                parts.delta_pos.len(),
                store.len()
            ));
        }
        let delta: Vec<RankingId> = parts.delta.iter().map(|&id| RankingId(id)).collect();
        for (pos, &id) in delta.iter().enumerate() {
            if id.index() >= store.len() {
                return Err(format!("delta entry {id:?} is outside the store id space"));
            }
            if !store.is_live(id) {
                return Err(format!("delta entry {id:?} is not live in the store"));
            }
            if parts.delta_pos[id.index()] != (pos + 1) as u32 {
                return Err(format!(
                    "delta position table disagrees with delta entry {pos}"
                ));
            }
        }
        let listed = parts.delta_pos.iter().filter(|&&p| p > 0).count();
        if listed != delta.len() {
            return Err(format!(
                "delta position table lists {listed} rankings but the delta holds {}",
                delta.len()
            ));
        }
        let executors =
            build_executor_table(&plain, &augmented, &blocked, &adapt, &coarse, &coarse_drop);
        Ok(Engine {
            store,
            remap,
            plain,
            augmented,
            blocked,
            adapt,
            coarse,
            coarse_drop,
            executors,
            planner,
            config,
            generation: next_generation(),
            delta,
            delta_pos: parts.delta_pos,
            base_dead: parts.base_dead as usize,
            base_live_at_build: parts.base_live_at_build as usize,
        })
    }

    // --- live-corpus mutation API -----------------------------------

    /// Number of live rankings (the corpus queries run against).
    pub fn live_len(&self) -> usize {
        self.store.live_len()
    }

    /// Whether ranking `id` is live.
    pub fn is_live(&self, id: RankingId) -> bool {
        self.store.is_live(id)
    }

    /// Rankings in the delta overlay (inserted since the last build or
    /// compaction, served by exact linear validation).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Base rankings tombstoned since the last build or compaction.
    pub fn base_tombstones(&self) -> usize {
        self.base_dead
    }

    /// The corpus generation stamp (changes on every mutation and
    /// compaction; see [`QueryScratch::ensure_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Pre-reserves every mutation-side arena (store rows, delta overlay,
    /// id tables) for `n` further insertions, pinning the allocation
    /// points of [`Engine::insert_ranking`] / [`Engine::remove_ranking`]
    /// to arena growth only: after this call, the next `n` mutations
    /// perform zero heap allocations on an engine without a planner (the
    /// planner's statistic refresh has its own growth points).
    pub fn reserve_mutations(&mut self, n: usize) {
        self.store.reserve_rankings(n);
        self.delta.reserve(n);
        self.delta_pos.reserve(n);
    }

    /// Inserts a ranking into the live corpus, returning its (fresh,
    /// monotonically increasing) id. The ranking lands in the delta
    /// overlay — every algorithm sees it immediately via exact linear
    /// validation — and is folded into the CSR arenas by the next
    /// [`Engine::compact`]. Items must be `k` pairwise-distinct ids.
    pub fn insert_ranking(&mut self, items: &[ItemId]) -> RankingId {
        Self::validate_items(items, self.store.k());
        let id = self.store.push_items_unchecked(items);
        self.register_insert(id);
        id
    }

    /// Re-inserts a ranking **at a released id** (one removed before the
    /// last compaction, see [`RankingStore::release_removed_slots`]) —
    /// the id-stable re-insertion path. Panics when `id` is not a
    /// released slot: live or still-quarantined content is frozen for
    /// the index structures and must never be overwritten.
    pub fn insert_ranking_at(&mut self, id: RankingId, items: &[ItemId]) {
        Self::validate_items(items, self.store.k());
        self.store.insert_items_at_unchecked(id, items);
        self.register_insert(id);
    }

    /// Tombstones ranking `id`: it disappears from every query result
    /// immediately (emission-time filtering; postings stay until
    /// compaction) and its slot is quarantined for reuse after the
    /// next compaction. Triggers an automatic [`Engine::compact`] once
    /// base tombstones exceed the configured fraction. Returns `false`
    /// when `id` was not live.
    pub fn remove_ranking(&mut self, id: RankingId) -> bool {
        if !self.store.remove(id) {
            return false;
        }
        if let Some(planner) = &mut self.planner {
            planner.note_remove(self.store.items(id));
        }
        let dp = self.delta_pos[id.index()];
        if dp > 0 {
            // Delta entries leave the overlay outright — nothing else
            // references them.
            let pos = (dp - 1) as usize;
            self.delta.swap_remove(pos);
            self.delta_pos[id.index()] = 0;
            if pos < self.delta.len() {
                self.delta_pos[self.delta[pos].index()] = (pos + 1) as u32;
            }
        } else {
            self.base_dead += 1;
        }
        self.after_mutation();
        let threshold = self.config.compact_tombstone_fraction;
        if threshold.is_finite()
            && self.base_dead as f64 > threshold * self.base_live_at_build.max(1) as f64
        {
            self.compact();
        }
        true
    }

    /// Rebuilds every index arena in place over the live corpus: releases
    /// quarantined slots, reclaims trailing storage, grows the shared
    /// [`ItemRemap`] with the delta overlay's items (surviving items keep
    /// their dense ids), reconstructs the selected index structures, the
    /// executor table and the planner with the retained build
    /// configuration, and clears the overlay/tombstone state. Ranking ids
    /// are stable across compaction; released ids become available to
    /// [`Engine::insert_ranking_at`].
    /// (The id space is deliberately **not** truncated: a fresh insert
    /// must never silently collide with a previously assigned id, so
    /// `insert_ranking` stays monotone and only `insert_ranking_at`
    /// can repopulate released slots.)
    pub fn compact(&mut self) {
        self.store.release_removed_slots();
        let remap = Arc::new(
            self.remap.grown(
                self.delta
                    .iter()
                    .flat_map(|&id| self.store.items(id).iter().copied()),
            ),
        );
        let parts = build_parts(&self.store, &self.config, remap.clone());
        self.remap = remap;
        self.plain = parts.plain;
        self.augmented = parts.augmented;
        self.blocked = parts.blocked;
        self.adapt = parts.adapt;
        self.coarse = parts.coarse;
        self.coarse_drop = parts.coarse_drop;
        self.executors = parts.executors;
        self.planner = parts.planner;
        self.delta.clear();
        self.delta_pos.clear();
        self.delta_pos.resize(self.store.len(), 0);
        self.base_dead = 0;
        self.base_live_at_build = self.store.live_len();
        self.generation = next_generation();
    }

    fn validate_items(items: &[ItemId], k: usize) {
        // Shared with the serving front-end's non-panicking validation;
        // the engine keeps its historical assert semantics (and messages)
        // for direct API misuse.
        match validate_items(items, k) {
            Ok(()) => {}
            Err(RankingError::WrongLength { .. }) => {
                panic!("ranking size must match the corpus k")
            }
            Err(RankingError::DuplicateItem(a)) => {
                panic!("duplicate item {a} in inserted ranking")
            }
            Err(e) => panic!("{e}"),
        }
    }

    fn register_insert(&mut self, id: RankingId) {
        if self.delta_pos.len() < self.store.len() {
            self.delta_pos.resize(self.store.len(), 0);
        }
        self.delta.push(id);
        self.delta_pos[id.index()] = self.delta.len() as u32;
        if let Some(planner) = &mut self.planner {
            planner.note_insert(self.store.items(id));
        }
        self.after_mutation();
    }

    fn after_mutation(&mut self) {
        self.generation = next_generation();
        if let Some(planner) = &mut self.planner {
            if planner.pending_mutations() >= PLANNER_REFRESH_BUDGET {
                planner.refresh_corpus_stats(&self.store);
            }
        }
    }

    /// Applies the live-corpus overlay to an executor's output: drops
    /// tombstoned base rankings (their postings are filtered lazily at
    /// emission) and validates every delta ranking exactly against the
    /// query. No-ops — and costs nothing — on a pristine engine.
    fn apply_mutation_overlay(
        &self,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        if self.base_dead > 0 {
            let before = out.len();
            out.retain(|&id| self.store.is_live(id));
            stats.results = stats.results.saturating_sub((before - out.len()) as u64);
        }
        if !self.delta.is_empty() {
            query_pairs_into(query, &mut scratch.qp);
            let k = self.store.k();
            let start = out.len();
            for &id in &self.delta {
                stats.count_distance();
                if footrule_pairs(&scratch.qp, self.store.sorted_pairs(id), k) <= theta_raw {
                    out.push(id);
                }
            }
            stats.results += (out.len() - start) as u64;
        }
    }

    /// Runs `algorithm` for a query ranking at normalized threshold
    /// `theta ∈ [0, 1]` (convenience wrapper allocating its own scratch).
    pub fn query(
        &self,
        algorithm: Algorithm,
        query: &Ranking,
        theta: f64,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut scratch = self.scratch();
        self.query_items(
            algorithm,
            query.items(),
            raw_threshold(theta, self.store.k()),
            &mut scratch,
            stats,
        )
    }

    /// Runs `algorithm` for raw query items at a raw threshold, reusing
    /// the caller's scratch.
    pub fn query_items(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut out = Vec::new();
        self.query_into(algorithm, query, theta_raw, scratch, stats, &mut out);
        out
    }

    /// Runs `algorithm` into a caller-owned result buffer (cleared
    /// first). With a warmed-up scratch and buffer, steady-state calls
    /// perform zero heap allocations — [`Algorithm::Auto`] included.
    pub fn query_into(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let _ = self.query_into_traced(algorithm, query, theta_raw, scratch, stats, out);
    }

    /// [`Engine::query_into`] returning the [`QueryTrace`]: which
    /// executor ran (the planner's pick under [`Algorithm::Auto`]), its
    /// instrumented [`ExecStats`], and the predicted/measured costs. The
    /// batch drivers accumulate these into per-worker reports.
    ///
    /// Every tier's threshold query reaches this entry, so it owns the
    /// widest radius: at `θ_raw ≥ max_distance(k)` (θ = 1) it returns
    /// every live id in ascending order without planning or executing.
    pub fn query_into_traced(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> QueryTrace {
        assert_eq!(
            query.len(),
            self.store.k(),
            "query size must match the corpus ranking size"
        );
        out.clear();
        if theta_raw >= max_distance(self.store.k()) {
            // Every live ranking qualifies, also those sharing no item
            // with the query: they sit at exactly `max_distance(k)` and
            // in none of its posting lists, so no executor is asked.
            out.extend(self.store.live_ids());
            stats.results += out.len() as u64;
            return QueryTrace {
                algorithm,
                planned: false,
                exec: ExecStats::default(),
                predicted_ns: 0.0,
                actual_ns: 0.0,
            };
        }
        scratch.ensure_generation(self.generation);
        let trace = if algorithm == Algorithm::Auto {
            let planner = self.planner.as_ref().unwrap_or_else(|| {
                panic!(
                    "planner for Auto was not built; include Algorithm::Auto in \
                     EngineBuilder::algorithms or build the engine with the default \
                     build-everything configuration"
                )
            });
            let decision = planner.plan(query, theta_raw, scratch);
            let start = Instant::now();
            let exec = self.executor(decision.algorithm).execute(
                &self.store,
                query,
                theta_raw,
                scratch,
                stats,
                out,
            );
            let actual_ns = start.elapsed().as_nanos() as f64;
            planner.record_exec(&decision, actual_ns, &exec);
            QueryTrace {
                algorithm: decision.algorithm,
                planned: true,
                exec,
                predicted_ns: decision.predicted_ns,
                actual_ns,
            }
        } else {
            let exec = self.executor(algorithm).execute(
                &self.store,
                query,
                theta_raw,
                scratch,
                stats,
                out,
            );
            QueryTrace {
                algorithm,
                planned: false,
                exec,
                predicted_ns: 0.0,
                actual_ns: 0.0,
            }
        };
        self.apply_mutation_overlay(query, theta_raw, scratch, stats, out);
        trace
    }

    /// Cost-model-selected query ([`Algorithm::Auto`] shorthand): runs
    /// the predicted-cheapest candidate executor and returns which
    /// concrete algorithm the planner picked.
    pub fn query_auto(
        &self,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) -> Algorithm {
        self.query_into_traced(Algorithm::Auto, query, theta_raw, scratch, stats, out)
            .algorithm
    }

    /// The `neighbours` corpus rankings nearest to `query`, as ascending
    /// `(distance, id)` pairs. Exact and fully deterministic: the result
    /// is the lexicographically smallest set of `(distance, id)` pairs,
    /// so ties at the last distance resolve to the smallest ids.
    /// `neighbours` is bounded by the live corpus size.
    ///
    /// k-NN by range queries of growing radius: the workspace's one
    /// radius loop (`knn_by_radius`) over this engine's exact threshold
    /// rounds, tombstones and delta overlay included.
    pub fn query_topk(
        &self,
        query: &[ItemId],
        neighbours: usize,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
    ) -> Vec<(u32, RankingId)> {
        assert_eq!(
            query.len(),
            self.store.k(),
            "query size must match the corpus ranking size"
        );
        let neighbours = neighbours.min(self.store.live_len());
        if neighbours == 0 {
            return Vec::new();
        }
        let results_before = stats.results;
        let mut ids = Vec::new();
        let Ok(nearest) = knn_by_radius(self.store.k(), neighbours, |theta_raw, pairs| {
            self.query_distances_into(
                Algorithm::Auto,
                query,
                theta_raw,
                scratch,
                stats,
                &mut ids,
                pairs,
            );
            Ok::<(), std::convert::Infallible>(())
        });
        // The rounds' own result counts are not this query's results.
        stats.results = results_before + nearest.len() as u64;
        nearest
    }

    /// [`Engine::query_into`] (into `ids`) that also appends each
    /// result's exact `(distance, id)` to `out`: one top-k round, and a
    /// shard worker's threshold reply. `Auto` on an engine built without
    /// a planner runs the last built of [`Algorithm::ALL`] instead (they
    /// run from the baselines to the paper's best techniques); with no
    /// index built at all, only the widest round answers, and it needs
    /// none.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn query_distances_into(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
        stats: &mut QueryStats,
        ids: &mut Vec<RankingId>,
        out: &mut Vec<(u32, RankingId)>,
    ) {
        let k = self.store.k();
        let executor = if algorithm != Algorithm::Auto || self.planner.is_some() {
            Some(algorithm)
        } else {
            Algorithm::ALL.into_iter().rev().find(|a| {
                let slot = a.dense_index().expect("concrete algorithm");
                self.executors[slot].is_some()
            })
        };
        let widest = theta_raw >= max_distance(k);
        let Some(algorithm) = executor.or(widest.then_some(algorithm)) else {
            return;
        };
        self.query_into(algorithm, query, theta_raw, scratch, stats, ids);
        query_pairs_into(query, &mut scratch.qp);
        for &id in ids.iter() {
            stats.count_distance();
            out.push((
                footrule_pairs(&scratch.qp, self.store.sorted_pairs(id), k),
                id,
            ));
        }
    }

    /// Heap footprint of the engine: the corpus store plus every built
    /// index structure (and the planner's tables). Per-structure
    /// footprints are exact and each includes the (shared) remap it
    /// holds, matching Table 6's build-each-structure-alone accounting.
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
            + self.plain.as_ref().map_or(0, |i| i.heap_bytes())
            + self.augmented.as_ref().map_or(0, |i| i.heap_bytes())
            + self.blocked.as_ref().map_or(0, |i| i.heap_bytes())
            + self.adapt.as_ref().map_or(0, |i| i.heap_bytes())
            + self.coarse.as_ref().map_or(0, |i| i.heap_bytes())
            + self.coarse_drop.as_ref().map_or(0, |i| i.heap_bytes())
            + self.planner.as_ref().map_or(0, |p| p.heap_bytes())
            + self.delta.capacity() * std::mem::size_of::<RankingId>()
            + self.delta_pos.capacity() * std::mem::size_of::<u32>()
    }
}

/// k-NN by range queries of growing radius (Chen et al.) — the only
/// radius loop in the workspace, shared by [`Engine::query_topk`], the
/// sharded engine and the remote router. `round(θ_raw, pairs)` appends
/// the `(distance, id)` pair of **every** live ranking within `θ_raw`:
/// an exact threshold query, fanned out to whatever tiers lie below.
///
/// Rounds run at `θ_raw = k, 2k, 4k, …` up to `max_distance(k) − 1`,
/// the widest radius that still holds only rankings sharing an item
/// with the query, and then at `max_distance(k)`, which holds every
/// live ranking. The loop stops at the first round holding at least
/// `neighbours` pairs. Everything a round did not return is farther
/// than everything it did, so the `neighbours` lexicographically
/// smallest pairs of that round — picked by [`KnnHeap`], smaller ids
/// winning ties — are the answer. The last round returns every live
/// ranking, so the loop always ends; `neighbours` must be at least 1
/// and at most the live count for the answer to be full.
pub(crate) fn knn_by_radius<E>(
    k: usize,
    neighbours: usize,
    mut round: impl FnMut(u32, &mut Vec<(u32, RankingId)>) -> Result<(), E>,
) -> Result<Vec<(u32, RankingId)>, E> {
    let widest = max_distance(k);
    let mut theta_raw = (k as u32).min(widest - 1);
    let mut pairs = Vec::new();
    loop {
        pairs.clear();
        round(theta_raw, &mut pairs)?;
        if pairs.len() >= neighbours || theta_raw == widest {
            break;
        }
        theta_raw = if theta_raw == widest - 1 {
            widest
        } else {
            (theta_raw * 2).min(widest - 1)
        };
    }
    let mut heap = KnnHeap::new(neighbours);
    for &(d, id) in &pairs {
        heap.offer(d, id);
    }
    Ok(heap.into_sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_datasets::{nyt_like, workload, WorkloadParams};
    use ranksim_metricspace::knn_linear;
    use ranksim_rankings::PositionMap;

    #[test]
    fn all_algorithms_agree_on_all_thresholds() {
        let ds = nyt_like(1000, 10, 33);
        let domain = ds.params.domain;
        let engine = EngineBuilder::new(ds.store)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .build();
        let wl = workload(
            engine.store(),
            domain,
            WorkloadParams {
                num_queries: 10,
                seed: 5,
                ..Default::default()
            },
        );
        let mut scratch = engine.scratch();
        for q in &wl.queries {
            for theta in [0.0, 0.1, 0.2, 0.3] {
                let raw = raw_threshold(theta, 10);
                let qmap = PositionMap::new(q);
                let mut expect: Vec<RankingId> = engine
                    .store()
                    .ids()
                    .filter(|&id| qmap.distance_to(engine.store().items(id)) <= raw)
                    .collect();
                expect.sort_unstable();
                for alg in Algorithm::ALL {
                    let mut stats = QueryStats::new();
                    let mut got = engine.query_items(alg, q, raw, &mut scratch, &mut stats);
                    got.sort_unstable();
                    assert_eq!(got, expect, "{alg} disagrees at θ={theta}");
                }
                // Auto routes through one of the above and must agree too.
                let mut stats = QueryStats::new();
                let mut got = engine.query_items(Algorithm::Auto, q, raw, &mut scratch, &mut stats);
                got.sort_unstable();
                assert_eq!(got, expect, "Auto disagrees at θ={theta}");
            }
        }
    }

    #[test]
    fn restricted_engine_builds_only_what_it_needs() {
        let ds = nyt_like(400, 10, 7);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .build();
        assert!(engine.plain.is_some());
        assert!(engine.augmented.is_some());
        assert!(engine.blocked.is_none());
        assert!(engine.adapt.is_none());
        assert!(engine.coarse.is_none());
        assert!(
            engine.planner.is_none(),
            "no planner without Auto in a restricted build"
        );
        // The selected algorithms agree with each other.
        let q: Vec<ItemId> = engine.store().items(RankingId(3)).to_vec();
        let raw = raw_threshold(0.2, 10);
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let mut a = engine.query_items(Algorithm::Fv, &q, raw, &mut scratch, &mut stats);
        let mut b = engine.query_items(Algorithm::ListMerge, &q, raw, &mut scratch, &mut stats);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(a.contains(&RankingId(3)));
    }

    #[test]
    fn auto_in_restricted_build_scopes_the_candidate_set() {
        let ds = nyt_like(400, 10, 19);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Auto, Algorithm::Fv, Algorithm::Coarse])
            .calibrated_costs(CalibratedCosts::nominal(10))
            .build();
        let planner = engine.planner().expect("Auto builds the planner");
        assert_eq!(planner.candidates(), &[Algorithm::Fv, Algorithm::Coarse]);
        assert!(engine.plain.is_some());
        assert!(engine.coarse.is_some());
        assert!(engine.augmented.is_none());
        assert!(engine.blocked.is_none());
        let q: Vec<ItemId> = engine.store().items(RankingId(1)).to_vec();
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let mut out = Vec::new();
        let chosen = engine.query_auto(
            &q,
            raw_threshold(0.1, 10),
            &mut scratch,
            &mut stats,
            &mut out,
        );
        assert!(matches!(chosen, Algorithm::Fv | Algorithm::Coarse));
        assert!(out.contains(&RankingId(1)));
    }

    #[test]
    fn auto_alone_arms_all_eight_candidates() {
        let ds = nyt_like(300, 10, 23);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Auto])
            .calibrated_costs(CalibratedCosts::nominal(10))
            .build();
        assert_eq!(engine.planner().unwrap().candidates(), &Algorithm::ALL);
        for alg in Algorithm::ALL {
            // Every executor must be registered.
            let _ = engine.executor(alg);
        }
    }

    #[test]
    fn restricted_coarse_drop_shares_index_on_equal_theta_c() {
        let ds = nyt_like(300, 10, 8);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::CoarseDrop])
            .build();
        assert!(engine.coarse.is_some(), "shared index backs CoarseDrop");
        assert!(engine.coarse_drop.is_none());
        let q: Vec<ItemId> = engine.store().items(RankingId(0)).to_vec();
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let got = engine.query_items(Algorithm::CoarseDrop, &q, 0, &mut scratch, &mut stats);
        assert!(got.contains(&RankingId(0)));
    }

    #[test]
    #[should_panic(expected = "index for Blocked+Prune was not built")]
    fn missing_index_panics_with_algorithm_name() {
        let ds = nyt_like(100, 10, 1);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let q: Vec<ItemId> = engine.store().items(RankingId(0)).to_vec();
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let _ = engine.query_items(Algorithm::BlockedPrune, &q, 10, &mut scratch, &mut stats);
    }

    #[test]
    #[should_panic(expected = "planner for Auto was not built")]
    fn auto_without_planner_panics_with_guidance() {
        let ds = nyt_like(100, 10, 2);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let q: Vec<ItemId> = engine.store().items(RankingId(0)).to_vec();
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let _ = engine.query_items(Algorithm::Auto, &q, 10, &mut scratch, &mut stats);
    }

    #[test]
    fn topk_rounds_and_linear_scan_agree_exactly() {
        let ds = nyt_like(800, 10, 19);
        let domain = ds.params.domain;
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let wl = workload(
            engine.store(),
            domain,
            WorkloadParams {
                num_queries: 8,
                seed: 4,
                ..Default::default()
            },
        );
        let mut scratch = engine.scratch();
        for q in &wl.queries {
            let qp = ranksim_metricspace::query_pairs(q);
            for kn in [1usize, 5, 25, 2000] {
                let mut st = QueryStats::new();
                let a = engine.query_topk(q, kn, &mut scratch, &mut st);
                let b = knn_linear(engine.store(), &qp, kn, &mut QueryStats::new());
                assert_eq!(a, b, "kn={kn}");
                assert_eq!(a.len(), kn.min(800));
                assert!(
                    a.windows(2).all(|w| w[0] < w[1]),
                    "strictly ascending pairs"
                );
                assert_eq!(st.results, a.len() as u64, "rounds leaked result counts");
                assert_eq!(st.tree_nodes_visited, 0);
            }
        }
        // k = 0 and the trivial self-query edge.
        let mut st = QueryStats::new();
        assert!(engine
            .query_topk(&wl.queries[0], 0, &mut scratch, &mut st)
            .is_empty());
    }

    #[test]
    fn mutations_track_the_live_corpus_across_every_algorithm() {
        let ds = nyt_like(600, 10, 47);
        let mut engine = EngineBuilder::new(ds.store.clone())
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .calibrated_costs(CalibratedCosts::nominal(10))
            .compaction_threshold(f64::INFINITY)
            .build();
        // Mutate: remove a spread of base rankings, insert perturbed and
        // brand-new ones (new items included).
        for id in (0..600u32).step_by(7) {
            assert!(engine.remove_ranking(RankingId(id)));
        }
        for i in 0..80u32 {
            if i % 2 == 0 {
                let donor = RankingId(i * 3 + 1);
                let mut items: Vec<ItemId> = engine.store().items(donor).to_vec();
                items.swap(2, 7);
                engine.insert_ranking(&items);
            } else {
                let base = 900_000 + i * 12;
                let items: Vec<ItemId> = (0..10).map(|j| ItemId(base + j)).collect();
                engine.insert_ranking(&items);
            }
        }
        assert_eq!(engine.delta_len(), 80);
        assert!(engine.base_tombstones() > 0);
        let check = |engine: &Engine| {
            let mut scratch = engine.scratch();
            for qid in [1u32, 300, 601, 660] {
                let q: Vec<ItemId> = engine.store().items(RankingId(qid)).to_vec();
                let qmap = PositionMap::new(&q);
                for theta in [0.0, 0.15, 0.3] {
                    let raw = raw_threshold(theta, 10);
                    let mut expect: Vec<RankingId> = engine
                        .store()
                        .live_ids()
                        .filter(|&id| qmap.distance_to(engine.store().items(id)) <= raw)
                        .collect();
                    expect.sort_unstable();
                    for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                        let mut stats = QueryStats::new();
                        let mut got = engine.query_items(alg, &q, raw, &mut scratch, &mut stats);
                        got.sort_unstable();
                        assert_eq!(got, expect, "{alg} diverged at θ={theta} qid={qid}");
                    }
                }
            }
        };
        check(&engine);
        // Compaction folds the overlay in and keeps every answer.
        let live_before = engine.live_len();
        engine.compact();
        assert_eq!(engine.delta_len(), 0);
        assert_eq!(engine.base_tombstones(), 0);
        assert_eq!(engine.live_len(), live_before);
        check(&engine);
        // Released ids accept id-stable re-insertions.
        let freed = engine.store().first_free_slot().expect("released slots");
        engine.insert_ranking_at(freed, &ds.store.items(freed).to_vec());
        assert!(engine.is_live(freed));
        check(&engine);
    }

    #[test]
    fn removal_past_threshold_triggers_auto_compaction() {
        let ds = nyt_like(300, 10, 11);
        let mut engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .compaction_threshold(0.25)
            .build();
        let mut compacted = false;
        for id in 0..120u32 {
            engine.remove_ranking(RankingId(id));
            if engine.base_tombstones() == 0 {
                compacted = true;
                break;
            }
        }
        assert!(compacted, "auto-compaction never fired below 40% dead");
        assert!(engine.store().free_len() > 0, "slots were released");
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let q: Vec<ItemId> = engine.store().items(RankingId(200)).to_vec();
        let got = engine.query_items(Algorithm::Fv, &q, 0, &mut scratch, &mut stats);
        assert!(got.contains(&RankingId(200)));
    }

    #[test]
    #[should_panic(expected = "duplicate item")]
    fn insert_rejects_duplicate_items() {
        let ds = nyt_like(50, 10, 3);
        let mut engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let items: Vec<ItemId> = (0..9).map(ItemId).chain([ItemId(0)]).collect();
        engine.insert_ranking(&items);
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn insert_at_live_id_panics() {
        let ds = nyt_like(50, 10, 4);
        let mut engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let items: Vec<ItemId> = (100..110).map(ItemId).collect();
        engine.insert_ranking_at(RankingId(0), &items);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Algorithm::CoarseDrop.name(), "Coarse+Drop");
        assert_eq!(
            Algorithm::BlockedPruneDrop.to_string(),
            "Blocked+Prune+Drop"
        );
        assert_eq!(Algorithm::ALL.len(), 8);
        assert_eq!(Algorithm::Auto.to_string(), "Auto");
    }

    #[test]
    fn from_str_round_trips_display_and_accepts_lax_spellings() {
        for a in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
            let parsed: Algorithm = a.name().parse().expect("display name parses");
            assert_eq!(parsed, a, "round trip of {}", a.name());
        }
        assert_eq!("fv".parse::<Algorithm>().unwrap(), Algorithm::Fv);
        assert_eq!("FV-DROP".parse::<Algorithm>().unwrap(), Algorithm::FvDrop);
        assert_eq!(
            "blocked_prune_drop".parse::<Algorithm>().unwrap(),
            Algorithm::BlockedPruneDrop
        );
        assert_eq!(
            "coarse drop".parse::<Algorithm>().unwrap(),
            Algorithm::CoarseDrop
        );
        assert_eq!("auto".parse::<Algorithm>().unwrap(), Algorithm::Auto);
        let err = "nope".parse::<Algorithm>().unwrap_err();
        assert!(err.to_string().contains("unknown algorithm 'nope'"));
    }

    #[test]
    fn dense_indexes_are_a_permutation_of_the_slots() {
        let mut seen = [false; Algorithm::COUNT];
        for a in Algorithm::ALL {
            let i = a.dense_index().expect("concrete algorithms have slots");
            assert!(!seen[i], "slot {i} assigned twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(Algorithm::Auto.dense_index(), None);
    }

    #[test]
    fn traced_queries_report_the_executed_algorithm_and_exec_stats() {
        let ds = nyt_like(500, 10, 3);
        let engine = EngineBuilder::new(ds.store)
            .calibrated_costs(CalibratedCosts::nominal(10))
            .build();
        let q: Vec<ItemId> = engine.store().items(RankingId(7)).to_vec();
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let mut out = Vec::new();
        let raw = raw_threshold(0.2, 10);
        let t =
            engine.query_into_traced(Algorithm::Fv, &q, raw, &mut scratch, &mut stats, &mut out);
        assert_eq!(t.algorithm, Algorithm::Fv);
        assert!(!t.planned);
        assert!(t.exec.postings_scanned > 0);
        assert!(t.exec.distance_calls > 0);
        assert_eq!(t.predicted_ns, 0.0);
        let t =
            engine.query_into_traced(Algorithm::Auto, &q, raw, &mut scratch, &mut stats, &mut out);
        assert!(t.planned);
        assert!(
            t.algorithm.dense_index().is_some(),
            "Auto resolves to a concrete algorithm"
        );
        assert!(t.predicted_ns > 0.0);
        assert!(t.actual_ns > 0.0);
    }

    #[test]
    #[should_panic(expected = "query size")]
    fn wrong_query_size_panics() {
        let ds = nyt_like(100, 10, 1);
        let engine = EngineBuilder::new(ds.store).build();
        let q: Vec<ItemId> = (0..5u32).map(ItemId).collect();
        let mut scratch = engine.scratch();
        let mut stats = QueryStats::new();
        let _ = engine.query_items(Algorithm::Fv, &q, 10, &mut scratch, &mut stats);
    }
}
