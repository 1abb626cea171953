//! The sharded engine: paper-scale corpora behind the monolithic
//! [`Engine`] semantics.
//!
//! The paper's headline experiments (Figures 5–9) run at 1M rankings;
//! a single [`Engine`] tops out well below that because the corpus, the
//! item remap and every CSR arena are monolithic. [`ShardedEngine`]
//! partitions the corpus into `S` shards, builds an **independent** index
//! set per shard (its own [`ItemRemap`](ranksim_rankings::ItemRemap), its
//! own CSR arenas, via the regular [`EngineBuilder`]), runs every query
//! against all shards, and merges the per-shard answers **exactly**:
//!
//! * **threshold queries** — per-shard result sets are disjoint (every
//!   ranking lives in exactly one shard), so the merge is a
//!   concatenation; results are returned sorted by global ranking id,
//!   a canonical order independent of the shard count,
//! * **top-k queries** — one radius loop over all shards: each round
//!   is the union of the shards' exact threshold sets (with distances),
//!   and the lexicographic heap picks the answer, smaller ids winning
//!   ties, so it is bit-identical to the monolithic engine's.
//!
//! Shard assignment ([`ShardStrategy`]) is either item-sequence hashing
//! (`Hash` — streaming-friendly, balanced) or coarse-medoid routing
//! (`Medoid` — the first ranking of each shard becomes its medoid and
//! later rankings join the nearest medoid, mirroring the coarse index's
//! partition-by-proximity idea so near-duplicates co-locate). Both are
//! deterministic functions of the push sequence, and **exactness never
//! depends on the assignment**: the differential suite in
//! `tests/shard_equivalence.rs` proves shard/monolith equivalence for
//! both strategies at S ∈ {1, 2, 7}.
//!
//! [`ShardedEngineBuilder::push_ranking`] accepts rankings one at a time,
//! so a 1M-ranking corpus can stream from
//! `ranksim_datasets::ClusteredZipfGenerator::for_each` straight into the
//! shard stores without ever materializing a monolithic corpus.

use crate::batch::{merge_reports, run_stealing, WorkerReport};
use crate::engine::{knn_by_radius, Algorithm, Engine, EngineBuilder};
use crate::planner::PlanStats;
use ranksim_rankings::{ItemId, QueryScratch, QueryStats, RankingId, RankingStore};
use std::time::{Duration, Instant};

/// How rankings are routed to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Fx-hash of the item sequence modulo the shard count. Streaming-
    /// friendly, assignment independent of push order, statistically
    /// balanced.
    Hash,
    /// Coarse-medoid routing: the first ranking routed to each shard
    /// becomes that shard's medoid; every later ranking joins the shard
    /// with the nearest medoid (Footrule distance, ties to the lowest
    /// shard). Co-locates near-duplicate clusters, which keeps per-shard
    /// coarse partitionings tight.
    Medoid,
}

/// When routed mutations may migrate rankings between shards.
///
/// Shard sizes drift under a live workload (hash routing only balances
/// in expectation; medoid routing follows the data distribution), and a
/// swollen shard dominates every query's latency. A rebalance moves the
/// highest-global-id live rankings of overfull shards onto underfull
/// ones and rebuilds **only the affected shards** — placement never
/// affects results (threshold merges are id-canonical, top-k merges are
/// lexicographic), so the answers stay bit-identical to a from-scratch
/// monolith throughout.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Trigger once the largest shard's live count exceeds
    /// `skew_factor ×` the mean live count…
    pub skew_factor: f64,
    /// …and leads the smallest shard by at least this many rankings
    /// (absolute slack so small corpora don't thrash).
    pub min_gap: usize,
    /// Check (and rebalance) automatically after every routed insert or
    /// remove; `false` leaves it to explicit [`ShardedEngine::rebalance`]
    /// calls.
    pub auto: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            skew_factor: 2.0,
            min_gap: 64,
            auto: true,
        }
    }
}

/// Per-shard engine build knobs, retained by [`ShardedEngine`] so routed
/// inserts into empty shards and rebalancing rebuilds construct engines
/// identical to the original build.
#[derive(Clone)]
struct ShardConfig {
    coarse_theta_c: f64,
    coarse_theta_c_drop: Option<f64>,
    selected: Option<Vec<Algorithm>>,
    calibrated: Option<crate::CalibratedCosts>,
    compact_tombstone_fraction: Option<f64>,
    rebalance: RebalanceConfig,
}

impl ShardConfig {
    fn build_engine(&self, store: RankingStore) -> Engine {
        let mut b = EngineBuilder::new(store).coarse_threshold(self.coarse_theta_c);
        if let Some(t) = self.coarse_theta_c_drop {
            b = b.coarse_drop_threshold(t);
        }
        if let Some(sel) = &self.selected {
            b = b.algorithms(sel);
        }
        if let Some(costs) = self.calibrated {
            b = b.calibrated_costs(costs);
        }
        if let Some(f) = self.compact_tombstone_fraction {
            b = b.compaction_threshold(f);
        }
        b.build()
    }
}

/// Where a global ranking id lives: `(shard, local id)`; the shard field
/// is `u32::MAX` once the ranking was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardLoc {
    shard: u32,
    local: u32,
}

const GONE: ShardLoc = ShardLoc {
    shard: u32::MAX,
    local: u32::MAX,
};

/// Routes one ranking to a shard. `medoids` doubles as the shard count
/// (one slot per shard) and as the mutable medoid state of the
/// [`ShardStrategy::Medoid`] scheme.
fn route_to_shard(
    strategy: ShardStrategy,
    medoids: &mut [Option<Vec<ItemId>>],
    items: &[ItemId],
) -> usize {
    let num_shards = medoids.len();
    if num_shards == 1 {
        return 0;
    }
    match strategy {
        ShardStrategy::Hash => {
            use std::hash::Hasher;
            let mut h = ranksim_rankings::hash::FxHasher::default();
            for i in items {
                h.write_u32(i.0);
            }
            (h.finish() % num_shards as u64) as usize
        }
        ShardStrategy::Medoid => {
            if let Some(free) = medoids.iter().position(|m| m.is_none()) {
                medoids[free] = Some(items.to_vec());
                return free;
            }
            let mut best = 0usize;
            let mut best_d = u32::MAX;
            for (s, medoid) in medoids.iter().enumerate() {
                let m = medoid.as_ref().expect("all medoids claimed");
                let d = ranksim_rankings::footrule_items(m, items);
                if d < best_d {
                    best = s;
                    best_d = d;
                }
            }
            best
        }
    }
}

/// Builder for [`ShardedEngine`]: routes pushed rankings to per-shard
/// stores, then builds one [`Engine`] per non-empty shard.
pub struct ShardedEngineBuilder {
    k: usize,
    strategy: ShardStrategy,
    config: ShardConfig,
    stores: Vec<RankingStore>,
    globals: Vec<Vec<RankingId>>,
    medoids: Vec<Option<Vec<ItemId>>>,
    next_global: u32,
}

impl ShardedEngineBuilder {
    /// A builder for `num_shards ≥ 1` shards of size-`k` rankings.
    pub fn new(k: usize, num_shards: usize, strategy: ShardStrategy) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        ShardedEngineBuilder {
            k,
            strategy,
            config: ShardConfig {
                coarse_theta_c: 0.5,
                coarse_theta_c_drop: None,
                selected: None,
                calibrated: None,
                compact_tombstone_fraction: None,
                rebalance: RebalanceConfig::default(),
            },
            stores: (0..num_shards).map(|_| RankingStore::new(k)).collect(),
            globals: vec![Vec::new(); num_shards],
            medoids: vec![None; num_shards],
            next_global: 0,
        }
    }

    /// Normalized `θ_C` for every per-shard `Coarse` index (see
    /// [`EngineBuilder::coarse_threshold`]).
    pub fn coarse_threshold(mut self, theta_c: f64) -> Self {
        self.config.coarse_theta_c = theta_c;
        self
    }

    /// Separate `θ_C` for `Coarse+Drop` (see
    /// [`EngineBuilder::coarse_drop_threshold`]).
    pub fn coarse_drop_threshold(mut self, theta_c: f64) -> Self {
        self.config.coarse_theta_c_drop = Some(theta_c);
        self
    }

    /// Restricts every shard to the index structures the given algorithms
    /// need (see [`EngineBuilder::algorithms`]).
    pub fn algorithms(mut self, algorithms: &[Algorithm]) -> Self {
        self.config.selected = Some(algorithms.to_vec());
        self
    }

    /// No-op, kept only because the out-of-workspace `benchmark/` package
    /// still calls it: top-k needs no per-shard index of its own.
    pub fn topk_trees(self, _build_trees: bool) -> Self {
        self
    }

    /// Overrides the calibrated machine primitives every per-shard
    /// planner prices executors with (see
    /// [`EngineBuilder::calibrated_costs`]; fixed nominal costs keep
    /// sharded `Auto` planning deterministic in tests).
    pub fn calibrated_costs(mut self, costs: crate::CalibratedCosts) -> Self {
        self.config.calibrated = Some(costs);
        self
    }

    /// Size-aware shard rebalancing policy for the built engine's routed
    /// mutations (see [`RebalanceConfig`]).
    pub fn rebalance(mut self, config: RebalanceConfig) -> Self {
        self.config.rebalance = config;
        self
    }

    /// Per-shard auto-compaction trigger (see
    /// [`EngineBuilder::compaction_threshold`]; defaults to that
    /// builder's default when unset).
    pub fn compaction_threshold(mut self, tombstone_fraction: f64) -> Self {
        self.config.compact_tombstone_fraction = Some(tombstone_fraction);
        self
    }

    /// Routes one ranking to its shard, returning the global id the
    /// sharded engine will report it under. Items must be `k` pairwise
    /// distinct ids (generator output upholds this by construction).
    pub fn push_ranking(&mut self, items: &[ItemId]) -> RankingId {
        assert_eq!(items.len(), self.k, "ranking size must match k");
        let shard = route_to_shard(self.strategy, &mut self.medoids, items);
        let global = RankingId(self.next_global);
        self.next_global += 1;
        self.stores[shard].push_items_unchecked(items);
        self.globals[shard].push(global);
        global
    }

    /// Pushes every **live** ranking of a monolithic store. For a
    /// pristine store into an empty builder, ids are preserved (ranking
    /// `i` becomes global id `i`); for a mutated store, dead slots are
    /// skipped and the surviving rankings are re-numbered densely in id
    /// order — `push_ranking` cannot reproduce holes, so exact id parity
    /// with a holey monolith requires replaying the mutation sequence
    /// through [`ShardedEngine::insert_ranking`] / `remove_ranking`
    /// instead.
    pub fn extend_from_store(&mut self, store: &RankingStore) {
        assert_eq!(store.k(), self.k, "store ranking size must match k");
        for id in store.live_ids() {
            self.push_ranking(store.items(id));
        }
    }

    /// Builds the per-shard engines. Empty shards (possible under medoid
    /// routing or tiny corpora) carry no engine and are skipped by every
    /// query.
    pub fn build(self) -> ShardedEngine {
        let ShardedEngineBuilder {
            k,
            strategy,
            config,
            stores,
            globals,
            medoids,
            next_global,
        } = self;
        let mut directory = vec![GONE; next_global as usize];
        for (s, globals) in globals.iter().enumerate() {
            for (local, g) in globals.iter().enumerate() {
                directory[g.index()] = ShardLoc {
                    shard: s as u32,
                    local: local as u32,
                };
            }
        }
        let shards = stores
            .into_iter()
            .zip(globals)
            .map(|(store, global)| {
                let engine = (!store.is_empty()).then(|| config.build_engine(store));
                Shard { engine, global }
            })
            .collect();
        ShardedEngine {
            k,
            strategy,
            shards,
            config,
            medoids,
            directory,
            next_global,
        }
    }
}

/// One shard: its engine (absent when the shard received no rankings)
/// and the local-to-global ranking-id map (`global[local.index()]`,
/// ascending because pushes append in global order).
struct Shard {
    engine: Option<Engine>,
    global: Vec<RankingId>,
}

/// Reusable per-worker scratch for sharded queries: one epoch-versioned
/// [`QueryScratch`] shared across shards (its arrays grow to the largest
/// shard universe and stay) plus a local-result buffer for id
/// translation. Steady-state threshold queries through
/// [`ShardedEngine::query_into`] are allocation-free, guarded by
/// `crates/core/tests/alloc_free.rs`.
pub struct ShardedScratch {
    scratch: QueryScratch,
    local: Vec<RankingId>,
}

/// The S-shard engine. Query semantics match the monolithic [`Engine`]
/// exactly; see the module docs for the merge rules.
///
/// The engine is **live**: [`ShardedEngine::insert_ranking`] routes new
/// rankings with the build-time strategy, [`ShardedEngine::remove_ranking`]
/// tombstones through a global→(shard, local) directory, and size-aware
/// [`ShardedEngine::rebalance`] migrates rankings off swollen shards,
/// rebuilding only the affected shards. Per-shard local ids stay
/// monotone in global ids throughout (fresh globals append; rebuilds
/// sort ascending), which is the invariant that keeps the lexicographic
/// top-k merge bit-identical to a from-scratch monolith.
pub struct ShardedEngine {
    k: usize,
    strategy: ShardStrategy,
    shards: Vec<Shard>,
    config: ShardConfig,
    /// Routing state (medoid strategy); one slot per shard.
    medoids: Vec<Option<Vec<ItemId>>>,
    /// `directory[global] = (shard, local)`; [`GONE`] once removed.
    directory: Vec<ShardLoc>,
    next_global: u32,
}

impl ShardedEngine {
    /// The ranking size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured shard count (including empty shards).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing strategy the corpus was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Total rankings across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.global.len()).sum()
    }

    /// Whether no rankings were pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rankings per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.global.len()).collect()
    }

    /// Per-shard heap footprint (store + every built index structure;
    /// empty shards report 0).
    fn shard_heap_bytes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.engine.as_ref().map_or(0, |e| e.heap_bytes())
                    + s.global.capacity() * std::mem::size_of::<RankingId>()
            })
            .collect()
    }

    /// Total heap footprint across shards, plus the engine-level
    /// mutation state (the global→(shard, local) directory — which grows
    /// monotonically with every insert ever routed — and the medoid
    /// routing state), matching the monolith's exact delta/overlay
    /// accounting.
    pub fn heap_bytes(&self) -> usize {
        self.shard_heap_bytes().iter().sum::<usize>()
            + self.directory.capacity() * std::mem::size_of::<ShardLoc>()
            + self.medoids.capacity() * std::mem::size_of::<Option<Vec<ItemId>>>()
            + self
                .medoids
                .iter()
                .map(|m| {
                    m.as_ref()
                        .map_or(0, |v| v.capacity() * std::mem::size_of::<ItemId>())
                })
                .sum::<usize>()
    }

    /// A fresh scratch; reuse it across queries to keep the hot path
    /// allocation-free.
    pub fn scratch(&self) -> ShardedScratch {
        ShardedScratch {
            scratch: QueryScratch::new(),
            local: Vec::new(),
        }
    }

    // --- live-corpus mutation API -----------------------------------

    /// Live rankings across all shards.
    pub fn live_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.as_ref().map_or(0, |e| e.live_len()))
            .sum()
    }

    /// Live rankings per shard (what the rebalancer watches).
    pub fn shard_live_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.engine.as_ref().map_or(0, |e| e.live_len()))
            .collect()
    }

    /// Whether global ranking `id` is live.
    pub fn is_live(&self, id: RankingId) -> bool {
        matches!(self.directory.get(id.index()), Some(loc) if *loc != GONE)
    }

    /// Routes a new ranking to its shard (build-time strategy) and
    /// inserts it there, returning the fresh global id — the same id a
    /// monolithic [`Engine::insert_ranking`] would assign for the same
    /// mutation sequence. May trigger an automatic rebalance (see
    /// [`RebalanceConfig::auto`]).
    pub fn insert_ranking(&mut self, items: &[ItemId]) -> RankingId {
        assert_eq!(items.len(), self.k, "ranking size must match k");
        let shard = route_to_shard(self.strategy, &mut self.medoids, items);
        let global = RankingId(self.next_global);
        self.next_global += 1;
        let s = &mut self.shards[shard];
        let local = match &mut s.engine {
            Some(engine) => engine.insert_ranking(items),
            None => {
                let mut store = RankingStore::new(self.k);
                let local = store.push_items_unchecked(items);
                s.engine = Some(self.config.build_engine(store));
                local
            }
        };
        debug_assert_eq!(
            local.index(),
            s.global.len(),
            "local ids append in lockstep with the global map"
        );
        s.global.push(global);
        self.directory.push(ShardLoc {
            shard: shard as u32,
            local: local.0,
        });
        if self.config.rebalance.auto {
            self.rebalance();
        }
        global
    }

    /// Tombstones the ranking with global id `id` on its shard. Returns
    /// `false` when the id was never assigned or already removed.
    pub fn remove_ranking(&mut self, id: RankingId) -> bool {
        let Some(&loc) = self.directory.get(id.index()) else {
            return false;
        };
        if loc == GONE {
            return false;
        }
        let shard = &mut self.shards[loc.shard as usize];
        let engine = shard
            .engine
            .as_mut()
            .expect("directory points into a built shard");
        let removed = engine.remove_ranking(RankingId(loc.local));
        debug_assert!(removed, "directory and shard liveness agree");
        debug_assert_eq!(
            engine.store().len(),
            shard.global.len(),
            "local id space and global map stay in lockstep"
        );
        self.directory[id.index()] = GONE;
        if self.config.rebalance.auto {
            self.rebalance();
        }
        removed
    }

    /// Compacts every shard engine (releases tombstoned slots, rebuilds
    /// the per-shard arenas over the live set) and then checks the
    /// rebalance policy once.
    pub fn compact(&mut self) {
        for s in &mut self.shards {
            if let Some(engine) = &mut s.engine {
                engine.compact();
                debug_assert_eq!(
                    engine.store().len(),
                    s.global.len(),
                    "compaction keeps the local id space intact"
                );
            }
        }
        self.rebalance();
    }

    /// Checks the size-skew policy and migrates rankings if it fires:
    /// the largest shards donate their highest-global-id live rankings
    /// to the smallest shards until every shard sits at (or below) the
    /// mean, then **only the affected shards** are rebuilt from scratch
    /// — local ids re-assigned in ascending global order, which restores
    /// the monotone local↔global invariant the top-k merge needs.
    /// Returns `true` when a migration happened.
    pub fn rebalance(&mut self) -> bool {
        let policy = self.config.rebalance;
        let s = self.shards.len();
        // Balanced-path check in one allocation-free pass: the auto
        // policy runs this after *every* routed mutation.
        let (mut total, mut max, mut min) = (0usize, 0usize, usize::MAX);
        for shard in &self.shards {
            let live = shard.engine.as_ref().map_or(0, |e| e.live_len());
            total += live;
            max = max.max(live);
            min = min.min(live);
        }
        if s < 2 || total == 0 {
            return false;
        }
        let mean = total as f64 / s as f64;
        if (max as f64) <= policy.skew_factor * mean.max(1.0) || max - min < policy.min_gap {
            return false;
        }
        let target = mean.ceil() as usize;
        // Collect the migration plan: donors shed their highest-global
        // live rankings down to the target, receivers fill up to it.
        let mut moved: Vec<(RankingId, Vec<ItemId>)> = Vec::new();
        let mut affected = vec![false; s];
        for (si, shard) in self.shards.iter_mut().enumerate() {
            let live = shard.engine.as_ref().map_or(0, |e| e.live_len());
            let surplus = live.saturating_sub(target);
            if surplus == 0 {
                continue;
            }
            // Shedding marks the directory only — no engine removal: the
            // donor is rebuilt from scratch below anyway, and a removal
            // here could trip the shard engine's auto-compaction into a
            // full index rebuild that the rebuild immediately discards.
            let engine = shard.engine.as_ref().expect("live shard has an engine");
            let mut shed = 0usize;
            for local in (0..shard.global.len()).rev() {
                if shed == surplus {
                    break;
                }
                let lid = RankingId(local as u32);
                if !engine.is_live(lid) {
                    continue;
                }
                let global = shard.global[local];
                moved.push((global, engine.store().items(lid).to_vec()));
                self.directory[global.index()] = GONE;
                shed += 1;
            }
            affected[si] = true;
        }
        if moved.is_empty() {
            return false;
        }
        // Deterministic receiver assignment: ascending shard index,
        // filling each to the target; ascending global order within.
        moved.sort_unstable_by_key(|&(g, _)| g);
        let mut additions: Vec<Vec<(RankingId, Vec<ItemId>)>> = vec![Vec::new(); s];
        let mut fill: Vec<usize> = self.shard_live_sizes();
        let mut cursor = 0usize;
        for (global, items) in moved {
            while cursor < s && fill[cursor] >= target {
                cursor += 1;
            }
            let to = if cursor < s { cursor } else { s - 1 };
            fill[to] += 1;
            affected[to] = true;
            additions[to].push((global, items));
        }
        // Rebuild only the affected shards, locals ascending in globals.
        for (si, extra) in additions.into_iter().enumerate() {
            if !affected[si] {
                continue;
            }
            self.rebuild_shard(si, extra);
        }
        true
    }

    /// Rebuilds shard `si` from its live rankings plus `extra`
    /// (global id, items) arrivals: a fresh store pushed in ascending
    /// global order, a fresh engine from the retained config, and
    /// directory updates for every member. A live local whose directory
    /// entry no longer points here was shed to another shard by the
    /// rebalancer (marked `GONE`, or already re-homed by an
    /// earlier-rebuilt receiver) and is excluded.
    fn rebuild_shard(&mut self, si: usize, extra: Vec<(RankingId, Vec<ItemId>)>) {
        let shard = &mut self.shards[si];
        let mut entries: Vec<(RankingId, Vec<ItemId>)> = Vec::new();
        if let Some(engine) = &shard.engine {
            for (local, &global) in shard.global.iter().enumerate() {
                let lid = RankingId(local as u32);
                let here = ShardLoc {
                    shard: si as u32,
                    local: local as u32,
                };
                if engine.is_live(lid) && self.directory[global.index()] == here {
                    entries.push((global, engine.store().items(lid).to_vec()));
                }
            }
        }
        entries.extend(extra);
        entries.sort_unstable_by_key(|&(g, _)| g);
        let mut store = RankingStore::with_capacity(self.k, entries.len());
        let mut globals = Vec::with_capacity(entries.len());
        for (global, items) in &entries {
            store.push_items_unchecked(items);
            globals.push(*global);
        }
        for (local, global) in globals.iter().enumerate() {
            self.directory[global.index()] = ShardLoc {
                shard: si as u32,
                local: local as u32,
            };
        }
        shard.engine = (!store.is_empty()).then(|| self.config.build_engine(store));
        shard.global = globals;
    }

    /// Runs `algorithm` over every shard into a caller-owned buffer
    /// (cleared first). Results are global ranking ids sorted ascending —
    /// the canonical order, independent of shard count and strategy. With
    /// a warmed-up scratch and buffer, steady-state calls perform zero
    /// heap allocations.
    pub fn query_into(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut ShardedScratch,
        stats: &mut QueryStats,
        out: &mut Vec<RankingId>,
    ) {
        let mut plan = PlanStats::new();
        self.query_into_recorded(algorithm, query, theta_raw, scratch, stats, &mut plan, out);
    }

    /// [`ShardedEngine::query_into`] additionally folding per-shard
    /// planner telemetry into `plan`. Under [`Algorithm::Auto`] every
    /// shard plans **independently** — shards differ in size and item
    /// distribution, so the same query may legitimately take different
    /// paths on different shards; `plan` then counts one pick per
    /// (query, non-empty shard).
    #[allow(clippy::too_many_arguments)]
    pub fn query_into_recorded(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut ShardedScratch,
        stats: &mut QueryStats,
        plan: &mut PlanStats,
        out: &mut Vec<RankingId>,
    ) {
        assert_eq!(
            query.len(),
            self.k,
            "query size must match the corpus ranking size"
        );
        out.clear();
        for shard in &self.shards {
            let Some(engine) = &shard.engine else {
                continue;
            };
            let trace = engine.query_into_traced(
                algorithm,
                query,
                theta_raw,
                &mut scratch.scratch,
                stats,
                &mut scratch.local,
            );
            plan.record(&trace);
            out.extend(scratch.local.iter().map(|id| shard.global[id.index()]));
        }
        out.sort_unstable();
    }

    /// Convenience wrapper around [`ShardedEngine::query_into`].
    pub fn query_items(
        &self,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut ShardedScratch,
        stats: &mut QueryStats,
    ) -> Vec<RankingId> {
        let mut out = Vec::new();
        self.query_into(algorithm, query, theta_raw, scratch, stats, &mut out);
        out
    }

    /// The `neighbours` nearest rankings across all shards, as ascending
    /// `(distance, global id)` pairs — bit-identical to
    /// [`Engine::query_topk`] on the unsharded corpus. The radius rounds
    /// run here, once for all shards: each round is the union of every
    /// shard's exact threshold set, which is the global one.
    pub fn query_topk(
        &self,
        query: &[ItemId],
        neighbours: usize,
        scratch: &mut ShardedScratch,
        stats: &mut QueryStats,
    ) -> Vec<(u32, RankingId)> {
        assert_eq!(
            query.len(),
            self.k,
            "query size must match the corpus ranking size"
        );
        let neighbours = neighbours.min(self.live_len());
        if neighbours == 0 {
            return Vec::new();
        }
        let results_before = stats.results;
        let Ok(nearest) = knn_by_radius(self.k, neighbours, |theta_raw, pairs| {
            for shard in &self.shards {
                let Some(engine) = &shard.engine else {
                    continue;
                };
                let start = pairs.len();
                engine.query_distances_into(
                    Algorithm::Auto,
                    query,
                    theta_raw,
                    &mut scratch.scratch,
                    stats,
                    &mut scratch.local,
                    pairs,
                );
                for pair in &mut pairs[start..] {
                    pair.1 = shard.global[pair.1.index()];
                }
            }
            Ok::<(), std::convert::Infallible>(())
        });
        // The rounds' own result counts are not this query's results.
        stats.results = results_before + nearest.len() as u64;
        nearest
    }

    /// Processes `queries` with `algorithm` at one raw threshold across
    /// `threads` work-stealing worker threads (`0` picks the machine's
    /// available parallelism); every worker owns one [`ShardedScratch`]
    /// and drains the shared query cursor, so skewed batches balance
    /// across workers. Returns per-query result sets in input order plus
    /// merged stats.
    pub fn query_batch(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
    ) -> (Vec<Vec<RankingId>>, QueryStats) {
        let (results, reports) = self.query_batch_reported(algorithm, queries, theta_raw, threads);
        (results, merge_reports(&reports))
    }

    /// [`ShardedEngine::query_batch`] with one [`WorkerReport`] per
    /// worker instead of pre-merged stats.
    ///
    /// Work is split at **(query × shard)** granularity: every stealable
    /// task scans exactly one non-empty shard for one query, so a single
    /// expensive query spreads across workers instead of pinning one
    /// worker for its full all-shard sweep (the imbalance the per-worker
    /// [`PlanStats`] exposed). [`WorkerReport::queries`] therefore counts
    /// claimed *tasks* here. Per-shard result sets are disjoint, so the
    /// per-query reassembly (concatenate, then one ascending sort) is
    /// bit-identical to the serial all-shards-per-query path.
    pub fn query_batch_reported(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        self.query_batch_inner(algorithm, queries, theta_raw, threads, None)
    }

    /// [`ShardedEngine::query_batch_reported`] with a wall-clock
    /// `budget`, matching [`Engine::query_batch_deadline`]'s contract at
    /// the **query** level despite the (query × shard) task split: a
    /// query is answered only when *every* one of its per-shard tasks
    /// ran. If the deadline fires on any task of a query — even while
    /// that query's sibling tasks on other shards completed — the whole
    /// query fails typed: empty result set, query index recorded (once,
    /// in one report) in [`WorkerReport::timed_out`]. Completed sibling
    /// partials are discarded, never merged — a partial merge would be a
    /// silently truncated result set, indistinguishable from a smaller
    /// true answer.
    pub fn query_batch_deadline(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        budget: Duration,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        let deadline = Instant::now() + budget;
        self.query_batch_inner(algorithm, queries, theta_raw, threads, Some(deadline))
    }

    fn query_batch_inner(
        &self,
        algorithm: Algorithm,
        queries: &[Vec<ItemId>],
        theta_raw: u32,
        threads: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Vec<RankingId>>, Vec<WorkerReport>) {
        let active: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.engine.is_some())
            .map(|(si, _)| si)
            .collect();
        let na = active.len();
        if na == 0 || queries.is_empty() {
            return (vec![Vec::new(); queries.len()], Vec::new());
        }
        let active = &active;
        let (tasks, mut reports) = run_stealing(queries.len() * na, threads, deadline, || {
            let mut scratch = self.scratch();
            move |t: usize, report: &mut WorkerReport| {
                let (qi, si) = (t / na, active[t % na]);
                let shard = &self.shards[si];
                let engine = shard.engine.as_ref().expect("active shard has an engine");
                let trace = engine.query_into_traced(
                    algorithm,
                    &queries[qi],
                    theta_raw,
                    &mut scratch.scratch,
                    &mut report.stats,
                    &mut scratch.local,
                );
                report.plan.record(&trace);
                scratch
                    .local
                    .iter()
                    .map(|id| shard.global[id.index()])
                    .collect()
            }
        });
        // The stealing pool recorded timed-out *task* indices. Lift them
        // to query granularity: one task missed ⇒ the whole query timed
        // out. Each query is reported once (first report that saw one of
        // its tasks), so [`merge_reports`] counts it exactly once.
        let mut query_timed_out = vec![false; queries.len()];
        for report in &reports {
            for &t in &report.timed_out {
                query_timed_out[t / na] = true;
            }
        }
        let mut reported = vec![false; queries.len()];
        for report in &mut reports {
            let tasks = std::mem::take(&mut report.timed_out);
            for t in tasks {
                let qi = t / na;
                if !reported[qi] {
                    reported[qi] = true;
                    report.timed_out.push(qi);
                }
            }
        }
        let mut results: Vec<Vec<RankingId>> = Vec::with_capacity(queries.len());
        results.resize_with(queries.len(), Vec::new);
        for (t, mut part) in tasks.into_iter().enumerate() {
            let qi = t / na;
            // Discard completed partials of a timed-out query: answers
            // are all-shards-or-typed-failure, never a truncated merge.
            if !query_timed_out[qi] {
                results[qi].append(&mut part);
            }
        }
        for r in &mut results {
            r.sort_unstable();
        }
        (results, reports)
    }
}

/// Flat form of the retained per-shard build config, for the snapshot
/// codec (`crate::persist`). Algorithms travel as dense slots with
/// `u32::MAX` standing in for `Auto`; the rebalance policy is inlined.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub(crate) struct ShardConfigParts {
    pub coarse_theta_c: f64,
    pub coarse_theta_c_drop: Option<f64>,
    pub selected: Option<Vec<u32>>,
    pub calibrated: Option<(f64, f64)>,
    pub compact_tombstone_fraction: Option<f64>,
    pub rebalance_skew_factor: f64,
    pub rebalance_min_gap: u64,
    pub rebalance_auto: bool,
}

/// Everything the sharded snapshot manifest records besides the
/// per-shard engine snapshots themselves: routing state, the
/// global→(shard, local) directory as flat planes (`u32::MAX` pairs
/// encode removed ids), and each shard's local→global map.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub(crate) struct ShardedPersistParts {
    pub k: u32,
    /// 0 = [`ShardStrategy::Hash`], 1 = [`ShardStrategy::Medoid`].
    pub strategy: u8,
    pub config: ShardConfigParts,
    /// Medoid routing state, one slot per shard (raw item ids).
    pub medoids: Vec<Option<Vec<u32>>>,
    pub dir_shards: Vec<u32>,
    pub dir_locals: Vec<u32>,
    pub next_global: u32,
    /// Which shards carry an engine (and thus a snapshot file).
    pub engine_present: Vec<bool>,
    /// Per shard: the global id of each local slot, ascending.
    pub globals: Vec<Vec<u32>>,
}

impl ShardedEngine {
    /// Snapshot view of the engine-level state (see
    /// [`ShardedPersistParts`]); per-shard engines are exported
    /// separately via [`ShardedEngine::shard_engine`].
    pub(crate) fn export_sharded_parts(&self) -> ShardedPersistParts {
        let encode_alg = |a: &Algorithm| a.dense_index().map_or(u32::MAX, |s| s as u32);
        ShardedPersistParts {
            k: self.k as u32,
            strategy: match self.strategy {
                ShardStrategy::Hash => 0,
                ShardStrategy::Medoid => 1,
            },
            config: ShardConfigParts {
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
                rebalance_skew_factor: self.config.rebalance.skew_factor,
                rebalance_min_gap: self.config.rebalance.min_gap as u64,
                rebalance_auto: self.config.rebalance.auto,
            },
            medoids: self
                .medoids
                .iter()
                .map(|m| m.as_ref().map(|v| v.iter().map(|i| i.0).collect()))
                .collect(),
            dir_shards: self.directory.iter().map(|l| l.shard).collect(),
            dir_locals: self.directory.iter().map(|l| l.local).collect(),
            next_global: self.next_global,
            engine_present: self.shards.iter().map(|s| s.engine.is_some()).collect(),
            globals: self
                .shards
                .iter()
                .map(|s| s.global.iter().map(|g| g.0).collect())
                .collect(),
        }
    }

    /// Shard `i`'s engine, if the shard holds any rankings.
    pub(crate) fn shard_engine(&self, i: usize) -> Option<&Engine> {
        self.shards[i].engine.as_ref()
    }

    /// Reassembles a sharded engine from manifest parts plus the
    /// separately loaded per-shard engines. Every cross-structure
    /// invariant is checked — directory entries resolve to live locals
    /// whose global map points back, local↔global maps stay monotone,
    /// presence flags agree — so a corrupt manifest fails typed instead
    /// of producing an engine that answers wrongly.
    pub(crate) fn from_sharded_parts(
        parts: ShardedPersistParts,
        engines: Vec<Option<Engine>>,
    ) -> Result<ShardedEngine, String> {
        let ShardedPersistParts {
            k,
            strategy,
            config,
            medoids,
            dir_shards,
            dir_locals,
            next_global,
            engine_present,
            globals,
        } = parts;
        let k = k as usize;
        if k == 0 {
            return Err("ranking size k must be positive".to_string());
        }
        let num_shards = globals.len();
        if num_shards == 0 {
            return Err("need at least one shard".to_string());
        }
        if engine_present.len() != num_shards
            || medoids.len() != num_shards
            || engines.len() != num_shards
        {
            return Err(format!(
                "per-shard plane lengths disagree: {num_shards} global maps, {} presence \
                 flags, {} medoid slots, {} engines",
                engine_present.len(),
                medoids.len(),
                engines.len()
            ));
        }
        let strategy = match strategy {
            0 => ShardStrategy::Hash,
            1 => ShardStrategy::Medoid,
            s => return Err(format!("unknown shard strategy {s}")),
        };
        let selected = match config.selected {
            None => None,
            Some(slots) => {
                let mut sel = Vec::with_capacity(slots.len());
                for slot in slots {
                    sel.push(if slot == u32::MAX {
                        Algorithm::Auto
                    } else {
                        Algorithm::from_dense_index(slot as usize)
                            .ok_or_else(|| format!("unknown algorithm slot {slot}"))?
                    });
                }
                Some(sel)
            }
        };
        let config = ShardConfig {
            coarse_theta_c: config.coarse_theta_c,
            coarse_theta_c_drop: config.coarse_theta_c_drop,
            selected,
            calibrated: config.calibrated.map(|(f, m)| crate::CalibratedCosts {
                footrule_ns: f,
                merge_posting_ns: m,
            }),
            compact_tombstone_fraction: config.compact_tombstone_fraction,
            rebalance: RebalanceConfig {
                skew_factor: config.rebalance_skew_factor,
                min_gap: config.rebalance_min_gap as usize,
                auto: config.rebalance_auto,
            },
        };
        let medoids: Vec<Option<Vec<ItemId>>> = medoids
            .into_iter()
            .enumerate()
            .map(|(si, m)| match m {
                None => Ok(None),
                Some(items) if items.len() == k => {
                    Ok(Some(items.into_iter().map(ItemId).collect()))
                }
                Some(items) => Err(format!(
                    "shard {si}: medoid has {} items (expected {k})",
                    items.len()
                )),
            })
            .collect::<Result<_, String>>()?;
        let n = next_global as usize;
        let mut shards: Vec<Shard> = Vec::with_capacity(num_shards);
        for (si, (global_raw, engine)) in globals.into_iter().zip(engines).enumerate() {
            if engine_present[si] != engine.is_some() {
                return Err(format!(
                    "shard {si}: manifest presence flag and loaded engine disagree"
                ));
            }
            if let Some(e) = &engine {
                if e.store().k() != k {
                    return Err(format!(
                        "shard {si}: engine ranking size {} != manifest k {k}",
                        e.store().k()
                    ));
                }
                if e.store().len() != global_raw.len() {
                    return Err(format!(
                        "shard {si}: engine holds {} slots but the global map has {}",
                        e.store().len(),
                        global_raw.len()
                    ));
                }
            } else if !global_raw.is_empty() {
                return Err(format!(
                    "shard {si}: global map has {} entries but no engine",
                    global_raw.len()
                ));
            }
            if !global_raw.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("shard {si}: global ids are not strictly ascending"));
            }
            if global_raw.iter().any(|&g| g as usize >= n) {
                return Err(format!(
                    "shard {si}: global map exceeds next_global {next_global}"
                ));
            }
            shards.push(Shard {
                engine,
                global: global_raw.into_iter().map(RankingId).collect(),
            });
        }
        if dir_shards.len() != n || dir_locals.len() != n {
            return Err(format!(
                "directory planes hold {}/{} entries for {n} assigned globals",
                dir_shards.len(),
                dir_locals.len()
            ));
        }
        let mut directory = Vec::with_capacity(n);
        let mut live_count = 0usize;
        for g in 0..n {
            let (s, l) = (dir_shards[g], dir_locals[g]);
            if s == u32::MAX || l == u32::MAX {
                if s != u32::MAX || l != u32::MAX {
                    return Err(format!("directory entry {g} is half-removed ({s}, {l})"));
                }
                directory.push(GONE);
                continue;
            }
            let shard = shards.get(s as usize).ok_or_else(|| {
                format!("directory entry {g} points at shard {s} of {num_shards}")
            })?;
            let global_at = shard.global.get(l as usize).ok_or_else(|| {
                format!(
                    "directory entry {g} points at local {l} beyond shard {s}'s {} slots",
                    shard.global.len()
                )
            })?;
            if global_at.index() != g {
                return Err(format!(
                    "directory entry {g} disagrees with shard {s}'s global map ({global_at:?})"
                ));
            }
            let engine = shard
                .engine
                .as_ref()
                .ok_or_else(|| format!("directory entry {g} points into engineless shard {s}"))?;
            if !engine.is_live(RankingId(l)) {
                return Err(format!(
                    "directory entry {g} points at dead local {l} in shard {s}"
                ));
            }
            directory.push(ShardLoc { shard: s, local: l });
            live_count += 1;
        }
        let engine_live: usize = shards
            .iter()
            .map(|s| s.engine.as_ref().map_or(0, |e| e.live_len()))
            .sum();
        if live_count != engine_live {
            return Err(format!(
                "directory lists {live_count} live rankings but the shard engines hold \
                 {engine_live}"
            ));
        }
        Ok(ShardedEngine {
            k,
            strategy,
            shards,
            config,
            medoids,
            directory,
            next_global,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_datasets::{nyt_like, workload, WorkloadParams};
    use ranksim_rankings::raw_threshold;

    fn sharded_from(store: &RankingStore, shards: usize, strategy: ShardStrategy) -> ShardedEngine {
        let mut b = ShardedEngineBuilder::new(store.k(), shards, strategy)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06);
        b.extend_from_store(store);
        b.build()
    }

    #[test]
    fn all_rankings_land_in_exactly_one_shard() {
        let ds = nyt_like(600, 10, 21);
        for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
            let sharded = sharded_from(&ds.store, 4, strategy);
            assert_eq!(sharded.len(), 600);
            let mut seen: Vec<RankingId> = sharded
                .shards
                .iter()
                .flat_map(|s| s.global.iter().copied())
                .collect();
            seen.sort_unstable();
            let expect: Vec<RankingId> = ds.store.ids().collect();
            assert_eq!(
                seen, expect,
                "{strategy:?}: global ids partition the corpus"
            );
        }
    }

    #[test]
    fn hash_sharding_spreads_the_corpus() {
        let ds = nyt_like(2000, 10, 5);
        let sharded = sharded_from(&ds.store, 4, ShardStrategy::Hash);
        for (s, &size) in sharded.shard_sizes().iter().enumerate() {
            assert!(size > 0, "hash shard {s} is empty");
            assert!(size < 2000, "hash shard {s} swallowed the corpus");
        }
    }

    #[test]
    fn sharded_threshold_results_match_monolith() {
        let ds = nyt_like(900, 10, 77);
        let engine = EngineBuilder::new(ds.store.clone())
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .build();
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 12,
                seed: 3,
                ..Default::default()
            },
        );
        for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
            let sharded = sharded_from(&ds.store, 3, strategy);
            let mut ms = engine.scratch();
            let mut ss = sharded.scratch();
            for q in &wl.queries {
                for theta in [0.0, 0.15, 0.3] {
                    let raw = raw_threshold(theta, 10);
                    for alg in [Algorithm::Fv, Algorithm::Coarse, Algorithm::ListMerge] {
                        let mut st = QueryStats::new();
                        let mut expect = engine.query_items(alg, q, raw, &mut ms, &mut st);
                        expect.sort_unstable();
                        let got = sharded.query_items(alg, q, raw, &mut ss, &mut st);
                        assert_eq!(got, expect, "{strategy:?} {alg} θ={theta}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_topk_matches_monolith_exactly() {
        let ds = nyt_like(700, 10, 13);
        let engine = EngineBuilder::new(ds.store.clone()).build();
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 10,
                seed: 9,
                ..Default::default()
            },
        );
        for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
            for shards in [1usize, 2, 5] {
                let sharded = sharded_from(&ds.store, shards, strategy);
                let mut ms = engine.scratch();
                let mut ss = sharded.scratch();
                for q in &wl.queries {
                    for kn in [1usize, 7, 40] {
                        let mut st = QueryStats::new();
                        let expect = engine.query_topk(q, kn, &mut ms, &mut st);
                        let got = sharded.query_topk(q, kn, &mut ss, &mut st);
                        assert_eq!(got, expect, "{strategy:?} S={shards} kn={kn}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_batch_equals_sequential_sharded_queries() {
        let ds = nyt_like(500, 10, 41);
        let sharded = sharded_from(&ds.store, 3, ShardStrategy::Hash);
        let wl = workload(
            &ds.store,
            ds.params.domain,
            WorkloadParams {
                num_queries: 20,
                seed: 6,
                ..Default::default()
            },
        );
        let raw = raw_threshold(0.2, 10);
        for threads in [1usize, 4, 0] {
            let (got, batch_stats) = sharded.query_batch(Algorithm::Fv, &wl.queries, raw, threads);
            let mut ss = sharded.scratch();
            let mut seq_stats = QueryStats::new();
            for (qi, q) in wl.queries.iter().enumerate() {
                let expect = sharded.query_items(Algorithm::Fv, q, raw, &mut ss, &mut seq_stats);
                assert_eq!(got[qi], expect, "query {qi} at {threads} threads");
            }
            assert_eq!(batch_stats, seq_stats, "merged stats equal sequential");
        }
    }

    #[test]
    fn routed_mutations_match_a_mutated_monolith() {
        use crate::CalibratedCosts;
        let ds = nyt_like(500, 10, 53);
        let mut engine = EngineBuilder::new(ds.store.clone())
            .coarse_threshold(0.5)
            .calibrated_costs(CalibratedCosts::nominal(10))
            .build();
        for strategy in [ShardStrategy::Hash, ShardStrategy::Medoid] {
            let ds = nyt_like(500, 10, 53);
            let mut b = ShardedEngineBuilder::new(10, 3, strategy)
                .coarse_threshold(0.5)
                .calibrated_costs(CalibratedCosts::nominal(10))
                .rebalance(RebalanceConfig {
                    auto: false,
                    ..Default::default()
                });
            b.extend_from_store(&ds.store);
            let mut sharded = b.build();
            // Same mutation sequence on both: ids must line up.
            let mut mono = if strategy == ShardStrategy::Hash {
                Some(&mut engine)
            } else {
                None
            };
            for id in (0..500u32).step_by(9) {
                assert!(sharded.remove_ranking(RankingId(id)));
                if let Some(m) = mono.as_deref_mut() {
                    assert!(m.remove_ranking(RankingId(id)));
                }
            }
            for i in 0..40u32 {
                let donor = RankingId(i * 5 + 1);
                let mut items: Vec<ItemId> = ds.store.items(donor).to_vec();
                items.swap(1, 8);
                let g = sharded.insert_ranking(&items);
                assert_eq!(g, RankingId(500 + i), "monotone global ids");
                if let Some(m) = mono.as_deref_mut() {
                    assert_eq!(m.insert_ranking(&items), g, "id policies agree");
                }
            }
            assert_eq!(sharded.live_len(), 500 - 56 + 40);
            if mono.is_none() {
                continue;
            }
            // Differential check against the mutated monolith.
            let mut ms = engine.scratch();
            let mut ss = sharded.scratch();
            for qid in [1u32, 333, 510, 539] {
                let q: Vec<ItemId> = engine.store().items(RankingId(qid)).to_vec();
                for theta in [0.0, 0.2] {
                    let raw = raw_threshold(theta, 10);
                    for alg in [Algorithm::Fv, Algorithm::Coarse, Algorithm::ListMerge] {
                        let mut st = QueryStats::new();
                        let mut expect = engine.query_items(alg, &q, raw, &mut ms, &mut st);
                        expect.sort_unstable();
                        let got = sharded.query_items(alg, &q, raw, &mut ss, &mut st);
                        assert_eq!(got, expect, "{strategy:?} {alg} θ={theta} qid={qid}");
                    }
                }
                for kn in [1usize, 8, 33] {
                    let mut st = QueryStats::new();
                    let expect = engine.query_topk(&q, kn, &mut ms, &mut st);
                    let got = sharded.query_topk(&q, kn, &mut ss, &mut st);
                    assert_eq!(got, expect, "topk {strategy:?} kn={kn} qid={qid}");
                }
            }
        }
    }

    #[test]
    fn rebalance_migrates_skew_and_keeps_results_bit_identical() {
        use crate::CalibratedCosts;
        // Medoid routing with near-duplicate floods produces heavy skew.
        let mut b = ShardedEngineBuilder::new(4, 3, ShardStrategy::Medoid)
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .calibrated_costs(CalibratedCosts::nominal(4))
            .rebalance(RebalanceConfig {
                skew_factor: 1.5,
                min_gap: 8,
                auto: false,
            });
        // Three seed medoids, then flood near shard 0's medoid.
        b.push_ranking(&[0u32, 1, 2, 3].map(ItemId));
        b.push_ranking(&[100u32, 101, 102, 103].map(ItemId));
        b.push_ranking(&[200u32, 201, 202, 203].map(ItemId));
        for i in 0..60u32 {
            let mut items = [0u32, 1, 2, 3].map(ItemId);
            items.swap(0, (i % 3 + 1) as usize);
            b.push_ranking(&items);
        }
        let mut sharded = b.build();
        let skewed = sharded.shard_live_sizes();
        assert!(
            *skewed.iter().max().unwrap() >= 40,
            "flood must skew: {skewed:?}"
        );
        // Oracle: a monolith with the same live corpus at the same ids.
        let mut store = RankingStore::new(4);
        for g in 0..sharded.len() as u32 {
            let loc = sharded.directory[g as usize];
            let e = sharded.shards[loc.shard as usize].engine.as_ref().unwrap();
            store.push_items_unchecked(e.store().items(RankingId(loc.local)));
        }
        let engine = EngineBuilder::new(store)
            .algorithms(&[Algorithm::Fv, Algorithm::ListMerge])
            .build();
        let before = sharded.shard_live_sizes();
        assert!(sharded.rebalance(), "skew above 1.5× mean must trigger");
        let after = sharded.shard_live_sizes();
        assert!(
            after.iter().max().unwrap() < before.iter().max().unwrap(),
            "rebalance must shrink the largest shard: {before:?} -> {after:?}"
        );
        assert_eq!(after.iter().sum::<usize>(), before.iter().sum::<usize>());
        assert!(!sharded.rebalance(), "a balanced engine must not thrash");
        // Bit-identical results after migration.
        let mut ms = engine.scratch();
        let mut ss = sharded.scratch();
        for qid in [0u32, 5, 33, 62] {
            let q: Vec<ItemId> = engine.store().items(RankingId(qid)).to_vec();
            for theta in [0.0, 0.3, 0.6] {
                let raw = raw_threshold(theta, 4);
                let mut st = QueryStats::new();
                let mut expect = engine.query_items(Algorithm::Fv, &q, raw, &mut ms, &mut st);
                expect.sort_unstable();
                let got = sharded.query_items(Algorithm::Fv, &q, raw, &mut ss, &mut st);
                assert_eq!(got, expect, "θ={theta} qid={qid}");
            }
            for kn in [1usize, 7, 40] {
                let mut st = QueryStats::new();
                assert_eq!(
                    sharded.query_topk(&q, kn, &mut ss, &mut st),
                    engine.query_topk(&q, kn, &mut ms, &mut st),
                    "topk kn={kn} qid={qid}"
                );
            }
        }
    }

    #[test]
    fn medoid_routing_colocates_duplicates() {
        // Push two distant seed rankings, then duplicates of each: the
        // duplicates must land in their seed's shard.
        let mut b = ShardedEngineBuilder::new(4, 2, ShardStrategy::Medoid);
        let a: Vec<ItemId> = [0u32, 1, 2, 3].map(ItemId).to_vec();
        let z: Vec<ItemId> = [100u32, 101, 102, 103].map(ItemId).to_vec();
        b.push_ranking(&a);
        b.push_ranking(&z);
        b.push_ranking(&z);
        b.push_ranking(&a);
        let sharded = b.build();
        assert_eq!(sharded.shard_sizes(), vec![2, 2]);
        assert_eq!(sharded.shards[0].global, vec![RankingId(0), RankingId(3)]);
        assert_eq!(sharded.shards[1].global, vec![RankingId(1), RankingId(2)]);
    }

    #[test]
    fn empty_shards_are_skipped() {
        // One ranking, seven shards: six shards stay empty yet queries
        // and reporting still work.
        let mut b = ShardedEngineBuilder::new(4, 7, ShardStrategy::Hash);
        let a: Vec<ItemId> = [5u32, 6, 7, 8].map(ItemId).to_vec();
        b.push_ranking(&a);
        let sharded = b.build();
        assert_eq!(sharded.len(), 1);
        let mut ss = sharded.scratch();
        let mut st = QueryStats::new();
        let got = sharded.query_items(Algorithm::Fv, &a, 0, &mut ss, &mut st);
        assert_eq!(got, vec![RankingId(0)]);
        let topk = sharded.query_topk(&a, 3, &mut ss, &mut st);
        assert_eq!(topk, vec![(0, RankingId(0))]);
        assert_eq!(
            sharded
                .shard_heap_bytes()
                .iter()
                .filter(|&&b| b == 0)
                .count(),
            6
        );
    }
}
