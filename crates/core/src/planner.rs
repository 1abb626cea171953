//! The cost-model query planner behind [`Algorithm::Auto`].
//!
//! The paper's central claim is that neither inverted indices nor
//! metric-space indexing wins everywhere — a calibrated cost model should
//! pick the processing technique per query (Sections 8–9). The
//! [`Planner`] implements exactly that: at engine build time it combines
//! the Section 5 cost model (distance CDF, coupon-collector medoid count,
//! Zipf skew) with corpus statistics read straight off the CSR arenas
//! (corpus size `n`, ranking size `k`, per-item posting lengths), and at
//! query time it predicts the cost of every candidate executor for the
//! concrete `(query, θ)` at hand and dispatches to the cheapest.
//!
//! Predictions are **per query**: the inverted-index family's cost is
//! driven by the posting lengths of the query's items (gathered through
//! the shared [`ItemRemap`] in `O(k)`, no heap work), while the coarse
//! hybrid's cost is a pure function of `θ` precomputed per raw threshold
//! at build time. The analytical forms are priors: they rank candidates
//! in fresh buckets and fence the refresh rotation. Every `Auto` query
//! feeds its measured runtime back through [`Planner::record`], which
//! maintains a measured wall-time *level* per (algorithm, θ-bucket)
//! cell — the *online recalibration loop*. Observed arms are priced by
//! their levels (model errors, codegen and cache behavior wash out
//! after a handful of warm observations per cell); unobserved arms by
//! the model. Observations arrive in consecutive runs with cache-cold
//! openers discarded; new buckets explore every candidate once,
//! near-ties stick with the incumbent, and the model-plausible arms are
//! periodically re-observed so a noisy anchor can never exile the true
//! optimum permanently (the constants below tell the full story).
//!
//! Everything the planner touches per query lives in pre-sized tables or
//! the caller's [`QueryScratch`] (`plan_freqs`), so steady-state `Auto`
//! queries stay allocation-free — the invariant
//! `crates/core/tests/alloc_free.rs` enforces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::calibrate::CalibratedCosts;
use crate::cost::model::CostModel;
use crate::engine::{Algorithm, QueryTrace};
use ranksim_invindex::drop::omega;
use ranksim_rankings::{max_distance, ExecStats, ItemId, ItemRemap, QueryScratch, RankingStore};

/// Number of θ ranges with independent recalibration state. Raw
/// thresholds map linearly onto `0..THETA_BUCKETS`.
pub const THETA_BUCKETS: usize = 16;

/// EWMA step of the level-tracking loop.
const ALPHA: f64 = 0.25;

/// Length of one forced exploration *run* per candidate and θ-bucket
/// before the planner starts exploiting. Recording only ever updates the
/// *picked* arm, so without seeding every arm the planner could sit on a
/// good-but-not-best candidate forever (it never observes that an
/// unpicked arm is cheaper). Observations come in **consecutive runs**,
/// not interleaved single shots: measured switch penalties (cold caches,
/// scratch growth) decay over the first few queries after an executor
/// change, so each run's opening [`RUN_WARMUP`] observations are marked
/// provisional and discarded.
pub const EXPLORE_ROUNDS: usize = 4;

/// Provisional (discarded) openers of every run.
const RUN_WARMUP: u64 = 2;

/// Exploiting plans between full candidate repricings: in between, the
/// bucket's incumbent runs via a fast path that prices only itself
/// (planning overhead is a real tax on microsecond queries; per-query
/// switching inside one bucket is rare enough that an 8-query repricing
/// cadence loses nothing measurable).
const PRICE_EVERY: u64 = 8;

/// Period (in exploiting plans per bucket) of the re-observation refresh.
const REFRESH_EVERY: u64 = 64;
/// Length of one refresh run (the first [`RUN_WARMUP`] provisional).
const REFRESH_RUN: u64 = 4;
/// Band (× the cheapest *analytical* cost) an arm must be within to be
/// refresh-eligible. Eligibility is judged on the raw model on purpose:
/// measured levels can be poisoned by noisy anchors in either direction
/// — an unluckily-low anchor on the winner would otherwise price every
/// challenger out of the refresh rotation permanently — while the
/// analytical ranking is observation-independent and keeps every
/// model-plausible arm under periodic re-observation.
const REFRESH_BAND: f64 = 6.0;

/// Refresh windows per bucket before the refresh retires. By then every
/// plausible arm has been re-observed repeatedly and the levels have
/// converged; perpetual detours would be pure tax. A retired bucket
/// still adapts: the incumbent's level keeps tracking via exploit
/// records, and if it drifts above a challenger's frozen price the
/// argmin switches and the challenger's level resumes updating.
const REFRESH_MAX_WINDOWS: u64 = 12;

/// Near-tie stickiness: the incumbent (last exploited pick) keeps the
/// bucket while priced within `HYSTERESIS ×` of the argmin. Per-query
/// flip-flopping between near-tied executors thrashes their working sets
/// against each other — running the incumbent in streaks matches the
/// cache behavior the arms were calibrated under.
const HYSTERESIS: f64 = 1.25;

/// Fixed per-query work every algorithm pays regardless of posting
/// volume — building the flat query map, bumping the scratch epochs, and
/// per-list bookkeeping across the k probes — expressed in units of
/// posting-merge cost per query item. Without this floor the model
/// predicts near-zero cost for rare-item queries under the drop-family
/// algorithms, and a single measured observation then records a 20–50×
/// ratio that poisons the arm's correction multiplicatively.
const PER_ITEM_OVERHEAD_POSTINGS: f64 = 12.0;

/// Per-posting work of ListMerge relative to the calibrated merge
/// primitive (three epoch-cell updates per posting instead of one mark).
/// A prior only — the recalibration loop refines it online.
const LISTMERGE_POSTING_FACTOR: f64 = 3.0;
/// Per-posting work of the blocked scans (rank-block bookkeeping + NRA
/// bound updates). Prior, refined online.
const BLOCKED_POSTING_FACTOR: f64 = 2.0;
/// Per-posting work of AdaptSearch's delta-list probes. Prior, refined
/// online.
const ADAPT_POSTING_FACTOR: f64 = 1.5;

/// What the planner decided for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// The predicted-cheapest candidate.
    pub algorithm: Algorithm,
    /// Its predicted cost in calibrated nanoseconds (0 when the planner
    /// is degenerate: a single candidate or a sub-2-ranking corpus).
    pub predicted_ns: f64,
    /// The uncorrected analytical cost of the picked arm for this query
    /// (the level cell's EWMA denominator; also the price itself while
    /// the cell has no observations yet).
    pub raw_ns: f64,
    /// The θ-bucket the decision was made (and is recalibrated) in.
    pub bucket: usize,
    /// `true` when [`Planner::record`] must discard the observation:
    /// the opening queries of an exploration/refresh run (the executor
    /// just switched and runs cache-cold) and fast-path picks (their
    /// price is served from the level cell without a per-query model
    /// evaluation, so recording them would pair walls with a stale
    /// denominator).
    pub provisional: bool,
}

/// Accumulated planning telemetry (per worker, per batch, per sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// How often each concrete algorithm was picked, indexed by
    /// [`Algorithm::dense_index`].
    pub picks: [u64; Algorithm::COUNT],
    /// Queries that went through the planner.
    pub planned: u64,
    /// Sum of predicted costs (calibrated ns).
    pub predicted_ns: f64,
    /// Sum of measured executor runtimes (wall ns).
    pub actual_ns: f64,
}

impl Default for PlanStats {
    fn default() -> Self {
        PlanStats {
            picks: [0; Algorithm::COUNT],
            planned: 0,
            predicted_ns: 0.0,
            actual_ns: 0.0,
        }
    }
}

impl PlanStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query trace in (no-op for non-`Auto` traces).
    pub fn record(&mut self, trace: &QueryTrace) {
        if !trace.planned {
            return;
        }
        if let Some(slot) = trace.algorithm.dense_index() {
            self.picks[slot] += 1;
        }
        self.planned += 1;
        self.predicted_ns += trace.predicted_ns;
        self.actual_ns += trace.actual_ns;
    }

    /// Folds another accumulator in (batch-worker merge).
    pub fn merge(&mut self, other: &PlanStats) {
        for (a, b) in self.picks.iter_mut().zip(other.picks) {
            *a += b;
        }
        self.planned += other.planned;
        self.predicted_ns += other.predicted_ns;
        self.actual_ns += other.actual_ns;
    }

    /// Times `algorithm` was picked.
    pub fn picks_of(&self, algorithm: Algorithm) -> u64 {
        algorithm.dense_index().map_or(0, |s| self.picks[s])
    }
}

/// Fills the θ-indexed modeled `Coarse` cost table for one `θ_C` — the
/// single home of the Section 5 coarse cost term, shared by
/// [`Planner::build`] and [`Planner::refresh_corpus_stats`] so build-time
/// and refresh-time predictions can never drift apart. The breakdown's
/// filter term depends only on `θ_C`; only the validation term varies
/// with θ, through the relaxed-CDF lookup — one breakdown call plus the
/// prefix table covers the whole θ axis. `table.len()` must be
/// `d_max + 1` (= `cdf_prefix.len()`).
fn fill_coarse_table(
    table: &mut [f64],
    model: &CostModel,
    cdf_prefix: &[f64],
    n: usize,
    costs: CalibratedCosts,
    theta_c_raw: u32,
) {
    debug_assert_eq!(table.len(), cdf_prefix.len());
    let filter = model.breakdown(0, theta_c_raw).filter;
    for (d, slot) in table.iter_mut().enumerate() {
        let relaxed = (d + theta_c_raw as usize).min(cdf_prefix.len() - 1);
        *slot = filter + n as f64 * cdf_prefix[relaxed] * costs.footrule_ns;
    }
}

/// The per-engine query planner (one per shard in a sharded engine —
/// shards differ in size and distribution, so the same query may
/// legitimately take different paths on different shards).
pub struct Planner {
    n: usize,
    k: usize,
    d_max: u32,
    costs: CalibratedCosts,
    remap: Arc<ItemRemap>,
    /// Corpus posting length per dense item (the CSR arenas' list
    /// lengths, independent of which index structures were built).
    freqs: Vec<u32>,
    /// `P[X ≤ d]` per raw distance `d ∈ 0..=d_max` (O(1) lookups).
    cdf_prefix: Vec<f64>,
    /// Modeled `Coarse` cost per raw query threshold.
    coarse_cost: Vec<f64>,
    /// Modeled `Coarse+Drop` cost per raw query threshold.
    coarse_drop_cost: Vec<f64>,
    /// The planner's candidate set, in the paper's presentation order.
    candidates: Vec<Algorithm>,
    /// Measured wall-time level per (algorithm × bucket) cell: an EWMA
    /// over warm observed runtimes, f64 ns bits. Observed arms are
    /// priced by these *levels* (see [`Planner::cell_price`]), so a
    /// noisy observation shifts an arm's price additively-bounded
    /// instead of multiplying an unbounded ratio into it.
    wall_means: Vec<AtomicU64>,
    /// EWMA of the analytical cost over the same observations (the
    /// denominator normalizing query mix), f64 ns bits.
    raw_means: Vec<AtomicU64>,
    /// Observation counts per cell (anchor vs EWMA staging).
    observations: Vec<AtomicU64>,
    /// EWMA of the suffix-bound validation-pruning rate per cell
    /// (`validations_pruned / distance_calls` of observed executions,
    /// f64 bits in `[0, 1]`). Folded into [`Planner::raw_cost`]: a kernel
    /// that aborts most validations early makes an arm's distance term
    /// proportionally cheaper, and the model should predict that instead
    /// of waiting for the wall-time levels to discover it.
    pruned_rates: Vec<AtomicU64>,
    /// Per-bucket exploration cursors: while below
    /// `candidates.len() · EXPLORE_ROUNDS`, planning round-robins the
    /// candidate set to seed every correction cell.
    explored: Vec<AtomicU64>,
    /// Per-bucket incumbent (last exploited pick), `slot + 1`; 0 = none.
    incumbent: Vec<AtomicU64>,
    zipf_s: f64,
    /// `true` when the corpus is too small for the cost model (< 2
    /// rankings): the planner then always picks the first candidate.
    degenerate: bool,
    /// The engine's `θ_C` settings, kept so corpus-statistic refreshes
    /// can rebuild the θ-indexed coarse tables.
    coarse_theta_c_raw: u32,
    coarse_drop_theta_c_raw: u32,
    /// Mutations applied since the last full statistics refresh (the
    /// distance-CDF refresh budget counts these).
    pending_mutations: usize,
}

impl Planner {
    /// Builds the planner for a corpus: samples the distance CDF,
    /// estimates the Zipf skew, reads per-item posting lengths off the
    /// corpus, and precomputes the θ-indexed coarse cost tables for the
    /// engine's actual `θ_C` settings.
    pub fn build(
        store: &RankingStore,
        remap: Arc<ItemRemap>,
        candidates: Vec<Algorithm>,
        costs: CalibratedCosts,
        coarse_theta_c_raw: u32,
        coarse_drop_theta_c_raw: u32,
    ) -> Self {
        assert!(
            !candidates.is_empty(),
            "the planner needs at least one candidate algorithm"
        );
        debug_assert!(
            candidates.iter().all(|c| c.dense_index().is_some()),
            "candidates must be concrete algorithms"
        );
        let n = store.live_len();
        let k = store.k();
        let d_max = max_distance(k);
        let mut freqs = vec![0u32; remap.len()];
        for id in store.live_ids() {
            for &item in store.items(id) {
                // Unmapped items contribute no frequency mass: a partial
                // remap degrades cost estimates slightly (the planner is
                // a heuristic either way) instead of aborting the build.
                let Some(d) = remap.dense(item) else { continue };
                freqs[d as usize] += 1;
            }
        }
        let cells = |v: f64| -> Vec<AtomicU64> {
            (0..Algorithm::COUNT * THETA_BUCKETS)
                .map(|_| AtomicU64::new(v.to_bits()))
                .collect()
        };
        let wall_means = cells(0.0);
        let raw_means = cells(0.0);
        let pruned_rates = cells(0.0);
        let observations: Vec<AtomicU64> = (0..Algorithm::COUNT * THETA_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect();
        let explored: Vec<AtomicU64> = (0..THETA_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let incumbent: Vec<AtomicU64> = (0..THETA_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        if n < 2 {
            return Planner {
                n,
                k,
                d_max,
                costs,
                remap,
                freqs,
                cdf_prefix: vec![0.0; d_max as usize + 1],
                coarse_cost: vec![0.0; d_max as usize + 1],
                coarse_drop_cost: vec![0.0; d_max as usize + 1],
                candidates,
                wall_means,
                raw_means,
                observations,
                pruned_rates,
                explored,
                incumbent,
                zipf_s: 0.0,
                degenerate: true,
                coarse_theta_c_raw,
                coarse_drop_theta_c_raw,
                pending_mutations: 0,
            };
        }
        // CDF sample size scales with the corpus but stays bounded; the
        // seed is a pure function of n so rebuilding is deterministic.
        let pairs = n.saturating_mul(4).clamp(2_000, 20_000);
        let model = CostModel::from_store(store, pairs, 0xC0DEC ^ n as u64, costs);
        let cdf_prefix: Vec<f64> = (0..=d_max).map(|d| model.cdf().p_leq(d)).collect();
        let mut coarse_cost = vec![0.0; d_max as usize + 1];
        let mut coarse_drop_cost = vec![0.0; d_max as usize + 1];
        fill_coarse_table(
            &mut coarse_cost,
            &model,
            &cdf_prefix,
            n,
            costs,
            coarse_theta_c_raw,
        );
        if coarse_drop_theta_c_raw == coarse_theta_c_raw {
            coarse_drop_cost.copy_from_slice(&coarse_cost);
        } else {
            fill_coarse_table(
                &mut coarse_drop_cost,
                &model,
                &cdf_prefix,
                n,
                costs,
                coarse_drop_theta_c_raw,
            );
        }
        Planner {
            n,
            k,
            d_max,
            costs,
            remap,
            freqs,
            cdf_prefix,
            coarse_cost,
            coarse_drop_cost,
            candidates,
            wall_means,
            raw_means,
            observations,
            pruned_rates,
            explored,
            incumbent,
            zipf_s: model.zipf_s(),
            degenerate: false,
            coarse_theta_c_raw,
            coarse_drop_theta_c_raw,
            pending_mutations: 0,
        }
    }

    /// An independent copy with the learned state snapshotted by value:
    /// every atomic EWMA/exploration cell is copied at its current
    /// value, so the fork starts from the original's learned pricing and
    /// the two then learn independently (the planner only shapes `Auto`
    /// *picks* — all candidates are exact, so diverging learned state
    /// can never diverge results). Immutable inputs stay `Arc`-shared.
    pub(crate) fn fork(&self) -> Planner {
        let copy_cells = |v: &[AtomicU64]| -> Vec<AtomicU64> {
            v.iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect()
        };
        Planner {
            n: self.n,
            k: self.k,
            d_max: self.d_max,
            costs: self.costs,
            remap: self.remap.clone(),
            freqs: self.freqs.clone(),
            cdf_prefix: self.cdf_prefix.clone(),
            coarse_cost: self.coarse_cost.clone(),
            coarse_drop_cost: self.coarse_drop_cost.clone(),
            candidates: self.candidates.clone(),
            wall_means: copy_cells(&self.wall_means),
            raw_means: copy_cells(&self.raw_means),
            observations: copy_cells(&self.observations),
            pruned_rates: copy_cells(&self.pruned_rates),
            explored: copy_cells(&self.explored),
            incumbent: copy_cells(&self.incumbent),
            zipf_s: self.zipf_s,
            degenerate: self.degenerate,
            coarse_theta_c_raw: self.coarse_theta_c_raw,
            coarse_drop_theta_c_raw: self.coarse_drop_theta_c_raw,
            pending_mutations: self.pending_mutations,
        }
    }

    /// Snapshots the planner into its flat persistence form: every
    /// atomic level/exploration cell is read at its current value (the
    /// same consistency [`Planner::fork`] provides), f64 tables travel
    /// as raw bit patterns so a reload reprices queries bit-identically.
    pub(crate) fn to_saved(&self) -> PlannerSaved {
        let copy_cells =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
        PlannerSaved {
            n: self.n as u64,
            k: self.k as u32,
            d_max: self.d_max,
            footrule_ns: self.costs.footrule_ns,
            merge_posting_ns: self.costs.merge_posting_ns,
            zipf_s: self.zipf_s,
            degenerate: self.degenerate,
            coarse_theta_c_raw: self.coarse_theta_c_raw,
            coarse_drop_theta_c_raw: self.coarse_drop_theta_c_raw,
            pending_mutations: self.pending_mutations as u64,
            candidates: self
                .candidates
                .iter()
                .map(|c| c.dense_index().expect("concrete candidate") as u32)
                .collect(),
            freqs: self.freqs.clone(),
            cdf_prefix: self.cdf_prefix.clone(),
            coarse_cost: self.coarse_cost.clone(),
            coarse_drop_cost: self.coarse_drop_cost.clone(),
            wall_means: copy_cells(&self.wall_means),
            raw_means: copy_cells(&self.raw_means),
            observations: copy_cells(&self.observations),
            pruned_rates: copy_cells(&self.pruned_rates),
            explored: copy_cells(&self.explored),
            incumbent: copy_cells(&self.incumbent),
        }
    }

    /// Rebuilds a planner from its flat persistence form against the
    /// engine's (reloaded) remap. The learned per-(algorithm, θ-bucket)
    /// levels, exploration cursors and incumbents come back exactly, so
    /// a restarted engine plans warm: buckets that finished exploring
    /// serve the incumbent fast path immediately instead of re-running
    /// the forced exploration rounds.
    pub(crate) fn from_saved(saved: PlannerSaved, remap: Arc<ItemRemap>) -> Result<Self, String> {
        let k = saved.k as usize;
        if k == 0 {
            return Err("planner k must be positive".into());
        }
        if saved.d_max != max_distance(k) {
            return Err(format!(
                "planner d_max {} disagrees with max_distance({k}) = {}",
                saved.d_max,
                max_distance(k)
            ));
        }
        if saved.candidates.is_empty() {
            return Err("planner candidate set is empty".into());
        }
        let candidates = saved
            .candidates
            .iter()
            .map(|&slot| {
                Algorithm::from_dense_index(slot as usize)
                    .ok_or_else(|| format!("planner candidate slot {slot} names no algorithm"))
            })
            .collect::<Result<Vec<Algorithm>, String>>()?;
        if saved.freqs.len() != remap.len() {
            return Err(format!(
                "planner frequency table length {} != remap size {}",
                saved.freqs.len(),
                remap.len()
            ));
        }
        let table_len = saved.d_max as usize + 1;
        if saved.cdf_prefix.len() != table_len
            || saved.coarse_cost.len() != table_len
            || saved.coarse_drop_cost.len() != table_len
        {
            return Err("planner θ-indexed tables disagree with d_max".into());
        }
        let cells = Algorithm::COUNT * THETA_BUCKETS;
        if saved.wall_means.len() != cells
            || saved.raw_means.len() != cells
            || saved.observations.len() != cells
            || saved.pruned_rates.len() != cells
        {
            return Err(format!(
                "planner level tables must hold {cells} cells (8 algorithms × {THETA_BUCKETS} \
                 θ-buckets)"
            ));
        }
        if saved.explored.len() != THETA_BUCKETS || saved.incumbent.len() != THETA_BUCKETS {
            return Err(format!(
                "planner bucket cursors must hold {THETA_BUCKETS} cells"
            ));
        }
        if let Some(&bad) = saved
            .incumbent
            .iter()
            .find(|&&inc| inc > Algorithm::COUNT as u64)
        {
            return Err(format!("planner incumbent {bad} names no executor slot"));
        }
        let restore =
            |v: Vec<u64>| -> Vec<AtomicU64> { v.into_iter().map(AtomicU64::new).collect() };
        Ok(Planner {
            n: saved.n as usize,
            k,
            d_max: saved.d_max,
            costs: CalibratedCosts {
                footrule_ns: saved.footrule_ns,
                merge_posting_ns: saved.merge_posting_ns,
            },
            remap,
            freqs: saved.freqs,
            cdf_prefix: saved.cdf_prefix,
            coarse_cost: saved.coarse_cost,
            coarse_drop_cost: saved.coarse_drop_cost,
            candidates,
            wall_means: restore(saved.wall_means),
            raw_means: restore(saved.raw_means),
            observations: restore(saved.observations),
            pruned_rates: restore(saved.pruned_rates),
            explored: restore(saved.explored),
            incumbent: restore(saved.incumbent),
            zipf_s: saved.zipf_s,
            degenerate: saved.degenerate,
            coarse_theta_c_raw: saved.coarse_theta_c_raw,
            coarse_drop_theta_c_raw: saved.coarse_drop_theta_c_raw,
            pending_mutations: saved.pending_mutations as usize,
        })
    }

    /// Folds one insertion into the corpus statistics: `n` and the
    /// posting-length table track the live corpus exactly for items the
    /// remap knows; items first seen after the engine build join the
    /// table at the next compaction (their postings live in the delta
    /// overlay until then, which no base-index cost depends on). Pure
    /// counter work — no allocation, no distance calls.
    pub fn note_insert(&mut self, items: &[ItemId]) {
        self.n += 1;
        for &item in items {
            if let Some(d) = self.remap.dense(item) {
                self.freqs[d as usize] += 1;
            }
        }
        self.pending_mutations += 1;
    }

    /// Folds one removal into the corpus statistics (see
    /// [`Planner::note_insert`]).
    pub fn note_remove(&mut self, items: &[ItemId]) {
        self.n = self.n.saturating_sub(1);
        for &item in items {
            if let Some(d) = self.remap.dense(item) {
                let f = &mut self.freqs[d as usize];
                *f = f.saturating_sub(1);
            }
        }
        self.pending_mutations += 1;
    }

    /// Mutations folded in since the last [`Planner::refresh_corpus_stats`].
    pub fn pending_mutations(&self) -> usize {
        self.pending_mutations
    }

    /// Full corpus-statistics refresh: resamples the distance CDF over
    /// the live corpus, re-reads posting lengths, re-estimates the Zipf
    /// skew and rebuilds the θ-indexed coarse cost tables. The engine
    /// triggers this once the mutation budget is exhausted (and
    /// implicitly at every compaction, which rebuilds the planner). Runs
    /// at mutation time — never on the query path — so steady-state
    /// queries stay allocation-free. The learned per-(algorithm, bucket)
    /// level cells are **kept**: they track measured wall time, which a
    /// corpus drift shifts gradually, and the EWMA keeps absorbing it.
    pub fn refresh_corpus_stats(&mut self, store: &RankingStore) {
        self.pending_mutations = 0;
        self.n = store.live_len();
        self.freqs.iter_mut().for_each(|f| *f = 0);
        for id in store.live_ids() {
            for &item in store.items(id) {
                if let Some(d) = self.remap.dense(item) {
                    self.freqs[d as usize] += 1;
                }
            }
        }
        if self.n < 2 {
            self.degenerate = true;
            return;
        }
        let pairs = self.n.saturating_mul(4).clamp(2_000, 20_000);
        let model = CostModel::from_store(store, pairs, 0xC0DEC ^ self.n as u64, self.costs);
        for d in 0..=self.d_max {
            self.cdf_prefix[d as usize] = model.cdf().p_leq(d);
        }
        // Split the borrows: the prefix table is read, the cost tables
        // written.
        let cdf_prefix = std::mem::take(&mut self.cdf_prefix);
        fill_coarse_table(
            &mut self.coarse_cost,
            &model,
            &cdf_prefix,
            self.n,
            self.costs,
            self.coarse_theta_c_raw,
        );
        if self.coarse_drop_theta_c_raw == self.coarse_theta_c_raw {
            self.coarse_drop_cost.copy_from_slice(&self.coarse_cost);
        } else {
            fill_coarse_table(
                &mut self.coarse_drop_cost,
                &model,
                &cdf_prefix,
                self.n,
                self.costs,
                self.coarse_drop_theta_c_raw,
            );
        }
        self.cdf_prefix = cdf_prefix;
        self.zipf_s = model.zipf_s();
        self.degenerate = false;
    }

    /// The candidate set, in the paper's presentation order.
    pub fn candidates(&self) -> &[Algorithm] {
        &self.candidates
    }

    /// The estimated Zipf exponent of item popularity.
    pub fn zipf_s(&self) -> f64 {
        self.zipf_s
    }

    /// The calibrated machine primitives in use.
    pub fn costs(&self) -> CalibratedCosts {
        self.costs
    }

    /// The θ-bucket a raw threshold falls into.
    fn bucket_of(&self, theta_raw: u32) -> usize {
        ((theta_raw.min(self.d_max) as usize * THETA_BUCKETS) / (self.d_max as usize + 1))
            .min(THETA_BUCKETS - 1)
    }

    /// Price of one arm for the bucket: its measured wall-time level
    /// once the cell has warm observations, the analytical per-query
    /// cost before. Within a bucket the level is the decision-grade
    /// signal — per-query model swings on near-ties would thrash
    /// executors against each other — while unobserved arms (fresh
    /// buckets, cold candidates) are ranked by the model.
    fn cell_price(&self, slot: usize, bucket: usize, raw_q: f64) -> f64 {
        let idx = slot * THETA_BUCKETS + bucket;
        let wall = f64::from_bits(self.wall_means[idx].load(Ordering::Relaxed));
        if wall > 0.0 {
            wall
        } else {
            raw_q
        }
    }

    /// Picks the candidate for `(query, θ)`. While the bucket is still
    /// exploring (the first `candidates · EXPLORE_ROUNDS` plans), the
    /// candidate set is round-robined so every correction cell gets
    /// grounded in a measured observation; afterwards the planner
    /// exploits: it gathers the query items' posting lengths into
    /// `scratch.plan_freqs` (sorted ascending), prices every candidate,
    /// and returns the argmin — ties resolve to the earlier candidate in
    /// presentation order. No heap allocations once the scratch buffer
    /// has grown to `k`.
    pub fn plan(
        &self,
        query: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
    ) -> PlanDecision {
        let bucket = self.bucket_of(theta_raw);
        if self.degenerate || self.candidates.len() == 1 {
            return PlanDecision {
                algorithm: self.candidates[0],
                predicted_ns: 0.0,
                raw_ns: 0.0,
                bucket,
                provisional: false,
            };
        }
        let num = self.candidates.len();
        let explore_limit = (num * EXPLORE_ROUNDS) as u64;
        let turn = self.explored[bucket].fetch_add(1, Ordering::Relaxed);
        let slot_of = |alg: Algorithm| alg.dense_index().expect("concrete candidate");
        if turn >= explore_limit {
            let block = turn - explore_limit;
            let in_refresh =
                block % REFRESH_EVERY < REFRESH_RUN && block / REFRESH_EVERY < REFRESH_MAX_WINDOWS;
            let inc = self.incumbent[bucket].load(Ordering::Relaxed);
            if !in_refresh && inc > 0 && block % PRICE_EVERY != 0 {
                // Fast path: keep the incumbent and serve its price from
                // the level cell — no freq gathering, no sort, no
                // candidate pricing, and no recording (provisional): the
                // level cells only ever ingest consistent (wall, raw)
                // pairs from full-pricing queries, which sample the query
                // mix unbiasedly at 1/PRICE_EVERY rate. Planning overhead
                // is a real tax on microsecond queries, and between full
                // repricings the incumbent's tracked level is all the
                // decision needs.
                let slot = (inc - 1) as usize;
                let idx = slot * THETA_BUCKETS + bucket;
                let wall = f64::from_bits(self.wall_means[idx].load(Ordering::Relaxed));
                let raw = f64::from_bits(self.raw_means[idx].load(Ordering::Relaxed));
                if wall > 0.0 && raw > 0.0 {
                    return PlanDecision {
                        algorithm: Algorithm::from_dense_index(slot)
                            .expect("stored incumbent slot"),
                        predicted_ns: wall,
                        raw_ns: raw,
                        bucket,
                        provisional: true,
                    };
                }
            }
        }
        let mut freqs = std::mem::take(&mut scratch.plan_freqs);
        self.gather(query, &mut freqs);
        let decision = if turn < explore_limit {
            // Exploration: one run of EXPLORE_ROUNDS consecutive queries
            // per candidate; the run's openers are provisional (cold).
            let alg = self.candidates[(turn as usize / EXPLORE_ROUNDS) % num];
            let raw = self.raw_cost(alg, theta_raw, &freqs);
            PlanDecision {
                algorithm: alg,
                predicted_ns: self.cell_price(slot_of(alg), bucket, raw),
                raw_ns: raw,
                bucket,
                provisional: (turn as usize % EXPLORE_ROUNDS) < RUN_WARMUP as usize,
            }
        } else {
            let block = turn - explore_limit;
            let in_refresh =
                block % REFRESH_EVERY < REFRESH_RUN && block / REFRESH_EVERY < REFRESH_MAX_WINDOWS;
            // Full repricing: price every candidate, pick the argmin.
            let mut raws = [f64::INFINITY; Algorithm::COUNT];
            let mut prices = [f64::INFINITY; Algorithm::COUNT];
            let mut best = self.candidates[0];
            let mut best_cost = f64::INFINITY;
            for &alg in &self.candidates {
                let raw = self.raw_cost(alg, theta_raw, &freqs);
                let cost = self.cell_price(slot_of(alg), bucket, raw);
                raws[slot_of(alg)] = raw;
                prices[slot_of(alg)] = cost;
                if cost < best_cost {
                    best = alg;
                    best_cost = cost;
                }
            }
            if !in_refresh {
                // Near-tie stickiness: keep the incumbent while it stays
                // within HYSTERESIS of the argmin (streaks keep its
                // working set hot); otherwise crown the argmin.
                let inc = self.incumbent[bucket].load(Ordering::Relaxed);
                let mut pick = best;
                if inc > 0 {
                    let slot = (inc - 1) as usize;
                    if prices[slot].is_finite() && prices[slot] <= HYSTERESIS * best_cost {
                        pick = Algorithm::from_dense_index(slot).expect("stored incumbent slot");
                    }
                }
                self.incumbent[bucket].store((slot_of(pick) + 1) as u64, Ordering::Relaxed);
                PlanDecision {
                    algorithm: pick,
                    predicted_ns: prices[slot_of(pick)],
                    raw_ns: raws[slot_of(pick)],
                    bucket,
                    provisional: false,
                }
            } else {
                // Refresh run: successive windows cycle through the
                // model-plausible arms (candidate order), re-grounding
                // levels the argmin would otherwise never revisit.
                let raw_best = self
                    .candidates
                    .iter()
                    .map(|&a| raws[slot_of(a)])
                    .fold(f64::INFINITY, f64::min);
                let eligible = |alg: Algorithm| raws[slot_of(alg)] <= REFRESH_BAND * raw_best;
                let window = block / REFRESH_EVERY;
                let count = self.candidates.iter().filter(|&&a| eligible(a)).count() as u64;
                let alg = self
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&a| eligible(a))
                    .nth((window % count.max(1)) as usize)
                    .unwrap_or(best);
                PlanDecision {
                    algorithm: alg,
                    predicted_ns: prices[slot_of(alg)],
                    raw_ns: raws[slot_of(alg)],
                    bucket,
                    provisional: block % REFRESH_EVERY < RUN_WARMUP,
                }
            }
        };
        scratch.plan_freqs = freqs;
        decision
    }

    /// Feeds one measured outcome back into the decision's (algorithm,
    /// bucket) level cell. Provisional observations (the cache-cold
    /// openers of an exploration/refresh run) are discarded. The first
    /// kept observation anchors the cell (`wall_mean = actual`,
    /// `raw_mean = raw`); later ones blend in by EWMA with the
    /// per-observation movement of the wall level clamped to [½×, 2×] —
    /// one outlier measurement cannot catapult an arm out of contention,
    /// while consistent evidence still moves the level exponentially.
    /// Lock-free (relaxed atomics) so concurrent batch workers
    /// recalibrate the shared planner without coordination; a lost update
    /// only delays convergence by one observation.
    pub fn record(&self, decision: &PlanDecision, actual_ns: f64) {
        if decision.provisional
            || decision.raw_ns <= 0.0
            || !actual_ns.is_finite()
            || actual_ns <= 0.0
        {
            return;
        }
        let Some(slot) = decision.algorithm.dense_index() else {
            return;
        };
        let idx = slot * THETA_BUCKETS + decision.bucket;
        let seen = self.observations[idx].fetch_add(1, Ordering::Relaxed);
        let wall_cell = &self.wall_means[idx];
        let raw_cell = &self.raw_means[idx];
        let wall_old = f64::from_bits(wall_cell.load(Ordering::Relaxed));
        // Anchor on the first observation — also when `seen > 0` but the
        // cell still reads pristine: two workers can race the counter, and
        // EWMA-ing against a zero anchor would clamp the cell to 0 forever.
        if seen == 0 || wall_old <= 0.0 {
            wall_cell.store(actual_ns.to_bits(), Ordering::Relaxed);
            raw_cell.store(decision.raw_ns.to_bits(), Ordering::Relaxed);
            return;
        }
        let wall_new =
            (wall_old * (1.0 - ALPHA) + ALPHA * actual_ns).clamp(wall_old * 0.5, wall_old * 2.0);
        wall_cell.store(wall_new.to_bits(), Ordering::Relaxed);
        let raw_old = f64::from_bits(raw_cell.load(Ordering::Relaxed));
        let raw_new = raw_old * (1.0 - ALPHA) + ALPHA * decision.raw_ns;
        raw_cell.store(raw_new.to_bits(), Ordering::Relaxed);
    }

    /// [`Planner::record`] plus the early-termination counter: folds the
    /// execution's validation-pruning rate into the decision cell's rate
    /// EWMA, which [`Planner::raw_cost`] discounts the arm's distance
    /// terms by on future plans. Unlike the wall levels, the rate is a
    /// deterministic counter fact, so even provisional (cache-cold)
    /// observations update it.
    pub fn record_exec(&self, decision: &PlanDecision, actual_ns: f64, exec: &ExecStats) {
        self.record(decision, actual_ns);
        let Some(slot) = decision.algorithm.dense_index() else {
            return;
        };
        let idx = slot * THETA_BUCKETS + decision.bucket;
        let pruned_frac = if exec.distance_calls > 0 {
            exec.validations_pruned as f64 / exec.distance_calls as f64
        } else {
            0.0
        };
        let pruned_frac = pruned_frac.clamp(0.0, 1.0);
        let cell = &self.pruned_rates[idx];
        let old = f64::from_bits(cell.load(Ordering::Relaxed));
        // Zero bits double as "never observed": anchoring there (and
        // whenever the rate decayed to exactly 0) costs nothing — rates
        // are bounded in [0, 1] — and grounds the cell in one observation
        // instead of a slow climb from the zero prior.
        let new = if old == 0.0 {
            pruned_frac
        } else {
            old * (1.0 - ALPHA) + ALPHA * pruned_frac
        };
        cell.store(new.to_bits(), Ordering::Relaxed);
    }

    /// The learned validation-pruning rate of one (algorithm, θ-bucket)
    /// cell (0 before any observation).
    fn pruned_rate(&self, algorithm: Algorithm, bucket: usize) -> f64 {
        let Some(slot) = algorithm.dense_index() else {
            return 0.0;
        };
        let idx = slot * THETA_BUCKETS + bucket.min(THETA_BUCKETS - 1);
        f64::from_bits(self.pruned_rates[idx].load(Ordering::Relaxed)).clamp(0.0, 1.0)
    }

    /// Heap footprint of the planner's tables.
    pub fn heap_bytes(&self) -> usize {
        self.freqs.capacity() * std::mem::size_of::<u32>()
            + self.cdf_prefix.capacity() * std::mem::size_of::<f64>()
            + self.coarse_cost.capacity() * std::mem::size_of::<f64>()
            + self.coarse_drop_cost.capacity() * std::mem::size_of::<f64>()
            + self.candidates.capacity() * std::mem::size_of::<Algorithm>()
            + (self.wall_means.capacity()
                + self.raw_means.capacity()
                + self.observations.capacity()
                + self.explored.capacity()
                + self.incumbent.capacity())
                * std::mem::size_of::<AtomicU64>()
    }

    /// Query-item posting lengths, ascending.
    fn gather(&self, query: &[ItemId], out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            query
                .iter()
                .map(|&item| self.remap.dense(item).map_or(0, |d| self.freqs[d as usize])),
        );
        out.sort_unstable();
    }

    /// Expected size of the union of the postings lists with the given
    /// lengths: `n · (1 − Π (1 − fᵢ/n))` — independent-membership
    /// approximation, exact in expectation for random corpora.
    fn union_estimate(&self, freqs: &[u32]) -> f64 {
        let n = self.n as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mut miss = 1.0;
        for &f in freqs {
            miss *= 1.0 - (f as f64 / n).min(1.0);
        }
        n * (1.0 - miss)
    }

    /// Fraction of candidates the NRA-style bounds are expected to leave
    /// for full validation at threshold `θ` (clamped CDF of `2θ`).
    fn validated_fraction(&self, theta_raw: u32) -> f64 {
        let d = (theta_raw.saturating_mul(2)).min(self.d_max) as usize;
        self.cdf_prefix[d].clamp(0.02, 1.0)
    }

    /// Lists kept by the Lemma 2 dropping policy (shortest-first).
    fn kept(&self, theta_raw: u32) -> usize {
        (self.k - omega(self.k, theta_raw).min(self.k)).max(1)
    }

    /// The analytical per-(query, θ) cost of one algorithm, in calibrated
    /// nanoseconds, over the ascending posting lengths of the query's
    /// items. Every arm carries the fixed per-query floor so ratios of
    /// actual to predicted cost stay bounded even for near-free queries.
    ///
    /// The learned validation-pruning rate of the arm's `(algorithm,
    /// θ-bucket)` cell discounts the validation terms by `0.7 ×` that
    /// rate (an aborted validation still pays the chunks before its early
    /// exit, so at most 70 % of a validation is ever saved). A fresh
    /// planner has the rate at 0 and prices exactly the unscaled model.
    fn raw_cost(&self, algorithm: Algorithm, theta_raw: u32, freqs: &[u32]) -> f64 {
        let merge = self.costs.merge_posting_ns;
        let foot = self.costs.footrule_ns;
        let base = self.k as f64 * merge * PER_ITEM_OVERHEAD_POSTINGS;
        let sum = |fs: &[u32]| fs.iter().map(|&f| f as f64).sum::<f64>();
        let foot_scale = 1.0 - 0.7 * self.pruned_rate(algorithm, self.bucket_of(theta_raw));
        base + match algorithm {
            Algorithm::Fv => merge * sum(freqs) + foot_scale * foot * self.union_estimate(freqs),
            Algorithm::FvDrop => {
                let kept = &freqs[..self.kept(theta_raw).min(freqs.len())];
                merge * sum(kept) + foot_scale * foot * self.union_estimate(kept)
            }
            Algorithm::ListMerge => LISTMERGE_POSTING_FACTOR * merge * sum(freqs),
            Algorithm::BlockedPrune => {
                BLOCKED_POSTING_FACTOR * merge * sum(freqs)
                    + foot_scale
                        * foot
                        * self.union_estimate(freqs)
                        * self.validated_fraction(theta_raw)
            }
            Algorithm::BlockedPruneDrop => {
                let kept = &freqs[..self.kept(theta_raw).min(freqs.len())];
                BLOCKED_POSTING_FACTOR * merge * sum(kept)
                    + foot_scale
                        * foot
                        * self.union_estimate(kept)
                        * self.validated_fraction(theta_raw)
            }
            Algorithm::AdaptSearch => {
                // ℓ = 1 prefix scheme: the (k − c + 1) rarest items' delta
                // lists, each a (prefix/k)-slice of the item's postings.
                let c = omega(self.k, theta_raw).max(1).min(self.k);
                let prefix = (self.k - c + 1).min(freqs.len()).max(1);
                let kept = &freqs[..prefix];
                let scale = prefix as f64 / self.k.max(1) as f64;
                let scanned = scale * sum(kept);
                ADAPT_POSTING_FACTOR * merge * scanned
                    + foot_scale * foot * scanned.min(self.union_estimate(kept))
            }
            Algorithm::Coarse => self.coarse_cost[theta_raw.min(self.d_max) as usize],
            Algorithm::CoarseDrop => self.coarse_drop_cost[theta_raw.min(self.d_max) as usize],
            Algorithm::Auto => unreachable!("Auto is resolved by the planner, not priced"),
        }
    }
}

/// Flat persistence form of a [`Planner`]: scalars plus plain vectors
/// (atomic level cells snapshotted to `u64` f64-bit patterns), the shape
/// `crate::persist` serializes into the snapshot's planner section.
/// The remap is deliberately absent — it is engine-owned state and gets
/// re-linked at load time.
#[derive(Debug, Clone)]
pub(crate) struct PlannerSaved {
    pub n: u64,
    pub k: u32,
    pub d_max: u32,
    pub footrule_ns: f64,
    pub merge_posting_ns: f64,
    pub zipf_s: f64,
    pub degenerate: bool,
    pub coarse_theta_c_raw: u32,
    pub coarse_drop_theta_c_raw: u32,
    pub pending_mutations: u64,
    /// Dense executor slots ([`Algorithm::dense_index`]).
    pub candidates: Vec<u32>,
    pub freqs: Vec<u32>,
    pub cdf_prefix: Vec<f64>,
    pub coarse_cost: Vec<f64>,
    pub coarse_drop_cost: Vec<f64>,
    /// f64 bit patterns (`Algorithm::COUNT × THETA_BUCKETS` cells).
    pub wall_means: Vec<u64>,
    /// f64 bit patterns (`Algorithm::COUNT × THETA_BUCKETS` cells).
    pub raw_means: Vec<u64>,
    pub observations: Vec<u64>,
    /// f64 bit patterns in `[0, 1]` (same cell grid).
    pub pruned_rates: Vec<u64>,
    pub explored: Vec<u64>,
    pub incumbent: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use ranksim_datasets::{nyt_like, workload, WorkloadParams};
    use ranksim_rankings::{raw_threshold, QueryStats};

    /// The measured-over-modeled correction of one (algorithm, bucket)
    /// cell: `wall_mean / raw_mean` once the cell has warm observations,
    /// 1.0 (pure model prior) before; clamped so it stays finite.
    fn correction(planner: &Planner, algorithm: Algorithm, bucket: usize) -> f64 {
        let slot = algorithm.dense_index().expect("concrete algorithm");
        let idx = slot * THETA_BUCKETS + bucket.min(THETA_BUCKETS - 1);
        let wall = f64::from_bits(planner.wall_means[idx].load(Ordering::Relaxed));
        let raw = f64::from_bits(planner.raw_means[idx].load(Ordering::Relaxed));
        if wall > 0.0 && raw > 0.0 {
            (wall / raw).clamp(1e-3, 1e3)
        } else {
            1.0
        }
    }

    /// The *uncorrected* analytical cost (calibrated ns) of one candidate
    /// for `(query, θ)`: the model prior before any recalibration.
    fn raw_model_cost(
        planner: &Planner,
        algorithm: Algorithm,
        query: &[ItemId],
        theta_raw: u32,
    ) -> f64 {
        if planner.degenerate {
            return 0.0;
        }
        let mut freqs = Vec::new();
        planner.gather(query, &mut freqs);
        planner.raw_cost(algorithm, theta_raw, &freqs)
    }

    /// The corrected predicted cost of one candidate — what
    /// [`Planner::plan`] compares.
    fn predicted_cost(planner: &Planner, algorithm: Algorithm, q: &[ItemId], theta: u32) -> f64 {
        let raw = raw_model_cost(planner, algorithm, q, theta);
        let slot = algorithm.dense_index().expect("concrete algorithm");
        planner.cell_price(slot, planner.bucket_of(theta), raw)
    }

    fn planner_for(n: usize, candidates: &[Algorithm]) -> (crate::engine::Engine, QueryScratch) {
        let ds = nyt_like(n, 10, 77);
        let mut sel = vec![Algorithm::Auto];
        sel.extend_from_slice(candidates);
        let engine = EngineBuilder::new(ds.store)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06)
            .algorithms(&sel)
            .calibrated_costs(CalibratedCosts::nominal(10))
            .build();
        let scratch = engine.scratch();
        (engine, scratch)
    }

    /// Drains a bucket's forced exploration phase plus the first refresh
    /// run with neutral feedback (wall = raw prediction), leaving every
    /// cell's correction at ~1 and the next plan a plain argmin.
    fn drain_exploration(
        planner: &Planner,
        q: &[ItemId],
        theta_raw: u32,
        scratch: &mut QueryScratch,
    ) {
        for _ in 0..Algorithm::COUNT * EXPLORE_ROUNDS + REFRESH_RUN as usize + 1 {
            let d = planner.plan(q, theta_raw, scratch);
            planner.record(&d, d.raw_ns);
        }
    }

    #[test]
    fn exploration_round_robins_every_candidate_before_exploiting() {
        let (engine, mut scratch) = planner_for(600, &Algorithm::ALL);
        let planner = engine.planner().unwrap();
        let q: Vec<ItemId> = engine
            .store()
            .items(ranksim_rankings::RankingId(5))
            .to_vec();
        let theta = raw_threshold(0.15, 10);
        let mut seen = [0u32; Algorithm::COUNT];
        for _ in 0..Algorithm::COUNT * EXPLORE_ROUNDS {
            let d = planner.plan(&q, theta, &mut scratch);
            seen[d.algorithm.dense_index().unwrap()] += 1;
            planner.record(&d, d.raw_ns);
        }
        assert!(
            seen.iter().all(|&s| s as usize == EXPLORE_ROUNDS),
            "every candidate must be explored exactly {EXPLORE_ROUNDS}× per bucket, got {seen:?}"
        );
    }

    #[test]
    fn plan_picks_the_argmin_once_exploration_is_done() {
        let (engine, mut scratch) = planner_for(800, &Algorithm::ALL);
        let planner = engine.planner().expect("Auto builds a planner");
        assert_eq!(planner.candidates(), &Algorithm::ALL);
        let q: Vec<ItemId> = engine
            .store()
            .items(ranksim_rankings::RankingId(3))
            .to_vec();
        for theta in [0u32, 10, 30, 60] {
            drain_exploration(planner, &q, theta, &mut scratch);
            let d = planner.plan(&q, theta, &mut scratch);
            assert!(Algorithm::ALL.contains(&d.algorithm));
            assert!(d.predicted_ns.is_finite() && d.predicted_ns >= 0.0);
            assert_eq!(d.bucket, planner.bucket_of(theta));
            // The decision is the argmin over the candidate prices.
            for alg in Algorithm::ALL {
                let c = predicted_cost(planner, alg, &q, theta);
                assert!(
                    c >= d.predicted_ns - 1e-9,
                    "{alg} priced below the chosen {} at θ={theta}",
                    d.algorithm
                );
            }
        }
    }

    #[test]
    fn bucket_mapping_covers_the_threshold_axis() {
        let (engine, _) = planner_for(300, &[Algorithm::Fv, Algorithm::Coarse]);
        let planner = engine.planner().unwrap();
        let d_max = max_distance(10);
        assert_eq!(planner.bucket_of(0), 0);
        assert_eq!(planner.bucket_of(d_max), THETA_BUCKETS - 1);
        assert_eq!(planner.bucket_of(d_max * 10), THETA_BUCKETS - 1);
        let mut prev = 0usize;
        for t in 0..=d_max {
            let b = planner.bucket_of(t);
            assert!(b >= prev && b < THETA_BUCKETS);
            prev = b;
        }
    }

    #[test]
    fn recalibration_moves_the_decision_toward_measured_reality() {
        let (engine, mut scratch) = planner_for(1000, &[Algorithm::Fv, Algorithm::ListMerge]);
        let planner = engine.planner().unwrap();
        let q: Vec<ItemId> = engine
            .store()
            .items(ranksim_rankings::RankingId(0))
            .to_vec();
        let theta = raw_threshold(0.1, 10);
        drain_exploration(planner, &q, theta, &mut scratch);
        let first = planner.plan(&q, theta, &mut scratch).algorithm;
        let other = if first == Algorithm::Fv {
            Algorithm::ListMerge
        } else {
            Algorithm::Fv
        };
        // Feed back observations: the chosen arm measures 40× its
        // prediction. The level EWMA must push the planner to the other
        // candidate within a few plans.
        for _ in 0..64 {
            let d = planner.plan(&q, theta, &mut scratch);
            if d.algorithm == other {
                return; // switched — recalibration worked
            }
            planner.record(&d, d.predicted_ns * 40.0);
        }
        panic!("planner never abandoned a 40×-mispredicted arm");
    }

    #[test]
    fn corrections_stay_within_clamps_and_start_at_one() {
        let (engine, mut scratch) = planner_for(400, &[Algorithm::Fv, Algorithm::Coarse]);
        let planner = engine.planner().unwrap();
        assert_eq!(correction(planner, Algorithm::Fv, 0), 1.0);
        let q: Vec<ItemId> = engine
            .store()
            .items(ranksim_rankings::RankingId(1))
            .to_vec();
        drain_exploration(planner, &q, 5, &mut scratch);
        // Fast-path picks are provisional (never recorded); walk to the
        // next full-pricing plan, which is a recordable observation.
        let mut d = planner.plan(&q, 5, &mut scratch);
        while d.provisional {
            d = planner.plan(&q, 5, &mut scratch);
        }
        for _ in 0..200 {
            planner.record(&d, d.predicted_ns * 1e9);
        }
        assert!(correction(planner, d.algorithm, d.bucket) <= 1e3);
        // Degenerate wall actuals are ignored.
        planner.record(&d, f64::NAN);
        planner.record(&d, -1.0);
        assert!(correction(planner, d.algorithm, d.bucket).is_finite());
    }

    #[test]
    fn degenerate_corpus_always_picks_the_first_candidate() {
        use ranksim_rankings::RankingStore;
        let mut store = RankingStore::new(4);
        store.push_items_unchecked(&[1, 2, 3, 4].map(ItemId));
        let engine = EngineBuilder::new(store)
            .algorithms(&[Algorithm::Auto, Algorithm::ListMerge, Algorithm::Fv])
            .calibrated_costs(CalibratedCosts::nominal(4))
            .build();
        let planner = engine.planner().unwrap();
        let mut scratch = engine.scratch();
        let q: Vec<ItemId> = [1u32, 2, 3, 4].map(ItemId).to_vec();
        let d = planner.plan(&q, 6, &mut scratch);
        // Presentation order puts Fv before ListMerge.
        assert_eq!(d.algorithm, Algorithm::Fv);
        assert_eq!(d.predicted_ns, 0.0);
    }

    /// The satellite calibration check: the θ at which the *predicted*
    /// F&V and Coarse costs cross must match the crossover of the
    /// *measured* costs (actual postings/DFC counts priced with the same
    /// calibrated primitives — deterministic, no wall clocks) within two
    /// grid steps (0.10 normalized θ).
    #[test]
    fn predicted_fv_coarse_crossover_matches_measured() {
        let ds = nyt_like(2500, 10, 4);
        let domain = ds.params.domain;
        let costs = CalibratedCosts::nominal(10);
        let engine = EngineBuilder::new(ds.store)
            .coarse_threshold(0.5)
            .algorithms(&[Algorithm::Auto, Algorithm::Fv, Algorithm::Coarse])
            .calibrated_costs(costs)
            .build();
        let planner = engine.planner().expect("Auto builds the planner");
        let wl = workload(
            engine.store(),
            domain,
            WorkloadParams {
                num_queries: 25,
                seed: 5,
                ..Default::default()
            },
        );
        let mut scratch = engine.scratch();
        let grid: Vec<f64> = (0..=8).map(|i| i as f64 * 0.05).collect();
        let unit = |s: &QueryStats| {
            s.entries_scanned as f64 * costs.merge_posting_ns
                + s.distance_calls as f64 * costs.footrule_ns
        };
        let mut pred_coarse_wins = Vec::new();
        let mut meas_coarse_wins = Vec::new();
        for &t in &grid {
            let raw = raw_threshold(t, 10);
            let (mut pf, mut pc) = (0.0f64, 0.0f64);
            let mut sf = QueryStats::new();
            let mut sc = QueryStats::new();
            let mut out = Vec::new();
            for q in &wl.queries {
                pf += raw_model_cost(planner, Algorithm::Fv, q, raw);
                pc += raw_model_cost(planner, Algorithm::Coarse, q, raw);
                engine.query_into(Algorithm::Fv, q, raw, &mut scratch, &mut sf, &mut out);
                engine.query_into(Algorithm::Coarse, q, raw, &mut scratch, &mut sc, &mut out);
            }
            pred_coarse_wins.push(pc < pf);
            meas_coarse_wins.push(unit(&sc) < unit(&sf));
        }
        assert!(
            meas_coarse_wins[0],
            "Coarse must win at θ=0 on clustered data for the crossover to exist"
        );
        let crossover = |wins: &[bool]| wins.iter().position(|&w| !w).unwrap_or(wins.len());
        let p = crossover(&pred_coarse_wins);
        let m = crossover(&meas_coarse_wins);
        assert!(
            p.abs_diff(m) <= 2,
            "predicted crossover at grid index {p} (θ≈{:.2}) vs measured {m} (θ≈{:.2}); \
             predicted wins {pred_coarse_wins:?}, measured wins {meas_coarse_wins:?}",
            0.05 * p as f64,
            0.05 * m as f64,
        );
    }
}
