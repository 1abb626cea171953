//! Reusable, allocation-free per-query working memory.
//!
//! Every query-processing algorithm in this workspace needs some per-query
//! associative state: the query's item → rank map, a candidate set, a
//! count or bound accumulator per candidate ranking. Allocating fresh hash
//! maps per query is exactly the overhead the hot path cannot afford, so
//! this module provides **epoch-versioned sparse arrays**: flat vectors
//! indexed by dense coordinates ([`crate::ItemRemap`] dense item ids on
//! the query side, `RankingId` indices on the candidate side) whose
//! entries are valid only when their stamp equals the current epoch.
//! "Clearing" is a single epoch bump; steady-state queries therefore touch
//! no allocator at all once the arrays have grown to the corpus size.
//!
//! ## Epoch invariants
//!
//! * The epoch counter starts at 1 and is bumped by [`EpochMap::begin`];
//!   a stamp of 0 is never current, so freshly grown (zeroed) array tails
//!   are automatically "absent".
//! * On `u32` wrap the stamp array is zeroed once and the epoch restarts
//!   at 1 — correctness never depends on stamps from 4 billion queries
//!   ago.
//! * Keys removed via [`EpochMap::retain`] get their stamp reset to 0, so
//!   membership tests and re-insertions behave as if the key was never
//!   seen this epoch.

use crate::footrule::one_side_total;
use crate::kernel::KERNEL_CHUNK;
use crate::ranking::{ItemId, RankingId};
use crate::remap::ItemRemap;

/// An epoch-versioned sparse map from a dense `u32` key space to copyable
/// values, with insertion-ordered key iteration.
#[derive(Debug, Clone, Default)]
pub struct EpochMap<T> {
    epoch: u32,
    stamps: Vec<u32>,
    vals: Vec<T>,
    keys: Vec<u32>,
}

impl<T: Copy + Default> EpochMap<T> {
    /// An empty map; arrays grow on [`EpochMap::begin`].
    pub fn new() -> Self {
        EpochMap {
            epoch: 0,
            stamps: Vec::new(),
            vals: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Starts a new epoch over the key universe `0..universe`. All prior
    /// entries become absent; allocates only when the universe grew.
    pub fn begin(&mut self, universe: usize) {
        if self.stamps.len() < universe {
            self.stamps.resize(universe, 0);
            self.vals.resize(universe, T::default());
        }
        self.keys.clear();
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Whether `key` is present this epoch.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.stamps[key as usize] == self.epoch
    }

    /// The value of `key`, if present this epoch.
    #[inline]
    pub fn get(&self, key: u32) -> Option<T> {
        if self.contains(key) {
            Some(self.vals[key as usize])
        } else {
            None
        }
    }

    /// Mutable access to the value of `key`, if present this epoch.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        if self.contains(key) {
            Some(&mut self.vals[key as usize])
        } else {
            None
        }
    }

    /// Inserts `key` with `val`; `key` must be absent this epoch.
    #[inline]
    pub fn insert(&mut self, key: u32, val: T) {
        debug_assert!(!self.contains(key), "duplicate insert of key {key}");
        self.stamps[key as usize] = self.epoch;
        self.vals[key as usize] = val;
        self.keys.push(key);
    }

    /// Marks `key` as present (default value if new); returns a mutable
    /// reference to its value.
    #[inline]
    pub fn probe(&mut self, key: u32) -> &mut T {
        let i = key as usize;
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.vals[i] = T::default();
            self.keys.push(key);
        }
        &mut self.vals[i]
    }

    /// Marks `key` as present with the default value; returns whether the
    /// key was newly inserted.
    #[inline]
    pub fn mark(&mut self, key: u32) -> bool {
        let i = key as usize;
        if self.stamps[i] == self.epoch {
            return false;
        }
        self.stamps[i] = self.epoch;
        self.vals[i] = T::default();
        self.keys.push(key);
        true
    }

    /// The keys present this epoch, in insertion order.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Number of present keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key is present this epoch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keeps only the entries for which `f` returns `true`, preserving
    /// insertion order; removed keys become absent.
    pub fn retain(&mut self, mut f: impl FnMut(u32, &mut T) -> bool) {
        let mut w = 0usize;
        for r in 0..self.keys.len() {
            let key = self.keys[r];
            if f(key, &mut self.vals[key as usize]) {
                self.keys[w] = key;
                w += 1;
            } else {
                self.stamps[key as usize] = 0;
            }
        }
        self.keys.truncate(w);
    }
}

/// An epoch-versioned sparse set (an [`EpochMap`] without payload).
pub type EpochSet = EpochMap<()>;

/// A flat, epoch-versioned variant of [`crate::PositionMap`]: the query's
/// item → rank map stored in dense-item-id arrays so a candidate item
/// lookup is two array loads instead of a hash probe.
///
/// Query items missing from the corpus (hence from the remap) are simply
/// not stored; they can never match a stored candidate item, and the
/// distance formula accounts for them through the query-side base total.
#[derive(Debug, Clone, Default)]
pub struct FlatPositionMap {
    k: u32,
    epoch: u32,
    stamps: Vec<u32>,
    ranks: Vec<u32>,
}

impl FlatPositionMap {
    /// An empty map; sized on first [`FlatPositionMap::build`].
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)builds the map for a query ranking. `O(k)`, allocation-free
    /// once the arrays cover the remap's dense id space.
    pub fn build(&mut self, remap: &ItemRemap, query: &[ItemId]) {
        self.k = query.len() as u32;
        let m = remap.len();
        if self.stamps.len() < m {
            self.stamps.resize(m, 0);
            self.ranks.resize(m, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        for (r, &item) in query.iter().enumerate() {
            if let Some(d) = remap.dense(item) {
                debug_assert_ne!(
                    self.stamps[d as usize], self.epoch,
                    "duplicate item in query ranking"
                );
                self.stamps[d as usize] = self.epoch;
                self.ranks[d as usize] = r as u32;
            }
        }
    }

    /// The ranking size `k` of the current query.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The query rank of the item with dense id `d`, if contained.
    #[inline]
    fn rank_of_dense(&self, d: u32) -> Option<u32> {
        if self.stamps[d as usize] == self.epoch {
            Some(self.ranks[d as usize])
        } else {
            None
        }
    }

    /// The query rank of `item`, if contained.
    #[inline]
    pub fn rank_of(&self, remap: &ItemRemap, item: ItemId) -> Option<u32> {
        self.rank_of_dense(remap.dense(item)?)
    }

    /// Footrule distance from the current query to `candidate`
    /// (rank-ordered items of an equal-size ranking). Mirrors
    /// [`crate::PositionMap::distance_to`].
    pub fn distance_to(&self, remap: &ItemRemap, candidate: &[ItemId]) -> u32 {
        debug_assert_eq!(candidate.len() as u32, self.k);
        let k = self.k;
        let mut dist = one_side_total(k as usize);
        for (p, &item) in candidate.iter().enumerate() {
            let p = p as u32;
            match self.rank_of(remap, item) {
                Some(qp) => {
                    dist += p.abs_diff(qp);
                    dist -= k - qp;
                }
                None => dist += k - p,
            }
        }
        dist
    }

    /// Threshold-aware distance: `Some(d)` when the walk ran to
    /// completion (`d` is the exact distance, whether or not it is within
    /// `theta_raw`), `None` **strictly** when the suffix-bound early exit
    /// proved the candidate outside `theta_raw` before finishing. Callers
    /// therefore treat `None` as a guaranteed miss and may count it as a
    /// pruned validation; the membership verdict always equals
    /// `distance_to(..) <= theta_raw`.
    ///
    /// The walk is chunked and branchless: candidate ranks are gathered
    /// into a small stack buffer with the artificial rank `l = k` standing
    /// in for items missing from the query, which collapses the matched
    /// and unmatched cases into one arithmetic expression
    /// (`|p − q_p| − (k − q_p)`; with `q_p = k` this is exactly the
    /// unmatched contribution `k − p`).
    ///
    /// The bound, checked at each chunk boundary: each remaining position
    /// `p` contributes at least `p − k` (minimizing `|p − q_p| + q_p` over
    /// `q_p ∈ 0..=k` attains `p`), so after `j` processed items the final
    /// distance is at least `partial_j − T(k − j)` with `T(m) = m(m+1)/2`.
    pub fn distance_within(
        &self,
        remap: &ItemRemap,
        candidate: &[ItemId],
        theta_raw: u32,
    ) -> Option<u32> {
        debug_assert_eq!(candidate.len() as u32, self.k);
        let k = self.k as i32;
        let t_k = one_side_total(self.k as usize) as i32;
        // Any θ at or above the distance ceiling k(k+1) never prunes;
        // clamping also keeps the comparison in i32 for pathological θ.
        let theta = theta_raw.min(2 * t_k as u32) as i32;
        let mut sum = 0i32;
        let mut qps = [0i32; KERNEL_CHUNK];
        let len = candidate.len();
        let mut p = 0usize;
        while p < len {
            let n = KERNEL_CHUNK.min(len - p);
            for (j, &item) in candidate[p..p + n].iter().enumerate() {
                qps[j] = self.rank_of(remap, item).map_or(k, |q| q as i32);
            }
            for (j, &qp) in qps[..n].iter().enumerate() {
                let pp = (p + j) as i32;
                sum += (pp - qp).abs() - (k - qp);
            }
            p += n;
            if p < len && t_k + sum - one_side_total(len - p) as i32 > theta {
                return None;
            }
        }
        Some((t_k + sum) as u32)
    }

    /// Number of common items between the query and `candidate`.
    pub fn overlap(&self, remap: &ItemRemap, candidate: &[ItemId]) -> usize {
        candidate
            .iter()
            .filter(|&&i| self.rank_of(remap, i).is_some())
            .count()
    }
}

/// All per-query working memory of the engine, reused across queries.
///
/// One `QueryScratch` serves every algorithm (they run one at a time per
/// scratch); a warmed-up scratch makes steady-state query processing
/// perform **zero** heap allocations. The fields are public so the
/// algorithm crates can borrow them disjointly; they carry no state that
/// outlives a query beyond buffer capacity.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Flat query-side position map (F&V validation, Blocked fallback,
    /// AdaptSearch verification).
    pub qmap: FlatPositionMap,
    /// Marker set over ranking ids (F&V candidate set; Blocked "decided").
    pub marks: EpochSet,
    /// `u32` accumulator over ranking ids (AdaptSearch prefix counts).
    pub counts: EpochMap<u32>,
    /// `(exact, tau_side, q_side)` aggregation cells over ranking ids
    /// (Blocked+Prune candidate bounds; ListMerge contributions).
    pub cells: EpochMap<[u32; 3]>,
    /// Retained query positions (Lemma 2 list dropping).
    pub positions: Vec<usize>,
    /// Position sort buffer for the dropping heuristic.
    pub positions_tmp: Vec<usize>,
    /// `(id, distance)` hits of the F&V core (consumed by the coarse
    /// filter).
    pub hits: Vec<(RankingId, u32)>,
    /// `(partition, medoid distance)` pairs of the coarse filter phase.
    pub filtered: Vec<(u32, u32)>,
    /// Query items reordered by global frequency (AdaptSearch).
    pub qsorted: Vec<ItemId>,
    /// Item-sorted `(item, rank)` query pairs (coarse validation).
    pub qp: Vec<(ItemId, u32)>,
    /// BK-tree traversal stack (coarse validation).
    pub tree_stack: Vec<u32>,
    /// Query-item corpus frequencies, sorted ascending (cost-model
    /// planner input; grows to `k` once and is then reused).
    pub plan_freqs: Vec<u32>,
    /// The corpus-generation stamp of the engine this scratch last served
    /// (see [`QueryScratch::ensure_generation`]); 0 = never stamped.
    generation: u64,
}

impl QueryScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generation-counter invalidation: engines stamp every query with
    /// their corpus generation (bumped on insert/remove/compact). On a
    /// stamp change the scratch drops all residual buffer *contents* —
    /// capacity is kept, so the cost is a handful of `clear()`s right
    /// after a mutation and zero in steady state. The epoch structures are
    /// self-invalidating per query already; this guards the plain `Vec`
    /// buffers against any stale cross-query reuse on a corpus that
    /// changed shape underneath them. Returns whether an invalidation
    /// happened.
    pub fn ensure_generation(&mut self, generation: u64) -> bool {
        if self.generation == generation {
            return false;
        }
        self.generation = generation;
        self.positions.clear();
        self.positions_tmp.clear();
        self.hits.clear();
        self.filtered.clear();
        self.qsorted.clear();
        self.qp.clear();
        self.tree_stack.clear();
        self.plan_freqs.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footrule::PositionMap;

    #[test]
    fn epoch_map_basic_ops() {
        let mut m: EpochMap<u32> = EpochMap::new();
        m.begin(10);
        assert!(m.is_empty());
        m.insert(3, 7);
        *m.probe(5) += 2;
        *m.probe(5) += 1;
        assert_eq!(m.get(3), Some(7));
        assert_eq!(m.get(5), Some(3));
        assert_eq!(m.get(4), None);
        assert_eq!(m.keys(), &[3, 5]);
        m.begin(10);
        assert_eq!(m.get(3), None);
        assert!(m.is_empty());
    }

    #[test]
    fn epoch_map_retain_compacts_and_unstamps() {
        let mut m: EpochMap<u32> = EpochMap::new();
        m.begin(8);
        for k in [1u32, 4, 6, 7] {
            m.insert(k, k * 10);
        }
        m.retain(|k, v| {
            *v += 1;
            k % 2 == 0
        });
        assert_eq!(m.keys(), &[4, 6]);
        assert!(!m.contains(1));
        assert!(!m.contains(7));
        assert_eq!(m.get(4), Some(41));
        // A removed key can be re-inserted.
        m.insert(1, 99);
        assert_eq!(m.get(1), Some(99));
    }

    #[test]
    fn epoch_set_mark_dedups() {
        let mut s: EpochSet = EpochMap::new();
        s.begin(5);
        assert!(s.mark(2));
        assert!(!s.mark(2));
        assert!(s.mark(0));
        assert_eq!(s.keys(), &[2, 0]);
    }

    #[test]
    fn epoch_map_survives_universe_growth() {
        let mut m: EpochMap<u32> = EpochMap::new();
        m.begin(4);
        m.insert(3, 1);
        m.begin(16);
        assert_eq!(m.get(3), None);
        m.insert(15, 5);
        assert_eq!(m.get(15), Some(5));
    }

    #[test]
    fn flat_position_map_agrees_with_hash_map() {
        let q = [7u32, 1, 6, 5, 2].map(ItemId);
        let candidates = [
            [1u32, 4, 5, 9, 0].map(ItemId),
            [7u32, 1, 6, 5, 2].map(ItemId),
            [10u32, 11, 12, 13, 14].map(ItemId),
        ];
        let mut raw: Vec<u32> = q.iter().map(|i| i.0).collect();
        for c in &candidates {
            raw.extend(c.iter().map(|i| i.0));
        }
        let remap = ItemRemap::from_raw_ids(raw);
        let reference = PositionMap::new(&q);
        let mut flat = FlatPositionMap::new();
        flat.build(&remap, &q);
        for c in &candidates {
            assert_eq!(flat.distance_to(&remap, c), reference.distance_to(c));
            assert_eq!(flat.overlap(&remap, c), reference.overlap(c));
        }
    }

    #[test]
    fn flat_position_map_handles_out_of_corpus_query_items() {
        // Query items 100..105 are not in the remap; distance to corpus
        // candidates must still match the hash-map reference.
        let q = [100u32, 1, 102, 5, 104].map(ItemId);
        let c = [1u32, 4, 5, 9, 0].map(ItemId);
        let remap = ItemRemap::from_raw_ids(vec![0, 1, 4, 5, 9]);
        let mut flat = FlatPositionMap::new();
        flat.build(&remap, &q);
        assert_eq!(
            flat.distance_to(&remap, &c),
            PositionMap::new(&q).distance_to(&c)
        );
    }

    #[test]
    fn chunked_kernel_matches_scalar_on_mixed_overlap() {
        let q = [7u32, 1, 6, 5, 2, 9, 3, 0, 11, 12].map(ItemId);
        let candidates = [
            [1u32, 4, 5, 9, 0, 13, 14, 15, 16, 17].map(ItemId),
            [7u32, 1, 6, 5, 2, 9, 3, 0, 11, 12].map(ItemId),
            [20u32, 21, 22, 23, 24, 25, 26, 27, 28, 29].map(ItemId),
            [12u32, 11, 0, 3, 9, 2, 5, 6, 1, 7].map(ItemId),
        ];
        let mut raw: Vec<u32> = q.iter().map(|i| i.0).collect();
        for c in &candidates {
            raw.extend(c.iter().map(|i| i.0));
        }
        let remap = ItemRemap::from_raw_ids(raw);
        let mut flat = FlatPositionMap::new();
        flat.build(&remap, &q);
        for c in &candidates {
            let exact = flat.distance_to(&remap, c);
            // A full-range θ never prunes, so the pruned walk is exact.
            assert_eq!(flat.distance_within(&remap, c, u32::MAX), Some(exact));
        }
    }

    #[test]
    fn distance_within_none_strictly_means_above_theta() {
        let q = [7u32, 1, 6, 5, 2, 9, 3, 0, 11, 12].map(ItemId);
        let candidates = [
            [1u32, 4, 5, 9, 0, 13, 14, 15, 16, 17].map(ItemId),
            [7u32, 1, 6, 5, 2, 9, 3, 0, 11, 12].map(ItemId),
            [20u32, 21, 22, 23, 24, 25, 26, 27, 28, 29].map(ItemId),
        ];
        let mut raw: Vec<u32> = q.iter().map(|i| i.0).collect();
        for c in &candidates {
            raw.extend(c.iter().map(|i| i.0));
        }
        let remap = ItemRemap::from_raw_ids(raw);
        let mut flat = FlatPositionMap::new();
        flat.build(&remap, &q);
        for c in &candidates {
            let exact = flat.distance_to(&remap, c);
            for theta in 0..=crate::footrule::max_distance(q.len()) {
                let within = flat.distance_within(&remap, c, theta);
                match within {
                    Some(d) => assert_eq!(d, exact),
                    None => assert!(exact > theta, "pruned a candidate within θ"),
                }
                // The membership verdict matches the reference loop.
                assert_eq!(within.is_some_and(|d| d <= theta), exact <= theta);
            }
        }
        // The disjoint candidate must actually trigger the early exit at
        // the paper's benchmark threshold.
        let theta = crate::footrule::raw_threshold(0.2, q.len());
        assert_eq!(flat.distance_within(&remap, &candidates[2], theta), None);
    }

    #[test]
    fn flat_position_map_rebuild_invalidates_previous_query() {
        let remap = ItemRemap::from_raw_ids(vec![0, 1, 2, 3, 4, 5]);
        let mut flat = FlatPositionMap::new();
        flat.build(&remap, &[0u32, 1, 2].map(ItemId));
        assert_eq!(flat.rank_of(&remap, ItemId(2)), Some(2));
        flat.build(&remap, &[3u32, 4, 5].map(ItemId));
        assert_eq!(flat.rank_of(&remap, ItemId(2)), None);
        assert_eq!(flat.rank_of(&remap, ItemId(3)), Some(0));
    }
}
