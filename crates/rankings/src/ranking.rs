//! Owned rankings and the flat corpus store.

use std::fmt;

/// Identifier of a ranked item (a document, an entity, a movie, ...).
///
/// Items are dense or sparse u32 ids; the library never interprets them
/// beyond equality, so callers may map arbitrary domains onto them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct ItemId(pub u32);

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

/// Identifier of a ranking inside a [`RankingStore`]: the dense index of the
/// ranking in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct RankingId(pub u32);

impl fmt::Display for RankingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl RankingId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors raised when constructing rankings or stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingError {
    /// A ranking contained the same item at two ranks.
    DuplicateItem(ItemId),
    /// A ranking's length did not match the store's fixed `k`.
    WrongLength { expected: usize, got: usize },
    /// An empty ranking was supplied.
    Empty,
}

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankingError::DuplicateItem(i) => write!(f, "duplicate item {i} in ranking"),
            RankingError::WrongLength { expected, got } => {
                write!(f, "ranking of length {got}, store expects k = {expected}")
            }
            RankingError::Empty => write!(f, "empty ranking"),
        }
    }
}

impl std::error::Error for RankingError {}

/// An owned top-k list: `items[r]` is the item ranked at position `r`
/// (`r = 0` is the top rank). Items are pairwise distinct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ranking {
    items: Box<[ItemId]>,
}

impl Ranking {
    /// Builds a ranking from top-to-bottom items, validating distinctness.
    pub fn new<I: IntoIterator<Item = u32>>(items: I) -> Result<Self, RankingError> {
        let items: Vec<ItemId> = items.into_iter().map(ItemId).collect();
        if items.is_empty() {
            return Err(RankingError::Empty);
        }
        let mut sorted = items.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(RankingError::DuplicateItem(w[0]));
            }
        }
        Ok(Ranking {
            items: items.into_boxed_slice(),
        })
    }

    /// The ranking size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.items.len()
    }

    /// Items from the top rank downwards.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The rank of `item`, or `None` if the item is not contained.
    pub fn rank_of(&self, item: ItemId) -> Option<u32> {
        self.items.iter().position(|&i| i == item).map(|p| p as u32)
    }
}

impl AsRef<[ItemId]> for Ranking {
    fn as_ref(&self) -> &[ItemId] {
        &self.items
    }
}

/// Validates a raw item slice as a candidate size-`k` ranking without
/// allocating: exactly `k` pairwise-distinct items.
///
/// This is the non-panicking twin of the engine's insertion asserts, for
/// call sites that must *reject* malformed input instead of aborting —
/// e.g. a serving front-end parsing untrusted wire queries. The quadratic
/// distinctness scan is deliberate: `k` is small (top-*k* lists), so this
/// beats sorting for every realistic ranking size.
pub fn validate_items(items: &[ItemId], k: usize) -> Result<(), RankingError> {
    if items.len() != k {
        return Err(RankingError::WrongLength {
            expected: k,
            got: items.len(),
        });
    }
    for (i, a) in items.iter().enumerate() {
        if items[i + 1..].contains(a) {
            return Err(RankingError::DuplicateItem(*a));
        }
    }
    Ok(())
}

/// Lifecycle of one ranking-id slot of a [`RankingStore`].
///
/// Live corpora tombstone instead of erasing: index structures resolve
/// ranking content through the store at query time, so the content of any
/// slot an index may still reference must stay frozen until the indexes
/// are rebuilt. [`RankingStore::remove`] therefore only *quarantines* a
/// slot; [`RankingStore::release_removed_slots`] (called by the engine's
/// compaction pass, after every index was rebuilt from the live set)
/// turns quarantined slots into `Free` ones whose content may be
/// overwritten by [`RankingStore::insert_items_at_unchecked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// The ranking is part of the live corpus.
    Live,
    /// Tombstoned: excluded from results, but its content is frozen —
    /// index structures built before the removal may still read it.
    Quarantined,
    /// Released: no structure references the slot; its id and row may be
    /// reused by an explicit re-insertion.
    Free,
}

/// Flat storage for a corpus of equal-size rankings.
///
/// Two parallel layouts are kept:
///
/// * `items`: row-major `n × k` item ids in rank order — used by query
///   processing (sequential scans of a ranking's content),
/// * `sorted`: per ranking, the `(item, rank)` pairs sorted by item id —
///   used for allocation-free store-to-store Footrule via a sorted merge,
///   which dominates metric-tree construction.
///
/// ## Live corpora
///
/// The store is mutable: [`RankingStore::remove`] tombstones a ranking
/// (its id keeps resolving to the frozen content, it just stops being
/// *live*), and freed slots can be re-populated in place after the
/// engine's compaction pass (see [`SlotState`]). [`RankingStore::len`]
/// spans the whole id space including dead slots — query-side epoch maps
/// are sized by it — while [`RankingStore::live_len`] counts the live
/// corpus and [`RankingStore::live_ids`] drives every index build.
#[derive(Debug, Clone)]
pub struct RankingStore {
    k: usize,
    items: Vec<ItemId>,
    sorted: Vec<(ItemId, u32)>,
    slots: Vec<SlotState>,
    live_len: usize,
    free_len: usize,
}

/// Sentinel item filling hole slots pushed by [`RankingStore::push_hole`].
const HOLE_ITEM: ItemId = ItemId(u32::MAX);

impl RankingStore {
    /// Creates an empty store for rankings of size `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "ranking size k must be positive");
        RankingStore {
            k,
            items: Vec::new(),
            sorted: Vec::new(),
            slots: Vec::new(),
            live_len: 0,
            free_len: 0,
        }
    }

    /// Creates an empty store with capacity for `n` rankings.
    pub fn with_capacity(k: usize, n: usize) -> Self {
        let mut s = Self::new(k);
        s.reserve_rankings(n);
        s
    }

    /// Reserves arena capacity for `n` additional rankings, so the next
    /// `n` pushes / in-place re-insertions touch the allocator only if
    /// they outgrow the reservation.
    pub fn reserve_rankings(&mut self, n: usize) {
        self.items.reserve(n * self.k);
        self.sorted.reserve(n * self.k);
        self.slots.reserve(n);
    }

    /// The fixed ranking size.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Size of the ranking-id space `0..len` — live rankings *and* dead
    /// slots. Candidate-side epoch maps are sized by this.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of live rankings (what queries can return).
    #[inline]
    pub fn live_len(&self) -> usize {
        self.live_len
    }

    /// Number of released (reusable) slots.
    #[inline]
    pub fn free_len(&self) -> usize {
        self.free_len
    }

    /// Whether the id space is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a ranking, returning its id.
    pub fn push(&mut self, ranking: &Ranking) -> Result<RankingId, RankingError> {
        if ranking.k() != self.k {
            return Err(RankingError::WrongLength {
                expected: self.k,
                got: ranking.k(),
            });
        }
        Ok(self.push_items_unchecked(ranking.items()))
    }

    /// Appends raw items that are already known to be distinct and of
    /// length `k` (dataset generators uphold this by construction).
    pub fn push_items_unchecked(&mut self, items: &[ItemId]) -> RankingId {
        debug_assert_eq!(items.len(), self.k);
        let id = RankingId(self.len() as u32);
        self.items.extend_from_slice(items);
        let base = self.sorted.len();
        self.sorted
            .extend(items.iter().enumerate().map(|(r, &i)| (i, r as u32)));
        self.sorted[base..].sort_unstable();
        self.slots.push(SlotState::Live);
        self.live_len += 1;
        id
    }

    /// Appends a dead-from-birth slot (sentinel content, state `Free`):
    /// the building block for reconstructing a mutated corpus *at its
    /// original ids* — the oracle side of the differential mutation
    /// harness pushes a hole wherever the live corpus has none.
    pub fn push_hole(&mut self) -> RankingId {
        let id = RankingId(self.len() as u32);
        self.items.extend((0..self.k).map(|_| HOLE_ITEM));
        self.sorted.extend((0..self.k).map(|_| (HOLE_ITEM, 0u32)));
        self.slots.push(SlotState::Free);
        self.free_len += 1;
        id
    }

    /// Whether ranking `id` is live (in bounds and neither tombstoned nor
    /// a hole).
    #[inline]
    pub fn is_live(&self, id: RankingId) -> bool {
        matches!(self.slots.get(id.index()), Some(SlotState::Live))
    }

    /// Whether slot `id` was released for reuse.
    #[inline]
    pub fn is_free(&self, id: RankingId) -> bool {
        matches!(self.slots.get(id.index()), Some(SlotState::Free))
    }

    /// Tombstones ranking `id`: it stops being live but its content stays
    /// frozen (index structures built earlier may still resolve it) until
    /// [`RankingStore::release_removed_slots`]. Returns `false` when the
    /// slot was not live.
    pub fn remove(&mut self, id: RankingId) -> bool {
        match self.slots.get_mut(id.index()) {
            Some(s @ SlotState::Live) => {
                *s = SlotState::Quarantined;
                self.live_len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Releases every quarantined slot for reuse. Call **only** once no
    /// index structure references the tombstoned content any more — the
    /// engine's compaction pass does, right after rebuilding every index
    /// from the live set. Returns the number of slots released.
    pub fn release_removed_slots(&mut self) -> usize {
        let mut released = 0usize;
        for s in &mut self.slots {
            if *s == SlotState::Quarantined {
                *s = SlotState::Free;
                released += 1;
            }
        }
        self.free_len += released;
        released
    }

    /// Re-populates the released slot `id` in place with raw items that
    /// are already known to be distinct and of length `k`. The id becomes
    /// live again with the new content — the re-insertion path of the
    /// mutable engine. Panics when the slot is not `Free` (live or still
    /// quarantined content must never be overwritten: index structures
    /// resolve it at query time).
    pub fn insert_items_at_unchecked(&mut self, id: RankingId, items: &[ItemId]) {
        debug_assert_eq!(items.len(), self.k);
        assert!(
            self.is_free(id),
            "slot {id} is not free; only released slots may be re-populated"
        );
        let b = id.index() * self.k;
        self.items[b..b + self.k].copy_from_slice(items);
        let sorted = &mut self.sorted[b..b + self.k];
        for (r, &i) in items.iter().enumerate() {
            sorted[r] = (i, r as u32);
        }
        sorted.sort_unstable();
        self.slots[id.index()] = SlotState::Live;
        self.live_len += 1;
        self.free_len -= 1;
    }

    /// The smallest released slot, if any — the deterministic candidate
    /// for an in-place re-insertion.
    pub fn first_free_slot(&self) -> Option<RankingId> {
        self.slots
            .iter()
            .position(|&s| s == SlotState::Free)
            .map(|i| RankingId(i as u32))
    }

    /// Appends every ranking produced by the iterator.
    pub fn extend<'a, I: IntoIterator<Item = &'a Ranking>>(
        &mut self,
        iter: I,
    ) -> Result<(), RankingError> {
        for r in iter {
            self.push(r)?;
        }
        Ok(())
    }

    /// The items of ranking `id` in rank order.
    #[inline]
    pub fn items(&self, id: RankingId) -> &[ItemId] {
        let b = id.index() * self.k;
        &self.items[b..b + self.k]
    }

    /// The `(item, rank)` pairs of ranking `id`, sorted by item id.
    #[inline]
    pub fn sorted_pairs(&self, id: RankingId) -> &[(ItemId, u32)] {
        let b = id.index() * self.k;
        &self.sorted[b..b + self.k]
    }

    /// Materializes ranking `id` as an owned [`Ranking`].
    pub fn ranking(&self, id: RankingId) -> Ranking {
        Ranking {
            items: self.items(id).to_vec().into_boxed_slice(),
        }
    }

    /// Iterates over the whole ranking-id space, dead slots included.
    /// Pristine (never-mutated) stores have no dead slots, so this is the
    /// corpus; mutated stores are enumerated via
    /// [`RankingStore::live_ids`] instead.
    pub fn ids(&self) -> impl Iterator<Item = RankingId> + '_ {
        (0..self.len() as u32).map(RankingId)
    }

    /// Iterates over the live ranking ids, ascending — what every index
    /// build and linear oracle runs over.
    pub fn live_ids(&self) -> impl Iterator<Item = RankingId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == SlotState::Live)
            .map(|(i, _)| RankingId(i as u32))
    }

    /// The largest possible Footrule distance between two stored rankings.
    #[inline]
    pub fn max_distance(&self) -> u32 {
        crate::footrule::max_distance(self.k)
    }

    /// Approximate heap footprint in bytes (used by the Table 6 experiment).
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<ItemId>()
            + self.sorted.capacity() * std::mem::size_of::<(ItemId, u32)>()
            + self.slots.capacity() * std::mem::size_of::<SlotState>()
    }

    /// Decomposes the store into its flat persistence form. The `sorted`
    /// arena is split into two `u32` planes because the layout of a Rust
    /// tuple is unspecified — two plain arrays round-trip bytes exactly.
    #[doc(hidden)]
    pub fn export_parts(&self) -> StoreParts {
        let mut sorted_items = Vec::with_capacity(self.sorted.len());
        let mut sorted_ranks = Vec::with_capacity(self.sorted.len());
        for &(item, rank) in &self.sorted {
            sorted_items.push(item.0);
            sorted_ranks.push(rank);
        }
        StoreParts {
            k: self.k as u32,
            items: item_vec_into_u32(self.items.clone()),
            sorted_items,
            sorted_ranks,
            slots: self
                .slots
                .iter()
                .map(|s| match s {
                    SlotState::Live => 0u8,
                    SlotState::Quarantined => 1,
                    SlotState::Free => 2,
                })
                .collect(),
        }
    }

    /// Rebuilds a store from its flat persistence form, validating the
    /// structural invariants (arena lengths, slot codes) so that a
    /// corrupted-but-checksum-passing payload is rejected instead of
    /// producing a silently-wrong corpus.
    #[doc(hidden)]
    pub fn from_parts(parts: StoreParts) -> Result<Self, String> {
        let k = parts.k as usize;
        if k == 0 {
            return Err("store k must be positive".into());
        }
        let n = parts.slots.len();
        if parts.items.len() != n * k {
            return Err(format!(
                "items arena length {} != {} slots × k {}",
                parts.items.len(),
                n,
                k
            ));
        }
        if parts.sorted_items.len() != n * k || parts.sorted_ranks.len() != n * k {
            return Err("sorted arena planes disagree with the slot count".into());
        }
        let mut live_len = 0usize;
        let mut free_len = 0usize;
        let mut slots = Vec::with_capacity(n);
        for &code in &parts.slots {
            slots.push(match code {
                0 => {
                    live_len += 1;
                    SlotState::Live
                }
                1 => SlotState::Quarantined,
                2 => {
                    free_len += 1;
                    SlotState::Free
                }
                other => return Err(format!("unknown slot state code {other}")),
            });
        }
        let mut sorted = Vec::with_capacity(n * k);
        for (i, (&item, &rank)) in parts
            .sorted_items
            .iter()
            .zip(&parts.sorted_ranks)
            .enumerate()
        {
            if rank as usize >= k && item != HOLE_ITEM.0 {
                return Err(format!("sorted rank {rank} out of bounds at entry {i}"));
            }
            sorted.push((ItemId(item), rank));
        }
        for row in sorted.chunks_exact(k) {
            if row.windows(2).any(|w| w[0].0 > w[1].0) {
                return Err("sorted arena row not sorted by item id".into());
            }
        }
        Ok(RankingStore {
            k,
            items: item_vec_from_u32(parts.items),
            sorted,
            slots,
            live_len,
            free_len,
        })
    }
}

/// Flat persistence form of a [`RankingStore`] (see
/// [`RankingStore::export_parts`]). Slot codes: 0 = live, 1 = quarantined,
/// 2 = free.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct StoreParts {
    pub k: u32,
    pub items: Vec<u32>,
    pub sorted_items: Vec<u32>,
    pub sorted_ranks: Vec<u32>,
    pub slots: Vec<u8>,
}

/// Reinterprets a `Vec<ItemId>` as its raw `Vec<u32>` without copying
/// (`ItemId` is `repr(transparent)` over `u32`).
#[doc(hidden)]
pub fn item_vec_into_u32(v: Vec<ItemId>) -> Vec<u32> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: ItemId is #[repr(transparent)] over u32 — identical size,
    // alignment and validity; the allocation is transferred, not copied.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr() as *mut u32, v.len(), v.capacity()) }
}

/// Reinterprets a raw `Vec<u32>` as a `Vec<ItemId>` without copying.
#[doc(hidden)]
pub fn item_vec_from_u32(v: Vec<u32>) -> Vec<ItemId> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: see `item_vec_into_u32` — the transparent wrapper accepts
    // every u32 bit pattern.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr() as *mut ItemId, v.len(), v.capacity()) }
}

/// Reinterprets a `Vec<RankingId>` as its raw `Vec<u32>` without copying.
#[doc(hidden)]
pub fn ranking_vec_into_u32(v: Vec<RankingId>) -> Vec<u32> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: RankingId is #[repr(transparent)] over u32.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr() as *mut u32, v.len(), v.capacity()) }
}

/// Reinterprets a raw `Vec<u32>` as a `Vec<RankingId>` without copying.
#[doc(hidden)]
pub fn ranking_vec_from_u32(v: Vec<u32>) -> Vec<RankingId> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: see `ranking_vec_into_u32`.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr() as *mut RankingId, v.len(), v.capacity()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_rejects_duplicates() {
        assert_eq!(
            Ranking::new([1, 2, 1]),
            Err(RankingError::DuplicateItem(ItemId(1)))
        );
    }

    #[test]
    fn validate_items_checks_length_and_distinctness() {
        let ok = [4, 9, 2].map(ItemId);
        assert_eq!(validate_items(&ok, 3), Ok(()));
        assert_eq!(
            validate_items(&ok, 4),
            Err(RankingError::WrongLength {
                expected: 4,
                got: 3
            })
        );
        let dup = [4, 9, 4].map(ItemId);
        assert_eq!(
            validate_items(&dup, 3),
            Err(RankingError::DuplicateItem(ItemId(4)))
        );
        // k = 0 with an empty slice is valid (vacuously distinct).
        assert_eq!(validate_items(&[], 0), Ok(()));
    }

    #[test]
    fn ranking_rejects_empty() {
        assert_eq!(Ranking::new([]), Err(RankingError::Empty));
    }

    #[test]
    fn ranking_rank_of() {
        let r = Ranking::new([5, 3, 9]).unwrap();
        assert_eq!(r.rank_of(ItemId(5)), Some(0));
        assert_eq!(r.rank_of(ItemId(9)), Some(2));
        assert_eq!(r.rank_of(ItemId(4)), None);
        assert_eq!(r.k(), 3);
    }

    #[test]
    fn store_roundtrip() {
        let mut store = RankingStore::new(4);
        let a = Ranking::new([2, 5, 4, 3]).unwrap();
        let b = Ranking::new([1, 4, 5, 9]).unwrap();
        let ia = store.push(&a).unwrap();
        let ib = store.push(&b).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.ranking(ia), a);
        assert_eq!(store.ranking(ib), b);
        assert_eq!(
            store.items(ib),
            &[ItemId(1), ItemId(4), ItemId(5), ItemId(9)]
        );
    }

    #[test]
    fn store_sorted_pairs_are_sorted() {
        let mut store = RankingStore::new(4);
        let id = store.push(&Ranking::new([9, 1, 7, 3]).unwrap()).unwrap();
        let pairs = store.sorted_pairs(id);
        assert_eq!(
            pairs,
            &[
                (ItemId(1), 1),
                (ItemId(3), 3),
                (ItemId(7), 2),
                (ItemId(9), 0)
            ]
        );
    }

    #[test]
    fn store_rejects_wrong_length() {
        let mut store = RankingStore::new(3);
        let r = Ranking::new([1, 2]).unwrap();
        assert_eq!(
            store.push(&r),
            Err(RankingError::WrongLength {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn remove_quarantines_and_release_frees() {
        let mut store = RankingStore::new(3);
        let a = store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        let b = store.push_items_unchecked(&[4, 5, 6].map(ItemId));
        assert_eq!(store.live_len(), 2);
        assert!(store.remove(a));
        assert!(!store.remove(a), "double remove is a no-op");
        assert!(!store.is_live(a));
        assert!(store.is_live(b));
        assert_eq!(store.live_len(), 1);
        // Quarantined content stays resolvable (indexes may reference it).
        assert_eq!(store.items(a), &[1, 2, 3].map(ItemId));
        assert!(!store.is_free(a));
        assert_eq!(store.release_removed_slots(), 1);
        assert!(store.is_free(a));
        assert_eq!(store.first_free_slot(), Some(a));
        assert_eq!(store.live_ids().collect::<Vec<_>>(), vec![b]);
        assert_eq!(store.len(), 2, "ids are positional and persist");
    }

    #[test]
    fn reinsertion_reuses_the_released_slot_in_place() {
        let mut store = RankingStore::new(3);
        let a = store.push_items_unchecked(&[1, 2, 3].map(ItemId));
        store.push_items_unchecked(&[4, 5, 6].map(ItemId));
        store.remove(a);
        store.release_removed_slots();
        let before = store.heap_bytes();
        store.insert_items_at_unchecked(a, &[9, 7, 8].map(ItemId));
        assert_eq!(store.heap_bytes(), before, "in-place reuse grows nothing");
        assert!(store.is_live(a));
        assert_eq!(store.items(a), &[9, 7, 8].map(ItemId));
        assert_eq!(
            store.sorted_pairs(a),
            &[(ItemId(7), 1), (ItemId(8), 2), (ItemId(9), 0)]
        );
        assert_eq!(store.live_len(), 2);
        assert_eq!(store.free_len(), 0);
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn reinsertion_into_live_slot_panics() {
        let mut store = RankingStore::new(2);
        let a = store.push_items_unchecked(&[1, 2].map(ItemId));
        store.insert_items_at_unchecked(a, &[3, 4].map(ItemId));
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn reinsertion_into_quarantined_slot_panics() {
        // Quarantined content may still be referenced by an index: it must
        // never be overwritten before the release.
        let mut store = RankingStore::new(2);
        let a = store.push_items_unchecked(&[1, 2].map(ItemId));
        store.remove(a);
        store.insert_items_at_unchecked(a, &[3, 4].map(ItemId));
    }

    #[test]
    fn holes_reconstruct_a_mutated_id_space() {
        let mut store = RankingStore::new(2);
        store.push_items_unchecked(&[1, 2].map(ItemId));
        let hole = store.push_hole();
        store.push_items_unchecked(&[5, 6].map(ItemId));
        assert_eq!(store.len(), 3);
        assert_eq!(store.live_len(), 2);
        assert!(!store.is_live(hole));
        assert!(store.is_free(hole));
        let live: Vec<u32> = store.live_ids().map(|id| id.0).collect();
        assert_eq!(live, vec![0, 2]);
        // A hole can be populated later — same path as slot reuse.
        store.insert_items_at_unchecked(hole, &[8, 9].map(ItemId));
        assert!(store.is_live(hole));
    }

    #[test]
    fn store_ids_enumerate() {
        let mut store = RankingStore::new(2);
        for i in 0..5u32 {
            store
                .push(&Ranking::new([i * 2, i * 2 + 1]).unwrap())
                .unwrap();
        }
        let ids: Vec<_> = store.ids().collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[3], RankingId(3));
    }
}
