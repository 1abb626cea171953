//! Differential mutation-fuzz harness: a **live** corpus must be
//! indistinguishable from a freshly built one.
//!
//! Each case derives a random interleaving of ≥200 insert / remove /
//! compact operations from its proptest case seed and replays it against
//! three targets at once:
//!
//! * a mutated monolithic [`Engine`] (all eight algorithms + `Auto`,
//!   auto-compaction armed),
//! * mutated [`ShardedEngine`]s at S ∈ {1, 2, 7} with auto-rebalancing
//!   enabled (skewed inserts migrate rankings between shards mid-run),
//! * the **oracle**: at every checkpoint, an engine freshly built from
//!   the model corpus at the *original ranking ids* (holes where the
//!   live corpus has none — see [`RankingStore::push_hole`]).
//!
//! Threshold answers are compared as canonical (sorted) id sets for every
//! algorithm including `Auto`; top-k answers must be **bit-identical**
//! `(distance, id)` sequences, which the lexicographic KNN-heap tie rule
//! guarantees only if tombstones, delta overlays, compaction and shard
//! migration all preserve it — exactly what this harness fuzzes.
//!
//! The vendored proptest does not shrink, but every failure prints a
//! `RANKSIM_PROPTEST_SEED=0x…` line replaying exactly the failing case;
//! `seed_line_replays_the_exact_failing_case` below verifies that the
//! seed alone reconstructs the case (op sequence and all), and the
//! deliberately failing `#[should_panic]` case proves the line is
//! printed for *this* harness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use ranksim::metricspace::{knn_linear, query_pairs};
use ranksim::prelude::*;

const K: usize = 8;
const DOMAIN: u32 = 64;
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
const CHECK_EVERY: usize = 80;

/// One mutation of the interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Insert(Vec<ItemId>),
    Remove(RankingId),
    Compact,
}

/// The model corpus: `model[id] = Some(items)` iff ranking `id` is live.
type Model = Vec<Option<Vec<ItemId>>>;

fn random_ranking(rng: &mut StdRng, model: &Model) -> Vec<ItemId> {
    let live: Vec<&Vec<ItemId>> = model.iter().flatten().collect();
    if !live.is_empty() && rng.random_bool(0.6) {
        // Perturb a live ranking: near-duplicates create distance ties,
        // the regime where tombstones can corrupt top-k tie handling.
        let mut items = live[rng.random_range(0..live.len())].clone();
        if rng.random_bool(0.5) {
            let a = rng.random_range(0..K);
            let b = rng.random_range(0..K);
            items.swap(a, b);
        } else {
            let p = rng.random_range(0..K);
            // Occasionally an item the corpus has never seen (exercises
            // remap growth at compaction).
            let span = if rng.random_bool(0.2) {
                100_000
            } else {
                DOMAIN
            };
            let mut cand = ItemId(rng.random_range(0..span));
            while items.contains(&cand) {
                cand = ItemId(rng.random_range(0..span));
            }
            items[p] = cand;
        }
        items
    } else {
        let mut items = Vec::with_capacity(K);
        while items.len() < K {
            let cand = ItemId(rng.random_range(0..DOMAIN));
            if !items.contains(&cand) {
                items.push(cand);
            }
        }
        items
    }
}

/// Derives the whole case — initial corpus and op interleaving — from a
/// seed. Deterministic: the same seed always yields the same case, which
/// is what makes the `RANKSIM_PROPTEST_SEED` replay line sufficient.
fn derive_case(seed: u64, initial: usize, ops: usize) -> (Vec<Vec<ItemId>>, Vec<Op>) {
    let mut rng = proptest::rng_from_seed(seed);
    let mut model: Model = Vec::new();
    let mut corpus = Vec::with_capacity(initial);
    for _ in 0..initial {
        let items = random_ranking(&mut rng, &model);
        model.push(Some(items.clone()));
        corpus.push(items);
    }
    let mut sequence = Vec::with_capacity(ops);
    for _ in 0..ops {
        let live: Vec<u32> = (0..model.len() as u32)
            .filter(|&i| model[i as usize].is_some())
            .collect();
        let roll = rng.random_range(0..100u32);
        let op = if roll < 8 && !live.is_empty() {
            Op::Compact
        } else if roll < 54 || live.len() < 8 {
            let items = random_ranking(&mut rng, &model);
            model.push(Some(items.clone()));
            Op::Insert(items)
        } else {
            let victim = live[rng.random_range(0..live.len())];
            model[victim as usize] = None;
            Op::Remove(RankingId(victim))
        };
        sequence.push(op);
    }
    (corpus, sequence)
}

/// A freshly built engine over the model corpus *at the original ids*:
/// live rankings at their ids, holes elsewhere. Its index structures
/// contain only the live corpus — no tombstones, no overlay.
fn oracle_engine(model: &Model) -> Engine {
    let mut store = RankingStore::new(K);
    for slot in model {
        match slot {
            Some(items) => {
                store.push_items_unchecked(items);
            }
            None => {
                store.push_hole();
            }
        }
    }
    EngineBuilder::new(store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .calibrated_costs(CalibratedCosts::nominal(K))
        .build()
}

struct Harness {
    engine: Engine,
    sharded: Vec<ShardedEngine>,
    model: Model,
}

impl Harness {
    fn new(corpus: &[Vec<ItemId>]) -> Harness {
        let mut store = RankingStore::new(K);
        for items in corpus {
            store.push_items_unchecked(items);
        }
        let engine = EngineBuilder::new(store.clone())
            .coarse_threshold(0.4)
            .coarse_drop_threshold(0.06)
            .calibrated_costs(CalibratedCosts::nominal(K))
            .compaction_threshold(0.4) // auto-compaction in the loop
            .build();
        let sharded = SHARD_COUNTS
            .iter()
            .map(|&s| {
                let mut b = ShardedEngineBuilder::new(K, s, ShardStrategy::Hash)
                    .coarse_threshold(0.4)
                    .coarse_drop_threshold(0.06)
                    .calibrated_costs(CalibratedCosts::nominal(K))
                    .rebalance(RebalanceConfig {
                        skew_factor: 1.4,
                        min_gap: 12,
                        auto: true, // migrations fire mid-interleaving
                    });
                b.extend_from_store(&store);
                b.build()
            })
            .collect();
        let model = corpus.iter().cloned().map(Some).collect();
        Harness {
            engine,
            sharded,
            model,
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(items) => {
                let expect = RankingId(self.model.len() as u32);
                let got = self.engine.insert_ranking(items);
                assert_eq!(got, expect, "monolith id assignment is monotone");
                for sh in &mut self.sharded {
                    assert_eq!(sh.insert_ranking(items), expect, "sharded ids agree");
                }
                self.model.push(Some(items.clone()));
            }
            Op::Remove(id) => {
                assert!(self.engine.remove_ranking(*id));
                assert!(!self.engine.remove_ranking(*id), "double remove no-ops");
                for sh in &mut self.sharded {
                    assert!(sh.remove_ranking(*id));
                    assert!(!sh.remove_ranking(*id));
                }
                self.model[id.index()] = None;
            }
            Op::Compact => {
                self.engine.compact();
                for sh in &mut self.sharded {
                    sh.compact();
                }
            }
        }
    }

    /// The differential checkpoint: every algorithm (and `Auto`) on every
    /// engine vs the freshly built oracle.
    fn check(&self, rng: &mut StdRng) -> Result<(), proptest::TestCaseError> {
        let oracle = oracle_engine(&self.model);
        let live = self.engine.live_len();
        prop_assert_eq!(live, oracle.live_len());
        let mut queries: Vec<Vec<ItemId>> = Vec::new();
        for _ in 0..3 {
            queries.push(random_ranking(rng, &self.model));
        }
        let mut oscratch = oracle.scratch();
        let mut mscratch = self.engine.scratch();
        let mut stats = QueryStats::new();
        for q in &queries {
            for theta in [0.0, 0.12, 0.3] {
                let raw = raw_threshold(theta, K);
                let mut expect =
                    oracle.query_items(Algorithm::Fv, q, raw, &mut oscratch, &mut stats);
                expect.sort_unstable();
                for alg in Algorithm::ALL.iter().copied().chain([Algorithm::Auto]) {
                    let mut got = self
                        .engine
                        .query_items(alg, q, raw, &mut mscratch, &mut stats);
                    got.sort_unstable();
                    prop_assert_eq!(
                        &got,
                        &expect,
                        "monolith {} diverged at θ={} (live={})",
                        alg,
                        theta,
                        live
                    );
                }
                for (si, sh) in self.sharded.iter().enumerate() {
                    let mut ss = sh.scratch();
                    let got = sh.query_items(Algorithm::Fv, q, raw, &mut ss, &mut stats);
                    prop_assert_eq!(
                        &got,
                        &expect,
                        "sharded S={} diverged at θ={}",
                        SHARD_COUNTS[si],
                        theta
                    );
                    let mut gota = sh.query_items(Algorithm::Auto, q, raw, &mut ss, &mut stats);
                    gota.sort_unstable();
                    prop_assert_eq!(&gota, &expect, "sharded Auto S={}", SHARD_COUNTS[si]);
                }
            }
            // `usize::MAX`: more neighbours than live rankings, so the
            // answer is the whole corpus, disjoint rankings included.
            for kn in [1usize, 5, 17, usize::MAX] {
                let expect = oracle.query_topk(q, kn, &mut oscratch, &mut stats);
                let linear = knn_linear(oracle.store(), &query_pairs(q), kn.min(live), &mut stats);
                prop_assert_eq!(&expect, &linear, "oracle topk k={} vs linear scan", kn);
                let got = self.engine.query_topk(q, kn, &mut mscratch, &mut stats);
                prop_assert_eq!(&got, &expect, "monolith topk k={} (live={})", kn, live);
                for (si, sh) in self.sharded.iter().enumerate() {
                    let mut ss = sh.scratch();
                    let got = sh.query_topk(q, kn, &mut ss, &mut stats);
                    prop_assert_eq!(
                        &got,
                        &expect,
                        "sharded topk S={} k={}",
                        SHARD_COUNTS[si],
                        kn
                    );
                }
            }
        }
        Ok(())
    }
}

fn run_case(seed: u64, initial: usize, ops: usize) -> Result<(), proptest::TestCaseError> {
    let (corpus, sequence) = derive_case(seed, initial, ops);
    let mut rng = proptest::rng_from_seed(seed ^ 0x5EED);
    let mut harness = Harness::new(&corpus);
    for (i, op) in sequence.iter().enumerate() {
        harness.apply(op);
        if (i + 1) % CHECK_EVERY == 0 {
            harness.check(&mut rng)?;
        }
    }
    harness.check(&mut rng)?;
    // Top-k straight after insert → remove → compact: no query ran
    // between the three, so nothing but the compaction can have folded
    // the fresh ranking in and the victim out.
    let fresh = random_ranking(&mut rng, &harness.model);
    harness.apply(&Op::Insert(fresh));
    if let Some(victim) = harness.model.iter().position(Option::is_some) {
        harness.apply(&Op::Remove(RankingId(victim as u32)));
    }
    harness.apply(&Op::Compact);
    harness.check(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The acceptance property: after any interleaving of ≥200
    /// insert/remove/compact operations, every algorithm (incl. `Auto`)
    /// and every sharded configuration (rebalancing enabled) answers
    /// threshold and top-k queries bit-identically to the oracle.
    #[test]
    fn any_mutation_interleaving_matches_a_fresh_oracle(
        seed in 0u64..u64::MAX,
        initial in 100usize..150,
        ops in 200usize..250,
    ) {
        run_case(seed, initial, ops)?;
    }
}

/// The replay contract behind the `RANKSIM_PROPTEST_SEED` line: the case
/// seed alone reconstructs the exact failing case — op sequence, queries
/// and all — so the printed override replays it verbatim. (The override
/// itself feeds `proptest::seed_override` → the same `rng_from_seed`
/// used here; an env-var round-trip in-process would race the other
/// proptests in this binary, so the seed path is verified directly.)
#[test]
fn seed_line_replays_the_exact_failing_case() {
    let mut master = proptest::test_rng("mutation_equivalence::replay");
    for _ in 0..3 {
        let seed = proptest::case_seed(&mut master);
        let (corpus_a, ops_a) = derive_case(seed, 120, 210);
        let (corpus_b, ops_b) = derive_case(seed, 120, 210);
        assert_eq!(corpus_a, corpus_b, "seed does not pin the corpus");
        assert_eq!(ops_a, ops_b, "seed does not pin the interleaving");
        assert!(
            ops_a.len() >= 200,
            "acceptance demands ≥200-op interleavings"
        );
        // And a full deterministic end-to-end replay: same seed, same
        // verdict (both runs green on a correct engine).
        run_case(seed, 40, 60).expect("replay run 1");
        run_case(seed, 40, 60).expect("replay run 2");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// A deliberately failing mutation case: the panic must carry the
    /// exact `RANKSIM_PROPTEST_SEED=0x…` re-run line for THIS harness —
    /// the no-shrinking replay stopgap (see vendor/README.md).
    #[test]
    #[should_panic(expected = "re-run exactly this case with: RANKSIM_PROPTEST_SEED=0x")]
    fn failing_mutation_case_prints_replay_seed(seed in 0u64..u64::MAX) {
        let (corpus, sequence) = derive_case(seed, 20, 30);
        let mut harness = Harness::new(&corpus);
        for op in &sequence {
            harness.apply(op);
        }
        // An impossible claim about the mutated corpus.
        prop_assert_eq!(harness.engine.live_len(), usize::MAX, "synthetic failure");
    }
}
