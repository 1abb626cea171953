//! Everything a run feeds the library, derived from `--seed` alone:
//! corpora, query lists, the θ-cycle, the mixed op stream of the
//! serving workload — and the brute-force answers they are checked
//! against.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim_datasets::{
    nyt_like, perturb_ranking, workload, yago_like, PerturbParams, WorkloadParams,
};
use ranksim_rankings::{footrule_pairs, raw_threshold, ItemId, RankingId, RankingStore};

/// Ranking size of every corpus.
pub const K: usize = 10;
/// Normalized thresholds, assigned round-robin to a query list.
pub const THETAS: [f64; 4] = [0.05, 0.1, 0.2, 0.3];
/// Neighbours a top-k query asks for.
pub const NEIGHBOURS: usize = 10;
/// Queries (and inserted rankings) are corpus rankings perturbed so.
pub const PERTURB: PerturbParams = PerturbParams {
    max_swaps: 3,
    replace_prob: 0.5,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Skewed item popularity, large near-duplicate clusters.
    Nyt,
    /// Near-uniform popularity, small tight clusters.
    Yago,
}

pub struct Inputs {
    pub store: RankingStore,
    pub domain: u32,
    /// The read log, in the order `--seed` gives it.
    pub queries: Vec<Vec<ItemId>>,
    /// The top-k log, always in the same order: a run affords a few
    /// dozen top-k queries, each engine answers its own stretch, and
    /// their cost spans three orders of magnitude.
    pub topk_queries: Vec<Vec<ItemId>>,
    /// Seconds spent generating the corpus.
    pub gen_s: f64,
}

/// Seed of the dataset: the corpus and the two query logs drawn from
/// it. Like the paper's NYT and Yago collections they stay the same
/// from run to run; `--seed` decides the order the read log is replayed
/// in, the rankings written, the victims deleted and the serving
/// workload's op mix. Corpora and logs drawn per run differ by 10–30%
/// in what a query costs — BK-tree shape, cluster sizes, medoid shards,
/// which queries fall in the tail — and that drowns every difference
/// the benchmark exists to show.
pub const CORPUS_SEED: u64 = 2015;

/// Raw threshold of query `i` of a list under the θ-cycle.
pub fn theta_raw_of(i: usize) -> u32 {
    raw_threshold(THETAS[i % THETAS.len()], K)
}

pub fn generate(
    family: Family,
    n: usize,
    num_queries: usize,
    num_topk: usize,
    seed: u64,
) -> Inputs {
    let t = Instant::now();
    let ds = match family {
        Family::Nyt => nyt_like(n, K, CORPUS_SEED),
        Family::Yago => yago_like(n, K, CORPUS_SEED),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let draw = |num_queries, seed| {
        let params = WorkloadParams {
            num_queries,
            max_swaps: PERTURB.max_swaps,
            replace_prob: PERTURB.replace_prob,
            seed,
        };
        workload(&ds.store, ds.params.domain, params).queries
    };
    let (mut queries, topk_queries) = (
        draw(num_queries, CORPUS_SEED),
        draw(num_topk, CORPUS_SEED ^ 0x70BC),
    );
    // `--seed` orders the log. Positions are shuffled within their
    // residue class mod 4 only, so every query keeps the threshold the
    // θ-cycle gave it.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (THETAS.len()..queries.len()).rev() {
        let class_size = i / THETAS.len() + 1;
        let j = rng.random_range(0..class_size) * THETAS.len() + i % THETAS.len();
        queries.swap(i, j);
    }
    Inputs {
        store: ds.store,
        domain: ds.params.domain,
        queries,
        topk_queries,
        gen_s,
    }
}

/// A ranking's item-sorted `(item, rank)` pairs, the form `footrule_pairs` takes.
pub fn query_pairs(query: &[ItemId]) -> Vec<(ItemId, u32)> {
    let mut qp: Vec<(ItemId, u32)> = query
        .iter()
        .enumerate()
        .map(|(rank, &item)| (item, rank as u32))
        .collect();
    qp.sort_unstable();
    qp
}

/// Every live ranking within `theta_raw` of `query`, ascending ids: a
/// linear `footrule_pairs` scan that shares nothing with the indexes.
pub fn brute_threshold(store: &RankingStore, query: &[ItemId], theta_raw: u32) -> Vec<RankingId> {
    let qp = query_pairs(query);
    store
        .live_ids()
        .filter(|&id| footrule_pairs(&qp, store.sorted_pairs(id), K) <= theta_raw)
        .collect()
}

/// The lexicographically smallest `neighbours` `(distance, id)` pairs.
pub fn brute_topk(
    store: &RankingStore,
    query: &[ItemId],
    neighbours: usize,
) -> Vec<(u32, RankingId)> {
    let qp = query_pairs(query);
    let mut all: Vec<(u32, RankingId)> = store
        .live_ids()
        .map(|id| (footrule_pairs(&qp, store.sorted_pairs(id), K), id))
        .collect();
    let keep = neighbours.min(all.len());
    if keep < all.len() {
        all.select_nth_unstable(keep);
        all.truncate(keep);
    }
    all.sort_unstable();
    all
}

/// Whether two answers hold the same ids. Only sharded stacks answer in
/// a canonical order; a monolithic engine's order depends on the
/// executor that ran.
pub fn same_ids(a: &[RankingId], b: &[RankingId]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Whether a ranking with content `items` is within `theta_raw` of the
/// query whose [`query_pairs`] are `qp`.
pub fn within(qp: &[(ItemId, u32)], items: &[ItemId], theta_raw: u32) -> bool {
    footrule_pairs(qp, &query_pairs(items), K) <= theta_raw
}

/// A read log split by the θ-cycle, one group per threshold: the raw
/// threshold, the log positions, the queries. The batch drivers take
/// one threshold per call.
pub fn theta_groups(queries: &[Vec<ItemId>]) -> Vec<(u32, Vec<usize>, Vec<Vec<ItemId>>)> {
    (0..THETAS.len())
        .map(|g| {
            let idx: Vec<usize> = (g..queries.len()).step_by(THETAS.len()).collect();
            let group = idx.iter().map(|&i| queries[i].clone()).collect();
            (theta_raw_of(g), idx, group)
        })
        .collect()
}

/// A corpus ranking perturbed into a fresh one (what writers insert).
pub fn fresh_ranking(store: &RankingStore, domain: u32, rng: &mut StdRng) -> Vec<ItemId> {
    let base = RankingId(rng.random_range(0..store.len() as u32));
    let mut items = store.items(base).to_vec();
    perturb_ranking(&mut items, domain, PERTURB, rng);
    items
}

/// One operation of the serving workload's mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Threshold read of query `query` (θ from the cycle).
    Read {
        query: usize,
    },
    Insert {
        items: Vec<ItemId>,
    },
    /// Delete this client's oldest own insert; `fallback` is the base
    /// ranking to delete when it has none left.
    Delete {
        fallback: RankingId,
    },
}

/// The seeded op stream of one client: 90% reads, 6% inserts, 4% deletes.
/// Not 5/5: an insert and a delete cost differently, and with equally
/// many of each the median write would sit on the edge between the two.
/// Fallback victims of client `c` are base ids `≡ c (mod clients)`, each
/// at most once, so clients never race for a victim.
pub struct OpStream<'a> {
    rng: StdRng,
    store: &'a RankingStore,
    domain: u32,
    num_queries: usize,
    client: u32,
    clients: u32,
    next_victim: u32,
}

impl<'a> OpStream<'a> {
    pub fn new(
        seed: u64,
        client: u32,
        clients: u32,
        store: &'a RankingStore,
        domain: u32,
        num_queries: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E_0000 + client as u64));
        let next_victim = rng.random_range(0..store.len() as u32 / clients);
        OpStream {
            rng,
            store,
            domain,
            num_queries,
            client,
            clients,
            next_victim,
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let roll = self.rng.random_range(0..100u32);
        Some(if roll < 90 {
            Op::Read {
                query: self.rng.random_range(0..self.num_queries),
            }
        } else if roll < 96 {
            Op::Insert {
                items: fresh_ranking(self.store, self.domain, &mut self.rng),
            }
        } else {
            let per_client = self.store.len() as u32 / self.clients;
            let slot = self.next_victim % per_client;
            self.next_victim += 1;
            Op::Delete {
                fallback: RankingId(slot * self.clients + self.client),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_identical_inputs_and_op_sequence() {
        let a = generate(Family::Nyt, 600, 40, 5, 7);
        let b = generate(Family::Nyt, 600, 40, 5, 7);
        let c = generate(Family::Nyt, 600, 40, 5, 8);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.topk_queries, c.topk_queries);
        // Another seed replays the same log in another order, and every
        // query keeps its place in the θ-cycle.
        for class in 0..THETAS.len() {
            let of = |inputs: &Inputs| -> Vec<Vec<ItemId>> {
                let mut q: Vec<_> = inputs
                    .queries
                    .iter()
                    .skip(class)
                    .step_by(4)
                    .cloned()
                    .collect();
                q.sort();
                q
            };
            assert_eq!(of(&a), of(&c));
        }
        // The corpus is the same dataset under every seed.
        assert!((0..600u32).all(|i| a.store.items(RankingId(i)) == c.store.items(RankingId(i))));

        let ops = |inputs: &Inputs, seed, client| -> Vec<Op> {
            OpStream::new(seed, client, 2, &inputs.store, inputs.domain, 40)
                .take(2000)
                .collect()
        };
        assert_eq!(ops(&a, 7, 0), ops(&b, 7, 0));
        assert_ne!(ops(&a, 7, 0), ops(&a, 7, 1));
        assert_ne!(ops(&a, 7, 0), ops(&a, 9, 0));

        // The mix is 90/6/4 and fallback victims never collide.
        let stream = ops(&a, 7, 1);
        let reads = stream
            .iter()
            .filter(|o| matches!(o, Op::Read { .. }))
            .count();
        assert!((1700..1900).contains(&reads), "{reads} reads of 2000");
        let mut victims: Vec<u32> = stream
            .iter()
            .filter_map(|o| match o {
                Op::Delete { fallback } => Some(fallback.0),
                _ => None,
            })
            .collect();
        assert!(victims.iter().all(|v| v % 2 == 1 && *v < 600));
        let count = victims.len();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), count);
    }

    #[test]
    fn brute_force_agrees_with_itself() {
        let inputs = generate(Family::Yago, 400, 10, 5, 3);
        for (i, q) in inputs.queries.iter().enumerate() {
            let theta = theta_raw_of(i);
            let hits = brute_threshold(&inputs.store, q, theta);
            assert!(hits.windows(2).all(|w| w[0] < w[1]));
            for id in &hits {
                assert!(within(&query_pairs(q), inputs.store.items(*id), theta));
            }
            let top = brute_topk(&inputs.store, q, NEIGHBOURS);
            assert_eq!(top.len(), NEIGHBOURS);
            assert!(top.windows(2).all(|w| w[0] < w[1]));
            let within_top: Vec<RankingId> = top
                .iter()
                .filter(|(d, _)| *d <= theta)
                .map(|&(_, id)| id)
                .collect();
            assert!(within_top.iter().all(|id| hits.contains(id)));
        }
    }
}
