//! Synthetic ranking corpora and query workloads.
//!
//! The paper evaluates on two datasets that cannot be redistributed:
//! **NYT** (1M web-search-result rankings over the licensed New York Times
//! Annotated Corpus) and **Yago** (25k entity rankings mined from the Yago
//! knowledge base). This crate generates seeded synthetic substitutes that
//! preserve the two properties the paper's analysis and algorithms are
//! sensitive to (see DESIGN.md §3):
//!
//! 1. **Item-popularity skew** — item frequencies follow Zipf's law; the
//!    authors measured `s ≈ 0.87` on NYT (few hugely popular documents)
//!    and `s ≈ 0.53` on Yago (near-uniform entities).
//! 2. **Near-duplicate cluster structure** — NYT-style query logs repeat
//!    queries with small variations, producing many rankings within small
//!    Footrule distance of each other; Yago produces small, tight,
//!    mutually distant clusters.
//!
//! [`nyt_like`] and [`yago_like`] are presets of the parameterized
//! [`ClusteredZipfGenerator`]; [`workload()`] derives query sets by lightly
//! perturbing corpus rankings (queries in the paper come from the same
//! distribution as the data).

pub mod generator;
pub mod workload;
pub mod zipf;

pub use generator::{ClusteredZipfGenerator, Dataset, GeneratorParams};
pub use workload::{perturb_ranking, PerturbParams};
pub use workload::{workload, Workload, WorkloadParams};
pub use zipf::{estimate_zipf_s, ZipfSampler};

/// Parameters of the NYT-like preset (see [`nyt_like`]).
fn nyt_like_params(n: usize, k: usize, seed: u64) -> GeneratorParams {
    GeneratorParams {
        name: format!("nyt-like(n={n},k={k})"),
        n,
        k,
        // One result-list slot per distinct query on average; the Zipf
        // head still puts popular documents into thousands of rankings.
        domain: (n.max(40 * k)) as u32,
        zipf_s: 0.87,
        // Query logs repeat heavily: large near-duplicate clusters.
        num_seeds: (n / 100).max(1),
        cluster_fraction: 0.8,
        max_swaps: 3,
        replace_prob: 0.4,
        seed,
    }
}

/// Parameters of the Yago-like preset (see [`yago_like`]).
fn yago_like_params(n: usize, k: usize, seed: u64) -> GeneratorParams {
    GeneratorParams {
        name: format!("yago-like(n={n},k={k})"),
        n,
        k,
        // Entities occur in few rankings: domain on the order of n.
        domain: (n.max(4 * k)) as u32,
        zipf_s: 0.53,
        num_seeds: (n / 20).max(1),
        cluster_fraction: 0.55,
        max_swaps: 2,
        replace_prob: 0.25,
        seed,
    }
}

/// The paper's NYT dataset, scaled: web-search-result rankings with
/// strongly skewed document popularity (`s = 0.87`) and heavy
/// near-duplicate clustering. `n` is configurable because the original has
/// 1M rankings — the benches default to 100k on laptop budgets.
pub fn nyt_like(n: usize, k: usize, seed: u64) -> Dataset {
    ClusteredZipfGenerator::new(nyt_like_params(n, k, seed)).generate()
}

/// The paper's Yago dataset, at original scale by default (25k rankings):
/// entity rankings with near-uniform item popularity (`s = 0.53`), a large
/// item domain relative to `n`, and small tight clusters.
pub fn yago_like(n: usize, k: usize, seed: u64) -> Dataset {
    ClusteredZipfGenerator::new(yago_like_params(n, k, seed)).generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_rankings::footrule_store;

    #[test]
    fn presets_generate_requested_sizes() {
        let nyt = nyt_like(2000, 10, 1);
        assert_eq!(nyt.store.len(), 2000);
        assert_eq!(nyt.store.k(), 10);
        let yago = yago_like(1500, 10, 2);
        assert_eq!(yago.store.len(), 1500);
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let a = nyt_like(500, 8, 42);
        let b = nyt_like(500, 8, 42);
        for id in a.store.ids() {
            assert_eq!(a.store.items(id), b.store.items(id));
        }
        let c = nyt_like(500, 8, 43);
        let differs = c
            .store
            .ids()
            .any(|id| a.store.items(id) != c.store.items(id));
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn nyt_like_is_more_skewed_than_yago_like() {
        let nyt = nyt_like(4000, 10, 7);
        let yago = yago_like(4000, 10, 7);
        let s_nyt = estimate_zipf_s(&nyt.store);
        let s_yago = estimate_zipf_s(&yago.store);
        assert!(
            s_nyt > s_yago,
            "measured skew: nyt {s_nyt:.3} vs yago {s_yago:.3}"
        );
    }

    #[test]
    fn nyt_like_contains_near_duplicates() {
        // The clustering property: a decent share of consecutive-cluster
        // rankings lie within a small Footrule radius of another ranking.
        let ds = nyt_like(1500, 10, 3);
        let max_d = ds.store.max_distance();
        let mut close = 0usize;
        let probe = 200usize;
        for i in 0..probe {
            let a = ranksim_rankings::RankingId(i as u32);
            let near = ds
                .store
                .ids()
                .filter(|&b| b != a)
                .any(|b| footrule_store(&ds.store, a, b) <= max_d / 5);
            if near {
                close += 1;
            }
        }
        assert!(
            close > probe / 4,
            "only {close}/{probe} rankings have a near neighbour"
        );
    }
}
