//! Zipf sampling and skew estimation.
//!
//! The paper's cost model (Section 5) assumes item popularity follows
//! Zipf's law with parameter `s`: the i-th most popular item has frequency
//! `f(i; s, v) = (1 / i^s) / H_{v,s}` over a domain of `v` items, with
//! `H_{v,s}` the generalized harmonic number. The generator samples items
//! from exactly this law; [`estimate_zipf_s`] recovers `s` from a corpus
//! the way the authors "empirically estimated the skewness parameter from
//! samples of the datasets" — a log-log least-squares fit of the
//! rank-frequency curve.

use rand::rngs::StdRng;
use rand::Rng;
use ranksim_rankings::hash::FxHashMap;
use ranksim_rankings::{ItemId, RankingStore};

/// Inverse-CDF sampler for the Zipf distribution over `1..=v` (item index
/// 0 maps to rank 1, the most popular).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precomputes the CDF for domain size `v` and exponent `s ≥ 0`.
    pub fn new(v: u32, s: f64) -> Self {
        assert!(v > 0, "domain must be non-empty");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(v as usize);
        let mut acc = 0.0f64;
        for i in 1..=v as u64 {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Domain size.
    pub fn v(&self) -> u32 {
        self.cdf.len() as u32
    }

    /// Samples one item index in `0..v` (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u) as u32
    }

    /// Samples `k` **distinct** item indices (rejection on duplicates;
    /// cheap because `k ≪ v`).
    pub fn sample_distinct(&self, k: usize, rng: &mut StdRng) -> Vec<u32> {
        assert!(
            k <= self.cdf.len(),
            "cannot draw {k} distinct from {}",
            self.cdf.len()
        );
        let mut out: Vec<u32> = Vec::with_capacity(k);
        while out.len() < k {
            let cand = self.sample(rng);
            if !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// Estimates the Zipf exponent of a corpus's item-frequency distribution
/// by least squares on `log(freq) = −s · log(rank) + c`, matching the
/// paper's empirical estimation procedure.
pub fn estimate_zipf_s(store: &RankingStore) -> f64 {
    let mut freq: FxHashMap<ItemId, u64> = FxHashMap::default();
    for id in store.live_ids() {
        for &item in store.items(id) {
            *freq.entry(item).or_insert(0) += 1;
        }
    }
    let mut counts: Vec<u64> = freq.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    if counts.len() < 2 {
        return 0.0;
    }
    let pts: Vec<(f64, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    -slope
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let z = ZipfSampler::new(1000, 0.87);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sample_respects_popularity_order() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[60]);
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let z = ZipfSampler::new(50, 0.9);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let mut s = z.sample_distinct(10, &mut rng);
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(64, 0.53);
        // The masses telescope to the last CDF entry.
        let total = z.cdf[63];
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimator_recovers_exponent_roughly() {
        // Build a corpus by raw Zipf sampling and re-estimate s.
        for &s in &[0.5f64, 0.9] {
            let z = ZipfSampler::new(2000, s);
            let mut rng = StdRng::seed_from_u64(7);
            let mut store = RankingStore::new(10);
            for _ in 0..3000 {
                let items: Vec<ItemId> = z
                    .sample_distinct(10, &mut rng)
                    .into_iter()
                    .map(ItemId)
                    .collect();
                store.push_items_unchecked(&items);
            }
            let est = estimate_zipf_s(&store);
            assert!(
                (est - s).abs() < 0.3,
                "estimated {est:.3} for true s = {s} (tolerance 0.3: the \
                 distinct-sampling constraint flattens the head)"
            );
        }
    }
}
