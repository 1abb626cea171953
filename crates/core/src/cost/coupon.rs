//! Expected medoid count via the batched coupon-collector argument
//! (paper Section 5, Equations 1–2) plus a numerically robust variant.
//!
//! Random-medoid partitioning picks medoids one after another; each medoid
//! absorbs the unassigned rankings within radius `θ_C` — in expectation a
//! "package" of `p = P[X ≤ θ_C] · n` coupons per pick, with the medoid
//! itself always fresh. The paper models the expected number of picks as
//!
//! ```text
//! h(n, i, p) = 1                         if i mod p = 0     (the medoid)
//!            = (n − (i mod p)) / (n − i) otherwise          (Eq. 1)
//!
//! M(n, θ_C) = (1/p) · Σ_{i=0}^{n−1} h(n, i, p)              (Eq. 2)
//! ```
//!
//! **Deviation note** (documented in DESIGN.md): Eq. 2 inherits the
//! classical coupon-collector tail — the last distinct coupons cost
//! `Θ(n)` draws each — so for small packages (`1 < p ≪ n`, the
//! near-uniform Yago regime) the sum approaches `n·H_n` and `M` exceeds
//! `n`, which is physically impossible for medoids (every pick is an
//! unassigned ranking). In the real Chávez–Navarro process the expected
//! *fresh* coverage of one pick is `1 + (u − 1)·P[X ≤ θ_C]` when `u`
//! rankings remain unassigned, giving the recurrence
//! `u' = (u − 1)(1 − P)` whose iteration count is
//! [`expected_medoids`]. Both estimates agree in the paper's large-package
//! regime (validated by a unit test); the recurrence stays sane everywhere
//! and is what [`crate::CostModel`] uses. The tests compare it with the
//! paper's Equation 2, kept verbatim there as the reference.

/// Equation 1: expected draws to advance from the `i`-th to the
/// `(i+1)`-th distinct coupon with package size `p`.
pub fn h(n: usize, i: usize, p: usize) -> f64 {
    debug_assert!(p >= 1 && i < n);
    if i.is_multiple_of(p) {
        1.0
    } else {
        (n - (i % p)) as f64 / (n - i) as f64
    }
}

/// Expected medoids via the unassigned-mass recurrence `u' = (u−1)(1−P)`
/// (see module docs): each pick removes the medoid plus, in expectation,
/// a `P[X ≤ θ_C]` fraction of the other unassigned rankings.
pub fn expected_medoids(n: usize, p_capture: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let q = p_capture.clamp(0.0, 1.0);
    if q <= f64::EPSILON {
        return n as f64;
    }
    let mut u = n as f64;
    let mut m = 0u64;
    while u >= 0.5 && (m as usize) < n {
        u = (u - 1.0) * (1.0 - q);
        m += 1;
    }
    (m as f64).clamp(1.0, n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equation 2 verbatim: expected medoids by the batched coupon
    /// collector, clamped to the physically possible `[1, n]` — the
    /// paper's estimate the recurrence is checked against.
    fn expected_medoids_eq2(n: usize, p_capture: f64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let p = ((p_capture * n as f64).round() as usize).clamp(1, n);
        let sum: f64 = (0..n).map(|i| h(n, i, p)).sum();
        (sum / p as f64).clamp(1.0, n as f64)
    }

    #[test]
    fn full_capture_gives_one_medoid() {
        assert!((expected_medoids(1000, 1.0) - 1.0).abs() < 1e-9);
        assert!((expected_medoids_eq2(1000, 1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capture_gives_n_medoids() {
        assert!((expected_medoids(500, 0.0) - 500.0).abs() < 1e-9);
        assert!((expected_medoids_eq2(500, 0.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn medoid_count_decreases_with_capture_probability() {
        let n = 2000;
        let mut prev = f64::INFINITY;
        for pc in [0.0, 0.0005, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0] {
            let m = expected_medoids(n, pc);
            assert!(m <= prev + 1e-9, "M must be non-increasing in P[X≤θC]");
            assert!((1.0..=n as f64).contains(&m));
            prev = m;
        }
    }

    #[test]
    fn medoid_count_is_monotone_in_corpus_size() {
        // At fixed capture probability, more rankings can only require
        // more medoids (both estimators).
        for pc in [0.01, 0.1, 0.5] {
            let mut prev = 0.0;
            let mut prev_eq2 = 0.0;
            for n in [10usize, 100, 1000, 10_000] {
                let m = expected_medoids(n, pc);
                let m_eq2 = expected_medoids_eq2(n, pc);
                assert!(m + 1e-9 >= prev, "P={pc} n={n}: {m} < {prev}");
                assert!(m_eq2 + 1e-9 >= prev_eq2, "Eq2 P={pc} n={n}");
                prev = m;
                prev_eq2 = m_eq2;
            }
        }
    }

    #[test]
    fn eq1_h_is_one_exactly_at_package_boundaries() {
        // Eq. 1: a fresh medoid pick costs exactly one draw; intermediate
        // coupons cost at least one draw in expectation.
        let (n, p) = (100usize, 10usize);
        for i in 0..n {
            let v = h(n, i, p);
            if i % p == 0 {
                assert_eq!(v, 1.0, "i={i}");
            } else {
                assert!(v >= 1.0, "i={i}: h={v} below 1 draw");
            }
        }
    }

    #[test]
    fn recurrence_discriminates_in_small_package_regime() {
        // The regime where Eq. 2 saturates at n: the recurrence must still
        // order the estimates by capture probability.
        let n = 10_000;
        let a = expected_medoids(n, 0.0002);
        let b = expected_medoids(n, 0.001);
        let c = expected_medoids(n, 0.005);
        assert!(a > b && b > c, "a={a} b={b} c={c}");
        assert!(c < n as f64 * 0.25);
    }

    #[test]
    fn eq2_and_recurrence_agree_for_large_packages() {
        // The paper's NYT regime: meaningful capture probability.
        for (n, pc) in [(50_000usize, 0.2f64), (20_000, 0.4), (100_000, 0.1)] {
            let eq2 = expected_medoids_eq2(n, pc);
            let rec = expected_medoids(n, pc);
            let ratio = eq2 / rec;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "n={n} P={pc}: eq2 {eq2:.1} vs recurrence {rec:.1}"
            );
        }
    }

    #[test]
    fn half_capture_sanity() {
        let m = expected_medoids(10_000, 0.5);
        assert!((2.0..30.0).contains(&m), "M = {m}");
        let m2 = expected_medoids_eq2(10_000, 0.5);
        assert!((2.0..60.0).contains(&m2), "Eq2 M = {m2}");
    }

    #[test]
    fn prediction_matches_random_partitioner() {
        // Empirical validation on a corpus with genuine cluster structure:
        // predict via the corpus's own distance CDF, compare with the
        // actual Chávez–Navarro construction (averaged over seeds). The
        // corpus uses many small clusters so the model's homogeneity
        // assumption (capture probability independent of the medoid)
        // roughly holds; for a handful of huge clusters the expectation
        // model under-counts, which is inherent to the paper's derivation.
        use crate::cost::cdf::DistanceCdf;
        use ranksim_datasets::{ClusteredZipfGenerator, GeneratorParams};
        use ranksim_metricspace::RandomMedoidPartitioner;

        let ds = ClusteredZipfGenerator::new(GeneratorParams {
            name: "coupon-validation".into(),
            n: 400,
            k: 8,
            domain: 600,
            zipf_s: 0.8,
            num_seeds: 50,
            cluster_fraction: 0.6,
            max_swaps: 2,
            replace_prob: 0.3,
            seed: 9,
        })
        .generate();
        let cdf = DistanceCdf::exhaustive(&ds.store);
        for theta_c in [8u32, 20, 36] {
            let predicted = expected_medoids(ds.store.len(), cdf.p_leq(theta_c));
            let mut actual = 0.0;
            let runs = 5;
            for seed in 0..runs {
                actual += RandomMedoidPartitioner::new(seed)
                    .partition(&ds.store, theta_c)
                    .num_partitions() as f64;
            }
            actual /= runs as f64;
            let ratio = predicted / actual;
            assert!(
                (0.25..=4.0).contains(&ratio),
                "θC={theta_c}: predicted {predicted:.1} vs actual {actual:.1}"
            );
        }
    }
}
