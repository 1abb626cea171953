//! The combined cost model and sweet-spot tuner (paper Section 5,
//! Table 3, Figure 3).

use crate::cost::calibrate::CalibratedCosts;
use crate::cost::cdf::DistanceCdf;
use crate::cost::coupon::expected_medoids;
use ranksim_datasets::estimate_zipf_s;
use ranksim_rankings::{max_distance, raw_threshold, RankingStore};

/// Predicted filtering / validation / total cost at one `θ_C` (in
/// calibrated nanoseconds; only relative magnitudes matter for tuning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Querying the medoid inverted index (Table 3, "find medoids").
    pub filter: f64,
    /// Validating the retrieved partitions (Table 3, "validation").
    pub validate: f64,
}

impl CostBreakdown {
    /// Total modeled cost.
    pub fn total(&self) -> f64 {
        self.filter + self.validate
    }
}

/// The coarse index's analytical cost model.
///
/// Inputs (all estimated from the corpus, no ground truth needed):
/// pairwise-distance CDF, item-popularity Zipf exponent `s`, domain size
/// `v`, corpus size `n`, ranking size `k`, and two calibrated machine
/// primitives.
#[derive(Debug, Clone)]
pub struct CostModel {
    n: usize,
    k: usize,
    v: f64,
    s: f64,
    cdf: DistanceCdf,
    costs: CalibratedCosts,
}

impl CostModel {
    /// Builds the model from a corpus: samples the distance CDF
    /// (`cdf_pairs` pairs), estimates `s` by log-log regression, and uses
    /// the supplied machine costs.
    pub fn from_store(
        store: &RankingStore,
        cdf_pairs: usize,
        seed: u64,
        costs: CalibratedCosts,
    ) -> Self {
        let cdf = DistanceCdf::sample(store, cdf_pairs, seed);
        let s = estimate_zipf_s(store).max(0.0);
        let v = count_distinct_items(store) as f64;
        CostModel {
            n: store.live_len(),
            k: store.k(),
            v,
            s,
            cdf,
            costs,
        }
    }

    /// Builds the model from explicit components (tests, what-if analyses).
    pub fn from_parts(
        n: usize,
        k: usize,
        v: f64,
        s: f64,
        cdf: DistanceCdf,
        costs: CalibratedCosts,
    ) -> Self {
        CostModel {
            n,
            k,
            v,
            s,
            cdf,
            costs,
        }
    }

    /// Estimated Zipf exponent.
    pub fn zipf_s(&self) -> f64 {
        self.s
    }

    /// The distance CDF in use.
    pub fn cdf(&self) -> &DistanceCdf {
        &self.cdf
    }

    /// Expected number of medoids `M(n, θ_C)` (Eq. 2).
    pub fn expected_medoids(&self, theta_c_raw: u32) -> f64 {
        expected_medoids(self.n, self.cdf.p_leq(theta_c_raw))
    }

    /// Expected distinct items `E[v′]` among `m` medoids (Eq. 6):
    /// `v (1 − (1 − k/v)^M)`.
    fn expected_distinct_items(&self, m: f64) -> f64 {
        let ratio = (1.0 - self.k as f64 / self.v).max(0.0);
        (self.v * (1.0 - ratio.powf(m))).max(1.0)
    }

    /// Expected medoid-index list length (Eq. 5):
    /// `Σ_i M · f(i; s, v′)² = M · H_{v′,2s} / H_{v′,s}²`.
    fn expected_list_len(&self, m: f64) -> f64 {
        let v_prime = self.expected_distinct_items(m).round().max(1.0) as u64;
        let h_s = generalized_harmonic(v_prime, self.s);
        let h_2s = generalized_harmonic(v_prime, 2.0 * self.s);
        m * h_2s / (h_s * h_s)
    }

    /// The Table 3 cost combination at thresholds `θ` (query) and `θ_C`
    /// (partitioning), both in raw Footrule units.
    pub fn breakdown(&self, theta_raw: u32, theta_c_raw: u32) -> CostBreakdown {
        let m = self.expected_medoids(theta_c_raw);
        let len = self.expected_list_len(m);
        let k = self.k;
        // Find medoids: merge k index lists, then evaluate the distance of
        // each retrieved medoid against θ + θ_C.
        let filter = self.costs.merge_cost(k, len) + k as f64 * len * self.costs.footrule_ns;
        // Validate retrieved rankings: E[candidates] = P[X ≤ θ+θC] · n
        // (Eq. 4), each checked with one Footrule evaluation.
        let relaxed = theta_raw + theta_c_raw;
        let validate = self.n as f64 * self.cdf.p_leq(relaxed) * self.costs.footrule_ns;
        CostBreakdown { filter, validate }
    }

    /// Grid-searches `θ_C` (even raw values in `[0, grid_max]`) for the
    /// minimum total modeled cost at query threshold `θ`. Returns the raw
    /// `θ_C`. `grid_max` defaults to `0.8 · d_max` when `None`, matching
    /// the paper's swept range.
    pub fn optimal_theta_c(&self, theta_raw: u32, grid_max: Option<u32>) -> u32 {
        let d_max = max_distance(self.k);
        let hi = grid_max.unwrap_or((0.8 * d_max as f64) as u32);
        let mut best = (0u32, f64::INFINITY);
        let mut tc = 0u32;
        while tc <= hi {
            // Only θ + θ_C < d_max keeps the inverted-index retrieval
            // complete (Section 4.2); skip infeasible settings.
            if theta_raw + tc < d_max {
                let cost = self.breakdown(theta_raw, tc).total();
                if cost < best.1 {
                    best = (tc, cost);
                }
            }
            tc += 2;
        }
        best.0
    }

    /// Convenience: optimal `θ_C` for a normalized query threshold.
    pub fn optimal_theta_c_normalized(&self, theta: f64) -> f64 {
        let raw = self.optimal_theta_c(raw_threshold(theta, self.k), None);
        raw as f64 / max_distance(self.k) as f64
    }
}

/// `H_{v,s} = Σ_{i=1}^{v} i^{−s}`.
fn generalized_harmonic(v: u64, s: f64) -> f64 {
    (1..=v).map(|i| 1.0 / (i as f64).powf(s)).sum()
}

fn count_distinct_items(store: &RankingStore) -> usize {
    use ranksim_rankings::hash::FxHashSet;
    let mut set = FxHashSet::default();
    for id in store.live_ids() {
        set.extend(store.items(id).iter().copied());
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_datasets::{nyt_like, yago_like};

    fn model(n: usize) -> CostModel {
        let ds = nyt_like(n, 10, 4);
        CostModel::from_store(&ds.store, 30_000, 9, CalibratedCosts::nominal(10))
    }

    #[test]
    fn harmonic_special_cases() {
        assert!((generalized_harmonic(1, 0.5) - 1.0).abs() < 1e-12);
        // s = 0 ⇒ H = v.
        assert!((generalized_harmonic(100, 0.0) - 100.0).abs() < 1e-9);
        // s = 1, v = 4 ⇒ 1 + 1/2 + 1/3 + 1/4.
        assert!((generalized_harmonic(4, 1.0) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn filter_cost_decreases_validate_increases_in_theta_c() {
        let m = model(3000);
        let theta = raw_threshold(0.2, 10);
        let mut prev_filter = f64::INFINITY;
        let mut prev_validate = 0.0;
        for tc in (0..=80u32).step_by(8) {
            let b = m.breakdown(theta, tc);
            assert!(
                b.filter <= prev_filter + 1e-6,
                "filter cost must fall with θC"
            );
            assert!(
                b.validate >= prev_validate - 1e-6,
                "validation cost must rise with θC"
            );
            prev_filter = b.filter;
            prev_validate = b.validate;
        }
    }

    #[test]
    fn optimum_is_interior_on_clustered_data() {
        // Figure 3's shape: overall cost dips between the extremes.
        let m = model(3000);
        let theta = raw_threshold(0.2, 10);
        let opt = m.optimal_theta_c(theta, None);
        let cost_opt = m.breakdown(theta, opt).total();
        let cost_zero = m.breakdown(theta, 0).total();
        assert!(cost_opt <= cost_zero, "optimum can't lose to θC = 0");
        assert!(opt + theta < max_distance(10), "optimum must stay feasible");
    }

    #[test]
    fn expected_values_are_finite_and_bounded() {
        let m = model(2000);
        for tc in (0..=80u32).step_by(4) {
            let med = m.expected_medoids(tc);
            assert!((1.0..=2000.0).contains(&med));
            let v = m.expected_distinct_items(med);
            assert!(v >= 1.0 && v.is_finite());
            let len = m.expected_list_len(med);
            assert!(len.is_finite() && len >= 0.0);
            assert!(
                len <= med + 1e-9,
                "a list cannot exceed the number of indexed medoids"
            );
        }
    }

    #[test]
    fn crossover_sanity_at_extreme_thetas() {
        let m = model(2000);
        let d_max = max_distance(10);

        // θ at the top of the scale: only θ_C = 0 keeps θ + θ_C < d_max
        // feasible, so the tuner must return exactly 0.
        let opt_hi = m.optimal_theta_c(d_max - 1, None);
        assert_eq!(opt_hi, 0, "near-d_max θ leaves no feasible coarsening");

        // θ = 0: every grid point is feasible; the choice must beat (or
        // tie) both extremes of its own objective.
        let opt_lo = m.optimal_theta_c(0, None);
        let cost_opt = m.breakdown(0, opt_lo).total();
        let grid_hi = (0.8 * d_max as f64) as u32 & !1;
        assert!(cost_opt <= m.breakdown(0, 0).total() + 1e-9);
        assert!(cost_opt <= m.breakdown(0, grid_hi).total() + 1e-9);

        // Breakdown components stay finite and non-negative at both ends.
        for (theta, tc) in [(0u32, 0u32), (0, grid_hi), (d_max - 1, 0)] {
            let b = m.breakdown(theta, tc);
            assert!(b.filter.is_finite() && b.filter >= 0.0);
            assert!(b.validate.is_finite() && b.validate >= 0.0);
            assert!(b.total() >= b.filter.max(b.validate));
        }
    }

    #[test]
    fn optimal_theta_c_normalized_stays_in_unit_interval() {
        let m = model(1500);
        for theta in [0.0, 0.1, 0.3, 0.6, 0.9] {
            let tc = m.optimal_theta_c_normalized(theta);
            assert!((0.0..=1.0).contains(&tc), "θ={theta}: θ_C={tc}");
        }
    }

    #[test]
    fn skew_estimates_differ_between_datasets() {
        let nyt = nyt_like(3000, 10, 4);
        let yago = yago_like(3000, 10, 4);
        let m1 = CostModel::from_store(&nyt.store, 10_000, 1, CalibratedCosts::nominal(10));
        let m2 = CostModel::from_store(&yago.store, 10_000, 1, CalibratedCosts::nominal(10));
        assert!(m1.zipf_s() > m2.zipf_s());
    }
}
