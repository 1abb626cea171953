//! Kendall's tau for top-k lists (the optimistic `K^(0)` variant of Fagin
//! et al.).
//!
//! The library's indexing pipeline is built around Spearman's Footrule, but
//! Kendall's tau is the other prominent rank-distance the paper's related
//! work discusses, and the Diaconis–Graham inequality
//! `K ≤ F ≤ 2·K` (for permutations over a common domain) provides a cheap
//! cross-check exploited by the test-suite.

use crate::ranking::ItemId;

/// Kendall's tau with penalty parameter `p = 0` ("optimistic") for two
/// equal-size top-k lists.
///
/// Every unordered pair `{i, j}` of items from `D₁ ∪ D₂` contributes:
///
/// * both items in both lists: 1 if the lists disagree on the order,
/// * `i, j` in one list while only `i` (say, ranked higher... ) appears in
///   the other: 1 if the containing list ranks `j` above `i` while the
///   other list implicitly ranks the missing item below all present ones,
/// * `i` only in one list, `j` only in the other: 1 (they must be ordered
///   oppositely),
/// * both in one list, neither in the other: 0 under `p = 0`.
pub fn kendall_top_k(a: &[ItemId], b: &[ItemId]) -> u32 {
    assert_eq!(a.len(), b.len(), "rankings must have equal size");
    let pos = |xs: &[ItemId], i: ItemId| xs.iter().position(|&x| x == i);
    let mut union: Vec<ItemId> = a.to_vec();
    for &i in b {
        if !a.contains(&i) {
            union.push(i);
        }
    }
    let mut dist = 0u32;
    for x in 0..union.len() {
        for y in (x + 1)..union.len() {
            let (i, j) = (union[x], union[y]);
            let (ai, aj) = (pos(a, i), pos(a, j));
            let (bi, bj) = (pos(b, i), pos(b, j));
            match (ai, aj, bi, bj) {
                // Case 1: both items in both lists.
                (Some(ai), Some(aj), Some(bi), Some(bj)) => {
                    if (ai < aj) != (bi < bj) {
                        dist += 1;
                    }
                }
                // Case 2: i,j in list a; only one of them in list b (the
                // missing one is implicitly ranked last in b).
                (Some(ai), Some(aj), Some(_), None) => {
                    if aj < ai {
                        dist += 1;
                    }
                }
                (Some(ai), Some(aj), None, Some(_)) => {
                    if ai < aj {
                        dist += 1;
                    }
                }
                (Some(_), None, Some(bi), Some(bj)) => {
                    if bj < bi {
                        dist += 1;
                    }
                }
                (None, Some(_), Some(bi), Some(bj)) => {
                    if bi < bj {
                        dist += 1;
                    }
                }
                // Case 4: i only in one list, j only in the other.
                (Some(_), None, None, Some(_)) | (None, Some(_), Some(_), None) => dist += 1,
                // Case 3: both in exactly one list — optimistic p = 0.
                (Some(_), Some(_), None, None) | (None, None, Some(_), Some(_)) => {}
                // Items outside both lists cannot appear in the union.
                _ => unreachable!("union item missing from both rankings"),
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footrule::footrule_items;

    fn ids(xs: &[u32]) -> Vec<ItemId> {
        xs.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn identical_lists_zero() {
        let a = ids(&[1, 2, 3, 4]);
        assert_eq!(kendall_top_k(&a, &a), 0);
    }

    #[test]
    fn single_swap_costs_one() {
        assert_eq!(kendall_top_k(&ids(&[1, 2, 3]), &ids(&[2, 1, 3])), 1);
    }

    #[test]
    fn disjoint_lists() {
        // All pairs across the two domains are discordant: k² pairs.
        let a = ids(&[1, 2, 3]);
        let b = ids(&[4, 5, 6]);
        assert_eq!(kendall_top_k(&a, &b), 9);
    }

    #[test]
    fn symmetric() {
        let a = ids(&[1, 2, 9, 8, 3]);
        let b = ids(&[9, 8, 1, 2, 4]);
        assert_eq!(kendall_top_k(&a, &b), kendall_top_k(&b, &a));
    }

    #[test]
    fn reversed_list_costs_all_pairs() {
        // Reversal flips every one of the C(k, 2) pairs.
        let a = ids(&[1, 2, 3, 4, 5]);
        let b = ids(&[5, 4, 3, 2, 1]);
        assert_eq!(kendall_top_k(&a, &b), 10);
        assert_eq!(kendall_top_k(&ids(&[1, 2]), &ids(&[2, 1])), 1);
    }

    #[test]
    fn optimistic_case3_pairs_cost_nothing() {
        // a = [1,2,3,4], b = [1,2,5,6]: the pair {3,4} lives only in a and
        // {5,6} only in b — under the optimistic p = 0 variant both cost 0.
        // The only discordant pairs are the 4 cross pairs {3,5}, {3,6},
        // {4,5}, {4,6} (one item exclusive to each list, Case 4).
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[1, 2, 5, 6]);
        assert_eq!(kendall_top_k(&a, &b), 4);
    }

    #[test]
    fn missing_item_ranks_below_all_present_items() {
        // a = [1,2,3], b = [1,4,2]. Pair {2,4}: b ranks 4 above 2 while a,
        // missing 4, implicitly ranks it below everything → discordant.
        // Pair {3,4} is Case 4. Pairs {1,2}, {1,3}, {2,3}, {1,4} agree.
        let a = ids(&[1, 2, 3]);
        let b = ids(&[1, 4, 2]);
        assert_eq!(kendall_top_k(&a, &b), 2);
    }

    #[test]
    fn case2_penalizes_only_inverted_containing_list() {
        // a = [1,2,3], b = [3,5,1], by hand over the union {1,2,3,5}:
        // {1,3} inverted in both lists (Case 1, +1); {1,5} b ranks 5 above
        // 1 while a implicitly ranks the missing 5 last (Case 2, +1);
        // {2,3} b ranks 3 above its missing 2 while a says 2 < 3 (Case 2,
        // +1); {2,5} exclusive to opposite lists (Case 4, +1); {1,2} and
        // {3,5} concordant. Total 4.
        let a = ids(&[1, 2, 3]);
        let b = ids(&[3, 5, 1]);
        assert_eq!(kendall_top_k(&a, &b), 4);
        assert_eq!(kendall_top_k(&b, &a), 4);
    }

    #[test]
    fn footrule_dominates_kendall_on_permutations() {
        // Diaconis–Graham: K ≤ F ≤ 2K for permutations of the same domain.
        let a = ids(&[0, 1, 2, 3, 4]);
        let perms = [
            ids(&[4, 3, 2, 1, 0]),
            ids(&[1, 0, 3, 2, 4]),
            ids(&[2, 4, 0, 1, 3]),
        ];
        for b in &perms {
            let k = kendall_top_k(&a, b);
            let f = footrule_items(&a, b);
            assert!(k <= f && f <= 2 * k, "K={k} F={f}");
        }
    }
}
