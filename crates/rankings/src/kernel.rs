//! The position-compare kernel behind Footrule validation.
//!
//! The Footrule validation loop is the single hottest instruction
//! sequence in the workspace: every candidate surfacing from an inverted
//! index is scored by walking its `k` items against the query's flat
//! position map. One kernel does that walk on every served path,
//! [`crate::FlatPositionMap::distance_within`]: a chunked, branchless
//! formulation designed for auto-vectorization. Item ranks are gathered
//! into a small stack buffer with the artificial rank `l = k` standing in
//! for missing items (the Fagin et al. convention already used by the
//! distance itself), so the per-item contribution collapses to one
//! unified arithmetic expression with no data-dependent branch. On top of
//! the chunked walk it carries a **suffix-bound early exit**: after `p`
//! processed items the remaining `k − p` items can lower the running
//! total by at most `T(k − p) = (k−p)(k−p+1)/2`, so the moment
//! `partial − T(k − p)` exceeds the query threshold the candidate is
//! provably outside θ and the walk aborts.
//!
//! The kernel is exact: for any candidate within θ it returns the
//! distance of the straight-line reference loop
//! [`crate::FlatPositionMap::distance_to`], and the early exit only ever
//! fires on candidates whose final distance is certainly above θ. Result
//! sets therefore equal those of the reference loop — the property
//! `crates/rankings/tests` and the invindex differential suites pin down
//! on adversarial lengths and alignments, with the reference loop as the
//! oracle.

/// How many candidate items one gather/arith block of the chunked kernel
/// covers. Small on purpose: rankings are short (`k ≈ 10` in the paper's
/// workloads), and the suffix-bound exit is checked at chunk boundaries —
/// a coarser chunk would process most of a hopeless candidate before the
/// first check.
pub const KERNEL_CHUNK: usize = 4;
