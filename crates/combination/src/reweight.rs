//! Coefficient re-weighting over a surviving downset — the combination
//! analogue of `sg-io`'s `DegradedGrid`.
//!
//! For *any* downward-closed index set `I` (a downset: `l ∈ I` and
//! `m ≤ l` componentwise imply `m ∈ I`), the general combination
//! coefficients are given by inclusion–exclusion over upward unit
//! offsets,
//!
//! ```text
//! c_l = Σ_{z ∈ {0,1}^d, l+z ∈ I} (−1)^{|z|₁}
//! ```
//!
//! For the classical downset `I = {l : |l|₁ ≤ n}` this reproduces the
//! textbook `(−1)^q·C(d−1,q)` diagonal coefficients, and for every
//! downset containing the origin the coefficients telescope to
//! `Σ c_l = 1`, so constants are always reproduced exactly. When
//! component grids are lost, the executor shrinks the downset below the
//! casualties and re-solves — the fault-tolerant combination technique's
//! standard recovery move (cf. Harding/Hegland FTCT; Issue 9).

use sg_core::level::Level;
use std::collections::{BTreeMap, BTreeSet};

/// Largest dimensionality the solver accepts: the stencil enumerates
/// `2^d` unit offsets per index, so this is a safety rail, not a real
/// limit (combination schemes live at d ≤ 10 or so).
pub const MAX_REWEIGHT_DIM: usize = 24;

/// General combination coefficients of a downset: for each index in
/// `downset`, the inclusion–exclusion count over its upward unit
/// neighbourhood. Indices are returned in the iteration order of
/// `downset` (coefficients of indices outside any upward closure come
/// out zero and are *kept* so callers can see the full table).
///
/// # Panics
/// If `downset` is empty, mixes dimensionalities, or `d > MAX_REWEIGHT_DIM`.
pub fn downset_coefficients(downset: &[Vec<Level>]) -> Vec<i64> {
    assert!(!downset.is_empty(), "downset must be non-empty");
    let d = downset[0].len();
    assert!(
        d > 0 && d <= MAX_REWEIGHT_DIM,
        "dimensionality {d} out of range"
    );
    let members: BTreeSet<&[Level]> = downset.iter().map(|l| l.as_slice()).collect();
    let mut probe = vec![0 as Level; d];
    downset
        .iter()
        .map(|l| {
            assert_eq!(l.len(), d, "mixed dimensionalities in downset");
            let mut c = 0i64;
            for z in 0..(1u32 << d) {
                probe.copy_from_slice(l);
                for t in 0..d {
                    probe[t] += ((z >> t) & 1) as Level;
                }
                if members.contains(probe.as_slice()) {
                    c += if z.count_ones() % 2 == 0 { 1 } else { -1 };
                }
            }
            c
        })
        .collect()
}

/// A re-weighting solution: the adjusted scheme over the surviving
/// downset plus the rigorous error budget of the adjustment.
#[derive(Debug, Clone)]
pub struct ReweightPlan {
    /// Adjusted `(coefficient, level vector)` pairs with non-zero
    /// coefficients — every listed component is available.
    pub coefficients: Vec<(i64, Vec<Level>)>,
    /// Level vectors excluded from the original scheme's support.
    pub dropped: Vec<Vec<Level>>,
    /// Rigorous bound on `|u_I(x) − u_{I′}(x)|` for every `x`:
    /// `Σ_l |c_l − c′_l| · M_l` where `M_l` is the component's max-abs
    /// nodal value (each multilinear component interpolant satisfies
    /// `|u_l(x)| ≤ M_l`).
    pub error_bound: f64,
}

/// Solve the coefficient adjustment after losing components.
///
/// * `scheme` — the original `(coefficient, level)` pairs (coefficient 0
///   entries, e.g. pre-computed spare diagonals, are allowed and widen
///   the set of usable survivors).
/// * `full_downset` — the complete downset `I` the original scheme's
///   coefficients were derived from (`{l : |l|₁ ≤ n}` for the classical
///   scheme).
/// * `available` — level vectors whose nodal values survived.
/// * `max_abs` — per-component max-abs nodal value, indexed like
///   `scheme`; used for the error bound.
///
/// The surviving downset starts as `I` minus the upward closure of every
/// unavailable scheme index and iteratively shrinks below any index the
/// re-solved coefficients need but no survivor provides. Returns `Err`
/// when no non-empty survivable downset exists.
pub fn solve_reweight(
    scheme: &[(i64, Vec<Level>)],
    full_downset: &[Vec<Level>],
    available: &BTreeSet<Vec<Level>>,
    max_abs: &BTreeMap<Vec<Level>, f64>,
) -> Result<ReweightPlan, String> {
    let mut downset: BTreeSet<Vec<Level>> = full_downset.iter().cloned().collect();
    // Remove the upward closure of every scheme index that is gone; the
    // remainder of a downset minus an up-set is still a downset.
    for (_, l) in scheme {
        if !available.contains(l) {
            downset.retain(|m| !dominates(m, l));
        }
    }
    let plan_coefficients = loop {
        if downset.is_empty() {
            return Err("no surviving downset: every candidate component is lost".into());
        }
        let ordered: Vec<Vec<Level>> = downset.iter().cloned().collect();
        let coefs = downset_coefficients(&ordered);
        let missing: Vec<&Vec<Level>> = ordered
            .iter()
            .zip(&coefs)
            .filter(|(l, &c)| c != 0 && !available.contains(*l))
            .map(|(l, _)| l)
            .collect();
        if missing.is_empty() {
            break ordered
                .into_iter()
                .zip(coefs)
                .filter(|(_, c)| *c != 0)
                .map(|(l, c)| (c, l))
                .collect::<Vec<_>>();
        }
        // Shrink below every index the adjustment needs but nobody has.
        let missing: Vec<Vec<Level>> = missing.into_iter().cloned().collect();
        for l in &missing {
            downset.retain(|m| !dominates(m, l));
        }
    };
    // Error budget: Σ |c_l − c′_l| · M_l over the union of supports.
    let adjusted: BTreeMap<&[Level], i64> = plan_coefficients
        .iter()
        .map(|(c, l)| (l.as_slice(), *c))
        .collect();
    let original: BTreeMap<&[Level], i64> =
        scheme.iter().map(|(c, l)| (l.as_slice(), *c)).collect();
    let mut error_bound = 0.0f64;
    let mut dropped = Vec::new();
    let mut support: BTreeSet<&[Level]> = original.keys().copied().collect();
    support.extend(adjusted.keys().copied());
    for l in support {
        let before = original.get(l).copied().unwrap_or(0);
        let after = adjusted.get(l).copied().unwrap_or(0);
        if before != after {
            let m = max_abs
                .get(l)
                .copied()
                .ok_or_else(|| format!("no max-abs metadata for adjusted component {l:?}"))?;
            error_bound += (before - after).unsigned_abs() as f64 * m;
        }
        if before != 0 && after == 0 {
            dropped.push(l.to_vec());
        }
    }
    Ok(ReweightPlan {
        coefficients: plan_coefficients,
        dropped,
        error_bound,
    })
}

/// True when `m ≥ l` componentwise (`m` lies in the upward closure of `l`).
pub(crate) fn dominates(m: &[Level], l: &[Level]) -> bool {
    m.iter().zip(l).all(|(a, b)| a >= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CombinationGrid;
    use sg_core::iter::for_each_level;
    use sg_core::level::GridSpec;

    fn classical_downset(d: usize, n: usize) -> Vec<Vec<Level>> {
        let mut out = Vec::new();
        for s in 0..=n {
            for_each_level(d, s, |l| out.push(l.to_vec()));
        }
        out
    }

    #[test]
    fn classical_downset_reproduces_scheme_coefficients() {
        for d in 1..=4usize {
            for levels in 1..=5usize {
                let spec = GridSpec::new(d, levels);
                let downset = classical_downset(d, spec.max_sum());
                let coefs = downset_coefficients(&downset);
                let scheme: BTreeMap<Vec<Level>, i64> = CombinationGrid::<f64>::scheme(spec)
                    .into_iter()
                    .map(|(c, l)| (l, c))
                    .collect();
                for (l, c) in downset.iter().zip(&coefs) {
                    assert_eq!(
                        scheme.get(l).copied().unwrap_or(0),
                        *c,
                        "d={d} L={levels} l={l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn any_downset_sums_to_one() {
        // Constants must be reproduced by every downset containing the
        // origin, not just the classical one.
        let staircase = vec![vec![0, 0], vec![1, 0], vec![2, 0], vec![0, 1], vec![1, 1]];
        assert_eq!(downset_coefficients(&staircase).iter().sum::<i64>(), 1);
        let origin_only = vec![vec![0, 0, 0]];
        assert_eq!(downset_coefficients(&origin_only), vec![1]);
    }

    #[test]
    fn losing_a_component_shifts_weight_downward() {
        // d=2, n=2: lose (1,1). The survivable downset excludes the
        // upward closure of (1,1); the adjustment must only use
        // survivors and still sum to 1.
        let spec = GridSpec::new(2, 3);
        let scheme = CombinationGrid::<f64>::scheme(spec);
        let downset = classical_downset(2, spec.max_sum());
        let mut available: BTreeSet<Vec<Level>> = scheme.iter().map(|(_, l)| l.clone()).collect();
        available.remove(&vec![1 as Level, 1 as Level]);
        // Also offer the spare (0,0) the executor pre-computes.
        available.insert(vec![0, 0]);
        let max_abs: BTreeMap<Vec<Level>, f64> = downset.iter().map(|l| (l.clone(), 1.0)).collect();
        let plan = solve_reweight(&scheme, &downset, &available, &max_abs).unwrap();
        assert_eq!(plan.coefficients.iter().map(|(c, _)| c).sum::<i64>(), 1);
        for (_, l) in &plan.coefficients {
            assert!(available.contains(l), "plan uses unavailable {l:?}");
        }
        assert!(plan.dropped.contains(&vec![1, 1]));
        assert!(plan.error_bound > 0.0);
    }

    #[test]
    fn losing_everything_is_an_error() {
        let spec = GridSpec::new(2, 2);
        let scheme = CombinationGrid::<f64>::scheme(spec);
        let downset = classical_downset(2, spec.max_sum());
        let available = BTreeSet::new();
        let max_abs = BTreeMap::new();
        assert!(solve_reweight(&scheme, &downset, &available, &max_abs).is_err());
    }
}
