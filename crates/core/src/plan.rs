//! Precomputed traversal plans for the batched kernels.
//!
//! Two traversals dominate the hot paths and are both derivable from
//! the `GridSpec` alone:
//!
//! * the `first_level`/`next_level` subspace walk of Alg. 7 — the
//!   blocked evaluator used to replay it once per *block*; an
//!   [`EvalPlan`] materializes it **once per batch** (level vectors and
//!   storage offsets, flat) so every block and every pool worker reuses
//!   the same walk;
//! * the *pole runs* of a hierarchization sweep — within subspace `l`,
//!   for dimension `t`, the `2^{Σ_{u>t} l_u}` consecutive ranks that
//!   share their leading bits have the same `i_t`, hence the same
//!   parent levels and the same boundary cases, and their parents
//!   occupy **consecutive** storage slots (the trailing bits of the
//!   child rank carry over unchanged to the parent rank). Each run is
//!   therefore one vertical stencil over contiguous slices. Its parent
//!   slots come from a per-subspace table of ancestor-subspace offsets,
//!   one entry per parent level `pl < l_t`, plus shifts of the run's
//!   leading rank bits: no `gp2idx` per run or per point.

use crate::bijection::GridIndexer;
use crate::iter::{first_level, next_level};
use crate::level::{hierarchical_parent, GridSpec, Index, Level, Side};
#[allow(unused_imports)] // the import is "unused" when `telemetry` is off
use crate::tel;

tel! {
    static PLAN_BUILDS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.evaluate.plan_builds");
}

/// The flattened subspace walk of one grid: every subspace's level
/// vector plus its storage offset, in bijection order.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    d: usize,
    /// Entry `e` is `levels[e*d .. (e+1)*d]`.
    levels: Vec<Level>,
    /// Storage offset (index3 + index2·2^n) of entry `e`'s subspace.
    offsets: Vec<usize>,
    /// Entry-index boundary of each level group: group `n` (all
    /// subspaces with `|l|₁ = n`) occupies entries
    /// `group_starts[n]..group_starts[n+1]`. The walk visits groups in
    /// ascending order, so entries within a group are contiguous.
    group_starts: Vec<usize>,
}

impl EvalPlan {
    /// Walk all subspaces of `spec` once and record them.
    pub fn new(spec: &GridSpec) -> Self {
        let d = spec.dim();
        let mut levels = Vec::new();
        let mut offsets = Vec::new();
        let mut group_starts = Vec::with_capacity(spec.levels() + 1);
        let mut l = vec![0 as Level; d];
        let mut off = 0usize;
        for n in 0..spec.levels() {
            let sub_len = 1usize << n;
            group_starts.push(offsets.len());
            first_level(n, &mut l);
            loop {
                levels.extend_from_slice(&l);
                offsets.push(off);
                off += sub_len;
                if !next_level(&mut l) {
                    break;
                }
            }
        }
        group_starts.push(offsets.len());
        tel! { PLAN_BUILDS.add(1); }
        EvalPlan {
            d,
            levels,
            offsets,
            group_starts,
        }
    }

    /// Dimensionality the plan was built for.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of subspaces recorded.
    pub fn num_subspaces(&self) -> usize {
        self.offsets.len()
    }

    /// Entry `e`: its level vector and storage offset.
    #[inline(always)]
    pub fn entry(&self, e: usize) -> (&[Level], usize) {
        (&self.levels[e * self.d..(e + 1) * self.d], self.offsets[e])
    }

    /// Number of level groups (`spec.levels()` at build time).
    pub fn num_groups(&self) -> usize {
        self.group_starts.len() - 1
    }

    /// Entry-index range of level group `n` (subspaces with `|l|₁ = n`),
    /// for per-group attribution in the evaluator and the divergence
    /// report.
    #[inline]
    pub fn group_entries(&self, n: usize) -> std::ops::Range<usize> {
        self.group_starts[n]..self.group_starts[n + 1]
    }
}

/// One vectorizable pole run inside a subspace, for a fixed sweep
/// dimension: `len` consecutive ranks starting at `rank0` whose left
/// (resp. right) hierarchical parents occupy the `len` consecutive
/// absolute storage slots starting at `left` (resp. `right`); `None`
/// when that parent chain ends on the domain boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoleRun {
    pub rank0: usize,
    pub len: usize,
    pub left: Option<usize>,
    pub right: Option<usize>,
}

/// Decompose subspace `l` into its dimension-`t` pole runs.
///
/// Requires `l[t] != 0` (subspaces with `l[t] = 0` have both ancestors
/// on the boundary and are skipped by the sweeps).
///
/// Run `lead` covers ranks `lead << trail ..`, where `trail = Σ_{u>t} l_u`.
/// Its high bits `A = lead >> l_t` rank the leading dimensions and its low
/// `l_t` bits give `i_t`. A parent `(pl, pi)` lives in the subspace `l`
/// with `l_t = pl`, at rank `((A << pl) | (pi−1)/2) << trail`: the
/// leading and trailing bits carry over, and only dimension `t`'s field
/// changes width. The offsets of those `l_t` ancestor subspaces are
/// computed once per call.
pub(crate) fn for_each_pole_run(
    indexer: &GridIndexer,
    l: &[Level],
    t: usize,
    mut f: impl FnMut(PoleRun),
) {
    debug_assert!(l[t] != 0);
    let lt = l[t];
    let trail: u32 = l[t + 1..].iter().map(|&v| v as u32).sum();
    let n: u32 = l.iter().map(|&v| v as u32).sum();
    // `base[pl]`: storage offset of subspace `l` with `l_t = pl`. A
    // `GridSpec` caps level sums at 30, so `pl < l_t ≤ 30`.
    let mut base = [0usize; 31];
    let mut lp = l.to_vec();
    for pl in 0..lt {
        lp[t] = pl;
        let np = (n - lt as u32 + pl as u32) as usize;
        base[pl as usize] =
            (indexer.group_offset(np) + (indexer.subspace_rank(&lp) << np)) as usize;
    }
    let parent_slot = |lead: u64, side: Side| {
        let it = 2 * (lead & ((1u64 << lt) - 1)) as Index + 1;
        hierarchical_parent(lt, it, side).map(|(pl, pi)| {
            let rank = (((lead >> lt) << pl) | ((pi as u64 - 1) >> 1)) << trail;
            base[pl as usize] + rank as usize
        })
    };
    for lead in 0..1u64 << (n - trail) {
        f(PoleRun {
            rank0: (lead << trail) as usize,
            len: 1usize << trail,
            left: parent_slot(lead, Side::Left),
            right: parent_slot(lead, Side::Right),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::{decode_subspace_rank, encode_subspace_rank, for_each_level};

    #[test]
    fn plan_matches_the_live_walk() {
        let spec = GridSpec::new(3, 4);
        let plan = EvalPlan::new(&spec);
        let mut e = 0usize;
        let mut off = 0usize;
        for n in 0..spec.levels() {
            for_each_level(spec.dim(), n, |l| {
                let (pl, poff) = plan.entry(e);
                assert_eq!(pl, l);
                assert_eq!(poff, off);
                off += 1usize << n;
                e += 1;
            });
        }
        assert_eq!(e, plan.num_subspaces());
        assert_eq!(off as u64, spec.num_points());
    }

    #[test]
    fn group_entries_partition_the_plan_by_level_sum() {
        let spec = GridSpec::new(4, 5);
        let plan = EvalPlan::new(&spec);
        assert_eq!(plan.num_groups(), spec.levels());
        let mut covered = 0usize;
        for n in 0..plan.num_groups() {
            let range = plan.group_entries(n);
            assert_eq!(range.start, covered);
            for e in range.clone() {
                let (l, _) = plan.entry(e);
                let sum: u32 = l.iter().map(|&v| v as u32).sum();
                assert_eq!(sum as usize, n, "entry {e} in group {n}");
            }
            covered = range.end;
        }
        assert_eq!(covered, plan.num_subspaces());
    }

    #[test]
    fn pole_runs_cover_each_subspace_and_parents_are_contiguous() {
        // Level sums up to 6 in every d ∈ 1..=6: `t = d−1` (no trailing
        // bits), `l_t` up to 6, and parents down to level 0.
        for d in 1..=6 {
            check_pole_runs_against_gp2idx(GridSpec::new(d, 7));
        }
    }

    fn check_pole_runs_against_gp2idx(spec: GridSpec) {
        let indexer = GridIndexer::new(spec);
        for n in 0..spec.levels() {
            for_each_level(spec.dim(), n, |l| {
                for t in 0..spec.dim() {
                    if l[t] == 0 {
                        continue;
                    }
                    let mut covered = vec![false; 1usize << n];
                    for_each_pole_run(&indexer, l, t, |run| {
                        let mut i = vec![0 as Index; spec.dim()];
                        for o in 0..run.len {
                            let rank = (run.rank0 + o) as u64;
                            assert!(!covered[rank as usize]);
                            covered[rank as usize] = true;
                            // Cross-check each run slot against the
                            // per-point parent located from scratch.
                            decode_subspace_rank(l, rank, &mut i);
                            let mut l2 = l.to_vec();
                            let mut i2 = i.clone();
                            for (side, base) in [(Side::Left, run.left), (Side::Right, run.right)] {
                                match hierarchical_parent(l[t], i[t], side) {
                                    None => assert!(base.is_none()),
                                    Some((pl, pi)) => {
                                        l2[t] = pl;
                                        i2[t] = pi;
                                        let want = indexer.gp2idx(&l2, &i2) as usize;
                                        assert_eq!(base.unwrap() + o, want);
                                        l2[t] = l[t];
                                        i2[t] = i[t];
                                    }
                                }
                            }
                            // Rank round-trips (sanity on the decode).
                            assert_eq!(encode_subspace_rank(l, &i), rank);
                        }
                    });
                    assert!(covered.iter().all(|&c| c));
                }
            });
        }
    }
}
