//! Hierarchization (compression) and its inverse.
//!
//! Hierarchization turns nodal values `f(x_{l,i})` into hierarchical
//! surpluses `α_{l,i}` by applying, dimension after dimension, the 1-d
//! stencil `v ← v − (v_left + v_right)/2`, where `left`/`right` are the
//! hierarchical ancestors bounding the basis support (value 0 at the
//! domain boundary).
//!
//! The paper's iterative formulation (Alg. 6) traverses the coefficient
//! array from the **last** index to the first: that is exactly descending
//! level-group order, so a point's ancestors — which always live in
//! coarser groups — still hold their pre-update values when read. Inside
//! one group there are no dependencies, which is what makes the algorithm
//! parallel with one barrier per group (paper §5.3).
//!
//! The sweeps are organized around *pole runs*
//! ([`crate::plan::for_each_pole_run`]): within a subspace, the ranks
//! whose trailing bits vary freely share their ancestors' levels and
//! boundary cases, and those ancestors occupy contiguous storage — so
//! each run is one vertical stencil `v[j] −= (L[j]+R[j])/2` over
//! contiguous slices — an element-wise loop the compiler vectorizes on
//! its own — with two `gp2idx` calls per run instead of two per point.
//!
//! With the `telemetry` feature, every level-group sweep is timed into the
//! spans `core.hierarchize.group_<n>` (n = level sum of the group) and the
//! `core.hierarchize.sweep_ns` latency histogram (p50/p99 across sweeps),
//! and the counter `core.hierarchize.bytes_moved` accumulates modeled
//! traffic: per updated point, one read-modify-write of the coefficient
//! plus up to two ancestor reads — `4 · sizeof(T)` bytes. The parallel
//! variants run as `sg-par` regions labeled `core.hierarchize.sweep`
//! `[group=n]`, so barrier wait (`par.barrier_wait_ns`), the per-worker
//! busy/wait imbalance table, and — under `sgtool profile` — trace events
//! are all attributed per level group.

use crate::bijection::GridIndexer;
use crate::grid::CompactGrid;
use crate::level::{hierarchical_parent, Index, Level, Side};
use crate::real::Real;
#[allow(unused_imports)] // the import is "unused" when `telemetry` is off
use crate::tel;

tel! {
    macro_rules! group_spans {
        ($prefix:literal; $($n:literal),*) => {
            [$(sg_telemetry::Span::new(concat!($prefix, stringify!($n)))),*]
        };
    }
    /// One accumulating span per level group `n` (a `GridSpec` admits
    /// `n ≤ 30`); index `n` holds all sweeps over group `n`, across
    /// dimensions and calls.
    static GROUP_SWEEP: [sg_telemetry::Span; 31] = group_spans!(
        "core.hierarchize.group_";
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
    );
    static DEHIER_SWEEP: sg_telemetry::Span =
        sg_telemetry::Span::new("core.dehierarchize.group_sweep");
    static BYTES_MOVED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.hierarchize.bytes_moved");
    /// Distribution of individual sweep latencies across all level
    /// groups — the per-group spans give totals, this gives the tail
    /// (p99 sweeps are the coarse groups that stop scaling, Fig. 11).
    static SWEEP_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("core.hierarchize.sweep_ns");
    static DEHIER_SWEEP_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("core.dehierarchize.sweep_ns");
}

/// Surplus update for one point in dimension `t`: `v − (left + right)/2`
/// with missing (boundary) ancestors contributing zero.
///
/// Retained as the per-point reference (the literal Alg. 6 transcription
/// uses it); the sweeps below apply the same arithmetic run-wise.
#[inline(always)]
fn parent_halfsum<T: Real>(
    grid_values: &[T],
    indexer: &GridIndexer,
    l: &mut [Level],
    i: &mut [Index],
    t: usize,
) -> T {
    let (lt, it) = (l[t], i[t]);
    let mut acc = T::ZERO;
    for side in [Side::Left, Side::Right] {
        if let Some((pl, pi)) = hierarchical_parent(lt, it, side) {
            l[t] = pl;
            i[t] = pi;
            acc += grid_values[indexer.gp2idx(l, i) as usize];
        }
    }
    l[t] = lt;
    i[t] = it;
    acc * T::HALF
}

/// One vertical run of the stencil: `out[j] ∓= ((0 + L[j]) + R[j])·½`,
/// the same operation order as [`parent_halfsum`], signed zeros
/// included.
fn stencil_run<T: Real>(out: &mut [T], left: Option<&[T]>, right: Option<&[T]>, add: bool) {
    for j in 0..out.len() {
        let mut acc = T::ZERO;
        if let Some(l) = left {
            acc += l[j];
        }
        if let Some(r) = right {
            acc += r[j];
        }
        let h = acc * T::HALF;
        if add {
            out[j] += h;
        } else {
            out[j] -= h;
        }
    }
}

/// Apply the dimension-`t` stencil to one subspace chunk, run by run.
/// `lower` is the array prefix below the chunk's level group — every
/// ancestor lives there, so the borrow is disjoint from `chunk` in both
/// the sequential and the pool-distributed sweeps.
fn sweep_subspace<T: Real>(
    lower: &[T],
    chunk: &mut [T],
    indexer: &GridIndexer,
    l: &[Level],
    t: usize,
    add: bool,
) {
    crate::plan::for_each_pole_run(indexer, l, t, |run| {
        let out = &mut chunk[run.rank0..run.rank0 + run.len];
        let left = run.left.map(|b| &lower[b..b + run.len]);
        let right = run.right.map(|b| &lower[b..b + run.len]);
        stencil_run(out, left, right, add);
    });
}

/// Shared body of the sequential sweeps: `add = false` hierarchizes
/// (groups descending), `add = true` dehierarchizes (groups ascending —
/// ancestors are already updated and live in the coarser prefix either
/// way, so the same split borrow serves both directions).
fn sweep_sequential<T: Real>(grid: &mut CompactGrid<T>, add: bool) {
    let spec = *grid.spec();
    let d = spec.dim();
    let (indexer, values) = {
        let ix = grid.indexer().clone();
        (ix, grid.values_mut())
    };
    let mut l = vec![0 as Level; d];
    let dims: Box<dyn Iterator<Item = usize>> = if add {
        Box::new((0..d).rev())
    } else {
        Box::new(0..d)
    };
    for t in dims {
        let groups: Box<dyn Iterator<Item = usize>> = if add {
            Box::new(0..spec.levels())
        } else {
            Box::new((0..spec.levels()).rev())
        };
        for n in groups {
            tel! {
                let sweep_t0 = std::time::Instant::now();
                let mut touched = 0u64;
            }
            let group_start = indexer.group_offset(n) as usize;
            let group_end = indexer.group_range(n).end as usize;
            let (lower, rest) = values.split_at_mut(group_start);
            let group = &mut rest[..group_end - group_start];
            let sub_len = 1usize << n;
            let mut sub = 0usize;
            crate::iter::first_level(n, &mut l);
            loop {
                // Subspaces with l[t] = 0 have both ancestors on the
                // domain boundary: the stencil is a no-op, skip them.
                if l[t] != 0 {
                    sweep_subspace(lower, &mut group[sub..sub + sub_len], &indexer, &l, t, add);
                    tel! { touched += sub_len as u64; }
                }
                sub += sub_len;
                if !crate::iter::next_level(&mut l) {
                    break;
                }
            }
            tel! {
                let sweep_ns = sweep_t0.elapsed().as_nanos() as u64;
                if add {
                    DEHIER_SWEEP.record(sweep_ns);
                    DEHIER_SWEEP_NS.record(sweep_ns);
                } else {
                    GROUP_SWEEP[n].record(sweep_ns);
                    SWEEP_NS.record(sweep_ns);
                    BYTES_MOVED.add(touched * 4 * T::size_bytes() as u64);
                }
                let _ = touched;
            }
        }
    }
}

/// In-place hierarchization, sequential (optimized traversal of Alg. 6:
/// level groups descending, subspaces via the `next` iterator, the 1-d
/// stencil applied as vertical pole runs — no per-point `idx2gp` or
/// `gp2idx` calls).
pub fn hierarchize<T: Real>(grid: &mut CompactGrid<T>) {
    sweep_sequential(grid, false);
}

/// In-place hierarchization transcribed literally from paper Alg. 6:
/// one backwards sweep over linear indices per dimension, decoding every
/// point with `idx2gp` and locating both ancestors with `gp2idx`.
///
/// Kept as the conformance reference and for the traversal-cost ablation.
pub fn hierarchize_alg6_literal<T: Real>(grid: &mut CompactGrid<T>) {
    let spec = *grid.spec();
    let d = spec.dim();
    let indexer = grid.indexer().clone();
    let values = grid.values_mut();
    let mut l = vec![0 as Level; d];
    let mut i = vec![0 as Index; d];
    for t in 0..d {
        for j in (0..values.len()).rev() {
            indexer.idx2gp(j as u64, &mut l, &mut i);
            let h = parent_halfsum(values, &indexer, &mut l, &mut i, t);
            values[j] -= h;
        }
    }
}

/// Shared body of the pool-distributed sweeps (see [`sweep_sequential`]
/// for the direction logic).
fn sweep_parallel<T: Real>(grid: &mut CompactGrid<T>, add: bool) {
    let spec = *grid.spec();
    let d = spec.dim();
    let indexer = grid.indexer().clone();
    let values = grid.values_mut();
    // Materialize each group's subspace level vectors once; they are the
    // same for every dimension pass.
    let group_levels: Vec<Vec<Vec<Level>>> = (0..spec.levels())
        .map(|n| crate::iter::LevelIter::new(d, n).collect())
        .collect();
    let dims: Box<dyn Iterator<Item = usize>> = if add {
        Box::new((0..d).rev())
    } else {
        Box::new(0..d)
    };
    let region = if add {
        "core.dehierarchize.sweep"
    } else {
        "core.hierarchize.sweep"
    };
    for t in dims {
        let groups: Box<dyn Iterator<Item = usize>> = if add {
            Box::new(0..spec.levels())
        } else {
            Box::new((0..spec.levels()).rev())
        };
        for n in groups {
            tel! { let sweep_t0 = std::time::Instant::now(); }
            let group_start = indexer.group_offset(n) as usize;
            let group_end = indexer.group_range(n).end as usize;
            // Ancestors live strictly below the group: split the borrow so
            // threads read `lower` and write disjoint chunks of `group`.
            let (lower, rest) = values.split_at_mut(group_start);
            let group = &mut rest[..group_end - group_start];
            let sub_len = 1usize << n;
            let levels = &group_levels[n];
            let indexer = &indexer;
            // Subspaces of fine groups are tiny (2^n points): hand the
            // pool ~4096 points per claim so the shared-index atomic is
            // amortized, while coarse groups still claim subspace-wise.
            // Claims are whole subspaces, which keeps every pole run
            // within one worker.
            sg_par::par_chunks_mut_grained(
                group,
                sub_len,
                (4096usize >> n).max(1),
                region,
                Some(("group", n as u64)),
                |k, chunk| {
                    let l0 = &levels[k];
                    if l0[t] == 0 {
                        return;
                    }
                    sweep_subspace(lower, chunk, indexer, l0, t, add);
                },
            );
            tel! {
                let sweep_ns = sweep_t0.elapsed().as_nanos() as u64;
                if add {
                    DEHIER_SWEEP.record(sweep_ns);
                    DEHIER_SWEEP_NS.record(sweep_ns);
                } else {
                    GROUP_SWEEP[n].record(sweep_ns);
                    SWEEP_NS.record(sweep_ns);
                    let touched: u64 = levels.iter().filter(|l0| l0[t] != 0).count() as u64
                        * sub_len as u64;
                    BYTES_MOVED.add(touched * 4 * T::size_bytes() as u64);
                }
            }
        }
    }
}

/// In-place parallel hierarchization: for each dimension, level groups are
/// processed finest-to-coarsest with a barrier in between (the paper's CPU
/// realization of the per-group kernel launches); inside a group,
/// subspaces are distributed statically over threads.
pub fn hierarchize_parallel<T: Real>(grid: &mut CompactGrid<T>) {
    sweep_parallel(grid, false);
}

/// In-place dehierarchization (decompression of the coefficient array back
/// to nodal values) — the exact inverse of [`hierarchize`]: per dimension,
/// level groups coarsest-to-finest, adding the ancestor half-sum.
pub fn dehierarchize<T: Real>(grid: &mut CompactGrid<T>) {
    sweep_sequential(grid, true);
}

/// Parallel dehierarchization: mirror image of [`hierarchize_parallel`]
/// (groups ascending; ancestors are *already updated* and still live in
/// the coarser prefix of the array, so the same split-borrow works).
pub fn dehierarchize_parallel<T: Real>(grid: &mut CompactGrid<T>) {
    sweep_parallel(grid, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CompactGrid;
    use crate::kernel::{detect, with_kernel, KernelKind, KernelSelect};
    use crate::level::GridSpec;

    fn sample(spec: GridSpec) -> CompactGrid<f64> {
        CompactGrid::from_fn(spec, |x| {
            x.iter()
                .enumerate()
                .map(|(k, &v)| (k as f64 + 1.0) * v * (1.0 - v))
                .sum::<f64>()
                + x.iter().product::<f64>()
        })
    }

    #[test]
    fn one_dimensional_surpluses_by_hand() {
        // f(x) = x(1−x) on a level-2 grid: nodal values
        // v(0.5)=0.25, v(0.25)=v(0.75)=0.1875.
        // Surpluses: α(0,1)=0.25; α(1,1)=0.1875−0.25/2=0.0625; same right.
        let spec = GridSpec::new(1, 2);
        let mut g = CompactGrid::from_fn(spec, |x| x[0] * (1.0 - x[0]));
        hierarchize(&mut g);
        assert_eq!(g.get(&[0], &[1]), 0.25);
        assert_eq!(g.get(&[1], &[1]), 0.0625);
        assert_eq!(g.get(&[1], &[3]), 0.0625);
    }

    #[test]
    fn two_dimensional_surplus_by_hand() {
        // f(x,y) = x·y. Root surplus = f(0.5,0.5) = 0.25. The point
        // ((1,0),(1,1)) at (0.25,0.5): 1-d pass in x gives
        // 0.125 − 0.25/2 = 0; pass in y then subtracts nothing new in x=…
        // For the bilinear function all non-root surpluses vanish after
        // both passes except those needed to represent xy exactly —
        // which is only the root in the hierarchical hat basis? No: xy is
        // not piecewise linear on coarse cells; check against literal Alg 6.
        let spec = GridSpec::new(2, 3);
        let mut a = CompactGrid::from_fn(spec, |x| x[0] * x[1]);
        let mut b = a.clone();
        hierarchize(&mut a);
        hierarchize_alg6_literal(&mut b);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(a.get(&[0, 0], &[1, 1]), 0.25);
    }

    #[test]
    fn optimized_matches_literal_alg6() {
        for (d, levels) in [(1, 5), (2, 4), (3, 4), (4, 3)] {
            let spec = GridSpec::new(d, levels);
            let mut a = sample(spec);
            let mut b = a.clone();
            hierarchize(&mut a);
            hierarchize_alg6_literal(&mut b);
            assert_eq!(a.max_abs_diff(&b), 0.0, "d={d} levels={levels}");
        }
    }

    /// Hierarchization has one sweep for every kernel selection; forcing
    /// a kernel (which steers evaluation) must not change its bits.
    #[test]
    fn forced_kernels_match_the_literal_reference_bitwise() {
        let simd = detect();
        for (d, levels) in [(1, 5), (2, 4), (3, 4), (4, 3), (5, 3)] {
            let spec = GridSpec::new(d, levels);
            let reference = {
                let mut g = sample(spec);
                hierarchize_alg6_literal(&mut g);
                g
            };
            for sel in [
                KernelSelect::Force(KernelKind::Scalar),
                KernelSelect::Force(simd),
            ] {
                let mut seq = sample(spec);
                let mut par = sample(spec);
                with_kernel(sel, || {
                    hierarchize(&mut seq);
                    hierarchize_parallel(&mut par);
                });
                for k in 0..reference.len() {
                    let want = reference.values()[k];
                    assert_eq!(
                        seq.values()[k].to_bits(),
                        want.to_bits(),
                        "sequential {sel:?} d={d} slot {k}"
                    );
                    assert_eq!(
                        par.values()[k].to_bits(),
                        want.to_bits(),
                        "parallel {sel:?} d={d} slot {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for (d, levels) in [(2, 5), (3, 4), (5, 3)] {
            let spec = GridSpec::new(d, levels);
            let mut a = sample(spec);
            let mut b = a.clone();
            hierarchize(&mut a);
            hierarchize_parallel(&mut b);
            assert_eq!(a.max_abs_diff(&b), 0.0, "d={d} levels={levels}");
        }
    }

    #[test]
    fn dehierarchize_inverts_hierarchize() {
        for (d, levels) in [(1, 6), (2, 5), (3, 4), (4, 3)] {
            let spec = GridSpec::new(d, levels);
            let original = sample(spec);
            let mut g = original.clone();
            hierarchize(&mut g);
            dehierarchize(&mut g);
            assert!(
                g.max_abs_diff(&original) < 1e-12,
                "d={d} levels={levels}: {}",
                g.max_abs_diff(&original)
            );
        }
    }

    #[test]
    fn parallel_dehierarchize_inverts_parallel_hierarchize() {
        let spec = GridSpec::new(3, 5);
        let original = sample(spec);
        let mut g = original.clone();
        hierarchize_parallel(&mut g);
        dehierarchize_parallel(&mut g);
        assert!(g.max_abs_diff(&original) < 1e-12);
    }

    #[test]
    fn f32_grids_hierarchize_identically_under_every_kernel() {
        let spec = GridSpec::new(3, 4);
        let build = || CompactGrid::<f32>::from_fn(spec, |x| (x[0] + 2.0 * x[1] + x[2]) as f32);
        let reference = {
            let mut g = build();
            hierarchize_alg6_literal(&mut g);
            g
        };
        let mut forced = build();
        with_kernel(KernelSelect::Force(detect()), || hierarchize(&mut forced));
        for k in 0..reference.len() {
            assert_eq!(
                forced.values()[k].to_bits(),
                reference.values()[k].to_bits(),
                "slot {k}"
            );
        }
    }

    #[test]
    fn dimension_passes_commute() {
        // The 1-d hierarchization operators act along different axes and
        // commute; verify by comparing the standard sweep with a manually
        // reversed dimension order.
        let spec = GridSpec::new(3, 4);
        let mut fwd = sample(spec);
        hierarchize(&mut fwd);

        // Reverse-order sweep via the literal kernel on permuted dims.
        let mut rev = sample(spec);
        {
            let d = spec.dim();
            let indexer = rev.indexer().clone();
            let values = rev.values_mut();
            let mut l = vec![0u8; d];
            let mut i = vec![0u32; d];
            for t in (0..d).rev() {
                for j in (0..values.len()).rev() {
                    indexer.idx2gp(j as u64, &mut l, &mut i);
                    let h = parent_halfsum(values, &indexer, &mut l, &mut i, t);
                    values[j] -= h;
                }
            }
        }
        assert!(fwd.max_abs_diff(&rev) < 1e-13);
    }

    #[test]
    fn root_surplus_is_center_value() {
        let spec = GridSpec::new(4, 3);
        let f = |x: &[f64]| x.iter().sum::<f64>().sin();
        let mut g = CompactGrid::from_fn(spec, f);
        let center = vec![0.5; 4];
        hierarchize(&mut g);
        assert_eq!(g.get(&[0; 4], &[1; 4]), f(&center));
    }

    #[test]
    fn linear_function_surpluses_vanish_away_from_the_boundary() {
        // For affine f both interior ancestors average to f(x), so the
        // surplus is zero — except at right chain-end points
        // (i = 2^{l+1}−1), whose missing boundary ancestor contributes 0
        // instead of f(1) = 3 on a zero-boundary grid. Left chain ends
        // also vanish here because f(0) = 0 happens to match the
        // zero-boundary assumption.
        let spec = GridSpec::new(1, 5);
        let mut g = CompactGrid::from_fn(spec, |x| 3.0 * x[0]);
        hierarchize(&mut g);
        assert_eq!(g.get(&[0], &[1]), 1.5);
        for l in 1..5u8 {
            let last = (1u32 << (l + 1)) - 1;
            for i in (1u32..=last).step_by(2) {
                let s = g.get(&[l], &[i]);
                if i == last {
                    assert!(
                        s.abs() > 1e-9,
                        "chain-end surplus at ({l},{i}) must not vanish"
                    );
                } else {
                    assert!(s.abs() < 1e-14, "surplus at ({l},{i}) should vanish");
                }
            }
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_records_group_sweeps_and_traffic() {
        let spec = GridSpec::new(3, 4);
        let mut g = sample(spec);
        let before = sg_telemetry::snapshot();
        hierarchize(&mut g);
        let after = sg_telemetry::snapshot();
        // Every level group of every dimension pass was timed...
        for n in 0..spec.levels() {
            let name = format!("core.hierarchize.group_{n}");
            let prev = before.span(&name).map_or(0, |s| s.count);
            let now = after.span(&name).expect("group span registered").count;
            assert!(now >= prev + spec.dim() as u64, "group {n} sweeps missing");
        }
        // ...and traffic was accounted.
        let moved = after.counter("core.hierarchize.bytes_moved").unwrap_or(0)
            - before.counter("core.hierarchize.bytes_moved").unwrap_or(0);
        assert!(moved > 0, "bytes_moved must accumulate");
    }
}
