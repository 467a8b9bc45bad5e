//! Evaluation (decompression): interpolate the sparse grid function at
//! arbitrary points of `[0, 1]^d`.
//!
//! Follows paper Alg. 7: one pass over all subspaces driven by the `next`
//! iterator. Within a subspace the hat supports are pairwise disjoint, so
//! exactly one basis function can be non-zero at the query point; its
//! in-subspace position `index1` and its value are computed directly from
//! the coordinates — neither `gp2idx` nor `idx2gp` is needed.
//!
//! Batch evaluation is embarrassingly parallel over query points. The one
//! batch evaluator, [`evaluate_batch_into`], hoists the subspace loop
//! outside a block of points so each subspace's coefficients are reused
//! while cache-resident (paper §4.3), and spreads the blocks over the
//! `sg_par` pool. The subspace walk itself is precomputed **once per
//! batch** into an [`EvalPlan`] (not once per block, and never per
//! point). A point's per-dimension factor depends only on the level, so
//! each block first tabulates [`cell_and_basis`] for every dimension,
//! level and point; the per-subspace inner loop, dispatched through
//! [`crate::kernel`], then only multiplies hats and shifts-and-adds
//! cells read from those tables. Every kernel is bitwise identical to
//! [`evaluate`]: the factors come from [`cell_and_basis`], the product
//! keeps its order (no FMA), the index is an exact integer, and a point
//! whose product is zero reads no coefficient.

use crate::grid::CompactGrid;
use crate::kernel::{self, KernelKind};
use crate::level::Level;
use crate::plan::EvalPlan;
use crate::real::Real;
#[allow(unused_imports)] // the import is "unused" when `telemetry` is off
use crate::tel;

tel! {
    static EVAL_POINTS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.evaluate.points");
    static SUBSPACE_WALKS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.evaluate.subspace_walks");
    static COEFF_BYTES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.evaluate.bytes_moved");
    static BATCH_SPAN: sg_telemetry::Span =
        sg_telemetry::Span::new("core.evaluate.batch");
    /// Latency distribution over batch-evaluation calls — the tail
    /// (p99) is what a visualization frame budget actually sees.
    static BATCH_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("core.evaluate.batch_ns");
    macro_rules! group_spans {
        ($prefix:literal; $($n:literal),*) => {
            [$(sg_telemetry::Span::new(concat!($prefix, stringify!($n)))),*]
        };
    }
    /// One accumulating span per level group `n` (a `GridSpec` admits
    /// `n ≤ 30`): time spent walking group `n`'s subspaces across all
    /// blocks and calls. The measured half of the model-vs-measured
    /// divergence report (`sgtool divergence`); the predicted half comes
    /// from `sg_machine::profile::trace_evaluation_groups`.
    static GROUP_EVAL: [sg_telemetry::Span; 31] = group_spans!(
        "core.evaluate.group_";
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30
    );
}

/// Per-dimension contribution at `x`: the in-subspace cell index and the
/// hat value inside that cell (paper Alg. 7 lines 9–13).
///
/// Public because every evaluation path in the workspace — boundary
/// faces, the GPU kernel simulator — must share this exact
/// convention (cell tie-break at dyadic points included) to stay
/// numerically identical.
#[inline(always)]
pub fn cell_and_basis(l: Level, x: f64) -> (u64, f64) {
    let cells = 1u64 << l as u32;
    let pos = x * cells as f64;
    let c = (pos as u64).min(cells - 1);
    let frac = pos - c as f64;
    (c, 1.0 - (2.0 * frac - 1.0).abs())
}

/// Evaluate the sparse grid function at one point `x ∈ [0,1]^d`.
///
/// # Panics
/// If `x.len()` does not match the grid dimension or a coordinate is
/// outside `[0, 1]`.
pub fn evaluate<T: Real>(grid: &CompactGrid<T>, x: &[f64]) -> T {
    let spec = grid.spec();
    let d = spec.dim();
    assert_eq!(x.len(), d, "query point dimension mismatch");
    assert!(
        x.iter().all(|&v| (0.0..=1.0).contains(&v)),
        "query point outside the unit domain"
    );
    let values = grid.values();
    let mut l = vec![0 as Level; d];
    let mut res = 0.0f64;
    let mut index2 = 0usize; // running subspace offset (index2 + index3)
    tel! {
        let mut walks = 0u64;
        let mut reads = 0u64;
    }
    for n in 0..spec.levels() {
        let sub_len = 1usize << n;
        crate::iter::first_level(n, &mut l);
        loop {
            let mut prod = 1.0f64;
            let mut index1 = 0u64;
            for t in 0..d {
                let (c, b) = cell_and_basis(l[t], x[t]);
                if b == 0.0 {
                    prod = 0.0;
                    break;
                }
                index1 = (index1 << l[t] as u32) + c;
                prod *= b;
            }
            if prod != 0.0 {
                res += prod * values[index2 + index1 as usize].to_f64();
                tel! { reads += 1; }
            }
            index2 += sub_len;
            tel! { walks += 1; }
            if !crate::iter::next_level(&mut l) {
                break;
            }
        }
    }
    tel! {
        EVAL_POINTS.add(1);
        SUBSPACE_WALKS.add(walks);
        COEFF_BYTES.add(reads * T::size_bytes() as u64);
    }
    T::from_f64(res)
}

/// Evaluate at many points given as a flat row-major array
/// (`xs.len() == k · d`). Sequential; one full subspace sweep per point.
/// This is the scalar reference the blocked/SIMD paths are compared
/// against bitwise.
pub fn evaluate_batch<T: Real>(grid: &CompactGrid<T>, xs: &[f64]) -> Vec<T> {
    let d = grid.spec().dim();
    assert_eq!(xs.len() % d, 0, "flat point array length must be k·d");
    xs.chunks_exact(d).map(|x| evaluate(grid, x)).collect()
}

/// Default query points per block: the cache block that callers without
/// a measured reason to differ pass as `block`.
pub const BLOCK: usize = 64;

/// One thread's per-block buffers: the f64 accumulators (`k` entries),
/// the block's 1-D basis tables ([`Basis`], `d · levels · k` entries
/// each) and the portable kernel's per-point product and index (`k`
/// each). They grow to the steady-state block shape once per thread and
/// are reused by every later call on that thread, so repeated batch
/// evaluation allocates nothing.
#[derive(Default)]
struct Scratch {
    acc: Vec<f64>,
    hat: Vec<f64>,
    cell: Vec<u64>,
    prod: Vec<f64>,
    idx: Vec<u64>,
}

thread_local! {
    static SCRATCH: std::cell::Cell<Scratch> = const {
        std::cell::Cell::new(Scratch {
            acc: Vec::new(),
            hat: Vec::new(),
            cell: Vec::new(),
            prod: Vec::new(),
            idx: Vec::new(),
        })
    };
}

/// Batch evaluation into a caller-owned output slice — the one
/// blocked/SIMD/pooled evaluator every batch caller uses.
///
/// `xs` holds `k` points row-major (`xs.len() == k · d`) and `out`
/// receives their `k` values. `block` (rounded up to whole SIMD lanes)
/// query points are processed per subspace sweep, so each subspace's
/// coefficient chunk, fetched once, serves the whole block from cache
/// (paper §4.3). Blocks are the work items of one `sg_par` region (the
/// paper's GPU scheme, one thread per interpolation point, at block
/// granularity): a batch of at most one block runs inline on the
/// caller, a larger one on the pool, which claims one block at a time
/// because per-point cost varies with the basis-function path length.
/// Every pool worker shares `plan` and the kernel chosen by
/// [`crate::kernel::active`] on the calling thread; the accumulator and
/// basis-table buffers are per-thread and owned here. Bitwise identical
/// to [`evaluate_batch`] for every block size, kernel and pool width.
///
/// # Panics
/// If the plan was built for a different dimensionality, `xs.len()` is
/// not a multiple of `d`, `block` is zero, a coordinate is outside
/// `[0, 1]`, or `out.len()` is not the number of query points.
pub fn evaluate_batch_into<T: Real>(
    grid: &CompactGrid<T>,
    xs: &[f64],
    block: usize,
    plan: &EvalPlan,
    out: &mut [T],
) {
    let d = grid.spec().dim();
    assert_eq!(plan.dim(), d, "plan built for a different dimensionality");
    assert_eq!(xs.len() % d, 0, "flat point array length must be k·d");
    assert!(block >= 1, "block size must be positive");
    assert!(
        xs.iter().all(|&v| (0.0..=1.0).contains(&v)),
        "query point outside the unit domain"
    );
    assert_eq!(
        out.len(),
        xs.len() / d,
        "output slice length must match point count"
    );
    let kind = kernel::active();
    let block = sg_par::lane_aligned(block, kind.lanes());
    tel! {
        let batch_t0 = std::time::Instant::now();
    }
    sg_par::par_chunks_mut_grained(out, block, 1, "core.evaluate.batch", None, |ci, out| {
        let xs = &xs[ci * block * d..][..out.len() * d];
        SCRATCH.with(|cell| {
            let mut ws = cell.take();
            eval_block(grid.values(), plan, kind, xs, &mut ws, out);
            cell.set(ws);
        });
    });
    tel! {
        let batch_ns = batch_t0.elapsed().as_nanos() as u64;
        BATCH_SPAN.record(batch_ns);
        BATCH_NS.record(batch_ns);
        EVAL_POINTS.add(out.len() as u64);
    }
}

/// A block's 1-D basis tables (paper Alg. 7 lines 9–13 hoisted out of
/// the subspace loop): point `j`'s factor in dimension `t` at level `λ`
/// is [`cell_and_basis`]`(λ, x_jt)`, stored as `cell[r + j]` and
/// `hat[r + j]` with `r = row(t, λ)`. A query point has only `d · L`
/// distinct factors, so every subspace reads them instead of
/// recomputing them.
struct Basis<'a> {
    hat: &'a [f64],
    cell: &'a [u64],
    levels: usize,
    k: usize,
}

impl Basis<'_> {
    /// Fill the tables for the `k` row-major points of `xs`, levels
    /// `0..levels`, and view them.
    fn fill<'a>(
        xs: &[f64],
        d: usize,
        levels: usize,
        hat: &'a mut Vec<f64>,
        cell: &'a mut Vec<u64>,
    ) -> Basis<'a> {
        hat.clear();
        cell.clear();
        for t in 0..d {
            for lam in 0..levels {
                for x in xs.chunks_exact(d) {
                    let (c, b) = cell_and_basis(lam as Level, x[t]);
                    cell.push(c);
                    hat.push(b);
                }
            }
        }
        Basis {
            hat,
            cell,
            levels,
            k: xs.len() / d,
        }
    }

    /// Start of dimension `t`'s row for level `l`.
    #[inline(always)]
    fn row(&self, t: usize, l: Level) -> usize {
        (t * self.levels + l as usize) * self.k
    }
}

/// Evaluate one block of query points (`out.len()` of them, row-major
/// in `xs`) against every subspace of `plan` on kernel `kind`.
fn eval_block<T: Real>(
    values: &[T],
    plan: &EvalPlan,
    kind: KernelKind,
    xs: &[f64],
    ws: &mut Scratch,
    out: &mut [T],
) {
    let k = out.len();
    let Scratch {
        acc,
        hat,
        cell,
        prod,
        idx,
    } = ws;
    acc.clear();
    acc.resize(k, 0.0);
    prod.resize(k, 0.0);
    idx.resize(k, 0);
    let basis = Basis::fill(xs, plan.dim(), plan.num_groups(), hat, cell);
    let values_f64 = T::as_f64_slice(values);
    // `kind` comes from [`kernel::active`], i.e. it is availability-checked
    // — that is what makes the `unsafe` ISA calls sound.
    let mut run_entries =
        |entries: std::ops::Range<usize>, acc: &mut [f64]| match (kind, values_f64) {
            #[cfg(target_arch = "x86_64")]
            (KernelKind::Avx2, Some(v)) => unsafe {
                avx2::eval_block(v, plan, entries, &basis, prod, idx, acc)
            },
            #[cfg(target_arch = "aarch64")]
            (KernelKind::Neon, Some(v)) => unsafe {
                neon::eval_block(v, plan, entries, &basis, prod, idx, acc)
            },
            // f32 grids and a forced scalar kernel run the portable loop.
            _ => entries
                .map(|e| {
                    let (l, index2) = plan.entry(e);
                    eval_entry(values, l, index2, &basis, 0..k, prod, idx, acc)
                })
                .sum(),
        };
    // Entries stay in ascending order either way, so the split is
    // bitwise-neutral; only telemetry builds pay the per-group timer
    // reads.
    #[cfg(feature = "telemetry")]
    let reads = {
        let mut r = 0u64;
        for n in 0..plan.num_groups() {
            let entries = plan.group_entries(n);
            if entries.is_empty() {
                continue;
            }
            let g0 = std::time::Instant::now();
            r += run_entries(entries, acc);
            GROUP_EVAL[n].record(g0.elapsed().as_nanos() as u64);
        }
        r
    };
    #[cfg(not(feature = "telemetry"))]
    let reads = run_entries(0..plan.num_subspaces(), acc);
    tel! {
        SUBSPACE_WALKS.add(plan.num_subspaces() as u64);
        COEFF_BYTES.add(reads * T::size_bytes() as u64);
    }
    let _ = reads;
    for (o, a) in out.iter_mut().zip(acc.iter()) {
        *o = T::from_f64(*a);
    }
}

/// The portable table kernel (the scalar kernel, and the one `f32` grids
/// run) on one subspace: points `js` of the block against subspace `l`
/// (storage offset `index2`). Element-wise passes over the points form
/// each one's hat product and `index1` in `prod`/`idx`, then a masked
/// pass reads the coefficient only where the product is non-zero.
/// Returns the number of coefficient reads.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn eval_entry<T: Real>(
    values: &[T],
    l: &[Level],
    index2: usize,
    basis: &Basis,
    js: std::ops::Range<usize>,
    prod: &mut [f64],
    idx: &mut [u64],
    acc: &mut [f64],
) -> u64 {
    let n = js.len();
    let (prod, idx) = (&mut prod[..n], &mut idx[..n]);
    let r = basis.row(0, l[0]) + js.start;
    prod.copy_from_slice(&basis.hat[r..r + n]);
    idx.copy_from_slice(&basis.cell[r..r + n]);
    for (t, &lt) in l.iter().enumerate().skip(1) {
        let r = basis.row(t, lt) + js.start;
        for (p, &b) in prod.iter_mut().zip(&basis.hat[r..r + n]) {
            *p *= b;
        }
        for (i, &c) in idx.iter_mut().zip(&basis.cell[r..r + n]) {
            *i = (*i << lt as u32) + c;
        }
    }
    let mut reads = 0u64;
    for ((a, &p), &i) in acc[js].iter_mut().zip(&*prod).zip(&*idx) {
        if p != 0.0 {
            *a += p * values[index2 + i as usize].to_f64();
            reads += 1;
        }
    }
    reads
}

/// AVX2 evaluation kernel: 4 query points per subspace visit. Per
/// dimension it loads the hat and cell rows, multiplies the product and
/// shifts-and-adds the 64-bit index; lanes whose product is zero are
/// masked out of the gather and add `+0.0·0 = +0.0`, which leaves the
/// accumulator's bits alone because it starts at `+0.0` and so never
/// holds `-0.0`. Points past the last whole vector run the portable
/// loop.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{eval_entry, Basis, EvalPlan};

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    /// `basis` must hold the tables of the `acc.len()` points of the
    /// block for every level of `plan`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn eval_block(
        values: &[f64],
        plan: &EvalPlan,
        entries: std::ops::Range<usize>,
        basis: &Basis,
        prod: &mut [f64],
        idx: &mut [u64],
        acc: &mut [f64],
    ) -> u64 {
        use std::arch::x86_64::*;
        let k = acc.len();
        let vec_k = k & !3; // lane groups of 4; the rest go portable
        let mut reads = 0u64;
        let zero = _mm256_setzero_pd();
        let hat = basis.hat.as_ptr();
        let cell = basis.cell.as_ptr();
        for e in entries {
            let (l, index2) = plan.entry(e);
            let base = values[index2..].as_ptr();
            let r0 = basis.row(0, l[0]);
            let mut j = 0usize;
            while j < vec_k {
                let mut p = _mm256_loadu_pd(hat.add(r0 + j));
                let mut i = _mm256_loadu_si256(cell.add(r0 + j) as *const __m256i);
                for (t, &lt) in l.iter().enumerate().skip(1) {
                    let r = basis.row(t, lt) + j;
                    p = _mm256_mul_pd(p, _mm256_loadu_pd(hat.add(r)));
                    i = _mm256_add_epi64(
                        _mm256_sll_epi64(i, _mm_cvtsi32_si128(lt as i32)),
                        _mm256_loadu_si256(cell.add(r) as *const __m256i),
                    );
                }
                let mask = _mm256_cmp_pd::<_CMP_NEQ_UQ>(p, zero);
                let mbits = _mm256_movemask_pd(mask);
                if mbits != 0 {
                    let vals = _mm256_mask_i64gather_pd::<8>(zero, base, i, mask);
                    let a = _mm256_loadu_pd(acc.as_ptr().add(j));
                    _mm256_storeu_pd(
                        acc.as_mut_ptr().add(j),
                        _mm256_add_pd(a, _mm256_mul_pd(p, vals)),
                    );
                    reads += mbits.count_ones() as u64;
                }
                j += 4;
            }
            if vec_k < k {
                reads += eval_entry(values, l, index2, basis, vec_k..k, prod, idx, acc);
            }
        }
        reads
    }
}

/// NEON evaluation kernel: 2 query points per subspace visit, the AVX2
/// kernel's table loop on 128-bit vectors. The (tiny) gather runs per
/// lane and skips a zero product.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{eval_entry, Basis, EvalPlan};

    /// # Safety
    /// NEON is part of the aarch64 baseline; `resolve` never selects it
    /// elsewhere. `basis` must hold the tables of the `acc.len()` points
    /// of the block for every level of `plan`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn eval_block(
        values: &[f64],
        plan: &EvalPlan,
        entries: std::ops::Range<usize>,
        basis: &Basis,
        prod: &mut [f64],
        idx: &mut [u64],
        acc: &mut [f64],
    ) -> u64 {
        use std::arch::aarch64::*;
        let k = acc.len();
        let vec_k = k & !1;
        let mut reads = 0u64;
        let hat = basis.hat.as_ptr();
        let cell = basis.cell.as_ptr();
        for e in entries {
            let (l, index2) = plan.entry(e);
            let base = values[index2..].as_ptr();
            let r0 = basis.row(0, l[0]);
            let mut j = 0usize;
            while j < vec_k {
                let mut p = vld1q_f64(hat.add(r0 + j));
                let mut i = vld1q_u64(cell.add(r0 + j));
                for (t, &lt) in l.iter().enumerate().skip(1) {
                    let r = basis.row(t, lt) + j;
                    p = vmulq_f64(p, vld1q_f64(hat.add(r)));
                    i = vaddq_u64(vshlq_u64(i, vdupq_n_s64(lt as i64)), vld1q_u64(cell.add(r)));
                }
                let p0 = vgetq_lane_f64::<0>(p);
                let p1 = vgetq_lane_f64::<1>(p);
                if p0 != 0.0 {
                    acc[j] += p0 * *base.add(vgetq_lane_u64::<0>(i) as usize);
                    reads += 1;
                }
                if p1 != 0.0 {
                    acc[j + 1] += p1 * *base.add(vgetq_lane_u64::<1>(i) as usize);
                    reads += 1;
                }
                j += 2;
            }
            if vec_k < k {
                reads += eval_entry(values, l, index2, basis, vec_k..k, prod, idx, acc);
            }
        }
        reads
    }
}

/// Batch evaluation returning a fresh vector: builds the subspace plan
/// once and runs [`evaluate_batch_into`] with `block`-point blocks.
pub fn evaluate_batch_parallel<T: Real>(grid: &CompactGrid<T>, xs: &[f64], block: usize) -> Vec<T> {
    let mut out = vec![T::ZERO; xs.len() / grid.spec().dim()];
    evaluate_batch_into(grid, xs, block, &EvalPlan::new(grid.spec()), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CompactGrid;
    use crate::hierarchize::hierarchize;
    use crate::iter::for_each_point;
    use crate::kernel::{detect, with_kernel, KernelSelect};
    use crate::level::{coordinate, GridSpec};

    fn surplus_grid(spec: GridSpec, f: impl FnMut(&[f64]) -> f64) -> CompactGrid<f64> {
        let mut g = CompactGrid::from_fn(spec, f);
        hierarchize(&mut g);
        g
    }

    #[test]
    fn interpolates_exactly_at_grid_points() {
        let spec = GridSpec::new(2, 4);
        let f = |x: &[f64]| (x[0] * 7.0).sin() + x[1] * x[1];
        let g = surplus_grid(spec, f);
        for_each_point(&spec, |_, l, i| {
            let x: Vec<f64> = l
                .iter()
                .zip(i)
                .map(|(&lt, &it)| coordinate(lt, it))
                .collect();
            let v = evaluate(&g, &x);
            assert!(
                (v - f(&x)).abs() < 1e-12,
                "mismatch at {x:?}: {v} vs {}",
                f(&x)
            );
        });
    }

    #[test]
    fn zero_on_the_domain_boundary() {
        let spec = GridSpec::new(2, 3);
        let g = surplus_grid(spec, |x| 1.0 + x[0] + x[1]);
        assert_eq!(evaluate(&g, &[0.0, 0.5]), 0.0);
        assert_eq!(evaluate(&g, &[1.0, 0.5]), 0.0);
        assert_eq!(evaluate(&g, &[0.3, 0.0]), 0.0);
        assert_eq!(evaluate(&g, &[0.3, 1.0]), 0.0);
        assert_eq!(evaluate(&g, &[0.0, 0.0]), 0.0);
        assert_eq!(evaluate(&g, &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn one_dimensional_piecewise_linear_between_points() {
        // On the finest level the interpolant is piecewise linear with
        // breakpoints at the finest grid points; check the midpoint rule.
        let spec = GridSpec::new(1, 3);
        let f = |x: &[f64]| x[0] * (1.0 - x[0]);
        let g = surplus_grid(spec, f);
        // Finest mesh width is 2^-3; interpolant is linear on [1/8, 2/8].
        let a = evaluate(&g, &[0.125]);
        let b = evaluate(&g, &[0.25]);
        let mid = evaluate(&g, &[0.1875]);
        assert!((mid - 0.5 * (a + b)).abs() < 1e-14);
    }

    #[test]
    fn hierarchization_plus_evaluation_reproduces_hat_sums() {
        // Build a grid from random surpluses, evaluate the explicit basis
        // sum, and compare against Alg. 7.
        use crate::level::hat;
        let spec = GridSpec::new(2, 3);
        let mut g: CompactGrid<f64> = CompactGrid::new(spec);
        let mut c = 0.3f64;
        let n = g.len();
        for idx in 0..n {
            c = (c * 997.0).fract();
            g.values_mut()[idx] = c - 0.5;
        }
        for x in [[0.3, 0.7], [0.111, 0.999], [0.5, 0.5], [0.0, 0.4]] {
            let mut expect = 0.0;
            for_each_point(&spec, |idx, l, i| {
                let phi: f64 = l
                    .iter()
                    .zip(i)
                    .zip(&x)
                    .map(|((&lt, &it), &xt)| hat(lt, it, xt))
                    .product();
                expect += phi * g.values()[idx as usize];
            });
            let got = evaluate(&g, &x);
            assert!((got - expect).abs() < 1e-12, "x={x:?}: {got} vs {expect}");
        }
    }

    #[test]
    fn batch_matches_single() {
        let spec = GridSpec::new(3, 4);
        let g = surplus_grid(spec, |x| x.iter().product());
        let pts: Vec<f64> = (0..60).map(|k| ((k * 37) % 101) as f64 / 101.0).collect();
        let batch = evaluate_batch(&g, &pts);
        for (j, x) in pts.chunks_exact(3).enumerate() {
            assert_eq!(batch[j], evaluate(&g, x));
        }
    }

    /// [`evaluate_batch_into`] against a fresh plan, into a NaN-filled
    /// buffer so an unwritten slot cannot pass as a result.
    fn into<T: Real>(g: &CompactGrid<T>, xs: &[f64], block: usize) -> Vec<T> {
        let mut out = vec![T::from_f64(f64::NAN); xs.len() / g.spec().dim()];
        evaluate_batch_into(g, xs, block, &EvalPlan::new(g.spec()), &mut out);
        out
    }

    #[test]
    fn blocked_matches_unblocked_for_any_block_size() {
        let spec = GridSpec::new(2, 5);
        let g = surplus_grid(spec, |x| (x[0] - x[1]).cos());
        let pts: Vec<f64> = (0..34).map(|k| ((k * 53) % 97) as f64 / 97.0).collect();
        let reference = evaluate_batch(&g, &pts);
        for block in [1, 2, 3, 7, 16, 17, 100] {
            assert_eq!(into(&g, &pts, block), reference);
        }
    }

    #[test]
    fn forced_kernels_match_bitwise_for_every_block_size() {
        let spec = GridSpec::new(3, 5);
        let g = surplus_grid(spec, |x| (x[0] - x[1]).cos() + x[2]);
        let pts: Vec<f64> = (0..51).map(|k| ((k * 53) % 97) as f64 / 97.0).collect();
        let reference = evaluate_batch(&g, &pts);
        let simd = detect();
        for block in [1, 2, 3, 4, 5, 7, 8, 16, 17, 100] {
            let scalar = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
                into(&g, &pts, block)
            });
            let vector = with_kernel(KernelSelect::Force(simd), || into(&g, &pts, block));
            assert_eq!(scalar, reference, "block {block}");
            for (q, (a, b)) in vector.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "kernel {} block {block} query {q}",
                    simd.name()
                );
            }
        }
    }

    #[test]
    fn a_shared_plan_matches_the_per_call_plan() {
        let spec = GridSpec::new(3, 4);
        let g = surplus_grid(spec, |x| x[0] * x[1] + x[2]);
        let pts: Vec<f64> = (0..30).map(|k| ((k * 31) % 89) as f64 / 89.0).collect();
        let plan = EvalPlan::new(&spec);
        let mut out = vec![0.0; 10];
        evaluate_batch_into(&g, &pts, 4, &plan, &mut out);
        assert_eq!(out, evaluate_batch_parallel(&g, &pts, 4));
    }

    #[test]
    fn parallel_matches_sequential() {
        let spec = GridSpec::new(3, 4);
        let g = surplus_grid(spec, |x| x[0] + x[1] * x[2]);
        let pts: Vec<f64> = (0..99).map(|k| ((k * 29) % 83) as f64 / 83.0).collect();
        assert_eq!(
            evaluate_batch_parallel(&g, &pts, 8),
            evaluate_batch(&g, &pts)
        );
    }

    #[test]
    fn f32_grids_use_the_generic_path_and_stay_consistent() {
        let spec = GridSpec::new(2, 4);
        let mut g: CompactGrid<f32> = CompactGrid::from_fn(spec, |x| (x[0] + x[1]) as f32);
        hierarchize(&mut g);
        let pts: Vec<f64> = (0..18).map(|k| ((k * 41) % 71) as f64 / 71.0).collect();
        let reference = evaluate_batch(&g, &pts);
        let auto = into(&g, &pts, 4);
        let scalar = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
            into(&g, &pts, 4)
        });
        assert_eq!(auto, reference);
        assert_eq!(scalar, reference);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let g = surplus_grid(GridSpec::new(2, 2), |x| x[0]);
        evaluate(&g, &[0.5]);
    }

    #[test]
    #[should_panic(expected = "outside the unit domain")]
    fn rejects_out_of_domain() {
        let g = surplus_grid(GridSpec::new(2, 2), |x| x[0]);
        evaluate(&g, &[0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "different dimensionality")]
    fn rejects_a_foreign_plan() {
        let g = surplus_grid(GridSpec::new(2, 2), |x| x[0]);
        let plan = EvalPlan::new(&GridSpec::new(3, 2));
        evaluate_batch_into(&g, &[0.5, 0.5], 4, &plan, &mut [0.0]);
    }

    #[test]
    fn cell_and_basis_edges() {
        assert_eq!(cell_and_basis(0, 0.5), (0, 1.0));
        assert_eq!(cell_and_basis(0, 0.0).1, 0.0);
        assert_eq!(cell_and_basis(0, 1.0).1, 0.0);
        let (c, b) = cell_and_basis(2, 0.375); // cell 1 of 4, center
        assert_eq!(c, 1);
        assert_eq!(b, 1.0);
        let (c, b) = cell_and_basis(1, 0.5); // cell boundary
        assert!(c == 1 || c == 0);
        assert_eq!(b, 0.0);
    }
}
