//! Evaluation (decompression): interpolate the sparse grid function at
//! arbitrary points of `[0, 1]^d`.
//!
//! Follows paper Alg. 7: one pass over all subspaces driven by the `next`
//! iterator. Within a subspace the hat supports are pairwise disjoint, so
//! exactly one basis function can be non-zero at the query point; its
//! in-subspace position `index1` and its value are computed directly from
//! the coordinates — neither `gp2idx` nor `idx2gp` is needed.
//!
//! Batch evaluation is embarrassingly parallel over query points; the
//! *blocked* variant hoists the subspace loop outside a block of points so
//! each subspace's coefficients are reused while cache-resident
//! (paper §4.3). The subspace walk itself is precomputed **once per
//! batch** into an [`EvalPlan`] (not once per block, and never per
//! point), and the per-subspace inner loop is dispatched through
//! [`crate::kernel`]: a lane-width of query points is processed per
//! subspace visit, with coordinates transposed into an SoA scratch
//! buffer and the per-dimension hat products and `index1` arithmetic
//! carried in vector registers. All kernels are bitwise identical to
//! the scalar path (same operation order, no FMA).

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
    /// Latency distribution over individual blocked batches — the tail
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

/// Blocked batch evaluation (paper §4.3): process `block` query points per
/// subspace sweep, so each subspace's coefficient chunk — fetched once —
/// serves the whole block from cache. Builds the subspace plan once and
/// delegates to [`evaluate_batch_blocked_with_plan`].
pub fn evaluate_batch_blocked<T: Real>(grid: &CompactGrid<T>, xs: &[f64], block: usize) -> Vec<T> {
    let plan = EvalPlan::new(grid.spec());
    evaluate_batch_blocked_with_plan(grid, xs, block, &plan)
}

/// Blocked batch evaluation against a caller-supplied [`EvalPlan`]
/// (built once per batch; the parallel path shares one plan across all
/// pool workers). The inner per-subspace loop runs on the kernel chosen
/// by [`crate::kernel::active`].
///
/// # Panics
/// If the plan was built for a different dimensionality, `xs.len()` is
/// not a multiple of `d`, `block` is zero, or a coordinate is outside
/// `[0, 1]`.
pub fn evaluate_batch_blocked_with_plan<T: Real>(
    grid: &CompactGrid<T>,
    xs: &[f64],
    block: usize,
    plan: &EvalPlan,
) -> Vec<T> {
    let k = if grid.spec().dim() == 0 {
        0
    } else {
        xs.len() / grid.spec().dim()
    };
    let mut out = vec![T::ZERO; k];
    let mut scratch = EvalScratch::new();
    evaluate_batch_blocked_into(grid, xs, block, plan, &mut out, &mut scratch);
    out
}

/// Reusable accumulator/transpose buffers for
/// [`evaluate_batch_blocked_into`]. Holding one of these across calls
/// (e.g. per server connection, ffsvm's `Problem` idiom) makes repeated
/// batch evaluations allocation-free once the buffers have grown to the
/// steady-state batch shape.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Per-block f64 accumulators (`block` entries).
    acc: Vec<f64>,
    /// SoA coordinate transpose the SIMD kernels read (`block · d`).
    soa: Vec<f64>,
}

impl EvalScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for `block`-point blocks in `dim` dimensions,
    /// so even the first evaluation allocates nothing.
    pub fn with_capacity(block: usize, dim: usize) -> Self {
        Self {
            acc: vec![0.0; block],
            soa: vec![0.0; block * dim],
        }
    }
}

/// [`evaluate_batch_blocked_with_plan`] writing into a caller-owned
/// output slice with caller-owned [`EvalScratch`]: the allocation-free
/// core of the serving request path. Bitwise identical to the scalar
/// reference (same kernels, same order of operations).
///
/// # Panics
/// In addition to the [`evaluate_batch_blocked_with_plan`] conditions,
/// panics if `out.len()` is not exactly the number of query points.
pub fn evaluate_batch_blocked_into<T: Real>(
    grid: &CompactGrid<T>,
    xs: &[f64],
    block: usize,
    plan: &EvalPlan,
    out: &mut [T],
    ws: &mut EvalScratch,
) {
    let spec = grid.spec();
    let d = spec.dim();
    assert_eq!(plan.dim(), d, "plan built for a different dimensionality");
    assert_eq!(xs.len() % d, 0, "flat point array length must be k·d");
    assert!(block >= 1, "block size must be positive");
    assert!(
        xs.iter().all(|&v| (0.0..=1.0).contains(&v)),
        "query point outside the unit domain"
    );
    let k = xs.len() / d;
    assert_eq!(out.len(), k, "output slice length must match point count");
    let values = grid.values();
    let kind = kernel::active();
    let values_f64 = T::as_f64_slice(values);
    ws.acc.clear();
    ws.acc.resize(block.min(k), 0.0);
    let acc = &mut ws.acc;
    let scratch = &mut ws.soa;

    tel! {
        let batch_t0 = std::time::Instant::now();
        let mut walks = 0u64;
        let mut reads = 0u64;
    }
    let mut blk_start = 0usize;
    while blk_start < k {
        let blk = blk_start..(blk_start + block).min(k);
        let bxs = &xs[blk.start * d..blk.end * d];
        let acc = &mut acc[..blk.len()];
        acc.fill(0.0);
        // The SIMD kernels read coordinates from the SoA scratch layout;
        // transpose once per block, outside the (possibly per-group)
        // kernel calls.
        let use_simd = values_f64.is_some() && kind != KernelKind::Scalar;
        if use_simd {
            transpose_block(bxs, d, blk.len(), scratch);
        }
        let run_entries = |entries: std::ops::Range<usize>, acc: &mut [f64]| match values_f64 {
            // f32 grids (and a forced scalar kernel) take the generic
            // scalar path; it is the bitwise reference either way.
            Some(v) if kind != KernelKind::Scalar => {
                eval_block_simd(kind, v, plan, entries, bxs, d, scratch, acc)
            }
            _ => eval_block_scalar(values, plan, entries, bxs, d, acc),
        };
        // Entries stay in ascending order either way, so the split is
        // bitwise-neutral; only telemetry builds pay the per-group
        // timer reads.
        #[cfg(feature = "telemetry")]
        let block_reads = {
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
        let block_reads = run_entries(0..plan.num_subspaces(), acc);
        tel! {
            walks += plan.num_subspaces() as u64;
            reads += block_reads;
        }
        let _ = block_reads;
        for (o, a) in out[blk.clone()].iter_mut().zip(acc.iter()) {
            *o = T::from_f64(*a);
        }
        blk_start = blk.end;
    }
    tel! {
        let batch_ns = batch_t0.elapsed().as_nanos() as u64;
        BATCH_SPAN.record(batch_ns);
        BATCH_NS.record(batch_ns);
        EVAL_POINTS.add(k as u64);
        SUBSPACE_WALKS.add(walks);
        COEFF_BYTES.add(reads * T::size_bytes() as u64);
    }
}

/// Scalar per-block kernel over the plan entries `entries`:
/// subspace-outer, point-inner, exactly the historical blocked loop.
/// Returns the number of coefficient reads (non-zero basis products)
/// for the traffic counter.
fn eval_block_scalar<T: Real>(
    values: &[T],
    plan: &EvalPlan,
    entries: std::ops::Range<usize>,
    xs: &[f64],
    d: usize,
    acc: &mut [f64],
) -> u64 {
    let mut reads = 0u64;
    for e in entries {
        let (l, index2) = plan.entry(e);
        for (a, x) in acc.iter_mut().zip(xs.chunks_exact(d)) {
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
                *a += prod * values[index2 + index1 as usize].to_f64();
                reads += 1;
            }
        }
    }
    reads
}

/// Scalar tail for the SIMD kernels: points `from..` of the block
/// against one subspace entry, identical to [`eval_block_scalar`]'s
/// inner loop.
#[inline(always)]
fn eval_tail_scalar(
    values: &[f64],
    l: &[Level],
    index2: usize,
    xs: &[f64],
    d: usize,
    acc: &mut [f64],
    from: usize,
) -> u64 {
    let mut reads = 0u64;
    for (a, x) in acc[from..].iter_mut().zip(xs[from * d..].chunks_exact(d)) {
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
            *a += prod * values[index2 + index1 as usize];
            reads += 1;
        }
    }
    reads
}

/// Transpose a row-major block into the SoA scratch layout
/// (`xt[t·k + j] = xs[j·d + t]`) so each dimension's coordinates load
/// as one contiguous vector.
fn transpose_block(xs: &[f64], d: usize, k: usize, xt: &mut Vec<f64>) {
    xt.clear();
    xt.resize(k * d, 0.0);
    for j in 0..k {
        for t in 0..d {
            xt[t * k + j] = xs[j * d + t];
        }
    }
}

/// Dispatch the per-block evaluation to the selected SIMD kernel.
/// `kind` comes from [`kernel::active`], i.e. it is availability-checked
/// — that is what makes the `unsafe` ISA calls sound. `xt` must hold the
/// block's coordinates in the [`transpose_block`] SoA layout.
#[allow(clippy::too_many_arguments)]
fn eval_block_simd(
    kind: KernelKind,
    values: &[f64],
    plan: &EvalPlan,
    entries: std::ops::Range<usize>,
    xs: &[f64],
    d: usize,
    xt: &[f64],
    acc: &mut [f64],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Avx2 {
        // Safety: `resolve` only yields Avx2 after feature detection.
        return unsafe { avx2::eval_block(values, plan, entries, xs, d, xt, acc) };
    }
    #[cfg(target_arch = "aarch64")]
    if kind == KernelKind::Neon {
        // Safety: NEON is baseline on aarch64.
        return unsafe { neon::eval_block(values, plan, entries, xs, d, xt, acc) };
    }
    let _ = (kind, xt);
    eval_block_scalar(values, plan, entries, xs, d, acc)
}

/// AVX2 evaluation kernel: 4 query points per subspace visit.
///
/// Bitwise-identity notes (each step mirrors [`cell_and_basis`] and the
/// scalar loop exactly):
/// * the cell index is truncated and clamped in the f64 domain
///   (`roundscale` toward zero + `min`), which agrees with the scalar
///   `(pos as u64).min(cells-1)` for every in-domain input;
/// * `index1` is accumulated in f64 (`idx·2^l + c` stays below 2^30,
///   exact) and narrowed with `cvttpd` for the gather;
/// * lanes whose hat product is zero are masked out of the gather and
///   contribute `prod·0 = +0.0`; the accumulator can never hold `-0.0`
///   (it starts at `+0.0` and `+0.0 + -0.0 = +0.0`), so the masked add
///   is bit-neutral — the scalar early-break needs no vector analogue;
/// * products and accumulations use separate mul/add, never FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{eval_tail_scalar, EvalPlan};

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    /// `xt` must be the block's coordinates in SoA layout
    /// (`transpose_block`), `k·d` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn eval_block(
        values: &[f64],
        plan: &EvalPlan,
        entries: std::ops::Range<usize>,
        xs: &[f64],
        d: usize,
        xt: &[f64],
        acc: &mut [f64],
    ) -> u64 {
        use std::arch::x86_64::*;
        let k = acc.len();
        let vec_k = k & !3; // lane groups of 4; remainder goes scalar
        let mut reads = 0u64;
        let one = _mm256_set1_pd(1.0);
        let two = _mm256_set1_pd(2.0);
        let sign = _mm256_set1_pd(-0.0);
        let zero = _mm256_setzero_pd();
        for e in entries {
            let (l, index2) = plan.entry(e);
            let base = values[index2..].as_ptr();
            let mut j = 0usize;
            while j < vec_k {
                let mut prod = one;
                let mut idx = zero;
                for t in 0..d {
                    let cells = 1u64 << l[t] as u32;
                    let cells_f = _mm256_set1_pd(cells as f64);
                    let cmax = _mm256_set1_pd((cells - 1) as f64);
                    let x = _mm256_loadu_pd(xt.as_ptr().add(t * k + j));
                    let pos = _mm256_mul_pd(x, cells_f);
                    let c = _mm256_min_pd(
                        _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(pos),
                        cmax,
                    );
                    let frac = _mm256_sub_pd(pos, c);
                    let b = _mm256_sub_pd(
                        one,
                        _mm256_andnot_pd(sign, _mm256_sub_pd(_mm256_mul_pd(two, frac), one)),
                    );
                    idx = _mm256_add_pd(_mm256_mul_pd(idx, cells_f), c);
                    prod = _mm256_mul_pd(prod, b);
                }
                let mask = _mm256_cmp_pd::<_CMP_NEQ_UQ>(prod, zero);
                let mbits = _mm256_movemask_pd(mask);
                if mbits != 0 {
                    let vidx = _mm256_cvttpd_epi32(idx);
                    let vals = _mm256_mask_i32gather_pd::<8>(zero, base, vidx, mask);
                    let a = _mm256_loadu_pd(acc.as_ptr().add(j));
                    _mm256_storeu_pd(
                        acc.as_mut_ptr().add(j),
                        _mm256_add_pd(a, _mm256_mul_pd(prod, vals)),
                    );
                    reads += mbits.count_ones() as u64;
                }
                j += 4;
            }
            reads += eval_tail_scalar(values, l, index2, xs, d, acc, vec_k);
        }
        reads
    }
}

/// NEON evaluation kernel: 2 query points per subspace visit. The hat
/// product and `index1` arithmetic are vectorized; the (tiny) gather
/// runs per lane, replicating the scalar skip-on-zero. Same bitwise
/// contract as the AVX2 kernel.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{eval_tail_scalar, EvalPlan};

    /// # Safety
    /// NEON is part of the aarch64 baseline; `resolve` never selects it
    /// elsewhere. `xt` must be the block's coordinates in SoA layout
    /// (`transpose_block`), `k·d` long.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn eval_block(
        values: &[f64],
        plan: &EvalPlan,
        entries: std::ops::Range<usize>,
        xs: &[f64],
        d: usize,
        xt: &[f64],
        acc: &mut [f64],
    ) -> u64 {
        use std::arch::aarch64::*;
        let k = acc.len();
        let vec_k = k & !1;
        let mut reads = 0u64;
        let one = vdupq_n_f64(1.0);
        let two = vdupq_n_f64(2.0);
        for e in entries {
            let (l, index2) = plan.entry(e);
            let base = values[index2..].as_ptr();
            let mut j = 0usize;
            while j < vec_k {
                let mut prod = one;
                let mut idx = vdupq_n_f64(0.0);
                for t in 0..d {
                    let cells = 1u64 << l[t] as u32;
                    let cells_f = vdupq_n_f64(cells as f64);
                    let cmax = vdupq_n_f64((cells - 1) as f64);
                    let x = vld1q_f64(xt.as_ptr().add(t * k + j));
                    let pos = vmulq_f64(x, cells_f);
                    // vrndq = FRINTZ, round toward zero: matches the
                    // scalar `pos as u64` truncation.
                    let c = vminq_f64(vrndq_f64(pos), cmax);
                    let frac = vsubq_f64(pos, c);
                    let b = vsubq_f64(one, vabsq_f64(vsubq_f64(vmulq_f64(two, frac), one)));
                    idx = vaddq_f64(vmulq_f64(idx, cells_f), c);
                    prod = vmulq_f64(prod, b);
                }
                let p0 = vgetq_lane_f64::<0>(prod);
                let p1 = vgetq_lane_f64::<1>(prod);
                if p0 != 0.0 {
                    let i0 = vgetq_lane_f64::<0>(idx) as usize;
                    acc[j] += p0 * *base.add(i0);
                    reads += 1;
                }
                if p1 != 0.0 {
                    let i1 = vgetq_lane_f64::<1>(idx) as usize;
                    acc[j + 1] += p1 * *base.add(i1);
                    reads += 1;
                }
                j += 2;
            }
            reads += eval_tail_scalar(values, l, index2, xs, d, acc, vec_k);
        }
        reads
    }
}

/// Parallel batch evaluation: static decomposition of the query points
/// over threads (the paper's GPU scheme: one thread per interpolation
/// point), blocked within each thread's chunk. The claim granularity is
/// rounded up to whole SIMD lane groups, and one [`EvalPlan`] is shared
/// by every pool worker.
pub fn evaluate_batch_parallel<T: Real>(grid: &CompactGrid<T>, xs: &[f64], block: usize) -> Vec<T> {
    let d = grid.spec().dim();
    assert_eq!(xs.len() % d, 0, "flat point array length must be k·d");
    let block = sg_par::lane_aligned(block, kernel::active().lanes());
    let plan = &EvalPlan::new(grid.spec());
    let chunk = block * d;
    let n_chunks = xs.len().div_ceil(chunk);
    // Per-point cost varies with the basis-function path length, so
    // claim one block at a time and let the pool balance dynamically.
    sg_par::par_map_indexed_grained(n_chunks, 1, "core.evaluate.batch", None, |k| {
        let sub = &xs[k * chunk..((k + 1) * chunk).min(xs.len())];
        evaluate_batch_blocked_with_plan(grid, sub, block, plan)
    })
    .into_iter()
    .flatten()
    .collect()
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

    #[test]
    fn blocked_matches_unblocked_for_any_block_size() {
        let spec = GridSpec::new(2, 5);
        let g = surplus_grid(spec, |x| (x[0] - x[1]).cos());
        let pts: Vec<f64> = (0..34).map(|k| ((k * 53) % 97) as f64 / 97.0).collect();
        let reference = evaluate_batch(&g, &pts);
        for block in [1, 2, 3, 7, 16, 17, 100] {
            assert_eq!(evaluate_batch_blocked(&g, &pts, block), reference);
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
                evaluate_batch_blocked(&g, &pts, block)
            });
            let vector = with_kernel(KernelSelect::Force(simd), || {
                evaluate_batch_blocked(&g, &pts, block)
            });
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
        assert_eq!(
            evaluate_batch_blocked_with_plan(&g, &pts, 4, &plan),
            evaluate_batch_blocked(&g, &pts, 4)
        );
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
        let auto = evaluate_batch_blocked(&g, &pts, 4);
        let scalar = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
            evaluate_batch_blocked(&g, &pts, 4)
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
        evaluate_batch_blocked_with_plan(&g, &[0.5, 0.5], 4, &plan);
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
