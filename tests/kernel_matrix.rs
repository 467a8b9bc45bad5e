//! Scalar-vs-SIMD bitwise identity matrix.
//!
//! Every kernel (`sg_core::kernel`: the portable table loop and the
//! SIMD ones) reads the same per-block `cell_and_basis` tables, takes
//! the hat product in dimension order, builds the coefficient index as
//! an exact integer and reads no coefficient whose product is zero. So
//! its results must be **bit-identical** to `evaluate` on every batch
//! size straddling a lane boundary or the inline/pool split, at every
//! dimensionality, under every thread count, for `f64` and `f32` grids.
//! On hosts without a SIMD extension `detect()` degrades to the scalar
//! kernel and the matrix passes trivially (the CI AVX2 leg provides the
//! real coverage).

use sg_core::evaluate::BLOCK;
use sg_core::kernel::{detect, parse_select, with_kernel, KernelError, KernelKind, KernelSelect};
use sg_core::prelude::*;

/// Thread-count changes are process-global; the sweeps that touch them
/// serialize on this so the harness can still run tests concurrently.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

fn surplus_grid<T: Real>(spec: GridSpec) -> CompactGrid<T> {
    let mut g = CompactGrid::from_fn(spec, |x| {
        T::from_f64(
            x.iter()
                .enumerate()
                .map(|(t, &v)| (t as f64 + 1.0) * v * (1.0 - v))
                .sum::<f64>()
                + x.iter().product::<f64>(),
        )
    });
    hierarchize(&mut g);
    g
}

/// `evaluate_batch_into` against `plan`, into a NaN-filled buffer so a
/// point it skips cannot pass as a result; widened to `f64`, which is
/// exact and keeps `f32` bit patterns distinct.
fn into<T: Real>(grid: &CompactGrid<T>, xs: &[f64], block: usize, plan: &EvalPlan) -> Vec<f64> {
    let mut out = vec![T::from_f64(f64::NAN); xs.len() / grid.spec().dim()];
    evaluate_batch_into(grid, xs, block, plan, &mut out);
    widen(&out)
}

fn widen<T: Real>(v: &[T]) -> Vec<f64> {
    v.iter().map(|x| x.to_f64()).collect()
}

/// Deterministic in-domain query points (dyadic-adjacent, so basis
/// products hit both zero and non-zero lanes).
fn queries(d: usize, count: usize) -> Vec<f64> {
    (0..count * d)
        .map(|k| ((k.wrapping_mul(2654435761) >> 8) % 509 + 1) as f64 / 511.0)
        .collect()
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (q, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: query {q}: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn evaluation_matrix_is_bitwise_identical_across_kernels_and_threads() {
    evaluation_matrix::<f64>();
}

#[test]
fn f32_evaluation_matrix_is_bitwise_identical_across_kernels_and_threads() {
    evaluation_matrix::<f32>();
}

fn evaluation_matrix<T: Real>() {
    let _lock = threads_lock();
    let simd = detect();
    let lane = simd.lanes().max(2);
    // Batch sizes straddling the lane boundary, the spec'd fixed size 7,
    // and sizes either side of the inline/pool split at `BLOCK`: a batch
    // of at most one block runs inline, a larger one on the pool.
    // `BLOCK + 1` is never a lane multiple for lanes ∈ {2, 4, 8}.
    let sizes = [
        0,
        1,
        lane - 1,
        lane,
        lane + 1,
        7,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        2 * BLOCK + 3,
    ];
    for d in 1..=5usize {
        let levels = if d <= 3 { 5 } else { 3 };
        let spec = GridSpec::new(d, levels);
        let grid = surplus_grid::<T>(spec);
        let plan = EvalPlan::new(&spec);
        for &k in &sizes {
            let xs = queries(d, k);
            let what = format!("d={d} k={k}");
            let blocks = [lane, 7, BLOCK, k.max(1)];
            kernels_agree(&grid, &plan, &xs, &[1, 2, 8], &blocks, simd, &what);
        }
    }
    // The per-block basis tables hold `d · L · k` factors per block, so
    // the widest (d=10), deepest (d=1, L=20) and lane-tail (`k` off a
    // lane multiple, a partial last block) shapes run too, on queries
    // with coordinates 0, 1 and dyadic ties, at the production block and
    // one pool width that splits a batch over two threads' scratch.
    for (d, levels) in [(1usize, 20usize), (2, 12), (10, 6)] {
        let spec = GridSpec::new(d, levels);
        let grid = surplus_grid::<T>(spec);
        let plan = EvalPlan::new(&spec);
        for k in [1usize, 3, 63, 65, 4097] {
            let xs = edge_queries(d, k);
            let what = format!("d={d} L={levels} k={k}");
            kernels_agree(&grid, &plan, &xs, &[2], &[BLOCK], simd, &what);
        }
    }
    sg_par::set_num_threads(1);
}

/// The blocked and parallel batch paths under the scalar and the SIMD
/// kernel, at each of the pool widths `threads` and each of `blocks`,
/// all bitwise equal to the per-point `evaluate_batch`.
fn kernels_agree<T: Real>(
    grid: &CompactGrid<T>,
    plan: &EvalPlan,
    xs: &[f64],
    threads: &[usize],
    blocks: &[usize],
    simd: KernelKind,
    what: &str,
) {
    let reference = widen(&evaluate_batch(grid, xs));
    for &threads in threads {
        sg_par::set_num_threads(threads);
        for &block in blocks {
            for kind in [KernelKind::Scalar, simd] {
                let (blocked, parallel) = with_kernel(KernelSelect::Force(kind), || {
                    (
                        into(grid, xs, block, plan),
                        widen(&evaluate_batch_parallel(grid, xs, block)),
                    )
                });
                let what = format!("{what} threads={threads} block={block} {}", kind.name());
                assert_bitwise(&blocked, &reference, &format!("{what} blocked"));
                assert_bitwise(&parallel, &reference, &format!("{what} parallel"));
            }
        }
    }
}

/// Query points for the basis-table shapes: coordinates 0 and 1, dyadic
/// ties on coarse and fine levels, and generic points, mixed so lanes of
/// one vector hit zero and non-zero hats.
fn edge_queries(d: usize, count: usize) -> Vec<f64> {
    const EDGES: [f64; 8] = [0.0, 1.0, 0.5, 0.25, 0.75, 0.375, 1.0 / 1024.0, 0.6875];
    (0..count * d)
        .map(|k| match k % 3 {
            0 => EDGES[(k / 3) % EDGES.len()],
            _ => ((k.wrapping_mul(2654435761) >> 8) % 509 + 1) as f64 / 511.0,
        })
        .collect()
}

#[test]
fn coefficients_with_a_zero_hat_are_never_read() {
    zero_hats_are_never_read::<f64>();
    zero_hats_are_never_read::<f32>();
}

/// Every coefficient whose basis vanishes at all of a batch's query
/// points is NaN, so a kernel that multiplies a zero hat product through
/// its coefficient instead of masking the read returns NaN where the
/// per-point reference, which skips it, is finite. The queries are
/// dyadic, so whole levels' hats vanish. Each runs alone, so every lane
/// of a vector is zero together, and all run interleaved, so zero and
/// non-zero lanes share a vector: a vector kernel skips an all-zero
/// vector, and only the mixed batch catches an unmasked gather.
fn zero_hats_are_never_read<T: Real>() {
    use sg_core::iter::for_each_point;
    use sg_core::level::hat;
    let _lock = threads_lock();
    let simd = detect();
    let spec = GridSpec::new(3, 6);
    let plan = EvalPlan::new(&spec);
    let points = [
        [0.5, 0.25, 0.375],
        [0.125, 0.5, 0.8125],
        [0.75, 0.3, 0.5],
        [0.0625, 0.6875, 0.1],
    ];
    let mut batches: Vec<Vec<[f64; 3]>> = points.iter().map(|&q| vec![q]).collect();
    batches.push(points.to_vec());
    for qs in &batches {
        let mut grid = surplus_grid::<T>(spec);
        let mut masked = 0usize;
        for_each_point(&spec, |idx, l, i| {
            let vanishes = qs
                .iter()
                .all(|q| (0..3).map(|t| hat(l[t], i[t], q[t])).product::<f64>() == 0.0);
            if vanishes {
                grid.values_mut()[idx as usize] = T::from_f64(f64::NAN);
                masked += 1;
            }
        });
        assert!(masked > 0, "{qs:?}: no coefficient masked");
        // Lane-straddling length over several blocks, so the pool and a
        // lane tail both run.
        let xs: Vec<f64> = qs
            .iter()
            .cycle()
            .take(2 * BLOCK + 3)
            .flatten()
            .copied()
            .collect();
        let reference = widen(&evaluate_batch(&grid, &xs));
        assert!(
            reference.iter().all(|v| v.is_finite()),
            "{qs:?}: reference read a NaN"
        );
        for threads in [1usize, 2, 4] {
            sg_par::set_num_threads(threads);
            for kind in [KernelKind::Scalar, simd] {
                let got = with_kernel(KernelSelect::Force(kind), || into(&grid, &xs, BLOCK, &plan));
                let what = format!("{qs:?} threads={threads} {}", kind.name());
                assert_bitwise(&got, &reference, &what);
            }
        }
    }
    sg_par::set_num_threads(1);
}

/// Hierarchization has one scalar sweep for every kernel selection;
/// neither the selection nor the pool width may change a bit of it.
#[test]
fn hierarchization_matrix_is_bitwise_identical_across_kernels_and_threads() {
    let _lock = threads_lock();
    let simd = detect();
    for d in 1..=5usize {
        let levels = if d <= 3 { 5 } else { 3 };
        let spec = GridSpec::new(d, levels);
        let nodal = CompactGrid::from_fn(spec, |x| {
            x.iter().map(|&v| (4.0 * v).sin() + v * v).sum::<f64>()
        });
        // Reference: sequential sweeps under the forced scalar kernel.
        let reference = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
            let mut g = nodal.clone();
            hierarchize(&mut g);
            g
        });
        for threads in [1usize, 2, 8] {
            sg_par::set_num_threads(threads);
            for sel in [
                KernelSelect::Force(KernelKind::Scalar),
                KernelSelect::Force(simd),
            ] {
                let (seq, par, back) = with_kernel(sel, || {
                    let mut seq = nodal.clone();
                    hierarchize(&mut seq);
                    let mut par = nodal.clone();
                    hierarchize_parallel(&mut par);
                    let mut back = seq.clone();
                    dehierarchize_parallel(&mut back);
                    (seq, par, back)
                });
                let what = format!("d={d} threads={threads} {sel:?}");
                assert_bitwise(seq.values(), reference.values(), &format!("{what} seq"));
                assert_bitwise(par.values(), reference.values(), &format!("{what} par"));
                // Dehierarchization under the same kernel must bitwise
                // reproduce the forced-scalar sequential inverse.
                let expect = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
                    let mut g = reference.clone();
                    dehierarchize(&mut g);
                    g
                });
                assert_bitwise(back.values(), expect.values(), &format!("{what} dehier"));
            }
        }
    }
    sg_par::set_num_threads(1);
}

/// `from_fn_parallel` seeds each 1024-point chunk with one `idx2gp` and
/// steps from there, so it must reproduce the sequential walk bit for bit
/// where chunk seams fall mid-subspace and mid-group, and where one
/// subspace spans many chunks (d=1: the finest subspace covers four).
#[test]
fn parallel_sampler_matches_sequential_across_chunk_seams_and_threads() {
    let _lock = threads_lock();
    let f = |x: &[f64]| {
        x.iter()
            .enumerate()
            .map(|(t, &v)| (t as f64 + 1.0) * (3.0 * v).sin())
            .sum::<f64>()
    };
    let widen = |g: &CompactGrid<f32>| g.values().iter().map(|&v| v as f64).collect::<Vec<_>>();
    for threads in [1usize, 8] {
        sg_par::set_num_threads(threads);
        for (d, levels) in [(1, 13), (2, 11), (3, 9), (5, 7)] {
            let spec = GridSpec::new(d, levels);
            let what = format!("sampler d={d} L={levels} threads={threads}");
            let seq = CompactGrid::from_fn(spec, f);
            let par = CompactGrid::from_fn_parallel(spec, f);
            assert_bitwise(par.values(), seq.values(), &format!("{what} f64"));
            let seq = CompactGrid::from_fn(spec, |x| f(x) as f32);
            let par = CompactGrid::from_fn_parallel(spec, |x| f(x) as f32);
            assert_bitwise(&widen(&par), &widen(&seq), &format!("{what} f32"));
        }
    }
    sg_par::set_num_threads(1);
}

#[test]
fn empty_batch_and_single_subspace_edges() {
    let simd = detect();
    // Empty batch: every kernel and entry point returns an empty vector.
    let spec = GridSpec::new(3, 4);
    let grid = surplus_grid::<f64>(spec);
    for sel in [
        KernelSelect::Auto,
        KernelSelect::Force(KernelKind::Scalar),
        KernelSelect::Force(simd),
    ] {
        let (blocked, par) = with_kernel(sel, || {
            (
                into(&grid, &[], 8, &EvalPlan::new(&spec)),
                evaluate_batch_parallel(&grid, &[], 8),
            )
        });
        assert!(blocked.is_empty() && par.is_empty(), "{sel:?}");
    }
    // Single-subspace grid (level 1: the root subspace alone) — the
    // hierarchization sweeps have nothing to do (l_t = 0 everywhere is
    // skipped; d=1 level-1 has one point with no ancestors), and
    // evaluation reduces to the root basis product.
    let spec = GridSpec::new(3, 1);
    let nodal = CompactGrid::from_fn(spec, |x| x.iter().sum::<f64>());
    let xs = queries(3, 9);
    let reference = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
        let mut g = nodal.clone();
        hierarchize(&mut g);
        evaluate_batch(&g, &xs)
    });
    let vector = with_kernel(KernelSelect::Force(simd), || {
        let mut g = nodal.clone();
        hierarchize(&mut g);
        evaluate_batch_parallel(&g, &xs, 4)
    });
    assert_bitwise(&vector, &reference, "single-subspace");
}

#[test]
fn selection_vocabulary_and_typed_errors() {
    assert_eq!(parse_select("auto"), Ok(KernelSelect::Auto));
    assert_eq!(parse_select(""), Ok(KernelSelect::Auto));
    assert_eq!(
        parse_select(" Scalar "),
        Ok(KernelSelect::Force(KernelKind::Scalar))
    );
    assert_eq!(
        parse_select("AVX2"),
        Ok(KernelSelect::Force(KernelKind::Avx2))
    );
    assert_eq!(
        parse_select("neon"),
        Ok(KernelSelect::Force(KernelKind::Neon))
    );
    // Unknown values are a typed error whose message names the variable
    // and the accepted vocabulary — not a panic, not a silent fallback.
    let err = parse_select("bogus").unwrap_err();
    assert_eq!(err, KernelError::Unknown("bogus".into()));
    let msg = err.to_string();
    assert!(msg.contains("SG_KERNEL") && msg.contains("bogus"), "{msg}");

    // Forcing an ISA the host lacks resolves to a typed Unavailable
    // error, and the hot-path dispatch degrades to scalar instead of
    // crashing.
    let absent = if cfg!(target_arch = "x86_64") {
        KernelKind::Neon
    } else {
        KernelKind::Avx2
    };
    with_kernel(KernelSelect::Force(absent), || {
        assert_eq!(
            sg_core::kernel::resolve(),
            Err(KernelError::Unavailable(absent))
        );
        assert_eq!(sg_core::kernel::active(), KernelKind::Scalar);
    });
}
