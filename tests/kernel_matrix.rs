//! Scalar-vs-SIMD bitwise identity matrix.
//!
//! The SIMD kernels (`sg_core::kernel`) are transcriptions — not
//! reassociations — of the scalar arithmetic, so their results must be
//! **bit-identical** on every batch size straddling a lane boundary or
//! the inline/pool split, at every dimensionality, under every thread
//! count, for `f64` and `f32` grids. On hosts without a SIMD extension
//! `detect()` degrades to the scalar kernel and the matrix passes
//! trivially (the CI AVX2 leg provides the real coverage).

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
            let reference = widen(&evaluate_batch(&grid, &xs));
            for threads in [1usize, 2, 8] {
                sg_par::set_num_threads(threads);
                for block in [lane, 7, BLOCK, k.max(1)] {
                    let scalar = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
                        (
                            into(&grid, &xs, block, &plan),
                            widen(&evaluate_batch_parallel(&grid, &xs, block)),
                        )
                    });
                    let vector = with_kernel(KernelSelect::Force(simd), || {
                        (
                            into(&grid, &xs, block, &plan),
                            widen(&evaluate_batch_parallel(&grid, &xs, block)),
                        )
                    });
                    let what = format!("d={d} k={k} threads={threads} block={block}");
                    assert_bitwise(&scalar.0, &reference, &format!("{what} blocked/scalar"));
                    assert_bitwise(&vector.0, &reference, &format!("{what} blocked/simd"));
                    assert_bitwise(&scalar.1, &reference, &format!("{what} parallel/scalar"));
                    assert_bitwise(&vector.1, &reference, &format!("{what} parallel/simd"));
                }
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
