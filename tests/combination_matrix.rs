//! Cross-validation tier: the combination technique vs the direct
//! sparse grid, exhaustively over d ∈ 1..4 × refinement level 1..5 ×
//! both compute kernels.
//!
//! The combination identity is *exact for interpolation*, so the
//! combined interpolant must agree with the direct `sg-core`
//! interpolant to 1e-9 (relative to the surplus scale) at every probe —
//! and with the recursive `sg-baselines` interpolant to the same
//! tolerance, while the direct interpolant itself must be **bitwise**
//! identical under forced-scalar, forced-SIMD, and auto kernel
//! dispatch. Together the three implementations pin each other down:
//! a rank/offset bug in the compact structure, a coefficient bug in the
//! combination, or a lane-order bug in a kernel each breaks a different
//! edge of the triangle.
//!
//! The executor's folded grid is held to more: its surpluses must equal
//! direct hierarchization **bitwise** over the same matrix, for every
//! test function, at pool widths 1, 2 and 8.

use sg_baselines::{evaluate_recursive, hierarchize_recursive, SparseGridStore, StdMapGrid};
use sg_combination::{CombinationExecutor, CombinationGrid, RunOutcome};
use sg_core::evaluate::evaluate;
use sg_core::functions::{halton_points, TestFunction};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::kernel::{detect, with_kernel, KernelKind, KernelSelect};
use sg_core::level::GridSpec;

const TOL: f64 = 1e-9;

/// Every (d, level) cell of the required matrix.
fn matrix() -> Vec<GridSpec> {
    let mut specs = Vec::new();
    for d in 1..=4 {
        for levels in 1..=5 {
            specs.push(GridSpec::new(d, levels));
        }
    }
    specs
}

/// Probe points for a shape: low-discrepancy interior points.
fn probes(d: usize) -> Vec<f64> {
    halton_points(d, 32)
}

#[test]
fn combination_equals_direct_interpolant_over_the_full_matrix() {
    for f in TestFunction::ALL {
        for spec in matrix() {
            let d = spec.dim();
            let comb = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
            let mut direct = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
            hierarchize(&mut direct);
            let scale = direct.values().iter().fold(1.0f64, |m, &v| m.max(v.abs()));
            for x in probes(d).chunks_exact(d) {
                let a = comb.evaluate(x);
                let b = evaluate(&direct, x);
                assert!(
                    (a - b).abs() <= TOL * scale,
                    "{} d={d} levels={} x={x:?}: combination={a} direct={b}",
                    f.name(),
                    spec.levels()
                );
            }
        }
    }
}

#[test]
fn combination_matches_the_recursive_baseline_within_tolerance() {
    // Tolerance edge of the bitwise-vs-tolerance matrix: the recursive
    // baseline computes the same interpolant by structurally different
    // code (hash-map store, Alg. 1/2 recursion), so agreement is to
    // tolerance, never bitwise.
    let f = TestFunction::SineProduct;
    for spec in matrix() {
        let d = spec.dim();
        let comb = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
        let mut store = StdMapGrid::<f64>::new(spec);
        store.fill_from(|x| f.eval(x));
        hierarchize_recursive(&mut store);
        let mut direct = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
        hierarchize(&mut direct);
        let scale = direct.values().iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        for x in probes(d).chunks_exact(d) {
            let a = comb.evaluate(x);
            let r = evaluate_recursive(&store, x);
            assert!(
                (a - r).abs() <= TOL * scale,
                "d={d} levels={} x={x:?}: combination={a} recursive={r}",
                spec.levels()
            );
        }
    }
}

#[test]
fn both_kernels_agree_bitwise_and_validate_the_combination() {
    // Bitwise edge of the matrix: forcing the kernel must not move a
    // single bit of the direct interpolant, and the combination must
    // cross-validate against every kernel's output.
    let f = TestFunction::Gaussian;
    let kinds = [KernelKind::Scalar, detect()];
    for spec in matrix() {
        let d = spec.dim();
        let comb = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
        let mut direct = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
        hierarchize(&mut direct);
        let scale = direct.values().iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        let xs = probes(d);
        let auto: Vec<f64> = xs.chunks_exact(d).map(|x| evaluate(&direct, x)).collect();
        for kind in kinds {
            let forced: Vec<f64> = with_kernel(KernelSelect::Force(kind), || {
                xs.chunks_exact(d).map(|x| evaluate(&direct, x)).collect()
            });
            for (q, x) in xs.chunks_exact(d).enumerate() {
                assert_eq!(
                    auto[q].to_bits(),
                    forced[q].to_bits(),
                    "d={d} levels={} kernel={kind:?} x={x:?}",
                    spec.levels()
                );
                let a = comb.evaluate(x);
                assert!(
                    (a - forced[q]).abs() <= TOL * scale,
                    "d={d} levels={} kernel={kind:?} x={x:?}: combination={a} direct={}",
                    spec.levels(),
                    forced[q]
                );
            }
        }
    }
}

#[test]
fn executor_pipeline_cross_validates_over_the_matrix() {
    // A clean run recovered from its own manifest and folded into one
    // compact grid carries the direct surpluses bit for bit, at every
    // pool width: every subspace copies the same `f(x)` bits from a
    // component and the hierarchization is the direct one.
    let restore = sg_par::num_threads();
    for threads in [1usize, 2, 8] {
        sg_par::set_num_threads(threads);
        for f in TestFunction::ALL {
            for spec in matrix() {
                let run = CombinationExecutor::new(spec).run(|x| f.eval(x)).unwrap();
                assert_eq!(run.outcome, RunOutcome::Clean);
                let mut direct = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
                hierarchize(&mut direct);
                for (k, (a, b)) in run.grid.values().iter().zip(direct.values()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} d={} levels={} threads={threads} surplus {k}: executor={a} direct={b}",
                        f.name(),
                        spec.dim(),
                        spec.levels()
                    );
                }
            }
        }
    }
    sg_par::set_num_threads(restore);
}
