//! Cross-crate equivalence matrix: every storage structure × both
//! algorithm families (iterative compact, recursive classic) must produce
//! identical hierarchical surpluses and identical interpolants.

use sg_baselines::{
    evaluate_recursive, hierarchize_recursive, EnhancedHashGrid, EnhancedMapGrid, PrefixTreeGrid,
    SparseGridStore, StdMapGrid,
};
use sg_core::evaluate::{evaluate, evaluate_batch, evaluate_batch_parallel};
use sg_core::functions::{halton_points, TestFunction};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::{hierarchize, hierarchize_alg6_literal, hierarchize_parallel};
use sg_core::level::GridSpec;

const SPECS: [(usize, usize); 4] = [(1, 7), (2, 6), (3, 5), (5, 4)];

fn reference(spec: GridSpec, f: &TestFunction) -> CompactGrid<f64> {
    let mut g = CompactGrid::from_fn(spec, |x| f.eval(x));
    hierarchize(&mut g);
    g
}

#[test]
fn every_store_yields_identical_surpluses() {
    let f = TestFunction::SineProduct;
    for (d, levels) in SPECS {
        let spec = GridSpec::new(d, levels);
        let r = reference(spec, &f);

        macro_rules! check {
            ($store:expr, $name:literal) => {{
                let mut s = $store;
                s.fill_from(|x| f.eval(x));
                hierarchize_recursive(&mut s);
                let diff = s.to_compact().max_abs_diff(&r);
                assert!(diff < 1e-12, "{} d={d} levels={levels}: {diff}", $name);
            }};
        }
        check!(StdMapGrid::<f64>::new(spec), "std-map");
        check!(EnhancedMapGrid::<f64>::new(spec), "enh-map");
        check!(EnhancedHashGrid::<f64>::new(spec), "enh-hash");
        check!(PrefixTreeGrid::<f64>::new(spec), "prefix-tree");
    }
}

#[test]
fn all_hierarchization_variants_agree_bitwise() {
    let f = TestFunction::Gaussian;
    for (d, levels) in SPECS {
        let spec = GridSpec::new(d, levels);
        let base = CompactGrid::from_fn(spec, |x| f.eval(x));
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        hierarchize(&mut a);
        hierarchize_alg6_literal(&mut b);
        hierarchize_parallel(&mut c);
        assert_eq!(a.values(), b.values(), "literal d={d}");
        assert_eq!(a.values(), c.values(), "parallel d={d}");
    }
}

#[test]
fn all_evaluation_variants_agree() {
    let f = TestFunction::Parabola;
    for (d, levels) in SPECS {
        let spec = GridSpec::new(d, levels);
        let g = reference(spec, &f);
        let xs = halton_points(d, 64);
        let single: Vec<f64> = xs.chunks_exact(d).map(|x| evaluate(&g, x)).collect();
        assert_eq!(single, evaluate_batch(&g, &xs), "batch d={d}");
        assert_eq!(single, evaluate_batch_parallel(&g, &xs, 7), "blocked d={d}");
        assert_eq!(
            single,
            evaluate_batch_parallel(&g, &xs, 16),
            "parallel d={d}"
        );
        for (x, &expect) in xs.chunks_exact(d).zip(&single) {
            let rec = evaluate_recursive(&g, x);
            assert!((rec - expect).abs() < 1e-12, "recursive d={d} x={x:?}");
        }
    }
}

#[test]
fn recursive_evaluation_agrees_on_every_store() {
    let f = TestFunction::SineProduct;
    let spec = GridSpec::new(3, 5);
    let r = reference(spec, &f);
    let xs = halton_points(3, 32);

    let mut tree = PrefixTreeGrid::<f64>::new(spec);
    tree.fill_from(|x| f.eval(x));
    hierarchize_recursive(&mut tree);
    let mut map = StdMapGrid::<f64>::new(spec);
    map.fill_from(|x| f.eval(x));
    hierarchize_recursive(&mut map);

    for x in xs.chunks_exact(3) {
        let expect = evaluate(&r, x);
        assert!((evaluate_recursive(&tree, x) - expect).abs() < 1e-12);
        assert!((evaluate_recursive(&map, x) - expect).abs() < 1e-12);
    }
}

/// The full paper matrix: d ∈ {1, 2, 3, 5} × levels ∈ {1..6}. The
/// hierarchize → evaluate round trip reproduces the nodal data at every
/// grid point, and all four baseline stores produce the same interpolant
/// as the compact grid, everywhere within 1e-12.
#[test]
fn round_trip_matrix_across_all_stores() {
    use sg_core::iter::for_each_point;
    use sg_core::level::coordinate;

    let f = TestFunction::Gaussian;
    for d in [1usize, 2, 3, 5] {
        for levels in 1..=6 {
            let spec = GridSpec::new(d, levels);
            let r = reference(spec, &f);

            // Round trip 1: evaluating the hierarchized grid at every
            // grid point gives back the value that was compressed.
            let mut x = vec![0.0; d];
            for_each_point(&spec, |_idx, l, i| {
                for t in 0..d {
                    x[t] = coordinate(l[t], i[t]);
                }
                let got = evaluate(&r, &x);
                let expect = f.eval(&x);
                assert!(
                    (got - expect).abs() < 1e-12,
                    "d={d} levels={levels} x={x:?}: {got} vs {expect}"
                );
            });

            // Round trip 2: each baseline store, hierarchized by the
            // recursive classic algorithm, interpolates identically.
            let xs = halton_points(d, 16);
            macro_rules! check {
                ($store:expr, $name:literal) => {{
                    let mut s = $store;
                    s.fill_from(|x| f.eval(x));
                    hierarchize_recursive(&mut s);
                    for x in xs.chunks_exact(d) {
                        let a = evaluate_recursive(&s, x);
                        let b = evaluate(&r, x);
                        assert!(
                            (a - b).abs() < 1e-12,
                            "{} d={d} levels={levels} x={x:?}: {a} vs {b}",
                            $name
                        );
                    }
                }};
            }
            check!(StdMapGrid::<f64>::new(spec), "std-map");
            check!(EnhancedMapGrid::<f64>::new(spec), "enh-map");
            check!(EnhancedHashGrid::<f64>::new(spec), "enh-hash");
            check!(PrefixTreeGrid::<f64>::new(spec), "prefix-tree");
        }
    }
}

/// The boundary extension (§4.4) joins the matrix: a function that is
/// affine in each coordinate is represented *exactly* by the boundary
/// grid (all interior surpluses vanish), so the hierarchize → evaluate
/// round trip must be 1e-12-exact at arbitrary points, not just lattice
/// points.
#[test]
fn boundary_grid_round_trip_is_exact_for_multilinear_data() {
    use sg_core::boundary::BoundaryGrid;

    for d in [1usize, 2, 3] {
        for levels in 1..=4 {
            let f = |x: &[f64]| {
                x.iter()
                    .enumerate()
                    .map(|(t, &v)| 1.0 + (t as f64 + 1.0) * v)
                    .product::<f64>()
            };
            let mut g: BoundaryGrid<f64> = BoundaryGrid::from_fn(d, levels, f);
            g.hierarchize();
            let corner = vec![1.0; d];
            assert!((g.evaluate(&corner) - f(&corner)).abs() < 1e-12);
            for x in halton_points(d, 24).chunks_exact(d) {
                let (a, b) = (g.evaluate(x), f(x));
                assert!(
                    (a - b).abs() < 1e-12,
                    "d={d} levels={levels} x={x:?}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn f32_and_f64_grids_agree_to_single_precision() {
    let f = TestFunction::Parabola;
    let spec = GridSpec::new(4, 5);
    let mut g64 = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
    let mut g32 = CompactGrid::<f32>::from_fn(spec, |x| f.eval(x) as f32);
    hierarchize(&mut g64);
    hierarchize(&mut g32);
    for x in halton_points(4, 50).chunks_exact(4) {
        let a = evaluate(&g64, x);
        let b = evaluate(&g32, x) as f64;
        assert!((a - b).abs() < 1e-5, "x={x:?}: {a} vs {b}");
    }
}
