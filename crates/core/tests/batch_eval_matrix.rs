//! Batch-evaluation equivalence matrix.
//!
//! `evaluate_batch_into` (with a caller-owned plan and output) and
//! `evaluate_batch_parallel` must return *bit-identical* results to the
//! scalar `evaluate` loop for every block size and thread count: both
//! reorder only the iteration over query points, never the per-point
//! arithmetic.
//!
//! This lives in its own test binary because `sg_par::set_num_threads`
//! is process-global; the tests here tolerate each other racing on the
//! pool width precisely because the contract is width-independent.

use sg_core::evaluate::{evaluate, evaluate_batch_into, evaluate_batch_parallel};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_core::plan::EvalPlan;
use sg_prop::Rng;

/// Shapes covering 1-d, a square, and a skinny high-dim grid.
const SHAPES: [(usize, usize); 3] = [(1, 6), (2, 4), (4, 3)];

fn hierarchized(d: usize, n: usize) -> CompactGrid<f64> {
    let mut grid = CompactGrid::<f64>::from_fn(GridSpec::new(d, n), |x| {
        x.iter()
            .enumerate()
            .map(|(t, &v)| (1.0 + t as f64) * v * (1.25 - v))
            .sum::<f64>()
            + 0.5
    });
    hierarchize(&mut grid);
    grid
}

/// `evaluate_batch_into` into a NaN-filled buffer, so a point it skips
/// cannot pass as a result.
fn into(grid: &CompactGrid<f64>, xs: &[f64], block: usize) -> Vec<f64> {
    let mut out = vec![f64::NAN; xs.len() / grid.spec().dim()];
    evaluate_batch_into(grid, xs, block, &EvalPlan::new(grid.spec()), &mut out);
    out
}

/// Random queries plus grid nodes and domain corners, flattened to k·d.
fn queries(rng: &mut Rng, d: usize, count: usize) -> Vec<f64> {
    let mut xs = Vec::with_capacity(count * d);
    for k in 0..count {
        for t in 0..d {
            xs.push(match (k + t) % 4 {
                0 => rng.f64_in(0.0, 1.0),
                1 => 0.0,
                2 => 1.0,
                // A dyadic node coordinate: i / 2^(l+1).
                _ => {
                    let l = rng.u64_in(0..=4);
                    rng.u64_in(0..=(1 << (l + 1))) as f64 / (1u64 << (l + 1)) as f64
                }
            });
        }
    }
    xs
}

fn check_matrix(threads: usize) {
    sg_par::set_num_threads(threads);
    let mut rng = Rng::new(0xB10C_5EED ^ threads as u64);
    for (d, n) in SHAPES {
        let grid = hierarchized(d, n);
        let xs = queries(&mut rng, d, 97);
        let len = xs.len() / d;
        let scalar: Vec<f64> = xs.chunks_exact(d).map(|x| evaluate(&grid, x)).collect();
        for block in [1, 7, 64, len + 3] {
            for (label, got) in [
                ("into", into(&grid, &xs, block)),
                ("parallel", evaluate_batch_parallel(&grid, &xs, block)),
            ] {
                assert_eq!(got.len(), len);
                for (k, (a, b)) in scalar.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{label}: d={d} n={n} block={block} threads={threads} \
                         point {k}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn batch_paths_match_scalar_evaluate_on_one_thread() {
    check_matrix(1);
}

#[test]
fn batch_paths_match_scalar_evaluate_on_two_threads() {
    check_matrix(2);
}

#[test]
fn batch_paths_match_scalar_evaluate_on_eight_threads() {
    check_matrix(8);
}

#[test]
fn empty_and_single_point_batches() {
    let grid = hierarchized(3, 3);
    for block in [1, 7, 64, 128] {
        assert!(into(&grid, &[], block).is_empty());
        assert!(evaluate_batch_parallel(&grid, &[], block).is_empty());

        let x = [0.3, 0.625, 0.5];
        let want = evaluate(&grid, &x);
        assert_eq!(
            into(&grid, &x, block)[0].to_bits(),
            want.to_bits(),
            "into single point, block={block}"
        );
        assert_eq!(
            evaluate_batch_parallel(&grid, &x, block)[0].to_bits(),
            want.to_bits(),
            "parallel single point, block={block}"
        );
    }
}
