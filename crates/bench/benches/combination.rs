//! Direct compact method vs the combination technique (paper §7) and vs
//! the adaptive hash-backed grid — the two representation trade-offs the
//! paper positions itself against.

use sg_adaptive::AdaptiveSparseGrid;
use sg_bench::harness::Harness;
use sg_combination::CombinationGrid;
use sg_core::evaluate::{evaluate_batch_parallel, BLOCK};
use sg_core::functions::{halton_points, TestFunction};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args("combination");
    // The evaluation rows compare serial evaluators, so the direct rows
    // run the batch evaluator at pool width 1; construction keeps the pool.
    let width = sg_par::num_threads();
    sg_par::set_num_threads(1);

    {
        let mut group = h.group("combination_vs_direct_eval");
        group.sample_size(10);
        group.throughput_elements(1000);
        let f = TestFunction::Gaussian;
        for d in [3usize, 5] {
            let spec = GridSpec::new(d, 6);
            let mut direct = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
            hierarchize(&mut direct);
            let comb = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
            let xs = halton_points(d, 1000);
            group.bench(&format!("direct/{d}"), || {
                black_box(evaluate_batch_parallel(&direct, &xs, BLOCK))
            });
            group.bench(&format!("combination/{d}"), || {
                let mut acc = 0.0;
                for x in xs.chunks_exact(d) {
                    acc += comb.evaluate(black_box(x));
                }
                acc
            });
        }
    }

    sg_par::set_num_threads(width);

    {
        // Construction: sampling+hierarchization (direct) vs sampling all
        // component grids (combination, no hierarchization needed).
        let mut group = h.group("build_cost");
        group.sample_size(10);
        let f = TestFunction::Parabola;
        let spec = GridSpec::new(4, 6);
        group.bench("direct_sample_hierarchize", || {
            let mut g = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
            hierarchize(&mut g);
            black_box(g.len())
        });
        group.bench("combination_sample_components", || {
            let g = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
            black_box(g.total_points())
        });
    }

    sg_par::set_num_threads(1);
    {
        let mut group = h.group("adaptive_vs_regular_eval");
        group.sample_size(10);
        group.throughput_elements(500);
        let f = |x: &[f64]| (-200.0 * ((x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2))).exp();
        let mut adaptive = AdaptiveSparseGrid::new(2);
        adaptive.refine_by_surplus(&f, 1e-4, 2000, 12);
        let spec = GridSpec::new(2, 9);
        let mut regular = CompactGrid::<f64>::from_fn(spec, f);
        hierarchize(&mut regular);
        let xs = halton_points(2, 500);
        group.bench("adaptive_hash", || {
            let mut acc = 0.0;
            for x in xs.chunks_exact(2) {
                acc += adaptive.evaluate(black_box(x));
            }
            acc
        });
        group.bench("regular_compact", || {
            black_box(evaluate_batch_parallel(&regular, &xs, BLOCK))
        });
    }

    h.finish();
}
