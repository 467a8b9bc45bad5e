//! Decompression benchmarks: single-point and batch evaluation, the
//! cache-blocking ablation of paper §4.3, and parallel batch throughput.

use sg_bench::harness::Harness;
use sg_core::evaluate::{evaluate, evaluate_batch, evaluate_batch_parallel, BLOCK};
use sg_core::functions::halton_points;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use std::hint::black_box;

fn surplus_grid(d: usize, levels: usize) -> CompactGrid<f64> {
    let mut g = CompactGrid::from_fn(GridSpec::new(d, levels), |x| {
        x.iter().map(|&v| 4.0 * v * (1.0 - v)).product()
    });
    hierarchize(&mut g);
    g
}

fn main() {
    let mut h = Harness::from_args("evaluate");

    {
        let mut group = h.group("evaluate_single");
        group.sample_size(30);
        for d in [3usize, 6, 10] {
            let g = surplus_grid(d, 6);
            let x = vec![0.37; d];
            group.bench(&format!("{d}"), || evaluate(&g, black_box(&x)));
        }
    }

    {
        // Paper §4.3: blocking over evaluation points keeps each subspace
        // cache-resident across the block. Serial (pool width 1), so the
        // rows differ by blocking alone.
        let mut group = h.group("evaluate_blocking");
        group.sample_size(10);
        let g = surplus_grid(5, 8);
        let xs = halton_points(5, 2000);
        group.throughput_elements(2000);
        let width = sg_par::num_threads();
        sg_par::set_num_threads(1);
        group.bench("unblocked", || black_box(evaluate_batch(&g, &xs)));
        for block in [8usize, 64, 256] {
            group.bench(&format!("blocked/{block}"), || {
                black_box(evaluate_batch_parallel(&g, &xs, block))
            });
        }
        sg_par::set_num_threads(width);
    }

    {
        let mut group = h.group("evaluate_parallel");
        group.sample_size(10);
        let g = surplus_grid(5, 7);
        let xs = halton_points(5, 4000);
        group.throughput_elements(4000);
        let width = sg_par::num_threads();
        sg_par::set_num_threads(1);
        group.bench("sequential_blocked", || {
            black_box(evaluate_batch_parallel(&g, &xs, BLOCK))
        });
        sg_par::set_num_threads(width);
        group.bench("threaded", || {
            black_box(evaluate_batch_parallel(&g, &xs, BLOCK))
        });
    }

    h.finish();
}
