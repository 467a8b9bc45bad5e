//! Parallel decompression throughput — the paper's visualization workload
//! (§5.3: "the number of interpolation points is typically around 10⁵").
//!
//! Measures batch evaluation throughput sequential vs blocked vs
//! thread-parallel, and runs the same workload through the simulated
//! Tesla C1060 for comparison.
//!
//! Run with: `cargo run --release -p sg-apps --example parallel_throughput [points]`

use sg_core::evaluate::{evaluate_batch, evaluate_batch_parallel, BLOCK};
use sg_core::prelude::*;
use sg_gpu::{evaluate_gpu, GpuDevice, KernelConfig};
use std::time::Instant;

fn main() {
    let n_points: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let d = 6;
    let spec = GridSpec::new(d, 7);

    println!(
        "grid: d={d}, level 7, {} points; evaluating at {n_points} query points",
        spec.num_points()
    );
    let mut grid = CompactGrid::from_fn_parallel(spec, |x| {
        x.iter()
            .map(|&v| (std::f64::consts::PI * v).sin())
            .product()
    });
    hierarchize_parallel(&mut grid);
    let xs = halton_points(d, n_points);

    let mpts = |dt: std::time::Duration| n_points as f64 / dt.as_secs_f64() / 1e6;

    // Sequential, straight Alg. 7 per point.
    let small = &xs[..xs.len().min(10_000 * d)];
    let t0 = Instant::now();
    let seq = evaluate_batch(&grid, small);
    let t_seq = t0.elapsed();
    println!(
        "sequential          : {:>8.3} Mpts/s  (measured on {} points)",
        small.len() as f64 / d as f64 / t_seq.as_secs_f64() / 1e6,
        small.len() / d
    );

    // Blocked (paper §4.3): subspaces stay cache-resident across a block.
    // Serial: the same evaluator at pool width 1.
    let width = sg_par::num_threads();
    sg_par::set_num_threads(1);
    let t0 = Instant::now();
    let blocked = evaluate_batch_parallel(&grid, &xs, BLOCK);
    let t_blocked = t0.elapsed();
    sg_par::set_num_threads(width);
    println!("blocked (64)        : {:>8.3} Mpts/s", mpts(t_blocked));

    // Thread-parallel over query points (embarrassingly parallel, the
    // paper's static decomposition).
    let t0 = Instant::now();
    let parallel = evaluate_batch_parallel(&grid, &xs, BLOCK);
    let t_par = t0.elapsed();
    println!(
        "threads ({:>2})        : {:>8.3} Mpts/s  ({:.2}x over blocked)",
        sg_par::num_threads(),
        mpts(t_par),
        t_blocked.as_secs_f64() / t_par.as_secs_f64()
    );

    // Cross-check all paths agree.
    assert_eq!(&parallel[..seq.len()], &seq[..]);
    assert_eq!(parallel, blocked);

    // The same workload on the simulated Tesla C1060 (f32, as the paper).
    let mut g32: CompactGrid<f32> = CompactGrid::from_fn(spec, |x| {
        x.iter()
            .map(|&v| (std::f64::consts::PI * v).sin())
            .product::<f64>() as f32
    });
    sg_core::hierarchize::hierarchize(&mut g32);
    let dev = GpuDevice::tesla_c1060();
    let (gpu_vals, report) = evaluate_gpu(&g32, &xs, &dev, &KernelConfig::default());
    println!(
        "Tesla C1060 (model) : {:>8.3} Mpts/s  (occupancy {:.0}%, {} transactions)",
        n_points as f64 / report.time.total / 1e6,
        report.occupancy.fraction * 100.0,
        report.counters.transactions
    );
    // The simulated kernel computes real values.
    let max_dev = gpu_vals
        .iter()
        .zip(&parallel)
        .map(|(&a, &b): (&f32, &f64)| (a as f64 - b).abs())
        .fold(0.0f64, f64::max);
    println!("gpu-sim vs cpu max deviation: {max_dev:.2e} (f32 storage vs f64)");
}
