//! The paper's motivating application (Fig. 1): interactive exploration
//! of multi-dimensional simulation data.
//!
//! A "simulation" produces a 5-dimensional field; we compress it into the
//! compact sparse grid format, serialize it (the storage hop of Fig. 1),
//! then a "visualization client" deserializes and renders 2-d slices by
//! batch-decompressing a pixel grid — the latency-critical step the paper
//! optimizes.
//!
//! Run with: `cargo run --release -p sg-apps --example interactive_exploration`

use sg_core::evaluate::BLOCK;
use sg_core::prelude::*;
use std::time::Instant;

/// The "simulation output": a travelling Gaussian pulse whose centre
/// moves with two parameters (think time and viscosity).
fn simulation_field(x: &[f64]) -> f64 {
    let (sx, sy, t, nu, amp) = (x[0], x[1], x[2], x[3], x[4]);
    let cx = 0.3 + 0.4 * t;
    let cy = 0.5 + 0.2 * (std::f64::consts::TAU * t).sin();
    let width = 0.02 + 0.1 * nu;
    let r2 = (sx - cx).powi(2) + (sy - cy).powi(2);
    (0.5 + 0.5 * amp) * (-r2 / width).exp() * (sx * (1.0 - sx) * sy * (1.0 - sy) * 16.0)
}

fn main() {
    // --- Simulation + compression (offline, Fig. 1 left).
    let spec = GridSpec::new(5, 8);
    println!(
        "compressing a 5-d field on {} sparse grid points …",
        spec.num_points()
    );
    let t0 = Instant::now();
    let mut grid = CompactGrid::from_fn_parallel(spec, simulation_field);
    hierarchize_parallel(&mut grid);
    println!("  sampled + hierarchized in {:.2?}", t0.elapsed());

    // --- Storage hop: the compact format is just spec + coefficients.
    let blob = sg_io::encode(&grid);
    println!(
        "  stored blob: {} bytes for {} coefficients",
        blob.len(),
        grid.len()
    );
    let grid: CompactGrid<f64> = sg_io::decode(&blob).expect("deserialize");

    // --- Visualization client (online, Fig. 1 right): render 2-d slices
    // through (t, nu, amp) at interactive rates.
    const W: usize = 64;
    const H: usize = 32;
    for (t, nu) in [(0.1, 0.3), (0.6, 0.3), (0.9, 0.8)] {
        // Build the pixel batch: one query point per pixel.
        let mut pixels = Vec::with_capacity(W * H * 5);
        for row in 0..H {
            for col in 0..W {
                pixels.extend_from_slice(&[
                    col as f64 / (W - 1) as f64,
                    1.0 - row as f64 / (H - 1) as f64,
                    t,
                    nu,
                    0.5,
                ]);
            }
        }
        let t0 = Instant::now();
        let values = evaluate_batch_parallel(&grid, &pixels, BLOCK);
        let dt = t0.elapsed();

        let max = values.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        println!(
            "\nslice t={t:.1} nu={nu:.1}  ({W}x{H} pixels decompressed in {dt:.2?}, {:.1} Mpix/s)",
            (W * H) as f64 / dt.as_secs_f64() / 1e6
        );
        const SHADES: &[u8] = b" .:-=+*#%@";
        for row in 0..H {
            let line: String = (0..W)
                .map(|col| {
                    let v = values[row * W + col] / max;
                    let idx =
                        ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                    SHADES[idx] as char
                })
                .collect();
            println!("  {line}");
        }
    }
    println!("\nThe pulse travels to the right and widens with viscosity — decompressed");
    println!("directly from the compact representation, no full grid ever materialized.");

    // --- Progressive transmission: because gp2idx orders coefficients by
    // level, any *prefix* of the stored array is itself a valid coarser
    // grid — a free level-of-detail scheme for slow links.
    println!("\nprogressive streaming (array prefixes are coarser grids):");
    println!(
        "{:>7} {:>10} {:>12} {:>14}",
        "level", "coeffs", "bytes", "est. L1 error"
    );
    for lod in 2..=grid.spec().levels() {
        let prefix = grid.truncated(lod);
        println!(
            "{:>7} {:>10} {:>12} {:>14.2e}",
            lod,
            prefix.len(),
            prefix.len() * 8,
            sg_core::norms::truncation_error_l1(&grid, lod)
        );
    }
    println!("A viewer can render from the first bytes received and sharpen as the rest arrive.");
}
