//! `explore`, the right half of Fig. 1: one visualisation client, closed
//! loop, asking `sgd` for 2-D slice frames of 64 × 64 pixels whose pixels
//! share three coordinates. The model (d = 5, level 9, 1.5 MB) fits in
//! one core's L2, and 4096-point frames take the engine's pool path, so
//! the evaluation kernel and the `EvalPlan` walk dominate.

use crate::oracle::{self, Rng};
use crate::serve::{build_model, Daemon};
use crate::trace::{Counters, Tracer};
use crate::{stats, Args, Outcome};
use sg_core::prelude::*;
use sg_serve::Client;
use std::time::Instant;

const DIM: usize = 5;
const LEVELS: usize = 9;
const SIDE: usize = 64;
const WARMUP_FRAMES: u64 = 10;
const MODEL: &str = "explore";

/// The slice path: the two pixel axes change every 32 frames, the three
/// shared coordinates drift by a small random step per frame.
struct SlicePath {
    rng: Rng,
    axes: (usize, usize),
    fixed: [f64; DIM],
    frame: u64,
}

impl SlicePath {
    fn new(seed: u64) -> SlicePath {
        let mut rng = Rng::new(seed, 2);
        let fixed = std::array::from_fn(|_| rng.open01());
        SlicePath {
            rng,
            axes: (0, 1),
            fixed,
            frame: 0,
        }
    }

    /// Write the next frame's pixel coordinates into `xs`.
    fn next(&mut self, xs: &mut Vec<f64>) {
        if self.frame.is_multiple_of(32) {
            let a = (self.rng.next_u64() % DIM as u64) as usize;
            let b = (a + 1 + (self.rng.next_u64() % (DIM as u64 - 1)) as usize) % DIM;
            self.axes = (a, b);
        }
        self.frame += 1;
        for v in &mut self.fixed {
            let step = 0.02 * (self.rng.open01() - 0.5);
            *v = (*v + step).clamp(0.001, 0.999);
        }
        let (oa, ob) = (self.rng.open01(), self.rng.open01());
        xs.clear();
        for py in 0..SIDE {
            for px in 0..SIDE {
                let mut p = self.fixed;
                p[self.axes.0] = (px as f64 + oa) / SIDE as f64;
                p[self.axes.1] = (py as f64 + ob) / SIDE as f64;
                xs.extend_from_slice(&p);
            }
        }
    }
}

fn frame_ok(xs: &[f64], got: &[f64], s: f64, scratch: &mut (Vec<f64>, Vec<f64>)) -> bool {
    got.len() * DIM == xs.len()
        && xs.chunks_exact(DIM).zip(got).all(|(x, &g)| {
            oracle::eval_ok(
                g,
                oracle::interpolant(s, LEVELS, x, &mut scratch.0, &mut scratch.1),
                s,
            )
        })
}

struct State {
    client: Client,
    grid: CompactGrid<f64>,
    _daemon: Daemon,
}

pub fn run(args: &Args) -> Outcome {
    let s = 0.5 + Rng::new(args.seed, 1).open01();
    let path = args.work.join("explore.sgc2");
    let mut path_gen = SlicePath::new(args.seed);
    let mut xs = Vec::with_capacity(SIDE * SIDE * DIM);
    let mut out = Vec::with_capacity(SIDE * SIDE);
    let mut scratch = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: build, checkpoint and restore the model, start sgd, load
    // the model, and warm up with checked frames.
    let mut tr = Tracer::new(Instant::now());
    let mut builds = 0u64;
    let (mut st, setup_s) = crate::timed_setup(|| {
        let (grid, built) = build_model(DIM, LEVELS, s, &path, &mut tr, builds);
        builds += 1;
        attempted += 1;
        failed += !built as u64;
        let daemon = Daemon::start();
        let mut client = daemon.connect();
        client
            .load(MODEL, &path)
            .expect("loading the explore model");
        for _ in 0..WARMUP_FRAMES {
            path_gen.next(&mut xs);
            attempted += 1;
            let ok = client.eval_into(MODEL, DIM, &xs, &mut out).is_ok()
                && frame_ok(&xs, &out, s, &mut scratch);
            failed += !ok as u64;
        }
        State {
            client,
            grid,
            _daemon: daemon,
        }
    });
    let checkpoint_mb = crate::file_mb(&path);

    let mut rtt_ms = Vec::new();
    // Traced build only: each frame's server batch time.
    let mut batch_ms = Vec::new();
    let end = crate::deadline(args.seconds);
    while Instant::now() < end {
        path_gen.next(&mut xs);
        let id = rtt_ms.len() as u64;
        let before = Counters::now();
        let t0 = Instant::now();
        let reply = tr.span("explore.frame", id, None, || {
            st.client.eval_into(MODEL, DIM, &xs, &mut out)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = Counters::now();
        attempted += 1;
        let mut ok = match reply {
            Ok(_) => frame_ok(&xs, &out, s, &mut scratch),
            Err(e) => {
                eprintln!("explore: frame {id}: {e}");
                false
            }
        };
        rtt_ms.push(ms);
        if tr.on {
            batch_ms.push(after.hist_since(&before, "serve.batch.ns").1 / 1e6);
            let lib = tr.counted_eval(id, || evaluate_batch_parallel(&st.grid, &xs, 64));
            // The serving path is bitwise identical to the library.
            ok &= lib.len() == out.len()
                && lib
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        failed += !ok as u64;
    }
    drop(st);
    std::fs::remove_file(&path).ok();
    println!(
        "explore: frames attempted {attempted} (warm-up {}), failed {failed}; model d={DIM} level {LEVELS}, {} points, {}-pixel frames, 1 connection, s={s}; peak RSS {:.2} MB",
        WARMUP_FRAMES * crate::SETUP_REPS as u64,
        oracle::grid_len(DIM, LEVELS),
        SIDE * SIDE,
        crate::peak_rss_mb()
    );

    // Medians over blocks of 128 consecutive frames (13 beyond the p90)
    // of each block's p50 and p90: a host stall in a minority of blocks
    // does not set them.
    let mut p50s = stats::block_quantiles(&rtt_ms, 128, 0.5);
    let mut p90s = stats::block_quantiles(&rtt_ms, 128, 0.9);
    println!(
        "explore: frame p90 {:.3} ms (median of 128-frame blocks)",
        stats::median(&mut p90s)
    );
    let mut out = Outcome {
        attempted,
        failed,
        end_to_end: crate::end_to_end(setup_s, stats::median(&mut p50s), checkpoint_mb),
        per_layer: Vec::new(),
    };
    if tr.on {
        let mut transport: Vec<f64> = tr
            .spans
            .iter()
            .filter(|sp| sp.name == "explore.frame")
            .zip(&batch_ms)
            .map(|(sp, b)| sp.ns() as f64 / 1e6 - b)
            .collect();
        let transport = stats::median(&mut transport);
        crate::print_layer_table(
            "explore",
            "frame",
            tr.median_ms("explore.frame").0,
            &[
                ("serve.batch (server)", stats::median(&mut batch_ms)),
                ("transport (residual)", transport),
            ],
        );
        println!(
            "  library evaluation of the same frame: {:.3} ms",
            tr.median_ms("core.eval").0
        );
        out.per_layer = tr.layer_metrics(transport);
        crate::write_spans(args, &tr);
    }
    out
}
