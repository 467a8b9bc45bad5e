//! `compress`, the left half of Fig. 1: closed-loop rounds of
//! sample → hierarchize → durable SGC2 checkpoint → restore on a grid
//! several times one core's L2 (d = 5 at the paper's level 11:
//! 1,579,007 points, 12.6 MB of coefficients).

use crate::oracle::{self, Rng};
use crate::trace::Tracer;
use crate::{stats, Args, Outcome};
use sg_core::prelude::*;
use std::path::Path;
use std::time::Instant;

const DIM: usize = 5;
const LEVELS: usize = 11;
/// Points at which every restored grid is evaluated and checked.
const CHECK_POINTS: usize = 256;
/// Rounds per block of the printed p90: the median of the blocks' p90s.
const BLOCK: usize = 16;

/// The left half of Fig. 1 on one grid of `s · ∏ 4x(1−x)`: sample →
/// hierarchize → durable SGC2 checkpoint to `path` → restore, each call
/// a span under `parent`, the build's counters recorded. Returns the
/// grid written and, if both I/O calls succeeded, the grid read back.
pub fn fig1_path(
    tr: &mut Tracer,
    spec: GridSpec,
    s: f64,
    path: &Path,
    id: u64,
    parent: Option<usize>,
) -> (CompactGrid<f64>, Option<CompactGrid<f64>>) {
    let grid = tr.counted_build(|tr| {
        let mut grid = tr.span("core.sample", id, parent, || {
            CompactGrid::from_fn_parallel(spec, |x| oracle::parabola(s, x))
        });
        tr.span("core.hierarchize", id, parent, || {
            hierarchize_parallel(&mut grid)
        });
        grid
    });
    let written = tr.span("io.checkpoint", id, parent, || {
        sg_io::write_snapshot_file(&grid, path, "fig1bench")
    });
    let restored = tr.span("io.restore", id, parent, || {
        sg_io::read_snapshot_file::<f64>(path)
    });
    match (written, restored) {
        (Ok(()), Ok(back)) => (grid, Some(back)),
        (w, r) => {
            eprintln!(
                "fig1bench: {}: checkpoint {w:?}, restore {:?}",
                path.display(),
                r.err()
            );
            (grid, None)
        }
    }
}

pub fn bitwise_equal(a: &CompactGrid<f64>, b: &CompactGrid<f64>) -> bool {
    let same = a.spec() == b.spec()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if !same {
        eprintln!("fig1bench: restored grid differs from the grid written");
    }
    same
}

struct Round {
    secs: f64,
    ok: bool,
}

/// One round. Only the four stages are inside the timed interval; the
/// checks (closed-form surpluses, bitwise restore, and the restored
/// grid evaluated at `check_xs` against the closed-form interpolant)
/// run after it.
fn round(s: f64, path: &Path, check_xs: &[f64], tr: &mut Tracer, id: u64) -> Round {
    let t0 = Instant::now();
    let root = tr.open("compress.round", id, None);
    let (grid, restored) = fig1_path(tr, GridSpec::new(DIM, LEVELS), s, path, id, Some(root));
    tr.close(root);
    let secs = t0.elapsed().as_secs_f64();
    let ok = restored.is_some_and(|back| {
        surpluses_ok(&grid, s)
            && bitwise_equal(&grid, &back)
            && evaluates_ok(&back, s, check_xs, tr, id)
    });
    Round { secs, ok }
}

/// Every coefficient against its closed-form surplus `s · 4^{−n}`.
fn surpluses_ok(grid: &CompactGrid<f64>, s: f64) -> bool {
    let values = grid.values();
    if values.len() != oracle::grid_len(DIM, LEVELS) {
        eprintln!("compress: grid holds {} points", values.len());
        return false;
    }
    let mut at = 0;
    for n in 0..LEVELS {
        let want = oracle::surplus(s, n);
        let len = oracle::group_len(DIM, n);
        if let Some(k) = values[at..at + len]
            .iter()
            .position(|&v| !oracle::surplus_ok(v, want, s))
        {
            eprintln!(
                "compress: coefficient {} of group {n} is {}, want {want}",
                at + k,
                values[at + k]
            );
            return false;
        }
        at += len;
    }
    true
}

/// The restored grid, evaluated by the library at `xs`, against the
/// closed-form interpolant.
fn evaluates_ok(grid: &CompactGrid<f64>, s: f64, xs: &[f64], tr: &mut Tracer, id: u64) -> bool {
    let got = tr.counted_eval(id, || evaluate_batch_parallel(grid, xs, 64));
    let (mut p, mut q) = (Vec::new(), Vec::new());
    let ok = got.len() * DIM == xs.len()
        && xs.chunks_exact(DIM).zip(&got).all(|(x, &g)| {
            oracle::eval_ok(g, oracle::interpolant(s, LEVELS, x, &mut p, &mut q), s)
        });
    if !ok {
        eprintln!("compress: round {id}: the restored grid evaluates wrong");
    }
    ok
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = Rng::new(args.seed, 1);
    let s = 0.5 + rng.open01();
    let check_xs: Vec<f64> = (0..CHECK_POINTS * DIM).map(|_| rng.open01()).collect();
    let path = args.work.join("compress.sgc2");
    let mut tr = Tracer::new(Instant::now());
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Set-up: a full warm-up round (pool threads, allocator, page cache
    // and the checkpoint file all come up), checked like any other.
    let (_, setup_s) = crate::timed_setup(|| {
        let mut off = Tracer::new(Instant::now());
        off.on = false;
        let r = round(s, &path, &check_xs, &mut off, u64::MAX);
        attempted += 1;
        failed += !r.ok as u64;
    });
    let checkpoint_mb = crate::file_mb(&path);

    let end = crate::deadline(args.seconds);
    let mut round_ms = Vec::new();
    while Instant::now() < end {
        let r = round(s, &path, &check_xs, &mut tr, round_ms.len() as u64);
        attempted += 1;
        failed += !r.ok as u64;
        round_ms.push(r.secs * 1e3);
    }
    std::fs::remove_file(&path).ok();
    let mut p90s = stats::block_quantiles(&round_ms, BLOCK, 0.9);
    let op_p50_ms = stats::median(&mut round_ms);
    println!(
        "compress: rounds attempted {attempted} (set-up {}), failed {failed}; grid d={DIM} level {LEVELS}, {} points, s={s}; \
         {:.3} Mpoints/s; round p90 {:.2} ms; peak RSS {:.2} MB",
        crate::SETUP_REPS,
        oracle::grid_len(DIM, LEVELS),
        oracle::grid_len(DIM, LEVELS) as f64 / op_p50_ms / 1e3,
        stats::median(&mut p90s),
        crate::peak_rss_mb()
    );

    let mut out = Outcome {
        attempted,
        failed,
        end_to_end: crate::end_to_end(setup_s, op_p50_ms, checkpoint_mb),
        per_layer: Vec::new(),
    };
    if tr.on {
        let round = tr.median_ms("compress.round");
        let stage = |name| tr.median_ms(name).0;
        crate::print_layer_table(
            "compress",
            "round",
            round.0,
            &[
                ("core.sample", stage("core.sample")),
                ("core.hierarchize", stage("core.hierarchize")),
                ("io.checkpoint", stage("io.checkpoint")),
                ("io.restore", stage("io.restore")),
                ("residual", round.1),
            ],
        );
        println!(
            "  outside the round: library evaluation of {CHECK_POINTS} check points {:.3} ms",
            stage("core.eval")
        );
        out.per_layer = tr.layer_metrics(round.1);
        crate::write_spans(args, &tr);
    }
    out
}
