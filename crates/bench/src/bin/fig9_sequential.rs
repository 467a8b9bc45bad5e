//! Fig. 9a/9b — sequential hierarchization and evaluation runtimes across
//! the five data structures, varying the dimensionality.
//!
//! Paper setting: refinement level 11 on an i7-920, d = 5..10. A laptop
//! cannot fill a 127M-point `std::map`, so the default level is 6
//! (`--level` raises it); the paper's observations are about *relative*
//! ordering — the compact structure fastest for both operations, the
//! prefix tree close on evaluation thanks to cache locality — which is
//! preserved across levels.
//!
//! Usage: `fig9_sequential [--level 6] [--dmin 5] [--dmax 10] [--evals 100] [--repeats 3]`

use sg_baselines::StoreKind;
use sg_bench::{fmt_secs, report, time_median, AnyStore, Args, Table};
use sg_core::functions::{halton_points, TestFunction};
use sg_core::grid::CompactGrid;
use sg_core::kernel::{detect, with_kernel, KernelKind, KernelSelect};
use sg_core::level::GridSpec;

fn main() {
    let args = Args::parse();
    let level = args.usize("level", 6);
    let dmin = args.usize("dmin", 5);
    let dmax = args.usize("dmax", 10);
    let evals = args.usize("evals", 100);
    let repeats = args.usize("repeats", 3);
    let f = TestFunction::Parabola;

    let mut hier = Table::new(
        &format!("Fig. 9a: sequential hierarchization runtime, level {level}"),
        &[
            "d",
            "points",
            "Ours",
            "Prefix Tree",
            "Enh. Hashtable",
            "Enh. Map",
            "Std Map",
        ],
    );
    let mut eval = Table::new(
        &format!("Fig. 9b: sequential time per evaluation, level {level} ({evals} points)"),
        &[
            "d",
            "points",
            "Ours",
            "Prefix Tree",
            "Enh. Hashtable",
            "Enh. Map",
            "Std Map",
        ],
    );
    let simd = detect();
    let mut kernels = Table::new(
        &format!(
            "Fig. 9 addendum: compact structure, scalar vs {} kernel, level {level}",
            simd.name()
        ),
        &[
            "d",
            "points",
            "eval scalar",
            &format!("eval {}", simd.name()),
            "speedup",
        ],
    );
    let mut raw = Vec::new();
    let mut traj: Vec<(String, f64)> = Vec::new();

    for d in dmin..=dmax {
        let spec = GridSpec::new(d, level);
        let xs = halton_points(d, evals);
        let mut hier_cells = vec![d.to_string(), spec.num_points().to_string()];
        let mut eval_cells = hier_cells.clone();
        let mut reference: Option<sg_core::grid::CompactGrid<f64>> = None;

        for kind in [
            StoreKind::Compact,
            StoreKind::PrefixTree,
            StoreKind::EnhancedHash,
            StoreKind::EnhancedMap,
            StoreKind::StdMap,
        ] {
            // Hierarchization time: median over fresh fills, timing only
            // the hierarchization step.
            let mut samples: Vec<f64> = (0..repeats)
                .map(|_| {
                    let mut s = AnyStore::new(kind, spec);
                    s.fill(|x| f.eval(x));
                    sg_bench::time_once(|| s.hierarchize_seq())
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            let t_hier_only = samples[samples.len() / 2];

            // Evaluation time per point on a hierarchized store.
            let mut s = AnyStore::new(kind, spec);
            s.fill(|x| f.eval(x));
            s.hierarchize_seq();
            // Cross-validate every structure against the compact result.
            let snap = s.to_compact();
            if let Some(r) = &reference {
                let diff = snap.max_abs_diff(r);
                assert!(diff < 1e-10, "{kind:?} disagrees with compact: {diff}");
            } else {
                reference = Some(snap);
            }
            let mut sink = 0.0f64;
            let t_eval = time_median(repeats, || {
                for x in xs.chunks_exact(d) {
                    sink += s.evaluate_seq(x);
                }
            }) / evals as f64;
            std::hint::black_box(sink);

            hier_cells.push(fmt_secs(t_hier_only));
            eval_cells.push(fmt_secs(t_eval));
            raw.push(sg_json::json!({
                "d": d, "kind": kind.label(),
                "hierarchize_s": t_hier_only, "eval_per_point_s": t_eval,
            }));
            traj.push((format!("d{d}/{}/hierarchize_s", kind.label()), t_hier_only));
            traj.push((format!("d{d}/{}/eval_per_point_s", kind.label()), t_eval));
        }
        hier.add_row(hier_cells);
        eval.add_row(eval_cells);

        // Scalar-vs-SIMD evaluation kernel ablation on the compact
        // structure: the same traversal with dispatch pinned, so the
        // delta is the lane width and nothing else (results are bitwise
        // identical — the kernel_matrix suite holds that invariant).
        // Hierarchization has one scalar sweep, so it has no ablation.
        let mut surplus = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
        sg_core::hierarchize::hierarchize(&mut surplus);
        let [es, ev] = [KernelKind::Scalar, simd].map(|kind| {
            with_kernel(KernelSelect::Force(kind), || {
                time_median(repeats.max(3), || {
                    std::hint::black_box(sg_core::evaluate::evaluate_batch_blocked(
                        &surplus, &xs, 64,
                    ));
                }) / evals as f64
            })
        });
        let eval_speedup = es / ev.max(f64::MIN_POSITIVE);
        kernels.add_row(vec![
            d.to_string(),
            spec.num_points().to_string(),
            fmt_secs(es),
            fmt_secs(ev),
            format!("{eval_speedup:.2}x"),
        ]);
        raw.push(sg_json::json!({
            "d": d, "kind": "compact-kernels", "simd_kernel": simd.name(),
            "eval_scalar_per_point_s": es, "eval_simd_per_point_s": ev,
            "simd_eval_speedup": eval_speedup,
        }));
        traj.push((format!("d{d}/compact/simd_eval_speedup"), eval_speedup));
        eprintln!("d={d} done");
    }

    hier.print();
    eval.print();
    kernels.print();
    println!(
        "Expected shape (paper Fig. 9): ours fastest on both; prefix tree close to ours on\n\
         evaluation (cache locality) and comparable to the hash table on hierarchization;\n\
         coordinate-keyed std map slowest throughout.\n"
    );

    let json = sg_json::json!({
        "experiment": "fig9_sequential",
        "level": level, "evals": evals,
        "fig9a": hier.to_json(), "fig9b": eval.to_json(),
        "fig9_kernels": kernels.to_json(),
        "raw": raw,
    });
    let json = sg_bench::attach_telemetry(json);
    match report::save_json("fig9_sequential", &json) {
        Ok(p) => println!("saved {}", p.display()),
        Err(e) => eprintln!("could not save JSON record: {e}"),
    }
    if let Err(e) = sg_bench::trajectory::record_run_scalars("fig9_sequential", &traj) {
        eprintln!("could not update trajectory: {e}");
    }
}
