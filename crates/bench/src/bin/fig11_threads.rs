//! Fig. 11 companion — **measured** in-process thread scaling of the
//! compact structure on the persistent sg-par worker pool.
//!
//! `fig11_scalability` projects the paper's 32-core curves from a cache
//! model; this experiment complements it with real wall-clock numbers:
//! it sweeps `sg_par::set_num_threads(p)` for p = 1..max inside one
//! process (exercising pool growth, dynamic chunk-claiming, and the
//! per-region barrier) and times parallel hierarchization and batch
//! evaluation at each width. It also re-checks the pool's determinism
//! contract end-to-end: every parallel result must be bitwise identical
//! to the p=1 run.
//!
//! Usage: `fig11_threads [--level 6] [--dims 5] [--evals 2000]
//!                       [--repeats 5] [--max-threads 8]`

use sg_bench::trajectory::MetricStats;
use sg_bench::{report, Args, Table};
use sg_core::evaluate::BLOCK;
use sg_core::functions::{halton_points, TestFunction};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize_parallel;
use sg_core::level::GridSpec;

fn main() {
    let args = Args::parse();
    let level = args.usize("level", 6);
    let d = args.usize("dims", 5);
    let evals = args.usize("evals", 2000);
    let repeats = args.usize("repeats", 5).max(1);
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = args.usize("max-threads", hw.max(4));

    let spec = GridSpec::new(d, level);
    let f = TestFunction::Parabola;
    let xs = halton_points(d, evals);
    let threads: Vec<usize> = (1..=max_threads).collect();

    let mut table = Table::new(
        &format!(
            "Fig. 11 (measured): pool thread sweep, d={d}, level {level}, {evals} eval points"
        ),
        &[
            "p",
            "hier p50 (ms)",
            "hier speedup",
            "eval p50 (ms)",
            "eval speedup",
        ],
    );
    let mut raw = Vec::new();
    let mut traj: Vec<(String, MetricStats)> = Vec::new();
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    let mut base = (0.0f64, 0.0f64);

    for &p in &threads {
        sg_par::set_num_threads(p);
        let mut hier_samples = Vec::with_capacity(repeats);
        let mut eval_samples = Vec::with_capacity(repeats);
        let mut hier_bits = Vec::new();
        let mut eval_bits = Vec::new();
        for _ in 0..repeats {
            let mut grid = CompactGrid::<f64>::from_fn_parallel(spec, |x| f.eval(x));
            hier_samples.push(sg_bench::time_once(|| hierarchize_parallel(&mut grid)));
            let mut out = Vec::new();
            eval_samples.push(sg_bench::time_once(|| {
                out = sg_core::evaluate::evaluate_batch_parallel(&grid, &xs, BLOCK);
            }));
            hier_bits = grid.values().iter().map(|v| v.to_bits()).collect();
            eval_bits = out.iter().map(|v| v.to_bits()).collect();
        }
        // Determinism gate: every thread count reproduces p=1 exactly.
        match &reference {
            None => reference = Some((hier_bits, eval_bits)),
            Some((h, e)) => {
                assert_eq!(*h, hier_bits, "hierarchization diverged from p=1 at p={p}");
                assert_eq!(*e, eval_bits, "evaluation diverged from p=1 at p={p}");
            }
        }

        let hier = MetricStats::from_samples(&hier_samples).unwrap();
        let eval = MetricStats::from_samples(&eval_samples).unwrap();
        if p == 1 {
            base = (hier.p50, eval.p50);
        }
        table.add_row(vec![
            p.to_string(),
            format!("{:.3}", hier.p50 * 1e3),
            format!("{:.2}", base.0 / hier.p50),
            format!("{:.3}", eval.p50 * 1e3),
            format!("{:.2}", base.1 / eval.p50),
        ]);
        raw.push(sg_json::json!({
            "threads": p,
            "hier_samples_s": &hier_samples[..],
            "eval_samples_s": &eval_samples[..],
            "hier_p50_s": hier.p50, "eval_p50_s": eval.p50,
            "hier_speedup": base.0 / hier.p50,
            "eval_speedup": base.1 / eval.p50,
        }));
        traj.push((format!("p{p}/hier_s"), hier));
        traj.push((format!("p{p}/eval_s"), eval));
        eprintln!("p={p} done (pool workers: {})", sg_par::pool_workers());
    }

    table.print();
    println!(
        "All thread counts verified bitwise identical to p=1 ({} hierarchized values,\n\
         {} evaluations). Speedups are measured wall-clock on this host, not modeled;\n\
         on an oversubscribed host (hardware threads < p) expect flat or declining\n\
         curves — the point of the sweep is the measurement, not the shape.\n",
        reference.as_ref().map_or(0, |(h, _)| h.len()),
        evals
    );

    let json = sg_json::json!({
        "experiment": "fig11_threads",
        "level": level, "dims": d, "evals": evals, "repeats": repeats,
        "threads": &threads[..],
        "hardware_threads": hw,
        "raw": raw,
    });
    let json = sg_bench::attach_telemetry(json);
    match report::save_json("fig11_threads", &json) {
        Ok(p) => println!("saved {}", p.display()),
        Err(e) => eprintln!("could not save JSON record: {e}"),
    }
    if let Err(e) = sg_bench::trajectory::record_run("fig11_threads", &traj) {
        eprintln!("could not update trajectory: {e}");
    }
}
