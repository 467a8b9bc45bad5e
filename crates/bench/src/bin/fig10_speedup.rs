//! Fig. 10a/10b — speedup of the GPU and multicore implementations over
//! one sequential Nehalem core, for d = 1..10.
//!
//! Paper setting: Tesla C1060 vs one i7-920 core, level 11, evaluation at
//! ~10⁵ points; headline speedups up to 17× (hierarchization) and 70×
//! (evaluation). We substitute the hardware with the `sg-gpu` SIMT
//! simulator and the `sg-machine` multicore model, and compare model
//! against model: the sequential baseline is the Nehalem-core time model
//! fed with the algorithms' instruction counts and cache-simulated DRAM
//! traffic (constants documented in `sg_machine::multicore::SeqCpuModel`).
//! Real measured host times are printed alongside for reference; the
//! `host simd/portable` column (trajectory key `d<k>/simd_eval_speedup`)
//! is the hand-written SIMD evaluation kernel's gain over the portable
//! table loop that the forced scalar kernel runs.
//!
//! Usage: `fig10_speedup [--level 6] [--dmax 10] [--points 10000]
//!                       [--fermi] [--ablations]`

use sg_baselines::StoreKind;
use sg_bench::{fmt_secs, report, Args, Table};
use sg_core::evaluate::BLOCK;
use sg_core::functions::{halton_points, TestFunction};
use sg_core::grid::CompactGrid;
use sg_core::kernel::{detect, with_kernel, KernelKind, KernelSelect};
use sg_core::level::GridSpec;
use sg_gpu::{evaluate_gpu, hierarchize_gpu, BinmatLocation, GpuDevice, KernelConfig};
use sg_machine::{trace_evaluation, trace_hierarchization, CacheSim, MachineModel, SeqCpuModel};

/// Scalar instruction estimates for the sequential CPU baseline. The
/// paper's CPU code is "optimized with respect to cache and SSE" (§6.2):
/// a sequential sweep locates parent coefficients incrementally instead
/// of re-running gp2idx per access, so hierarchization costs the index
/// decode (3 per dimension) plus O(1) work per parent — unlike the GPU
/// kernel, whose whole design revolves around per-access gp2idx and the
/// binmat placement (§5.3).
fn hier_instr(d: usize, points: u64) -> u64 {
    points * d as u64 * (3 * d as u64 + 2 * 10 + 4)
}

fn eval_instr(d: usize, subspaces: u64, points: u64) -> u64 {
    // Per point per subspace: Alg. 7 inner loop (8 per dim) + accumulate.
    points * subspaces * (8 * d as u64 + 4)
}

fn main() {
    let args = Args::parse();
    let level = args.usize("level", 6);
    let dmax = args.usize("dmax", 10);
    let n_points = args.usize("points", 10_000);
    let dev = if args.flag("fermi") {
        GpuDevice::tesla_c2050()
    } else {
        GpuDevice::tesla_c1060()
    };
    let cfg = KernelConfig::default();
    let cpu = SeqCpuModel::nehalem_core();
    let machines = [
        MachineModel::opteron_8356_32core(),
        MachineModel::nehalem_ep_8core(),
        MachineModel::nehalem_920_4core(),
    ];
    let f = TestFunction::Parabola;

    let mut hier = Table::new(
        &format!("Fig. 10a: hierarchization speedup vs 1 Nehalem core, level {level}"),
        &[
            "d",
            "points",
            dev.name,
            "32c Opteron",
            "8c Nehalem EP",
            "4c Nehalem",
            "seq model",
            "seq host",
        ],
    );
    let mut eval = Table::new(
        &format!(
            "Fig. 10b: evaluation speedup vs 1 Nehalem core, level {level}, {n_points} points"
        ),
        &[
            "d",
            "points",
            dev.name,
            "32c Opteron",
            "8c Nehalem EP",
            "4c Nehalem",
            "seq model",
            "seq host",
            "host simd/portable",
        ],
    );
    let simd = detect();
    let mut raw = Vec::new();
    let mut traj: Vec<(String, f64)> = Vec::new();

    for d in 1..=dmax {
        let spec = GridSpec::new(d, level);
        let n = spec.num_points();
        let subspaces: u64 = (0..level)
            .map(|g| sg_core::combinatorics::subspace_count(d, g))
            .sum();
        let xs = halton_points(d, n_points);

        // --- Sequential baseline: Nehalem-core model fed by traced traffic.
        let mut sim = CacheSim::nehalem();
        let hier_traffic = trace_hierarchization(StoreKind::Compact, spec, &mut sim);
        let t_seq_hier = cpu.time(hier_instr(d, n), hier_traffic.dram_bytes / 64);
        let mut sim = CacheSim::nehalem();
        let eval_traffic = trace_evaluation(StoreKind::Compact, spec, n_points, &mut sim);
        let t_seq_eval = cpu.time(
            eval_instr(d, subspaces, n_points as u64),
            eval_traffic.dram_bytes / 64,
        );

        // --- Real host measurements (reference columns): one hierarchize,
        // then evaluation once per kernel with dispatch pinned, both
        // serial (pool width 1) — the pair records what the hand-written
        // SIMD kernel gains over the portable table loop (the forced
        // "scalar" kernel, which reads the same per-block basis tables
        // and is compiler-vectorized) on this hardware, next to the
        // machine models.
        let mut g = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
        let t_host_hier = sg_bench::time_once(|| sg_core::hierarchize::hierarchize(&mut g));
        let width = sg_par::num_threads();
        sg_par::set_num_threads(1);
        let [t_host_eval_scalar, t_host_eval] = [KernelKind::Scalar, simd].map(|kind| {
            with_kernel(KernelSelect::Force(kind), || {
                sg_bench::time_once(|| {
                    std::hint::black_box(sg_core::evaluate::evaluate_batch_parallel(
                        &g, &xs, BLOCK,
                    ));
                })
            })
        });
        sg_par::set_num_threads(width);
        let simd_eval_speedup = t_host_eval_scalar / t_host_eval.max(f64::MIN_POSITIVE);

        // --- GPU simulation (f32 coefficients, as the paper's kernels).
        let mut gpu_grid: CompactGrid<f32> = CompactGrid::from_fn(spec, |x| f.eval(x) as f32);
        let hier_report = hierarchize_gpu(&mut gpu_grid, &dev, &cfg);
        let (_, eval_report) = evaluate_gpu(&gpu_grid, &xs, &dev, &cfg);

        // --- Multicore models at full core counts.
        let hier_speedups: Vec<f64> = machines
            .iter()
            .map(|m| hier_traffic.workload(t_seq_hier).speedup(m, m.cores))
            .collect();
        let eval_speedups: Vec<f64> = machines
            .iter()
            .map(|m| eval_traffic.workload(t_seq_eval).speedup(m, m.cores))
            .collect();

        let gpu_hier_speedup = t_seq_hier / hier_report.time.total;
        let gpu_eval_speedup = t_seq_eval / eval_report.time.total;

        hier.add_row(vec![
            d.to_string(),
            n.to_string(),
            format!("{gpu_hier_speedup:.1}"),
            format!("{:.1}", hier_speedups[0]),
            format!("{:.1}", hier_speedups[1]),
            format!("{:.1}", hier_speedups[2]),
            fmt_secs(t_seq_hier),
            fmt_secs(t_host_hier),
        ]);
        eval.add_row(vec![
            d.to_string(),
            n.to_string(),
            format!("{gpu_eval_speedup:.1}"),
            format!("{:.1}", eval_speedups[0]),
            format!("{:.1}", eval_speedups[1]),
            format!("{:.1}", eval_speedups[2]),
            fmt_secs(t_seq_eval),
            fmt_secs(t_host_eval),
            format!("{simd_eval_speedup:.2}"),
        ]);
        raw.push(sg_json::json!({
            "d": d, "points": n,
            "gpu_hier_speedup": gpu_hier_speedup,
            "gpu_eval_speedup": gpu_eval_speedup,
            "gpu_hier_time_s": hier_report.time.total,
            "gpu_eval_time_s": eval_report.time.total,
            "gpu_eval_occupancy": eval_report.occupancy.fraction,
            "gpu_hier_divergent_branches": hier_report.counters.divergent_branches,
            "multicore_hier": hier_speedups, "multicore_eval": eval_speedups,
            "seq_model_hier_s": t_seq_hier, "seq_model_eval_s": t_seq_eval,
            "seq_host_hier_s": t_host_hier, "seq_host_eval_s": t_host_eval,
            "host_kernel": simd.name(),
            "host_eval_scalar_s": t_host_eval_scalar,
            "simd_eval_speedup": simd_eval_speedup,
        }));
        traj.push((format!("d{d}/gpu_hier_s"), hier_report.time.total));
        traj.push((format!("d{d}/gpu_eval_s"), eval_report.time.total));
        traj.push((format!("d{d}/seq_host_hier_s"), t_host_hier));
        traj.push((format!("d{d}/seq_host_eval_s"), t_host_eval));
        traj.push((format!("d{d}/simd_eval_speedup"), simd_eval_speedup));
        eprintln!("d={d} done");
    }

    hier.print();
    eval.print();
    println!(
        "Expected shape (paper Fig. 10): GPU clearly above all multicore machines — roughly 2x\n\
         the best multicore on hierarchization and 3x on evaluation; multicore speedups flat in d;\n\
         GPU speedup rising with d as the grids grow, with the occupancy-driven decline expected\n\
         past d = 10 (run with --dmax 16 to see it).\n"
    );

    if args.flag("ablations") {
        // d = 12: shared memory is the occupancy limiter, the regime in
        // which the paper measured its §5.3 gains.
        let abl_d = 12;
        let mut abl = Table::new(
            &format!(
                "GPU ablations (paper §5.3), level {}, d = {abl_d}",
                level.min(5)
            ),
            &["variant", "hier time", "eval time", "eval occupancy"],
        );
        let spec = GridSpec::new(abl_d, level.min(5));
        let xs = halton_points(abl_d, n_points.min(4096));
        for (name, cfg) in [
            (
                "constant-cache binmat, block-shared l",
                KernelConfig::default(),
            ),
            (
                "shared-memory binmat",
                KernelConfig {
                    binmat: BinmatLocation::SharedMemory,
                    ..Default::default()
                },
            ),
            (
                "on-the-fly binomials",
                KernelConfig {
                    binmat: BinmatLocation::OnTheFly,
                    ..Default::default()
                },
            ),
            (
                "per-thread l",
                KernelConfig {
                    block_shared_l: false,
                    ..Default::default()
                },
            ),
        ] {
            let mut g: CompactGrid<f32> = CompactGrid::from_fn(spec, |x| f.eval(x) as f32);
            let h = hierarchize_gpu(&mut g, &dev, &cfg);
            let (_, e) = evaluate_gpu(&g, &xs, &dev, &cfg);
            abl.add_row(vec![
                name.to_string(),
                fmt_secs(h.time.total - h.time.launch),
                fmt_secs(e.time.total - e.time.launch),
                format!("{:.0}%", e.occupancy.fraction * 100.0),
            ]);
        }
        abl.print();
    }

    let json = sg_json::json!({
        "experiment": "fig10_speedup",
        "level": level, "points": n_points, "device": dev.name,
        "fig10a": hier.to_json(), "fig10b": eval.to_json(), "raw": raw,
    });
    let json = sg_bench::attach_telemetry(json);
    match report::save_json("fig10_speedup", &json) {
        Ok(p) => println!("saved {}", p.display()),
        Err(e) => eprintln!("could not save JSON record: {e}"),
    }
    if let Err(e) = sg_bench::trajectory::record_run_scalars("fig10_speedup", &traj) {
        eprintln!("could not update trajectory: {e}");
    }
}
