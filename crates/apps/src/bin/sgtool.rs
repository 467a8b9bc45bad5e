//! `sgtool` — command-line front end for the compact sparse grid format.
//!
//! ```text
//! sgtool compress --dims 4 --level 6 --function parabola --out grid.sgc
//! sgtool info grid.sgc
//! sgtool eval grid.sgc 0.5,0.5,0.5,0.5 0.25,0.75,0.1,0.9
//! sgtool integrate grid.sgc
//! sgtool slice grid.sgc --axes 0,1 --at 0.5,0.5,0.5,0.5 [--width 64]
//! sgtool profile --dims 10 --level 7 --out trace.json
//! ```

use sg_baselines::StoreKind;
use sg_core::evaluate::BLOCK;
use sg_core::prelude::*;
use sg_core::quadrature::integrate;
use sg_io::SnapshotSource;
use std::process::ExitCode;

/// Exit-code taxonomy, pinned by `tests/cli.rs`: scripts can distinguish
/// "you called it wrong" from "your data is bad" from "the disk failed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrClass {
    /// Bad invocation (missing/unknown flags, malformed arguments): 2.
    Usage,
    /// Corrupt or undecodable data (bad magic, checksum, lost sections): 3.
    Corrupt,
    /// The operating system failed us (read/write errors): 4.
    Io,
    /// Anything else: 1.
    Other,
}

/// One-line diagnostic plus its exit class.
#[derive(Debug)]
struct CliError {
    class: ErrClass,
    msg: String,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            class: ErrClass::Usage,
            msg: msg.into(),
        }
    }
    fn corrupt(msg: impl Into<String>) -> Self {
        CliError {
            class: ErrClass::Corrupt,
            msg: msg.into(),
        }
    }
    fn io(msg: impl Into<String>) -> Self {
        CliError {
            class: ErrClass::Io,
            msg: msg.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError {
            class: ErrClass::Other,
            msg,
        }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::from(msg.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("sgtool: missing command");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let metrics_path = flag(&args, "--metrics-json");
    // Validate the SG_KERNEL selection before doing any work: an unknown
    // or unavailable kernel request is a usage error, not a silent
    // scalar fallback mid-run. The resolved kernel is stamped into
    // provenance up front, so runs that never evaluate (compress,
    // checkpoint) still record it.
    match sg_core::kernel::resolve() {
        Ok(kind) => sg_telemetry::set_kernel_hint(kind.name()),
        Err(e) => {
            eprintln!("sgtool: {e}");
            return ExitCode::from(2);
        }
    }
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = check_flags(cmd, rest).and_then(|()| match cmd.as_str() {
        "compress" => cmd_compress(rest),
        "checkpoint" => cmd_checkpoint(rest),
        "restore" => cmd_restore(rest),
        "verify" => cmd_verify(rest),
        "info" => cmd_info(rest),
        "eval" => cmd_eval(rest),
        "integrate" => cmd_integrate(rest),
        "slice" => cmd_slice(rest),
        "render" => cmd_render(rest),
        "profile" => cmd_profile(rest),
        "flight" => cmd_flight(rest),
        "gate" => cmd_gate(rest),
        "divergence" => cmd_divergence(rest),
        "combine" => cmd_combine(rest),
        "fuzz" => cmd_fuzz(rest),
        other => Err(CliError::usage(format!(
            "unknown command: {other}\n{USAGE}"
        ))),
    });
    let result = result.and_then(|()| {
        let Some(path) = metrics_path else {
            return Ok(());
        };
        let mut report = sg_telemetry::snapshot().to_json();
        report["provenance"] = sg_telemetry::provenance(&["telemetry"]);
        let regions = sg_telemetry::regions::report();
        report["regions"] = sg_telemetry::regions::to_json(&regions);
        std::fs::write(&path, format!("{}\n", report.to_string_pretty()))
            .map_err(|e| CliError::io(format!("cannot write metrics to {path}: {e}")))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sgtool: {}", e.msg);
            ExitCode::from(match e.class {
                ErrClass::Usage => 2,
                ErrClass::Corrupt => 3,
                ErrClass::Io => 4,
                ErrClass::Other => 1,
            })
        }
    }
}

const USAGE: &str = "usage:
  sgtool compress --dims D --level L --function NAME --out FILE
                  (functions: parabola sine-product gaussian)
  sgtool checkpoint --out SNAP (--dims D --level L [--function NAME] | FILE)
                  [--provenance TEXT]
                  (write a crash-safe SGC2 sectioned snapshot: redundant
                  header+footer, one CRC64 section per level group,
                  atomic temp-file -> rename publish; FILE converts an
                  existing .sgc grid instead of sampling a function)
  sgtool restore SNAP --out FILE [--function NAME]
                  (salvage every intact section of a damaged snapshot;
                  lost level groups are listed and, with --function,
                  rebuilt exactly by re-sampling + re-hierarchizing;
                  without it a degraded snapshot exits 3)
  sgtool verify SNAP
                  (per-section integrity table; exit 0 intact, 3 damaged)
  sgtool info FILE
  sgtool eval FILE X1,...,XD [more points ...]
  sgtool integrate FILE
  sgtool slice FILE --axes A,B --at X1,...,XD [--width N]
  sgtool render FILE --out IMG.ppm [--axes A,B] [--at X1,...,XD] [--width N]
  sgtool profile [--dims D] [--level L] [--function NAME] [--reps R]
                 [--points K] [--out TRACE.json] [--top N]
                 [--from TRACE.json]
                  (defaults: d=10 level 7, 1 rep, 4096 eval points; runs
                  sample -> hierarchize -> evaluate -> dehierarchize with
                  tracing on, writes a Chrome Trace Event JSON loadable in
                  Perfetto, and prints span/histogram/imbalance summaries;
                  --from skips the run and summarizes an existing trace
                  file instead — a malformed or truncated trace exits 2
                  with a one-line diagnostic)
  sgtool flight [--dims D] [--level L] [--function NAME] [--reps R]
                [--points K] [--interval-ms MS] [--out flight.json]
                  (defaults: d=8 level 6, 4 reps, 4096 eval points, 5 ms
                  cadence; runs the profile workload with the in-process
                  flight recorder sampling every counter/span/histogram on
                  a fixed cadence into a lock-free ring, then writes the
                  self-describing time-series — schema with metric
                  name/kind/unit plus one frame per sample — as JSON)
  sgtool gate EXPERIMENT [more ...] [--results DIR] [--window N]
              [--min-runs N] [--k FACTOR] [--rel-floor FRAC] [--json PATH]
                  (perf-regression sentry: reads results/BENCH_<name>.json
                  trajectories, fits a median ± k*MAD noise band per metric
                  over the trailing window — defaults window 20, min-runs
                  5, k 6.0, rel-floor 0.10 — and exits 1 with a one-line
                  REGRESSION diagnosis when the newest run breaches it;
                  histories shorter than min-runs always pass)
  sgtool divergence [--dims D] [--level L] [--function NAME] [--points K]
                    [--machine NAME] [--top N] [--out REPORT.json]
                  (model-vs-measured: times each hierarchize/evaluate
                  level group, runs the same shape through the sg-machine
                  cache simulator, and prints per-group predicted DRAM
                  lines vs measured ns with a correlation coefficient and
                  the top-N groups the model explains worst; defaults
                  d=5 level 6, 2048 points, machine nehalem
                  (nehalem | opteron | opteron-aggregate | tiny), top 3)
  sgtool combine run --dims D --level L [--function NAME]
                     [--policy recompute|reweight] [--spare-diagonals S]
                     [--queries K] [--out MANIFEST] [--json PATH] [--bench]
                  (fault-tolerant combination-technique executor: samples
                  every component grid as an independent task, checkpoints
                  the set through an SGCM manifest, recovers the run from
                  the manifest into one folded compact grid, and
                  cross-validates it against the direct sparse grid to 1e-9;
                  its fault injection is `sgtool fuzz --campaign
                  combination`; --bench appends results/BENCH_combine.json)
  sgtool combine verify MANIFEST
                  (per-component integrity table of an SGCM component-set
                  manifest; exit 0 intact, 3 damaged)
  sgtool fuzz [--budget-cases N] [--budget-secs S] [--seed-base HEX]
              [--op NAME[,NAME...]] [--shape DxN] [--sched-interleavings K]
              [--campaign NAME[:CLASS][,...] --faults N]
              [--inject gp2idx-off-by-one] [--json PATH]
                  (differential fuzzing: compact vs recursive vs dense
                  oracle, plus the sg-par virtual-scheduler invariant
                  sweep; SG_PROP_SEED overrides the seed base; any
                  divergence is shrunk to a minimal seeded reproducer;
                  --inject self-tests the harness and fails unless the
                  fault is caught; defaults: 10000 cases, 200
                  interleavings per pool config;
                  --campaign injects N seeded faults per campaign from the
                  seed base, rotating its fault classes (or only CLASS),
                  and asserts detect-or-recover on each: snapshot (torn
                  writes, truncation, bit flips, ENOSPC, header/footer
                  corruption, lost dirents in SGC2 snapshots),
                  combination (the same in SGCM manifests plus task
                  panics and dropped components, under both recovery
                  policies), serve-chaos (network faults against a live
                  loopback sgd); each violation prints a corpus line
                  `<campaign> <class> <seed> [<fixture seed>]` for
                  tests/corpus/campaign_seeds.txt)

exit codes:
  0 success   2 usage error   3 corrupt or degraded data   4 I/O failure
  1 anything else

global flags:
  --metrics-json PATH   after a successful command, write the telemetry
                        snapshot (span timings, call counters, histogram
                        percentiles, bytes moved, region imbalance,
                        provenance) to PATH as JSON

environment:
  SG_KERNEL             compute-kernel selection: auto (default), scalar,
                        avx2, neon; unknown or unavailable values exit 2;
                        the dispatched kernel is stamped into provenance
  SG_PAR_THREADS        worker-thread count for the parallel sweeps
  SG_FLIGHT_CAPACITY    ring capacity (frames) of the flight recorder
  SG_GATE_BASELINE      when set, `sgtool gate` reports regressions but
                        exits 0 — acknowledge an intentional perf change
                        while the trajectory re-baselines";

/// Flags each command accepts besides the global `--metrics-json`, or
/// `None` when `cmd` is not a command.
fn known_flags(cmd: &str, args: &[String]) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "compress" => &["--dims", "--level", "--function", "--out"],
        "checkpoint" => &["--dims", "--level", "--function", "--out", "--provenance"],
        "restore" => &["--out", "--function"],
        "verify" | "info" | "eval" | "integrate" => &[],
        "slice" => &["--axes", "--at", "--width"],
        "render" => &["--axes", "--at", "--width", "--out"],
        "profile" => &[
            "--from",
            "--dims",
            "--level",
            "--function",
            "--reps",
            "--points",
            "--top",
            "--out",
        ],
        "flight" => &[
            "--dims",
            "--level",
            "--function",
            "--reps",
            "--points",
            "--interval-ms",
            "--out",
        ],
        "gate" => &[
            "--results",
            "--window",
            "--min-runs",
            "--k",
            "--rel-floor",
            "--json",
        ],
        "divergence" => &[
            "--dims",
            "--level",
            "--function",
            "--points",
            "--machine",
            "--top",
            "--out",
        ],
        "combine" if args.first().is_some_and(|a| a == "run") => &[
            "--dims",
            "--level",
            "--function",
            "--policy",
            "--spare-diagonals",
            "--queries",
            "--out",
            "--json",
            "--bench",
        ],
        "combine" => &[],
        "fuzz" => &[
            "--budget-cases",
            "--budget-secs",
            "--seed-base",
            "--op",
            "--shape",
            "--sched-interleavings",
            "--campaign",
            "--faults",
            "--inject",
            "--json",
        ],
        _ => return None,
    })
}

/// Reject a `--flag` the command does not know, so a typo or a retired
/// flag fails loudly instead of being silently ignored.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), CliError> {
    let Some(known) = known_flags(cmd, args) else {
        return Ok(());
    };
    match args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--metrics-json" && !known.contains(&a.as_str()))
    {
        Some(unknown) => Err(CliError::usage(format!(
            "unknown flag {unknown} for `sgtool {cmd}` (see `sgtool --help`)"
        ))),
        None => Ok(()),
    }
}

fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|p| args.get(p + 1).cloned())
}

/// Arguments that are neither flags nor flag values (so a flag's value is
/// never mistaken for the grid file or an evaluation point).
fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if a.starts_with("--") {
            // Consume the flag's value, if any.
            if iter.peek().is_some_and(|n| !n.starts_with("--")) {
                iter.next();
            }
        } else {
            out.push(a);
        }
    }
    out
}

fn parse_point(s: &str, d: usize) -> Result<Vec<f64>, String> {
    let v: Result<Vec<f64>, _> = s.split(',').map(str::parse).collect();
    let v = v.map_err(|e| format!("bad coordinate list {s:?}: {e}"))?;
    if v.len() != d {
        return Err(format!(
            "point {s:?} has {} coordinates, grid has {d}",
            v.len()
        ));
    }
    if v.iter().any(|&c| !(0.0..=1.0).contains(&c)) {
        return Err(format!("point {s:?} leaves the unit domain"));
    }
    Ok(v)
}

/// Read a grid file, sniffing the format: `SGC2` snapshots decode
/// through the strict sectioned reader straight from the file (a damaged
/// one is a corrupt-data error enumerating the lost groups), anything
/// else through the legacy `SGC1` codec.
fn load(args: &[String]) -> Result<CompactGrid<f64>, CliError> {
    let path = *positional(args)
        .first()
        .ok_or_else(|| CliError::usage("missing grid file argument"))?;
    let file = open(path)?;
    let mut magic = [0u8; 4];
    if file.read_exact_at(&mut magic, 0).is_ok() && magic == sg_io::SNAP_MAGIC {
        sg_io::recover_snapshot_from(&file)
            .and_then(|r| r.grid.into_complete())
            .map_err(|e| CliError::corrupt(format!("cannot read snapshot {path}: {e}")))
    } else {
        let blob =
            std::fs::read(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
        sg_io::decode(&blob).map_err(|e| CliError::corrupt(format!("cannot decode {path}: {e}")))
    }
}

/// Open a file for reading; failing to is an I/O error.
fn open(path: &str) -> Result<std::fs::File, CliError> {
    std::fs::File::open(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))
}

/// Shared by compress/checkpoint: build a hierarchized grid from
/// `--dims/--level/--function`, with a preflight point-count check so an
/// overflowing shape is a diagnostic, not a panic.
fn build_grid(args: &[String]) -> Result<(CompactGrid<f64>, &'static TestFunction), CliError> {
    let d: usize = flag(args, "--dims")
        .ok_or_else(|| CliError::usage("missing --dims"))?
        .parse()
        .map_err(|e| CliError::usage(format!("bad --dims: {e}")))?;
    let level: usize = flag(args, "--level")
        .ok_or_else(|| CliError::usage("missing --level"))?
        .parse()
        .map_err(|e| CliError::usage(format!("bad --level: {e}")))?;
    let fname = flag(args, "--function").unwrap_or_else(|| "parabola".into());
    let f = TestFunction::ALL
        .iter()
        .find(|f| f.name() == fname)
        .ok_or_else(|| CliError::usage(format!("unknown function {fname:?}")))?;
    let spec =
        GridSpec::try_new(d, level).map_err(|e| CliError::usage(format!("bad grid shape: {e}")))?;
    spec.try_num_points()
        .map_err(|e| CliError::usage(format!("grid too large: {e}")))?;
    let mut grid = CompactGrid::try_from_fn_parallel(spec, |x| f.eval(x))
        .map_err(|e| CliError::usage(format!("cannot build grid: {e}")))?;
    hierarchize_parallel(&mut grid);
    Ok((grid, f))
}

fn cmd_compress(args: &[String]) -> Result<(), CliError> {
    let out = flag(args, "--out").ok_or_else(|| CliError::usage("missing --out"))?;
    let (grid, f) = build_grid(args)?;
    let blob = sg_io::encode(&grid);
    std::fs::write(&out, &blob).map_err(|e| CliError::io(format!("cannot write {out}: {e}")))?;
    println!(
        "compressed {} ({} points, d={}, level {}) -> {out} ({} bytes)",
        f.name(),
        grid.len(),
        grid.spec().dim(),
        grid.spec().levels(),
        blob.len()
    );
    Ok(())
}

fn cmd_checkpoint(args: &[String]) -> Result<(), CliError> {
    let out = flag(args, "--out").ok_or_else(|| CliError::usage("missing --out"))?;
    let provenance = flag(args, "--provenance")
        .unwrap_or_else(|| format!("sgtool checkpoint v{}", env!("CARGO_PKG_VERSION")));
    let (grid, origin) = if positional(args).is_empty() {
        let (grid, f) = build_grid(args)?;
        (grid, f.name().to_string())
    } else {
        let grid = load(args)?;
        (grid, positional(args)[0].clone())
    };
    sg_io::write_snapshot_file(&grid, &out, &provenance).map_err(|e| match e {
        SgError::Io(_) => CliError::io(format!("cannot write {out}: {e}")),
        other => CliError::from(format!("cannot checkpoint: {other}")),
    })?;
    println!(
        "checkpointed {origin} ({} points, d={}, level {}) -> {out} ({} sections)",
        grid.len(),
        grid.spec().dim(),
        grid.spec().levels(),
        grid.spec().levels(),
    );
    Ok(())
}

fn cmd_restore(args: &[String]) -> Result<(), CliError> {
    let path = *positional(args)
        .first()
        .ok_or_else(|| CliError::usage("missing snapshot file argument"))?;
    let out = flag(args, "--out").ok_or_else(|| CliError::usage("missing --out"))?;
    let recovery = sg_io::recover_snapshot_from::<f64>(&open(path)?)
        .map_err(|e| CliError::corrupt(format!("cannot recover {path}: {e}")))?;
    if recovery.used_footer {
        println!("header corrupt; identity recovered from the footer copy");
    }
    let intact = recovery
        .sections
        .iter()
        .filter(|s| s.status == sg_io::SectionStatus::Intact)
        .count();
    println!(
        "{path}: {intact}/{} sections intact (written by {:?})",
        recovery.sections.len(),
        recovery.info.provenance
    );
    let grid = if recovery.grid.is_complete() {
        recovery.grid.into_complete().expect("complete")
    } else {
        let lost = recovery.grid.lost_groups().to_vec();
        let Some(fname) = flag(args, "--function") else {
            return Err(CliError::corrupt(format!(
                "level groups {lost:?} lost; pass --function NAME to rebuild them \
                 by re-sampling, or accept the loss with `sgtool verify`"
            )));
        };
        let f = TestFunction::ALL
            .iter()
            .find(|f| f.name() == fname)
            .ok_or_else(|| CliError::usage(format!("unknown function {fname:?}")))?;
        println!("rebuilding lost level groups {lost:?} from {fname}");
        recovery.grid.repair_with(|x| f.eval(x))
    };
    let blob = sg_io::encode(&grid);
    std::fs::write(&out, &blob).map_err(|e| CliError::io(format!("cannot write {out}: {e}")))?;
    println!(
        "restored {} points (d={}, level {}) -> {out}",
        grid.len(),
        grid.spec().dim(),
        grid.spec().levels()
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let path = *positional(args)
        .first()
        .ok_or_else(|| CliError::usage("missing snapshot file argument"))?;
    let (info, sections, used_footer) = sg_io::verify_snapshot(&open(path)?)
        .map_err(|e| CliError::corrupt(format!("cannot verify {path}: {e}")))?;
    println!(
        "{path}: SGC2 v{} d={} level {} ({} points, {}, provenance {:?})",
        info.version,
        info.dim,
        info.levels,
        info.num_points,
        if info.value_type == 0 { "f32" } else { "f64" },
        info.provenance
    );
    if used_footer {
        println!("warning: leading header corrupt, identity read from footer");
    }
    println!("{:>7} {:>12} {:>10}  status", "section", "offset", "points");
    let mut lost = Vec::new();
    for s in &sections {
        let status = match s.status {
            sg_io::SectionStatus::Intact => "intact",
            sg_io::SectionStatus::Truncated => "TRUNCATED",
            sg_io::SectionStatus::BadHeader => "BAD HEADER",
            sg_io::SectionStatus::ChecksumMismatch => "CHECKSUM MISMATCH",
        };
        println!("{:>7} {:>12} {:>10}  {status}", s.group, s.offset, s.points);
        if s.status != sg_io::SectionStatus::Intact {
            lost.push(s.group);
        }
    }
    if lost.is_empty() {
        println!("all {} sections intact", sections.len());
        Ok(())
    } else {
        Err(CliError::corrupt(format!(
            "{}/{} sections damaged (level groups {lost:?}); \
             `sgtool restore --function NAME` can rebuild them",
            lost.len(),
            sections.len()
        )))
    }
}

fn cmd_combine(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_combine_run(&args[1..]),
        Some("verify") => cmd_combine_verify(&args[1..]),
        Some(other) => Err(CliError::usage(format!(
            "unknown combine subcommand: {other} (expected run or verify)"
        ))),
        None => Err(CliError::usage(
            "missing combine subcommand (expected run or verify)",
        )),
    }
}

fn cmd_combine_run(args: &[String]) -> Result<(), CliError> {
    use sg_combination::{CombinationExecutor, ExecutorConfig, RecoveryPolicy, RunOutcome};

    let d: usize = flag(args, "--dims")
        .ok_or_else(|| CliError::usage("missing --dims"))?
        .parse()
        .map_err(|e| CliError::usage(format!("bad --dims: {e}")))?;
    let level: usize = flag(args, "--level")
        .ok_or_else(|| CliError::usage("missing --level"))?
        .parse()
        .map_err(|e| CliError::usage(format!("bad --level: {e}")))?;
    let fname = flag(args, "--function").unwrap_or_else(|| "parabola".into());
    let f = TestFunction::ALL
        .iter()
        .find(|f| f.name() == fname)
        .ok_or_else(|| CliError::usage(format!("unknown function {fname:?}")))?;
    let policy = match flag(args, "--policy").as_deref() {
        None | Some("recompute") => RecoveryPolicy::Recompute,
        Some("reweight") => RecoveryPolicy::Reweight,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown --policy {other:?} (expected recompute or reweight)"
            )))
        }
    };
    let spare_diagonals: usize = match flag(args, "--spare-diagonals") {
        Some(s) => s
            .parse()
            .map_err(|e| CliError::usage(format!("bad --spare-diagonals: {e}")))?,
        None => 1,
    };
    let queries: usize = match flag(args, "--queries") {
        Some(s) => s
            .parse()
            .map_err(|e| CliError::usage(format!("bad --queries: {e}")))?,
        None => 256,
    };
    let spec =
        GridSpec::try_new(d, level).map_err(|e| CliError::usage(format!("bad grid shape: {e}")))?;
    spec.try_num_points()
        .map_err(|e| CliError::usage(format!("grid too large: {e}")))?;

    let exec = CombinationExecutor::with_config(
        spec,
        ExecutorConfig {
            policy,
            spare_diagonals,
            provenance: format!("sgtool combine v{}", env!("CARGO_PKG_VERSION")),
        },
    );

    // Compute → checkpoint → recover, keeping the manifest bytes so the
    // published artifact is exactly what the run was recovered from.
    let t0 = std::time::Instant::now();
    let components = exec
        .compute_components(|x| f.eval(x))
        .map_err(|e| CliError::from(format!("component sampling failed: {e}")))?;
    let compute_secs = t0.elapsed().as_secs_f64();
    let mut sink = sg_io::MemorySink::new();
    exec.checkpoint(&components, &mut sink, None)
        .map_err(|e| CliError::from(format!("cannot checkpoint components: {e}")))?;
    let bytes = sink
        .into_published()
        .ok_or_else(|| CliError::io("checkpoint did not commit".to_string()))?;
    if let Some(out) = flag(args, "--out") {
        std::fs::write(&out, &bytes)
            .map_err(|e| CliError::io(format!("cannot write {out}: {e}")))?;
        println!(
            "manifest: {out} ({} bytes, {} components)",
            bytes.len(),
            components.len()
        );
    }
    let t1 = std::time::Instant::now();
    let run = exec
        .recover_run(&bytes, |x| f.eval(x))
        .map_err(|e| match e {
            SgError::Corrupt(_) | SgError::Degraded { .. } => {
                CliError::corrupt(format!("cannot recover run: {e}"))
            }
            SgError::Io(_) => CliError::io(format!("cannot recover run: {e}")),
            other => CliError::from(format!("cannot recover run: {other}")),
        })?;
    let recover_secs = t1.elapsed().as_secs_f64();
    println!(
        "combine run: {} d={d} level {level} policy={} — {} tasks ({} spare), outcome {:?}",
        f.name(),
        policy.name(),
        run.tasks,
        run.spares,
        run.outcome
    );

    // Cross-validate the folded grid against the direct sparse grid
    // interpolant: the combination identity is exact for interpolation,
    // so the two must agree to 1e-9 (relative to the surplus scale) at
    // every probe — and a clean run's fold is bitwise the direct grid.
    let t2 = std::time::Instant::now();
    let mut direct = CompactGrid::try_from_fn_parallel(spec, |x| f.eval(x))
        .map_err(|e| CliError::usage(format!("cannot build direct grid: {e}")))?;
    hierarchize_parallel(&mut direct);
    let scale = direct.values().iter().fold(1.0f64, |m, &v| m.max(v.abs()));
    let xs = sg_core::functions::halton_points(d, queries);
    let mut max_diff = 0.0f64;
    for x in xs.chunks_exact(d) {
        max_diff = max_diff.max((evaluate(&run.grid, x) - evaluate(&direct, x)).abs());
    }
    let crossval_secs = t2.elapsed().as_secs_f64();
    let tolerance = 1e-9 * scale;
    let cross_validated = max_diff <= tolerance;
    println!(
        "cross-validation: max |combination − direct| = {max_diff:.3e} over {queries} points \
         (tolerance {tolerance:.3e}) — {}",
        if cross_validated { "ok" } else { "FAILED" }
    );

    if args.iter().any(|a| a == "--bench") {
        let traj = vec![
            ("compute_s".to_string(), compute_secs),
            ("recover_s".to_string(), recover_secs),
            ("crossval_s".to_string(), crossval_secs),
        ];
        if let Err(e) = sg_bench::trajectory::record_run_scalars("combine", &traj) {
            eprintln!("warning: could not record BENCH_combine.json: {e}");
        }
    }

    if let Some(path) = flag(args, "--json") {
        let mut doc = sg_json::json!({
            "dims": d as f64,
            "level": level as f64,
            "function": f.name(),
            "policy": policy.name(),
            "spare_diagonals": spare_diagonals as f64,
            "tasks": run.tasks as f64,
            "spares": run.spares as f64,
            "outcome": match &run.outcome {
                RunOutcome::Clean => "clean",
                RunOutcome::Recomputed { .. } => "recomputed",
                RunOutcome::Reweighted { .. } => "reweighted",
            },
            "lost_components": run.lost_components.iter().map(|&k| k as f64).collect::<Vec<_>>(),
            "manifest_bytes": bytes.len() as f64,
            "queries": queries as f64,
            "max_abs_diff": max_diff,
            "tolerance": tolerance,
            "cross_validated": cross_validated,
            "compute_secs": compute_secs,
            "recover_secs": recover_secs,
            "crossval_secs": crossval_secs
        });
        doc["provenance"] = sg_telemetry::provenance(&["telemetry"]);
        std::fs::write(&path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| CliError::io(format!("cannot write combine report to {path}: {e}")))?;
        println!("report: {path}");
    }

    if !cross_validated {
        return Err(CliError::from(format!(
            "combination deviates from the direct interpolant by {max_diff:.3e} \
             (tolerance {tolerance:.3e})"
        )));
    }
    Ok(())
}

fn cmd_combine_verify(args: &[String]) -> Result<(), CliError> {
    let path = *positional(args)
        .first()
        .ok_or_else(|| CliError::usage("missing manifest file argument"))?;
    let bytes =
        std::fs::read(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    let (info, sections, used_footer) = sg_io::verify_component_set(&bytes)
        .map_err(|e| CliError::corrupt(format!("cannot verify {path}: {e}")))?;
    println!(
        "{path}: SGCM v{} d={} ({} components, {}, provenance {:?})",
        info.version,
        info.dim,
        info.components.len(),
        if info.value_type == 0 { "f32" } else { "f64" },
        info.provenance
    );
    if used_footer {
        println!("warning: leading header corrupt, identity read from footer");
    }
    println!(
        "{:>9} {:>5} {:>14} {:>10} {:>12}  status",
        "component", "coef", "levels", "points", "offset"
    );
    let mut lost = Vec::new();
    for (s, meta) in sections.iter().zip(&info.components) {
        let status = match s.status {
            sg_io::SectionStatus::Intact => "intact",
            sg_io::SectionStatus::Truncated => "TRUNCATED",
            sg_io::SectionStatus::BadHeader => "BAD HEADER",
            sg_io::SectionStatus::ChecksumMismatch => "CHECKSUM MISMATCH",
        };
        let levels: Vec<String> = meta.levels.iter().map(|l| l.to_string()).collect();
        println!(
            "{:>9} {:>5} {:>14} {:>10} {:>12}  {status}",
            s.group,
            meta.coefficient,
            levels.join(","),
            s.points,
            s.offset
        );
        if s.status != sg_io::SectionStatus::Intact {
            lost.push(s.group);
        }
    }
    if lost.is_empty() {
        println!("all {} components intact", sections.len());
        Ok(())
    } else {
        Err(CliError::corrupt(format!(
            "{}/{} components damaged ({lost:?}); `sgtool combine run` with the recompute \
             policy rebuilds them exactly, reweight survives without re-sampling",
            lost.len(),
            sections.len()
        )))
    }
}

fn cmd_info(args: &[String]) -> Result<(), CliError> {
    let grid = load(args)?;
    let spec = grid.spec();
    println!("dimensionality : {}", spec.dim());
    println!("level          : {}", spec.levels());
    println!("points         : {}", grid.len());
    println!("memory         : {} bytes", grid.memory_bytes());
    let max = grid.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    println!("max |surplus|  : {max:.6e}");
    println!("integral       : {:.6e}", integrate(&grid));
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), CliError> {
    let grid = load(args)?;
    let d = grid.spec().dim();
    // First positional argument is the grid file; the rest are points
    // (comma-separated coordinates; a bare number for 1-d grids).
    let points = &positional(args)[1..];
    if points.is_empty() {
        return Err("no evaluation points given".into());
    }
    for p in points {
        let x = parse_point(p, d)?;
        println!("u({p}) = {:.10}", evaluate(&grid, &x));
    }
    Ok(())
}

fn cmd_integrate(args: &[String]) -> Result<(), CliError> {
    let grid = load(args)?;
    println!("{:.12}", integrate(&grid));
    Ok(())
}

/// Decompress a 2-d slice through the grid: returns (values, width,
/// height, axes, anchor, lo, hi).
#[allow(clippy::type_complexity)]
fn decompress_slice(
    args: &[String],
    aspect: f64,
) -> Result<(Vec<f64>, usize, usize, (usize, usize), Vec<f64>, f64, f64), CliError> {
    let grid = load(args)?;
    let d = grid.spec().dim();
    let axes = flag(args, "--axes").unwrap_or_else(|| "0,1".into());
    let (a, b) = axes
        .split_once(',')
        .ok_or("--axes expects two comma-separated indices")?;
    let (a, b): (usize, usize) = (
        a.parse().map_err(|e| format!("bad axis: {e}"))?,
        b.parse().map_err(|e| format!("bad axis: {e}"))?,
    );
    if a >= d || b >= d || a == b {
        return Err(CliError::usage(format!(
            "axes {a},{b} invalid for a {d}-dimensional grid"
        )));
    }
    let at = flag(args, "--at")
        .map(|s| parse_point(&s, d))
        .transpose()?
        .unwrap_or_else(|| vec![0.5; d]);
    let width: usize = flag(args, "--width")
        .map(|s| s.parse().map_err(|e| format!("bad --width: {e}")))
        .transpose()?
        .unwrap_or(64);
    if width < 2 {
        return Err("--width must be at least 2".into());
    }
    let height = ((width as f64 * aspect) as usize).max(2);

    let mut pixels = Vec::with_capacity(width * height * d);
    for row in 0..height {
        for col in 0..width {
            let mut x = at.clone();
            x[a] = col as f64 / (width - 1) as f64;
            x[b] = 1.0 - row as f64 / (height - 1) as f64;
            pixels.extend_from_slice(&x);
        }
    }
    let values = evaluate_batch_parallel(&grid, &pixels, BLOCK);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    Ok((values, width, height, (a, b), at, lo, hi))
}

fn cmd_slice(args: &[String]) -> Result<(), CliError> {
    let (values, width, height, (a, b), at, lo, hi) = decompress_slice(args, 0.5)?;
    let range = (hi - lo).max(1e-12);
    const SHADES: &[u8] = b" .:-=+*#%@";
    for row in 0..height {
        let line: String = (0..width)
            .map(|col| {
                let v = (values[row * width + col] - lo) / range;
                SHADES[((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1)]
                    as char
            })
            .collect();
        println!("{line}");
    }
    println!("axes x={a} y={b}, slice at {at:?}, range [{lo:.3e}, {hi:.3e}]");
    Ok(())
}

/// Perceptually-ordered 5-stop colour ramp (dark blue → teal → green →
/// yellow), linearly interpolated.
fn colormap(v: f64) -> [u8; 3] {
    const STOPS: [[f64; 3]; 5] = [
        [68.0, 1.0, 84.0],
        [59.0, 82.0, 139.0],
        [33.0, 145.0, 140.0],
        [94.0, 201.0, 98.0],
        [253.0, 231.0, 37.0],
    ];
    let pos = v.clamp(0.0, 1.0) * (STOPS.len() - 1) as f64;
    let k = (pos as usize).min(STOPS.len() - 2);
    let w = pos - k as f64;
    let mut rgb = [0u8; 3];
    for c in 0..3 {
        rgb[c] = (STOPS[k][c] + w * (STOPS[k + 1][c] - STOPS[k][c])).round() as u8;
    }
    rgb
}

/// Profile a hierarchize/evaluate workload with tracing enabled: emit a
/// Chrome Trace Event JSON (loadable in `chrome://tracing` / Perfetto)
/// and print a human-readable summary — top-k spans by total time,
/// histogram percentiles, and the per-level-group load-imbalance report
/// that diagnoses the paper's Fig. 11 speedup flattening.
fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    if let Some(path) = flag(args, "--from") {
        return summarize_trace(args, &path);
    }
    let parse_flag = |key: &str, default: usize| -> Result<usize, String> {
        flag(args, key)
            .map(|s| s.parse().map_err(|e| format!("bad {key}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let d = parse_flag("--dims", 10)?;
    let level = parse_flag("--level", 7)?;
    let reps = parse_flag("--reps", 1)?.max(1);
    let n_points = parse_flag("--points", 4096)?;
    let top = parse_flag("--top", 10)?.max(1);
    let out = flag(args, "--out").unwrap_or_else(|| "profile_trace.json".into());
    let fname = flag(args, "--function").unwrap_or_else(|| "gaussian".into());
    let f = TestFunction::ALL
        .iter()
        .find(|f| f.name() == fname)
        .ok_or_else(|| format!("unknown function {fname:?}"))?;
    let spec = GridSpec::try_new(d, level).map_err(|e| e.to_string())?;

    // Deterministic quasi-random evaluation points (Weyl sequence).
    let mut xs = Vec::with_capacity(n_points * d);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..n_points * d {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        xs.push((state >> 11) as f64 / (1u64 << 53) as f64);
    }

    // Everything inside this window lands in the trace.
    sg_telemetry::trace::enable();
    let t_all = std::time::Instant::now();
    let mut grid = CompactGrid::from_fn_parallel(spec, |x| f.eval(x));
    for _ in 0..reps {
        hierarchize_parallel(&mut grid);
        let _values = evaluate_batch_parallel(&grid, &xs, BLOCK);
        dehierarchize_parallel(&mut grid);
    }
    hierarchize_parallel(&mut grid);
    let wall = t_all.elapsed();
    sg_telemetry::trace::disable();

    let events = sg_telemetry::trace::take_events();
    let dropped = sg_telemetry::trace::dropped();
    let regions = sg_telemetry::regions::report();
    let report = sg_telemetry::snapshot();

    // Trace file: standard traceEvents plus an "sg" metadata key that
    // viewers ignore but tooling can read back.
    let mut doc = sg_telemetry::trace::chrome_trace(&events);
    let mut sg = sg_json::json!({ "dropped_events": dropped as f64 });
    sg["provenance"] = sg_telemetry::provenance(&["telemetry"]);
    sg["regions"] = sg_telemetry::regions::to_json(&regions);
    sg["workload"] = sg_json::json!({
        "dims": d as f64, "level": level as f64, "points": grid.len() as f64,
        "function": f.name(), "reps": reps as f64, "eval_points": n_points as f64
    });
    doc["sg"] = sg;
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("cannot write trace to {out}: {e}"))?;

    println!(
        "profiled d={d} level={level} ({} points, {} reps) in {:.1} ms on {} threads",
        grid.len(),
        reps,
        wall.as_secs_f64() * 1e3,
        sg_par::num_threads()
    );
    println!(
        "trace: {out} ({} events{}) — open in chrome://tracing or ui.perfetto.dev",
        events.len(),
        if dropped > 0 {
            format!(", {dropped} dropped")
        } else {
            String::new()
        }
    );

    println!("\ntop {top} spans by total time:");
    let mut spans = report.spans.clone();
    spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    println!(
        "  {:<38} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "mean_us"
    );
    for s in spans.iter().take(top) {
        println!(
            "  {:<38} {:>8} {:>12.3} {:>12.2}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.total_ns as f64 / s.count.max(1) as f64 / 1e3
        );
    }

    println!("\nlatency histograms (ns):");
    println!(
        "  {:<38} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50", "p90", "p99", "max"
    );
    for h in &report.hists {
        println!(
            "  {:<38} {:>8} {:>10} {:>10} {:>10} {:>10}",
            h.name,
            h.count,
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
            h.max
        );
    }

    println!("\nper-region load imbalance (busy/wait per worker, ms; chunks claimed per worker):");
    for r in &regions {
        let fmt_ms = |ns: &[u64]| -> String {
            ns.iter()
                .map(|&v| format!("{:.2}", v as f64 / 1e6))
                .collect::<Vec<_>>()
                .join("/")
        };
        let fmt_n = |ns: &[u64]| -> String {
            ns.iter()
                .map(|&v| v.to_string())
                .collect::<Vec<_>>()
                .join("/")
        };
        println!(
            "  {:<38} x{:<5} busy [{}] wait [{}] chunks [{}] imbalance {:.2}",
            r.key(),
            r.count,
            fmt_ms(&r.busy_ns),
            fmt_ms(&r.wait_ns),
            fmt_n(&r.chunks),
            r.imbalance()
        );
    }
    Ok(())
}

/// `sgtool profile --from`: summarize an existing Chrome-trace file
/// instead of running a workload. A trace that does not parse or lacks
/// the `traceEvents` array is a *usage* error — exit 2 with one line —
/// so scripts piping stale or truncated traces fail loudly and cheaply.
fn summarize_trace(args: &[String], path: &str) -> Result<(), CliError> {
    let top: usize = flag(args, "--top")
        .map(|s| s.parse().map_err(|e| format!("bad --top: {e}")))
        .transpose()?
        .unwrap_or(10)
        .max(1);
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read trace {path}: {e}")))?;
    let doc = sg_json::parse(&text)
        .map_err(|e| CliError::usage(format!("malformed trace {path}: {e}")))?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or_else(|| CliError::usage(format!("malformed trace {path}: no traceEvents array")))?;

    // Sum complete ("X") event durations by name; everything else is
    // metadata we skip.
    let mut by_name: Vec<(String, u64, f64)> = Vec::new();
    let mut spans = 0usize;
    for ev in events {
        if ev["ph"].as_str() != Some("X") {
            continue;
        }
        let (Some(name), Some(dur)) = (ev["name"].as_str(), ev["dur"].as_f64()) else {
            return Err(CliError::usage(format!(
                "malformed trace {path}: event without name/dur"
            )));
        };
        spans += 1;
        match by_name.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += dur;
            }
            None => by_name.push((name.to_string(), 1, dur)),
        }
    }
    println!("{path}: {} events ({spans} spans)", events.len());
    by_name.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("  {:<38} {:>8} {:>12}", "span", "count", "total_ms");
    for (name, count, total_us) in by_name.iter().take(top) {
        println!("  {name:<38} {count:>8} {:>12.3}", total_us / 1e3);
    }
    let sg = &doc["sg"];
    if !sg.is_null() {
        if let Some(dropped) = sg["dropped_events"].as_f64() {
            if dropped > 0.0 {
                println!("  ({dropped} events dropped at capture time)");
            }
        }
        let w = &sg["workload"];
        if !w.is_null() {
            println!(
                "workload: d={} level={} {} ({} reps, {} eval points)",
                w["dims"].as_f64().unwrap_or(0.0),
                w["level"].as_f64().unwrap_or(0.0),
                w["function"].as_str().unwrap_or("?"),
                w["reps"].as_f64().unwrap_or(0.0),
                w["eval_points"].as_f64().unwrap_or(0.0),
            );
        }
    }
    Ok(())
}

/// Run the profile workload with the flight recorder sampling the full
/// instrument registry on a fixed cadence, then export the time-series.
fn cmd_flight(args: &[String]) -> Result<(), CliError> {
    let parse_flag = |key: &str, default: usize| -> Result<usize, String> {
        flag(args, key)
            .map(|s| s.parse().map_err(|e| format!("bad {key}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let d = parse_flag("--dims", 8)?;
    let level = parse_flag("--level", 6)?;
    let reps = parse_flag("--reps", 4)?.max(1);
    let n_points = parse_flag("--points", 4096)?;
    let interval_ms = parse_flag("--interval-ms", 5)?.max(1);
    let out = flag(args, "--out").unwrap_or_else(|| "flight.json".into());
    let fname = flag(args, "--function").unwrap_or_else(|| "gaussian".into());
    let f = TestFunction::ALL
        .iter()
        .find(|f| f.name() == fname)
        .ok_or_else(|| CliError::usage(format!("unknown function {fname:?}")))?;
    let spec =
        GridSpec::try_new(d, level).map_err(|e| CliError::usage(format!("bad grid shape: {e}")))?;

    let xs = halton_points(d, n_points);
    let sampler = sg_telemetry::timeseries::Sampler::start(std::time::Duration::from_millis(
        interval_ms as u64,
    ));
    let t_all = std::time::Instant::now();
    let mut grid = CompactGrid::from_fn_parallel(spec, |x| f.eval(x));
    for _ in 0..reps {
        hierarchize_parallel(&mut grid);
        let _values = evaluate_batch_parallel(&grid, &xs, BLOCK);
        dehierarchize_parallel(&mut grid);
    }
    let wall = t_all.elapsed();
    drop(sampler); // final frame, then the sampling thread joins

    let series = sg_telemetry::Report::timeseries();
    let mut doc = series.to_json();
    doc["provenance"] = sg_telemetry::provenance(&["telemetry"]);
    doc["workload"] = sg_json::json!({
        "dims": d as f64, "level": level as f64, "points": grid.len() as f64,
        "function": f.name(), "reps": reps as f64, "eval_points": n_points as f64,
        "interval_ms": interval_ms as f64, "wall_s": wall.as_secs_f64()
    });
    std::fs::write(&out, format!("{}\n", doc.to_string_pretty()))
        .map_err(|e| CliError::io(format!("cannot write flight data to {out}: {e}")))?;
    println!(
        "flight: {} frames x {} columns over {:.1} ms (cadence {interval_ms} ms, \
         {} recorded, {} dropped) -> {out}",
        series.frames.len(),
        series.schema.len(),
        wall.as_secs_f64() * 1e3,
        series.recorded,
        series.dropped,
    );
    Ok(())
}

/// Perf-regression sentry over `results/BENCH_<name>.json` trajectories.
fn cmd_gate(args: &[String]) -> Result<(), CliError> {
    let mut cfg = sg_bench::gate::GateConfig::default();
    if let Some(w) = flag(args, "--window") {
        cfg.window = w.parse().map_err(|e| format!("bad --window: {e}"))?;
    }
    if let Some(m) = flag(args, "--min-runs") {
        cfg.min_runs = m.parse().map_err(|e| format!("bad --min-runs: {e}"))?;
    }
    if let Some(k) = flag(args, "--k") {
        cfg.k = k.parse().map_err(|e| format!("bad --k: {e}"))?;
    }
    if let Some(r) = flag(args, "--rel-floor") {
        cfg.rel_floor = r.parse().map_err(|e| format!("bad --rel-floor: {e}"))?;
    }
    let results = flag(args, "--results").unwrap_or_else(|| "results".into());
    let names = positional(args);
    if names.is_empty() {
        return Err(CliError::usage(
            "missing experiment name(s), e.g. `sgtool gate fig9_hierarchize`",
        ));
    }

    let baseline_override = std::env::var("SG_GATE_BASELINE").is_ok_and(|v| !v.is_empty());
    let mut reports = Vec::new();
    let mut failed = 0usize;
    for name in &names {
        let path = std::path::Path::new(&results).join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::io(format!("cannot read {}: {e}", path.display())))?;
        let report = sg_bench::gate::analyze_trajectory_text(&text, &cfg)
            .map_err(|e| CliError::corrupt(format!("bad trajectory {}: {e}", path.display())))?;
        println!("gate {name} ({} runs):", report.runs);
        for m in &report.metrics {
            println!("  {}", m.diagnosis());
        }
        if !report.passed() {
            failed += 1;
        }
        reports.push(report);
    }

    if let Some(path) = flag(args, "--json") {
        let mut doc = sg_json::json!({
            "passed": failed == 0,
            "baseline_override": baseline_override,
            "experiments": reports.iter().map(|r| r.to_json()).collect::<Vec<_>>()
        });
        doc["provenance"] = sg_telemetry::provenance(&["telemetry"]);
        std::fs::write(&path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| CliError::io(format!("cannot write gate report to {path}: {e}")))?;
    }

    if failed > 0 {
        let total: usize = reports.iter().map(|r| r.regressions().count()).sum();
        if baseline_override {
            println!(
                "SG_GATE_BASELINE set: accepting {total} regression(s) across \
                 {failed} experiment(s) as the new baseline"
            );
            return Ok(());
        }
        return Err(CliError::from(format!(
            "perf gate failed: {total} metric regression(s) across {failed} of {} experiment(s)",
            names.len()
        )));
    }
    println!(
        "perf gate passed: {} experiment(s) within their noise bands",
        names.len()
    );
    Ok(())
}

/// Model-vs-measured divergence: time each level group of a real
/// hierarchize + blocked-evaluate run, predict the same groups' DRAM
/// traffic with the cache simulator, and report how well they line up.
fn cmd_divergence(args: &[String]) -> Result<(), CliError> {
    let parse_flag = |key: &str, default: usize| -> Result<usize, String> {
        flag(args, key)
            .map(|s| s.parse().map_err(|e| format!("bad {key}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let d = parse_flag("--dims", 5)?;
    let level = parse_flag("--level", 6)?;
    let n_points = parse_flag("--points", 2048)?.max(1);
    let top = parse_flag("--top", 3)?.max(1);
    let machine = flag(args, "--machine").unwrap_or_else(|| "nehalem".into());
    let fname = flag(args, "--function").unwrap_or_else(|| "gaussian".into());
    let f = TestFunction::ALL
        .iter()
        .find(|f| f.name() == fname)
        .ok_or_else(|| CliError::usage(format!("unknown function {fname:?}")))?;
    let spec =
        GridSpec::try_new(d, level).map_err(|e| CliError::usage(format!("bad grid shape: {e}")))?;
    let new_sim = || -> Result<sg_machine::CacheSim, CliError> {
        Ok(match machine.as_str() {
            "nehalem" => sg_machine::CacheSim::nehalem(),
            "opteron" => sg_machine::CacheSim::opteron_barcelona(),
            "opteron-aggregate" => sg_machine::CacheSim::opteron_barcelona_aggregate(),
            "tiny" => sg_machine::CacheSim::tiny(),
            other => {
                return Err(CliError::usage(format!(
                    "unknown --machine {other:?} (nehalem, opteron, opteron-aggregate, tiny)"
                )))
            }
        })
    };

    // Measured half: a fresh registry window around serial hierarchize +
    // blocked evaluate at pool width 1, so the per-group spans hold
    // exactly this run (serial keeps wall time and attributed time the
    // same thing).
    sg_telemetry::reset();
    let mut grid = CompactGrid::from_fn_parallel(spec, |x| f.eval(x));
    let xs = halton_points(d, n_points);
    hierarchize(&mut grid);
    let width = sg_par::num_threads();
    sg_par::set_num_threads(1);
    let _values = evaluate_batch_parallel(&grid, &xs, BLOCK);
    sg_par::set_num_threads(width);
    let report = sg_telemetry::snapshot();
    let measured = |phase: &str, n: usize| -> u64 {
        report
            .span(&format!("core.{phase}.group_{n}"))
            .map_or(0, |s| s.total_ns)
    };

    // Predicted half: the same shapes through the cache simulator.
    let mut sim_h = new_sim()?;
    let pred_h =
        sg_machine::profile::trace_hierarchization_groups(StoreKind::Compact, spec, &mut sim_h);
    let mut sim_e = new_sim()?;
    let pred_e = sg_machine::profile::trace_evaluation_groups(
        StoreKind::Compact,
        spec,
        n_points,
        &mut sim_e,
    );

    let mut doc = sg_json::json!({
        "machine": machine.clone(),
        "workload": {
            "dims": d as f64, "level": level as f64, "points": grid.len() as f64,
            "function": f.name(), "eval_points": n_points as f64
        }
    });
    let mut worst: Vec<(String, f64)> = Vec::new();
    for (phase, pred) in [("hierarchize", &pred_h), ("evaluate", &pred_e)] {
        let pairs: Vec<(usize, f64, f64)> = pred
            .groups
            .iter()
            .map(|g| {
                (
                    g.group,
                    g.dram_lines as f64,
                    measured(phase, g.group) as f64,
                )
            })
            .collect();
        // Least-squares through the origin: ns the measurement implies
        // per predicted DRAM line.
        let sxx: f64 = pairs.iter().map(|(_, x, _)| x * x).sum();
        let sxy: f64 = pairs.iter().map(|(_, x, y)| x * y).sum();
        let alpha = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let r = correlation(&pairs);
        println!(
            "\n{phase}: predicted vs measured over {} level groups \
             (machine {machine}, correlation r={r:.4}, fit {alpha:.2} ns/line)",
            pairs.len()
        );
        println!(
            "  {:>5} {:>16} {:>14} {:>14} {:>14}",
            "group", "pred_dram_lines", "measured_ns", "model_ns", "residual_ns"
        );
        let mut groups_json = Vec::new();
        for (n, lines, ns) in &pairs {
            let model = alpha * lines;
            let residual = ns - model;
            println!("  {n:>5} {lines:>16.0} {ns:>14.0} {model:>14.0} {residual:>+14.0}");
            worst.push((format!("{phase} group {n}"), residual));
            groups_json.push(sg_json::json!({
                "group": *n as f64,
                "predicted_dram_lines": *lines,
                "measured_ns": *ns,
                "model_ns": model,
                "residual_ns": residual
            }));
        }
        doc[phase] = sg_json::json!({
            "correlation": r,
            "alpha_ns_per_line": alpha,
            "groups": groups_json
        });
    }

    worst.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    println!("\ntop {top} divergent groups (|measured - model|):");
    let mut worst_json = Vec::new();
    for (name, residual) in worst.iter().take(top) {
        println!("  {name:<24} {residual:>+14.0} ns");
        worst_json.push(sg_json::json!({ "group": name.clone(), "residual_ns": *residual }));
    }
    doc["top_divergent"] = sg_json::Value::from(worst_json);
    doc["provenance"] = sg_telemetry::provenance(&["telemetry"]);
    if let Some(path) = flag(args, "--out") {
        std::fs::write(&path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| CliError::io(format!("cannot write divergence report to {path}: {e}")))?;
        println!("report: {path}");
    }
    Ok(())
}

/// Pearson correlation between predicted lines and measured ns over
/// `(group, predicted, measured)` tuples; 0 when either side is flat.
fn correlation(pairs: &[(usize, f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = pairs.iter().map(|(_, x, _)| x).sum::<f64>() / n;
    let my = pairs.iter().map(|(_, _, y)| y).sum::<f64>() / n;
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for (_, x, y) in pairs {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

fn cmd_render(args: &[String]) -> Result<(), CliError> {
    let out = flag(args, "--out").ok_or("missing --out")?;
    let (values, width, height, (a, b), at, lo, hi) = decompress_slice(args, 1.0)?;
    let range = (hi - lo).max(1e-12);
    let mut ppm = Vec::with_capacity(32 + width * height * 3);
    ppm.extend_from_slice(format!("P6\n{width} {height}\n255\n").as_bytes());
    for &v in &values {
        ppm.extend_from_slice(&colormap((v - lo) / range));
    }
    std::fs::write(&out, &ppm).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "rendered {width}x{height} slice (axes x={a} y={b}, at {at:?}, range [{lo:.3e}, {hi:.3e}]) -> {out}"
    );
    Ok(())
}

fn parse_u64_flag(args: &[String], key: &str) -> Result<Option<u64>, String> {
    let Some(raw) = flag(args, key) else {
        return Ok(None);
    };
    parse_seed(&raw)
        .map(Some)
        .map_err(|e| format!("bad {key}: {e}"))
}

fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|e| format!("{raw:?}: {e}"))
}

/// One campaign to run: the campaign, the class index it is pinned to
/// (if any), and the fault count.
type CampaignArg = (&'static sg_fuzz::Campaign, Option<usize>, u64);

/// `--campaign NAME[:CLASS][,…] --faults N`: the campaigns to run.
fn parse_campaigns(args: &[String]) -> Result<Vec<CampaignArg>, CliError> {
    let faults = match flag(args, "--faults") {
        Some(n) => Some(
            n.parse::<u64>()
                .map_err(|e| CliError::usage(format!("bad --faults: {e}")))?,
        ),
        None => None,
    };
    let Some(list) = flag(args, "--campaign") else {
        return match faults {
            Some(_) => Err(CliError::usage("--faults needs --campaign")),
            None => Ok(Vec::new()),
        };
    };
    let faults = faults.ok_or_else(|| CliError::usage("--campaign needs --faults N"))?;
    list.split(',')
        .map(|item| {
            let (name, class) = match item.trim().split_once(':') {
                Some((name, class)) => (name, Some(class)),
                None => (item.trim(), None),
            };
            let campaign = sg_fuzz::Campaign::find(name).ok_or_else(|| {
                let known: Vec<&str> = sg_fuzz::CAMPAIGNS.iter().map(|c| c.name).collect();
                CliError::usage(format!(
                    "unknown campaign {name:?} (expected one of {})",
                    known.join(", ")
                ))
            })?;
            let class = match class {
                Some(c) => Some(campaign.class_index(c).ok_or_else(|| {
                    CliError::usage(format!(
                        "campaign {name} has no class {c:?} (classes: {})",
                        campaign.classes.join(", ")
                    ))
                })?),
                None => None,
            };
            Ok((campaign, class, faults))
        })
        .collect()
}

fn cmd_fuzz(args: &[String]) -> Result<(), CliError> {
    let mut cfg = sg_fuzz::FuzzConfig::default();
    if let Ok(seed) = std::env::var("SG_PROP_SEED") {
        cfg.seed_base = parse_seed(&seed).map_err(|e| format!("bad SG_PROP_SEED: {e}"))?;
    }
    if let Some(base) = parse_u64_flag(args, "--seed-base")? {
        cfg.seed_base = base;
    }
    if let Some(cases) = parse_u64_flag(args, "--budget-cases")? {
        cfg.budget_cases = Some(cases);
    }
    if let Some(secs) = flag(args, "--budget-secs") {
        let s: f64 = secs
            .parse()
            .map_err(|e| format!("bad --budget-secs: {e}"))?;
        cfg.budget_secs = Some(s);
        if flag(args, "--budget-cases").is_none() {
            cfg.budget_cases = None;
        }
    }
    if let Some(ops) = flag(args, "--op") {
        let parsed: Vec<sg_fuzz::Op> = ops
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| sg_fuzz::Op::parse(s).ok_or_else(|| format!("unknown --op {s:?}")))
            .collect::<Result<_, _>>()?;
        if parsed.is_empty() {
            return Err(CliError::usage(format!("empty --op list {ops:?}")));
        }
        cfg.op_filter = Some(parsed);
    }
    if let Some(shape) = flag(args, "--shape") {
        let (d, n) = shape
            .split_once('x')
            .ok_or_else(|| format!("bad --shape {shape:?}: expected DxN"))?;
        let d: usize = d.parse().map_err(|e| format!("bad --shape dims: {e}"))?;
        let n: usize = n.parse().map_err(|e| format!("bad --shape level: {e}"))?;
        cfg.shape = Some((d, n));
    }
    let inject = match flag(args, "--inject").as_deref() {
        None => sg_fuzz::Injection::None,
        Some("gp2idx-off-by-one") => sg_fuzz::Injection::Gp2idxOffByOne,
        Some(other) => return Err(CliError::usage(format!("unknown --inject {other:?}"))),
    };
    cfg.inject = inject;
    let interleavings: usize = match flag(args, "--sched-interleavings") {
        Some(k) => k
            .parse()
            .map_err(|e| format!("bad --sched-interleavings: {e}"))?,
        None => 200,
    };
    let campaigns = parse_campaigns(args)?;

    // Differential pass.
    let report = sg_fuzz::run_fuzz(&cfg);
    println!(
        "fuzz: {} cases in {:.2}s (seed base {:#x}) — {} divergence(s)",
        report.cases,
        report.elapsed_secs,
        report.seed_base,
        report.divergences.len()
    );
    for (name, count) in &report.per_op {
        if *count > 0 {
            println!("  {name:<16} {count}");
        }
    }
    for s in &report.divergences {
        println!("\n{}", s.reproducer);
    }

    // Schedule-exploration pass over the pool protocol.
    let sched_configs = sg_par::vsched::standard_configs();
    let mut sched_total = 0usize;
    let mut sched_steps = 0u64;
    let mut sched_violations: Vec<String> = Vec::new();
    if interleavings > 0 {
        for c in &sched_configs {
            let r = sg_par::vsched::explore(c, interleavings, cfg.seed_base);
            sched_total += r.interleavings;
            sched_steps += r.steps;
            sched_violations.extend(r.violations);
        }
        println!(
            "sched: {} interleavings over {} pool configs ({} virtual steps) — {} violation(s)",
            sched_total,
            sched_configs.len(),
            sched_steps,
            sched_violations.len()
        );
        for v in &sched_violations {
            println!("  {v}");
        }
    }

    // Fault campaigns: every injected fault must end in full recovery,
    // enumerated partial recovery, or a typed error.
    let campaign_reports: Vec<sg_fuzz::CampaignReport> = campaigns
        .iter()
        .map(|&(campaign, class, faults)| {
            let r = (campaign.run)(cfg.seed_base, faults, class);
            let tallies: Vec<String> = r.counters.iter().map(|(k, v)| format!("{v} {k}")).collect();
            println!(
                "{}: {} injected in {:.2}s — {} full, {} partial, {} clean-error, \
                 {} violation(s){}",
                r.campaign,
                r.cases,
                r.elapsed_secs,
                r.full_recoveries,
                r.partial_recoveries,
                r.clean_errors,
                r.violations.len(),
                if tallies.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", tallies.join(", "))
                }
            );
            for (name, count) in &r.per_class {
                println!("  {name:<24} {count}");
            }
            for v in &r.violations {
                println!("{v}");
            }
            r
        })
        .collect();

    // JSON summary (CI artifact, same provenance story as profile).
    if let Some(path) = flag(args, "--json") {
        let mut doc = sg_json::json!({
            "cases": report.cases as f64,
            "seed_base": format!("{:#x}", report.seed_base),
            "elapsed_secs": report.elapsed_secs,
            "inject": match inject {
                sg_fuzz::Injection::None => "none",
                sg_fuzz::Injection::Gp2idxOffByOne => "gp2idx-off-by-one",
            },
            "divergences": report
                .divergences
                .iter()
                .map(|s| {
                    let (d, n) = s.case.shape.unwrap_or((s.failure.d, s.failure.n));
                    sg_json::json!({
                        "op": s.case.op.name(),
                        "seed": format!("{:#x}", s.case.seed),
                        "d": d as f64,
                        "n": n as f64,
                        "detail": s.failure.detail.clone(),
                        "reproducer": s.reproducer.clone()
                    })
                })
                .collect::<Vec<_>>(),
            "sched": {
                "configs": sched_configs.len() as f64,
                "interleavings": sched_total as f64,
                "steps": sched_steps as f64,
                "violations": sched_violations.clone()
            }
        });
        let mut per_op = sg_json::json!({});
        for (name, count) in &report.per_op {
            per_op[*name] = sg_json::Value::from(*count as f64);
        }
        doc["per_op"] = per_op;
        let mut by_name = sg_json::json!({});
        for r in &campaign_reports {
            let mut per_class = sg_json::json!({});
            for (name, count) in &r.per_class {
                per_class[*name] = sg_json::Value::from(*count as f64);
            }
            let mut counters = sg_json::json!({});
            for (name, count) in r.counters.iter() {
                counters[name] = sg_json::Value::from(count as f64);
            }
            let mut c = sg_json::json!({
                "cases": r.cases as f64,
                "seed_base": format!("{:#x}", r.seed_base),
                "full_recoveries": r.full_recoveries as f64,
                "partial_recoveries": r.partial_recoveries as f64,
                "clean_errors": r.clean_errors as f64,
                "violations": r.violations.clone(),
                "elapsed_secs": r.elapsed_secs
            });
            c["per_class"] = per_class;
            c["counters"] = counters;
            by_name[r.campaign] = c;
        }
        doc["campaigns"] = by_name;
        doc["provenance"] = sg_telemetry::provenance(&["telemetry"]);
        std::fs::write(&path, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| format!("cannot write fuzz summary to {path}: {e}"))?;
        println!("summary: {path}");
    }

    match inject {
        sg_fuzz::Injection::None => {
            if !report.clean() {
                return Err(CliError::from(format!(
                    "{} divergence(s) found — see reproducers above",
                    report.divergences.len()
                )));
            }
            if !sched_violations.is_empty() {
                return Err(CliError::from(format!(
                    "{} schedule invariant violation(s)",
                    sched_violations.len()
                )));
            }
            if let Some(r) = campaign_reports.iter().find(|r| !r.clean()) {
                return Err(CliError::from(format!(
                    "{} {} fault-injection violation(s) — see the corpus lines above",
                    r.violations.len(),
                    r.campaign
                )));
            }
            Ok(())
        }
        // Self-test: the harness must catch and fully shrink the fault.
        sg_fuzz::Injection::Gp2idxOffByOne => {
            let caught = report
                .divergences
                .iter()
                .any(|s| s.case.shape.is_some() && s.reproducer.lines().count() <= 3);
            if caught {
                println!("injection self-test passed: fault detected and shrunk");
                Ok(())
            } else {
                Err("injected fault was NOT detected — harness self-test failed".into())
            }
        }
    }
}
