//! `fig1bench` — the paper's Fig. 1 path timed end to end and per layer.
//!
//! ```text
//! fig1bench --workload compress|explore|serve_zipf --seed N --seconds S
//!           --trace 0|1 --work DIR
//! ```
//!
//! Each run sets its workload up several times (the median is
//! `setup_s`), measures for `--seconds`, checks every output against the
//! closed forms in [`oracle`], and prints one JSON object as its last
//! line of standard output. An untraced build prints the end-to-end
//! metrics; the traced build (cargo feature `trace`) prints the
//! per-layer metrics. `run.py` builds both and picks one per `--trace`.

mod compress;
mod explore;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Pool width every workload pins: the host's two cores.
pub const POOL_WIDTH: usize = 2;
/// Timed set-ups per run; `setup_s` is their median. One untimed set-up
/// runs before them, so a cold process start does not set the figure.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

/// What a workload hands back: operation counts, the end-to-end metrics
/// (always measured) and the per-layer metrics (traced build only).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut work) =
        (None, 1u64, 10.0f64, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = value()? == "1",
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if traced != cfg!(feature = "trace") {
        return Err(format!(
            "--trace {} needs the build with feature trace {}",
            traced as u8,
            if traced { "on" } else { "off" }
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace: traced,
        work: work.ok_or("--work is required")?,
    })
}

/// A fixed integer loop owned by the benchmark, timed at the start and
/// end of every run. It is no metric: it tells a slow host window from a
/// slow program.
fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Size of a file in MB (10^6 bytes).
pub fn file_mb(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64 / 1e6)
}

/// The end-to-end metrics every workload reports, in the manifest's
/// order. An operation is a `compress` round, an `explore` frame or a
/// `serve_zipf` hot swap; `checkpoint_mb` is the size of the SGC2
/// snapshot the operation writes, serves from or swaps in.
pub fn end_to_end(
    setup_s: f64,
    op_p50_ms: f64,
    checkpoint_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", setup_s, "s"),
        ("op_p50_ms", op_p50_ms, "ms"),
        ("checkpoint_mb", checkpoint_mb, "MB"),
    ]
}

/// Peak resident set of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Run `setup` once untimed and then [`SETUP_REPS`] times timed, keep the
/// last result, and return it with the median set-up time in seconds.
/// Earlier results are dropped (torn down) outside the timed part.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = Some(setup());
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    (kept.expect("SETUP_REPS > 0"), stats::median(&mut times))
}

/// Deadline of the measured phase of `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Print a traced run's per-layer table: each row's median per
/// operation and its share of the operation's median, the last row being
/// the residual the layers do not cover.
pub fn print_layer_table(workload: &str, op: &str, op_ms: f64, rows: &[(&str, f64)]) {
    println!("{workload}: per-layer medians per {op} ({op} median {op_ms:.3} ms)");
    for (name, ms) in rows {
        println!("  {name:<28} {ms:>10.3} ms  {:>6.1}%", 100.0 * ms / op_ms);
    }
}

/// Write a traced run's spans next to its other files.
pub fn write_spans(args: &Args, tr: &trace::Tracer) {
    let path = args
        .work
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tr.write(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!("fig1bench: writing {}: {e}", path.display()),
    }
}

fn json_metrics(list: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig1bench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("fig1bench: creating {}: {e}", args.work.display());
        std::process::exit(2);
    }
    sg_par::set_num_threads(POOL_WIDTH);
    let probe_start = host_probe_ms();
    let outcome = match args.workload.as_str() {
        "compress" => compress::run(&args),
        "explore" => explore::run(&args),
        "serve_zipf" => serve::run(&args),
        other => {
            eprintln!("fig1bench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let probe_end = host_probe_ms();
    println!(
        "host probe: {probe_start:.1} ms at start, {probe_end:.1} ms at end (pool width {POOL_WIDTH}, nproc {})",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let metrics = if args.trace {
        // End-to-end figures of a traced run only show the tracing
        // overhead; they are never reported as metrics.
        println!(
            "traced end-to-end (overhead reference): {}",
            json_metrics(&outcome.end_to_end)
        );
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
