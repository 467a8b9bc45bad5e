//! SGC2 checkpoint and restore next to their I/O floors, measured in
//! the same process on the compress workload's grid (d = 5, level 11,
//! `f64`: 1,579,007 coefficients, 12.6 MB).
//!
//! - checkpoint: `write_snapshot_file` (streamed sections, CRCs,
//!   temp file, `fsync`, rename, directory `fsync`);
//!   its floor is a raw `write_all` + `sync_all` of the same bytes.
//! - restore: `read_snapshot_file` (every section verified and decoded
//!   straight into a fresh grid); its floor is `fs::read` of the file
//!   plus one `crc64` pass over it.
//!
//! Each figure is the median over the rounds. The minor page faults of
//! each stage come from `/proc/self/stat` (Linux only; "n/a" elsewhere).
//!
//! Run with: `cargo run --release -p sg-apps --example snapshot_floor [rounds]`

use sg_core::prelude::*;
use std::io::Write;
use std::time::Instant;

/// This process's minor page faults so far, if the platform reports them.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); minflt is field 10.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// Run `f`, returning its result, wall time in ms and minor faults.
fn measure<R>(f: impl FnOnce() -> R) -> (R, f64, Option<u64>) {
    let faults0 = minor_faults();
    let t0 = Instant::now();
    let r = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let faults = minor_faults().zip(faults0).map(|(b, a)| b - a);
    (r, ms, faults)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15)
        .max(1);
    let spec = GridSpec::new(5, 11);
    let mut grid = CompactGrid::from_fn_parallel(spec, |x| {
        x.iter().map(|&v| 4.0 * v * (1.0 - v)).product::<f64>()
    });
    hierarchize_parallel(&mut grid);
    let bytes = sg_io::encode_snapshot(&grid, "snapshot_floor");
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("sg-snapshot-floor-{}.sgc2", std::process::id()));
    let raw = dir.join(format!("sg-snapshot-floor-{}.raw", std::process::id()));
    println!(
        "grid: d=5, level 11, {} points, {} snapshot bytes; {rounds} rounds; {} threads",
        grid.len(),
        bytes.len(),
        sg_par::num_threads()
    );

    // [checkpoint, checkpoint floor, restore, restore floor]
    let mut ms: [Vec<f64>; 4] = Default::default();
    let mut faults: [Vec<f64>; 4] = Default::default();
    let mut record = |stage: usize, t: f64, f: Option<u64>| {
        ms[stage].push(t);
        if let Some(f) = f {
            faults[stage].push(f as f64);
        }
    };
    for _ in 0..rounds {
        let (r, t, f) = measure(|| sg_io::write_snapshot_file(&grid, &snap, "snapshot_floor"));
        r.expect("checkpoint");
        record(0, t, f);

        let (r, t, f) = measure(|| -> std::io::Result<()> {
            let mut file = std::fs::File::create(&raw)?;
            file.write_all(&bytes)?;
            file.sync_all()
        });
        r.expect("raw write");
        record(1, t, f);

        let (back, t, f) = measure(|| sg_io::read_snapshot_file::<f64>(&snap));
        let back = back.expect("restore");
        assert!(
            back.values()
                .iter()
                .zip(grid.values())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "restored grid differs from the grid written"
        );
        drop(back);
        record(2, t, f);

        let (crc, t, f) = measure(|| std::fs::read(&snap).map(|b| sg_io::crc64(&b)));
        std::hint::black_box(crc.expect("raw read"));
        record(3, t, f);
    }
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&raw).ok();

    let faults_of = |stage: usize, faults: &mut [Vec<f64>; 4]| {
        if faults[stage].len() == rounds {
            format!("{:.0}", median(&mut faults[stage]))
        } else {
            "n/a".to_string()
        }
    };
    println!(
        "{:<11} {:>9} {:>9} {:>7} {:>14} {:>14}",
        "stage", "ms", "floor ms", "ratio", "minor faults", "floor faults"
    );
    for (name, stage) in [("checkpoint", 0), ("restore", 2)] {
        let t = median(&mut ms[stage]);
        let floor = median(&mut ms[stage + 1]);
        println!(
            "{name:<11} {t:>9.2} {floor:>9.2} {:>7.2} {:>14} {:>14}",
            t / floor,
            faults_of(stage, &mut faults),
            faults_of(stage + 1, &mut faults),
        );
    }
}
