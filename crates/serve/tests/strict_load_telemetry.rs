//! A strict `Fleet::load` checksums each snapshot section exactly once
//! (only built with the `telemetry` feature).
//!
//! This file holds exactly one test: `io.snapshot.sections_verified` is
//! a process-global counter, so a concurrently running test that reads
//! or writes snapshots would pollute the count.
#![cfg(feature = "telemetry")]

use sg_core::functions::TestFunction;
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_serve::{Fleet, ServeError};

fn sections_verified() -> u64 {
    sg_telemetry::snapshot()
        .counter("io.snapshot.sections_verified")
        .unwrap_or(0)
}

#[test]
fn strict_load_verifies_each_section_once() {
    let dir = std::env::temp_dir().join(format!("sg-serve-strict-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.sgc");
    let levels = 5;
    let grid =
        CompactGrid::<f64>::from_fn(GridSpec::new(3, levels), |x| TestFunction::Gaussian.eval(x));
    sg_io::write_snapshot_file(&grid, &path, "strict-load").unwrap();

    let fleet = Fleet::new(4);
    // First load, then a hot swap of the same name: both are strict.
    for _ in 0..2 {
        let before = sections_verified();
        fleet.load("m", &path).unwrap();
        assert_eq!(sections_verified() - before, levels as u64);
    }

    // A damaged snapshot stays a typed model error, not a degraded load.
    let mut bytes = std::fs::read(&path).unwrap();
    let bounds = sg_io::section_boundaries(&bytes).unwrap();
    bytes[bounds[2] + 20] ^= 0x01;
    let bad = dir.join("bad.sgc");
    std::fs::write(&bad, &bytes).unwrap();
    match fleet.load("m", &bad) {
        Err(ServeError::Model(msg)) => assert!(msg.contains("bad.sgc"), "{msg}"),
        other => panic!("damaged snapshot must be a model error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
