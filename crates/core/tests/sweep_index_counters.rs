//! Exact bijection call counts on the build path.
//!
//! The hierarchization sweeps find every parent from a per-subspace
//! table, so they make no `gp2idx` call, and the parallel sampler decodes
//! one index per 1024-point chunk and steps from there. The bijection
//! counters are process-global, so this test lives in its own test
//! binary, where no sibling test bumps them while it reads its deltas.
#![cfg(feature = "telemetry")]

use sg_core::grid::CompactGrid;
use sg_core::hierarchize::{dehierarchize_parallel, hierarchize, hierarchize_parallel};
use sg_core::level::GridSpec;

#[test]
fn build_path_makes_no_per_point_bijection_calls() {
    let spec = GridSpec::new(5, 8);
    let counter = |name: &str| sg_telemetry::snapshot().counter(name).unwrap_or(0);
    let gp2idx = || counter("core.bijection.gp2idx_calls");
    let idx2gp = || counter("core.bijection.idx2gp_calls");
    let f = |x: &[f64]| x.iter().map(|&v| v * (1.0 - v)).product::<f64>();

    let before = idx2gp();
    let nodal = CompactGrid::from_fn_parallel(spec, f);
    let chunks = spec.num_points().div_ceil(1024);
    assert_eq!(idx2gp() - before, chunks, "one idx2gp per sampler chunk");

    let mut seq = nodal.clone();
    let mut par = nodal;
    let before = gp2idx();
    hierarchize(&mut seq);
    assert_eq!(gp2idx() - before, 0, "hierarchize");
    hierarchize_parallel(&mut par);
    assert_eq!(gp2idx() - before, 0, "hierarchize_parallel");
    dehierarchize_parallel(&mut par);
    assert_eq!(gp2idx() - before, 0, "dehierarchize_parallel");
}
