//! Exact telemetry counts for one batch evaluation.
//!
//! The walk and plan-build counters are process-global, and every test
//! that evaluates bumps them. This test therefore lives in its own test
//! binary, where no sibling test runs in the same process, so the
//! deltas it reads come from its own batch alone.
#![cfg(feature = "telemetry")]

use sg_core::evaluate::evaluate_batch_parallel;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_core::plan::EvalPlan;

#[test]
fn subspace_walks_count_blocks_not_points() {
    // 33 points in blocks of 8 → 5 blocks, spread over a pool of 2; the
    // walk counter must advance once per (block, subspace), not once per
    // point, the plan must be built exactly once per batch call, and the
    // batch latency histogram takes one sample per call, not per block.
    let spec = GridSpec::new(3, 4);
    let mut g = CompactGrid::from_fn(spec, |x| x[0] + x[1] + x[2]);
    hierarchize(&mut g);
    let pts: Vec<f64> = (0..99).map(|k| ((k * 43) % 103) as f64 / 103.0).collect();
    let subspaces = EvalPlan::new(&spec).num_subspaces() as u64;
    let counter = |name: &str| sg_telemetry::snapshot().counter(name).unwrap_or(0);
    let batches = || {
        sg_telemetry::snapshot()
            .hist("core.evaluate.batch_ns")
            .map_or(0, |h| h.count)
    };
    let walks0 = counter("core.evaluate.subspace_walks");
    let plans0 = counter("core.evaluate.plan_builds");
    let batches0 = batches();
    sg_par::set_num_threads(2);
    evaluate_batch_parallel(&g, &pts, 8);
    let walked = counter("core.evaluate.subspace_walks") - walks0;
    assert_eq!(walked, 5 * subspaces, "blocks × subspaces, not points");
    assert_eq!(counter("core.evaluate.plan_builds") - plans0, 1);
    assert_eq!(batches() - batches0, 1, "one batch_ns sample per call");
}
