//! Scheduling-determinism and fault-injection contract for the
//! combination-technique executor.
//!
//! The executor promises that its output is a pure function of (shape,
//! function, policy) — never of the thread count, the task completion
//! order, or which faults happened to be survivable. These tests pin
//! that promise from outside the crate:
//!
//! * bitwise identical runs across `SG_PAR_THREADS` ∈ {1, 2, 8},
//! * bitwise identical component sets across seeded shuffled task
//!   completion orders (simulating an arbitrary scheduler),
//! * the fault-injection harness stays clean under both recovery
//!   policies, in this crate's telemetry-on build as well as sg-fuzz's
//!   default build.

use sg_combination::{CombinationExecutor, ExecutorConfig, RecoveryPolicy, RunOutcome};
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_prop::Rng;

fn test_fn(x: &[f64]) -> f64 {
    x.iter()
        .enumerate()
        .map(|(t, &v)| (1.0 + 0.45 * t as f64) * v * (1.0 - v))
        .product::<f64>()
        + (x.iter().sum::<f64>() * 2.0).cos()
}

fn bits(grid: &CompactGrid<f64>) -> Vec<u64> {
    grid.values().iter().map(|v| v.to_bits()).collect()
}

/// Fisher–Yates over the task indices, seeded.
fn shuffled_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.usize_in(0..=i);
        order.swap(i, j);
    }
    order
}

#[test]
fn runs_are_bitwise_identical_across_thread_counts() {
    let restore = sg_par::num_threads();
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        sg_par::set_num_threads(threads);
        for spec in [
            GridSpec::new(2, 4),
            GridSpec::new(3, 4),
            GridSpec::new(4, 3),
        ] {
            let run = CombinationExecutor::new(spec).run(test_fn).unwrap();
            assert_eq!(run.outcome, RunOutcome::Clean, "threads={threads}");
            runs.push((threads, spec, run));
        }
    }
    sg_par::set_num_threads(restore);
    // Every thread count must produce the same bits for the same shape.
    for (threads, spec, run) in &runs {
        let (_, _, reference) = runs
            .iter()
            .find(|(t, s, _)| *t == 1 && s == spec)
            .expect("single-threaded reference exists");
        assert_eq!(
            bits(&run.grid),
            bits(&reference.grid),
            "threads={threads} spec d={} levels={} differs from single-threaded bits",
            spec.dim(),
            spec.levels()
        );
    }
}

#[test]
fn component_sets_are_bitwise_identical_across_completion_orders() {
    let spec = GridSpec::new(3, 4);
    let exec = CombinationExecutor::new(spec);
    let reference = exec.compute_components(test_fn).unwrap();
    let n = reference.len();
    let mut rng = Rng::new(0xD157_08D3 ^ 0xFFFF);
    for round in 0..8 {
        let order = shuffled_order(&mut rng, n);
        let shuffled = exec
            .compute_components_faulty(test_fn, Default::default(), Some(&order))
            .unwrap();
        for (k, (a, b)) in shuffled.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.values(),
                b.values(),
                "round {round}: component {k} depends on completion order {order:?}"
            );
        }
    }
}

#[test]
fn recovered_runs_are_bitwise_identical_across_thread_counts_under_loss() {
    // Recompute recovery re-samples on the caller thread; the surviving
    // payloads came through the manifest. Neither source may depend on
    // the width of the pool that originally computed the set.
    let spec = GridSpec::new(3, 3);
    let exec = CombinationExecutor::new(spec);
    let restore = sg_par::num_threads();
    let mut recovered = Vec::new();
    for threads in [1usize, 2, 8] {
        sg_par::set_num_threads(threads);
        let components = exec.compute_components(test_fn).unwrap();
        let mut sink = sg_io::MemorySink::new();
        exec.checkpoint(&components, &mut sink, Some(2)).unwrap();
        let bytes = sink.into_published().unwrap();
        let run = exec.recover_run(&bytes, test_fn).unwrap();
        assert_eq!(
            run.outcome,
            RunOutcome::Recomputed {
                components: vec![2]
            },
            "threads={threads}"
        );
        recovered.push(run);
    }
    sg_par::set_num_threads(restore);
    for run in &recovered[1..] {
        assert_eq!(bits(&run.grid), bits(&recovered[0].grid));
    }
}

#[test]
fn fault_harness_is_clean_in_the_telemetry_build() {
    // sg-apps builds sg-combination and sg-io with telemetry on; the
    // counters and spans must not perturb recovery behaviour.
    let report = (sg_fuzz::combfault::CAMPAIGN.run)(0x7E1E_F417, 60, None);
    assert!(report.clean(), "{:#?}", report.violations);
    assert_eq!(report.cases, 60);
    assert!(report.counters.get("recompute") > 0 && report.counters.get("reweight") > 0);
}

#[test]
fn reweight_coefficients_still_reproduce_constants_after_loss() {
    // Whatever the executor drops, the adjusted combination must keep
    // Σ c = 1 — constants are reproduced exactly or the reweight is
    // rejected as infeasible.
    let spec = GridSpec::new(3, 3);
    let exec = CombinationExecutor::with_config(
        spec,
        ExecutorConfig {
            policy: RecoveryPolicy::Reweight,
            ..ExecutorConfig::default()
        },
    );
    let components = exec.compute_components(test_fn).unwrap();
    for k in 0..exec.tasks().len() {
        let mut sink = sg_io::MemorySink::new();
        exec.checkpoint(&components, &mut sink, Some(k)).unwrap();
        let bytes = sink.into_published().unwrap();
        match exec.recover_run(&bytes, test_fn) {
            Ok(run) => {
                let total: i64 = run.coefficients.iter().map(|(c, _)| c).sum();
                assert_eq!(total, 1, "k={k}");
            }
            Err(sg_core::error::SgError::Corrupt(_)) => {} // infeasible is typed
            Err(other) => panic!("k={k}: unexpected error class {other}"),
        }
    }
}
