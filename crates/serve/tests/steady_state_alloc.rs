//! The zero-allocation contract, enforced: after warm-up, a request
//! through the engine (prepare → submit → coalesce → evaluate → wait →
//! read results) must not touch the allocator at all — on the submitting
//! thread *or* the executor.
//!
//! This file holds exactly one test: the counting allocator is global,
//! so any concurrently running test would pollute the count.

use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_serve::{Engine, Fleet, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_requests_do_not_allocate() {
    // A pool width in the environment must not matter: reading it
    // allocates, and a one-block batch never asks for it.
    std::env::set_var("SG_PAR_THREADS", "2");
    let mut grid = CompactGrid::from_fn(GridSpec::new(3, 5), |x| (4.0 * x[0]).sin() + x[1] * x[2]);
    hierarchize(&mut grid);
    let path = std::env::temp_dir().join(format!("sg-serve-alloc-{}.sgcs", std::process::id()));
    sg_io::write_snapshot_file(&grid, &path, "alloc-test").unwrap();

    let fleet = Fleet::new(2);
    fleet.load("m", &path).unwrap();
    // Each 40-point request is one evaluator block (`BLOCK` = 64), so it
    // runs inline on the executor: that path is the steady-state contract
    // (the pool path trades allocations in its telemetry accounting for
    // multi-core throughput on batches of several blocks).
    let engine = Engine::new(fleet, ServeConfig::default());
    let slot = engine.fleet().resolve("m").unwrap();
    let job = engine.make_job();

    let xs: Vec<f64> = (0..3 * 40)
        .map(|i| ((i as f64) * 0.617_283).fract())
        .collect();

    let run_request = |sink: &mut f64| {
        engine
            .prepare(&job, slot, 3, None, |buf| buf.extend_from_slice(&xs))
            .unwrap();
        engine.submit(&job).unwrap();
        engine.wait(&job).unwrap();
        *sink += job.with_results(|ys| ys[0]);
        job.recycle();
    };

    // Warm-up: grows every reused buffer to its steady-state capacity
    // and performs the one-time telemetry registrations.
    let mut sink = 0.0;
    for _ in 0..100 {
        run_request(&mut sink);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..500 {
        run_request(&mut sink);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state request path allocated {} times over 500 requests",
        after - before
    );

    engine.shutdown();
    std::fs::remove_file(&path).ok();
}
