//! The zero-allocation contract, enforced: after warm-up, a request
//! through the engine (resolve → validate → admit → pin → evaluate into
//! the caller's buffer) must not touch the allocator at all, on the
//! calling thread or the sg-par pool.
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

/// Allocations made by `rounds` calls of `request` after `warmup` calls
/// that grow every reused buffer and perform one-time registrations.
fn allocations_per(warmup: usize, rounds: usize, mut request: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        request();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..rounds {
        request();
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_requests_do_not_allocate() {
    // A pool width in the environment must not matter to the inline
    // path: a one-block batch never asks for it.
    std::env::set_var("SG_PAR_THREADS", "2");
    let mut grid = CompactGrid::from_fn(GridSpec::new(3, 5), |x| (4.0 * x[0]).sin() + x[1] * x[2]);
    hierarchize(&mut grid);
    let path = std::env::temp_dir().join(format!("sg-serve-alloc-{}.sgcs", std::process::id()));
    sg_io::write_snapshot_file(&grid, &path, "alloc-test").unwrap();

    let fleet = Fleet::new(2);
    fleet.load("m", &path).unwrap();
    let engine = Engine::new(fleet, ServeConfig::default());
    // One epoch registration and one result buffer, reused by every
    // request, as a connection holds them.
    let reader = engine.fleet().register_reader();
    let mut out = Vec::new();

    // A request of `points` 3-d points: one evaluator block (`BLOCK` =
    // 64 points) runs inline on the calling thread, several run on the
    // pool.
    let mut count_allocations = |points: usize| {
        let xs: Vec<f64> = (0..3 * points)
            .map(|i| ((i as f64) * 0.617_283).fract())
            .collect();
        let mut sink = 0.0;
        let allocations = allocations_per(100, 500, || {
            engine
                .eval_into(&reader, "m", 3, None, &xs, &mut out)
                .unwrap();
            sink += out[out.len() - 1];
        });
        assert!(sink.is_finite());
        allocations
    };
    let inline = count_allocations(40);
    assert_eq!(
        inline, 0,
        "steady-state request path allocated {inline} times over 500 requests"
    );
    // With the width taken from the environment, the pooled path's one
    // allocation per request is the width read: sg-par re-reads
    // `SG_PAR_THREADS` for every region of more than one chunk, and
    // reading a set variable allocates. Everything else on that path —
    // the region, its telemetry books, the kernels and their scratch —
    // must not allocate.
    let pooled = count_allocations(200);
    assert_eq!(
        pooled, 500,
        "pooled request path allocated {pooled} times over 500 requests; \
         only the one SG_PAR_THREADS read per request is expected"
    );
    // Fixed at start-up, as `sgd` fixes it, the width is never read again
    // and the pooled path allocates nothing either.
    sg_par::set_num_threads(sg_par::num_threads());
    let fixed = count_allocations(200);
    assert_eq!(
        fixed, 0,
        "pooled request path with a fixed pool width allocated {fixed} times over 500 requests"
    );

    std::fs::remove_file(&path).ok();
}
