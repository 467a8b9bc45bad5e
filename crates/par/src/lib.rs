#![warn(missing_docs)]

//! # sg-par — persistent-pool data parallelism with dynamic chunk claiming
//!
//! The paper's parallel algorithms need exactly two primitives: a
//! *chunked mutable sweep* (subspaces of one level group distributed over
//! threads, with a barrier per group — paper §5.3) and an *ordered
//! parallel map* (batch evaluation, one thread per block of query
//! points). This crate provides both on a **persistent worker pool**
//! (see [`pool`](self) internals): workers are spawned lazily on the
//! first parallel region, park between regions, and claim work
//! dynamically from a shared atomic index — a worker that finishes its
//! claim steals the next one, so a descheduled or slow worker no longer
//! stretches the closing barrier the way the old static contiguous
//! partitioning did.
//!
//! ## Determinism
//!
//! Results are **bitwise identical** to the sequential path for every
//! thread count and claim granularity: each work item (chunk or index)
//! is claimed by exactly one worker, workers write disjoint output
//! slices, and no reductions are reordered — which worker executes an
//! item affects only timing, never values. The property tests in
//! `tests/determinism.rs` pin this across thread counts {1, 2, 3, 8}.
//!
//! ## Thread count
//!
//! [`num_threads`] re-reads `SG_PAR_THREADS` on every call (it is *not*
//! cached — an earlier revision latched it in a `OnceLock`, so changing
//! the environment after the first region silently did nothing), and
//! [`set_num_threads`] overrides it at runtime, growing or draining the
//! pool. Pool worker slot ids are stable: slot `s` is always the same
//! OS thread until a shrink retires it.
//!
//! ## Panics
//!
//! A panic inside a worker closure is caught on the worker, carried to
//! the coordinator, and re-raised there with the **original payload**
//! via [`std::panic::resume_unwind`] once every worker has finished —
//! `#[should_panic(expected = "...")]` tests see the real message, and
//! the pool stays usable afterwards.
//!
//! ## Telemetry
//!
//! With the `telemetry` cargo feature enabled, every parallel region
//! accounts its barrier wait time — the sum over workers of how long each
//! finished worker waited for the slowest one — under the
//! `par.barrier_wait_ns` counter, and feeds the per-region load-imbalance
//! table in [`sg_telemetry::regions`] with each worker slot's busy/wait
//! nanoseconds and claimed work-item count. The `*_labeled` variants let
//! callers name the region (e.g. `core.hierarchize.sweep` with
//! `("group", 5)`) so each hierarchization level group shows up as its
//! own line — the direct diagnostic for the paper's Fig. 11 speedup
//! flattening. Regions with **no work items** are skipped entirely: an
//! empty input records neither a region nor a busy worker slot.
//!
//! When tracing is additionally enabled ([`sg_telemetry::trace::enable`],
//! done by `sgtool profile`), each region also emits Chrome Trace Event
//! intervals: one `par.region` event on the coordinator lane (tid 0), one
//! `par.worker` event per worker slot (tid `slot + 1`, recorded by the
//! worker thread itself into its lock-free ring), and one
//! `par.barrier_wait` event per non-slowest worker covering its idle gap
//! at the implicit barrier.

mod pool;
pub mod vsched;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use pool::lock_no_poison;

#[cfg(feature = "telemetry")]
use std::time::Instant;

#[cfg(feature = "telemetry")]
static BARRIER_WAIT_NS: sg_telemetry::Counter = sg_telemetry::Counter::new("par.barrier_wait_ns");
#[cfg(feature = "telemetry")]
static REGIONS: sg_telemetry::Counter = sg_telemetry::Counter::new("par.regions");

/// A region label plus its optional distinguishing argument, e.g.
/// `("core.hierarchize.sweep", Some(("group", 5)))`. The argument keeps
/// per-level-group regions separate in the imbalance report instead of
/// blurring them into one total.
pub type RegionArg = Option<(&'static str, u64)>;

/// Explicit thread-count override installed by [`set_num_threads`]
/// (0 = none; fall back to the environment).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Number of threads parallel regions will use (including the calling
/// thread, which participates as worker slot 0): the value last passed
/// to [`set_num_threads`] if any, else the `SG_PAR_THREADS` environment
/// variable — re-read on every call, so changing it between regions
/// takes effect — else [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    let configured = CONFIGURED.load(Ordering::SeqCst);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("SG_PAR_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            // Out-of-range and unparseable values are clamped/ignored
            // *loudly*: a silent fallback here once hid a typo'd knob
            // behind a full-width pool.
            Ok(_) => {
                warn_knob_once(
                    &ENV_WARNED,
                    "SG_PAR_THREADS",
                    &v,
                    "thread count must be >= 1; clamping to 1",
                );
                return 1;
            }
            Err(_) => warn_knob_once(
                &ENV_WARNED,
                "SG_PAR_THREADS",
                &v,
                "not a thread count; using available parallelism",
            ),
        }
    }
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One-shot guard for the `SG_PAR_THREADS` misconfiguration warning.
static ENV_WARNED: std::sync::Once = std::sync::Once::new();

/// Emit a single one-line stderr warning for a misconfigured
/// environment knob; later calls through the same guard are silent so a
/// hot path re-reading the variable cannot spam the log.
fn warn_knob_once(guard: &std::sync::Once, name: &str, value: &str, why: &str) {
    guard.call_once(|| {
        eprintln!("warning: {name}={value:?} is invalid: {why}");
    });
}

/// Set the thread count for subsequent parallel regions at runtime,
/// overriding `SG_PAR_THREADS`. Clamped to a minimum of 1;
/// `set_num_threads(1)` drains the worker pool (parked workers exit).
/// Growing is lazy: missing workers are spawned by the next region that
/// needs them. Thread-safe; a region already in flight keeps the width
/// it started with.
pub fn set_num_threads(n: usize) {
    let n = n.max(1);
    CONFIGURED.store(n, Ordering::SeqCst);
    pool::set_target_width(n);
    #[cfg(feature = "telemetry")]
    sg_telemetry::set_threads_hint(n);
}

/// Number of currently live pool worker threads (the calling-thread
/// slot is not counted). Shrinks triggered by [`set_num_threads`] are
/// asynchronous — workers exit as they wake — so this converges to
/// `n - 1` rather than jumping.
pub fn pool_workers() -> usize {
    pool::live_workers()
}

/// How many consecutive work items one shared-index claim hands a
/// worker: honours the caller's `hint` (0 = automatic) but never exceeds
/// `n_items / (4k)`, so every worker can expect several claims — dynamic
/// claiming only balances load while there is spare work to steal.
fn effective_grain(hint: usize, n_items: usize, k: usize) -> usize {
    let cap = n_items.div_ceil(4 * k).max(1);
    if hint == 0 {
        cap
    } else {
        hint.min(cap)
    }
}

/// One coordinator's bookkeeping buffers for its regions' telemetry:
/// `records[slot]` is filled by worker `slot`, the rest are derived from
/// them. Reused region after region (see [`BOOKS`]), so accounting a
/// pooled region does not allocate in the steady state.
#[cfg(feature = "telemetry")]
#[derive(Default)]
struct RegionBooks {
    records: Vec<SlotRecord>,
    times: Vec<(Instant, Instant)>,
    chunks: Vec<u64>,
    busy: Vec<u64>,
    wait: Vec<u64>,
}

#[cfg(feature = "telemetry")]
thread_local! {
    /// The calling thread's [`RegionBooks`], taken for the length of a
    /// region and put back after it.
    static BOOKS: std::cell::Cell<RegionBooks> = std::cell::Cell::default();
}

/// Close the books on one parallel region: `books.times[slot]` is worker
/// `slot`'s `(start, end)` and `books.chunks[slot]` its claimed work
/// items. Accumulates the barrier-wait counter, feeds the per-region
/// imbalance table, and — when tracing — emits the coordinator-side
/// events (`par.region` on lane 0, one `par.barrier_wait` per idle
/// worker). Worker `par.worker` events were already recorded by the
/// workers themselves.
#[cfg(feature = "telemetry")]
fn finish_region(
    label: &'static str,
    arg: RegionArg,
    region_start: Instant,
    books: &mut RegionBooks,
) {
    let times = &books.times;
    let Some(last) = times.iter().map(|&(_, end)| end).max() else {
        return;
    };
    books.busy.clear();
    books.busy.extend(
        times
            .iter()
            .map(|&(start, end)| end.duration_since(start).as_nanos() as u64),
    );
    books.wait.clear();
    books.wait.extend(
        times
            .iter()
            .map(|&(_, end)| last.duration_since(end).as_nanos() as u64),
    );
    BARRIER_WAIT_NS.add(books.wait.iter().sum());
    REGIONS.add(1);
    sg_telemetry::regions::record_region(label, arg, &books.busy, &books.wait, &books.chunks);
    if sg_telemetry::trace::is_enabled() {
        for (slot, &(_, end)) in times.iter().enumerate() {
            if end < last {
                sg_telemetry::trace::record("par.barrier_wait", slot as u64 + 1, end, last, arg);
            }
        }
        sg_telemetry::trace::record("par.region", 0, region_start, Instant::now(), arg);
    }
}

/// Sequential-fallback accounting: the whole region ran inline on the
/// calling thread, which counts as a single worker slot (so small level
/// groups still appear in the imbalance report, with a trivially
/// balanced breakdown). Only called for regions with at least one work
/// item — empty inputs skip accounting entirely.
#[cfg(feature = "telemetry")]
fn finish_sequential(label: &'static str, arg: RegionArg, start: Instant, items: u64) {
    let end = Instant::now();
    let busy = [end.duration_since(start).as_nanos() as u64];
    REGIONS.add(1);
    sg_telemetry::regions::record_region(label, arg, &busy, &[0], &[items]);
    if sg_telemetry::trace::is_enabled() {
        sg_telemetry::trace::record("par.worker", 1, start, end, arg);
        sg_telemetry::trace::record("par.region", 0, start, end, arg);
    }
}

/// Worker-side epilogue, called on the worker thread right before its
/// closure returns: emit the `par.worker` trace event for this slot and
/// flush the thread's ring into the global pool (pool workers park
/// between regions, so without the explicit flush their rings would sit
/// unread until the thread eventually exits).
#[cfg(feature = "telemetry")]
fn finish_worker(slot: usize, arg: RegionArg, start: Instant) -> (Instant, Instant) {
    let end = Instant::now();
    if sg_telemetry::trace::is_enabled() {
        sg_telemetry::trace::record("par.worker", slot as u64 + 1, start, end, arg);
        sg_telemetry::trace::flush_thread();
    }
    (start, end)
}

/// A raw pointer that may cross threads: the claim loops hand each
/// worker disjoint element ranges of the pointee, so no two threads
/// ever alias the same element.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: disjointness is guaranteed by the single atomic claim index —
// each item index is returned by `fetch_add` exactly once.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// One slot's telemetry record: its `(start, end)` span plus how many
/// work items it claimed.
#[cfg(feature = "telemetry")]
type SlotRecord = Mutex<Option<((Instant, Instant), u64)>>;

/// Run `work(slot)` on every slot in `0..k` (slot 0 inline, the rest on
/// pool workers), catching worker panics and re-raising the first
/// payload on the caller after the region completes. `work` returns the
/// number of work items the slot claimed, for the telemetry table.
fn run_pooled<W>(k: usize, label: &'static str, arg: RegionArg, work: &W)
where
    W: Fn(usize) -> u64 + Sync,
{
    #[cfg(not(feature = "telemetry"))]
    let _ = (label, arg);
    #[cfg(feature = "telemetry")]
    let region_start = Instant::now();
    #[cfg(feature = "telemetry")]
    let mut books = BOOKS.with(std::cell::Cell::take);
    #[cfg(feature = "telemetry")]
    {
        books.records.clear();
        books.records.resize_with(k, || Mutex::new(None));
    }
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let body = |slot: usize| {
        let was_nested = pool::enter_region();
        #[cfg(feature = "telemetry")]
        let t_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| work(slot)));
        pool::exit_region(was_nested);
        #[cfg(feature = "telemetry")]
        {
            let span = finish_worker(slot, arg, t_start);
            let claimed = outcome.as_ref().map_or(0, |&c| c);
            *lock_no_poison(&books.records[slot]) = Some((span, claimed));
        }
        if let Err(payload) = outcome {
            let mut slot = lock_no_poison(&first_panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    };
    pool::run_region(k, &body);

    let panicked = lock_no_poison(&first_panic).take();
    if let Some(payload) = panicked {
        // Every worker has reached the barrier, so no reference into
        // this stack frame survives the unwind.
        resume_unwind(payload);
    }
    #[cfg(feature = "telemetry")]
    {
        books.times.clear();
        books.chunks.clear();
        for record in &books.records {
            let (span, claimed) = lock_no_poison(record).expect("pool slot left no record");
            books.times.push(span);
            books.chunks.push(claimed);
        }
        finish_region(label, arg, region_start, &mut books);
        BOOKS.with(|b| b.set(books));
    }
}

/// Run `f(chunk_index, chunk)` for every consecutive `chunk_len`-sized
/// chunk of `data` (the final chunk may be shorter), with chunks claimed
/// dynamically by the worker pool. Returns after all chunks are
/// processed — the call is the barrier. Results are bitwise identical
/// to the sequential loop for every thread count.
///
/// Panics if `chunk_len == 0`, and re-raises (with its original
/// payload) any panic from `f`. Runs inline when the data is small, one
/// thread is configured, or the caller is already inside a parallel
/// region (nested regions do not wait on the pool they occupy).
///
/// Telemetry attributes the region to the generic `par.chunks_mut`
/// label; use [`par_chunks_mut_labeled`] to name the region.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_labeled(data, chunk_len, "par.chunks_mut", None, f)
}

/// [`par_chunks_mut`] with a named region: telemetry accounts the
/// barrier wait, per-worker busy/wait/claims breakdown, and trace events
/// under `label` (plus the optional distinguishing `arg`, e.g.
/// `("group", 5)`). In a build without the `telemetry` feature the label
/// is ignored.
pub fn par_chunks_mut_labeled<T, F>(
    data: &mut [T],
    chunk_len: usize,
    label: &'static str,
    arg: RegionArg,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_grained(data, chunk_len, 0, label, arg, f);
}

/// [`par_chunks_mut_labeled`] with an explicit claim granularity hint:
/// `grain` consecutive chunks are handed out per shared-index claim
/// (0 = automatic). Callers whose chunks are tiny relative to their
/// count (e.g. the fine level groups of a hierarchization sweep) pass a
/// larger grain to amortize the atomic; the library caps the hint so
/// several claims per worker always remain available to steal.
pub fn par_chunks_mut_grained<T, F>(
    data: &mut [T],
    chunk_len: usize,
    grain: usize,
    label: &'static str,
    arg: RegionArg,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    #[cfg(not(feature = "telemetry"))]
    let _ = (label, arg);
    assert!(chunk_len > 0, "chunk length must be positive");
    if data.is_empty() {
        // No work items: no region, no accounting, no busy slot.
        return;
    }
    let len = data.len();
    let n_chunks = len.div_ceil(chunk_len);
    // A single chunk never asks for the width: reading `SG_PAR_THREADS`
    // allocates when it is set, and one-chunk regions (e.g. `sgd`'s
    // one-block batches) are on allocation-free paths.
    let k = if n_chunks == 1 {
        1
    } else {
        num_threads().min(n_chunks)
    };
    if k <= 1 || pool::in_region() {
        #[cfg(feature = "telemetry")]
        let t0 = Instant::now();
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        #[cfg(feature = "telemetry")]
        finish_sequential(label, arg, t0, n_chunks as u64);
        return;
    }
    let grain = effective_grain(grain, n_chunks, k);
    let n_claims = n_chunks.div_ceil(grain);
    let next = AtomicUsize::new(0);
    let base = SendPtr(data.as_mut_ptr());
    let f = &f;
    run_pooled(k, label, arg, &move |_slot| {
        // `move` + this rebind capture the `SendPtr` wrapper itself;
        // disjoint capture would otherwise grab the bare `*mut T`,
        // which is not `Send`.
        let base = base;
        let mut claimed = 0u64;
        loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            if claim >= n_claims {
                break;
            }
            let first = claim * grain;
            let last = (first + grain).min(n_chunks);
            for ci in first..last {
                let start = ci * chunk_len;
                let end = (start + chunk_len).min(len);
                // SAFETY: `fetch_add` hands out each claim exactly once
                // and chunk ranges of distinct indices are disjoint, so
                // this is the only live reference to these elements; the
                // pointee outlives the region (the caller is blocked in
                // `run_pooled` until every worker finishes).
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
                f(ci, chunk);
            }
            claimed += (last - first) as u64;
        }
        claimed
    });
}

/// Ordered parallel map over `0..n`: returns `vec![f(0), f(1), …]` with
/// indices claimed dynamically by the worker pool. Output order — and
/// every bit of the output — is independent of the thread count.
///
/// Telemetry attributes the region to the generic `par.map` label; use
/// [`par_map_indexed_labeled`] to name the region.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_labeled(n, "par.map", None, f)
}

/// [`par_map_indexed`] with a named region — see
/// [`par_chunks_mut_labeled`] for what the label buys.
pub fn par_map_indexed_labeled<R, F>(n: usize, label: &'static str, arg: RegionArg, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_grained(n, 0, label, arg, f)
}

/// [`par_map_indexed_labeled`] with an explicit claim granularity hint
/// (`grain` consecutive indices per claim, 0 = automatic) — see
/// [`par_chunks_mut_grained`].
pub fn par_map_indexed_grained<R, F>(
    n: usize,
    grain: usize,
    label: &'static str,
    arg: RegionArg,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    #[cfg(not(feature = "telemetry"))]
    let _ = (label, arg);
    if n == 0 {
        // No work items: no region, no accounting, no busy slot.
        return Vec::new();
    }
    let k = num_threads().min(n);
    if k <= 1 || pool::in_region() {
        #[cfg(feature = "telemetry")]
        let t0 = Instant::now();
        let out = (0..n).map(f).collect();
        #[cfg(feature = "telemetry")]
        finish_sequential(label, arg, t0, n as u64);
        return out;
    }
    let grain = effective_grain(grain, n, k);
    let n_claims = n.div_ceil(grain);
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let base = SendPtr(out.as_mut_ptr());
    let f = &f;
    run_pooled(k, label, arg, &move |_slot| {
        let base = base; // capture the `SendPtr`, not the bare pointer
        let mut claimed = 0u64;
        loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            if claim >= n_claims {
                break;
            }
            let first = claim * grain;
            let last = (first + grain).min(n);
            for i in first..last {
                // SAFETY: index `i` belongs to exactly one claim, so no
                // other thread touches this element; the `Vec` outlives
                // the region (the caller is blocked in `run_pooled`).
                unsafe { *base.0.add(i) = Some(f(i)) };
            }
            claimed += (last - first) as u64;
        }
        claimed
    });
    out.into_iter()
        .map(|r| r.expect("claim loop covered every index"))
        .collect()
}

/// Round a claim granularity up to a multiple of the SIMD lane width, so
/// every work-item chunk a worker claims starts on a lane boundary and
/// only the final chunk of a region has a partial lane. Degenerate
/// arguments are clamped (`grain ≥ 1`, `lanes ≥ 1`).
pub fn lane_aligned(grain: usize, lanes: usize) -> usize {
    grain.max(1).next_multiple_of(lanes.max(1))
}

/// Ordered parallel map over a slice.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |k| f(&items[k]))
}

/// Ordered parallel map over a slice that hands each call the item's
/// index alongside the item, under a named region — the task-scheduling
/// entry point for callers (like the combination executor) that key
/// results and fault reports by task index rather than by arrival order.
pub fn par_map_enumerated_labeled<T, R, F>(items: &[T], label: &'static str, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_labeled(
        items.len(),
        label,
        Some(("tasks", items.len() as u64)),
        |k| f(k, &items[k]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_grain_caps_to_stealable_claims() {
        // Auto grain: ~4 claims per worker.
        assert_eq!(effective_grain(0, 1000, 4), 63);
        // Hints are honoured below the cap, clamped above it.
        assert_eq!(effective_grain(8, 1000, 4), 8);
        assert_eq!(effective_grain(500, 1000, 4), 63);
        // Degenerate shapes still claim at least one item at a time.
        assert_eq!(effective_grain(0, 1, 8), 1);
        assert_eq!(effective_grain(9999, 2, 2), 1);
    }

    #[test]
    fn lane_aligned_rounds_up_and_clamps() {
        assert_eq!(lane_aligned(64, 4), 64);
        assert_eq!(lane_aligned(63, 4), 64);
        assert_eq!(lane_aligned(1, 4), 4);
        assert_eq!(lane_aligned(7, 2), 8);
        // Scalar kernels (lane width 1) leave the grain unchanged...
        assert_eq!(lane_aligned(7, 1), 7);
        // ...and degenerate arguments are clamped, never zero.
        assert_eq!(lane_aligned(0, 4), 4);
        assert_eq!(lane_aligned(0, 0), 1);
    }

    #[test]
    fn chunked_sweep_visits_every_chunk_once() {
        let mut data: Vec<u64> = vec![0; 1003];
        par_chunks_mut(&mut data, 16, |ci, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 16 + k) as u64 + 1;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, k as u64 + 1);
        }
    }

    #[test]
    fn chunked_sweep_handles_degenerate_shapes() {
        let mut empty: Vec<u8> = vec![];
        par_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![7u8];
        par_chunks_mut(&mut one, 100, |ci, chunk| {
            assert_eq!(ci, 0);
            chunk[0] = 9;
        });
        assert_eq!(one, [9]);
    }

    #[test]
    fn map_preserves_order() {
        let out = par_map_indexed(501, |k| k * k);
        for (k, &v) in out.iter().enumerate() {
            assert_eq!(v, k * k);
        }
        let items: Vec<i64> = (0..97).collect();
        let doubled = par_map(&items, |&v| 2 * v);
        assert_eq!(doubled, (0..97).map(|v| 2 * v).collect::<Vec<_>>());
    }

    #[test]
    fn map_of_zero_items_is_empty() {
        assert!(par_map_indexed(0, |_| 0u8).is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn nested_regions_run_inline_and_stay_correct() {
        // sg-sim nests par_chunks_mut inside par_map; the inner region
        // must not wait on the pool the outer region occupies.
        let out = par_map_indexed(8, |outer| {
            let mut inner: Vec<u64> = vec![0; 257];
            par_chunks_mut(&mut inner, 16, |ci, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (outer * 10_000 + ci * 16 + k) as u64;
                }
            });
            inner.iter().sum::<u64>()
        });
        for (outer, &sum) in out.iter().enumerate() {
            let expect: u64 = (0..257u64).map(|j| outer as u64 * 10_000 + j).sum();
            assert_eq!(sum, expect, "outer={outer}");
        }
    }

    #[test]
    fn grained_variants_compute_the_same_results() {
        for grain in [0usize, 1, 3, 64] {
            let mut data: Vec<u64> = vec![0; 777];
            par_chunks_mut_grained(
                &mut data,
                8,
                grain,
                "test.par.grained_sweep",
                None,
                |ci, c| {
                    for (k, v) in c.iter_mut().enumerate() {
                        *v = (ci * 8 + k) as u64;
                    }
                },
            );
            for (k, &v) in data.iter().enumerate() {
                assert_eq!(v, k as u64, "grain={grain}");
            }
            let out = par_map_indexed_grained(123, grain, "test.par.grained_map", None, |k| 3 * k);
            assert_eq!(out, (0..123).map(|k| 3 * k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn labeled_variants_compute_the_same_results() {
        let mut data: Vec<u64> = vec![0; 777];
        par_chunks_mut_labeled(
            &mut data,
            8,
            "test.par.labeled_sweep",
            Some(("g", 3)),
            |ci, c| {
                for (k, v) in c.iter_mut().enumerate() {
                    *v = (ci * 8 + k) as u64;
                }
            },
        );
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, k as u64);
        }
        let out = par_map_indexed_labeled(123, "test.par.labeled_map", None, |k| 3 * k);
        assert_eq!(out, (0..123).map(|k| 3 * k).collect::<Vec<_>>());
    }

    /// Labeled regions land in the telemetry imbalance table, with one
    /// busy/wait slot per worker (or one slot for the sequential
    /// fallback), the claimed-chunk counts summing to the chunk count,
    /// and the counters bumped.
    #[cfg(feature = "telemetry")]
    #[test]
    fn labeled_region_is_accounted() {
        let mut data: Vec<u64> = vec![0; 4096];
        par_chunks_mut_labeled(
            &mut data,
            16,
            "test.par.accounted",
            Some(("group", 7)),
            |_, c| {
                for v in c.iter_mut() {
                    *v = std::hint::black_box(*v + 1);
                }
            },
        );
        let stats = sg_telemetry::regions::report();
        let stat = stats
            .iter()
            .find(|s| s.label == "test.par.accounted" && s.arg == Some(("group", 7)))
            .expect("labeled region recorded");
        assert_eq!(stat.count, 1);
        assert!(!stat.busy_ns.is_empty());
        assert_eq!(stat.busy_ns.len(), stat.wait_ns.len());
        assert_eq!(stat.busy_ns.len(), stat.chunks.len());
        let total_claimed: u64 = stat.chunks.iter().sum();
        assert_eq!(total_claimed, 4096 / 16, "every chunk claimed exactly once");
        assert!(stat.imbalance() >= 1.0);
        assert!(sg_telemetry::snapshot().counter("par.regions").unwrap_or(0) >= 1);
    }
}
