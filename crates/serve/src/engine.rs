//! The batching engine: bounded admission queue, request coalescing,
//! and lane-aligned batch execution against the pinned model.
//!
//! Concurrent connections submit [`Job`]s into one bounded queue (a
//! full queue is answered with a typed `overloaded` reply — admission
//! control, not backpressure-by-hanging). A dedicated executor thread
//! drains the queue, **coalesces** consecutive jobs targeting the same
//! model into one flat batch (up to `batch_max_points`), pins an epoch,
//! and evaluates the whole batch with
//! [`sg_core::evaluate::evaluate_batch_into`] through the model's shared
//! [`sg_core::plan::EvalPlan`] — inline for a batch of one block, on the
//! sg-par pool for a larger one. Per-point results are independent, so
//! coalescing and chunking are bitwise-neutral: the daemon's answers are
//! identical to direct `sg_core::evaluate` calls.
//!
//! ## Zero-allocation steady state
//!
//! Every buffer on the request path is owned and reused: the
//! connection's [`Job`] (coordinates in, results out — ffsvm's
//! `Problem` idiom), the executor's staging/batch buffers, the
//! evaluator's per-thread scratch (owned by sg-core), and the queue
//! itself (preallocated to its depth; `Arc<Job>` clones only bump a
//! refcount). After warm-up, a one-block request allocates nothing on
//! client, queue, or executor side — asserted by a counting-allocator
//! test.

use crate::fleet::{Fleet, Model};
use crate::protocol::ServeError;
use sg_core::evaluate::{evaluate_batch_into, BLOCK};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[cfg(feature = "telemetry")]
static REQUESTS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.requests");
#[cfg(feature = "telemetry")]
static POINTS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.points");
#[cfg(feature = "telemetry")]
static OVERLOADS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.overload");
#[cfg(feature = "telemetry")]
static BATCHES: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.batches");
#[cfg(feature = "telemetry")]
static QUEUE_DEPTH: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.queue.depth");
#[cfg(feature = "telemetry")]
static BATCH_POINTS: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.batch.points");
#[cfg(feature = "telemetry")]
static BATCH_JOBS: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.batch.jobs");
#[cfg(feature = "telemetry")]
static BATCH_NS: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.batch.ns");
#[cfg(feature = "telemetry")]
static DEADLINE_EXPIRED: sg_telemetry::Counter =
    sg_telemetry::Counter::new("serve.deadline.expired");
#[cfg(feature = "telemetry")]
static DEADLINE_MET: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.deadline.met");
#[cfg(feature = "telemetry")]
static DRAIN_FLUSHED: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.drain.flushed");
#[cfg(feature = "telemetry")]
static DRAIN_REJECTED: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.drain.rejected");
#[cfg(feature = "telemetry")]
static DRAIN_FORCED: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.drain.forced");
#[cfg(feature = "telemetry")]
static DEGRADED_REQUESTS: sg_telemetry::Counter =
    sg_telemetry::Counter::new("serve.degraded.requests");

/// Tunables for the daemon, each with an `SGD_*` environment knob.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission queue depth (`SGD_QUEUE_DEPTH`, default 256, min 1).
    pub queue_depth: usize,
    /// Max points one coalesced batch executes
    /// (`SGD_BATCH_MAX_POINTS`, default 16384, min 1). Also the per-
    /// request point ceiling.
    pub batch_max_points: usize,
    /// Max wire-frame payload bytes (`SGD_MAX_FRAME`, default 16 MiB,
    /// min 64).
    pub max_frame: usize,
    /// Max concurrently loaded models (`SGD_MAX_MODELS`, default 64,
    /// min 1).
    pub max_models: usize,
    /// Socket read/write/connect stall limit in milliseconds
    /// (`SGD_IO_TIMEOUT_MS`, default 30000, min 10): a transfer that
    /// makes no progress for this long is a typed `timed_out` failure,
    /// so a slowloris peer can never pin a thread.
    pub io_timeout_ms: usize,
    /// Idle-connection reap limit in milliseconds
    /// (`SGD_IDLE_TIMEOUT_MS`, default 300000, min 10): a connection
    /// with no request in flight and no bytes arriving for this long is
    /// closed and counted under `serve.conn.idle_reaped`.
    pub idle_timeout_ms: usize,
    /// Graceful-drain bound in milliseconds (`SGD_DRAIN_TIMEOUT_MS`,
    /// default 10000, min 1): on shutdown, accepted jobs get this long
    /// to finish and flush before the drain is forced.
    pub drain_timeout_ms: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 256,
            batch_max_points: 16384,
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            max_models: 64,
            io_timeout_ms: 30_000,
            idle_timeout_ms: 300_000,
            drain_timeout_ms: 10_000,
        }
    }
}

impl ServeConfig {
    /// Read every knob from the environment, warning once (stderr, one
    /// line) about any out-of-range or unparseable value.
    pub fn from_env() -> ServeConfig {
        let d = ServeConfig::default();
        ServeConfig {
            queue_depth: crate::env_knob("SGD_QUEUE_DEPTH", d.queue_depth, 1),
            batch_max_points: crate::env_knob("SGD_BATCH_MAX_POINTS", d.batch_max_points, 1),
            max_frame: crate::env_knob("SGD_MAX_FRAME", d.max_frame, 64),
            max_models: crate::env_knob("SGD_MAX_MODELS", d.max_models, 1),
            io_timeout_ms: crate::env_knob("SGD_IO_TIMEOUT_MS", d.io_timeout_ms, 10),
            idle_timeout_ms: crate::env_knob("SGD_IDLE_TIMEOUT_MS", d.idle_timeout_ms, 10),
            drain_timeout_ms: crate::env_knob("SGD_DRAIN_TIMEOUT_MS", d.drain_timeout_ms, 1),
        }
    }
}

/// Request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Owned by the connection; buffers may be rewritten.
    Idle,
    /// In the admission queue or being executed.
    Queued,
    /// Results are in `out`.
    Done,
    /// `err` describes the failure.
    Failed,
}

/// Mutable request state: coordinates in, results out.
struct JobState {
    phase: Phase,
    /// Fleet slot the request targets (resolved by the submitter).
    slot: usize,
    /// Dimensionality the coordinates were laid out for.
    dim: usize,
    /// Absolute expiry instant (None = no deadline). A job still queued
    /// past this instant fails typed instead of burning pool time.
    deadline: Option<Instant>,
    /// The model that produced `out` was serving degraded (valid in
    /// `Done`).
    degraded: bool,
    /// Flat query coordinates (`npoints · dim`).
    xs: Vec<f64>,
    /// Flat results (`npoints`), valid in `Done`.
    out: Vec<f64>,
    err: Option<ServeError>,
}

/// A connection's reusable request workspace. One `Job` lives as long
/// as its connection and carries every per-request buffer, so the
/// steady-state request path allocates nothing.
pub struct Job {
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn new() -> Arc<Job> {
        Arc::new(Job {
            state: Mutex::new(JobState {
                phase: Phase::Idle,
                slot: 0,
                dim: 0,
                deadline: None,
                degraded: false,
                xs: Vec::new(),
                out: Vec::new(),
                err: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Read the results of a completed request: `f` sees the output
    /// slice. Panics if the job is not `Done`.
    pub fn with_results<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        let st = self.lock();
        assert_eq!(st.phase, Phase::Done, "job has no results to read");
        f(&st.out)
    }

    /// Whether the completed request was served by a degraded model
    /// (lost snapshot sections evaluated as zero). Panics unless `Done`.
    pub fn served_degraded(&self) -> bool {
        let st = self.lock();
        assert_eq!(st.phase, Phase::Done, "job has no results to read");
        st.degraded
    }

    /// Return a completed (or never-submitted) job to `Idle` so it can
    /// be prepared again. Must not be called while the job is in flight.
    pub fn recycle(&self) {
        let mut st = self.lock();
        assert_ne!(st.phase, Phase::Queued, "cannot recycle an in-flight job");
        st.phase = Phase::Idle;
        st.err = None;
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    /// Hard stop: queued jobs fail with `shutting_down`.
    shutdown: AtomicBool,
    /// Graceful drain: admissions rejected, accepted jobs still execute
    /// and flush; the executor exits once the queue runs dry.
    draining: AtomicBool,
    cfg: ServeConfig,
}

/// The serving engine: fleet + admission queue + executor thread.
pub struct Engine {
    fleet: Arc<Fleet>,
    shared: Arc<Shared>,
    executor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Build an engine over `fleet` and start its executor thread.
    pub fn new(fleet: Arc<Fleet>, cfg: ServeConfig) -> Arc<Engine> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_depth)),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            cfg,
        });
        let executor = {
            let fleet = Arc::clone(&fleet);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sgd-executor".into())
                .spawn(move || executor_loop(&fleet, &shared))
                .expect("spawning the sgd executor failed")
        };
        Arc::new(Engine {
            fleet,
            shared,
            executor: Mutex::new(Some(executor)),
        })
    }

    /// The model fleet this engine serves.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Allocate a connection workspace (once per connection).
    pub fn make_job(&self) -> Arc<Job> {
        Job::new()
    }

    /// Prepare `job` for a request against `slot`: `fill` writes the
    /// flat coordinates into the job's reused buffer and returns the
    /// point count. Validates shape and domain — out-of-domain points
    /// must be rejected here with a typed error, never panic the
    /// executor. `deadline` (absolute; `None` = unbounded) is checked by
    /// the executor before evaluation starts.
    pub fn prepare(
        &self,
        job: &Job,
        slot: usize,
        dim: usize,
        deadline: Option<Instant>,
        fill: impl FnOnce(&mut Vec<f64>),
    ) -> Result<(), ServeError> {
        let mut st = job.lock();
        assert_eq!(st.phase, Phase::Idle, "job reused while in flight");
        st.slot = slot;
        st.dim = dim;
        st.deadline = deadline;
        st.xs.clear();
        fill(&mut st.xs);
        if dim == 0 || st.xs.len() % dim != 0 {
            return Err(ServeError::BadRequest(format!(
                "coordinate count {} is not a multiple of the dimensionality {dim}",
                st.xs.len()
            )));
        }
        let npoints = st.xs.len() / dim;
        if npoints == 0 {
            return Err(ServeError::BadRequest("request carries zero points".into()));
        }
        if npoints > self.shared.cfg.batch_max_points {
            return Err(ServeError::BadRequest(format!(
                "request of {npoints} points exceeds the {}-point limit",
                self.shared.cfg.batch_max_points
            )));
        }
        if !st
            .xs
            .iter()
            .all(|v| v.is_finite() && (0.0..=1.0).contains(v))
        {
            return Err(ServeError::BadRequest(
                "query point outside the unit domain".into(),
            ));
        }
        Ok(())
    }

    /// Submit a prepared job. Admission control happens here: a full
    /// queue rejects immediately with [`ServeError::Overloaded`].
    pub fn submit(&self, job: &Arc<Job>) -> Result<(), ServeError> {
        {
            let mut st = job.lock();
            st.phase = Phase::Queued;
            st.err = None;
        }
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        // Checked under the queue lock: the executor only decides to
        // exit (drain complete) while holding this lock and seeing an
        // empty queue, so a job admitted here is guaranteed to execute.
        if self.shared.shutdown.load(Ordering::SeqCst)
            || self.shared.draining.load(Ordering::SeqCst)
        {
            job.lock().phase = Phase::Idle;
            tel! {
                if self.shared.draining.load(Ordering::SeqCst) {
                    DRAIN_REJECTED.add(1);
                }
            }
            return Err(ServeError::ShuttingDown);
        }
        if q.len() >= self.shared.cfg.queue_depth {
            job.lock().phase = Phase::Idle;
            tel! {
                OVERLOADS.add(1);
            }
            return Err(ServeError::Overloaded);
        }
        q.push_back(Arc::clone(job));
        tel! {
            QUEUE_DEPTH.record(q.len() as u64);
        }
        drop(q);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Block until `job` completes; leaves the job `Idle` for reuse.
    /// On success the results are readable via [`Job::with_results`]
    /// until the next [`Engine::prepare`].
    pub fn wait(&self, job: &Job) -> Result<(), ServeError> {
        let mut st = job.lock();
        while st.phase == Phase::Queued {
            st = job.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        match st.phase {
            Phase::Done => Ok(()),
            Phase::Failed => {
                st.phase = Phase::Idle;
                Err(st.err.take().unwrap_or(ServeError::ShuttingDown))
            }
            Phase::Idle | Phase::Queued => unreachable!("woken in phase {:?}", st.phase),
        }
    }

    /// Convenience: prepare + submit + wait, returning the results as a
    /// fresh vector (test/control paths; the hot path uses the pieces).
    pub fn eval(
        &self,
        job: &Arc<Job>,
        model: &str,
        dim: usize,
        xs: &[f64],
    ) -> Result<Vec<f64>, ServeError> {
        let slot = self
            .fleet
            .resolve(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()))?;
        {
            // Reset a job left in `Done` by a previous eval.
            let mut st = job.lock();
            if st.phase == Phase::Done {
                st.phase = Phase::Idle;
            }
        }
        self.prepare(job, slot, dim, None, |buf| buf.extend_from_slice(xs))?;
        self.submit(job)?;
        self.wait(job)?;
        let out = job.with_results(|ys| ys.to_vec());
        job.lock().phase = Phase::Idle;
        Ok(out)
    }

    /// Abort: fail queued jobs with `shutting_down`, stop the executor,
    /// and join it. Idempotent. For a graceful stop that finishes
    /// accepted work, use [`Engine::drain`] first.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        if let Some(h) = self
            .executor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
    }

    /// Graceful drain: stop admissions (further [`Engine::submit`]s fail
    /// typed `shutting_down`), finish and flush every already-accepted
    /// job, then stop the executor. Bounded by `limit`: if the queue has
    /// not run dry in time, the drain escalates to a hard shutdown and
    /// the stragglers fail typed. Returns `true` when every accepted
    /// job completed within the bound. Idempotent with `shutdown`.
    pub fn drain(&self, limit: Duration) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        let deadline = Instant::now() + limit;
        let mut executor = self.executor.lock().unwrap_or_else(|e| e.into_inner());
        let Some(h) = executor.take() else {
            return true; // already stopped
        };
        while !h.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let clean = h.is_finished();
        if !clean {
            tel! {
                DRAIN_FORCED.add(1);
            }
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.shared.work_cv.notify_all();
        }
        let _ = h.join();
        clean
    }

    /// Current queue length (stats).
    pub fn queue_len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fail a job with `err` and wake its waiter.
fn fail(job: &Job, err: ServeError) {
    let mut st = job.lock();
    st.phase = Phase::Failed;
    st.err = Some(err);
    job.cv.notify_all();
}

/// The executor: drain → coalesce → pin → evaluate → scatter.
fn executor_loop(fleet: &Arc<Fleet>, shared: &Arc<Shared>) {
    let cfg = shared.cfg;
    let reader = fleet.register_reader();
    // Steady-state buffers, grown once and reused forever.
    let mut batch: Vec<Arc<Job>> = Vec::with_capacity(cfg.queue_depth);
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(cfg.queue_depth);
    let mut xs_all: Vec<f64> = Vec::new();
    let mut out_all: Vec<f64> = Vec::new();

    loop {
        batch.clear();
        let slot0;
        {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let first = loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                // Empty queue + stop request: drain complete (this is
                // the only exit, and it happens under the queue lock —
                // the other half of the submit-side race guard).
                if shared.shutdown.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst)
                {
                    return;
                }
                q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            };
            let now = Instant::now();
            let (s0, mut points) = {
                let st = first.lock();
                (st.slot, st.xs.len() / st.dim.max(1))
            };
            slot0 = s0;
            batch.push(first);
            // Coalesce queued jobs for the same model, preserving FIFO
            // order among them, until the batch budget is spent. Jobs
            // whose deadline already passed are failed typed here, before
            // any pool time is spent on them.
            let mut i = 0;
            while i < q.len() {
                let (slot, npoints, expired) = {
                    let st = q[i].lock();
                    (
                        st.slot,
                        st.xs.len() / st.dim.max(1),
                        st.deadline.is_some_and(|d| d <= now),
                    )
                };
                if expired {
                    let job = q.remove(i).expect("index checked");
                    tel! {
                        DEADLINE_EXPIRED.add(1);
                    }
                    fail(&job, ServeError::DeadlineExceeded);
                } else if slot == slot0 && points + npoints <= cfg.batch_max_points {
                    points += npoints;
                    batch.push(q.remove(i).expect("index checked"));
                } else {
                    i += 1;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            for job in &batch {
                fail(job, ServeError::ShuttingDown);
            }
            continue;
        }
        // Expiry check for the batch itself (the coalesce pass above
        // only scans jobs still in the queue).
        let now = Instant::now();
        batch.retain(|job| {
            let expired = job.lock().deadline.is_some_and(|d| d <= now);
            if expired {
                tel! {
                    DEADLINE_EXPIRED.add(1);
                }
                fail(job, ServeError::DeadlineExceeded);
            }
            !expired
        });
        if batch.is_empty() {
            continue;
        }
        tel! {
            DEADLINE_MET.add(batch.iter().filter(|j| j.lock().deadline.is_some()).count() as u64);
            if shared.draining.load(Ordering::SeqCst) {
                DRAIN_FLUSHED.add(batch.len() as u64);
            }
        }

        let guard = reader.pin();
        let Some(model) = fleet.get(slot0, &guard) else {
            for job in &batch {
                // The connection substitutes the name it resolved.
                fail(job, ServeError::UnknownModel(String::new()));
            }
            continue;
        };
        execute_batch(model, &batch, &mut spans, &mut xs_all, &mut out_all);
        drop(guard);
    }
}

/// Evaluate one coalesced batch against the pinned model and scatter
/// results back to the jobs. Shape-mismatched jobs (the model was
/// swapped to a different dimensionality mid-flight) get typed errors;
/// the rest proceed.
fn execute_batch(
    model: &Model,
    batch: &[Arc<Job>],
    spans: &mut Vec<(usize, usize)>,
    xs_all: &mut Vec<f64>,
    out_all: &mut Vec<f64>,
) {
    let d = model.dim();
    xs_all.clear();
    spans.clear();
    for job in batch {
        let st = job.lock();
        if st.dim != d {
            let (expected, actual) = (st.dim, d);
            drop(st);
            fail(job, ServeError::ShapeMismatch { expected, actual });
            spans.push((usize::MAX, 0));
            continue;
        }
        let start = xs_all.len() / d;
        xs_all.extend_from_slice(&st.xs);
        spans.push((start, st.xs.len() / d));
    }
    let total = xs_all.len() / d.max(1);
    if total == 0 {
        return;
    }
    out_all.clear();
    out_all.resize(total, 0.0);

    #[cfg(feature = "telemetry")]
    let t0 = std::time::Instant::now();
    // The evaluator validates its inputs by panicking; `prepare` has
    // already rejected bad requests, so this is the last resort.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        evaluate_batch_into(&model.grid, xs_all, BLOCK, &model.plan, out_all)
    }))
    .is_err();
    tel! {
        if !panicked {
            let jobs = spans.iter().filter(|s| s.0 != usize::MAX).count() as u64;
            REQUESTS.add(jobs);
            POINTS.add(total as u64);
            BATCHES.add(1);
            BATCH_JOBS.record(jobs);
            BATCH_POINTS.record(total as u64);
            BATCH_NS.record(t0.elapsed().as_nanos() as u64);
            model.record_served(jobs, total as u64);
            if model.is_degraded() {
                DEGRADED_REQUESTS.add(jobs);
            }
        }
    }

    let degraded = model.is_degraded();
    for (job, &(start, npoints)) in batch.iter().zip(spans.iter()) {
        if start == usize::MAX {
            continue; // already failed with ShapeMismatch
        }
        if panicked {
            fail(job, ServeError::BadRequest("evaluation failed".into()));
            continue;
        }
        let mut st = job.lock();
        st.out.clear();
        st.out.extend_from_slice(&out_all[start..start + npoints]);
        st.degraded = degraded;
        st.phase = Phase::Done;
        job.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::hierarchize::hierarchize;
    use sg_core::level::GridSpec;

    fn snapshot(tag: &str) -> std::path::PathBuf {
        let mut g = sg_core::grid::CompactGrid::from_fn(GridSpec::new(3, 4), |x| {
            (7.0 * x[0]).sin() + x[1] * x[2]
        });
        hierarchize(&mut g);
        let path =
            std::env::temp_dir().join(format!("sg-serve-engine-{}-{tag}.sgcs", std::process::id()));
        sg_io::write_snapshot_file(&g, &path, "engine-test").unwrap();
        path
    }

    #[test]
    fn engine_answers_match_direct_evaluation_bitwise() {
        let path = snapshot("bitwise");
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        let engine = Engine::new(Arc::clone(&fleet), ServeConfig::default());
        let job = engine.make_job();
        let xs: Vec<f64> = (0..3 * 97).map(|i| (i as f64 * 0.37).fract()).collect();
        let got = engine.eval(&job, "m", 3, &xs).unwrap();
        let reference = fleet
            .with_model(&fleet.register_reader(), "m", |m| {
                sg_core::evaluate::evaluate_batch(&m.grid, &xs)
            })
            .unwrap();
        assert_eq!(got.len(), 97);
        for (g, r) in got.iter().zip(reference.iter()) {
            assert_eq!(g.to_bits(), r.to_bits(), "daemon diverged from direct eval");
        }
        engine.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_model_and_bad_requests_are_typed() {
        let path = snapshot("typed");
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        let engine = Engine::new(Arc::clone(&fleet), ServeConfig::default());
        let job = engine.make_job();
        assert!(matches!(
            engine.eval(&job, "nope", 3, &[0.5, 0.5, 0.5]),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            engine.eval(&job, "m", 3, &[0.5, 0.5]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.eval(&job, "m", 3, &[]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.eval(&job, "m", 3, &[0.5, 0.5, 1.5]),
            Err(ServeError::BadRequest(_))
        ));
        // The job is reusable after every typed failure.
        assert_eq!(
            engine.eval(&job, "m", 3, &[0.5, 0.5, 0.5]).unwrap().len(),
            1
        );
        engine.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let path = snapshot("concurrent");
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        let engine = Engine::new(Arc::clone(&fleet), ServeConfig::default());
        std::thread::scope(|s| {
            for t in 0..8 {
                let engine = &engine;
                s.spawn(move || {
                    let job = engine.make_job();
                    for r in 0..50 {
                        let x = ((t * 131 + r * 17) % 100) as f64 / 100.0;
                        let got = engine.eval(&job, "m", 3, &[x, x, x]).unwrap();
                        assert_eq!(got.len(), 1);
                    }
                });
            }
        });
        engine.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overload_is_reported_not_queued() {
        let path = snapshot("overload");
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        let cfg = ServeConfig {
            queue_depth: 1,
            ..ServeConfig::default()
        };
        let engine = Engine::new(Arc::clone(&fleet), cfg);
        // Stuff the queue faster than the executor can drain by
        // submitting without waiting.
        let mut jobs = Vec::new();
        let mut overloads = 0;
        for _ in 0..64 {
            let job = engine.make_job();
            engine
                .prepare(&job, fleet.resolve("m").unwrap(), 3, None, |b| {
                    b.extend_from_slice(&[0.5, 0.5, 0.5])
                })
                .unwrap();
            match engine.submit(&job) {
                Ok(()) => jobs.push(job),
                Err(ServeError::Overloaded) => overloads += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        for job in &jobs {
            engine.wait(job).unwrap();
        }
        // With depth 1 and 64 rapid submissions, at least one must have
        // been admitted and the test must have seen both outcomes or
        // the executor simply kept up (all admitted) — either way no
        // request hung.
        assert!(!jobs.is_empty());
        let _ = overloads;
        engine.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn expired_deadline_fails_typed_without_evaluation() {
        let path = snapshot("deadline");
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        let engine = Engine::new(Arc::clone(&fleet), ServeConfig::default());
        let job = engine.make_job();
        // A deadline already in the past must come back typed, never as
        // results.
        let past = Instant::now() - Duration::from_millis(5);
        engine
            .prepare(&job, fleet.resolve("m").unwrap(), 3, Some(past), |b| {
                b.extend_from_slice(&[0.5, 0.5, 0.5])
            })
            .unwrap();
        engine.submit(&job).unwrap();
        assert!(matches!(
            engine.wait(&job),
            Err(ServeError::DeadlineExceeded)
        ));
        // A generous deadline still succeeds, and the job is reusable.
        job.recycle();
        let future = Instant::now() + Duration::from_secs(60);
        engine
            .prepare(&job, fleet.resolve("m").unwrap(), 3, Some(future), |b| {
                b.extend_from_slice(&[0.5, 0.5, 0.5])
            })
            .unwrap();
        engine.submit(&job).unwrap();
        engine.wait(&job).unwrap();
        assert!(!job.served_degraded());
        engine.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drain_completes_accepted_jobs_and_rejects_new_ones() {
        let path = snapshot("drain");
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        let engine = Engine::new(Arc::clone(&fleet), ServeConfig::default());
        // Queue a burst of jobs without waiting on them.
        let mut jobs = Vec::new();
        for _ in 0..32 {
            let job = engine.make_job();
            engine
                .prepare(&job, fleet.resolve("m").unwrap(), 3, None, |b| {
                    b.extend_from_slice(&[0.25, 0.5, 0.75])
                })
                .unwrap();
            if engine.submit(&job).is_ok() {
                jobs.push(job);
            }
        }
        assert!(engine.drain(Duration::from_secs(30)), "drain was forced");
        // Every accepted job completed with results — zero lost.
        for job in &jobs {
            engine.wait(job).unwrap();
            job.with_results(|ys| assert_eq!(ys.len(), 1));
        }
        // Post-drain admissions are typed shutting_down.
        let late = engine.make_job();
        engine
            .prepare(&late, fleet.resolve("m").unwrap(), 3, None, |b| {
                b.extend_from_slice(&[0.5, 0.5, 0.5])
            })
            .unwrap();
        assert!(matches!(
            engine.submit(&late),
            Err(ServeError::ShuttingDown)
        ));
        engine.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
