//! The serving engine: admission control, then evaluation on the thread
//! that read the request.
//!
//! A connection thread calls [`Engine::eval_into`] for each request: the
//! engine resolves the model, validates the coordinates, waits at the
//! admission gate, pins an epoch and evaluates with
//! [`sg_core::evaluate::evaluate_batch_into`] through the model's shared
//! [`sg_core::plan::EvalPlan`] — inline for one block, on the sg-par pool
//! for more. Per-point results are independent, so the daemon's answers
//! are bitwise identical to direct `sg_core::evaluate` calls.
//!
//! ## Admission
//!
//! The gate is one mutex and condvar over the points in flight, with
//! `batch_max_points` as the budget. Every arrival takes a ticket and
//! requests are admitted in ticket order, so a large request is never
//! starved by small ones that arrive after it. A request of more than
//! one block is charged the whole budget: it runs on the sg-par pool,
//! which serves one region at a time with every worker, so it runs alone
//! and the requests behind it wait here — in arrival order, under their
//! deadlines and the drain — rather than inside the pool. An arrival
//! that would wait while `queue_depth` requests already do is answered
//! `overloaded`; a waiter whose deadline passes leaves with
//! `deadline_exceeded`, unevaluated.
//!
//! ## Zero-allocation steady state
//!
//! Every buffer on the request path is owned and reused: the
//! connection's coordinates and results (ffsvm's `Problem` idiom), the
//! evaluator's per-thread scratch (owned by sg-core) and the gate's line
//! of waiting tickets (preallocated to the queue depth). After warm-up a
//! request allocates nothing — asserted by a counting-allocator test
//! for one-block requests, and for pooled ones once the pool width is
//! fixed, as `sgd` fixes it at start-up.

use crate::epoch::Participant;
use crate::fleet::{Fleet, Model};
use crate::protocol::ServeError;
use sg_core::evaluate::{evaluate_batch_into, BLOCK};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[cfg(feature = "telemetry")]
static REQUESTS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.requests");
#[cfg(feature = "telemetry")]
static POINTS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.points");
#[cfg(feature = "telemetry")]
static OVERLOADS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.overload");
#[cfg(feature = "telemetry")]
static QUEUE_DEPTH: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.queue.depth");
#[cfg(feature = "telemetry")]
static BATCH_POINTS: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.batch.points");
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
    /// Most requests that may wait for admission at once
    /// (`SGD_QUEUE_DEPTH`, default 256, min 1); an arrival that would
    /// wait beyond it is answered `overloaded`.
    pub queue_depth: usize,
    /// Points one request may carry, and the budget of points in flight
    /// across all requests (`SGD_BATCH_MAX_POINTS`, default 16384, min 1).
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
    /// default 10000, min 1): on shutdown, admitted and waiting requests
    /// get this long to finish and flush before the drain is forced.
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

/// The admission gate's state.
struct GateState {
    /// Points held by admitted requests.
    in_flight: usize,
    /// Ticket of the next arrival.
    next_ticket: u64,
    /// Tickets of the requests waiting for admission, oldest first; only
    /// the front one may be admitted.
    line: VecDeque<u64>,
    /// Arrivals are rejected; waiting requests still go through.
    draining: bool,
    /// Arrivals are rejected and waiting requests fail `shutting_down`.
    stopped: bool,
}

/// Admission control: a budget of points in flight and a FIFO line of
/// waiting requests.
struct Gate {
    state: Mutex<GateState>,
    /// Signalled when points are released, the line moves, or the
    /// engine drains or stops.
    cv: Condvar,
    budget: usize,
    depth: usize,
}

/// An admitted request's share of the budget, released on drop.
struct Permit<'a> {
    gate: &'a Gate,
    points: usize,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait for `points` of the budget, in arrival order. Fails
    /// `shutting_down` once the engine drains (for arrivals) or stops
    /// (also for waiters), `overloaded` when the arrival would wait and
    /// the line is full, and `deadline_exceeded` when `deadline` passes
    /// before admission.
    fn admit(&self, points: usize, deadline: Option<Instant>) -> Result<Permit<'_>, ServeError> {
        let mut st = self.lock();
        if st.stopped || st.draining {
            tel! {
                if st.draining {
                    DRAIN_REJECTED.add(1);
                }
            }
            return Err(ServeError::ShuttingDown);
        }
        tel! {
            QUEUE_DEPTH.record(st.line.len() as u64);
        }
        let must_wait = !st.line.is_empty() || st.in_flight + points > self.budget;
        if must_wait && st.line.len() >= self.depth {
            tel! {
                OVERLOADS.add(1);
            }
            return Err(ServeError::Overloaded);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.line.push_back(ticket);
        loop {
            let now = Instant::now();
            let expired = deadline.is_some_and(|d| d <= now);
            if st.stopped || expired {
                let at = st.line.iter().position(|&t| t == ticket);
                st.line
                    .remove(at.expect("a waiting request holds its place in line"));
                self.cv.notify_all();
                if st.stopped {
                    return Err(ServeError::ShuttingDown);
                }
                tel! {
                    DEADLINE_EXPIRED.add(1);
                }
                return Err(ServeError::DeadlineExceeded);
            }
            if st.line.front() == Some(&ticket) && st.in_flight + points <= self.budget {
                break;
            }
            st = match deadline {
                Some(d) => {
                    self.cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            };
        }
        st.line.pop_front();
        st.in_flight += points;
        if !st.line.is_empty() {
            // The new front may fit beside this request.
            self.cv.notify_all();
        }
        tel! {
            if deadline.is_some() {
                DEADLINE_MET.add(1);
            }
            if st.draining {
                DRAIN_FLUSHED.add(1);
            }
        }
        Ok(Permit { gate: self, points })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.in_flight -= self.points;
        // Nobody to wake on the common path: no line, no drain.
        if !st.line.is_empty() || st.draining {
            self.gate.cv.notify_all();
        }
    }
}

/// The serving engine: the fleet, the configuration and the admission
/// gate. It owns no thread; requests run on their callers' threads.
pub struct Engine {
    fleet: Arc<Fleet>,
    cfg: ServeConfig,
    gate: Gate,
}

impl Engine {
    /// Build an engine over `fleet`.
    pub fn new(fleet: Arc<Fleet>, cfg: ServeConfig) -> Arc<Engine> {
        Arc::new(Engine {
            fleet,
            cfg,
            gate: Gate {
                state: Mutex::new(GateState {
                    in_flight: 0,
                    next_ticket: 0,
                    line: VecDeque::with_capacity(cfg.queue_depth),
                    draining: false,
                    stopped: false,
                }),
                cv: Condvar::new(),
                budget: cfg.batch_max_points,
                depth: cfg.queue_depth,
            },
        })
    }

    /// The model fleet this engine serves.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Evaluate one request on the calling thread: `xs` holds `dim`
    /// coordinates per point, and `out` receives one result per point.
    /// Returns whether the answering model serves degraded. Bad shapes,
    /// empty or oversized requests and out-of-domain points are rejected
    /// typed before admission; `deadline` (absolute, `None` = unbounded)
    /// is screened while the request waits for admission. `reader` is
    /// the caller's epoch registration (one per connection), so a
    /// steady-state request allocates nothing.
    pub fn eval_into(
        &self,
        reader: &Participant<Model>,
        model: &str,
        dim: usize,
        deadline: Option<Instant>,
        xs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, ServeError> {
        let unknown = || ServeError::UnknownModel(model.to_owned());
        let slot = self.fleet.resolve(model).ok_or_else(unknown)?;
        let npoints = self.validate(dim, xs)?;
        let charge = if npoints > BLOCK {
            self.cfg.batch_max_points
        } else {
            npoints
        };
        let _permit = self.gate.admit(charge, deadline)?;
        let guard = reader.pin();
        // `None` when the model was unloaded while the request waited.
        let m = self.fleet.get(slot, &guard).ok_or_else(unknown)?;
        if m.dim() != dim {
            return Err(ServeError::ShapeMismatch {
                expected: dim,
                actual: m.dim(),
            });
        }
        out.clear();
        out.resize(npoints, 0.0);
        #[cfg(feature = "telemetry")]
        let t0 = Instant::now();
        // The evaluator validates its inputs by panicking; `validate` has
        // already rejected bad requests, so this is the last resort.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            evaluate_batch_into(&m.grid, xs, BLOCK, &m.plan, out)
        }))
        .map_err(|_| ServeError::BadRequest("evaluation failed".into()))?;
        tel! {
            BATCH_NS.record(t0.elapsed().as_nanos() as u64);
            BATCH_POINTS.record(npoints as u64);
            REQUESTS.add(1);
            POINTS.add(npoints as u64);
            m.record_served(1, npoints as u64);
            if m.is_degraded() {
                DEGRADED_REQUESTS.add(1);
            }
        }
        Ok(m.is_degraded())
    }

    /// Convenience for tests and control paths: [`Engine::eval_into`]
    /// with a fresh reader and result vector and no deadline.
    pub fn eval(&self, model: &str, dim: usize, xs: &[f64]) -> Result<Vec<f64>, ServeError> {
        let mut out = Vec::new();
        self.eval_into(
            &self.fleet.register_reader(),
            model,
            dim,
            None,
            xs,
            &mut out,
        )?;
        Ok(out)
    }

    /// The request's point count, or a typed rejection of its shape,
    /// size or domain. Out-of-domain points must be rejected here: the
    /// evaluator panics on them.
    fn validate(&self, dim: usize, xs: &[f64]) -> Result<usize, ServeError> {
        if dim == 0 || xs.len() % dim != 0 {
            return Err(ServeError::BadRequest(format!(
                "coordinate count {} is not a multiple of the dimensionality {dim}",
                xs.len()
            )));
        }
        let npoints = xs.len() / dim;
        if npoints == 0 {
            return Err(ServeError::BadRequest("request carries zero points".into()));
        }
        if npoints > self.cfg.batch_max_points {
            return Err(ServeError::BadRequest(format!(
                "request of {npoints} points exceeds the {}-point limit",
                self.cfg.batch_max_points
            )));
        }
        if !xs.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)) {
            return Err(ServeError::BadRequest(
                "query point outside the unit domain".into(),
            ));
        }
        Ok(npoints)
    }

    /// Abort: reject arrivals and fail waiting requests with
    /// `shutting_down`; admitted requests finish. Idempotent. For a
    /// graceful stop that serves the waiting requests too, use
    /// [`Engine::drain`] first.
    pub fn shutdown(&self) {
        self.gate.lock().stopped = true;
        self.gate.cv.notify_all();
    }

    /// Graceful drain: reject arrivals typed `shutting_down`, and wait
    /// until every admitted request has finished and every waiting one
    /// has been admitted and finished. Bounded by `limit`: past it the
    /// drain escalates to [`Engine::shutdown`] and the requests still
    /// waiting fail typed. Returns `true` when nothing was left in flight
    /// or waiting within the bound.
    pub fn drain(&self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        let mut st = self.gate.lock();
        st.draining = true;
        while st.in_flight > 0 || !st.line.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                tel! {
                    DRAIN_FORCED.add(1);
                }
                st.stopped = true;
                self.gate.cv.notify_all();
                return false;
            }
            st = self
                .gate
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Requests waiting for admission (stats).
    pub fn queue_len(&self) -> usize {
        self.gate.lock().line.len()
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

    /// An engine serving the test model as "m", with `cfg`.
    fn engine_with(tag: &str, cfg: ServeConfig) -> (Arc<Engine>, std::path::PathBuf) {
        let path = snapshot(tag);
        let fleet = Fleet::new(2);
        fleet.load("m", &path).unwrap();
        (Engine::new(fleet, cfg), path)
    }

    /// Spin until `cond` holds; another thread is expected to make it so.
    fn wait_until(cond: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < give_up, "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn engine_answers_match_direct_evaluation_bitwise() {
        let (engine, path) = engine_with("bitwise", ServeConfig::default());
        let xs: Vec<f64> = (0..3 * 97).map(|i| (i as f64 * 0.37).fract()).collect();
        let got = engine.eval("m", 3, &xs).unwrap();
        let fleet = engine.fleet();
        let reference = fleet
            .with_model(&fleet.register_reader(), "m", |m| {
                sg_core::evaluate::evaluate_batch(&m.grid, &xs)
            })
            .unwrap();
        assert_eq!(got.len(), 97);
        for (g, r) in got.iter().zip(reference.iter()) {
            assert_eq!(g.to_bits(), r.to_bits(), "daemon diverged from direct eval");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_model_and_bad_requests_are_typed() {
        let (engine, path) = engine_with("typed", ServeConfig::default());
        assert!(matches!(
            engine.eval("nope", 3, &[0.5, 0.5, 0.5]),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            engine.eval("m", 3, &[0.5, 0.5]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.eval("m", 3, &[]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.eval("m", 3, &[0.5, 0.5, 1.5]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.eval("m", 2, &[0.5, 0.5]),
            Err(ServeError::ShapeMismatch {
                expected: 2,
                actual: 3
            })
        ));
        // The engine serves again after every typed failure.
        assert_eq!(engine.eval("m", 3, &[0.5, 0.5, 0.5]).unwrap().len(), 1);
        assert_eq!(engine.queue_len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let (engine, path) = engine_with("concurrent", ServeConfig::default());
        std::thread::scope(|s| {
            for t in 0..8 {
                let engine = &engine;
                s.spawn(move || {
                    let reader = engine.fleet().register_reader();
                    let mut out = Vec::new();
                    for r in 0..50 {
                        let x = ((t * 131 + r * 17) % 100) as f64 / 100.0;
                        engine
                            .eval_into(&reader, "m", 3, None, &[x, x, x], &mut out)
                            .unwrap();
                        assert_eq!(out.len(), 1);
                    }
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overload_is_reported_not_queued() {
        let cfg = ServeConfig {
            queue_depth: 1,
            batch_max_points: 4,
            ..ServeConfig::default()
        };
        let (engine, path) = engine_with("overload", cfg);
        // Hold the whole budget, so every request has to wait.
        let held = engine.gate.admit(4, None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| engine.eval("m", 3, &[0.5; 3]));
            wait_until(|| engine.queue_len() == 1);
            // The line is full: further arrivals are shed at once.
            for _ in 0..3 {
                assert!(matches!(
                    engine.eval("m", 3, &[0.5; 3]),
                    Err(ServeError::Overloaded)
                ));
            }
            drop(held);
            assert_eq!(waiter.join().unwrap().unwrap().len(), 1);
        });
        // With the budget free again, a request is admitted at once.
        assert_eq!(engine.eval("m", 3, &[0.5; 3]).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn expired_deadline_fails_typed_without_evaluation() {
        let cfg = ServeConfig {
            batch_max_points: 4,
            ..ServeConfig::default()
        };
        let (engine, path) = engine_with("deadline", cfg);
        let reader = engine.fleet().register_reader();
        let mut out = Vec::new();
        let x = [0.5; 3];
        // A deadline already in the past comes back typed, never as
        // results.
        let past = Instant::now() - Duration::from_millis(5);
        assert!(matches!(
            engine.eval_into(&reader, "m", 3, Some(past), &x, &mut out),
            Err(ServeError::DeadlineExceeded)
        ));
        // So does one that passes while the request waits for admission.
        let held = engine.gate.admit(4, None).unwrap();
        let soon = Instant::now() + Duration::from_millis(20);
        assert!(matches!(
            engine.eval_into(&reader, "m", 3, Some(soon), &x, &mut out),
            Err(ServeError::DeadlineExceeded)
        ));
        assert!(Instant::now() >= soon);
        assert!(out.is_empty(), "an expired request was evaluated");
        assert_eq!(engine.queue_len(), 0, "the expired request left the line");
        drop(held);
        // A generous deadline is met.
        let future = Instant::now() + Duration::from_secs(60);
        let degraded = engine
            .eval_into(&reader, "m", 3, Some(future), &x, &mut out)
            .unwrap();
        assert!(!degraded);
        assert_eq!(out.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drain_completes_accepted_jobs_and_rejects_new_ones() {
        let cfg = ServeConfig {
            batch_max_points: 4,
            ..ServeConfig::default()
        };
        let (engine, path) = engine_with("drain", cfg);
        let x = [0.25, 0.5, 0.75];
        let held = engine.gate.admit(4, None).unwrap();
        std::thread::scope(|s| {
            // Requests already waiting when the drain begins are served.
            let waiters: Vec<_> = (0..3)
                .map(|_| s.spawn(|| engine.eval("m", 3, &x)))
                .collect();
            wait_until(|| engine.queue_len() == 3);
            let drain = s.spawn(|| engine.drain(Duration::from_secs(30)));
            wait_until(|| engine.gate.lock().draining);
            // An arrival after it begins is rejected typed.
            assert!(matches!(
                engine.eval("m", 3, &x),
                Err(ServeError::ShuttingDown)
            ));
            drop(held);
            for w in waiters {
                assert_eq!(w.join().unwrap().unwrap().len(), 1);
            }
            assert!(drain.join().unwrap(), "drain was forced");
        });
        assert!(matches!(
            engine.eval("m", 3, &x),
            Err(ServeError::ShuttingDown)
        ));

        // A forced drain fails the requests still waiting, typed.
        std::fs::remove_file(&path).ok();
        let (engine, path) = engine_with("drain-forced", cfg);
        let held = engine.gate.admit(4, None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| engine.eval("m", 3, &x));
            wait_until(|| engine.queue_len() == 1);
            assert!(
                !engine.drain(Duration::from_millis(20)),
                "drain was not forced"
            );
            assert!(matches!(
                waiter.join().unwrap(),
                Err(ServeError::ShuttingDown)
            ));
        });
        drop(held);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn full_budget_waiter_is_admitted_before_later_small_requests() {
        let cfg = ServeConfig {
            batch_max_points: 8,
            ..ServeConfig::default()
        };
        let engine = Engine::new(Fleet::new(1), cfg);
        let admitted = Mutex::new(Vec::new());
        let held = engine.gate.admit(1, None).unwrap();
        std::thread::scope(|s| {
            let admit = |points: usize| {
                let _permit = engine.gate.admit(points, None).unwrap();
                admitted.lock().unwrap().push(points);
            };
            // The full budget does not fit beside the held point...
            s.spawn(move || admit(8));
            wait_until(|| engine.queue_len() == 1);
            // ...and single points, which would fit, queue behind it.
            for _ in 0..3 {
                s.spawn(move || admit(1));
            }
            wait_until(|| engine.queue_len() == 4);
            drop(held);
        });
        assert_eq!(admitted.into_inner().unwrap(), [8, 1, 1, 1]);
    }
}
