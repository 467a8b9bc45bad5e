//! TCP and Unix-socket front ends for the serving engine.
//!
//! Each accepted connection gets its own thread, which evaluates its own
//! requests, and its own preallocated workspace — frame buffer, response
//! buffer, wire scratch, decoded coordinates, results and one epoch
//! registration — so the steady-state request loop (`read_frame` →
//! decode → admit → evaluate → encode → `write_frame`) performs no
//! allocations after warm-up.
//!
//! Error discipline follows [`ServeError::is_fatal`]: recoverable
//! failures (unknown model, overload, bad request, shape mismatch,
//! expired deadline) get a typed `Error` frame and the connection keeps
//! serving; framing and transport failures get a best-effort typed reply
//! and the connection is closed, because the stream position can no
//! longer be trusted.
//!
//! ## Lifecycle
//!
//! The server is a three-state machine: **accepting** → **draining** →
//! **stopped**. A `shutdown` control command or [`Server::begin_drain`]
//! moves to draining: new connections are closed unserved, idle ones close,
//! new requests fail typed `shutting_down`, but every request already
//! admitted or waiting for admission is evaluated and its response
//! flushed before the process exits — bounded by the drain deadline,
//! after which the drain escalates to a hard stop. [`Server::shutdown`]
//! is the abrupt path (waiting requests fail typed).
//!
//! ## Socket discipline
//!
//! Every connection reads and writes through a [`TimedStream`]: the
//! socket itself wakes at a short tick, and the wrapper converts lack of
//! progress into one of three outcomes — an **idle reap** (no request in
//! flight for `SGD_IDLE_TIMEOUT_MS`, counted under
//! `serve.conn.idle_reaped`), a **stall** (`SGD_IO_TIMEOUT_MS` without a
//! byte mid-frame — a slowloris peer — answered with a typed `timed_out`
//! best-effort), or a **drain close**. A half-open or deliberately slow
//! peer can therefore never pin a connection thread.

use crate::engine::Engine;
use crate::epoch::Participant;
use crate::fleet::Model;
use crate::protocol::{
    encode_error, encode_eval_resp, parse_eval_req, read_frame, write_frame, FrameKind, ServeError,
};
use sg_core::functions::TestFunction;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[cfg(feature = "telemetry")]
static CONNECTIONS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.connections");
#[cfg(feature = "telemetry")]
static ERRORS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.errors");
#[cfg(feature = "telemetry")]
static REQUEST_NS: sg_telemetry::Histogram = sg_telemetry::Histogram::new("serve.request.ns");
#[cfg(feature = "telemetry")]
static IDLE_REAPED: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.conn.idle_reaped");

/// Socket wake granularity: the kernel-level read/write timeout. Actual
/// limits (idle, I/O stall, drain) are enforced by [`TimedStream`] on
/// top of this tick.
const TICK: Duration = Duration::from_millis(25);

const ACCEPTING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// State shared by the accept loops, connection threads, repair thread,
/// and the control plane.
struct Control {
    state: AtomicU8,
    /// Live connection threads; a graceful drain waits for zero so every
    /// flushed response actually reaches its socket before exit.
    conns: AtomicUsize,
}

/// A running `sgd` front end: accept loops over the bound listeners.
pub struct Server {
    engine: Arc<Engine>,
    ctl: Arc<Control>,
    accepters: Mutex<Vec<(std::thread::JoinHandle<()>, Wake)>>,
    repairer: Mutex<Option<std::thread::JoinHandle<()>>>,
    tcp_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind the requested listeners and start accepting. `tcp` is a
    /// `host:port` string (port 0 picks a free port — the bound address
    /// is reported by [`Server::tcp_addr`]); `unix` is a socket path
    /// (any stale file is replaced). Also starts the background repair
    /// thread that re-completes degraded models.
    pub fn start(
        engine: Arc<Engine>,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> std::io::Result<Arc<Server>> {
        let ctl = Arc::new(Control {
            state: AtomicU8::new(ACCEPTING),
            conns: AtomicUsize::new(0),
        });
        let mut accepters = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            let bound = listener.local_addr()?;
            tcp_addr = Some(bound);
            let handle = spawn_accepter(
                "sgd-accept-tcp",
                listener,
                Arc::clone(&engine),
                Arc::clone(&ctl),
                |l: &TcpListener| l.accept().map(|(s, _)| s),
                |s: TcpStream| {
                    s.set_nodelay(true).ok();
                    s.set_read_timeout(Some(TICK)).ok();
                    s.set_write_timeout(Some(TICK)).ok();
                    s
                },
            )?;
            accepters.push((handle, Wake::Tcp(bound)));
        }
        #[cfg(unix)]
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = unix {
            std::fs::remove_file(path).ok();
            let listener = UnixListener::bind(path)?;
            unix_path = Some(path.to_path_buf());
            let handle = spawn_accepter(
                "sgd-accept-unix",
                listener,
                Arc::clone(&engine),
                Arc::clone(&ctl),
                |l: &UnixListener| l.accept().map(|(s, _)| s),
                |s: UnixStream| {
                    s.set_read_timeout(Some(TICK)).ok();
                    s.set_write_timeout(Some(TICK)).ok();
                    s
                },
            )?;
            accepters.push((handle, Wake::Unix(path.to_path_buf())));
        }
        #[cfg(not(unix))]
        if unix.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        let repairer = Some(spawn_repairer(Arc::clone(&engine), Arc::clone(&ctl))?);
        Ok(Arc::new(Server {
            engine,
            ctl,
            accepters: Mutex::new(accepters),
            repairer: Mutex::new(repairer),
            tcp_addr,
            #[cfg(unix)]
            unix_path,
        }))
    }

    /// Address the TCP listener actually bound (if one was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// True once the accept loops have fully stopped.
    pub fn is_stopped(&self) -> bool {
        self.ctl.state.load(Ordering::SeqCst) == STOPPED
    }

    /// True once a drain or stop has been requested: admissions are
    /// closed (new work fails typed `shutting_down`).
    pub fn is_draining(&self) -> bool {
        self.ctl.state.load(Ordering::SeqCst) != ACCEPTING
    }

    /// Block until a drain or stop is requested (`shutdown` control
    /// command, [`Server::begin_drain`], or [`Server::shutdown`]).
    pub fn wait(&self) {
        while !self.is_draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Enter the draining state: stop admissions, keep flushing accepted
    /// work. Call [`Server::drain`] afterwards (or directly) to complete
    /// the stop. Idempotent; never un-stops a stopped server.
    pub fn begin_drain(&self) {
        let _ = self.ctl.state.compare_exchange(
            ACCEPTING,
            DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Graceful two-phase stop: stop admissions, let every request
    /// already admitted or waiting for admission finish, wait for every
    /// connection thread to flush its response and hang up, then stop
    /// the listeners — all bounded by `limit`, after which the drain
    /// escalates to a hard shutdown (waiting requests fail typed
    /// `shutting_down`). Returns `true` when every accepted response was
    /// flushed within the bound.
    pub fn drain(&self, limit: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + limit;
        // Phase 1: the engine finishes everything admitted or waiting.
        let mut clean = self
            .engine
            .drain(deadline.saturating_duration_since(Instant::now()));
        // Phase 2: connection threads write their final responses and
        // exit (idle ones close themselves on the next tick).
        while self.ctl.conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        clean &= self.ctl.conns.load(Ordering::SeqCst) == 0;
        self.finish();
        clean
    }

    /// Abrupt stop: waiting requests fail typed `shutting_down`, listeners
    /// and helper threads are joined. Idempotent; safe after a drain.
    pub fn shutdown(&self) {
        self.finish();
        self.engine.shutdown();
    }

    /// Common tail of `drain`/`shutdown`: mark stopped, wake and join
    /// the accept loops, join the repair thread, unlink the Unix socket.
    fn finish(&self) {
        self.ctl.state.store(STOPPED, Ordering::SeqCst);
        for (h, wake) in self
            .accepters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            // A loop that cannot be woken (its socket path was unlinked
            // by someone else) would block the join forever; it is left
            // parked in `accept` unless it has already returned.
            if wake.connect() || h.is_finished() {
                let _ = h.join();
            }
        }
        if let Some(h) = self
            .repairer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            std::fs::remove_file(path).ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How [`Server::finish`] unblocks an accept loop parked in a blocking
/// `accept`: one throwaway connection to the listener's own address.
enum Wake {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Wake {
    /// Connect once and hang up; `true` when the listener answered.
    fn connect(&self) -> bool {
        match self {
            Wake::Tcp(bound) => {
                let mut addr = *bound;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match bound {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
            }
            #[cfg(unix)]
            Wake::Unix(path) => UnixStream::connect(path).is_ok(),
        }
    }
}

/// Spawn one blocking accept loop; each accepted stream gets a detached
/// connection thread. A stream accepted once the server has left the
/// accepting state (a late client, or the [`Wake`] connection) is
/// dropped unserved and ends the loop.
fn spawn_accepter<L, S>(
    name: &str,
    listener: L,
    engine: Arc<Engine>,
    ctl: Arc<Control>,
    accept: impl Fn(&L) -> std::io::Result<S> + Send + 'static,
    tune: impl Fn(S) -> S + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>>
where
    L: Send + 'static,
    S: Read + Write + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || loop {
            let accepted = accept(&listener);
            if ctl.state.load(Ordering::SeqCst) != ACCEPTING {
                return;
            }
            match accepted {
                Ok(stream) => {
                    let stream = tune(stream);
                    let engine = Arc::clone(&engine);
                    let ctl = Arc::clone(&ctl);
                    let spawned = std::thread::Builder::new()
                        .name("sgd-conn".into())
                        .spawn(move || handle_connection(stream, &engine, &ctl));
                    if spawned.is_err() {
                        // Out of threads: shed the connection.
                    }
                }
                // Transient accept failure (e.g. out of descriptors):
                // back off instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        })
}

/// The background repair loop: periodically sweeps the fleet for models
/// serving degraded, re-completes each (re-sample + re-hierarchize via
/// its registered repair function, or strict re-read of the source
/// path), and hot-swaps the complete grid in behind the epoch domain.
/// Failed sweeps back off exponentially (a source file that is still
/// damaged is not re-read at full tilt).
fn spawn_repairer(
    engine: Arc<Engine>,
    ctl: Arc<Control>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("sgd-repair".into())
        .spawn(move || {
            let fleet = Arc::clone(engine.fleet());
            let reader = fleet.register_reader();
            let base = Duration::from_millis(200);
            let mut pause = base;
            loop {
                let until = Instant::now() + pause;
                while Instant::now() < until {
                    if ctl.state.load(Ordering::SeqCst) != ACCEPTING {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                let names = fleet.degraded_models(&reader);
                if names.is_empty() {
                    pause = base;
                    continue;
                }
                let mut any_failed = false;
                for name in &names {
                    if ctl.state.load(Ordering::SeqCst) != ACCEPTING {
                        return;
                    }
                    if fleet.repair(&reader, name).is_err() {
                        any_failed = true;
                    }
                }
                pause = if any_failed {
                    (pause * 2).min(Duration::from_secs(5))
                } else {
                    base
                };
            }
        })
}

/// Why a [`TimedStream`] gave up on its peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GiveUp {
    /// No request in flight and nothing arrived for the idle limit.
    Idle,
    /// Mid-transfer and no byte moved for the I/O limit (slowloris).
    Stall,
    /// The server is draining/stopped and the connection was between
    /// requests.
    Drain,
}

/// Progress-based timeout wrapper. The wrapped socket wakes every
/// [`TICK`]; this layer retries `WouldBlock`/`TimedOut` until real
/// progress happens or a limit is crossed, recording *why* it gave up so
/// the connection loop can distinguish an idle reap from a stalled
/// transfer from a drain.
struct TimedStream<'a, S> {
    inner: S,
    ctl: &'a Control,
    io_limit: Duration,
    idle_limit: Duration,
    /// Any byte of the current inbound frame has arrived.
    got_any: bool,
    last_progress: Instant,
    reason: Option<GiveUp>,
}

impl<'a, S: Read + Write> TimedStream<'a, S> {
    fn new(inner: S, ctl: &'a Control, io_limit: Duration, idle_limit: Duration) -> Self {
        TimedStream {
            inner,
            ctl,
            io_limit,
            idle_limit,
            got_any: false,
            last_progress: Instant::now(),
            reason: None,
        }
    }

    /// Arm for the next request: the wait for its first byte counts
    /// against the idle limit, everything after against the I/O limit.
    fn begin_frame(&mut self) {
        self.got_any = false;
        self.last_progress = Instant::now();
        self.reason = None;
    }

    fn give_up(&mut self, why: GiveUp) -> std::io::Error {
        self.reason = Some(why);
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            match why {
                GiveUp::Idle => "idle connection reaped",
                GiveUp::Stall => "no socket progress within the I/O limit",
                GiveUp::Drain => "server draining",
            },
        )
    }
}

impl<S: Read + Write> Read for TimedStream<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.got_any = true;
                    self.last_progress = Instant::now();
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Between requests a drain closes the connection; a
                    // request already in flight gets to finish under the
                    // I/O limit.
                    if !self.got_any && self.ctl.state.load(Ordering::SeqCst) != ACCEPTING {
                        return Err(self.give_up(GiveUp::Drain));
                    }
                    let limit = if self.got_any {
                        self.io_limit
                    } else {
                        self.idle_limit
                    };
                    if self.last_progress.elapsed() >= limit {
                        let why = if self.got_any {
                            GiveUp::Stall
                        } else {
                            GiveUp::Idle
                        };
                        return Err(self.give_up(why));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<S: Read + Write> Write for TimedStream<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        loop {
            match self.inner.write(buf) {
                Ok(n) => {
                    self.last_progress = Instant::now();
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if start.elapsed() >= self.io_limit {
                        return Err(self.give_up(GiveUp::Stall));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Decrements the live-connection count however the thread exits.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-connection reusable state, so a steady-state request allocates
/// nothing.
struct ConnState {
    /// Incoming frame payloads (`read_frame` target).
    frame: Vec<u8>,
    /// Outgoing frame payloads (eval responses, control replies, errors).
    payload: Vec<u8>,
    /// Serialized frame (header + payload) for single-write sends.
    wire: Vec<u8>,
    /// Decoded query coordinates of the current request.
    xs: Vec<f64>,
    /// Results of the current request.
    out: Vec<f64>,
    /// Epoch registration, pinned around each evaluation.
    reader: Participant<Model>,
}

fn handle_connection(stream: impl Read + Write, engine: &Arc<Engine>, ctl: &Control) {
    ctl.conns.fetch_add(1, Ordering::SeqCst);
    let _guard = ConnGuard(&ctl.conns);
    tel! {
        CONNECTIONS.add(1);
    }
    let cfg = *engine.config();
    let max_frame = cfg.max_frame;
    let mut ts = TimedStream::new(
        stream,
        ctl,
        Duration::from_millis(cfg.io_timeout_ms as u64),
        Duration::from_millis(cfg.idle_timeout_ms as u64),
    );
    let mut st = ConnState {
        frame: Vec::new(),
        payload: Vec::new(),
        wire: Vec::new(),
        xs: Vec::new(),
        out: Vec::new(),
        reader: engine.fleet().register_reader(),
    };
    loop {
        ts.begin_frame();
        let kind = match read_frame(&mut ts, &mut st.frame, max_frame) {
            Ok(None) => return,
            Ok(Some(k)) => k,
            Err(e) => {
                match ts.reason {
                    Some(GiveUp::Idle) => {
                        tel! {
                            IDLE_REAPED.add(1);
                        }
                    }
                    Some(GiveUp::Drain) => {}
                    // Stall or genuine framing/transport damage: best-
                    // effort typed reply, then close — framing is gone.
                    _ => send_error(&mut ts, &mut st, &e),
                }
                return;
            }
        };
        let result = match kind {
            FrameKind::EvalReq => handle_eval(&mut ts, &mut st, engine),
            FrameKind::CtrlReq => handle_ctrl(&mut ts, &mut st, engine, ctl),
            _ => Err(ServeError::BadFrame(format!(
                "unexpected {kind:?} frame from a client"
            ))),
        };
        if let Err(e) = result {
            tel! {
                ERRORS.add(1);
            }
            let fatal = e.is_fatal();
            send_error(&mut ts, &mut st, &e);
            if fatal {
                return;
            }
        }
    }
}

fn send_error(stream: &mut impl Write, st: &mut ConnState, err: &ServeError) {
    encode_error(&mut st.payload, err);
    let _ = write_frame(stream, FrameKind::Error, &st.payload, &mut st.wire);
}

/// One data-plane request: decode → evaluate → reply.
fn handle_eval(
    stream: &mut impl Write,
    st: &mut ConnState,
    engine: &Engine,
) -> Result<(), ServeError> {
    #[cfg(feature = "telemetry")]
    let t0 = std::time::Instant::now();
    let req = parse_eval_req(&st.frame)?;
    if req.npoints == 0 {
        return Err(ServeError::BadRequest("request carries zero points".into()));
    }
    if req.xs_bytes.len() % 8 != 0 || (req.xs_bytes.len() / 8) % req.npoints != 0 {
        return Err(ServeError::BadRequest(format!(
            "{} coordinate bytes do not divide into {} points",
            req.xs_bytes.len(),
            req.npoints
        )));
    }
    let dim = req.xs_bytes.len() / 8 / req.npoints;
    let deadline = (req.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(req.deadline_ms as u64));
    st.xs.clear();
    st.xs.extend(
        req.xs_bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
    );
    let degraded = engine.eval_into(&st.reader, req.model, dim, deadline, &st.xs, &mut st.out)?;
    encode_eval_resp(&mut st.payload, &st.out, degraded);
    write_frame(stream, FrameKind::EvalResp, &st.payload, &mut st.wire)?;
    tel! {
        REQUEST_NS.record(t0.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// One control-plane request. Control traffic may allocate freely — it
/// is not on the steady-state path.
fn handle_ctrl(
    stream: &mut impl Write,
    st: &mut ConnState,
    engine: &Arc<Engine>,
    ctl: &Control,
) -> Result<(), ServeError> {
    let text = std::str::from_utf8(&st.frame)
        .map_err(|_| ServeError::BadRequest("control frame is not UTF-8".into()))?;
    let doc = sg_json::parse(text)
        .map_err(|e| ServeError::BadRequest(format!("control frame is not JSON: {e}")))?;
    let cmd = doc
        .get("cmd")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ServeError::BadRequest("control frame lacks a \"cmd\" field".into()))?;
    let reply = match cmd {
        "ping" => sg_json::json!({"ok": true, "pong": true}),
        "load" | "swap" => {
            let name = str_field(&doc, "name")?;
            let path = str_field(&doc, "path")?;
            let repair_fn = match doc.get("repair_function").and_then(|v| v.as_str()) {
                None => None,
                Some(s) => Some(
                    *TestFunction::ALL
                        .iter()
                        .find(|f| f.name() == s)
                        .ok_or_else(|| {
                            ServeError::BadRequest(format!("unknown repair function {s:?}"))
                        })?,
                ),
            };
            let (generation, lost) =
                engine
                    .fleet()
                    .load_or_degraded(name, Path::new(path), repair_fn)?;
            let mut reply = sg_json::json!({
                "ok": true,
                "name": name,
                "generation": generation,
                "degraded": !lost.is_empty(),
            });
            reply.set(
                "lost_groups",
                sg_json::Value::Array(lost.iter().map(|&g| sg_json::json!(g as u64)).collect()),
            );
            reply
        }
        "unload" => {
            let name = str_field(&doc, "name")?;
            engine.fleet().unload(name)?;
            sg_json::json!({"ok": true, "name": name})
        }
        "repair" => {
            let name = str_field(&doc, "name")?;
            let fleet = engine.fleet();
            let reader = fleet.register_reader();
            let repaired = fleet.repair(&reader, name)?;
            sg_json::json!({"ok": true, "name": name, "repaired": repaired})
        }
        "stats" => stats_reply(engine, ctl),
        "shutdown" => {
            // Graceful: stop admissions, flush accepted work. The main
            // loop observes the state change and runs the bounded drain.
            let _ =
                ctl.state
                    .compare_exchange(ACCEPTING, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
            sg_json::json!({"ok": true, "stopping": true})
        }
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown control command {other:?}"
            )))
        }
    };
    st.payload.clear();
    st.payload.extend_from_slice(reply.to_string().as_bytes());
    write_frame(stream, FrameKind::CtrlResp, &st.payload, &mut st.wire)
}

fn str_field<'a>(doc: &'a sg_json::Value, key: &str) -> Result<&'a str, ServeError> {
    doc.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ServeError::BadRequest(format!("control frame lacks a {key:?} string")))
}

fn stats_reply(engine: &Arc<Engine>, ctl: &Control) -> sg_json::Value {
    let fleet = engine.fleet();
    let reader = fleet.register_reader();
    let mut models = Vec::new();
    let mut degraded_count = 0u64;
    for name in fleet.names() {
        if let Ok(entry) = fleet.with_model(&reader, &name, |m| {
            let mut entry = sg_json::json!({
                "name": m.name.clone(),
                "dim": m.dim() as u64,
                "points": m.grid.len() as u64,
                "generation": m.generation,
                "provenance": m.provenance.clone(),
                "degraded": m.is_degraded(),
            });
            entry.set(
                "lost_groups",
                sg_json::Value::Array(
                    m.lost_groups
                        .iter()
                        .map(|&g| sg_json::json!(g as u64))
                        .collect(),
                ),
            );
            (entry, m.is_degraded())
        }) {
            if entry.1 {
                degraded_count += 1;
            }
            models.push(entry.0);
        }
    }
    let lifecycle = match ctl.state.load(Ordering::SeqCst) {
        ACCEPTING => "accepting",
        DRAINING => "draining",
        _ => "stopped",
    };
    let mut reply = sg_json::json!({
        "ok": true,
        "queue_len": engine.queue_len() as u64,
        "retired_models": fleet.garbage_len() as u64,
        "lifecycle": lifecycle,
        "degraded_models": degraded_count,
    });
    reply.set("models", sg_json::Value::Array(models));
    tel! {
        let report = sg_telemetry::snapshot();
        let mut counters = sg_json::json!({});
        for (name, value) in report.counters_with_prefix("serve.") {
            counters.set(name, sg_json::json!(value));
        }
        reply.set("counters", counters);
    }
    reply
}
