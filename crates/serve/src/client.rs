//! A blocking `sgd` client with reusable buffers.
//!
//! Used by the load generator, the protocol tests, and the CI smoke
//! job. [`Client::eval_into`] reuses the caller's output vector and the
//! client's internal frame buffers, so a request/response cycle on a
//! warmed connection allocates nothing on the client side either.
//!
//! ## Resilience
//!
//! Connections honor the same `SGD_IO_TIMEOUT_MS` knob as the daemon:
//! connect, read, and write each give up after that long with a typed
//! `timed_out` error instead of blocking forever against a hung peer.
//! An optional [`RetryPolicy`] adds jittered exponential backoff with a
//! bounded retry budget on `overloaded`, `timed_out`, and transient
//! transport errors, transparently reconnecting when the stream can no
//! longer be trusted; [`Client::retry_stats`] reports what it did so
//! load generators can record it.

use crate::protocol::{
    encode_eval_req, parse_error, parse_eval_resp, read_frame, write_frame, FrameKind, ServeError,
    DEFAULT_MAX_FRAME,
};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Where the client connected, kept for transparent reconnects.
enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Jittered exponential backoff with a bounded retry budget.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub budget: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Jitter seed (deterministic for tests and replayable load runs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 4,
            base: Duration::from_millis(5),
            max: Duration::from_millis(500),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (1-based): `base · 2^(k-1)`
    /// capped at `max`, scaled by a jitter factor in `[0.5, 1.0)` so a
    /// herd of retrying clients decorrelates.
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max);
        let jitter = 0.5 + 0.5 * (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(jitter)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the retry machinery did on this client's behalf.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryStats {
    /// Requests re-sent after a retryable failure.
    pub retries: u64,
    /// Typed `timed_out` failures observed (retried or not).
    pub timeouts: u64,
    /// Stream rebuilds after a transport failure.
    pub reconnects: u64,
    /// Total backoff slept, in milliseconds.
    pub backoff_ms: u64,
}

/// A blocking connection to a running `sgd`.
pub struct Client {
    conn: Conn,
    target: Target,
    frame: Vec<u8>,
    payload: Vec<u8>,
    wire: Vec<u8>,
    max_frame: usize,
    io_timeout: Duration,
    retry: Option<RetryPolicy>,
    rng: u64,
    stats: RetryStats,
}

/// Read the client-side I/O limit (same knob as the daemon, warn-once).
fn io_timeout_from_env() -> Duration {
    Duration::from_millis(crate::env_knob("SGD_IO_TIMEOUT_MS", 30_000, 10) as u64)
}

fn connect_tcp_stream(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{addr}: no socket addresses resolved"),
    );
    for sockaddr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl Client {
    /// Connect over TCP (`host:port`) with a connect timeout; the stream
    /// gets matching read/write timeouts so no call blocks forever.
    pub fn connect_tcp(addr: &str) -> Result<Client, ServeError> {
        let io_timeout = io_timeout_from_env();
        let stream = connect_tcp_stream(addr, io_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(io_timeout)).ok();
        stream.set_write_timeout(Some(io_timeout)).ok();
        Ok(Client::new(
            Conn::Tcp(stream),
            Target::Tcp(addr.to_owned()),
            io_timeout,
        ))
    }

    /// Connect over a Unix socket (read/write timeouts applied).
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<Client, ServeError> {
        let io_timeout = io_timeout_from_env();
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(io_timeout)).ok();
        stream.set_write_timeout(Some(io_timeout)).ok();
        Ok(Client::new(
            Conn::Unix(stream),
            Target::Unix(path.to_owned()),
            io_timeout,
        ))
    }

    fn new(conn: Conn, target: Target, io_timeout: Duration) -> Client {
        Client {
            conn,
            target,
            frame: Vec::new(),
            payload: Vec::new(),
            wire: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
            io_timeout,
            retry: None,
            rng: 0,
            stats: RetryStats::default(),
        }
    }

    /// Override the connect/read/write stall limit for this client and
    /// its future reconnects (the default comes from `SGD_IO_TIMEOUT_MS`).
    /// Chaos and timeout tests use a short limit.
    pub fn set_io_timeout(&mut self, limit: Duration) {
        self.io_timeout = limit;
        match &self.conn {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(limit)).ok();
                s.set_write_timeout(Some(limit)).ok();
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(Some(limit)).ok();
                s.set_write_timeout(Some(limit)).ok();
            }
        }
    }

    /// Enable jittered-backoff retries for eval requests. Pass `None`
    /// to disable (the default: every failure surfaces immediately).
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.rng = policy.map_or(0, |p| p.seed);
        self.retry = policy;
    }

    /// What the retry machinery has done so far on this connection.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Tear down the stream and dial the original target again.
    pub fn reconnect(&mut self) -> Result<(), ServeError> {
        self.conn = match &self.target {
            Target::Tcp(addr) => {
                let stream = connect_tcp_stream(addr, self.io_timeout)?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(self.io_timeout)).ok();
                stream.set_write_timeout(Some(self.io_timeout)).ok();
                Conn::Tcp(stream)
            }
            #[cfg(unix)]
            Target::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                stream.set_read_timeout(Some(self.io_timeout)).ok();
                stream.set_write_timeout(Some(self.io_timeout)).ok();
                Conn::Unix(stream)
            }
        };
        Ok(())
    }

    /// Evaluate `xs` (flat, `npoints · dim`) against `model`, appending
    /// nothing: `out` is cleared and refilled. Reuses every buffer.
    /// Returns whether the response was served by a degraded model.
    pub fn eval_into(
        &mut self,
        model: &str,
        dim: usize,
        xs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, ServeError> {
        self.request(model, dim, 0, xs, out)
    }

    /// [`Client::eval_into`] with a relative deadline: the server fails
    /// the request typed `deadline_exceeded` if it is still waiting for
    /// admission when `deadline_ms` elapses (0 = no deadline).
    pub fn eval_deadline_into(
        &mut self,
        model: &str,
        dim: usize,
        deadline_ms: u32,
        xs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, ServeError> {
        self.request(model, dim, deadline_ms, xs, out)
    }

    /// Evaluate and return a fresh vector (convenience).
    pub fn eval(&mut self, model: &str, dim: usize, xs: &[f64]) -> Result<Vec<f64>, ServeError> {
        let mut out = Vec::new();
        self.eval_into(model, dim, xs, &mut out)?;
        Ok(out)
    }

    /// One eval request with the configured retry policy: retryable
    /// failures (`overloaded`, `timed_out`, transient transport errors)
    /// back off with jitter and try again within the budget,
    /// reconnecting first when the stream can no longer be trusted.
    fn request(
        &mut self,
        model: &str,
        dim: usize,
        deadline_ms: u32,
        xs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, ServeError> {
        assert!(dim > 0 && xs.len() % dim == 0, "xs must be npoints * dim");
        let mut attempt = 0u32;
        loop {
            let r = self.request_once(model, dim, deadline_ms, xs, out);
            let e = match r {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if matches!(e, ServeError::TimedOut(_)) {
                self.stats.timeouts += 1;
            }
            let Some(policy) = self.retry else {
                return Err(e);
            };
            if attempt >= policy.budget || !retryable(&e) {
                return Err(e);
            }
            attempt += 1;
            self.stats.retries += 1;
            let delay = policy.delay(attempt, &mut self.rng);
            self.stats.backoff_ms += delay.as_millis() as u64;
            std::thread::sleep(delay);
            if needs_reconnect(&e) && self.reconnect().is_ok() {
                self.stats.reconnects += 1;
            }
        }
    }

    fn request_once(
        &mut self,
        model: &str,
        dim: usize,
        deadline_ms: u32,
        xs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<bool, ServeError> {
        encode_eval_req(&mut self.payload, model, deadline_ms, xs.len() / dim, xs);
        write_frame(
            &mut self.conn,
            FrameKind::EvalReq,
            &self.payload,
            &mut self.wire,
        )?;
        match self.read_reply()? {
            FrameKind::EvalResp => parse_eval_resp(&self.frame, out),
            kind => Err(ServeError::BadFrame(format!(
                "expected an eval response, got {kind:?}"
            ))),
        }
    }

    /// Send a raw control document and return the server's reply.
    pub fn ctrl(&mut self, doc: &sg_json::Value) -> Result<sg_json::Value, ServeError> {
        self.payload.clear();
        self.payload.extend_from_slice(doc.to_string().as_bytes());
        write_frame(
            &mut self.conn,
            FrameKind::CtrlReq,
            &self.payload,
            &mut self.wire,
        )?;
        match self.read_reply()? {
            FrameKind::CtrlResp => {
                let text = std::str::from_utf8(&self.frame)
                    .map_err(|_| ServeError::BadFrame("control reply is not UTF-8".into()))?;
                sg_json::parse(text)
                    .map_err(|e| ServeError::BadFrame(format!("control reply is not JSON: {e}")))
            }
            kind => Err(ServeError::BadFrame(format!(
                "expected a control response, got {kind:?}"
            ))),
        }
    }

    /// Load (or hot-swap) `path` under `name`; returns the generation.
    /// With `repair_function` in the document (see [`Client::ctrl`]),
    /// a damaged snapshot serves degraded and repairs in the background.
    pub fn load(&mut self, name: &str, path: &Path) -> Result<u64, ServeError> {
        let reply = self.ctrl(&sg_json::json!({
            "cmd": "load",
            "name": name,
            "path": path.display().to_string(),
        }))?;
        reply
            .get("generation")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| ServeError::BadFrame("load reply lacks a generation".into()))
    }

    /// Unload `name`.
    pub fn unload(&mut self, name: &str) -> Result<(), ServeError> {
        self.ctrl(&sg_json::json!({"cmd": "unload", "name": name}))
            .map(|_| ())
    }

    /// Fetch the server's stats document.
    pub fn stats(&mut self) -> Result<sg_json::Value, ServeError> {
        self.ctrl(&sg_json::json!({"cmd": "stats"}))
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.ctrl(&sg_json::json!({"cmd": "ping"})).map(|_| ())
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        self.ctrl(&sg_json::json!({"cmd": "shutdown"})).map(|_| ())
    }

    /// Read one reply frame; `Error` frames decode into typed errors.
    /// A reply that cannot be *parsed* is transport damage (torn frame,
    /// mid-response cut) and maps to a retryable I/O error — unlike a
    /// server-sent `bad_frame` verdict on our request, which stays
    /// fatal.
    fn read_reply(&mut self) -> Result<FrameKind, ServeError> {
        let got =
            read_frame(&mut self.conn, &mut self.frame, self.max_frame).map_err(|e| match e {
                ServeError::BadFrame(why) => ServeError::Io(format!("damaged reply frame: {why}")),
                other => other,
            })?;
        match got {
            None => Err(ServeError::Io("server closed the connection".into())),
            Some(FrameKind::Error) => {
                let (code, message) = parse_error(&self.frame);
                Err(ServeError::from_wire(&code, &message))
            }
            Some(kind) => Ok(kind),
        }
    }
}

/// Errors worth retrying: transient load or transport trouble. Typed
/// request rejections (bad request, unknown model, expired deadline,
/// shutdown) are not — the retry would fail identically or the caller
/// needs to know.
fn retryable(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Overloaded | ServeError::TimedOut(_) | ServeError::Io(_)
    )
}

/// After these errors the stream position can no longer be trusted.
fn needs_reconnect(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::TimedOut(_) | ServeError::Io(_) | ServeError::BadFrame(_)
    )
}
