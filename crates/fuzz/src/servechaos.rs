//! Chaos-proxy fault injection against a live `sgd` serving stack.
//!
//! Each case targets a real in-process [`sg_serve::Server`] (TCP
//! loopback, tight I/O limits) through a seeded fault-injecting proxy,
//! or hits the daemon directly with malformed byte streams, and asserts
//! the **detect-or-recover contract**:
//!
//! 1. *full recovery* — the client's retry/backoff machinery absorbed
//!    the fault and the final answer is bitwise identical to direct
//!    library evaluation (each case tallies the retries it spent), or
//! 2. *clean error* — the failure surfaced as a typed
//!    [`sg_serve::ServeError`] wire code.
//!
//! A silently corrupted result, a daemon crash (detected by a
//! per-case health probe, bitwise-checked against the oracle), a
//! connection that neither answers nor closes, or a panic is a
//! **violation**, reported as a corpus line by the shared
//! [`crate::campaign`] core. Every case of a run targets one daemon whose
//! model is built from the run's seed base, so corpus lines carry that
//! seed as the fixture seed.
//!
//! Corruption is injected into the *structural* prefix of request
//! frames (header, name, deadline/count fields) rather than the `f64`
//! payload: the wire format carries no payload checksum, so a flipped
//! coordinate byte would be undetectable by design — the contract this
//! harness enforces is that every *detectable* fault is detected and
//! typed, and that transport damage to responses (torn frames,
//! disconnects, stalls) can never be mistaken for data.

use crate::campaign::{Campaign, CampaignReport, FaultOutcome, Tally};
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_prop::Rng;
use sg_serve::protocol::parse_error;
use sg_serve::{Client, Engine, Fleet, RetryPolicy, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side stall limit for chaos cases (short, so a stalled peer is
/// detected quickly; generous against a healthy loopback daemon).
const CLIENT_IO: Duration = Duration::from_millis(200);
/// Proxy stall duration — comfortably past the client limit.
const STALL: Duration = Duration::from_millis(450);
/// Bound on how long the daemon may take to answer-or-close a
/// malformed byte stream before the case counts as a hang.
const REACTION_LIMIT: Duration = Duration::from_secs(2);

/// The injected network/protocol fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// The response frame is cut inside its 5-byte header.
    TornFrame,
    /// The connection drops mid-response payload.
    MidResponseDisconnect,
    /// The proxy goes silent after forwarding the request (slowloris).
    Stall,
    /// One corrupted byte in the request's structural prefix.
    CorruptByte,
    /// The first 1–3 connection attempts are shed immediately.
    ConnectRefused,
    /// The response trickles through in tiny delayed chunks (slow but
    /// live peer — must succeed without any retry).
    DelayedBytes,
    /// Seeded random bytes straight at the daemon.
    RandomBytes,
    /// A valid request frame truncated mid-payload.
    TruncatedFrame,
    /// A frame header promising a payload beyond every limit.
    OversizedFrame,
}

impl ChaosClass {
    /// Every class, in injection-rotation order (declaration order, so
    /// `class as usize` indexes [`CAMPAIGN`]`.classes`).
    pub const ALL: [ChaosClass; 9] = [
        ChaosClass::TornFrame,
        ChaosClass::MidResponseDisconnect,
        ChaosClass::Stall,
        ChaosClass::CorruptByte,
        ChaosClass::ConnectRefused,
        ChaosClass::DelayedBytes,
        ChaosClass::RandomBytes,
        ChaosClass::TruncatedFrame,
        ChaosClass::OversizedFrame,
    ];

    /// Stable name (report keys, CLI, corpus lines).
    pub fn name(self) -> &'static str {
        CAMPAIGN.classes[self as usize]
    }

    /// Classes where the client's retry budget must fully absorb the
    /// fault (anything short of a bitwise-correct answer is a
    /// violation). The rest may legitimately end in a typed error.
    fn must_recover(&self) -> bool {
        matches!(
            self,
            ChaosClass::TornFrame
                | ChaosClass::MidResponseDisconnect
                | ChaosClass::Stall
                | ChaosClass::ConnectRefused
                | ChaosClass::DelayedBytes
        )
    }
}

/// The serve-chaos campaign: `sgtool fuzz --campaign serve-chaos`.
pub const CAMPAIGN: Campaign = Campaign {
    name: "serve-chaos",
    classes: &[
        "torn-frame",
        "mid-response-disconnect",
        "stall",
        "corrupt-byte",
        "connect-refused",
        "delayed-bytes",
        "random-bytes",
        "truncated-frame",
        "oversized-frame",
    ],
    counters: &["retries"],
    shared_fixture: true,
    run,
    replay,
};

/// The live serving stack every case runs against: one daemon on
/// loopback with tight timeouts and one model, plus the grid itself as
/// the bitwise oracle.
pub struct ChaosFixture {
    server: Arc<Server>,
    addr: SocketAddr,
    grid: CompactGrid<f64>,
    dim: usize,
    snap_path: std::path::PathBuf,
}

impl ChaosFixture {
    /// Build a seeded model, snapshot it, and start the daemon.
    pub fn start(seed: u64) -> Result<ChaosFixture, String> {
        let mut rng = Rng::new(seed);
        let dim = rng.usize_in(2..=3);
        let levels = rng.usize_in(3..=4);
        let freq = rng.f64_in(1.0, 5.0);
        let mut grid = CompactGrid::from_fn(GridSpec::new(dim, levels), move |x| {
            let mut s = 1.0;
            for &v in x {
                s += (freq * v).sin() + v * v;
            }
            s
        });
        sg_core::hierarchize::hierarchize(&mut grid);
        let snap_path = std::env::temp_dir().join(format!(
            "sg-servechaos-{}-{seed:016x}.sgcs",
            std::process::id()
        ));
        sg_io::write_snapshot_file(&grid, &snap_path, "servechaos").map_err(|e| e.to_string())?;
        let fleet = Fleet::new(4);
        fleet.load("m", &snap_path).map_err(|e| e.to_string())?;
        let cfg = ServeConfig {
            queue_depth: 64,
            io_timeout_ms: 150,
            idle_timeout_ms: 2_000,
            drain_timeout_ms: 3_000,
            ..ServeConfig::default()
        };
        let engine = Engine::new(fleet, cfg);
        let server = Server::start(engine, Some("127.0.0.1:0"), None).map_err(|e| e.to_string())?;
        let addr = server.tcp_addr().expect("tcp listener bound");
        Ok(ChaosFixture {
            server,
            addr,
            grid,
            dim,
            snap_path,
        })
    }

    fn oracle(&self, xs: &[f64]) -> Vec<f64> {
        sg_core::evaluate::evaluate_batch(&self.grid, xs)
    }

    /// Fresh clean connection straight to the daemon: it must still
    /// answer bitwise-correctly after the fault, or it crashed/hung.
    fn health_check(&self, xs: &[f64], expected: &[f64]) -> Result<(), String> {
        let mut c = Client::connect_tcp(&self.addr.to_string())
            .map_err(|e| format!("daemon unreachable after fault: {e}"))?;
        c.set_io_timeout(Duration::from_millis(1_000));
        let mut out = Vec::new();
        c.eval_into("m", self.dim, xs, &mut out)
            .map_err(|e| format!("daemon unhealthy after fault: {e}"))?;
        if !bitwise_eq(&out, expected) {
            return Err("health probe diverged bitwise from direct evaluation".into());
        }
        Ok(())
    }

    /// Drain the daemon gracefully; a forced drain is a violation.
    pub fn finish(self) -> Result<(), String> {
        let clean = self.server.drain(Duration::from_secs(3));
        std::fs::remove_file(&self.snap_path).ok();
        if clean {
            Ok(())
        } else {
            Err("post-run graceful drain was forced past its deadline".into())
        }
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What the proxy does to the *first* connection (later connections —
/// the retries — pass through clean).
#[derive(Debug, Clone, Copy)]
enum ProxyFault {
    /// Cut the first response after this many bytes, then close.
    CutResponse(usize),
    /// Forward the request, then go silent and close after [`STALL`].
    StallResponse,
    /// XOR `mask` into structural byte `offset` of the first request.
    CorruptRequest { offset: usize, mask: u8 },
    /// Shed the first `n` connections on accept.
    Refuse(usize),
    /// Trickle the first response in `chunk`-byte pieces, `delay` apart.
    Trickle { chunk: usize, delay_ms: u64 },
}

/// A seeded single-upstream fault proxy. Frame-aware and synchronous:
/// the wire protocol is strict request/response, so the proxy relays
/// whole frames and injects its fault at exact frame positions.
struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr, fault: ProxyFault) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("chaos-proxy".into())
            .spawn(move || proxy_loop(&listener, upstream, fault, &stop2))?;
        Ok(ChaosProxy {
            addr,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn proxy_loop(listener: &TcpListener, upstream: SocketAddr, fault: ProxyFault, stop: &AtomicBool) {
    let mut armed = true;
    let mut refused = 0usize;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if armed {
                    if let ProxyFault::Refuse(n) = fault {
                        refused += 1;
                        if refused >= n {
                            armed = false;
                        }
                        drop(stream); // shed: immediate close
                        continue;
                    }
                }
                let inject = if armed { Some(fault) } else { None };
                armed = false;
                relay_connection(stream, upstream, inject, stop);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Relay one client connection frame-by-frame, injecting `fault` into
/// the first exchange. Serves until either side closes or `stop`.
fn relay_connection(
    client: TcpStream,
    upstream: SocketAddr,
    fault: Option<ProxyFault>,
    stop: &AtomicBool,
) {
    let mut client = client;
    client
        .set_read_timeout(Some(Duration::from_millis(20)))
        .ok();
    client.set_nodelay(true).ok();
    let Ok(mut server) = TcpStream::connect(upstream) else {
        return;
    };
    server
        .set_read_timeout(Some(Duration::from_millis(20)))
        .ok();
    server.set_nodelay(true).ok();
    let mut first = true;
    loop {
        let Some(mut req) = read_frame_bytes(&mut client, stop) else {
            server.shutdown(std::net::Shutdown::Both).ok();
            return;
        };
        if first {
            if let Some(ProxyFault::CorruptRequest { offset, mask }) = fault {
                let end = structural_len(&req).min(req.len());
                req[offset % end] ^= mask.max(1);
            }
        }
        if server.write_all(&req).is_err() {
            return;
        }
        if first {
            if let Some(ProxyFault::StallResponse) = fault {
                let until = Instant::now() + STALL;
                while Instant::now() < until && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                client.shutdown(std::net::Shutdown::Both).ok();
                server.shutdown(std::net::Shutdown::Both).ok();
                return;
            }
        }
        let Some(resp) = read_frame_bytes(&mut server, stop) else {
            client.shutdown(std::net::Shutdown::Both).ok();
            return;
        };
        if first {
            match fault {
                Some(ProxyFault::CutResponse(n)) => {
                    let cut = n.clamp(1, resp.len().saturating_sub(1));
                    client.write_all(&resp[..cut]).ok();
                    client.shutdown(std::net::Shutdown::Both).ok();
                    server.shutdown(std::net::Shutdown::Both).ok();
                    return;
                }
                Some(ProxyFault::Trickle { chunk, delay_ms }) => {
                    for piece in resp.chunks(chunk.max(1)) {
                        if client.write_all(piece).is_err() {
                            return;
                        }
                        client.flush().ok();
                        std::thread::sleep(Duration::from_millis(delay_ms));
                    }
                }
                _ => {
                    if client.write_all(&resp).is_err() {
                        return;
                    }
                }
            }
            first = false;
        } else if client.write_all(&resp).is_err() {
            return;
        }
    }
}

/// Bytes of a request frame that are structure, not `f64` payload:
/// frame header, name length + name, deadline, point count.
fn structural_len(frame: &[u8]) -> usize {
    if frame.len() < 7 {
        return frame.len();
    }
    let name_len = u16::from_le_bytes([frame[5], frame[6]]) as usize;
    (5 + 2 + name_len + 8).min(frame.len())
}

/// Read one whole `[kind u8][len u32 LE][payload]` frame, tolerating
/// short reads. `None` on EOF, malformed length, stop, or deadline.
fn read_frame_bytes(s: &mut TcpStream, stop: &AtomicBool) -> Option<Vec<u8>> {
    let mut frame = vec![0u8; 5];
    read_exact_timed(s, &mut frame, stop)?;
    let len = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]) as usize;
    if len == 0 || len > 64 << 20 {
        return None;
    }
    frame.resize(5 + len, 0);
    read_exact_timed(s, &mut frame[5..], stop).map(|()| frame)
}

fn read_exact_timed(s: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> Option<()> {
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut got = 0;
    while got < buf.len() {
        if stop.load(Ordering::SeqCst) || Instant::now() > deadline {
            return None;
        }
        match s.read(&mut buf[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return None,
        }
    }
    Some(())
}

/// How the daemon reacted to a malformed byte stream.
enum Reaction {
    /// A typed `Error` frame with this wire code.
    ErrorFrame(String),
    /// The connection was closed.
    Disconnect,
    /// A well-formed non-error frame (the bytes happened to parse).
    Served,
    /// Neither an answer nor a close within [`REACTION_LIMIT`].
    Hang,
}

/// Feed `bytes` straight at the daemon and classify its reaction.
fn malformed_stream_reaction(addr: SocketAddr, bytes: &[u8]) -> Result<Reaction, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_millis(25))).ok();
    s.set_write_timeout(Some(Duration::from_millis(500))).ok();
    s.set_nodelay(true).ok();
    if s.write_all(bytes).is_err() {
        // The daemon already closed on us mid-write: a clean reaction.
        return Ok(Reaction::Disconnect);
    }
    let deadline = Instant::now() + REACTION_LIMIT;
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        if Instant::now() > deadline {
            return Ok(Reaction::Hang);
        }
        match s.read(&mut scratch) {
            Ok(0) => {
                // Closed. If a complete error frame arrived first,
                // classify by its code.
                return Ok(classify_reply(&buf).unwrap_or(Reaction::Disconnect));
            }
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                if let Some(r) = classify_reply(&buf) {
                    return Ok(r);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Ok(Reaction::Disconnect),
        }
    }
}

/// Classify a (possibly partial) reply buffer once a whole frame is in.
fn classify_reply(buf: &[u8]) -> Option<Reaction> {
    if buf.len() < 5 {
        return None;
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    if buf.len() < 5 + len {
        return None;
    }
    if buf[0] == 0x1F {
        let (code, _) = parse_error(&buf[5..5 + len]);
        Some(Reaction::ErrorFrame(code))
    } else {
        Some(Reaction::Served)
    }
}

/// Run one seeded chaos case against the fixture, tallying the client
/// retries it took.
pub fn run_case(
    fixture: &ChaosFixture,
    class: ChaosClass,
    seed: u64,
    tally: &mut Tally,
) -> Result<FaultOutcome, String> {
    let mut rng = Rng::new(seed);
    let npoints = rng.usize_in(1..=6);
    let xs: Vec<f64> = (0..npoints * fixture.dim)
        .map(|_| rng.f64_in(0.0, 0.999))
        .collect();
    let expected = fixture.oracle(&xs);

    let outcome = match class {
        ChaosClass::RandomBytes => {
            let n = rng.usize_in(1..=256);
            let bytes: Vec<u8> = (0..n).map(|_| rng.u8_in(0..=255)).collect();
            raw_outcome(fixture, &bytes)?
        }
        ChaosClass::TruncatedFrame => {
            let full = encode_raw_eval_frame("m", &xs, npoints);
            let cut = rng.usize_in(6..=full.len() - 1);
            raw_outcome(fixture, &full[..cut])?
        }
        ChaosClass::OversizedFrame => {
            let mut bytes = vec![0x10u8];
            bytes.extend_from_slice(&0xFFFF_FF00u32.to_le_bytes());
            raw_outcome(fixture, &bytes)?
        }
        _ => {
            let fault = match class {
                ChaosClass::TornFrame => ProxyFault::CutResponse(rng.usize_in(1..=4)),
                ChaosClass::MidResponseDisconnect => {
                    ProxyFault::CutResponse(5 + rng.usize_in(0..=4 + npoints * 8))
                }
                ChaosClass::Stall => ProxyFault::StallResponse,
                ChaosClass::CorruptByte => ProxyFault::CorruptRequest {
                    offset: rng.usize_in(0..=14),
                    mask: 1 << rng.u8_in(0..=7),
                },
                ChaosClass::ConnectRefused => ProxyFault::Refuse(rng.usize_in(1..=3)),
                ChaosClass::DelayedBytes => ProxyFault::Trickle {
                    chunk: rng.usize_in(1..=7),
                    delay_ms: rng.usize_in(3..=15) as u64,
                },
                _ => unreachable!("raw classes handled above"),
            };
            let proxy =
                ChaosProxy::start(fixture.addr, fault).map_err(|e| format!("proxy start: {e}"))?;
            let mut client = Client::connect_tcp(&proxy.addr.to_string())
                .map_err(|e| format!("connect through proxy: {e}"))?;
            client.set_io_timeout(CLIENT_IO);
            client.set_retry_policy(Some(RetryPolicy {
                budget: 6,
                base: Duration::from_millis(5),
                max: Duration::from_millis(40),
                seed,
            }));
            let mut out = Vec::new();
            match client.eval_into("m", fixture.dim, &xs, &mut out) {
                Ok(degraded) => {
                    if degraded {
                        return Err("degraded flag set by a complete model".into());
                    }
                    if !bitwise_eq(&out, &expected) {
                        return Err(format!(
                            "silent corruption: answer diverged bitwise from direct \
                             evaluation ({} points)",
                            npoints
                        ));
                    }
                    tally.add("retries", client.retry_stats().retries);
                    FaultOutcome::FullRecovery
                }
                Err(e) => FaultOutcome::CleanError(e.code().to_string()),
            }
        }
    };

    if class.must_recover() {
        if let FaultOutcome::CleanError(code) = &outcome {
            return Err(format!(
                "class must recover via retry but surfaced typed {code:?}"
            ));
        }
    }
    // The daemon must still be alive and bitwise-correct.
    fixture.health_check(&xs, &expected)?;
    Ok(outcome)
}

/// Byte-stream case: the daemon must answer typed or close, never hang,
/// and never crash.
fn raw_outcome(fixture: &ChaosFixture, bytes: &[u8]) -> Result<FaultOutcome, String> {
    match malformed_stream_reaction(fixture.addr, bytes)? {
        Reaction::ErrorFrame(code) => Ok(FaultOutcome::CleanError(code)),
        Reaction::Disconnect => Ok(FaultOutcome::CleanError("disconnect".into())),
        Reaction::Served => Ok(FaultOutcome::FullRecovery),
        Reaction::Hang => Err(format!(
            "daemon neither answered nor closed a malformed stream within {}ms",
            REACTION_LIMIT.as_millis()
        )),
    }
}

/// Hand-build a valid `EvalReq` frame (header + payload) for truncation.
fn encode_raw_eval_frame(model: &str, xs: &[f64], npoints: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(model.len() as u16).to_le_bytes());
    payload.extend_from_slice(model.as_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes()); // no deadline
    payload.extend_from_slice(&(npoints as u32).to_le_bytes());
    for v in xs {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut frame = vec![0x10u8];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Inject `cases` chaos faults (rotating through every [`ChaosClass`],
/// or pinned to one) against one live daemon built from `seed_base` and
/// check the detect-or-recover contract on each. Ends with a
/// graceful-drain check.
pub fn run(seed_base: u64, cases: u64, class: Option<usize>) -> CampaignReport {
    let fixture = match ChaosFixture::start(seed_base) {
        Ok(f) => f,
        Err(why) => {
            let mut report = CampaignReport::empty(&CAMPAIGN, seed_base);
            report
                .violations
                .push(format!("fixture start failed: {why}"));
            return report;
        }
    };
    let mut report =
        crate::campaign::run_cases(&CAMPAIGN, seed_base, cases, class, |ci, seed, tally| {
            run_case(&fixture, ChaosClass::ALL[ci], seed, tally)
        });
    if let Err(why) = fixture.finish() {
        report.violations.push(format!("drain: {why}"));
    }
    report
}

/// Replay one case against a fresh daemon built from the fixture seed.
fn replay(class: usize, seed: u64, fixture: Option<u64>) -> Result<FaultOutcome, String> {
    let fixture = fixture.ok_or("a serve-chaos replay needs the fixture seed")?;
    let fixture = ChaosFixture::start(fixture)?;
    let outcome = run_case(
        &fixture,
        ChaosClass::ALL[class],
        seed,
        &mut CAMPAIGN.tally(),
    );
    fixture.finish().and(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_resolves_inside_the_contract() {
        let report = run(0xC4A0_5001, 27, None);
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(report.cases, 27);
        assert_eq!(report.partial_recoveries, 0);
        assert_eq!(report.full_recoveries + report.clean_errors, 27);
        for (name, count) in &report.per_class {
            assert_eq!(*count, 3, "class {name} ran {count} times");
        }
        // The run must exercise both contract arms and actually retry.
        assert!(report.full_recoveries > 0, "no recoveries seen");
        assert!(report.clean_errors > 0, "no clean errors seen");
        assert!(
            report.counters.get("retries") > 0,
            "the retry machinery never engaged"
        );
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let fixture = ChaosFixture::start(0xC4A0_5002).unwrap();
        let (mut ta, mut tb) = (CAMPAIGN.tally(), CAMPAIGN.tally());
        let a = run_case(&fixture, ChaosClass::CorruptByte, 0xFEED, &mut ta).unwrap();
        let b = run_case(&fixture, ChaosClass::CorruptByte, 0xFEED, &mut tb).unwrap();
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        fixture.finish().unwrap();
    }
}
