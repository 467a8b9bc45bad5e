//! `sgd` — the sparse-grid evaluation daemon.
//!
//! ```text
//! sgd --listen 127.0.0.1:7071 --load surrogate=model.sgcs
//! sgd --unix /tmp/sgd.sock --load a=a.sgcs --load b=b.sgcs
//! ```
//!
//! Serves a fleet of SGC2 snapshot models over the length-prefixed
//! `sg-serve` protocol: binary f64 frames on the data plane, sg-json on
//! the control plane (`load` / `swap` / `unload` / `repair` / `stats` /
//! `ping` / `shutdown`). Models hot-swap under load without blocking
//! in-flight requests. `--listen 127.0.0.1:0` picks a free port and
//! prints it.
//!
//! Each connection evaluates its own requests on its own thread, after
//! a FIFO admission gate over the points in flight; the sg-par pool
//! width is fixed at start-up.
//!
//! SIGTERM, SIGINT, or a control-plane `shutdown` all trigger the same
//! two-phase drain: admissions stop (new work gets a typed
//! `shutting_down`), every request already admitted or waiting for
//! admission finishes and flushes, then the process exits 0. A drain
//! that overruns `SGD_DRAIN_TIMEOUT_MS` is forced and exits 1 so
//! supervisors can tell the difference.

use sg_serve::{Engine, Fleet, ServeConfig, Server};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "\
sgd — sparse-grid evaluation daemon

USAGE:
    sgd [--listen HOST:PORT] [--unix PATH] [--load NAME=SNAPSHOT]...

OPTIONS:
    --listen HOST:PORT   TCP listener (port 0 picks a free port; the
                         bound address is printed on startup)
    --unix PATH          Unix-socket listener (stale sockets replaced)
    --load NAME=PATH     preload an SGC2 snapshot under NAME (repeatable;
                         more models can be loaded later over the
                         control plane)
    -h, --help           print this help

At least one of --listen / --unix is required.

WIRE FORMAT (one frame = [kind: u8][len: u32 LE][payload]):
    0x01 CtrlReq    sg-json object, e.g. {\"cmd\":\"stats\"}
    0x02 CtrlResp   sg-json object, {\"ok\":true,...}
    0x10 EvalReq    [name_len u16 LE][name][deadline_ms u32 LE]
                    [npoints u32 LE][xs f64 LE]
                    (deadline_ms 0 = none; a request still waiting for
                    admission when its deadline passes gets a typed
                    deadline_exceeded and is not evaluated)
    0x11 EvalResp   [flags u8][npoints u32 LE][ys f64 LE]
                    (flags bit 0 = served by a degraded model)
    0x1F Error      sg-json {\"error\":\"<code>\",\"message\":\"...\"}

ENVIRONMENT:
    SGD_QUEUE_DEPTH       requests that may wait for admission; one more
                          is answered overloaded (default 256)
    SGD_BATCH_MAX_POINTS  max points per request, and the budget of points
                          in flight across requests; a request of more
                          than 64 points takes the whole budget
                          (default 16384)
    SGD_MAX_FRAME         max frame payload bytes (default 16777216)
    SGD_MAX_MODELS        fleet capacity (default 64)
    SGD_IO_TIMEOUT_MS     per-connection read/write stall limit, both
                          sides of the wire (default 30000, min 10)
    SGD_IDLE_TIMEOUT_MS   idle connections are reaped after this long
                          between frames (default 300000, min 10)
    SGD_DRAIN_TIMEOUT_MS  graceful-drain budget on SIGTERM/SIGINT/
                          shutdown before the stop is forced
                          (default 10000, min 1)
    SG_KERNEL             evaluation kernel: auto|scalar|avx2|neon
    SG_PAR_THREADS        sg-par pool width, read once at start-up

SHUTDOWN:
    SIGTERM / SIGINT / ctrl {\"cmd\":\"shutdown\"} stop admissions
    (typed shutting_down), finish and flush every request already
    admitted or waiting for admission, then exit 0. A drain that
    exceeds SGD_DRAIN_TIMEOUT_MS is forced (waiting requests fail
    shutting_down) and exits 1.

EXIT CODES:
    0 clean shutdown   1 forced drain   2 usage   3 bad snapshot
    4 bind/socket error";

/// Set by the SIGTERM/SIGINT handler; polled by the main wait loop.
static SIGNALED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers without a libc crate: `signal(2)` is
/// in every libc the toolchain links anyway. An async-signal-safe
/// handler that only stores an atomic is all we need — the drain itself
/// runs on the main thread.
#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `on_signal` is async-signal-safe (one atomic store) and
    // has the `extern "C" fn(i32)` ABI signal(2) expects.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        // writeln! so `sgd --help | head` sees EPIPE, not a panic.
        let _ = writeln!(std::io::stdout(), "{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = sg_core::kernel::resolve() {
        eprintln!("sgd: {e}");
        return ExitCode::from(2);
    }

    let mut listen: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut loads: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => match value("--listen") {
                Ok(v) => listen = Some(v),
                Err(e) => return usage_error(&e),
            },
            "--unix" => match value("--unix") {
                Ok(v) => unix = Some(v),
                Err(e) => return usage_error(&e),
            },
            "--load" => match value("--load") {
                Ok(v) => match v.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                        loads.push((name.to_string(), path.to_string()));
                    }
                    _ => return usage_error(&format!("--load wants NAME=PATH, got {v:?}")),
                },
                Err(e) => return usage_error(&e),
            },
            other => return usage_error(&format!("unknown flag: {other}")),
        }
    }
    if listen.is_none() && unix.is_none() {
        return usage_error("at least one of --listen / --unix is required");
    }

    let cfg = ServeConfig::from_env();
    let drain_limit = Duration::from_millis(cfg.drain_timeout_ms as u64);
    let fleet = Fleet::new(cfg.max_models);
    for (name, path) in &loads {
        match fleet.load(name, std::path::Path::new(path)) {
            Ok(generation) => {
                eprintln!("sgd: loaded {name:?} from {path} (generation {generation})");
            }
            Err(e) => {
                eprintln!("sgd: loading {name:?} from {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }

    // Fix the pool width for the daemon's lifetime, so pooled evaluations
    // do not re-read SG_PAR_THREADS (an allocation) on every request.
    sg_par::set_num_threads(sg_par::num_threads());
    let engine = Engine::new(fleet, cfg);
    let server = match Server::start(
        engine,
        listen.as_deref(),
        unix.as_deref().map(std::path::Path::new),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sgd: binding listeners: {e}");
            return ExitCode::from(4);
        }
    };
    if let Some(addr) = server.tcp_addr() {
        // Parsed by the smoke tests and the load generator: keep stable.
        println!("sgd: listening on tcp://{addr}");
    }
    if let Some(path) = &unix {
        println!("sgd: listening on unix://{path}");
    }
    std::io::stdout().flush().ok();
    install_signal_handlers();

    // Park until a signal arrives or the control plane starts a drain.
    while !SIGNALED.load(Ordering::SeqCst) && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("sgd: draining (budget {}ms)", drain_limit.as_millis());
    if server.drain(drain_limit) {
        eprintln!("sgd: drained cleanly");
        ExitCode::SUCCESS
    } else {
        eprintln!("sgd: drain deadline exceeded; stop was forced");
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sgd: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
