//! Serving-layer resilience, end to end over the wire: request
//! deadlines, graceful drain, degraded-model serving with background
//! repair, idle-connection reaping, and client stall detection (the
//! serve-chaos canaries replay in `tests/fuzz_regression.rs`).
//!
//! Everything here drives a live in-process [`sg_serve::Server`] over
//! real TCP loopback sockets — the same stack `sgd` runs — so the
//! contracts hold where they matter: on the wire, not just in the
//! engine.

use sg_core::functions::TestFunction;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_serve::{Client, Engine, Fleet, ServeConfig, ServeError, Server};
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sg-serve-resilience-{}-{tag}.sgcs",
        std::process::id()
    ))
}

/// Snapshot of the gaussian test function (the function matters: the
/// degraded-repair drill re-samples it to restore lost groups bitwise).
fn gaussian_snapshot(
    tag: &str,
    dim: usize,
    level: usize,
) -> (std::path::PathBuf, CompactGrid<f64>) {
    let mut g = CompactGrid::from_fn(GridSpec::new(dim, level), |x| {
        TestFunction::Gaussian.eval(x)
    });
    hierarchize(&mut g);
    let path = temp_path(tag);
    sg_io::write_snapshot_file(&g, &path, "resilience-test").unwrap();
    (path, g)
}

fn start_server(cfg: ServeConfig, tag: &str) -> (Arc<Server>, String, std::path::PathBuf) {
    let (path, _) = gaussian_snapshot(tag, 2, 4);
    let fleet = Fleet::new(4);
    fleet.load("m", &path).unwrap();
    let engine = Engine::new(fleet, cfg);
    let server = Server::start(engine, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    (server, addr, path)
}

/// A request whose deadline passes while it waits behind heavy batches
/// must come back as a typed `deadline_exceeded`, never a stale answer.
#[test]
fn expired_deadline_is_typed_over_the_wire() {
    // A big grid makes each 16384-point batch take real time, so a
    // 1 ms deadline queued behind several of them reliably expires.
    let mut g = CompactGrid::from_fn(GridSpec::new(3, 7), |x| {
        (4.0 * x[0]).sin() + x[1] * x[2] + (x[0] * x[1]).cos()
    });
    hierarchize(&mut g);
    let path = temp_path("deadline");
    sg_io::write_snapshot_file(&g, &path, "resilience-test").unwrap();
    let fleet = Fleet::new(4);
    fleet.load("m", &path).unwrap();
    // Allow quarter-million point requests so each evaluation holds the
    // admission budget for a long stretch even in release builds — the
    // probe's 1 ms deadline must expire while it waits for admission.
    let cfg = ServeConfig {
        batch_max_points: 1 << 18,
        ..ServeConfig::default()
    };
    let server = Server::start(Engine::new(fleet, cfg), Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    // First, the happy path: a generous deadline is met and flagged
    // neither degraded nor expired.
    let mut probe = Client::connect_tcp(&addr).unwrap();
    let mut out = Vec::new();
    let degraded = probe
        .eval_deadline_into("m", 3, 60_000, &[0.25, 0.5, 0.75], &mut out)
        .unwrap();
    assert!(!degraded);
    assert_eq!(out.len(), 1);

    // Then the contended path, retried to absorb scheduler noise: six
    // loaders each park a quarter-million-point request at the admission
    // gate, and a 1 ms deadline submitted behind them expires before it
    // is admitted.
    let mut saw_expiry = false;
    'attempts: for _ in 0..10 {
        // Optimized evaluation chews through a batch ~25x faster, so
        // release builds need proportionally heavier loads to hold the
        // admission budget past the probe's deadline.
        let pts: usize = if cfg!(debug_assertions) {
            1 << 15
        } else {
            1 << 18
        };
        let loaders: Vec<_> = (0..6)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect_tcp(&addr).unwrap();
                    let xs: Vec<f64> = (0..3 * pts)
                        .map(|j| (((i * 31 + j) as f64) * 0.617_283).fract() * 0.998 + 0.001)
                        .collect();
                    let mut out = Vec::new();
                    c.eval_into("m", 3, &xs, &mut out).unwrap();
                })
            })
            .collect();
        // Wait until the loaders are admitted ahead of us: one holds the
        // budget and another waits for it. Their frames take 5-50 ms to
        // read and decode, far longer than the probe's own.
        let arrival = Instant::now();
        while server.engine().queue_len() == 0 && arrival.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(200));
        }
        let r = probe.eval_deadline_into("m", 3, 1, &[0.5, 0.5, 0.5], &mut out);
        for l in loaders {
            l.join().unwrap();
        }
        match r {
            Err(ServeError::DeadlineExceeded) => {
                saw_expiry = true;
                break 'attempts;
            }
            Ok(_) => {}                       // queue was empty fast — retry
            Err(ServeError::Overloaded) => {} // shed at admission — retry
            Err(other) => panic!("expected deadline_exceeded, got {other:?}"),
        }
    }
    assert!(
        saw_expiry,
        "no queued request ever expired across 10 contended rounds"
    );

    // The connection survives the typed expiry and serves again.
    assert!(!probe
        .eval_deadline_into("m", 3, 60_000, &[0.1, 0.2, 0.3], &mut out)
        .unwrap());
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Drain under live traffic: every response accepted before the drain
/// is delivered (bitwise-correct), every request after it is rejected
/// typed, and the drain completes inside its budget.
#[test]
fn graceful_drain_loses_no_accepted_responses() {
    let (server, addr, path) = start_server(ServeConfig::default(), "drain");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let oracle = {
        let bytes = std::fs::read(&path).unwrap();
        sg_io::read_snapshot::<f64>(&bytes).unwrap()
    };

    let workers: Vec<_> = (0..6)
        .map(|w| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_tcp(&addr).unwrap();
                let mut ok = 0u64;
                let mut typed_rejections = 0u64;
                let mut out = Vec::new();
                let mut i = 0u64;
                loop {
                    let x = [
                        (((w * 131 + 7) as f64 + i as f64) * 0.381_966).fract(),
                        (((w * 17 + 3) as f64 + i as f64) * 0.618_034).fract(),
                    ];
                    match c.eval_into("m", 2, &x, &mut out) {
                        Ok(_) => {
                            // An accepted response must be the real
                            // answer — a drain may reject, never lie.
                            let want = sg_core::evaluate::evaluate(&oracle, &x);
                            assert_eq!(
                                out[0].to_bits(),
                                want.to_bits(),
                                "accepted response diverged during drain"
                            );
                            ok += 1;
                        }
                        Err(
                            ServeError::ShuttingDown | ServeError::Io(_) | ServeError::TimedOut(_),
                        ) => {
                            typed_rejections += 1;
                            break;
                        }
                        Err(other) => panic!("untyped drain failure: {other:?}"),
                    }
                    i += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) && i > 10_000 {
                        break; // safety valve; drain should end us first
                    }
                }
                (ok, typed_rejections)
            })
        })
        .collect();

    // Let traffic flow, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let clean = server.drain(Duration::from_secs(10));
    assert!(clean, "drain was forced despite a 10s budget");

    let mut total_ok = 0u64;
    let mut total_rejected = 0u64;
    for wkr in workers {
        let (ok, rej) = wkr.join().unwrap();
        total_ok += ok;
        total_rejected += rej;
    }
    assert!(total_ok > 0, "no request succeeded before the drain");
    assert!(
        total_rejected > 0,
        "no worker observed the drain — traffic ended too early"
    );
    // Post-drain, new connections are refused or immediately closed.
    assert!(
        Client::connect_tcp(&addr)
            .and_then(|mut c| c.eval("m", 2, &[0.5, 0.5]))
            .is_err(),
        "a drained server accepted new work"
    );
    std::fs::remove_file(&path).ok();
}

/// Damaged snapshot → degraded load (flagged on the wire and in stats)
/// → values match the salvage oracle exactly → `repair` restores
/// bitwise-clean serving, all over the control plane.
#[test]
fn degraded_serving_is_flagged_and_repair_restores_bitwise() {
    let (path, clean_grid) = gaussian_snapshot("degraded", 2, 4);
    let mut bytes = std::fs::read(&path).unwrap();
    let bounds = sg_io::section_boundaries(&bytes).unwrap();
    bytes[bounds[2] + 9] ^= 0x40; // one flipped bit in the surplus section
    std::fs::write(&path, &bytes).unwrap();
    let salvage = sg_io::recover_snapshot::<f64>(&bytes).unwrap();
    assert!(
        !salvage.grid.is_complete(),
        "fixture must actually be damaged"
    );

    let fleet = Fleet::new(4);
    let engine = Engine::new(fleet, ServeConfig::default());
    let server = Server::start(engine, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();

    // Load the damaged snapshot with a repair function: degraded, with
    // the lost groups enumerated.
    let reply = client
        .ctrl(&sg_json::json!({
            "cmd": "load",
            "name": "m",
            "path": path.display().to_string(),
            "repair_function": "gaussian",
        }))
        .unwrap();
    assert_eq!(reply.get("degraded").and_then(|v| v.as_bool()), Some(true));
    let lost = reply.get("lost_groups").and_then(|v| v.as_array()).unwrap();
    assert!(!lost.is_empty());

    // Degraded serving: flagged on the wire, values exactly the salvage
    // interpolant (zero-filled lost groups), not garbage.
    let xs = [0.25, 0.5, 0.75, 0.125, 0.375, 0.875];
    let mut out = Vec::new();
    let degraded = client.eval_into("m", 2, &xs, &mut out).unwrap();
    assert!(degraded, "degraded serve must be flagged on the wire");
    for (point, got) in xs.chunks(2).zip(&out) {
        let want = salvage.grid.evaluate(point);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "degraded value diverged at {point:?}"
        );
    }
    let stats = client.stats().unwrap();
    let model = &stats.get("models").and_then(|v| v.as_array()).unwrap()[0];
    assert_eq!(model.get("degraded").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        stats.get("degraded_models").and_then(|v| v.as_u64()),
        Some(1)
    );

    // The background repairer sweeps every 200 ms; wait for the hot
    // swap rather than forcing it, so the drill covers the real path.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client
            .ctrl(&sg_json::json!({"cmd": "repair", "name": "m"}))
            .unwrap();
        let stats = client.stats().unwrap();
        let model = &stats.get("models").and_then(|v| v.as_array()).unwrap()[0];
        if model.get("degraded").and_then(|v| v.as_bool()) == Some(false) {
            // Whether this explicit call or the sweeper won the race,
            // the reply must agree the model needs no further repair.
            assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true));
            break;
        }
        assert!(Instant::now() < deadline, "repair never completed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Post-repair serving is unflagged and bitwise-identical to the
    // clean model.
    let degraded = client.eval_into("m", 2, &xs, &mut out).unwrap();
    assert!(!degraded);
    for (point, got) in xs.chunks(2).zip(&out) {
        let want = sg_core::evaluate::evaluate(&clean_grid, point);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "repaired value diverged at {point:?}"
        );
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A connection that goes quiet between frames is reaped after the idle
/// limit; the server closes it instead of leaking the thread.
#[test]
fn idle_connections_are_reaped() {
    let cfg = ServeConfig {
        idle_timeout_ms: 60,
        ..ServeConfig::default()
    };
    let (server, addr, path) = start_server(cfg, "idle");
    let start = Instant::now();
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    // Send nothing: the read unblocks with EOF once the reaper fires.
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF from the idle reaper, got {n} bytes");
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(50) && waited < Duration::from_secs(4),
        "idle reap took {waited:?}, limit was 60ms"
    );
    // An active client on the same server is untouched.
    let mut c = Client::connect_tcp(&addr).unwrap();
    assert_eq!(c.eval("m", 2, &[0.5, 0.5]).unwrap().len(), 1);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A server that accepts but never replies must surface as a typed
/// `timed_out` on the client within its stall limit — not a hang.
#[test]
fn client_times_out_against_a_stalled_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let sink = std::thread::spawn(move || {
        // Accept, read forever, never write a byte.
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = [0u8; 1024];
        while let Ok(n) = s.read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    });
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.set_io_timeout(Duration::from_millis(100));
    let start = Instant::now();
    match client.eval("m", 2, &[0.5, 0.5]) {
        Err(ServeError::TimedOut(_)) => {}
        other => panic!("expected timed_out against a silent server, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "stall detection took {:?}",
        start.elapsed()
    );
    drop(client);
    sink.join().unwrap();
}
