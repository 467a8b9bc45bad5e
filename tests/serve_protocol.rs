//! Wire-protocol edge cases against a live `sgd` server.
//!
//! Every malformed input must produce a *typed* error frame (or a clean
//! close) — never a panic, a hang, or a poisoned server. After each
//! abuse the server must keep serving fresh connections.

use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_serve::protocol::{encode_eval_req, parse_error, read_frame, write_frame};
use sg_serve::{Client, Engine, Fleet, FrameKind, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn temp_snapshot(tag: &str) -> std::path::PathBuf {
    let mut g = CompactGrid::from_fn(GridSpec::new(2, 4), |x| x[0] + 3.0 * x[1]);
    hierarchize(&mut g);
    let path = std::env::temp_dir().join(format!(
        "sg-serve-protocol-{}-{tag}.sgcs",
        std::process::id()
    ));
    sg_io::write_snapshot_file(&g, &path, "protocol-test").unwrap();
    path
}

/// In-process server with one 2-d model named "m" on a free TCP port.
fn start_server(tag: &str) -> (Arc<Server>, String, std::path::PathBuf) {
    let path = temp_snapshot(tag);
    let fleet = Fleet::new(4);
    fleet.load("m", &path).unwrap();
    let engine = Engine::new(fleet, ServeConfig::default());
    let server = Server::start(engine, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    (server, addr, path)
}

/// Read one frame as a raw client; panics on transport errors.
fn read_reply(stream: &mut TcpStream) -> Option<(FrameKind, Vec<u8>)> {
    let mut buf = Vec::new();
    match read_frame(stream, &mut buf, 1 << 20) {
        Ok(Some(kind)) => Some((kind, buf)),
        Ok(None) => None,
        Err(e) => panic!("client-side framing error: {e}"),
    }
}

fn expect_error_code(stream: &mut TcpStream, want: &str) {
    let (kind, payload) = read_reply(stream).expect("server closed without a typed reply");
    assert_eq!(kind, FrameKind::Error, "expected an error frame");
    let (code, msg) = parse_error(&payload);
    assert_eq!(code, want, "unexpected error code (message: {msg})");
}

/// The server still answers a well-formed request on a new connection.
fn assert_server_healthy(addr: &str) {
    let mut client = Client::connect_tcp(addr).unwrap();
    let ys = client.eval("m", 2, &[0.25, 0.5]).unwrap();
    assert_eq!(ys.len(), 1);
}

/// A new connection is served as soon as it arrives: the accept loop
/// blocks in `accept` instead of polling, so connect plus the first
/// ping costs a loopback round trip, not a poll interval.
#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    let (server, addr, path) = start_server("fresh-conn");
    let mut times: Vec<std::time::Duration> = (0..20)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut client = Client::connect_tcp(&addr).unwrap();
            client.ping().unwrap();
            t0.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(5),
        "median connect + first ping took {median:?} (all: {times:?})"
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_length_prefix_is_a_typed_fatal_error() {
    let (server, addr, path) = start_server("oversized");
    let mut s = TcpStream::connect(&addr).unwrap();
    let mut header = vec![0x10u8];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&header).unwrap();
    expect_error_code(&mut s, "bad_frame");
    // Fatal: the server closes after replying.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_server_healthy(&addr);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn zero_length_prefix_is_a_typed_fatal_error() {
    let (server, addr, path) = start_server("zerolen");
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&[0x10, 0, 0, 0, 0]).unwrap();
    expect_error_code(&mut s, "bad_frame");
    assert_server_healthy(&addr);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_frame_kind_is_a_typed_fatal_error() {
    let (server, addr, path) = start_server("badkind");
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&[0x7F, 1, 0, 0, 0, 42]).unwrap();
    expect_error_code(&mut s, "bad_frame");
    assert_server_healthy(&addr);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_payload_then_disconnect_leaves_the_server_healthy() {
    let (server, addr, path) = start_server("truncated");
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        // Promise 100 payload bytes, deliver 10, hang up.
        let mut frame = vec![0x10u8];
        frame.extend_from_slice(&100u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 10]);
        s.write_all(&frame).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        // The server replies with a typed bad_frame (best effort) and
        // closes; either way no panic and no hang.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).ok();
    }
    assert_server_healthy(&addr);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_header_disconnect_leaves_the_server_healthy() {
    let (server, addr, path) = start_server("midheader");
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&[0x10, 9]).unwrap(); // 2 of 5 header bytes
    } // dropped: RST/FIN mid-header
    assert_server_healthy(&addr);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_model_is_typed_and_the_connection_survives() {
    let (server, addr, path) = start_server("unknownmodel");
    let mut s = TcpStream::connect(&addr).unwrap();
    let mut payload = Vec::new();
    let mut wire = Vec::new();
    encode_eval_req(&mut payload, "nope", 0, 1, &[0.5, 0.5]);
    write_frame(&mut s, FrameKind::EvalReq, &payload, &mut wire).unwrap();
    expect_error_code(&mut s, "unknown_model");
    // Non-fatal: the same connection serves the next request.
    encode_eval_req(&mut payload, "m", 0, 1, &[0.5, 0.5]);
    write_frame(&mut s, FrameKind::EvalReq, &payload, &mut wire).unwrap();
    let (kind, _) = read_reply(&mut s).unwrap();
    assert_eq!(kind, FrameKind::EvalResp);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_requests_are_typed_and_nonfatal() {
    let (server, addr, path) = start_server("badrequest");
    let mut client = Client::connect_tcp(&addr).unwrap();
    // Out-of-domain coordinate.
    match client.eval("m", 2, &[0.5, 1.5]) {
        Err(sg_serve::ServeError::BadRequest(_)) => {}
        other => panic!("expected bad_request, got {other:?}"),
    }
    // The connection keeps serving after the typed failure.
    assert_eq!(client.eval("m", 2, &[0.5, 0.5]).unwrap().len(), 1);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn control_plane_roundtrip_and_stats() {
    let (server, addr, path) = start_server("ctrl");
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.ping().unwrap();
    let generation = client.load("m2", &path).unwrap();
    assert!(generation >= 1);
    let stats = client.stats().unwrap();
    let models = stats.get("models").and_then(|v| v.as_array()).unwrap();
    assert_eq!(models.len(), 2, "stats must list both models");
    client.unload("m2").unwrap();
    match client.unload("m2") {
        Err(sg_serve::ServeError::UnknownModel(_)) => {}
        other => panic!("expected unknown_model, got {other:?}"),
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// End-to-end through the real binary: spawn `sgd`, parse the printed
/// port, serve traffic, stop it over the control plane.
#[test]
fn sgd_binary_serves_and_shuts_down_cleanly() {
    use std::io::BufRead;
    let path = temp_snapshot("binary");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sgd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--load",
            &format!("m={}", path.display()),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawning sgd");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("sgd printed nothing")
        .expect("reading sgd stdout");
    let addr = banner
        .strip_prefix("sgd: listening on tcp://")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let ys = client.eval("m", 2, &[0.25, 0.75, 0.5, 0.5]).unwrap();
    assert_eq!(ys.len(), 2);
    client.shutdown_server().unwrap();
    let status = child.wait().expect("waiting for sgd");
    assert!(status.success(), "sgd exited with {status:?}");
    std::fs::remove_file(&path).ok();
}
