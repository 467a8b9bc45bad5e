//! Serving correctness: bitwise identity with direct evaluation, and
//! hot swap under sustained load with zero dropped or torn responses.

use sg_combination::CombinationExecutor;
use sg_core::evaluate::evaluate_batch;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_serve::{Client, Engine, Fleet, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn field(scale: f64, x: &[f64]) -> f64 {
    scale * ((5.0 * x[0]).sin() + x[1] * x[2] + 0.25 * x[2])
}

fn make_grid(scale: f64) -> CompactGrid<f64> {
    let mut g = CompactGrid::from_fn(GridSpec::new(3, 5), |x| field(scale, x));
    hierarchize(&mut g);
    g
}

fn snapshot(tag: &str, grid: &CompactGrid<f64>) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("sg-serve-swap-{}-{tag}.sgcs", std::process::id()));
    sg_io::write_snapshot_file(grid, &path, "swap-test").unwrap();
    path
}

fn query_batch(seed: u64, npoints: usize) -> Vec<f64> {
    // Deterministic quasi-random coordinates in [0, 1).
    (0..npoints * 3)
        .map(|i| (((seed + i as u64) as f64) * 0.377_214_903).fract())
        .collect()
}

/// The daemon's answers must be bit-for-bit the library's answers, for
/// batch sizes crossing lane and block boundaries — also for a model
/// folded from a combination-technique run of the same function.
#[test]
fn served_answers_are_bitwise_identical_to_direct_evaluation() {
    let grid = make_grid(1.0);
    let folded = CombinationExecutor::new(*grid.spec())
        .run(|x| field(1.0, x))
        .unwrap()
        .grid;
    let paths = [snapshot("bitwise", &grid), snapshot("folded", &folded)];
    let fleet = Fleet::new(2);
    fleet.load("m", &paths[0]).unwrap();
    fleet.load("folded", &paths[1]).unwrap();
    let engine = Engine::new(fleet, ServeConfig::default());
    let server = Server::start(engine, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let mut out = Vec::new();
    for model in ["m", "folded"] {
        for npoints in [1usize, 2, 3, 7, 64, 65, 257, 1024] {
            let xs = query_batch(npoints as u64, npoints);
            let want = evaluate_batch(&grid, &xs);
            client.eval_into(model, 3, &xs, &mut out).unwrap();
            assert_eq!(out.len(), want.len());
            for (k, (got, want)) in out.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{model}: point {k} of {npoints} diverged from direct evaluation"
                );
            }
        }
    }
    server.shutdown();
    for path in paths {
        std::fs::remove_file(&path).ok();
    }
}

/// Hammer the server from several connections while the model is
/// hot-swapped A→B→A→…. Every single response must be bitwise equal to
/// the full-batch answer of *some* generation — no torn model, no
/// failed request, no blocked reader.
#[test]
fn hot_swap_under_load_never_tears_or_drops_responses() {
    let grid_a = make_grid(1.0);
    let grid_b = make_grid(-2.0);
    let path_a = snapshot("load-a", &grid_a);
    let path_b = snapshot("load-b", &grid_b);

    let fleet = Fleet::new(2);
    fleet.load("m", &path_a).unwrap();
    let engine = Engine::new(Arc::clone(&fleet), ServeConfig::default());
    let server = Server::start(engine, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    let npoints = 33;
    let xs = query_batch(7, npoints);
    let want_a = evaluate_batch(&grid_a, &xs);
    let want_b = evaluate_batch(&grid_b, &xs);

    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let xs = xs.clone();
        let (want_a, want_b) = (want_a.clone(), want_b.clone());
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).unwrap();
            let mut out = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                client
                    .eval_into("m", 3, &xs, &mut out)
                    .expect("request failed during hot swap");
                let matches_a = out
                    .iter()
                    .zip(&want_a)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                let matches_b = out
                    .iter()
                    .zip(&want_b)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(
                    out.len() == npoints && (matches_a || matches_b),
                    "torn response: matches neither generation"
                );
                completed.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Swap back and forth under load over the control plane.
    let mut ctrl = Client::connect_tcp(&addr).unwrap();
    for i in 0..20 {
        let path = if i % 2 == 0 { &path_b } else { &path_a };
        ctrl.load("m", path).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // Let the workers run a little after the last swap, then stop.
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker saw a failed or torn response");
    }
    assert!(
        completed.load(Ordering::Relaxed) > 40,
        "load generator barely ran; swap test proved nothing"
    );
    // All retired generations must be reclaimable once readers idle.
    fleet.collect();
    assert_eq!(fleet.garbage_len(), 0, "retired models leaked");
    server.shutdown();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

/// Unloading a model under load yields typed unknown_model errors, never
/// a hang or a torn read; reloading restores service.
#[test]
fn unload_and_reload_under_traffic_is_typed() {
    let grid = make_grid(1.0);
    let path = snapshot("unload", &grid);
    let fleet = Fleet::new(2);
    fleet.load("m", &path).unwrap();
    let engine = Engine::new(fleet, ServeConfig::default());
    let server = Server::start(engine, Some("127.0.0.1:0"), None).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let xs = query_batch(3, 5);
    client.eval("m", 3, &xs).unwrap();
    client.unload("m").unwrap();
    match client.eval("m", 3, &xs) {
        Err(sg_serve::ServeError::UnknownModel(_)) => {}
        other => panic!("expected unknown_model, got {other:?}"),
    }
    client.load("m", &path).unwrap();
    client.eval("m", 3, &xs).unwrap();
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
