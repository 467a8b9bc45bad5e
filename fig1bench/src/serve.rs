//! `serve_zipf`: small requests from two connections, Zipf-distributed
//! over four small models that together fit in L2, against an
//! in-process `sgd`. The run alternates open-loop segments at a fixed
//! rate below capacity, while the most popular model is hot-swapped
//! between two generations, with closed-loop segments that probe
//! capacity. Batches stay below the engine's pool threshold, so
//! transport, the admission queue, coalescing and epoch-based swap
//! dominate.

use crate::compress::{bitwise_equal, fig1_path};
use crate::oracle::{self, Rng};
use crate::trace::{Counters, Tracer};
use crate::{stats, Args, Outcome};
use sg_core::prelude::*;
use sg_serve::{Client, Engine, Fleet, RetryPolicy, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 5;
const LEVELS: usize = 8;
const MODELS: usize = 4;
const POINTS: usize = 32;
const CONNS: usize = 2;
/// Offered rate of the open loop, requests per second: about a fifth of
/// the closed-loop capacity, so a host episode that halves the server's
/// speed does not push the open loop into saturation.
const RATE: u64 = 1000;
const SWAP_EVERY: Duration = Duration::from_millis(150);
const ZIPF_S: f64 = 1.0;
/// Open-loop and closed-loop segments alternate this many times.
const CYCLES: usize = 6;
/// Statistics window, seconds.
const WINDOW: f64 = 1.0;
const WARMUP_REQUESTS: usize = 200;
/// Traced build: requests evaluated by the library after the phases.
const LIBRARY_REQUESTS: u64 = 500;
/// Swaps per block of the printed p90: the median of the blocks' p90s.
const BLOCK: usize = 16;
/// Generation B of model 0 is generation A scaled by this.
const GEN_B: f64 = 1.5;

/// An in-process `sgd` on a loopback port, with the default knobs.
/// Dropping it drains the server gracefully.
pub struct Daemon {
    server: Arc<Server>,
    addr: String,
}

impl Daemon {
    pub fn start() -> Daemon {
        let engine = Engine::new(Fleet::new(16), ServeConfig::default());
        let server = Server::start(engine, Some("127.0.0.1:0"), None).expect("starting sgd");
        let addr = server
            .tcp_addr()
            .expect("sgd bound a TCP listener")
            .to_string();
        Daemon { server, addr }
    }

    pub fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connecting to sgd")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.server.drain(Duration::from_secs(10)) {
            eprintln!("fig1bench: sgd drain was forced");
        }
    }
}

/// Build a model of `s · ∏ 4x(1−x)` through [`fig1_path`], checkpointed
/// to `path`. Returns the grid and whether it restored bitwise.
pub fn build_model(
    dim: usize,
    levels: usize,
    s: f64,
    path: &Path,
    tr: &mut Tracer,
    id: u64,
) -> (CompactGrid<f64>, bool) {
    let (grid, back) = fig1_path(tr, GridSpec::new(dim, levels), s, path, id, None);
    let ok = back.is_some_and(|b| bitwise_equal(&grid, &b));
    (grid, ok)
}

fn model_name(m: usize) -> &'static str {
    ["m0", "m1", "m2", "m3"][m]
}

/// One connection's request loop state. Every reply is checked inline,
/// after its timing is taken, against the closed-form interpolant: a
/// reply must match exactly one generation of its model (model 0 may be
/// either, the others only generation A).
struct Conn<'a> {
    client: &'a mut Client,
    seed: u64,
    cdf: &'a [f64],
    scales: &'a [f64],
    model: usize,
    xs: Vec<f64>,
    out: Vec<f64>,
    scratch: (Vec<f64>, Vec<f64>),
}

impl<'a> Conn<'a> {
    fn new(client: &'a mut Client, seed: u64, cdf: &'a [f64], scales: &'a [f64]) -> Conn<'a> {
        Conn {
            client,
            seed,
            cdf,
            scales,
            model: 0,
            xs: Vec::with_capacity(POINTS * DIM),
            out: Vec::with_capacity(POINTS),
            scratch: (Vec::new(), Vec::new()),
        }
    }

    /// Draw request `k` of `stream`: a Zipf-drawn model and `POINTS`
    /// query points.
    fn draw(&mut self, stream: u64, k: u64) {
        let mut rng = Rng::new(self.seed ^ k.wrapping_mul(0x9E37_79B9), stream);
        let u = rng.open01();
        self.model = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1);
        self.xs.clear();
        self.xs.extend((0..POINTS * DIM).map(|_| rng.open01()));
    }

    fn send(&mut self) -> bool {
        match self
            .client
            .eval_into(model_name(self.model), DIM, &self.xs, &mut self.out)
        {
            Ok(_) => true,
            Err(e) => {
                eprintln!("serve_zipf: request failed: {e}");
                false
            }
        }
    }

    fn check(&mut self) -> bool {
        let Conn {
            xs, out, scratch, ..
        } = self;
        let mut matches = |s: f64| {
            out.len() == POINTS
                && xs.chunks_exact(DIM).zip(out.iter()).all(|(x, &g)| {
                    oracle::eval_ok(
                        g,
                        oracle::interpolant(s, LEVELS, x, &mut scratch.0, &mut scratch.1),
                        s,
                    )
                })
        };
        let a = matches(self.scales[self.model]);
        let b = self.model == 0 && matches(self.scales[0] * GEN_B);
        a != b
    }

    /// Draw, send and check request `k` of `stream`.
    fn call(&mut self, stream: u64, k: u64) -> bool {
        self.draw(stream, k);
        self.send() && self.check()
    }
}

struct State {
    conns: Vec<Client>,
    ctrl: Client,
    /// Generation A of every model, as built.
    grids: Vec<CompactGrid<f64>>,
    _daemon: Daemon,
}

fn zipf_cdf() -> Vec<f64> {
    let w: Vec<f64> = (1..=MODELS)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = w.iter().sum();
    w.iter()
        .scan(0.0, |acc, v| {
            *acc += v / total;
            Some(*acc)
        })
        .collect()
}

/// Hot swaps of `m0` across the open-loop segments. Even swaps install
/// generation B, odd ones generation A.
#[derive(Default)]
struct Swaps {
    swap_ms: Vec<f64>,
    /// Traced build: the swap snapshot read directly before each swap.
    read_ms: Vec<f64>,
    failed: u64,
    spans: Option<Tracer>,
}

/// One open-loop segment of `count` requests over `secs` seconds,
/// numbered from `first`. Connection c owns arrivals c, c + CONNS, …;
/// each is timed from the moment it was due. Meanwhile `ctrl` hot-swaps
/// `m0` every [`SWAP_EVERY`].
#[allow(clippy::too_many_arguments)]
fn open_segment(
    conns: &mut [Client],
    ctrl: &mut Client,
    swaps: &mut Swaps,
    seed: u64,
    cdf: &[f64],
    scales: &[f64],
    (count, secs): (u64, f64),
    first: u64,
    origin: Instant,
    gen_a: &Path,
    gen_b: &Path,
) -> Vec<(Vec<Timing>, u64, Tracer)> {
    let traced = cfg!(feature = "trace");
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let tr = swaps.spans.get_or_insert_with(|| Tracer::new(origin));
            let mut next = start + SWAP_EVERY;
            while next < end {
                if let Some(wait) = next.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let k = swaps.swap_ms.len() as u64;
                let path = if k.is_multiple_of(2) { gen_b } else { gen_a };
                if traced {
                    let t = Instant::now();
                    let r = tr.span("io.restore", k, None, || {
                        sg_io::read_snapshot_file::<f64>(path)
                    });
                    swaps.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    swaps.failed += r.is_err() as u64;
                }
                let t = Instant::now();
                let r = tr.span("serve.swap", k, None, || ctrl.load(model_name(0), path));
                swaps.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = r {
                    eprintln!("serve_zipf: swap {k} failed: {e}");
                    swaps.failed += 1;
                }
                next += SWAP_EVERY;
            }
        });
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(client, seed, cdf, scales);
                    let mut tr = Tracer::new(origin);
                    let mut timing: Vec<Timing> =
                        Vec::with_capacity((count / CONNS as u64 + 1) as usize);
                    let mut failed = 0u64;
                    let mut k = c as u64;
                    while k < count {
                        let due = start + Duration::from_nanos(k * 1_000_000_000 / RATE);
                        conn.draw(20, first + k);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let ok = tr.span("serve.request", first + k, None, || conn.send());
                        let done = Instant::now();
                        timing.push((
                            (due - start).as_secs_f64(),
                            (done - due).as_secs_f64() * 1e3,
                            (sent - due).as_secs_f64() * 1e3,
                        ));
                        failed += !(ok && conn.check()) as u64;
                        k += CONNS as u64;
                    }
                    (timing, failed, tr)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop worker"))
            .collect()
    })
}

/// One closed-loop segment of `secs` seconds: completions per
/// [`WINDOW`] (whole windows only, as a rate), round trips (traced
/// build), requests sent and failed.
#[allow(clippy::too_many_arguments)]
fn closed_segment(
    conns: &mut [Client],
    seed: u64,
    cdf: &[f64],
    scales: &[f64],
    secs: f64,
    windows: usize,
    cycle: u64,
    traced: bool,
) -> (Vec<f64>, Vec<f64>, u64, u64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let parts: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(client, seed, cdf, scales);
                    let mut rtt_ms = Vec::new();
                    let mut per_window = vec![0.0f64; windows];
                    let (mut sent, mut failed) = (0u64, 0u64);
                    while Instant::now() < end {
                        conn.draw(30 + c as u64 + 8 * cycle, sent);
                        let t = Instant::now();
                        let ok = conn.send();
                        if traced {
                            rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        if let Some(w) =
                            per_window.get_mut((start.elapsed().as_secs_f64() / WINDOW) as usize)
                        {
                            *w += 1.0 / WINDOW;
                        }
                        failed += !(ok && conn.check()) as u64;
                        sent += 1;
                    }
                    (per_window, rtt_ms, sent, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker"))
            .collect()
    });
    let mut total = (vec![0.0; windows], Vec::new(), 0, 0);
    for (w, rtt, n, f) in parts {
        total.0.iter_mut().zip(w).for_each(|(a, b)| *a += b);
        total.1.extend(rtt);
        total.2 += n;
        total.3 += f;
    }
    total
}

/// Start `sgd`, load the four models, open the connections, and send
/// `warmup` checked requests. Returns the state and the failures.
fn start(
    grids: Vec<CompactGrid<f64>>,
    paths: &[PathBuf],
    seed: u64,
    cdf: &[f64],
    scales: &[f64],
    warm: &mut u64,
    warmup: usize,
) -> (State, u64) {
    let daemon = Daemon::start();
    let mut ctrl = daemon.connect();
    for (m, p) in paths.iter().enumerate() {
        ctrl.load(model_name(m), p).expect("loading a model");
    }
    let mut conns: Vec<Client> = (0..CONNS).map(|_| daemon.connect()).collect();
    let mut failed = 0;
    for (c, client) in conns.iter_mut().enumerate() {
        client.set_retry_policy(Some(RetryPolicy {
            budget: 20,
            base: Duration::from_micros(200),
            max: Duration::from_millis(5),
            seed: seed ^ c as u64,
        }));
        let mut conn = Conn::new(client, seed, cdf, scales);
        for _ in 0..warmup / CONNS {
            *warm += 1;
            failed += !conn.call(10, *warm) as u64;
        }
    }
    let st = State {
        conns,
        ctrl,
        grids,
        _daemon: daemon,
    };
    (st, failed)
}

/// Per-request record of the open loop: due time (s from phase start),
/// latency from the due time (ms), how late it was sent (ms).
type Timing = (f64, f64, f64);

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let mut rng = Rng::new(seed, 1);
    let scales: Vec<f64> = (0..MODELS).map(|m| 1.0 + m as f64 + rng.open01()).collect();
    let paths: Vec<PathBuf> = (0..MODELS)
        .map(|m| args.work.join(format!("serve-{m}.sgc2")))
        .collect();
    let gen_b = args.work.join("serve-0b.sgc2");
    let cdf = zipf_cdf();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: build, checkpoint and restore both generations, start sgd,
    // connect, load the models, and warm up with checked requests.
    let traced = cfg!(feature = "trace");
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut warm = 0u64;
    let mut builds = 0u64;
    let (mut st, setup_s) = crate::timed_setup(|| {
        let mut build = |s: f64, path: &Path| {
            let (grid, ok) = build_model(DIM, LEVELS, s, path, &mut tr, builds);
            builds += 1;
            attempted += 1;
            failed += !ok as u64;
            grid
        };
        let grids: Vec<_> = paths
            .iter()
            .zip(&scales)
            .map(|(p, &s)| build(s, p))
            .collect();
        build(scales[0] * GEN_B, &gen_b);
        let (st, f) = start(
            grids,
            &paths,
            seed,
            &cdf,
            &scales,
            &mut warm,
            WARMUP_REQUESTS,
        );
        failed += f;
        st
    });
    let checkpoint_mb = crate::file_mb(&gen_b);

    // Traced build: the transport floor, from pings before the phases.
    let mut ping_us = Vec::new();
    if traced {
        for k in 0..500 {
            let t = Instant::now();
            let r = tr.span("serve.ping", k, None, || st.ctrl.ping());
            failed += r.is_err() as u64;
            attempted += 1;
            ping_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    // The run alternates CYCLES open-loop and closed-loop segments, so
    // both phases sample the whole run rather than one half of it.
    let seg_secs = args.seconds / (2 * CYCLES) as f64;
    let per_seg = (RATE as f64 * seg_secs).round() as u64;
    let windows = (seg_secs / WINDOW).floor() as usize;
    let before = Counters::now();
    let mut swaps = Swaps::default();
    let (mut lat, mut lateness, mut per_window) = (Vec::new(), Vec::new(), Vec::new());
    let (mut closed_rtt, mut closed_n, mut open_failed, mut closed_failed) =
        (Vec::new(), 0u64, 0u64, 0u64);
    let State { conns, ctrl, .. } = &mut st;
    for cycle in 0..CYCLES {
        let open = open_segment(
            conns,
            ctrl,
            &mut swaps,
            seed,
            &cdf,
            &scales,
            (per_seg, seg_secs),
            cycle as u64 * per_seg,
            origin,
            &paths[0],
            &gen_b,
        );
        for (timing, f, wtr) in open {
            for (t, l, late) in timing {
                lat.push((cycle * windows + (t / WINDOW) as usize, l));
                lateness.push(late);
            }
            open_failed += f;
            tr.absorb(wtr);
        }
        let (w, rtt, n, f) = closed_segment(
            conns,
            seed,
            &cdf,
            &scales,
            seg_secs,
            windows,
            cycle as u64,
            traced,
        );
        per_window.extend(w);
        closed_rtt.extend(rtt);
        closed_n += n;
        closed_failed += f;
    }
    let retries: u64 = conns.iter().map(|c| c.retry_stats().retries).sum();
    attempted += warm;
    let after = Counters::now();
    // Traced build: the library evaluates requests like those served,
    // each checked against the closed form.
    if traced {
        let mut xs = Vec::with_capacity(POINTS * DIM);
        let (mut p, mut q) = (Vec::new(), Vec::new());
        for k in 0..LIBRARY_REQUESTS {
            let mut rng = Rng::new(seed ^ k.wrapping_mul(0x9E37_79B9), 40);
            let u = rng.open01();
            let m = cdf.iter().position(|&c| u < c).unwrap_or(MODELS - 1);
            xs.clear();
            xs.extend((0..POINTS * DIM).map(|_| rng.open01()));
            let got = tr.counted_eval(k, || evaluate_batch_parallel(&st.grids[m], &xs, 64));
            let ok = got.len() == POINTS
                && xs.chunks_exact(DIM).zip(&got).all(|(x, &g)| {
                    oracle::eval_ok(
                        g,
                        oracle::interpolant(scales[m], LEVELS, x, &mut p, &mut q),
                        scales[m],
                    )
                });
            attempted += 1;
            failed += !ok as u64;
        }
    }
    drop(st);
    for p in paths.iter().chain([&gen_b]) {
        std::fs::remove_file(p).ok();
    }

    let Swaps {
        mut swap_ms,
        mut read_ms,
        failed: swaps_failed,
        spans,
    } = swaps;
    if let Some(spans) = spans {
        tr.absorb(spans);
    }
    let open_n = per_seg * CYCLES as u64;
    let swaps_n = swap_ms.len() as u64;
    attempted += open_n + closed_n + swaps_n;
    failed += open_failed + closed_failed + swaps_failed;
    println!(
        "serve_zipf: warm-up requests {warm}; open loop at {RATE} rps: sent {open_n}, failed {open_failed}; \
         swaps {swaps_n}, failed {swaps_failed}; closed loop: sent {closed_n}, failed {closed_failed}; \
         retried {retries}; {CYCLES} cycles of both phases; {MODELS} models d={DIM} level {LEVELS}, {POINTS}-point requests, {CONNS} connections"
    );

    // Open-loop latency (medians of the p50s, p90s and p99s of 1-s windows
    // of 1000 requests) and closed-loop capacity are printed but are no
    // metrics: on a shared two-core host they moved by a fifth or more
    // between runs of the same code while the host probe did not, and
    // host episodes of a few minutes tripled the open-loop p50.
    let mut p50s = stats::window_quantiles(&lat, 0.5, 1000);
    let mut p90s = stats::window_quantiles(&lat, 0.9, 1000);
    let mut p99s = stats::window_quantiles(&lat, 0.99, 1000);
    println!(
        "serve_zipf: open-loop window medians: p50 {:.4} ms, p90 {:.3} ms, p99 {:.3} ms; closed-loop capacity (median 1-s window): {:.0} requests/s; peak RSS {:.2} MB",
        stats::median(&mut p50s),
        stats::median(&mut p90s),
        stats::median(&mut p99s),
        stats::median(&mut per_window),
        crate::peak_rss_mb()
    );
    let mut swap_p90s = stats::block_quantiles(&swap_ms, BLOCK, 0.9);
    println!(
        "serve_zipf: swap p90 {:.3} ms (median of 16-swap blocks)",
        stats::median(&mut swap_p90s)
    );
    let mut out = Outcome {
        attempted,
        failed,
        end_to_end: crate::end_to_end(setup_s, stats::median(&mut swap_ms.clone()), checkpoint_mb),
        per_layer: Vec::new(),
    };
    if traced {
        let (batches, batch_ns) = after.hist_since(&before, "serve.batch.ns");
        let (_, jobs) = after.hist_since(&before, "serve.batch.jobs");
        let (depths, depth) = after.hist_since(&before, "serve.queue.depth");
        let overloads = after.counter_since(&before, "serve.overload");
        let batch_us = batch_ns / batches.max(1.0) / 1e3;
        let ping = stats::median(&mut ping_us);
        let rtt_ms = stats::median(&mut closed_rtt);
        crate::print_layer_table(
            "serve_zipf",
            "closed-loop request",
            rtt_ms,
            &[
                ("serve.ping_rtt (transport floor)", ping / 1e3),
                ("serve.batch (mean batch)", batch_us / 1e3),
                ("residual", rtt_ms - (ping + batch_us) / 1e3),
            ],
        );
        println!(
            "  coalesced jobs per batch {:.3}; mean queue depth {:.3}; retries and overloads {}; \
             library evaluation of a request {:.4} ms",
            jobs / batches.max(1.0),
            depth / depths.max(1.0),
            retries as f64 + overloads,
            tr.median_ms("core.eval").0
        );
        println!(
            "  open-loop lateness p50 {:.4} ms, p99 {:.4} ms",
            stats::quantile(&mut lateness, 0.5),
            stats::quantile(&mut lateness, 0.99)
        );
        let swap = stats::median(&mut swap_ms);
        crate::print_layer_table(
            "serve_zipf",
            "hot swap",
            swap,
            &[(
                "io.restore (the same snapshot, read directly)",
                stats::median(&mut read_ms),
            )],
        );
        out.per_layer = tr.layer_metrics(rtt_ms - (ping + batch_us) / 1e3);
        crate::write_spans(args, &tr);
    }
    out
}
