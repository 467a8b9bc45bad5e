#![warn(missing_docs)]

//! # sg-serve — the sparse-grid evaluation daemon
//!
//! The paper's compact grid is a read-mostly structure with a cheap
//! batched evaluation path, which is exactly the shape of an
//! inference-serving workload. This crate turns the library stack into
//! a long-running server:
//!
//! - a **fleet** of models keyed by name, each an immutable
//!   `CompactGrid` + [`sg_core::plan::EvalPlan`] loaded from an SGC2
//!   snapshot ([`fleet`]),
//! - **hot swap** behind epoch-based reclamation ([`epoch`]): a swap
//!   replaces one atomic pointer; in-flight readers never block and
//!   never observe a torn model,
//! - a length-prefixed **wire protocol** ([`protocol`]): sg-json frames
//!   for the control plane (load/unload/swap/stats), raw little-endian
//!   `f64` frames for the data plane,
//! - an **engine** ([`engine`]) that evaluates each request on the
//!   connection thread that read it, through the shared plan and SIMD
//!   kernels, after a FIFO admission gate over the points in flight
//!   with a bounded line of waiters and a typed overload reply. Each
//!   connection owns a preallocated workspace (ffsvm's `Problem` idiom),
//!   so the steady-state request path performs **zero allocations**,
//! - TCP and Unix-socket **front ends** ([`server`]) plus a blocking
//!   [`client`] used by the load generator, the protocol tests, and the
//!   CI smoke job.
//!
//! Telemetry (`serve.*` counters and histograms: requests waiting at
//! admission, points and time per evaluation, request latency) is
//! compiled in behind the `telemetry` cargo feature, mirroring the other
//! crates.

/// Wrap telemetry statements so they compile away without the feature.
macro_rules! tel {
    ($($body:tt)*) => {
        #[cfg(feature = "telemetry")]
        {
            $($body)*
        }
    };
}

pub mod client;
pub mod engine;
pub mod epoch;
pub mod fleet;
pub mod protocol;
pub mod server;

pub use client::{Client, RetryPolicy, RetryStats};
pub use engine::{Engine, ServeConfig};
pub use fleet::Fleet;
pub use protocol::{FrameKind, ServeError, RESP_FLAG_DEGRADED};
pub use server::Server;

/// Parse a `usize` environment knob with a documented minimum:
/// unset → `default`; below `min` → clamped with a one-line stderr
/// warning; unparseable → `default` with a warning. The warning fires
/// once per knob per process, so a hot path re-reading the variable
/// cannot spam the log.
pub(crate) fn env_knob(name: &'static str, default: usize, min: usize) -> usize {
    use std::sync::Mutex;
    static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let warn_once = |msg: String| {
        let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
        if !warned.contains(&name) {
            warned.push(name);
            eprintln!("{msg}");
        }
    };
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= min => n,
            Ok(n) => {
                warn_once(format!(
                    "warning: {name}={n} is invalid: must be >= {min}; clamping to {min}"
                ));
                min
            }
            Err(_) => {
                warn_once(format!(
                    "warning: {name}={v:?} is invalid: not a number; using the default of {default}"
                ));
                default
            }
        },
    }
}

pub(crate) use tel;
