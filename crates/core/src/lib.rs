#![allow(clippy::needless_range_loop)] // lockstep indexing over parallel arrays reads clearer in numeric kernels
#![warn(missing_docs)]

//! # sg-core — compact sparse grids
//!
//! Rust reproduction of *Murarasu, Weidendorfer, Buse, Butnaru, Pflüger:
//! "Compact Data Structure and Scalable Algorithms for the Sparse Grid
//! Technique", PPoPP 2011*.
//!
//! The crate provides:
//!
//! * the **`gp2idx` bijection** ([`bijection::GridIndexer`]) mapping sparse
//!   grid points to consecutive integers, so coefficients live in one
//!   contiguous array with zero structural overhead ([`grid::CompactGrid`]);
//! * **iterative hierarchization** (compression, [`hierarchize`]) and
//!   **evaluation** (decompression, [`evaluate`]), sequential and
//!   thread-parallel (via `sg-par`), plus the blocked batch evaluation of
//!   paper §4.3;
//! * the **boundary extension** of paper §4.4 ([`boundary`]);
//! * full grids, test functions, and the level-vector iterator machinery
//!   everything is built on.
//!
//! ## Quick start
//!
//! ```
//! use sg_core::prelude::*;
//!
//! // A 4-dimensional sparse grid of refinement level 5.
//! let spec = GridSpec::new(4, 5);
//! assert_eq!(spec.num_points(), 769);
//!
//! // Sample a function, compress, decompress anywhere.
//! let mut grid = CompactGrid::from_fn(spec, |x| {
//!     x.iter().map(|&v| 4.0 * v * (1.0 - v)).product::<f64>()
//! });
//! hierarchize(&mut grid);
//! let v = evaluate(&grid, &[0.5, 0.5, 0.5, 0.5]);
//! assert!((v - 1.0).abs() < 1e-12); // exact at grid points
//! ```

/// Statement/item gate for instrumentation: with the `telemetry` feature
/// the wrapped tokens are compiled verbatim, without it they vanish — no
/// atomics, no clocks, no dead branches in the hot paths.
///
/// All tokens come from the call site, so a `let` bound inside one `tel!`
/// invocation stays visible to later `tel!` invocations in the same scope
/// (accumulate locally, publish once).
#[cfg(feature = "telemetry")]
macro_rules! tel {
    ($($t:tt)*) => { $($t)* };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! tel {
    ($($t:tt)*) => {};
}
pub(crate) use tel;

pub mod bijection;
pub mod boundary;
pub mod combinatorics;
pub mod error;
pub mod evaluate;
pub mod full_grid;
pub mod functions;
pub mod grid;
pub mod hierarchize;
pub mod iter;
pub mod kernel;
pub mod level;
pub mod norms;
pub mod plan;
pub mod quadrature;
pub mod real;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::bijection::GridIndexer;
    pub use crate::error::SgError;
    pub use crate::evaluate::{
        evaluate, evaluate_batch, evaluate_batch_blocked, evaluate_batch_blocked_into,
        evaluate_batch_blocked_with_plan, evaluate_batch_parallel, EvalScratch,
    };
    pub use crate::full_grid::FullGrid;
    pub use crate::functions::{halton_points, TestFunction};
    pub use crate::grid::CompactGrid;
    pub use crate::hierarchize::{
        dehierarchize, dehierarchize_parallel, hierarchize, hierarchize_parallel,
    };
    pub use crate::kernel::{KernelKind, KernelSelect};
    pub use crate::level::{GridPoint, GridSpec};
    pub use crate::plan::EvalPlan;
    pub use crate::quadrature::{evaluate_with_gradient, integrate};
    pub use crate::real::Real;
}
