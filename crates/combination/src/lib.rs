#![allow(clippy::needless_range_loop)] // lockstep indexing over parallel arrays reads clearer in numeric kernels
#![warn(missing_docs)]

//! # sg-combination — the combination technique
//!
//! The classical alternative to the paper's *direct* sparse grid method
//! (paper §7, related work): approximate the sparse grid interpolant by
//! an inclusion–exclusion superposition of interpolants on small
//! *anisotropic full grids*,
//!
//! ```text
//! u_n^c = Σ_{q=0}^{d−1} (−1)^q · C(d−1, q) · Σ_{|l|₁ = n−q} u_l
//! ```
//!
//! (levels zero-based, `n = L−1` the grid's largest level sum). The
//! component solves parallelize trivially and vectorize well — but "grid
//! points and corresponding function values have to be replicated across
//! multiple full grids. Thus, higher memory requirements have to be met"
//! (paper §7). [`CombinationGrid`] is that replicated form: it backs the
//! §7 memory measurements and, through its nodal superposition
//! [`CombinationGrid::evaluate`], serves as an independent test oracle
//! for the direct implementation in `sg-core` — the combination identity
//! is *exact for interpolation*. The fault-tolerant
//! [`CombinationExecutor`] does not return that form: it folds the
//! components it recovers into one `CompactGrid`, which stores each
//! point once.

/// Statement/item gate for instrumentation: compiled verbatim with the
/// `telemetry` feature, compiled away without it (see `sg_core`'s twin).
#[cfg(feature = "telemetry")]
macro_rules! tel {
    ($($t:tt)*) => { $($t)* };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! tel {
    ($($t:tt)*) => {};
}

pub mod aniso;
pub mod executor;
pub mod reweight;

pub use aniso::AnisoFullGrid;
pub use executor::{
    CombinationExecutor, ExecutorConfig, ExecutorRun, InjectedFaults, RecoveryPolicy, RunOutcome,
};
pub use reweight::{downset_coefficients, solve_reweight, ReweightPlan};

use sg_core::combinatorics::binomial;
use sg_core::iter::for_each_level;
use sg_core::level::{GridSpec, Level};
use sg_core::real::Real;

/// One component grid with its combination coefficient.
#[derive(Debug, Clone)]
pub struct Component<T> {
    /// Inclusion–exclusion coefficient `(−1)^q · C(d−1, q)`.
    pub coefficient: i64,
    /// The anisotropic full grid carrying the samples.
    pub grid: AnisoFullGrid<T>,
}

/// A sparse grid function represented via the combination technique.
#[derive(Debug, Clone)]
pub struct CombinationGrid<T> {
    spec: GridSpec,
    components: Vec<Component<T>>,
}

impl<T: Real> CombinationGrid<T> {
    /// The level vectors and coefficients of the combination for a grid
    /// shape, without sampling anything.
    pub fn scheme(spec: GridSpec) -> Vec<(i64, Vec<Level>)> {
        let d = spec.dim();
        let n = spec.max_sum();
        let mut out = Vec::new();
        for q in 0..=(d - 1).min(n) {
            let coef = binomial((d - 1) as u64, q as u64) as i64 * if q % 2 == 0 { 1 } else { -1 };
            for_each_level(d, n - q, |l| out.push((coef, l.to_vec())));
        }
        out
    }

    /// Sample `f` on every component grid (in parallel over components).
    pub fn from_fn(spec: GridSpec, f: impl Fn(&[f64]) -> T + Sync) -> Self {
        let scheme = Self::scheme(spec);
        let components = sg_par::par_map(&scheme, |(coefficient, levels)| Component {
            coefficient: *coefficient,
            grid: AnisoFullGrid::from_fn(levels, &f),
        });
        Self { spec, components }
    }

    /// Grid shape this combination represents.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The component grids.
    pub fn components(&self) -> &[Component<T>] {
        &self.components
    }

    /// Evaluate the combined interpolant at `x ∈ [0,1]^d`.
    pub fn evaluate(&self, x: &[f64]) -> T {
        let acc: f64 = self
            .components
            .iter()
            .map(|c| c.coefficient as f64 * c.grid.interpolate(x))
            .sum();
        T::from_f64(acc)
    }

    /// Total stored values across all components — with the replication
    /// the paper criticizes: strictly more than the direct sparse grid's
    /// point count.
    pub fn total_points(&self) -> u64 {
        self.components.iter().map(|c| c.grid.len() as u64).sum()
    }

    /// Replication factor over the direct representation.
    pub fn replication_factor(&self) -> f64 {
        self.total_points() as f64 / self.spec.num_points() as f64
    }

    /// Bytes held by all component grids.
    pub fn memory_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.grid.memory_bytes())
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::evaluate::evaluate;
    use sg_core::functions::{halton_points, TestFunction};
    use sg_core::grid::CompactGrid;
    use sg_core::hierarchize::hierarchize;

    #[test]
    fn scheme_coefficients_sum_to_one() {
        // Inclusion–exclusion must reproduce constants: Σ coef = 1 for
        // any d, L (each component reproduces a constant function).
        for d in 1..=5 {
            for levels in 1..=5 {
                let spec = GridSpec::new(d, levels);
                let total: i64 = CombinationGrid::<f64>::scheme(spec)
                    .iter()
                    .map(|(c, _)| *c)
                    .sum();
                assert_eq!(total, 1, "d={d} levels={levels}");
            }
        }
    }

    #[test]
    fn scheme_degenerate_downset_d1() {
        // d = 1: a single diagonal (q only reaches 0), one component per
        // level sum — the downset is a chain and the combination is the
        // full grid itself. Coefficient sum pinned to 1.
        for levels in 1..=6 {
            let spec = GridSpec::new(1, levels);
            let scheme = CombinationGrid::<f64>::scheme(spec);
            assert_eq!(scheme.len(), 1, "levels={levels}");
            assert_eq!(scheme[0].0, 1, "levels={levels}");
            assert_eq!(scheme[0].1, vec![spec.max_sum() as Level]);
        }
    }

    #[test]
    fn scheme_degenerate_downset_n0() {
        // n = 0 (refinement level 1): the downset is the origin alone in
        // every dimension — q is clamped by `min(n)`, exactly one
        // component, coefficient exactly 1.
        for d in 1..=6 {
            let spec = GridSpec::new(d, 1);
            let scheme = CombinationGrid::<f64>::scheme(spec);
            assert_eq!(scheme.len(), 1, "d={d}");
            assert_eq!(scheme[0].0, 1, "d={d}");
            assert_eq!(scheme[0].1, vec![0 as Level; d]);
            let total: i64 = scheme.iter().map(|(c, _)| *c).sum();
            assert_eq!(total, 1, "d={d}");
        }
    }

    #[test]
    fn scheme_component_counts() {
        // q-th diagonal has S_{n−q}^d components.
        let spec = GridSpec::new(3, 4);
        let scheme = CombinationGrid::<f64>::scheme(spec);
        let on = |coef: i64| scheme.iter().filter(|(c, _)| *c == coef).count() as u64;
        // q=0: coef +1 (10 components), q=1: −2 (6), q=2: +1 (3).
        assert_eq!(
            on(1),
            sg_core::combinatorics::subspace_count(3, 3)
                + sg_core::combinatorics::subspace_count(3, 1)
        );
        assert_eq!(on(-2), sg_core::combinatorics::subspace_count(3, 2));
    }

    #[test]
    fn combination_equals_direct_sparse_interpolant() {
        // The combination identity is exact for interpolation: the
        // combined interpolant IS the sparse grid interpolant.
        let f = TestFunction::Gaussian;
        for (d, levels) in [(1usize, 5usize), (2, 4), (3, 4), (4, 3)] {
            let spec = GridSpec::new(d, levels);
            let comb = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
            let mut direct = CompactGrid::<f64>::from_fn(spec, |x| f.eval(x));
            hierarchize(&mut direct);
            for x in halton_points(d, 60).chunks_exact(d) {
                let a = comb.evaluate(x);
                let b = evaluate(&direct, x);
                assert!(
                    (a - b).abs() < 1e-11,
                    "d={d} levels={levels} x={x:?}: combination {a} vs direct {b}"
                );
            }
        }
    }

    #[test]
    fn one_dimensional_combination_is_the_full_grid() {
        let spec = GridSpec::new(1, 4);
        let comb = CombinationGrid::<f64>::from_fn(spec, |x| x[0] * (1.0 - x[0]));
        assert_eq!(comb.components().len(), 1);
        assert_eq!(comb.components()[0].coefficient, 1);
        assert_eq!(comb.total_points(), spec.num_points());
    }

    #[test]
    fn replication_exceeds_direct_storage() {
        // The paper's criticism quantified: the combination technique
        // stores strictly more values than the direct representation,
        // increasingly so in higher dimensions.
        let r3 =
            CombinationGrid::<f64>::from_fn(GridSpec::new(3, 5), |x| x[0]).replication_factor();
        let r5 =
            CombinationGrid::<f64>::from_fn(GridSpec::new(5, 5), |x| x[0]).replication_factor();
        assert!(r3 > 1.0, "replication {r3}");
        assert!(r5 > r3, "replication should grow with d: {r3} → {r5}");
    }

    #[test]
    fn exact_at_sparse_grid_points() {
        let f = TestFunction::Parabola;
        let spec = GridSpec::new(2, 4);
        let comb = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
        sg_core::iter::for_each_point(&spec, |_, l, i| {
            let x: Vec<f64> = l
                .iter()
                .zip(i)
                .map(|(&lt, &it)| sg_core::level::coordinate(lt, it))
                .collect();
            let got = comb.evaluate(&x);
            assert!((got - f.eval(&x)).abs() < 1e-12, "x={x:?}");
        });
    }
}
