//! The differential executor: every operation runs through independent
//! tiers and any disagreement is a failure.
//!
//! Tier map per operation:
//!
//! | op              | tier A (compact)          | tier B (baseline)        | tier C (oracle)                  |
//! |-----------------|---------------------------|--------------------------|----------------------------------|
//! | sample-identity | `CompactGrid::from_fn`    | `StdMapGrid::fill_from`  | `FullGrid::restrict_to_sparse`   |
//! | hierarchize     | Alg. 6 iterative          | Alg. 1 recursive         | definitional surpluses           |
//! | evaluate        | Alg. 7 subspace sweep     | Alg. 2 recursive         | brute basis sum                  |
//! | batch-*         | blocked / parallel        | scalar loop              | — (bitwise contract)             |
//! | roundtrip       | hierarchize∘dehierarchize | parallel variants        | original nodal values            |
//! | boundary        | `BoundaryGrid`            | in-repo brute basis sum  | size formula (paper §4.4)        |
//! | adaptive        | tree-walk evaluate        | brute surplus sum        | regular-grid compact equivalence |
//! | combination     | inclusion–exclusion       | direct + recursive       | coefficient identity, kernels    |
//! | domain-reject   | compact `evaluate`        | recursive `evaluate`     | — (both must reject)             |
//!
//! The compact operations additionally carry a **tier D**: the same
//! compact algorithm re-run under `sg_core::kernel` forced to the scalar
//! kernel and forced to the detected SIMD kernel (AVX2/NEON — on hosts
//! without SIMD the forced "SIMD" kind degrades to scalar and the tier
//! passes trivially). The SIMD kernels are constructed as exact
//! reorder-free transcriptions of the scalar arithmetic, so tier D is
//! compared **bitwise** against tier A on `evaluate`, `batch-*` and
//! `combination` cases. Hierarchization has a single scalar sweep, so
//! `hierarchize` and `roundtrip` carry no tier D.
//!
//! Comparisons between algorithms that are *defined* to be reorderings
//! of the same floating-point operations (blocked batches, parallel
//! sweeps, the literal Alg. 6 transcription, the forced-kernel tier)
//! are **bitwise**; everything else uses a scale-aware tolerance wide
//! enough for legitimate summation-order differences and far too tight
//! for any indexing bug, whose signature is an `O(scale)` error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sg_adaptive::AdaptiveSparseGrid;
use sg_baselines::{evaluate_recursive, hierarchize_recursive, SparseGridStore, StdMapGrid};
use sg_combination::CombinationGrid;
use sg_core::boundary::{BoundaryGrid, BoundaryIndexer, DimCoord};
use sg_core::combinatorics::{binomial, sparse_grid_points};
use sg_core::evaluate::{
    evaluate, evaluate_batch, evaluate_batch_blocked, evaluate_batch_parallel,
};
use sg_core::full_grid::FullGrid;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::{
    dehierarchize, dehierarchize_parallel, hierarchize, hierarchize_alg6_literal,
    hierarchize_parallel,
};
use sg_core::kernel::{detect, with_kernel, KernelKind, KernelSelect};
use sg_core::level::{hat, GridSpec, Index, Level};
use sg_prop::Rng;

use crate::gen::{query_points, shape, shape_with_full_grid, SampledFn};
use crate::oracle;

/// Every differential operation the fuzzer cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Nodal sampling identity across the three storage tiers.
    SampleIdentity,
    /// Hierarchization: compact vs recursive vs definitional oracle.
    Hierarchize,
    /// Point evaluation: compact vs recursive vs brute basis sum.
    Evaluate,
    /// `evaluate_batch_blocked` bitwise against the scalar batch.
    BatchBlocked,
    /// `evaluate_batch_parallel` bitwise against the scalar batch.
    BatchParallel,
    /// Hierarchize → dehierarchize returns the nodal values; parallel
    /// sweeps bitwise-match sequential ones.
    Roundtrip,
    /// Boundary extension: size formula, exactness, brute sum, roundtrip.
    Boundary,
    /// Adaptive grids: downset closure, tree-walk vs brute sum, regular
    /// bootstrap vs compact grid.
    Adaptive,
    /// Combination technique vs the direct sparse grid.
    Combination,
    /// Out-of-domain / NaN queries rejected consistently by both tiers.
    DomainReject,
}

impl Op {
    /// All operations, in executor round-robin order.
    pub const ALL: [Op; 10] = [
        Op::SampleIdentity,
        Op::Hierarchize,
        Op::Evaluate,
        Op::BatchBlocked,
        Op::BatchParallel,
        Op::Roundtrip,
        Op::Boundary,
        Op::Adaptive,
        Op::Combination,
        Op::DomainReject,
    ];

    /// Stable kebab-case name (CLI surface and reproducers).
    pub fn name(self) -> &'static str {
        match self {
            Op::SampleIdentity => "sample-identity",
            Op::Hierarchize => "hierarchize",
            Op::Evaluate => "evaluate",
            Op::BatchBlocked => "batch-blocked",
            Op::BatchParallel => "batch-parallel",
            Op::Roundtrip => "roundtrip",
            Op::Boundary => "boundary",
            Op::Adaptive => "adaptive",
            Op::Combination => "combination",
            Op::DomainReject => "domain-reject",
        }
    }

    /// Parse a CLI name back to the operation.
    pub fn parse(s: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == s)
    }
}

/// Fault injected into the compact tier to prove the harness detects
/// and shrinks real divergences (`sgtool fuzz --inject ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Injection {
    /// No fault: production code paths only.
    #[default]
    None,
    /// Model a `gp2idx` off-by-one on the final grid point: the last
    /// two storage slots of the compact tier are transposed, exactly
    /// the corruption a rank/offset bug produces.
    Gp2idxOffByOne,
}

/// One fully specified fuzz case. `shape`/`point` are normally `None`
/// (derived from the seed); the shrinker pins them to smaller values.
#[derive(Debug, Clone)]
pub struct Case {
    /// Which differential operation to run.
    pub op: Op,
    /// Seed for every random draw in the case.
    pub seed: u64,
    /// Shrinker override of the `(d, n)` shape.
    pub shape: Option<(usize, usize)>,
    /// Shrinker override restricting comparison to one flat index /
    /// query point.
    pub point: Option<usize>,
}

impl Case {
    /// A fresh, unshrunk case.
    pub fn new(op: Op, seed: u64) -> Self {
        Case {
            op,
            seed,
            shape: None,
            point: None,
        }
    }
}

/// A detected divergence: what disagreed, where, and on which shape.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Flat index (storage slot or query-point number) of the first
    /// disagreement, when the op compares element-wise.
    pub point: Option<usize>,
    /// Grid dimensionality the case ran at.
    pub d: usize,
    /// Grid level count the case ran at.
    pub n: usize,
}

impl Failure {
    fn new(detail: String, point: Option<usize>, d: usize, n: usize) -> Self {
        Failure {
            detail,
            point,
            d,
            n,
        }
    }
}

/// Scale-aware closeness for tiers that may legitimately reorder
/// floating-point sums.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * scale.max(1.0)
}

fn max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Whether flat element `k` participates in the comparison (the
/// shrinker narrows `case.point` to a single element).
fn compares(case: &Case, k: usize) -> bool {
    case.point.is_none_or(|p| p == k)
}

/// Build the compact tier, applying the requested fault.
fn compact_tier(spec: GridSpec, f: &SampledFn, inject: Injection) -> CompactGrid<f64> {
    let mut g = CompactGrid::from_fn(spec, |x| f.eval(x));
    if inject == Injection::Gp2idxOffByOne {
        let len = g.len();
        if len >= 2 {
            g.values_mut().swap(len - 1, len - 2);
        }
    }
    g
}

/// Per-case sub-rngs: the shape draw, the function draw, and the query
/// draw come from independent streams so a shrinker shape override
/// leaves the sampled function and points untouched.
fn rngs(case: &Case) -> (Rng, Rng, Rng) {
    (
        Rng::new(case.seed),
        Rng::new(case.seed ^ 0xF00D_F00D_F00D_F00D),
        Rng::new(case.seed ^ 0x9E37_79B9_7F4A_7C15),
    )
}

fn case_shape(case: &Case, drawn: (usize, usize)) -> (usize, usize) {
    case.shape.unwrap_or(drawn)
}

/// Tier D: run `compute` twice with the kernel dispatch pinned — once to
/// the scalar kernel, once to the detected SIMD kind (which *is* scalar
/// on hosts without SIMD, making the second leg a trivially-passing
/// duplicate there). The caller compares both results bitwise against
/// the auto-dispatched tier A result.
fn forced_kernel_tiers<R>(compute: impl Fn() -> R) -> [(KernelKind, R); 2] {
    let simd = detect();
    [
        (
            KernelKind::Scalar,
            with_kernel(KernelSelect::Force(KernelKind::Scalar), &compute),
        ),
        (simd, with_kernel(KernelSelect::Force(simd), &compute)),
    ]
}

/// Run one case; `Ok(())` means every tier agreed.
pub fn run_case(case: &Case, inject: Injection) -> Result<(), Failure> {
    match case.op {
        Op::SampleIdentity => sample_identity(case, inject),
        Op::Hierarchize => hierarchize_diff(case, inject),
        Op::Evaluate => evaluate_diff(case),
        Op::BatchBlocked => batch_diff(case, false),
        Op::BatchParallel => batch_diff(case, true),
        Op::Roundtrip => roundtrip(case),
        Op::Boundary => boundary_diff(case),
        Op::Adaptive => adaptive_diff(case),
        Op::Combination => combination_diff(case),
        Op::DomainReject => domain_reject(case),
    }
}

fn sample_identity(case: &Case, inject: Injection) -> Result<(), Failure> {
    let (mut srng, mut frng, _) = rngs(case);
    let (d, n) = case_shape(case, shape_with_full_grid(&mut srng, 4, 5, 4096));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);

    let compact = compact_tier(spec, &f, inject);
    let full = FullGrid::from_fn(d, n, |x| f.eval(x)).restrict_to_sparse(spec);
    let mut std_map = StdMapGrid::<f64>::new(spec);
    std_map.fill_from(|x| f.eval(x));
    let std_compact = std_map.to_compact();

    for k in 0..compact.len() {
        if !compares(case, k) {
            continue;
        }
        let a = compact.values()[k];
        let b = full.values()[k];
        let c = std_compact.values()[k];
        if a.to_bits() != b.to_bits() || a.to_bits() != c.to_bits() {
            return Err(Failure::new(
                format!("slot {k}: compact={a:?} full-grid={b:?} std-map={c:?} (bitwise)"),
                Some(k),
                d,
                n,
            ));
        }
    }
    Ok(())
}

fn hierarchize_diff(case: &Case, inject: Injection) -> Result<(), Failure> {
    let (mut srng, mut frng, _) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 4, 5, 300));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);

    let mut compact = compact_tier(spec, &f, inject);
    let literal = {
        let mut g = compact.clone();
        hierarchize_alg6_literal(&mut g);
        g
    };
    let par = {
        let mut g = compact.clone();
        hierarchize_parallel(&mut g);
        g
    };
    hierarchize(&mut compact);

    let mut store = StdMapGrid::<f64>::new(spec);
    store.fill_from(|x| f.eval(x));
    hierarchize_recursive(&mut store);
    let recursive = store.to_compact();

    let oracle_pts = oracle::definitional_surpluses(&spec, |x| f.eval(x));
    let oracle_grid = oracle::to_compact(&spec, &oracle_pts);

    let scale = max_abs(compact.values());
    for k in 0..compact.len() {
        if !compares(case, k) {
            continue;
        }
        let a = compact.values()[k];
        if a.to_bits() != literal.values()[k].to_bits() {
            return Err(Failure::new(
                format!(
                    "slot {k}: optimized={a:?} literal-alg6={:?}",
                    literal.values()[k]
                ),
                Some(k),
                d,
                n,
            ));
        }
        if a.to_bits() != par.values()[k].to_bits() {
            return Err(Failure::new(
                format!("slot {k}: sequential={a:?} parallel={:?}", par.values()[k]),
                Some(k),
                d,
                n,
            ));
        }
        let b = recursive.values()[k];
        if !close(a, b, scale) {
            return Err(Failure::new(
                format!("slot {k}: compact={a:?} recursive={b:?}"),
                Some(k),
                d,
                n,
            ));
        }
        let c = oracle_grid.values()[k];
        if !close(a, c, scale) {
            return Err(Failure::new(
                format!("slot {k}: compact={a:?} oracle={c:?}"),
                Some(k),
                d,
                n,
            ));
        }
    }
    Ok(())
}

fn evaluate_diff(case: &Case) -> Result<(), Failure> {
    let (mut srng, mut frng, mut qrng) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 4, 5, 300));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);

    let mut compact = CompactGrid::from_fn(spec, |x| f.eval(x));
    hierarchize(&mut compact);
    let mut store = StdMapGrid::<f64>::new(spec);
    store.fill_from(|x| f.eval(x));
    hierarchize_recursive(&mut store);
    let oracle_pts = oracle::definitional_surpluses(&spec, |x| f.eval(x));

    let scale = max_abs(compact.values());
    let xs = query_points(&mut qrng, &spec, 16);
    for (q, x) in xs.chunks_exact(d).enumerate() {
        if !compares(case, q) {
            continue;
        }
        let a = evaluate(&compact, x);
        let b = evaluate_recursive(&store, x);
        let c = oracle::brute_evaluate(&oracle_pts, x);
        if !close(a, b, scale) || !close(a, c, scale) {
            return Err(Failure::new(
                format!("query {q} at {x:?}: compact={a} recursive={b} oracle={c}"),
                Some(q),
                d,
                n,
            ));
        }
    }
    // Tier D: the blocked batch over the same queries under forced
    // kernels, bitwise against the scalar batch reference.
    let batch_ref = evaluate_batch(&compact, &xs);
    for (kind, got) in forced_kernel_tiers(|| evaluate_batch_blocked(&compact, &xs, 8)) {
        for (q, (a, b)) in batch_ref.iter().zip(&got).enumerate() {
            if !compares(case, q) {
                continue;
            }
            if a.to_bits() != b.to_bits() {
                return Err(Failure::new(
                    format!("query {q}: scalar-batch={a:?} forced-{}={b:?}", kind.name()),
                    Some(q),
                    d,
                    n,
                ));
            }
        }
    }
    // Interpolation exactness at every grid node (query index continues
    // after the random queries so the shrinker can pin one node).
    let base = xs.len() / d;
    for (k, p) in oracle_pts.iter().enumerate() {
        let q = base + k;
        if !compares(case, q) {
            continue;
        }
        let u = evaluate(&compact, &p.x);
        let fx = f.eval(&p.x);
        if !close(u, fx, scale) {
            return Err(Failure::new(
                format!("grid node {k} at {:?}: interpolant={u} f={fx}", p.x),
                Some(q),
                d,
                n,
            ));
        }
    }
    Ok(())
}

fn batch_diff(case: &Case, parallel: bool) -> Result<(), Failure> {
    let (mut srng, mut frng, mut qrng) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 4, 5, 3000));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);
    let mut grid = CompactGrid::from_fn(spec, |x| f.eval(x));
    hierarchize(&mut grid);

    let n_points = qrng.usize_in(0..=48);
    let xs = query_points(&mut qrng, &spec, n_points);
    // The empty and single-point batches ride along on every case.
    let subsets: [&[f64]; 3] = [&xs, &[], &xs[..d.min(xs.len() / d * d).min(d)]];
    for xs in subsets {
        let reference = evaluate_batch(&grid, xs);
        let len = xs.len() / d;
        for block in [1usize, 7, 64, len + 3] {
            let run = || {
                if parallel {
                    evaluate_batch_parallel(&grid, xs, block)
                } else {
                    evaluate_batch_blocked(&grid, xs, block)
                }
            };
            // Auto dispatch plus the forced-kernel tier D, all bitwise
            // against the scalar batch.
            let mut tiers = vec![(None, run())];
            for (kind, got) in forced_kernel_tiers(run) {
                tiers.push((Some(kind), got));
            }
            for (kind, got) in tiers {
                let label = match kind {
                    None if parallel => "parallel".to_string(),
                    None => "blocked".to_string(),
                    Some(k) => format!("forced-{}", k.name()),
                };
                if got.len() != reference.len() {
                    return Err(Failure::new(
                        format!(
                            "block {block}: {label} length {} vs scalar {}",
                            got.len(),
                            reference.len()
                        ),
                        None,
                        d,
                        n,
                    ));
                }
                for (q, (a, b)) in got.iter().zip(&reference).enumerate() {
                    if !compares(case, q) {
                        continue;
                    }
                    if a.to_bits() != b.to_bits() {
                        return Err(Failure::new(
                            format!(
                                "block {block} query {q}: {label}={a:?} scalar={b:?} (bitwise)"
                            ),
                            Some(q),
                            d,
                            n,
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn roundtrip(case: &Case) -> Result<(), Failure> {
    let (mut srng, mut frng, _) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 4, 5, 3000));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);
    let original = CompactGrid::from_fn(spec, |x| f.eval(x));

    let mut seq = original.clone();
    hierarchize(&mut seq);
    let mut back_par = seq.clone();
    dehierarchize(&mut seq);
    dehierarchize_parallel(&mut back_par);

    let scale = max_abs(original.values());
    for k in 0..original.len() {
        if !compares(case, k) {
            continue;
        }
        let a = seq.values()[k];
        if a.to_bits() != back_par.values()[k].to_bits() {
            return Err(Failure::new(
                format!(
                    "slot {k}: sequential dehierarchize={a:?} parallel={:?}",
                    back_par.values()[k]
                ),
                Some(k),
                d,
                n,
            ));
        }
        let v = original.values()[k];
        if !close(a, v, scale) {
            return Err(Failure::new(
                format!("slot {k}: roundtrip={a} original={v}"),
                Some(k),
                d,
                n,
            ));
        }
    }
    Ok(())
}

/// §4.4 storage size: interior plus, for every count `j` of fixed
/// dimensions, `C(d,j)` face groups × `2^j` side choices × a
/// `(d−j)`-dimensional sparse grid each.
fn boundary_expected_points(d: usize, n: usize) -> u64 {
    (0..=d as u64)
        .map(|j| {
            let faces = binomial(d as u64, j) * (1u64 << j);
            let per_face = if j == d as u64 {
                1
            } else {
                sparse_grid_points(d - j as usize, n)
            };
            faces * per_face
        })
        .sum()
}

fn boundary_basis(point: &[DimCoord], x: &[f64]) -> f64 {
    let mut prod = 1.0;
    for (t, c) in point.iter().enumerate() {
        prod *= match *c {
            DimCoord::Interior(l, i) => hat(l, i, x[t]),
            DimCoord::Lo => 1.0 - x[t],
            DimCoord::Hi => x[t],
        };
        if prod == 0.0 {
            return 0.0;
        }
    }
    prod
}

fn boundary_diff(case: &Case) -> Result<(), Failure> {
    let (mut srng, mut frng, mut qrng) = rngs(case);
    let (mut d, mut n) = case_shape(case, shape(&mut srng, 3, 4, 600));
    if case.shape.is_none() {
        while BoundaryIndexer::new(d, n).num_points() > 4000 {
            if n > 1 {
                n -= 1;
            } else {
                d -= 1;
            }
        }
    }
    let f = SampledFn::sample(&mut frng, d);

    let mut grid = BoundaryGrid::from_fn(d, n, |x| f.eval(x));
    let expected = boundary_expected_points(d, n);
    if grid.indexer().num_points() != expected {
        return Err(Failure::new(
            format!(
                "storage size {} != Σ 2^j·C(d,j) formula {expected}",
                grid.indexer().num_points()
            ),
            None,
            d,
            n,
        ));
    }

    let original = grid.clone();
    grid.hierarchize();
    let surpluses = grid.clone();

    // Brute-force comparator and node exactness.
    let len = grid.len();
    let points: Vec<Vec<DimCoord>> = (0..len as u64)
        .map(|idx| grid.indexer().idx2gp(idx))
        .collect();
    let coords: Vec<Vec<f64>> = points
        .iter()
        .map(|p| p.iter().map(DimCoord::coordinate).collect())
        .collect();
    let scale = max_abs(surpluses.values());

    let brute = |x: &[f64]| -> f64 {
        points
            .iter()
            .zip(surpluses.values())
            .map(|(p, &s)| s * boundary_basis(p, x))
            .sum()
    };

    let xs = query_points(&mut qrng, &GridSpec::new(d, n), 12);
    for (q, x) in xs.chunks_exact(d).enumerate() {
        if !compares(case, q) {
            continue;
        }
        let a = surpluses.evaluate(x);
        let b = brute(x);
        if !close(a, b, scale) {
            return Err(Failure::new(
                format!("query {q} at {x:?}: sweep-evaluate={a} brute-sum={b}"),
                Some(q),
                d,
                n,
            ));
        }
    }
    let base = xs.len() / d;
    for (k, x) in coords.iter().enumerate() {
        let q = base + k;
        if !compares(case, q) {
            continue;
        }
        let u = surpluses.evaluate(x);
        let fx = f.eval(x);
        if !close(u, fx, scale) {
            return Err(Failure::new(
                format!("node {k} at {x:?}: interpolant={u} f={fx}"),
                Some(q),
                d,
                n,
            ));
        }
    }

    grid.dehierarchize();
    let diff = grid.max_abs_diff(&original);
    if diff > 1e-9 * scale.max(1.0) {
        return Err(Failure::new(
            format!("dehierarchize roundtrip drifted by {diff}"),
            None,
            d,
            n,
        ));
    }
    Ok(())
}

fn adaptive_diff(case: &Case) -> Result<(), Failure> {
    let (mut srng, mut frng, mut qrng) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 3, 3, 300));
    let f = SampledFn::sample(&mut frng, d);
    let func = |x: &[f64]| f.eval(x);

    // Regular bootstrap must reproduce the compact interpolant.
    let mut regular = AdaptiveSparseGrid::new(d);
    regular.bootstrap((n - 1) as Level, &func);
    let spec = GridSpec::new(d, n);
    let mut compact = CompactGrid::from_fn(spec, func);
    hierarchize(&mut compact);
    let scale = max_abs(compact.values());

    // A refined grid on top: random descendant insertions.
    let mut refined = regular.clone();
    for _ in 0..srng.usize_in(0..=24) {
        let l: Vec<Level> = (0..d).map(|_| srng.u8_in(0..=4)).collect();
        let i: Vec<Index> = l
            .iter()
            .map(|&lt| {
                let max_half = 1u32 << lt;
                2 * srng.u32_in(0..=max_half - 1) + 1
            })
            .collect();
        if l.iter().map(|&v| v as usize).sum::<usize>() <= 6 {
            refined.insert_with_ancestors(&l, &i, &func);
        }
    }
    if !refined.is_downset_closed() {
        return Err(Failure::new(
            "refined point set is not downset-closed".into(),
            None,
            d,
            n,
        ));
    }

    let all_points: Vec<(Vec<Level>, Vec<Index>, f64)> = refined.points().collect();
    let brute = |x: &[f64]| -> f64 {
        all_points
            .iter()
            .map(|(l, i, s)| s * oracle::basis(l, i, x))
            .sum()
    };

    let xs = query_points(&mut qrng, &spec, 12);
    for (q, x) in xs.chunks_exact(d).enumerate() {
        if !compares(case, q) {
            continue;
        }
        let tree = refined.evaluate(x);
        let sum = brute(x);
        if !close(tree, sum, scale) {
            return Err(Failure::new(
                format!("query {q} at {x:?}: tree-walk={tree} brute-sum={sum}"),
                Some(q),
                d,
                n,
            ));
        }
        let reg = regular.evaluate(x);
        let cmp = evaluate(&compact, x);
        if !close(reg, cmp, scale) {
            return Err(Failure::new(
                format!("query {q} at {x:?}: adaptive-bootstrap={reg} compact={cmp}"),
                Some(q),
                d,
                n,
            ));
        }
    }
    Ok(())
}

fn combination_diff(case: &Case) -> Result<(), Failure> {
    let (mut srng, mut frng, mut qrng) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 3, 4, 2000));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);

    let coef_sum: i64 = CombinationGrid::<f64>::scheme(spec)
        .iter()
        .map(|(c, _)| *c)
        .sum();
    if coef_sum != 1 {
        return Err(Failure::new(
            format!("combination coefficients sum to {coef_sum}, not 1"),
            None,
            d,
            n,
        ));
    }

    let combi = CombinationGrid::<f64>::from_fn(spec, |x| f.eval(x));
    let mut direct = CompactGrid::from_fn(spec, |x| f.eval(x));
    hierarchize(&mut direct);
    let mut store = StdMapGrid::<f64>::new(spec);
    store.fill_from(|x| f.eval(x));
    hierarchize_recursive(&mut store);
    let scale = max_abs(direct.values());

    let xs = query_points(&mut qrng, &spec, 12);
    let batch = combi.evaluate_batch_parallel(&xs);
    // Tier D: the direct interpolant under both forced kernels — the
    // combination identity must hold against each, and each forced run
    // must be bitwise identical to auto dispatch.
    let forced = forced_kernel_tiers(|| {
        xs.chunks_exact(d)
            .map(|x| evaluate(&direct, x))
            .collect::<Vec<f64>>()
    });
    for (q, x) in xs.chunks_exact(d).enumerate() {
        if !compares(case, q) {
            continue;
        }
        let a = combi.evaluate(x);
        let b = evaluate(&direct, x);
        if !close(a, b, scale) {
            return Err(Failure::new(
                format!("query {q} at {x:?}: combination={a} direct-sparse={b}"),
                Some(q),
                d,
                n,
            ));
        }
        let r = evaluate_recursive(&store, x);
        if !close(a, r, scale) {
            return Err(Failure::new(
                format!("query {q} at {x:?}: combination={a} recursive-baseline={r}"),
                Some(q),
                d,
                n,
            ));
        }
        for (kind, got) in &forced {
            if got[q].to_bits() != b.to_bits() {
                return Err(Failure::new(
                    format!(
                        "query {q}: direct auto={b:?} forced-{kind:?}={:?} while combination={a}",
                        got[q]
                    ),
                    Some(q),
                    d,
                    n,
                ));
            }
        }
        if a.to_bits() != batch[q].to_bits() {
            return Err(Failure::new(
                format!("query {q}: scalar={a:?} batch-parallel={:?}", batch[q]),
                Some(q),
                d,
                n,
            ));
        }
    }
    Ok(())
}

fn domain_reject(case: &Case) -> Result<(), Failure> {
    let (mut srng, mut frng, mut qrng) = rngs(case);
    let (d, n) = case_shape(case, shape(&mut srng, 3, 3, 300));
    let spec = GridSpec::new(d, n);
    let f = SampledFn::sample(&mut frng, d);
    let mut compact = CompactGrid::from_fn(spec, |x| f.eval(x));
    hierarchize(&mut compact);
    let mut store = StdMapGrid::<f64>::new(spec);
    store.fill_from(|x| f.eval(x));
    hierarchize_recursive(&mut store);

    let bad_values = [f64::NAN, -0.125, 1.125, f64::INFINITY, -0.0f64.recip()];
    let mut queries: Vec<(Vec<f64>, bool)> = Vec::new();
    for (q, &bad) in bad_values.iter().enumerate() {
        let mut x: Vec<f64> = (0..d).map(|_| qrng.f64_unit()).collect();
        x[q % d] = bad;
        queries.push((x, true));
    }
    queries.push(((0..d).map(|_| qrng.f64_unit()).collect(), false));

    for (q, (x, must_reject)) in queries.iter().enumerate() {
        if !compares(case, q) {
            continue;
        }
        let a = crate::with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| evaluate(&compact, x))).is_err()
        });
        let b = crate::with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| evaluate_recursive(&store, x))).is_err()
        });
        if a != b || a != *must_reject {
            return Err(Failure::new(
                format!(
                    "query {q} at {x:?}: compact-rejects={a} recursive-rejects={b} expected={must_reject}"
                ),
                Some(q),
                d,
                n,
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_passes_on_a_few_seeds() {
        for op in Op::ALL {
            for seed in [1u64, 0xABCD, 0x5EED_5EED] {
                let case = Case::new(op, seed);
                let r = run_case(&case, Injection::None);
                assert!(r.is_ok(), "{}: {:?}", op.name(), r.err());
            }
        }
    }

    #[test]
    fn injection_is_caught_by_sample_identity() {
        let case = Case::new(Op::SampleIdentity, 0x1234);
        assert!(run_case(&case, Injection::Gp2idxOffByOne).is_err());
    }

    #[test]
    fn op_names_round_trip() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.name()), Some(op));
        }
    }
}
