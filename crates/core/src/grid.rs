//! [`CompactGrid`]: sparse grid values in one contiguous 1-d array.
//!
//! This is the paper's compact data structure: no keys, no pointers — the
//! value of grid point `(l, i)` lives at `values[gp2idx(l, i)]`, so total
//! storage is exactly `N · sizeof(T)` plus a few kilobytes of index
//! tables.

use crate::bijection::GridIndexer;
use crate::iter::PointCursor;
use crate::level::{coordinate, GridSpec, Index, Level};
use crate::real::Real;

/// A regular zero-boundary sparse grid with contiguous value storage.
///
/// The stored values are *nodal* values right after sampling and become
/// *hierarchical surpluses* after [`crate::hierarchize::hierarchize`]; the
/// container itself is agnostic, tracking only bytes and indices.
#[derive(Debug, Clone)]
pub struct CompactGrid<T> {
    indexer: GridIndexer,
    values: Vec<T>,
}

impl<T: Real> CompactGrid<T> {
    /// Zero-initialized grid.
    ///
    /// # Panics
    /// On point-count overflow or when the grid exceeds addressable
    /// memory; use [`Self::try_new`] for untrusted shapes.
    pub fn new(spec: GridSpec) -> Self {
        match Self::try_new(spec) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible zero-initialized grid: checked point count, address-space
    /// check, and a preflight `try_reserve` of the coefficient array, so
    /// an oversized shape from untrusted input returns `Err(SgError)`
    /// instead of panicking or aborting the process mid-allocation.
    pub fn try_new(spec: GridSpec) -> Result<Self, crate::error::SgError> {
        let indexer = GridIndexer::try_new(spec)?;
        let n = indexer.num_points();
        if n > usize::MAX as u64 {
            return Err(crate::error::SgError::TooLarge { points: n });
        }
        let mut values = Vec::new();
        values.try_reserve_exact(n as usize).map_err(|_| {
            crate::error::SgError::AllocationFailed {
                bytes: n.saturating_mul(T::size_bytes() as u64),
            }
        })?;
        values.resize(n as usize, T::ZERO);
        Ok(Self { values, indexer })
    }

    /// Sample `f` at every grid point (nodal values), sequentially.
    pub fn from_fn(spec: GridSpec, f: impl FnMut(&[f64]) -> T) -> Self {
        let mut grid = Self::new(spec);
        sample_run(PointCursor::start(&spec), &mut grid.values, f);
        grid
    }

    /// Sample `f` at every grid point in parallel over contiguous chunks
    /// of the coefficient array.
    pub fn from_fn_parallel(spec: GridSpec, f: impl Fn(&[f64]) -> T + Sync) -> Self {
        match Self::try_from_fn_parallel(spec, f) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Self::from_fn_parallel`] with the preflight
    /// checks of [`Self::try_new`] — the construction path `sgtool` uses
    /// for shapes supplied on the command line.
    pub fn try_from_fn_parallel(
        spec: GridSpec,
        f: impl Fn(&[f64]) -> T + Sync,
    ) -> Result<Self, crate::error::SgError> {
        const CHUNK: usize = 1024;
        let mut grid = Self::try_new(spec)?;
        let indexer = grid.indexer.clone();
        sg_par::par_chunks_mut_grained(
            &mut grid.values,
            CHUNK,
            4,
            "core.grid.sample",
            None,
            // One `idx2gp` per chunk; every later point is a step.
            |ci, chunk| sample_run(PointCursor::at(&indexer, (ci * CHUNK) as u64), chunk, &f),
        );
        Ok(grid)
    }

    /// Grid specification.
    #[inline(always)]
    pub fn spec(&self) -> &GridSpec {
        self.indexer.spec()
    }

    /// The underlying `gp2idx` machinery.
    #[inline(always)]
    pub fn indexer(&self) -> &GridIndexer {
        &self.indexer
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the grid stores no points (impossible for valid specs,
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at grid point `(l, i)`.
    #[inline(always)]
    pub fn get(&self, l: &[Level], i: &[Index]) -> T {
        self.values[self.indexer.gp2idx(l, i) as usize]
    }

    /// Set the value at grid point `(l, i)`.
    #[inline(always)]
    pub fn set(&mut self, l: &[Level], i: &[Index], v: T) {
        let idx = self.indexer.gp2idx(l, i) as usize;
        self.values[idx] = v;
    }

    /// Flat read-only view of the value array (the paper's `rawStorage`).
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Flat mutable view of the value array.
    #[inline(always)]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Decompose into indexer and raw values.
    pub fn into_parts(self) -> (GridIndexer, Vec<T>) {
        (self.indexer, self.values)
    }

    /// Rebuild from a spec and a raw value array (must have exactly
    /// `spec.num_points()` entries).
    pub fn from_parts(spec: GridSpec, values: Vec<T>) -> Self {
        let indexer = GridIndexer::new(spec);
        assert_eq!(
            values.len() as u64,
            indexer.num_points(),
            "value array length does not match grid size"
        );
        Self { indexer, values }
    }

    /// Total bytes held: value array plus index tables. For the paper's
    /// d=10 level-11 grid in `f32` this is ≈510 MB where tree/hash
    /// structures need 4–14 GB (paper Fig. 8).
    pub fn memory_bytes(&self) -> usize {
        self.values.capacity() * T::size_bytes() + self.indexer.memory_bytes()
    }

    /// Iterate over all grid points with their stored values in `gp2idx`
    /// order, yielding `(GridPoint, value)`.
    ///
    /// Allocates one `GridPoint` per item; hot loops should use
    /// [`crate::iter::for_each_point`] with [`Self::values`] instead.
    pub fn points(&self) -> impl Iterator<Item = (crate::level::GridPoint, T)> + '_ {
        let d = self.spec().dim();
        self.values.iter().enumerate().map(move |(idx, &v)| {
            let mut l = vec![0; d];
            let mut i = vec![0; d];
            self.indexer.idx2gp(idx as u64, &mut l, &mut i);
            (crate::level::GridPoint::new(l, i), v)
        })
    }

    /// The coarser grid of refinement level `levels ≤ L`, obtained *for
    /// free* from the compact layout: because `gp2idx` orders points by
    /// level sum, the level-`levels` grid is exactly the first
    /// `N(d, levels)` entries of this grid's coefficient array — and
    /// hierarchical surpluses only depend on coarser ancestors, so the
    /// prefix carries the correct surpluses unchanged.
    ///
    /// This enables progressive transmission / level-of-detail streaming
    /// in the paper's visualization pipeline: send the array front-first
    /// and render from any prefix.
    ///
    /// Only meaningful after [`crate::hierarchize::hierarchize`] (nodal
    /// prefixes are valid nodal grids too, but rarely useful).
    pub fn truncated(&self, levels: usize) -> CompactGrid<T> {
        assert!(
            levels >= 1 && levels <= self.spec().levels(),
            "truncation level out of range"
        );
        let coarse_spec = GridSpec::new(self.spec().dim(), levels);
        let n = GridIndexer::new(coarse_spec).num_points() as usize;
        CompactGrid::from_parts(coarse_spec, self.values[..n].to_vec())
    }

    /// Maximum absolute difference of stored values against another grid
    /// of the same spec.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.spec(), other.spec());
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// Sample `f` into `out` at consecutive points in `gp2idx` order, starting
/// at `p`. A step keeps the coordinates below the lowest dimension it
/// changed, so each point recomputes only its trailing coordinates.
fn sample_run<T: Real>(mut p: PointCursor, out: &mut [T], mut f: impl FnMut(&[f64]) -> T) {
    let mut coords = vec![0.0f64; p.level().len()];
    let mut from = 0;
    for v in out {
        for t in from..coords.len() {
            coords[t] = coordinate(p.level()[t], p.index()[t]);
        }
        *v = f(&coords);
        // Past the grid's last point `out` is spent too.
        from = p.advance().unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_zeroed_and_sized() {
        let g: CompactGrid<f64> = CompactGrid::new(GridSpec::new(3, 4));
        assert_eq!(g.len() as u64, g.spec().num_points());
        assert!(g.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut g: CompactGrid<f64> = CompactGrid::new(GridSpec::new(2, 3));
        g.set(&[1, 1], &[3, 1], 2.5);
        assert_eq!(g.get(&[1, 1], &[3, 1]), 2.5);
        assert_eq!(g.get(&[0, 0], &[1, 1]), 0.0);
    }

    #[test]
    fn from_fn_samples_nodal_values() {
        let spec = GridSpec::new(2, 3);
        let g = CompactGrid::from_fn(spec, |x| x[0] + 2.0 * x[1]);
        assert_eq!(g.get(&[0, 0], &[1, 1]), 0.5 + 2.0 * 0.5);
        assert_eq!(g.get(&[2, 0], &[1, 1]), 0.125 + 1.0);
        assert_eq!(g.get(&[0, 2], &[1, 7]), 0.5 + 2.0 * 0.875);
    }

    #[test]
    fn from_fn_parallel_matches_sequential() {
        let spec = GridSpec::new(3, 5);
        let f = |x: &[f64]| x.iter().product::<f64>() + x[0];
        let a = CompactGrid::from_fn(spec, f);
        let b = CompactGrid::from_fn_parallel(spec, f);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn memory_is_essentially_values_only() {
        let spec = GridSpec::new(4, 6);
        let g: CompactGrid<f32> = CompactGrid::new(spec);
        let value_bytes = g.len() * 4;
        let overhead = g.memory_bytes() - value_bytes;
        assert!(overhead < 8192, "structural overhead {overhead} too large");
    }

    #[test]
    fn parts_roundtrip() {
        let spec = GridSpec::new(2, 4);
        let g = CompactGrid::from_fn(spec, |x| x[0] * x[1]);
        let expect = g.values().to_vec();
        let (_, values) = g.into_parts();
        let g2 = CompactGrid::from_parts(spec, values);
        assert_eq!(g2.values(), &expect[..]);
    }

    #[test]
    #[should_panic(expected = "does not match grid size")]
    fn from_parts_rejects_wrong_length() {
        CompactGrid::from_parts(GridSpec::new(2, 3), vec![0.0f64; 3]);
    }

    #[test]
    fn points_iterator_covers_the_grid_in_order() {
        let spec = GridSpec::new(2, 3);
        let g = CompactGrid::from_fn(spec, |x| x[0] + 3.0 * x[1]);
        let mut count = 0u64;
        for (idx, (gp, v)) in g.points().enumerate() {
            assert_eq!(g.indexer().gp2idx(&gp.level, &gp.index), idx as u64);
            let x = gp.coords();
            assert_eq!(v, x[0] + 3.0 * x[1]);
            count += 1;
        }
        assert_eq!(count, spec.num_points());
    }

    #[test]
    fn truncation_is_the_coarser_grid() {
        use crate::evaluate::evaluate;
        use crate::hierarchize::hierarchize;
        let f = |x: &[f64]| (x[0] * 5.0).sin() * x[1] * (1.0 - x[1]);
        let mut fine = CompactGrid::from_fn(GridSpec::new(2, 6), f);
        hierarchize(&mut fine);
        for levels in 1..=6 {
            let prefix = fine.truncated(levels);
            let mut direct = CompactGrid::from_fn(GridSpec::new(2, levels), f);
            hierarchize(&mut direct);
            assert_eq!(
                prefix.values(),
                direct.values(),
                "prefix of level {levels} must equal the directly-built grid"
            );
            // And evaluation through the prefix matches too.
            let x = [0.3, 0.65];
            assert_eq!(evaluate(&prefix, &x), evaluate(&direct, &x));
        }
    }

    #[test]
    #[should_panic(expected = "truncation level out of range")]
    fn truncation_rejects_finer_levels() {
        let g: CompactGrid<f64> = CompactGrid::new(GridSpec::new(2, 3));
        let _ = g.truncated(4);
    }
}
