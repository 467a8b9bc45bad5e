//! Grid specification, grid points, and 1-d hierarchical navigation.
//!
//! Conventions follow paper §4: levels are counted **from zero**, so the
//! one-dimensional subspace at level `l` contains the `2^l` basis functions
//! with odd indices `i ∈ {1, 3, …, 2^{l+1} − 1}`, centered at
//! `x = i · 2^{−(l+1)}`. A grid of *refinement level* `L` contains all
//! subspaces with `|l|₁ ≤ L − 1`.

use crate::combinatorics::sparse_grid_points;

/// Per-dimension level component (zero-based, paper convention).
pub type Level = u8;
/// Per-dimension index component (odd, `1 ≤ i < 2^{l+1}`).
pub type Index = u32;

/// Shape of a regular zero-boundary sparse grid: dimensionality and
/// refinement level.
///
/// Codecs (see `sg-io`) must rebuild specs from untrusted data through
/// [`GridSpec::try_new`], so corrupt serialized data yields an error
/// instead of violating the invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridSpec {
    dim: usize,
    levels: usize,
}

/// Reason a [`GridSpec`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `dim == 0`.
    ZeroDimension,
    /// `levels == 0`.
    ZeroLevels,
    /// `levels > 31` (index components would overflow).
    LevelTooLarge,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroDimension => write!(f, "dimension must be at least 1"),
            SpecError::ZeroLevels => write!(f, "refinement level must be at least 1"),
            SpecError::LevelTooLarge => write!(f, "refinement level above 31 overflows Index"),
        }
    }
}

impl std::error::Error for SpecError {}

impl GridSpec {
    /// A `dim`-dimensional grid of refinement level `levels` (level groups
    /// `n = 0..levels−1`).
    ///
    /// # Panics
    /// If `dim == 0`, `levels == 0`, or the grid would exceed `u64`
    /// addressable points. Use [`Self::try_new`] for a fallible variant.
    pub fn new(dim: usize, levels: usize) -> Self {
        let spec = match Self::try_new(dim, levels) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        // Force the point count to be computed; it panics on u64 overflow
        // (only reachable for extreme d × level combinations).
        let _ = sparse_grid_points(dim, levels);
        spec
    }

    /// Fallible constructor for untrusted inputs (CLI flags, file
    /// headers).
    ///
    /// Validates the *shape* only. A valid shape may still describe more
    /// points than `u64` can count (e.g. `d = 60` at level 31); callers
    /// that go on to allocate or index must preflight with
    /// [`Self::try_num_points`], which is how the codecs and `sgtool`
    /// reject such shapes without panicking.
    pub fn try_new(dim: usize, levels: usize) -> Result<Self, SpecError> {
        if dim == 0 {
            return Err(SpecError::ZeroDimension);
        }
        if levels == 0 {
            return Err(SpecError::ZeroLevels);
        }
        if levels > 31 {
            return Err(SpecError::LevelTooLarge);
        }
        Ok(Self { dim, levels })
    }

    /// Dimensionality `d`.
    #[inline(always)]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Refinement level `L`; level sums range over `0..L`.
    #[inline(always)]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Largest admissible level sum, `L − 1`.
    #[inline(always)]
    pub fn max_sum(&self) -> usize {
        self.levels - 1
    }

    /// Total number of grid points.
    ///
    /// # Panics
    /// If the count overflows `u64`; use [`Self::try_num_points`] for
    /// shapes that came from untrusted input.
    pub fn num_points(&self) -> u64 {
        sparse_grid_points(self.dim, self.levels)
    }

    /// Checked total point count: `Err(SgError::CountOverflow)` instead
    /// of a panic when `N(d, L)` does not fit in a `u64`.
    pub fn try_num_points(&self) -> Result<u64, crate::error::SgError> {
        crate::combinatorics::try_sparse_grid_points(self.dim, self.levels)
    }

    /// True if `(l, i)` denotes a valid point of this grid: component count
    /// matches, `|l|₁ ≤ L−1`, every index is odd and in range.
    pub fn contains(&self, l: &[Level], i: &[Index]) -> bool {
        if l.len() != self.dim || i.len() != self.dim {
            return false;
        }
        let sum: usize = l.iter().map(|&v| v as usize).sum();
        if sum > self.max_sum() {
            return false;
        }
        l.iter()
            .zip(i)
            .all(|(&lt, &it)| it % 2 == 1 && it < (1u32 << (lt as u32 + 1)))
    }
}

impl std::fmt::Display for GridSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sparse grid d={}, level {} ", self.dim, self.levels)?;
        match self.try_num_points() {
            Ok(n) => write!(f, "({n} points)"),
            Err(_) => write!(f, "(point count overflows u64)"),
        }
    }
}

/// A sparse grid point identified by its level and index vectors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridPoint {
    /// Level vector `l` (zero-based components).
    pub level: Vec<Level>,
    /// Index vector `i` (odd components).
    pub index: Vec<Index>,
}

impl GridPoint {
    /// Construct and validate against no particular grid (component-wise
    /// oddness and range only).
    pub fn new(level: Vec<Level>, index: Vec<Index>) -> Self {
        assert_eq!(level.len(), index.len(), "level/index dimension mismatch");
        for (t, (&l, &i)) in level.iter().zip(&index).enumerate() {
            assert!(i % 2 == 1, "index component {t} must be odd, got {i}");
            assert!(
                i < (1u32 << (l as u32 + 1)),
                "index component {t} out of range for level {l}"
            );
        }
        Self { level, index }
    }

    /// The root point `l = 0, i = 1` in every dimension (coordinates 0.5).
    pub fn root(dim: usize) -> Self {
        Self {
            level: vec![0; dim],
            index: vec![1; dim],
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.level.len()
    }

    /// Level sum `|l|₁`.
    pub fn level_sum(&self) -> usize {
        self.level.iter().map(|&v| v as usize).sum()
    }

    /// Spatial coordinates `x_t = i_t · 2^{−(l_t+1)}`.
    pub fn coords(&self) -> Vec<f64> {
        self.level
            .iter()
            .zip(&self.index)
            .map(|(&l, &i)| coordinate(l, i))
            .collect()
    }
}

/// Coordinate of the 1-d point `(l, i)`: `i · 2^{−(l+1)}`.
///
/// The factor is built from its exponent bits, so the product is exact
/// and bitwise equal to `i / 2^{l+1}` without a division.
#[inline(always)]
pub fn coordinate(l: Level, i: Index) -> f64 {
    i as f64 * f64::from_bits((1022 - l as u64) << 52)
}

/// Direction towards a 1-d hierarchical neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The ancestor bounding the support from the left.
    Left,
    /// The ancestor bounding the support from the right.
    Right,
}

/// The 1-d hierarchical parent of `(l, i)` on the given side, or `None`
/// when the support is bounded by the domain boundary (where zero-boundary
/// grids contribute the value 0).
///
/// The left/right ancestors of the hat centered at `i · 2^{−(l+1)}` sit at
/// `(i ∓ 1) · 2^{−(l+1)}`; reducing the even index `i ∓ 1` to its odd part
/// recovers the ancestor's own `(level, index)` pair.
///
/// ```
/// use sg_core::level::{hierarchical_parent, Side};
/// // Point (l=2, i=3) at x = 3/8: left ancestor x = 2/8 = (l=1, i=1),
/// // right ancestor x = 4/8 = (l=0, i=1).
/// assert_eq!(hierarchical_parent(2, 3, Side::Left), Some((1, 1)));
/// assert_eq!(hierarchical_parent(2, 3, Side::Right), Some((0, 1)));
/// // The root (l=0, i=1) at x = 1/2 is bounded by the domain on both sides.
/// assert_eq!(hierarchical_parent(0, 1, Side::Left), None);
/// assert_eq!(hierarchical_parent(0, 1, Side::Right), None);
/// ```
#[inline(always)]
pub fn hierarchical_parent(l: Level, i: Index, side: Side) -> Option<(Level, Index)> {
    let j = match side {
        Side::Left => i - 1,
        Side::Right => i + 1,
    };
    if j == 0 || j == (1u32 << (l as u32 + 1)) {
        return None; // domain boundary
    }
    let tz = j.trailing_zeros();
    // `j` is even and interior, so 1 ≤ tz ≤ l.
    Some((l - tz as Level, j >> tz))
}

/// The 1-d hierarchical child of `(l, i)` on the given side:
/// `(l+1, 2i−1)` or `(l+1, 2i+1)`.
#[inline(always)]
pub fn hierarchical_child(l: Level, i: Index, side: Side) -> (Level, Index) {
    match side {
        Side::Left => (l + 1, 2 * i - 1),
        Side::Right => (l + 1, 2 * i + 1),
    }
}

/// Value at `x` of the 1-d hat function at `(l, i)`:
/// `φ_{l,i}(x) = max(1 − |2^{l+1} x − i|, 0)`.
#[inline(always)]
pub fn hat(l: Level, i: Index, x: f64) -> f64 {
    let scaled = x * (1u64 << (l as u32 + 1)) as f64 - i as f64;
    (1.0 - scaled.abs()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_equals_the_division_bitwise() {
        // Level 30 is the finest a grid can have (refinement level 31).
        for l in 0..=30u8 {
            let top = (1u64 << (l + 1)) as Index - 1;
            // Every index up to level 12, the boundary ones above.
            let is: Vec<Index> = match l {
                0..=12 => (1..=top).step_by(2).collect(),
                _ => vec![1, 3, top - 2, top],
            };
            for i in is {
                let div = i as f64 / (1u64 << (l + 1)) as f64;
                assert_eq!(coordinate(l, i).to_bits(), div.to_bits(), "l={l} i={i}");
            }
        }
    }

    #[test]
    fn spec_counts() {
        let s = GridSpec::new(2, 3);
        // Groups n=0,1,2 with 1,2,3 subspaces of 1,2,4 points: 1+4+12 = 17.
        assert_eq!(s.num_points(), 17);
        assert_eq!(s.max_sum(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension must be at least 1")]
    fn spec_rejects_zero_dim() {
        GridSpec::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "refinement level must be at least 1")]
    fn spec_rejects_zero_levels() {
        GridSpec::new(3, 0);
    }

    #[test]
    fn spec_contains() {
        let s = GridSpec::new(2, 3);
        assert!(s.contains(&[0, 0], &[1, 1]));
        assert!(s.contains(&[2, 0], &[7, 1]));
        assert!(!s.contains(&[2, 1], &[7, 1])); // |l| = 3 > 2
        assert!(!s.contains(&[1, 0], &[2, 1])); // even index
        assert!(!s.contains(&[1, 0], &[5, 1])); // index out of range
        assert!(!s.contains(&[1], &[1])); // wrong dim
    }

    #[test]
    fn try_new_reports_reasons() {
        assert_eq!(GridSpec::try_new(0, 3), Err(SpecError::ZeroDimension));
        assert_eq!(GridSpec::try_new(3, 0), Err(SpecError::ZeroLevels));
        assert_eq!(GridSpec::try_new(3, 32), Err(SpecError::LevelTooLarge));
        assert!(GridSpec::try_new(3, 31).is_ok());
        assert!(SpecError::ZeroDimension.to_string().contains("dimension"));
    }

    #[test]
    fn spec_display() {
        let s = GridSpec::new(10, 11).to_string();
        assert!(s.contains("d=10"));
        assert!(s.contains("127574017"));
    }

    #[test]
    fn coordinates() {
        assert_eq!(coordinate(0, 1), 0.5);
        assert_eq!(coordinate(1, 1), 0.25);
        assert_eq!(coordinate(1, 3), 0.75);
        assert_eq!(coordinate(2, 1), 0.125);
        assert_eq!(coordinate(2, 7), 0.875);
    }

    #[test]
    fn grid_point_coords_match_paper_figure_4() {
        // Paper Fig. 4: l=(1,2,2), i=(1,1,3) ↦ (0.5, 0.25, 0.75) — but note
        // the paper's Fig. 4 uses one-based levels; in the zero-based
        // convention that point is l=(0,1,1), i=(1,1,3).
        let gp = GridPoint::new(vec![0, 1, 1], vec![1, 1, 3]);
        assert_eq!(gp.coords(), vec![0.5, 0.25, 0.75]);
        assert_eq!(gp.level_sum(), 2);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn grid_point_rejects_even_index() {
        GridPoint::new(vec![1], vec![2]);
    }

    #[test]
    fn parent_child_inverse() {
        for l in 0..6u8 {
            for i in (1u32..(1 << (l + 1))).step_by(2) {
                for side in [Side::Left, Side::Right] {
                    let (cl, ci) = hierarchical_child(l, i, side);
                    // The child's ancestor on the opposite-of-walk side is
                    // the original point.
                    let back = match side {
                        Side::Left => hierarchical_parent(cl, ci, Side::Right),
                        Side::Right => hierarchical_parent(cl, ci, Side::Left),
                    };
                    assert_eq!(back, Some((l, i)));
                }
            }
        }
    }

    #[test]
    fn parents_bound_the_support() {
        for l in 1..7u8 {
            for i in (1u32..(1 << (l + 1))).step_by(2) {
                let x = coordinate(l, i);
                let h = 1.0 / (1u64 << (l as u32 + 1)) as f64;
                for (side, expect) in [(Side::Left, x - h), (Side::Right, x + h)] {
                    match hierarchical_parent(l, i, side) {
                        Some((pl, pi)) => {
                            assert!(pl < l);
                            assert_eq!(coordinate(pl, pi), expect);
                        }
                        None => {
                            assert!(expect == 0.0 || expect == 1.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hat_basics() {
        assert_eq!(hat(0, 1, 0.5), 1.0);
        assert_eq!(hat(0, 1, 0.0), 0.0);
        assert_eq!(hat(0, 1, 1.0), 0.0);
        assert_eq!(hat(0, 1, 0.25), 0.5);
        assert_eq!(hat(1, 1, 0.25), 1.0);
        assert_eq!(hat(1, 1, 0.5), 0.0);
        assert_eq!(hat(1, 1, 0.75), 0.0); // outside support
        assert_eq!(hat(2, 3, 0.375), 1.0);
    }

    #[test]
    fn hat_has_local_support() {
        // φ_{l,i} vanishes at and beyond the support edges (i±1)·2^{−(l+1)}.
        for l in 0..5u8 {
            for i in (1u32..(1 << (l + 1))).step_by(2) {
                let h = 1.0 / (1u64 << (l as u32 + 1)) as f64;
                let x = coordinate(l, i);
                assert_eq!(hat(l, i, x), 1.0);
                assert_eq!(hat(l, i, x - h), 0.0);
                assert_eq!(hat(l, i, x + h), 0.0);
                assert!(hat(l, i, (x - 1.5 * h).max(0.0)) == 0.0);
            }
        }
    }
}
