//! Anisotropic full grids — the component grids of the combination
//! technique.
//!
//! An anisotropic grid of level vector `l` (zero-based, paper convention)
//! has `2^{l_t+1} − 1` interior points in dimension `t` at coordinates
//! `k · 2^{−(l_t+1)}`. Being regular full grids they are trivially
//! parallel and vectorizable — the very property the combination
//! technique trades memory for (paper §7).

use sg_core::level::Level;
use sg_core::real::Real;

/// Dense anisotropic interior grid on `[0,1]^d` with zero boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AnisoFullGrid<T> {
    levels: Vec<Level>,
    per_dim: Vec<usize>,
    values: Vec<T>,
}

impl<T: Real> AnisoFullGrid<T> {
    /// Number of interior points of an anisotropic grid with the given
    /// zero-based level vector; `None` on overflow.
    pub fn point_count(levels: &[Level]) -> Option<u64> {
        levels
            .iter()
            .try_fold(1u64, |acc, &l| acc.checked_mul((1u64 << (l + 1)) - 1))
    }

    /// Zero-filled grid.
    ///
    /// # Panics
    /// If the grid exceeds 2³² points.
    pub fn new(levels: &[Level]) -> Self {
        assert!(!levels.is_empty());
        let total = Self::point_count(levels)
            .filter(|&t| t < (1 << 32))
            .expect("anisotropic grid too large to materialize");
        Self {
            per_dim: levels.iter().map(|&l| (1usize << (l + 1)) - 1).collect(),
            levels: levels.to_vec(),
            values: vec![T::ZERO; total as usize],
        }
    }

    /// Sample `f` at every interior point.
    pub fn from_fn(levels: &[Level], mut f: impl FnMut(&[f64]) -> T) -> Self {
        let mut g = Self::new(levels);
        let d = g.levels.len();
        let mut x = vec![0.0f64; d];
        let mut multi = vec![0usize; d];
        for flat in 0..g.values.len() {
            g.decode(flat, &mut multi);
            for t in 0..d {
                x[t] = (multi[t] + 1) as f64 / (g.per_dim[t] + 1) as f64;
            }
            g.values[flat] = f(&x);
        }
        g
    }

    /// Rebuild a grid from a previously stored value array (e.g. a
    /// checkpoint payload). The values must be in the same row-major
    /// order [`Self::from_fn`] samples in.
    ///
    /// # Panics
    /// If `values.len()` does not match the point count of `levels`.
    pub fn from_values(levels: &[Level], values: Vec<T>) -> Self {
        let mut g = Self::new(levels);
        assert_eq!(
            values.len(),
            g.values.len(),
            "value array does not match the level vector's point count"
        );
        g.values = values;
        g
    }

    /// The zero-based level vector.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The stored nodal values in row-major sampling order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Largest absolute nodal value — the grid's interpolant is a
    /// multilinear blend of nodal values with zero boundary, so this
    /// bounds `|interpolate(x)|` everywhere.
    pub fn max_abs(&self) -> f64 {
        self.values
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.to_f64().abs()))
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no values are stored (impossible for valid levels).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn decode(&self, mut flat: usize, multi: &mut [usize]) {
        for t in (0..multi.len()).rev() {
            multi[t] = flat % self.per_dim[t];
            flat /= self.per_dim[t];
        }
    }

    /// Value at an interior multi-index.
    pub fn get(&self, multi: &[usize]) -> T {
        let mut flat = 0usize;
        for (t, &m) in multi.iter().enumerate() {
            assert!(m < self.per_dim[t], "multi-index out of range");
            flat = flat * self.per_dim[t] + m;
        }
        self.values[flat]
    }

    /// Piecewise multilinear interpolation at `x ∈ [0,1]^d`, zero
    /// boundary.
    pub fn interpolate(&self, x: &[f64]) -> f64 {
        let d = self.levels.len();
        assert_eq!(x.len(), d, "query point dimension mismatch");
        let mut lo = vec![0isize; d];
        let mut w = vec![0.0f64; d];
        for t in 0..d {
            let cells = (self.per_dim[t] + 1) as f64;
            let pos = x[t] * cells;
            let cell = (pos as u64).min(self.per_dim[t] as u64);
            lo[t] = cell as isize - 1;
            w[t] = pos - cell as f64;
        }
        let mut acc = 0.0f64;
        for corner in 0..(1u32 << d) {
            let mut weight = 1.0f64;
            let mut flat = 0usize;
            let mut inside = true;
            for t in 0..d {
                let hi = (corner >> t) & 1 == 1;
                let node = lo[t] + hi as isize;
                weight *= if hi { w[t] } else { 1.0 - w[t] };
                if node < 0 || node >= self.per_dim[t] as isize {
                    inside = false;
                    break;
                }
                flat = flat * self.per_dim[t] + node as usize;
            }
            if inside && weight != 0.0 {
                acc += weight * self.values[flat].to_f64();
            }
        }
        acc
    }

    /// Bytes held by the value array.
    pub fn memory_bytes(&self) -> usize {
        self.values.capacity() * T::size_bytes() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_counts() {
        assert_eq!(AnisoFullGrid::<f64>::point_count(&[0, 0]), Some(1));
        assert_eq!(AnisoFullGrid::<f64>::point_count(&[2, 0]), Some(7));
        assert_eq!(AnisoFullGrid::<f64>::point_count(&[1, 2]), Some(21));
        assert!(AnisoFullGrid::<f64>::point_count(&[30; 4]).is_none());
    }

    #[test]
    fn sampling_coordinates() {
        // Levels (1, 0): 3 × 1 points at x ∈ {1/4, 2/4, 3/4}, y = 1/2.
        let g = AnisoFullGrid::<f64>::from_fn(&[1, 0], |x| 10.0 * x[0] + x[1]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(&[0, 0]), 2.5 + 0.5);
        assert_eq!(g.get(&[2, 0]), 7.5 + 0.5);
    }

    #[test]
    fn interpolation_exact_at_nodes_zero_at_boundary() {
        let f = |x: &[f64]| x[0] * (1.0 - x[0]) * x[1];
        let g = AnisoFullGrid::<f64>::from_fn(&[2, 1], f);
        for a in 0..7usize {
            for b in 0..3usize {
                let x = [(a + 1) as f64 / 8.0, (b + 1) as f64 / 4.0];
                assert!((g.interpolate(&x) - f(&x)).abs() < 1e-14);
            }
        }
        assert_eq!(g.interpolate(&[0.0, 0.5]), 0.0);
        assert_eq!(g.interpolate(&[1.0, 1.0]), 0.0);
        assert_eq!(g.interpolate(&[0.3, 1.0]), 0.0);
    }

    #[test]
    fn interpolation_is_linear_between_nodes() {
        let g = AnisoFullGrid::<f64>::from_fn(&[1], |x| x[0] * x[0]);
        let a = g.interpolate(&[0.25]);
        let b = g.interpolate(&[0.5]);
        assert!((g.interpolate(&[0.375]) - 0.5 * (a + b)).abs() < 1e-14);
    }

    #[test]
    fn level_zero_everywhere_is_single_point() {
        let g = AnisoFullGrid::<f64>::from_fn(&[0, 0, 0], |x| x.iter().sum());
        assert_eq!(g.len(), 1);
        assert_eq!(g.get(&[0, 0, 0]), 1.5);
        assert!((g.interpolate(&[0.5, 0.5, 0.5]) - 1.5).abs() < 1e-15);
    }
}
