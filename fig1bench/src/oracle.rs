//! Inputs made from the seed, and the closed forms every output is
//! checked against.
//!
//! Every grid the benchmark builds samples the scaled product parabola
//! `f(x) = s · ∏_t 4·x_t·(1 − x_t)`. In one dimension the hierarchical
//! surplus of `4x(1−x)` at (zero-based) level `l` is `−f''·h²/2` with
//! `h = 2^{−(l+1)}`, i.e. `4^{−l}`, and surpluses of a tensor product
//! multiply. So the surplus of every point in level group `n = |l|₁` is
//! exactly `s · 4^{−n}`, and the interpolant is
//! `u(x) = s · Σ_{|l|₁ < L} ∏_t 4^{−l_t}·φ_{l_t}(x_t)`, where `φ_l` is the
//! one level-`l` hat whose support holds `x`. That sum over level vectors
//! factorises per dimension and is evaluated here by a convolution over
//! the level sum, without touching the program's index tables.

/// Relative tolerance of a hierarchical surplus against `s · 4^{−n}`,
/// plus an absolute floor of `SURPLUS_ABS · s` (sampling rounds the
/// nodal values; the surplus of a deep group is a difference of them).
pub const SURPLUS_REL: f64 = 1e-9;
/// See [`SURPLUS_REL`].
pub const SURPLUS_ABS: f64 = 1e-13;
/// Absolute tolerance of an evaluated point against the closed-form
/// interpolant, as a share of the model's scale `s`.
pub const EVAL_TOL: f64 = 1e-10;

/// splitmix64: the benchmark's only source of pseudo-randomness.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`, so independent parts of a workload
    /// draw independent, reproducible sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// The sampled function `s · ∏ 4x(1−x)`.
pub fn parabola(s: f64, x: &[f64]) -> f64 {
    x.iter().fold(s, |acc, &v| acc * 4.0 * v * (1.0 - v))
}

/// Exact surplus of every point in level group `n`.
pub fn surplus(s: f64, n: usize) -> f64 {
    s * 0.25f64.powi(n as i32)
}

pub fn surplus_ok(got: f64, want: f64, s: f64) -> bool {
    (got - want).abs() <= SURPLUS_REL * want.abs() + SURPLUS_ABS * s.abs()
}

/// Number of points in level group `n` of a `d`-dimensional grid:
/// `2^n · C(n+d−1, d−1)` (paper §3).
pub fn group_len(d: usize, n: usize) -> usize {
    let mut c = 1usize;
    for k in 1..d {
        c = c * (n + k) / k;
    }
    c << n
}

/// Total points of a `d`-dimensional grid with level groups `0..levels`.
pub fn grid_len(d: usize, levels: usize) -> usize {
    (0..levels).map(|n| group_len(d, n)).sum()
}

/// Value at `x ∈ [0,1]` of the level-`l` hat whose support holds `x`:
/// `max(0, 1 − |2^{l+1}·x − i|)` with `i` the odd index nearest `x`.
fn hat(l: usize, x: f64) -> f64 {
    let cells = (1u64 << l) as f64;
    let i = 2.0 * (x * cells).floor().min(cells - 1.0) + 1.0;
    (1.0 - (x * 2.0 * cells - i).abs()).max(0.0)
}

/// Closed-form interpolant of the level-`levels` grid of
/// `s · ∏ 4x(1−x)` at `x`. `poly` and `next` are scratch of any length.
pub fn interpolant(
    s: f64,
    levels: usize,
    x: &[f64],
    poly: &mut Vec<f64>,
    next: &mut Vec<f64>,
) -> f64 {
    poly.clear();
    poly.resize(levels, 0.0);
    poly[0] = 1.0;
    for &xt in x {
        next.clear();
        next.resize(levels, 0.0);
        let mut w = 1.0;
        for k in 0..levels {
            let g = w * hat(k, xt);
            if g != 0.0 {
                for n in k..levels {
                    next[n] += poly[n - k] * g;
                }
            }
            w *= 0.25;
        }
        std::mem::swap(poly, next);
    }
    s * poly.iter().sum::<f64>()
}

pub fn eval_ok(got: f64, want: f64, s: f64) -> bool {
    (got - want).abs() <= EVAL_TOL * s.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::prelude::*;

    #[test]
    fn closed_forms_match_the_library_on_a_small_grid() {
        let (d, levels, s) = (3, 6, 1.75);
        let spec = GridSpec::new(d, levels);
        assert_eq!(spec.num_points() as usize, grid_len(d, levels));
        let mut g = CompactGrid::from_fn(spec, |x| parabola(s, x));
        hierarchize(&mut g);
        let mut at = 0;
        for n in 0..levels {
            for &v in &g.values()[at..at + group_len(d, n)] {
                assert!(surplus_ok(v, surplus(s, n), s), "group {n}: {v}");
            }
            at += group_len(d, n);
        }
        let (mut p, mut q) = (Vec::new(), Vec::new());
        let mut rng = Rng::new(7, 0);
        for _ in 0..200 {
            let x: Vec<f64> = (0..d).map(|_| rng.open01()).collect();
            let want = interpolant(s, levels, &x, &mut p, &mut q);
            assert!(eval_ok(evaluate(&g, &x), want, s));
        }
    }
}
