//! Floating-point abstraction so grids can store `f32` (the paper's GPU
//! configuration) or `f64` (the accuracy-oriented CPU default).

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type stored in a sparse grid.
///
/// Coordinates and basis-function values are always computed in `f64`;
/// `Real` only governs how hierarchical coefficients are stored and
/// combined, mirroring the paper's choice of `float` on the GPU.
pub trait Real:
    Copy
    + Default
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The constant ½ used by the hierarchization stencil.
    const HALF: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// The size of one stored value in bytes.
    fn size_bytes() -> usize {
        std::mem::size_of::<Self>()
    }

    /// View a coefficient slice as `f64` when `Self` *is* `f64` —
    /// the gate the SIMD evaluation kernels use. `None` (the default) routes the
    /// type through the generic scalar path, which keeps `f32` grids
    /// bitwise-stable without a second set of kernels.
    fn as_f64_slice(_values: &[Self]) -> Option<&[f64]> {
        None
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn as_f64_slice(values: &[Self]) -> Option<&[f64]> {
        Some(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>(x: f64) -> f64 {
        T::from_f64(x).to_f64()
    }

    #[test]
    fn conversions_roundtrip_exact_for_dyadic_values() {
        for x in [0.0, 0.5, 0.25, -0.375, 1.0, -1.0, 42.0] {
            assert_eq!(roundtrip::<f32>(x), x);
            assert_eq!(roundtrip::<f64>(x), x);
        }
    }

    #[test]
    fn constants_are_consistent() {
        fn check<T: Real>() {
            assert_eq!(T::ZERO.to_f64(), 0.0);
            assert_eq!(T::ONE.to_f64(), 1.0);
            assert_eq!(T::HALF.to_f64(), 0.5);
            assert_eq!((T::HALF + T::HALF).to_f64(), 1.0);
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn sizes() {
        assert_eq!(f32::size_bytes(), 4);
        assert_eq!(f64::size_bytes(), 8);
    }
}
