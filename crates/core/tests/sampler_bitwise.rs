//! The samplers carry unchanged coordinates from point to point; every
//! sampled value must still be bitwise what a fresh `idx2gp` and the
//! division `i / 2^(l+1)` at that point give.
//!
//! This lives in its own test binary because `sg_par::set_num_threads`
//! is process-global.

use sg_core::bijection::GridIndexer;
use sg_core::grid::CompactGrid;
use sg_core::level::{GridSpec, Index, Level};
use sg_core::real::Real;

/// Shapes whose 1024-point chunks start mid-subspace and inside a level
/// group's first subspace (checked by `shapes_cover_the_chunk_starts`),
/// plus `d = 1`.
const SHAPES: [(usize, usize); 5] = [(1, 12), (2, 9), (3, 8), (4, 7), (5, 6)];

/// Not a product of 1-d factors, so a wrong coordinate in any dimension
/// moves the value.
fn f(x: &[f64]) -> f64 {
    let mix: f64 = x.iter().enumerate().map(|(t, &v)| (t + 1) as f64 * v).sum();
    (3.0 * mix).sin() + x[0] * x[x.len() - 1]
}

/// The sampler as it was: `idx2gp` and a division at every point.
fn reference<T: Real>(spec: GridSpec, g: impl Fn(&[f64]) -> T) -> Vec<T> {
    let ix = GridIndexer::new(spec);
    let (mut l, mut i) = (vec![0 as Level; spec.dim()], vec![0 as Index; spec.dim()]);
    (0..ix.num_points())
        .map(|idx| {
            ix.idx2gp(idx, &mut l, &mut i);
            let x: Vec<f64> = l
                .iter()
                .zip(&i)
                .map(|(&l, &i)| i as f64 / (1u64 << (l + 1)) as f64)
                .collect();
            g(&x)
        })
        .collect()
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn check<T: Real>(g: impl Fn(&[f64]) -> T + Sync + Copy) {
    for (d, levels) in SHAPES {
        let spec = GridSpec::new(d, levels);
        let want = bits(&reference(spec, g));
        let seq = CompactGrid::from_fn(spec, g);
        assert_eq!(bits(seq.values()), want, "from_fn d={d} levels={levels}");
        for width in [1, 2, 4] {
            sg_par::set_num_threads(width);
            let par = CompactGrid::try_from_fn_parallel(spec, g).expect("small shape");
            assert_eq!(
                bits(par.values()),
                want,
                "width {width} d={d} levels={levels}"
            );
        }
    }
}

#[test]
fn samplers_match_the_reference_bitwise_f64() {
    check(f);
}

#[test]
fn samplers_match_the_reference_bitwise_f32() {
    check(|x: &[f64]| f(x) as f32);
}

#[test]
fn shapes_cover_the_chunk_starts() {
    let (mut mid_subspace, mut first_subspace) = (false, false);
    for (d, levels) in SHAPES {
        let ix = GridIndexer::new(GridSpec::new(d, levels));
        assert!(
            ix.num_points() > 2048,
            "d={d} levels={levels}: too few chunks"
        );
        let (mut l, mut i) = (vec![0; d], vec![0; d]);
        for start in (1024..ix.num_points()).step_by(1024) {
            ix.idx2gp(start, &mut l, &mut i);
            mid_subspace |= i.iter().any(|&v| v != 1);
            first_subspace |= d > 1 && l[1..].iter().all(|&v| v == 0);
        }
    }
    assert!(mid_subspace && first_subspace);
}
