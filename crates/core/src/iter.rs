//! Enumeration of level vectors and grid points.
//!
//! The paper replaces the recursive enumeration of level vectors
//! (Alg. 3) with an iterative successor function `next` (Alg. 4) because
//! the target GPU does not support recursion. [`next_level`] is that
//! function; [`LevelIter`] and [`for_each_level`] wrap it, and
//! [`for_each_point`] walks an entire grid in `gp2idx` order.

use crate::bijection::GridIndexer;
use crate::level::{GridSpec, Index, Level};

/// Write the first level vector of the enumeration, `(n, 0, …, 0)`
/// (paper Eq. 3), into `out`.
pub fn first_level(n: usize, out: &mut [Level]) {
    debug_assert!(!out.is_empty());
    out.fill(0);
    out[0] = n as Level;
}

/// Write the last level vector of the enumeration, `(0, …, 0, n)`, into
/// `out`.
pub fn last_level(n: usize, out: &mut [Level]) {
    debug_assert!(!out.is_empty());
    out.fill(0);
    out[out.len() - 1] = n as Level;
}

/// True if `l` is the last level vector of its enumeration,
/// `(0, …, 0, n)`.
#[inline]
pub fn is_last_level(l: &[Level]) -> bool {
    l[..l.len() - 1].iter().all(|&v| v == 0)
}

/// Advance `l` to its successor in the paper's enumeration order
/// (Alg. 4). Returns `false` (leaving `l` unchanged) when `l` is already
/// the last vector `(0, …, 0, n)`.
///
/// The successor of `l` with `t = min{ j : l_j ≠ 0 }` is obtained by
/// zeroing `l_t`, setting `l_0 = l_t − 1`, and incrementing `l_{t+1}` —
/// exactly lines 6–8 of Alg. 4, which also cover the `t = 0` case when
/// executed in this order.
///
/// ```
/// use sg_core::iter::next_level;
/// let mut l = [2u8, 0, 0];
/// assert!(next_level(&mut l));
/// assert_eq!(l, [1, 1, 0]);
/// assert!(next_level(&mut l));
/// assert_eq!(l, [0, 2, 0]);
/// assert!(next_level(&mut l));
/// assert_eq!(l, [1, 0, 1]);
/// ```
#[inline]
pub fn next_level(l: &mut [Level]) -> bool {
    let d = l.len();
    let mut t = 0;
    while l[t] == 0 {
        t += 1;
        if t == d {
            return false; // all-zero vector (n = 0 enumeration)
        }
    }
    if t == d - 1 {
        return false; // already (0, …, 0, n)
    }
    let m = l[t];
    l[t] = 0;
    l[0] = m - 1;
    l[t + 1] += 1;
    true
}

/// Iterator over all level vectors with `|l|₁ = n` in `d` dimensions, in
/// enumeration order. Yields owned vectors; use [`for_each_level`] in hot
/// paths to avoid the per-item allocation.
#[derive(Debug, Clone)]
pub struct LevelIter {
    current: Option<Vec<Level>>,
}

impl LevelIter {
    /// Enumerate `L_n^d` from `first(d, n)` to `last(d, n)`.
    pub fn new(d: usize, n: usize) -> Self {
        assert!(d >= 1);
        let mut l = vec![0; d];
        first_level(n, &mut l);
        Self { current: Some(l) }
    }
}

impl Iterator for LevelIter {
    type Item = Vec<Level>;

    fn next(&mut self) -> Option<Self::Item> {
        let cur = self.current.take()?;
        let mut succ = cur.clone();
        if next_level(&mut succ) {
            self.current = Some(succ);
        }
        Some(cur)
    }
}

/// Visit every level vector with `|l|₁ = n` in enumeration order without
/// allocating per item.
pub fn for_each_level(d: usize, n: usize, mut f: impl FnMut(&[Level])) {
    let mut l = vec![0 as Level; d];
    first_level(n, &mut l);
    loop {
        f(&l);
        if !next_level(&mut l) {
            break;
        }
    }
}

/// Decode the in-subspace rank `index1` (paper Alg. 5 lines 1–4) back into
/// the index vector `i` for subspace `l`.
///
/// `index1` packs `(i_t − 1)/2` most-significant-first, so decoding peels
/// components from the last dimension.
#[inline]
pub fn decode_subspace_rank(l: &[Level], mut index1: u64, i: &mut [Index]) {
    for t in (0..l.len()).rev() {
        let bits = l[t] as u32;
        let mask = (1u64 << bits) - 1;
        i[t] = 2 * (index1 & mask) as Index + 1;
        index1 >>= bits;
    }
    debug_assert_eq!(index1, 0, "rank out of range for subspace");
}

/// Rank of index vector `i` inside subspace `l` (paper Alg. 5 lines 1–4).
#[inline]
pub fn encode_subspace_rank(l: &[Level], i: &[Index]) -> u64 {
    let mut index1 = 0u64;
    for t in 0..l.len() {
        index1 = (index1 << l[t] as u32) + ((i[t] as u64 - 1) >> 1);
    }
    index1
}

/// A position in `gp2idx` order that steps to the next grid point without
/// the bijection. Within a subspace the rank counts up as an odometer over
/// `i` (last dimension fastest, as `index1` packs it); a finished subspace
/// moves on with [`next_level`], a finished level group with
/// [`first_level`] of the next level sum.
pub(crate) struct PointCursor {
    levels: usize,
    n: usize,
    l: Vec<Level>,
    i: Vec<Index>,
}

impl PointCursor {
    /// The cursor at linear index 0.
    pub(crate) fn start(spec: &GridSpec) -> Self {
        Self {
            levels: spec.levels(),
            n: 0,
            l: vec![0; spec.dim()],
            i: vec![1; spec.dim()],
        }
    }

    /// The cursor at linear index `idx`: one `idx2gp` call.
    pub(crate) fn at(indexer: &GridIndexer, idx: u64) -> Self {
        let mut p = Self::start(indexer.spec());
        indexer.idx2gp(idx, &mut p.l, &mut p.i);
        p.n = p.l.iter().map(|&v| v as usize).sum();
        p
    }

    /// Level vector of the current point.
    #[inline(always)]
    pub(crate) fn level(&self) -> &[Level] {
        &self.l
    }

    /// Index vector of the current point.
    #[inline(always)]
    pub(crate) fn index(&self) -> &[Index] {
        &self.i
    }

    /// Step to the next point in `gp2idx` order. Returns the lowest
    /// dimension whose `(l_t, i_t)` may have changed: every dimension below
    /// it is untouched (an odometer step in `t` resets only `t + 1..d`; a
    /// new subspace reports 0). Returns `None` when the current point was
    /// the grid's last; the cursor is spent then.
    #[inline]
    pub(crate) fn advance(&mut self) -> Option<usize> {
        for t in (0..self.l.len()).rev() {
            if self.i[t] + 2 < 2 << self.l[t] {
                self.i[t] += 2;
                return Some(t);
            }
            self.i[t] = 1;
        }
        if next_level(&mut self.l) {
            return Some(0);
        }
        if self.n + 1 < self.levels {
            self.n += 1;
            first_level(self.n, &mut self.l);
            return Some(0);
        }
        None
    }
}

/// Visit every grid point of `spec` in `gp2idx` order (group `n`
/// ascending, subspaces in enumeration order, points in `index1` order).
/// The callback receives `(linear_index, l, i)`.
pub fn for_each_point(spec: &GridSpec, mut f: impl FnMut(u64, &[Level], &[Index])) {
    let mut p = PointCursor::start(spec);
    let mut idx = 0u64;
    loop {
        f(idx, p.level(), p.index());
        idx += 1;
        if p.advance().is_none() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::subspace_count;
    use std::collections::HashSet;

    /// Reference implementation: the recursive enumeration of paper Alg. 3.
    fn enumerate_recursive(d: usize, n: usize) -> Vec<Vec<Level>> {
        if d == 1 {
            return vec![vec![n as Level]];
        }
        let mut out = Vec::new();
        for k in 0..=n {
            for mut prefix in enumerate_recursive(d - 1, n - k) {
                prefix.push(k as Level);
                out.push(prefix);
            }
        }
        out
    }

    #[test]
    fn first_and_last() {
        let mut l = [0u8; 4];
        first_level(5, &mut l);
        assert_eq!(l, [5, 0, 0, 0]);
        last_level(5, &mut l);
        assert_eq!(l, [0, 0, 0, 5]);
        assert!(is_last_level(&l));
    }

    #[test]
    fn iterator_matches_recursive_enumeration() {
        for d in 1..=5 {
            for n in 0..=6 {
                let iterative: Vec<_> = LevelIter::new(d, n).collect();
                let recursive = enumerate_recursive(d, n);
                assert_eq!(iterative, recursive, "d={d}, n={n}");
            }
        }
    }

    #[test]
    fn iterator_yields_exactly_subspace_count_items() {
        for d in 1..=6 {
            for n in 0..=7 {
                let count = LevelIter::new(d, n).count() as u64;
                assert_eq!(count, subspace_count(d, n), "d={d}, n={n}");
            }
        }
    }

    #[test]
    fn all_vectors_distinct_and_valid() {
        for d in 2..=4 {
            for n in 0..=6 {
                let mut seen = HashSet::new();
                for l in LevelIter::new(d, n) {
                    let sum: usize = l.iter().map(|&v| v as usize).sum();
                    assert_eq!(sum, n);
                    assert!(seen.insert(l));
                }
            }
        }
    }

    #[test]
    fn next_on_last_returns_false_and_preserves() {
        let mut l = [0u8, 0, 3];
        assert!(!next_level(&mut l));
        assert_eq!(l, [0, 0, 3]);
        let mut z = [0u8, 0, 0];
        assert!(!next_level(&mut z));
    }

    #[test]
    fn one_dimensional_enumeration_is_singleton() {
        for n in 0..=5 {
            let all: Vec<_> = LevelIter::new(1, n).collect();
            assert_eq!(all, vec![vec![n as Level]]);
        }
    }

    #[test]
    fn subspace_rank_roundtrip() {
        let l = [2u8, 0, 3];
        let mut i = [0u32; 3];
        for rank in 0..(1u64 << 5) {
            decode_subspace_rank(&l, rank, &mut i);
            for (t, &it) in i.iter().enumerate() {
                assert!(it % 2 == 1 && it < (1 << (l[t] + 1)));
            }
            assert_eq!(encode_subspace_rank(&l, &i), rank);
        }
    }

    #[test]
    fn for_each_point_covers_grid_in_order() {
        let spec = GridSpec::new(3, 4);
        let mut count = 0u64;
        let mut last_sum = 0usize;
        for_each_point(&spec, |idx, l, i| {
            assert_eq!(idx, count);
            assert!(spec.contains(l, i));
            let sum: usize = l.iter().map(|&v| v as usize).sum();
            assert!(sum >= last_sum, "groups must be visited in ascending order");
            last_sum = sum;
            count += 1;
        });
        assert_eq!(count, spec.num_points());
    }

    #[test]
    fn cursor_steps_agree_with_idx2gp_at_every_index() {
        for (d, levels) in [(1, 6), (2, 5), (3, 4), (5, 3)] {
            let ix = GridIndexer::new(GridSpec::new(d, levels));
            let last = ix.num_points() - 1;
            for idx in 0..last {
                let mut p = PointCursor::at(&ix, idx);
                let (l0, i0) = (p.level().to_vec(), p.index().to_vec());
                let t = p.advance().unwrap_or_else(|| panic!("d={d} idx={idx}"));
                let q = PointCursor::at(&ix, idx + 1);
                assert_eq!((p.level(), p.index()), (q.level(), q.index()));
                assert_eq!(
                    (&l0[..t], &i0[..t]),
                    (&p.level()[..t], &p.index()[..t]),
                    "d={d} idx={idx}: a dimension below the reported {t} changed"
                );
            }
            assert!(
                PointCursor::at(&ix, last).advance().is_none(),
                "d={d} past the end"
            );
        }
    }

    #[test]
    fn for_each_level_matches_iterator() {
        let mut collected = Vec::new();
        for_each_level(3, 4, |l| collected.push(l.to_vec()));
        let expected: Vec<_> = LevelIter::new(3, 4).collect();
        assert_eq!(collected, expected);
    }
}
