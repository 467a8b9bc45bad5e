//! Golden-value tests: hand-computed constants from the paper (Sec. 4,
//! Table 1 scales) pinned as literals, so a regression in
//! `combinatorics.rs`, `iter.rs`, or `level.rs` fails loudly instead of
//! silently shifting every derived quantity.

use sg_core::bijection::GridIndexer;
use sg_core::combinatorics::{binomial, sparse_grid_points, subspace_count};
use sg_core::iter::LevelIter;
use sg_core::level::GridSpec;

/// N(d, L) = Σ_{s<L} C(d−1+s, d−1)·2^s — the closed form of paper Eq. 1,
/// against independently hand-computed values.
#[test]
fn point_counts_match_hand_computed_values() {
    // (d, L, N(d, L))
    const GOLDEN: &[(usize, usize, u64)] = &[
        // d = 1 degenerates to a full 1-d grid: 2^L − 1.
        (1, 1, 1),
        (1, 5, 31),
        (1, 7, 127),
        // d = 2: 1, 5, 17, 49, 129, 321, 769 …
        (2, 2, 5),
        (2, 3, 17),
        (2, 4, 49),
        (2, 5, 129),
        (2, 6, 321),
        (2, 7, 769),
        // d = 3: 1, 7, 31, 111, 351, 1023 …
        (3, 2, 7),
        (3, 3, 31),
        (3, 4, 111),
        (3, 5, 351),
        (3, 6, 1023),
        // d = 4 and d = 5 (Table 1 mid-range sizes).
        (4, 4, 209),
        (4, 5, 769),
        (4, 6, 2561),
        (5, 4, 351),
        (5, 5, 1471),
        (5, 6, 5503),
        // The paper's big grids: d = 10.
        (10, 5, 13_441),
        (10, 11, 127_574_017),
    ];
    for &(d, levels, expect) in GOLDEN {
        assert_eq!(
            sparse_grid_points(d, levels),
            expect,
            "N({d}, {levels}) wrong"
        );
        assert_eq!(
            GridSpec::new(d, levels).num_points(),
            expect,
            "GridSpec::num_points({d}, {levels}) disagrees with closed form"
        );
    }
}

/// The binomial lookup (the paper's `binmat`) against textbook values.
#[test]
fn binomials_match_pascals_triangle() {
    const GOLDEN: &[(u64, u64, u64)] = &[
        (0, 0, 1),
        (4, 2, 6),
        (9, 0, 1),
        (9, 9, 1),
        (10, 9, 10),
        (12, 9, 220),
        (13, 9, 715),
        (19, 9, 92_378),
        (52, 5, 2_598_960),
    ];
    for &(n, k, expect) in GOLDEN {
        assert_eq!(binomial(n, k), expect, "C({n}, {k}) wrong");
    }
}

/// |L_n^d| = C(d−1+n, d−1): the number of subspaces per level group.
#[test]
fn subspace_counts_match_hand_computed_values() {
    const GOLDEN: &[(usize, usize, u64)] = &[
        (1, 0, 1),
        (1, 6, 1),
        (2, 3, 4),
        (3, 0, 1),
        (3, 1, 3),
        (3, 2, 6),
        (3, 3, 10),
        (3, 4, 15),
        (5, 4, 70),
        (10, 10, 92_378),
    ];
    for &(d, n, expect) in GOLDEN {
        assert_eq!(subspace_count(d, n), expect, "|L_{n}^{d}| wrong");
    }
}

/// `subspaceidx` ranks (paper Alg. 3/4 enumeration order) for every
/// composition of small level groups, written out by hand.
#[test]
fn subspace_ranks_match_enumeration_order() {
    // d = 3, n = 2 — the example order from the paper's Alg. 4 walk-through:
    // (2,0,0), (1,1,0), (0,2,0), (1,0,1), (0,1,1), (0,0,2).
    let expect_d3_n2: [&[u8]; 6] = [
        &[2, 0, 0],
        &[1, 1, 0],
        &[0, 2, 0],
        &[1, 0, 1],
        &[0, 1, 1],
        &[0, 0, 2],
    ];
    let got: Vec<_> = LevelIter::new(3, 2).collect();
    assert_eq!(got.len(), expect_d3_n2.len());
    for (k, (g, e)) in got.iter().zip(expect_d3_n2).enumerate() {
        assert_eq!(g.as_slice(), e, "d=3 n=2 rank {k}");
    }

    // d = 2, n = 3: first component drains into the second.
    let expect_d2_n3: [&[u8]; 4] = [&[3, 0], &[2, 1], &[1, 2], &[0, 3]];
    let got: Vec<_> = LevelIter::new(2, 3).collect();
    for (k, (g, e)) in got.iter().zip(expect_d2_n3).enumerate() {
        assert_eq!(g.as_slice(), e, "d=2 n=3 rank {k}");
    }

    // subspace_rank inverts the enumeration: rank of each vector is its
    // position.
    let ix = GridIndexer::new(GridSpec::new(3, 3));
    for (k, l) in expect_d3_n2.iter().enumerate() {
        assert_eq!(ix.subspace_rank(l), k as u64, "subspaceidx({l:?})");
    }
}

/// Full `gp2idx` values for the d = 2, L = 3 grid (17 points), worked out
/// on paper from index1/index2/index3 of Alg. 5.
#[test]
fn gp2idx_matches_hand_computed_layout() {
    let spec = GridSpec::new(2, 3);
    assert_eq!(spec.num_points(), 17);
    let ix = GridIndexer::new(spec);

    // (level vector, index vector, linear index)
    const GOLDEN: &[([u8; 2], [u32; 2], u64)] = &[
        // group n=0: the single centre point.
        ([0, 0], [1, 1], 0),
        // group n=1 (offset 1): subspace (1,0) then (0,1).
        ([1, 0], [1, 1], 1),
        ([1, 0], [3, 1], 2),
        ([0, 1], [1, 1], 3),
        ([0, 1], [1, 3], 4),
        // group n=2 (offset 5): subspaces (2,0), (1,1), (0,2), 4 points each.
        ([2, 0], [1, 1], 5),
        ([2, 0], [3, 1], 6),
        ([2, 0], [5, 1], 7),
        ([2, 0], [7, 1], 8),
        ([1, 1], [1, 1], 9),
        ([1, 1], [1, 3], 10),
        ([1, 1], [3, 1], 11),
        ([1, 1], [3, 3], 12),
        ([0, 2], [1, 1], 13),
        ([0, 2], [1, 3], 14),
        ([0, 2], [1, 5], 15),
        ([0, 2], [1, 7], 16),
    ];
    for &(l, i, expect) in GOLDEN {
        assert_eq!(ix.gp2idx(&l, &i), expect, "gp2idx({l:?}, {i:?})");
        let (l2, i2) = ix.idx2gp_vec(expect);
        assert_eq!((l2.as_slice(), i2.as_slice()), (&l[..], &i[..]));
    }
}

/// The paper's headline capacity claim: d = 10, level 11 has exactly
/// 127,574,017 points, and the compact layout stores them with zero
/// structural overhead (one value per point, nothing else).
#[test]
fn paper_scale_grid_is_exactly_sized() {
    let spec = GridSpec::new(10, 11);
    assert_eq!(spec.num_points(), 127_574_017);
    // Level-group offsets (index3 of Alg. 5) are the partial sums of
    // C(9+s, 9)·2^s; spot-check the final group.
    let last_group: u64 = subspace_count(10, 10) * (1 << 10);
    assert_eq!(last_group, 92_378 << 10);
    assert_eq!(
        sparse_grid_points(10, 10) + last_group,
        sparse_grid_points(10, 11)
    );
}

/// FNV-1a (64-bit) over a byte buffer: a format fingerprint computed
/// independently of sg-io, so a change to the encoders or to the CRC-64
/// they embed fails here even when encode and decode still agree.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The SGC2 bytes of a fixed grid are pinned: same length, same
/// fingerprint. Every section CRC is inside the fingerprint, so a
/// checksum implementation that disagrees with CRC-64/XZ on any byte
/// breaks this test, and snapshots already on disk would stop reading.
#[test]
fn sgc2_snapshot_bytes_are_pinned() {
    use sg_core::functions::TestFunction;
    use sg_core::grid::CompactGrid;
    let grid = CompactGrid::<f64>::from_fn(GridSpec::new(3, 4), |x| TestFunction::Gaussian.eval(x));
    let bytes = sg_io::encode_snapshot(&grid, "golden");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (1088, 0xBCC0_6896_1EE1_E07B));
}

/// The SGCM bytes of a fixed component set (one component tombstoned,
/// so the complemented tombstone CRC is covered too) are pinned.
#[test]
fn sgcm_manifest_bytes_are_pinned() {
    use sg_io::{write_component_set, ComponentMeta, MemorySink};
    let levels: [([u8; 2], i64); 5] = [
        ([2, 0], 1),
        ([1, 1], 1),
        ([0, 2], 1),
        ([1, 0], -1),
        ([0, 1], -1),
    ];
    let set: Vec<(ComponentMeta, Vec<f64>)> = levels
        .iter()
        .map(|&(l, coefficient)| {
            let n = ((1usize << (l[0] + 1)) - 1) * ((1usize << (l[1] + 1)) - 1);
            let values: Vec<f64> = (0..n)
                .map(|k| (k as f64 + 0.5) * coefficient as f64)
                .collect();
            let meta = ComponentMeta {
                coefficient,
                levels: l.to_vec(),
                max_abs: values.iter().fold(0.0f64, |a, v| a.max(v.abs())),
            };
            (meta, values)
        })
        .collect();
    let entries: Vec<(ComponentMeta, Option<&[f64]>)> = set
        .iter()
        .enumerate()
        .map(|(k, (m, v))| (m.clone(), (k != 1).then_some(v.as_slice())))
        .collect();
    let mut sink = MemorySink::new();
    write_component_set(2, &entries, &mut sink, "golden").unwrap();
    let bytes = sink.into_published().unwrap();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (620, 0x593A_50CB_81A0_DDB7));
}
