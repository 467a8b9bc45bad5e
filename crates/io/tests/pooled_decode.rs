//! Pooled and inline section decode agree bitwise. A section payload of
//! at least 1 MiB is checksummed chunk by chunk on the sg-par pool; at
//! `SG_PAR_THREADS=1` the same chunks run inline on the caller.
//! Both widths, from a file and from memory, must recover the same bits
//! and the same lost groups, clean or damaged.
//!
//! Own integration-test binary: the pool width is process-global.

use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_core::real::Real;
use sg_io::{recover_snapshot, recover_snapshot_from, section_boundaries, SectionReport};

/// What a recovery yields, in comparable form.
type Outcome = (Vec<SectionReport>, Vec<usize>, Vec<u64>);

fn outcome<T: Real>(r: sg_io::Recovery<T>) -> Outcome {
    let bits = r
        .grid
        .grid()
        .values()
        .iter()
        .map(|v| v.to_f64().to_bits())
        .collect();
    (r.sections, r.grid.lost_groups().to_vec(), bits)
}

/// Recover every damage variant of `grid`'s snapshot from memory and
/// from a file at pool widths 1 and 4; every result must be identical.
fn decode_agrees<T: Real>(grid: &CompactGrid<T>, name: &str) {
    let gold = sg_io::encode_snapshot(grid, "pooled-decode");
    let bounds = section_boundaries(&gold).unwrap();
    let finest = bounds.len() - 3;
    let size = bounds[finest + 1] - bounds[finest];
    assert!(
        size > 1 << 20,
        "{name}: finest section of {size} bytes stays inline"
    );
    // Clean; a flipped bit in the finest section's third chunk; a cut
    // inside that section.
    let mut flipped = gold.clone();
    flipped[bounds[finest] + 16 + (2 << 18) + 11] ^= 0x04;
    let variants = [
        gold.clone(),
        flipped,
        gold[..bounds[finest] + size / 2].to_vec(),
    ];
    let path = std::env::temp_dir().join(format!("sg-pooled-decode-{}.sgcs", std::process::id()));
    let mut seen: Vec<Vec<Outcome>> = Vec::new();
    for width in ["1", "4"] {
        std::env::set_var("SG_PAR_THREADS", width);
        let mut outcomes = Vec::new();
        for bytes in &variants {
            std::fs::write(&path, bytes).unwrap();
            let file = std::fs::File::open(&path).unwrap();
            let from_file = outcome(recover_snapshot_from::<T>(&file).unwrap());
            let from_bytes = outcome(recover_snapshot::<T>(bytes).unwrap());
            assert!(
                from_file == from_bytes,
                "{name}: file and memory differ at width {width}"
            );
            outcomes.push(from_bytes);
        }
        seen.push(outcomes);
    }
    std::fs::remove_file(&path).ok();
    assert!(seen[0] == seen[1], "{name}: pool widths 1 and 4 differ");
    let [clean, flipped, cut] = &seen[0][..] else {
        unreachable!()
    };
    let original: Vec<u64> = grid.values().iter().map(|v| v.to_f64().to_bits()).collect();
    assert!(
        clean.1.is_empty() && clean.2 == original,
        "{name}: clean decode"
    );
    assert_eq!(flipped.1, vec![finest], "{name}: flipped bit");
    assert_eq!(cut.1, vec![finest], "{name}: cut");
}

#[test]
fn pooled_and_inline_section_decode_agree_bitwise() {
    // d = 3, level 13: the finest group holds 372,736 points, 1.5 MB in
    // f32 and 3 MB in f64; the coarser groups stay under 1 MiB.
    let spec = GridSpec::new(3, 13);
    let f = |x: &[f64]| (5.0 * x[0]).sin() * x[1] + (x[2] - 0.3).powi(2);
    let mut g64 = CompactGrid::<f64>::from_fn_parallel(spec, f);
    sg_core::hierarchize::hierarchize_parallel(&mut g64);
    let g32 = CompactGrid::<f32>::from_fn_parallel(spec, |x| f(x) as f32);
    decode_agrees(&g64, "f64");
    decode_agrees(&g32, "f32");
}
