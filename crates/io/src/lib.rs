#![warn(missing_docs)]

//! # sg-io — compact binary grid format
//!
//! The storage hop of the paper's Fig. 1 pipeline. Because the compact
//! data structure carries *no* keys or pointers, its serialized form is
//! simply a small header plus the raw coefficient array:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SGC1"
//! 4       1     value type: 0 = f32, 1 = f64
//! 5       3     reserved (zero)
//! 8       4     dimensionality d          (LE u32)
//! 12      4     refinement level L        (LE u32)
//! 16      8     coefficient count N       (LE u64)
//! 24      8·/4· raw little-endian coefficients
//! end−8   8     FNV-1a 64 checksum of everything before it (LE u64)
//! ```
//!
//! Overhead: 32 bytes total, independent of `N` and `d` — compare the
//! per-point keys a map-based representation would have to persist.
//!
//! A human-readable JSON codec ([`encode_json`] / [`decode_json`]) is
//! provided for interchange and debugging; it carries the same fields
//! (`dim`, `levels`, `values`) and performs the same shape/length
//! validation as the binary path.

use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_core::real::Real;
use sg_json::Value;

/// Statement/item gate for instrumentation: compiled verbatim with the
/// `telemetry` feature, compiled away without it (see `sg_core`'s twin).
#[cfg(feature = "telemetry")]
macro_rules! tel {
    ($($t:tt)*) => { $($t)* };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! tel {
    ($($t:tt)*) => {};
}

tel! {
    static ENCODE_BYTES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.encode_bytes");
    static DECODE_BYTES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.decode_bytes");
    /// Per-call codec latency distributions (binary and JSON paths
    /// share one instrument each; the byte counters above separate the
    /// volumes).
    static ENCODE_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("io.encode_ns");
    static DECODE_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("io.decode_ns");
}

pub mod manifest;
pub mod snapshot;

pub use manifest::{
    component_boundaries, recover_component_set, verify_component_set, write_component_set,
    ComponentMeta, ComponentSetInfo, ComponentSetRecovery, MANIFEST_MAGIC, MANIFEST_VERSION,
};
pub use snapshot::{
    crc64, crc64_combine, crc64_update, encode_snapshot, read_snapshot, read_snapshot_file,
    recover_snapshot, recover_snapshot_from, section_boundaries, verify_snapshot, write_snapshot,
    write_snapshot_file, DegradedGrid, FaultSink, FileSink, MemorySink, Recovery, SectionReport,
    SectionStatus, SnapshotInfo, SnapshotSink, SnapshotSource, WriteFault, SNAP_MAGIC,
    SNAP_VERSION,
};

/// Format magic.
pub const MAGIC: [u8; 4] = *b"SGC1";
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 24;
/// Trailing checksum length in bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than header + checksum.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unknown value-type tag.
    BadValueType(u8),
    /// The value-type tag does not match the requested `T`.
    ValueTypeMismatch {
        /// Tag found in the header.
        found: u8,
        /// Tag implied by the requested scalar type.
        expected: u8,
    },
    /// Header count does not match `GridSpec::num_points`.
    CountMismatch {
        /// Count from the header.
        header: u64,
        /// Count implied by (d, L).
        expected: u64,
    },
    /// Payload length does not match the header count.
    LengthMismatch,
    /// Checksum failed — the blob is corrupt.
    ChecksumMismatch,
    /// Invalid grid shape (d = 0 or L = 0 or too large).
    BadShape,
    /// JSON document malformed or missing a required field.
    BadJson(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad magic (not an SGC1 blob)"),
            DecodeError::BadValueType(t) => write!(f, "unknown value type tag {t}"),
            DecodeError::ValueTypeMismatch { found, expected } => {
                write!(f, "value type tag {found}, expected {expected}")
            }
            DecodeError::CountMismatch { header, expected } => {
                write!(f, "header count {header} but grid shape implies {expected}")
            }
            DecodeError::LengthMismatch => write!(f, "payload length mismatch"),
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt blob)"),
            DecodeError::BadShape => write!(f, "invalid grid shape"),
            DecodeError::BadJson(why) => write!(f, "bad JSON grid document: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64-bit over a byte slice.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Value-type tag for a scalar type (`f32` → 0, `f64` → 1), shared by
/// the SGC1, SGC2 and SGCM headers.
pub(crate) fn type_tag<T: Real>() -> u8 {
    match T::size_bytes() {
        4 => 0,
        8 => 1,
        _ => unreachable!("Real is only implemented for f32/f64"),
    }
}

/// Little-endian read cursor over a byte slice; every `get_*` assumes the
/// caller has already verified enough bytes remain.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        head
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// Encode a grid into the compact binary format.
pub fn encode<T: Real>(grid: &CompactGrid<T>) -> Vec<u8> {
    tel! { let codec_t0 = std::time::Instant::now(); }
    let n = grid.len();
    let mut buf = Vec::with_capacity(HEADER_LEN + n * T::size_bytes() + CHECKSUM_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(type_tag::<T>());
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&(grid.spec().dim() as u32).to_le_bytes());
    buf.extend_from_slice(&(grid.spec().levels() as u32).to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for &v in grid.values() {
        match T::size_bytes() {
            4 => buf.extend_from_slice(&(v.to_f64() as f32).to_le_bytes()),
            _ => buf.extend_from_slice(&v.to_f64().to_le_bytes()),
        }
    }
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    tel! {
        ENCODE_BYTES.add(buf.len() as u64);
        ENCODE_NS.record(codec_t0.elapsed().as_nanos() as u64);
    }
    buf
}

/// Decode a grid from the compact binary format.
pub fn decode<T: Real>(blob: &[u8]) -> Result<CompactGrid<T>, DecodeError> {
    tel! { let codec_t0 = std::time::Instant::now(); }
    if blob.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(DecodeError::Truncated);
    }
    let (body, tail) = blob.split_at(blob.len() - CHECKSUM_LEN);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(DecodeError::ChecksumMismatch);
    }

    let mut cur = Cursor { buf: body };
    if cur.take(4) != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let tag = cur.get_u8();
    if tag > 1 {
        return Err(DecodeError::BadValueType(tag));
    }
    if tag != type_tag::<T>() {
        return Err(DecodeError::ValueTypeMismatch {
            found: tag,
            expected: type_tag::<T>(),
        });
    }
    cur.take(3);
    let d = cur.get_u32_le() as usize;
    let levels = cur.get_u32_le() as usize;
    let n = cur.get_u64_le();
    if d > 64 {
        return Err(DecodeError::BadShape);
    }
    // `try_new` + `try_num_points`: a checksum-valid crafted header like
    // (d = 60, L = 31) describes a point count that overflows u64 and
    // must fail typed, not panic.
    let spec = GridSpec::try_new(d, levels).map_err(|_| DecodeError::BadShape)?;
    let expected = spec.try_num_points().map_err(|_| DecodeError::BadShape)?;
    if expected != n {
        return Err(DecodeError::CountMismatch {
            header: n,
            expected,
        });
    }
    if cur.remaining() != n as usize * T::size_bytes() {
        return Err(DecodeError::LengthMismatch);
    }
    let mut values = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let v = match T::size_bytes() {
            4 => T::from_f64(cur.get_f32_le() as f64),
            _ => T::from_f64(cur.get_f64_le()),
        };
        values.push(v);
    }
    tel! {
        DECODE_BYTES.add(blob.len() as u64);
        DECODE_NS.record(codec_t0.elapsed().as_nanos() as u64);
    }
    Ok(CompactGrid::from_parts(spec, values))
}

/// Encode a grid as a JSON document:
/// `{"format": "sg-grid", "dim": d, "levels": L, "values": [...]}`.
pub fn encode_json<T: Real>(grid: &CompactGrid<T>) -> String {
    tel! { let codec_t0 = std::time::Instant::now(); }
    let values: Vec<Value> = grid
        .values()
        .iter()
        .map(|v| Value::Num(v.to_f64()))
        .collect();
    let doc = Value::Object(vec![
        ("format".into(), Value::Str("sg-grid".into())),
        ("dim".into(), Value::Num(grid.spec().dim() as f64)),
        ("levels".into(), Value::Num(grid.spec().levels() as f64)),
        ("values".into(), Value::Array(values)),
    ]);
    let out = doc.to_string();
    tel! {
        ENCODE_BYTES.add(out.len() as u64);
        ENCODE_NS.record(codec_t0.elapsed().as_nanos() as u64);
    }
    out
}

/// Decode a grid from the JSON document produced by [`encode_json`].
///
/// Rejects malformed documents, invalid shapes (`dim` = 0, `levels`
/// outside 1..=31), and value arrays whose length does not match the
/// shape — the same guarantees the binary decoder gives.
pub fn decode_json<T: Real>(text: &str) -> Result<CompactGrid<T>, DecodeError> {
    tel! { let codec_t0 = std::time::Instant::now(); }
    let doc = sg_json::parse(text).map_err(|e| DecodeError::BadJson(e.to_string()))?;
    let field = |name: &str| -> Result<&Value, DecodeError> {
        doc.get(name)
            .ok_or_else(|| DecodeError::BadJson(format!("missing field `{name}`")))
    };
    let as_dim = |name: &str| -> Result<usize, DecodeError> {
        match field(name)? {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as usize),
            _ => Err(DecodeError::BadJson(format!(
                "field `{name}` is not a non-negative integer"
            ))),
        }
    };
    let d = as_dim("dim")?;
    let levels = as_dim("levels")?;
    if d > 64 {
        return Err(DecodeError::BadShape);
    }
    let spec = GridSpec::try_new(d, levels).map_err(|_| DecodeError::BadShape)?;
    let expected = spec.try_num_points().map_err(|_| DecodeError::BadShape)?;
    let raw = match field("values")? {
        Value::Array(items) => items,
        _ => {
            return Err(DecodeError::BadJson(
                "field `values` is not an array".into(),
            ))
        }
    };
    if raw.len() as u64 != expected {
        return Err(DecodeError::LengthMismatch);
    }
    let mut values = Vec::with_capacity(raw.len());
    for item in raw {
        match item {
            Value::Num(x) => values.push(T::from_f64(*x)),
            _ => return Err(DecodeError::BadJson("non-numeric value entry".into())),
        }
    }
    tel! {
        DECODE_BYTES.add(text.len() as u64);
        DECODE_NS.record(codec_t0.elapsed().as_nanos() as u64);
    }
    Ok(CompactGrid::from_parts(spec, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::functions::TestFunction;

    fn sample_grid() -> CompactGrid<f64> {
        CompactGrid::from_fn(GridSpec::new(3, 4), |x| TestFunction::Gaussian.eval(x))
    }

    #[test]
    fn roundtrip_f64() {
        let g = sample_grid();
        let blob = encode(&g);
        let back: CompactGrid<f64> = decode(&blob).unwrap();
        assert_eq!(back.spec(), g.spec());
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn roundtrip_f32() {
        let g: CompactGrid<f32> =
            CompactGrid::from_fn(GridSpec::new(2, 5), |x| (x[0] - x[1]) as f32);
        let blob = encode(&g);
        let back: CompactGrid<f32> = decode(&blob).unwrap();
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn overhead_is_exactly_32_bytes() {
        let g = sample_grid();
        let blob = encode(&g);
        assert_eq!(blob.len(), HEADER_LEN + g.len() * 8 + CHECKSUM_LEN);
    }

    #[test]
    fn detects_truncation() {
        let blob = encode(&sample_grid());
        for cut in [0usize, 10, HEADER_LEN, blob.len() - 1] {
            let r: Result<CompactGrid<f64>, _> = decode(&blob[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn detects_single_bit_corruption_anywhere() {
        let blob = encode(&sample_grid());
        // Flip one bit in a spread of positions across header, payload
        // and checksum.
        for pos in (0..blob.len()).step_by(blob.len() / 23 + 1) {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            let r: Result<CompactGrid<f64>, _> = decode(&bad);
            assert!(r.is_err(), "corruption at byte {pos} must be detected");
        }
    }

    #[test]
    fn rejects_wrong_value_type() {
        let g = sample_grid();
        let blob = encode(&g);
        let r: Result<CompactGrid<f32>, _> = decode(&blob);
        assert_eq!(
            r.unwrap_err(),
            DecodeError::ValueTypeMismatch {
                found: 1,
                expected: 0
            }
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut blob = encode(&sample_grid());
        blob[0] = b'X';
        // Re-stamp the checksum so only the magic is wrong.
        let len = blob.len();
        let c = fnv1a(&blob[..len - 8]);
        blob[len - 8..].copy_from_slice(&c.to_le_bytes());
        let r: Result<CompactGrid<f64>, _> = decode(&blob);
        assert_eq!(r.unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn rejects_inconsistent_count() {
        let mut blob = encode(&sample_grid());
        // Overwrite the count field (offset 16) with a wrong value.
        blob[16..24].copy_from_slice(&999u64.to_le_bytes());
        let len = blob.len();
        let c = fnv1a(&blob[..len - 8]);
        blob[len - 8..].copy_from_slice(&c.to_le_bytes());
        let r: Result<CompactGrid<f64>, _> = decode(&blob);
        assert!(matches!(r.unwrap_err(), DecodeError::CountMismatch { .. }));
    }

    #[test]
    fn error_messages_render() {
        let e = DecodeError::CountMismatch {
            header: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("header count 1"));
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
    }

    #[test]
    fn fnv_reference_vector() {
        // Known FNV-1a 64 test vector.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn json_roundtrip() {
        let g = sample_grid();
        let text = encode_json(&g);
        let back: CompactGrid<f64> = decode_json(&text).unwrap();
        assert_eq!(back.spec(), g.spec());
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn json_rejects_corrupt_spec() {
        let g = sample_grid();
        // Zero dim, zero/oversized levels, all invalid shapes.
        for (dim, levels) in [(0, 4), (3, 0), (3, 32), (65, 4)] {
            let text = encode_json(&g)
                .replace("\"dim\":3", &format!("\"dim\":{dim}"))
                .replace("\"levels\":4", &format!("\"levels\":{levels}"));
            let r: Result<CompactGrid<f64>, _> = decode_json(&text);
            assert_eq!(
                r.unwrap_err(),
                DecodeError::BadShape,
                "dim={dim} levels={levels}"
            );
        }
    }

    #[test]
    fn json_rejects_wrong_value_count() {
        let g = sample_grid();
        // Claim a different shape than the value array supports.
        let text = encode_json(&g).replace("\"levels\":4", "\"levels\":5");
        let r: Result<CompactGrid<f64>, _> = decode_json(&text);
        assert_eq!(r.unwrap_err(), DecodeError::LengthMismatch);
    }

    #[test]
    fn json_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,2,3]",
            "{\"dim\": 2}",
            "{\"dim\": 1.5, \"levels\": 2, \"values\": []}",
        ] {
            let r: Result<CompactGrid<f64>, _> = decode_json(bad);
            assert!(r.is_err(), "must reject {bad:?}");
        }
    }
}
