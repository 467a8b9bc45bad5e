//! `SGC2` — crash-safe sectioned snapshots of compact sparse grids.
//!
//! The legacy [`crate::encode`]/[`crate::decode`] format (`SGC1`) is
//! all-or-nothing: one trailing checksum over the whole buffer, so a torn
//! write or a single flipped bit discards the entire grid. The compact
//! bijection makes partial durability natural — each level group
//! `|l|₁ = n` is a *contiguous* range of the coefficient array
//! ([`sg_core::bijection::GridIndexer::group_range`]) — so `SGC2` stores
//! one independently checksummed section per level group and can salvage
//! every intact section of a damaged file:
//!
//! ```text
//! offset                      field
//! 0                           header block (see below)
//! H                           section 0   (level group 0)
//! H + S₀                      section 1   (level group 1)
//! …
//! H + Σ Sₙ                    footer  = byte-for-byte copy of the header
//! end − 12                    footer length (LE u64)
//! end − 4                     trailer magic "2CGS"
//!
//! header block (little-endian):
//!   +0   4   magic  "SGC2"
//!   +4   4   format version (currently 1)
//!   +8   1   value type tag: 0 = f32, 1 = f64
//!   +9   3   reserved (zero)
//!   +12  4   dimensionality d
//!   +16  4   refinement level L   (= section count)
//!   +20  8   coefficient count N
//!   +28  4   provenance length P  (bytes, ≤ 4096)
//!   +32  P   provenance stamp (UTF-8, free-form)
//!   +32+P 8  CRC-64/XZ of the P+32 bytes above
//!
//! section n (one per level group, in ascending n):
//!   +0   4   marker "SGSC"
//!   +4   4   level group index n
//!   +8   8   payload length  (= |group n| · sizeof(T))
//!   +16  …   raw little-endian coefficients of group n
//!   end  8   CRC-64/XZ of marker..payload
//! ```
//!
//! Every section offset is *computable from the spec alone*, so a corrupt
//! section never prevents locating the next one, and the duplicated
//! header (footer) means a damaged prefix still yields the spec. Recovery
//! ([`recover_snapshot_from`]) therefore ends in exactly one of three states:
//! full recovery (bitwise-identical coefficients), a [`DegradedGrid`]
//! that enumerates the lost level groups (coarse groups carry most of
//! the interpolant mass, so degraded evaluation stays bounded), or a
//! typed [`SgError`] — never a panic.
//!
//! Writing goes through a pluggable [`SnapshotSink`]; the file-backed
//! [`FileSink`] is atomic (temp file → flush → rename), and tests inject
//! ENOSPC, torn writes, truncation, and bit flips via [`FaultSink`].
//! Reading goes through a positional [`SnapshotSource`] (a file or a
//! byte slice). Neither direction stages a section: the writer streams
//! each payload from the coefficient slice, and recovery reads each one
//! straight into its range of the grid. Large payloads are checksummed
//! chunk by chunk on the sg-par pool, and the chunk CRCs are joined with
//! [`crc64_combine`].

use crate::type_tag;
use sg_core::error::SgError;
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_core::real::Real;

tel! {
    static SNAP_ENCODE_BYTES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.encode_bytes");
    static SNAP_SECTIONS_WRITTEN: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.sections_written");
    static SNAP_SECTIONS_VERIFIED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.sections_verified");
    static SNAP_SECTIONS_CORRUPT: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.sections_corrupt");
    static SNAP_RECOVER_FULL: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.recover_full");
    static SNAP_RECOVER_DEGRADED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.recover_degraded");
    static SNAP_RECOVER_FAILED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.recover_failed");
    static SNAP_HEADER_FALLBACKS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.footer_fallbacks");
    /// Per-section verification latency (CRC + structural checks).
    static SECTION_VERIFY_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("io.snapshot.section_verify_ns");
    /// Whole-snapshot write latency through a sink.
    static SNAP_WRITE_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("io.snapshot.write_ns");
}

/// Snapshot format magic.
pub const SNAP_MAGIC: [u8; 4] = *b"SGC2";
/// Trailer magic locating the footer from the end of the file.
pub const TRAILER_MAGIC: [u8; 4] = *b"2CGS";
/// Current format version.
pub const SNAP_VERSION: u32 = 1;
/// Per-section marker.
pub const SECTION_MARKER: [u8; 4] = *b"SGSC";
/// Fixed header bytes before the provenance stamp.
const HEADER_FIXED: usize = 32;
/// Fixed section bytes before the payload (marker + group + length).
pub(crate) const SECTION_FIXED: usize = 16;
/// Bytes of the section checksum.
pub(crate) const SECTION_CRC: usize = 8;
/// Trailer: footer length (u64) + trailer magic.
pub(crate) const TRAILER_LEN: usize = 12;
/// Upper bound on the provenance stamp, so a corrupt length field cannot
/// drive a huge read.
pub const MAX_PROVENANCE: usize = 4096;

// ---------------------------------------------------------------------------
// CRC-64/XZ
// ---------------------------------------------------------------------------

/// 256-entry lookup table for CRC-64/XZ (reflected, polynomial
/// 0xC96C5795D7870F42), built at compile time.
static CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-16 tables (Kounavis & Berry, 2005): `CRC64_SLICES[k][b]`
/// is the CRC register contribution of byte `b` followed by `k` zero
/// bytes, so sixteen lookups fold a whole 16-byte block at once. Row 0 is
/// [`CRC64_TABLE`]. Built at compile time.
static CRC64_SLICES: [[u64; 256]; 16] = {
    let mut slices = [[0u64; 256]; 16];
    slices[0] = CRC64_TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = CRC64_TABLE[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    slices
};

/// Advance the raw CRC register one byte at a time. Serves as the tail
/// of [`crc64_update`] and as the reference it is tested against.
fn crc64_bytewise(mut crc: u64, data: &[u8]) -> u64 {
    for &b in data {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Advance the raw CRC-64/XZ register `crc` over `data` (no init, no
/// xor-out: `crc64(d) == !crc64_update(!0, d)`), so one checksum can be
/// streamed over pieces that are never contiguous in memory.
///
/// Slicing-by-16: each 16-byte block is folded into the register with
/// sixteen independent table lookups instead of sixteen dependent ones;
/// the last `len % 16` bytes go through the byte loop. Bit-identical to
/// the byte-at-a-time definition.
pub fn crc64_update(mut crc: u64, data: &[u8]) -> u64 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let lo = u64::from_le_bytes(block[..8].try_into().unwrap()) ^ crc;
        let hi = u64::from_le_bytes(block[8..].try_into().unwrap());
        crc = 0;
        for j in 0..8 {
            crc ^= CRC64_SLICES[15 - j][((lo >> (8 * j)) & 0xFF) as usize]
                ^ CRC64_SLICES[7 - j][((hi >> (8 * j)) & 0xFF) as usize];
        }
    }
    crc64_bytewise(crc, blocks.remainder())
}

/// CRC-64/XZ over a byte slice (init and xor-out `!0`).
pub fn crc64(data: &[u8]) -> u64 {
    !crc64_update(!0, data)
}

/// The reflected CRC-64/XZ polynomial.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// `a · b mod P` for polynomials in the reflected bit order of the CRC
/// register (bit 63 is `x⁰`), as zlib's `multmodp`.
const fn multmodp(a: u64, mut b: u64) -> u64 {
    let mut m = 1u64 << 63;
    let mut p = 0u64;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC64_POLY
        } else {
            b >> 1
        };
    }
}

/// `X2N[k] = x^(2^k) mod P`, built at compile time by repeated squaring.
const X2N: [u64; 64] = {
    let mut table = [0u64; 64];
    let mut p = 1u64 << 62; // x¹
    let mut k = 0;
    while k < 64 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// `x^(8·len) mod P`: the factor that shifts a CRC past `len` bytes
/// (`len < 2⁶¹`).
const fn shift_bytes(mut len: u64) -> u64 {
    let mut p = 1u64 << 63; // x⁰
    let mut k = 3; // 8 = 2³ bits per byte
    while len != 0 {
        if len & 1 != 0 {
            p = multmodp(X2N[k], p);
        }
        len >>= 1;
        k += 1;
    }
    p
}

/// The CRC-64/XZ of `a ‖ b` from `crc1 = crc64(a)`, `crc2 = crc64(b)`
/// and `len2 = b.len()` (zlib's `crc32_combine` scheme): one polynomial
/// multiply per set bit of `len2`, no pass over the data.
pub fn crc64_combine(crc1: u64, crc2: u64, len2: u64) -> u64 {
    multmodp(shift_bytes(len2), crc1) ^ crc2
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for a snapshot byte stream.
///
/// [`write_snapshot`] emits the header, each section, and the footer as
/// *separate* `write` calls, so a fault-injecting sink can tear the
/// stream at every section boundary. `commit` publishes the snapshot;
/// until it returns `Ok`, readers must never observe a partial file
/// (the contract [`FileSink`] implements with temp-file + rename).
pub trait SnapshotSink {
    /// Append the next chunk of the snapshot byte stream.
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()>;
    /// Durably persist everything written so far (e.g. `fsync`).
    fn flush(&mut self) -> std::io::Result<()>;
    /// Atomically publish the finished snapshot.
    fn commit(&mut self) -> std::io::Result<()>;
}

/// Atomic file-backed sink: writes to `<path>.tmp.<pid>.<seq>`, fsyncs,
/// and renames onto `path` at commit. If the process dies (or an
/// injected fault aborts the write) before `commit`, the destination
/// keeps its previous content; the temp file is removed on drop.
///
/// The temp suffix carries a process-wide monotonic sequence number in
/// addition to the pid: two threads checkpointing the *same* path
/// concurrently get distinct temp files, so the last rename wins with an
/// intact snapshot instead of both writers interleaving into one temp
/// file. After the rename, the parent directory is fsynced — without
/// that, a crash shortly after "atomic" commit can lose the directory
/// entry even though the data pages were durable.
pub struct FileSink {
    final_path: std::path::PathBuf,
    tmp_path: std::path::PathBuf,
    file: Option<std::fs::File>,
    committed: bool,
}

/// Process-wide temp-file sequence number (see [`FileSink::create`]).
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl FileSink {
    /// Open a sink that will atomically replace `path` on commit.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let final_path = path.as_ref().to_path_buf();
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut os = final_path.as_os_str().to_owned();
        os.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp_path = std::path::PathBuf::from(os);
        let file = std::fs::File::create(&tmp_path)?;
        Ok(Self {
            final_path,
            tmp_path,
            file: Some(file),
            committed: false,
        })
    }

    /// The temp path this sink writes to before commit (test hook).
    pub fn tmp_path(&self) -> &std::path::Path {
        &self.tmp_path
    }
}

/// Durably persist the directory entry for `path`: open its parent
/// directory and fsync it. A no-op error is surfaced to the caller —
/// commit must not report success if the dirent may still be lost.
fn sync_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    // Directories cannot be opened for writing; a read handle is what
    // fsync(2) wants. On platforms where fsync on a directory handle is
    // unsupported the open itself fails and the caller sees the error.
    std::fs::File::open(parent)?.sync_all()
}

impl SnapshotSink for FileSink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        self.file
            .as_mut()
            .expect("write after commit")
            .write_all(chunk)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.as_mut().expect("flush after commit").sync_all()
    }

    fn commit(&mut self) -> std::io::Result<()> {
        drop(self.file.take());
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        // The rename is atomic but not durable: fsync the parent
        // directory so the new entry survives a crash. Skipping this is
        // the classic lost-dirent bug ([`WriteFault::LostDirent`]).
        sync_parent_dir(&self.final_path)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

/// In-memory sink for tests and the fault-injection harness.
#[derive(Debug, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
    committed: bool,
}

impl MemorySink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes accepted so far (committed or not).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// True once `commit` succeeded.
    pub fn committed(&self) -> bool {
        self.committed
    }

    /// Consume the sink; `Some(bytes)` only if the snapshot committed —
    /// an uncommitted write must never be treated as published.
    pub fn into_published(self) -> Option<Vec<u8>> {
        self.committed.then_some(self.bytes)
    }
}

impl SnapshotSink for MemorySink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        self.bytes.extend_from_slice(chunk);
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn commit(&mut self) -> std::io::Result<()> {
        self.committed = true;
        Ok(())
    }
}

/// Fault classes a [`FaultSink`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Writes beyond `after_bytes` fail with `ENOSPC`; nothing commits.
    Enospc {
        /// Bytes accepted before the device "fills up".
        after_bytes: usize,
    },
    /// Bytes beyond `after_bytes` are silently dropped but the commit
    /// still "succeeds" — models a torn write that got published (e.g. a
    /// filesystem that acked the rename before all data pages hit disk).
    Torn {
        /// Bytes that actually reach the medium.
        after_bytes: usize,
    },
    /// Every byte lands and `commit` returns `Ok`, but the published
    /// snapshot vanishes: the rename's directory entry was lost in a
    /// crash because the parent directory was never fsynced. The writer
    /// believes the checkpoint succeeded; a later reader finds only the
    /// previous snapshot (or nothing). This is the fault class
    /// [`FileSink::commit`]'s parent-dir fsync exists to rule out.
    LostDirent,
}

/// A [`MemorySink`] wrapper that injects one [`WriteFault`].
#[derive(Debug)]
pub struct FaultSink {
    inner: MemorySink,
    fault: WriteFault,
    written: usize,
}

impl FaultSink {
    /// Sink that injects `fault`.
    pub fn new(fault: WriteFault) -> Self {
        Self {
            inner: MemorySink::new(),
            fault,
            written: 0,
        }
    }

    /// The bytes a reader would observe afterwards: `Some` only if the
    /// snapshot was published (commit succeeded) *and* its directory
    /// entry survived — a [`WriteFault::LostDirent`] commit reports
    /// success to the writer yet publishes nothing.
    pub fn into_published(self) -> Option<Vec<u8>> {
        if matches!(self.fault, WriteFault::LostDirent) {
            return None;
        }
        self.inner.into_published()
    }

    /// True once the commit went through.
    pub fn committed(&self) -> bool {
        self.inner.committed()
    }
}

impl SnapshotSink for FaultSink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        match self.fault {
            WriteFault::Enospc { after_bytes } => {
                if self.written + chunk.len() > after_bytes {
                    let keep = after_bytes.saturating_sub(self.written);
                    self.inner.write(&chunk[..keep])?;
                    self.written = after_bytes;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "injected ENOSPC: no space left on device",
                    ));
                }
            }
            WriteFault::Torn { after_bytes } => {
                if self.written + chunk.len() > after_bytes {
                    let keep = after_bytes.saturating_sub(self.written);
                    self.inner.write(&chunk[..keep])?;
                    self.written += chunk.len(); // pretend it all landed
                    return Ok(());
                }
            }
            // The write path itself is healthy; the fault strikes at
            // publication time (see `into_published`).
            WriteFault::LostDirent => {}
        }
        self.written += chunk.len();
        self.inner.write(chunk)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn commit(&mut self) -> std::io::Result<()> {
        self.inner.commit()
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// Parsed identity of a snapshot (from its header or footer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version.
    pub version: u32,
    /// Value-type tag (0 = `f32`, 1 = `f64`).
    pub value_type: u8,
    /// Dimensionality.
    pub dim: usize,
    /// Refinement level (= number of sections).
    pub levels: usize,
    /// Total coefficient count.
    pub num_points: u64,
    /// Free-form provenance stamp recorded at write time.
    pub provenance: String,
}

/// Serialized length of the header block carrying `prov` bytes.
fn header_len(prov_len: usize) -> usize {
    HEADER_FIXED + prov_len + 8
}

fn encode_header(info: &SnapshotInfo) -> Vec<u8> {
    let prov = info.provenance.as_bytes();
    debug_assert!(prov.len() <= MAX_PROVENANCE);
    let mut buf = Vec::with_capacity(header_len(prov.len()));
    buf.extend_from_slice(&SNAP_MAGIC);
    buf.extend_from_slice(&info.version.to_le_bytes());
    buf.push(info.value_type);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&(info.dim as u32).to_le_bytes());
    buf.extend_from_slice(&(info.levels as u32).to_le_bytes());
    buf.extend_from_slice(&info.num_points.to_le_bytes());
    buf.extend_from_slice(&(prov.len() as u32).to_le_bytes());
    buf.extend_from_slice(prov);
    let crc = crc64(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Parse and CRC-verify a header block at `offset`. Returns the info and
/// the header's total byte length; `None` on any structural or checksum
/// failure (the caller falls back to the footer, or gives up).
fn parse_header_at(bytes: &[u8], offset: usize) -> Option<(SnapshotInfo, usize)> {
    let b = bytes.get(offset..)?;
    if b.len() < HEADER_FIXED + 8 || b[..4] != SNAP_MAGIC {
        return None;
    }
    let u32_at = |p: usize| u32::from_le_bytes(b[p..p + 4].try_into().unwrap());
    let version = u32_at(4);
    let value_type = b[8];
    let dim = u32_at(12) as usize;
    let levels = u32_at(16) as usize;
    let num_points = u64::from_le_bytes(b[20..28].try_into().unwrap());
    let prov_len = u32_at(28) as usize;
    if prov_len > MAX_PROVENANCE {
        return None;
    }
    let total = header_len(prov_len);
    if b.len() < total {
        return None;
    }
    let stored = u64::from_le_bytes(b[total - 8..total].try_into().unwrap());
    if crc64(&b[..total - 8]) != stored {
        return None;
    }
    let provenance = String::from_utf8(b[HEADER_FIXED..HEADER_FIXED + prov_len].to_vec()).ok()?;
    Some((
        SnapshotInfo {
            version,
            value_type,
            dim,
            levels,
            num_points,
            provenance,
        },
        total,
    ))
}

/// Try the footer: locate it through the fixed-size trailer at the end of
/// the buffer and parse the header copy it holds.
fn parse_footer(bytes: &[u8]) -> Option<(SnapshotInfo, usize)> {
    if bytes.len() < TRAILER_LEN {
        return None;
    }
    let tail = &bytes[bytes.len() - TRAILER_LEN..];
    if tail[8..12] != TRAILER_MAGIC {
        return None;
    }
    let flen = u64::from_le_bytes(tail[..8].try_into().unwrap()) as usize;
    let start = bytes.len().checked_sub(TRAILER_LEN + flen)?;
    let (info, parsed_len) = parse_header_at(bytes, start)?;
    (parsed_len == flen).then_some((info, parsed_len))
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A section payload at least this long is checksummed in chunks on the
/// sg-par pool; a shorter one inline. The finest level groups of a grid
/// several times L2 clear it, the sections of an L2-resident grid do not.
const POOL_MIN_BYTES: usize = 1 << 20;
/// Bytes per pooled chunk: a pooled payload gives each of a few workers
/// several chunks to claim.
const CHUNK_BYTES: usize = 256 << 10;
/// [`shift_bytes`] of one whole chunk, hoisted so each join of a pooled
/// fold is one polynomial multiply.
const CHUNK_SHIFT: u64 = shift_bytes(CHUNK_BYTES as u64);

/// Continue the CRC register `crc` over `len` bytes whose chunks
/// (`CHUNK_BYTES` each, the last one shorter) have the CRCs `chunk_crcs`.
fn fold_chunk_crcs(crc: u64, chunk_crcs: impl IntoIterator<Item = u64>, len: usize) -> u64 {
    let mut acc = !crc;
    let mut left = len;
    for chunk_crc in chunk_crcs {
        let n = left.min(CHUNK_BYTES);
        acc = if n == CHUNK_BYTES {
            multmodp(CHUNK_SHIFT, acc) ^ chunk_crc
        } else {
            crc64_combine(acc, chunk_crc, n as u64)
        };
        left -= n;
    }
    !acc
}

/// [`crc64_update`] over a section payload, chunk CRCs on the pool when
/// the payload is large enough to pay for a region.
fn crc64_update_payload(crc: u64, payload: &[u8]) -> u64 {
    if payload.len() < POOL_MIN_BYTES {
        return crc64_update(crc, payload);
    }
    let chunks = payload.len().div_ceil(CHUNK_BYTES);
    let chunk_crcs = sg_par::par_map_indexed_grained(chunks, 1, "io.snapshot.crc", None, |ci| {
        let start = ci * CHUNK_BYTES;
        crc64(&payload[start..(start + CHUNK_BYTES).min(payload.len())])
    });
    fold_chunk_crcs(crc, chunk_crcs, payload.len())
}

/// True for the two types `Real` is implemented for.
fn is_float<T: Real>() -> bool {
    use std::any::TypeId;
    TypeId::of::<T>() == TypeId::of::<f32>() || TypeId::of::<T>() == TypeId::of::<f64>()
}

/// The in-memory bytes of a coefficient slice.
fn value_bytes<T: Real>(values: &[T]) -> &[u8] {
    assert!(is_float::<T>(), "SGC2 stores f32 or f64 coefficients");
    // SAFETY: `T` is `f32` or `f64` (checked above): no padding, and the
    // byte view covers exactly the slice's memory for its lifetime.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// [`value_bytes`] for writing into: any byte pattern is a valid float.
fn value_bytes_mut<T: Real>(values: &mut [T]) -> &mut [u8] {
    assert!(is_float::<T>(), "SGC2 stores f32 or f64 coefficients");
    let len = std::mem::size_of_val(values);
    // SAFETY: as in `value_bytes`; every bit pattern is a valid `f32` or
    // `f64`, so writes through the view cannot create an invalid value.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), len) }
}

/// Convert values stored as native-endian bytes to little-endian (or
/// back): a no-op on little-endian targets.
fn swap_to_le<T: Real>(bytes: &mut [u8]) {
    if cfg!(target_endian = "big") {
        for value in bytes.chunks_exact_mut(T::size_bytes()) {
            value.reverse();
        }
    }
}

/// The little-endian payload of `values`: the coefficient memory itself
/// on little-endian targets, a swapped copy elsewhere.
fn le_payload<T: Real>(values: &[T]) -> std::borrow::Cow<'_, [u8]> {
    let bytes = value_bytes(values);
    if cfg!(target_endian = "little") {
        return std::borrow::Cow::Borrowed(bytes);
    }
    let mut owned = bytes.to_vec();
    swap_to_le::<T>(&mut owned);
    std::borrow::Cow::Owned(owned)
}

/// Marker, group index and payload length: the bytes before a payload.
fn section_prefix(group: usize, payload_len: usize) -> [u8; SECTION_FIXED] {
    let mut prefix = [0u8; SECTION_FIXED];
    prefix[..4].copy_from_slice(&SECTION_MARKER);
    prefix[4..8].copy_from_slice(&(group as u32).to_le_bytes());
    prefix[8..].copy_from_slice(&(payload_len as u64).to_le_bytes());
    prefix
}

/// Stream one section into `sink` straight from the coefficient slice:
/// prefix, payload and CRC go out as three writes, with no staging copy
/// of the payload. Returns the bytes written.
pub(crate) fn write_section<T: Real>(
    sink: &mut dyn SnapshotSink,
    group: usize,
    values: &[T],
) -> std::io::Result<usize> {
    let payload = le_payload(values);
    let prefix = section_prefix(group, payload.len());
    let crc = !crc64_update_payload(crc64_update(!0, &prefix), &payload);
    sink.write(&prefix)?;
    sink.write(&payload)?;
    sink.write(&crc.to_le_bytes())?;
    Ok(SECTION_FIXED + payload.len() + SECTION_CRC)
}

/// Stream a section of `payload_len` zero bytes whose CRC is
/// complemented, so it always reads back as
/// [`SectionStatus::ChecksumMismatch`].
pub(crate) fn write_tombstone_section(
    sink: &mut dyn SnapshotSink,
    group: usize,
    payload_len: usize,
) -> std::io::Result<()> {
    static ZEROS: [u8; 4096] = [0; 4096];
    let prefix = section_prefix(group, payload_len);
    sink.write(&prefix)?;
    let mut crc = crc64_update(!0, &prefix);
    let mut left = payload_len;
    while left > 0 {
        let n = left.min(ZEROS.len());
        crc = crc64_update(crc, &ZEROS[..n]);
        sink.write(&ZEROS[..n])?;
        left -= n;
    }
    // `!crc` would be the true CRC; the tombstone stores its complement.
    sink.write(&crc.to_le_bytes())
}

/// Stream a sectioned snapshot of `grid` into `sink`: header, one section
/// per level group, footer (header copy) + trailer, then `flush` and
/// `commit`. Any sink error aborts cleanly — with [`FileSink`] the
/// destination file is untouched.
pub fn write_snapshot<T: Real>(
    grid: &CompactGrid<T>,
    sink: &mut dyn SnapshotSink,
    provenance: &str,
) -> Result<(), SgError> {
    tel! { let write_t0 = std::time::Instant::now(); }
    let mut prov = provenance;
    if prov.len() > MAX_PROVENANCE {
        // Trim on a char boundary so the stamp stays valid UTF-8.
        let mut cut = MAX_PROVENANCE;
        while !prov.is_char_boundary(cut) {
            cut -= 1;
        }
        prov = &prov[..cut];
    }
    let info = SnapshotInfo {
        version: SNAP_VERSION,
        value_type: type_tag::<T>(),
        dim: grid.spec().dim(),
        levels: grid.spec().levels(),
        num_points: grid.len() as u64,
        provenance: prov.to_string(),
    };
    let header = encode_header(&info);
    let mut total = header.len();
    sink.write(&header)?;
    for n in 0..grid.spec().levels() {
        let r = grid.indexer().group_range(n);
        let values = grid
            .values()
            .get(r.start as usize..r.end as usize)
            .ok_or_else(|| SgError::Corrupt("grid value array shorter than its spec".into()))?;
        total += write_section(sink, n, values)?;
        tel! { SNAP_SECTIONS_WRITTEN.add(1); }
    }
    let mut tail = header.clone();
    tail.extend_from_slice(&(header.len() as u64).to_le_bytes());
    tail.extend_from_slice(&TRAILER_MAGIC);
    total += tail.len();
    sink.write(&tail)?;
    sink.flush()?;
    sink.commit()?;
    tel! {
        SNAP_ENCODE_BYTES.add(total as u64);
        SNAP_WRITE_NS.record(write_t0.elapsed().as_nanos() as u64);
    }
    let _ = total;
    Ok(())
}

/// Encode a snapshot into a byte vector (a [`MemorySink`] convenience).
pub fn encode_snapshot<T: Real>(grid: &CompactGrid<T>, provenance: &str) -> Vec<u8> {
    let mut sink = MemorySink::new();
    write_snapshot(grid, &mut sink, provenance).expect("memory sink cannot fail");
    sink.into_published().expect("memory sink commits")
}

/// Write a snapshot atomically to `path` (temp file → flush → rename).
pub fn write_snapshot_file<T: Real>(
    grid: &CompactGrid<T>,
    path: impl AsRef<std::path::Path>,
    provenance: &str,
) -> Result<(), SgError> {
    let mut sink = FileSink::create(path)?;
    write_snapshot(grid, &mut sink, provenance)
}

// ---------------------------------------------------------------------------
// Reading / recovery
// ---------------------------------------------------------------------------

/// A snapshot's bytes, read by position: recovery fetches each section
/// where it lies, straight into its range of the value array.
/// Implemented for an in-memory `[u8]` and for a [`std::fs::File`]
/// (`pread`, no whole-file buffer).
pub trait SnapshotSource {
    /// Total length in bytes.
    fn byte_len(&self) -> std::io::Result<u64>;
    /// Fill `buf` with the bytes at `offset`; an `UnexpectedEof` error
    /// if the source ends first.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()>;
}

impl SnapshotSource for [u8] {
    fn byte_len(&self) -> std::io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        let bytes = usize::try_from(offset)
            .ok()
            .and_then(|start| self.get(start..start.checked_add(buf.len())?))
            .ok_or(std::io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(bytes);
        Ok(())
    }
}

impl SnapshotSource for std::fs::File {
    fn byte_len(&self) -> std::io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }

    #[cfg(windows)]
    fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
        while !buf.is_empty() {
            match std::os::windows::fs::FileExt::seek_read(self, buf, offset)? {
                0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                n => {
                    buf = &mut buf[n..];
                    offset += n as u64;
                }
            }
        }
        Ok(())
    }
}

/// Verification outcome of one section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionStatus {
    /// Marker, group index, length, and checksum all verified.
    Intact,
    /// The file ends before this section's expected extent.
    Truncated,
    /// Marker / group / length fields disagree with the spec.
    BadHeader,
    /// Structure fine but the CRC does not match.
    ChecksumMismatch,
}

/// Per-section verification record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionReport {
    /// Level group index (`|l|₁ = n`).
    pub group: usize,
    /// Verification outcome.
    pub status: SectionStatus,
    /// Coefficients the section carries.
    pub points: u64,
    /// Byte offset of the section in the snapshot.
    pub offset: usize,
}

/// A grid recovered from a damaged snapshot: intact level groups carry
/// their original (bitwise-identical) coefficients, lost groups are
/// zero-filled and enumerated in [`Self::lost_groups`].
///
/// Because hierarchical surpluses of lost (finer) groups simply drop out
/// of the interpolant, [`Self::evaluate`] answers from the recovered
/// groups only — a bounded-error degraded mode, since coarse groups carry
/// most of the interpolant mass. [`Self::repair_with`] reconstructs the
/// lost groups exactly by re-sampling and re-hierarchizing the original
/// function.
#[derive(Debug, Clone)]
pub struct DegradedGrid<T> {
    grid: CompactGrid<T>,
    lost: Vec<usize>,
}

impl<T: Real> DegradedGrid<T> {
    /// The level groups whose sections failed verification (empty ⇔ the
    /// recovery was complete).
    pub fn lost_groups(&self) -> &[usize] {
        &self.lost
    }

    /// True when every section verified and the coefficients are
    /// bitwise-identical to what was written.
    pub fn is_complete(&self) -> bool {
        self.lost.is_empty()
    }

    /// The underlying grid (lost groups zero-filled).
    pub fn grid(&self) -> &CompactGrid<T> {
        &self.grid
    }

    /// Evaluate the interpolant using only the recovered level groups
    /// (lost surpluses contribute zero).
    pub fn evaluate(&self, x: &[f64]) -> T {
        sg_core::evaluate::evaluate(&self.grid, x)
    }

    /// Reconstruct the lost level groups exactly: re-sample `f` on the
    /// full grid, re-hierarchize, and copy the recomputed surpluses into
    /// the lost ranges. Recovered groups keep their original bytes.
    /// Returns the now-complete grid.
    ///
    /// `f` must be the function the snapshot was built from (nodal
    /// sampling followed by hierarchization); hierarchization is
    /// deterministic, so the reconstructed surpluses are bitwise
    /// identical to the lost originals.
    pub fn repair_with(mut self, f: impl FnMut(&[f64]) -> T) -> CompactGrid<T> {
        if self.lost.is_empty() {
            return self.grid;
        }
        let spec = *self.grid.spec();
        let mut reference = CompactGrid::from_fn(spec, f);
        sg_core::hierarchize::hierarchize(&mut reference);
        for &n in &self.lost {
            let r = self.grid.indexer().group_range(n);
            let (s, e) = (r.start as usize, r.end as usize);
            self.grid.values_mut()[s..e].copy_from_slice(&reference.values()[s..e]);
        }
        self.lost.clear();
        self.grid
    }

    /// Consume into the underlying grid, failing with
    /// [`SgError::Degraded`] when level groups are still missing.
    pub fn into_complete(self) -> Result<CompactGrid<T>, SgError> {
        if self.lost.is_empty() {
            Ok(self.grid)
        } else {
            Err(SgError::Degraded {
                lost_groups: self.lost,
            })
        }
    }
}

/// Everything [`recover_snapshot`] learned about a snapshot.
#[derive(Debug, Clone)]
pub struct Recovery<T> {
    /// The salvaged grid (complete or degraded).
    pub grid: DegradedGrid<T>,
    /// Per-section verification records, in level-group order.
    pub sections: Vec<SectionReport>,
    /// True when the leading header was corrupt and the identity came
    /// from the footer copy.
    pub used_footer: bool,
    /// Snapshot identity and provenance.
    pub info: SnapshotInfo,
}

/// Up to `len` bytes of `src` from `offset` (fewer where it ends).
fn read_window(
    src: &(impl SnapshotSource + ?Sized),
    src_len: u64,
    offset: u64,
    len: usize,
) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; src_len.saturating_sub(offset).min(len as u64) as usize];
    src.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

/// The largest header block a snapshot can carry.
const MAX_HEADER: usize = HEADER_FIXED + MAX_PROVENANCE + 8;

/// Parse whichever of header/footer is intact, validate the spec, and
/// return `(info, header_len, spec, used_footer)`. Reads only the two
/// windows a header can occupy: the first and the last
/// [`MAX_HEADER`] (+ trailer) bytes.
fn snapshot_identity(
    src: &(impl SnapshotSource + ?Sized),
    src_len: u64,
) -> Result<(SnapshotInfo, usize, GridSpec, bool), SgError> {
    let head = read_window(src, src_len, 0, MAX_HEADER)?;
    let parsed = match parse_header_at(&head, 0) {
        Some((info, hlen)) => Some((info, hlen, false)),
        None => {
            let window = MAX_HEADER + TRAILER_LEN;
            let start = src_len.saturating_sub(window as u64);
            let tail = read_window(src, src_len, start, window)?;
            parse_footer(&tail).map(|(info, hlen)| (info, hlen, true))
        }
    };
    let Some((info, hlen, used_footer)) = parsed else {
        tel! { SNAP_RECOVER_FAILED.add(1); }
        return Err(SgError::Corrupt(
            "snapshot header and footer both unreadable".into(),
        ));
    };
    tel! {
        if used_footer {
            SNAP_HEADER_FALLBACKS.add(1);
        }
    }
    if info.version != SNAP_VERSION {
        return Err(SgError::Corrupt(format!(
            "unsupported snapshot format version {}",
            info.version
        )));
    }
    if info.value_type > 1 {
        return Err(SgError::Corrupt(format!(
            "unknown value type tag {}",
            info.value_type
        )));
    }
    if info.dim > 64 {
        return Err(SgError::Corrupt(format!(
            "implausible dimensionality {}",
            info.dim
        )));
    }
    let spec = GridSpec::try_new(info.dim, info.levels)
        .map_err(|e| SgError::Corrupt(format!("invalid grid shape in header: {e}")))?;
    let n = spec.try_num_points()?;
    if n != info.num_points {
        return Err(SgError::Corrupt(format!(
            "header count {} but grid shape implies {n}",
            info.num_points
        )));
    }
    Ok((info, hlen, spec, used_footer))
}

/// Verify the section of level group (or component) `group` at `offset`
/// of `src` and decode its payload straight into `out`, whose length
/// fixes the expected payload. The checks run in the order truncation,
/// prefix, checksum; a section that fails any of them leaves `out` all
/// zero. Only a read error other than a short read is an `Err`.
pub(crate) fn read_section<T: Real>(
    src: &(impl SnapshotSource + ?Sized),
    src_len: u64,
    offset: u64,
    group: usize,
    out: &mut [T],
) -> std::io::Result<SectionStatus> {
    let payload_len = std::mem::size_of_val(out);
    let section_len = (SECTION_FIXED + payload_len + SECTION_CRC) as u64;
    if offset
        .checked_add(section_len)
        .is_none_or(|end| end > src_len)
    {
        return Ok(SectionStatus::Truncated);
    }
    let mut prefix = [0u8; SECTION_FIXED];
    let mut stored = [0u8; SECTION_CRC];
    let payload_at = offset + SECTION_FIXED as u64;
    let payload = value_bytes_mut(out);
    let read = src.read_exact_at(&mut prefix, offset).and_then(|()| {
        if prefix != section_prefix(group, payload_len) {
            return Ok(None);
        }
        src.read_exact_at(payload, payload_at)?;
        src.read_exact_at(&mut stored, payload_at + payload_len as u64)?;
        let crc = crc64_update_payload(crc64_update(!0, &prefix), payload);
        Ok(Some(!crc))
    });
    let status = match read {
        Ok(None) => SectionStatus::BadHeader,
        Ok(Some(crc)) if crc == u64::from_le_bytes(stored) => SectionStatus::Intact,
        Ok(Some(_)) => SectionStatus::ChecksumMismatch,
        // The source shrank under us since its length was taken.
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => SectionStatus::Truncated,
        Err(e) => return Err(e),
    };
    if status == SectionStatus::Intact {
        swap_to_le::<T>(payload);
    } else {
        payload.fill(0);
    }
    Ok(status)
}

/// Verify and decode every section of the snapshot `src` (identity
/// already parsed) into a fresh grid.
fn recover_sections<T: Real>(
    src: &(impl SnapshotSource + ?Sized),
    src_len: u64,
    info: SnapshotInfo,
    hlen: usize,
    spec: GridSpec,
    used_footer: bool,
) -> Result<Recovery<T>, SgError> {
    if info.value_type != type_tag::<T>() {
        return Err(SgError::Corrupt(format!(
            "value type tag {} does not match the requested scalar type (tag {})",
            info.value_type,
            type_tag::<T>()
        )));
    }
    let mut grid = CompactGrid::<T>::try_new(spec)?;
    let mut sections = Vec::with_capacity(spec.levels());
    let mut lost = Vec::new();
    let mut offset = hlen as u64;
    for n in 0..spec.levels() {
        tel! { let verify_t0 = std::time::Instant::now(); }
        let r = grid.indexer().group_range(n);
        let out = &mut grid.values_mut()[r.start as usize..r.end as usize];
        let section_len = SECTION_FIXED + std::mem::size_of_val(out) + SECTION_CRC;
        let status = read_section(src, src_len, offset, n, out)?;
        if status == SectionStatus::Intact {
            tel! { SNAP_SECTIONS_VERIFIED.add(1); }
        } else {
            lost.push(n);
            tel! { SNAP_SECTIONS_CORRUPT.add(1); }
        }
        sections.push(SectionReport {
            group: n,
            status,
            points: r.end - r.start,
            offset: offset as usize,
        });
        offset += section_len as u64;
        tel! { SECTION_VERIFY_NS.record(verify_t0.elapsed().as_nanos() as u64); }
    }
    Ok(Recovery {
        grid: DegradedGrid { grid, lost },
        sections,
        used_footer,
        info,
    })
}

/// Recover everything salvageable from a snapshot source — the one load
/// path behind every reader in this module.
///
/// Section offsets are recomputed from the spec (not from the possibly
/// damaged section headers), so one corrupt section never hides the
/// next. Each section is verified and decoded in one pass straight into
/// its range of the value array, which therefore holds bitwise-identical
/// coefficients for every intact section; lost groups are zero-filled
/// and enumerated.
pub fn recover_snapshot_from<T: Real>(
    src: &(impl SnapshotSource + ?Sized),
) -> Result<Recovery<T>, SgError> {
    let src_len = src.byte_len()?;
    let (info, hlen, spec, used_footer) = snapshot_identity(src, src_len)?;
    let recovery = recover_sections(src, src_len, info, hlen, spec, used_footer)?;
    tel! {
        if recovery.grid.is_complete() {
            SNAP_RECOVER_FULL.add(1);
        } else {
            SNAP_RECOVER_DEGRADED.add(1);
        }
    }
    Ok(recovery)
}

/// [`recover_snapshot_from`] an in-memory snapshot.
pub fn recover_snapshot<T: Real>(bytes: &[u8]) -> Result<Recovery<T>, SgError> {
    recover_snapshot_from(bytes)
}

/// Strict read: every section must verify. A damaged snapshot yields
/// [`SgError::Degraded`] (salvage available through [`recover_snapshot`])
/// or [`SgError::Corrupt`].
pub fn read_snapshot<T: Real>(bytes: &[u8]) -> Result<CompactGrid<T>, SgError> {
    recover_snapshot::<T>(bytes)?.grid.into_complete()
}

/// Read a snapshot file strictly (see [`read_snapshot`]), positionally:
/// sections go from the file straight into the grid.
pub fn read_snapshot_file<T: Real>(
    path: impl AsRef<std::path::Path>,
) -> Result<CompactGrid<T>, SgError> {
    let file = std::fs::File::open(path)?;
    recover_snapshot_from::<T>(&file)?.grid.into_complete()
}

/// Verify a snapshot of either value type: identity plus a per-section
/// status table. The sections are decoded to check them, then dropped.
pub fn verify_snapshot(
    src: &(impl SnapshotSource + ?Sized),
) -> Result<(SnapshotInfo, Vec<SectionReport>, bool), SgError> {
    let src_len = src.byte_len()?;
    let (info, hlen, spec, used_footer) = snapshot_identity(src, src_len)?;
    let sections = match info.value_type {
        0 => recover_sections::<f32>(src, src_len, info.clone(), hlen, spec, used_footer)?.sections,
        _ => recover_sections::<f64>(src, src_len, info.clone(), hlen, spec, used_footer)?.sections,
    };
    Ok((info, sections, used_footer))
}

/// Byte offsets of every boundary in an (intact-header) snapshot: start
/// of section 0, start of each subsequent section, end of the last
/// section, and the total length. Used by the fault-injection harness to
/// tear writes at exact section boundaries.
pub fn section_boundaries(bytes: &[u8]) -> Result<Vec<usize>, SgError> {
    let (info, hlen, spec, _) = snapshot_identity(bytes, bytes.len() as u64)?;
    let indexer = sg_core::bijection::GridIndexer::try_new(spec)?;
    let width = if info.value_type == 0 { 4 } else { 8 };
    let mut offsets = vec![hlen];
    let mut offset = hlen;
    for n in 0..spec.levels() {
        let r = indexer.group_range(n);
        offset += SECTION_FIXED + (r.end - r.start) as usize * width + SECTION_CRC;
        offsets.push(offset);
    }
    offsets.push(bytes.len());
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::functions::TestFunction;

    fn sample_grid() -> CompactGrid<f64> {
        let mut g = CompactGrid::from_fn(GridSpec::new(3, 4), |x| TestFunction::Gaussian.eval(x));
        sg_core::hierarchize::hierarchize(&mut g);
        g
    }

    #[test]
    fn crc64_reference_vector() {
        // CRC-64/XZ check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// The byte-at-a-time definition of CRC-64/XZ.
    fn crc64_reference(data: &[u8]) -> u64 {
        !crc64_bytewise(!0, data)
    }

    #[test]
    fn crc64_matches_bytewise_at_every_length_and_alignment() {
        let mut rng = sg_prop::Rng::new(0xC2C6_4000);
        let buf: Vec<u8> = (0..16 + 64).map(|_| rng.next_u64() as u8).collect();
        for start in 0..16 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc64(data),
                    crc64_reference(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc64_matches_bytewise_on_random_buffers() {
        sg_prop::run_cases("crc64_matches_bytewise", 64, |rng| {
            let len = rng.usize_in(0..=4096);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc64(&data), crc64_reference(&data), "len {len}");
        });
    }

    #[test]
    fn crc64_combine_matches_crc64_of_the_concatenation() {
        sg_prop::run_cases("crc64_combine", 64, |rng| {
            let len = rng.usize_in(0..=4096);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let cut = rng.usize_in(0..=len);
            let (a, b) = data.split_at(cut);
            assert_eq!(
                crc64_combine(crc64(a), crc64(b), b.len() as u64),
                crc64(&data),
                "len {len}, cut {cut}"
            );
        });
    }

    /// Random little-endian payload bytes of `n` values of type `T`.
    fn payload_of<T: Real>(rng: &mut sg_prop::Rng, n: usize) -> Vec<u8> {
        let values: Vec<T> = (0..n).map(|_| T::from_f64(rng.f64_in(-1.0, 1.0))).collect();
        le_payload(&values).into_owned()
    }

    /// The chunked fold at every chunk seam: empty, one value, one value
    /// short of a chunk, one chunk, one value past it, and several chunks
    /// plus a tail, each continued from a non-trivial register.
    fn chunk_fold_matches_crc64<T: Real>() {
        let mut rng = sg_prop::Rng::new(0xC4C4_F01D);
        let w = T::size_bytes();
        let per_chunk = CHUNK_BYTES / w;
        for n in [
            0,
            1,
            per_chunk - 1,
            per_chunk,
            per_chunk + 1,
            3 * per_chunk + 5,
        ] {
            let payload = payload_of::<T>(&mut rng, n);
            let start = crc64_update(!0, &section_prefix(7, payload.len()));
            let chunk_crcs = payload.chunks(CHUNK_BYTES).map(crc64);
            assert_eq!(
                fold_chunk_crcs(start, chunk_crcs, payload.len()),
                crc64_update(start, &payload),
                "{n} values of {w} bytes"
            );
        }
    }

    #[test]
    fn chunk_fold_matches_crc64_at_every_seam_for_f32_and_f64() {
        chunk_fold_matches_crc64::<f32>();
        chunk_fold_matches_crc64::<f64>();
    }

    /// Sections around the pool threshold and the chunk seams above it
    /// round-trip bitwise, and a flipped byte in the last chunk is caught
    /// and leaves the range zeroed.
    fn pooled_sections_roundtrip<T: Real>() {
        let mut rng = sg_prop::Rng::new(0x5EC7_1045);
        let w = T::size_bytes();
        let (pool, chunk) = (POOL_MIN_BYTES / w, CHUNK_BYTES / w);
        for n in [
            pool - 1,
            pool,
            pool + 1,
            pool + chunk - 1,
            3 * chunk + 2 * pool + 3,
        ] {
            let values: Vec<T> = (0..n).map(|_| T::from_f64(rng.f64_in(-1.0, 1.0))).collect();
            let mut sink = MemorySink::new();
            let len = write_section(&mut sink, 3, &values).unwrap();
            let mut bytes = sink.bytes().to_vec();
            assert_eq!(bytes.len(), len);
            let stored = u64::from_le_bytes(bytes[len - 8..].try_into().unwrap());
            assert_eq!(stored, crc64(&bytes[..len - 8]), "{n} values of {w} bytes");
            let mut back = vec![T::ZERO; n];
            let status = read_section(&bytes[..], len as u64, 0, 3, &mut back).unwrap();
            assert_eq!(status, SectionStatus::Intact);
            assert_eq!(le_payload(&back), le_payload(&values));
            bytes[len - 9] ^= 0x20;
            let status = read_section(&bytes[..], len as u64, 0, 3, &mut back).unwrap();
            assert_eq!(status, SectionStatus::ChecksumMismatch);
            assert!(value_bytes(&back).iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn pooled_sections_roundtrip_at_chunk_seams_for_f32_and_f64() {
        pooled_sections_roundtrip::<f32>();
        pooled_sections_roundtrip::<f64>();
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "unit-test");
        let back: CompactGrid<f64> = read_snapshot(&bytes).unwrap();
        assert_eq!(back.spec(), g.spec());
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn roundtrip_f32() {
        let g: CompactGrid<f32> =
            CompactGrid::from_fn(GridSpec::new(2, 5), |x| (x[0] - x[1]) as f32);
        let bytes = encode_snapshot(&g, "");
        let back: CompactGrid<f32> = read_snapshot(&bytes).unwrap();
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn provenance_survives() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "origin: unit test α");
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.info.provenance, "origin: unit test α");
        assert!(!r.used_footer);
    }

    #[test]
    fn oversized_provenance_is_trimmed_on_a_char_boundary() {
        let g = sample_grid();
        let stamp = "é".repeat(MAX_PROVENANCE); // 2 bytes per char
        let bytes = encode_snapshot(&g, &stamp);
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert!(r.info.provenance.len() <= MAX_PROVENANCE);
        assert!(r.info.provenance.chars().all(|c| c == 'é'));
    }

    #[test]
    fn corrupt_header_falls_back_to_footer() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "prov");
        bytes[5] ^= 0xFF; // smash the leading header
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert!(r.used_footer);
        assert!(r.grid.is_complete());
        assert_eq!(r.grid.grid().values(), g.values());
    }

    #[test]
    fn corrupt_section_is_enumerated_and_rest_salvaged() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        let bounds = section_boundaries(&bytes).unwrap();
        // Flip a payload bit inside section 2.
        let mid = bounds[2] + SECTION_FIXED + 3;
        bytes[mid] ^= 0x10;
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.grid.lost_groups(), &[2]);
        assert_eq!(r.sections[2].status, SectionStatus::ChecksumMismatch);
        // Every other group is bitwise intact.
        for n in [0usize, 1, 3] {
            let range = g.indexer().group_range(n);
            let (s, e) = (range.start as usize, range.end as usize);
            assert_eq!(&r.grid.grid().values()[s..e], &g.values()[s..e]);
        }
        // Strict read reports the same groups in a typed error.
        assert_eq!(
            read_snapshot::<f64>(&bytes).err(),
            Some(SgError::Degraded {
                lost_groups: vec![2]
            })
        );
    }

    #[test]
    fn repair_reconstructs_lost_groups_bitwise() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        let bounds = section_boundaries(&bytes).unwrap();
        bytes[bounds[3] + SECTION_FIXED + 1] ^= 0x04;
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.grid.lost_groups(), &[3]);
        let repaired = r.grid.repair_with(|x| TestFunction::Gaussian.eval(x));
        assert_eq!(repaired.values(), g.values());
    }

    #[test]
    fn degraded_evaluation_stays_bounded() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        let bounds = section_boundaries(&bytes).unwrap();
        // Lose the finest group — the smallest surpluses.
        let finest = g.spec().levels() - 1;
        bytes[bounds[finest] + SECTION_FIXED + 1] ^= 0x01;
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.grid.lost_groups(), &[finest]);
        let range = g.indexer().group_range(finest);
        let lost_mass: f64 = g.values()[range.start as usize..range.end as usize]
            .iter()
            .map(|v| v.abs())
            .sum();
        for x in sg_core::functions::halton_points(3, 20).chunks_exact(3) {
            let full = sg_core::evaluate::evaluate(&g, x);
            let degraded = r.grid.evaluate(x);
            assert!(
                (full - degraded).abs() <= lost_mass + 1e-12,
                "degraded answer leaves the lost-mass bound at {x:?}"
            );
        }
    }

    #[test]
    fn truncation_at_every_section_boundary_recovers_the_prefix() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "p");
        let bounds = section_boundaries(&bytes).unwrap();
        let levels = g.spec().levels();
        for (k, &cut) in bounds.iter().enumerate().take(levels + 1) {
            let torn = &bytes[..cut];
            let r = recover_snapshot::<f64>(torn).unwrap();
            // Cutting at the start of section k keeps groups 0..k intact.
            let expect_lost: Vec<usize> = (k..levels).collect();
            assert_eq!(r.grid.lost_groups(), &expect_lost[..], "cut at {cut}");
            for n in 0..k {
                let range = g.indexer().group_range(n);
                let (s, e) = (range.start as usize, range.end as usize);
                assert_eq!(&r.grid.grid().values()[s..e], &g.values()[s..e]);
            }
        }
    }

    #[test]
    fn enospc_during_write_fails_cleanly_and_never_publishes() {
        let g = sample_grid();
        let full_len = encode_snapshot(&g, "x").len();
        for after in [0usize, 10, 40, full_len / 2, full_len - 1] {
            let mut sink = FaultSink::new(WriteFault::Enospc { after_bytes: after });
            let r = write_snapshot(&g, &mut sink, "x");
            assert!(matches!(r, Err(SgError::Io(_))), "after={after}: {r:?}");
            assert!(!sink.committed(), "ENOSPC must not publish");
            assert!(sink.into_published().is_none());
        }
    }

    #[test]
    fn both_headers_gone_is_a_clean_error() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        bytes[1] ^= 0xFF;
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF; // trailer magic
        assert!(matches!(
            recover_snapshot::<f64>(&bytes),
            Err(SgError::Corrupt(_))
        ));
        // Tiny or empty buffers too.
        for len in 0..TRAILER_LEN {
            assert!(recover_snapshot::<f64>(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn value_type_mismatch_is_typed() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "");
        assert!(matches!(
            recover_snapshot::<f32>(&bytes),
            Err(SgError::Corrupt(ref m)) if m.contains("value type")
        ));
    }

    #[test]
    fn file_sink_is_atomic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sg-snapshot-atomic-{}.sgcs", std::process::id()));
        let g = sample_grid();
        // A failed write must leave the previous file intact.
        std::fs::write(&path, b"previous content").unwrap();
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.write(b"partial").unwrap();
            // Dropped without commit.
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"previous content");
        // A committed write replaces it.
        write_snapshot_file(&g, &path, "atomic-test").unwrap();
        let back: CompactGrid<f64> = read_snapshot_file(&path).unwrap();
        assert_eq!(back.values(), g.values());
        // No temp files left behind (any `<path>.tmp.<pid>.<seq>`).
        let prefix = format!("{}.tmp.", path.file_name().unwrap().to_str().unwrap());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Regression test for the temp-path collision: two threads
    /// checkpointing the *same* destination concurrently must use
    /// distinct temp files (with the shared `.tmp.<pid>` suffix they
    /// interleaved writes into one), and whichever rename lands last
    /// must leave an intact snapshot equal to one of the two grids.
    #[test]
    fn concurrent_checkpoints_to_one_path_commit_intact() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "sg-snapshot-concurrent-{}.sgcs",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let g1 = sample_grid();
        let mut g2 = sample_grid();
        for v in g2.values_mut() {
            *v *= 2.0;
        }
        // Distinct sinks for one path must get distinct temp files.
        let a = FileSink::create(&path).unwrap();
        let b = FileSink::create(&path).unwrap();
        assert_ne!(a.tmp_path(), b.tmp_path(), "temp paths collide");
        drop((a, b));
        for _ in 0..20 {
            std::thread::scope(|s| {
                let (p, r1, r2) = (&path, &g1, &g2);
                let h1 = s.spawn(move || write_snapshot_file(r1, p, "writer-1"));
                let h2 = s.spawn(move || write_snapshot_file(r2, p, "writer-2"));
                h1.join().unwrap().unwrap();
                h2.join().unwrap().unwrap();
            });
            // Whoever won, the published snapshot must verify and decode
            // bitwise to one of the writers' grids.
            let back: CompactGrid<f64> = read_snapshot_file(&path).unwrap();
            assert!(
                back.values() == g1.values() || back.values() == g2.values(),
                "published snapshot matches neither writer"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// The lost-dirent fault class: the writer sees a successful commit,
    /// yet the published bytes vanish. Recovery is falling back to the
    /// previous snapshot, which must still be fully intact.
    #[test]
    fn lost_dirent_commits_but_publishes_nothing() {
        let g_old = sample_grid();
        let mut g_new = sample_grid();
        for v in g_new.values_mut() {
            *v += 1.0;
        }
        // The previous checkpoint, durably published.
        let mut prev = MemorySink::new();
        write_snapshot(&g_old, &mut prev, "previous").unwrap();
        let prev_bytes = prev.into_published().unwrap();
        // The new checkpoint hits the lost-dirent fault.
        let mut sink = FaultSink::new(WriteFault::LostDirent);
        write_snapshot(&g_new, &mut sink, "next").unwrap();
        assert!(sink.committed(), "the writer must believe commit worked");
        assert!(
            sink.into_published().is_none(),
            "a lost dirent publishes nothing"
        );
        // The reader falls back to the previous snapshot: full recovery.
        let r = recover_snapshot::<f64>(&prev_bytes).unwrap();
        assert!(r.grid.lost_groups().is_empty());
        assert_eq!(r.grid.grid().values(), g_old.values());
    }

    #[test]
    fn torn_sink_publishes_a_recoverable_prefix() {
        let g = sample_grid();
        let full = encode_snapshot(&g, "t");
        let bounds = section_boundaries(&full).unwrap();
        // Tear exactly at the third section boundary: groups 0..2 survive.
        let mut sink = FaultSink::new(WriteFault::Torn {
            after_bytes: bounds[2],
        });
        write_snapshot(&g, &mut sink, "t").unwrap();
        let published = sink.into_published().expect("torn write still commits");
        assert_eq!(published.len(), bounds[2]);
        let r = recover_snapshot::<f64>(&published).unwrap();
        assert_eq!(r.grid.lost_groups(), &[2, 3]);
    }

    #[test]
    fn verify_reports_without_materializing() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "verify");
        let (info, sections, used_footer) = verify_snapshot(&bytes[..]).unwrap();
        assert_eq!(info.dim, 3);
        assert!(!used_footer);
        assert!(sections.iter().all(|s| s.status == SectionStatus::Intact));
        let bounds = section_boundaries(&bytes).unwrap();
        bytes[bounds[1] + 5] ^= 0x80;
        let (_, sections, _) = verify_snapshot(&bytes[..]).unwrap();
        assert_eq!(sections[1].status, SectionStatus::BadHeader);
        assert_eq!(
            sections
                .iter()
                .filter(|s| s.status == SectionStatus::Intact)
                .count(),
            3
        );
    }
}
