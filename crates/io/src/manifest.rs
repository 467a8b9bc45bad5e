//! `SGCM` — sectioned manifests for combination-technique component sets.
//!
//! The combination technique's fault-tolerance story ([Issue 9], DESIGN
//! §17) treats a lost or corrupt *component grid* exactly like `SGC2`
//! treats a lost snapshot section: every component's nodal values live in
//! an independently checksummed section, and the component *metadata*
//! (coefficient, level vector, max-abs nodal value) lives redundantly in a
//! CRC-stamped header and footer. A damaged manifest therefore still
//! tells the executor precisely *which* components it lost and what error
//! re-weighting around them can incur — metadata survives as long as
//! either header copy does, even when every payload section is gone.
//!
//! ```text
//! offset                      field
//! 0                           header block (see below)
//! H                           section 0   (component 0 nodal values)
//! H + S₀                      section 1   (component 1)
//! …
//! H + Σ Sₖ                    footer  = byte-for-byte copy of the header
//! end − 12                    footer length (LE u64)
//! end − 4                     trailer magic "MCGS"
//!
//! header block (little-endian):
//!   +0   4   magic  "SGCM"
//!   +4   4   format version (currently 1)
//!   +8   1   value type tag: 0 = f32, 1 = f64
//!   +9   3   reserved (zero)
//!   +12  4   dimensionality d
//!   +16  4   component count C   (= section count)
//!   +20  4   provenance length P (bytes, ≤ 4096)
//!   +24  P   provenance stamp (UTF-8, free-form)
//!   then C metadata entries of 16 + d bytes each:
//!     +0   8   combination coefficient (LE i64)
//!     +8   8   max-abs nodal value (LE f64) — the re-weighting bound's
//!              per-component budget
//!     +16  d   zero-based level vector (one byte per dimension)
//!   end  8   CRC-64/XZ of everything above
//! ```
//!
//! Sections reuse the `SGC2` section framing verbatim (`"SGSC"` marker,
//! group = component index, payload length, raw little-endian values,
//! CRC-64); every section's length is computable from the header's level
//! vectors alone, so a corrupt section never hides the next one. A
//! component that was *dropped before commit* is written as a tombstone:
//! a full-length zero payload whose CRC is deliberately complemented, so
//! verification reports it as lost rather than as a silent zero grid.

use crate::snapshot::{
    crc64, read_section, write_section, write_tombstone_section, SectionReport, SectionStatus,
    SnapshotSink, MAX_PROVENANCE, SECTION_CRC, SECTION_FIXED, TRAILER_LEN,
};
use crate::type_tag;
use sg_core::error::SgError;
use sg_core::level::Level;
use sg_core::real::Real;

tel! {
    static MAN_COMPONENTS_WRITTEN: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.components_written");
    static MAN_TOMBSTONES_WRITTEN: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.tombstones_written");
    static MAN_COMPONENTS_VERIFIED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.components_verified");
    static MAN_COMPONENTS_CORRUPT: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.components_corrupt");
    static MAN_FOOTER_FALLBACKS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.footer_fallbacks");
}

/// Component-set manifest magic.
pub const MANIFEST_MAGIC: [u8; 4] = *b"SGCM";
/// Trailer magic locating the manifest footer from the end of the file.
pub const MANIFEST_TRAILER_MAGIC: [u8; 4] = *b"MCGS";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// Fixed header bytes before the provenance stamp.
const MANIFEST_FIXED: usize = 24;
/// Per-component metadata entry bytes before the level vector.
const META_FIXED: usize = 16;
/// Upper bound on the component count a header may claim, so a corrupt
/// count field cannot drive a huge allocation.
const MAX_COMPONENTS: usize = 1 << 20;

/// Metadata of one component grid, persisted redundantly in the manifest
/// header and footer (it must survive payload loss — the re-weighting
/// policy needs the coefficient and error budget of exactly the
/// components it can no longer read).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentMeta {
    /// Inclusion–exclusion combination coefficient.
    pub coefficient: i64,
    /// Zero-based anisotropic level vector (one entry per dimension).
    pub levels: Vec<Level>,
    /// Largest absolute nodal value of the component — since the
    /// component interpolant is a convex-ish combination of nodal values
    /// (multilinear, zero boundary), `|u_l(x)| ≤ max_abs` everywhere, so
    /// this is the component's contribution cap in the re-weighting
    /// error bound.
    pub max_abs: f64,
}

impl ComponentMeta {
    /// Number of nodal values the component's section carries, derived
    /// from the level vector; `None` on overflow or an implausible
    /// per-dimension level.
    pub fn num_values(&self) -> Option<u64> {
        self.levels.iter().try_fold(1u64, |acc, &l| {
            if l > 31 {
                return None;
            }
            acc.checked_mul((1u64 << (l + 1)) - 1)
        })
    }
}

/// Parsed identity of a component-set manifest (header or footer copy).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSetInfo {
    /// Format version.
    pub version: u32,
    /// Value-type tag (0 = `f32`, 1 = `f64`).
    pub value_type: u8,
    /// Dimensionality shared by every component.
    pub dim: usize,
    /// Free-form provenance stamp recorded at write time.
    pub provenance: String,
    /// Per-component metadata, in section order.
    pub components: Vec<ComponentMeta>,
}

/// Everything [`recover_component_set`] learned about a manifest.
#[derive(Debug, Clone)]
pub struct ComponentSetRecovery<T> {
    /// Manifest identity and the full metadata table.
    pub info: ComponentSetInfo,
    /// Per-component nodal values: `Some` with bitwise-identical values
    /// for every intact section, `None` for lost components.
    pub payloads: Vec<Option<Vec<T>>>,
    /// Per-section verification records, in component order.
    pub sections: Vec<SectionReport>,
    /// True when the leading header was corrupt and the identity came
    /// from the footer copy.
    pub used_footer: bool,
}

impl<T> ComponentSetRecovery<T> {
    /// Indices of components whose sections failed verification.
    pub fn lost_components(&self) -> Vec<usize> {
        self.payloads
            .iter()
            .enumerate()
            .filter_map(|(k, p)| p.is_none().then_some(k))
            .collect()
    }

    /// True when every component verified bitwise.
    pub fn is_complete(&self) -> bool {
        self.payloads.iter().all(|p| p.is_some())
    }
}

fn manifest_header_len(prov_len: usize, dim: usize, components: usize) -> usize {
    MANIFEST_FIXED + prov_len + components * (META_FIXED + dim) + 8
}

fn encode_manifest_header(info: &ComponentSetInfo) -> Vec<u8> {
    let prov = info.provenance.as_bytes();
    debug_assert!(prov.len() <= MAX_PROVENANCE);
    let mut buf = Vec::with_capacity(manifest_header_len(
        prov.len(),
        info.dim,
        info.components.len(),
    ));
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&info.version.to_le_bytes());
    buf.push(info.value_type);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&(info.dim as u32).to_le_bytes());
    buf.extend_from_slice(&(info.components.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(prov.len() as u32).to_le_bytes());
    buf.extend_from_slice(prov);
    for meta in &info.components {
        debug_assert_eq!(meta.levels.len(), info.dim);
        buf.extend_from_slice(&meta.coefficient.to_le_bytes());
        buf.extend_from_slice(&meta.max_abs.to_le_bytes());
        buf.extend_from_slice(&meta.levels);
    }
    let crc = crc64(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Parse and CRC-verify a manifest header block at `offset`. Returns the
/// info and the header's total byte length; `None` on any structural or
/// checksum failure (the caller falls back to the footer, or gives up).
fn parse_manifest_header_at(bytes: &[u8], offset: usize) -> Option<(ComponentSetInfo, usize)> {
    let b = bytes.get(offset..)?;
    if b.len() < MANIFEST_FIXED + 8 || b[..4] != MANIFEST_MAGIC {
        return None;
    }
    let u32_at = |p: usize| u32::from_le_bytes(b[p..p + 4].try_into().unwrap());
    let version = u32_at(4);
    let value_type = b[8];
    let dim = u32_at(12) as usize;
    let count = u32_at(16) as usize;
    let prov_len = u32_at(20) as usize;
    if prov_len > MAX_PROVENANCE || dim == 0 || dim > 64 || count > MAX_COMPONENTS {
        return None;
    }
    let total = manifest_header_len(prov_len, dim, count);
    if b.len() < total {
        return None;
    }
    let stored = u64::from_le_bytes(b[total - 8..total].try_into().unwrap());
    if crc64(&b[..total - 8]) != stored {
        return None;
    }
    let provenance =
        String::from_utf8(b[MANIFEST_FIXED..MANIFEST_FIXED + prov_len].to_vec()).ok()?;
    let mut components = Vec::with_capacity(count);
    let mut at = MANIFEST_FIXED + prov_len;
    for _ in 0..count {
        let coefficient = i64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let max_abs = f64::from_le_bytes(b[at + 8..at + 16].try_into().unwrap());
        let levels: Vec<Level> = b[at + META_FIXED..at + META_FIXED + dim].to_vec();
        components.push(ComponentMeta {
            coefficient,
            levels,
            max_abs,
        });
        at += META_FIXED + dim;
    }
    Some((
        ComponentSetInfo {
            version,
            value_type,
            dim,
            provenance,
            components,
        },
        total,
    ))
}

/// Try the footer: locate it through the fixed-size trailer at the end of
/// the buffer and parse the header copy it holds.
fn parse_manifest_footer(bytes: &[u8]) -> Option<(ComponentSetInfo, usize)> {
    if bytes.len() < TRAILER_LEN {
        return None;
    }
    let tail = &bytes[bytes.len() - TRAILER_LEN..];
    if tail[8..12] != MANIFEST_TRAILER_MAGIC {
        return None;
    }
    let flen = u64::from_le_bytes(tail[..8].try_into().unwrap()) as usize;
    let start = bytes.len().checked_sub(TRAILER_LEN + flen)?;
    let (info, parsed_len) = parse_manifest_header_at(bytes, start)?;
    (parsed_len == flen).then_some((info, parsed_len))
}

/// Parse whichever of header/footer is intact and validate the metadata
/// table; returns `(info, header_len, used_footer)`.
fn manifest_identity(bytes: &[u8]) -> Result<(ComponentSetInfo, usize, bool), SgError> {
    let (info, hlen, used_footer) = match parse_manifest_header_at(bytes, 0) {
        Some((info, hlen)) => (info, hlen, false),
        None => match parse_manifest_footer(bytes) {
            Some((info, hlen)) => {
                tel! { MAN_FOOTER_FALLBACKS.add(1); }
                (info, hlen, true)
            }
            None => {
                return Err(SgError::Corrupt(
                    "manifest header and footer both unreadable".into(),
                ))
            }
        },
    };
    if info.version != MANIFEST_VERSION {
        return Err(SgError::Corrupt(format!(
            "unsupported manifest format version {}",
            info.version
        )));
    }
    if info.value_type > 1 {
        return Err(SgError::Corrupt(format!(
            "unknown value type tag {}",
            info.value_type
        )));
    }
    for (k, meta) in info.components.iter().enumerate() {
        let n = meta
            .num_values()
            .filter(|&n| n < (1 << 32))
            .ok_or_else(|| {
                SgError::Corrupt(format!(
                    "component {k} level vector implies too many points"
                ))
            })?;
        let _ = n;
    }
    Ok((info, hlen, used_footer))
}

/// Stream a component-set manifest into `sink`: header, one section per
/// component (tombstoned when the values are gone), footer + trailer,
/// then `flush` and `commit`. Any sink error aborts cleanly.
pub fn write_component_set<T: Real>(
    dim: usize,
    components: &[(ComponentMeta, Option<&[T]>)],
    sink: &mut dyn SnapshotSink,
    provenance: &str,
) -> Result<(), SgError> {
    let mut prov = provenance;
    if prov.len() > MAX_PROVENANCE {
        let mut cut = MAX_PROVENANCE;
        while !prov.is_char_boundary(cut) {
            cut -= 1;
        }
        prov = &prov[..cut];
    }
    let info = ComponentSetInfo {
        version: MANIFEST_VERSION,
        value_type: type_tag::<T>(),
        dim,
        provenance: prov.to_string(),
        components: components.iter().map(|(m, _)| m.clone()).collect(),
    };
    for (k, (meta, values)) in components.iter().enumerate() {
        if meta.levels.len() != dim {
            return Err(SgError::Corrupt(format!(
                "component {k} level vector has {} entries for dimensionality {dim}",
                meta.levels.len()
            )));
        }
        let expect = meta.num_values().ok_or_else(|| {
            SgError::Corrupt(format!(
                "component {k} level vector implies too many points"
            ))
        })?;
        if let Some(v) = values {
            if v.len() as u64 != expect {
                return Err(SgError::Corrupt(format!(
                    "component {k} carries {} values but its levels imply {expect}",
                    v.len()
                )));
            }
        }
    }
    let header = encode_manifest_header(&info);
    sink.write(&header)?;
    for (k, (meta, values)) in components.iter().enumerate() {
        match values {
            Some(v) => {
                write_section(sink, k, v)?;
                tel! { MAN_COMPONENTS_WRITTEN.add(1); }
            }
            None => {
                // A dropped component keeps its full-length slot, so later
                // section offsets stay computable, but its deliberately
                // wrong CRC makes it read as lost, never as a zero grid.
                let payload_len = meta.num_values().unwrap() as usize * T::size_bytes();
                write_tombstone_section(sink, k, payload_len)?;
                tel! { MAN_TOMBSTONES_WRITTEN.add(1); }
            }
        }
    }
    let mut tail = header.clone();
    tail.extend_from_slice(&(header.len() as u64).to_le_bytes());
    tail.extend_from_slice(&MANIFEST_TRAILER_MAGIC);
    sink.write(&tail)?;
    sink.flush()?;
    sink.commit()?;
    Ok(())
}

/// Recover everything salvageable from a component-set manifest.
///
/// Section offsets are recomputed from the metadata table (not from the
/// possibly damaged section headers), so one corrupt section never hides
/// the next. Intact sections decode to bitwise-identical values; lost
/// components come back as `None` with their metadata still available
/// through [`ComponentSetRecovery::info`].
pub fn recover_component_set<T: Real>(bytes: &[u8]) -> Result<ComponentSetRecovery<T>, SgError> {
    let (info, hlen, used_footer) = manifest_identity(bytes)?;
    recover_components(bytes, info, hlen, used_footer)
}

/// Verify and decode every component section of `bytes` (identity
/// already parsed), one pass per section.
fn recover_components<T: Real>(
    bytes: &[u8],
    info: ComponentSetInfo,
    hlen: usize,
    used_footer: bool,
) -> Result<ComponentSetRecovery<T>, SgError> {
    if info.value_type != type_tag::<T>() {
        return Err(SgError::Corrupt(format!(
            "value type tag {} does not match the requested scalar type (tag {})",
            info.value_type,
            type_tag::<T>()
        )));
    }
    let mut payloads = Vec::with_capacity(info.components.len());
    let mut sections = Vec::with_capacity(info.components.len());
    let mut offset = hlen;
    for (k, meta) in info.components.iter().enumerate() {
        let points = meta.num_values().expect("validated by manifest_identity");
        let mut values = vec![T::ZERO; points as usize];
        let status = read_section(bytes, bytes.len() as u64, offset as u64, k, &mut values)?;
        if status == SectionStatus::Intact {
            payloads.push(Some(values));
            tel! { MAN_COMPONENTS_VERIFIED.add(1); }
        } else {
            payloads.push(None);
            tel! { MAN_COMPONENTS_CORRUPT.add(1); }
        }
        sections.push(SectionReport {
            group: k,
            status,
            points,
            offset,
        });
        offset += SECTION_FIXED + points as usize * T::size_bytes() + SECTION_CRC;
    }
    Ok(ComponentSetRecovery {
        info,
        payloads,
        sections,
        used_footer,
    })
}

/// Verify a manifest of either value type: identity plus a per-section
/// status table. The payloads are decoded to check them, then dropped.
pub fn verify_component_set(
    bytes: &[u8],
) -> Result<(ComponentSetInfo, Vec<SectionReport>, bool), SgError> {
    let (info, hlen, used_footer) = manifest_identity(bytes)?;
    let sections = match info.value_type {
        0 => recover_components::<f32>(bytes, info.clone(), hlen, used_footer)?.sections,
        _ => recover_components::<f64>(bytes, info.clone(), hlen, used_footer)?.sections,
    };
    Ok((info, sections, used_footer))
}

/// Byte offsets of every boundary in an (identifiable) manifest: start of
/// section 0, start of each subsequent section, end of the last section,
/// and the total length. Used by the fault-injection harness to tear
/// writes at exact component boundaries.
pub fn component_boundaries(bytes: &[u8]) -> Result<Vec<usize>, SgError> {
    let (info, hlen, _) = manifest_identity(bytes)?;
    let width = if info.value_type == 0 { 4 } else { 8 };
    let mut offsets = vec![hlen];
    let mut offset = hlen;
    for meta in &info.components {
        let points = meta.num_values().expect("validated by manifest_identity");
        offset += SECTION_FIXED + points as usize * width + SECTION_CRC;
        offsets.push(offset);
    }
    offsets.push(bytes.len());
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MemorySink;

    fn sample_set() -> (usize, Vec<(ComponentMeta, Vec<f64>)>) {
        let dim = 2;
        let mut out = Vec::new();
        for (coef, levels) in [(1i64, vec![2, 0]), (1, vec![1, 1]), (-1, vec![1, 0])] {
            let meta = ComponentMeta {
                coefficient: coef,
                levels: levels.clone(),
                max_abs: 0.0,
            };
            let n = meta.num_values().unwrap() as usize;
            let values: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) * coef as f64).collect();
            let meta = ComponentMeta {
                max_abs: values.iter().fold(0.0f64, |a, v| a.max(v.abs())),
                ..meta
            };
            out.push((meta, values));
        }
        (dim, out)
    }

    fn encode_set(dim: usize, set: &[(ComponentMeta, Vec<f64>)]) -> Vec<u8> {
        let borrowed: Vec<(ComponentMeta, Option<&[f64]>)> = set
            .iter()
            .map(|(m, v)| (m.clone(), Some(v.as_slice())))
            .collect();
        let mut sink = MemorySink::new();
        write_component_set(dim, &borrowed, &mut sink, "manifest-unit").unwrap();
        sink.into_published().unwrap()
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let (dim, set) = sample_set();
        let bytes = encode_set(dim, &set);
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert!(r.is_complete());
        assert!(!r.used_footer);
        assert_eq!(r.info.provenance, "manifest-unit");
        for (k, (meta, values)) in set.iter().enumerate() {
            assert_eq!(&r.info.components[k], meta);
            assert_eq!(r.payloads[k].as_deref(), Some(values.as_slice()));
        }
    }

    #[test]
    fn corrupt_header_falls_back_to_footer() {
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        bytes[6] ^= 0xFF;
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert!(r.used_footer);
        assert!(r.is_complete());
    }

    #[test]
    fn corrupt_section_loses_only_that_component() {
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        let bounds = component_boundaries(&bytes).unwrap();
        bytes[bounds[1] + SECTION_FIXED + 2] ^= 0x08;
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert_eq!(r.lost_components(), vec![1]);
        assert_eq!(r.sections[1].status, SectionStatus::ChecksumMismatch);
        assert_eq!(r.payloads[0].as_deref(), Some(set[0].1.as_slice()));
        assert_eq!(r.payloads[2].as_deref(), Some(set[2].1.as_slice()));
        // Metadata of the lost component still available for re-weighting.
        assert_eq!(r.info.components[1], set[1].0);
    }

    #[test]
    fn tombstone_reads_as_lost_not_as_zeros() {
        let (dim, set) = sample_set();
        let borrowed: Vec<(ComponentMeta, Option<&[f64]>)> = set
            .iter()
            .enumerate()
            .map(|(k, (m, v))| (m.clone(), (k != 1).then_some(v.as_slice())))
            .collect();
        let mut sink = MemorySink::new();
        write_component_set(dim, &borrowed, &mut sink, "").unwrap();
        let bytes = sink.into_published().unwrap();
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert_eq!(r.lost_components(), vec![1]);
        assert_eq!(r.sections[1].status, SectionStatus::ChecksumMismatch);
        // Later components keep their computed offsets and stay intact.
        assert_eq!(r.payloads[2].as_deref(), Some(set[2].1.as_slice()));
    }

    #[test]
    fn truncation_recovers_the_prefix() {
        let (dim, set) = sample_set();
        let bytes = encode_set(dim, &set);
        let bounds = component_boundaries(&bytes).unwrap();
        // Cut inside section 2: components 0 and 1 survive.
        let cut = bounds[2] + 5;
        let r = recover_component_set::<f64>(&bytes[..cut]).unwrap();
        assert_eq!(r.lost_components(), vec![2]);
        assert_eq!(r.sections[2].status, SectionStatus::Truncated);
    }

    #[test]
    fn garbage_is_a_clean_error() {
        assert!(recover_component_set::<f64>(b"not a manifest").is_err());
        assert!(recover_component_set::<f64>(&[]).is_err());
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        // Smash both header and footer.
        bytes[5] ^= 0xFF;
        let len = bytes.len();
        bytes[len - 2] ^= 0xFF;
        assert!(recover_component_set::<f64>(&bytes).is_err());
    }

    #[test]
    fn value_type_mismatch_is_rejected() {
        let (dim, set) = sample_set();
        let bytes = encode_set(dim, &set);
        assert!(recover_component_set::<f32>(&bytes).is_err());
    }

    #[test]
    fn verify_reports_without_decoding() {
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        let bounds = component_boundaries(&bytes).unwrap();
        bytes[bounds[0] + SECTION_FIXED] ^= 0x01;
        let (info, sections, used_footer) = verify_component_set(&bytes).unwrap();
        assert_eq!(info.components.len(), 3);
        assert!(!used_footer);
        assert_eq!(sections[0].status, SectionStatus::ChecksumMismatch);
        assert_eq!(sections[1].status, SectionStatus::Intact);
    }
}
