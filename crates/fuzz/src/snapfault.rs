//! Fault injection against the `SGC2` sectioned snapshot format.
//!
//! Each case builds a small grid from a seeded function, snapshots it,
//! injects one fault (at the sink for write-path faults, on the
//! published bytes for storage faults), and asserts the **detect-or-
//! recover contract**: every fault must end in exactly one of
//!
//! 1. *full recovery* — the decoded grid is bitwise identical to the
//!    original,
//! 2. *partial recovery* — the lost level groups are enumerated, every
//!    section reported intact is bitwise identical to the original, and
//!    [`sg_io::DegradedGrid::repair_with`] reconstructs the lost groups
//!    exactly, or
//! 3. *clean error* — a typed [`sg_core::error::SgError`], for faults
//!    that destroy the snapshot's identity.
//!
//! A panic, a silently corrupted coefficient, or an intact-claimed
//! section that differs from the original is a **violation**, reported
//! as a corpus line by the shared [`crate::campaign`] core.

use crate::campaign::{Campaign, CampaignReport, FaultOutcome};
use sg_core::error::SgError;
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_io::{
    recover_snapshot, section_boundaries, write_snapshot, FaultSink, MemorySink, WriteFault,
};
use sg_prop::Rng;

/// The injected fault classes, covering both the write path (sink
/// faults) and storage corruption of published bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The sink tears the stream exactly at a section boundary but the
    /// snapshot still publishes (rename acked before data pages).
    TornSectionBoundary,
    /// The sink tears the stream mid-section.
    TornMidSection,
    /// One flipped bit anywhere in the published bytes.
    BitFlip,
    /// The published file is truncated at an arbitrary byte.
    Truncate,
    /// The device fills up mid-write: the write must fail with a typed
    /// I/O error and nothing may be published.
    Enospc,
    /// A corrupted byte inside the leading header.
    HeaderCorrupt,
    /// A corrupted byte inside the footer / trailer region.
    FooterCorrupt,
    /// The checkpoint commits — the writer sees success — but the
    /// directory entry is lost in a crash (parent dir never fsynced):
    /// the reader finds only the *previous* snapshot, which must still
    /// recover fully.
    LostDirent,
}

impl FaultClass {
    /// Every class, in injection-rotation order (declaration order, so
    /// `class as usize` indexes [`CAMPAIGN`]`.classes`).
    pub const ALL: [FaultClass; 8] = [
        FaultClass::TornSectionBoundary,
        FaultClass::TornMidSection,
        FaultClass::BitFlip,
        FaultClass::Truncate,
        FaultClass::Enospc,
        FaultClass::HeaderCorrupt,
        FaultClass::FooterCorrupt,
        FaultClass::LostDirent,
    ];

    /// Stable name (report keys, CLI, corpus lines).
    pub fn name(self) -> &'static str {
        CAMPAIGN.classes[self as usize]
    }
}

/// The snapshot campaign: `sgtool fuzz --campaign snapshot`.
pub const CAMPAIGN: Campaign = Campaign {
    name: "snapshot",
    classes: &[
        "torn-section-boundary",
        "torn-mid-section",
        "bit-flip",
        "truncate",
        "enospc",
        "header-corrupt",
        "footer-corrupt",
        "lost-dirent",
    ],
    counters: &[],
    shared_fixture: false,
    run,
    replay: |class, seed, _| run_case(FaultClass::ALL[class], seed),
};

/// Seeded grid for case `seed`: a random small shape and a smooth
/// seeded function. Returns the hierarchized grid and a closure that
/// re-creates the function (for repair).
fn seeded_grid(rng: &mut Rng) -> (CompactGrid<f64>, impl Fn(&[f64]) -> f64 + Clone) {
    let d = rng.usize_in(1..=4);
    let levels = rng.usize_in(2..=6);
    let coeffs: Vec<f64> = (0..d).map(|_| rng.f64_in(-2.0, 2.0)).collect();
    let freq = rng.f64_in(1.0, 6.0);
    let f = move |x: &[f64]| -> f64 {
        let mut s = 0.0;
        let mut p = 1.0;
        for (t, &c) in coeffs.iter().enumerate() {
            s += c * (freq * x[t]).sin();
            p *= 4.0 * x[t] * (1.0 - x[t]);
        }
        s + p
    };
    let spec = GridSpec::new(d, levels);
    let mut grid = CompactGrid::from_fn(spec, |x| f(x));
    sg_core::hierarchize::hierarchize(&mut grid);
    (grid, f)
}

/// Inject storage fault `class` (an index into [`FaultClass::ALL`]) into
/// the checkpoint whose published bytes are `gold` and return the bytes
/// a reader would observe, or `None` when the fault correctly prevented
/// publication. `bounds` are the byte offsets of the header end, every
/// section end and the footer end; `write` re-runs the checkpoint into
/// a faulty sink, and `write_newer` writes a newer checkpoint for the
/// lost-dirent class. The combination campaign applies the same classes
/// to its component-set manifest.
pub(crate) fn inject_storage(
    class: usize,
    gold: &[u8],
    bounds: &[usize],
    rng: &mut Rng,
    write: impl Fn(&mut FaultSink) -> Result<(), SgError>,
    write_newer: impl Fn(&mut FaultSink) -> Result<(), SgError>,
) -> Result<Option<Vec<u8>>, String> {
    let flip = |lo: usize, hi: usize, rng: &mut Rng| {
        let mut bytes = gold.to_vec();
        let pos = rng.usize_in(lo..=hi);
        bytes[pos] ^= 1 << rng.u8_in(0..=7);
        Some(bytes)
    };
    let torn = |cut: usize| {
        let mut sink = FaultSink::new(WriteFault::Torn { after_bytes: cut });
        write(&mut sink).map_err(|e| e.to_string())?;
        Ok(sink.into_published())
    };
    match FaultClass::ALL[class] {
        // Tear at one of: end of header, end of each section.
        FaultClass::TornSectionBoundary => torn(bounds[rng.usize_in(0..=bounds.len() - 3)]),
        FaultClass::TornMidSection => {
            let s = rng.usize_in(0..=bounds.len() - 3);
            torn(rng.usize_in(bounds[s] + 1..=bounds[s + 1] - 1))
        }
        FaultClass::BitFlip => Ok(flip(0, gold.len() - 1, rng)),
        FaultClass::Truncate => Ok(Some(gold[..rng.usize_in(0..=gold.len() - 1)].to_vec())),
        FaultClass::Enospc => {
            let after = rng.usize_in(0..=gold.len() - 1);
            let mut sink = FaultSink::new(WriteFault::Enospc { after_bytes: after });
            match write(&mut sink) {
                Err(SgError::Io(_)) => {}
                other => {
                    return Err(format!(
                        "ENOSPC at byte {after} must fail with SgError::Io, got {other:?}"
                    ))
                }
            }
            if sink.committed() {
                return Err(format!("ENOSPC at byte {after} still published"));
            }
            Ok(None)
        }
        FaultClass::HeaderCorrupt => Ok(flip(0, bounds[0] - 1, rng)),
        FaultClass::FooterCorrupt => Ok(flip(bounds[bounds.len() - 2], gold.len() - 1, rng)),
        FaultClass::LostDirent => {
            // A newer checkpoint commits, but its dirent is lost: the
            // write must report success yet publish nothing, and the
            // reader must fall back to the previous one (`gold`).
            let mut sink = FaultSink::new(WriteFault::LostDirent);
            write_newer(&mut sink).map_err(|e| e.to_string())?;
            if !sink.committed() {
                return Err("lost-dirent commit must report success to the writer".into());
            }
            if sink.into_published().is_some() {
                return Err("lost-dirent fault must publish nothing".into());
            }
            Ok(Some(gold.to_vec()))
        }
    }
}

/// Recover `bytes` and check the detect-or-recover contract against the
/// original grid. Returns the outcome or a violation description.
fn check_recovery(
    grid: &CompactGrid<f64>,
    f: &(impl Fn(&[f64]) -> f64 + Clone),
    bytes: &[u8],
) -> Result<FaultOutcome, String> {
    let recovery = match recover_snapshot::<f64>(bytes) {
        Ok(r) => r,
        Err(e) => return Ok(FaultOutcome::CleanError(e.to_string())),
    };
    // Silent-corruption check: every section claimed intact must be
    // bitwise identical to the original coefficients.
    for report in &recovery.sections {
        if report.status != sg_io::SectionStatus::Intact {
            continue;
        }
        let r = grid.indexer().group_range(report.group);
        let (s, e) = (r.start as usize, r.end as usize);
        if recovery.grid.grid().values()[s..e] != grid.values()[s..e] {
            return Err(format!(
                "section {} verified intact but its coefficients differ (silent corruption)",
                report.group
            ));
        }
    }
    let lost = recovery.grid.lost_groups().to_vec();
    if lost.is_empty() {
        if recovery.grid.grid().values() != grid.values() {
            return Err("full recovery claimed but coefficients differ".into());
        }
        return Ok(FaultOutcome::FullRecovery);
    }
    // Partial recovery must be repairable bitwise from the original
    // function (hierarchization is deterministic).
    let repaired = recovery.grid.clone().repair_with(f.clone());
    if repaired.values() != grid.values() {
        return Err(format!(
            "repair of lost groups {lost:?} did not reconstruct the original coefficients"
        ));
    }
    Ok(FaultOutcome::PartialRecovery { lost_groups: lost })
}

/// Run one seeded fault-injection case.
pub fn run_case(class: FaultClass, seed: u64) -> Result<FaultOutcome, String> {
    let mut rng = Rng::new(seed);
    let (grid, f) = seeded_grid(&mut rng);
    let mut sink = MemorySink::new();
    write_snapshot(&grid, &mut sink, "snapfault-gold").map_err(|e| e.to_string())?;
    let gold = sink.into_published().expect("memory sink commits");
    let bounds = section_boundaries(&gold).map_err(|e| format!("gold bytes unreadable: {e}"))?;
    let published = inject_storage(
        class as usize,
        &gold,
        &bounds,
        &mut rng,
        |sink| write_snapshot(&grid, sink, "snapfault-gold"),
        // A *modified* grid, so falling back to `gold` is observable as
        // a full recovery of the original.
        |sink| {
            let mut newer = grid.clone();
            for v in newer.values_mut() {
                *v += 1.0;
            }
            write_snapshot(&newer, sink, "snapfault-lost-dirent")
        },
    )?;
    match published {
        None => Ok(FaultOutcome::CleanError("write failed cleanly".into())),
        Some(bytes) => check_recovery(&grid, &f, &bytes),
    }
}

/// Inject `cases` faults (rotating through every [`FaultClass`], or
/// pinned to one) and check the detect-or-recover contract on each.
pub fn run(seed_base: u64, cases: u64, class: Option<usize>) -> CampaignReport {
    crate::campaign::run_cases(&CAMPAIGN, seed_base, cases, class, |ci, seed, _| {
        run_case(FaultClass::ALL[ci], seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_resolves_inside_the_contract() {
        let report = run(0x5EED_0001, 80, None);
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(report.cases, 80);
        assert_eq!(
            report.full_recoveries + report.partial_recoveries + report.clean_errors,
            80
        );
        for (name, count) in &report.per_class {
            assert_eq!(*count, 10, "class {name} ran {count} times");
        }
        // The mix must actually exercise all three contract arms.
        assert!(report.full_recoveries > 0, "no full recoveries seen");
        assert!(report.partial_recoveries > 0, "no partial recoveries seen");
        assert!(report.clean_errors > 0, "no clean errors seen");
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let a = run_case(FaultClass::BitFlip, 0x1234_5678).unwrap();
        let b = run_case(FaultClass::BitFlip, 0x1234_5678).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn enospc_never_publishes() {
        for k in 0..20 {
            let outcome = run_case(FaultClass::Enospc, crate::case_seed(7, k)).unwrap();
            assert!(matches!(outcome, FaultOutcome::CleanError(_)));
        }
    }
}
