//! Fault injection against the fault-tolerant combination executor.
//!
//! Each case builds a seeded combination run, checkpoints its component
//! set through the `SGCM` manifest path, injects one fault — the eight
//! storage classes the snapshot harness rotates ([`crate::snapfault`])
//! reinterpreted against the manifest, plus two executor-level classes
//! (component task panic, component dropped pre-commit) — and asserts
//! the **detect-or-recover contract**:
//!
//! 1. *full recovery* — the recovered combination grid is bitwise
//!    identical to the fault-free run,
//! 2. *partial recovery* — lost components are enumerated and the
//!    configured policy holds: `Recompute` restores bitwise identity,
//!    `Reweight` stays within its self-reported error bound at every
//!    probe point, or
//! 3. *clean error* — a typed [`sg_core::error::SgError`], for faults
//!    that destroy the manifest's identity or strand the re-weighting
//!    solver.
//!
//! A panic escaping the executor, a silently corrupted payload claimed
//! intact, a `Recompute` result that differs bitwise, or a `Reweight`
//! result outside its own bound is a **violation**, reported as a
//! corpus line by the shared [`crate::campaign`] core. Each case tallies
//! the recovery policy it drew (`recompute` / `reweight`).

use crate::campaign::{Campaign, CampaignReport, FaultOutcome, Tally};
use crate::snapfault::inject_storage;
use sg_combination::{
    CombinationExecutor, CombinationGrid, ExecutorConfig, InjectedFaults, RecoveryPolicy,
    RunOutcome,
};
use sg_core::level::GridSpec;
use sg_io::{component_boundaries, recover_component_set, FaultSink, MemorySink};
use sg_prop::Rng;

/// The injected fault classes: the snapshot harness's eight storage
/// classes against the component-set manifest, plus the two
/// executor-level losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombFaultClass {
    /// The sink tears the manifest stream exactly at a component
    /// boundary but still publishes.
    TornSectionBoundary,
    /// The sink tears the stream mid-component.
    TornMidSection,
    /// One flipped bit anywhere in the published manifest.
    BitFlip,
    /// The published manifest is truncated at an arbitrary byte.
    Truncate,
    /// The device fills up mid-checkpoint: typed I/O error, nothing
    /// published.
    Enospc,
    /// A corrupted byte inside the leading manifest header.
    HeaderCorrupt,
    /// A corrupted byte inside the footer / trailer region.
    FooterCorrupt,
    /// The checkpoint commits but its directory entry is lost; the
    /// reader falls back to the previous manifest.
    LostDirent,
    /// A component task panics mid-sampling (transient or persistent).
    TaskPanic,
    /// A computed component's values are dropped after compute, before
    /// the manifest commit (metadata survives, payload tombstoned).
    DroppedPreCommit,
}

impl CombFaultClass {
    /// Every class, in injection-rotation order (declaration order, so
    /// `class as usize` indexes [`CAMPAIGN`]`.classes`).
    pub const ALL: [CombFaultClass; 10] = [
        CombFaultClass::TornSectionBoundary,
        CombFaultClass::TornMidSection,
        CombFaultClass::BitFlip,
        CombFaultClass::Truncate,
        CombFaultClass::Enospc,
        CombFaultClass::HeaderCorrupt,
        CombFaultClass::FooterCorrupt,
        CombFaultClass::LostDirent,
        CombFaultClass::TaskPanic,
        CombFaultClass::DroppedPreCommit,
    ];

    /// Stable name (report keys, CLI, corpus lines).
    pub fn name(self) -> &'static str {
        CAMPAIGN.classes[self as usize]
    }
}

/// The combination campaign: `sgtool fuzz --campaign combination`.
pub const CAMPAIGN: Campaign = Campaign {
    name: "combination",
    classes: &[
        "torn-section-boundary",
        "torn-mid-section",
        "bit-flip",
        "truncate",
        "enospc",
        "header-corrupt",
        "footer-corrupt",
        "lost-dirent",
        "task-panic",
        "dropped-pre-commit",
    ],
    counters: &["recompute", "reweight"],
    shared_fixture: false,
    run,
    replay: |class, seed, _| run_case(CombFaultClass::ALL[class], seed, &mut CAMPAIGN.tally()),
};

/// Seeded executor + function for one case: a small random shape, a
/// smooth seeded function, and a policy drawn from the seed.
fn seeded_case(rng: &mut Rng) -> (CombinationExecutor, impl Fn(&[f64]) -> f64 + Clone + Sync) {
    let d = rng.usize_in(1..=4);
    let levels = rng.usize_in(2..=5);
    let policy = if rng.bool() {
        RecoveryPolicy::Reweight
    } else {
        RecoveryPolicy::Recompute
    };
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
    let exec = CombinationExecutor::with_config(
        GridSpec::new(d, levels),
        ExecutorConfig {
            policy,
            spare_diagonals: 1,
            provenance: "combfault-gold".into(),
        },
    );
    (exec, f)
}

fn grids_bitwise_equal(a: &CombinationGrid<f64>, b: &CombinationGrid<f64>) -> bool {
    a.components().len() == b.components().len()
        && a.components().iter().zip(b.components()).all(|(x, y)| {
            x.coefficient == y.coefficient
                && x.grid.levels() == y.grid.levels()
                && x.grid.values() == y.grid.values()
        })
}

/// Recover `bytes` under the executor's policy and check the contract
/// against the fault-free reference grid.
fn check_recovery(
    exec: &CombinationExecutor,
    f: &(impl Fn(&[f64]) -> f64 + Clone + Sync),
    components: &[sg_combination::AnisoFullGrid<f64>],
    reference: &CombinationGrid<f64>,
    bytes: &[u8],
) -> Result<FaultOutcome, String> {
    // Silent-corruption check: every payload claimed intact must be
    // bitwise identical to the computed component values.
    match recover_component_set::<f64>(bytes) {
        Ok(recovery) => {
            for (k, payload) in recovery.payloads.iter().enumerate() {
                if let Some(values) = payload {
                    if k >= components.len() || values != components[k].values() {
                        return Err(format!(
                            "component {k} verified intact but its values differ \
                             (silent corruption)"
                        ));
                    }
                }
            }
        }
        Err(_) => {
            // Identity destroyed: the executor must fail typed too.
            return match exec.recover_run::<f64>(bytes, f) {
                Err(e) => Ok(FaultOutcome::CleanError(e.to_string())),
                Ok(_) => Err("manifest identity unreadable but recover_run succeeded".into()),
            };
        }
    }
    let run = match exec.recover_run::<f64>(bytes, f) {
        Ok(run) => run,
        Err(e) => return Ok(FaultOutcome::CleanError(e.to_string())),
    };
    match run.outcome {
        RunOutcome::Clean => {
            if !grids_bitwise_equal(&run.grid, reference) {
                return Err("clean recovery differs bitwise from the fault-free run".into());
            }
            Ok(FaultOutcome::FullRecovery)
        }
        RunOutcome::Recomputed { components: lost } => {
            if !grids_bitwise_equal(&run.grid, reference) {
                return Err(format!(
                    "recompute of lost components {lost:?} is not bitwise identical"
                ));
            }
            Ok(FaultOutcome::PartialRecovery { lost_groups: lost })
        }
        RunOutcome::Reweighted {
            dropped,
            error_bound,
        } => {
            if !error_bound.is_finite() || error_bound < 0.0 {
                return Err(format!("reweight reported a bogus bound {error_bound}"));
            }
            let d = exec.spec().dim();
            let mut scale = 1.0f64;
            let xs = sg_core::functions::halton_points(d, 24);
            for x in xs.chunks_exact(d) {
                scale = scale.max(reference.evaluate(x).abs());
            }
            for x in xs.chunks_exact(d) {
                let a = run.grid.evaluate(x);
                let b = reference.evaluate(x);
                if (a - b).abs() > error_bound + 1e-9 * scale {
                    return Err(format!(
                        "reweight around {dropped:?} leaves its own bound at {x:?}: \
                         |{a} − {b}| > {error_bound}"
                    ));
                }
            }
            Ok(FaultOutcome::PartialRecovery {
                lost_groups: dropped,
            })
        }
    }
}

/// Run one seeded combination fault-injection case, tallying the
/// recovery policy it drew.
pub fn run_case(
    class: CombFaultClass,
    seed: u64,
    tally: &mut Tally,
) -> Result<FaultOutcome, String> {
    let mut rng = Rng::new(seed);
    let (exec, f) = seeded_case(&mut rng);
    tally.add(exec.config().policy.name(), 1);
    let components = exec
        .compute_components(&f)
        .map_err(|e| format!("fault-free compute failed: {e}"))?;
    let mut sink = MemorySink::new();
    exec.checkpoint(&components, &mut sink, None)
        .map_err(|e| format!("fault-free checkpoint failed: {e}"))?;
    let gold = sink.into_published().expect("memory sink commits");
    let reference = exec
        .recover_run::<f64>(&gold, &f)
        .map_err(|e| format!("fault-free recovery failed: {e}"))?;
    if reference.outcome != RunOutcome::Clean {
        return Err(format!(
            "fault-free run did not recover clean: {:?}",
            reference.outcome
        ));
    }
    let bounds =
        component_boundaries(&gold).map_err(|e| format!("gold manifest unreadable: {e}"))?;
    let check = |bytes: &[u8]| check_recovery(&exec, &f, &components, &reference.grid, bytes);
    match class {
        CombFaultClass::TaskPanic => {
            let k = rng.usize_in(0..=exec.tasks().len() - 1);
            let persistent = rng.bool();
            let faults = InjectedFaults {
                task_panic: Some((k, persistent)),
                drop_pre_commit: None,
            };
            match exec.compute_components_faulty(&f, faults, None) {
                Err(e) if persistent => Ok(FaultOutcome::CleanError(e.to_string())),
                Err(e) => Err(format!("transient panic of task {k} was not retried: {e}")),
                Ok(_) if persistent => {
                    Err(format!("persistent panic of task {k} reported success"))
                }
                Ok(retried) => {
                    for (i, (a, b)) in retried.iter().zip(&components).enumerate() {
                        if a.values() != b.values() {
                            return Err(format!(
                                "retry of panicked task {k} changed component {i} bitwise"
                            ));
                        }
                    }
                    let mut sink = MemorySink::new();
                    exec.checkpoint(&retried, &mut sink, None)
                        .map_err(|e| e.to_string())?;
                    check(&sink.into_published().expect("memory sink commits"))
                }
            }
        }
        CombFaultClass::DroppedPreCommit => {
            let k = rng.usize_in(0..=exec.tasks().len() - 1);
            let mut sink = MemorySink::new();
            exec.checkpoint(&components, &mut sink, Some(k))
                .map_err(|e| e.to_string())?;
            check(&sink.into_published().expect("memory sink commits"))
        }
        // The first eight classes are the snapshot campaign's, in its
        // order, so the index carries over.
        storage => {
            let write = |sink: &mut FaultSink| exec.checkpoint(&components, sink, None);
            match inject_storage(storage as usize, &gold, &bounds, &mut rng, write, write)? {
                Some(bytes) => check(&bytes),
                None => Ok(FaultOutcome::CleanError("write failed cleanly".into())),
            }
        }
    }
}

/// Inject `cases` faults (rotating through every [`CombFaultClass`], or
/// pinned to one; the policy is drawn per case from its seed) and check
/// the detect-or-recover contract on each.
pub fn run(seed_base: u64, cases: u64, class: Option<usize>) -> CampaignReport {
    crate::campaign::run_cases(&CAMPAIGN, seed_base, cases, class, |ci, seed, tally| {
        run_case(CombFaultClass::ALL[ci], seed, tally)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_resolves_inside_the_contract() {
        let report = run(0x5EED_0002, 100, None);
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(report.cases, 100);
        assert_eq!(
            report.full_recoveries + report.partial_recoveries + report.clean_errors,
            100
        );
        for (name, count) in &report.per_class {
            assert_eq!(*count, 10, "class {name} ran {count} times");
        }
        // The mix must exercise all three contract arms and both
        // policies.
        assert!(report.full_recoveries > 0, "no full recoveries seen");
        assert!(report.partial_recoveries > 0, "no partial recoveries seen");
        assert!(report.clean_errors > 0, "no clean errors seen");
        let (recompute, reweight) = (
            report.counters.get("recompute"),
            report.counters.get("reweight"),
        );
        assert_eq!(recompute + reweight, 100, "every case drew a policy");
        assert!(recompute > 0, "recompute policy never drawn");
        assert!(reweight > 0, "reweight policy never drawn");
    }

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let (mut ta, mut tb) = (CAMPAIGN.tally(), CAMPAIGN.tally());
        let a = run_case(CombFaultClass::BitFlip, 0x0C0F_FEE0, &mut ta).unwrap();
        let b = run_case(CombFaultClass::BitFlip, 0x0C0F_FEE0, &mut tb).unwrap();
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn enospc_never_publishes() {
        for k in 0..10 {
            let outcome = run_case(
                CombFaultClass::Enospc,
                crate::case_seed(11, k),
                &mut CAMPAIGN.tally(),
            )
            .unwrap();
            assert!(matches!(outcome, FaultOutcome::CleanError(_)));
        }
    }

    #[test]
    fn dropped_pre_commit_exercises_both_policies() {
        let mut partial = 0;
        for k in 0..20 {
            let outcome = run_case(
                CombFaultClass::DroppedPreCommit,
                crate::case_seed(13, k),
                &mut CAMPAIGN.tally(),
            )
            .unwrap();
            if matches!(outcome, FaultOutcome::PartialRecovery { .. }) {
                partial += 1;
            }
        }
        assert!(partial > 0, "dropped-pre-commit never engaged a policy");
    }
}
