#![warn(missing_docs)]

//! # sg-fuzz — structure-aware differential fuzzing for the sparse grid stack
//!
//! Every operation of the compact data structure is run through
//! independent implementations — the compact structure itself
//! (`sg-core`, paper Alg. 1–7), the recursive baseline (`sg-baselines`,
//! Alg. 1–2), and a dense definitional oracle ([`oracle`]) — and any
//! disagreement beyond tier-appropriate tolerance is a **divergence**:
//! it is shrunk ([`shrink`]) to a minimal seeded reproducer and
//! reported. The generators ([`gen`]) are structure-aware: they draw
//! grid shapes, boundary configurations, adaptive refinement sequences,
//! and adversarial query points (grid nodes, dyadic cell edges, domain
//! corners, NaN) rather than raw bytes.
//!
//! The crate is deterministic end to end: a case is a pure function of
//! its seed, `SG_PROP_SEED` replays any failure exactly, and the
//! scheduler-dependent pieces (`sg-par`) are covered by the virtual
//! scheduler in [`sg_par::vsched`] rather than by wall-clock stress.
//!
//! Entry points: [`run_fuzz`] (the engine behind `sgtool fuzz`),
//! [`diff::run_case`] for a single case, and the fault campaigns behind
//! `sgtool fuzz --campaign` ([`campaign`]: snapshot, combination and
//! serve-chaos fault injection on one case loop and one report).

use std::cell::Cell;
use std::panic;
use std::sync::Once;
use std::time::Instant;

pub mod campaign;
pub mod combfault;
pub mod diff;
pub mod gen;
pub mod oracle;
pub mod servechaos;
pub mod shrink;
pub mod snapfault;

pub use campaign::{Campaign, CampaignReport, CorpusLine, FaultOutcome, CAMPAIGNS};
pub use diff::{Case, Failure, Injection, Op};
pub use shrink::Shrunk;

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide twin of the thread-local flag: injected *task* panics in
/// the combination fault harness unwind on `sg-par` pool workers, whose
/// threads never pass through [`with_quiet_panics`].
static QUIET_PANICS_GLOBAL: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Install (once) the hook that drops expected-panic output when either
/// the calling thread or the whole process asked for quiet.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = QUIET_PANICS.with(Cell::get)
                || QUIET_PANICS_GLOBAL.load(std::sync::atomic::Ordering::Relaxed);
            if !quiet {
                prev(info);
            }
        }));
    });
}

/// Run `f` with expected panics silenced on this thread (the
/// domain-reject differential intentionally triggers assertion panics
/// in both tiers; their backtraces would drown real output).
pub(crate) fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    install_quiet_hook();
    QUIET_PANICS.with(|c| c.set(true));
    let r = f();
    QUIET_PANICS.with(|c| c.set(false));
    r
}

/// Run `f` with expected panics silenced on *every* thread — used by the
/// fault-campaign loop, since injected combination task panics unwind
/// inside pool workers. The blast radius is accepted: during a
/// fault-injection run, any panic is either injected or caught and
/// converted into a violation report.
pub(crate) fn with_quiet_panics_global<R>(f: impl FnOnce() -> R) -> R {
    install_quiet_hook();
    QUIET_PANICS_GLOBAL.store(true, std::sync::atomic::Ordering::Relaxed);
    let r = f();
    QUIET_PANICS_GLOBAL.store(false, std::sync::atomic::Ordering::Relaxed);
    r
}

/// Budget and mode for a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; case `k` derives its seed from it (case 0 uses it
    /// verbatim, which is what makes `SG_PROP_SEED` replay exact).
    pub seed_base: u64,
    /// Stop after this many cases.
    pub budget_cases: Option<u64>,
    /// Stop after this much wall-clock time.
    pub budget_secs: Option<f64>,
    /// Restrict the run to a subset of operations (round-robin within
    /// the subset); `None` cycles through all of [`Op::ALL`].
    pub op_filter: Option<Vec<Op>>,
    /// Shrinker shape override for replays.
    pub shape: Option<(usize, usize)>,
    /// Fault injection (harness self-test).
    pub inject: Injection,
    /// Stop after this many divergences (default 5).
    pub max_divergences: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed_base: 0x5EED_5EED_5EED_5EED,
            budget_cases: Some(10_000),
            budget_secs: None,
            op_filter: None,
            shape: None,
            inject: Injection::None,
            max_divergences: 5,
        }
    }
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Per-op case counts, in [`Op::ALL`] order (zero for filtered ops).
    pub per_op: Vec<(&'static str, u64)>,
    /// Minimized divergences (empty on a clean run).
    pub divergences: Vec<Shrunk>,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
    /// The seed base the run used (for provenance).
    pub seed_base: u64,
}

impl FuzzReport {
    /// True when no divergence was found.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Derive case `k`'s seed. Case 0 uses the base verbatim so that
/// replaying a printed seed with `--budget-cases 1` reruns it exactly.
pub fn case_seed(base: u64, k: u64) -> u64 {
    if k == 0 {
        return base;
    }
    let mut z = base ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Run the differential fuzzer under the given budgets. Divergences are
/// minimized before being reported; a panic inside an operation (other
/// than the intentional domain rejections) is itself a divergence.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let ops: Vec<Op> = match &cfg.op_filter {
        Some(ops) if !ops.is_empty() => ops.clone(),
        _ => Op::ALL.to_vec(),
    };
    let started = Instant::now();
    let mut report = FuzzReport {
        cases: 0,
        per_op: Op::ALL.iter().map(|op| (op.name(), 0)).collect(),
        divergences: Vec::new(),
        elapsed_secs: 0.0,
        seed_base: cfg.seed_base,
    };
    let budget_cases = cfg.budget_cases.unwrap_or(u64::MAX);
    let budget_secs = cfg.budget_secs.unwrap_or(f64::INFINITY);
    let mut k = 0u64;
    while k < budget_cases && started.elapsed().as_secs_f64() < budget_secs {
        let op = ops[(k % ops.len() as u64) as usize];
        let mut case = Case::new(op, case_seed(cfg.seed_base, k));
        case.shape = cfg.shape;
        let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            diff::run_case(&case, cfg.inject)
        }))
        .unwrap_or_else(|payload| {
            Err(Failure {
                detail: format!("operation panicked: {}", panic_message(&*payload)),
                point: None,
                d: 0,
                n: 0,
            })
        });
        report.cases += 1;
        report.per_op[Op::ALL.iter().position(|o| *o == op).expect("op in ALL")].1 += 1;
        if let Err(failure) = outcome {
            let shrunk = if failure.d > 0 {
                shrink::minimize(&case, failure, cfg.inject)
            } else {
                // A panicking case cannot be re-run safely; report as-is.
                Shrunk {
                    points: 0,
                    reproducer: format!(
                        "op={} seed={:#x}: {}\nreplay: SG_PROP_SEED={:#x} sgtool fuzz --op {} --budget-cases 1",
                        op.name(),
                        case.seed,
                        failure.detail,
                        case.seed,
                        op.name()
                    ),
                    case: case.clone(),
                    failure,
                }
            };
            report.divergences.push(shrunk);
            if report.divergences.len() >= cfg.max_divergences {
                break;
            }
        }
        k += 1;
    }
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_clean_run_visits_every_op() {
        let cfg = FuzzConfig {
            budget_cases: Some(40),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(report.clean(), "{:?}", report.divergences);
        assert_eq!(report.cases, 40);
        for (name, count) in &report.per_op {
            assert!(*count >= 4, "op {name} ran {count} < 4 times");
        }
    }

    #[test]
    fn a_multi_op_filter_round_robins_the_subset() {
        let cfg = FuzzConfig {
            budget_cases: Some(12),
            op_filter: Some(vec![Op::Hierarchize, Op::BatchBlocked]),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(report.clean(), "{:?}", report.divergences);
        for (name, count) in &report.per_op {
            let want = if *name == "hierarchize" || *name == "batch-blocked" {
                6
            } else {
                0
            };
            assert_eq!(*count, want, "op {name}");
        }
    }

    #[test]
    fn case_zero_replays_the_base_seed() {
        assert_eq!(case_seed(0xABCD, 0), 0xABCD);
        assert_ne!(case_seed(0xABCD, 1), case_seed(0xABCD, 2));
    }

    #[test]
    fn injection_produces_a_shrunk_divergence() {
        let cfg = FuzzConfig {
            budget_cases: Some(20),
            op_filter: Some(vec![Op::SampleIdentity]),
            inject: Injection::Gp2idxOffByOne,
            max_divergences: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(!report.clean());
        let s = &report.divergences[0];
        assert!(s.reproducer.lines().count() <= 3, "{}", s.reproducer);
    }
}
