//! The fault-campaign core shared by the snapshot, combination and
//! serve-chaos harnesses.
//!
//! A campaign is a rotation of fault classes. Each case injects one
//! fault and judges it against the **detect-or-recover contract**: it
//! must end in a full recovery, an enumerated partial recovery, or a
//! clean typed error. Anything else — including a panic — is a
//! violation. The harness modules keep only their fault classes and
//! their per-case `inject`/`judge` code; this module owns the rest:
//!
//! * `run_cases`, the one case loop: it rotates the classes, derives
//!   each case seed with [`crate::case_seed`], turns a caught panic into
//!   a violation, and stops after `MAX_VIOLATIONS` (5);
//! * [`CampaignReport`], the one report type;
//! * [`CorpusLine`], the one reproducer and corpus format
//!   `<campaign> <class> <seed> [<fixture seed>]`. Every violation is
//!   printed as such a line, and pasting it into
//!   `tests/corpus/campaign_seeds.txt` replays exactly that case.

use crate::{combfault, servechaos, snapfault};
use std::panic;
use std::time::Instant;

/// A campaign stops after this many violations.
pub(crate) const MAX_VIOLATIONS: usize = 5;

/// How one injected fault resolved inside the contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Everything came back bitwise identical.
    FullRecovery,
    /// Some parts were lost; they were enumerated and the loss was
    /// repaired or bounded as the campaign's contract requires.
    PartialRecovery {
        /// The level groups or components reported lost.
        lost_groups: Vec<usize>,
    },
    /// The fault surfaced as a typed error.
    CleanError(String),
}

/// One fault campaign: its name, its classes in rotation order, the
/// names of the per-campaign counters its cases bump, and its two entry
/// points.
#[derive(Debug)]
pub struct Campaign {
    /// Stable name (CLI, report keys, corpus lines).
    pub name: &'static str,
    /// Fault class names, in rotation order.
    pub classes: &'static [&'static str],
    /// Names of the campaign's own tallies.
    pub counters: &'static [&'static str],
    /// Whether every case runs against one fixture built from the run's
    /// seed base; corpus lines then carry that seed too.
    pub shared_fixture: bool,
    /// Inject `cases` faults from a seed base, rotating through every
    /// class or pinned to one class index.
    pub run: fn(seed_base: u64, cases: u64, class: Option<usize>) -> CampaignReport,
    /// Re-run one case: class index, case seed, fixture seed.
    pub replay: fn(class: usize, seed: u64, fixture: Option<u64>) -> Result<FaultOutcome, String>,
}

/// Every campaign `sgtool fuzz --campaign` knows.
pub const CAMPAIGNS: [&Campaign; 3] = [
    &snapfault::CAMPAIGN,
    &combfault::CAMPAIGN,
    &servechaos::CAMPAIGN,
];

impl Campaign {
    /// Look a campaign up by name.
    pub fn find(name: &str) -> Option<&'static Campaign> {
        CAMPAIGNS.into_iter().find(|c| c.name == name)
    }

    /// Index of the class called `name`.
    pub fn class_index(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| *c == name)
    }

    /// A zeroed tally with this campaign's counter names.
    pub fn tally(&self) -> Tally {
        Tally(self.counters.iter().map(|&n| (n, 0)).collect())
    }
}

/// Named per-campaign counters, in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally(Vec<(&'static str, u64)>);

impl Tally {
    /// Add `n` to the counter `name`, which must be one the campaign
    /// declared.
    pub fn add(&mut self, name: &str, n: u64) {
        let slot = self.0.iter_mut().find(|(k, _)| *k == name);
        slot.unwrap_or_else(|| panic!("undeclared campaign counter {name:?}"))
            .1 += n;
    }

    /// Current value of `name` (0 when undeclared).
    pub fn get(&self, name: &str) -> u64 {
        self.0.iter().find(|(k, _)| *k == name).map_or(0, |p| p.1)
    }

    /// Every counter with its value.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().copied()
    }
}

/// Aggregate result of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign's name.
    pub campaign: &'static str,
    /// Faults injected.
    pub cases: u64,
    /// Per-class injection counts, in rotation order.
    pub per_class: Vec<(&'static str, u64)>,
    /// Cases that ended in full recovery.
    pub full_recoveries: u64,
    /// Cases that ended in enumerated partial recovery.
    pub partial_recoveries: u64,
    /// Cases that ended in a typed error.
    pub clean_errors: u64,
    /// The campaign's own tallies.
    pub counters: Tally,
    /// Contract violations, each a corpus line with the reason as a
    /// trailing comment. Empty on a clean run.
    pub violations: Vec<String>,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
    /// Seed base used (provenance and replay).
    pub seed_base: u64,
}

impl CampaignReport {
    /// True when every fault resolved inside the contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// An empty report, for a run that fails before its first case.
    pub(crate) fn empty(campaign: &Campaign, seed_base: u64) -> CampaignReport {
        CampaignReport {
            campaign: campaign.name,
            cases: 0,
            per_class: campaign.classes.iter().map(|&c| (c, 0)).collect(),
            full_recoveries: 0,
            partial_recoveries: 0,
            clean_errors: 0,
            counters: campaign.tally(),
            violations: Vec::new(),
            elapsed_secs: 0.0,
            seed_base,
        }
    }
}

/// The case loop every campaign runs. Case `k` runs class
/// `class.unwrap_or(k % classes)` with seed `case_seed(seed_base, k)`;
/// `case` injects and judges it, bumping the campaign's tallies. Panics
/// (with the process-wide quiet hook on, since injected faults may
/// unwind on pool workers) become violations, and the loop stops after
/// [`MAX_VIOLATIONS`].
pub(crate) fn run_cases(
    campaign: &'static Campaign,
    seed_base: u64,
    cases: u64,
    class: Option<usize>,
    mut case: impl FnMut(usize, u64, &mut Tally) -> Result<FaultOutcome, String>,
) -> CampaignReport {
    let started = Instant::now();
    let mut report = CampaignReport::empty(campaign, seed_base);
    let fixture = campaign.shared_fixture.then_some(seed_base);
    crate::with_quiet_panics_global(|| {
        for k in 0..cases {
            let ci = class.unwrap_or((k % campaign.classes.len() as u64) as usize);
            let seed = crate::case_seed(seed_base, k);
            let counters = &mut report.counters;
            let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| case(ci, seed, counters)))
                .unwrap_or_else(|payload| {
                    Err(format!("panicked: {}", crate::panic_message(&*payload)))
                });
            report.cases += 1;
            report.per_class[ci].1 += 1;
            match outcome {
                Ok(FaultOutcome::FullRecovery) => report.full_recoveries += 1,
                Ok(FaultOutcome::PartialRecovery { .. }) => report.partial_recoveries += 1,
                Ok(FaultOutcome::CleanError(_)) => report.clean_errors += 1,
                Err(why) => {
                    let line = CorpusLine {
                        campaign,
                        class: ci,
                        seed,
                        fixture,
                    };
                    report
                        .violations
                        .push(format!("{line}  # {}", why.replace('\n', " ")));
                    if report.violations.len() >= MAX_VIOLATIONS {
                        break;
                    }
                }
            }
        }
    });
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report
}

/// One reproducer / corpus line: `<campaign> <class> <seed> [<fixture>]`,
/// seeds in hex; `#` starts a comment.
#[derive(Debug, Clone, Copy)]
pub struct CorpusLine {
    /// The campaign the case belongs to.
    pub campaign: &'static Campaign,
    /// Class index into `campaign.classes`.
    pub class: usize,
    /// The case seed.
    pub seed: u64,
    /// The shared fixture's seed, for campaigns that have one.
    pub fixture: Option<u64>,
}

impl std::fmt::Display for CorpusLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (campaign, class) = (self.campaign.name, self.campaign.classes[self.class]);
        write!(f, "{campaign} {class} {:#x}", self.seed)?;
        if let Some(fixture) = self.fixture {
            write!(f, " {fixture:#x}")?;
        }
        Ok(())
    }
}

impl CorpusLine {
    /// Parse one line. `Ok(None)` for blank and comment-only lines.
    pub fn parse(line: &str) -> Result<Option<CorpusLine>, String> {
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            return Ok(None);
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        let [name, class, seed, rest @ ..] = fields.as_slice() else {
            return Err(format!("{line:?}: expected `<campaign> <class> <seed>`"));
        };
        let campaign =
            Campaign::find(name).ok_or_else(|| format!("{line:?}: unknown campaign {name:?}"))?;
        let class = campaign
            .class_index(class)
            .ok_or_else(|| format!("{line:?}: {name} has no class {class:?}"))?;
        let hex = |s: &str| {
            u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .map_err(|e| format!("{line:?}: bad seed {s:?}: {e}"))
        };
        let fixture = match (rest, campaign.shared_fixture) {
            ([], false) => None,
            ([f], true) => Some(hex(f)?),
            _ if campaign.shared_fixture => {
                return Err(format!("{line:?}: {name} lines end in a fixture seed"))
            }
            _ => return Err(format!("{line:?}: trailing fields")),
        };
        Ok(Some(CorpusLine {
            campaign,
            class,
            seed: hex(seed)?,
            fixture,
        }))
    }

    /// Re-run exactly this case.
    pub fn replay(&self) -> Result<FaultOutcome, String> {
        (self.campaign.replay)(self.class, self.seed, self.fixture)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_enums_index_their_campaign_names() {
        let snap = snapfault::FaultClass::ALL.map(|c| c as usize);
        let comb = combfault::CombFaultClass::ALL.map(|c| c as usize);
        let chaos = servechaos::ChaosClass::ALL.map(|c| c as usize);
        for (ids, campaign) in [
            (&snap[..], CAMPAIGNS[0]),
            (&comb, CAMPAIGNS[1]),
            (&chaos, CAMPAIGNS[2]),
        ] {
            assert!(
                ids.iter().copied().eq(0..campaign.classes.len()),
                "{}",
                campaign.name
            );
        }
        assert_eq!(
            &combfault::CAMPAIGN.classes[..8],
            snapfault::CAMPAIGN.classes
        );
    }

    #[test]
    fn corpus_lines_round_trip() {
        for text in [
            "snapshot bit-flip 0x1234",
            "combination task-panic 0xabc",
            "serve-chaos stall 0x5eed0003 0x5eedca05",
        ] {
            let line = CorpusLine::parse(text).unwrap().unwrap();
            assert_eq!(line.to_string(), text);
        }
        assert!(CorpusLine::parse("  # comment").unwrap().is_none());
        for bad in [
            "snapshot bit-flip",
            "snapshot no-such-class 0x1",
            "nope bit-flip 0x1",
            "snapshot bit-flip 0x1 0x2",
            "serve-chaos stall 0x1",
        ] {
            assert!(CorpusLine::parse(bad).is_err(), "{bad}");
        }
    }

    /// A violation at a case whose class is not the first of the
    /// rotation must print a line that replays that class and seed.
    #[test]
    fn a_violation_prints_a_line_that_replays_the_same_case() {
        let (base, k) = (0x5EED_0003, 5u64);
        let class = (k % 8) as usize;
        let report = run_cases(&snapfault::CAMPAIGN, base, 8, None, |ci, seed, _| {
            let outcome = snapfault::run_case(snapfault::FaultClass::ALL[ci], seed)?;
            if seed == crate::case_seed(base, k) {
                return Err("forced violation".into());
            }
            Ok(outcome)
        });
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let printed = &report.violations[0];
        assert!(printed.ends_with("# forced violation"), "{printed}");
        let line = CorpusLine::parse(printed).unwrap().unwrap();
        assert_eq!(line.campaign.name, "snapshot");
        assert_eq!(line.class, class);
        assert_eq!(line.seed, crate::case_seed(base, k));
        let direct = snapfault::run_case(snapfault::FaultClass::ALL[class], line.seed);
        assert_eq!(line.replay(), direct);
    }

    #[test]
    fn panics_become_violations_and_the_loop_stops_at_the_cap() {
        let report = run_cases(&snapfault::CAMPAIGN, 1, 100, None, |_, _, _| panic!("boom"));
        assert_eq!(report.cases, MAX_VIOLATIONS as u64);
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(report.violations[0].contains("panicked: boom"));
    }
}
