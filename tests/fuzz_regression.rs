//! Replays the failing-case corpus (`tests/corpus/fuzz_seeds.txt`)
//! through the sg-fuzz differential executor.
//!
//! Each line of the corpus is an `<op> <seed>` pair: either a seed that
//! once exposed a real divergence (kept forever as a regression guard)
//! or a pinned clean canary. The corpus format is the same `op`/`seed`
//! vocabulary the fuzzer's reproducer lines print, so promoting a new
//! finding into the corpus is a one-line paste. The fault-campaign
//! corpus (`tests/corpus/campaign_seeds.txt`) works the same way with
//! the lines `sgtool fuzz --campaign` prints.

use sg_fuzz::{diff, Case, CorpusLine, Injection, Op};

fn corpus() -> Vec<(Op, u64)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/fuzz_seeds.txt"
    );
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (op, seed) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("corpus line {}: expected `<op> <seed>`", lineno + 1));
        let op = Op::parse(op)
            .unwrap_or_else(|| panic!("corpus line {}: unknown op {op:?}", lineno + 1));
        let seed = seed
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16))
            .unwrap_or_else(|| seed.parse())
            .unwrap_or_else(|e| panic!("corpus line {}: bad seed: {e}", lineno + 1));
        entries.push((op, seed));
    }
    entries
}

#[test]
fn corpus_is_non_trivial() {
    let entries = corpus();
    assert!(entries.len() >= 10, "corpus shrank to {}", entries.len());
    // The corpus must keep exercising the op that once diverged.
    assert!(entries.iter().any(|(op, _)| *op == Op::Adaptive));
}

#[test]
fn every_corpus_seed_passes_the_differential_executor() {
    for (op, seed) in corpus() {
        let case = Case::new(op, seed);
        if let Err(failure) = diff::run_case(&case, Injection::None) {
            panic!(
                "corpus regression: op={} seed={seed:#x} diverged again: {}",
                op.name(),
                failure.detail
            );
        }
    }
}

/// Replay the fault-campaign canary corpus
/// (`tests/corpus/campaign_seeds.txt`): every line must stay inside the
/// detect-or-recover contract, and every campaign keeps its canaries.
#[test]
fn every_campaign_corpus_line_replays_clean() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/campaign_seeds.txt"
    );
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    let mut replayed = std::collections::BTreeMap::<&str, usize>::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line =
            CorpusLine::parse(raw).unwrap_or_else(|e| panic!("corpus line {}: {e}", lineno + 1));
        let Some(line) = line else { continue };
        if let Err(why) = line.replay() {
            panic!(
                "corpus line {} ({line}) violated the contract: {why}",
                lineno + 1
            );
        }
        *replayed.entry(line.campaign.name).or_default() += 1;
    }
    for campaign in sg_fuzz::CAMPAIGNS {
        let n = replayed.get(campaign.name).copied().unwrap_or(0);
        assert!(
            n >= campaign.classes.len(),
            "{} corpus shrank to {n} lines",
            campaign.name
        );
    }
}
