//! Fault-tolerant combination-technique executor.
//!
//! [`CombinationExecutor`] runs the combination scheme the way a
//! distributed solver would (paper §7): every component grid is an
//! independent task on the `sg-par` pool, every computed component is
//! checkpointed through the `SGCM` manifest path in `sg-io`
//! ([`sg_io::manifest`]), and recovery from the manifest is the *only*
//! way results leave the executor — so the checkpoint path is exercised
//! on every run, not just on failure. Component loss is survived via two
//! pluggable [`RecoveryPolicy`]s:
//!
//! * [`RecoveryPolicy::Recompute`] re-derives each lost support component
//!   (nonzero coefficient) by re-sampling the original function. Sampling
//!   is deterministic, so the recovered run is **bitwise identical** to
//!   the fault-free run.
//! * [`RecoveryPolicy::Reweight`] solves the inclusion–exclusion
//!   coefficient adjustment over the surviving downset
//!   ([`crate::reweight`]) — the combination analogue of `sg-io`'s
//!   `DegradedGrid` — and reports a rigorous error bound built from the
//!   per-component max-abs metadata that survives in the manifest header
//!   even when the payload is gone.
//!
//! Failure semantics by stage:
//!
//! * a component task that panics is retried once (the values never
//!   existed anywhere, so re-running the task is the only source); a
//!   second panic is a typed error, never an unwinding one.
//! * a component dropped between compute and commit is tombstoned in the
//!   manifest and handled by the recovery policy like any storage loss —
//!   its metadata (coefficient, levels, max-abs) survives in the header.
//! * storage faults (torn writes, bit flips, truncation, lost headers)
//!   surface as lost components at recovery time and are handled by the
//!   policy, or become typed errors when nothing survivable remains.
//!
//! The recovered run leaves as one [`CompactGrid`] of hierarchical
//! surpluses, not as the replicated component list: the executor folds
//! the components it ends with into the compact structure, so the
//! result evaluates, checkpoints and serves like any directly built
//! grid. A Clean or Recomputed run equals direct
//! hierarchization **bitwise**; a Reweighted run is the sparse grid
//! interpolant on the surviving downset, with zero surplus outside it.
//!
//! Output is bitwise deterministic in the thread count and in task
//! completion order: results are keyed by task index, never by arrival.

use crate::aniso::AnisoFullGrid;
use crate::reweight::{dominates, solve_reweight, ReweightPlan};
use crate::CombinationGrid;
use sg_core::error::SgError;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize_parallel;
use sg_core::iter::{for_each_level, for_each_point};
use sg_core::level::{GridSpec, Level};
use sg_core::real::Real;
use sg_io::manifest::{recover_component_set, write_component_set, ComponentMeta};
use sg_io::{MemorySink, SnapshotSink};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

tel! {
    static EXEC_TASKS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("combination.tasks_scheduled");
    static EXEC_RETRIES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("combination.task_retries");
    static EXEC_LOST: sg_telemetry::Counter =
        sg_telemetry::Counter::new("combination.components_lost");
    static EXEC_RECOMPUTED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("combination.components_recomputed");
    static EXEC_REWEIGHTED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("combination.runs_reweighted");
    static EXEC_CHECKPOINT_BYTES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("combination.checkpoint_bytes");
    static EXEC_SAMPLE_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("combination.sample_ns");
    static EXEC_RECOVER_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("combination.recover_ns");
}

/// What the executor does about components it cannot read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Re-sample every lost support component exactly; the result is
    /// bitwise identical to the fault-free run. Lost spares stay lost:
    /// the fold never reads them.
    Recompute,
    /// Re-solve the combination coefficients over the surviving downset
    /// and report a rigorous error bound; no re-sampling.
    Reweight,
}

impl RecoveryPolicy {
    /// Kebab-case name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Recompute => "recompute",
            RecoveryPolicy::Reweight => "reweight",
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Recovery policy applied to lost components.
    pub policy: RecoveryPolicy,
    /// Extra diagonals below the classical scheme to compute and
    /// checkpoint with coefficient 0. They cost little (coarse grids),
    /// never change the fault-free result, and give [`RecoveryPolicy::
    /// Reweight`] the downward room the shrunken downset's coefficients
    /// land on — the standard FTCT mitigation.
    pub spare_diagonals: usize,
    /// Provenance stamp recorded in the manifest.
    pub provenance: String,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            policy: RecoveryPolicy::Recompute,
            spare_diagonals: 1,
            provenance: String::new(),
        }
    }
}

/// Faults the test harness injects into a run (all off by default).
#[derive(Debug, Clone, Copy, Default)]
pub struct InjectedFaults {
    /// Panic the given component task on its first attempt; when the
    /// flag is true the retry panics too (persistent failure).
    pub task_panic: Option<(usize, bool)>,
    /// Drop the given component's values after compute, before the
    /// manifest commit (its metadata survives; the payload is
    /// tombstoned).
    pub drop_pre_commit: Option<usize>,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every component survived; no policy engaged.
    Clean,
    /// The listed task indices were re-sampled; the result is bitwise
    /// identical to a fault-free run.
    Recomputed {
        /// Lost support tasks that were re-derived (empty when only
        /// spares were lost).
        components: Vec<usize>,
    },
    /// The coefficients were re-solved around the listed lost tasks.
    Reweighted {
        /// Task indices excluded from the adjusted combination.
        dropped: Vec<usize>,
        /// Rigorous bound on the pointwise deviation from the fault-free
        /// interpolant (see [`crate::reweight::ReweightPlan`]).
        error_bound: f64,
    },
}

/// A completed (possibly recovered) run.
#[derive(Debug, Clone)]
pub struct ExecutorRun<T> {
    /// The combined interpolant as hierarchical surpluses on the run's
    /// sparse grid, folded from checkpoint-recovered values (plus
    /// recomputed components under Recompute).
    pub grid: CompactGrid<T>,
    /// The `(coefficient, levels)` support the grid was folded from: the
    /// classical scheme, or the re-solved coefficients under Reweight.
    pub coefficients: Vec<(i64, Vec<Level>)>,
    /// How recovery ended.
    pub outcome: RunOutcome,
    /// Task indices whose checkpoint sections were lost.
    pub lost_components: Vec<usize>,
    /// Total tasks scheduled (scheme + spare diagonals).
    pub tasks: usize,
    /// Spare-diagonal tasks among them (coefficient 0).
    pub spares: usize,
}

/// Schedules, checkpoints, and recovers a combination-technique run.
#[derive(Debug, Clone)]
pub struct CombinationExecutor {
    spec: GridSpec,
    cfg: ExecutorConfig,
}

impl CombinationExecutor {
    /// Executor with the default configuration (recompute policy, one
    /// spare diagonal).
    pub fn new(spec: GridSpec) -> Self {
        Self::with_config(spec, ExecutorConfig::default())
    }

    /// Executor with an explicit configuration.
    pub fn with_config(spec: GridSpec, cfg: ExecutorConfig) -> Self {
        Self { spec, cfg }
    }

    /// Grid shape the run represents.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// The task list: the classical scheme's `(coefficient, level)`
    /// pairs followed by the spare diagonals with coefficient 0, in a
    /// deterministic order results are keyed by.
    pub fn tasks(&self) -> Vec<(i64, Vec<Level>)> {
        let mut tasks = CombinationGrid::<f64>::scheme(self.spec);
        let d = self.spec.dim();
        let n = self.spec.max_sum();
        let lowest = n - (d - 1).min(n);
        for s in 1..=self.cfg.spare_diagonals {
            let Some(diag) = lowest.checked_sub(s) else {
                break;
            };
            for_each_level(d, diag, |l| tasks.push((0, l.to_vec())));
        }
        tasks
    }

    /// Number of spare-diagonal tasks [`Self::tasks`] appends.
    pub fn spare_tasks(&self) -> usize {
        self.tasks().len() - CombinationGrid::<f64>::scheme(self.spec).len()
    }

    /// Sample every component grid as independent tasks on the `sg-par`
    /// pool. A task that panics is retried once; a second panic is a
    /// typed error. Results are keyed by task index, so the output is
    /// bitwise identical at any thread width.
    pub fn compute_components<T: Real>(
        &self,
        f: impl Fn(&[f64]) -> T + Sync,
    ) -> Result<Vec<AnisoFullGrid<T>>, SgError> {
        self.compute_components_faulty(f, InjectedFaults::default(), None)
    }

    /// [`Self::compute_components`] with fault injection and an optional
    /// explicit completion order (a permutation of task indices; tasks
    /// then run sequentially in that order, simulating an arbitrary
    /// scheduler). Used by the fault harness and the determinism tests.
    pub fn compute_components_faulty<T: Real>(
        &self,
        f: impl Fn(&[f64]) -> T + Sync,
        faults: InjectedFaults,
        order: Option<&[usize]>,
    ) -> Result<Vec<AnisoFullGrid<T>>, SgError> {
        tel! { let sample_t0 = std::time::Instant::now(); }
        let tasks = self.tasks();
        tel! { EXEC_TASKS.add(tasks.len() as u64); }
        let f = &f;
        let run_task = |k: usize| -> Result<AnisoFullGrid<T>, String> {
            let levels = &tasks[k].1;
            for attempt in 0..2u32 {
                let injected = match faults.task_panic {
                    Some((fk, persistent)) => fk == k && (attempt == 0 || persistent),
                    None => false,
                };
                let r = catch_unwind(AssertUnwindSafe(|| {
                    if injected {
                        panic!("injected component task panic");
                    }
                    AnisoFullGrid::from_fn(levels, f)
                }));
                match r {
                    Ok(grid) => return Ok(grid),
                    Err(payload) => {
                        tel! { EXEC_RETRIES.add(1); }
                        if attempt == 1 {
                            let why = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "unknown panic".into());
                            return Err(why);
                        }
                    }
                }
            }
            unreachable!("task loop returns within two attempts")
        };
        let results: Vec<Result<AnisoFullGrid<T>, String>> = match order {
            None => {
                sg_par::par_map_enumerated_labeled(&tasks, "combination.sample", |k, _| run_task(k))
            }
            Some(perm) => {
                assert_eq!(perm.len(), tasks.len(), "order must cover every task");
                let mut seen = vec![false; tasks.len()];
                let mut slots: Vec<Option<Result<AnisoFullGrid<T>, String>>> =
                    (0..tasks.len()).map(|_| None).collect();
                for &k in perm {
                    assert!(!seen[k], "order must be a permutation of task indices");
                    seen[k] = true;
                    slots[k] = Some(run_task(k));
                }
                slots
                    .into_iter()
                    .map(|s| s.expect("permutation covered every task"))
                    .collect()
            }
        };
        tel! { EXEC_SAMPLE_NS.record(sample_t0.elapsed().as_nanos() as u64); }
        results
            .into_iter()
            .enumerate()
            .map(|(k, r)| {
                r.map_err(|why| {
                    SgError::Io(format!("component task {k} failed on both attempts: {why}"))
                })
            })
            .collect()
    }

    /// Checkpoint computed components into a manifest through `sink`.
    /// `drop_pre_commit` tombstones one component's payload while
    /// keeping its metadata — the "computed but lost before commit"
    /// fault the harness injects.
    pub fn checkpoint<T: Real>(
        &self,
        components: &[AnisoFullGrid<T>],
        sink: &mut dyn SnapshotSink,
        drop_pre_commit: Option<usize>,
    ) -> Result<(), SgError> {
        let tasks = self.tasks();
        assert_eq!(components.len(), tasks.len(), "one component per task");
        let entries: Vec<(ComponentMeta, Option<&[T]>)> = tasks
            .iter()
            .zip(components)
            .enumerate()
            .map(|(k, ((coefficient, levels), grid))| {
                let meta = ComponentMeta {
                    coefficient: *coefficient,
                    levels: levels.clone(),
                    max_abs: grid.max_abs(),
                };
                let payload = (drop_pre_commit != Some(k)).then(|| grid.values());
                (meta, payload)
            })
            .collect();
        write_component_set(self.spec.dim(), &entries, sink, &self.cfg.provenance)
    }

    /// Recover a run from published manifest bytes, applying the
    /// configured policy to any lost components, and fold the result
    /// into one [`CompactGrid`]. `f` is only sampled under
    /// [`RecoveryPolicy::Recompute`] (and must be the function the
    /// manifest was built from).
    pub fn recover_run<T: Real>(
        &self,
        bytes: &[u8],
        f: impl Fn(&[f64]) -> T + Sync,
    ) -> Result<ExecutorRun<T>, SgError> {
        tel! { let recover_t0 = std::time::Instant::now(); }
        let tasks = self.tasks();
        let recovery = recover_component_set::<T>(bytes)?;
        if recovery.info.dim != self.spec.dim() || recovery.info.components.len() != tasks.len() {
            return Err(SgError::Corrupt(
                "manifest does not describe this executor's task set".into(),
            ));
        }
        for (k, ((coefficient, levels), meta)) in
            tasks.iter().zip(&recovery.info.components).enumerate()
        {
            if meta.coefficient != *coefficient || &meta.levels != levels {
                return Err(SgError::Corrupt(format!(
                    "manifest component {k} does not match the scheduled task"
                )));
            }
        }
        let lost = recovery.lost_components();
        tel! { EXEC_LOST.add(lost.len() as u64); }
        let mut payloads = recovery.payloads;
        let scheme = || tasks.iter().filter(|(c, _)| *c != 0).cloned().collect();
        let (coefficients, outcome) = match self.cfg.policy {
            _ if lost.is_empty() => (scheme(), RunOutcome::Clean),
            RecoveryPolicy::Recompute => {
                // The fold reads only support payloads.
                let components: Vec<usize> =
                    lost.iter().copied().filter(|&k| tasks[k].0 != 0).collect();
                for &k in &components {
                    let grid = AnisoFullGrid::from_fn(&tasks[k].1, &f);
                    payloads[k] = Some(grid.values().to_vec());
                    tel! { EXEC_RECOMPUTED.add(1); }
                }
                (scheme(), RunOutcome::Recomputed { components })
            }
            RecoveryPolicy::Reweight => {
                let plan = self.reweight(&tasks, &recovery.info.components, &payloads, &lost)?;
                tel! { EXEC_REWEIGHTED.add(1); }
                let outcome = RunOutcome::Reweighted {
                    dropped: lost.clone(),
                    error_bound: plan.error_bound,
                };
                (plan.coefficients, outcome)
            }
        };
        let grid = self.fold(&tasks, payloads, &coefficients)?;
        tel! { EXEC_RECOVER_NS.record(recover_t0.elapsed().as_nanos() as u64); }
        Ok(ExecutorRun {
            grid,
            coefficients,
            outcome,
            lost_components: lost,
            tasks: tasks.len(),
            spares: tasks.iter().filter(|(c, _)| *c == 0).count(),
        })
    }

    /// Re-solve the coefficients over the components whose payloads
    /// survived.
    fn reweight<T>(
        &self,
        tasks: &[(i64, Vec<Level>)],
        metas: &[ComponentMeta],
        payloads: &[Option<Vec<T>>],
        lost: &[usize],
    ) -> Result<ReweightPlan, SgError> {
        let d = self.spec.dim();
        let mut full_downset = Vec::new();
        for s in 0..=self.spec.max_sum() {
            for_each_level(d, s, |l| full_downset.push(l.to_vec()));
        }
        let available: BTreeSet<Vec<Level>> = tasks
            .iter()
            .zip(payloads)
            .filter(|(_, payload)| payload.is_some())
            .map(|((_, l), _)| l.clone())
            .collect();
        let max_abs: BTreeMap<Vec<Level>, f64> = metas
            .iter()
            .map(|m| (m.levels.clone(), m.max_abs))
            .collect();
        solve_reweight(tasks, &full_downset, &available, &max_abs).map_err(|why| {
            SgError::Corrupt(format!(
                "reweight infeasible over lost components {lost:?}: {why}"
            ))
        })
    }

    /// Fold the support components into one hierarchized sparse grid.
    ///
    /// Inside the downward closure of the support the combination
    /// interpolant *is* the sparse grid interpolant, so the coefficients
    /// do not enter: every subspace `l` copies its nodal values from any
    /// support component `c ≥ l` — point `(l, i)` sits at multi-index
    /// `(i_t << (c_t − l_t)) − 1`, and every component holding a point
    /// stores the same `f(x)` bits — and the grid is hierarchized.
    /// Subspaces no component dominates (only under Reweight) get zero
    /// surplus; a surplus reads only its ancestors, which lie in the same
    /// downset, so the zeroing is exact.
    fn fold<T: Real>(
        &self,
        tasks: &[(i64, Vec<Level>)],
        payloads: Vec<Option<Vec<T>>>,
        support: &[(i64, Vec<Level>)],
    ) -> Result<CompactGrid<T>, SgError> {
        let parts: Vec<AnisoFullGrid<T>> = tasks
            .iter()
            .zip(payloads)
            .filter(|((_, l), _)| support.iter().any(|(_, c)| c == l))
            .map(|((_, l), payload)| {
                AnisoFullGrid::from_values(l, payload.expect("support payloads are present"))
            })
            .collect();
        let mut grid = CompactGrid::try_new(self.spec)?;
        let d = self.spec.dim();
        let values = grid.values_mut();
        let mut at = vec![Level::MAX; d];
        let mut pick = None;
        let mut uncovered = Vec::new();
        let mut multi = vec![0usize; d];
        for_each_point(&self.spec, |idx, l, i| {
            let idx = idx as usize;
            if l != at {
                at.copy_from_slice(l);
                pick = parts.iter().find(|c| dominates(c.levels(), l));
                if pick.is_none() {
                    let n: u32 = l.iter().map(|&v| v as u32).sum();
                    uncovered.push(idx..idx + (1 << n));
                }
            }
            if let Some(c) = pick {
                for t in 0..d {
                    multi[t] = ((i[t] as usize) << (c.levels()[t] - l[t])) - 1;
                }
                values[idx] = c.get(&multi);
            }
        });
        hierarchize_parallel(&mut grid);
        for points in uncovered {
            grid.values_mut()[points].fill(T::ZERO);
        }
        Ok(grid)
    }

    /// Full pipeline through an in-memory checkpoint: compute, write the
    /// manifest, read it back, recover. The returned grid always went
    /// through the serialization path, so every run exercises it.
    pub fn run<T: Real>(&self, f: impl Fn(&[f64]) -> T + Sync) -> Result<ExecutorRun<T>, SgError> {
        let components = self.compute_components(&f)?;
        let mut sink = MemorySink::new();
        self.checkpoint(&components, &mut sink, None)?;
        let bytes = sink
            .into_published()
            .ok_or_else(|| SgError::Io("checkpoint did not commit".into()))?;
        tel! { EXEC_CHECKPOINT_BYTES.add(bytes.len() as u64); }
        self.recover_run(&bytes, &f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::evaluate::evaluate;
    use sg_io::FaultSink;

    fn test_fn(x: &[f64]) -> f64 {
        x.iter()
            .enumerate()
            .map(|(t, &v)| (1.0 + 0.3 * t as f64) * v * (1.0 - v))
            .product::<f64>()
            + x.iter().sum::<f64>().sin()
    }

    fn gold(spec: GridSpec) -> ExecutorRun<f64> {
        let run = CombinationExecutor::new(spec).run(test_fn).unwrap();
        assert_eq!(run.outcome, RunOutcome::Clean);
        run
    }

    fn bits(grid: &CompactGrid<f64>) -> Vec<u64> {
        grid.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn clean_run_matches_from_fn_bitwise() {
        let spec = GridSpec::new(3, 4);
        let run = gold(spec);
        let mut direct = CompactGrid::<f64>::from_fn(spec, test_fn);
        sg_core::hierarchize::hierarchize(&mut direct);
        assert_eq!(bits(&run.grid), bits(&direct));
        assert_eq!(run.coefficients, CombinationGrid::<f64>::scheme(spec));
        assert_eq!(run.tasks - run.spares, run.coefficients.len());
        assert!(run.spares > 0);
    }

    #[test]
    fn task_panic_is_retried_and_bitwise_clean() {
        let spec = GridSpec::new(2, 3);
        let exec = CombinationExecutor::new(spec);
        let order: Vec<usize> = (0..exec.tasks().len()).collect();
        let faults = InjectedFaults {
            task_panic: Some((1, false)),
            drop_pre_commit: None,
        };
        let components = exec
            .compute_components_faulty(test_fn, faults, Some(&order))
            .unwrap();
        let clean = exec.compute_components(test_fn).unwrap();
        assert_eq!(components.len(), clean.len());
        for (a, b) in components.iter().zip(&clean) {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn persistent_task_panic_is_a_typed_error() {
        let spec = GridSpec::new(2, 3);
        let exec = CombinationExecutor::new(spec);
        let order: Vec<usize> = (0..exec.tasks().len()).collect();
        let faults = InjectedFaults {
            task_panic: Some((0, true)),
            drop_pre_commit: None,
        };
        let err = exec
            .compute_components_faulty(test_fn, faults, Some(&order))
            .unwrap_err();
        assert!(matches!(err, SgError::Io(_)), "{err}");
    }

    #[test]
    fn drop_pre_commit_recompute_restores_bitwise_identity() {
        // Level 4 schedules one spare below the scheme's lowest diagonal.
        let spec = GridSpec::new(3, 4);
        let exec = CombinationExecutor::new(spec);
        assert_eq!(exec.spare_tasks(), 1);
        let reference = gold(spec);
        let components = exec.compute_components(test_fn).unwrap();
        for (k, (coefficient, _)) in exec.tasks().iter().enumerate() {
            let mut sink = MemorySink::new();
            exec.checkpoint(&components, &mut sink, Some(k)).unwrap();
            let bytes = sink.into_published().unwrap();
            let run = exec.recover_run(&bytes, test_fn).unwrap();
            assert_eq!(run.lost_components, vec![k]);
            // A lost spare is not re-sampled: the fold never reads it.
            let resampled = if *coefficient != 0 { vec![k] } else { vec![] };
            assert_eq!(
                run.outcome,
                RunOutcome::Recomputed {
                    components: resampled
                }
            );
            assert_eq!(bits(&run.grid), bits(&reference.grid), "k={k}");
        }
    }

    #[test]
    fn drop_pre_commit_reweight_stays_within_its_bound() {
        let spec = GridSpec::new(3, 3);
        let exec = CombinationExecutor::with_config(
            spec,
            ExecutorConfig {
                policy: RecoveryPolicy::Reweight,
                ..ExecutorConfig::default()
            },
        );
        let reference = gold(spec);
        let components = exec.compute_components(test_fn).unwrap();
        let xs = sg_core::functions::halton_points(3, 40);
        for k in 0..exec.tasks().len() {
            let mut sink = MemorySink::new();
            exec.checkpoint(&components, &mut sink, Some(k)).unwrap();
            let bytes = sink.into_published().unwrap();
            let run = match exec.recover_run(&bytes, test_fn) {
                Ok(run) => run,
                // A shrink that strands every usable downset is allowed
                // to fail typed.
                Err(SgError::Corrupt(_)) => continue,
                Err(other) => panic!("unexpected error class: {other}"),
            };
            let RunOutcome::Reweighted {
                ref dropped,
                error_bound,
            } = run.outcome
            else {
                panic!("expected a reweighted outcome, got {:?}", run.outcome)
            };
            assert_eq!(dropped, &[k]);
            assert!(error_bound.is_finite() && error_bound >= 0.0);
            for x in xs.chunks_exact(3) {
                let a = evaluate(&run.grid, x);
                let b = evaluate(&reference.grid, x);
                assert!(
                    (a - b).abs() <= error_bound + 1e-9,
                    "k={k} x={x:?}: |{a} − {b}| exceeds bound {error_bound}"
                );
            }
            // Constants must still be exact: coefficients sum to 1.
            let total: i64 = run.coefficients.iter().map(|(c, _)| c).sum();
            assert_eq!(total, 1, "k={k}");
        }
    }

    #[test]
    fn torn_manifest_recompute_is_bitwise() {
        let spec = GridSpec::new(2, 4);
        let exec = CombinationExecutor::new(spec);
        let reference = gold(spec);
        let components = exec.compute_components(test_fn).unwrap();
        // Baseline manifest to learn the section boundaries.
        let mut sink = MemorySink::new();
        exec.checkpoint(&components, &mut sink, None).unwrap();
        let bytes = sink.into_published().unwrap();
        let bounds = sg_io::component_boundaries(&bytes).unwrap();
        // Tear mid-section 2 but let the commit go through.
        let mut sink = FaultSink::new(sg_io::WriteFault::Torn {
            after_bytes: bounds[2] + 7,
        });
        exec.checkpoint(&components, &mut sink, None).unwrap();
        let torn = sink.into_published().unwrap();
        let run = exec.recover_run(&torn, test_fn).unwrap();
        assert!(!run.lost_components.is_empty());
        assert_eq!(bits(&run.grid), bits(&reference.grid));
    }

    #[test]
    fn completion_order_does_not_change_bits() {
        let spec = GridSpec::new(3, 3);
        let exec = CombinationExecutor::new(spec);
        let n = exec.tasks().len();
        let forward: Vec<usize> = (0..n).collect();
        let reverse: Vec<usize> = (0..n).rev().collect();
        let a = exec
            .compute_components_faulty(test_fn, InjectedFaults::default(), Some(&forward))
            .unwrap();
        let b = exec
            .compute_components_faulty(test_fn, InjectedFaults::default(), Some(&reverse))
            .unwrap();
        let c = exec.compute_components(test_fn).unwrap();
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.values(), y.values());
            assert_eq!(x.values(), z.values());
        }
    }

    #[test]
    fn spare_diagonals_do_not_change_the_clean_result() {
        let spec = GridSpec::new(3, 4);
        let with_spares = CombinationExecutor::with_config(
            spec,
            ExecutorConfig {
                spare_diagonals: 2,
                ..ExecutorConfig::default()
            },
        )
        .run(test_fn)
        .unwrap();
        let without = CombinationExecutor::with_config(
            spec,
            ExecutorConfig {
                spare_diagonals: 0,
                ..ExecutorConfig::default()
            },
        )
        .run(test_fn)
        .unwrap();
        assert_eq!(bits(&with_spares.grid), bits(&without.grid));
    }

    #[test]
    fn garbage_manifest_is_a_typed_error() {
        let exec = CombinationExecutor::new(GridSpec::new(2, 3));
        assert!(exec.recover_run::<f64>(b"junk", test_fn).is_err());
        // A manifest for a different task set is rejected.
        let other = CombinationExecutor::new(GridSpec::new(2, 4));
        let components = other.compute_components(test_fn).unwrap();
        let mut sink = MemorySink::new();
        other.checkpoint(&components, &mut sink, None).unwrap();
        let bytes = sink.into_published().unwrap();
        assert!(matches!(
            exec.recover_run::<f64>(&bytes, test_fn),
            Err(SgError::Corrupt(_))
        ));
    }
}
