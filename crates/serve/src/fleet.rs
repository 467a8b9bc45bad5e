//! The model fleet: named, snapshot-backed grids behind atomic pointers.
//!
//! Each model is an immutable [`CompactGrid`] plus its prebuilt
//! [`EvalPlan`], loaded from an SGC2 snapshot. The fleet keys a *set* of
//! independent grids by name (Hupp-style combination workloads run many
//! component grids side by side) rather than owning one monolith.
//!
//! Readers resolve a name to a slot index (a short read-lock on the name
//! map — contended only by load/unload, never by swap), then pin an
//! epoch and read the slot's `AtomicPtr`. **Swap** builds the new model
//! off to the side, replaces the pointer, and retires the old model
//! through the [`crate::epoch`] domain: in-flight evaluations keep their
//! pinned model until they finish, so a swap under load never blocks a
//! reader and never frees a model someone is still evaluating.

use crate::epoch::{EpochDomain, Participant, PinGuard};
use crate::protocol::ServeError;
use sg_core::functions::TestFunction;
use sg_core::grid::CompactGrid;
use sg_core::plan::EvalPlan;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

#[cfg(feature = "telemetry")]
static DEGRADED_LOADS: sg_telemetry::Counter = sg_telemetry::Counter::new("serve.degraded.loads");
#[cfg(feature = "telemetry")]
static DEGRADED_REPAIRED: sg_telemetry::Counter =
    sg_telemetry::Counter::new("serve.degraded.repaired");

/// Per-model counters, leaked once per model *name* (not per load, so a
/// thousand hot swaps of one name cost one registration) and shared by
/// every generation serving under that name.
#[cfg(feature = "telemetry")]
mod model_tel {
    use std::sync::Mutex;

    pub struct ModelCounters {
        pub requests: &'static sg_telemetry::Counter,
        pub points: &'static sg_telemetry::Counter,
    }

    static REGISTRY: Mutex<Vec<(String, &'static ModelCounters)>> = Mutex::new(Vec::new());

    fn leak_counter(name: String) -> &'static sg_telemetry::Counter {
        Box::leak(Box::new(sg_telemetry::Counter::new(Box::leak(
            name.into_boxed_str(),
        ))))
    }

    pub fn counters_for(model: &str) -> &'static ModelCounters {
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, c)) = reg.iter().find(|(n, _)| n == model) {
            return c;
        }
        let counters: &'static ModelCounters = Box::leak(Box::new(ModelCounters {
            requests: leak_counter(format!("serve.model.{model}.requests")),
            points: leak_counter(format!("serve.model.{model}.points")),
        }));
        reg.push((model.to_owned(), counters));
        counters
    }
}

/// An immutable serving model: grid, plan, and provenance.
pub struct Model {
    /// Name the model serves under.
    pub name: String,
    /// Hierarchized coefficients.
    pub grid: CompactGrid<f64>,
    /// Flattened subspace walk shared by every evaluation against this
    /// model.
    pub plan: EvalPlan,
    /// Snapshot provenance stamp.
    pub provenance: String,
    /// Fleet-wide load sequence number (bumps on every load/swap).
    pub generation: u64,
    /// Snapshot file the model was loaded from (re-read by repair).
    pub source: PathBuf,
    /// Reference function registered at load time; repair re-samples it
    /// to reconstruct lost groups bitwise-identically.
    pub repair_fn: Option<TestFunction>,
    /// Level groups lost to snapshot damage, zero-filled in `grid`
    /// (empty ⇔ the model is complete).
    pub lost_groups: Vec<usize>,
    #[cfg(feature = "telemetry")]
    counters: &'static model_tel::ModelCounters,
}

/// Recover the snapshot at `path` straight from the file: one pass that
/// verifies every section as it decodes it into the grid, with no
/// whole-file buffer. `step` names the recovery in its error.
fn recover_file(path: &Path, step: &str) -> Result<sg_io::Recovery<f64>, ServeError> {
    let file = std::fs::File::open(path)
        .map_err(|e| ServeError::Model(format!("reading {}: {e}", path.display())))?;
    sg_io::recover_snapshot_from::<f64>(&file)
        .map_err(|e| ServeError::Model(format!("{step} {}: {e}", path.display())))
}

impl Model {
    fn from_parts(
        name: &str,
        grid: CompactGrid<f64>,
        provenance: String,
        generation: u64,
        source: PathBuf,
        repair_fn: Option<TestFunction>,
        lost_groups: Vec<usize>,
    ) -> Model {
        let plan = EvalPlan::new(grid.spec());
        Model {
            name: name.to_owned(),
            grid,
            plan,
            provenance,
            generation,
            source,
            repair_fn,
            lost_groups,
            #[cfg(feature = "telemetry")]
            counters: model_tel::counters_for(name),
        }
    }

    /// Load a model from an SGC2 snapshot file and prebuild its plan.
    /// Strict: a damaged snapshot is a typed error (degraded fallback
    /// lives in [`Fleet::load_or_degraded`]).
    pub fn from_snapshot_file(
        name: &str,
        path: &Path,
        generation: u64,
    ) -> Result<Model, ServeError> {
        let recovery = recover_file(path, "loading")?;
        let grid = recovery
            .grid
            .into_complete()
            .map_err(|e| ServeError::Model(format!("loading {}: {e}", path.display())))?;
        Ok(Model::from_parts(
            name,
            grid,
            recovery.info.provenance,
            generation,
            path.to_owned(),
            None,
            Vec::new(),
        ))
    }

    /// Dimensionality of the model's domain.
    pub fn dim(&self) -> usize {
        self.grid.spec().dim()
    }

    /// True when the model was salvaged from a damaged snapshot and is
    /// serving the bounded degraded interpolant (lost groups as zero).
    pub fn is_degraded(&self) -> bool {
        !self.lost_groups.is_empty()
    }

    /// Bump this model's `serve.model.<name>.*` counters after an
    /// evaluation.
    /// No-op without the `telemetry` feature.
    #[allow(unused_variables)]
    pub fn record_served(&self, requests: u64, points: u64) {
        crate::tel! {
            self.counters.requests.add(requests);
            self.counters.points.add(points);
        }
    }
}

/// One fleet slot: the current model pointer (null = unloaded).
struct Slot {
    current: AtomicPtr<Model>,
}

/// The registry of live models.
pub struct Fleet {
    domain: Arc<EpochDomain<Model>>,
    slots: Vec<Slot>,
    names: RwLock<HashMap<String, usize>>,
    generation: AtomicU64,
}

impl Fleet {
    /// A fleet with at most `max_models` concurrently loaded models.
    pub fn new(max_models: usize) -> Arc<Fleet> {
        let slots = (0..max_models.max(1))
            .map(|_| Slot {
                current: AtomicPtr::new(std::ptr::null_mut()),
            })
            .collect();
        Arc::new(Fleet {
            domain: Arc::new(EpochDomain::new()),
            slots,
            names: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
        })
    }

    /// Register a reader with the reclamation domain (one per
    /// connection, never per request).
    pub fn register_reader(&self) -> Participant<Model> {
        self.domain.register()
    }

    /// Publish `model` under `name`: allocate or reuse the name's slot,
    /// flip the pointer atomically, and retire the old model to the
    /// epoch domain. With `expect_generation`, the swap happens only if
    /// the serving model's generation still matches — a repair racing a
    /// concurrent hot swap must never clobber the newer model. Returns
    /// whether the model was installed.
    fn install(
        &self,
        name: &str,
        model: Box<Model>,
        expect_generation: Option<u64>,
    ) -> Result<bool, ServeError> {
        let mut names = self.names.write().unwrap_or_else(|e| e.into_inner());
        let slot = match names.get(name) {
            Some(&s) => s,
            None if expect_generation.is_some() => return Ok(false), // unloaded meanwhile
            None => {
                let used: Vec<usize> = names.values().copied().collect();
                let Some(free) = (0..self.slots.len()).find(|s| !used.contains(s)) else {
                    return Err(ServeError::Model(format!(
                        "fleet is full ({} models); unload one first",
                        self.slots.len()
                    )));
                };
                names.insert(name.to_owned(), free);
                free
            }
        };
        if let Some(expect) = expect_generation {
            let cur = self.slots[slot].current.load(Ordering::SeqCst);
            // SAFETY: load/unload retire the current pointer only while
            // holding the names write lock, so it stays live here.
            if unsafe { cur.as_ref() }.map(|m| m.generation) != Some(expect) {
                return Ok(false);
            }
        }
        let old = self.slots[slot]
            .current
            .swap(Box::into_raw(model), Ordering::SeqCst);
        drop(names);
        if !old.is_null() {
            // SAFETY: `old` was just unlinked from its only published
            // location; the domain frees it after readers move on.
            self.domain.retire(unsafe { Box::from_raw(old) });
        }
        Ok(true)
    }

    /// Load `path` under `name`. If the name is already serving, this is
    /// a hot swap: the pointer flips atomically and the old model is
    /// retired to the epoch domain. Returns the new generation number.
    pub fn load(&self, name: &str, path: &Path) -> Result<u64, ServeError> {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let model = Box::new(Model::from_snapshot_file(name, path, generation)?);
        self.install(name, model, None)?;
        Ok(generation)
    }

    /// Load `path` under `name`, falling back to degraded serving when
    /// the snapshot is damaged: intact level groups answer with their
    /// original coefficients, lost groups drop out of the interpolant
    /// (zero surpluses — exactly [`sg_io::DegradedGrid`] semantics), and
    /// every response is flagged degraded until a repair swaps in the
    /// complete grid. Returns the generation and the lost groups (empty
    /// = clean load). A snapshot with no salvageable group is still a
    /// typed error, not an all-zero model.
    pub fn load_or_degraded(
        &self,
        name: &str,
        path: &Path,
        repair_fn: Option<TestFunction>,
    ) -> Result<(u64, Vec<usize>), ServeError> {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let rec = recover_file(path, "recovering")?;
        let lost = rec.grid.lost_groups().to_vec();
        let levels = rec.grid.grid().spec().levels();
        if lost.len() >= levels {
            return Err(ServeError::Model(format!(
                "{}: every level group is damaged; nothing to serve",
                path.display()
            )));
        }
        let grid = if lost.is_empty() {
            rec.grid.into_complete().expect("no lost groups")
        } else {
            rec.grid.grid().clone()
        };
        let model = Box::new(Model::from_parts(
            name,
            grid,
            rec.info.provenance,
            generation,
            path.to_owned(),
            repair_fn,
            lost.clone(),
        ));
        crate::tel! {
            if !lost.is_empty() {
                DEGRADED_LOADS.add(1);
            }
        }
        self.install(name, model, None)?;
        Ok((generation, lost))
    }

    /// Attempt to repair a degraded model: re-recover its snapshot and
    /// reconstruct the lost groups — via the registered repair function
    /// (re-sample + re-hierarchize, bitwise-identical to the lost
    /// originals) or, without one, a strict re-read of the source path
    /// (which succeeds once the file is replaced intact). On success the
    /// complete grid hot-swaps in behind the epoch domain, unless a
    /// concurrent load superseded the degraded generation. Returns
    /// whether a repaired model was swapped in (`false` = the model is
    /// not degraded or was superseded).
    pub fn repair(&self, reader: &Participant<Model>, name: &str) -> Result<bool, ServeError> {
        let (expect, source, repair_fn, degraded) = self.with_model(reader, name, |m| {
            (m.generation, m.source.clone(), m.repair_fn, m.is_degraded())
        })?;
        if !degraded {
            return Ok(false);
        }
        let rec = recover_file(&source, "recovering")?;
        let grid = match repair_fn {
            Some(f) => rec.grid.repair_with(|x| f.eval(x)),
            None => rec.grid.into_complete().map_err(|e| {
                ServeError::Model(format!(
                    "'{name}' has no repair function and {} is still damaged: {e}",
                    source.display()
                ))
            })?,
        };
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let provenance = rec.info.provenance;
        let model = Box::new(Model::from_parts(
            name,
            grid,
            provenance,
            generation,
            source,
            repair_fn,
            Vec::new(),
        ));
        let swapped = self.install(name, model, Some(expect))?;
        crate::tel! {
            if swapped {
                DEGRADED_REPAIRED.add(1);
            }
        }
        Ok(swapped)
    }

    /// Names currently serving degraded (repair-worklist order).
    pub fn degraded_models(&self, reader: &Participant<Model>) -> Vec<String> {
        self.names()
            .into_iter()
            .filter(|n| {
                self.with_model(reader, n, |m| m.is_degraded())
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Unload `name`, retiring its model. Typed error if unknown.
    pub fn unload(&self, name: &str) -> Result<(), ServeError> {
        let mut names = self.names.write().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = names.remove(name) else {
            return Err(ServeError::UnknownModel(name.to_owned()));
        };
        let old = self.slots[slot]
            .current
            .swap(std::ptr::null_mut(), Ordering::SeqCst);
        drop(names);
        if !old.is_null() {
            // SAFETY: as in `load` — unlinked, ownership moves to the
            // reclamation domain.
            self.domain.retire(unsafe { Box::from_raw(old) });
        }
        Ok(())
    }

    /// Resolve a model name to its slot index. Allocation-free: a short
    /// read lock plus a map lookup by `&str`.
    pub fn resolve(&self, name: &str) -> Option<usize> {
        self.names
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }

    /// Read the model in `slot` under an epoch pin. Returns `None` when
    /// the slot was unloaded between resolve and pin.
    ///
    /// The returned reference borrows the pin guard: the model cannot be
    /// freed while it is alive, which is exactly the epoch contract.
    pub fn get<'g>(&self, slot: usize, _guard: &'g PinGuard<'_, Model>) -> Option<&'g Model> {
        let ptr = self.slots[slot].current.load(Ordering::SeqCst);
        // SAFETY: non-null pointers in a slot always point to a live
        // model: they are only ever freed through the epoch domain, and
        // `_guard` pins an epoch at or before this load.
        unsafe { ptr.as_ref() }
    }

    /// Convenience for control paths (stats, dim checks): pin, read,
    /// copy out a small projection of the model.
    pub fn with_model<R>(
        &self,
        reader: &Participant<Model>,
        name: &str,
        f: impl FnOnce(&Model) -> R,
    ) -> Result<R, ServeError> {
        let slot = self
            .resolve(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_owned()))?;
        let guard = reader.pin();
        let model = self
            .get(slot, &guard)
            .ok_or_else(|| ServeError::UnknownModel(name.to_owned()))?;
        Ok(f(model))
    }

    /// Names currently serving, sorted for stable output.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .names
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Retired-but-unfreed model count (test hook).
    pub fn garbage_len(&self) -> usize {
        self.domain.garbage_len()
    }

    /// Force a reclamation pass (tests; writers collect automatically).
    pub fn collect(&self) {
        self.domain.collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for slot in &self.slots {
            let ptr = slot.current.swap(std::ptr::null_mut(), Ordering::SeqCst);
            if !ptr.is_null() {
                // SAFETY: the fleet is the only owner left — no reader
                // can hold a pin across the fleet's own drop.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::hierarchize::hierarchize;
    use sg_core::level::GridSpec;

    fn snapshot_file(tag: &str, scale: f64) -> std::path::PathBuf {
        let mut g = CompactGrid::from_fn(GridSpec::new(2, 4), |x| scale * (x[0] + 2.0 * x[1]));
        hierarchize(&mut g);
        let path =
            std::env::temp_dir().join(format!("sg-serve-fleet-{}-{tag}.sgcs", std::process::id()));
        sg_io::write_snapshot_file(&g, &path, "fleet-test").unwrap();
        path
    }

    #[test]
    fn load_resolve_swap_unload() {
        let fleet = Fleet::new(4);
        let reader = fleet.register_reader();
        let p1 = snapshot_file("a", 1.0);
        let p2 = snapshot_file("b", 3.0);
        let g1 = fleet.load("m", &p1).unwrap();
        let dim = fleet.with_model(&reader, "m", |m| m.dim()).unwrap();
        assert_eq!(dim, 2);
        let g2 = fleet.load("m", &p2).unwrap();
        assert!(g2 > g1);
        fleet.collect();
        assert_eq!(fleet.garbage_len(), 0, "no reader pinned: swap frees old");
        assert!(matches!(
            fleet.unload("missing"),
            Err(ServeError::UnknownModel(_))
        ));
        fleet.unload("m").unwrap();
        assert!(fleet.resolve("m").is_none());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn pinned_reader_keeps_the_old_model_alive_across_a_swap() {
        let fleet = Fleet::new(2);
        let reader = fleet.register_reader();
        let p1 = snapshot_file("pin-a", 1.0);
        let p2 = snapshot_file("pin-b", 2.0);
        fleet.load("m", &p1).unwrap();
        let slot = fleet.resolve("m").unwrap();
        let guard = reader.pin();
        let old = fleet.get(slot, &guard).unwrap();
        let old_gen = old.generation;
        fleet.load("m", &p2).unwrap();
        // The pinned reference must still be the old, intact model.
        assert_eq!(old.generation, old_gen);
        assert_eq!(fleet.garbage_len(), 1);
        drop(guard);
        fleet.collect();
        assert_eq!(fleet.garbage_len(), 0);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn degraded_load_serves_salvage_and_repair_restores_bitwise() {
        let mut g = CompactGrid::from_fn(GridSpec::new(2, 4), |x| TestFunction::Gaussian.eval(x));
        hierarchize(&mut g);
        let path = std::env::temp_dir().join(format!(
            "sg-serve-fleet-{}-degraded.sgcs",
            std::process::id()
        ));
        sg_io::write_snapshot_file(&g, &path, "fleet-test").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let bounds = sg_io::section_boundaries(&bytes).unwrap();
        bytes[bounds[2] + 9] ^= 0x40; // damage one level-group section
        std::fs::write(&path, &bytes).unwrap();

        let fleet = Fleet::new(2);
        let reader = fleet.register_reader();
        // Strict load refuses the damaged snapshot, typed.
        assert!(matches!(fleet.load("m", &path), Err(ServeError::Model(_))));
        // Degraded load serves the salvage immediately.
        let (gen1, lost) = fleet
            .load_or_degraded("m", &path, Some(TestFunction::Gaussian))
            .unwrap();
        assert!(!lost.is_empty());
        assert_eq!(fleet.degraded_models(&reader), vec!["m".to_string()]);
        // Served values are exactly DegradedGrid semantics.
        let rec = sg_io::recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(rec.grid.lost_groups(), &lost[..]);
        let x = [0.3, 0.7];
        let served = fleet
            .with_model(&reader, "m", |m| {
                assert!(m.is_degraded());
                sg_core::evaluate::evaluate(&m.grid, &x)
            })
            .unwrap();
        assert_eq!(served.to_bits(), rec.grid.evaluate(&x).to_bits());
        // Repair re-hierarchizes the lost groups and swaps in a grid
        // bitwise-identical to the clean one.
        assert!(fleet.repair(&reader, "m").unwrap());
        fleet
            .with_model(&reader, "m", |m| {
                assert!(!m.is_degraded());
                assert!(m.generation > gen1);
                assert_eq!(m.grid.values(), g.values());
            })
            .unwrap();
        // Repairing a complete model is a no-op.
        assert!(!fleet.repair(&reader, "m").unwrap());
        assert!(fleet.degraded_models(&reader).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degraded_load_without_repair_fn_recovers_when_file_is_replaced() {
        let mut g = CompactGrid::from_fn(GridSpec::new(2, 3), |x| x[0] * x[1]);
        hierarchize(&mut g);
        let path = std::env::temp_dir().join(format!(
            "sg-serve-fleet-{}-replace.sgcs",
            std::process::id()
        ));
        sg_io::write_snapshot_file(&g, &path, "fleet-test").unwrap();
        let intact = std::fs::read(&path).unwrap();
        let mut bytes = intact.clone();
        let bounds = sg_io::section_boundaries(&bytes).unwrap();
        bytes[bounds[1] + 9] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let fleet = Fleet::new(2);
        let reader = fleet.register_reader();
        let (_, lost) = fleet.load_or_degraded("m", &path, None).unwrap();
        assert!(!lost.is_empty());
        // No repair function and the file is still damaged: typed error.
        assert!(matches!(
            fleet.repair(&reader, "m"),
            Err(ServeError::Model(_))
        ));
        // Once an intact file lands at the source path, repair succeeds.
        std::fs::write(&path, &intact).unwrap();
        assert!(fleet.repair(&reader, "m").unwrap());
        fleet
            .with_model(&reader, "m", |m| {
                assert_eq!(m.grid.values(), g.values());
            })
            .unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_capacity_is_enforced() {
        let fleet = Fleet::new(1);
        let p1 = snapshot_file("cap-a", 1.0);
        let p2 = snapshot_file("cap-b", 2.0);
        fleet.load("a", &p1).unwrap();
        match fleet.load("b", &p2) {
            Err(ServeError::Model(m)) => assert!(m.contains("full"), "{m}"),
            other => panic!("expected fleet-full error, got {other:?}"),
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
