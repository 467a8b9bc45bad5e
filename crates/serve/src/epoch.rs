//! Epoch-based reclamation for hot-swapped models.
//!
//! The serving hot path reads the current model through a bare
//! `AtomicPtr` — no lock, no reference count bump — while control-plane
//! swaps replace the pointer and *retire* the old model instead of
//! freeing it. A retired model is dropped only once every reader that
//! could possibly still hold it has moved on, which readers prove by
//! **pinning**: before touching any model pointer a reader publishes the
//! current global epoch into its participant cell, and clears the cell
//! when done.
//!
//! ## Safety argument
//!
//! All operations use `SeqCst`, so they interleave in one total order.
//! A swap performs `ptr.swap(new)` **then** `global.fetch_add(1)`, and
//! retires the old model tagged with the incremented epoch `e`. A reader
//! performs `cell.store(global.load())` **then** reads the pointer. If a
//! reader's published epoch is `>= e`, its `global.load()` happened
//! after the `fetch_add`, which happened after the `ptr.swap` — so its
//! subsequent pointer read can only observe the *new* model. Therefore a
//! retired `(model, e)` may be dropped as soon as every currently pinned
//! participant has published an epoch `>= e`. A participant that read
//! the global epoch but was descheduled before publishing it appears
//! quiescent — but by the time its (stale) publish lands, its pointer
//! read still lies in its future and will see the new model, so it never
//! resurrects freed memory; a stale pin only delays reclamation of
//! *later* retirees, never corrupts it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Participant cell value meaning "not currently pinned".
const QUIESCENT: u64 = u64::MAX;

/// A reclamation domain: the global epoch, the participant registry,
/// and the retired-garbage list for values of type `T`.
pub struct EpochDomain<T> {
    global: AtomicU64,
    participants: Mutex<Vec<Arc<AtomicU64>>>,
    garbage: Mutex<Vec<(u64, Box<T>)>>,
}

impl<T> Default for EpochDomain<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EpochDomain<T> {
    /// A fresh domain with no participants and no garbage.
    pub fn new() -> Self {
        Self {
            global: AtomicU64::new(1),
            participants: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
        }
    }

    /// Register a reader. Registration allocates; it happens once per
    /// connection, never per request.
    pub fn register(self: &Arc<Self>) -> Participant<T> {
        let cell = Arc::new(AtomicU64::new(QUIESCENT));
        lock_clean(&self.participants).push(Arc::clone(&cell));
        Participant {
            cell,
            domain: Arc::clone(self),
        }
    }

    /// Retire `value`: it is dropped once every pinned reader has moved
    /// past the current swap. Called by writers (swap/unload) right
    /// after unlinking the value from its published location.
    pub fn retire(&self, value: Box<T>) {
        let e = self.global.fetch_add(1, Ordering::SeqCst) + 1;
        lock_clean(&self.garbage).push((e, value));
        self.collect();
    }

    /// Drop every retired value whose tag epoch is covered by all
    /// currently pinned participants. Safe to call at any time.
    pub fn collect(&self) {
        let min_active = lock_clean(&self.participants)
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .filter(|&e| e != QUIESCENT)
            .min()
            .unwrap_or(u64::MAX);
        lock_clean(&self.garbage).retain(|&(e, _)| min_active < e);
    }

    /// Number of retired-but-not-yet-freed values (test hook).
    pub fn garbage_len(&self) -> usize {
        lock_clean(&self.garbage).len()
    }

    /// Current global epoch (test hook).
    pub fn epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }
}

/// One registered reader. Pin before reading a swapped pointer; the pin
/// guard unpins on drop. Pinning is two atomic operations — no lock, no
/// allocation.
pub struct Participant<T> {
    cell: Arc<AtomicU64>,
    domain: Arc<EpochDomain<T>>,
}

impl<T> Participant<T> {
    /// Publish the current epoch; until the returned guard drops, no
    /// value retired *after* this point will be freed.
    pub fn pin(&self) -> PinGuard<'_, T> {
        let e = self.domain.global.load(Ordering::SeqCst);
        self.cell.store(e, Ordering::SeqCst);
        PinGuard { participant: self }
    }
}

impl<T> Drop for Participant<T> {
    fn drop(&mut self) {
        self.cell.store(QUIESCENT, Ordering::SeqCst);
        let mut parts = lock_clean(&self.domain.participants);
        if let Some(i) = parts.iter().position(|c| Arc::ptr_eq(c, &self.cell)) {
            parts.swap_remove(i);
        }
        drop(parts);
        self.domain.collect();
    }
}

/// Active pin; dropping it returns the participant to quiescence.
pub struct PinGuard<'a, T> {
    participant: &'a Participant<T>,
}

impl<T> Drop for PinGuard<'_, T> {
    fn drop(&mut self) {
        self.participant.cell.store(QUIESCENT, Ordering::SeqCst);
    }
}

/// Mutex lock that shrugs off poisoning: a panicked writer leaves the
/// lists in a consistent state (every mutation is a single push/remove).
fn lock_clean<X>(m: &Mutex<X>) -> std::sync::MutexGuard<'_, X> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicPtr;

    #[test]
    fn unpinned_retire_frees_immediately() {
        let d = Arc::new(EpochDomain::new());
        d.retire(Box::new(7u64));
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn pinned_reader_blocks_reclamation_until_unpin() {
        let d = Arc::new(EpochDomain::new());
        let p = d.register();
        let guard = p.pin();
        d.retire(Box::new(1u64));
        assert_eq!(d.garbage_len(), 1, "pinned reader must hold the garbage");
        drop(guard);
        d.collect();
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn reader_pinned_after_retire_does_not_block_it() {
        let d = Arc::new(EpochDomain::new());
        let p = d.register();
        d.retire(Box::new(1u64));
        // Retire with no pinned readers freed immediately; a later pin
        // must not resurrect anything.
        let _guard = p.pin();
        assert_eq!(d.garbage_len(), 0);
        d.retire(Box::new(2u64));
        assert_eq!(d.garbage_len(), 1, "the new pin covers the new retiree");
    }

    #[test]
    fn dropping_a_participant_deregisters_it() {
        let d = Arc::new(EpochDomain::new());
        let p = d.register();
        let g = p.pin();
        d.retire(Box::new(3u64));
        assert_eq!(d.garbage_len(), 1);
        drop(g);
        drop(p);
        assert_eq!(d.garbage_len(), 0, "deregistration collects");
    }

    /// Swap/read torture: readers continuously pin, load, deref, and
    /// validate a pointer while a writer swaps new values in. Any
    /// use-after-free here shows up as a torn payload (the two halves of
    /// the value must always match) or crashes under a sanitizer.
    #[test]
    fn concurrent_swap_and_read_never_tears() {
        let d = Arc::new(EpochDomain::new());
        let slot = Arc::new(AtomicPtr::new(Box::into_raw(Box::new((0u64, 0u64)))));
        let stop = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let p = d.register();
                while stop.load(Ordering::SeqCst) == 0 {
                    let g = p.pin();
                    let ptr = slot.load(Ordering::SeqCst);
                    // SAFETY: pinned before the load, so the value
                    // cannot be freed while we hold `g`.
                    let (a, b) = unsafe { *ptr };
                    assert_eq!(a, b, "torn or freed value observed");
                    drop(g);
                }
            }));
        }
        for k in 1..500u64 {
            let old = slot.swap(Box::into_raw(Box::new((k, k))), Ordering::SeqCst);
            // SAFETY: `old` was just unlinked; retire hands ownership to
            // the domain, which frees it only after readers move on.
            d.retire(unsafe { Box::from_raw(old) });
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        let last = slot.swap(std::ptr::null_mut(), Ordering::SeqCst);
        d.retire(unsafe { Box::from_raw(last) });
        d.collect();
        assert_eq!(d.garbage_len(), 0);
    }
}
