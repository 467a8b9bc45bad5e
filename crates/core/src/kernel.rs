//! Runtime-dispatched SIMD kernel selection.
//!
//! Blocked batch evaluation exists in three implementations: a portable
//! scalar one, an AVX2 one (x86_64) and a NEON one (aarch64), all built
//! from `std::arch` only — no external dependencies, matching the
//! workspace's vendor-free rule. Hierarchization has no SIMD kernel:
//! its pole-run stencil is an element-wise loop without a reduction,
//! which the compiler already vectorizes, and hand-written AVX2/NEON
//! versions of it measured at parity with that scalar loop. Which
//! evaluation kernel runs is decided **at runtime**:
//!
//! 1. a process-wide override installed by [`with_kernel`] (tests and
//!    the differential fuzzer pin each path this way), else
//! 2. the `SG_KERNEL` environment variable (`auto`, `scalar`, `avx2`,
//!    `neon`), else
//! 3. `auto`: the widest ISA the host supports.
//!
//! Every kernel is **bitwise identical** to the scalar reference —
//! same operations, same rounding, no FMA contraction, same
//! reduction order per output element — so selection can never change
//! a result, only its speed. That contract is enforced by the
//! `kernel_matrix` integration test and the fourth differential-fuzz
//! tier (scalar ↔ SIMD compared bitwise).
//!
//! Fallible entry points ([`resolve`], [`from_env`]) return the typed
//! [`KernelError`] so CLI front ends can reject `SG_KERNEL=typo`
//! cleanly; the infallible [`active`] used inside the hot paths
//! degrades to scalar instead of panicking.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

#[allow(unused_imports)] // the import is "unused" when `telemetry` is off
use crate::tel;

tel! {
    static DISPATCH_SCALAR: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.kernel.dispatch.scalar");
    static DISPATCH_AVX2: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.kernel.dispatch.avx2");
    static DISPATCH_NEON: sg_telemetry::Counter =
        sg_telemetry::Counter::new("core.kernel.dispatch.neon");
}

/// One concrete kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar reference — always available.
    Scalar,
    /// 256-bit AVX2 (x86_64), 4 × f64 lanes.
    Avx2,
    /// 128-bit NEON (aarch64), 2 × f64 lanes.
    Neon,
}

impl KernelKind {
    /// All kinds, in preference order for `auto` (widest first).
    pub const ALL: [KernelKind; 3] = [KernelKind::Avx2, KernelKind::Neon, KernelKind::Scalar];

    /// Stable lowercase name (CLI surface, `SG_KERNEL` values,
    /// provenance stamps).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Neon => "neon",
        }
    }

    /// f64 lanes processed per vector operation (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            KernelKind::Scalar => 1,
            KernelKind::Avx2 => 4,
            KernelKind::Neon => 2,
        }
    }

    /// Whether this kernel can run on the current host.
    pub fn available(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelKind::Avx2 => false,
            // NEON is part of the aarch64 baseline.
            KernelKind::Neon => cfg!(target_arch = "aarch64"),
        }
    }
}

/// A kernel *request*: pick automatically or force one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSelect {
    /// Widest available ISA (the default).
    #[default]
    Auto,
    /// Exactly this kind — an error if the host lacks it.
    Force(KernelKind),
}

/// Typed selection failure (never a panic: `sgtool` maps this to a
/// usage error, library hot paths fall back to scalar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `SG_KERNEL` held a value outside the known vocabulary.
    Unknown(String),
    /// A forced kernel is not supported by this host.
    Unavailable(KernelKind),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Unknown(s) => write!(
                f,
                "unknown kernel {s:?}: SG_KERNEL must be one of auto, scalar, avx2, neon"
            ),
            KernelError::Unavailable(k) => write!(
                f,
                "kernel {:?} is not available on this host (arch {}): use SG_KERNEL=auto or scalar",
                k.name(),
                std::env::consts::ARCH
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Parse a selection string (the `SG_KERNEL` vocabulary, ASCII
/// case-insensitive).
pub fn parse_select(s: &str) -> Result<KernelSelect, KernelError> {
    match s.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(KernelSelect::Auto),
        "scalar" => Ok(KernelSelect::Force(KernelKind::Scalar)),
        "avx2" => Ok(KernelSelect::Force(KernelKind::Avx2)),
        "neon" => Ok(KernelSelect::Force(KernelKind::Neon)),
        _ => Err(KernelError::Unknown(s.trim().to_string())),
    }
}

/// The widest kernel the host supports.
pub fn detect() -> KernelKind {
    KernelKind::ALL
        .into_iter()
        .find(|k| k.available())
        .unwrap_or(KernelKind::Scalar)
}

/// The selection requested by the `SG_KERNEL` environment variable
/// (unset or empty means `Auto`). Re-read on every dispatch, like
/// `SG_PAR_THREADS`, so tests and embedders can change it at runtime.
pub fn from_env() -> Result<KernelSelect, KernelError> {
    match std::env::var("SG_KERNEL") {
        Ok(v) => parse_select(&v),
        Err(_) => Ok(KernelSelect::Auto),
    }
}

// Process-wide override installed by `with_kernel`:
// 0 = none, 1 = Auto, 2..=4 = Force(Scalar/Avx2/Neon).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
/// Serializes `with_kernel` scopes (and the env-twiddling dispatch
/// tests) so two forced scopes cannot interleave. The kernels are
/// bitwise identical, so even an unlocked race could not corrupt a
/// result — the lock only keeps dispatch *counters* and tests exact.
static SELECT_LOCK: Mutex<()> = Mutex::new(());

fn encode(sel: KernelSelect) -> u8 {
    match sel {
        KernelSelect::Auto => 1,
        KernelSelect::Force(KernelKind::Scalar) => 2,
        KernelSelect::Force(KernelKind::Avx2) => 3,
        KernelSelect::Force(KernelKind::Neon) => 4,
    }
}

fn decode(v: u8) -> Option<KernelSelect> {
    match v {
        1 => Some(KernelSelect::Auto),
        2 => Some(KernelSelect::Force(KernelKind::Scalar)),
        3 => Some(KernelSelect::Force(KernelKind::Avx2)),
        4 => Some(KernelSelect::Force(KernelKind::Neon)),
        _ => None,
    }
}

/// Run `f` with the kernel selection pinned to `sel`, restoring the
/// previous state afterwards (panic-safe). Scopes are serialized by a
/// process-wide lock; the override also governs worker threads of the
/// `sg-par` pool, which read it through the same atomic.
pub fn with_kernel<R>(sel: KernelSelect, f: impl FnOnce() -> R) -> R {
    let _guard = SELECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(OVERRIDE.swap(encode(sel), Ordering::SeqCst));
    f()
}

/// Resolve the current selection to a runnable kernel: the
/// [`with_kernel`] override if one is active, else [`from_env`], with
/// `Auto` lowered through [`detect`]. Forcing an ISA the host lacks is
/// a typed error, not a silent downgrade.
pub fn resolve() -> Result<KernelKind, KernelError> {
    let sel = match decode(OVERRIDE.load(Ordering::SeqCst)) {
        Some(sel) => sel,
        None => from_env()?,
    };
    match sel {
        KernelSelect::Auto => Ok(detect()),
        KernelSelect::Force(k) if k.available() => Ok(k),
        KernelSelect::Force(k) => Err(KernelError::Unavailable(k)),
    }
}

/// Infallible dispatch for the hot paths: [`resolve`], degrading to
/// scalar on any selection error (entry points that want to surface
/// the error call [`resolve`] up front). Counts the dispatch and
/// stamps the chosen kernel into run provenance when telemetry is on.
pub fn active() -> KernelKind {
    let kind = resolve().unwrap_or(KernelKind::Scalar);
    tel! {
        match kind {
            KernelKind::Scalar => DISPATCH_SCALAR.add(1),
            KernelKind::Avx2 => DISPATCH_AVX2.add(1),
            KernelKind::Neon => DISPATCH_NEON.add(1),
        }
        sg_telemetry::set_kernel_hint(kind.name());
    }
    kind
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_lanes() {
        assert_eq!(KernelKind::Scalar.name(), "scalar");
        assert_eq!(KernelKind::Avx2.lanes(), 4);
        assert_eq!(KernelKind::Neon.lanes(), 2);
        assert_eq!(KernelKind::Scalar.lanes(), 1);
        assert!(KernelKind::Scalar.available());
    }

    #[test]
    fn parse_vocabulary() {
        assert_eq!(parse_select("auto"), Ok(KernelSelect::Auto));
        assert_eq!(parse_select(""), Ok(KernelSelect::Auto));
        assert_eq!(
            parse_select(" Scalar "),
            Ok(KernelSelect::Force(KernelKind::Scalar))
        );
        assert_eq!(
            parse_select("AVX2"),
            Ok(KernelSelect::Force(KernelKind::Avx2))
        );
        assert_eq!(
            parse_select("neon"),
            Ok(KernelSelect::Force(KernelKind::Neon))
        );
        let err = parse_select("sse9").unwrap_err();
        assert_eq!(err, KernelError::Unknown("sse9".to_string()));
        assert!(err.to_string().contains("SG_KERNEL"));
    }

    #[test]
    fn detect_is_available() {
        assert!(detect().available());
    }

    #[test]
    fn override_scopes_nest_and_restore() {
        let before = resolve().unwrap();
        let inner = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
            resolve().unwrap()
        });
        assert_eq!(inner, KernelKind::Scalar);
        assert_eq!(resolve().unwrap(), before);
    }

    #[test]
    fn forcing_an_absent_isa_is_a_typed_error_and_active_degrades() {
        let absent = if cfg!(target_arch = "x86_64") {
            KernelKind::Neon
        } else {
            KernelKind::Avx2
        };
        with_kernel(KernelSelect::Force(absent), || {
            assert_eq!(resolve(), Err(KernelError::Unavailable(absent)));
            assert_eq!(active(), KernelKind::Scalar);
        });
    }
}
