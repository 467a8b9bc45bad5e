//! The benchmark's own span recorder: one span around each call into a
//! layer's public function, kept in memory and written out when the run
//! ends. Only the traced build turns it on; untraced runs pay one branch
//! per span.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Round, frame or request the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    /// Counter deltas of each grid build: `idx2gp` calls, hierarchization
    /// bytes, pool barrier wait (ns), pool regions.
    pub builds: Vec<[f64; 4]>,
    /// Counter deltas of each library evaluation: subspace walks, bytes.
    pub evals: Vec<[f64; 2]>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: cfg!(feature = "trace"),
            origin,
            spans: Vec::new(),
            builds: Vec::new(),
            evals: Vec::new(),
        }
    }

    /// Run a grid build `f` (sampling and hierarchization) and record the
    /// core and pool counters it moved. Nothing else may run meanwhile:
    /// the counters are the process's.
    pub fn counted_build<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let before = Counters::now();
        let r = f(self);
        if self.on {
            let after = Counters::now();
            self.builds.push([
                after.counter_since(&before, "core.bijection.idx2gp_calls"),
                after.counter_since(&before, "core.hierarchize.bytes_moved"),
                after.counter_since(&before, "par.barrier_wait_ns"),
                after.counter_since(&before, "par.regions"),
            ]);
        }
        r
    }

    /// Time a library evaluation `f` as span `core.eval` and record the
    /// evaluation counters it moved, under the same proviso.
    pub fn counted_eval<R>(&mut self, id: u64, f: impl FnOnce() -> R) -> R {
        let before = Counters::now();
        let r = self.span("core.eval", id, None, f);
        if self.on {
            let after = Counters::now();
            self.evals.push([
                after.counter_since(&before, "core.evaluate.subspace_walks"),
                after.counter_since(&before, "core.evaluate.bytes_moved"),
            ]);
        }
        r
    }

    /// The per-layer metrics every workload reports, in the manifest's
    /// order: median span times of the Fig. 1 calls, the workload's
    /// residual, and median counter deltas per build and per evaluation.
    pub fn layer_metrics(&self, residual_ms: f64) -> Vec<(&'static str, f64, &'static str)> {
        let col = |mut rows: Vec<f64>| crate::stats::median(&mut rows);
        let build = |k: usize| col(self.builds.iter().map(|r| r[k]).collect());
        let eval = |k: usize| col(self.evals.iter().map(|r| r[k]).collect());
        vec![
            ("core.sample_ms", self.median_ms("core.sample").0, "ms"),
            (
                "core.hierarchize_ms",
                self.median_ms("core.hierarchize").0,
                "ms",
            ),
            ("io.checkpoint_ms", self.median_ms("io.checkpoint").0, "ms"),
            ("io.restore_ms", self.median_ms("io.restore").0, "ms"),
            ("core.eval_ms", self.median_ms("core.eval").0, "ms"),
            ("op.residual_ms", residual_ms, "ms"),
            ("core.idx2gp_calls", build(0), "count"),
            ("core.hier_bytes_moved", build(1), "bytes"),
            ("par.barrier_wait_ms", build(2) / 1e6, "ms"),
            ("par.regions", build(3), "count"),
            ("core.subspace_walks", eval(0), "count"),
            ("core.eval_bytes_moved", eval(1), "bytes"),
        ]
    }

    /// Time `f` as span `name` under `parent` and return its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let at = self.open(name, id, parent);
        let r = f();
        self.close(at);
        r
    }

    /// Open a span whose children are recorded before [`Self::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, at: usize) {
        if self.on {
            self.spans[at].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Take over another thread's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        self.builds.extend(other.builds);
        self.evals.extend(other.evals);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Per-name median duration and median self time, in milliseconds.
    pub fn median_ms(&self, name: &str) -> (f64, f64) {
        let selfs = self.self_ns();
        let (mut dur, mut own): (Vec<f64>, Vec<f64>) = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &o)| (s.ns() as f64 / 1e6, o as f64 / 1e6))
            .unzip();
        (
            crate::stats::median(&mut dur),
            crate::stats::median(&mut own),
        )
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        let selfs = self.self_ns();
        for (s, own) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns, own
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Counter and histogram deltas of the program's own telemetry, read
/// around a span. Without the traced build every reading is zero.
pub struct Counters {
    #[cfg(feature = "trace")]
    report: Option<sg_telemetry::Report>,
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            #[cfg(feature = "trace")]
            report: Some(sg_telemetry::snapshot()),
        }
    }

    /// Change of counter `name` since `base`.
    #[allow(unused_variables)]
    pub fn counter_since(&self, base: &Counters, name: &str) -> f64 {
        #[cfg(feature = "trace")]
        {
            let get = |c: &Counters| c.report.as_ref().and_then(|r| r.counter(name)).unwrap_or(0);
            return get(self).saturating_sub(get(base)) as f64;
        }
        #[allow(unreachable_code)]
        0.0
    }

    /// Change of histogram `name` since `base`, as (samples, sum).
    #[allow(unused_variables)]
    pub fn hist_since(&self, base: &Counters, name: &str) -> (f64, f64) {
        #[cfg(feature = "trace")]
        {
            let get = |c: &Counters| {
                c.report
                    .as_ref()
                    .and_then(|r| r.hist(name))
                    .map_or((0, 0), |h| (h.count, h.sum))
            };
            let (a, b) = (get(self), get(base));
            return (
                a.0.saturating_sub(b.0) as f64,
                a.1.saturating_sub(b.1) as f64,
            );
        }
        #[allow(unreachable_code)]
        (0.0, 0.0)
    }
}
