//! Span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around its calls into the
//! program's public API; nothing inside the program is instrumented. A
//! span carries its kind, its parent, and its start and end in
//! nanoseconds since the tracer was created. Structural spans (a pass, a
//! unit's setup or run, a whole `ArrayScheduler::run`) are always kept;
//! per-request leaf spans are kept up to [`LEAF_LOG_CAP`] so the log stays
//! bounded, while the per-kind totals that feed the metrics always cover
//! every span.

use std::fmt::Write as _;
use std::time::Instant;

/// Leaf spans kept verbatim per traced pass (the totals are exact beyond).
pub const LEAF_LOG_CAP: usize = 100_000;

/// What a span wraps. Names follow the layer they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One unit's construction and aging (root of the set-up phase).
    Setup,
    /// One unit's measured run (root of the run phase).
    Run,
    /// `SsdSystem::prefill`.
    Prefill,
    /// `Workload::next_request`.
    Gen,
    /// `SsdSystem::step`.
    Step,
    /// `SsdSystem::finalize` / `Service::finalize`.
    Finalize,
    /// `ArrayScheduler::run`.
    ArrayRun,
    /// `Service::submit`.
    Submit,
    /// `Service::pump`.
    Pump,
    /// `Service::take_completions`.
    Completions,
    /// `Service::release_window` and `Service::next_window_free`.
    Window,
}

const KINDS: usize = 11;

impl Kind {
    fn index(self) -> usize {
        self as usize
    }

    /// The span name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Run => "run",
            Kind::Prefill => "core.engine.prefill",
            Kind::Gen => "workload.next_request",
            Kind::Step => "core.engine.step",
            Kind::Finalize => "finalize",
            Kind::ArrayRun => "array.run",
            Kind::Submit => "service.submit",
            Kind::Pump => "service.pump",
            Kind::Completions => "service.take_completions",
            Kind::Window => "service.window",
        }
    }
}

/// Index of a kept span; `SpanId::NONE` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of a root span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    structural: Vec<Span>,
    leaves: Vec<Span>,
    dropped_leaves: u64,
    total_ns: [u64; KINDS],
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            structural: Vec::new(),
            leaves: Vec::new(),
            dropped_leaves: 0,
            total_ns: [0; KINDS],
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn tally(&mut self, kind: Kind, start_ns: u64, end_ns: u64) {
        self.total_ns[kind.index()] += end_ns.saturating_sub(start_ns);
    }

    fn leaf(&mut self, kind: Kind, parent: SpanId, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.tally(kind, start_ns, end_ns);
        if self.leaves.len() < LEAF_LOG_CAP {
            self.leaves.push(Span {
                kind,
                parent,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped_leaves += 1;
        }
    }

    /// Host seconds summed over every span of `kind`.
    pub fn secs(&self, kind: Kind) -> f64 {
        self.total_ns[kind.index()] as f64 * 1e-9
    }

    /// Writes the span log as tab-separated `id parent name start_ns
    /// end_ns` lines: structural spans first (ids `s<i>`), then the kept
    /// leaves (ids `l<i>`), and a trailing comment with the number of
    /// leaves beyond the cap.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("# id\tparent\tname\tstart_ns\tend_ns\n");
        let parent = |p: SpanId| {
            if p == SpanId::NONE {
                "-".to_owned()
            } else {
                format!("s{}", p.0)
            }
        };
        for (i, s) in self.structural.iter().enumerate() {
            let _ = writeln!(
                text,
                "s{i}\t{}\t{}\t{}\t{}",
                parent(s.parent),
                s.kind.name(),
                s.start_ns,
                s.end_ns
            );
        }
        for (i, s) in self.leaves.iter().enumerate() {
            let _ = writeln!(
                text,
                "l{i}\t{}\t{}\t{}\t{}",
                parent(s.parent),
                s.kind.name(),
                s.start_ns,
                s.end_ns
            );
        }
        let _ = writeln!(text, "# leaves beyond cap: {}", self.dropped_leaves);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// A tracer that may be off. Every method is a no-op without a tracer,
/// so the traced and untraced runs execute the same driving code.
#[derive(Debug)]
pub struct Probe(Option<Tracer>);

impl Probe {
    /// No tracing: spans cost one branch each.
    pub fn off() -> Self {
        Probe(None)
    }

    /// A fresh tracer.
    pub fn on() -> Self {
        Probe(Some(Tracer::new()))
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// The recorded spans, if tracing.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.0.as_ref()
    }

    /// Opens a structural span starting now.
    pub fn open(&mut self, kind: Kind, parent: SpanId) -> SpanId {
        let Some(t) = self.0.as_mut() else {
            return SpanId::NONE;
        };
        let start_ns = t.ns(Instant::now());
        let id = SpanId(u32::try_from(t.structural.len()).expect("structural spans fit u32"));
        t.structural.push(Span {
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a structural span now.
    pub fn close(&mut self, id: SpanId) {
        let Some(t) = self.0.as_mut() else {
            return;
        };
        let end_ns = t.ns(Instant::now());
        let span = &mut t.structural[id.0 as usize];
        span.end_ns = end_ns;
        let (kind, start_ns) = (span.kind, span.start_ns);
        t.tally(kind, start_ns, end_ns);
    }

    /// Runs `f` inside a leaf span.
    #[inline]
    pub fn leaf<R>(&mut self, kind: Kind, parent: SpanId, f: impl FnOnce() -> R) -> R {
        match self.0.as_mut() {
            None => f(),
            Some(t) => {
                let start = Instant::now();
                let r = f();
                let end = Instant::now();
                t.leaf(kind, parent, start, end);
                r
            }
        }
    }

    /// Files leaf spans recorded elsewhere (by [`GenLog`]) under `parent`.
    pub fn import(&mut self, kind: Kind, parent: SpanId, log: &GenLog) {
        let Some(t) = self.0.as_mut() else {
            return;
        };
        for &(start, end) in &log.spans {
            t.leaf(kind, parent, start, end);
        }
        // Spans the log could not keep still count toward the totals.
        t.total_ns[kind.index()] += log.overflow_ns;
        t.dropped_leaves += log.overflow;
    }
}

/// Leaf spans recorded where the benchmark cannot hold the [`Probe`] —
/// inside a workload handed to `ArrayScheduler::run`.
#[derive(Debug, Default)]
pub struct GenLog {
    spans: Vec<(Instant, Instant)>,
    overflow: u64,
    overflow_ns: u64,
}

impl GenLog {
    /// Records one span.
    pub fn push(&mut self, start: Instant, end: Instant) {
        if self.spans.len() < LEAF_LOG_CAP {
            self.spans.push((start, end));
        } else {
            self.overflow += 1;
            self.overflow_ns +=
                u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        }
    }
}
