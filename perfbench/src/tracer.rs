//! Benchmark-side spans around calls into the simulator's layers.
//!
//! The benchmark never instruments the program: it times its own calls
//! into each layer's public functions. With tracing off every method is a
//! branch on a bool, so the untraced run pays nothing measurable; the
//! traced run keeps its spans in memory and writes them out when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One call into a layer, in host nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.volume_submit`.
    pub name: &'static str,
    /// Request id: spans of one I/O, job, command or run window share it.
    pub id: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Host ns at entry.
    pub start_ns: u64,
    /// Host ns at exit.
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder (a no-op when constructed with [`Tracer::off`]).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Sum of durations, host ns.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
    /// Every duration, host ns (for percentiles).
    pub durations: Vec<u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Self::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; nested spans become its children until it is closed.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`enter`](Self::enter).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            self.spans[idx as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
        }
    }

    /// Host ns now when recording, for a span closed later by
    /// [`record_since`](Self::record_since).
    #[inline]
    pub fn mark(&self) -> Option<u64> {
        self.on.then(|| self.now_ns())
    }

    /// Record a span from `start` (a [`mark`](Self::mark)) to now. It
    /// overlaps other calls rather than nesting them, so it is recorded at
    /// top level with no children.
    #[inline]
    pub fn record_since(&mut self, name: &'static str, id: u64, start: Option<u64>) {
        if let Some(start_ns) = start {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                id,
                parent: u32::MAX,
                start_ns,
                end_ns,
            });
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let r = f();
        self.exit(open);
        r
    }

    /// Drop every recorded span (between repetitions).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
    }

    /// Count, total, self time and durations per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.total_ns += d;
            e.self_ns += d.saturating_sub(child_ns[i]);
            e.durations.push(d);
        }
        out
    }

    /// Write every span as CSV (`name,id,parent,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,id,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
