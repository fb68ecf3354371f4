//! In-memory spans recorded by the benchmark around its own calls into the
//! program: name, start, end, and parent. Self time is a span's duration
//! minus the time its children cover (children of one span never overlap:
//! the harness is single-threaded), minus the clock reads and bookkeeping
//! the spans themselves add, as calibrated on the host at run time.

use crate::measure::Clock;
use std::collections::BTreeMap;
use std::io::Write as _;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
}

/// Total self time and count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Summed self time, ns.
    pub ns: f64,
    /// Spans recorded under the name.
    pub count: u64,
}

/// What recording a span costs, measured by [`Trace::calibrate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    /// Time an empty span measures (part of one clock read).
    pub inside_ns: f64,
    /// Time each child adds to its parent outside the child's own
    /// interval (the rest of its clock reads and the push).
    pub per_child_ns: f64,
}

/// A span store.
#[derive(Debug)]
pub struct Trace {
    clock: Clock,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            clock: Clock::new(),
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent`, returning its index.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.clock.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        id
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.clock.now();
    }

    /// Forgets every span (warm-up spans are not reported).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Measures [`Overhead`] from empty spans and parents of empty
    /// children (medians, so a preempted sample does not skew it).
    #[must_use]
    pub fn calibrate() -> Overhead {
        const N: usize = 4096;
        const KIDS: usize = 8;
        let mut t = Trace::new();
        for _ in 0..N {
            let s = t.open("empty", ROOT);
            t.close(s);
        }
        let inside = crate::measure::median(&t.durations());
        t.clear();
        for _ in 0..N {
            let p = t.open("parent", ROOT);
            for _ in 0..KIDS {
                let c = t.open("child", p);
                t.close(c);
            }
            t.close(p);
        }
        let parents: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| (s.end - s.start) as f64)
            .collect();
        let per_kid = (crate::measure::median(&parents) - inside) / KIDS as f64;
        Overhead {
            inside_ns: inside,
            per_child_ns: (per_kid - inside).max(0.0),
        }
    }

    fn durations(&self) -> Vec<f64> {
        self.spans
            .iter()
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self time per span name, net of the recording overhead `oh` (never
    /// below zero for one span).
    #[must_use]
    pub fn self_times(&self, oh: Overhead) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut kids = vec![0u32; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
                kids[s.parent as usize] += 1;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for ((s, c), k) in self.spans.iter().zip(child_ns).zip(kids) {
            let e = out.entry(s.name).or_default();
            let own = (s.end - s.start) as f64 - c as f64;
            e.ns += (own - oh.inside_ns - f64::from(k) * oh.per_child_ns).max(0.0);
            e.count += 1;
        }
        out
    }

    /// Writes every span as CSV (`id,parent,name,start_ns,end_ns`; parent
    /// `-1` marks a root).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(w, "{i},{parent},{},{},{}", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Opens a span when tracing (`tr` is `Some`); returns [`ROOT`] otherwise.
pub fn open(tr: &mut Option<&mut Trace>, name: &'static str, parent: u32) -> u32 {
    tr.as_mut().map_or(ROOT, |t| t.open(name, parent))
}

/// Closes span `id` when tracing.
pub fn close(tr: &mut Option<&mut Trace>, id: u32) {
    if let Some(t) = tr.as_mut() {
        t.close(id);
    }
}
