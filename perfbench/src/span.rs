//! Spans recorded around the calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the request it belongs to. Spans stay in memory until the run ends
//! and are then written out; [`self_time_ns`] gives a span's duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the log's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within its log.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer boundary, e.g. `rt.submit`.
    pub name: &'static str,
    /// Request (task, replay, pass) the span belongs to.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[must_use = "end the span with SpanLog::end"]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    req: u64,
    start: Instant,
}

impl Open {
    /// The id children name as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// In-memory span store shared by every thread of a run.
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start a span.
    pub fn begin(&self, name: &'static str, parent: Option<u32>, req: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            req,
            start: Instant::now(),
        }
    }

    /// End a span now and keep it.
    pub fn end(&self, open: Open) -> Span {
        self.end_at(open, Instant::now())
    }

    /// End a span at `end` and keep it.
    pub fn end_at(&self, open: Open, end: Instant) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let start_ns = ns(open.start);
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            start_ns,
            end_ns: ns(end).max(start_ns),
        };
        self.spans
            .lock()
            .expect("no thread panicked while recording a span")
            .push(span.clone());
        span
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panicked while recording a span")
            .clone()
    }
}

/// `parent`'s duration minus the union of its children's intervals
/// clipped to it. Children may overlap each other (they can run on
/// different threads); covered time is counted once.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur_ns() - covered
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], |v| &v[..]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_time_ns(s, kids);
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}
