//! In-memory spans for the traced replay, and the counting allocator
//! behind the `*.allocs_per_*` metrics.
//!
//! A span has a name (`layer.call`), start and end, its parent span and
//! the request it belongs to. Spans are kept in a vector and written out
//! when the run ends. A span's self time is its duration minus the part
//! of its interval that its direct children cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (and reallocations) made
/// on the current thread. Counts are exact, so two same-seed replays on
/// one thread must report the same numbers.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only extra work is a thread-local `Cell` increment,
// which neither allocates nor unwinds (`try_with` fails quietly during
// thread teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far on the calling thread.
pub fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Trace index of the request the span belongs to.
    pub request: u32,
    /// Allocations made on the replay thread inside the span.
    pub allocs: u64,
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    allocs_at_start: Vec<u64>,
    request: u32,
}

/// Records spans when enabled; every call is a no-op when not, so the
/// same replay code measures the tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// An open span (an index into the tracer's vector).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer with room for `capacity` spans, reserved up front so
    /// recording allocates nothing inside a span; `enabled: false`
    /// records nothing.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        let capacity = if enabled { capacity } else { 0 };
        Tracer {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(capacity),
                stack: Vec::with_capacity(32),
                allocs_at_start: Vec::with_capacity(32),
                request: 0,
            }),
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&self, request: u32) {
        if self.enabled {
            self.inner.borrow_mut().request = request;
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len() as u32;
        let parent = inner.stack.last().copied().unwrap_or(ROOT);
        let request = inner.request;
        inner.stack.push(idx);
        inner.spans.push(Span { name, start: 0, end: 0, parent, request, allocs: 0 });
        inner.allocs_at_start.push(allocs());
        let start = self.origin.elapsed().as_nanos() as u64;
        inner.spans[idx as usize].start = start;
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.stack.pop(), Some(idx), "spans must close innermost first");
        let started_allocs = inner.allocs_at_start.pop().expect("pushed with the span");
        let span = &mut inner.spans[idx as usize];
        span.end = end;
        span.allocs = allocs() - started_allocs;
    }

    /// Closes `open` under a name chosen once the call's outcome is known
    /// (a cache hit or a miss).
    pub fn end_as(&self, open: Open, name: &'static str) {
        if let Some(idx) = open.0 {
            self.end(open);
            self.inner.borrow_mut().spans[idx as usize].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as tab-separated `name start_ns end_ns parent request`
/// lines (parent `-` for a root span).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
    for s in spans {
        let parent = if s.parent == ROOT { "-".to_string() } else { s.parent.to_string() };
        writeln!(out, "{}\t{}\t{}\t{}\t{}", s.name, s.start, s.end, parent, s.request)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start, end, parent, request: 0, allocs: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70);
        // b's child c [65,90) overruns its parent and is clipped.
        let spans = vec![
            span("root", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("a1", 15, 25, 1),
            span("b", 50, 70, 0),
            span("c", 65, 90, 3),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 15, 25]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![span("p", 0, 100, ROOT), span("x", 10, 50, 0), span("y", 30, 60, 0)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn tracer_nests_and_counts_allocations() {
        let tracer = Tracer::new(true, 8);
        tracer.set_request(7);
        let outer = tracer.begin("outer");
        let v = tracer.span("inner", || vec![1u8; 64]);
        tracer.end(outer);
        assert_eq!(v.len(), 64);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[1].allocs, 1);
        assert_eq!(spans[0].allocs, 1, "recording itself must not allocate");
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(Tracer::new(false, 0).span("off", || 1) == 1);
    }
}
