//! In-memory span recording for traced runs, and the interval arithmetic
//! that turns spans into per-layer self times.
//!
//! A span is one timed call into a layer, recorded from the benchmark's own
//! code around a public function. Spans stay in memory while the workload
//! runs and are written out once at the end ([`Recorder::write_tsv`]).

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sca_locator::WindowScorer;
use sca_trace::TraceSource;
use tinynn::{Tensor, Workspace};

/// One timed interval. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request (file, frame, submission) the span belongs to.
    pub req: u32,
    /// Small per-process thread number (see [`thread_number`]).
    pub thread: u32,
    /// Work the span carried (windows scored, bytes filled, …) or, for a
    /// service submission, the index of the model it targets.
    pub count: u64,
}

impl Span {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A small, stable number for the calling thread (thread ids are opaque).
pub fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: Cell<Option<u32>> = const { Cell::new(None) };
    }
    NUMBER.with(|n| match n.get() {
        Some(id) => id,
        None => {
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            n.set(Some(id));
            id
        }
    })
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` in nanoseconds since the recorder was created.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Stores a span and returns its index.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned by a panicking caller");
        spans.push(span);
        spans.len() - 1
    }

    /// Records a span that ends now on the calling thread.
    pub fn finish(
        &self,
        name: &'static str,
        start: u64,
        parent: Option<usize>,
        req: u32,
        count: u64,
    ) -> usize {
        let end = self.now();
        self.record(Span { name, start, end, parent, req, thread: thread_number(), count })
    }

    /// Overwrites a recorded span's end (for a parent closed after its
    /// children were recorded).
    pub fn close(&self, index: usize, end: u64) {
        self.spans.lock().expect("span recorder poisoned by a panicking caller")[index].end = end;
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned by a panicking caller").clone()
    }

    /// Writes every span as tab-separated text: index, name, start and end
    /// (ns), parent, request, thread, count.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tthread\tcount")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.start, s.end, s.req, s.thread, s.count
            )?;
        }
        out.flush()
    }
}

/// Total length covered by the union of `intervals` (any order, any
/// overlap).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent; overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
        }
    }
    spans.iter().zip(&children).map(|(s, kids)| s.len() - union_len(kids).min(s.len())).collect()
}

/// Splits the wall time of `root` among layers in priority order: each
/// layer gets the part of `root` its spans cover that no earlier layer
/// already covers. Returns one share per layer plus, last, the uncovered
/// remainder; the shares always sum to the root's duration.
pub fn wall_shares(root: (u64, u64), layers: &[Vec<(u64, u64)>]) -> Vec<u64> {
    let clip = |&(s, e): &(u64, u64)| (s.max(root.0), e.min(root.1));
    let mut covered: Vec<(u64, u64)> = Vec::new();
    let mut before = 0u64;
    let mut shares = Vec::with_capacity(layers.len() + 1);
    for layer in layers {
        covered.extend(layer.iter().map(clip));
        let now = union_len(&covered);
        shares.push(now - before);
        before = now;
    }
    shares.push((root.1 - root.0) - before);
    shares
}

/// A [`WindowScorer`] that records one span per scoring call (one batch of
/// windows) around the wrapped model.
pub struct TracedScorer<'a, S> {
    pub inner: &'a S,
    pub rec: &'a Recorder,
    pub name: &'static str,
    pub parent: usize,
    pub req: u32,
}

impl<S: WindowScorer> WindowScorer for TracedScorer<'_, S> {
    fn score_windows_into(&self, input: &Tensor, ws: &mut Workspace, scores: &mut Vec<f32>) {
        let start = self.rec.now();
        self.inner.score_windows_into(input, ws, scores);
        self.rec.finish(self.name, start, Some(self.parent), self.req, scores.len() as u64);
    }
}

/// A [`TraceSource`] that records one span per `fill` (bytes as count).
pub struct TracedSource<'a, T: ?Sized> {
    pub inner: &'a T,
    pub rec: &'a Recorder,
    pub parent: usize,
    pub req: u32,
}

impl<T: TraceSource + ?Sized> TraceSource for TracedSource<'_, T> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fill(&self, start: usize, out: &mut [f32]) -> sca_trace::Result<()> {
        let t0 = self.rec.now();
        let result = self.inner.fill(start, out);
        self.rec.finish("trace.fill", t0, Some(self.parent), self.req, 4 * out.len() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, req: 0, thread: 0, count: 0 }
    }

    #[test]
    fn union_merges_overlaps_and_ignores_order() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(10, 20), (0, 5)]), 15);
        assert_eq!(union_len(&[(0, 10), (5, 15), (15, 20)]), 20);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // root [0, 100); two children on different threads overlap in
        // [30, 40); a grandchild sits inside the first child; a third
        // child spills past the root's end and is clipped.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("c", 90, 120, Some(0)),
        ];
        let st = self_times(&spans);
        // root: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40.
        assert_eq!(st[0], 40);
        // a: 30 - 10 (its grandchild); b and a.inner have no children.
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 30);
        // Self times of the root and its direct children do not add up to
        // the root when children run in parallel; wall shares do.
        let shares = wall_shares((0, 100), &[vec![(10, 40), (90, 120)], vec![(30, 60)]]);
        assert_eq!(shares, vec![40, 20, 40]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
    }

    #[test]
    fn wall_shares_follow_priority_order() {
        let root = (0, 50);
        let kernels = vec![(0, 20), (5, 25)];
        let staging = vec![(20, 30)];
        let shares = wall_shares(root, &[kernels.clone(), staging.clone()]);
        assert_eq!(shares, vec![25, 5, 20]);
        let swapped = wall_shares(root, &[staging, kernels]);
        assert_eq!(swapped, vec![10, 20, 20]);
    }

    #[test]
    fn thread_numbers_are_stable_per_thread() {
        let here = thread_number();
        assert_eq!(here, thread_number());
        let other = std::thread::spawn(thread_number).join().unwrap();
        assert_ne!(here, other);
    }
}
