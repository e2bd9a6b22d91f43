//! The traced locate: `LocatorEngine::locate_streamed` rebuilt from its
//! public parts (`StreamingSegmenter::new` → `classify_source_with` →
//! `finish`, as the engine does it) with every call into a layer timed, and
//! the per-layer numbers derived from those spans.

use sca_locator::{LocatorEngine, StreamingSegmenter};
use sca_trace::TraceSource;

use crate::report::Layers;
use crate::spans::{
    self_times, thread_number, wall_shares, Recorder, Span, TracedScorer, TracedSource,
};

/// Span name of a kernel call for this engine's model.
fn kernel_span(engine: &LocatorEngine) -> &'static str {
    if engine.is_quantized() {
        "qcnn"
    } else {
        "cnn"
    }
}

/// Locates the CO starts of the source `open` yields, recording spans under
/// a `locate` root for request `req`. Returns the same starts as
/// `engine.locate_streamed(source, chunk_len)`.
pub fn traced_locate<T: TraceSource>(
    engine: &LocatorEngine,
    chunk_len: usize,
    rec: &Recorder,
    req: u32,
    open: impl FnOnce() -> Result<T, String>,
) -> Result<Vec<usize>, String> {
    let start = rec.now();
    let root = rec.record(Span {
        name: "locate",
        start,
        end: start,
        parent: None,
        req,
        thread: thread_number(),
        count: 0,
    });
    let t = rec.now();
    let source = open()?;
    rec.finish("trace.open", t, Some(root), req, 0);
    let scorer =
        TracedScorer { inner: engine.model(), rec, name: kernel_span(engine), parent: root, req };
    let traced_source = TracedSource { inner: &source, rec, parent: root, req };
    let sliding = engine.sliding();
    let mut segmenter = StreamingSegmenter::new(*engine.segmenter().config(), sliding.stride());
    sliding
        .classify_source_with(&scorer, &traced_source, chunk_len, |span| {
            let t = rec.now();
            segmenter.push(span);
            rec.finish("segmentation.push", t, Some(root), req, span.len() as u64);
        })
        .map_err(|e| format!("traced locate of request {req}: {e}"))?;
    let t = rec.now();
    let starts = segmenter.finish();
    rec.finish("segmentation.finish", t, Some(root), req, 0);
    rec.close(root, rec.now());
    Ok(starts)
}

/// Busy time and work of one model kind's kernel calls.
#[derive(Debug, Default, Clone, Copy)]
struct KernelStats {
    ns: u64,
    rows: u64,
    calls: u64,
    /// Operations of the windows scored (2 per multiply-accumulate).
    ops: u64,
}

/// Per-layer totals over every traced locate of a run.
#[derive(Debug, Default, Clone)]
pub struct EngineLayers {
    locates: u64,
    wall_ns: u64,
    open_ns: u64,
    fill_ns: u64,
    fill_bytes: u64,
    prefetch_wait_ns: u64,
    stage_ns: u64,
    staged_rows: u64,
    chunks: u64,
    chunk_threads: u64,
    /// `cnn` (f32) and `qcnn` (i8) kernel calls.
    kernels: [KernelStats; 2],
    segmentation_ns: u64,
    /// Self time of the locate roots: wall time no child span covers.
    glue_ns: u64,
    /// Wall time of the locate roots split in priority order: kernels,
    /// staging, segmentation, ingest (fill), open, uncovered.
    shares_ns: [u64; 6],
}

const SHARE_NAMES: [&str; 6] = ["kernels", "staging", "segmentation", "fill", "open", "glue"];

impl EngineLayers {
    /// Adds the spans of every traced locate in `spans`; `macs` gives the
    /// multiply-accumulates per window of the model request `req` used.
    pub fn add_all(&mut self, spans: &[Span], macs: impl Fn(u32) -> u64) {
        for (i, root) in spans.iter().enumerate() {
            if root.name == "locate" {
                let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(i)).collect();
                self.add_locate(root, &kids, macs(root.req));
            }
        }
    }

    fn add_locate(&mut self, root: &Span, kids: &[&Span], macs: u64) {
        let of = |name: &str| -> Vec<&Span> {
            let mut v: Vec<&Span> = kids.iter().copied().filter(|s| s.name == name).collect();
            v.sort_by_key(|s| s.start);
            v
        };
        let opens = of("trace.open");
        let fills = of("trace.fill");
        let pushes = of("segmentation.push");
        let finishes = of("segmentation.finish");
        let mut calls: Vec<&Span> =
            kids.iter().copied().filter(|s| s.name == "cnn" || s.name == "qcnn").collect();
        calls.sort_by_key(|s| s.start);

        // Chunk i runs from the end of the previous sink call (or of the
        // first, synchronous fill) to its own sink call; every kernel call
        // of chunk i falls inside that interval.
        let mut chunk_starts = Vec::with_capacity(pushes.len());
        let mut at = fills.first().map_or(root.start, |f| f.end);
        for p in &pushes {
            chunk_starts.push((at, p.start));
            at = p.end;
        }

        // Staging is the gap between consecutive kernel calls of one
        // thread within a chunk (row copy, standardise, score copy-out).
        // A thread's first batch has no preceding call; its staging is
        // estimated at the per-row rate of the measured gaps, so thread
        // start-up stays in the uncovered remainder.
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        let mut gap_rows = 0u64;
        let mut firsts: Vec<(&Span, u64)> = Vec::new();
        let mut prefetch_wait = 0u64;
        for (ci, &(cs, ce)) in chunk_starts.iter().enumerate() {
            let in_chunk: Vec<&Span> =
                calls.iter().copied().filter(|c| c.start >= cs && c.start < ce).collect();
            let mut threads: Vec<u32> = in_chunk.iter().map(|c| c.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            self.chunks += 1;
            self.chunk_threads += threads.len() as u64;
            for &t in &threads {
                let mine: Vec<&Span> = in_chunk.iter().copied().filter(|c| c.thread == t).collect();
                firsts.push((mine[0], cs));
                for pair in mine.windows(2) {
                    gaps.push((pair[0].end, pair[1].start));
                    gap_rows += pair[1].count;
                }
            }
            // The prefetch of chunk i + 1 overlaps chunk i's scoring; the
            // sink waits only for the part that outlasts the last call.
            let scored = in_chunk.iter().map(|c| c.end).max().unwrap_or(cs);
            if let Some(next) = fills.get(ci + 1) {
                prefetch_wait += next.end.min(ce).saturating_sub(scored);
            }
        }
        let gap_ns: u64 = gaps.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
        let ns_per_row = if gap_rows == 0 { 0.0 } else { gap_ns as f64 / gap_rows as f64 };
        let mut stages = gaps;
        for (call, chunk_start) in firsts {
            let est = (ns_per_row * call.count as f64) as u64;
            stages.push((call.start.saturating_sub(est).max(chunk_start), call.start));
        }

        let intervals = |v: &[&Span]| v.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>();
        let segmentation: Vec<&Span> = pushes.iter().chain(&finishes).copied().collect();
        let shares = wall_shares(
            (root.start, root.end),
            &[
                intervals(&calls),
                stages.clone(),
                intervals(&segmentation),
                intervals(&fills),
                intervals(&opens),
            ],
        );
        for (acc, s) in self.shares_ns.iter_mut().zip(&shares) {
            *acc += s;
        }
        // The root's self time, with the inferred staging as children too.
        let mut tree = vec![Span { parent: None, ..root.clone() }];
        tree.extend(kids.iter().map(|&s| Span { parent: Some(0), ..s.clone() }));
        tree.extend(stages.iter().map(|&(start, end)| Span {
            name: "sliding.stage",
            start,
            end,
            parent: Some(0),
            req: root.req,
            thread: root.thread,
            count: 0,
        }));
        self.glue_ns += self_times(&tree)[0];

        self.locates += 1;
        self.wall_ns += root.len();
        self.open_ns += opens.iter().map(|s| s.len()).sum::<u64>();
        self.fill_ns += fills.iter().map(|s| s.len()).sum::<u64>();
        self.fill_bytes += fills.iter().map(|s| s.count).sum::<u64>();
        self.prefetch_wait_ns += prefetch_wait;
        self.stage_ns += stages.iter().map(|(s, e)| e.saturating_sub(*s)).sum::<u64>();
        self.staged_rows += calls.iter().map(|c| c.count).sum::<u64>();
        for c in &calls {
            let k = &mut self.kernels[usize::from(c.name == "qcnn")];
            k.ns += c.len();
            k.rows += c.count;
            k.calls += 1;
            k.ops += 2 * macs * c.count;
        }
        self.segmentation_ns += segmentation.iter().map(|s| s.len()).sum::<u64>();
    }

    /// Writes the engine-level per-layer metrics.
    pub fn fill_layers(&self, layers: &mut Layers) {
        let per = |ns: u64, rows: u64| if rows == 0 { 0.0 } else { ns as f64 / rows as f64 / 1e3 };
        layers.trace_open_ms = self.open_ns as f64 / 1e6;
        layers.trace_fill_ms = self.fill_ns as f64 / 1e6;
        layers.trace_fill_mb = self.fill_bytes as f64 / 1e6;
        layers.sliding_prefetch_wait_ms = self.prefetch_wait_ns as f64 / 1e6;
        layers.sliding_stage_us_per_window = per(self.stage_ns, self.staged_rows);
        layers.engine_threads =
            if self.chunks == 0 { 0.0 } else { self.chunk_threads as f64 / self.chunks as f64 };
        layers.segmentation_us_per_window = per(self.segmentation_ns, self.staged_rows);
        layers.engine_glue_pct = crate::stats::pct(self.glue_ns as f64, self.wall_ns as f64);
        // (µs per window, G op/s per busy core, M op per window, rows per call)
        let figures = |k: &KernelStats| {
            let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
            (
                per(k.ns, k.rows),
                ratio(k.ops, k.ns),
                ratio(k.ops, k.rows) / 1e6,
                ratio(k.rows, k.calls),
            )
        };
        (
            layers.cnn_us_per_window,
            layers.cnn_gflop_s,
            layers.cnn_mflop_per_window,
            layers.cnn_rows_per_call,
        ) = figures(&self.kernels[0]);
        (
            layers.qcnn_us_per_window,
            layers.qcnn_gop_s,
            layers.qcnn_mop_per_window,
            layers.qcnn_rows_per_call,
        ) = figures(&self.kernels[1]);
    }

    /// One line splitting the traced locate wall time by layer.
    pub fn breakdown(&self) -> String {
        let parts: Vec<String> = SHARE_NAMES
            .iter()
            .zip(&self.shares_ns)
            .map(|(n, &s)| format!("{n} {:.1}%", crate::stats::pct(s as f64, self.wall_ns as f64)))
            .collect();
        let covered: u64 = self.shares_ns[..5].iter().sum();
        format!(
            "traced locate wall {:.1} ms over {} locates: {}; layer self times cover {:.1}% of it",
            self.wall_ns as f64 / 1e6,
            self.locates,
            parts.join(", "),
            crate::stats::pct(covered as f64, self.wall_ns as f64)
        )
    }
}
