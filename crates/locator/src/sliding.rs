//! Sliding Window Classification (Section III-C of the paper).
//!
//! The inference trace is sliced into `N_inf`-sample windows with stride `s`;
//! every window is scored by the trained CNN with its linear class-1 output.
//! The resulting score signal (`swc`) exhibits a recurrent pattern at the CO
//! beginnings that the segmentation stage turns into start samples.
//!
//! This stage dominates the pipeline's runtime (hundreds of thousands of CNN
//! forward passes on a long trace), so the scoring loop is zero-copy: windows
//! are written straight from the trace into one reused `[B, 1, N]` batch
//! tensor, standardised in place ([`SlidingWindowClassifier::stage_window`],
//! the one staging rule of every scoring path, the locate service's
//! included), and scored through
//! [`CoLocatorCnn::class1_scores_into`](crate::CoLocatorCnn::class1_scores_into)
//! without any per-window allocation.
//! For the `f32` network that call is the fused channels-last chain of
//! [`tinynn::fused`] (direct convolutions with batch norm, ReLU and the
//! residual add in the tile epilogue; im2col serves training only), whose
//! scores are bit-identical to the layer-by-layer forward.
//! The window shards are the one place scoring runs in parallel: contiguous
//! shards of the window list go to [`tinynn::parallel::for_each_run`], the
//! first on the calling thread and each other on a scoped thread, every
//! shard scoring through **one shared `&CoLocatorCnn`** with its own
//! [`Workspace`] — the weights are never cloned. Neither scoring chain fans
//! out on its own, so [`SlidingWindowClassifier::with_threads`] is the
//! number of threads that score. Per-window scores do not depend on
//! batching, so the output is identical for any thread or batch
//! configuration.
//!
//! For traces too long to hold in memory, [`SlidingWindowClassifier::classify_source`]
//! scores any [`TraceSource`] (e.g. an on-disk [`sca_trace::FileTraceSource`])
//! chunk by chunk — stride-aligned chunk boundaries with window-tail overlap
//! ([`SlidingWindowClassifier::chunk_at`], which the locate service's
//! streamed requests cut by too) — producing the **bit-identical** `swc`
//! signal in O(chunk) memory. The chunks are double-buffered: a reader
//! thread prefetches chunk `i + 1` while chunk `i` is scored, hiding the
//! source's read latency behind the CNN work. Note that, in memory or streamed, only complete windows are
//! scored: trailing samples shorter than one window never contribute a
//! score (see [`SlidingWindowClassifier::output_len`]).

use std::ops::Range;

use sca_trace::{Trace, TraceError, TraceSource, WindowSlicer};
use serde::{Deserialize, Serialize};
use tinynn::Workspace;

#[cfg(test)]
use crate::cnn::CoLocatorCnn;
use crate::cnn::WindowScorer;

/// The sliding-window classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlidingWindowClassifier {
    window_len: usize,
    stride: usize,
    batch_size: usize,
    standardize: bool,
    threads: usize,
}

impl SlidingWindowClassifier {
    /// Creates a classifier slicing `window_len`-sample windows with `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` or `stride` is zero.
    pub fn new(window_len: usize, stride: usize) -> Self {
        assert!(window_len > 0, "window length must be non-zero");
        assert!(stride > 0, "stride must be non-zero");
        Self { window_len, stride, batch_size: 64, standardize: true, threads: 0 }
    }

    /// Sets the inference batch size (larger batches amortise per-call cost).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Enables/disables per-window standardisation (must match the dataset
    /// builder setting used during training).
    pub fn with_standardize(mut self, standardize: bool) -> Self {
        self.standardize = standardize;
        self
    }

    /// Sets the number of scoring threads (`0` = one per available core);
    /// the calling thread is one of them, so `1` scores on the calling
    /// thread alone. Scores are independent per window, so any thread
    /// count produces identical output.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Inference window length `N_inf`.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Stride `s` between consecutive windows.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Inference batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Whether windows are standardised before scoring.
    pub fn standardize(&self) -> bool {
        self.standardize
    }

    /// Configured scoring thread count (`0` = one per available core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of score samples produced for a trace of `trace_len` samples.
    ///
    /// Only *complete* windows are scored: trailing samples shorter than one
    /// window — up to `window_len + stride − 2` of them after the last
    /// stride-aligned window that fits — are never covered by any score, and
    /// a trace shorter than `window_len` yields an empty signal. This holds
    /// identically for [`Self::classify`] and [`Self::classify_source`] (see
    /// [`WindowSlicer::window_count`] for the underlying arithmetic).
    pub fn output_len(&self, trace_len: usize) -> usize {
        WindowSlicer::new(self.window_len, self.stride)
            .expect("parameters validated at construction")
            .window_count(trace_len)
    }

    /// Runs the sliding-window classification, returning the `swc` score
    /// signal (one score per window, in window order).
    ///
    /// Generic over [`WindowScorer`], so the `f32` CNN, its quantised
    /// counterpart and the engine's model wrapper all score through this one
    /// path (including the shard fan-out). The scorer is borrowed immutably:
    /// shards share the weights and allocate only a per-thread
    /// [`Workspace`].
    pub fn classify<S: WindowScorer>(&self, cnn: &S, trace: &Trace) -> Vec<f32> {
        let slicer = WindowSlicer::new(self.window_len, self.stride)
            .expect("parameters validated at construction");
        let starts: Vec<usize> = slicer.window_starts(trace.len()).collect();
        let mut scores = vec![0.0f32; starts.len()];
        self.score_starts(cnn, trace.samples(), &starts, &mut scores);
        scores
    }

    /// Runs the sliding-window classification over a [`TraceSource`] without
    /// ever holding more than one chunk of the trace in memory, returning
    /// the same `swc` signal as [`Self::classify`] **bit-identically**.
    ///
    /// The trace is scored in chunks of at most `chunk_len` samples. Chunk
    /// boundaries are aligned to the stride grid and consecutive chunks
    /// overlap by the tail a window needs (up to `window_len − 1` samples),
    /// so every window sees exactly the samples it would see in memory; the
    /// per-window scores then cannot differ (scoring is per-window
    /// independent — the same invariant that makes the thread fan-out
    /// exact). Chunks are double-buffered: a reader thread fetches chunk
    /// `i + 1` while chunk `i` is scored, so peak memory is two chunk
    /// buffers — O(`chunk_len` + `window_len`) each — independent of the
    /// trace length.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] if `chunk_len` is zero, and
    /// propagates source I/O failures.
    pub fn classify_source<S: WindowScorer, T: TraceSource + ?Sized>(
        &self,
        cnn: &S,
        source: &T,
        chunk_len: usize,
    ) -> sca_trace::Result<Vec<f32>> {
        let mut scores = Vec::with_capacity(self.output_len(source.len()));
        self.classify_source_with(cnn, source, chunk_len, |span| scores.extend_from_slice(span))?;
        Ok(scores)
    }

    /// Chunked scoring driver behind [`Self::classify_source`]: streams the
    /// `swc` signal to `sink` one chunk-span at a time (in window order,
    /// gap- and overlap-free) instead of collecting it, so a caller can
    /// segment incrementally without retaining the scores. Returns the total
    /// number of scores produced.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] if `chunk_len` is zero, and
    /// propagates source I/O failures.
    pub fn classify_source_with<S, T, F>(
        &self,
        cnn: &S,
        source: &T,
        chunk_len: usize,
        mut sink: F,
    ) -> sca_trace::Result<usize>
    where
        S: WindowScorer,
        T: TraceSource + ?Sized,
        F: FnMut(&[f32]),
    {
        if chunk_len == 0 {
            return Err(TraceError::InvalidParameter("chunk length must be > 0".into()));
        }
        let total_windows = self.output_len(source.len());
        if total_windows == 0 {
            return Ok(0);
        }
        // Fills `buf` with the samples backing the chunk at window `first`.
        let fill_chunk = |buf: &mut Vec<f32>, first: usize| -> sca_trace::Result<()> {
            let (_, samples) = self.chunk_at(first, chunk_len, total_windows);
            buf.resize(samples.len(), 0.0);
            source.fill(samples.start, buf)
        };

        // Double-buffered streaming: while chunk i is scored, a reader
        // thread prefetches chunk i + 1 into the second buffer, hiding the
        // source's read latency behind the CNN work. Scoring order, chunk
        // geometry and every sample a window sees are exactly those of the
        // sequential loop this replaces, so the `swc` signal stays
        // bit-identical; a failed prefetch surfaces only after the
        // in-flight chunk's scores reach the sink, so the delivered score
        // prefix on error is the same as the sequential loop's.
        let mut cur: Vec<f32> = Vec::new();
        let mut next: Vec<f32> = Vec::new();
        let mut scores: Vec<f32> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        fill_chunk(&mut cur, 0)?;
        let mut first = 0usize;
        while first < total_windows {
            let last = self.chunk_at(first, chunk_len, total_windows).0.end;
            // Window starts relative to the chunk buffer: the stride grid
            // re-based to the chunk's first sample.
            starts.clear();
            starts.extend((0..last - first).map(|i| i * self.stride));
            scores.resize(last - first, 0.0);
            let prefetch = if last < total_windows {
                let next_buf = &mut next;
                std::thread::scope(|scope| {
                    let reader = scope.spawn(move || fill_chunk(next_buf, last));
                    self.score_starts(cnn, &cur, &starts, &mut scores);
                    reader.join().expect("prefetch reader panicked")
                })
            } else {
                self.score_starts(cnn, &cur, &starts, &mut scores);
                Ok(())
            };
            sink(&scores);
            prefetch?;
            std::mem::swap(&mut cur, &mut next);
            first = last;
        }
        Ok(total_windows)
    }

    /// The chunk of a streamed trace of `total_windows` windows that starts
    /// at window `first`, for chunks of at most `chunk_len` samples: the
    /// windows it scores and the trace samples backing them. A chunk holds
    /// as many stride-aligned windows as fit in `chunk_len` samples, but at
    /// least one (a chunk shorter than a window would make no progress);
    /// the next chunk starts at the window this one ends at, so
    /// consecutive chunks overlap by the tail a window needs and every
    /// window sees exactly the samples it sees in memory.
    ///
    /// # Panics
    ///
    /// Panics if `first` is not below `total_windows`.
    pub fn chunk_at(
        &self,
        first: usize,
        chunk_len: usize,
        total_windows: usize,
    ) -> (Range<usize>, Range<usize>) {
        assert!(first < total_windows, "chunk start past the last window");
        let last = (first + self.output_len(chunk_len).max(1)).min(total_windows);
        (first..last, first * self.stride..(last - 1) * self.stride + self.window_len)
    }

    /// Stages one raw window for scoring: copies it into `row` and, when
    /// the classifier standardises, standardises the row in place. Every
    /// path that scores windows — the sliding shards, calibration samples
    /// and the locate service's batches — stages them through this one
    /// method, which keeps their scores bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `window` differ in length.
    pub fn stage_window(&self, row: &mut [f32], window: &[f32]) {
        row.copy_from_slice(window);
        if self.standardize {
            sca_trace::dsp::standardize_in_place(row);
        }
    }

    /// Scores the windows at `starts` (relative to `samples`) into `out`,
    /// in contiguous shards across [`Self::effective_threads`] threads.
    /// This is the one scoring path shared by the in-memory and the chunked
    /// classifiers.
    fn score_starts<S: WindowScorer>(
        &self,
        cnn: &S,
        samples: &[f32],
        starts: &[usize],
        out: &mut [f32],
    ) {
        debug_assert_eq!(starts.len(), out.len());
        let threads = self.effective_threads(starts.len());
        tinynn::parallel::for_each_run(out, 1, threads, &mut Workspace::new(), |first, run, ws| {
            self.classify_shard(cnn, ws, &starts[first..first + run.len()], samples, run);
        });
    }

    /// The pre-optimisation scoring path (per-window `Vec` staging through
    /// [`CoLocatorCnn::stack_windows`]), the reference of the regression
    /// tests.
    #[cfg(test)]
    fn classify_reference(&self, cnn: &CoLocatorCnn, trace: &Trace) -> Vec<f32> {
        let slicer = WindowSlicer::new(self.window_len, self.stride)
            .expect("parameters validated at construction");
        let starts: Vec<usize> = slicer.window_starts(trace.len()).collect();
        let mut ws = Workspace::new();
        let mut scores = Vec::with_capacity(starts.len());
        for chunk in starts.chunks(self.batch_size) {
            let windows: Vec<Vec<f32>> = chunk
                .iter()
                .map(|&s| {
                    let mut w = trace.samples()[s..s + self.window_len].to_vec();
                    if self.standardize {
                        sca_trace::dsp::standardize_in_place(&mut w);
                    }
                    w
                })
                .collect();
            let input = CoLocatorCnn::stack_windows(&windows);
            scores.extend(cnn.class1_scores(&input, &mut ws));
        }
        scores
    }

    /// The full seed-equivalent baseline: per-window `Vec` staging *and*
    /// naive scalar convolution kernels
    /// ([`CoLocatorCnn::class1_scores_reference`]). [`Self::classify`] must
    /// produce the same scores to within float reassociation error.
    #[cfg(test)]
    fn classify_naive(&self, cnn: &CoLocatorCnn, trace: &Trace) -> Vec<f32> {
        let slicer = WindowSlicer::new(self.window_len, self.stride)
            .expect("parameters validated at construction");
        let starts: Vec<usize> = slicer.window_starts(trace.len()).collect();
        let mut ws = Workspace::new();
        let mut scores = Vec::with_capacity(starts.len());
        for chunk in starts.chunks(self.batch_size) {
            let windows: Vec<Vec<f32>> = chunk
                .iter()
                .map(|&s| {
                    let mut w = trace.samples()[s..s + self.window_len].to_vec();
                    if self.standardize {
                        sca_trace::dsp::standardize_in_place(&mut w);
                    }
                    w
                })
                .collect();
            let input = CoLocatorCnn::stack_windows(&windows);
            scores.extend(cnn.class1_scores_reference(&input, &mut ws));
        }
        scores
    }

    /// Thread count actually used for `windows` windows: the configured (or
    /// auto-detected) count, capped so every shard still gets at least two
    /// full batches of work (thread spawn has a cost, even if the weights are
    /// no longer cloned).
    fn effective_threads(&self, windows: usize) -> usize {
        let configured =
            if self.threads == 0 { tinynn::parallel::max_threads() } else { self.threads };
        configured.min(windows.div_ceil(2 * self.batch_size)).max(1)
    }

    /// Scores a contiguous shard of window starts into `out`, reusing one
    /// `[batch, 1, N]` tensor and one score buffer for the whole shard.
    fn classify_shard<S: WindowScorer>(
        &self,
        cnn: &S,
        ws: &mut Workspace,
        starts: &[usize],
        samples: &[f32],
        out: &mut [f32],
    ) {
        let n = self.window_len;
        let mut batch = ws.uninit_tensor(&[self.batch_size.min(starts.len()), 1, n]);
        let mut scores_buf: Vec<f32> = Vec::with_capacity(self.batch_size);
        let mut offset = 0usize;
        for chunk in starts.chunks(self.batch_size) {
            // The final chunk may be short; swap in a matching smaller
            // tensor from the arena (every row below is fully overwritten,
            // so stale arena contents never leak into a score).
            if chunk.len() * n != batch.len() {
                ws.recycle(batch);
                batch = ws.uninit_tensor(&[chunk.len(), 1, n]);
            }
            for (row, &start) in batch.data_mut().chunks_mut(n).zip(chunk.iter()) {
                self.stage_window(row, &samples[start..start + n]);
            }
            cnn.score_windows_into(&batch, ws, &mut scores_buf);
            out[offset..offset + chunk.len()].copy_from_slice(&scores_buf);
            offset += chunk.len();
        }
        ws.recycle(batch);
    }

    /// Maps an index in the `swc` signal back to a trace sample index
    /// (multiplication by the stride, as in Section III-D).
    pub fn score_index_to_sample(&self, index: usize) -> usize {
        index * self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::CnnConfig;

    fn tiny_cnn() -> CoLocatorCnn {
        CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 3 })
    }

    fn wavy_trace(len: usize) -> Trace {
        Trace::from_samples((0..len).map(|x| (x as f32 * 0.1).sin()).collect())
    }

    /// The scaled network (8 base filters, kernel 9) at window 128, stride 32
    /// and batch 64 over 192 windows: `(cnn, window, stride, batch, len)`.
    fn scaled_case() -> (CoLocatorCnn, usize, usize, usize, usize) {
        (CoLocatorCnn::new(CnnConfig::scaled()), 128, 32, 64, 128 + 32 * 191)
    }

    #[test]
    fn output_length_matches_window_count() {
        let swc = SlidingWindowClassifier::new(16, 4);
        assert_eq!(swc.output_len(64), (64 - 16) / 4 + 1);
        assert_eq!(swc.output_len(10), 0);
        let cnn = tiny_cnn();
        let trace = Trace::from_samples(vec![0.1; 64]);
        let scores = swc.classify(&cnn, &trace);
        assert_eq!(scores.len(), swc.output_len(64));
    }

    #[test]
    fn score_index_mapping() {
        let swc = SlidingWindowClassifier::new(32, 8);
        assert_eq!(swc.score_index_to_sample(0), 0);
        assert_eq!(swc.score_index_to_sample(5), 40);
    }

    #[test]
    fn batching_does_not_change_scores() {
        let cnn = tiny_cnn();
        let trace = wavy_trace(200);
        let small = SlidingWindowClassifier::new(16, 8).with_batch_size(2);
        let big = SlidingWindowClassifier::new(16, 8).with_batch_size(64);
        let a = small.classify(&cnn, &trace);
        let b = big.classify(&cnn, &trace);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_copy_path_matches_reference_exactly() {
        // Regression pin for the buffer-reuse rewrite: identical scores, not
        // merely close ones, for full and ragged final batches alike.
        for (cnn, window, stride, batch, len) in [
            (tiny_cnn(), 16, 8, 4, 400),
            (tiny_cnn(), 16, 4, 7, 400),
            (tiny_cnn(), 24, 16, 64, 400),
            scaled_case(),
        ] {
            let swc = SlidingWindowClassifier::new(window, stride).with_batch_size(batch);
            let trace = wavy_trace(len);
            let fast = swc.classify(&cnn, &trace);
            let reference = swc.classify_reference(&cnn, &trace);
            assert_eq!(fast.len(), reference.len());
            for (a, b) in fast.iter().zip(reference.iter()) {
                assert!((a - b).abs() <= 1e-6, "zero-copy {a} vs reference {b}");
            }
        }
    }

    #[test]
    fn optimized_kernels_match_naive_network_end_to_end() {
        // Whole-network parity: GEMM kernels + zero-copy staging vs the
        // seed-equivalent naive path, within float reassociation error.
        for (cnn, window, stride, batch, len) in [(tiny_cnn(), 24, 8, 8, 300), scaled_case()] {
            let swc = SlidingWindowClassifier::new(window, stride).with_batch_size(batch);
            let trace = wavy_trace(len);
            let fast = swc.classify(&cnn, &trace);
            let naive = swc.classify_naive(&cnn, &trace);
            assert_eq!(fast.len(), naive.len());
            for (a, b) in fast.iter().zip(naive.iter()) {
                assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "optimised {a} vs naive {b}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_scores() {
        let cnn = tiny_cnn();
        let trace = wavy_trace(600);
        let base = SlidingWindowClassifier::new(16, 4).with_batch_size(4);
        let sequential = base.with_threads(1).classify(&cnn, &trace);
        for threads in [2usize, 3, 8] {
            let parallel = base.with_threads(threads).classify(&cnn, &trace);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn shared_weight_scores_match_staged_reference_across_thread_counts() {
        // Regression pin for the `&mut self` → `&self` redesign: the shared
        // weight path (one `&CoLocatorCnn`, per-thread workspaces — the old
        // path cloned the full CNN per shard per call) must reproduce the
        // per-window staged reference scores at 1e-6, whatever the thread
        // count.
        let cnn = tiny_cnn();
        let trace = wavy_trace(800);
        let base = SlidingWindowClassifier::new(16, 4).with_batch_size(4);
        let reference = base.classify_reference(&cnn, &trace);
        for threads in [1usize, 2, 3, 4, 8] {
            let scores = base.with_threads(threads).classify(&cnn, &trace);
            assert_eq!(scores.len(), reference.len());
            for (i, (a, b)) in scores.iter().zip(reference.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6,
                    "threads={threads} window {i}: shared {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn chunked_source_scoring_is_bit_identical_to_in_memory() {
        let cnn = tiny_cnn();
        let trace = wavy_trace(500);
        for (window, stride) in [(16usize, 8usize), (16, 4), (24, 16), (16, 16), (24, 5)] {
            let swc = SlidingWindowClassifier::new(window, stride).with_batch_size(8);
            let in_memory = swc.classify(&cnn, &trace);
            // Chunks smaller than a window, equal to it, unaligned, and
            // larger than the whole trace.
            for chunk_len in [1usize, window - 1, window, 3 * window + 1, 100, 499, 500, 10_000] {
                let streamed = swc.classify_source(&cnn, &trace, chunk_len).unwrap();
                assert_eq!(streamed.len(), in_memory.len(), "chunk {chunk_len}");
                for (i, (a, b)) in streamed.iter().zip(in_memory.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "window={window} stride={stride} chunk={chunk_len} score {i}: \
                         streamed {a} vs in-memory {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_source_rejects_zero_chunk_and_handles_short_traces() {
        let cnn = tiny_cnn();
        let swc = SlidingWindowClassifier::new(16, 4);
        assert!(swc.classify_source(&cnn, &wavy_trace(100), 0).is_err());
        // Shorter than one window: empty signal, no source reads needed.
        assert!(swc.classify_source(&cnn, &wavy_trace(10), 64).unwrap().is_empty());
        assert!(swc.classify_source(&cnn, &Trace::default(), 64).unwrap().is_empty());
    }

    #[test]
    fn chunked_spans_arrive_in_order_and_cover_everything() {
        let cnn = tiny_cnn();
        let trace = wavy_trace(300);
        let swc = SlidingWindowClassifier::new(16, 8).with_batch_size(4);
        let expected = swc.classify(&cnn, &trace);
        let mut collected = Vec::new();
        let mut spans = 0usize;
        let produced = swc
            .classify_source_with(&cnn, &trace, 64, |span| {
                assert!(!span.is_empty());
                collected.extend_from_slice(span);
                spans += 1;
            })
            .unwrap();
        assert_eq!(produced, expected.len());
        assert_eq!(collected, expected);
        assert!(spans > 1, "a 300-sample trace with 64-sample chunks must span multiple chunks");
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        SlidingWindowClassifier::new(8, 0);
    }

    #[test]
    fn short_trace_yields_no_scores() {
        let swc = SlidingWindowClassifier::new(128, 16);
        let cnn = tiny_cnn();
        let scores = swc.classify(&cnn, &Trace::from_samples(vec![0.0; 50]));
        assert!(scores.is_empty());
    }
}
