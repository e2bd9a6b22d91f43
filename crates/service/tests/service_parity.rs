//! Acceptance tests of the coalescing service: everything the scheduler
//! packs, demuxes, rejects or drains must be **bit-identical** to the
//! single-request `LocatorEngine` paths — for f32 and i8 models, in-memory
//! and streamed submissions, across chunk sizes, under concurrency, and at
//! every typed failure edge (backpressure, deadlines, truncated sources,
//! shutdown).

use std::io::Write;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use locsvc::{LocatorService, Rejected, RequestOptions, ServiceConfig, ServiceError, Ticket};
use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
use sca_trace::{FileTraceSource, Trace, TraceSource};

fn tiny_engine(seed: u64) -> LocatorEngine {
    LocatorEngine::new(
        CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed }),
        SlidingWindowClassifier::new(16, 4).with_batch_size(8),
        Segmenter::default(),
    )
}

/// Deterministic pseudo-noise trace (same generator as the locator parity
/// tests: dense sign changes stress segmentation).
fn noisy_trace(len: usize, seed: u64) -> Trace {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Trace::from_samples(
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                (i as f32 * 0.07).sin() + 0.6 * noise
            })
            .collect(),
    )
}

fn collect_scores() -> RequestOptions {
    RequestOptions { collect_scores: true, ..RequestOptions::default() }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("locsvc_parity_{name}_{}", std::process::id()))
}

#[test]
fn coalesced_batches_are_bit_identical_to_serial_locate_for_f32_and_i8() {
    let f32_engine = tiny_engine(21);
    let i8_engine = tiny_engine(21).quantize();
    // A tiny tile forces batches to span request boundaries; extra workers
    // force concurrent claiming even on a single-core host.
    let service = LocatorService::start(
        vec![f32_engine, i8_engine],
        ServiceConfig { workers: 4, tile_windows: 24, ..ServiceConfig::default() },
    );
    let models = ["model-0", "model-1"];
    // Mixed sizes: tiny (sub-tile), medium, larger-than-tile requests,
    // interleaved across the two models.
    let lens = [70usize, 333, 900, 150, 61, 512, 257, 800];
    let mut expected = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let model = models[i % 2];
        let trace = noisy_trace(len, i as u64 + 1);
        let engine = service.engine(model).unwrap();
        let (scores, starts) = engine.locate_detailed(&trace);
        expected.push((model, trace, scores, starts));
    }
    let tickets: Vec<Ticket> = expected
        .iter()
        .map(|(model, trace, _, _)| {
            service.submit_trace(model, trace.clone(), collect_scores()).unwrap()
        })
        .collect();
    for (ticket, (_, _, scores, starts)) in tickets.into_iter().zip(&expected) {
        let got = ticket.wait().unwrap();
        assert_eq!(&got.starts, starts);
        assert_eq!(got.windows, scores.len());
        let got_scores = got.scores.expect("scores were requested");
        assert_eq!(got_scores.len(), scores.len());
        for (i, (a, b)) in got_scores.iter().zip(scores).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "score {i} diverged");
        }
    }
    let m = service.metrics();
    assert_eq!(m.submitted, lens.len() as u64);
    assert_eq!(m.completed, lens.len() as u64);
    let windows: usize = expected.iter().map(|(_, _, scores, _)| scores.len()).sum();
    assert_eq!(m.batched_windows, windows as u64, "every window scored exactly once");
    assert!(m.batches > 0);
    assert!(m.batch_fill_ratio > 0.0 && m.batch_fill_ratio <= 1.0);
    assert!(m.p50_latency <= m.p99_latency);
    service.shutdown();
}

#[test]
fn streamed_submissions_match_locate_streamed_across_chunk_sizes() {
    let service = LocatorService::start(
        vec![tiny_engine(33)],
        ServiceConfig { workers: 2, tile_windows: 16, ..ServiceConfig::default() },
    );
    let model = "model-0";
    let trace = noisy_trace(700, 7);
    // Window-aligned, prime-odd (ragged final chunk) and beyond-the-trace
    // chunk sizes, like the locator's own streaming grid.
    let mut windows = 0;
    for chunk_len in [48usize, 157, 699, 4096] {
        let expected = service.engine(model).unwrap().locate_streamed(&trace, chunk_len).unwrap();
        let opts = RequestOptions { chunk_len: Some(chunk_len), ..collect_scores() };
        let ticket = service.submit_source(model, Box::new(trace.clone()), opts).unwrap();
        let got = ticket.wait().unwrap();
        assert_eq!(got.starts, expected, "chunk={chunk_len}");
        windows += got.windows;
        // The full score signal must also match the in-memory signal.
        let engine = service.engine(model).unwrap();
        let in_memory = engine.sliding().classify(engine.model(), &trace);
        let got_scores = got.scores.expect("scores were requested");
        for (i, (a, b)) in got_scores.iter().zip(&in_memory).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "chunk={chunk_len}: score {i} diverged");
        }
    }
    assert_eq!(service.metrics().batched_windows, windows as u64, "every window scored once");
    service.shutdown();
}

#[test]
fn reader_ingest_matches_file_source_across_chunk_sizes() {
    // The same samples served three ways — in-memory file bytes through
    // `SequentialTraceSource` (non-seekable path), an on-disk
    // `FileTraceSource` (seekable path), and `locate_streamed` directly —
    // must agree bit-for-bit for every chunk size.
    let service = LocatorService::start(vec![tiny_engine(5)], ServiceConfig::default());
    let model = "model-0";
    let trace = noisy_trace(600, 3);
    let path = temp_path("raw");
    sca_trace::io::write_samples_binary(std::fs::File::create(&path).unwrap(), trace.samples())
        .unwrap();
    let mut bytes = Vec::with_capacity(trace.len() * 4);
    for s in trace.samples() {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    for chunk_len in [32usize, 100, 599, 600, 2048] {
        let expected = service.engine(model).unwrap().locate_streamed(&trace, chunk_len).unwrap();
        let opts = RequestOptions { chunk_len: Some(chunk_len), ..RequestOptions::default() };

        let file = Box::new(FileTraceSource::open_raw_f32(&path).unwrap());
        let from_file = service.submit_source(model, file, opts).unwrap().wait().unwrap();
        assert_eq!(from_file.starts, expected, "file chunk={chunk_len}");

        let reader = std::io::Cursor::new(bytes.clone());
        let from_reader =
            service.submit_reader(model, reader, trace.len(), opts).unwrap().wait().unwrap();
        assert_eq!(from_reader.starts, expected, "reader chunk={chunk_len}");
        assert_eq!(from_reader.windows, from_file.windows);
    }
    std::fs::remove_file(&path).ok();
    service.shutdown();
}

#[test]
fn many_threads_hammering_the_service_stay_bit_identical() {
    let service = Arc::new(LocatorService::start(
        vec![tiny_engine(9), tiny_engine(9).quantize()],
        ServiceConfig { workers: 3, tile_windows: 32, ..ServiceConfig::default() },
    ));
    let models = ["model-0", "model-1"];
    // Odd rounds stream their 400 samples in 96-sample chunks: five chunk
    // loads per request, each re-queued while other threads' requests are
    // being claimed.
    let chunk_len = 96;
    let expected: Vec<Vec<(Vec<usize>, Vec<usize>)>> = models
        .iter()
        .map(|&m| {
            let engine = service.engine(m).unwrap();
            (0..4)
                .map(|i| {
                    let trace = noisy_trace(400, i);
                    (engine.locate(&trace), engine.locate_streamed(&trace, chunk_len).unwrap())
                })
                .collect()
        })
        .collect();
    let windows: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8usize)
            .map(|t| {
                let service = Arc::clone(&service);
                let expected = &expected;
                let models = &models;
                scope.spawn(move || {
                    let mut windows = 0;
                    for round in 0..4usize {
                        let which = (t + round) % 2;
                        let seed = ((t + round) % 4) as u64;
                        let trace = noisy_trace(400, seed);
                        let (whole, streamed) = &expected[which][seed as usize];
                        let (ticket, want) = if round % 2 == 1 {
                            let opts = RequestOptions {
                                chunk_len: Some(chunk_len),
                                ..RequestOptions::default()
                            };
                            (service.submit_source(models[which], Box::new(trace), opts), streamed)
                        } else {
                            let opts = RequestOptions::default();
                            (service.submit_trace(models[which], trace, opts), whole)
                        };
                        let got = ticket.unwrap().wait().unwrap();
                        assert_eq!(&got.starts, want, "thread {t} round {round}");
                        windows += got.windows;
                    }
                    windows
                })
            })
            .collect();
        threads.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(service.metrics().batched_windows, windows as u64, "every window scored once");
    Arc::try_unwrap(service).expect("all clones joined").shutdown();
}

#[test]
fn queue_full_is_a_typed_rejection_and_clears_after_drain() {
    let (reader, mut writer) = std::io::pipe().unwrap();
    let service = LocatorService::start(
        vec![tiny_engine(2)],
        ServiceConfig { workers: 1, queue_capacity: 2, ..ServiceConfig::default() },
    );
    let model = "model-0";
    // Request 1 blocks the only worker on an empty pipe; request 2 fills the
    // queue; request 3 must bounce with the typed backpressure error.
    let blocked = service.submit_reader(model, reader, 64, RequestOptions::default()).unwrap();
    let queued =
        service.submit_trace(model, noisy_trace(200, 1), RequestOptions::default()).unwrap();
    let err =
        service.submit_trace(model, noisy_trace(200, 2), RequestOptions::default()).unwrap_err();
    assert_eq!(err, Rejected::QueueFull { capacity: 2 });
    assert_eq!(service.metrics().rejected_queue_full, 1);

    // Feed the pipe; both admitted requests must now complete normally.
    let samples = noisy_trace(64, 3);
    let mut bytes = Vec::new();
    for s in samples.samples() {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    writer.write_all(&bytes).unwrap();
    drop(writer);
    let expected = service.engine(model).unwrap().locate_streamed(&samples, 1 << 20).unwrap();
    assert_eq!(blocked.wait().unwrap().starts, expected);
    let expected = service.engine(model).unwrap().locate(&noisy_trace(200, 1));
    assert_eq!(queued.wait().unwrap().starts, expected);

    // Capacity freed: submissions are accepted again.
    let again =
        service.submit_trace(model, noisy_trace(200, 2), RequestOptions::default()).unwrap();
    again.wait().unwrap();
    service.shutdown();
}

#[test]
fn a_closed_loop_client_is_never_refused_at_queue_capacity_one() {
    // A request gives its queue slot back before its result is sent, so a
    // client whose `wait` returned finds the slot free for its next request.
    let service = LocatorService::start(
        vec![tiny_engine(4)],
        ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() },
    );
    let trace = noisy_trace(64, 5);
    let mut refused = 0;
    for _ in 0..500 {
        match service.submit_trace("model-0", trace.clone(), RequestOptions::default()) {
            Ok(ticket) => {
                ticket.wait().unwrap();
            }
            Err(Rejected::QueueFull { .. }) => refused += 1,
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert_eq!(refused, 0, "{refused} of 500 closed-loop submissions were refused");
    assert_eq!(service.metrics().rejected_queue_full, 0);
    service.shutdown();
}

#[test]
fn expired_deadline_completes_with_typed_error_without_scoring() {
    let (reader, mut writer) = std::io::pipe().unwrap();
    let service = LocatorService::start(
        vec![tiny_engine(4)],
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    let model = "model-0";
    let blocked = service.submit_reader(model, reader, 64, RequestOptions::default()).unwrap();
    let doomed = service
        .submit_trace(
            model,
            noisy_trace(300, 1),
            RequestOptions {
                deadline: Some(Duration::from_millis(5)),
                ..RequestOptions::default()
            },
        )
        .unwrap();
    // Let the deadline lapse while the only worker is stuck on the pipe.
    std::thread::sleep(Duration::from_millis(30));
    let trace = noisy_trace(64, 3);
    let mut bytes = Vec::new();
    for s in trace.samples() {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    writer.write_all(&bytes).unwrap();
    drop(writer);
    blocked.wait().unwrap();
    assert_eq!(doomed.wait().unwrap_err(), ServiceError::DeadlineExceeded);
    assert_eq!(service.metrics().rejected_deadline, 1);
    service.shutdown();
}

#[test]
fn truncated_reader_surfaces_as_typed_source_error() {
    let service = LocatorService::start(vec![tiny_engine(6)], ServiceConfig::default());
    let model = "model-0";
    // Declares 64 samples, delivers 10: the worker must fail the request
    // with the trace layer's typed truncation error, not hang or panic.
    let short = std::io::Cursor::new(vec![0u8; 40]);
    let ticket = service.submit_reader(model, short, 64, RequestOptions::default()).unwrap();
    match ticket.wait().unwrap_err() {
        ServiceError::Source(e) => {
            assert!(e.to_string().contains("truncated"), "unexpected error: {e}")
        }
        other => panic!("expected a source error, got {other:?}"),
    }
    assert_eq!(service.metrics().failed, 1);
    // The failure must not wedge the service.
    let trace = noisy_trace(300, 1);
    let expected = service.engine(model).unwrap().locate(&trace);
    let got =
        service.submit_trace(model, trace, RequestOptions::default()).unwrap().wait().unwrap();
    assert_eq!(got.starts, expected);
    service.shutdown();
}

#[test]
fn admission_rejections_are_typed() {
    let service = LocatorService::start(
        vec![tiny_engine(1)],
        ServiceConfig { max_trace_len: 100, ..ServiceConfig::default() },
    );
    let model = "model-0";
    assert_eq!(
        service
            .submit_trace("no-such-model", noisy_trace(50, 1), RequestOptions::default())
            .unwrap_err(),
        Rejected::UnknownModel { name: "no-such-model".into() }
    );
    assert_eq!(
        service.submit_trace(model, noisy_trace(101, 1), RequestOptions::default()).unwrap_err(),
        Rejected::TooLong { len: 101, max: 100 }
    );
    let opts = RequestOptions { chunk_len: Some(0), ..RequestOptions::default() };
    assert!(matches!(
        service.submit_source(model, Box::new(noisy_trace(50, 1)), opts).unwrap_err(),
        Rejected::InvalidRequest(_)
    ));
    assert_eq!(service.metrics().rejected_other, 3);
    service.shutdown();
}

#[test]
fn sub_window_traces_complete_with_empty_results() {
    let service = LocatorService::start(vec![tiny_engine(3)], ServiceConfig::default());
    let model = "model-0";
    for len in [0usize, 1, 15] {
        let got = service
            .submit_trace(model, noisy_trace(len, 1), collect_scores())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.starts, service.engine(model).unwrap().locate(&noisy_trace(len, 1)));
        assert_eq!(got.windows, 0);
        assert_eq!(got.scores.as_deref(), Some(&[] as &[f32]));
    }
    service.shutdown();
}

#[test]
fn shutdown_drains_admitted_work_then_rejects_new_submissions() {
    let service = LocatorService::start(
        vec![tiny_engine(8)],
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    );
    let model = "model-0";
    let expected: Vec<_> =
        (0..6u64).map(|i| service.engine(model).unwrap().locate(&noisy_trace(350, i))).collect();
    let tickets: Vec<_> = (0..6u64)
        .map(|i| {
            service.submit_trace(model, noisy_trace(350, i), RequestOptions::default()).unwrap()
        })
        .collect();
    service.shutdown();
    // Every admitted request completed despite the shutdown racing them.
    for (ticket, expected) in tickets.into_iter().zip(expected) {
        assert_eq!(ticket.wait().unwrap().starts, expected);
    }
    assert_eq!(
        service.submit_trace(model, noisy_trace(350, 0), RequestOptions::default()).unwrap_err(),
        Rejected::ShuttingDown
    );
}

/// A streamed source that keeps the service alive, as a TCP connection's
/// `ConnStream` does. Its `fill`s wait until the test opens `gate`; dropping
/// it drops the service handle first and then reports on `dropped`.
struct ServiceHoldingSource {
    trace: Trace,
    service: Option<Arc<LocatorService>>,
    gate: Mutex<mpsc::Receiver<()>>,
    dropped: mpsc::Sender<()>,
}

impl TraceSource for ServiceHoldingSource {
    fn len(&self) -> usize {
        self.trace.len()
    }

    fn fill(&self, start: usize, out: &mut [f32]) -> sca_trace::Result<()> {
        // Opening the gate drops its sender, so this returns at once from
        // then on.
        let _ = self.gate.lock().unwrap().recv();
        TraceSource::fill(&self.trace, start, out)
    }
}

impl Drop for ServiceHoldingSource {
    fn drop(&mut self) {
        drop(self.service.take());
        let _ = self.dropped.send(());
    }
}

#[test]
fn worker_dropping_the_last_service_handle_does_not_join_itself() {
    let service = Arc::new(LocatorService::start(
        vec![tiny_engine(12)],
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    ));
    let model = "model-0";
    let engine = service.engine(model).unwrap();
    let trace = noisy_trace(600, 12);
    let (gate_tx, gate_rx) = mpsc::channel();
    let (dropped_tx, dropped_rx) = mpsc::channel();
    let source = ServiceHoldingSource {
        trace: trace.clone(),
        service: Some(Arc::clone(&service)),
        gate: Mutex::new(gate_rx),
        dropped: dropped_tx,
    };
    let opts = RequestOptions { chunk_len: Some(128), ..RequestOptions::default() };
    let ticket = service.submit_source(model, Box::new(source), opts).unwrap();
    // The source now holds the last handle, so the worker that drops the
    // finished request runs the service's shutdown.
    drop(service);
    drop(gate_tx);
    assert_eq!(ticket.wait().unwrap().starts, engine.locate(&trace));
    assert_eq!(dropped_rx.recv_timeout(Duration::from_secs(30)), Ok(()));
}
