//! # locsvc — the concurrent locate service
//!
//! [`sca_locator::LocatorEngine`] is `Send + Sync` and persistable, but every
//! caller so far drives it synchronously: one thread, one trace, one result.
//! A serving deployment sees something else entirely — many clients
//! submitting traces of wildly different sizes at once, some in memory, some
//! streamed from disk, some arriving over a socket that cannot seek, against
//! a *matrix* of scenario models that come and go while requests are in
//! flight. This crate is the request-queue front-end for that workload:
//!
//! * **Bounded admission.** [`LocatorService::submit_trace`] and friends
//!   either enqueue the request or refuse it *immediately* with a typed
//!   [`Rejected`] — [`Rejected::QueueFull`] is backpressure, not an
//!   afterthought. Nothing inside the service buffers without bound.
//! * **Name-keyed models, hot swap, eviction.** Requests address models by
//!   scenario *name* through a [`ModelRegistry`]: lazily loaded from
//!   `SCALOCEN` files on first request, reference-counted so admitted work
//!   pins the generation it resolved, LRU-evicted under a byte budget, and
//!   [`ModelRegistry::swap`]-able at runtime — new admissions route to the
//!   new weights while in-flight requests complete **bit-identically** on
//!   the old ones. See the [`registry`] module docs.
//! * **Cross-request window coalescing.** Worker threads do not score one
//!   request at a time: they pull up to a tile's worth of windows from *as
//!   many queued requests as it takes* (front of the queue first, same
//!   resident weights only) and pack them into one `[B, 1, N]` batch, so
//!   one scoring pass serves many tiny requests. The engine scores the
//!   batch with the fused `f32` chain or the fixed-point chain of
//!   `tinynn`, one window at a time through every layer. Per-window scores are
//!   independent of batch composition (the invariant every chunked/threaded
//!   parity test in `sca-locator` pins), so the demuxed per-request results
//!   are **bit-identical** to [`sca_locator::LocatorEngine::locate`] /
//!   [`sca_locator::LocatorEngine::locate_streamed`].
//! * **Per-request deadlines + load shedding.** A request that outsits its
//!   deadline in the queue is dropped at the next scheduling point and
//!   completes with [`ServiceError::DeadlineExceeded`] instead of occupying
//!   the cores that could still serve fresher work — and a request whose
//!   deadline is *already* doomed at admission is shed at the door with
//!   [`Rejected::Overloaded`] before any work is wasted on it. The doom
//!   estimate is the windows admitted and not yet claimed, this request's
//!   included, drained `workers × tile_windows` at a time at the observed
//!   per-batch latency.
//! * **Fault isolation.** A panic while scoring fails *that batch's*
//!   requests with a typed [`ServiceError::WorkerFailed`] and is counted in
//!   [`MetricsSnapshot::worker_panics`]; every scheduler lock recovers from
//!   poisoning, the remaining workers keep serving, and
//!   [`LocatorService::shutdown`] reports rather than propagates.
//! * **Graceful drain.** [`LocatorService::shutdown`] (also run on drop)
//!   stops admission, lets the workers finish every admitted request, then
//!   joins them — no request already accepted is ever dropped.
//! * **Non-seekable ingest.** [`LocatorService::submit_reader`] accepts a
//!   plain [`std::io::Read`] — a pipe, a socket — through
//!   [`sca_trace::SequentialTraceSource`], which carries the window-tail
//!   overlap between chunks in memory so the forward-only stream still
//!   yields the exact chunk geometry of the seekable path.
//! * **Wire protocol.** [`net`] adds a thin length-prefixed frame protocol
//!   over [`std::net::TcpListener`]: clients ship a model *name* and
//!   little-endian `f32` samples, the service answers with located CO start
//!   samples; admin frames drive swap/evict remotely. Frames are parsed
//!   with the same bounded, typed-error discipline as the model and trace
//!   file formats.
//! * **Observability.** [`LocatorService::metrics`] snapshots queue depth,
//!   batch fill ratio, rejection counters, interpolated p50/p99 latency and
//!   the registry's load/evict/swap counters and resident-bytes gauge
//!   ([`MetricsSnapshot`]), plus the failure-domain counters (I/O errors,
//!   retries, connection timeouts, sheds, quarantines, corrupt loads).
//! * **Deterministic fault injection.** The [`faults`] module provides a
//!   seed-driven [`FaultPlan`] threaded through [`ServiceConfig::faults`] /
//!   [`net::ServerConfig::faults`] / [`RegistryConfig::faults`] that injects
//!   typed failures at trace reads, model loads, socket I/O and scoring —
//!   the chaos harness (`tests/chaos.rs`) drives it through live traffic and
//!   reconciles every fired fault against typed errors and metrics.
//!
//! ## Scheduling in one paragraph
//!
//! Every admitted request owns a *current chunk* (the whole trace for
//! in-memory requests; one streaming chunk otherwise) and sits in a FIFO
//! ready queue whose entry carries the request's claim cursor. A worker
//! claims up to `tile_windows` consecutive windows, crossing request
//! boundaries but never weight boundaries (requests batch together exactly
//! when they pin the *same resident engine* — same name **and** same
//! generation); fully-claimed requests leave the queue while their scores
//! are still in flight. Scores scatter back into a per-request span; the
//! worker that completes a span either segments it (in-memory:
//! [`sca_locator::Segmenter`] on the full signal, exactly `locate`) or
//! pushes it into the request's [`sca_locator::StreamingSegmenter`] and
//! re-enqueues the request for its next chunk (exactly `locate_streamed`).
//! FIFO claiming keeps head-of-line latency low; coalescing keeps the
//! kernels fed when the queue is a crowd of small requests. Claiming takes
//! one lock, the scheduler's queue lock, and that lock never takes another.
//!
//! ## Example
//!
//! ```
//! use locsvc::{LocatorService, RequestOptions, ServiceConfig};
//! use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
//! use sca_trace::Trace;
//!
//! let engine = LocatorEngine::new(
//!     CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed: 1 }),
//!     SlidingWindowClassifier::new(16, 4),
//!     Segmenter::default(),
//! );
//! let expected: Vec<Vec<usize>> = (0..4)
//!     .map(|i| Trace::from_samples((0..200).map(|x| ((x + i) as f32 * 0.1).sin()).collect()))
//!     .map(|t| engine.locate(&t))
//!     .collect();
//!
//! let service = LocatorService::start(vec![engine], ServiceConfig::default());
//! let tickets: Vec<_> = (0..4)
//!     .map(|i| {
//!         let trace =
//!             Trace::from_samples((0..200).map(|x| ((x + i) as f32 * 0.1).sin()).collect());
//!         service.submit_trace("model-0", trace, RequestOptions::default()).unwrap()
//!     })
//!     .collect();
//! for (ticket, expected) in tickets.into_iter().zip(expected) {
//!     assert_eq!(ticket.wait().unwrap().starts, expected);
//! }
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod metrics;
pub mod net;
pub mod registry;

use std::collections::VecDeque;
use std::io::Read;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sca_locator::{LocatorEngine, StreamingSegmenter, WindowScorer};
use sca_trace::{SequentialTraceSource, Trace, TraceError, TraceSource};
use tinynn::Workspace;

pub use faults::{FaultKind, FaultPlan, FaultPlanBuilder, FaultSite};
pub use metrics::MetricsSnapshot;
pub use registry::{ModelHandle, ModelRegistry, RegistryConfig, RegistryError, RegistryStats};

// ---------------------------------------------------------------------------
// Public request/response surface
// ---------------------------------------------------------------------------

/// Per-request knobs; `Default` is a no-deadline, service-default request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// Complete with [`ServiceError::DeadlineExceeded`] instead of scoring
    /// if this much time passes before the scheduler can serve the request.
    pub deadline: Option<Duration>,
    /// Chunk size (samples) for streamed requests; `None` uses
    /// [`ServiceConfig::chunk_len`]. Ignored for in-memory traces.
    pub chunk_len: Option<usize>,
    /// Also return the raw sliding-window score signal in
    /// [`LocateResult::scores`] (costs O(windows) memory per request).
    pub collect_scores: bool,
}

/// Why a submission was refused at the door (admission control). The request
/// was **not** enqueued; nothing was buffered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity — backpressure; retry later.
    QueueFull {
        /// The configured in-flight request bound.
        capacity: usize,
    },
    /// The service no longer accepts work (shutdown in progress).
    ShuttingDown,
    /// No model is registered under the given name.
    UnknownModel {
        /// The unresolved model name.
        name: String,
    },
    /// The model is registered but could not be made resident (its backing
    /// file failed to load). The registration stays; a later submission
    /// retries the load.
    ModelUnavailable {
        /// The model whose load failed.
        name: String,
        /// The load failure, rendered.
        reason: String,
    },
    /// The declared trace length exceeds [`ServiceConfig::max_trace_len`].
    TooLong {
        /// Declared sample count.
        len: usize,
        /// The configured admission bound.
        max: usize,
    },
    /// A request parameter is invalid (e.g. a zero chunk length).
    InvalidRequest(String),
    /// Deadline-aware load shedding: at admission time, the estimated time
    /// to score the windows no worker has claimed yet, this request's
    /// included (`workers × tile_windows` of them per observed batch
    /// latency), exceeds the request's deadline, so it would expire in the
    /// queue — shed it now rather than after wasted work. Only requests
    /// carrying a [`RequestOptions::deadline`] are ever shed.
    Overloaded {
        /// Admitted-but-incomplete requests ahead at admission time.
        queue_depth: usize,
        /// Estimated time to drain the backlog plus this request.
        estimate: Duration,
        /// The deadline the estimate already exceeds.
        deadline: Duration,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "request queue full ({capacity} in flight)")
            }
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
            Rejected::UnknownModel { name } => write!(f, "unknown model {name:?}"),
            Rejected::ModelUnavailable { name, reason } => {
                write!(f, "model {name:?} unavailable: {reason}")
            }
            Rejected::TooLong { len, max } => {
                write!(f, "declared trace length {len} exceeds the admission bound {max}")
            }
            Rejected::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            Rejected::Overloaded { queue_depth, estimate, deadline } => write!(
                f,
                "shed: estimated backlog drain {estimate:?} ({queue_depth} in flight) \
                 exceeds the {deadline:?} deadline"
            ),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an *admitted* request failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request's deadline passed before (or while) it was scheduled.
    DeadlineExceeded,
    /// The request's trace source failed mid-stream (I/O error, truncated
    /// stream, rewind on a pipe, …).
    Source(TraceError),
    /// A worker panicked while scoring a batch containing this request.
    /// The panic was contained: other requests and the remaining workers
    /// are unaffected (see [`MetricsSnapshot::worker_panics`]).
    WorkerFailed,
    /// The service stopped before the request completed (worker panic —
    /// graceful shutdown drains instead).
    Stopped,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded before scoring"),
            ServiceError::Source(e) => write!(f, "trace source failed: {e}"),
            ServiceError::WorkerFailed => {
                write!(f, "a worker panicked while scoring this request's batch")
            }
            ServiceError::Stopped => write!(f, "service stopped before completion"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A completed locate request.
#[derive(Debug, Clone, PartialEq)]
pub struct LocateResult {
    /// Located CO start samples — bit-identical to
    /// [`sca_locator::LocatorEngine::locate`] (in-memory) /
    /// [`sca_locator::LocatorEngine::locate_streamed`] (streamed).
    pub starts: Vec<usize>,
    /// Number of sliding windows scored.
    pub windows: usize,
    /// The raw score signal, if [`RequestOptions::collect_scores`] was set.
    pub scores: Option<Vec<f32>>,
    /// The model generation this request was admitted against (see
    /// [`ModelHandle::generation`]); a request admitted before a
    /// [`ModelRegistry::swap`] completes on the old generation and reports
    /// it here.
    pub generation: u64,
    /// Admission-to-completion latency.
    pub latency: Duration,
}

/// A claim check for an admitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<LocateResult, ServiceError>>,
}

impl Ticket {
    /// Blocks until the request completes (result or typed failure).
    pub fn wait(self) -> Result<LocateResult, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Stopped))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<LocateResult, ServiceError>> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the result. `None` means the request is
    /// still in flight when the timeout elapses — the ticket stays
    /// redeemable, so callers can bound each wait on a possibly-wedged
    /// service instead of blocking forever, and retry or abandon at their
    /// own pace. A service that stopped without completing the request
    /// yields `Some(Err(ServiceError::Stopped))`, exactly like
    /// [`Ticket::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<LocateResult, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Some(Err(ServiceError::Stopped))
            }
        }
    }
}

/// Service sizing and limits; `Default` suits tests and single-host serving.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker thread count (`0` = one per available core).
    pub workers: usize,
    /// Maximum admitted-but-incomplete requests; submissions beyond it are
    /// rejected with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Windows per packed cross-request batch. The default matches the
    /// sliding classifier's batch size; per-window scores do not depend on
    /// it (only throughput does).
    pub tile_windows: usize,
    /// Default chunk length (samples) for streamed requests.
    pub chunk_len: usize,
    /// Admission bound on declared trace lengths (`usize::MAX` = unbounded).
    pub max_trace_len: usize,
    /// Deterministic fault injection for chaos testing (see [`faults`]).
    /// The default empty plan injects nothing and costs nothing; the
    /// `fault-plan-confined` xcheck rule bans non-test library code from
    /// ever building a non-empty plan.
    pub faults: FaultPlan,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            tile_windows: 64,
            chunk_len: 1 << 20,
            max_trace_len: usize::MAX,
            faults: FaultPlan::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Internal scheduler state
// ---------------------------------------------------------------------------
//
// Two kinds of lock, and one rule that keeps them deadlock-free:
//
// * `state` (the scheduler mutex + condvar) guards the ready queue, each
//   queued request's current chunk and claim cursor (`Queued`), the
//   in-flight count, and the unclaimed-window backlog with each request's
//   share of it (`ActiveRequest::unclaimed`). It is a *leaf* lock: no
//   critical section of `state` takes another lock.
// * each request's `output` guards its score span, segmentation state and
//   completion channel. No thread holds two `output` locks at once.
//
// The only nesting is a request's `output` → `state`, when `finish_chunk`
// re-queues the request and when `complete` releases its queue slot. With
// `state` a leaf, no cycle can form.
//
// A request sits in the ready queue at most once, and only while its
// current chunk is unloaded or has unclaimed windows: `next_step` pops it
// when the chunk is fully claimed (or hands it to a worker to load or
// expire), `finish_chunk` re-queues a streamed request at the back with no
// chunk after the chunk's last score landed, and `load_chunk` re-queues it
// at the front with the new chunk and cursor 0.
//
// Every lock recovers from poisoning (`lock_poisoned`): a panicking worker
// must not take the service down with it, and each critical section
// restores the scheduler invariants before unwinding can observe them
// (requests touched by the panicking batch are failed explicitly by
// `fail_batch`).
//
// A request's current chunk is immutable behind an `Arc` from the moment it
// is queued until every score landed, so workers read its samples without
// any lock.

/// Poison-tolerant lock: recover the guard from a peer's panic instead of
/// cascading it. Scheduler invariants hold at every unlock point, so the
/// recovered state is consistent; the panicking worker's own requests are
/// failed separately with [`ServiceError::WorkerFailed`].
pub(crate) fn lock_poisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An immutable span of samples backing a contiguous run of windows. Window
/// `w` of the chunk starts at sample `w * stride` of `samples` (the chunk is
/// cut on the stride grid, exactly like the streaming classifier's chunks).
struct Chunk {
    window_count: usize,
    samples: Vec<f32>,
}

/// Where completed score spans go.
enum Sink {
    /// Single-chunk in-memory request: segment the full signal at the end
    /// (the `locate` path).
    Whole,
    /// Multi-chunk streamed request: incremental segmentation, next chunk
    /// loaded on demand (the `locate_streamed` path).
    Streaming {
        source: Box<dyn TraceSource + Send>,
        segmenter: Option<StreamingSegmenter>,
        /// Samples per chunk at most
        /// ([`sca_locator::SlidingWindowClassifier::chunk_at`]).
        chunk_len: usize,
        total_windows: usize,
        /// First window of the next chunk to load.
        next_first: usize,
    },
}

struct OutputState {
    /// Completion channel; `None` once the request completed (ok or error),
    /// after which late scatters from in-flight batches are discarded.
    done: Option<SyncSender<Result<LocateResult, ServiceError>>>,
    /// Score span of the current chunk (window offset → score).
    span: Vec<f32>,
    /// Unscored windows remaining in the current chunk.
    remaining: usize,
    /// Total windows scored across all chunks.
    scored: usize,
    /// Full score signal, when the request asked for it.
    collected: Option<Vec<f32>>,
    sink: Sink,
}

struct ActiveRequest {
    /// The model resolved at admission: name, generation and the pinned
    /// engine `Arc`. Swaps and evictions after admission cannot affect this
    /// request — it completes on exactly these weights.
    handle: ModelHandle,
    deadline: Option<Instant>,
    submitted: Instant,
    output: Mutex<OutputState>,
    /// Windows of this request, over all its chunks, that no worker has
    /// claimed yet. Read and written only under the `state` lock; atomic
    /// only because the request is shared.
    unclaimed: AtomicUsize,
}

/// A request in the ready queue, with its claim cursor.
struct Queued {
    req: Arc<ActiveRequest>,
    /// The current chunk; `None` until a worker loads the next one.
    chunk: Option<Arc<Chunk>>,
    /// Next unclaimed window offset within `chunk`.
    next: usize,
}

struct SchedState {
    ready: VecDeque<Queued>,
    /// Admitted and not yet completed (the queue-capacity gauge).
    pending: usize,
    /// Windows of the pending requests that no worker has claimed yet (the
    /// backlog the shed estimate drains).
    unclaimed: usize,
    accepting: bool,
    shutdown: bool,
}

struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: ServiceConfig,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    counters: metrics::Counters,
}

/// One window-run claimed from a request's current chunk.
struct Claim {
    req: Arc<ActiveRequest>,
    chunk: Arc<Chunk>,
    /// First claimed window offset within the chunk.
    first: usize,
    count: usize,
}

enum Step {
    Exit,
    Batch(Vec<Claim>),
    Load(Arc<ActiveRequest>),
    Expire(Arc<ActiveRequest>),
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A running locate service: worker threads, a bounded request queue and a
/// [`ModelRegistry`] of engines addressed by name (see the
/// [crate docs](crate) for the architecture).
#[derive(Debug)]
pub struct LocatorService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("registry", &self.registry).finish_non_exhaustive()
    }
}

impl LocatorService {
    /// Starts a service over in-process engines, installed pinned in a
    /// fresh unbounded registry as `"model-0"`, `"model-1"`, … in order.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or a config limit is zero — these are
    /// deployment constants, not request data.
    pub fn start(engines: Vec<LocatorEngine>, cfg: ServiceConfig) -> Self {
        assert!(!engines.is_empty(), "a service needs at least one engine");
        let registry = Arc::new(ModelRegistry::default());
        for (i, engine) in engines.into_iter().enumerate() {
            registry.install(format!("model-{i}"), engine).expect("fresh registry names clash");
        }
        Self::with_registry(registry, cfg)
    }

    /// Starts a service over a caller-built [`ModelRegistry`] — the
    /// multi-scenario deployment path: register/install models (before or
    /// after start), swap and evict them live through
    /// [`Self::registry`].
    ///
    /// # Panics
    ///
    /// Panics if a config limit is zero.
    pub fn with_registry(registry: Arc<ModelRegistry>, cfg: ServiceConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be non-zero");
        assert!(cfg.tile_windows > 0, "tile window count must be non-zero");
        assert!(cfg.chunk_len > 0, "chunk length must be non-zero");
        let workers = if cfg.workers == 0 { tinynn::parallel::max_threads() } else { cfg.workers };
        let shared = Arc::new(Shared {
            registry,
            cfg: ServiceConfig { workers, ..cfg },
            state: Mutex::new(SchedState {
                ready: VecDeque::new(),
                pending: 0,
                unclaimed: 0,
                accepting: true,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            counters: metrics::Counters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("locsvc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a service worker failed")
            })
            .collect();
        Self { shared, workers: Mutex::new(handles) }
    }

    /// The model registry: register, swap and evict models on a running
    /// service. New admissions observe changes immediately; requests
    /// already admitted complete on the generation they resolved.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The registered model names, in registration order.
    pub fn model_names(&self) -> Vec<Arc<str>> {
        self.shared.registry.names()
    }

    /// Resolves a model name to its current engine (loading it if cold) —
    /// the reference for parity checks. `None` if the name is unknown or
    /// its file fails to load.
    pub fn engine(&self, name: &str) -> Option<Arc<LocatorEngine>> {
        self.shared.registry.resolve(name).ok().map(|h| Arc::clone(h.engine()))
    }

    /// Submits an in-memory trace against the named model. The result's
    /// starts are bit-identical to [`LocatorEngine::locate`] on the same
    /// trace with the engine generation the request was admitted against.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Rejected`] — queue full, unknown model, model file
    /// unloadable, over the length bound, or shutting down — without
    /// buffering anything.
    pub fn submit_trace(
        &self,
        model: &str,
        trace: Trace,
        opts: RequestOptions,
    ) -> Result<Ticket, Rejected> {
        let handle = self.checked_handle(model, trace.len())?;
        let sliding = *handle.engine().sliding();
        let total = sliding.output_len(trace.len());
        let chunk = Arc::new(Chunk { window_count: total, samples: trace.into_samples() });
        self.enqueue(handle, opts, total, Some(chunk), Sink::Whole)
    }

    /// Submits a request served by a [`TraceSource`] — typically an on-disk
    /// [`sca_trace::FileTraceSource`] — scored chunk by chunk in
    /// O(chunk) memory. The result's starts are bit-identical to
    /// [`LocatorEngine::locate_streamed`] with the same chunk length.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Rejected`] on admission failure; source I/O errors
    /// after admission surface through the ticket as
    /// [`ServiceError::Source`].
    pub fn submit_source(
        &self,
        model: &str,
        source: Box<dyn TraceSource + Send>,
        opts: RequestOptions,
    ) -> Result<Ticket, Rejected> {
        // With a fault plan active, every streamed fill passes the
        // `TraceRead` injection site; the empty plan skips the wrapper.
        let source: Box<dyn TraceSource + Send> = if self.shared.cfg.faults.is_empty() {
            source
        } else {
            Box::new(faults::FaultedSource::new(source, self.shared.cfg.faults.clone()))
        };
        let handle = self.checked_handle(model, source.len())?;
        let sliding = *handle.engine().sliding();
        let chunk_len = opts.chunk_len.unwrap_or(self.shared.cfg.chunk_len);
        if chunk_len == 0 {
            return Err(
                self.reject_other(Rejected::InvalidRequest("chunk length must be non-zero".into()))
            );
        }
        let total = sliding.output_len(source.len());
        let sink = Sink::Streaming {
            source,
            segmenter: Some(StreamingSegmenter::new(
                *handle.engine().segmenter().config(),
                sliding.stride(),
            )),
            chunk_len,
            total_windows: total,
            next_first: 0,
        };
        self.enqueue(handle, opts, total, None, sink)
    }

    /// Submits a request ingesting `declared_len` little-endian `f32`
    /// samples from a forward-only byte stream (pipe, socket) through a
    /// [`SequentialTraceSource`]. Chunk geometry — and therefore every
    /// score — matches [`Self::submit_source`] over a seekable source of the
    /// same samples.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Rejected`] on admission failure (including a
    /// declared length whose byte size overflows); stream truncation after
    /// admission surfaces through the ticket as [`ServiceError::Source`].
    pub fn submit_reader<R: Read + Send + 'static>(
        &self,
        model: &str,
        reader: R,
        declared_len: usize,
        opts: RequestOptions,
    ) -> Result<Ticket, Rejected> {
        let source = SequentialTraceSource::new(reader, declared_len)
            .map_err(|e| self.reject_other(Rejected::InvalidRequest(e.to_string())))?;
        self.submit_source(model, Box::new(source), opts)
    }

    /// A point-in-time copy of the service counters, latency quantiles and
    /// registry gauges.
    pub fn metrics(&self) -> MetricsSnapshot {
        let (depth, in_flight) = {
            let st = lock_poisoned(&self.shared.state);
            (st.ready.len(), st.pending)
        };
        self.shared.counters.snapshot(
            depth,
            in_flight,
            self.shared.cfg.tile_windows,
            self.shared.registry.stats(),
        )
    }

    /// Stops admission, drains every admitted request, then joins the
    /// workers. Idempotent; also run on drop. Submissions during or after
    /// the drain are rejected with [`Rejected::ShuttingDown`]. A worker
    /// that died of an uncontained panic is *reported* (counted in
    /// [`MetricsSnapshot::worker_panics`]) — never propagated to the
    /// caller.
    pub fn shutdown(&self) {
        {
            let mut st = lock_poisoned(&self.shared.state);
            st.accepting = false;
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        let handles = std::mem::take(&mut *lock_poisoned(&self.workers));
        // A worker runs this when it drops the last `Arc` to the service (a
        // streamed request's source may hold one, as `net::ConnStream` does).
        // A thread cannot join itself; this worker leaves its loop like the
        // others once `shutdown` is set and nothing is pending.
        let current = std::thread::current().id();
        for handle in handles.into_iter().filter(|h| h.thread().id() != current) {
            if handle.join().is_err() {
                self.shared.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // -- internals ----------------------------------------------------------

    /// Resolves the model at admission time, pinning the current generation
    /// for the whole request, and checks the length bound.
    fn checked_handle(&self, model: &str, len: usize) -> Result<ModelHandle, Rejected> {
        let handle = match self.shared.registry.resolve(model) {
            Ok(handle) => handle,
            Err(RegistryError::UnknownModel { name }) => {
                return Err(self.reject_other(Rejected::UnknownModel { name }));
            }
            Err(RegistryError::Load { name, error }) => {
                return Err(self
                    .reject_other(Rejected::ModelUnavailable { name, reason: error.to_string() }));
            }
            Err(RegistryError::Quarantined { name, retry_in }) => {
                return Err(self.reject_other(Rejected::ModelUnavailable {
                    name,
                    reason: format!(
                        "quarantined after repeated load failures (next attempt in {retry_in:?})"
                    ),
                }));
            }
            Err(other) => {
                return Err(self.reject_other(Rejected::InvalidRequest(other.to_string())));
            }
        };
        if len > self.shared.cfg.max_trace_len {
            return Err(
                self.reject_other(Rejected::TooLong { len, max: self.shared.cfg.max_trace_len })
            );
        }
        Ok(handle)
    }

    fn reject_other(&self, why: Rejected) -> Rejected {
        self.shared.counters.rejected_other.fetch_add(1, Ordering::Relaxed);
        why
    }

    /// Records one TCP connection reaped by a per-connection read/write
    /// timeout (called by [`net`]'s connection wrapper).
    pub(crate) fn note_conn_timeout(&self) {
        self.shared.counters.conn_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission + enqueue, or the zero-window fast path.
    fn enqueue(
        &self,
        handle: ModelHandle,
        opts: RequestOptions,
        total_windows: usize,
        chunk: Option<Arc<Chunk>>,
        sink: Sink,
    ) -> Result<Ticket, Rejected> {
        let shared = &self.shared;
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        if total_windows == 0 {
            // Too short for a single window: same answer `locate` gives,
            // without occupying a queue slot.
            {
                let st = lock_poisoned(&shared.state);
                if !st.accepting {
                    return Err(Rejected::ShuttingDown);
                }
            }
            let engine = handle.engine();
            let starts = engine.segmenter().segment(&[], engine.sliding().stride());
            shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            shared.counters.latency.record(Duration::ZERO);
            let scores = opts.collect_scores.then(Vec::new);
            let _ = tx.send(Ok(LocateResult {
                starts,
                windows: 0,
                scores,
                generation: handle.generation(),
                latency: Duration::ZERO,
            }));
            return Ok(Ticket { rx });
        }
        let submitted = Instant::now();
        let req = Arc::new(ActiveRequest {
            handle,
            deadline: opts.deadline.map(|d| submitted + d),
            submitted,
            unclaimed: AtomicUsize::new(total_windows),
            output: Mutex::new(OutputState {
                done: Some(tx),
                span: match &chunk {
                    Some(c) => vec![0.0; c.window_count],
                    None => Vec::new(),
                },
                remaining: chunk.as_ref().map_or(0, |c| c.window_count),
                scored: 0,
                collected: opts.collect_scores.then(|| Vec::with_capacity(total_windows)),
                sink,
            }),
        });
        {
            let mut st = lock_poisoned(&shared.state);
            if !st.accepting {
                return Err(Rejected::ShuttingDown);
            }
            if st.pending >= shared.cfg.queue_capacity {
                shared.counters.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::QueueFull { capacity: shared.cfg.queue_capacity });
            }
            // Deadline-aware load shedding: if the unclaimed windows ahead of
            // this request plus its own are estimated to outlast the deadline,
            // the request would only expire in the queue — reject it at the
            // door instead of after wasted work. The workers drain
            // `workers × tile_windows` windows per observed batch latency (an
            // EWMA kept by `score_batch`). A cold EWMA (no batch observed
            // yet) never sheds.
            if let Some(deadline) = opts.deadline {
                let batch_nanos = shared.counters.ewma_batch_nanos.load(Ordering::Relaxed);
                if batch_nanos > 0 {
                    let backlog = (st.unclaimed + total_windows) as u64;
                    let per_batch = (shared.cfg.workers * shared.cfg.tile_windows) as u64;
                    let estimate =
                        Duration::from_nanos(batch_nanos.saturating_mul(backlog) / per_batch);
                    if estimate > deadline {
                        shared.counters.sheds.fetch_add(1, Ordering::Relaxed);
                        return Err(Rejected::Overloaded {
                            queue_depth: st.pending,
                            estimate,
                            deadline,
                        });
                    }
                }
            }
            st.pending += 1;
            st.unclaimed += total_windows;
            st.ready.push_back(Queued { req, chunk, next: 0 });
            shared.work_ready.notify_all();
        }
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket { rx })
    }
}

impl Drop for LocatorService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    let mut ws = Workspace::new();
    let mut scores = Vec::new();
    loop {
        match next_step(shared) {
            Step::Exit => break,
            Step::Batch(batch) => {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    score_batch(shared, &mut ws, &mut scores, &batch);
                }));
                if outcome.is_err() {
                    // The workspace and score buffer may hold torn state;
                    // replace them and fail exactly this batch's requests.
                    ws = Workspace::new();
                    scores = Vec::new();
                    fail_batch(shared, &batch);
                }
            }
            Step::Load(req) => {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    load_chunk(shared, &req);
                }));
                if outcome.is_err() {
                    fail_request(shared, &req);
                }
            }
            Step::Expire(req) => expire(shared, &req),
        }
    }
}

/// Fails every request of a batch whose scoring panicked, with the typed
/// [`ServiceError::WorkerFailed`]; requests the batch already completed (or
/// that completed elsewhere) are left alone.
fn fail_batch(shared: &Shared, batch: &[Claim]) {
    shared.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
    for c in batch {
        let mut out = lock_poisoned(&c.req.output);
        if out.done.is_none() {
            continue;
        }
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        complete(shared, &c.req, &mut out, Err(ServiceError::WorkerFailed));
    }
}

/// Fails one request whose chunk load panicked.
fn fail_request(shared: &Shared, req: &Arc<ActiveRequest>) {
    shared.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
    let mut out = lock_poisoned(&req.output);
    if out.done.is_none() {
        return;
    }
    shared.counters.failed.fetch_add(1, Ordering::Relaxed);
    complete(shared, req, &mut out, Err(ServiceError::WorkerFailed));
}

/// Blocks until there is something to do and returns it. Claiming crosses
/// request boundaries (FIFO order) but not weight boundaries — two requests
/// batch together exactly when they pin the same resident engine
/// (`Arc::ptr_eq`), i.e. same model name *and* same generation — and stops
/// at a request whose next chunk is not loaded yet — loading is its own
/// step so no lock is held across I/O.
fn next_step(shared: &Shared) -> Step {
    let mut st = lock_poisoned(&shared.state);
    loop {
        let now = Instant::now();
        let mut batch: Vec<Claim> = Vec::new();
        let mut claimed = 0usize;
        let mut engine: Option<Arc<LocatorEngine>> = None;
        while claimed < shared.cfg.tile_windows {
            let Some(front) = st.ready.front_mut() else { break };
            if front.req.deadline.is_some_and(|d| d <= now) {
                // With a batch in hand, score it first; the expired request
                // is expired on the next pass.
                if !batch.is_empty() {
                    break;
                }
                let expired = st.ready.pop_front().expect("front just observed");
                return Step::Expire(expired.req);
            }
            if engine.as_ref().is_some_and(|e| !Arc::ptr_eq(e, front.req.handle.engine())) {
                break;
            }
            let Some(chunk) = front.chunk.clone() else {
                // Batch in hand: leave the load for the next pass.
                if !batch.is_empty() {
                    break;
                }
                let unloaded = st.ready.pop_front().expect("front just observed");
                return Step::Load(unloaded.req);
            };
            let first = front.next;
            let count = (chunk.window_count - first).min(shared.cfg.tile_windows - claimed);
            front.next += count;
            let drained = front.next == chunk.window_count;
            let req = Arc::clone(&front.req);
            engine = Some(Arc::clone(req.handle.engine()));
            release_unclaimed(&mut st, &req, count);
            batch.push(Claim { req, chunk, first, count });
            claimed += count;
            if drained {
                // Fully claimed; its scores are still in flight.
                st.ready.pop_front();
            }
        }
        if !batch.is_empty() {
            return Step::Batch(batch);
        }
        if st.shutdown && st.pending == 0 {
            return Step::Exit;
        }
        st = shared.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Packs the claimed windows into one `[B, 1, N]` tensor, scores it through
/// the shared weights on this worker's thread, and scatters the scores back
/// per request. Rows are staged by the sliding classifier's own
/// [`sca_locator::SlidingWindowClassifier::stage_window`] and scored via
/// `score_windows_into`, so the scores are bit-identical to the
/// single-request paths regardless of how requests were packed.
fn score_batch(shared: &Shared, ws: &mut Workspace, scores: &mut Vec<f32>, batch: &[Claim]) {
    let started = Instant::now();
    match shared.cfg.faults.check(faults::FaultSite::Score) {
        Some(faults::FaultKind::ScorePanic) => {
            panic!("injected scoring fault (FaultPlan, site Score)");
        }
        Some(faults::FaultKind::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(_) | None => {}
    }
    let engine = batch[0].req.handle.engine();
    let sliding = engine.sliding();
    let (n, stride) = (sliding.window_len(), sliding.stride());
    let total: usize = batch.iter().map(|c| c.count).sum();
    let mut input = ws.uninit_tensor(&[total, 1, n]);
    let windows = batch.iter().flat_map(|c| (c.first..c.first + c.count).map(move |w| (c, w)));
    for (row, (c, w)) in input.data_mut().chunks_exact_mut(n).zip(windows) {
        sliding.stage_window(row, &c.chunk.samples[w * stride..w * stride + n]);
    }
    engine.model().score_windows_into(&input, ws, scores);
    ws.recycle(input);
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared.counters.batched_windows.fetch_add(total as u64, Ordering::Relaxed);
    // Per-batch latency EWMA (α = 1/8) feeding admission-time load shedding.
    // The read-modify-write is deliberately unsynchronized across workers:
    // a lost update skews an *estimate*, and the shed check only needs the
    // right order of magnitude. Stalls (injected or real) inflate it, which
    // is exactly what an overload estimator should see. `max(1)` keeps a
    // warm estimator distinguishable from the cold `0`.
    let nanos = (started.elapsed().as_nanos() as u64).max(1);
    let prev = shared.counters.ewma_batch_nanos.load(Ordering::Relaxed);
    let next = if prev == 0 { nanos } else { prev - prev / 8 + nanos / 8 };
    shared.counters.ewma_batch_nanos.store(next.max(1), Ordering::Relaxed);

    let mut offset = 0usize;
    for c in batch {
        let span = &scores[offset..offset + c.count];
        offset += c.count;
        let mut out = lock_poisoned(&c.req.output);
        if out.done.is_none() {
            continue;
        }
        out.span[c.first..c.first + c.count].copy_from_slice(span);
        out.remaining -= c.count;
        if out.remaining == 0 {
            finish_chunk(shared, &c.req, &mut out);
        }
    }
}

/// Runs with the request's output lock held, after the last score of the
/// current chunk landed: feed the span to segmentation and either complete
/// the request or queue it for its next chunk.
fn finish_chunk(shared: &Shared, req: &Arc<ActiveRequest>, out: &mut OutputState) {
    let engine = req.handle.engine();
    out.scored += out.span.len();
    if let Some(collected) = &mut out.collected {
        collected.extend_from_slice(&out.span);
    }
    match &mut out.sink {
        Sink::Whole => {
            let starts = engine.segmenter().segment(&out.span, engine.sliding().stride());
            complete(shared, req, out, Ok(starts));
        }
        Sink::Streaming { segmenter, total_windows, next_first, .. } => {
            segmenter
                .as_mut()
                .expect("streaming segmenter taken before the last chunk")
                .push(&out.span);
            if *next_first >= *total_windows {
                let starts = segmenter
                    .take()
                    .expect("streaming segmenter taken before the last chunk")
                    .finish();
                complete(shared, req, out, Ok(starts));
            } else {
                // Hand the request back to the end of the queue; a worker
                // will load its next chunk.
                let mut st = lock_poisoned(&shared.state);
                st.ready.push_back(Queued { req: Arc::clone(req), chunk: None, next: 0 });
                shared.work_ready.notify_all();
            }
        }
    }
}

/// Loads the next chunk of a streamed request (the exclusive owner while the
/// request is out of the queue), then puts it back at the *front* with its
/// new chunk — it was at the head, and FIFO latency order should survive
/// the I/O detour.
fn load_chunk(shared: &Shared, req: &Arc<ActiveRequest>) {
    let sliding = req.handle.engine().sliding();
    let mut out = lock_poisoned(&req.output);
    if out.done.is_none() {
        return;
    }
    let Sink::Streaming { source, chunk_len, total_windows, next_first, .. } = &mut out.sink else {
        unreachable!("only streamed requests ever need a chunk load")
    };
    let (windows, span) = sliding.chunk_at(*next_first, *chunk_len, *total_windows);
    let mut samples = vec![0.0f32; span.len()];
    if let Err(e) = source.fill(span.start, &mut samples) {
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        if matches!(e, TraceError::Io(_)) {
            shared.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        complete(shared, req, &mut out, Err(ServiceError::Source(e)));
        return;
    }
    *next_first = windows.end;
    let count = windows.len();
    out.span.clear();
    out.span.resize(count, 0.0);
    out.remaining = count;
    let chunk = Arc::new(Chunk { window_count: count, samples });
    drop(out);
    let mut st = lock_poisoned(&shared.state);
    st.ready.push_front(Queued { req: Arc::clone(req), chunk: Some(chunk), next: 0 });
    shared.work_ready.notify_all();
}

/// Completes a request whose deadline passed while it waited.
fn expire(shared: &Shared, req: &Arc<ActiveRequest>) {
    let mut out = lock_poisoned(&req.output);
    if out.done.is_none() {
        return; // completed in the meantime
    }
    shared.counters.rejected_deadline.fetch_add(1, Ordering::Relaxed);
    complete(shared, req, &mut out, Err(ServiceError::DeadlineExceeded));
}

/// Delivers the final result (with the output lock held) and releases the
/// request's queue slot.
fn complete(
    shared: &Shared,
    req: &Arc<ActiveRequest>,
    out: &mut OutputState,
    result: Result<Vec<usize>, ServiceError>,
) {
    let Some(tx) = out.done.take() else { return };
    let latency = req.submitted.elapsed();
    let result = result.map(|starts| {
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        shared.counters.latency.record(latency);
        LocateResult {
            starts,
            windows: out.scored,
            scores: out.collected.take(),
            generation: req.handle.generation(),
            latency,
        }
    });
    // The ticket may have been dropped; completion still releases the slot
    // and, for an expired or failed request, its unclaimed windows.
    let _ = tx.send(result);
    let mut st = lock_poisoned(&shared.state);
    st.pending -= 1;
    release_unclaimed(&mut st, req, usize::MAX);
    shared.work_ready.notify_all();
}

/// Takes up to `windows` of `req`'s unclaimed windows off the backlog, with
/// the `state` lock held: a claim takes its count, completion the rest.
/// Claims of a request that already failed take nothing.
fn release_unclaimed(st: &mut SchedState, req: &ActiveRequest, windows: usize) {
    let left = req.unclaimed.load(Ordering::Relaxed);
    let taken = left.min(windows);
    req.unclaimed.store(left - taken, Ordering::Relaxed);
    st.unclaimed -= taken;
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::lock_poisoned;

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock_poisoned(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_poisoned(&m), 7);
    }
}
