//! Chaos suite: seeded fault schedules driven through live traffic.
//!
//! Each scenario threads one shared [`FaultPlan`] through the service, the
//! registry and (for the TCP tests) the server, then asserts the failure-
//! domain invariants the stack guarantees:
//!
//! 1. **No lost tickets.** Every admitted request resolves — result or typed
//!    error — within a bounded wait; nothing hangs or vanishes.
//! 2. **Typed errors.** Every injected fault surfaces as exactly one typed
//!    error ([`ServiceError::Source`], [`ServiceError::WorkerFailed`],
//!    [`Rejected::ModelUnavailable`], …), never a panic across the API or a
//!    silent wrong answer.
//! 3. **Bit parity.** Every request a fault did *not* touch demuxes
//!    bit-identical to [`LocatorEngine::locate`] on the same trace.
//! 4. **Accounted metrics.** The plan's per-site fired counters reconcile
//!    exactly against the service's failure metrics — every injected fault
//!    is visible in [`locsvc::MetricsSnapshot`].
//!
//! Determinism: schedules derive from the seed alone, so each seed replays
//! the same (site, operation, kind) triples; thread interleaving only decides
//! *which* request an operation lands on, which the invariants are immune to.

use std::io::{Cursor, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locsvc::net::{self, Client, ClientConfig, ServerConfig, Status, FLAG_STREAMED};
use locsvc::{
    FaultKind, FaultPlan, FaultSite, LocatorService, ModelRegistry, RegistryConfig, Rejected,
    RequestOptions, ServiceConfig, ServiceError,
};
use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
use sca_trace::Trace;

/// Bounded stand-in for "forever": long enough for any CI machine, short
/// enough that a genuinely lost ticket fails the suite instead of wedging it.
const GENEROUS: Duration = Duration::from_secs(30);

fn tiny_engine(seed: u64) -> LocatorEngine {
    LocatorEngine::new(
        CoLocatorCnn::new(CnnConfig { base_filters: 2, kernel_size: 3, seed }),
        SlidingWindowClassifier::new(16, 4).with_batch_size(8),
        Segmenter::default(),
    )
}

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

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("locsvc_chaos_{name}_{}", std::process::id()))
}

fn encode(samples: &[f32]) -> Vec<u8> {
    samples.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The kinds that actually fired at `site`: operation indices advance
/// sequentially from 0, so exactly the scheduled entries below the final
/// operation count have fired.
fn fired_kinds(plan: &FaultPlan, site: FaultSite) -> Vec<FaultKind> {
    let ops = plan.ops(site);
    plan.schedule(site).into_iter().filter(|(op, _)| *op < ops).map(|(_, kind)| kind).collect()
}

// ---------------------------------------------------------------------------
// Seeded in-process chaos
// ---------------------------------------------------------------------------

/// One full chaos run per seed; the invariants hold under every schedule.
#[test]
fn seeded_chaos_holds_the_invariants_across_seeds() {
    for seed in [11u64, 22, 33] {
        run_seeded_scenario(seed);
    }
}

fn run_seeded_scenario(seed: u64) {
    // stall_ms = 0 keeps the schedule fail-fast, so every fired fault maps
    // to exactly one typed error and the reconciliation below is exact.
    let plan = FaultPlan::seeded(seed, 3, 12, 0);
    let path = temp_path(&format!("seeded_{seed}"));
    let engine = tiny_engine(31);
    engine.save(&path).unwrap();

    // The reference is loaded outside the faulted registry.
    let reference = LocatorEngine::load(&path).unwrap();
    // 80 samples / window 16 / stride 4 → 17 windows; with `tile_windows`
    // at exactly 17 every request is its own scoring batch, so Score
    // faults map 1:1 onto `WorkerFailed` requests.
    let trace = noisy_trace(80, 9);
    let expected = reference.locate(&trace);
    let bytes = encode(trace.samples());

    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        // Quarantine has its own scenario below; here it would only blur
        // the 1:1 map from `ModelLoad` faults to typed rejections.
        quarantine_after: 0,
        faults: plan.clone(),
        ..RegistryConfig::default()
    }));
    registry.register("m", &path).unwrap();
    let service = LocatorService::with_registry(
        Arc::clone(&registry),
        ServiceConfig { workers: 2, tile_windows: 17, faults: plan.clone(), ..Default::default() },
    );

    let (mut ok, mut source_errors, mut worker_failed, mut model_unavailable) = (0u64, 0u64, 0, 0);
    for wave in 0..4 {
        // Evicting between waves forces reloads through the `ModelLoad`
        // injection site; a model that faulted away stays registered and
        // the next submission retries the load.
        let _ = registry.evict("m");
        let mut tickets = Vec::new();
        for i in 0..8 {
            let submitted = if i % 2 == 0 {
                service.submit_trace("m", trace.clone(), RequestOptions::default())
            } else {
                service.submit_reader(
                    "m",
                    Cursor::new(bytes.clone()),
                    trace.len(),
                    RequestOptions::default(),
                )
            };
            match submitted {
                Ok(ticket) => tickets.push(ticket),
                Err(Rejected::ModelUnavailable { name, .. }) => {
                    assert_eq!(name, "m", "seed {seed} wave {wave}");
                    model_unavailable += 1;
                }
                Err(other) => panic!("seed {seed}: unexpected rejection {other:?}"),
            }
        }
        for (i, ticket) in tickets.iter().enumerate() {
            let outcome = ticket
                .wait_timeout(GENEROUS)
                .unwrap_or_else(|| panic!("seed {seed} wave {wave} request {i}: lost ticket"));
            match outcome {
                Ok(result) => {
                    assert_eq!(
                        result.starts, expected,
                        "seed {seed}: non-faulted request must demux bit-identical to locate"
                    );
                    ok += 1;
                }
                Err(ServiceError::Source(_)) => source_errors += 1,
                Err(ServiceError::WorkerFailed) => worker_failed += 1,
                Err(other) => panic!("seed {seed}: unexpected typed failure {other:?}"),
            }
        }
    }

    // Reconcile every injected fault against the typed outcomes and the
    // metrics — nothing fired invisibly, nothing was counted twice.
    let metrics = service.metrics();
    let score_fired = fired_kinds(&plan, FaultSite::Score);
    assert!(score_fired.iter().all(|k| matches!(k, FaultKind::ScorePanic)));
    assert_eq!(worker_failed, score_fired.len() as u64, "seed {seed}");
    assert_eq!(metrics.worker_panics, score_fired.len() as u64, "seed {seed}");

    let trace_fired = fired_kinds(&plan, FaultSite::TraceRead);
    assert_eq!(source_errors, trace_fired.len() as u64, "seed {seed}");

    let load_fired = fired_kinds(&plan, FaultSite::ModelLoad);
    assert_eq!(model_unavailable, load_fired.len() as u64, "seed {seed}");
    let load_io = load_fired.iter().filter(|k| matches!(k, FaultKind::IoError)).count();
    let load_corrupt = load_fired.iter().filter(|k| matches!(k, FaultKind::CorruptBytes)).count();
    assert_eq!(metrics.io_errors, (trace_fired.len() + load_io) as u64, "seed {seed}");
    assert_eq!(metrics.corrupt_loads, load_corrupt as u64, "seed {seed}");

    assert_eq!(metrics.completed, ok, "seed {seed}");
    assert_eq!(metrics.failed, source_errors + worker_failed, "seed {seed}");
    for site in [FaultSite::TraceRead, FaultSite::ModelLoad, FaultSite::Score] {
        assert_eq!(plan.fired(site), fired_kinds(&plan, site).len() as u64, "seed {seed}");
    }
    assert!(
        plan.fired(FaultSite::TraceRead)
            + plan.fired(FaultSite::ModelLoad)
            + plan.fired(FaultSite::Score)
            > 0,
        "seed {seed}: no fault ever fired — the run tested nothing"
    );

    service.shutdown();
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// TCP chaos
// ---------------------------------------------------------------------------

/// Socket faults on the server side are rescued by the client's bounded
/// reconnect: every request ends in a bit-identical answer, and the plan
/// confirms faults actually fired.
#[test]
fn tcp_chaos_with_retrying_client_recovers_every_request() {
    let plan = FaultPlan::seeded(7, 6, 60, 0);
    let service = Arc::new(LocatorService::start(
        vec![tiny_engine(13)],
        ServiceConfig { workers: 2, ..Default::default() },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = net::serve(
        Arc::clone(&service),
        listener,
        ServerConfig { faults: plan.clone(), ..Default::default() },
    )
    .unwrap();

    let trace = noisy_trace(300, 5);
    let expected: Vec<u64> =
        service.engine("model-0").unwrap().locate(&trace).into_iter().map(|s| s as u64).collect();
    let mut client = Client::connect_with(
        server.addr(),
        ClientConfig {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            backoff_seed: 7,
            ..Default::default()
        },
    )
    .unwrap();

    // Transport faults are rescued inside `Client::locate`. One server-side
    // outcome the client must *not* transport-retry remains visible here: a
    // `NetRead` fault striking mid-payload of a *streamed* request fails the
    // server's ingest, answered in-protocol as the typed
    // [`Status::SourceFailed`] — the frame exchange itself succeeded. Those
    // rounds are re-sent at the application level, and every round must end
    // in a bit-identical answer.
    let mut source_failed = 0u32;
    for round in 0..12 {
        let flags = if round % 2 == 0 { 0 } else { FLAG_STREAMED };
        let response = loop {
            let response = client
                .locate("model-0", flags, 0, trace.samples())
                .unwrap_or_else(|e| panic!("round {round}: retries should have rescued this: {e}"));
            if response.status == Status::SourceFailed {
                source_failed += 1;
                assert!(source_failed <= 32, "round {round}: ingest faults never drained");
                continue;
            }
            break response;
        };
        assert_eq!(response.status, Status::Ok, "round {round}");
        assert_eq!(response.starts, expected, "round {round}");
    }
    assert!(
        plan.fired(FaultSite::NetRead) + plan.fired(FaultSite::NetWrite) > 0,
        "no socket fault ever fired — the run tested nothing"
    );

    server.stop();
    service.shutdown();
}

/// Half-open and abruptly-churning connections are reaped by the
/// per-connection timeouts: no wedged handler threads, a healthy client
/// still served, and `Server::stop` returns promptly.
#[test]
fn half_open_connections_are_reaped_and_stop_stays_prompt() {
    let service = Arc::new(LocatorService::start(
        vec![tiny_engine(13)],
        ServiceConfig { workers: 2, ..Default::default() },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = net::serve(
        Arc::clone(&service),
        listener,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(80)),
            write_timeout: Some(Duration::from_millis(80)),
            ..Default::default()
        },
    )
    .unwrap();

    // A half-open peer: part of a request magic, then silence.
    let mut wedger = TcpStream::connect(server.addr()).unwrap();
    wedger.write_all(b"SC").unwrap();
    // Churn: connections that vanish abruptly, some mid-frame.
    for i in 0..16 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        if i % 2 == 0 {
            let _ = s.write_all(b"SCLQ");
        }
        drop(s);
    }

    let deadline = Instant::now() + GENEROUS;
    while service.metrics().conn_timeouts == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        service.metrics().conn_timeouts >= 1,
        "the half-open connection was never reaped by the read timeout"
    );

    // The wedger never blocked service: a healthy request still round-trips.
    let trace = noisy_trace(120, 3);
    let expected: Vec<u64> =
        service.engine("model-0").unwrap().locate(&trace).into_iter().map(|s| s as u64).collect();
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client.locate("model-0", 0, 0, trace.samples()).unwrap();
    assert_eq!(response.starts, expected);
    drop(client);
    drop(wedger);

    let stopping = Instant::now();
    server.stop();
    assert!(
        stopping.elapsed() < Duration::from_secs(10),
        "Server::stop wedged on reaped connections"
    );
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Corrupt models, quarantine, fallback
// ---------------------------------------------------------------------------

/// A corrupt v4 model file is rejected by its checksum on every load —
/// never served — and repeated failures trip the quarantine, which backs
/// off, cools down, and recovers once the file is healed.
#[test]
fn corrupt_v4_model_is_never_served_and_quarantine_recovers() {
    let path = temp_path("corrupt");
    let engine = tiny_engine(47);
    engine.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    std::fs::write(&path, &bad).unwrap();

    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        quarantine_after: 2,
        quarantine_cooldown: Duration::from_millis(150),
        ..RegistryConfig::default()
    }));
    registry.register("m", &path).unwrap();
    let service = LocatorService::with_registry(Arc::clone(&registry), ServiceConfig::default());
    let trace = noisy_trace(200, 1);

    // Two loads fail the payload checksum: typed rejections naming it.
    for round in 0..2 {
        match service.submit_trace("m", trace.clone(), RequestOptions::default()) {
            Err(Rejected::ModelUnavailable { name, reason }) => {
                assert_eq!(name, "m");
                assert!(reason.contains("checksum"), "round {round}: {reason}");
            }
            other => panic!("a corrupt model must never be served, got {other:?}"),
        }
    }
    // The third submission is quarantined without touching the file.
    match service.submit_trace("m", trace.clone(), RequestOptions::default()) {
        Err(Rejected::ModelUnavailable { reason, .. }) => {
            assert!(reason.contains("quarantined"), "{reason}");
        }
        other => panic!("expected a quarantine rejection, got {other:?}"),
    }
    let metrics = service.metrics();
    assert_eq!(metrics.corrupt_loads, 2);
    assert_eq!(metrics.quarantines, 1);
    assert_eq!(metrics.completed, 0, "nothing may complete against a corrupt model");

    // Heal the file; after the cooldown the reload succeeds and the model
    // serves bit-identically.
    std::fs::write(&path, &good).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let expected = engine.locate(&trace);
    let got = service
        .submit_trace("m", trace.clone(), RequestOptions::default())
        .expect("healed model must load after the cooldown")
        .wait()
        .unwrap();
    assert_eq!(got.starts, expected);
    assert!(service.metrics().retries >= 1, "the recovery retry must be counted");

    service.shutdown();
    std::fs::remove_file(&path).ok();
}

/// When a reload after evict fails, the registry falls back to the last
/// good model file instead of going dark.
#[test]
fn failed_reload_after_evict_falls_back_to_the_last_good_file() {
    let path_a = temp_path("fallback_a");
    let path_b = temp_path("fallback_b");
    tiny_engine(3).save(&path_a).unwrap();
    tiny_engine(5).save(&path_b).unwrap();

    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry.register("m", &path_a).unwrap();
    registry.resolve("m").unwrap();
    // Swapping to B records A as the last good file.
    registry.swap("m", &path_b).unwrap();
    let gen_b = registry.resolve("m").unwrap().generation();
    registry.evict("m").unwrap();
    std::fs::remove_file(&path_b).unwrap();

    // The reload of B fails (file gone); the registry must fall back to A
    // as a *new* generation rather than surface the failure.
    let handle = registry.resolve("m").expect("fallback to the last good file");
    assert!(handle.generation() > gen_b, "the fallback installs a new generation");
    let trace = noisy_trace(160, 8);
    let expected = tiny_engine(3).locate(&trace);
    assert_eq!(handle.engine().locate(&trace), expected, "fallback serves the last good model");
    let stats = registry.stats();
    assert!(stats.io_errors >= 1, "the failed reload is counted");
    assert!(stats.retries >= 1, "the fallback retry is counted");

    std::fs::remove_file(&path_a).ok();
}

// ---------------------------------------------------------------------------
// Ticket::wait_timeout and load shedding
// ---------------------------------------------------------------------------

/// Both `wait_timeout` outcomes: `None` while the (deliberately stalled)
/// request is still in flight, then the same ticket redeems the result.
#[test]
fn ticket_wait_timeout_covers_in_flight_and_completed() {
    let faults = FaultPlan::builder().fault(FaultSite::Score, 0, FaultKind::Stall(250)).build();
    let service = LocatorService::start(
        vec![tiny_engine(9)],
        ServiceConfig { workers: 1, faults, ..Default::default() },
    );
    let trace = noisy_trace(200, 2);
    let expected = service.engine("model-0").unwrap().locate(&trace);

    let ticket = service.submit_trace("model-0", trace, RequestOptions::default()).unwrap();
    // The injected 250 ms stall holds the only batch well past this wait.
    assert!(
        ticket.wait_timeout(Duration::from_millis(20)).is_none(),
        "a stalled request reported completion early"
    );
    // The ticket stays redeemable after a timed-out wait.
    let got = ticket
        .wait_timeout(GENEROUS)
        .expect("stalled request never completed")
        .expect("stall is a delay, not a failure");
    assert_eq!(got.starts, expected);
    service.shutdown();
}

/// An injected stall inflates the observed per-batch latency, and the next
/// deadline-carrying submission is shed at admission with the typed
/// [`Rejected::Overloaded`] — while generous deadlines still pass.
#[test]
fn observed_stalls_feed_deadline_aware_load_shedding() {
    let faults = FaultPlan::builder().fault(FaultSite::Score, 0, FaultKind::Stall(80)).build();
    let service = LocatorService::start(
        vec![tiny_engine(9)],
        ServiceConfig { workers: 1, faults, ..Default::default() },
    );
    let trace = noisy_trace(200, 2);

    // Warm the latency estimator with one (stalled) batch.
    service
        .submit_trace("model-0", trace.clone(), RequestOptions::default())
        .unwrap()
        .wait()
        .unwrap();

    // An impossible deadline is rejected at the door, not after queueing.
    let opts = RequestOptions { deadline: Some(Duration::from_millis(1)), ..Default::default() };
    match service.submit_trace("model-0", trace.clone(), opts) {
        Err(Rejected::Overloaded { estimate, deadline, .. }) => {
            assert!(estimate > deadline, "shed only when the estimate exceeds the deadline");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(service.metrics().sheds, 1);

    // A deadline the backlog estimate fits inside is admitted and served.
    let opts = RequestOptions { deadline: Some(Duration::from_secs(30)), ..Default::default() };
    service.submit_trace("model-0", trace, opts).unwrap().wait().unwrap();
    assert_eq!(service.metrics().sheds, 1, "the generous deadline was not shed");
    service.shutdown();
}

/// The shed estimate counts the windows still queued, not the requests: one
/// queued request of many tiles holds a lone worker for many batches, so a
/// deadline shorter than those batches is shed although only one request
/// waits ahead.
#[test]
fn shedding_counts_the_queued_windows_not_the_requests() {
    // Batch 0 warms the estimator at 200 ms or more; batch 1, the first
    // tile of the long request, stalls so the rest of it is still queued
    // when the probe arrives.
    let faults = FaultPlan::builder()
        .fault(FaultSite::Score, 0, FaultKind::Stall(200))
        .fault(FaultSite::Score, 1, FaultKind::Stall(1000))
        .build();
    let service = LocatorService::start(
        vec![tiny_engine(9)],
        ServiceConfig { workers: 1, faults, ..Default::default() },
    );
    let tile = ServiceConfig::default().tile_windows;
    service
        .submit_trace("model-0", noisy_trace(200, 2), RequestOptions::default())
        .unwrap()
        .wait()
        .unwrap();

    // 20 tiles of windows (length 16, stride 4): at least 19 still queued
    // are 19 batches, 3.8 s or more, while one request ahead is 2 batches.
    let long = noisy_trace(16 + 4 * (20 * tile - 1), 3);
    let long = service.submit_trace("model-0", long, RequestOptions::default()).unwrap();
    let opts = RequestOptions { deadline: Some(Duration::from_secs(2)), ..Default::default() };
    match service.submit_trace("model-0", noisy_trace(200, 4), opts) {
        Err(Rejected::Overloaded { queue_depth, estimate, deadline }) => {
            assert_eq!(queue_depth, 1, "one request waits ahead");
            assert!(estimate > deadline, "shed only when the estimate exceeds the deadline");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    long.wait().unwrap();
    assert_eq!(service.metrics().sheds, 1);
    service.shutdown();
}
