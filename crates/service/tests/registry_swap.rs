//! Acceptance tests of the model registry under fire: hot swap while the
//! service is being hammered (every completed request bit-identical to
//! `locate` under the generation it was admitted against, zero admitted
//! requests dropped, for f32 *and* quantised i8 models), eviction→reload
//! roundtrip parity under a byte budget, and worker-panic containment.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use locsvc::{
    FaultKind, FaultPlan, FaultSite, LocatorService, ModelRegistry, RegistryConfig, RegistryError,
    Rejected, RequestOptions, ServiceConfig, ServiceError,
};
use sca_locator::{CnnConfig, CoLocatorCnn, LocatorEngine, Segmenter, SlidingWindowClassifier};
use sca_trace::Trace;

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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("locsvc_registry_{name}_{}", std::process::id()))
}

/// Hammer the service from several threads while another thread swaps the
/// model back and forth N times. Every completed request must be
/// bit-identical to `locate` under the generation it reports — generations
/// alternate between the two weight files (odd = file A, even = file B) —
/// and no admitted request may be dropped. Run for f32 and i8 chains.
#[test]
fn swap_under_load_stays_bit_identical_per_admitted_generation() {
    for (label, quantize) in [("f32", false), ("i8", true)] {
        let build = |seed: u64| {
            let engine = tiny_engine(seed);
            if quantize {
                engine.quantize()
            } else {
                engine
            }
        };
        let path_a = temp_path(&format!("swap_a_{label}"));
        let path_b = temp_path(&format!("swap_b_{label}"));
        build(101).save(&path_a).unwrap();
        build(202).save(&path_b).unwrap();

        // Per-generation reference answers: generation g serves file A when
        // g is odd (gen 1 is the initial load of A; each swap alternates).
        const SEEDS: u64 = 3;
        let reference: Vec<Vec<Vec<usize>>> = [101u64, 202]
            .iter()
            .map(|&s| {
                let engine = build(s);
                (0..SEEDS).map(|seed| engine.locate(&noisy_trace(260, seed))).collect()
            })
            .collect();

        let registry = Arc::new(ModelRegistry::default());
        registry.register("hot", &path_a).unwrap();
        let service = Arc::new(LocatorService::with_registry(
            Arc::clone(&registry),
            ServiceConfig { workers: 3, tile_windows: 24, ..ServiceConfig::default() },
        ));

        const SWAPS: u64 = 6;
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let swapper = {
                let registry = Arc::clone(&registry);
                let done = Arc::clone(&done);
                let (path_a, path_b) = (path_a.clone(), path_b.clone());
                scope.spawn(move || {
                    for k in 0..SWAPS {
                        // Swap k installs generation k+2: B, A, B, …
                        let path = if k % 2 == 0 { &path_b } else { &path_a };
                        let generation = registry.swap("hot", path).unwrap();
                        assert_eq!(generation, k + 2);
                        std::thread::sleep(std::time::Duration::from_millis(3));
                    }
                    done.store(true, Ordering::SeqCst);
                })
            };
            for t in 0..4u64 {
                let service = Arc::clone(&service);
                let done = Arc::clone(&done);
                let reference = &reference;
                scope.spawn(move || {
                    let mut round = 0u64;
                    while !done.load(Ordering::SeqCst) || round < 4 {
                        let seed = (t + round) % SEEDS;
                        let ticket = match service.submit_trace(
                            "hot",
                            noisy_trace(260, seed),
                            RequestOptions::default(),
                        ) {
                            Ok(ticket) => ticket,
                            Err(Rejected::QueueFull { .. }) => continue,
                            Err(other) => panic!("unexpected rejection: {other}"),
                        };
                        // Zero admitted requests dropped: every ticket
                        // completes with a result …
                        let got = ticket
                            .wait()
                            .unwrap_or_else(|e| panic!("admitted request dropped ({label}): {e}"));
                        // … bit-identical to `locate` under the generation
                        // it was admitted against.
                        let which = if got.generation % 2 == 1 { 0 } else { 1 };
                        assert_eq!(
                            got.starts, reference[which][seed as usize],
                            "{label}: thread {t} round {round} gen {}",
                            got.generation
                        );
                        round += 1;
                    }
                });
            }
            swapper.join().unwrap();
        });

        let m = service.metrics();
        assert_eq!(m.model_swaps, SWAPS, "{label}");
        assert_eq!(m.failed, 0, "{label}: no admitted request may fail across swaps");
        assert_eq!(m.submitted, m.completed, "{label}");
        service.shutdown();
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }
}

/// Three file-backed models under a budget that fits roughly one: resolving
/// them round-robin keeps resident bytes under the budget at every step
/// (LRU eviction), reload after eviction serves the *same* generation
/// bit-identically, and the loads/evictions counters account for it.
#[test]
fn eviction_keeps_resident_bytes_under_budget_and_reloads_bit_identically() {
    let paths: Vec<PathBuf> = (0..3u64)
        .map(|i| {
            let path = temp_path(&format!("evict_{i}"));
            tiny_engine(i + 50).save(&path).unwrap();
            path
        })
        .collect();
    let one_model = tiny_engine(50).memory_footprint() as u64;
    let budget = one_model + one_model / 2;
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        byte_budget: budget as usize,
        ..RegistryConfig::default()
    }));
    for (i, path) in paths.iter().enumerate() {
        registry.register(format!("m{i}"), path).unwrap();
    }
    let service = Arc::new(LocatorService::with_registry(
        Arc::clone(&registry),
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    ));
    let trace = noisy_trace(300, 7);
    let expected: Vec<Vec<usize>> = (0..3u64).map(|i| tiny_engine(i + 50).locate(&trace)).collect();

    // Two round-robin passes: the second pass re-resolves models the first
    // pass evicted, so every answer crosses an eviction→reload roundtrip.
    for pass in 0..2 {
        for (i, want) in expected.iter().enumerate() {
            let got = service
                .submit_trace(&format!("m{i}"), trace.clone(), RequestOptions::default())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(&got.starts, want, "pass {pass} model {i}");
            assert_eq!(got.generation, 1, "eviction must not bump the generation");
            let stats = registry.stats();
            assert!(
                stats.resident_bytes <= budget,
                "pass {pass} model {i}: resident {} bytes over budget {budget}",
                stats.resident_bytes,
            );
        }
    }
    let stats = registry.stats();
    assert!(stats.evictions >= 4, "budget for ~1 model must evict on most resolves");
    assert!(stats.loads >= 5, "reloads after eviction are real file loads");
    assert_eq!(stats.models, 3);
    assert!(stats.resident_models <= 2);

    // The gauges surface through the service metrics too.
    let m = service.metrics();
    assert_eq!(m.models, 3);
    assert_eq!(m.model_byte_budget, budget);
    assert_eq!(m.model_loads, stats.loads);
    assert_eq!(m.model_evictions, stats.evictions);
    service.shutdown();
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
}

/// Registry semantics that don't need a running service: lazy cold loads,
/// cached warm resolves, explicit eviction, typed errors.
#[test]
fn registry_loads_lazily_and_types_its_errors() {
    let path = temp_path("lazy");
    tiny_engine(77).save(&path).unwrap();
    let registry = ModelRegistry::default();
    registry.register("lazy", &path).unwrap();
    assert_eq!(registry.stats().loads, 0, "registration must not touch the file");

    let first = registry.resolve("lazy").unwrap();
    assert_eq!(registry.stats().loads, 1);
    assert_eq!(first.generation(), 1);
    let second = registry.resolve("lazy").unwrap();
    assert_eq!(registry.stats().loads, 1, "warm resolves are cache hits");
    assert!(first.same_weights(&second), "one Arc per (name, generation)");

    // Explicit evict, transparent reload: same generation, fresh Arc.
    registry.evict("lazy").unwrap();
    let third = registry.resolve("lazy").unwrap();
    assert_eq!(registry.stats().loads, 2);
    assert_eq!(third.generation(), 1);
    assert!(!first.same_weights(&third));
    // The in-flight handle kept the old weights alive and scoring equal.
    let trace = noisy_trace(200, 1);
    assert_eq!(first.engine().locate(&trace), third.engine().locate(&trace));

    assert!(matches!(registry.resolve("missing").unwrap_err(), RegistryError::UnknownModel { .. }));
    assert!(matches!(
        registry.register("lazy", &path).unwrap_err(),
        RegistryError::AlreadyRegistered { .. }
    ));
    let pinned = ModelRegistry::default();
    pinned.install("pinned", tiny_engine(1)).unwrap();
    assert!(matches!(pinned.evict("pinned").unwrap_err(), RegistryError::NotEvictable { .. }));

    // A registered-but-unloadable file is a typed service rejection, and
    // the registration survives for a retry.
    std::fs::remove_file(&path).ok();
    let service = LocatorService::with_registry(Arc::new(registry), ServiceConfig::default());
    service.registry().evict("lazy").unwrap();
    match service.submit_trace("lazy", noisy_trace(100, 1), RequestOptions::default()) {
        Err(Rejected::ModelUnavailable { name, .. }) => assert_eq!(name, "lazy"),
        other => panic!("expected ModelUnavailable, got {other:?}"),
    }
    service.shutdown();
}

/// A panicking worker must fail only the requests in its batch — with the
/// typed [`ServiceError::WorkerFailed`] — while the remaining workers (and
/// the panicking worker itself, recovered) keep serving bit-identically,
/// and shutdown stays clean.
#[test]
fn worker_panic_fails_its_batch_and_the_service_keeps_serving() {
    let faults = FaultPlan::builder().fault(FaultSite::Score, 0, FaultKind::ScorePanic).build();
    let service = LocatorService::start(
        vec![tiny_engine(31)],
        ServiceConfig { workers: 2, faults, ..ServiceConfig::default() },
    );
    let trace = noisy_trace(350, 4);
    let expected = service.engine("model-0").unwrap().locate(&trace);

    // The injected fault panics the first scoring batch, which must surface
    // as the typed error — not a hang, not a process abort.
    let err = service
        .submit_trace("model-0", trace.clone(), RequestOptions::default())
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServiceError::WorkerFailed), "got {err:?}");

    // The injected panic fires before `score_batch` takes any lock, so no
    // mutex is poisoned; the worker's `catch_unwind` contained it. The
    // service serves on, scores bit-identical, and the panic is visible in
    // the metrics.
    for round in 0..3 {
        let got = service
            .submit_trace("model-0", trace.clone(), RequestOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.starts, expected, "round {round} after recovery");
    }
    let m = service.metrics();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 3);
    service.shutdown();
}

/// Panic-containment accounting depth: every injected scoring fault is
/// counted in `worker_panics` exactly once — one panic per batch, no
/// double-counting from the shutdown join path — and a drained shutdown
/// with faults still pending completes (no hang) with each affected ticket
/// reporting the typed [`ServiceError::WorkerFailed`].
#[test]
fn injected_panic_count_is_exact_and_shutdown_drains_through_faults() {
    const INJECTED: u32 = 4;
    // 80 samples / window 16 / stride 4 = 17 windows; with tile_windows at
    // exactly 17 every request is its own batch, so injections map 1:1 to
    // failed requests and the count assertions are exact.
    let trace = noisy_trace(80, 9);
    let mut builder = FaultPlan::builder();
    for op in 0..u64::from(INJECTED) {
        builder = builder.fault(FaultSite::Score, op, FaultKind::ScorePanic);
    }
    let service = LocatorService::start(
        vec![tiny_engine(31)],
        ServiceConfig {
            workers: 2,
            tile_windows: 17,
            faults: builder.build(),
            ..ServiceConfig::default()
        },
    );

    // First half of the injections: served requests fail one by one.
    for round in 0..2 {
        let err = service
            .submit_trace("model-0", trace.clone(), RequestOptions::default())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServiceError::WorkerFailed), "round {round}: got {err:?}");
    }
    assert_eq!(service.metrics().worker_panics, 2, "one count per injected panic");

    // Second half: requests still queued when shutdown starts. The drain
    // must run them (panicking), complete, and deliver the typed error.
    let pending: Vec<_> = (0..2)
        .map(|_| service.submit_trace("model-0", trace.clone(), RequestOptions::default()).unwrap())
        .collect();
    service.shutdown();
    for (i, ticket) in pending.into_iter().enumerate() {
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, ServiceError::WorkerFailed), "pending {i}: got {err:?}");
    }

    let m = service.metrics();
    assert_eq!(m.worker_panics, INJECTED as u64, "exactly the injected count, nothing more");
    assert_eq!(m.failed, INJECTED as u64);
    assert_eq!(m.submitted, INJECTED as u64);
    assert_eq!(m.completed, 0);
}
