//! `serve`: many small requests spread over five models, arriving as an open
//! loop (seeded Poisson arrivals) at an in-process `LocatorService` backed by
//! a `ModelRegistry` of lazily loaded v4 files, one i8 model per paper
//! cipher. One submitter thread sends every request at its due time; one
//! collector thread redeems the tickets. Phase `nominal` runs at a fixed
//! rate light enough that most requests find the service idle, without
//! deadlines; phase `overload` offers more than the service can score (at 60
//! requests/s two x86-64 cores leave about one request in six refused or
//! expired) with the latency limit as every request's deadline. Both rates
//! are fixed flags. Requests spread evenly over the five models.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locsvc::{
    LocateResult, LocatorService, ModelRegistry, Rejected, RequestOptions, ServiceConfig,
    ServiceError, Ticket,
};
use sca_locator::LocatorEngine;
use sca_trace::Trace;

use crate::heap;
use crate::locate::{traced_locate, EngineLayers};
use crate::models::{
    fit_engine, macs_per_window, ms_since, repeat_setup, save_engine, Profiling, SetupTimes,
};
use crate::report::Outcome;
use crate::scan::{check_starts, score};
use crate::spans::{thread_number, Recorder, Span};
use crate::stats::{latency_note, median, p90, pct, percentile, tail};
use crate::workload::{
    mix, serve_schedule, triggered_capture, Digest, ServeRequest, SERVE_CIPHERS,
};
use crate::Args;

/// Share of the run given to the nominal phase (at 10 requests/s over 20 s
/// it holds the 100 requests a 90th percentile needs to have ten samples
/// beyond it); overload gets the rest.
const NOMINAL_SHARE: f64 = 0.65;

/// The open-loop generator is valid only while its 99th-percentile
/// lateness stays under this share of the latency limit; otherwise the run
/// is an error. (Latency counts from the due time, so lateness is never
/// hidden; past this bound the offered load no longer follows the
/// schedule.)
const LATE_BOUND_SHARE: f64 = 0.05;

/// One in this many requests is re-located for the parity check.
const PARITY_EVERY: u64 = 8;

fn model_name(m: usize) -> String {
    format!("{:?}", SERVE_CIPHERS[m]).to_lowercase()
}

/// What happened to one request.
enum Fate {
    Done(LocateResult),
    Refused(Rejected),
    Failed(ServiceError),
}

struct Served {
    /// Submitter lateness behind the due time (in traced runs it includes
    /// sampling `metrics()`).
    late: Duration,
    /// Duration of the `submit_trace` call.
    admit: Duration,
    /// Due time to result (completed requests only).
    latency: Option<Duration>,
    /// When the result was ready (completed requests only).
    done_at: Option<Instant>,
    fate: Fate,
    /// `metrics()` sampled at the arrival (traced runs).
    sampled: Option<(usize, usize)>,
}

/// One submission as the submitter saw it.
struct Submission {
    index: usize,
    due_at: Instant,
    call: Instant,
    returned: Instant,
    ticket: Result<Ticket, Rejected>,
    sampled: Option<(usize, usize)>,
    /// The request's root span (traced runs).
    root: Option<usize>,
}

/// Drives one phase: the submitter sends each request at its due time, the
/// collector redeems the tickets in order. A request's latency runs from
/// its due time to its result: the submitter's lateness, the
/// `submit_trace` call, then the service's admission-to-completion time
/// (admission happens inside the call, so this overstates by the tail of
/// the enqueue, microseconds).
fn drive(
    service: &LocatorService,
    requests: Vec<(usize, Duration, Trace)>,
    deadline: Option<Duration>,
    traced: Option<&Recorder>,
    phase: &'static str,
) -> Vec<Served> {
    let opts = RequestOptions { deadline, ..RequestOptions::default() };
    let n = requests.len();
    let (tx, rx) = mpsc::channel::<Submission>();
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (index, (model, due, trace)) in requests.into_iter().enumerate() {
                let due_at = origin + due;
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let sampled = traced.map(|_| {
                    let m = service.metrics();
                    (m.queue_depth, m.in_flight)
                });
                let call = Instant::now();
                let ticket = service.submit_trace(&model_name(model), trace, opts);
                let returned = Instant::now();
                let root = traced.map(|rec| {
                    let req = index as u32;
                    let root = rec.record(Span {
                        name: phase,
                        start: rec.at(due_at),
                        end: rec.at(returned),
                        parent: None,
                        req,
                        thread: thread_number(),
                        count: 0,
                    });
                    rec.record(Span {
                        name: "locsvc.submit",
                        start: rec.at(call),
                        end: rec.at(returned),
                        parent: Some(root),
                        req,
                        thread: thread_number(),
                        count: model as u64,
                    });
                    root
                });
                let msg = Submission { index, due_at, call, returned, ticket, sampled, root };
                if tx.send(msg).is_err() {
                    break;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut served: Vec<Option<Served>> = (0..n).map(|_| None).collect();
            for s in rx {
                let (fate, latency, done_at) = match s.ticket {
                    Err(r) => (Fate::Refused(r), None, None),
                    Ok(ticket) => match ticket.wait() {
                        Ok(result) => {
                            let latency = s.returned - s.due_at + result.latency;
                            if let (Some(rec), Some(root)) = (traced, s.root) {
                                let end = rec.at(s.returned + result.latency);
                                rec.record(Span {
                                    name: "locsvc.sojourn",
                                    start: rec.at(s.returned),
                                    end,
                                    parent: Some(root),
                                    req: s.index as u32,
                                    thread: thread_number(),
                                    count: result.windows as u64,
                                });
                                rec.close(root, end);
                            }
                            let done_at = s.returned + result.latency;
                            (Fate::Done(result), Some(latency), Some(done_at))
                        }
                        Err(e) => (Fate::Failed(e), None, None),
                    },
                };
                served[s.index] = Some(Served {
                    late: s.call - s.due_at,
                    admit: s.returned - s.call,
                    latency,
                    done_at,
                    fate,
                    sampled: s.sampled,
                });
            }
            served
                .into_iter()
                .map(|s| s.expect("every request reaches the collector"))
                .collect::<Vec<_>>()
        });
        collector.join().expect("collector thread panicked")
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Input generation (outside every timed phase and outside setup_s).
    let profilings: Vec<Profiling> = SERVE_CIPHERS.iter().map(|&c| Profiling::capture(c)).collect();
    let warmups: Vec<Trace> = SERVE_CIPHERS
        .iter()
        .enumerate()
        .map(|(m, &c)| triggered_capture(mix(args.seed, 8, m as u64), c).trace)
        .collect();
    let total = Duration::from_secs(args.seconds);
    let phase_len = |share: f64, rps: f64| {
        let span = total.mul_f64(share);
        let count = ((rps * span.as_secs_f64() / 10.0).round() as usize).max(1) * 10;
        (span, count)
    };
    let (nominal_span, nominal_count) = phase_len(NOMINAL_SHARE, args.nominal_rps);
    let (overload_span, overload_count) = phase_len(1.0 - NOMINAL_SHARE, args.overload_rps);
    let nominal = serve_schedule(args.seed, 0, nominal_count, nominal_span);
    let overload = serve_schedule(args.seed, 1, overload_count, overload_span);
    let mut digest = Digest::default();
    nominal.iter().chain(&overload).for_each(|r| digest.request(r));
    out.notes.push(format!(
        "workload digest {:016x}; nominal {nominal_count} requests over {nominal_span:?}, \
         overload {overload_count} over {overload_span:?}",
        digest.value()
    ));

    // Set-up: five fits + quantisations, v4 saves, registry, service start,
    // the registry's lazy loads, one warm-up request per model.
    let paths: Vec<_> = (0..SERVE_CIPHERS.len())
        .map(|m| args.work.join(format!("{}.model", model_name(m))))
        .collect();
    let (service, setup) = repeat_setup(|times, model_digest| {
        // Training runs on one core, so the five fits go two at a time.
        let t = Instant::now();
        let mut lanes = [SetupTimes::default(), SetupTimes::default()];
        let engines: Vec<LocatorEngine> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(lane, lane_times)| {
                    let profilings = &profilings;
                    scope.spawn(move || {
                        profilings
                            .iter()
                            .enumerate()
                            .filter(|(m, _)| m % 2 == lane)
                            .map(|(m, p)| (m, fit_engine(p, true, lane_times)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut fitted: Vec<(usize, LocatorEngine)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("a fit thread panicked"))
                .collect();
            fitted.sort_by_key(|(m, _)| *m);
            fitted.into_iter().map(|(_, e)| e).collect()
        });
        times.fit_s += t.elapsed().as_secs_f64();
        times.quantize_ms += lanes.iter().map(|l| l.quantize_ms).sum::<f64>();
        let registry = Arc::new(ModelRegistry::default());
        for (m, engine) in engines.iter().enumerate() {
            save_engine(engine, &paths[m], model_digest, times)?;
            registry.register(model_name(m), &paths[m]).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let service =
            LocatorService::with_registry(Arc::clone(&registry), ServiceConfig::default());
        times.start_ms += ms_since(t);
        for m in 0..SERVE_CIPHERS.len() {
            let t = Instant::now();
            registry.resolve(&model_name(m)).map_err(|e| format!("lazy load: {e}"))?;
            times.load_ms += ms_since(t);
        }
        for (m, trace) in warmups.iter().enumerate() {
            service
                .submit_trace(&model_name(m), trace.clone(), RequestOptions::default())
                .map_err(|e| format!("warm-up submit: {e}"))?
                .wait()
                .map_err(|e| format!("warm-up request: {e}"))?;
        }
        Ok(service)
    })?;
    out.e2e.setup_s = setup.total_s;
    out.layers.set_setup(&setup);
    drop((profilings, warmups));

    // Keep the parity sample and the ground truth; hand the bare samples
    // over. Every input buffer leaves the heap count until it is freed: a
    // fed trace when the service drops it, a parity copy at the end.
    let split = |requests: Vec<ServeRequest>, phase: u64| {
        let mut parity = Vec::new();
        let mut truth = Vec::new();
        let mut feed = Vec::new();
        for (i, r) in requests.into_iter().enumerate() {
            let c = r.capture;
            if mix(args.seed, 7 + phase, i as u64).is_multiple_of(PARITY_EVERY) {
                let copy = Trace::from_samples(c.trace.samples().to_vec());
                heap::exclude(copy.samples());
                parity.push((i, copy));
            }
            truth.push((r.model, c.trace.len(), c.truth, c.tolerance, c.scored_len));
            let mut samples = c.trace.into_samples();
            samples.shrink_to_fit();
            heap::exclude(&samples);
            feed.push((r.model, r.due, Trace::from_samples(samples)));
        }
        (parity, truth, feed)
    };
    let (nominal_parity, nominal_truth, nominal_feed) = split(nominal, 0);
    let (overload_parity, overload_truth, overload_feed) = split(overload, 1);

    // Timed phases.
    let rec = Recorder::new();
    let traced = args.traced.then_some(&rec);
    let slo = Duration::from_secs_f64(args.serve_slo_ms / 1e3);
    heap::reset_peak();
    let before = service.metrics();
    let nominal_served = drive(&service, nominal_feed, None, traced, "serve.nominal");
    let overload_start = Instant::now();
    let between = service.metrics();
    let overload_served = drive(&service, overload_feed, Some(slo), traced, "serve.overload");
    let after = service.metrics();
    let peak = heap::peak();

    // Open-loop validity: the generator must have kept to the schedule.
    let late_ms: Vec<f64> =
        nominal_served.iter().chain(&overload_served).map(|s| s.late.as_secs_f64() * 1e3).collect();
    let late_tail = percentile(&late_ms, 99.0).map_or(0.0, |q| q.value);
    let late_max = late_ms.iter().copied().fold(0.0, f64::max);
    let late_bound_ms = LATE_BOUND_SHARE * args.serve_slo_ms;
    if late_tail > late_bound_ms {
        return Err(format!(
            "the submitter ran late: p99 lateness {late_tail:.2} ms exceeds {late_bound_ms} ms \
             (max {late_max:.2} ms), so the offered load did not follow the schedule"
        ));
    }

    // Outcomes, correctness, and quality over the nominal phase, where
    // every request completes: the same inputs on every run.
    let mut failed = 0u64;
    let (mut hits, mut cos, mut located, mut in_slo, mut useful_windows) = (0, 0, 0, 0u64, 0u64);
    let mut latencies = Vec::new();
    let mut sojourns = Vec::new();
    for (phase, served, truth) in [
        ("nominal", &nominal_served, &nominal_truth),
        ("overload", &overload_served, &overload_truth),
    ] {
        for (i, (s, (_, len, t, tol, scored))) in served.iter().zip(truth.iter()).enumerate() {
            match &s.fate {
                Fate::Done(result) => {
                    check_starts(&result.starts, *len, &format!("{phase} request {i}"))?;
                    let within = s.latency.is_some_and(|l| l <= slo);
                    if within {
                        useful_windows += result.windows as u64;
                    }
                    if phase == "nominal" {
                        let (h, c, l) = score(&result.starts, t, *tol, *scored);
                        (hits, cos, located) = (hits + h, cos + c, located + l);
                        in_slo += u64::from(within);
                        latencies.push(s.latency.map_or(0.0, |l| l.as_secs_f64() * 1e3));
                        sojourns.push(result.latency.as_secs_f64() * 1e3);
                    }
                }
                // Under overload, refusals and expiries are the service
                // working as designed; anything else is a failure.
                Fate::Refused(Rejected::Overloaded { .. } | Rejected::QueueFull { .. })
                | Fate::Failed(ServiceError::DeadlineExceeded)
                    if phase == "overload" => {}
                Fate::Refused(_) | Fate::Failed(_) => failed += 1,
            }
        }
    }
    // Saturated throughput: every window the service scored during the
    // overload phase, until the last completion.
    let overload_windows = after.batched_windows - between.batched_windows;
    let last_done =
        overload_served.iter().filter_map(|s| s.done_at).max().unwrap_or(overload_start);
    let overload_busy = (last_done - overload_start).as_secs_f64();
    let overload_in_slo =
        overload_served.iter().filter(|s| s.latency.is_some_and(|l| l <= slo)).count();

    // Bit-parity of the served starts against `LocatorEngine::locate`.
    let mut engine_layers = EngineLayers::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut macs = Vec::new();
    let mut checked = 0;
    for (phase, parity, served, truth) in [
        ("nominal", &nominal_parity, &nominal_served, &nominal_truth),
        ("overload", &overload_parity, &overload_served, &overload_truth),
    ] {
        for (i, trace) in parity {
            let Fate::Done(result) = &served[*i].fate else { continue };
            let name = model_name(truth[*i].0);
            let engine: Arc<LocatorEngine> =
                service.engine(&name).ok_or_else(|| format!("model {name} is not resident"))?;
            let reference = engine.locate(trace);
            if reference != result.starts {
                return Err(format!(
                    "{phase} request {i} ({name}): served starts {:?} differ from locate {:?}",
                    result.starts, reference
                ));
            }
            if args.traced {
                // The traced locate is `locate_streamed` with one chunk; its
                // untraced twin prices the tracing.
                let t = Instant::now();
                let untraced = engine
                    .locate_streamed(trace, trace.len())
                    .map_err(|e| format!("{phase} request {i}: locate_streamed: {e}"))?;
                untraced_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let again = traced_locate(&engine, trace.len(), &rec, checked, || Ok(trace))?;
                traced_s += t.elapsed().as_secs_f64();
                if again != reference || untraced != reference {
                    return Err(format!(
                        "{phase} request {i}: locate_streamed (traced or not) diverged from locate"
                    ));
                }
                macs.push(macs_per_window(&engine));
            }
            checked += 1;
        }
    }
    if checked == 0 {
        return Err("no completed request fell into the parity sample".into());
    }

    let attempted = (nominal_served.len() + overload_served.len()) as u64;
    out.attempted = attempted;
    out.failed = failed;
    out.e2e.kwindows_per_s = overload_windows as f64 / overload_busy / 1e3;
    out.e2e.goodput_per_s = overload_in_slo as f64 / overload_span.as_secs_f64();
    out.e2e.p90_ms = p90(&latencies);
    out.e2e.slo_pct = pct(in_slo as f64, nominal_served.len() as f64);
    out.e2e.hits_pct = pct(hits as f64, cos as f64);
    out.e2e.precision_pct = pct(hits as f64, located as f64);
    out.e2e.mem_peak_mb = peak as f64 / 1e6;
    out.notes.push(format!(
        "nominal latency from due time: {}; {in_slo}/{} within {} ms; {hits}/{cos} COs hit, \
         {located} starts located",
        latency_note(&latencies),
        nominal_served.len(),
        args.serve_slo_ms
    ));
    let overload_done = overload_served.iter().filter(|s| matches!(s.fate, Fate::Done(_))).count();
    let offered: usize = overload_truth.iter().map(|t| t.1).sum();
    out.notes.push(format!(
        "overload: {overload_done}/{} completed ({overload_in_slo} within the limit) of \
         {:.4} Msamples/s offered; submitter lateness p99 {late_tail:.3} ms, \
         max {late_max:.3} ms; {checked} requests parity-checked against locate",
        overload_served.len(),
        offered as f64 / overload_span.as_secs_f64() / 1e6
    ));

    let l = &mut out.layers;
    let admits: Vec<f64> = nominal_served.iter().map(|s| s.admit.as_secs_f64() * 1e6).collect();
    l.locsvc_admit_p50_us = median(&admits);
    l.locsvc_admit_tail_us = tail(&admits).map_or(0.0, |q| q.value);
    let sampled: Vec<(usize, usize)> = nominal_served.iter().filter_map(|s| s.sampled).collect();
    l.set_sampled(&sampled);
    l.locsvc_sojourn_p50_ms = median(&sojourns);
    l.set_service(&before, &after, useful_windows);
    l.bench_gen_late_p99_ms = late_tail;
    l.bench_gen_late_max_ms = late_max;
    if args.traced {
        engine_layers.add_all(&rec.snapshot(), |req| macs[req as usize]);
        engine_layers.fill_layers(l);
        l.bench_trace_overhead_pct = pct(traced_s - untraced_s, untraced_s);
        out.notes.push(engine_layers.breakdown());
        rec.write_tsv(&args.spans_path()).map_err(|e| format!("writing spans: {e}"))?;
    }
    service.shutdown();
    Ok(out)
}
