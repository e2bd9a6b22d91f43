//! `stream`: two client connections in a closed loop against `net::serve`
//! on loopback. Every frame is a `FLAG_STREAMED` request (`SCLQ`) carrying
//! a ~4-CO AES-128 RD-4 noise-interleaved acquisition; the service
//! `chunk_len` makes every frame span several chunks, so the scheduler's
//! chunk loads, re-enqueues and `StreamingSegmenter` run, fed by socket
//! ingest through `SequentialTraceSource`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locsvc::net::{self, Client, ClientConfig, ServerConfig, Status, FLAG_STREAMED};
use locsvc::{LocatorService, ModelRegistry, ServiceConfig};
use sca_ciphers::CipherId;

use crate::heap;
use crate::locate::{traced_locate, EngineLayers};
use crate::models::{fit_engine, macs_per_window, ms_since, repeat_setup, save_engine, Profiling};
use crate::report::Outcome;
use crate::scan::{check_starts, score};
use crate::spans::{thread_number, Recorder, Span};
use crate::stats::{latency_note, median, p90, pct};
use crate::workload::{interleaved_capture, mix, stream_inputs, Capture, Digest, FRAME_LEN};
use crate::Args;

/// Client connections (each a closed loop of one frame in flight).
const CONNECTIONS: usize = 2;

/// Distinct frames; the connections cycle through them.
const FRAMES: usize = 32;

/// The loop runs at least this many frames, so the 90th percentile has ten
/// samples beyond it.
const MIN_FRAMES: usize = 100;

/// One in this many completed frames is re-located for the parity check.
const PARITY_EVERY: u64 = 6;

/// Latency limit of one frame.
const STREAM_SLO_MS: f64 = 1_000.0;

const MODEL: &str = "aes128";

/// One frame's round trip.
struct Trip {
    frame: usize,
    latency: Duration,
    send: Duration,
    wait: Duration,
    starts: Option<Vec<usize>>,
    sampled: Option<(usize, usize)>,
}

/// One connection's closed loop: send the next frame, wait for its answer,
/// until the run's time is up. Untraced runs use `Client::locate`; traced
/// runs use `net::write_request` and `net::read_response` on a socket of
/// their own and time each.
fn connection(
    addr: SocketAddr,
    frames: &[Capture],
    next: &AtomicUsize,
    until: Instant,
    service: &LocatorService,
    rec: Option<&Recorder>,
) -> Result<Vec<Trip>, String> {
    let connect_err = |e: std::io::Error| format!("connecting to {addr}: {e}");
    let mut client = match rec {
        None => Some(Client::connect_with(addr, ClientConfig::default()).map_err(connect_err)?),
        Some(_) => None,
    };
    let socket = match rec {
        Some(_) => Some(TcpStream::connect(addr).map_err(connect_err)?),
        None => None,
    };
    let max_starts = ClientConfig::default().max_starts;
    let mut trips = Vec::new();
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= MIN_FRAMES && Instant::now() >= until {
            break;
        }
        let frame = k % frames.len();
        let samples = frames[frame].trace.samples();
        let sampled = rec.map(|_| {
            let m = service.metrics();
            (m.queue_depth, m.in_flight)
        });
        let t0 = Instant::now();
        let (response, sent) = match (&mut client, &socket) {
            (Some(client), _) => {
                let r = client.locate(MODEL, FLAG_STREAMED, 0, samples).map_err(|e| e.to_string());
                (r, t0)
            }
            (None, Some(socket)) => {
                let r = net::write_request(socket, MODEL, FLAG_STREAMED, 0, samples)
                    .map_err(|e| e.to_string());
                let sent = Instant::now();
                let r = r.and_then(|()| {
                    net::read_response(socket, max_starts).map_err(|e| e.to_string())
                });
                (r, sent)
            }
            (None, None) => unreachable!("each connection has a client or a socket"),
        };
        let done = Instant::now();
        let starts = match response {
            Ok(r) if r.status == Status::Ok => Some(r.starts.iter().map(|&s| s as usize).collect()),
            Ok(_) | Err(_) => None,
        };
        if let Some(rec) = rec {
            let req = k as u32;
            let root = rec.record(Span {
                name: "stream.frame",
                start: rec.at(t0),
                end: rec.at(done),
                parent: None,
                req,
                thread: thread_number(),
                count: samples.len() as u64,
            });
            for (name, a, b) in [("net.send", t0, sent), ("net.reply_wait", sent, done)] {
                let span = Span {
                    name,
                    start: rec.at(a),
                    end: rec.at(b),
                    parent: Some(root),
                    req,
                    thread: thread_number(),
                    count: 0,
                };
                rec.record(span);
            }
        }
        trips.push(Trip {
            frame,
            latency: done - t0,
            send: sent - t0,
            wait: done - sent,
            starts,
            sampled,
        });
    }
    Ok(trips)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Input generation (outside every timed phase and outside setup_s).
    let profiling = Profiling::capture(CipherId::Aes128);
    let warm = interleaved_capture(mix(args.seed, 9, 1), CipherId::Aes128, FRAME_LEN);
    let frames = stream_inputs(args.seed, FRAMES);
    let mut digest = Digest::default();
    frames.iter().for_each(|c| digest.capture(c));
    out.notes.push(format!("workload digest {:016x}", digest.value()));
    frames.iter().for_each(|c| heap::exclude(c.trace.samples()));

    // Set-up: fit + quantise, v4 save, registry, service and server start,
    // the registry's lazy load, one warm-up frame.
    let path = args.work.join("stream.model");
    let chunk_len = args.stream_chunk_len;
    let ((server, service), setup) = repeat_setup(|times, model_digest| {
        let engine = fit_engine(&profiling, true, times);
        save_engine(&engine, &path, model_digest, times)?;
        let registry = Arc::new(ModelRegistry::default());
        registry.register(MODEL, &path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let service = Arc::new(LocatorService::with_registry(
            Arc::clone(&registry),
            ServiceConfig { chunk_len, ..ServiceConfig::default() },
        ));
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
        let server = net::serve(Arc::clone(&service), listener, ServerConfig::default())
            .map_err(|e| format!("starting the server: {e}"))?;
        times.start_ms += ms_since(t);
        let t = Instant::now();
        registry.resolve(MODEL).map_err(|e| format!("lazy load: {e}"))?;
        times.load_ms += ms_since(t);
        let mut client =
            Client::connect(server.addr()).map_err(|e| format!("warm-up connect: {e}"))?;
        let r = client
            .locate(MODEL, FLAG_STREAMED, 0, warm.trace.samples())
            .map_err(|e| format!("warm-up frame: {e}"))?;
        if r.status != Status::Ok {
            return Err(format!("warm-up frame answered {:?}", r.status));
        }
        // The server goes first when a repetition is dropped.
        Ok((server, service))
    })?;
    out.e2e.setup_s = setup.total_s;
    out.layers.set_setup(&setup);
    drop((profiling, warm));
    let engine = service.engine(MODEL).ok_or("the stream model is not resident")?;
    let windows_of = |len: usize| engine.sliding().output_len(len) as u64;

    // Timed phase: closed loop over two connections.
    let rec = Recorder::new();
    let traced = args.traced.then_some(&rec);
    let next = AtomicUsize::new(0);
    heap::reset_peak();
    let before = service.metrics();
    let started = Instant::now();
    let until = started + Duration::from_secs(args.seconds);
    let addr = server.addr();
    let per_connection: Vec<Result<Vec<Trip>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| connection(addr, &frames, &next, until, &service, traced)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let after = service.metrics();
    let peak = heap::peak();
    let mut trips = Vec::new();
    for c in per_connection {
        trips.extend(c?);
    }

    // Every answer for one input must be the same; quality scores each
    // input once, so every run scores the same inputs whatever its speed.
    let slo = Duration::from_secs_f64(STREAM_SLO_MS / 1e3);
    let (mut in_slo, mut failed) = (0u64, 0u64);
    let (mut windows, mut useful_windows) = (0u64, 0u64);
    let mut answers: Vec<Option<&Vec<usize>>> = vec![None; frames.len()];
    for (i, t) in trips.iter().enumerate() {
        let f = &frames[t.frame];
        let Some(starts) = &t.starts else {
            failed += 1;
            continue;
        };
        check_starts(starts, f.trace.len(), &format!("frame {i}"))?;
        match answers[t.frame] {
            None => answers[t.frame] = Some(starts),
            Some(first) if first != starts => {
                return Err(format!(
                    "frame {i} (input {}): answered starts {starts:?} differ from an earlier \
                     answer {first:?} for the same input",
                    t.frame
                ));
            }
            Some(_) => {}
        }
        windows += windows_of(f.trace.len());
        if t.latency <= slo {
            in_slo += 1;
            useful_windows += windows_of(f.trace.len());
        }
    }

    // Bit-parity of the answered starts against `locate_streamed` with the
    // service's chunk length.
    let (mut checked, mut untraced_s, mut traced_s) = (0u32, 0.0, 0.0);
    for (i, t) in trips.iter().enumerate() {
        let Some(starts) = &t.starts else { continue };
        if !mix(args.seed, 6, i as u64).is_multiple_of(PARITY_EVERY) {
            continue;
        }
        let trace = &frames[t.frame].trace;
        let clock = Instant::now();
        let reference = engine
            .locate_streamed(trace, chunk_len)
            .map_err(|e| format!("reference locate_streamed: {e}"))?;
        untraced_s += clock.elapsed().as_secs_f64();
        if &reference != starts {
            return Err(format!(
                "frame {i} (input {}): answered starts {starts:?} differ from locate_streamed {reference:?}",
                t.frame
            ));
        }
        if args.traced {
            let clock = Instant::now();
            let again = traced_locate(&engine, chunk_len, &rec, checked, || Ok(trace))?;
            traced_s += clock.elapsed().as_secs_f64();
            if again != reference {
                return Err(format!("frame {i}: traced locate diverged from locate_streamed"));
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("no completed frame fell into the parity sample".into());
    }
    let (mut hits, mut cos, mut located) = (0, 0, 0);
    for (f, answer) in frames.iter().zip(&answers) {
        let starts = answer.ok_or("an input was never answered")?;
        let (h, c, l) = score(starts, &f.truth, f.tolerance, f.scored_len);
        (hits, cos, located) = (hits + h, cos + c, located + l);
    }

    let latencies: Vec<f64> = trips
        .iter()
        .filter(|t| t.starts.is_some())
        .map(|t| t.latency.as_secs_f64() * 1e3)
        .collect();
    out.attempted = trips.len() as u64;
    out.failed = failed;
    out.e2e.kwindows_per_s = windows as f64 / elapsed / 1e3;
    out.e2e.goodput_per_s = in_slo as f64 / elapsed;
    out.e2e.p90_ms = p90(&latencies);
    out.e2e.slo_pct = pct(in_slo as f64, trips.len() as f64);
    out.e2e.hits_pct = pct(hits as f64, cos as f64);
    out.e2e.precision_pct = pct(hits as f64, located as f64);
    out.e2e.mem_peak_mb = peak as f64 / 1e6;
    out.notes.push(format!(
        "{} frames over {CONNECTIONS} connections in {elapsed:.2} s; latency {}; \
         {checked} frames parity-checked against locate_streamed; {hits}/{cos} COs hit, \
         {located} starts located over the {FRAMES} inputs",
        trips.len(),
        latency_note(&latencies)
    ));

    let l = &mut out.layers;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    l.set_service(&before, &after, useful_windows);
    l.locsvc_sojourn_p50_ms = ms(after.p50_latency);
    let sampled: Vec<(usize, usize)> = trips.iter().filter_map(|t| t.sampled).collect();
    l.set_sampled(&sampled);
    l.net_send_ms = median(&trips.iter().map(|t| ms(t.send)).collect::<Vec<_>>());
    l.net_reply_wait_ms = median(&trips.iter().map(|t| ms(t.wait)).collect::<Vec<_>>());
    l.net_mb_sent = trips
        .iter()
        .map(|t| (20 + MODEL.len() + 4 * frames[t.frame].trace.len()) as f64)
        .sum::<f64>()
        / 1e6;
    if args.traced {
        let mut engine_layers = EngineLayers::default();
        let macs = macs_per_window(&engine);
        engine_layers.add_all(&rec.snapshot(), |_| macs);
        engine_layers.fill_layers(l);
        l.bench_trace_overhead_pct = pct(traced_s - untraced_s, untraced_s);
        out.notes.push(engine_layers.breakdown());
        rec.write_tsv(&args.spans_path()).map_err(|e| format!("writing spans: {e}"))?;
    }
    drop(server);
    service.shutdown();
    Ok(out)
}
