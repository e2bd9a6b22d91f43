//! `scan`: the analyst's offline job before CPA. One caller in a closed
//! loop locates raw-f32 files of AES-128 RD-4 noise-interleaved records,
//! each with `LocatorEngine::locate_streamed(FileTraceSource)`: first with
//! the trained f32 engine, then with its i8 twin from
//! `quantize_with_samples`. No service code runs: kernels, window staging
//! and ingest do all the work.

use std::path::PathBuf;
use std::time::Instant;

use sca_ciphers::CipherId;
use sca_locator::{hit_rate, LocatorEngine};
use sca_trace::FileTraceSource;

use crate::heap;
use crate::locate::{traced_locate, EngineLayers};
use crate::models::{fit_engine, macs_per_window, ms_since, repeat_setup, save_engine, Profiling};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{latency_note, p90, pct};
use crate::workload::{interleaved_capture, mix, scan_inputs, Capture, Digest, FRAME_LEN};
use crate::Args;

/// Files per run, sized so that one pass locating each with both engines
/// fills a run of about 20 s on a 2-core x86-64 host. The loop runs whole
/// passes only, so every run scores every file, whatever the speed.
const SCAN_FILES: usize = 3;

/// Chunk length of every `locate_streamed`.
const SCAN_CHUNK_LEN: usize = 65_536;

/// Latency limit of one file located by both engines.
const SCAN_SLO_MS: f64 = 10_000.0;

/// One input file and its ground truth (the samples live only on disk).
struct FileInput {
    path: PathBuf,
    len: usize,
    truth: Vec<usize>,
    tolerance: usize,
    scored_len: usize,
}

fn write_capture(c: &Capture, path: PathBuf) -> Result<FileInput, String> {
    let file =
        std::fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    sca_trace::io::write_samples_binary(std::io::BufWriter::new(file), c.trace.samples())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(FileInput {
        path,
        len: c.trace.len(),
        truth: c.truth.clone(),
        tolerance: c.tolerance,
        scored_len: c.scored_len,
    })
}

fn open(path: &PathBuf) -> Result<FileTraceSource, String> {
    FileTraceSource::open_raw_f32(path).map_err(|e| format!("opening {}: {e}", path.display()))
}

/// The checks every located result must pass: strictly increasing starts
/// inside the trace.
pub fn check_starts(starts: &[usize], len: usize, what: &str) -> Result<(), String> {
    if let Some(w) = starts.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!("{what}: starts not strictly increasing ({} then {})", w[0], w[1]));
    }
    match starts.last() {
        Some(&last) if last >= len => {
            Err(format!("{what}: start {last} beyond the trace ({len} samples)"))
        }
        _ => Ok(()),
    }
}

/// Hits, ground-truth COs and located starts of one result, counting only
/// starts inside the record's scored region.
pub fn score(
    starts: &[usize],
    truth: &[usize],
    tolerance: usize,
    scored_len: usize,
) -> (u64, u64, u64) {
    let scored: Vec<usize> = starts.iter().copied().filter(|&s| s < scored_len).collect();
    let r = hit_rate(&scored, truth, tolerance);
    (r.hits as u64, r.total as u64, scored.len() as u64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Input generation (outside every timed phase and outside setup_s).
    let profiling = Profiling::capture(CipherId::Aes128);
    let warm = write_capture(
        &interleaved_capture(mix(args.seed, 9, 0), CipherId::Aes128, FRAME_LEN),
        args.work.join("warm.f32"),
    )?;
    let mut digest = Digest::default();
    let mut files = Vec::with_capacity(SCAN_FILES);
    for (i, c) in scan_inputs(args.seed, SCAN_FILES).iter().enumerate() {
        digest.capture(c);
        files.push(write_capture(c, args.work.join(format!("scan-{i}.f32")))?);
    }
    out.notes.push(format!("workload digest {:016x}", digest.value()));

    // Set-up: fit, quantise, save both v4 models, load both, one warm-up
    // locate each.
    let paths = [args.work.join("scan-f32.model"), args.work.join("scan-i8.model")];
    let chunk_len = SCAN_CHUNK_LEN;
    let (engines, setup) = repeat_setup(|times, model_digest| {
        let f32_engine = fit_engine(&profiling, false, times);
        let t = Instant::now();
        let i8_engine = f32_engine.quantize_with_samples(&profiling.calibration_windows());
        times.quantize_ms += ms_since(t);
        let mut loaded = Vec::with_capacity(2);
        for (engine, path) in [&f32_engine, &i8_engine].into_iter().zip(&paths) {
            save_engine(engine, path, model_digest, times)?;
            let t = Instant::now();
            let engine = LocatorEngine::load(path)
                .map_err(|e| format!("loading {}: {e}", path.display()))?;
            times.load_ms += ms_since(t);
            engine
                .locate_streamed(&open(&warm.path)?, chunk_len)
                .map_err(|e| format!("warm-up locate: {e}"))?;
            loaded.push(engine);
        }
        Ok(loaded)
    })?;
    if engines[0].is_quantized() || !engines[1].is_quantized() {
        return Err("the loaded models have the wrong precision".into());
    }
    out.e2e.setup_s = setup.total_s;
    out.layers.set_setup(&setup);
    drop(profiling);

    // Timed phase: closed loop of whole passes over the files, each file
    // located by the f32 engine, then by its i8 twin. Another pass starts
    // only if it is expected to end within the run's duration, so there is
    // always at least one. The inputs are on disk, so the heap holds none
    // of them.
    let rec = Recorder::new();
    heap::reset_peak();
    let started = Instant::now();
    // (file, engine, seconds, starts)
    let mut located: Vec<(usize, usize, f64, Vec<usize>)> = Vec::new();
    let mut passes = 0;
    loop {
        let pass = Instant::now();
        for (i, file) in files.iter().enumerate() {
            for (e, engine) in engines.iter().enumerate() {
                let t = Instant::now();
                let starts = if args.traced {
                    let req = located.len() as u32;
                    traced_locate(engine, chunk_len, &rec, req, || open(&file.path))?
                } else {
                    engine
                        .locate_streamed(&open(&file.path)?, chunk_len)
                        .map_err(|e| format!("locating {}: {e}", file.path.display()))?
                };
                located.push((i, e, t.elapsed().as_secs_f64(), starts));
            }
        }
        passes += 1;
        let (elapsed, last) = (started.elapsed().as_secs_f64(), pass.elapsed().as_secs_f64());
        if elapsed + last > args.seconds as f64 {
            break;
        }
    }
    let peak = heap::peak();

    let (mut hits, mut cos, mut starts_total, mut windows, mut busy) = (0, 0, 0, 0, 0.0);
    let mut file_ms = Vec::with_capacity(located.len() / 2);
    for pair in located.chunks(2) {
        for (i, e, secs, starts) in pair {
            let f = &files[*i];
            check_starts(starts, f.len, &format!("file {} engine {e}", f.path.display()))?;
            let (h, t, s) = score(starts, &f.truth, f.tolerance, f.scored_len);
            (hits, cos, starts_total) = (hits + h, cos + t, starts_total + s);
            windows += engines[*e].sliding().output_len(f.len);
            busy += secs;
        }
        file_ms.push(pair.iter().map(|p| p.2).sum::<f64>() * 1e3);
    }
    let in_slo = file_ms.iter().filter(|&&ms| ms <= SCAN_SLO_MS).count();
    out.attempted = file_ms.len() as u64;
    out.e2e.kwindows_per_s = windows as f64 / busy / 1e3;
    out.e2e.goodput_per_s = in_slo as f64 / busy;
    out.e2e.p90_ms = p90(&file_ms);
    out.e2e.slo_pct = pct(in_slo as f64, file_ms.len() as f64);
    out.e2e.hits_pct = pct(hits as f64, cos as f64);
    out.e2e.precision_pct = pct(hits as f64, starts_total as f64);
    out.e2e.mem_peak_mb = peak as f64 / 1e6;
    let engine_secs = |e: usize| located.iter().filter(|l| l.1 == e).map(|l| l.2).sum::<f64>();
    out.notes.push(format!(
        "{SCAN_FILES} files located by each engine, {passes} pass(es), in {busy:.2} s \
         (f32 {:.2} s, i8 {:.2} s); {hits}/{cos} COs hit, {starts_total} starts located; \
         time per file {}",
        engine_secs(0),
        engine_secs(1),
        latency_note(&file_ms)
    ));

    if args.traced {
        let mut layers = EngineLayers::default();
        let macs = macs_per_window(&engines[0]);
        layers.add_all(&rec.snapshot(), |_| macs);
        layers.fill_layers(&mut out.layers);
        out.notes.push(layers.breakdown());
        // The rebuilt locate must return exactly the untraced starts; the
        // untraced re-run also prices the tracing.
        let mut untraced = 0.0;
        for (i, e, _, starts) in &located {
            let t = Instant::now();
            let reference = engines[*e]
                .locate_streamed(&open(&files[*i].path)?, chunk_len)
                .map_err(|e| format!("untraced locate: {e}"))?;
            untraced += t.elapsed().as_secs_f64();
            if &reference != starts {
                return Err(format!(
                    "traced locate of {} (engine {e}) diverged from locate_streamed: {} vs {} starts",
                    files[*i].path.display(),
                    starts.len(),
                    reference.len()
                ));
            }
        }
        out.layers.bench_trace_overhead_pct = pct(busy - untraced, untraced);
        rec.write_tsv(&args.spans_path()).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}
