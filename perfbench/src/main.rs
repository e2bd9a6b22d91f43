//! Seeded benchmark of the CO-locator pipeline, from trace bytes to located
//! CO starts, through the public APIs of the library crates only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scan|serve|stream> --seed <n> --seconds <s> --trace <0|1> \
//!     --nominal-rps R --overload-rps R --serve-slo-ms MS --stream-chunk-len N
//! ```
//!
//! `serve`'s two arrival rates and latency limit and `stream`'s service
//! chunk length are fixed constants of the benchmark, kept in the command
//! line of `BENCHMARK.json` at the root of the repository; every flag is
//! required.
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) times each call into a layer from outside and prints
//! every per-layer metric. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Any failed
//! correctness check ends the run with a non-zero exit code and names the
//! first mismatch instead. Inputs and model files live under `.perfbench/`
//! in the current directory and are removed at exit; a traced run leaves
//! its spans there as tab-separated text.

mod heap;
mod host;
mod locate;
mod models;
mod report;
mod scan;
mod serve;
mod spans;
mod stats;
mod stream;
mod workload;

use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// `serve` arrival rate of the nominal phase (requests/s).
    pub nominal_rps: f64,
    /// `serve` arrival rate of the overload phase (requests/s).
    pub overload_rps: f64,
    /// `serve` latency limit; also every overload request's deadline.
    pub serve_slo_ms: f64,
    /// The service `chunk_len` of `stream`.
    pub stream_chunk_len: usize,
    /// Per-run scratch directory for inputs and model files.
    pub work: PathBuf,
}

impl Args {
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(WORK_ROOT).join(format!("spans-{}-seed{}.tsv", self.workload, self.seed))
    }
}

const WORK_ROOT: &str = ".perfbench";

const WORKLOADS: [&str; 3] = ["scan", "serve", "stream"];

fn parse_args() -> Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("{name} is required"));
    fn parse<T: std::str::FromStr>(name: &str, value: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value.parse().map_err(|e| format!("bad value {value:?} for {name}: {e}"))
    }
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    let args = Args {
        seed: parse("--seed", take("--seed")?)?,
        seconds: parse("--seconds", take("--seconds")?)?,
        traced: match parse::<u8>("--trace", take("--trace")?)? {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        nominal_rps: parse("--nominal-rps", take("--nominal-rps")?)?,
        overload_rps: parse("--overload-rps", take("--overload-rps")?)?,
        serve_slo_ms: parse("--serve-slo-ms", take("--serve-slo-ms")?)?,
        stream_chunk_len: parse("--stream-chunk-len", take("--stream-chunk-len")?)?,
        work: PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id())),
        workload,
    };
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag {unknown}"));
    }
    let limits = [args.nominal_rps, args.overload_rps, args.serve_slo_ms];
    if limits.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return Err("the rates and the latency limit must be positive".into());
    }
    if args.seconds == 0 || args.stream_chunk_len == 0 {
        return Err("--seconds and --stream-chunk-len must be positive".into());
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    let _cleanup = WorkDir(args.work.clone());
    match args.workload.as_str() {
        "scan" => scan::run(args),
        "serve" => serve::run(args),
        "stream" => stream::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} seed {} failed: {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{}: {note}", args.workload);
    }
    let metrics = if args.traced { outcome.layers.entries() } else { outcome.e2e.entries() };
    for (name, value, unit) in &metrics {
        println!("{}: {name} = {value} {unit}", args.workload);
    }
    println!(
        "provenance: {}",
        host::provenance(&args.workload, args.seed, args.seconds, args.traced)
    );
    println!("{}", report::result_line(true, outcome.attempted, outcome.failed, &metrics));
}
