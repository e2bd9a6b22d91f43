//! Provenance recorded with every result: host, build and workload.

use std::process::{Command, Stdio};

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Target features the benchmark was compiled with (the library crates
/// share the build's flags).
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        f.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "bmi2") {
        f.push("bmi2");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    f
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The provenance line: host, build and workload identity as one JSON
/// object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tinynn_threads = std::env::var("TINYNN_THREADS").unwrap_or_else(|_| "unset".into());
    let features: Vec<String> = target_features().iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"tinynn_threads\": {}, \"target_features\": [{}], \
         \"rustc\": {}, \"commit\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"traced\": {traced}}}",
        json_str(&cpu_model()),
        json_str(&tinynn_threads),
        features.join(", "),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit()),
        json_str(workload),
    )
}
