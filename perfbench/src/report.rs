//! The metrics every workload reports, and the result line.
//!
//! Every workload fills the same two structs, so an untraced run always
//! prints every end-to-end metric and a traced run every per-layer metric.
//! A layer a workload does not pass through reads 0.

use std::fmt::Write;

/// End-to-end metrics of an untraced run.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Thousands of sliding windows scored per second, the locator's unit of
    /// work (scan: file open to starts; serve: everything the saturated
    /// service scored during overload, until the last completion; stream:
    /// windows of completed frames).
    pub kwindows_per_s: f64,
    /// Units answered correctly within the workload's latency limit per
    /// second (scan: files; serve: overload requests per second of their
    /// schedule; stream: frames).
    pub goodput_per_s: f64,
    /// 90th-percentile latency of a unit of work (ms): serve's nominal
    /// requests from their due time, stream's frames, scan's files (three
    /// per pass, so on one pass the slowest of them).
    pub p90_ms: f64,
    /// Units answered correctly within the workload's latency limit, of all
    /// attempted (errors and refusals miss it).
    pub slo_pct: f64,
    /// Ground-truth COs located within half a mean CO length, over a fixed
    /// set of inputs (scan: every file; serve: the nominal phase; stream:
    /// each input frame once).
    pub hits_pct: f64,
    /// Located starts that match a CO, of all located starts, over the same
    /// inputs.
    pub precision_pct: f64,
    /// Peak heap in use during the timed phase, not counting the
    /// benchmark's input buffers while they live (MB).
    pub mem_peak_mb: f64,
}

impl EndToEnd {
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("kwindows_per_s", self.kwindows_per_s, "kwindows/s"),
            ("goodput_per_s", self.goodput_per_s, "1/s"),
            ("p90_ms", self.p90_ms, "ms"),
            ("slo_pct", self.slo_pct, "%"),
            ("hits_pct", self.hits_pct, "%"),
            ("precision_pct", self.precision_pct, "%"),
            ("mem_peak_mb", self.mem_peak_mb, "MB"),
        ]
    }
}

/// Per-layer metrics of a traced run, named after the module they time.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub training_fit_s: f64,
    pub training_quantize_ms: f64,
    pub persist_save_ms: f64,
    pub persist_load_ms: f64,
    pub locsvc_start_ms: f64,

    pub trace_open_ms: f64,
    pub trace_fill_ms: f64,
    pub trace_fill_mb: f64,
    pub sliding_prefetch_wait_ms: f64,
    pub sliding_stage_us_per_window: f64,
    pub engine_threads: f64,
    pub cnn_us_per_window: f64,
    pub cnn_gflop_s: f64,
    pub cnn_mflop_per_window: f64,
    pub cnn_rows_per_call: f64,
    pub qcnn_us_per_window: f64,
    pub qcnn_gop_s: f64,
    pub qcnn_mop_per_window: f64,
    pub qcnn_rows_per_call: f64,
    pub segmentation_us_per_window: f64,
    pub engine_glue_pct: f64,

    pub locsvc_admit_p50_us: f64,
    pub locsvc_admit_tail_us: f64,
    pub locsvc_queue_depth_mean: f64,
    pub locsvc_in_flight_mean: f64,
    pub locsvc_sojourn_p50_ms: f64,
    pub locsvc_batches: f64,
    pub locsvc_fill_ratio: f64,
    pub locsvc_useful_pct: f64,
    pub locsvc_sheds: f64,
    pub locsvc_expired: f64,
    pub locsvc_queue_full: f64,
    pub locsvc_io_errors: f64,
    pub locsvc_conn_timeouts: f64,
    pub registry_loads: f64,
    pub registry_resident_kb: f64,

    pub net_send_ms: f64,
    pub net_reply_wait_ms: f64,
    pub net_mb_sent: f64,

    pub bench_gen_late_p99_ms: f64,
    pub bench_gen_late_max_ms: f64,
    pub bench_trace_overhead_pct: f64,
}

impl Layers {
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("training.fit_s", self.training_fit_s, "s"),
            ("training.quantize_ms", self.training_quantize_ms, "ms"),
            ("persist.save_ms", self.persist_save_ms, "ms"),
            ("persist.load_ms", self.persist_load_ms, "ms"),
            ("locsvc.start_ms", self.locsvc_start_ms, "ms"),
            ("trace.open_ms", self.trace_open_ms, "ms"),
            ("trace.fill_ms", self.trace_fill_ms, "ms"),
            ("trace.fill_mb", self.trace_fill_mb, "MB"),
            ("sliding.prefetch_wait_ms", self.sliding_prefetch_wait_ms, "ms"),
            ("sliding.stage_us_per_window", self.sliding_stage_us_per_window, "us"),
            ("engine.threads", self.engine_threads, "count"),
            ("cnn.us_per_window", self.cnn_us_per_window, "us"),
            ("cnn.gflop_s", self.cnn_gflop_s, "GFLOP/s"),
            ("cnn.mflop_per_window", self.cnn_mflop_per_window, "MFLOP"),
            ("cnn.rows_per_call", self.cnn_rows_per_call, "count"),
            ("qcnn.us_per_window", self.qcnn_us_per_window, "us"),
            ("qcnn.gop_s", self.qcnn_gop_s, "GOP/s"),
            ("qcnn.mop_per_window", self.qcnn_mop_per_window, "MOP"),
            ("qcnn.rows_per_call", self.qcnn_rows_per_call, "count"),
            ("segmentation.us_per_window", self.segmentation_us_per_window, "us"),
            ("engine.glue_pct", self.engine_glue_pct, "%"),
            ("locsvc.admit_p50_us", self.locsvc_admit_p50_us, "us"),
            ("locsvc.admit_tail_us", self.locsvc_admit_tail_us, "us"),
            ("locsvc.queue_depth_mean", self.locsvc_queue_depth_mean, "count"),
            ("locsvc.in_flight_mean", self.locsvc_in_flight_mean, "count"),
            ("locsvc.sojourn_p50_ms", self.locsvc_sojourn_p50_ms, "ms"),
            ("locsvc.batches", self.locsvc_batches, "count"),
            ("locsvc.fill_ratio", self.locsvc_fill_ratio, "ratio"),
            ("locsvc.useful_pct", self.locsvc_useful_pct, "%"),
            ("locsvc.sheds", self.locsvc_sheds, "count"),
            ("locsvc.expired", self.locsvc_expired, "count"),
            ("locsvc.queue_full", self.locsvc_queue_full, "count"),
            ("locsvc.io_errors", self.locsvc_io_errors, "count"),
            ("locsvc.conn_timeouts", self.locsvc_conn_timeouts, "count"),
            ("registry.loads", self.registry_loads, "count"),
            ("registry.resident_kb", self.registry_resident_kb, "KB"),
            ("net.send_ms", self.net_send_ms, "ms"),
            ("net.reply_wait_ms", self.net_reply_wait_ms, "ms"),
            ("net.mb_sent", self.net_mb_sent, "MB"),
            ("bench.gen_late_p99_ms", self.bench_gen_late_p99_ms, "ms"),
            ("bench.gen_late_max_ms", self.bench_gen_late_max_ms, "ms"),
            ("bench.trace_overhead_pct", self.bench_trace_overhead_pct, "%"),
        ]
    }

    /// Copies the service counters that moved between two snapshots taken
    /// around the timed phase, and the registry gauges; `useful_windows`
    /// are the windows of requests answered within their latency limit.
    pub fn set_service(
        &mut self,
        before: &locsvc::MetricsSnapshot,
        after: &locsvc::MetricsSnapshot,
        useful_windows: u64,
    ) {
        let batches = after.batches - before.batches;
        let windows = after.batched_windows - before.batched_windows;
        let tile = locsvc::ServiceConfig::default().tile_windows as u64;
        self.locsvc_batches = batches as f64;
        self.locsvc_fill_ratio =
            if batches == 0 { 0.0 } else { windows as f64 / (batches * tile) as f64 };
        self.locsvc_useful_pct = crate::stats::pct(useful_windows as f64, windows as f64);
        self.locsvc_sheds = (after.sheds - before.sheds) as f64;
        self.locsvc_expired = (after.rejected_deadline - before.rejected_deadline) as f64;
        self.locsvc_queue_full = (after.rejected_queue_full - before.rejected_queue_full) as f64;
        self.locsvc_io_errors = (after.io_errors - before.io_errors) as f64;
        self.locsvc_conn_timeouts = (after.conn_timeouts - before.conn_timeouts) as f64;
        self.registry_loads = after.model_loads as f64;
        self.registry_resident_kb = after.resident_bytes as f64 / 1024.0;
    }

    /// Means of the (queue depth, in flight) pairs sampled from
    /// `LocatorService::metrics`.
    pub fn set_sampled(&mut self, sampled: &[(usize, usize)]) {
        if sampled.is_empty() {
            return;
        }
        let n = sampled.len() as f64;
        self.locsvc_queue_depth_mean = sampled.iter().map(|s| s.0 as f64).sum::<f64>() / n;
        self.locsvc_in_flight_mean = sampled.iter().map(|s| s.1 as f64).sum::<f64>() / n;
    }

    /// Copies the median set-up step times.
    pub fn set_setup(&mut self, t: &crate::models::SetupTimes) {
        self.training_fit_s = t.fit_s;
        self.training_quantize_ms = t.quantize_ms;
        self.persist_save_ms = t.save_ms;
        self.persist_load_ms = t.load_ms;
        self.locsvc_start_ms = t.start_ms;
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted and failed (see each workload for its unit).
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    pub layers: Layers,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value printed with all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let e2e = EndToEnd { setup_s: 1.25, p90_ms: 3.0, ..Default::default() };
        let line = result_line(true, 10, 0, &e2e.entries());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"p90_ms\": {\"value\": 3.0, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"value\"").count(), e2e.entries().len());
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = EndToEnd::default()
            .entries()
            .into_iter()
            .chain(Layers::default().entries())
            .map(|(n, _, u)| {
                assert!(n.len() <= 64 && u.len() <= 16, "{n} / {u}");
                n
            })
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
