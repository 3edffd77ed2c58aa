//! The metric registry and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tok_per_s", "1/s"),
    ("ttft_p50_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("e2e_p50_ms", "ms"),
    ("slo_ok_frac", "1"),
];

/// Per-layer metrics (traced runs): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vq.quantize_s", "s"),
    ("core.register_ms", "ms"),
    ("core.plan_cache_hits", "count"),
    ("core.plan_cache_misses", "count"),
    ("core.replans", "count"),
    ("kernels.attn_calls", "count"),
    ("kernels.attn_us_p50", "us"),
    ("kernels.attn_us_p99", "us"),
    ("kernels.gemm_calls", "count"),
    ("kernels.gemm_us_p50", "us"),
    ("kernels.busy_frac", "1"),
    ("kernels.estimate_us", "us"),
    ("kernels.estimate_share", "1"),
    ("kernels.attended_frac", "1"),
    ("kernels.rows_per_call", "rows"),
    ("kernels.bytes_per_call", "B"),
    ("kernels.ext_rows_mean", "rows"),
    ("serve.step_us_mean", "us"),
    ("serve.self_us_mean", "us"),
    ("serve.batch_mean", "rows"),
    ("serve.groups_per_step", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.kv_bytes_per_token", "B"),
    ("serve.kv_nmse", "1"),
    ("serve.kv_folded_tokens", "count"),
    ("serve.kv_outlier_groups", "count"),
    ("net.accept_ms_p50", "ms"),
    ("net.accept_ms_p99", "ms"),
    ("net.first_token_wait_ms_p50", "ms"),
    ("net.delivery_us", "us"),
    ("net.writer_queue_peak", "count"),
    ("net.admitted", "count"),
    ("net.rejected", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.wrong", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.tok_per_s", "1/s"),
    ("trace.itl_p50_ms", "ms"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Requests the run handed to the program.
    pub attempted: u64,
    /// Requests rejected, dropped, quarantined or never finished.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Set when the run's numbers must not be reported (the generator
    /// fell behind its schedule).
    pub invalid: Option<String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones, each with its unit and every digit measured.
    ///
    /// # Panics
    ///
    /// Panics when the workload left a listed metric unset or non-finite,
    /// which is a bug in the benchmark.
    pub fn json(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "metric {name} was not measured");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
