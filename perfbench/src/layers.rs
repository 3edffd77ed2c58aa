//! Per-layer metrics from kernel spans.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{Span, ATTENTION, GEMM};

/// Kernel-layer figures the serving-layer split needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTotals {
    /// Attention calls.
    pub attn_calls: usize,
    /// Summed kernel span time, µs.
    pub busy_us: f64,
}

/// Sets the `kernels.*` metrics from the kernel spans of the measured
/// window. `wall_us` is the window's length; `est_*_us` are the
/// standalone `Backend::estimate` medians of the attention and linear
/// plans; `step_us_total` is the summed step time the calls ran inside.
pub fn kernel_metrics(
    out: &mut Outcome,
    spans: &[&Span],
    wall_us: f64,
    est_attn_us: f64,
    est_gemm_us: f64,
    step_us_total: f64,
) -> KernelTotals {
    let attn: Vec<&Span> = spans
        .iter()
        .copied()
        .filter(|s| s.name == ATTENTION)
        .collect();
    let gemm: Vec<&Span> = spans.iter().copied().filter(|s| s.name == GEMM).collect();
    let attn_us = stats::sorted(attn.iter().map(|s| s.us()).collect());
    let gemm_us = stats::sorted(gemm.iter().map(|s| s.us()).collect());
    let busy_us: f64 = spans.iter().map(|s| s.us()).sum();
    let attrs = |s: &&Span| s.kernel.unwrap_or_default();
    let sum = |v: &[&Span], f: &dyn Fn(&crate::trace::KernelAttrs) -> usize| -> f64 {
        v.iter().map(|s| f(&attrs(s)) as f64).sum()
    };
    let attn_rows = sum(&attn, &|k| k.rows);
    let attn_seq = sum(&attn, &|k| k.seq);

    out.set("kernels.attn_calls", attn.len() as f64);
    out.set("kernels.attn_us_p50", stats::quantile(&attn_us, 0.5));
    out.set("kernels.attn_us_p99", stats::tail(&attn_us).value);
    out.set("kernels.gemm_calls", gemm.len() as f64);
    out.set("kernels.gemm_us_p50", stats::quantile(&gemm_us, 0.5));
    out.set("kernels.busy_frac", busy_us / wall_us.max(1e-9));
    out.set("kernels.estimate_us", (est_attn_us + est_gemm_us) / 2.0);
    out.set(
        "kernels.estimate_share",
        (attn.len() as f64 * est_attn_us + gemm.len() as f64 * est_gemm_us)
            / step_us_total.max(1e-9),
    );
    out.set(
        "kernels.attended_frac",
        sum(&attn, &|k| k.max_len) / attn_seq.max(1.0),
    );
    out.set(
        "kernels.rows_per_call",
        attn_rows / attn.len().max(1) as f64,
    );
    out.set(
        "kernels.bytes_per_call",
        sum(spans, &|k| k.bytes) / spans.len().max(1) as f64,
    );
    out.set(
        "kernels.ext_rows_mean",
        sum(&attn, &|k| k.ext_rows) / attn_rows.max(1.0),
    );
    if spans.is_empty() {
        return KernelTotals::default();
    }
    out.note(format!(
        "kernels: attention {} calls p50 {:.1} us, gemm {} calls p50 {:.1} us; standalone \
         estimate {:.1} us (attention plan) / {:.1} us (linear plan); bytes per call are \
         packed codes plus codebooks computed from tensor sizes",
        attn.len(),
        stats::quantile(&attn_us, 0.5),
        gemm.len(),
        stats::quantile(&gemm_us, 0.5),
        est_attn_us,
        est_gemm_us
    ));
    KernelTotals {
        attn_calls: attn.len(),
        busy_us,
    }
}
