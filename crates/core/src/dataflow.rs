//! Codebook-centric dataflow (paper §VI-A).
//!
//! The baseline dataflow parallelizes along whatever axis the FP16 kernel
//! liked (tokens for FlashDecoding, output tiles for GeMM). When codebooks
//! enter the picture, blocks that are parallel along a *non-switch* axis
//! all traverse the same codebooks, duplicating Global→Shared traffic
//! (paper Fig. 5). Re-orienting the partitioning along the codebook-switch
//! axes removes the duplication but — wherever a switch axis is also a
//! reduce axis (Tbl. III's coloured cells) — requires a global reduction of
//! partials.
//!
//! The *split factor* trades the two traffics:
//!
//! ```text
//! Traffic_reduce   = split × output_bytes
//! Traffic_codebook = baseline_codebook_traffic / split
//! ```
//!
//! Both are monotone in opposite directions, so the optimum is their
//! crossing: `split* = sqrt(baseline_codebook_traffic / output_bytes)`
//! (the paper invokes the mean value theorem for the same conclusion).

use crate::ops::{AttnOperand, ComputeOp};
use vqllm_vq::config::VqConfig;

/// The planned dataflow for one fused kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataflowPlan {
    /// Degree of parallelization along the codebook-switch axes.
    pub split_factor: usize,
    /// Whether partial results need a global reduction
    /// (`switch ∩ reduce ≠ ∅`).
    pub needs_global_reduce: bool,
    /// Predicted Global→Shared codebook bytes under this plan.
    pub codebook_traffic_bytes: f64,
    /// Predicted global-reduction bytes under this plan.
    pub reduce_traffic_bytes: f64,
    /// Extra whole-computation passes forced by splitting along the
    /// residual axis (QuiP#/AQLM on GeMM/GeMV: each residual level
    /// recomputes the full product — §VII-C's "redundant computations").
    pub redundant_compute_factor: f64,
}

/// The optimal split factor for the traffic-balance equation, clamped to
/// `[1, max_split]`.
pub fn optimal_split_factor(
    baseline_codebook_traffic: f64,
    output_bytes: f64,
    max_split: usize,
) -> usize {
    if output_bytes <= 0.0 || baseline_codebook_traffic <= 0.0 {
        return 1;
    }
    let max_split = max_split.max(1);
    let s = (baseline_codebook_traffic / output_bytes).sqrt();
    // The continuous optimum may round to the wrong discrete neighbour;
    // compare both bracketing integers.
    let lo = (s.floor() as usize).clamp(1, max_split);
    let hi = (lo + 1).min(max_split);
    let total = |s: usize| baseline_codebook_traffic / s as f64 + s as f64 * output_bytes;
    if total(hi) < total(lo) {
        hi
    } else {
        lo
    }
}

/// Plans the codebook-centric dataflow for `op` under `vq`.
///
/// `baseline_codebook_traffic` is the duplicated Global→Shared codebook
/// traffic of the baseline (SC) dataflow; `max_split` bounds the
/// parallelization (usually the extent of the switch axes).
pub fn plan_dataflow(
    op: &ComputeOp,
    vq: &VqConfig,
    operand: Option<AttnOperand>,
    baseline_codebook_traffic: f64,
    max_split: usize,
) -> DataflowPlan {
    let output_bytes = (op.output_elems() * 2) as f64;
    let needs_global_reduce = !op.global_reduce_axes(vq.scope, operand).is_empty();

    let split_factor = if needs_global_reduce {
        optimal_split_factor(baseline_codebook_traffic, output_bytes, max_split)
    } else {
        // No reduction cost: push to the maximum useful split.
        max_split.max(1)
    };

    let codebook_traffic_bytes = baseline_codebook_traffic / split_factor as f64;
    let reduce_traffic_bytes = if needs_global_reduce {
        split_factor as f64 * output_bytes
    } else {
        0.0
    };

    // Splitting along the residual axis replays the computation once per
    // residual level (the dequantized operand distributes over the product:
    // W·x = Σ_r E_r·x), so FLOPs scale with the residual count.
    let splits_residual_axis = matches!(
        (op, vq.scope),
        (
            ComputeOp::Gemm { .. } | ComputeOp::Gemv { .. },
            vqllm_vq::config::CodebookScope::PerTensor
        )
    ) && vq.residuals > 1;
    let redundant_compute_factor = if splits_residual_axis {
        vq.residuals as f64
    } else {
        1.0
    };

    DataflowPlan {
        split_factor,
        needs_global_reduce,
        codebook_traffic_bytes,
        reduce_traffic_bytes,
        redundant_compute_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_vq::algorithms::VqAlgorithm;

    #[test]
    fn optimum_balances_the_two_traffics() {
        // cb = 1 MB, output = 16 KB → s* = sqrt(64) = 8.
        let s = optimal_split_factor(1_048_576.0, 16_384.0, 1024);
        assert_eq!(s, 8);
        // At the optimum the two traffics are equal.
        let cb = 1_048_576.0 / s as f64;
        let red = s as f64 * 16_384.0;
        assert_eq!(cb, red);
    }

    #[test]
    fn split_is_clamped() {
        assert_eq!(optimal_split_factor(1e12, 1.0, 16), 16);
        assert_eq!(optimal_split_factor(1.0, 1e12, 16), 1);
        assert_eq!(optimal_split_factor(0.0, 0.0, 16), 1);
    }

    #[test]
    fn optimum_is_a_local_minimum_of_total_traffic() {
        let cb = 3.2e7;
        let out = 8192.0;
        let s = optimal_split_factor(cb, out, 4096);
        let total = |s: f64| cb / s + s * out;
        assert!(total(s as f64) <= total((s + 1) as f64) + 1e-6);
        if s > 1 {
            assert!(total(s as f64) <= total((s - 1) as f64) + 1e-6);
        }
    }

    #[test]
    fn gemm_with_per_tensor_books_pays_redundant_compute() {
        // QuiP#-4 / AQLM-3 split the residual axis → compute replays per
        // residual (the §VII-C regression).
        let op = ComputeOp::Gemm {
            m: 4096,
            n: 4096,
            k: 4096,
        };
        let quip = VqAlgorithm::QuipSharp4.config();
        let plan = plan_dataflow(&op, &quip, None, 1e6, 64);
        assert!(plan.needs_global_reduce);
        assert_eq!(plan.redundant_compute_factor, 2.0);
    }

    #[test]
    fn gptvq_gemm_splits_without_redundancy() {
        let op = ComputeOp::Gemm {
            m: 4096,
            n: 4096,
            k: 4096,
        };
        let gptvq = VqAlgorithm::Gptvq2.config();
        let plan = plan_dataflow(&op, &gptvq, None, 1e6, 64);
        assert!(plan.needs_global_reduce, "M is switched and reduced");
        assert_eq!(plan.redundant_compute_factor, 1.0);
    }

    #[test]
    fn v_cache_needs_no_global_reduce() {
        let op = ComputeOp::attention_decode(32, 128, 1024, 1);
        let cq2 = VqAlgorithm::Cq2.config();
        let plan = plan_dataflow(&op, &cq2, Some(AttnOperand::VCache), 1e6, 32);
        assert!(!plan.needs_global_reduce);
        assert_eq!(plan.split_factor, 32, "free parallelism is maxed");
        assert_eq!(plan.reduce_traffic_bytes, 0.0);
    }

    #[test]
    fn k_cache_reduces_and_splits_adaptively() {
        let op = ComputeOp::attention_decode(32, 128, 1024, 1);
        let cq2 = VqAlgorithm::Cq2.config();
        let plan = plan_dataflow(&op, &cq2, Some(AttnOperand::KCache), 4e6, 32);
        assert!(plan.needs_global_reduce);
        assert!(plan.split_factor >= 1 && plan.split_factor <= 32);
        // Codebook traffic shrinks by exactly the split factor.
        assert!((plan.codebook_traffic_bytes * plan.split_factor as f64 - 4e6).abs() < 1.0);
    }

    #[test]
    fn bigger_output_pulls_split_down() {
        let small_out = ComputeOp::Gemv {
            n: 4096,
            k: 4096,
            batch: 1,
        };
        let big_out = ComputeOp::Gemm {
            m: 4096,
            n: 4096,
            k: 4096,
        };
        let aqlm = VqAlgorithm::Aqlm3.config();
        let s_small = plan_dataflow(&small_out, &aqlm, None, 1e8, 4096).split_factor;
        let s_big = plan_dataflow(&big_out, &aqlm, None, 1e8, 4096).split_factor;
        assert!(s_small > s_big, "GeMV {s_small} vs GeMM {s_big}");
    }
}
