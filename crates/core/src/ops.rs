//! Compute-operation descriptions and the axis algebra of the paper's
//! Tbl. III.
//!
//! Every fused kernel combines VQ dequantization with one of three
//! computations: GeMM (prefill linear layers), GeMV (decode linear layers)
//! or attention decode (KV-cache consumption). The planner reasons about
//! each computation's *axes*: which are reduced, and which force a codebook
//! switch under a given [`CodebookScope`]. A non-empty intersection between
//! the two is what demands an explicit global reduction in the
//! codebook-centric dataflow (§VI-A).

use vqllm_vq::config::CodebookScope;

/// Named axes, following the paper's notation.
///
/// Weight computations use `M` (weight rows = contraction dim), `N` (weight
/// columns = outputs) and `R` (residual rounds). Attention uses `B` (batch),
/// `H` (head), `T` (token), `C` (channel) plus `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Weight rows (the GeMM/GeMV contraction dimension).
    M,
    /// Weight columns (output features).
    N,
    /// Residual quantization rounds.
    R,
    /// Batch.
    B,
    /// Attention head.
    H,
    /// Token (sequence position).
    T,
    /// Channel within a head.
    C,
}

/// Which operand of the attention computation is being described (K and V
/// caches reduce along different axes — Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttnOperand {
    /// Key cache: the QK inner product reduces along channels.
    KCache,
    /// Value cache: the weighted sum reduces along tokens.
    VCache,
}

/// A computation to fuse VQ dequantization into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeOp {
    /// `C[m,n] = A[m,k=weight_rows] × W[weight_rows, n]`, weight quantized.
    Gemm {
        /// Activation rows (batch × sequence in prefill).
        m: usize,
        /// Output features (weight columns).
        n: usize,
        /// Contraction length (weight rows).
        k: usize,
    },
    /// `y[b, n] = W[n, k] · x[b, k]`, weight quantized, decode-phase shapes
    /// (small `b`).
    Gemv {
        /// Output features.
        n: usize,
        /// Contraction length.
        k: usize,
        /// Batch size.
        batch: usize,
    },
    /// Flash-decoding-style attention with a quantized KV cache.
    AttentionDecode {
        /// Batch size.
        batch: usize,
        /// Attention heads.
        heads: usize,
        /// Channels per head.
        head_dim: usize,
        /// Cached tokens (sequence length).
        seq: usize,
    },
}

impl ComputeOp {
    /// Convenience constructor for attention decode.
    pub fn attention_decode(heads: usize, head_dim: usize, seq: usize, batch: usize) -> Self {
        ComputeOp::AttentionDecode {
            batch,
            heads,
            head_dim,
            seq,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ComputeOp::Gemm { .. } => "GeMM",
            ComputeOp::Gemv { .. } => "GeMV",
            ComputeOp::AttentionDecode { .. } => "Attention(Decode)",
        }
    }

    /// All axes of the computation (paper Tbl. III, "All axes").
    pub fn all_axes(&self) -> &'static [Axis] {
        match self {
            ComputeOp::Gemm { .. } | ComputeOp::Gemv { .. } => &[Axis::M, Axis::N, Axis::R],
            ComputeOp::AttentionDecode { .. } => &[Axis::B, Axis::H, Axis::T, Axis::C],
        }
    }

    /// Reduce axes (Tbl. III). For attention the operand matters: the QK
    /// product reduces along `C`, the V accumulation along `T`.
    pub fn reduce_axes(&self, operand: Option<AttnOperand>) -> &'static [Axis] {
        match self {
            ComputeOp::Gemm { .. } | ComputeOp::Gemv { .. } => &[Axis::M, Axis::R],
            ComputeOp::AttentionDecode { .. } => match operand {
                Some(AttnOperand::VCache) => &[Axis::T],
                _ => &[Axis::C],
            },
        }
    }

    /// Codebook-switch axes under `scope` (Tbl. III's last column):
    /// per-tensor books switch only across residuals (`R`), per-tile books
    /// across weight tiles (`M`, `N`), per-channel-group books across heads
    /// and channels (`H`, `C`).
    pub fn switch_axes(&self, scope: CodebookScope) -> &'static [Axis] {
        match (self, scope) {
            (ComputeOp::Gemm { .. } | ComputeOp::Gemv { .. }, CodebookScope::PerTensor) => {
                &[Axis::R]
            }
            (ComputeOp::Gemm { .. } | ComputeOp::Gemv { .. }, CodebookScope::PerTile { .. }) => {
                &[Axis::M, Axis::N]
            }
            (
                ComputeOp::Gemm { .. } | ComputeOp::Gemv { .. },
                CodebookScope::PerChannelGroup { .. },
            ) => &[Axis::M],
            (ComputeOp::AttentionDecode { .. }, CodebookScope::PerChannelGroup { .. }) => {
                &[Axis::H, Axis::C]
            }
            (ComputeOp::AttentionDecode { .. }, _) => &[Axis::H],
        }
    }

    /// Axes needing an explicit global reduction in the codebook-centric
    /// dataflow: `reduce ∩ switch` (the coloured cells of Tbl. III).
    pub fn global_reduce_axes(
        &self,
        scope: CodebookScope,
        operand: Option<AttnOperand>,
    ) -> Vec<Axis> {
        let reduce = self.reduce_axes(operand);
        self.switch_axes(scope)
            .iter()
            .copied()
            .filter(|a| reduce.contains(a))
            .collect()
    }

    /// Total floating-point operations of the computation (MAC = 2 FLOPs).
    pub fn flops(&self) -> f64 {
        match *self {
            ComputeOp::Gemm { m, n, k } => 2.0 * m as f64 * n as f64 * k as f64,
            ComputeOp::Gemv { n, k, batch } => 2.0 * n as f64 * k as f64 * batch as f64,
            ComputeOp::AttentionDecode {
                batch,
                heads,
                head_dim,
                seq,
            } => {
                // QK^T + softmax·V per head: 2 × (seq × dim) MACs ≈ 4·s·d
                // FLOPs, plus softmax (≈5 ops/token).
                let per_head = 4.0 * seq as f64 * head_dim as f64 + 5.0 * seq as f64;
                per_head * heads as f64 * batch as f64
            }
        }
    }

    /// Elements of the quantized operand (weights or KV cache).
    pub fn quantized_elems(&self) -> usize {
        match *self {
            ComputeOp::Gemm { n, k, .. } => n * k,
            ComputeOp::Gemv { n, k, .. } => n * k,
            ComputeOp::AttentionDecode {
                batch,
                heads,
                head_dim,
                seq,
            } => 2 * batch * heads * seq * head_dim, // K and V
        }
    }

    /// Output elements (FP16) the kernel writes.
    pub fn output_elems(&self) -> usize {
        match *self {
            ComputeOp::Gemm { m, n, .. } => m * n,
            ComputeOp::Gemv { n, batch, .. } => n * batch,
            ComputeOp::AttentionDecode {
                batch,
                heads,
                head_dim,
                ..
            } => batch * heads * head_dim,
        }
    }

    /// Whether the computation runs on tensor cores (`mma`) in the FP16
    /// baseline — true for GeMM (cutlass), false for the memory-bound ops.
    pub fn uses_tensor_cores(&self) -> bool {
        matches!(self, ComputeOp::Gemm { .. })
    }

    /// Per-thread register layout the computation consumes, in elements:
    /// `mma` fragments hold 2 consecutive elements per thread (Fig. 12);
    /// the element-wise reductions of GeMV and attention consume 1.
    pub fn required_layout(&self) -> usize {
        match self {
            ComputeOp::Gemm { .. } => 2,
            ComputeOp::Gemv { .. } | ComputeOp::AttentionDecode { .. } => 1,
        }
    }

    /// Activation / query bytes streamed from DRAM at FP16 (non-quantized
    /// inputs).
    pub fn input_bytes(&self) -> usize {
        match *self {
            ComputeOp::Gemm { m, k, .. } => m * k * 2,
            ComputeOp::Gemv { k, batch, .. } => k * batch * 2,
            ComputeOp::AttentionDecode {
                batch,
                heads,
                head_dim,
                ..
            } => batch * heads * head_dim * 2,
        }
    }
}

impl std::fmt::Display for ComputeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ComputeOp::Gemm { m, n, k } => write!(f, "GeMM[{m}x{k}x{n}]"),
            ComputeOp::Gemv { n, k, batch } => write!(f, "GeMV[{n}x{k}, bs{batch}]"),
            ComputeOp::AttentionDecode {
                batch,
                heads,
                head_dim,
                seq,
            } => write!(f, "Attn[bs{batch}, {heads}h x {head_dim}, seq {seq}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm() -> ComputeOp {
        ComputeOp::Gemm {
            m: 128,
            n: 4096,
            k: 4096,
        }
    }

    fn attn() -> ComputeOp {
        ComputeOp::attention_decode(32, 128, 1024, 1)
    }

    #[test]
    fn table_iii_weight_axes() {
        let per_tensor = CodebookScope::PerTensor;
        let per_tile = CodebookScope::PerTile {
            rows: 256,
            cols: 256,
        };
        assert_eq!(gemm().switch_axes(per_tensor), &[Axis::R]);
        assert_eq!(gemm().switch_axes(per_tile), &[Axis::M, Axis::N]);
        assert_eq!(gemm().reduce_axes(None), &[Axis::M, Axis::R]);
        // AQLM/QuiP#: R is both switched and reduced → global reduce on R.
        assert_eq!(gemm().global_reduce_axes(per_tensor, None), vec![Axis::R]);
        // GPTVQ: M is both switched and reduced → split-K style reduce.
        assert_eq!(gemm().global_reduce_axes(per_tile, None), vec![Axis::M]);
    }

    #[test]
    fn table_iii_attention_axes() {
        let cq = CodebookScope::PerChannelGroup { channels: 4 };
        assert_eq!(attn().switch_axes(cq), &[Axis::H, Axis::C]);
        // K cache reduces along C → intersects switch axes.
        assert_eq!(
            attn().global_reduce_axes(cq, Some(AttnOperand::KCache)),
            vec![Axis::C]
        );
        // V cache reduces along T → no intersection, concat only.
        assert_eq!(
            attn().global_reduce_axes(cq, Some(AttnOperand::VCache)),
            Vec::<Axis>::new()
        );
    }

    #[test]
    fn required_layouts_match_fig12() {
        assert_eq!(gemm().required_layout(), 2, "mma fragment");
        assert_eq!(
            ComputeOp::Gemv {
                n: 1,
                k: 1,
                batch: 1
            }
            .required_layout(),
            1
        );
        assert_eq!(attn().required_layout(), 1);
    }

    #[test]
    fn flops_and_sizes() {
        let g = ComputeOp::Gemm { m: 2, n: 3, k: 4 };
        assert_eq!(g.flops(), 48.0);
        assert_eq!(g.output_elems(), 6);
        assert_eq!(g.quantized_elems(), 12);

        let a = ComputeOp::attention_decode(2, 4, 8, 3);
        assert_eq!(a.quantized_elems(), 2 * 3 * 2 * 8 * 4);
        assert_eq!(a.output_elems(), 3 * 2 * 4);
    }

    #[test]
    fn tensor_core_usage() {
        assert!(gemm().uses_tensor_cores());
        assert!(!attn().uses_tensor_cores());
    }
}
