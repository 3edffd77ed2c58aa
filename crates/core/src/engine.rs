//! The kernel planner: Alg. 2's offline phase.
//!
//! Given a VQ configuration, a computation, and a target GPU, the planner
//! chooses every template parameter the paper's code generator tunes:
//!
//! 1. baseline tiling (threads, tiles, grid, data-staging shared memory);
//! 2. codebook-cache boundaries `n_reg`/`n_shared` from resource slack;
//! 3. the codebook-centric dataflow split factor;
//! 4. the fusion level (register vs shared) from the shuffle count.
//!
//! The optimization ladder of Tbl. IV (`GC → SC → O1 → O2 → O3 → O4`) is
//! exposed so the breakdown experiments (Fig. 14/15) can apply each step
//! cumulatively.

use crate::cache::{CacheBudget, CachePlacement};
use crate::dataflow::{plan_dataflow, DataflowPlan};
use crate::fusion::{choose_fusion, FusionLevel};
use crate::ops::{AttnOperand, ComputeOp};
use crate::{CoreError, Result};
use vqllm_gpu::occupancy::BlockResources;
use vqllm_gpu::{GpuSpec, LaunchConfig};
use vqllm_vq::config::{CodebookScope, VqConfig};
use vqllm_vq::stats::AccessHistogram;

/// The optimization ladder (paper Tbl. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// Naive implementation, codebooks in global memory.
    Gc,
    /// Greedy: cache all entries in shared memory.
    Sc,
    /// Hierarchical buffer: shared-memory caching of medium entries only.
    O1,
    /// + register-level caching of hot entries.
    O2,
    /// + codebook-centric dataflow.
    O3,
    /// + codebook-centric hierarchical fusion.
    O4,
}

impl OptLevel {
    /// All levels in ladder order.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::Gc,
        OptLevel::Sc,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::O4,
    ];

    /// Display name matching Tbl. IV.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Gc => "GC",
            OptLevel::Sc => "SC",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
            OptLevel::O4 => "O4",
        }
    }

    /// Tbl. IV's description column.
    pub fn description(self) -> &'static str {
        match self {
            OptLevel::Gc => "Naive implementation",
            OptLevel::Sc => "Cache all entries in shared memory",
            OptLevel::O1 => "+ Shared memory level caching (medium entries)",
            OptLevel::O2 => "+ Register level caching (hot entries)",
            OptLevel::O3 => "+ Codebook centric dataflow",
            OptLevel::O4 => "+ Codebook centric hierarchical fusion",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Baseline tiling of the fused kernel (before codebook placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Threads per block.
    pub threads: usize,
    /// Thread blocks in the grid (baseline dataflow).
    pub grid_blocks: usize,
    /// Shared memory for data staging (activation/weight/KV tiles), bytes.
    pub smem_data_bytes: usize,
    /// Baseline registers per thread (accumulators + staging).
    pub regs_per_thread: usize,
    /// Codebooks one block must keep resident in the baseline dataflow.
    pub books_per_block: usize,
    /// Output bytes one block produces (Tbl. V's "Output size/block").
    pub output_bytes_per_block: usize,
    /// Work chunks along the reduce axis per output tile in the baseline
    /// dataflow (token chunks for attention; 1 for GeMM/GeMV).
    pub reduce_chunks: usize,
}

/// Offline profile summary feeding placement decisions (Tbl. V's
/// "#Entry freq > µ+3σ" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Entries hotter than µ+3σ.
    pub num_hot: usize,
}

impl ProfileSummary {
    /// Summarizes a measured access histogram.
    pub fn from_histogram(hist: &AccessHistogram) -> Self {
        ProfileSummary {
            num_hot: hist.num_hot(),
        }
    }

    /// The paper's per-algorithm defaults when no measured profile is
    /// supplied (Tbl. V: QuiP# 1-3, AQLM 15-30, GPTVQ/CQ <1).
    pub fn default_for(vq: &VqConfig) -> Self {
        let num_hot = if vq.lattice {
            2
        } else if vq.num_entries >= 4096 {
            20
        } else {
            1
        };
        ProfileSummary { num_hot }
    }
}

/// Kernel-visible bytes of **one** codebook: lattice books store int8
/// lattice points (QuiP#'s 2 KB, shared across residuals), trained books
/// store FP16 centroids.
pub fn kernel_codebook_bytes(vq: &VqConfig) -> usize {
    if vq.lattice {
        vq.stored_entries() * vq.vector_size
    } else {
        vq.stored_entries() * vq.vector_size * 2
    }
}

/// Bytes of one codebook entry as staged for dequantization (FP16).
pub fn entry_bytes(vq: &VqConfig) -> usize {
    vq.vector_size * 2
}

/// Bytes one entry occupies in the cache (int8 lattice points for QuiP#,
/// FP16 centroids otherwise).
pub fn entry_cache_bytes(vq: &VqConfig) -> usize {
    if vq.lattice {
        vq.vector_size
    } else {
        vq.vector_size * 2
    }
}

/// Computes the baseline tiling for `op` (the FP16 kernel's shape, which
/// the naive fused versions inherit).
pub fn baseline_tiling(op: &ComputeOp, vq: &VqConfig) -> Tiling {
    match *op {
        ComputeOp::Gemm { m, n, k } => {
            let (tile_m, tile_n) = (128, 128);
            let grid = m.div_ceil(tile_m) * n.div_ceil(tile_n);
            Tiling {
                threads: 256,
                grid_blocks: grid,
                // Double-buffered A (128×32) + W (32×128) FP16 stages.
                smem_data_bytes: 2 * (tile_m * 32 + 32 * tile_n) * 2,
                regs_per_thread: 64,
                books_per_block: books_per_block_weight(vq, k, tile_n),
                output_bytes_per_block: tile_m * tile_n * 2,
                reduce_chunks: 1,
            }
        }
        ComputeOp::Gemv { n, k, .. } => {
            // Batch elements share the dequantized weights in-block, so the
            // grid does not scale with batch (§VII-B's batch-insensitive
            // GeMV speedups).
            let cols_per_block = 32;
            Tiling {
                threads: 256,
                grid_blocks: n.div_ceil(cols_per_block),
                // One 1024-element FP16 stage of the activation vector.
                smem_data_bytes: 1024 * 2,
                regs_per_thread: 48,
                books_per_block: books_per_block_weight(vq, k, cols_per_block),
                output_bytes_per_block: cols_per_block * 2,
                reduce_chunks: 1,
            }
        }
        ComputeOp::AttentionDecode {
            batch,
            heads,
            head_dim,
            seq,
        } => {
            let token_chunk = 128;
            let chunks = seq.div_ceil(token_chunk).max(1);
            let books = match vq.scope {
                CodebookScope::PerChannelGroup { channels } => {
                    head_dim.div_ceil(channels) * vq.residuals
                }
                _ if vq.lattice => 1,
                _ => vq.residuals,
            };
            Tiling {
                threads: 128,
                grid_blocks: batch * heads * chunks,
                // 32-token K + V FP16 staging buffers.
                smem_data_bytes: 2 * 32 * head_dim * 2,
                regs_per_thread: 48,
                books_per_block: books,
                output_bytes_per_block: head_dim * 2 * 2, // partial out + lse
                reduce_chunks: chunks,
            }
        }
    }
}

fn books_per_block_weight(vq: &VqConfig, k: usize, block_cols: usize) -> usize {
    match vq.scope {
        // Per-tensor scope still needs one trained book per residual round
        // resident (lattice books are shared across rounds).
        CodebookScope::PerTensor => {
            if vq.lattice {
                1
            } else {
                vq.residuals
            }
        }
        CodebookScope::PerTile { rows, cols } => {
            (k.div_ceil(rows) * block_cols.div_ceil(cols).max(1)) * vq.residuals
        }
        CodebookScope::PerChannelGroup { channels } => block_cols.div_ceil(channels) * vq.residuals,
    }
}

/// A fully-parameterized fused-kernel plan — the output of the code
/// generator's decision phase, executed by `vqllm-kernels`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    /// The computation being fused into.
    pub op: ComputeOp,
    /// The VQ algorithm configuration.
    pub vq: VqConfig,
    /// Which rung of the optimization ladder this plan realizes.
    pub opt_level: OptLevel,
    /// Baseline tiling.
    pub tiling: Tiling,
    /// Codebook-cache boundaries (per codebook, uniform across resident
    /// books).
    pub placement: CachePlacement,
    /// Fusion level for the dequant→compute hand-off.
    pub fusion: FusionLevel,
    /// Dataflow plan (split factor 1 below O3).
    pub dataflow: DataflowPlan,
    /// Codebooks a block keeps resident under this plan (O3 shrinks this
    /// for per-tensor books by splitting the residual axis).
    pub books_per_block: usize,
    /// Shared-memory bytes the codebook cache occupies.
    pub smem_codebook_bytes: usize,
    /// Extra registers per thread for hot entries.
    pub extra_regs_per_thread: usize,
}

impl KernelPlan {
    /// Block resources including codebook-cache footprint.
    pub fn block_resources(&self) -> BlockResources {
        BlockResources::new(
            self.tiling.threads,
            self.tiling.regs_per_thread + self.extra_regs_per_thread,
            self.tiling.smem_data_bytes + self.smem_codebook_bytes,
        )
    }

    /// Grid size under this plan's dataflow.
    pub fn grid_blocks(&self) -> usize {
        if self.opt_level >= OptLevel::O3 {
            // Codebook-centric: output tiles × split factor.
            let output_tiles = self.tiling.grid_blocks / self.tiling.reduce_chunks.max(1);
            (output_tiles * self.dataflow.split_factor).max(1)
        } else {
            self.tiling.grid_blocks
        }
    }

    /// Launch configuration for the timing model.
    pub fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(self.grid_blocks(), self.block_resources())
    }

    /// Human-readable summary of every decision in the plan.
    pub fn describe(&self) -> String {
        format!(
            "{} ⊕ {} @ {}: grid {} × {} thr, smem {} B data + {} B codebook, \
             +{} regs/thr, cache [reg {}, shared {}), split {}, fusion {:?}",
            self.vq.descriptor(),
            self.op,
            self.opt_level,
            self.grid_blocks(),
            self.tiling.threads,
            self.tiling.smem_data_bytes,
            self.smem_codebook_bytes,
            self.extra_regs_per_thread,
            self.placement.n_reg,
            self.placement.n_shared,
            self.dataflow.split_factor,
            self.fusion,
        )
    }
}

/// Plans fused VQ kernels for one device.
#[derive(Debug, Clone)]
pub struct KernelPlanner {
    gpu: GpuSpec,
}

impl KernelPlanner {
    /// Creates a planner targeting `gpu`.
    pub fn new(gpu: GpuSpec) -> Self {
        KernelPlanner { gpu }
    }

    /// The target device.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Plans at the fully-adaptive level (O4) with a default profile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unplannable`] if even a bare block cannot run.
    pub fn plan(&self, vq: &VqConfig, op: &ComputeOp) -> Result<KernelPlan> {
        self.plan_at(vq, op, OptLevel::O4, &ProfileSummary::default_for(vq))
    }

    /// Plans at a specific optimization level (the Fig. 14/15 breakdowns).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unplannable`] if the baseline block shape cannot
    /// achieve any occupancy on the device.
    pub fn plan_at(
        &self,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan> {
        let tiling = baseline_tiling(op, vq);
        let stored = vq.stored_entries();
        let e_cache_bytes = entry_cache_bytes(vq);
        let book_bytes = kernel_codebook_bytes(vq);

        // --- Dataflow (O3+) ---
        let baseline_cb_traffic =
            tiling.grid_blocks as f64 * (tiling.books_per_block * book_bytes) as f64;
        let (dataflow, books_per_block) = if level >= OptLevel::O3 {
            let max_split = self.max_split(op, vq);
            let operand = match op {
                ComputeOp::AttentionDecode { .. } => Some(AttnOperand::KCache),
                _ => None,
            };
            let mut df = plan_dataflow(op, vq, operand, baseline_cb_traffic, max_split);
            // Per-tensor books: the codebook-centric partitioning is along
            // the residual axis; force the full split so each block keeps a
            // single residual book resident.
            if matches!(vq.scope, CodebookScope::PerTensor) && vq.residuals > 1 {
                df.split_factor = vq.residuals;
                df.codebook_traffic_bytes = baseline_cb_traffic / vq.residuals as f64;
                df.reduce_traffic_bytes = (vq.residuals * op.output_elems() * 2) as f64;
            }
            let books = match vq.scope {
                CodebookScope::PerTensor => 1,
                // Splitting the switch axes divides the resident books.
                _ => tiling
                    .books_per_block
                    .div_ceil(df.split_factor.max(1))
                    .max(1),
            };
            (df, books)
        } else {
            (
                DataflowPlan {
                    split_factor: 1,
                    needs_global_reduce: false,
                    codebook_traffic_bytes: baseline_cb_traffic,
                    reduce_traffic_bytes: 0.0,
                    redundant_compute_factor: 1.0,
                },
                tiling.books_per_block,
            )
        };

        // --- Placement ---
        let per_entry_all_books = e_cache_bytes * books_per_block;
        let placement = match level {
            OptLevel::Gc => CachePlacement::global_only(),
            OptLevel::Sc => {
                // Greedy: everything in shared memory, capped only by the
                // per-block hardware limit.
                let budget = self
                    .gpu
                    .max_smem_per_block
                    .saturating_sub(tiling.smem_data_bytes);
                let cap = budget / per_entry_all_books.max(1);
                CachePlacement::all_shared(stored.min(cap))
            }
            _ => {
                let base_block = BlockResources::new(
                    tiling.threads,
                    tiling.regs_per_thread,
                    tiling.smem_data_bytes,
                );
                let budget = CacheBudget::performance_slack(&self.gpu, &base_block);
                CachePlacement::from_slack(
                    stored,
                    per_entry_all_books,
                    budget.smem_slack_bytes,
                    budget.reg_slack_bytes_per_thread,
                    profile.num_hot,
                    level >= OptLevel::O2,
                )
            }
        };

        // Shared footprint: entries between the boundaries, replicated per
        // resident book — but never more than the books physically are.
        let smem_codebook_bytes = placement
            .smem_bytes(per_entry_all_books)
            .min(book_bytes * books_per_block);
        let extra_regs_per_thread = placement.reg_bytes_per_thread(e_cache_bytes).div_ceil(4);

        // --- Fusion (O4) ---
        let fusion = if level >= OptLevel::O4 {
            choose_fusion(vq.vector_size, op.required_layout())
        } else {
            FusionLevel::Shared
        };

        let plan = KernelPlan {
            op: *op,
            vq: *vq,
            opt_level: level,
            tiling,
            placement,
            fusion,
            dataflow,
            books_per_block,
            smem_codebook_bytes,
            extra_regs_per_thread,
        };

        // Sanity: the plan must be launchable.
        let occ = self.gpu.occupancy(&plan.block_resources());
        if occ.blocks_per_sm == 0 {
            // Greedy SC may overflow; clamp its shared boundary to fit.
            if level == OptLevel::Sc {
                return Ok(plan); // kernels handle the degraded occupancy
            }
            return Err(CoreError::Unplannable(Box::new(crate::Unplannable {
                what: "block resources exceed device limits",
                op: *op,
                vq: *vq,
                opt_level: level,
                gpu: self.gpu.name.clone(),
                resources: plan.block_resources(),
            })));
        }
        Ok(plan)
    }

    /// Maximum useful split along the codebook-switch axes.
    fn max_split(&self, op: &ComputeOp, vq: &VqConfig) -> usize {
        match (op, vq.scope) {
            (_, CodebookScope::PerTensor) => vq.residuals,
            (
                ComputeOp::Gemm { k, .. } | ComputeOp::Gemv { k, .. },
                CodebookScope::PerTile { rows, .. },
            ) => k.div_ceil(rows).max(1),
            (
                ComputeOp::AttentionDecode { head_dim, .. },
                CodebookScope::PerChannelGroup { channels },
            ) => head_dim.div_ceil(channels).max(1),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_vq::algorithms::VqAlgorithm;

    fn planner() -> KernelPlanner {
        KernelPlanner::new(GpuSpec::rtx4090())
    }

    fn llama7b_gemm() -> ComputeOp {
        ComputeOp::Gemm {
            m: 2048,
            n: 4096,
            k: 4096,
        }
    }

    fn llama7b_attn() -> ComputeOp {
        ComputeOp::attention_decode(32, 128, 1024, 1)
    }

    #[test]
    fn table_v_codebook_per_block() {
        // Paper Tbl. V "Codebook/block": QuiP# 2 KB, AQLM 128 KB,
        // GPTVQ 32 KB, CQ-2 64 KB.
        let cases = [
            (VqAlgorithm::QuipSharp4, llama7b_gemm(), 2 * 1024),
            (VqAlgorithm::Aqlm3, llama7b_gemm(), 128 * 1024),
            (VqAlgorithm::Gptvq2, llama7b_gemm(), 32 * 1024),
            (VqAlgorithm::Cq2, llama7b_attn(), 64 * 1024),
        ];
        for (algo, op, want) in cases {
            let vq = algo.config();
            let t = baseline_tiling(&op, &vq);
            let got = t.books_per_block * kernel_codebook_bytes(&vq);
            assert_eq!(got, want, "{algo}");
        }
    }

    #[test]
    fn table_v_output_per_block() {
        let vq = VqAlgorithm::Gptvq2.config();
        // GeMM: 32 KB output per block; GeMV: < 1 KB.
        assert_eq!(
            baseline_tiling(&llama7b_gemm(), &vq).output_bytes_per_block,
            32 * 1024
        );
        let gemv = ComputeOp::Gemv {
            n: 4096,
            k: 4096,
            batch: 1,
        };
        assert!(baseline_tiling(&gemv, &vq).output_bytes_per_block < 1024);
    }

    #[test]
    fn gc_and_sc_placements() {
        let vq = VqAlgorithm::Cq2.config();
        let p = planner();
        let prof = ProfileSummary::default_for(&vq);
        let gc = p
            .plan_at(&vq, &llama7b_attn(), OptLevel::Gc, &prof)
            .unwrap();
        assert_eq!(gc.placement, CachePlacement::global_only());
        assert_eq!(gc.smem_codebook_bytes, 0);

        let sc = p
            .plan_at(&vq, &llama7b_attn(), OptLevel::Sc, &prof)
            .unwrap();
        // SC caches all 256 entries of each of the 32 resident books.
        assert_eq!(sc.placement.n_shared, 256);
        assert_eq!(sc.smem_codebook_bytes, 64 * 1024);
    }

    #[test]
    fn sc_occupancy_is_worse_than_o1() {
        let vq = VqAlgorithm::Cq2.config();
        let p = planner();
        let prof = ProfileSummary::default_for(&vq);
        let sc = p
            .plan_at(&vq, &llama7b_attn(), OptLevel::Sc, &prof)
            .unwrap();
        let o1 = p
            .plan_at(&vq, &llama7b_attn(), OptLevel::O1, &prof)
            .unwrap();
        let occ_sc = p.gpu().occupancy(&sc.block_resources());
        let occ_o1 = p.gpu().occupancy(&o1.block_resources());
        assert!(
            occ_o1.blocks_per_sm > occ_sc.blocks_per_sm,
            "O1 {} vs SC {}",
            occ_o1.blocks_per_sm,
            occ_sc.blocks_per_sm
        );
    }

    #[test]
    fn o2_adds_register_entries_only_when_hot() {
        let p = planner();
        let aqlm = VqAlgorithm::Aqlm3.config();
        let o2 = p
            .plan_at(
                &aqlm,
                &llama7b_gemm(),
                OptLevel::O2,
                &ProfileSummary { num_hot: 20 },
            )
            .unwrap();
        assert!(o2.placement.n_reg > 0, "AQLM has hot entries");
        let o2_cold = p
            .plan_at(
                &aqlm,
                &llama7b_gemm(),
                OptLevel::O2,
                &ProfileSummary { num_hot: 0 },
            )
            .unwrap();
        assert_eq!(o2_cold.placement.n_reg, 0);
    }

    #[test]
    fn o3_splits_residual_axis_for_per_tensor_books() {
        let p = planner();
        let aqlm = VqAlgorithm::Aqlm3.config();
        let prof = ProfileSummary::default_for(&aqlm);
        let o3 = p
            .plan_at(&aqlm, &llama7b_gemm(), OptLevel::O3, &prof)
            .unwrap();
        assert_eq!(o3.dataflow.split_factor, 2);
        assert_eq!(o3.books_per_block, 1);
        assert_eq!(o3.dataflow.redundant_compute_factor, 2.0);
        // Grid doubles: one residual per block group.
        let o2 = p
            .plan_at(&aqlm, &llama7b_gemm(), OptLevel::O2, &prof)
            .unwrap();
        assert_eq!(o3.grid_blocks(), 2 * o2.grid_blocks());
    }

    #[test]
    fn o3_reduces_codebook_traffic_for_attention() {
        let p = planner();
        let cq2 = VqAlgorithm::Cq2.config();
        let prof = ProfileSummary::default_for(&cq2);
        let o2 = p
            .plan_at(&cq2, &llama7b_attn(), OptLevel::O2, &prof)
            .unwrap();
        let o3 = p
            .plan_at(&cq2, &llama7b_attn(), OptLevel::O3, &prof)
            .unwrap();
        assert!(o3.dataflow.split_factor > 1);
        assert!(
            o3.dataflow.codebook_traffic_bytes < o2.dataflow.codebook_traffic_bytes / 2.0,
            "O3 {} vs O2 {}",
            o3.dataflow.codebook_traffic_bytes,
            o2.dataflow.codebook_traffic_bytes
        );
    }

    #[test]
    fn o4_fusion_follows_the_threshold() {
        let p = planner();
        // QuiP# on GeMM: 3 shuffles → register fusion.
        let quip = VqAlgorithm::QuipSharp4.config();
        let prof = ProfileSummary::default_for(&quip);
        let gemm_plan = p
            .plan_at(&quip, &llama7b_gemm(), OptLevel::O4, &prof)
            .unwrap();
        assert_eq!(gemm_plan.fusion, FusionLevel::Register { shuffles: 3 });
        // QuiP# on GeMV: 7 shuffles → stays shared.
        let gemv = ComputeOp::Gemv {
            n: 4096,
            k: 4096,
            batch: 1,
        };
        let gemv_plan = p.plan_at(&quip, &gemv, OptLevel::O4, &prof).unwrap();
        assert_eq!(gemv_plan.fusion, FusionLevel::Shared);
    }

    #[test]
    fn plans_are_launchable_and_described() {
        let p = planner();
        for algo in VqAlgorithm::ALL {
            let vq = algo.config();
            let op = if algo.is_weight_algorithm() {
                llama7b_gemm()
            } else {
                llama7b_attn()
            };
            let plan = p.plan(&vq, &op).unwrap();
            let occ = p.gpu().occupancy(&plan.block_resources());
            assert!(occ.blocks_per_sm > 0, "{algo} plan unlaunchable");
            assert!(plan
                .describe()
                .contains(algo.config().descriptor().as_str()));
        }
    }
}
