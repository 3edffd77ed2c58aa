//! Pluggable execution backends.
//!
//! A [`Backend`] is everything a `Session` (and an `llm::Pipeline`) needs
//! from an execution substrate: planning a fused kernel, estimating a
//! plan's latency, and functionally executing a plan against real data.
//! Two implementations ship:
//!
//! * [`PerfModelBackend`] — the GPU performance model (the workspace's
//!   documented hardware substitution): plans with the paper's heuristics,
//!   estimates with the roofline timing model, executes functionally
//!   through the modelled codebook cache.
//! * [`CpuBackend`] — real host execution: the same planner decisions,
//!   but `run_*` dispatches to the fused [`host_exec`](crate::host_exec)
//!   kernels, which compute directly on packed codes with cache-resident
//!   codebook LUTs, runtime-dispatched SIMD inner loops, and parallel
//!   paths on the persistent [`host_exec::pool::WorkerPool`].
//!
//! The trait lives in `vqllm-kernels` (below `vqllm-llm`) so the decode
//! pipeline and the facade share one seam; a real-GPU (CUDA/HIP) backend
//! plugs in here later without touching any consumer.

use crate::host_exec::pool::lock_recover;
use crate::host_exec::{self, HostBlocking};
use crate::{vq_kernel, AccessProfile, KernelOutput, Result};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use vqllm_core::plan_cache::PlanRequest;
use vqllm_core::{ComputeOp, KernelPlan, KernelPlanner, OptLevel, ProfileSummary};
use vqllm_gpu::GpuSpec;
use vqllm_tensor::Tensor2D;
use vqllm_vq::{QuantizedTensor, VqConfig};

/// An execution substrate for fused VQ kernels.
///
/// Implementations must be thread-safe: one backend instance is shared by
/// every clone of a `Session` and by the plan cache's racing planners.
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Short backend name for reports and debugging.
    fn name(&self) -> &'static str;

    /// Plans `op` under `vq` at one rung of the optimization ladder.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unplannable`](crate::KernelError::Unplannable)
    /// when no launchable configuration exists.
    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan>;

    /// Plans at every rung and returns the fastest plan (the paper's
    /// adaptive "best perform version").
    ///
    /// # Errors
    ///
    /// Returns an error when no rung yields a launchable configuration.
    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)>;

    /// Plans a [`PlanRequest`]: a fixed rung goes through
    /// [`Backend::plan_at`] with `summary`, the adaptive best through
    /// [`Backend::best_plan`] with `profile`. This is the one seam every
    /// front end (`Session`, `Pipeline`, the serving warm-up) dispatches
    /// through, so a measured profile threads into planning identically
    /// everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unplannable`](crate::KernelError::Unplannable)
    /// when no launchable configuration exists for the request.
    fn plan_request(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        request: PlanRequest,
        profile: &AccessProfile,
        summary: &ProfileSummary,
    ) -> Result<KernelPlan> {
        match request {
            PlanRequest::At(level) => self.plan_at(gpu, vq, op, level, summary),
            PlanRequest::Best => self.best_plan(gpu, vq, op, profile).map(|(plan, _)| plan),
        }
    }

    /// Latency/counter estimate for an existing plan.
    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput;

    /// Functionally executes a fused GeMM: `A × dequant(Wq)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)>;

    /// Functionally executes a fused GeMV: `xᵀ × dequant(Wq)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)>;

    /// Functionally executes one head of fused attention decode over
    /// quantized K/V caches.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)>;

    /// Functionally executes one head of attention decode for a **batch**
    /// of queries (`qs` is `batch × head_dim`, one row per sequence)
    /// attending over shared quantized K/V caches — the serving-layer
    /// multi-tenant decode shape. The default loops
    /// [`Backend::run_attention_head`]; substrates with a real batched
    /// kernel (see [`CpuBackend`]) override it.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or an empty batch.
    fn run_attention_batch(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        let mut out = Tensor2D::zeros(qs.rows(), qs.cols());
        let mut last = None;
        for b in 0..qs.rows() {
            let (row, o) = self.run_attention_head(gpu, plan, qs.row(b), kq, vq)?;
            out.row_mut(b).copy_from_slice(&row);
            last = Some(o);
        }
        Ok((out, last.expect("non-empty batch")))
    }

    /// Ragged batched attention decode: query `b` attends only the first
    /// `lens[b]` cached tokens of the shared quantized K/V — the
    /// continuous-batching shape, where co-scheduled tenants sit at
    /// different positions in one cache. The default is
    /// [`Backend::run_attention_ragged_tailed`] with no extensions;
    /// [`CpuBackend`] runs the fused kernel whose K-decode is shared
    /// across the batch.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches, an empty batch, or a length
    /// outside `1..=seq`.
    fn run_attention_ragged(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        self.run_attention_ragged_tailed(gpu, plan, qs, lens, &[], kq, vq)
    }

    /// Ragged attention decode over a shared quantized context **plus
    /// per-query private KV extensions** ([`RaggedExt`]: packed codes
    /// encoded against the context's codebooks, sparse outlier residuals,
    /// and an unquantized f32 tail window) — the live-KV serving shape.
    /// `exts` is empty (no extensions) or holds one extension per query
    /// row. The default dequantizes the context, reconstructs each
    /// extension (codes + outliers + tail) and loops the dense reference
    /// per query (correct on any substrate, and the test oracle for the
    /// fused kernel); [`CpuBackend`] runs the fused
    /// [`host_exec::attention_decode`] kernel, which keeps the shared
    /// batched LUT score pass.
    ///
    /// [`RaggedExt`]: host_exec::RaggedExt
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches, an empty batch, lengths
    /// outside `1..=seq`, or extensions inconsistent with the context's
    /// VQ configuration — the same rejections, variant for variant, as
    /// the fused kernel.
    #[allow(clippy::too_many_arguments)]
    fn run_attention_ragged_tailed(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        exts: &[host_exec::RaggedExt<'_>],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        host_exec::validate_attention(qs, lens, exts, kq, vq)?;
        let kd = kq
            .dequantize()
            .map_err(|_| crate::KernelError::InvalidInput {
                what: "K cache failed to dequantize",
            })?;
        let vd = vq
            .dequantize()
            .map_err(|_| crate::KernelError::InvalidInput {
                what: "V cache failed to dequantize",
            })?;
        let head_dim = kq.shape().1;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut out = Tensor2D::zeros(qs.rows(), head_dim);
        for (b, &len) in lens.iter().enumerate() {
            let ext = exts.get(b).copied().unwrap_or_default();
            let kfull = splice_extension(&kd, len, &ext, kq, ExtSide::K);
            let vfull = splice_extension(&vd, len, &ext, vq, ExtSide::V);
            let row = vqllm_tensor::linalg::attention_decode_ref(qs.row(b), &kfull, &vfull, scale)
                .map_err(|_| crate::KernelError::ShapeMismatch {
                    what: "reference attention rejected the spliced extension",
                })?;
            out.row_mut(b).copy_from_slice(&row);
        }
        let profile = AccessProfile::default_for(kq.config());
        let counters = self.estimate(gpu, plan, &profile);
        Ok((out, counters))
    }
}

/// Which half of a [`host_exec::RaggedExt`] to reconstruct.
#[derive(Clone, Copy)]
enum ExtSide {
    K,
    V,
}

/// Dense reconstruction of `len` context rows plus one query's extension
/// (decoded codes + outlier residuals + f32 tail) — the oracle the
/// default [`Backend::run_attention_ragged_tailed`] attends over. The
/// extension must have passed `host_exec::validate_attention`.
fn splice_extension(
    base: &Tensor2D,
    len: usize,
    ext: &host_exec::RaggedExt<'_>,
    q: &QuantizedTensor,
    side: ExtSide,
) -> Tensor2D {
    let (codes, outliers, tail) = match side {
        ExtSide::K => (ext.k_codes, ext.k_outliers, ext.k_tail),
        ExtSide::V => (ext.v_codes, ext.v_outliers, ext.v_tail),
    };
    let head_dim = q.shape().1;
    let vs = q.config().vector_size;
    let groups = q.col_groups();
    let books = q.codebooks();
    let mut full = Tensor2D::zeros(len + ext.rows + tail.len(), head_dim);
    for r in 0..len {
        full.row_mut(r).copy_from_slice(base.row(r));
    }
    for row in 0..ext.rows {
        let orow = full.row_mut(len + row);
        for (r, stream) in codes.iter().enumerate() {
            for g in 0..groups {
                let book = books.book(r, books.scope_index(0, g * vs));
                book.accumulate(stream[row * groups + g], &mut orow[g * vs..(g + 1) * vs]);
            }
        }
    }
    for o in outliers {
        let orow = full.row_mut(len + o.row);
        for (j, &v) in o.values.iter().enumerate() {
            orow[o.group * vs + j] += v;
        }
    }
    for (t, trow) in tail.iter().enumerate() {
        full.row_mut(len + ext.rows + t).copy_from_slice(trow);
    }
    full
}

/// The GPU performance-model backend (the workspace's documented hardware
/// substitution): plans with [`KernelPlanner`], estimates with the
/// roofline timing model, and executes functionally on the host while
/// tallying modelled memory behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModelBackend;

impl PerfModelBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        PerfModelBackend
    }
}

impl Backend for PerfModelBackend {
    fn name(&self) -> &'static str {
        "perf-model"
    }

    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan> {
        Ok(KernelPlanner::new(gpu.clone()).plan_at(vq, op, level, profile)?)
    }

    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)> {
        vq_kernel::best_plan(gpu, vq, op, profile)
    }

    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
        vq_kernel::estimate(gpu, plan, profile)
    }

    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        vq_kernel::run_gemm(gpu, plan, a, wq)
    }

    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        vq_kernel::run_gemv(gpu, plan, x, wq)
    }

    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        vq_kernel::run_attention_head(gpu, plan, q, kq, vq)
    }
}

/// Real host execution: plans exactly like [`PerfModelBackend`] (the
/// plan's tiling/placement decisions also seed the host cache blocking),
/// but `run_*` executes the fused [`host_exec`] kernels directly on packed
/// codes — no dequantized weight matrix, codebooks and LUT slabs sized to
/// stay cache-resident, SIMD-tiered inner loops, and optional
/// row/column parallelism on the shared persistent worker pool.
///
/// The [`KernelOutput`] returned alongside real results is the *modelled*
/// GPU report for the plan (so perf-model and CPU runs stay comparable in
/// reports), computed **once per plan**: the first `run_*` call for a
/// `(GpuSpec, KernelPlan, VqConfig)` runs the analytic model and stores
/// the report in a small table shared by every clone of this backend;
/// later calls return the stored report, so the serving hot path pays for
/// the kernel only. Wall-clock measurement is the bench harness's job
/// (`host_speedup`, `serve_bench`).
#[derive(Debug, Clone)]
pub struct CpuBackend {
    threads: usize,
    reports: Arc<ReportTable>,
}

/// How many modelled reports one [`CpuBackend`] (with its clones) keeps.
/// A serving engine holds two plans per context plus a few replans, so
/// this covers dozens of live contexts; past it the oldest report is
/// evicted and recomputed on its next use.
const REPORT_TABLE_CAPACITY: usize = 64;

/// One stored modelled report and the key it was computed for.
#[derive(Debug)]
struct ReportEntry {
    gpu: GpuSpec,
    plan: KernelPlan,
    vq: VqConfig,
    report: KernelOutput,
}

impl ReportEntry {
    fn is_for(&self, gpu: &GpuSpec, plan: &KernelPlan, vq: &VqConfig) -> bool {
        self.plan == *plan && self.vq == *vq && self.gpu == *gpu
    }
}

/// Per-plan modelled reports, oldest first, keyed by value on
/// `(GpuSpec, KernelPlan, VqConfig)`.
#[derive(Default)]
struct ReportTable {
    entries: Mutex<VecDeque<ReportEntry>>,
}

impl std::fmt::Debug for ReportTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportTable")
            .field("len", &self.len())
            .field("capacity", &REPORT_TABLE_CAPACITY)
            .finish()
    }
}

impl ReportTable {
    /// The stored report for the key, or a fresh estimate under the
    /// algorithm's default access profile, stored for the next call. The
    /// estimate runs outside the lock, so a miss never stalls concurrent
    /// hits; racing misses on one key compute the same deterministic
    /// report and only the first insert is kept.
    fn get_or_estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, vq: &VqConfig) -> KernelOutput {
        if let Some(report) = self.stored(gpu, plan, vq) {
            return report;
        }
        let report = vq_kernel::estimate(gpu, plan, &AccessProfile::default_for(vq));
        let mut entries = lock_recover(&self.entries);
        if !entries.iter().any(|e| e.is_for(gpu, plan, vq)) {
            if entries.len() == REPORT_TABLE_CAPACITY {
                entries.pop_front();
            }
            entries.push_back(ReportEntry {
                gpu: gpu.clone(),
                plan: plan.clone(),
                vq: *vq,
                report: report.clone(),
            });
        }
        report
    }

    fn stored(&self, gpu: &GpuSpec, plan: &KernelPlan, vq: &VqConfig) -> Option<KernelOutput> {
        lock_recover(&self.entries)
            .iter()
            .find(|e| e.is_for(gpu, plan, vq))
            .map(|e| e.report.clone())
    }

    fn len(&self) -> usize {
        lock_recover(&self.entries).len()
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new()
    }
}

impl CpuBackend {
    /// Single-threaded backend (deterministic, bench-friendly).
    pub fn new() -> Self {
        CpuBackend::with_threads(1)
    }

    /// Backend with an explicit worker-partition count for the parallel
    /// paths (clamped to ≥ 1). Partitions execute on the process-wide
    /// [`host_exec::pool::WorkerPool`], which this constructor warms
    /// (spawns once) so the first kernel call never pays thread spawns.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads > 1 {
            host_exec::pool::WorkerPool::shared();
        }
        CpuBackend {
            threads,
            reports: Arc::default(),
        }
    }

    /// Backend sized to the machine's available parallelism.
    pub fn auto() -> Self {
        CpuBackend::with_threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Worker threads the row-parallel path uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Host blocking derived from a plan plus this backend's threading.
    fn blocking(&self, plan: &KernelPlan) -> HostBlocking {
        HostBlocking::for_plan(plan).with_threads(self.threads)
    }

    /// The modelled report for the executed plan under the algorithm's
    /// default access distribution, computed once per
    /// `(gpu, plan, q.config())` and then served from the backend's report
    /// table. Deliberately *not* profiled from the tensor: a per-call
    /// `AccessHistogram::profile` would re-decode every packed index
    /// (O(rows × groups)) on the serving hot path, rivalling the fused
    /// kernel itself; real execution is the product here and the report
    /// is a per-plan constant.
    fn output_for(&self, gpu: &GpuSpec, plan: &KernelPlan, q: &QuantizedTensor) -> KernelOutput {
        self.reports.get_or_estimate(gpu, plan, q.config())
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan> {
        PerfModelBackend.plan_at(gpu, vq, op, level, profile)
    }

    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)> {
        PerfModelBackend.best_plan(gpu, vq, op, profile)
    }

    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
        PerfModelBackend.estimate(gpu, plan, profile)
    }

    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let c = host_exec::gemm_fused(a, wq, &self.blocking(plan))?;
        Ok((c, self.output_for(gpu, plan, wq)))
    }

    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let y = host_exec::gemv_xw(x, wq, &self.blocking(plan))?;
        Ok((y, self.output_for(gpu, plan, wq)))
    }

    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let out = host_exec::attention_decode_fused(q, kq, vq, &self.blocking(plan))?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }

    fn run_attention_batch(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        self.run_attention_ragged(gpu, plan, qs, &vec![kq.shape().0; qs.rows()], kq, vq)
    }

    fn run_attention_ragged(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        self.run_attention_ragged_tailed(gpu, plan, qs, lens, &[], kq, vq)
    }

    fn run_attention_ragged_tailed(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        exts: &[host_exec::RaggedExt<'_>],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let out = host_exec::attention_decode(qs, lens, exts, kq, vq, &self.blocking(plan))?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_tensor::{linalg, metrics, synth};
    use vqllm_vq::{VqAlgorithm, VqQuantizer};

    fn plan_for(vq: &VqConfig, op: &ComputeOp) -> KernelPlan {
        KernelPlanner::new(GpuSpec::rtx4090())
            .plan_at(vq, op, OptLevel::O4, &ProfileSummary::default_for(vq))
            .unwrap()
    }

    #[test]
    fn cpu_backend_gemv_matches_perf_model_backend() {
        let vq = VqAlgorithm::Gptvq2.config();
        let w = synth::correlated_channels(256, 64, 4, 0.9, 3);
        let wq = VqQuantizer::new(vq).quantize(&w, 1).unwrap();
        let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.17).cos()).collect();
        let op = ComputeOp::Gemv {
            n: 64,
            k: 256,
            batch: 1,
        };
        let plan = plan_for(&vq, &op);
        let gpu = GpuSpec::rtx4090();
        let (cpu, _) = CpuBackend::auto().run_gemv(&gpu, &plan, &x, &wq).unwrap();
        let (model, _) = PerfModelBackend.run_gemv(&gpu, &plan, &x, &wq).unwrap();
        assert!(metrics::allclose(&cpu, &model, 1e-4, 1e-4));
        let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
        assert!(metrics::allclose(&cpu, &oracle, 1e-4, 1e-4));
    }

    #[test]
    fn attention_batch_matches_looped_default() {
        use vqllm_vq::VqAlgorithm;
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 8);
        let v = synth::kv_stream(320, 32, 0.8, 9);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&v, 2).unwrap();
        let op = ComputeOp::attention_decode(1, 32, 320, 4);
        let plan = plan_for(&vq_cfg, &op);
        let gpu = GpuSpec::rtx4090();
        let qs = vqllm_tensor::Tensor2D::from_fn(4, 32, |b, d| ((b * 13 + d) as f32 * 0.23).sin());
        let backend = CpuBackend::with_threads(2);
        // The fused batch override vs the trait's looped default (which
        // PerfModelBackend inherits) vs per-query fused.
        let (fused, out) = backend
            .run_attention_batch(&gpu, &plan, &qs, &kq, &vq_t)
            .unwrap();
        assert!(out.us() > 0.0);
        let (looped, _) = PerfModelBackend
            .run_attention_batch(&gpu, &plan, &qs, &kq, &vq_t)
            .unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            looped.as_slice(),
            1e-4,
            1e-4
        ));
        for b in 0..qs.rows() {
            let (single, _) = backend
                .run_attention_head(&gpu, &plan, qs.row(b), &kq, &vq_t)
                .unwrap();
            assert!(
                metrics::allclose(fused.row(b), &single, 1e-4, 1e-4),
                "query {b}"
            );
        }
        // Empty batches are rejected, not silently mis-shaped.
        let empty = vqllm_tensor::Tensor2D::zeros(0, 32);
        assert!(backend
            .run_attention_batch(&gpu, &plan, &empty, &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_batch(&gpu, &plan, &empty, &kq, &vq_t)
            .is_err());
    }

    #[test]
    fn attention_ragged_agrees_across_backends() {
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 30);
        let v = synth::kv_stream(320, 32, 0.8, 31);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&v, 2).unwrap();
        let op = ComputeOp::attention_decode(1, 32, 320, 3);
        let plan = plan_for(&vq_cfg, &op);
        let gpu = GpuSpec::rtx4090();
        let qs = vqllm_tensor::Tensor2D::from_fn(3, 32, |b, d| ((b * 7 + d) as f32 * 0.19).sin());
        let lens = [40usize, 320, 9];
        let backend = CpuBackend::with_threads(2);
        let (fused, out) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq_t)
            .unwrap();
        assert!(out.us() > 0.0);
        // The trait's dequantize-and-loop default (what PerfModelBackend
        // inherits) is the oracle.
        let (reference, _) = PerfModelBackend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq_t)
            .unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            reference.as_slice(),
            1e-4,
            1e-4
        ));
        // Invalid lengths and empty batches are rejected on both paths.
        let empty = vqllm_tensor::Tensor2D::zeros(0, 32);
        assert!(backend
            .run_attention_ragged(&gpu, &plan, &empty, &[], &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_ragged(&gpu, &plan, &empty, &[], &kq, &vq_t)
            .is_err());
        assert!(backend
            .run_attention_ragged(&gpu, &plan, &qs, &[0, 1, 1], &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_ragged(&gpu, &plan, &qs, &[1, 1, 321], &kq, &vq_t)
            .is_err());
    }

    #[test]
    fn attention_ragged_tailed_agrees_across_backends() {
        use crate::host_exec::{OutlierResidual, RaggedExt};
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 30);
        let v = synth::kv_stream(320, 32, 0.8, 31);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&v, 2).unwrap();
        let op = ComputeOp::attention_decode(1, 32, 320, 3);
        let plan = plan_for(&vq_cfg, &op);
        let gpu = GpuSpec::rtx4090();
        let qs = vqllm_tensor::Tensor2D::from_fn(3, 32, |b, d| ((b * 7 + d) as f32 * 0.19).sin());
        let lens = [40usize, 320, 9];
        // Encode two appended rows against the context's codebooks; keep
        // every group's residual as an outlier so reconstruction is exact.
        let rows: Vec<Vec<f32>> = (0..3)
            .map(|i| {
                (0..32)
                    .map(|j| ((i * 11 + j) as f32 * 0.33).sin())
                    .collect()
            })
            .collect();
        let vs = vq_cfg.vector_size;
        let groups = 32 / vs;
        let encode = |books: &vqllm_vq::CodebookSet,
                      rows: &[Vec<f32>]|
         -> (Vec<Vec<u32>>, Vec<OutlierResidual>) {
            let mut codes = vec![Vec::new(); vq_cfg.residuals];
            let mut outs = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                for g in 0..groups {
                    let mut resid = row[g * vs..(g + 1) * vs].to_vec();
                    let mut entry = vec![0.0f32; vs];
                    for (r, stream) in codes.iter_mut().enumerate() {
                        let book = books.book(r, books.scope_index(0, g * vs));
                        let code = book.encode(&resid);
                        stream.push(code);
                        book.lookup(code, &mut entry);
                        for (rv, &e) in resid.iter_mut().zip(&entry) {
                            *rv -= e;
                        }
                    }
                    outs.push(OutlierResidual {
                        row: i,
                        group: g,
                        values: resid,
                    });
                }
            }
            (codes, outs)
        };
        let (kc, ko) = encode(kq.codebooks(), &rows[..2]);
        let (vc, vo) = encode(vq_t.codebooks(), &rows[..2]);
        let exts = [
            RaggedExt {
                rows: 2,
                k_codes: &kc,
                v_codes: &vc,
                k_outliers: &ko,
                v_outliers: &vo,
                k_tail: &rows[2..],
                v_tail: &rows[2..],
            },
            RaggedExt::default(),
            RaggedExt {
                rows: 0,
                k_codes: &[],
                v_codes: &[],
                k_outliers: &[],
                v_outliers: &[],
                k_tail: &rows[..1],
                v_tail: &rows[..1],
            },
        ];
        let backend = CpuBackend::with_threads(2);
        let (fused, out) = backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts, &kq, &vq_t)
            .unwrap();
        assert!(out.us() > 0.0);
        // The trait's dequantize-splice-and-loop default (what
        // PerfModelBackend inherits) is the oracle.
        let (reference, _) = PerfModelBackend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts, &kq, &vq_t)
            .unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            reference.as_slice(),
            1e-4,
            1e-4
        ));
        // With every extension empty both paths reduce to the plain
        // ragged decode.
        let empty = [
            RaggedExt::default(),
            RaggedExt::default(),
            RaggedExt::default(),
        ];
        let (no_ext, _) = backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &empty, &kq, &vq_t)
            .unwrap();
        let (plain, _) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq_t)
            .unwrap();
        assert_eq!(no_ext, plain, "empty extensions must be bitwise invisible");
        // Mismatched extension counts are rejected on both paths.
        assert!(backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts[..2], &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts[..2], &kq, &vq_t)
            .is_err());
    }

    #[test]
    fn malformed_extensions_are_rejected_alike_by_both_backends() {
        use crate::host_exec::{OutlierResidual, RaggedExt};
        use crate::KernelError;
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 50);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&k, 2).unwrap();
        let plan = plan_for(&vq_cfg, &ComputeOp::attention_decode(1, 32, 320, 1));
        let gpu = GpuSpec::rtx4090();
        let qs = Tensor2D::from_fn(1, 32, |_, d| (d as f32 * 0.21).sin());
        let groups = kq.col_groups();
        let vs = vq_cfg.vector_size;
        let rounds = vq_cfg.residuals;
        let good = vec![vec![0u32; 2 * groups]; rounds];
        let short = vec![vec![0u32; 2 * groups - 1]; rounds];
        let extra_empty = vec![Vec::new(); rounds + 1];
        let row = vec![0.5f32; 32];
        let narrow = vec![0.5f32; 31];
        let outlier = |row, group, width| {
            vec![OutlierResidual {
                row,
                group,
                values: vec![0.1; width],
            }]
        };
        let (past_rows, past_groups, wrong_width) = (
            outlier(2, 0, vs),
            outlier(0, groups, vs),
            outlier(0, 0, vs + 1),
        );
        let folded = |k_codes, k_outliers| RaggedExt {
            rows: 2,
            k_codes,
            v_codes: &good,
            k_outliers,
            ..RaggedExt::default()
        };
        let shape = KernelError::ShapeMismatch { what: "" };
        let input = KernelError::InvalidInput { what: "" };
        let cases: [(&str, RaggedExt<'_>, &KernelError); 8] = [
            (
                "no folded rows, one code stream too many",
                RaggedExt {
                    k_codes: &extra_empty,
                    ..RaggedExt::default()
                },
                &shape,
            ),
            (
                "missing code stream",
                folded(&good[..rounds - 1], &[]),
                &shape,
            ),
            ("short code stream", folded(&short, &[]), &shape),
            (
                "outlier past the folded rows",
                folded(&good, &past_rows),
                &input,
            ),
            (
                "outlier past the column groups",
                folded(&good, &past_groups),
                &input,
            ),
            (
                "outlier of the wrong width",
                folded(&good, &wrong_width),
                &input,
            ),
            (
                "K/V tails of different lengths",
                RaggedExt {
                    k_tail: std::slice::from_ref(&row),
                    ..RaggedExt::default()
                },
                &shape,
            ),
            (
                "tail row narrower than head_dim",
                RaggedExt {
                    k_tail: std::slice::from_ref(&narrow),
                    v_tail: std::slice::from_ref(&narrow),
                    ..RaggedExt::default()
                },
                &shape,
            ),
        ];
        let backend = CpuBackend::new();
        for (name, ext, want) in cases {
            let exts = [ext];
            let cpu = backend
                .run_attention_ragged_tailed(&gpu, &plan, &qs, &[320], &exts, &kq, &vq_t)
                .expect_err(name);
            let reference = PerfModelBackend
                .run_attention_ragged_tailed(&gpu, &plan, &qs, &[320], &exts, &kq, &vq_t)
                .expect_err(name);
            assert_eq!(
                std::mem::discriminant(&cpu),
                std::mem::discriminant(want),
                "{name}: {cpu}"
            );
            assert_eq!(cpu, reference, "{name}");
        }
        // A per-tile context takes no extension rows (empty ones are fine).
        let tile_cfg = VqConfig::new(
            4,
            16,
            1,
            vqllm_vq::CodebookScope::PerTile { rows: 16, cols: 16 },
        )
        .unwrap();
        let tq = VqQuantizer::new(tile_cfg).quantize(&k, 3).unwrap();
        let tail = [RaggedExt {
            k_tail: std::slice::from_ref(&row),
            v_tail: std::slice::from_ref(&row),
            ..RaggedExt::default()
        }];
        let cpu = backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &[320], &tail, &tq, &tq)
            .expect_err("per-tile extension");
        let reference = PerfModelBackend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &[320], &tail, &tq, &tq)
            .expect_err("per-tile extension");
        assert!(matches!(cpu, KernelError::InvalidInput { .. }), "{cpu}");
        assert_eq!(cpu, reference);
    }

    /// Bitwise view of a report: `Debug` prints every `f64` field in its
    /// shortest round-trip form, so equal strings mean equal bits
    /// (stricter than `PartialEq`, which equates `0.0` and `-0.0`).
    fn report_bits(o: &KernelOutput) -> String {
        format!("{o:?}")
    }

    #[test]
    fn report_table_serves_the_standalone_estimate_once_per_plan() {
        let gpu = GpuSpec::rtx4090();
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 40);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&k, 2).unwrap();
        let attn = plan_for(&vq_cfg, &ComputeOp::attention_decode(1, 32, 320, 2));
        let w_cfg = VqAlgorithm::Gptvq2.config();
        let w = synth::correlated_channels(32, 32, 4, 0.9, 41);
        let wq = VqQuantizer::new(w_cfg).quantize(&w, 3).unwrap();
        let linear = plan_for(&w_cfg, &ComputeOp::Gemm { m: 2, n: 32, k: 32 });
        let want_attn = vq_kernel::estimate(&gpu, &attn, &AccessProfile::default_for(&vq_cfg));
        let want_linear = vq_kernel::estimate(&gpu, &linear, &AccessProfile::default_for(&w_cfg));
        let qs = Tensor2D::from_fn(2, 32, |b, d| ((b * 5 + d) as f32 * 0.29).sin());
        let backend = CpuBackend::new();
        let run_attn = |b: &CpuBackend| {
            b.run_attention_ragged(&gpu, &attn, &qs, &[320, 64], &kq, &vq_t)
                .unwrap()
                .1
        };
        let run_linear = |b: &CpuBackend| b.run_gemm(&gpu, &linear, &qs, &wq).unwrap().1;

        // First call, repeated call, two plans interleaved, and a clone:
        // every report is bitwise the standalone estimate.
        for (i, got) in [
            run_attn(&backend),
            run_attn(&backend),
            run_linear(&backend),
            run_attn(&backend),
            run_linear(&backend),
        ]
        .iter()
        .enumerate()
        {
            let want = if matches!(i, 2 | 4) {
                &want_linear
            } else {
                &want_attn
            };
            assert_eq!(report_bits(got), report_bits(want), "call {i}");
        }
        assert_eq!(backend.reports.len(), 2, "one entry per plan");
        let clone = backend.clone();
        assert_eq!(report_bits(&run_linear(&clone)), report_bits(&want_linear));
        assert_eq!(backend.reports.len(), 2, "clones share the table");
        // Every run_* shape goes through the same table.
        let (_, head) = backend
            .run_attention_head(&gpu, &attn, qs.row(0), &kq, &vq_t)
            .unwrap();
        let (_, batch) = backend
            .run_attention_batch(&gpu, &attn, &qs, &kq, &vq_t)
            .unwrap();
        let (_, tailed) = backend
            .run_attention_ragged_tailed(
                &gpu,
                &attn,
                &qs,
                &[320, 64],
                &[
                    host_exec::RaggedExt::default(),
                    host_exec::RaggedExt::default(),
                ],
                &kq,
                &vq_t,
            )
            .unwrap();
        for got in [&head, &batch, &tailed] {
            assert_eq!(report_bits(got), report_bits(&want_attn));
        }
        assert_eq!(backend.reports.len(), 2);
    }

    #[test]
    fn report_table_keys_on_config_and_gpu_and_stays_bounded() {
        let gpu = GpuSpec::rtx4090();
        let other_gpu = GpuSpec {
            dram_bw_gbps: gpu.dram_bw_gbps / 2.0,
            ..gpu.clone()
        };
        let plan = plan_for(
            &VqAlgorithm::Cq4.config(),
            &ComputeOp::attention_decode(1, 32, 128, 1),
        );
        let table = ReportTable::default();
        // Same plan, different tensor configs and GPUs: separate entries,
        // each bitwise its own standalone estimate.
        let keys = [
            (&gpu, VqAlgorithm::Cq4.config()),
            (&gpu, VqAlgorithm::Cq2.config()),
            (&other_gpu, VqAlgorithm::Cq4.config()),
        ];
        for _ in 0..2 {
            for (g, cfg) in &keys {
                let want = vq_kernel::estimate(g, &plan, &AccessProfile::default_for(cfg));
                assert_eq!(
                    report_bits(&table.get_or_estimate(g, &plan, cfg)),
                    report_bits(&want)
                );
            }
        }
        assert_eq!(table.len(), keys.len());

        // More distinct plans than the capacity: the table stays at its
        // capacity, and the evicted oldest key is recomputed exactly.
        let cfg = VqAlgorithm::Cq2.config();
        let plans: Vec<KernelPlan> = (1..=REPORT_TABLE_CAPACITY + 8)
            .map(|seq| plan_for(&cfg, &ComputeOp::attention_decode(1, 32, 16 * seq, 1)))
            .collect();
        for p in &plans {
            table.get_or_estimate(&gpu, p, &cfg);
            assert!(table.len() <= REPORT_TABLE_CAPACITY);
        }
        assert_eq!(table.len(), REPORT_TABLE_CAPACITY);
        let want = vq_kernel::estimate(&gpu, &plans[0], &AccessProfile::default_for(&cfg));
        assert_eq!(
            report_bits(&table.get_or_estimate(&gpu, &plans[0], &cfg)),
            report_bits(&want)
        );
        assert_eq!(table.len(), REPORT_TABLE_CAPACITY);
    }

    #[test]
    fn cpu_backend_plans_like_the_model() {
        let vq = VqAlgorithm::Cq2.config();
        let op = ComputeOp::attention_decode(8, 64, 256, 1);
        let gpu = GpuSpec::rtx4090();
        let summary = ProfileSummary::default_for(&vq);
        let a = CpuBackend::new()
            .plan_at(&gpu, &vq, &op, OptLevel::O4, &summary)
            .unwrap();
        let b = PerfModelBackend
            .plan_at(&gpu, &vq, &op, OptLevel::O4, &summary)
            .unwrap();
        assert_eq!(a, b, "planning is backend-independent");
        assert_eq!(CpuBackend::with_threads(0).threads(), 1);
    }
}
