//! In-memory spans and the timing decorator around the execution backend.
//!
//! Tracing here is outside-in: the benchmark wraps the calls it makes
//! into each layer (`Engine::step`, every `Backend` call, every client
//! frame) and records a span per call. Nothing inside the program is
//! instrumented. Spans stay in memory and are written out as JSON lines
//! when the workload ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vq_llm::core::plan_cache::PlanRequest;
use vq_llm::core::{ComputeOp, KernelPlan, OptLevel, ProfileSummary};
use vq_llm::kernels::host_exec::RaggedExt;
use vq_llm::kernels::{AccessProfile, Result};
use vq_llm::tensor::Tensor2D;
use vq_llm::vq::QuantizedTensor;
use vq_llm::{Backend, CpuBackend, GpuSpec, KernelOutput, VqConfig};

/// Span names of the kernel calls the decorator times.
pub const ATTENTION: &str = "kernel.attention";
/// GeMM span name.
pub const GEMM: &str = "kernel.gemm";
/// GeMV span name.
pub const GEMV: &str = "kernel.gemv";

/// What one kernel call worked on, read from its arguments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelAttrs {
    /// Query (or activation) rows in the call.
    pub rows: usize,
    /// Shared context rows the attention passes cover (`seq`).
    pub seq: usize,
    /// Longest attended prefix in the batch (`max(lens)`).
    pub max_len: usize,
    /// Extension rows spliced in, summed over the batch (tailed calls).
    pub ext_rows: usize,
    /// Packed codes plus codebooks of the quantized operands, computed
    /// from tensor sizes, not measured traffic.
    pub bytes: usize,
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    /// Request the span belongs to (0: none).
    pub req: u64,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Set on kernel spans.
    pub kernel: Option<KernelAttrs>,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The span kernel calls are attributed to (the step the offline
    /// loop is inside; 0 on the network path, where the benchmark does
    /// not see step boundaries). Relaxed: it publishes nothing else.
    parent: AtomicU64,
    planner_calls: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty store whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            next_id: AtomicU64::new(1),
            parent: AtomicU64::new(0),
            planner_calls: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Attributes later kernel calls to span `id` (0 clears).
    pub fn set_parent(&self, id: u64) {
        self.parent.store(id, Relaxed);
    }

    /// Records a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
        kernel: Option<KernelAttrs>,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            kernel,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a span under a fresh id.
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
        self.record_as(self.reserve(), name, parent, req, start, end, None);
    }

    /// Planner entry points called through the decorator.
    pub fn planner_calls(&self) -> u64 {
        self.planner_calls.load(Relaxed)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
            if let Some(k) = s.kernel {
                write!(
                    out,
                    ",\"rows\":{},\"seq\":{},\"max_len\":{},\"ext_rows\":{},\"bytes\":{}",
                    k.rows, k.seq, k.max_len, k.ext_rows, k.bytes
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// A [`Backend`] that forwards every trait method, the provided ones
/// included, to a [`CpuBackend`] and records a span around each kernel
/// call. Forwarding the provided methods matters: falling back to the
/// trait's default `run_attention_ragged*` would swap the fused kernel for
/// the dequantize-and-loop reference.
#[derive(Debug)]
pub struct TracedBackend {
    inner: CpuBackend,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: CpuBackend, tracer: Arc<Tracer>) -> TracedBackend {
        TracedBackend { inner, tracer }
    }

    fn timed<T>(&self, name: &'static str, attrs: KernelAttrs, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let parent = self.tracer.parent.load(Relaxed);
        let id = self.tracer.reserve();
        self.tracer
            .record_as(id, name, parent, 0, start, end, Some(attrs));
        out
    }

    fn planned(&self) {
        self.tracer.planner_calls.fetch_add(1, Relaxed);
    }
}

fn attention_attrs(
    qs_rows: usize,
    lens: &[usize],
    kq: &QuantizedTensor,
    vq: &QuantizedTensor,
) -> KernelAttrs {
    KernelAttrs {
        rows: qs_rows,
        seq: kq.shape().0,
        max_len: lens.iter().copied().max().unwrap_or(kq.shape().0),
        ext_rows: 0,
        bytes: kq.compressed_bytes() + vq.compressed_bytes(),
    }
}

impl Backend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan> {
        self.planned();
        self.inner.plan_at(gpu, vq, op, level, profile)
    }

    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)> {
        self.planned();
        self.inner.best_plan(gpu, vq, op, profile)
    }

    fn plan_request(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        request: PlanRequest,
        profile: &AccessProfile,
        summary: &ProfileSummary,
    ) -> Result<KernelPlan> {
        self.planned();
        self.inner
            .plan_request(gpu, vq, op, request, profile, summary)
    }

    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
        self.inner.estimate(gpu, plan, profile)
    }

    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let attrs = KernelAttrs {
            rows: a.rows(),
            bytes: wq.compressed_bytes(),
            ..KernelAttrs::default()
        };
        self.timed(GEMM, attrs, || self.inner.run_gemm(gpu, plan, a, wq))
    }

    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let attrs = KernelAttrs {
            rows: 1,
            bytes: wq.compressed_bytes(),
            ..KernelAttrs::default()
        };
        self.timed(GEMV, attrs, || self.inner.run_gemv(gpu, plan, x, wq))
    }

    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let attrs = attention_attrs(1, &[], kq, vq);
        self.timed(ATTENTION, attrs, || {
            self.inner.run_attention_head(gpu, plan, q, kq, vq)
        })
    }

    fn run_attention_batch(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let attrs = attention_attrs(qs.rows(), &[], kq, vq);
        self.timed(ATTENTION, attrs, || {
            self.inner.run_attention_batch(gpu, plan, qs, kq, vq)
        })
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
        let attrs = attention_attrs(qs.rows(), lens, kq, vq);
        self.timed(ATTENTION, attrs, || {
            self.inner.run_attention_ragged(gpu, plan, qs, lens, kq, vq)
        })
    }

    fn run_attention_ragged_tailed(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        exts: &[RaggedExt<'_>],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let attrs = KernelAttrs {
            ext_rows: exts.iter().map(RaggedExt::len).sum(),
            ..attention_attrs(qs.rows(), lens, kq, vq)
        };
        self.timed(ATTENTION, attrs, || {
            self.inner
                .run_attention_ragged_tailed(gpu, plan, qs, lens, exts, kq, vq)
        })
    }
}
