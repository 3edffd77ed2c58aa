//! Workload definitions, input generation, and engine set-up shared by
//! every workload.
//!
//! Every engine runs on [`CpuBackend`] with [`KERNEL_THREADS`] kernel
//! threads: `Engine::builder()` defaults to the GPU performance model,
//! which would measure the model, not the program.

use std::sync::Arc;
use std::time::Instant;

use vq_llm::kernels::AccessProfile;
use vq_llm::tensor::synth;
use vq_llm::{
    Backend, CpuBackend, DecodeRequest, Engine, KvQuantMode, ServeConfig, Session, SharedContext,
    VqAlgorithm,
};

use crate::rng::Rng;
use crate::trace::{TracedBackend, Tracer};

/// Kernel worker partitions of every engine (recorded in the report).
pub const KERNEL_THREADS: usize = 1;
/// Decode slots of every engine.
pub const MAX_BATCH: usize = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process engine, two contexts, a fixed request set drained in a
    /// closed loop.
    OfflineMixed,
    /// Open-loop Poisson arrivals over TCP: short prefixes, short outputs,
    /// many tenants.
    OnlineShort,
    /// Open-loop arrivals over TCP with live KV quantization: long
    /// prefixes, long outputs.
    OnlineLiveKv,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineMixed,
        Workload::OnlineShort,
        Workload::OnlineLiveKv,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineMixed => "offline_mixed",
            Workload::OnlineShort => "online_short",
            Workload::OnlineLiveKv => "online_live_kv",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(seq, head_dim)` of each registered context, in registration
    /// order.
    pub fn shapes(self) -> &'static [(usize, usize)] {
        match self {
            Workload::OfflineMixed => &[(1024, 64), (768, 32)],
            Workload::OnlineShort | Workload::OnlineLiveKv => &[(1024, 64)],
        }
    }

    /// Live-KV mode of the engine.
    pub fn kv_quant(self) -> KvQuantMode {
        match self {
            Workload::OnlineLiveKv => KvQuantMode::Quantized {
                tail_window: 2,
                outlier_keep_milli: 1000,
            },
            Workload::OfflineMixed | Workload::OnlineShort => KvQuantMode::Off,
        }
    }
}

/// One generated request: which context, and what the engine receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Context index in registration order.
    pub ctx: usize,
    /// Tenant tag.
    pub tenant: u64,
    /// Initial query row.
    pub query: Vec<f32>,
    /// Attended prefix of the shared context at the first step.
    pub context_len: usize,
    /// Tokens to decode.
    pub gen_tokens: usize,
}

impl Req {
    /// The engine-level request.
    pub fn decode_request(&self) -> DecodeRequest {
        DecodeRequest::new(
            self.tenant,
            self.query.clone(),
            self.context_len,
            self.gen_tokens,
        )
    }
}

/// The quantization front end (no engine state; plans nothing).
pub fn quantizer() -> Session {
    Session::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .build()
        .expect("GPTVQ-2 weights with CQ-4 KV is a valid configuration")
}

/// Seed of the synthetic contexts. The contexts are the system's state
/// (the shared prompt caches it serves), not traffic, so they are the
/// same for every `--seed`; that keeps set-up work identical across runs.
pub const CONTEXT_SEED: u64 = 21;

/// Quantizes the workload's contexts: synthetic K/V streams and a
/// projection weight per shape.
pub fn contexts(session: &Session, w: Workload) -> Vec<SharedContext> {
    w.shapes()
        .iter()
        .enumerate()
        .map(|(i, &(seq, dim))| {
            let base = CONTEXT_SEED + 8 * i as u64;
            let k = synth::kv_stream(seq, dim, 0.85, base);
            let v = synth::kv_stream(seq, dim, 0.85, base + 1);
            // The projection is gained so decoded rows keep the context
            // rows' RMS (softmax averaging shrinks them otherwise); live
            // KV then appends rows from the distribution its codebooks
            // were trained on. Throughput does not depend on the scale.
            let mut wt = synth::correlated_channels(dim, dim, 4, 0.9, base + 2);
            wt.map_inplace(|x| x * 25.0);
            SharedContext::new(
                session.quantize_kv(&k, base).expect("quantize K"),
                session.quantize_kv(&v, base + 1).expect("quantize V"),
                session.quantize_weights(&wt, base + 2).expect("quantize W"),
            )
            .expect("K, V and W shapes agree")
        })
        .collect()
}

/// The execution backend: plain, or wrapped in the timing decorator.
pub fn backend(tracer: Option<&Arc<Tracer>>) -> Arc<dyn Backend> {
    let cpu = CpuBackend::with_threads(KERNEL_THREADS);
    match tracer {
        Some(t) => Arc::new(TracedBackend::new(cpu, Arc::clone(t))),
        None => Arc::new(cpu),
    }
}

/// An engine for workload `w` on `backend`, with the default profile
/// feedback policy.
pub fn engine(backend: Arc<dyn Backend>, w: Workload, max_queue: usize) -> Engine {
    Engine::builder()
        .backend(backend)
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(MAX_BATCH, max_queue).with_kv_quant(w.kv_quant()))
        .build()
        .expect("valid engine configuration")
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Start to ready to serve, seconds.
    pub total_s: f64,
    /// Quantizing the contexts, seconds.
    pub quantize_s: f64,
    /// `Engine::register_context`, mean per context, ms.
    pub register_ms: f64,
}

/// Quantizes the contexts, builds the engine and registers them; the
/// caller adds its own serving front end before stopping the clock.
pub fn build(
    w: Workload,
    backend: Arc<dyn Backend>,
    max_queue: usize,
) -> (
    Engine,
    Vec<vq_llm::ContextHandle>,
    Vec<SharedContext>,
    SetupTimes,
) {
    let t0 = Instant::now();
    let ctxs = contexts(&quantizer(), w);
    let quantize_s = t0.elapsed().as_secs_f64();
    let mut eng = engine(backend, w, max_queue);
    let t1 = Instant::now();
    let handles: Vec<_> = ctxs
        .iter()
        .map(|c| eng.register_context(c.clone()).expect("context registers"))
        .collect();
    let register_ms = t1.elapsed().as_secs_f64() * 1e3 / ctxs.len() as f64;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        quantize_s,
        register_ms,
    };
    (eng, handles, ctxs, times)
}

/// Solo decodes of `reqs`, one at a time on a fresh plain-backend engine:
/// the rows a batched decode must reproduce bit for bit, and each
/// request's final compressed live-KV bytes.
pub fn solo_references(
    w: Workload,
    ctxs: &[SharedContext],
    reqs: &[&Req],
) -> Vec<(Vec<Vec<f32>>, usize)> {
    let mut eng = engine(backend(None), w, 1);
    let handles: Vec<_> = ctxs
        .iter()
        .map(|c| eng.register_context(c.clone()).expect("context registers"))
        .collect();
    reqs.iter()
        .map(|r| {
            let h = eng.submit(handles[r.ctx], r.decode_request());
            eng.run_until_drained().expect("solo decode");
            let out = eng.take_output(&h).expect("solo request finishes");
            (out.steps, out.kv_bytes)
        })
        .collect()
}

/// Median standalone `Backend::estimate` time (µs) of each registered
/// context's attention and linear plans, under the access profile the CPU
/// backend charges on every `run_*` call.
pub fn estimate_us(eng: &Engine, handles: &[vq_llm::ContextHandle]) -> (f64, f64) {
    let cpu = CpuBackend::with_threads(KERNEL_THREADS);
    let time = |plan: &vq_llm::KernelPlan, profile: &AccessProfile| {
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(cpu.estimate(eng.gpu(), plan, profile));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        crate::stats::median(&samples)
    };
    let mut attn = Vec::new();
    let mut gemm = Vec::new();
    for &h in handles {
        let ctx = eng.context(h).expect("registered");
        let plan = eng.attention_plan(h).expect("registered");
        attn.push(time(plan, &AccessProfile::default_for(ctx.kq().config())));
        let plan = eng.linear_plan(h).expect("registered");
        gemm.push(time(plan, &AccessProfile::default_for(ctx.wq().config())));
    }
    (crate::stats::mean(&attn), crate::stats::mean(&gemm))
}

/// Offline request set: requests alternate between the contexts, output
/// lengths follow a fixed 16..=32 pattern (so every seed asks for the same
/// work in the same order), and attended depths are stratified over each
/// context with a seeded draw inside each stratum. Queries are seeded.
pub fn offline_requests(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, 1);
    let shapes = Workload::OfflineMixed.shapes();
    let per_ctx = n.div_ceil(shapes.len());
    (0..n)
        .map(|i| {
            let ctx = i % shapes.len();
            let (seq, dim) = shapes[ctx];
            let gen_tokens = 16 + (i * 7) % 17;
            let room = seq - gen_tokens + 1;
            let stratum = (i / shapes.len()) as f64;
            let depth = ((stratum + rng.unit()) / per_ctx as f64 * room as f64) as usize;
            Req {
                ctx,
                tenant: 1 + i as u64,
                query: rng.query(dim),
                context_len: depth.clamp(1, room),
                gen_tokens,
            }
        })
        .collect()
}

/// Parameters of an open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    /// Mean arrival rate, requests per second (fixed, absolute).
    pub rate: f64,
    /// Attended prefix range.
    pub context_len: (usize, usize),
    /// Output length range.
    pub gen_tokens: (usize, usize),
    /// Distinct tenants.
    pub tenants: u64,
}

/// Open-loop arrival schedule: `(due offset s, req)`, `rate × warmup_s`
/// arrivals over `[0, warmup_s)` and `rate × seconds` over the measured
/// window after it. Within each span the arrival times are a Poisson
/// process conditioned on its count (sorted uniform draws), and output
/// lengths cycle evenly through their range before shuffling, so every
/// seed offers the same number of requests and tokens.
pub fn schedule(
    a: Arrivals,
    dim: usize,
    seed: u64,
    warmup_s: f64,
    seconds: f64,
) -> Vec<(f64, Req)> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    for (from, span) in [(0.0, warmup_s), (warmup_s, seconds)] {
        let n = (a.rate * span).round() as usize;
        let mut at: Vec<f64> = (0..n).map(|_| from + rng.unit() * span).collect();
        at.sort_by(f64::total_cmp);
        let width = a.gen_tokens.1 - a.gen_tokens.0 + 1;
        let mut gens: Vec<usize> = (0..n).map(|i| a.gen_tokens.0 + i % width).collect();
        for i in (1..n).rev() {
            gens.swap(i, rng.range(0, i));
        }
        for (t, gen_tokens) in at.into_iter().zip(gens) {
            out.push((
                t,
                Req {
                    ctx: 0,
                    tenant: 1 + rng.next_u64() % a.tenants,
                    query: rng.query(dim),
                    context_len: rng.range(a.context_len.0, a.context_len.1),
                    gen_tokens,
                },
            ));
        }
    }
    out
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Cumulative `(steal, total)` CPU ticks of the machine from
/// `/proc/stat`; `(0, 0)` where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A note on how much CPU time the hypervisor took away between
/// two [`cpu_ticks`] readings: bursts of it are what moves latency
/// between otherwise identical runs.
pub fn steal_note(before: (u64, u64), after: (u64, u64)) -> String {
    let total = after.1.saturating_sub(before.1).max(1);
    format!(
        "host steal during the measured window: {:.1}% of CPU time",
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    )
}
