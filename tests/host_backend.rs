//! Property-based parity suite for the real host-execution backend.
//!
//! Every `CpuBackend` kernel (and the decode-orientation LUT GeMV it is
//! built from) is pinned to the `vqllm-tensor::linalg` oracles across
//! randomized VQ configurations — residual rounds, all three codebook
//! scopes, lattice on/off — and randomized shapes/seeds. The fused host
//! kernels compute directly on packed codes, so these tests are the
//! evidence that "no materialized weight matrix" loses no precision
//! beyond f32 summation-order noise (1e-4 relative tolerance).

use proptest::prelude::*;
use std::sync::Arc;
use vq_llm::kernels::host_exec::{self, HostBlocking, RaggedExt};
use vq_llm::tensor::{linalg, metrics, synth};
use vq_llm::vq::config::CodebookScope;
use vq_llm::vq::VqQuantizer;
use vq_llm::{
    Backend, BackendKind, ComputeOp, CpuBackend, GpuSpec, KernelPlan, PerfModelBackend, Session,
    VqConfig,
};

/// The randomized configuration space: residuals × scopes × lattice.
fn config(case: usize) -> VqConfig {
    match case % 8 {
        0 => VqConfig::new(2, 16, 1, CodebookScope::PerTensor).unwrap(),
        1 => VqConfig::new(4, 16, 2, CodebookScope::PerTensor).unwrap(),
        2 => VqConfig::new(4, 32, 1, CodebookScope::PerChannelGroup { channels: 4 }).unwrap(),
        3 => VqConfig::new(2, 16, 2, CodebookScope::PerChannelGroup { channels: 2 }).unwrap(),
        4 => VqConfig::new(4, 16, 1, CodebookScope::PerTile { rows: 16, cols: 16 }).unwrap(),
        5 => VqConfig::new_lattice(4, 256, 16, 1, CodebookScope::PerTensor).unwrap(),
        6 => VqConfig::new_lattice(4, 256, 16, 2, CodebookScope::PerTensor).unwrap(),
        _ => VqConfig::new(8, 16, 1, CodebookScope::PerTensor).unwrap(),
    }
}

fn dims(rows_i: usize, cols_i: usize) -> (usize, usize) {
    ([32, 48, 64][rows_i % 3], [16, 32][cols_i % 2])
}

fn quantize(cfg: VqConfig, rows: usize, cols: usize, seed: u64) -> vq_llm::vq::QuantizedTensor {
    let w = synth::correlated_channels(rows, cols, cfg.vector_size, 0.9, seed);
    VqQuantizer::new(cfg).quantize(&w, seed).expect("quantize")
}

/// Any launchable plan for the op (the host kernels only read blocking
/// hints from it, so the rung doesn't matter for correctness).
fn plan_for(cfg: &VqConfig, op: &ComputeOp) -> Option<KernelPlan> {
    let backend = CpuBackend::new();
    let profile = vq_llm::kernels::AccessProfile::default_for(cfg);
    backend
        .best_plan(&GpuSpec::rtx4090(), cfg, op, &profile)
        .map(|(plan, _)| plan)
        .ok()
}

proptest! {
    /// `CpuBackend::run_gemv` (`y = xᵀ · dequant(Wq)`) vs the dequantize
    /// oracle.
    #[test]
    fn cpu_gemv_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, cols_i);
        let wq = quantize(cfg, rows, cols, seed);
        let x: Vec<f32> = (0..rows).map(|i| ((i as f32) * 0.37 + seed as f32).sin()).collect();
        let op = ComputeOp::Gemv { n: cols, k: rows, batch: 1 };
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        // Exercise the sequential path and the persistent-pool path at the
        // partition counts the serving layer will use.
        let threads = [1, 2, 4][(seed as usize) % 3];
        let (y, out) = CpuBackend::with_threads(threads)
            .run_gemv(&GpuSpec::rtx4090(), &plan, &x, &wq)
            .expect("run_gemv");
        let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
        prop_assert!(metrics::allclose(&y, &oracle, 1e-4, 1e-4), "{cfg} {rows}x{cols}");
        prop_assert!(out.us() > 0.0);
    }

    /// The decode-orientation LUT GeMV (`y = dequant(Wq) · x`) vs the
    /// dequantize oracle.
    #[test]
    fn lut_gemv_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, cols_i);
        let wq = quantize(cfg, rows, cols, seed);
        let x: Vec<f32> = (0..cols).map(|i| ((i as f32) * 0.23 + seed as f32).cos()).collect();
        let blocking = HostBlocking {
            // Exercise many slab splits, including degenerate ones.
            slab_bytes: [1usize, 1 << 10, 32 << 10][(seed as usize) % 3],
            threads: [1, 2, 4][(seed as usize) % 3],
        };
        let y = host_exec::gemv_lut(&wq, &x, &blocking).expect("gemv_lut");
        let oracle = linalg::gemv(&wq.dequantize().unwrap(), &x).unwrap();
        prop_assert!(metrics::allclose(&y, &oracle, 1e-4, 1e-4), "{cfg} {rows}x{cols}");
    }

    /// The batched LUT GeMV (`Y = dequant(Wq) · Xᵀ`, the serving-layer
    /// multi-token decode shape) vs per-column dequantize oracles, across
    /// batch sizes, slab splits, and pool partition counts.
    #[test]
    fn lut_gemv_batch_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..9,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, cols_i);
        let wq = quantize(cfg, rows, cols, seed);
        let acts = vq_llm::tensor::Tensor2D::from_fn(batch, cols, |b, c| {
            ((b * 13 + c) as f32 * 0.23 + seed as f32).cos()
        });
        let blocking = HostBlocking {
            slab_bytes: [1usize, 1 << 10, 32 << 10][(seed as usize) % 3],
            threads: [1, 2, 4][(seed as usize + 1) % 3],
        };
        let y = host_exec::gemv_lut_batch(&wq, &acts, &blocking).expect("gemv_lut_batch");
        prop_assert_eq!(y.shape(), (rows, batch));
        let w = wq.dequantize().unwrap();
        for b in 0..batch {
            let oracle = linalg::gemv(&w, acts.row(b)).unwrap();
            let col: Vec<f32> = (0..rows).map(|r| y.get(r, b)).collect();
            prop_assert!(
                metrics::allclose(&col, &oracle, 1e-4, 1e-4),
                "{} {}x{} batch {} lane {}", cfg, rows, cols, batch, b
            );
        }
    }

    /// `CpuBackend::run_gemm` (`C = A × dequant(Wq)`) vs the dequantize
    /// oracle.
    #[test]
    fn cpu_gemm_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        m in 1usize..9,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, 1);
        let wq = quantize(cfg, rows, cols, seed);
        let a = synth::gaussian(m, rows, 1.0, seed ^ 0xa5);
        let op = ComputeOp::Gemm { m, n: cols, k: rows };
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        // m in 1..9 crosses the 6-row micro-kernel boundary, and the
        // thread counts cover the column-strip pool path of the
        // panel-blocked GeMM.
        let (c, _) = CpuBackend::with_threads([1, 2, 4][(seed as usize) % 3])
            .run_gemm(&GpuSpec::rtx4090(), &plan, &a, &wq)
            .expect("run_gemm");
        let oracle = linalg::matmul(&a, &wq.dequantize().unwrap()).unwrap();
        prop_assert!(
            metrics::allclose(c.as_slice(), oracle.as_slice(), 1e-4, 1e-4),
            "{cfg} {rows}x{cols} m={m}"
        );
    }

    /// Ragged `CpuBackend::run_attention_ragged` (per-query softmax
    /// lengths over shared K/V — mask/short-seq tenants) vs looping the
    /// single-query fused path over row-truncated caches, plus the
    /// identities that make it one batched attention path on both
    /// backends: empty extensions are bitwise no extensions, and full
    /// lengths are bitwise the unmasked batch.
    #[test]
    fn ragged_attention_batch_matches_looped_single(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..6,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (seq, head_dim) = dims(rows_i, cols_i);
        let kq = quantize(cfg, seq, head_dim, seed);
        let vq = quantize(cfg, seq, head_dim, seed ^ 0x3333);
        let qs = vq_llm::tensor::Tensor2D::from_fn(batch, head_dim, |b, d| {
            ((b * 23 + d) as f32 * 0.29 + seed as f32).sin()
        });
        // Lengths spread over the whole range, always including one
        // full-length tenant so the unmasked path is co-tested.
        let lens: Vec<usize> = (0..batch)
            .map(|b| if b == 0 { seq } else { 1 + (seed as usize * 31 + b * 97) % seq })
            .collect();
        let op = ComputeOp::attention_decode(1, head_dim, seq, batch);
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        let backend = CpuBackend::with_threads([1, 2, 4][(seed as usize) % 3]);
        let gpu = GpuSpec::rtx4090();
        let (out, _) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq)
            .expect("run_attention_ragged");
        prop_assert_eq!(out.shape(), (batch, head_dim));
        let kd = kq.dequantize().unwrap();
        let vd = vq.dequantize().unwrap();
        let scale = 1.0 / (head_dim as f32).sqrt();
        for (b, &len) in lens.iter().enumerate() {
            // The looped single-query oracle: reference attention over the
            // cache truncated to this tenant's prefix.
            let oracle = linalg::attention_decode_ref(
                qs.row(b),
                &kd.slice(0, 0, len, head_dim),
                &vd.slice(0, 0, len, head_dim),
                scale,
            )
            .unwrap();
            prop_assert!(
                metrics::allclose(out.row(b), &oracle, 1e-4, 1e-4),
                "{} {}x{} lane {} len {}", cfg, seq, head_dim, b, len
            );
        }
        let no_exts = vec![RaggedExt::default(); batch];
        let model = PerfModelBackend::new();
        let backends: [&dyn Backend; 2] = [&backend, &model];
        for be in backends {
            let (ragged, _) = be
                .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq)
                .expect("run_attention_ragged");
            let (tailed, _) = be
                .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &no_exts, &kq, &vq)
                .expect("run_attention_ragged_tailed");
            prop_assert_eq!(
                tailed.as_slice(),
                ragged.as_slice(),
                "{} {} {}x{}: empty extensions changed bytes", be.name(), cfg, seq, head_dim
            );
        }
        // Full lengths are the unmasked batch kernel, bitwise, on every
        // lane.
        let (full, _) = backend
            .run_attention_batch(&gpu, &plan, &qs, &kq, &vq)
            .expect("run_attention_batch");
        let (ragged_full, _) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &vec![seq; batch], &kq, &vq)
            .expect("run_attention_ragged");
        prop_assert_eq!(full.as_slice(), ragged_full.as_slice());
    }

    /// The serving layer's replan guarantee rests on this invariant: host
    /// kernel output is **bitwise** independent of the blocking hints a
    /// plan supplies (slab budget across the full clamp range, worker
    /// partitions). A profile-shift replan only changes blocking hints,
    /// so it can never change decoded bytes.
    #[test]
    fn kernel_bytes_are_blocking_independent(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..5,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (seq, head_dim) = dims(rows_i, cols_i);
        let kq = quantize(cfg, seq, head_dim, seed);
        let vq = quantize(cfg, seq, head_dim, seed ^ 0x5a5a);
        let qs = vq_llm::tensor::Tensor2D::from_fn(batch, head_dim, |b, d| {
            ((b * 19 + d) as f32 * 0.27 + seed as f32).sin()
        });
        let a = vq_llm::tensor::Tensor2D::from_fn(batch, seq, |b, d| {
            ((b * 11 + d) as f32 * 0.17 + seed as f32).cos()
        });
        let lens: Vec<usize> = (0..batch)
            .map(|b| if b == 0 { seq } else { 1 + (seed as usize * 13 + b * 89) % seq })
            .collect();
        // The HostBlocking clamp range is [16 KiB, 256 KiB]; cover both
        // extremes, a mid-range slab, and 1/2/4 worker partitions.
        let blockings = [
            HostBlocking { slab_bytes: 16 << 10, threads: 1 },
            HostBlocking { slab_bytes: 48 << 10, threads: 2 },
            HostBlocking { slab_bytes: 256 << 10, threads: 4 },
        ];
        let base_attn =
            host_exec::attention_decode(&qs, &lens, &[], &kq, &vq, &blockings[0]).unwrap();
        let base_gemm = host_exec::gemm_fused(&a, &kq, &blockings[0]).unwrap();
        for b in &blockings[1..] {
            let attn = host_exec::attention_decode(&qs, &lens, &[], &kq, &vq, b).unwrap();
            let gemm = host_exec::gemm_fused(&a, &kq, b).unwrap();
            prop_assert_eq!(
                base_attn.as_slice(),
                attn.as_slice(),
                "attention bytes depend on blocking {:?} ({} {}x{})", b, cfg, seq, head_dim
            );
            prop_assert_eq!(
                base_gemm.as_slice(),
                gemm.as_slice(),
                "gemm bytes depend on blocking {:?} ({} {}x{})", b, cfg, seq, head_dim
            );
        }
    }

    /// `CpuBackend::run_attention_head` vs the reference decode attention.
    #[test]
    fn cpu_attention_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (seq, head_dim) = dims(rows_i, cols_i);
        let kq = quantize(cfg, seq, head_dim, seed);
        let vq = quantize(cfg, seq, head_dim, seed ^ 0x7777);
        let q: Vec<f32> = (0..head_dim).map(|i| ((i as f32) * 0.31 + seed as f32).sin()).collect();
        let op = ComputeOp::attention_decode(1, head_dim, seq, 1);
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        let (out, _) = CpuBackend::with_threads([1, 2, 4][(seed as usize) % 3])
            .run_attention_head(&GpuSpec::rtx4090(), &plan, &q, &kq, &vq)
            .expect("run_attention_head");
        let scale = 1.0 / (head_dim as f32).sqrt();
        let oracle = linalg::attention_decode_ref(
            &q,
            &kq.dequantize().unwrap(),
            &vq.dequantize().unwrap(),
            scale,
        )
        .unwrap();
        prop_assert!(metrics::allclose(&out, &oracle, 1e-4, 1e-4), "{cfg} {seq}x{head_dim}");
    }
}

/// The whole stack through the facade: a CPU-backend session executes the
/// same fused kernels and matches the oracle end to end.
#[test]
fn cpu_session_runs_fused_kernels() {
    let session = Session::builder()
        .backend_kind(BackendKind::Cpu { threads: 2 })
        .weight_algo(vq_llm::VqAlgorithm::Gptvq2)
        .build()
        .expect("valid session");
    assert_eq!(session.backend().name(), "cpu");

    let w = synth::correlated_channels(256, 64, 4, 0.9, 3);
    let wq = session.quantize_weights(&w, 11).unwrap();
    let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.13).sin()).collect();
    let plan = session
        .weight_plan(&ComputeOp::Gemv {
            n: 64,
            k: 256,
            batch: 1,
        })
        .unwrap();
    let (y, out) = session.run_gemv(&plan, &x, &wq).unwrap();
    let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
    assert!(metrics::allclose(&y, &oracle, 1e-4, 1e-4));
    assert!(out.us() > 0.0);

    // Batched decode attention through the session's backend: the CPU backend's
    // fused batch kernel vs its own per-query path.
    let kd = synth::kv_stream(320, 64, 0.8, 4);
    let vd = synth::kv_stream(320, 64, 0.8, 5);
    let kq = session.quantize_kv(&kd, 1).unwrap();
    let vq = session.quantize_kv(&vd, 2).unwrap();
    let (kv_plan, _) = session.best_kv_plan(&session.attention_op(320, 2)).unwrap();
    let qs = vq_llm::tensor::Tensor2D::from_fn(2, 64, |b, d| ((b * 7 + d) as f32 * 0.21).sin());
    let (batch_out, _) = session
        .backend()
        .run_attention_batch(session.gpu(), &kv_plan, &qs, &kq, &vq)
        .unwrap();
    assert_eq!(batch_out.shape(), (2, 64));
    for b in 0..2 {
        let (single, _) = session
            .run_attention_head(&kv_plan, qs.row(b), &kq, &vq)
            .unwrap();
        assert!(
            metrics::allclose(batch_out.row(b), &single, 1e-4, 1e-4),
            "query {b}"
        );
    }

    // The session's pipelines inherit the backend, including the real
    // execution hooks.
    let pipeline = session.pipeline(session.scheme());
    assert_eq!(pipeline.backend().name(), "cpu");
    assert!(pipeline.generate(512, 64, 4).total_ms() > 0.0);
    let acts = vq_llm::tensor::Tensor2D::from_fn(3, 256, |b, i| ((b + i) as f32 * 0.17).cos());
    let (y_batch, _) = pipeline
        .run_linear(&acts, &wq)
        .expect("pipeline run_linear");
    let oracle_b = linalg::matmul(&acts, &wq.dequantize().unwrap()).unwrap();
    assert!(metrics::allclose(
        y_batch.as_slice(),
        oracle_b.as_slice(),
        1e-4,
        1e-4
    ));

    // An explicit Arc-ed backend and the cpu_threads shortcut work the
    // same way.
    let session2 = Session::builder()
        .backend(Arc::new(CpuBackend::auto()))
        .build()
        .expect("valid session");
    assert_eq!(session2.backend().name(), "cpu");
    let session3 = Session::builder()
        .cpu_threads(0)
        .build()
        .expect("valid session");
    assert_eq!(session3.backend().name(), "cpu");
}
