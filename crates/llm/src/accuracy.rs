//! Accuracy proxy (documented substitution, DESIGN.md §5).
//!
//! We cannot run arc-challenge through a real 7B checkpoint on this
//! substrate, but the paper's accuracy claim — VQ at a given bit-width
//! reconstructs better than element-wise quantization, so task accuracy
//! follows — reduces to reconstruction quality, which we *can* measure
//! exactly. The proxy quantizes synthetic correlated weight and KV tensors
//! under each scheme, computes normalized MSE, and maps it through a
//! monotone accuracy model calibrated to the paper's Fig. 17 (right):
//! FP16 ≈ 45.4 %, VQ-LLM-4 slightly above, qServe-4 ≈ 2.5 % (relative)
//! below.

use crate::pipeline::QuantScheme;
use vqllm_tensor::{metrics, synth, Tensor2D};
use vqllm_vq::scalar::{self, ScalarQuantConfig};
use vqllm_vq::{VqAlgorithm, VqQuantizer};

/// arc-challenge accuracy of the FP16 baseline (paper Fig. 17 right).
pub const FP16_ACCURACY: f64 = 0.454;

/// Sensitivity of task accuracy to weight reconstruction error
/// (calibrated so qServe-4's measured nMSE lands ≈ 1.1 points below FP16).
const WEIGHT_SENSITIVITY: f64 = 0.55;

/// Sensitivity to KV reconstruction error (attention is more tolerant).
const KV_SENSITIVITY: f64 = 0.25;

/// Projects task accuracy from a **live-KV** reconstruction error alone
/// (weights and the shared context taken as exact): the serving layer's
/// online KV quantization measures its fold-time nMSE and threads it
/// through the same calibrated sensitivity the offline proxy uses, so
/// online and offline numbers sit on one scale.
pub fn project_kv_accuracy(kv_nmse: f64) -> f64 {
    FP16_ACCURACY * (1.0 - KV_SENSITIVITY * kv_nmse.max(0.0))
}

/// Measured reconstruction errors and the projected accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResult {
    /// Normalized weight-reconstruction MSE (MSE / data variance).
    pub weight_nmse: f64,
    /// Normalized KV-reconstruction MSE.
    pub kv_nmse: f64,
    /// Projected arc-challenge accuracy.
    pub accuracy: f64,
}

/// The accuracy-proxy evaluator.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyProxy {
    seed: u64,
}

impl AccuracyProxy {
    /// Creates a proxy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        AccuracyProxy { seed }
    }

    /// Evaluates a scheme: quantizes synthetic correlated weight and KV
    /// tensors, measures nMSE, projects accuracy.
    pub fn evaluate(&self, scheme: &QuantScheme) -> AccuracyResult {
        let weights = synth::correlated_channels(192, 256, 8, 0.85, self.seed);
        let kv = synth::kv_stream(512, 128, 0.85, self.seed ^ 0xabcd);

        let (weight_nmse, kv_nmse) = match scheme {
            QuantScheme::Fp16 => (0.0, 0.0),
            QuantScheme::QServe4 => (
                scalar_nmse(&weights, ScalarQuantConfig::awq4()),
                scalar_nmse(&kv, ScalarQuantConfig::qoq_kv4()),
            ),
            QuantScheme::VqLlm {
                weight,
                kv: kv_algo,
                ..
            } => (
                vq_nmse(&weights, *weight, self.seed),
                vq_nmse(&kv, *kv_algo, self.seed ^ 1),
            ),
        };

        let accuracy =
            FP16_ACCURACY * (1.0 - WEIGHT_SENSITIVITY * weight_nmse - KV_SENSITIVITY * kv_nmse);
        AccuracyResult {
            weight_nmse,
            kv_nmse,
            accuracy,
        }
    }
}

impl Default for AccuracyProxy {
    fn default() -> Self {
        AccuracyProxy::new(2024)
    }
}

fn variance(t: &Tensor2D) -> f64 {
    let n = t.len() as f64;
    let mean = t.as_slice().iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    t.as_slice()
        .iter()
        .map(|&v| (f64::from(v) - mean).powi(2))
        .sum::<f64>()
        / n
}

fn scalar_nmse(t: &Tensor2D, cfg: ScalarQuantConfig) -> f64 {
    let q = scalar::quantize(t, cfg).expect("valid scalar config");
    metrics::mse_tensor(t, &q.dequantize()) / variance(t).max(1e-12)
}

fn vq_nmse(t: &Tensor2D, algo: VqAlgorithm, seed: u64) -> f64 {
    let q = VqQuantizer::new(algo.config())
        .quantize(t, seed)
        .expect("synthetic tensor shapes fit all presets");
    metrics::mse_tensor(t, &q.dequantize().expect("dequantize")) / variance(t).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_is_lossless() {
        let r = AccuracyProxy::default().evaluate(&QuantScheme::Fp16);
        assert_eq!(r.weight_nmse, 0.0);
        assert!((r.accuracy - FP16_ACCURACY).abs() < 1e-12);
    }

    #[test]
    fn four_bit_vq_beats_qserve_on_reconstruction() {
        // The paper's central accuracy claim at matched bit-width.
        let proxy = AccuracyProxy::default();
        let vq = proxy.evaluate(&QuantScheme::vq_llm_4bit());
        let qserve = proxy.evaluate(&QuantScheme::QServe4);
        assert!(
            vq.accuracy > qserve.accuracy,
            "VQ {} !> qServe {}",
            vq.accuracy,
            qserve.accuracy
        );
    }

    #[test]
    fn accuracies_are_plausible_fractions() {
        let proxy = AccuracyProxy::default();
        for scheme in [
            QuantScheme::Fp16,
            QuantScheme::QServe4,
            QuantScheme::vq_llm_4bit(),
            QuantScheme::vq_llm_2bit(),
        ] {
            let r = proxy.evaluate(&scheme);
            assert!(
                (0.30..=0.46).contains(&r.accuracy),
                "{:?} → {}",
                scheme,
                r.accuracy
            );
        }
    }

    #[test]
    fn two_bit_costs_accuracy() {
        let proxy = AccuracyProxy::default();
        let v4 = proxy.evaluate(&QuantScheme::vq_llm_4bit());
        let v2 = proxy.evaluate(&QuantScheme::vq_llm_2bit());
        assert!(v2.accuracy < v4.accuracy);
    }
}
