//! Element-wise (scalar) quantization baselines.
//!
//! The comparison targets of the paper's Fig. 2 and Fig. 16/17: group-wise
//! uniform integer quantization in the style of AWQ (weights, 4-bit,
//! group 128, asymmetric) and QoQ's KV4 (per-head 4-bit KV cache). These
//! treat every element independently — the Cartesian-product grid whose
//! corners never land on correlated-data outliers.

use crate::{Result, VqError};
use vqllm_tensor::Tensor2D;

/// Group-wise uniform integer quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalarQuantConfig {
    /// Bits per element (4 for AWQ/QoQ's weight & KV formats).
    pub bits: u32,
    /// Elements per scale group (128 in AWQ).
    pub group_size: usize,
    /// Asymmetric (scale + zero point) vs symmetric (scale only).
    pub asymmetric: bool,
}

impl ScalarQuantConfig {
    /// AWQ-style 4-bit weight quantization: group 128, asymmetric.
    pub fn awq4() -> Self {
        ScalarQuantConfig {
            bits: 4,
            group_size: 128,
            asymmetric: true,
        }
    }

    /// QoQ-style 4-bit KV quantization: per-64-element groups, asymmetric.
    pub fn qoq_kv4() -> Self {
        ScalarQuantConfig {
            bits: 4,
            group_size: 64,
            asymmetric: true,
        }
    }

    /// Equivalent bits per element including scale overhead (FP16 scale +
    /// optional zero point per group).
    pub fn equivalent_bits(&self) -> f64 {
        let meta_bits = if self.asymmetric { 32.0 } else { 16.0 };
        self.bits as f64 + meta_bits / self.group_size as f64
    }
}

/// A scalar-quantized tensor: packed levels plus per-group scale/zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarQuantized {
    config: ScalarQuantConfig,
    shape: (usize, usize),
    levels: Vec<u16>,
    scales: Vec<f32>,
    zeros: Vec<f32>,
}

/// Quantizes `tensor` group-wise along rows.
///
/// # Errors
///
/// Returns [`VqError::InvalidConfig`] for zero `bits`/`group_size` or
/// `bits > 8`.
pub fn quantize(tensor: &Tensor2D, config: ScalarQuantConfig) -> Result<ScalarQuantized> {
    if config.bits == 0 || config.bits > 8 {
        return Err(VqError::InvalidConfig {
            what: "scalar bits",
            value: config.bits as usize,
        });
    }
    if config.group_size == 0 {
        return Err(VqError::InvalidConfig {
            what: "scalar group size",
            value: 0,
        });
    }
    let (rows, cols) = tensor.shape();
    let qmax = (1u32 << config.bits) - 1;
    let mut levels = Vec::with_capacity(rows * cols);
    let mut scales = Vec::new();
    let mut zeros = Vec::new();

    for row in tensor.iter_rows() {
        for group in row.chunks(config.group_size) {
            let (lo, hi) = group
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let (scale, zero) = if config.asymmetric {
                let scale = (hi - lo).max(1e-12) / qmax as f32;
                (scale, lo)
            } else {
                let m = hi.abs().max(lo.abs()).max(1e-12);
                let scale = 2.0 * m / qmax as f32;
                (scale, -m)
            };
            scales.push(scale);
            zeros.push(zero);
            for &v in group {
                let q = ((v - zero) / scale).round().clamp(0.0, qmax as f32) as u16;
                levels.push(q);
            }
        }
    }

    Ok(ScalarQuantized {
        config,
        shape: (rows, cols),
        levels,
        scales,
        zeros,
    })
}

impl ScalarQuantized {
    /// Dequantizes back to a dense tensor.
    pub fn dequantize(&self) -> Tensor2D {
        let (rows, cols) = self.shape;
        let gs = self.config.group_size;
        let groups_per_row = cols.div_ceil(gs);
        Tensor2D::from_fn(rows, cols, |r, c| {
            let g = r * groups_per_row + c / gs;
            self.zeros[g] + self.levels[r * cols + c] as f32 * self.scales[g]
        })
    }

    /// The configuration used.
    pub fn config(&self) -> &ScalarQuantConfig {
        &self.config
    }

    /// Packed payload bytes: levels at `bits` each plus FP16 scale(+zero)
    /// per group.
    pub fn compressed_bytes(&self) -> usize {
        let level_bytes = (self.levels.len() * self.config.bits as usize).div_ceil(8);
        let meta = if self.config.asymmetric { 4 } else { 2 };
        level_bytes + self.scales.len() * meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_tensor::{metrics, synth};

    #[test]
    fn roundtrip_error_is_bounded_by_step() {
        let t = synth::gaussian(32, 128, 1.0, 1);
        let q = quantize(&t, ScalarQuantConfig::awq4()).unwrap();
        let r = q.dequantize();
        // Max error ≤ half a quantization step per group; with range ~±4σ
        // and 15 levels the step is < 1.0.
        let max = metrics::max_abs_diff(t.as_slice(), r.as_slice());
        assert!(max < 0.5, "max err {max}");
    }

    #[test]
    fn more_bits_reduce_error() {
        let t = synth::gaussian(16, 128, 1.0, 3);
        let e4 = {
            let q = quantize(
                &t,
                ScalarQuantConfig {
                    bits: 4,
                    group_size: 64,
                    asymmetric: true,
                },
            )
            .unwrap();
            metrics::mse_tensor(&t, &q.dequantize())
        };
        let e8 = {
            let q = quantize(
                &t,
                ScalarQuantConfig {
                    bits: 8,
                    group_size: 64,
                    asymmetric: true,
                },
            )
            .unwrap();
            metrics::mse_tensor(&t, &q.dequantize())
        };
        assert!(e8 < e4 / 10.0, "e8 {e8} vs e4 {e4}");
    }

    #[test]
    fn symmetric_mode_centers_zero() {
        let t = Tensor2D::from_vec(1, 4, vec![-1.0, -0.5, 0.5, 1.0]).unwrap();
        let q = quantize(
            &t,
            ScalarQuantConfig {
                bits: 4,
                group_size: 4,
                asymmetric: false,
            },
        )
        .unwrap();
        let r = q.dequantize();
        assert!(metrics::max_abs_diff(t.as_slice(), r.as_slice()) < 0.15);
    }

    #[test]
    fn outliers_blow_up_group_error() {
        // One outlier stretches the group's range, coarsening everything —
        // the weakness Fig. 2 illustrates.
        let clean = synth::gaussian(1, 128, 0.1, 5);
        let mut dirty = clean.clone();
        dirty.set(0, 0, 10.0);
        let cfg = ScalarQuantConfig {
            bits: 4,
            group_size: 128,
            asymmetric: true,
        };
        let e_clean = metrics::mse_tensor(&clean, &quantize(&clean, cfg).unwrap().dequantize());
        let e_dirty = {
            let q = quantize(&dirty, cfg).unwrap().dequantize();
            // Error on the non-outlier elements only.
            metrics::mse(&dirty.as_slice()[1..], &q.as_slice()[1..])
        };
        assert!(e_dirty > 20.0 * e_clean, "dirty {e_dirty} clean {e_clean}");
    }

    #[test]
    fn equivalent_bits_include_metadata() {
        let awq = ScalarQuantConfig::awq4();
        assert!((awq.equivalent_bits() - 4.25).abs() < 1e-9);
    }

    #[test]
    fn compressed_bytes_accounting() {
        let t = synth::gaussian(4, 128, 1.0, 9);
        let q = quantize(&t, ScalarQuantConfig::awq4()).unwrap();
        // 512 elements × 4 bits = 256 B + 4 groups × 4 B = 272.
        assert_eq!(q.compressed_bytes(), 256 + 16);
    }

    #[test]
    fn rejects_invalid_config() {
        let t = synth::gaussian(2, 8, 1.0, 1);
        assert!(quantize(
            &t,
            ScalarQuantConfig {
                bits: 0,
                group_size: 8,
                asymmetric: true
            }
        )
        .is_err());
        assert!(quantize(
            &t,
            ScalarQuantConfig {
                bits: 9,
                group_size: 8,
                asymmetric: true
            }
        )
        .is_err());
        assert!(quantize(
            &t,
            ScalarQuantConfig {
                bits: 4,
                group_size: 0,
                asymmetric: true
            }
        )
        .is_err());
    }
}
