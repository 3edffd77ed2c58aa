//! The five algorithm presets of the paper's Tbl. II.

use crate::config::{CodebookScope, VqConfig};

/// State-of-the-art VQ algorithms the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VqAlgorithm {
    /// QuiP#-4: weight quantization, vector 8, 65536-entry lattice codebook
    /// (256 stored entries + sign bits), 2 residuals → 4-bit equivalent.
    QuipSharp4,
    /// AQLM-3: weight quantization, vector 8, 4096 entries (12-bit,
    /// unaligned indices), 2 residuals → 3-bit equivalent.
    Aqlm3,
    /// GPTVQ-2: weight quantization, vector 4, 256 entries, per-(256×256)
    /// tile codebooks → 2-bit equivalent.
    Gptvq2,
    /// CQ-4: KV-cache quantization, vector 2, 256 entries, per-channel-group
    /// codebooks → 4-bit equivalent.
    Cq4,
    /// CQ-2: KV-cache quantization, vector 4, 256 entries, per-channel-group
    /// codebooks → 2-bit equivalent. The motivation study's configuration
    /// (`VQ<4,8,1>`).
    Cq2,
}

impl VqAlgorithm {
    /// All presets, in the paper's Tbl. II order.
    pub const ALL: [VqAlgorithm; 5] = [
        VqAlgorithm::QuipSharp4,
        VqAlgorithm::Aqlm3,
        VqAlgorithm::Gptvq2,
        VqAlgorithm::Cq4,
        VqAlgorithm::Cq2,
    ];

    /// The weight-quantization subset (GeMM/GeMV kernels).
    pub const WEIGHT: [VqAlgorithm; 3] = [
        VqAlgorithm::QuipSharp4,
        VqAlgorithm::Aqlm3,
        VqAlgorithm::Gptvq2,
    ];

    /// The KV-cache subset (attention kernels).
    pub const KV_CACHE: [VqAlgorithm; 2] = [VqAlgorithm::Cq4, VqAlgorithm::Cq2];

    /// The [`VqConfig`] for this preset.
    ///
    /// # Panics
    ///
    /// Never panics: all presets are valid by construction.
    pub fn config(self) -> VqConfig {
        match self {
            VqAlgorithm::QuipSharp4 => {
                VqConfig::new_lattice(8, 65_536, 256, 2, CodebookScope::PerTensor)
                    .expect("preset is valid")
            }
            VqAlgorithm::Aqlm3 => {
                VqConfig::new(8, 4096, 2, CodebookScope::PerTensor).expect("preset is valid")
            }
            VqAlgorithm::Gptvq2 => VqConfig::new(
                4,
                256,
                1,
                CodebookScope::PerTile {
                    rows: 256,
                    cols: 256,
                },
            )
            .expect("preset is valid"),
            VqAlgorithm::Cq4 => {
                VqConfig::new(2, 256, 1, CodebookScope::PerChannelGroup { channels: 2 })
                    .expect("preset is valid")
            }
            VqAlgorithm::Cq2 => {
                VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 4 })
                    .expect("preset is valid")
            }
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            VqAlgorithm::QuipSharp4 => "QuiP#-4",
            VqAlgorithm::Aqlm3 => "AQLM-3",
            VqAlgorithm::Gptvq2 => "GPTVQ-2",
            VqAlgorithm::Cq4 => "CQ-4",
            VqAlgorithm::Cq2 => "CQ-2",
        }
    }

    /// Whether this algorithm quantizes weights (vs the KV cache).
    pub fn is_weight_algorithm(self) -> bool {
        matches!(
            self,
            VqAlgorithm::QuipSharp4 | VqAlgorithm::Aqlm3 | VqAlgorithm::Gptvq2
        )
    }
}

impl std::fmt::Display for VqAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_compression_ratios() {
        let expect = [
            (VqAlgorithm::QuipSharp4, 0.25),
            (VqAlgorithm::Aqlm3, 0.1875),
            (VqAlgorithm::Gptvq2, 0.125),
            (VqAlgorithm::Cq4, 0.25),
            (VqAlgorithm::Cq2, 0.125),
        ];
        for (algo, ratio) in expect {
            assert!(
                (algo.config().compression_vs_fp16() - ratio).abs() < 1e-9,
                "{algo}: {}",
                algo.config().compression_vs_fp16()
            );
        }
    }

    #[test]
    fn table_ii_parameters() {
        let quip = VqAlgorithm::QuipSharp4.config();
        assert_eq!(
            (quip.vector_size, quip.num_entries, quip.residuals),
            (8, 65536, 2)
        );
        assert!(quip.lattice);
        assert_eq!(quip.stored_entries(), 256);

        let aqlm = VqAlgorithm::Aqlm3.config();
        assert_eq!(
            (aqlm.vector_size, aqlm.num_entries, aqlm.residuals),
            (8, 4096, 2)
        );
        assert_eq!(aqlm.index_bits(), 12, "AQLM's unaligned 12-bit format");

        let gptvq = VqAlgorithm::Gptvq2.config();
        assert_eq!(
            gptvq.scope,
            CodebookScope::PerTile {
                rows: 256,
                cols: 256
            }
        );

        let cq2 = VqAlgorithm::Cq2.config();
        assert_eq!(cq2.descriptor(), "VQ<4,8,1>");
    }

    #[test]
    fn weight_vs_kv_partition() {
        for a in VqAlgorithm::ALL {
            let in_weight = VqAlgorithm::WEIGHT.contains(&a);
            let in_kv = VqAlgorithm::KV_CACHE.contains(&a);
            assert!(in_weight ^ in_kv);
            assert_eq!(a.is_weight_algorithm(), in_weight);
        }
    }
}
