//! VQ configuration: the `VQ<vector_size, log2 #entry, residual>` triple of
//! the paper's Tbl. I, plus the codebook *scope* (which part of the tensor
//! each codebook is trained on — the property §III-C identifies as the
//! source of the traffic/conflict trade-off differences between QuiP#,
//! AQLM, GPTVQ and CQ).

use crate::{Result, VqError};

/// Which slice of a tensor shares one codebook (per residual level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodebookScope {
    /// One codebook for the whole tensor (QuiP#, AQLM). No duplicated
    /// Global→Shared traffic, but large per-block footprint.
    PerTensor,
    /// One codebook per `rows × cols` tile (GPTVQ trains per (256, 256)
    /// weight tile).
    PerTile {
        /// Tile height in tensor rows.
        rows: usize,
        /// Tile width in tensor columns.
        cols: usize,
    },
    /// One codebook per group of `channels` consecutive columns, trained
    /// across all rows/tokens (CQ couples channels; Fig. 11 shows one
    /// codebook per 4 channels of a head).
    PerChannelGroup {
        /// Channels (columns) per codebook.
        channels: usize,
    },
}

/// A full VQ algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VqConfig {
    /// Elements quantized at once (paper: *vector size*).
    pub vector_size: usize,
    /// Number of codebook entries (paper: *#Entry*).
    pub num_entries: usize,
    /// Residual quantization rounds (paper: *Residual*; 1 = no residual).
    pub residuals: usize,
    /// Which tensor slice shares a codebook.
    pub scope: CodebookScope,
    /// Lattice-style codebook (QuiP#): `num_entries` logical entries are
    /// synthesized from `lattice_base` stored entries plus per-element sign
    /// bits, so only `lattice_base` entries are ever *looked up* (Tbl. II
    /// footnote).
    pub lattice: bool,
    /// Stored entries when `lattice` is set (256 for QuiP#).
    pub lattice_base: usize,
}

impl VqConfig {
    /// Creates a plain (non-lattice) configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VqError::InvalidConfig`] when a field is zero, the entry
    /// count is not a power of two, or the scope is inconsistent with the
    /// vector size.
    pub fn new(
        vector_size: usize,
        num_entries: usize,
        residuals: usize,
        scope: CodebookScope,
    ) -> Result<Self> {
        let cfg = VqConfig {
            vector_size,
            num_entries,
            residuals,
            scope,
            lattice: false,
            lattice_base: 0,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Creates a lattice configuration (QuiP#-style): `num_entries` logical
    /// entries synthesized from `lattice_base` stored ones.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VqConfig::new`], plus `lattice_base` must be a
    /// power of two no larger than `num_entries`.
    pub fn new_lattice(
        vector_size: usize,
        num_entries: usize,
        lattice_base: usize,
        residuals: usize,
        scope: CodebookScope,
    ) -> Result<Self> {
        let cfg = VqConfig {
            vector_size,
            num_entries,
            residuals,
            scope,
            lattice: true,
            lattice_base,
        };
        cfg.validate()?;
        if !lattice_base.is_power_of_two() || lattice_base > num_entries {
            return Err(VqError::InvalidConfig {
                what: "lattice_base",
                value: lattice_base,
            });
        }
        // The logical entry space must exactly equal the index space:
        // every index is `log2 num_entries` bits wide and decodes as
        // (sign mask << log2 lattice_base) | base id, so
        // num_entries = lattice_base × 2^vector_size or some packed
        // indices would dereference out of range (or be unreachable).
        if num_entries != lattice_base << vector_size {
            return Err(VqError::InvalidConfig {
                what: "lattice num_entries (must be lattice_base << vector_size)",
                value: num_entries,
            });
        }
        Ok(cfg)
    }

    fn validate(&self) -> Result<()> {
        if self.vector_size == 0 {
            return Err(VqError::InvalidConfig {
                what: "vector_size",
                value: 0,
            });
        }
        if self.residuals == 0 {
            return Err(VqError::InvalidConfig {
                what: "residuals",
                value: 0,
            });
        }
        if !self.num_entries.is_power_of_two() || self.num_entries < 2 {
            return Err(VqError::InvalidConfig {
                what: "num_entries (must be a power of two ≥ 2)",
                value: self.num_entries,
            });
        }
        if let CodebookScope::PerChannelGroup { channels } = self.scope {
            if channels == 0 || channels % self.vector_size != 0 {
                return Err(VqError::InvalidConfig {
                    what: "channel group (must be a positive multiple of vector_size)",
                    value: channels,
                });
            }
        }
        if let CodebookScope::PerTile { rows, cols } = self.scope {
            if rows == 0 || cols == 0 || cols % self.vector_size != 0 {
                return Err(VqError::InvalidConfig {
                    what: "tile shape (cols must be a multiple of vector_size)",
                    value: cols,
                });
            }
        }
        Ok(())
    }

    /// Bits per stored index (`log2 #entry`).
    pub fn index_bits(&self) -> u32 {
        self.num_entries.trailing_zeros()
    }

    /// Equivalent bits per original element:
    /// `index_bits × residuals / vector_size`.
    ///
    /// ```
    /// use vqllm_vq::{CodebookScope, VqConfig};
    /// // CQ-2: VQ<4, 2^8, 1> → 2 bits/element = 12.5 % of FP16.
    /// let cq2 = VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 4 }).unwrap();
    /// assert_eq!(cq2.equivalent_bits(), 2.0);
    /// ```
    pub fn equivalent_bits(&self) -> f64 {
        f64::from(self.index_bits()) * self.residuals as f64 / self.vector_size as f64
    }

    /// Compression ratio against FP16 (Tbl. II's first column).
    pub fn compression_vs_fp16(&self) -> f64 {
        self.equivalent_bits() / 16.0
    }

    /// Entries that are physically stored and looked up per codebook
    /// (differs from `num_entries` only for lattice codebooks).
    pub fn stored_entries(&self) -> usize {
        if self.lattice {
            self.lattice_base
        } else {
            self.num_entries
        }
    }

    /// Bytes of one stored codebook at FP16 entry precision.
    pub fn codebook_bytes(&self) -> usize {
        self.stored_entries() * self.vector_size * 2 * self.residuals
    }

    /// Bytes of a single codebook entry at FP16 precision.
    pub fn entry_bytes(&self) -> usize {
        self.vector_size * 2
    }

    /// Packed index bytes for quantizing an `rows × cols` tensor.
    pub fn index_bytes(&self, rows: usize, cols: usize) -> usize {
        let vectors = rows * cols / self.vector_size;
        (vectors * self.index_bits() as usize * self.residuals).div_ceil(8)
    }

    /// Short `VQ<x,y,z>` descriptor as used throughout the paper.
    pub fn descriptor(&self) -> String {
        format!(
            "VQ<{},{},{}>",
            self.vector_size,
            self.index_bits(),
            self.residuals
        )
    }
}

impl std::fmt::Display for VqConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_bits_match_table_ii() {
        let quip = VqConfig::new_lattice(8, 65536, 256, 2, CodebookScope::PerTensor).unwrap();
        assert_eq!(quip.equivalent_bits(), 4.0);
        assert_eq!(quip.compression_vs_fp16(), 0.25);

        let aqlm = VqConfig::new(8, 4096, 2, CodebookScope::PerTensor).unwrap();
        assert_eq!(aqlm.equivalent_bits(), 3.0);
        assert!((aqlm.compression_vs_fp16() - 0.1875).abs() < 1e-12);

        let gptvq = VqConfig::new(
            4,
            256,
            1,
            CodebookScope::PerTile {
                rows: 256,
                cols: 256,
            },
        )
        .unwrap();
        assert_eq!(gptvq.equivalent_bits(), 2.0);

        let cq4 = VqConfig::new(2, 256, 1, CodebookScope::PerChannelGroup { channels: 2 }).unwrap();
        assert_eq!(cq4.equivalent_bits(), 4.0);

        let cq2 = VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 4 }).unwrap();
        assert_eq!(cq2.equivalent_bits(), 2.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(VqConfig::new(0, 256, 1, CodebookScope::PerTensor).is_err());
        assert!(VqConfig::new(4, 255, 1, CodebookScope::PerTensor).is_err());
        assert!(VqConfig::new(4, 256, 0, CodebookScope::PerTensor).is_err());
        assert!(VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 6 }).is_err());
        assert!(VqConfig::new(4, 256, 1, CodebookScope::PerTile { rows: 0, cols: 256 }).is_err());
        assert!(VqConfig::new_lattice(8, 65536, 300, 2, CodebookScope::PerTensor).is_err());
        // Index space must equal the logical entry space: 16 << 2 = 64
        // logical entries but 8-bit (256-value) indices.
        assert!(VqConfig::new_lattice(2, 256, 16, 1, CodebookScope::PerTensor).is_err());
    }

    #[test]
    fn lattice_stores_base_entries_only() {
        let quip = VqConfig::new_lattice(8, 65536, 256, 2, CodebookScope::PerTensor).unwrap();
        assert_eq!(quip.stored_entries(), 256);
        // Tbl. V: QuiP# codebook ≈ 2 KB per block... 256 entries × 8 × 2 B
        // per residual slice.
        assert_eq!(quip.codebook_bytes(), 256 * 8 * 2 * 2);
    }

    #[test]
    fn index_bytes_packs_tightly() {
        // AQLM-3: 12-bit indices, 2 residuals over 8-wide vectors.
        let aqlm = VqConfig::new(8, 4096, 2, CodebookScope::PerTensor).unwrap();
        // 16 elements = 2 vectors = 2 × 12 × 2 bits = 48 bits = 6 bytes.
        assert_eq!(aqlm.index_bytes(1, 16), 6);
    }

    #[test]
    fn descriptor_matches_paper_notation() {
        let cq2 = VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 4 }).unwrap();
        assert_eq!(cq2.descriptor(), "VQ<4,8,1>");
    }
}
