//! Per-tenant live KV cache with online vector quantization.
//!
//! The serving layer's historical shape is teacher-forced decode over a
//! shared pre-quantized context; [`TenantKv`] is what a request owns once
//! [`KvQuantMode`] turns live KV on: every decoded output row is appended
//! as the request's next private K/V row, kept f32 inside a hot tail
//! window and **folded** into packed VQ codes once it ages out of it.
//!
//! Folding re-encodes against the *shared context's* codebooks
//! ([`SharedContext::kq`]/[`SharedContext::vq`]) — the paper's amortized
//! codebook reuse: no per-token re-clustering, and the attention kernel
//! ([`attention_decode`]) decodes extension rows from
//! tables it already holds for the context. Groups the codebooks
//! reconstruct too poorly keep their exact f32 residual in a sparse
//! outlier channel, so one pathological token cannot poison a tenant's
//! whole cache.
//!
//! The struct is also the accounting surface: it tracks the fold-time
//! reconstruction error (for [`accuracy::project_kv_accuracy`]) and
//! prices its own **compressed** footprint (packed codes + outliers +
//! tail) so admission and the byte-denominated KV budget can reason in
//! real memory instead of token counts.
//!
//! [`attention_decode`]: vqllm_kernels::host_exec::attention_decode
//! [`accuracy::project_kv_accuracy`]: crate::accuracy::project_kv_accuracy

use crate::serve::{KvQuantMode, SharedContext};
use crate::{LlmError, Result};
use vqllm_kernels::host_exec::{OutlierResidual, RaggedExt};
use vqllm_vq::{CodebookScope, CodebookSet};

/// Bytes charged per outlier beyond its `vector_size` f32 payload: the
/// `(row, group)` coordinates at `u32` each.
const OUTLIER_COORD_BYTES: usize = 8;

/// One request's private, growing KV cache: an f32 tail window of the
/// newest appended rows, with older rows folded into packed codes against
/// the shared context's codebooks plus sparse exact-residual outliers.
///
/// Constructed per admitted request when [`ServeConfig::kv_quant`] is a
/// live mode; [`TenantKv::ext`] borrows the state in the exact shape the
/// tailed attention kernel consumes.
///
/// [`ServeConfig::kv_quant`]: crate::serve::ServeConfig::kv_quant
#[derive(Debug, Clone)]
pub struct TenantKv {
    ctx: SharedContext,
    /// Rows kept f32 at the hot end (`usize::MAX` for `F32Tail`: never
    /// fold).
    tail_window: usize,
    /// Outlier threshold as a fraction of the group norm.
    outlier_keep: f32,
    /// Packed-code streams, `[residual][row * groups + g]`.
    k_codes: Vec<Vec<u32>>,
    v_codes: Vec<Vec<u32>>,
    folded_rows: usize,
    k_outliers: Vec<OutlierResidual>,
    v_outliers: Vec<OutlierResidual>,
    /// Unquantized newest rows, oldest first.
    k_tail: Vec<Vec<f32>>,
    v_tail: Vec<Vec<f32>>,
    /// Fold-time squared reconstruction error (outlier-kept groups are
    /// exact and contribute zero).
    err_sq: f64,
    /// Squared norm of everything folded (the nMSE denominator).
    data_sq: f64,
    outlier_groups: usize,
}

impl TenantKv {
    /// Creates an empty live cache for one request against `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when `mode` is
    /// [`KvQuantMode::Off`] (callers must not build live state for the
    /// teacher-forced path), when the context's K and V caches were
    /// quantized under different configurations (folding encodes one row
    /// against each and the kernel assumes one geometry), or when the
    /// scope is row-dependent ([`CodebookScope::PerTile`]) — appended
    /// rows sit past the trained tile grid, so there is no principled
    /// codebook to fold them against.
    pub fn new(ctx: &SharedContext, mode: KvQuantMode) -> Result<TenantKv> {
        let (tail_window, outlier_keep) = match mode {
            KvQuantMode::Off => {
                return Err(LlmError::InvalidConfig {
                    what: "TenantKv requires a live KV mode (F32Tail or Quantized)",
                });
            }
            KvQuantMode::F32Tail => (usize::MAX, 0.0),
            KvQuantMode::Quantized {
                tail_window,
                outlier_keep_milli,
            } => (tail_window, outlier_keep_milli as f32 / 1000.0),
        };
        if ctx.kq().config() != ctx.vq().config() {
            return Err(LlmError::InvalidConfig {
                what: "live KV requires the context's K and V caches to share one VQ config",
            });
        }
        if matches!(ctx.kq().config().scope, CodebookScope::PerTile { .. }) {
            return Err(LlmError::InvalidConfig {
                what: "live KV requires a row-invariant codebook scope \
                       (PerTensor or PerChannelGroup), not PerTile",
            });
        }
        let residuals = ctx.kq().config().residuals;
        Ok(TenantKv {
            ctx: ctx.clone(),
            tail_window,
            outlier_keep,
            k_codes: vec![Vec::new(); residuals],
            v_codes: vec![Vec::new(); residuals],
            folded_rows: 0,
            k_outliers: Vec::new(),
            v_outliers: Vec::new(),
            k_tail: Vec::new(),
            v_tail: Vec::new(),
            err_sq: 0.0,
            data_sq: 0.0,
            outlier_groups: 0,
        })
    }

    /// Appends one decoded token's K and V rows, folding the oldest tail
    /// rows into packed codes once the tail exceeds its window.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidRequest`] when a row is not `head_dim`
    /// wide.
    pub fn append(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<()> {
        let d = self.ctx.head_dim();
        if k_row.len() != d || v_row.len() != d {
            return Err(LlmError::InvalidRequest {
                what: "appended KV rows must be head_dim wide",
            });
        }
        self.k_tail.push(k_row.to_vec());
        self.v_tail.push(v_row.to_vec());
        while self.k_tail.len() > self.tail_window {
            self.fold_oldest();
        }
        Ok(())
    }

    /// Folds the oldest tail row pair into codes + outliers.
    fn fold_oldest(&mut self) {
        let k_row = self.k_tail.remove(0);
        let v_row = self.v_tail.remove(0);
        let row = self.folded_rows;
        for (vals, books, codes, outliers) in [
            (
                &k_row,
                self.ctx.kq().codebooks(),
                &mut self.k_codes,
                &mut self.k_outliers,
            ),
            (
                &v_row,
                self.ctx.vq().codebooks(),
                &mut self.v_codes,
                &mut self.v_outliers,
            ),
        ] {
            let (err, data, outs) = fold_side(vals, books, codes, outliers, row, self.outlier_keep);
            self.err_sq += err;
            self.data_sq += data;
            self.outlier_groups += outs;
        }
        self.folded_rows += 1;
    }

    /// Borrows the state as the extension the tailed attention kernel
    /// consumes.
    pub fn ext(&self) -> RaggedExt<'_> {
        RaggedExt {
            rows: self.folded_rows,
            k_codes: &self.k_codes,
            v_codes: &self.v_codes,
            k_outliers: &self.k_outliers,
            v_outliers: &self.v_outliers,
            k_tail: &self.k_tail,
            v_tail: &self.v_tail,
        }
    }

    /// Total appended tokens (folded + tail).
    pub fn len(&self) -> usize {
        self.folded_rows + self.k_tail.len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens folded into packed codes so far.
    pub fn folded_tokens(&self) -> usize {
        self.folded_rows
    }

    /// Tokens still f32 in the tail window.
    pub fn tail_len(&self) -> usize {
        self.k_tail.len()
    }

    /// Groups that kept their exact residual in the outlier channel
    /// (K and V combined).
    pub fn outlier_groups(&self) -> usize {
        self.outlier_groups
    }

    /// Normalized fold-time reconstruction MSE — squared error of the
    /// packed codes against the rows they replaced, over the folded
    /// rows' energy. Outlier-kept groups reconstruct exactly and push
    /// this **down**; an all-f32 cache (nothing folded) is 0. Feed to
    /// [`accuracy::project_kv_accuracy`].
    ///
    /// [`accuracy::project_kv_accuracy`]: crate::accuracy::project_kv_accuracy
    pub fn kv_nmse(&self) -> f64 {
        if self.data_sq <= 0.0 {
            0.0
        } else {
            self.err_sq / self.data_sq
        }
    }

    /// Raw `(err_sq, data_sq)` fold-error sums, for engine-wide
    /// aggregation across requests (summing nMSEs would weight tenants
    /// wrongly; summing the numerators and denominators does not).
    pub fn fold_error(&self) -> (f64, f64) {
        (self.err_sq, self.data_sq)
    }

    /// Current compressed footprint in bytes: packed index streams (K and
    /// V, all residual rounds, at [`VqConfig::index_bits`] per code),
    /// outlier residuals (f32 payload + coordinates), and the f32 tail.
    ///
    /// Codes are priced at their packed storage width — the format a
    /// device cache holds, mirroring how [`QuantizedTensor`] accounts its
    /// own indices; this reference substrate stages them as `u32` for
    /// decode simplicity.
    ///
    /// [`VqConfig::index_bits`]: vqllm_vq::VqConfig::index_bits
    /// [`QuantizedTensor`]: vqllm_vq::QuantizedTensor
    pub fn compressed_bytes(&self) -> usize {
        let cfg = self.ctx.kq().config();
        let bits = cfg.index_bits() as usize;
        let code_bytes: usize = self
            .k_codes
            .iter()
            .chain(&self.v_codes)
            .map(|s| (s.len() * bits).div_ceil(8))
            .sum();
        let outlier_bytes = (self.k_outliers.len() + self.v_outliers.len())
            * (cfg.vector_size * 4 + OUTLIER_COORD_BYTES);
        let tail_bytes = (self.k_tail.len() + self.v_tail.len()) * self.ctx.head_dim() * 4;
        code_bytes + outlier_bytes + tail_bytes
    }

    /// Bytes the same cache would cost fully unquantized (K and V rows at
    /// f32) — the baseline the compression gate divides by.
    pub fn f32_bytes(&self) -> usize {
        2 * self.len() * self.ctx.head_dim() * 4
    }

    /// Projected compressed footprint after `appends` total tokens,
    /// assuming no outliers fire — the admission-time lower bound priced
    /// against [`ServeConfig::kv_budget_bytes`]. The runtime budget check
    /// on the *measured* [`TenantKv::compressed_bytes`] catches requests
    /// whose outlier channel grows past the projection.
    ///
    /// [`ServeConfig::kv_budget_bytes`]: crate::serve::ServeConfig::kv_budget_bytes
    pub fn projected_bytes(&self, appends: usize) -> usize {
        let cfg = self.ctx.kq().config();
        let folded = if self.tail_window == usize::MAX {
            0
        } else {
            appends.saturating_sub(self.tail_window)
        };
        let tail = appends - folded;
        let groups = self.ctx.kq().col_groups();
        let per_stream = (folded * groups * cfg.index_bits() as usize).div_ceil(8);
        2 * cfg.residuals * per_stream + 2 * tail * self.ctx.head_dim() * 4
    }
}

/// Folds one row of one side (K or V): encodes every column group through
/// all residual rounds against `books`, pushing codes and (when the
/// leftover error norm exceeds `keep` of the group norm) an exact outlier
/// residual. Returns `(err_sq, data_sq, outlier_groups)` for the fold's
/// accounting.
fn fold_side(
    vals: &[f32],
    books: &CodebookSet,
    codes: &mut [Vec<u32>],
    outliers: &mut Vec<OutlierResidual>,
    row: usize,
    keep: f32,
) -> (f64, f64, usize) {
    let cfg = books.config();
    let vs = cfg.vector_size;
    let groups = vals.len() / vs;
    let mut recon = vec![0.0f32; vs];
    let mut err_sq = 0.0f64;
    let mut data_sq = 0.0f64;
    let mut outlier_count = 0usize;
    for g in 0..groups {
        let orig = &vals[g * vs..(g + 1) * vs];
        let mut resid = orig.to_vec();
        for (r, stream) in codes.iter_mut().enumerate() {
            let book = books.book(r, books.scope_index(0, g * vs));
            let code = book.encode(&resid);
            stream.push(code);
            book.lookup(code, &mut recon);
            for (x, &e) in resid.iter_mut().zip(&recon) {
                *x -= e;
            }
        }
        let orig_sq: f64 = orig.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        let resid_sq: f64 = resid.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        data_sq += orig_sq;
        if resid_sq > f64::from(keep) * f64::from(keep) * orig_sq {
            outliers.push(OutlierResidual {
                row,
                group: g,
                values: resid,
            });
            outlier_count += 1;
        } else {
            err_sq += resid_sq;
        }
    }
    (err_sq, data_sq, outlier_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_tensor::synth;
    use vqllm_vq::{VqConfig, VqQuantizer};

    const SEQ: usize = 48;
    const DIM: usize = 64;

    /// A small shared context cheap enough for unit tests: PerTensor
    /// scope trains on `rows × col_groups` points, so 48×16 ≥ 64 entries.
    fn ctx() -> SharedContext {
        let cfg = VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap();
        let quant = |rows: usize, seed: u64| {
            let w = synth::correlated_channels(rows, DIM, 4, 0.9, seed);
            VqQuantizer::new(cfg).quantize(&w, seed).unwrap()
        };
        SharedContext::new(quant(SEQ, 11), quant(SEQ, 12), quant(DIM, 13)).unwrap()
    }

    fn row(phase: f32) -> Vec<f32> {
        (0..DIM).map(|i| (i as f32 * phase).sin()).collect()
    }

    /// Decodes folded extension row `r` of one side back to f32.
    fn decode_row(
        codes: &[Vec<u32>],
        outliers: &[OutlierResidual],
        books: &CodebookSet,
        r: usize,
    ) -> Vec<f32> {
        let vs = books.config().vector_size;
        let groups = DIM / vs;
        let mut out = vec![0.0f32; DIM];
        for (ri, stream) in codes.iter().enumerate() {
            for g in 0..groups {
                books
                    .book(ri, books.scope_index(0, g * vs))
                    .accumulate(stream[r * groups + g], &mut out[g * vs..(g + 1) * vs]);
            }
        }
        for o in outliers.iter().filter(|o| o.row == r) {
            for (j, &v) in o.values.iter().enumerate() {
                out[o.group * vs + j] += v;
            }
        }
        out
    }

    #[test]
    fn exact_outliers_reconstruct_folded_rows_exactly() {
        let ctx = ctx();
        // keep = 0: every imperfect group holds its exact residual, so
        // folded rows must reconstruct to the appended bytes.
        let mut kv = TenantKv::new(
            &ctx,
            KvQuantMode::Quantized {
                tail_window: 2,
                outlier_keep_milli: 0,
            },
        )
        .unwrap();
        let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..5)
            .map(|i| (row(0.3 + i as f32 * 0.11), row(0.7 + i as f32 * 0.13)))
            .collect();
        for (k, v) in &rows {
            kv.append(k, v).unwrap();
        }
        assert_eq!(kv.folded_tokens(), 3);
        assert_eq!(kv.tail_len(), 2);
        assert_eq!(kv.len(), 5);
        assert_eq!(kv.kv_nmse(), 0.0, "exact outliers leave zero error");
        assert!(kv.outlier_groups() > 0);
        let ext = kv.ext();
        for (r, (krow, vrow)) in rows.iter().enumerate().take(3) {
            let kdec = decode_row(ext.k_codes, ext.k_outliers, ctx.kq().codebooks(), r);
            let vdec = decode_row(ext.v_codes, ext.v_outliers, ctx.vq().codebooks(), r);
            for (got, want) in kdec.iter().zip(krow).chain(vdec.iter().zip(vrow)) {
                assert!((got - want).abs() < 1e-5, "row {r}: {got} vs {want}");
            }
        }
        // The tail is the two newest rows, bitwise.
        assert_eq!(ext.k_tail[0], rows[3].0);
        assert_eq!(ext.v_tail[1], rows[4].1);
    }

    #[test]
    fn tail_window_controls_folding() {
        let ctx = ctx();
        let mut f32_only = TenantKv::new(&ctx, KvQuantMode::F32Tail).unwrap();
        let mut eager = TenantKv::new(
            &ctx,
            KvQuantMode::Quantized {
                tail_window: 0,
                outlier_keep_milli: u32::MAX,
            },
        )
        .unwrap();
        for i in 0..10 {
            let (k, v) = (row(0.2 + i as f32 * 0.1), row(0.5 + i as f32 * 0.1));
            f32_only.append(&k, &v).unwrap();
            eager.append(&k, &v).unwrap();
        }
        assert_eq!(f32_only.folded_tokens(), 0);
        assert_eq!(f32_only.tail_len(), 10);
        assert_eq!(f32_only.kv_nmse(), 0.0);
        assert_eq!(eager.folded_tokens(), 10);
        assert_eq!(eager.tail_len(), 0);
        // keep = MAX: no outliers, so folding leaves measurable error.
        assert_eq!(eager.outlier_groups(), 0);
        assert!(eager.kv_nmse() > 0.0);
        // ... and still compresses: well under the 0.5×f32 gate without a
        // tail or outliers (2 rounds × 6 bits / 4 elems = 3 bits/elem).
        assert!(
            (eager.compressed_bytes() as f64) < 0.5 * eager.f32_bytes() as f64,
            "{} vs {}",
            eager.compressed_bytes(),
            eager.f32_bytes()
        );
        // With no outliers the admission projection is exact.
        assert_eq!(eager.projected_bytes(10), eager.compressed_bytes());
        // The f32-only cache projects at full f32 cost.
        assert_eq!(f32_only.projected_bytes(10), f32_only.f32_bytes());
    }

    #[test]
    fn rejects_invalid_modes_and_rows() {
        let ctx = ctx();
        assert!(matches!(
            TenantKv::new(&ctx, KvQuantMode::Off),
            Err(LlmError::InvalidConfig { .. })
        ));
        let mut kv = TenantKv::new(&ctx, KvQuantMode::F32Tail).unwrap();
        assert!(matches!(
            kv.append(&[0.0; DIM - 1], &[0.0; DIM]),
            Err(LlmError::InvalidRequest { .. })
        ));
        assert!(kv.is_empty(), "failed append must not mutate");

        // PerTile scope is row-dependent: no codebook covers appended rows.
        let tile_cfg =
            VqConfig::new(4, 32, 1, CodebookScope::PerTile { rows: 16, cols: 16 }).unwrap();
        let quant = |rows: usize, seed: u64| {
            let w = synth::correlated_channels(rows, 32, 4, 0.9, seed);
            VqQuantizer::new(tile_cfg).quantize(&w, seed).unwrap()
        };
        let tiled = SharedContext::new(quant(32, 3), quant(32, 4), quant(32, 5)).unwrap();
        assert!(matches!(
            TenantKv::new(&tiled, KvQuantMode::F32Tail),
            Err(LlmError::InvalidConfig { .. })
        ));
    }
}
