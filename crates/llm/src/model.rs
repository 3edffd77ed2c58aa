//! Llama model configurations.

/// Architecture of a Llama-family model (the paper evaluates 7B and 65B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlamaConfig {
    /// Model name for reports.
    pub name: &'static str,
    /// Hidden dimension.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Channels per head (`hidden / heads`).
    pub head_dim: usize,
    /// Decoder layers.
    pub layers: usize,
    /// MLP intermediate dimension.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Context window: the largest sequence the KV cache may grow to.
    /// Growth past this is a configuration error, not an extrapolation
    /// ([`KvCache::append_token`](crate::KvCache::append_token)).
    pub max_seq: usize,
}

impl LlamaConfig {
    /// Llama-7B: 32 heads × 128, hidden 4096, 32 layers, intermediate
    /// 11008.
    pub fn llama_7b() -> Self {
        LlamaConfig {
            name: "Llama-7B",
            hidden: 4096,
            heads: 32,
            head_dim: 128,
            layers: 32,
            intermediate: 11008,
            vocab: 32000,
            max_seq: 2048,
        }
    }

    /// Llama-65B: 64 heads × 128, hidden 8192, 80 layers, intermediate
    /// 22016.
    pub fn llama_65b() -> Self {
        LlamaConfig {
            name: "Llama-65B",
            hidden: 8192,
            heads: 64,
            head_dim: 128,
            layers: 80,
            intermediate: 22016,
            vocab: 32000,
            max_seq: 2048,
        }
    }

    /// Weight parameter count of one decoder layer (attention + MLP).
    pub fn params_per_layer(&self) -> usize {
        // Q, K, V, O projections + gate/up/down MLP weights.
        4 * self.hidden * self.hidden + 3 * self.hidden * self.intermediate
    }

    /// Total decoder parameters (excluding embeddings).
    pub fn decoder_params(&self) -> usize {
        self.params_per_layer() * self.layers
    }

    /// FP16 bytes of all decoder weights.
    pub fn weight_bytes_fp16(&self) -> usize {
        self.decoder_params() * 2
    }

    /// FP16 bytes of the KV cache at `seq` tokens and `batch` samples.
    pub fn kv_bytes_fp16(&self, seq: usize, batch: usize) -> usize {
        2 * batch * self.layers * self.heads * seq * self.head_dim * 2
    }

    /// The linear-layer shapes of one decoder layer as (n, k) pairs for
    /// decode-phase GeMV.
    pub fn linear_shapes(&self) -> [(usize, usize); 7] {
        [
            (self.hidden, self.hidden),       // Q
            (self.hidden, self.hidden),       // K
            (self.hidden, self.hidden),       // V
            (self.hidden, self.hidden),       // O
            (self.intermediate, self.hidden), // gate
            (self.intermediate, self.hidden), // up
            (self.hidden, self.intermediate), // down
        ]
    }
}

impl std::fmt::Display for LlamaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama7b_is_about_7b_params() {
        let cfg = LlamaConfig::llama_7b();
        let total = cfg.decoder_params() + 2 * cfg.vocab * cfg.hidden;
        assert!((6.4e9..7.2e9).contains(&(total as f64)), "params {total}");
        assert_eq!(cfg.heads * cfg.head_dim, cfg.hidden);
    }

    #[test]
    fn llama65b_is_about_65b_params() {
        let cfg = LlamaConfig::llama_65b();
        let total = cfg.decoder_params() + 2 * cfg.vocab * cfg.hidden;
        assert!((6.2e10..6.8e10).contains(&(total as f64)), "params {total}");
    }

    #[test]
    fn fp16_weights_exceed_22_gb_is_false_for_7b() {
        // Paper §VII-E: "the FP16 baseline consumes over 22 GB" — that is
        // weights (13.5 GB) + KV cache at batch 16 (8.6 GB) + activations.
        let cfg = LlamaConfig::llama_7b();
        let weights = cfg.weight_bytes_fp16() as f64 / 1e9;
        let kv = cfg.kv_bytes_fp16(1024 + 256, 16) as f64 / 1e9;
        assert!(weights > 12.0 && weights < 14.0, "{weights}");
        assert!(weights + kv > 20.0, "total {}", weights + kv);
    }

    #[test]
    fn linear_shapes_cover_all_params() {
        let cfg = LlamaConfig::llama_7b();
        let sum: usize = cfg.linear_shapes().iter().map(|(n, k)| n * k).sum();
        assert_eq!(sum, cfg.params_per_layer());
    }
}
