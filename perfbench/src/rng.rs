//! A small seeded generator (SplitMix64) so every workload input is a pure
//! function of `--seed`, independent of any vendored RNG's stream.

/// SplitMix64: one `u64` of state, full-period, good enough for
/// workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so different inputs
    /// drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A query row: `dim` values in `[-1, 1)`.
    pub fn query(&mut self, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| (self.unit() * 2.0 - 1.0) as f32).collect()
    }

    /// `k` distinct indices from `0..n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = self.range(i, n - 1);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}
