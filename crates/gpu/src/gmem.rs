//! Global-memory coalescing model.
//!
//! Global loads/stores are serviced in 128-byte transactions (the L1 line).
//! A warp touching `n` distinct lines costs `n` transactions regardless of
//! how few bytes each lane wants — this is why the paper's VQ-attn-GC
//! version, which chases random codebook entries in global memory, sees only
//! a 12.45 % L1 hit rate and wastes most of each line it pulls.

use crate::device::GpuSpec;
use crate::warp::WARP_SIZE;

/// Model of global-memory access granularity.
#[derive(Debug, Clone)]
pub struct GlobalMemoryModel {
    line: usize,
}

/// Outcome of a warp-wide global access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmemAccess {
    /// 128-byte transactions issued.
    pub transactions: usize,
    /// Bytes actually moved over DRAM (transactions × line).
    pub dram_bytes: usize,
    /// Bytes the warp asked for (useful bytes).
    pub useful_bytes: usize,
}

impl GmemAccess {
    /// Fraction of moved bytes that were requested (1.0 = perfectly
    /// coalesced).
    pub fn efficiency(&self) -> f64 {
        if self.dram_bytes == 0 {
            return 1.0;
        }
        self.useful_bytes as f64 / self.dram_bytes as f64
    }
}

impl GlobalMemoryModel {
    /// Creates a coalescing model from a device spec.
    pub fn new(gpu: &GpuSpec) -> Self {
        GlobalMemoryModel {
            line: gpu.gmem_transaction_bytes,
        }
    }

    /// Creates a model with an explicit line size (tests).
    pub fn with_line(line: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        GlobalMemoryModel { line }
    }

    /// Simulates one warp access: each active lane touches `elem_bytes`
    /// bytes at its byte address (`None` = inactive lane; at most
    /// [`WARP_SIZE`] lanes).
    ///
    /// Allocation-free: each lane covers one run of lines, and the
    /// transactions are the lines in the union of those runs, counted by
    /// sorting the runs on a stack array.
    pub fn warp_access(&self, addrs: &[Option<usize>], elem_bytes: usize) -> GmemAccess {
        assert!(elem_bytes > 0);
        assert!(
            addrs.len() <= WARP_SIZE,
            "a warp has at most {WARP_SIZE} lanes"
        );
        let mut runs = [(0usize, 0usize); WARP_SIZE];
        let mut n = 0;
        for addr in addrs.iter().flatten() {
            runs[n] = (addr / self.line, (addr + elem_bytes - 1) / self.line);
            n += 1;
        }
        let runs = &mut runs[..n];
        runs.sort_unstable();
        let mut lines = 0usize;
        // One past the highest line counted so far.
        let mut covered = 0usize;
        for &(first, last) in runs.iter() {
            let start = first.max(covered);
            if last >= start {
                lines += last - start + 1;
                covered = last + 1;
            }
        }
        GmemAccess {
            transactions: lines,
            dram_bytes: lines * self.line,
            useful_bytes: n * elem_bytes,
        }
    }

    /// Convenience: all 32 lanes active.
    pub fn warp_access_full(&self, addrs: &[usize; 32], elem_bytes: usize) -> GmemAccess {
        self.warp_access(&addrs.map(Some), elem_bytes)
    }

    /// Transactions for a perfectly-contiguous block copy of `bytes`
    /// starting at an aligned address (streaming loads of weights/KV).
    pub fn contiguous_bytes(&self, bytes: usize) -> GmemAccess {
        let transactions = bytes.div_ceil(self.line);
        GmemAccess {
            transactions,
            dram_bytes: transactions * self.line,
            useful_bytes: bytes,
        }
    }

    /// Transaction (line) size in bytes.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Expected DRAM traffic for `accesses` random entry fetches (each
    /// `entry_bytes`) out of a working set of `working_set_bytes`, given an
    /// L1 of `l1_bytes`.
    ///
    /// Models the paper's VQ-attn-GC pathology: random sub-line accesses
    /// whose working set exceeds L1 capture almost no temporal locality
    /// (they measured a 12.45 % hit rate). The hit-rate estimate is simply
    /// the resident fraction of the working set, capped below 1 so cold
    /// misses always cost something.
    pub fn random_cached_access(
        &self,
        accesses: usize,
        entry_bytes: usize,
        working_set_bytes: usize,
        l1_bytes: usize,
    ) -> GmemAccess {
        if accesses == 0 {
            return GmemAccess {
                transactions: 0,
                dram_bytes: 0,
                useful_bytes: 0,
            };
        }
        let hit_rate = if working_set_bytes == 0 {
            0.95
        } else {
            (l1_bytes as f64 / working_set_bytes as f64).min(0.95)
        };
        // Every access asks for entry_bytes but a miss drags a full line.
        let lines_per_access = entry_bytes.div_ceil(self.line).max(1);
        let misses = accesses as f64 * (1.0 - hit_rate);
        let transactions = (misses * lines_per_access as f64).ceil() as usize;
        GmemAccess {
            transactions,
            dram_bytes: transactions * self.line,
            useful_bytes: accesses * entry_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> GlobalMemoryModel {
        GlobalMemoryModel::with_line(128)
    }

    /// The original allocating replay (a `Vec` of distinct lines), kept
    /// as the oracle for the run-union implementation.
    fn warp_access_oracle(
        m: &GlobalMemoryModel,
        addrs: &[Option<usize>],
        elem_bytes: usize,
    ) -> GmemAccess {
        let mut lines: Vec<usize> = Vec::with_capacity(32);
        let mut useful = 0usize;
        for addr in addrs.iter().flatten() {
            useful += elem_bytes;
            let first = addr / m.line;
            let last = (addr + elem_bytes - 1) / m.line;
            for l in first..=last {
                if !lines.contains(&l) {
                    lines.push(l);
                }
            }
        }
        GmemAccess {
            transactions: lines.len(),
            dram_bytes: lines.len() * m.line,
            useful_bytes: useful,
        }
    }

    proptest! {
        /// The run-union count is bit-for-bit the allocating distinct-line
        /// count over lane masks, clustered and scattered addresses,
        /// elements narrower and wider than a line, and line sizes.
        #[test]
        fn warp_access_matches_allocating_oracle(
            lanes in prop::collection::vec((any::<bool>(), 0usize..4096), 0..33),
            spread in prop::sample::select(vec![1usize, 8, 100, 4096]),
            elem_bytes in 1usize..600,
            line in prop::sample::select(vec![16usize, 32, 64, 128, 256]),
        ) {
            let addrs: Vec<Option<usize>> = lanes
                .iter()
                .map(|&(on, a)| on.then_some(a * spread))
                .collect();
            let m = GlobalMemoryModel::with_line(line);
            prop_assert_eq!(
                m.warp_access(&addrs, elem_bytes),
                warp_access_oracle(&m, &addrs, elem_bytes)
            );
        }
    }

    #[test]
    fn coalesced_fp32_warp_is_one_transaction() {
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 4);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.transactions, 1);
        assert!((a.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scattered_access_touches_many_lines() {
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 4096);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.transactions, 32);
        assert!(a.efficiency() < 0.05);
    }

    #[test]
    fn straddling_elements_count_both_lines() {
        let addrs = [Some(124usize)]; // 8-byte element crossing the 128 line
        let a = model().warp_access(&addrs, 8);
        assert_eq!(a.transactions, 2);
    }

    #[test]
    fn contiguous_rounds_up() {
        let a = model().contiguous_bytes(300);
        assert_eq!(a.transactions, 3);
        assert_eq!(a.dram_bytes, 384);
        assert_eq!(a.useful_bytes, 300);
    }

    #[test]
    fn random_codebook_fetch_has_low_efficiency() {
        // 256 entries × 8 bytes scattered over 2 KB: a warp of random
        // fetches touches many distinct lines.
        let addrs: [usize; 32] = std::array::from_fn(|i| ((i * 37 + 5) % 256) * 8);
        let a = model().warp_access_full(&addrs, 8);
        assert!(a.efficiency() < 0.5, "efficiency {}", a.efficiency());
    }
}
