//! Shared-memory bank-conflict model.
//!
//! NVIDIA shared memory is interleaved across 32 banks of 4-byte words. A
//! warp's access completes in one cycle only if no two threads touch
//! *different words in the same bank* (same-word accesses broadcast). VQ
//! dequantization indexes codebook entries essentially at random, and an
//! entry of `vector_size` FP16 elements spans multiple words — both effects
//! the paper calls out in §III ("the number of codebook entries vastly
//! exceeds the number of shared memory banks … a single codebook entry can
//! occupy multiple banks").
//!
//! [`SharedMemoryModel::warp_access`] returns the serialized cycle count for
//! one warp access pattern; the excess over the conflict-free count is what
//! the paper's "bank conflict" counter reports.

use crate::device::GpuSpec;
use crate::warp::WARP_SIZE;

/// Model of one SM's shared memory banking.
#[derive(Debug, Clone)]
pub struct SharedMemoryModel {
    banks: usize,
    bank_width: usize,
}

/// Outcome of a single warp-wide shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpAccess {
    /// Cycles the access serializes into (1 = conflict-free).
    pub cycles: usize,
    /// Extra cycles beyond conflict-free (the bank-conflict counter).
    pub conflict_cycles: usize,
    /// Bytes moved.
    pub bytes: usize,
}

impl SharedMemoryModel {
    /// Creates a bank model from a device spec.
    pub fn new(gpu: &GpuSpec) -> Self {
        SharedMemoryModel {
            banks: gpu.smem_banks,
            bank_width: gpu.bank_width,
        }
    }

    /// Creates a bank model directly (useful in tests).
    pub fn with_banks(banks: usize, bank_width: usize) -> Self {
        assert!(banks > 0 && bank_width > 0);
        SharedMemoryModel { banks, bank_width }
    }

    /// Simulates one warp access where each active lane reads/writes
    /// `elem_bytes` bytes starting at its byte address in `addrs`
    /// (`None` = inactive lane; at most [`WARP_SIZE`] lanes).
    ///
    /// Accesses wider than one bank word are issued as consecutive word
    /// accesses (this is how a `float4`/multi-word entry fetch behaves and
    /// is what makes large VQ entries conflict-prone).
    ///
    /// Allocation-free: the replay runs on fixed-size stack arrays, since
    /// the perf model calls it for every sampled warp of every estimate.
    pub fn warp_access(&self, addrs: &[Option<usize>], elem_bytes: usize) -> WarpAccess {
        assert!(elem_bytes > 0, "element size must be positive");
        assert!(
            addrs.len() <= WARP_SIZE,
            "a warp has at most {WARP_SIZE} lanes"
        );
        let words_per_elem = elem_bytes.div_ceil(self.bank_width);
        let mut total_cycles = 0usize;
        let mut bytes = 0usize;
        let mut words = [0usize; WARP_SIZE];
        let mut banks = [0usize; WARP_SIZE];

        // Each word-offset within the element is a separate warp transaction.
        for w in 0..words_per_elem {
            // The distinct words requested this transaction.
            let mut n = 0;
            for addr in addrs.iter().flatten() {
                let word = addr / self.bank_width + w;
                if !words[..n].contains(&word) {
                    words[n] = word;
                    n += 1;
                }
                bytes += self.bank_width.min(elem_bytes - w * self.bank_width);
            }
            if n > 0 {
                // The transaction serializes into as many cycles as the
                // busiest bank has distinct words: the longest run of
                // equal banks once sorted.
                for (bank, word) in banks.iter_mut().zip(&words[..n]) {
                    *bank = word % self.banks;
                }
                let banks = &mut banks[..n];
                banks.sort_unstable();
                let mut cycles = 1;
                let mut run = 1;
                for pair in banks.windows(2) {
                    run = if pair[0] == pair[1] { run + 1 } else { 1 };
                    cycles = cycles.max(run);
                }
                total_cycles += cycles;
            }
        }

        let ideal = words_per_elem;
        WarpAccess {
            cycles: total_cycles,
            conflict_cycles: total_cycles.saturating_sub(ideal),
            bytes,
        }
    }

    /// Convenience: all 32 lanes active.
    pub fn warp_access_full(&self, addrs: &[usize; 32], elem_bytes: usize) -> WarpAccess {
        self.warp_access(&addrs.map(Some), elem_bytes)
    }

    /// Number of banks in the model.
    pub fn banks(&self) -> usize {
        self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> SharedMemoryModel {
        SharedMemoryModel::with_banks(32, 4)
    }

    /// The original allocating replay (a `Vec` of word lists per bank),
    /// kept as the oracle for the stack-array implementation.
    fn warp_access_oracle(
        m: &SharedMemoryModel,
        addrs: &[Option<usize>],
        elem_bytes: usize,
    ) -> WarpAccess {
        let words_per_elem = elem_bytes.div_ceil(m.bank_width);
        let mut total_cycles = 0usize;
        let mut bytes = 0usize;
        for w in 0..words_per_elem {
            let mut per_bank: Vec<Vec<usize>> = vec![Vec::new(); m.banks];
            let mut any = false;
            for addr in addrs.iter().flatten() {
                let word = addr / m.bank_width + w;
                let bank = word % m.banks;
                if !per_bank[bank].contains(&word) {
                    per_bank[bank].push(word);
                }
                any = true;
                bytes += m.bank_width.min(elem_bytes - w * m.bank_width);
            }
            if any {
                let cycles = per_bank.iter().map(Vec::len).max().unwrap_or(0).max(1);
                total_cycles += cycles;
            }
        }
        WarpAccess {
            cycles: total_cycles,
            conflict_cycles: total_cycles.saturating_sub(words_per_elem),
            bytes,
        }
    }

    proptest! {
        /// The stack-array replay is bit-for-bit the allocating one over
        /// lane masks, clustered and scattered addresses, element sizes
        /// that do and do not divide the bank word, and bank geometries.
        #[test]
        fn warp_access_matches_allocating_oracle(
            lanes in prop::collection::vec((any::<bool>(), 0usize..4096), 0..33),
            spread in prop::sample::select(vec![1usize, 8, 64, 4096]),
            elem_bytes in 1usize..40,
            banks in prop::sample::select(vec![1usize, 2, 7, 16, 32, 64]),
            bank_width in prop::sample::select(vec![1usize, 2, 4, 8]),
        ) {
            let addrs: Vec<Option<usize>> = lanes
                .iter()
                .map(|&(on, a)| on.then_some(a * spread))
                .collect();
            let m = SharedMemoryModel::with_banks(banks, bank_width);
            prop_assert_eq!(
                m.warp_access(&addrs, elem_bytes),
                warp_access_oracle(&m, &addrs, elem_bytes)
            );
        }
    }

    #[test]
    fn sequential_words_are_conflict_free() {
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 4);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.cycles, 1);
        assert_eq!(a.conflict_cycles, 0);
        assert_eq!(a.bytes, 32 * 4);
    }

    #[test]
    fn same_word_broadcasts() {
        let addrs: [usize; 32] = [0; 32];
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.cycles, 1, "same-word access broadcasts");
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        // Stride of 2 words: lanes 0 and 16 hit bank 0 with different words.
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 8);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.cycles, 2);
        assert_eq!(a.conflict_cycles, 1);
    }

    #[test]
    fn stride_32_serializes_fully() {
        // All lanes hit bank 0 with 32 distinct words → 32-way conflict.
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 32 * 4);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.cycles, 32);
        assert_eq!(a.conflict_cycles, 31);
    }

    #[test]
    fn wide_elements_issue_multiple_transactions() {
        // 8-byte entries at consecutive 8-byte addresses: two word
        // transactions, each 2-way-conflicted... actually lanes i at word
        // 2i → banks 0,2,4,… lane 16 wraps to bank 0 with a different word.
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 8);
        let a = model().warp_access_full(&addrs, 8);
        assert_eq!(a.bytes, 32 * 8);
        // Two transactions minimum, each 2-way serialized → 4 cycles.
        assert_eq!(a.cycles, 4);
        assert_eq!(a.conflict_cycles, 2);
    }

    #[test]
    fn random_codebook_access_conflicts_heavily() {
        // Deterministic pseudo-random entry ids over 256 entries of 8 bytes:
        // expect noticeably more than the ideal 2 cycles.
        let addrs: [usize; 32] = std::array::from_fn(|i| ((i * 97 + 13) % 256) * 8);
        let a = model().warp_access_full(&addrs, 8);
        assert!(a.conflict_cycles > 0, "random wide access should conflict");
    }

    #[test]
    fn inactive_lanes_do_not_conflict() {
        let mut addrs: Vec<Option<usize>> = vec![None; 32];
        addrs[0] = Some(0);
        addrs[1] = Some(32 * 4); // same bank, different word, but only 2 lanes
        let a = model().warp_access(&addrs, 4);
        assert_eq!(a.cycles, 2);
        let b = model().warp_access(&vec![None; 32], 4);
        assert_eq!(b.cycles, 0);
        assert_eq!(b.bytes, 0);
    }
}
