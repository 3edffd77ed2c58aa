//! The codebook cache (paper §V).
//!
//! A software-managed cache that spreads codebook entries across the GPU
//! memory hierarchy by access frequency:
//!
//! * entries hotter than µ+3σ → thread-local **registers** (no banks, no
//!   conflicts);
//! * entries above the mean → **shared memory**;
//! * cold entries → left in **global memory**.
//!
//! The implementation is the paper's *reorder-based static mapping*: sort
//! entries by descending profiled frequency, rewrite the quantized indices
//! against the new order, and resolve an access with two integer compares
//! against the `n_reg` / `n_shared` boundaries — no tags, no lookup table,
//! no eviction policy.
//!
//! Boundary *sizes* come from resource **slack** (paper Fig. 10): the
//! shared memory and registers a block can consume without lowering its
//! SM residency, divided by the entry size.

use vqllm_gpu::occupancy::{BlockResources, Occupancy};
use vqllm_gpu::GpuSpec;
use vqllm_vq::stats::AccessHistogram;
use vqllm_vq::Codebook;

/// Where an entry is served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Thread-local registers (hot entries).
    Register,
    /// Shared memory (medium entries).
    Shared,
    /// Global memory (cold entries).
    Global,
}

/// The two boundaries of the reorder-based static mapping: reordered ids
/// `< n_reg` live in registers, `< n_shared` in shared memory, the rest in
/// global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CachePlacement {
    /// First boundary: entries `[0, n_reg)` are register-resident.
    pub n_reg: usize,
    /// Second boundary: entries `[n_reg, n_shared)` are shared-resident.
    pub n_shared: usize,
}

impl CachePlacement {
    /// Everything in global memory (the GC baseline).
    pub fn global_only() -> Self {
        CachePlacement {
            n_reg: 0,
            n_shared: 0,
        }
    }

    /// Everything in shared memory (the greedy SC baseline), up to
    /// `stored` entries.
    pub fn all_shared(stored: usize) -> Self {
        CachePlacement {
            n_reg: 0,
            n_shared: stored,
        }
    }

    /// The paper's adaptive placement: boundaries = slack ÷ entry size,
    /// with the register boundary additionally capped by the number of
    /// profiled hot entries (caching lukewarm entries in registers buys
    /// nothing and burns slack).
    pub fn from_slack(
        stored: usize,
        entry_bytes: usize,
        smem_slack_bytes: usize,
        reg_slack_bytes_per_thread: usize,
        num_hot: usize,
        use_registers: bool,
    ) -> Self {
        let n_reg = if use_registers {
            (reg_slack_bytes_per_thread / entry_bytes.max(1))
                .min(num_hot)
                .min(stored)
        } else {
            0
        };
        let n_shared_extra = (smem_slack_bytes / entry_bytes.max(1)).min(stored - n_reg);
        CachePlacement {
            n_reg,
            n_shared: n_reg + n_shared_extra,
        }
    }

    /// Level of reordered entry `new_id` under these boundaries — the two
    /// index comparisons of the paper's runtime dequantization.
    pub fn level_of(&self, new_id: usize) -> CacheLevel {
        if new_id < self.n_reg {
            CacheLevel::Register
        } else if new_id < self.n_shared {
            CacheLevel::Shared
        } else {
            CacheLevel::Global
        }
    }

    /// Shared-memory bytes the placement consumes.
    pub fn smem_bytes(&self, entry_bytes: usize) -> usize {
        (self.n_shared - self.n_reg) * entry_bytes
    }

    /// Register bytes per thread the placement consumes.
    pub fn reg_bytes_per_thread(&self, entry_bytes: usize) -> usize {
        self.n_reg * entry_bytes
    }
}

/// Resource slack available to the codebook cache (paper Fig. 10's blue
/// region), derived from the occupancy analysis of the *compute* block
/// shape before any codebook is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Shared-memory bytes consumable for free.
    pub smem_slack_bytes: usize,
    /// Register bytes per thread consumable for free.
    pub reg_slack_bytes_per_thread: usize,
}

impl CacheBudget {
    /// Strict budget: slack at the *current* residency (no occupancy loss
    /// whatsoever).
    pub fn from_occupancy(gpu: &GpuSpec, block: &BlockResources) -> Self {
        let occ = Occupancy::analyze(gpu, block);
        CacheBudget {
            smem_slack_bytes: occ.smem_slack_bytes,
            reg_slack_bytes_per_thread: occ.reg_slack_per_thread * 4,
        }
    }

    /// The paper's Fig. 10 budget: slack measured against the *most
    /// performant* residency (the circle marker), not the maximum one.
    /// Throughput saturates once enough warps are resident to hide memory
    /// latency; any blocks beyond that are free to trade for codebook
    /// space.
    pub fn performance_slack(gpu: &GpuSpec, block: &BlockResources) -> Self {
        let occ = Occupancy::analyze(gpu, block);
        if occ.blocks_per_sm == 0 {
            return CacheBudget {
                smem_slack_bytes: 0,
                reg_slack_bytes_per_thread: 0,
            };
        }
        let warps_per_block = block.threads.div_ceil(32).max(1);
        let blocks_needed = (gpu.warps_to_hide_memory.ceil() as usize)
            .div_ceil(warps_per_block)
            .clamp(1, occ.blocks_per_sm);

        let smem_budget = (gpu.smem_per_sm / blocks_needed).min(gpu.max_smem_per_block);
        let smem_slack_bytes = smem_budget.saturating_sub(block.smem_bytes);

        let regs_per_warp_budget = gpu.regs_per_sm / (blocks_needed * warps_per_block);
        let regs_per_thread_budget =
            regs_per_warp_budget / gpu.reg_alloc_granularity * gpu.reg_alloc_granularity / 32;
        // CUDA caps a thread at 255 registers.
        let regs_per_thread_budget = regs_per_thread_budget.min(255);
        let reg_slack = regs_per_thread_budget.saturating_sub(block.regs_per_thread);

        CacheBudget {
            smem_slack_bytes,
            reg_slack_bytes_per_thread: reg_slack * 4,
        }
    }
}

/// A loaded codebook cache: the frequency-reordered codebook plus the
/// old→new index remap and the placement boundaries.
///
/// This is the `Load` / `Access` surface of the paper's §V-C API; `Switch`
/// is represented by constructing a cache per scope and swapping between
/// them (the kernels account the reload traffic).
#[derive(Debug, Clone)]
pub struct CodebookCache {
    book: Codebook,
    remap: Vec<u32>,
    placement: CachePlacement,
}

impl CodebookCache {
    /// `Load`: reorders `book` by the descending frequencies in `hist` and
    /// installs `placement` boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `hist` does not cover exactly the book's stored entries.
    pub fn load(book: &Codebook, hist: &AccessHistogram, placement: CachePlacement) -> Self {
        assert_eq!(
            hist.counts().len(),
            book.stored_entries(),
            "histogram must cover the codebook"
        );
        let perm = hist.sort_permutation(); // new position -> old id
        let mut remap = vec![0u32; perm.len()]; // old id -> new id
        for (new_pos, &old_id) in perm.iter().enumerate() {
            remap[old_id as usize] = new_pos as u32;
        }
        CodebookCache {
            book: book.reordered(&perm),
            remap,
            placement,
        }
    }

    /// `Access`: materializes the entry for an *original* logical id into
    /// `out` and reports which memory level served it.
    ///
    /// For lattice books only the stored (base) part of the id is remapped;
    /// the sign bits pass through untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != vector_size` or the id is out of range.
    pub fn access(&self, old_logical_id: u32, out: &mut [f32]) -> CacheLevel {
        let old_stored = self.book.stored_id_of(old_logical_id);
        let new_stored = self.remap[old_stored as usize];
        let new_logical = if self.book.is_lattice() {
            let sign_shift = self.book.stored_entries().trailing_zeros();
            (old_logical_id >> sign_shift) << sign_shift | new_stored
        } else {
            new_stored
        };
        self.book.lookup(new_logical, out);
        self.placement.level_of(new_stored as usize)
    }

    /// Level the (original) logical id would be served from, without
    /// materializing it.
    pub fn level_of(&self, old_logical_id: u32) -> CacheLevel {
        let old_stored = self.book.stored_id_of(old_logical_id);
        self.placement
            .level_of(self.remap[old_stored as usize] as usize)
    }

    /// The reordered codebook (what a generated kernel embeds).
    pub fn reordered_book(&self) -> &Codebook {
        &self.book
    }

    /// The old→new stored-id remap (what the quantized indices are
    /// rewritten with).
    pub fn remap(&self) -> &[u32] {
        &self.remap
    }

    /// Placement boundaries.
    pub fn placement(&self) -> CachePlacement {
        self.placement
    }

    /// Entry size in FP16 bytes.
    pub fn entry_bytes(&self) -> usize {
        self.book.vector_size() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_vq::stats::AccessHistogram;

    fn book() -> Codebook {
        // 8 entries × 2 dims, entry i = [i, -i].
        Codebook::new(
            (0..8).flat_map(|i| [i as f32, -(i as f32)]).collect(),
            2,
            false,
        )
        .unwrap()
    }

    fn hist() -> AccessHistogram {
        // Entry 5 hottest, then 2, then 7; rest cold.
        AccessHistogram::from_counts(vec![1, 0, 50, 2, 3, 100, 1, 20])
    }

    #[test]
    fn placement_boundaries_partition() {
        let p = CachePlacement {
            n_reg: 2,
            n_shared: 5,
        };
        assert_eq!(p.level_of(0), CacheLevel::Register);
        assert_eq!(p.level_of(1), CacheLevel::Register);
        assert_eq!(p.level_of(2), CacheLevel::Shared);
        assert_eq!(p.level_of(4), CacheLevel::Shared);
        assert_eq!(p.level_of(5), CacheLevel::Global);
        assert_eq!(p.smem_bytes(4), 12);
        assert_eq!(p.reg_bytes_per_thread(4), 8);
    }

    #[test]
    fn from_slack_respects_hot_cap_and_budget() {
        // 16-byte entries, 64 B smem slack → 4 shared entries; 64 B reg
        // slack → 4, but only 2 hot.
        let p = CachePlacement::from_slack(32, 16, 64, 64, 2, true);
        assert_eq!(p.n_reg, 2);
        assert_eq!(p.n_shared, 2 + 4);
        let p = CachePlacement::from_slack(32, 16, 64, 64, 2, false);
        assert_eq!(p.n_reg, 0);
    }

    #[test]
    fn from_slack_never_exceeds_stored() {
        let p = CachePlacement::from_slack(4, 2, 1 << 20, 1 << 20, 100, true);
        assert_eq!(p.n_reg, 4);
        assert_eq!(p.n_shared, 4);
    }

    #[test]
    fn access_returns_same_values_as_uncached_book() {
        let b = book();
        let cache = CodebookCache::load(
            &b,
            &hist(),
            CachePlacement {
                n_reg: 1,
                n_shared: 4,
            },
        );
        let mut got = [0.0f32; 2];
        let mut want = [0.0f32; 2];
        for id in 0..8u32 {
            b.lookup(id, &mut want);
            cache.access(id, &mut got);
            assert_eq!(got, want, "entry {id} must survive reordering");
        }
    }

    #[test]
    fn hottest_entry_is_register_resident() {
        let cache = CodebookCache::load(
            &book(),
            &hist(),
            CachePlacement {
                n_reg: 1,
                n_shared: 4,
            },
        );
        // Entry 5 has the top count → new id 0 → register.
        assert_eq!(cache.level_of(5), CacheLevel::Register);
        // Entry 2 is second → shared.
        assert_eq!(cache.level_of(2), CacheLevel::Shared);
        // Entry 1 (count 0) is last → global.
        assert_eq!(cache.level_of(1), CacheLevel::Global);
    }

    #[test]
    fn gc_and_sc_extremes() {
        let gc = CodebookCache::load(&book(), &hist(), CachePlacement::global_only());
        let sc = CodebookCache::load(&book(), &hist(), CachePlacement::all_shared(8));
        for id in 0..8u32 {
            assert_eq!(gc.level_of(id), CacheLevel::Global);
            assert_eq!(sc.level_of(id), CacheLevel::Shared);
        }
    }

    #[test]
    fn lattice_ids_remap_base_only() {
        // 4 stored entries × 2 dims, lattice.
        let b = Codebook::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 2, true).unwrap();
        let h = AccessHistogram::from_counts(vec![5, 100, 1, 2]);
        let cache = CodebookCache::load(
            &b,
            &h,
            CachePlacement {
                n_reg: 1,
                n_shared: 2,
            },
        );
        // Logical id: signs(0b01) << 2 | base 1 → entry [−3, 4].
        let mut got = [0.0f32; 2];
        let lvl = cache.access(0b01_01, &mut got);
        assert_eq!(got, [-3.0, 4.0]);
        // Base 1 is the hottest → register, regardless of sign bits.
        assert_eq!(lvl, CacheLevel::Register);
    }

    #[test]
    fn budget_reads_occupancy_slack() {
        let gpu = GpuSpec::rtx4090();
        // 18 KB of data staging: 5 blocks fit per 100 KB SM, leaving 2 KB
        // of shared-memory slack per block.
        let b = CacheBudget::from_occupancy(&gpu, &BlockResources::new(256, 32, 18 * 1024));
        assert!(b.smem_slack_bytes > 0);
        assert!(b.reg_slack_bytes_per_thread > 0);
    }
}
