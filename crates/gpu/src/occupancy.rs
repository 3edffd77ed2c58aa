//! Occupancy and resource-slack analysis (paper Fig. 10).
//!
//! The codebook cache's adaptive placement hinges on *slack*: the shared
//! memory and registers a block can consume **without** reducing the number
//! of blocks resident per SM. This module computes occupancy the way the
//! CUDA occupancy calculator does (min over four limiters) and derives the
//! slack from the binding limiter.

use crate::device::GpuSpec;

/// Per-block resource appetite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockResources {
    /// Threads per block (multiple of the warp size in practice).
    pub threads: usize,
    /// Registers per thread.
    pub regs_per_thread: usize,
    /// Static + dynamic shared memory per block, bytes.
    pub smem_bytes: usize,
}

impl BlockResources {
    /// Creates a block-resource description.
    pub fn new(threads: usize, regs_per_thread: usize, smem_bytes: usize) -> Self {
        BlockResources {
            threads,
            regs_per_thread,
            smem_bytes,
        }
    }
}

/// Result of occupancy analysis for one block shape on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: usize,
    /// Resident warps per SM.
    pub warps_per_sm: usize,
    /// Fraction of the SM's maximum resident threads that are occupied.
    pub occupancy: f64,
    /// Which resource is the binding limiter.
    pub limiter: Limiter,
    /// Extra shared-memory bytes each block could take without reducing
    /// `blocks_per_sm` (the blue region of paper Fig. 10).
    pub smem_slack_bytes: usize,
    /// Extra registers per thread each block could take without reducing
    /// `blocks_per_sm`.
    pub reg_slack_per_thread: usize,
}

/// The resource that caps residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Limiter {
    /// Thread count per SM.
    Threads,
    /// Register file capacity.
    Registers,
    /// Shared-memory capacity.
    SharedMemory,
    /// Block-slot count.
    BlockSlots,
    /// The block cannot run at all (exceeds a per-block limit).
    None,
}

impl Occupancy {
    /// Runs the occupancy calculation for `block` on `gpu`.
    ///
    /// Mirrors the CUDA occupancy calculator: residency is the minimum of
    /// the thread-, register-, shared-memory- and block-slot-limited block
    /// counts. Registers are allocated per warp at the device granularity.
    pub fn analyze(gpu: &GpuSpec, block: &BlockResources) -> Occupancy {
        if block.threads == 0
            || block.threads > gpu.max_threads_per_sm
            || block.smem_bytes > gpu.max_smem_per_block
        {
            return Occupancy {
                blocks_per_sm: 0,
                warps_per_sm: 0,
                occupancy: 0.0,
                limiter: Limiter::None,
                smem_slack_bytes: 0,
                reg_slack_per_thread: 0,
            };
        }

        let warps_per_block = block.threads.div_ceil(32);
        let regs_per_warp = round_up(block.regs_per_thread * 32, gpu.reg_alloc_granularity);
        let regs_per_block = (regs_per_warp * warps_per_block).max(1);

        let by_threads = gpu.max_threads_per_sm / block.threads;
        let by_regs = gpu.regs_per_sm / regs_per_block;
        let by_smem = gpu
            .smem_per_sm
            .checked_div(block.smem_bytes)
            .unwrap_or(usize::MAX);
        let by_slots = gpu.max_blocks_per_sm;

        let blocks = by_threads.min(by_regs).min(by_smem).min(by_slots);
        if blocks == 0 {
            return Occupancy {
                blocks_per_sm: 0,
                warps_per_sm: 0,
                occupancy: 0.0,
                limiter: Limiter::None,
                smem_slack_bytes: 0,
                reg_slack_per_thread: 0,
            };
        }

        let limiter = if blocks == by_threads {
            Limiter::Threads
        } else if blocks == by_slots {
            Limiter::BlockSlots
        } else if blocks == by_regs {
            Limiter::Registers
        } else {
            Limiter::SharedMemory
        };

        // Slack: the most a block can grow each resource while the same
        // number of blocks still fits (paper Fig. 10's blue region).
        let smem_budget_per_block = (gpu.smem_per_sm / blocks).min(gpu.max_smem_per_block);
        let smem_slack = smem_budget_per_block.saturating_sub(block.smem_bytes);

        let reg_budget_per_block = gpu.regs_per_sm / blocks;
        let reg_budget_per_warp = reg_budget_per_block / warps_per_block;
        // Invert the granularity rounding: largest per-thread count whose
        // rounded per-warp allocation still fits the budget.
        let reg_budget_per_thread = round_down(reg_budget_per_warp, gpu.reg_alloc_granularity) / 32;
        let reg_slack = reg_budget_per_thread.saturating_sub(block.regs_per_thread);

        Occupancy {
            blocks_per_sm: blocks,
            warps_per_sm: blocks * warps_per_block,
            occupancy: (blocks * block.threads) as f64 / gpu.max_threads_per_sm as f64,
            limiter,
            smem_slack_bytes: smem_slack,
            reg_slack_per_thread: reg_slack,
        }
    }
}

fn round_up(v: usize, g: usize) -> usize {
    v.div_ceil(g) * g
}

fn round_down(v: usize, g: usize) -> usize {
    v / g * g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec::rtx4090()
    }

    #[test]
    fn small_block_is_slot_or_thread_limited() {
        // 128 threads, tiny footprint: 1536/128 = 12 blocks by threads,
        // slots allow 24 → threads bind first.
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(128, 16, 0));
        assert_eq!(occ.blocks_per_sm, 12);
        assert_eq!(occ.limiter, Limiter::Threads);
        assert!((occ.occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smem_heavy_block_is_smem_limited() {
        // 48 KB per block on a 100 KB SM → 2 blocks.
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(128, 16, 48 * 1024));
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
        // Slack: budget/block = 50 KB, minus current 48 KB.
        assert_eq!(occ.smem_slack_bytes, 2 * 1024);
    }

    #[test]
    fn reg_heavy_block_is_register_limited() {
        // 255 regs/thread × 256 threads ≈ 65 K regs → 1 block.
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(256, 255, 0));
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limiter, Limiter::Registers);
    }

    #[test]
    fn oversized_block_cannot_run() {
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(2048, 16, 0));
        assert_eq!(occ.blocks_per_sm, 0);
        assert_eq!(occ.limiter, Limiter::None);
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(128, 16, 100 * 1024));
        assert_eq!(occ.blocks_per_sm, 0);
    }

    #[test]
    fn smem_slack_vanishes_at_cliff_edge() {
        // Exactly 50 KB/block: 2 blocks fit, zero smem slack.
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(128, 16, 50 * 1024));
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.smem_slack_bytes, 0);
    }

    #[test]
    fn consuming_slack_does_not_change_residency() {
        // Fig. 10's contract: growing by the reported slack keeps
        // blocks_per_sm constant; growing past it drops residency.
        let base = BlockResources::new(256, 32, 20 * 1024);
        let occ = Occupancy::analyze(&gpu(), &base);
        assert!(occ.blocks_per_sm > 0);

        let grown = BlockResources::new(256, 32, base.smem_bytes + occ.smem_slack_bytes);
        let occ2 = Occupancy::analyze(&gpu(), &grown);
        assert_eq!(occ.blocks_per_sm, occ2.blocks_per_sm);

        if grown.smem_bytes < gpu().max_smem_per_block {
            let over = BlockResources::new(256, 32, grown.smem_bytes + 1);
            let occ3 = Occupancy::analyze(&gpu(), &over);
            assert!(occ3.blocks_per_sm < occ.blocks_per_sm);
        }
    }

    #[test]
    fn register_slack_respects_granularity() {
        let base = BlockResources::new(256, 32, 0);
        let occ = Occupancy::analyze(&gpu(), &base);
        let grown = BlockResources::new(256, 32 + occ.reg_slack_per_thread, 0);
        let occ2 = Occupancy::analyze(&gpu(), &grown);
        assert_eq!(occ.blocks_per_sm, occ2.blocks_per_sm);
    }

    #[test]
    fn warps_per_sm_counts_blocks() {
        let occ = Occupancy::analyze(&gpu(), &BlockResources::new(256, 32, 32 * 1024));
        assert_eq!(occ.warps_per_sm, occ.blocks_per_sm * 8);
    }
}
