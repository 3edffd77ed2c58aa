//! Performance counters.
//!
//! The exact counter set the paper's motivation study reads (Fig. 4):
//! SM utilization, shared-memory usage, shared-memory bank conflicts,
//! global→shared traffic, and shared→register traffic — plus the raw
//! quantities the timing model needs (DRAM bytes, FLOPs, integer ops,
//! shuffles, shared-memory cycles).
//!
//! Counters are plain data: kernels tally them for a representative tile,
//! then [`PerfCounters::scaled`] extrapolates to the full grid.

use std::ops::{Add, AddAssign};

/// Accumulated activity of one kernel launch (or one tile thereof).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfCounters {
    /// Bytes loaded from DRAM (includes over-fetch from poor coalescing).
    pub dram_read_bytes: f64,
    /// Bytes stored to DRAM.
    pub dram_write_bytes: f64,
    /// Subset of DRAM reads that fill shared memory (the paper's
    /// Global→Shared traffic bar).
    pub global_to_shared_bytes: f64,
    /// Bytes moved shared → registers (the paper's Shared→Reg traffic bar).
    pub shared_to_reg_bytes: f64,
    /// Bytes moved registers → shared (layout round-trips).
    pub reg_to_shared_bytes: f64,
    /// Shared-memory access cycles, *including* conflict serialization.
    pub smem_cycles: f64,
    /// Excess shared-memory cycles caused by bank conflicts.
    pub bank_conflict_cycles: f64,
    /// Floating-point operations on the FMA lanes (MAC = 2).
    pub flops: f64,
    /// Floating-point operations issued to tensor cores (`mma`), which run
    /// at `mma_multiplier ×` the FMA-lane rate.
    pub tensor_flops: f64,
    /// Integer/logic operations (index unpacking, address math, predicates).
    pub int_ops: f64,
    /// Warp shuffle instructions.
    pub shuffles: f64,
    /// Global-memory transactions issued.
    pub gmem_transactions: f64,
}

impl PerfCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters multiplied by `factor` — tile → grid extrapolation.
    pub fn scaled(&self, factor: f64) -> PerfCounters {
        PerfCounters {
            dram_read_bytes: self.dram_read_bytes * factor,
            dram_write_bytes: self.dram_write_bytes * factor,
            global_to_shared_bytes: self.global_to_shared_bytes * factor,
            shared_to_reg_bytes: self.shared_to_reg_bytes * factor,
            reg_to_shared_bytes: self.reg_to_shared_bytes * factor,
            smem_cycles: self.smem_cycles * factor,
            bank_conflict_cycles: self.bank_conflict_cycles * factor,
            flops: self.flops * factor,
            tensor_flops: self.tensor_flops * factor,
            int_ops: self.int_ops * factor,
            shuffles: self.shuffles * factor,
            gmem_transactions: self.gmem_transactions * factor,
        }
    }

    /// Total DRAM traffic (read + write).
    pub fn dram_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total shared↔register traffic, the quantity the paper's last Fig. 4
    /// bar tracks.
    pub fn shared_reg_traffic(&self) -> f64 {
        self.shared_to_reg_bytes + self.reg_to_shared_bytes
    }
}

impl Add for PerfCounters {
    type Output = PerfCounters;

    fn add(self, rhs: PerfCounters) -> PerfCounters {
        PerfCounters {
            dram_read_bytes: self.dram_read_bytes + rhs.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes + rhs.dram_write_bytes,
            global_to_shared_bytes: self.global_to_shared_bytes + rhs.global_to_shared_bytes,
            shared_to_reg_bytes: self.shared_to_reg_bytes + rhs.shared_to_reg_bytes,
            reg_to_shared_bytes: self.reg_to_shared_bytes + rhs.reg_to_shared_bytes,
            smem_cycles: self.smem_cycles + rhs.smem_cycles,
            bank_conflict_cycles: self.bank_conflict_cycles + rhs.bank_conflict_cycles,
            flops: self.flops + rhs.flops,
            tensor_flops: self.tensor_flops + rhs.tensor_flops,
            int_ops: self.int_ops + rhs.int_ops,
            shuffles: self.shuffles + rhs.shuffles,
            gmem_transactions: self.gmem_transactions + rhs.gmem_transactions,
        }
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: PerfCounters) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for PerfCounters {
    fn sum<I: Iterator<Item = PerfCounters>>(iter: I) -> PerfCounters {
        iter.fold(PerfCounters::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfCounters {
        PerfCounters {
            dram_read_bytes: 100.0,
            dram_write_bytes: 10.0,
            global_to_shared_bytes: 60.0,
            shared_to_reg_bytes: 200.0,
            reg_to_shared_bytes: 50.0,
            smem_cycles: 40.0,
            bank_conflict_cycles: 8.0,
            flops: 1000.0,
            tensor_flops: 500.0,
            int_ops: 300.0,
            shuffles: 12.0,
            gmem_transactions: 5.0,
        }
    }

    #[test]
    fn add_is_elementwise() {
        let s = sample() + sample();
        assert_eq!(s.dram_read_bytes, 200.0);
        assert_eq!(s.shuffles, 24.0);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let s = sample().scaled(3.0);
        assert_eq!(s.flops, 3000.0);
        assert_eq!(s.bank_conflict_cycles, 24.0);
    }

    #[test]
    fn derived_totals() {
        let s = sample();
        assert_eq!(s.dram_bytes(), 110.0);
        assert_eq!(s.shared_reg_traffic(), 250.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: PerfCounters = (0..4).map(|_| sample()).sum();
        assert_eq!(total.flops, 4000.0);
    }
}
