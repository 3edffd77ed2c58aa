//! Device specifications.
//!
//! Two presets match the paper's testbeds: the NVIDIA GeForce RTX 4090
//! (AD102, the primary device) and the Tesla A40 (GA102, the
//! bandwidth-constrained device of §VII-E, "67 % of the memory bandwidth of
//! the RTX 4090").

use crate::occupancy::{BlockResources, Occupancy};

/// Static description of a CUDA-like GPU.
///
/// Only parameters the performance model consumes are included; everything
/// is public-datasheet material.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Register allocation granularity per warp (registers are handed out in
    /// chunks; 256/warp on recent parts).
    pub reg_alloc_granularity: usize,
    /// Usable shared memory per SM, bytes.
    pub smem_per_sm: usize,
    /// Maximum shared memory a single block may request, bytes.
    pub max_smem_per_block: usize,
    /// Shared-memory banks (32 on every NVIDIA part since Kepler).
    pub smem_banks: usize,
    /// Bank word width in bytes (4).
    pub bank_width: usize,
    /// Global-memory transaction size in bytes (L1 line, 128).
    pub gmem_transaction_bytes: usize,
    /// L1 data-cache capacity per SM, bytes (shares silicon with shared
    /// memory; used to model the paper's 12.45 % hit rate for
    /// global-resident codebooks).
    pub l1_bytes: usize,
    /// Peak DRAM bandwidth, GB/s.
    pub dram_bw_gbps: f64,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// FP32/FP16 FMA lanes per SM (each does 2 FLOPs/cycle).
    pub fma_lanes_per_sm: usize,
    /// Throughput multiplier for tensor-core (`mma`) FLOPs relative to the
    /// FMA lanes (≈4× for FP16 on Ada/Ampere).
    pub mma_multiplier: f64,
    /// Integer/logic lanes per SM (index unpack, address math).
    pub int_lanes_per_sm: usize,
    /// Shared-memory bytes a warp can move per cycle per SM
    /// (32 banks × 4 B).
    pub smem_bytes_per_cycle: usize,
    /// Warps needed per SM to hide compute-pipeline latency.
    pub warps_to_hide_compute: f64,
    /// Warps needed per SM to saturate DRAM bandwidth.
    pub warps_to_hide_memory: f64,
    /// Fixed kernel-launch overhead, microseconds.
    pub launch_overhead_us: f64,
}

impl GpuSpec {
    /// NVIDIA GeForce RTX 4090 (AD102) — the paper's primary device.
    pub fn rtx4090() -> Self {
        GpuSpec {
            name: "NVIDIA GeForce RTX 4090".to_string(),
            num_sms: 128,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 24,
            regs_per_sm: 65_536,
            reg_alloc_granularity: 256,
            smem_per_sm: 100 * 1024,
            max_smem_per_block: 99 * 1024,
            smem_banks: 32,
            bank_width: 4,
            gmem_transaction_bytes: 128,
            l1_bytes: 128 * 1024,
            dram_bw_gbps: 1008.0,
            clock_ghz: 2.52,
            fma_lanes_per_sm: 128,
            mma_multiplier: 4.0,
            int_lanes_per_sm: 64,
            smem_bytes_per_cycle: 128,
            warps_to_hide_compute: 8.0,
            warps_to_hide_memory: 12.0,
            launch_overhead_us: 4.0,
        }
    }

    /// NVIDIA Tesla A40 (GA102) — the bandwidth-constrained device of
    /// §VII-E. Its DRAM bandwidth is 696 GB/s ≈ 67 % of the 4090's.
    pub fn a40() -> Self {
        GpuSpec {
            name: "NVIDIA Tesla A40".to_string(),
            num_sms: 84,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 16,
            regs_per_sm: 65_536,
            reg_alloc_granularity: 256,
            smem_per_sm: 100 * 1024,
            max_smem_per_block: 99 * 1024,
            smem_banks: 32,
            bank_width: 4,
            gmem_transaction_bytes: 128,
            l1_bytes: 128 * 1024,
            dram_bw_gbps: 696.0,
            clock_ghz: 1.74,
            fma_lanes_per_sm: 128,
            mma_multiplier: 4.0,
            int_lanes_per_sm: 64,
            smem_bytes_per_cycle: 128,
            warps_to_hide_compute: 8.0,
            warps_to_hide_memory: 12.0,
            launch_overhead_us: 4.0,
        }
    }

    /// Peak FP16/FP32 throughput in FLOP/s (`SMs × lanes × 2 × clock`).
    pub fn peak_flops(&self) -> f64 {
        self.num_sms as f64 * self.fma_lanes_per_sm as f64 * 2.0 * self.clock_ghz * 1e9
    }

    /// Peak DRAM bandwidth in bytes/second.
    pub fn peak_bw_bytes(&self) -> f64 {
        self.dram_bw_gbps * 1e9
    }

    /// Occupancy analysis for a block shape (convenience for
    /// [`Occupancy::analyze`]).
    pub fn occupancy(&self, block: &BlockResources) -> Occupancy {
        Occupancy::analyze(self, block)
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::rtx4090()
    }
}

impl std::fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.0} GB/s, {:.2} GHz)",
            self.name, self.num_sms, self.dram_bw_gbps, self.clock_ghz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx4090_peak_flops_is_about_82_tflops() {
        let g = GpuSpec::rtx4090();
        let tflops = g.peak_flops() / 1e12;
        assert!((tflops - 82.6).abs() < 1.0, "got {tflops}");
    }

    #[test]
    fn a40_bandwidth_ratio_matches_paper() {
        let a40 = GpuSpec::a40();
        let g4090 = GpuSpec::rtx4090();
        let ratio = a40.dram_bw_gbps / g4090.dram_bw_gbps;
        // Paper §VII-E: A40 provides 67 % of the 4090's bandwidth.
        assert!((ratio - 0.67).abs() < 0.03, "got {ratio}");
    }

    #[test]
    fn display_mentions_name() {
        assert!(GpuSpec::a40().to_string().contains("A40"));
    }
}
