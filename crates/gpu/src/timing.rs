//! Roofline-style latency model.
//!
//! Takes the [`PerfCounters`] a kernel tallied for its whole grid plus its
//! [`LaunchConfig`], and produces a latency estimate as the maximum of four
//! bottleneck components:
//!
//! * **DRAM**: total DRAM bytes over the *effective* bandwidth, which
//!   degrades when too few warps are resident to keep the memory system
//!   busy (this is how the paper's "insufficient thread blocks for Llama-7B
//!   1k single-batch" observation shows up).
//! * **FMA / tensor-core compute**: FLOPs over effective throughput.
//! * **Integer pipeline**: index unpacking and address math — the cost that
//!   makes AQLM's misaligned 12-bit format "tolerant to redundant
//!   computation" (§VII-C).
//! * **Shared memory**: serialized bank cycles (conflicts included) plus
//!   shuffle instructions, which share the SM's load/store + MIO pipes.
//!
//! All SM-side components scale with the number of SMs actually covered by
//! the grid and with a latency-hiding factor derived from resident warps,
//! so occupancy loss (the codebook cache's central trade-off) directly
//! slows the kernel down.

use crate::counters::PerfCounters;
use crate::device::GpuSpec;
use crate::launch::LaunchConfig;
use crate::occupancy::Occupancy;

/// Which component bound the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// DRAM bandwidth.
    Dram,
    /// FMA / tensor-core throughput.
    Compute,
    /// Integer pipeline (unpack/decode).
    Int,
    /// Shared-memory banks + shuffles.
    SharedMemory,
}

/// Latency estimate with its per-component breakdown (microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// DRAM component.
    pub dram_us: f64,
    /// FMA + tensor-core component.
    pub compute_us: f64,
    /// Integer-pipeline component.
    pub int_us: f64,
    /// Shared-memory + shuffle component.
    pub smem_us: f64,
    /// Fixed launch overhead.
    pub launch_us: f64,
    /// Total estimate (max of components + launch overhead).
    pub total_us: f64,
    /// The binding component.
    pub bound: Bound,
    /// Occupancy analysis of the launch.
    pub occupancy: Occupancy,
    /// Model of the paper's "SM utilization" counter: fraction of the
    /// device's issue capacity the launch can actually use.
    pub sm_utilization: f64,
}

/// The latency model for one device.
#[derive(Debug, Clone)]
pub struct TimingModel {
    gpu: GpuSpec,
}

impl TimingModel {
    /// Creates a timing model for `gpu`.
    pub fn new(gpu: GpuSpec) -> Self {
        TimingModel { gpu }
    }

    /// The device this model targets.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Estimates the latency of a kernel launch that tallied `counters`
    /// across its whole grid.
    ///
    /// Returns an "infinite" breakdown (`f64::INFINITY`) if the block shape
    /// cannot run at all (zero occupancy) — callers treat that as an
    /// unlaunchable configuration.
    pub fn latency(&self, launch: &LaunchConfig, counters: &PerfCounters) -> LatencyBreakdown {
        let g = &self.gpu;
        let occ = Occupancy::analyze(g, &launch.block);
        if occ.blocks_per_sm == 0 || launch.grid_blocks == 0 {
            return LatencyBreakdown {
                dram_us: f64::INFINITY,
                compute_us: f64::INFINITY,
                int_us: f64::INFINITY,
                smem_us: f64::INFINITY,
                launch_us: g.launch_overhead_us,
                total_us: f64::INFINITY,
                bound: Bound::Compute,
                occupancy: occ,
                sm_utilization: 0.0,
            };
        }

        let sms_used = g.num_sms.min(launch.grid_blocks) as f64;
        let resident_warps_per_sm = {
            // Resident warps cannot exceed what the grid supplies.
            let supplied = launch.total_warps() as f64 / sms_used;
            (occ.warps_per_sm as f64).min(supplied).max(1.0)
        };

        // Latency-hiding factors: fraction of peak throughput reachable
        // with this many resident warps.
        let hide_compute = (resident_warps_per_sm / g.warps_to_hide_compute).min(1.0);
        let total_resident = resident_warps_per_sm * sms_used;
        let bw_needed = g.warps_to_hide_memory * g.num_sms as f64;
        let hide_mem = (total_resident / bw_needed).clamp(0.05, 1.0);

        let clock = g.clock_ghz * 1e9;

        // DRAM component.
        let dram_s = counters.dram_bytes() / (g.peak_bw_bytes() * hide_mem);

        // Compute component: FMA lanes + tensor cores (which run
        // mma_multiplier× faster and overlap poorly enough that we just add
        // their occupations).
        let fma_peak = sms_used * g.fma_lanes_per_sm as f64 * 2.0 * clock * hide_compute;
        let mma_peak = fma_peak * g.mma_multiplier;
        let compute_s = counters.flops / fma_peak + counters.tensor_flops / mma_peak;

        // Integer pipeline.
        let int_peak = sms_used * g.int_lanes_per_sm as f64 * clock * hide_compute;
        let int_s = counters.int_ops / int_peak;

        // Shared memory: one warp transaction per cycle per SM; conflicts
        // are already folded into smem_cycles. Shuffles share the pipe.
        let smem_peak_cycles = sms_used * clock * hide_compute;
        let smem_s = (counters.smem_cycles + counters.shuffles) / smem_peak_cycles;

        let dram_us = dram_s * 1e6;
        let compute_us = compute_s * 1e6;
        let int_us = int_s * 1e6;
        let smem_us = smem_s * 1e6;

        let (bound, max_us) = [
            (Bound::Dram, dram_us),
            (Bound::Compute, compute_us),
            (Bound::Int, int_us),
            (Bound::SharedMemory, smem_us),
        ]
        .into_iter()
        .fold(
            (Bound::Dram, 0.0f64),
            |acc, x| if x.1 > acc.1 { x } else { acc },
        );

        let sm_utilization = (sms_used / g.num_sms as f64) * hide_compute;

        LatencyBreakdown {
            dram_us,
            compute_us,
            int_us,
            smem_us,
            launch_us: g.launch_overhead_us,
            total_us: max_us + g.launch_overhead_us,
            bound,
            occupancy: occ,
            sm_utilization,
        }
    }
}

impl std::fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1} us ({:?}-bound; dram {:.1}, compute {:.1}, int {:.1}, smem {:.1})",
            self.total_us, self.bound, self.dram_us, self.compute_us, self.int_us, self.smem_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::BlockResources;

    fn model() -> TimingModel {
        TimingModel::new(GpuSpec::rtx4090())
    }

    fn big_launch() -> LaunchConfig {
        LaunchConfig::new(1024, BlockResources::new(256, 32, 16 * 1024))
    }

    #[test]
    fn pure_streaming_kernel_hits_peak_bandwidth() {
        // 1 GB of DRAM traffic with a saturating grid → ≈ 1 GB / 1008 GB/s.
        let counters = PerfCounters {
            dram_read_bytes: 1e9,
            ..Default::default()
        };
        let lat = model().latency(&big_launch(), &counters);
        assert_eq!(lat.bound, Bound::Dram);
        let expect_us = 1e9 / (1008.0 * 1e9) * 1e6;
        assert!((lat.dram_us - expect_us).abs() / expect_us < 0.05);
    }

    #[test]
    fn small_grid_cannot_saturate_bandwidth() {
        let counters = PerfCounters {
            dram_read_bytes: 1e8,
            ..Default::default()
        };
        let small = LaunchConfig::new(16, BlockResources::new(128, 32, 0));
        let big = model().latency(&big_launch(), &counters);
        let lat = model().latency(&small, &counters);
        assert!(lat.dram_us > 3.0 * big.dram_us * (1e8 / 1e9) / (1e8 / 1e9));
    }

    #[test]
    fn compute_bound_gemm_lands_near_peak_flops() {
        // 137 GFLOP of tensor-core work ≈ 4096³ GeMM at mma rate.
        let counters = PerfCounters {
            tensor_flops: 2.0 * 4096f64.powi(3),
            ..Default::default()
        };
        let lat = model().latency(&big_launch(), &counters);
        assert_eq!(lat.bound, Bound::Compute);
        // 137.4e9 / (82.6e12 × 4) ≈ 416 µs.
        assert!(
            lat.compute_us > 300.0 && lat.compute_us < 550.0,
            "{}",
            lat.compute_us
        );
    }

    #[test]
    fn bank_conflicts_slow_the_smem_component() {
        let clean = PerfCounters {
            smem_cycles: 1e9,
            ..Default::default()
        };
        let conflicted = PerfCounters {
            smem_cycles: 4e9,
            bank_conflict_cycles: 3e9,
            ..Default::default()
        };
        let m = model();
        let a = m.latency(&big_launch(), &clean);
        let b = m.latency(&big_launch(), &conflicted);
        assert!(b.smem_us > 3.5 * a.smem_us);
    }

    #[test]
    fn occupancy_loss_raises_latency() {
        // Same work, but the fat block keeps only one block per SM.
        let counters = PerfCounters {
            flops: 1e12,
            ..Default::default()
        };
        let m = model();
        let lean = m.latency(
            &LaunchConfig::new(1024, BlockResources::new(128, 32, 8 * 1024)),
            &counters,
        );
        let fat = m.latency(
            &LaunchConfig::new(1024, BlockResources::new(128, 32, 90 * 1024)),
            &counters,
        );
        assert!(
            fat.total_us > lean.total_us,
            "fat {} lean {}",
            fat.total_us,
            lean.total_us
        );
        assert!(fat.sm_utilization < lean.sm_utilization);
    }

    #[test]
    fn unlaunchable_block_is_infinite() {
        let counters = PerfCounters::default();
        let lat = model().latency(
            &LaunchConfig::new(1, BlockResources::new(4096, 32, 0)),
            &counters,
        );
        assert!(lat.total_us.is_infinite());
    }

    #[test]
    fn launch_overhead_is_floor() {
        let lat = model().latency(&big_launch(), &PerfCounters::default());
        assert!((lat.total_us - 4.0).abs() < 1e-9);
    }
}
