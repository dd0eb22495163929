//! GPU device specifications: the three parts the paper ran on.

/// Static description of a simulated GPU.
///
/// Performance numbers are the published datasheet values for the paper's
/// parts; the energy coefficients are calibrated so the §5.2 scenarios
/// reproduce (idle 20 W, ~50 W floor with any kernel running, TDP 225 W for
/// K20, DRAM-dominated dynamic power with an on-chip/DRAM per-byte cost
/// ratio following Hong & Kim).
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Streaming multiprocessors (SM / SMX).
    pub sm_count: u32,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Max resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Max registers addressable per thread (63 on Fermi, 255 on Kepler).
    pub max_regs_per_thread: u32,
    /// Shared memory per SM, bytes.
    pub shared_mem_per_sm: u32,
    /// Max shared memory per block, bytes.
    pub max_shared_per_block: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Peak double-precision throughput, GFLOP/s.
    pub peak_gflops_dp: f64,
    /// Device (DRAM) bandwidth, GB/s.
    pub dram_bw_gbs: f64,
    /// L2 bandwidth, GB/s.
    pub l2_bw_gbs: f64,
    /// Aggregate shared-memory/L1 bandwidth, GB/s.
    pub shared_bw_gbs: f64,
    /// Device memory capacity, bytes.
    pub dram_capacity: usize,
    /// PCIe bandwidth, GB/s (effective, one direction).
    pub pcie_bw_gbs: f64,
    /// PCIe transfer latency, microseconds.
    pub pcie_latency_us: f64,
    /// Kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
    /// Hardware work queues usable by concurrent host processes
    /// (Hyper-Q: 32 on K20, 1 on Fermi/K10).
    pub hyperq_queues: u32,
    /// Board TDP, watts.
    pub tdp_w: f64,
    /// Long-idle board power, watts (paper: 20 W).
    pub idle_w: f64,
    /// Power floor while any kernel is resident (paper: startup ~50 W).
    pub active_floor_w: f64,
    /// SM-utilization power floor, watts at full device fill with the
    /// execution units busy every cycle. Issue/clock/scheduler power that
    /// per-event energy coefficients miss: a kernel streaming from
    /// on-chip memories keeps every SM switching even though its
    /// per-byte energy is tiny, which is why the paper measures Q4-Q3
    /// corner force (on-chip dominated) *above* the DRAM-heavy Q2-Q1 at
    /// 8 MPI (Fig. 15). Scaled by device fill and the fraction of
    /// execution time the SMs spend on compute/shared-memory work.
    pub sm_util_w: f64,
    /// Energy per double-precision flop, picojoules.
    pub e_flop_pj: f64,
    /// Energy per DRAM byte, picojoules.
    pub e_dram_pj: f64,
    /// Energy per L2 byte, picojoules.
    pub e_l2_pj: f64,
    /// Energy per shared-memory byte, picojoules.
    pub e_shared_pj: f64,
    /// Extra power per additional active Hyper-Q queue, watts
    /// (the 8-MPI-vs-1-MPI overhead observed in Fig. 15).
    pub hyperq_w_per_queue: f64,
    /// Energy multiplier for local-memory (register-spill) bytes relative
    /// to coalesced DRAM traffic: scattered per-thread spills have poor
    /// DRAM row-buffer locality, so each byte costs more to move.
    pub local_energy_factor: f64,
    /// Occupancy at which compute throughput saturates.
    pub occ_sat_compute: f64,
    /// Occupancy at which memory latency is fully hidden.
    pub occ_sat_memory: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla C2050 (Fermi, compute capability 2.0) — the kernel-8
    /// comparison platform (Table 4) and the auto-balance testbed (Table 5).
    pub fn c2050() -> Self {
        Self {
            name: "Tesla C2050",
            sm_count: 14,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            registers_per_sm: 32768,
            max_regs_per_thread: 63,
            shared_mem_per_sm: 48 * 1024,
            max_shared_per_block: 48 * 1024,
            warp_size: 32,
            peak_gflops_dp: 515.0,
            dram_bw_gbs: 144.0,
            l2_bw_gbs: 350.0,
            shared_bw_gbs: 1030.0,
            dram_capacity: 3 * 1024 * 1024 * 1024,
            pcie_bw_gbs: 5.0,
            pcie_latency_us: 12.0,
            launch_overhead_us: 7.0,
            hyperq_queues: 1,
            tdp_w: 238.0,
            idle_w: 22.0,
            active_floor_w: 55.0,
            sm_util_w: 33.0,
            e_flop_pj: 160.0,
            e_dram_pj: 420.0,
            e_l2_pj: 38.0,
            e_shared_pj: 9.0,
            hyperq_w_per_queue: 0.0,
            local_energy_factor: 1.6,
            occ_sat_compute: 0.55,
            occ_sat_memory: 0.35,
        }
    }

    /// NVIDIA Tesla K10 — strong single-precision part with weak DP; used
    /// with CUDA+OpenMP because it lacks Hyper-Q for multi-process sharing.
    pub fn k10() -> Self {
        Self {
            name: "Tesla K10",
            sm_count: 8,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            registers_per_sm: 65536,
            max_regs_per_thread: 255,
            shared_mem_per_sm: 48 * 1024,
            max_shared_per_block: 48 * 1024,
            warp_size: 32,
            peak_gflops_dp: 190.0,
            dram_bw_gbs: 160.0,
            l2_bw_gbs: 400.0,
            shared_bw_gbs: 1100.0,
            dram_capacity: 4 * 1024 * 1024 * 1024,
            pcie_bw_gbs: 6.0,
            pcie_latency_us: 10.0,
            launch_overhead_us: 5.0,
            hyperq_queues: 1,
            tdp_w: 225.0,
            idle_w: 25.0,
            active_floor_w: 52.0,
            sm_util_w: 28.0,
            e_flop_pj: 120.0,
            e_dram_pj: 380.0,
            e_l2_pj: 32.0,
            e_shared_pj: 8.0,
            hyperq_w_per_queue: 0.0,
            local_energy_factor: 1.6,
            occ_sat_compute: 0.50,
            occ_sat_memory: 0.30,
        }
    }

    /// Theoretical peak of a bandwidth-bound batched DGEMM with the given
    /// flops-per-byte intensity (the paper's §3.2 analysis: on K20,
    /// `DIM x DIM` batched DGEMM peaks at 35 GFLOP/s for DIM = 2 and
    /// 52 GFLOP/s for DIM = 3).
    pub fn bandwidth_bound_gflops(&self, flops_per_byte: f64) -> f64 {
        self.dram_bw_gbs * flops_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DeviceCatalog;

    #[test]
    fn k20_datasheet_values() {
        let k = DeviceCatalog::gpu("k20");
        assert_eq!(k.dram_bw_gbs, 208.0); // paper: "bandwidth of K20 is 208GB/s"
        assert_eq!(k.tdp_w, 225.0); // paper: "The TDP of K20 is 225W"
        assert_eq!(k.idle_w, 20.0); // paper: "idle power is 20W"
        assert!(k.active_floor_w >= 45.0 && k.active_floor_w <= 55.0); // "startup ~50W"
        assert_eq!(k.hyperq_queues, 32); // "up to 32 work queues"
    }

    #[test]
    fn kepler_doubles_fermi_registers() {
        // Paper Fig. 4 discussion: Kepler "doubles the number of physical
        // registers per SMX".
        let k20 = DeviceCatalog::gpu("k20");
        assert_eq!(k20.registers_per_sm, 2 * GpuSpec::c2050().registers_per_sm);
        assert!(k20.max_regs_per_thread > GpuSpec::c2050().max_regs_per_thread);
    }

    #[test]
    fn paper_batched_dgemm_peaks() {
        // §3.2: "each element will perform 4/3, 2 operations, the
        // theoretical peak ... is 35, 52 Gflop/s for DIM = 2, 3".
        let k = DeviceCatalog::gpu("k20");
        // DIM x DIM batched DGEMM: 2*DIM^3 flops over 3*DIM^2 elements of
        // 8 bytes -> flops/byte = 2*DIM/(3*8).
        let fpb2 = 2.0 * 2.0 / (3.0 * 8.0);
        let fpb3 = 2.0 * 3.0 / (3.0 * 8.0);
        assert!((k.bandwidth_bound_gflops(fpb2) - 34.7).abs() < 0.5);
        assert!((k.bandwidth_bound_gflops(fpb3) - 52.0).abs() < 0.5);
    }

    #[test]
    fn dram_energy_dominates_onchip() {
        // Hong & Kim: DRAM per-access cost ~52x shared memory.
        for s in [DeviceCatalog::gpu("k20"), GpuSpec::c2050(), GpuSpec::k10()] {
            let ratio = s.e_dram_pj / s.e_shared_pj;
            assert!(ratio > 40.0 && ratio < 60.0, "{}: {ratio}", s.name);
        }
    }

    #[test]
    fn only_kepler_k20_has_hyperq() {
        assert!(DeviceCatalog::gpu("k20").hyperq_queues > 1);
        assert_eq!(GpuSpec::c2050().hyperq_queues, 1);
        assert_eq!(GpuSpec::k10().hyperq_queues, 1);
    }

    #[test]
    fn table4_theoretical_dgemv_peak_on_c2050() {
        // Table 4: theoretical batched-DGEMV peak on C2050 is 35.5 Gflop/s.
        // DGEMV m x n: 2mn flops over (mn + m + n) doubles; for 81x8 the
        // matrix read dominates: flops/byte ~ 2*81*8/((81*8+81+8)*8).
        let c = GpuSpec::c2050();
        let fpb = (2.0 * 81.0 * 8.0) / ((81.0 * 8.0 + 81.0 + 8.0) * 8.0);
        let peak = c.bandwidth_bound_gflops(fpb);
        assert!((peak - 35.5).abs() < 4.0, "peak {peak}");
    }
}
