//! Interconnect cost models for the paper's machines.
//!
//! §4.3 runs weak scaling on ORNL Titan (Cray XK7, Gemini 3D-torus
//! interconnect, 16 AMD cores + 1 K20m per node, up to 4096 nodes) and
//! strong scaling on SNL Shannon (30 nodes, dual E5-2670 + dual K20m,
//! InfiniBand). "The limiting factor is the MPI global reduction to find
//! the minimum time step ... and MPI communication in MFEM."

/// Point-to-point and collective cost model of an interconnect.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way message latency, seconds.
    pub latency_s: f64,
    /// Effective point-to-point bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Extra per-hop software/system overhead applied per collective stage
    /// (OS noise, progression) — the term that makes huge allreduces hurt.
    pub collective_overhead_s: f64,
}

impl NetworkModel {
    /// ORNL Titan: Gemini interconnect. The collective stage overhead is
    /// the *effective at-scale* value (progression + OS noise on a shared
    /// torus), calibrated against Fig. 12's base point; it implies a full
    /// 64k-rank allreduce of ~2.3 ms, consistent with measured Titan
    /// MPI_Allreduce latencies at that scale.
    fn titan_gemini() -> Self {
        Self { latency_s: 1.5e-6, bandwidth_gbs: 6.0, collective_overhead_s: 7.0e-5 }
    }

    /// SNL Shannon: QDR InfiniBand.
    fn shannon_ib() -> Self {
        Self { latency_s: 1.3e-6, bandwidth_gbs: 4.0, collective_overhead_s: 4.0e-6 }
    }

    /// Point-to-point time for `bytes` (also what dates a message's arrival
    /// on the rank runtime's wire, [`crate::comm`]).
    pub(crate) fn p2p_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }

    /// Log-tree allreduce across `ranks` of a `bytes` payload: two tree
    /// traversals (reduce + broadcast) of `ceil(log2 ranks)` stages.
    pub fn allreduce_time(&self, ranks: usize, bytes: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let stages = (ranks as f64).log2().ceil();
        2.0 * stages * (self.p2p_time(bytes) + self.collective_overhead_s)
    }

    /// Nearest-neighbor halo exchange: up to `neighbors` simultaneous
    /// pairwise exchanges of `bytes` each (posted concurrently; serialized
    /// injection charges a fraction per extra neighbor).
    pub fn halo_exchange_time(&self, neighbors: usize, bytes: usize) -> f64 {
        if neighbors == 0 {
            return 0.0;
        }
        // Concurrent messages share injection bandwidth.
        self.latency_s + neighbors as f64 * bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// A named machine: nodes with CPUs/GPUs plus the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// ORNL Titan (Cray XK7): 16 AMD cores + 1 K20m per node.
    Titan,
    /// SNL Shannon: dual E5-2670 + dual K20m per node.
    Shannon,
}

impl Machine {
    /// The interconnect model.
    pub fn network(&self) -> NetworkModel {
        match self {
            Machine::Titan => NetworkModel::titan_gemini(),
            Machine::Shannon => NetworkModel::shannon_ib(),
        }
    }

    /// MPI ranks per node in the paper's runs.
    pub fn ranks_per_node(&self) -> usize {
        match self {
            Machine::Titan => 16,
            Machine::Shannon => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_time_has_latency_floor() {
        let n = NetworkModel::titan_gemini();
        assert!(n.p2p_time(0) >= 1.5e-6);
        // 6 MB at 6 GB/s = 1 ms.
        assert!((n.p2p_time(6_000_000) - 1e-3 - 1.5e-6).abs() < 1e-9);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let n = NetworkModel::titan_gemini();
        let t8 = n.allreduce_time(8, 8);
        let t4096 = n.allreduce_time(4096, 8);
        // log2(4096)/log2(8) = 4.
        assert!((t4096 / t8 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_trivial_for_one_rank() {
        assert_eq!(NetworkModel::shannon_ib().allreduce_time(1, 8), 0.0);
    }

    #[test]
    fn halo_scales_with_neighbors_and_bytes() {
        let n = NetworkModel::shannon_ib();
        let one = n.halo_exchange_time(1, 1000);
        let six = n.halo_exchange_time(6, 1000);
        assert!(six > one);
        assert_eq!(n.halo_exchange_time(0, 1000), 0.0);
    }

    #[test]
    fn machines_expose_their_networks() {
        assert_eq!(Machine::Titan.ranks_per_node(), 16);
        let t = Machine::Titan.network();
        let s = Machine::Shannon.network();
        assert!(t.bandwidth_gbs > s.bandwidth_gbs);
    }
}
