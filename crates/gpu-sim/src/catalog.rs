//! Device catalog — the heterogeneous-fleet generalization of the
//! single-K20 device model.
//!
//! The paper's Fig. 1 plots GFLOPS/W across CPU and GPU generations and
//! Table 5 auto-balances one node; both arguments assume you know which
//! silicon wins for a phase. That ordering flips across generations (the
//! FP64-tensor-core study, arXiv:2603.09038, and the CPU/GPU/Xeon-Phi
//! finite-difference comparison, arXiv:1709.09713), so the device model
//! is a *catalog*: named [`DeviceSpec`] entries, each a host [`CpuSpec`]
//! plus an optional [`GpuSpec`], carrying the full cost-and-power model.
//! The serve-layer router and `HydroBuilder::fleet` treat the catalog as
//! a live routing input instead of a chart.
//!
//! Standard entries:
//!
//! | id            | host                 | GPU                      |
//! |---------------|----------------------|--------------------------|
//! | `fermi`       | Xeon X5660           | Tesla C2050              |
//! | `k20`         | Xeon E5-2670         | Tesla K20                |
//! | `k20m`        | Xeon E5-2670         | Tesla K20m               |
//! | `ampere`      | Xeon Platinum 8380   | FP64-tensor-core Ampere  |
//! | `cpu-e5-2670` | Xeon E5-2670         | —                        |
//! | `xeon-phi`    | Xeon Phi 7120        | —                        |

use crate::cpu::CpuSpec;
use crate::spec::GpuSpec;

/// A named device configuration: the host package plus an optional
/// attached GPU. This is the unit the router places jobs on.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Catalog id — stable, lowercase, used as the routing/billing label.
    pub id: String,
    /// Host CPU package (always present: even GPU nodes integrate and
    /// orchestrate on the host).
    pub host: CpuSpec,
    /// Attached GPU, if the device has one.
    pub gpu: Option<GpuSpec>,
}

impl DeviceSpec {
    /// Starts a builder for a custom entry (e.g. a hypothetical part for
    /// a what-if routing study). Defaults to an E5-2670 host and no GPU.
    pub fn builder(id: impl Into<String>) -> DeviceSpecBuilder {
        DeviceSpecBuilder { id: id.into(), host: CpuSpec::e5_2670(), gpu: None }
    }

    /// Whether the device has an attached GPU.
    pub fn has_gpu(&self) -> bool {
        self.gpu.is_some()
    }

    /// Combined idle power of the node, watts (host package + DRAM,
    /// plus the GPU's long-idle power when present) — what a worker
    /// burns while it waits for work.
    pub fn idle_watts(&self) -> f64 {
        let host = self.host.power.idle_pkg_w + self.host.power.idle_dram_w;
        host + self.gpu.as_ref().map_or(0.0, |g| g.idle_w)
    }

    /// Peak double-precision GFLOP/s of the device's fastest silicon.
    pub fn peak_gflops_dp(&self) -> f64 {
        self.gpu
            .as_ref()
            .map_or(self.host.peak_gflops_dp, |g| g.peak_gflops_dp.max(self.host.peak_gflops_dp))
    }

    /// The Fig. 1 metric: peak DP GFLOP/s per TDP watt of the silicon
    /// that delivers the peak. A routing *prior*, not a decision — the
    /// router ranks devices by modeled job energy, which also prices
    /// transfers, launch overheads, and idle floors this ratio ignores.
    pub fn peak_gflops_per_watt(&self) -> f64 {
        match &self.gpu {
            Some(g) if g.peak_gflops_dp >= self.host.peak_gflops_dp => {
                g.peak_gflops_dp / g.tdp_w
            }
            _ => self.host.peak_gflops_dp / self.host.power.tdp_w,
        }
    }
}

/// Builder for custom [`DeviceSpec`] entries.
#[derive(Clone, Debug)]
pub struct DeviceSpecBuilder {
    id: String,
    host: CpuSpec,
    gpu: Option<GpuSpec>,
}

impl DeviceSpecBuilder {
    /// Sets the host package.
    pub fn host(mut self, host: CpuSpec) -> Self {
        self.host = host;
        self
    }

    /// Attaches a GPU.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Finishes the entry.
    pub fn build(self) -> DeviceSpec {
        assert!(!self.id.is_empty(), "device id must be non-empty");
        DeviceSpec { id: self.id, host: self.host, gpu: self.gpu }
    }
}

/// The registry of named devices. [`DeviceCatalog::standard`] holds the
/// six standard generations; [`DeviceCatalog::insert`] adds or replaces
/// entries for custom fleets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceCatalog {
    entries: Vec<DeviceSpec>,
}

impl DeviceCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard catalog: Fermi-class, the paper's Kepler parts, a
    /// modern FP64-tensor-core device, and the two CPU-only presets.
    pub fn standard() -> Self {
        let mut c = Self::new();
        c.insert(
            DeviceSpec::builder("fermi").host(CpuSpec::x5660()).gpu(GpuSpec::c2050()).build(),
        );
        c.insert(DeviceSpec::builder("k20").host(CpuSpec::e5_2670()).gpu(k20_gpu()).build());
        c.insert(DeviceSpec::builder("k20m").host(CpuSpec::e5_2670()).gpu(k20m_gpu()).build());
        c.insert(
            DeviceSpec::builder("ampere").host(CpuSpec::xeon_8380()).gpu(ampere_gpu()).build(),
        );
        c.insert(DeviceSpec::builder("cpu-e5-2670").host(CpuSpec::e5_2670()).build());
        c.insert(DeviceSpec::builder("xeon-phi").host(CpuSpec::xeon_phi_7120()).build());
        c
    }

    /// Adds an entry, replacing any existing entry with the same id.
    pub fn insert(&mut self, spec: DeviceSpec) {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.id == spec.id) {
            *slot = spec;
        } else {
            self.entries.push(spec);
        }
    }

    /// Entry by id, if present.
    pub fn lookup(&self, id: &str) -> Option<&DeviceSpec> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// All entries, in insertion order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.entries
    }

    /// All entry ids, in insertion order.
    pub fn ids(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.id.as_str()).collect()
    }

    /// The subset of the standard catalog named by `ids` (order kept) —
    /// how experiments spell out a concrete fleet. Panics on unknown ids.
    pub fn standard_subset(ids: &[&str]) -> Self {
        let mut c = Self::new();
        for id in ids {
            c.insert(Self::get(id));
        }
        c
    }

    /// Standard entry by id. Panics with the list of known ids on an
    /// unknown id — the catalog analog of a bad preset-constructor name
    /// failing at compile time.
    pub fn get(id: &str) -> DeviceSpec {
        let std = Self::standard();
        std.lookup(id).cloned().unwrap_or_else(|| {
            panic!("unknown device id {id:?}; catalog has {:?}", std.ids())
        })
    }

    /// GPU spec of a standard entry. Panics if the entry has no GPU (or
    /// the id is unknown).
    pub fn gpu(id: &str) -> GpuSpec {
        Self::get(id).gpu.unwrap_or_else(|| panic!("device {id:?} has no GPU"))
    }

    /// Host spec of a standard entry.
    pub fn host(id: &str) -> CpuSpec {
        Self::get(id).host
    }
}

/// NVIDIA Tesla K20 (GK110, compute capability 3.5) — the paper's main
/// single-node and power-study GPU.
fn k20_gpu() -> GpuSpec {
    GpuSpec {
        name: "Tesla K20",
        sm_count: 13,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 16,
        registers_per_sm: 65536,
        max_regs_per_thread: 255,
        shared_mem_per_sm: 48 * 1024,
        max_shared_per_block: 48 * 1024,
        warp_size: 32,
        peak_gflops_dp: 1170.0,
        dram_bw_gbs: 208.0,
        l2_bw_gbs: 512.0,
        shared_bw_gbs: 1300.0,
        dram_capacity: 5 * 1024 * 1024 * 1024,
        pcie_bw_gbs: 6.0,
        pcie_latency_us: 10.0,
        launch_overhead_us: 5.0,
        hyperq_queues: 32,
        tdp_w: 225.0,
        idle_w: 20.0,
        active_floor_w: 50.0,
        sm_util_w: 30.0,
        // ~100 pJ per DP flop on 28 nm Kepler: full-rate DP compute
        // alone draws ~117 W, which is why DGEMM is the power virus.
        e_flop_pj: 100.0,
        e_dram_pj: 350.0,
        e_l2_pj: 30.0,
        e_shared_pj: 7.0,
        hyperq_w_per_queue: 2.5,
        local_energy_factor: 1.6,
        occ_sat_compute: 0.50,
        occ_sat_memory: 0.30,
    }
}

/// NVIDIA Tesla K20m — ORNL Titan / SNL Shannon node GPU; identical to
/// K20 for our purposes except the passive-cooled TDP.
fn k20m_gpu() -> GpuSpec {
    GpuSpec { name: "Tesla K20m", tdp_w: 225.0, ..k20_gpu() }
}

/// A modern FP64-tensor-core device (A100-class, 7 nm): ~17x the K20's
/// DP peak at ~1/7 the per-flop energy, HBM at ~7.5x the bandwidth —
/// the generation where arXiv:2603.09038 shows the greenup ordering
/// flip. The catch the router prices in: a much higher active floor
/// (80 W resident + up to 70 W of SM issue power), so short
/// launch-bound jobs are cheaper on older, lower-floor silicon.
fn ampere_gpu() -> GpuSpec {
    GpuSpec {
        name: "Ampere FP64-TC",
        sm_count: 108,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        registers_per_sm: 65536,
        max_regs_per_thread: 255,
        shared_mem_per_sm: 164 * 1024,
        max_shared_per_block: 96 * 1024,
        warp_size: 32,
        // FP64 tensor-core peak; the CUDA-core DP peak is half this.
        peak_gflops_dp: 19500.0,
        dram_bw_gbs: 1555.0,
        l2_bw_gbs: 4500.0,
        shared_bw_gbs: 17000.0,
        dram_capacity: 40 * 1024 * 1024 * 1024,
        pcie_bw_gbs: 25.0,
        pcie_latency_us: 5.0,
        launch_overhead_us: 4.0,
        hyperq_queues: 32,
        tdp_w: 400.0,
        idle_w: 45.0,
        active_floor_w: 90.0,
        sm_util_w: 70.0,
        // 7 nm: ~15 pJ/DP-flop (tensor-core datapath), HBM2e at ~100
        // pJ/B; the Hong & Kim on-chip/DRAM ratio band is preserved.
        e_flop_pj: 15.0,
        e_dram_pj: 100.0,
        e_l2_pj: 9.0,
        e_shared_pj: 2.2,
        hyperq_w_per_queue: 1.5,
        local_energy_factor: 1.5,
        occ_sat_compute: 0.40,
        occ_sat_memory: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_shape() {
        let c = DeviceCatalog::standard();
        assert_eq!(c.ids(), ["fermi", "k20", "k20m", "ampere", "cpu-e5-2670", "xeon-phi"]);
        assert!(c.lookup("fermi").unwrap().has_gpu());
        assert!(!c.lookup("cpu-e5-2670").unwrap().has_gpu());
        assert!(!c.lookup("xeon-phi").unwrap().has_gpu());
        assert!(c.lookup("nonesuch").is_none());
    }

    #[test]
    fn catalog_entries_are_sane() {
        for dev in DeviceCatalog::standard().devices() {
            assert!(dev.idle_watts() > 0.0, "{}", dev.id);
            assert!(dev.peak_gflops_dp() > 0.0, "{}", dev.id);
            assert!(dev.peak_gflops_per_watt() > 0.0, "{}", dev.id);
            if let Some(g) = &dev.gpu {
                // Hong & Kim DRAM-vs-shared per-byte cost band, catalog-wide.
                let ratio = g.e_dram_pj / g.e_shared_pj;
                assert!(ratio > 40.0 && ratio < 60.0, "{}: {ratio}", dev.id);
                assert!(g.idle_w < g.active_floor_w, "{}", dev.id);
                assert!(g.active_floor_w < g.tdp_w, "{}", dev.id);
                // Full-rate DP compute power must fit under the board TDP.
                let compute_w =
                    g.active_floor_w + g.sm_util_w + g.peak_gflops_dp * g.e_flop_pj * 1e-3;
                assert!(compute_w <= 1.2 * g.tdp_w, "{}: {compute_w} W", dev.id);
            }
        }
    }

    #[test]
    fn generations_order_as_the_papers_say() {
        // Fig. 1's axis: peak GFLOPS/W strictly improves Fermi -> Kepler
        // -> FP64-tensor-core.
        let f = DeviceCatalog::gpu("fermi");
        let k = DeviceCatalog::gpu("k20");
        let a = DeviceCatalog::gpu("ampere");
        assert!(f.peak_gflops_dp / f.tdp_w < k.peak_gflops_dp / k.tdp_w);
        assert!(k.peak_gflops_dp / k.tdp_w < a.peak_gflops_dp / a.tdp_w);
        // ...while per-flop energy falls and the idle/active floors rise:
        // the inversion that makes routing non-trivial.
        assert!(a.e_flop_pj < k.e_flop_pj && k.e_flop_pj < f.e_flop_pj);
        assert!(a.active_floor_w > k.active_floor_w);
    }

    #[test]
    fn builder_makes_custom_entries() {
        let dev = DeviceSpec::builder("lab-rig")
            .host(CpuSpec::xeon_8380())
            .gpu(DeviceCatalog::gpu("k20"))
            .build();
        assert_eq!(dev.id, "lab-rig");
        assert_eq!(dev.host, CpuSpec::xeon_8380());
        assert!(dev.has_gpu());
        let mut c = DeviceCatalog::standard();
        c.insert(dev.clone());
        assert_eq!(c.lookup("lab-rig"), Some(&dev));
        // Replacement by id, not duplication.
        let n = c.devices().len();
        c.insert(dev);
        assert_eq!(c.devices().len(), n);
    }

    #[test]
    #[should_panic(expected = "unknown device id")]
    fn unknown_id_panics_with_catalog_listing() {
        DeviceCatalog::get("gtx-480");
    }

    #[test]
    #[should_panic(expected = "has no GPU")]
    fn cpu_only_entry_has_no_gpu_spec() {
        DeviceCatalog::gpu("xeon-phi");
    }
}
