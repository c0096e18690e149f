//! Platform model: Summit-like machine parameters and the GEMM time model.

/// Machine description used by the replay.
///
/// Defaults ([`Platform::summit`]) are calibrated against the paper's §5
/// environment: IBM AC922 nodes with 6 NVIDIA V100s, dual NVLink 2.0
/// (25 GB/s per direction per link) between CPUs and GPUs, 42 usable
/// POWER9 cores per node, and a dual-rail EDR InfiniBand fabric.
#[derive(Clone, Copy, Debug)]
pub struct Platform {
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Usable device memory per GPU (bytes).
    pub gpu_mem_bytes: u64,
    /// Hardware double-precision GEMM peak per GPU (flop/s); the *practical*
    /// peak of ~7.2 Tflop/s emerges from this times the efficiency curve.
    pub gemm_peak_flops: f64,
    /// Half-size of the tile-efficiency curve `eff = s/(s+s0)` with
    /// `s = (m·n·k)^{1/3}` — small tiles run far below peak.
    pub gemm_eff_halfsize: f64,
    /// Device HBM bandwidth (bytes/s) for the roofline memory term.
    pub hbm_bw: f64,
    /// Per-GEMM-task overhead (s): kernel launch plus the runtime's
    /// task-management cost on the GPU stream. This is what makes
    /// fine-grained tilings slow despite their lower flop counts (§5.2).
    pub kernel_latency_s: f64,
    /// Host→device bandwidth per GPU (bytes/s).
    pub h2d_bw: f64,
    /// Device→host bandwidth per GPU (bytes/s).
    pub d2h_bw: f64,
    /// Per-tile transfer overhead (s): staging, pinning and stream
    /// management per host↔device copy. Dominates for many small tiles —
    /// the paper's "GPU I/O dominates the execution time".
    pub h2d_latency_s: f64,
    /// Bandwidth of *bulk* panel staging (bytes/s): dense algorithms such
    /// as the paper's ref \[22\] move large contiguous pinned buffers and
    /// reach near-NVLink rates, unlike the per-tile staging of irregular
    /// block-sparse data.
    pub h2d_bulk_bw: f64,
    /// Node injection/reception bandwidth (bytes/s).
    pub nic_bw: f64,
    /// Network latency (s).
    pub nic_latency_s: f64,
    /// Bandwidth between ranks sharing a physical node (bytes/s): shared
    /// memory / NVLink-class, several times the NIC.
    pub intra_bw: f64,
    /// Latency of an intra-node message (s).
    pub intra_latency_s: f64,
    /// Per-message overhead of a tile broadcast (s): activation message,
    /// matching, rendezvous and progress-engine cost per tile. The A
    /// broadcast of a finely-tiled problem sends tens of thousands of
    /// messages per node, which is what limits strong scaling (§5.2: "the
    /// cost of broadcasting tensor T ... grows with the number of nodes and
    /// thus limits the scalability").
    pub nic_msg_overhead_s: f64,
    /// Rate at which one node's CPUs generate `B` tiles (bytes/s).
    pub cpu_gen_rate: f64,
    /// Effective CPU-only GEMM rate per node (flop/s), for the MPQC
    /// comparison — the paper estimates ≈2 Tflop/s peak at ≈17% efficiency.
    pub cpu_flops_effective: f64,
}

impl Platform {
    /// Summit with the given number of nodes.
    pub fn summit(nodes: usize) -> Self {
        Self {
            nodes,
            gpus_per_node: 6,
            gpu_mem_bytes: 16 * (1 << 30),
            gemm_peak_flops: 7.8e12,
            gemm_eff_halfsize: 62.0,
            hbm_bw: 850e9,
            kernel_latency_s: 120e-6,
            h2d_bw: 12e9,
            d2h_bw: 12e9,
            h2d_latency_s: 400e-6,
            h2d_bulk_bw: 45e9,
            nic_bw: 23e9,
            nic_latency_s: 3e-6,
            intra_bw: 50e9,
            intra_latency_s: 1e-6,
            nic_msg_overhead_s: 700e-6,
            cpu_gen_rate: 20e9,
            cpu_flops_effective: 0.34e12,
        }
    }

    /// A Frontier-like node (§1: "the forthcoming Frontier exascale system
    /// is announced with four AMD Radeon GPUs per node"): 4 MI250X-class
    /// accelerators with far higher matrix peak and memory than a V100,
    /// a Slingshot-class NIC, and correspondingly faster host links. Used
    /// by the forward-projection study, not by the paper's figures.
    pub fn frontier(nodes: usize) -> Self {
        Self {
            nodes,
            gpus_per_node: 4,
            gpu_mem_bytes: 64 * (1 << 30),
            gemm_peak_flops: 48e12,
            gemm_eff_halfsize: 120.0,
            hbm_bw: 3_200e9,
            kernel_latency_s: 80e-6,
            h2d_bw: 36e9,
            d2h_bw: 36e9,
            h2d_latency_s: 250e-6,
            h2d_bulk_bw: 120e9,
            nic_bw: 100e9,
            nic_latency_s: 2e-6,
            intra_bw: 200e9,
            intra_latency_s: 1e-6,
            nic_msg_overhead_s: 400e-6,
            cpu_gen_rate: 40e9,
            cpu_flops_effective: 1.0e12,
        }
    }

    /// Summit sized by GPU count (the x-axis of Figs. 7–9); partial nodes
    /// are allowed (3 GPUs = half a node).
    pub fn summit_gpus(gpus: usize) -> Self {
        assert!(gpus >= 1);
        if gpus < 6 {
            let mut p = Self::summit(1);
            p.gpus_per_node = gpus;
            p
        } else {
            assert_eq!(gpus % 6, 0, "whole nodes beyond 6 GPUs");
            Self::summit(gpus / 6)
        }
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// The paper's planner configuration for this machine on a `p`-row
    /// process grid: every node, its GPUs and their device memory.
    pub fn planner_config(&self, p: usize) -> bst_contract::PlannerConfig {
        bst_contract::PlannerConfig::paper(
            bst_contract::GridConfig::from_nodes(self.nodes, p),
            bst_contract::DeviceConfig {
                gpus_per_node: self.gpus_per_node,
                gpu_mem_bytes: self.gpu_mem_bytes,
            },
        )
    }

    /// Tile-size efficiency in `(0, 1)`: `s/(s+s0)` with the geometric-mean
    /// edge `s = (m·n·k)^{1/3}`.
    pub fn gemm_efficiency(&self, m: u64, n: u64, k: u64) -> f64 {
        let s = ((m as f64) * (n as f64) * (k as f64)).cbrt();
        s / (s + self.gemm_eff_halfsize)
    }

    /// Raw kernel time of one tile GEMM (roofline: compute vs HBM traffic,
    /// plus bare launch latency) — what a cuBLAS microbenchmark measures.
    pub fn gemm_kernel_time(&self, m: u64, n: u64, k: u64) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let t_compute = flops / (self.gemm_peak_flops * self.gemm_efficiency(m, n, k));
        let bytes = 8.0 * (m * k + k * n + 2 * m * n) as f64;
        let t_mem = bytes / self.hbm_bw;
        t_compute.max(t_mem) + 6e-6
    }

    /// End-to-end time of one tile-GEMM *task* as executed by the runtime:
    /// the kernel plus the per-task overhead (scheduling, descriptor
    /// handling, stream synchronisation).
    pub fn gemm_time(&self, m: u64, n: u64, k: u64) -> f64 {
        self.gemm_kernel_time(m, n, k) + self.kernel_latency_s
    }

    /// Sustained *kernel* rate (flop/s) of a single GEMM of the given shape
    /// — used to validate the calibration against the paper's measured
    /// practical peak.
    pub fn gemm_rate(&self, m: u64, n: u64, k: u64) -> f64 {
        2.0 * m as f64 * n as f64 * k as f64 / self.gemm_kernel_time(m, n, k)
    }

    /// The transport cost model of this platform's NIC, in the shape the
    /// real message-passing layer consumes: calibrating
    /// [`bst_runtime::comm::CommConfig::shaper`] with this makes shaped
    /// numeric runs and [`crate::dag::replay_dag`] charge the same per-tile
    /// wire time.
    pub fn link_shaper(&self) -> bst_runtime::comm::LinkShaper {
        bst_runtime::comm::LinkShaper::nic(self.nic_bw, self.nic_latency_s)
    }

    /// The intra-node transport cost model (ranks sharing a physical node)
    /// — calibrates [`bst_runtime::comm::CommConfig::intra_shaper`] the way
    /// [`Platform::link_shaper`] calibrates the NIC.
    pub fn intra_shaper(&self) -> bst_runtime::comm::LinkShaper {
        bst_runtime::comm::LinkShaper::nic(self.intra_bw, self.intra_latency_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_has_672_tflops_of_gemm_peak_at_16_nodes() {
        // The paper: "Peak performance of GEMM for the 16 nodes is estimated
        // at 672 Tflop/s (16 × 6 GPU × 7 Tflop/s)".
        let p = Platform::summit(16);
        assert_eq!(p.total_gpus(), 96);
        let practical = p.gemm_rate(4096, 4096, 4096) * p.total_gpus() as f64;
        assert!(
            (650e12..760e12).contains(&practical),
            "practical aggregate peak {practical:.3e}"
        );
    }

    #[test]
    fn practical_peak_near_7_2_tflops_at_728() {
        // §5: measured 7.2 Tflop/s per GPU; "peak performance on a single
        // tile can be obtained for tiles of 728 × 728".
        let p = Platform::summit(1);
        let rate = p.gemm_rate(728, 728, 728);
        assert!(
            (6.4e12..7.6e12).contains(&rate),
            "728-tile rate {rate:.3e}"
        );
    }

    #[test]
    fn small_tiles_are_slow() {
        let p = Platform::summit(1);
        let small = p.gemm_rate(64, 64, 64);
        let large = p.gemm_rate(1536, 1536, 1536);
        assert!(small < 0.25 * large, "small {small:.2e} vs large {large:.2e}");
    }

    #[test]
    fn efficiency_monotone_in_size() {
        let p = Platform::summit(1);
        let mut last = 0.0;
        for s in [32u64, 128, 512, 1024, 2048] {
            let e = p.gemm_efficiency(s, s, s);
            assert!(e > last);
            assert!(e < 1.0);
            last = e;
        }
    }

    #[test]
    fn skinny_gemm_slower_than_cube_of_same_flops() {
        let p = Platform::summit(1);
        // 1024^3 vs 16 x 1024 x 64*1024 (same flops, skinny).
        let cube = p.gemm_time(1024, 1024, 1024);
        let skinny = p.gemm_time(16, 1024, 65536);
        assert!(skinny > cube);
    }

    #[test]
    fn frontier_is_much_faster_per_gpu() {
        let s = Platform::summit(1);
        let f = Platform::frontier(1);
        assert!(f.gemm_rate(2048, 2048, 2048) > 4.0 * s.gemm_rate(2048, 2048, 2048));
        assert!(f.gpu_mem_bytes > s.gpu_mem_bytes);
        assert_eq!(f.gpus_per_node, 4);
    }

    #[test]
    fn summit_gpus_partial_node() {
        let p = Platform::summit_gpus(3);
        assert_eq!(p.nodes, 1);
        assert_eq!(p.gpus_per_node, 3);
        let p = Platform::summit_gpus(108);
        assert_eq!(p.nodes, 18);
        assert_eq!(p.total_gpus(), 108);
    }

    #[test]
    #[should_panic]
    fn summit_gpus_rejects_ragged() {
        Platform::summit_gpus(10);
    }

    #[test]
    fn summit_link_shaper_matches_comm_calibration() {
        // The transport's Summit preset and the platform model must agree —
        // both describe the same dual-rail EDR NIC.
        let shaper = Platform::summit(1).link_shaper();
        let preset = bst_runtime::comm::LinkShaper::summit_nic();
        assert_eq!(shaper.bandwidth_bps, preset.bandwidth_bps);
        assert_eq!(shaper.latency_s, preset.latency_s);
        let mib = 1 << 20;
        assert!((shaper.delay_s(mib) - preset.delay_s(mib)).abs() < 1e-12);
        // Same agreement for the intra-node (shared-memory/NVLink) link.
        let intra = Platform::summit(1).intra_shaper();
        let preset = bst_runtime::comm::LinkShaper::summit_intra();
        assert_eq!(intra.bandwidth_bps, preset.bandwidth_bps);
        assert_eq!(intra.latency_s, preset.latency_s);
    }
}
