//! Node hardware configuration: topology, frequency ranges and the
//! calibrated coefficients of the performance and power models.

use crate::pstate::PstateTable;

/// Performance model coefficients (see [`crate::perf`]).
#[derive(Debug, Clone)]
pub struct PerfParams {
    /// Peak achievable main-memory bandwidth of the node (bytes/s) with the
    /// uncore at full frequency. 2 sockets × 6 × DDR4-2400 ≈ 230 GB/s
    /// theoretical; ~205 GB/s achievable (HPCG in the paper streams
    /// 177 GB/s).
    pub bw_peak_bytes: f64,
    /// Uncore frequency (GHz) above which the achievable bandwidth
    /// saturates; below it, bandwidth scales linearly with f_uncore.
    pub bw_sat_ghz: f64,
}

impl Default for PerfParams {
    fn default() -> Self {
        Self {
            bw_peak_bytes: 205e9,
            bw_sat_ghz: 2.1,
        }
    }
}

/// Power model coefficients (see [`crate::power`]). Defaults are calibrated
/// so the DC node power of the paper's characterisation runs (Tables II and
/// V) is reproduced within a few percent on the Lenovo SD530 / dual Xeon
/// 6148 configuration.
#[derive(Debug, Clone)]
pub struct PowerParams {
    /// Constant platform power: fans, board, NIC, disks, PSU losses (W).
    pub platform_w: f64,
    /// Static (leakage + always-on) package power per socket (W).
    pub pkg_static_w: f64,
    /// Dynamic core power at 1 GHz, full activity, per core (W).
    pub core_dyn_w: f64,
    /// Exponent of the core dynamic power law P ∝ f^exp (captures V·f
    /// scaling along the V/f curve).
    pub core_freq_exp: f64,
    /// Power of a halted/idle core (W).
    pub core_idle_w: f64,
    /// Multiplier on core dynamic power while executing AVX512.
    pub avx512_power_factor: f64,
    /// Activity factor of a busy-waiting (spinning) core.
    pub spin_activity: f64,
    /// Uncore (mesh, LLC, IMC) power per socket at 1 GHz uncore (W).
    pub uncore_w: f64,
    /// Exponent of the uncore power law.
    pub uncore_freq_exp: f64,
    /// Activity-independent fraction of uncore power (clocks gate poorly).
    pub uncore_base_frac: f64,
    /// Static DRAM power for the 12 × 8 GiB DIMM configuration (W).
    pub dram_static_w: f64,
    /// DRAM power per GB/s of traffic (W).
    pub dram_w_per_gbs: f64,
    /// Idle power per installed GPU (the paper notes the NVIDIA driver
    /// powers down the unused second V100) (W).
    pub gpu_idle_w: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        Self {
            platform_w: 80.0,
            pkg_static_w: 24.0,
            core_dyn_w: 0.366,
            core_freq_exp: 2.4,
            core_idle_w: 0.4,
            avx512_power_factor: 1.35,
            spin_activity: 0.55,
            uncore_w: 11.0,
            uncore_freq_exp: 2.0,
            uncore_base_frac: 0.5,
            dram_static_w: 8.0,
            dram_w_per_gbs: 0.25,
            gpu_idle_w: 10.0,
        }
    }
}

/// Hardware UFS control-loop parameters (see [`crate::hwufs`]).
#[derive(Debug, Clone)]
pub struct HwUfsParams {
    /// Control-loop period; ref \[7\] measured ~10 ms reaction on Skylake-SP.
    pub period_s: f64,
    /// Weight of memory demand in the sub-nominal target.
    pub mem_weight: f64,
    /// Memory utilisation at which the memory term saturates.
    pub mem_sat: f64,
    /// Weight of core busy fraction in the sub-nominal target.
    pub busy_weight: f64,
    /// Maximum ratio steps moved per control period.
    pub slew_ratio_steps: u8,
    /// Hysteresis below nominal (kHz) still treated as "at nominal": a few
    /// percent of AVX instructions blend the delivered frequency slightly
    /// under P1 without the firmware leaving max-uncore mode.
    pub nominal_margin_khz: u64,
}

impl Default for HwUfsParams {
    fn default() -> Self {
        Self {
            period_s: 0.010,
            mem_weight: 0.8,
            mem_sat: 0.45,
            busy_weight: 0.2,
            slew_ratio_steps: 2,
            nominal_margin_khz: 60_000,
        }
    }
}

/// Full configuration of a simulated node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Human-readable platform name.
    pub name: &'static str,
    /// Number of sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// CPU pstate table.
    pub pstates: PstateTable,
    /// Uncore ratio range in 100 MHz units (min, max).
    pub uncore_min_ratio: u8,
    /// See [`NodeConfig::uncore_min_ratio`].
    pub uncore_max_ratio: u8,
    /// Uncore frequency domains per socket. Skylake-SP exposes one package
    /// knob; TPMI parts (Granite Rapids) expose one per compute die. Each
    /// domain gets its own ratio-limit/perf-status register pair, firmware
    /// controller and share of the memory controllers. Clamped to
    /// `1..=`[`crate::msr::MAX_UNCORE_DOMAINS`] at node construction.
    pub uncore_domains: usize,
    /// Frequency of idle (halted) cores in kHz.
    pub idle_core_khz: u64,
    /// Number of installed GPUs.
    pub gpus: usize,
    /// Performance model coefficients.
    pub perf: PerfParams,
    /// Power model coefficients.
    pub power: PowerParams,
    /// Hardware UFS control loop parameters.
    pub hwufs: HwUfsParams,
    /// Relative sigma of run-to-run measurement noise applied to iteration
    /// durations and power (the paper averages 3 runs for this reason).
    pub noise_sigma: f64,
}

impl NodeConfig {
    /// The paper's compute node: Lenovo ThinkSystem SD530, 2 × Xeon Gold
    /// 6148 (20 cores, 2.4 GHz nominal), 12 × 8 GiB DDR4-2400, uncore
    /// 1.2–2.4 GHz.
    pub fn sd530_6148() -> Self {
        Self {
            name: "Lenovo SD530 / 2x Xeon Gold 6148",
            sockets: 2,
            cores_per_socket: 20,
            pstates: PstateTable::xeon_gold_6148(),
            uncore_min_ratio: 12,
            uncore_max_ratio: 24,
            uncore_domains: 1,
            idle_core_khz: 1_000_000,
            gpus: 0,
            perf: PerfParams::default(),
            power: PowerParams::default(),
            hwufs: HwUfsParams::default(),
            noise_sigma: 0.004,
        }
    }

    /// The paper's GPU node: 2 × Xeon Gold 6142M (16 cores, 2.6 GHz
    /// nominal) with two NVIDIA V100; same 1.2–2.4 GHz uncore range.
    pub fn gpu_node_6142m() -> Self {
        Self {
            name: "2x Xeon Gold 6142M + 2x V100",
            sockets: 2,
            cores_per_socket: 16,
            pstates: PstateTable::xeon_gold_6142m(),
            uncore_min_ratio: 12,
            uncore_max_ratio: 24,
            uncore_domains: 1,
            idle_core_khz: 1_000_000,
            gpus: 2,
            perf: PerfParams::default(),
            power: PowerParams::default(),
            hwufs: HwUfsParams::default(),
            noise_sigma: 0.004,
        }
    }

    /// Returns the configuration with `n` uncore domains per socket
    /// (clamped to the supported range).
    pub fn with_uncore_domains(mut self, n: usize) -> Self {
        self.uncore_domains = n.clamp(1, crate::msr::MAX_UNCORE_DOMAINS);
        self
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Uncore frequency in GHz for a ratio in 100 MHz units.
    pub fn uncore_ghz(&self, ratio: u8) -> f64 {
        ratio as f64 * 0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sd530_topology() {
        let c = NodeConfig::sd530_6148();
        assert_eq!(c.total_cores(), 40);
        assert_eq!(c.uncore_min_ratio, 12);
        assert_eq!(c.uncore_max_ratio, 24);
        assert!((c.uncore_ghz(24) - 2.4).abs() < 1e-12);
        assert_eq!(c.pstates.nominal_khz(), 2_400_000);
    }

    #[test]
    fn gpu_node_topology() {
        let c = NodeConfig::gpu_node_6142m();
        assert_eq!(c.total_cores(), 32);
        assert_eq!(c.gpus, 2);
        assert_eq!(c.pstates.nominal_khz(), 2_600_000);
    }
}
