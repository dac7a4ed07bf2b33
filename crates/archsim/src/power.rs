//! Analytic power model.
//!
//! Node DC power decomposes into package power (cores + uncore + static),
//! DRAM power, accelerator power and a constant platform baseline:
//!
//! ```text
//! P_core   = Σ_active  core_dyn_w · f_c^exp · activity · avx_factor
//!          + Σ_idle    core_idle_w
//! P_unc    = uncore_w · f_u^exp · (base_frac + (1−base_frac) · mem_util)
//! P_pkg    = pkg_static_w + P_core + P_unc          (per socket)
//! P_dram   = dram_static_w + dram_w_per_gbs · GB/s
//! P_dc     = Σ_sockets P_pkg + P_dram + platform_w + P_gpu
//! ```
//!
//! RAPL's PKG domain accumulates only `P_pkg`; the Intel Node Manager (DC)
//! accumulates `P_dc`. The constant platform/DRAM share is exactly what
//! makes package-relative savings exceed DC-relative savings in the paper's
//! Table VII.

use crate::config::PowerParams;

/// Instantaneous power state of one socket, as seen by the power model.
#[derive(Debug, Clone, Copy)]
pub struct SocketPowerInput {
    /// Number of cores actively executing (work or spin).
    pub active_cores: usize,
    /// Total cores in the socket.
    pub total_cores: usize,
    /// Effective core frequency of active cores (GHz, AVX-blended).
    pub f_core_ghz: f64,
    /// Activity factor of the active cores in [0, 1].
    pub activity: f64,
    /// Fraction of instructions that are AVX512.
    pub avx512_fraction: f64,
    /// Current uncore frequency (GHz).
    pub f_uncore_ghz: f64,
    /// Memory utilisation: achieved GB/s over peak GB/s, in [0, 1].
    pub mem_util: f64,
}

/// Core power of one socket (W).
pub fn core_power(p: &PowerParams, s: &SocketPowerInput) -> f64 {
    let avx_factor = 1.0 + (p.avx512_power_factor - 1.0) * s.avx512_fraction;
    let dyn_per_core = p.core_dyn_w * s.f_core_ghz.powf(p.core_freq_exp) * s.activity * avx_factor;
    let idle = (s.total_cores - s.active_cores.min(s.total_cores)) as f64 * p.core_idle_w;
    s.active_cores.min(s.total_cores) as f64 * dyn_per_core + idle
}

/// Uncore power of one socket (W).
pub fn uncore_power(p: &PowerParams, f_uncore_ghz: f64, mem_util: f64) -> f64 {
    let act = p.uncore_base_frac + (1.0 - p.uncore_base_frac) * mem_util.clamp(0.0, 1.0);
    p.uncore_w * f_uncore_ghz.powf(p.uncore_freq_exp) * act
}

/// Uncore power of one frequency domain (W): the socket's uncore capacity
/// `uncore_w` splits evenly across its `domains` dies, each clocking and
/// gating independently. With `domains == 1` this is bit-identical to
/// [`uncore_power`] (`uncore_w / 1.0` is exact).
pub fn uncore_domain_power(
    p: &PowerParams,
    domains: usize,
    f_uncore_ghz: f64,
    mem_util: f64,
) -> f64 {
    let act = p.uncore_base_frac + (1.0 - p.uncore_base_frac) * mem_util.clamp(0.0, 1.0);
    p.uncore_w / domains.max(1) as f64 * f_uncore_ghz.powf(p.uncore_freq_exp) * act
}

/// Package (RAPL PKG domain) power of one socket (W).
pub fn pkg_power(p: &PowerParams, s: &SocketPowerInput) -> f64 {
    p.pkg_static_w + core_power(p, s) + uncore_power(p, s.f_uncore_ghz, s.mem_util)
}

/// Package power without its uncore term: `pkg_static_w + P_core`. The
/// node adds the uncore power it has summed over domains with
/// [`uncore_domain_power`]; `pkg_base_power(..) + uncore_w` associates
/// exactly like [`pkg_power`]. `s.f_uncore_ghz` and `s.mem_util` are
/// not read.
pub fn pkg_base_power(p: &PowerParams, s: &SocketPowerInput) -> f64 {
    p.pkg_static_w + core_power(p, s)
}

/// DRAM power of the node (W) for a given achieved traffic.
pub fn dram_power(p: &PowerParams, gbs: f64) -> f64 {
    p.dram_static_w + p.dram_w_per_gbs * gbs.max(0.0)
}

/// Accelerator power (W): per-workload active draw plus idle draw for
/// installed-but-unused GPUs.
pub fn gpu_power(p: &PowerParams, installed: usize, active_draw_w: f64) -> f64 {
    installed as f64 * p.gpu_idle_w + active_draw_w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn socket(f_core: f64, f_unc: f64, mem_util: f64) -> SocketPowerInput {
        SocketPowerInput {
            active_cores: 20,
            total_cores: 20,
            f_core_ghz: f_core,
            activity: 1.0,
            avx512_fraction: 0.0,
            f_uncore_ghz: f_unc,
            mem_util,
        }
    }

    #[test]
    fn pkg_power_plausible_for_6148() {
        // A busy Xeon 6148 socket lands near its 150 W TDP at nominal.
        let p = PowerParams::default();
        let w = pkg_power(&p, &socket(2.4, 2.4, 0.3));
        assert!(w > 100.0 && w < 160.0, "pkg power {w} W");
    }

    #[test]
    fn power_monotone_in_core_frequency() {
        let p = PowerParams::default();
        let lo = pkg_power(&p, &socket(1.2, 2.4, 0.3));
        let hi = pkg_power(&p, &socket(2.4, 2.4, 0.3));
        assert!(hi > lo);
    }

    #[test]
    fn power_monotone_in_uncore_frequency() {
        let p = PowerParams::default();
        let lo = pkg_power(&p, &socket(2.4, 1.2, 0.3));
        let hi = pkg_power(&p, &socket(2.4, 2.4, 0.3));
        assert!(hi > lo);
        // An uncore swing of 1.2 GHz should be worth tens of watts per
        // socket (Hackenberg et al. measured 15–40 W on comparable parts).
        assert!(
            hi - lo > 10.0 && hi - lo < 60.0,
            "uncore swing {} W",
            hi - lo
        );
    }

    #[test]
    fn avx512_draws_more() {
        let p = PowerParams::default();
        let mut s = socket(2.2, 2.4, 0.3);
        let scalar = pkg_power(&p, &s);
        s.avx512_fraction = 1.0;
        let avx = pkg_power(&p, &s);
        assert!(avx > scalar * 1.05);
    }

    #[test]
    fn idle_socket_is_cheap() {
        let p = PowerParams::default();
        let mut s = socket(2.4, 1.2, 0.0);
        s.active_cores = 0;
        let w = pkg_power(&p, &s);
        assert!(w < 55.0, "idle pkg {w} W");
    }

    #[test]
    fn dram_power_scales_with_traffic() {
        let p = PowerParams::default();
        assert!((dram_power(&p, 0.0) - p.dram_static_w).abs() < 1e-12);
        assert!(dram_power(&p, 100.0) > dram_power(&p, 10.0));
    }

    #[test]
    fn gpu_power_includes_idle_boards() {
        let p = PowerParams::default();
        // Two installed GPUs, one drawing 100 W.
        let w = gpu_power(&p, 2, 100.0);
        assert!((w - (2.0 * p.gpu_idle_w + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn uncore_activity_floor() {
        // Even with zero traffic the uncore draws its base fraction.
        let p = PowerParams::default();
        let idle = uncore_power(&p, 2.4, 0.0);
        let busy = uncore_power(&p, 2.4, 1.0);
        assert!(idle > 0.4 * busy);
        assert!(idle < busy);
    }

    #[test]
    fn single_domain_uncore_power_is_bit_identical() {
        let p = PowerParams::default();
        for f in [1.2, 1.7, 2.4] {
            for util in [0.0, 0.3, 1.0] {
                // Bitwise equality, not approximate: N=1 must not perturb
                // the energy integration.
                assert_eq!(
                    uncore_power(&p, f, util),
                    uncore_domain_power(&p, 1, f, util)
                );
            }
        }
        let s = socket(2.4, 2.4, 0.3);
        let unc = uncore_domain_power(&p, 1, s.f_uncore_ghz, s.mem_util);
        assert_eq!(pkg_power(&p, &s), pkg_base_power(&p, &s) + (0.0 + unc));
    }

    #[test]
    fn down_scaling_one_domain_saves_its_share() {
        let p = PowerParams::default();
        let both_hi = uncore_domain_power(&p, 2, 2.4, 0.3) + uncore_domain_power(&p, 2, 2.4, 0.3);
        let one_lo = uncore_domain_power(&p, 2, 2.4, 0.3) + uncore_domain_power(&p, 2, 1.2, 0.0);
        // Matches the whole-socket figure at equal frequency...
        assert!((both_hi - uncore_power(&p, 2.4, 0.3)).abs() < 1e-12);
        // ...and dropping the idle die saves a meaningful slice.
        assert!(both_hi - one_lo > 5.0, "saving {} W", both_hi - one_lo);
    }
}
