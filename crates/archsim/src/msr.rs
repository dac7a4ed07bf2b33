//! Model Specific Register (MSR) file.
//!
//! The simulated node exposes the same MSR interface the EAR library uses on
//! real Skylake-SP hardware, with bit layouts taken from the Intel SDM
//! (vol. 4) so that driver-level code (ratio packing, RAPL unit decoding,
//! 32-bit energy counter wrap handling) is exercised for real.

use std::fmt;

/// MSR addresses used by the simulator (Intel SDM vol. 4, Skylake-SP).
pub mod addr {
    /// `IA32_MPERF`: fixed-frequency reference cycle counter.
    pub const IA32_MPERF: u32 = 0xE7;
    /// `IA32_APERF`: actual-frequency cycle counter.
    pub const IA32_APERF: u32 = 0xE8;
    /// `IA32_PERF_STATUS`: current pstate ratio (bits 15:8).
    pub const IA32_PERF_STATUS: u32 = 0x198;
    /// `IA32_PERF_CTL`: requested pstate ratio (bits 15:8).
    pub const IA32_PERF_CTL: u32 = 0x199;
    /// `IA32_ENERGY_PERF_BIAS`: EPB hint, bits 3:0 (0 = performance,
    /// 15 = power save).
    pub const IA32_ENERGY_PERF_BIAS: u32 = 0x1B0;
    /// `IA32_FIXED_CTR0`: instructions retired.
    pub const IA32_FIXED_CTR0: u32 = 0x309;
    /// `IA32_FIXED_CTR1`: core clock cycles (unhalted).
    pub const IA32_FIXED_CTR1: u32 = 0x30A;
    /// `IA32_FIXED_CTR2`: reference clock cycles (unhalted).
    pub const IA32_FIXED_CTR2: u32 = 0x30B;
    /// `MSR_RAPL_POWER_UNIT`: power/energy/time units (energy: bits 12:8).
    pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;
    /// `MSR_PKG_POWER_LIMIT`: package RAPL PL1. Bits 14:0 power limit in
    /// power units, bit 15 enable, bit 16 clamp, bits 23:17 time window
    /// (`2^Y · (1 + Z/4) · time_unit`, Y = bits 21:17, Z = bits 23:22).
    /// Only the PL1 half (lower 32 bits) is modelled; resets to 0
    /// (disabled), so an untouched node never throttles.
    pub const MSR_PKG_POWER_LIMIT: u32 = 0x610;
    /// `MSR_PKG_ENERGY_STATUS`: package energy accumulator (32-bit, wraps).
    pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
    /// `MSR_DRAM_ENERGY_STATUS`: DRAM energy accumulator (32-bit, wraps).
    pub const MSR_DRAM_ENERGY_STATUS: u32 = 0x619;
    /// `MSR_UNCORE_RATIO_LIMIT` (0x620): max ratio bits 6:0, min ratio bits
    /// 14:8, in units of 100 MHz. Writing min == max pins the uncore.
    /// On multi-die parts this legacy register aliases uncore domain 0 of
    /// the TPMI block (see [`tpmi_ratio_limit`]).
    pub const MSR_UNCORE_RATIO_LIMIT: u32 = 0x620;
    /// `MSR_UNCORE_PERF_STATUS` (0x621): current uncore ratio, bits 6:0.
    /// Aliases uncore domain 0 of the TPMI block ([`tpmi_perf_status`]).
    pub const MSR_UNCORE_PERF_STATUS: u32 = 0x621;
    /// U-box fixed counter control (Skylake-SP uncore).
    pub const MSR_U_PMON_UCLK_FIXED_CTL: u32 = 0x703;
    /// U-box fixed counter: uncore clock ticks.
    pub const MSR_U_PMON_UCLK_FIXED_CTR: u32 = 0x704;

    /// Base of the TPMI-style per-die uncore frequency block (Granite
    /// Rapids exposes per-domain ratio control through TPMI rather than a
    /// single package MSR; the simulator models the same shape as a block
    /// of per-domain register pairs). Domain `d` owns two registers:
    /// `TPMI_UFS_BASE + 2d` (ratio limit, 0x620 layout) and
    /// `TPMI_UFS_BASE + 2d + 1` (perf status, 0x621 layout). Domain 0 is
    /// an alias of the legacy 0x620/0x621 pair — both addresses decode to
    /// the same storage, so single-knob software and per-domain software
    /// observe each other's writes exactly as on hardware.
    pub const TPMI_UFS_BASE: u32 = 0x2000;

    /// TPMI ratio-limit register of uncore domain `d`.
    pub const fn tpmi_ratio_limit(domain: usize) -> u32 {
        TPMI_UFS_BASE + 2 * domain as u32
    }

    /// TPMI perf-status register of uncore domain `d`.
    pub const fn tpmi_perf_status(domain: usize) -> u32 {
        TPMI_UFS_BASE + 2 * domain as u32 + 1
    }
}

/// Most per-socket uncore frequency domains the model supports. Real parts
/// expose one (Skylake-SP package knob) to a handful (Granite Rapids
/// compute dies); four bounds the inline per-domain counter arrays.
pub const MAX_UNCORE_DOMAINS: usize = 4;

// The telemetry line carries one ratio-step counter per domain index.
const _: () = assert!(
    ear_trace::metrics::len(ear_trace::metrics::Metric::UfsRatioSteps) == MAX_UNCORE_DOMAINS
);

/// If `msr` is a ratio-limit register (legacy 0x620 or a TPMI domain
/// register), the uncore domain it controls.
pub const fn uncore_domain_of_ratio_limit(msr: u32) -> Option<usize> {
    if msr == addr::MSR_UNCORE_RATIO_LIMIT {
        return Some(0);
    }
    let span = 2 * MAX_UNCORE_DOMAINS as u32;
    if msr >= addr::TPMI_UFS_BASE && msr < addr::TPMI_UFS_BASE + span {
        let off = msr - addr::TPMI_UFS_BASE;
        if off.is_multiple_of(2) {
            return Some((off / 2) as usize);
        }
    }
    None
}

/// If `msr` is an uncore perf-status register (legacy 0x621 or a TPMI
/// domain register), the domain it reports.
pub const fn uncore_domain_of_perf_status(msr: u32) -> Option<usize> {
    if msr == addr::MSR_UNCORE_PERF_STATUS {
        return Some(0);
    }
    let span = 2 * MAX_UNCORE_DOMAINS as u32;
    if msr >= addr::TPMI_UFS_BASE && msr < addr::TPMI_UFS_BASE + span {
        let off = msr - addr::TPMI_UFS_BASE;
        if off % 2 == 1 {
            return Some((off / 2) as usize);
        }
    }
    None
}

/// Error type for MSR access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrError {
    /// The register is not implemented by this model (a real RDMSR would #GP).
    Unimplemented(u32),
    /// The register exists but is read-only (a real WRMSR would #GP).
    ReadOnly(u32),
    /// A written value violates the register's constraints.
    InvalidValue {
        /// The register address.
        msr: u32,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for MsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsrError::Unimplemented(a) => write!(f, "MSR {a:#x} not implemented"),
            MsrError::ReadOnly(a) => write!(f, "MSR {a:#x} is read-only"),
            MsrError::InvalidValue { msr, value } => {
                write!(f, "invalid value {value:#x} for MSR {msr:#x}")
            }
        }
    }
}

impl std::error::Error for MsrError {}

impl From<MsrError> for ear_errors::EarError {
    fn from(e: MsrError) -> Self {
        ear_errors::EarError::Msr(e.to_string())
    }
}

/// Default RAPL energy-status unit exponent on Skylake-SP: energy counts in
/// units of 1 / 2^14 J ≈ 61 µJ.
pub const DEFAULT_ENERGY_UNIT_EXP: u64 = 14;

/// Number of registers in the model (dense storage slots): the 16 MSRs the
/// EAR runtime touches plus one ratio-limit/perf-status pair for each TPMI
/// uncore domain beyond domain 0 (domain 0 shares the legacy 0x620/0x621
/// slots).
const REG_COUNT: usize = 16 + 2 * (MAX_UNCORE_DOMAINS - 1);

/// Maps an MSR address to its dense storage slot. The register set is fixed
/// (a match compiles to a jump table plus one range test), replacing the
/// former `HashMap`, whose hashing cost more than the modelled work while
/// the register file sat on the per-quantum path. The node now touches it
/// once per `run_phase`/`run_idle` call: it reads EPB and the ratio limits
/// when it plans the call and publishes the status and counter registers
/// when the call returns. TPMI domain-0 registers decode to the SAME slots
/// as the legacy 0x620/0x621 pair, which is what makes the alias exact:
/// there is only one storage cell, not a mirrored copy.
const fn slot(msr: u32) -> Option<usize> {
    match msr {
        addr::IA32_MPERF => Some(0),
        addr::IA32_APERF => Some(1),
        addr::IA32_PERF_STATUS => Some(2),
        addr::IA32_PERF_CTL => Some(3),
        addr::IA32_ENERGY_PERF_BIAS => Some(4),
        addr::IA32_FIXED_CTR0 => Some(5),
        addr::IA32_FIXED_CTR1 => Some(6),
        addr::IA32_FIXED_CTR2 => Some(7),
        addr::MSR_RAPL_POWER_UNIT => Some(8),
        addr::MSR_PKG_ENERGY_STATUS => Some(9),
        addr::MSR_DRAM_ENERGY_STATUS => Some(10),
        addr::MSR_UNCORE_RATIO_LIMIT => Some(11),
        addr::MSR_UNCORE_PERF_STATUS => Some(12),
        addr::MSR_U_PMON_UCLK_FIXED_CTL => Some(13),
        addr::MSR_U_PMON_UCLK_FIXED_CTR => Some(14),
        // Appended after the original 15 so the TPMI block keeps its slots.
        addr::MSR_PKG_POWER_LIMIT => Some(15 + 2 * (MAX_UNCORE_DOMAINS - 1)),
        _ => {
            let span = 2 * MAX_UNCORE_DOMAINS as u32;
            if msr >= addr::TPMI_UFS_BASE && msr < addr::TPMI_UFS_BASE + span {
                let off = (msr - addr::TPMI_UFS_BASE) as usize;
                if off < 2 {
                    // Domain 0: alias of MSR_UNCORE_RATIO_LIMIT / _PERF_STATUS.
                    Some(11 + off)
                } else {
                    Some(15 + (off - 2))
                }
            } else {
                None
            }
        }
    }
}

/// Per-socket MSR register file.
///
/// Read-only status registers are updated by the simulator through
/// [`MsrFile::poke`]; software (EARL) uses [`MsrFile::read`] /
/// [`MsrFile::write`], which enforce the same access rules as the hardware.
#[derive(Debug, Clone)]
pub struct MsrFile {
    regs: [u64; REG_COUNT],
    /// Instantiated uncore domains. TPMI registers of domains at or beyond
    /// this count are absent, exactly as undiscovered TPMI features #GP on
    /// hardware. Always at least 1.
    domains: u8,
}

impl MsrFile {
    /// Creates a single-uncore-domain register file with Skylake-SP reset
    /// values, given the platform's uncore ratio range (in 100 MHz units).
    pub fn new(uncore_min_ratio: u8, uncore_max_ratio: u8) -> Self {
        Self::with_domains(uncore_min_ratio, uncore_max_ratio, 1)
    }

    /// Creates a register file exposing `domains` TPMI uncore domains, each
    /// reset to the same ratio range. `domains` is clamped to
    /// `1..=MAX_UNCORE_DOMAINS`.
    pub fn with_domains(uncore_min_ratio: u8, uncore_max_ratio: u8, domains: usize) -> Self {
        let domains = domains.clamp(1, MAX_UNCORE_DOMAINS);
        let mut m = Self {
            regs: [0; REG_COUNT],
            domains: domains as u8,
        };
        // EPB resets to 6 ("balanced") on most shipped firmware.
        m.poke(addr::IA32_ENERGY_PERF_BIAS, 6);
        // Energy status unit in bits 12:8; power unit (bits 3:0) and time
        // unit (bits 19:16) carry typical values but are unused here.
        m.poke(
            addr::MSR_RAPL_POWER_UNIT,
            (DEFAULT_ENERGY_UNIT_EXP << 8) | 0x3 | (0xA << 16),
        );
        for d in 0..domains {
            // Domain 0 lands in the legacy 0x620/0x621 slots via the alias.
            m.poke(
                addr::tpmi_ratio_limit(d),
                pack_uncore_ratio_limit(uncore_min_ratio, uncore_max_ratio),
            );
            m.poke(addr::tpmi_perf_status(d), uncore_max_ratio as u64);
        }
        m
    }

    /// Number of TPMI uncore domains this register file exposes.
    pub fn uncore_domains(&self) -> usize {
        self.domains as usize
    }

    /// True when `msr` is a TPMI uncore register of a domain this part does
    /// not instantiate (such accesses #GP like any unimplemented MSR).
    fn tpmi_absent(&self, msr: u32) -> bool {
        let span = 2 * MAX_UNCORE_DOMAINS as u32;
        msr >= addr::TPMI_UFS_BASE
            && msr < addr::TPMI_UFS_BASE + span
            && ((msr - addr::TPMI_UFS_BASE) / 2) as usize >= self.domains as usize
    }

    /// RDMSR. Errors on unimplemented registers like real hardware (#GP).
    pub fn read(&self, msr: u32) -> Result<u64, MsrError> {
        if self.tpmi_absent(msr) {
            return Err(MsrError::Unimplemented(msr));
        }
        slot(msr)
            .map(|s| self.regs[s])
            .ok_or(MsrError::Unimplemented(msr))
    }

    /// WRMSR with the access rules software sees: status registers are
    /// read-only, ratio-limit registers (legacy and per-domain TPMI) are
    /// validated.
    pub fn write(&mut self, msr: u32, value: u64) -> Result<(), MsrError> {
        if self.tpmi_absent(msr) {
            return Err(MsrError::Unimplemented(msr));
        }
        match msr {
            addr::IA32_PERF_STATUS
            | addr::MSR_PKG_ENERGY_STATUS
            | addr::MSR_DRAM_ENERGY_STATUS
            | addr::MSR_RAPL_POWER_UNIT => return Err(MsrError::ReadOnly(msr)),
            addr::IA32_ENERGY_PERF_BIAS if value > 0xF => {
                return Err(MsrError::InvalidValue { msr, value });
            }
            // Enabling PL1 with a zero limit field would command 0 W —
            // firmware rejects the write rather than halting the package.
            addr::MSR_PKG_POWER_LIMIT
                if value & PKG_POWER_LIMIT_ENABLE != 0 && value & 0x7FFF == 0 =>
            {
                return Err(MsrError::InvalidValue { msr, value });
            }
            _ => {
                if uncore_domain_of_perf_status(msr).is_some() {
                    return Err(MsrError::ReadOnly(msr));
                }
                if uncore_domain_of_ratio_limit(msr).is_some() {
                    let (min, max) = unpack_uncore_ratio_limit(value);
                    if min > max || max == 0 {
                        return Err(MsrError::InvalidValue { msr, value });
                    }
                }
            }
        }
        match slot(msr) {
            Some(s) => {
                self.regs[s] = value;
                Ok(())
            }
            None => Err(MsrError::Unimplemented(msr)),
        }
    }

    /// Simulator-side read of a register, bypassing software access rules
    /// (this is "the hardware" sampling its own wires, which cannot #GP).
    /// Unmodelled addresses read as zero.
    pub fn peek(&self, msr: u32) -> u64 {
        slot(msr).map_or(0, |s| self.regs[s])
    }

    /// Simulator-side update of a register, bypassing software access rules
    /// (this is "the hardware" mutating its own status registers). Panics
    /// on addresses outside the modelled set: hardware has no such wire.
    pub fn poke(&mut self, msr: u32, value: u64) {
        match slot(msr) {
            Some(s) => self.regs[s] = value,
            None => panic!("poke of unimplemented MSR {msr:#x}"),
        }
    }

    /// Simulator-side accumulate-with-wrap for a counter register. The RAPL
    /// energy counters are 32 bits wide; the fixed counters are modelled at
    /// their architectural 48-bit width.
    pub fn accumulate(&mut self, msr: u32, delta: u64, width_bits: u32) {
        let mask = if width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << width_bits) - 1
        };
        let cur = self.read(msr).unwrap_or(0);
        self.poke(msr, cur.wrapping_add(delta) & mask);
    }
}

/// Packs (min, max) 100 MHz ratios into the `MSR_UNCORE_RATIO_LIMIT` layout.
pub fn pack_uncore_ratio_limit(min_ratio: u8, max_ratio: u8) -> u64 {
    ((min_ratio as u64 & 0x7F) << 8) | (max_ratio as u64 & 0x7F)
}

/// Unpacks `MSR_UNCORE_RATIO_LIMIT` into (min, max) 100 MHz ratios.
pub fn unpack_uncore_ratio_limit(value: u64) -> (u8, u8) {
    let max = (value & 0x7F) as u8;
    let min = ((value >> 8) & 0x7F) as u8;
    (min, max)
}

/// Packs a CPU frequency ratio (100 MHz units) into `IA32_PERF_CTL`
/// (bits 15:8).
pub fn pack_perf_ctl(ratio: u8) -> u64 {
    (ratio as u64) << 8
}

/// Extracts the CPU frequency ratio from `IA32_PERF_CTL`/`IA32_PERF_STATUS`.
pub fn unpack_perf_ratio(value: u64) -> u8 {
    ((value >> 8) & 0xFF) as u8
}

/// Decodes the RAPL energy unit (joules per count) from
/// `MSR_RAPL_POWER_UNIT`.
pub fn rapl_energy_unit_joules(power_unit_msr: u64) -> f64 {
    let exp = (power_unit_msr >> 8) & 0x1F;
    1.0 / (1u64 << exp) as f64
}

/// Decodes the RAPL power unit (watts per count, bits 3:0) from
/// `MSR_RAPL_POWER_UNIT`. The Skylake reset value 0x3 gives 1/8 W.
pub fn rapl_power_unit_watts(power_unit_msr: u64) -> f64 {
    1.0 / (1u64 << (power_unit_msr & 0xF)) as f64
}

/// Decodes the RAPL time unit (seconds per count, bits 19:16) from
/// `MSR_RAPL_POWER_UNIT`. The Skylake reset value 0xA gives 1/1024 s.
pub fn rapl_time_unit_seconds(power_unit_msr: u64) -> f64 {
    1.0 / (1u64 << ((power_unit_msr >> 16) & 0xF)) as f64
}

/// PL1 enable bit in `MSR_PKG_POWER_LIMIT`.
pub const PKG_POWER_LIMIT_ENABLE: u64 = 1 << 15;

/// PL1 clamp bit in `MSR_PKG_POWER_LIMIT` (allow the limiter to go below
/// the OS-requested pstate — the simulator always clamps, but the bit is
/// kept in the encoding so software sees the SDM layout).
pub const PKG_POWER_LIMIT_CLAMP: u64 = 1 << 16;

/// Encodes a PL1 power limit (W) and averaging window (s) into the
/// `MSR_PKG_POWER_LIMIT` layout, with enable + clamp set. The limit is
/// rounded to the nearest power-unit count (floor 1 count); the window to
/// the nearest representable `2^Y · (1 + Z/4) · time_unit` value, scanning
/// (Y, Z) in a fixed order so the encoding is deterministic.
pub fn pack_pkg_power_limit(limit_w: f64, window_s: f64, power_unit_msr: u64) -> u64 {
    let pu = rapl_power_unit_watts(power_unit_msr);
    let counts = ((limit_w / pu).round() as u64).clamp(1, 0x7FFF);
    let tu = rapl_time_unit_seconds(power_unit_msr);
    let mut best = (0u64, 0u64);
    let mut best_err = f64::INFINITY;
    for y in 0..32u64 {
        for z in 0..4u64 {
            let w = (1u64 << y) as f64 * (1.0 + z as f64 / 4.0) * tu;
            let err = (w - window_s).abs();
            if err < best_err {
                best_err = err;
                best = (y, z);
            }
        }
    }
    counts | PKG_POWER_LIMIT_ENABLE | PKG_POWER_LIMIT_CLAMP | (best.0 << 17) | (best.1 << 22)
}

/// Decodes `MSR_PKG_POWER_LIMIT` into (limit watts, window seconds,
/// enabled) using the units programmed in `MSR_RAPL_POWER_UNIT`.
pub fn unpack_pkg_power_limit(value: u64, power_unit_msr: u64) -> (f64, f64, bool) {
    let limit_w = (value & 0x7FFF) as f64 * rapl_power_unit_watts(power_unit_msr);
    let y = (value >> 17) & 0x1F;
    let z = (value >> 22) & 0x3;
    let window_s =
        (1u64 << y) as f64 * (1.0 + z as f64 / 4.0) * rapl_time_unit_seconds(power_unit_msr);
    (limit_w, window_s, value & PKG_POWER_LIMIT_ENABLE != 0)
}

/// Computes the wrap-safe delta between two reads of a 32-bit RAPL energy
/// counter.
pub fn rapl_counter_delta(before: u64, after: u64) -> u64 {
    const WIDTH: u64 = 1 << 32;
    let b = before & (WIDTH - 1);
    let a = after & (WIDTH - 1);
    if a >= b {
        a - b
    } else {
        a + WIDTH - b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncore_ratio_limit_roundtrip() {
        let v = pack_uncore_ratio_limit(12, 24);
        assert_eq!(v, (12 << 8) | 24);
        assert_eq!(unpack_uncore_ratio_limit(v), (12, 24));
    }

    #[test]
    fn reset_values_match_skylake() {
        let m = MsrFile::new(12, 24);
        let (min, max) = unpack_uncore_ratio_limit(m.read(addr::MSR_UNCORE_RATIO_LIMIT).unwrap());
        assert_eq!((min, max), (12, 24));
        let unit = rapl_energy_unit_joules(m.read(addr::MSR_RAPL_POWER_UNIT).unwrap());
        assert!((unit - 1.0 / 16384.0).abs() < 1e-12);
        assert_eq!(m.read(addr::IA32_ENERGY_PERF_BIAS).unwrap(), 6);
    }

    #[test]
    fn status_registers_are_read_only() {
        let mut m = MsrFile::new(12, 24);
        assert_eq!(
            m.write(addr::MSR_PKG_ENERGY_STATUS, 1),
            Err(MsrError::ReadOnly(addr::MSR_PKG_ENERGY_STATUS))
        );
        assert_eq!(
            m.write(addr::IA32_PERF_STATUS, 1),
            Err(MsrError::ReadOnly(addr::IA32_PERF_STATUS))
        );
    }

    #[test]
    fn invalid_uncore_limit_rejected() {
        let mut m = MsrFile::new(12, 24);
        // min > max is invalid.
        let bad = pack_uncore_ratio_limit(20, 15);
        assert!(matches!(
            m.write(addr::MSR_UNCORE_RATIO_LIMIT, bad),
            Err(MsrError::InvalidValue { .. })
        ));
        // Pinning min == max is explicitly allowed (paper §IV).
        let pinned = pack_uncore_ratio_limit(18, 18);
        assert!(m.write(addr::MSR_UNCORE_RATIO_LIMIT, pinned).is_ok());
    }

    #[test]
    fn epb_range_checked() {
        let mut m = MsrFile::new(12, 24);
        assert!(m.write(addr::IA32_ENERGY_PERF_BIAS, 15).is_ok());
        assert!(m.write(addr::IA32_ENERGY_PERF_BIAS, 16).is_err());
    }

    #[test]
    fn unimplemented_msr_faults() {
        let m = MsrFile::new(12, 24);
        assert_eq!(m.read(0xDEAD), Err(MsrError::Unimplemented(0xDEAD)));
    }

    #[test]
    fn accumulate_wraps_at_width() {
        let mut m = MsrFile::new(12, 24);
        m.poke(addr::MSR_PKG_ENERGY_STATUS, (1u64 << 32) - 10);
        m.accumulate(addr::MSR_PKG_ENERGY_STATUS, 25, 32);
        assert_eq!(m.read(addr::MSR_PKG_ENERGY_STATUS).unwrap(), 15);
    }

    #[test]
    fn rapl_delta_handles_wrap() {
        assert_eq!(rapl_counter_delta(100, 250), 150);
        assert_eq!(rapl_counter_delta((1 << 32) - 5, 10), 15);
    }

    #[test]
    fn pkg_power_limit_resets_disabled_and_roundtrips() {
        let mut m = MsrFile::new(12, 24);
        let unit = m.read(addr::MSR_RAPL_POWER_UNIT).unwrap();
        // Reset state: disabled, so an untouched node never throttles.
        let (_, _, enabled) =
            unpack_pkg_power_limit(m.read(addr::MSR_PKG_POWER_LIMIT).unwrap(), unit);
        assert!(!enabled);
        // 140 W over a 1 s window round-trips exactly: 140/0.125 = 1120
        // counts, 1 s = 2^10 time units (Y=10, Z=0).
        let v = pack_pkg_power_limit(140.0, 1.0, unit);
        m.write(addr::MSR_PKG_POWER_LIMIT, v).unwrap();
        let (w, s, en) = unpack_pkg_power_limit(m.read(addr::MSR_PKG_POWER_LIMIT).unwrap(), unit);
        assert!((w - 140.0).abs() < 1e-9, "{w}");
        assert!((s - 1.0).abs() < 1e-9, "{s}");
        assert!(en);
        // Fractional windows hit the 1+Z/4 mantissa: 2.5 s = 2^1 · 1.25.
        let (_, s, _) = unpack_pkg_power_limit(pack_pkg_power_limit(100.0, 2.5, unit), unit);
        assert!((s - 2.5).abs() < 1e-9, "{s}");
    }

    #[test]
    fn pkg_power_limit_enable_with_zero_limit_rejected() {
        let mut m = MsrFile::new(12, 24);
        assert!(matches!(
            m.write(addr::MSR_PKG_POWER_LIMIT, PKG_POWER_LIMIT_ENABLE),
            Err(MsrError::InvalidValue { .. })
        ));
        // Disabled writes (any limit field) and enabled non-zero limits pass.
        assert!(m.write(addr::MSR_PKG_POWER_LIMIT, 0).is_ok());
        assert!(m
            .write(addr::MSR_PKG_POWER_LIMIT, PKG_POWER_LIMIT_ENABLE | 1)
            .is_ok());
    }

    #[test]
    fn rapl_unit_decoders_match_reset_values() {
        let m = MsrFile::new(12, 24);
        let unit = m.read(addr::MSR_RAPL_POWER_UNIT).unwrap();
        assert!((rapl_power_unit_watts(unit) - 0.125).abs() < 1e-12);
        assert!((rapl_time_unit_seconds(unit) - 1.0 / 1024.0).abs() < 1e-15);
    }

    #[test]
    fn perf_ctl_ratio_roundtrip() {
        assert_eq!(unpack_perf_ratio(pack_perf_ctl(24)), 24);
        assert_eq!(unpack_perf_ratio(pack_perf_ctl(10)), 10);
    }

    #[test]
    fn tpmi_domain0_aliases_legacy_pair() {
        let mut m = MsrFile::new(12, 24);
        // Write through the legacy address, read back through TPMI (and
        // vice versa): one storage cell, two addresses.
        m.write(
            addr::MSR_UNCORE_RATIO_LIMIT,
            pack_uncore_ratio_limit(15, 20),
        )
        .unwrap();
        assert_eq!(
            m.read(addr::tpmi_ratio_limit(0)).unwrap(),
            pack_uncore_ratio_limit(15, 20)
        );
        m.write(addr::tpmi_ratio_limit(0), pack_uncore_ratio_limit(18, 18))
            .unwrap();
        assert_eq!(
            unpack_uncore_ratio_limit(m.read(addr::MSR_UNCORE_RATIO_LIMIT).unwrap()),
            (18, 18)
        );
        assert_eq!(
            m.read(addr::tpmi_perf_status(0)).unwrap(),
            m.read(addr::MSR_UNCORE_PERF_STATUS).unwrap()
        );
    }

    #[test]
    fn tpmi_absent_domains_fault() {
        let mut one = MsrFile::new(12, 24);
        assert_eq!(
            one.read(addr::tpmi_ratio_limit(1)),
            Err(MsrError::Unimplemented(addr::tpmi_ratio_limit(1)))
        );
        assert!(one.write(addr::tpmi_ratio_limit(1), 1).is_err());

        let two = MsrFile::with_domains(12, 24, 2);
        assert_eq!(two.uncore_domains(), 2);
        assert_eq!(
            unpack_uncore_ratio_limit(two.read(addr::tpmi_ratio_limit(1)).unwrap()),
            (12, 24)
        );
        assert_eq!(two.read(addr::tpmi_perf_status(1)).unwrap(), 24);
        assert_eq!(
            two.read(addr::tpmi_ratio_limit(2)),
            Err(MsrError::Unimplemented(addr::tpmi_ratio_limit(2)))
        );
    }

    #[test]
    fn tpmi_perf_status_registers_read_only() {
        let mut m = MsrFile::with_domains(12, 24, 3);
        for d in 0..3 {
            assert_eq!(
                m.write(addr::tpmi_perf_status(d), 1),
                Err(MsrError::ReadOnly(addr::tpmi_perf_status(d)))
            );
        }
        // Per-domain ratio limits keep the 0x620 validation rules.
        assert!(matches!(
            m.write(addr::tpmi_ratio_limit(2), pack_uncore_ratio_limit(20, 15)),
            Err(MsrError::InvalidValue { .. })
        ));
    }

    #[test]
    fn domain_decoders_cover_legacy_and_tpmi() {
        assert_eq!(
            uncore_domain_of_ratio_limit(addr::MSR_UNCORE_RATIO_LIMIT),
            Some(0)
        );
        assert_eq!(
            uncore_domain_of_perf_status(addr::MSR_UNCORE_PERF_STATUS),
            Some(0)
        );
        for d in 0..MAX_UNCORE_DOMAINS {
            assert_eq!(
                uncore_domain_of_ratio_limit(addr::tpmi_ratio_limit(d)),
                Some(d)
            );
            assert_eq!(
                uncore_domain_of_perf_status(addr::tpmi_perf_status(d)),
                Some(d)
            );
            assert_eq!(
                uncore_domain_of_perf_status(addr::tpmi_ratio_limit(d)),
                None
            );
            assert_eq!(
                uncore_domain_of_ratio_limit(addr::tpmi_perf_status(d)),
                None
            );
        }
        assert_eq!(
            uncore_domain_of_ratio_limit(addr::tpmi_ratio_limit(MAX_UNCORE_DOMAINS)),
            None
        );
    }
}
