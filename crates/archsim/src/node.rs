//! The simulated node.
//!
//! A [`Node`] owns two (configurable) sockets, each with its own MSR file
//! and firmware UFS controller, plus DRAM, optional GPUs, an INM energy
//! meter and the master clock. Software (EARL) interacts with it exactly as
//! on real hardware: it writes `IA32_PERF_CTL` and `MSR_UNCORE_RATIO_LIMIT`,
//! and reads counters/energy through [`Node::snapshot`].
//!
//! Execution is demand-driven: [`Node::run_phase`] consumes a
//! [`PhaseDemand`] and advances simulated time in hardware-control-loop
//! quanta (10 ms), so the firmware UFS reacts *during* a phase and power is
//! integrated against the uncore frequency actually in effect — mid-phase
//! uncore transitions cost/save real energy, as on hardware.
//!
//! Each call steps its quanta through a `QuantumPlan`: the model terms are
//! evaluated once per call, once per effective pstate or once per change
//! of the uncore ratios, and a quantum only adds to the accumulators and
//! advances the UFS slew timer, the PL1 limiter, the INM meter and the
//! clock. Once every firmware UFS controller has settled and no PL1 limit
//! is armed, every further full quantum repeats the same adds, so the
//! call jumps the whole settled run at once: each accumulator, the INM
//! meter, the clock and the loop's own time variables get
//! [`repeat_add`], which reproduces the quantum-by-quantum sums bit for
//! bit. Software reads MSRs only between calls, so the status and counter
//! MSR views are published once, when a call that stepped time returns
//! ([`Socket`]'s `publish_msrs`), with the values the last quantum leaves.

use crate::config::NodeConfig;
use crate::counters::{CounterSnapshot, SocketCounters, MPERF_SENTINEL_KHZ};
use crate::demand::PhaseDemand;
use crate::hwufs::{HwUfsController, HwUfsInput};
use crate::inm::Inm;
use crate::msr::{self, addr, MsrError, MsrFile, MAX_UNCORE_DOMAINS};
use crate::perf;
use crate::power::{self, SocketPowerInput};
use crate::pstate::{Pstate, PstateTable};
use crate::repeat::repeat_add;
use crate::rng::Xoshiro256;
use crate::time::{Clock, SimTime};
use ear_trace::metrics::{self, Metric};

/// Duty cycle at which OS-idle cores wake for housekeeping; they contribute
/// this fraction of core-seconds to APERF/MPERF (halted cores do not tick
/// those MSRs at all).
const IDLE_HOUSEKEEPING_DUTY: f64 = 0.02;

/// CPI of a busy-wait loop (MPI polling, `cudaStreamSynchronize`).
/// Public because workload calibration must account for spin instructions
/// when inverting the CPI target.
pub const SPIN_CPI: f64 = 0.5;

/// RAPL PL1 hysteresis: the limiter releases one throttle step only once
/// the running average has fallen below this fraction of the limit, so the
/// effective pstate does not chatter around the cap.
const RAPL_LIFT_FRACTION: f64 = 0.98;

/// Full quanta a settled run must span before a call jumps it: shorter
/// runs step literally, which costs less than sizing the jump.
const JUMP_MIN_QUANTA: u64 = 8;

/// Floating-point accumulators behind a socket's integer counters.
#[derive(Debug, Clone, Copy, Default)]
struct SocketAccum {
    instructions: f64,
    core_cycles: f64,
    aperf_kcycles: f64,
    mperf_kcycles: f64,
    cas_transactions: f64,
    avx512_instructions: f64,
    uclk_kcycles: f64,
    pkg_energy_uj: f64,
    dram_energy_uj: f64,
    uclk_dom_kcycles: [f64; msr::MAX_UNCORE_DOMAINS],
    cas_dom_transactions: [f64; msr::MAX_UNCORE_DOMAINS],
}

impl SocketAccum {
    fn to_counters(self, uncore_domains: u8) -> SocketCounters {
        let mut uclk_dom = [0u64; msr::MAX_UNCORE_DOMAINS];
        let mut cas_dom = [0u64; msr::MAX_UNCORE_DOMAINS];
        for d in 0..uncore_domains as usize {
            uclk_dom[d] = self.uclk_dom_kcycles[d] as u64;
            cas_dom[d] = self.cas_dom_transactions[d] as u64;
        }
        SocketCounters {
            instructions: self.instructions as u64,
            core_cycles: self.core_cycles as u64,
            aperf_kcycles: self.aperf_kcycles as u64,
            mperf_kcycles: self.mperf_kcycles as u64,
            cas_transactions: self.cas_transactions as u64,
            avx512_instructions: self.avx512_instructions as u64,
            uclk_kcycles: self.uclk_kcycles as u64,
            pkg_energy_uj: self.pkg_energy_uj as u64,
            dram_energy_uj: self.dram_energy_uj as u64,
            uncore_domains,
            uclk_dom_kcycles: uclk_dom,
            cas_dom_transactions: cas_dom,
        }
    }
}

/// One socket: MSR file, one firmware UFS controller per uncore domain,
/// counters.
#[derive(Debug, Clone)]
pub struct Socket {
    msr: MsrFile,
    /// Firmware UFS controllers, one per uncore frequency domain. Each
    /// domain pairs with its own TPMI ratio-limit/perf-status registers in
    /// `msr` (domain 0 doubling as the legacy 0x620/0x621 pair).
    domains: Vec<HwUfsController>,
    accum: SocketAccum,
    /// Decoded RAPL energy unit (J/count). `MSR_RAPL_POWER_UNIT` is
    /// read-only fused configuration, so the decode is hoisted out of the
    /// per-quantum loop.
    rapl_unit_j: f64,
    /// Decoded PL1 state, refreshed on every `MSR_PKG_POWER_LIMIT` write so
    /// the per-quantum limiter never re-parses the register. Resets to
    /// disabled: an untouched socket never throttles.
    rapl_enabled: bool,
    /// PL1 power limit (W). Valid only while `rapl_enabled`.
    rapl_limit_w: f64,
    /// PL1 averaging window (s). Valid only while `rapl_enabled`.
    rapl_window_s: f64,
    /// Running-average package power (W) over the PL1 window — an
    /// exponential average with time constant `rapl_window_s`, the same
    /// shape real RAPL firmware uses for its sliding estimate.
    rapl_avg_w: f64,
    /// Throttle depth: how many pstates below the OS request the limiter
    /// is currently clamping this socket.
    rapl_throttle: u8,
}

impl Socket {
    fn new(config: &NodeConfig) -> Self {
        let nd = config.uncore_domains.clamp(1, msr::MAX_UNCORE_DOMAINS);
        let mut msr = MsrFile::with_domains(config.uncore_min_ratio, config.uncore_max_ratio, nd);
        // Boot at nominal frequency, uncore at the platform maximum.
        msr.poke(
            addr::IA32_PERF_CTL,
            msr::pack_perf_ctl(config.pstates.ratio_for(1)),
        );
        msr.poke(
            addr::IA32_PERF_STATUS,
            msr::pack_perf_ctl(config.pstates.ratio_for(1)),
        );
        let rapl_unit_j = msr::rapl_energy_unit_joules(msr.peek(addr::MSR_RAPL_POWER_UNIT));
        Self {
            msr,
            domains: (0..nd)
                .map(|_| HwUfsController::new(config.hwufs.clone(), config.uncore_max_ratio))
                .collect(),
            accum: SocketAccum::default(),
            rapl_unit_j,
            rapl_enabled: false,
            rapl_limit_w: 0.0,
            rapl_window_s: 1.0,
            rapl_avg_w: 0.0,
            rapl_throttle: 0,
        }
    }

    /// Re-decodes the cached PL1 state from `MSR_PKG_POWER_LIMIT`.
    /// Disabling the limit clears the window estimate and releases any
    /// throttle, exactly as clearing the enable bit does on hardware.
    fn refresh_rapl_cache(&mut self) {
        let unit = self.msr.peek(addr::MSR_RAPL_POWER_UNIT);
        let (limit_w, window_s, enabled) =
            msr::unpack_pkg_power_limit(self.msr.peek(addr::MSR_PKG_POWER_LIMIT), unit);
        self.rapl_enabled = enabled;
        self.rapl_limit_w = limit_w;
        self.rapl_window_s = window_s.max(1e-3);
        if !enabled {
            self.rapl_avg_w = 0.0;
            self.rapl_throttle = 0;
        }
    }

    /// The limiter's current running-average package power estimate (W).
    pub fn rapl_avg_power_w(&self) -> f64 {
        self.rapl_avg_w
    }

    /// How many pstates below the OS request PL1 is currently clamping.
    pub fn rapl_throttle_steps(&self) -> u8 {
        self.rapl_throttle
    }

    /// Number of uncore frequency domains on this socket.
    pub fn uncore_domains(&self) -> usize {
        self.domains.len()
    }

    /// Current uncore ratio of domain 0 (100 MHz units) — the legacy
    /// single-knob view.
    pub fn uncore_ratio(&self) -> u8 {
        self.domains[0].current_ratio()
    }

    /// Current uncore ratio of domain `d` (100 MHz units).
    pub fn uncore_ratio_dom(&self, d: usize) -> u8 {
        self.domains[d].current_ratio()
    }

    /// Programmed uncore limits (min, max) of domain `domain`, in 100 MHz
    /// units.
    pub fn uncore_limits(&self, domain: usize) -> (u8, u8) {
        msr::unpack_uncore_ratio_limit(self.msr.peek(addr::tpmi_ratio_limit(domain)))
    }

    /// Requested CPU ratio from `IA32_PERF_CTL`.
    pub fn requested_ratio(&self) -> u8 {
        msr::unpack_perf_ratio(self.msr.peek(addr::IA32_PERF_CTL))
    }

    fn epb(&self) -> u8 {
        (self.msr.peek(addr::IA32_ENERGY_PERF_BIAS) & 0xF) as u8
    }

    /// Publishes the simulator's state into the MSR views software reads:
    /// the per-domain uncore perf status, the delivered pstate while PL1 is
    /// armed, the quantised RAPL energy counters and the fixed counters.
    /// Software reads MSRs only between node calls, so the node publishes
    /// once at the end of every call that stepped time rather than on every
    /// quantum; the values are the ones the last quantum leaves.
    fn publish_msrs(&mut self, pstates: &PstateTable, ps_req: Pstate) {
        for (d, ufs) in self.domains.iter().enumerate() {
            self.msr
                .poke(addr::tpmi_perf_status(d), ufs.current_ratio() as u64);
        }
        if self.rapl_enabled {
            // Surface the delivered ratio where software reads it.
            let eff = (ps_req + self.rapl_throttle as usize).min(pstates.slowest());
            self.msr.poke(
                addr::IA32_PERF_STATUS,
                msr::pack_perf_ctl(pstates.ratio_for(eff)),
            );
        }
        let a = &self.accum;
        // RAPL MSR view: exact energy quantised by the unit, 32-bit wrap.
        let unit_j = self.rapl_unit_j;
        let pkg_counts = (a.pkg_energy_uj * 1e-6 / unit_j) as u64 & 0xFFFF_FFFF;
        self.msr.poke(addr::MSR_PKG_ENERGY_STATUS, pkg_counts);
        let dram_counts = (a.dram_energy_uj * 1e-6 / unit_j) as u64 & 0xFFFF_FFFF;
        self.msr.poke(addr::MSR_DRAM_ENERGY_STATUS, dram_counts);
        // Fixed-counter MSR views (48-bit architectural width).
        self.msr.poke(
            addr::IA32_FIXED_CTR0,
            a.instructions as u64 & ((1 << 48) - 1),
        );
        self.msr.poke(
            addr::IA32_FIXED_CTR1,
            a.core_cycles as u64 & ((1 << 48) - 1),
        );
        self.msr.poke(addr::IA32_APERF, a.aperf_kcycles as u64);
        self.msr.poke(addr::IA32_MPERF, a.mperf_kcycles as u64);
        self.msr
            .poke(addr::MSR_U_PMON_UCLK_FIXED_CTR, a.uclk_kcycles as u64);
    }
}

/// Result of running one phase on the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseOutcome {
    /// When the phase started.
    pub start: SimTime,
    /// When it finished.
    pub end: SimTime,
    /// Seconds spent in the work portion.
    pub work_s: f64,
    /// Seconds spent waiting.
    pub wait_s: f64,
}

impl PhaseOutcome {
    /// Total phase duration (s).
    pub fn duration_s(&self) -> f64 {
        self.work_s + self.wait_s
    }
}

/// A simulated compute node.
///
/// ```
/// use ear_archsim::{msr, Node, NodeConfig, PhaseDemand};
///
/// let mut node = Node::new(NodeConfig::sd530_6148(), 42);
/// // Pin the uncore at 1.8 GHz through the same MSR software uses:
/// node.write_msr(0, msr::addr::MSR_UNCORE_RATIO_LIMIT,
///     msr::pack_uncore_ratio_limit(18, 18)).unwrap();
/// node.run_phase(&PhaseDemand {
///     instructions: 1e10,
///     mem_bytes: 2e9,
///     active_cores: 40,
///     ..Default::default()
/// });
/// assert!((node.socket(0).uncore_ratio()) == 18);
/// assert!(node.dc_energy_exact_j() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Node {
    /// The hardware configuration (public: models and tests read it).
    /// Treat it as read-only once the node boots: the sockets memoise
    /// power terms derived from it across calls.
    pub config: NodeConfig,
    clock: Clock,
    sockets: Vec<Socket>,
    inm: Inm,
    rng: Xoshiro256,
    /// Per-socket stepping state of the quantum plans, one per socket,
    /// reused from call to call (see [`SocketPlan`]).
    socket_plans: Vec<SocketPlan>,
    /// Memoised `pstate_for_ratio` lookup (ratio → pstate): the requested
    /// ratio changes only when software writes `IA32_PERF_CTL`, but the
    /// table scan used to run once per 10 ms quantum.
    ps_cache: std::cell::Cell<(u8, Pstate)>,
}

impl Node {
    /// Boots a node with the given configuration and noise seed.
    pub fn new(config: NodeConfig, seed: u64) -> Self {
        assert!(
            config.sockets <= crate::counters::MAX_SOCKETS,
            "at most {} sockets supported",
            crate::counters::MAX_SOCKETS
        );
        metrics::max(
            Metric::UfsMaxDomains,
            config.uncore_domains.clamp(1, msr::MAX_UNCORE_DOMAINS) as u64,
        );
        let sockets: Vec<Socket> = (0..config.sockets).map(|_| Socket::new(&config)).collect();
        let boot_ratio = sockets[0].requested_ratio();
        let boot_ps = config.pstates.pstate_for_ratio(boot_ratio);
        let socket_plans = vec![SocketPlan::default(); sockets.len()];
        Self {
            config,
            clock: Clock::new(),
            sockets,
            inm: Inm::default(),
            rng: Xoshiro256::seed_from_u64(seed),
            socket_plans,
            ps_cache: std::cell::Cell::new((boot_ratio, boot_ps)),
        }
    }

    /// Memoised `pstate_for_ratio` (same result as the table scan).
    fn cached_pstate_for(&self, ratio: u8) -> Pstate {
        let (cached_ratio, cached_ps) = self.ps_cache.get();
        if cached_ratio == ratio {
            cached_ps
        } else {
            let ps = self.config.pstates.pstate_for_ratio(ratio);
            self.ps_cache.set((ratio, ps));
            ps
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Immutable access to a socket (MSRs, uncore state).
    pub fn socket(&self, idx: usize) -> &Socket {
        &self.sockets[idx]
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Software MSR read on a socket.
    pub fn read_msr(&self, socket: usize, msr: u32) -> Result<u64, MsrError> {
        self.sockets[socket].msr.read(msr)
    }

    /// Software MSR write on a socket. Uncore-limit writes — through the
    /// legacy 0x620 address or a per-domain TPMI register — take effect on
    /// the addressed domain's firmware controller immediately (pinning
    /// min == max overrides the control loop, as the paper's eUFS relies
    /// on).
    pub fn write_msr(&mut self, socket: usize, msr: u32, value: u64) -> Result<(), MsrError> {
        self.sockets[socket].msr.write(msr, value)?;
        if let Some(d) = msr::uncore_domain_of_ratio_limit(msr) {
            let (min, max) = msr::unpack_uncore_ratio_limit(value);
            self.sockets[socket].domains[d].clamp_to_limits(min, max);
        }
        if msr == addr::MSR_PKG_POWER_LIMIT {
            self.sockets[socket].refresh_rapl_cache();
        }
        Ok(())
    }

    /// Convenience: programs a PL1 package power limit (`pkg_limit_w` watts
    /// per socket, averaged over `window_s` seconds) on every socket,
    /// through the same `MSR_PKG_POWER_LIMIT` write path software uses.
    pub fn set_rapl_limit_w(&mut self, pkg_limit_w: f64, window_s: f64) -> Result<(), MsrError> {
        for i in 0..self.sockets.len() {
            let unit = self.sockets[i].msr.peek(addr::MSR_RAPL_POWER_UNIT);
            let v = msr::pack_pkg_power_limit(pkg_limit_w, window_s, unit);
            self.write_msr(i, addr::MSR_PKG_POWER_LIMIT, v)?;
        }
        Ok(())
    }

    /// Clears PL1 on every socket: the limiter disables, releases any
    /// throttle and forgets its window estimate.
    pub fn clear_rapl_limit(&mut self) {
        for i in 0..self.sockets.len() {
            // A disabled write is always valid.
            let _ = self.write_msr(i, addr::MSR_PKG_POWER_LIMIT, 0);
        }
    }

    /// True when any socket has PL1 enabled.
    pub fn rapl_enabled(&self) -> bool {
        self.sockets.iter().any(|s| s.rapl_enabled)
    }

    /// Deepest PL1 throttle across sockets (pstates below the OS request).
    pub fn rapl_throttle_steps(&self) -> u8 {
        self.sockets
            .iter()
            .map(|s| s.rapl_throttle)
            .max()
            .unwrap_or(0)
    }

    /// The pstate the cores actually run at: the OS request plus any RAPL
    /// PL1 throttle, saturating at the slowest pstate. Equals
    /// [`Node::requested_pstate`] whenever no limiter is engaged.
    pub fn effective_pstate(&self) -> Pstate {
        let ps = self.requested_pstate();
        let throttle = self.rapl_throttle_steps() as usize;
        if throttle == 0 {
            ps
        } else {
            (ps + throttle).min(self.config.pstates.slowest())
        }
    }

    /// Convenience: sets the CPU pstate on every core of every socket
    /// (EAR applies node-level frequencies). `IA32_PERF_CTL` accepts any
    /// ratio, so this cannot fault; the write goes through the same MSR
    /// path software uses.
    pub fn set_cpu_pstate(&mut self, ps: Pstate) {
        let ratio = self.config.pstates.ratio_for(ps);
        for s in &mut self.sockets {
            let _ = s.msr.write(addr::IA32_PERF_CTL, msr::pack_perf_ctl(ratio));
        }
    }

    /// The CPU pstate currently requested (socket 0; EAR keeps sockets in
    /// lock-step).
    pub fn requested_pstate(&self) -> Pstate {
        self.cached_pstate_for(self.sockets[0].requested_ratio())
    }

    /// Convenience: programs the same uncore ratio limits into *every*
    /// domain of every socket — the single-knob semantics EAR's package
    /// policies assume.
    pub fn set_uncore_limits(&mut self, min_ratio: u8, max_ratio: u8) -> Result<(), MsrError> {
        let v = msr::pack_uncore_ratio_limit(min_ratio, max_ratio);
        for i in 0..self.sockets.len() {
            for d in 0..self.sockets[i].domains.len() {
                self.write_msr(i, addr::tpmi_ratio_limit(d), v)?;
            }
        }
        Ok(())
    }

    /// Programs the ratio limits of one uncore domain on every socket
    /// (EAR keeps sockets in lock-step; domains are the per-die knob).
    pub fn set_uncore_limits_dom(
        &mut self,
        domain: usize,
        min_ratio: u8,
        max_ratio: u8,
    ) -> Result<(), MsrError> {
        let v = msr::pack_uncore_ratio_limit(min_ratio, max_ratio);
        for i in 0..self.sockets.len() {
            self.write_msr(i, addr::tpmi_ratio_limit(domain), v)?;
        }
        Ok(())
    }

    /// Programmed uncore limits (min, max) of one `(socket, domain)` pair.
    /// Both indices are explicit: sockets can diverge if software writes
    /// them individually, and domains are independent knobs by design, so
    /// there is no single "node-wide" limit to report.
    pub fn uncore_limits(&self, socket: usize, domain: usize) -> (u8, u8) {
        self.sockets[socket].uncore_limits(domain)
    }

    /// Number of uncore frequency domains per socket.
    pub fn uncore_domain_count(&self) -> usize {
        self.sockets[0].domains.len()
    }

    /// Current average uncore frequency across sockets and domains (GHz) —
    /// the legacy single-knob reading.
    pub fn current_uncore_ghz(&self) -> f64 {
        let sum: f64 = self
            .sockets
            .iter()
            .map(|s| {
                let dom_sum: f64 = s
                    .domains
                    .iter()
                    .map(|u| u.current_ratio() as f64 * 0.1)
                    .sum();
                dom_sum / s.domains.len() as f64
            })
            .sum();
        sum / self.sockets.len() as f64
    }

    /// Current average uncore frequency of domain `d` across sockets (GHz).
    pub fn domain_uncore_ghz(&self, d: usize) -> f64 {
        domain_mean_ghz(&self.sockets, d)
    }

    /// Takes a counter snapshot (what EARL reads at signature boundaries).
    /// Allocation-free: the per-socket counters land in the snapshot's
    /// inline [`crate::counters::SocketSet`].
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            time: self.clock.now(),
            sockets: self
                .sockets
                .iter()
                .map(|s| s.accum.to_counters(s.domains.len() as u8))
                .collect(),
            dc_energy_mj: self.inm.energy_mj(),
            dc_energy_at: self.inm.published_at(),
            dc_energy_exact_j: self.inm.exact_energy_j(),
        }
    }

    /// Exact accumulated DC energy (J), for accounting.
    pub fn dc_energy_exact_j(&self) -> f64 {
        self.inm.exact_energy_j()
    }

    /// Every f64 the stepping accumulates, before any integer truncation:
    /// per socket, the accumulators behind the counters and each domain's
    /// UFS slew timer; then the INM's exact energy. Bit-identity tests hash
    /// these, because the integer snapshot hides low-order drift.
    #[doc(hidden)]
    pub fn exact_state(&self) -> Vec<f64> {
        let mut v = Vec::new();
        for s in &self.sockets {
            let a = &s.accum;
            v.extend([
                a.instructions,
                a.core_cycles,
                a.aperf_kcycles,
                a.mperf_kcycles,
                a.cas_transactions,
                a.avx512_instructions,
                a.uclk_kcycles,
                a.pkg_energy_uj,
                a.dram_energy_uj,
            ]);
            v.extend(a.uclk_dom_kcycles);
            v.extend(a.cas_dom_transactions);
            v.extend(s.domains.iter().map(HwUfsController::until_next_s));
        }
        v.push(self.inm.exact_energy_j());
        v
    }

    /// Fault injection: the node's power meter (INM/BMC) stops publishing
    /// for `seconds` from now. Software reading the DC energy counter sees
    /// a stale value and timestamp until recovery.
    pub fn inject_power_meter_stall(&mut self, seconds: f64) {
        self.inm.stall_for(self.clock.now(), seconds);
    }

    /// Runs one workload phase to completion and returns its outcome.
    pub fn run_phase(&mut self, demand: &PhaseDemand) -> PhaseOutcome {
        self.run_phase_with(demand, true)
    }

    /// [`Node::run_phase`] stepping every quantum, never jumping a settled
    /// run: the oracle the jump is tested and benchmarked against.
    #[doc(hidden)]
    pub fn run_phase_stepped(&mut self, demand: &PhaseDemand) -> PhaseOutcome {
        self.run_phase_with(demand, false)
    }

    fn run_phase_with(&mut self, demand: &PhaseDemand, may_jump: bool) -> PhaseOutcome {
        debug_assert!(demand.validate().is_ok(), "{:?}", demand.validate());
        let start = self.clock.now();
        // One multiplicative noise draw per phase: run-to-run variation,
        // not within-run jitter (the paper averages three runs).
        let t_noise = self.rng.noise_factor(self.config.noise_sigma);
        let p_noise = self.rng.noise_factor(self.config.noise_sigma * 0.5);
        let quantum = self.config.hwufs.period_s;
        let mut stepped = false;

        let mut work_s = 0.0;
        if demand.instructions > 0.0 || demand.mem_bytes > 0.0 {
            let mut plan = QuantumPlan::new(self, demand, false, t_noise, p_noise);
            let mut remaining = 1.0f64;
            while remaining > 1e-12 {
                plan.refresh(self);
                let t_total = plan.t_total;
                if t_total <= 0.0 {
                    break;
                }
                stepped = true;
                let rest = remaining * t_total;
                let dt = rest.min(quantum);
                let frac = dt / t_total;
                if may_jump {
                    let full = |r: f64| r > 1e-12 && r * t_total >= quantum;
                    let run = self.jump_settled(&mut plan, remaining, -frac, rest, dt, frac, full);
                    if let Some((n, last)) = run {
                        remaining = (last - frac).max(0.0);
                        work_s = repeat_add(work_s, dt, n);
                        continue;
                    }
                }
                remaining = (remaining - frac).max(0.0);
                self.step(&mut plan, dt, frac);
                work_s += dt;
            }
        }

        let mut wait_s = 0.0;
        if wait_s < demand.wait_seconds {
            let mut plan = QuantumPlan::new(self, demand, true, t_noise, p_noise);
            stepped = true;
            while wait_s < demand.wait_seconds {
                plan.refresh(self);
                let rest = demand.wait_seconds - wait_s;
                let dt = rest.min(quantum);
                if may_jump {
                    let full = |w: f64| demand.wait_seconds - w >= quantum;
                    if let Some((_, last)) =
                        self.jump_settled(&mut plan, wait_s, dt, rest, dt, 0.0, full)
                    {
                        wait_s = last + dt;
                        continue;
                    }
                }
                self.step(&mut plan, dt, 0.0);
                wait_s += dt;
            }
        }

        // A call that stepped no time leaves every MSR view as it was.
        if stepped {
            self.publish_msrs();
        }
        PhaseOutcome {
            start,
            end: self.clock.now(),
            work_s,
            wait_s,
        }
    }

    /// Advances simulated time with the node idle (job gaps).
    pub fn run_idle(&mut self, seconds: f64) {
        self.run_idle_with(seconds, true);
    }

    /// [`Node::run_idle`] stepping every quantum: the oracle of its jump.
    #[doc(hidden)]
    pub fn run_idle_stepped(&mut self, seconds: f64) {
        self.run_idle_with(seconds, false);
    }

    fn run_idle_with(&mut self, seconds: f64, may_jump: bool) {
        if seconds.is_nan() || seconds <= 0.0 {
            return;
        }
        let idle = PhaseDemand {
            instructions: 0.0,
            mem_bytes: 0.0,
            active_cores: 0,
            wait_seconds: seconds,
            wait_busy: false,
            ..Default::default()
        };
        let quantum = self.config.hwufs.period_s;
        let mut plan = QuantumPlan::new(self, &idle, true, 1.0, 1.0);
        let mut done = 0.0;
        while done < seconds {
            plan.refresh(self);
            let rest = seconds - done;
            let dt = rest.min(quantum);
            if may_jump {
                let full = |v: f64| seconds - v >= quantum;
                if let Some((_, last)) = self.jump_settled(&mut plan, done, dt, rest, dt, 0.0, full)
                {
                    done = last + dt;
                    continue;
                }
            }
            self.step(&mut plan, dt, 0.0);
            done += dt;
        }
        self.publish_msrs();
    }

    /// Jumps the settled run of full quanta ahead of a stepping loop, if
    /// there is one of at least [`JUMP_MIN_QUANTA`]: every firmware UFS
    /// controller sits at its target and no PL1 limit is armed (an armed
    /// limiter can move the effective pstate at any quantum boundary), so
    /// every full quantum until the loop's last ones repeats the same adds.
    ///
    /// The loop's time variable is `v` and moves by `x` per full quantum;
    /// `full(v)` says whether the quantum starting at `v` is a full one,
    /// and is true from the run's start up to some point and false after.
    /// `rest` is the time left (s), `dt` the quantum and `work_frac` the
    /// work fraction each full quantum retires. On a jump, returns the
    /// run's length `n` and the loop variable before its last quantum, so
    /// the caller can apply its own update to it.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn jump_settled(
        &mut self,
        plan: &mut QuantumPlan,
        v: f64,
        x: f64,
        rest: f64,
        dt: f64,
        work_frac: f64,
        full: impl Fn(f64) -> bool,
    ) -> Option<(u64, f64)> {
        if rest < JUMP_MIN_QUANTA as f64 * dt || self.rapl_enabled() || !plan.settled(self) {
            return None;
        }
        // `rest / dt` is within a quantum of the run's length: the drift of
        // n rounded adds is far below one step. `full` is monotone along
        // the run, so the run is `n` long when its n-th quantum is full.
        let mut n = (rest / dt) as u64;
        for _ in 0..3 {
            if n < JUMP_MIN_QUANTA {
                return None;
            }
            let last = repeat_add(v, x, n - 1);
            if full(last) {
                self.jump(plan, dt, work_frac, n);
                return Some((n, last));
            }
            n -= 1;
        }
        None
    }

    /// Advances one interval of `dt` seconds under `plan` (normally one
    /// 10 ms quantum): firmware UFS, counters, energy, the PL1 limiter,
    /// the INM meter and the clock. `work_frac` is the fraction of the
    /// phase's work retired in it.
    fn step(&mut self, plan: &mut QuantumPlan, dt: f64, work_frac: f64) {
        self.step_quanta(plan, dt, work_frac, 1);
    }

    /// The `n` full quanta of a settled run, in one [`Node::step_quanta`].
    /// One out-of-line copy serves every caller: the stepping loops keep
    /// only the one-quantum instance inline.
    #[inline(never)]
    fn jump(&mut self, plan: &mut QuantumPlan, dt: f64, work_frac: f64, n: u64) {
        self.step_quanta(plan, dt, work_frac, n);
    }

    /// `n` back-to-back [`Node::step`]s of `dt` under `plan`, bit for bit.
    /// With `n > 1` the plan must be settled and PL1 unarmed, so every
    /// step repeats the first one's adds.
    #[inline(always)]
    fn step_quanta(&mut self, plan: &mut QuantumPlan, dt: f64, work_frac: f64, n: u64) {
        let now = self.clock.now();
        let node_pkg_w = plan.step_sockets(
            &self.config,
            &mut self.sockets,
            &mut self.socket_plans,
            dt,
            work_frac,
            n,
        );
        let dc_w = node_pkg_w + plan.dram_total_w + self.config.power.platform_w + plan.gpu_w;
        if n == 1 {
            self.inm.accumulate(now, dt, dc_w);
        } else {
            self.inm.accumulate_quanta(now, dt, dc_w, n);
        }
        self.clock.advance_quanta(dt, n);
    }

    /// Publishes every socket's MSR views (see [`Socket::publish_msrs`]).
    fn publish_msrs(&mut self) {
        let ps_req = self.requested_pstate();
        for s in &mut self.sockets {
            s.publish_msrs(&self.config.pstates, ps_req);
        }
    }
}

/// Mean uncore frequency of domain `d` across `sockets` (GHz): the
/// frequency the performance model charges that domain's traffic at.
fn domain_mean_ghz(sockets: &[Socket], d: usize) -> f64 {
    let sum: f64 = sockets
        .iter()
        .map(|s| s.domains[d].current_ratio() as f64 * 0.1)
        .sum();
    sum / sockets.len() as f64
}

/// Active cores on socket `i` when `total_active` cores are distributed
/// round-robin-by-socket: socket 0 fills first (matches pinning of low-rank
/// processes / the single busy-wait core of the CUDA kernels).
fn socket_active_cores(total_active: usize, n_sockets: usize, i: usize) -> usize {
    let per = total_active / n_sockets;
    let rem = total_active % n_sockets;
    per + usize::from(i < rem)
}

/// The per-socket part of a [`QuantumPlan`], kept by the [`Node`] so a
/// call does not build one. Every plan rewrites the per-call fields; the
/// power memos survive from call to call.
#[derive(Debug, Clone, Copy, Default)]
struct SocketPlan {
    // --- Once per call ---
    active: usize,
    /// This socket's share of the phase's instructions.
    active_share: f64,
    /// APERF rate of the halted cores' housekeeping wake-ups (kHz).
    idle_aperf_khz: f64,
    /// MPERF rate of the active and housekeeping cores (kHz).
    mperf_rate: f64,
    epb: u8,
    limits: [(u8, u8); MAX_UNCORE_DOMAINS],
    // --- Once per effective pstate ---
    /// Core cycles per second of the active cores.
    cycle_rate: f64,
    /// APERF rate of the whole socket (kHz).
    aperf_rate: f64,
    /// The frequency the firmware UFS samples as the fastest active core.
    fastest_active_khz: u64,
    /// `pkg_static_w + P_core` (W), before noise.
    base_w: f64,
    // --- Once per ratio tuple ---
    /// Firmware UFS targets for the ratios in effect before the step.
    targets: [u8; MAX_UNCORE_DOMAINS],
    // --- Once per ratio tuple, or when this socket's ratios move ---
    /// Uncore terms for the ratios after the step.
    unc: UncoreTerms,
    /// Package power (W), noise applied.
    pkg_w: f64,
    // --- Kept across calls, one entry per mode (work, wait) ---
    // A node repeating a phase reuses the power terms of both its work
    // and its wait part; each entry is keyed on its exact inputs.
    /// Inputs and value of `pkg_static_w + P_core`.
    base_memo: [(Option<BaseKey>, f64); 2],
    /// Inputs and value of the uncore terms after the step.
    uncore_memo: [(Option<UncoreKey>, UncoreTerms); 2],
}

/// Inputs of the `pkg_static_w + P_core` term: active cores and the bits
/// of the core frequency (GHz), activity and AVX512 fraction.
type BaseKey = (usize, [u64; 3]);

/// Inputs of a socket's uncore terms: the domain ratios after the step and
/// the bits of each domain's memory utilisation.
type UncoreKey = ([u8; MAX_UNCORE_DOMAINS], [u64; MAX_UNCORE_DOMAINS]);

/// A socket's uncore terms for one [`UncoreKey`].
#[derive(Debug, Clone, Copy, Default)]
struct UncoreTerms {
    /// Summed uncore power of the domains (W), before noise.
    w: f64,
    /// Per-domain uncore clock rate (kcycles/s).
    uclk_dom_rate: [f64; MAX_UNCORE_DOMAINS],
    /// Legacy single-knob uncore clock rate, the per-domain mean (kcycles/s).
    uclk_rate: f64,
}

/// The schedule of one `run_phase` work part, wait part, or `run_idle`
/// call: every value the 10 ms quantum needs, each computed only as often
/// as its inputs change.
///
/// Within a call the demand, the requested pstate, the MSR ratio limits,
/// EPB and the split of active cores across sockets are fixed. Only two
/// inputs move between quanta: each domain's firmware uncore ratio, and
/// the PL1 throttle depth when a limit is armed. So the plan evaluates
///
/// * once per call: the counter-increment constants, limits, EPB and
///   domain traffic fractions;
/// * once per effective pstate: the core frequency and the
///   `pkg_static_w + P_core` term (every call without PL1 has one);
/// * once per change of the ratio tuple (a one-entry memo, invalidated
///   whenever a firmware step moves a ratio or the effective pstate
///   changes): the work time, GB/s, memory utilisation, firmware UFS
///   targets and DRAM power; and, per socket, the uncore clock rates and
///   package power for the ratios after the step;
///
/// and leaves only the accumulator adds, the UFS slew timer, the PL1
/// limiter, the INM meter and the clock to every quantum. The core and
/// uncore power terms are also memoised across calls on their exact
/// inputs, so short calls (barrier fill, one-quantum phases) skip their
/// libm `powf`s. Each memoised value comes from the same expression on
/// the same inputs as a per-quantum evaluation would, and each
/// accumulator gets the same operands in the same order, so the
/// trajectory is bit-identical.
///
/// Once the plan is settled (every ratio at its firmware target) and no
/// PL1 limit is armed, nothing moves between quanta at all: the call
/// jumps the run of full quanta ahead of it ([`Node::step_quanta`]) and
/// steps only the last, partial ones.
struct QuantumPlan<'a> {
    demand: &'a PhaseDemand,
    /// Spin/idle semantics instead of work semantics.
    waiting: bool,
    t_noise: f64,
    p_noise: f64,
    nd: usize,
    /// `1 / sockets`: each socket's share of memory traffic and DRAM power.
    share: f64,
    /// Fraction of the memory traffic each domain serves.
    frac: [f64; MAX_UNCORE_DOMAINS],
    /// One domain's slice of the peak bandwidth (bytes/s).
    peak_dom: f64,
    ps_req: Pstate,
    /// Deepest throttle the limiter can apply below the OS request.
    rapl_headroom: usize,
    /// `instructions · avx512_fraction`.
    avx_instructions: f64,
    mem_transactions: f64,
    /// Memory transactions each domain serves.
    dom_transactions: [f64; MAX_UNCORE_DOMAINS],
    gpu_w: f64,
    /// The effective pstate the per-pstate terms were evaluated for.
    eff_ps: Option<Pstate>,
    /// Delivered frequency of the active cores (kHz).
    f_active_khz: f64,
    /// A domain ratio or the effective pstate changed since the per-tuple
    /// terms were evaluated: the one-entry ratio memo is stale.
    stale: bool,
    /// The per-tuple terms were re-evaluated since the last step, so every
    /// socket's power terms must be re-read.
    retimed: bool,
    /// Work time of the whole phase at the current ratios (s, noise
    /// applied). Work mode only.
    t_total: f64,
    gbs: f64,
    mem_util: [f64; MAX_UNCORE_DOMAINS],
    /// `mem_util` as bits, the part of the socket power memo key it keys.
    mem_util_bits: [u64; MAX_UNCORE_DOMAINS],
    /// One socket's share of DRAM power (W).
    dram_w: f64,
    dram_total_w: f64,
}

impl<'a> QuantumPlan<'a> {
    fn new(
        node: &mut Node,
        demand: &'a PhaseDemand,
        waiting: bool,
        t_noise: f64,
        p_noise: f64,
    ) -> Self {
        let cfg = &node.config;
        let n_sockets = node.sockets.len();
        let nd = node.uncore_domain_count();
        let total_active = if waiting && !demand.wait_busy {
            0
        } else {
            demand.active_cores
        };
        let ps_req = node.requested_pstate();
        let mem_transactions = demand.mem_transactions();
        let mut frac = [0.0f64; MAX_UNCORE_DOMAINS];
        let mut dom_transactions = [0.0f64; MAX_UNCORE_DOMAINS];
        for d in 0..nd {
            frac[d] = demand.domain_frac(d, nd);
            dom_transactions[d] = mem_transactions * frac[d];
        }
        for (i, (sp, s)) in node.socket_plans.iter_mut().zip(&node.sockets).enumerate() {
            let active = socket_active_cores(total_active, n_sockets, i);
            let total = cfg.cores_per_socket;
            let idle = total - active.min(total);
            let mut limits = [(0u8, 0u8); MAX_UNCORE_DOMAINS];
            for (d, l) in limits.iter_mut().enumerate().take(nd) {
                *l = s.uncore_limits(d);
            }
            sp.active = active;
            sp.active_share = if total_active > 0 {
                active as f64 / total_active as f64
            } else {
                0.0
            };
            sp.idle_aperf_khz = idle as f64 * IDLE_HOUSEKEEPING_DUTY * cfg.idle_core_khz as f64;
            sp.mperf_rate =
                (active as f64 + idle as f64 * IDLE_HOUSEKEEPING_DUTY) * MPERF_SENTINEL_KHZ;
            sp.epb = s.epb();
            sp.limits = limits;
        }
        Self {
            demand,
            waiting,
            t_noise,
            p_noise,
            nd,
            share: 1.0 / n_sockets as f64,
            frac,
            peak_dom: cfg.perf.bw_peak_bytes / nd as f64,
            ps_req,
            rapl_headroom: cfg.pstates.slowest() - ps_req,
            avx_instructions: demand.instructions * demand.avx512_fraction,
            mem_transactions,
            dom_transactions,
            gpu_w: power::gpu_power(&cfg.power, cfg.gpus, demand.gpu_power_w),
            eff_ps: None,
            f_active_khz: 0.0,
            stale: true,
            retimed: false,
            t_total: 0.0,
            gbs: 0.0,
            mem_util: [0.0; MAX_UNCORE_DOMAINS],
            mem_util_bits: [0; MAX_UNCORE_DOMAINS],
            dram_w: 0.0,
            dram_total_w: 0.0,
        }
    }

    /// Brings the memoised terms up to date with the node's current
    /// throttle depth and uncore ratios. Runs before every step.
    fn refresh(&mut self, node: &mut Node) {
        let Node {
            config: cfg,
            sockets,
            socket_plans: plans,
            ..
        } = node;
        // Cores run at the OS request plus any PL1 throttle. With no
        // limiter engaged the throttle is zero and this is exactly the
        // requested pstate.
        let throttle = sockets.iter().map(|s| s.rapl_throttle).max().unwrap_or(0) as usize;
        let ps = if throttle == 0 {
            self.ps_req
        } else {
            (self.ps_req + throttle).min(cfg.pstates.slowest())
        };
        if self.eff_ps != Some(ps) {
            self.set_pstate(cfg, plans, ps);
            self.stale = true;
        }
        if self.stale {
            self.retime(cfg, sockets, plans);
            self.stale = false;
            self.retimed = true;
        }
    }

    /// Evaluates the terms that depend on the effective pstate `ps`.
    fn set_pstate(&mut self, cfg: &NodeConfig, plans: &mut [SocketPlan], ps: Pstate) {
        let d = self.demand;
        // Spinning cores run scalar code at the delivered (non-AVX) ratio.
        let requested_khz = cfg.pstates.khz(ps) as f64;
        let (f_active_khz, activity, avx512_fraction) = if self.waiting {
            (requested_khz, cfg.power.spin_activity, 0.0)
        } else {
            let f_eff = cfg
                .pstates
                .effective_khz_active(ps, d.avx512_fraction, d.active_cores);
            (f_eff, d.activity, d.avx512_fraction)
        };
        for sp in plans.iter_mut() {
            let active = sp.active as f64;
            sp.cycle_rate = active * f_active_khz * 1e3;
            sp.aperf_rate = active * f_active_khz + sp.idle_aperf_khz;
            let f_core_ghz = f_active_khz * 1e-6;
            let key = Some((
                sp.active,
                [
                    f_core_ghz.to_bits(),
                    activity.to_bits(),
                    avx512_fraction.to_bits(),
                ],
            ));
            let memo = &mut sp.base_memo[usize::from(self.waiting)];
            if memo.0 != key {
                let pin = SocketPowerInput {
                    active_cores: sp.active,
                    total_cores: cfg.cores_per_socket,
                    f_core_ghz,
                    activity,
                    avx512_fraction,
                    f_uncore_ghz: 0.0,
                    mem_util: 0.0,
                };
                *memo = (key, power::pkg_base_power(&cfg.power, &pin));
            }
            sp.base_w = memo.1;
            sp.fastest_active_khz = if sp.active > 0 {
                f_active_khz as u64
            } else {
                // OS housekeeping wakes at the requested ratio, so an
                // idle socket follows the node-level DVFS request.
                requested_khz as u64
            };
        }
        self.f_active_khz = f_active_khz;
        self.eff_ps = Some(ps);
    }

    /// Evaluates the terms that depend on the ratios in effect before the
    /// step: work time, traffic, the firmware UFS targets and DRAM power.
    fn retime(&mut self, cfg: &NodeConfig, sockets: &[Socket], plans: &mut [SocketPlan]) {
        let nd = self.nd;
        if !self.waiting {
            let mut f_dom = [0.0f64; MAX_UNCORE_DOMAINS];
            for (d, f) in f_dom.iter_mut().enumerate().take(nd) {
                *f = domain_mean_ghz(sockets, d);
            }
            self.t_total = perf::work_time_domains(
                &cfg.perf,
                self.demand,
                self.f_active_khz * 1e3,
                &f_dom[..nd],
                &self.frac[..nd],
            )
            .work_s
                * self.t_noise;
            self.gbs = self.demand.mem_bytes / self.t_total / 1e9;
        }
        for d in 0..nd {
            let gbs_dom = self.gbs * self.frac[d];
            self.mem_util[d] = (gbs_dom * 1e9 / self.peak_dom).clamp(0.0, 1.0);
            self.mem_util_bits[d] = self.mem_util[d].to_bits();
        }
        for (sp, s) in plans.iter_mut().zip(sockets) {
            for (d, ufs) in s.domains.iter().enumerate() {
                let input = HwUfsInput {
                    fastest_active_khz: sp.fastest_active_khz,
                    nominal_khz: cfg.pstates.nominal_khz(),
                    mem_util: self.mem_util[d],
                    busy_fraction: sp.active as f64 / cfg.cores_per_socket as f64,
                    epb: sp.epb,
                    bias: self.demand.hw_ufs_bias,
                };
                let (min_r, max_r) = sp.limits[d];
                sp.targets[d] = ufs.target_ratio(&input, min_r, max_r);
            }
        }
        self.dram_total_w = power::dram_power(&cfg.power, self.gbs);
        self.dram_w = self.dram_total_w * self.share;
    }

    /// True when every firmware UFS controller — each domain of each
    /// socket — is settled for the plan's inputs: its ratio already equals
    /// the target it would keep picking, so further quanta cannot change
    /// it. Valid after [`QuantumPlan::refresh`].
    fn settled(&self, node: &Node) -> bool {
        node.sockets.iter().zip(&node.socket_plans).all(|(s, sp)| {
            s.domains
                .iter()
                .zip(&sp.targets)
                .all(|(ufs, &target)| ufs.current_ratio() == target)
        })
    }

    /// Steps every socket through `n` intervals of `dt` seconds: firmware
    /// UFS, counters, energy and the PL1 limiter. Returns the node's
    /// package power (W) over the steps. With `n > 1` the plan must be
    /// settled and PL1 unarmed: no ratio moves, so every interval adds the
    /// same terms, and each accumulator takes them in one [`repeat_add`].
    #[inline(always)]
    fn step_sockets(
        &mut self,
        cfg: &NodeConfig,
        sockets: &mut [Socket],
        plans: &mut [SocketPlan],
        dt: f64,
        work_frac: f64,
        n: u64,
    ) -> f64 {
        let nd = self.nd;
        let mut node_pkg_w = 0.0;
        for (s, sp) in sockets.iter_mut().zip(plans.iter_mut()) {
            debug_assert!(n == 1 || !s.rapl_enabled, "jumped a quantum under PL1");
            // --- Firmware UFS, per uncore domain ---
            let mut ratios = [0u8; MAX_UNCORE_DOMAINS];
            let mut moved = false;
            for (d, ufs) in s.domains.iter_mut().enumerate() {
                let before = ufs.current_ratio();
                let (min_r, max_r) = sp.limits[d];
                let ratio = ufs.advance_quanta(dt, n, sp.targets[d], min_r, max_r);
                debug_assert!(n == 1 || ratio == before, "jumped an unsettled UFS");
                if ratio != before {
                    metrics::add_at(Metric::UfsRatioSteps, d, 1);
                    moved = true;
                }
                ratios[d] = ratio;
            }
            self.stale |= moved;
            if self.retimed || moved {
                let key = Some((ratios, self.mem_util_bits));
                let memo = &mut sp.uncore_memo[usize::from(self.waiting)];
                if memo.0 != key {
                    let mut terms = UncoreTerms::default();
                    let mut ghz_sum = 0.0;
                    let mut unc_w_sum = 0.0;
                    for (d, &ratio) in ratios.iter().enumerate().take(nd) {
                        let f_unc_ghz = ratio as f64 * 0.1;
                        ghz_sum += f_unc_ghz;
                        terms.uclk_dom_rate[d] = f_unc_ghz * 1e6;
                        unc_w_sum +=
                            power::uncore_domain_power(&cfg.power, nd, f_unc_ghz, self.mem_util[d]);
                    }
                    // Legacy single-knob counter: the per-domain mean, so
                    // existing avg-IMC readings stay meaningful (and
                    // bit-identical at N=1).
                    terms.uclk_rate = ghz_sum / nd as f64 * 1e6;
                    terms.w = unc_w_sum;
                    *memo = (key, terms);
                }
                sp.unc = memo.1;
                sp.pkg_w = (sp.base_w + sp.unc.w) * self.p_noise;
            }
            let pkg_w = sp.pkg_w;

            // --- Counters ---
            let add = |acc: &mut f64, x: f64| *acc = repeat_add(*acc, x, n);
            let a = &mut s.accum;
            if self.waiting {
                if self.demand.wait_busy && sp.active > 0 {
                    let cycles = sp.cycle_rate * dt;
                    add(&mut a.core_cycles, cycles);
                    add(&mut a.instructions, cycles / SPIN_CPI);
                }
            } else {
                let share = sp.active_share;
                add(
                    &mut a.instructions,
                    self.demand.instructions * work_frac * share,
                );
                add(
                    &mut a.avx512_instructions,
                    self.avx_instructions * work_frac * share,
                );
                add(&mut a.core_cycles, sp.cycle_rate * dt);
                let share = self.share;
                add(
                    &mut a.cas_transactions,
                    self.mem_transactions * work_frac * share,
                );
                for d in 0..nd {
                    let x = self.dom_transactions[d] * work_frac * share;
                    add(&mut a.cas_dom_transactions[d], x);
                }
            }
            add(&mut a.aperf_kcycles, sp.aperf_rate * dt);
            add(&mut a.mperf_kcycles, sp.mperf_rate * dt);
            for d in 0..nd {
                add(&mut a.uclk_dom_kcycles[d], sp.unc.uclk_dom_rate[d] * dt);
            }
            add(&mut a.uclk_kcycles, sp.unc.uclk_rate * dt);
            add(&mut a.pkg_energy_uj, pkg_w * dt * 1e6);
            add(&mut a.dram_energy_uj, self.dram_w * dt * 1e6);

            // --- RAPL PL1 limiter ---
            // Running average over the programmed window (exponential, time
            // constant = window), one throttle/relax step per quantum with
            // hysteresis. Entirely skipped while PL1 is disabled, so the
            // uncapped configuration computes bit-identical results.
            if s.rapl_enabled {
                let alpha = (dt / s.rapl_window_s).min(1.0);
                s.rapl_avg_w += alpha * (pkg_w - s.rapl_avg_w);
                if s.rapl_avg_w > s.rapl_limit_w {
                    if (s.rapl_throttle as usize) < self.rapl_headroom {
                        s.rapl_throttle += 1;
                        metrics::add(Metric::PowercapThrottleEvents, 1);
                    }
                } else if s.rapl_avg_w < s.rapl_limit_w * RAPL_LIFT_FRACTION && s.rapl_throttle > 0
                {
                    s.rapl_throttle -= 1;
                }
            }
            node_pkg_w += pkg_w;
        }
        self.retimed = false;
        node_pkg_w
    }
}

// Node-parallel job stepping (ear-mpisim) moves nodes across threads in
// disjoint `&mut` chunks; `Node` is plain owned data (the `Cell` pstate
// cache is `Send`, just not `Sync`), and this assertion keeps it that way.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Node>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_node() -> Node {
        let mut cfg = NodeConfig::sd530_6148();
        cfg.noise_sigma = 0.0;
        Node::new(cfg, 1)
    }

    fn cpu_bound() -> PhaseDemand {
        // Sized so one phase runs ~3.4 s at nominal: the INM DC counter
        // publishes at 1 s granularity, so power checks need multi-second
        // windows (exactly why the paper measures over >= 10 s).
        PhaseDemand {
            instructions: 8e11,
            mem_bytes: 80e9,
            cpi_core: 0.38,
            uncore_lat_cycles: 4.0,
            mem_overlap: 0.6,
            active_cores: 40,
            ..Default::default()
        }
    }

    #[test]
    fn boots_at_nominal_max_uncore() {
        let n = quiet_node();
        assert_eq!(n.requested_pstate(), 1);
        assert_eq!(n.uncore_limits(0, 0), (12, 24));
        assert_eq!(n.uncore_limits(1, 0), (12, 24));
        assert_eq!(n.uncore_domain_count(), 1);
        assert!((n.current_uncore_ghz() - 2.4).abs() < 1e-9);
    }

    fn dual_domain_node() -> Node {
        let mut cfg = NodeConfig::sd530_6148().with_uncore_domains(2);
        cfg.noise_sigma = 0.0;
        Node::new(cfg, 1)
    }

    #[test]
    fn per_domain_limits_are_independent() {
        let mut n = dual_domain_node();
        assert_eq!(n.uncore_domain_count(), 2);
        n.set_uncore_limits_dom(1, 12, 12).unwrap();
        assert_eq!(n.uncore_limits(0, 0), (12, 24));
        assert_eq!(n.uncore_limits(0, 1), (12, 12));
        // The pinned domain drops immediately; domain 0 stays at max.
        assert_eq!(n.socket(0).uncore_ratio_dom(1), 12);
        assert_eq!(n.socket(0).uncore_ratio_dom(0), 24);
        // Legacy 0x620 writes keep addressing domain 0 only.
        n.write_msr(
            0,
            addr::MSR_UNCORE_RATIO_LIMIT,
            msr::pack_uncore_ratio_limit(18, 18),
        )
        .unwrap();
        assert_eq!(n.uncore_limits(0, 0), (18, 18));
        assert_eq!(n.uncore_limits(0, 1), (12, 12));
    }

    #[test]
    fn idle_domain_down_scales_while_host_domain_stays_high() {
        let mut n = dual_domain_node();
        n.set_cpu_pstate(5); // sub-nominal: firmware UFS follows demand
                             // All memory traffic routed to domain 0 (GPU-offload host feed).
        let host_feed = PhaseDemand {
            instructions: 2e11,
            mem_bytes: 150e9,
            cpi_core: 0.8,
            active_cores: 32,
            mem_overlap: 0.7,
            domain_mem_frac: Some([1.0, 0.0, 0.0, 0.0]),
            ..Default::default()
        };
        n.run_phase(&host_feed);
        let busy = n.socket(0).uncore_ratio_dom(0);
        let idle = n.socket(0).uncore_ratio_dom(1);
        assert!(busy > idle + 4, "busy {busy} idle {idle}");
        let snap = n.snapshot();
        assert_eq!(snap.sockets[0].uncore_domains, 2);
        // Domain counters reflect the routing: uclk ticks split, CAS does not.
        assert!(snap.sockets[0].cas_dom_transactions[0] > 0);
        assert_eq!(snap.sockets[0].cas_dom_transactions[1], 0);
    }

    #[test]
    fn single_domain_node_matches_legacy_counters() {
        // The per-domain accumulators of a 1-domain node must mirror the
        // legacy scalar counters exactly.
        let mut n = quiet_node();
        n.run_phase(&cpu_bound());
        let s = &n.snapshot().sockets[0];
        assert_eq!(s.uncore_domains, 1);
        assert_eq!(s.uclk_dom_kcycles[0], s.uclk_kcycles);
        assert_eq!(s.cas_dom_transactions[0], s.cas_transactions);
    }

    #[test]
    fn phase_advances_time_and_counters() {
        let mut n = quiet_node();
        let before = n.snapshot();
        let out = n.run_phase(&cpu_bound());
        let after = n.snapshot();
        assert!(out.work_s > 0.1, "work {}", out.work_s);
        let d = after.delta(&before);
        assert!((d.instructions - 8e11).abs() / 8e11 < 1e-6);
        assert!(d.cpi() > 0.3 && d.cpi() < 1.0, "cpi {}", d.cpi());
        assert!(
            d.dc_power_w() > 250.0 && d.dc_power_w() < 420.0,
            "dc {}",
            d.dc_power_w()
        );
        assert!(d.pkg_power_w() < d.dc_power_w());
        assert!(
            (d.avg_cpu_ghz() - 2.4).abs() < 0.05,
            "cpu {}",
            d.avg_cpu_ghz()
        );
        assert!(
            (d.avg_imc_ghz() - 2.4).abs() < 0.05,
            "imc {}",
            d.avg_imc_ghz()
        );
    }

    #[test]
    fn lower_cpu_pstate_slows_and_saves_power() {
        let mut a = quiet_node();
        let mut b = quiet_node();
        b.set_cpu_pstate(7); // 1.8 GHz
        let sa0 = a.snapshot();
        let sb0 = b.snapshot();
        let oa = a.run_phase(&cpu_bound());
        let ob = b.run_phase(&cpu_bound());
        assert!(ob.work_s > oa.work_s * 1.2);
        let pa = a.snapshot().delta(&sa0).dc_power_w();
        let pb = b.snapshot().delta(&sb0).dc_power_w();
        assert!(pb < pa - 30.0, "power {pa} vs {pb}");
    }

    #[test]
    fn pinned_uncore_reduces_power_with_small_penalty_for_cpu_bound() {
        let mut a = quiet_node();
        let mut b = quiet_node();
        b.set_uncore_limits(18, 18).unwrap(); // pin 1.8 GHz
        let sa0 = a.snapshot();
        let sb0 = b.snapshot();
        let oa = a.run_phase(&cpu_bound());
        let ob = b.run_phase(&cpu_bound());
        let penalty = (ob.work_s - oa.work_s) / oa.work_s;
        assert!(penalty < 0.03, "penalty {penalty}");
        let pa = a.snapshot().delta(&sa0).dc_power_w();
        let pb = b.snapshot().delta(&sb0).dc_power_w();
        let saving = (pa - pb) / pa;
        assert!(saving > 0.04, "saving {saving}");
    }

    #[test]
    fn avx512_caps_effective_frequency() {
        let mut n = quiet_node();
        let demand = PhaseDemand {
            instructions: 2e11,
            avx512_fraction: 1.0,
            mem_bytes: 40e9,
            cpi_core: 0.45,
            active_cores: 40,
            ..Default::default()
        };
        let before = n.snapshot();
        n.run_phase(&demand);
        let d = n.snapshot().delta(&before);
        assert!(
            (d.avg_cpu_ghz() - 2.2).abs() < 0.05,
            "avg {}",
            d.avg_cpu_ghz()
        );
        assert!((d.vpi() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_wait_accumulates_spin_instructions() {
        let mut n = quiet_node();
        let demand = PhaseDemand {
            instructions: 0.0,
            mem_bytes: 0.0,
            active_cores: 1,
            wait_seconds: 1.0,
            wait_busy: true,
            ..Default::default()
        };
        let before = n.snapshot();
        let out = n.run_phase(&demand);
        assert!((out.wait_s - 1.0).abs() < 1e-9);
        let d = n.snapshot().delta(&before);
        assert!((d.cpi() - SPIN_CPI).abs() < 1e-9);
    }

    #[test]
    fn hw_ufs_follows_subnominal_dvfs() {
        let mut n = quiet_node();
        n.set_cpu_pstate(5); // 2.0 GHz < nominal
        let quiet = PhaseDemand {
            instructions: 5e10,
            mem_bytes: 1e9,
            cpi_core: 0.5,
            active_cores: 40,
            mem_overlap: 0.8,
            ..Default::default()
        };
        n.run_phase(&quiet);
        // Sub-nominal, low memory traffic: firmware drops the uncore.
        assert!(
            n.current_uncore_ghz() < 2.0,
            "uncore {}",
            n.current_uncore_ghz()
        );
    }

    #[test]
    fn rapl_msr_tracks_exact_energy() {
        let mut n = quiet_node();
        n.run_phase(&cpu_bound());
        let unit = msr::rapl_energy_unit_joules(n.read_msr(0, addr::MSR_RAPL_POWER_UNIT).unwrap());
        let msr_j = n.read_msr(0, addr::MSR_PKG_ENERGY_STATUS).unwrap() as f64 * unit;
        let exact_j = n.snapshot().sockets[0].pkg_energy_uj as f64 * 1e-6;
        assert!(
            (msr_j - exact_j).abs() < 0.01 * exact_j + 1.0,
            "{msr_j} vs {exact_j}"
        );
    }

    #[test]
    fn rapl_disabled_and_loose_limit_are_bit_identical_to_no_limit() {
        // The acceptance contract for this subsystem: a node with no PL1
        // programmed and a node with PL1 armed but never binding (a limit
        // far above peak package power) must produce bit-identical
        // trajectories — enforcement adds state, not drift. Exercised with
        // noise on and several seeds so both RNG paths are covered.
        for seed in [1u64, 7, 42] {
            let run = |limit: Option<f64>| {
                let mut n = Node::new(NodeConfig::sd530_6148(), seed);
                if let Some(w) = limit {
                    n.set_rapl_limit_w(w, 1.0).unwrap();
                }
                n.run_phase(&cpu_bound());
                n.run_idle(1.0);
                (n.now(), n.dc_energy_exact_j(), n.snapshot().sockets[0])
            };
            let (t_none, e_none, s_none) = run(None);
            let (t_loose, e_loose, s_loose) = run(Some(4000.0));
            assert_eq!(t_none, t_loose);
            assert_eq!(e_none.to_bits(), e_loose.to_bits());
            assert_eq!(s_none.pkg_energy_uj, s_loose.pkg_energy_uj);
            assert_eq!(s_none.aperf_kcycles, s_loose.aperf_kcycles);
        }
    }

    #[test]
    fn rapl_binding_limit_throttles_and_caps_window_average() {
        let events_before = metrics::get(Metric::PowercapThrottleEvents);
        let mut n = quiet_node();
        // Per-socket package power of the cpu-bound phase is ~119 W at
        // nominal; 110 W is a binding PL1. The limiter settles into a
        // narrow limit cycle around the cap (one pstate step moves power
        // more than the 2 % hysteresis band), so assert on the throttle
        // event counter and the window average, not the end-of-phase
        // throttle depth.
        n.set_rapl_limit_w(110.0, 0.5).unwrap();
        let d = cpu_bound();
        n.run_phase(&d);
        n.run_phase(&d);
        assert!(
            metrics::get(Metric::PowercapThrottleEvents) > events_before,
            "limiter never engaged"
        );
        for i in 0..n.socket_count() {
            let avg = n.socket(i).rapl_avg_power_w();
            assert!(avg <= 110.0 * 1.02, "socket {i} window avg {avg} W");
        }
        // The delivered ratio stays visible where software reads it, never
        // above the requested nominal ratio.
        let status = msr::unpack_perf_ratio(n.read_msr(0, addr::IA32_PERF_STATUS).unwrap());
        assert!(status <= n.config.pstates.ratio_for(1), "status {status}");
        assert_eq!(
            n.effective_pstate(),
            n.requested_pstate() + n.rapl_throttle_steps() as usize
        );
    }

    #[test]
    fn rapl_throttle_slows_and_saves_energy() {
        let run = |limit: Option<f64>| {
            let mut n = quiet_node();
            if let Some(w) = limit {
                n.set_rapl_limit_w(w, 0.5).unwrap();
            }
            let before = n.dc_energy_exact_j();
            let out = n.run_phase(&cpu_bound());
            (out.work_s, n.dc_energy_exact_j() - before)
        };
        let (t_free, e_free) = run(None);
        let (t_cap, _) = run(Some(100.0));
        assert!(t_cap > t_free * 1.05, "{t_cap} vs {t_free}");
        // Power drops harder than runtime grows under a deep cap.
        let p_free = e_free / t_free;
        let (t2, e2) = run(Some(100.0));
        assert!(e2 / t2 < p_free * 0.95, "{} vs {p_free}", e2 / t2);
    }

    #[test]
    fn rapl_clear_releases_the_throttle() {
        let events_before = metrics::get(Metric::PowercapThrottleEvents);
        let mut n = quiet_node();
        n.set_rapl_limit_w(100.0, 0.5).unwrap();
        n.run_phase(&cpu_bound());
        assert!(metrics::get(Metric::PowercapThrottleEvents) > events_before);
        n.clear_rapl_limit();
        assert!(!n.rapl_enabled());
        assert_eq!(n.rapl_throttle_steps(), 0);
        assert_eq!(n.effective_pstate(), n.requested_pstate());
        assert_eq!(n.socket(0).rapl_avg_power_w(), 0.0);
    }

    #[test]
    fn rapl_enforces_with_the_settled_jump_off() {
        // A settled phase jumps its remaining quanta; the limiter must
        // still see every quantum, so an armed PL1 turns the jump off.
        let events_before = metrics::get(Metric::PowercapThrottleEvents);
        let mut n = quiet_node();
        n.set_rapl_limit_w(110.0, 0.5).unwrap();
        n.run_phase(&cpu_bound());
        assert!(metrics::get(Metric::PowercapThrottleEvents) > events_before);
        assert!(n.socket(0).rapl_avg_power_w() <= 110.0 * 1.02);
    }

    #[test]
    fn idle_advances_time_cheaply() {
        let mut n = quiet_node();
        n.run_idle(5.0);
        assert!((n.now().as_secs() - 5.0).abs() < 1e-6);
        let snap = n.snapshot();
        let idle_power = snap.dc_energy_exact_j / 5.0;
        assert!(idle_power < 260.0, "idle DC {idle_power} W");
    }

    #[test]
    fn deterministic_across_same_seed() {
        let mk = || {
            let mut n = Node::new(NodeConfig::sd530_6148(), 99);
            n.run_phase(&cpu_bound());
            (n.now(), n.dc_energy_exact_j())
        };
        let (t1, e1) = mk();
        let (t2, e2) = mk();
        assert_eq!(t1, t2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn noise_differs_across_seeds() {
        let run = |seed| {
            let mut n = Node::new(NodeConfig::sd530_6148(), seed);
            n.run_phase(&cpu_bound()).work_s
        };
        assert_ne!(run(1), run(2));
    }
}
