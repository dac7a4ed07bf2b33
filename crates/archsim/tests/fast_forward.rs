//! The settled-phase jump against quantum-by-quantum stepping.
//!
//! Once the firmware UFS has settled and no PL1 limit is armed,
//! `Node::run_phase` and `Node::run_idle` jump the remaining full quanta
//! of a call instead of stepping them one by one. The jump must be exact:
//! every result must equal, bit for bit, what the doc-hidden oracles
//! `run_phase_stepped`/`run_idle_stepped` (the literal 10 ms loop) leave.
//! These tests drive a jumping node and a stepping node through the same
//! calls and compare the phase outcomes, the clock, the counter snapshot,
//! every MSR software reads and the f64 state behind them
//! (`Node::exact_state`) after every call.

use ear_archsim::msr::addr;
use ear_archsim::{Node, NodeConfig, PhaseDemand, PhaseOutcome};

const SEED: u64 = 7;

/// A node that jumps settled runs and one that steps every quantum.
struct Pair {
    jumped: Node,
    stepped: Node,
}

impl Pair {
    fn new(cfg: NodeConfig) -> Self {
        Pair {
            jumped: Node::new(cfg.clone(), SEED),
            stepped: Node::new(cfg, SEED),
        }
    }

    fn sd530(min_r: u8, max_r: u8) -> Self {
        let mut cfg = NodeConfig::sd530_6148();
        cfg.uncore_min_ratio = min_r;
        cfg.uncore_max_ratio = max_r;
        Pair::new(cfg)
    }

    /// Applies the same software action to both nodes.
    fn both(&mut self, f: impl Fn(&mut Node)) {
        f(&mut self.jumped);
        f(&mut self.stepped);
    }

    fn phase(&mut self, d: &PhaseDemand) {
        let a = self.jumped.run_phase(d);
        let b = self.stepped.run_phase_stepped(d);
        assert_same_outcome(&a, &b);
        self.assert_same("after run_phase");
    }

    fn idle(&mut self, seconds: f64) {
        self.jumped.run_idle(seconds);
        self.stepped.run_idle_stepped(seconds);
        self.assert_same("after run_idle");
    }

    fn assert_same(&self, what: &str) {
        let (a, b) = (&self.jumped, &self.stepped);
        assert_eq!(a.now(), b.now(), "{what}: clock");
        assert_eq!(a.snapshot(), b.snapshot(), "{what}: snapshot");
        let bits = |n: &Node| -> Vec<u64> { n.exact_state().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(a), bits(b), "{what}: exact f64 state");
        for s in 0..a.socket_count() {
            for r in [
                addr::IA32_PERF_STATUS,
                addr::IA32_FIXED_CTR0,
                addr::IA32_FIXED_CTR1,
                addr::IA32_APERF,
                addr::IA32_MPERF,
                addr::MSR_PKG_ENERGY_STATUS,
                addr::MSR_DRAM_ENERGY_STATUS,
                addr::MSR_UNCORE_PERF_STATUS,
                addr::MSR_U_PMON_UCLK_FIXED_CTR,
            ] {
                assert_eq!(a.read_msr(s, r), b.read_msr(s, r), "{what}: MSR {r:#x}");
            }
        }
    }
}

fn assert_same_outcome(a: &PhaseOutcome, b: &PhaseOutcome) {
    assert_eq!((a.start, a.end), (b.start, b.end), "phase bounds");
    assert_eq!(a.work_s.to_bits(), b.work_s.to_bits(), "work_s");
    assert_eq!(a.wait_s.to_bits(), b.wait_s.to_bits(), "wait_s");
}

fn mixed_work() -> PhaseDemand {
    PhaseDemand {
        instructions: 2.0e11,
        mem_bytes: 8.0e9,
        active_cores: 40,
        wait_seconds: 0.25,
        wait_busy: true,
        ..Default::default()
    }
}

fn streaming() -> PhaseDemand {
    PhaseDemand {
        instructions: 4.0e10,
        mem_bytes: 4.0e10,
        active_cores: 40,
        ..Default::default()
    }
}

/// Runs the same mixed workload on both nodes, comparing after each call.
fn run_mixed(p: &mut Pair, khz: u64) {
    let ps = p.jumped.config.pstates.pstate_for_khz(khz);
    p.both(|n| n.set_cpu_pstate(ps));
    p.phase(&mixed_work());
    p.idle(0.3);
    p.phase(&streaming());
    p.phase(&mixed_work());
}

#[test]
fn bit_identical_across_pstate_sweep() {
    // The DVFS range the paper's policies use: the uncore settles at max
    // at nominal and inside the window below it, and the tail of every
    // phase is jumped.
    for khz in [2_400_000, 2_200_000, 2_000_000, 1_800_000] {
        run_mixed(&mut Pair::sd530(12, 24), khz);
    }
}

#[test]
fn bit_identical_across_uncore_sweep() {
    // The software-programmed uncore window (eUFS pins min == max).
    for (min_r, max_r) in [(12u8, 24u8), (18, 18), (14, 20), (24, 24)] {
        let mut p = Pair::sd530(12, 24);
        p.both(|n| n.set_uncore_limits(min_r, max_r).unwrap());
        run_mixed(&mut p, 2_100_000);
    }
}

#[test]
fn bit_identical_over_long_phases_idles_and_a_meter_stall() {
    // Minutes of simulated time: thousands of quanta per jump, many INM
    // publications inside each, binade crossings in every accumulator,
    // and a stalled meter whose backlog publishes mid-jump.
    let mut p = Pair::sd530(12, 24);
    let long_work = PhaseDemand {
        instructions: 3.0e13,
        mem_bytes: 1.5e12,
        active_cores: 40,
        wait_seconds: 7.3,
        wait_busy: true,
        ..Default::default()
    };
    let long_spin = PhaseDemand {
        active_cores: 1,
        wait_seconds: 12.345,
        wait_busy: true,
        ..Default::default()
    };
    p.phase(&long_work);
    p.both(|n| n.inject_power_meter_stall(4.5));
    p.idle(33.3);
    p.phase(&long_spin);
    p.both(|n| n.set_cpu_pstate(6));
    p.phase(&long_work);
    p.idle(0.004);
    p.idle(1.0);
}

#[test]
fn bit_identical_on_multi_domain_and_gpu_nodes() {
    let routed = PhaseDemand {
        domain_mem_frac: Some([0.7, 0.3, 0.0, 0.0]),
        ..mixed_work()
    };
    for domains in [2, 4] {
        let mut p = Pair::new(NodeConfig::sd530_6148().with_uncore_domains(domains));
        p.both(|n| n.set_uncore_limits_dom(1, 14, 14).unwrap());
        for khz in [2_400_000, 2_000_000] {
            run_mixed(&mut p, khz);
            p.phase(&routed);
        }
    }
    let mut p = Pair::new(NodeConfig::gpu_node_6142m());
    let offload = PhaseDemand {
        gpu_power_w: 310.0,
        ..mixed_work()
    };
    p.phase(&offload);
    p.idle(2.0);
    p.phase(&offload);
}

#[test]
fn bit_identical_with_pl1_armed_and_cleared() {
    // An armed limit turns the jump off for the whole call; clearing it
    // turns it back on mid-sequence.
    let mut p = Pair::sd530(12, 24);
    p.both(|n| n.set_rapl_limit_w(110.0, 0.5).unwrap());
    p.phase(&mixed_work());
    p.idle(1.5);
    p.both(|n| n.clear_rapl_limit());
    p.phase(&mixed_work());
    p.idle(1.5);
}

#[test]
fn exactly_equal_when_controller_never_settles() {
    // Alternate 30 ms spin phases between a sub-nominal pstate (uncore
    // target ~14) and nominal (target = max 24). Each transition needs
    // 50-60 ms of slew at 2 ratio steps / 10 ms, so no phase ever reaches
    // its target and no call ever jumps.
    let mut p = Pair::sd530(12, 24);
    let ps_slow = p.jumped.config.pstates.pstate_for_khz(2_000_000);
    let ps_nom = p.jumped.config.pstates.nominal();
    let spin = PhaseDemand {
        active_cores: 40,
        wait_seconds: 0.030,
        wait_busy: true,
        ..Default::default()
    };
    for _ in 0..8 {
        p.both(|n| n.set_cpu_pstate(ps_slow));
        p.phase(&spin); // uncore slews down, never arrives
        p.both(|n| n.set_cpu_pstate(ps_nom));
        p.phase(&spin); // slews back up, arrives only at the end
        p.both(|n| n.set_cpu_pstate(ps_slow));
        p.idle(0.025); // idle target = min, again out of reach
        p.both(|n| n.set_cpu_pstate(ps_nom));
        p.phase(&spin);
    }
}
