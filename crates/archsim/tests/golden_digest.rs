//! Golden bit-digest of the node model over seeded random phase sequences.
//!
//! The quantum stepping in `Node::run_phase`/`Node::run_idle` is rewritten
//! for speed from time to time; every rewrite must keep the simulated
//! trajectory bit-identical. The experiment tables pin that only for the
//! catalog's inputs. This test drives the node through 64 seeded random
//! sequences that cover what the catalog does not: 1, 2 and 4 uncore
//! domains, every pstate, pinned, floating and legacy-register uncore
//! limits, EPB writes on one socket, busy and idle waits, pure-wait and
//! zero-length phases, idle gaps, power-meter stalls, GPU nodes, and RAPL
//! PL1 armed (binding and loose) and cleared. After every phase it folds
//! two views into two digests:
//!
//! * the observable view: the bits of every `snapshot()` field, every
//!   modelled MSR as software reads it, the phase outcome and the limiter
//!   state;
//! * the exact view: the f64 bits of every accumulator behind the integer
//!   counters, each UFS slew timer and the INM's exact energy
//!   (`Node::exact_state`), which catches drift too small to move a
//!   truncated counter.
//!
//! The expected digests were recorded from the straightforward per-quantum
//! implementation, stepping every quantum of every sequence.

use ear_archsim::msr::{self, addr};
use ear_archsim::{Node, NodeConfig, PhaseDemand, MAX_UNCORE_DOMAINS};

/// SplitMix64: a tiny self-contained generator, so the sequences do not
/// depend on the crate's own RNG (whose draws the node also consumes).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo..=hi`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// FNV-1a 64 over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Every register address the model implements, plus the full TPMI block
/// (absent domains must keep faulting).
fn msr_addresses() -> Vec<u32> {
    let mut v = vec![
        addr::IA32_MPERF,
        addr::IA32_APERF,
        addr::IA32_PERF_STATUS,
        addr::IA32_PERF_CTL,
        addr::IA32_ENERGY_PERF_BIAS,
        addr::IA32_FIXED_CTR0,
        addr::IA32_FIXED_CTR1,
        addr::IA32_FIXED_CTR2,
        addr::MSR_RAPL_POWER_UNIT,
        addr::MSR_PKG_POWER_LIMIT,
        addr::MSR_PKG_ENERGY_STATUS,
        addr::MSR_DRAM_ENERGY_STATUS,
        addr::MSR_UNCORE_RATIO_LIMIT,
        addr::MSR_UNCORE_PERF_STATUS,
        addr::MSR_U_PMON_UCLK_FIXED_CTL,
        addr::MSR_U_PMON_UCLK_FIXED_CTR,
    ];
    for d in 0..MAX_UNCORE_DOMAINS {
        v.push(addr::tpmi_ratio_limit(d));
        v.push(addr::tpmi_perf_status(d));
    }
    v
}

/// The observable and the exact digest of a run.
struct Digests {
    observable: Digest,
    exact: Digest,
}

/// Folds both views of the node's state into `h`.
fn observe(h: &mut Digests, node: &Node, regs: &[u32]) {
    observe_software(&mut h.observable, node, regs);
    for v in node.exact_state() {
        h.exact.f64(v);
    }
}

/// Hashes everything software and the accounting can observe.
fn observe_software(h: &mut Digest, node: &Node, regs: &[u32]) {
    let snap = node.snapshot();
    h.u64(snap.time.as_micros());
    h.u64(snap.dc_energy_mj);
    h.u64(snap.dc_energy_at.as_micros());
    h.f64(snap.dc_energy_exact_j);
    for s in snap.sockets.iter() {
        for v in [
            s.instructions,
            s.core_cycles,
            s.aperf_kcycles,
            s.mperf_kcycles,
            s.cas_transactions,
            s.avx512_instructions,
            s.uclk_kcycles,
            s.pkg_energy_uj,
            s.dram_energy_uj,
            s.uncore_domains as u64,
        ] {
            h.u64(v);
        }
        for d in 0..MAX_UNCORE_DOMAINS {
            h.u64(s.uclk_dom_kcycles[d]);
            h.u64(s.cas_dom_transactions[d]);
        }
    }
    for i in 0..node.socket_count() {
        for &r in regs {
            match node.read_msr(i, r) {
                Ok(v) => h.u64(v),
                Err(_) => h.u64(0xDEAD_0000 ^ r as u64),
            }
        }
        let s = node.socket(i);
        h.f64(s.rapl_avg_power_w());
        h.u64(s.rapl_throttle_steps() as u64);
        for d in 0..s.uncore_domains() {
            h.u64(s.uncore_ratio_dom(d) as u64);
        }
    }
    h.u64(node.effective_pstate() as u64);
    h.f64(node.current_uncore_ghz());
}

fn random_demand(g: &mut Gen, node: &Node) -> PhaseDemand {
    let cores = node.config.total_cores() as u64;
    let nd = node.uncore_domain_count();
    let mut d = PhaseDemand {
        wait_busy: g.chance(0.6),
        hw_ufs_bias: if g.chance(0.5) {
            0.0
        } else {
            g.range(-0.4, 0.2)
        },
        ..Default::default()
    };
    let shape = g.unit();
    if shape < 0.15 {
        // Pure wait: no work, only a (busy or idle) wait.
        d.instructions = 0.0;
        d.mem_bytes = 0.0;
        d.active_cores = g.int(0, 4) as usize;
        d.wait_seconds = g.range(0.0, 0.8);
        return d;
    }
    if shape < 0.18 {
        // Zero-length phase: no work and no wait.
        d.instructions = 0.0;
        d.mem_bytes = 0.0;
        return d;
    }
    d.instructions = g.range(1e9, 3e11);
    d.mem_bytes = if g.chance(0.1) {
        0.0
    } else {
        g.range(1e8, 1.2e11)
    };
    d.cpi_core = g.range(0.3, 2.5);
    d.uncore_lat_cycles = g.range(2.0, 8.0);
    d.mem_overlap = g.unit();
    d.active_cores = if g.chance(0.15) {
        g.int(1, 3) as usize
    } else {
        g.int(1, cores) as usize
    };
    d.activity = g.range(0.3, 1.0);
    d.avx512_fraction = if g.chance(0.6) { 0.0 } else { g.unit() };
    d.wait_seconds = if g.chance(0.5) {
        0.0
    } else {
        g.range(0.0, 0.4)
    };
    if node.config.gpus > 0 && g.chance(0.5) {
        d.gpu_power_w = g.range(0.0, 400.0);
    }
    if nd > 1 && g.chance(0.35) {
        let mut fr = [0.0f64; MAX_UNCORE_DOMAINS];
        let mut rest = 1.0;
        for f in fr.iter_mut().take(nd - 1) {
            *f = rest * g.unit();
            rest -= *f;
        }
        fr[nd - 1] = rest;
        d.domain_mem_frac = Some(fr);
    }
    debug_assert!(d.validate().is_ok(), "{:?}", d.validate());
    d
}

/// Software-side knob changes before a phase.
fn random_knobs(g: &mut Gen, node: &mut Node) {
    let slowest = node.config.pstates.slowest() as u64;
    let (lo, hi) = (node.config.uncore_min_ratio, node.config.uncore_max_ratio);
    let nd = node.uncore_domain_count();
    let sockets = node.socket_count();
    if g.chance(0.5) {
        node.set_cpu_pstate(g.int(0, slowest) as usize);
    }
    if g.chance(0.45) {
        let a = g.int(lo as u64, hi as u64) as u8;
        let b = g.int(lo as u64, hi as u64) as u8;
        let (min, max) = if g.chance(0.5) {
            (a, a) // pinned, as the explicit-UFS policies program it
        } else {
            (a.min(b), a.max(b)) // floating: firmware UFS picks within
        };
        let r = match g.int(0, 2) {
            0 => node.set_uncore_limits(min, max),
            1 => node.set_uncore_limits_dom(g.int(0, nd as u64 - 1) as usize, min, max),
            _ => node.write_msr(
                g.int(0, sockets as u64 - 1) as usize,
                addr::MSR_UNCORE_RATIO_LIMIT,
                msr::pack_uncore_ratio_limit(min, max),
            ),
        };
        r.unwrap_or_else(|e| panic!("uncore limit write rejected: {e}"));
    }
    if g.chance(0.25) {
        let socket = g.int(0, sockets as u64 - 1) as usize;
        node.write_msr(socket, addr::IA32_ENERGY_PERF_BIAS, g.int(0, 15))
            .unwrap_or_else(|e| panic!("EPB write rejected: {e}"));
    }
    let rapl = g.unit();
    if rapl < 0.2 {
        // Binding: per-socket package power runs ~40-150 W here.
        let limit = g.range(55.0, 130.0);
        let window = g.range(0.05, 2.0);
        node.set_rapl_limit_w(limit, window)
            .unwrap_or_else(|e| panic!("PL1 write rejected: {e}"));
    } else if rapl < 0.3 {
        node.set_rapl_limit_w(4000.0, 1.0)
            .unwrap_or_else(|e| panic!("PL1 write rejected: {e}"));
    } else if rapl < 0.42 {
        node.clear_rapl_limit();
    }
    if g.chance(0.05) {
        node.inject_power_meter_stall(g.range(0.5, 3.0));
    }
}

/// Runs one seeded sequence and folds it into `h`.
fn run_sequence(seq: u64, domains: usize, h: &mut Digests) {
    let mut g = Gen(0x5EED_0000 + seq);
    let mut cfg = if seq % 5 == 4 {
        NodeConfig::gpu_node_6142m()
    } else {
        NodeConfig::sd530_6148()
    }
    .with_uncore_domains(domains);
    if seq % 4 == 1 {
        cfg.noise_sigma = 0.0;
    }
    let mut node = Node::new(cfg, g.next());
    let regs = msr_addresses();
    let phases = g.int(6, 12);
    for _ in 0..phases {
        random_knobs(&mut g, &mut node);
        let demand = random_demand(&mut g, &node);
        let out = node.run_phase(&demand);
        h.observable.u64(out.start.as_micros());
        h.observable.u64(out.end.as_micros());
        h.observable.f64(out.work_s);
        h.observable.f64(out.wait_s);
        observe(h, &node, &regs);
        if g.chance(0.3) {
            let gap = if g.chance(0.1) {
                0.0
            } else {
                g.range(0.0, 1.5)
            };
            node.run_idle(gap);
            observe(h, &node, &regs);
        }
    }
}

/// The (observable, exact) digests of all 64 sequences at `domains`.
fn digest_for(domains: usize) -> (u64, u64) {
    let throttles_before =
        ear_trace::metrics::get(ear_trace::metrics::Metric::PowercapThrottleEvents);
    let mut h = Digests {
        observable: Digest::new(),
        exact: Digest::new(),
    };
    for seq in 0..64u64 {
        // Every sequence runs at every domain count: the same software
        // decisions, different hardware.
        run_sequence(seq, domains, &mut h);
    }
    // The counter is process-wide, but other tests only ever add to it.
    assert!(
        ear_trace::metrics::get(ear_trace::metrics::Metric::PowercapThrottleEvents)
            > throttles_before,
        "no sequence ever made PL1 bind"
    );
    (h.observable.0, h.exact.0)
}

/// Checks both digests at `domains` against the recorded values.
fn assert_digests(domains: usize, observable: u64, exact: u64) {
    let (got_observable, got_exact) = digest_for(domains);
    assert_eq!(
        got_observable, observable,
        "observable digest {got_observable:#018x}"
    );
    assert_eq!(got_exact, exact, "exact digest {got_exact:#018x}");
}

#[test]
fn one_domain_trajectories_are_bit_identical_to_the_recorded_digest() {
    assert_digests(1, 0x1156_0a2e_4b2c_22d4, 0x2df4_914b_fe48_a5ec);
}

#[test]
fn two_domain_trajectories_are_bit_identical_to_the_recorded_digest() {
    assert_digests(2, 0x2278_4fd1_c7c9_0784, 0xa98e_0d76_b377_b4f4);
}

#[test]
fn four_domain_trajectories_are_bit_identical_to_the_recorded_digest() {
    assert_digests(4, 0xbdb4_7e0d_d1c1_77ff, 0x5c57_9226_8b3f_baf4);
}
