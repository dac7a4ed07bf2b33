//! Settle cost of the dual-knob powercap search, closed loop on a live
//! node: signature windows from "cap imposed" to the policy reporting
//! `Ready` at the cap, each decision driven by a real measured window.
//!
//! The cold search has no fitted surface, so the warm point is the
//! reference operating point and the measured hill-climb walks the whole
//! descent one evaluation per window. The warm search starts from a
//! surface calibrated from three probe windows (the `earsim sweep`
//! product, collapsed to the corners) and lets the same hill-climb refine
//! the landing. Windows, not host time, are the unit: on a deployment each
//! one is a full signature period spent off the optimal point. Noise is
//! off, so both counts are exact.

use ear_archsim::{Node, NodeConfig, PhaseDemand, Pstate, PstateTable};
use ear_core::policy::{PolicyCtx, PolicyState, PowerPolicy, Powercap};
use ear_core::{Avx512Model, FittedSurface, PolicySettings, Poly2, Signature};

fn ctx<'a>(
    pstates: &'a PstateTable,
    model: &'a Avx512Model,
    settings: &'a PolicySettings,
) -> PolicyCtx<'a> {
    PolicyCtx {
        pstates,
        uncore_min_ratio: 12,
        uncore_max_ratio: 24,
        uncore_domains: 1,
        model,
        settings,
    }
}

/// One measured signature window at a pinned operating point; returns
/// its DC power.
fn probe(node: &mut Node, window: &PhaseDemand, ps: Pstate, ratio: u8) -> f64 {
    node.set_cpu_pstate(ps);
    node.set_uncore_limits(ratio, ratio)
        .expect("pin probe uncore");
    let prev = node.snapshot();
    node.run_phase(window);
    Signature::from_delta(&node.snapshot().delta(&prev), 1).dc_power_w
}

/// One full settle sequence: re-arm the node at the reference point, then
/// window → signature → node_policy → apply, until Ready. Returns the
/// windows it took.
fn settle(node: &mut Node, ctx: &PolicyCtx<'_>, window: &PhaseDemand) -> u32 {
    let mut policy = Powercap::default();
    node.set_cpu_pstate(1);
    node.set_uncore_limits(12, 24)
        .expect("re-arm uncore limits");
    let mut windows = 0u32;
    let mut prev = node.snapshot();
    loop {
        node.run_phase(window);
        let snap = node.snapshot();
        let sig = Signature::from_delta(&snap.delta(&prev), 1);
        prev = snap;
        windows += 1;
        let (freqs, state) = policy.node_policy(&sig, ctx);
        node.set_cpu_pstate(freqs.cpu);
        node.set_uncore_limits(freqs.imc_min_ratio, freqs.imc_max_ratio)
            .expect("apply uncore limits");
        if state == PolicyState::Ready {
            return windows;
        }
        assert!(windows < 60, "powercap search did not settle");
    }
}

#[test]
fn warm_start_settles_in_fewer_windows_than_the_cold_search() {
    let pstates = PstateTable::xeon_gold_6148();
    let model = Avx512Model::for_node(&NodeConfig::sd530_6148());
    let slowest = pstates.slowest();
    // Multi-second windows: the INM DC counter publishes once per second,
    // so sub-second windows read 0 W (the reason the paper measures over
    // >= 10 s). Heavy memory traffic gives the uncore knob real watts to
    // shed, so the dual-knob search has a genuine 2-D descent.
    let window = PhaseDemand {
        instructions: 8e11,
        mem_bytes: 160e9,
        cpi_core: 0.38,
        uncore_lat_cycles: 4.0,
        mem_overlap: 0.6,
        active_cores: 40,
        ..Default::default()
    };

    let mut cfg = NodeConfig::sd530_6148();
    cfg.noise_sigma = 0.0;
    let mut node = Node::new(cfg, 7);

    // Three probe windows calibrate a linear power surface, and a fourth
    // at the floor fixes a deep but achievable cap between floor and
    // reference draw.
    let (f_hi, f_mid) = (pstates.ghz(1), pstates.ghz(4));
    let p_ref = probe(&mut node, &window, 1, 24);
    let p_mid_f = probe(&mut node, &window, 4, 24);
    let p_low_u = probe(&mut node, &window, 1, 16);
    let p_floor = probe(&mut node, &window, slowest, 12);
    assert!(
        p_ref > p_floor + 1.0,
        "no dynamic range between reference ({p_ref:.1} W) and floor ({p_floor:.1} W)"
    );
    let cap_w = p_floor + 0.3 * (p_ref - p_floor);
    let b = (p_ref - p_mid_f) / (f_hi - f_mid);
    let c = (p_ref - p_low_u) / (2.4 - 1.6);
    let a = p_ref - b * f_hi - c * 2.4;
    let surface = FittedSurface {
        // Time falls with core frequency and (weakly) with uncore: enough
        // structure for the warm start's time minimisation to order
        // admissible points sensibly.
        time: Poly2 {
            coeffs: [100.0, -20.0, -1.0, 0.0, 0.0, 0.0],
        },
        power: Poly2 {
            coeffs: [a, b, c, 0.0, 0.0, 0.0],
        },
        f_range_ghz: (pstates.ghz(slowest), f_hi),
        u_range_ghz: (1.2, 2.4),
    };

    let cold = PolicySettings {
        cap_w: Some(cap_w),
        ..Default::default()
    };
    let warm = PolicySettings {
        cap_w: Some(cap_w),
        fitted: Some(surface),
        ..Default::default()
    };
    let w_cold = settle(&mut node, &ctx(&pstates, &model, &cold), &window);
    let w_warm = settle(&mut node, &ctx(&pstates, &model, &warm), &window);
    assert!(
        w_warm < w_cold,
        "warm start saved no windows (cold {w_cold}, warm {w_warm})"
    );
    assert_eq!((w_cold, w_warm), (15, 12), "recorded settle windows moved");
}
