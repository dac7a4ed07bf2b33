//! Dependency-free micro-benchmarks of the simulation hot path.
//!
//! The zero-dependency suite behind `earsim bench`, which the CI smoke job
//! runs everywhere. It times the structures the per-event hot path
//! touches — DynAIS sampling (incremental vs the reference eager
//! detector), counter snapshots, the settled-phase jump, the trace bus
//! dark vs live — plus the Table I wall clock, and renders the results as
//! both a human-readable table and the `BENCH_hotpath.json` artifact.
//!
//! A row either races the shipped path against shipped code or a test
//! oracle (`reference` set, gated at 1.0 by [`verify_speedups`]) or is a
//! plain reading (`reference` null).
//!
//! Timing uses best-of-N `std::time::Instant` wall clock: the minimum over
//! repetitions is the least noisy estimator for short deterministic loops.

use ear_archsim::{Node, NodeConfig, PhaseDemand};
use ear_dynais::{DynAis, DynaisConfig, ReferenceDynAis};
use ear_trace::json::Json;
use ear_trace::metrics::{self, Metric};
use std::hint::black_box;
use std::time::Instant;

/// JSON schema identifier emitted in (and required of) the artifact.
pub const SCHEMA: &str = "earsim-bench-hotpath/v1";

/// The bench names of a valid artifact: every one must appear, and no
/// other may.
pub const REQUIRED_BENCHES: [&str; 13] = [
    "dynais_inloop_per_sample",
    "dynais_aperiodic_per_sample",
    "snapshot_per_call",
    "run_phase_one_simsec",
    "uncore_domain_step",
    "trace_emit_per_event",
    "frame_codec_roundtrip",
    "eargm_tree_fanout",
    "sweep_grid_wall",
    "fitted_policy_decide",
    "rapl_enforce_step",
    "table1_wall",
    "cache_warm_all_wall",
];

/// One timed hot-path measurement.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable identifier (see [`REQUIRED_BENCHES`]).
    pub name: &'static str,
    /// Unit of both numbers (e.g. `ns/op`).
    pub unit: &'static str,
    /// Shipped code or a test oracle the measured path races, if any.
    pub reference: Option<f64>,
    /// The shipped implementation.
    pub optimized: f64,
}

impl BenchEntry {
    /// `reference / optimized`, when a reference exists.
    pub fn speedup(&self) -> Option<f64> {
        self.reference.map(|r| r / self.optimized)
    }
}

/// A full bench run: what `earsim bench` serialises.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// True when run with `--quick` (CI smoke: fewer iterations).
    pub quick: bool,
    /// The measurements, in [`REQUIRED_BENCHES`] order.
    pub benches: Vec<BenchEntry>,
}

/// Unwraps a bench-infrastructure `Result`. A failure here is a harness
/// bug, not a measurement, so panicking (with context) is the right
/// response — and keeps the non-test code clean under the
/// `clippy::unwrap_used` gate.
fn must<T, E: std::fmt::Debug>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| panic!("bench harness: {what} failed: {e:?}"))
}

/// Minimum wall time over `reps` calls of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// In-loop steady state: a period-100 signal on the paper configuration
/// (window 250, 4 levels). The incremental detector does one window compare
/// per sample; the reference rescans every candidate period.
fn bench_dynais_inloop(quick: bool) -> BenchEntry {
    let n = if quick { 50_000 } else { 1_000_000 };
    let pattern: Vec<u64> = (0..100u64).map(|i| i * 7919 + 3).collect();
    let cfg = DynaisConfig::default();

    // Warm each detector past detection so the timed region is pure in-loop.
    let mut opt = DynAis::new(&cfg);
    for i in 0..1_000usize {
        black_box(opt.sample(pattern[i % pattern.len()]));
    }
    let t_opt = best_secs(3, || {
        for i in 0..n {
            black_box(opt.sample(pattern[i % pattern.len()]));
        }
    }) / n as f64;

    let n_ref = n / 10; // the eager detector is slow; keep runtime bounded
    let mut rf = ReferenceDynAis::new(&cfg);
    for i in 0..1_000usize {
        black_box(rf.sample(pattern[i % pattern.len()]));
    }
    let t_ref = best_secs(3, || {
        for i in 0..n_ref {
            black_box(rf.sample(pattern[i % pattern.len()]));
        }
    }) / n_ref as f64;

    BenchEntry {
        name: "dynais_inloop_per_sample",
        unit: "ns/op",
        reference: Some(t_ref * 1e9),
        optimized: t_opt * 1e9,
    }
}

/// Aperiodic worst case: no value ever repeats, every candidate resets.
fn bench_dynais_aperiodic(quick: bool) -> BenchEntry {
    let n = if quick { 20_000 } else { 200_000 };
    let cfg = DynaisConfig::default();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };

    let mut opt = DynAis::new(&cfg);
    let t_opt = best_secs(3, || {
        for _ in 0..n {
            black_box(opt.sample(next()));
        }
    }) / n as f64;

    let n_ref = n / 4;
    let mut rf = ReferenceDynAis::new(&cfg);
    let t_ref = best_secs(3, || {
        for _ in 0..n_ref {
            black_box(rf.sample(next()));
        }
    }) / n_ref as f64;

    BenchEntry {
        name: "dynais_aperiodic_per_sample",
        unit: "ns/op",
        reference: Some(t_ref * 1e9),
        optimized: t_opt * 1e9,
    }
}

/// Cost of one counter snapshot of a node that has run a phase. No
/// reference: the call is the only snapshot path that ships.
fn bench_snapshot(quick: bool) -> BenchEntry {
    let n = if quick { 50_000 } else { 500_000 };
    let mut node = Node::new(NodeConfig::sd530_6148(), 1);
    node.run_phase(&PhaseDemand {
        instructions: 1e10,
        mem_bytes: 2e9,
        active_cores: 40,
        ..Default::default()
    });

    let t = best_secs(3, || {
        for _ in 0..n {
            black_box(node.snapshot());
        }
    }) / n as f64;

    BenchEntry {
        name: "snapshot_per_call",
        unit: "ns/op",
        reference: None,
        optimized: t * 1e9,
    }
}

/// One simulated second of settled spin: the stepping oracle walks a
/// hundred 10 ms quanta; the shipped `run_phase` steps until the firmware
/// UFS settles, then jumps the rest bit-exactly.
fn bench_settled_jump(quick: bool) -> BenchEntry {
    let n = if quick { 200 } else { 2_000 };
    let spin = PhaseDemand {
        active_cores: 40,
        wait_seconds: 1.0,
        wait_busy: true,
        ..Default::default()
    };

    let mut stepped = Node::new(NodeConfig::sd530_6148(), 1);
    let t_ref = best_secs(3, || {
        for _ in 0..n {
            black_box(stepped.run_phase_stepped(&spin));
        }
    }) / n as f64;

    let mut jumped = Node::new(NodeConfig::sd530_6148(), 1);
    let t_opt = best_secs(3, || {
        for _ in 0..n {
            black_box(jumped.run_phase(&spin));
        }
    }) / n as f64;

    BenchEntry {
        name: "run_phase_one_simsec",
        unit: "us/simsec",
        reference: Some(t_ref * 1e6),
        optimized: t_opt * 1e6,
    }
}

/// Per-die fan-out overhead of the node step. `reference` runs one
/// simulated second of memory-bound phases on a node whose sockets expose
/// all four TPMI uncore domains — per-domain firmware UFS, per-domain
/// ratio-limit checks, per-domain bandwidth and power integration every
/// interval; `optimized` runs the identical demand on the legacy 1-domain
/// configuration, where the domain vector collapses to the scalar code the
/// pre-refactor tree ran. The speedup column therefore reads as "what the
/// maximum domain fan-out costs per step": the gate asserts the single
/// knob path never became the slower one, i.e. the refactor's N=1 fast
/// path really is free.
fn bench_uncore_domain_step(quick: bool) -> BenchEntry {
    // A settled phase costs well under a microsecond: 20k of them keep
    // each timed repetition near 10 ms, long enough that one preemption
    // cannot flip the comparison.
    let n = if quick { 200 } else { 20_000 };
    // Memory-bound and traffic on every die (uniform split by default), so
    // the per-domain machinery is exercised — not skipped as idle.
    let demand = PhaseDemand {
        instructions: 2e9,
        mem_bytes: 4e9,
        active_cores: 40,
        ..Default::default()
    };

    let mut fanned = Node::new(
        NodeConfig::sd530_6148().with_uncore_domains(ear_archsim::MAX_UNCORE_DOMAINS),
        1,
    );
    let t_ref = best_secs(3, || {
        for _ in 0..n {
            black_box(fanned.run_phase(&demand));
        }
    }) / n as f64;

    let mut single = Node::new(NodeConfig::sd530_6148(), 1);
    let t_opt = best_secs(3, || {
        for _ in 0..n {
            black_box(single.run_phase(&demand));
        }
    }) / n as f64;

    BenchEntry {
        name: "uncore_domain_step",
        unit: "us/phase",
        reference: Some(t_ref * 1e6),
        optimized: t_opt * 1e6,
    }
}

/// Trace-bus overhead per emission site. `optimized` is the disabled bus
/// (what every run without `--trace` pays at each instrumented point: one
/// relaxed atomic load, the closure never built); `reference` is the
/// enabled bus doing real work (construct the record, push it into the
/// ring — steady state, so once full each push also retires the oldest
/// record). The speedup column therefore reads as "how much cheaper a
/// dark emission site is than a live one".
fn bench_trace_emit(quick: bool) -> BenchEntry {
    let n = if quick { 200_000 } else { 4_000_000 };
    let record = |i: u64| ear_trace::TraceRecord {
        time_s: i as f64 * 1e-3,
        node: i % 8,
        event: ear_trace::TraceEvent::ImcSearchStep {
            max_ratio: 16 + i % 8,
        },
    };

    ear_trace::reset();
    ear_trace::set_enabled(false);
    let t_off = best_secs(3, || {
        for i in 0..n as u64 {
            let i = black_box(i);
            ear_trace::emit_with(|| record(i));
        }
    }) / n as f64;

    ear_trace::set_enabled(true);
    let t_on = best_secs(3, || {
        for i in 0..n as u64 {
            let i = black_box(i);
            ear_trace::emit_with(|| record(i));
        }
    }) / n as f64;
    ear_trace::set_enabled(false);
    ear_trace::reset();

    BenchEntry {
        name: "trace_emit_per_event",
        unit: "ns/op",
        reference: Some(t_on * 1e9),
        optimized: t_off * 1e9,
    }
}

/// Wire-codec round trip: encode one signature-report frame and decode it
/// back. This is the marshalling cost every networked daemon request pays
/// twice (once per direction); no reference — the codec is new in this
/// revision.
fn bench_frame_codec(quick: bool) -> BenchEntry {
    use ear_netd::codec::{decode_frame, encode_frame};

    let n = if quick { 20_000 } else { 500_000 };
    let msg = ear_netd::loadgen::nth_request(3, 2); // a report_signature frame
    let t = best_secs(3, || {
        for _ in 0..n {
            let frame = must(encode_frame(black_box(&msg)), "encode_frame");
            black_box(must(decode_frame(&frame), "decode_frame"));
        }
    }) / n as f64;
    BenchEntry {
        name: "frame_codec_roundtrip",
        unit: "ns/op",
        reference: None,
        optimized: t * 1e9,
    }
}

/// One EARGM management round over 64 node daemons: poll every power
/// report, redistribute the budget, push and verify every cap.
/// `reference` is the flat [`EargmPoller`] — one blocking client per
/// daemon, each daemon a readiness-loop server on its own Unix socket.
/// `optimized` is one aggregation-tree round of the cluster scenario: the
/// same protocol frames, folded level by level through in-process daemons
/// with no threads or sockets in the path.
fn bench_eargm_tree_fanout(quick: bool) -> BenchEntry {
    use ear_netd::{client, cluster, conn, poller, server};
    use std::time::Duration;

    let nodes = 64;
    let budget_w = 200.0 * nodes as f64;
    let rounds = if quick { 3 } else { 20 };
    let reps = if quick { 2 } else { 3 };

    // Flat reference: 64 daemons, each behind its own Unix socket.
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for node in 0..nodes {
        let spec = std::env::temp_dir()
            .join(format!(
                "earsim-bench-eargm-{}-{node}.sock",
                std::process::id()
            ))
            .to_string_lossy()
            .to_string();
        let listener = must(conn::NetListener::bind(&spec), "bind");
        handles.push(server::spawn_async(
            listener,
            server::ServerConfig {
                read_timeout: Duration::from_secs(10),
                ..Default::default()
            },
        ));
        endpoints.push(conn::Endpoint::parse(&spec));
    }
    let client_cfg = client::ClientConfig {
        request_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let mut flat = poller::EargmPoller::new(endpoints.clone(), &client_cfg, budget_w);
    must(flat.poll_once(), "flat warmup round");
    let t_flat = best_secs(reps, || {
        for _ in 0..rounds {
            must(flat.poll_once(), "flat poll round");
        }
    }) / rounds as f64;
    drop(flat);
    for ep in &endpoints {
        let mut c = client::NetClient::new(ep.clone(), client_cfg.clone());
        must(c.shutdown(), "daemon shutdown");
    }
    for h in handles {
        if h.join().is_err() {
            panic!("bench harness: flat daemon thread panicked");
        }
    }

    // Tree-folded path: one cluster round over the same daemon count.
    let mut sim = must(
        cluster::SimCluster::new(cluster::ClusterConfig {
            nodes,
            budget_w: Some(budget_w),
            ..Default::default()
        }),
        "cluster build",
    );
    must(sim.round(), "tree warmup round");
    let t_tree = best_secs(reps, || {
        for _ in 0..rounds {
            must(sim.round(), "tree round");
        }
    }) / rounds as f64;

    BenchEntry {
        name: "eargm_tree_fanout",
        unit: "us/round",
        reference: Some(t_flat * 1e6),
        optimized: t_tree * 1e6,
    }
}

/// Wall time of one small (pstate × uncore) grid through the shipped
/// [`crate::sweep::sweep_app`]: one engine matrix over the whole grid,
/// one uncore row claimed per queue operation, cells scheduled in
/// result-cache key order. No in-process reference. The persistent
/// result cache is off during `bench`, so every cell is simulated.
fn bench_sweep_grid_wall(quick: bool) -> BenchEntry {
    use crate::sweep::{sweep_app, SweepConfig};
    use ear_workloads::sweep::SweepSpec;

    let targets = ear_workloads::by_name("BT-MZ.C (OpenMP)")
        .unwrap_or_else(|| panic!("bench harness: catalog lookup failed"));
    let spec = SweepSpec {
        cpu_pstates: vec![1, 4, 7],
        imc_ratios: vec![24, 20, 16, 12],
    };
    let config = SweepConfig::default();

    // A shortened variant of the workload: same per-iteration physics
    // (time and iteration count scaled together), fewer iterations, so the
    // row weighs the sweep's orchestration — job synthesis, pool setup,
    // bookkeeping — against a short per-cell simulation body, as `--quick`
    // modes do throughout this module.
    let mut short = targets.clone();
    short.iterations = 8;
    short.time_s = targets.time_s * short.iterations as f64 / targets.iterations as f64;

    // Warm the calibration cache before anything is timed.
    black_box(must(sweep_app(&short, &spec, &config), "sweep"));
    let t = best_secs(if quick { 6 } else { 10 }, || {
        black_box(must(sweep_app(&short, &spec, &config), "sweep"));
    });

    BenchEntry {
        name: "sweep_grid_wall",
        unit: "ms/grid",
        reference: None,
        optimized: t * 1e3,
    }
}

/// Policy decision latency, closed loop: how long until a policy has its
/// operating point, counting the signature windows it consumes to get
/// there. Each decision drives a real archsim node — run one signature
/// window, snapshot the counters, build the [`Signature`] from the delta,
/// invoke `node_policy`, apply the returned frequencies to the node —
/// until the policy returns `Ready`. `reference` is the paper's iterative
/// `min_energy_eufs`: the CPU stage, a settling window, then one
/// `IMC_FREQ_SEL` step per window until a penalty trips. `optimized` is
/// the one-shot `fitted` policy evaluating its pre-fitted T/P surfaces:
/// one window to observe, one `node_policy` call, done. The speedup
/// column therefore reads as the settle windows the surface evaluation
/// eliminates — the measured form of the sweep's "one evaluation instead
/// of an iterative settle sequence" claim.
fn bench_fitted_policy_decide(quick: bool) -> BenchEntry {
    use ear_archsim::{Node, NodeConfig, PstateTable};
    use ear_core::policy::{PolicyCtx, PolicyState, PowerPolicy};
    use ear_core::Signature;
    use ear_core::{Avx512Model, Fitted, FittedSurface, MinEnergyEufs, PolicySettings, Poly2};

    // About 10 ms per timed repetition, as in `bench_uncore_domain_step`.
    let n = if quick { 40 } else { 2_000 };
    let pstates = PstateTable::xeon_gold_6148();
    let model = Avx512Model::for_node(&NodeConfig::sd530_6148());
    let plain = PolicySettings::default();
    // A memory-bound surface over the deployed window (what `earsim
    // sweep` fits for such workloads): time curves along both axes, so
    // the one-shot selection is a genuine 2-D trade-off.
    let surface = FittedSurface {
        time: Poly2 {
            coeffs: [90.0, -2.0, -10.0, 0.0, 2.0, 0.0],
        },
        power: Poly2 {
            coeffs: [80.0, 70.0, 30.0, 0.0, 0.0, 0.0],
        },
        f_range_ghz: (1.0, 2.4),
        u_range_ghz: (1.2, 2.4),
    };
    let with_surface = PolicySettings {
        fitted: Some(surface),
        ..Default::default()
    };
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
    // Memory traffic keeps firmware UFS near the top of the window, so
    // the HW-guided iterative search has a real descent ahead of it.
    let window = ear_archsim::PhaseDemand {
        instructions: 4e8,
        mem_bytes: 2e9,
        active_cores: 40,
        ..Default::default()
    };

    // One decision: fresh policy, node re-armed at the defaults, then
    // window → signature → node_policy → apply, until Ready.
    fn decide(
        node: &mut Node,
        policy: &mut dyn PowerPolicy,
        ctx: &PolicyCtx<'_>,
        window: &ear_archsim::PhaseDemand,
    ) -> u32 {
        node.set_cpu_pstate(1);
        must(node.set_uncore_limits(12, 24), "re-arm uncore limits");
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
            must(
                node.set_uncore_limits(freqs.imc_min_ratio, freqs.imc_max_ratio),
                "apply uncore limits",
            );
            if state == PolicyState::Ready {
                return windows;
            }
            assert!(windows < 50, "iterative settle sequence did not converge");
        }
    }

    let iter_ctx = ctx(&pstates, &model, &plain);
    let fit_ctx = ctx(&pstates, &model, &with_surface);
    let mut node = Node::new(NodeConfig::sd530_6148(), 7);

    // Warm-up + sanity: the iterative machine must actually iterate and
    // the fitted policy must decide in its single window.
    let w_ref = decide(&mut node, &mut MinEnergyEufs::default(), &iter_ctx, &window);
    let w_fit = decide(&mut node, &mut Fitted::default(), &fit_ctx, &window);
    assert!(w_ref > 1, "iterative policy converged without settling");
    assert_eq!(w_fit, 1, "fitted policy is one-shot");

    let t_ref = best_secs(3, || {
        for _ in 0..n {
            let mut p = MinEnergyEufs::default();
            black_box(decide(&mut node, &mut p, &iter_ctx, &window));
        }
    }) / n as f64;
    let t_opt = best_secs(3, || {
        for _ in 0..n {
            let mut p = Fitted::default();
            black_box(decide(&mut node, &mut p, &fit_ctx, &window));
        }
    }) / n as f64;

    BenchEntry {
        name: "fitted_policy_decide",
        unit: "us/decision",
        reference: Some(t_ref * 1e6),
        optimized: t_opt * 1e6,
    }
}

/// Host cost of one simulated second on a node with a binding RAPL PL1
/// armed: the shipped limiter in [`ear_archsim::Node`] updates its window
/// estimate and throttle every quantum, so no quantum is jumped. No
/// in-process reference: armed vs disarmed is a tax, not a race. Before
/// anything is timed, the limit is programmed through the MSR write path
/// and must record throttle events on the live node.
fn bench_rapl_enforce_step(quick: bool) -> BenchEntry {
    let mut node = Node::new(NodeConfig::sd530_6148(), 11);
    // Sized to run multiple averaging windows (~1.7 s at nominal), so
    // the window estimate genuinely climbs through the 100 W limit —
    // well below this phase's ~119 W per-socket draw.
    must(node.set_rapl_limit_w(100.0, 0.5), "program PL1");
    let demand = PhaseDemand {
        instructions: 4e11,
        mem_bytes: 40e9,
        cpi_core: 0.38,
        uncore_lat_cycles: 4.0,
        mem_overlap: 0.6,
        active_cores: 40,
        ..Default::default()
    };
    let before = metrics::get(Metric::PowercapThrottleEvents);
    node.run_phase(&demand);
    assert!(
        metrics::get(Metric::PowercapThrottleEvents) > before,
        "binding PL1 recorded no throttle steps"
    );

    let n = if quick { 100 } else { 1_000 };
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut sim_s = 0.0;
        let t = Instant::now();
        for _ in 0..n {
            sim_s += black_box(node.run_phase(&demand)).duration_s();
        }
        best = best.min(t.elapsed().as_secs_f64() / sim_s);
    }

    BenchEntry {
        name: "rapl_enforce_step",
        unit: "us/simsec",
        reference: None,
        optimized: best * 1e6,
    }
}

/// Cold vs warm persistent result cache over the paper evaluation (the
/// whole `run_all` output; `--quick` trims it to Table I). `reference` is
/// the cold run that populates a fresh store, `optimized` the warm rerun
/// served entirely from disk; outputs are asserted byte-identical. Runs
/// last in the suite so the store it installs cannot leak into any other
/// measurement, and tears the store down afterwards.
fn bench_cache_warm(quick: bool) -> BenchEntry {
    let dir = std::env::temp_dir().join(format!("earsim-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    crate::cache::set_result_cache(Some(dir.clone()));

    let run_eval = || {
        if quick {
            crate::tables::table1()
        } else {
            crate::run_all()
        }
    };
    let t0 = Instant::now();
    let cold_out = run_eval();
    let t_ref = t0.elapsed().as_secs_f64();

    let mut warm_out = String::new();
    let t_opt = best_secs(if quick { 2 } else { 3 }, || {
        warm_out = run_eval();
    });
    assert_eq!(
        cold_out, warm_out,
        "warm-cache output diverged from the cold run"
    );

    crate::cache::set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);

    BenchEntry {
        name: "cache_warm_all_wall",
        unit: "s",
        reference: Some(t_ref),
        optimized: t_opt,
    }
}

/// Full Table I regeneration wall clock. No in-process reference: the
/// committed artifact records the pre-optimisation binary's number.
fn bench_table1(quick: bool) -> BenchEntry {
    let reps = if quick { 1 } else { 3 };
    let t = best_secs(reps, || {
        black_box(crate::tables::table1());
    });
    BenchEntry {
        name: "table1_wall",
        unit: "s",
        reference: None,
        optimized: t,
    }
}

/// Runs the whole suite. `quick` trims iteration counts for CI smoke runs;
/// the measured operations are identical.
pub fn run(quick: bool) -> BenchReport {
    BenchReport {
        quick,
        benches: vec![
            bench_dynais_inloop(quick),
            bench_dynais_aperiodic(quick),
            bench_snapshot(quick),
            bench_settled_jump(quick),
            bench_uncore_domain_step(quick),
            bench_trace_emit(quick),
            bench_frame_codec(quick),
            bench_eargm_tree_fanout(quick),
            bench_sweep_grid_wall(quick),
            bench_fitted_policy_decide(quick),
            bench_rapl_enforce_step(quick),
            bench_table1(quick),
            // Last: installs (and removes) a process-global result store.
            bench_cache_warm(quick),
        ],
    }
}

impl BenchReport {
    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Hot-path benchmarks ==\n\
                           bench          unit     reference     optimized  speedup\n",
        );
        for b in &self.benches {
            let rf = b
                .reference
                .map_or_else(|| "-".to_string(), |r| format!("{r:.3}"));
            let sp = b
                .speedup()
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
            out.push_str(&format!(
                "{:>28} {:>13} {:>13} {:>13.3} {:>8}\n",
                b.name, b.unit, rf, b.optimized, sp
            ));
        }
        out
    }

    /// The `BENCH_hotpath.json` artifact.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            format!("{v:.6}")
        }
        let mut out = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"quick\": {},\n  \"benches\": [\n",
            self.quick
        );
        for (i, b) in self.benches.iter().enumerate() {
            let rf = b.reference.map_or_else(|| "null".to_string(), num);
            let sp = b.speedup().map_or_else(|| "null".to_string(), num);
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"reference\": {}, \"optimized\": {}, \"speedup\": {}}}{}\n",
                b.name,
                b.unit,
                rf,
                num(b.optimized),
                sp,
                if i + 1 < self.benches.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Artifact validation (the CI job must fail on a malformed or
// schema-violating BENCH_hotpath.json; `ear_trace::json` reads it)
// ---------------------------------------------------------------------------

/// Validates a `BENCH_hotpath.json` document: well-formed JSON, the right
/// schema tag, and exactly the [`REQUIRED_BENCHES`] with sane numbers.
/// Returns the number of benches on success.
pub fn validate_json(text: &str) -> Result<usize, String> {
    let root = Json::parse(text)?;
    match root.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return Err(format!("wrong schema '{s}', expected '{SCHEMA}'")),
        _ => return Err("missing string field 'schema'".into()),
    }
    if !matches!(root.get("quick"), Some(Json::Bool(_))) {
        return Err("missing boolean field 'quick'".into());
    }
    let benches = match root.get("benches") {
        Some(Json::Arr(a)) if !a.is_empty() => a,
        Some(Json::Arr(_)) => return Err("'benches' is empty".into()),
        _ => return Err("missing array field 'benches'".into()),
    };
    let mut names = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        let name = match b.get("name") {
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("bench {i}: missing string field 'name'")),
        };
        if !REQUIRED_BENCHES.contains(&name.as_str()) {
            return Err(format!("unknown bench '{name}'"));
        }
        if names.contains(&name) {
            return Err(format!("duplicate bench '{name}'"));
        }
        match b.get("unit") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("bench '{name}': missing string field 'unit'")),
        }
        let optimized = match b.get("optimized") {
            Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => *v,
            _ => {
                return Err(format!(
                    "bench '{name}': 'optimized' must be a positive number"
                ))
            }
        };
        let reference = match b.get("reference") {
            Some(Json::Null) => None,
            Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => Some(*v),
            _ => {
                return Err(format!(
                    "bench '{name}': 'reference' must be null or a positive number"
                ))
            }
        };
        match (reference, b.get("speedup")) {
            (None, Some(Json::Null)) => {}
            (Some(r), Some(Json::Num(s))) if s.is_finite() && *s > 0.0 => {
                let expect = r / optimized;
                if (s - expect).abs() > 0.05 * expect {
                    return Err(format!(
                        "bench '{name}': speedup {s} inconsistent with reference/optimized {expect}"
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "bench '{name}': 'speedup' must match the reference field"
                ))
            }
        }
        names.push(name);
    }
    for req in REQUIRED_BENCHES {
        if !names.iter().any(|n| n == req) {
            return Err(format!("required bench '{req}' missing"));
        }
    }
    Ok(benches.len())
}

/// The regression gate over a `BENCH_hotpath.json`: every row with a
/// non-null reference must report a speedup of at least 1.0 — an optimised
/// path that loses to the code it races is a regression, not a
/// measurement. Returns the number of gated rows on success; the error
/// lists every offending row.
/// Call [`validate_json`] first: this gate assumes a structurally valid
/// artifact and skips anything malformed.
pub fn verify_speedups(text: &str) -> Result<usize, String> {
    let root = Json::parse(text)?;
    let benches = match root.get("benches") {
        Some(Json::Arr(a)) => a,
        _ => return Err("missing array field 'benches'".into()),
    };
    let mut gated = 0;
    let mut regressions = Vec::new();
    for b in benches {
        let name = match b.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => continue,
        };
        let Some(Json::Num(speedup)) = b.get("speedup") else {
            continue;
        };
        gated += 1;
        if *speedup < 1.0 {
            regressions.push(format!("{name} ({speedup:.3}x)"));
        }
    }
    if regressions.is_empty() {
        Ok(gated)
    } else {
        Err(format!(
            "speedup below 1.0 (optimized slower than reference): {}",
            regressions.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows that ship without a reference.
    const READINGS: [&str; 5] = [
        "snapshot_per_call",
        "frame_codec_roundtrip",
        "sweep_grid_wall",
        "rapl_enforce_step",
        "table1_wall",
    ];

    fn sample_report() -> BenchReport {
        BenchReport {
            quick: true,
            benches: REQUIRED_BENCHES
                .iter()
                .map(|name| BenchEntry {
                    name,
                    unit: "ns/op",
                    reference: (!READINGS.contains(name)).then_some(50.0),
                    optimized: 10.0,
                })
                .collect(),
        }
    }

    fn sample_json() -> String {
        sample_report().to_json()
    }

    #[test]
    fn emitted_json_validates() {
        let json = sample_json();
        assert_eq!(validate_json(&json), Ok(REQUIRED_BENCHES.len()));
    }

    #[test]
    fn committed_artifact_validates_and_passes_the_gate() {
        let json = include_str!("../../../BENCH_hotpath.json");
        assert_eq!(validate_json(json), Ok(REQUIRED_BENCHES.len()));
        assert_eq!(
            verify_speedups(json),
            Ok(REQUIRED_BENCHES.len() - READINGS.len())
        );
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("").is_err());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn rejects_wrong_schema() {
        let json = sample_json().replace("hotpath/v1", "hotpath/v0");
        assert!(validate_json(&json).unwrap_err().contains("wrong schema"));
    }

    #[test]
    fn rejects_missing_required_bench() {
        let mut report = sample_report();
        report.benches.retain(|b| b.name != "snapshot_per_call");
        assert!(validate_json(&report.to_json())
            .unwrap_err()
            .contains("required bench 'snapshot_per_call' missing"));
    }

    #[test]
    fn rejects_rows_outside_the_required_set() {
        let json = sample_json().replace("snapshot_per_call", "window_push_recent");
        assert!(validate_json(&json)
            .unwrap_err()
            .contains("unknown bench 'window_push_recent'"));
    }

    #[test]
    fn rejects_inconsistent_speedup() {
        let json = sample_json().replace("\"speedup\": 5.000000", "\"speedup\": 9.000000");
        assert!(validate_json(&json).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn speedup_gate_counts_the_gated_rows() {
        // Every row with a reference is gated.
        assert_eq!(
            verify_speedups(&sample_json()),
            Ok(REQUIRED_BENCHES.len() - READINGS.len())
        );
    }

    #[test]
    fn speedup_gate_fails_sub_one_rows() {
        let report = BenchReport {
            quick: true,
            benches: vec![
                BenchEntry {
                    name: "uncore_domain_step",
                    unit: "us/phase",
                    reference: Some(5.0),
                    optimized: 10.0, // speedup 0.5: a regression
                },
                BenchEntry {
                    name: "dynais_inloop_per_sample",
                    unit: "ns/op",
                    reference: Some(50.0),
                    optimized: 10.0, // speedup 5.0: fine
                },
            ],
        };
        let err = verify_speedups(&report.to_json()).unwrap_err();
        assert!(err.contains("uncore_domain_step"), "{err}");
        assert!(!err.contains("dynais_inloop_per_sample"), "{err}");
    }

    #[test]
    fn rejects_nonpositive_optimized() {
        let json = sample_json().replace("\"optimized\": 10.000000", "\"optimized\": 0.0");
        assert!(validate_json(&json).unwrap_err().contains("positive"));
    }

    #[test]
    fn quick_suite_reports_every_bench() {
        // One real (quick) run: the emitted artifact must self-validate and
        // the incremental DynAIS must beat the reference in-loop.
        let report = run(true);
        assert_eq!(validate_json(&report.to_json()), Ok(REQUIRED_BENCHES.len()));
        let inloop = report
            .benches
            .iter()
            .find(|b| b.name == "dynais_inloop_per_sample")
            .unwrap();
        assert!(
            inloop.speedup().unwrap() > 1.0,
            "incremental DynAIS slower than the reference: {:?}",
            inloop
        );
    }
}
