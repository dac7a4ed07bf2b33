//! Dependency-free micro-benchmarks of the simulation hot path.
//!
//! The zero-dependency suite behind `earsim bench`, which the CI smoke job
//! runs everywhere. It times the structures the per-event hot path
//! touches — DynAIS sampling (incremental vs the reference eager
//! detector), window indexing, counter snapshots, the settled-phase jump,
//! the trace bus dark vs live — plus the Table I wall clock, and renders
//! the results as both a human-readable table and the
//! `BENCH_hotpath.json` artifact.
//!
//! Timing uses best-of-N `std::time::Instant` wall clock: the minimum over
//! repetitions is the least noisy estimator for short deterministic loops.

use ear_archsim::{Node, NodeConfig, PhaseDemand};
use ear_dynais::{DynAis, DynaisConfig, ReferenceDynAis, SampleWindow};
use ear_trace::json::Json;
use ear_trace::metrics::{self, Metric};
use std::hint::black_box;
use std::time::Instant;

/// JSON schema identifier emitted in (and required of) the artifact.
pub const SCHEMA: &str = "earsim-bench-hotpath/v1";

/// Bench names that must appear in a valid artifact.
pub const REQUIRED_BENCHES: [&str; 17] = [
    "dynais_inloop_per_sample",
    "dynais_aperiodic_per_sample",
    "window_push_recent",
    "snapshot_per_call",
    "run_phase_one_simsec",
    "uncore_domain_step",
    "trace_emit_per_event",
    "mpi_job_step_parallel",
    "mpi_break_even",
    "frame_codec_roundtrip",
    "eargm_tree_fanout",
    "sweep_grid_wall",
    "fitted_policy_decide",
    "rapl_enforce_step",
    "powercap_search_settle",
    "table1_wall",
    "cache_warm_all_wall",
];

/// Rows exempt from the sub-1.0 speedup gate of [`verify_speedups`].
/// Empty: every row with a reference times shipped code or a test oracle
/// the measured path must beat, so a row reading below 1.0 is a
/// regression, never an expected floor.
pub const SPEEDUP_ALLOWLIST: [&str; 0] = [];

/// One timed hot-path measurement.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable identifier (see [`REQUIRED_BENCHES`]).
    pub name: &'static str,
    /// Unit of both numbers (e.g. `ns/op`).
    pub unit: &'static str,
    /// Pre-optimisation implementation, if one is runnable in-process.
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

/// Ring-buffer indexing: conditional-subtract wrap (the shipped
/// [`SampleWindow`] scheme, reproduced inline) vs `%` on every access (the
/// pre-optimisation indexing). Both are local structs so codegen conditions
/// are identical, and the capacity goes through `black_box`: in production
/// the window size comes from `DynaisConfig` at runtime, so the modulo is a
/// genuine division — constant-propagating 250 would let LLVM strength-
/// reduce it and understate the difference.
fn bench_window(quick: bool) -> BenchEntry {
    struct CondWindow {
        buf: Vec<u64>,
        head: usize,
        len: usize,
    }
    impl CondWindow {
        fn push(&mut self, v: u64) {
            self.buf[self.head] = v;
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
            if self.len < self.buf.len() {
                self.len += 1;
            }
        }
        fn recent(&self, back: usize) -> Option<u64> {
            if back >= self.len {
                return None;
            }
            let cap = self.buf.len();
            let mut idx = self.head + cap - 1 - back;
            if idx >= cap {
                idx -= cap;
            }
            Some(self.buf[idx])
        }
    }
    struct ModWindow {
        buf: Vec<u64>,
        head: usize,
        len: usize,
    }
    impl ModWindow {
        fn push(&mut self, v: u64) {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.buf.len();
            if self.len < self.buf.len() {
                self.len += 1;
            }
        }
        fn recent(&self, back: usize) -> Option<u64> {
            if back >= self.len {
                return None;
            }
            let cap = self.buf.len();
            Some(self.buf[(self.head + cap - 1 - back) % cap])
        }
    }

    let n = if quick { 200_000 } else { 4_000_000 };

    let mut w = CondWindow {
        buf: vec![0; black_box(250)],
        head: 0,
        len: 0,
    };
    let t_opt = best_secs(3, || {
        for i in 0..n as u64 {
            w.push(i);
            black_box(w.recent(99));
        }
    }) / n as f64;

    let mut m = ModWindow {
        buf: vec![0; black_box(250)],
        head: 0,
        len: 0,
    };
    let t_ref = best_secs(3, || {
        for i in 0..n as u64 {
            m.push(i);
            black_box(m.recent(99));
        }
    }) / n as f64;

    // Sanity: the inline copy matches the shipped type sample for sample.
    let mut shipped = SampleWindow::new(250);
    let mut copy = CondWindow {
        buf: vec![0; 250],
        head: 0,
        len: 0,
    };
    for i in 0..600u64 {
        shipped.push(i * 31 + 7);
        copy.push(i * 31 + 7);
        for back in [0usize, 1, 99, 249, 250] {
            assert_eq!(shipped.recent(back), copy.recent(back));
        }
    }

    BenchEntry {
        name: "window_push_recent",
        unit: "ns/op",
        reference: Some(t_ref * 1e9),
        optimized: t_opt * 1e9,
    }
}

/// Counter snapshot: the inline-array return vs the old heap-allocated
/// per-socket `Vec` shape (reproduced by collecting the sockets out).
fn bench_snapshot(quick: bool) -> BenchEntry {
    let n = if quick { 50_000 } else { 500_000 };
    let mut node = Node::new(NodeConfig::sd530_6148(), 1);
    node.run_phase(&PhaseDemand {
        instructions: 1e10,
        mem_bytes: 2e9,
        active_cores: 40,
        ..Default::default()
    });

    let t_opt = best_secs(3, || {
        for _ in 0..n {
            black_box(node.snapshot());
        }
    }) / n as f64;

    let t_ref = best_secs(3, || {
        for _ in 0..n {
            let snap = node.snapshot();
            let v: Vec<_> = snap.sockets.iter().copied().collect();
            black_box(v);
        }
    }) / n as f64;

    BenchEntry {
        name: "snapshot_per_call",
        unit: "ns/op",
        reference: Some(t_ref * 1e9),
        optimized: t_opt * 1e9,
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
    let n = if quick { 200 } else { 2_000 };
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

/// One 8-node bulk-synchronous job. `reference` is an inline reproduction
/// of the pre-fix node-parallel driver — a horizon slot per worker, a
/// leader reduction over the slots, and **two** `std::sync::Barrier`
/// (mutex/condvar) waits per iteration — at the thread count that driver
/// fanned out to (`available_parallelism` clamped to `[2, 8]`), i.e. the
/// exact implementation and conditions the committed 0.51× regression was
/// measured under. `optimized` is the shipped adaptive [`run_job`]:
/// break-even gated, autotuned, one `fetch_max` rendezvous per iteration.
/// On a single-core machine the adaptive driver measures its way back to
/// serial stepping and the speedup records precisely what the old driver
/// lost to barrier thrash; with real cores it records the fan-out win.
/// All three drivers (serial, old parallel, adaptive) are asserted to
/// leave bit-identical cluster state before anything is timed.
fn bench_job_step(quick: bool) -> BenchEntry {
    use ear_archsim::{Cluster, SimTime};
    use ear_mpisim::{permits, run_job, run_job_serial, JobSpec, MpiCall, MpiEvent, NullRuntime};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    let iters = if quick { 30 } else { 150 };
    let job = JobSpec::homogeneous(
        "bench",
        8,
        40,
        vec![
            MpiEvent::new(MpiCall::Isend, 65536, 1),
            MpiEvent::new(MpiCall::Wait, 0, 0),
            MpiEvent::collective(MpiCall::Allreduce, 512),
        ],
        PhaseDemand {
            instructions: 4e9,
            mem_bytes: 2e9,
            active_cores: 40,
            wait_seconds: 0.002,
            ..Default::default()
        },
        iters,
    );
    let mk_cluster = || Cluster::new(NodeConfig::sd530_6148(), 8, 4242);

    // The pre-fix driver, reproduced inline. With `NullRuntime` the per
    // node step is exactly `run_phase`; everything else — the slot array,
    // the leader reduce, the double barrier — is the old synchronisation
    // structure this PR replaced, kept here as the honest reference.
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
    let old_drive = |cluster: &mut Cluster| {
        let nodes = cluster.nodes_mut_slice();
        let chunk = nodes.len().div_ceil(threads);
        let chunks: Vec<&mut [ear_archsim::Node]> = nodes.chunks_mut(chunk).collect();
        let workers = chunks.len();
        let slots: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let horizon = AtomicU64::new(0);
        let barrier = Barrier::new(workers);
        std::thread::scope(|scope| {
            for (w, nodes) in chunks.into_iter().enumerate() {
                let (slots, horizon, barrier, job) = (&slots, &horizon, &barrier, &job);
                scope.spawn(move || {
                    for iter in &job.iterations {
                        for node in nodes.iter_mut() {
                            node.run_phase(&iter.demand);
                        }
                        let local = nodes.iter().map(|n| n.now().as_micros()).max().unwrap_or(0);
                        slots[w].store(local, Ordering::Release);
                        // Barrier 1: every local horizon is published.
                        if barrier.wait().is_leader() {
                            let max = slots
                                .iter()
                                .map(|s| s.load(Ordering::Acquire))
                                .max()
                                .unwrap_or(0);
                            horizon.store(max, Ordering::Release);
                        }
                        // Barrier 2: the reduced horizon is published.
                        barrier.wait();
                        let t = SimTime(horizon.load(Ordering::Acquire));
                        for node in nodes.iter_mut() {
                            let lag = t - node.now();
                            if lag > 0.0 {
                                node.run_idle(lag);
                            }
                        }
                    }
                });
            }
        });
    };

    // End-of-job cluster state, bit for bit: simulated clock and exact DC
    // energy of every node.
    let fingerprint = |c: &Cluster| -> Vec<(u64, u64)> {
        (0..c.len())
            .map(|i| {
                let n = c.node(i);
                (
                    n.now().as_micros(),
                    n.snapshot().dc_energy_exact_j.to_bits(),
                )
            })
            .collect()
    };

    // Sanity first: all three drivers must leave identical cluster state,
    // otherwise the timing compares different computations.
    let (serial_print, serial_report) = {
        let mut c = mk_cluster();
        let mut r = vec![NullRuntime; 8];
        let report = run_job_serial(&mut c, &job, &mut r);
        (fingerprint(&c), report)
    };
    let old_print = {
        let mut c = mk_cluster();
        old_drive(&mut c);
        fingerprint(&c)
    };
    assert_eq!(
        serial_print, old_print,
        "old double-barrier driver diverged from the serial driver"
    );
    permits::set_spare_threads(threads - 1);
    let (adaptive_print, adaptive_report) = {
        let mut c = mk_cluster();
        let mut r = vec![NullRuntime; 8];
        let report = run_job(&mut c, &job, &mut r);
        (fingerprint(&c), report)
    };
    assert_eq!(
        (serial_print, serial_report),
        (adaptive_print, adaptive_report),
        "adaptive driver diverged from the serial driver"
    );

    permits::set_spare_threads(0);
    let t_ref = best_secs(3, || {
        let mut c = mk_cluster();
        old_drive(&mut c);
    });
    let spare = threads - 1;
    let t_opt = best_secs(3, || {
        permits::set_spare_threads(spare);
        let mut c = mk_cluster();
        let mut r = vec![NullRuntime; 8];
        black_box(run_job(&mut c, &job, &mut r));
    });
    permits::set_spare_threads(0);

    BenchEntry {
        name: "mpi_job_step_parallel",
        unit: "ms/job",
        reference: Some(t_ref * 1e3),
        optimized: t_opt * 1e3,
    }
}

/// The measured node count below which the adaptive MPI driver refuses to
/// fan out on this machine (see `ear_mpisim::breakeven`). Recalibrated
/// fresh — never read from the persisted file — so the artifact records
/// this run's machine. No reference: the row is a calibration readout, not
/// an old-vs-new race; its value is that regressions in the parallel
/// driver show up as the break-even point drifting upwards.
fn bench_break_even() -> BenchEntry {
    let cal = ear_mpisim::breakeven::calibrate_now();
    BenchEntry {
        name: "mpi_break_even",
        unit: "nodes",
        reference: None,
        optimized: cal.break_even_nodes as f64,
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

    let n = if quick { 40 } else { 200 };
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

/// Settle cost of the dual-knob powercap search, closed loop on a live
/// node: signature windows from "cap imposed" to the policy reporting
/// `Ready` at the cap, each decision driven by a real measured window.
/// `reference` is the cold search — no fitted surface, so the warm point
/// is the reference operating point and the measured hill-climb walks the
/// entire descent one evaluation per window. `optimized` warm-starts from
/// a surface calibrated in-bench from three probe windows (the `earsim
/// sweep` product, minus the ceremony) and lets the same hill-climb
/// refine the landing. Windows, not host microseconds, are the honest
/// unit: on a deployment each one is a full 10 s signature period spent
/// off the optimal point, while host wall time per settle skews toward
/// however many simulated quanta the throttled windows happen to cover.
/// Noise is off, so both counts are exactly reproducible.
fn bench_powercap_search_settle(quick: bool) -> BenchEntry {
    use ear_archsim::PstateTable;
    use ear_core::policy::{PolicyCtx, PolicyState, PowerPolicy, Powercap};
    use ear_core::{Avx512Model, FittedSurface, PolicySettings, Poly2, Signature};

    let pstates = PstateTable::xeon_gold_6148();
    let model = Avx512Model::for_node(&NodeConfig::sd530_6148());
    let slowest = pstates.slowest();
    // Multi-second windows: the INM DC counter publishes once per second,
    // so sub-second windows read 0 W (the very reason the paper measures
    // over >= 10 s). Heavy memory traffic gives the uncore knob real watts
    // to shed, so the dual-knob search has a genuine 2-D descent.
    let window = PhaseDemand {
        instructions: 8e11,
        mem_bytes: 160e9,
        cpi_core: 0.38,
        uncore_lat_cycles: 4.0,
        mem_overlap: 0.6,
        active_cores: 40,
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

    // One measured signature window at a pinned operating point.
    fn probe(node: &mut Node, window: &PhaseDemand, ps: ear_archsim::Pstate, ratio: u8) -> f64 {
        node.set_cpu_pstate(ps);
        must(node.set_uncore_limits(ratio, ratio), "pin probe uncore");
        let prev = node.snapshot();
        node.run_phase(window);
        Signature::from_delta(&node.snapshot().delta(&prev), 1).dc_power_w
    }

    // One full settle sequence: re-arm the node at the reference point,
    // then window → signature → node_policy → apply, until Ready.
    fn settle(
        node: &mut Node,
        policy: &mut Powercap,
        ctx: &PolicyCtx<'_>,
        window: &PhaseDemand,
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
            assert!(windows < 60, "powercap search did not settle");
        }
    }

    // Noise off: probes, cap and settle trajectories are then exactly
    // reproducible, so the sanity assertions below hold on every machine.
    let mut cfg = NodeConfig::sd530_6148();
    cfg.noise_sigma = 0.0;
    let mut node = Node::new(cfg, 7);

    // Three probe windows calibrate a linear power surface — the same
    // measurements `earsim sweep` would take, collapsed to the corners —
    // and fix a deep but achievable cap between floor and reference draw.
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
        // structure for the warm start's time-minimisation to order
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
    let cold_ctx = ctx(&pstates, &model, &cold);
    let warm_ctx = ctx(&pstates, &model, &warm);

    let w_cold = settle(&mut node, &mut Powercap::default(), &cold_ctx, &window);
    let w_warm = settle(&mut node, &mut Powercap::default(), &warm_ctx, &window);
    assert!(
        w_warm < w_cold,
        "warm start saved no windows (cold {w_cold}, warm {w_warm})"
    );
    // Deterministic counts: nothing to average, quick and full agree.
    let _ = quick;

    BenchEntry {
        name: "powercap_search_settle",
        unit: "windows/settle",
        reference: Some(f64::from(w_cold)),
        optimized: f64::from(w_warm),
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
            bench_window(quick),
            bench_snapshot(quick),
            bench_settled_jump(quick),
            bench_uncore_domain_step(quick),
            bench_trace_emit(quick),
            bench_job_step(quick),
            bench_break_even(),
            bench_frame_codec(quick),
            bench_eargm_tree_fanout(quick),
            bench_sweep_grid_wall(quick),
            bench_fitted_policy_decide(quick),
            bench_rapl_enforce_step(quick),
            bench_powercap_search_settle(quick),
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
/// schema tag, and every required bench present with sane numbers. Returns
/// the number of benches on success.
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
/// path that loses to the implementation it replaced is a regression, not
/// a measurement — unless the row is in [`SPEEDUP_ALLOWLIST`]. Returns the
/// number of gated rows on success; the error lists every offending row.
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
        if SPEEDUP_ALLOWLIST.contains(&name.as_str()) {
            continue;
        }
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

    fn sample_json() -> String {
        let report = BenchReport {
            quick: true,
            benches: REQUIRED_BENCHES
                .iter()
                .map(|name| BenchEntry {
                    name,
                    unit: "ns/op",
                    // The rows that really ship without a reference.
                    reference: if matches!(
                        *name,
                        "table1_wall"
                            | "mpi_break_even"
                            | "frame_codec_roundtrip"
                            | "sweep_grid_wall"
                            | "rapl_enforce_step"
                    ) {
                        None
                    } else {
                        Some(50.0)
                    },
                    optimized: 10.0,
                })
                .collect(),
        };
        report.to_json()
    }

    #[test]
    fn emitted_json_validates() {
        let json = sample_json();
        assert_eq!(validate_json(&json), Ok(REQUIRED_BENCHES.len()));
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
        let json = sample_json().replace("snapshot_per_call", "snapshot_renamed");
        assert!(validate_json(&json)
            .unwrap_err()
            .contains("snapshot_per_call"));
    }

    #[test]
    fn rejects_inconsistent_speedup() {
        let json = sample_json().replace("\"speedup\": 5.000000", "\"speedup\": 9.000000");
        assert!(validate_json(&json).unwrap_err().contains("inconsistent"));
    }

    #[test]
    fn speedup_gate_counts_the_gated_rows() {
        // 17 required rows minus the 5 null references; the allowlist is
        // empty, so every row with a reference is gated.
        assert_eq!(
            verify_speedups(&sample_json()),
            Ok(REQUIRED_BENCHES.len() - 5)
        );
    }

    #[test]
    fn speedup_gate_fails_sub_one_rows() {
        let report = BenchReport {
            quick: true,
            benches: vec![
                BenchEntry {
                    name: "window_push_recent",
                    unit: "ns/op",
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
        assert!(err.contains("window_push_recent"), "{err}");
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
        assert_eq!(validate_json(&report.to_json()), Ok(report.benches.len()));
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
        // The point of the adaptive driver: it must never lose to the old
        // double-barrier parallel driver it replaced.
        let mpi = report
            .benches
            .iter()
            .find(|b| b.name == "mpi_job_step_parallel")
            .unwrap();
        assert!(
            mpi.speedup().unwrap() > 1.0,
            "adaptive MPI driver lost to the old double-barrier driver: {:?}",
            mpi
        );
    }
}
