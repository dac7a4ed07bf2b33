//! The four workloads. Each times its fixed unit of work with nothing
//! wrapped inside it; a traced run then runs the layer probes and splits
//! the unit's wall time into layer shares.

use crate::checks;
use crate::layers::{self, per, Account, JobReplay, JobShares, NetdCosts, PhaseReplay};
use crate::report::Outcome;
use crate::stats::{median, percentile, samples_beyond, LatencyLog};
use crate::{Ctx, WORKERS};
use ear_errors::{EarError, EarResult};
use ear_experiments::{RunKind, SweepConfig};
use ear_jobstream::{StreamConfig, StreamReport};
use ear_netd::server::{spawn_async, ServerConfig, ServerHandle};
use ear_netd::{ClientConfig, Endpoint, NetClient, NetListener};
use ear_workloads::full_catalog;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Streams in one `fleet_stream` batch, and jobs per stream.
const FLEET_STREAMS: u64 = 64;
const FLEET_JOBS: usize = 12;

/// Requests per `eard_uds` batch. Short batches let the median skip the
/// ones a descheduled daemon stalls.
const EARD_BATCH: u64 = 500;

/// Per-node DC cap the RAPL replay arms: the default fleet budget split
/// evenly over the default fleet.
const RAPL_REPLAY_CAP_W: f64 = 250.0;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: derives independent sub-seeds from the run seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine's process-wide totals, read from its telemetry line.
#[derive(Debug, Default, Clone, Copy)]
struct EngineTotals {
    tasks: f64,
    tasks_failed: f64,
    wall_s: f64,
    busy_s: f64,
}

impl EngineTotals {
    fn now() -> Self {
        let Some(json) = ear_experiments::engine::process_summary_json() else {
            return EngineTotals::default();
        };
        let n = |k: &str| checks::telemetry_number(&json, k).unwrap_or(0.0);
        EngineTotals {
            tasks: n("tasks"),
            tasks_failed: n("tasks_failed"),
            wall_s: n("wall_s"),
            busy_s: n("serial_estimate_s"),
        }
    }

    fn since(self, before: EngineTotals) -> Self {
        EngineTotals {
            tasks: self.tasks - before.tasks,
            tasks_failed: self.tasks_failed - before.tasks_failed,
            wall_s: self.wall_s - before.wall_s,
            busy_s: self.busy_s - before.busy_s,
        }
    }

    fn record(&self, o: &mut Outcome, wall_s: f64) {
        o.set("engine.tasks", self.tasks);
        o.set("engine.tasks_failed", self.tasks_failed);
        o.set(
            "engine.busy_share",
            per(self.busy_s, wall_s * WORKERS as f64),
        );
    }
}

/// Set-up of the simulation workloads: calibrate every catalog workload
/// and measure the MPI break-even, `SETUP_REPS` times. The last
/// repetition fills the engine's calibration cache and persists the
/// break-even into the run's private directory, so the unit starts warm.
fn setup_simulation(o: &mut Outcome) -> EarResult<Vec<f64>> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut calibrate_us = Vec::new();
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let t0 = Instant::now();
        for t in full_catalog() {
            let tc = Instant::now();
            if last {
                layers::calibration(&t)?;
            } else {
                ear_workloads::calibrate(&t).map_err(|e| EarError::Calibration(e.to_string()))?;
            }
            calibrate_us.push(secs(tc) * 1e6);
        }
        if last {
            record_break_even();
        } else {
            black_box(ear_mpisim::breakeven::calibrate_now());
        }
        samples.push(secs(t0));
    }
    o.set("workloads.calibrate_us", median(&calibrate_us));
    o.set("workloads.calibrations", calibrate_us.len() as f64);
    Ok(samples)
}

/// Median and tail latency of the operation a run repeats.
struct OpLatency {
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

impl OpLatency {
    fn of(us: &[f64]) -> Self {
        OpLatency {
            p50_us: percentile(us, 0.50),
            p99_us: percentile(us, 0.99),
            samples: us.len(),
        }
    }
}

/// Measures the MPI break-even once for this run (persisted into the run's
/// private directory) and records the decision with the run.
fn record_break_even() {
    let nodes = ear_mpisim::breakeven::calibration().break_even_nodes;
    eprintln!("perfbench: MPI break-even {nodes} nodes (jobs below it run serially)");
}

/// Records the end-to-end metrics shared by every workload. `ops` is the
/// number of operations the unit completed.
fn record_e2e(o: &mut Outcome, setup: &[f64], wall_s: f64, ops: f64, op: &OpLatency) {
    let beyond = samples_beyond(op.samples, 0.99);
    o.set("setup_s", median(setup));
    o.set("wall_s", wall_s);
    o.set("op.per_s", per(ops, wall_s));
    o.set("op_p50_us", op.p50_us);
    o.set("op.p99_us", op.p99_us);
    o.set("op.samples", op.samples as f64);
    o.set("op.p99_beyond", beyond as f64);
    eprintln!(
        "perfbench: setup {:.6} s (median of {}), wall {wall_s:.6} s, {:.1} ops/s, \
         op p50 {:.3} us ({} samples), op p99 {:.3} us ({beyond} samples beyond)",
        median(setup),
        setup.len(),
        per(ops, wall_s),
        op.p50_us,
        op.samples,
        op.p99_us,
    );
}

/// Unit costs measured by the probes of a traced run.
struct Probes {
    phase: PhaseReplay,
    rapl: PhaseReplay,
    dynais: layers::Clock,
    policy_jobs: JobReplay,
    fixed_jobs: JobReplay,
    netd: NetdCosts,
    fit_us: f64,
    store_us: f64,
    lookup_us: f64,
    distribute_ns: f64,
    plan_us: f64,
    calibrate_us: f64,
    seconds: f64,
}

impl Probes {
    fn policy_shares(&self) -> JobShares {
        JobShares::of(
            &self.policy_jobs,
            self.phase.us_per_sim_s(),
            self.dynais.ns_per_call(),
        )
    }

    fn fixed_shares(&self) -> JobShares {
        JobShares::of(&self.fixed_jobs, self.phase.us_per_sim_s(), 0.0)
    }
}

/// Times `cache::store` and `cache::lookup` on the sweep's cell keys in a
/// private directory, then points the result cache back at `restore`.
fn probe_cache(dir: &Path, restore: Option<PathBuf>) -> EarResult<(f64, f64)> {
    use ear_experiments::cache::{lookup, result_key, store};
    ear_experiments::set_result_cache(Some(dir.to_path_buf()));
    let model = ear_experiments::default_model();
    let mut keys = Vec::new();
    for t in full_catalog() {
        let spec = ear_workloads::quick_spec(&t);
        let mut i = 0;
        for &cpu in &spec.cpu_pstates {
            for &r in &spec.imc_ratios {
                let kind = RunKind::Fixed {
                    cpu,
                    imc_ratio: Some(r),
                };
                let label = format!("cpu{cpu}/imc{r}");
                keys.push(result_key(&t, &label, &kind, model.as_deref(), 1, 9001, i));
                i += 1;
            }
        }
    }
    let result = ear_experiments::RunResult {
        label: "probe".to_string(),
        time_s: 100.0,
        dc_power_w: 300.0,
        pkg_power_w: 200.0,
        dc_energy_j: 30_000.0,
        pkg_energy_j: 20_000.0,
        avg_cpu_ghz: 2.4,
        avg_imc_ghz: 2.0,
        imc_domains: 1,
        imc_dom_ghz: [2.0, 0.0, 0.0, 0.0],
        cpi: 0.8,
        gbs: 90.0,
    };
    let t0 = Instant::now();
    for &k in &keys {
        store(k, &result);
    }
    let store_us = per(secs(t0) * 1e6, keys.len() as f64);
    let t0 = Instant::now();
    let mut misses = 0;
    for &k in &keys {
        if lookup(k).is_none() {
            misses += 1;
        }
    }
    let lookup_us = per(secs(t0) * 1e6, keys.len() as f64);
    ear_experiments::set_result_cache(restore);
    if misses > 0 {
        return Err(EarError::Invariant(format!(
            "cache probe: {misses} of {} stored keys missed",
            keys.len()
        )));
    }
    Ok((store_us, lookup_us))
}

fn run_probes(ctx: &Ctx, restore_cache: Option<PathBuf>) -> EarResult<Probes> {
    let t0 = Instant::now();
    let seed = mix(ctx.seed, 99);
    let mut calibrate_us = Vec::new();
    for _ in 0..SETUP_REPS {
        for t in full_catalog() {
            let tc = Instant::now();
            ear_workloads::calibrate(&t).map_err(|e| EarError::Calibration(e.to_string()))?;
            calibrate_us.push(secs(tc) * 1e6);
        }
    }
    let calibrate_us = median(&calibrate_us);
    let phase = layers::replay_phases(None, seed)?;
    let rapl = layers::replay_phases(Some(RAPL_REPLAY_CAP_W), seed)?;
    let dynais = layers::replay_dynais()?;
    let policy_jobs = layers::replay_jobs(
        &[
            RunKind::NoPolicy,
            RunKind::me(0.05),
            RunKind::me_eufs(0.05, 0.02),
        ],
        seed,
    )?;
    let fixed_jobs = layers::replay_jobs(
        &[
            RunKind::Fixed {
                cpu: 1,
                imc_ratio: None,
            },
            RunKind::Fixed {
                cpu: 4,
                imc_ratio: Some(18),
            },
        ],
        seed,
    )?;
    let msgs: Vec<_> = (0..1024u64)
        .map(|i| ear_netd::loadgen::nth_request(0, i))
        .collect();
    let netd = layers::probe_netd(&msgs, 50)?;
    let fit_us = layers::probe_fit(200)?;
    let (store_us, lookup_us) = probe_cache(&ctx.dir.join("cache-probe"), restore_cache)?;
    let distribute_ns =
        layers::probe_distribute_budget(StreamConfig::default().fleet_nodes, 200_000);
    let plans = stream_configs(ctx.seed);
    let tp = Instant::now();
    for cfg in &plans {
        black_box(ear_jobstream::generate_plan(&arrival_config(cfg)));
    }
    let plan_us = per(secs(tp) * 1e6, plans.len() as f64);
    Ok(Probes {
        phase,
        rapl,
        dynais,
        policy_jobs,
        fixed_jobs,
        netd,
        fit_us,
        store_us,
        lookup_us,
        distribute_ns,
        plan_us,
        calibrate_us,
        seconds: secs(t0),
    })
}

/// Records every probe-derived metric. `replay` selects the job replay
/// matching the workload's run kinds; workload-specific counts start at 0
/// and are overwritten by the workload.
fn record_probes(o: &mut Outcome, p: &Probes, replay: &JobReplay, shares: JobShares) {
    for (name, _) in crate::report::PER_LAYER {
        if o.get(name).is_none() {
            o.set(name, 0.0);
        }
    }
    if o.get("workloads.calibrate_us") == Some(0.0) {
        o.set("workloads.calibrate_us", p.calibrate_us);
    }
    o.set("archsim.us_per_sim_s", p.phase.us_per_sim_s());
    o.set("archsim.rapl_us_per_sim_s", p.rapl.us_per_sim_s());
    o.set("mpisim.run_job_p50_ms", median(&replay.run_job_ms));
    o.set(
        "mpisim.run_job_p95_ms",
        percentile(&replay.run_job_ms, 0.95),
    );
    o.set("mpisim.self_share", shares.mpisim);
    o.set(
        "mpisim.break_even_nodes",
        ear_mpisim::breakeven::calibration().break_even_nodes as f64,
    );
    o.set("earl.hook_ns", p.policy_jobs.hooks.ns_per_call());
    o.set("earl.policy_ns", p.policy_jobs.policy.ns_per_call());
    o.set("dynais.sample_ns", p.dynais.ns_per_call());
    o.set("dynais.samples", p.dynais.calls() as f64);
    o.set("cache.lookup_us", p.lookup_us);
    o.set("cache.store_us", p.store_us);
    o.set("fit.poly2_us", p.fit_us);
    o.set("netd.encode_ns", p.netd.encode_ns);
    o.set("netd.decode_ns", p.netd.decode_ns);
    o.set("netd.service_ns", p.netd.service_ns);
    o.set("jobstream.plan_us", p.plan_us);
    o.set("core.distribute_budget_ns", p.distribute_ns);
    o.set("acct.probe_s", p.seconds);
    let s = shares;
    eprintln!(
        "perfbench: run_job shares: archsim {:.3} mpisim {:.3} earl {:.3} policy {:.3} dynais {:.3} \
         ({} jobs, {:.0} simulated node-s)",
        s.archsim,
        s.mpisim,
        s.earl,
        s.policy,
        s.dynais,
        replay.run_job_ms.len(),
        replay.sim_node_s
    );
}

fn record_account(o: &mut Outcome, acct: &Account, workload: &str) {
    o.set("acct.wall_s", acct.wall_s);
    o.set("acct.attributed_s", acct.attributed());
    o.set("acct.unattributed_s", acct.unattributed());
    o.set("acct.layers_closed", acct.closed());
    eprintln!(
        "perfbench: {workload} layer accounting (wall seconds of one unit):\n{}",
        acct.render()
    );
}

/// Splits an engine-driven unit: the engine's busy worker-seconds by the
/// replay's shares, the engine's idle worker time, and `extra` parts
/// measured outside the tasks.
fn engine_account(
    wall_s: f64,
    eng: &EngineTotals,
    shares: JobShares,
    extra: &[(&str, f64)],
    remainder: &str,
) -> Account {
    let mut acct = Account::new(wall_s, remainder);
    let workers = WORKERS as f64;
    shares.attribute(&mut acct, eng.busy_s, workers);
    let inside: f64 = extra
        .iter()
        .filter(|e| e.0.starts_with("cache."))
        .map(|e| e.1)
        .sum();
    acct.add(
        "engine.idle",
        (eng.wall_s - eng.busy_s / workers - inside).max(0.0),
    );
    for (layer, s) in extra {
        acct.add(layer, *s);
    }
    acct
}

/// `tables_cold`: the paper's full evaluation, result cache off.
pub fn tables_cold(ctx: &Ctx) -> EarResult<Outcome> {
    let mut o = Outcome::default();
    let setup = setup_simulation(&mut o)?;
    ear_experiments::set_result_cache(None);
    let before = EngineTotals::now();
    let t0 = Instant::now();
    let report = ear_experiments::run_all();
    let wall = secs(t0);
    let eng = EngineTotals::now().since(before);
    if !checks::tables_digest_ok(&report, checks::TABLES_MD5) {
        eprintln!(
            "perfbench: tables_cold digest {} != expected {}",
            crate::md5::hex(report.as_bytes()),
            checks::TABLES_MD5
        );
    }
    // Operations: every engine task plus the rendered report itself.
    let failed = checks::tables_failures(eng.tasks_failed as u64, &report, checks::TABLES_MD5);
    o.count(eng.tasks as u64 + 1, failed);
    record_e2e(
        &mut o,
        &setup,
        wall,
        eng.tasks,
        &OpLatency::of(&[wall * 1e6]),
    );
    if ctx.trace {
        eng.record(&mut o, wall);
        let p = run_probes(ctx, None)?;
        let shares = p.policy_shares();
        o.set("earl.hooks", p.policy_jobs.hooks.calls() as f64);
        o.set("earl.share", shares.earl + shares.policy + shares.dynais);
        o.set("archsim.sim_node_s", p.policy_jobs.sim_node_s);
        record_probes(&mut o, &p, &p.policy_jobs, shares);
        let acct = engine_account(
            wall,
            &eng,
            shares,
            &[],
            "run_all outside the engine: table rendering and analytic sections",
        );
        record_account(&mut o, &acct, "tables_cold");
    }
    Ok(o)
}

/// `sweep_cached`: the quick catalog sweep into a fresh cache (cold), then
/// the same sweep again, repeatedly, from that cache (warm).
pub fn sweep_cached(ctx: &Ctx) -> EarResult<Outcome> {
    let mut o = Outcome::default();
    let setup = setup_simulation(&mut o)?;
    let cache_dir = ctx.dir.join("cache");
    ear_experiments::set_result_cache(Some(cache_dir.clone()));
    let config = |out: &str| SweepConfig {
        quick: true,
        out_dir: Some(ctx.dir.join(out)),
        ..SweepConfig::default()
    };
    let apps = full_catalog().len();

    let before = EngineTotals::now();
    let (cells0, _, _) = ear_experiments::engine::sweep_stats();
    let t0 = Instant::now();
    let cold = ear_experiments::run_sweep(&config("cold"))?;
    let wall = secs(t0);
    let eng = EngineTotals::now().since(before);
    let (cells1, _, _) = ear_experiments::engine::sweep_stats();
    let cells = (cells1 - cells0) as f64;
    let mut failed = u64::from(!checks::sweep_summary_ok(&cold, apps)) + eng.tasks_failed as u64;

    let (hits0, misses0, _) = ear_experiments::result_cache_stats();
    // The first warm pass rewrites the artifacts, which must match the
    // cold ones byte for byte. The timed warm passes re-render the report
    // from the cache without rewriting them: sixteen file rewrites per pass
    // double the pass time on a shared host and make it swing 2x between
    // runs, which would hide the cache path this workload is here for.
    let warm = ear_experiments::run_sweep(&config("warm"))?;
    failed += u64::from(!checks::sweep_summary_ok(&warm, apps));
    failed += checks::artifact_mismatches(&ctx.dir.join("cold"), &ctx.dir.join("warm"));
    let report_only = SweepConfig {
        out_dir: None,
        ..config("warm")
    };
    let mut warm_us = Vec::new();
    let t_warm = Instant::now();
    while warm_us.len() < 5 || (secs(t_warm) < ctx.seconds && warm_us.len() < 100_000) {
        let t = Instant::now();
        let warm = ear_experiments::run_sweep(&report_only)?;
        warm_us.push(secs(t) * 1e6);
        // The warm report differs from the cold one only in its cache-hit
        // column.
        failed += u64::from(!checks::sweep_summary_ok(&warm, apps));
    }
    let (hits1, misses1, _) = ear_experiments::result_cache_stats();
    // Operations: the cold pass, the artifact pass, every timed warm pass,
    // and the engine tasks.
    o.count(2 + warm_us.len() as u64 + eng.tasks as u64, failed);
    record_e2e(&mut o, &setup, wall, cells, &OpLatency::of(&warm_us));
    if ctx.trace {
        eng.record(&mut o, wall);
        let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
        o.set("cache.hit_ratio", per(hits, hits + misses));
        let p = run_probes(ctx, Some(cache_dir))?;
        let shares = p.fixed_shares();
        o.set("archsim.sim_node_s", p.fixed_jobs.sim_node_s);
        record_probes(&mut o, &p, &p.fixed_jobs, shares);
        let acct = engine_account(
            wall,
            &eng,
            shares,
            &[
                ("cache.lookup", cells * p.lookup_us * 1e-6),
                ("cache.store", cells * p.store_us * 1e-6),
                ("fit.poly2", 2.0 * apps as f64 * p.fit_us * 1e-6),
            ],
            "sweep outside the engine: artifact writes, rendering, policy comparison",
        );
        record_account(&mut o, &acct, "sweep_cached");
    }
    Ok(o)
}

/// The stream configurations of one `fleet_stream` batch.
fn stream_configs(seed: u64) -> Vec<StreamConfig> {
    (0..FLEET_STREAMS)
        .map(|i| StreamConfig {
            seed: mix(seed, i),
            max_jobs: FLEET_JOBS,
            ..StreamConfig::default()
        })
        .collect()
}

fn arrival_config(cfg: &StreamConfig) -> ear_jobstream::ArrivalConfig {
    ear_jobstream::ArrivalConfig {
        seed: cfg.seed,
        rate_per_hour: cfg.arrival_rate_per_hour,
        max_jobs: cfg.max_jobs,
        fleet_nodes: cfg.fleet_nodes,
        quick: cfg.quick,
    }
}

/// Jobs of `report` that did not drain (missing, or ending before they
/// started).
fn undrained(report: &StreamReport, expected: usize) -> u64 {
    let ok = report
        .jobs
        .iter()
        .filter(|j| j.end_s.is_finite() && j.end_s >= j.start_s && j.start_s >= j.submit_s)
        .count();
    (expected.saturating_sub(ok)) as u64
}

/// `fleet_stream`: batches of powercapped job streams (RAPL PL1 armed,
/// EARGM rebalancing over the in-process wire), replayed until the time
/// budget is spent. Every batch replays the same seeded streams.
pub fn fleet_stream(ctx: &Ctx) -> EarResult<Outcome> {
    let mut o = Outcome::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut configs = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        configs = stream_configs(ctx.seed);
        if rep + 1 == SETUP_REPS {
            record_break_even();
        } else {
            black_box(ear_mpisim::breakeven::calibrate_now());
        }
        setup.push(secs(t0));
    }

    let mut batch_s = Vec::new();
    let mut stream_us = Vec::new();
    let mut first: Vec<String> = Vec::new();
    let (mut jobs, mut failed) = (0u64, 0u64);
    let (mut rebalances, mut caps, mut proto, mut sim_node_s) = (0u64, 0u64, 0u64, 0.0f64);
    let t_run = Instant::now();
    while batch_s.len() < 3 || (secs(t_run) < ctx.seconds && batch_s.len() < 10_000) {
        let tb = Instant::now();
        for (i, cfg) in configs.iter().enumerate() {
            let ts = Instant::now();
            let report = ear_jobstream::run_stream(cfg.clone())?;
            stream_us.push(secs(ts) * 1e6);
            jobs += cfg.max_jobs as u64;
            failed += undrained(&report, cfg.max_jobs) + report.protocol_errors;
            rebalances += report.rebalances;
            caps += report.caps_pushed;
            proto += report.protocol_errors;
            sim_node_s += report
                .jobs
                .iter()
                .map(|j| (j.end_s - j.start_s) * j.nodes as f64)
                .sum::<f64>();
            // Determinism: every replay of a stream renders identically.
            let text = report.render();
            if first.len() <= i {
                first.push(text);
            } else if first[i] != text {
                failed += 1;
            }
        }
        batch_s.push(secs(tb));
    }
    o.count(jobs, failed);
    let wall = median(&batch_s);
    let batches = batch_s.len() as f64;
    record_e2e(
        &mut o,
        &setup,
        wall,
        jobs as f64 / batches,
        &OpLatency::of(&stream_us),
    );
    if ctx.trace {
        let p = run_probes(ctx, None)?;
        let shares = p.policy_shares();
        o.set("workloads.calibrations", jobs as f64);
        o.set("archsim.sim_node_s", sim_node_s / batches);
        o.set("jobstream.rebalances", rebalances as f64 / batches);
        o.set("jobstream.caps_pushed", caps as f64 / batches);
        o.set("jobstream.protocol_errors", proto as f64);
        record_probes(&mut o, &p, &p.policy_jobs, shares);
        let mut acct = Account::new(
            batch_s.iter().sum::<f64>() / batches,
            "mpisim driver, EARL powercap policy and EARD hooks, EARGM and fleet bookkeeping",
        );
        let per_batch = |total: f64| total / batches;
        acct.add(
            "archsim.run_phase+rapl",
            per_batch(sim_node_s) * p.rapl.us_per_sim_s() * 1e-6,
        );
        acct.add(
            "workloads.calibrate",
            per_batch(jobs as f64) * p.calibrate_us * 1e-6,
        );
        acct.add("jobstream.plan", FLEET_STREAMS as f64 * p.plan_us * 1e-6);
        acct.add(
            "core.distribute_budget",
            per_batch(rebalances as f64) * p.distribute_ns * 1e-9,
        );
        record_account(&mut o, &acct, "fleet_stream");
    }
    Ok(o)
}

/// Sends requests `first..first + n` of `client_id`'s mix, recording each
/// round trip in `log`. Returns `(errors, replies of the wrong kind)`.
fn drive(
    client: &mut NetClient,
    log: &mut LatencyLog,
    client_id: usize,
    first: u64,
    n: u64,
) -> (u64, u64) {
    let (mut errors, mut wrong) = (0, 0);
    for i in first..first + n {
        let msg = ear_netd::loadgen::nth_request(client_id, i);
        let t0 = Instant::now();
        match client.request(&msg) {
            Ok(reply) => {
                log.record(t0.elapsed().as_nanos() as u64);
                if !layers::reply_matches(&msg, &reply) {
                    wrong += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    (errors, wrong)
}

/// A readiness-loop EARD on a Unix socket plus its connected client.
struct Daemon {
    handle: ServerHandle,
    client: NetClient,
}

impl Daemon {
    fn start(socket: &Path, seed: u64, budget_s: f64) -> EarResult<Self> {
        let listener = NetListener::bind(&socket.to_string_lossy())?;
        let handle = spawn_async(
            listener,
            ServerConfig {
                max_seconds: Some(budget_s),
                ..ServerConfig::default()
            },
        );
        let mut client = NetClient::new(
            Endpoint::Unix(socket.to_path_buf()),
            ClientConfig {
                seed,
                ..ClientConfig::default()
            },
        );
        client.ping(seed)?;
        Ok(Daemon { handle, client })
    }

    /// Sends the poison frame and waits for the daemon to exit.
    fn stop(mut self) -> EarResult<ear_netd::ServerReport> {
        self.client.shutdown()?;
        drop(self.client);
        self.handle.join()
    }
}

/// `eard_uds`: one closed-loop EARL client, on the calling thread, against
/// a readiness-loop EARD on a Unix socket, cycling the load generator's
/// request mix in fixed batches. One client leaves the daemon and the
/// client a core each on a two-core host; a second client would contend
/// with the daemon's readiness loop for the CPU.
pub fn eard_uds(ctx: &Ctx) -> EarResult<Outcome> {
    let mut o = Outcome::default();
    let budget_s = ctx.seconds + 120.0;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::start(&ctx.dir.join(format!("eard{rep}.sock")), ctx.seed, budget_s)?;
        setup.push(secs(t0));
        if rep + 1 == SETUP_REPS {
            daemon = Some(d);
        } else {
            d.stop()?;
        }
    }
    let Some(mut daemon) = daemon else {
        return Err(EarError::Invariant("no daemon started".to_string()));
    };

    let base = (ctx.seed % 1_000_000) * 4 * EARD_BATCH;
    let client_id = (ctx.seed % 1000) as usize;
    let mut rtt = LatencyLog::default();
    let mut batch_s = Vec::new();
    let (mut errors, mut wrong) = (0u64, 0u64);
    let t_run = Instant::now();
    while batch_s.len() < 3 || (secs(t_run) < ctx.seconds && batch_s.len() < 100_000) {
        let first = base + batch_s.len() as u64 * EARD_BATCH;
        let tb = Instant::now();
        let (e, w) = drive(&mut daemon.client, &mut rtt, client_id, first, EARD_BATCH);
        batch_s.push(secs(tb));
        errors += e;
        wrong += w;
    }
    let server = daemon.stop()?;
    let requests = batch_s.len() as u64 * EARD_BATCH;
    o.count(requests, errors + wrong + server.conn_errors);
    if server.conn_errors > 0 || wrong > 0 {
        eprintln!(
            "perfbench: eard_uds {wrong} replies of the wrong kind, {} connection errors",
            server.conn_errors
        );
    }
    let total_s: f64 = batch_s.iter().sum();
    let wall = median(&batch_s);
    let batches = batch_s.len() as f64;
    let op = OpLatency {
        p50_us: rtt.percentile_ns(0.50) * 1e-3,
        p99_us: rtt.percentile_ns(0.99) * 1e-3,
        samples: rtt.count() as usize,
    };
    record_e2e(&mut o, &setup, wall, EARD_BATCH as f64, &op);
    // Throughput over the whole run, not only the median batch.
    o.set("op.per_s", per(requests as f64, total_s));
    if ctx.trace {
        let p = run_probes(ctx, None)?;
        record_probes(&mut o, &p, &p.policy_jobs, p.policy_shares());
        let n = rtt.count() as f64;
        let rtt_total_s = rtt.sum_ns() as f64 * 1e-9;
        let codec_s = n * p.netd.codec_ns_per_rtt() * 1e-9;
        let service_s = n * p.netd.service_ns * 1e-9;
        let io_s = rtt_total_s - codec_s - service_s;
        o.set("netd.io_share", per(io_s, rtt_total_s));
        let scale = 1.0 / batches;
        let mut acct = Account::new(
            total_s / batches,
            "client loop outside request(): message construction and reply checks",
        );
        acct.add("netd.codec", codec_s * scale);
        acct.add("core.eard_service", service_s * scale);
        acct.add("netd.io (socket, readiness loop, wake-ups)", io_s * scale);
        record_account(&mut o, &acct, "eard_uds");
    }
    Ok(o)
}
