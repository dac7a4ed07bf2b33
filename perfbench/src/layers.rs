//! Outside-in layer timing: wrappers around the `NodeRuntime` and
//! `PowerPolicy` traits, probes that call each layer's public functions on
//! the workloads' own inputs, and the accounting that splits a measured
//! wall time into layer shares and a named remainder.

use ear_archsim::{Cluster, Node, PhaseDemand};
use ear_core::{
    EarDaemon, Earl, EarlConfig, NodeFreqs, PolicyCtx, PolicyRegistry, PolicyState, PowerPolicy,
    Signature,
};
use ear_dynais::{DynAis, DynaisConfig};
use ear_errors::{EarError, EarResult};
use ear_experiments::engine::{calibrated, default_model};
use ear_experiments::RunKind;
use ear_mpisim::{run_job, MpiEvent, NodeRuntime, NullRuntime};
use ear_netd::codec::{decode_frame, encode_frame_into};
use ear_netd::{EardConfig, EardService, WireMsg};
use ear_workloads::{build_job, full_catalog, CalibratedWorkload, WorkloadTargets};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Call count and busy nanoseconds of one wrapped layer boundary.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Clock {
    /// Runs `f`, charging its duration to this clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(1, t0);
        out
    }

    /// Charges `calls` calls that together ran since `t0`.
    pub fn add(&self, calls: u64, t0: Instant) {
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy seconds so far.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        per(self.seconds() * 1e9, self.calls() as f64)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A node runtime whose every hook is timed on a shared [`Clock`].
pub struct TimedRuntime<R> {
    inner: R,
    clock: Arc<Clock>,
}

impl<R> TimedRuntime<R> {
    /// Wraps `inner`, charging its hooks to `clock`.
    pub fn new(inner: R, clock: Arc<Clock>) -> Self {
        TimedRuntime { inner, clock }
    }
}

impl<R: NodeRuntime> NodeRuntime for TimedRuntime<R> {
    fn on_job_start(&mut self, node: &mut Node, job_name: &str, ranks_on_node: usize) {
        let inner = &mut self.inner;
        self.clock
            .time(|| inner.on_job_start(node, job_name, ranks_on_node));
    }

    fn on_mpi_call(&mut self, node: &mut Node, event: &MpiEvent) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_mpi_call(node, event));
    }

    fn on_job_end(&mut self, node: &mut Node) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_job_end(node));
    }

    fn on_tick(&mut self, node: &mut Node) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_tick(node));
    }
}

/// A power policy whose decisions are timed on a shared [`Clock`]. Every
/// trait method forwards, so EARL behaves exactly as with the bare policy.
pub struct TimedPolicy {
    inner: Box<dyn PowerPolicy>,
    clock: Arc<Clock>,
}

impl PowerPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn node_policy(&mut self, sig: &Signature, ctx: &PolicyCtx<'_>) -> (NodeFreqs, PolicyState) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.node_policy(sig, ctx))
    }

    fn validate(&mut self, sig: &Signature, ctx: &PolicyCtx<'_>) -> bool {
        let inner = &mut self.inner;
        self.clock.time(|| inner.validate(sig, ctx))
    }

    fn default_freqs(&self, ctx: &PolicyCtx<'_>) -> NodeFreqs {
        self.inner.default_freqs(ctx)
    }

    fn imc_ceiling(&self) -> Option<u8> {
        self.inner.imc_ceiling()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The engine's `Fixed` run kind, rebuilt from public parts: frequencies
/// pinned once at job start, no runtime activity afterwards.
struct FixedRuntime {
    cpu: usize,
    imc_ratio: Option<u8>,
}

impl NodeRuntime for FixedRuntime {
    fn on_job_start(&mut self, node: &mut Node, _job_name: &str, _ranks: usize) {
        let (min, max) = match self.imc_ratio {
            Some(r) => (r, r),
            None => (node.config.uncore_min_ratio, node.config.uncore_max_ratio),
        };
        let freqs = NodeFreqs {
            cpu: self.cpu,
            imc_min_ratio: min,
            imc_max_ratio: max,
            imc_dom: ear_core::DomainLimits::LEGACY,
        };
        if let Err(e) = ear_core::manager::apply_freqs(node, &freqs) {
            panic!("fixed frequencies invalid: {e}");
        }
    }

    fn on_mpi_call(&mut self, _node: &mut Node, _event: &MpiEvent) {}

    fn on_job_end(&mut self, _node: &mut Node) {}
}

type BoxedRuntime = Box<dyn NodeRuntime + Send>;

/// Builds the runtime the engine would build for `kind`, with the EARL
/// policy wrapped in a [`TimedPolicy`] charging `policy`.
fn runtime_for(kind: &RunKind, policy: &Arc<Clock>) -> EarResult<BoxedRuntime> {
    Ok(match kind {
        RunKind::NoPolicy => Box::new(NullRuntime),
        RunKind::Fixed { cpu, imc_ratio } => Box::new(FixedRuntime {
            cpu: *cpu,
            imc_ratio: *imc_ratio,
        }),
        RunKind::Policy { name, settings } => {
            let inner = PolicyRegistry::with_builtins()
                .create(name)
                .ok_or_else(|| EarError::unknown("policy", name.clone()))?;
            let mut config = EarlConfig {
                policy_name: name.clone(),
                settings: settings.clone(),
                ..Default::default()
            };
            if let Some(model) = default_model() {
                config.model_name = model;
            }
            let timed = TimedPolicy {
                inner,
                clock: Arc::clone(policy),
            };
            Box::new(EarDaemon::new(Earl::new(config, Box::new(timed))?))
        }
    })
}

/// The calibrated form of `t`, from the engine's process-wide cache.
pub fn calibration(t: &WorkloadTargets) -> EarResult<CalibratedWorkload> {
    match &*calibrated(t) {
        Ok(c) => Ok(c.clone()),
        Err(e) => Err(EarError::Calibration(e.to_string())),
    }
}

/// What replaying the catalog jobs through `run_job` measured.
#[derive(Debug, Default)]
pub struct JobReplay {
    /// Host milliseconds of each `run_job` call.
    pub run_job_ms: Vec<f64>,
    /// Runtime hooks (EARD + EARL, including the policy).
    pub hooks: Arc<Clock>,
    /// Policy decisions inside the hooks.
    pub policy: Arc<Clock>,
    /// DynAIS samples the replayed jobs fed EARL.
    pub dynais_samples: u64,
    /// Simulated node-seconds the replay covered.
    pub sim_node_s: f64,
}

impl JobReplay {
    /// Host seconds inside `run_job`.
    pub fn run_job_s(&self) -> f64 {
        self.run_job_ms.iter().sum::<f64>() * 1e-3
    }
}

/// The event stream `run_job` hands each node's runtime: every
/// iteration's PMPI calls, in order.
fn node_events(job: &ear_mpisim::JobSpec) -> impl Iterator<Item = &MpiEvent> {
    job.iterations.iter().flat_map(|it| it.events.iter())
}

/// Runs every catalog job once per run kind through `run_job`, exactly as
/// an engine task does, with the runtime hooks and the policy wrapped.
pub fn replay_jobs(kinds: &[RunKind], seed: u64) -> EarResult<JobReplay> {
    let mut out = JobReplay::default();
    for t in full_catalog() {
        let c = calibration(&t)?;
        let job = build_job(&c);
        for kind in kinds {
            let mut cluster = Cluster::new(c.node_config.clone(), t.nodes, seed);
            let mut rts = (0..t.nodes)
                .map(|_| {
                    Ok(TimedRuntime::new(
                        runtime_for(kind, &out.policy)?,
                        Arc::clone(&out.hooks),
                    ))
                })
                .collect::<EarResult<Vec<_>>>()?;
            let t0 = Instant::now();
            let report = run_job(&mut cluster, &job, &mut rts);
            out.run_job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.sim_node_s += report.nodes.iter().map(|n| n.seconds).sum::<f64>();
            if matches!(kind, RunKind::Policy { .. }) {
                out.dynais_samples += node_events(&job).count() as u64 * t.nodes as u64;
            }
        }
    }
    Ok(out)
}

/// Host seconds and simulated node-seconds of a `Node::run_phase` replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseReplay {
    /// Host seconds spent in `run_phase`.
    pub host_s: f64,
    /// Simulated seconds the phases covered.
    pub sim_s: f64,
}

impl PhaseReplay {
    /// Host microseconds per simulated node-second.
    pub fn us_per_sim_s(&self) -> f64 {
        per(self.host_s * 1e6, self.sim_s)
    }
}

/// Replays each catalog job's per-iteration demands, priced as `run_job`
/// prices them, through `Node::run_phase` on one node built from the
/// shipped `NodeConfig` (fast-forward off, as every shipped configuration
/// runs). With `rapl_cap_w`, the PL1 limiter is armed the way the fleet
/// arms it.
pub fn replay_phases(rapl_cap_w: Option<f64>, seed: u64) -> EarResult<PhaseReplay> {
    let mut out = PhaseReplay::default();
    for t in full_catalog() {
        let c = calibration(&t)?;
        let job = build_job(&c);
        let fabric = Cluster::new(c.node_config.clone(), t.nodes, seed).fabric;
        // Priced as `run_job` prices them, once, before stepping: the
        // fabric wait of an iteration's explicit communication is added to
        // its phase.
        let demands: Vec<PhaseDemand> = job
            .iterations
            .iter()
            .map(|it| {
                let mut demand = it.demand.clone();
                if let Some(comm) = it.comm.as_ref() {
                    demand.wait_seconds += comm.wait_seconds(&fabric, t.nodes);
                }
                demand
            })
            .collect();
        let mut node = Node::new(c.node_config.clone(), seed);
        if let Some(cap) = rapl_cap_w {
            let pkg_w = ear_jobstream::rapl_pkg_limit_w(&c.node_config, cap);
            node.set_rapl_limit_w(pkg_w, 1.0)
                .map_err(|e| EarError::Invariant(format!("arming PL1: {e}")))?;
        }
        let t0 = Instant::now();
        for demand in &demands {
            out.sim_s += node.run_phase(demand).duration_s();
        }
        out.host_s += t0.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// Feeds each catalog job's PMPI stream through a fresh `DynAis`, the way
/// EARL samples it, and times the samples.
pub fn replay_dynais() -> EarResult<Clock> {
    let clock = Clock::default();
    for t in full_catalog() {
        let job = build_job(&calibration(&t)?);
        let samples: Vec<u64> = node_events(&job).map(MpiEvent::dynais_sample).collect();
        if samples.is_empty() {
            continue;
        }
        let mut d = DynAis::new(&DynaisConfig::default());
        let t0 = Instant::now();
        for s in &samples {
            black_box(d.sample(*s));
        }
        clock.add(samples.len() as u64, t0);
    }
    Ok(clock)
}

/// Per-message costs of the netd codec and the EARD service.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetdCosts {
    /// `encode_frame_into`, ns per frame (requests and replies).
    pub encode_ns: f64,
    /// `decode_frame`, ns per frame.
    pub decode_ns: f64,
    /// `EardService::respond`, ns per request.
    pub service_ns: f64,
}

impl NetdCosts {
    /// Codec work in one round trip: the request and the reply are each
    /// encoded once and decoded once.
    pub fn codec_ns_per_rtt(&self) -> f64 {
        2.0 * (self.encode_ns + self.decode_ns)
    }
}

/// Times the codec and the service on `msgs` (the load generator's
/// request mix), `reps` passes each.
pub fn probe_netd(msgs: &[WireMsg], reps: usize) -> EarResult<NetdCosts> {
    let mut svc = EardService::new(EardConfig::default());
    let mut frames: Vec<WireMsg> = msgs.to_vec();
    frames.extend(msgs.iter().map(|m| svc.respond(m).0));
    let n = (frames.len() * reps) as f64;

    let mut buf = Vec::with_capacity(256);
    let t0 = Instant::now();
    for _ in 0..reps {
        for m in &frames {
            buf.clear();
            encode_frame_into(&mut buf, m)?;
            black_box(&buf);
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / n;

    let encoded = frames
        .iter()
        .map(ear_netd::codec::encode_frame)
        .collect::<EarResult<Vec<_>>>()?;
    let t0 = Instant::now();
    for _ in 0..reps {
        for bytes in &encoded {
            black_box(decode_frame(bytes)?);
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / n;

    let mut svc = EardService::new(EardConfig::default());
    let t0 = Instant::now();
    for _ in 0..reps {
        for m in msgs {
            black_box(svc.respond(m));
        }
    }
    let service_ns = t0.elapsed().as_nanos() as f64 / (msgs.len() * reps) as f64;
    Ok(NetdCosts {
        encode_ns,
        decode_ns,
        service_ns,
    })
}

/// Whether `reply` is the kind of frame EARD answers `request` with (the
/// load generator's own check, which netd does not export).
pub fn reply_matches(request: &WireMsg, reply: &WireMsg) -> bool {
    use ear_core::EarlRequest;
    matches!(
        (request, reply),
        (WireMsg::Ping { .. }, WireMsg::Pong { .. })
            | (
                WireMsg::Request(EarlRequest::SetFreqs(_)),
                WireMsg::Reply(_)
            )
            | (
                WireMsg::Request(EarlRequest::ReportSignature(_)),
                WireMsg::SigAck { .. }
            )
            | (WireMsg::PollPower { .. }, WireMsg::Report(_))
    )
}

/// Microseconds per `fit_poly2` call on quick-grid-shaped samples (3×3
/// cells per surface, the shape every quick sweep fits).
pub fn probe_fit(reps: usize) -> EarResult<f64> {
    let mut samples = Vec::new();
    let mut fits = 0usize;
    let t0 = Instant::now();
    for t in full_catalog() {
        let spec = ear_workloads::quick_spec(&t);
        let pstates = t.platform.node_config().pstates;
        samples.clear();
        for &ps in &spec.cpu_pstates {
            for &r in &spec.imc_ratios {
                let (x, y) = (pstates.ghz(ps), f64::from(r) * 0.1);
                samples.push((x, y, 1.0 + 0.3 / x + 0.1 * y + 0.01 * x * y));
            }
        }
        for _ in 0..reps {
            black_box(ear_core::fit_poly2(black_box(&samples))?);
            fits += 1;
        }
    }
    Ok(per(t0.elapsed().as_secs_f64() * 1e6, fits as f64))
}

/// Nanoseconds per `distribute_budget` call on a fleet-sized demand vector.
pub fn probe_distribute_budget(fleet_nodes: usize, reps: usize) -> f64 {
    let demands: Vec<f64> = (0..fleet_nodes).map(|i| 180.0 + 17.0 * i as f64).collect();
    let t0 = Instant::now();
    for i in 0..reps {
        black_box(ear_core::distribute_budget(
            black_box(2000.0 + i as f64),
            black_box(&demands),
        ));
    }
    per(t0.elapsed().as_nanos() as f64, reps as f64)
}

/// A wall time split into named layer parts plus the remainder no layer
/// claims. Parts are in wall-clock seconds of the measured unit.
#[derive(Debug, Clone, Default)]
pub struct Account {
    /// The measured wall time being explained.
    pub wall_s: f64,
    /// `(layer, seconds)` in the order they were attributed.
    pub parts: Vec<(String, f64)>,
    /// What the remainder consists of, in words.
    pub remainder: String,
}

impl Account {
    /// Starts an account of `wall_s`.
    pub fn new(wall_s: f64, remainder: &str) -> Self {
        Account {
            wall_s,
            parts: Vec::new(),
            remainder: remainder.to_string(),
        }
    }

    /// Attributes `seconds` to `layer`.
    pub fn add(&mut self, layer: &str, seconds: f64) {
        self.parts.push((layer.to_string(), seconds));
    }

    /// Seconds the layers account for.
    pub fn attributed(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum()
    }

    /// Seconds no layer accounts for (negative when the layer estimates
    /// over-attribute).
    pub fn unattributed(&self) -> f64 {
        self.wall_s - self.attributed()
    }

    /// Attributed share of the wall time.
    pub fn closed(&self) -> f64 {
        per(self.attributed(), self.wall_s)
    }

    /// Human-readable table: every part, the remainder, and the total.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (layer, secs) in &self.parts {
            s.push_str(&format!(
                "  {layer:<28} {secs:>10.4} s {:>6.1}%\n",
                100.0 * per(*secs, self.wall_s)
            ));
        }
        s.push_str(&format!(
            "  {:<28} {:>10.4} s {:>6.1}%  ({})\n",
            "unattributed",
            self.unattributed(),
            100.0 * per(self.unattributed(), self.wall_s),
            self.remainder
        ));
        s.push_str(&format!(
            "  {:<28} {:>10.4} s  attributed {:.4} s\n",
            "measured wall",
            self.wall_s,
            self.attributed()
        ));
        s
    }
}

/// Shares of a `run_job` replay, as fractions of its host time: archsim
/// (from the phase replay's cost per simulated second), the wrapped
/// runtime hooks split into policy, DynAIS and the rest of EARL/EARD, and
/// the mpisim driver's own remainder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobShares {
    /// `Node::run_phase` stepping.
    pub archsim: f64,
    /// Policy decisions.
    pub policy: f64,
    /// DynAIS sampling.
    pub dynais: f64,
    /// The rest of the EARL/EARD hooks.
    pub earl: f64,
    /// The mpisim driver itself.
    pub mpisim: f64,
}

impl JobShares {
    /// Splits `replay` using archsim's and DynAIS's measured unit costs.
    /// The hook-side parts are capped at the measured hook time and
    /// archsim at what the hooks leave, so the shares sum to 1.
    pub fn of(replay: &JobReplay, archsim_us_per_sim_s: f64, dynais_ns: f64) -> Self {
        let total = replay.run_job_s();
        if total <= 0.0 {
            return JobShares::default();
        }
        let hooks = replay.hooks.seconds().min(total);
        let policy = replay.policy.seconds().min(hooks);
        let dynais = (replay.dynais_samples as f64 * dynais_ns * 1e-9).min(hooks - policy);
        let archsim = (replay.sim_node_s * archsim_us_per_sim_s * 1e-6).min(total - hooks);
        JobShares {
            archsim: archsim / total,
            policy: policy / total,
            dynais: dynais / total,
            earl: (hooks - policy - dynais) / total,
            mpisim: (total - hooks - archsim) / total,
        }
    }

    /// Attributes `busy_s` worker-seconds, spread over `workers`, to the
    /// layers in `acct`.
    pub fn attribute(&self, acct: &mut Account, busy_s: f64, workers: f64) {
        let wall = per(busy_s, workers);
        acct.add("archsim.run_phase", wall * self.archsim);
        acct.add("mpisim.driver", wall * self.mpisim);
        acct.add("earl.hooks", wall * self.earl);
        acct.add("earl.policy", wall * self.policy);
        acct.add("dynais.sample", wall * self.dynais);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_closes_on_the_measured_wall() {
        let mut a = Account::new(10.0, "rest");
        a.add("x", 6.0);
        a.add("y", 3.0);
        assert_eq!(a.attributed(), 9.0);
        assert_eq!(a.unattributed(), 1.0);
        assert_eq!(a.attributed() + a.unattributed(), a.wall_s);
        assert!((a.closed() - 0.9).abs() < 1e-12);
        let text = a.render();
        assert!(text.contains("unattributed") && text.contains("rest"));
    }

    #[test]
    fn over_attribution_shows_as_a_negative_remainder() {
        let mut a = Account::new(1.0, "rest");
        a.add("x", 1.5);
        assert_eq!(a.unattributed(), -0.5);
    }

    #[test]
    fn job_shares_sum_to_one_and_respect_the_hooks() {
        let replay = JobReplay {
            run_job_ms: vec![600.0, 400.0],
            dynais_samples: 1_000_000,
            sim_node_s: 10_000.0,
            ..JobReplay::default()
        };
        replay
            .hooks
            .time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        let s = JobShares::of(&replay, 30.0, 10.0);
        let sum = s.archsim + s.policy + s.dynais + s.earl + s.mpisim;
        assert!((sum - 1.0).abs() < 1e-9, "{s:?}");
        // 10k simulated seconds at 30 us each = 0.3 s of the 1 s total.
        assert!((s.archsim - 0.3).abs() < 1e-9);
        assert!(s.dynais <= replay.hooks.seconds() + 1e-12);

        let mut acct = Account::new(0.5, "rest");
        s.attribute(&mut acct, 1.0, 2.0);
        assert!((acct.attributed() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn archsim_is_capped_by_what_the_hooks_leave() {
        let replay = JobReplay {
            run_job_ms: vec![100.0],
            sim_node_s: 1e9,
            ..JobReplay::default()
        };
        let s = JobShares::of(&replay, 30.0, 0.0);
        assert_eq!(s.archsim, 1.0);
        assert_eq!(s.mpisim, 0.0);
    }

    #[test]
    fn reply_kinds_follow_the_request_mix() {
        let mut svc = EardService::new(EardConfig::default());
        for i in 0..8 {
            let req = ear_netd::loadgen::nth_request(0, i);
            let (reply, _) = svc.respond(&req);
            assert!(
                reply_matches(&req, &reply),
                "{} -> {}",
                req.kind(),
                reply.kind()
            );
            assert!(!reply_matches(&req, &req));
        }
    }

    #[test]
    fn timed_wrappers_count_calls() {
        let c = Clock::default();
        assert_eq!(c.time(|| 7), 7);
        assert_eq!(c.calls(), 1);
        assert_eq!(per(1.0, 0.0), 0.0);
    }
}
