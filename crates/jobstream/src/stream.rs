//! The discrete-event job stream over a powercapped fleet.
//!
//! One [`run_stream`] call plays a pre-drawn arrival plan against a fleet
//! of EARD agents under a global DC power budget. The manager side is the
//! same poll → [`distribute_budget`] → cap-command round the netd
//! aggregation tree runs, and every exchange travels as encoded wire
//! frames through the real codec; the execution side runs each admitted
//! job on a fresh `ear-archsim` cluster under the full enforcement stack
//! (powercap policy inside EARL, daemon clamps, RAPL PL1 backstop in the
//! MSRs).
//!
//! ## Determinism
//!
//! Virtual time is integer microseconds. Admission is strict FCFS onto
//! the lowest-numbered free slots; completions at equal times order by
//! job sequence, and a completion at time *t* is processed before an
//! arrival at *t*. Job execution is `ear_mpisim::run_job`, which is
//! bit-identical across worker-thread counts, and job durations derive
//! only from simulated seconds — so the whole report is byte-identical
//! across re-runs, `--jobs` settings and transports (the UDS path moves
//! identical bytes, merely over sockets).
//!
//! ## Simplifications (documented, deliberate)
//!
//! A job's caps are granted at admission and hold for its lifetime;
//! rebalances triggered while it runs update the daemons' cap state (and
//! the counters) but do not retroactively re-execute the job. Real EARGM
//! converges the same way, one evaluation window behind the fleet.

use crate::arrivals::{generate_plan, Arrival, ArrivalConfig};
use ear_archsim::rng::SplitMix64;
use ear_archsim::Cluster;
use ear_core::policy::PolicySettings;
use ear_core::powercap::distribute_budget;
use ear_core::protocol::{EarlRequest, GmCommand};
use ear_core::{EarDaemon, Earl, EarlConfig, Signature};
use ear_errors::{EarError, EarResult};
use ear_mpisim::run_job;
use ear_netd::codec::{self, FrameBuffer, WireMsg};
use ear_netd::server::{spawn_async, EardConfig, EardService, ServerConfig, ServerHandle};
use ear_netd::{ClientConfig, Endpoint, NetClient, NetListener};
use ear_trace::metrics::{self, Metric};
use ear_workloads::{build_job, calibrate};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::time::Duration;

/// How the stream reaches its EARD agents.
#[derive(Debug, Clone, Default)]
pub enum Wire {
    /// In-process daemon state machines behind [`FrameBuffer`]s (every
    /// byte still goes through the codec).
    #[default]
    InProcess,
    /// One readiness-loop server per fleet node on a Unix-domain socket
    /// under the given directory, one [`NetClient`] per node.
    Uds {
        /// Directory for the per-node `eard-<i>.sock` files.
        dir: PathBuf,
    },
}

/// Stream configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Fleet size (slots a job's nodes are allocated from).
    pub fleet_nodes: usize,
    /// Global DC power budget over the fleet (W).
    pub budget_w: f64,
    /// Mean arrival rate (jobs per hour of virtual time).
    pub arrival_rate_per_hour: f64,
    /// Seed for the arrival plan and per-job cluster seeds.
    pub seed: u64,
    /// How many jobs the stream admits before draining.
    pub max_jobs: usize,
    /// Short jobs (few iterations) for smoke runs.
    pub quick: bool,
    /// Power an idle slot reports to the manager (W).
    pub idle_power_w: f64,
    /// Run the pstate-only throttle baseline instead of the dual-knob
    /// powercap policy (frontier comparisons).
    pub pstate_only: bool,
    /// Transport to the daemons.
    pub wire: Wire,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            fleet_nodes: 8,
            budget_w: 2000.0,
            arrival_rate_per_hour: 60.0,
            seed: 0xEA12_57EA,
            max_jobs: 12,
            quick: false,
            idle_power_w: 120.0,
            pstate_only: false,
            wire: Wire::InProcess,
        }
    }
}

/// One finished job, as the report prints it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Stream-wide job id (admission order).
    pub seq: usize,
    /// Application name.
    pub app: String,
    /// Nodes the job ran on.
    pub nodes: usize,
    /// Virtual submit time (s).
    pub submit_s: f64,
    /// Virtual start time (s).
    pub start_s: f64,
    /// Virtual completion time (s).
    pub end_s: f64,
    /// Mean per-node cap granted at admission (W).
    pub cap_w: f64,
    /// Measured mean per-node DC power (W).
    pub avg_power_w: f64,
    /// Total DC energy over the job (J).
    pub energy_j: f64,
    /// Worst per-node excursion above its granted cap (W; negative =
    /// every node stayed under).
    pub over_w: f64,
}

/// What one stream run produced.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-job outcomes in admission order.
    pub jobs: Vec<JobOutcome>,
    /// Fleet size.
    pub fleet_nodes: usize,
    /// Global budget (W).
    pub budget_w: f64,
    /// Poll-and-redistribute rounds run.
    pub rebalances: u64,
    /// Cap commands acknowledged by daemons.
    pub caps_pushed: u64,
    /// Protocol-level mismatches observed (must be 0 on a healthy run).
    pub protocol_errors: u64,
    /// Deepest the FCFS queue ever got.
    pub peak_queue: usize,
    /// Virtual time the last job completed (s).
    pub makespan_s: f64,
    /// Total DC energy over all jobs (J).
    pub total_energy_j: f64,
}

impl StreamReport {
    /// Jobs per virtual hour actually achieved.
    pub fn throughput_per_hour(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.jobs.len() as f64 * 3600.0 / self.makespan_s
    }

    /// Worst per-node cap excursion across all jobs (W).
    pub fn worst_over_w(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.over_w)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Deterministic text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "job stream: {} nodes, budget {:.0} W\n",
            self.fleet_nodes, self.budget_w
        ));
        out.push_str(
            " seq  app          n  submit_s   wait_s    run_s    cap_W    avg_W   over_W\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "{:4}  {:<11}{:3}  {:8.1} {:8.1} {:8.1} {:8.1} {:8.1} {:8.1}\n",
                j.seq,
                j.app,
                j.nodes,
                j.submit_s,
                j.start_s - j.submit_s,
                j.end_s - j.start_s,
                j.cap_w,
                j.avg_power_w,
                j.over_w,
            ));
        }
        out.push_str(&format!(
            "jobs {}  rebalances {}  caps_pushed {}  protocol_errors {}  peak_queue {}\n",
            self.jobs.len(),
            self.rebalances,
            self.caps_pushed,
            self.protocol_errors,
            self.peak_queue,
        ));
        out.push_str(&format!(
            "makespan {:.1} s  energy {:.1} MJ  throughput {:.1} jobs/h  worst_over {:+.1} W\n",
            self.makespan_s,
            self.total_energy_j / 1e6,
            self.throughput_per_hour(),
            self.worst_over_w(),
        ));
        out
    }
}

/// One fleet slot's daemon, reached either in-process or over a socket.
enum AgentLink {
    Local {
        service: EardService,
        inbuf: FrameBuffer,
        out: Vec<u8>,
    },
    Net(Box<NetClient>),
}

impl AgentLink {
    /// One request/reply exchange through encoded frames.
    fn exchange(&mut self, scratch: &mut Vec<u8>, msg: &WireMsg) -> EarResult<WireMsg> {
        match self {
            AgentLink::Local {
                service,
                inbuf,
                out,
            } => {
                scratch.clear();
                codec::encode_frame_into(scratch, msg)?;
                inbuf.push_bytes(scratch);
                let decoded = inbuf.next_frame()?.ok_or_else(|| {
                    EarError::Protocol("agent buffered a partial frame".to_string())
                })?;
                let (reply, _) = service.respond(&decoded);
                out.clear();
                codec::encode_frame_into(out, &reply)?;
                let (reply, used) = codec::decode_frame(out)?;
                if used != out.len() {
                    return Err(EarError::Protocol(
                        "daemon produced more than one reply frame".to_string(),
                    ));
                }
                Ok(reply)
            }
            AgentLink::Net(client) => client.request_with_retry(msg),
        }
    }
}

/// DC cap → per-socket RAPL PL1 grant. The package share is what remains
/// of the node cap after the non-CPU floor (platform baseline + static
/// DRAM), split evenly over sockets; dynamic DRAM power is deliberately
/// left inside the grant so PL1 stays a *backstop* slightly above the
/// policy's own operating point rather than a second active controller.
/// Exported because the experiment engine arms the same backstop for
/// capped cells — the frontier races the configuration the fleet
/// actually deploys.
pub fn rapl_pkg_limit_w(cfg: &ear_archsim::NodeConfig, cap_dc_w: f64) -> f64 {
    let non_pkg = cfg.power.platform_w + cfg.sockets as f64 * cfg.power.dram_static_w;
    ((cap_dc_w - non_pkg) / cfg.sockets as f64).max(10.0)
}

struct Fleet {
    cfg: StreamConfig,
    agents: Vec<AgentLink>,
    servers: Vec<ServerHandle>,
    free: Vec<bool>,
    scratch: Vec<u8>,
    rebalances: u64,
    caps_pushed: u64,
    protocol_errors: u64,
}

impl Fleet {
    fn new(cfg: StreamConfig) -> EarResult<Self> {
        let n = cfg.fleet_nodes;
        let mut agents = Vec::with_capacity(n);
        let mut servers = Vec::new();
        match &cfg.wire {
            Wire::InProcess => {
                for i in 0..n {
                    agents.push(AgentLink::Local {
                        service: EardService::new(EardConfig {
                            node: i as u64,
                            ceiling: None,
                            idle_power_w: cfg.idle_power_w,
                        }),
                        inbuf: FrameBuffer::new(),
                        out: Vec::new(),
                    });
                }
            }
            Wire::Uds { dir } => {
                for i in 0..n {
                    let path = dir.join(format!("eard-{i}.sock"));
                    let spec = path.to_string_lossy().to_string();
                    let listener = NetListener::bind(&spec)?;
                    servers.push(spawn_async(
                        listener,
                        ServerConfig {
                            eard: EardConfig {
                                node: i as u64,
                                ceiling: None,
                                idle_power_w: cfg.idle_power_w,
                            },
                            workers: 2,
                            read_timeout: Duration::from_secs(5),
                            write_timeout: Duration::from_secs(5),
                            max_seconds: Some(600.0),
                        },
                    ));
                    agents.push(AgentLink::Net(Box::new(NetClient::new(
                        Endpoint::parse(&spec),
                        ClientConfig {
                            seed: cfg.seed ^ (i as u64),
                            ..ClientConfig::default()
                        },
                    ))));
                }
            }
        }
        Ok(Fleet {
            free: vec![true; n],
            agents,
            servers,
            scratch: Vec::new(),
            cfg,
            rebalances: 0,
            caps_pushed: 0,
            protocol_errors: 0,
        })
    }

    fn free_count(&self) -> usize {
        self.free.iter().filter(|f| **f).count()
    }

    /// Poll every daemon, redistribute the budget over reported demand,
    /// push one cap command per daemon. Returns the per-slot caps.
    fn rebalance(&mut self) -> EarResult<Vec<f64>> {
        let mut powers = Vec::with_capacity(self.agents.len());
        for (i, agent) in self.agents.iter_mut().enumerate() {
            let reply =
                agent.exchange(&mut self.scratch, &WireMsg::PollPower { node: i as u64 })?;
            match reply {
                WireMsg::Report(r) => powers.push(r.avg_power_w),
                _ => {
                    self.protocol_errors += 1;
                    powers.push(self.cfg.idle_power_w);
                }
            }
        }
        let caps = distribute_budget(self.cfg.budget_w, &powers);
        for (i, agent) in self.agents.iter_mut().enumerate() {
            let cmd = GmCommand {
                node: i,
                cap_w: caps[i],
            };
            let reply = agent.exchange(&mut self.scratch, &WireMsg::Command(cmd))?;
            match reply {
                WireMsg::CapAck { node, cap_w }
                    if node == i as u64 && cap_w.to_bits() == caps[i].to_bits() =>
                {
                    self.caps_pushed += 1;
                }
                _ => self.protocol_errors += 1,
            }
        }
        self.rebalances += 1;
        metrics::add(Metric::PowercapRebalances, 1);
        metrics::add(Metric::PowercapCapsPushed, self.agents.len() as u64);
        Ok(caps)
    }

    /// Report one node's measured (or idle) power back to its daemon as a
    /// signature frame, so the next poll sees it.
    fn report_power(&mut self, slot: usize, window_s: f64, dc_power_w: f64) -> EarResult<()> {
        let sig = Signature {
            window_s,
            dc_power_w,
            pkg_power_w: dc_power_w * 0.75,
            ..Signature::default()
        };
        let reply = self.agents[slot].exchange(
            &mut self.scratch,
            &WireMsg::Request(EarlRequest::ReportSignature(sig)),
        )?;
        if !matches!(reply, WireMsg::SigAck { .. }) {
            self.protocol_errors += 1;
        }
        Ok(())
    }

    /// Drain the UDS servers (no-op for the in-process wire) and fold
    /// their connection-level error counts into the stream's.
    fn shutdown(&mut self) -> EarResult<()> {
        for agent in &mut self.agents {
            if let AgentLink::Net(client) = agent {
                client.shutdown()?;
            }
        }
        for handle in self.servers.drain(..) {
            let report = handle.join()?;
            self.protocol_errors += report.conn_errors;
        }
        Ok(())
    }
}

/// Runs one admitted job on a fresh cluster under its granted caps and
/// the full enforcement stack. Returns (seconds, total energy, per-node
/// measured powers).
fn execute_job(
    cfg: &StreamConfig,
    arrival: &Arrival,
    caps: &[f64],
) -> EarResult<(f64, f64, Vec<f64>)> {
    let cal = calibrate(&arrival.targets).map_err(|e| EarError::Calibration(e.to_string()))?;
    let spec = build_job(&cal);
    let n = arrival.targets.nodes;
    // One independent seed per (stream, job): mixes the stream seed with
    // the job sequence through SplitMix64 so neighbouring jobs decorrelate.
    let job_seed =
        SplitMix64::new(cfg.seed ^ (arrival.seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64();
    let mut cluster = Cluster::new(cal.node_config.clone(), n, job_seed);
    let mut runtimes = Vec::with_capacity(n);
    for (k, &cap_w) in caps.iter().enumerate().take(n) {
        cluster
            .node_mut(k)
            .set_rapl_limit_w(rapl_pkg_limit_w(&cal.node_config, cap_w), 1.0)
            .map_err(|e| EarError::Msr(format!("programming PL1: {e:?}")))?;
        let policy = if cfg.pstate_only {
            "powercap_pstate"
        } else {
            "powercap"
        };
        let earl = Earl::from_registry(EarlConfig {
            policy_name: policy.to_string(),
            settings: PolicySettings {
                cap_w: Some(cap_w),
                ..PolicySettings::default()
            },
            ..EarlConfig::default()
        })?;
        let mut daemon = EarDaemon::with_cap(earl, cluster.node(k), cap_w);
        daemon.set_node_id(k as u64);
        runtimes.push(daemon);
    }
    let report = run_job(&mut cluster, &spec, &mut runtimes);
    let powers = report.nodes.iter().map(|r| r.avg_dc_power_w).collect();
    Ok((report.seconds(), report.total_dc_energy_j(), powers))
}

/// Plays the whole stream: draws the arrival plan, admits FCFS onto the
/// fleet, rebalances the budget on every admission and completion, and
/// returns the deterministic report.
pub fn run_stream(cfg: StreamConfig) -> EarResult<StreamReport> {
    let plan = generate_plan(&ArrivalConfig {
        seed: cfg.seed,
        rate_per_hour: cfg.arrival_rate_per_hour,
        max_jobs: cfg.max_jobs,
        fleet_nodes: cfg.fleet_nodes,
        quick: cfg.quick,
    });
    let mut fleet = Fleet::new(cfg)?;
    let cfg = fleet.cfg.clone();

    let mut outcomes: Vec<Option<JobOutcome>> = (0..plan.len()).map(|_| None).collect();
    let mut queue: VecDeque<usize> = VecDeque::new();
    // (completion µs, seq, slots) — seq breaks exact-time ties.
    let mut completions: BinaryHeap<Reverse<(u64, usize, Vec<usize>)>> = BinaryHeap::new();
    let mut slot_caps: Vec<Vec<f64>> = vec![Vec::new(); plan.len()];
    let mut peak_queue = 0usize;
    let mut makespan_us = 0u64;
    let mut total_energy_j = 0.0f64;
    let mut next = 0usize;

    // Admits as many queued jobs as fit, FCFS, at virtual time `now_us`.
    #[allow(clippy::too_many_arguments)]
    fn try_admit(
        now_us: u64,
        fleet: &mut Fleet,
        cfg: &StreamConfig,
        plan: &[Arrival],
        queue: &mut VecDeque<usize>,
        completions: &mut BinaryHeap<Reverse<(u64, usize, Vec<usize>)>>,
        outcomes: &mut [Option<JobOutcome>],
        slot_caps: &mut [Vec<f64>],
        total_energy_j: &mut f64,
        makespan_us: &mut u64,
    ) -> EarResult<()> {
        while let Some(&seq) = queue.front() {
            let arrival = &plan[seq];
            if fleet.free_count() < arrival.targets.nodes {
                break;
            }
            queue.pop_front();
            let slots: Vec<usize> = (0..fleet.free.len())
                .filter(|&s| fleet.free[s])
                .take(arrival.targets.nodes)
                .collect();
            for &s in &slots {
                fleet.free[s] = false;
            }
            // Grant caps from a fresh rebalance: the new job's slots still
            // report idle power, so their share is the idle-demand one —
            // the next completion or admission re-divides with their real
            // demand known (one window behind, as on a real machine room).
            let caps = fleet.rebalance()?;
            let granted: Vec<f64> = slots.iter().map(|&s| caps[s]).collect();
            let (seconds, energy_j, powers) = execute_job(cfg, arrival, &granted)?;
            for (k, &s) in slots.iter().enumerate() {
                fleet.report_power(s, seconds, powers[k])?;
            }
            let over_w = powers
                .iter()
                .zip(&granted)
                .map(|(p, c)| p - c)
                .fold(f64::NEG_INFINITY, f64::max);
            let end_us = now_us + (seconds * 1e6).round() as u64;
            *makespan_us = (*makespan_us).max(end_us);
            *total_energy_j += energy_j;
            outcomes[seq] = Some(JobOutcome {
                seq,
                app: arrival.targets.name.to_string(),
                nodes: arrival.targets.nodes,
                submit_s: arrival.at_us as f64 / 1e6,
                start_s: now_us as f64 / 1e6,
                end_s: end_us as f64 / 1e6,
                cap_w: granted.iter().sum::<f64>() / granted.len().max(1) as f64,
                avg_power_w: powers.iter().sum::<f64>() / powers.len().max(1) as f64,
                energy_j,
                over_w,
            });
            slot_caps[seq] = granted;
            completions.push(Reverse((end_us, seq, slots)));
            metrics::add(Metric::PowercapJobsAdmitted, 1);
        }
        Ok(())
    }

    while next < plan.len() || !completions.is_empty() {
        let next_arrival_us = plan.get(next).map(|a| a.at_us);
        let next_completion_us = completions.peek().map(|Reverse((t, _, _))| *t);
        let completion_first = match (next_completion_us, next_arrival_us) {
            (Some(c), Some(a)) => c <= a,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if completion_first {
            let Some(Reverse((now_us, seq, slots))) = completions.pop() else {
                break;
            };
            for &s in &slots {
                fleet.free[s] = true;
                // The slot falls back to idle demand for the next poll.
                fleet.report_power(s, 1.0, cfg.idle_power_w)?;
            }
            let _ = seq;
            metrics::add(Metric::PowercapJobsCompleted, 1);
            fleet.rebalance()?;
            try_admit(
                now_us,
                &mut fleet,
                &cfg,
                &plan,
                &mut queue,
                &mut completions,
                &mut outcomes,
                &mut slot_caps,
                &mut total_energy_j,
                &mut makespan_us,
            )?;
        } else {
            let now_us = plan[next].at_us;
            queue.push_back(next);
            next += 1;
            peak_queue = peak_queue.max(queue.len());
            try_admit(
                now_us,
                &mut fleet,
                &cfg,
                &plan,
                &mut queue,
                &mut completions,
                &mut outcomes,
                &mut slot_caps,
                &mut total_energy_j,
                &mut makespan_us,
            )?;
        }
    }
    if !queue.is_empty() {
        return Err(EarError::Invariant(
            "job stream drained with jobs still queued".to_string(),
        ));
    }
    fleet.shutdown()?;

    let jobs: Vec<JobOutcome> = outcomes.into_iter().map_while(|o| o).collect();
    Ok(StreamReport {
        fleet_nodes: cfg.fleet_nodes,
        budget_w: cfg.budget_w,
        rebalances: fleet.rebalances,
        caps_pushed: fleet.caps_pushed,
        protocol_errors: fleet.protocol_errors,
        peak_queue,
        makespan_s: makespan_us as f64 / 1e6,
        total_energy_j,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StreamConfig {
        StreamConfig {
            fleet_nodes: 4,
            budget_w: 1200.0,
            arrival_rate_per_hour: 120.0,
            seed: 7,
            max_jobs: 3,
            quick: true,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn stream_runs_all_jobs_and_rebalances() {
        let report = run_stream(quick_cfg()).expect("stream runs");
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.protocol_errors, 0);
        // At least one rebalance per admission and one per completion.
        assert!(report.rebalances >= 6, "rebalances: {}", report.rebalances);
        assert_eq!(report.caps_pushed, report.rebalances * 4);
        for j in &report.jobs {
            assert!(j.end_s > j.start_s);
            assert!(j.start_s + 1e-9 >= j.submit_s);
            assert!(j.energy_j > 0.0);
        }
    }

    #[test]
    fn stream_is_deterministic_across_runs() {
        let a = run_stream(quick_cfg()).expect("first run");
        let b = run_stream(quick_cfg()).expect("second run");
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn oversubscribed_budget_still_drains_and_caps_bind() {
        // A budget far below the fleet's appetite: jobs still all finish
        // (the policy floors at the slowest operating point) and the
        // granted caps are visibly tight.
        let report = run_stream(StreamConfig {
            budget_w: 400.0,
            ..quick_cfg()
        })
        .expect("oversubscribed stream runs");
        assert_eq!(report.jobs.len(), 3);
        let generous = run_stream(StreamConfig {
            budget_w: 4000.0,
            ..quick_cfg()
        })
        .expect("generous stream runs");
        let tight_cap: f64 = report.jobs.iter().map(|j| j.cap_w).sum();
        let wide_cap: f64 = generous.jobs.iter().map(|j| j.cap_w).sum();
        assert!(
            tight_cap < wide_cap,
            "tight {tight_cap:.1} W vs wide {wide_cap:.1} W"
        );
        // Under the tight budget every job draws less power (it may run
        // longer, so total *energy* is not the right comparison).
        let tight_w: f64 = report.jobs.iter().map(|j| j.avg_power_w).sum();
        let wide_w: f64 = generous.jobs.iter().map(|j| j.avg_power_w).sum();
        assert!(
            tight_w < wide_w,
            "tight {tight_w:.1} W vs wide {wide_w:.1} W"
        );
    }

    #[test]
    fn uds_wire_matches_the_in_process_stream() {
        let dir = std::env::temp_dir().join(format!("ear-jobstream-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let uds = run_stream(StreamConfig {
            wire: Wire::Uds { dir: dir.clone() },
            ..quick_cfg()
        })
        .expect("uds stream runs");
        let local = run_stream(quick_cfg()).expect("local stream runs");
        assert_eq!(uds.render(), local.render(), "transport must not matter");
        assert_eq!(uds.protocol_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
