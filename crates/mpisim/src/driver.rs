//! The co-simulation driver.
//!
//! Runs a [`JobSpec`] on a [`Cluster`] with one [`NodeRuntime`] per node.
//! The paper's applications are bulk-synchronous: every node executes the
//! same outer iteration and synchronises at its end, so the driver runs
//! each iteration on every node, then fills the stragglers' gap with idle
//! time (load-imbalance waiting).
//!
//! [`run_job`] steps the nodes one after another on the calling thread.
//! The paper's jobs have 4 to 16 nodes and a node's iteration costs
//! microseconds of archsim work: stepping nodes on threads between
//! barriers paid on no measured workload (DESIGN.md §11), and the
//! experiment engine already keeps the cores busy with whole jobs.

use crate::intercept::NodeRuntime;
use crate::job::JobSpec;
use ear_archsim::{Cluster, CounterSnapshot, PhaseDemand};

/// Per-node summary of a finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeReport {
    /// Wall-clock seconds from job start to job end on this node.
    pub seconds: f64,
    /// Exact DC energy consumed over the job (J).
    pub dc_energy_j: f64,
    /// Exact package (RAPL PKG) energy over the job (J).
    pub pkg_energy_j: f64,
    /// Average DC power (W).
    pub avg_dc_power_w: f64,
    /// Average CPU frequency over the job (GHz, all cores).
    pub avg_cpu_ghz: f64,
    /// Average IMC (uncore) frequency over the job (GHz).
    pub avg_imc_ghz: f64,
    /// Uncore frequency domains instantiated per socket (1 = legacy).
    pub imc_domains: usize,
    /// Average per-domain IMC frequency over the job (GHz); entries past
    /// `imc_domains` stay zero.
    pub imc_dom_ghz: [f64; ear_archsim::MAX_UNCORE_DOMAINS],
    /// Job-average CPI.
    pub cpi: f64,
    /// Job-average memory bandwidth (GB/s).
    pub gbs: f64,
    /// Job-average AVX512 instruction fraction.
    pub vpi: f64,
}

/// Whole-job summary.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Application name.
    pub name: String,
    /// Per-node reports.
    pub nodes: Vec<NodeReport>,
}

impl JobReport {
    /// Job execution time: the slowest node (they end synchronised, so all
    /// are equal up to rounding).
    pub fn seconds(&self) -> f64 {
        self.nodes.iter().map(|n| n.seconds).fold(0.0, f64::max)
    }

    /// Total DC energy across nodes (J).
    pub fn total_dc_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.dc_energy_j).sum()
    }

    /// Total package energy across nodes (J).
    pub fn total_pkg_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.pkg_energy_j).sum()
    }

    /// Mean of a per-node metric.
    fn mean(&self, f: impl Fn(&NodeReport) -> f64) -> f64 {
        self.nodes.iter().map(f).sum::<f64>() / self.nodes.len().max(1) as f64
    }

    /// Average DC node power across nodes (W).
    pub fn avg_dc_power_w(&self) -> f64 {
        self.mean(|n| n.avg_dc_power_w)
    }

    /// Average CPU frequency across nodes (GHz).
    pub fn avg_cpu_ghz(&self) -> f64 {
        self.mean(|n| n.avg_cpu_ghz)
    }

    /// Average IMC frequency across nodes (GHz).
    pub fn avg_imc_ghz(&self) -> f64 {
        self.mean(|n| n.avg_imc_ghz)
    }

    /// Uncore frequency domains per socket (the maximum across nodes; a
    /// homogeneous cluster reports every node equal).
    pub fn imc_domains(&self) -> usize {
        self.nodes.iter().map(|n| n.imc_domains).max().unwrap_or(1)
    }

    /// Average IMC frequency of domain `d` across nodes (GHz).
    pub fn imc_dom_ghz(&self, d: usize) -> f64 {
        if d < ear_archsim::MAX_UNCORE_DOMAINS {
            self.mean(|n| n.imc_dom_ghz[d])
        } else {
            0.0
        }
    }

    /// Average CPI across nodes.
    pub fn cpi(&self) -> f64 {
        self.mean(|n| n.cpi)
    }

    /// Average memory bandwidth per node (GB/s).
    pub fn gbs(&self) -> f64 {
        self.mean(|n| n.gbs)
    }
}

/// Validates the (cluster, job, runtimes) triple. Panics on mismatch —
/// those are harness bugs, not recoverable conditions.
fn check_job<R>(cluster: &Cluster, job: &JobSpec, runtimes: &[R]) {
    if let Err(e) = job.validate() {
        panic!("invalid job: {e}");
    }
    assert_eq!(cluster.len(), job.nodes, "cluster size != job nodes");
    assert_eq!(runtimes.len(), job.nodes, "one runtime per node required");
}

/// Prices every iteration's explicit communication through the fabric
/// **once per iteration** (the fabric wait is identical on every node), so
/// the per-node stepping below never clones a demand or re-walks the
/// communication spec. Iterations without explicit communication keep
/// `None` and are stepped with their original demand by reference.
fn priced_demands(cluster: &Cluster, job: &JobSpec) -> Vec<Option<PhaseDemand>> {
    job.iterations
        .iter()
        .map(|iter| {
            iter.comm.as_ref().filter(|c| !c.is_empty()).map(|comm| {
                let mut demand = iter.demand.clone();
                demand.wait_seconds += comm.wait_seconds(&cluster.fabric, job.nodes);
                demand
            })
        })
        .collect()
}

/// Builds the per-node reports from the start-of-job snapshots.
fn build_report(cluster: &Cluster, job: &JobSpec, starts: &[CounterSnapshot]) -> JobReport {
    let mut nodes = Vec::with_capacity(cluster.len());
    for (i, start) in starts.iter().enumerate() {
        let end = cluster.node(i).snapshot();
        let d = end.delta(start);
        let seconds = d.seconds;
        nodes.push(NodeReport {
            seconds,
            dc_energy_j: end.dc_energy_exact_j - start.dc_energy_exact_j,
            pkg_energy_j: d.pkg_energy_j,
            avg_dc_power_w: if seconds > 0.0 {
                (end.dc_energy_exact_j - start.dc_energy_exact_j) / seconds
            } else {
                0.0
            },
            avg_cpu_ghz: d.avg_cpu_ghz(),
            avg_imc_ghz: d.avg_imc_ghz(),
            imc_domains: d.uncore_domains,
            imc_dom_ghz: std::array::from_fn(|k| d.imc_dom_ghz(k)),
            cpi: d.cpi(),
            gbs: d.gbs(),
            vpi: d.vpi(),
        });
    }

    JobReport {
        name: job.name.clone(),
        nodes,
    }
}

/// Runs `job` on `cluster` with one runtime per node. Per iteration,
/// every node runs its PMPI events, work phase and tick in node order,
/// then the stragglers idle up to the slowest node's clock.
///
/// Panics if the job is invalid or the runtime/node counts disagree —
/// those are harness bugs, not recoverable conditions.
pub fn run_job<R: NodeRuntime>(
    cluster: &mut Cluster,
    job: &JobSpec,
    runtimes: &mut [R],
) -> JobReport {
    check_job(cluster, job, runtimes);
    let starts: Vec<_> = (0..cluster.len())
        .map(|i| cluster.node(i).snapshot())
        .collect();

    for (i, rt) in runtimes.iter_mut().enumerate() {
        rt.on_job_start(cluster.node_mut(i), &job.name, job.ranks_per_node);
    }

    let priced = priced_demands(cluster, job);
    for (iter, priced_demand) in job.iterations.iter().zip(&priced) {
        let demand = priced_demand.as_ref().unwrap_or(&iter.demand);
        for (n, rt) in runtimes.iter_mut().enumerate() {
            // One node's share of the iteration: the PMPI stream (EARL
            // coordinates per node through its master rank, so the runtime
            // receives one event stream per node), the priced work phase,
            // and the timer tick.
            let node = cluster.node_mut(n);
            for ev in &iter.events {
                rt.on_mpi_call(node, ev);
            }
            node.run_phase(demand);
            rt.on_tick(node);
        }
        // Bulk-synchronous step: everyone waits for the slowest node.
        let horizon = cluster.horizon();
        cluster.synchronise_to(horizon);
    }

    for (i, rt) in runtimes.iter_mut().enumerate() {
        rt.on_job_end(cluster.node_mut(i));
    }

    build_report(cluster, job, &starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::{MpiCall, MpiEvent};
    use crate::intercept::{NullRuntime, RecordingRuntime};
    use crate::job::IterationSpec;
    use ear_archsim::{Node, NodeConfig};

    fn small_job(iters: usize) -> JobSpec {
        JobSpec::homogeneous(
            "unit",
            2,
            40,
            vec![
                MpiEvent::new(MpiCall::Isend, 8192, 1),
                MpiEvent::new(MpiCall::Irecv, 8192, 1),
                MpiEvent::new(MpiCall::Wait, 0, 0),
                MpiEvent::collective(MpiCall::Allreduce, 64),
            ],
            PhaseDemand {
                instructions: 2e10,
                mem_bytes: 5e9,
                active_cores: 40,
                wait_seconds: 0.01,
                ..Default::default()
            },
            iters,
        )
    }

    fn null_runtimes(n: usize) -> Vec<NullRuntime> {
        vec![NullRuntime; n]
    }

    /// A load-imbalance job: iterations alternate between a heavy compute
    /// phase, a memory-bound phase and a near-empty phase, with fabric
    /// communication priced on every other iteration, so the nodes reach
    /// each barrier at very different times.
    fn straggler_job(nodes: usize, iterations: usize) -> JobSpec {
        use crate::job::CommSpec;
        let events = vec![
            MpiEvent::new(MpiCall::Isend, 1 << 20, 1),
            MpiEvent::new(MpiCall::Irecv, 1 << 20, 1),
            MpiEvent::new(MpiCall::Wait, 0, 0),
            MpiEvent::collective(MpiCall::Alltoall, 4096),
        ];
        let iterations = (0..iterations)
            .map(|i| {
                let (instructions, mem_bytes, active_cores, wait_seconds) = match i % 3 {
                    0 => (3e10, 1e9, 32, 0.0),
                    1 => (2e9, 2e10, 32, 0.05),
                    _ => (1e8, 1e7, 4, 0.0),
                };
                IterationSpec {
                    events: events.clone(),
                    demand: PhaseDemand {
                        instructions,
                        mem_bytes,
                        active_cores,
                        wait_seconds,
                        ..Default::default()
                    },
                    comm: (i % 2 == 0).then(|| CommSpec {
                        collectives: vec![(MpiCall::Alltoall, 2 << 20)],
                        p2p_bytes: vec![1 << 18; 6],
                    }),
                }
            })
            .collect();
        JobSpec {
            name: "straggler".to_string(),
            nodes,
            ranks_per_node: 40,
            iterations,
        }
    }

    #[test]
    fn job_runs_and_reports() {
        let mut cluster = Cluster::new(NodeConfig::sd530_6148(), 2, 42);
        let job = small_job(20);
        let mut rts = null_runtimes(2);
        let report = run_job(&mut cluster, &job, &mut rts);
        assert_eq!(report.nodes.len(), 2);
        assert!(report.seconds() > 1.0);
        assert!(report.total_dc_energy_j() > 100.0);
        assert!(report.avg_dc_power_w() > 200.0);

        // Every node ends on the same microsecond: on the homogeneous
        // run above, under stragglers, and on mixed hardware, where the
        // same demand takes different time on the two node types.
        let mixed = || {
            Cluster::from_nodes(vec![
                Node::new(NodeConfig::sd530_6148(), 11),
                Node::new(NodeConfig::gpu_node_6142m(), 12),
                Node::new(NodeConfig::sd530_6148(), 13),
                Node::new(NodeConfig::gpu_node_6142m(), 14),
            ])
        };
        let straggler = straggler_job(4, 18);
        let runs = [
            (cluster, job),
            (
                Cluster::new(NodeConfig::sd530_6148(), 4, 77),
                straggler.clone(),
            ),
            (mixed(), straggler),
        ];
        for (mut cluster, job) in runs {
            let mut rts = null_runtimes(job.nodes);
            let report = run_job(&mut cluster, &job, &mut rts);
            let end = cluster.node(0).now();
            assert!(end > ear_archsim::SimTime::ZERO);
            for (i, node) in report.nodes.iter().enumerate() {
                assert_eq!(cluster.node(i).now(), end, "{}: node {i}", job.name);
                assert_eq!(node.seconds.to_bits(), report.nodes[0].seconds.to_bits());
            }
        }
    }

    #[test]
    fn interception_sees_every_event() {
        let mut cluster = Cluster::new(NodeConfig::sd530_6148(), 2, 43);
        let job = small_job(5);
        let mut rts = vec![RecordingRuntime::default(), RecordingRuntime::default()];
        run_job(&mut cluster, &job, &mut rts);
        // 5 iterations × 4 events.
        assert_eq!(rts[0].events.len(), 20);
        assert_eq!(rts[0].started, vec!["unit".to_string()]);
        assert_eq!(rts[0].ended, 1);
        assert_eq!(rts[1].events.len(), 20);
    }

    #[test]
    fn explicit_comm_is_priced_by_the_fabric() {
        use crate::job::CommSpec;
        let mk_job = || {
            let mut job = small_job(10);
            for it in &mut job.iterations {
                it.comm = Some(CommSpec {
                    collectives: vec![(MpiCall::Allreduce, 4 << 20)],
                    p2p_bytes: vec![1 << 20; 8],
                });
            }
            job
        };
        let run = |bw: f64| {
            let mut cluster = Cluster::new(NodeConfig::sd530_6148(), 2, 44);
            cluster.fabric.bandwidth_bytes = bw;
            let mut rts = null_runtimes(2);
            run_job(&mut cluster, &mk_job(), &mut rts).seconds()
        };
        let fast = run(12e9);
        let slow = run(1e9);
        assert!(
            slow > fast * 1.02,
            "fabric made no difference: {slow} vs {fast}"
        );
    }

    #[test]
    #[should_panic(expected = "cluster size != job nodes")]
    fn mismatched_cluster_panics() {
        let mut cluster = Cluster::new(NodeConfig::sd530_6148(), 1, 1);
        let job = small_job(1);
        let mut rts = null_runtimes(1);
        run_job(&mut cluster, &job, &mut rts);
    }

    #[test]
    fn priced_demand_is_computed_once_per_iteration() {
        use crate::job::CommSpec;
        let mut job = small_job(4);
        job.iterations[1].comm = Some(CommSpec {
            collectives: vec![(MpiCall::Allreduce, 1 << 20)],
            p2p_bytes: vec![4096; 2],
        });
        job.iterations[2].comm = Some(CommSpec::default()); // empty: not priced
        let cluster = Cluster::new(NodeConfig::sd530_6148(), 2, 45);
        let priced = priced_demands(&cluster, &job);
        assert_eq!(priced.len(), 4);
        assert!(priced[0].is_none());
        assert!(priced[2].is_none(), "empty comm spec must not be priced");
        assert!(priced[3].is_none());
        let d = priced[1].as_ref().expect("iteration 1 has communication");
        assert!(d.wait_seconds > job.iterations[1].demand.wait_seconds);
    }
}
