//! The EARGM aggregation client: fan out over node daemons, aggregate
//! power reports, push cap redistributions back down.
//!
//! [`EargmPoller`] owns one [`NetClient`] per node daemon. Each poll round
//! asks every daemon for its [`GmReport`], redistributes the cluster
//! budget over the reported demand with the same
//! [`ear_core::powercap::distribute_budget`] the aggregation tree and the
//! job stream's rebalance use, and pushes one [`GmCommand`] per node. Fan-out concurrency is governed
//! by the process-global permit pool (`ear_mpisim::permits`) through the
//! RAII [`PermitGuard`](ear_mpisim::PermitGuard), so a poller sharing a
//! process with the experiment engine cannot oversubscribe the machine —
//! and a panicking lane still returns its permits.

use crate::client::{ClientConfig, NetClient};
use crate::codec::WireMsg;
use crate::conn::Endpoint;
use ear_core::powercap::distribute_budget;
use ear_core::protocol::{GmCommand, GmReport};
use ear_errors::{EarError, EarResult};
use ear_mpisim::permits;

/// One completed poll round.
#[derive(Debug, Clone)]
pub struct PollRound {
    /// Power reports, ordered by daemon index.
    pub reports: Vec<GmReport>,
    /// Cap commands pushed (same order).
    pub commands: Vec<GmCommand>,
    /// Concurrent lanes the fan-out actually used (permit-governed).
    pub lanes: usize,
}

impl PollRound {
    /// Total reported cluster power (W).
    pub fn cluster_power_w(&self) -> f64 {
        self.reports.iter().map(|r| r.avg_power_w).sum()
    }
}

/// The cluster manager's polling client.
pub struct EargmPoller {
    clients: Vec<NetClient>,
    budget_w: f64,
    rounds: u64,
}

/// Runs `f(i, client)` for every client, spread over at most `lanes`
/// threads; results come back in client order and the first failure wins.
fn fan_out<T, F>(clients: &mut [NetClient], lanes: usize, f: F) -> EarResult<Vec<T>>
where
    T: Send,
    F: Fn(usize, &mut NetClient) -> EarResult<T> + Sync,
{
    let n = clients.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let lanes = lanes.clamp(1, n);
    if lanes == 1 {
        return clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let chunk = n.div_ceil(lanes);
    let mut results: Vec<Option<EarResult<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (lane, part) in clients.chunks_mut(chunk).enumerate() {
            let f = &f;
            handles.push(s.spawn(move || {
                let base = lane * chunk;
                part.iter_mut()
                    .enumerate()
                    .map(|(j, c)| (base + j, f(base + j, c)))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            if let Ok(items) = h.join() {
                for (i, r) in items {
                    results[i] = Some(r);
                }
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err(EarError::Protocol("poller lane panicked".to_string()))))
        .collect()
}

impl EargmPoller {
    /// Creates a poller over `endpoints` with a cluster power budget (W).
    /// Each client gets a distinct jitter seed so their retry backoffs
    /// decorrelate.
    pub fn new(endpoints: Vec<Endpoint>, cfg: &ClientConfig, budget_w: f64) -> Self {
        let clients = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let mut c = cfg.clone();
                c.seed = c
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                NetClient::new(ep, c)
            })
            .collect();
        EargmPoller {
            clients,
            budget_w,
            rounds: 0,
        }
    }

    /// Daemons under management.
    pub fn daemons(&self) -> usize {
        self.clients.len()
    }

    /// Poll rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The cluster budget (W).
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// One full management round: poll every daemon, redistribute the
    /// budget over reported demand, push the new caps, verify every ack.
    pub fn poll_once(&mut self) -> EarResult<PollRound> {
        let n = self.clients.len();
        if n == 0 {
            return Err(EarError::Protocol("poller manages no daemons".to_string()));
        }
        // Permits bound the *extra* lanes; one lane is always ours. The
        // guard releases on every exit path, including panics in a lane.
        let held = permits::acquire_guard(n.saturating_sub(1));
        let lanes = (held.count() + 1).min(n);
        let reports = fan_out(&mut self.clients, lanes, |i, client| {
            match client.request_with_retry(&WireMsg::PollPower { node: i as u64 })? {
                WireMsg::Report(r) => Ok(r),
                other => Err(EarError::Protocol(format!(
                    "daemon {i}: expected gm_report, got '{}'",
                    other.kind()
                ))),
            }
        })?;
        let powers: Vec<f64> = reports.iter().map(|r| r.avg_power_w).collect();
        let caps = distribute_budget(self.budget_w, &powers);
        let commands: Vec<GmCommand> = reports
            .iter()
            .zip(&caps)
            .map(|(r, &cap_w)| GmCommand {
                node: r.node,
                cap_w,
            })
            .collect();
        let pushed = commands.clone();
        fan_out(&mut self.clients, lanes, move |i, client| {
            let cmd = pushed[i];
            match client.request_with_retry(&WireMsg::Command(cmd))? {
                WireMsg::CapAck { node, cap_w } => {
                    if node as usize == cmd.node && (cap_w - cmd.cap_w).abs() < 1e-9 {
                        Ok(())
                    } else {
                        Err(EarError::Protocol(format!(
                            "daemon {i}: cap ack mismatch (node {node}, cap {cap_w})"
                        )))
                    }
                }
                other => Err(EarError::Protocol(format!(
                    "daemon {i}: expected cap_ack, got '{}'",
                    other.kind()
                ))),
            }
        })?;
        drop(held);
        self.rounds += 1;
        Ok(PollRound {
            reports,
            commands,
            lanes,
        })
    }
}
