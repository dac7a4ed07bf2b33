//! Closed-loop load generator for the networked daemon.
//!
//! `earsim loadgen` drives a daemon with `K` concurrent clients, each in a
//! closed loop (next request only after the previous reply), cycling a
//! deterministic mix of protocol requests. Latency is recorded into a
//! fixed-bucket power-of-two histogram — no per-request allocation, exact
//! counts, approximate quantiles with one-bucket resolution — and the
//! report carries throughput plus exact min/max and p50/p95/p99. The
//! histogram tracks the exact observed extremes next to its buckets, so
//! reports print precise min/max beside bucket-resolution quantiles.
//!
//! Throughput is measured over the *active* window: each client subtracts
//! the time it spent connecting, redialing after drops and sleeping retry
//! backoffs ([`crate::client::NetClient::overhead_nanos`]) from its wall
//! clock, so the number characterises the service, not the dialing.

use crate::client::{ClientConfig, NetClient};
use crate::codec::WireMsg;
use crate::conn::Endpoint;
use ear_core::policy::NodeFreqs;
use ear_core::protocol::EarlRequest;
use ear_core::Signature;
use ear_errors::{EarError, EarResult};
use std::time::{Duration, Instant};

/// Number of power-of-two latency buckets (bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds; 2^63 ns ≈ 292 years caps the range).
pub const BUCKETS: usize = 64;

/// A fixed-bucket latency histogram over nanoseconds, plus exact observed
/// extremes.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, nanos: u64) {
        let idx = 63 - nanos.max(1).leading_zeros() as usize;
        self.buckets[idx.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact smallest recorded sample (ns); 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The exact largest recorded sample (ns); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds, resolved to the upper
    /// bound of the bucket holding that rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// How long to drive load.
    pub duration: Duration,
    /// Per-client connection/retry configuration.
    pub client: ClientConfig,
    /// Send the shutdown poison frame once the run completes.
    pub shutdown_after: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 8,
            duration: Duration::from_secs(2),
            client: ClientConfig::default(),
            shutdown_after: false,
        }
    }
}

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Successful request/reply exchanges.
    pub requests: u64,
    /// Failed exchanges (after client retries).
    pub errors: u64,
    /// Wall-clock duration of the drive phase (s).
    pub seconds: f64,
    /// Mean per-client measurement window (s): wall clock minus the time
    /// that client spent connecting, redialing and backing off.
    pub active_seconds: f64,
    /// Total connect/redial/backoff time summed across clients (s).
    pub overhead_seconds: f64,
    /// Latency distribution of successful exchanges.
    pub histogram: LatencyHistogram,
}

impl LoadReport {
    /// Successful requests per second, over the active (dial-excluded)
    /// window when it is meaningful, else over the wall clock.
    pub fn throughput(&self) -> f64 {
        let window = if self.active_seconds > 0.0 {
            self.active_seconds
        } else {
            self.seconds
        };
        if window > 0.0 {
            self.requests as f64 / window
        } else {
            0.0
        }
    }

    /// Renders the human-readable summary `earsim loadgen` prints.
    pub fn render(&self) -> String {
        let us = |ns: u64| ns as f64 / 1000.0;
        format!(
            "requests {}  errors {}  seconds {:.2}  active {:.2}  overhead {:.3}  throughput {:.0} req/s\n\
             latency min {:.1} us  p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  max {:.1} us",
            self.requests,
            self.errors,
            self.seconds,
            self.active_seconds,
            self.overhead_seconds,
            self.throughput(),
            us(self.histogram.min()),
            us(self.histogram.quantile(0.50)),
            us(self.histogram.quantile(0.95)),
            us(self.histogram.quantile(0.99)),
            us(self.histogram.max()),
        )
    }
}

/// The deterministic request mix: client `client_id`'s `i`-th request.
/// Cycles ping → set_freqs → report_signature → poll_power so every server
/// path is exercised.
pub fn nth_request(client_id: usize, i: u64) -> WireMsg {
    match i % 4 {
        0 => WireMsg::Ping {
            token: (client_id as u64) << 32 | i,
        },
        1 => WireMsg::Request(EarlRequest::SetFreqs(NodeFreqs {
            cpu: (i % 4) as usize,
            imc_min_ratio: 12,
            imc_max_ratio: 18 + (i % 7) as u8,
            imc_dom: ear_core::DomainLimits::LEGACY,
        })),
        2 => WireMsg::Request(EarlRequest::ReportSignature(Signature {
            iterations: (i % 100) as u32 + 1,
            window_s: 10.0,
            cpi: 0.8 + (i % 10) as f64 / 100.0,
            tpi: 1.5,
            gbs: 80.0,
            vpi: 0.05,
            dc_power_w: 250.0 + (client_id % 16) as f64,
            pkg_power_w: 180.0,
            avg_cpu_khz: 2_400_000.0,
            avg_imc_khz: 2_000_000.0,
            ..Signature::default()
        })),
        _ => WireMsg::PollPower {
            node: client_id as u64,
        },
    }
}

pub(crate) fn reply_matches(request: &WireMsg, reply: &WireMsg) -> bool {
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

/// Runs the closed-loop load generator against `endpoint`.
pub fn run(endpoint: &Endpoint, cfg: &LoadgenConfig) -> EarResult<LoadReport> {
    if cfg.clients == 0 {
        return Err(EarError::Protocol(
            "loadgen needs at least one client".to_string(),
        ));
    }
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let mut merged = LatencyHistogram::new();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut active_ns_total = 0u64;
    let mut overhead_ns_total = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.clients);
        for client_id in 0..cfg.clients {
            let endpoint = endpoint.clone();
            let mut client_cfg = cfg.client.clone();
            client_cfg.seed = client_cfg
                .seed
                .wrapping_add(0xA076_1D64_78BD_642Fu64.wrapping_mul(client_id as u64 + 1));
            handles.push(s.spawn(move || {
                let spawned = Instant::now();
                let mut client = NetClient::new(endpoint, client_cfg);
                let mut hist = LatencyHistogram::new();
                let (mut ok, mut err) = (0u64, 0u64);
                let mut i = 0u64;
                while Instant::now() < deadline {
                    let msg = nth_request(client_id, i);
                    let sent = Instant::now();
                    match client.request_with_retry(&msg) {
                        Ok(reply) if reply_matches(&msg, &reply) => {
                            hist.record(sent.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                            ok += 1;
                        }
                        _ => err += 1,
                    }
                    i += 1;
                }
                let wall_ns = spawned.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                let overhead_ns = client.overhead_nanos();
                (
                    ok,
                    err,
                    hist,
                    wall_ns.saturating_sub(overhead_ns),
                    overhead_ns,
                )
            }));
        }
        for h in handles {
            if let Ok((ok, err, hist, active_ns, overhead_ns)) = h.join() {
                requests += ok;
                errors += err;
                merged.merge(&hist);
                active_ns_total += active_ns;
                overhead_ns_total += overhead_ns;
            } else {
                errors += 1;
            }
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    if cfg.shutdown_after {
        let mut client = NetClient::new(endpoint.clone(), cfg.client.clone());
        client.shutdown()?;
    }
    Ok(LoadReport {
        requests,
        errors,
        seconds,
        active_seconds: active_ns_total as f64 / 1e9 / cfg.clients as f64,
        overhead_seconds: overhead_ns_total as f64 / 1e9,
        histogram: merged,
    })
}
