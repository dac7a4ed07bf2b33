//! The daemon client library: deadline-guarded requests with bounded,
//! jitter-backed retries.
//!
//! [`NetClient`] owns one (lazily established) connection to a daemon
//! endpoint. Every request applies the configured connect and request
//! deadlines; [`NetClient::request_with_retry`] additionally retries a
//! bounded number of times with exponential backoff whose jitter comes
//! from a seeded xorshift generator — deterministic per client, so tests
//! and benchmarks are reproducible, while a fleet of clients still spreads
//! its retries instead of stampeding.

use crate::codec::{self, WireMsg};
use crate::conn::{Endpoint, NetConn};
use ear_errors::{EarError, EarResult};
use ear_trace::metrics::{self, Metric};
use std::time::Duration;

/// Client-side deadline and retry knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Read/write deadline for one request/reply exchange.
    pub request_timeout: Duration,
    /// Retries after the first failed attempt (total attempts =
    /// `retries + 1`).
    pub retries: u32,
    /// Base backoff; attempt `n` sleeps `base * 2^n`, scaled by jitter in
    /// `[0.5, 1.0)`.
    pub backoff_base: Duration,
    /// Jitter seed (deterministic per client).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            seed: 0x5EED_EA2D,
        }
    }
}

/// A client of one daemon endpoint.
pub struct NetClient {
    endpoint: Endpoint,
    cfg: ClientConfig,
    conn: Option<NetConn>,
    rng: u64,
    overhead_nanos: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl NetClient {
    /// Creates a client. The connection is established on first use and
    /// reused across requests.
    pub fn new(endpoint: Endpoint, cfg: ClientConfig) -> Self {
        let rng = cfg.seed | 1;
        NetClient {
            endpoint,
            cfg,
            conn: None,
            rng,
            overhead_nanos: 0,
        }
    }

    /// The endpoint this client dials.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Cumulative time this client has spent outside request/reply
    /// exchanges: connecting, redialing after a dropped connection, and
    /// sleeping retry backoffs. The load generator subtracts this from its
    /// wall clock so throughput measures the service, not the dialing.
    pub fn overhead_nanos(&self) -> u64 {
        self.overhead_nanos
    }

    fn note_overhead(&mut self, since: std::time::Instant) {
        let ns = since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.overhead_nanos = self.overhead_nanos.saturating_add(ns);
    }

    fn ensure_conn(&mut self) -> EarResult<&mut NetConn> {
        if self.conn.is_none() {
            let dialing = std::time::Instant::now();
            let connected = self.endpoint.connect(self.cfg.connect_timeout);
            self.note_overhead(dialing);
            let mut conn = connected?;
            conn.set_io_timeouts(
                Some(self.cfg.request_timeout),
                Some(self.cfg.request_timeout),
            )?;
            self.conn = Some(conn);
        }
        match self.conn.as_mut() {
            Some(c) => Ok(c),
            None => Err(EarError::Protocol("connection vanished".to_string())),
        }
    }

    /// One request/reply exchange, no retries. A [`WireMsg::Error`] reply
    /// and a clean close both surface as typed errors; the connection is
    /// dropped on any failure so the next attempt redials.
    pub fn request(&mut self, msg: &WireMsg) -> EarResult<WireMsg> {
        let attempt = |conn: &mut NetConn| -> EarResult<WireMsg> {
            conn.write_msg(msg)?;
            match conn.read_msg()? {
                Some(WireMsg::Error { message }) => Err(EarError::Protocol(format!(
                    "daemon answered with an error: {message}"
                ))),
                Some(reply) => Ok(reply),
                None => Err(EarError::Protocol(
                    "connection closed before the reply".to_string(),
                )),
            }
        };
        let result = self.ensure_conn().and_then(attempt);
        if let Err(e) = &result {
            if codec::is_deadline_error(e) {
                metrics::add(Metric::NetdTimedOut, 1);
            }
            self.conn = None;
        }
        result
    }

    /// [`NetClient::request`] with up to `retries` additional attempts,
    /// sleeping a jittered exponential backoff between them.
    pub fn request_with_retry(&mut self, msg: &WireMsg) -> EarResult<WireMsg> {
        let mut last;
        let mut attempt = 0u32;
        loop {
            match self.request(msg) {
                Ok(reply) => return Ok(reply),
                Err(e) => last = e,
            }
            if attempt >= self.cfg.retries {
                return Err(last);
            }
            metrics::add(Metric::NetdRetried, 1);
            // Jitter factor in [0.5, 1.0): half the nominal backoff at
            // minimum, never more than nominal.
            let jitter = 0.5 + (xorshift(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
            let nominal = self.cfg.backoff_base.as_secs_f64() * f64::from(1u32 << attempt.min(16));
            let backoff = std::time::Instant::now();
            std::thread::sleep(Duration::from_secs_f64(nominal * jitter));
            self.note_overhead(backoff);
            attempt += 1;
        }
    }

    /// Liveness probe: sends [`WireMsg::Ping`] and checks the echoed token.
    pub fn ping(&mut self, token: u64) -> EarResult<()> {
        match self.request_with_retry(&WireMsg::Ping { token })? {
            WireMsg::Pong { token: echoed } if echoed == token => Ok(()),
            WireMsg::Pong { token: echoed } => Err(EarError::Protocol(format!(
                "pong token mismatch: sent {token}, got {echoed}"
            ))),
            other => Err(EarError::Protocol(format!(
                "expected pong, got '{}'",
                other.kind()
            ))),
        }
    }

    /// Sends the shutdown poison frame; `Ok` once the daemon acknowledges.
    pub fn shutdown(&mut self) -> EarResult<()> {
        match self.request(&WireMsg::Shutdown)? {
            WireMsg::ShutdownAck => Ok(()),
            other => Err(EarError::Protocol(format!(
                "expected shutdown_ack, got '{}'",
                other.kind()
            ))),
        }
    }
}
