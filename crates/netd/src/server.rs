//! The EARD service loop: a deterministic request state machine behind a
//! bounded, deadline-guarded connection server.
//!
//! [`EardService`] is the pure part — one wire message in, one wire message
//! out, no clocks and no I/O — so the same request stream produces
//! byte-identical replies whether it arrives over a Unix socket or TCP.
//! The readiness-loop server ([`run_async`]) wraps it: one thread,
//! `poll(2)`-driven, per-connection state machines with zero-copy frame
//! decode and batched reply flushes. It accepts connections on a
//! [`NetListener`], answers [`WireMsg::Error`] and closes when saturated,
//! collects connections idle past their read deadline, and exits cleanly on the
//! [`WireMsg::Shutdown`] poison frame or an optional wall-clock budget. A
//! client dying mid-frame degrades to a typed, counted, traced error on
//! that one connection — never a server crash.

use crate::codec::{self, FrameBuffer, WireMsg};
use crate::conn::{NetConn, NetListener};
use crate::readiness::{self, PollFd, POLLIN, POLLOUT};
use ear_core::policy::NodeFreqs;
use ear_core::protocol::{DaemonReply, EarlRequest, GmReport};
use ear_errors::EarResult;
use ear_trace::metrics::{self, Metric};
use ear_trace::{self as trace, TraceEvent, TraceRecord};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Daemon behaviour knobs (the deterministic part).
#[derive(Debug, Clone)]
pub struct EardConfig {
    /// Node index stamped on reports and trace records.
    pub node: u64,
    /// Administrative frequency ceiling `SetFreqs` requests are clamped
    /// against (`None`: requests are granted verbatim, as
    /// `EarDaemon::new` does).
    pub ceiling: Option<NodeFreqs>,
    /// Power reported to EARGM before any signature has arrived (W).
    pub idle_power_w: f64,
}

impl Default for EardConfig {
    fn default() -> Self {
        EardConfig {
            node: 0,
            ceiling: None,
            idle_power_w: 120.0,
        }
    }
}

/// The deterministic request→reply state machine of one networked daemon.
///
/// Mirrors the clamp semantics of `ear_core::eard::EarDaemon::service`: a
/// faster CPU pstate is a *smaller* index, so the granted pstate is
/// `max(requested, ceiling)` and both IMC ratios are bounded by the
/// ceiling's `imc_max_ratio`.
#[derive(Debug)]
pub struct EardService {
    cfg: EardConfig,
    programmed: Option<NodeFreqs>,
    signatures: u64,
    last_sig_power_w: Option<f64>,
    cap_w: Option<f64>,
}

impl EardService {
    /// Creates a service with the given behaviour.
    pub fn new(cfg: EardConfig) -> Self {
        EardService {
            cfg,
            programmed: None,
            signatures: 0,
            last_sig_power_w: None,
            cap_w: None,
        }
    }

    /// The frequencies last granted (what the MSRs would hold).
    pub fn programmed(&self) -> Option<NodeFreqs> {
        self.programmed
    }

    /// Signatures recorded so far.
    pub fn signatures(&self) -> u64 {
        self.signatures
    }

    /// The cap last pushed by EARGM (W).
    pub fn cap_w(&self) -> Option<f64> {
        self.cap_w
    }

    /// The power this daemon reports when polled (W): the last signature's
    /// DC power, or the configured idle power before any signature.
    pub fn reported_power_w(&self) -> f64 {
        self.last_sig_power_w.unwrap_or(self.cfg.idle_power_w)
    }

    /// Services one request. Returns the reply frame and whether the
    /// request was the shutdown poison frame.
    pub fn respond(&mut self, msg: &WireMsg) -> (WireMsg, bool) {
        match msg {
            WireMsg::Ping { token } => (WireMsg::Pong { token: *token }, false),
            WireMsg::Request(EarlRequest::SetFreqs(requested)) => {
                let granted = match self.cfg.ceiling {
                    Some(ceiling) => requested.clamped_under(&ceiling),
                    None => *requested,
                };
                self.programmed = Some(granted);
                (
                    WireMsg::Reply(DaemonReply::FreqsApplied {
                        requested: *requested,
                        granted,
                        clamped: granted != *requested,
                    }),
                    false,
                )
            }
            WireMsg::Request(EarlRequest::ReportSignature(sig)) => {
                self.signatures += 1;
                self.last_sig_power_w = Some(sig.dc_power_w);
                (
                    WireMsg::SigAck {
                        count: self.signatures,
                    },
                    false,
                )
            }
            WireMsg::PollPower { .. } => (
                WireMsg::Report(GmReport {
                    node: self.cfg.node as usize,
                    avg_power_w: self.reported_power_w(),
                }),
                false,
            ),
            WireMsg::Command(cmd) => {
                self.cap_w = Some(cmd.cap_w);
                (
                    WireMsg::CapAck {
                        node: cmd.node as u64,
                        cap_w: cmd.cap_w,
                    },
                    false,
                )
            }
            WireMsg::Shutdown => (WireMsg::ShutdownAck, true),
            other => (
                WireMsg::Error {
                    message: format!("unexpected frame '{}' at the daemon", other.kind()),
                },
                false,
            ),
        }
    }
}

/// Server transport knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Daemon behaviour.
    pub eard: EardConfig,
    /// Maximum concurrent connections; further connects are answered with
    /// an error frame and closed.
    pub workers: usize,
    /// Per-connection read deadline (idle connections are collected).
    pub read_timeout: Duration,
    /// How long the poison-frame drain waits for queued replies (the
    /// acknowledgement included) to flush before the server exits.
    pub write_timeout: Duration,
    /// Optional wall-clock budget; the server drains and exits when it
    /// elapses (so an orphaned `earsim serve` cannot run forever in CI).
    pub max_seconds: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            eard: EardConfig::default(),
            workers: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_seconds: None,
        }
    }
}

/// What a server run did, reported after it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections rejected for saturation.
    pub rejected: u64,
    /// Requests serviced.
    pub requests: u64,
    /// Connections that ended in a protocol/decode error.
    pub conn_errors: u64,
    /// Whether exit was triggered by the shutdown poison frame (as
    /// opposed to the wall-clock budget).
    pub shutdown_requested: bool,
}

fn emit_conn(node: u64, action: &str) {
    trace::emit_with(|| TraceRecord {
        time_s: 0.0,
        node,
        event: TraceEvent::NetConn {
            action: action.to_string(),
        },
    });
}

/// A server running on a background thread.
pub struct ServerHandle {
    thread: std::thread::JoinHandle<EarResult<ServerReport>>,
}

impl ServerHandle {
    /// Waits for the server to exit and returns its report.
    pub fn join(self) -> EarResult<ServerReport> {
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(ear_errors::EarError::Protocol(
                "server thread panicked".to_string(),
            )),
        }
    }
}

/// One connection owned by the readiness loop: its transport, the incoming
/// byte window frames are decoded from in place, and the outgoing byte
/// queue replies are coalesced into.
struct AsyncConn {
    io: NetConn,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    written: usize,
    frames_queued: u64,
    last_activity: Instant,
    /// Peer sent EOF; serve what is buffered, flush, then drop.
    eof: bool,
    /// The EOF has been classified (clean close vs mid-frame kill).
    eof_classified: bool,
    /// Stop reading; drop once `out` drains (error/shutdown path).
    closing: bool,
    /// Remove from the table at the end of this iteration.
    dead: bool,
}

impl AsyncConn {
    fn new(io: NetConn) -> Self {
        AsyncConn {
            io,
            inbuf: FrameBuffer::new(),
            out: Vec::new(),
            written: 0,
            frames_queued: 0,
            last_activity: Instant::now(),
            eof: false,
            eof_classified: false,
            closing: false,
            dead: false,
        }
    }

    fn pending(&self) -> bool {
        self.written < self.out.len()
    }
}

/// The longest the loop sleeps in `poll(2)` with nothing ready, which
/// bounds how late the wall-clock budget and idle deadlines are noticed.
const IDLE_TICK: Duration = Duration::from_millis(25);

/// Runs the nonblocking readiness-loop server until the shutdown poison
/// frame arrives (or the wall-clock budget elapses).
///
/// One thread owns the listener, every connection and the (un-mutexed)
/// [`EardService`]; `poll(2)` (via [`crate::readiness`]) reports which
/// descriptors are ready, partial reads accumulate in each connection's
/// [`FrameBuffer`] (frames decode zero-copy from that window), and every
/// reply produced in one iteration is coalesced into a single `write` per
/// connection — the `netd.batched_flushes` telemetry counter counts the writes
/// that carried more than one frame. Every wait is a kernel wait: each
/// listener and connection has a descriptor, so the loop sleeps in
/// `poll(2)` until one is ready or a 25 ms idle tick lapses.
pub fn run_async(listener: NetListener, cfg: ServerConfig) -> EarResult<ServerReport> {
    let node = cfg.eard.node;
    let mut service = EardService::new(cfg.eard.clone());
    let mut report = ServerReport::default();
    let mut conns: Vec<AsyncConn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let started = Instant::now();
    let mut shutdown_at: Option<Instant> = None;
    loop {
        if let Some(budget) = cfg.max_seconds {
            if started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        if let Some(at) = shutdown_at {
            // Poison frame seen: exit once every queued reply (the ack
            // included) has flushed, or the grace period lapses.
            if conns.iter().all(|c| !c.pending()) || at.elapsed() >= cfg.write_timeout {
                report.shutdown_requested = true;
                break;
            }
        }

        // Interest registration: rebuilt every iteration because write
        // interest flips with buffered output. Index 0 is the listener;
        // connection `i` lives at `1 + i` (a slot with no interest is
        // ignored by the kernel but keeps the indices aligned).
        fds.clear();
        fds.push(if shutdown_at.is_none() {
            PollFd::new(listener.raw_fd(), POLLIN)
        } else {
            PollFd::ignored()
        });
        for c in &conns {
            let mut interest = 0i16;
            if !c.closing && !c.eof {
                interest |= POLLIN;
            }
            if c.pending() {
                interest |= POLLOUT;
            }
            fds.push(if interest != 0 {
                PollFd::new(c.io.raw_fd(), interest)
            } else {
                PollFd::ignored()
            });
        }
        readiness::poll_fds(&mut fds, Some(IDLE_TICK)).map_err(|e| codec::io_to_ear("poll", &e))?;

        // Accept burst: drain the backlog, rejecting beyond the table cap
        // with a "server saturated" error frame.
        if shutdown_at.is_none() {
            while let Some(mut conn) = listener.accept_nonblocking()? {
                if conns.len() >= cfg.workers {
                    report.rejected += 1;
                    metrics::add(Metric::NetdRejected, 1);
                    emit_conn(node, "rejected");
                    let mut frame = Vec::new();
                    let _ = codec::encode_frame_into(
                        &mut frame,
                        &WireMsg::Error {
                            message: "server saturated".to_string(),
                        },
                    );
                    // Best-effort: a fresh socket buffer takes one small
                    // frame without blocking; if not, the close itself
                    // tells the peer.
                    let _ = conn.write(&frame);
                    continue;
                }
                report.accepted += 1;
                metrics::add(Metric::NetdAccepted, 1);
                emit_conn(node, "accepted");
                conns.push(AsyncConn::new(conn));
            }
        }

        for (i, c) in conns.iter_mut().enumerate() {
            let slot = fds.get(1 + i).copied();

            // Read: one fill per readiness report (level-triggered poll
            // re-reports leftover bytes next iteration). A connection
            // accepted this iteration has no slot yet and is read next time.
            if !c.closing && !c.eof && slot.is_some_and(|s| s.readable()) {
                match c.inbuf.fill_from(&mut c.io) {
                    Ok(0) => c.eof = true,
                    Ok(_) => c.last_activity = Instant::now(),
                    Err(e) if codec::is_timeout(&e) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        report.conn_errors += 1;
                        emit_conn(node, "error");
                        c.dead = true;
                    }
                }
            }

            // Decode + respond: frames decode zero-copy from the buffer
            // window; every reply is appended to the connection's output
            // queue (one write flushes them all below).
            if !c.dead && !c.closing {
                loop {
                    match c.inbuf.next_frame() {
                        Ok(None) => break,
                        Ok(Some(msg)) => {
                            let (reply, is_shutdown) = service.respond(&msg);
                            let ok = !matches!(reply, WireMsg::Error { .. });
                            report.requests += 1;
                            metrics::add(Metric::NetdRequests, 1);
                            let req = msg.kind();
                            trace::emit_with(|| TraceRecord {
                                time_s: 0.0,
                                node,
                                event: TraceEvent::NetRequest {
                                    req: req.to_string(),
                                    ok,
                                },
                            });
                            let _ = codec::encode_frame_into(&mut c.out, &reply);
                            c.frames_queued += 1;
                            if is_shutdown {
                                shutdown_at.get_or_insert_with(Instant::now);
                                c.closing = true;
                                break;
                            }
                        }
                        Err(e) => {
                            // Malformed frame: count it, best-effort tell
                            // the peer, stop reading this connection.
                            report.conn_errors += 1;
                            metrics::add(Metric::NetdDecodeErrors, 1);
                            emit_conn(node, "error");
                            let _ = codec::encode_frame_into(
                                &mut c.out,
                                &WireMsg::Error {
                                    message: e.to_string(),
                                },
                            );
                            c.closing = true;
                            break;
                        }
                    }
                }
            }

            // EOF classification, after draining every complete frame:
            // leftover bytes mean the peer died mid-frame — exactly one
            // typed, counted error. A clean close just ends the connection.
            if !c.dead && c.eof && !c.eof_classified {
                c.eof_classified = true;
                if c.inbuf.mid_frame() && !c.closing {
                    report.conn_errors += 1;
                    metrics::add(Metric::NetdDecodeErrors, 1);
                    emit_conn(node, "error");
                    c.dead = true;
                } else {
                    emit_conn(node, "closed");
                }
            }

            // Flush: one write drains every reply queued this iteration.
            if !c.dead && c.pending() {
                loop {
                    match c.io.write(&c.out[c.written..]) {
                        Ok(0) => {
                            report.conn_errors += 1;
                            emit_conn(node, "error");
                            c.dead = true;
                            break;
                        }
                        Ok(n) => {
                            c.written += n;
                            if !c.pending() {
                                break;
                            }
                        }
                        Err(e) if codec::is_timeout(&e) => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            report.conn_errors += 1;
                            emit_conn(node, "error");
                            c.dead = true;
                            break;
                        }
                    }
                }
                if !c.dead && !c.pending() {
                    if c.frames_queued > 1 {
                        metrics::add(Metric::NetdBatchedFlushes, 1);
                    }
                    c.frames_queued = 0;
                    c.out.clear();
                    c.written = 0;
                    c.last_activity = Instant::now();
                }
            }

            // A drained EOF/closing connection is done; an idle one past
            // its read deadline is collected (client redials on demand).
            if !c.dead && (c.eof || c.closing) && !c.pending() {
                c.dead = true;
            }
            if !c.dead
                && !c.eof
                && !c.closing
                && !c.pending()
                && c.last_activity.elapsed() >= cfg.read_timeout
            {
                metrics::add(Metric::NetdTimedOut, 1);
                emit_conn(node, "idle");
                c.dead = true;
            }
        }
        conns.retain(|c| !c.dead);
    }
    Ok(report)
}

/// Starts [`run_async`] on a background thread (tests, benches,
/// `earsim jobstream --uds`).
pub fn spawn_async(listener: NetListener, cfg: ServerConfig) -> ServerHandle {
    ServerHandle {
        thread: std::thread::spawn(move || run_async(listener, cfg)),
    }
}
