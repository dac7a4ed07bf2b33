//! The length-prefixed binary frame codec for the EAR wire protocol.
//!
//! Every frame is a fixed 8-byte header followed by a payload whose layout
//! is fully determined by the header's tag:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xEA 0x5D
//! 2       1     protocol version (currently 1)
//! 3       1     message tag (one per concrete protocol variant)
//! 4       4     payload length, u32 little-endian
//! 8       len   payload, explicit little-endian field encoding
//! ```
//!
//! Integers are little-endian; `f64` fields travel as `f64::to_bits`
//! little-endian, so every value — including NaNs with payload bits —
//! round-trips bit-identically. Payloads are fixed-size per tag (the one
//! variable-length message, [`WireMsg::Error`], carries UTF-8 text bounded
//! by [`MAX_PAYLOAD`]). Decoding is total: malformed bytes produce a typed
//! [`EarError::Protocol`], never a panic, and a frame longer than
//! [`MAX_PAYLOAD`] is rejected from the header alone so a hostile peer
//! cannot make the server allocate unboundedly.
//!
//! ## Per-domain uncore frames (tags 15–18)
//!
//! Multi-die parts carry per-domain uncore data. Rather than widening the
//! legacy layouts (which would change the bytes of every single-domain
//! frame), per-domain variants travel under their own tags: 15
//! (`set_freqs`), 16 (`report_signature`), 17 (`freqs_applied`), 18
//! (`rejected`). A message picks the per-domain tag only when it actually
//! carries domain data, so a single-domain deployment emits byte-identical
//! frames to the pre-domain protocol. Decoding a legacy frame reconstructs
//! the single-domain view (`imc_domains = 1`, domain 0 mirrors the scalar
//! fields) so consumers can treat every decoded value uniformly.

use ear_core::policy::{DomainLimits, NodeFreqs};
use ear_core::protocol::{DaemonReply, EarlRequest, GmCommand, GmReport};
use ear_core::Signature;
use ear_core::MAX_UNCORE_DOMAINS;
use ear_errors::{EarError, EarResult};
use std::io::{Read, Write};

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = [0xEA, 0x5D];

/// Wire protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Hard upper bound on a frame payload. Every fixed-layout message is far
/// smaller; the bound exists so a corrupt or hostile length field cannot
/// drive allocation.
pub const MAX_PAYLOAD: usize = 4096;

/// Header size in bytes (magic + version + tag + length).
pub const HEADER_LEN: usize = 8;

/// Every message that crosses the EARL↔EARD↔EARGM wire. The protocol
/// payloads are the `ear-core` types themselves; the extra control frames
/// (ping, acks, shutdown, error) exist only at the transport layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Liveness / RTT probe; the token is echoed back.
    Ping {
        /// Opaque token echoed in the matching [`WireMsg::Pong`].
        token: u64,
    },
    /// Reply to [`WireMsg::Ping`].
    Pong {
        /// The probed token.
        token: u64,
    },
    /// An EARL request (frequency programming or a signature report).
    Request(EarlRequest),
    /// The daemon's reply to [`EarlRequest::SetFreqs`].
    Reply(DaemonReply),
    /// The daemon's acknowledgement of [`EarlRequest::ReportSignature`];
    /// `count` is the daemon's signature total after recording it.
    SigAck {
        /// Signatures recorded by the daemon so far.
        count: u64,
    },
    /// EARGM asks the daemon for its recent power report.
    PollPower {
        /// The node index the manager believes it is polling.
        node: u64,
    },
    /// The daemon's power report (reply to [`WireMsg::PollPower`]).
    Report(GmReport),
    /// EARGM pushes a powercap command down to the daemon.
    Command(GmCommand),
    /// The daemon's acknowledgement of a [`WireMsg::Command`], echoing the
    /// cap it now enforces.
    CapAck {
        /// The node acknowledging.
        node: u64,
        /// The cap now in force (W).
        cap_w: f64,
    },
    /// A typed error travelling back to the peer (decode failure,
    /// unexpected frame, server saturated).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// The poison frame: asks the server to stop accepting, drain and
    /// exit cleanly.
    Shutdown,
    /// Reply to [`WireMsg::Shutdown`], sent before the server drains.
    ShutdownAck,
}

impl WireMsg {
    /// The header tag of this message. Messages carrying per-domain
    /// uncore data select the per-domain tag (15–18); everything else
    /// keeps its legacy tag so single-domain frames stay byte-identical.
    pub fn tag(&self) -> u8 {
        match self {
            WireMsg::Ping { .. } => 1,
            WireMsg::Pong { .. } => 2,
            WireMsg::Request(EarlRequest::SetFreqs(f)) => {
                if f.imc_dom.is_per_domain() {
                    15
                } else {
                    3
                }
            }
            WireMsg::Request(EarlRequest::ReportSignature(s)) => {
                if s.domain_count() > 1 {
                    16
                } else {
                    4
                }
            }
            WireMsg::Reply(DaemonReply::FreqsApplied {
                requested, granted, ..
            }) => {
                if requested.imc_dom.is_per_domain() || granted.imc_dom.is_per_domain() {
                    17
                } else {
                    5
                }
            }
            WireMsg::Reply(DaemonReply::Rejected { requested }) => {
                if requested.imc_dom.is_per_domain() {
                    18
                } else {
                    6
                }
            }
            WireMsg::SigAck { .. } => 7,
            WireMsg::PollPower { .. } => 8,
            WireMsg::Report(_) => 9,
            WireMsg::Command(_) => 10,
            WireMsg::CapAck { .. } => 11,
            WireMsg::Error { .. } => 12,
            WireMsg::Shutdown => 13,
            WireMsg::ShutdownAck => 14,
        }
    }

    /// Short lowercase name of the message kind (trace/telemetry label).
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Ping { .. } => "ping",
            WireMsg::Pong { .. } => "pong",
            WireMsg::Request(EarlRequest::SetFreqs(_)) => "set_freqs",
            WireMsg::Request(EarlRequest::ReportSignature(_)) => "report_signature",
            WireMsg::Reply(DaemonReply::FreqsApplied { .. }) => "freqs_applied",
            WireMsg::Reply(DaemonReply::Rejected { .. }) => "rejected",
            WireMsg::SigAck { .. } => "sig_ack",
            WireMsg::PollPower { .. } => "poll_power",
            WireMsg::Report(_) => "gm_report",
            WireMsg::Command(_) => "gm_command",
            WireMsg::CapAck { .. } => "cap_ack",
            WireMsg::Error { .. } => "error",
            WireMsg::Shutdown => "shutdown",
            WireMsg::ShutdownAck => "shutdown_ack",
        }
    }
}

fn proto(message: impl Into<String>) -> EarError {
    EarError::Protocol(message.into())
}

// ---------------------------------------------------------------------------
// Field encoders/decoders
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_freqs(out: &mut Vec<u8>, f: &NodeFreqs) -> EarResult<()> {
    let cpu = u32::try_from(f.cpu)
        .map_err(|_| proto(format!("pstate {} does not fit the wire field", f.cpu)))?;
    put_u32(out, cpu);
    out.push(f.imc_min_ratio);
    out.push(f.imc_max_ratio);
    Ok(())
}

fn put_signature(out: &mut Vec<u8>, s: &Signature) {
    put_u32(out, s.iterations);
    for v in [
        s.window_s,
        s.cpi,
        s.tpi,
        s.gbs,
        s.vpi,
        s.dc_power_w,
        s.pkg_power_w,
        s.avg_cpu_khz,
        s.avg_imc_khz,
    ] {
        put_f64(out, v);
    }
}

/// Per-domain freqs layout: the legacy fields, then a domain count and
/// `count` (min, max) ratio pairs.
fn put_freqs_dom(out: &mut Vec<u8>, f: &NodeFreqs) -> EarResult<()> {
    put_freqs(out, f)?;
    let n = f.imc_dom.count();
    #[allow(clippy::cast_possible_truncation)]
    out.push(n as u8);
    for d in 0..n {
        out.push(f.imc_dom.min[d]);
        out.push(f.imc_dom.max[d]);
    }
    Ok(())
}

/// Per-domain signature layout: the legacy fields, then a domain count and
/// `count` (imc_dom_khz, gbs_dom) `f64` pairs.
fn put_signature_dom(out: &mut Vec<u8>, s: &Signature) {
    put_signature(out, s);
    let nd = s.domain_count();
    #[allow(clippy::cast_possible_truncation)]
    out.push(nd as u8);
    for k in 0..nd {
        put_f64(out, s.imc_dom_khz[k]);
        put_f64(out, s.gbs_dom[k]);
    }
}

/// A cursor over a frame payload; every read is bounds-checked and
/// reports a typed error naming the missing field.
struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cursor { b, at: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> EarResult<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.b.len());
        match end {
            Some(end) => {
                let s = &self.b[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(proto(format!("payload truncated reading {what}"))),
        }
    }

    fn u8(&mut self, what: &str) -> EarResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> EarResult<u32> {
        let s = self.take(4, what)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &str) -> EarResult<u64> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, what: &str) -> EarResult<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn freqs(&mut self, what: &str) -> EarResult<NodeFreqs> {
        Ok(NodeFreqs {
            cpu: self.u32(what)? as usize,
            imc_min_ratio: self.u8(what)?,
            imc_max_ratio: self.u8(what)?,
            imc_dom: DomainLimits::LEGACY,
        })
    }

    fn freqs_dom(&mut self, what: &str) -> EarResult<NodeFreqs> {
        let mut f = self.freqs(what)?;
        let n = usize::from(self.u8(what)?);
        if n > MAX_UNCORE_DOMAINS {
            return Err(proto(format!(
                "{what}: {n} uncore domains exceeds the {MAX_UNCORE_DOMAINS}-domain limit"
            )));
        }
        #[allow(clippy::cast_possible_truncation)]
        let mut dom = DomainLimits {
            count: n as u8,
            ..DomainLimits::LEGACY
        };
        for d in 0..n {
            dom.min[d] = self.u8(what)?;
            dom.max[d] = self.u8(what)?;
        }
        f.imc_dom = dom;
        Ok(f)
    }

    /// The legacy signature fields; per-domain fields left all-zero.
    fn signature_base(&mut self) -> EarResult<Signature> {
        let iterations = self.u32("signature.iterations")?;
        Ok(Signature {
            iterations,
            window_s: self.f64("signature.window_s")?,
            cpi: self.f64("signature.cpi")?,
            tpi: self.f64("signature.tpi")?,
            gbs: self.f64("signature.gbs")?,
            vpi: self.f64("signature.vpi")?,
            dc_power_w: self.f64("signature.dc_power_w")?,
            pkg_power_w: self.f64("signature.pkg_power_w")?,
            avg_cpu_khz: self.f64("signature.avg_cpu_khz")?,
            avg_imc_khz: self.f64("signature.avg_imc_khz")?,
            ..Signature::default()
        })
    }

    /// A legacy (tag 4) signature: reconstructs the single-domain view so
    /// decoded values always carry consistent per-domain fields.
    fn signature(&mut self) -> EarResult<Signature> {
        let mut s = self.signature_base()?;
        s.imc_domains = 1;
        s.imc_dom_khz[0] = s.avg_imc_khz;
        s.gbs_dom[0] = s.gbs;
        Ok(s)
    }

    /// A per-domain (tag 16) signature.
    fn signature_dom(&mut self) -> EarResult<Signature> {
        let mut s = self.signature_base()?;
        let nd = usize::from(self.u8("signature.imc_domains")?);
        if nd == 0 || nd > MAX_UNCORE_DOMAINS {
            return Err(proto(format!(
                "signature.imc_domains must be 1..={MAX_UNCORE_DOMAINS}, got {nd}"
            )));
        }
        for k in 0..nd {
            s.imc_dom_khz[k] = self.f64("signature.imc_dom_khz")?;
            s.gbs_dom[k] = self.f64("signature.gbs_dom")?;
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            s.imc_domains = nd as u8;
        }
        Ok(s)
    }

    fn done(&self, tag: u8) -> EarResult<()> {
        if self.at == self.b.len() {
            Ok(())
        } else {
            Err(proto(format!(
                "tag {tag}: {} trailing payload bytes",
                self.b.len() - self.at
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

/// Encodes `msg` as one complete frame appended to `out` (header +
/// payload, no intermediate allocation). The payload is written straight
/// after a reserved header whose length field is patched afterwards, so
/// batching multiple frames into one flush buffer costs no copies beyond
/// the field encoding itself. On error `out` is restored to its previous
/// length.
pub fn encode_frame_into(out: &mut Vec<u8>, msg: &WireMsg) -> EarResult<()> {
    let frame_start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(msg.tag());
    put_u32(out, 0); // length, patched below
    let payload_start = out.len();
    let body = (|| -> EarResult<()> {
        match msg {
            WireMsg::Ping { token } | WireMsg::Pong { token } => put_u64(out, *token),
            WireMsg::Request(EarlRequest::SetFreqs(f)) => {
                if f.imc_dom.is_per_domain() {
                    put_freqs_dom(out, f)?;
                } else {
                    put_freqs(out, f)?;
                }
            }
            WireMsg::Request(EarlRequest::ReportSignature(s)) => {
                if s.domain_count() > 1 {
                    put_signature_dom(out, s);
                } else {
                    put_signature(out, s);
                }
            }
            WireMsg::Reply(DaemonReply::FreqsApplied {
                requested,
                granted,
                clamped,
            }) => {
                if requested.imc_dom.is_per_domain() || granted.imc_dom.is_per_domain() {
                    put_freqs_dom(out, requested)?;
                    put_freqs_dom(out, granted)?;
                } else {
                    put_freqs(out, requested)?;
                    put_freqs(out, granted)?;
                }
                out.push(u8::from(*clamped));
            }
            WireMsg::Reply(DaemonReply::Rejected { requested }) => {
                if requested.imc_dom.is_per_domain() {
                    put_freqs_dom(out, requested)?;
                } else {
                    put_freqs(out, requested)?;
                }
            }
            WireMsg::SigAck { count } => put_u64(out, *count),
            WireMsg::PollPower { node } => put_u64(out, *node),
            WireMsg::Report(r) => {
                put_u64(out, r.node as u64);
                put_f64(out, r.avg_power_w);
            }
            WireMsg::Command(c) => {
                put_u64(out, c.node as u64);
                put_f64(out, c.cap_w);
            }
            WireMsg::CapAck { node, cap_w } => {
                put_u64(out, *node);
                put_f64(out, *cap_w);
            }
            WireMsg::Error { message } => out.extend_from_slice(message.as_bytes()),
            WireMsg::Shutdown | WireMsg::ShutdownAck => {}
        }
        let len = out.len() - payload_start;
        if len > MAX_PAYLOAD {
            return Err(proto(format!(
                "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame limit"
            )));
        }
        #[allow(clippy::cast_possible_truncation)]
        out[payload_start - 4..payload_start].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    })();
    if body.is_err() {
        out.truncate(frame_start);
    }
    body
}

/// Encodes `msg` as one complete frame (header + payload).
pub fn encode_frame(msg: &WireMsg) -> EarResult<Vec<u8>> {
    let mut frame = Vec::with_capacity(HEADER_LEN + 96);
    encode_frame_into(&mut frame, msg)?;
    Ok(frame)
}

/// Validates a frame header and returns `(tag, payload_len)`.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> EarResult<(u8, usize)> {
    if header[0..2] != MAGIC {
        return Err(proto(format!(
            "bad frame magic {:02x}{:02x}",
            header[0], header[1]
        )));
    }
    if header[2] != VERSION {
        return Err(proto(format!(
            "unsupported protocol version {} (expected {VERSION})",
            header[2]
        )));
    }
    let tag = header[3];
    let mut lb = [0u8; 4];
    lb.copy_from_slice(&header[4..8]);
    let len = u32::from_le_bytes(lb) as usize;
    if len > MAX_PAYLOAD {
        return Err(proto(format!(
            "frame length {len} exceeds the {MAX_PAYLOAD}-byte limit"
        )));
    }
    Ok((tag, len))
}

/// Decodes one payload given its header tag.
pub fn decode_payload(tag: u8, payload: &[u8]) -> EarResult<WireMsg> {
    let mut c = Cursor::new(payload);
    let msg = match tag {
        1 => WireMsg::Ping {
            token: c.u64("ping.token")?,
        },
        2 => WireMsg::Pong {
            token: c.u64("pong.token")?,
        },
        3 => WireMsg::Request(EarlRequest::SetFreqs(c.freqs("set_freqs")?)),
        4 => WireMsg::Request(EarlRequest::ReportSignature(c.signature()?)),
        5 => {
            let requested = c.freqs("freqs_applied.requested")?;
            let granted = c.freqs("freqs_applied.granted")?;
            let clamped = match c.u8("freqs_applied.clamped")? {
                0 => false,
                1 => true,
                other => return Err(proto(format!("clamped flag must be 0/1, got {other}"))),
            };
            WireMsg::Reply(DaemonReply::FreqsApplied {
                requested,
                granted,
                clamped,
            })
        }
        6 => WireMsg::Reply(DaemonReply::Rejected {
            requested: c.freqs("rejected.requested")?,
        }),
        7 => WireMsg::SigAck {
            count: c.u64("sig_ack.count")?,
        },
        8 => WireMsg::PollPower {
            node: c.u64("poll_power.node")?,
        },
        9 => WireMsg::Report(GmReport {
            node: c.u64("gm_report.node")? as usize,
            avg_power_w: c.f64("gm_report.avg_power_w")?,
        }),
        10 => WireMsg::Command(GmCommand {
            node: c.u64("gm_command.node")? as usize,
            cap_w: c.f64("gm_command.cap_w")?,
        }),
        11 => WireMsg::CapAck {
            node: c.u64("cap_ack.node")?,
            cap_w: c.f64("cap_ack.cap_w")?,
        },
        12 => {
            let bytes = c.take(payload.len(), "error.message")?;
            WireMsg::Error {
                message: std::str::from_utf8(bytes)
                    .map_err(|e| proto(format!("error message is not UTF-8: {e}")))?
                    .to_string(),
            }
        }
        13 => WireMsg::Shutdown,
        14 => WireMsg::ShutdownAck,
        15 => WireMsg::Request(EarlRequest::SetFreqs(c.freqs_dom("set_freqs_dom")?)),
        16 => WireMsg::Request(EarlRequest::ReportSignature(c.signature_dom()?)),
        17 => {
            let requested = c.freqs_dom("freqs_applied_dom.requested")?;
            let granted = c.freqs_dom("freqs_applied_dom.granted")?;
            let clamped = match c.u8("freqs_applied_dom.clamped")? {
                0 => false,
                1 => true,
                other => return Err(proto(format!("clamped flag must be 0/1, got {other}"))),
            };
            WireMsg::Reply(DaemonReply::FreqsApplied {
                requested,
                granted,
                clamped,
            })
        }
        18 => WireMsg::Reply(DaemonReply::Rejected {
            requested: c.freqs_dom("rejected_dom.requested")?,
        }),
        other => return Err(proto(format!("unknown frame tag {other}"))),
    };
    c.done(tag)?;
    Ok(msg)
}

/// Decodes one complete frame from `bytes`, returning the message and how
/// many bytes it consumed.
pub fn decode_frame(bytes: &[u8]) -> EarResult<(WireMsg, usize)> {
    if bytes.len() < HEADER_LEN {
        return Err(proto(format!(
            "truncated frame: {} of {HEADER_LEN} header bytes",
            bytes.len()
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (tag, len) = decode_header(&header)?;
    let end = HEADER_LEN + len;
    if bytes.len() < end {
        return Err(proto(format!(
            "truncated frame: {} of {end} bytes",
            bytes.len()
        )));
    }
    Ok((decode_payload(tag, &bytes[HEADER_LEN..end])?, end))
}

// ---------------------------------------------------------------------------
// Stream IO
// ---------------------------------------------------------------------------

/// Maps an I/O failure on the frame stream to the unified error type,
/// preserving whether it was a deadline expiry.
pub fn io_to_ear(context: &str, e: &std::io::Error) -> EarError {
    if is_timeout(e) {
        proto(format!("{context}: deadline exceeded"))
    } else {
        EarError::Io {
            path: context.to_string(),
            message: e.to_string(),
        }
    }
}

/// Whether a unified error is a deadline expiry produced by [`io_to_ear`]
/// (drives the `timed_out` telemetry counter).
pub fn is_deadline_error(e: &EarError) -> bool {
    matches!(e, EarError::Protocol(m) if m.ends_with("deadline exceeded"))
}

/// Whether an I/O error is a read/write deadline expiry (or, on a
/// nonblocking socket, "nothing to do yet"). Both kinds appear in
/// practice: `WouldBlock` from sockets with SO_RCVTIMEO on Linux and from
/// nonblocking sockets, `TimedOut` on other platforms.
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Writes one frame to `w` and flushes.
pub fn write_frame<W: Write>(w: &mut W, msg: &WireMsg) -> EarResult<()> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| io_to_ear("write frame", &e))
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the stream was
/// already closed (zero bytes read) — a clean end between frames.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> EarResult<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(proto(format!(
                    "connection closed mid-frame after {got} bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_to_ear("read frame", &e)),
        }
    }
    Ok(true)
}

/// Reads one frame from `r`. `Ok(None)` is a clean close at a frame
/// boundary; every malformed, truncated or oversized frame is a typed
/// error.
pub fn read_frame<R: Read>(r: &mut R) -> EarResult<Option<WireMsg>> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let (tag, len) = decode_header(&header)?;
    let mut payload = vec![0u8; len];
    if len > 0 && !read_exact_or_eof(r, &mut payload)? {
        return Err(proto("connection closed before the frame payload"));
    }
    Ok(Some(decode_payload(tag, &payload)?))
}

// ---------------------------------------------------------------------------
// Zero-copy incremental decoding
// ---------------------------------------------------------------------------

/// How many bytes [`FrameBuffer::fill_from`] asks the transport for at a
/// time. One read drains a typical socket buffer's worth of coalesced
/// frames.
pub const READ_CHUNK: usize = 16 * 1024;

/// A connection's receive buffer plus an incremental, zero-copy frame
/// decoder over it.
///
/// Bytes arrive in arbitrary splits — one byte at a time, header/payload
/// straddles, many frames coalesced into one read — and accumulate in one
/// contiguous buffer. [`FrameBuffer::next_frame`] decodes the next complete
/// frame *in place* (the payload cursor walks the buffer directly; no
/// intermediate per-frame `Vec` as the blocking [`read_frame`] path
/// allocates) and returns `Ok(None)` while the frame is still incomplete.
/// Consumed bytes are reclaimed by shifting only when the dead prefix has
/// grown past half the buffer, so steady-state costs are amortised O(1)
/// per byte.
///
/// The window `buf[start..end]` holds the undecoded bytes; `buf` beyond
/// `end` is initialised spare capacity, so refills never re-zero memory.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Undecoded bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer holds a partial frame (drives the mid-frame vs
    /// clean-close distinction when the peer hangs up).
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Reclaims consumed prefix space. Cheap bookkeeping when fully
    /// drained; a single `copy_within` shift otherwise, done only once the
    /// dead prefix dominates.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > self.buf.len() / 2 && self.start >= READ_CHUNK {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Appends raw bytes (the in-process delivery path: tests feeding
    /// adversarial splits, the cluster simulator's wire).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.compact();
        if self.end + bytes.len() > self.buf.len() {
            self.buf.resize(self.end + bytes.len(), 0);
        }
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from the transport into spare capacity. Returns the byte
    /// count (0 is EOF); `WouldBlock`/`TimedOut` surface as `Err` for the
    /// caller to classify via [`is_timeout`].
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.compact();
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Decodes the next complete frame straight from the buffer.
    /// `Ok(None)`: more bytes needed. `Err`: the stream is corrupt at the
    /// current position (the caller must drop the connection; resync is
    /// impossible on a length-prefixed stream).
    pub fn next_frame(&mut self) -> EarResult<Option<WireMsg>> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&avail[..HEADER_LEN]);
        let (tag, len) = decode_header(&header)?;
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let msg = decode_payload(tag, &avail[HEADER_LEN..HEADER_LEN + len])?;
        self.start += HEADER_LEN + len;
        self.compact();
        Ok(Some(msg))
    }
}
