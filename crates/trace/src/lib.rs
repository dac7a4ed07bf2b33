//! Structured trace bus for the EAR stack.
//!
//! The bus records typed events — EARL state-machine transitions, policy
//! decisions, IMC search steps, daemon clamps, powercap verdicts, EARGM
//! steps — into a fixed-capacity global ring buffer and renders them as
//! JSONL (one object per line, flat primitive fields).
//!
//! # Cost model
//!
//! Tracing is off by default. The only per-call cost while disabled is one
//! relaxed atomic load in [`emit_with`]; the closure that builds the record
//! (and any allocation inside it) never runs. Emission sites sit on the
//! *signature* cadence of the runtime (every few simulated seconds), never
//! on the per-MPI-event DynAIS path, so the O(1) hot path is untouched
//! either way.
//!
//! When enabled, events go into a ring of [`CAPACITY`] records; once full,
//! the oldest record is dropped and [`dropped`] counts the loss — tracing
//! never blocks or grows without bound.
//!
//! The crate also holds the telemetry registry ([`metrics`]): one table of
//! the process-wide counters behind the `earsim-telemetry` line, with its
//! renderer and validator. [`json`] is the JSON reader that the trace
//! parser and the telemetry validator share.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use ear_errors::EarError;

pub mod json;
pub mod metrics;

use json::Json;

/// Ring capacity in records. A full `earsim all` with tracing on emits a few
/// hundred thousand events; per-run traces fit comfortably.
pub const CAPACITY: usize = 1 << 16;

/// One timestamped event on the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time in seconds at emission.
    pub time_s: f64,
    /// Node index the event belongs to (0 for single-node runs).
    pub node: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// Typed trace events. Payloads are primitives and `String`s so records can
/// be rendered to JSONL and parsed back without external dependencies.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// EARL attached to a job.
    JobStart {
        /// Workload name.
        job: String,
    },
    /// EARL detached; `signatures` is the number of computed signatures.
    JobEnd {
        /// Signatures computed over the job.
        signatures: u64,
    },
    /// The EARL state machine moved between states.
    StateTransition {
        /// State before the signature was evaluated.
        from: String,
        /// State after.
        to: String,
    },
    /// A policy evaluated a signature and chose node frequencies.
    PolicyDecision {
        /// Policy name.
        policy: String,
        /// Selected CPU pstate index.
        cpu: u64,
        /// Selected uncore minimum ratio.
        imc_min: u64,
        /// Selected uncore maximum ratio.
        imc_max: u64,
        /// Whether the policy settled (`Ready`) or keeps searching.
        ready: bool,
    },
    /// One step of a policy's IMC (uncore) frequency search.
    ImcSearchStep {
        /// The uncore max ratio the search moved to.
        max_ratio: u64,
    },
    /// EARL asked the daemon to program frequencies.
    FreqRequest {
        /// Requested CPU pstate index.
        cpu: u64,
        /// Requested uncore minimum ratio.
        imc_min: u64,
        /// Requested uncore maximum ratio.
        imc_max: u64,
    },
    /// The daemon serviced a request (possibly clamped against its ceiling).
    FreqGrant {
        /// Granted CPU pstate index.
        cpu: u64,
        /// Granted uncore minimum ratio.
        imc_min: u64,
        /// Granted uncore maximum ratio.
        imc_max: u64,
        /// True when the grant differs from the request.
        clamped: bool,
    },
    /// The daemon overrode already-programmed frequencies (periodic
    /// powercap enforcement, no EARL request involved).
    DaemonClamp {
        /// CPU pstate after the clamp.
        cpu: u64,
        /// Uncore minimum ratio after the clamp.
        imc_min: u64,
        /// Uncore maximum ratio after the clamp.
        imc_max: u64,
    },
    /// A powercap controller evaluated a window of power samples.
    PowercapVerdict {
        /// Average node power over the window in watts.
        power_w: f64,
        /// The controller action (`ok`, `throttled`, `relaxed`).
        action: String,
    },
    /// A connection-lifecycle event on the networked daemon server.
    NetConn {
        /// What happened (`accepted`, `rejected`, `closed`, `error`).
        action: String,
    },
    /// The networked daemon serviced (or failed to service) one request.
    NetRequest {
        /// The wire message kind (rendered as `req` in JSONL; `kind` names
        /// the event itself there).
        req: String,
        /// Whether servicing produced a normal reply.
        ok: bool,
    },
}

impl TraceEvent {
    /// The `kind` tag used in the JSONL rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobEnd { .. } => "job_end",
            TraceEvent::StateTransition { .. } => "state",
            TraceEvent::PolicyDecision { .. } => "policy_decision",
            TraceEvent::ImcSearchStep { .. } => "imc_search_step",
            TraceEvent::FreqRequest { .. } => "freq_request",
            TraceEvent::FreqGrant { .. } => "freq_grant",
            TraceEvent::DaemonClamp { .. } => "daemon_clamp",
            TraceEvent::PowercapVerdict { .. } => "powercap",
            TraceEvent::NetConn { .. } => "net_conn",
            TraceEvent::NetRequest { .. } => "net_request",
        }
    }
}

struct Bus {
    ring: VecDeque<TraceRecord>,
    dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static BUS: OnceLock<Mutex<Bus>> = OnceLock::new();

fn bus() -> MutexGuard<'static, Bus> {
    BUS.get_or_init(|| {
        Mutex::new(Bus {
            ring: VecDeque::with_capacity(CAPACITY),
            dropped: 0,
        })
    })
    .lock()
    .unwrap_or_else(|poison| poison.into_inner())
}

/// Whether the bus currently records events.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off. Off is the default; turning it off does not
/// discard already-recorded events.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Record the event built by `f` — if tracing is enabled. When disabled the
/// closure never runs, so emission sites pay one relaxed load and nothing
/// else.
#[inline]
pub fn emit_with<F: FnOnce() -> TraceRecord>(f: F) {
    if !enabled() {
        return;
    }
    let record = f();
    let mut bus = bus();
    if bus.ring.len() == CAPACITY {
        bus.ring.pop_front();
        bus.dropped += 1;
    }
    bus.ring.push_back(record);
}

/// Remove and return every recorded event, oldest first.
pub fn drain() -> Vec<TraceRecord> {
    bus().ring.drain(..).collect()
}

/// Number of records lost to ring overflow since the last [`reset`].
pub fn dropped() -> u64 {
    bus().dropped
}

/// Clear the ring and the dropped counter (recording state is untouched).
pub fn reset() {
    let mut bus = bus();
    bus.ring.clear();
    bus.dropped = 0;
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest round-trip Display for finite f64 is valid JSON.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Render one record as a single JSON object (no trailing newline).
pub fn to_json(record: &TraceRecord) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"t\":");
    push_json_f64(&mut out, record.time_s);
    let _ = write!(out, ",\"node\":{}", record.node);
    let _ = write!(out, ",\"kind\":\"{}\"", record.event.kind());
    match &record.event {
        TraceEvent::JobStart { job } => {
            out.push_str(",\"job\":");
            push_json_str(&mut out, job);
        }
        TraceEvent::JobEnd { signatures } => {
            let _ = write!(out, ",\"signatures\":{signatures}");
        }
        TraceEvent::StateTransition { from, to } => {
            out.push_str(",\"from\":");
            push_json_str(&mut out, from);
            out.push_str(",\"to\":");
            push_json_str(&mut out, to);
        }
        TraceEvent::PolicyDecision {
            policy,
            cpu,
            imc_min,
            imc_max,
            ready,
        } => {
            out.push_str(",\"policy\":");
            push_json_str(&mut out, policy);
            let _ = write!(
                out,
                ",\"cpu\":{cpu},\"imc_min\":{imc_min},\"imc_max\":{imc_max},\"ready\":{ready}"
            );
        }
        TraceEvent::ImcSearchStep { max_ratio } => {
            let _ = write!(out, ",\"max_ratio\":{max_ratio}");
        }
        TraceEvent::FreqRequest {
            cpu,
            imc_min,
            imc_max,
        } => {
            let _ = write!(
                out,
                ",\"cpu\":{cpu},\"imc_min\":{imc_min},\"imc_max\":{imc_max}"
            );
        }
        TraceEvent::FreqGrant {
            cpu,
            imc_min,
            imc_max,
            clamped,
        } => {
            let _ = write!(
                out,
                ",\"cpu\":{cpu},\"imc_min\":{imc_min},\"imc_max\":{imc_max},\"clamped\":{clamped}"
            );
        }
        TraceEvent::DaemonClamp {
            cpu,
            imc_min,
            imc_max,
        } => {
            let _ = write!(
                out,
                ",\"cpu\":{cpu},\"imc_min\":{imc_min},\"imc_max\":{imc_max}"
            );
        }
        TraceEvent::PowercapVerdict { power_w, action } => {
            out.push_str(",\"power_w\":");
            push_json_f64(&mut out, *power_w);
            out.push_str(",\"action\":");
            push_json_str(&mut out, action);
        }
        TraceEvent::NetConn { action } => {
            out.push_str(",\"action\":");
            push_json_str(&mut out, action);
        }
        TraceEvent::NetRequest { req, ok } => {
            out.push_str(",\"req\":");
            push_json_str(&mut out, req);
            let _ = write!(out, ",\"ok\":{ok}");
        }
    }
    out.push('}');
    out
}

/// Render records as JSONL: one object per line, trailing newline after the
/// last record, empty string for no records.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&to_json(r));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSONL parsing (round-trip support)
// ---------------------------------------------------------------------------

struct Fields(Json);

impl Fields {
    fn get(&self, key: &str) -> Result<&Json, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            _ => Err(format!("field '{key}' is not a number")),
        }
    }

    fn uint(&self, key: &str) -> Result<u64, String> {
        let n = self.num(key)?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 {
            Ok(n as u64)
        } else {
            Err(format!("field '{key}' is not an unsigned integer"))
        }
    }

    fn str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("field '{key}' is not a string")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("field '{key}' is not a bool")),
        }
    }
}

fn record_from_fields(fields: Fields) -> Result<TraceRecord, String> {
    let kind = fields.str("kind")?;
    let event = match kind.as_str() {
        "job_start" => TraceEvent::JobStart {
            job: fields.str("job")?,
        },
        "job_end" => TraceEvent::JobEnd {
            signatures: fields.uint("signatures")?,
        },
        "state" => TraceEvent::StateTransition {
            from: fields.str("from")?,
            to: fields.str("to")?,
        },
        "policy_decision" => TraceEvent::PolicyDecision {
            policy: fields.str("policy")?,
            cpu: fields.uint("cpu")?,
            imc_min: fields.uint("imc_min")?,
            imc_max: fields.uint("imc_max")?,
            ready: fields.bool("ready")?,
        },
        "imc_search_step" => TraceEvent::ImcSearchStep {
            max_ratio: fields.uint("max_ratio")?,
        },
        "freq_request" => TraceEvent::FreqRequest {
            cpu: fields.uint("cpu")?,
            imc_min: fields.uint("imc_min")?,
            imc_max: fields.uint("imc_max")?,
        },
        "freq_grant" => TraceEvent::FreqGrant {
            cpu: fields.uint("cpu")?,
            imc_min: fields.uint("imc_min")?,
            imc_max: fields.uint("imc_max")?,
            clamped: fields.bool("clamped")?,
        },
        "daemon_clamp" => TraceEvent::DaemonClamp {
            cpu: fields.uint("cpu")?,
            imc_min: fields.uint("imc_min")?,
            imc_max: fields.uint("imc_max")?,
        },
        "powercap" => TraceEvent::PowercapVerdict {
            power_w: fields.num("power_w")?,
            action: fields.str("action")?,
        },
        "net_conn" => TraceEvent::NetConn {
            action: fields.str("action")?,
        },
        "net_request" => TraceEvent::NetRequest {
            req: fields.str("req")?,
            ok: fields.bool("ok")?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(TraceRecord {
        time_s: fields.num("t")?,
        node: fields.uint("node")?,
        event,
    })
}

/// Parse a JSONL stream produced by [`to_jsonl`] back into records. Blank
/// lines are ignored; errors are located by 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, EarError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parse = |line: &str| -> Result<TraceRecord, String> {
            match Json::parse(line)? {
                obj @ Json::Obj(_) => record_from_fields(Fields(obj)),
                _ => Err("expected a JSON object".into()),
            }
        };
        records.push(parse(line).map_err(|message| EarError::Parse {
            line: idx + 1,
            message,
        })?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// The bus is process-global; tests that enable it must not interleave.
    static BUS_TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                time_s: 0.0,
                node: 0,
                event: TraceEvent::JobStart {
                    job: "bt-mz.c \"quoted\"\\path".into(),
                },
            },
            TraceRecord {
                time_s: 10.25,
                node: 0,
                event: TraceEvent::StateTransition {
                    from: "NodePolicy".into(),
                    to: "ValidatePolicy".into(),
                },
            },
            TraceRecord {
                time_s: 10.25,
                node: 0,
                event: TraceEvent::PolicyDecision {
                    policy: "min_energy_eufs".into(),
                    cpu: 1,
                    imc_min: 12,
                    imc_max: 20,
                    ready: false,
                },
            },
            TraceRecord {
                time_s: 10.25,
                node: 0,
                event: TraceEvent::ImcSearchStep { max_ratio: 20 },
            },
            TraceRecord {
                time_s: 10.25,
                node: 0,
                event: TraceEvent::FreqRequest {
                    cpu: 1,
                    imc_min: 12,
                    imc_max: 20,
                },
            },
            TraceRecord {
                time_s: 10.25,
                node: 0,
                event: TraceEvent::FreqGrant {
                    cpu: 2,
                    imc_min: 12,
                    imc_max: 18,
                    clamped: true,
                },
            },
            TraceRecord {
                time_s: 20.5,
                node: 1,
                event: TraceEvent::DaemonClamp {
                    cpu: 3,
                    imc_min: 12,
                    imc_max: 16,
                },
            },
            TraceRecord {
                time_s: 20.5,
                node: 1,
                event: TraceEvent::PowercapVerdict {
                    power_w: 312.832_251,
                    action: "throttled".into(),
                },
            },
            TraceRecord {
                time_s: 31.0,
                node: 2,
                event: TraceEvent::NetConn {
                    action: "accepted".into(),
                },
            },
            TraceRecord {
                time_s: 31.5,
                node: 2,
                event: TraceEvent::NetRequest {
                    req: "set_freqs".into(),
                    ok: true,
                },
            },
            TraceRecord {
                time_s: 99.875,
                node: 0,
                event: TraceEvent::JobEnd { signatures: 9 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let records = sample_records();
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn parse_errors_are_line_located() {
        let e =
            parse_jsonl("{\"t\":0,\"node\":0,\"kind\":\"job_end\",\"signatures\":3}\nnot json\n")
                .unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = parse_jsonl("{\"t\":0,\"node\":0,\"kind\":\"martian\"}\n").unwrap_err();
        assert!(e.to_string().contains("unknown event kind"), "{e}");
        let e = parse_jsonl("{\"t\":0,\"node\":0}\n").unwrap_err();
        assert!(e.to_string().contains("missing field 'kind'"), "{e}");
    }

    #[test]
    fn disabled_bus_runs_no_closures() {
        let _guard = BUS_TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        let mut ran = false;
        emit_with(|| {
            ran = true;
            TraceRecord {
                time_s: 0.0,
                node: 0,
                event: TraceEvent::JobEnd { signatures: 0 },
            }
        });
        assert!(!ran);
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_bus_records_in_order_and_drops_oldest() {
        let _guard = BUS_TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        for i in 0..(CAPACITY as u64 + 5) {
            emit_with(|| TraceRecord {
                time_s: i as f64,
                node: 0,
                event: TraceEvent::JobEnd { signatures: i },
            });
        }
        set_enabled(false);
        let records = drain();
        assert_eq!(records.len(), CAPACITY);
        assert_eq!(dropped(), 5);
        // Oldest five were dropped; the stream starts at i == 5.
        assert_eq!(records[0].time_s, 5.0);
        assert_eq!(records.last().unwrap().time_s, (CAPACITY + 4) as f64);
        reset();
        assert_eq!(dropped(), 0);
    }
}
