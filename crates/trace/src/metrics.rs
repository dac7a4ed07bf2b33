//! The telemetry registry.
//!
//! Every value the `earsim-telemetry:` stderr line carries is declared
//! once, in [`TABLE`]: its dotted path in the line, its [`Kind`] and its
//! print precision. The values live in one static array of atomics that
//! [`Metric`] indexes, so recording stays a single relaxed atomic
//! operation on a static: no lock, no string lookup, no allocation.
//! [`Snapshot::render`] walks the table to print the line and [`validate`]
//! walks the same table to check one. Adding a counter is one table entry
//! plus one call site; the [`SCHEMA`] tag does not change.
//!
//! The values are process-wide and monotonic: nothing zeroes them, so
//! tests that share a process assert on deltas.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::json::Json;
use crate::push_json_str;

/// Schema tag stamped on every telemetry line.
pub const SCHEMA: &str = "earsim-telemetry/v6";

/// How a value is recorded, stored, printed and validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `u64` counter, recorded with [`add`].
    Sum,
    /// A `u64` gauge, recorded with [`max`] or [`set`].
    Gauge,
    /// An `f64` sum, recorded with [`add_f64`] and printed with this many
    /// decimals.
    F64Sum(usize),
    /// An `f64` high-water mark, recorded with [`max_f64`] and printed
    /// with this many decimals.
    F64Max(usize),
    /// `len` `u64` counters, recorded with [`add_at`] and printed as an
    /// array. With `shown`, only as many leading entries as that value
    /// holds are printed.
    Array {
        /// Counters in the array.
        len: usize,
        /// The value that bounds the printed length, if any.
        shown: Option<Metric>,
    },
    /// `num / den`, derived at print time with `prec` decimals; `1` when
    /// `den` is not positive. Stores nothing.
    Ratio {
        /// The numerator.
        num: Metric,
        /// The denominator.
        den: Metric,
        /// Printed decimals.
        prec: usize,
    },
    /// Another value printed under a second path. Stores nothing.
    Alias(Metric),
    /// A list of strings, recorded with [`push_str`].
    Strings,
}

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Dotted path in the line: `key` at the top level or `group.key`.
    pub path: &'static str,
    /// How the value is recorded and printed.
    pub kind: Kind,
}

macro_rules! registry {
    ($($(#[doc = $doc:literal])+ $id:ident = $path:literal, $kind:expr;)+) => {
        /// One value of the telemetry line; it indexes [`TABLE`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $($(#[doc = $doc])+ $id,)+
        }

        /// Every value the telemetry line carries, in line order. Entries
        /// of one group are contiguous.
        pub const TABLE: &[Entry] = &[$(Entry { path: $path, kind: $kind },)+];
    };
}

registry! {
    /// Experiment-engine matrix runs.
    EngineRuns = "engine_runs", Kind::Sum;
    /// Widest worker pool any engine run used.
    Jobs = "jobs", Kind::Gauge;
    /// Engine tasks scheduled (cells × runs).
    Tasks = "tasks", Kind::Sum;
    /// Engine tasks that panicked or errored.
    TasksFailed = "tasks_failed", Kind::Sum;
    /// Labels of cells with at least one failed task.
    FailedCells = "failed_cells", Kind::Strings;
    /// Engine wall time, summed over runs (s).
    WallS = "wall_s", Kind::F64Sum(3);
    /// Summed per-task busy time: the serial estimate (s).
    SerialEstimateS = "serial_estimate_s", Kind::F64Sum(3);
    /// Measured speedup against running every task serially.
    Speedup = "speedup", Kind::Ratio { num: Metric::SerialEstimateS, den: Metric::WallS, prec: 2 };
    /// Calibration-cache hits.
    CalHits = "cal_hits", Kind::Sum;
    /// Calibrations actually computed.
    CalMisses = "cal_misses", Kind::Sum;
    /// Cells served from the persistent result cache.
    ResultHits = "result_hits", Kind::Sum;
    /// Persistent result-cache misses.
    ResultMisses = "result_misses", Kind::Sum;
    /// Corrupt or stale result-cache entries dropped.
    ResultInvalidations = "result_invalidations", Kind::Sum;
    /// Connections a netd server accepted.
    NetdAccepted = "netd.accepted", Kind::Sum;
    /// Connections turned away because the server was saturated.
    NetdRejected = "netd.rejected", Kind::Sum;
    /// Requests that hit a read, write or connect deadline.
    NetdTimedOut = "netd.timed_out", Kind::Sum;
    /// Client attempts retried after a failure.
    NetdRetried = "netd.retried", Kind::Sum;
    /// Requests a server serviced.
    NetdRequests = "netd.requests", Kind::Sum;
    /// Frames that failed to decode (malformed, truncated, mid-frame close).
    NetdDecodeErrors = "netd.decode_errors", Kind::Sum;
    /// Write flushes that coalesced more than one reply frame.
    NetdBatchedFlushes = "netd.batched_flushes", Kind::Sum;
    /// Simulated daemons the cluster scenarios instantiated.
    ClusterDaemons = "cluster.daemons", Kind::Sum;
    /// Aggregation-tree depth of the last cluster scenario.
    ClusterTreeDepth = "cluster.tree_depth", Kind::Gauge;
    /// Aggregated reports folded at each tree level, leaf level first.
    ClusterLevelReports = "cluster.level_reports",
        Kind::Array { len: 8, shown: Some(Metric::ClusterTreeDepth) };
    /// The batched flushes again, scoped to the cluster object.
    ClusterBatchedFlushes = "cluster.batched_flushes", Kind::Alias(Metric::NetdBatchedFlushes);
    /// Widest per-socket uncore domain configuration any node booted with.
    UfsMaxDomains = "ufs.max_domains", Kind::Gauge;
    /// Firmware ratio transitions per uncore domain index.
    UfsRatioSteps = "ufs.ratio_steps", Kind::Array { len: 4, shown: None };
    /// Grid cells the sweeps measured.
    SweepCells = "sweep.cells", Kind::Sum;
    /// Sweep cells served from the result cache.
    SweepCacheHits = "sweep.cache_hits", Kind::Sum;
    /// Worst relative residual of any sweep's surface fits.
    SweepFitResidualMax = "sweep.fit_residual_max", Kind::F64Max(6);
    /// Cap commands daemons acknowledged.
    PowercapCapsPushed = "powercap.caps_pushed", Kind::Sum;
    /// RAPL PL1 throttle steps at quantum boundaries.
    PowercapThrottleEvents = "powercap.throttle_events", Kind::Sum;
    /// Job-stream poll-and-redistribute rounds.
    PowercapRebalances = "powercap.rebalances", Kind::Sum;
    /// Jobs admitted onto the fleet.
    PowercapJobsAdmitted = "powercap.jobs_admitted", Kind::Sum;
    /// Jobs that ran to completion.
    PowercapJobsCompleted = "powercap.jobs_completed", Kind::Sum;
}

/// Atomic slots a value of this kind occupies.
const fn width(kind: Kind) -> usize {
    match kind {
        Kind::Sum | Kind::Gauge | Kind::F64Sum(_) | Kind::F64Max(_) => 1,
        Kind::Array { len, .. } => len,
        Kind::Ratio { .. } | Kind::Alias(_) | Kind::Strings => 0,
    }
}

const COUNT: usize = TABLE.len();

/// First slot of each value.
const OFFSET: [usize; COUNT] = {
    let mut offset = [0; COUNT];
    let mut i = 1;
    while i < COUNT {
        offset[i] = offset[i - 1] + width(TABLE[i - 1].kind);
        i += 1;
    }
    offset
};

const SLOTS: usize = OFFSET[COUNT - 1] + width(TABLE[COUNT - 1].kind);

static VALUES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static STRINGS: Mutex<Vec<(Metric, String)>> = Mutex::new(Vec::new());

/// Counters in an [`Kind::Array`] value (1 for a scalar counter).
pub const fn len(m: Metric) -> usize {
    width(TABLE[m as usize].kind)
}

/// Adds `n` to a [`Kind::Sum`].
#[inline]
pub fn add(m: Metric, n: u64) {
    VALUES[OFFSET[m as usize]].fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` to entry `i` of a [`Kind::Array`]; an index past its end is
/// ignored.
#[inline]
pub fn add_at(m: Metric, i: usize, n: u64) {
    if i < len(m) {
        VALUES[OFFSET[m as usize] + i].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises a [`Kind::Gauge`] to at least `n`.
pub fn max(m: Metric, n: u64) {
    VALUES[OFFSET[m as usize]].fetch_max(n, Ordering::Relaxed);
}

/// Overwrites a [`Kind::Gauge`].
pub fn set(m: Metric, n: u64) {
    VALUES[OFFSET[m as usize]].store(n, Ordering::Relaxed);
}

fn update_f64(m: Metric, f: impl Fn(f64) -> f64) {
    let slot = &VALUES[OFFSET[m as usize]];
    let _ = slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
        Some(f(f64::from_bits(bits)).to_bits())
    });
}

/// Adds `v` to a [`Kind::F64Sum`].
pub fn add_f64(m: Metric, v: f64) {
    update_f64(m, |cur| cur + v);
}

/// Raises a [`Kind::F64Max`] to at least `v`; non-finite values are
/// ignored.
pub fn max_f64(m: Metric, v: f64) {
    if v.is_finite() {
        update_f64(m, |cur| cur.max(v));
    }
}

/// Appends `s` to a [`Kind::Strings`] list.
pub fn push_str(m: Metric, s: &str) {
    STRINGS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push((m, s.to_string()));
}

/// The current value of a [`Kind::Sum`] or [`Kind::Gauge`] (the first
/// entry of an array).
pub fn get(m: Metric) -> u64 {
    VALUES[OFFSET[m as usize]].load(Ordering::Relaxed)
}

/// The current value of a [`Kind::F64Sum`] or [`Kind::F64Max`].
pub fn get_f64(m: Metric) -> f64 {
    f64::from_bits(get(m))
}

/// A copy of every value at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    values: [u64; SLOTS],
    strings: Vec<(Metric, String)>,
}

impl Snapshot {
    /// Reads every value.
    pub fn read() -> Snapshot {
        Snapshot {
            values: std::array::from_fn(|i| VALUES[i].load(Ordering::Relaxed)),
            strings: STRINGS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    fn get_at(&self, m: Metric, i: usize) -> u64 {
        self.values[OFFSET[m as usize] + i]
    }

    /// A [`Kind::Sum`] or [`Kind::Gauge`] value.
    pub fn get(&self, m: Metric) -> u64 {
        self.get_at(m, 0)
    }

    /// A [`Kind::F64Sum`] or [`Kind::F64Max`] value.
    pub fn get_f64(&self, m: Metric) -> f64 {
        f64::from_bits(self.get(m))
    }

    /// The telemetry line's JSON object: one walk over [`TABLE`].
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":");
        push_json_str(&mut out, SCHEMA);
        let mut group = "";
        let mut sep = ",";
        for (i, e) in TABLE.iter().enumerate() {
            let (g, key) = split(e.path);
            if g != group {
                if !group.is_empty() {
                    out.push('}');
                }
                if !g.is_empty() {
                    out.push(',');
                    push_json_str(&mut out, g);
                    out.push_str(":{");
                    sep = "";
                }
                group = g;
            }
            out.push_str(sep);
            sep = ",";
            push_json_str(&mut out, key);
            out.push(':');
            self.render_value(&mut out, i);
        }
        if !group.is_empty() {
            out.push('}');
        }
        out.push('}');
        out
    }

    fn render_value(&self, out: &mut String, i: usize) {
        let at = OFFSET[i];
        let _ = match TABLE[i].kind {
            Kind::Sum | Kind::Gauge => write!(out, "{}", self.values[at]),
            Kind::F64Sum(prec) | Kind::F64Max(prec) => {
                write!(out, "{:.*}", prec, f64::from_bits(self.values[at]))
            }
            Kind::Array { len, shown } => {
                let n = shown.map_or(len, |m| (self.get(m) as usize).min(len));
                let items = &self.values[at..at + n];
                out.push('[');
                for (k, x) in items.iter().enumerate() {
                    let _ = write!(out, "{}{x}", if k > 0 { "," } else { "" });
                }
                out.push(']');
                Ok(())
            }
            Kind::Ratio { num, den, prec } => {
                let den = self.get_f64(den);
                let r = if den > 0.0 {
                    self.get_f64(num) / den
                } else {
                    1.0
                };
                write!(out, "{r:.prec$}")
            }
            Kind::Alias(m) => {
                self.render_value(out, m as usize);
                Ok(())
            }
            Kind::Strings => {
                out.push('[');
                let list = self.strings.iter().filter(|(m, _)| *m as usize == i);
                for (k, (_, s)) in list.enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    push_json_str(out, s);
                }
                out.push(']');
                Ok(())
            }
        };
    }
}

fn split(path: &str) -> (&str, &str) {
    path.split_once('.').unwrap_or(("", path))
}

fn lookup<'a>(root: &'a Json, path: &str) -> Option<&'a Json> {
    match split(path) {
        ("", key) => root.get(key),
        (group, key) => root.get(group)?.get(key),
    }
}

fn is_count(v: &Json) -> bool {
    matches!(v, Json::Num(n) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
}

/// Validates one telemetry line's JSON object (the text after the
/// `earsim-telemetry:` prefix): well-formed, the [`SCHEMA`] tag, and every
/// [`TABLE`] entry present with a value its kind allows. Errors name the
/// offending group and key.
pub fn validate(line: &str) -> Result<(), String> {
    let root = Json::parse(line)?;
    match root.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return Err(format!("wrong schema '{s}', expected '{SCHEMA}'")),
        _ => return Err("missing string field 'schema'".into()),
    }
    for e in TABLE {
        let (group, key) = split(e.path);
        let obj = match group {
            "" => &root,
            g => match root.get(g) {
                Some(o @ Json::Obj(_)) => o,
                Some(_) => return Err(format!("'{g}' is not an object")),
                None => return Err(format!("missing object field '{g}'")),
            },
        };
        let in_group = |msg: String| match group {
            "" => msg,
            g => format!("{g}: {msg}"),
        };
        let v = obj
            .get(key)
            .ok_or_else(|| in_group(format!("missing field '{key}'")))?;
        check(&root, e.kind, key, v).map_err(in_group)?;
    }
    Ok(())
}

fn check(root: &Json, kind: Kind, key: &str, v: &Json) -> Result<(), String> {
    match kind {
        Kind::Sum | Kind::Gauge | Kind::Alias(_) if is_count(v) => Ok(()),
        Kind::Sum | Kind::Gauge | Kind::Alias(_) => {
            Err(format!("field '{key}' must be a non-negative integer"))
        }
        Kind::F64Sum(_) | Kind::F64Max(_) | Kind::Ratio { .. } => match v {
            Json::Num(n) if n.is_finite() && *n >= 0.0 => Ok(()),
            _ => Err(format!("field '{key}' must be a non-negative number")),
        },
        Kind::Array { len, shown } => {
            let Json::Arr(items) = v else {
                return Err(format!("field '{key}' must be an array"));
            };
            let want = shown.map_or(len, |m| match lookup(root, TABLE[m as usize].path) {
                Some(Json::Num(n)) => (*n as usize).min(len),
                _ => 0,
            });
            if items.len() != want {
                return Err(format!(
                    "{key} must carry {want} entries, got {}",
                    items.len()
                ));
            }
            match items.iter().position(|x| !is_count(x)) {
                Some(i) => Err(format!("{key}[{i}] must be a non-negative integer")),
                None => Ok(()),
            }
        }
        Kind::Strings => match v {
            Json::Arr(items) if items.iter().all(|x| matches!(x, Json::Str(_))) => Ok(()),
            _ => Err(format!("field '{key}' must be an array of strings")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero() -> Snapshot {
        Snapshot {
            values: [0; SLOTS],
            strings: Vec::new(),
        }
    }

    fn put(s: &mut Snapshot, m: Metric, vals: &[u64]) {
        for (i, v) in vals.iter().enumerate() {
            s.values[OFFSET[m as usize] + i] = *v;
        }
    }

    /// Every value set to a distinct number.
    fn distinct() -> Snapshot {
        use Metric::*;
        let mut s = zero();
        for (m, v) in [
            (EngineRuns, 3),
            (Jobs, 4),
            (Tasks, 465),
            (TasksFailed, 2),
            (CalHits, 11),
            (CalMisses, 12),
            (ResultHits, 13),
            (ResultMisses, 14),
            (ResultInvalidations, 15),
            (NetdAccepted, 21),
            (NetdRejected, 22),
            (NetdTimedOut, 23),
            (NetdRetried, 24),
            (NetdRequests, 25),
            (NetdDecodeErrors, 26),
            (NetdBatchedFlushes, 27),
            (ClusterDaemons, 64),
            (ClusterTreeDepth, 3),
            (UfsMaxDomains, 2),
            (SweepCells, 41),
            (SweepCacheHits, 42),
            (PowercapCapsPushed, 51),
            (PowercapThrottleEvents, 52),
            (PowercapRebalances, 53),
            (PowercapJobsAdmitted, 54),
            (PowercapJobsCompleted, 55),
        ] {
            put(&mut s, m, &[v]);
        }
        put(&mut s, WallS, &[12.3456f64.to_bits()]);
        put(&mut s, SerialEstimateS, &[45.6789f64.to_bits()]);
        put(&mut s, SweepFitResidualMax, &[0.0312344f64.to_bits()]);
        put(&mut s, ClusterLevelReports, &[640, 40, 5, 6, 7, 8, 9, 10]);
        put(&mut s, UfsRatioSteps, &[31, 32, 33, 34]);
        s.strings.push((FailedCells, "bad \"cell\"".into()));
        s.strings.push((FailedCells, "back\\slash".into()));
        s
    }

    /// The exact line the hand-written `format!` renderer printed for the
    /// same values: key order, nesting, print precision and the truncation
    /// of `level_reports` to `tree_depth`.
    #[test]
    fn telemetry_line_bytes_are_pinned() {
        assert_eq!(
            distinct().render(),
            "{\"schema\":\"earsim-telemetry/v6\",\"engine_runs\":3,\"jobs\":4,\"tasks\":465,\
             \"tasks_failed\":2,\"failed_cells\":[\"bad \\\"cell\\\"\",\"back\\\\slash\"],\
             \"wall_s\":12.346,\"serial_estimate_s\":45.679,\"speedup\":3.70,\
             \"cal_hits\":11,\"cal_misses\":12,\"result_hits\":13,\"result_misses\":14,\
             \"result_invalidations\":15,\"netd\":{\"accepted\":21,\"rejected\":22,\
             \"timed_out\":23,\"retried\":24,\"requests\":25,\"decode_errors\":26,\
             \"batched_flushes\":27},\"cluster\":{\"daemons\":64,\"tree_depth\":3,\
             \"level_reports\":[640,40,5],\"batched_flushes\":27},\
             \"ufs\":{\"max_domains\":2,\"ratio_steps\":[31,32,33,34]},\
             \"sweep\":{\"cells\":41,\"cache_hits\":42,\"fit_residual_max\":0.031234},\
             \"powercap\":{\"caps_pushed\":51,\"throttle_events\":52,\"rebalances\":53,\
             \"jobs_admitted\":54,\"jobs_completed\":55}}"
        );
    }

    /// With no wall time the speedup falls back to `1.00`; an empty tree
    /// prints an empty `level_reports`.
    #[test]
    fn telemetry_line_fallbacks_are_pinned() {
        let mut s = zero();
        put(&mut s, Metric::EngineRuns, &[1]);
        assert_eq!(
            s.render(),
            "{\"schema\":\"earsim-telemetry/v6\",\"engine_runs\":1,\"jobs\":0,\"tasks\":0,\
             \"tasks_failed\":0,\"failed_cells\":[],\"wall_s\":0.000,\
             \"serial_estimate_s\":0.000,\"speedup\":1.00,\"cal_hits\":0,\"cal_misses\":0,\
             \"result_hits\":0,\"result_misses\":0,\"result_invalidations\":0,\
             \"netd\":{\"accepted\":0,\"rejected\":0,\"timed_out\":0,\"retried\":0,\
             \"requests\":0,\"decode_errors\":0,\"batched_flushes\":0},\
             \"cluster\":{\"daemons\":0,\"tree_depth\":0,\"level_reports\":[],\
             \"batched_flushes\":0},\"ufs\":{\"max_domains\":0,\"ratio_steps\":[0,0,0,0]},\
             \"sweep\":{\"cells\":0,\"cache_hits\":0,\"fit_residual_max\":0.000000},\
             \"powercap\":{\"caps_pushed\":0,\"throttle_events\":0,\"rebalances\":0,\
             \"jobs_admitted\":0,\"jobs_completed\":0}}"
        );
    }

    #[test]
    fn table_paths_are_unique_and_groups_contiguous() {
        let mut groups: Vec<&str> = Vec::new();
        for (i, e) in TABLE.iter().enumerate() {
            assert!(
                TABLE[..i].iter().all(|o| o.path != e.path),
                "duplicate path {}",
                e.path
            );
            let (g, _) = split(e.path);
            if groups.last() != Some(&g) {
                assert!(!groups.contains(&g), "group '{g}' is split");
                groups.push(g);
            }
        }
    }

    #[test]
    fn recording_moves_only_the_recorded_values() {
        // Values are process-wide and never reset: assert on deltas.
        use Metric::*;
        let before = Snapshot::read();
        add(PowercapCapsPushed, 4);
        add_at(UfsRatioSteps, 0, 1);
        add_at(UfsRatioSteps, 1, 2);
        add_at(UfsRatioSteps, len(UfsRatioSteps), 5); // past the end: ignored
        max(UfsMaxDomains, 2);
        max_f64(SweepFitResidualMax, f64::NAN); // non-finite: ignored
        max_f64(SweepFitResidualMax, 0.5);
        add_f64(WallS, 0.25);
        let after = Snapshot::read();
        let delta = |m, i| after.get_at(m, i) - before.get_at(m, i);
        assert_eq!(delta(PowercapCapsPushed, 0), 4);
        assert_eq!(delta(UfsRatioSteps, 0), 1);
        assert_eq!(delta(UfsRatioSteps, 1), 2);
        assert_eq!(delta(SweepCells, 0), 0, "out-of-range add leaked");
        assert!(after.get(UfsMaxDomains) >= 2);
        assert!(after.get_f64(SweepFitResidualMax) >= 0.5);
        assert!((after.get_f64(WallS) - before.get_f64(WallS) - 0.25).abs() < 1e-9);
        assert_eq!(validate(&after.render()), Ok(()));
    }

    #[test]
    fn telemetry_json_validates() {
        let sample = format!(
            "{{\"schema\":\"{}\",\"engine_runs\":1,\"jobs\":2,\"tasks\":3,\
             \"tasks_failed\":0,\"failed_cells\":[],\"wall_s\":1.0,\
             \"serial_estimate_s\":2.0,\"speedup\":2.00,\"cal_hits\":4,\
             \"cal_misses\":0,\"result_hits\":5,\"result_misses\":1,\
             \"result_invalidations\":0,\"netd\":{{\"accepted\":2,\
             \"rejected\":0,\"timed_out\":1,\"retried\":3,\"requests\":10,\
             \"decode_errors\":0,\"batched_flushes\":4}},\
             \"cluster\":{{\"daemons\":64,\"tree_depth\":2,\
             \"level_reports\":[640,40],\"batched_flushes\":4}},\
             \"ufs\":{{\"max_domains\":2,\"ratio_steps\":[7,3,0,0]}},\
             \"sweep\":{{\"cells\":40,\"cache_hits\":13,\
             \"fit_residual_max\":0.031200}},\
             \"powercap\":{{\"caps_pushed\":8,\"throttle_events\":2,\
             \"rebalances\":3,\"jobs_admitted\":5,\"jobs_completed\":5}}}}",
            SCHEMA
        );
        assert_eq!(validate(&sample), Ok(()));
        // The real emitter must satisfy its own validator.
        assert_eq!(validate(&Snapshot::read().render()), Ok(()));
        // Rejections: wrong schema, missing netd, non-integer counter,
        // missing cluster object, non-integer level report.
        assert!(validate(&sample.replace("/v6", "/v1"))
            .unwrap_err()
            .contains("wrong schema"));
        assert!(validate(&sample.replace("\"netd\"", "\"metd\""))
            .unwrap_err()
            .contains("netd"));
        assert!(
            validate(&sample.replace("\"retried\":3", "\"retried\":3.5"))
                .unwrap_err()
                .contains("retried")
        );
        assert!(validate(&sample.replace("\"cluster\"", "\"clusterx\""))
            .unwrap_err()
            .contains("cluster"));
        assert!(validate(&sample.replace("[640,40]", "[640,40.5]"))
            .unwrap_err()
            .contains("level_reports[1]"));
        assert!(validate(&sample.replace("\"ufs\"", "\"ufsx\""))
            .unwrap_err()
            .contains("ufs"));
        assert!(validate(&sample.replace("[7,3,0,0]", "[7,3,0]"))
            .unwrap_err()
            .contains("4 entries"));
        assert!(validate(&sample.replace("\"sweep\"", "\"sweepx\""))
            .unwrap_err()
            .contains("sweep"));
        assert!(validate(
            &sample.replace("\"fit_residual_max\":0.031200", "\"fit_residual_max\":-1.0")
        )
        .unwrap_err()
        .contains("fit_residual_max"));
        assert!(validate(&sample.replace("\"powercap\"", "\"powercapx\""))
            .unwrap_err()
            .contains("powercap"));
        assert!(
            validate(&sample.replace("\"throttle_events\":2", "\"throttle_events\":-1"))
                .unwrap_err()
                .contains("throttle_events")
        );
    }

    /// Re-serialises a parsed value (test-only; the line itself comes from
    /// [`Snapshot::render`]).
    fn to_text(v: &Json) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        match v {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => format!("{n}"),
            Json::Str(s) => {
                let mut out = String::new();
                push_json_str(&mut out, s);
                out
            }
            Json::Arr(items) => format!("[{}]", join(items.iter().map(to_text).collect())),
            Json::Obj(kv) => format!(
                "{{{}}}",
                join(
                    kv.iter()
                        .map(|(k, v)| format!("{}:{}", to_text(&Json::Str(k.clone())), to_text(v)))
                        .collect()
                )
            ),
        }
    }

    /// `line` with `f` applied to the object holding `path` and the index
    /// of its key there.
    fn mutate(line: &str, path: &str, f: impl FnOnce(&mut Vec<(String, Json)>, usize)) -> String {
        let mut root = Json::parse(line).unwrap();
        let (g, key) = split(path);
        let Json::Obj(top) = &mut root else {
            unreachable!()
        };
        let kv = if g.is_empty() {
            top
        } else {
            match top.iter_mut().find(|(k, _)| k == g) {
                Some((_, Json::Obj(kv))) => kv,
                _ => unreachable!(),
            }
        };
        let at = kv.iter().position(|(k, _)| k == key).unwrap();
        f(kv, at);
        to_text(&root)
    }

    /// Applies `f` to the value itself, or to the first item of an array.
    fn first_mut(v: &mut Json) -> &mut Json {
        match v {
            Json::Arr(items) => &mut items[0],
            other => other,
        }
    }

    #[test]
    fn validator_rejects_every_mutation_of_every_entry() {
        let line = distinct().render();
        assert_eq!(validate(&line), Ok(()));
        assert_eq!(validate(&to_text(&Json::parse(&line).unwrap())), Ok(()));
        for e in TABLE {
            let (_, key) = split(e.path);
            let mut cases = vec![
                (
                    "removed",
                    mutate(&line, e.path, |kv, at| drop(kv.remove(at))),
                ),
                (
                    "negative",
                    mutate(&line, e.path, |kv, at| {
                        *first_mut(&mut kv[at].1) = Json::Num(-1.0)
                    }),
                ),
            ];
            if matches!(
                e.kind,
                Kind::Sum | Kind::Gauge | Kind::Alias(_) | Kind::Array { .. }
            ) {
                cases.push((
                    "fractional",
                    mutate(&line, e.path, |kv, at| {
                        if let Json::Num(n) = first_mut(&mut kv[at].1) {
                            *n += 0.5;
                        }
                    }),
                ));
            }
            if let Kind::Array { .. } = e.kind {
                let resize = |grow: bool| {
                    mutate(&line, e.path, |kv, at| {
                        if let Json::Arr(items) = &mut kv[at].1 {
                            if grow {
                                items.push(Json::Num(0.0));
                            } else {
                                items.pop();
                            }
                        }
                    })
                };
                cases.push(("longer", resize(true)));
                cases.push(("shorter", resize(false)));
            }
            for (what, bad) in cases {
                let err = validate(&bad).expect_err(&format!("{} {what} accepted", e.path));
                assert!(err.contains(key), "{} {what}: {err}", e.path);
            }
        }
    }
}
