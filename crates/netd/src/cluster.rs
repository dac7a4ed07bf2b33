//! `earsim cluster`: thousands of in-process simulated daemons behind an
//! EARGM aggregation tree, every byte through the real codec.
//!
//! Production EAR runs one EARD per node with per-island EARGMs
//! aggregating upward; a single flat poller (PR 5's [`crate::poller`])
//! stops scaling long before thousands of nodes. This module builds the
//! hierarchical shape: [`SimCluster`] instantiates `--nodes` simulated
//! daemons — each a real [`EardService`] state machine fed through a
//! [`FrameBuffer`], exactly the readiness-loop server's receive path — and
//! a tree of aggregators (fan-in `--fanout`) whose levels exchange
//! *encoded* [`WireMsg::Report`] frames upward and distribute the power
//! budget downward with [`distribute_budget`], capping every daemon with a
//! real `Command`/`CapAck` exchange.
//!
//! The load driver is closed-loop per daemon and pipelined: it encodes a
//! batch of requests with [`codec::encode_frame_into`], feeds the bytes to
//! the daemon's frame buffer (periodically in adversarial split sizes, so
//! partial-frame reassembly is exercised at scale, not just in unit
//! tests), services every decoded frame, and verifies each reply frame.
//! Everything is in-process and kernel-free, so the aggregate throughput
//! measures the protocol stack itself — codec, buffering, state machine —
//! which is the quantity the ≥1M req/s roadmap target is about.

use crate::codec::{self, FrameBuffer, WireMsg};
use crate::loadgen::{nth_request, reply_matches};
use crate::server::{EardConfig, EardService};
use ear_core::powercap::distribute_budget;
use ear_core::protocol::GmReport;
use ear_errors::{EarError, EarResult};
use ear_trace::metrics::{self, Metric};
use std::time::{Duration, Instant};

/// Cluster scenario knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Simulated daemons (one per node).
    pub nodes: usize,
    /// Children per aggregator (tree fan-in).
    pub fanout: usize,
    /// Worker threads driving load (defaults to available parallelism).
    pub shards: Option<usize>,
    /// How long to drive load.
    pub duration: Duration,
    /// How often the aggregation tree runs a full poll/cap round.
    pub poll_every: Duration,
    /// Requests pipelined per daemon per batch.
    pub batch: usize,
    /// Cluster power budget the root distributes (W); defaults to
    /// 200 W × nodes.
    pub budget_w: Option<f64>,
    /// Seed for the adversarial chunking pattern.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4096,
            fanout: 16,
            shards: None,
            duration: Duration::from_secs(10),
            poll_every: Duration::from_millis(100),
            batch: 32,
            budget_w: None,
            seed: 0xC1_057E2,
        }
    }
}

/// One simulated daemon: the pure service state machine behind the same
/// `FrameBuffer` receive path the readiness-loop server uses.
struct SimDaemon {
    service: EardService,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    rng: u64,
    seq: u64,
    batches: u64,
    requests: u64,
    errors: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl SimDaemon {
    fn new(node: u64, seed: u64) -> Self {
        SimDaemon {
            service: EardService::new(EardConfig {
                node,
                ceiling: None,
                idle_power_w: 120.0 + (node % 64) as f64,
            }),
            inbuf: FrameBuffer::new(),
            out: Vec::new(),
            rng: seed | 1,
            seq: 0,
            batches: 0,
            requests: 0,
            errors: 0,
        }
    }

    /// Decodes every complete buffered frame, services it and appends the
    /// encoded reply to `out`.
    fn service_buffered(&mut self) {
        loop {
            match self.inbuf.next_frame() {
                Ok(None) => break,
                Ok(Some(msg)) => {
                    let (reply, _) = self.service.respond(&msg);
                    if codec::encode_frame_into(&mut self.out, &reply).is_err() {
                        self.errors += 1;
                    }
                }
                Err(_) => {
                    // A decode error inside the in-process cluster means
                    // the codec or the driver is broken; count and stop.
                    self.errors += 1;
                    break;
                }
            }
        }
    }

    /// One request/reply exchange through encoded frames, used by the
    /// aggregation tree (poll and cap paths).
    fn exchange(&mut self, scratch: &mut Vec<u8>, msg: &WireMsg) -> EarResult<WireMsg> {
        scratch.clear();
        codec::encode_frame_into(scratch, msg)?;
        self.inbuf.push_bytes(scratch);
        self.service_buffered();
        let (reply, used) = codec::decode_frame(&self.out)?;
        if used != self.out.len() {
            return Err(EarError::Protocol(
                "daemon produced more than one reply frame".to_string(),
            ));
        }
        self.out.clear();
        Ok(reply)
    }

    /// Drives one pipelined batch of the loadgen request mix: encode
    /// `batch` frames, feed the bytes (every 16th batch in adversarial
    /// split sizes with interleaved drains), service, then decode and
    /// verify every reply.
    fn drive_batch(&mut self, scratch: &mut Vec<u8>, node: usize, batch: usize) {
        scratch.clear();
        let first = self.seq;
        for k in 0..batch as u64 {
            // The request mix only produces well-formed frames; an encode
            // failure cannot happen, but stay total.
            if codec::encode_frame_into(scratch, &nth_request(node, first + k)).is_err() {
                self.errors += 1;
            }
        }
        self.seq += batch as u64;
        self.batches += 1;
        if self.batches.is_multiple_of(16) {
            // Adversarial feed: odd-sized chunks with a drain between
            // each, so frames straddle push boundaries and the decoder's
            // incomplete-frame path runs at scale.
            let mut off = 0;
            while off < scratch.len() {
                let step = 1 + (xorshift(&mut self.rng) as usize) % 97;
                let end = (off + step).min(scratch.len());
                self.inbuf.push_bytes(&scratch[off..end]);
                self.service_buffered();
                off = end;
            }
        } else {
            self.inbuf.push_bytes(scratch);
            self.service_buffered();
        }
        // Verify replies straight from the output queue (complete frames
        // by construction).
        let mut pos = 0;
        let mut k = 0u64;
        while pos < self.out.len() {
            match codec::decode_frame(&self.out[pos..]) {
                Ok((reply, used)) => {
                    pos += used;
                    if reply_matches(&nth_request(node, first + k), &reply) {
                        self.requests += 1;
                    } else {
                        self.errors += 1;
                    }
                    k += 1;
                }
                Err(_) => {
                    self.errors += 1;
                    break;
                }
            }
        }
        self.out.clear();
    }
}

/// One aggregator node: children are a contiguous range of the level
/// below (daemons for level 0, aggregators for higher levels).
struct Agg {
    child_lo: usize,
    child_hi: usize,
    /// Power sum folded on the last upward pass (W).
    last_sum_w: f64,
    /// Per-child power sums from the last upward pass, reused for the
    /// downward budget split.
    child_w: Vec<f64>,
}

/// What one aggregation-tree round measured.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Cluster power folded at the root (W).
    pub cluster_power_w: f64,
    /// Caps pushed to daemons (one `Command`/`CapAck` per daemon).
    pub caps_pushed: u64,
    /// Reports folded per tree level, leaves first.
    pub level_reports: Vec<u64>,
}

/// What a full cluster run measured.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Simulated daemons.
    pub nodes: usize,
    /// Aggregator levels above the daemons.
    pub tree_depth: usize,
    /// Successful request/reply exchanges (load mix + tree traffic).
    pub requests: u64,
    /// Protocol or decode errors anywhere in the run.
    pub errors: u64,
    /// Aggregation-tree rounds completed.
    pub rounds: u64,
    /// Reports folded per tree level across all rounds, leaves first.
    pub level_reports: Vec<u64>,
    /// Caps pushed across all rounds.
    pub caps_pushed: u64,
    /// Cluster power at the last round's root fold (W).
    pub cluster_power_w: f64,
    /// Wall-clock duration of the run (s).
    pub seconds: f64,
}

impl ClusterReport {
    /// Successful requests per second, aggregate across the cluster.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.requests as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Renders the human-readable summary `earsim cluster` prints.
    pub fn render(&self) -> String {
        format!(
            "cluster nodes {}  tree depth {}  rounds {}  caps {}  power {:.0} W\n\
             requests {}  errors {}  seconds {:.2}  throughput {:.0} req/s\n\
             level reports [{}]",
            self.nodes,
            self.tree_depth,
            self.rounds,
            self.caps_pushed,
            self.cluster_power_w,
            self.requests,
            self.errors,
            self.seconds,
            self.throughput(),
            self.level_reports
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
}

/// An in-process cluster: `nodes` simulated daemons under an EARGM
/// aggregation tree.
pub struct SimCluster {
    cfg: ClusterConfig,
    daemons: Vec<SimDaemon>,
    /// `levels[0]` are the leaf aggregators (children are daemons);
    /// `levels.last()` is the single root.
    levels: Vec<Vec<Agg>>,
    scratch: Vec<u8>,
}

impl SimCluster {
    /// Builds the daemons and the aggregation tree.
    pub fn new(cfg: ClusterConfig) -> EarResult<SimCluster> {
        if cfg.nodes == 0 {
            return Err(EarError::Protocol(
                "cluster needs at least one node".to_string(),
            ));
        }
        if cfg.fanout < 2 {
            return Err(EarError::Protocol(
                "cluster fan-out must be at least 2".to_string(),
            ));
        }
        if cfg.batch == 0 {
            return Err(EarError::Protocol(
                "cluster batch must be nonzero".to_string(),
            ));
        }
        let daemons: Vec<SimDaemon> = (0..cfg.nodes)
            .map(|n| SimDaemon::new(n as u64, cfg.seed.wrapping_add(n as u64)))
            .collect();
        // Build levels bottom-up until a single root remains.
        let mut levels: Vec<Vec<Agg>> = Vec::new();
        let mut below = cfg.nodes;
        loop {
            let count = below.div_ceil(cfg.fanout);
            let aggs = (0..count)
                .map(|i| {
                    let lo = i * cfg.fanout;
                    let hi = ((i + 1) * cfg.fanout).min(below);
                    Agg {
                        child_lo: lo,
                        child_hi: hi,
                        last_sum_w: 0.0,
                        child_w: vec![0.0; hi - lo],
                    }
                })
                .collect();
            levels.push(aggs);
            if count == 1 {
                break;
            }
            below = count;
        }
        metrics::add(Metric::ClusterDaemons, cfg.nodes as u64);
        let shown = levels.len().min(metrics::len(Metric::ClusterLevelReports));
        metrics::set(Metric::ClusterTreeDepth, shown as u64);
        Ok(SimCluster {
            cfg,
            daemons,
            levels,
            scratch: Vec::new(),
        })
    }

    /// Aggregator levels above the daemons.
    pub fn tree_depth(&self) -> usize {
        self.levels.len()
    }

    /// Simulated daemons.
    pub fn nodes(&self) -> usize {
        self.daemons.len()
    }

    /// One full aggregation round: poll every daemon upward through the
    /// tree (encoded `Report` frames at every level), distribute the power
    /// budget downward, cap every daemon with a `Command`/`CapAck`
    /// exchange. Returns the round's fold; protocol errors are returned,
    /// never panicked.
    pub fn round(&mut self) -> EarResult<RoundReport> {
        let budget = self
            .cfg
            .budget_w
            .unwrap_or(200.0 * self.daemons.len() as f64);
        let mut level_reports = vec![0u64; self.levels.len()];

        // Upward: leaves poll daemons with a real PollPower exchange;
        // every higher level folds its children's *encoded* Report frames.
        let mut wire: Vec<Vec<u8>> = Vec::new();
        for (level, aggs) in self.levels.iter_mut().enumerate() {
            let mut next_wire: Vec<Vec<u8>> = Vec::with_capacity(aggs.len());
            for (agg_id, agg) in aggs.iter_mut().enumerate() {
                let mut sum = 0.0f64;
                for child in agg.child_lo..agg.child_hi {
                    let report = if level == 0 {
                        let d = &mut self.daemons[child];
                        match d.exchange(
                            &mut self.scratch,
                            &WireMsg::PollPower { node: child as u64 },
                        )? {
                            WireMsg::Report(r) if r.node == child => r,
                            other => {
                                return Err(EarError::Protocol(format!(
                                    "expected report from node {child}, got '{}'",
                                    other.kind()
                                )))
                            }
                        }
                    } else {
                        // Decode the child aggregator's frame from the
                        // previous level's wire buffers.
                        let child_frame = wire.get(child).ok_or_else(|| {
                            EarError::Protocol(format!(
                                "aggregation tree references missing child {child}"
                            ))
                        })?;
                        let (msg, used) = codec::decode_frame(child_frame)?;
                        if used != child_frame.len() {
                            return Err(EarError::Protocol(
                                "trailing bytes after aggregated report".to_string(),
                            ));
                        }
                        match msg {
                            WireMsg::Report(r) => r,
                            other => {
                                return Err(EarError::Protocol(format!(
                                    "expected aggregated report, got '{}'",
                                    other.kind()
                                )))
                            }
                        }
                    };
                    agg.child_w[child - agg.child_lo] = report.avg_power_w;
                    sum += report.avg_power_w;
                    level_reports[level] += 1;
                }
                agg.last_sum_w = sum;
                // Encode this aggregator's fold for its parent — the same
                // frame a networked per-island EARGM would send.
                let mut frame = Vec::with_capacity(codec::HEADER_LEN + 16);
                codec::encode_frame_into(
                    &mut frame,
                    &WireMsg::Report(GmReport {
                        node: agg_id,
                        avg_power_w: sum,
                    }),
                )?;
                next_wire.push(frame);
            }
            wire = next_wire;
        }
        let cluster_power_w = self.levels.last().map_or(0.0, |l| l[0].last_sum_w);

        // Downward: split the budget proportionally to each child's folded
        // power at every level, then cap daemons at the leaves.
        let mut caps_pushed = 0u64;
        let mut budgets = vec![budget];
        for level in (0..self.levels.len()).rev() {
            let mut child_budgets = Vec::new();
            for (agg, agg_budget) in self.levels[level].iter().zip(&budgets) {
                let split = distribute_budget(*agg_budget, &agg.child_w);
                if level == 0 {
                    for (child, cap_w) in (agg.child_lo..agg.child_hi).zip(&split) {
                        let d = &mut self.daemons[child];
                        let expected_cap = *cap_w;
                        let cmd = ear_core::protocol::GmCommand {
                            node: child,
                            cap_w: expected_cap,
                        };
                        match d.exchange(&mut self.scratch, &WireMsg::Command(cmd))? {
                            WireMsg::CapAck { node, cap_w: acked }
                                if node == child as u64
                                    && acked.to_bits() == expected_cap.to_bits() =>
                            {
                                caps_pushed += 1;
                            }
                            other => {
                                return Err(EarError::Protocol(format!(
                                    "expected cap_ack from node {child}, got '{}'",
                                    other.kind()
                                )))
                            }
                        }
                    }
                } else {
                    child_budgets.extend(split);
                }
            }
            budgets = child_budgets;
        }

        for (level, n) in level_reports.iter().enumerate() {
            metrics::add_at(Metric::ClusterLevelReports, level, *n);
        }
        Ok(RoundReport {
            cluster_power_w,
            caps_pushed,
            level_reports,
        })
    }

    /// Runs the full scenario: shard the daemons over worker threads and
    /// drive the pipelined load mix, interleaving a tree round every
    /// `poll_every`, until `duration` elapses.
    pub fn run(&mut self) -> EarResult<ClusterReport> {
        let shards = self
            .cfg
            .shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1);
        let batch = self.cfg.batch;
        let started = Instant::now();
        let deadline = started + self.cfg.duration;
        let mut rounds = 0u64;
        let mut caps_pushed = 0u64;
        let mut cluster_power_w = 0.0f64;
        let mut level_reports = vec![0u64; self.levels.len()];
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let slice_end = (now + self.cfg.poll_every).min(deadline);
            let chunk = self.daemons.len().div_ceil(shards);
            std::thread::scope(|s| {
                for (shard, daemons) in self.daemons.chunks_mut(chunk).enumerate() {
                    s.spawn(move || {
                        let mut scratch = Vec::new();
                        let base = shard * chunk;
                        // Round-robin the shard's daemons in pipelined
                        // batches until the slice ends.
                        'outer: loop {
                            for (i, d) in daemons.iter_mut().enumerate() {
                                d.drive_batch(&mut scratch, base + i, batch);
                                if Instant::now() >= slice_end {
                                    break 'outer;
                                }
                            }
                        }
                    });
                }
            });
            let round = self.round()?;
            rounds += 1;
            caps_pushed += round.caps_pushed;
            cluster_power_w = round.cluster_power_w;
            for (have, got) in level_reports.iter_mut().zip(&round.level_reports) {
                *have += got;
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        let mut requests = 0u64;
        let mut errors = 0u64;
        for d in &self.daemons {
            requests += d.requests;
            errors += d.errors;
        }
        // Tree traffic is protocol traffic too: one PollPower and one
        // Command exchange per daemon per round.
        requests += caps_pushed + level_reports.first().copied().unwrap_or(0);
        // Fold into the process-wide counters so the `earsim-telemetry`
        // summary line reflects the cluster run.
        metrics::add(Metric::NetdRequests, requests);
        metrics::add(Metric::NetdDecodeErrors, errors);
        Ok(ClusterReport {
            nodes: self.daemons.len(),
            tree_depth: self.levels.len(),
            requests,
            errors,
            rounds,
            level_reports,
            caps_pushed,
            cluster_power_w,
            seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            fanout: 4,
            shards: Some(2),
            duration: Duration::from_millis(200),
            poll_every: Duration::from_millis(50),
            batch: 8,
            budget_w: Some(1000.0),
            seed: 7,
        }
    }

    #[test]
    fn tree_shape_matches_fanout() {
        let c = SimCluster::new(small_cfg(64)).expect("cluster");
        // 64 daemons, fan-in 4: 16 leaves, 4 mid, 1 root.
        assert_eq!(c.tree_depth(), 3);
        assert_eq!(c.levels[0].len(), 16);
        assert_eq!(c.levels[1].len(), 4);
        assert_eq!(c.levels[2].len(), 1);
    }

    #[test]
    fn a_round_folds_every_daemon_and_caps_them_all() {
        let mut c = SimCluster::new(small_cfg(64)).expect("cluster");
        let r = c.round().expect("round");
        // Idle daemons report 120 + node%64 W.
        let expected: f64 = (0..64).map(|n| 120.0 + (n % 64) as f64).sum();
        assert!((r.cluster_power_w - expected).abs() < 1e-6);
        assert_eq!(r.caps_pushed, 64);
        assert_eq!(r.level_reports, vec![64, 16, 4]);
        // Caps landed on the daemons: each now holds one.
        assert!(c.daemons.iter().all(|d| d.service.cap_w().is_some()));
    }

    #[test]
    fn caps_sum_to_the_budget() {
        let mut c = SimCluster::new(small_cfg(64)).expect("cluster");
        c.round().expect("round");
        let total: f64 = c
            .daemons
            .iter()
            .map(|d| d.service.cap_w().unwrap_or(0.0))
            .sum();
        assert!(
            (total - 1000.0).abs() < 1e-6,
            "caps sum {total}, budget 1000"
        );
    }

    #[test]
    fn a_short_run_serves_load_with_zero_errors() {
        let mut c = SimCluster::new(small_cfg(32)).expect("cluster");
        let report = c.run().expect("run");
        assert_eq!(report.errors, 0, "in-process cluster must be error-free");
        assert!(report.requests > 0);
        assert!(report.rounds >= 1);
        assert_eq!(report.nodes, 32);
    }

    #[test]
    fn uneven_node_counts_build_a_complete_tree() {
        let mut c = SimCluster::new(ClusterConfig {
            nodes: 37,
            fanout: 4,
            ..small_cfg(37)
        })
        .expect("cluster");
        // 37 → 10 leaves → 3 → 1.
        assert_eq!(c.tree_depth(), 3);
        let r = c.round().expect("round");
        assert_eq!(r.caps_pushed, 37);
        assert_eq!(r.level_reports[0], 37);
    }
}
