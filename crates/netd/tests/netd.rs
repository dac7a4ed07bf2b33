//! End-to-end tests of the networked daemon stack, each against the
//! readiness-loop server on its own socket: Unix-socket and TCP transports
//! must produce the pinned reply stream byte for byte, a peer dying
//! mid-frame must degrade to a typed error, the shutdown poison frame
//! must drain the server cleanly, and the EARGM poller must redistribute
//! the cluster budget over every daemon.

use ear_core::policy::NodeFreqs;
use ear_core::protocol::EarlRequest;
use ear_netd::codec::encode_frame;
use ear_netd::server::{self, EardConfig, ServerConfig, ServerHandle};
use ear_netd::{loadgen, ClientConfig, EargmPoller, Endpoint, NetClient, NetListener, WireMsg};
use std::time::Duration;

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(2),
        retries: 1,
        backoff_base: Duration::from_millis(1),
        ..ClientConfig::default()
    }
}

fn test_server_cfg(node: u64) -> ServerConfig {
    ServerConfig {
        eard: EardConfig {
            node,
            ceiling: Some(NodeFreqs {
                cpu: 1,
                imc_min_ratio: 8,
                imc_max_ratio: 20,
                imc_dom: ear_core::DomainLimits::LEGACY,
            }),
            idle_power_w: 120.0,
        },
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        // A safety net, not the exit path: tests end via the poison frame.
        max_seconds: Some(30.0),
        ..ServerConfig::default()
    }
}

fn uds_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("earsim-test-{tag}-{}.sock", std::process::id()))
}

/// Starts the readiness loop on a fresh Unix socket named by `tag`.
fn spawn_uds(tag: &str, cfg: ServerConfig) -> (ServerHandle, Endpoint) {
    let path = uds_path(tag);
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind uds");
    (server::spawn_async(listener, cfg), Endpoint::Unix(path))
}

/// Starts the readiness loop on an ephemeral loopback TCP port.
fn spawn_tcp(cfg: ServerConfig) -> (ServerHandle, Endpoint) {
    let listener = NetListener::bind("127.0.0.1:0").expect("bind tcp");
    let addr = listener
        .describe()
        .strip_prefix("tcp:")
        .expect("tcp listener description")
        .to_string();
    (server::spawn_async(listener, cfg), Endpoint::Tcp(addr))
}

/// Drives a fixed request stream through one client and returns every
/// reply as its encoded frame bytes.
fn drive(endpoint: &Endpoint, requests: u64) -> Vec<Vec<u8>> {
    let mut client = NetClient::new(endpoint.clone(), fast_client());
    (0..requests)
        .map(|i| {
            let reply = client
                .request_with_retry(&loadgen::nth_request(0, i))
                .expect("request");
            encode_frame(&reply).expect("encode reply")
        })
        .collect()
}

/// FNV-1a 64 over the concatenated reply frames (each frame carries its
/// own length prefix, so the concatenation is unambiguous).
fn fnv1a(frames: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in frames.iter().flatten() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The digest of the 24 replies [`drive`] gets for `nth_request(0, 0..24)`
/// from a daemon built by `test_server_cfg(0)`.
const REPLY_STREAM_FNV: u64 = 0x2d6e_26c0_1343_5717;

#[test]
fn reply_stream_matches_the_pinned_digest() {
    for (label, (handle, endpoint)) in [
        ("uds", spawn_uds("replay", test_server_cfg(0))),
        ("tcp", spawn_tcp(test_server_cfg(0))),
    ] {
        let replies = drive(&endpoint, 24);
        NetClient::new(endpoint, fast_client())
            .shutdown()
            .expect("shutdown");
        handle.join().expect("server exits");
        assert_eq!(replies.len(), 24);
        assert_eq!(
            fnv1a(&replies),
            REPLY_STREAM_FNV,
            "{label}: {:#018x}",
            fnv1a(&replies)
        );
    }
}

#[test]
fn uds_end_to_end_with_clamping_and_clean_shutdown() {
    let (handle, endpoint) = spawn_uds("clamp", test_server_cfg(4));

    let mut client = NetClient::new(endpoint, fast_client());
    client.ping(0xFEED).expect("ping");

    // A request for pstate 0 must be clamped to the ceiling's pstate 1,
    // and the IMC window must be bounded by the ceiling's max ratio 20.
    let req = NodeFreqs {
        cpu: 0,
        imc_min_ratio: 12,
        imc_max_ratio: 24,
        imc_dom: ear_core::DomainLimits::LEGACY,
    };
    match client
        .request_with_retry(&WireMsg::Request(EarlRequest::SetFreqs(req)))
        .expect("set_freqs")
    {
        WireMsg::Reply(ear_core::protocol::DaemonReply::FreqsApplied {
            requested,
            granted,
            clamped,
        }) => {
            assert_eq!(requested, req);
            assert!(clamped);
            assert_eq!(granted.cpu, 1);
            assert_eq!(granted.imc_max_ratio, 20);
        }
        other => panic!("expected freqs_applied, got {}", other.kind()),
    }

    // Before any signature the daemon reports its idle power.
    match client
        .request_with_retry(&WireMsg::PollPower { node: 4 })
        .expect("poll")
    {
        WireMsg::Report(r) => {
            assert_eq!(r.node, 4);
            assert!((r.avg_power_w - 120.0).abs() < 1e-9);
        }
        other => panic!("expected gm_report, got {}", other.kind()),
    }

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server exits cleanly");
    assert!(report.shutdown_requested, "exit must be the poison frame");
    assert!(report.accepted >= 1);
    assert!(report.requests >= 4);
    assert_eq!(report.conn_errors, 0);
}

#[test]
fn request_deadline_surfaces_as_typed_timeout() {
    // A bound listener that never accepts: the connect completes through
    // the kernel backlog and the request is buffered, but no reply comes.
    let path = uds_path("deadline");
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind");

    let mut cfg = fast_client();
    cfg.request_timeout = Duration::from_millis(50);
    cfg.retries = 0;
    let mut client = NetClient::new(Endpoint::Unix(path), cfg);
    let err = client.ping(9).expect_err("no reply must hit the deadline");
    assert!(
        ear_netd::codec::is_deadline_error(&err),
        "expected a deadline error, got: {err}"
    );
    drop(listener);
}

#[test]
fn poller_redistributes_the_budget_over_three_daemons() {
    const NODES: usize = 3;
    const BUDGET_W: f64 = 600.0;

    let mut handles = Vec::new();
    let mut endpoints = Vec::new();
    for node in 0..NODES {
        let mut cfg = test_server_cfg(node as u64);
        cfg.eard.ceiling = None;
        // Distinct idle powers make the proportional split observable.
        cfg.eard.idle_power_w = 100.0 + 50.0 * node as f64; // 100, 150, 200
        let (handle, endpoint) = spawn_uds(&format!("poller-{node}"), cfg);
        handles.push(handle);
        endpoints.push(endpoint);
    }

    let mut poller = EargmPoller::new(endpoints.clone(), &fast_client(), BUDGET_W);
    assert_eq!(poller.daemons(), NODES);
    let round = poller.poll_once().expect("poll round");
    assert_eq!(poller.rounds(), 1);

    assert_eq!(round.reports.len(), NODES);
    for (i, r) in round.reports.iter().enumerate() {
        assert_eq!(r.node, i, "reports must come back in daemon order");
    }
    assert!((round.cluster_power_w() - 450.0).abs() < 1e-9);

    // distribute_budget splits proportionally to demand: 600 * d / 450.
    assert_eq!(round.commands.len(), NODES);
    let total_cap: f64 = round.commands.iter().map(|c| c.cap_w).sum();
    assert!((total_cap - BUDGET_W).abs() < 1e-6);
    for (r, c) in round.reports.iter().zip(&round.commands) {
        let expected = BUDGET_W * r.avg_power_w / 450.0;
        assert_eq!(c.node, r.node);
        assert!(
            (c.cap_w - expected).abs() < 1e-9,
            "node {}: cap {} != expected {expected}",
            c.node,
            c.cap_w
        );
    }
    assert!(round.lanes >= 1 && round.lanes <= NODES);

    // Close the poller's connections first so the daemons see clean
    // closes, not idle-deadline collections, before the poison frames.
    drop(poller);
    for endpoint in endpoints {
        NetClient::new(endpoint, fast_client())
            .shutdown()
            .expect("daemon shutdown");
    }
    for h in handles {
        let report = h.join().expect("daemon exits");
        assert!(report.shutdown_requested);
        assert_eq!(report.conn_errors, 0);
    }
}

#[test]
fn async_server_survives_a_mid_frame_kill() {
    let (handle, endpoint) = spawn_uds("async-midframe", test_server_cfg(0));

    // Write a header promising 16 payload bytes, deliver 3, die.
    {
        let mut conn = endpoint.connect(Duration::from_secs(2)).expect("connect");
        let mut torn = encode_frame(&WireMsg::Ping { token: 1 }).expect("encode");
        torn[4..8].copy_from_slice(&16u32.to_le_bytes());
        torn.truncate(8 + 3);
        use std::io::Write;
        conn.write_all(&torn).expect("partial write");
        conn.flush().expect("flush");
    } // dropped: the peer dies mid-frame

    // The server must still serve a fresh, well-behaved client.
    let mut client = NetClient::new(endpoint, fast_client());
    client.ping(7).expect("server survived the torn frame");
    client.shutdown().expect("shutdown");

    let report = handle.join().expect("server exits");
    assert!(report.shutdown_requested);
    assert_eq!(
        report.conn_errors, 1,
        "the torn connection must be counted as exactly one typed error"
    );
}

#[test]
fn async_saturated_server_rejects_with_an_error_frame() {
    let mut cfg = test_server_cfg(0);
    cfg.workers = 0; // every connection is one too many
    cfg.max_seconds = Some(2.0);
    let (handle, endpoint) = spawn_uds("async-saturated", cfg);

    // The refusal races the client's write: depending on timing the
    // client sees the "server saturated" error frame or a closed socket —
    // either way it must be an error, never a reply.
    let mut client = NetClient::new(endpoint, fast_client());
    client.ping(1).expect_err("saturated server must refuse");

    // The poison frame is also refused at workers = 0; stop via budget.
    let report = handle.join().expect("server exits on its budget");
    assert!(report.rejected >= 1);
    assert_eq!(report.accepted, 0);
}

#[test]
fn async_server_coalesces_pipelined_requests_into_batched_flushes() {
    const PIPELINED: u64 = 10;

    let (handle, endpoint) = spawn_uds("async-pipeline", test_server_cfg(0));

    // Write a burst of frames before reading anything: the readiness loop
    // decodes them all from one buffer fill and answers with one write.
    let mut conn = endpoint.connect(Duration::from_secs(2)).expect("connect");
    use std::io::Write;
    let mut burst = Vec::new();
    for token in 0..PIPELINED {
        burst.extend_from_slice(&encode_frame(&WireMsg::Ping { token }).expect("encode"));
    }
    conn.write_all(&burst).expect("burst write");
    conn.flush().expect("flush");
    conn.set_io_timeouts(Some(Duration::from_secs(2)), Some(Duration::from_secs(2)))
        .expect("timeouts");
    for token in 0..PIPELINED {
        match conn.read_msg().expect("read reply") {
            Some(WireMsg::Pong { token: echoed }) => assert_eq!(echoed, token),
            other => panic!("expected pong {token}, got {other:?}"),
        }
    }
    drop(conn);

    NetClient::new(endpoint, fast_client())
        .shutdown()
        .expect("shutdown");
    let report = handle.join().expect("server exits");
    assert_eq!(report.requests, PIPELINED + 1);
    assert_eq!(report.conn_errors, 0);
    // The global counter is monotone and shared across tests, so only its
    // floor is assertable: this burst must have produced at least one
    // multi-frame flush.
    assert!(
        ear_trace::metrics::get(ear_trace::metrics::Metric::NetdBatchedFlushes) >= 1,
        "a pipelined burst must coalesce replies into one write"
    );
}

#[test]
fn async_loadgen_over_uds_reports_dial_excluded_throughput() {
    let (handle, endpoint) = spawn_uds("async-loadgen", test_server_cfg(0));

    let cfg = loadgen::LoadgenConfig {
        clients: 4,
        duration: Duration::from_millis(300),
        client: fast_client(),
        shutdown_after: true,
    };
    let report = loadgen::run(&endpoint, &cfg).expect("loadgen");
    assert!(report.requests > 0, "closed loop must complete requests");
    assert_eq!(report.errors, 0);
    assert!(report.throughput() > 0.0);
    assert!(report.active_seconds > 0.0);
    assert!(
        report.active_seconds <= report.seconds + 1e-9,
        "active window excludes dialing, so it can never exceed the wall clock"
    );
    assert_eq!(report.histogram.count(), report.requests);
    // Quantiles are monotone in q.
    let (p50, p95, p99) = (
        report.histogram.quantile(0.50),
        report.histogram.quantile(0.95),
        report.histogram.quantile(0.99),
    );
    assert!(p50 <= p95 && p95 <= p99);
    assert!(report.histogram.min() > 0);
    assert!(report.histogram.min() <= p50);
    assert!(report.histogram.max() >= p99 / 2);

    let sreport = handle.join().expect("server exits");
    assert!(
        sreport.shutdown_requested,
        "--shutdown must drain the daemon"
    );
    assert_eq!(sreport.conn_errors, 0);
}

#[test]
fn histogram_quantiles_resolve_to_bucket_upper_bounds() {
    let mut h = loadgen::LatencyHistogram::new();
    assert_eq!(h.quantile(0.5), 0, "empty histogram");
    for ns in [100u64, 200, 400, 100_000] {
        h.record(ns);
    }
    assert_eq!(h.count(), 4);
    // 100 and 200 ns land in buckets [64,128) and [128,256): the median
    // resolves to 255, the tail to the bucket holding 100 000 ns.
    assert_eq!(h.quantile(0.5), 255);
    assert_eq!(h.quantile(1.0), (1u64 << 17) - 1);

    let mut other = loadgen::LatencyHistogram::new();
    other.record(100);
    h.merge(&other);
    assert_eq!(h.count(), 5);
}
