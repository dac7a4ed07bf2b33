//! End-to-end tests of the networked daemon stack: the in-memory pipe and
//! Unix-socket transports must behave identically (byte-identical reply
//! streams), a peer dying mid-frame must degrade to a typed error, the
//! shutdown poison frame must drain the server cleanly, and the EARGM
//! poller must redistribute the cluster budget over every daemon.

use ear_core::policy::NodeFreqs;
use ear_core::protocol::EarlRequest;
use ear_netd::codec::encode_frame;
use ear_netd::server::{self, EardConfig, ServerConfig};
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

#[test]
fn pipe_end_to_end_with_clamping_and_clean_shutdown() {
    let (listener, endpoint) = NetListener::in_memory();
    let handle = server::spawn(listener, test_server_cfg(4));

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
fn pipe_and_unix_socket_produce_byte_identical_replies() {
    const N: u64 = 24;

    let (mem_listener, mem_endpoint) = NetListener::in_memory();
    let mem_server = server::spawn(mem_listener, test_server_cfg(0));
    let mem_replies = drive(&mem_endpoint, N);
    NetClient::new(mem_endpoint, fast_client())
        .shutdown()
        .expect("mem shutdown");
    mem_server.join().expect("mem server");

    let path = uds_path("replay");
    let uds_listener =
        NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind uds");
    let uds_server = server::spawn(uds_listener, test_server_cfg(0));
    let uds_endpoint = Endpoint::Unix(path);
    let uds_replies = drive(&uds_endpoint, N);
    NetClient::new(uds_endpoint, fast_client())
        .shutdown()
        .expect("uds shutdown");
    uds_server.join().expect("uds server");

    assert_eq!(mem_replies.len(), uds_replies.len());
    for (i, (a, b)) in mem_replies.iter().zip(&uds_replies).enumerate() {
        assert_eq!(a, b, "reply {i} differs between pipe and unix socket");
    }
}

#[test]
fn killing_a_connection_mid_frame_never_kills_the_server() {
    let path = uds_path("midframe");
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind");
    let handle = server::spawn(listener, test_server_cfg(0));
    let endpoint = Endpoint::Unix(path);

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
fn saturated_server_rejects_with_an_error_frame() {
    let (listener, endpoint) = NetListener::in_memory();
    let mut cfg = test_server_cfg(0);
    cfg.workers = 0; // every connection is one too many
    cfg.max_seconds = Some(2.0);
    let handle = server::spawn(listener, cfg);

    // The refusal races the client's write: depending on timing the
    // client sees the "server saturated" error frame or a dead pipe —
    // either way it must be an error, never a reply.
    let mut client = NetClient::new(endpoint.clone(), fast_client());
    client.ping(1).expect_err("saturated server must refuse");

    // The poison frame is also refused at workers = 0; stop via budget.
    drop(endpoint);
    let report = handle.join().expect("server exits on its budget");
    assert!(report.rejected >= 1);
    assert_eq!(report.accepted, 0);
}

#[test]
fn request_deadline_surfaces_as_typed_timeout() {
    // A listener nobody services: accepted connections never get replies.
    let (listener, endpoint) = NetListener::in_memory();
    let acceptor = std::thread::spawn(move || {
        // Hold accepted connections open (unanswered) until dropped.
        let mut held = Vec::new();
        while let Ok(conn) = listener.accept_timeout(Duration::from_millis(50)) {
            if let Some(c) = conn {
                held.push(c);
            }
            if !held.is_empty() {
                std::thread::sleep(Duration::from_millis(400));
                break;
            }
        }
        drop(held);
    });

    let mut cfg = fast_client();
    cfg.request_timeout = Duration::from_millis(50);
    cfg.retries = 0;
    let mut client = NetClient::new(endpoint, cfg);
    let err = client.ping(9).expect_err("no reply must hit the deadline");
    assert!(
        ear_netd::codec::is_deadline_error(&err),
        "expected a deadline error, got: {err}"
    );
    acceptor.join().expect("acceptor thread");
}

#[test]
fn poller_redistributes_the_budget_over_three_daemons() {
    const NODES: usize = 3;
    const BUDGET_W: f64 = 600.0;

    let mut handles = Vec::new();
    let mut endpoints = Vec::new();
    for node in 0..NODES {
        let (listener, endpoint) = NetListener::in_memory();
        let mut cfg = test_server_cfg(node as u64);
        cfg.eard.ceiling = None;
        // Distinct idle powers make the proportional split observable.
        cfg.eard.idle_power_w = 100.0 + 50.0 * node as f64; // 100, 150, 200
        handles.push(server::spawn(listener, cfg));
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
fn loadgen_closed_loop_over_the_pipe() {
    let (listener, endpoint) = NetListener::in_memory();
    let handle = server::spawn(listener, test_server_cfg(0));

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
    assert_eq!(report.histogram.count(), report.requests);
    // Quantiles are monotone in q.
    let (p50, p95, p99) = (
        report.histogram.quantile(0.50),
        report.histogram.quantile(0.95),
        report.histogram.quantile(0.99),
    );
    assert!(p50 <= p95 && p95 <= p99);

    let sreport = handle.join().expect("server exits");
    assert!(
        sreport.shutdown_requested,
        "--shutdown must drain the daemon"
    );
    assert_eq!(sreport.conn_errors, 0);
}

// ---------------------------------------------------------------------------
// The readiness-loop server must honour the exact same contract.
// ---------------------------------------------------------------------------

#[test]
fn async_server_replies_are_byte_identical_across_all_transports_and_servers() {
    const N: u64 = 24;

    // Reference stream: the blocking server over the pipe.
    let (listener, endpoint) = NetListener::in_memory();
    let blocking = server::spawn(listener, test_server_cfg(0));
    let reference = drive(&endpoint, N);
    NetClient::new(endpoint, fast_client())
        .shutdown()
        .expect("blocking shutdown");
    blocking.join().expect("blocking server");

    // Async over the pipe.
    let (listener, endpoint) = NetListener::in_memory();
    let mem = server::spawn_async(listener, test_server_cfg(0));
    let mem_replies = drive(&endpoint, N);
    NetClient::new(endpoint, fast_client())
        .shutdown()
        .expect("mem shutdown");
    mem.join().expect("async mem server");

    // Async over a Unix socket.
    let path = uds_path("async-replay");
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind uds");
    let uds = server::spawn_async(listener, test_server_cfg(0));
    let uds_endpoint = Endpoint::Unix(path);
    let uds_replies = drive(&uds_endpoint, N);
    NetClient::new(uds_endpoint, fast_client())
        .shutdown()
        .expect("uds shutdown");
    uds.join().expect("async uds server");

    // Async over TCP (ephemeral port, read back from the listener).
    let listener = NetListener::bind("127.0.0.1:0").expect("bind tcp");
    let addr = listener
        .describe()
        .strip_prefix("tcp:")
        .expect("tcp listener description")
        .to_string();
    let tcp = server::spawn_async(listener, test_server_cfg(0));
    let tcp_endpoint = Endpoint::Tcp(addr);
    let tcp_replies = drive(&tcp_endpoint, N);
    NetClient::new(tcp_endpoint, fast_client())
        .shutdown()
        .expect("tcp shutdown");
    tcp.join().expect("async tcp server");

    for (label, stream) in [
        ("pipe", &mem_replies),
        ("uds", &uds_replies),
        ("tcp", &tcp_replies),
    ] {
        assert_eq!(reference.len(), stream.len());
        for (i, (a, b)) in reference.iter().zip(stream.iter()).enumerate() {
            assert_eq!(
                a, b,
                "reply {i} over {label} differs from the blocking server"
            );
        }
    }
}

#[test]
fn async_server_survives_a_mid_frame_kill() {
    let path = uds_path("async-midframe");
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind");
    let handle = server::spawn_async(listener, test_server_cfg(0));
    let endpoint = Endpoint::Unix(path);

    {
        let mut conn = endpoint.connect(Duration::from_secs(2)).expect("connect");
        let mut torn = encode_frame(&WireMsg::Ping { token: 1 }).expect("encode");
        torn[4..8].copy_from_slice(&16u32.to_le_bytes());
        torn.truncate(8 + 3);
        use std::io::Write;
        conn.write_all(&torn).expect("partial write");
        conn.flush().expect("flush");
    } // dropped: the peer dies mid-frame

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
    let (listener, endpoint) = NetListener::in_memory();
    let mut cfg = test_server_cfg(0);
    cfg.workers = 0;
    cfg.max_seconds = Some(2.0);
    let handle = server::spawn_async(listener, cfg);

    let mut client = NetClient::new(endpoint.clone(), fast_client());
    client.ping(1).expect_err("saturated server must refuse");

    drop(endpoint);
    let report = handle.join().expect("server exits on its budget");
    assert!(report.rejected >= 1);
    assert_eq!(report.accepted, 0);
}

#[test]
fn async_server_coalesces_pipelined_requests_into_batched_flushes() {
    const PIPELINED: u64 = 10;

    let path = uds_path("async-pipeline");
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind");
    let handle = server::spawn_async(listener, test_server_cfg(0));
    let endpoint = Endpoint::Unix(path);

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
    let path = uds_path("async-loadgen");
    let listener = NetListener::bind(path.to_str().expect("utf-8 temp path")).expect("bind");
    let handle = server::spawn_async(listener, test_server_cfg(0));
    let endpoint = Endpoint::Unix(path);

    let cfg = loadgen::LoadgenConfig {
        clients: 4,
        duration: Duration::from_millis(300),
        client: fast_client(),
        shutdown_after: true,
    };
    let report = loadgen::run(&endpoint, &cfg).expect("loadgen");
    assert!(report.requests > 0);
    assert_eq!(report.errors, 0);
    assert!(report.active_seconds > 0.0);
    assert!(
        report.active_seconds <= report.seconds + 1e-9,
        "active window excludes dialing, so it can never exceed the wall clock"
    );
    assert!(report.histogram.min() > 0);
    assert!(report.histogram.min() <= report.histogram.quantile(0.5));
    assert!(report.histogram.max() >= report.histogram.quantile(0.99) / 2);

    let sreport = handle.join().expect("server exits");
    assert!(sreport.shutdown_requested);
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
