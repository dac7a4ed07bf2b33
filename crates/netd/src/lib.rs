//! # ear-netd — the networked EAR daemon stack
//!
//! On production clusters the three EAR components are separate processes
//! wired by sockets: EARL (in the application) talks to its node's EARD
//! over a local socket, and EARGM polls every EARD over TCP. This crate
//! reproduces that plumbing, dependency-free:
//!
//! - [`codec`] — the length-prefixed binary frame codec for the
//!   `ear-core` protocol types: explicit little-endian fields, `f64`
//!   bit-pattern round-tripping, a hard frame-size limit and typed decode
//!   errors (never a panic on hostile bytes).
//! - [`conn`] — the Unix-domain and TCP transports behind one
//!   listener/connection pair.
//! - [`server`] — the EARD service loop: a pure request state machine
//!   ([`EardService`]) behind one nonblocking, `poll(2)`-driven server
//!   with bounded connections, deadlines and poison-frame shutdown.
//! - [`client`] — deadline-guarded requests with bounded jittered-backoff
//!   retries.
//! - [`poller`] — the EARGM side: permit-governed fan-out over N daemons,
//!   report aggregation and cap redistribution.
//! - [`loadgen`] — the closed-loop load generator behind `earsim loadgen`,
//!   with a fixed-bucket latency histogram.
//! - [`readiness`] — a dependency-free `poll(2)` wrapper; the one kernel
//!   primitive the server loop needs.
//! - [`cluster`] — `earsim cluster`: thousands of in-process simulated
//!   daemons behind an EARGM aggregation tree, all traffic through the
//!   real codec.
//!
//! The service counters surfaced in the `earsim-telemetry` line are
//! entries of the `ear_trace::metrics` registry.

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod codec;
pub mod conn;
pub mod loadgen;
pub mod poller;
pub mod readiness;
pub mod server;

pub use client::{ClientConfig, NetClient};
pub use cluster::{ClusterConfig, ClusterReport, SimCluster};
pub use codec::{FrameBuffer, WireMsg, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
pub use conn::{Endpoint, NetConn, NetListener};
pub use loadgen::{LatencyHistogram, LoadReport, LoadgenConfig};
pub use poller::{EargmPoller, PollRound};
pub use server::{EardConfig, EardService, ServerConfig, ServerHandle, ServerReport};
