//! A live job stream over a powercapped fleet.
//!
//! Every experiment so far runs one job on an otherwise empty cluster.
//! Production EARGM does not have that luxury: jobs arrive continuously,
//! each grabs a few nodes, and the global power budget has to be
//! re-divided every time the fleet's composition changes. This crate
//! closes that gap with a deterministic discrete-event simulation:
//!
//! * [`arrivals`] draws a seeded Poisson arrival plan from the workload
//!   catalog — exponential inter-arrival gaps, sampled applications, node
//!   counts and iteration counts — entirely up front, so the same seed
//!   always produces the same stream regardless of how the jobs are later
//!   executed.
//! * [`stream`] runs the plan against a fleet of EARD agents. Every
//!   control exchange (power poll, cap command, signature report) travels
//!   as encoded wire frames through the real `ear-netd` codec — either
//!   through in-process [`ear_netd::EardService`] state machines behind
//!   [`ear_netd::FrameBuffer`]s (the default), or over Unix-domain
//!   sockets against real [`ear_netd::server::spawn_async`] servers (the
//!   CI smoke configuration). On every admission and completion the
//!   manager re-polls the fleet and redistributes the budget
//!   ([`ear_core::powercap::distribute_budget`]), so caps follow the job
//!   mix exactly as EAR's cluster manager rebalances a machine room.
//! * Each admitted job executes on a fresh `ear-archsim` cluster under
//!   the full enforcement stack: the `powercap` policy searches
//!   (pstate, uncore) under the granted cap, the node daemon clamps, and
//!   the RAPL PL1 limiter backstops in the MSRs.
//!
//! Virtual time is integer microseconds; all queueing decisions are FCFS
//! with lowest-index slot allocation. Nothing in the crate consults wall
//! clocks or OS randomness, so a stream is byte-identical across re-runs
//! and worker-thread counts.

pub mod arrivals;
pub mod stream;

pub use arrivals::{generate_plan, Arrival, ArrivalConfig};
pub use stream::{rapl_pkg_limit_w, run_stream, JobOutcome, StreamConfig, StreamReport, Wire};
