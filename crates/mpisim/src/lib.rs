//! # ear-mpisim — simulated MPI with PMPI-style interception
//!
//! The paper's EARL intercepts MPI calls through the PMPI profiling
//! interface and is driven entirely by that event stream. This crate
//! provides the simulated equivalent: MPI call vocabulary and hashing
//! ([`MpiEvent::dynais_sample`]), per-node runtime hooks ([`NodeRuntime`]),
//! job descriptions ([`JobSpec`]) and the bulk-synchronous co-simulation
//! driver ([`run_job`]) that executes a job on an `ear-archsim` cluster
//! while delivering every MPI call to the attached runtimes.

#![warn(missing_docs)]

pub mod breakeven;
pub mod call;
pub mod driver;
pub mod intercept;
pub mod job;
pub mod trace;

pub use call::{MpiCall, MpiEvent};
pub use driver::{run_job, JobReport, NodeReport};
pub use intercept::{NodeRuntime, NullRuntime, RecordingRuntime};
pub use job::{CommSpec, IterationSpec, JobSpec};
pub use trace::{Trace, TraceRecord, TracingRuntime};
