//! # ear-archsim — simulated Intel Skylake-SP node hardware
//!
//! This crate is the hardware substrate for the EAR explicit-UFS
//! reproduction. It models, at the fidelity the EAR runtime actually
//! observes, the platform of the paper's evaluation:
//!
//! * **MSR file** with SDM-accurate bit layouts: `MSR_UNCORE_RATIO_LIMIT`
//!   (0x620), RAPL (`0x606`/`0x611`/`0x619` with 32-bit wrap and unit
//!   decoding), `IA32_PERF_CTL`, EPB, APERF/MPERF and fixed counters.
//! * **DVFS** with the EAR pstate convention (0 = turbo, 1 = nominal) and
//!   the AVX512 licence frequency cap (2.2 GHz all-core on the Gold 6148).
//! * **Firmware UFS control loop** reacting every ~10 ms within the
//!   programmed ratio limits — the "hardware UFS" the paper compares
//!   against; pinning `min == max` through the MSR overrides it, which is
//!   exactly the mechanism EAR's explicit UFS uses.
//! * **Analytic performance model** (core / uncore-latency / DRAM-bandwidth
//!   decomposition) and **power model** (cores + uncore + DRAM + constant
//!   platform baseline + GPUs), calibrated to the paper's characterisation
//!   tables.
//! * **Intel Node Manager** DC energy counter with 1 s update granularity,
//!   and RAPL package energy — the two power scopes the paper contrasts in
//!   its Table VII.
//!
//! Execution is demand-driven: workloads present [`PhaseDemand`]s, the node
//! turns them into time, counters and energy. See the repo-level DESIGN.md
//! for the substitution argument (why a demand-driven simulator preserves
//! the behaviour the paper's policies depend on).

#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod counters;
pub mod demand;
pub mod hwufs;
pub mod inm;
pub mod msr;
pub mod node;
pub mod perf;
pub mod power;
pub mod pstate;
#[doc(hidden)]
pub mod repeat;
pub mod rng;
pub mod time;

pub use cluster::{Cluster, Interconnect};
pub use config::{HwUfsParams, NodeConfig, PerfParams, PowerParams};
pub use counters::{CounterDelta, CounterSnapshot, SocketCounters};
pub use demand::PhaseDemand;
pub use msr::{MsrError, MsrFile, MAX_UNCORE_DOMAINS};
pub use node::{Node, PhaseOutcome, Socket, SPIN_CPI};
pub use pstate::{Pstate, PstateTable};
pub use rng::Xoshiro256;
pub use time::{Clock, SimTime};
