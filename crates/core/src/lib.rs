//! # ear-core — EARL, the EAR runtime library, with explicit UFS
//!
//! The paper's contribution: a transparent runtime that detects an
//! application's iterative structure (DynAIS over intercepted MPI calls),
//! computes per-loop signatures, and applies pluggable energy policies that
//! now select **both** the CPU pstate and the IMC (uncore) frequency limits
//! on Intel Skylake — the `min_energy_to_solution` policy extended with the
//! CPU_FREQ_SEL → COMP_REF → IMC_FREQ_SEL state machine of the paper's
//! Fig. 2.
//!
//! Layout:
//! * [`signature`] — the loop signature and its change detection.
//! * [`models`] — the default (Bell/Brochard) energy model and the paper's
//!   AVX512 blended model (§V-A).
//! * [`policy`] — the plugin API and the policies: `monitoring`,
//!   `min_energy`, `min_energy_eufs` (the contribution), `min_time` and
//!   `min_time_eufs` (the announced future work).
//! * [`state`] — the EARL state machine (Code 1).
//! * [`earl`] — the runtime binding everything to a simulated node through
//!   the PMPI interception interface.
//! * [`manager`] — frequency actuation through MSR writes.
//! * [`protocol`] — the typed EARL↔EARD↔EARGM message protocol.
//! * [`eard`] — the node daemon (sole MSR-writing layer).
//! * [`accounting`] / [`powercap`] — EAR's accounting and energy-control
//!   services.

#![warn(missing_docs)]

pub mod accounting;
pub mod conf;
pub mod eard;
pub mod earl;
pub mod fit;
pub mod manager;
pub mod models;
pub mod monitor;
pub mod policy;
pub mod powercap;
pub mod protocol;
pub mod signature;
pub mod state;

pub use accounting::{AccountingDb, JobRecord, SharedAccounting};
pub use conf::{parse_ear_conf, render_ear_conf, ConfError};
pub use ear_archsim::MAX_UNCORE_DOMAINS;
pub use ear_errors::{EarError, EarResult};
pub use eard::EarDaemon;
pub use earl::{Earl, EarlConfig};
pub use fit::{fit_poly2, residuals, FitResidual, FittedSurface, Poly2};
pub use models::{
    learn_model_params, Avx512Model, DefaultModel, EnergyModel, ModelFactory, ModelParams,
    ModelRegistry, Projection,
};
pub use monitor::{MonitorSample, MonitorSummary, Monitored};
pub use policy::{
    DomainLimits, DomainSearch, Duf, Fitted, ImcRange, ImcSearch, MinEnergy, MinEnergyEufs,
    MinTime, MinTimeEufs, Monitoring, NodeFreqs, PolicyCtx, PolicyRegistry, PolicySettings,
    PolicyState, PowerPolicy,
};
pub use powercap::{distribute_budget, CapAction, PowercapController};
pub use protocol::{DaemonEndpoint, DaemonReply, EarMessage, EarlRequest, GmCommand, GmReport};
pub use signature::Signature;
pub use state::{EarState, EarlStateMachine, StateOutcome};
