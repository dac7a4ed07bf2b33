//! A fixed stand-in for the node-parallel break-even calibration.
//!
//! [`crate::run_job`] steps every job's nodes serially, so nothing is
//! measured or persisted. The module stays only because perfbench still
//! calls [`calibrate_now`] and [`calibration`] and records
//! `break_even_nodes`; both return `usize::MAX`.

/// The break-even node count, fixed at `usize::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    /// `usize::MAX`: no job steps its nodes in parallel.
    pub break_even_nodes: usize,
}

/// Returns the fixed [`Calibration`].
pub fn calibration() -> Calibration {
    Calibration {
        break_even_nodes: usize::MAX,
    }
}

/// Returns the fixed [`Calibration`]; there is nothing to measure.
pub fn calibrate_now() -> Calibration {
    calibration()
}
