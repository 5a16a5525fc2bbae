//! # tally-baselines — the GPU-sharing systems Tally is compared against
//!
//! Re-implementations of the paper's four non-intrusive baselines plus the
//! two Figure-7b ablations, all speaking the same
//! [`tally_core::system::SharingSystem`] interface as Tally
//! itself:
//!
//! * [`TimeSlicing`] — NVIDIA's temporal sharing: round-robin context
//!   quanta, kernel-boundary switches, priority-agnostic;
//! * [`Mps`] — NVIDIA MPS: eager spatial sharing, submission-order block
//!   dispatch;
//! * [`Mps::with_priority`] — MPS with the client-priority feature:
//!   waiting high-priority blocks dispatch first, but resident best-effort
//!   blocks run to completion and bandwidth is shared;
//! * [`Tgs`] — transparent GPU sharing via adaptive (AIMD) kernel-level
//!   rate control of the best-effort job;
//! * [`Mps::no_scheduling`] — the *No-Scheduling* ablation;
//! * [`KernelLevelPriority`] — *Scheduling w/o Transformations*: Tally's
//!   policy at whole-kernel granularity.
//!
//! ```
//! use tally_baselines::{all_baselines, Mps, Tgs, TimeSlicing};
//! use tally_core::system::SharingSystem;
//!
//! let baselines = all_baselines();
//! let names: Vec<&str> = baselines.iter().map(|b| b.name()).collect();
//! assert_eq!(names, ["time-slicing", "mps", "mps-priority", "tgs"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod kernel_priority;
mod mps;
mod tgs;
mod time_slicing;

pub use kernel_priority::KernelLevelPriority;
pub use mps::Mps;
pub use tgs::Tgs;
pub use time_slicing::TimeSlicing;

use tally_core::system::SharingSystem;

/// The paper's four baseline systems, in Figure 5 order, freshly
/// constructed (each run needs its own instance — systems keep state).
pub fn all_baselines() -> Vec<Box<dyn SharingSystem>> {
    vec![
        Box::new(TimeSlicing::new()),
        Box::new(Mps::new()),
        Box::new(Mps::with_priority()),
        Box::new(Tgs::new()),
    ]
}
