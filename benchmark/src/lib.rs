//! End-to-end benchmark of the buffer-insertion flow, the fleet runner and
//! the dispatcher.  See `README.md` in this directory for the workloads and
//! why each was chosen.

pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
