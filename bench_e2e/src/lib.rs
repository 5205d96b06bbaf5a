//! End-to-end benchmark of the DBAugur reproduction: one user session
//! per workload (log → ack → forecast → crash → recover) through the
//! shipped public API, with per-layer attribution from a traced run.
//! See `README.md` beside this crate.

pub mod acks;
pub mod session;
pub mod spans;
pub mod stats;
pub mod workload;
