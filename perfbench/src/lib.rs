//! Wall-clock benchmark of the MobiVine fleet.
//!
//! A measured run builds fresh fleets through `Fleet::build` and drives
//! each through a fixed op count from one closed-loop thread, timing
//! every app-facing call. A separate traced run times calls into each
//! layer's public functions from outside and records them as spans.
//! `NOTES.md` says why each workload exists and what each metric
//! should move.

pub mod alloc;
mod check;
mod drive;
pub mod measure;
mod rebuild;
pub mod report;
mod spans;
mod stats;
pub mod traced;
pub mod workload;
