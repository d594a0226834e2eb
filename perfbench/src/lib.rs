//! The repository's end-to-end benchmark: two workloads that drive
//! the Kamino crates from outside through their public APIs, check
//! every output, and report end-to-end metrics (untraced) or per-layer
//! metrics (traced). See `README.md` for the workloads and metrics.

#![deny(unsafe_code)]

pub mod checks;
#[allow(unsafe_code)]
pub mod cpu;
pub mod http;
pub mod inproc;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
