//! Benchmark and experiment harness for the sparse-cut gossip reproduction.
//!
//! The paper has no numbered tables or figures, so the harness regenerates
//! one table per quantitative claim (experiments E1–E10, see
//! `gossip_workloads::experiments`).  The same runner functions back two
//! consumers:
//!
//! * the `experiments` binary (`cargo run -p gossip-bench --release --bin
//!   experiments`), which prints every table and optionally dumps JSON;
//! * the workspace integration tests, which assert the *shape* of the results
//!   (who wins, roughly by how much) on scaled-down instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probes;
pub mod runner;
pub mod table;
pub mod trial;

pub use runner::HarnessConfig;
pub use table::Table;
