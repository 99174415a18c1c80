//! # mmv-bench
//!
//! Workload generators, the synthetic sensor domain, and the experiment
//! harness for the reproduction's benchmark suite. Each experiment from
//! DESIGN.md §4 (E1–E7) has a binary under `src/bin/` that regenerates
//! its table; `benches/maintenance.rs` mirrors the core comparisons in
//! Criterion for statistically tracked numbers.

#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod sensors;
