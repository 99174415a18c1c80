//! # mmv-bench
//!
//! Workload generators and the synthetic sensor domain shared by the
//! `paper` binary (`src/bin/paper.rs`, which measures the source paper's
//! maintenance claims), the repository benchmark in `perfbench/`, and the
//! workspace's integration tests and examples.

#![warn(missing_docs)]

pub mod gen;
pub mod sensors;
