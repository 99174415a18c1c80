//! The repository benchmark: four steady-state maintenance workloads
//! over the materialized-view service, measured end to end and layer by
//! layer from outside, through public functions only. See `README.md`.

pub mod compare;
pub mod gen;
pub mod ground;
pub mod harness;
pub mod json;
pub mod report;
pub mod spans;
pub mod workloads;
