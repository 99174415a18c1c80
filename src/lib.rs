//! # mmv — Materialized Mediated Views
//!
//! A reproduction, as a production-quality Rust workspace, of
//! **Lu, Moerkotte, Schu & Subrahmanian, "Efficient Maintenance of
//! Materialized Mediated Views" (SIGMOD 1995)**.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`mmv-core`) — the paper's contribution: `T_P`/`W_P`
//!   fixpoints over constrained databases, support-tracked non-ground
//!   views, Extended DRed, Straight Delete, insertion, and the
//!   zero-maintenance external-update story of Section 4.
//! * [`constraints`] (`mmv-constraints`) — the constraint language and
//!   solver substrate.
//! * [`domains`] (`mmv-domains`) — the mediator's external systems
//!   (arith, relational, spatial, face recognition, text) behind the
//!   `in(X, dom:f(args))` domain calls.
//! * [`service`] (`mmv-service`) — the concurrent view service: batched
//!   update transactions, epoch-tagged snapshot reads, and a replayable
//!   update log over the core maintenance algorithms.
//! * [`obs`] (`mmv-obs`) — dependency-free observability: the lock-free
//!   metrics registry, batch-lifecycle traces, and Prometheus/JSON
//!   exposition the service reports through.
//! * [`storage`] (`mmv-storage`) — the relational engine backing the
//!   simulated PARADOX/DBASE databases.
//! * [`datalog`] (`mmv-datalog`) — ground Datalog baselines (semi-naive,
//!   DRed, counting, recomputation).
//!
//! See `examples/` for runnable scenarios (start with
//! `cargo run --example quickstart`) and DESIGN.md / EXPERIMENTS.md for
//! the reproduction map.

pub use mmv_constraints as constraints;
pub use mmv_core as core;
pub use mmv_datalog as datalog;
pub use mmv_domains as domains;
pub use mmv_obs as obs;
pub use mmv_service as service;
pub use mmv_storage as storage;
