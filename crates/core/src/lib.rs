//! # mmv-core — Efficient Maintenance of Materialized Mediated Views
//!
//! A faithful implementation of the algorithms of Lu, Moerkotte, Schu &
//! Subrahmanian, *Efficient Maintenance of Materialized Mediated Views*
//! (SIGMOD 1995): incremental maintenance of **non-ground** materialized
//! views over *constrained databases* (mediators in the HERMES style,
//! generalizing Kanellakis-Kuper-Revesz constrained databases).
//!
//! ## The model
//!
//! A mediator is a set of numbered clauses
//! `A(t⃗0) <- D1 & … & Dm || A1(t⃗1), …, An(t⃗n)` ([`program`]), where the
//! `Di` are constraints — domain-call atoms `in(X, dom:f(args))` reaching
//! into external systems, equalities, disequalities, comparisons. The
//! materialized view is a set of *constrained atoms* `A(X⃗) <- φ`
//! ([`atom`], [`view`]) computed by iterating a fixpoint operator
//! ([`tp`]): the Gabbrielli–Levi `T_P`, or the paper's `W_P` which defers
//! all satisfiability checking to query time.
//!
//! ## The algorithms
//!
//! | Paper | Module | What it does |
//! |-------|--------|--------------|
//! | Algorithm 1 (Extended DRed) | [`delete_dred`] | deletion with overestimate + rederivation, on duplicate-free views |
//! | Algorithm 2 (StDel) | [`delete_stdel`] | deletion via supports ([`support`]), **no rederivation** |
//! | Algorithm 3 | [`insert`] | insertion with upward `P_ADD` propagation |
//! | Algorithms 1–3 over update *sets* | [`batch`] | batched transactions: one maintenance pass per [`UpdateBatch`] |
//! | §4 (`W_P`) | [`external`] | zero-cost maintenance under external domain updates (Theorem 4, Corollary 1) |
//! | Declarative semantics (Theorems 1–3) | [`semantics`] | executable oracles the algorithms are tested against |
//!
//! ## Quick start
//!
//! ```
//! use mmv_core::parser::parse_program;
//! use mmv_core::parser::parse_atom;
//! use mmv_core::tp::{fixpoint, FixpointConfig, Operator};
//! use mmv_core::view::SupportMode;
//! use mmv_core::delete_stdel::stdel_delete;
//! use mmv_constraints::{NoDomains, SolverConfig, Value};
//!
//! let parsed = parse_program(
//!     "b(X) <- X >= 5.  a(X) <- || b(X).  c(X) <- || a(X).",
//! ).unwrap();
//! let (mut view, _) = fixpoint(
//!     &parsed.db, &NoDomains, Operator::Tp,
//!     SupportMode::WithSupports, &FixpointConfig::default(),
//! ).unwrap();
//! assert_eq!(view.len(), 3);
//!
//! // Delete b(6): the deletion propagates to a and c along supports,
//! // with no rederivation.
//! let deletion = parse_atom("b(X) <- X = 6").unwrap();
//! stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()).unwrap();
//! let hits = view.query("c", &[Some(Value::int(6))], &NoDomains,
//!                       &SolverConfig::default()).unwrap();
//! assert!(hits.is_empty());
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod batch;
mod bounds;
pub mod delete_dred;
pub mod delete_stdel;
pub mod external;
pub mod insert;
pub mod normalize;
pub mod obs;
pub mod parser;
pub mod pool;
pub mod program;
pub mod semantics;
pub mod store;
pub mod support;
pub mod tp;
pub mod view;

pub use atom::{ConstrainedAtom, Instances};
pub use batch::{
    apply_batch, apply_batch_ticketed, BatchError, BatchStats, DeleteStats, UpdateBatch,
};
pub use delete_dred::{dred_delete, dred_delete_batch, DredError, ExtDredStats};
pub use delete_stdel::{stdel_delete, stdel_delete_batch, StDelError, StDelStats};
pub use external::{MaintenanceAction, MaintenanceStrategy, MediatedMaterializedView};
pub use insert::{insert_atom, insert_batch, insert_batch_ticketed, InsertBatchStats, InsertStats};
pub use parser::{
    parse_atom, parse_atom_exact, parse_entry, parse_program, parse_wal_payload, render_entry,
    render_wal_payload, ParseError, Parsed, ParsedEntry, WalPayload,
};
pub use pool::{panic_message, PoolFaultHook, PoolMetrics, WorkerPool};
pub use program::{BodyAtom, Clause, ClauseId, ConstrainedDatabase, ValidationIssue};
pub use semantics::{
    batch_oracle, deletion_oracle, insertion_oracle, recompute_instances, OracleError,
};
pub use store::{SharedMap, SharedVec};
pub use support::{Producer, Support};
pub use tp::{fixpoint, FixpointConfig, FixpointError, FixpointStats, Operator, ParallelFixpoint};
pub use view::{EntryId, GroundFact, InstanceError, MaterializedView, ShareStats, SupportMode};
