//! # mmv-constraints
//!
//! The constraint substrate of the materialized-mediated-views system
//! (reproduction of Lu, Moerkotte, Schu & Subrahmanian, *Efficient
//! Maintenance of Materialized Mediated Views*, SIGMOD 1995).
//!
//! The paper's view-maintenance algorithms operate on *constrained atoms*
//! `A(X⃗) ← φ`, where `φ` is built from domain-call atoms
//! (`in(X, dom:f(args))`), equalities, disequalities, comparisons, and the
//! `not(·)` construct introduced by the deletion/insertion rewrites. This
//! crate provides:
//!
//! * [`value::Value`] / [`term::Term`] — the term language (including the
//!   record field projections of the HERMES mediator language),
//! * [`constraint::Constraint`] — constraints and their ground semantics,
//! * [`valueset::ValueSet`] — lazy (possibly infinite) domain-call results,
//! * [`solver`] — a sound three-valued satisfiability procedure plus exact
//!   solution enumeration (the `[·]` instance semantics of §2.3),
//! * [`simplify`](fn@simplify) — the equivalence-preserving cleanup the paper applies in
//!   its worked examples,
//! * [`normal`] — negation pushing / DNF,
//! * [`fxhash`] — fast hashing for the engine's hot, integer-keyed maps.

#![warn(missing_docs)]

pub mod constraint;
pub mod fxhash;
pub mod normal;
pub mod simplify;
pub mod solver;
pub mod term;
pub mod value;
pub mod valueset;

pub use constraint::{Call, CmpOp, Constraint, DomainResolver, Lit, NoDomains};
pub use simplify::{simplify, Simplified};
pub use solver::{
    satisfiable, satisfiable_with, solutions, solutions_with, EnumResult, SolverConfig, Truth,
};
pub use term::{Subst, Term, Var, VarGen};
pub use value::{Record, Value};
pub use valueset::{IntBound, ValueSet};
