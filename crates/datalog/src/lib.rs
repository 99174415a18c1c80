//! # mmv-datalog
//!
//! A ground (unconstrained) Datalog engine with the three maintenance
//! baselines the paper positions itself against:
//!
//! * [`eval::evaluate`] — semi-naive bottom-up evaluation (and
//!   [`eval::recompute`], the full-recomputation baseline),
//! * [`dred`] — the DRed delete/rederive algorithm of Gupta, Mumick &
//!   Subrahmanian \[22\] that §3.1.1 extends to constraints,
//! * [`counting`] — the derivation-counting algorithm of Gupta, Katiyar &
//!   Mumick \[21\], which rejects recursive programs (the "infinite
//!   counts" limitation StDel removes).
//!
//! Ground programs are also the bridge for differential testing: the
//! constrained engine in `mmv-core` specializes to this engine on ground
//! inputs.

#![warn(missing_docs)]

pub mod ast;
pub mod counting;
pub mod database;
pub mod dred;
pub mod eval;
pub mod program;

pub use ast::{DlAtom, DlRule, DlTerm, DlVar, Fact, UnsafeRule};
pub use counting::CountingEngine;
pub use database::{Database, Relation};
pub use dred::{apply_update, DredStats};
pub use eval::{evaluate, recompute};
pub use program::{DlProgram, Recursive};
