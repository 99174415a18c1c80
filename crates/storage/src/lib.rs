//! # mmv-storage
//!
//! In-memory relational storage backing the simulated external databases
//! of the mediated system (the paper integrates PARADOX / DBASE / INGRES
//! tables; see DESIGN.md §5 for the substitution argument).
//!
//! The storage layer provides typed tables with hash indexes, a named
//! catalog, and versioned change capture. Change capture is what the
//! domain layer uses to realize the paper's function deltas `f+`/`f-`
//! (Section 4, equations (6)–(7)).

#![warn(missing_docs)]

pub mod catalog;
pub mod index;
pub mod schema;
pub mod table;

pub use catalog::{Catalog, CatalogError, Change, Version};
pub use index::HashIndex;
pub use schema::{ColumnType, Schema, SchemaViolation};
pub use table::{RowId, Table};
