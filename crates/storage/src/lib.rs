//! # mmv-storage
//!
//! In-memory relational storage backing the simulated external databases
//! of the mediated system. The paper integrates PARADOX / DBASE / INGRES
//! tables; the mediator sees them only through set-valued domain calls,
//! so an in-memory store answering the same calls stands in for them.
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
