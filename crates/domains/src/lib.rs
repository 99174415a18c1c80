//! # mmv-domains
//!
//! The mediator's *domain* substrate: the external systems (databases,
//! software packages) that the paper's constrained-database rules access
//! through DCA-atoms `in(X, domainname:function(args))`, plus the
//! [`DomainManager`] that resolves those calls.
//!
//! The concrete domains mirror the paper's law-enforcement mediator
//! (Example 1) and constrained-database example (Example 2):
//!
//! * [`arith::ArithDomain`] — Kanellakis-style arithmetic constraints with
//!   lazily represented infinite sets,
//! * [`relational::RelationalDomain`] — PARADOX/DBASE stand-ins over
//!   `mmv-storage` catalogs,
//! * [`spatial::SpatialDomain`] — address geocoding and range predicates,
//! * [`face::FacePackage`] — synthetic `facextract`/`facedb` package,
//! * [`text::TextDomain`] — file/text source.
//!
//! [`versioned::DeltaTracker`] computes the paper's function deltas
//! `f+`/`f-` (Section 4, equations (6)–(7)) between time points.

#![warn(missing_docs)]

pub mod arith;
pub mod face;
pub mod manager;
pub mod relational;
pub mod spatial;
pub mod text;
pub mod versioned;

pub use arith::ArithDomain;
pub use face::{FaceDbDomain, FaceExtractDomain, FaceId, FacePackage};
pub use manager::{CallStats, Domain, DomainManager};
pub use relational::RelationalDomain;
pub use spatial::SpatialDomain;
pub use text::TextDomain;
pub use versioned::{CallDelta, DeltaTracker, GroundCall};
