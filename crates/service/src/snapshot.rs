//! Epoch-tagged immutable view snapshots.
//!
//! A [`ViewSnapshot`] is a frozen [`MaterializedView`] plus the epoch at
//! which the writer published it. Snapshots are shared as
//! `Arc<ViewSnapshot>`: any number of reader threads can hold and query
//! one concurrently while the writer materializes the next epoch —
//! reads never block maintenance and maintenance never blocks reads
//! (the "stale view" serving discipline: readers observe the most
//! recently *published* consistent state, never a half-maintained one).
//!
//! Since the view is a handle onto a persistent, structurally-shared
//! store (see [`mmv_core::view`]), freezing one here is a handful of
//! `Arc` bumps: the snapshot holds the shared store directly, entries
//! and index pages physically shared with the writer and with every
//! other epoch that hasn't diverged from them. Entry immutability (the
//! writer replaces entries instead of mutating them, and copies any
//! still-shared page before writing) is what makes that sharing safe
//! under concurrent readers. [`PublishStats`] records what one epoch's
//! publication actually cost.

use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{DomainResolver, Value};
use mmv_core::view::GroundFact;
use mmv_core::{InstanceError, MaterializedView, SupportMode};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

/// The cost of publishing one epoch: how long the freeze-and-swap took,
/// and how much of the store the batch's maintenance had to copy
/// (copy-on-write) versus leave shared with previous epochs.
///
/// `*_copied` counts are per-epoch deltas; `*_total` are the store's
/// current totals, so `total - copied` pages stayed physically shared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Wall-clock time to freeze the view into a snapshot and swap it
    /// in — pointer bumps under the shared store, never a deep copy.
    pub publish_latency: Duration,
    /// Entry-slab pages the batch copied because they were still
    /// shared with an older epoch.
    pub entry_pages_copied: u64,
    /// Entry-slab pages currently allocated.
    pub entry_pages_total: usize,
    /// Per-predicate index pages the batch copied.
    pub pred_indexes_copied: u64,
    /// Per-predicate index pages currently allocated.
    pub pred_indexes_total: usize,
    /// Sub-page CoW: `by_const` key/value pairs the batch physically
    /// cloned while un-sharing trie leaves — O(touched keys), to be
    /// compared against `by_const_keys_total` (what whole-index copying
    /// would have paid).
    pub by_const_keys_copied: u64,
    /// `by_const` keys currently held across the view's indexes.
    pub by_const_keys_total: usize,
    /// Sub-page CoW: live-slot pairs the batch cloned while un-sharing
    /// trie leaves.
    pub slot_keys_copied: u64,
}

/// A monotonically increasing snapshot version. Epoch 0 is the freshly
/// built view; every applied batch publishes the next epoch.
pub type Epoch = u64;

/// An immutable materialized view frozen at one epoch: what
/// [`ViewService::snapshot`][crate::ViewService::snapshot] hands
/// readers.
#[derive(Debug, Clone)]
pub struct ViewSnapshot {
    epoch: Epoch,
    view: MaterializedView,
}

impl ViewSnapshot {
    /// Freezes `view` at `epoch`.
    pub fn new(epoch: Epoch, view: MaterializedView) -> Self {
        ViewSnapshot { epoch, view }
    }

    /// The epoch at which this snapshot was published.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The frozen view (for APIs not mirrored below).
    pub fn view(&self) -> &MaterializedView {
        &self.view
    }

    /// A standalone deep copy of the snapshot's live entries
    /// ([`MaterializedView::compact`]), for equality checks (log replay,
    /// recovery) and offline inspection, O(view). It shares no page
    /// with the service, so holding it keeps no epoch's store alive.
    pub fn merged_view(&self) -> MaterializedView {
        self.view.compact()
    }

    /// The snapshot's support mode.
    pub fn mode(&self) -> SupportMode {
        self.view.mode()
    }

    /// Number of live entries in the snapshot.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the snapshot has no live entries.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Answers `pred(pattern)` against the snapshot (`None` positions
    /// are free); see [`MaterializedView::query`].
    pub fn query(
        &self,
        pred: &str,
        pattern: &[Option<Value>],
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
    ) -> Result<BTreeSet<Vec<Value>>, InstanceError> {
        self.view.query(pred, pattern, resolver, config)
    }

    /// Boolean query against the snapshot; see [`MaterializedView::ask`].
    pub fn ask(
        &self,
        pred: &str,
        args: &[Value],
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
    ) -> Result<bool, InstanceError> {
        self.view.ask(pred, args, resolver, config)
    }

    /// The snapshot's full instance set `[M]`; see
    /// [`MaterializedView::instances`].
    pub fn instances(
        &self,
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
    ) -> Result<BTreeSet<GroundFact>, InstanceError> {
        self.view.instances(resolver, config)
    }
}

impl fmt::Display for ViewSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "epoch {}", self.epoch)?;
        self.view.fmt(f)
    }
}
