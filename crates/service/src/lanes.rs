//! The service's two lock families — the writer lanes and the
//! publication table — behind one module, so their lock order is a
//! property of the types rather than a convention.
//!
//! Nothing outside this module can name a lane mutex or the publication
//! lock:
//!
//! - [`Lanes::lock`] is the only way to acquire lanes. It takes them in
//!   ascending shard order (debug-asserted), the canonical order that
//!   makes lane deadlock impossible, and recovers a lane that a
//!   panicking batch poisoned.
//! - Every [`Publication`] method takes one of its two locks (the
//!   publication lock, or the retired list's) and drops it before
//!   returning. No guard escapes, so nothing can be acquired while
//!   either is held: both are leaves by construction.
//!
//! Writers, not readers, free retired epochs. A swap takes the old
//! composite and the replaced shard snapshots out of the published
//! table and returns them; the writer hands them to
//! [`Publication::reclaim`] after it has released the log lock. That
//! call keeps a list of retired snapshots and drops, on the writer's
//! thread and under no lock, every one that nothing else holds any
//! more. A snapshot a reader (or the checkpointer) still holds stays on
//! the list until a later batch finds it free. So a reader's drop is
//! never the last one, and freeing an epoch's copied pages never lands
//! on a read or under the publication lock. When the last drop fell to
//! whoever held a retired epoch longest, a faster writer handed its
//! readers more garbage to free.

use crate::log::Recovery;
use crate::obs::ServiceObs;
use crate::snapshot::{Epoch, ServiceSnapshot, ViewSnapshot};
use mmv_core::shard::{ShardId, ShardMap};
use mmv_core::MaterializedView;
use mmv_obs::sync::{lock_clean, read_clean, write_clean};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One writer lane's mutable state.
pub(crate) struct LaneState {
    pub(crate) view: MaterializedView,
    pub(crate) epoch: Epoch,
}

impl LaneState {
    /// Re-adopts the lane's last published shard snapshot, view and
    /// epoch — a few `Arc` bumps, not a rebuild — dropping whatever an
    /// unpublished batch left in the writer view.
    pub(crate) fn readopt(&mut self, published: &ViewSnapshot) {
        self.view = published.view().clone();
        self.epoch = published.epoch();
    }
}

/// A held writer lane.
pub(crate) type LaneGuard<'a> = MutexGuard<'a, LaneState>;

/// A batch's frozen next shard snapshots, awaiting the swap.
pub(crate) type Frozen = Vec<(ShardId, Arc<ViewSnapshot>)>;

/// The writer lanes, one mutex per shard.
pub(crate) struct Lanes(Vec<Mutex<LaneState>>);

/// The published table: one frozen snapshot per shard plus the global
/// epoch, swapped together under the publication lock; and the retired
/// snapshots awaiting [`Publication::reclaim`].
pub(crate) struct Publication {
    published: RwLock<Published>,
    /// Oldest first; each composite comes before the shard snapshots it
    /// holds. Only `reclaim` takes this lock, never under another.
    retired: Mutex<Vec<Retired>>,
}

/// A snapshot swapped out of the published table.
pub(crate) enum Retired {
    Composite(Arc<ServiceSnapshot>),
    Shard(Arc<ViewSnapshot>),
}

impl Retired {
    /// Whether a handle other than the retired list's own still exists.
    /// Once the list holds the only one, nothing can clone it any more,
    /// so `false` is final.
    fn held_elsewhere(&self) -> bool {
        match self {
            Retired::Composite(s) => Arc::strong_count(s) > 1,
            Retired::Shard(s) => Arc::strong_count(s) > 1,
        }
    }
}

struct Published {
    shards: Vec<Arc<ViewSnapshot>>,
    shard_map: Arc<ShardMap>,
    epoch: Epoch,
    /// The composite, prebuilt at swap time so a reader's snapshot is
    /// one `Arc` clone, not an O(shards) assembly under the read lock.
    composite: Arc<ServiceSnapshot>,
    /// Batches that hold an allocated epoch — a frame in, or on its
    /// way into, the WAL — and are not yet swapped in (under group
    /// commit: waiting on the flusher).
    unpublished: usize,
}

/// What one [`Publication::swap`] left published.
pub(crate) struct Swapped {
    /// The published global epoch after the swap.
    pub(crate) epoch: Epoch,
    pub(crate) composite: Arc<ServiceSnapshot>,
    /// Whether no other batch holding an allocated epoch is still
    /// unpublished — only then may the composite be checkpointed: one
    /// snapshotted with a lower-epoch batch still in flight would claim
    /// WAL coverage it does not have.
    pub(crate) quiescent: bool,
    /// What the swap took out of the table, for
    /// [`Publication::reclaim`].
    pub(crate) retired: Vec<Retired>,
}

impl Lanes {
    /// Lanes and publication table for `lane_views` (each a shard view
    /// and its shard epoch) at global `epoch`: every lane adopts a
    /// structurally-shared clone of its published shard snapshot.
    pub(crate) fn new(
        lane_views: Vec<(MaterializedView, Epoch)>,
        epoch: Epoch,
        shard_map: Arc<ShardMap>,
    ) -> (Lanes, Publication) {
        let mut shards = Vec::with_capacity(lane_views.len());
        let mut lanes = Vec::with_capacity(lane_views.len());
        for (view, lane_epoch) in lane_views {
            let snapshot = Arc::new(ViewSnapshot::new(lane_epoch, view));
            lanes.push(Mutex::new(LaneState {
                view: snapshot.view().clone(),
                epoch: lane_epoch,
            }));
            shards.push(snapshot);
        }
        let composite = Arc::new(ServiceSnapshot::new(
            epoch,
            shards.clone(),
            shard_map.clone(),
        ));
        let published = Published {
            shards,
            shard_map,
            epoch,
            composite,
            unpublished: 0,
        };
        let publication = Publication {
            published: RwLock::new(published),
            retired: Mutex::new(Vec::new()),
        };
        (Lanes(lanes), publication)
    }

    /// Locks the lanes of `shards`, which must ascend. The waiters
    /// gauge brackets each acquisition so scrapers see per-lane
    /// queueing while it happens.
    ///
    /// A lane that a previous batch's panic poisoned is recovered: the
    /// poison is cleared, its writer view re-adopts its last published
    /// shard snapshot (dropping whatever the panicking batch
    /// half-applied), and `recovered` is told, to journal it.
    #[expect(
        clippy::disallowed_methods,
        reason = "a poisoned lane may be torn; it is rebuilt, not lock_clean'd"
    )]
    pub(crate) fn lock<'a>(
        &'a self,
        shards: impl ExactSizeIterator<Item = ShardId>,
        published: &Publication,
        obs: &ServiceObs,
        mut recovered: impl FnMut(Recovery),
    ) -> Vec<(ShardId, LaneGuard<'a>)> {
        let mut held: Vec<(ShardId, LaneGuard<'a>)> = Vec::with_capacity(shards.len());
        for shard in shards {
            debug_assert!(
                held.last().is_none_or(|(s, _)| *s < shard),
                "lanes are locked in ascending shard order"
            );
            if obs.enabled {
                obs.lane_waiters[shard].inc();
            }
            let lane = &self.0[shard];
            let guard = lane.lock().unwrap_or_else(|poisoned| {
                lane.clear_poison();
                let mut g = poisoned.into_inner();
                let snap = published.shard(shard);
                g.readopt(&snap);
                recovered(Recovery {
                    shard,
                    epoch: snap.epoch(),
                });
                g
            });
            if obs.enabled {
                obs.lane_waiters[shard].dec();
            }
            held.push((shard, guard));
        }
        held
    }
}

impl Publication {
    /// The current composite snapshot: one read-lock acquisition and
    /// one `Arc` clone.
    pub(crate) fn snapshot(&self) -> Arc<ServiceSnapshot> {
        read_clean(&self.published).composite.clone()
    }

    /// The published global epoch.
    pub(crate) fn epoch(&self) -> Epoch {
        read_clean(&self.published).epoch
    }

    /// One shard's published snapshot.
    pub(crate) fn shard(&self, shard: ShardId) -> Arc<ViewSnapshot> {
        read_clean(&self.published).shards[shard].clone()
    }

    /// Counts a batch that has allocated an epoch and is not yet
    /// swapped in.
    pub(crate) fn begin(&self) {
        write_clean(&self.published).unpublished += 1;
    }

    /// Uncounts a batch that was aborted after [`Publication::begin`].
    pub(crate) fn cancel(&self) {
        write_clean(&self.published).unpublished -= 1;
    }

    /// Swaps a batch's frozen shard snapshots in and advances the
    /// global epoch to `epoch` — monotonically: a publication that
    /// waited on the flusher can complete after a higher-epoch batch
    /// on disjoint shards — inside one critical section, and rebuilds
    /// the composite readers clone. The old composite and the replaced
    /// shard snapshots come back in [`Swapped::retired`], composite
    /// first: nothing is dropped under the lock.
    pub(crate) fn swap(&self, frozen: Frozen, epoch: Epoch) -> Swapped {
        let mut p = write_clean(&self.published);
        let replaced: Vec<Arc<ViewSnapshot>> = frozen
            .into_iter()
            .map(|(shard, snapshot)| std::mem::replace(&mut p.shards[shard], snapshot))
            .collect();
        p.epoch = p.epoch.max(epoch);
        let composite = Arc::new(ServiceSnapshot::new(
            p.epoch,
            p.shards.clone(),
            p.shard_map.clone(),
        ));
        let old = std::mem::replace(&mut p.composite, composite.clone());
        p.unpublished -= 1;
        let retired = std::iter::once(Retired::Composite(old))
            .chain(replaced.into_iter().map(Retired::Shard))
            .collect();
        Swapped {
            epoch: p.epoch,
            composite,
            quiescent: p.unpublished == 0,
            retired,
        }
    }

    /// Adds a swap's retired snapshots to the retired list and frees,
    /// on the calling thread, every listed snapshot that nothing else
    /// holds. Callers hold no service lock but their lanes'. The list
    /// is taken out and put back, so no lock is held while snapshots
    /// are dropped; a writer reclaiming at the same moment works on its
    /// own swap's snapshots alone.
    pub(crate) fn reclaim(&self, retired: Vec<Retired>) {
        let mut list = std::mem::take(&mut *lock_clean(&self.retired));
        list.extend(retired);
        // In list order, so dropping a composite can free the shard
        // snapshots after it in the same pass.
        list.retain(Retired::held_elsewhere);
        lock_clean(&self.retired).append(&mut list);
    }

    /// The retired snapshots still held by someone other than the list.
    #[cfg(test)]
    pub(crate) fn retired_len(&self) -> usize {
        lock_clean(&self.retired).len()
    }
}
