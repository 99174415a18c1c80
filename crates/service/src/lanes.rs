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
//! - Every [`Publication`] method takes the publication lock and drops
//!   it before returning. No guard escapes, so nothing can be acquired
//!   while it is held: the publication lock is a leaf by construction.

use crate::log::Recovery;
use crate::obs::ServiceObs;
use crate::snapshot::{Epoch, ServiceSnapshot, ViewSnapshot};
use mmv_core::shard::{ShardId, ShardMap};
use mmv_core::MaterializedView;
use mmv_obs::sync::{read_clean, write_clean};
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
/// epoch, swapped together under the publication lock.
pub(crate) struct Publication(RwLock<Published>);

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
        (Lanes(lanes), Publication(RwLock::new(published)))
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
        read_clean(&self.0).composite.clone()
    }

    /// The published global epoch.
    pub(crate) fn epoch(&self) -> Epoch {
        read_clean(&self.0).epoch
    }

    /// One shard's published snapshot.
    pub(crate) fn shard(&self, shard: ShardId) -> Arc<ViewSnapshot> {
        read_clean(&self.0).shards[shard].clone()
    }

    /// Counts a batch that has allocated an epoch and is not yet
    /// swapped in.
    pub(crate) fn begin(&self) {
        write_clean(&self.0).unpublished += 1;
    }

    /// Uncounts a batch that was aborted after [`Publication::begin`].
    pub(crate) fn cancel(&self) {
        write_clean(&self.0).unpublished -= 1;
    }

    /// Swaps a batch's frozen shard snapshots in and advances the
    /// global epoch to `epoch` — monotonically: a publication that
    /// waited on the flusher can complete after a higher-epoch batch
    /// on disjoint shards — inside one critical section, and rebuilds
    /// the composite readers clone.
    pub(crate) fn swap(&self, frozen: Frozen, epoch: Epoch) -> Swapped {
        let mut p = write_clean(&self.0);
        for (shard, snapshot) in frozen {
            p.shards[shard] = snapshot;
        }
        p.epoch = p.epoch.max(epoch);
        p.composite = Arc::new(ServiceSnapshot::new(
            p.epoch,
            p.shards.clone(),
            p.shard_map.clone(),
        ));
        p.unpublished -= 1;
        Swapped {
            epoch: p.epoch,
            composite: p.composite.clone(),
            quiescent: p.unpublished == 0,
        }
    }
}
