//! The service's two locks — the writer lock over the one writer view,
//! and the publication table — behind one module, so their lock order
//! is a property of the types rather than a convention.
//!
//! Nothing outside this module can name the writer mutex or the
//! publication lock:
//!
//! - [`Writer::lock`] is the only way to acquire the writer view. It
//!   recovers a view that a panicking batch poisoned.
//! - Every [`Publication`] method takes one of its two locks (the
//!   publication lock, or the retired list's) and drops it before
//!   returning. No guard escapes, so nothing can be acquired while
//!   either is held: both are leaves by construction.
//!
//! Only the holder of the writer lock publishes, so while it holds the
//! lock the published epoch and ticket counter are its own: a batch
//! takes the next of each from the table, and nothing needs undoing when
//! it fails before the swap.
//!
//! Writers, not readers, free retired epochs. A swap takes the old
//! snapshot out of the published table and returns it; the writer hands
//! it to [`Publication::reclaim`]. That call keeps a list of retired
//! snapshots and drops, on the writer's thread and under no lock, every
//! one that nothing else holds any more. A snapshot a reader (or the
//! checkpointer) still holds stays on the list until a later batch finds
//! it free. So a reader's drop is never the last one, and freeing an
//! epoch's copied pages never lands on a read or under the publication
//! lock. When the last drop fell to whoever held a retired epoch
//! longest, a faster writer handed its readers more garbage to free.

use crate::log::Recovery;
use crate::obs::ServiceObs;
use crate::snapshot::{Epoch, ViewSnapshot};
use mmv_core::MaterializedView;
use mmv_obs::sync::{lock_clean, read_clean, write_clean};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// The held writer view.
pub(crate) type WriterGuard<'a> = MutexGuard<'a, MaterializedView>;

/// The writer view behind the one writer mutex.
pub(crate) struct Writer(Mutex<MaterializedView>);

/// The published table: the current snapshot and the ticket counter
/// after its batches, swapped together under the publication lock; and
/// the retired snapshots awaiting [`Publication::reclaim`].
pub(crate) struct Publication {
    published: RwLock<Published>,
    /// Oldest first. Only `reclaim` takes this lock, never under another.
    retired: Mutex<Vec<Arc<ViewSnapshot>>>,
}

struct Published {
    snapshot: Arc<ViewSnapshot>,
    /// The next external-insertion ticket.
    tickets: u64,
}

impl Writer {
    /// The writer lock and publication table over `view`, published at
    /// `epoch` with ticket counter `tickets`: the writer adopts a
    /// structurally-shared clone of the published snapshot.
    pub(crate) fn new(view: MaterializedView, epoch: Epoch, tickets: u64) -> (Writer, Publication) {
        let snapshot = Arc::new(ViewSnapshot::new(epoch, view));
        let writer = Writer(Mutex::new(snapshot.view().clone()));
        let publication = Publication {
            published: RwLock::new(Published { snapshot, tickets }),
            retired: Mutex::new(Vec::new()),
        };
        (writer, publication)
    }

    /// Locks the writer view. The waiters gauge brackets the acquisition
    /// so scrapers see queueing while it happens.
    ///
    /// A view that a previous batch's panic poisoned is recovered: the
    /// poison is cleared, the view re-adopts the last published
    /// snapshot's (dropping whatever the panicking batch half-applied),
    /// and `recovered` is told, to journal it.
    #[expect(
        clippy::disallowed_methods,
        reason = "a poisoned writer view may be torn; it is re-adopted, not lock_clean'd"
    )]
    pub(crate) fn lock<'a>(
        &'a self,
        published: &Publication,
        obs: &ServiceObs,
        recovered: impl FnOnce(Recovery),
    ) -> WriterGuard<'a> {
        if obs.enabled {
            obs.writer_waiters.inc();
        }
        let guard = self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut view = poisoned.into_inner();
            let snap = published.snapshot();
            *view = snap.view().clone();
            recovered(Recovery {
                epoch: snap.epoch(),
            });
            view
        });
        if obs.enabled {
            obs.writer_waiters.dec();
        }
        guard
    }
}

impl Publication {
    /// The current snapshot: one read-lock acquisition and one `Arc`
    /// clone.
    pub(crate) fn snapshot(&self) -> Arc<ViewSnapshot> {
        read_clean(&self.published).snapshot.clone()
    }

    /// The published epoch.
    pub(crate) fn epoch(&self) -> Epoch {
        read_clean(&self.published).snapshot.epoch()
    }

    /// The current snapshot and the ticket counter after its batches,
    /// read together (what a checkpoint records).
    pub(crate) fn state(&self) -> (Arc<ViewSnapshot>, u64) {
        let p = read_clean(&self.published);
        (p.snapshot.clone(), p.tickets)
    }

    /// Swaps a batch's frozen snapshot and the ticket counter after it
    /// in, inside one critical section. The old snapshot comes back for
    /// [`Publication::reclaim`]: nothing is dropped under the lock.
    pub(crate) fn swap(&self, snapshot: Arc<ViewSnapshot>, tickets: u64) -> Arc<ViewSnapshot> {
        let mut p = write_clean(&self.published);
        p.tickets = tickets;
        std::mem::replace(&mut p.snapshot, snapshot)
    }

    /// Adds a swap's retired snapshot to the retired list and frees, on
    /// the calling thread, every listed snapshot that nothing else
    /// holds. The list is taken out and put back, so no lock is held
    /// while snapshots are dropped.
    pub(crate) fn reclaim(&self, retired: Arc<ViewSnapshot>) {
        let mut list = std::mem::take(&mut *lock_clean(&self.retired));
        list.push(retired);
        // Once the list holds the only handle, nothing can clone it any
        // more, so a snapshot dropped here is never needed again.
        list.retain(|s| Arc::strong_count(s) > 1);
        lock_clean(&self.retired).append(&mut list);
    }

    /// The retired snapshots still held by someone other than the list.
    #[cfg(test)]
    pub(crate) fn retired_len(&self) -> usize {
        lock_clean(&self.retired).len()
    }
}
