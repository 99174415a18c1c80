//! Observability hooks for the core maintenance algorithms.
//!
//! [`CoreMetrics`] owns detached `mmv-obs` counters for the fixpoint,
//! Extended DRed, StDel, insertion, and copy-on-write store statistics.
//! The algorithms themselves stay metric-free — they keep returning their
//! plain stats structs ([`FixpointStats`], [`ExtDredStats`], ...) and a
//! caller (the view service) feeds those into a `CoreMetrics` after each
//! batch via [`CoreMetrics::record_batch`]. Recording is a handful of
//! relaxed atomic adds; registration into a
//! [`mmv_obs::MetricsRegistry`] happens once at service build time.

use crate::batch::{BatchStats, DeleteStats};
use crate::delete_dred::ExtDredStats;
use crate::tp::FixpointStats;
use mmv_obs::{Counter, MetricsRegistry};

/// Detached counters for every statistic the core algorithms report.
#[derive(Clone, Debug, Default)]
pub struct CoreMetrics {
    /// Semi-naive fixpoint rounds executed.
    pub fixpoint_iterations: Counter,
    /// Derivations constructed before dedup/solvability filtering.
    pub fixpoint_derivations: Counter,
    /// Derivations discarded by the `T_P` solvability check.
    pub fixpoint_pruned_unsolvable: Counter,
    /// Derivations discarded as syntactically false.
    pub fixpoint_pruned_syntactic: Counter,
    /// Join-position lookups answered by the constant-argument index.
    pub index_probes: Counter,
    /// Candidate entries scanned across all join-position lookups.
    pub candidates_scanned: Counter,
    /// Entries weakened by Extended DRed's over-deletion step.
    pub dred_weakened: Counter,
    /// Entries added back by Extended DRed rederivation.
    pub dred_rederived: Counter,
    /// Entries removed by either deletion algorithm.
    pub delete_removed: Counter,
    /// Satisfiability tests performed by the deletion algorithms.
    pub delete_solver_calls: Counter,
    /// Candidates the deletion algorithms dismissed by the
    /// argument-bounds pre-check instead of a satisfiability test.
    pub delete_prefiltered: Counter,
    /// View entries and fact clauses the deletion algorithms' bounds
    /// selectors visited.
    pub delete_selected: Counter,
    /// Entries replaced by StDel (direct + support propagation), each
    /// at most once per batch.
    pub stdel_replacements: Counter,
    /// Entries StDel's upward step visited (those with an affected
    /// child).
    pub stdel_walked: Counter,
    /// Entries StDel emptied through an emptied child, with no tie and
    /// no solver call.
    pub delete_emptied: Counter,
    /// Base entries materialized by batched insertion.
    pub insert_added: Counter,
    /// Entries derived by upward insertion propagation.
    pub insert_propagated: Counter,
    /// Satisfiability tests performed while building `Add` entries.
    pub insert_solver_calls: Counter,
    /// View entries an `Add` build dismissed by the argument-bounds
    /// pre-check instead of a satisfiability test.
    pub insert_prefiltered: Counter,
    /// View entries the `Add` builds' bounds selector visited.
    pub insert_selected: Counter,
    /// Entry-slab pages copied because they were shared with a snapshot.
    pub store_entry_pages_copied: Counter,
    /// Predicate indexes copied because they were shared with a snapshot.
    pub store_pred_indexes_copied: Counter,
    /// `by_const` key/value pairs physically cloned while un-sharing
    /// trie leaves (the sub-page CoW cost; compare against whole-index
    /// key counts to see the saving).
    pub store_by_const_keys_copied: Counter,
    /// Live-slot pairs cloned while un-sharing trie leaves.
    pub store_slot_keys_copied: Counter,
}

impl CoreMetrics {
    /// Creates a fresh set of zeroed, unregistered counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one batch's statistics into the counters.
    pub fn record_batch(&self, stats: &BatchStats) {
        stats.inserts.fixpoint.record_into(self);
        self.insert_added.add(stats.inserts.added as u64);
        self.insert_propagated.add(stats.inserts.propagated as u64);
        self.insert_solver_calls
            .add(stats.inserts.solver_calls as u64);
        self.insert_prefiltered
            .add(stats.inserts.prefiltered as u64);
        self.insert_selected.add(stats.inserts.selected as u64);
        match &stats.deletes {
            DeleteStats::None => {}
            DeleteStats::Dred(d) => d.record_into(self),
            DeleteStats::StDel(s) => {
                self.stdel_replacements
                    .add((s.direct_replacements + s.propagated_replacements) as u64);
                self.stdel_walked.add(s.walked as u64);
                self.delete_emptied.add(s.emptied as u64);
                self.delete_removed.add(s.removed as u64);
                self.delete_solver_calls.add(s.solver_calls as u64);
                self.delete_prefiltered.add(s.prefiltered as u64);
                self.delete_selected.add(s.selected as u64);
            }
        }
    }

    /// Records copy-on-write page/index copies (a delta, not a total).
    pub fn record_copies(&self, entry_pages: u64, pred_indexes: u64) {
        self.store_entry_pages_copied.add(entry_pages);
        self.store_pred_indexes_copied.add(pred_indexes);
    }

    /// Records sub-page key-level copies (a delta, not a total): the
    /// `by_const` and slot pairs cloned by trie-leaf un-sharing.
    pub fn record_key_copies(&self, by_const_keys: u64, slot_keys: u64) {
        self.store_by_const_keys_copied.add(by_const_keys);
        self.store_slot_keys_copied.add(slot_keys);
    }

    /// Registers every counter into `registry` under its `mmv_` name.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        let c = |name, help, handle: &Counter| {
            registry.register_counter(name, help, &[], handle);
        };
        c(
            "mmv_fixpoint_iterations_total",
            "Semi-naive fixpoint rounds executed",
            &self.fixpoint_iterations,
        );
        c(
            "mmv_fixpoint_derivations_total",
            "Derivations constructed before filtering",
            &self.fixpoint_derivations,
        );
        c(
            "mmv_fixpoint_pruned_unsolvable_total",
            "Derivations discarded by the T_P solvability check",
            &self.fixpoint_pruned_unsolvable,
        );
        c(
            "mmv_fixpoint_pruned_syntactic_total",
            "Derivations discarded as syntactically false",
            &self.fixpoint_pruned_syntactic,
        );
        c(
            "mmv_fixpoint_index_probes_total",
            "Join lookups answered by the constant-argument index",
            &self.index_probes,
        );
        c(
            "mmv_fixpoint_candidates_scanned_total",
            "Candidate entries scanned across join lookups",
            &self.candidates_scanned,
        );
        c(
            "mmv_dred_weakened_total",
            "Entries weakened by Extended DRed over-deletion",
            &self.dred_weakened,
        );
        c(
            "mmv_dred_rederived_total",
            "Entries rederived by Extended DRed",
            &self.dred_rederived,
        );
        c(
            "mmv_delete_removed_total",
            "Entries removed by the deletion algorithms",
            &self.delete_removed,
        );
        c(
            "mmv_delete_solver_calls_total",
            "Satisfiability tests performed during deletion",
            &self.delete_solver_calls,
        );
        c(
            "mmv_delete_prefiltered_total",
            "Deletion candidates dismissed by the argument-bounds pre-check",
            &self.delete_prefiltered,
        );
        c(
            "mmv_delete_selected_total",
            "View entries and fact clauses the deletion bounds selectors visited",
            &self.delete_selected,
        );
        c(
            "mmv_delete_emptied_total",
            "Entries emptied through an emptied child, untied and unsolved",
            &self.delete_emptied,
        );
        c(
            "mmv_stdel_replacements_total",
            "Entries replaced by StDel",
            &self.stdel_replacements,
        );
        c(
            "mmv_stdel_walked_total",
            "Entries StDel's upward step visited",
            &self.stdel_walked,
        );
        c(
            "mmv_insert_added_total",
            "Base entries materialized by insertion",
            &self.insert_added,
        );
        c(
            "mmv_insert_propagated_total",
            "Entries derived by insertion propagation",
            &self.insert_propagated,
        );
        c(
            "mmv_insert_solver_calls_total",
            "Satisfiability tests performed while building Add entries",
            &self.insert_solver_calls,
        );
        c(
            "mmv_insert_prefiltered_total",
            "Add-build candidates dismissed by the argument-bounds pre-check",
            &self.insert_prefiltered,
        );
        c(
            "mmv_insert_selected_total",
            "View entries the Add-build bounds selector visited",
            &self.insert_selected,
        );
        c(
            "mmv_store_entry_pages_copied_total",
            "CoW entry-slab pages copied for snapshot isolation",
            &self.store_entry_pages_copied,
        );
        c(
            "mmv_store_pred_indexes_copied_total",
            "CoW predicate indexes copied for snapshot isolation",
            &self.store_pred_indexes_copied,
        );
        c(
            "mmv_store_by_const_keys_copied_total",
            "Sub-page CoW: by_const key/value pairs cloned by trie-leaf un-sharing",
            &self.store_by_const_keys_copied,
        );
        c(
            "mmv_store_slot_keys_copied_total",
            "Sub-page CoW: live-slot pairs cloned by trie-leaf un-sharing",
            &self.store_slot_keys_copied,
        );
    }
}

impl FixpointStats {
    /// Feeds this run's counters into a [`CoreMetrics`].
    pub fn record_into(&self, m: &CoreMetrics) {
        m.fixpoint_iterations.add(self.iterations as u64);
        m.fixpoint_derivations.add(self.derivations_tried as u64);
        m.fixpoint_pruned_unsolvable
            .add(self.pruned_unsolvable as u64);
        m.fixpoint_pruned_syntactic
            .add(self.pruned_syntactic as u64);
        m.index_probes.add(self.index_probes as u64);
        m.candidates_scanned.add(self.candidates_scanned as u64);
    }
}

impl ExtDredStats {
    /// Feeds this run's counters into a [`CoreMetrics`].
    pub fn record_into(&self, m: &CoreMetrics) {
        m.dred_weakened.add(self.weakened as u64);
        m.dred_rederived.add(self.rederived as u64);
        m.delete_removed.add(self.removed as u64);
        m.delete_solver_calls.add(self.solver_calls as u64);
        m.delete_prefiltered.add(self.prefiltered as u64);
        m.delete_selected.add(self.selected as u64);
        m.index_probes.add(self.index_probes as u64);
        m.candidates_scanned.add(self.candidates_scanned as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delete_stdel::StDelStats;
    use crate::insert::InsertBatchStats;

    #[test]
    fn batch_stats_feed_counters() {
        let m = CoreMetrics::new();
        let stats = BatchStats {
            deletes: DeleteStats::Dred(ExtDredStats {
                weakened: 2,
                rederived: 1,
                removed: 3,
                solver_calls: 7,
                index_probes: 5,
                candidates_scanned: 11,
                prefiltered: 13,
                selected: 17,
                ..ExtDredStats::default()
            }),
            inserts: InsertBatchStats {
                added: 4,
                propagated: 6,
                fixpoint: FixpointStats {
                    iterations: 2,
                    derivations_tried: 9,
                    index_probes: 8,
                    ..FixpointStats::default()
                },
                solver_calls: 12,
                prefiltered: 20,
                selected: 21,
            },
            view_entries: 100,
        };
        m.record_batch(&stats);
        assert_eq!(m.fixpoint_iterations.get(), 2);
        assert_eq!(m.fixpoint_derivations.get(), 9);
        assert_eq!(m.index_probes.get(), 8 + 5);
        assert_eq!(m.candidates_scanned.get(), 11);
        assert_eq!(m.dred_weakened.get(), 2);
        assert_eq!(m.delete_removed.get(), 3);
        assert_eq!(m.insert_added.get(), 4);
        assert_eq!(m.insert_propagated.get(), 6);
        assert_eq!(m.delete_solver_calls.get(), 7);
        assert_eq!(m.delete_prefiltered.get(), 13);
        assert_eq!(m.insert_solver_calls.get(), 12);
        assert_eq!(m.insert_prefiltered.get(), 20);
        assert_eq!(m.delete_selected.get(), 17);
        assert_eq!(m.insert_selected.get(), 21);

        m.record_batch(&BatchStats {
            deletes: DeleteStats::StDel(StDelStats {
                removed: 6,
                emptied: 5,
                walked: 4,
                ..StDelStats::default()
            }),
            inserts: InsertBatchStats::default(),
            view_entries: 94,
        });
        assert_eq!(m.delete_removed.get(), 3 + 6);
        assert_eq!((m.delete_emptied.get(), m.stdel_walked.get()), (5, 4));

        let reg = MetricsRegistry::new();
        m.register_into(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("mmv_delete_emptied_total 5"), "{text}");
        assert!(text.contains("mmv_fixpoint_iterations_total 2"), "{text}");
        assert!(text.contains("mmv_delete_selected_total 17"), "{text}");
        assert!(text.contains("mmv_insert_selected_total 21"), "{text}");
        mmv_obs::validate_prometheus(&text).unwrap();
    }
}
