//! Service-wide observability: the unified metrics registry and the
//! batch-lifecycle trace ring.
//!
//! Every [`ViewService`][crate::ViewService] owns one [`ServiceObs`]:
//! a [`MetricsRegistry`] that every subsystem's detached counters are
//! registered into (writer lanes, WAL, checkpointer, health machine,
//! fault-injecting Vfs, core maintenance), a [`TraceRing`] of the last
//! N [`BatchTrace`]s, and the batch-level instruments the apply
//! pipeline feeds directly. Scrapers call
//! [`ViewService::metrics`][crate::ViewService::metrics] and render
//! concurrently with writers at zero coordination cost — every
//! instrument is a relaxed atomic, never a lock the write path takes.
//!
//! Instrumentation is gated by
//! [`ObsOptions::enabled`][crate::config::ObsOptions]: when disabled,
//! the apply path takes no stage clocks and records no traces or batch
//! counters (the registry still exists and scrapes cleanly — the
//! batch-lifecycle families just stay at zero).

use crate::config::ObsOptions;
use mmv_core::batch::BatchStats;
use mmv_core::obs::CoreMetrics;
use mmv_obs::{
    BatchTrace, Counter, Gauge, Histogram, MetricsRegistry, Stage, TraceRing, Unit, STAGE_COUNT,
};
use std::sync::Arc;
use std::time::Instant;

/// The service's observability state: one registry, one trace ring,
/// and the batch-level instruments the apply pipeline records into.
#[derive(Debug)]
pub(crate) struct ServiceObs {
    /// Whether the apply path records stage timings, traces, and batch
    /// counters. Component-owned metrics (WAL, checkpointer, health,
    /// Vfs) are always live regardless.
    pub(crate) enabled: bool,
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) traces: TraceRing,
    batches_applied: Counter,
    pub(crate) batches_failed: Counter,
    /// Per-stage latency histograms, indexed in [`Stage::ALL`] order.
    stage_hist: Vec<Histogram>,
    /// Batches applied per writer lane (`lane` label).
    lane_batches: Vec<Counter>,
    /// Threads currently waiting for (or holding into) each lane's
    /// writer lock — the per-lane queue-depth gauge.
    pub(crate) lane_waiters: Vec<Gauge>,
    /// Batches sitting in [`ServiceWorker`][crate::ServiceWorker]
    /// channels, submitted but not yet picked up.
    pub(crate) queue_depth: Gauge,
    publish_epoch: Gauge,
    view_entries: Gauge,
    /// Core maintenance counters (fixpoint, DRed, StDel, CoW copies),
    /// fed from each applied batch's [`BatchStats`].
    pub(crate) core: CoreMetrics,
}

impl ServiceObs {
    /// Builds the registry and registers every batch-level instrument,
    /// with one labeled series per writer lane.
    pub(crate) fn new(opts: &ObsOptions, num_lanes: usize) -> ServiceObs {
        let registry = Arc::new(MetricsRegistry::new());
        let batches_applied = registry.counter(
            "mmv_batches_applied_total",
            "Update batches applied and published",
        );
        let batches_failed = registry.counter(
            "mmv_batches_failed_total",
            "Update batches rejected (batch error, storage failure, or read-only)",
        );
        let stage_hist: Vec<Histogram> = Stage::ALL
            .iter()
            .map(|s| {
                let h = Histogram::new();
                registry.register_histogram(
                    "mmv_batch_stage_seconds",
                    "Wall-clock per batch-pipeline stage",
                    Unit::Seconds,
                    &[("stage", s.name())],
                    &h,
                );
                h
            })
            .collect();
        let mut lane_batches = Vec::with_capacity(num_lanes);
        let mut lane_waiters = Vec::with_capacity(num_lanes);
        for lane in 0..num_lanes {
            let label = lane.to_string();
            let c = Counter::new();
            registry.register_counter(
                "mmv_lane_batches_total",
                "Batches that touched this writer lane",
                &[("lane", &label)],
                &c,
            );
            lane_batches.push(c);
            let g = Gauge::new();
            registry.register_gauge(
                "mmv_lane_lock_waiters",
                "Threads currently queued on this lane's writer lock",
                &[("lane", &label)],
                &g,
            );
            lane_waiters.push(g);
        }
        let queue_depth = registry.gauge(
            "mmv_worker_queue_depth",
            "Batches submitted to service workers and not yet applied",
        );
        let publish_epoch = registry.gauge(
            "mmv_publish_epoch",
            "Global epoch of the last published snapshot",
        );
        let view_entries = registry.gauge(
            "mmv_view_entries",
            "Entries in the published composite view after the last batch",
        );
        let core = CoreMetrics::default();
        core.register_into(&registry);
        ServiceObs {
            enabled: opts.enabled,
            registry,
            traces: TraceRing::new(if opts.enabled { opts.trace_capacity } else { 0 }),
            batches_applied,
            batches_failed,
            stage_hist,
            lane_batches,
            lane_waiters,
            queue_depth,
            publish_epoch,
            view_entries,
            core,
        }
    }

    /// Seeds the published-epoch gauge at construction or recovery,
    /// where an epoch is published without any batch being applied.
    pub(crate) fn publish_epoch_hint(&self, epoch: u64) {
        self.publish_epoch.set_max(epoch as i64);
    }

    /// The per-stage latency histogram (registered as
    /// `mmv_batch_stage_seconds{stage=...}`).
    pub(crate) fn stage_histogram(&self, stage: Stage) -> &Histogram {
        let i = Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("Stage::ALL covers every stage");
        &self.stage_hist[i]
    }

    /// Records one published batch: the trace (ring + per-stage
    /// histograms, skipping stages that did not run), the batch and
    /// per-lane counters, the epoch/view-size gauges, and the core
    /// maintenance counters. Only called when `enabled`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per recorded counter family"
    )]
    pub(crate) fn record_applied(
        &self,
        trace: BatchTrace,
        touched: impl Iterator<Item = usize>,
        stats: &BatchStats,
        copied_pages: u64,
        copied_indexes: u64,
        copied_by_const_keys: u64,
        copied_slot_keys: u64,
    ) {
        self.batches_applied.inc();
        for i in 0..STAGE_COUNT {
            let nanos = trace.stage_nanos[i];
            if nanos != 0 {
                self.stage_hist[i].observe(nanos);
            }
        }
        for lane in touched {
            self.lane_batches[lane].inc();
        }
        self.publish_epoch.set_max(trace.epoch as i64);
        self.view_entries.set(stats.view_entries as i64);
        self.core.record_batch(stats);
        self.core.record_copies(copied_pages, copied_indexes);
        self.core
            .record_key_copies(copied_by_const_keys, copied_slot_keys);
        self.traces.push(trace);
    }
}

/// A per-batch stopwatch over the apply pipeline: laps record the time
/// since the previous mark into a [`BatchTrace`] stage. Disabled, it
/// is inert — no `Instant::now` calls at all, so the uninstrumented
/// path pays nothing. It and [`BatchTrace::time`] are the write path's
/// only clock reads (`clippy.toml` disallows the rest).
pub(crate) struct StageClock {
    pub(crate) trace: BatchTrace,
    last: Option<Instant>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the obs-gated clock: every read is behind `last: Some`"
)]
impl StageClock {
    pub(crate) fn new(enabled: bool) -> StageClock {
        StageClock {
            trace: BatchTrace::default(),
            last: enabled.then(Instant::now),
        }
    }

    /// Records the time since the last mark into `stage` and re-marks.
    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.trace.record(stage, now.duration_since(*last));
            *last = now;
        }
    }

    /// Re-marks without recording: excludes untimed work from the next
    /// lap.
    pub(crate) fn mark(&mut self) {
        if let Some(last) = &mut self.last {
            *last = Instant::now();
        }
    }

    /// An obs-gated clock read: `Some(now)` when the clock is enabled,
    /// `None` (no clock read at all) when it is not. Pair with
    /// [`StageClock::since`] to measure spans the apply path reports
    /// (batch latency, publish latency) without putting `Instant::now`
    /// on the uninstrumented write path.
    pub(crate) fn now(&self) -> Option<Instant> {
        self.last.map(|_| Instant::now())
    }

    /// Elapsed time since a [`StageClock::now`] mark, zero when the
    /// clock was disabled (the span was never measured).
    pub(crate) fn since(&self, mark: Option<Instant>) -> std::time::Duration {
        mark.map(|t| t.elapsed()).unwrap_or_default()
    }

    /// The finished trace, `None` when the clock was disabled.
    pub(crate) fn finish(self) -> Option<BatchTrace> {
        self.last.map(|_| self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObsOptions;

    #[test]
    fn disabled_clock_records_nothing() {
        let mut clock = StageClock::new(false);
        clock.lap(Stage::Apply);
        clock.mark();
        assert!(clock.finish().is_none());
    }

    #[test]
    fn enabled_clock_laps_into_stages() {
        let mut clock = StageClock::new(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.lap(Stage::Apply);
        let trace = clock.finish().expect("enabled");
        assert!(trace.stage(Stage::Apply) >= std::time::Duration::from_millis(1));
        assert_eq!(trace.stage(Stage::Publish), std::time::Duration::ZERO);
    }

    #[test]
    fn record_applied_feeds_registry_and_ring() {
        let obs = ServiceObs::new(&ObsOptions::default(), 2);
        let mut trace = BatchTrace {
            epoch: 7,
            shards_touched: 1,
            ..BatchTrace::default()
        };
        trace.record(Stage::Apply, std::time::Duration::from_micros(10));
        let stats = BatchStats::empty();
        obs.record_applied(trace, [1usize].into_iter(), &stats, 3, 1, 5, 2);
        assert_eq!(obs.traces.recent().len(), 1);
        assert_eq!(obs.stage_histogram(Stage::Apply).snapshot().count(), 1);
        assert_eq!(obs.stage_histogram(Stage::Split).snapshot().count(), 0);
        let text = obs.registry.render_prometheus();
        assert!(text.contains("mmv_batches_applied_total 1"));
        assert!(text.contains("mmv_lane_batches_total{lane=\"1\"} 1"));
        assert!(text.contains("mmv_publish_epoch 7"));
        mmv_obs::validate_prometheus(&text).expect("scrape parses");
    }

    #[test]
    fn disabled_obs_keeps_trace_ring_empty() {
        let obs = ServiceObs::new(&ObsOptions::disabled(), 1);
        assert!(!obs.enabled);
        assert_eq!(obs.traces.capacity(), 0);
    }
}
