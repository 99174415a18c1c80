//! # mmv-obs — dependency-free observability for the materialized-view stack
//!
//! One crate, three layers:
//!
//! 1. **Metric primitives** ([`Counter`], [`Gauge`], [`Histogram`]) — cheap
//!    cloneable handles over shared atomics. Components own their
//!    instruments *detached*; hot paths never take a lock.
//! 2. **The [`MetricsRegistry`]** — binds handles to static names (with
//!    optional labels, e.g. per-lane) and renders them via
//!    [`MetricsRegistry::render_prometheus`] /
//!    [`MetricsRegistry::render_json`]. Scrapes read the same atomics the
//!    writers update, so exposition is concurrent with writes at zero
//!    coordination cost.
//! 3. **Batch-lifecycle tracing** ([`BatchTrace`], [`Stage`],
//!    [`TraceRing`]) — per-stage wall-clock for each maintenance batch,
//!    last-N retained in a ring buffer.
//!
//! Histograms use a fixed log2 bucket scheme: bucket `i >= 1` holds raw
//! values in `[2^(i-1), 2^i)` (bucket 0 holds zeros), so recording is a
//! bit-length computation plus three relaxed atomic ops, and p50/p90/p99/max
//! are derived from any [`HistogramSnapshot`]. Durations are recorded in
//! nanoseconds; registering with [`Unit::Seconds`] makes exposition scale
//! them to seconds.
//!
//! [`validate_prometheus`] (also exposed as the `promcheck` binary) checks
//! rendered output against the text exposition format — CI pipes a live
//! scrape through it.

#![warn(missing_docs)]

mod expo;
mod metric;
mod registry;
pub mod sync;
mod trace;

pub use expo::validate_prometheus;
pub use metric::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, HIST_BUCKETS,
};
pub use registry::{Labels, MetricsRegistry, Unit};
pub use trace::{BatchTrace, Stage, TraceRing, STAGE_COUNT};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Scrapes stay valid and counters monotone while writers hammer the
    /// same handles.
    #[test]
    fn concurrent_scrape_and_write() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("obs_test_total", "test counter");
        let h = reg.histogram("obs_test_seconds", "test latency", Unit::Seconds);
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let c = c.clone();
                let h = h.clone();
                thread::spawn(move || {
                    for k in 0..5_000u64 {
                        c.inc();
                        h.observe(k * (i + 1));
                    }
                })
            })
            .collect();
        let mut last = 0u64;
        for _ in 0..50 {
            let text = reg.render_prometheus();
            validate_prometheus(&text).expect("scrape stays parseable");
            let now = c.get();
            assert!(now >= last, "counter went backwards");
            last = now;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(c.get(), 20_000);
        assert_eq!(h.snapshot().count(), 20_000);
        validate_prometheus(&reg.render_prometheus()).unwrap();
    }

    const _SEND_SYNC: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<TraceRing>();
    };
}
