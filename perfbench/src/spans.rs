//! Bench-side spans around the calls into each layer. Spans stay in
//! memory while the run measures and are written out once at its end.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// The batch (request) this span belongs to.
    pub batch: u64,
}

/// An in-memory span log with one open-span stack (single-threaded: the
/// writer loop records; reader threads are timed by their own samples).
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    batch: u64,
    enabled: bool,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
            enabled,
        }
    }

    /// Turns recording on or off for later spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the batch id later spans carry.
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Runs `f` inside a span named `name`; a span opened by `f` through
    /// the same log becomes its child. Returns `f`'s result and its
    /// duration in seconds (timed whether or not spans are recorded).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> (T, f64) {
        let t0 = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: (t0 - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(id);
        let out = f(self);
        let elapsed = t0.elapsed();
        self.open.pop();
        self.spans[id as usize].end_ns =
            self.spans[id as usize].start_ns + elapsed.as_nanos() as u64;
        (out, elapsed.as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is the span's duration minus what its child spans cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = (s.end_ns - s.start_ns).saturating_sub(*child) as f64 / 1e9;
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += own;
                }
                None => by_name.push((s.name, 1, total, own)),
            }
        }
        by_name
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::object([
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns as f64)),
                        ("end_ns", Json::from(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(f64::from(p))),
                        ),
                        ("batch", Json::from(s.batch as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut log = SpanLog::new(true);
        log.set_batch(7);
        log.span("outer", |log| {
            log.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.span("inner", |_| ());
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.batch == 7 && s.end_ns >= s.start_ns));
        let times = log.self_times();
        let outer = times.iter().find(|t| t.0 == "outer").unwrap();
        let inner = times.iter().find(|t| t.0 == "inner").unwrap();
        assert_eq!((outer.1, inner.1), (1, 2));
        assert!(
            outer.3 <= outer.2 - inner.2 + 1e-6,
            "self time excludes children"
        );
        assert!(inner.2 >= 0.002);
    }

    #[test]
    fn disabled_log_records_nothing_but_still_times() {
        let mut log = SpanLog::new(false);
        let ((), secs) = log.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(log.spans().is_empty());
        assert!(secs >= 0.001);
    }
}
