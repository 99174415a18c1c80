//! The [`MetricsRegistry`]: binds detached metric handles to static names
//! and renders them for scraping.
//!
//! Registration and rendering take a short internal mutex over the name
//! table; the hot path (incrementing a [`Counter`], observing into a
//! [`Histogram`]) never does — handles are plain atomics shared by `Arc`.
//! A scrape therefore runs concurrently with writers at zero coordination
//! cost: it snapshots each atomic once and formats the copies.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::metric::{Counter, Gauge, Histogram, HIST_BUCKETS};
use crate::sync::lock_clean;

/// Unit of a histogram's raw observations; controls how exposition scales
/// values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts; rendered as-is.
    Count,
    /// Raw values are nanoseconds; rendered as seconds (scaled by 1e-9).
    Seconds,
    /// Raw values are bytes; rendered as-is.
    Bytes,
}

impl Unit {
    fn scale(self) -> f64 {
        match self {
            Unit::Seconds => 1e-9,
            Unit::Count | Unit::Bytes => 1.0,
        }
    }
}

/// Label set attached to one series: `(key, value)` pairs in render order.
pub type Labels = Vec<(&'static str, String)>;

struct Series<T> {
    labels: Labels,
    handle: T,
}

enum FamilyKind {
    Counter(Vec<Series<Counter>>),
    Gauge(Vec<Series<Gauge>>),
    Histogram(Vec<Series<Histogram>>),
}

struct Family {
    help: &'static str,
    unit: Unit,
    kind: FamilyKind,
}

impl Family {
    fn type_name(&self) -> &'static str {
        match self.kind {
            FamilyKind::Counter(_) => "counter",
            FamilyKind::Gauge(_) => "gauge",
            FamilyKind::Histogram(_) => "histogram",
        }
    }
}

/// Registry of named metric families.
///
/// Components create their instruments detached (e.g. a WAL owns its
/// counters from birth) and the service registers the same handles here
/// under static names at build time. Registering the same name and label
/// set twice rebinds the series to the newer handle.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fams = lock_clean(&self.families);
        f.debug_struct("MetricsRegistry")
            .field("families", &fams.len())
            .finish_non_exhaustive()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        && !name.as_bytes()[0].is_ascii_digit()
}

fn owned_labels(labels: &[(&'static str, &str)]) -> Labels {
    labels.iter().map(|(k, v)| (*k, v.to_string())).collect()
}

fn bind<T: Clone>(series: &mut Vec<Series<T>>, labels: Labels, handle: &T) {
    if let Some(s) = series.iter_mut().find(|s| s.labels == labels) {
        s.handle = handle.clone();
    } else {
        series.push(Series {
            labels,
            handle: handle.clone(),
        });
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds an existing [`Counter`] handle under `name` with `labels`.
    pub fn register_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        handle: &Counter,
    ) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut fams = lock_clean(&self.families);
        let fam = fams.entry(name).or_insert_with(|| Family {
            help,
            unit: Unit::Count,
            kind: FamilyKind::Counter(Vec::new()),
        });
        if let FamilyKind::Counter(series) = &mut fam.kind {
            bind(series, owned_labels(labels), handle);
        } else {
            debug_assert!(false, "metric {name} registered with a different type");
        }
    }

    /// Binds an existing [`Gauge`] handle under `name` with `labels`.
    pub fn register_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        handle: &Gauge,
    ) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut fams = lock_clean(&self.families);
        let fam = fams.entry(name).or_insert_with(|| Family {
            help,
            unit: Unit::Count,
            kind: FamilyKind::Gauge(Vec::new()),
        });
        if let FamilyKind::Gauge(series) = &mut fam.kind {
            bind(series, owned_labels(labels), handle);
        } else {
            debug_assert!(false, "metric {name} registered with a different type");
        }
    }

    /// Binds an existing [`Histogram`] handle under `name` with `labels`.
    pub fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        labels: &[(&'static str, &str)],
        handle: &Histogram,
    ) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut fams = lock_clean(&self.families);
        let fam = fams.entry(name).or_insert_with(|| Family {
            help,
            unit,
            kind: FamilyKind::Histogram(Vec::new()),
        });
        if let FamilyKind::Histogram(series) = &mut fam.kind {
            bind(series, owned_labels(labels), handle);
        } else {
            debug_assert!(false, "metric {name} registered with a different type");
        }
    }

    /// Creates (or fetches) a counter series and registers it in one step.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Labeled variant of [`MetricsRegistry::counter`].
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        let handle = Counter::new();
        let owned = owned_labels(labels);
        {
            let mut fams = lock_clean(&self.families);
            if let Some(Family {
                kind: FamilyKind::Counter(series),
                ..
            }) = fams.get_mut(name)
            {
                if let Some(s) = series.iter().find(|s| s.labels == owned) {
                    return s.handle.clone();
                }
            }
        }
        self.register_counter(name, help, labels, &handle);
        handle
    }

    /// Creates (or fetches) a gauge series and registers it in one step.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let handle = Gauge::new();
        {
            let fams = lock_clean(&self.families);
            if let Some(Family {
                kind: FamilyKind::Gauge(series),
                ..
            }) = fams.get(name)
            {
                if let Some(s) = series.iter().find(|s| s.labels.is_empty()) {
                    return s.handle.clone();
                }
            }
        }
        self.register_gauge(name, help, &[], &handle);
        handle
    }

    /// Creates (or fetches) an unlabeled histogram series and registers it.
    pub fn histogram(&self, name: &'static str, help: &'static str, unit: Unit) -> Histogram {
        let handle = Histogram::new();
        {
            let fams = lock_clean(&self.families);
            if let Some(Family {
                kind: FamilyKind::Histogram(series),
                ..
            }) = fams.get(name)
            {
                if let Some(s) = series.iter().find(|s| s.labels.is_empty()) {
                    return s.handle.clone();
                }
            }
        }
        self.register_histogram(name, help, unit, &[], &handle);
        handle
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le=...}` samples up to the
    /// highest non-empty bucket plus `+Inf`, then `_sum` and `_count`.
    /// `_count` is derived from the same bucket snapshot the `le` samples
    /// came from, so a scrape is never internally torn.
    pub fn render_prometheus(&self) -> String {
        let fams = lock_clean(&self.families);
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.type_name()));
            match &fam.kind {
                FamilyKind::Counter(series) => {
                    for s in series {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(&s.labels, None),
                            s.handle.get()
                        ));
                    }
                }
                FamilyKind::Gauge(series) => {
                    for s in series {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(&s.labels, None),
                            s.handle.get()
                        ));
                    }
                }
                FamilyKind::Histogram(series) => {
                    for s in series {
                        render_histogram(&mut out, name, fam.unit, s);
                    }
                }
            }
        }
        out
    }

    /// Renders every family as a JSON document.
    ///
    /// Histogram series report `count`, `sum`, `max`, and derived
    /// `p50`/`p90`/`p99` (scaled per the family's [`Unit`]).
    pub fn render_json(&self) -> String {
        let fams = lock_clean(&self.families);
        let mut out = String::from("{\"metrics\":[");
        let mut first_fam = true;
        for (name, fam) in fams.iter() {
            if !first_fam {
                out.push(',');
            }
            first_fam = false;
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"type\":\"{}\",\"help\":\"{}\",\"series\":[",
                fam.type_name(),
                json_escape(fam.help)
            ));
            let mut first = true;
            match &fam.kind {
                FamilyKind::Counter(series) => {
                    for s in series {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!(
                            "{{\"labels\":{},\"value\":{}}}",
                            json_labels(&s.labels),
                            s.handle.get()
                        ));
                    }
                }
                FamilyKind::Gauge(series) => {
                    for s in series {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!(
                            "{{\"labels\":{},\"value\":{}}}",
                            json_labels(&s.labels),
                            s.handle.get()
                        ));
                    }
                }
                FamilyKind::Histogram(series) => {
                    let scale = fam.unit.scale();
                    for s in series {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let snap = s.handle.snapshot();
                        out.push_str(&format!(
                            "{{\"labels\":{},\"count\":{},\"sum\":{},\"max\":{},\
                             \"p50\":{},\"p90\":{},\"p99\":{}}}",
                            json_labels(&s.labels),
                            snap.count(),
                            fmt_f64(snap.sum as f64 * scale),
                            fmt_f64(snap.max as f64 * scale),
                            fmt_f64(snap.quantile(0.50) as f64 * scale),
                            fmt_f64(snap.quantile(0.90) as f64 * scale),
                            fmt_f64(snap.quantile(0.99) as f64 * scale),
                        ));
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn render_histogram(out: &mut String, name: &str, unit: Unit, s: &Series<Histogram>) {
    let snap = s.handle.snapshot();
    let scale = unit.scale();
    let total = snap.count();
    let top = snap
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(HIST_BUCKETS - 2);
    let mut acc = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate().take(top + 1) {
        acc += c;
        let le = crate::metric::bucket_upper_bound(i) as f64 * scale;
        out.push_str(&format!(
            "{name}_bucket{} {acc}\n",
            render_labels(&s.labels, Some(&fmt_f64(le)))
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {total}\n",
        render_labels(&s.labels, Some("+Inf"))
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        render_labels(&s.labels, None),
        fmt_f64(snap.sum as f64 * scale)
    ));
    out.push_str(&format!(
        "{name}_count{} {total}\n",
        render_labels(&s.labels, None)
    ));
}

/// Formats a float for exposition: integral values render without a
/// fractional part, everything else uses shortest-round-trip `Display`.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &Labels) -> String {
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_handle_is_shared() {
        let reg = MetricsRegistry::new();
        let c = Counter::new();
        reg.register_counter("test_total", "a test counter", &[], &c);
        c.add(7);
        let text = reg.render_prometheus();
        assert!(text.contains("test_total 7"), "{text}");
        assert!(text.contains("# TYPE test_total counter"));
    }

    #[test]
    fn counter_with_returns_same_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("lane_total", "per lane", &[("lane", "0")]);
        let b = reg.counter_with("lane_total", "per lane", &[("lane", "0")]);
        let other = reg.counter_with("lane_total", "per lane", &[("lane", "1")]);
        a.inc();
        b.inc();
        other.add(5);
        let text = reg.render_prometheus();
        assert!(text.contains("lane_total{lane=\"0\"} 2"), "{text}");
        assert!(text.contains("lane_total{lane=\"1\"} 5"), "{text}");
    }

    #[test]
    fn histogram_rendering_has_consistent_count() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", "latency", Unit::Seconds);
        h.observe(1_000);
        h.observe(1_000_000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_count 2"), "{text}");
        crate::validate_prometheus(&text).expect("valid exposition");
    }

    #[test]
    fn json_rendering_is_balanced() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a").add(3);
        reg.gauge("b_depth", "b").set(-2);
        reg.histogram("c_bytes", "c", Unit::Bytes).observe(42);
        let json = reg.render_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"name\":\"a_total\""));
        assert!(json.contains("\"value\":-2"));
        assert!(json.contains("\"p99\":"));
    }
}
