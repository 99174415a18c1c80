//! Timing and table-rendering helpers shared by the experiment binaries.
//! Each `eN_*` binary prints the rows EXPERIMENTS.md records; the tables
//! here keep that output consistent and machine-diffable.
//!
//! Every binary also accepts `--json <path>` and mirrors its table into a
//! machine-readable [`JsonReport`], so benchmark trajectories can be
//! accumulated across PRs without scraping stdout.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `runs` times (after `warmup` unmeasured runs) and reports the
/// median duration. `f` must be repeatable (operate on cloned state).
pub fn median_time<T>(warmup: usize, runs: usize, mut f: impl FnMut() -> T) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Renders a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.3}s", us / 1e6)
    }
}

/// A simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    println!();
}

/// Median timings of one batched-vs-sequential deletion comparison
/// (E1's multi-update sweep).
#[derive(Debug, Clone, Copy)]
pub struct BatchedDeletionTimings {
    /// One `stdel_delete_batch` pass over the whole deletion set.
    pub stdel_batch: Duration,
    /// One `stdel_delete` pass per deletion.
    pub stdel_sequential: Duration,
    /// One `dred_delete_batch` pass over the whole deletion set.
    pub dred_batch: Duration,
    /// One `dred_delete` pass per deletion.
    pub dred_sequential: Duration,
}

impl BatchedDeletionTimings {
    /// Batched StDel update throughput (deletions per second).
    pub fn stdel_ops_per_sec(&self, k: usize) -> f64 {
        k as f64 / self.stdel_batch.as_secs_f64().max(1e-9)
    }

    /// Batched Extended DRed update throughput (deletions per second).
    pub fn dred_ops_per_sec(&self, k: usize) -> f64 {
        k as f64 / self.dred_batch.as_secs_f64().max(1e-9)
    }
}

/// Times the four maintenance strategies for one deletion set: StDel
/// and Extended DRed, batched (one set-oriented pass) versus sequential
/// (one single-atom pass per deletion), each the median of `runs` runs
/// on clones of the given base views.
pub fn time_batched_deletions(
    db: &mmv_core::ConstrainedDatabase,
    with_supports: &mmv_core::MaterializedView,
    plain: &mmv_core::MaterializedView,
    deletions: &[mmv_core::ConstrainedAtom],
    resolver: &dyn mmv_constraints::DomainResolver,
    config: &mmv_core::FixpointConfig,
    runs: usize,
) -> BatchedDeletionTimings {
    let stdel_batch = median_time(1, runs, || {
        let mut v = with_supports.clone();
        mmv_core::stdel_delete_batch(&mut v, deletions, resolver, &config.solver)
            .expect("stdel batch");
    });
    let stdel_sequential = median_time(1, runs, || {
        let mut v = with_supports.clone();
        for d in deletions {
            mmv_core::stdel_delete(&mut v, d, resolver, &config.solver).expect("stdel");
        }
    });
    let dred_batch = median_time(1, runs, || {
        let mut v = plain.clone();
        mmv_core::dred_delete_batch(db, &mut v, deletions, resolver, config).expect("dred batch");
    });
    let dred_sequential = median_time(1, runs, || {
        let mut v = plain.clone();
        for d in deletions {
            mmv_core::dred_delete(db, &mut v, d, resolver, config).expect("dred");
        }
    });
    BatchedDeletionTimings {
        stdel_batch,
        stdel_sequential,
        dred_batch,
        dred_sequential,
    }
}

/// The `--json <path>` argument of an experiment binary, if present.
/// Exits with an error if `--json` is given without a usable path, so a
/// CI trajectory step can never silently produce no report.
pub fn json_path_from_args() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return match args.next() {
                Some(p) if !p.starts_with("--") => Some(PathBuf::from(p)),
                _ => {
                    eprintln!("error: --json requires a path argument");
                    std::process::exit(2);
                }
            };
        }
    }
    None
}

/// A JSON scalar in a report row.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An integer.
    Int(i64),
    /// A float (timings in seconds, ratios).
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
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

fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Int(i) => i.to_string(),
        JsonValue::Float(f) if f.is_finite() => format!("{f}"),
        JsonValue::Float(_) => "null".to_string(),
        JsonValue::Str(s) => format!("\"{}\"", escape_json(s)),
        JsonValue::Bool(b) => b.to_string(),
    }
}

/// One row of a [`JsonReport`]: ordered key/value pairs, built fluently.
#[derive(Debug, Clone, Default)]
pub struct JsonRow(Vec<(String, JsonValue)>);

impl JsonRow {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: i64) -> Self {
        self.0.push((key.to_string(), JsonValue::Int(v)));
        self
    }

    /// Adds a float field.
    pub fn float(mut self, key: &str, v: f64) -> Self {
        self.0.push((key.to_string(), JsonValue::Float(v)));
        self
    }

    /// Adds a duration field, stored as seconds.
    pub fn secs(self, key: &str, d: Duration) -> Self {
        self.float(key, d.as_secs_f64())
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.0
            .push((key.to_string(), JsonValue::Str(v.to_string())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.0.push((key.to_string(), JsonValue::Bool(v)));
        self
    }
}

/// A machine-readable experiment report, written by `--json <path>`.
#[derive(Debug, Clone)]
pub struct JsonReport {
    experiment: String,
    claim: String,
    rows: Vec<JsonRow>,
}

impl JsonReport {
    /// Creates a report for one experiment.
    pub fn new(experiment: &str, claim: &str) -> Self {
        JsonReport {
            experiment: experiment.to_string(),
            claim: claim.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: JsonRow) {
        self.rows.push(row);
    }

    /// Renders the report as a JSON object.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"experiment\":\"{}\",\"claim\":\"{}\",\"rows\":[",
            escape_json(&self.experiment),
            escape_json(&self.claim)
        ));
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (k, v)) in row.0.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape_json(k), render_value(v)));
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Writes the report if a `--json` path was given, announcing it.
    pub fn write_if(&self, path: &Option<PathBuf>) {
        if let Some(p) = path {
            self.write(p).expect("write --json report");
            println!("json report written to {}", p.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "time"]);
        t.row(vec!["10".into(), "1.0ms".into()]);
        t.row(vec!["1000".into(), "12.5ms".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("time"));
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.0us");
        assert_eq!(fmt_duration(Duration::from_millis(2)), "2.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.000s");
    }

    #[test]
    fn json_report_renders_and_escapes() {
        let mut r = JsonReport::new("E0", "a \"quoted\" claim");
        r.push(
            JsonRow::new()
                .int("n", 3)
                .secs("t", Duration::from_millis(1500))
                .str("name", "line\nbreak")
                .bool("ok", true)
                .float("bad", f64::NAN),
        );
        let s = r.render();
        assert_eq!(
            s,
            "{\"experiment\":\"E0\",\"claim\":\"a \\\"quoted\\\" claim\",\"rows\":[\
             {\"n\":3,\"t\":1.5,\"name\":\"line\\nbreak\",\"ok\":true,\"bad\":null}]}\n"
        );
    }

    #[test]
    fn median_is_stable() {
        let d = median_time(0, 5, || std::thread::sleep(Duration::from_micros(50)));
        assert!(d >= Duration::from_micros(40));
    }
}
