//! What a run reports: named metrics with units and sample counts, and
//! the line the driver reads.

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a timing; `None` for counts and ratios.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn timing(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Some(samples),
        }
    }

    pub fn count(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What lies behind the metrics, for the result file only (the
    /// untraced run's per-round statistics).
    pub detail: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// One line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            out.push_str(&format!("{:<44} {:>16.6} {}{n}\n", m.name, m.value, m.unit));
        }
        out
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted as f64)),
            ("failed", Json::from(self.failed as f64)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::object([
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Sample counts by metric name, for the result file.
    pub fn samples_json(&self) -> Json {
        Json::object(
            self.metrics
                .iter()
                .filter_map(|m| Some((m.name, Json::from(m.samples? as f64)))),
        )
    }
}
