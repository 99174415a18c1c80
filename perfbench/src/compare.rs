//! Comparing two result files of `bench` (see `bench_compare`).

use crate::harness::quartiles;
use crate::json::{metric_values, Json};
use std::collections::BTreeMap;

/// A bounded end-to-end metric, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` metrics of a `BENCHMARK.json`.
pub fn bounded_metrics(benchmark: &Json) -> Result<Vec<Bounded>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    Improved,
    Regressed,
    /// One side's own run-to-run spread exceeds the bound: the
    /// comparison decides nothing.
    Unresolved,
}

/// Median and interquartile range as a share of the median.
pub fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let (q1, med, q3) = quartiles(values);
    (
        med,
        if values.len() < 2 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        },
    )
}

/// Judges `after` against `before` under `metric`'s bound.
pub fn judge(metric: &Bounded, before: &[f64], after: &[f64]) -> (Verdict, f64) {
    let ((b, b_spread), (a, a_spread)) = (median_and_spread(before), median_and_spread(after));
    // Positive = worse, as a share of the earlier median.
    let worse = if metric.higher_is_better {
        (b - a) / b
    } else {
        (a - b) / b
    };
    let verdict = if b_spread > metric.bound || a_spread > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (verdict, worse)
}

/// Per metric name, the values of every repetition in `runs` (a result
/// file's `e2e` or `layers` list).
pub fn by_metric(runs: &Json) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for run in runs.as_array().unwrap_or_default() {
        if let Some(metrics) = run.get("metrics") {
            for (name, value) in metric_values(metrics) {
                out.entry(name).or_default().push(value);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bounded {
        Bounded {
            name: "latency".to_string(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&lower(0.1), &base, &[10.5, 10.4, 10.6, 10.5]).0,
            Verdict::Same
        );
        assert_eq!(
            judge(&lower(0.1), &base, &[11.5, 11.4, 11.6, 11.5]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower(0.1), &base, &[8.0, 8.1, 7.9, 8.0]).0,
            Verdict::Improved
        );
        let higher = Bounded {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(
            judge(&higher, &base, &[8.0, 8.1, 7.9, 8.0]).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&lower(0.1), &noisy, &[20.0, 20.0, 20.0]).0,
            Verdict::Unresolved
        );
        // A single repetition has no spread to speak of.
        assert_eq!(judge(&lower(0.1), &[10.0], &[20.0]).0, Verdict::Regressed);
    }

    #[test]
    fn reads_bounds_and_runs() {
        let bench = Json::parse(
            r#"{"end_to_end":[{"name":"a","unit":"ms","better":"lower","bound":0.1},
                              {"name":"b","unit":"1/s","better":"higher","bound":0.25}]}"#,
        )
        .unwrap();
        let metrics = bounded_metrics(&bench).unwrap();
        assert_eq!(metrics.len(), 2);
        assert!(metrics[1].higher_is_better && metrics[1].bound == 0.25);
        let runs = Json::parse(
            r#"[{"metrics":{"a":{"value":1,"unit":"ms"}}},{"metrics":{"a":{"value":3,"unit":"ms"}}}]"#,
        )
        .unwrap();
        assert_eq!(by_metric(&runs).get("a"), Some(&vec![1.0, 3.0]));
    }
}
