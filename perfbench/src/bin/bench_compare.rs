//! `bench_compare <before.json> <after.json> [--benchmark BENCHMARK.json]`
//!
//! Diffs two result files written by `bench` (all workloads, ideally
//! with `--reps` of five or more). For every workload and end-to-end
//! metric it prints both medians and applies the metric's bound from
//! `BENCHMARK.json`: `same`, `improved`, `REGRESSED`, or `unresolved`
//! when either file's own run-to-run spread exceeds the bound. The
//! deterministic work counters are compared for exact equality on the
//! single-writer workloads. Exits 1 on a regression or a counter
//! difference, 2 on unusable input.

use mmv_perfbench::compare::{bounded_metrics, by_metric, judge, median_and_spread, Verdict};
use mmv_perfbench::json::Json;
use mmv_perfbench::workloads::layers::EXACT_COUNTERS;
use mmv_perfbench::workloads::WORKLOADS;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--benchmark" {
            benchmark = args.next().ok_or("--benchmark needs a path")?;
        } else {
            files.push(a);
        }
    }
    let [before, after] = files.as_slice() else {
        return Err(
            "usage: bench_compare <before.json> <after.json> [--benchmark BENCHMARK.json]"
                .to_string(),
        );
    };
    let (before, after) = (load(before)?, load(after)?);
    let metrics = bounded_metrics(&load(&benchmark)?)?;
    let mut clean = true;
    for spec in &WORKLOADS {
        let runs = |file: &Json, kind: &str| {
            file.get("workloads")
                .and_then(|w| w.get(spec.name))
                .and_then(|w| w.get(kind))
                .map(by_metric)
                .unwrap_or_default()
        };
        println!("{}", spec.name);
        let (b, a) = (runs(&before, "e2e"), runs(&after, "e2e"));
        for metric in &metrics {
            let (Some(bv), Some(av)) = (b.get(&metric.name), a.get(&metric.name)) else {
                println!("  {:<26} missing from a file", metric.name);
                clean = false;
                continue;
            };
            let (verdict, worse) = judge(metric, bv, av);
            let label = match verdict {
                Verdict::Same => "same",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            };
            clean &= verdict != Verdict::Regressed;
            let ((bm, bs), (am, as_)) = (median_and_spread(bv), median_and_spread(av));
            println!(
                "  {:<26} {bm:>12.4} (n={}, spread {:.1}%) -> {am:>12.4} (n={}, spread {:.1}%)  {:+.1}% worse, bound {:.0}%: {label}",
                metric.name,
                bv.len(),
                bs * 100.0,
                av.len(),
                as_ * 100.0,
                worse * 100.0,
                metric.bound * 100.0,
            );
        }
        let (b, a) = (runs(&before, "layers"), runs(&after, "layers"));
        for counter in EXACT_COUNTERS {
            let (bv, av) = (
                b.get(counter).and_then(|v| v.first()),
                a.get(counter).and_then(|v| v.first()),
            );
            if bv != av {
                // A reader beside the writer moves no counter either,
                // but only single-writer workloads are held to it.
                let held = !spec.durable_main;
                clean &= !held;
                println!(
                    "  {counter:<44} {bv:?} -> {av:?}  {}",
                    if held {
                        "COUNTER DIFFERS"
                    } else {
                        "differs (not held: reader beside the writer)"
                    }
                );
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
