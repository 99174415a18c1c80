//! The benchmark's command.
//!
//! `bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]` runs
//! one workload once: `--trace 0` measures the end-to-end metrics with
//! tracing off, `--trace 1` the per-layer metrics with stage traces and
//! bench-side spans on. Every metric is printed by name and unit, and
//! the last line of standard output is the result object.
//!
//! Without `--workload` it runs every workload, untraced then traced,
//! each in a child process of its own, and writes one result file (see
//! `--out`, `--reps`). `--smoke` runs the same code on programs and
//! operation counts a fraction of the size, and checks correctness and
//! that the work counters repeat, not speed.

use mmv_perfbench::harness::{bench_dir, environment};
use mmv_perfbench::json::{metric_values, Json};
use mmv_perfbench::workloads::run::MIN_ROUNDS;
use mmv_perfbench::workloads::{e2e, layers, Spec, POOL_WIDTH, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    reps: usize,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        reps: 1,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reps" => a.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds >= 0.0 && a.seconds.is_finite()) || a.reps == 0 {
        return Err("--seconds must be a non-negative number and --reps at least 1".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(bench_dir()).expect("create the benchmark's output directory");
    match &args.workload {
        Some(name) => one(name, &args),
        None => all(&args),
    }
}

/// One run of one workload, in this process.
fn one(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = Spec::named(name) else {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "bench: unknown workload {name}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    // The smoke tier checks no timing: one round (per variant), no more.
    let (spec, seconds, min_rounds) = if args.smoke {
        (spec.smoke(), 0.0, 1)
    } else {
        (*spec, args.seconds, MIN_ROUNDS)
    };
    let outcome = if args.trace {
        layers::run(spec, args.seed, seconds, min_rounds)
    } else {
        e2e::run(spec, args.seed, seconds, min_rounds)
    };
    let kind = if args.trace { "layers" } else { "e2e" };
    let file = Json::object([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(args.trace)),
        ("smoke", Json::from(args.smoke)),
        ("environment", environment(POOL_WIDTH, &bench_dir())),
        ("samples", outcome.samples_json()),
        ("detail", outcome.detail.clone()),
        ("result", outcome.to_json()),
    ]);
    let path = bench_dir().join(format!("{}.{kind}.json", spec.name));
    if let Err(e) = std::fs::write(&path, file.render() + "\n") {
        eprintln!("bench: could not write {}: {e}", path.display());
    }
    print!("{}", outcome.table());
    println!("{}", outcome.to_json().render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `bench --workload <name> ...` as a child process and returns
/// the result object it printed last.
fn child(name: &str, trace: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{name} (trace {}) failed:\n{}",
            u8::from(trace),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(result)
}

/// One workload's runs, untraced then traced, `--reps` times each:
/// its part of the result file, and whether anything failed.
fn suite(spec: &Spec, args: &Args) -> (Json, bool) {
    let mut failed = false;
    let mut runs: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..args.reps {
        for trace in [false, true] {
            match child(spec.name, trace, args) {
                Ok(result) => {
                    eprintln!("{} trace {}: ok", spec.name, u8::from(trace));
                    runs[usize::from(trace)].push(result);
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    if args.smoke {
        // The same seed twice: the work counters must repeat.
        let again = child(spec.name, true, args);
        let value = |r: &Json, c: &str| {
            r.get("metrics")
                .map(metric_values)
                .and_then(|m| m.get(c).copied())
        };
        match (&again, runs[1].first()) {
            (Ok(b), Some(a)) => {
                for c in layers::EXACT_COUNTERS {
                    if value(a, c).is_none() || value(a, c) != value(b, c) {
                        eprintln!(
                            "{}: {c} differs between two runs of one seed: {:?} and {:?}",
                            spec.name,
                            value(a, c),
                            value(b, c)
                        );
                        failed = true;
                    }
                }
            }
            _ => failed = true,
        }
    }
    let [e2e, layers] = runs;
    (
        Json::object([("e2e", Json::Arr(e2e)), ("layers", Json::Arr(layers))]),
        failed,
    )
}

/// Every workload. Measuring runs go one at a time; the smoke tier,
/// which checks no timing, runs the workloads side by side.
fn all(args: &Args) -> ExitCode {
    let suites: Vec<(Json, bool)> = if args.smoke {
        std::thread::scope(|scope| {
            let running: Vec<_> = WORKLOADS
                .iter()
                .map(|w| scope.spawn(move || suite(w, args)))
                .collect();
            running
                .into_iter()
                .map(|h| h.join().expect("suite thread"))
                .collect()
        })
    } else {
        WORKLOADS.iter().map(|w| suite(w, args)).collect()
    };
    let mut failed = suites.iter().any(|(_, f)| *f);
    let workloads = WORKLOADS
        .iter()
        .zip(suites)
        .map(|(w, (json, _))| (w.name, json));
    let file = Json::object([
        ("environment", environment(POOL_WIDTH, &bench_dir())),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("workloads", Json::object(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| bench_dir().join("result.json"));
    match std::fs::write(&path, file.render() + "\n") {
        Ok(()) => eprintln!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("bench: could not write {}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
