//! The untraced run: the end-to-end metrics a user of the service sees.

use super::run::{Round, Run, Variant};
use super::Spec;
use crate::harness::{median, peak_rss_mb, quantile, tail_percentile, Better};
use crate::json::Json;
use crate::report::{Metric, Outcome};
use mmv_service::ObsOptions;

/// Rounds for `seconds`, `min_rounds` at least.
pub fn run(spec: Spec, seed: u64, seconds: f64, min_rounds: usize) -> Outcome {
    let untraced = Variant {
        obs: ObsOptions::default(),
        record: false,
    };
    let mut run = Run::new(spec, seed, vec![untraced]);
    run.rounds_for(seconds, min_rounds);
    let rss = peak_rss_mb();

    let (drift, _) = run.drift();
    if !(0.9..=1.1).contains(&drift) {
        eprintln!(
            "warning [{}]: batch latency drifted by {drift:.3} across the run",
            spec.name
        );
    }
    let rounds = run.rounds.len();
    // Latency percentiles are taken over the quiet profile: one latency
    // per batch position of the segment, one per read of the slice.
    let (batch, read) = (
        run.profile(0, |r| &r.batch_ms),
        run.profile(0, |r| &r.read_us),
    );
    let (batches, reads) = (
        run.samples(0, |r| &r.batch_ms),
        run.samples(0, |r| &r.read_us),
    );
    let tail = |profile: &[f64]| quantile(profile, tail_percentile(profile.len(), 0.95));
    let scalar = |better, stat: &dyn Fn(&Round) -> f64| run.over_rounds(0, better, stat);
    let metrics = vec![
        Metric::timing(
            "setup_s",
            "s",
            scalar(Better::Lower, &|r| r.setup_s),
            rounds,
        ),
        Metric::timing("batch_p50_ms", "ms", median(&batch), batches),
        Metric::timing("batch_p95_ms", "ms", tail(&batch), batches),
        Metric::timing(
            "updates_per_s",
            "1/s",
            scalar(Better::Higher, &|r| r.updates_per_s),
            batches,
        ),
        Metric::timing("read_p50_us", "us", median(&read), reads),
        Metric::timing("read_p95_us", "us", tail(&read), reads),
        Metric::timing(
            "read_under_write_p50_us",
            "us",
            scalar(Better::Lower, &|r| median(&r.read_under_write_us)),
            run.samples(0, |r| &r.read_under_write_us),
        ),
        Metric::timing(
            "recover_s",
            "s",
            scalar(Better::Lower, &|r| r.recover_s),
            rounds,
        ),
        Metric::timing("peak_rss_mb", "mb", rss, 1),
    ];
    // Every round's raw samples, for offline analysis.
    let list = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::from(*x)).collect());
    let per_round = run.rounds.iter().map(|r| {
        Json::object([
            ("setup_s", Json::from(r.setup_s)),
            ("batch_ms", list(&r.batch_ms)),
            ("updates_per_s", Json::from(r.updates_per_s)),
            ("read_us", list(&r.read_us)),
            ("read_under_write_us", list(&r.read_under_write_us)),
            ("recover_s", Json::from(r.recover_s)),
        ])
    });
    Outcome {
        attempted: run.probe.attempted,
        failed: run.probe.failed,
        metrics,
        detail: Json::object([("rounds", Json::Arr(per_round.collect()))]),
    }
}
