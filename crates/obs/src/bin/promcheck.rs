//! `promcheck` — validates Prometheus text exposition format.
//!
//! Reads from the file given as the first argument (or stdin when absent
//! or `-`), runs [`mmv_obs::validate_prometheus`], and exits non-zero with
//! the first error on malformed input. CI pipes live `render_prometheus()`
//! scrapes through this binary.

use std::io::Read;
use std::process::ExitCode;

#[expect(
    clippy::disallowed_methods,
    reason = "reads a scrape dump, not service storage"
)]
fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    let (source, text) = match arg.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("promcheck: reading stdin: {e}");
                return ExitCode::from(2);
            }
            ("<stdin>".to_string(), buf)
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(buf) => (path.to_string(), buf),
            Err(e) => {
                eprintln!("promcheck: reading {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    match mmv_obs::validate_prometheus(&text) {
        Ok(()) => {
            let samples = text
                .lines()
                .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
                .count();
            println!("promcheck: {source}: OK ({samples} samples)");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("promcheck: {source}: {msg}");
            ExitCode::FAILURE
        }
    }
}
