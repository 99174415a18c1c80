//! Workspace rules no compiler lint expresses. (The rest — no unsafe,
//! poison-recovering locks, storage I/O through the Vfs, obs-gated
//! clocks, reasoned suppressions — are `[workspace.lints]` and the root
//! `clippy.toml`.)

#![allow(
    clippy::disallowed_methods,
    reason = "reads the workspace's own sources and manifests"
)]

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every atomic `Ordering` choice in library code (each file cut at its
/// first `#[cfg(test)]`, as `scripts/loc.sh` counts) carries an
/// `// order: <why>` on its line or the line above, and none is
/// `SeqCst`: nothing here needs a total order. `obs/src/metric.rs`, the
/// instrument primitives, is all relaxed counters and exempt.
#[test]
fn atomic_orderings_are_justified_and_never_seqcst() {
    let mut files = Vec::new();
    for krate in fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        sources(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut bad = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
            .collect();
        let exempt = file.ends_with("obs/src/metric.rs");
        let justifies = |l: &str| {
            l.split_once("// order:")
                .is_some_and(|(_, why)| !why.trim().is_empty())
        };
        for (i, line) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap();
            let ordered = ["Relaxed", "Acquire", "Release", "AcqRel"]
                .iter()
                .any(|o| code.contains(&format!("Ordering::{o}")));
            let justified = justifies(line) || (i > 0 && justifies(lines[i - 1]));
            if code.contains("Ordering::SeqCst") || (ordered && !exempt && !justified) {
                bad.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "unjustified or SeqCst atomic orderings:\n{}",
        bad.join("\n")
    );
}

/// A comment that cites a document (`NAME.md`) cites one the repository
/// has, at the root or beside the citing crate's manifest: a reader sent
/// to a missing file learns nothing, so the comment must state its reason
/// itself.
#[test]
fn cited_documents_exist() {
    let mut files = Vec::new();
    sources(&Path::new(ROOT).join("src"), &mut files);
    for krate in fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        sources(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut missing = Vec::new();
    for file in files {
        let krate = file
            .ancestors()
            .find(|d| d.join("Cargo.toml").is_file())
            .unwrap();
        let text = fs::read_to_string(&file).unwrap();
        for (i, line) in text.lines().enumerate() {
            let Some((_, comment)) = line.split_once("//") else {
                continue;
            };
            let words = comment.split(|c: char| !(c.is_alphanumeric() || "_-./".contains(c)));
            for doc in words.map(|w| w.trim_end_matches('.')) {
                if doc.ends_with(".md")
                    && !Path::new(ROOT).join(doc).is_file()
                    && !krate.join(doc).is_file()
                {
                    missing.push(format!("{}:{}: {doc}", file.display(), i + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "comments cite documents that do not exist:\n{}",
        missing.join("\n")
    );
}

/// `[workspace.lints]` bind only the members that opt in, so a crate
/// without `[lints] workspace = true` would escape `forbid(unsafe_code)`
/// and the rest silently.
#[test]
fn every_member_opts_into_the_workspace_lints() {
    let manifest = fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).unwrap();
    let members = manifest.split("\nmembers = [").nth(1).unwrap();
    let members = members[..members.find(']').unwrap()].split(',');
    let mut missing = Vec::new();
    for member in members.map(|m| m.trim().trim_matches('"')).chain(["."]) {
        if member.is_empty() || member.starts_with("vendor/") {
            continue;
        }
        let text = fs::read_to_string(Path::new(ROOT).join(member).join("Cargo.toml")).unwrap();
        if !text.contains("[lints]\nworkspace = true\n") {
            missing.push(member);
        }
    }
    assert!(
        missing.is_empty(),
        "members without `[lints] workspace = true`: {missing:?}"
    );
}
