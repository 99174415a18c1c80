//! The six project-invariant rules, plus the suppression meta-rule.
//!
//! Each rule encodes a discipline this codebase committed to in a
//! prior change and that the compiler cannot enforce:
//!
//! - `lock-expect`: a panicking thread must never cascade — poisoned
//!   locks are recovered (the `mmv_obs::sync` guards), not
//!   re-raised via `.unwrap()`/`.expect()`.
//! - `vfs-confine`: storage I/O goes through the fault-injecting
//!   `Vfs`; raw `std::fs` anywhere else is a fault-coverage blind
//!   spot and needs an explicit recovery-read justification.
//! - `time-gate`: "observability disabled ⇒ zero clock reads on the
//!   write path" — `Instant::now` in write-path modules only via the
//!   obs-gated helpers (`StageClock`, `BatchTrace::time`).
//! - `atomic-order`: every atomic `Ordering::` choice outside the
//!   instrument internals carries an `// order: <why>` justification;
//!   `SeqCst` is non-idiomatic here and needs a full allow.
//! - `forbid-unsafe`: every crate root (lib, bin) declares
//!   `#![forbid(unsafe_code)]`.
//! - `lock-order`: lane and publication locks are only combined, and
//!   lanes only multiply acquired, inside the canonical helpers —
//!   everything else is a deadlock-ordering hazard.
//!
//! Rules are deny-by-default. A site that genuinely must deviate
//! carries `// mmv-lint: allow(rule-id) <reason>`, and the
//! `suppression` meta-rule rejects reasons that are missing, rule ids
//! that do not exist, and suppressions that no longer suppress
//! anything.

use crate::diag::Diagnostic;
use crate::lexer::is_ident_char;
use crate::scan::FileCtx;

/// Catalog entry for one rule.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule this linter knows, in reporting order. `suppression`
/// is the meta-rule over the pragmas themselves and cannot be
/// allowed away.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "lock-expect",
        summary: "no .unwrap()/.expect() on lock()/read()/write() results outside tests",
    },
    RuleInfo {
        id: "vfs-confine",
        summary: "std::fs / File::open only in vfs.rs or the documented recovery-read allowlist",
    },
    RuleInfo {
        id: "time-gate",
        summary: "Instant::now in write-path modules only via StageClock / BatchTrace::time",
    },
    RuleInfo {
        id: "atomic-order",
        summary: "atomic Ordering choices need an `// order:` justification; SeqCst needs an allow",
    },
    RuleInfo {
        id: "forbid-unsafe",
        summary: "every crate root carries #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "lock-order",
        summary: "lane + publication locks combine only in the canonical service helpers",
    },
    RuleInfo {
        id: "suppression",
        summary: "every allow pragma has a real reason, a real rule id, and a real target",
    },
];

/// Lints one file. `path` is the workspace-relative, `/`-separated
/// path — rules use it to scope themselves (write-path module lists,
/// crate-root detection, the vfs.rs home).
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(source);
    let mut raw: Vec<Diagnostic> = Vec::new();
    lock_expect(path, &ctx, &mut raw);
    vfs_confine(path, &ctx, &mut raw);
    time_gate(path, &ctx, &mut raw);
    atomic_order(path, &ctx, &mut raw);
    forbid_unsafe(path, &ctx, &mut raw);
    lock_order(path, &ctx, &mut raw);

    // Deny-by-default with inline escape hatch: a diagnostic is
    // dropped only by a same-rule allow targeting its line.
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            match ctx
                .allows
                .iter()
                .find(|a| a.rule == d.rule && a.target == d.line)
            {
                Some(a) => {
                    a.used.set(true);
                    false
                }
                None => true,
            }
        })
        .collect();

    // The meta-rule: suppressions are themselves linted.
    for a in &ctx.allows {
        if !RULES.iter().any(|r| r.id == a.rule) || a.rule == "suppression" {
            out.push(Diagnostic {
                path: path.into(),
                line: a.line,
                rule: "suppression",
                message: format!("allow({}) names no suppressible rule", a.rule),
            });
        } else if a.reason.is_empty() {
            out.push(Diagnostic {
                path: path.into(),
                line: a.line,
                rule: "suppression",
                message: format!(
                    "allow({}) carries no justification; add a reason after the closing paren",
                    a.rule
                ),
            });
        } else if !a.used.get() {
            out.push(Diagnostic {
                path: path.into(),
                line: a.line,
                rule: "suppression",
                message: format!(
                    "allow({}) suppresses nothing on line {}; remove the stale pragma",
                    a.rule, a.target
                ),
            });
        }
    }
    for (line, text) in &ctx.bad_directives {
        out.push(Diagnostic {
            path: path.into(),
            line: *line,
            rule: "suppression",
            message: format!(
                "unrecognized mmv-lint directive `{text}`; expected `allow(rule-id) <reason>`"
            ),
        });
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn push(out: &mut Vec<Diagnostic>, path: &str, line: usize, rule: &'static str, message: String) {
    out.push(Diagnostic {
        path: path.into(),
        line,
        rule,
        message,
    });
}

/// `.unwrap()` / `.expect(` directly chained onto a zero-argument
/// `.lock()`, `.read()`, or `.write()` call — the shape every
/// `Mutex`/`RwLock` acquisition takes. Whitespace (including line
/// breaks) between the call and the unwrap is seen through.
fn lock_expect(path: &str, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let code = &ctx.masked.code;
    for pat in [".unwrap(", ".expect("] {
        for (off, line) in ctx.code_hits(pat) {
            if let Some(callee) = chained_lock_call(code, off) {
                push(
                    out,
                    path,
                    line,
                    "lock-expect",
                    format!(
                        "{} on a `.{callee}()` result re-raises lock poison; lock through mmv_obs::sync::{{lock_clean, read_clean, write_clean}}",
                        &pat[..pat.len() - 1]
                    ),
                );
            }
        }
    }
}

/// If the `.` at `off` chains onto `lock()`, `read()`, or `write()`,
/// returns the callee name.
fn chained_lock_call(code: &str, off: usize) -> Option<&str> {
    let b = code.as_bytes();
    let mut i = off;
    while i > 0 && (b[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i < 2 || b[i - 1] != b')' || b[i - 2] != b'(' {
        return None;
    }
    i -= 2;
    let end = i;
    while i > 0 && is_ident_char(b[i - 1] as char) {
        i -= 1;
    }
    let name = &code[i..end];
    (matches!(name, "lock" | "read" | "write") && i > 0 && b[i - 1] == b'.').then_some(name)
}

/// Raw filesystem access outside `vfs.rs`. Scoped to library code of
/// the engine crates: `crates/bench` and `crates/lint` are harness and
/// tooling (their file I/O is reports and source reading, not storage),
/// and `src/bin/` entry points are operational tools. Everything the
/// durability story depends on must go through the fault-injecting Vfs
/// or carry a recovery-read justification.
fn vfs_confine(path: &str, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if path.ends_with("/vfs.rs")
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/lint/")
        || path.contains("/src/bin/")
    {
        return;
    }
    let code = &ctx.masked.code;
    let bytes = code.as_bytes();
    // `std::fs` (imports and qualified paths) plus bare `fs::` after a
    // `use std::fs;`, plus the file-handle constructors by name.
    for (off, line) in ctx.code_hits("std::fs") {
        let after = off + "std::fs".len();
        if bytes.get(after).is_some_and(|&c| is_ident_char(c as char)) {
            continue;
        }
        push(
            out,
            path,
            line,
            "vfs-confine",
            "raw std::fs escapes the fault-injecting Vfs; route through Vfs or justify as a recovery read".into(),
        );
    }
    for (off, line) in ctx.code_hits("fs::") {
        // Skip the tail of `std::fs::…` (already reported above) and
        // identifier tails like `vfs::`.
        let before = off.checked_sub(1).map(|i| bytes[i] as char);
        if before.is_some_and(|c| c == ':' || is_ident_char(c)) {
            continue;
        }
        push(
            out,
            path,
            line,
            "vfs-confine",
            "raw fs:: call escapes the fault-injecting Vfs; route through Vfs or justify as a recovery read".into(),
        );
    }
    for pat in ["File::open(", "File::create(", "OpenOptions::new("] {
        for (_, line) in ctx.code_hits(pat) {
            push(
                out,
                path,
                line,
                "vfs-confine",
                format!(
                    "{} opens a file behind the Vfs's back; route through Vfs or justify as a recovery read",
                    &pat[..pat.len() - 1]
                ),
            );
        }
    }
}

/// Modules on the batch write path: apply pipeline, WAL, publish. The
/// invariant "observability disabled ⇒ zero clock reads on the write
/// path" dies one innocent `Instant::now()` at a time; this pins it.
const WRITE_PATH_MODULES: &[&str] = &[
    "crates/core/src/tp.rs",
    "crates/core/src/insert.rs",
    "crates/core/src/delete_dred.rs",
    "crates/core/src/delete_stdel.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/view.rs",
    "crates/core/src/store.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/support.rs",
    "crates/core/src/external.rs",
    "crates/core/src/semantics.rs",
    "crates/core/src/shard.rs",
    "crates/service/src/service.rs",
    "crates/service/src/log.rs",
    "crates/service/src/wal.rs",
    "crates/service/src/worker.rs",
    "crates/service/src/snapshot.rs",
];

fn time_gate(path: &str, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !WRITE_PATH_MODULES.contains(&path) {
        return;
    }
    for pat in ["Instant::now(", "SystemTime::now("] {
        for (_, line) in ctx.code_hits(pat) {
            push(
                out,
                path,
                line,
                "time-gate",
                format!(
                    "{} on the write path; clock reads here go through StageClock or BatchTrace::time so disabled observability costs zero",
                    &pat[..pat.len() - 1]
                ),
            );
        }
    }
}

/// Files whose whole business is atomics: the instrument primitives.
const ATOMIC_HOME: &[&str] = &["crates/obs/src/metric.rs"];

/// Atomic orderings that exist in `std::sync::atomic::Ordering`; other
/// `Ordering::` variants (`Less`, `Equal`, …) are `std::cmp` and not
/// this rule's business.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn atomic_order(path: &str, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ATOMIC_HOME.contains(&path) {
        return;
    }
    let code = &ctx.masked.code;
    let bytes = code.as_bytes();
    for (off, line) in ctx.code_hits("Ordering::") {
        let start = off + "Ordering::".len();
        let mut end = start;
        while end < bytes.len() && is_ident_char(bytes[end] as char) {
            end += 1;
        }
        let variant = &code[start..end];
        if !ATOMIC_ORDERINGS.contains(&variant) {
            continue;
        }
        if variant == "SeqCst" {
            push(
                out,
                path,
                line,
                "atomic-order",
                "Ordering::SeqCst is non-idiomatic in this codebase (nothing here needs a total order); pick the weakest sufficient ordering or allow explicitly".into(),
            );
            continue;
        }
        match ctx.order_reason(line) {
            Some(p) if !p.reason.is_empty() => {}
            Some(_) => push(
                out,
                path,
                line,
                "atomic-order",
                format!("Ordering::{variant} has an empty `// order:` justification; say why this ordering is sufficient"),
            ),
            None => push(
                out,
                path,
                line,
                "atomic-order",
                format!("Ordering::{variant} lacks an `// order: <why>` justification on this or the preceding line"),
            ),
        }
    }
}

/// Crate roots: lib.rs / main.rs under any src/, plus src/bin entry
/// points. Each must carry the forbid attribute — `deny` is overridable
/// downstream, `forbid` is not.
fn forbid_unsafe(path: &str, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let is_root =
        path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || path.contains("/src/bin/");
    if !is_root {
        return;
    }
    if !ctx.masked.code.contains("#![forbid(unsafe_code)]") {
        push(
            out,
            path,
            1,
            "forbid-unsafe",
            "crate root lacks #![forbid(unsafe_code)]".into(),
        );
    }
}

/// The only functions allowed to acquire lane/publication locks
/// directly or in combination. `lock_lane` and the published-snapshot
/// guards are the single homes for direct acquisition (`lock_lane`
/// also reads the published table, to recover a poisoned lane);
/// `lock_lanes` is the one multi-lane acquisition, in ascending shard
/// order. The commit-path stages that take the publication lock while
/// lanes are held (`commit`, `publish`, `abort`) are handed the guards
/// by their caller — they acquire no lane, so they need no entry here.
const CANONICAL_LOCK_FNS: &[&str] = &[
    "lock_lane",
    "read_published",
    "write_published",
    "lock_lanes",
];

fn lock_order(path: &str, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !path.starts_with("crates/service/src/") {
        return;
    }
    let code = &ctx.masked.code;
    let bytes = code.as_bytes();
    // Direct acquisitions outside their canonical homes.
    for (pat, what) in [
        (".lanes[", "a lane lock"),
        (".published.read(", "the publication read lock"),
        (".published.write(", "the publication write lock"),
    ] {
        for (_, line) in ctx.code_hits(pat) {
            let fname = ctx.enclosing_fn(line).map(|f| f.name.as_str());
            if fname.is_some_and(|f| CANONICAL_LOCK_FNS.contains(&f)) {
                continue;
            }
            push(
                out,
                path,
                line,
                "lock-order",
                format!("acquires {what} directly; go through the canonical helper (lock_lane / read_published / write_published)"),
            );
        }
    }
    // Helper-call combinations outside the canonical functions:
    // collect per-fn call sites, skipping the helpers' own definitions.
    for f in &ctx.fns {
        if CANONICAL_LOCK_FNS.contains(&f.name.as_str()) {
            continue;
        }
        let mut lane_calls: Vec<usize> = Vec::new();
        let mut pub_calls: Vec<usize> = Vec::new();
        for (pat, is_lane) in [
            ("lock_lane(", true),
            ("lock_lanes(", true),
            ("read_published(", false),
            ("write_published(", false),
        ] {
            for (off, line) in ctx.code_hits(pat) {
                if line < f.start_line || line > f.end_line {
                    continue;
                }
                // Attribute to the innermost fn only (nested items).
                if ctx.enclosing_fn(line).map(|g| g.name.as_str()) != Some(f.name.as_str()) {
                    continue;
                }
                // Skip `fn lock_lane(`-style definition sites.
                let is_def = off >= 3 && &bytes[off - 3..off] == b"fn ";
                if is_def {
                    continue;
                }
                if is_lane {
                    lane_calls.push(line);
                } else {
                    pub_calls.push(line);
                }
            }
        }
        if lane_calls.len() >= 2 {
            push(
                out,
                path,
                lane_calls[1],
                "lock-order",
                format!(
                    "`{}` acquires two lane locks; multi-lane acquisition happens only in lock_lanes' ascending-shard loop",
                    f.name
                ),
            );
        }
        if !lane_calls.is_empty() && !pub_calls.is_empty() {
            push(
                out,
                path,
                *pub_calls.iter().chain(&lane_calls).max().unwrap(),
                "lock-order",
                format!(
                    "`{}` acquires a lane lock and the publication lock together; only the canonical helpers may combine them",
                    f.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src)
    }

    #[test]
    fn lock_expect_sees_through_line_breaks() {
        let src = "fn f(m: &std::sync::Mutex<u8>) {\n    let g = m\n        .lock()\n        .expect(\"poisoned\");\n}\n";
        let d = diags("crates/x/src/a.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lock-expect");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn unwrap_on_non_lock_call_is_fine() {
        let d = diags(
            "crates/x/src/a.rs",
            "fn f() { s.parse::<u8>().unwrap(); v.get(0).unwrap(); }\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "fn f(m: &std::sync::Mutex<u8>) {\n    // mmv-lint: allow(lock-expect) this mutex never crosses threads\n    let g = m.lock().unwrap();\n}\n";
        assert!(diags("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "fn f(m: &std::sync::Mutex<u8>) {\n    // mmv-lint: allow(lock-expect)\n    let g = m.lock().unwrap();\n}\n";
        let d = diags("crates/x/src/a.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "suppression");
        assert!(d[0].message.contains("no justification"));
    }

    #[test]
    fn stale_allow_is_flagged() {
        let src = "fn f() {\n    // mmv-lint: allow(lock-expect) was needed before the refactor\n    let x = 1;\n}\n";
        let d = diags("crates/x/src/a.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "suppression");
        assert!(d[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// mmv-lint: allow(lock-expct) typo\nfn f() {}\n";
        let d = diags("crates/x/src/a.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no suppressible rule"));
    }

    #[test]
    fn vfs_confine_scopes_by_path() {
        let src = "fn f() { let s = std::fs::read(\"x\"); }\n";
        assert_eq!(diags("crates/service/src/wal.rs", src).len(), 1);
        assert!(diags("crates/service/src/vfs.rs", src).is_empty());
        assert!(diags("crates/bench/src/harness.rs", src).is_empty());
        // Bin entry points are exempt from vfs-confine (they still owe
        // forbid-unsafe, which is another rule's business).
        assert!(!diags("crates/bench/src/bin/e1_deletion.rs", src)
            .iter()
            .any(|d| d.rule == "vfs-confine"));
    }

    #[test]
    fn time_gate_only_bites_write_path_modules() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(diags("crates/core/src/tp.rs", src).len(), 1);
        assert!(diags("crates/core/src/parser.rs", src).is_empty());
    }

    #[test]
    fn atomic_order_requires_reason_and_bans_seqcst() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n    a.store(2, Ordering::Release); // order: publishes the init above\n    a.store(3, Ordering::SeqCst); // order: even a reason does not excuse SeqCst\n}\n";
        let d = diags("crates/core/src/atom.rs", src);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("lacks"));
        assert_eq!(d[1].line, 4);
        assert!(d[1].message.contains("SeqCst"));
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let src = "fn f(a: u8, b: u8) -> std::cmp::Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
        assert!(diags("crates/core/src/atom.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_roots_only() {
        let src = "pub fn f() {}\n";
        let d = diags("crates/x/src/lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "forbid-unsafe");
        assert!(diags("crates/x/src/util.rs", src).is_empty());
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(diags("crates/x/src/lib.rs", ok).is_empty());
        assert_eq!(diags("crates/x/src/bin/tool.rs", src).len(), 1);
    }

    #[test]
    fn lock_order_flags_combined_and_direct_acquisition() {
        let src = concat!(
            "fn rogue(&self) {\n",
            "    let lane = self.lock_lane(0);\n",
            "    let pub_ = self.read_published();\n",
            "}\n",
            "fn sneaky(&self) {\n",
            "    let g = self.lanes[0].lock();\n",
            "}\n",
            "fn lock_lanes(&self) {\n",
            "    let a = self.lock_lane(0);\n",
            "    let b = self.lock_lane(1);\n",
            "    let p = self.write_published();\n",
            "}\n",
        );
        let d = diags("crates/service/src/service.rs", src);
        let rules: Vec<(usize, &str)> = d.iter().map(|x| (x.line, x.rule)).collect();
        assert!(rules.contains(&(3, "lock-order")), "{rules:?}");
        assert!(rules.contains(&(6, "lock-order")), "{rules:?}");
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn lock_order_ignores_other_crates() {
        let src = "fn rogue(&self) { let a = self.lock_lane(0); let b = self.read_published(); }\n";
        assert!(diags("crates/core/src/shard.rs", src).is_empty());
    }
}
