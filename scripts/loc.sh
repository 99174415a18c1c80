#!/bin/sh
# Code lines per crate: non-blank, non-comment lines of crates/*/src,
# each file cut at its first `#[cfg(test)]` (test modules close the
# files) — the "service + obs vs mmv-core" figure ROADMAP tracks.
cd "$(dirname "$0")/.." || exit 1
total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }' {} +)
    printf '%-22s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' total "$total"
