#!/usr/bin/env bash
# Non-test Rust lines per crate: for every src/**/*.rs, the lines before the
# first top-level `#[cfg(test)]`. ROADMAP aim 2 tracks this number per crate.
# Usage: scripts/loc.sh [crate-dir ...]   (default: every crate + the root package)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then crates=("$@"); else crates=(crates/* .); fi
printf '%-22s %8s\n' crate non-test
total=0
for c in "${crates[@]}"; do
    [ -d "$c/src" ] || continue
    n=$(find "$c/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}')
    name="$(basename "$c")"; [ "$c" = . ] && name="(root)"
    printf '%-22s %8d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-22s %8d\n' total "$total"
