#!/usr/bin/env bash
# The repo's one benchmark. See perf/README.md.
#
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   bash perf/run.sh [--seed N] [--seconds S]            all workloads -> perf/out/BENCH_perf.json
#   bash perf/run.sh --traced [--seed N] [--seconds S]   all, traced  -> perf/out/BENCH_perf_layers.json
#   bash perf/run.sh --protocol [SETS SEEDS]             the driver's acceptance check, from a clean copy
#   bash perf/run.sh --compare A.json B.json             two BENCH_perf.json records, metric by metric
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="" seed=1 seconds="" trace=0 mode=run
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --protocol) mode=protocol; shift; break ;;
        --compare) mode=compare; shift; break ;;
        *) echo "perf/run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# One run measures for BENCHMARK.json's run_seconds unless told otherwise.
[ -n "$seconds" ] || seconds="$(python3 perf/report.py seconds)"

if [ "$mode" = compare ]; then
    exec python3 perf/report.py compare "$1" "$2"
fi

if [ "$mode" = protocol ]; then
    # A clean copy: what git would commit plus what is new and not ignored,
    # so nothing built or measured before leaks into the check.
    copy=perf/out/protocol-checkout
    rm -rf "$copy" && mkdir -p "$copy"
    if git rev-parse --git-dir >/dev/null 2>&1; then
        git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$copy"
    else
        tar --exclude=./perf/out --exclude=./target --exclude=./.bench_build -cf - . | tar -xf - -C "$copy"
    fi
    status=0 runs="$PWD/perf/out/protocol_runs.json"
    (cd "$copy" && CARGO_TARGET_DIR=.bench_build python3 perf/report.py protocol "${1:-2}" "${2:-10}" "$runs") ||
        status=$?
    rm -rf "$copy"
    exit $status
fi

# Build only the binary this run needs, so an API change under one layer
# probe cannot stop the end-to-end numbers.
bin=bcp-perf
[ "$trace" = 1 ] && bin=bcp-perf-traced
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --bin "$bin" >&2
exe="${CARGO_TARGET_DIR:-perf/target}/release/$bin"

# The driver's checkout is not a git repository, and the binary cannot ask
# cargo which compiler built it: both go in through the environment.
BCP_PERF_GIT_REV="$(git rev-parse HEAD 2>/dev/null || true)"
BCP_PERF_RUSTC="$(rustc --version 2>/dev/null || true)"
export BCP_PERF_GIT_REV BCP_PERF_RUSTC

if [ -n "$workload" ]; then
    exec "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
fi

kind=result out=perf/out/BENCH_perf.json
[ "$trace" = 1 ] && kind=layers out=perf/out/BENCH_perf_layers.json
status=0 files=()
for w in $(python3 perf/report.py workloads); do
    "$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=$?
    files+=("perf/out/${kind}_$w.json")
done
python3 perf/report.py merge "$out" "${files[@]}"
exit $status
