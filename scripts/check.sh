#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints (warnings are errors), tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> non-test Rust lines per crate (ROADMAP aim 2's tracked number)"
scripts/loc.sh

echo "==> one telemetry event type (the flat vocabulary PR 16 deleted must not come back)"
if grep -rnE 'MetricRecord|TimerGuard|TelemetryEvent|FailureExcerpt|flat_records' crates src tests examples; then
  echo "bcp-monitor's only event is SpanRecord; the names above belong to the deleted flat vocabulary"
  exit 1
fi

echo "==> one global-metadata format (the JSON writer and its file name must not come back)"
if grep -n 'to_vec_pretty' crates/core/src/metadata.rs ||
   grep -rn 'global_metadata\.json' crates src tests examples; then
  echo "GlobalMetadata is the binary layout in crates/core/src/metadata.rs, stored as METADATA_FILE"
  exit 1
fi

echo "==> one instrument (perf/ measures, tests gate, repro reproduces: no second benchmark may grow back)"
if [ "$(ls crates/bench/src/bin)" != repro.rs ]; then
  echo "crates/bench/src/bin/ may hold repro.rs only; a new measurement is a perf/ probe, a new gate is a test"
  exit 1
fi
if grep -n criterion Cargo.toml crates/*/Cargo.toml third_party/*/Cargo.toml; then
  echo "criterion is gone: perf/ is the repo's one measuring instrument"
  exit 1
fi
bench_loc="$(scripts/loc.sh crates/bench | awk '$1 == "bench" { print $2 }')"
if [ "$bench_loc" -gt 500 ]; then
  echo "bcp-bench is the paper's table/figure index and stays <= 500 non-test lines (now $bench_loc)"
  exit 1
fi

echo "==> one retry loop (RetryPolicy::run owns every wait between attempts; the deleted loops and their hooks must not come back)"
second_loop="$(find crates/*/src src -name '*.rs' ! -path crates/storage/src/retry.rs -print0 | sort -z |
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /backoff_for\(/{print FILENAME ":" FNR ": " $0}')"
if [ -n "$second_loop" ]; then
  printf '%s\n' "$second_loop"
  echo "only crates/storage/src/retry.rs computes a backoff outside tests: call RetryPolicy::run"
  exit 1
fi
if grep -rnE 'with_retries_on|record_resilience|record_failovers|ResilienceEvent|set_observer' crates src tests examples; then
  echo "the engine owns the retry loop (integrity::with_retries); layers emit their own point spans via with_sink"
  exit 1
fi

echo "==> two unsafe sites (the zero-copy read stitch and the CRC's carry-less kernel; DESIGN.md \"unsafe inventory\")"
stray_unsafe="$(find crates/*/src src -name '*.rs' ! -path crates/tensor/src/checksum.rs \
  ! -path crates/core/src/engine/load.rs -print0 | sort -z |
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /unsafe/{print FILENAME ":" FNR ": " $0}')"
if [ -n "$stray_unsafe" ]; then
  printf '%s\n' "$stray_unsafe"
  echo "unsafe lives in crates/tensor/src/checksum.rs and crates/core/src/engine/load.rs only"
  exit 1
fi
if grep -rnE '(std|core)::arch' crates src tests examples --include='*.rs' | grep -v '^crates/tensor/src/checksum.rs:'; then
  echo "the one use of std::arch is the CRC kernel in crates/tensor/src/checksum.rs"
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> crash-consistency explorer smoke (bounded matrix)"
cargo test -p bcp-core --test crash_consistency -q

echo "==> bcpctl scrub CI exit-code check"
cargo test --test bcpctl_cli -q scrub

echo "==> chaos-soak smoke (bounded, fixed seed, <60s)"
cargo test -p bcp-core --test chaos_soak -q smoke_bounded_soak

echo "==> object-store smoke (save -> throttle storm -> load under ResilientBackend)"
cargo test -p bcp-core --test objectstore_chaos -q smoke_storm

echo "==> object-store chaos gate (storm + outage soak, bounded, fixed seed)"
cargo test -p bcp-core --test objectstore_chaos -q chaos_gate_storm_and_outage_soak

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> perf/ builds against this tree (both bins: a public-API break under a layer probe fails here)"
cargo build --release --offline --manifest-path perf/Cargo.toml

echo "==> perf/ smoke (2 s of manytensor_dp2_disk: an engine change that restores wrong bytes stops here)"
bash perf/run.sh --workload manytensor_dp2_disk --seed 1 --seconds 2 --trace 0 | tail -n 1 |
  grep -Eq '"correct": ?true' || { echo "perf/ smoke: the result line lacks \"correct\": true"; exit 1; }

echo "==> perf/ smoke (2 s of dense_tp2_mem: every unresharded load there restores by adopting the stored bytes)"
bash perf/run.sh --workload dense_tp2_mem --seed 1 --seconds 2 --trace 0 | tail -n 1 |
  grep -Eq '"correct": ?true' || { echo "perf/ smoke: the dense_tp2_mem result line lacks \"correct\": true"; exit 1; }

echo "==> repro smoke (one table from the simulator, one figure from real multi-rank execution)"
cargo run --release -p bcp-bench --bin repro -- table4 fig13 | grep -q "verified bitwise" ||
  { echo "repro table4 fig13 did not print a bitwise-verified Figure 13"; exit 1; }

echo "==> live telemetry smoke (serve + sim fleet + metrics scrape + top)"
cargo build --release --bin bcpctl --quiet
BCPCTL=target/release/bcpctl
BANNER="$(mktemp)"
"$BCPCTL" serve 127.0.0.1:0 --for-seconds 120 > "$BANNER" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$BANNER"' EXIT
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^listening on //p' "$BANNER")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "bcpctl serve never printed its banner"; exit 1; }
"$BCPCTL" sim "$ADDR" --jobs 2 --steps 2
METRICS="$("$BCPCTL" metrics "$ADDR")"
for series in commit_total governor_wait_seconds telemetry_dropped_total hot_hit_rate; do
  if ! printf '%s\n' "$METRICS" | grep -q "^${series}"; then
    echo "metrics scrape is missing the ${series} series:"
    printf '%s\n' "$METRICS"
    exit 1
  fi
done
"$BCPCTL" top "$ADDR" --once | grep -q "bcp-coordinator top" \
  || { echo "bcpctl top --once did not render"; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
trap - EXIT
rm -f "$BANNER"

echo "==> coordinator restart smoke (kill -9, recover from --journal, jobs output must match)"
JDIR="$(mktemp -d)"
JBANNER="$(mktemp)"
"$BCPCTL" serve 127.0.0.1:0 --journal "$JDIR" --for-seconds 120 > "$JBANNER" &
JPID=$!
trap 'kill -9 "$JPID" 2>/dev/null || true; rm -rf "$JBANNER" "$JDIR"' EXIT
JADDR=""
for _ in $(seq 1 100); do
  JADDR="$(sed -n 's/^listening on //p' "$JBANNER")"
  [ -n "$JADDR" ] && break
  sleep 0.1
done
[ -n "$JADDR" ] || { echo "journaled bcpctl serve never printed its banner"; exit 1; }
"$BCPCTL" sim "$JADDR" --jobs 2 --steps 2
BEFORE="$("$BCPCTL" jobs "$JADDR")"
kill -9 "$JPID" 2>/dev/null || true
wait "$JPID" 2>/dev/null || true
: > "$JBANNER"
"$BCPCTL" serve 127.0.0.1:0 --journal "$JDIR" --for-seconds 120 > "$JBANNER" &
JPID=$!
JADDR=""
for _ in $(seq 1 100); do
  JADDR="$(sed -n 's/^listening on //p' "$JBANNER")"
  [ -n "$JADDR" ] && break
  sleep 0.1
done
[ -n "$JADDR" ] || { echo "restarted bcpctl serve never printed its banner"; exit 1; }
AFTER="$("$BCPCTL" jobs "$JADDR")"
if [ "$BEFORE" != "$AFTER" ]; then
  echo "recovered jobs output diverges from pre-crash state:"
  echo "--- before ---"; printf '%s\n' "$BEFORE"
  echo "--- after ----"; printf '%s\n' "$AFTER"
  exit 1
fi
"$BCPCTL" metrics "$JADDR" | grep -q "^coordinator_restarts_total 1" \
  || { echo "restarted coordinator does not report coordinator_restarts_total 1"; exit 1; }
kill -9 "$JPID" 2>/dev/null || true
trap - EXIT
rm -rf "$JBANNER" "$JDIR"

echo "All checks passed."
