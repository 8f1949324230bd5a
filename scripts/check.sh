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

echo "==> one step reader (crates/core/src/step.rs lists, checks and opens a step; writers take its marker and metadata paths)"
# metadata.rs defines the two names; test code may spell them.
step_names="$(find crates/*/src src examples -name '*.rs' ! -path crates/core/src/metadata.rs \
  ! -path crates/core/src/step.rs -print0 | sort -z |
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /COMPLETE_MARKER|METADATA_FILE|"COMPLETE"|\/COMPLETE"/{print FILENAME ":" FNR ": " $0}')"
if [ -n "$step_names" ]; then
  printf '%s\n' "$step_names"
  echo "a step is read through bcp_core::step::StepView, and its marker and metadata paths come from step::{marker_path, metadata_path}"
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

echo "==> one storage stack (instrument -> fault -> base; the adaptive client, the failover router and brownout must not come back)"
if grep -rnE 'ResilientBackend|FallbackBackend|ResilienceConfig|CircuitOpen|[Bb]rownout|storage/failover' crates src tests examples; then
  echo "storage faults are the retry loop's (RetryPolicy::run under integrity::with_retries); no layer paces, hedges, breaks circuits or fails over"
  exit 1
fi
shed_sites="$(grep -rn 'shed_optional_work' crates src tests examples || true)"
if [ "$(printf '%s\n' "$shed_sites" | grep -c .)" -ne 1 ] ||
   ! printf '%s\n' "$shed_sites" | grep -q '^crates/storage/src/lib.rs:.*fn shed_optional_work'; then
  printf '%s\n' "$shed_sites"
  echo "shed_optional_work may appear only at its StorageBackend declaration in crates/storage/src/lib.rs"
  exit 1
fi

echo "==> no fleet control plane (the coordinator daemon, its bandwidth governor, job specs, telemetry pump and SLO rules must not come back)"
# The bare word "coordinator" also names rank 0 of a collective, so only
# the deleted items' own names are matched.
if grep -rnE 'bcp_coordinator|bcp-coordinator|CoordinatorService|CoordinatorClient|FairShareScheduler|BandwidthGovernor|GovernedBackend|JobSpec|JobQuota|TelemetryPump|FrameSink|AlertRule|AlertEngine|governor_wait_seconds' \
     Cargo.toml Cargo.lock crates src tests examples; then
  echo "metrics and top are folds of a committed step's telemetry artifacts; the storage stack has no admission layer and no daemon owns jobs"
  exit 1
fi

echo "==> one recovery path (the hot tier, its placement, its tier metrics, its chaos model and bcp-baselines must not come back)"
# Only the deleted items' own names are matched.
if grep -rnE 'HotTier|HotStaging|TieredReadBackend|TierBreakdown|TierOverlay|ReplicaPlacement|ettr_tiered|run_chaos|hot_hit_rate|tier_files_total|hot_fraction|execute_save_staged|load/tier|save/hot|load/hot|bcp_baselines|bcp-baselines' \
     Cargo.toml Cargo.lock crates src tests examples; then
  echo "load_latest recovers from the persistent tree with load-time resharding, and execute_save is the engine's one save entry"
  exit 1
fi

echo "==> no option nothing sets (the synchronous save, the uncached save, the forward-free load, the unverified resume, the split-part knob and HDFS cool-down must not come back)"
# bcp-sim's own `plan_cache` / `dedup_reads` model fields and the engine's
# `split_parts` span attribute are not matched.
if grep -rnE 'options\.(plan_cache|dedup_reads|verified_fallback|dedup)\b|async_upload|\.split_parts\b|split_parts:|cooldown_retention|verified_fallback\(|fn (cool_down|tier_of|age_object)\b' \
     crates src tests examples; then
  echo "a save has one background thread; the plan cache, balanced save dedup, read forwarding and verified resume are always on; a split upload has SPLIT_PARTS parts; the simulated HDFS has one tier"
  exit 1
fi

echo "==> one list of state files (the loader map, the extra-state index, the HDFS knobs and the surface only its own tests reached must not come back)"
if grep -rnE 'loader_map|extra_files|LoaderShardFileEntry|LoaderMap|HdfsConfig|meta_qps_limit|parallel_concat|nnproxy_cache|throttle_wait_us|fn (subgroup|all_to_all|num_edges|bottom_up_order|axis_size|gpt_175b|makespan)\b' \
     crates src tests examples; then
  echo "a step's dataloader and extra state are GlobalMetadata::state_files, each a sealed frame (crates/core/src/state_files.rs); the simulated HDFS counts NameNode operations and has no knobs"
  exit 1
fi
state_types="$(awk '/^#\[cfg\(test\)\]/{t=1} !t && /bcp_dataloader|ExtraState/{print FILENAME ":" FNR ": " $0}' crates/core/src/workflow.rs)"
if [ -n "$state_types" ]; then
  printf '%s\n' "$state_types"
  echo "the workflow moves state files by name; crates/core/src/state_files.rs alone knows the dataloader and extra-state types"
  exit 1
fi

echo "==> one fault injector (the object-store simulator, its knobs, stats and URI parameters must not come back)"
if grep -rnE 'ObjectStoreBackend|ObjectStoreConfig|ObjectStoreStats|orphaned_uploads|abort_orphans|set_rate_limit|outage_now|fail_requests|ConnectionReset|from_params|part_size_floor' \
     crates src tests examples; then
  echo "object-store weather is FaultRules over any base (Fault::SlowDown, Fault::ListLag, Fault::Fail); a checkpoint URI carries no parameters"
  exit 1
fi

echo "==> no read-side distribution layer (the read cache, the peer fan-out, their series, alert, top columns and pricing model must not come back)"
# The PARENT_FORMAT_LINE constant is a golden line of a format an older
# revision wrote; it legitimately holds the deleted names.
if grep -rnE 'ReadCache|fetch_step_fanout|FanoutOptions|DistStats|FanoutPlan|FanoutModel|ettr_fanout|send_sized_async|record_payload|read_cache_|fanout_peer|cache_bytes|dist/read_cache|dist/fanout' \
     crates src tests examples |
   grep -vE '^tests/telemetry_report\.rs:[0-9]+: *const PARENT_FORMAT_LINE: '; then
  echo "a committed step is served by the normal load path (load-time resharding); nothing above it caches or relays reads"
  exit 1
fi

echo "==> the seal is the CRC alone (the chunk index, its per-save gather and its manifest file must not come back)"
# chunks.rs stays as a library module for perf/'s layer probes; its property
# test and the legacy-step test (a step an older build wrote) name it too.
if grep -rnE 'FileChunksBuilder|ChunkManifest::assemble|CHUNK_MANIFEST_FILE|chunk_manifest|save/chunk|SEAL_BLOCK_BYTES|stats\.chunks' \
     crates src tests examples |
   grep -vE '^(crates/core/src/chunks\.rs|crates/core/tests/chunk_manifest_property\.rs|tests/step_layout\.rs):'; then
  echo "a save seals each frame with crc32(payload) and nothing else; no step carries a chunk manifest"
  exit 1
fi

echo "==> a save reads each payload once (capture seals as it copies; a second pass over the image must not come back)"
if grep -nE 'crc32\(|Crc32' crates/core/src/engine/save.rs; then
  echo "capture seals each payload inside its copy (PooledBuf::extend_sealed); crates/core/src/engine/save.rs computes no CRC itself"
  exit 1
fi

echo "==> forwards are addressed by read index (the content key, its index and the per-item send and expectation sets must not come back)"
if grep -rnE 'ReadKey|sent_pairs|seen_pairs|key_to_idx' crates src tests examples; then
  echo "a receive names its source's read by index (AssignedLoadPlan::recvs); the engine forwards one batch per peer per run"
  exit 1
fi

echo "==> plan items stay on their rank (the coordinator scatters one role per item; the load exchange must not go back to cloning items)"
if grep -n 'eliminate_redundant_reads' crates/core/src/workflow.rs; then
  echo "load_checkpoint lends each LoadPlan to the gather, scatters assign_reads' roles and moves each rank's own items (ReadRoles::apply); eliminate_redundant_reads clones every item"
  exit 1
fi

echo "==> a load addresses tensors by slot (the planner resolves each name once; the assembler is a vector indexed by ReadItem::slot)"
# Non-test engine/mod.rs flattened, so a lookup split across lines is seen.
by_name="$(awk '/^#\[cfg\(test\)\]/{t=1} !t' crates/core/src/engine/mod.rs | tr '\n' ' ' | tr -s ' ' |
  grep -oE 'HashMap|(dict|\.model|\.optimizer|\.entries) ?\.get(_mut)?\(' || true)"
if [ -n "$by_name" ]; then
  printf '%s\n' "$by_name"
  echo "crates/core/src/engine/mod.rs looks no tensor up by name: Assembler::new checks each piece's slot once, apply indexes its Vec<Target>, finish zips the targets with the dicts' entries"
  exit 1
fi

echo "==> a load returns at its barrier (its telemetry artifact is encoded and written behind it)"
if tr '\n' ' ' < crates/core/src/workflow.rs | grep -o 'persist_step_telemetry([^;]*;' | grep 'TELEMETRY_LOAD_FILE'; then
  echo "load_checkpoint gathers its telemetry inline and hands the artifact's encode and write to the I/O pool (the pending slot JobContext::settle waits on); persist_step_telemetry writes inline, for the save's finalize thread only"
  exit 1
fi

echo "==> one reclaim mechanism for pooled capture buffers (the owner's Drop; the segment-list save path must not come back)"
second_reclaim="$(find crates/core/src/engine -name '*.rs' -print0 | sort -z |
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /PooledBytes|slice_window|try_into_mut/{print FILENAME ":" FNR ": " $0}')"
if [ -n "$second_reclaim" ]; then
  printf '%s\n' "$second_reclaim"
  echo "a pooled buffer goes back to the pool from PooledBuf's Drop, wherever its last Bytes view dies"
  exit 1
fi

echo "==> one mapping module (every mmap, munmap, madvise and sync_file_range is in crates/storage/src/mapping.rs; a file view is populated when it is mapped)"
if grep -rnE '(mmap|munmap|madvise|sync_file_range)\(' crates src tests examples perf/src --include='*.rs' |
   grep -v '^crates/storage/src/mapping.rs:'; then
  echo "mmap, munmap, madvise and sync_file_range are declared and called only in crates/storage/src/mapping.rs"
  exit 1
fi
if ! grep -qE '^const MAP_POPULATE: c_int = 0x8000;$' crates/storage/src/mapping.rs ||
   ! grep -qE '^ +let flags = MAP_PRIVATE \| MAP_POPULATE;$' crates/storage/src/mapping.rs; then
  echo "FileView maps with MAP_PRIVATE | MAP_POPULATE (0x8000): the page-table work stays inside the read that maps, not the first touch after it"
  exit 1
fi

echo "==> one durable disk writer (DiskBackend::write_durably creates every file; append only grows one)"
# Prints each non-test line of disk.rs that opens a file for writing, with
# the fn it is in: File::create in write_durably (its windows, fsync and
# rename), OpenOptions in append with .append(true) and nothing that could
# truncate or overwrite.
disk_opens="$(awk '/^#\[cfg\(test\)\]/{t=1} !t && match($0, /fn [a-z_0-9]+/){f=substr($0, RSTART+3, RLENGTH-3)}
  !t && /File::create|OpenOptions|fs::(write|copy)\(|\.write\(true\)|\.truncate\(/{print f ": " $0}' crates/storage/src/disk.rs)"
stray_open="$(printf '%s\n' "$disk_opens" | grep . |
  grep -vE '^write_durably: .*fs::File::create\(&tmp\)' |
  grep -vE '^append: .*fs::OpenOptions::new\(\)\.create\(true\)\.append\(true\)\.open\(' || true)"
if [ -n "$stray_open" ] || [ "$(printf '%s\n' "$disk_opens" | grep -c '^write_durably: ')" -ne 1 ]; then
  printf '%s\n' "$disk_opens"
  echo "crates/storage/src/disk.rs creates files in DiskBackend::write_durably only (window writeback hints, fsync, rename, directory fsync); append opens with .append(true) and nothing else opens a file for writing"
  exit 1
fi

echo "==> plan items own no per-axis heap (names are shared Arc<str>, axis lists are inline Axes)"
plan_structs='^pub struct (ReadItem|ShardMeta|BasicMeta|ByteMeta) \{'
if [ "$(grep -cE "$plan_structs" crates/core/src/plan.rs crates/core/src/metadata.rs | awk -F: '{ n += $2 } END { print n }')" -ne 4 ]; then
  echo "ReadItem, ShardMeta, BasicMeta and ByteMeta are defined in crates/core/src/plan.rs and crates/core/src/metadata.rs"
  exit 1
fi
owned_heap="$(awk -v start="$plan_structs" '$0 ~ start { s = 1 } s && /:.*(^|[^A-Za-z_])(String|Vec<usize>)([^A-Za-z_]|$)/ { print FILENAME ":" FNR ": " $0 } s && /^}/ { s = 0 }' \
  crates/core/src/plan.rs crates/core/src/metadata.rs)"
if [ -n "$owned_heap" ]; then
  printf '%s\n' "$owned_heap"
  echo "a ReadItem, ShardMeta, BasicMeta or ByteMeta field holds a name as Arc<str> and an axis list as bcp_tensor::layout::Axes: building or cloning one allocates nothing per field"
  exit 1
fi

echo "==> one arena (a load assembles resharded tensors into one mapped buffer; per-tensor buffers and copy-on-write slots must not come back)"
if grep -rnE 'make_mut|Slot::Assembled|BytesMut::zeroed' crates/core/src/engine; then
  echo "Assembler copies a piece into its tensor's region of the load's Arena, or adopts a whole one; nothing else"
  exit 1
fi

echo "==> one owner of engine huge pages (the arena's free list maps them; no load path maps engine memory per call)"
# mapping.rs defines HugePages and its own tests map some; every other
# mapping is lent and taken back by crates/core/src/engine/arena.rs.
huge_named="$(grep -rn 'HugePages' crates src tests examples perf/src --include='*.rs' |
  grep -vE '^crates/(storage/src/mapping|core/src/engine/arena)\.rs:' || true)"
huge_mapped="$(awk '/^#\[cfg\(test\)\]/{t=1} !t && /HugePages::zeroed/{print FILENAME ":" FNR ": " $0}' \
  crates/storage/src/mapping.rs)"
if [ -n "$huge_named$huge_mapped" ]; then
  printf '%s\n' "$huge_named" "$huge_mapped" | grep .
  echo "HugePages::zeroed is called only from crates/core/src/engine/arena.rs, whose free list recycles every mapping it makes"
  exit 1
fi

echo "==> the load path gathers into no heap buffer (a piece is adopted, or copied once from its run into the arena; coalesce_chunks is the one copy, for backends whose reads copy)"
# vec![0 is a zero-filled byte buffer; vec![...] of run members, read
# ranges or pending pieces is plan-sized and holds no tensor byte.
if grep -rn 'extract_isect' crates src tests examples; then
  echo "the strided gather is gone: Assembler::apply copies each piece from its slice of the run straight to its place in the arena"
  exit 1
fi
load_heap="$(awk 'FNR==1{t=0; c=0} /^#\[cfg\(test\)\]/{t=1} /^fn coalesce_chunks\(/{c=1}
  !t && !c && /BytesMut|Vec<u8>|vec!\[0|extend_from_slice|copy_from_slice\(&/{print FILENAME ":" FNR ": " $0}
  c && /^}/{c=0}' crates/core/src/engine/mod.rs crates/core/src/engine/load.rs)"
if [ -n "$load_heap" ]; then
  printf '%s\n' "$load_heap"
  echo "crates/core/src/engine/{mod,load}.rs build no byte buffer outside load.rs's coalesce_chunks: pieces are views of their run, assembled in the Arena"
  exit 1
fi

echo "==> two unsafe sites (the mapping module and the CRC's carry-less kernel; DESIGN.md \"unsafe inventory\")"
stray_unsafe="$(find crates/*/src src -name '*.rs' ! -path crates/tensor/src/checksum.rs \
  ! -path crates/storage/src/mapping.rs -print0 | sort -z |
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /unsafe/{print FILENAME ":" FNR ": " $0}')"
if [ -n "$stray_unsafe" ]; then
  printf '%s\n' "$stray_unsafe"
  echo "unsafe lives in crates/tensor/src/checksum.rs and crates/storage/src/mapping.rs only"
  exit 1
fi
if grep -rnE '(std|core)::arch' crates src tests examples --include='*.rs' | grep -v '^crates/tensor/src/checksum.rs:'; then
  echo "the one use of std::arch is the CRC kernel in crates/tensor/src/checksum.rs"
  exit 1
fi

echo "==> std sync only (the crossbeam and parking_lot stand-ins must not come back; one lock discipline; third_party/ holds no unsafe)"
if grep -rnE 'parking_lot|crossbeam' Cargo.toml Cargo.lock crates src tests examples; then
  echo "locks, condvars and channels are std::sync's; a lock is taken through bcp_monitor::sync::{lock, read, write}"
  exit 1
fi
raw_lock="$(find crates/*/src src examples -name '*.rs' ! -path crates/monitor/src/sync.rs -print0 | sort -z |
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /\.(lock|read|write)\(\)/{print FILENAME ":" FNR ": " $0}')"
if [ -n "$raw_lock" ]; then
  printf '%s\n' "$raw_lock"
  echo "take a lock with bcp_monitor::sync::{lock, read, write}: poison is ignored in one place, never propagated by an unwrap, expect or ?"
  exit 1
fi
if grep -rn unsafe third_party/*/src; then
  echo "the third_party/ stand-ins are safe code; unsafe lives in the two sites above"
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

echo "==> hostile-weather smoke (save -> throttle storm -> outage -> load, the engine's retry loop alone)"
cargo test -p bcp-core --test weather_chaos -q smoke_storm

echo "==> hostile-weather chaos gate (storm + outage soak, bounded, fixed seed)"
cargo test -p bcp-core --test weather_chaos -q chaos_gate_storm_and_outage_soak

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

echo "==> telemetry views smoke (metrics and top --once over a saved job root)"
cargo build --release --bin bcpctl --quiet
cargo run --release --quiet --example quickstart > /dev/null
JOB="${TMPDIR:-/tmp}/bcp-quickstart/ckpt"
target/release/bcpctl metrics "$JOB" | grep -q '^phase_seconds_total{job="ckpt",op="save",phase="save/upload",' \
  || { echo "bcpctl metrics printed no save/upload phase series for $JOB"; exit 1; }
target/release/bcpctl top "$JOB" --once | grep -qE '^save/upload +[0-9]+ +[0-9.]+ ' \
  || { echo "bcpctl top --once printed no save/upload row for $JOB"; exit 1; }

echo "All checks passed."
