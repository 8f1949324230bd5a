//! End-to-end observability test (§5.3): a multi-rank save/load with one
//! storage-throttled straggler rank persists `_telemetry.jsonl` artifacts
//! next to the checkpoint, the span trees in the artifact are well-formed,
//! and the offline `bcpctl report` — fed nothing but the job directory —
//! renders the heat map, per-rank breakdown, and critical path, naming the
//! straggler. The remaining cases pin the one-event pipeline: an artifact
//! line of the old two-vocabulary format still decodes, a step folded live
//! and from its artifact yields the same phase series, point spans feed
//! counters without entering the phase tables, and the resilience series
//! have production producers — the engine's retry loop and an assembled
//! stack's own layers, nothing wired by hand.

use bytecheckpoint::core::distribution::{fetch_step_fanout, read_chunk_manifest, FanoutOptions};
use bytecheckpoint::monitor::analysis::{phase_percentiles, total_by_rank};
use bytecheckpoint::monitor::{labels, JsonReport, MetricsRegistry};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::layer::{self, Op, Reply};
use bytecheckpoint::storage::{
    assemble, fault, resilient::BreakerConfig, Fault, FaultLayer, FaultRule, OpSet,
    ResilienceConfig, StackConfig, StorageBackend, StorageError,
};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const WORLD: usize = 4;
const STRAGGLER: usize = 2;

/// The jobs of this file run one at a time: the straggler and slow-run cases
/// compare wall-clock times across ranks, which another test's rank threads
/// on the same two cores would skew.
fn one_job_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Save steps 10 and 20 (then load 20 back) with per-rank registries:
/// every rank writes to the same on-disk job dir, but the straggler's
/// backend is wrapped in a hard write/read throttle.
fn run_job(dir: &std::path::Path) {
    let _turn = one_job_at_a_time();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(WORLD).unwrap();
    let world = CommWorld::new(WORLD, Backend::Tree { gpus_per_host: 4, branching: 2 });
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let world = world.clone();
            let dir = dir.to_path_buf();
            std::thread::spawn(move || {
                let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
                let backend: DynBackend = if rank == STRAGGLER {
                    // The throttle must dominate filesystem noise on the
                    // tiny test state (a few KB per shard), so it is far
                    // harsher than a realistic slow disk.
                    let profile = fault::throttle(2e6, 4e5, Duration::from_millis(5));
                    Arc::new(FaultLayer::new(disk, 0, profile).named("slow-disk"))
                } else {
                    disk
                };
                let registry = {
                    let mut reg = BackendRegistry::new();
                    reg.register(Scheme::File, backend);
                    Arc::new(reg)
                };
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw)
                    .parallelism(par)
                    .registry(registry)
                    .build()
                    .unwrap();
                for step in [10u64, 20] {
                    let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                    TrainerConfig::default().run(&mut state, 0, step);
                    ckpt.save(&SaveRequest::new(format!("file:///job/step_{step}"), &state, step))
                        .unwrap()
                        .wait()
                        .unwrap();
                }
                let mut target = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                ckpt.load(&mut LoadRequest::new("file:///job/step_20", &mut target)).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn bcpctl(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bcpctl")).args(args).output().expect("bcpctl runs");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn persisted_telemetry_drives_offline_report() {
    let dir = std::env::temp_dir().join(format!("bcp-telemetry-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_job(&dir);
    let job = dir.join("job");

    // ---- The artifacts sit next to the checkpoints, one line per rank. ----
    for step in [10u64, 20] {
        let artifact = job.join(format!("step_{step}")).join(TELEMETRY_SAVE_FILE);
        let text = std::fs::read_to_string(&artifact)
            .unwrap_or_else(|e| panic!("{artifact:?} missing: {e}"));
        let doc = StepTelemetry::from_jsonl(&text).unwrap();
        assert_eq!(doc.ranks.len(), WORLD);
        assert_eq!(doc.step(), Some(step));
        assert_eq!(doc.op(), Some("save"));

        // Span validity per rank line: exactly one root (named "save"),
        // every parent id resolves within the line, phases sit under the
        // root, and storage ops are uncounted details.
        for line in &doc.ranks {
            assert!(!line.spans.is_empty(), "rank {} has no spans", line.rank);
            let ids: std::collections::HashSet<u64> = line.spans.iter().map(|s| s.id).collect();
            assert_eq!(ids.len(), line.spans.len(), "duplicate span ids");
            let roots: Vec<_> = line.spans.iter().filter(|s| s.parent.is_none()).collect();
            assert_eq!(roots.len(), 1, "rank {}: {roots:?}", line.rank);
            assert_eq!(roots[0].name, "save");
            assert!(!roots[0].counted, "root must not double-count phase time");
            for s in &line.spans {
                assert_eq!(s.rank, line.rank);
                assert_eq!(s.step, step);
                if let Some(p) = s.parent {
                    assert!(ids.contains(&p), "orphan span {} (parent {p})", s.name);
                }
                if s.name.starts_with("storage/") {
                    assert!(!s.counted, "storage detail span counted: {}", s.name);
                }
            }
            let root_id = roots[0].id;
            for phase in ["save/dump", "save/upload", "sync/save_barrier"] {
                let span = line
                    .spans
                    .iter()
                    .find(|s| s.name == phase)
                    .unwrap_or_else(|| panic!("rank {} lacks {phase}", line.rank));
                assert_eq!(span.parent, Some(root_id), "{phase} not under the root");
            }
        }

        // The straggler dominates the per-rank totals.
        let by_rank = total_by_rank(&doc.all_spans(), "save/");
        let slowest = by_rank.iter().max_by_key(|(_, d)| **d).map(|(r, _)| *r);
        assert_eq!(slowest, Some(STRAGGLER), "totals: {by_rank:?}");
    }

    // The load pass left its own artifact.
    let load_artifact = job.join("step_20").join(TELEMETRY_LOAD_FILE);
    let doc = StepTelemetry::from_jsonl(&std::fs::read_to_string(&load_artifact).unwrap()).unwrap();
    assert_eq!(doc.op(), Some("load"));
    assert_eq!(doc.ranks.len(), WORLD);
    assert!(doc.all_spans().iter().any(|s| s.name == "load/read"));
    // The phases tile the load: metadata, plan (with its exchange), read,
    // all2all, finish and the barrier leave under a tenth unattributed.
    for rank in &doc.ranks {
        let root = rank.spans.iter().find(|s| s.name == "load").expect("a load root");
        let phases: Duration = rank
            .spans
            .iter()
            .filter(|s| s.counted && s.parent == Some(root.id))
            .map(|s| s.duration)
            .sum();
        assert!(
            phases.as_secs_f64() >= 0.9 * root.duration.as_secs_f64(),
            "rank {}: phases cover {phases:?} of a {:?} load",
            rank.rank,
            root.duration
        );
    }

    // ---- The offline report: heat map + breakdown + critical path. ----
    let job_s = job.to_string_lossy().to_string();
    let trace_out = dir.join("trace.json").to_string_lossy().to_string();
    let csv_out = dir.join("records.csv").to_string_lossy().to_string();
    let (ok, text) = bcpctl(&["report", &job_s, "--trace", &trace_out, "--csv", &csv_out]);
    assert!(ok, "{text}");
    assert!(text.contains("step 20 (save)"), "{text}");
    assert!(text.contains("heatmap rows="), "{text}");
    assert!(
        text.contains(&format!("critical path: rank {STRAGGLER} ")),
        "straggler not identified: {text}"
    );
    assert!(text.contains("save/upload"), "{text}");
    assert!(text.contains("p50"), "no percentile table: {text}");
    // Two artifacts → the regression check has a baseline to compare against.
    assert!(
        text.contains("regression") || text.contains("ALERT regression"),
        "no regression section: {text}"
    );

    // Exports parse / have the expected shape.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_out).unwrap()).unwrap();
    assert!(!trace["traceEvents"].as_array().unwrap().is_empty());
    let csv = std::fs::read_to_string(&csv_out).unwrap();
    assert!(csv.starts_with("name,rank,step,duration_s,io_bytes,path"), "{csv}");

    // Report a specific earlier step, and the load-side artifact.
    let (ok, text) = bcpctl(&["report", &job_s, "--step", "10"]);
    assert!(ok, "{text}");
    assert!(text.contains("step 10 (save)"), "{text}");
    let (ok, text) = bcpctl(&["report", &job_s, "--load"]);
    assert!(ok, "{text}");
    assert!(text.contains("step 20 (load)"), "{text}");
    assert!(text.contains("heatmap rows="), "{text}");

    // ---- `--json`: the whole analysis as one machine-readable document
    // CI can diff, round-tripping through the typed report. ----
    let (ok, text) = bcpctl(&["report", &job_s, "--json"]);
    assert!(ok, "{text}");
    let parsed: bytecheckpoint::monitor::JsonReport = serde_json::from_str(text.trim())
        .unwrap_or_else(|e| panic!("--json output must parse: {e}\n{text}"));
    assert_eq!(parsed.step, 20);
    assert_eq!(parsed.op, "save");
    assert_eq!(parsed.ranks, WORLD);
    assert_eq!(
        parsed.critical_path.as_ref().map(|c| c.rank),
        Some(STRAGGLER),
        "straggler in the JSON critical path: {parsed:?}"
    );
    assert!(parsed.phases.iter().any(|p| p.name == "save/upload"), "{parsed:?}");
    // Text mode prints the document's alerts, it does not re-derive them: the
    // throttled rank's slow writes appear word for word in both.
    let (_, text) = bcpctl(&["report", &job_s]);
    assert!(parsed.alerts.iter().any(|a| a.kind == "slow_io" && a.rank == Some(STRAGGLER)));
    for alert in &parsed.alerts {
        assert!(text.contains(&alert.detail), "alert {alert:?} missing from the text: {text}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// One artifact line as the parent revision wrote it: a flat `records` array
/// next to `spans`. Fields are looked up by name, so the line decodes; the
/// array is dropped, not converted (see DESIGN.md, "Observability").
const PARENT_FORMAT_LINE: &str = r#"{"rank":1,"step":7,"op":"save","records":[{"name":"dist/fanout/peer","rank":1,"step":7,"duration":{"secs":0,"nanos":2500000},"io_bytes":4096,"path":null}],"spans":[{"id":11,"parent":null,"name":"save","rank":1,"step":7,"start_us":100,"duration":{"secs":0,"nanos":90000000},"io_bytes":0,"path":null,"attrs":{"backend":"disk"},"events":[],"counted":false},{"id":12,"parent":11,"name":"save/upload","rank":1,"step":7,"start_us":150,"duration":{"secs":0,"nanos":80000000},"io_bytes":1048576,"path":"step_7/rank1.bin","attrs":{},"events":[],"counted":true}],"failures":[{"rank":1,"stage":"save/upload","path":"step_7/rank1.bin","attempt":1,"error":"flaky","retried":true}],"dropped_records":2}"#;

#[test]
fn parent_format_line_with_a_records_array_decodes_and_reports() {
    let doc = StepTelemetry::from_jsonl(PARENT_FORMAT_LINE).expect("old line decodes");
    assert_eq!((doc.step(), doc.op()), (Some(7), Some("save")));
    assert_eq!(doc.ranks[0].spans.len(), 2);
    assert_eq!(doc.ranks[0].failures[0].path.as_deref(), Some("step_7/rank1.bin"));
    let report = JsonReport::build(7, "save", &doc, 1e6, &[], 1.5);
    let phases: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(phases, ["save/upload"], "counted spans only; the flat record is gone");
    assert_eq!(report.critical_path.as_ref().map(|c| c.rank), Some(1));
    assert_eq!(report.dropped_records, 2);
    let kinds: Vec<&str> = report.alerts.iter().map(|a| a.kind.as_str()).collect();
    assert_eq!(kinds, ["failure", "dropped_events"]);
}

/// Two ranks, each with a default `Checkpointer` over `backend`, save step 5
/// under `job/step_5` and load it back, every span also flowing into `sink`;
/// returns the failure records of both.
fn quick_job(
    scheme: Scheme,
    backend: DynBackend,
    sink: MetricsSink,
) -> Vec<bytecheckpoint::core::integrity::FailureRecord> {
    let _turn = one_job_at_a_time();
    let mut registry = BackendRegistry::new();
    registry.register(scheme, backend);
    let registry = Arc::new(registry);
    let url = if scheme == Scheme::File { "file:///job/step_5" } else { "mem://x/job/step_5" };
    let (fw, par) = (Framework::Ddp, Parallelism::data_parallel(2).unwrap());
    let world = CommWorld::new(2, Backend::Flat);
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let (world, registry, sink) = (world.clone(), registry.clone(), sink.clone());
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw)
                    .parallelism(par)
                    .registry(registry)
                    .sink(sink)
                    .build()
                    .unwrap();
                let state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                ckpt.save(&SaveRequest::new(url, &state, 5)).unwrap().wait().unwrap();
                let mut target = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                ckpt.load(&mut LoadRequest::new(url, &mut target)).unwrap();
                ckpt.failures().records()
            })
        })
        .collect();
    handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
}

/// Report/scrape parity: the series `/metrics` serves (spans folded as they
/// are emitted) and the series a later fold of the persisted artifacts yields
/// are the same fold over the same spans. Storage-op series are left out:
/// the artifact's own write happens after the cut.
#[test]
fn live_fold_and_artifact_fold_agree_on_phase_series() {
    let base = labels([("job", "parity")]);
    let live = Arc::new(MetricsRegistry::new());
    let backend: DynBackend = Arc::new(MemoryBackend::new());
    quick_job(Scheme::Memory, backend.clone(), MetricsSink::folding(live.clone(), base.clone()));
    let offline = MetricsRegistry::new();
    for file in [TELEMETRY_SAVE_FILE, TELEMETRY_LOAD_FILE] {
        let doc = read_step_telemetry(&backend, "job/step_5", file).unwrap().expect("artifact");
        assert_eq!(doc.dropped_records(), 0);
        doc.all_spans().iter().for_each(|span| offline.fold(span, &base));
    }
    for series in ["phase_seconds_total", "phase_io_bytes_total"] {
        let (live, offline) = (live.samples_for(series), offline.samples_for(series));
        assert!(live.len() >= 4, "{series}: both ranks' save and load phases: {live:?}");
        assert_eq!(live.len(), offline.len(), "{series} label sets differ");
        for (a, b) in live.iter().zip(&offline) {
            assert_eq!(a.labels, b.labels, "{series}");
            let (x, y) = (a.value.scalar().unwrap(), b.value.scalar().unwrap());
            // Concurrent spans may reach the two folds in different orders.
            assert!((x - y).abs() <= 1e-9 * x.abs(), "{series}{:?}: {x} vs {y}", a.labels);
        }
    }
}

/// A fan-out session reports its traffic as `dist/fanout/*` point spans:
/// they fold into the per-job byte counters and stay out of every table
/// that sums phase time.
#[test]
fn fanout_point_spans_feed_counters_not_the_percentile_table() {
    let backend: DynBackend = Arc::new(MemoryBackend::new());
    quick_job(Scheme::Memory, backend.clone(), MetricsSink::disabled());
    let manifest = Arc::new(read_chunk_manifest(&backend, "job/step_5").unwrap());
    let base = labels([("job", "fleet")]);
    let (live, hub) = (Arc::new(MetricsRegistry::new()), Arc::new(MetricsHub::new()));
    let world = CommWorld::new(2, Backend::Flat);
    let handles: Vec<_> = (0..2)
        .map(|replica| {
            let comm = world.communicator(replica).unwrap();
            let (backend, manifest) = (backend.clone(), manifest.clone());
            let sink = MetricsSink::fanout(vec![
                MetricsSink::folding(live.clone(), base.clone()),
                hub.sink(),
            ]);
            std::thread::spawn(move || {
                let opts = FanoutOptions::default();
                fetch_step_fanout(&comm, &backend, None, "job/step_5", &manifest, &opts, &sink)
                    .unwrap()
                    .1
            })
        })
        .collect();
    let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let peer: u64 = stats.iter().map(|s| s.peer_bytes).sum();
    let from_backend: u64 = stats.iter().map(|s| s.backend_bytes).sum();
    assert!(peer > 0 && from_backend > 0, "{stats:?}");
    assert_eq!(live.value("fanout_peer_bytes_total", &base), Some(peer as f64));
    assert_eq!(live.value("fanout_backend_bytes_total", &base), Some(from_backend as f64));
    assert!(live.samples_for("phase_seconds_total").is_empty());
    let spans = hub.spans();
    assert!(spans.iter().any(|s| s.name == "dist/fanout/peer" && !s.counted), "{spans:?}");
    assert!(phase_percentiles(&spans).is_empty());
}

/// The load artifact of a many-tensor step carries one `load/fetch` span per
/// *run*, so the slow-I/O alerts of `bcpctl report --load` name a handful of
/// large reads with a bandwidth that means something — a per-tensor span of
/// a few KB measured the per-op latency and there were thousands of them.
#[test]
fn load_report_lists_slow_runs_with_a_real_throughput() {
    const SLOW_READ_BPS: f64 = 20e6;
    let _turn = one_job_at_a_time();
    let dir = std::env::temp_dir().join(format!("bcp-telemetry-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arch = bytecheckpoint::model::TransformerConfig { layers: 48, ..zoo::tiny_gpt() };
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let world = CommWorld::new(2, Backend::Flat);
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let (world, dir, arch) = (world.clone(), dir.clone(), arch.clone());
            std::thread::spawn(move || {
                let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
                let backend: DynBackend = if rank == 1 {
                    let slow_reads =
                        fault::throttle(SLOW_READ_BPS, f64::INFINITY, Duration::from_millis(2));
                    Arc::new(FaultLayer::new(disk, 0, slow_reads).named("slow-disk"))
                } else {
                    disk
                };
                let mut registry = BackendRegistry::new();
                registry.register(Scheme::File, backend);
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw)
                    .parallelism(par)
                    .registry(Arc::new(registry))
                    .build()
                    .unwrap();
                let state = build_train_state(&arch, fw, par, rank, true);
                ckpt.save(&SaveRequest::new("file:///job/step_5", &state, 5))
                    .unwrap()
                    .wait()
                    .unwrap();
                let mut target = build_train_state(&arch, fw, par, rank, true);
                let out =
                    ckpt.load(&mut LoadRequest::new("file:///job/step_5", &mut target)).unwrap();
                out.report.stats.local_reads
            })
        })
        .collect();
    let items: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(items >= 1000, "the step must carry >= 1000 read items, got {items}");

    let job = dir.join("job").to_string_lossy().to_string();
    let (ok, text) = bcpctl(&["report", &job, "--load", "--min-mbps", "50"]);
    assert!(ok, "{text}");
    assert!(text.contains("step 5 (load)"), "{text}");
    // "ALERT slow I/O: rank 1 load/fetch 1258291 bytes at 17.3 MB/s (path ...)"
    let slow_runs: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("ALERT slow I/O: rank 1 load/fetch "))
        .map(|l| {
            let rate = l.split(" at ").nth(1).and_then(|r| r.split(" MB/s").next());
            rate.and_then(|r| r.parse().ok()).unwrap_or_else(|| panic!("unparsable alert: {l}"))
        })
        .collect();
    assert!(!slow_runs.is_empty(), "the throttled rank's reads must be flagged: {text}");
    assert!(slow_runs.len() <= 8, "alerts are per run, not per item ({items} items): {text}");
    for mbps in &slow_runs {
        // Bounded above by the throttle, and well above what a 2 ms
        // latency alone allows a few-KB read (< 2 MB/s).
        assert!((2.0..=SLOW_READ_BPS / 1e6).contains(mbps), "{mbps} MB/s: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Answers the first write of the commit marker with one `SlowDown`.
struct OneSlowDown {
    inner: DynBackend,
    fired: AtomicBool,
}

impl layer::Layer for OneSlowDown {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn around<T: Reply>(
        &self,
        op: &Op<'_>,
        call: &mut dyn FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        if op.is_upload()
            && op.path().ends_with("COMPLETE")
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            return Err(StorageError::SlowDown { path: op.path().into(), retry_after_ms: 30 });
        }
        call()
    }
}

/// The resilience series have a production producer: a default
/// `Checkpointer` — no resilience layer, nothing wired by hand — whose
/// storage misbehaves emits one `resil/retry` per retried attempt and one
/// `resil/throttled` per throttle, with the stage, from the engine's loop.
#[test]
fn the_production_path_feeds_the_resilience_series() {
    let dir = std::env::temp_dir().join(format!("bcp-telemetry-resil-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Every `.bin` write (shards and metadata) fails twice; the commit
    // marker is throttled once.
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let throttled: DynBackend =
        Arc::new(OneSlowDown { inner: disk.clone(), fired: AtomicBool::new(false) });
    let twice = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: 2 }).on(".bin")];
    let hostile = Arc::new(FaultLayer::new(throttled, 0, twice));

    let base = labels([("job", "hostile")]);
    let live = Arc::new(MetricsRegistry::new());
    let failures =
        quick_job(Scheme::File, hostile.clone(), MetricsSink::folding(live.clone(), base.clone()));
    let retried = failures.iter().filter(|f| f.retried).count();
    assert_eq!(retried as u64, hostile.injected() + 1, "every failure was absorbed: {failures:?}");
    assert!(hostile.injected() >= 2 * 5, "2 ranks x 2 shard files + the metadata, twice each");

    // Live: the series a scrape serves, folded as the spans were emitted.
    assert_eq!(live.value("storage_retries_total", &base), Some(retried as f64));
    assert_eq!(live.value("storage_throttled_total", &base), Some(1.0));
    assert_eq!(live.value("storage_retry_after_seconds_total", &base), Some(0.03));
    // Offline: a re-fold of the persisted artifact agrees.
    let doc = read_step_telemetry(&disk, "job/step_5", TELEMETRY_SAVE_FILE).unwrap().unwrap();
    let offline = MetricsRegistry::new();
    doc.all_spans().iter().for_each(|span| offline.fold(span, &base));
    for series in
        ["storage_retries_total", "storage_throttled_total", "storage_retry_after_seconds_total"]
    {
        assert_eq!(offline.value(series, &base), live.value(series, &base), "{series}");
    }

    // `bcpctl report` cuts its resilience table from the same spans, by
    // kind and stage — not from error text.
    let at = |stage: &str| failures.iter().filter(|f| f.retried && f.stage == stage).count();
    let job = dir.join("job").to_string_lossy().to_string();
    let (ok, text) = bcpctl(&["report", &job, "--step", "5"]);
    assert!(ok, "{text}");
    for (stage, retries, throttles) in
        [("save/upload", at("save/upload"), 0), ("save/metadata", 2, 0), ("save/commit", 1, 1)]
    {
        let row = format!("{stage:<24} {retries:>8} {throttles:>10}");
        assert!(text.contains(&row), "missing row {row:?} in:\n{text}");
    }
    assert!(text.contains("events: 1 throttled (retry-after total 0.03s)"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);

    // A calm save and load emit no `resil/*` span.
    let hub = MetricsHub::new();
    let calm = quick_job(Scheme::Memory, Arc::new(MemoryBackend::new()), hub.sink());
    assert!(calm.is_empty(), "{calm:?}");
    let noisy: Vec<_> = hub.spans().into_iter().filter(|s| s.name.starts_with("resil/")).collect();
    assert!(noisy.is_empty(), "{noisy:?}");
}

/// An assembled stack reports its own degradations: the breaker's and the
/// failover router's point spans reach the instrument sink `assemble` hands
/// them — no observer hook, nothing wired by hand.
#[test]
fn an_assembled_stack_over_a_dying_primary_emits_circuit_and_failover_spans() {
    let hub = MetricsHub::new();
    let dead = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: u32::MAX })];
    let secondary: DynBackend = Arc::new(MemoryBackend::new());
    // A breaker quick enough to open before the router gives up on the tier.
    let breaker = BreakerConfig { window: 4, min_samples: 2, ..BreakerConfig::default() };
    let stack = assemble(
        Arc::new(MemoryBackend::new()),
        StackConfig {
            instrument: Some(hub.sink()),
            fallback: Some(secondary.clone()),
            resilient: Some(ResilienceConfig { breaker, ..ResilienceConfig::default() }),
            fault: Some((0, dead)),
            ..StackConfig::default()
        },
    );
    let failures = quick_job(Scheme::Memory, stack.top.clone(), MetricsSink::disabled());
    assert!(secondary.exists("job/step_5/COMPLETE").unwrap(), "the save fails over and commits");
    assert!(failures.iter().all(|f| f.retried), "{failures:?}");

    let spans = hub.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("resil/circuit_open"), 1, "two failed attempts open the breaker");
    assert_eq!(count("storage/failover"), 1, "the third trips the router");
    let point = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    for name in ["resil/circuit_open", "storage/failover"] {
        assert!(!point(name).counted && point(name).parent.is_some(), "{:?}", point(name));
    }
    assert!(point("storage/failover").path.as_deref().unwrap().starts_with("job/step_5/"));
    // Folded, they feed the series behind the `circuit_open` alert.
    let (registry, base) = (MetricsRegistry::new(), labels([("job", "dying")]));
    spans.iter().for_each(|span| registry.fold(span, &base));
    assert_eq!(registry.value("storage_circuit_open_total", &base), Some(1.0));
}
