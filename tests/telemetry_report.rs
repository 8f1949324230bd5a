//! End-to-end observability test (§5.3): a multi-rank save/load with one
//! storage-throttled straggler rank persists `_telemetry.jsonl` artifacts
//! next to the checkpoint, the span trees in the artifact are well-formed,
//! and the offline `bcpctl report` — fed nothing but the job directory —
//! renders the heat map, per-rank breakdown, and critical path, naming the
//! straggler. The remaining cases pin the one-event pipeline: an artifact
//! line of the old two-vocabulary format still decodes, a step folded live
//! and from its artifact yields the same phase series, and the resilience
//! series have a production producer — the engine's retry loop, nothing
//! wired by hand. A reshard's wait on its peers' forwards is reported as a
//! wait, never as slow storage I/O, and a healthy disk save raises no
//! slow-I/O alert. A `take_where` predicate that panics leaves the hub
//! usable.

use bytecheckpoint::core::metadata::COMPLETE_MARKER;
use bytecheckpoint::monitor::analysis::total_by_rank;
use bytecheckpoint::monitor::sync::lock;
use bytecheckpoint::monitor::{labels, JsonReport, MetricsRegistry};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{fault, Fault, FaultLayer, FaultRule, OpSet};
use std::process::Command;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const WORLD: usize = 4;
const STRAGGLER: usize = 2;

/// The jobs of this file run one at a time: the straggler and slow-run cases
/// compare wall-clock times across ranks, which another test's rank threads
/// on the same two cores would skew.
fn one_job_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    lock(&TURN)
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
    let throttle = Fault::SlowDown { times: 1, retry_after: Duration::from_millis(30) };
    let weather = vec![
        FaultRule::new(OpSet::Writes, Fault::Fail { times: 2 }).on(".bin"),
        FaultRule::new(OpSet::Writes, throttle).on("COMPLETE"),
    ];
    let hostile = Arc::new(FaultLayer::new(disk.clone(), 0, weather));

    let base = labels([("job", "hostile")]);
    let live = Arc::new(MetricsRegistry::new());
    let failures =
        quick_job(Scheme::File, hostile.clone(), MetricsSink::folding(live.clone(), base.clone()));
    let retried = failures.iter().filter(|f| f.retried).count();
    assert_eq!(retried as u64, hostile.injected(), "every failure was absorbed: {failures:?}");
    assert!(hostile.injected() > 2 * 5, "2 ranks x 2 shard files + the metadata twice, the marker");

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

/// Two ranks of a Megatron job over one on-disk job dir, built for `par`.
fn on_disk_ranks<T: Send + 'static>(
    dir: &std::path::Path,
    par: Parallelism,
    f: impl Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let world = CommWorld::new(2, Backend::Flat);
    let f = Arc::new(f);
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let (world, dir, f) = (world.clone(), dir.to_path_buf(), f.clone());
            std::thread::spawn(move || {
                let mut registry = BackendRegistry::new();
                registry.register(Scheme::File, Arc::new(DiskBackend::new(&dir).unwrap()));
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(Framework::Megatron { distributed_optimizer: true })
                    .parallelism(par)
                    .registry(Arc::new(registry))
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// A healthy disk save raises no slow-I/O alert: its small fsync'd writes
/// (the 2-byte `COMPLETE` marker above all) are judged by their latency,
/// not by a throughput their fixed cost makes look like a stall.
#[test]
fn a_healthy_disk_save_prints_no_slow_io_alert() {
    let _turn = one_job_at_a_time();
    let dir = std::env::temp_dir().join(format!("bcp-telemetry-healthy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dp2 = Parallelism::new(1, 2, 1).unwrap();
    on_disk_ranks(&dir, dp2, move |rank, ckpt| {
        let fw = Framework::Megatron { distributed_optimizer: true };
        let state = build_train_state(&zoo::tiny_gpt(), fw, dp2, rank, true);
        ckpt.save(&SaveRequest::new("file:///job/step_3", &state, 3)).unwrap().wait().unwrap();
    });
    let job = dir.join("job");
    let artifact = job.join("step_3").join(TELEMETRY_SAVE_FILE);
    let doc = StepTelemetry::from_jsonl(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    let spans = doc.all_spans();
    let marker = spans
        .iter()
        .find(|s| s.path.as_deref().is_some_and(|p| p.ends_with(COMPLETE_MARKER)))
        .unwrap_or_else(|| panic!("the commit marker's write is traced: {spans:?}"));
    assert!(marker.io_bytes > 0 && marker.io_bytes < 16, "{marker:?}");
    let (ok, text) = bcpctl(&["report", &job.to_string_lossy()]);
    assert!(ok, "{text}");
    assert!(text.contains("step 3 (save)"), "{text}");
    assert!(!text.contains("ALERT slow I/O"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forwarded bytes are not storage I/O: a healthy 2-rank reshard's
/// `load/all2all` spans carry them, and the batch count, as attributes with
/// no `io_bytes`, so `bcpctl report --load` derives no bandwidth from a wait
/// on a peer — even at a threshold every real read misses.
#[test]
fn a_reshard_reports_its_peer_wait_as_a_wait_not_as_slow_io() {
    let _turn = one_job_at_a_time();
    let dir = std::env::temp_dir().join(format!("bcp-telemetry-reshard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fw = Framework::Megatron { distributed_optimizer: true };
    let (dp2, tp2) = (Parallelism::new(1, 2, 1).unwrap(), Parallelism::new(2, 1, 1).unwrap());
    on_disk_ranks(&dir, dp2, move |rank, ckpt| {
        let state = build_train_state(&zoo::tiny_gpt(), fw, dp2, rank, true);
        ckpt.save(&SaveRequest::new("file:///job/step_5", &state, 5)).unwrap().wait().unwrap();
    });
    on_disk_ranks(&dir, tp2, move |rank, ckpt| {
        let mut target = build_train_state(&zoo::tiny_gpt(), fw, tp2, rank, true);
        ckpt.load(&mut LoadRequest::new("file:///job/step_5", &mut target)).unwrap();
    });

    let job = dir.join("job");
    let artifact = job.join("step_5").join(TELEMETRY_LOAD_FILE);
    let doc = StepTelemetry::from_jsonl(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    let spans = doc.all_spans();
    let waits: Vec<_> = spans.iter().filter(|s| s.name == "load/all2all").collect();
    assert_eq!(waits.len(), 2, "one peer wait per rank: {waits:?}");
    for wait in &waits {
        assert_eq!(wait.io_bytes, 0, "{wait:?}");
        for attr in ["forwarded_bytes", "batches"] {
            assert!(wait.attrs.contains_key(attr), "{attr} missing: {wait:?}");
        }
    }
    assert!(
        waits.iter().any(|w| w.attr_num("forwarded_bytes") > 0.0 && w.attr_num("batches") > 0.0),
        "the reshard forwards deduplicated reads: {waits:?}"
    );
    // The wait feeds no I/O series either.
    let registry = MetricsRegistry::new();
    spans.iter().for_each(|span| registry.fold(span, &labels([("job", "reshard")])));
    let io = registry.samples_for("phase_io_bytes_total");
    assert!(io.iter().all(|s| s.labels.get("phase").map(String::as_str) != Some("load/all2all")));

    let (ok, text) = bcpctl(&["report", &job.to_string_lossy(), "--load", "--min-mbps", "1e9"]);
    assert!(ok, "{text}");
    let alerts: Vec<&str> = text.lines().filter(|l| l.starts_with("ALERT slow I/O")).collect();
    assert!(alerts.iter().any(|l| l.contains("load/fetch")), "the threshold flags reads: {text}");
    assert!(alerts.iter().all(|l| !l.contains("load/all2all")), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `take_where` predicate is caller code that runs with the hub's store
/// locked. One that panics must not poison the hub: later spans still
/// arrive through `spans()` and through the next cut.
#[test]
fn a_panicking_take_where_predicate_leaves_the_hub_usable() {
    let hub = MetricsHub::bounded(16);
    let sink = hub.sink();
    drop(sink.span("save", 0, 1));
    let cut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        hub.take_where(|_| panic!("a predicate that fails"))
    }));
    assert!(cut.is_err());
    assert!(hub.spans().iter().any(|s| s.step == 1), "the cut lost a span: {:?}", hub.spans());

    drop(sink.span("save", 0, 2));
    assert!(hub.spans().iter().any(|s| s.step == 2), "{:?}", hub.spans());
    let taken = hub.take_where(|_| true);
    assert!(taken.iter().any(|s| s.step == 1) && taken.iter().any(|s| s.step == 2), "{taken:?}");
    assert!(hub.spans().is_empty());
    assert_eq!(hub.dropped_records(), 0);
}

/// Each artifact line carries the failures logged since the rank's previous
/// line, the way it carries its own drops: a retried write while step 1
/// commits is step 1's failure, and a clean step 2 through the same handles
/// reports none — while the handle's log still holds it.
#[test]
fn a_line_carries_only_the_failures_of_its_own_step() {
    let _turn = one_job_at_a_time();
    let dir = std::env::temp_dir().join(format!("bcp-telemetry-cut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let flaky = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: 1 }).on("step_1/COMPLETE")];
    let backend: DynBackend = Arc::new(FaultLayer::new(disk.clone(), 0, flaky));
    let (fw, par) = (Framework::Ddp, Parallelism::data_parallel(2).unwrap());
    let world = CommWorld::new(2, Backend::Flat);
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let (world, backend) = (world.clone(), backend.clone());
            std::thread::spawn(move || {
                let mut registry = BackendRegistry::new();
                registry.register(Scheme::File, backend);
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw)
                    .parallelism(par)
                    .registry(Arc::new(registry))
                    .build()
                    .unwrap();
                let state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                for step in [1u64, 2] {
                    let url = format!("file:///job/step_{step}");
                    ckpt.save(&SaveRequest::new(url, &state, step)).unwrap().wait().unwrap();
                }
                ckpt.failures().records()
            })
        })
        .collect();
    let logged: Vec<_> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert_eq!(logged.len(), 1, "the handle's log keeps the failure: {logged:?}");
    assert_eq!((logged[0].rank, logged[0].stage.as_str()), (0, "save/commit"));

    let failures = |step: u64| {
        let prefix = format!("job/step_{step}");
        let doc = read_step_telemetry(&disk, &prefix, TELEMETRY_SAVE_FILE).unwrap().unwrap();
        doc.ranks.iter().flat_map(|line| line.failures.clone()).collect::<Vec<_>>()
    };
    assert_eq!(failures(1), logged, "step 1's artifact carries its own failure");
    assert!(failures(2).is_empty(), "step 2 re-reported step 1's failure: {:?}", failures(2));
    let job = dir.join("job").to_string_lossy().to_string();
    for (step, alerts) in [("1", 1), ("2", 0)] {
        let (ok, text) = bcpctl(&["report", &job, "--step", step]);
        assert!(ok, "{text}");
        let raised = text.lines().filter(|l| l.starts_with("ALERT failure")).count();
        assert_eq!(raised, alerts, "step {step}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
