//! Engine hot-path benchmark: the pooled, single-copy save pipeline against
//! a one-thread synchronous save, and one load, on a latency-bound
//! (`FaultLayer` delay) backend; emits `results/BENCH_engine.json` for the
//! repo's acceptance gates.
//!
//! Not a criterion bench on purpose: the interesting numbers are end-to-end
//! wall clocks of *one* configured pipeline run each, plus pool counters —
//! plain `Instant` timing keeps the harness dependency-free and lets
//! `scripts/check.sh` smoke it in CI.
//!
//! Usage: `bench_engine [--smoke] [--out PATH]`

use bcp_core::engine::iopool::IoPool;
use bcp_core::engine::load::{execute_load, LoadConfig};
use bcp_core::engine::pool::PinnedPool;
use bcp_core::engine::save::{execute_save, SaveConfig};
use bcp_core::fault::FaultHook;
use bcp_core::integrity::FailureLog;
use bcp_core::metadata::GlobalMetadata;
use bcp_core::plan::{build_tensor_map, local_load_plan, local_save_plan};
use bcp_core::planner::balance::AssignedLoadPlan;
use bcp_model::states::build_train_state;
use bcp_model::{zoo, Framework, TrainState};
use bcp_monitor::{MetricsSink, SpanContext};
use bcp_storage::{fault, DynBackend, FaultLayer, MemoryBackend};
use bcp_topology::Parallelism;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The acceptance scenario: per-op latency ≥ 2ms on every storage call, so
/// serialized I/O round trips dominate.
const OP_LATENCY: Duration = Duration::from_millis(2);

fn throttled_memory() -> DynBackend {
    let profile = fault::throttle(f64::INFINITY, f64::INFINITY, OP_LATENCY);
    Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, profile).named("throttled-mem"))
}

fn fresh_state() -> TrainState {
    let par = Parallelism::data_parallel(1).unwrap();
    build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, 0, true)
}

struct SaveRun {
    e2e: Duration,
    blocking: Duration,
}

/// One full save pipeline run against a fresh throttled backend.
fn run_save(state: &TrainState, cfg: &SaveConfig, pool: &Arc<PinnedPool>) -> SaveRun {
    let backend = throttled_memory();
    let io = IoPool::new(cfg.io_threads);
    let plan = local_save_plan(0, state, "cpu");
    let sink = MetricsSink::disabled();
    let log = Arc::new(FailureLog::new());
    let faults = FaultHook::inert(0);
    let t0 = Instant::now();
    let handle = execute_save(
        &plan,
        state,
        backend,
        "bench",
        pool,
        &io,
        &sink,
        log,
        cfg,
        0,
        &faults,
        SpanContext::none(),
    )
    .expect("save must start");
    let blocking = handle.blocking();
    handle.wait().expect("save must complete");
    SaveRun { e2e: t0.elapsed(), blocking }
}

/// One full load pipeline run (no peer forwarding: single rank) against a
/// prepared checkpoint.
fn run_load(backend: &DynBackend, meta: &GlobalMetadata, cfg: &LoadConfig) -> (Duration, usize) {
    let mut target = fresh_state();
    let local = local_load_plan(0, &target, meta).expect("load plan");
    let items = local.items.len();
    let assigned = AssignedLoadPlan {
        rank: 0,
        send_to: vec![Vec::new(); local.items.len()],
        reads: local.items,
        recvs: Vec::new(),
    };
    let io = IoPool::new(cfg.io_threads);
    let sink = MetricsSink::disabled();
    let log = Arc::new(FailureLog::new());
    let faults = FaultHook::inert(0);
    let t0 = Instant::now();
    execute_load(
        &assigned,
        &mut target,
        backend.clone(),
        "bench",
        None,
        &io,
        &sink,
        log,
        cfg,
        0,
        &faults,
        SpanContext::none(),
    )
    .expect("load must complete");
    (t0.elapsed(), items)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_engine.json".to_string());

    let state = fresh_state();

    // ---- Save: pre-PR-shaped sequential (1 I/O thread, synchronous) vs
    // the pooled overlapped pipeline (8 threads, asynchronous upload). ----
    let seq_save_cfg = SaveConfig { io_threads: 1, async_upload: false, ..Default::default() };
    let pooled_save_cfg = SaveConfig { io_threads: 8, async_upload: true, ..Default::default() };
    let seq_pool = PinnedPool::new(2);
    let save_seq = run_save(&state, &seq_save_cfg, &seq_pool);
    let pooled_pool = PinnedPool::new(2);
    let save_pooled = run_save(&state, &pooled_save_cfg, &pooled_pool);
    let (allocs, reuses) = pooled_pool.stats();
    let copied = pooled_pool.copied_bytes();
    let planned = local_save_plan(0, &state, "cpu").total_bytes();

    // ---- Load: the Fig. 10 pipeline over the checkpoint saved below. ----
    let backend = throttled_memory();
    {
        let io = IoPool::new(8);
        let plan = local_save_plan(0, &state, "cpu");
        let sink = MetricsSink::disabled();
        let log = Arc::new(FailureLog::new());
        let cfg = SaveConfig { async_upload: false, ..Default::default() };
        execute_save(
            &plan,
            &state,
            backend.clone(),
            "bench",
            &PinnedPool::new(2),
            &io,
            &sink,
            log,
            &cfg,
            0,
            &FaultHook::inert(0),
            SpanContext::none(),
        )
        .expect("seed save must start")
        .wait()
        .expect("seed save must complete");
    }
    let mut meta = GlobalMetadata::new("cpu", 0, "dp1", 1);
    meta.tensor_map = build_tensor_map(&[local_save_plan(0, &state, "cpu")]);

    let load_cfg = LoadConfig { io_threads: 8, ..Default::default() };
    let (load, items) = run_load(&backend, &meta, &load_cfg);
    assert!(items >= 8, "scenario must exercise >= 8 read items, got {items}");

    let scenario = serde_json::json!({
        "backend": "FaultLayer(MemoryBackend)",
        "op_latency_ms": OP_LATENCY.as_secs_f64() * 1e3,
        "read_items": items,
        "planned_bytes": planned,
        "smoke": smoke,
    });
    let report = serde_json::json!({
        "header": bcp_bench::header::report_header("bench_engine", &scenario),
        "scenario": scenario,
        "save": {
            "sequential": { "e2e_ms": ms(save_seq.e2e), "blocking_ms": ms(save_seq.blocking) },
            "pooled":     { "e2e_ms": ms(save_pooled.e2e), "blocking_ms": ms(save_pooled.blocking) },
        },
        "load": { "e2e_ms": ms(load) },
        "pool": {
            "allocs": allocs,
            "reuses": reuses,
            "copied_bytes": copied,
            "single_copy": copied == planned,
        },
    });
    let rendered = serde_json::to_string_pretty(&report).expect("serializable report");
    if let Some(dir) = std::path::Path::new(&out).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&out, &rendered).expect("write report");
    println!("{rendered}");
    println!("wrote {out}");
    assert_eq!(copied, planned, "capture must copy each tensor byte exactly once");
}
