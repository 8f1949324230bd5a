//! Distribution-at-inference-scale benchmark: N simulated replicas
//! cold-start one committed checkpoint over a genuinely bandwidth-capped
//! backend, directly (every replica reads everything) vs through the
//! distribution layer (content-addressed chunks + single-flight read cache
//! + peer fan-out tree). Emits `results/BENCH_fanout.json`.
//!
//! The checkpoint is produced by the *real* save path (so the commit-time
//! `chunk_manifest.json` is the one the engine wrote), the backend cap is
//! the *real* `FairShareScheduler` token bucket (shared across all reader
//! threads — unlike a `FaultLayer` delay, aggregate throughput does not scale with
//! thread count), and backend traffic is measured by an instrumented
//! wrapper, not inferred.
//!
//! Gates (full mode): at the largest fleet the fan-out path's aggregate
//! restore throughput is ≥ 8× the direct baseline's, and backend bytes
//! read stay ≤ 1.5× the checkpoint size at every fleet size.
//!
//! Usage: `bench_fanout [--smoke] [--out PATH]`

use bcp_bench::harness::{memory_registry, run_ranks};
use bcp_collectives::{Backend, CommWorld};
use bcp_coordinator::{FairShareScheduler, SchedulerConfig};
use bcp_core::api::SaveRequest;
use bcp_core::chunks::CHUNK_MANIFEST_FILE;
use bcp_core::distribution::{fetch_step_fanout, read_chunk_manifest, FanoutOptions};
use bcp_core::engine::save::SaveConfig;
use bcp_core::workflow::WorkflowOptions;
use bcp_model::states::build_train_state;
use bcp_model::{zoo, Framework};
use bcp_monitor::MetricsSink;
use bcp_storage::{assemble, DynBackend, DynGovernor, OpCountingBackend, ReadCache, StackConfig};
use bcp_topology::Parallelism;
use std::sync::Arc;
use std::time::Instant;

/// Chunk size for the content-addressed index: small enough that the tiny
/// benchmark model yields a real multi-chunk schedule.
const CHUNK_BYTES: u64 = 8 * 1024;
const SPEEDUP_GATE: f64 = 8.0;
const BYTES_GATE: f64 = 1.5;

/// A fresh capped backend stack: memory → op-counting (truth for backend
/// traffic) → fair-share governed (the shared bandwidth envelope).
fn capped_stack(mem: &DynBackend, rate_bps: u64) -> (Arc<OpCountingBackend>, DynBackend) {
    let counting = Arc::new(OpCountingBackend::new(mem.clone()));
    let governor: DynGovernor = Arc::new(FairShareScheduler::new(SchedulerConfig {
        rate_bps,
        burst_bytes: 256 * 1024,
        chunk_bytes: 64 * 1024,
    }));
    let govern = Some((governor, "fanout".to_string(), MetricsSink::disabled()));
    let governed = assemble(counting.clone(), StackConfig { govern, ..StackConfig::default() });
    (counting, governed.top)
}

struct SweepRow {
    replicas: usize,
    baseline_wall_s: f64,
    fanout_wall_s: f64,
    backend_bytes: u64,
    peer_bytes: u64,
    cache_hits: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_fanout.json".to_string());

    // ---- Commit one checkpoint through the real save path. ----
    let (registry, mem) = memory_registry();
    let options = WorkflowOptions {
        save: SaveConfig { chunk_bytes: CHUNK_BYTES, ..Default::default() },
        ..Default::default()
    };
    run_ranks(
        Parallelism::data_parallel(1).expect("dp1"),
        Framework::Ddp,
        registry,
        MetricsSink::disabled(),
        options,
        |_rank, ckpt| {
            let par = Parallelism::data_parallel(1).expect("dp1");
            let state = build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, 0, true);
            ckpt.save(&SaveRequest::new("mem://bench/fanout/step_1", &state, 1))
                .expect("save")
                .wait()
                .expect("save tail");
        },
    );
    let prefix = mem
        .list("")
        .expect("list store")
        .into_iter()
        .find(|k| k.ends_with(CHUNK_MANIFEST_FILE))
        .map(|k| k.trim_end_matches(&format!("/{CHUNK_MANIFEST_FILE}")).to_string())
        .expect("committed step carries a chunk manifest");
    let manifest = Arc::new(read_chunk_manifest(&mem, &prefix).expect("manifest parses"));
    let checkpoint_bytes = manifest.total_bytes();
    let unique_bytes = manifest.unique_bytes();
    let shard_files: Vec<String> = manifest.files.iter().map(|f| f.file.clone()).collect();
    assert!(manifest.unique_chunks().len() >= 8, "scenario must be multi-chunk");

    // ---- Sweep. The envelope is sized so the direct baseline at the
    // largest fleet takes a few seconds: slow enough to dominate thread
    // and relay overheads, fast enough for CI. ----
    let fleets: &[usize] = if smoke { &[16] } else { &[16, 64, 256, 512] };
    let n_max = *fleets.last().expect("non-empty sweep");
    let baseline_target_s = if smoke { 1.0 } else { 4.0 };
    let rate_bps = ((n_max as u64 * checkpoint_bytes) as f64 / baseline_target_s)
        .max(4.0 * 1024.0 * 1024.0) as u64;

    let mut rows: Vec<SweepRow> = Vec::new();
    for &n in fleets {
        // Direct baseline: every replica reads every shard file whole.
        let (counting, governed) = capped_stack(&mem, rate_bps);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let governed = governed.clone();
                let prefix = prefix.clone();
                let files = shard_files.clone();
                std::thread::spawn(move || {
                    let mut total = 0u64;
                    for f in &files {
                        total +=
                            governed.read(&format!("{prefix}/{f}")).expect("read").len() as u64;
                    }
                    total
                })
            })
            .collect();
        let per_replica: Vec<u64> =
            handles.into_iter().map(|h| h.join().expect("reader")).collect();
        let baseline_wall_s = t0.elapsed().as_secs_f64();
        assert!(per_replica.iter().all(|&b| b == checkpoint_bytes));
        assert_eq!(counting.read_bytes(), n as u64 * checkpoint_bytes);

        // Fan-out: same envelope, fresh counters; each replica runs the
        // collective fetch with its own single-flight cache.
        let (counting, governed) = capped_stack(&mem, rate_bps);
        let world = CommWorld::new(n, Backend::Flat);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let comm = world.communicator(r).expect("rank in world");
                let governed = governed.clone();
                let prefix = prefix.clone();
                let manifest = manifest.clone();
                std::thread::spawn(move || {
                    let cache = Arc::new(ReadCache::new(governed.clone(), 64 * 1024 * 1024));
                    let (files, stats) = fetch_step_fanout(
                        &comm,
                        &governed,
                        Some(&cache),
                        &prefix,
                        &manifest,
                        &FanoutOptions { gpus_per_host: 8, verify_hashes: true },
                        &MetricsSink::disabled(),
                    )
                    .expect("fan-out fetch");
                    let assembled: u64 = files.values().map(|b| b.len() as u64).sum();
                    (assembled, stats)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("replica")).collect();
        let fanout_wall_s = t0.elapsed().as_secs_f64();
        for (assembled, _) in &results {
            assert_eq!(*assembled, checkpoint_bytes, "every replica assembles the full step");
        }
        rows.push(SweepRow {
            replicas: n,
            baseline_wall_s,
            fanout_wall_s,
            backend_bytes: counting.read_bytes(),
            peer_bytes: results.iter().map(|(_, s)| s.peer_bytes).sum(),
            cache_hits: results.iter().map(|(_, s)| s.cache_hits as u64).sum(),
        });
        println!(
            "N={n:>4}: baseline {baseline_wall_s:.3}s, fanout {fanout_wall_s:.3}s, \
             backend bytes {} ({:.2}x ckpt)",
            counting.read_bytes(),
            counting.read_bytes() as f64 / checkpoint_bytes as f64
        );
    }

    // ---- Report + gates. ----
    let scenario = serde_json::json!({
        "model": "tiny-GPT",
        "chunk_bytes": CHUNK_BYTES,
        "checkpoint_bytes": checkpoint_bytes,
        "unique_bytes": unique_bytes,
        "chunks": manifest.unique_chunks().len(),
        "files": shard_files.len(),
        "rate_bps": rate_bps,
        "fleets": fleets,
        "smoke": smoke,
    });
    let sweep: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            let speedup = r.baseline_wall_s / r.fanout_wall_s.max(1e-9);
            serde_json::json!({
                "replicas": r.replicas,
                "baseline_wall_s": r.baseline_wall_s,
                "fanout_wall_s": r.fanout_wall_s,
                "speedup": speedup,
                "aggregate_mbps_baseline":
                    r.replicas as f64 * checkpoint_bytes as f64 / r.baseline_wall_s.max(1e-9) / 1e6,
                "aggregate_mbps_fanout":
                    r.replicas as f64 * checkpoint_bytes as f64 / r.fanout_wall_s.max(1e-9) / 1e6,
                "backend_bytes": r.backend_bytes,
                "backend_bytes_ratio": r.backend_bytes as f64 / checkpoint_bytes as f64,
                "peer_bytes": r.peer_bytes,
                "cache_hits": r.cache_hits,
            })
        })
        .collect();
    let last = rows.last().expect("sweep ran");
    let speedup_at_max = last.baseline_wall_s / last.fanout_wall_s.max(1e-9);
    let bytes_ratio_max = rows
        .iter()
        .map(|r| r.backend_bytes as f64 / checkpoint_bytes as f64)
        .fold(0.0f64, f64::max);
    let report = serde_json::json!({
        "header": bcp_bench::header::report_header("bench_fanout", &scenario),
        "scenario": scenario,
        "sweep": sweep,
        "gates": {
            "speedup_at_max_fleet": speedup_at_max,
            "speedup_gate": SPEEDUP_GATE,
            "backend_bytes_ratio_max": bytes_ratio_max,
            "backend_bytes_gate": BYTES_GATE,
        },
    });
    let rendered = serde_json::to_string_pretty(&report).expect("serializable report");
    if let Some(dir) = std::path::Path::new(&out).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&out, &rendered).expect("write report");
    println!("{rendered}");
    println!("wrote {out}");

    assert!(
        bytes_ratio_max <= BYTES_GATE,
        "backend bytes {bytes_ratio_max:.2}x checkpoint size exceeds the {BYTES_GATE}x gate"
    );
    if !smoke {
        assert!(
            speedup_at_max >= SPEEDUP_GATE,
            "fan-out at N={n_max} is only {speedup_at_max:.1}x the direct baseline \
             (gate {SPEEDUP_GATE}x)"
        );
    }
}
