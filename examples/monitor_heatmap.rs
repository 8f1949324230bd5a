//! Monitoring and visualization (paper §5.3, Figs. 11–12): run a real
//! 32-rank 3D-parallel checkpoint save with the metrics system attached,
//! then render the per-rank saving-time heat map and the critical-path
//! rank's phase breakdown — **from the persisted `_telemetry.jsonl`
//! artifact the save left next to the checkpoint**, the same way `bcpctl
//! report` works on a dead job's directory.
//!
//! ```text
//! cargo run --release --example monitor_heatmap
//! ```

use bytecheckpoint::core::telemetry::read_step_telemetry;
use bytecheckpoint::monitor::analysis::{
    breakdown_for_rank, critical_path, phase_percentiles, slow_ios, total_by_rank,
};
use bytecheckpoint::monitor::{heatmap, render_breakdown};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{fault, FaultLayer};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let par = Parallelism::new(2, 4, 4).unwrap(); // TP=2, DP=4, PP=4: 32 ranks
    let fw = Framework::Megatron { distributed_optimizer: true };

    // A scaled-down "HDFS": throttled so phase durations are visible and
    // proportional to bytes.
    let profile = fault::throttle(400e6, 50e6, Duration::from_micros(300));
    let backend: DynBackend =
        Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, profile).named("hdfs-sim"));
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Hdfs, backend.clone());
        Arc::new(reg)
    };

    println!("saving a {} checkpoint from 32 instrumented ranks...", par.describe());
    let world = CommWorld::new(32, Backend::Tree { gpus_per_host: 8, branching: 4 });
    let handles: Vec<_> = (0..32)
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            std::thread::spawn(move || {
                // Telemetry is on by default: the save persists a
                // `_telemetry.jsonl` artifact next to the checkpoint.
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw)
                    .parallelism(par)
                    .registry(registry)
                    .build()
                    .unwrap();
                let mut state = build_train_state(&zoo::tiny_gpt_8l(), fw, par, rank, true);
                TrainerConfig::default().run(&mut state, 0, 2);
                // Dataloader holders (tp=0, pp=0) also upload token buffers
                // — the paper's Fig. 11 hot rows.
                let loader = if par.holds_dataloader_state(rank) {
                    let replicated = LoaderReplicatedState {
                        workers_per_rank: 2,
                        dp_size: par.dp,
                        sources: vec![DataSource { name: "web".into(), ratio: 1.0, seed: 3 }],
                        context_window: 4_000_000,
                    };
                    let coords = par.coords(rank).unwrap();
                    let mut dl = Dataloader::new(replicated.clone(), coords.dp);
                    // Accumulate a large token buffer (batch not yet full).
                    for _ in 0..2000 {
                        dl.poll();
                    }
                    // Materialize the real token payloads: this is what makes
                    // dataloader holders the Fig. 11 stragglers.
                    let mut shard = dl.shard_state();
                    for r in &mut shard.readers {
                        r.materialize_tokens();
                    }
                    Some((replicated, shard))
                } else {
                    None
                };
                let extra = ExtraState::new(rank as u64);
                let mut req = SaveRequest::new("hdfs://sim/monitored/step_100", &state, 100)
                    .with_extra(&extra);
                if let Some((r, s)) = loader.as_ref() {
                    req = req.with_loader(r, s);
                }
                ckpt.save(&req).expect("save").wait().expect("tail");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Everything below reads the *persisted* artifact back off storage —
    // no live hub required; `bcpctl report` runs the same queries.
    let doc = read_step_telemetry(&backend, "monitored/step_100", TELEMETRY_SAVE_FILE)
        .expect("artifact readable")
        .expect("save persisted telemetry");
    println!("artifact: {} rank lines, step {:?}", doc.ranks.len(), doc.step());

    // ---- Fig. 11: topology heat map of end-to-end save time. ----
    let spans = doc.all_spans();
    let by_rank = total_by_rank(&spans, "save/");
    let spec = heatmap::HeatmapSpec {
        rows: par.pp,
        cols: par.dp * par.tp,
        row_label: "pp stage",
        col_label: "dp*tp",
    };
    println!("\n{}", heatmap::render_heatmap(&spec, &by_rank));
    let stragglers = heatmap::stragglers(&by_rank, 1.3);
    println!("stragglers (>1.3x mean): {stragglers:?} — the dataloader holders (tp=0, pp=0)\n");

    // ---- Fig. 12: phase breakdown of the critical-path rank. ----
    if let Some(cp) = critical_path(&spans, "save/") {
        println!(
            "critical path: rank {} at {:.3}s (median {:.3}s), dominated by {}",
            cp.rank,
            cp.total.as_secs_f64(),
            cp.median_total.as_secs_f64(),
            cp.dominant_phase
        );
        println!("{}", render_breakdown(cp.rank, &breakdown_for_rank(&spans, cp.rank)));
    }

    // ---- Per-phase percentiles across all 32 ranks. ----
    for (phase, st) in phase_percentiles(&spans) {
        println!(
            "{:<18} n={:<3} p50={:.3}s p95={:.3}s p99={:.3}s",
            phase,
            st.count,
            st.p50.as_secs_f64(),
            st.p95.as_secs_f64(),
            st.p99.as_secs_f64()
        );
    }

    // ---- Storage-side alerting (§5.3): flag pathologically slow I/Os. ----
    println!("I/Os below 50 MB/s: {}", slow_ios(&spans, 50e6).len());
}
