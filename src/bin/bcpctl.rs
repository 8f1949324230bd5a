//! `bcpctl` — inspect, verify, and manage ByteCheckpoint checkpoints on a
//! local filesystem.
//!
//! ```text
//! bcpctl list    <job-root-dir>          # discover step_<N> checkpoints
//! bcpctl inspect <checkpoint-dir> [--json]  # metadata summary, or all of it as JSON
//! bcpctl verify  <checkpoint-dir>        # decode every frame, check CRCs
//! bcpctl export  <checkpoint-dir> <out>  # consolidate into a .safetensors
//! bcpctl retain  <job-root-dir> <k>      # keep newest k, delete the rest
//! bcpctl gc      <job-root-dir>          # delete every torn (uncommitted) step
//! bcpctl scrub   <job-root-dir> [flags]  # full-sweep integrity check (CI)
//! bcpctl report  <job-root-dir> [flags]  # offline telemetry report (§5.3)
//! bcpctl serve   <addr> [flags]          # run the checkpoint control plane
//! bcpctl jobs    <addr>                  # list jobs on a running coordinator
//! bcpctl status  <addr> <job-id>         # one job's control-plane status
//! bcpctl top     <addr> [flags]          # live fleet view (alerts, rates)
//! bcpctl metrics <addr>                  # Prometheus-text scrape to stdout
//! bcpctl sim     <addr> [flags]          # drive simulated jobs at a server
//! ```
//!
//! All commands run against the real on-disk checkpoint layout produced by
//! `bytecheckpoint::save` (per-rank frame files + global metadata + the
//! `COMPLETE` marker). `report` additionally reads the `_telemetry.jsonl`
//! artifacts each committed save persists next to the checkpoint, and needs
//! no live process: heat map, per-rank breakdown, critical path, percentile
//! histograms, slow-I/O alerts, and regressions against the prior steps are
//! all reconstructed from the persisted spans. Flags:
//! `--step <N>` (default: latest committed), `--load` (analyze the load
//! artifact instead of the save one), `--min-mbps <X>` (slow-I/O threshold,
//! default 10), `--trace <out.json>` (dump a Chrome/Perfetto trace),
//! `--csv <out.csv>` (dump the counted spans, one phase occurrence per
//! row), `--json` (emit the whole analysis as one machine-readable document
//! instead of the tables),
//! `--fanout <N>` (price an N-replica cold start of this checkpoint,
//! direct vs the chunk-store fan-out tree, across cache warmth levels —
//! text mode only).
//!
//! `scrub` sweeps every `step_<N>` under the job root: metadata must parse
//! and validate, every `ByteMeta` file/offset/length must exist and land on
//! a CRC-verified frame payload, and unreferenced files are reported as
//! orphans. Any defect in a *committed* step makes the process exit
//! non-zero (for CI); uncommitted torn debris is named but only fails the
//! run when no committed step exists. `--quarantine` moves each corrupt
//! committed step aside to `<root>/quarantine/` so the next `load_latest`
//! resumes from the newest clean step.
//!
//! `serve` runs the multi-job checkpoint control plane (`bcp-coordinator`):
//! a JSON-lines-over-TCP daemon doing job registration with typed
//! admission/backpressure, per-job commit telemetry, and global fair-share
//! storage-bandwidth scheduling. Flags: `--max-jobs <N>` (admission slots,
//! default 64), `--rate-mbps <X>` (shared bandwidth envelope, default 256),
//! `--for-seconds <S>` (exit after S seconds; default: run until killed),
//! `--journal <DIR>` (write-ahead journal + snapshots: a restarted serve
//! pointed at the same directory recovers jobs, shares, and commit
//! lineage), `--lease-ttl-s <S>` (lease TTL, default 30: a job that stops
//! heartbeating/committing that long is marked lost and its bandwidth
//! share released). `jobs` and `status` are thin wire clients against a
//! running `serve`.
//!
//! `top` is the live fleet view: it polls the coordinator's telemetry
//! plane and renders per-job commit rates, bandwidth shares, commit-latency
//! percentiles, governed-wait totals, and active SLO alerts, refreshing
//! every `--interval-ms <N>` (default 2000) until killed; `--once` prints
//! a single snapshot and exits (rates need two snapshots, so the first
//! frame shows `-`). `metrics` prints the same Prometheus exposition text
//! a `GET /metrics` scrape of the serve address returns. `sim` drives
//! `--jobs <N>` (default 2) simulated multi-rank training jobs of
//! `--steps <S>` (default 2) saves each against a running coordinator —
//! registration, commit reports, and telemetry frames all travel the wire,
//! while the jobs' storage traffic contends on one *local* shared
//! `--rate-mbps <X>` (default 8) bandwidth envelope, ending with a
//! hot-tier reload so recovery telemetry flows too.

use bytecheckpoint::coordinator::{
    render_top, run_remote_sim_job, AdmissionPolicy, CoordinatorClient, CoordinatorServer,
    CoordinatorService, FairShareScheduler, SchedulerConfig, ServiceOptions, TopSnapshot,
};
use bytecheckpoint::core::export::{export_safetensors, metadata_json};
use bytecheckpoint::core::format::decode_frames;
use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::core::spec::JobSpec;
use bytecheckpoint::core::telemetry::read_step_telemetry;
use bytecheckpoint::core::HotTierConfig;
use bytecheckpoint::model::zoo;
use bytecheckpoint::monitor::analysis::{breakdown_for_rank, phase_percentiles, total_by_rank};
use bytecheckpoint::monitor::export::{chrome_trace, records_csv};
use bytecheckpoint::monitor::{
    render_breakdown, render_heatmap, HeatmapSpec, JsonReport, SpanRecord, TELEMETRY_LOAD_FILE,
    TELEMETRY_SAVE_FILE,
};
use bytecheckpoint::prelude::{scrub_tree, CheckpointManager, DiskBackend, DynBackend};
use bytecheckpoint::storage::DynGovernor;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, dir] if cmd == "list" => cmd_list(dir),
        [cmd, dir] if cmd == "inspect" => cmd_inspect(dir, false),
        [cmd, dir, flag] if cmd == "inspect" && flag == "--json" => cmd_inspect(dir, true),
        [cmd, dir] if cmd == "verify" => cmd_verify(dir),
        [cmd, dir, out] if cmd == "export" => cmd_export(dir, out),
        [cmd, dir, k] if cmd == "retain" => cmd_retain(dir, k),
        [cmd, dir] if cmd == "gc" => cmd_gc(dir),
        [cmd, dir, flags @ ..] if cmd == "scrub" => cmd_scrub(dir, flags),
        [cmd, dir, flags @ ..] if cmd == "report" => cmd_report(dir, flags),
        [cmd, addr, flags @ ..] if cmd == "serve" => cmd_serve(addr, flags),
        [cmd, addr] if cmd == "jobs" => cmd_jobs(addr),
        [cmd, addr, job_id] if cmd == "status" => cmd_status(addr, job_id),
        [cmd, addr, flags @ ..] if cmd == "top" => cmd_top(addr, flags),
        [cmd, addr] if cmd == "metrics" => cmd_metrics(addr),
        [cmd, addr, flags @ ..] if cmd == "sim" => cmd_sim(addr, flags),
        _ => {
            eprintln!(
                "usage: bcpctl <list|verify|gc> <dir> | inspect <dir> [--json] | export <dir> <out> | retain <dir> <k> | scrub <dir> [--quarantine] | report <dir> [--step N] [--load] [--min-mbps X] [--trace out.json] [--csv out.csv] [--json] [--fanout N] | serve <addr> [--max-jobs N] [--rate-mbps X] [--for-seconds S] [--journal DIR] [--lease-ttl-s S] | jobs <addr> | status <addr> <job-id> | top <addr> [--interval-ms N] [--once] | metrics <addr> | sim <addr> [--jobs N] [--steps S] [--rate-mbps X]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bcpctl: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Open `dir` as (backend rooted at its parent, key prefix = its basename).
fn open(dir: &str) -> Result<(DynBackend, String), AnyError> {
    let path = Path::new(dir);
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = path
        .file_name()
        .ok_or_else(|| format!("{dir:?} has no final path component"))?
        .to_string_lossy()
        .to_string();
    let backend: DynBackend = Arc::new(DiskBackend::new(parent)?);
    Ok((backend, name))
}

fn human_bytes(n: u64) -> String {
    match n {
        0..=1023 => format!("{n} B"),
        1024..=1048575 => format!("{:.1} KiB", n as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1} MiB", n as f64 / 1048576.0),
        _ => format!("{:.2} GiB", n as f64 / 1073741824.0),
    }
}

fn cmd_list(dir: &str) -> Result<(), AnyError> {
    let (backend, root) = open(dir)?;
    let mgr = CheckpointManager::new(backend, root);
    let list = mgr.list()?;
    if list.is_empty() {
        println!("no step_<N> checkpoints under {dir}");
        return Ok(());
    }
    println!("{:>10}  {:<11}  {:>10}  prefix", "step", "state", "size");
    for c in &list {
        let size = mgr.stored_bytes(c.step).unwrap_or(0);
        println!(
            "{:>10}  {:<11}  {:>10}  {}/{}",
            c.step,
            if c.committed { "committed" } else { "UNCOMMITTED" },
            human_bytes(size),
            dir.trim_end_matches('/'),
            c.prefix.rsplit('/').next().unwrap_or(&c.prefix),
        );
    }
    if let Some(latest) = mgr.latest()? {
        println!("latest committed: step {}", latest.step);
    }
    Ok(())
}

fn read_metadata(backend: &DynBackend, prefix: &str) -> Result<GlobalMetadata, AnyError> {
    let bytes = backend.read(&format!("{prefix}/{METADATA_FILE}"))?;
    Ok(GlobalMetadata::from_bytes(&bytes)?)
}

fn cmd_inspect(dir: &str, json: bool) -> Result<(), AnyError> {
    let (backend, prefix) = open(dir)?;
    let meta = read_metadata(&backend, &prefix)?;
    if json {
        // The stored file is a compact binary image; this is its readable view.
        println!("{}", metadata_json(&meta));
        return Ok(());
    }
    let committed = backend.exists(&format!("{prefix}/COMPLETE"))?;
    println!("checkpoint   {dir}");
    println!("framework    {}", meta.framework);
    println!("step         {}", meta.step);
    println!("parallelism  {} ({} ranks)", meta.source_parallelism, meta.source_world_size);
    println!("committed    {committed}");
    let tensors = meta.tensor_map.len();
    let shards: usize = meta.tensor_map.values().map(Vec::len).sum();
    println!("tensors      {tensors} logical, {shards} stored shards");
    println!("tensor bytes {}", human_bytes(meta.total_tensor_bytes()));
    if let Some(rep) = &meta.loader_map.replicated_file {
        println!("dataloader   {} shard files + replicated ({rep})", meta.loader_map.shards.len());
    }
    if !meta.extra_files.is_empty() {
        println!("extra state  {} rank files", meta.extra_files.len());
    }
    // Top tensors by size.
    let mut sizes: Vec<(&String, u64)> = meta
        .tensor_map
        .iter()
        .map(|(fqn, entries)| (fqn, entries.iter().map(|e| e.byte.length).sum()))
        .collect();
    sizes.sort_by_key(|(_, s)| std::cmp::Reverse(*s));
    println!("largest tensors:");
    for (fqn, s) in sizes.iter().take(5) {
        println!("  {:<48} {}", fqn, human_bytes(*s));
    }
    Ok(())
}

fn cmd_verify(dir: &str) -> Result<(), AnyError> {
    let (backend, prefix) = open(dir)?;
    let meta = read_metadata(&backend, &prefix)?;
    meta.validate().map_err(|e| format!("metadata invalid: {e}"))?;
    if !backend.exists(&format!("{prefix}/COMPLETE"))? {
        return Err("checkpoint has no COMPLETE marker (torn or in-progress save)".into());
    }
    // Decode every referenced storage file frame by frame (CRC-checked) and
    // cross-check that each ByteMeta points at a frame payload.
    let mut files: Vec<&String> =
        meta.tensor_map.values().flatten().map(|e| &e.byte.file).collect();
    files.sort();
    files.dedup();
    let mut total_frames = 0usize;
    for file in &files {
        let data = backend.read(&format!("{prefix}/{file}"))?;
        let frames = decode_frames(&data).map_err(|e| format!("{file}: {e}"))?;
        total_frames += frames.len();
    }
    let referenced: usize = meta.tensor_map.values().map(Vec::len).sum();
    if total_frames != referenced {
        return Err(format!(
            "frame count mismatch: files hold {total_frames}, metadata references {referenced}"
        )
        .into());
    }
    println!(
        "OK: {} files, {} frames, {} — all CRCs verified, metadata consistent",
        files.len(),
        total_frames,
        human_bytes(meta.total_tensor_bytes())
    );
    Ok(())
}

fn cmd_export(dir: &str, out: &str) -> Result<(), AnyError> {
    let (backend, prefix) = open(dir)?;
    let blob = export_safetensors(&backend, &prefix, false)?;
    std::fs::write(out, &blob)?;
    println!("wrote {} ({})", out, human_bytes(blob.len() as u64));
    Ok(())
}

fn cmd_retain(dir: &str, k: &str) -> Result<(), AnyError> {
    let keep: usize = k.parse().map_err(|_| format!("retain count {k:?} is not a number"))?;
    let (backend, root) = open(dir)?;
    let mgr = CheckpointManager::new(backend, root);
    let deleted = mgr.retain_last(keep)?;
    if deleted.is_empty() {
        println!("nothing to delete (≤{keep} committed checkpoints present)");
    } else {
        println!("deleted steps: {deleted:?}");
    }
    Ok(())
}

fn cmd_gc(dir: &str) -> Result<(), AnyError> {
    let (backend, root) = open(dir)?;
    let mgr = CheckpointManager::new(backend, root);
    let deleted = mgr.gc_torn()?;
    if deleted.is_empty() {
        println!("no torn checkpoints under {dir}");
    } else {
        println!("garbage-collected torn steps: {deleted:?}");
    }
    Ok(())
}

fn cmd_scrub(dir: &str, flags: &[String]) -> Result<(), AnyError> {
    let mut quarantine = false;
    for flag in flags {
        match flag.as_str() {
            "--quarantine" => quarantine = true,
            other => return Err(format!("unknown scrub flag {other:?}").into()),
        }
    }
    let (backend, root) = open(dir)?;
    let reports = scrub_tree(&backend, &root)?;
    if reports.is_empty() {
        return Err(format!("no step_<N> checkpoints under {dir}").into());
    }
    let mgr = CheckpointManager::new(backend, root);
    let mut bad_committed = 0usize;
    let mut clean_committed = 0usize;
    for r in &reports {
        println!("{}", r.summary());
        for issue in &r.issues {
            println!("  [{}] {}: {}", issue.kind, issue.path, issue.detail);
        }
        if !r.committed {
            println!("  torn save (no COMPLETE marker) — `bcpctl gc` removes it");
            continue;
        }
        if r.is_clean() {
            clean_committed += 1;
        } else {
            bad_committed += 1;
            if quarantine {
                let dest = mgr.quarantine(r.step)?;
                println!("  quarantined step {} -> {dest}", r.step);
            }
        }
    }
    println!(
        "scrubbed {} step(s): {clean_committed} clean committed, {bad_committed} corrupt",
        reports.len()
    );
    if bad_committed > 0 {
        return Err(format!(
            "{bad_committed} committed step(s) failed verification (see defects above)"
        )
        .into());
    }
    if clean_committed == 0 {
        return Err("no committed step verifies: nothing to resume from".into());
    }
    Ok(())
}

fn cmd_serve(addr: &str, flags: &[String]) -> Result<(), AnyError> {
    let mut policy = AdmissionPolicy::default();
    let mut sched = SchedulerConfig::default();
    let mut for_seconds: Option<u64> = None;
    let mut journal: Option<String> = None;
    let mut lease_ttl_s: u64 = 30;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--max-jobs" => policy.max_jobs = value("--max-jobs")?.parse()?,
            "--rate-mbps" => sched.rate_bps = value("--rate-mbps")?.parse::<u64>()? * 1024 * 1024,
            "--for-seconds" => for_seconds = Some(value("--for-seconds")?.parse()?),
            "--journal" => journal = Some(value("--journal")?),
            "--lease-ttl-s" => lease_ttl_s = value("--lease-ttl-s")?.parse()?,
            other => return Err(format!("unknown serve flag {other:?}").into()),
        }
    }
    let opts = ServiceOptions {
        policy,
        scheduler: sched,
        lease_ttl: std::time::Duration::from_secs(lease_ttl_s.max(1)),
        ..ServiceOptions::default()
    };
    let service = match &journal {
        Some(path) => CoordinatorService::recover(path, opts)?,
        None => CoordinatorService::with_options(opts),
    };
    let server = CoordinatorServer::bind(addr, service)?;
    println!("listening on {}", server.local_addr());
    println!(
        "admission: {} job slots; envelope: {}/s shared",
        policy.max_jobs,
        human_bytes(sched.rate_bps)
    );
    match &journal {
        Some(path) => println!(
            "durability: journal at {path} ({} prior restart(s) recovered); lease ttl {lease_ttl_s}s",
            server.service().restarts()
        ),
        None => println!("durability: in-memory only (pass --journal DIR to survive restarts); lease ttl {lease_ttl_s}s"),
    }
    match for_seconds {
        Some(s) => {
            std::thread::sleep(std::time::Duration::from_secs(s));
            server.shutdown();
        }
        None => loop {
            std::thread::park();
        },
    }
    Ok(())
}

fn cmd_jobs(addr: &str) -> Result<(), AnyError> {
    let mut client = CoordinatorClient::connect(addr)?;
    let jobs = client.jobs()?;
    if jobs.is_empty() {
        println!("no jobs registered on {addr}");
        return Ok(());
    }
    println!(
        "{:<20} {:>6} {:>5} {:>6} {:>3} {:>7} {:>9} {:>10} {:>8} {:>8}",
        "job",
        "state",
        "world",
        "weight",
        "gen",
        "commits",
        "last step",
        "committed",
        "p50 ms",
        "p99 ms"
    );
    for j in &jobs {
        println!(
            "{:<20} {:>6} {:>5} {:>6} {:>3} {:>7} {:>9} {:>10} {:>8.1} {:>8.1}",
            j.job_id,
            j.state.label(),
            j.world_size,
            j.weight,
            j.generation,
            j.commits,
            j.last_step.map_or("-".to_string(), |s| s.to_string()),
            human_bytes(j.bytes_committed),
            j.latency.p50_ms,
            j.latency.p99_ms,
        );
    }
    Ok(())
}

fn cmd_status(addr: &str, job_id: &str) -> Result<(), AnyError> {
    let mut client = CoordinatorClient::connect(addr)?;
    let j = client.status(job_id)?;
    println!("job          {}", j.job_id);
    println!("state        {}", j.state.label());
    println!("world size   {}", j.world_size);
    println!("weight       {}", j.weight);
    println!("generation   {}", j.generation);
    println!("registered   {:.1}s ago", j.registered_for_s);
    println!("lease age    {:.1}s", j.lease_age_s);
    println!("commits      {}", j.commits);
    println!("last step    {}", j.last_step.map_or("-".to_string(), |s| s.to_string()));
    println!("committed    {}", human_bytes(j.bytes_committed));
    println!(
        "latency      p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms over {} commits",
        j.latency.p50_ms, j.latency.p90_ms, j.latency.p99_ms, j.latency.max_ms, j.latency.count
    );
    Ok(())
}

fn cmd_top(addr: &str, flags: &[String]) -> Result<(), AnyError> {
    let mut interval_ms: u64 = 2000;
    let mut once = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse::<u64>()
                    .map_err(|_| "--interval-ms takes milliseconds")?
                    .max(100);
            }
            "--once" => once = true,
            other => return Err(format!("unknown top flag {other:?}").into()),
        }
    }
    let mut client = CoordinatorClient::connect(addr)?;
    let mut prev: Option<(TopSnapshot, Instant)> = None;
    loop {
        let cur = client.top()?;
        let rendered = match &prev {
            Some((snap, at)) => render_top(&cur, Some((snap, at.elapsed().as_secs_f64()))),
            None => render_top(&cur, None),
        };
        if once {
            print!("{rendered}");
            return Ok(());
        }
        // Clear + home between refreshes, like top(1).
        print!("\x1b[2J\x1b[H{rendered}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        prev = Some((cur, Instant::now()));
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

fn cmd_metrics(addr: &str) -> Result<(), AnyError> {
    let mut client = CoordinatorClient::connect(addr)?;
    print!("{}", client.metrics_text()?);
    Ok(())
}

fn cmd_sim(addr: &str, flags: &[String]) -> Result<(), AnyError> {
    let mut jobs: usize = 2;
    let mut steps: u64 = 2;
    let mut rate_mbps: u64 = 8;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--jobs" => jobs = value("--jobs")?.parse()?,
            "--steps" => steps = value("--steps")?.parse()?,
            "--rate-mbps" => rate_mbps = value("--rate-mbps")?.parse()?,
            other => return Err(format!("unknown sim flag {other:?}").into()),
        }
    }
    if jobs == 0 || steps == 0 {
        return Err("sim needs --jobs ≥ 1 and --steps ≥ 1".into());
    }
    // One local envelope shared by every simulated job: bandwidth
    // arbitration stays off the wire so the coordinator never sits on the
    // save critical path, but the jobs still genuinely contend.
    let governor: DynGovernor = Arc::new(FairShareScheduler::new(SchedulerConfig {
        rate_bps: rate_mbps * 1024 * 1024,
        burst_bytes: 256 * 1024,
        chunk_bytes: 64 * 1024,
    }));
    println!(
        "sim: {jobs} job(s) x {steps} step(s) against {addr}, {} shared envelope",
        format_args!("{rate_mbps} MiB/s")
    );
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let addr = addr.to_string();
            let governor = governor.clone();
            std::thread::spawn(move || {
                let job = format!("sim-{i}");
                let spec = JobSpec::new(&job, format!("mem://jobs/{job}"))
                    .hot_tier(HotTierConfig::enabled());
                run_remote_sim_job(
                    addr.as_str(),
                    &spec,
                    &zoo::tiny_gpt(),
                    steps,
                    Some(governor),
                    true,
                )
            })
        })
        .collect();
    let mut failed = 0usize;
    for h in handles {
        match h.join().map_err(|_| "sim job thread panicked")? {
            Ok(r) => {
                let slowest = r.commit_ms.iter().cloned().fold(0.0f64, f64::max);
                println!(
                    "{}: {} step(s), {}, slowest commit {:.1} ms",
                    r.job_id,
                    r.steps,
                    human_bytes(r.bytes),
                    slowest
                );
            }
            Err(e) => {
                eprintln!("sim job failed: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} sim job(s) failed").into());
    }
    println!("done — `bcpctl top {addr} --once` or `bcpctl metrics {addr}` to inspect");
    Ok(())
}

/// Parsed `report` flags.
struct ReportFlags {
    step: Option<u64>,
    load: bool,
    min_mbps: f64,
    trace: Option<String>,
    csv: Option<String>,
    json: bool,
    fanout: Option<usize>,
}

fn parse_report_flags(flags: &[String]) -> Result<ReportFlags, AnyError> {
    let mut out = ReportFlags {
        step: None,
        load: false,
        min_mbps: 10.0,
        trace: None,
        csv: None,
        json: false,
        fanout: None,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--step" => out.step = Some(value("--step")?.parse::<u64>()?),
            "--load" => out.load = true,
            "--min-mbps" => out.min_mbps = value("--min-mbps")?.parse::<f64>()?,
            "--trace" => out.trace = Some(value("--trace")?),
            "--csv" => out.csv = Some(value("--csv")?),
            "--json" => out.json = true,
            "--fanout" => out.fanout = Some(value("--fanout")?.parse::<usize>()?),
            other => return Err(format!("unknown report flag {other:?}").into()),
        }
    }
    Ok(out)
}

/// The `--fanout N` pricing table: what an N-replica cold start of this
/// checkpoint costs directly vs through the distribution layer
/// (content-addressed chunks + single-flight cache + peer fan-out tree),
/// across cache warmth levels, using the calibrated backend/peer
/// bandwidths from `bcp-sim`'s cost model.
/// Print the resilience table from the step's `resil/*` point spans: the
/// retry loop's `resil/retry` / `resil/throttled`, grouped by the pipeline
/// stage they carry, plus the totals of what the resilience layer emitted.
/// Prints nothing when the step saw none — a calm backend should not add
/// noise to the report.
fn print_resilience(spans: &[SpanRecord]) {
    use std::collections::BTreeMap;
    let mut by_stage: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let stage = s.attrs.get("stage").map_or("-", String::as_str);
        match s.name.as_str() {
            "resil/retry" => by_stage.entry(stage).or_default().0 += 1,
            "resil/throttled" => by_stage.entry(stage).or_default().1 += 1,
            _ => {}
        }
    }
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let (throttled, hedges, hedge_wins) =
        (count("resil/throttled"), count("resil/hedge"), count("resil/hedge_win"));
    let (opens, rejects) = (count("resil/circuit_open"), count("resil/circuit_reject"));
    let brownouts = count("resil/brownout_enter");
    if by_stage.is_empty() && throttled + hedges + opens + rejects + brownouts == 0 {
        return;
    }
    println!();
    println!("resilience (adaptive storage client):");
    if !by_stage.is_empty() {
        println!("{:<24} {:>8} {:>10}", "stage", "retries", "throttled");
        for (stage, (retries, thr)) in &by_stage {
            println!("{stage:<24} {retries:>8} {thr:>10}");
        }
    }
    let retry_after: f64 = spans
        .iter()
        .filter(|s| s.name == "resil/throttled")
        .map(|s| s.attr_num("retry_after_ms") / 1e3)
        .sum();
    println!(
        "events: {throttled} throttled (retry-after total {retry_after:.2}s), \
         {hedges} hedged read(s) ({hedge_wins} won), \
         {opens} circuit open(s) ({rejects} fast-fail rejection(s)), \
         {brownouts} brownout(s)"
    );
}

fn print_fanout_pricing(replicas: usize, checkpoint_bytes: u64) {
    use bytecheckpoint::sim::FanoutModel;
    let base =
        FanoutModel { replicas: replicas.max(1), checkpoint_bytes, ..FanoutModel::default() };
    println!();
    println!(
        "fan-out pricing: {} replicas x {} ({}/s backend, {}/s peer links, depth-{} tree)",
        base.replicas,
        human_bytes(checkpoint_bytes),
        human_bytes(base.backend_bps as u64),
        human_bytes(base.peer_bps as u64),
        base.tree_depth
    );
    println!("direct (every replica reads the backend): {:.2}s", base.direct_restore_seconds());
    println!("{:>8} {:>12} {:>14} {:>9}", "cache", "restore s", "backend bytes", "speedup");
    for hit in [0.0, 0.5, 0.9, 0.99] {
        let m = FanoutModel { cache_hit_rate: hit, ..base };
        println!(
            "{:>7.0}% {:>12.3} {:>14} {:>8.1}x",
            hit * 100.0,
            m.restore_seconds(),
            human_bytes(m.backend_bytes() as u64),
            m.speedup()
        );
    }
}

/// Heat-map geometry from the checkpoint's parallelism string
/// (`"TP=a,DP=b,PP=c"`): PP rows, DP·TP columns, matching the paper's
/// Fig. 11 layout. Falls back to one row over the whole world.
fn heatmap_spec(meta: &GlobalMetadata) -> HeatmapSpec {
    let mut tp = 1usize;
    let mut dp = 1usize;
    let mut pp = 1usize;
    for part in meta.source_parallelism.split(',') {
        if let Some((key, v)) = part.split_once('=') {
            if let Ok(n) = v.trim().parse::<usize>() {
                match key.trim() {
                    "TP" => tp = n.max(1),
                    "DP" => dp = n.max(1),
                    "PP" => pp = n.max(1),
                    _ => {}
                }
            }
        }
    }
    if tp * dp * pp == meta.source_world_size && meta.source_world_size > 0 {
        HeatmapSpec { rows: pp, cols: dp * tp, row_label: "PP", col_label: "DP*TP" }
    } else {
        HeatmapSpec {
            rows: 1,
            cols: meta.source_world_size.max(1),
            row_label: "job",
            col_label: "rank",
        }
    }
}

/// Per-phase totals of every *other* committed step with a `file`
/// artifact: the rolling baseline the regression check diffs against.
fn baseline_totals(
    backend: &DynBackend,
    mgr: &CheckpointManager,
    committed: &[u64],
    step: u64,
    file: &str,
) -> Vec<std::collections::BTreeMap<String, std::time::Duration>> {
    committed
        .iter()
        .filter(|&&s| s != step)
        .filter_map(|&s| read_step_telemetry(backend, &mgr.prefix_for(s), file).ok().flatten())
        .map(|d| {
            phase_percentiles(&d.all_spans()).into_iter().map(|(p, st)| (p, st.total)).collect()
        })
        .collect()
}

fn cmd_report(dir: &str, raw_flags: &[String]) -> Result<(), AnyError> {
    let flags = parse_report_flags(raw_flags)?;
    let (backend, root) = open(dir)?;
    let mgr = CheckpointManager::new(backend.clone(), root);
    let committed: Vec<u64> = mgr.list()?.iter().filter(|c| c.committed).map(|c| c.step).collect();
    if committed.is_empty() {
        return Err(format!("no committed step_<N> checkpoints under {dir}").into());
    }
    let step = match flags.step {
        Some(s) if committed.contains(&s) => s,
        Some(s) => return Err(format!("step {s} is not a committed checkpoint").into()),
        None => *committed.last().expect("non-empty"),
    };
    let file = if flags.load { TELEMETRY_LOAD_FILE } else { TELEMETRY_SAVE_FILE };
    let op = if flags.load { "load" } else { "save" };
    let prefix = mgr.prefix_for(step);
    let doc = read_step_telemetry(&backend, &prefix, file)?.ok_or_else(|| {
        format!("step {step} has no {file} artifact (telemetry disabled when it was written?)")
    })?;
    let meta = mgr.metadata(step)?;
    let spans = doc.all_spans();
    // One analysis for both output modes: the text report renders the same
    // document `--json` serializes (CI diffs the latter).
    let baseline = baseline_totals(&backend, &mgr, &committed, step, file);
    let report = JsonReport::build(step, op, &doc, flags.min_mbps * 1e6, &baseline, 1.5);
    // Optional exports for external tooling.
    if let Some(out) = &flags.trace {
        std::fs::write(out, chrome_trace(&spans))?;
    }
    if let Some(out) = &flags.csv {
        std::fs::write(out, records_csv(&spans))?;
    }
    if flags.json {
        println!("{}", report.to_json());
        return Ok(());
    }

    println!("telemetry report: {dir} step {step} ({op})");
    println!(
        "parallelism {} ({} ranks), artifact lines: {}",
        meta.source_parallelism,
        meta.source_world_size,
        doc.ranks.len()
    );

    // Fig. 11-style heat map of per-rank totals under the op's phases.
    let by_rank = total_by_rank(&spans, &format!("{op}/"));
    println!();
    print!("{}", render_heatmap(&heatmap_spec(&meta), &by_rank));

    // Critical path: the rank every other rank waited for at the barrier.
    println!();
    match &report.critical_path {
        Some(cp) => {
            println!(
                "critical path: rank {} at {:.3}s (median rank {:.3}s), dominated by {} ({:.3}s)",
                cp.rank,
                cp.total_ms / 1e3,
                cp.median_total_ms / 1e3,
                cp.dominant_phase,
                cp.dominant_ms / 1e3
            );
            print!("{}", render_breakdown(cp.rank, &breakdown_for_rank(&spans, cp.rank)));
        }
        None => println!("critical path: no {op}/* spans in the artifact"),
    }

    // Per-phase percentile histogram across ranks.
    println!();
    println!("{:<24} {:>5} {:>9} {:>9} {:>9} {:>9}", "phase", "n", "p50", "p95", "p99", "max");
    for p in &report.phases {
        println!(
            "{:<24} {:>5} {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s",
            p.name,
            p.count,
            p.p50_ms / 1e3,
            p.p95_ms / 1e3,
            p.p99_ms / 1e3,
            p.max_ms / 1e3
        );
    }

    // What the retry loop and the resilience layer absorbed while this step
    // was written, from the `resil/*` point spans in the artifact.
    print_resilience(&spans);

    // Distribution-layer pricing: what serving this checkpoint to N
    // replicas costs, directly vs through the chunk-store fan-out tree.
    if let Some(replicas) = flags.fanout {
        print_fanout_pricing(replicas, meta.total_tensor_bytes());
    }

    // Recovery-tier breakdown (load artifacts only): which tier served each
    // rank's shards, cut from the `load/tier` spans the tiered load emits.
    if flags.load {
        let tier_spans: Vec<_> = spans.iter().filter(|s| s.name == "load/tier").collect();
        if !tier_spans.is_empty() {
            let attr = |s: &SpanRecord, k: &str| s.attr_num(k) as u64;
            println!();
            println!("recovery tiers (per-shard source of this load):");
            println!(
                "{:>5} {:>9} {:>10} {:>9} {:>10} {:>9}",
                "rank", "hot", "hot bytes", "cold", "cold bytes", "fallbacks"
            );
            let (mut hot_f, mut cold_f, mut hot_b, mut cold_b) = (0u64, 0u64, 0u64, 0u64);
            let mut reasons: Vec<String> = Vec::new();
            for s in &tier_spans {
                let (h, c) = (attr(s, "hot_files"), attr(s, "cold_files"));
                let (hb, cb) = (attr(s, "hot_bytes"), attr(s, "cold_bytes"));
                println!(
                    "{:>5} {:>9} {:>10} {:>9} {:>10} {:>9}",
                    s.rank,
                    h,
                    human_bytes(hb),
                    c,
                    human_bytes(cb),
                    attr(s, "fallbacks")
                );
                hot_f += h;
                cold_f += c;
                hot_b += hb;
                cold_b += cb;
                if let Some(r) = s.attrs.get("fallback_reasons") {
                    for reason in r.split("; ") {
                        reasons.push(format!("rank {}: {reason}", s.rank));
                    }
                }
            }
            let total_f = hot_f + cold_f;
            println!(
                "total: {hot_f}/{total_f} shard files hot ({:.1}%), {} hot / {} cold",
                if total_f == 0 { 0.0 } else { 100.0 * hot_f as f64 / total_f as f64 },
                human_bytes(hot_b),
                human_bytes(cold_b)
            );
            for reason in &reasons {
                println!("  fallback: {reason}");
            }
        } else {
            println!();
            println!("recovery tiers: no load/tier spans (cold load or hot tier disabled)");
        }
    }

    // Alerts: slow I/O, failures, dropped events, regressions vs the
    // rolling baseline of every other committed step with an artifact.
    println!();
    for a in &report.alerts {
        let kind = match a.kind.as_str() {
            "slow_io" => "slow I/O",
            "dropped_events" => "dropped events",
            other => other,
        };
        match a.rank {
            Some(rank) => println!("ALERT {kind}: rank {rank} {}", a.detail),
            None => println!("ALERT {kind}: {}", a.detail),
        }
    }
    if baseline.is_empty() {
        println!("no other committed steps with a {file} artifact: skipping regression check");
    } else if !report.alerts.iter().any(|a| a.kind == "regression") {
        println!("no regressions vs the {}-step rolling baseline (threshold 1.5x)", baseline.len());
    }
    if let Some(out) = &flags.trace {
        println!("wrote Chrome trace (load in Perfetto / chrome://tracing): {out}");
    }
    if let Some(out) = &flags.csv {
        println!("wrote records CSV: {out}");
    }
    Ok(())
}
