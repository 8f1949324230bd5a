//! `bcpctl` — inspect, verify, and manage ByteCheckpoint checkpoints on a
//! local filesystem.
//!
//! ```text
//! bcpctl list    <job-root-dir>          # discover step_<N> checkpoints
//! bcpctl inspect <checkpoint-dir> [--json]  # metadata summary, or all of it as JSON
//! bcpctl verify  <checkpoint-dir>        # scrub one step: CRCs, ranges, metadata
//! bcpctl export  <checkpoint-dir> <out>  # consolidate into a .safetensors
//! bcpctl retain  <job-root-dir> <k>      # keep newest k, delete the rest
//! bcpctl gc      <job-root-dir>          # delete every torn (uncommitted) step
//! bcpctl scrub   <job-root-dir> [flags]  # full-sweep integrity check (CI)
//! bcpctl report  <job-root-dir> [flags]  # offline telemetry report (§5.3)
//! bcpctl metrics <job-root-dir> [--step N]  # Prometheus text of a step's telemetry
//! bcpctl top     <job-root-dir> [flags]  # per-phase table, re-folded as steps commit
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
//! instead of the tables).
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
//! `verify` is `scrub` for one step: `N` comes from the `step_<N>` directory
//! name (from the metadata when the directory is named otherwise), every
//! finding is printed, and any defect or a missing `COMPLETE` marker fails.
//!
//! `metrics` and `top` are folds of the same artifacts `report` reads: every
//! span of a committed step's save and load artifacts goes through
//! `MetricsRegistry::fold` under `{job=<root dir name>}`. `metrics` prints
//! that registry as Prometheus exposition text (a textfile-collector
//! input); `--step <N>` picks the step (default: latest committed). `top`
//! renders it as a per-phase table — total seconds summed over ranks, and
//! the slowest rank's p50 / p99 — and re-folds the latest committed step
//! every `--interval-ms <N>` (default 2000) until killed; `--once` prints
//! one table and exits.

use bytecheckpoint::core::export::{export_safetensors, metadata_json};
use bytecheckpoint::core::metadata::GlobalMetadata;
use bytecheckpoint::core::step::{self, StepView};
use bytecheckpoint::core::telemetry::read_step_telemetry;
use bytecheckpoint::monitor::analysis::{breakdown_for_rank, phase_percentiles, total_by_rank};
use bytecheckpoint::monitor::export::{chrome_trace, records_csv};
use bytecheckpoint::monitor::{
    labels, render_breakdown, render_heatmap, HeatmapSpec, JsonReport, MetricsRegistry,
    SeriesValue, SpanRecord, TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE,
};
use bytecheckpoint::prelude::{
    scrub_step, scrub_tree, CheckpointManager, DiskBackend, DynBackend, ScrubReport,
};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

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
        [cmd, dir, flags @ ..] if cmd == "metrics" => cmd_metrics(dir, flags),
        [cmd, dir, flags @ ..] if cmd == "top" => cmd_top(dir, flags),
        _ => {
            eprintln!(
                "usage: bcpctl <list|verify|gc> <dir> | inspect <dir> [--json] | export <dir> <out> | retain <dir> <k> | scrub <dir> [--quarantine] | report <dir> [--step N] [--load] [--min-mbps X] [--trace out.json] [--csv out.csv] [--json] | metrics <dir> [--step N] | top <dir> [--interval-ms N] [--once]"
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

fn cmd_inspect(dir: &str, json: bool) -> Result<(), AnyError> {
    let (backend, prefix) = open(dir)?;
    let view = StepView::open(&backend, &prefix, None, &step::once)?;
    let meta = view.metadata.map_err(|issue| issue.to_string())?;
    if json {
        // The stored file is a compact binary image; this is its readable view.
        println!("{}", metadata_json(&meta));
        return Ok(());
    }
    println!("checkpoint   {dir}");
    println!("framework    {}", meta.framework);
    println!("step         {}", meta.step);
    println!("parallelism  {} ({} ranks)", meta.source_parallelism, meta.source_world_size);
    println!("committed    {}", view.committed);
    let tensors = meta.tensor_map.len();
    let shards: usize = meta.tensor_map.values().map(Vec::len).sum();
    println!("tensors      {tensors} logical, {shards} stored shards");
    println!("tensor bytes {}", human_bytes(meta.total_tensor_bytes()));
    println!("state files  {}", meta.state_files.len());
    for name in &meta.state_files {
        println!("  {name}");
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
    let step = match CheckpointManager::step_of(&prefix) {
        Some(step) => step,
        None => {
            let view = StepView::open(&backend, &prefix, None, &step::once)?;
            view.metadata.map_err(|issue| issue.to_string())?.step
        }
    };
    let report = scrub_step(&backend, &prefix, step)?;
    print_scrub(&report);
    if !report.is_clean() {
        return Err(format!("step {step} failed verification (see defects above)").into());
    }
    if !report.committed {
        return Err("checkpoint has no COMPLETE marker (torn or in-progress save)".into());
    }
    println!("OK: step {step} — all CRCs verified, metadata consistent");
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

/// A scrub report's summary line, then every finding (orphans included).
fn print_scrub(report: &ScrubReport) {
    println!("{}", report.summary());
    for issue in &report.issues {
        println!("  [{}] {}: {}", issue.kind, issue.path, issue.detail);
    }
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
        print_scrub(r);
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

/// The committed step `want` names (default: the latest), with every
/// committed step under the root.
fn pick_step(
    mgr: &CheckpointManager,
    dir: &str,
    want: Option<u64>,
) -> Result<(u64, Vec<u64>), AnyError> {
    let committed: Vec<u64> = mgr.list()?.iter().filter(|c| c.committed).map(|c| c.step).collect();
    let step = match (want, committed.last()) {
        (_, None) => return Err(format!("no committed step_<N> checkpoints under {dir}").into()),
        (Some(s), _) if !committed.contains(&s) => {
            return Err(format!("step {s} is not a committed checkpoint").into())
        }
        (Some(s), _) => s,
        (None, Some(&latest)) => latest,
    };
    Ok((step, committed))
}

/// Fold every span of `step`'s save and load artifacts into one registry
/// under `{job=<root dir name>}`: the one series model behind `metrics`
/// and `top`.
fn fold_step(
    backend: &DynBackend,
    mgr: &CheckpointManager,
    job: &str,
    step: u64,
) -> Result<MetricsRegistry, AnyError> {
    let registry = MetricsRegistry::new();
    let base = labels([("job", job)]);
    let mut artifacts = 0;
    for file in [TELEMETRY_SAVE_FILE, TELEMETRY_LOAD_FILE] {
        if let Some(doc) = read_step_telemetry(backend, &mgr.prefix_for(step), file)? {
            doc.all_spans().iter().for_each(|span| registry.fold(span, &base));
            artifacts += 1;
        }
    }
    if artifacts == 0 {
        return Err(format!(
            "step {step} has no telemetry artifact (telemetry disabled when it was written?)"
        )
        .into());
    }
    Ok(registry)
}

fn cmd_metrics(dir: &str, flags: &[String]) -> Result<(), AnyError> {
    let step = match flags {
        [] => None,
        [flag, n] if flag == "--step" => Some(n.parse::<u64>()?),
        _ => return Err(format!("unknown metrics flags {flags:?}").into()),
    };
    let (backend, root) = open(dir)?;
    let mgr = CheckpointManager::new(backend.clone(), root.clone());
    let (step, _) = pick_step(&mgr, dir, step)?;
    print!("{}", fold_step(&backend, &mgr, &root, step)?.render_prometheus());
    Ok(())
}

/// One `top` frame: per phase, the seconds summed over ranks and the
/// slowest rank's p50 / p99 from `phase_ms`.
fn render_top(job: &str, step: u64, registry: &MetricsRegistry) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut rows: BTreeMap<String, (usize, f64, f64, f64)> = BTreeMap::new();
    for s in registry.samples_for("phase_seconds_total") {
        let row = rows.entry(s.labels["phase"].clone()).or_default();
        row.0 += 1;
        row.1 += s.value.scalar().unwrap_or(0.0);
    }
    for s in registry.samples_for("phase_ms") {
        if let (SeriesValue::Histogram(h), Some(row)) = (&s.value, rows.get_mut(&s.labels["phase"]))
        {
            row.2 = row.2.max(h.p50_ms);
            row.3 = row.3.max(h.p99_ms);
        }
    }
    let mut out = format!("bcpctl top: {job} step {step}\n");
    let _ = writeln!(
        out,
        "{:<24} {:>5} {:>14} {:>10} {:>10}",
        "phase", "ranks", "total s", "p50 ms", "p99 ms"
    );
    for (phase, (ranks, total, p50, p99)) in &rows {
        let _ = writeln!(out, "{phase:<24} {ranks:>5} {total:>14.6} {p50:>10.3} {p99:>10.3}");
    }
    out
}

fn cmd_top(dir: &str, flags: &[String]) -> Result<(), AnyError> {
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
    let (backend, root) = open(dir)?;
    let mgr = CheckpointManager::new(backend.clone(), root.clone());
    loop {
        let (step, _) = pick_step(&mgr, dir, None)?;
        let rendered = render_top(&root, step, &fold_step(&backend, &mgr, &root, step)?);
        if once {
            print!("{rendered}");
            return Ok(());
        }
        // Clear + home between refreshes, like top(1).
        print!("\x1b[2J\x1b[H{rendered}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Parsed `report` flags.
struct ReportFlags {
    step: Option<u64>,
    load: bool,
    min_mbps: f64,
    trace: Option<String>,
    csv: Option<String>,
    json: bool,
}

fn parse_report_flags(flags: &[String]) -> Result<ReportFlags, AnyError> {
    let mut out = ReportFlags {
        step: None,
        load: false,
        min_mbps: 10.0,
        trace: None,
        csv: None,
        json: false,
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
            other => return Err(format!("unknown report flag {other:?}").into()),
        }
    }
    Ok(out)
}

/// Print the resilience table from the step's `resil/*` point spans: the
/// retry loop's `resil/retry` / `resil/throttled`, grouped by the pipeline
/// stage they carry, plus the throttle total. Prints nothing when the step
/// saw none — a calm backend should not add noise to the report.
fn print_resilience(spans: &[SpanRecord]) {
    use std::collections::BTreeMap;
    let mut by_stage: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut throttled, mut retry_after) = (0, 0.0);
    for s in spans {
        let stage = s.attrs.get("stage").map_or("-", String::as_str);
        match s.name.as_str() {
            "resil/retry" => by_stage.entry(stage).or_default().0 += 1,
            "resil/throttled" => {
                by_stage.entry(stage).or_default().1 += 1;
                throttled += 1;
                retry_after += s.attr_num("retry_after_ms") / 1e3;
            }
            _ => {}
        }
    }
    if by_stage.is_empty() {
        return;
    }
    println!();
    println!("resilience (engine retry loop):");
    println!("{:<24} {:>8} {:>10}", "stage", "retries", "throttled");
    for (stage, (retries, thr)) in &by_stage {
        println!("{stage:<24} {retries:>8} {thr:>10}");
    }
    println!("events: {throttled} throttled (retry-after total {retry_after:.2}s)");
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
    let (step, committed) = pick_step(&mgr, dir, flags.step)?;
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

    // What the retry loop absorbed while this step was written, from the
    // `resil/*` point spans in the artifact.
    print_resilience(&spans);

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
