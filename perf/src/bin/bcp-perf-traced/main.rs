//! Per-layer metrics of one workload (`--trace 1`): layer probes on the
//! workload's real inputs, the end-to-end windows uncorrected, what
//! telemetry and tracing cost, rooflines, and three findings about the seed.
//! Spans go to `perf/out/trace_<workload>.json`. See `perf/README.md`.

mod probes;
mod trace;

use bcp_perf::job::{Job, JobConfig, Loader, Oracle, Store};
use bcp_perf::reference::{Reference, NOMINAL_S};
use bcp_perf::report::{Metric, Report};
use bcp_perf::stats::{median, summarize};
use bcp_perf::sys::Provenance;
use bcp_perf::workload::{StoreKind, Workload};
use bcp_perf::{disk_dir, open_store, out_dir, start_job, Args, Bench, LoadKind, WARMUP_SAVES};
use bytecheckpoint::prelude::*;
use probes::Probes;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Tracer, TracingBackend, NO_PARENT};

/// Fresh jobs whose first save is timed.
const COLD_JOBS: usize = 3;
/// Rounds made even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 6;
/// The ISSUE's limit on one trace file.
const MAX_TRACE_BYTES: u64 = 50 * 1024 * 1024;

struct Run {
    metrics: Vec<Metric>,
    lines: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn put(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric::median_of(name, unit, samples));
    }
}

/// 80 loads through one `Checkpointer` pair: how much slower the last five
/// are than the first five. A finding about the seed, not a metric.
fn load_repeat_slowdown(
    run: &mut Run,
    store: &Store,
    cfg: &JobConfig,
    location: &str,
    states: &[TrainState],
) -> Result<(), String> {
    const LOADS: usize = 80;
    let mut oracle = Oracle::new(states.to_vec());
    let mut loader = Loader::fresh(store, cfg)?;
    let mut secs = Vec::with_capacity(LOADS);
    for _ in 0..LOADS {
        run.attempted += 1;
        secs.push(loader.load(location, &mut oracle.got).inspect_err(|_| run.failed += 1)?);
        run.failed += (oracle.mismatches() > 0) as u64;
        oracle.poison();
    }
    let (first, last) = (median(&secs[..5]), median(&secs[LOADS - 5..]));
    run.lines.push((
        "load_repeat_slowdown_x".into(),
        format!(
            "{:.2} (loads 76-80 take {:.4} s, loads 1-5 {:.4} s, one handle)",
            last / first,
            last,
            first
        ),
    ));
    Ok(())
}

/// What `save()` stalls for with the heap as the previous save left it,
/// beside the stall from a trimmed heap that the rounds measured. A finding
/// about the seed, not a metric: it is why the harness trims the heap before
/// every timed operation (README rule 6), and it makes that choice visible
/// in the output.
fn save_stall_heap_modes(
    run: &mut Run,
    bench: &mut Bench,
    trimmed_s: &[f64],
) -> Result<(), String> {
    const SAVES: u64 = 10;
    let mut untrimmed_ms = Vec::new();
    for step in bench.newest() + 1..=bench.newest() + SAVES {
        run.attempted += 1;
        let saved = bench.job.save(step).inspect_err(|_| run.failed += 1)?;
        untrimmed_ms.push(saved.stall_s * 1e3);
        bench.job.delete_step(step)?;
    }
    let (left, trimmed) = (summarize(&untrimmed_ms), summarize(trimmed_s).scaled(1e3));
    run.lines.push((
        "save_stall_heap_modes".into(),
        format!(
            "{:.1} ms with the heap as the save before left it ({SAVES} saves back to back: \
             min {:.1}, p25 {:.1}, p75 {:.1}, max {:.1}), {:.1} ms from a trimmed heap (median of \
             {} rounds; what every metric here is measured from)",
            left.median, left.min, left.p25, left.p75, left.max, trimmed.median, trimmed.n
        ),
    ));
    Ok(())
}

/// Does a default-config two-rank save of this model to `DiskBackend` commit
/// and restore bitwise? A finding about the seed, not a metric: the save is
/// expected to fail there, so it is not counted as an operation.
fn disk_default_split(run: &mut Run, w: &Workload, states: &[TrainState]) -> Result<(), String> {
    let dir = out_dir().join(format!("split-{}", w.name));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::disk(&dir)?;
    let cfg = JobConfig { side: w.saving, options: WorkflowOptions::default(), telemetry: true };
    let mut job = Job::start(&store, "job", &cfg, states.to_vec())?;
    let verdict = match job.save(0) {
        Err(e) => format!("no (the save failed: {e})"),
        Ok(_) => {
            let mut oracle = Oracle::new(states.to_vec());
            match Loader::fresh(&store, &cfg)?.load(&job.step_location(0), &mut oracle.got) {
                Err(e) => format!("no (the save committed, the load failed: {e})"),
                Ok(_) if oracle.mismatches() > 0 => "no (the restored state differs)".into(),
                Ok(_) => "yes".into(),
            }
        }
    };
    drop(job);
    let _ = std::fs::remove_dir_all(&dir);
    run.lines.push(("disk_default_split_ok".into(), verdict));
    Ok(())
}

fn measure(args: &Args, tracer: &std::sync::Arc<Tracer>, run: &mut Run) -> Result<(), String> {
    let started = Instant::now();
    let w = &args.workload;
    let saving = JobConfig { side: w.saving, options: w.options(), telemetry: true };
    let quiet = JobConfig { telemetry: false, ..saving.clone() };
    let store = open_store(w)?;
    // The workload's input: in no end-to-end metric (one build a run is all
    // there is time for, and one sample spreads 0.13-0.18), so timed here.
    let t0 = Instant::now();
    let states = w.states(w.saving, args.seed);
    let build_s = t0.elapsed().as_secs_f64();
    run.metrics.push(Metric::new("model.train_state.build_s", "s", build_s));
    let reshard = w.states(w.target, args.seed);

    // First save through a fresh Checkpointer: no plan cache, so planning and
    // the gather/dedup/scatter are on the blocking path (paper Fig. 15).
    // All but the last job are dropped after that one save.
    let (mut cold_stall_ms, mut cold_s) = (Vec::new(), Vec::new());
    for i in 1..COLD_JOBS {
        run.attempted += 1;
        let mut job =
            Job::start(&store, &format!("job-{}-cold{i}", args.seed), &saving, states.clone())?;
        let cold = job.save(0).inspect_err(|_| run.failed += 1)?;
        cold_stall_ms.push(cold.stall_s * 1e3);
        cold_s.push(cold.total_s);
        job.delete_step(0)?;
    }
    run.attempted += 1 + WARMUP_SAVES;
    let (job, cold) = start_job(&store, &format!("job-{}", args.seed), &saving, states.clone())
        .inspect_err(|_| run.failed += 1)?;
    cold_stall_ms.push(cold.stall_s * 1e3);
    cold_s.push(cold.total_s);
    run.put("core.workflow.save.cold_stall_ms", "ms", &cold_stall_ms);
    run.put("core.workflow.save.cold_s", "s", &cold_s);
    let mut plain = Bench::new(w, &store, job, saving.clone(), reshard.clone())?;
    if !plain.job.scrub_clean(0)? {
        run.failed += 1;
    }

    // The same job twice more: with telemetry off, and with the harness's
    // span-recording wrapper between the engine and the backend.
    run.attempted += 2 * (1 + WARMUP_SAVES);
    let (job, _) = start_job(&store, &format!("job-{}-quiet", args.seed), &quiet, states.clone())
        .inspect_err(|_| run.failed += 1)?;
    let mut silent = Bench::new(w, &store, job, quiet, reshard.clone())?;
    let wrapper = TracingBackend::new(store.backend.clone(), tracer.clone(), bcp_perf::RANKS);
    let traced_store = store.wrapped(|_| wrapper.clone());
    let (job, _) =
        start_job(&traced_store, &format!("job-{}-traced", args.seed), &saving, states.clone())
            .inspect_err(|_| run.failed += 1)?;
    let mut traced = Bench::new(w, &traced_store, job, saving.clone(), reshard.clone())?;
    wrapper.flush(NO_PARENT);
    for kind in [LoadKind::Same, LoadKind::Reshard] {
        let op = if kind == LoadKind::Same {
            "core.workflow.load"
        } else {
            "core.workflow.reshard_load"
        };
        let (loaded, _) = tracer.span(NO_PARENT, op, "ranks=2", 0, |root| {
            let loaded = traced.load(kind);
            wrapper.flush(root);
            (loaded, 0, 0)
        });
        loaded?;
    }

    let mut probes = Probes {
        w,
        tracer: tracer.clone(),
        states: &states,
        reshard: &reshard,
        store: &store,
        step_key: plain.job.step_key(0),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let probed = probes.run();
    run.metrics.append(&mut probes.metrics);
    run.attempted += probes.attempted;
    run.failed += probes.failed;
    probed?;

    match w.name {
        "dense_tp2_mem" => {
            load_repeat_slowdown(run, &store, &saving, &plain.job.step_location(0), &states)?
        }
        "zero3_dp2_disk" => disk_default_split(run, w, &states)?,
        _ => {}
    }

    // The end-to-end windows, uncorrected, with the three jobs interleaved.
    let mut reference = Reference::new();
    let deadline = started + Duration::from_secs(args.seconds);
    let (mut ref_s, mut save_s, mut load_s, mut reshard_s) = (vec![], vec![], vec![], vec![]);
    let mut stall_s = vec![];
    let (mut silent_save_s, mut silent_load_s, mut traced_save_s) = (vec![], vec![], vec![]);
    let rounds: Result<(), String> = (|| {
        while Instant::now() < deadline || ref_s.len() < MIN_ROUNDS {
            ref_s.push(reference.sample());
            let (saved, _) = plain.save()?;
            stall_s.push(saved.stall_s);
            save_s.push(saved.total_s);
            silent_save_s.push(silent.save()?.0.total_s);
            let (saved, _) = tracer.span(NO_PARENT, "core.workflow.save", "ranks=2", 0, |root| {
                let saved = traced.save();
                wrapper.flush(root);
                (saved, 0, 0)
            });
            traced_save_s.push(saved?.0.total_s);
            load_s.push(plain.load(LoadKind::Same)?.wall_s);
            silent_load_s.push(silent.load(LoadKind::Same)?.wall_s);
            reshard_s.push(plain.load(LoadKind::Reshard)?.wall_s);
        }
        Ok(())
    })();
    for bench in [&plain, &silent, &traced] {
        run.attempted += bench.attempted;
        run.failed += bench.failed;
    }
    rounds?;
    if w.name == "zero3_dp2_disk" {
        save_stall_heap_modes(run, &mut plain, &stall_s)?;
    }

    run.put("core.workflow.save.raw_s", "s", &save_s);
    run.put("core.workflow.load.raw_s", "s", &load_s);
    run.put("core.workflow.reshard_load.raw_s", "s", &reshard_s);
    run.put("harness.reference_s", "s", &ref_s);
    let at_ref = NOMINAL_S / summarize(&ref_s).fast_half_mean;
    run.metrics.push(Metric::new("harness.speed_correction", "ratio", at_ref));
    let ratio = |a: &[f64], b: &[f64]| median(a) / median(b);
    run.metrics.extend([
        Metric::new("monitor.telemetry.save_cost_ratio", "ratio", ratio(&save_s, &silent_save_s)),
        Metric::new("monitor.telemetry.load_cost_ratio", "ratio", ratio(&load_s, &silent_load_s)),
        Metric::new("trace.cost_ratio", "ratio", ratio(&traced_save_s, &save_s)),
    ]);
    let fast = summarize(&save_s).fast_half_mean;
    run.lines.push((
        "save_s".into(),
        format!(
            "{:.6} raw (fast-half mean), {:.6} at reference speed (x {:.4})",
            fast,
            fast * at_ref,
            at_ref
        ),
    ));
    Ok(())
}

/// Beside every throughput, the share of its roofline it reaches.
fn annotate_rooflines(metrics: &mut [Metric]) {
    let roof = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    let (memcpy, write, read) = (
        roof("roofline.memcpy.gbps"),
        roof("roofline.file_write_fsync.gbps"),
        roof("roofline.file_read.gbps"),
    );
    for m in
        metrics.iter_mut().filter(|m| m.name.ends_with(".gbps") && !m.name.starts_with("roofline."))
    {
        let (against, roofline) = match m.name {
            "storage.disk.write_segments.gbps" | "storage.disk.concat.gbps" => {
                ("file_write_fsync", write)
            }
            "storage.disk.read_range.gbps" => ("file_read", read),
            _ => ("memcpy", memcpy),
        };
        if let Some(r) = roofline {
            m.note = format!("{:.1}% of roofline.{against}", 100.0 * m.value / r);
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bcp-perf-traced: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    std::fs::create_dir_all(out_dir()).expect("create perf/out");
    let tracer = Tracer::new();
    let mut run = Run { metrics: Vec::new(), lines: Vec::new(), attempted: 0, failed: 0 };
    let outcome = measure(&args, &tracer, &mut run);
    if w.store == StoreKind::Disk {
        let _ = std::fs::remove_dir_all(disk_dir(w));
    }
    annotate_rooflines(&mut run.metrics);

    let trace_path = out_dir().join(format!("trace_{}.json", w.name));
    let trace_bytes = tracer.write(&trace_path, w.name).expect("write trace file");
    run.lines.push((
        "trace".into(),
        format!(
            "{} spans, {} bytes in {}",
            tracer.spans().len(),
            trace_bytes,
            trace_path.display()
        ),
    ));
    if trace_bytes > MAX_TRACE_BYTES {
        run.failed += 1;
        run.lines.push(("error".into(), format!("trace file over {MAX_TRACE_BYTES} bytes")));
    }
    let mut report = Report {
        workload: w.name.into(),
        seed: args.seed,
        seconds: args.seconds,
        traced: true,
        metrics: run.metrics,
        attempted: run.attempted.max(1),
        failed: run.failed,
        lines: run.lines,
    };
    if let Err(e) = &outcome {
        report.failed = report.failed.max(1);
        report.lines.push(("error".into(), e.clone()));
    }
    let path = out_dir().join(format!("layers_{}.json", w.name));
    report.write_json(&path, &Provenance::collect(&out_dir())).expect("write result file");
    if outcome.is_err() {
        // Not every per-layer metric exists: say why, print no result line.
        for (k, v) in &report.lines {
            eprintln!("bcp-perf-traced: {k}: {v}");
        }
        return ExitCode::FAILURE;
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
