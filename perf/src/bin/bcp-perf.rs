//! End-to-end metrics of one workload (`--trace 0`): the states and the job,
//! then interleaved rounds of reference · save · load · reshard load until
//! `--seconds` is spent, with a throw-away job start between rounds now and
//! then. See `perf/README.md` for each metric's window.

use bcp_perf::job::{Job, JobConfig, Store};
use bcp_perf::reference::{Reference, NOMINAL_S};
use bcp_perf::report::{Metric, Report};
use bcp_perf::stats::summarize;
use bcp_perf::sys::{peak_rss_mb, reset_peak_rss, trim_heap, Provenance};
use bcp_perf::workload::StoreKind;
use bcp_perf::{
    disk_dir, open_store, out_dir, start_job, Args, Bench, LoadKind, MIN_ROUNDS, WARMUP_SAVES,
};
use bytecheckpoint::prelude::TrainState;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Job starts sampled per run, one before the rounds and one after every
/// `1/JOB_STARTS` of them, each a job of its own that is thrown away. (Three
/// back to back before the rounds met the same slow disk together: 1.4 s or
/// 3 s each on `zero3_dp2_disk`, run by run.)
const JOB_STARTS: usize = 4;

#[derive(Default)]
struct Samples {
    /// Building the states: made once, reported beside the metrics.
    states_s: f64,
    /// The windows of each sampled job start.
    job_start_s: Vec<[f64; WINDOWS]>,
    reference_s: Vec<f64>,
    stall_s: Vec<f64>,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    reshard_s: Vec<f64>,
    stored_ratio: Vec<f64>,
    /// Each round's own peak RSS.
    round_peak_mb: Vec<f64>,
    save_cpu_s: f64,
    load_cpu_s: f64,
    /// Saves and loads made, and those that failed.
    attempted: u64,
    failed: u64,
}

/// Timed windows of one job start: world + checkpointers + cold save, then
/// each warm-up save.
const WINDOWS: usize = 1 + WARMUP_SAVES as usize;

/// One set-up sample: a job of its own, from a trimmed heap, timed as one
/// window per save. Between the windows the step before is deleted off the
/// clock, so every save meets the disk a round's save meets (one step more
/// than is retained) and not the two saves before it.
fn sample_job_start(
    s: &mut Samples,
    store: &Store,
    saving: &JobConfig,
    states: &[TrainState],
    seed: u64,
) -> Result<(), String> {
    let root = format!("job-{seed}-start{}", s.job_start_s.len());
    let mut windows = [0.0; WINDOWS];
    s.attempted += WINDOWS as u64;
    trim_heap();
    let t0 = Instant::now();
    let mut job = Job::start(store, &root, saving, states.to_vec())?;
    let cold = job.save(0);
    windows[0] = t0.elapsed().as_secs_f64();
    cold.inspect_err(|_| s.failed += 1)?;
    for step in 1..=WARMUP_SAVES {
        job.delete_step(step - 1)?;
        trim_heap();
        windows[step as usize] = job.save(step).inspect_err(|_| s.failed += 1)?.total_s;
    }
    job.delete_step(WARMUP_SAVES)?;
    s.job_start_s.push(windows);
    Ok(())
}

fn measure(args: &Args, s: &mut Samples) -> Result<(), String> {
    let w = &args.workload;
    let saving = JobConfig { side: w.saving, options: w.options(), telemetry: true };
    let store = open_store(w)?;

    // The states are the job's input: built once (3.5 s on the dense model,
    // more than a run can pay again, and one sample of it spreads 0.13-0.18
    // run to run), so their time is a plain line, not part of `setup_s`.
    // Set-up is what a job then pays before its first warm save; it is
    // sampled on jobs of their own between the rounds, not on this one.
    let t0 = Instant::now();
    let states = w.states(w.saving, args.seed);
    s.states_s = t0.elapsed().as_secs_f64();
    s.attempted += 1 + WARMUP_SAVES;
    let (job, _cold) = start_job(&store, &format!("job-{}", args.seed), &saving, states.clone())
        .inspect_err(|_| s.failed += 1)?;
    let mut bench = Bench::new(w, &store, job, saving.clone(), w.states(w.target, args.seed))?;
    if !bench.job.scrub_clean(0)? {
        s.failed += 1;
    }
    let state_bytes = w.state_bytes() as f64;
    let mut reference = Reference::new();
    // `--seconds` is what the rounds get; the job starts between them are
    // not counted.
    let (window, mut spent) = (Duration::from_secs(args.seconds), Duration::ZERO);
    let rounds = (|| loop {
        if spent >= window && s.reference_s.len() >= MIN_ROUNDS {
            return Ok(());
        }
        if s.job_start_s.len() < JOB_STARTS
            && spent * JOB_STARTS as u32 >= window * s.job_start_s.len() as u32
        {
            sample_job_start(s, &store, &saving, &states, args.seed)?;
        }
        let round = Instant::now();
        reset_peak_rss()?;
        s.reference_s.push(reference.sample());
        let (save, cpu_s) = bench.save()?;
        s.stall_s.push(save.stall_s);
        s.save_s.push(save.total_s);
        s.save_cpu_s += cpu_s;
        s.stored_ratio.push(bench.job.stored_bytes(bench.newest())? as f64 / state_bytes);
        let load = bench.load(LoadKind::Same)?;
        s.load_s.push(load.wall_s);
        let reshard = bench.load(LoadKind::Reshard)?;
        s.reshard_s.push(reshard.wall_s);
        s.load_cpu_s += load.cpu_s + reshard.cpu_s;
        s.round_peak_mb.push(peak_rss_mb());
        spent += round.elapsed();
    })();
    s.attempted += bench.attempted;
    s.failed += bench.failed;
    rounds
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bcp-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    std::fs::create_dir_all(out_dir()).expect("create perf/out");
    let mut s = Samples::default();
    let outcome = measure(&args, &mut s);
    if w.store == StoreKind::Disk {
        let _ = std::fs::remove_dir_all(disk_dir(w));
    }

    let mut report = Report {
        workload: w.name.into(),
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        metrics: Vec::new(),
        attempted: s.attempted.max(1),
        failed: s.failed,
        lines: Vec::new(),
    };
    if let Err(e) = &outcome {
        report.failed = report.failed.max(1);
        report.lines.push(("error".into(), e.clone()));
    }
    if !s.reshard_s.is_empty() {
        // Every time, wall or CPU, is reported at reference speed.
        let reference = summarize(&s.reference_s);
        let at_ref = NOMINAL_S / reference.fast_half_mean;
        let gb = w.state_bytes() as f64 / 1e9;
        // A job start is its windows one after another; `setup_s` takes the
        // fastest each window was seen at. Whether this disk takes a save at
        // once or makes it wait changes from one save to the next (a
        // round's saves are 0.40-0.65 s on `zero3_dp2_disk`), and whole job
        // starts were all slow for minutes on end; the fastest of each
        // window repeats.
        let whole: Vec<f64> = s.job_start_s.iter().map(|w| w.iter().sum()).collect();
        let fastest: f64 = (0..WINDOWS)
            .map(|i| s.job_start_s.iter().map(|w| w[i]).fold(f64::INFINITY, f64::min))
            .sum();
        // The value is at reference speed; the detail beside it is as measured.
        let sampled = |name, unit, samples: &[f64], scale: f64| {
            let d = summarize(samples).scaled(scale);
            Metric::new(name, unit, d.fast_half_mean * at_ref).with_detail(d)
        };
        report.metrics = vec![
            Metric::new("setup_s", "s", fastest * at_ref).with_detail(summarize(&whole)),
            sampled("save_stall_ms", "ms", &s.stall_s, 1e3),
            sampled("save_s", "s", &s.save_s, 1.0),
            sampled("load_s", "s", &s.load_s, 1.0),
            sampled("reshard_load_s", "s", &s.reshard_s, 1.0),
            Metric::new(
                "save_cpu_s_per_gb",
                "s/GB",
                s.save_cpu_s / (gb * s.save_s.len() as f64) * at_ref,
            ),
            Metric::new(
                "load_cpu_s_per_gb",
                "s/GB",
                s.load_cpu_s / (gb * (s.load_s.len() + s.reshard_s.len()) as f64) * at_ref,
            ),
            Metric::median_of("stored_bytes_per_state_byte", "ratio", &s.stored_ratio),
            // One maximum over a whole run repeats badly (which transient
            // buffers happen to coexist once); the median of the rounds'
            // maxima repeats well.
            Metric::median_of("peak_rss_mb", "MB", &s.round_peak_mb),
        ];
        report.lines.extend([
            // As measured; in no metric (the traced run has it per layer).
            ("states_build_s".to_string(), format!("{:.6}", s.states_s)),
            ("reference_s".to_string(), format!("{:.6}", reference.fast_half_mean)),
            ("reference_n".to_string(), reference.n.to_string()),
            // Every time above is the measured one times this.
            ("speed_correction".to_string(), format!("{at_ref:.6}")),
        ]);
    }
    let path = out_dir().join(format!("result_{}.json", w.name));
    report.write_json(&path, &Provenance::collect(&out_dir())).expect("write result file");
    if report.metrics.is_empty() {
        // Nothing was measured: say why and print no result line.
        eprintln!("bcp-perf: {}", outcome.err().unwrap_or_default());
        return ExitCode::FAILURE;
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
