//! End-to-end tests of the `bcpctl` CLI against real on-disk checkpoints.

mod common;

use bytecheckpoint::prelude::*;
use common::{reference_state, run_ranks};
use std::process::Command;
use std::sync::Arc;

/// Save two real checkpoints (steps 10 and 20) under `<dir>/job/step_<N>`.
/// `tag` keeps concurrently running tests in separate trees.
fn make_job_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bcpctl-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::File, disk);
        Arc::new(reg)
    };
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    run_ranks(par, fw, registry, move |rank, ckpt| {
        for step in [10u64, 20] {
            let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, step);
            ckpt.save(&SaveRequest::new(format!("file:///job/step_{step}"), &state, step))
                .unwrap()
                .wait()
                .unwrap();
        }
    });
    dir
}

fn bcpctl(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bcpctl")).args(args).output().expect("bcpctl runs");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn list_inspect_verify_export_retain() {
    let dir = make_job_dir("main");
    let job = dir.join("job");
    let job_s = job.to_string_lossy().to_string();

    // list: both steps committed, latest = 20.
    let (ok, text) = bcpctl(&["list", &job_s]);
    assert!(ok, "{text}");
    assert!(text.contains("latest committed: step 20"), "{text}");
    assert_eq!(text.matches("committed").count(), 3, "{text}"); // 2 rows + summary

    // inspect: framework and shard counts.
    let step20 = job.join("step_20").to_string_lossy().to_string();
    let (ok, text) = bcpctl(&["inspect", &step20]);
    assert!(ok, "{text}");
    assert!(text.contains("framework    ddp"), "{text}");
    assert!(text.contains("largest tensors"), "{text}");

    // inspect --json: the decoded metadata, agreeing with the summary.
    let (ok, json) = bcpctl(&["inspect", &step20, "--json"]);
    assert!(ok, "{json}");
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(text.contains(&format!("step         {}", doc["step"].as_u64().unwrap())), "{text}");
    let tensors = doc["tensor_map"].as_object().unwrap().len();
    assert!(text.contains(&format!("tensors      {tensors} logical")), "{text}");

    // verify: all CRCs good.
    let (ok, text) = bcpctl(&["verify", &step20]);
    assert!(ok, "{text}");
    assert!(text.contains("all CRCs verified"), "{text}");

    // verify catches corruption.
    let victim = job.join("step_10/model_0.bin");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();
    let step10 = job.join("step_10").to_string_lossy().to_string();
    let (ok, text) = bcpctl(&["verify", &step10]);
    assert!(!ok, "corrupted checkpoint must fail verify: {text}");

    // export: a parseable safetensors file.
    let out_file = dir.join("model.safetensors").to_string_lossy().to_string();
    let (ok, text) = bcpctl(&["export", &step20, &out_file]);
    assert!(ok, "{text}");
    let blob = bytes::Bytes::from(std::fs::read(&out_file).unwrap());
    let tensors = bytecheckpoint::core::export::parse_safetensors(&blob).unwrap();
    assert!(tensors.contains_key("layers.0.attn.qkv.weight"));

    // retain 1: step 10 (older) is deleted, step 20 stays.
    let (ok, text) = bcpctl(&["retain", &job_s, "1"]);
    assert!(ok, "{text}");
    assert!(text.contains("deleted steps: [10]"), "{text}");
    assert!(!job.join("step_10").join("COMPLETE").exists());
    assert!(job.join("step_20").join("COMPLETE").exists());

    // bad usage exits non-zero.
    let (ok, _) = bcpctl(&["frobnicate"]);
    assert!(!ok);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_fails_ci_on_corruption_and_quarantines() {
    let dir = make_job_dir("scrub");
    let job = dir.join("job");
    let job_s = job.to_string_lossy().to_string();

    // A clean tree scrubs clean: exit zero, every step summarized.
    let (ok, text) = bcpctl(&["scrub", &job_s]);
    assert!(ok, "{text}");
    assert!(text.contains("step 10:"), "{text}");
    assert!(text.contains("step 20:"), "{text}");
    assert!(text.contains("2 clean committed"), "{text}");

    // Flip one byte of a step-20 shard file. The sweep must exit non-zero
    // (CI gate) and name the corrupt file.
    let victim = std::fs::read_dir(job.join("step_20"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("model_")))
        .expect("step 20 holds at least one shard file");
    let victim_name = victim.file_name().unwrap().to_string_lossy().to_string();
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();

    let (ok, text) = bcpctl(&["scrub", &job_s]);
    assert!(!ok, "a corrupt committed step must fail the sweep: {text}");
    assert!(text.contains(&victim_name), "output must name the corrupt shard file: {text}");

    // --quarantine moves the corrupt step aside (still exiting non-zero so
    // CI sees the incident), after which the tree scrubs clean on step 10.
    let (ok, text) = bcpctl(&["scrub", &job_s, "--quarantine"]);
    assert!(!ok, "{text}");
    assert!(text.contains("quarantined step 20"), "{text}");
    assert!(!job.join("step_20").join("COMPLETE").exists(), "step 20 must leave the live tree");
    assert!(
        job.join("quarantine").join("step_20").join(&victim_name).exists(),
        "the corrupt shard must be preserved under quarantine/"
    );

    let (ok, text) = bcpctl(&["scrub", &job_s]);
    assert!(ok, "after quarantine the tree must scrub clean: {text}");
    assert!(text.contains("1 clean committed"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `bcpctl serve` + `jobs` + `status`: a live control plane driven purely
/// through the CLI and the typed wire client.
#[test]
fn serve_jobs_status() {
    use bytecheckpoint::coordinator::CoordinatorClient;
    use bytecheckpoint::prelude::JobSpec;
    use std::io::BufRead;

    let mut child = Command::new(env!("CARGO_BIN_EXE_bcpctl"))
        .args(["serve", "127.0.0.1:0", "--max-jobs", "4", "--for-seconds", "30"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let addr = {
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("banner line");
        line.trim().strip_prefix("listening on ").expect("banner format").to_string()
    };

    let (ok, text) = bcpctl(&["jobs", &addr]);
    assert!(ok, "{text}");
    assert!(text.contains("no jobs registered"), "{text}");

    // Register through the typed client, observe through the CLI.
    let mut client = CoordinatorClient::connect(&addr).unwrap();
    assert!(client.register(JobSpec::new("cli-job", "mem://jobs/cli-job")).unwrap().is_admitted());
    client.report_commit("cli-job", 7, 4096, 12).unwrap();

    let (ok, text) = bcpctl(&["jobs", &addr]);
    assert!(ok, "{text}");
    assert!(text.contains("cli-job"), "{text}");

    let (ok, text) = bcpctl(&["status", &addr, "cli-job"]);
    assert!(ok, "{text}");
    assert!(text.contains("commits      1"), "{text}");
    assert!(text.contains("last step    7"), "{text}");

    let (ok, text) = bcpctl(&["status", &addr, "ghost"]);
    assert!(!ok, "unknown job must exit non-zero: {text}");

    let _ = child.kill();
    let _ = child.wait();
}

/// The live telemetry loop through nothing but the CLI: `serve` a
/// coordinator, `sim` a throttled two-job fleet at it over the wire, then
/// observe the pushed telemetry with `metrics` and `top --once`.
#[test]
fn serve_sim_metrics_top() {
    use std::io::BufRead;

    let mut child = Command::new(env!("CARGO_BIN_EXE_bcpctl"))
        .args(["serve", "127.0.0.1:0", "--for-seconds", "120"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let addr = {
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("banner line");
        line.trim().strip_prefix("listening on ").expect("banner format").to_string()
    };

    // Two simulated jobs, two committed steps each, contending on one
    // local 8 MiB/s envelope; telemetry frames travel the wire.
    let (ok, text) = bcpctl(&["sim", &addr, "--jobs", "2", "--steps", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("sim-0: 2 step(s)"), "{text}");
    assert!(text.contains("sim-1: 2 step(s)"), "{text}");

    // The scrape shows per-job labeled series built from the pushed frames.
    let (ok, text) = bcpctl(&["metrics", &addr]);
    assert!(ok, "{text}");
    for job in ["sim-0", "sim-1"] {
        assert!(text.contains(&format!("commit_total{{job=\"{job}\"}} 2")), "{job}: {text}");
        assert!(text.contains(&format!("governor_wait_seconds{{job=\"{job}\"}}")), "{job}: {text}");
        assert!(
            text.contains(&format!("telemetry_frames_total{{job=\"{job}\"}}")),
            "{job}: {text}"
        );
    }
    assert!(text.contains("hot_hit_rate"), "final reload feeds tier telemetry: {text}");
    assert!(text.contains("telemetry_dropped_total"), "{text}");

    // One top frame: both jobs with live commit percentiles.
    let (ok, text) = bcpctl(&["top", &addr, "--once"]);
    assert!(ok, "{text}");
    assert!(text.contains("bcp-coordinator top"), "{text}");
    assert!(text.contains("sim-0"), "{text}");
    assert!(text.contains("sim-1"), "{text}");
    assert!(text.contains("alerts:"), "{text}");

    // Unknown flags exit non-zero.
    let (ok, _) = bcpctl(&["top", &addr, "--frobnicate"]);
    assert!(!ok);

    let _ = child.kill();
    let _ = child.wait();
}
