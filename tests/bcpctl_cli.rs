//! End-to-end tests of the `bcpctl` CLI against real on-disk checkpoints.

mod common;

use bytecheckpoint::prelude::*;
use common::{reference_state, run_ranks};
use std::collections::BTreeMap;
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

/// Swap two ranks' shard files of a committed step. Every frame still
/// passes its CRC and the file and frame counts still match, but no tensor's
/// `ByteMeta` lands on its payload: the step cannot be restored, so `verify`
/// must refuse it.
#[test]
fn verify_refuses_a_step_whose_shard_files_are_swapped() {
    let dir = make_job_dir("swap");
    let step20 = dir.join("job/step_20");
    let (a, b) = (step20.join("model_0.bin"), step20.join("model_1.bin"));
    let tmp = step20.join("swap.tmp");
    std::fs::rename(&a, &tmp).unwrap();
    std::fs::rename(&b, &a).unwrap();
    std::fs::rename(&tmp, &b).unwrap();

    let (ok, text) = bcpctl(&["verify", &step20.to_string_lossy()]);
    assert!(!ok, "swapped shard files must fail verify: {text}");
    assert!(text.contains("[range-mismatch]"), "{text}");
    assert!(!text.contains("all CRCs verified"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Copy every file of step 10 over step 20: a self-consistent checkpoint,
/// but of another step. `verify` takes the step from the directory name and
/// must refuse it.
#[test]
fn verify_refuses_another_steps_files_under_a_step_directory() {
    let dir = make_job_dir("copy");
    let job = dir.join("job");
    for entry in std::fs::read_dir(job.join("step_10")).unwrap() {
        let src = entry.unwrap().path();
        std::fs::copy(&src, job.join("step_20").join(src.file_name().unwrap())).unwrap();
    }

    let (ok, text) = bcpctl(&["verify", &job.join("step_20").to_string_lossy()]);
    assert!(!ok, "step 10's files under step_20 must fail verify: {text}");
    assert!(text.contains("metadata step 10 does not match prefix step 20"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `report --json` totals per phase, summed over the artifacts `flags` pick.
fn report_totals(job: &str, flags: &[&str], into: &mut BTreeMap<String, f64>) {
    let (ok, text) = bcpctl(&[&["report", job, "--json"], flags].concat());
    assert!(ok, "{text}");
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let phases = doc["phases"].as_array().unwrap();
    assert!(!phases.is_empty(), "{flags:?}: {text}");
    for p in phases {
        *into.entry(p["name"].as_str().unwrap().to_string()).or_default() +=
            p["total_ms"].as_f64().unwrap() / 1e3;
    }
}

/// The three views of one step are one fold of its artifacts: for every
/// phase `report` lists (save and load), the `phase_seconds_total` series of
/// `metrics` summed over ranks and the total of `top --once` equal the
/// report's total.
#[test]
fn metrics_top_and_report_agree_on_one_step() {
    let dir = std::env::temp_dir().join(format!("bcpctl-it-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let mut registry = BackendRegistry::new();
    registry.register(Scheme::File, disk);
    let (fw, par) = (Framework::Ddp, Parallelism::data_parallel(2).unwrap());
    run_ranks(par, fw, Arc::new(registry), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 5);
        ckpt.save(&SaveRequest::new("file:///job/step_5", &state, 5)).unwrap().wait().unwrap();
        let mut target = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("file:///job/step_5", &mut target)).unwrap();
    });
    let job = dir.join("job").to_string_lossy().to_string();

    let mut want = BTreeMap::new();
    report_totals(&job, &[], &mut want);
    report_totals(&job, &["--load"], &mut want);
    assert!(want.keys().any(|p| p.starts_with("save/")), "{want:?}");
    assert!(want.keys().any(|p| p.starts_with("load/")), "{want:?}");

    // phase_seconds_total{job="job",op="save",phase="save/plan",rank="0"} 0.000123
    let (ok, text) = bcpctl(&["metrics", &job]);
    assert!(ok, "{text}");
    let mut scraped: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("phase_seconds_total{")) {
        assert!(line.contains("job=\"job\""), "{line}");
        let phase = line.split("phase=\"").nth(1).and_then(|r| r.split('"').next()).unwrap();
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        *scraped.entry(phase.to_string()).or_default() += value;
    }
    let (ok, step5) = bcpctl(&["metrics", &job, "--step", "5"]);
    assert!(ok && step5 == text, "--step of the latest step is the default: {step5}");

    // "save/plan                    2       0.000123      0.052      0.061"
    let (ok, top) = bcpctl(&["top", &job, "--once"]);
    assert!(ok, "{top}");
    assert!(top.contains("job step 5"), "{top}");
    let shown: BTreeMap<&str, f64> = top
        .lines()
        .filter_map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            Some((*cols.first()?, cols.get(2)?.parse().ok()?))
        })
        .collect();

    for (phase, total) in &want {
        let got = scraped.get(phase).unwrap_or_else(|| panic!("metrics lacks {phase}: {text}"));
        assert!((got - total).abs() <= 1e-9 * total.abs(), "{phase}: metrics {got} vs {total}");
        let got = shown.get(phase.as_str()).unwrap_or_else(|| panic!("top lacks {phase}: {top}"));
        assert!((got - total).abs() <= 5e-7 + 1e-12, "{phase}: top {got} vs {total}");
    }

    // Errors: no committed step, an uncommitted step, an unknown flag.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (ok, text) = bcpctl(&["metrics", &empty.to_string_lossy()]);
    assert!(!ok && text.contains("no committed step_<N> checkpoints"), "{text}");
    let (ok, text) = bcpctl(&["metrics", &job, "--step", "6"]);
    assert!(!ok && text.contains("step 6 is not a committed checkpoint"), "{text}");
    let (ok, text) = bcpctl(&["top", &job, "--frobnicate"]);
    assert!(!ok && text.contains("unknown top flag"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}
