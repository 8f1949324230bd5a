//! §4.3's two HDFS stream mechanisms, timed on a paced stack: the simulated
//! HDFS behind a `FaultLayer` whose `Fault::Delay` rules cap every call at
//! one client stream's rate, so only concurrent calls move bytes faster.
//!
//! * Split upload: a file above `SaveConfig::split_threshold` goes up as
//!   `SPLIT_PARTS` concurrent parts merged by a metadata `concat`.
//! * Ranged download: a run longer than `LoadConfig::chunk_bytes` is read in
//!   `chunk_bytes` pieces across the reader threads.
//!
//! Each is timed against its one-stream form on one 4 MiB tensor — the
//! engine's own upload and load durations, so capture and planning stay out
//! of the ratio — and must win by ≥ 2.5× (four streams give at most 4×),
//! restore bitwise and leave no part object behind.

mod common;

use bytecheckpoint::core::engine::load::LoadConfig;
use bytecheckpoint::core::engine::save::{SaveConfig, SPLIT_PARTS};
use bytecheckpoint::model::StateEntry;
use bytecheckpoint::monitor::sync::lock;
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{Fault, FaultRule, OpSet, StorageBackend};
use common::{assert_states_eq, run_ranks_with};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One client stream's rate, for reads and writes alike.
const STREAM_BPS: f64 = 16e6;
const MIB: u64 = 1 << 20;
/// Rows of the one tensor (× 1 024 f32 columns: 4 MiB, one shard file).
const ROWS: usize = 1024;
const LOCATION: &str = "hdfs://nn/job/step_1";

/// The timings of this file run one at a time, so one test's capture and
/// assembly do not take the cores the other's timed waits wake up on.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    lock(&TURN)
}

/// A registry whose `hdfs://` scheme is a simulated HDFS paced at
/// [`STREAM_BPS`] per call, and the cluster behind it.
fn paced_hdfs() -> (Arc<BackendRegistry>, Arc<HdfsBackend>) {
    let hdfs = Arc::new(HdfsBackend::new());
    let stream = |ops| {
        FaultRule::new(ops, Fault::Delay { bytes_per_sec: STREAM_BPS, latency: Duration::ZERO })
    };
    let paced = FaultLayer::new(hdfs.clone(), 0, vec![stream(OpSet::Writes), stream(OpSet::Reads)]);
    let mut registry = BackendRegistry::new();
    registry.register(Scheme::Hdfs, Arc::new(paced));
    (Arc::new(registry), hdfs)
}

/// A one-rank DDP state of one 4 MiB tensor: a pattern, or zeros for a
/// load target.
fn one_tensor(zeroed: bool) -> TrainState {
    let shape = vec![ROWS, 1024];
    let tensor = if zeroed {
        Tensor::zeros(DType::F32, shape.clone())
    } else {
        let bytes: Vec<u8> = (0..ROWS * 1024).flat_map(|i| (i as f32).to_le_bytes()).collect();
        Tensor::from_bytes(DType::F32, shape.clone(), bytes.into()).unwrap()
    };
    let mut state = TrainState::default();
    state.model.insert(StateEntry {
        fqn: "big.weight".into(),
        global_shape: shape,
        dtype: DType::F32,
        spec: ShardSpec::Replicated,
        tensor,
    });
    state
}

fn one_rank(
    registry: &Arc<BackendRegistry>,
    workflow: WorkflowOptions,
    f: impl Fn(Checkpointer) -> Duration + Send + Sync + 'static,
) -> Duration {
    let par = Parallelism::data_parallel(1).unwrap();
    run_ranks_with(par, Framework::Ddp, registry.clone(), workflow, move |_, ckpt| f(ckpt))[0]
}

/// Save the tensor under [`LOCATION`] with `split_threshold`; the engine's
/// upload time (its end-to-end time less the capture).
fn save(registry: &Arc<BackendRegistry>, split_threshold: u64) -> Duration {
    let save = SaveConfig { split_threshold, ..SaveConfig::default() };
    one_rank(registry, WorkflowOptions { save, ..WorkflowOptions::default() }, |ckpt| {
        let state = one_tensor(false);
        let stats = ckpt.save(&SaveRequest::new(LOCATION, &state, 1)).unwrap().wait().unwrap();
        stats.end_to_end - stats.blocking
    })
}

/// Load [`LOCATION`] with `chunk_bytes`, checking it bitwise; the engine's
/// load time.
fn load(registry: &Arc<BackendRegistry>, chunk_bytes: u64) -> Duration {
    let load = LoadConfig { chunk_bytes, ..LoadConfig::default() };
    one_rank(registry, WorkflowOptions { load, ..WorkflowOptions::default() }, |ckpt| {
        let mut state = one_tensor(true);
        let out = ckpt.load(&mut LoadRequest::new(LOCATION, &mut state)).unwrap();
        assert_states_eq(&state, &one_tensor(false), 0);
        out.report.stats.end_to_end
    })
}

fn assert_faster(what: &str, one_stream: Duration, streams: Duration) {
    let ratio = one_stream.as_secs_f64() / streams.as_secs_f64();
    assert!(
        ratio >= 2.5,
        "{what}: {one_stream:?} in one stream, {streams:?} in four ({ratio:.2}×)"
    );
}

#[test]
fn a_split_upload_beats_one_stream_and_leaves_no_part() {
    let _turn = one_at_a_time();
    let (registry, hdfs) = paced_hdfs();
    let whole = save(&registry, u64::MAX);
    assert_eq!(hdfs.namenode_stats().snapshot().1, 0, "an unsplit save concatenates nothing");
    let (registry, hdfs) = paced_hdfs();
    let split = save(&registry, MIB);
    assert_eq!(hdfs.namenode_stats().snapshot().1, 1, "the one shard file is merged once");
    assert_faster("upload", whole, split);
    let files = hdfs.list("job/step_1/").unwrap();
    assert!(files.iter().all(|f| !f.contains(".part")), "{SPLIT_PARTS} parts left: {files:?}");
    load(&registry, LoadConfig::default().chunk_bytes);
}

#[test]
fn a_ranged_download_beats_one_stream() {
    let _turn = one_at_a_time();
    let (registry, _) = paced_hdfs();
    save(&registry, u64::MAX);
    let whole = load(&registry, u64::MAX);
    let ranged = load(&registry, MIB);
    assert_faster("download", whole, ranged);
}
