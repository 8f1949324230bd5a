//! Criterion: the execution engine's byte paths — frame encode/decode,
//! checksumming, intersection extraction, and whole save/load pipelines
//! against the in-memory backend.

use bcp_core::chunks::chunk_hash;
use bcp_core::engine::iopool::IoPool;
use bcp_core::engine::pool::PinnedPool;
use bcp_core::engine::save::{execute_save, SaveConfig};
use bcp_core::format::{decode_frames, encode_frame};
use bcp_core::integrity::FailureLog;
use bcp_core::metadata::ShardMeta;
use bcp_core::plan::local_save_plan;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::zoo;
use bcp_monitor::MetricsSink;
use bcp_storage::{DynBackend, MemoryBackend};
use bcp_tensor::checksum::crc32;
use bcp_tensor::DType;
use bcp_topology::Parallelism;
use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn bench_crc32(c: &mut Criterion) {
    let data = vec![0xABu8; 1 << 20];
    let mut g = c.benchmark_group("crc32");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("1MiB", |b| b.iter(|| crc32(black_box(&data))));
    g.finish();
}

fn bench_chunk_hash(c: &mut Criterion) {
    let data = vec![0xABu8; 1 << 20];
    let mut g = c.benchmark_group("chunk_hash");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("1MiB", |b| b.iter(|| chunk_hash(black_box(&data))));
    g.finish();
}

fn bench_frames(c: &mut Criterion) {
    let shard = ShardMeta {
        fqn: "layers.17.mlp.up.weight".into(),
        offsets: vec![1024, 0],
        lengths: vec![512, 4096],
    };
    let payload = vec![7u8; 512 * 4096 * 2];
    let mut g = c.benchmark_group("frames");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| encode_frame(black_box(&shard), DType::BF16, black_box(&payload)))
    });
    let (encoded, _) = encode_frame(&shard, DType::BF16, &payload);
    let encoded = Bytes::from(encoded.to_vec());
    g.bench_function("decode_verify", |b| b.iter(|| decode_frames(black_box(&encoded)).unwrap()));
    g.finish();
}

fn bench_save_pipeline(c: &mut Criterion) {
    let par = Parallelism::data_parallel(1).unwrap();
    let state = build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, 0, true);
    let plan = local_save_plan(0, &state, "cpu");
    let bytes = plan.total_bytes();
    let pool = PinnedPool::new(2);
    let io = IoPool::new(4);
    let sink = MetricsSink::disabled();
    let mut g = c.benchmark_group("engine_save");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("sync_memory_backend", |b| {
        b.iter(|| {
            let backend: DynBackend = Arc::new(MemoryBackend::new());
            let log = Arc::new(FailureLog::new());
            execute_save(
                &plan,
                &state,
                backend,
                "bench",
                &pool,
                &io,
                &sink,
                log,
                &SaveConfig { async_upload: false, ..Default::default() },
                0,
                &bcp_core::fault::FaultHook::inert(0),
                bcp_monitor::SpanContext::none(),
            )
            .unwrap()
            .wait()
            .unwrap()
        })
    });
    g.finish();
}

fn bench_extract_isect(c: &mut Criterion) {
    use bcp_core::engine::extract_isect;
    use bcp_core::plan::{Category, ReadItem};
    let item = ReadItem {
        category: Category::Model,
        fqn: "w".into(),
        dtype: DType::F32,
        file: "f".into(),
        payload_offset: 0,
        stored_offsets: vec![0, 0],
        stored_lengths: vec![1024, 1024],
        isect_offsets: vec![128, 128],
        isect_lengths: vec![768, 768],
        dest_offsets: vec![0, 0],
        dest_lengths: vec![1024, 1024],
        dest_local_elem_start: 0,
    };
    let (fo, fl) = item.fetch_range();
    let _ = fo;
    let fetched = Bytes::from(vec![0u8; fl as usize]);
    let mut g = c.benchmark_group("extract_isect");
    g.throughput(Throughput::Bytes(item.isect_bytes()));
    g.bench_function("768x768_of_1024x1024_f32", |b| {
        b.iter(|| extract_isect(black_box(&item), black_box(&fetched)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crc32,
    bench_chunk_hash,
    bench_frames,
    bench_save_pipeline,
    bench_extract_isect
);
criterion_main!(benches);
