//! Property tests for the content-addressed chunk index: across random
//! file contents, segment splits, and chunk sizes, (a) the manifest
//! round-trips losslessly through its JSON wire form, (b) segment-streamed
//! derivation agrees with whole-buffer derivation (the zero-copy path is
//! not a different hash function), (c) reassembly from the unique-chunk
//! store is bitwise-identical to the original files, and (d) the streaming
//! hasher itself gives one id per byte string however `update` calls cut it
//! (the kernel carries a partial 16-byte block between calls).

use bcp_core::chunks::{chunk_hash, ChunkHasher, ChunkManifest, FileChunks};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;

/// Random files: 1..=4 of them, 1..=2048 bytes each, drawn from a small
/// alphabet so cross-file duplicate chunks actually occur and exercise
/// dedup.
fn files_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..4, 1..2048), 1..=4)
}

/// Split `data` at the given fractions into contiguous segments (the shape
/// the save pipeline hands to `from_segments`).
fn split_segments(data: &[u8], cuts: &[prop::sample::Index]) -> Vec<Bytes> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
    points.push(0);
    points.push(data.len());
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| Bytes::copy_from_slice(&data[w[0]..w[1]])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_hash_is_independent_of_update_splits(
        data in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut h = ChunkHasher::new();
        for piece in split_segments(&data, &cuts) {
            h.update(&piece);
        }
        prop_assert_eq!(h.finish(), chunk_hash(&data));
    }

    #[test]
    fn manifest_round_trips_and_reassembles_bitwise(
        files in files_strategy(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        chunk_bytes in 1u64..512,
        step in 0u64..1_000_000,
    ) {
        // Derive per-file indexes via the segment-streaming path.
        let contrib: Vec<FileChunks> = files
            .iter()
            .enumerate()
            .map(|(i, data)| {
                FileChunks::from_segments(
                    format!("model_{i}.bin"),
                    &split_segments(data, &cuts),
                    chunk_bytes,
                )
            })
            .collect();

        // (b) Segment boundaries are invisible to the index.
        for (i, data) in files.iter().enumerate() {
            let whole = FileChunks::from_bytes(format!("model_{i}.bin"), data, chunk_bytes);
            prop_assert_eq!(&contrib[i], &whole, "segmented != whole-buffer derivation");
        }

        let manifest = ChunkManifest::assemble(step, chunk_bytes, vec![contrib]);
        manifest.validate().expect("derived manifest validates");

        // (a) Lossless JSON round trip.
        let back = ChunkManifest::from_bytes(&manifest.to_bytes()).expect("wire form parses");
        prop_assert_eq!(&back, &manifest);

        // (c) Reassembly from the unique-chunk store is bitwise-identical.
        let mut store: HashMap<String, Bytes> = HashMap::new();
        for site in manifest.unique_chunks() {
            let idx: usize = site
                .file
                .trim_start_matches("model_")
                .trim_end_matches(".bin")
                .parse()
                .unwrap();
            let data = &files[idx][site.offset as usize..(site.offset + site.len) as usize];
            store.insert(site.hash.clone(), Bytes::copy_from_slice(data));
        }
        let rebuilt = manifest.reassemble(&store).expect("reassembly succeeds");
        prop_assert_eq!(rebuilt.len(), files.len());
        for (i, data) in files.iter().enumerate() {
            prop_assert_eq!(
                &rebuilt[&format!("model_{i}.bin")][..],
                &data[..],
                "file {} not bitwise-identical",
                i
            );
        }

        // Dedup accounting holds: unique bytes never exceed total bytes,
        // and equal only when no chunk repeats.
        prop_assert!(manifest.unique_bytes() <= manifest.total_bytes());
        prop_assert_eq!(
            manifest.total_bytes(),
            files.iter().map(|f| f.len() as u64).sum::<u64>()
        );
    }
}
