//! Property tests for run construction (`engine::load::build_runs`): over
//! random multi-file item sets — unsorted, overlapping, nested, duplicated
//! ranges, gaps on both sides of `RUN_GAP_BYTES`, items above `chunk_bytes`
//! — the runs are a sorted, disjoint cover of the items that reads no more
//! than the rule allows, and slicing a member out of its run's bytes gives
//! exactly the bytes a read of the item alone would have.

use bcp_core::engine::load::{build_runs, ReadRun, RUN_GAP_BYTES};
use bcp_core::plan::{Category, ReadItem};
use bcp_storage::{DynBackend, MemoryBackend};
use bcp_tensor::DType;
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Large enough that gaps fall on both sides of the 32 KiB constant.
const FILE_BYTES: u64 = 384 * 1024;

/// A 1-D byte item covering `[offset, offset + len)` of file `file`.
fn item(idx: usize, file: usize, offset: u64, len: u64) -> ReadItem {
    ReadItem {
        category: Category::Model,
        fqn: format!("t{idx}").into(),
        dtype: DType::U8,
        file: format!("f{file}.bin").into(),
        payload_offset: offset,
        stored_offsets: vec![0].into(),
        stored_lengths: vec![len as usize].into(),
        isect_offsets: vec![0].into(),
        isect_lengths: vec![len as usize].into(),
        dest_offsets: vec![0].into(),
        dest_lengths: vec![len as usize].into(),
        dest_local_elem_start: 0,
    }
}

/// `(file, offset, len)` triples; a third of the lengths are tiny (tensors
/// of a many-tensor model), a third medium, a third up to 96 KiB (above the
/// smaller `chunk_bytes` values drawn below).
fn ranges_strategy() -> impl Strategy<Value = Vec<(usize, u64, u64)>> {
    let len = prop_oneof![1u64..512, 512u64..8 * 1024, 8 * 1024u64..96 * 1024];
    prop::collection::vec((0usize..3, 0u64..FILE_BYTES, len), 1..48).prop_map(|mut v| {
        for r in v.iter_mut() {
            r.2 = r.2.min(FILE_BYTES - r.1);
        }
        // Exact duplicates and nested ranges, which real plans produce when
        // several destinations want the same source bytes.
        let (f, o, l) = v[0];
        v.push((f, o, l));
        v.push((f, o + l / 4, (l / 2).max(1)));
        v
    })
}

fn file_bytes(file: usize, seed: u64) -> Bytes {
    let mut x = seed ^ (file as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(FILE_BYTES as usize);
    while out.len() < FILE_BYTES as usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(out)
}

/// Members of `run` in file order: `(offset in run, len)`.
fn members_in_order(run: &ReadRun) -> Vec<(u64, u64)> {
    let mut m: Vec<(u64, u64)> = run.members.iter().map(|&(_, o, l)| (o, l)).collect();
    m.sort_unstable();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn runs_are_a_sorted_disjoint_tight_cover(
        ranges in ranges_strategy(),
        chunk_bytes in prop_oneof![4 * 1024u64..64 * 1024, 64 * 1024u64..512 * 1024, Just(u64::MAX)],
        seed in any::<u64>(),
    ) {
        let reads: Vec<ReadItem> =
            ranges.iter().enumerate().map(|(i, &(f, o, l))| item(i, f, o, l)).collect();
        let runs = build_runs(&reads, chunk_bytes);

        // Sorted by (file, offset); disjoint within a file.
        for w in runs.windows(2) {
            prop_assert!((&w[0].file, w[0].offset) < (&w[1].file, w[1].offset));
            if w[0].file == w[1].file {
                prop_assert!(w[0].offset + w[0].len <= w[1].offset, "runs overlap");
            }
        }

        // Every item is a member of exactly one run, at its own range.
        let mut seen = vec![0usize; reads.len()];
        for run in &runs {
            for &(idx, off, len) in &run.members {
                seen[idx] += 1;
                prop_assert_eq!(&reads[idx].file, &run.file);
                prop_assert_eq!(reads[idx].fetch_range(), (run.offset + off, len));
                prop_assert!(off + len <= run.len, "member sticks out of its run");
            }
            // Tight: starts at its first member, ends at its last byte.
            let m = members_in_order(run);
            prop_assert_eq!(m[0].0, 0);
            prop_assert_eq!(m.iter().map(|&(o, l)| o + l).max(), Some(run.len));
        }
        prop_assert!(seen.iter().all(|&n| n == 1));

        // A run grows past chunk_bytes only by an item that overlaps it (a
        // lone oversized item included; such bytes could not be split
        // without reading them twice): never by bridging a gap.
        for run in &runs {
            let mut end = 0u64;
            for (i, (off, len)) in members_in_order(run).into_iter().enumerate() {
                let bridged = i > 0 && off >= end;
                end = end.max(off + len);
                prop_assert!(!bridged || end <= chunk_bytes, "a gap was bridged past chunk_bytes");
            }
        }

        // Neighbouring runs of one file stayed apart for a reason: the gap
        // is wider than the constant, or the merge would pass chunk_bytes.
        for w in runs.windows(2).filter(|w| w[0].file == w[1].file) {
            let gap = w[1].offset - (w[0].offset + w[0].len);
            let first_len = members_in_order(&w[1])[0].1;
            let merged = w[1].offset + first_len - w[0].offset;
            prop_assert!(gap > RUN_GAP_BYTES || merged > chunk_bytes);
        }

        // Read amplification is bounded by the gaps bridged.
        let item_bytes: u64 = reads.iter().map(|r| r.fetch_range().1).sum();
        let run_bytes: u64 = runs.iter().map(|r| r.len).sum();
        let merges: u64 = runs.iter().map(|r| r.members.len() as u64 - 1).sum();
        prop_assert!(run_bytes <= item_bytes + RUN_GAP_BYTES * merges);

        // Slicing a member out of its run's bytes == reading the item alone.
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let files: BTreeMap<String, Bytes> =
            (0..3).map(|f| (format!("f{f}.bin"), file_bytes(f, seed))).collect();
        for (name, data) in &files {
            backend.write(name, data.clone()).unwrap();
        }
        for run in &runs {
            let raw = backend.read_range(&run.file, run.offset, run.len).unwrap();
            for &(idx, off, len) in &run.members {
                let (io, il) = reads[idx].fetch_range();
                let alone = backend.read_range(&run.file, io, il).unwrap();
                prop_assert_eq!(&raw.slice(off as usize..(off + len) as usize)[..], &alone[..]);
            }
        }
    }
}
