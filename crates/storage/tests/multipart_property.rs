//! Property tests for the simulated object store's multipart-upload
//! semantics: across random payload shapes, segment splits, and part-size
//! floors, (a) `write_segments` round-trips bitwise regardless of how the
//! payload maps onto parts, (b) an upload that dies mid-flight leaves no
//! partial object visible — only an orphaned upload that a retried write
//! supersedes and `abort_orphans` reclaims — so a scrub of the visible
//! namespace never sees torn multipart state.

use bcp_storage::{ObjectStoreBackend, ObjectStoreConfig, StorageBackend, TestClock};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

/// Split `data` at the given fractions into contiguous segments (the shape
/// the save pipeline hands to `write_segments`).
fn split_segments(data: &[u8], cuts: &[prop::sample::Index]) -> Vec<Bytes> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
    points.push(0);
    points.push(data.len());
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| Bytes::copy_from_slice(&data[w[0]..w[1]])).collect()
}

fn store(part_floor: u64) -> ObjectStoreBackend {
    ObjectStoreBackend::with_clock(
        ObjectStoreConfig { part_size_floor: part_floor, ..ObjectStoreConfig::default() },
        Arc::new(TestClock::new()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn multipart_round_trips_bitwise(
        data in prop::collection::vec(any::<u8>(), 1..4096),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        part_floor in 1u64..1024,
    ) {
        let b = store(part_floor);
        let segments = split_segments(&data, &cuts);
        b.write_segments("s/shard.bin", &segments).unwrap();
        prop_assert_eq!(&b.read("s/shard.bin").unwrap()[..], &data[..]);
        // Ranged reads agree with the whole object across part boundaries.
        let mid = data.len() / 2;
        prop_assert_eq!(
            &b.read_range("s/shard.bin", mid as u64, (data.len() - mid) as u64).unwrap()[..],
            &data[mid..]
        );
        let stats = b.stats();
        if data.len() as u64 > part_floor {
            prop_assert!(stats.multipart_inits == 1, "large payloads go multipart");
            prop_assert_eq!(stats.multipart_completes, 1);
            // Parts are cut at the floor whatever the segments: every part
            // but the last is exactly the floor.
            prop_assert_eq!(stats.parts_written, (data.len() as u64).div_ceil(part_floor));
        } else {
            prop_assert_eq!(stats.multipart_inits, 0, "small payloads use single PUT");
        }
        prop_assert!(b.orphaned_uploads().is_empty(), "completed upload leaves no orphans");
    }

    #[test]
    fn aborted_then_retried_uploads_leave_no_visible_orphans(
        data in prop::collection::vec(any::<u8>(), 64..2048),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        // Which admitted request to kill: 1 = first part (init is request
        // 0), up to a bound safely inside the upload.
        kill in 1u64..3,
    ) {
        let b = store(16);
        let segments = split_segments(&data, &cuts);
        b.fail_requests(kill, 1);
        let first = b.write_segments("s/shard.bin", &segments);
        // The kill ordinal may land on a part or the complete; either way
        // the write must fail and leave nothing visible.
        prop_assert!(first.is_err(), "forced 500 must surface");
        prop_assert!(!b.exists("s/shard.bin").unwrap(), "no torn object visible");
        prop_assert!(b.list("s/").unwrap().is_empty(), "orphan parts invisible to list");
        let orphans = b.orphaned_uploads();
        prop_assert_eq!(orphans.len(), 1, "the dead upload is listable for scrubbing");

        // The caller's retry succeeds and is bitwise-faithful.
        b.write_segments("s/shard.bin", &segments).unwrap();
        prop_assert_eq!(&b.read("s/shard.bin").unwrap()[..], &data[..]);

        // Scrub: aborting orphans reclaims exactly the dead upload and
        // never touches the committed object.
        prop_assert_eq!(b.abort_orphans(), 1);
        prop_assert!(b.orphaned_uploads().is_empty());
        prop_assert_eq!(&b.read("s/shard.bin").unwrap()[..], &data[..]);
    }
}
