//! The Execution Engine (§3.1, §4.2): executes save/load plans against a
//! storage backend with multi-threaded, pipelined I/O.
//!
//! * [`pool`] — the pinned host-memory pool with ping-pong reuse that makes
//!   D2H capture cheap and non-blocking ("a pinned CPU memory pool combined
//!   with a Ping-Pong buffering mechanism").
//! * [`iopool`] — the persistent per-`Checkpointer` I/O worker pool all
//!   upload and fetch leaf jobs run on.
//! * [`save`] — D2H capture and serialization in one pass → dump to
//!   staging → (split-file) upload, with the capture being the only
//!   training-blocking part in async mode; capture builds each shard file's
//!   image in one pooled buffer, sealing each payload as it copies it, and
//!   the image is uploaded as is, so each tensor byte is read once and
//!   copied exactly once.
//! * [`load`] — each rank's items coalesced into per-file byte runs →
//!   ranged multi-threaded reads → local assembly ("H2D") of each member's
//!   slice of its run → forwarding of the same slices for deduplicated
//!   reads, with reads, assembly and communication overlapped run-by-run.
//!
//! [`Assembler`] implements the byte geometry of a load: a piece that is
//! its whole tensor and one contiguous run of the stored shard is adopted
//! as the tensor; every other piece is copied once, from its slice of the
//! fetched run straight to its final place in `arena`, the one
//! huge-page-backed buffer per load that resharded tensors are assembled
//! into. Its mapping outlives the load: when the last tensor in it drops,
//! it goes on a process-wide free list (advised `MADV_FREE`) for the next
//! load's arena, so only a process's first reshard faults its arena in. A
//! recycled arena is not zeroed again; the plan covers every byte of every
//! region exactly once, so `apply` overwrites whatever it held.

mod arena;
pub mod iopool;
pub mod load;
pub mod pool;
pub mod save;

use crate::plan::{Category, ReadItem};
use crate::{BcpError, Result};
use arena::Arena;
use bcp_model::TrainState;
use bcp_tensor::layout::{contiguous_strides, ravel_index, Axes};
use bytes::Bytes;

/// Byte alignment of every tensor's region in the arena.
const REGION_ALIGN: usize = 64;

/// Assembles the fetched pieces of a load into the rank's local tensors.
///
/// Every piece arrives as its member's slice of a fetched run: the stored
/// shard's bytes from the intersection's first element to its last (its
/// [`ReadItem::fetch_range`]), whether this rank read it, read it for a
/// same-rank duplicate or received it from the peer that read it. A piece
/// that is its whole local tensor *and* one contiguous run of the stored
/// shard *is* the restored tensor: its `Bytes` (a view of the stored
/// object, of the fetched run buffer, or of a peer's forwarded slice)
/// become the tensor's storage without a copy. Every other tensor — one
/// some piece covers only in part, or one whose rows are strided in the
/// stored shard — gets a 64-byte-aligned region of one `Arena`, sized from
/// the plan before any byte is fetched, and each of its pieces is copied
/// once, from the run straight to its final place there. The finished
/// tensors are written back into the state dicts at the end (the real
/// system's H2D copies).
///
/// Tensors are addressed by position, never by name: the assembler is one
/// target per local tensor, model entries then optimizer entries in the
/// dicts' order, and a piece's [`ReadItem::slot`] is its target's index.
/// The planner resolved each name once; `new` checks, one string compare
/// per piece, that each slot still holds the tensor the piece names.
pub struct Assembler {
    targets: Vec<Target>,
    arena: Arena,
    assembled_bytes: u64,
}

/// One local tensor: its byte size and where its restored bytes go.
struct Target {
    nbytes: usize,
    slot: Slot,
}

enum Slot {
    /// Every piece is adoptable: the last one to arrive, not copied; `None`
    /// until one does (and for a tensor no piece restores, which is kept).
    Adopted(Option<Bytes>),
    /// Some piece is not: the offset of the tensor's arena region.
    Region(usize),
}

/// Whether `item` can be adopted as its `nbytes`-byte local tensor: the
/// destination piece starts the local storage, the intersection is the
/// whole piece, piece and tensor have the same byte length, and the
/// intersection is one contiguous run of the stored shard (its fetch range
/// holds exactly its bytes).
fn adoptable(item: &ReadItem, nbytes: usize) -> bool {
    item.dest_local_elem_start == 0
        && item.isect_offsets == item.dest_offsets
        && item.isect_lengths == item.dest_lengths
        && item.isect_bytes() == nbytes as u64
        && item.fetch_range().1 == item.isect_bytes()
}

/// Copy `item`'s intersection from `fetched`, its fetch range in the stored
/// shard's layout, to its place in `dst`, its local tensor's bytes: one
/// walk over the intersection box, each step one `memcpy` of a row made of
/// the innermost dim and every dim outside it whose inner dims are whole in
/// both the stored and the destination box.
fn copy_isect(item: &ReadItem, fetched: &[u8], dst: &mut [u8]) -> Result<()> {
    let es = item.dtype.size();
    let lengths = &item.isect_lengths;
    let whole =
        |d: usize| lengths[d] == item.stored_lengths[d] && lengths[d] == item.dest_lengths[d];
    let mut split = lengths.len().saturating_sub(1);
    while split > 0 && whole(split) {
        split -= 1;
    }
    let row = lengths[split..].iter().product::<usize>() * es;
    let stored_strides = contiguous_strides(&item.stored_lengths);
    let dest_strides = contiguous_strides(&item.dest_lengths);
    // The intersection's first element inside the destination piece.
    let rel: Axes = item.isect_offsets.iter().zip(&item.dest_offsets).map(|(i, d)| i - d).collect();
    let (mut src, mut at) =
        (0, (item.dest_local_elem_start + ravel_index(&rel, &item.dest_lengths)) * es);
    let (nbytes, mut coord) = (dst.len(), Axes::zeros(split));
    loop {
        let from = fetched.get(src..src + row).ok_or_else(|| {
            BcpError::Corrupt(format!(
                "{}: fetched range too short ({} < {})",
                item.fqn,
                fetched.len(),
                src + row
            ))
        })?;
        let to = dst.get_mut(at..at + row).ok_or_else(|| {
            BcpError::Corrupt(format!(
                "{}: assembly overrun ([{at}, {}) of a {nbytes}-byte tensor)",
                item.fqn,
                at + row
            ))
        })?;
        to.copy_from_slice(from);
        // Step the outer coordinates like an odometer.
        let mut d = split;
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            coord[d] += 1;
            src += stored_strides[d] * es;
            at += dest_strides[d] * es;
            if coord[d] < lengths[d] {
                break;
            }
            src -= lengths[d] * stored_strides[d] * es;
            at -= lengths[d] * dest_strides[d] * es;
            coord[d] = 0;
        }
    }
}

impl Assembler {
    /// An assembler for `pieces`, every item this rank will apply (its reads
    /// and its receives, same-rank duplicates included), into `state`, the
    /// state they were planned for: records each local tensor's byte size and
    /// gives each tensor some piece cannot be adopted its region of the
    /// arena. A piece whose slot is out of range, or holds a tensor of
    /// another name or dict, is refused (`Missing`) before the arena is made.
    pub fn new<'a>(
        state: &TrainState,
        pieces: impl IntoIterator<Item = &'a ReadItem>,
    ) -> Result<Assembler> {
        let model_len = state.model.len();
        let len = model_len + state.optimizer.len();
        let (mut names, mut targets) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for (fqn, entry) in [&state.model, &state.optimizer].into_iter().flat_map(|d| &d.entries) {
            names.push(fqn.as_str());
            targets.push(Target { nbytes: entry.tensor.nbytes(), slot: Slot::Adopted(None) });
        }
        let (mut arena_len, mut assembled_bytes) = (0usize, 0u64);
        for item in pieces {
            let at = item.slot as usize;
            let in_dict = match item.category {
                Category::Model => at < model_len,
                Category::Optimizer => at >= model_len,
            };
            if !in_dict || names.get(at) != Some(&&*item.fqn) {
                return Err(BcpError::Missing(format!("no local entry for {}", item.fqn)));
            }
            let target = &mut targets[at];
            if matches!(target.slot, Slot::Adopted(_)) && !adoptable(item, target.nbytes) {
                target.slot = Slot::Region(arena_len);
                arena_len += target.nbytes.next_multiple_of(REGION_ALIGN);
                assembled_bytes += target.nbytes as u64;
            }
        }
        Ok(Assembler { targets, arena: Arena::new(arena_len), assembled_bytes })
    }

    /// Bytes of the tensors this rank assembles in its arena: the restored
    /// bytes it copies rather than adopts.
    pub fn assembled_bytes(&self) -> u64 {
        self.assembled_bytes
    }

    /// The arena's length in bytes (the assembled bytes, each region rounded
    /// up to 64), and whether its memory was recycled from an earlier load
    /// rather than freshly mapped or allocated.
    pub fn arena(&self) -> (usize, bool) {
        (self.arena.len(), self.arena.recycled())
    }

    /// Apply one piece, `fetched` being its slice of a fetched run, to the
    /// local tensor at its slot: a piece of a tensor with an arena region is
    /// copied into that region; an adoptable piece of any other tensor is
    /// adopted. A slice of any other length than the item's fetch range (a
    /// short read clamped by the caller, a wrong forwarded payload) is
    /// refused before a byte is copied or adopted.
    pub fn apply(&mut self, item: &ReadItem, fetched: &Bytes) -> Result<()> {
        let target = self.targets.get_mut(item.slot as usize).ok_or_else(|| {
            BcpError::Plan(format!(
                "{}: a piece of slot {}, which the assembler has no tensor for",
                item.fqn, item.slot
            ))
        })?;
        let (_, span) = item.fetch_range();
        if fetched.len() as u64 != span {
            return Err(BcpError::Corrupt(format!(
                "{}: fetched range of {} bytes, not the {span} its {}-byte intersection spans",
                item.fqn,
                fetched.len(),
                item.isect_bytes()
            )));
        }
        let nbytes = target.nbytes;
        match &mut target.slot {
            Slot::Region(at) => copy_isect(item, fetched, &mut self.arena[*at..*at + nbytes]),
            Slot::Adopted(adopted) if adoptable(item, nbytes) => {
                *adopted = Some(fetched.clone());
                Ok(())
            }
            Slot::Adopted(_) => Err(BcpError::Plan(format!(
                "{}: a piece of a tensor the plan gave no arena region cannot be adopted",
                item.fqn
            ))),
        }
    }

    /// Write every restored tensor back into `state`, the state `new` was
    /// given, each target into the entry at its position: the arena is
    /// frozen once, each assembled tensor is a slice of it, and each tensor
    /// keeps its shape, so nothing is allocated per tensor. Consumes the
    /// assembler.
    pub fn finish(self, state: &mut TrainState) -> Result<()> {
        let len = state.model.len() + state.optimizer.len();
        if len != self.targets.len() {
            return Err(BcpError::Plan(format!(
                "{} restored tensors for a state of {len}",
                self.targets.len()
            )));
        }
        let arena = self.arena.freeze();
        let entries = state.model.entries.values_mut().chain(state.optimizer.entries.values_mut());
        for (target, entry) in self.targets.into_iter().zip(entries) {
            let bytes = match target.slot {
                Slot::Region(at) => arena.slice(at..at + target.nbytes),
                Slot::Adopted(Some(bytes)) => bytes,
                Slot::Adopted(None) => continue,
            };
            entry.tensor.replace_bytes(bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::{DType, Tensor};

    fn item_2d() -> ReadItem {
        // Stored box: rows 0..4 x cols 0..6 of a (8,6) tensor, payload at 0.
        // Intersection: rows 1..3, cols 2..5. Dest piece: rows 0..4, cols
        // 0..6 at local offset 0 (same as stored for simplicity).
        ReadItem {
            category: Category::Model,
            fqn: "t".into(),
            dtype: DType::F32,
            file: "f".into(),
            payload_offset: 0,
            stored_offsets: [0, 0].into(),
            stored_lengths: [4, 6].into(),
            isect_offsets: [1, 2].into(),
            isect_lengths: [2, 3].into(),
            dest_offsets: [0, 0].into(),
            dest_lengths: [4, 6].into(),
            dest_local_elem_start: 0,
            slot: 0,
        }
    }

    /// The stored (4,6) f32 shard: iota(24), little-endian.
    fn stored() -> Bytes {
        Bytes::from((0..24u32).flat_map(|i| (i as f32).to_le_bytes()).collect::<Vec<u8>>())
    }

    fn f32s(bytes: &[u8]) -> Vec<f32> {
        bytes.chunks(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
    }

    /// A state whose local tensors `fqns` are each a zero-filled `shape`.
    fn targets_shaped(fqns: &[&str], shape: &[usize]) -> TrainState {
        let mut state = TrainState::default();
        for fqn in fqns {
            state.model.insert(bcp_model::StateEntry {
                fqn: fqn.to_string(),
                global_shape: shape.to_vec(),
                dtype: DType::F32,
                spec: bcp_topology::ShardSpec::Replicated,
                tensor: Tensor::zeros(DType::F32, shape.to_vec()),
            });
        }
        state
    }

    /// A state whose local tensors `fqns` are each a whole (4,6) shard,
    /// zero-filled.
    fn targets(fqns: &[&str]) -> TrainState {
        targets_shaped(fqns, &[4, 6])
    }

    /// A piece of the stored shard landing in the whole local tensor.
    fn piece(isect_offsets: Vec<usize>, isect_lengths: Vec<usize>) -> ReadItem {
        ReadItem {
            isect_offsets: isect_offsets.into(),
            isect_lengths: isect_lengths.into(),
            ..item_2d()
        }
    }

    /// `item`'s fetch range of the stored shard: the member slice of a run
    /// the load path hands to the assembler.
    fn fetched(item: &ReadItem) -> Bytes {
        let (fo, fl) = item.fetch_range();
        stored().slice(fo as usize..(fo + fl) as usize)
    }

    /// Restore `pieces` into a zero-filled local tensor `t` of `shape`.
    fn restore_shaped(pieces: &[(&ReadItem, Bytes)], shape: &[usize]) -> Result<Bytes> {
        let mut state = targets_shaped(&["t"], shape);
        let mut asm = Assembler::new(&state, pieces.iter().map(|(item, _)| *item))?;
        for (item, payload) in pieces {
            asm.apply(item, payload)?;
        }
        asm.finish(&mut state)?;
        Ok(state.model.get("t").unwrap().tensor.bytes_cloned().unwrap())
    }

    fn restore(pieces: &[(&ReadItem, Bytes)]) -> Result<Bytes> {
        restore_shaped(pieces, &[4, 6])
    }

    #[test]
    fn a_strided_piece_is_copied_from_its_bounded_fetch() {
        let item = item_2d();
        // First elem (1,2) -> flat 8; last (2,4) -> flat 16; 9 elements.
        assert_eq!(item.fetch_range(), (8 * 4, 9 * 4));
        let got = f32s(&restore(&[(&item, fetched(&item))]).unwrap());
        // Rows 1..3, cols 2..5 of the (4,6) iota: 8,9,10 / 14,15,16.
        let mut want = vec![0.0f32; 24];
        for i in [8, 9, 10, 14, 15, 16] {
            want[i] = i as f32;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn a_short_or_clamped_fetch_is_corrupt_on_both_paths() {
        let strided = item_2d();
        let rows = piece(vec![1, 0], vec![2, 6]); // 12 contiguous elements
        for (item, span) in [(&strided, 36), (&rows, 48)] {
            // Short by one byte, clamped to nothing, and one byte too long.
            for len in [span - 1, 0, span + 1] {
                let err = restore(&[(item, Bytes::from(vec![0u8; len]))]).unwrap_err();
                let want = format!("fetched range of {len} bytes, not the {span}");
                assert!(matches!(&err, BcpError::Corrupt(m) if m.contains(&want)), "{err}");
            }
        }
    }

    #[test]
    fn a_contiguous_whole_piece_is_adopted_and_a_strided_one_copied_into_the_arena() {
        // Each piece is its whole local tensor: a piece of the stored shard
        // at the intersection's own offsets.
        let whole_of = |item: ReadItem| ReadItem {
            dest_offsets: item.isect_offsets.clone(),
            dest_lengths: item.isect_lengths.clone(),
            ..item
        };
        // Whole rows 1..3 of the (4,6) stored box, and part of one row: each
        // one run of the stored shard, so the fetched view is the tensor.
        for (item, shape, elems) in [
            (whole_of(piece(vec![1, 0], vec![2, 6])), [2, 6], 6..18),
            (whole_of(piece(vec![2, 1], vec![1, 4])), [1, 4], 13..17),
        ] {
            let view = fetched(&item);
            let got = restore_shaped(&[(&item, view.clone())], &shape).unwrap();
            assert_eq!(got.as_ptr(), view.as_ptr(), "{:?}: no copy", item.isect_lengths);
            assert_eq!(&got[..], &stored()[elems.start * 4..elems.end * 4]);
        }
        // Strided: rows 1..3 x cols 2..5 skips three elements between rows.
        // The tensor gets an arena region and its piece is copied there once.
        let strided = whole_of(item_2d());
        let state = targets_shaped(&["t"], &[2, 3]);
        let asm = Assembler::new(&state, [&strided]).unwrap();
        assert!(matches!(asm.targets[0].slot, Slot::Region(0)));
        assert_eq!((asm.assembled_bytes(), asm.arena.len()), (24, 64));
        let view = fetched(&strided);
        let got = restore_shaped(&[(&strided, view.clone())], &[2, 3]).unwrap();
        let inside = |p: *const u8| (view.as_ptr()..view.as_ptr().wrapping_add(36)).contains(&p);
        assert!(!inside(got.as_ptr()), "assembled in the arena, not adopted");
        assert_eq!(f32s(&got), vec![8.0, 9.0, 10.0, 14.0, 15.0, 16.0]);
    }

    #[test]
    fn a_scalar_is_a_view_of_its_element_or_a_short_fetch() {
        let scalar = ReadItem {
            stored_offsets: [].into(),
            stored_lengths: [].into(),
            isect_offsets: [].into(),
            isect_lengths: [].into(),
            dest_offsets: [].into(),
            dest_lengths: [].into(),
            ..item_2d()
        };
        let fetched = Bytes::from(vec![1u8, 2, 3, 4]);
        let got = restore_shaped(&[(&scalar, fetched.clone())], &[]).unwrap();
        assert_eq!((&got[..], got.as_ptr()), (&[1u8, 2, 3, 4][..], fetched.as_ptr()));
        let short = Bytes::from(vec![1u8, 2, 3]);
        let err = restore_shaped(&[(&scalar, short)], &[]).unwrap_err();
        assert!(matches!(err, BcpError::Corrupt(_)), "{err}");
    }

    #[test]
    fn the_copy_equals_an_elementwise_copy_for_every_box() {
        // A (3,4,5) tensor. Stored shard: [0..3, 1..4, 0..5]; destination
        // piece: [1..3, 0..4, 0..5], stored after 7 other elements of the
        // local tensor. Every intersection box inside both is copied, so
        // every mix of whole and cut dims, on either side, is walked.
        let (stored_off, stored_len) = ([0, 1, 0], [3, 3, 5]);
        let (dest_off, dest_len) = ([1, 0, 0], [2, 4, 5]);
        let global = bcp_tensor::layout::contiguous_strides(&[3, 4, 5]);
        let value = |c: &[usize]| (c.iter().zip(&global).map(|(a, b)| a * b).sum::<usize>()) as f32;
        let stored_bytes: Vec<u8> = (0..45)
            .flat_map(|flat| {
                let c = bcp_tensor::layout::unravel_index(flat, &stored_len);
                let g: Vec<usize> = c.iter().zip(&stored_off).map(|(a, o)| a + o).collect();
                value(&g).to_le_bytes()
            })
            .collect();
        let stored = Bytes::from(stored_bytes);
        let ranges =
            |lo: usize, hi: usize| (lo..hi).flat_map(move |o| (1..=hi - o).map(move |l| (o, l)));
        let mut boxes = 0;
        for (o0, l0) in ranges(1, 3) {
            for (o1, l1) in ranges(1, 4) {
                for (o2, l2) in ranges(0, 5) {
                    let item = ReadItem {
                        stored_offsets: stored_off.to_vec().into(),
                        stored_lengths: stored_len.to_vec().into(),
                        isect_offsets: [o0, o1, o2].into(),
                        isect_lengths: [l0, l1, l2].into(),
                        dest_offsets: dest_off.to_vec().into(),
                        dest_lengths: dest_len.to_vec().into(),
                        dest_local_elem_start: 7,
                        ..item_2d()
                    };
                    let (fo, fl) = item.fetch_range();
                    let mut dst = vec![0u8; (7 + 40) * 4];
                    copy_isect(&item, &stored[fo as usize..(fo + fl) as usize], &mut dst).unwrap();
                    let mut want = vec![0.0f32; 7 + 40];
                    for flat in 0..40 {
                        let c = bcp_tensor::layout::unravel_index(flat, &dest_len);
                        let g: Vec<usize> = c.iter().zip(&dest_off).map(|(a, o)| a + o).collect();
                        let inside = (0..3).all(|d| {
                            let (o, l) = ([o0, o1, o2][d], [l0, l1, l2][d]);
                            o <= g[d] && g[d] < o + l
                        });
                        if inside {
                            want[7 + flat] = value(&g);
                        }
                    }
                    assert_eq!(
                        f32s(&dst),
                        want,
                        "box {:?} + {:?}",
                        item.isect_offsets,
                        item.isect_lengths
                    );
                    boxes += 1;
                }
            }
        }
        assert_eq!(boxes, 3 * 6 * 15);
    }

    #[test]
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn a_recycled_arena_restores_bitwise_from_stale_contents() {
        // Exactly one huge page, the shortest mapped arena: every other one
        // this binary makes is more than twice as long, and a free mapping
        // is lent only to an arena between half its length and its length,
        // so no other test takes this mapping or lends its own here between
        // the steps below; and the list never unmaps its shortest mapping.
        const LEN: usize = 2 << 20;
        let mut first = Arena::new(LEN);
        assert!((first.as_ptr() as usize).is_multiple_of(LEN), "a mapped arena");
        first.fill(0xA5);
        let base = first.as_ptr();
        drop(first);
        let second = Arena::new(LEN);
        assert_eq!((second.as_ptr(), second.recycled()), (base, true), "the same mapping");
        drop(second);

        // A (512, 1024) f32 tensor from its two row halves, each its own
        // stored shard: no piece is the whole tensor, so the 2 MiB of it are
        // assembled into the stale mapping.
        let half = |h: usize| ReadItem {
            fqn: "w".into(),
            stored_offsets: [256 * h, 0].into(),
            stored_lengths: [256, 1024].into(),
            isect_offsets: [256 * h, 0].into(),
            isect_lengths: [256, 1024].into(),
            dest_offsets: [0, 0].into(),
            dest_lengths: [512, 1024].into(),
            ..item_2d()
        };
        let want: Vec<u8> = (0..512 * 1024u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let (top, bottom) = (half(0), half(1));
        let mut state = targets_shaped(&["w"], &[512, 1024]);
        let mut asm = Assembler::new(&state, [&top, &bottom]).unwrap();
        assert_eq!((asm.arena(), asm.arena.as_ptr()), ((LEN, true), base));
        asm.apply(&top, &Bytes::copy_from_slice(&want[..LEN / 2])).unwrap();
        asm.apply(&bottom, &Bytes::copy_from_slice(&want[LEN / 2..])).unwrap();
        asm.finish(&mut state).unwrap();
        let got = state.model.get("w").unwrap().tensor.bytes_cloned().unwrap();
        assert_eq!(got.as_ptr(), base, "restored in the recycled mapping");
        assert!(got[..] == want[..], "a byte of the stale contents survived");
    }

    #[test]
    fn a_whole_contiguous_piece_is_adopted() {
        let whole = piece(vec![0, 0], vec![4, 6]);
        let view = fetched(&whole);
        let got = restore(&[(&whole, view.clone())]).unwrap();
        assert_eq!(got.as_ptr(), view.as_ptr(), "the fetched view is the tensor");
        assert_eq!(got, stored());
    }

    #[test]
    fn a_tensor_covered_by_two_pieces_is_assembled_bitwise() {
        let (top, bottom) = (piece(vec![0, 0], vec![2, 6]), piece(vec![2, 0], vec![2, 6]));
        let pieces = [(&top, fetched(&top)), (&bottom, fetched(&bottom))];
        let got = restore(&pieces).unwrap();
        assert_eq!(got, stored());
        assert!(pieces.iter().all(|(_, p)| p.as_ptr() != got.as_ptr()), "a buffer of its own");
    }

    #[test]
    fn a_whole_piece_followed_by_a_duplicate_or_partial_piece_ends_bitwise_right() {
        let whole = piece(vec![0, 0], vec![4, 6]);
        let inner = item_2d(); // rows 1..3 x cols 2..5: strided
        let duplicate = restore(&[(&whole, fetched(&whole)), (&whole, fetched(&whole))]);
        assert_eq!(duplicate.unwrap(), stored());
        let view = fetched(&whole);
        // The plan holds a partial piece, so the tensor has an arena region
        // and the whole piece is copied into it, in either order.
        for pieces in [
            [(&whole, view.clone()), (&inner, fetched(&inner))],
            [(&inner, fetched(&inner)), (&whole, view.clone())],
        ] {
            let got = restore(&pieces).unwrap();
            assert_eq!(got, stored());
            assert_ne!(got.as_ptr(), view.as_ptr(), "assembled in the arena, not adopted");
        }
    }

    #[test]
    fn the_arena_holds_the_tensors_covered_in_part_and_no_adopted_one() {
        let of = |slot: u32, fqn: &str, item: ReadItem| ReadItem { fqn: fqn.into(), slot, ..item };
        let (whole, top) = (piece(vec![0, 0], vec![4, 6]), piece(vec![0, 0], vec![2, 6]));
        let pieces = [
            of(0, "a", whole.clone()),
            of(1, "b", top.clone()),
            of(2, "c", whole),
            of(2, "c", top),
        ];
        let state = targets(&["a", "b", "c"]);
        let asm = Assembler::new(&state, &pieces).unwrap();
        // "b" and "c" are covered in part: 96 bytes each, in 64-byte-aligned
        // regions; "a" is adopted.
        assert_eq!(asm.assembled_bytes(), 2 * 96);
        assert_eq!(asm.arena.len(), 2 * 128);
        let region = |slot: usize| match asm.targets[slot].slot {
            Slot::Region(at) => Some(at),
            Slot::Adopted(_) => None,
        };
        assert_eq!([region(0), region(1), region(2)], [None, Some(0), Some(128)]);
        // With every piece whole, the arena is empty.
        let asm = Assembler::new(&state, &pieces[..1]).unwrap();
        assert_eq!((asm.assembled_bytes(), asm.arena.len()), (0, 0));
    }

    #[test]
    fn a_partial_piece_of_a_tensor_without_a_region_is_a_plan_error() {
        let (whole, inner) = (piece(vec![0, 0], vec![4, 6]), item_2d());
        let state = targets(&["t"]);
        let mut asm = Assembler::new(&state, [&whole]).unwrap();
        let err = asm.apply(&inner, &fetched(&inner)).unwrap_err();
        assert!(matches!(&err, BcpError::Plan(m) if m.contains("no arena region")), "{err}");
        // A piece of a slot past the state's tensors is one too.
        let other = ReadItem { slot: 1, ..whole.clone() };
        let err = asm.apply(&other, &fetched(&whole)).unwrap_err();
        assert!(matches!(&err, BcpError::Plan(m) if m.contains("slot 1")), "{err}");
    }

    #[test]
    fn a_piece_whose_slot_is_out_of_range_or_holds_another_tensor_is_refused_up_front() {
        // Model "a" (slot 0) and "t" (slot 1), optimizer "t.m" (slot 2).
        let mut state = targets(&["a", "t"]);
        state.optimizer.insert(bcp_model::StateEntry {
            fqn: "t.m".into(),
            global_shape: vec![4, 6],
            dtype: DType::F32,
            spec: bcp_topology::ShardSpec::Replicated,
            tensor: Tensor::zeros(DType::F32, vec![4, 6]),
        });
        let good = ReadItem { slot: 1, ..piece(vec![0, 0], vec![4, 6]) };
        let optim =
            ReadItem { category: Category::Optimizer, fqn: "t.m".into(), slot: 2, ..good.clone() };
        assert!(Assembler::new(&state, [&good, &optim]).is_ok());
        let before = state.model.get("t").unwrap().tensor.bytes_cloned().unwrap();
        for (bad, why) in [
            (ReadItem { slot: 3, ..good.clone() }, "out of range"),
            (ReadItem { slot: 0, ..good.clone() }, "holds \"a\""),
            (ReadItem { slot: 2, ..good.clone() }, "an optimizer slot for a model piece"),
            (ReadItem { slot: 1, ..optim.clone() }, "a model slot for an optimizer piece"),
        ] {
            // The good piece comes first: a refusal in `new` leaves nothing
            // to apply, and the state as it was.
            let err =
                Assembler::new(&state, [&good, &bad]).err().unwrap_or_else(|| panic!("{why}"));
            assert!(matches!(&err, BcpError::Missing(m) if m.contains(&*bad.fqn)), "{why}: {err}");
            let after = state.model.get("t").unwrap().tensor.bytes_cloned().unwrap();
            assert_eq!(after.as_ptr(), before.as_ptr(), "{why}: nothing adopted");
            assert!(after.iter().all(|&b| b == 0), "{why}: nothing copied");
        }
    }

    #[test]
    fn a_whole_shaped_piece_of_the_wrong_length_takes_the_checked_path_and_errors() {
        let whole = piece(vec![0, 0], vec![4, 6]);
        for len in [95, 97] {
            let payload = Bytes::from(vec![0u8; len]);
            let err = restore(&[(&whole, payload)]).unwrap_err();
            assert!(matches!(&err, BcpError::Corrupt(m) if m.contains("96-byte intersection")));
        }
    }
}
