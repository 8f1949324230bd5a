//! The Execution Engine (§3.1, §4.2): executes save/load plans against a
//! storage backend with multi-threaded, pipelined I/O.
//!
//! * [`pool`] — the pinned host-memory pool with ping-pong reuse that makes
//!   D2H capture cheap and non-blocking ("a pinned CPU memory pool combined
//!   with a Ping-Pong buffering mechanism").
//! * [`iopool`] — the persistent per-`Checkpointer` I/O worker pool all
//!   upload and fetch leaf jobs run on.
//! * [`save`] — D2H capture → serialize → dump to staging → (split-file)
//!   upload, with the capture being the only training-blocking part in
//!   async mode; capture builds each shard file's image in one pooled
//!   buffer, sealed in place and uploaded as is, so each tensor byte is
//!   copied exactly once.
//! * [`load`] — each rank's items coalesced into per-file byte runs →
//!   ranged multi-threaded reads → intersection extraction → local assembly
//!   ("H2D") → forwarding of deduplicated reads, with reads, extraction and
//!   communication overlapped run-by-run.
//!
//! The helpers here ([`extract_isect`], [`Assembler`]) implement the byte
//! geometry shared by both pipelines.

pub mod iopool;
pub mod load;
pub mod pool;
pub mod save;

use crate::plan::{Category, ReadItem};
use crate::{BcpError, Result};
use bcp_model::TrainState;
use bcp_tensor::Tensor;
use bytes::{Bytes, BytesMut};
use std::collections::HashMap;

/// Carve the intersection box out of a fetched byte range.
///
/// `fetched` covers the stored shard's flat element range starting at the
/// intersection's first element (as computed by [`ReadItem::fetch_range`]).
/// The result is the intersection's elements, contiguous row-major: a view
/// of `fetched` when they already are one run there, a gathered copy when
/// the rows are strided.
pub fn extract_isect(item: &ReadItem, fetched: &Bytes) -> Result<Bytes> {
    let es = item.dtype.size();
    let n = item.isect_bytes() as usize;
    let too_short = |end: usize| {
        BcpError::Corrupt(format!(
            "{}: fetched range too short ({} < {end})",
            item.fqn,
            fetched.len()
        ))
    };
    // The fetch range spans exactly the intersection's bytes: one contiguous
    // run (every scalar, every unresharded read, every reshard whose cut
    // leaves the trailing dims whole). `Assembler::apply` adopts it as the
    // tensor when it is the whole tensor and copies it into place otherwise;
    // copying it here first would be a pass the adoption saves.
    if item.fetch_range().1 == n as u64 {
        if fetched.len() < n {
            return Err(too_short(n));
        }
        return Ok(fetched.slice(..n));
    }
    // Strided rows (rank ≥ 2 from here on): gather them.
    let stored_strides = bcp_tensor::layout::contiguous_strides(&item.stored_lengths);
    // Intersection coordinates relative to the stored box.
    let rel_off: Vec<usize> =
        item.isect_offsets.iter().zip(&item.stored_offsets).map(|(i, s)| i - s).collect();
    let first_elem = bcp_tensor::layout::ravel_index(&rel_off, &item.stored_lengths);
    let rank = item.isect_lengths.len();
    let mut out = BytesMut::with_capacity(n);
    let run = item.isect_lengths[rank - 1];
    let outer: usize = item.isect_lengths[..rank - 1].iter().product();
    let mut coord = vec![0usize; rank - 1];
    for _ in 0..outer {
        // Flat position of this row's first element within the stored box.
        let mut flat = rel_off[rank - 1] * stored_strides[rank - 1];
        for (d, &c) in coord.iter().enumerate() {
            flat += (rel_off[d] + c) * stored_strides[d];
        }
        let start = (flat - first_elem) * es;
        let end = start + run * es;
        out.extend_from_slice(fetched.get(start..end).ok_or_else(|| too_short(end))?);
        for d in (0..rank - 1).rev() {
            coord[d] += 1;
            if coord[d] < item.isect_lengths[d] {
                break;
            }
            coord[d] = 0;
        }
    }
    Ok(out.freeze())
}

/// Assembles loaded intersection payloads into the rank's local tensors.
///
/// A piece that covers its whole local tensor *is* the restored tensor: its
/// `Bytes` (a view of the stored object, of the fetched run buffer, or of a
/// peer's forwarded payload) become the tensor's storage without a copy.
/// Only a tensor built from several pieces gets a buffer of its own, which
/// the pieces are copied into. The finished tensors are written back into
/// the state dicts at the end (the real system's H2D copies).
pub struct Assembler {
    buffers: HashMap<(Category, String), Slot>,
}

/// One restored tensor's storage while its pieces arrive.
enum Slot {
    /// A single piece covered the whole tensor: its bytes, not copied.
    Adopted(Bytes),
    /// Pieces copied into place.
    Assembled(BytesMut),
}

impl Slot {
    /// The writable buffer, copying an adopted tensor's bytes into one first.
    fn make_mut(&mut self) -> &mut BytesMut {
        if let Slot::Adopted(bytes) = self {
            *self = Slot::Assembled(BytesMut::from(&bytes[..]));
        }
        match self {
            Slot::Assembled(buf) => buf,
            Slot::Adopted(_) => unreachable!("an adopted slot was copied just above"),
        }
    }
}

impl Default for Assembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Assembler {
    /// Empty assembler.
    pub fn new() -> Assembler {
        Assembler { buffers: HashMap::new() }
    }

    /// Apply one intersection payload to the local tensor it belongs to.
    ///
    /// The payload is adopted as the tensor's storage when it is the whole
    /// tensor: the destination piece starts the local storage, the
    /// intersection is the whole piece, and piece, tensor and payload have
    /// the same byte length. A later partial piece of an adopted tensor
    /// turns it back into a copied buffer; a later whole piece replaces it
    /// (it covers every byte either way).
    pub fn apply(&mut self, state: &TrainState, item: &ReadItem, payload: &Bytes) -> Result<()> {
        let dict = match item.category {
            Category::Model => &state.model,
            Category::Optimizer => &state.optimizer,
        };
        let entry = dict
            .get(&item.fqn)
            .ok_or_else(|| BcpError::Missing(format!("no local entry for {}", item.fqn)))?;
        let nbytes = entry.tensor.nbytes();
        let key = (item.category, item.fqn.clone());
        let whole = item.dest_local_elem_start == 0
            && item.isect_offsets == item.dest_offsets
            && item.isect_lengths == item.dest_lengths
            && item.isect_bytes() == nbytes as u64
            && payload.len() == nbytes;
        if whole {
            self.buffers.insert(key, Slot::Adopted(payload.clone()));
            return Ok(());
        }
        if payload.len() as u64 != item.isect_bytes() {
            return Err(BcpError::Corrupt(format!(
                "{}: piece of {} bytes for a {}-byte intersection",
                item.fqn,
                payload.len(),
                item.isect_bytes()
            )));
        }
        let buf = self
            .buffers
            .entry(key)
            .or_insert_with(|| Slot::Assembled(BytesMut::zeroed(nbytes)))
            .make_mut();
        let es = item.dtype.size();
        let overrun = |at: usize, len: usize| {
            BcpError::Corrupt(format!(
                "{}: assembly overrun ([{at}, {}) of a {nbytes}-byte tensor)",
                item.fqn,
                at + len
            ))
        };
        // Geometry: the dest piece (shape dest_lengths) lives at local
        // element offset dest_local_elem_start; the intersection sits at
        // rel = isect_offsets - dest_offsets inside it.
        let rel: Vec<usize> =
            item.isect_offsets.iter().zip(&item.dest_offsets).map(|(i, d)| i - d).collect();
        let piece_strides = bcp_tensor::layout::contiguous_strides(&item.dest_lengths);
        let rank = item.isect_lengths.len();
        if rank == 0 {
            let at = item.dest_local_elem_start * es;
            buf.get_mut(at..at + es).ok_or_else(|| overrun(at, es))?.copy_from_slice(payload);
            return Ok(());
        }
        let run = item.isect_lengths[rank - 1] * es;
        let outer: usize = item.isect_lengths[..rank - 1].iter().product();
        let mut coord = vec![0usize; rank - 1];
        let mut src = 0usize;
        for _ in 0..outer {
            let mut flat = rel[rank - 1] * piece_strides[rank - 1];
            for (d, &c) in coord.iter().enumerate() {
                flat += (rel[d] + c) * piece_strides[d];
            }
            let at = (item.dest_local_elem_start + flat) * es;
            buf.get_mut(at..at + run)
                .ok_or_else(|| overrun(at, run))?
                .copy_from_slice(&payload[src..src + run]);
            src += run;
            for d in (0..rank - 1).rev() {
                coord[d] += 1;
                if coord[d] < item.isect_lengths[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
        Ok(())
    }

    /// Write all assembled buffers back into the state dicts, replacing the
    /// local tensors. Consumes the assembler.
    pub fn finish(self, state: &mut TrainState) -> Result<()> {
        for ((category, fqn), slot) in self.buffers {
            let dict = match category {
                Category::Model => &mut state.model,
                Category::Optimizer => &mut state.optimizer,
            };
            let entry = dict
                .entries
                .get_mut(&fqn)
                .ok_or_else(|| BcpError::Missing(format!("no local entry for {fqn}")))?;
            let bytes = match slot {
                Slot::Adopted(bytes) => bytes,
                Slot::Assembled(buf) => buf.freeze(),
            };
            entry.tensor = Tensor::from_bytes(entry.dtype, entry.tensor.shape().to_vec(), bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::DType;

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
            stored_offsets: vec![0, 0],
            stored_lengths: vec![4, 6],
            isect_offsets: vec![1, 2],
            isect_lengths: vec![2, 3],
            dest_offsets: vec![0, 0],
            dest_lengths: vec![4, 6],
            dest_local_elem_start: 0,
        }
    }

    #[test]
    fn extract_isect_from_bounded_fetch() {
        let item = item_2d();
        // Stored tensor = iota(24). Fetch range: first elem (1,2) -> flat 8;
        // last (2,4) -> flat 16; 9 elements.
        let stored: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let (fo, fl) = item.fetch_range();
        assert_eq!((fo, fl), (8 * 4, 9 * 4));
        let fetched = Bytes::copy_from_slice(
            &stored.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>()
                [fo as usize..(fo + fl) as usize],
        );
        let isect = extract_isect(&item, &fetched).unwrap();
        let vals: Vec<f32> =
            isect.chunks(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        // Rows 1..3, cols 2..5 of the (4,6) iota: 8,9,10 / 14,15,16.
        assert_eq!(vals, vec![8.0, 9.0, 10.0, 14.0, 15.0, 16.0]);
    }

    #[test]
    fn extract_detects_short_fetch() {
        let item = item_2d();
        let short = Bytes::from(vec![0u8; 8]);
        assert!(matches!(extract_isect(&item, &short), Err(BcpError::Corrupt(_))));
        // The view path checks the same thing: whole rows need 12 * 4 bytes.
        let rows = ReadItem { isect_offsets: vec![1, 0], isect_lengths: vec![2, 6], ..item };
        let err = extract_isect(&rows, &Bytes::from(vec![0u8; 47])).unwrap_err();
        assert!(matches!(err, BcpError::Corrupt(m) if m.contains("too short (47 < 48)")));
    }

    #[test]
    fn a_contiguous_intersection_is_a_view_and_a_strided_one_a_copy() {
        let stored =
            Bytes::from((0..24u32).flat_map(|i| (i as f32).to_le_bytes()).collect::<Vec<u8>>());
        let slice_of = |item: &ReadItem| {
            let (fo, fl) = item.fetch_range();
            stored.slice(fo as usize..(fo + fl) as usize)
        };
        // Whole rows 1..3 of the (4,6) stored box: one run of 12 elements.
        let rows = ReadItem { isect_offsets: vec![1, 0], isect_lengths: vec![2, 6], ..item_2d() };
        let fetched = slice_of(&rows);
        let view = extract_isect(&rows, &fetched).unwrap();
        assert_eq!(view.as_ptr(), fetched.as_ptr(), "no copy");
        assert_eq!(&view[..], &stored[6 * 4..18 * 4]);
        // A fetch longer than the run (a clamped member of a wider read run)
        // still yields exactly the intersection.
        let wider = stored.slice(6 * 4..);
        let view = extract_isect(&rows, &wider).unwrap();
        assert_eq!((view.as_ptr(), view.len()), (wider.as_ptr(), 12 * 4));
        // Part of one row is a run too.
        let cols = ReadItem { isect_offsets: vec![2, 1], isect_lengths: vec![1, 4], ..item_2d() };
        let fetched = slice_of(&cols);
        let view = extract_isect(&cols, &fetched).unwrap();
        assert_eq!(view.as_ptr(), fetched.as_ptr());
        assert_eq!(&view[..], &stored[13 * 4..17 * 4]);
        // Strided: rows 1..3 x cols 2..5 skips three elements between rows.
        let strided = item_2d();
        let fetched = slice_of(&strided);
        let gathered = extract_isect(&strided, &fetched).unwrap();
        assert_ne!(gathered.as_ptr(), fetched.as_ptr());
        assert_eq!(gathered.len(), 6 * 4);
        assert_eq!(&gathered[..12], &fetched[..12]);
        assert_eq!(&gathered[12..], &fetched[6 * 4..9 * 4]);
    }

    #[test]
    fn a_scalar_is_a_view_of_its_element_or_a_short_fetch() {
        let scalar = ReadItem {
            stored_offsets: vec![],
            stored_lengths: vec![],
            isect_offsets: vec![],
            isect_lengths: vec![],
            dest_offsets: vec![],
            dest_lengths: vec![],
            ..item_2d()
        };
        let fetched = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let got = extract_isect(&scalar, &fetched).unwrap();
        assert_eq!((&got[..], got.as_ptr()), (&[1u8, 2, 3, 4][..], fetched.as_ptr()));
        let short = Bytes::from(vec![1u8, 2, 3]);
        assert!(matches!(extract_isect(&scalar, &short), Err(BcpError::Corrupt(_))));
    }

    /// The stored (4,6) f32 shard: iota(24), little-endian.
    fn stored() -> Bytes {
        Bytes::from((0..24u32).flat_map(|i| (i as f32).to_le_bytes()).collect::<Vec<u8>>())
    }

    /// A one-tensor state whose local tensor "t" is the whole (4,6) shard,
    /// zero-filled.
    fn target() -> TrainState {
        let mut state = TrainState::default();
        state.model.insert(bcp_model::StateEntry {
            fqn: "t".into(),
            global_shape: vec![4, 6],
            dtype: DType::F32,
            spec: bcp_topology::ShardSpec::Replicated,
            tensor: Tensor::zeros(DType::F32, vec![4, 6]),
        });
        state
    }

    /// A piece of the stored shard landing in the whole local tensor.
    fn piece(isect_offsets: Vec<usize>, isect_lengths: Vec<usize>) -> ReadItem {
        ReadItem { isect_offsets, isect_lengths, ..item_2d() }
    }

    /// `item`'s intersection as the load path hands it to the assembler.
    fn fetched(item: &ReadItem) -> Bytes {
        let (fo, fl) = item.fetch_range();
        extract_isect(item, &stored().slice(fo as usize..(fo + fl) as usize)).unwrap()
    }

    fn restore(pieces: &[(&ReadItem, Bytes)]) -> Result<Bytes> {
        let mut state = target();
        let mut asm = Assembler::new();
        for (item, payload) in pieces {
            asm.apply(&state, item, payload)?;
        }
        asm.finish(&mut state)?;
        Ok(state.model.get("t").unwrap().tensor.bytes_cloned().unwrap())
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
        let got = restore(&[(&whole, view.clone()), (&inner, fetched(&inner))]).unwrap();
        assert_eq!(got, stored());
        assert_ne!(got.as_ptr(), view.as_ptr(), "the partial piece turned it into a copy");
        // The other order: the whole piece replaces what was assembled.
        let got = restore(&[(&inner, fetched(&inner)), (&whole, view.clone())]).unwrap();
        assert_eq!((got.as_ptr(), got), (view.as_ptr(), stored()));
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
