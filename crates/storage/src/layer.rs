//! The one forwarding mechanism for backends that wrap another backend.
//!
//! A [`Layer`] names its inner backend once ([`Layer::inner`]); every
//! [`StorageBackend`] method is then provided, delegating to it, and a
//! blanket impl makes every layer a backend. A layer therefore contains
//! only what it intercepts:
//!
//! * the **operations** — `write`, `write_segments`, `append`, `read`,
//!   `read_range`, `size`, `exists`, `list`, `delete`, `rename`, `concat` —
//!   all route through one hook, [`Layer::around`], which sees the call
//!   described as an [`Op`] and runs it through `call` — once, or not at all
//!   (no layer repeats an operation: retrying is the engine's decision).
//!   Override `around` to time, admit, fail, delay, record or damage; match
//!   on the `Op` to pick the operations that matter;
//! * the **capabilities** — `name`, `op_attrs`, `zero_copy_reads`,
//!   `concat_is_metadata_op` — forward unchanged unless overridden, so a
//!   layer can add an attribute or rename itself but cannot drop what is
//!   below it;
//! * a layer whose treatment of one operation is not "something around the
//!   inner call" (the hot overlay answering a read from memory) overrides
//!   that one method.
//!
//! Implement `Layer` by path (`impl layer::Layer for X`) rather than
//! importing it: with both traits in scope a method call on a concrete
//! layer type is ambiguous between the two.

use crate::{Result, StorageBackend};
use bytes::Bytes;

/// One storage call, named once: which operation, on which path(s), with
/// which payload. Borrowed from the caller's arguments for the duration of
/// the call.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    /// [`StorageBackend::write`].
    Write { path: &'a str, data: &'a Bytes },
    /// [`StorageBackend::write_segments`].
    WriteSegments { path: &'a str, segments: &'a [Bytes] },
    /// [`StorageBackend::append`].
    Append { path: &'a str, data: &'a [u8] },
    /// [`StorageBackend::read`].
    Read { path: &'a str },
    /// [`StorageBackend::read_range`].
    ReadRange { path: &'a str, offset: u64, len: u64 },
    /// [`StorageBackend::size`].
    Size { path: &'a str },
    /// [`StorageBackend::exists`].
    Exists { path: &'a str },
    /// [`StorageBackend::list`].
    List { prefix: &'a str },
    /// [`StorageBackend::delete`].
    Delete { path: &'a str },
    /// [`StorageBackend::rename`].
    Rename { from: &'a str, to: &'a str },
    /// [`StorageBackend::concat`].
    Concat { target: &'a str, parts: &'a [String] },
}

impl<'a> Op<'a> {
    /// The trait method's name (`"write_segments"`, `"read_range"`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Write { .. } => "write",
            Op::WriteSegments { .. } => "write_segments",
            Op::Append { .. } => "append",
            Op::Read { .. } => "read",
            Op::ReadRange { .. } => "read_range",
            Op::Size { .. } => "size",
            Op::Exists { .. } => "exists",
            Op::List { .. } => "list",
            Op::Delete { .. } => "delete",
            Op::Rename { .. } => "rename",
            Op::Concat { .. } => "concat",
        }
    }

    /// The object the call is about: the path, the listing prefix, the
    /// rename source or the concat target.
    pub fn path(&self) -> &'a str {
        match *self {
            Op::Write { path, .. }
            | Op::WriteSegments { path, .. }
            | Op::Append { path, .. }
            | Op::Read { path }
            | Op::ReadRange { path, .. }
            | Op::Size { path }
            | Op::Exists { path }
            | Op::Delete { path } => path,
            Op::List { prefix } => prefix,
            Op::Rename { from, .. } => from,
            Op::Concat { target, .. } => target,
        }
    }

    /// Payload bytes the call carries *into* storage (0 for everything but
    /// the three writes; a read's bytes are in its [`Reply`]).
    pub fn bytes(&self) -> u64 {
        match self {
            Op::Write { data, .. } => data.len() as u64,
            Op::WriteSegments { segments, .. } => segments.iter().map(|s| s.len() as u64).sum(),
            Op::Append { data, .. } => data.len() as u64,
            _ => 0,
        }
    }

    /// `read` or `read_range`: the download path.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. } | Op::ReadRange { .. })
    }

    /// The upload path — `write`, `write_segments`, `append` and the two
    /// operations that publish what they wrote, `rename` and `concat`.
    pub fn is_upload(&self) -> bool {
        !(self.is_read() || self.is_probe() || matches!(self, Op::Delete { .. }))
    }

    /// `size`, `exists` or `list`: metadata probes the engine issues in
    /// tight loops (never traced, never journaled).
    pub fn is_probe(&self) -> bool {
        matches!(self, Op::Size { .. } | Op::Exists { .. } | Op::List { .. })
    }
}

/// What an operation returns. [`Layer::around`] is generic over it; the one
/// thing a layer may need from a result without knowing its type is the
/// bytes a read returned.
pub trait Reply {
    /// The bytes read, for `read`/`read_range` results; `None` otherwise.
    fn payload(&mut self) -> Option<&mut Bytes> {
        None
    }
}

impl Reply for () {}
impl Reply for u64 {}
impl Reply for bool {}
impl Reply for Vec<String> {}
impl Reply for Bytes {
    fn payload(&mut self) -> Option<&mut Bytes> {
        Some(self)
    }
}

/// A backend that wraps another backend; see the module docs.
pub trait Layer: Send + Sync {
    /// The backend this layer forwards to.
    fn inner(&self) -> &dyn StorageBackend;

    /// The interception hook every operation routes through. `call` runs the
    /// operation on [`Layer::inner`] with the caller's arguments; a layer
    /// invokes it once, or not at all (an injected failure). The default is
    /// a pure forward.
    fn around<T: Reply>(&self, _op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        call()
    }

    /// See [`StorageBackend::name`].
    fn name(&self) -> &str {
        self.inner().name()
    }

    /// See [`StorageBackend::op_attrs`].
    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        self.inner().op_attrs()
    }

    /// See [`StorageBackend::zero_copy_reads`].
    fn zero_copy_reads(&self) -> bool {
        self.inner().zero_copy_reads()
    }

    /// See [`StorageBackend::concat_is_metadata_op`].
    fn concat_is_metadata_op(&self) -> bool {
        self.inner().concat_is_metadata_op()
    }

    /// See [`StorageBackend::write`].
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        let op = Op::Write { path, data: &data };
        self.around(&op, &mut || self.inner().write(path, data.clone()))
    }

    /// See [`StorageBackend::write_segments`].
    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        let op = Op::WriteSegments { path, segments };
        self.around(&op, &mut || self.inner().write_segments(path, segments))
    }

    /// See [`StorageBackend::append`].
    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.around(&Op::Append { path, data }, &mut || self.inner().append(path, data))
    }

    /// See [`StorageBackend::read`].
    fn read(&self, path: &str) -> Result<Bytes> {
        self.around(&Op::Read { path }, &mut || self.inner().read(path))
    }

    /// See [`StorageBackend::read_range`].
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let op = Op::ReadRange { path, offset, len };
        self.around(&op, &mut || self.inner().read_range(path, offset, len))
    }

    /// See [`StorageBackend::size`].
    fn size(&self, path: &str) -> Result<u64> {
        self.around(&Op::Size { path }, &mut || self.inner().size(path))
    }

    /// See [`StorageBackend::exists`].
    fn exists(&self, path: &str) -> Result<bool> {
        self.around(&Op::Exists { path }, &mut || self.inner().exists(path))
    }

    /// See [`StorageBackend::list`].
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.around(&Op::List { prefix }, &mut || self.inner().list(prefix))
    }

    /// See [`StorageBackend::delete`].
    fn delete(&self, path: &str) -> Result<()> {
        self.around(&Op::Delete { path }, &mut || self.inner().delete(path))
    }

    /// See [`StorageBackend::rename`].
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.around(&Op::Rename { from, to }, &mut || self.inner().rename(from, to))
    }

    /// See [`StorageBackend::concat`].
    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        self.around(&Op::Concat { target, parts }, &mut || self.inner().concat(target, parts))
    }
}

impl<L: Layer> StorageBackend for L {
    fn name(&self) -> &str {
        Layer::name(self)
    }
    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        Layer::op_attrs(self)
    }
    fn zero_copy_reads(&self) -> bool {
        Layer::zero_copy_reads(self)
    }
    fn concat_is_metadata_op(&self) -> bool {
        Layer::concat_is_metadata_op(self)
    }
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        Layer::write(self, path, data)
    }
    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        Layer::write_segments(self, path, segments)
    }
    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        Layer::append(self, path, data)
    }
    fn read(&self, path: &str) -> Result<Bytes> {
        Layer::read(self, path)
    }
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        Layer::read_range(self, path, offset, len)
    }
    fn size(&self, path: &str) -> Result<u64> {
        Layer::size(self, path)
    }
    fn exists(&self, path: &str) -> Result<bool> {
        Layer::exists(self, path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Layer::list(self, prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        Layer::delete(self, path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        Layer::rename(self, from, to)
    }
    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        Layer::concat(self, target, parts)
    }
}
