//! Local-disk backend: real files under a root directory.
//!
//! This is the backend integration tests and examples run against — every
//! byte the engine claims to persist actually hits the filesystem. Paths are
//! sanitized so a checkpoint path can never escape the root.
//!
//! A read of at least [`MAP_MIN_BYTES`] returns a populated, read-only
//! mapping of the file (see [`crate::mapping`]) rather than a copy of it,
//! so a restore's bytes go from page cache to tensor without one; the
//! backend therefore declares `zero_copy_reads` there, and the engine reads
//! a run of any length as one mapping.
//!
//! Every object is written by `DiskBackend::write_durably`: a temp file
//! filled in 4 MiB windows of file offset, each full window handed to the
//! kernel's writeback as soon as it is written, then one `fsync`, a rename
//! into place and an `fsync` of the directory.

use crate::{checked_range, Result, StorageBackend, StorageError};
use bytes::Bytes;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
use crate::mapping::start_writeback;

/// Where there is no mapping module, a durable write gives no writeback
/// hint; its `fsync` alone writes the file back.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn start_writeback(_file: &fs::File, _offset: u64, _len: u64) {}

/// Suffix of the temp file an object is written to before its rename;
/// [`StorageBackend::list`] hides names ending in it.
const PARTIAL_SUFFIX: &str = ".tmp.partial";

/// `write_segments` gathers segments below this size into one `write(2)`: a
/// shard file is thousands of ~50-byte frame headers and 4-byte CRC trailers
/// between its payloads, and a syscall each costs more than the bytes.
const COALESCE_BYTES: usize = 256 * 1024;

/// A durable write starts the writeback of each full window of this many
/// bytes of file offset while the next is still being copied, so the final
/// `fsync` waits only for the tail. A 2 MiB multiple starting on a 2 MiB
/// offset, so the page cache can hold the file in large folios (with 1 MiB
/// windows a restore of the file through its mappings got slower).
const WINDOW: u64 = 4 << 20;

/// A read of at least this many bytes maps the file instead of copying it
/// (on Linux x86_64 and aarch64; elsewhere, and when the kernel refuses
/// the map, every read copies). Below it, the `mmap` + `munmap` pair and
/// the VMA cost more than copying the bytes.
pub const MAP_MIN_BYTES: u64 = 64 << 10;

/// A backend rooted at a directory on the local filesystem.
pub struct DiskBackend {
    root: PathBuf,
}

impl DiskBackend {
    /// Create a backend rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<DiskBackend> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err)?;
        Ok(DiskBackend { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, path: &str) -> Result<PathBuf> {
        if path.is_empty() || path.split('/').any(|c| c == ".." || c.is_empty()) {
            return Err(StorageError::Io(format!("invalid object path {path:?}")));
        }
        Ok(self.root.join(path))
    }

    /// The object at `path`, open for reading, and its size.
    fn open(&self, path: &str) -> Result<(fs::File, u64)> {
        let f = match fs::File::open(self.resolve(path)?) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StorageError::NotFound(path.to_string()))
            }
            Err(e) => return Err(io_err(e)),
        };
        let size = f.metadata().map_err(io_err)?.len();
        Ok((f, size))
    }

    /// Create the directory `p` goes in and any missing ancestors,
    /// fsyncing the parent of each one created so its entry survives a
    /// machine crash; returns those created, outermost first. A directory
    /// that already exists costs one `stat`.
    fn ensure_parent(&self, p: &Path) -> Result<Vec<PathBuf>> {
        let mut missing = Vec::new();
        let mut dir = p.parent();
        while let Some(d) = dir.filter(|d| !d.as_os_str().is_empty() && !d.is_dir()) {
            missing.push(d);
            dir = d.parent();
        }
        let mut created = Vec::new();
        for d in missing.into_iter().rev() {
            match fs::create_dir(d) {
                Ok(()) => created.push(d.to_path_buf()),
                // Another writer made it first; its fsync covers the entry.
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && d.is_dir() => {}
                Err(e) => return Err(io_err(e)),
            }
        }
        for d in &created {
            Self::sync_parent_dir(d)?;
        }
        Ok(created)
    }

    /// Write the object at `p` crash-atomically: `fill` writes its bytes to
    /// a temp file, which is fsynced and renamed into place, and the
    /// directory is fsynced. A crash at any point leaves either the old
    /// object or the new one, never a torn file, so a partial COMPLETE
    /// marker or global-metadata file is impossible.
    fn write_durably(
        &self,
        p: &Path,
        capacity: usize,
        fill: impl FnOnce(&mut WindowedFile) -> Result<()>,
    ) -> Result<()> {
        self.ensure_parent(p)?;
        let tmp = partial_path(p);
        let f = fs::File::create(&tmp).map_err(io_err)?;
        let mut w = WindowedFile { out: BufWriter::with_capacity(capacity, f), written: 0 };
        let synced = fill(&mut w).and_then(|()| {
            let f = w.out.into_inner().map_err(|e| io_err(e.into_error()))?;
            f.sync_all().map_err(io_err)
        });
        if let Err(e) = synced {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, p).map_err(io_err)?;
        Self::sync_parent_dir(p)
    }

    /// fsync the directory containing `p` so a rename into it survives a
    /// crash. Without this a crashed process can commit a `COMPLETE` marker
    /// whose directory entry never reached disk.
    fn sync_parent_dir(p: &Path) -> Result<()> {
        #[cfg(unix)]
        if let Some(parent) = p.parent() {
            fs::File::open(parent).map_err(io_err)?.sync_all().map_err(io_err)?;
        }
        Ok(())
    }
}

/// The temp path `p` is written through: the suffix goes after the *whole*
/// file name, so `x.bin.part0` … `x.bin.part3` (and `x.bin` / `x.json`) each
/// get their own — `Path::with_extension` would map them all onto one.
fn partial_path(p: &Path) -> PathBuf {
    let mut name = p.as_os_str().to_owned();
    name.push(PARTIAL_SUFFIX);
    PathBuf::from(name)
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

impl StorageBackend for DiskBackend {
    fn name(&self) -> &str {
        "disk"
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        vec![("root", self.root.display().to_string())]
    }

    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.write_durably(&self.resolve(path)?, data.len().min(COALESCE_BYTES), |w| w.put(&data))
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        // Segments of `COALESCE_BYTES` and more bypass the buffer.
        let total: usize = segments.iter().map(Bytes::len).sum();
        self.write_durably(&self.resolve(path)?, total.min(COALESCE_BYTES), |w| {
            segments.iter().try_for_each(|seg| w.put(seg))
        })
    }

    /// A large read maps the file instead of copying it, so no byte moves
    /// whatever its length; split, a run would be several mappings that only
    /// a concatenation into fresh heap could join. A small read copies, but
    /// is too small for splitting it to pay.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn zero_copy_reads(&self) -> bool {
        true
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        let p = self.resolve(path)?;
        self.ensure_parent(&p)?;
        let mut f = fs::OpenOptions::new().create(true).append(true).open(&p).map_err(io_err)?;
        f.write_all(data).map_err(io_err)
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        let (f, size) = self.open(path)?;
        read_at(path, f, 0, size)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let (f, size) = self.open(path)?;
        checked_range(path, size, offset, len)?;
        read_at(path, f, offset, len)
    }

    fn size(&self, path: &str) -> Result<u64> {
        let p = self.resolve(path)?;
        match fs::metadata(&p) {
            Ok(m) if m.is_file() => Ok(m.len()),
            Ok(_) => Err(StorageError::NotFound(path.to_string())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(path.to_string()))
            }
            Err(e) => Err(io_err(e)),
        }
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.resolve(path)?.is_file())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        // Walk the deepest existing directory implied by the prefix, then
        // filter by full key prefix.
        let dir_part = match prefix.rfind('/') {
            Some(i) => &prefix[..i],
            None => "",
        };
        let start = if dir_part.is_empty() { self.root.clone() } else { self.root.join(dir_part) };
        let mut out = Vec::new();
        if start.exists() {
            walk(&start, &mut |p| {
                if let Ok(rel) = p.strip_prefix(&self.root) {
                    let key = rel.to_string_lossy().replace('\\', "/");
                    if key.starts_with(prefix) && !key.ends_with(PARTIAL_SUFFIX) {
                        out.push(key);
                    }
                }
            })
            .map_err(io_err)?;
        }
        out.sort();
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<()> {
        let p = self.resolve(path)?;
        match fs::remove_file(&p) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(path.to_string()))
            }
            Err(e) => Err(io_err(e)),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let f = self.resolve(from)?;
        let t = self.resolve(to)?;
        if !f.is_file() {
            return Err(StorageError::NotFound(from.to_string()));
        }
        self.ensure_parent(&t)?;
        fs::rename(&f, &t).map_err(io_err)?;
        Self::sync_parent_dir(&t)
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        // Each part is read whole (a mapping from `MAP_MIN_BYTES` up) and
        // bypasses the buffer unless it is small.
        self.write_durably(&self.resolve(target)?, COALESCE_BYTES, |w| {
            parts.iter().try_for_each(|part| w.put(&self.read(part)?))
        })?;
        for part in parts {
            let p = self.resolve(part)?;
            let _ = fs::remove_file(p);
        }
        Ok(())
    }
}

/// The temp file of a durable write, and how many bytes it holds.
struct WindowedFile {
    out: BufWriter<fs::File>,
    written: u64,
}

impl WindowedFile {
    /// Append `buf`, cut at window boundaries: each window it fills is
    /// flushed to the file and its writeback started.
    fn put(&mut self, mut buf: &[u8]) -> Result<()> {
        while !buf.is_empty() {
            let (n, full) = next_cut(self.written, buf.len());
            self.out.write_all(&buf[..n]).map_err(io_err)?;
            self.written += n as u64;
            buf = &buf[n..];
            if let Some(start) = full {
                self.out.flush().map_err(io_err)?;
                start_writeback(self.out.get_ref(), start, WINDOW);
            }
        }
        Ok(())
    }
}

/// The window rule: of `len` bytes about to be written at file offset
/// `at`, how many to write before the next window boundary, and the start
/// of the window they fill, if they reach that boundary. A last partial
/// window is never hinted; the `fsync` writes it back.
fn next_cut(at: u64, len: usize) -> (usize, Option<u64>) {
    let room = WINDOW - at % WINDOW;
    if len as u64 >= room {
        (room as usize, Some(at + room - WINDOW))
    } else {
        (len, None)
    }
}

/// Bytes `[offset, offset + len)` of `f`, a range inside the file: a
/// mapping of them from [`MAP_MIN_BYTES`] up where the platform and the
/// kernel allow, else a copy.
fn read_at(path: &str, mut f: fs::File, offset: u64, len: u64) -> Result<Bytes> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    if len >= MAP_MIN_BYTES {
        if let Some(view) = crate::mapping::FileView::new(&f, offset, len as usize) {
            return Ok(Bytes::from_owner(view));
        }
    }
    f.seek(SeekFrom::Start(offset)).map_err(io_err)?;
    // Read into uninitialised capacity: the buffer may become a restored
    // tensor as it is, so zero-filling it first would be a wasted pass.
    let mut buf = Vec::with_capacity(len as usize);
    f.take(len).read_to_end(&mut buf).map_err(io_err)?;
    if buf.len() as u64 != len {
        let got = buf.len();
        return Err(StorageError::Io(format!(
            "{path}: short read ({got} of {len} bytes at {offset})"
        )));
    }
    Ok(Bytes::from(buf))
}

fn walk(dir: &Path, f: &mut impl FnMut(&Path)) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            walk(&p, f)?;
        } else {
            f(&p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> DiskBackend {
        let dir = std::env::temp_dir().join(format!(
            "bcp-disk-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        DiskBackend::new(dir).unwrap()
    }

    #[test]
    fn conformance() {
        crate::conformance::run_all(&fresh());
    }

    #[test]
    fn rejects_path_escape() {
        let d = fresh();
        assert!(d.write("../evil", Bytes::from_static(b"x")).is_err());
        assert!(d.read("a/../../evil").is_err());
        assert!(d.write("", Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn nested_paths_create_directories() {
        let d = fresh();
        d.write("deep/nested/dir/file.bin", Bytes::from_static(b"ok")).unwrap();
        assert_eq!(&d.read("deep/nested/dir/file.bin").unwrap()[..], b"ok");
    }

    #[test]
    fn a_write_creates_each_missing_directory_once() {
        let d = fresh();
        let created = d.ensure_parent(&d.root().join("a/b/c/x")).unwrap();
        let rel: Vec<_> = created.iter().map(|p| p.strip_prefix(d.root()).unwrap()).collect();
        assert_eq!(rel, [Path::new("a"), Path::new("a/b"), Path::new("a/b/c")]);
        d.write("a/b/c/x", Bytes::from_static(b"1")).unwrap();
        assert!(d.ensure_parent(&d.root().join("a/b/c/y")).unwrap().is_empty());
        assert!(d.ensure_parent(&d.root().join("top")).unwrap().is_empty());
    }

    /// `len` pseudo-random bytes, so a misplaced or repeated range of an
    /// image reads back different.
    fn pattern(len: usize, seed: u64) -> Bytes {
        let mut x = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Bytes::from(bytes)
    }

    fn assert_written(d: &DiskBackend, path: &str, segments: &[Bytes]) {
        d.write_segments(path, segments).unwrap();
        let want: Vec<u8> = segments.concat();
        let got = d.read(path).unwrap();
        assert!(got[..] == want[..], "{path}: {} bytes read back differently", want.len());
        let dir = d.root().join(path).parent().unwrap().to_path_buf();
        let partial = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .find(|n| n.ends_with(PARTIAL_SUFFIX));
        assert_eq!(partial, None, "{path}");
    }

    #[test]
    fn write_segments_round_trips_at_every_window_edge() {
        let d = fresh();
        let w = WINDOW as usize;
        for (i, len) in [0, 1, w - 1, w, w + 1, 9 * (1 << 20) + 13].into_iter().enumerate() {
            assert_written(&d, &format!("edge/{len}"), &[pattern(len, i as u64)]);
            let half = len / 2;
            let whole = pattern(len, 100 + i as u64);
            assert_written(
                &d,
                &format!("edge/{len}.split"),
                &[whole.slice(..half), whole.slice(half..)],
            );
        }
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn write_segments_round_trips_when_windows_end_inside_segments() {
        // A shard image: small frame headers and CRC trailers between
        // payloads, so window boundaries fall inside payloads and headers.
        let d = fresh();
        let mut segments = Vec::new();
        for i in 0..40u64 {
            segments.push(pattern(47 + i as usize % 5, 3 * i));
            segments.push(pattern(((i as usize * 377_003) % (3 << 20)) + 1, 3 * i + 1));
            segments.push(pattern(4, 3 * i + 2));
        }
        let total: usize = segments.iter().map(Bytes::len).sum();
        assert!(total > 8 * WINDOW as usize, "{total} bytes span too few windows");
        assert_written(&d, "image/shard.bin", &segments);
        d.write("image/plain.bin", Bytes::from(segments.concat())).unwrap();
        assert!(d.read("image/plain.bin").unwrap()[..] == segments.concat()[..]);
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn windows_are_hinted_whole_aligned_and_once() {
        // Writes of these sizes in turn, as `WindowedFile::put` cuts them.
        let w = WINDOW as usize;
        let writes = [0, 1, 50, w - 51, 3, w, 2 * w + 7, 4, w - 11, 1 << 20, 5 * w + 1, 9];
        let mut at = 0u64;
        let mut hinted = Vec::new();
        for len in writes {
            let mut left = len;
            while left > 0 {
                let (n, full) = next_cut(at, left);
                assert!(n > 0 && n <= left);
                at += n as u64;
                left -= n;
                if let Some(start) = full {
                    assert_eq!(
                        at,
                        start + WINDOW,
                        "a window is hinted when its last byte is written"
                    );
                    hinted.push(start);
                }
            }
        }
        let total: u64 = writes.iter().map(|&n| n as u64).sum();
        assert_eq!(at, total);
        // Every full window exactly once, in order; the partial tail none.
        let full: Vec<u64> = (0..total / WINDOW).map(|k| k * WINDOW).collect();
        assert_eq!(hinted, full);
        assert!(!total.is_multiple_of(WINDOW), "the sizes leave a partial last window");
        assert_eq!(next_cut(7 * WINDOW, 0), (0, None));
        assert_eq!(next_cut(WINDOW - 1, 1), (1, Some(0)));
    }

    #[test]
    fn list_skips_partial_files() {
        let d = fresh();
        d.write("x/a", Bytes::from_static(b"1")).unwrap();
        fs::write(d.root().join("x/b.tmp.partial"), b"junk").unwrap();
        assert_eq!(d.list("x/").unwrap(), vec!["x/a".to_string()]);
    }
}
