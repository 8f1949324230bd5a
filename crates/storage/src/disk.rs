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

use crate::{checked_range, Result, StorageBackend, StorageError};
use bytes::Bytes;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Suffix of the temp file an object is written to before its rename;
/// [`StorageBackend::list`] hides names ending in it.
const PARTIAL_SUFFIX: &str = ".tmp.partial";

/// `write_segments` gathers segments below this size into one `write(2)`: a
/// shard file is thousands of ~50-byte frame headers and 4-byte CRC trailers
/// between its payloads, and a syscall each costs more than the bytes.
const COALESCE_BYTES: usize = 256 * 1024;

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

    fn ensure_parent(&self, p: &Path) -> Result<()> {
        if let Some(parent) = p.parent() {
            fs::create_dir_all(parent).map_err(io_err)?;
        }
        Ok(())
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
        let p = self.resolve(path)?;
        self.ensure_parent(&p)?;
        // Write + fsync the temp file, then rename: a crash at any point
        // leaves either the old object or the new one, never a torn file —
        // so a partial COMPLETE marker or global-metadata file is impossible.
        let tmp = partial_path(&p);
        {
            let mut f = fs::File::create(&tmp).map_err(io_err)?;
            f.write_all(&data).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        fs::rename(&tmp, &p).map_err(io_err)?;
        Self::sync_parent_dir(&p)
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        let p = self.resolve(path)?;
        self.ensure_parent(&p)?;
        let tmp = partial_path(&p);
        {
            // Segments of `COALESCE_BYTES` and more bypass the buffer.
            let total: usize = segments.iter().map(Bytes::len).sum();
            let f = fs::File::create(&tmp).map_err(io_err)?;
            let mut w = BufWriter::with_capacity(total.min(COALESCE_BYTES), f);
            for seg in segments {
                w.write_all(seg).map_err(io_err)?;
            }
            let f = w.into_inner().map_err(|e| io_err(e.into_error()))?;
            f.sync_all().map_err(io_err)?;
        }
        fs::rename(&tmp, &p).map_err(io_err)?;
        Self::sync_parent_dir(&p)
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
        let t = self.resolve(target)?;
        self.ensure_parent(&t)?;
        let tmp = partial_path(&t);
        {
            let mut out = fs::File::create(&tmp).map_err(io_err)?;
            for part in parts {
                let p = self.resolve(part)?;
                let mut f = match fs::File::open(&p) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        return Err(StorageError::NotFound(part.clone()))
                    }
                    Err(e) => return Err(io_err(e)),
                };
                std::io::copy(&mut f, &mut out).map_err(io_err)?;
            }
            out.sync_all().map_err(io_err)?;
        }
        fs::rename(&tmp, &t).map_err(io_err)?;
        Self::sync_parent_dir(&t)?;
        for part in parts {
            let p = self.resolve(part)?;
            let _ = fs::remove_file(p);
        }
        Ok(())
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
    fn list_skips_partial_files() {
        let d = fresh();
        d.write("x/a", Bytes::from_static(b"1")).unwrap();
        fs::write(d.root().join("x/b.tmp.partial"), b"junk").unwrap();
        assert_eq!(d.list("x/").unwrap(), vec!["x/a".to_string()]);
    }
}
