//! Every memory mapping in the workspace, and every `unsafe` line one takes.
//!
//! Two kinds of mapping live here, both declared against the libc that std
//! already links:
//!
//! * [`HugePages`] — a private anonymous, zero-filled, writable range,
//!   2 MiB-aligned and advised `MADV_HUGEPAGE`, so the kernel faults it in
//!   2 MiB at a time (where transparent huge pages are `always` or
//!   `madvise`; elsewhere the advice is a no-op). The load arena that
//!   resharded tensors are assembled into is one.
//! * `FileView` — a read-only private mapping of a byte range of a file,
//!   populated when it is made (`MAP_POPULATE`): the page-table work is done
//!   by the read that maps it, not by the first touch of the bytes later.
//!   `DiskBackend`'s large reads are one, so a restore's bytes go from page
//!   cache to tensor without a copy.
//!
//! A file view stays what the file held when it was mapped only as long as
//! nobody modifies that file in place: every writer in this workspace
//! replaces an object by temp file + rename and `append` only grows one, so
//! the mapped inode's bytes never change under a view. An outside tool that
//! truncates a mapped file in place makes the next touch of a byte past the
//! new end raise `SIGBUS` in a process holding tensors restored from it.
//!
//! The module exists on Linux x86_64 and aarch64 only; callers elsewhere
//! take their copying or heap path.

use std::ffi::{c_int, c_long, c_void};
use std::fs::File;
use std::os::fd::AsRawFd;
use std::ptr::NonNull;

/// The huge page size a [`HugePages`] range is aligned to and advised for.
const HUGE_PAGE: usize = 2 << 20;

/// A multiple of every page size Linux runs with (4, 16 and 64 KiB). A
/// [`HugePages`] range ends on it rather than on a huge page, so a last
/// partial huge page is never faulted in whole: the VMA ends inside it, and
/// the few bytes used there take small pages. A `FileView` starts on it,
/// which makes its file offset page-aligned whatever the page size.
const GRAIN: usize = 64 << 10;

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_POPULATE: c_int = 0x8000;
const MADV_HUGEPAGE: c_int = 14;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// A fresh mapping of `len` bytes at an address of the kernel's choosing;
/// `None` if the kernel refuses it (`len` of 0, `vm.max_map_count`, no
/// address space, an fd that cannot be mapped).
fn map(len: usize, prot: c_int, flags: c_int, fd: c_int, offset: u64) -> Option<NonNull<u8>> {
    let offset = c_long::try_from(offset).ok()?;
    // SAFETY: a mapping at an address of the kernel's choosing aliases no
    // memory Rust knows of; the result is checked against MAP_FAILED
    // before use.
    let base = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, fd, offset) };
    if base as isize == -1 {
        return None;
    }
    NonNull::new(base.cast())
}

/// `len` mapped bytes at `base` that this value alone owns and unmaps on
/// drop.
struct Region {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: `base` is the only pointer to the range it heads, and the range is
// owned by this value alone, like a `Vec<u8>`'s buffer; `len` is a plain
// size. Moving it to another thread moves that ownership, and `Drop` unmaps
// from whichever thread holds it last.
unsafe impl Send for Region {}
// SAFETY: as above; through `&Region` the range is only read (the owners
// hand out `&[u8]`), and writes need `&mut` to a writable owner.
unsafe impl Sync for Region {}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is exactly the range a constructor
        // kept, and no reference into it outlives its owner.
        unsafe {
            munmap(self.base.as_ptr().cast(), self.len);
        }
    }
}

/// `len` zero-filled, readable and writable bytes at a 2 MiB boundary,
/// inside a mapping of `len` rounded up to a 64 KiB grain that this value
/// owns.
pub struct HugePages {
    region: Region,
    len: usize,
}

impl HugePages {
    /// Map `len + HUGE_PAGE` bytes (`len` rounded up to `GRAIN`) and unmap
    /// the slack on either side of the first 2 MiB boundary, so the kept
    /// range is aligned whatever address the kernel picked. `None` if the
    /// kernel refuses the map.
    pub fn zeroed(len: usize) -> Option<HugePages> {
        let mapped = len.checked_next_multiple_of(GRAIN)?;
        let reserved = mapped.checked_add(HUGE_PAGE)?;
        let base = map(reserved, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)?;
        let base = base.as_ptr() as usize;
        let start = base.next_multiple_of(HUGE_PAGE);
        let (head, tail) = (start - base, base + reserved - (start + mapped));
        // SAFETY: both ranges lie inside the mapping just made, start on a
        // page boundary (`base` is page-aligned, and `HUGE_PAGE` and `GRAIN`
        // are multiples of any page size) and are touched by nobody: `head`
        // precedes `start` and `tail` follows `start + mapped`. The advice
        // covers the kept range only and is a hint, so its result does not
        // matter.
        unsafe {
            if head > 0 {
                munmap(base as *mut c_void, head);
            }
            if tail > 0 {
                munmap((start + mapped) as *mut c_void, tail);
            }
            madvise(start as *mut c_void, mapped, MADV_HUGEPAGE);
        }
        let region = Region { base: NonNull::new(start as *mut u8)?, len: mapped };
        Some(HugePages { region, len })
    }
}

impl AsRef<[u8]> for HugePages {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: `base..base + len` is mapped readable and writable for as
        // long as `self` lives, was zero-filled by the kernel, and is only
        // written through `&mut self`.
        unsafe { std::slice::from_raw_parts(self.region.base.as_ptr(), self.len) }
    }
}

impl AsMut<[u8]> for HugePages {
    fn as_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_ref`, and `&mut self` makes this the only live
        // reference into the range.
        unsafe { std::slice::from_raw_parts_mut(self.region.base.as_ptr(), self.len) }
    }
}

/// Bytes `[offset, offset + len)` of a file, as a read-only private mapping
/// that starts at `offset` rounded down to [`GRAIN`] and that this value
/// owns. The view holds the file's inode, not its name: renaming, replacing
/// or deleting the object leaves it what it was.
pub(crate) struct FileView {
    region: Region,
    skip: usize,
    len: usize,
}

impl FileView {
    /// Map `[offset, offset + len)` of `file` and fault every page of it in
    /// now. `None` if the range does not lie inside the file or the kernel
    /// refuses the map (`len` of 0 among others).
    pub(crate) fn new(file: &File, offset: u64, len: usize) -> Option<FileView> {
        let end = offset.checked_add(len as u64)?;
        if end > file.metadata().ok()?.len() {
            return None;
        }
        let skip = (offset % GRAIN as u64) as usize;
        let mapped = len.checked_add(skip)?;
        let flags = MAP_PRIVATE | MAP_POPULATE;
        let base = map(mapped, PROT_READ, flags, file.as_raw_fd(), offset - skip as u64)?;
        Some(FileView { region: Region { base, len: mapped }, skip, len })
    }
}

impl AsRef<[u8]> for FileView {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: `base + skip..base + skip + len` is mapped readable for as
        // long as `self` lives and lay inside the file when it was mapped
        // (`new` checked), so no byte of it is past EOF. Nothing in this
        // process writes it: the mapping is PROT_READ, and every writer of a
        // stored object replaces it by temp file + rename or grows it by
        // `append`, never rewriting the mapped inode's bytes in place
        // (module docs). A file truncated in place by an outside tool breaks
        // that contract, and touching a byte past its new end raises SIGBUS.
        unsafe { std::slice::from_raw_parts(self.region.base.as_ptr().add(self.skip), self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn file_of(len: usize, tag: &str) -> (std::path::PathBuf, Vec<u8>) {
        let path = std::env::temp_dir().join(format!(
            "bcp-mapping-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        std::fs::File::create(&path).unwrap().write_all(&data).unwrap();
        (path, data)
    }

    #[test]
    fn huge_pages_start_on_a_huge_page_boundary_zero_filled() {
        for len in [1, HUGE_PAGE, HUGE_PAGE + 1, 3 * HUGE_PAGE + 4096] {
            let mut pages = HugePages::zeroed(len).unwrap();
            assert_eq!(pages.as_ref().len(), len);
            assert_eq!(pages.as_ref().as_ptr() as usize % HUGE_PAGE, 0, "{len} bytes");
            assert!(pages.as_ref().iter().all(|&b| b == 0), "{len} bytes");
            pages.as_mut()[len - 1] = 7;
            assert_eq!(pages.as_ref()[len - 1], 7);
        }
    }

    #[test]
    fn a_file_view_is_the_range_at_any_offset_up_to_eof() {
        let len = 3 * GRAIN + 4099;
        let (path, data) = file_of(len, "ranges");
        let file = File::open(&path).unwrap();
        for (offset, n) in [(0, len), (1, GRAIN), (GRAIN - 1, 2), (GRAIN + 17, len - GRAIN - 17)] {
            let view = FileView::new(&file, offset as u64, n).unwrap();
            assert_eq!(view.as_ref(), &data[offset..offset + n], "{offset}+{n}");
        }
        assert!(FileView::new(&file, 0, 0).is_none(), "the kernel refuses an empty mapping");
        assert!(FileView::new(&file, 1, len).is_none(), "a range past EOF is refused");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_file_view_outlives_its_file_and_name() {
        let (path, data) = file_of(2 * GRAIN, "outlives");
        let view = FileView::new(&File::open(&path).unwrap(), 5, GRAIN).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(view.as_ref(), &data[5..5 + GRAIN]);
    }
}
