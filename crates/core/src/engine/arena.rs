//! The one buffer a load assembles resharded tensors into.
//!
//! A copy into freshly allocated memory pays a page fault for every 4 KiB
//! it first touches, which caps it at a quarter of memcpy speed. An arena
//! of at least [`HUGE_PAGE`] bytes on Linux is therefore a private
//! anonymous mapping, 2 MiB-aligned and advised `MADV_HUGEPAGE`, so the
//! kernel faults it in 2 MiB at a time (where transparent huge pages are
//! `always` or `madvise`; elsewhere the advice is a no-op). Smaller arenas,
//! and every arena on other platforms, are a zeroed `Vec`.
//!
//! The mapping is declared against the libc that std already links; this
//! module holds every `unsafe` line that takes.

use bytes::Bytes;
use std::ops::{Deref, DerefMut};

/// The huge page size an arena is aligned to and advised for.
const HUGE_PAGE: usize = 2 << 20;

/// A zero-filled byte buffer, huge-page-backed where the platform allows.
pub(crate) struct Arena(Store);

enum Store {
    Heap(Vec<u8>),
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mapped(sys::Mapping),
}

impl Arena {
    /// A zero-filled arena of `len` bytes. Falls back to the heap when the
    /// mapping cannot be made.
    pub(crate) fn zeroed(len: usize) -> Arena {
        if len >= HUGE_PAGE {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            if let Some(mapping) = sys::Mapping::new(len) {
                return Arena(Store::Mapped(mapping));
            }
        }
        Arena(Store::Heap(vec![0; len]))
    }

    /// The arena as one `Bytes` that owns it: slices of it keep the memory
    /// alive after every other handle is gone.
    pub(crate) fn freeze(self) -> Bytes {
        match self.0 {
            Store::Heap(vec) => Bytes::from(vec),
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Store::Mapped(mapping) => Bytes::from_owner(mapping),
        }
    }
}

impl Deref for Arena {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Store::Heap(vec) => vec,
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Store::Mapped(mapping) => mapping.as_ref(),
        }
    }
}

impl DerefMut for Arena {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Store::Heap(vec) => vec,
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Store::Mapped(mapping) => mapping.as_mut(),
        }
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use super::HUGE_PAGE;
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    /// A multiple of every page size Linux runs with (4, 16 and 64 KiB).
    /// The kept range ends on it rather than on a huge page, so a last
    /// partial huge page is never faulted in whole: the VMA ends inside it,
    /// and the few bytes used there take small pages.
    const GRAIN: usize = 64 << 10;

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

    /// `len` readable, writable bytes at a 2 MiB boundary, inside a mapping
    /// of `len` rounded up to [`GRAIN`] that this value owns.
    pub struct Mapping {
        start: NonNull<u8>,
        len: usize,
        mapped: usize,
    }

    // SAFETY: `start` is the only pointer to the range it heads, and the
    // range is owned by this value alone, like a `Vec<u8>`'s buffer; `len`
    // and `mapped` are plain sizes. Moving it to another thread moves that
    // ownership, and `Drop` unmaps from whichever thread holds it last.
    unsafe impl Send for Mapping {}
    // SAFETY: as above; through `&Mapping` the range is only read (`as_ref`
    // hands out `&[u8]`), and writes need `&mut Mapping`.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map `len + HUGE_PAGE` bytes (`len` rounded up to [`GRAIN`]) and
        /// unmap the slack on either side of the first 2 MiB boundary, so
        /// the kept range is aligned whatever address the kernel picked.
        /// `None` if the kernel refuses the map.
        pub fn new(len: usize) -> Option<Mapping> {
            let mapped = len.checked_next_multiple_of(GRAIN)?;
            let reserved = mapped.checked_add(HUGE_PAGE)?;
            // SAFETY: a fresh private anonymous mapping at an address of the
            // kernel's choosing aliases nothing; the result is checked
            // against MAP_FAILED before use.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    reserved,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base as isize == -1 {
                return None;
            }
            let base = base as usize;
            let start = base.next_multiple_of(HUGE_PAGE);
            let (head, tail) = (start - base, base + reserved - (start + mapped));
            // SAFETY: both ranges lie inside the mapping just made, start on
            // a page boundary (`base` is page-aligned, and `HUGE_PAGE` and
            // `GRAIN` are multiples of any page size) and are touched by
            // nobody: `head` precedes `start` and `tail` follows
            // `start + mapped`. The advice covers the kept range only and is
            // a hint, so its result does not matter.
            unsafe {
                if head > 0 {
                    munmap(base as *mut c_void, head);
                }
                if tail > 0 {
                    munmap((start + mapped) as *mut c_void, tail);
                }
                madvise(start as *mut c_void, mapped, MADV_HUGEPAGE);
            }
            let start = NonNull::new(start as *mut u8)?;
            Some(Mapping { start, len, mapped })
        }
    }

    impl AsRef<[u8]> for Mapping {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: `start..start + len` is mapped readable and writable
            // for as long as `self` lives, was zero-filled by the kernel,
            // and is only written through `&mut self`.
            unsafe { std::slice::from_raw_parts(self.start.as_ptr(), self.len) }
        }
    }

    impl AsMut<[u8]> for Mapping {
        fn as_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `as_ref`, and `&mut self` makes this the only
            // live reference into the range.
            unsafe { std::slice::from_raw_parts_mut(self.start.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `start..start + mapped` is exactly the range `new`
            // kept, and no reference into it outlives `self`.
            unsafe {
                munmap(self.start.as_ptr().cast(), self.mapped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_arena_is_zero_filled_at_every_size() {
        for len in [0, HUGE_PAGE - 1, HUGE_PAGE + 1] {
            let mut arena = Arena::zeroed(len);
            assert_eq!(arena.len(), len);
            assert!(arena.iter().all(|&b| b == 0), "{len} bytes");
            if len > 0 {
                arena[len - 1] = 7;
                assert_eq!(arena.freeze()[len - 1], 7);
            }
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn a_mapped_arena_starts_on_a_huge_page_boundary() {
        for len in [HUGE_PAGE, HUGE_PAGE + 1, 3 * HUGE_PAGE + 4096] {
            let arena = Arena::zeroed(len);
            assert!(matches!(arena.0, Store::Mapped(_)), "{len} bytes are mapped");
            assert_eq!(arena.as_ptr() as usize % HUGE_PAGE, 0, "{len} bytes");
        }
    }

    #[test]
    fn a_slice_outlives_the_arena_and_reads_right() {
        for len in [4096, HUGE_PAGE + 1] {
            let mut arena = Arena::zeroed(len);
            for (i, b) in arena.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            let slice = {
                let whole = arena.freeze();
                whole.slice(100..len)
            };
            assert!(slice.iter().enumerate().all(|(i, &b)| b == ((i + 100) % 251) as u8));
        }
    }
}
