//! The one buffer a load assembles resharded tensors into.
//!
//! A copy into freshly allocated memory pays a page fault for every 4 KiB
//! it first touches, which caps it at a quarter of memcpy speed. An arena
//! of at least [`HUGE_PAGE`] bytes on Linux is therefore a
//! [`bcp_storage::mapping::HugePages`] range, which the kernel faults in
//! 2 MiB at a time. Smaller arenas, and every arena on other platforms, are
//! a zeroed `Vec`.

use bytes::Bytes;
use std::ops::{Deref, DerefMut};

/// The huge page size an arena is aligned to and advised for.
const HUGE_PAGE: usize = 2 << 20;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
use bcp_storage::mapping::HugePages;

/// A zero-filled byte buffer, huge-page-backed where the platform allows.
pub(crate) struct Arena(Store);

enum Store {
    Heap(Vec<u8>),
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mapped(HugePages),
}

impl Arena {
    /// A zero-filled arena of `len` bytes. Falls back to the heap when the
    /// mapping cannot be made.
    pub(crate) fn zeroed(len: usize) -> Arena {
        if len >= HUGE_PAGE {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            if let Some(mapping) = HugePages::zeroed(len) {
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
