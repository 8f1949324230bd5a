//! The one buffer a load assembles resharded tensors into.
//!
//! A copy into freshly allocated memory pays a page fault for every 4 KiB
//! it first touches, which caps it at a quarter of memcpy speed. An arena
//! of at least [`HUGE_PAGE`] bytes on Linux is therefore a
//! [`bcp_storage::mapping::HugePages`] range, which the kernel faults in
//! 2 MiB at a time. Smaller arenas, and every arena on other platforms, are
//! a zeroed `Vec`.
//!
//! A fresh mapping still costs the kernel a fault and a zeroing pass over
//! every huge page, on every load. So mappings outlive their arenas: the
//! process keeps one free list of them (§4.2's pinned pool, which lives as
//! long as the process). When the last `Bytes` view of a frozen arena
//! drops — or an unfrozen one drops on an error path — its mapping is
//! advised `MADV_FREE` (the kernel may still reclaim it under memory
//! pressure) and put on the list. An arena of `len` takes the smallest
//! free mapping of `len..=2·len` bytes, or maps a fresh one. The list
//! holds no more mappings than arenas were ever live at once in the
//! process (one per concurrently loading rank); beyond that it unmaps the
//! largest. A process's first reshard therefore maps fresh memory, and a
//! later one assembles into pages that are already faulted in.
//!
//! A recycled mapping is not zeroed again: an arena's contents are
//! unspecified. That is sound because the load plan covers every element
//! of every destination box exactly once (`plan::local_load_plan` refuses
//! pieces that overlap without being identical, and counts what remains),
//! so the assembler writes every byte of every region before a tensor is
//! sliced out of it.

use bytes::Bytes;
use std::ops::{Deref, DerefMut};

/// The huge page size an arena is aligned to and advised for.
const HUGE_PAGE: usize = 2 << 20;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
use free_list::Loan;

/// A byte buffer of unspecified contents, huge-page-backed where the
/// platform allows.
pub(crate) struct Arena {
    store: Store,
    recycled: bool,
}

enum Store {
    Heap(Vec<u8>),
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mapped(Loan),
}

impl Arena {
    /// An arena of `len` bytes whose contents are unspecified: a free
    /// mapping another arena left, a fresh one, or — below [`HUGE_PAGE`],
    /// or when the kernel refuses the mapping — a zeroed `Vec`.
    pub(crate) fn new(len: usize) -> Arena {
        if len >= HUGE_PAGE {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            if let Some((loan, recycled)) = Loan::take(len) {
                return Arena { store: Store::Mapped(loan), recycled };
            }
        }
        Arena { store: Store::Heap(vec![0; len]), recycled: false }
    }

    /// Whether the arena's memory was another arena's, already faulted in.
    pub(crate) fn recycled(&self) -> bool {
        self.recycled
    }

    /// Bytes the process's free list holds now: mappings no arena has on
    /// loan, kept for the next arena to take.
    pub(crate) fn retained_bytes() -> usize {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        let bytes = free_list::retained_bytes(&free_list::FREE);
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        let bytes = 0;
        bytes
    }

    /// The arena as one `Bytes` that owns it: slices of it keep the memory
    /// alive after every other handle is gone.
    pub(crate) fn freeze(self) -> Bytes {
        match self.store {
            Store::Heap(vec) => Bytes::from(vec),
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Store::Mapped(loan) => Bytes::from_owner(loan),
        }
    }
}

impl Deref for Arena {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.store {
            Store::Heap(vec) => vec,
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Store::Mapped(loan) => loan.as_ref(),
        }
    }
}

impl DerefMut for Arena {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.store {
            Store::Heap(vec) => vec,
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Store::Mapped(loan) => loan.as_mut(),
        }
    }
}

/// The process-wide free list and the loans arenas take from it.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod free_list {
    use bcp_monitor::sync::lock;
    use bcp_storage::mapping::HugePages;
    use std::sync::Mutex;

    /// The mappings no arena holds, and how many arenas hold one.
    pub(super) struct FreeList {
        free: Vec<HugePages>,
        live: usize,
        /// The most arenas that were ever live at once: the list's capacity.
        peak: usize,
    }

    impl FreeList {
        pub(super) const fn new() -> FreeList {
            FreeList { free: Vec::new(), live: 0, peak: 0 }
        }
    }

    /// The process's free list.
    pub(super) static FREE: Mutex<FreeList> = Mutex::new(FreeList::new());

    /// The bytes of the mappings on `list`, read once under its lock.
    pub(super) fn retained_bytes(list: &Mutex<FreeList>) -> usize {
        lock(list).free.iter().map(|pages| pages.as_ref().len()).sum()
    }

    /// A mapping on loan to one arena, whose first `len` bytes are the
    /// arena; dropping the loan puts the mapping back on the free list it
    /// came from.
    pub(super) struct Loan {
        pages: Option<HugePages>,
        len: usize,
        list: &'static Mutex<FreeList>,
    }

    impl Loan {
        /// A loan of `len` bytes from the process's free list, and whether
        /// its mapping was recycled.
        pub(super) fn take(len: usize) -> Option<(Loan, bool)> {
            Loan::take_from(&FREE, len)
        }

        /// A loan of `len` bytes and whether its mapping was recycled: the
        /// smallest free mapping on `list` of `len..=2·len` bytes, or a
        /// fresh one (mapped outside the lock). `None` if the kernel
        /// refuses the map.
        pub(super) fn take_from(
            list: &'static Mutex<FreeList>,
            len: usize,
        ) -> Option<(Loan, bool)> {
            let recycled = {
                let mut list = lock(list);
                list.live += 1;
                list.peak = list.peak.max(list.live);
                let fit = (0..list.free.len())
                    .filter(|&i| {
                        (len..=len.saturating_mul(2)).contains(&list.free[i].as_ref().len())
                    })
                    .min_by_key(|&i| list.free[i].as_ref().len());
                fit.map(|i| list.free.swap_remove(i))
            };
            let (pages, recycled) = match recycled {
                Some(pages) => (pages, true),
                None => match HugePages::zeroed(len) {
                    Some(pages) => (pages, false),
                    None => {
                        lock(list).live -= 1;
                        return None;
                    }
                },
            };
            Some((Loan { pages: Some(pages), len, list }, recycled))
        }
    }

    impl Drop for Loan {
        /// Advise the mapping `MADV_FREE` and put it on the list; if the
        /// list then holds more mappings than arenas were ever live at
        /// once, unmap its largest (outside the lock).
        fn drop(&mut self) {
            let Some(mut pages) = self.pages.take() else { return };
            pages.advise_free();
            let evicted = {
                let mut list = lock(self.list);
                list.live -= 1;
                list.free.push(pages);
                let over = list.free.len() > list.peak;
                let largest = (0..list.free.len()).max_by_key(|&i| list.free[i].as_ref().len());
                largest.filter(|_| over).map(|i| list.free.swap_remove(i))
            };
            drop(evicted);
        }
    }

    impl AsRef<[u8]> for Loan {
        fn as_ref(&self) -> &[u8] {
            &self.pages.as_ref().expect("on loan until dropped").as_ref()[..self.len]
        }
    }

    impl AsMut<[u8]> for Loan {
        fn as_mut(&mut self) -> &mut [u8] {
            &mut self.pages.as_mut().expect("on loan until dropped").as_mut()[..self.len]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mapped arenas here are over twice `engine::tests`' one-huge-page
    // arena, so none of them is lent that test's mapping or lends it one.

    #[test]
    fn an_arena_has_its_length_and_takes_writes_at_every_size() {
        for len in [0, HUGE_PAGE - 1, 2 * HUGE_PAGE + 1] {
            let mut arena = Arena::new(len);
            assert_eq!(arena.len(), len);
            if len > 0 {
                arena[0] = 3;
                arena[len - 1] = 7;
                let whole = arena.freeze();
                assert_eq!((whole.len(), whole[0], whole[len - 1]), (len, 3, 7));
            }
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn a_mapped_arena_starts_on_a_huge_page_boundary() {
        for len in [2 * HUGE_PAGE + 4096, 3 * HUGE_PAGE + 4096] {
            let arena = Arena::new(len);
            assert!(matches!(arena.store, Store::Mapped(_)), "{len} bytes are mapped");
            assert_eq!(arena.as_ptr() as usize % HUGE_PAGE, 0, "{len} bytes");
        }
    }

    #[test]
    fn a_slice_outlives_the_arena_and_reads_right() {
        for len in [4096, 2 * HUGE_PAGE + 1] {
            let mut arena = Arena::new(len);
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

    #[test]
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn the_retained_figure_rises_when_an_arena_drops_and_falls_when_one_takes_the_mapping() {
        use free_list::{retained_bytes, FreeList, Loan};
        use std::sync::Mutex;
        // A list of this test's own: the process's is shared with every
        // test of the binary that loads.
        static LIST: Mutex<FreeList> = Mutex::new(FreeList::new());
        const LEN: usize = 2 * HUGE_PAGE;
        let (first, recycled) = Loan::take_from(&LIST, LEN).expect("the kernel maps 4 MiB");
        assert_eq!((retained_bytes(&LIST), recycled), (0, false));
        drop(first);
        let kept = retained_bytes(&LIST);
        assert!(kept >= LEN, "a dropped arena's mapping is retained: {kept} bytes");
        let (second, recycled) = Loan::take_from(&LIST, LEN).expect("a free mapping fits");
        assert_eq!((retained_bytes(&LIST), recycled), (0, true), "the new arena took it");
        drop(second);
        assert_eq!(retained_bytes(&LIST), kept);
    }
}
