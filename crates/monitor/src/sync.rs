//! The workspace's one lock discipline: `std::sync` locks, poison ignored.
//!
//! Every lock is taken through [`lock()`], [`read()`] or [`write()`], and every
//! timed condvar wait goes through [`wait_timeout()`]. A std lock is poisoned
//! by a panic while a guard is held; these hand the next taker the guard
//! anyway. The engine's I/O pool catches a job's panic and must stay usable,
//! and [`crate::MetricsHub::take_where`] runs caller code under its lock.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Acquire `m`, blocking until it is free.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire `l` for shared reading.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire `l` for exclusive writing.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Release `guard`, block on `cv` until notified or `timeout` elapses, and
/// re-acquire. The caller re-checks its condition and its deadline.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_lock_is_still_taken() {
        let m = Mutex::new(1);
        let rw = RwLock::new(1);
        let _ = std::panic::catch_unwind(|| {
            let (_g, _w) = (lock(&m), write(&rw));
            panic!("poison both");
        });
        assert!(m.is_poisoned() && rw.is_poisoned());
        *lock(&m) += 1;
        *write(&rw) += 1;
        assert_eq!((*lock(&m), *read(&rw)), (2, 2));
        let g = wait_timeout(&Condvar::new(), lock(&m), Duration::from_millis(1));
        assert_eq!(*g, 2);
    }
}
