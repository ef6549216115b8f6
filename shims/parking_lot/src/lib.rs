//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Exposes the parking_lot API shape the workspace uses — `lock()` /
//! `read()` / `write()` returning guards directly, no poisoning — by
//! unwrapping std's poison errors into the inner guard. Poisoning only
//! occurs after a panic while holding the lock, in which case continuing
//! with the (possibly inconsistent) data matches parking_lot's semantics.

use std::sync;

/// Guard types are std's: the workspace names `RwLockReadGuard` in one
/// public signature, and std's generics line up exactly.
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Write-side guard.
pub(crate) type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;
/// Mutex guard.
pub(crate) type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

/// Non-poisoning mutex with parking_lot's `lock()` signature.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// New mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// Non-poisoning reader-writer lock with parking_lot's `read()`/`write()`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// New lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1.len() + r2.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn lock_survives_panic_in_other_thread() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: lock still usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
