//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no reachable crates registry, so this shim
//! wraps `std::sync` primitives behind parking_lot's (non-poisoning)
//! API: `lock()` returns the guard directly. A poisoned std lock — only
//! possible if a panic unwound while holding it — is recovered into its
//! inner guard, matching parking_lot's behavior of not propagating
//! poison.
//!
//! With the `chaos` feature, `chaos::point` may yield before every
//! `lock`, `try_lock`, `read` and `write`, by the same seeded rule as
//! the rayon shim's (see its crate docs).

pub mod chaos;

use std::sync::{Mutex as StdMutex, MutexGuard, RwLock as StdRwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion matching `parking_lot::Mutex`'s API.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: StdMutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        chaos::point();
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        chaos::point();
        self.inner.try_lock().ok()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

/// Reader-writer lock matching `parking_lot::RwLock`'s API.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: StdRwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        chaos::point();
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        chaos::point();
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(String::from("a"));
        l.write().push('b');
        assert_eq!(&*l.read(), "ab");
    }
}
