//! [`SyncCell`]: a tiny `RwLock`-backed cell with the ergonomics of
//! `RefCell`/`Cell`.
//!
//! Kernels must be `Send + Sync` (the bound on [`crate::Kernel`]), so
//! kernel state that used to live in `Rc<RefCell<T>>` or `Cell<T>` migrates
//! to `Arc<SyncCell<T>>` / `SyncCell<T>` with no changes at the use sites:
//! `borrow()`, `borrow_mut()`, `get()` and `set()` keep their spelling, they
//! just take a reader/writer lock instead of bumping a borrow flag.
//!
//! The backing lock is an `RwLock` rather than a `Mutex` so that every
//! *legal* `RefCell` pattern keeps working — in particular two shared
//! `borrow()`s alive in one expression (`cell.borrow().a + cell.borrow().b`),
//! which a mutex would self-deadlock on. Patterns `RefCell` panics on (a
//! `borrow_mut` overlapping any other borrow on one thread) deadlock here
//! instead; such code cannot exist in a previously passing test suite.
//!
//! Like `RefCell`, a `SyncCell` is *not* a synchronization strategy — it is
//! an interior-mutability primitive. The simulator traces every block on
//! the thread that owns its [`crate::Gpu`], in block order, so it never
//! contends for the lock itself; host worker threads only align traces.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A `Send + Sync` cell wrapping an [`RwLock`], with `RefCell`/`Cell`-style
/// methods.
///
/// Concurrent shared `borrow()`s — from one thread or many — proceed in
/// parallel, exactly like `RefCell`'s shared borrows. Overlapping
/// `borrow_mut()` calls from *different* threads block instead of panicking;
/// a `borrow_mut` overlapping another borrow on the *same* thread deadlocks,
/// exactly the shapes `RefCell` would have panicked on.
///
/// ```
/// use npar_sim::SyncCell;
///
/// let hits = SyncCell::new(0u32);
/// hits.set(hits.get() + 1);
/// *hits.borrow_mut() += 1;
/// assert_eq!(*hits.borrow(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SyncCell<T>(RwLock<T>);

impl<T> SyncCell<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        SyncCell(RwLock::new(value))
    }

    /// Take the read lock and return a shared view of the value
    /// (`RefCell::borrow`). Multiple shared borrows may be alive at once.
    pub fn borrow(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Take the write lock and return a mutable view of the value
    /// (`RefCell::borrow_mut`).
    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, T> {
        self.write()
    }

    /// Replace the value, returning the old one.
    pub fn replace(&self, value: T) -> T {
        std::mem::replace(&mut *self.write(), value)
    }

    /// Swap the contents of two cells (`RefCell::swap`). Locks in address
    /// order so two threads swapping the same pair with the arguments
    /// reversed cannot deadlock.
    pub fn swap(&self, other: &SyncCell<T>) {
        if std::ptr::eq(self, other) {
            return;
        }
        let (a, b) = if (self as *const Self) < (other as *const Self) {
            (self, other)
        } else {
            (other, self)
        };
        let mut ga = a.write();
        let mut gb = b.write();
        std::mem::swap(&mut *ga, &mut *gb);
    }

    /// Consume the cell and return the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, T> {
        // A panic while the lock was held (a kernel panicking mid-borrow)
        // is reported where it happened; the poison flag adds nothing.
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Copy> SyncCell<T> {
    /// Copy the value out (`Cell::get`).
    pub fn get(&self) -> T {
        *self.borrow()
    }
}

impl<T> SyncCell<T> {
    /// Store a new value (`Cell::set`).
    pub fn set(&self, value: T) {
        *self.write() = value;
    }
}

impl<T: Default> SyncCell<T> {
    /// Take the value, leaving `T::default()` behind (`Cell::take`).
    pub fn take(&self) -> T {
        std::mem::take(&mut *self.write())
    }
}

impl<T: Clone> Clone for SyncCell<T> {
    fn clone(&self) -> Self {
        SyncCell::new(self.borrow().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cell_style_get_set() {
        let c = SyncCell::new(7u32);
        assert_eq!(c.get(), 7);
        c.set(9);
        assert_eq!(c.get(), 9);
        assert_eq!(c.replace(11), 9);
        assert_eq!(c.take(), 11);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn refcell_style_borrows() {
        let c = SyncCell::new(vec![1u32, 2]);
        c.borrow_mut().push(3);
        assert_eq!(c.borrow().len(), 3);
        assert_eq!(c.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn overlapping_shared_borrows_do_not_deadlock() {
        struct Pair {
            a: u32,
            b: u32,
        }
        let c = SyncCell::new(Pair { a: 3, b: 4 });
        // Two read guards alive in one expression — legal for RefCell, and
        // must stay legal here (the migration guarantee).
        assert_eq!(c.borrow().a + c.borrow().b, 7);
        let (x, y) = (c.borrow(), c.borrow());
        assert_eq!(x.a, 3);
        assert_eq!(y.b, 4);
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(SyncCell::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let v = *c.borrow();
                    *c.borrow_mut() = v + 1;
                    c.set(c.get()); // exercise the Copy path too
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.get() >= 100); // racy increments, but data-race-free
    }
}
