//! Workspace sync primitives with an optional runtime lock witness.
//!
//! Every concurrency-bearing crate imports `Mutex`/`RwLock`/`Condvar`
//! from here instead of `parking_lot` directly. Without the
//! `lock_witness` feature this module is a plain re-export — zero cost,
//! identical types. With the feature, the primitives are wrapped with
//! `#[track_caller]` instrumentation that records, to the file named by
//! the `JIT_LOCK_WITNESS` environment variable, what the test run
//! *actually did*.
//!
//! Each lock belongs to a **class**: the `file:line` that built it
//! (`new`, or `Default::default`). Every instance built on one line —
//! the stripes of a store, the `state` of every communicator — is one
//! class, as in Linux's lockdep. The records, one per line:
//!
//! * `edge <held class> <class> <held site> <site>` — a lock of `class`
//!   acquired at `site` while this thread held a lock of `held class`,
//!   acquired at `held site` (an observed lock-order edge; a condvar
//!   wait's re-acquisition counts as an acquisition);
//! * `notify <site> held|unheld` — a condvar notify and whether any
//!   mutex was held at that moment (the lost-wakeup tell).
//!
//! `jitlint --witness <file>` fails on a cycle in the union of every
//! test process's class edges, on a class nested in itself without an
//! allow at the inner acquisition, and on a class built outside the
//! workspace. Records are deduplicated per process, so the file stays
//! small no matter how hot the locks are.

#[cfg(not(feature = "lock_witness"))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(feature = "lock_witness")]
pub use parking_lot::WaitTimeoutResult;
#[cfg(feature = "lock_witness")]
pub use witness::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "lock_witness")]
mod witness {
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::fmt;
    use std::io::Write as _;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::time::Duration;

    use super::WaitTimeoutResult;

    type Loc = &'static Location<'static>;

    /// One acquisition: the lock's class (the line that built it), the
    /// site that acquired it, and whether it is a mutex.
    #[derive(Clone, Copy, PartialEq)]
    struct Held {
        class: Loc,
        site: Loc,
        mutex: bool,
    }

    thread_local! {
        /// The acquisitions this thread holds, oldest first.
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    fn at(loc: Loc) -> String {
        format!("{}:{}", loc.file(), loc.line())
    }

    /// Appends one record line, once per distinct line per process.
    /// Silently a no-op when `JIT_LOCK_WITNESS` is unset.
    fn record(line: &str) {
        use std::sync::{Mutex as StdMutex, OnceLock};
        type Sink = Option<StdMutex<(HashSet<String>, std::fs::File)>>;
        static SINK: OnceLock<Sink> = OnceLock::new();
        let sink = SINK.get_or_init(|| {
            let path = std::env::var("JIT_LOCK_WITNESS").ok()?;
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .ok()?;
            Some(StdMutex::new((HashSet::new(), file)))
        });
        let Some(sink) = sink else { return };
        let mut g = sink.lock().unwrap_or_else(|e| e.into_inner());
        if g.0.insert(line.to_string()) {
            let (_, file) = &mut *g;
            let _ = writeln!(file, "{line}");
        }
    }

    /// Records an edge from every acquisition this thread holds to `acq`,
    /// then pushes it.
    fn on_acquire(acq: Held) -> Held {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            for held in h.iter() {
                let (c0, c1) = (at(held.class), at(acq.class));
                record(&format!(
                    "edge {c0} {c1} {} {}",
                    at(held.site),
                    at(acq.site)
                ));
            }
            h.push(acq);
        });
        acq
    }

    /// An acquisition of a lock of `class` by the caller's caller.
    #[track_caller]
    fn acquired(class: Loc, mutex: bool) -> Held {
        let site = Location::caller();
        on_acquire(Held { class, site, mutex })
    }

    /// Pops the most recent entry for `acq` (guards may drop out of
    /// acquisition order).
    fn on_release(acq: Held) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|held| *held == acq) {
                h.remove(pos);
            }
        });
    }

    /// A guard over `parking_lot`'s guard that releases its witness entry
    /// on drop.
    macro_rules! guard {
        ($(#[$doc:meta] $name:ident)*) => {$(
            #[$doc]
            pub struct $name<'a, T: ?Sized> {
                acq: Held,
                inner: parking_lot::$name<'a, T>,
            }

            impl<T: ?Sized> Drop for $name<'_, T> {
                fn drop(&mut self) {
                    on_release(self.acq);
                }
            }

            impl<T: ?Sized> Deref for $name<'_, T> {
                type Target = T;
                fn deref(&self) -> &T {
                    &self.inner
                }
            }
        )*};
    }
    guard! {
        /// Instrumented mutex guard.
        MutexGuard
        /// Instrumented shared guard.
        RwLockReadGuard
        /// Instrumented exclusive guard.
        RwLockWriteGuard
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// A `parking_lot::Mutex` that reports acquisitions to the witness.
    pub struct Mutex<T: ?Sized> {
        pub(super) class: Loc,
        inner: parking_lot::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates the mutex; the caller's line is its class.
        #[track_caller]
        pub const fn new(value: T) -> Self {
            Mutex {
                class: Location::caller(),
                inner: parking_lot::Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the mutex, recording an order edge from every lock
        /// this thread already holds.
        #[track_caller]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let inner = self.inner.lock();
            let acq = acquired(self.class, true);
            MutexGuard { acq, inner }
        }

        /// Tries to acquire without blocking.
        #[track_caller]
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            let inner = self.inner.try_lock()?;
            let acq = acquired(self.class, true);
            Some(MutexGuard { acq, inner })
        }

        /// Mutable access without locking (requires `&mut self`).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        #[track_caller]
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// A `parking_lot::RwLock` that reports acquisitions to the witness.
    pub struct RwLock<T: ?Sized> {
        class: Loc,
        inner: parking_lot::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// Creates the lock; the caller's line is its class.
        #[track_caller]
        pub const fn new(value: T) -> Self {
            RwLock {
                class: Location::caller(),
                inner: parking_lot::RwLock::new(value),
            }
        }

        /// Consumes the lock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires shared access.
        #[track_caller]
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let inner = self.inner.read();
            let acq = acquired(self.class, false);
            RwLockReadGuard { acq, inner }
        }

        /// Acquires exclusive access.
        #[track_caller]
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let inner = self.inner.write();
            let acq = acquired(self.class, false);
            RwLockWriteGuard { acq, inner }
        }

        /// Mutable access without locking (requires `&mut self`).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for RwLock<T> {
        #[track_caller]
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// A `parking_lot::Condvar` that reports notifies.
    pub struct Condvar {
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        /// Creates the condvar.
        pub const fn new() -> Self {
            Condvar {
                inner: parking_lot::Condvar::new(),
            }
        }

        /// Parks until notified. The guard's witness entry is suspended
        /// for the park (the wait releases its lock) and re-registered —
        /// with fresh order edges — on re-acquisition.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            on_release(guard.acq);
            self.inner.wait(&mut guard.inner);
            on_acquire(guard.acq);
        }

        /// Parks until notified or `timeout` elapses.
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            on_release(guard.acq);
            let result = self.inner.wait_for(&mut guard.inner, timeout);
            on_acquire(guard.acq);
            result
        }

        /// Wakes one waiter, recording whether a mutex was held.
        #[track_caller]
        pub fn notify_one(&self) {
            note_notify(Location::caller());
            self.inner.notify_one();
        }

        /// Wakes every waiter, recording whether a mutex was held.
        #[track_caller]
        pub fn notify_all(&self) {
            note_notify(Location::caller());
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("Condvar { .. }")
        }
    }

    fn note_notify(site: Loc) {
        let held = HELD.with(|h| h.borrow().iter().any(|held| held.mutex));
        let state = if held { "held" } else { "unheld" };
        record(&format!("notify {} {state}", at(site)));
    }
}

#[cfg(all(test, feature = "lock_witness"))]
mod tests {
    use super::{Condvar, Mutex};
    use std::sync::Arc;

    #[test]
    fn guards_nest_and_release() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        drop(ga);
        drop(gb);
        let ga = a.lock();
        assert_eq!(*ga, 1);
    }

    #[test]
    fn locks_built_on_two_lines_get_two_classes() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        let twins: Vec<Mutex<u8>> = (0..2).map(|_| Mutex::new(0)).collect();
        assert_ne!(a.class, b.class);
        assert_eq!(a.class.line() + 1, b.class.line());
        assert_eq!(a.class.file(), file!());
        assert_eq!(twins[0].class, twins[1].class);
    }

    #[test]
    fn condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            *ready = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        drop(ready);
        h.join().map_err(|_| "worker panicked").expect("join");
    }
}
