//! A counting gate: at most N holders at once.
//!
//! [`WorkerPool`](crate::WorkerPool) bounds a *queue* of jobs for a fixed
//! set of long-lived workers. Some concurrency is better bounded without
//! a queue: proxy connections to one shard (each caller holds a
//! [`Permit`] for one exchange), and a server's read stage, where every
//! accepted connection gets a short-lived thread of its own
//! ([`Spawner::spawn`]) until its request is read. Either way, a caller
//! that finds every permit taken blocks until one is released
//! (backpressure).
//!
//! ```
//! use pv_runtime::Gate;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let gate = Gate::new(2);
//! let done = AtomicUsize::new(0);
//! gate.scope(|spawner| {
//!     for _ in 0..5 {
//!         // At most 2 of these threads run at once.
//!         spawner
//!             .spawn("task", || {
//!                 done.fetch_add(1, Ordering::Relaxed);
//!             })
//!             .unwrap();
//!     }
//! }); // every spawned thread is joined here
//! assert_eq!(done.load(Ordering::Relaxed), 5);
//! ```

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// A counting semaphore. A poisoned lock is recovered: the guarded
/// state is one counter, valid after any interrupted update.
#[derive(Debug)]
pub struct Gate {
    free: Mutex<usize>,
    /// Signalled when a permit is given back.
    released: Condvar,
}

impl Gate {
    /// A gate with `permits` permits (clamped to at least 1).
    #[must_use]
    pub fn new(permits: usize) -> Self {
        Self {
            free: Mutex::new(permits.max(1)),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, usize> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a permit, blocking while none is free; dropping the
    /// [`Permit`] gives it back.
    pub fn acquire(&self) -> Permit<'_> {
        let mut free = self.lock();
        while *free == 0 {
            free = self
                .released
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        Permit { gate: self }
    }

    /// Runs `body` with a [`Spawner`] whose threads each hold one of
    /// this gate's permits, and returns once `body` has returned and
    /// every spawned thread has been joined. Spawned threads may borrow
    /// anything that outlives the call, like [`std::thread::scope`]'s.
    ///
    /// # Panics
    ///
    /// Panics, after joining every spawned thread, if one of them
    /// panicked.
    pub fn scope<'env, T>(
        &'env self,
        body: impl for<'scope> FnOnce(&Spawner<'scope, 'env>) -> T,
    ) -> T {
        std::thread::scope(|scope| body(&Spawner { scope, gate: self }))
    }
}

/// One permit of a [`Gate`], given back on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.gate.lock() += 1;
        self.gate.released.notify_one();
    }
}

/// Spawns permit-holding threads inside a [`Gate::scope`].
pub struct Spawner<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    gate: &'env Gate,
}

impl<'scope> Spawner<'scope, '_> {
    /// Runs `job` on a new thread named `name`, blocking while every
    /// permit is taken. The thread holds its permit until `job` and
    /// everything it captured have been dropped.
    ///
    /// # Errors
    ///
    /// The thread could not be spawned; the permit is given back and
    /// `job` is dropped without running.
    pub fn spawn<F>(&self, name: &str, job: F) -> std::io::Result<()>
    where
        F: FnOnce() + Send + 'scope,
    {
        let permit = self.gate.acquire();
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn_scoped(self.scope, move || {
                let _permit = permit;
                job();
            })
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn gate_bounds_concurrency_and_releases_on_drop() {
        let gate = Gate::new(2);
        let a = gate.acquire();
        let b = gate.acquire();
        assert_eq!(*gate.lock(), 0);
        drop(a);
        assert_eq!(*gate.lock(), 1);
        drop(b);
        assert_eq!(*gate.lock(), 2);
    }

    #[test]
    fn zero_permit_gate_is_clamped_to_one() {
        let gate = Gate::new(0);
        let permit = gate.acquire();
        drop(permit);
        assert_eq!(*gate.lock(), 1);
    }

    #[test]
    fn spawned_jobs_never_exceed_the_permits_and_are_all_joined() {
        let gate = Gate::new(3);
        let (running, peak, done) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        gate.scope(|spawner| {
            for _ in 0..24 {
                spawner
                    .spawn("gate-test", || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        running.fetch_sub(1, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap();
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 24, "scope joined every job");
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
        assert_eq!(*gate.lock(), 3);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_spawned_jobs_panic_reaches_the_scope() {
        let _ = Gate::new(1).scope(|spawner| spawner.spawn("gate-panic", || panic!("job failed")));
    }
}
