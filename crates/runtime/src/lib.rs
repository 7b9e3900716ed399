//! Deterministic chunked parallel execution on std scoped threads.
//!
//! Every hot loop in the workspace (shadow casting, energy integration,
//! exhaustive search) is shaped the same way: map a function over a dense
//! index range and combine the results. This crate runs that shape on a
//! configurable number of threads while keeping the output **bit-identical
//! to a sequential run**, preserving the workspace-wide determinism
//! guarantee (DESIGN.md):
//!
//! - chunk boundaries are a pure function of the range length and the
//!   caller's granularity — never of the thread count;
//! - each chunk is computed exactly as a sequential loop over the chunk
//!   would compute it;
//! - chunk results are merged in ascending chunk order, so any reduction
//!   folds partial results in one fixed order.
//!
//! Threads only change *which worker* computes a chunk, never *what* is
//! computed or *in which order* results are combined.
//!
//! The thread count comes from [`Runtime::with_threads`] or the
//! `PV_THREADS` environment variable (see [`Runtime::from_env`]); it
//! defaults to the machine's available parallelism.
//!
//! ```
//! use pv_runtime::Runtime;
//! let sums: Vec<u64> = Runtime::with_threads(4)
//!     .map_chunks(10, 3, |r| r.map(|i| i as u64).sum());
//! assert_eq!(sums, vec![0 + 1 + 2, 3 + 4 + 5, 6 + 7 + 8, 9]);
//! // Identical chunking and order on any thread count:
//! assert_eq!(sums, Runtime::sequential().map_chunks(10, 3, |r| r.map(|i| i as u64).sum()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod pool;
pub mod proc;

pub use gate::{Gate, Permit, Spawner};
pub use pool::WorkerPool;
pub use proc::{ChildSpec, Supervisor};

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "PV_THREADS";

/// A deterministic parallel executor with a fixed thread count.
///
/// Cheap to copy; carries no thread pool — workers are scoped threads
/// spawned per call and joined before the call returns, so borrowed data
/// flows into the mapped closure without `'static` bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Runtime {
    /// An executor running everything inline on the calling thread.
    #[must_use]
    pub const fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// An executor using `threads` workers (clamped to at least 1).
    #[must_use]
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            threads: if threads == 0 { 1 } else { threads },
        }
    }

    /// An executor configured from the environment: the `PV_THREADS`
    /// variable when set to a positive integer, otherwise the machine's
    /// available parallelism (1 when that cannot be determined).
    #[must_use]
    pub fn from_env() -> Self {
        let fallback = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| parse_threads(&v))
            .unwrap_or_else(fallback);
        Self::with_threads(threads)
    }

    /// The configured worker count.
    #[inline]
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..len` in chunks of `granularity` indices and
    /// returns the per-chunk results in ascending chunk order.
    ///
    /// The chunk layout (`ceil(len / granularity)` chunks, the last one
    /// possibly short) depends only on `len` and `granularity`, so the
    /// returned vector is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero, or if a worker thread panics
    /// (the panic is propagated).
    pub fn map_chunks<T, F>(&self, len: usize, granularity: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        assert!(granularity > 0, "chunk granularity must be positive");
        let num_chunks = len.div_ceil(granularity);
        let bounds = |c: usize| c * granularity..((c + 1) * granularity).min(len);

        let workers = self.threads.min(num_chunks);
        if workers <= 1 {
            return (0..num_chunks).map(|c| f(bounds(c))).collect();
        }

        // Work-stealing over an atomic chunk counter: workers race for
        // chunks, but every chunk's *content* and the final merge order are
        // fixed, so scheduling nondeterminism never reaches the result.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(num_chunks);
        slots.resize_with(num_chunks, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= num_chunks {
                                break;
                            }
                            local.push((c, f(bounds(c))));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(results) => {
                        for (c, value) in results {
                            slots[c] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every chunk is claimed exactly once"))
            .collect()
    }

    /// Runs `f` over `data` split into consecutive chunks of `granularity`
    /// elements (the last chunk possibly short), in place and possibly in
    /// parallel; `f` receives the chunk index and the mutable chunk slice.
    ///
    /// The chunk layout depends only on `data.len()` and `granularity`, and
    /// every chunk is written by exactly one call of `f`, so the final
    /// contents of `data` are identical for every thread count — this is
    /// the *fill* counterpart of [`map_chunks`](Self::map_chunks), for hot
    /// paths that build large buffers (e.g. per-module trace caches)
    /// without a per-chunk allocation. Chunks are statically distributed
    /// round-robin over the workers.
    ///
    /// ```
    /// use pv_runtime::Runtime;
    /// let mut data = vec![0u32; 7];
    /// Runtime::with_threads(3).for_each_chunk_mut(&mut data, 3, |chunk_idx, chunk| {
    ///     for (off, x) in chunk.iter_mut().enumerate() {
    ///         *x = (chunk_idx * 10 + off) as u32;
    ///     }
    /// });
    /// // Chunk layout depends only on (len, granularity), never threads.
    /// assert_eq!(data, [0, 1, 2, 10, 11, 12, 20]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero, or if a worker thread panics
    /// (the panic is propagated).
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], granularity: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(granularity > 0, "chunk granularity must be positive");
        let num_chunks = data.len().div_ceil(granularity);
        let workers = self.threads.min(num_chunks);
        if workers <= 1 {
            for (c, chunk) in data.chunks_mut(granularity).enumerate() {
                f(c, chunk);
            }
            return;
        }

        let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
        for (c, chunk) in data.chunks_mut(granularity).enumerate() {
            buckets[c % workers].push((c, chunk));
        }
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move || {
                        for (c, chunk) in bucket {
                            f(c, chunk);
                        }
                    })
                })
                .collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Maps `f` over `0..len` in chunks (as [`map_chunks`](Self::map_chunks))
    /// and folds the chunk results **in ascending chunk order** with
    /// `fold`, starting from `init`.
    ///
    /// Because the fold order is fixed, non-associative reductions (e.g.
    /// floating-point sums) give bit-identical results on any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero, or if a worker thread panics.
    pub fn reduce_chunks<T, A, F, G>(
        &self,
        len: usize,
        granularity: usize,
        f: F,
        init: A,
        fold: G,
    ) -> A
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
        G: FnMut(A, T) -> A,
    {
        self.map_chunks(len, granularity, f)
            .into_iter()
            .fold(init, fold)
    }
}

impl Default for Runtime {
    /// Defaults to [`Runtime::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// Parses a `PV_THREADS`-style value: a positive integer, or `None` for
/// anything unusable (empty, zero, garbage) so callers fall back cleanly.
#[must_use]
pub fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_is_thread_count_independent() {
        for len in [0usize, 1, 7, 64, 1000] {
            for granularity in [1usize, 3, 64, 2048] {
                let expected: Vec<(usize, usize)> =
                    Runtime::sequential().map_chunks(len, granularity, |r| (r.start, r.end));
                for threads in [2usize, 3, 8] {
                    let got = Runtime::with_threads(threads)
                        .map_chunks(len, granularity, |r| (r.start, r.end));
                    assert_eq!(got, expected, "len {len} granularity {granularity}");
                }
            }
        }
    }

    #[test]
    fn ordered_fold_is_bit_identical_across_thread_counts() {
        // A sum of varied-magnitude floats is order-sensitive; identical
        // chunking + ordered merge must make it bit-stable.
        let terms: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_u64 as usize) % 997) as f64 * 1e-3 + 1e6 / (i + 1) as f64)
            .collect();
        let sum = |rt: Runtime| {
            rt.reduce_chunks(
                terms.len(),
                128,
                |r| r.map(|i| terms[i]).sum::<f64>(),
                0.0f64,
                |acc, part| acc + part,
            )
        };
        let seq = sum(Runtime::sequential());
        for threads in [2usize, 4, 16] {
            assert_eq!(sum(Runtime::with_threads(threads)).to_bits(), seq.to_bits());
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_oversized_granularity() {
        let rt = Runtime::with_threads(4);
        assert!(rt.map_chunks(0, 10, |_| 1u8).is_empty());
        assert_eq!(rt.map_chunks(3, 100, |r| r.len()), vec![3]);
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_rejected() {
        let _ = Runtime::sequential().map_chunks(5, 0, |_| ());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = Runtime::with_threads(2).map_chunks(8, 1, |r| {
            assert!(r.start != 5, "boom");
            r.start
        });
    }

    #[test]
    fn zero_threads_clamped() {
        assert_eq!(Runtime::with_threads(0).threads(), 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads("-2"), None);
    }

    #[test]
    fn for_each_chunk_mut_fills_every_chunk_identically() {
        for len in [0usize, 1, 5, 64, 1000] {
            for granularity in [1usize, 3, 64, 2048] {
                let mut expected = vec![0u64; len];
                Runtime::sequential().for_each_chunk_mut(&mut expected, granularity, |c, chunk| {
                    for (off, x) in chunk.iter_mut().enumerate() {
                        *x = (c * 1000 + off) as u64;
                    }
                });
                for threads in [2usize, 3, 8] {
                    let mut got = vec![0u64; len];
                    Runtime::with_threads(threads).for_each_chunk_mut(
                        &mut got,
                        granularity,
                        |c, chunk| {
                            for (off, x) in chunk.iter_mut().enumerate() {
                                *x = (c * 1000 + off) as u64;
                            }
                        },
                    );
                    assert_eq!(got, expected, "len {len} granularity {granularity}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn for_each_chunk_mut_zero_granularity_rejected() {
        Runtime::sequential().for_each_chunk_mut(&mut [0u8; 4], 0, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "chunk boom")]
    fn for_each_chunk_mut_worker_panic_propagates() {
        let mut data = vec![0u8; 8];
        Runtime::with_threads(2).for_each_chunk_mut(&mut data, 1, |c, _| {
            assert!(c != 5, "chunk boom");
        });
    }

    #[test]
    fn closure_borrows_environment() {
        let data = [10u32, 20, 30, 40, 50];
        let out =
            Runtime::with_threads(3).map_chunks(data.len(), 2, |r| r.map(|i| data[i]).sum::<u32>());
        assert_eq!(out, vec![30, 70, 50]);
    }
}
