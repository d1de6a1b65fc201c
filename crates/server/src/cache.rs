//! Keyed, size-bounded LRU cache of compiled plans.
//!
//! The whole point of service mode: Parse/Place/Compile run once per
//! [`PlanKey`], and every later request for that key
//! goes straight to execution. The cache is bounded (least-recently
//! used entry evicted at capacity) so a key-scanning client cannot
//! grow the resident set without limit.

use crate::protocol::PlanKey;
use crate::{BatchRunner, PlanSource};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Cache statistics (monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a new plan.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

struct Inner {
    /// LRU order: most recently used last.
    entries: Vec<(PlanKey, Arc<dyn BatchRunner>)>,
    /// Keys with a compile in flight; lookups for these wait on
    /// [`PlanCache::done`] instead of compiling a duplicate.
    in_flight: Vec<PlanKey>,
    stats: CacheStats,
}

/// A bounded, thread-safe plan cache over a [`PlanSource`].
pub struct PlanCache {
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight compile settles.
    done: Condvar,
    capacity: usize,
}

/// Clears `key`'s in-flight marker and wakes waiters on every exit
/// path of the compile — success, error, or a panicking source (a
/// leaked marker would park later lookups for the key forever).
struct InFlightGuard<'a> {
    cache: &'a PlanCache,
    key: &'a PlanKey,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock();
        if let Some(pos) = inner.in_flight.iter().position(|k| k == self.key) {
            inner.in_flight.swap_remove(pos);
        }
        drop(inner);
        self.cache.done.notify_all();
    }
}

/// Hand the allocator's free pages back to the OS. A compile frees
/// hundreds of KB of IR, placement and programming scratch that stay
/// resident in the compiling thread's arena; a process that goes on to
/// serve for days should not carry them. glibc only (`malloc_trim`
/// walks every arena under the allocator's own locks, tens of
/// microseconds here against a compile's milliseconds); other
/// allocators are left to their own policy.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_compile_scratch() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes an integer and changes nothing a live
    // allocation can observe.
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_compile_scratch() {}

impl PlanCache {
    /// Cache holding at most `capacity` compiled plans (min 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                in_flight: Vec::new(),
                stats: CacheStats::default(),
            }),
            done: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The cache's state. No section holding the lock runs the compile
    /// or anything else that can panic short of the allocator, and each
    /// leaves the state whole, so a lock a panicking thread poisoned
    /// still guards a sound cache.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch the plan for `key`, compiling through `source` on a miss.
    /// Returns the runner and whether it was a cache hit.
    ///
    /// Concurrent requests for the same cold key compile exactly once:
    /// the first thread marks the key in flight and compiles *outside*
    /// the cache lock (lookups and compiles for other keys proceed);
    /// the others wait and are served the winner's plan as hits, so
    /// the reported hit rate stays honest — one miss per cold key, not
    /// one per waiter. If the winning compile fails, one waiter at a
    /// time retries as the new winner.
    ///
    /// # Errors
    /// Propagates the source's compile error (nothing is cached).
    pub fn get_or_compile(
        &self,
        key: &PlanKey,
        source: &dyn PlanSource,
    ) -> Result<(Arc<dyn BatchRunner>, bool), String> {
        let mut inner = self.lock();
        loop {
            if let Some(pos) = inner.entries.iter().position(|(k, _)| k == key) {
                let entry = inner.entries.remove(pos);
                let runner = Arc::clone(&entry.1);
                inner.entries.push(entry);
                inner.stats.hits += 1;
                return Ok((runner, true));
            }
            if inner.in_flight.iter().any(|k| k == key) {
                inner = self
                    .done
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            inner.in_flight.push(key.clone());
            break;
        }
        drop(inner);
        let _guard = InFlightGuard { cache: self, key };
        let compiled = source.compile(key);
        release_compile_scratch();
        let runner = compiled?;
        let mut inner = self.lock();
        inner.entries.push((key.clone(), Arc::clone(&runner)));
        inner.stats.misses += 1;
        if inner.entries.len() > self.capacity {
            inner.entries.remove(0);
            inner.stats.evictions += 1;
        }
        Ok((runner, false))
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// The cached keys, least recently used first.
    pub fn keys(&self) -> Vec<PlanKey> {
        self.lock().entries.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowsOutcome;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    struct StubRunner;

    impl BatchRunner for StubRunner {
        fn capacity(&self) -> usize {
            8
        }
        fn pool_size(&self) -> usize {
            64
        }
        fn run_rows(&self, rows: &[usize]) -> Result<RowsOutcome, String> {
            Ok(RowsOutcome {
                predictions: rows.to_vec(),
                classes: rows.to_vec(),
                sim_latency_ns_per_query: 1.0,
                sim_energy_pj_per_query: 1.0,
            })
        }
    }

    struct CountingSource {
        compiles: AtomicUsize,
        fail_backend: &'static str,
    }

    impl PlanSource for CountingSource {
        fn default_key(&self) -> PlanKey {
            key("tape")
        }
        fn compile(&self, key: &PlanKey) -> Result<Arc<dyn BatchRunner>, String> {
            if key.backend == self.fail_backend {
                return Err(format!("unknown backend '{}'", key.backend));
            }
            self.compiles.fetch_add(1, Ordering::SeqCst);
            Ok(Arc::new(StubRunner))
        }
    }

    fn key(backend: &str) -> PlanKey {
        PlanKey {
            task: "hdc".into(),
            bits: 2,
            subarray: 32,
            backend: backend.into(),
        }
    }

    fn source() -> CountingSource {
        CountingSource {
            compiles: AtomicUsize::new(0),
            fail_backend: "jit",
        }
    }

    #[test]
    fn second_lookup_is_a_hit_and_compiles_once() {
        let cache = PlanCache::new(4);
        let src = source();
        let (_, hit) = cache.get_or_compile(&key("tape"), &src).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compile(&key("tape"), &src).unwrap();
        assert!(hit);
        assert_eq!(src.compiles.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_eviction_drops_the_coldest_key() {
        let cache = PlanCache::new(2);
        let src = source();
        cache.get_or_compile(&key("tape"), &src).unwrap();
        cache.get_or_compile(&key("cold"), &src).unwrap();
        // Touch "tape" so "cold" is now the LRU entry.
        cache.get_or_compile(&key("tape"), &src).unwrap();
        cache.get_or_compile(&key("walk"), &src).unwrap();
        let keys: Vec<String> = cache.keys().iter().map(|k| k.backend.clone()).collect();
        assert_eq!(keys, ["tape", "walk"], "cold evicted as LRU");
        assert_eq!(cache.stats().evictions, 1);
        // Re-requesting the evicted key recompiles.
        let (_, hit) = cache.get_or_compile(&key("cold"), &src).unwrap();
        assert!(!hit);
        assert_eq!(src.compiles.load(Ordering::SeqCst), 4);
    }

    /// A source whose compile rendezvouses on `enter` when it starts
    /// and blocks on `exit` before returning, so tests can overlap
    /// other cache operations with a compile that is provably in
    /// flight.
    struct GatedSource {
        compiles: AtomicUsize,
        enter: Barrier,
        exit: Barrier,
    }

    impl PlanSource for GatedSource {
        fn default_key(&self) -> PlanKey {
            key("tape")
        }
        fn compile(&self, _key: &PlanKey) -> Result<Arc<dyn BatchRunner>, String> {
            self.compiles.fetch_add(1, Ordering::SeqCst);
            self.enter.wait();
            self.exit.wait();
            Ok(Arc::new(StubRunner))
        }
    }

    #[test]
    fn racing_cold_key_records_exactly_one_miss_and_compile() {
        let cache = Arc::new(PlanCache::new(4));
        let src = Arc::new(GatedSource {
            compiles: AtomicUsize::new(0),
            enter: Barrier::new(2),
            exit: Barrier::new(2),
        });
        let winner = {
            let (cache, src) = (Arc::clone(&cache), Arc::clone(&src));
            std::thread::spawn(move || cache.get_or_compile(&key("tape"), &*src).unwrap())
        };
        // The winner's compile has started (and is parked on `exit`),
        // so this second lookup for the same cold key must coalesce
        // onto it instead of compiling again.
        src.enter.wait();
        let waiter = {
            let (cache, src) = (Arc::clone(&cache), Arc::clone(&src));
            std::thread::spawn(move || cache.get_or_compile(&key("tape"), &*src).unwrap())
        };
        src.exit.wait();
        let (_, winner_hit) = winner.join().unwrap();
        let (_, waiter_hit) = waiter.join().unwrap();
        assert!(!winner_hit, "the compiling thread reports a miss");
        assert!(waiter_hit, "the coalesced thread is served a hit");
        assert_eq!(src.compiles.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn cold_compile_does_not_serialize_other_keys() {
        let cache = Arc::new(PlanCache::new(4));
        let fast = source();
        cache.get_or_compile(&key("walk"), &fast).unwrap();
        let src = Arc::new(GatedSource {
            compiles: AtomicUsize::new(0),
            enter: Barrier::new(2),
            exit: Barrier::new(2),
        });
        let slow = {
            let (cache, src) = (Arc::clone(&cache), Arc::clone(&src));
            std::thread::spawn(move || cache.get_or_compile(&key("tape"), &*src).unwrap())
        };
        src.enter.wait();
        // "tape" is mid-compile and will not finish until we release
        // `exit` below; a hot lookup for a different key must still
        // complete. Under compile-under-the-lock this deadlocks.
        let (_, hit) = cache.get_or_compile(&key("walk"), &fast).unwrap();
        assert!(hit);
        src.exit.wait();
        slow.join().unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn compile_failures_are_not_cached() {
        let cache = PlanCache::new(2);
        let src = source();
        let e = match cache.get_or_compile(&key("jit"), &src) {
            Err(e) => e,
            Ok(_) => panic!("expected compile failure"),
        };
        assert!(e.contains("jit"), "{e}");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 0);
    }
}
