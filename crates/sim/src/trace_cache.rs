//! Cross-scenario sharing of solved thermal traces.
//!
//! A sweep grid multiplies scenario samples along axes that do not all feed
//! the radiator model: every fault profile of a (module count, seed, drive)
//! coordinate replays *bit-identical* thermal inputs, yet each sample used
//! to run its own full ε-NTU solve.  [`TraceCache`] deduplicates that work:
//! scenarios attached to the same cache share one [`ThermalTrace`] per
//! distinct set of thermal inputs, keyed **by value** — drive cycle,
//! radiator, placement, step and the module parameters behind the trace's
//! `P_ideal` column — so two scenarios share a trace only when every input
//! that flows into the solve compares equal.  There is no lossy hashing on
//! the sharing decision (a 64-bit fingerprint only pre-filters candidates;
//! full equality always confirms), which keeps the cache inside the
//! repository's bit-exactness discipline: a cached trace is the same value a
//! fresh solve would produce, down to the last bit.
//!
//! The cache is `Arc`-shared and cheap to clone; a grid attaches one to
//! every sample it builds, and long-lived callers can thread one cache
//! through many grids ([`GridSpec::to_grid_with_cache`]) to share traces
//! across sweeps.
//!
//! [`GridSpec::to_grid_with_cache`]: crate::GridSpec::to_grid_with_cache

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use teg_device::TegModule;
use teg_thermal::{DriveCycle, Radiator, SShapedPlacement};
use teg_units::Seconds;

use crate::error::SimError;
use crate::scenario::Scenario;
use crate::thermal_trace::ThermalTrace;

/// Everything [`ThermalTrace::solve`] reads from a scenario, captured by
/// value.  Two scenarios with equal keys solve to bit-identical traces, so
/// they may share one.
///
/// Equality is exact structural equality of the inputs (IEEE bit semantics
/// through `f64::eq`: a NaN anywhere simply never matches, degrading to a
/// private solve rather than a wrong share).  The precomputed fingerprint is
/// a fast reject only — full equality is always confirmed before sharing.
pub(crate) struct ThermalKey {
    fingerprint: u64,
    step: Seconds,
    placement: SShapedPlacement,
    drive: DriveCycle,
    radiator: Radiator,
    modules: Vec<TegModule>,
}

impl ThermalKey {
    /// Captures the thermal inputs of a scenario.
    pub(crate) fn of(scenario: &Scenario) -> Self {
        let drive = scenario.drive_cycle().clone();
        let step = scenario.step();
        let placement = *scenario.placement();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a offset basis
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                fingerprint = (fingerprint ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(placement.module_count() as u64);
        mix(step.value().to_bits());
        mix(drive.len() as u64);
        for sample in drive.iter() {
            mix(sample.coolant().inlet_temperature().value().to_bits());
            mix(sample.coolant().mass_flow().to_bits());
            mix(sample.ambient().temperature().value().to_bits());
            mix(sample.ambient().mass_flow().to_bits());
        }
        Self {
            fingerprint,
            step,
            placement,
            drive,
            radiator: scenario.radiator().clone(),
            modules: scenario.array().modules().to_vec(),
        }
    }
}

impl PartialEq for ThermalKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.step == other.step
            && self.placement == other.placement
            && self.modules == other.modules
            && self.radiator == other.radiator
            && self.drive == other.drive
    }
}

impl fmt::Debug for ThermalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThermalKey")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("modules", &self.placement.module_count())
            .field("samples", &self.drive.len())
            .finish_non_exhaustive()
    }
}

/// One key's slot: the solve is serialised per key (not per cache), so two
/// workers arriving with *different* keys solve concurrently while two with
/// the same key race only for who runs it.
#[derive(Default)]
struct TraceCell {
    solve_lock: Mutex<()>,
    // Number of callers currently between "decided to solve (or wait on) this
    // entry" and "done with it".  Eviction skips entries with a non-zero
    // count: evicting one would detach the in-flight solve from the key, and
    // the next same-key request would run the whole radiator solve again.
    in_flight: AtomicUsize,
    trace: OnceLock<Arc<ThermalTrace>>,
}

/// Decrements a cell's in-flight count when the registered caller is done
/// with it — on every exit path, including a failed solve.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[derive(Default)]
struct CacheInner {
    // Linear scan over (fingerprint-prefiltered, fully compared) keys: a
    // grid holds a handful of distinct keys, and exact Vec lookup avoids
    // putting f64-derived hashes on the correctness path.  The Vec doubles
    // as the LRU order — least recently used at the front, so bounded
    // caches evict from index 0.
    entries: Mutex<Vec<(ThermalKey, Arc<TraceCell>)>>,
    // `None` = unbounded; `Some(0)` = cache nothing (every request solves
    // privately and counts a miss, never an eviction).
    capacity: Option<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// An `Arc`-shared, input-keyed cache of solved [`ThermalTrace`]s.
///
/// Cloning shares the underlying storage.  Attach a cache to scenarios via
/// [`ScenarioBuilder::trace_cache`](crate::ScenarioBuilder::trace_cache) —
/// or let [`GridSpec::to_grid`](crate::GridSpec::to_grid) attach one to every
/// sample of a grid — and every attached scenario whose thermal inputs
/// compare equal resolves to the same solved trace, radiator model run
/// exactly once.
///
/// # Examples
///
/// ```
/// use teg_sim::{Scenario, TraceCache};
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let cache = TraceCache::new();
/// let build = |cache: &TraceCache| {
///     Scenario::builder()
///         .module_count(8)
///         .duration_seconds(20)
///         .seed(7)
///         .trace_cache(cache.clone())
///         .build()
/// };
/// let a = build(&cache)?;
/// let b = build(&cache)?;
/// a.thermal_trace()?;
/// b.thermal_trace()?;
/// // One key, one solve: the second scenario shared the first's trace.
/// assert_eq!(cache.len(), 1);
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(a.thermal_solve_count() + b.thermal_solve_count(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct TraceCache {
    inner: Arc<CacheInner>,
}

impl TraceCache {
    /// Creates an empty cache with no capacity bound (entries are retained
    /// until [`TraceCache::clear`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` entries, evicting
    /// the least recently used entry when a new key would exceed the bound.
    /// A capacity of `0` means *cache nothing*: every request runs its own
    /// private solve and counts as a miss, no entry is ever stored, and the
    /// evictions counter stays at zero (nothing is admitted, so nothing is
    /// evicted).  For an unbounded cache use [`TraceCache::new`].
    ///
    /// Eviction releases only the cache's references: scenarios holding an
    /// evicted trace keep it alive through their own `Arc` handle, and a
    /// solve in flight on an evicted entry completes into that entry's
    /// private slot.  A later request for an evicted key re-solves — counted
    /// as a miss, with [`TraceCache::evictions`] recording each eviction.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(CacheInner {
                capacity: Some(capacity),
                ..CacheInner::default()
            }),
        }
    }

    /// The cache's entry bound, or `None` when unbounded.  `Some(0)` is the
    /// cache-nothing configuration.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Number of entries evicted to keep the cache within its capacity
    /// (always zero for unbounded caches).
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct thermal keys the cache has seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Returns `true` while no scenario has resolved a trace through the
    /// cache.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of trace requests answered from an already-solved entry.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Number of trace requests that had to run the radiator solve.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached entry (keys and solved traces), keeping the
    /// hit/miss counters.  Scenarios that already resolved their trace keep
    /// their own `Arc` handle, so clearing never invalidates running work —
    /// it only releases the cache's references.
    ///
    /// An unbounded cache (the default) never evicts on its own: each entry
    /// retains its key (a drive-cycle and module-parameter clone) and the
    /// solved trace for as long as the cache lives.  A long-lived caller
    /// sweeping an unbounded stream of *distinct* keys should either clear
    /// between phases or build the cache with
    /// [`TraceCache::with_capacity`] — within one grid, or a family of
    /// grids over one parameter space, the entry count stays small and
    /// lookups stay cheap.
    pub fn clear(&self) {
        self.entries().clear();
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<(ThermalKey, Arc<TraceCell>)>> {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves the scenario's trace through the cache: an equal key's
    /// already-solved trace when one exists, a fresh solve (performed and
    /// counted by *this* scenario) otherwise.  The boolean reports whether
    /// this call ran the solve.
    ///
    /// Concurrent misses on one key collapse to a single solve: the first
    /// caller runs it under the entry's solve lock while the others wait and
    /// then count as hits, so a sweep solves each unique key exactly once
    /// however many workers miss it together.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`ThermalTrace::solve`]; a failed solve
    /// leaves the entry unsolved, so a later caller retries rather than
    /// inheriting the failure.
    pub(crate) fn trace_for(
        &self,
        scenario: &Scenario,
    ) -> Result<(Arc<ThermalTrace>, bool), SimError> {
        // Capacity 0: cache nothing.  Solve privately without touching the
        // entry list — admitting a key only to evict it in the same breath
        // would report phantom evictions and serialise unrelated solves.
        if self.inner.capacity == Some(0) {
            let solved = Arc::new(ThermalTrace::solve(scenario)?);
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            return Ok((solved, true));
        }
        let key = ThermalKey::of(scenario);
        let (cell, registered) = {
            let mut entries = self.entries();
            let cell = match entries.iter().position(|(k, _)| *k == key) {
                Some(pos) => {
                    // Refresh recency: the touched entry moves to the back,
                    // so bounded caches evict the *least* recently used key.
                    let entry = entries.remove(pos);
                    let cell = Arc::clone(&entry.1);
                    entries.push(entry);
                    cell
                }
                None => {
                    let cell = Arc::new(TraceCell::default());
                    entries.push((key, Arc::clone(&cell)));
                    cell
                }
            };
            // Register as in-flight *before* releasing the entries lock: an
            // unsolved entry stays pinned against eviction from here until
            // the guard drops, so a concurrent flood of other keys cannot
            // detach a solve that is about to populate this entry.
            let registered = cell.trace.get().is_none();
            if registered {
                cell.in_flight.fetch_add(1, Ordering::AcqRel);
            }
            Self::enforce_capacity(&self.inner, &mut entries);
            (cell, registered)
        };
        let in_flight = registered.then(|| InFlightGuard(&cell.in_flight));
        if let Some(trace) = cell.trace.get() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(trace), false));
        }
        let guard = cell
            .solve_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(trace) = cell.trace.get() {
            drop(guard);
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(trace), false));
        }
        let solved = Arc::new(ThermalTrace::solve(scenario)?);
        let stored = Arc::clone(cell.trace.get_or_init(|| Arc::clone(&solved)));
        drop(guard);
        drop(in_flight);
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        Ok((stored, true))
    }

    /// Evicts least-recently-used entries until the cache fits its bound,
    /// skipping entries whose solve is in flight (evicting one would detach
    /// the running solve from its key and force a same-key successor to
    /// re-run the whole radiator solve).  When every candidate is pinned the
    /// cache temporarily exceeds its bound; the next insertion retries.
    fn enforce_capacity(inner: &CacheInner, entries: &mut Vec<(ThermalKey, Arc<TraceCell>)>) {
        let Some(capacity) = inner.capacity else {
            return;
        };
        while entries.len() > capacity {
            let evictable = entries
                .iter()
                .position(|(_, cell)| cell.in_flight.load(Ordering::Acquire) == 0);
            match evictable {
                Some(pos) => {
                    entries.remove(pos);
                    inner.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Number of entries whose solve is currently in flight (pinned against
    /// eviction).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.entries()
            .iter()
            .filter(|(_, cell)| cell.in_flight.load(Ordering::Acquire) > 0)
            .count()
    }
}

impl fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCache")
            .field("keys", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSeverity};
    use crate::scenario::ScenarioBuilder;
    use teg_device::VariationModel;

    fn builder(modules: usize, seconds: usize, seed: u64, cache: &TraceCache) -> ScenarioBuilder {
        Scenario::builder()
            .module_count(modules)
            .duration_seconds(seconds)
            .seed(seed)
            .trace_cache(cache.clone())
    }

    #[test]
    fn equal_inputs_share_one_solve() {
        let cache = TraceCache::new();
        let a = builder(6, 15, 3, &cache).build().unwrap();
        let b = builder(6, 15, 3, &cache).build().unwrap();
        let ta = a.thermal_trace().unwrap().clone();
        let tb = b.thermal_trace().unwrap().clone();
        assert_eq!(ta, tb);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // Only the solving scenario counted radiator work.
        assert_eq!(a.thermal_solve_count(), 15);
        assert_eq!(b.thermal_solve_count(), 0);
    }

    #[test]
    fn fault_plans_do_not_split_keys_but_physics_inputs_do() {
        let cache = TraceCache::new();
        let healthy = builder(8, 10, 1, &cache).build().unwrap();
        let degraded = builder(8, 10, 1, &cache)
            .fault_plan(FaultPlan::random(8, 10, FaultSeverity::severe(), 9))
            .build()
            .unwrap();
        let other_seed = builder(8, 10, 2, &cache).build().unwrap();
        let other_size = builder(9, 10, 1, &cache).build().unwrap();
        let varied = builder(8, 10, 1, &cache)
            .module_variation(VariationModel::new(0.05, 0.05).unwrap())
            .build()
            .unwrap();
        for s in [&healthy, &degraded, &other_seed, &other_size, &varied] {
            s.thermal_trace().unwrap();
        }
        // healthy + degraded share; seed, module count and variation (which
        // changes the modules behind P_ideal) each get their own key.
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn concurrent_same_key_scenarios_solve_once() {
        let cache = TraceCache::new();
        let scenarios: Vec<Scenario> = (0..8)
            .map(|_| builder(6, 20, 11, &cache).build().unwrap())
            .collect();
        std::thread::scope(|scope| {
            for s in &scenarios {
                scope.spawn(|| {
                    let trace = s.thermal_trace().unwrap();
                    assert_eq!(trace.len(), 20);
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        let solves: usize = scenarios.iter().map(Scenario::thermal_solve_count).sum();
        assert_eq!(solves, 20, "eight scenarios, one 20-sample solve");
    }

    #[test]
    fn clearing_releases_entries_but_not_outstanding_traces() {
        let cache = TraceCache::new();
        let a = builder(5, 10, 2, &cache).build().unwrap();
        let trace = a.thermal_trace().unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        // The scenario's own handle survives; a new equal-keyed scenario
        // re-solves.
        assert_eq!(trace.len(), 10);
        let b = builder(5, 10, 2, &cache).build().unwrap();
        b.thermal_trace().unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = TraceCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        // Distinct seeds → distinct thermal keys.
        let a = || builder(6, 10, 1, &cache).build().unwrap();
        let b = || builder(6, 10, 2, &cache).build().unwrap();
        let c = || builder(6, 10, 3, &cache).build().unwrap();
        a().thermal_trace().unwrap(); // [A]
        b().thermal_trace().unwrap(); // [A, B]
        assert_eq!(cache.evictions(), 0);
        a().thermal_trace().unwrap(); // hit refreshes A → [B, A]
        c().thermal_trace().unwrap(); // evicts B → [A, C]
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        a().thermal_trace().unwrap(); // still cached → [C, A]
        assert_eq!(cache.hits(), 2);
        b().thermal_trace().unwrap(); // re-solve, evicts C → [A, B]
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.misses(), 4, "A, B, C and the re-solved B");
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn eviction_does_not_invalidate_outstanding_traces() {
        let cache = TraceCache::with_capacity(1);
        let a = builder(5, 10, 1, &cache).build().unwrap();
        let trace = a.thermal_trace().unwrap().clone();
        builder(5, 10, 2, &cache)
            .build()
            .unwrap()
            .thermal_trace()
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        // The first scenario's handle survives the eviction.
        assert_eq!(trace.len(), 10);
        assert_eq!(a.thermal_trace().unwrap(), &trace);
    }

    #[test]
    fn default_cache_is_unbounded() {
        let cache = TraceCache::new();
        assert_eq!(cache.capacity(), None);
        for seed in 0..5 {
            builder(5, 10, seed, &cache)
                .build()
                .unwrap()
                .thermal_trace()
                .unwrap();
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_zero_caches_nothing() {
        // Regression: `with_capacity(0)` used to alias the unbounded cache.
        // It must mean "cache nothing": every request is a private solve and
        // a miss, nothing is stored, and no phantom evictions are counted.
        let cache = TraceCache::with_capacity(0);
        assert_eq!(cache.capacity(), Some(0));
        let a = builder(5, 10, 1, &cache).build().unwrap();
        let b = builder(5, 10, 1, &cache).build().unwrap();
        let ta = a.thermal_trace().unwrap().clone();
        let tb = b.thermal_trace().unwrap().clone();
        // Same inputs still solve to the same value — just not shared.
        assert_eq!(ta, tb);
        assert!(cache.is_empty(), "nothing is admitted");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.evictions(), 0);
        // Both scenarios performed their own radiator work.
        assert_eq!(a.thermal_solve_count(), 10);
        assert_eq!(b.thermal_solve_count(), 10);
    }

    #[test]
    fn eviction_of_borrowed_entry_keeps_counters_coherent() {
        // Evicting an entry whose trace is still held by a live scenario
        // must not disturb the hit/miss/eviction accounting: the books must
        // balance (misses = solves, hits = shared reads, evictions = keys
        // pushed out) even while the evicted Arc is outstanding.
        let cache = TraceCache::with_capacity(1);
        let a = builder(5, 10, 1, &cache).build().unwrap();
        let held = a.thermal_trace().unwrap().clone(); // miss 1, entry [A]
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 1, 0));
        // B evicts A while A's trace is borrowed.
        builder(5, 10, 2, &cache)
            .build()
            .unwrap()
            .thermal_trace()
            .unwrap(); // miss 2, evict A → [B]
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 2, 1));
        assert_eq!(held.len(), 10, "the borrowed trace survives eviction");
        // Re-requesting A's key is a fresh miss (A is gone), evicting B —
        // the outstanding borrow must not make it a hit or skip the
        // eviction.
        let c = builder(5, 10, 1, &cache).build().unwrap();
        let resolved = c.thermal_trace().unwrap().clone();
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 3, 2));
        assert_eq!(resolved, held, "the re-solve reproduces the same value");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn barrier_released_same_key_misses_solve_exactly_once() {
        // Eight workers released by a barrier all miss the same key at the
        // same instant on a *bounded* cache: the in-flight marker plus the
        // per-cell solve lock must still collapse them to one radiator
        // solve, with the seven losers counted as hits.
        use std::sync::Barrier;

        let cache = TraceCache::with_capacity(2);
        let scenarios: Vec<Scenario> = (0..8)
            .map(|_| builder(6, 20, 11, &cache).build().unwrap())
            .collect();
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for s in &scenarios {
                scope.spawn(|| {
                    barrier.wait();
                    let trace = s.thermal_trace().unwrap();
                    assert_eq!(trace.len(), 20);
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.in_flight(), 0, "all guards released");
        let solves: usize = scenarios.iter().map(Scenario::thermal_solve_count).sum();
        assert_eq!(solves, 20, "eight simultaneous misses, one 20-sample solve");
    }

    #[test]
    fn eviction_skips_an_entry_whose_solve_is_in_flight() {
        // Regression: a capacity-bounded cache used to evict entries purely
        // by LRU position, so a flood of other keys arriving while a solve
        // was still running would detach that solve from its key and the
        // next same-key request re-ran the whole radiator solve.  The
        // in-flight marker pins the entry until the solve lands.
        let cache = TraceCache::with_capacity(1);
        // Big enough that the main thread reliably observes the solve in
        // flight on any scheduler.
        let slow = builder(40, 400, 1, &cache).build().unwrap();
        let mut observed_in_flight = false;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                slow.thermal_trace().unwrap();
            });
            // Wait until the solver has registered (or, if the scheduler ran
            // it to completion already, until its miss is counted — the
            // pressure below then exercises plain LRU, not the regression).
            while cache.in_flight() == 0 && cache.misses() == 0 {
                std::thread::yield_now();
            }
            observed_in_flight = cache.in_flight() == 1;
            // Capacity pressure while the solve is (possibly) in flight.
            builder(6, 10, 2, &cache)
                .build()
                .unwrap()
                .thermal_trace()
                .unwrap();
            if observed_in_flight {
                // The pinned entry survived: the cache holds both keys even
                // though its bound is 1.
                assert_eq!(cache.len(), 2, "in-flight entry not evicted");
                assert_eq!(cache.evictions(), 0);
            }
        });
        if observed_in_flight {
            // Re-requesting the slow key shares the already-solved trace:
            // exactly one solve of its 400 samples ever runs.
            let again = builder(40, 400, 1, &cache).build().unwrap();
            again.thermal_trace().unwrap();
            assert_eq!(again.thermal_solve_count(), 0, "no second solve");
        }
        assert_eq!(cache.in_flight(), 0);
    }

    #[test]
    fn cache_is_send_sync_and_debuggable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceCache>();
        let cache = TraceCache::new();
        assert!(cache.is_empty());
        let text = format!("{cache:?}");
        assert!(text.contains("keys"), "{text}");
    }
}
