//! Read-through result caching with single-flight coalescing for the
//! idempotent M-Proxy reads.
//!
//! Every `getLocation()` / `findContacts()` / `entriesBetween()` that
//! reaches the binding plane pays the full platform cost — and on the
//! WebView binding, a JavaScript bridge crossing on top. Yet those reads
//! are idempotent over short windows: the GPS engine interpolates the
//! same fix for the same instant, the contact store only changes when
//! something writes to it. This module is the stack's `Cached` stage,
//! between the proxy-plane traced stage and the overload gate
//! (`Traced(Proxy) → Cached → Overload → …`), providing:
//!
//! * a **read-through cache** — results are stored under a per-proxy
//!   TTL measured on the simulated clock, so expiry replays
//!   bit-identically run over run;
//! * **single-flight coalescing** — when an identical read is already
//!   in flight, late arrivals wait on the leader's result instead of
//!   issuing their own binding-plane invocation. The leader executes
//!   the fill *without holding any cache lock*, which keeps the scheme
//!   safe on the WebView binding where the fill crosses the JS bridge;
//! * **explicit invalidation** — a [`Stamp`] of three monotone epochs
//!   is recorded at fill time and compared on every read: the device's
//!   fault epoch (bumped by every
//!   [`FaultPlan`](mobivine_device::fault::FaultPlan) transition), the
//!   resilience circuit breaker's transition epoch, and a per-stack
//!   generation bumped by `setProperty`. Any mismatch discards the
//!   entry before it can be served, so a stale read never survives a
//!   mutation.
//!
//! Writes (SMS send, calls, HTTP requests, `setProperty`) are never
//! cached; `setProperty` through a cached stack invalidates before it
//! forwards. Knobs travel the ordinary property plane (`cache.ttl_ms`,
//! `cache.coalescing`) exactly like the `retry.*` and `bulkhead.*`
//! families.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;

use crate::error::ProxyError;
use crate::property::{Knob, PropertyValue};
use crate::stack::Method;
use crate::telemetry::StageSpan;

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Tunable knobs for the read-through cache layer.
///
/// TTLs are simulated milliseconds per proxy kind; a TTL of zero
/// disables storage for that proxy (every read refills) while leaving
/// coalescing active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachePolicy {
    location_ttl_ms: u64,
    contacts_ttl_ms: u64,
    calendar_ttl_ms: u64,
    coalescing: bool,
}

impl Default for CachePolicy {
    /// Location fixes stay fresh for 10 s of simulated time; contact
    /// and calendar lookups — which only change on writes the
    /// invalidation stamps already catch — for 60 s. Coalescing on.
    fn default() -> Self {
        Self {
            location_ttl_ms: 10_000,
            contacts_ttl_ms: 60_000,
            calendar_ttl_ms: 60_000,
            coalescing: true,
        }
    }
}

impl CachePolicy {
    /// Sets the `getLocation` result TTL (virtual ms).
    #[must_use]
    pub fn location_ttl_ms(mut self, ms: u64) -> Self {
        self.location_ttl_ms = ms;
        self
    }

    /// Sets the `findContacts` result TTL (virtual ms).
    #[must_use]
    pub fn contacts_ttl_ms(mut self, ms: u64) -> Self {
        self.contacts_ttl_ms = ms;
        self
    }

    /// Sets the `entriesBetween` result TTL (virtual ms).
    #[must_use]
    pub fn calendar_ttl_ms(mut self, ms: u64) -> Self {
        self.calendar_ttl_ms = ms;
        self
    }

    /// Enables or disables single-flight coalescing.
    #[must_use]
    pub fn coalescing(mut self, on: bool) -> Self {
        self.coalescing = on;
        self
    }

    /// The configured location TTL.
    pub fn location_ttl(&self) -> u64 {
        self.location_ttl_ms
    }

    /// The configured contacts TTL.
    pub fn contacts_ttl(&self) -> u64 {
        self.contacts_ttl_ms
    }

    /// The configured calendar TTL.
    pub fn calendar_ttl(&self) -> u64 {
        self.calendar_ttl_ms
    }

    /// Whether coalescing is enabled.
    pub fn coalescing_enabled(&self) -> bool {
        self.coalescing
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

counter_block! {
    /// Shared cache counters, updated by the stage and snapshotted by
    /// observability code.
    CacheMetrics => CacheSnapshot, "cache" {
        /// Reads served from a stored, still-fresh entry.
        hit,
        /// Reads that filled from the layer below (one binding-plane
        /// invocation each).
        miss,
        /// Reads that joined an identical in-flight fill instead of issuing
        /// their own.
        coalesced,
        /// Entries discarded by an invalidation trigger (`setProperty`,
        /// fault-plan transition, circuit-state change) — natural TTL
        /// expiry is not counted here.
        invalidated,
    }
}

impl fmt::Display for CacheSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hit={} miss={} coalesced={} invalidated={}",
            self.hit, self.miss, self.coalesced, self.invalidated,
        )
    }
}

// ---------------------------------------------------------------------
// Invalidation stamps
// ---------------------------------------------------------------------

/// The invalidation coordinates an entry was filled under. A read whose
/// current stamp differs in *any* field discards the entry: something —
/// a fault transition, a circuit-state change, a `setProperty` — has
/// mutated the world since the fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// [`Device::fault_epoch`] at fill time.
    pub fault_epoch: u64,
    /// The resilience circuit breaker's transition epoch at fill time
    /// (zero when the stack has no breaker under this proxy).
    pub circuit_epoch: u64,
    /// The stack's `setProperty` generation at fill time.
    pub generation: u64,
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The TTL/stamp/knob state of one stack's cache stage.
pub struct CacheEngine {
    device: Device,
    metrics: Arc<CacheMetrics>,
    ttl_ms: AtomicU64,
    coalescing: AtomicBool,
    generation: AtomicU64,
    circuit_epoch: Option<Arc<AtomicU64>>,
}

impl CacheEngine {
    /// Creates an engine over `device` with the given starting TTL.
    /// `circuit_epoch` is the breaker's transition-epoch handle when a
    /// resilience stage sits below this one.
    pub fn new(
        device: Device,
        ttl_ms: u64,
        coalescing: bool,
        circuit_epoch: Option<Arc<AtomicU64>>,
        metrics: Arc<CacheMetrics>,
    ) -> Self {
        Self {
            device,
            metrics,
            ttl_ms: AtomicU64::new(ttl_ms),
            coalescing: AtomicBool::new(coalescing),
            generation: AtomicU64::new(0),
            circuit_epoch,
        }
    }

    /// The counter block this engine reports into.
    pub fn metrics(&self) -> &Arc<CacheMetrics> {
        &self.metrics
    }

    /// The current TTL (virtual ms).
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms.load(Ordering::Acquire)
    }

    /// Whether coalescing is currently enabled.
    pub fn coalescing(&self) -> bool {
        self.coalescing.load(Ordering::Acquire)
    }

    /// The invalidation coordinates as of now.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            fault_epoch: self.device.fault_epoch(),
            circuit_epoch: self
                .circuit_epoch
                .as_ref()
                .map_or(0, |e| e.load(Ordering::Acquire)),
            generation: self.generation.load(Ordering::Acquire),
        }
    }

    /// Bumps the `setProperty` generation, retiring every entry filled
    /// before the bump (including fills still in flight).
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Intercepts the cache property keys; returns `None` for keys that
    /// belong to the stages below.
    pub(crate) fn try_set_cache_property(
        &self,
        key: &str,
        value: &PropertyValue,
    ) -> Option<Result<(), ProxyError>> {
        let knob = Knob {
            layer: "cache",
            key,
            value,
        };
        let result = match key {
            "cache.ttl_ms" => knob
                .int(0)
                .map(|n| self.ttl_ms.store(n as u64, Ordering::Release)),
            "cache.coalescing" => knob
                .bool()
                .map(|on| self.coalescing.store(on, Ordering::Release)),
            _ => return None,
        };
        Some(result)
    }
}

// ---------------------------------------------------------------------
// Single-flight cell
// ---------------------------------------------------------------------

struct Entry<V> {
    value: V,
    stamp: Stamp,
    expires_at_ms: u64,
}

/// One in-flight fill. Single-use: the leader publishes exactly once,
/// then the flight is dropped from the map, so no epoch bookkeeping is
/// needed. Uses the standard-library mutex/condvar pair because the
/// follower side genuinely parks the thread.
struct Flight<V> {
    state: std::sync::Mutex<Option<Result<V, ProxyError>>>,
    cv: std::sync::Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            state: std::sync::Mutex::new(None),
            cv: std::sync::Condvar::new(),
        }
    }

    /// A poisoned flight mutex means a publisher or waiter panicked
    /// mid-section; the stored `Option` stays structurally valid either
    /// way, so recover the guard rather than propagate the panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Result<V, ProxyError>>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn publish(&self, result: Result<V, ProxyError>) {
        *self.lock() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<V, ProxyError> {
        let mut state = self.lock();
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self
                .cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The keyed store of one stack's cache stage: fresh entries plus
/// the map of in-flight fills.
///
/// Lock discipline: `entries` and `flights` are taken briefly and never
/// across the fill — the leader runs the wrapped call with no cache
/// lock held, so a fill that blocks (or crosses the WebView bridge)
/// cannot wedge readers of other keys.
pub struct CacheCell<K, V> {
    entries: Mutex<HashMap<K, Entry<V>>>,
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K, V> Default for CacheCell<K, V> {
    fn default() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CacheCell<K, V> {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many live (possibly expired, not yet collected) entries the
    /// cell holds.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cell holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drops every stored entry and retires in-flight fills via the
    /// engine's generation. Cleared entries count as invalidated.
    pub fn invalidate_all(&self, engine: &CacheEngine) {
        engine.bump_generation();
        let removed = {
            let mut entries = self.entries.lock();
            let n = entries.len();
            entries.clear();
            n
        };
        if removed > 0 {
            engine.metrics.invalidated.add(removed as u64);
        }
    }

    /// The read-through path: serve a fresh stored result, join an
    /// identical in-flight fill, or lead a new fill of `fill` —
    /// recording the decision as a `cache_*` counter always and as a
    /// span event when a trace is ambient.
    pub(crate) fn get_or_fill(
        &self,
        engine: &CacheEngine,
        method: &Method,
        key: K,
        fill: impl FnOnce() -> Result<V, ProxyError>,
    ) -> Result<V, ProxyError> {
        let mut span = StageSpan::open(method.cache, &engine.device);
        let result = self.get_or_fill_inner(engine, key, fill, &mut span);
        span.close(result.as_ref().err(), &engine.device);
        result
    }

    fn get_or_fill_inner(
        &self,
        engine: &CacheEngine,
        key: K,
        fill: impl FnOnce() -> Result<V, ProxyError>,
        span: &mut StageSpan,
    ) -> Result<V, ProxyError> {
        // The stamp is taken *before* the fill and stored with the
        // entry: if an invalidation epoch moves while the fill is in
        // flight, the stored stamp is already stale and the next read
        // discards it — a fill racing a mutation can never pin a
        // pre-mutation answer.
        let stamp = engine.stamp();
        let now = engine.device.now_ms();
        {
            let mut entries = self.entries.lock();
            match entries.get(&key) {
                Some(entry) if entry.stamp != stamp => {
                    entries.remove(&key);
                    engine.metrics.invalidated.inc();
                }
                Some(entry) if now < entry.expires_at_ms => {
                    engine.metrics.hit.inc();
                    let value = entry.value.clone();
                    drop(entries);
                    span.event("cache_hit", now);
                    return Ok(value);
                }
                Some(_) => {
                    // Fresh stamp but past its TTL: plain expiry, the
                    // refill below counts as an ordinary miss.
                    entries.remove(&key);
                }
                None => {}
            }
        }

        if !engine.coalescing() {
            span.event("cache_miss", now);
            return self.fill_and_store(engine, key, stamp, fill);
        }

        enum Role<V> {
            Leader(Arc<Flight<V>>),
            Follower(Arc<Flight<V>>),
        }
        let role = {
            let mut flights = self.flights.lock();
            match flights.get(&key) {
                Some(flight) => Role::Follower(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(key.clone(), Arc::clone(&flight));
                    Role::Leader(flight)
                }
            }
        };
        match role {
            Role::Follower(flight) => {
                engine.metrics.coalesced.inc();
                span.event("cache_coalesced", now);
                flight.wait()
            }
            Role::Leader(flight) => {
                span.event("cache_miss", now);
                let result = self.fill_and_store(engine, key.clone(), stamp, fill);
                // Unpublish before publishing: a caller arriving after
                // the removal starts a fresh flight instead of joining
                // a finished one.
                self.flights.lock().remove(&key);
                flight.publish(result.clone());
                result
            }
        }
    }

    /// Runs the fill with no cache lock held and stores a successful
    /// result under `stamp`. Errors are never cached.
    fn fill_and_store(
        &self,
        engine: &CacheEngine,
        key: K,
        stamp: Stamp,
        fill: impl FnOnce() -> Result<V, ProxyError>,
    ) -> Result<V, ProxyError> {
        engine.metrics.miss.inc();
        let result = fill();
        if let Ok(value) = &result {
            let filled_at = engine.device.now_ms();
            self.entries.lock().insert(
                key,
                Entry {
                    value: value.clone(),
                    stamp,
                    expires_at_ms: filled_at.saturating_add(engine.ttl_ms()),
                },
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProxyErrorKind;
    use crate::stack::Method;
    use std::sync::atomic::AtomicUsize;

    const READ: Method = method!(0, "Test", "read");

    fn engine(device: &Device, ttl_ms: u64) -> CacheEngine {
        CacheEngine::new(device.clone(), ttl_ms, true, None, CacheMetrics::shared())
    }

    #[test]
    fn policy_defaults_and_builders() {
        let policy = CachePolicy::default();
        assert_eq!(policy.location_ttl(), 10_000);
        assert_eq!(policy.contacts_ttl(), 60_000);
        assert_eq!(policy.calendar_ttl(), 60_000);
        assert!(policy.coalescing_enabled());
        let tuned = CachePolicy::default()
            .location_ttl_ms(1)
            .contacts_ttl_ms(2)
            .calendar_ttl_ms(3)
            .coalescing(false);
        assert_eq!(tuned.location_ttl(), 1);
        assert_eq!(tuned.contacts_ttl(), 2);
        assert_eq!(tuned.calendar_ttl(), 3);
        assert!(!tuned.coalescing_enabled());
    }

    #[test]
    fn second_read_hits_until_the_ttl_expires() {
        let device = Device::builder().build();
        let engine = engine(&device, 1_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(7)
        };
        assert_eq!(cell.get_or_fill(&engine, &READ, (), fill), Ok(7));
        assert_eq!(cell.get_or_fill(&engine, &READ, (), fill), Ok(7));
        assert_eq!(fills.load(Ordering::SeqCst), 1, "second read served hot");
        device.advance_ms(1_001);
        assert_eq!(cell.get_or_fill(&engine, &READ, (), fill), Ok(7));
        assert_eq!(fills.load(Ordering::SeqCst), 2, "expired entry refilled");
        let snap = engine.metrics().snapshot();
        assert_eq!((snap.hit, snap.miss), (1, 2));
        assert_eq!(snap.invalidated, 0, "TTL expiry is not an invalidation");
    }

    #[test]
    fn zero_ttl_disables_storage() {
        let device = Device::builder().build();
        let engine = engine(&device, 0);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(1)
        };
        for _ in 0..3 {
            assert!(cell.get_or_fill(&engine, &READ, (), fill).is_ok());
        }
        assert_eq!(fills.load(Ordering::SeqCst), 3);
        assert_eq!(engine.metrics().snapshot().hit, 0);
    }

    #[test]
    fn errors_are_never_cached() {
        let device = Device::builder().build();
        let engine = engine(&device, 10_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Err(ProxyError::new(ProxyErrorKind::Unavailable, "no fix"))
        };
        for _ in 0..2 {
            assert!(cell.get_or_fill(&engine, &READ, (), fill).is_err());
        }
        assert_eq!(fills.load(Ordering::SeqCst), 2, "each failure re-fills");
        assert!(cell.is_empty());
    }

    #[test]
    fn fault_epoch_bump_invalidates_before_the_ttl() {
        let device = Device::builder().build();
        let engine = engine(&device, 60_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(9)
        };
        cell.get_or_fill(&engine, &READ, (), fill).ok();
        device.bump_fault_epoch();
        cell.get_or_fill(&engine, &READ, (), fill).ok();
        assert_eq!(fills.load(Ordering::SeqCst), 2);
        assert_eq!(engine.metrics().snapshot().invalidated, 1);
    }

    #[test]
    fn circuit_epoch_bump_invalidates() {
        let device = Device::builder().build();
        let breaker_epoch = Arc::new(AtomicU64::new(0));
        let engine = CacheEngine::new(
            device.clone(),
            60_000,
            true,
            Some(Arc::clone(&breaker_epoch)),
            CacheMetrics::shared(),
        );
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(3)
        };
        cell.get_or_fill(&engine, &READ, (), fill).ok();
        cell.get_or_fill(&engine, &READ, (), fill).ok();
        assert_eq!(fills.load(Ordering::SeqCst), 1);
        breaker_epoch.fetch_add(1, Ordering::SeqCst);
        cell.get_or_fill(&engine, &READ, (), fill).ok();
        assert_eq!(fills.load(Ordering::SeqCst), 2);
        assert_eq!(engine.metrics().snapshot().invalidated, 1);
    }

    #[test]
    fn invalidate_all_counts_cleared_entries_and_retires_inflight_stamps() {
        let device = Device::builder().build();
        let engine = engine(&device, 60_000);
        let cell: CacheCell<u32, u64> = CacheCell::new();
        for k in 0..3 {
            cell.get_or_fill(&engine, &READ, k, || Ok(u64::from(k)))
                .ok();
        }
        assert_eq!(cell.len(), 3);
        let before = engine.stamp();
        cell.invalidate_all(&engine);
        assert!(cell.is_empty());
        assert_eq!(engine.metrics().snapshot().invalidated, 3);
        assert_ne!(engine.stamp(), before, "generation moved");
    }

    #[test]
    fn a_fill_racing_a_mutation_cannot_pin_a_stale_answer() {
        // The stamp is taken before the fill: bumping an epoch *during*
        // the fill leaves the stored entry already stale.
        let device = Device::builder().build();
        let engine = engine(&device, 60_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        cell.get_or_fill(&engine, &READ, (), || {
            fills.fetch_add(1, Ordering::SeqCst);
            device.bump_fault_epoch(); // mutation mid-flight
            Ok(1)
        })
        .ok();
        cell.get_or_fill(&engine, &READ, (), || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(2)
        })
        .ok();
        assert_eq!(fills.load(Ordering::SeqCst), 2, "mid-flight bump re-fills");
    }

    #[test]
    fn followers_share_the_leaders_single_invocation() {
        let device = Device::builder().build();
        let engine = Arc::new(engine(&device, 60_000));
        let cell: Arc<CacheCell<(), u64>> = Arc::new(CacheCell::new());
        let fills = Arc::new(AtomicUsize::new(0));
        const FOLLOWERS: usize = 4;

        // The leader's fill spins until every follower has joined the
        // flight (observable through the coalesced counter), making the
        // interleaving deterministic: exactly one fill, FOLLOWERS joins.
        let leader = {
            let engine = Arc::clone(&engine);
            let cell = Arc::clone(&cell);
            let fills = Arc::clone(&fills);
            std::thread::spawn(move || {
                cell.get_or_fill(&engine, &READ, (), || {
                    fills.fetch_add(1, Ordering::SeqCst);
                    while engine.metrics().snapshot().coalesced < FOLLOWERS as u64 {
                        std::thread::yield_now();
                    }
                    Ok(42)
                })
            })
        };
        while engine.metrics().snapshot().miss == 0 {
            std::thread::yield_now(); // leader holds the flight
        }
        let followers: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let cell = Arc::clone(&cell);
                let fills = Arc::clone(&fills);
                std::thread::spawn(move || {
                    cell.get_or_fill(&engine, &READ, (), || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        Ok(0)
                    })
                })
            })
            .collect();
        assert_eq!(leader.join().map_err(|_| "leader panicked"), Ok(Ok(42)));
        for follower in followers {
            assert_eq!(follower.join().map_err(|_| "follower panicked"), Ok(Ok(42)));
        }
        assert_eq!(fills.load(Ordering::SeqCst), 1, "one binding invocation");
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.coalesced, FOLLOWERS as u64);
        assert_eq!(snap.miss, 1);
    }

    #[test]
    fn coalescing_off_fills_independently() {
        let device = Device::builder().build();
        let engine = CacheEngine::new(device, 0, false, None, CacheMetrics::shared());
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        for _ in 0..2 {
            cell.get_or_fill(&engine, &READ, (), || {
                fills.fetch_add(1, Ordering::SeqCst);
                Ok(5)
            })
            .ok();
        }
        assert_eq!(fills.load(Ordering::SeqCst), 2);
        assert_eq!(engine.metrics().snapshot().coalesced, 0);
    }

    #[test]
    fn property_plane_tunes_ttl_and_coalescing() {
        let device = Device::builder().build();
        let engine = engine(&device, 10_000);
        assert_eq!(
            engine.try_set_cache_property("cache.ttl_ms", &PropertyValue::Int(500)),
            Some(Ok(()))
        );
        assert_eq!(engine.ttl_ms(), 500);
        assert_eq!(
            engine.try_set_cache_property("cache.coalescing", &PropertyValue::Bool(false)),
            Some(Ok(()))
        );
        assert!(!engine.coalescing());
        assert!(matches!(
            engine.try_set_cache_property("cache.ttl_ms", &PropertyValue::Int(-1)),
            Some(Err(_))
        ));
        assert_eq!(
            engine.try_set_cache_property("provider", &PropertyValue::str("gps")),
            None,
            "foreign keys fall through to the wrapped proxy"
        );
    }
}
