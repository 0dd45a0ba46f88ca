//! The layered proxy stack: each enrichment concern written once, run
//! in one canonical order over every uniform interface.
//!
//! MobiVine enriches a proxy by layering functionality over one uniform
//! surface (§3.3). Every concern a runtime can enable is a *stage*,
//! written once for all interfaces and backed by its module's engine:
//!
//! | stage | engine | what it does to a call |
//! |---|---|---|
//! | Traced(Proxy) | [`crate::telemetry`] | proxy-plane span, call/error counters, latency, SLO |
//! | Cached | [`crate::cache`] | read-through + single-flight for the idempotent reads |
//! | Overload | [`crate::overload`] | deadline fail-fast, admission, bulkhead |
//! | Journaled | [`crate::journal`] | intent before effect for the mutations, SMS dedup |
//! | Resilient | [`crate::resilience`] | retries, circuit breaker |
//! | Traced(Binding) | [`crate::telemetry`] | one binding-plane span per attempt |
//!
//! `Stack::run` is the only place the order is written. A uniform call
//! reaches it reified as an `Op`: its [`Method`] (whose span names are
//! compile-time strings), its class — traced only, gated (overload and
//! retries), or a `setProperty` write — and the special cases it adds
//! at particular stages: the key of a cacheable read, the Location
//! fallback and degrade, the HTTP droppable-path degrade, the
//! journaling of a mutation. Each uniform trait has one facade impl on
//! `Stack` stating every method's class once.

use std::convert::identity;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::{Plane, SpanName};

use crate::api::{
    CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy,
};
use crate::cache::{CacheCell, CacheEngine, CacheMetrics, CachePolicy};
use crate::error::ProxyError;
use crate::journal::{current_idempotency_key, url_with_idempotency_key, JournalEngine};
use crate::overload::{OverloadEngine, OverloadMetrics, OverloadPolicy};
use crate::property::{Knob, PropertyValue};
use crate::registry::ProxyApi;
use crate::resilience::{Engine, FailureMode, ResilienceMetrics, ResiliencePolicy};
use crate::telemetry::{Instrument, TelemetryRuntime};
use crate::types::{
    CalendarRecord, CallProgress, ContactRecord, DeliveryListener, HttpResult, Location,
    SharedProximityListener,
};

type Res<T> = Result<T, ProxyError>;
/// The rest of the stack below a stage.
type Next<'n, T> = &'n dyn Fn() -> Res<T>;
/// A special case run around the rest of the stack at stage `S`.
type Around<'a, S, T> = Option<&'a dyn Fn(&S, Next<'_, T>) -> Res<T>>;
/// A special case applied to stage `S`'s outcome `O`.
type After<'a, S, O, T> = Option<&'a dyn Fn(&S, O) -> Res<T>>;

/// A uniform method's identity: its name and, fixed at compile time,
/// the span name each stage records it under.
pub(crate) struct Method {
    /// Position in its interface's method table.
    pub(crate) index: usize,
    /// The uniform method name, e.g. `getLocation`.
    pub(crate) name: &'static str,
    /// The proxy-plane span, `proxy:<Interface>.<method>`.
    pub(crate) proxy: &'static str,
    /// The binding-plane span, `binding:<Interface>.<method>`.
    pub(crate) binding: &'static str,
    /// The cache stage's span, `cache:<method>`.
    pub(crate) cache: &'static str,
    /// The overload stage's span, `overload:<method>`.
    pub(crate) overload: &'static str,
    /// The resilience stage's span, `resilience:<method>`.
    pub(crate) resilience: &'static str,
}

/// A uniform proxy interface the stack wraps: one impl per `dyn *Proxy`
/// type, next to its facade.
pub(crate) trait Kind: ProxyApi + ProxyBase {
    /// Every method, in [`Method::index`] order.
    const METHODS: &'static [Method];
    /// Whether the interface takes the per-call stages: both traced
    /// planes, the overload gate and the retry engine. The PIM
    /// interfaces (Contacts, Calendar) take only the cache.
    const CALL_STAGES: bool = true;
    /// Whether the interface's mutations take the journaled stage.
    const JOURNALED: bool = false;
    /// The cache stage's TTL for the interface's cacheable read, when
    /// it has one.
    const CACHE_TTL: Option<fn(&CachePolicy) -> u64> = None;
    /// The key of the interface's cacheable read.
    type Key: Eq + Hash + Clone + Send;
    /// The result of the interface's cacheable read.
    type Value: Clone + Send;
    /// State the interface's special cases keep.
    type Memo: Default + Send + Sync;

    /// Property keys the overload stage owns for this interface beyond
    /// the engine's own; `None` passes the key down.
    fn set_shed_property(
        _memo: &Self::Memo,
        _key: &str,
        _value: &PropertyValue,
    ) -> Option<Res<()>> {
        None
    }
}

/// One enabled stage's configuration: its policy and the counter block
/// every stack of the runtime shares.
pub(crate) struct Layer<P, M> {
    pub(crate) policy: P,
    pub(crate) metrics: Arc<M>,
}

/// What a runtime wires into every stack it builds; `None` leaves a
/// stage out.
#[derive(Default)]
pub(crate) struct Layers {
    pub(crate) telemetry: Option<TelemetryRuntime>,
    pub(crate) cache: Option<Layer<CachePolicy, CacheMetrics>>,
    pub(crate) overload: Option<Layer<OverloadPolicy, OverloadMetrics>>,
    /// One engine (one write-ahead log) behind every journaled stack.
    pub(crate) journal: Option<Arc<JournalEngine>>,
    pub(crate) resilience: Option<Layer<ResiliencePolicy, ResilienceMetrics>>,
}

/// The cache stage: its engine and the interface's read-through cell.
pub(crate) struct Cached<P: ?Sized + Kind> {
    pub(crate) engine: CacheEngine,
    pub(crate) cell: CacheCell<P::Key, P::Value>,
}

/// One interface's layered proxy: the platform binding under every
/// stage the runtime enables and the interface takes. Each stage holds
/// its own engine (per-proxy breaker, bulkhead, cache cell); the
/// journal engine is the runtime's.
pub(crate) struct Stack<P: ?Sized + Kind> {
    pub(crate) inner: Arc<P>,
    pub(crate) proxy_trace: Option<Box<Instrument>>,
    /// Inline, not boxed: a cached read reaches its cell without a
    /// pointer hop of its own.
    pub(crate) cache: Option<Cached<P>>,
    pub(crate) overload: Option<Box<OverloadEngine>>,
    pub(crate) journal: Option<Arc<JournalEngine>>,
    pub(crate) resilience: Option<Box<Engine>>,
    pub(crate) binding_trace: Option<Box<Instrument>>,
    pub(crate) memo: P::Memo,
}

/// How an operation passes the stages.
enum Class<'a, T> {
    /// Traced only: local bookkeeping on an existing registration or
    /// call (alert removal, call progress, hang-up) is never gated,
    /// cached or retried.
    Traced(&'static Method),
    /// Traced, gated by the overload stage and retried by the
    /// resilience stage.
    Gated(&'static Method),
    /// A `setProperty` write: untraced; each stage answers the keys it
    /// owns (`ack` lifts the answer into the operation's result) and
    /// passes the rest down.
    Set {
        key: &'a str,
        value: &'a PropertyValue,
        ack: fn(Res<()>) -> Res<T>,
    },
}

/// One uniform operation reified as data: its class, the platform
/// call, and the special cases it adds at particular stages. A `None`
/// hook leaves that stage's generic behaviour.
struct Op<'a, P: ?Sized + Kind, T> {
    class: Class<'a, T>,
    invoke: &'a dyn Fn(&P) -> Res<T>,
    /// A cacheable read: reads through the interface's cell.
    read: Around<'a, Cached<P>, T>,
    /// Post-processes the overload gate's outcome (degradation tiers).
    shed: After<'a, OverloadEngine, Res<T>, T>,
    /// A mutation: journals its intent before the rest of the stack
    /// runs as the effect.
    journal: Around<'a, JournalEngine, T>,
    /// Answers a failed resilient call (the Location fallback chain);
    /// by default the failure surfaces as it is.
    fallback: After<'a, Engine, Result<T, FailureMode>, T>,
}

impl<'a, P: ?Sized + Kind, T> Op<'a, P, T> {
    fn new(class: Class<'a, T>, invoke: &'a dyn Fn(&P) -> Res<T>) -> Self {
        Self {
            class,
            invoke,
            read: None,
            shed: None,
            journal: None,
            fallback: None,
        }
    }
}

impl<P: ?Sized + Kind> Stack<P> {
    /// Layers `inner` under every stage `layers` enables and `P` takes,
    /// all on `device`'s clock; `platform` labels spans and metrics.
    pub(crate) fn new(inner: Arc<P>, layers: &Layers, device: &Device, platform: &str) -> Self {
        let telemetry = layers.telemetry.as_ref().filter(|_| P::CALL_STAGES);
        let platform = telemetry.map(|_| SpanName::from(platform.to_owned()));
        let trace = |plane| {
            let (t, platform) = telemetry.zip(platform.clone())?;
            Some(Box::new(Instrument::new::<P>(
                device.clock(),
                t,
                plane,
                platform,
            )))
        };
        let resilience = layers
            .resilience
            .as_ref()
            .filter(|_| P::CALL_STAGES)
            .map(|l| {
                Box::new(Engine::new(
                    device.clone(),
                    l.policy.clone(),
                    Arc::clone(&l.metrics),
                ))
            });
        let cache = P::CACHE_TTL.zip(layers.cache.as_ref()).map(|(ttl, l)| {
            Cached {
                engine: CacheEngine::new(
                    device.clone(),
                    ttl(&l.policy),
                    l.policy.coalescing_enabled(),
                    // Entries are stamped with the breaker's epoch, so a
                    // circuit transition retires reads cached before it.
                    resilience.as_ref().map(|r| r.breaker.epoch_handle()),
                    Arc::clone(&l.metrics),
                ),
                cell: CacheCell::new(),
            }
        });
        Self {
            proxy_trace: trace(Plane::Proxy),
            cache,
            overload: layers
                .overload
                .as_ref()
                .filter(|_| P::CALL_STAGES)
                .map(|l| {
                    Box::new(OverloadEngine::new(
                        device.clone(),
                        l.policy.clone(),
                        Arc::clone(&l.metrics),
                    ))
                }),
            journal: layers.journal.clone().filter(|_| P::JOURNALED),
            resilience,
            binding_trace: trace(Plane::Binding),
            inner,
            memo: P::Memo::default(),
        }
    }

    /// Whether no stage applies — the runtime then hands out the bare
    /// binding rather than an empty stack.
    pub(crate) fn is_bare(&self) -> bool {
        self.proxy_trace.is_none()
            && self.cache.is_none()
            && self.overload.is_none()
            && self.journal.is_none()
            && self.resilience.is_none()
    }

    /// Runs `op` through the stages in the canonical order, outermost
    /// first: `Traced(Proxy) → Cached → Overload → Journaled →
    /// Resilient → Traced(Binding) → platform`. The only place the
    /// order is written: a cache hit costs no admission and no retry
    /// budget; a shed call burns no intent record; one logical call
    /// appends one intent however many retries it takes; every retry
    /// is its own binding-plane span.
    fn run<T>(&self, op: &Op<'_, P, T>) -> Res<T> {
        let platform = || trace(&self.binding_trace, op, || (op.invoke)(&self.inner));
        let retried = || self.retried(op, &platform);
        let journaled = || self.journaled(op, &retried);
        let gated = || self.gated(op, &journaled);
        let cached = || self.cached(op, &gated);
        trace(&self.proxy_trace, op, cached)
    }

    /// The cache stage: reads through the cell; a property write
    /// invalidates every entry — before it passes down, and even when
    /// the key is rejected, because a write is a mutation signal
    /// whether or not it lands.
    fn cached<T>(&self, op: &Op<'_, P, T>, next: Next<'_, T>) -> Res<T> {
        let Some(c) = self.cache.as_ref().filter(|_| P::CACHE_TTL.is_some()) else {
            return next();
        };
        match (&op.class, op.read) {
            (Class::Set { key, value, ack }, _) => {
                let owned = c.engine.try_set_cache_property(key, value);
                if owned.as_ref().is_none_or(Result::is_ok) {
                    c.cell.invalidate_all(&c.engine);
                }
                owned.map_or_else(next, ack)
            }
            (_, Some(read)) => read(c, next),
            _ => next(),
        }
    }

    /// The overload stage: deadline fail-fast, admission and bulkhead
    /// around gated calls; owns the `bulkhead.*`, `shed.*` and
    /// `deadline.*` keys.
    fn gated<T>(&self, op: &Op<'_, P, T>, next: Next<'_, T>) -> Res<T> {
        let Some(o) = self.overload.as_ref().filter(|_| P::CALL_STAGES) else {
            return next();
        };
        match &op.class {
            Class::Gated(method) => {
                let out = o.execute(method, next);
                match op.shed {
                    Some(shed) => shed(o, out),
                    None => out,
                }
            }
            Class::Set { key, value, ack } => P::set_shed_property(&self.memo, key, value)
                .or_else(|| o.try_set_policy_property(key, value))
                .map_or_else(next, ack),
            Class::Traced(_) => next(),
        }
    }

    /// The journaled stage: mutations and property writes append their
    /// intent across the fsync barrier before the stages below run.
    fn journaled<T>(&self, op: &Op<'_, P, T>, next: Next<'_, T>) -> Res<T> {
        let Some(j) = self.journal.as_ref().filter(|_| P::JOURNALED) else {
            return next();
        };
        match (&op.class, op.journal) {
            (Class::Set { key, .. }, _) => j.journaled("set_property", None, key, next),
            (_, Some(journal)) => journal(j, next),
            _ => next(),
        }
    }

    /// The resilience stage: retries and the circuit breaker around
    /// gated calls; owns the `retry.*`, `circuit.*` and `fallback.*`
    /// keys.
    fn retried<T>(&self, op: &Op<'_, P, T>, next: Next<'_, T>) -> Res<T> {
        let Some(r) = self.resilience.as_ref().filter(|_| P::CALL_STAGES) else {
            return next();
        };
        match &op.class {
            Class::Gated(method) => {
                let out = r.execute(method, next);
                match op.fallback {
                    Some(fallback) => fallback(r, out),
                    None => out.map_err(FailureMode::into_error),
                }
            }
            Class::Set { key, value, ack } => {
                r.try_set_policy_property(key, value).map_or_else(next, ack)
            }
            Class::Traced(_) => next(),
        }
    }
}

/// A traced stage (either plane): one span per call; property writes
/// are local configuration, not platform calls, and pass untraced.
fn trace<P: ?Sized + Kind, T>(
    stage: &Option<Box<Instrument>>,
    op: &Op<'_, P, T>,
    next: impl FnOnce() -> Res<T>,
) -> Res<T> {
    match (stage.as_ref().filter(|_| P::CALL_STAGES), &op.class) {
        (Some(t), Class::Traced(method) | Class::Gated(method)) => t.traced(method, next),
        _ => next(),
    }
}

impl<P: ?Sized + Kind> ProxyBase for Stack<P> {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        let class = Class::Set {
            key,
            value: &value,
            ack: identity,
        };
        self.run(&Op::new(class, &|p: &P| p.set_property(key, value.clone())))
    }
}

// ---------------------------------------------------------------------
// Location: cacheable fixes, two last-fix memories
// ---------------------------------------------------------------------

const ADD_ALERT: Method = method!(0, "Location", "addProximityAlert");
const REMOVE_ALERT: Method = method!(1, "Location", "removeProximityAlert");
const GET_LOCATION: Method = method!(2, "Location", "getLocation");
const GET_LOCATION_WITH_POWER: Method = method!(3, "Location", "getLocationWithPower");

/// A Location read the last-fix memories remember and answer: the
/// plain fix, or the fix-and-power pair.
trait Fix {
    fn fix(&self) -> Location;
    /// The read answered from a remembered fix. A degraded pair carries
    /// zero power: the ledger sits behind the platform call that did
    /// not happen.
    fn degraded(fix: Location) -> Self;
}

impl Fix for Location {
    fn fix(&self) -> Location {
        *self
    }

    fn degraded(fix: Location) -> Self {
        fix
    }
}

impl Fix for (Location, f64) {
    fn fix(&self) -> Location {
        self.0
    }

    fn degraded(fix: Location) -> Self {
        (fix, 0.0)
    }
}

/// The Location stack's two last-fix memories, one per stage that
/// answers from it: the resilience fallback remembers fixes the
/// platform produced; the overload degrade remembers fixes its gate
/// passed, fallback answers included.
#[derive(Default)]
pub(crate) struct Fixes {
    produced: Mutex<Option<Location>>,
    admitted: Mutex<Option<Location>>,
}

impl Fixes {
    fn after_gate<T: Fix>(&self, o: &OverloadEngine, out: Res<T>) -> Res<T> {
        match out {
            Ok(read) => {
                *self.admitted.lock() = Some(read.fix());
                Ok(read)
            }
            Err(shed) => {
                let cached = *self.admitted.lock();
                o.degrade_fix(cached, shed).map(T::degraded)
            }
        }
    }

    fn after_retries<T: Fix>(&self, r: &Engine, out: Result<T, FailureMode>) -> Res<T> {
        match out {
            Ok(read) => {
                *self.produced.lock() = Some(read.fix());
                Ok(read)
            }
            Err(failure) => {
                let last = *self.produced.lock();
                r.fallback_fix(last, failure).map(T::degraded)
            }
        }
    }
}

impl Kind for dyn LocationProxy {
    const METHODS: &'static [Method] = &[
        ADD_ALERT,
        REMOVE_ALERT,
        GET_LOCATION,
        GET_LOCATION_WITH_POWER,
    ];
    const CACHE_TTL: Option<fn(&CachePolicy) -> u64> = Some(CachePolicy::location_ttl);
    type Key = ();
    type Value = Location;
    type Memo = Fixes;
}

impl LocationProxy for Stack<dyn LocationProxy> {
    fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        altitude: f64,
        radius: f64,
        timer_s: i64,
        listener: SharedProximityListener,
    ) -> Result<(), ProxyError> {
        self.run(&Op::new(Class::Gated(&ADD_ALERT), &|p| {
            p.add_proximity_alert(
                latitude,
                longitude,
                altitude,
                radius,
                timer_s,
                Arc::clone(&listener),
            )
        }))
    }

    fn remove_proximity_alert(
        &self,
        listener: &SharedProximityListener,
    ) -> Result<bool, ProxyError> {
        self.run(&Op::new(Class::Traced(&REMOVE_ALERT), &|p| {
            p.remove_proximity_alert(listener)
        }))
    }

    fn get_location(&self) -> Result<Location, ProxyError> {
        self.run(&Op {
            read: Some(&|c, fill| c.cell.get_or_fill(&c.engine, &GET_LOCATION, (), fill)),
            shed: Some(&|o, out| self.memo.after_gate(o, out)),
            fallback: Some(&|r, out| self.memo.after_retries(r, out)),
            ..Op::new(Class::Gated(&GET_LOCATION), &|p| p.get_location())
        })
    }

    /// Never cached: the power ledger is monotonic, so a cached pair
    /// would serve stale energy figures.
    fn get_location_with_power(&self) -> Result<(Location, f64), ProxyError> {
        self.run(&Op {
            shed: Some(&|o, out| self.memo.after_gate(o, out)),
            fallback: Some(&|r, out| self.memo.after_retries(r, out)),
            ..Op::new(Class::Gated(&GET_LOCATION_WITH_POWER), &|p| {
                p.get_location_with_power()
            })
        })
    }
}

// ---------------------------------------------------------------------
// SMS: journaled, exactly once per idempotency key
// ---------------------------------------------------------------------

const SEND_TEXT_MESSAGE: Method = method!(0, "SMS", "sendTextMessage");

impl Kind for dyn SmsProxy {
    const METHODS: &'static [Method] = &[SEND_TEXT_MESSAGE];
    const JOURNALED: bool = true;
    type Key = ();
    type Value = ();
    type Memo = ();
}

impl SmsProxy for Stack<dyn SmsProxy> {
    fn send_text_message(
        &self,
        destination: &str,
        text: &str,
        delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Result<u64, ProxyError> {
        self.run(&Op {
            journal: Some(&|j, send| j.send_once(destination, send)),
            ..Op::new(Class::Gated(&SEND_TEXT_MESSAGE), &|p| {
                p.send_text_message(destination, text, delivery_listener.clone())
            })
        })
    }
}

// ---------------------------------------------------------------------
// Call: only dialling is gated and retried
// ---------------------------------------------------------------------

const MAKE_A_CALL: Method = method!(0, "Call", "makeACall");
const CALL_PROGRESS: Method = method!(1, "Call", "callProgress");
const END_CALL: Method = method!(2, "Call", "endCall");

impl Kind for dyn CallProxy {
    const METHODS: &'static [Method] = &[MAKE_A_CALL, CALL_PROGRESS, END_CALL];
    type Key = ();
    type Value = ();
    type Memo = ();
}

impl CallProxy for Stack<dyn CallProxy> {
    fn make_a_call(&self, number: &str) -> Result<u64, ProxyError> {
        self.run(&Op::new(Class::Gated(&MAKE_A_CALL), &|p| {
            p.make_a_call(number)
        }))
    }

    /// Refers to an existing call: never gated or replayed.
    fn call_progress(&self, call_id: u64) -> Result<CallProgress, ProxyError> {
        self.run(&Op::new(Class::Traced(&CALL_PROGRESS), &|p| {
            p.call_progress(call_id)
        }))
    }

    /// Hanging up is how load drains: never gated or replayed.
    fn end_call(&self, call_id: u64) -> Result<(), ProxyError> {
        self.run(&Op::new(Class::Traced(&END_CALL), &|p| p.end_call(call_id)))
    }
}

// ---------------------------------------------------------------------
// HTTP: journaled, droppable enrichment degrades under shed
// ---------------------------------------------------------------------

const REQUEST: Method = method!(0, "Http", "request");

impl Kind for dyn HttpProxy {
    const METHODS: &'static [Method] = &[REQUEST];
    const JOURNALED: bool = true;
    type Key = ();
    type Value = ();
    /// The droppable URL fragment (`shed.droppable_path`).
    type Memo = Mutex<Option<String>>;

    fn set_shed_property(
        droppable: &Self::Memo,
        key: &str,
        value: &PropertyValue,
    ) -> Option<Res<()>> {
        (key == "shed.droppable_path").then(|| {
            let knob = Knob {
                layer: "overload",
                key,
                value,
            };
            let fragment = knob.text()?;
            *droppable.lock() = (!fragment.is_empty()).then(|| fragment.to_owned());
            Ok(())
        })
    }
}

impl HttpProxy for Stack<dyn HttpProxy> {
    /// HTTP error statuses are successful results and are never
    /// retried; only transport failures are. The journal stage's
    /// ambient idempotency key travels on the URL (`?idem=…`), so the
    /// server-side durability layer can dedup re-deliveries.
    fn request(&self, method: &str, url: &str, body: &[u8]) -> Result<HttpResult, ProxyError> {
        let key = current_idempotency_key();
        let journaled_key = self.journal.as_ref().and(key);
        let stamped = journaled_key.map(|key| url_with_idempotency_key(url, key));
        let wire = stamped.as_deref().unwrap_or(url);
        self.run(&Op {
            shed: Some(&|o, out| {
                out.or_else(|e| o.degrade_http(self.memo.lock().as_deref(), url, e))
            }),
            journal: Some(&|j, submit| j.journaled("http", key, url, submit)),
            ..Op::new(Class::Gated(&REQUEST), &|p| p.request(method, wire, body))
        })
    }
}

// ---------------------------------------------------------------------
// Contacts and Calendar: cached reads only
// ---------------------------------------------------------------------

const FIND_CONTACTS: Method = method!(0, "Contacts", "findContacts");
const ENTRIES_BETWEEN: Method = method!(0, "Calendar", "entriesBetween");

impl Kind for dyn ContactsProxy {
    const METHODS: &'static [Method] = &[FIND_CONTACTS];
    const CALL_STAGES: bool = false;
    const CACHE_TTL: Option<fn(&CachePolicy) -> u64> = Some(CachePolicy::contacts_ttl);
    type Key = String;
    type Value = Vec<ContactRecord>;
    type Memo = ();
}

impl ContactsProxy for Stack<dyn ContactsProxy> {
    fn find_contacts(&self, query: &str) -> Result<Vec<ContactRecord>, ProxyError> {
        self.run(&Op {
            read: Some(&|c, fill| {
                c.cell
                    .get_or_fill(&c.engine, &FIND_CONTACTS, query.to_owned(), fill)
            }),
            ..Op::new(Class::Gated(&FIND_CONTACTS), &|p| p.find_contacts(query))
        })
    }
}

impl Kind for dyn CalendarProxy {
    const METHODS: &'static [Method] = &[ENTRIES_BETWEEN];
    const CALL_STAGES: bool = false;
    const CACHE_TTL: Option<fn(&CachePolicy) -> u64> = Some(CachePolicy::calendar_ttl);
    type Key = (u64, u64);
    type Value = Vec<CalendarRecord>;
    type Memo = ();
}

impl CalendarProxy for Stack<dyn CalendarProxy> {
    fn entries_between(&self, from_ms: u64, to_ms: u64) -> Result<Vec<CalendarRecord>, ProxyError> {
        self.run(&Op {
            read: Some(&|c, fill| {
                c.cell
                    .get_or_fill(&c.engine, &ENTRIES_BETWEEN, (from_ms, to_ms), fill)
            }),
            ..Op::new(Class::Gated(&ENTRIES_BETWEEN), &|p| {
                p.entries_between(from_ms, to_ms)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_table<P: ?Sized + Kind>() {
        let interface = P::KIND.interface();
        for (index, m) in P::METHODS.iter().enumerate() {
            assert_eq!(m.index, index, "{interface}.{} out of place", m.name);
            assert_eq!(m.proxy, format!("proxy:{interface}.{}", m.name));
            assert_eq!(m.binding, format!("binding:{interface}.{}", m.name));
            assert_eq!(m.cache, format!("cache:{}", m.name));
            assert_eq!(m.overload, format!("overload:{}", m.name));
            assert_eq!(m.resilience, format!("resilience:{}", m.name));
        }
    }

    /// The proxy-plane instruments are indexed by `Method::index`, and
    /// every span name is spelled out by hand in `method!`: both must
    /// agree with the interface's table.
    #[test]
    fn method_tables_are_in_index_order_with_canonical_span_names() {
        check_table::<dyn LocationProxy>();
        check_table::<dyn SmsProxy>();
        check_table::<dyn CallProxy>();
        check_table::<dyn HttpProxy>();
        check_table::<dyn ContactsProxy>();
        check_table::<dyn CalendarProxy>();
    }
}
