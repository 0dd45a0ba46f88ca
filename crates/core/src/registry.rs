//! The MobiVine runtime facade and proxy registry.
//!
//! Applications obtain proxies from a [`Mobivine`] runtime bound to
//! their platform. The registry consults the standard descriptor
//! catalog: interfaces without a binding on the running platform (Call
//! on S60, PIM on WebView) fail with
//! [`crate::error::ProxyErrorKind::UnsupportedOnPlatform`] rather than a
//! missing symbol — MobiVine removes "the requirement of the proxy set
//! being determined by the least common denominator of functionalities
//! across different platforms" (§3.3).
//!
//! ## Acquiring proxies
//!
//! The uniform acquisition surface is the typed resolver
//! [`Mobivine::proxy`], keyed by [`ProxyKind`] through the sealed
//! [`ProxyApi`] trait:
//!
//! ```
//! # use mobivine::registry::Mobivine;
//! # use mobivine::api::{LocationProxy, SmsProxy};
//! # use mobivine_android::{AndroidPlatform, SdkVersion};
//! # use mobivine_device::Device;
//! # let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
//! # let runtime = Mobivine::for_android(platform.new_context());
//! let location = runtime.proxy::<dyn LocationProxy>()?;
//! let sms = runtime.proxy::<dyn SmsProxy>()?;
//! # Ok::<(), mobivine::error::ProxyError>(())
//! ```
//!
//! Resolution is **memoized**: the first acquisition of a kind
//! constructs the decorated proxy stack, every later acquisition is a
//! lock-free read returning the same shared instance. The typed
//! resolver is the *only* acquisition surface — the six legacy
//! accessors (`location()`, `sms()`, …) were deprecated in 0.2.0 and
//! have been removed.
//!
//! ## Composable construction
//!
//! [`Mobivine::builder`] composes platform selection, resilience,
//! overload protection, caching and telemetry in any order with a
//! single `build()`; the legacy `for_*`/`with_*` chain remains for
//! simple cases. Either way the decorator stack always comes out in
//! the one canonical order, outermost first:
//! `Traced(Proxy) → Cached → Overload → Journaled → Resilient →
//! Traced(Binding)` — the journal sits inside the overload gate (shed
//! calls burn no intent record) and outside the retry engine (one
//! logical call appends one intent, however many retries it takes).

use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

use mobivine_android::context::Context;
use mobivine_device::Device;
use mobivine_proxydl::{PlatformId, ProxyDescriptor};
use mobivine_s60::S60Platform;
use mobivine_telemetry::span::Plane;
use mobivine_telemetry::{IncidentStore, MetricsRegistry, PromotionPolicy, SloEngine};
use mobivine_webview::WebView;

use crate::android::{
    AndroidCalendarProxy, AndroidCallProxy, AndroidContactsProxy, AndroidHttpProxy,
    AndroidLocationProxy, AndroidSmsProxy,
};
use crate::api::{
    CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy,
};
use crate::cache::{
    CacheMetrics, CachePolicy, CachedCalendarProxy, CachedContactsProxy, CachedLocationProxy,
};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::journal::{
    JournalEngine, JournalMetrics, JournalPolicy, JournaledHttpProxy, JournaledSmsProxy,
};
use crate::overload::{
    OverloadCallProxy, OverloadHttpProxy, OverloadLocationProxy, OverloadMetrics, OverloadPolicy,
    OverloadSmsProxy,
};
use crate::property::PropertyValue;
use crate::resilience::{
    ResilienceMetrics, ResiliencePolicy, ResilientCallProxy, ResilientHttpProxy,
    ResilientLocationProxy, ResilientSmsProxy,
};
use crate::s60::{S60CalendarProxy, S60ContactsProxy, S60HttpProxy, S60LocationProxy, S60SmsProxy};
use crate::telemetry::{
    TelemetryRuntime, TracedCallProxy, TracedHttpProxy, TracedLocationProxy, TracedSmsProxy,
};
use crate::webview::proxies::{
    WebViewCallProxy, WebViewHttpProxy, WebViewLocationProxy, WebViewSmsProxy,
};
use crate::webview::wrappers::install_wrappers;

enum Target {
    Android(Context),
    S60(S60Platform),
    WebView(Arc<WebView>),
}

/// The six uniform proxy capabilities, keyed the way the descriptor
/// catalog names them. This is the enum the typed resolver
/// ([`Mobivine::proxy`]) is keyed by, via [`ProxyApi::KIND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProxyKind {
    /// The Location capability (`"Location"` in the catalog).
    Location,
    /// The SMS capability (`"SMS"`).
    Sms,
    /// The voice-call capability (`"Call"`), absent on S60.
    Call,
    /// The HTTP capability (`"Http"`).
    Http,
    /// The Contacts extension (`"Contacts"`), absent on WebView.
    Contacts,
    /// The Calendar extension (`"Calendar"`), absent on WebView.
    Calendar,
}

impl ProxyKind {
    /// Every capability, in catalog order.
    pub const ALL: [ProxyKind; 6] = [
        ProxyKind::Location,
        ProxyKind::Sms,
        ProxyKind::Call,
        ProxyKind::Http,
        ProxyKind::Contacts,
        ProxyKind::Calendar,
    ];

    /// The descriptor-catalog interface name for this kind.
    pub fn interface(&self) -> &'static str {
        match self {
            ProxyKind::Location => "Location",
            ProxyKind::Sms => "SMS",
            ProxyKind::Call => "Call",
            ProxyKind::Http => "Http",
            ProxyKind::Contacts => "Contacts",
            ProxyKind::Calendar => "Calendar",
        }
    }
}

impl fmt::Display for ProxyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.interface())
    }
}

/// Memoized resolution state of one runtime: one slot per
/// [`ProxyKind`], written once on first acquisition and read lock-free
/// afterwards. Construction failures are not cached, so a transient
/// error does not poison the slot.
#[derive(Default)]
pub struct ResolutionCache {
    location: OnceLock<Arc<dyn LocationProxy>>,
    sms: OnceLock<Arc<dyn SmsProxy>>,
    call: OnceLock<Arc<dyn CallProxy>>,
    http: OnceLock<Arc<dyn HttpProxy>>,
    contacts: OnceLock<Arc<dyn ContactsProxy>>,
    calendar: OnceLock<Arc<dyn CalendarProxy>>,
}

impl ResolutionCache {
    /// How many kinds have been resolved so far.
    fn resolved_count(&self) -> usize {
        usize::from(self.location.get().is_some())
            + usize::from(self.sms.get().is_some())
            + usize::from(self.call.get().is_some())
            + usize::from(self.http.get().is_some())
            + usize::from(self.contacts.get().is_some())
            + usize::from(self.calendar.get().is_some())
    }
}

impl fmt::Debug for ResolutionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolutionCache")
            .field("resolved", &self.resolved_count())
            .finish()
    }
}

mod sealed {
    /// Prevents downstream crates from adding resolvable proxy types:
    /// the registry's construction match is exhaustive over the six
    /// catalog capabilities.
    pub trait Sealed {}
    impl Sealed for dyn super::LocationProxy {}
    impl Sealed for dyn super::SmsProxy {}
    impl Sealed for dyn super::CallProxy {}
    impl Sealed for dyn super::HttpProxy {}
    impl Sealed for dyn super::ContactsProxy {}
    impl Sealed for dyn super::CalendarProxy {}
}

/// The link between a uniform proxy trait object and its [`ProxyKind`]:
/// the typed key of [`Mobivine::proxy`]. Implemented exactly for the
/// six `dyn *Proxy` types; sealed, because the registry's construction
/// logic is exhaustive over the catalog.
pub trait ProxyApi: sealed::Sealed + Send + Sync {
    /// The capability this proxy type provides.
    const KIND: ProxyKind;

    #[doc(hidden)]
    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>>;

    #[doc(hidden)]
    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError>;
}

impl ProxyApi for dyn LocationProxy {
    const KIND: ProxyKind = ProxyKind::Location;

    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
        &cache.location
    }

    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
        runtime.build_location()
    }
}

impl ProxyApi for dyn SmsProxy {
    const KIND: ProxyKind = ProxyKind::Sms;

    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
        &cache.sms
    }

    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
        runtime.build_sms()
    }
}

impl ProxyApi for dyn CallProxy {
    const KIND: ProxyKind = ProxyKind::Call;

    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
        &cache.call
    }

    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
        runtime.build_call()
    }
}

impl ProxyApi for dyn HttpProxy {
    const KIND: ProxyKind = ProxyKind::Http;

    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
        &cache.http
    }

    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
        runtime.build_http()
    }
}

impl ProxyApi for dyn ContactsProxy {
    const KIND: ProxyKind = ProxyKind::Contacts;

    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
        &cache.contacts
    }

    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
        runtime.build_contacts()
    }
}

impl ProxyApi for dyn CalendarProxy {
    const KIND: ProxyKind = ProxyKind::Calendar;

    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
        &cache.calendar
    }

    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
        runtime.build_calendar()
    }
}

/// The runtime's resilience configuration: one policy and one shared
/// counter block applied identically to every proxy it constructs.
struct ResilienceRuntime {
    policy: ResiliencePolicy,
    metrics: Arc<ResilienceMetrics>,
}

/// The runtime's overload-protection configuration: one policy and one
/// shared counter block applied identically to every proxy it
/// constructs.
struct OverloadRuntime {
    policy: OverloadPolicy,
    metrics: Arc<OverloadMetrics>,
}

/// The runtime's read-through cache configuration: one policy and one
/// shared counter block applied identically to every cacheable proxy
/// it constructs.
struct CacheRuntime {
    policy: CachePolicy,
    metrics: Arc<CacheMetrics>,
}

/// The runtime's durability configuration: one policy, one shared
/// counter block, and one shared [`JournalEngine`] (the write-ahead
/// log + applied-key table) behind every mutating proxy it constructs.
struct JournalRuntime {
    policy: JournalPolicy,
    metrics: Arc<JournalMetrics>,
    engine: Arc<JournalEngine>,
}

/// The MobiVine runtime for one application on one platform.
pub struct Mobivine {
    target: Target,
    catalog: Arc<Vec<ProxyDescriptor>>,
    resilience: Option<ResilienceRuntime>,
    overload: Option<OverloadRuntime>,
    cache: Option<CacheRuntime>,
    journal: Option<JournalRuntime>,
    telemetry: Option<TelemetryRuntime>,
    slo: Option<Arc<SloEngine>>,
    resolved: ResolutionCache,
}

impl fmt::Debug for Mobivine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mobivine")
            .field("platform", &self.platform_id().id().to_owned())
            .field("catalog", &self.catalog.len())
            .field("resolved", &self.resolved.resolved_count())
            .finish()
    }
}

impl Mobivine {
    fn with_target(target: Target) -> Self {
        Self {
            target,
            catalog: mobivine_proxydl::catalog::shared_catalog(),
            resilience: None,
            overload: None,
            cache: None,
            journal: None,
            telemetry: None,
            slo: None,
            resolved: ResolutionCache::default(),
        }
    }

    /// Starts composable construction: platform selection, resilience
    /// and telemetry in any order, one [`MobivineBuilder::build`].
    pub fn builder() -> MobivineBuilder {
        MobivineBuilder::default()
    }

    /// Binds the runtime to an Android application context.
    pub fn for_android(ctx: Context) -> Self {
        Self::with_target(Target::Android(ctx))
    }

    /// Binds the runtime to an S60 platform.
    pub fn for_s60(platform: S60Platform) -> Self {
        Self::with_target(Target::S60(platform))
    }

    /// Binds the runtime to a WebView page, installing the Java
    /// wrappers (the plug-in's `addJavaScriptInterface` injection).
    pub fn for_webview(webview: Arc<WebView>) -> Self {
        install_wrappers(&webview);
        Self::with_target(Target::WebView(webview))
    }

    /// Turns on the resilience layer: every Location/SMS/Call/HTTP
    /// proxy this runtime constructs is pre-wrapped in the matching
    /// [`crate::resilience`] decorator under `policy` — identically on
    /// every platform, so retry behaviour is part of the uniform
    /// surface rather than per-platform application code.
    ///
    /// All decorators share one [`ResilienceMetrics`] block, readable
    /// through [`Mobivine::resilience_metrics`].
    #[must_use]
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        let metrics = match &self.telemetry {
            Some(t) => ResilienceMetrics::on_registry(t.metrics()),
            None => ResilienceMetrics::shared(),
        };
        self.resilience = Some(ResilienceRuntime { policy, metrics });
        // The decorator stack changed: previously resolved proxies do
        // not carry the new layer, so the memo is invalidated.
        self.resolved = ResolutionCache::default();
        self
    }

    /// Turns on overload protection: every Location/SMS/Call/HTTP proxy
    /// this runtime constructs is wrapped in the matching
    /// [`crate::overload`] decorator under `policy` — a per-proxy
    /// bulkhead, an adaptive load-shedding admission gate and
    /// deadline-aware fail-fast, sitting **outside** the resilience
    /// layer (when present) so a shed never spends retry budget.
    ///
    /// All decorators share one [`OverloadMetrics`] block, readable
    /// through [`Mobivine::overload_metrics`].
    #[must_use]
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        let metrics = match &self.telemetry {
            Some(t) => OverloadMetrics::on_registry(t.metrics()),
            None => OverloadMetrics::shared(),
        };
        self.overload = Some(OverloadRuntime { policy, metrics });
        self.resolved = ResolutionCache::default();
        self
    }

    /// Turns on the read-through cache layer: the idempotent-read
    /// proxies this runtime constructs (Location, Contacts, Calendar)
    /// are wrapped in the matching [`crate::cache`] decorator under
    /// `policy` — a TTL'd result cache with single-flight coalescing
    /// and stamp-based invalidation, sitting **outside** the overload
    /// layer (when present) so a cache hit costs neither admission nor
    /// binding-plane work, and **inside** the proxy-plane traced layer
    /// so hits and misses both appear in the span tree. Write-shaped
    /// proxies (SMS, Call, HTTP) are never cached.
    ///
    /// All decorators share one [`CacheMetrics`] block, readable
    /// through [`Mobivine::cache_metrics`].
    #[must_use]
    pub fn with_cache(mut self, policy: CachePolicy) -> Self {
        let metrics = match &self.telemetry {
            Some(t) => CacheMetrics::on_registry(t.metrics()),
            None => CacheMetrics::shared(),
        };
        self.cache = Some(CacheRuntime { policy, metrics });
        self.resolved = ResolutionCache::default();
        self
    }

    /// Turns on the durability layer: the mutating proxies this
    /// runtime constructs (SMS, HTTP) are wrapped in the matching
    /// [`crate::journal`] decorator under `policy` — every send or
    /// submit appends an intent record to a shared write-ahead journal
    /// and crosses a simulated fsync barrier *before* the side effect
    /// runs, and mutations carrying an ambient
    /// [`crate::journal::IdempotencyKey`] are deduplicated against the
    /// journal (the `AlreadyApplied` fast path). The decorator sits
    /// **inside** the overload gate (shed calls burn no intent) and
    /// **outside** the retry engine (one logical call appends one
    /// intent, however many retries it takes).
    ///
    /// All decorators share one [`JournalMetrics`] block, readable
    /// through [`Mobivine::journal_metrics`].
    #[must_use]
    pub fn with_journal(mut self, policy: JournalPolicy) -> Self {
        let metrics = match &self.telemetry {
            Some(t) => JournalMetrics::on_registry(t.metrics()),
            None => JournalMetrics::shared(),
        };
        let engine = Arc::new(JournalEngine::new(
            self.device(),
            policy.clone(),
            Arc::clone(&metrics),
        ));
        self.journal = Some(JournalRuntime {
            policy,
            metrics,
            engine,
        });
        self.resolved = ResolutionCache::default();
        self
    }

    /// Turns on plane-aware telemetry: every Location/SMS/Call/HTTP
    /// proxy this runtime constructs is wrapped **twice** in the
    /// matching [`crate::telemetry`] traced decorator — at the
    /// outermost semantic plane and at the binding plane (below the
    /// resilience layer, when present) — so each call descends the
    /// stack as a parented span tree: app → proxy → resilience →
    /// binding → platform → device.
    ///
    /// Metrics publish into the device's [`MetricsRegistry`] (shared
    /// with the device subsystems); spans collect in the tracer
    /// returned by [`Mobivine::tracer`]. If
    /// [`Mobivine::with_resilience`] was already applied, its counters
    /// are re-homed onto the same registry so one exporter covers the
    /// whole call path.
    #[must_use]
    pub fn with_telemetry(self) -> Self {
        self.with_telemetry_retention(mobivine_telemetry::DEFAULT_SPAN_RETENTION)
    }

    /// Like [`Mobivine::with_telemetry`], but each worker thread's span
    /// ring keeps at most `span_retention` finished spans (the oldest
    /// are overwritten and counted as evicted). Fleet-scale runs use a
    /// small retention so tracing ten thousand devices does not hold
    /// ten thousand unbounded span buffers.
    #[must_use]
    pub fn with_telemetry_retention(self, span_retention: usize) -> Self {
        self.with_telemetry_recorder(span_retention, PromotionPolicy::default())
    }

    /// Like [`Mobivine::with_telemetry_retention`], but with an
    /// explicit tail-based [`PromotionPolicy`] deciding which finished
    /// traces the flight recorder promotes into the incident store
    /// ([`Mobivine::incidents`]) before ring wrap-around can overwrite
    /// them.
    #[must_use]
    pub fn with_telemetry_recorder(
        mut self,
        span_retention: usize,
        policy: PromotionPolicy,
    ) -> Self {
        let mut telemetry = TelemetryRuntime::with_recorder(
            Arc::clone(self.device().metrics()),
            span_retention,
            policy,
        );
        if let Some(engine) = &self.slo {
            telemetry = telemetry.with_slo(Arc::clone(engine));
        }
        if let Some(r) = &mut self.resilience {
            r.metrics = ResilienceMetrics::on_registry(telemetry.metrics());
        }
        if let Some(o) = &mut self.overload {
            o.metrics = OverloadMetrics::on_registry(telemetry.metrics());
        }
        if let Some(c) = &mut self.cache {
            c.metrics = CacheMetrics::on_registry(telemetry.metrics());
        }
        let device = self.device();
        if let Some(j) = &mut self.journal {
            // Re-home the counters and rebuild the engine on them: this
            // runs at wiring time, before any intent could have been
            // appended, so the fresh (empty) journal is equivalent.
            j.metrics = JournalMetrics::on_registry(telemetry.metrics());
            j.engine = Arc::new(JournalEngine::new(
                device,
                j.policy.clone(),
                Arc::clone(&j.metrics),
            ));
        }
        self.telemetry = Some(telemetry);
        self.resolved = ResolutionCache::default();
        self
    }

    /// Attaches a declarative SLO engine: proxy-plane decorators feed
    /// every finished call's `(ok, latency)` into the engine's matching
    /// `(proxy, method, platform)` objectives, evaluated on virtual-time
    /// multi-window burn rates. Order-independent with
    /// [`Mobivine::with_telemetry`] — whichever comes second picks up
    /// the other. Without telemetry the engine records nothing (the
    /// proxy plane is where outcomes are observed).
    #[must_use]
    pub fn with_slo(mut self, engine: Arc<SloEngine>) -> Self {
        if let Some(telemetry) = self.telemetry.take() {
            self.telemetry = Some(telemetry.with_slo(Arc::clone(&engine)));
        }
        self.slo = Some(engine);
        self.resolved = ResolutionCache::default();
        self
    }

    /// The shared resilience counters, when
    /// [`Mobivine::with_resilience`] was applied.
    pub fn resilience_metrics(&self) -> Option<Arc<ResilienceMetrics>> {
        self.resilience.as_ref().map(|r| Arc::clone(&r.metrics))
    }

    /// The shared overload-protection counters, when
    /// [`Mobivine::with_overload`] was applied.
    pub fn overload_metrics(&self) -> Option<Arc<OverloadMetrics>> {
        self.overload.as_ref().map(|o| Arc::clone(&o.metrics))
    }

    /// The shared cache counters, when [`Mobivine::with_cache`] was
    /// applied.
    pub fn cache_metrics(&self) -> Option<Arc<CacheMetrics>> {
        self.cache.as_ref().map(|c| Arc::clone(&c.metrics))
    }

    /// The shared durability counters, when [`Mobivine::with_journal`]
    /// was applied.
    pub fn journal_metrics(&self) -> Option<Arc<JournalMetrics>> {
        self.journal.as_ref().map(|j| Arc::clone(&j.metrics))
    }

    /// The shared write-ahead journal engine, when
    /// [`Mobivine::with_journal`] was applied.
    pub fn journal_engine(&self) -> Option<&Arc<JournalEngine>> {
        self.journal.as_ref().map(|j| &j.engine)
    }

    /// The tracer collecting proxy-call spans, when
    /// [`Mobivine::with_telemetry`] was applied.
    pub fn tracer(&self) -> Option<&mobivine_telemetry::Tracer> {
        self.telemetry.as_ref().map(TelemetryRuntime::tracer)
    }

    /// The metrics registry the traced proxies publish into, when
    /// [`Mobivine::with_telemetry`] was applied. This is the device's
    /// registry, so device-layer series appear alongside the proxy
    /// series.
    pub fn telemetry_metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.telemetry.as_ref().map(|t| Arc::clone(t.metrics()))
    }

    /// The flight recorder's bounded store of promoted incident traces,
    /// when [`Mobivine::with_telemetry`] was applied.
    pub fn incidents(&self) -> Option<&Arc<IncidentStore>> {
        self.telemetry
            .as_ref()
            .and_then(TelemetryRuntime::incidents)
    }

    /// The SLO engine grading proxy-plane calls, when
    /// [`Mobivine::with_slo`] was applied.
    pub fn slo_engine(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    /// The simulated device underneath whichever platform binding this
    /// runtime targets — the clock source for resilience backoffs.
    fn device(&self) -> Device {
        match &self.target {
            Target::Android(ctx) => ctx.device().clone(),
            Target::S60(platform) => platform.device().clone(),
            Target::WebView(webview) => webview.context().device().clone(),
        }
    }

    /// The platform this runtime targets.
    pub fn platform_id(&self) -> PlatformId {
        match &self.target {
            Target::Android(_) => PlatformId::Android,
            Target::S60(_) => PlatformId::NokiaS60,
            Target::WebView(_) => PlatformId::AndroidWebView,
        }
    }

    /// The descriptor catalog backing this runtime.
    pub fn catalog(&self) -> &[ProxyDescriptor] {
        &self.catalog
    }

    /// Whether `interface` (descriptor name, e.g. `"Call"`) has a
    /// binding on the running platform.
    pub fn supports(&self, interface: &str) -> bool {
        let platform = self.platform_id();
        self.catalog
            .iter()
            .find(|d| d.name == interface)
            .is_some_and(|d| d.binding_for(&platform).is_some())
    }

    /// Whether `kind` has a binding on the running platform.
    pub fn supports_kind(&self, kind: ProxyKind) -> bool {
        self.supports(kind.interface())
    }

    fn unsupported(&self, interface: &str) -> ProxyError {
        ProxyError::new(
            ProxyErrorKind::UnsupportedOnPlatform,
            format!(
                "interface {interface} has no binding on platform {}",
                self.platform_id().id()
            ),
        )
    }

    /// Resolves the proxy for capability `P`, memoized.
    ///
    /// The first acquisition of each [`ProxyKind`] constructs the
    /// platform binding with the full decorator stack (telemetry,
    /// resilience) and caches the shared instance; every later
    /// acquisition is a lock-free read returning a clone of the same
    /// `Arc`. This is the hot-path acquisition primitive fleet-scale
    /// workloads lean on: acquisition cost collapses from per-call
    /// construction to one `OnceLock` load plus an `Arc` refcount
    /// increment.
    ///
    /// # Errors
    ///
    /// `UnsupportedOnPlatform` if the catalog has no binding for
    /// `P::KIND` on this platform, or any construction error from the
    /// binding module. Errors are not cached; a failed resolution is
    /// retried on the next acquisition.
    ///
    /// # Example
    ///
    /// ```
    /// # use mobivine::registry::Mobivine;
    /// # use mobivine::api::LocationProxy;
    /// # use mobivine_android::{AndroidPlatform, SdkVersion};
    /// # use mobivine_device::Device;
    /// # let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    /// # let runtime = Mobivine::for_android(platform.new_context());
    /// let first = runtime.proxy::<dyn LocationProxy>()?;
    /// let second = runtime.proxy::<dyn LocationProxy>()?;
    /// assert!(std::sync::Arc::ptr_eq(&first, &second));
    /// # Ok::<(), mobivine::error::ProxyError>(())
    /// ```
    pub fn proxy<P: ProxyApi + ?Sized>(&self) -> Result<Arc<P>, ProxyError> {
        let slot = P::slot(&self.resolved);
        if let Some(hit) = slot.get() {
            return Ok(Arc::clone(hit));
        }
        let constructed = P::construct(self)?;
        // Under a race the first writer wins and everyone shares its
        // instance; the loser's construction is dropped.
        Ok(Arc::clone(slot.get_or_init(|| constructed)))
    }

    /// Pre-resolves every capability with a binding on this platform,
    /// returning how many were cached. Fleet workloads call this once
    /// per runtime so steady-state acquisition never constructs.
    ///
    /// # Errors
    ///
    /// Propagates the first construction error; kinds without a
    /// binding are skipped, not errors.
    pub fn warm(&self) -> Result<usize, ProxyError> {
        let mut resolved = 0;
        for kind in ProxyKind::ALL {
            if !self.supports_kind(kind) {
                continue;
            }
            match kind {
                ProxyKind::Location => drop(self.proxy::<dyn LocationProxy>()?),
                ProxyKind::Sms => drop(self.proxy::<dyn SmsProxy>()?),
                ProxyKind::Call => drop(self.proxy::<dyn CallProxy>()?),
                ProxyKind::Http => drop(self.proxy::<dyn HttpProxy>()?),
                ProxyKind::Contacts => drop(self.proxy::<dyn ContactsProxy>()?),
                ProxyKind::Calendar => drop(self.proxy::<dyn CalendarProxy>()?),
            }
            resolved += 1;
        }
        Ok(resolved)
    }

    fn build_location(&self) -> Result<Arc<dyn LocationProxy>, ProxyError> {
        if !self.supports("Location") {
            return Err(self.unsupported("Location"));
        }
        let mut proxy: Arc<dyn LocationProxy> = match &self.target {
            Target::Android(ctx) => {
                let proxy = AndroidLocationProxy::new();
                proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
                Arc::new(proxy)
            }
            Target::S60(platform) => Arc::new(S60LocationProxy::new(platform.clone())),
            Target::WebView(webview) => Arc::new(WebViewLocationProxy::new(webview)?),
        };
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedLocationProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Binding,
                self.platform_id().id(),
            ));
        }
        let mut circuit_epoch = None;
        if let Some(r) = &self.resilience {
            let resilient = ResilientLocationProxy::new(
                proxy,
                self.device(),
                r.policy.clone(),
                Arc::clone(&r.metrics),
            );
            circuit_epoch = Some(resilient.circuit_epoch_handle());
            proxy = Arc::new(resilient);
        }
        if let Some(o) = &self.overload {
            proxy = Arc::new(OverloadLocationProxy::new(
                proxy,
                self.device(),
                o.policy.clone(),
                Arc::clone(&o.metrics),
            ));
        }
        if let Some(c) = &self.cache {
            proxy = Arc::new(CachedLocationProxy::new(
                proxy,
                self.device(),
                &c.policy,
                circuit_epoch,
                Arc::clone(&c.metrics),
            ));
        }
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedLocationProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Proxy,
                self.platform_id().id(),
            ));
        }
        Ok(proxy)
    }

    fn build_sms(&self) -> Result<Arc<dyn SmsProxy>, ProxyError> {
        if !self.supports("SMS") {
            return Err(self.unsupported("SMS"));
        }
        let mut proxy: Arc<dyn SmsProxy> = match &self.target {
            Target::Android(ctx) => {
                let proxy = AndroidSmsProxy::new();
                proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
                Arc::new(proxy)
            }
            Target::S60(platform) => Arc::new(S60SmsProxy::new(platform.clone())),
            Target::WebView(webview) => Arc::new(WebViewSmsProxy::new(webview)?),
        };
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedSmsProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Binding,
                self.platform_id().id(),
            ));
        }
        if let Some(r) = &self.resilience {
            proxy = Arc::new(ResilientSmsProxy::new(
                proxy,
                self.device(),
                r.policy.clone(),
                Arc::clone(&r.metrics),
            ));
        }
        if let Some(j) = &self.journal {
            proxy = Arc::new(JournaledSmsProxy::new(proxy, Arc::clone(&j.engine)));
        }
        if let Some(o) = &self.overload {
            proxy = Arc::new(OverloadSmsProxy::new(
                proxy,
                self.device(),
                o.policy.clone(),
                Arc::clone(&o.metrics),
            ));
        }
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedSmsProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Proxy,
                self.platform_id().id(),
            ));
        }
        Ok(proxy)
    }

    fn build_call(&self) -> Result<Arc<dyn CallProxy>, ProxyError> {
        if !self.supports("Call") {
            return Err(self.unsupported("Call"));
        }
        let mut proxy: Arc<dyn CallProxy> = match &self.target {
            Target::Android(ctx) => {
                let proxy = AndroidCallProxy::new();
                proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
                Arc::new(proxy)
            }
            Target::S60(_) => return Err(self.unsupported("Call")),
            Target::WebView(webview) => Arc::new(WebViewCallProxy::new(webview)?),
        };
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedCallProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Binding,
                self.platform_id().id(),
            ));
        }
        if let Some(r) = &self.resilience {
            proxy = Arc::new(ResilientCallProxy::new(
                proxy,
                self.device(),
                r.policy.clone(),
                Arc::clone(&r.metrics),
            ));
        }
        if let Some(o) = &self.overload {
            proxy = Arc::new(OverloadCallProxy::new(
                proxy,
                self.device(),
                o.policy.clone(),
                Arc::clone(&o.metrics),
            ));
        }
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedCallProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Proxy,
                self.platform_id().id(),
            ));
        }
        Ok(proxy)
    }

    fn build_http(&self) -> Result<Arc<dyn HttpProxy>, ProxyError> {
        if !self.supports("Http") {
            return Err(self.unsupported("Http"));
        }
        let mut proxy: Arc<dyn HttpProxy> = match &self.target {
            Target::Android(ctx) => {
                let proxy = AndroidHttpProxy::new();
                proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
                Arc::new(proxy)
            }
            Target::S60(platform) => Arc::new(S60HttpProxy::new(platform.clone())),
            Target::WebView(webview) => Arc::new(WebViewHttpProxy::new(webview)?),
        };
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedHttpProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Binding,
                self.platform_id().id(),
            ));
        }
        if let Some(r) = &self.resilience {
            proxy = Arc::new(ResilientHttpProxy::new(
                proxy,
                self.device(),
                r.policy.clone(),
                Arc::clone(&r.metrics),
            ));
        }
        if let Some(j) = &self.journal {
            proxy = Arc::new(JournaledHttpProxy::new(proxy, Arc::clone(&j.engine)));
        }
        if let Some(o) = &self.overload {
            proxy = Arc::new(OverloadHttpProxy::new(
                proxy,
                self.device(),
                o.policy.clone(),
                Arc::clone(&o.metrics),
            ));
        }
        if let Some(t) = &self.telemetry {
            proxy = Arc::new(TracedHttpProxy::new(
                proxy,
                self.device(),
                t,
                Plane::Proxy,
                self.platform_id().id(),
            ));
        }
        Ok(proxy)
    }

    fn build_contacts(&self) -> Result<Arc<dyn ContactsProxy>, ProxyError> {
        if !self.supports("Contacts") {
            return Err(self.unsupported("Contacts"));
        }
        let mut proxy: Arc<dyn ContactsProxy> = match &self.target {
            Target::Android(ctx) => {
                let proxy = AndroidContactsProxy::new();
                proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
                Arc::new(proxy)
            }
            Target::S60(platform) => Arc::new(S60ContactsProxy::new(platform.clone())),
            Target::WebView(_) => return Err(self.unsupported("Contacts")),
        };
        if let Some(c) = &self.cache {
            proxy = Arc::new(CachedContactsProxy::new(
                proxy,
                self.device(),
                &c.policy,
                Arc::clone(&c.metrics),
            ));
        }
        Ok(proxy)
    }

    fn build_calendar(&self) -> Result<Arc<dyn CalendarProxy>, ProxyError> {
        if !self.supports("Calendar") {
            return Err(self.unsupported("Calendar"));
        }
        let mut proxy: Arc<dyn CalendarProxy> = match &self.target {
            Target::Android(ctx) => {
                let proxy = AndroidCalendarProxy::new();
                proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
                Arc::new(proxy)
            }
            Target::S60(platform) => Arc::new(S60CalendarProxy::new(platform.clone())),
            Target::WebView(_) => return Err(self.unsupported("Calendar")),
        };
        if let Some(c) = &self.cache {
            proxy = Arc::new(CachedCalendarProxy::new(
                proxy,
                self.device(),
                &c.policy,
                Arc::clone(&c.metrics),
            ));
        }
        Ok(proxy)
    }
}

/// Composable construction of a [`Mobivine`] runtime.
///
/// The legacy surface requires a fixed sequence — a `for_*` constructor
/// first, then `with_resilience` / `with_telemetry` in an order the
/// caller must get right. The builder accepts platform selection,
/// resilience, telemetry and a shared catalog **in any order** and
/// applies them canonically in [`MobivineBuilder::build`] (telemetry is
/// wired before resilience so the resilience counters always land on
/// the telemetry registry when both are present).
///
/// # Example
///
/// ```
/// use mobivine::registry::Mobivine;
/// use mobivine::resilience::ResiliencePolicy;
/// use mobivine_android::{AndroidPlatform, SdkVersion};
/// use mobivine_device::Device;
///
/// let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
/// // Options first, platform last — any order works.
/// let runtime = Mobivine::builder()
///     .with_resilience(ResiliencePolicy::default())
///     .with_telemetry()
///     .android(platform.new_context())
///     .build()?;
/// assert!(runtime.tracer().is_some());
/// assert!(runtime.resilience_metrics().is_some());
/// # Ok::<(), mobivine::error::ProxyError>(())
/// ```
#[derive(Default)]
pub struct MobivineBuilder {
    target: Option<Target>,
    catalog: Option<Arc<Vec<ProxyDescriptor>>>,
    resilience: Option<ResiliencePolicy>,
    overload: Option<OverloadPolicy>,
    cache: Option<CachePolicy>,
    journal: Option<JournalPolicy>,
    /// Span retention per worker ring, when telemetry is enabled.
    telemetry: Option<usize>,
    /// Tail-based promotion policy override, when telemetry is enabled.
    promotion: Option<PromotionPolicy>,
    slo: Option<Arc<SloEngine>>,
}

impl fmt::Debug for MobivineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MobivineBuilder")
            .field("target", &self.target.is_some())
            .field("resilience", &self.resilience.is_some())
            .field("overload", &self.overload.is_some())
            .field("cache", &self.cache.is_some())
            .field("journal", &self.journal.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl MobivineBuilder {
    /// Targets an Android application context.
    #[must_use]
    pub fn android(mut self, ctx: Context) -> Self {
        self.target = Some(Target::Android(ctx));
        self
    }

    /// Targets an S60 platform.
    #[must_use]
    pub fn s60(mut self, platform: S60Platform) -> Self {
        self.target = Some(Target::S60(platform));
        self
    }

    /// Targets a WebView page. The Java wrappers are installed at
    /// [`MobivineBuilder::build`] time.
    #[must_use]
    pub fn webview(mut self, webview: Arc<WebView>) -> Self {
        self.target = Some(Target::WebView(webview));
        self
    }

    /// Uses `catalog` instead of the process-wide standard one
    /// ([`mobivine_proxydl::catalog::shared_catalog`], the default).
    /// Fleet shards pass their own `Arc` to every runtime they own, so
    /// each shard's runtimes answer [`Mobivine::supports`] from one
    /// allocation.
    #[must_use]
    pub fn catalog(mut self, catalog: Arc<Vec<ProxyDescriptor>>) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Enables the resilience layer (see [`Mobivine::with_resilience`]).
    #[must_use]
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = Some(policy);
        self
    }

    /// Enables overload protection (see [`Mobivine::with_overload`]).
    #[must_use]
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Enables the read-through cache layer (see
    /// [`Mobivine::with_cache`]).
    #[must_use]
    pub fn with_cache(mut self, policy: CachePolicy) -> Self {
        self.cache = Some(policy);
        self
    }

    /// Enables the durability layer (see [`Mobivine::with_journal`]).
    #[must_use]
    pub fn with_journal(mut self, policy: JournalPolicy) -> Self {
        self.journal = Some(policy);
        self
    }

    /// Enables plane-aware telemetry (see [`Mobivine::with_telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = Some(mobivine_telemetry::DEFAULT_SPAN_RETENTION);
        self
    }

    /// Enables telemetry with a bounded per-worker span retention (see
    /// [`Mobivine::with_telemetry_retention`]).
    #[must_use]
    pub fn with_telemetry_retention(mut self, span_retention: usize) -> Self {
        self.telemetry = Some(span_retention);
        self
    }

    /// Overrides the flight recorder's tail-based promotion policy (see
    /// [`Mobivine::with_telemetry_recorder`]). Implies telemetry at the
    /// default retention unless `with_telemetry_retention` also runs.
    #[must_use]
    pub fn with_promotion_policy(mut self, policy: PromotionPolicy) -> Self {
        self.telemetry
            .get_or_insert(mobivine_telemetry::DEFAULT_SPAN_RETENTION);
        self.promotion = Some(policy);
        self
    }

    /// Attaches a declarative SLO engine (see [`Mobivine::with_slo`]).
    #[must_use]
    pub fn with_slo(mut self, engine: Arc<SloEngine>) -> Self {
        self.slo = Some(engine);
        self
    }

    /// Builds the runtime, applying the configured options in canonical
    /// order regardless of the order the builder methods were called.
    ///
    /// # Errors
    ///
    /// `IllegalArgument` if no platform target was selected.
    pub fn build(self) -> Result<Mobivine, ProxyError> {
        let Some(target) = self.target else {
            return Err(ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                "MobivineBuilder needs a platform target: call android(), s60() or webview()",
            ));
        };
        let mut runtime = match target {
            Target::Android(ctx) => Mobivine::for_android(ctx),
            Target::S60(platform) => Mobivine::for_s60(platform),
            Target::WebView(webview) => Mobivine::for_webview(webview),
        };
        if let Some(catalog) = self.catalog {
            runtime.catalog = catalog;
        }
        if let Some(engine) = self.slo {
            runtime = runtime.with_slo(engine);
        }
        if let Some(span_retention) = self.telemetry {
            let policy = self.promotion.unwrap_or_default();
            runtime = runtime.with_telemetry_recorder(span_retention, policy);
        }
        if let Some(policy) = self.resilience {
            runtime = runtime.with_resilience(policy);
        }
        if let Some(policy) = self.journal {
            runtime = runtime.with_journal(policy);
        }
        if let Some(policy) = self.overload {
            runtime = runtime.with_overload(policy);
        }
        if let Some(policy) = self.cache {
            runtime = runtime.with_cache(policy);
        }
        Ok(runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::Device;

    fn android_runtime() -> Mobivine {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        Mobivine::for_android(platform.new_context())
    }

    #[test]
    fn android_supports_all_paper_interfaces() {
        let runtime = android_runtime();
        for interface in ["Location", "SMS", "Call", "Http", "Contacts", "Calendar"] {
            assert!(runtime.supports(interface), "{interface}");
        }
        assert!(runtime.proxy::<dyn LocationProxy>().is_ok());
        assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
        assert!(runtime.proxy::<dyn CallProxy>().is_ok());
        assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
        assert!(runtime.proxy::<dyn ContactsProxy>().is_ok());
        assert!(runtime.proxy::<dyn CalendarProxy>().is_ok());
    }

    #[test]
    fn s60_has_no_call_proxy() {
        let runtime = Mobivine::for_s60(S60Platform::new(Device::builder().build()));
        assert!(!runtime.supports("Call"));
        assert!(!runtime.supports_kind(ProxyKind::Call));
        let err = match runtime.proxy::<dyn CallProxy>() {
            Err(err) => err,
            Ok(_) => panic!("call proxy must not exist on S60"),
        };
        assert_eq!(err.kind(), ProxyErrorKind::UnsupportedOnPlatform);
        assert!(runtime.proxy::<dyn LocationProxy>().is_ok());
        assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
        assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
    }

    #[test]
    fn webview_runtime_installs_wrappers() {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(platform.new_context()));
        let runtime = Mobivine::for_webview(Arc::clone(&webview));
        assert_eq!(webview.interface_names().len(), 4);
        assert!(runtime.proxy::<dyn LocationProxy>().is_ok());
        assert!(runtime.proxy::<dyn CallProxy>().is_ok());
        assert!(runtime.proxy::<dyn ContactsProxy>().is_err());
    }

    #[test]
    fn platform_ids_reported() {
        assert_eq!(android_runtime().platform_id(), PlatformId::Android);
        assert_eq!(
            Mobivine::for_s60(S60Platform::new(Device::builder().build())).platform_id(),
            PlatformId::NokiaS60
        );
    }

    #[test]
    fn catalog_is_the_standard_one() {
        assert_eq!(android_runtime().catalog().len(), 6);
    }

    #[test]
    fn proxy_kind_names_cover_the_catalog() {
        let runtime = android_runtime();
        for kind in ProxyKind::ALL {
            assert!(
                runtime.catalog().iter().any(|d| d.name == kind.interface()),
                "catalog names {kind}"
            );
        }
    }

    #[test]
    fn resolution_is_memoized_per_kind() {
        let runtime = android_runtime();
        let first = runtime.proxy::<dyn LocationProxy>().unwrap();
        let second = runtime.proxy::<dyn LocationProxy>().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same cached instance");
        // Distinct runtimes have distinct caches.
        let other = android_runtime().proxy::<dyn LocationProxy>().unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn failed_resolution_is_not_cached() {
        let runtime = Mobivine::for_s60(S60Platform::new(Device::builder().build()));
        assert!(runtime.proxy::<dyn CallProxy>().is_err());
        assert_eq!(runtime.resolved.resolved_count(), 0);
        assert!(runtime.proxy::<dyn CallProxy>().is_err());
    }

    #[test]
    fn warm_resolves_every_supported_kind() {
        let runtime = android_runtime();
        assert_eq!(runtime.warm().unwrap(), 6);
        assert_eq!(runtime.resolved.resolved_count(), 6);

        let s60 = Mobivine::for_s60(S60Platform::new(Device::builder().build()));
        assert_eq!(s60.warm().unwrap(), 5, "everything but Call");
    }

    #[test]
    fn with_resilience_pre_wraps_proxies_on_every_platform() {
        let device = Device::builder().build();
        let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(android.new_context()));
        let runtimes = [
            Mobivine::for_android(android.new_context()),
            Mobivine::for_s60(S60Platform::new(device.clone())),
            Mobivine::for_webview(webview),
        ];
        for runtime in runtimes {
            let runtime = runtime.with_resilience(ResiliencePolicy::default());
            let metrics = runtime.resilience_metrics().expect("metrics installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            // The resilience property plane answers on the wrapped
            // proxy — proof the decorator is in front on this platform.
            location
                .set_property("retry.max_attempts", PropertyValue::Int(7))
                .unwrap();
            let _ = location.get_location();
            assert_eq!(
                metrics.snapshot().calls,
                1,
                "call flowed through the decorator on {:?}",
                runtime.platform_id()
            );
            assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
            assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
        }
    }

    #[test]
    fn runtime_without_resilience_reports_no_metrics() {
        assert!(android_runtime().resilience_metrics().is_none());
        assert!(android_runtime().overload_metrics().is_none());
    }

    #[test]
    fn with_overload_pre_wraps_proxies_on_every_platform() {
        let device = Device::builder().build();
        let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(android.new_context()));
        let runtimes = [
            Mobivine::for_android(android.new_context()),
            Mobivine::for_s60(S60Platform::new(device.clone())),
            Mobivine::for_webview(webview),
        ];
        for runtime in runtimes {
            let runtime = runtime.with_overload(OverloadPolicy::default());
            let metrics = runtime.overload_metrics().expect("metrics installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            // The overload property plane answers on the wrapped proxy
            // — proof the decorator is in front on this platform.
            location
                .set_property("bulkhead.max_concurrency", PropertyValue::Int(3))
                .unwrap();
            let _ = location.get_location();
            assert_eq!(
                metrics.snapshot().admitted,
                1,
                "call was admitted through the gate on {:?}",
                runtime.platform_id()
            );
            assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
            assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
        }
    }

    #[test]
    fn overload_sits_outside_resilience_and_homes_on_the_telemetry_registry() {
        let builder_runtime = Mobivine::builder()
            .with_telemetry()
            .with_resilience(ResiliencePolicy::default())
            .with_overload(OverloadPolicy::default())
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .build()
            .unwrap();
        let overload = builder_runtime.overload_metrics().expect("overload");
        let resilience = builder_runtime.resilience_metrics().expect("resilience");
        let location = builder_runtime.proxy::<dyn LocationProxy>().unwrap();
        let _ = location.get_location();
        // One call traverses admission first, then the retry engine.
        assert_eq!(overload.snapshot().admitted, 1);
        assert_eq!(resilience.snapshot().calls, 1);
        let exposition = builder_runtime
            .telemetry_metrics()
            .expect("telemetry registry")
            .render_prometheus();
        assert!(
            exposition.contains("overload_admitted_total"),
            "overload series on the telemetry registry:\n{exposition}"
        );
    }

    #[test]
    fn builder_composes_in_any_order() {
        // Separate devices: resilience counters land on each device's
        // own telemetry registry, so the assertions don't alias.
        let option_first = Mobivine::builder()
            .with_telemetry()
            .with_resilience(ResiliencePolicy::default())
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .build()
            .unwrap();
        let platform_first = Mobivine::builder()
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .with_resilience(ResiliencePolicy::default())
            .with_telemetry()
            .build()
            .unwrap();

        for runtime in [option_first, platform_first] {
            assert!(runtime.tracer().is_some());
            let metrics = runtime.resilience_metrics().expect("resilience installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            let _ = location.get_location();
            assert_eq!(metrics.snapshot().calls, 1);
            // Resilience counters are homed on the telemetry registry
            // regardless of builder-call order.
            let exposition = runtime
                .telemetry_metrics()
                .expect("telemetry registry")
                .render_prometheus();
            assert!(
                exposition.contains("resilience"),
                "resilience series on the telemetry registry:\n{exposition}"
            );
        }
    }

    #[test]
    fn slo_composes_in_any_order_and_incidents_are_reachable() {
        use mobivine_telemetry::{SloObjective, SloTarget};

        let objectives = || {
            vec![SloObjective {
                name: "location-availability".into(),
                proxy: "Location".into(),
                method: "getLocation".into(),
                platform: "android".into(),
                target: SloTarget::Availability {
                    target_ppm: 999_000,
                },
            }]
        };
        let slo_first = Mobivine::builder()
            .with_slo(Arc::new(SloEngine::new(objectives())))
            .with_telemetry()
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .build()
            .unwrap();
        let telemetry_first = Mobivine::for_android(
            AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
        )
        .with_telemetry()
        .with_slo(Arc::new(SloEngine::new(objectives())));

        for runtime in [slo_first, telemetry_first] {
            let engine = Arc::clone(runtime.slo_engine().expect("slo engine"));
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            location.get_location().unwrap();
            let report = engine.report(1);
            assert_eq!(
                report.statuses[0].fast.good, 1,
                "proxy plane feeds the engine regardless of wiring order"
            );
            assert!(runtime.incidents().expect("incident store").is_empty());
        }
    }

    #[test]
    fn builder_without_platform_is_an_error() {
        let err = match Mobivine::builder().with_telemetry().build() {
            Err(err) => err,
            Ok(_) => panic!("platformless build must fail"),
        };
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn builder_shares_a_caller_provided_catalog() {
        let device = Device::builder().build();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let catalog = Arc::new(mobivine_proxydl::catalog::standard_catalog());
        let a = Mobivine::builder()
            .catalog(Arc::clone(&catalog))
            .android(platform.new_context())
            .build()
            .unwrap();
        let b = Mobivine::builder()
            .catalog(Arc::clone(&catalog))
            .s60(S60Platform::new(device))
            .build()
            .unwrap();
        assert!(std::ptr::eq(a.catalog().as_ptr(), b.catalog().as_ptr()));
    }

    #[test]
    fn with_cache_serves_the_second_read_without_binding_work() {
        let device = Device::builder().build();
        let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(android.new_context()));
        let runtimes = [
            Mobivine::for_android(android.new_context()),
            Mobivine::for_s60(S60Platform::new(device.clone())),
            Mobivine::for_webview(webview),
        ];
        for runtime in runtimes {
            let runtime = runtime.with_cache(CachePolicy::default());
            let metrics = runtime.cache_metrics().expect("metrics installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            location.get_location().unwrap();
            location.get_location().unwrap();
            let snap = metrics.snapshot();
            assert_eq!(
                (snap.miss, snap.hit),
                (1, 1),
                "second read served hot on {:?}",
                runtime.platform_id()
            );
        }
    }

    #[test]
    fn with_journal_dedups_sms_and_stamps_http_urls() {
        use crate::journal::{with_idempotency_key, IdempotencyKey, JournalPolicy};

        let device = Device::builder().build();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let runtime = Mobivine::builder()
            .with_resilience(ResiliencePolicy::default())
            .with_journal(JournalPolicy::default())
            .android(platform.new_context())
            .build()
            .unwrap();
        let metrics = runtime.journal_metrics().expect("journal installed");
        let resilience = runtime.resilience_metrics().expect("resilience installed");
        let sms = runtime.proxy::<dyn SmsProxy>().unwrap();

        let key = IdempotencyKey::derive(7, 1, 1, 0);
        let first = with_idempotency_key(key, || sms.send_text_message("100", "hi", None));
        let second = with_idempotency_key(key, || sms.send_text_message("100", "hi", None));
        let (first, second) = (first.unwrap(), second.unwrap());
        assert_eq!(first, second, "duplicate answered with the memoized id");
        let snap = metrics.snapshot();
        assert_eq!(snap.appends, 1, "one logical send, one intent");
        assert_eq!(snap.fsyncs, 1);
        assert_eq!(snap.already_applied, 1, "the duplicate was counted");
        assert_eq!(
            resilience.snapshot().calls,
            1,
            "the duplicate never reached the retry engine — Journaled sits outside Resilient"
        );

        // A fresh key is a fresh logical call.
        let other = IdempotencyKey::derive(7, 1, 2, 0);
        let third = with_idempotency_key(other, || sms.send_text_message("100", "hi", None));
        assert_ne!(first, third.unwrap());
        assert_eq!(metrics.snapshot().appends, 2);
    }

    #[test]
    fn journaled_http_carries_the_idempotency_key_on_the_wire() {
        use crate::journal::{with_idempotency_key, IdempotencyKey, JournalPolicy};
        use std::sync::Mutex;

        let device = Device::builder().build();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_by_route = Arc::clone(&seen);
        device.network().register_route(
            "backend.example",
            mobivine_device::net::Method::Post,
            "/submit",
            move |req: &mobivine_device::net::HttpRequest| {
                seen_by_route.lock().unwrap().push(req.url.query.clone());
                mobivine_device::net::HttpResponse::ok(b"{}".to_vec())
            },
        );
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let runtime = Mobivine::builder()
            .with_journal(JournalPolicy::default())
            .android(platform.new_context())
            .build()
            .unwrap();
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();

        let key = IdempotencyKey::derive(7, 2, 1, 0);
        let res = with_idempotency_key(key, || {
            http.request("POST", "http://backend.example/submit", b"{}")
        })
        .unwrap();
        assert!(res.is_success());
        // Keyless requests stay unstamped.
        http.request("POST", "http://backend.example/submit", b"{}")
            .unwrap();
        let queries = seen.lock().unwrap().clone();
        assert_eq!(
            queries,
            vec![Some(format!("idem={}", key.to_hex())), None],
            "the key travels as the idem query parameter"
        );
        assert_eq!(runtime.journal_metrics().unwrap().snapshot().appends, 2);
    }

    /// Pins the canonical decorator layering,
    /// `Traced(Proxy) → Cached → Overload → Resilient →
    /// Traced(Binding)`, for every wiring order: a cache hit must cost
    /// no admission (Cached outside Overload), a miss must pass the
    /// gate exactly once, and the cache counters must land on the
    /// telemetry registry whichever call came first.
    #[test]
    fn decorator_layering_is_canonical_regardless_of_wiring_order() {
        let runtime_for = |n: usize| {
            let ctx =
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context();
            match n {
                // Builder, options before platform.
                0 => Mobivine::builder()
                    .with_cache(CachePolicy::default())
                    .with_overload(OverloadPolicy::default())
                    .with_resilience(ResiliencePolicy::default())
                    .with_telemetry()
                    .android(ctx)
                    .build()
                    .unwrap(),
                // Builder, reversed option order.
                1 => Mobivine::builder()
                    .android(ctx)
                    .with_telemetry()
                    .with_resilience(ResiliencePolicy::default())
                    .with_overload(OverloadPolicy::default())
                    .with_cache(CachePolicy::default())
                    .build()
                    .unwrap(),
                // Legacy chain, cache wired before telemetry — the
                // re-homing path.
                _ => Mobivine::for_android(ctx)
                    .with_cache(CachePolicy::default())
                    .with_overload(OverloadPolicy::default())
                    .with_resilience(ResiliencePolicy::default())
                    .with_telemetry(),
            }
        };
        for n in 0..3 {
            let runtime = runtime_for(n);
            let cache = runtime.cache_metrics().expect("cache installed");
            let overload = runtime.overload_metrics().expect("overload installed");
            let resilience = runtime.resilience_metrics().expect("resilience installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            location.get_location().unwrap();
            location.get_location().unwrap();
            let (c, o, r) = (cache.snapshot(), overload.snapshot(), resilience.snapshot());
            assert_eq!((c.miss, c.hit), (1, 1), "order {n}: one fill, one hit");
            assert_eq!(
                o.admitted, 1,
                "order {n}: the hit bypassed admission — Cached sits outside Overload"
            );
            assert_eq!(
                r.calls, 1,
                "order {n}: the hit spent no retry budget — Cached sits outside Resilient"
            );
            let exposition = runtime
                .telemetry_metrics()
                .expect("telemetry registry")
                .render_prometheus();
            assert!(
                exposition.contains("cache_hit_total"),
                "order {n}: cache series homed on the telemetry registry:\n{exposition}"
            );
        }
    }
}
