//! Plane-aware telemetry for the M-Proxy call path.
//!
//! The paper's layering — application → M-Proxy semantic plane →
//! enrichment → binding plane → platform module — is exactly the shape
//! an observability pipeline wants to see: every uniform call descends
//! the same stack on every platform, so one span per layer yields
//! directly comparable traces across Android, S60 and the WebView.
//!
//! This module provides the core-side instrumentation:
//!
//! * [`TelemetryRuntime`] — one [`Tracer`] plus one shared
//!   [`MetricsRegistry`] (the device's, so device subsystems and
//!   middleware publish into the same registry),
//! * the traced stage's per-plane kit, which the layered proxy stack
//!   (see [`crate::registry`]) installs **twice** per proxy: once at
//!   the outermost semantic plane ([`Plane::Proxy`]) and once at the
//!   binding plane ([`Plane::Binding`]) below the resilience stage — so
//!   retries show up as multiple binding-plane child spans under one
//!   proxy-plane span.
//!
//! The proxy plane also feeds the metrics registry: a
//! `proxy_calls_total` / `proxy_errors_total` counter pair and a
//! `proxy_call_ms` latency histogram, all labelled
//! `(proxy, method, platform)`.
//!
//! **The per-call path performs no heap allocation and takes no global
//! lock.** Span names are compile-time strings, and everything else
//! string-shaped is resolved once, at wiring time
//! (`Mobivine::with_telemetry`): at the proxy plane each method gets a
//! [`CallInstruments`] bundle of pre-resolved counter/histogram
//! handles. A traced call is then: copy two static span names, two or
//! three atomic increments, one histogram bucket add, and a record
//! moved into a per-thread span ring. `Labels::call` must never appear
//! inside the per-call path (CI greps for it); it belongs in
//! [`CallInstruments::resolve`] alone.
//!
//! The proxy plane also closes the incident-debugging loop: it stamps
//! `deadline = blown` on the span when the ambient
//! [`crate::overload::Deadline`] expired mid-call (so the flight
//! recorder's tail-based policy can promote the trace), attaches the
//! promoted trace id to the latency histogram bucket as an OpenMetrics
//! exemplar, and feeds `(ok, latency)` into any [`SloEngine`]
//! objectives watching the series — all through handles resolved at
//! wiring time, so the healthy warmed path stays allocation-free.
//!
//! Spans parent implicitly through the ambient span stack
//! ([`mobivine_telemetry::span::ambient`]): if the application opened
//! its own root span the proxy call nests under it; otherwise the
//! proxy-plane stage starts a fresh trace.

use std::sync::Arc;

use mobivine_device::{Device, SimClock};
use mobivine_telemetry::recorder::take_promotion;
use mobivine_telemetry::span::{ambient, ActiveSpan, Plane, SpanName, DEFAULT_SPAN_RETENTION};
use mobivine_telemetry::{
    Counter, Histogram, IncidentStore, Labels, MetricsRegistry, PromotionPolicy, Recorder,
    RecorderCounters, SloEngine, SloRecorder, Tracer,
};

use crate::error::{ProxyError, ProxyErrorKind};
use crate::stack::{Kind, Method};

/// One runtime's telemetry wiring: the tracer collecting span records
/// (with its flight-recorder promotion policy), the metrics registry
/// every layer publishes into, and — when configured — the SLO engine
/// grading proxy-plane outcomes against declared objectives.
#[derive(Clone)]
pub struct TelemetryRuntime {
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    slo: Option<Arc<SloEngine>>,
}

impl TelemetryRuntime {
    /// Creates a runtime collecting spans into a fresh [`Tracer`] and
    /// metrics into `metrics` (usually the device's registry, so the
    /// whole call path shares one exporter surface). The flight
    /// recorder is on by default with [`PromotionPolicy::default`]:
    /// errored and deadline-blown traces are promoted into the
    /// incident store before ring wrap-around can overwrite them.
    pub fn new(metrics: Arc<MetricsRegistry>) -> Self {
        Self::with_retention(metrics, DEFAULT_SPAN_RETENTION)
    }

    /// Like [`TelemetryRuntime::new`], but the tracer's per-thread
    /// span rings keep at most `span_retention` records each — the
    /// knob fleet-scale runs use to bound trace memory per device.
    pub fn with_retention(metrics: Arc<MetricsRegistry>, span_retention: usize) -> Self {
        Self::with_recorder(metrics, span_retention, PromotionPolicy::default())
    }

    /// Full-control constructor: span retention plus an explicit
    /// tail-based [`PromotionPolicy`]. The recorder's health counters
    /// (`telemetry_spans_evicted_total`,
    /// `telemetry_traces_promoted_total`,
    /// `telemetry_promotions_dropped_total`) are resolved against
    /// `metrics` here, once, so bumping them on the call path is pure
    /// atomics.
    pub fn with_recorder(
        metrics: Arc<MetricsRegistry>,
        span_retention: usize,
        policy: PromotionPolicy,
    ) -> Self {
        let tracer = Tracer::with_recorder(span_retention, Recorder::new(policy));
        let none = Labels::empty();
        tracer.install_counters(RecorderCounters {
            evicted: metrics.counter("telemetry_spans_evicted_total", &none),
            promoted: metrics.counter("telemetry_traces_promoted_total", &none),
            promoted_dropped: metrics.counter("telemetry_promotions_dropped_total", &none),
        });
        Self {
            tracer,
            metrics,
            slo: None,
        }
    }

    /// Attaches an SLO engine; proxy-plane stages wired after this
    /// call feed every finished call's `(ok, latency)` into the
    /// engine's matching objectives.
    pub fn with_slo(mut self, slo: Arc<SloEngine>) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The tracer holding every finished span.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The SLO engine, when one was attached via
    /// [`TelemetryRuntime::with_slo`].
    pub fn slo(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    /// The bounded store of promoted (incident) traces, when the
    /// tracer carries a flight recorder — always the case for runtimes
    /// built through this type's constructors.
    pub fn incidents(&self) -> Option<&Arc<IncidentStore>> {
        self.tracer.incident_store()
    }
}

/// The static name of an error kind, for the span `error` attribute.
/// Matches the `Debug` rendering the attribute used to carry, without
/// the per-error `format!`.
pub(crate) fn kind_name(kind: ProxyErrorKind) -> &'static str {
    match kind {
        ProxyErrorKind::Security => "Security",
        ProxyErrorKind::IllegalArgument => "IllegalArgument",
        ProxyErrorKind::Unavailable => "Unavailable",
        ProxyErrorKind::Io => "Io",
        ProxyErrorKind::UnsupportedOnPlatform => "UnsupportedOnPlatform",
        ProxyErrorKind::UnknownProperty => "UnknownProperty",
        ProxyErrorKind::BadPropertyValue => "BadPropertyValue",
        ProxyErrorKind::MissingProperty => "MissingProperty",
        ProxyErrorKind::PolicyDenied => "PolicyDenied",
        ProxyErrorKind::CircuitOpen => "CircuitOpen",
        ProxyErrorKind::DeadlineExceeded => "DeadlineExceeded",
        ProxyErrorKind::Overloaded => "Overloaded",
        ProxyErrorKind::AlreadyApplied => "AlreadyApplied",
    }
}

/// The pre-resolved metric handles for one `(proxy, method, platform)`
/// series: the call/error counter pair and the latency histogram the
/// proxy plane publishes. Resolved once at wiring time; recording
/// through them is pure atomics.
struct CallInstruments {
    calls: Counter,
    errors: Counter,
    latency: Histogram,
}

impl CallInstruments {
    /// The only sanctioned `Labels::call` construction on the traced
    /// path — everything downstream reuses these handles.
    fn resolve(
        metrics: &MetricsRegistry,
        proxy: &'static str,
        method: &'static str,
        platform: &str,
    ) -> Self {
        let labels = Labels::call(proxy, method, platform);
        Self {
            calls: metrics.counter("proxy_calls_total", &labels),
            errors: metrics.counter("proxy_errors_total", &labels),
            latency: metrics.histogram("proxy_call_ms", &labels),
        }
    }
}

/// One method's proxy-plane state: its metric handles and the SLO
/// recorder feeding whichever declared objectives watch this `(proxy,
/// method, platform)` series.
struct MethodInstrument {
    instruments: CallInstruments,
    slo: Option<SloRecorder>,
}

/// The traced stage's kit for one plane of one stack: where to time,
/// trace and count. Span names are the compile-time strings of each
/// [`Method`]; metric handles are resolved in [`Instrument::new`]; the
/// per-call [`Instrument::traced`] only copies symbols and bumps
/// atomics.
pub(crate) struct Instrument {
    clock: SimClock,
    tracer: Tracer,
    plane: Plane,
    platform: SpanName,
    /// Proxy plane only: one entry per method, indexed by
    /// [`Method::index`]. Empty at the binding plane.
    methods: Vec<MethodInstrument>,
}

impl Instrument {
    /// Instruments every method of interface `P` at `plane`, timing
    /// against the device's simulated `clock` and reporting through
    /// `runtime`.
    pub(crate) fn new<P: ?Sized + Kind>(
        clock: &SimClock,
        runtime: &TelemetryRuntime,
        plane: Plane,
        platform: SpanName,
    ) -> Self {
        let proxy = P::KIND.interface();
        let methods = if plane == Plane::Proxy {
            P::METHODS
                .iter()
                .map(|m| MethodInstrument {
                    instruments: CallInstruments::resolve(
                        &runtime.metrics,
                        proxy,
                        m.name,
                        &platform,
                    ),
                    slo: runtime
                        .slo
                        .as_ref()
                        .map(|engine| engine.recorder(proxy, m.name, &platform))
                        .filter(|recorder| !recorder.is_empty()),
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            clock: clock.clone(),
            tracer: runtime.tracer.clone(),
            plane,
            platform,
            methods,
        }
    }

    /// Runs one proxy call inside a span; the proxy plane additionally
    /// publishes call/error counters, the latency histogram (with an
    /// OpenMetrics exemplar when the call's trace was just promoted),
    /// and the SLO recorder for this series.
    ///
    /// The span is ended *before* the latency record so that when this
    /// span is a trace root, the flight recorder's tail-based
    /// classification has already run — [`take_promotion`] then hands
    /// back the promoted [`mobivine_telemetry::TraceId`] to pin on the
    /// latency bucket as an exemplar.
    pub(crate) fn traced<T>(
        &self,
        method: &Method,
        call: impl FnOnce() -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        let (name, entry) = match self.plane {
            Plane::Proxy => (method.proxy, Some(&self.methods[method.index])),
            _ => (method.binding, None),
        };
        let now = self.clock.now_ms();
        let mut span = ambient::child(name, self.plane, now)
            .unwrap_or_else(|| self.tracer.root(name, self.plane, now));
        span.attr("platform", self.platform.clone());
        let result = call();
        let end = self.clock.now_ms();
        if let Err(e) = &result {
            span.attr("error", kind_name(e.kind()));
        }
        if entry.is_some() {
            if let Some(deadline) = crate::overload::current_deadline() {
                if end > deadline.expires_at_ms() {
                    span.attr("deadline", "blown");
                }
            }
        }
        span.end(end);
        if let Some(MethodInstrument { instruments, slo }) = entry {
            instruments.calls.inc();
            if result.is_err() {
                instruments.errors.inc();
            }
            let latency = end.saturating_sub(now);
            instruments.latency.record(latency);
            if let Some(trace_id) = take_promotion(&self.tracer) {
                instruments.latency.attach_exemplar(latency, trace_id);
            }
            if let Some(slo) = slo {
                slo.record(end, result.is_ok(), latency);
            }
        }
        result
    }
}

/// The span a gating stage (resilience, overload, cache) records around
/// its work, as a child of the ambient trace. With no trace open it
/// holds nothing and every method is a no-op, so the untraced path
/// stays free.
pub(crate) struct StageSpan(Option<ActiveSpan>);

impl StageSpan {
    /// Opens the compile-time span `name` on `device`'s clock — or
    /// nothing, without reading the clock, when no trace is open.
    pub(crate) fn open(name: &'static str, device: &Device) -> Self {
        if !ambient::is_active() {
            return Self(None);
        }
        Self(ambient::child(name, Plane::Resilience, device.now_ms()))
    }

    /// Records the point event `name` at `at_ms`.
    pub(crate) fn event(&mut self, name: &str, at_ms: u64) {
        if let Some(span) = &mut self.0 {
            span.event(name, at_ms);
        }
    }

    /// Attaches a static annotation.
    pub(crate) fn attr(&mut self, key: &'static str, value: &'static str) {
        if let Some(span) = &mut self.0 {
            span.attr(key, value);
        }
    }

    /// The open span, for annotations worth building only when traced.
    pub(crate) fn traced(&mut self) -> Option<&mut ActiveSpan> {
        self.0.as_mut()
    }

    /// Closes the span on `device`'s clock, tagged with the error kind
    /// when the stage failed.
    pub(crate) fn close(self, error: Option<&ProxyError>, device: &Device) {
        if let Some(mut span) = self.0 {
            if let Some(e) = error {
                span.attr("error", kind_name(e.kind()));
            }
            span.end(device.now_ms());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HttpProxy, LocationProxy, ProxyBase};
    use crate::property::PropertyValue;
    use crate::stack::{Kind, Layers, Stack};
    use crate::types::{HttpResult, Location, SharedProximityListener};
    use mobivine_telemetry::export::{chrome_trace_json, validate_chrome_trace};
    use mobivine_telemetry::span::validate_tree;

    struct FixedLocation;

    impl ProxyBase for FixedLocation {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl LocationProxy for FixedLocation {
        fn add_proximity_alert(
            &self,
            _latitude: f64,
            _longitude: f64,
            _altitude: f64,
            _radius: f64,
            _timer_s: i64,
            _listener: SharedProximityListener,
        ) -> Result<(), ProxyError> {
            Ok(())
        }

        fn remove_proximity_alert(
            &self,
            _listener: &SharedProximityListener,
        ) -> Result<bool, ProxyError> {
            Ok(true)
        }

        fn get_location(&self) -> Result<Location, ProxyError> {
            Ok(Location::default())
        }
    }

    /// The telemetry stage alone over `inner`: both traced planes.
    fn traced<P: ?Sized + Kind>(
        inner: Arc<P>,
        device: Device,
        telemetry: &TelemetryRuntime,
        platform: &str,
    ) -> Stack<P> {
        let layers = Layers {
            telemetry: Some(telemetry.clone()),
            ..Layers::default()
        };
        Stack::new(inner, &layers, &device, platform)
    }

    /// The proxy plane alone: one span per call.
    fn proxy_plane<P: ?Sized + Kind>(
        inner: Arc<P>,
        device: Device,
        telemetry: &TelemetryRuntime,
    ) -> Stack<P> {
        let mut stack = traced(inner, device, telemetry, "android");
        stack.binding_trace = None;
        stack
    }

    fn runtime() -> (Device, TelemetryRuntime) {
        let device = Device::builder().build();
        let telemetry = TelemetryRuntime::new(Arc::clone(device.metrics()));
        (device, telemetry)
    }

    #[test]
    fn proxy_plane_records_span_and_metrics() {
        let (device, telemetry) = runtime();
        let proxy = proxy_plane::<dyn LocationProxy>(Arc::new(FixedLocation), device, &telemetry);
        proxy.get_location().unwrap();
        let spans = telemetry.tracer().finished();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "proxy:Location.getLocation");
        let labels = Labels::call("Location", "getLocation", "android");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_calls_total", &labels),
            1
        );
        assert_eq!(
            telemetry
                .metrics()
                .histogram("proxy_call_ms", &labels)
                .count(),
            1
        );
    }

    #[test]
    fn instruments_are_resolved_at_wiring_time() {
        let (device, telemetry) = runtime();
        let proxy = proxy_plane::<dyn LocationProxy>(Arc::new(FixedLocation), device, &telemetry);
        // The series exist (at zero) before the first call: resolution
        // happened in `new`, not per call.
        let labels = Labels::call("Location", "getLocation", "android");
        assert_eq!(
            telemetry
                .metrics()
                .histogram("proxy_call_ms", &labels)
                .count(),
            0
        );
        for _ in 0..3 {
            proxy.get_location().unwrap();
        }
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_calls_total", &labels),
            3
        );
    }

    #[test]
    fn binding_plane_skips_metrics_but_nests_under_proxy_plane() {
        let (device, telemetry) = runtime();
        let proxy = traced::<dyn LocationProxy>(Arc::new(FixedLocation), device, &telemetry, "s60");
        proxy.get_location().unwrap();
        let spans = telemetry.tracer().finished();
        assert_eq!(spans.len(), 2);
        validate_tree(&spans).expect("single connected tree");
        let binding_span = spans
            .iter()
            .find(|s| s.plane == Plane::Binding)
            .expect("binding span");
        let proxy_span = spans.iter().find(|s| s.plane == Plane::Proxy).unwrap();
        assert_eq!(binding_span.parent_id, Some(proxy_span.span_id));
        let labels = Labels::call("Location", "getLocation", "s60");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_calls_total", &labels),
            1,
            "only the proxy plane counts"
        );
    }

    #[test]
    fn errors_are_counted_and_attributed() {
        struct Failing;
        impl ProxyBase for Failing {
            fn set_property(&self, _k: &str, _v: PropertyValue) -> Result<(), ProxyError> {
                Ok(())
            }
        }
        impl HttpProxy for Failing {
            fn request(&self, _m: &str, _u: &str, _b: &[u8]) -> Result<HttpResult, ProxyError> {
                Err(ProxyError::new(crate::error::ProxyErrorKind::Io, "down"))
            }
        }
        let (device, telemetry) = runtime();
        let proxy = proxy_plane::<dyn HttpProxy>(Arc::new(Failing), device, &telemetry);
        assert!(proxy.request("GET", "http://s/x", b"").is_err());
        let labels = Labels::call("Http", "request", "android");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_errors_total", &labels),
            1
        );
        let spans = telemetry.tracer().finished();
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "error" && v == "Io"));
    }

    #[test]
    fn every_error_kind_has_a_static_name_matching_debug() {
        for kind in [
            ProxyErrorKind::Security,
            ProxyErrorKind::IllegalArgument,
            ProxyErrorKind::Unavailable,
            ProxyErrorKind::Io,
            ProxyErrorKind::UnsupportedOnPlatform,
            ProxyErrorKind::UnknownProperty,
            ProxyErrorKind::BadPropertyValue,
            ProxyErrorKind::MissingProperty,
            ProxyErrorKind::PolicyDenied,
            ProxyErrorKind::CircuitOpen,
            ProxyErrorKind::DeadlineExceeded,
            ProxyErrorKind::Overloaded,
        ] {
            assert_eq!(kind_name(kind), format!("{kind:?}"));
        }
    }

    #[test]
    fn blown_deadline_promotes_the_trace_and_pins_an_exemplar() {
        use mobivine_telemetry::PromotionReason;

        struct SlowLocation(Device);
        impl ProxyBase for SlowLocation {
            fn set_property(&self, _k: &str, _v: PropertyValue) -> Result<(), ProxyError> {
                Ok(())
            }
        }
        impl LocationProxy for SlowLocation {
            fn add_proximity_alert(
                &self,
                _latitude: f64,
                _longitude: f64,
                _altitude: f64,
                _radius: f64,
                _timer_s: i64,
                _listener: SharedProximityListener,
            ) -> Result<(), ProxyError> {
                Ok(())
            }
            fn remove_proximity_alert(
                &self,
                _listener: &SharedProximityListener,
            ) -> Result<bool, ProxyError> {
                Ok(true)
            }
            fn get_location(&self) -> Result<Location, ProxyError> {
                self.0.advance_ms(50);
                Ok(Location::default())
            }
        }

        let (device, telemetry) = runtime();
        let proxy = proxy_plane::<dyn LocationProxy>(
            Arc::new(SlowLocation(device.clone())),
            device.clone(),
            &telemetry,
        );
        let deadline = crate::overload::Deadline::after(device.now_ms(), 10);
        crate::overload::with_deadline(deadline, || proxy.get_location().unwrap());

        let spans = telemetry.tracer().finished();
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "deadline" && v == "blown"));

        let store = telemetry.incidents().expect("recorder is on by default");
        assert_eq!(store.len(), 1, "blown deadline promotes the trace");
        let traces = store.traces();
        assert!(matches!(traces[0].reason, PromotionReason::DeadlineBlown));
        assert!(traces[0].complete, "promoted tree validates");

        let labels = Labels::call("Location", "getLocation", "android");
        let exemplars = telemetry
            .metrics()
            .histogram("proxy_call_ms", &labels)
            .exemplars();
        assert_eq!(exemplars.len(), 1, "promotion pins a bucket exemplar");
        assert_eq!(exemplars[0].1, traces[0].trace_id);
        assert_eq!(exemplars[0].2, 50, "exemplar carries the observed latency");
    }

    #[test]
    fn healthy_calls_within_deadline_are_not_promoted() {
        let (device, telemetry) = runtime();
        let proxy =
            proxy_plane::<dyn LocationProxy>(Arc::new(FixedLocation), device.clone(), &telemetry);
        let deadline = crate::overload::Deadline::after(device.now_ms(), 100);
        crate::overload::with_deadline(deadline, || proxy.get_location().unwrap());
        assert!(telemetry.incidents().unwrap().is_empty());
        let labels = Labels::call("Location", "getLocation", "android");
        assert!(telemetry
            .metrics()
            .histogram("proxy_call_ms", &labels)
            .exemplars()
            .is_empty());
    }

    #[test]
    fn proxy_plane_feeds_slo_objectives() {
        use mobivine_telemetry::{SloObjective, SloTarget};

        let device = Device::builder().build();
        let engine = Arc::new(SloEngine::new(vec![
            SloObjective {
                name: "location-availability".into(),
                proxy: "Location".into(),
                method: "getLocation".into(),
                platform: "android".into(),
                target: SloTarget::Availability {
                    target_ppm: 999_000,
                },
            },
            SloObjective {
                name: "sms-availability".into(),
                proxy: "SMS".into(),
                method: "sendTextMessage".into(),
                platform: "android".into(),
                target: SloTarget::Availability {
                    target_ppm: 999_000,
                },
            },
        ]));
        let telemetry =
            TelemetryRuntime::new(Arc::clone(device.metrics())).with_slo(Arc::clone(&engine));
        let proxy =
            proxy_plane::<dyn LocationProxy>(Arc::new(FixedLocation), device.clone(), &telemetry);
        for _ in 0..5 {
            proxy.get_location().unwrap();
        }
        let report = engine.report(device.now_ms());
        let status = &report.statuses[0];
        assert_eq!(status.fast.good, 5, "matching objective sees the calls");
        assert_eq!(status.fast.bad, 0);
        let sms = &report.statuses[1];
        assert_eq!(
            sms.fast.good + sms.fast.bad,
            0,
            "non-matching series stays idle"
        );
    }

    #[test]
    fn error_promotion_is_on_by_default() {
        use mobivine_telemetry::PromotionReason;

        struct Failing;
        impl ProxyBase for Failing {
            fn set_property(&self, _k: &str, _v: PropertyValue) -> Result<(), ProxyError> {
                Ok(())
            }
        }
        impl HttpProxy for Failing {
            fn request(&self, _m: &str, _u: &str, _b: &[u8]) -> Result<HttpResult, ProxyError> {
                Err(ProxyError::new(crate::error::ProxyErrorKind::Io, "down"))
            }
        }
        let (device, telemetry) = runtime();
        let proxy = proxy_plane::<dyn HttpProxy>(Arc::new(Failing), device, &telemetry);
        assert!(proxy.request("GET", "http://s/x", b"").is_err());
        let store = telemetry.incidents().unwrap();
        assert_eq!(store.promoted_total(), 1);
        assert!(matches!(&store.traces()[0].reason, PromotionReason::Error(kind) if kind == "Io"));
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("telemetry_traces_promoted_total", &Labels::empty()),
            1,
            "promotion bumps the registry counter"
        );
    }

    #[test]
    fn exported_trace_round_trips() {
        let (device, telemetry) = runtime();
        let proxy = proxy_plane::<dyn LocationProxy>(Arc::new(FixedLocation), device, &telemetry);
        proxy.get_location().unwrap();
        let json = chrome_trace_json(&telemetry.tracer().finished());
        validate_chrome_trace(&json).expect("valid chrome trace");
    }
}
