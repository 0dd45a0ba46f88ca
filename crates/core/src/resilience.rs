//! The M-Proxy resilience layer: retries, circuit breaking and
//! fallbacks as an enrichment stage (§3.3).
//!
//! Mobile platform capabilities fail transiently all the time — the GPS
//! loses its fix, the packet radio drops out of coverage, the SMSC
//! sheds load. The paper's enrichment plane ("value-added services such
//! as reliable delivery … can be plugged in without touching the
//! application") motivates this module: every uniform proxy's stack
//! can carry a [`ResiliencePolicy`]-driven stage that
//!
//! * retries **transient** failures ([`is_transient`]) with exponential
//!   backoff and seeded jitter, advancing the *simulated device clock*
//!   rather than sleeping on the wall clock;
//! * fails fast through a per-proxy [`CircuitBreaker`] once the binding
//!   has proven itself down, and probes it again after a cooldown;
//! * falls back, for Location, to the last known fix (marked stale by
//!   its old timestamp) and then to a configured default position;
//! * reports what it did through shared [`ResilienceMetrics`] counters.
//!
//! Policy knobs are also reachable through the ordinary property plane
//! (`setProperty("retry.max_attempts", 5)`, …) so applications tune
//! resilience exactly the way they tune `powerConsumption` or
//! `pollInterval`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;

use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::{Knob, PropertyValue};
use crate::stack::Method;
use crate::telemetry::{kind_name, StageSpan};
use crate::types::Location;

/// Whether an error category is worth retrying.
///
/// `Unavailable` (no GPS fix yet, radio momentarily down) and `Io`
/// (transport hiccup) are transient: the same call can succeed moments
/// later. Everything else — security denials, unsupported interfaces,
/// property-plane mistakes, policy denials — is deterministic and
/// retrying would only repeat the failure. Thin alias over
/// [`ProxyErrorKind::is_retryable`], kept for callers that read better
/// with the paper's "transient" vocabulary.
pub fn is_transient(kind: ProxyErrorKind) -> bool {
    kind.is_retryable()
}

/// splitmix64 — a tiny, high-quality mixing function used to derive
/// deterministic jitter from the policy seed (no `rand` dependency, so
/// simulated runs replay bit-identically on every platform binding).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tunable knobs for the resilience stage.
///
/// Every field is also settable at run time through the property plane;
/// the property keys are listed on each builder method.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Total attempts per call, including the first (`retry.max_attempts`).
    pub max_attempts: u32,
    /// Base backoff before the second attempt; doubles per retry
    /// (`retry.backoff_ms`).
    pub backoff_base_ms: u64,
    /// Per-call budget of simulated time for retries (`retry.deadline_ms`).
    pub deadline_ms: u64,
    /// Seed for the deterministic backoff jitter (`retry.jitter_seed`).
    pub jitter_seed: u64,
    /// Consecutive failures that open the circuit (`circuit.threshold`).
    pub circuit_threshold: u32,
    /// How long an open circuit rejects before a half-open probe
    /// (`circuit.cooldown_ms`).
    pub circuit_cooldown_ms: u64,
    /// Last-resort latitude for the Location fallback chain
    /// (`fallback.latitude`).
    pub fallback_latitude: Option<f64>,
    /// Last-resort longitude for the Location fallback chain
    /// (`fallback.longitude`).
    pub fallback_longitude: Option<f64>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_ms: 100,
            deadline_ms: 10_000,
            jitter_seed: 0x5EED,
            circuit_threshold: 5,
            circuit_cooldown_ms: 30_000,
            fallback_latitude: None,
            fallback_longitude: None,
        }
    }
}

impl ResiliencePolicy {
    /// Sets the total attempts per call (property `retry.max_attempts`).
    #[must_use]
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the base backoff in milliseconds (property `retry.backoff_ms`).
    #[must_use]
    pub fn backoff_base_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }

    /// Sets the per-call retry deadline (property `retry.deadline_ms`).
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Sets the jitter seed (property `retry.jitter_seed`).
    #[must_use]
    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Sets the circuit-opening failure threshold (property
    /// `circuit.threshold`).
    #[must_use]
    pub fn circuit_threshold(mut self, failures: u32) -> Self {
        self.circuit_threshold = failures.max(1);
        self
    }

    /// Sets the open-circuit cooldown (property `circuit.cooldown_ms`).
    #[must_use]
    pub fn circuit_cooldown_ms(mut self, ms: u64) -> Self {
        self.circuit_cooldown_ms = ms;
        self
    }

    /// Sets the configured default position terminating the Location
    /// fallback chain (properties `fallback.latitude` /
    /// `fallback.longitude`).
    #[must_use]
    pub fn fallback_position(mut self, latitude: f64, longitude: f64) -> Self {
        self.fallback_latitude = Some(latitude);
        self.fallback_longitude = Some(longitude);
        self
    }

    /// The configured default position, when both coordinates are set.
    pub fn fallback(&self) -> Option<(f64, f64)> {
        match (self.fallback_latitude, self.fallback_longitude) {
            (Some(lat), Some(lon)) => Some((lat, lon)),
            _ => None,
        }
    }

    /// Deterministic backoff before retry number `attempt` (1-based:
    /// the delay after the first failed attempt is `backoff_for(1, …)`).
    /// Exponential (`base << (attempt-1)`) plus seeded jitter of up to
    /// half the exponential term, so concurrent retriers de-synchronise
    /// without losing replayability.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(16));
        let span = (exp / 2).max(1);
        let jitter =
            splitmix64(self.jitter_seed ^ u64::from(attempt).rotate_left(17) ^ salt) % span;
        exp + jitter
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircuitState {
    /// Calls flow normally; consecutive failures are being counted.
    Closed,
    /// The binding is presumed down; calls are rejected fast with
    /// [`ProxyErrorKind::CircuitOpen`] until the cooldown elapses.
    Open,
    /// One probe call is allowed through; success closes the circuit,
    /// failure re-opens it immediately.
    HalfOpen,
}

struct BreakerInner {
    threshold: u32,
    cooldown_ms: u64,
    consecutive_failures: u32,
    state: CircuitState,
    opened_at_ms: u64,
}

/// A per-proxy circuit breaker driven entirely by the simulated device
/// clock: callers pass `now_ms` in, so state transitions replay
/// deterministically.
pub struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
    epoch: Arc<AtomicU64>,
}

impl CircuitBreaker {
    /// Creates a closed breaker that opens after `threshold`
    /// consecutive failures and probes again `cooldown_ms` later.
    pub fn new(threshold: u32, cooldown_ms: u64) -> Self {
        Self {
            inner: Mutex::new(BreakerInner {
                threshold: threshold.max(1),
                cooldown_ms,
                consecutive_failures: 0,
                state: CircuitState::Closed,
                opened_at_ms: 0,
            }),
            epoch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current state (transition to half-open only happens inside
    /// [`CircuitBreaker::admit`]).
    pub fn state(&self) -> CircuitState {
        self.inner.lock().state
    }

    /// The breaker's transition epoch: a monotone counter bumped on
    /// every state change (and only on actual changes — a success while
    /// already closed leaves it untouched). Caches keyed off this epoch
    /// discard entries filled under a previous circuit state.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A shared handle on the transition epoch, for observers (the
    /// read-through cache layer) that outlive their borrow of the
    /// breaker.
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Re-tunes threshold/cooldown at run time (the property plane).
    pub fn configure(&self, threshold: u32, cooldown_ms: u64) {
        let mut inner = self.inner.lock();
        inner.threshold = threshold.max(1);
        inner.cooldown_ms = cooldown_ms;
    }

    /// Asks whether a call may proceed at simulated time `now_ms`.
    /// While open and cooling down this returns `false`; once the
    /// cooldown has elapsed the breaker moves to half-open and admits
    /// one probe.
    pub fn admit(&self, now_ms: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            CircuitState::Closed | CircuitState::HalfOpen => true,
            CircuitState::Open => {
                if now_ms >= inner.opened_at_ms.saturating_add(inner.cooldown_ms) {
                    inner.state = CircuitState::HalfOpen;
                    self.epoch.fetch_add(1, Ordering::AcqRel);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call: the breaker closes and the failure
    /// count resets.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        if inner.state != CircuitState::Closed {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        inner.state = CircuitState::Closed;
        inner.consecutive_failures = 0;
    }

    /// Records a failed (transient) call at simulated time `now_ms`.
    /// Returns `true` when this failure opened (or re-opened) the
    /// circuit.
    pub fn record_failure(&self, now_ms: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            CircuitState::HalfOpen => {
                inner.state = CircuitState::Open;
                inner.opened_at_ms = now_ms;
                self.epoch.fetch_add(1, Ordering::AcqRel);
                true
            }
            CircuitState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= inner.threshold {
                    inner.state = CircuitState::Open;
                    inner.opened_at_ms = now_ms;
                    self.epoch.fetch_add(1, Ordering::AcqRel);
                    true
                } else {
                    false
                }
            }
            CircuitState::Open => false,
        }
    }
}

counter_block! {
    /// Shared resilience counters, updated lock-free by the stage and
    /// snapshotted by observability code.
    ResilienceMetrics => ResilienceSnapshot, "resilience" {
        /// Calls entering the resilience stage.
        calls,
        /// Attempts issued against the wrapped proxy (>= calls).
        attempts,
        /// Backoff-then-retry cycles taken.
        retries,
        /// Calls that ultimately succeeded.
        successes,
        /// Transient attempt failures observed.
        transient_failures,
        /// Fatal (non-retryable) failures returned immediately.
        fatal_failures,
        /// Calls rejected fast by an open circuit.
        circuit_rejections,
        /// Times a failure opened (or re-opened) the circuit.
        circuit_opens,
        /// Location calls answered from the last known fix.
        fallback_last_known,
        /// Location calls answered from the configured default position.
        fallback_default,
        /// Calls abandoned because the retry deadline ran out.
        deadline_exhausted,
    }
}

impl fmt::Display for ResilienceSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} attempts={} retries={} successes={} transient={} fatal={} \
             circuit_rejections={} circuit_opens={} fallback_last_known={} \
             fallback_default={} deadline_exhausted={}",
            self.calls,
            self.attempts,
            self.retries,
            self.successes,
            self.transient_failures,
            self.fatal_failures,
            self.circuit_rejections,
            self.circuit_opens,
            self.fallback_last_known,
            self.fallback_default,
            self.deadline_exhausted,
        )
    }
}

/// The retry/breaker engine of one stack's resilience stage.
pub(crate) struct Engine {
    device: Device,
    policy: Mutex<ResiliencePolicy>,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) metrics: Arc<ResilienceMetrics>,
    /// Per-call salt source so two calls with the same policy seed
    /// still jitter differently (while replaying identically run-over-run).
    seq: AtomicU64,
}

/// How a resilient call ultimately failed — drives the Location
/// fallback chain.
pub(crate) enum FailureMode {
    /// Transient exhaustion, deadline, or open circuit: worth a fallback.
    Degraded(ProxyError),
    /// Deterministic failure: propagate untouched, no fallback.
    Fatal(ProxyError),
}

impl FailureMode {
    pub(crate) fn error(&self) -> &ProxyError {
        match self {
            FailureMode::Degraded(e) | FailureMode::Fatal(e) => e,
        }
    }

    pub(crate) fn into_error(self) -> ProxyError {
        match self {
            FailureMode::Degraded(e) | FailureMode::Fatal(e) => e,
        }
    }
}

impl Engine {
    pub(crate) fn new(
        device: Device,
        policy: ResiliencePolicy,
        metrics: Arc<ResilienceMetrics>,
    ) -> Self {
        let breaker = CircuitBreaker::new(policy.circuit_threshold, policy.circuit_cooldown_ms);
        Self {
            device,
            policy: Mutex::new(policy),
            breaker,
            metrics,
            seq: AtomicU64::new(0),
        }
    }

    pub(crate) fn policy(&self) -> ResiliencePolicy {
        self.policy.lock().clone()
    }

    /// Runs `call` under the retry policy and circuit breaker,
    /// advancing the simulated clock for each backoff. When an ambient
    /// trace is active, the whole execution is recorded as one
    /// resilience-plane span whose events mark every attempt, retry and
    /// circuit transition.
    pub(crate) fn execute<T>(
        &self,
        method: &Method,
        call: &dyn Fn() -> Result<T, ProxyError>,
    ) -> Result<T, FailureMode> {
        let mut span = StageSpan::open(method.resilience, &self.device);
        let result = self.execute_inner(method.name, call, &mut span);
        span.close(result.as_ref().err().map(FailureMode::error), &self.device);
        result
    }

    fn execute_inner<T>(
        &self,
        operation: &str,
        call: &dyn Fn() -> Result<T, ProxyError>,
        span: &mut StageSpan,
    ) -> Result<T, FailureMode> {
        let policy = self.policy();
        self.metrics.calls.inc();
        if !self.breaker.admit(self.device.now_ms()) {
            self.metrics.circuit_rejections.inc();
            span.event("circuit_rejected", self.device.now_ms());
            return Err(FailureMode::Degraded(ProxyError::new(
                ProxyErrorKind::CircuitOpen,
                format!(
                    "circuit open for {operation}; call rejected without reaching the platform"
                ),
            )));
        }
        let salt = self.seq.fetch_add(1, Ordering::Relaxed);
        // The retry budget is the policy deadline, tightened by any
        // ambient cancellation context the overload layer (or the
        // caller) opened above us — the deadline decrements across
        // retry → circuit → fallback hops instead of resetting.
        let mut deadline = self.device.now_ms().saturating_add(policy.deadline_ms);
        if let Some(ambient_deadline) = crate::overload::current_deadline() {
            deadline = deadline.min(ambient_deadline.expires_at_ms());
        }
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            self.metrics.attempts.inc();
            span.event("attempt", self.device.now_ms());
            match call() {
                Ok(value) => {
                    self.breaker.record_success();
                    self.metrics.successes.inc();
                    return Ok(value);
                }
                Err(e) if is_transient(e.kind()) => {
                    self.metrics.transient_failures.inc();
                    if self.breaker.record_failure(self.device.now_ms()) {
                        self.metrics.circuit_opens.inc();
                        span.event("circuit_open", self.device.now_ms());
                    }
                    if attempt >= policy.max_attempts {
                        return Err(FailureMode::Degraded(e));
                    }
                    let backoff = policy.backoff_for(attempt, salt);
                    if self.device.now_ms().saturating_add(backoff) > deadline {
                        self.metrics.deadline_exhausted.inc();
                        if let Some(s) = span.traced() {
                            s.event("deadline_exhausted", self.device.now_ms());
                            // Cause attribution: without it a trace
                            // shows a bare DeadlineExceeded with no hint
                            // of which failure ate the budget.
                            s.attr("deadline.cause", kind_name(e.kind()));
                            if let Some(class) = e.platform_exception() {
                                s.attr("deadline.platform_exception", class.to_owned());
                            }
                            s.attr("deadline.attempts", format!("{attempt}"));
                        }
                        let mut err = ProxyError::new(
                            ProxyErrorKind::DeadlineExceeded,
                            format!(
                                "retry deadline ({} ms) exhausted after {attempt} attempt(s) \
                                 of {operation}; last error: {}",
                                policy.deadline_ms,
                                e.message()
                            ),
                        );
                        if let Some(class) = e.platform_exception() {
                            err = err.with_platform(class);
                        }
                        return Err(FailureMode::Degraded(err));
                    }
                    self.metrics.retries.inc();
                    span.event("retry", self.device.now_ms());
                    self.device.advance_ms(backoff);
                }
                Err(e) if e.kind().is_load_shed() => {
                    // The overload layer beneath us shed this call.
                    // Retrying here would pile more load on a stack
                    // that just asked us to back off — but the failure
                    // is load, not correctness, so the fallback chain
                    // may still serve a degraded answer.
                    self.metrics.fatal_failures.inc();
                    span.event("overload_shed", self.device.now_ms());
                    return Err(FailureMode::Degraded(e));
                }
                Err(e) => {
                    self.metrics.fatal_failures.inc();
                    return Err(FailureMode::Fatal(e));
                }
            }
        }
    }

    /// Intercepts the resilience property keys; returns `None` for keys
    /// that belong to the stages below.
    pub(crate) fn try_set_policy_property(
        &self,
        key: &str,
        value: &PropertyValue,
    ) -> Option<Result<(), ProxyError>> {
        let mut policy = self.policy.lock();
        let knob = Knob {
            layer: "resilience",
            key,
            value,
        };
        let result = match key {
            "retry.max_attempts" => knob.int(1).map(|n| policy.max_attempts = n as u32),
            "retry.backoff_ms" => knob.int(0).map(|n| policy.backoff_base_ms = n as u64),
            "retry.deadline_ms" => knob.int(0).map(|n| policy.deadline_ms = n as u64),
            "retry.jitter_seed" => knob.int(i64::MIN).map(|n| policy.jitter_seed = n as u64),
            "circuit.threshold" => knob.int(1).map(|n| policy.circuit_threshold = n as u32),
            "circuit.cooldown_ms" => knob.int(0).map(|n| policy.circuit_cooldown_ms = n as u64),
            "fallback.latitude" => knob.float().map(|lat| policy.fallback_latitude = Some(lat)),
            "fallback.longitude" => knob
                .float()
                .map(|lon| policy.fallback_longitude = Some(lon)),
            _ => return None,
        };
        if result.is_ok() && key.starts_with("circuit.") {
            self.breaker
                .configure(policy.circuit_threshold, policy.circuit_cooldown_ms);
        }
        Some(result)
    }

    /// The Location fallback chain after a degraded failure: the last
    /// known fix `last_fix` (stale — its timestamp predates now), then
    /// the configured default position (infinite stated inaccuracy).
    pub(crate) fn fallback_fix(
        &self,
        last_fix: Option<Location>,
        failure: FailureMode,
    ) -> Result<Location, ProxyError> {
        let failure = match failure {
            FailureMode::Fatal(e) => return Err(e),
            FailureMode::Degraded(e) => e,
        };
        if let Some(stale) = last_fix {
            self.metrics.fallback_last_known.inc();
            return Ok(stale);
        }
        if let Some((lat, lon)) = self.policy().fallback() {
            self.metrics.fallback_default.inc();
            return Ok(Location {
                latitude: lat,
                longitude: lon,
                altitude: 0.0,
                accuracy_m: f64::INFINITY,
                timestamp_ms: self.device.now_ms(),
                speed_mps: 0.0,
                course_deg: 0.0,
            });
        }
        Err(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{LocationProxy, ProxyBase};
    use crate::stack::{Layer, Layers, Stack};
    use crate::types::SharedProximityListener;

    type Resilient = Stack<dyn LocationProxy>;

    /// A Location stack whose only stage is resilience under `policy`.
    fn stack(inner: Arc<dyn LocationProxy>, device: Device, policy: ResiliencePolicy) -> Resilient {
        let layers = Layers {
            resilience: Some(Layer {
                policy,
                metrics: ResilienceMetrics::shared(),
            }),
            ..Layers::default()
        };
        Stack::new(inner, &layers, &device, "test")
    }

    fn engine(proxy: &Resilient) -> &Engine {
        proxy.resilience.as_deref().expect("resilience stage")
    }

    fn device() -> Device {
        Device::builder().msisdn("+resilience").build()
    }

    /// A location proxy that fails transiently `failures` times, then
    /// succeeds.
    struct Flaky {
        failures: AtomicU64,
        kind: ProxyErrorKind,
    }

    impl Flaky {
        fn new(failures: u64, kind: ProxyErrorKind) -> Self {
            Self {
                failures: AtomicU64::new(failures),
                kind,
            }
        }
    }

    impl ProxyBase for Flaky {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl LocationProxy for Flaky {
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
            Ok(false)
        }

        fn get_location(&self) -> Result<Location, ProxyError> {
            let left = self.failures.load(Ordering::Relaxed);
            if left > 0 {
                self.failures.store(left - 1, Ordering::Relaxed);
                return Err(ProxyError::new(self.kind, "injected").with_platform("fake.Exception"));
            }
            Ok(Location {
                latitude: 1.0,
                longitude: 2.0,
                ..Location::default()
            })
        }
    }

    fn resilient(flaky: Flaky, policy: ResiliencePolicy) -> Resilient {
        stack(Arc::new(flaky), device(), policy)
    }

    #[test]
    fn transient_classification_matches_the_paper_error_model() {
        assert!(is_transient(ProxyErrorKind::Unavailable));
        assert!(is_transient(ProxyErrorKind::Io));
        for fatal in [
            ProxyErrorKind::Security,
            ProxyErrorKind::IllegalArgument,
            ProxyErrorKind::UnsupportedOnPlatform,
            ProxyErrorKind::UnknownProperty,
            ProxyErrorKind::BadPropertyValue,
            ProxyErrorKind::MissingProperty,
            ProxyErrorKind::PolicyDenied,
            ProxyErrorKind::CircuitOpen,
            ProxyErrorKind::DeadlineExceeded,
            ProxyErrorKind::Overloaded,
        ] {
            assert!(!is_transient(fatal), "{fatal:?} must not be retried");
        }
    }

    #[test]
    fn ambient_deadline_tightens_the_retry_budget() {
        let dev = device();
        let proxy = stack(
            Arc::new(Flaky::new(50, ProxyErrorKind::Unavailable)),
            dev.clone(),
            ResiliencePolicy::default()
                .max_attempts(50)
                .backoff_base_ms(400)
                .deadline_ms(1_000_000),
        );
        // The policy budget is effectively unlimited, but the ambient
        // cancellation context caps the whole retry loop at 1 s.
        let deadline = crate::overload::Deadline::after(dev.now_ms(), 1_000);
        let err = crate::overload::with_deadline(deadline, || proxy.get_location().unwrap_err());
        assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded);
        assert!(
            dev.now_ms() <= deadline.expires_at_ms(),
            "retries never burned past the ambient expiry"
        );
        assert_eq!(engine(&proxy).metrics.snapshot().deadline_exhausted, 1);
    }

    #[test]
    fn overload_sheds_are_not_retried_but_are_fallback_eligible() {
        struct Shedding;
        impl ProxyBase for Shedding {
            fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
                Ok(())
            }
        }
        impl LocationProxy for Shedding {
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
                Ok(false)
            }
            fn get_location(&self) -> Result<Location, ProxyError> {
                Err(
                    ProxyError::new(ProxyErrorKind::Overloaded, "admission shed")
                        .with_retry_after(120),
                )
            }
        }
        let proxy = stack(
            Arc::new(Shedding),
            device(),
            ResiliencePolicy::default()
                .max_attempts(5)
                .fallback_position(28.6, 77.2),
        );
        let fix = proxy.get_location().expect("shed degrades to fallback");
        assert_eq!((fix.latitude, fix.longitude), (28.6, 77.2));
        let snap = engine(&proxy).metrics.snapshot();
        assert_eq!(snap.attempts, 1, "a shed is never retried here");
        assert_eq!(snap.fallback_default, 1);
    }

    #[test]
    fn backoff_is_exponential_jittered_and_deterministic() {
        let policy = ResiliencePolicy::default()
            .backoff_base_ms(100)
            .jitter_seed(42);
        for attempt in 1..=4 {
            let exp = 100u64 << (attempt - 1);
            let delay = policy.backoff_for(attempt, 7);
            assert!(
                delay >= exp && delay < exp + (exp / 2).max(1),
                "attempt {attempt}: {delay}"
            );
            // Same seed + salt replays identically.
            assert_eq!(delay, policy.backoff_for(attempt, 7));
        }
        // Different salts de-synchronise.
        assert_ne!(policy.backoff_for(3, 1), policy.backoff_for(3, 2));
    }

    #[test]
    fn retries_transient_failures_until_success() {
        let proxy = resilient(
            Flaky::new(2, ProxyErrorKind::Unavailable),
            ResiliencePolicy::default().max_attempts(3),
        );
        let fix = proxy.get_location().expect("third attempt succeeds");
        assert_eq!(fix.latitude, 1.0);
        let snap = engine(&proxy).metrics.snapshot();
        assert_eq!(snap.attempts, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.successes, 1);
    }

    #[test]
    fn fatal_failures_are_not_retried() {
        let proxy = resilient(
            Flaky::new(5, ProxyErrorKind::Security),
            ResiliencePolicy::default().max_attempts(4),
        );
        let err = proxy.get_location().unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Security);
        let snap = engine(&proxy).metrics.snapshot();
        assert_eq!(snap.attempts, 1);
        assert_eq!(snap.fatal_failures, 1);
    }

    #[test]
    fn backoff_advances_the_simulated_clock_not_the_wall_clock() {
        let dev = device();
        let proxy = stack(
            Arc::new(Flaky::new(2, ProxyErrorKind::Io)),
            dev.clone(),
            ResiliencePolicy::default()
                .max_attempts(3)
                .backoff_base_ms(100),
        );
        let before = dev.now_ms();
        proxy.get_location().unwrap();
        let elapsed = dev.now_ms() - before;
        // Two backoffs: >= 100 + 200 exponential, < 1.5x with jitter.
        assert!((300..450).contains(&elapsed), "simulated elapsed {elapsed}");
    }

    #[test]
    fn deadline_caps_the_retry_budget_and_keeps_provenance() {
        let proxy = resilient(
            Flaky::new(50, ProxyErrorKind::Unavailable),
            ResiliencePolicy::default()
                .max_attempts(50)
                .backoff_base_ms(400)
                .deadline_ms(1_000),
        );
        let err = proxy.get_location().unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded);
        assert_eq!(err.platform_exception(), Some("fake.Exception"));
        let snap = engine(&proxy).metrics.snapshot();
        assert_eq!(snap.deadline_exhausted, 1);
        assert!(snap.attempts < 50);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let breaker = CircuitBreaker::new(3, 1_000);
        assert_eq!(breaker.state(), CircuitState::Closed);
        assert!(!breaker.record_failure(10));
        assert!(!breaker.record_failure(20));
        assert!(breaker.record_failure(30), "third failure opens");
        assert_eq!(breaker.state(), CircuitState::Open);
        assert!(!breaker.admit(500), "rejected while cooling down");
        assert!(breaker.admit(1_030), "cooldown elapsed: half-open probe");
        assert_eq!(breaker.state(), CircuitState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(), CircuitState::Closed);
    }

    #[test]
    fn halfopen_probe_failure_reopens_immediately() {
        let breaker = CircuitBreaker::new(1, 1_000);
        assert!(breaker.record_failure(0));
        assert!(breaker.admit(1_000));
        assert!(breaker.record_failure(1_000), "probe failure re-opens");
        assert_eq!(breaker.state(), CircuitState::Open);
        assert!(!breaker.admit(1_500));
        assert!(breaker.admit(2_000));
    }

    #[test]
    fn open_circuit_rejects_fast_with_circuit_open_kind() {
        let proxy = resilient(
            Flaky::new(100, ProxyErrorKind::Unavailable),
            ResiliencePolicy::default()
                .max_attempts(1)
                .circuit_threshold(2)
                .circuit_cooldown_ms(60_000),
        );
        assert!(proxy.get_location().is_err());
        assert!(proxy.get_location().is_err());
        assert_eq!(engine(&proxy).breaker.state(), CircuitState::Open);
        let err = proxy.get_location().unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::CircuitOpen);
        let snap = engine(&proxy).metrics.snapshot();
        assert_eq!(snap.circuit_rejections, 1);
        assert_eq!(
            snap.attempts, 2,
            "the rejected call never reached the binding"
        );
    }

    #[test]
    fn location_falls_back_to_last_known_fix_marked_stale_by_timestamp() {
        let dev = device();
        let inner = Arc::new(Flaky::new(0, ProxyErrorKind::Unavailable));
        let proxy = stack(
            inner.clone(),
            dev.clone(),
            ResiliencePolicy::default().max_attempts(1),
        );
        let fresh = proxy.get_location().unwrap();
        // Now the GPS goes dark for good.
        inner.failures.store(u64::MAX, Ordering::Relaxed);
        dev.advance_ms(5_000);
        let stale = proxy.get_location().unwrap();
        assert_eq!(stale.latitude, fresh.latitude);
        assert_eq!(stale.timestamp_ms, fresh.timestamp_ms);
        assert!(
            stale.timestamp_ms < dev.now_ms(),
            "staleness is visible in the timestamp"
        );
        assert_eq!(engine(&proxy).metrics.snapshot().fallback_last_known, 1);
    }

    #[test]
    fn location_falls_back_to_configured_default_when_no_fix_was_ever_seen() {
        let proxy = resilient(
            Flaky::new(u64::MAX, ProxyErrorKind::Unavailable),
            ResiliencePolicy::default()
                .max_attempts(1)
                .fallback_position(28.6, 77.2),
        );
        let fix = proxy.get_location().unwrap();
        assert_eq!((fix.latitude, fix.longitude), (28.6, 77.2));
        assert!(fix.accuracy_m.is_infinite());
        assert_eq!(engine(&proxy).metrics.snapshot().fallback_default, 1);
    }

    #[test]
    fn no_fallback_for_fatal_errors() {
        let proxy = resilient(
            Flaky::new(u64::MAX, ProxyErrorKind::Security),
            ResiliencePolicy::default().fallback_position(0.0, 0.0),
        );
        assert_eq!(
            proxy.get_location().unwrap_err().kind(),
            ProxyErrorKind::Security
        );
    }

    #[test]
    fn policy_is_tunable_through_the_property_plane() {
        let proxy = resilient(
            Flaky::new(4, ProxyErrorKind::Unavailable),
            ResiliencePolicy::default().max_attempts(1),
        );
        proxy
            .set_property("retry.max_attempts", PropertyValue::Int(5))
            .unwrap();
        proxy
            .set_property("retry.backoff_ms", PropertyValue::str("50"))
            .unwrap();
        proxy.get_location().expect("5 attempts now allowed");
        assert_eq!(engine(&proxy).policy().max_attempts, 5);
        assert_eq!(engine(&proxy).policy().backoff_base_ms, 50);
        let err = proxy
            .set_property("circuit.threshold", PropertyValue::str("zero"))
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::BadPropertyValue);
    }

    #[test]
    fn unknown_properties_are_forwarded_to_the_inner_proxy() {
        let proxy = resilient(
            Flaky::new(0, ProxyErrorKind::Io),
            ResiliencePolicy::default(),
        );
        // Flaky's set_property accepts everything — the stage must
        // not swallow non-resilience keys.
        proxy
            .set_property("provider", PropertyValue::str("gps"))
            .unwrap();
    }
}
