//! Overload protection for the M-Proxy call path: deadlines, bulkheads
//! and adaptive load shedding.
//!
//! PR 1's resilience layer defends a *single* call against a flaky
//! binding. This module defends the *stack* against too many calls at
//! once — the ROADMAP's "heavy traffic from millions of users". Three
//! cooperating mechanisms, all driven by the simulated device clock so
//! every run replays bit-identically:
//!
//! * a [`Deadline`] — a cancellation context carried down the call path
//!   (retry → circuit → fallback → binding) through an ambient
//!   per-thread scope ([`with_deadline`]) and across the WebView
//!   JavaScript bridge as a marshalled remaining-budget value. A call
//!   that enters the overload layer with an exhausted budget fails fast
//!   with [`ProxyErrorKind::DeadlineExceeded`] before touching the
//!   binding plane;
//! * a per-proxy [`Bulkhead`] — a semaphore-style concurrency cap with
//!   a bounded wait queue, so one slow capability cannot absorb every
//!   caller thread;
//! * an [`AdmissionController`] — deterministic AIMD on observed call
//!   sojourn time versus a per-proxy target. When calls run hot the
//!   admitted fraction decays multiplicatively; when they run within
//!   target it recovers additively. Rejected calls get a typed
//!   [`ProxyErrorKind::Overloaded`] error carrying `retry_after_ms`,
//!   which the resilience layer treats as non-retryable-here but
//!   fallback-eligible.
//!
//! The Location and HTTP stacks add **graceful degradation tiers**:
//! instead of surfacing every shed, they answer from the last cached
//! fix (coarsened under deep shed pressure) or synthesize an accepted-
//! but-unenriched HTTP response for droppable paths.
//!
//! Knobs are reachable through the ordinary property plane
//! (`bulkhead.max_concurrency`, `shed.target_ms`, …) exactly like the
//! `retry.*` family.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;

use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::{Knob, PropertyValue};
use crate::stack::Method;
use crate::telemetry::StageSpan;
use crate::types::{HttpResult, Location};

/// splitmix64 — the same deterministic mixer the resilience layer uses
/// for jitter, here stepping the admission controller's coin-flip
/// stream. Private copy by design: the two layers' streams must never
/// couple through a shared state cell.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------

/// A cancellation context on the simulated clock.
///
/// Carries both its origin (`start_ms`) and its expiry, so layers can
/// compute not just "how much budget is left" but "how long has this
/// call been in flight" — the sojourn time the admission controller
/// observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deadline {
    start_ms: u64,
    expires_at_ms: u64,
}

impl Deadline {
    /// A deadline opened at `now_ms` with `budget_ms` of simulated time.
    pub fn after(now_ms: u64, budget_ms: u64) -> Self {
        Self {
            start_ms: now_ms,
            expires_at_ms: now_ms.saturating_add(budget_ms),
        }
    }

    /// When this deadline was opened.
    pub fn start_ms(&self) -> u64 {
        self.start_ms
    }

    /// The absolute simulated time at which the budget runs out.
    pub fn expires_at_ms(&self) -> u64 {
        self.expires_at_ms
    }

    /// Budget left at `now_ms` (zero once expired).
    pub fn remaining_ms(&self, now_ms: u64) -> u64 {
        self.expires_at_ms.saturating_sub(now_ms)
    }

    /// Whether the budget is gone at `now_ms`.
    pub fn is_expired(&self, now_ms: u64) -> bool {
        now_ms >= self.expires_at_ms
    }

    /// Simulated time this call has already been in flight at `now_ms`
    /// — the queueing + service delay the admission controller feeds
    /// its AIMD loop.
    pub fn sojourn_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.start_ms)
    }

    /// The tighter of two deadlines: keeps the earlier origin (the
    /// outermost caller started the clock) and the earlier expiry.
    #[must_use]
    pub fn tightened_by(&self, other: Deadline) -> Deadline {
        Deadline {
            start_ms: self.start_ms.min(other.start_ms),
            expires_at_ms: self.expires_at_ms.min(other.expires_at_ms),
        }
    }
}

thread_local! {
    /// The ambient deadline stack, mirroring the telemetry ambient span
    /// stack: the innermost `with_deadline` scope is what
    /// [`current_deadline`] sees.
    static DEADLINES: RefCell<Vec<Deadline>> = const { RefCell::new(Vec::new()) };
}

/// Guard popping the ambient deadline on drop (panic-safe).
struct DeadlineScope;

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        DEADLINES.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `deadline` as the ambient cancellation context for the
/// current thread. Scopes nest: an inner scope sees its own deadline,
/// and the outer one is restored when the scope ends — even on panic.
pub fn with_deadline<T>(deadline: Deadline, f: impl FnOnce() -> T) -> T {
    DEADLINES.with(|stack| stack.borrow_mut().push(deadline));
    let _scope = DeadlineScope;
    f()
}

/// The innermost ambient deadline on the current thread, if any scope
/// is open.
pub fn current_deadline() -> Option<Deadline> {
    DEADLINES.with(|stack| stack.borrow().last().copied())
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Tunable knobs for the overload stage.
///
/// Every field is also settable at run time through the property plane;
/// the property keys are listed on each builder method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Concurrent calls admitted past the bulkhead
    /// (`bulkhead.max_concurrency`).
    pub max_concurrency: u32,
    /// Callers allowed to wait for a bulkhead slot
    /// (`bulkhead.queue_depth`).
    pub queue_depth: u32,
    /// Simulated wait per queue turn (`bulkhead.queue_wait_ms`).
    pub queue_wait_ms: u64,
    /// Whether the admission controller sheds at all (`shed.enabled`).
    pub shed_enabled: bool,
    /// Sojourn target the AIMD loop steers toward (`shed.target_ms`).
    pub target_ms: u64,
    /// Seed of the deterministic admission coin-flip stream
    /// (`shed.seed`).
    pub shed_seed: u64,
    /// Budget given to calls that arrive without an ambient deadline
    /// (`deadline.default_ms`).
    pub deadline_default_ms: u64,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            max_concurrency: 32,
            queue_depth: 16,
            queue_wait_ms: 25,
            shed_enabled: true,
            target_ms: 256,
            shed_seed: 0x0BAD_CAFE,
            deadline_default_ms: 10_000,
        }
    }
}

impl OverloadPolicy {
    /// Sets the bulkhead concurrency cap (property
    /// `bulkhead.max_concurrency`).
    #[must_use]
    pub fn max_concurrency(mut self, slots: u32) -> Self {
        self.max_concurrency = slots.max(1);
        self
    }

    /// Sets the bulkhead wait-queue depth (property
    /// `bulkhead.queue_depth`).
    #[must_use]
    pub fn queue_depth(mut self, depth: u32) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the simulated wait per queue turn (property
    /// `bulkhead.queue_wait_ms`).
    #[must_use]
    pub fn queue_wait_ms(mut self, ms: u64) -> Self {
        self.queue_wait_ms = ms.max(1);
        self
    }

    /// Turns the admission controller on or off (property
    /// `shed.enabled`).
    #[must_use]
    pub fn shed_enabled(mut self, enabled: bool) -> Self {
        self.shed_enabled = enabled;
        self
    }

    /// Sets the sojourn target (property `shed.target_ms`).
    #[must_use]
    pub fn target_ms(mut self, ms: u64) -> Self {
        self.target_ms = ms.max(1);
        self
    }

    /// Sets the admission coin-flip seed (property `shed.seed`).
    #[must_use]
    pub fn shed_seed(mut self, seed: u64) -> Self {
        self.shed_seed = seed;
        self
    }

    /// Sets the default per-call budget (property `deadline.default_ms`).
    #[must_use]
    pub fn deadline_default_ms(mut self, ms: u64) -> Self {
        self.deadline_default_ms = ms.max(1);
        self
    }
}

// ---------------------------------------------------------------------
// Bulkhead
// ---------------------------------------------------------------------

/// A semaphore-style per-proxy concurrency cap.
///
/// Callers that find every slot taken wait in a bounded queue — each
/// turn advances the *simulated* clock by the configured wait — and are
/// rejected with [`ProxyErrorKind::Overloaded`] once the queue is
/// exhausted too.
pub struct Bulkhead {
    cap: Mutex<u32>,
    in_flight: Arc<Mutex<u32>>,
}

impl Bulkhead {
    /// A bulkhead with `cap` concurrent slots.
    pub fn new(cap: u32) -> Self {
        Self {
            cap: Mutex::new(cap.max(1)),
            in_flight: Arc::new(Mutex::new(0)),
        }
    }

    /// Re-tunes the cap at run time (the property plane). Does not evict
    /// calls already in flight.
    pub fn configure(&self, cap: u32) {
        *self.cap.lock() = cap.max(1);
    }

    /// The configured concurrency cap.
    pub fn cap(&self) -> u32 {
        *self.cap.lock()
    }

    /// Calls currently holding a slot.
    pub fn in_flight(&self) -> u32 {
        *self.in_flight.lock()
    }

    /// Takes a slot immediately if one is free.
    pub fn try_acquire(&self) -> Option<BulkheadPermit> {
        let cap = *self.cap.lock();
        let mut in_flight = self.in_flight.lock();
        if *in_flight < cap {
            *in_flight += 1;
            Some(BulkheadPermit {
                in_flight: Arc::clone(&self.in_flight),
            })
        } else {
            None
        }
    }
}

/// RAII slot handle: the slot frees when the permit drops, even on
/// panic or early return.
pub struct BulkheadPermit {
    in_flight: Arc<Mutex<u32>>,
}

impl Drop for BulkheadPermit {
    fn drop(&mut self) {
        let mut in_flight = self.in_flight.lock();
        *in_flight = in_flight.saturating_sub(1);
    }
}

// ---------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------

/// Fixed-point denominator of the admitted fraction (1024 = admit all).
const ADMIT_SCALE: u64 = 1024;
/// Additive recovery per in-target observation.
const ADMIT_INCREASE: u64 = 16;
/// Floor the multiplicative decrease never drops below, so recovery is
/// always possible once pressure lifts.
const ADMIT_FLOOR: u64 = 64;

/// How hard the stack is currently degrading, derived from the admitted
/// fraction. The Location stack uses this to choose what to serve
/// under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeTier {
    /// Normal service: admitted fraction ≥ ⅔.
    Full,
    /// Moderate pressure (⅓ ≤ fraction < ⅔): serve cached answers.
    Reduced,
    /// Heavy pressure (fraction < ⅓): serve cached *and* coarsened.
    Minimal,
}

struct AdmissionState {
    /// Admitted fraction numerator over [`ADMIT_SCALE`].
    rate: u64,
    /// splitmix64 stream state for the admission coin flips.
    rng: u64,
}

/// A deterministic AIMD admission controller.
///
/// Observes each completed call's sojourn time against the policy
/// target: in-target observations recover the admitted fraction
/// additively (+16/1024), over-target observations decay it
/// multiplicatively (×7/8, floored at 64/1024). Admission draws a
/// seeded splitmix64 coin, so the shed pattern replays bit-identically
/// for a given seed and call order.
pub struct AdmissionController {
    state: Mutex<AdmissionState>,
}

impl AdmissionController {
    /// A fully open controller flipping coins from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: Mutex::new(AdmissionState {
                rate: ADMIT_SCALE,
                rng: seed,
            }),
        }
    }

    /// Reseeds the coin-flip stream and reopens the gate (property
    /// `shed.seed`).
    pub fn reseed(&self, seed: u64) {
        let mut state = self.state.lock();
        state.rng = seed;
        state.rate = ADMIT_SCALE;
    }

    /// The admitted fraction numerator (0..=1024).
    pub fn rate(&self) -> u64 {
        self.state.lock().rate
    }

    /// Draws the next admission coin. Deterministic per seed and call
    /// sequence.
    pub fn admit(&self) -> bool {
        let mut state = self.state.lock();
        if state.rate >= ADMIT_SCALE {
            // Fully open: no coin is drawn, so an unloaded proxy's
            // stream position is independent of traffic volume.
            return true;
        }
        let draw = splitmix64(&mut state.rng) % ADMIT_SCALE;
        draw < state.rate
    }

    /// Feeds one completed call's sojourn time into the AIMD loop.
    pub fn observe(&self, sojourn_ms: u64, target_ms: u64) {
        let mut state = self.state.lock();
        if sojourn_ms <= target_ms {
            state.rate = (state.rate + ADMIT_INCREASE).min(ADMIT_SCALE);
        } else {
            state.rate = (state.rate * 7 / 8).max(ADMIT_FLOOR);
        }
    }

    /// The degradation tier the current admitted fraction implies.
    pub fn tier(&self) -> DegradeTier {
        let rate = self.state.lock().rate;
        if rate * 3 >= 2 * ADMIT_SCALE {
            DegradeTier::Full
        } else if rate * 3 >= ADMIT_SCALE {
            DegradeTier::Reduced
        } else {
            DegradeTier::Minimal
        }
    }

    /// The deterministic retry hint attached to shed errors: the more
    /// closed the gate, the longer the suggested wait (up to the
    /// sojourn target).
    pub fn retry_after_ms(&self, target_ms: u64) -> u64 {
        let rate = self.state.lock().rate;
        ((ADMIT_SCALE - rate.min(ADMIT_SCALE)) * target_ms / ADMIT_SCALE).max(1)
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

counter_block! {
    /// Shared overload counters, updated by the stage and snapshotted by
    /// observability code.
    OverloadMetrics => OverloadSnapshot, "overload" {
        /// Calls the admission controller let through.
        admitted,
        /// Calls shed by the admission controller.
        shed,
        /// Calls rejected after exhausting the bulkhead wait queue.
        bulkhead_rejections,
        /// Queue turns spent waiting for a bulkhead slot.
        bulkhead_waits,
        /// Calls failed fast because their deadline budget was already gone.
        deadline_fail_fast,
        /// Sheds absorbed by a degradation tier (cached/coarse answer).
        degraded,
    }
}

impl OverloadMetrics {
    /// Credits one degraded (cached/coarse) answer. Public so fleet
    /// reporting can fold degradation served outside the engine.
    pub fn note_degraded(&self) {
        self.degraded.inc();
    }
}

impl fmt::Display for OverloadSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admitted={} shed={} bulkhead_rejections={} bulkhead_waits={} \
             deadline_fail_fast={} degraded={}",
            self.admitted,
            self.shed,
            self.bulkhead_rejections,
            self.bulkhead_waits,
            self.deadline_fail_fast,
            self.degraded,
        )
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The deadline/bulkhead/shedding engine of one stack's overload stage.
/// Sits *outside* the resilience stage, so a shed call never spends
/// retry budget.
pub struct OverloadEngine {
    device: Device,
    policy: Mutex<OverloadPolicy>,
    bulkhead: Bulkhead,
    admission: AdmissionController,
    metrics: Arc<OverloadMetrics>,
}

impl OverloadEngine {
    /// Builds an engine timing waits against `device`'s simulated clock
    /// and reporting into `metrics`.
    pub fn new(device: Device, policy: OverloadPolicy, metrics: Arc<OverloadMetrics>) -> Self {
        let bulkhead = Bulkhead::new(policy.max_concurrency);
        let admission = AdmissionController::new(policy.shed_seed);
        Self {
            device,
            policy: Mutex::new(policy),
            bulkhead,
            admission,
            metrics,
        }
    }

    /// The current policy (a copy).
    pub fn policy(&self) -> OverloadPolicy {
        self.policy.lock().clone()
    }

    /// The engine's counter block.
    pub fn metrics(&self) -> &Arc<OverloadMetrics> {
        &self.metrics
    }

    /// The current degradation tier.
    pub fn tier(&self) -> DegradeTier {
        self.admission.tier()
    }

    /// The bulkhead, for observability and tests.
    pub fn bulkhead(&self) -> &Bulkhead {
        &self.bulkhead
    }

    /// The admission controller, for observability and tests.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The deadline this call runs under: the ambient one when a scope
    /// is open (tightened against the default budget's expiry never —
    /// the ambient caller knows best), else a fresh default-budget
    /// deadline opened now.
    fn resolve_deadline(&self, policy: &OverloadPolicy) -> Deadline {
        current_deadline()
            .unwrap_or_else(|| Deadline::after(self.device.now_ms(), policy.deadline_default_ms))
    }

    /// Runs `call` under deadline fail-fast, admission control and the
    /// bulkhead, recording every decision as a span event when a trace
    /// is ambient and as an `overload_*` counter always.
    pub(crate) fn execute<T>(
        &self,
        method: &Method,
        call: &dyn Fn() -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        let mut span = StageSpan::open(method.overload, &self.device);
        let result = self.execute_inner(method.name, call, &mut span);
        span.close(result.as_ref().err(), &self.device);
        result
    }

    fn execute_inner<T>(
        &self,
        operation: &str,
        call: &dyn Fn() -> Result<T, ProxyError>,
        span: &mut StageSpan,
    ) -> Result<T, ProxyError> {
        let policy = self.policy();
        let deadline = self.resolve_deadline(&policy);

        // 1. Deadline fail-fast: a call whose budget is already gone
        //    must not touch the binding plane at all.
        let now = self.device.now_ms();
        if deadline.is_expired(now) {
            self.metrics.deadline_fail_fast.inc();
            span.event("deadline_fail_fast", now);
            span.attr("deadline.cause", "budget exhausted before admission");
            return Err(ProxyError::new(
                ProxyErrorKind::DeadlineExceeded,
                format!(
                    "deadline expired {} ms ago; {operation} rejected before reaching \
                     the binding plane",
                    now.saturating_sub(deadline.expires_at_ms())
                ),
            ));
        }

        // 2. Admission: a deterministic coin weighted by the AIMD gate.
        if policy.shed_enabled && !self.admission.admit() {
            self.metrics.shed.inc();
            let retry_after = self.admission.retry_after_ms(policy.target_ms);
            span.event("shed", now);
            span.attr("shed.decision", "rejected");
            return Err(ProxyError::new(
                ProxyErrorKind::Overloaded,
                format!(
                    "admission controller shed {operation} (admitted fraction {}/{})",
                    self.admission.rate(),
                    ADMIT_SCALE
                ),
            )
            .with_retry_after(retry_after));
        }
        self.metrics.admitted.inc();
        span.event("admitted", now);

        // 3. Bulkhead: take a slot, waiting bounded simulated turns.
        let permit = self.acquire_slot(&policy, &deadline, span)?;

        // 4. Run the call with the deadline ambient for the layers
        //    below (retry loop, bindings, the JS bridge).
        let result = with_deadline(deadline, call);
        drop(permit);

        // 5. Feed the AIMD loop with the call's sojourn — how long the
        //    caller has been in flight since the deadline opened, which
        //    under batch arrival includes upstream queueing delay.
        let done = self.device.now_ms();
        self.admission
            .observe(deadline.sojourn_ms(done), policy.target_ms);
        result
    }

    fn acquire_slot(
        &self,
        policy: &OverloadPolicy,
        deadline: &Deadline,
        span: &mut StageSpan,
    ) -> Result<BulkheadPermit, ProxyError> {
        let mut waits: u32 = 0;
        loop {
            if let Some(permit) = self.bulkhead.try_acquire() {
                return Ok(permit);
            }
            if waits >= policy.queue_depth {
                self.metrics.bulkhead_rejections.inc();
                span.event("bulkhead_rejected", self.device.now_ms());
                return Err(ProxyError::new(
                    ProxyErrorKind::Overloaded,
                    format!(
                        "bulkhead full ({} slots) and wait queue exhausted after {waits} turn(s)",
                        self.bulkhead.cap()
                    ),
                )
                .with_retry_after(policy.queue_wait_ms.max(1)));
            }
            let now = self.device.now_ms();
            if deadline.remaining_ms(now) < policy.queue_wait_ms {
                self.metrics.deadline_fail_fast.inc();
                span.event("deadline_fail_fast", now);
                span.attr(
                    "deadline.cause",
                    "budget too small to queue for a bulkhead slot",
                );
                return Err(ProxyError::new(
                    ProxyErrorKind::DeadlineExceeded,
                    format!(
                        "deadline budget ({} ms left) cannot cover a {} ms bulkhead queue turn",
                        deadline.remaining_ms(now),
                        policy.queue_wait_ms
                    ),
                ));
            }
            waits += 1;
            self.metrics.bulkhead_waits.inc();
            span.event("bulkhead_wait", now);
            self.device.advance_ms(policy.queue_wait_ms);
        }
    }

    /// Intercepts the overload property keys; returns `None` for keys
    /// that belong to the stages below.
    pub fn try_set_policy_property(
        &self,
        key: &str,
        value: &PropertyValue,
    ) -> Option<Result<(), ProxyError>> {
        let mut policy = self.policy.lock();
        let knob = Knob {
            layer: "overload",
            key,
            value,
        };
        let result = match key {
            "bulkhead.max_concurrency" => knob.int(1).map(|n| {
                policy.max_concurrency = n as u32;
                self.bulkhead.configure(policy.max_concurrency);
            }),
            "bulkhead.queue_depth" => knob.int(0).map(|n| policy.queue_depth = n as u32),
            "bulkhead.queue_wait_ms" => knob.int(1).map(|n| policy.queue_wait_ms = n as u64),
            "shed.enabled" => knob.bool().map(|on| policy.shed_enabled = on),
            "shed.target_ms" => knob.int(1).map(|n| policy.target_ms = n as u64),
            "shed.seed" => knob.int(i64::MIN).map(|n| {
                policy.shed_seed = n as u64;
                self.admission.reseed(policy.shed_seed);
            }),
            "deadline.default_ms" => knob.int(1).map(|n| policy.deadline_default_ms = n as u64),
            _ => return None,
        };
        Some(result)
    }

    /// The Location degradation tier: absorbs a shed into the last
    /// admitted fix `cached` when one exists — served as-is at
    /// [`DegradeTier::Reduced`], with its stated accuracy coarsened to
    /// at least 500 m at [`DegradeTier::Minimal`].
    pub(crate) fn degrade_fix(
        &self,
        cached: Option<Location>,
        shed: ProxyError,
    ) -> Result<Location, ProxyError> {
        if !shed.kind().is_load_shed() {
            return Err(shed);
        }
        match cached {
            Some(mut fix) => {
                if self.tier() == DegradeTier::Minimal {
                    fix.accuracy_m = fix.accuracy_m.max(COARSE_ACCURACY_M);
                }
                self.metrics.note_degraded();
                Ok(fix)
            }
            None => Err(shed),
        }
    }

    /// The HTTP degradation tier: a shed request whose URL contains the
    /// configured droppable fragment (`shed.droppable_path`) is answered
    /// with a synthetic `202 Accepted` carrying an
    /// `X-Mobivine-Degraded` header instead of an error — the
    /// enrichment is dropped, the caller proceeds.
    pub(crate) fn degrade_http(
        &self,
        droppable: Option<&str>,
        url: &str,
        shed: ProxyError,
    ) -> Result<HttpResult, ProxyError> {
        if !shed.kind().is_load_shed() {
            return Err(shed);
        }
        match droppable {
            Some(fragment) if url.contains(fragment) => {
                self.metrics.note_degraded();
                Ok(HttpResult {
                    status: DEGRADED_HTTP_STATUS,
                    headers: vec![("X-Mobivine-Degraded".to_owned(), "shed".to_owned())],
                    body: Vec::new(),
                })
            }
            _ => Err(shed),
        }
    }
}

/// Stated inaccuracy of a coarsened (Minimal-tier) degraded fix.
const COARSE_ACCURACY_M: f64 = 500.0;

/// Synthetic status of a degraded (enrichment-dropped) HTTP answer.
const DEGRADED_HTTP_STATUS: u16 = 202;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HttpProxy, LocationProxy, ProxyBase};
    use crate::stack::{Kind, Layer, Layers, Stack};
    use crate::types::SharedProximityListener;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A stack over `inner` whose only stage is overload under `policy`.
    fn stack<P: ?Sized + Kind>(inner: Arc<P>, device: &Device, policy: OverloadPolicy) -> Stack<P> {
        let layers = Layers {
            overload: Some(Layer {
                policy,
                metrics: OverloadMetrics::shared(),
            }),
            ..Layers::default()
        };
        Stack::new(inner, &layers, device, "test")
    }

    fn engine<P: ?Sized + Kind>(proxy: &Stack<P>) -> &OverloadEngine {
        proxy.overload.as_deref().expect("overload stage")
    }

    fn device() -> Device {
        Device::builder().msisdn("+overload").build()
    }

    /// A location proxy that advances the simulated clock by a fixed
    /// service time per call.
    struct Slow {
        device: Device,
        service_ms: u64,
        calls: AtomicU64,
    }

    impl Slow {
        fn new(device: Device, service_ms: u64) -> Self {
            Self {
                device,
                service_ms,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl ProxyBase for Slow {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl LocationProxy for Slow {
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
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.device.advance_ms(self.service_ms);
            Ok(Location {
                latitude: 12.0,
                longitude: 34.0,
                accuracy_m: 5.0,
                timestamp_ms: self.device.now_ms(),
                ..Location::default()
            })
        }
    }

    fn overloaded(
        device: &Device,
        service_ms: u64,
        policy: OverloadPolicy,
    ) -> Stack<dyn LocationProxy> {
        stack::<dyn LocationProxy>(
            Arc::new(Slow::new(device.clone(), service_ms)),
            device,
            policy,
        )
    }

    // ---- Deadline ----------------------------------------------------

    #[test]
    fn deadline_arithmetic_is_saturating_and_origin_preserving() {
        let d = Deadline::after(1_000, 500);
        assert_eq!(d.start_ms(), 1_000);
        assert_eq!(d.expires_at_ms(), 1_500);
        assert_eq!(d.remaining_ms(1_200), 300);
        assert_eq!(d.remaining_ms(2_000), 0);
        assert!(d.is_expired(1_500));
        assert!(!d.is_expired(1_499));
        assert_eq!(d.sojourn_ms(1_400), 400);
        assert_eq!(d.sojourn_ms(900), 0);
        let tight = d.tightened_by(Deadline::after(1_100, 100));
        assert_eq!(tight.start_ms(), 1_000, "earlier origin wins");
        assert_eq!(tight.expires_at_ms(), 1_200, "earlier expiry wins");
        let huge = Deadline::after(u64::MAX - 1, u64::MAX);
        assert_eq!(huge.expires_at_ms(), u64::MAX);
    }

    #[test]
    fn ambient_deadline_scopes_nest_and_unwind() {
        assert_eq!(current_deadline(), None);
        let outer = Deadline::after(0, 1_000);
        let inner = Deadline::after(100, 200);
        with_deadline(outer, || {
            assert_eq!(current_deadline(), Some(outer));
            with_deadline(inner, || {
                assert_eq!(current_deadline(), Some(inner));
            });
            assert_eq!(current_deadline(), Some(outer));
        });
        assert_eq!(current_deadline(), None);
    }

    #[test]
    fn ambient_deadline_unwinds_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_deadline(Deadline::after(0, 10), || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(current_deadline(), None, "scope popped despite panic");
    }

    // ---- Bulkhead ----------------------------------------------------

    #[test]
    fn bulkhead_caps_concurrency_and_frees_on_drop() {
        let bulkhead = Bulkhead::new(2);
        let a = bulkhead.try_acquire().expect("slot 1");
        let _b = bulkhead.try_acquire().expect("slot 2");
        assert_eq!(bulkhead.in_flight(), 2);
        assert!(bulkhead.try_acquire().is_none(), "cap reached");
        drop(a);
        assert_eq!(bulkhead.in_flight(), 1);
        assert!(bulkhead.try_acquire().is_some(), "slot recycled");
    }

    #[test]
    fn bulkhead_queue_exhaustion_is_a_typed_overloaded_error() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            0,
            OverloadPolicy::default()
                .max_concurrency(1)
                .queue_depth(3)
                .queue_wait_ms(10)
                .shed_enabled(false),
        );
        // Hold the only slot so every call must queue.
        let _slot = engine(&proxy).bulkhead().try_acquire().unwrap();
        let before = dev.now_ms();
        let err = proxy.get_location().unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Overloaded);
        assert_eq!(err.retry_after_ms(), Some(10));
        assert_eq!(
            dev.now_ms() - before,
            30,
            "three simulated queue turns were waited"
        );
        let snap = engine(&proxy).metrics().snapshot();
        assert_eq!(snap.bulkhead_waits, 3);
        assert_eq!(snap.bulkhead_rejections, 1);
    }

    #[test]
    fn queued_caller_fails_fast_when_budget_cannot_cover_a_turn() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            0,
            OverloadPolicy::default()
                .max_concurrency(1)
                .queue_depth(100)
                .queue_wait_ms(50)
                .shed_enabled(false),
        );
        let _slot = engine(&proxy).bulkhead().try_acquire().unwrap();
        let err = with_deadline(Deadline::after(dev.now_ms(), 30), || {
            proxy.get_location().unwrap_err()
        });
        assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded);
        assert_eq!(engine(&proxy).metrics().snapshot().deadline_fail_fast, 1);
    }

    // ---- Admission controller ----------------------------------------

    #[test]
    fn aimd_decays_multiplicatively_and_recovers_additively() {
        let admission = AdmissionController::new(1);
        assert_eq!(admission.rate(), ADMIT_SCALE);
        admission.observe(1_000, 100);
        assert_eq!(admission.rate(), ADMIT_SCALE * 7 / 8);
        admission.observe(1_000, 100);
        assert_eq!(admission.rate(), ADMIT_SCALE * 7 / 8 * 7 / 8);
        let decayed = admission.rate();
        admission.observe(50, 100);
        assert_eq!(admission.rate(), decayed + ADMIT_INCREASE);
        // Recovery saturates at fully open.
        for _ in 0..200 {
            admission.observe(50, 100);
        }
        assert_eq!(admission.rate(), ADMIT_SCALE);
    }

    #[test]
    fn aimd_never_leaves_its_bounds_and_converges_under_any_signal() {
        // Deterministic mirror of the proptest invariant: whatever
        // sequence of observations arrives, the rate stays in
        // [ADMIT_FLOOR, ADMIT_SCALE] — no oscillation divergence.
        let admission = AdmissionController::new(9);
        let mut signal = 42u64;
        for _ in 0..10_000 {
            let sojourn = splitmix64(&mut signal) % 600;
            admission.observe(sojourn, 256);
            let rate = admission.rate();
            assert!((ADMIT_FLOOR..=ADMIT_SCALE).contains(&rate), "rate {rate}");
        }
        // Pure overload pins the floor; pure health pins fully open.
        for _ in 0..100 {
            admission.observe(10_000, 256);
        }
        assert_eq!(admission.rate(), ADMIT_FLOOR);
        for _ in 0..200 {
            admission.observe(1, 256);
        }
        assert_eq!(admission.rate(), ADMIT_SCALE);
    }

    #[test]
    fn shed_decisions_replay_identically_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let admission = AdmissionController::new(seed);
            // Close the gate partway so coins are actually drawn.
            for _ in 0..10 {
                admission.observe(1_000, 100);
            }
            (0..64).map(|_| admission.admit()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same shed pattern");
        assert_ne!(run(7), run(8), "different seed, different pattern");
    }

    #[test]
    fn fully_open_gate_draws_no_coins() {
        let admission = AdmissionController::new(3);
        for _ in 0..100 {
            assert!(admission.admit());
        }
        // The stream has not advanced: closing the gate now yields the
        // same pattern as a fresh controller closed the same way.
        admission.observe(1_000, 100);
        let fresh = AdmissionController::new(3);
        fresh.observe(1_000, 100);
        let a: Vec<bool> = (0..32).map(|_| admission.admit()).collect();
        let b: Vec<bool> = (0..32).map(|_| fresh.admit()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn degrade_tiers_track_the_admitted_fraction() {
        let admission = AdmissionController::new(1);
        assert_eq!(admission.tier(), DegradeTier::Full);
        while admission.rate() * 3 >= 2 * ADMIT_SCALE {
            admission.observe(1_000, 100);
        }
        assert_eq!(admission.tier(), DegradeTier::Reduced);
        while admission.rate() * 3 >= ADMIT_SCALE {
            admission.observe(1_000, 100);
        }
        assert_eq!(admission.tier(), DegradeTier::Minimal);
    }

    #[test]
    fn retry_hint_grows_as_the_gate_closes() {
        let admission = AdmissionController::new(1);
        assert_eq!(admission.retry_after_ms(256), 1, "open gate: minimal hint");
        for _ in 0..30 {
            admission.observe(1_000, 256);
        }
        let hint = admission.retry_after_ms(256);
        assert!(hint > 200, "closed gate suggests a real wait, got {hint}");
        assert!(hint <= 256);
    }

    // ---- Engine ------------------------------------------------------

    #[test]
    fn expired_ambient_deadline_fails_fast_before_the_binding() {
        let dev = device();
        let inner = Arc::new(Slow::new(dev.clone(), 5));
        let proxy = stack::<dyn LocationProxy>(inner.clone(), &dev, OverloadPolicy::default());
        let stale = Deadline::after(dev.now_ms(), 100);
        dev.advance_ms(200);
        let err = with_deadline(stale, || proxy.get_location().unwrap_err());
        assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded);
        assert_eq!(inner.calls.load(Ordering::Relaxed), 0, "binding untouched");
        assert_eq!(engine(&proxy).metrics().snapshot().deadline_fail_fast, 1);
    }

    #[test]
    fn calls_without_an_ambient_scope_get_the_default_budget() {
        let dev = device();
        let proxy = overloaded(&dev, 5, OverloadPolicy::default());
        assert!(proxy.get_location().is_ok());
        let snap = engine(&proxy).metrics().snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.deadline_fail_fast, 0);
    }

    #[test]
    fn slow_calls_close_the_gate_and_sheds_carry_retry_hints() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            1_000,
            OverloadPolicy::default().target_ms(100).shed_seed(5),
        );
        let mut sheds = 0u32;
        let mut hints_present = true;
        for _ in 0..200 {
            match proxy.get_location() {
                Err(e) if e.kind() == ProxyErrorKind::Overloaded => {
                    sheds += 1;
                    hints_present &= e.retry_after_ms().is_some();
                }
                _ => {}
            }
        }
        // No cached fix would exist only if the very first call shed,
        // which cannot happen from a fully open gate — so sheds here
        // were absorbed by degradation unless the cache was empty.
        let snap = engine(&proxy).metrics().snapshot();
        assert!(snap.shed > 0, "1000 ms calls vs 100 ms target must shed");
        assert!(engine(&proxy).admission().rate() < ADMIT_SCALE);
        assert!(hints_present);
        assert_eq!(sheds, 0, "location sheds degrade to the cached fix");
        assert_eq!(snap.degraded, snap.shed);
    }

    #[test]
    fn degraded_location_is_coarsened_at_the_minimal_tier() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            1_000,
            OverloadPolicy::default().target_ms(50).shed_seed(11),
        );
        // Drive the gate to the floor.
        let mut saw_coarse = false;
        for _ in 0..300 {
            if let Ok(fix) = proxy.get_location() {
                if fix.accuracy_m >= COARSE_ACCURACY_M {
                    saw_coarse = true;
                }
            }
        }
        assert_eq!(engine(&proxy).tier(), DegradeTier::Minimal);
        assert!(saw_coarse, "minimal tier coarsens the cached fix");
    }

    #[test]
    fn shed_disabled_admits_everything() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            1_000,
            OverloadPolicy::default().target_ms(10).shed_enabled(false),
        );
        for _ in 0..50 {
            proxy.get_location().unwrap();
        }
        let snap = engine(&proxy).metrics().snapshot();
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.admitted, 50);
    }

    #[test]
    fn policy_is_tunable_through_the_property_plane() {
        let dev = device();
        let proxy = overloaded(&dev, 0, OverloadPolicy::default());
        proxy
            .set_property("bulkhead.max_concurrency", PropertyValue::Int(3))
            .unwrap();
        assert_eq!(engine(&proxy).bulkhead().cap(), 3);
        proxy
            .set_property("shed.enabled", PropertyValue::Bool(false))
            .unwrap();
        assert!(!engine(&proxy).policy().shed_enabled);
        proxy
            .set_property("shed.target_ms", PropertyValue::str("512"))
            .unwrap();
        assert_eq!(engine(&proxy).policy().target_ms, 512);
        proxy
            .set_property("deadline.default_ms", PropertyValue::Int(2_000))
            .unwrap();
        assert_eq!(engine(&proxy).policy().deadline_default_ms, 2_000);
        let err = proxy
            .set_property("bulkhead.max_concurrency", PropertyValue::Int(0))
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::BadPropertyValue);
        // Non-overload keys flow to the stages below.
        proxy
            .set_property("provider", PropertyValue::str("gps"))
            .unwrap();
    }

    #[test]
    fn reseeding_reopens_the_gate_deterministically() {
        let dev = device();
        let proxy = overloaded(&dev, 0, OverloadPolicy::default());
        for _ in 0..20 {
            engine(&proxy).admission().observe(1_000, 100);
        }
        assert!(engine(&proxy).admission().rate() < ADMIT_SCALE);
        proxy
            .set_property("shed.seed", PropertyValue::Int(99))
            .unwrap();
        assert_eq!(engine(&proxy).admission().rate(), ADMIT_SCALE);
    }

    // ---- HTTP degradation --------------------------------------------

    struct OkHttp {
        device: Device,
        service_ms: u64,
    }

    impl ProxyBase for OkHttp {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl HttpProxy for OkHttp {
        fn request(
            &self,
            _method: &str,
            _url: &str,
            _body: &[u8],
        ) -> Result<HttpResult, ProxyError> {
            self.device.advance_ms(self.service_ms);
            Ok(HttpResult {
                status: 200,
                headers: Vec::new(),
                body: b"enriched".to_vec(),
            })
        }
    }

    #[test]
    fn shed_droppable_http_requests_degrade_to_synthetic_accepted() {
        let dev = device();
        let proxy = stack::<dyn HttpProxy>(
            Arc::new(OkHttp {
                device: dev.clone(),
                service_ms: 1_000,
            }),
            &dev,
            OverloadPolicy::default().target_ms(50).shed_seed(4),
        );
        proxy
            .set_property("shed.droppable_path", PropertyValue::str("/enrich"))
            .unwrap();
        let mut degraded = 0u32;
        let mut hard_sheds = 0u32;
        for i in 0..200 {
            let url = if i % 2 == 0 {
                "http://svc/enrich/profile"
            } else {
                "http://svc/checkout"
            };
            match proxy.request("GET", url, b"") {
                Ok(r) if r.status == DEGRADED_HTTP_STATUS => {
                    assert!(url.contains("/enrich"));
                    assert_eq!(
                        r.headers[0],
                        ("X-Mobivine-Degraded".to_owned(), "shed".to_owned())
                    );
                    degraded += 1;
                }
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), ProxyErrorKind::Overloaded);
                    assert!(!url.contains("/enrich"), "droppable paths never error");
                    hard_sheds += 1;
                }
            }
        }
        assert!(degraded > 0, "droppable enrichment was dropped");
        assert!(hard_sheds > 0, "non-droppable paths surface the shed");
        assert_eq!(
            engine(&proxy).metrics().snapshot().degraded,
            u64::from(degraded)
        );
    }
}
