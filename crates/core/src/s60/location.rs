//! The S60 Location proxy binding.
//!
//! Emulates the uniform repeated-enter/exit-with-lifetime proximity
//! semantics over JSR-179's single-shot API. The state machine matches
//! the hand-written code of the paper's Fig. 2(b):
//!
//! ```text
//!        ┌────────────────────────────────────────────────┐
//!        ▼                                                │
//!   [watching entry]  --native proximityEvent-->  [watching exit]
//!   (single-shot native           │                (native location
//!    proximity listener)          │                 listener polling)
//!                                 ▼                        │
//!                       deliver entering=true    distance > radius:
//!                                                deliver entering=false,
//!                                                re-register native
//!                                                proximity listener ──┘
//! ```
//!
//! A timer event tears the whole structure down when the registration
//! lifetime elapses (JSR-179 itself has no expiration parameter).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_s60::location::{
    Coordinates, Criteria, LocationListener as S60LocationListener, LocationProvider,
    ProximityListener as S60ProximityListener, NO_REQUIREMENT,
};
use mobivine_s60::S60Platform;

use mobivine_device::power::PowerLevel;
use mobivine_proxydl::PlatformId;

use crate::api::{LocationProxy, ProxyBase};
use crate::error::ProxyError;
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::{Location, ProximityEvent, SharedProximityListener};

/// The S60 binding of the uniform [`LocationProxy`]
/// (`com.ibm.S60.location.LocationProxy` in the descriptor).
pub struct S60LocationProxy {
    platform: S60Platform,
    properties: PropertyBag,
    alerts: Mutex<Vec<AlertEntry>>,
    /// Provider memoized for the current criteria. JSR-179 applications
    /// hold one `LocationProvider` per criteria set; re-deriving it per
    /// call would also put a `Device` clone and an `Arc` on the traced
    /// hot path. Invalidated by `setProperty`, since criteria derive
    /// from the property bag.
    provider_cache: Mutex<Option<Arc<LocationProvider>>>,
}

struct AlertEntry {
    listener: SharedProximityListener,
    shared: Arc<AlertShared>,
}

struct AlertShared {
    active: AtomicBool,
    platform: S60Platform,
    provider: Arc<LocationProvider>,
    listener: SharedProximityListener,
    target: Coordinates,
    ref_altitude: f64,
    radius_m: f64,
    current_native: Mutex<Option<Arc<dyn S60ProximityListener>>>,
}

impl S60LocationProxy {
    /// Creates a proxy bound to `platform`. Platform-specific criteria
    /// (accuracy, response time, power) arrive via `setProperty`.
    pub fn new(platform: S60Platform) -> Self {
        Self {
            platform,
            properties: PropertyBag::new(standard_binding(
                ProxyKind::Location,
                PlatformId::NokiaS60,
            )),
            alerts: Mutex::new(Vec::new()),
            provider_cache: Mutex::new(None),
        }
    }

    fn criteria(&self) -> Criteria {
        let mut criteria = Criteria::new();
        if let Some(v) = self.properties.get_int("verticalAccuracy") {
            criteria.set_vertical_accuracy(v as i32);
        }
        if let Some(t) = self.properties.get_int("preferredResponseTime") {
            criteria.set_preferred_response_time(t as i32);
        }
        if let Some(p) = self
            .properties
            .with_str("powerConsumption", |s| s.and_then(PowerLevel::parse))
        {
            criteria.set_preferred_power_consumption(p);
        }
        criteria
    }

    fn provider(&self) -> Result<Arc<LocationProvider>, ProxyError> {
        let mut cache = self.provider_cache.lock();
        if let Some(provider) = cache.as_ref() {
            return Ok(Arc::clone(provider));
        }
        let provider = Arc::new(LocationProvider::get_instance(
            &self.platform,
            self.criteria(),
        )?);
        *cache = Some(Arc::clone(&provider));
        Ok(provider)
    }
}

fn s60_to_common(l: &mobivine_s60::location::Location) -> Location {
    let c = l.qualified_coordinates();
    Location {
        latitude: c.latitude(),
        longitude: c.longitude(),
        altitude: c.altitude() as f64,
        accuracy_m: l.horizontal_accuracy() as f64,
        timestamp_ms: l.timestamp_ms(),
        speed_mps: l.speed() as f64,
        course_deg: l.course() as f64,
    }
}

/// Registers a fresh single-shot native proximity listener for the next
/// entry event.
fn watch_entry(shared: &Arc<AlertShared>) {
    if !shared.active.load(Ordering::SeqCst) {
        return;
    }
    let adapter: Arc<dyn S60ProximityListener> = Arc::new(EnterAdapter {
        shared: Arc::clone(shared),
    });
    *shared.current_native.lock() = Some(Arc::clone(&adapter));
    // Registration errors at this stage (e.g. GPS went out of service
    // mid-flight) silently end monitoring, mirroring JSR-179's
    // monitoringStateChanged(false) behaviour.
    if LocationProvider::add_proximity_listener(
        &shared.platform,
        adapter,
        shared.target,
        shared.radius_m as f32,
    )
    .is_err()
    {
        shared.active.store(false, Ordering::SeqCst);
    }
}

struct EnterAdapter {
    shared: Arc<AlertShared>,
}

impl S60ProximityListener for EnterAdapter {
    fn proximity_event(
        &self,
        _coordinates: &Coordinates,
        location: &mobivine_s60::location::Location,
    ) {
        let shared = &self.shared;
        if !shared.active.load(Ordering::SeqCst) {
            return;
        }
        shared.listener.proximity_event(&ProximityEvent {
            ref_latitude: shared.target.latitude(),
            ref_longitude: shared.target.longitude(),
            ref_altitude: shared.ref_altitude,
            current_location: s60_to_common(location),
            entering: true,
        });
        // Now watch for the exit boundary with a location listener —
        // the Fig. 2(b) pattern, hidden inside the proxy.
        shared.provider.set_location_listener(
            Some(Arc::new(ExitWatcher {
                shared: Arc::clone(shared),
            })),
            NO_REQUIREMENT,
            NO_REQUIREMENT,
            NO_REQUIREMENT,
        );
    }

    fn monitoring_state_changed(&self, is_monitoring: bool) {
        if !is_monitoring {
            self.shared.active.store(false, Ordering::SeqCst);
        }
    }
}

struct ExitWatcher {
    shared: Arc<AlertShared>,
}

impl S60LocationListener for ExitWatcher {
    fn location_updated(
        &self,
        _provider: &LocationProvider,
        location: &mobivine_s60::location::Location,
    ) {
        let shared = &self.shared;
        if !shared.active.load(Ordering::SeqCst) {
            shared.provider.set_location_listener(
                None,
                NO_REQUIREMENT,
                NO_REQUIREMENT,
                NO_REQUIREMENT,
            );
            return;
        }
        if !location.is_valid() {
            return; // provider temporarily unavailable; keep watching
        }
        let here = location.qualified_coordinates();
        let distance = here.distance(&shared.target) as f64;
        if distance > shared.radius_m {
            shared.listener.proximity_event(&ProximityEvent {
                ref_latitude: shared.target.latitude(),
                ref_longitude: shared.target.longitude(),
                ref_altitude: shared.ref_altitude,
                current_location: s60_to_common(location),
                entering: false,
            });
            shared.provider.set_location_listener(
                None,
                NO_REQUIREMENT,
                NO_REQUIREMENT,
                NO_REQUIREMENT,
            );
            // Arm the next entry cycle.
            watch_entry(shared);
        }
    }
}

fn teardown(shared: &Arc<AlertShared>) {
    shared.active.store(false, Ordering::SeqCst);
    shared
        .provider
        .set_location_listener(None, NO_REQUIREMENT, NO_REQUIREMENT, NO_REQUIREMENT);
    if let Some(native) = shared.current_native.lock().take() {
        LocationProvider::remove_proximity_listener(&shared.platform, &native);
    }
}

impl ProxyBase for S60LocationProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)?;
        // Criteria may have changed; the next call re-derives the
        // provider (matching a fresh getInstance with the new criteria).
        *self.provider_cache.lock() = None;
        Ok(())
    }
}

impl LocationProxy for S60LocationProxy {
    fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        altitude: f64,
        radius: f64,
        timer_s: i64,
        listener: SharedProximityListener,
    ) -> Result<(), ProxyError> {
        let provider = self.provider()?;
        let shared = Arc::new(AlertShared {
            active: AtomicBool::new(true),
            platform: self.platform.clone(),
            provider,
            listener: Arc::clone(&listener),
            target: Coordinates::new(latitude, longitude, altitude as f32),
            ref_altitude: altitude,
            radius_m: radius,
            current_native: Mutex::new(None),
        });
        // Validate arguments through the native API up front so errors
        // surface synchronously (as on Android).
        if radius <= 0.0 || radius.is_nan() {
            return Err(ProxyError::new(
                crate::error::ProxyErrorKind::IllegalArgument,
                "proximity radius must be positive",
            ));
        }
        watch_entry(&shared);
        if !shared.active.load(Ordering::SeqCst) {
            return Err(ProxyError::new(
                crate::error::ProxyErrorKind::Unavailable,
                "proximity monitoring unavailable",
            ));
        }
        if timer_s >= 0 {
            let device = self.platform.device().clone();
            let expire_at = device.now_ms() + (timer_s as u64) * 1000;
            let shared_for_timer = Arc::clone(&shared);
            device
                .events()
                .schedule_at(expire_at, "s60-proxy-alert-expiry", move |_| {
                    teardown(&shared_for_timer);
                });
        }
        self.alerts.lock().push(AlertEntry { listener, shared });
        Ok(())
    }

    fn remove_proximity_alert(
        &self,
        listener: &SharedProximityListener,
    ) -> Result<bool, ProxyError> {
        let mut alerts = self.alerts.lock();
        let before = alerts.len();
        alerts.retain(|entry| {
            if Arc::ptr_eq(&entry.listener, listener) {
                teardown(&entry.shared);
                false
            } else {
                true
            }
        });
        Ok(alerts.len() != before)
    }

    fn get_location(&self) -> Result<Location, ProxyError> {
        let provider = self.provider()?;
        let timeout = self
            .properties
            .get_int("preferredResponseTime")
            .unwrap_or(-1) as i32;
        let location = provider.get_location(timeout)?;
        Ok(s60_to_common(&location))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_device::movement::MovementModel;
    use mobivine_device::{Device, GeoPoint};
    use std::sync::Mutex as StdMutex;

    const HOME: GeoPoint = GeoPoint {
        latitude: 28.5355,
        longitude: 77.3910,
        altitude: 0.0,
    };

    fn moving_platform() -> S60Platform {
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .build();
        device.gps().set_noise_enabled(false);
        S60Platform::new(device)
    }

    fn looping_platform() -> S60Platform {
        let start = HOME.destination(270.0, 300.0);
        let far = HOME.destination(90.0, 300.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::waypoint_loop(vec![start, far], 20.0))
            .build();
        device.gps().set_noise_enabled(false);
        S60Platform::new(device)
    }

    #[test]
    fn proxies_share_the_binding_plane_but_not_property_values() {
        let platform = S60Platform::new(Device::builder().build());
        let a = S60LocationProxy::new(platform.clone());
        let b = S60LocationProxy::new(platform);
        assert!(Arc::ptr_eq(a.properties.binding(), b.properties.binding()));
        a.set_property("powerConsumption", PropertyValue::str("Low"))
            .unwrap();
        assert_eq!(
            a.properties.get_str("powerConsumption").as_deref(),
            Some("Low")
        );
        assert_eq!(
            b.properties.get_str("powerConsumption").as_deref(),
            Some("NoRequirement")
        );
        // The same interface on another platform has a plane of its own.
        let android = standard_binding(ProxyKind::Location, PlatformId::Android);
        assert!(!Arc::ptr_eq(a.properties.binding(), &android));
    }

    fn collect_events() -> (SharedProximityListener, Arc<StdMutex<Vec<bool>>>) {
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
        (listener, events)
    }

    #[test]
    fn uniform_enter_exit_semantics_emulated() {
        let platform = moving_platform();
        let proxy = S60LocationProxy::new(platform.clone());
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        // Single pass through the region: despite the native API being
        // single-shot and exit-free, the proxy delivers enter AND exit.
        assert_eq!(events.lock().unwrap().as_slice(), &[true, false]);
    }

    #[test]
    fn repeated_alerts_on_reentry() {
        let platform = looping_platform();
        let proxy = S60LocationProxy::new(platform.clone());
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(240_000);
        let events = events.lock().unwrap();
        assert!(
            events.len() >= 4,
            "expected repeated enter/exit cycles, got {events:?}"
        );
        for pair in events.windows(2) {
            assert_ne!(pair[0], pair[1], "events must alternate: {events:?}");
        }
        assert!(events[0], "first event is an enter");
    }

    #[test]
    fn timer_expires_the_registration() {
        let platform = moving_platform();
        let proxy = S60LocationProxy::new(platform.clone());
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, 10, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        assert!(events.lock().unwrap().is_empty());
    }

    #[test]
    fn timer_spanning_entry_cuts_off_exit() {
        let platform = moving_platform();
        let proxy = S60LocationProxy::new(platform.clone());
        let (listener, events) = collect_events();
        // Entry at ~40 s, exit at ~60 s; expire at 50 s → enter only.
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, 50, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        assert_eq!(events.lock().unwrap().as_slice(), &[true]);
    }

    #[test]
    fn remove_by_listener_identity() {
        let platform = moving_platform();
        let proxy = S60LocationProxy::new(platform.clone());
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(
                HOME.latitude,
                HOME.longitude,
                0.0,
                100.0,
                -1,
                Arc::clone(&listener),
            )
            .unwrap();
        assert!(proxy.remove_proximity_alert(&listener).unwrap());
        assert!(!proxy.remove_proximity_alert(&listener).unwrap());
        platform.device().advance_ms(120_000);
        assert!(events.lock().unwrap().is_empty());
    }

    #[test]
    fn get_location_returns_common_type() {
        let device = Device::builder().position(HOME).build();
        device.gps().set_noise_enabled(false);
        let proxy = S60LocationProxy::new(S60Platform::new(device));
        let loc = proxy.get_location().unwrap();
        assert!((loc.latitude - HOME.latitude).abs() < 1e-9);
    }

    #[test]
    fn power_consumption_property_flows_into_criteria() {
        let device = Device::builder().position(HOME).build();
        let proxy = S60LocationProxy::new(S60Platform::new(device));
        let default_acc = proxy.get_location().unwrap().accuracy_m;
        proxy
            .set_property("powerConsumption", PropertyValue::str("Low"))
            .unwrap();
        let low_acc = proxy.get_location().unwrap().accuracy_m;
        assert!(low_acc > default_acc, "low power coarsens accuracy");
    }

    #[test]
    fn bad_power_value_rejected() {
        let proxy = S60LocationProxy::new(S60Platform::new(Device::builder().build()));
        assert_eq!(
            proxy
                .set_property("powerConsumption", PropertyValue::str("Turbo"))
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::BadPropertyValue
        );
    }

    #[test]
    fn invalid_radius_is_synchronous_error() {
        let proxy = S60LocationProxy::new(moving_platform());
        let (listener, _) = collect_events();
        assert_eq!(
            proxy
                .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 0.0, -1, listener)
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::IllegalArgument
        );
    }

    #[test]
    fn gps_outage_mid_flight_stops_monitoring_quietly() {
        let platform = moving_platform();
        let proxy = S60LocationProxy::new(platform.clone());
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(5_000);
        platform
            .device()
            .gps()
            .set_availability(mobivine_device::gps::GpsAvailability::OutOfService);
        platform.device().advance_ms(120_000);
        assert!(events.lock().unwrap().is_empty());
    }
}
