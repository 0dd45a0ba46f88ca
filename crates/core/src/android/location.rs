//! The Android Location proxy binding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_android::context::Context;
use mobivine_android::intent::{Intent, IntentFilter, IntentReceiver};
use mobivine_android::location::{Registration, KEY_PROXIMITY_ENTERING};
use mobivine_android::pending_intent::PendingIntent;
use mobivine_proxydl::PlatformId;

use crate::api::{LocationProxy, ProxyBase};
use crate::error::ProxyError;
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::{Location, ProximityEvent, SharedProximityListener};

/// Base action string for the intents the proxy creates internally —
/// the constant from the paper's Fig. 2(a).
pub const PROXIMITY_ALERT_ACTION: &str = "com.ibm.proxies.android.intent.action.PROXIMITY_ALERT";

static NEXT_ALERT_SEQ: AtomicU64 = AtomicU64::new(0);

struct AlertRecord {
    listener: SharedProximityListener,
    registration: Registration,
    receiver_handle: mobivine_android::context::ReceiverHandle,
    action: String,
}

/// The Android binding of the uniform [`LocationProxy`]
/// (`com.ibm.proxies.android.location.LocationProxyImpl` in the
/// descriptor).
pub struct AndroidLocationProxy {
    properties: PropertyBag,
    alerts: Mutex<Vec<AlertRecord>>,
}

impl Default for AndroidLocationProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl AndroidLocationProxy {
    /// Creates an unconfigured proxy; set the `context` property before
    /// invoking any interface (Fig. 8(a):
    /// `loc.setProperty("context", this)`).
    pub fn new() -> Self {
        Self {
            properties: PropertyBag::new(standard_binding(
                ProxyKind::Location,
                PlatformId::Android,
            )),
            alerts: Mutex::new(Vec::new()),
        }
    }

    fn context(&self) -> Result<Arc<Context>, ProxyError> {
        self.properties.require_opaque::<Context>("context")
    }

    fn provider(&self) -> String {
        self.properties
            .get_str("provider")
            .unwrap_or_else(|| "gps".to_owned())
    }

    /// Borrowed-provider variant for the per-call path: no clone of the
    /// property value, no `to_owned` of the default.
    fn with_provider<T>(&self, f: impl FnOnce(&str) -> T) -> T {
        self.properties
            .with_str("provider", |p| f(p.unwrap_or("gps")))
    }
}

/// Adapts broadcast intents to the common `ProximityListener` — the
/// `ProximityIntentReceiver` role of Fig. 2(a), but inside the proxy.
struct AdapterReceiver {
    action: String,
    listener: SharedProximityListener,
    ref_latitude: f64,
    ref_longitude: f64,
    ref_altitude: f64,
    provider: String,
}

impl IntentReceiver for AdapterReceiver {
    fn on_receive_intent(&self, ctxt: &Context, intent: &Intent) {
        if intent.action() != self.action {
            return;
        }
        let entering = intent.get_boolean_extra(KEY_PROXIMITY_ENTERING, false);
        // As in the paper's receiver: fetch the current location from
        // the LocationManager to hand to the business logic.
        let current_location = ctxt
            .location_manager()
            .get_current_location(&self.provider)
            .map(|l| android_to_common(&l))
            .unwrap_or_default();
        self.listener.proximity_event(&ProximityEvent {
            ref_latitude: self.ref_latitude,
            ref_longitude: self.ref_longitude,
            ref_altitude: self.ref_altitude,
            current_location,
            entering,
        });
    }
}

fn android_to_common(l: &mobivine_android::location::Location) -> Location {
    Location {
        latitude: l.latitude(),
        longitude: l.longitude(),
        altitude: l.altitude(),
        accuracy_m: l.accuracy() as f64,
        timestamp_ms: l.time(),
        speed_mps: l.speed() as f64,
        course_deg: l.bearing() as f64,
    }
}

impl ProxyBase for AndroidLocationProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl LocationProxy for AndroidLocationProxy {
    fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        altitude: f64,
        radius: f64,
        timer_s: i64,
        listener: SharedProximityListener,
    ) -> Result<(), ProxyError> {
        let ctx = self.context()?;
        let action = format!(
            "{PROXIMITY_ALERT_ACTION}.{}",
            NEXT_ALERT_SEQ.fetch_add(1, Ordering::SeqCst)
        );
        let provider = self.provider();
        let receiver = Arc::new(AdapterReceiver {
            action: action.clone(),
            listener: Arc::clone(&listener),
            ref_latitude: latitude,
            ref_longitude: longitude,
            ref_altitude: altitude,
            provider,
        });
        let receiver_handle = ctx.register_receiver(receiver, IntentFilter::new(&action));
        let expiration_ms = if timer_s < 0 { -1 } else { timer_s * 1000 };
        let intent = Intent::new(&action);
        let lm = ctx.location_manager();
        // Absorb the m5-rc15 → 1.0 API evolution inside the binding: the
        // proxy picks whichever overload the running SDK provides.
        let result = if ctx.version().has_intent_proximity_api() {
            lm.add_proximity_alert(latitude, longitude, radius as f32, expiration_ms, intent)
        } else {
            lm.add_proximity_alert_pending(
                latitude,
                longitude,
                radius as f32,
                expiration_ms,
                PendingIntent::get_broadcast(intent),
            )
        };
        match result {
            Ok(registration) => {
                self.alerts.lock().push(AlertRecord {
                    listener,
                    registration,
                    receiver_handle,
                    action,
                });
                Ok(())
            }
            Err(e) => {
                ctx.unregister_receiver(receiver_handle);
                Err(e.into())
            }
        }
    }

    fn remove_proximity_alert(
        &self,
        listener: &SharedProximityListener,
    ) -> Result<bool, ProxyError> {
        let ctx = self.context()?;
        let mut alerts = self.alerts.lock();
        let before = alerts.len();
        alerts.retain(|record| {
            if Arc::ptr_eq(&record.listener, listener) {
                ctx.location_manager()
                    .remove_proximity_alert(&Intent::new(&record.action));
                record.registration.cancel();
                ctx.unregister_receiver(record.receiver_handle);
                false
            } else {
                true
            }
        });
        Ok(alerts.len() != before)
    }

    fn get_location(&self) -> Result<Location, ProxyError> {
        let ctx = self.context()?;
        let location =
            self.with_provider(|provider| ctx.location_manager().get_current_location(provider))?;
        Ok(android_to_common(&location))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::movement::MovementModel;
    use mobivine_device::{Device, GeoPoint};
    use std::sync::Mutex as StdMutex;

    const HOME: GeoPoint = GeoPoint {
        latitude: 28.5355,
        longitude: 77.3910,
        altitude: 0.0,
    };

    fn moving_platform(version: SdkVersion) -> AndroidPlatform {
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .build();
        device.gps().set_noise_enabled(false);
        AndroidPlatform::new(device, version)
    }

    fn configured_proxy(platform: &AndroidPlatform) -> AndroidLocationProxy {
        let proxy = AndroidLocationProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        proxy
            .set_property("provider", PropertyValue::str("gps"))
            .unwrap();
        proxy
    }

    fn collect_events() -> (SharedProximityListener, Arc<StdMutex<Vec<ProximityEvent>>>) {
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(*e);
        });
        (listener, events)
    }

    #[test]
    fn get_location_requires_context_property() {
        let proxy = AndroidLocationProxy::new();
        let err = proxy.get_location().unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::MissingProperty);
    }

    #[test]
    fn uniform_proximity_semantics_on_m5() {
        let platform = moving_platform(SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 2, "enter then exit");
        assert!(events[0].entering);
        assert!(!events[1].entering);
        assert_eq!(events[0].ref_latitude, HOME.latitude);
        // The callback carries a usable current location.
        assert!(events[0].current_location.timestamp_ms > 0);
    }

    #[test]
    fn same_proxy_code_works_on_sdk_1_0() {
        // The maintenance claim: identical application-side calls, the
        // proxy absorbs the PendingIntent change internally.
        let platform = moving_platform(SdkVersion::V1_0);
        let proxy = configured_proxy(&platform);
        let (listener, events) = collect_events();
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        assert_eq!(events.lock().unwrap().len(), 2);
    }

    #[test]
    fn timer_expires_registration() {
        let platform = moving_platform(SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
        let (listener, events) = collect_events();
        // Region entered at ~40 s but the alert expires after 10 s.
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, 10, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        assert!(events.lock().unwrap().is_empty());
    }

    #[test]
    fn remove_by_listener_identity() {
        let platform = moving_platform(SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
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
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
        let loc = proxy.get_location().unwrap();
        assert!((loc.latitude - HOME.latitude).abs() < 1e-9);
        assert!(loc.accuracy_m > 0.0);
    }

    #[test]
    fn network_provider_property_respected() {
        let device = Device::builder().position(HOME).build();
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
        let gps_acc = proxy.get_location().unwrap().accuracy_m;
        proxy
            .set_property("provider", PropertyValue::str("network"))
            .unwrap();
        let net_acc = proxy.get_location().unwrap().accuracy_m;
        assert!(net_acc > gps_acc);
    }

    #[test]
    fn invalid_provider_value_rejected_at_set_property() {
        let platform = moving_platform(SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
        let err = proxy
            .set_property("provider", PropertyValue::str("wifi"))
            .unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::BadPropertyValue);
    }

    #[test]
    fn failed_registration_cleans_up_receiver() {
        let platform = moving_platform(SdkVersion::M5Rc15);
        let proxy = configured_proxy(&platform);
        let (listener, _) = collect_events();
        // Invalid radius → platform IllegalArgument; the adapter
        // receiver must not leak.
        let err = proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, -5.0, -1, listener)
            .unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::IllegalArgument);
        assert!(proxy.alerts.lock().is_empty());
    }
}
