//! JavaScript-side proxies (Fig. 6, steps 2 and 3).
//!
//! Each `WebView*Proxy` is the JavaScript proxy object of the paper:
//! constructed over the wrapper handle (`swi`) obtained from the page,
//! it exposes the uniform proxy traits. Asynchronous callbacks are wired
//! through the Notification Table — the proxy receives a notification id
//! from the wrapper, spins up a polling [`NotifHandler`], and dispatches
//! each retrieved notification to the registered callback.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_proxydl::{PlatformBinding, PlatformId};
use mobivine_telemetry::span::ambient;
use mobivine_telemetry::TraceparentBuf;
use mobivine_webview::bridge::BridgeError;
use mobivine_webview::notification::{NotifHandler, NotificationId, NotificationTable};
use mobivine_webview::webview::JsInterfaceHandle;
use mobivine_webview::wire::{BatchReplies, NodeId, WireBuf, WireValue};
use mobivine_webview::{JsValue, WebView};

use crate::api::{CallProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::{
    CallProgress, DeliveryListener, DeliveryOutcome, HttpResult, Location, SharedProximityListener,
};
use crate::webview::wrappers::{interface_names, location_from_wire, proximity_event_from_js};

/// The JavaScript-local property that flips the location proxy's
/// multi-read between one batched crossing and two wire calls. It never
/// crosses the bridge — the JavaScript plane owns the batching policy.
pub const BATCH_PROPERTY: &str = "bridge.batch";

fn property_value_to_js_string(value: &PropertyValue) -> Result<String, ProxyError> {
    match value {
        PropertyValue::Str(s) => Ok(s.clone()),
        PropertyValue::Int(i) => Ok(i.to_string()),
        PropertyValue::Bool(b) => Ok(b.to_string()),
        PropertyValue::Opaque(_) => Err(ProxyError::new(
            ProxyErrorKind::BadPropertyValue,
            "opaque platform objects cannot cross the JavaScript bridge",
        )),
    }
}

fn wrapper_handle(webview: &WebView, name: &str) -> Result<JsInterfaceHandle, ProxyError> {
    webview.js_interface(name).ok_or_else(|| {
        ProxyError::new(
            ProxyErrorKind::Unavailable,
            format!("wrapper {name} is not injected — call install_wrappers first"),
        )
    })
}

/// Shared plumbing for the JS proxies: the wrapper handle plus the
/// page's notification infrastructure.
struct JsProxyCore {
    handle: JsInterfaceHandle,
    table: Arc<NotificationTable>,
    device: Device,
    properties: PropertyBag,
}

impl JsProxyCore {
    fn new(
        webview: &WebView,
        name: &str,
        binding: Arc<PlatformBinding>,
    ) -> Result<Self, ProxyError> {
        Ok(Self {
            handle: wrapper_handle(webview, name)?,
            table: Arc::clone(webview.notifications()),
            device: webview.context().device().clone(),
            properties: PropertyBag::new(binding),
        })
    }

    /// Crosses the bridge with the full marshalled call context: the
    /// ambient trace context rendered as a `traceparent` string (so the
    /// Java-side wrapper can parent its Bridge-plane span off the
    /// JavaScript caller's span) plus the ambient deadline's remaining
    /// budget in virtual milliseconds (the ambient stack itself cannot
    /// cross the marshalling boundary, so the budget is re-opened as a
    /// native-side scope by the wrapper).
    fn invoke(&self, method: &str, args: &[JsValue]) -> Result<JsValue, BridgeError> {
        let (traceparent, deadline_budget_ms) = self.marshalled_context();
        self.handle.invoke_with_context(
            method,
            args,
            traceparent.as_ref().map(TraceparentBuf::as_str),
            deadline_budget_ms,
        )
    }

    /// The two marshallable pieces of ambient call context: the trace
    /// context rendered into a fixed stack buffer (no heap) and the
    /// deadline's remaining budget as a plain integer.
    fn marshalled_context(&self) -> (Option<TraceparentBuf>, Option<u64>) {
        let traceparent = ambient::current().as_ref().map(TraceparentBuf::render);
        let deadline_budget_ms = crate::overload::current_deadline()
            .map(|deadline| deadline.remaining_ms(self.device.now_ms()));
        (traceparent, deadline_budget_ms)
    }

    /// Crosses the bridge through the zero-copy wire path with the same
    /// marshalled context as [`JsProxyCore::invoke`].
    fn invoke_wire<T>(
        &self,
        method: &str,
        encode: impl FnOnce(&mut WireBuf) -> NodeId,
        decode: impl FnOnce(WireValue<'_>) -> Result<T, BridgeError>,
    ) -> Result<T, BridgeError> {
        let (traceparent, deadline_budget_ms) = self.marshalled_context();
        self.handle.invoke_wire(
            method,
            traceparent.as_ref().map(TraceparentBuf::as_str),
            deadline_budget_ms,
            encode,
            decode,
        )
    }

    /// One crossing carrying several queued wrapper calls, with the
    /// same marshalled context as [`JsProxyCore::invoke`].
    fn invoke_batch<T>(
        &self,
        encode: impl FnOnce(&mut WireBuf),
        decode: impl FnOnce(BatchReplies<'_>) -> Result<T, BridgeError>,
    ) -> Result<T, BridgeError> {
        let (traceparent, deadline_budget_ms) = self.marshalled_context();
        self.handle.invoke_batch(
            traceparent.as_ref().map(TraceparentBuf::as_str),
            deadline_budget_ms,
            encode,
            decode,
        )
    }

    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        // Validate locally against the WebView binding plane, then
        // forward over the bridge (the wrapper re-validates against the
        // Android plane where applicable).
        self.properties.set(key, value.clone())?;
        let rendered = property_value_to_js_string(&value)?;
        // Properties the Android side does not declare (e.g.
        // pollInterval) stay JavaScript-local.
        let _ = self.invoke("setProperty", &[JsValue::str(key), JsValue::Str(rendered)]);
        Ok(())
    }

    fn poll_interval_ms(&self) -> u64 {
        self.properties
            .get_int("pollInterval")
            .map(|v| v.max(1) as u64)
            .unwrap_or(200)
    }

    fn start_handler<F>(&self, notif_id: NotificationId, callback: F) -> Arc<NotifHandler>
    where
        F: Fn(JsValue) + Send + Sync + 'static,
    {
        let handler = Arc::new(
            NotifHandler::new(self.device.clone(), Arc::clone(&self.table), notif_id)
                .with_interval_ms(self.poll_interval_ms()),
        );
        handler.start_polling(callback);
        handler
    }
}

/// Bookkeeping for one registered alert: the raw notification id, its
/// polling handler, and the listener (kept alive for identity-based
/// removal).
type AlertRegistration = (u64, Arc<NotifHandler>, SharedProximityListener);

/// The JavaScript `LocationProxyImpl` (paper Fig. 9).
pub struct WebViewLocationProxy {
    core: JsProxyCore,
    registrations: Mutex<HashMap<usize, AlertRegistration>>,
    /// Whether multi-reads cross the bridge as one batched crossing
    /// (toggled through the JavaScript-local [`BATCH_PROPERTY`]).
    batched: AtomicBool,
}

impl WebViewLocationProxy {
    /// Constructs the JS proxy over an installed `LocationWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if [`crate::webview::install_wrappers`] has
    /// not run on this page.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(
                webview,
                interface_names::LOCATION,
                standard_binding(ProxyKind::Location, PlatformId::AndroidWebView),
            )?,
            registrations: Mutex::new(HashMap::new()),
            batched: AtomicBool::new(false),
        })
    }
}

impl ProxyBase for WebViewLocationProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        // The batch toggle is a JavaScript-plane policy knob, not a
        // platform property: intercept it before catalog validation so
        // it never crosses the bridge.
        if key == BATCH_PROPERTY {
            let on = match &value {
                PropertyValue::Bool(b) => *b,
                PropertyValue::Str(s) if s == "true" => true,
                PropertyValue::Str(s) if s == "false" => false,
                _ => {
                    return Err(ProxyError::new(
                        ProxyErrorKind::BadPropertyValue,
                        format!("{BATCH_PROPERTY} takes a boolean"),
                    ))
                }
            };
            self.batched.store(on, Ordering::Relaxed);
            return Ok(());
        }
        self.core.set_property(key, value)
    }
}

impl LocationProxy for WebViewLocationProxy {
    fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        altitude: f64,
        radius: f64,
        timer_s: i64,
        listener: SharedProximityListener,
    ) -> Result<(), ProxyError> {
        let out = self.core.invoke(
            "addProximityAlert",
            &[
                latitude.into(),
                longitude.into(),
                altitude.into(),
                radius.into(),
                (timer_s as f64).into(),
            ],
        )?;
        let raw = out.as_number().ok_or_else(|| {
            ProxyError::new(ProxyErrorKind::Unavailable, "wrapper returned no alert id")
        })? as u64;
        let notif_id = NotificationId::from_raw(raw).ok_or_else(|| {
            ProxyError::new(ProxyErrorKind::Unavailable, "wrapper returned bad alert id")
        })?;
        let js_listener = Arc::clone(&listener);
        let handler = self.core.start_handler(notif_id, move |value| {
            js_listener.proximity_event(&proximity_event_from_js(&value));
        });
        let key = Arc::as_ptr(&listener) as *const () as usize;
        self.registrations
            .lock()
            .insert(key, (raw, handler, listener));
        Ok(())
    }

    fn remove_proximity_alert(
        &self,
        listener: &SharedProximityListener,
    ) -> Result<bool, ProxyError> {
        let key = Arc::as_ptr(listener) as *const () as usize;
        let entry = self.registrations.lock().remove(&key);
        match entry {
            Some((raw, handler, _listener)) => {
                handler.stop_polling();
                let removed = self
                    .core
                    .invoke("removeProximityAlert", &[JsValue::Number(raw as f64)])?;
                if let Some(id) = NotificationId::from_raw(raw) {
                    self.core.table.close(id);
                }
                Ok(removed.as_bool().unwrap_or(false))
            }
            None => Ok(false),
        }
    }

    fn get_location(&self) -> Result<Location, ProxyError> {
        let location = self
            .core
            .invoke_wire("getLocation", WireBuf::empty_args, |reply| {
                Ok(location_from_wire(reply))
            })?;
        Ok(location)
    }

    fn get_location_with_power(&self) -> Result<(Location, f64), ProxyError> {
        if self.batched.load(Ordering::Relaxed) {
            // One crossing carrying both reads; per-entry errors are
            // surfaced as the whole multi-read's failure.
            let out = self.core.invoke_batch(
                |buf| {
                    let args = buf.empty_args();
                    buf.push_frame("getLocation", args);
                    let args = buf.empty_args();
                    buf.push_frame("getPowerDrawn", args);
                },
                |replies| {
                    let entry = |i: usize| match replies.get(i) {
                        Some(Ok(value)) => Ok(value),
                        Some(Err((code, message))) => Err(BridgeError {
                            code,
                            message: message.to_owned(),
                        }),
                        None => Err(BridgeError::bridge("batch reply missing")),
                    };
                    let location = location_from_wire(entry(0)?);
                    let power = entry(1)?.as_number().unwrap_or(0.0);
                    Ok((location, power))
                },
            )?;
            Ok(out)
        } else {
            let location = self
                .core
                .invoke_wire("getLocation", WireBuf::empty_args, |reply| {
                    Ok(location_from_wire(reply))
                })?;
            let power = self
                .core
                .invoke_wire("getPowerDrawn", WireBuf::empty_args, |reply| {
                    Ok(reply.as_number().unwrap_or(0.0))
                })?;
            Ok((location, power))
        }
    }
}

/// The JavaScript `SmsProxy` of Fig. 6.
pub struct WebViewSmsProxy {
    core: JsProxyCore,
    handlers: Mutex<Vec<Arc<NotifHandler>>>,
}

impl WebViewSmsProxy {
    /// Constructs the JS proxy over an installed `SmsWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if wrappers are not installed.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(
                webview,
                interface_names::SMS,
                standard_binding(ProxyKind::Sms, PlatformId::AndroidWebView),
            )?,
            handlers: Mutex::new(Vec::new()),
        })
    }
}

impl ProxyBase for WebViewSmsProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.core.set_property(key, value)
    }
}

impl SmsProxy for WebViewSmsProxy {
    fn send_text_message(
        &self,
        destination: &str,
        text: &str,
        delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Result<u64, ProxyError> {
        // Prune handlers whose one-shot report already arrived.
        self.handlers.lock().retain(|h| h.is_polling());
        let want_report = delivery_listener.is_some();
        let out = self.core.invoke(
            "sendTextMessage",
            &[
                JsValue::str(destination),
                JsValue::str(text),
                JsValue::Bool(want_report),
            ],
        )?;
        let message_id = out
            .get_ref("messageId")
            .and_then(JsValue::as_number)
            .unwrap_or(0.0) as u64;
        let notif_raw = out.get_ref("notifId").and_then(JsValue::as_number);
        if let (Some(listener), Some(raw)) = (delivery_listener, notif_raw) {
            if let Some(notif_id) = NotificationId::from_raw(raw as u64) {
                let table = Arc::clone(&self.core.table);
                // The delivery report arrives exactly once; the handler
                // stops itself (via the weak back-reference) so one-shot
                // reports do not leave poll events behind.
                let self_stop: Arc<Mutex<Option<std::sync::Weak<NotifHandler>>>> =
                    Arc::new(Mutex::new(None));
                let self_stop_in_callback = Arc::clone(&self_stop);
                let handler = self.core.start_handler(notif_id, move |value| {
                    let id = value
                        .get_ref("messageId")
                        .and_then(JsValue::as_number)
                        .unwrap_or(0.0) as u64;
                    let delivered = value
                        .get_ref("delivered")
                        .and_then(JsValue::as_bool)
                        .unwrap_or(false);
                    let outcome = if delivered {
                        DeliveryOutcome::Delivered
                    } else {
                        DeliveryOutcome::Failed
                    };
                    listener.delivery_event(id, outcome);
                    table.close(notif_id);
                    if let Some(handler) = self_stop_in_callback
                        .lock()
                        .as_ref()
                        .and_then(std::sync::Weak::upgrade)
                    {
                        handler.stop_polling();
                    }
                });
                *self_stop.lock() = Some(Arc::downgrade(&handler));
                self.handlers.lock().push(handler);
            }
        }
        Ok(message_id)
    }
}

/// The JavaScript `CallProxyImpl`.
pub struct WebViewCallProxy {
    core: JsProxyCore,
}

impl WebViewCallProxy {
    /// Constructs the JS proxy over an installed `CallWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if wrappers are not installed.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(
                webview,
                interface_names::CALL,
                standard_binding(ProxyKind::Call, PlatformId::AndroidWebView),
            )?,
        })
    }
}

impl ProxyBase for WebViewCallProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.core.set_property(key, value)
    }
}

impl CallProxy for WebViewCallProxy {
    fn make_a_call(&self, number: &str) -> Result<u64, ProxyError> {
        let out = self.core.invoke("makeACall", &[JsValue::str(number)])?;
        Ok(out.as_number().unwrap_or(0.0) as u64)
    }

    fn call_progress(&self, call_id: u64) -> Result<CallProgress, ProxyError> {
        let out = self
            .core
            .invoke("callProgress", &[JsValue::Number(call_id as f64)])?;
        match out.as_str() {
            Some("connecting") => Ok(CallProgress::Connecting),
            Some("connected") => Ok(CallProgress::Connected),
            Some("ended") => Ok(CallProgress::Ended),
            other => Err(ProxyError::new(
                ProxyErrorKind::Unavailable,
                format!("wrapper returned unknown progress {other:?}"),
            )),
        }
    }

    fn end_call(&self, call_id: u64) -> Result<(), ProxyError> {
        self.core
            .invoke("endCall", &[JsValue::Number(call_id as f64)])?;
        Ok(())
    }
}

/// The JavaScript `HttpProxyImpl`.
pub struct WebViewHttpProxy {
    core: JsProxyCore,
}

impl WebViewHttpProxy {
    /// Constructs the JS proxy over an installed `HttpWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if wrappers are not installed.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(
                webview,
                interface_names::HTTP,
                standard_binding(ProxyKind::Http, PlatformId::AndroidWebView),
            )?,
        })
    }
}

impl ProxyBase for WebViewHttpProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.core.set_property(key, value)
    }
}

impl HttpProxy for WebViewHttpProxy {
    fn request(&self, method: &str, url: &str, body: &[u8]) -> Result<HttpResult, ProxyError> {
        let body_text = String::from_utf8_lossy(body).into_owned();
        let out = self.core.invoke(
            "request",
            &[
                JsValue::str(method),
                JsValue::str(url),
                JsValue::Str(body_text),
            ],
        )?;
        Ok(HttpResult {
            status: out
                .get_ref("status")
                .and_then(JsValue::as_number)
                .unwrap_or(0.0) as u16,
            headers: Vec::new(),
            body: out
                .get_ref("body")
                .and_then(JsValue::as_str)
                .unwrap_or("")
                .as_bytes()
                .to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProximityEvent;
    use crate::webview::install_wrappers;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::movement::MovementModel;
    use mobivine_device::net::{HttpResponse, Method};
    use mobivine_device::{Device, GeoPoint};
    use std::sync::Mutex as StdMutex;

    const HOME: GeoPoint = GeoPoint {
        latitude: 28.5355,
        longitude: 77.3910,
        altitude: 0.0,
    };

    fn page(device: Device) -> (AndroidPlatform, WebView) {
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let webview = WebView::new(platform.new_context());
        install_wrappers(&webview);
        (platform, webview)
    }

    fn moving_device() -> Device {
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .msisdn("+91-me")
            .build();
        device.gps().set_noise_enabled(false);
        device
    }

    #[test]
    fn proxies_share_the_binding_plane_but_not_property_values() {
        let (_platform, webview) = page(moving_device());
        let a = WebViewLocationProxy::new(&webview).unwrap();
        let b = WebViewLocationProxy::new(&webview).unwrap();
        let (pa, pb) = (&a.core.properties, &b.core.properties);
        assert!(Arc::ptr_eq(pa.binding(), pb.binding()));
        a.set_property("pollInterval", PropertyValue::Int(50))
            .unwrap();
        assert_eq!(a.core.poll_interval_ms(), 50);
        assert_eq!(b.core.poll_interval_ms(), 200, "the descriptor default");
    }

    #[test]
    fn proximity_alerts_flow_through_notification_polling() {
        let (platform, webview) = page(moving_device());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        assert_eq!(events.lock().unwrap().as_slice(), &[true, false]);
    }

    #[test]
    fn remove_proximity_alert_stops_polling() {
        let (platform, webview) = page(moving_device());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
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
    fn get_location_via_bridge() {
        let device = Device::builder().position(HOME).build();
        device.gps().set_noise_enabled(false);
        let (_platform, webview) = page(device);
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let loc = proxy.get_location().unwrap();
        assert!((loc.latitude - HOME.latitude).abs() < 1e-9);
    }

    #[test]
    fn sms_delivery_report_via_polling() {
        let device = Device::builder().msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        let (platform, webview) = page(device);
        let proxy = WebViewSmsProxy::new(&webview).unwrap();
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        let id = proxy
            .send_text_message(
                "+91-sup",
                "hello",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        assert!(id > 0);
        platform.device().advance_ms(2_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Delivered]
        );
    }

    #[test]
    fn sms_report_handler_stops_after_the_one_shot_report() {
        let device = Device::builder().msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        let (platform, webview) = page(device);
        let proxy = WebViewSmsProxy::new(&webview).unwrap();
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        proxy
            .send_text_message(
                "+91-sup",
                "once",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        platform.device().advance_ms(2_000);
        assert_eq!(outcomes.lock().unwrap().len(), 1);
        // The polling handler stopped itself after the report, so the
        // event queue drains completely.
        platform.device().advance_ms(2_000);
        assert_eq!(platform.device().events().pending(), 0);
        // Subsequent sends prune the finished handler.
        proxy.send_text_message("+91-sup", "again", None).unwrap();
        assert!(proxy.handlers.lock().is_empty());
    }

    #[test]
    fn sms_without_listener_skips_polling() {
        let device = Device::builder().msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        let (platform, webview) = page(device);
        let proxy = WebViewSmsProxy::new(&webview).unwrap();
        proxy.send_text_message("+91-sup", "quiet", None).unwrap();
        platform.device().advance_ms(2_000);
        assert!(proxy.handlers.lock().is_empty());
    }

    #[test]
    fn call_proxy_via_bridge() {
        let (platform, webview) = page(Device::builder().build());
        let proxy = WebViewCallProxy::new(&webview).unwrap();
        let id = proxy.make_a_call("+91-sup").unwrap();
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Connecting);
        platform.device().advance_ms(10_000);
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Connected);
        proxy.end_call(id).unwrap();
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Ended);
    }

    #[test]
    fn http_proxy_via_bridge() {
        let device = Device::builder().build();
        device
            .network()
            .register_route("wfm.example", Method::Get, "/ping", |_| {
                HttpResponse::ok("pong")
            });
        let (_platform, webview) = page(device);
        let proxy = WebViewHttpProxy::new(&webview).unwrap();
        let out = proxy
            .request("GET", "http://wfm.example/ping", &[])
            .unwrap();
        assert!(out.is_success());
        assert_eq!(out.body_text(), "pong");
    }

    #[test]
    fn errors_cross_back_as_uniform_proxy_errors() {
        let (_platform, webview) = page(Device::builder().build());
        let proxy = WebViewHttpProxy::new(&webview).unwrap();
        let err = proxy.request("GET", "http://ghost/", &[]).unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Io);
    }

    #[test]
    fn missing_wrappers_detected() {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        let bare = WebView::new(platform.new_context());
        assert!(WebViewLocationProxy::new(&bare).is_err());
    }

    #[test]
    fn opaque_property_rejected_on_webview() {
        let (_platform, webview) = page(Device::builder().build());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let err = proxy
            .set_property("provider", PropertyValue::opaque(1u8))
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::BadPropertyValue);
    }

    #[test]
    fn poll_interval_property_honoured() {
        let (platform, webview) = page(moving_device());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        proxy
            .set_property("pollInterval", PropertyValue::Int(5_000))
            .unwrap();
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        // Entry happens ~40 s in; with 5 s polling the event still
        // arrives, just coarser.
        platform.device().advance_ms(120_000);
        assert_eq!(events.lock().unwrap().len(), 2);
    }
}
