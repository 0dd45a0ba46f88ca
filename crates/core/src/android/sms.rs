//! The Android SMS proxy binding.

use std::sync::Arc;

use mobivine_android::context::Context;
use mobivine_android::telephony::SmsResult;
use mobivine_proxydl::PlatformId;

use crate::api::{ProxyBase, SmsProxy};
use crate::error::ProxyError;
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::{DeliveryListener, DeliveryOutcome};

/// The Android binding of the uniform [`SmsProxy`]
/// (`com.ibm.proxies.android.sms.SmsProxyImpl` in the descriptor).
pub struct AndroidSmsProxy {
    properties: PropertyBag,
}

impl Default for AndroidSmsProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl AndroidSmsProxy {
    /// Creates an unconfigured proxy; set the `context` property before
    /// sending.
    pub fn new() -> Self {
        Self {
            properties: PropertyBag::new(standard_binding(ProxyKind::Sms, PlatformId::Android)),
        }
    }

    fn context(&self) -> Result<Arc<Context>, ProxyError> {
        self.properties.require_opaque::<Context>("context")
    }
}

impl ProxyBase for AndroidSmsProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl SmsProxy for AndroidSmsProxy {
    fn send_text_message(
        &self,
        destination: &str,
        text: &str,
        delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Result<u64, ProxyError> {
        let ctx = self.context()?;
        let callback = delivery_listener.map(|listener| {
            Box::new(
                move |id: mobivine_device::sms::MessageId, result: SmsResult| {
                    let outcome = match result {
                        SmsResult::Delivered => DeliveryOutcome::Delivered,
                        SmsResult::GenericFailure => DeliveryOutcome::Failed,
                    };
                    listener.delivery_event(id.value(), outcome);
                },
            ) as mobivine_android::telephony::SmsCallback
        });
        let id = ctx
            .sms_manager()
            .send_text_message(destination, None, text, callback)?;
        Ok(id.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::permissions::PermissionSet;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::Device;
    use std::sync::Mutex as StdMutex;

    fn configured() -> (AndroidPlatform, AndroidSmsProxy) {
        let platform = AndroidPlatform::new(
            Device::builder().msisdn("+91-me").build(),
            SdkVersion::M5Rc15,
        );
        let proxy = AndroidSmsProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        (platform, proxy)
    }

    #[test]
    fn sends_through_the_platform() {
        let (platform, proxy) = configured();
        platform.device().smsc().register_address("+91-sup");
        let id = proxy.send_text_message("+91-sup", "on site", None).unwrap();
        assert!(id > 0);
        platform.device().advance_ms(1_000);
        assert_eq!(platform.device().smsc().inbox("+91-sup")[0].body, "on site");
    }

    #[test]
    fn delivery_listener_receives_uniform_outcome() {
        let (platform, proxy) = configured();
        platform.device().smsc().register_address("+91-sup");
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        proxy
            .send_text_message(
                "+91-sup",
                "ping",
                Some(Arc::new(move |id: u64, outcome: DeliveryOutcome| {
                    sink.lock().unwrap().push((id, outcome));
                })),
            )
            .unwrap();
        platform.device().advance_ms(1_000);
        let outcomes = outcomes.lock().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].1, DeliveryOutcome::Delivered);
    }

    #[test]
    fn failure_outcome_for_unknown_recipient() {
        let (platform, proxy) = configured();
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        proxy
            .send_text_message(
                "+nobody",
                "ping",
                Some(Arc::new(move |_id: u64, outcome: DeliveryOutcome| {
                    sink.lock().unwrap().push(outcome);
                })),
            )
            .unwrap();
        platform.device().advance_ms(1_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Failed]
        );
    }

    #[test]
    fn security_exception_becomes_uniform_error() {
        let platform = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        let proxy = AndroidSmsProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        let err = proxy.send_text_message("+1", "x", None).unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::Security);
        assert_eq!(
            err.platform_exception(),
            Some("java.lang.SecurityException")
        );
    }

    #[test]
    fn missing_context_is_uniform_error() {
        let proxy = AndroidSmsProxy::new();
        let err = proxy.send_text_message("+1", "x", None).unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::MissingProperty);
    }
}
