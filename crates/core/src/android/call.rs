//! The Android Call proxy binding.

use std::sync::Arc;

use mobivine_android::context::Context;
use mobivine_device::call::{CallId, CallState};
use mobivine_proxydl::PlatformId;

use crate::api::{CallProxy, ProxyBase};
use crate::error::ProxyError;
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::CallProgress;

/// The Android binding of the uniform [`CallProxy`] — implemented over
/// the platform's `IPhone`-style interface (`android.telephony.IPhone`
/// in the paper).
pub struct AndroidCallProxy {
    properties: PropertyBag,
}

impl Default for AndroidCallProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl AndroidCallProxy {
    /// Creates an unconfigured proxy; set the `context` property before
    /// calling.
    pub fn new() -> Self {
        Self {
            properties: PropertyBag::new(standard_binding(ProxyKind::Call, PlatformId::Android)),
        }
    }

    fn context(&self) -> Result<Arc<Context>, ProxyError> {
        self.properties.require_opaque::<Context>("context")
    }
}

impl ProxyBase for AndroidCallProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl CallProxy for AndroidCallProxy {
    fn make_a_call(&self, number: &str) -> Result<u64, ProxyError> {
        let ctx = self.context()?;
        let id = ctx.phone().call(number)?;
        Ok(id.value())
    }

    fn call_progress(&self, call_id: u64) -> Result<CallProgress, ProxyError> {
        let ctx = self.context()?;
        let state = ctx
            .phone()
            .call_state(CallId::from_value(call_id))
            .ok_or_else(|| {
                ProxyError::new(
                    crate::error::ProxyErrorKind::IllegalArgument,
                    format!("unknown call id {call_id}"),
                )
            })?;
        Ok(match state {
            CallState::Dialing | CallState::Ringing => CallProgress::Connecting,
            CallState::Active | CallState::Held => CallProgress::Connected,
            CallState::Disconnected(_) => CallProgress::Ended,
        })
    }

    fn end_call(&self, call_id: u64) -> Result<(), ProxyError> {
        let ctx = self.context()?;
        ctx.phone().end_call(CallId::from_value(call_id))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::call::CalleeProfile;
    use mobivine_device::Device;

    fn configured() -> (AndroidPlatform, AndroidCallProxy) {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        let proxy = AndroidCallProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        (platform, proxy)
    }

    #[test]
    fn call_lifecycle_through_uniform_api() {
        let (platform, proxy) = configured();
        let id = proxy.make_a_call("+91-sup").unwrap();
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Connecting);
        platform.device().advance_ms(10_000);
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Connected);
        proxy.end_call(id).unwrap();
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Ended);
    }

    #[test]
    fn busy_callee_ends() {
        let (platform, proxy) = configured();
        platform
            .device()
            .call_switch()
            .set_callee_profile("+busy", CalleeProfile::Busy);
        let id = proxy.make_a_call("+busy").unwrap();
        platform.device().advance_ms(10_000);
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Ended);
    }

    #[test]
    fn unknown_call_id_is_illegal_argument() {
        let (_platform, proxy) = configured();
        let err = proxy.call_progress(999).unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn double_end_is_illegal_argument() {
        let (platform, proxy) = configured();
        let id = proxy.make_a_call("+1").unwrap();
        platform.device().advance_ms(10_000);
        proxy.end_call(id).unwrap();
        assert!(proxy.end_call(id).is_err());
    }

    #[test]
    fn retries_property_is_declared() {
        let (_platform, proxy) = configured();
        // The catalog declares `retries` (used by the enrichment
        // decorator); setting it must validate.
        proxy
            .set_property("retries", PropertyValue::Int(3))
            .unwrap();
    }
}
