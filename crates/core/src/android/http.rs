//! The Android HTTP proxy binding.

use std::sync::Arc;

use mobivine_android::context::Context;
use mobivine_android::http::HttpUriRequest;
use mobivine_device::net::Method;
use mobivine_proxydl::PlatformId;

use crate::api::{HttpProxy, ProxyBase};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::HttpResult;

/// The Android binding of the uniform [`HttpProxy`] — over the
/// Apache-style `org.apache.http` client.
pub struct AndroidHttpProxy {
    properties: PropertyBag,
}

impl Default for AndroidHttpProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl AndroidHttpProxy {
    /// Creates an unconfigured proxy; set the `context` property before
    /// requesting.
    pub fn new() -> Self {
        Self {
            properties: PropertyBag::new(standard_binding(ProxyKind::Http, PlatformId::Android)),
        }
    }

    fn context(&self) -> Result<Arc<Context>, ProxyError> {
        self.properties.require_opaque::<Context>("context")
    }
}

impl ProxyBase for AndroidHttpProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl HttpProxy for AndroidHttpProxy {
    fn request(&self, method: &str, url: &str, body: &[u8]) -> Result<HttpResult, ProxyError> {
        let ctx = self.context()?;
        let parsed: Method = method.parse().map_err(|_| {
            ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                format!("unsupported http method '{method}'"),
            )
        })?;
        let request = match parsed {
            Method::Get | Method::Head | Method::Delete => HttpUriRequest::get(url)?,
            Method::Post | Method::Put => HttpUriRequest::post(url, body.to_vec())?,
        };
        let response = ctx.http_client().execute(&request)?;
        Ok(HttpResult {
            status: response.status,
            headers: response.headers,
            body: response.body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::net::HttpResponse;
    use mobivine_device::Device;

    fn configured() -> (AndroidPlatform, AndroidHttpProxy) {
        let device = Device::builder().build();
        device
            .network()
            .register_route("wfm.example", Method::Get, "/tasks", |_| {
                HttpResponse::ok("tasks!")
            });
        device
            .network()
            .register_route("wfm.example", Method::Post, "/log", |req| {
                HttpResponse::ok(format!("{}", req.body.len()))
            });
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let proxy = AndroidHttpProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        (platform, proxy)
    }

    #[test]
    fn get_and_post_round_trips() {
        let (_platform, proxy) = configured();
        let get = proxy
            .request("GET", "http://wfm.example/tasks", &[])
            .unwrap();
        assert!(get.is_success());
        assert_eq!(get.body_text(), "tasks!");
        let post = proxy
            .request("POST", "http://wfm.example/log", b"12345")
            .unwrap();
        assert_eq!(post.body_text(), "5");
    }

    #[test]
    fn transport_failure_is_io_error() {
        let (_platform, proxy) = configured();
        let err = proxy.request("GET", "http://ghost/", &[]).unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Io);
    }

    #[test]
    fn http_error_status_is_a_result() {
        let (_platform, proxy) = configured();
        let resp = proxy
            .request("GET", "http://wfm.example/missing", &[])
            .unwrap();
        assert_eq!(resp.status, 404);
        assert!(!resp.is_success());
    }

    #[test]
    fn bad_method_and_url_are_illegal_arguments() {
        let (_platform, proxy) = configured();
        assert_eq!(
            proxy
                .request("BREW", "http://wfm.example/", &[])
                .unwrap_err()
                .kind(),
            ProxyErrorKind::IllegalArgument
        );
        assert_eq!(
            proxy.request("GET", "not-a-url", &[]).unwrap_err().kind(),
            ProxyErrorKind::IllegalArgument
        );
    }
}
