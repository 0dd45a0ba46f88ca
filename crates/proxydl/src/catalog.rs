//! The standard proxy catalog.
//!
//! Descriptors for the proxies the paper implements (§4.1): Location,
//! SMS, Call and Http on Android and Android WebView; Location, SMS and
//! Http on Nokia S60 ("Call proxy could not be created in this case
//! because the core functionality was not exposed on the S60 platform").
//! Two more descriptors — Contacts and Calendar — cover the paper's
//! future-work interfaces (§7), which this reproduction implements as
//! extension features.
//!
//! Each constructor builds an owned descriptor a caller may edit.
//! [`shared_catalog`] and [`shared_binding`] hand out the same
//! descriptors built once per process, for callers that only read them.

use std::sync::{Arc, LazyLock};

use crate::binding::{PlatformBinding, PlatformId, PropertySpec};
use crate::descriptor::ProxyDescriptor;
use crate::semantic::{MethodSpec, SemanticPlane};
use crate::syntactic::{Language, MethodTypes, SyntacticBinding};

const ANDROID_LOCATION_EXCEPTIONS: &[&str] = &[
    "java.lang.SecurityException",
    "java.lang.IllegalArgumentException",
    "android.os.RemoteException",
];

const S60_LOCATION_EXCEPTIONS: &[&str] = &[
    "javax.microedition.location.LocationException",
    "java.lang.SecurityException",
    "java.lang.IllegalArgumentException",
    "java.lang.NullPointerException",
];

fn android_common_properties() -> Vec<PropertySpec> {
    vec![PropertySpec::new("context", "object", "Android application context").required()]
}

fn s60_common_properties() -> Vec<PropertySpec> {
    vec![
        PropertySpec::new(
            "preferredResponseTime",
            "int",
            "Preferred max. response time required internally for polling of updates",
        )
        .default_value("-1"),
        PropertySpec::new("powerConsumption", "string", "Positioning power budget")
            .default_value("NoRequirement")
            .allowed(&["NoRequirement", "Low", "Medium", "High"]),
    ]
}

/// The resilience-layer knobs (§3.3 enrichment) every retry-capable
/// binding declares, consumed by the core crate's resilient decorators.
/// Deliberately without default values: generated configuration
/// snippets must only mention resilience when an application opts in.
fn resilience_properties() -> Vec<PropertySpec> {
    vec![
        PropertySpec::new(
            "retry.max_attempts",
            "int",
            "total attempts per call, including the first",
        ),
        PropertySpec::new(
            "retry.backoff_ms",
            "int",
            "base backoff before the second attempt; doubles per retry",
        ),
        PropertySpec::new(
            "retry.deadline_ms",
            "int",
            "per-call retry budget, virtual ms",
        ),
        PropertySpec::new(
            "retry.jitter_seed",
            "int",
            "seed for deterministic backoff jitter",
        ),
        PropertySpec::new(
            "circuit.threshold",
            "int",
            "consecutive failures opening the circuit breaker",
        ),
        PropertySpec::new(
            "circuit.cooldown_ms",
            "int",
            "open-circuit cooldown before a half-open probe, virtual ms",
        ),
    ]
}

/// Location additionally declares the configured-default fallback
/// position terminating the resilience fallback chain.
fn location_resilience_properties() -> Vec<PropertySpec> {
    let mut properties = resilience_properties();
    properties.push(PropertySpec::new(
        "fallback.latitude",
        "string",
        "default-position latitude, decimal degrees",
    ));
    properties.push(PropertySpec::new(
        "fallback.longitude",
        "string",
        "default-position longitude, decimal degrees",
    ));
    properties
}

/// The overload-protection knobs every retry-capable binding declares,
/// consumed by the core crate's overload decorators (bulkhead +
/// admission gate + deadline fail-fast). Like the resilience knobs,
/// deliberately without default values: generated configuration
/// snippets must only mention overload protection when an application
/// opts in.
fn overload_properties() -> Vec<PropertySpec> {
    vec![
        PropertySpec::new(
            "bulkhead.max_concurrency",
            "int",
            "concurrent in-flight calls the bulkhead admits per proxy",
        ),
        PropertySpec::new(
            "bulkhead.queue_depth",
            "int",
            "bounded wait-queue slots behind a saturated bulkhead",
        ),
        PropertySpec::new(
            "bulkhead.queue_wait_ms",
            "int",
            "virtual ms one queued wait costs before re-probing the bulkhead",
        ),
        PropertySpec::new(
            "shed.enabled",
            "boolean",
            "whether the adaptive admission gate sheds load",
        ),
        PropertySpec::new(
            "shed.target_ms",
            "int",
            "sojourn-latency target the AIMD admission loop converges on, virtual ms",
        ),
        PropertySpec::new(
            "shed.seed",
            "int",
            "seed for deterministic admission coin flips",
        ),
        PropertySpec::new(
            "deadline.default_ms",
            "int",
            "deadline budget opened per call when no ambient deadline is set, virtual ms",
        ),
    ]
}

/// Http additionally declares which request paths are droppable under
/// shed pressure (degraded to a synthetic 202 instead of an error).
fn http_overload_properties() -> Vec<PropertySpec> {
    let mut properties = overload_properties();
    properties.push(PropertySpec::new(
        "shed.droppable_path",
        "string",
        "URL fragment marking enrichment requests droppable under shed pressure",
    ));
    properties
}

fn with_properties(mut binding: PlatformBinding, properties: Vec<PropertySpec>) -> PlatformBinding {
    for p in properties {
        binding = binding.property(p);
    }
    binding
}

fn with_exceptions(mut binding: PlatformBinding, exceptions: &[&str]) -> PlatformBinding {
    for e in exceptions {
        binding = binding.exception(e);
    }
    binding
}

/// The Location proxy descriptor — `addProximityAlert` is the paper's
/// running example (§3.1 listings are reproduced in the planes here).
pub fn location() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Location")
        .method(
            MethodSpec::new("addProximityAlert")
                .param("latitude", "region center latitude, degrees")
                .param("longitude", "region center longitude, degrees")
                .param("altitude", "region center altitude, metres")
                .param("radius", "region radius, metres")
                .param("timer", "registration lifetime, seconds (-1 = unlimited)")
                .param("proximityListener", "callback receiving enter/exit alerts"),
        )
        .method(MethodSpec::new("getLocation").returns("location"))
        .method(
            MethodSpec::new("removeProximityAlert")
                .param("proximityListener", "the callback registered earlier"),
        );

    let java = SyntacticBinding::new(Language::Java)
        .method(
            MethodTypes::new("addProximityAlert")
                .param("double")
                .param("double")
                .param("double")
                .param("float")
                .param("long")
                .param("com.ibm.telecom.proxy.ProximityListener")
                .callback("com.ibm.telecom.proxy.ProximityListener", "proximityEvent"),
        )
        .method(MethodTypes::new("getLocation").returns("com.ibm.telecom.proxy.Location"))
        .method(
            MethodTypes::new("removeProximityAlert")
                .param("com.ibm.telecom.proxy.ProximityListener"),
        );

    let javascript = SyntacticBinding::new(Language::JavaScript)
        .method(
            MethodTypes::new("addProximityAlert")
                .param("number")
                .param("number")
                .param("number")
                .param("number")
                .param("number")
                .param("function")
                .callback("function", ""),
        )
        .method(MethodTypes::new("getLocation").returns("object"))
        .method(MethodTypes::new("removeProximityAlert").param("function"));

    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.location.LocationProxyImpl",
            ),
            android_common_properties(),
        ),
        ANDROID_LOCATION_EXCEPTIONS,
    )
    .property(
        PropertySpec::new("provider", "string", "location provider to use")
            .default_value("gps")
            .allowed(&["gps", "network"]),
    );

    let s60 = with_exceptions(
        with_properties(
            PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.location.LocationProxy"),
            s60_common_properties(),
        ),
        S60_LOCATION_EXCEPTIONS,
    )
    .property(
        PropertySpec::new(
            "verticalAccuracy",
            "int",
            "requested vertical accuracy, metres",
        )
        .default_value("50"),
    );

    let webview = PlatformBinding::new(
        PlatformId::AndroidWebView,
        "js/proxies/LocationProxyImpl.js",
    )
    .property(
        PropertySpec::new("provider", "string", "location provider to use")
            .default_value("gps")
            .allowed(&["gps", "network"]),
    )
    .property(
        PropertySpec::new("pollInterval", "int", "notification poll period, ms")
            .default_value("200"),
    );

    let decorated = |binding| {
        with_properties(
            with_properties(binding, location_resilience_properties()),
            overload_properties(),
        )
    };
    ProxyDescriptor::new("Location", "Telecom", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(decorated(android))
        .binding(decorated(s60))
        .binding(decorated(webview))
}

/// The SMS proxy descriptor.
pub fn sms() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("SMS").method(
        MethodSpec::new("sendTextMessage")
            .param("destination", "recipient address")
            .param("text", "message body")
            .param("deliveryListener", "callback receiving the delivery report")
            .returns("messageId"),
    );
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("sendTextMessage")
            .param("java.lang.String")
            .param("java.lang.String")
            .param("com.ibm.telecom.proxy.DeliveryListener")
            .returns("long")
            .callback("com.ibm.telecom.proxy.DeliveryListener", "deliveryEvent"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("sendTextMessage")
            .param("string")
            .param("string")
            .param("function")
            .returns("number")
            .callback("function", ""),
    );
    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.sms.SmsProxyImpl",
            ),
            android_common_properties(),
        ),
        &[
            "java.lang.SecurityException",
            "java.lang.IllegalArgumentException",
        ],
    );
    let s60 = with_exceptions(
        PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.sms.SmsProxy"),
        &[
            "java.lang.SecurityException",
            "java.lang.IllegalArgumentException",
            "java.io.IOException",
        ],
    );
    let webview = PlatformBinding::new(PlatformId::AndroidWebView, "js/proxies/SmsProxyImpl.js")
        .property(
            PropertySpec::new("pollInterval", "int", "notification poll period, ms")
                .default_value("200"),
        );
    let decorated = |binding| {
        with_properties(
            with_properties(binding, resilience_properties()),
            overload_properties(),
        )
    };
    ProxyDescriptor::new("SMS", "Telecom", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(decorated(android))
        .binding(decorated(s60))
        .binding(decorated(webview))
}

/// The Call proxy descriptor — no S60 binding, per §4.1.
pub fn call() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Call")
        .method(
            MethodSpec::new("makeACall")
                .param("number", "callee address")
                .returns("callId"),
        )
        .method(MethodSpec::new("endCall").param("callId", "the call to terminate"));
    let java = SyntacticBinding::new(Language::Java)
        .method(
            MethodTypes::new("makeACall")
                .param("java.lang.String")
                .returns("long"),
        )
        .method(MethodTypes::new("endCall").param("long"));
    let javascript = SyntacticBinding::new(Language::JavaScript)
        .method(
            MethodTypes::new("makeACall")
                .param("string")
                .returns("number"),
        )
        .method(MethodTypes::new("endCall").param("number"));
    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.call.CallProxyImpl",
            ),
            android_common_properties(),
        ),
        &[
            "java.lang.SecurityException",
            "java.lang.IllegalArgumentException",
        ],
    )
    .property(
        PropertySpec::new(
            "retries",
            "int",
            "redial attempts when the callee is unreachable",
        )
        .default_value("0"),
    );
    let webview = PlatformBinding::new(PlatformId::AndroidWebView, "js/proxies/CallProxyImpl.js");
    let decorated = |binding| {
        with_properties(
            with_properties(binding, resilience_properties()),
            overload_properties(),
        )
    };
    ProxyDescriptor::new("Call", "Telecom", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(decorated(android))
        .binding(decorated(webview))
}

/// The Http proxy descriptor.
pub fn http() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Http").method(
        MethodSpec::new("request")
            .param("method", "HTTP method")
            .param("url", "target URL")
            .param("body", "request entity (may be empty)")
            .returns("httpResponse"),
    );
    let mut method_spec = semantic.methods[0].clone();
    method_spec.params[0].allowed_values = vec![
        "GET".into(),
        "POST".into(),
        "PUT".into(),
        "DELETE".into(),
        "HEAD".into(),
    ];
    let semantic = SemanticPlane {
        interface: semantic.interface,
        methods: vec![method_spec],
    };
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("request")
            .param("java.lang.String")
            .param("java.lang.String")
            .param("byte[]")
            .returns("com.ibm.telecom.proxy.HttpResponse"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("request")
            .param("string")
            .param("string")
            .param("string")
            .returns("object"),
    );
    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.http.HttpProxyImpl",
            ),
            android_common_properties(),
        ),
        &["java.lang.SecurityException", "java.io.IOException"],
    );
    let s60 = with_exceptions(
        PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.http.HttpProxy"),
        &[
            "java.lang.SecurityException",
            "java.io.IOException",
            "java.lang.IllegalArgumentException",
        ],
    );
    let webview = PlatformBinding::new(PlatformId::AndroidWebView, "js/proxies/HttpProxyImpl.js");
    let decorated = |binding| {
        with_properties(
            with_properties(binding, resilience_properties()),
            http_overload_properties(),
        )
    };
    ProxyDescriptor::new("Http", "Connectivity", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(decorated(android))
        .binding(decorated(s60))
        .binding(decorated(webview))
}

/// The Contacts proxy descriptor (paper future work, §7).
pub fn contacts() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Contacts").method(
        MethodSpec::new("findContacts")
            .param("query", "case-insensitive name fragment")
            .returns("contactList"),
    );
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("findContacts")
            .param("java.lang.String")
            .returns("com.ibm.telecom.proxy.Contact[]"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("findContacts")
            .param("string")
            .returns("object"),
    );
    let android = with_properties(
        PlatformBinding::new(
            PlatformId::Android,
            "com.ibm.proxies.android.pim.ContactsProxyImpl",
        ),
        android_common_properties(),
    )
    .exception("java.lang.SecurityException");
    let s60 = PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.pim.ContactsProxy")
        .exception("java.lang.SecurityException");
    ProxyDescriptor::new("Contacts", "PIM", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
}

/// The Calendar proxy descriptor (paper future work, §7).
pub fn calendar() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Calendar").method(
        MethodSpec::new("entriesBetween")
            .param("from", "interval start, virtual ms")
            .param("to", "interval end, virtual ms")
            .returns("entryList"),
    );
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("entriesBetween")
            .param("long")
            .param("long")
            .returns("com.ibm.telecom.proxy.CalendarEntry[]"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("entriesBetween")
            .param("number")
            .param("number")
            .returns("object"),
    );
    let android = with_properties(
        PlatformBinding::new(
            PlatformId::Android,
            "com.ibm.proxies.android.pim.CalendarProxyImpl",
        ),
        android_common_properties(),
    )
    .exception("java.lang.SecurityException");
    let s60 = PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.pim.CalendarProxy")
        .exception("java.lang.SecurityException");
    ProxyDescriptor::new("Calendar", "PIM", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
}

/// The full standard catalog, in drawer order.
pub fn standard_catalog() -> Vec<ProxyDescriptor> {
    vec![location(), sms(), call(), http(), contacts(), calendar()]
}

/// The standard catalog as built once per process, with every binding
/// plane split out behind its own `Arc` keyed by interface name.
struct SharedCatalog {
    descriptors: Arc<Vec<ProxyDescriptor>>,
    bindings: Vec<(String, Arc<PlatformBinding>)>,
}

static SHARED: LazyLock<SharedCatalog> = LazyLock::new(|| {
    let descriptors = standard_catalog();
    let bindings = descriptors
        .iter()
        .flat_map(|d| {
            d.bindings
                .iter()
                .map(|b| (d.name.clone(), Arc::new(b.clone())))
        })
        .collect();
    SharedCatalog {
        descriptors: Arc::new(descriptors),
        bindings,
    }
});

/// The standard catalog, built on first use and shared by every caller
/// in the process. The descriptors are published and never edited;
/// callers that edit descriptors (the plug-in, platform extension)
/// start from [`standard_catalog`] or the per-interface constructors.
pub fn shared_catalog() -> Arc<Vec<ProxyDescriptor>> {
    Arc::clone(&SHARED.descriptors)
}

/// The binding plane of `interface` (descriptor name, e.g. `"SMS"`) on
/// `platform` from the [`shared_catalog`]. Every call for the same pair
/// returns the same allocation, so a proxy holds the plane for the cost
/// of a reference count.
pub fn shared_binding(interface: &str, platform: &PlatformId) -> Option<Arc<PlatformBinding>> {
    SHARED
        .bindings
        .iter()
        .find(|(name, b)| name == interface && b.platform == *platform)
        .map(|(_, b)| Arc::clone(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::validate_descriptor;

    #[test]
    fn every_catalog_descriptor_validates() {
        for descriptor in standard_catalog() {
            let errors = validate_descriptor(&descriptor);
            assert!(
                errors.is_empty(),
                "descriptor {} has schema errors: {errors:?}",
                descriptor.name
            );
        }
    }

    #[test]
    fn catalog_round_trips_through_xml() {
        for descriptor in standard_catalog() {
            let text = descriptor.to_xml().render();
            let back = ProxyDescriptor::parse(&text).unwrap();
            assert_eq!(back, descriptor, "descriptor {}", descriptor.name);
        }
    }

    #[test]
    fn shared_catalog_equals_the_owned_one() {
        assert_eq!(*shared_catalog(), standard_catalog());
        assert!(Arc::ptr_eq(&shared_catalog(), &shared_catalog()));
    }

    #[test]
    fn every_shared_binding_equals_its_owned_counterpart() {
        let platforms = [
            PlatformId::Android,
            PlatformId::NokiaS60,
            PlatformId::AndroidWebView,
        ];
        let mut pairs = 0;
        for owned in [location(), sms(), call(), http(), contacts(), calendar()] {
            let interface = owned.name.as_str();
            for platform in &platforms {
                let shared = shared_binding(interface, platform);
                assert_eq!(
                    shared.as_deref(),
                    owned.binding_for(platform),
                    "{interface} on {platform}"
                );
                if let Some(shared) = shared {
                    let again = shared_binding(interface, platform).unwrap();
                    assert!(Arc::ptr_eq(&shared, &again), "{interface} on {platform}");
                    pairs += 1;
                }
            }
        }
        // Location/SMS/Http on all three, Call off S60, PIM off WebView.
        assert_eq!(pairs, 15);
        assert!(shared_binding("Telepathy", &PlatformId::Android).is_none());
    }

    #[test]
    fn s60_has_no_call_binding() {
        assert!(call().binding_for(&PlatformId::NokiaS60).is_none());
        assert!(call().binding_for(&PlatformId::Android).is_some());
        assert!(call().binding_for(&PlatformId::AndroidWebView).is_some());
    }

    #[test]
    fn paper_platform_coverage() {
        // §4.1: four proxies on Android and WebView, three on S60.
        let on = |p: &PlatformId| {
            standard_catalog()
                .iter()
                .filter(|d| ["Location", "SMS", "Call", "Http"].contains(&d.name.as_str()))
                .filter(|d| d.binding_for(p).is_some())
                .count()
        };
        assert_eq!(on(&PlatformId::Android), 4);
        assert_eq!(on(&PlatformId::AndroidWebView), 4);
        assert_eq!(on(&PlatformId::NokiaS60), 3);
    }

    #[test]
    fn proximity_alert_semantics_match_paper_listing() {
        let d = location();
        let m = d.semantic.find_method("addProximityAlert").unwrap();
        let names: Vec<&str> = m.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "latitude",
                "longitude",
                "altitude",
                "radius",
                "timer",
                "proximityListener"
            ]
        );
        let java = d.syntax_for(Language::Java).unwrap();
        let types = java.find_method("addProximityAlert").unwrap();
        assert_eq!(types.param_types[0], "double");
        assert_eq!(types.param_types[3], "float");
        assert_eq!(types.param_types[4], "long");
        assert_eq!(
            types.callback.as_ref().unwrap().type_name,
            "com.ibm.telecom.proxy.ProximityListener"
        );
    }

    #[test]
    fn s60_binding_carries_paper_properties() {
        let d = location();
        let b = d.binding_for(&PlatformId::NokiaS60).unwrap();
        assert!(b.find_property("preferredResponseTime").is_some());
        assert!(b.find_property("powerConsumption").is_some());
        assert!(b.find_property("verticalAccuracy").is_some());
        assert!(b
            .exceptions
            .contains(&"javax.microedition.location.LocationException".to_owned()));
    }

    #[test]
    fn resilient_interfaces_declare_the_resilience_property_plane() {
        for descriptor in [location(), sms(), call(), http()] {
            for binding in &descriptor.bindings {
                for key in [
                    "retry.max_attempts",
                    "retry.backoff_ms",
                    "retry.deadline_ms",
                    "retry.jitter_seed",
                    "circuit.threshold",
                    "circuit.cooldown_ms",
                    "bulkhead.max_concurrency",
                    "bulkhead.queue_depth",
                    "bulkhead.queue_wait_ms",
                    "shed.enabled",
                    "shed.target_ms",
                    "shed.seed",
                    "deadline.default_ms",
                ] {
                    let spec = binding.find_property(key).unwrap_or_else(|| {
                        panic!("{} {:?} lacks {key}", descriptor.name, binding.platform)
                    });
                    assert!(
                        spec.default_value.is_none(),
                        "{key} must not have a default: codegen would emit it unconditionally"
                    );
                }
            }
        }
        // The fallback position is a Location-only concept.
        let location = location();
        for binding in &location.bindings {
            assert!(binding.find_property("fallback.latitude").is_some());
            assert!(binding.find_property("fallback.longitude").is_some());
        }
        assert!(http().bindings[0]
            .find_property("fallback.latitude")
            .is_none());
        // The droppable-path marker is an Http-only concept.
        for binding in &http().bindings {
            assert!(binding.find_property("shed.droppable_path").is_some());
        }
        assert!(location.bindings[0]
            .find_property("shed.droppable_path")
            .is_none());
    }

    #[test]
    fn android_binding_requires_context_property() {
        let d = location();
        let b = d.binding_for(&PlatformId::Android).unwrap();
        assert!(b.find_property("context").unwrap().required);
        assert!(b.find_property("provider").unwrap().accepts("network"));
    }
}
