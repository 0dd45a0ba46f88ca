#![warn(missing_docs)]
//! # MobiVine — a middleware layer that de-fragments mobile platform interfaces
//!
//! Reproduction of *MobiVine: A Middleware Layer to Handle Fragmentation
//! of Platform Interfaces for Mobile Applications* (IBM Research Report
//! RI 09009 / MIDDLEWARE 2009).
//!
//! Mobile platforms expose the same capabilities — location, SMS, calls,
//! HTTP — through interfaces that differ in name, parameter order and
//! types, callback style, exception sets and platform-mandated
//! attributes. MobiVine absorbs that heterogeneity behind **M-Proxies**:
//! uniform, semantically structured interfaces with per-platform binding
//! modules.
//!
//! This crate provides:
//!
//! - the uniform proxy APIs ([`api::LocationProxy`], [`api::SmsProxy`],
//!   [`api::CallProxy`], [`api::HttpProxy`], plus the future-work
//!   [`api::ContactsProxy`] and [`api::CalendarProxy`]),
//! - the platform-neutral data types ([`types::Location`],
//!   [`types::ProximityEvent`], …) and error model ([`error::ProxyError`]
//!   with stable error codes for the JavaScript bridge),
//! - the generic `setProperty` mechanism ([`property::PropertyBag`]),
//!   validated against the proxy's binding-plane descriptor,
//! - binding modules for three platforms ([`android`], [`s60`],
//!   [`webview`]) — each absorbing its platform's quirks exactly as §4.1
//!   describes (Intent/IntentReceiver adaptation on Android, single-shot
//!   → repeated-alert emulation on S60, the wrapper/notification-table/
//!   polling pipeline on WebView),
//! - proxy enrichment decorators ([`enrich`]: unit conversion, call
//!   retries, policy gating — §3.3),
//! - a [`resilience`] layer (retry policies with simulated-clock
//!   backoff, per-proxy circuit breakers, location fallback chains —
//!   applied uniformly via [`registry::Mobivine::with_resilience`]),
//! - a [`cache`] layer (read-through result caching with single-flight
//!   coalescing and stamp-based invalidation for the idempotent reads —
//!   [`registry::Mobivine::with_cache`]),
//! - a [`journal`] layer (write-ahead intent journaling with
//!   fsync-barrier simulation, idempotency keys and torn-tail-safe
//!   crash recovery for the mutating paths —
//!   [`registry::Mobivine::with_journal`]), and
//! - a [`registry::Mobivine`] runtime facade constructing proxies per
//!   platform from the standard descriptor catalog.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mobivine::registry::Mobivine;
//! use mobivine::api::LocationProxy;
//! use mobivine::property::PropertyValue;
//! use mobivine_android::{AndroidPlatform, SdkVersion};
//! use mobivine_device::Device;
//!
//! let device = Device::builder().build();
//! let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
//! let runtime = Mobivine::for_android(platform.new_context());
//! let location = runtime.proxy::<dyn LocationProxy>()?;
//! location.set_property("provider", PropertyValue::str("gps"))?;
//! let fix = location.get_location()?;
//! assert!(fix.timestamp_ms == 0);
//! # Ok::<(), mobivine::error::ProxyError>(())
//! ```

/// Declares a layer's counter block: the `$metrics` struct of telemetry
/// [`Counter`](mobivine_telemetry::Counter) handles, updated lock-free
/// by the stack, and its `$snapshot` copy. A standalone block
/// (`shared`) counts privately; a registry-backed block (`on_registry`)
/// publishes every counter as a `<prefix>_<name>_total` series, so
/// exporters see it alongside every other metric.
macro_rules! counter_block {
    ($(#[$meta:meta])* $metrics:ident => $snapshot:ident, $prefix:literal {
        $($(#[$doc:meta])* $name:ident),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $metrics {
            $($(#[$doc])* $name: ::mobivine_telemetry::Counter,)*
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($metrics), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl $metrics {
            /// A fresh, shareable counter block (not registry-backed).
            pub fn shared() -> ::std::sync::Arc<Self> {
                ::std::sync::Arc::new(Self::default())
            }

            #[doc = concat!(
                "A counter block whose handles live in `registry` under `",
                $prefix,
                "_<name>_total`."
            )]
            pub fn on_registry(
                registry: &::std::sync::Arc<::mobivine_telemetry::MetricsRegistry>,
            ) -> ::std::sync::Arc<Self> {
                ::std::sync::Arc::new(Self {
                    $($name: registry.counter(
                        concat!($prefix, "_", stringify!($name), "_total"),
                        &::mobivine_telemetry::Labels::empty(),
                    ),)*
                })
            }

            /// The block a runtime wires: published on `registry` when
            /// telemetry is on, private otherwise.
            pub(crate) fn wired_to(
                registry: Option<&::std::sync::Arc<::mobivine_telemetry::MetricsRegistry>>,
            ) -> ::std::sync::Arc<Self> {
                registry.map_or_else(Self::shared, Self::on_registry)
            }

            /// Copies every counter at once.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($name: self.$name.value(),)*
                }
            }
        }

    };
}

/// Declares the [`stack::Method`] at `index` of interface `proxy`: its
/// span names are spelled out here, at compile time.
macro_rules! method {
    ($index:literal, $proxy:literal, $name:literal) => {
        $crate::stack::Method {
            index: $index,
            name: $name,
            proxy: concat!("proxy:", $proxy, ".", $name),
            binding: concat!("binding:", $proxy, ".", $name),
            cache: concat!("cache:", $name),
            overload: concat!("overload:", $name),
            resilience: concat!("resilience:", $name),
        }
    };
}

pub mod android;
pub mod api;
pub mod cache;
pub mod enrich;
pub mod error;
pub mod journal;
pub mod overload;
pub mod property;
pub mod registry;
pub mod resilience;
pub mod s60;
pub mod shard;
mod stack;
pub mod telemetry;
pub mod types;
pub mod webview;

pub use api::{CallProxy, HttpProxy, LocationProxy, SmsProxy};
pub use cache::{CacheMetrics, CachePolicy, CacheSnapshot};
pub use error::{ProxyError, ProxyErrorKind};
pub use journal::{
    current_idempotency_key, with_idempotency_key, CheckpointCell, IdempotencyKey, Journal,
    JournalMetrics, JournalPolicy, JournalSnapshot, Lsn,
};
pub use overload::{
    current_deadline, with_deadline, AdmissionController, Bulkhead, Deadline, DegradeTier,
    OverloadMetrics, OverloadPolicy, OverloadSnapshot,
};
pub use registry::{Mobivine, MobivineBuilder, ProxyApi, ProxyKind};
pub use resilience::{
    CircuitBreaker, CircuitState, ResilienceMetrics, ResiliencePolicy, ResilienceSnapshot,
};
pub use shard::ShardedRegistry;
pub use telemetry::TelemetryRuntime;
pub use types::{Location, ProximityEvent, ProximityListener};
