//! A fleet assembled step by step from the public calls `Fleet::build`
//! makes, in the same order and with the same settings, so the
//! benchmark can time each set-up layer and keep the devices, servers
//! and WebViews that a built `Fleet` does not expose.

use std::sync::Arc;

use mobivine::cache::CachePolicy;
use mobivine::error::ProxyError;
use mobivine::registry::MobivineBuilder;
use mobivine::shard::ShardedRegistry;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_apps::fleet::{shard_host, FleetConfig, FLEET_SUPERVISOR};
use mobivine_apps::server::WfmServer;
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_telemetry::PromotionPolicy;
use mobivine_webview::WebView;

use crate::drive::Probe;
use crate::workload::splitmix64;

/// The parts of a fleet the benchmark inspects.
pub struct Rebuilt {
    /// The warmed registry, device `i` at index `i`.
    pub registry: ShardedRegistry,
    /// The simulated handsets, in index order.
    pub devices: Vec<Device>,
    /// One server per shard.
    pub servers: Vec<WfmServer>,
    /// The WebView substrates of every third device.
    pub webviews: Vec<Arc<WebView>>,
}

/// The decorators `Fleet::build` wires for `config` (no durability,
/// brownout, crash storm or SLO: the benchmark's workloads use none of
/// them).
pub fn instrument(config: &FleetConfig, builder: MobivineBuilder) -> MobivineBuilder {
    let mut builder = builder;
    if config.telemetry {
        builder = builder
            .with_telemetry_retention(config.span_retention)
            .with_promotion_policy(
                PromotionPolicy::default().max_incidents(config.incident_capacity),
            );
    }
    if config.cache {
        builder = builder.with_cache(CachePolicy::default());
    }
    builder
}

/// Assembles the fleet of `config`, passing each layer's public call
/// through `probe.layer`.
///
/// # Errors
///
/// Any proxy-construction error, as from `Fleet::build`.
pub fn rebuild<P: Probe>(config: &FleetConfig, probe: &mut P) -> Result<Rebuilt, ProxyError> {
    let mut registry = ShardedRegistry::new(config.shards)?;
    let servers: Vec<WfmServer> = (0..config.shards).map(|_| WfmServer::new()).collect();
    let mut devices = Vec::with_capacity(config.devices);
    let mut webviews = Vec::new();
    for index in 0..config.devices {
        let mut seed_state = config.seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let device_seed = splitmix64(&mut seed_state);
        let device = probe.layer("device.build", || {
            let device = Device::builder()
                .seed(device_seed)
                .msisdn(&format!("+91-98-AGENT-{index}"))
                .build();
            device.smsc().register_address(FLEET_SUPERVISOR);
            device
        });
        let shard = registry.shard_of(index);
        probe.layer("apps.server.install", || {
            servers[shard].install(device.network(), &shard_host(shard));
        });
        match index % 3 {
            0 => {
                let ctx = probe.layer("platform.new", || {
                    AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context()
                });
                probe.layer("core.registry.push", || {
                    registry.push_with(|b| instrument(config, b.android(ctx)))
                })?;
            }
            1 => {
                let platform = probe.layer("platform.new", || S60Platform::new(device.clone()));
                probe.layer("core.registry.push", || {
                    registry.push_with(|b| instrument(config, b.s60(platform)))
                })?;
            }
            _ => {
                let webview = probe.layer("platform.new", || {
                    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
                    Arc::new(WebView::new(platform.new_context()))
                });
                webviews.push(Arc::clone(&webview));
                probe.layer("core.registry.push", || {
                    registry.push_with(|b| instrument(config, b.webview(webview)))
                })?;
            }
        }
        devices.push(device);
    }
    probe.layer("core.registry.warm", || registry.warm())?;
    Ok(Rebuilt {
        registry,
        devices,
        servers,
        webviews,
    })
}

#[cfg(test)]
mod tests {
    use mobivine_apps::fleet::Fleet;

    use super::*;
    use crate::drive::Untimed;
    use crate::workload::Workload;

    #[test]
    fn the_rebuild_wires_what_fleet_build_wires() {
        for workload in Workload::ALL {
            let config = workload.fleet_config(3, 12);
            let built = Fleet::build(config.clone()).expect("the fleet builds");
            let rebuilt = rebuild(&config, &mut Untimed).expect("the fleet rebuilds");
            assert_eq!(rebuilt.registry.len(), built.registry().len());
            assert_eq!(rebuilt.webviews.len(), 4);
            for device in 0..config.devices {
                let a = built.registry().runtime(device).expect("registered");
                let b = rebuilt.registry.runtime(device).expect("registered");
                assert_eq!(a.platform_id(), b.platform_id());
                assert_eq!(a.cache_metrics().is_some(), b.cache_metrics().is_some());
                assert_eq!(a.tracer().is_some(), b.tracer().is_some());
                assert_eq!(a.journal_metrics().is_some(), b.journal_metrics().is_some());
                assert_eq!(
                    a.overload_metrics().is_some(),
                    b.overload_metrics().is_some()
                );
            }
            for (a, b) in built.servers().iter().zip(&rebuilt.servers) {
                assert_eq!(
                    a.recovery_snapshot().is_some(),
                    b.recovery_snapshot().is_some()
                );
            }
        }
    }
}
