//! Sharded proxy registry for fleet-scale workloads.
//!
//! One [`crate::registry::Mobivine`] runtime serves one application on
//! one device. A fleet of tens of thousands of simulated devices needs
//! the same uniform surface without per-call proxy construction on
//! every acquisition.
//!
//! [`ShardedRegistry`] partitions runtimes round-robin into a fixed
//! number of **shards**. Every runtime in a shard shares the shard's
//! `Arc`'d descriptor catalog (a standalone runtime shares the
//! process-wide [`mobivine_proxydl::catalog::shared_catalog`] instead),
//! and every proxy shares its binding plane with all proxies of the
//! same interface and platform, so no runtime or proxy holds a private
//! descriptor copy. Each runtime's resolution is memoized (see
//! [`crate::registry::Mobivine::proxy`]), so steady-state acquisition
//! across the whole fleet is a lock-free read per device. Shards are
//! also the unit of worker ownership upstream: the fleet engine assigns
//! disjoint shards to workers, so no two workers ever contend on the
//! same runtime.

use std::sync::Arc;

use mobivine_proxydl::ProxyDescriptor;

use crate::error::{ProxyError, ProxyErrorKind};
use crate::registry::{Mobivine, MobivineBuilder, ProxyApi};

/// A registry of per-device runtimes partitioned into catalog-sharing
/// shards, with typed memoized resolution routed by device index.
///
/// Registration is a build-time phase (`&mut self`); after that the
/// registry is read-only and every acquisition path
/// ([`ShardedRegistry::resolve`]) is lock-free, so a `ShardedRegistry`
/// behind an `Arc` can be hammered from many workers concurrently.
///
/// # Example
///
/// ```
/// use mobivine::api::SmsProxy;
/// use mobivine::shard::ShardedRegistry;
/// use mobivine_android::{AndroidPlatform, SdkVersion};
/// use mobivine_device::Device;
///
/// let mut registry = ShardedRegistry::new(4)?;
/// for _ in 0..16 {
///     let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
///     registry.push_with(|b| b.android(platform.new_context()))?;
/// }
/// registry.warm()?;
/// let sms = registry.resolve::<dyn SmsProxy>(11)?;
/// # drop(sms);
/// # Ok::<(), mobivine::error::ProxyError>(())
/// ```
pub struct ShardedRegistry {
    /// One shared catalog per shard; `catalogs.len()` is the shard count.
    catalogs: Vec<Arc<Vec<ProxyDescriptor>>>,
    /// Runtime `i` belongs to shard `i % catalogs.len()`.
    runtimes: Vec<Arc<Mobivine>>,
}

impl std::fmt::Debug for ShardedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRegistry")
            .field("shards", &self.catalogs.len())
            .field("runtimes", &self.runtimes.len())
            .finish()
    }
}

impl ShardedRegistry {
    /// Creates an empty registry with `shard_count` shards, each owning
    /// one shared copy of the standard descriptor catalog.
    ///
    /// # Errors
    ///
    /// `IllegalArgument` if `shard_count` is zero.
    pub fn new(shard_count: usize) -> Result<Self, ProxyError> {
        if shard_count == 0 {
            return Err(ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                "ShardedRegistry needs at least one shard",
            ));
        }
        let catalogs = (0..shard_count)
            .map(|_| Arc::new(mobivine_proxydl::catalog::standard_catalog()))
            .collect();
        Ok(Self {
            catalogs,
            runtimes: Vec::new(),
        })
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.catalogs.len()
    }

    /// The number of registered runtimes.
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Whether no runtimes are registered yet.
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// The shard owning device `device_index` (round-robin).
    pub fn shard_of(&self, device_index: usize) -> usize {
        device_index % self.catalogs.len()
    }

    /// The catalog shared by every runtime in `shard`.
    ///
    /// # Panics
    ///
    /// If `shard >= shard_count()`.
    pub fn shard_catalog(&self, shard: usize) -> Arc<Vec<ProxyDescriptor>> {
        Arc::clone(&self.catalogs[shard])
    }

    /// Registers the next runtime: hands `configure` a
    /// [`MobivineBuilder`] pre-seeded with the owning shard's shared
    /// catalog (platform selection and options are the caller's),
    /// builds it, and returns the new device index.
    ///
    /// # Errors
    ///
    /// Whatever [`MobivineBuilder::build`] returns — typically
    /// `IllegalArgument` when `configure` selects no platform.
    pub fn push_with(
        &mut self,
        configure: impl FnOnce(MobivineBuilder) -> MobivineBuilder,
    ) -> Result<usize, ProxyError> {
        let device_index = self.runtimes.len();
        let shard = self.shard_of(device_index);
        let builder = Mobivine::builder().catalog(Arc::clone(&self.catalogs[shard]));
        let runtime = configure(builder).build()?;
        self.runtimes.push(Arc::new(runtime));
        Ok(device_index)
    }

    /// The runtime for device `device_index`, when registered.
    pub fn runtime(&self, device_index: usize) -> Option<&Arc<Mobivine>> {
        self.runtimes.get(device_index)
    }

    /// The device indices belonging to `shard`, in registration order.
    pub fn shard_members(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        let shards = self.catalogs.len();
        (0..self.runtimes.len()).filter(move |i| i % shards == shard)
    }

    /// Routes `device_index` to its runtime and resolves the proxy for
    /// capability `P` — the fleet hot path. After [`ShardedRegistry::warm`]
    /// this is a bounds-check, one `OnceLock` load and an `Arc` refcount
    /// increment per acquisition.
    ///
    /// # Errors
    ///
    /// `IllegalArgument` for an unregistered index, otherwise as
    /// [`Mobivine::proxy`].
    pub fn resolve<P: ProxyApi + ?Sized>(&self, device_index: usize) -> Result<Arc<P>, ProxyError> {
        let runtime = self.runtime(device_index).ok_or_else(|| {
            ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                format!(
                    "device index {device_index} out of range ({} registered)",
                    self.runtimes.len()
                ),
            )
        })?;
        runtime.proxy::<P>()
    }

    /// Pre-resolves every supported capability of every registered
    /// runtime (see [`Mobivine::warm`]), returning the total number of
    /// cached proxies. Fleet workloads call this once after
    /// registration so steady state never constructs.
    ///
    /// # Errors
    ///
    /// Propagates the first construction error.
    pub fn warm(&self) -> Result<usize, ProxyError> {
        let mut resolved = 0;
        for runtime in &self.runtimes {
            resolved += runtime.warm()?;
        }
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CallProxy, LocationProxy};
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::Device;
    use mobivine_s60::S60Platform;

    fn android_fleet(shards: usize, devices: usize) -> ShardedRegistry {
        let mut registry = ShardedRegistry::new(shards).unwrap();
        for _ in 0..devices {
            let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
            registry
                .push_with(|b| b.android(platform.new_context()))
                .unwrap();
        }
        registry
    }

    #[test]
    fn zero_shards_is_an_error() {
        let err = ShardedRegistry::new(0).unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn devices_round_robin_across_shards() {
        let registry = android_fleet(3, 10);
        assert_eq!(registry.shard_count(), 3);
        assert_eq!(registry.len(), 10);
        assert_eq!(registry.shard_of(0), 0);
        assert_eq!(registry.shard_of(4), 1);
        assert_eq!(registry.shard_members(1).collect::<Vec<_>>(), [1, 4, 7]);
    }

    #[test]
    fn shard_members_share_one_catalog_allocation() {
        let registry = android_fleet(2, 6);
        let members: Vec<usize> = registry.shard_members(0).collect();
        let first = registry.runtime(members[0]).unwrap();
        for &m in &members[1..] {
            let other = registry.runtime(m).unwrap();
            assert!(
                std::ptr::eq(first.catalog().as_ptr(), other.catalog().as_ptr()),
                "devices {} and {} share shard 0's catalog",
                members[0],
                m
            );
        }
        // Different shards own different allocations.
        let other_shard = registry.runtime(1).unwrap();
        assert!(!std::ptr::eq(
            first.catalog().as_ptr(),
            other_shard.catalog().as_ptr()
        ));
    }

    #[test]
    fn resolve_routes_and_memoizes() {
        let registry = android_fleet(2, 4);
        let first = registry.resolve::<dyn LocationProxy>(3).unwrap();
        let second = registry.resolve::<dyn LocationProxy>(3).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let neighbour = registry.resolve::<dyn LocationProxy>(2).unwrap();
        assert!(!Arc::ptr_eq(&first, &neighbour), "per-device instances");
    }

    #[test]
    fn resolve_out_of_range_is_illegal_argument() {
        let registry = android_fleet(2, 2);
        let err = match registry.resolve::<dyn LocationProxy>(9) {
            Err(err) => err,
            Ok(_) => panic!("out-of-range index must fail"),
        };
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn warm_covers_mixed_platform_fleets() {
        let mut registry = ShardedRegistry::new(2).unwrap();
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        registry
            .push_with(|b| b.android(platform.new_context()))
            .unwrap();
        registry
            .push_with(|b| b.s60(S60Platform::new(Device::builder().build())))
            .unwrap();
        // Android resolves 6 kinds, S60 resolves 5 (no Call).
        assert_eq!(registry.warm().unwrap(), 11);
        let err = match registry.resolve::<dyn CallProxy>(1) {
            Err(err) => err,
            Ok(_) => panic!("call proxy must not exist on S60"),
        };
        assert_eq!(err.kind(), ProxyErrorKind::UnsupportedOnPlatform);
    }
}
