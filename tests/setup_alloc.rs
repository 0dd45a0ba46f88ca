//! Allocation-count guard for fleet set-up.
//!
//! Registering a device (`ShardedRegistry::push_with`) and warming it
//! (`ShardedRegistry::warm`) used to rebuild the standard descriptor
//! catalog per runtime and a full descriptor per proxy, about 2,000 heap
//! allocations per device. The catalog is now built once per process
//! and every proxy shares its binding plane, so set-up allocates only
//! the runtime, the decorator stack and the per-proxy state.
//!
//! The guard is a counting [`GlobalAlloc`] wrapper, as in
//! `tests/zero_alloc_telemetry.rs`. This file holds a **single**
//! `#[test]` on purpose: integration-test binaries run tests on their
//! own threads, and a sibling test's allocations would corrupt the
//! per-thread counter windows.
//!
//! Each bound is the count measured when the guard was written plus
//! stated headroom, so a change that starts copying descriptors again
//! (hundreds of allocations per proxy) fails loudly while ordinary
//! churn in the decorator stack does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mobivine::cache::CachePolicy;
use mobivine::registry::MobivineBuilder;
use mobivine::shard::ShardedRegistry;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_webview::WebView;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation made by the current thread, then delegates
/// to the system allocator.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the thread-local counter bump
// does not allocate (const-initialised `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const DEVICES: usize = 24;
const SHARDS: usize = 4;

/// The runtime options under test, applied to each device's builder.
type Options = fn(MobivineBuilder) -> MobivineBuilder;

#[derive(Clone, Copy, Debug)]
enum Platform {
    Android,
    S60,
    WebView,
}

/// The per-device allocations of `push_with` plus `warm` for `DEVICES`
/// devices of `platform`, each runtime configured by `options`. The
/// devices and platforms are built before the counting window opens:
/// they are the simulated hardware, not MobiVine set-up.
fn setup_allocs_per_device(platform: Platform, options: Options) -> u64 {
    let mut registry = ShardedRegistry::new(SHARDS).expect("shards");
    let targets: Vec<_> = (0..DEVICES)
        .map(|_| {
            let device = Device::builder().build();
            match platform {
                Platform::Android | Platform::WebView => {
                    (Some(AndroidPlatform::new(device, SdkVersion::M5Rc15)), None)
                }
                Platform::S60 => (None, Some(S60Platform::new(device))),
            }
        })
        .collect();
    let webviews: Vec<Option<Arc<WebView>>> = targets
        .iter()
        .map(|(android, _)| match (platform, android) {
            (Platform::WebView, Some(android)) => {
                Some(Arc::new(WebView::new(android.new_context())))
            }
            _ => None,
        })
        .collect();

    let before = allocations();
    for ((android, s60), webview) in targets.iter().zip(webviews) {
        registry
            .push_with(|b| {
                let b = match (platform, android, s60, webview) {
                    (Platform::Android, Some(android), _, _) => b.android(android.new_context()),
                    (Platform::S60, _, Some(s60), _) => b.s60(s60.clone()),
                    (Platform::WebView, _, _, Some(webview)) => b.webview(webview),
                    _ => unreachable!("targets match the platform"),
                };
                options(b)
            })
            .expect("push");
    }
    registry.warm().expect("warm");
    (allocations() - before) / DEVICES as u64
}

fn cached(b: MobivineBuilder) -> MobivineBuilder {
    b.with_cache(CachePolicy::default())
}

fn traced(b: MobivineBuilder) -> MobivineBuilder {
    b.with_telemetry()
}

#[test]
fn fleet_setup_allocations_per_device_stay_bounded() {
    // The process catalog is built once, on first use; that one-time
    // cost is not a per-device one.
    std::hint::black_box(mobivine_proxydl::catalog::shared_catalog());

    // (platform, config, measured allocations per device, bound).
    // Measured on x86_64 Linux (debug and release give the same counts)
    // when the catalog became per-process; before, the same window
    // counted 1,767-3,125. Bound = measured + 25% headroom, rounded up
    // to a multiple of ten. Re-cloning one binding plane per proxy would
    // add dozens of allocations per proxy, hundreds per device.
    let cases: [(Platform, &str, Options, u64, u64); 6] = [
        (Platform::Android, "cache", cached, 39, 50),
        (Platform::S60, "cache", cached, 23, 30),
        (Platform::WebView, "cache", cached, 50, 70),
        (Platform::Android, "telemetry", traced, 288, 360),
        (Platform::S60, "telemetry", traced, 193, 250),
        (Platform::WebView, "telemetry", traced, 303, 380),
    ];
    let mut failures = Vec::new();
    for (platform, config, options, measured, bound) in cases {
        let per_device = setup_allocs_per_device(platform, options);
        eprintln!("{platform:?} {config}: {per_device} allocations per device");
        if per_device > bound {
            failures.push(format!(
                "{platform:?} with {config}: {per_device} allocations per device \
                 (measured {measured} when pinned, bound {bound})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "set-up allocations grew:\n{}",
        failures.join("\n")
    );
}
