//! Allocation-count proof for the telemetry hot path.
//!
//! The tentpole claim: after warm-up, a traced proxy call performs
//! **zero heap allocations** in the telemetry recording path — label
//! interning, instrument-handle resolution and span-name formatting all
//! happened once at wiring time, per-thread span sinks were
//! pre-allocated at their retention capacity, and per-call recording is
//! atomics plus moves.
//!
//! The proof is a counting [`GlobalAlloc`] wrapper. This file holds a
//! **single** `#[test]` on purpose: integration-test binaries run tests
//! on their own threads, and a sibling test's allocations would corrupt
//! the per-thread counter windows.
//!
//! Per platform:
//! - **Android** and **S60** calls are asserted to make *absolutely
//!   zero* allocations once warm — the whole stack (traced decorators,
//!   ambient span stack, platform middleware, device substrate) runs
//!   allocation-free.
//! - **WebView** calls cross the JavaScript bridge. With the arena
//!   wire format the crossing itself is allocation-free once warm: the
//!   handle's scratch [`WireBuf`](mobivine_webview::WireBuf) pair is
//!   cleared, not freed, between calls; the W3C `traceparent` renders
//!   into a fixed 55-byte stack buffer; and the wrapper decodes
//!   arguments and encodes the reply as offset views into the same
//!   arenas. So the WebView pin is the same as android/s60: exactly
//!   zero allocations per warmed traced `getLocation`.
//!
//! One more input pins the gated stack (telemetry + resilience +
//! overload) on Android and S60 at its exact count: 4 allocations per
//! warmed call, all of them the two span events the resilience and
//! overload stages record (`SpanEvent` owns its name). The stages'
//! span names are compile-time strings and cost nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mobivine::api::LocationProxy;
use mobivine::overload::OverloadPolicy;
use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
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

/// Calls `getLocation` `calls` times and returns the allocations made.
fn measure(proxy: &Arc<dyn LocationProxy>, calls: u32) -> u64 {
    let before = allocations();
    for _ in 0..calls {
        let location = proxy.get_location().expect("getLocation succeeds");
        std::hint::black_box(&location);
    }
    allocations() - before
}

const WARMUP_CALLS: u32 = 5;
const MEASURED_CALLS: u32 = 50;

#[test]
fn traced_get_location_allocates_nothing_after_warmup() {
    // --- Android: absolute zero -----------------------------------
    let android = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    let runtime = Mobivine::for_android(android.new_context()).with_telemetry();
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("android supports Location");
    measure(&proxy, WARMUP_CALLS);
    let android_allocs = measure(&proxy, MEASURED_CALLS);
    assert_eq!(
        android_allocs, 0,
        "traced android getLocation must not allocate after warm-up \
         ({android_allocs} allocations over {MEASURED_CALLS} calls)"
    );

    // --- S60: absolute zero ---------------------------------------
    let runtime = Mobivine::for_s60(S60Platform::new(Device::builder().build())).with_telemetry();
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("s60 supports Location");
    measure(&proxy, WARMUP_CALLS);
    let s60_allocs = measure(&proxy, MEASURED_CALLS);
    assert_eq!(
        s60_allocs, 0,
        "traced s60 getLocation must not allocate after warm-up \
         ({s60_allocs} allocations over {MEASURED_CALLS} calls)"
    );

    // --- WebView: absolute zero through the wire arenas -----------
    let android = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    let webview = Arc::new(WebView::new(android.new_context()));
    let runtime = Mobivine::for_webview(webview).with_telemetry();
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("webview supports Location");
    measure(&proxy, WARMUP_CALLS);
    let webview_allocs = measure(&proxy, MEASURED_CALLS);
    assert_eq!(
        webview_allocs, 0,
        "traced webview getLocation must not allocate after warm-up \
         ({webview_allocs} allocations over {MEASURED_CALLS} calls): the \
         scratch WireBuf pair, stack traceparent and static span names \
         make the bridge crossing itself allocation-free"
    );
    // --- The gated stack: telemetry + resilience + overload --------
    // The resilience and overload stages open one span each per call
    // under their compile-time names; what still allocates is the two
    // point events those spans record ("attempt", "admitted"), whose
    // names `SpanEvent` stores as owned strings.
    let gated = |builder: MobivineBuilder| {
        let runtime = builder
            .with_telemetry()
            .with_resilience(ResiliencePolicy::default())
            .with_overload(OverloadPolicy::default())
            .build()
            .expect("runtime builds");
        let proxy = runtime
            .proxy::<dyn LocationProxy>()
            .expect("Location is supported");
        measure(&proxy, WARMUP_CALLS);
        measure(&proxy, MEASURED_CALLS)
    };
    let android = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    let gated_android_allocs = gated(Mobivine::builder().android(android.new_context()));
    assert_eq!(
        gated_android_allocs, 200,
        "gated android getLocation: 4 allocations per warmed call expected \
         ({gated_android_allocs} over {MEASURED_CALLS} calls)"
    );
    let gated_s60_allocs =
        gated(Mobivine::builder().s60(S60Platform::new(Device::builder().build())));
    assert_eq!(
        gated_s60_allocs, 200,
        "gated s60 getLocation: 4 allocations per warmed call expected \
         ({gated_s60_allocs} over {MEASURED_CALLS} calls)"
    );
}
