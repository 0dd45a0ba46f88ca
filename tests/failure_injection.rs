//! Failure injection across the uniform proxy APIs: GPS outages,
//! network loss, SMS loss, and permission denials must surface as the
//! *same* uniform error kinds (or the same delivery outcomes) on every
//! platform binding.

mod common;

use std::sync::{Arc, Mutex};

use common::{android_runtime, device, resilient_runtimes_isolated, runtimes};
use mobivine::api::{CallProxy, HttpProxy, LocationProxy, SmsProxy};
use mobivine::error::ProxyErrorKind;
use mobivine::resilience::ResiliencePolicy;
use mobivine::types::DeliveryOutcome;
use mobivine_device::fault::FaultPlan;
use mobivine_device::gps::GpsAvailability;
use mobivine_device::GeoPoint;

#[test]
fn gps_outage_is_unavailable_on_every_platform() {
    let device = device();
    device
        .gps()
        .set_availability(GpsAvailability::TemporarilyUnavailable);
    for (name, runtime) in runtimes(&device) {
        let err = runtime
            .proxy::<dyn LocationProxy>()
            .unwrap()
            .get_location()
            .unwrap_err();
        assert_eq!(
            err.kind(),
            ProxyErrorKind::Unavailable,
            "platform {name}: {err}"
        );
    }
}

#[test]
fn network_down_is_io_on_every_platform() {
    let device = device();
    device.network().set_down(true);
    for (name, runtime) in runtimes(&device) {
        let err = runtime
            .proxy::<dyn HttpProxy>()
            .unwrap()
            .request("GET", "http://wfm.example/tasks", &[])
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Io, "platform {name}: {err}");
    }
}

#[test]
fn sms_loss_reports_failed_delivery_uniformly() {
    let device = device();
    device.smsc().set_loss_probability(1.0);
    for (name, runtime) in runtimes(&device) {
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        runtime
            .proxy::<dyn SmsProxy>()
            .unwrap()
            .send_text_message(
                "+91-sup",
                "lost",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        device.advance_ms(2_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Failed],
            "platform {name}"
        );
    }
}

#[test]
fn empty_arguments_rejected_uniformly() {
    let device = device();
    for (name, runtime) in runtimes(&device) {
        let err = runtime
            .proxy::<dyn SmsProxy>()
            .unwrap()
            .send_text_message("", "hi", None)
            .unwrap_err();
        assert_eq!(
            err.kind(),
            ProxyErrorKind::IllegalArgument,
            "platform {name}: {err}"
        );
        let err = runtime
            .proxy::<dyn LocationProxy>()
            .unwrap()
            .add_proximity_alert(
                28.5,
                77.3,
                0.0,
                0.0,
                -1,
                Arc::new(|_: &mobivine::types::ProximityEvent| {}),
            )
            .unwrap_err();
        assert_eq!(
            err.kind(),
            ProxyErrorKind::IllegalArgument,
            "platform {name} radius: {err}"
        );
    }
}

#[test]
fn gps_recovery_restores_service_everywhere() {
    let device = device();
    device.gps().set_availability(GpsAvailability::OutOfService);
    let runtime = android_runtime(&device);
    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    assert!(location.get_location().is_err());
    device.gps().set_availability(GpsAvailability::Available);
    assert!(location.get_location().is_ok());
}

#[test]
fn unknown_host_and_404_are_distinguished() {
    let device = device();
    for (name, runtime) in runtimes(&device) {
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();
        // Unknown host: transport error.
        let err = http
            .request("GET", "http://ghost.example/", &[])
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Io, "platform {name}");
        // Known host, unrouted path: an HTTP result, not an error.
        // (Install a server first.)
        device.network().register_route(
            "known.example",
            mobivine_device::net::Method::Get,
            "/",
            |_| mobivine_device::net::HttpResponse::ok("root"),
        );
        let resp = http
            .request("GET", "http://known.example/missing", &[])
            .unwrap();
        assert_eq!(resp.status, 404, "platform {name}");
    }
}

#[test]
fn out_of_coverage_sms_fails_uniformly_at_the_device() {
    // Configure a single cell far from the device: the radio has no
    // signal, so sends fail device-side with the uniform Io kind on
    // every platform — before the SMSC is ever involved.
    let device = device();
    device
        .coverage()
        .add_cell(GeoPoint::new(10.0, 10.0), 1_000.0);
    assert!(!device.signal_strength().in_coverage());
    for (name, runtime) in runtimes(&device) {
        let err = runtime
            .proxy::<dyn SmsProxy>()
            .unwrap()
            .send_text_message("+91-sup", "anyone there?", None)
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Io, "platform {name}: {err}");
    }
    // Walking back into coverage restores service.
    device.coverage().clear();
    for (_name, runtime) in runtimes(&device) {
        assert!(runtime
            .proxy::<dyn SmsProxy>()
            .unwrap()
            .send_text_message("+91-sup", "back online", None)
            .is_ok());
    }
}

#[test]
fn out_of_coverage_call_fails_on_android() {
    let device = device();
    device
        .coverage()
        .add_cell(GeoPoint::new(10.0, 10.0), 1_000.0);
    let runtime = android_runtime(&device);
    let err = runtime
        .proxy::<dyn CallProxy>()
        .unwrap()
        .make_a_call("+91-sup")
        .unwrap_err();
    assert_eq!(err.kind(), ProxyErrorKind::Io);
}

#[test]
fn intermittent_sms_loss_with_seeded_probability() {
    let device = device();
    device.smsc().set_loss_probability(0.5);
    let runtime = android_runtime(&device);
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..40 {
        let sink = Arc::clone(&outcomes);
        sms.send_text_message(
            "+91-sup",
            "maybe",
            Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                sink.lock().unwrap().push(o);
            })),
        )
        .unwrap();
    }
    device.advance_ms(5_000);
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), 40);
    let delivered = outcomes
        .iter()
        .filter(|o| **o == DeliveryOutcome::Delivered)
        .count();
    // Seeded: both outcomes occur, roughly balanced.
    assert!(delivered > 5 && delivered < 35, "delivered {delivered}/40");
}

// ---------------------------------------------------------------------
// FaultPlan-driven chaos: scheduled outage windows against resilient
// runtimes. Every platform gets its own fresh device running the same
// plan, so eventual outcomes AND attempt counts must match exactly.
// ---------------------------------------------------------------------

/// A deterministic policy whose first backoff (500–750 ms with jitter)
/// always outlives the fault windows the chaos tests schedule.
fn chaos_policy() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .max_attempts(4)
        .backoff_base_ms(500)
        .jitter_seed(2009)
        .deadline_ms(60_000)
}

#[test]
fn network_partition_mid_call_is_absorbed_identically_everywhere() {
    let mut attempt_counts = Vec::new();
    for (name, device, runtime) in resilient_runtimes_isolated(&chaos_policy()) {
        device.network().register_route(
            "wfm.example",
            mobivine_device::net::Method::Get,
            "/tasks",
            |_| mobivine_device::net::HttpResponse::ok("[]"),
        );
        // Partition opens at t=1 and heals at t=400 — before the first
        // retry (>= 501) lands.
        FaultPlan::new(&device).network_partition(1, 400);
        device.advance_ms(1);
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();
        let resp = http
            .request("GET", "http://wfm.example/tasks", &[])
            .unwrap_or_else(|e| panic!("platform {name} must recover: {e}"));
        assert_eq!(resp.status, 200, "platform {name}");
        let snap = runtime.resilience_metrics().unwrap().snapshot();
        assert_eq!(snap.successes, 1, "platform {name}: 100% eventual success");
        assert_eq!(snap.transient_failures, 1, "platform {name}");
        attempt_counts.push((name, snap.attempts));
    }
    assert!(
        attempt_counts
            .iter()
            .all(|(_, a)| *a == attempt_counts[0].1),
        "attempt counts must be identical across platforms: {attempt_counts:?}"
    );
    assert_eq!(attempt_counts[0].1, 2, "fail once, succeed on the retry");
}

#[test]
fn gps_flap_during_tracking_is_ridden_out_by_retries() {
    let mut attempt_counts = Vec::new();
    for (name, device, runtime) in resilient_runtimes_isolated(&chaos_policy()) {
        // Two outage windows: [1, 401) and [801, 1201).
        FaultPlan::new(&device).gps_flap(1, 400, 2);
        device.advance_ms(1);
        let location = runtime.proxy::<dyn LocationProxy>().unwrap();
        // First read lands in the first outage; the retry (t >= 502)
        // falls in the recovered gap.
        let first = location
            .get_location()
            .unwrap_or_else(|e| panic!("platform {name} first read: {e}"));
        // Jump into the second outage and read again.
        device.advance_to(900);
        let second = location
            .get_location()
            .unwrap_or_else(|e| panic!("platform {name} second read: {e}"));
        assert!(second.timestamp_ms > first.timestamp_ms, "platform {name}");
        let snap = runtime.resilience_metrics().unwrap().snapshot();
        assert_eq!(snap.successes, 2, "platform {name}: 100% eventual success");
        assert_eq!(
            snap.fallback_last_known + snap.fallback_default,
            0,
            "platform {name}: retries alone must ride out the flap"
        );
        attempt_counts.push((name, snap.attempts));
    }
    assert!(
        attempt_counts
            .iter()
            .all(|(_, a)| *a == attempt_counts[0].1),
        "attempt counts must be identical across platforms: {attempt_counts:?}"
    );
    assert_eq!(attempt_counts[0].1, 4, "two reads, one retry each");
}

#[test]
fn smsc_drop_window_notifies_listener_then_clears_uniformly() {
    for (name, device, runtime) in resilient_runtimes_isolated(&chaos_policy()) {
        FaultPlan::new(&device).sms_loss_window(1, 10_000, 1.0);
        device.advance_ms(1);
        let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        // Submission succeeds (the radio is fine); the SMSC drops the
        // message downstream and the delivery listener must hear it.
        sms.send_text_message(
            "+91-sup",
            "into the void",
            Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                sink.lock().unwrap().push(o);
            })),
        )
        .unwrap_or_else(|e| panic!("platform {name} submit: {e}"));
        device.advance_ms(2_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Failed],
            "platform {name}: drop reported through the listener"
        );
        // After the window closes the channel is clean again.
        device.advance_to(10_500);
        let sink = Arc::clone(&outcomes);
        sms.send_text_message(
            "+91-sup",
            "after the storm",
            Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                sink.lock().unwrap().push(o);
            })),
        )
        .unwrap();
        device.advance_ms(2_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Failed, DeliveryOutcome::Delivered],
            "platform {name}: delivery restored after the window"
        );
    }
}

#[test]
fn circuit_breaker_opens_rejects_fast_and_recovers_via_half_open_probe() {
    let policy = chaos_policy()
        .max_attempts(1)
        .circuit_threshold(3)
        .circuit_cooldown_ms(5_000);
    let mut attempt_counts = Vec::new();
    for (name, device, runtime) in resilient_runtimes_isolated(&policy) {
        device.network().register_route(
            "wfm.example",
            mobivine_device::net::Method::Get,
            "/tasks",
            |_| mobivine_device::net::HttpResponse::ok("[]"),
        );
        device.network().set_down(true);
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();
        // Three straight failures open the circuit.
        for i in 0..3 {
            let err = http
                .request("GET", "http://wfm.example/tasks", &[])
                .unwrap_err();
            assert_eq!(err.kind(), ProxyErrorKind::Io, "platform {name} call {i}");
        }
        // While open: rejected fast, without touching the binding or
        // the simulated clock.
        let before = device.now_ms();
        let err = http
            .request("GET", "http://wfm.example/tasks", &[])
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::CircuitOpen, "platform {name}");
        assert_eq!(
            device.now_ms(),
            before,
            "platform {name}: no time spent while open"
        );
        let snap = runtime.resilience_metrics().unwrap().snapshot();
        assert_eq!(
            snap.attempts, 3,
            "platform {name}: rejection never reached the binding"
        );
        assert_eq!(snap.circuit_rejections, 1, "platform {name}");
        // Cooldown elapses while the network heals; the half-open probe
        // closes the circuit again.
        device.network().set_down(false);
        device.advance_ms(5_100);
        let resp = http
            .request("GET", "http://wfm.example/tasks", &[])
            .unwrap_or_else(|e| panic!("platform {name} probe: {e}"));
        assert_eq!(resp.status, 200, "platform {name}");
        assert!(http.request("GET", "http://wfm.example/tasks", &[]).is_ok());
        attempt_counts.push((
            name,
            runtime.resilience_metrics().unwrap().snapshot().attempts,
        ));
    }
    assert!(
        attempt_counts
            .iter()
            .all(|(_, a)| *a == attempt_counts[0].1),
        "attempt counts must be identical across platforms: {attempt_counts:?}"
    );
}

#[test]
fn random_drops_yield_the_same_resilient_trace_on_every_platform() {
    // Seeded-probabilistic chaos: the same FaultPlan seed must produce
    // the same outage schedule — and therefore the same retry counters —
    // on every platform binding.
    let policy = chaos_policy().max_attempts(6).deadline_ms(600_000);
    let mut traces = Vec::new();
    for (name, device, runtime) in resilient_runtimes_isolated(&policy) {
        device.network().register_route(
            "wfm.example",
            mobivine_device::net::Method::Get,
            "/tasks",
            |_| mobivine_device::net::HttpResponse::ok("[]"),
        );
        FaultPlan::new(&device).random_network_drops(77, 0, 30_000, 5, 700);
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();
        let mut successes = 0;
        for call in 0..6 {
            device.advance_to((call as u64 + 1) * 4_000);
            if http.request("GET", "http://wfm.example/tasks", &[]).is_ok() {
                successes += 1;
            }
        }
        assert_eq!(successes, 6, "platform {name}: every call eventually lands");
        let snap = runtime.resilience_metrics().unwrap().snapshot();
        traces.push((name, snap.attempts, snap.retries));
    }
    assert!(
        traces
            .iter()
            .all(|t| (t.1, t.2) == (traces[0].1, traces[0].2)),
        "seeded chaos must replay identically: {traces:?}"
    );
}

/// The fault-transition provenance counter for `label` on `device`.
fn fault_transitions(device: &mobivine_device::Device, label: &str) -> u64 {
    device.metrics().counter_value(
        "device_fault_transitions_total",
        &mobivine_telemetry::Labels::new(&[("fault", label)]),
    )
}

#[test]
fn http_latency_spike_window_stretches_and_restores_round_trips() {
    for (name, device, runtime) in resilient_runtimes_isolated(&chaos_policy()) {
        device.network().register_route(
            "wfm.example",
            mobivine_device::net::Method::Get,
            "/tasks",
            |_| mobivine_device::net::HttpResponse::ok("[]"),
        );
        FaultPlan::new(&device).latency_spike(1_000, 60_000, 10);
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();

        let timed_request = |at_ms: u64| {
            device.advance_to(at_ms);
            let before = device.now_ms();
            http.request("GET", "http://wfm.example/tasks", &[])
                .unwrap_or_else(|e| panic!("platform {name}: {e}"));
            device.now_ms() - before
        };

        let baseline = timed_request(100);
        assert!(
            baseline > 0,
            "platform {name}: round trips cost virtual time"
        );
        let spiked = timed_request(2_000);
        assert!(
            spiked > baseline,
            "platform {name}: spike must stretch the round trip \
             (baseline {baseline} ms, spiked {spiked} ms)"
        );
        // Provenance: the spike transition fired, the restore is pending.
        assert_eq!(
            fault_transitions(&device, "fault.network.latency_spike"),
            1,
            "platform {name}"
        );
        assert_eq!(
            fault_transitions(&device, "fault.network.latency_restored"),
            0,
            "platform {name}"
        );
        let restored = timed_request(70_000);
        assert_eq!(
            restored, baseline,
            "platform {name}: latency must return to baseline after the window"
        );
        assert_eq!(
            fault_transitions(&device, "fault.network.latency_restored"),
            1,
            "platform {name}"
        );
        // No retries were needed — the link stayed up, just slow.
        let snap = runtime.resilience_metrics().unwrap().snapshot();
        assert_eq!(snap.successes, 3, "platform {name}");
        assert_eq!(snap.attempts, 3, "platform {name}: slow is not failed");
    }
}

#[test]
fn smsc_overload_burst_delays_delivery_then_drains() {
    for (name, device, runtime) in resilient_runtimes_isolated(&chaos_policy()) {
        let baseline_ms = device.smsc().latency_ms();
        FaultPlan::new(&device).overload_burst(1, 60_000, 5);
        device.advance_ms(2);
        let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        sms.send_text_message(
            "+91-sup",
            "under pressure",
            Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                sink.lock().unwrap().push(o);
            })),
        )
        .unwrap_or_else(|e| panic!("platform {name} submit: {e}"));
        // At the baseline latency nothing has landed — the saturated
        // SMSC is serving 5x slower.
        device.advance_ms(baseline_ms + 1);
        assert!(
            outcomes.lock().unwrap().is_empty(),
            "platform {name}: delivery must be delayed by the burst"
        );
        device.advance_ms(baseline_ms * 5);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Delivered],
            "platform {name}: delayed, not lost"
        );
        // Provenance: both saturation transitions fired together.
        assert_eq!(
            fault_transitions(&device, "fault.smsc.overloaded"),
            1,
            "platform {name}"
        );
        assert_eq!(
            fault_transitions(&device, "fault.network.latency_spike"),
            1,
            "platform {name}: the burst saturates the packet network too"
        );
        // After the window the SMSC drains back to its baseline.
        device.advance_to(61_000);
        assert_eq!(device.smsc().latency_ms(), baseline_ms, "platform {name}");
        assert_eq!(
            fault_transitions(&device, "fault.smsc.drained"),
            1,
            "platform {name}"
        );
    }
}

#[test]
fn coverage_outage_mid_call_is_ridden_out_where_calls_exist() {
    // S60 has no Call proxy, so the chaos case covers the two bindings
    // that do; their fault traces must match exactly.
    let mut attempt_counts = Vec::new();
    for (name, device, runtime) in resilient_runtimes_isolated(&chaos_policy()) {
        if name == "s60" {
            continue;
        }
        // Radio outage [1, 400): the first dial fails at the radio, the
        // retry (t >= 501) lands after coverage is restored.
        FaultPlan::new(&device).coverage_outage(1, 400);
        device.advance_ms(1);
        let call = runtime.proxy::<dyn CallProxy>().unwrap();
        let call_id = call
            .make_a_call("+91-sup")
            .unwrap_or_else(|e| panic!("platform {name} must recover: {e}"));
        assert!(call_id > 0, "platform {name}");
        // Provenance: both coverage transitions fired.
        assert_eq!(
            fault_transitions(&device, "fault.radio.out_of_coverage"),
            1,
            "platform {name}"
        );
        assert_eq!(
            fault_transitions(&device, "fault.radio.coverage_restored"),
            1,
            "platform {name}"
        );
        let snap = runtime.resilience_metrics().unwrap().snapshot();
        assert_eq!(snap.successes, 1, "platform {name}: eventual success");
        assert_eq!(snap.transient_failures, 1, "platform {name}");
        attempt_counts.push((name, snap.attempts));
    }
    assert_eq!(attempt_counts.len(), 2, "android and webview both dialled");
    assert!(
        attempt_counts
            .iter()
            .all(|(_, a)| *a == attempt_counts[0].1),
        "attempt counts must be identical across platforms: {attempt_counts:?}"
    );
    assert_eq!(attempt_counts[0].1, 2, "fail once, succeed on the retry");
}

#[test]
fn circuit_state_is_visible_through_the_decorator() {
    // The breaker's Closed → Open → Closed walk, read through the public
    // surface of a runtime built with `with_resilience`: call outcomes
    // and the runtime's shared resilience counters.
    let device = device();
    device.network().set_down(true);
    let runtime = android_runtime(&device).with_resilience(
        ResiliencePolicy::default()
            .max_attempts(1)
            .circuit_threshold(2)
            .circuit_cooldown_ms(1_000),
    );
    let metrics = runtime.resilience_metrics().expect("resilience installed");
    let http = runtime.proxy::<dyn HttpProxy>().unwrap();

    // Closed: both failures reach the platform; the second opens it.
    for _ in 0..2 {
        let err = http.request("GET", "http://wfm.example/", &[]).unwrap_err();
        assert_ne!(err.kind(), ProxyErrorKind::CircuitOpen);
    }
    let snap = metrics.snapshot();
    assert_eq!((snap.attempts, snap.circuit_opens), (2, 1));

    // Open: the next call is rejected without reaching the platform.
    let err = http.request("GET", "http://wfm.example/", &[]).unwrap_err();
    assert_eq!(err.kind(), ProxyErrorKind::CircuitOpen);
    let snap = metrics.snapshot();
    assert_eq!((snap.attempts, snap.circuit_rejections), (2, 1));

    device.network().set_down(false);
    device.advance_ms(1_100);
    // The next admission flips to half-open and the success closes it.
    device.network().register_route(
        "wfm.example",
        mobivine_device::net::Method::Get,
        "/",
        |_| mobivine_device::net::HttpResponse::ok("up"),
    );
    http.request("GET", "http://wfm.example/", &[]).unwrap();

    // Closed again: a failure below the threshold reaches the platform
    // and neither opens the circuit nor is rejected.
    device.network().set_down(true);
    let err = http.request("GET", "http://wfm.example/", &[]).unwrap_err();
    assert_ne!(err.kind(), ProxyErrorKind::CircuitOpen);
    let snap = metrics.snapshot();
    assert_eq!((snap.attempts, snap.successes), (4, 1));
    assert_eq!((snap.circuit_opens, snap.circuit_rejections), (1, 1));
}
