//! The traced run: per-layer metrics from calls the benchmark times from
//! outside each layer's public functions, recorded as spans. It is
//! separate from the measured runs; its throughput against theirs is
//! the tracing overhead.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use mobivine::api::{LocationProxy, SmsProxy};
use mobivine::cache::CachePolicy;
use mobivine::journal::url_with_idempotency_key;
use mobivine::overload::OverloadPolicy;
use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
use mobivine::{IdempotencyKey, JournalPolicy};
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_apps::fleet::{shard_host, Fleet, FLEET_SUPERVISOR};
use mobivine_apps::server::{DurabilityConfig, TrackPoint, WfmServer};
use mobivine_bench::harness::{AndroidFixture, S60Fixture, WebViewFixture};
use mobivine_device::latency::LatencyModel;
use mobivine_device::net::{HttpRequest, HttpResponse, Method};
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_webview::WebView;

use crate::alloc::AllocCount;
use crate::check::{check_fleet, delivered_sms, expect_eq};
use crate::drive::{Tally, Target, Untimed};
use crate::rebuild::{rebuild, Rebuilt};
use crate::report::{Metric, ResultLine};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workload::{Workload, DEVICES};

/// The rebuild's per-layer total may differ from the wall time of a
/// `Fleet::build` made just before it in the same process by this share.
/// It repeats every call `Fleet::build` makes, so a missing or extra step
/// shows as a larger gap; the rest is one build's noise against another.
const SETUP_TOLERANCE: f64 = 0.5;
/// The ladder rung that adds the workload's own decorator may differ from
/// the fleet's `core.proxy.<method>_ns` by this factor. The ladder device
/// is hot in the CPU caches and carries every lower rung; a fleet device
/// is cold (3,000 devices between two of its calls) and carries only its
/// workload's decorator. A cached `getLocation` reads 7-8x slower cold
/// than hot, so the check catches only a gross mismatch, such as the two
/// timing different calls or a batch timed as one call.
const LADDER_TOLERANCE: f64 = 20.0;
/// Longest untraced reference run, seconds.
const UNTRACED_SECONDS: f64 = 5.0;
/// Calls per batch-timed layer function.
const ROUTE_CALLS: u64 = 100_000;
const REPORT_CALLS: u64 = 5_000;
const LADDER_CALLS: u64 = 100_000;
/// Fleets built and driven one after another for
/// `apps.fleet.repeat_build_ratio`, and builds in each median it compares.
const REPEAT_FLEETS: usize = 10;
const REPEAT_MEDIAN: usize = 3;
/// Host of the traced run's own durable server.
const DURABLE_HOST: &str = "perfbench.durable";
/// Alternating native/proxy batches per Figure 10 pair, and calls per batch.
const RATIO_BATCHES: usize = 5;
const RATIO_BATCH_CALLS: u64 = 20_000;

/// The decorator rungs, bottom up; each rung adds one to the one below.
const RUNGS: [&str; 6] = [
    "binding",
    "resilience",
    "overload",
    "cache",
    "telemetry",
    "journal",
];

/// What a traced run found.
pub struct TracedRun {
    /// Every correctness and consistency check held.
    pub correct: bool,
    /// Calls attempted in the driven workload and the batch timings.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// Counters read from every runtime, WebView and server of a fleet.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    crossings: u64,
    spans_evicted: u64,
    journal_appends: u64,
    journal_fsyncs: u64,
    checkpoints: u64,
}

impl Counters {
    fn read(fleet: &Rebuilt) -> Self {
        let mut counters = Self::default();
        for device in 0..fleet.registry.len() {
            let runtime = fleet
                .registry
                .runtime(device)
                .expect("every device is registered");
            if let Some(cache) = runtime.cache_metrics() {
                let snapshot = cache.snapshot();
                counters.cache_hits += snapshot.hit;
                counters.cache_misses += snapshot.miss;
            }
            if let Some(tracer) = runtime.tracer() {
                counters.spans_evicted += tracer.evicted_spans();
            }
            if let Some(journal) = runtime.journal_metrics() {
                let snapshot = journal.snapshot();
                counters.journal_appends += snapshot.appends;
                counters.journal_fsyncs += snapshot.fsyncs;
            }
        }
        counters.crossings = fleet.webviews.iter().map(|w| w.bridge_crossings()).sum();
        counters.checkpoints = fleet
            .servers
            .iter()
            .filter_map(|s| s.recovery_snapshot())
            .map(|r| r.checkpoints)
            .sum();
        counters
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            crossings: self.crossings - earlier.crossings,
            spans_evicted: self.spans_evicted - earlier.spans_evicted,
            journal_appends: self.journal_appends - earlier.journal_appends,
            journal_fsyncs: self.journal_fsyncs - earlier.journal_fsyncs,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

/// The measured run's `ops_per_s` for the same workload and seed, from the
/// `perfbench` binary next to this one.
fn untraced_ops_per_s(workload: Workload, seed: u64, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe.with_file_name("perfbench"))
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("running perfbench: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "perfbench exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let result = ResultLine::parse(&String::from_utf8_lossy(&output.stdout))?;
    result
        .value("ops_per_s")
        .ok_or_else(|| "perfbench printed no ops_per_s".to_owned())
}

fn within(what: &str, got: f64, reference: f64, low: f64, high: f64) -> bool {
    let ratio = got / reference;
    let ok = (low..=high).contains(&ratio);
    eprintln!(
        "consistency: {what}: {got:.1} against {reference:.1} (ratio {ratio:.2}, allowed {low:.2}..{high:.2}){}",
        if ok { "" } else { " FAILED" }
    );
    ok
}

/// Times `calls` calls of `call` inside one span named `name` and
/// returns ns per call and the number that failed.
fn batch<E>(
    log: &mut SpanLog,
    name: String,
    calls: u64,
    mut call: impl FnMut() -> Result<(), E>,
) -> (f64, u64) {
    let mut failed = 0;
    log.begin(name);
    for _ in 0..calls {
        if black_box(call()).is_err() {
            failed += 1;
        }
    }
    let ns = log.end();
    (ns as f64 / calls as f64, failed)
}

/// One hot device of `platform` with the decorators of rungs
/// `0..=rung`, built through `MobivineBuilder`.
fn ladder_runtime(platform: &str, rung: usize) -> Mobivine {
    let device = Device::builder().msisdn("+91-98-AGENT-0").build();
    device.smsc().register_address(FLEET_SUPERVISOR);
    let android = || AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context();
    let mut builder: MobivineBuilder = match platform {
        "android" => Mobivine::builder().android(android()),
        "s60" => Mobivine::builder().s60(S60Platform::new(device.clone())),
        _ => Mobivine::builder().webview(Arc::new(WebView::new(android()))),
    };
    for name in &RUNGS[1..=rung] {
        builder = match *name {
            "resilience" => builder.with_resilience(ResiliencePolicy::default()),
            "overload" => builder.with_overload(OverloadPolicy::default()),
            "cache" => builder.with_cache(CachePolicy::default()),
            "telemetry" => builder.with_telemetry(),
            _ => builder.with_journal(JournalPolicy::default()),
        };
    }
    builder.build().expect("a ladder runtime builds")
}

/// The decorator ladder: ns per call on each rung, per platform, for
/// `getLocation` (up to +telemetry) and `sendTextMessage` (up to
/// +journal).
fn ladder(log: &mut SpanLog, metrics: &mut Vec<Metric>, tally: &mut Tally) {
    for platform in ["android", "s60", "webview"] {
        for (method, top) in [("getLocation", 4), ("sendTextMessage", 5)] {
            for (rung, rung_name) in RUNGS.iter().enumerate().take(top + 1) {
                let runtime = ladder_runtime(platform, rung);
                let name = format!("core.ladder.{platform}.{method}.{rung_name}");
                let (ns, failed) = if method == "getLocation" {
                    let proxy = runtime
                        .proxy::<dyn LocationProxy>()
                        .expect("the ladder device has a location proxy");
                    for _ in 0..1_000 {
                        let _ = proxy.get_location();
                    }
                    batch(log, name.clone(), LADDER_CALLS, || {
                        proxy.get_location().map(drop)
                    })
                } else {
                    let proxy = runtime
                        .proxy::<dyn SmsProxy>()
                        .expect("the ladder device has an SMS proxy");
                    let send = || {
                        proxy
                            .send_text_message(FLEET_SUPERVISOR, "ladder", None)
                            .map(drop)
                    };
                    for _ in 0..1_000 {
                        let _ = send();
                    }
                    batch(log, name.clone(), LADDER_CALLS, send)
                };
                tally.attempted += LADDER_CALLS;
                tally.failed += failed;
                metrics.push(Metric::new(format!("{name}_ns"), ns, "ns"));
            }
        }
    }
}

/// Figure 10 as a ratio: proxy ns over native ns per platform and method,
/// from alternating batches of the bench harness's fixture calls.
fn overhead_ratios(log: &mut SpanLog, metrics: &mut Vec<Metric>) {
    let android = AndroidFixture::new(LatencyModel::zero());
    let s60 = S60Fixture::new(LatencyModel::zero());
    let webview = WebViewFixture::new(LatencyModel::zero());
    type Pair<'a> = (&'a str, &'a str, &'a dyn Fn(), &'a dyn Fn());
    let pairs: [Pair; 9] = [
        (
            "android",
            "getLocation",
            &|| android.native_get_location(),
            &|| android.proxy_get_location(),
        ),
        (
            "android",
            "sendTextMessage",
            &|| android.native_send_sms(),
            &|| android.proxy_send_sms(),
        ),
        (
            "android",
            "addProximityAlert",
            &|| android.native_add_proximity_alert(),
            &|| android.proxy_add_proximity_alert(),
        ),
        ("s60", "getLocation", &|| s60.native_get_location(), &|| {
            s60.proxy_get_location()
        }),
        ("s60", "sendTextMessage", &|| s60.native_send_sms(), &|| {
            s60.proxy_send_sms()
        }),
        (
            "s60",
            "addProximityAlert",
            &|| s60.native_add_proximity_alert(),
            &|| s60.proxy_add_proximity_alert(),
        ),
        (
            "webview",
            "getLocation",
            &|| webview.native_get_location(),
            &|| webview.proxy_get_location(),
        ),
        (
            "webview",
            "sendTextMessage",
            &|| webview.native_send_sms(),
            &|| webview.proxy_send_sms(),
        ),
        (
            "webview",
            "addProximityAlert",
            &|| webview.native_add_proximity_alert(),
            &|| webview.proxy_add_proximity_alert(),
        ),
    ];
    for (platform, method, native, proxy) in pairs {
        let (mut native_ns, mut proxy_ns) = (Vec::new(), Vec::new());
        for _ in 0..RATIO_BATCHES {
            for (side, call, samples) in [
                ("native", native, &mut native_ns),
                ("proxy", proxy, &mut proxy_ns),
            ] {
                let name = format!("core.proxy.{platform}.{method}.{side}");
                let (ns, _) = batch(log, name, RATIO_BATCH_CALLS, || {
                    call();
                    Ok::<(), ()>(())
                });
                samples.push(ns);
            }
        }
        let ratio = median(&mut proxy_ns).expect("batches ran")
            / median(&mut native_ns).expect("batches ran");
        metrics.push(Metric::new(
            format!("core.proxy.{platform}.{method}.overhead_ratio"),
            ratio,
            "ratio",
        ));
    }
}

/// POSTs `body` to `url` over `device`'s network; `Err` unless 2xx.
fn post(device: &Device, url: &str, body: &[u8]) -> Result<(), ()> {
    let request = HttpRequest::post(url, body.to_vec()).map_err(drop)?;
    match device.network().execute(&request) {
        Ok((response, _)) if (200..300).contains(&response.status) => Ok(()),
        _ => Err(()),
    }
}

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

/// Runs the traced run of `workload` and writes its spans to `trace_out`.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64, trace_out: &Path) -> TracedRun {
    let config = workload.fleet_config(seed, DEVICES);
    let mut metrics = Vec::new();
    let mut correct = true;
    let mut log = SpanLog::new();

    let reference = untraced_ops_per_s(workload, seed, seconds.min(UNTRACED_SECONDS));
    if let Err(e) = &reference {
        eprintln!("traced: no untraced reference: {e}");
        correct = false;
    }

    // Set-up layers: the fleet assembled step by step, right after a
    // `Fleet::build` of the same fleet to hold its total against. The
    // built fleet is the one `Fleet::run` times below.
    let started = Instant::now();
    let engine = Fleet::build(config.clone()).expect("the workload's fleet config is valid");
    let build_s = started.elapsed().as_secs_f64();
    let before = AllocCount::now();
    let fleet = rebuild(&config, &mut log).expect("the workload's fleet config is valid");
    let setup_alloc = AllocCount::now().since(before);
    let times = log.layer_times();
    let mut rebuild_ns = 0;
    for (metric, span) in [
        ("device.build_us", "device.build"),
        ("platform.new_us", "platform.new"),
        ("core.registry.push_us", "core.registry.push"),
        ("core.registry.warm_us", "core.registry.warm"),
        ("apps.server.install_us", "apps.server.install"),
    ] {
        let total_ns = times.get(span).map_or(0, |t| t.total_ns);
        rebuild_ns += total_ns;
        metrics.push(Metric::new(
            metric,
            total_ns as f64 / 1e3 / DEVICES as f64,
            "us",
        ));
    }
    metrics.push(Metric::new(
        "alloc.setup_bytes_per_device",
        per_op(setup_alloc.bytes, DEVICES as u64),
        "B/device",
    ));
    correct &= within(
        "step-by-step set-up total (s) vs Fleet::build (s)",
        rebuild_ns as f64 / 1e9,
        build_s,
        1.0 - SETUP_TOLERANCE,
        1.0 + SETUP_TOLERANCE,
    );

    // Run layers: the workload driven through the rebuilt fleet.
    let counters_before = Counters::read(&fleet);
    let before = AllocCount::now();
    let mut tally = Tally::default();
    let started = Instant::now();
    Target::new(&fleet.registry).drive(workload, seed, &mut log, &mut tally);
    let traced_ops_per_s = tally.attempted as f64 / started.elapsed().as_secs_f64();
    let drive_alloc = AllocCount::now().since(before);
    let counters = Counters::read(&fleet).since(counters_before);
    correct &= check_fleet(&fleet.servers, &tally);
    let ops = tally.attempted;
    let times = log.layer_times();
    let mean_ns = |span: &str| times.get(span).map_or(0.0, |t| t.mean_ns());
    for span in [
        "core.shard.resolve",
        "core.proxy.getLocation",
        "core.proxy.sendTextMessage",
        "core.proxy.request",
    ] {
        metrics.push(Metric::new(format!("{span}_ns"), mean_ns(span), "ns"));
    }
    let (method, rung) = match workload {
        Workload::ReadsCached => ("getLocation", "cache"),
        Workload::WritesTraced => ("sendTextMessage", "telemetry"),
    };
    let fleet_method_ns = mean_ns(&format!("core.proxy.{method}"));
    metrics.extend([
        Metric::new(
            "alloc.allocs_per_op",
            per_op(drive_alloc.allocations, ops),
            "count/op",
        ),
        Metric::new("alloc.bytes_per_op", per_op(drive_alloc.bytes, ops), "B/op"),
        Metric::new(
            "core.cache.hit_ratio",
            per_op(
                counters.cache_hits,
                counters.cache_hits + counters.cache_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "platform-webview.crossings_per_op",
            per_op(counters.crossings, ops),
            "count/op",
        ),
        Metric::new(
            "telemetry.spans_evicted_per_op",
            per_op(counters.spans_evicted, ops),
            "count/op",
        ),
        Metric::new(
            "core.journal.appends_per_op",
            per_op(counters.journal_appends, ops),
            "count/op",
        ),
        Metric::new(
            "core.journal.fsyncs_per_op",
            per_op(counters.journal_fsyncs, ops),
            "count/op",
        ),
        Metric::new(
            "apps.server.checkpoints_per_op",
            per_op(counters.checkpoints, ops),
            "count/op",
        ),
    ]);
    if let Ok(untraced_ops_per_s) = reference {
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            untraced_ops_per_s / traced_ops_per_s,
            "ratio",
        ));
    }

    // SimNetwork routing alone, to a route that does nothing.
    let device = &fleet.devices[0];
    device
        .network()
        .register_route("perfbench.noop", Method::Get, "/noop", |_| {
            HttpResponse::status_only(204)
        });
    let noop = HttpRequest::get("http://perfbench.noop/noop").expect("a valid URL");
    let (ns, failed) = batch(&mut log, "device.net.route".into(), ROUTE_CALLS, || {
        device.network().execute(&noop).map(drop)
    });
    metrics.push(Metric::new("device.net.route_ns", ns, "ns"));
    tally.attempted += ROUTE_CALLS;
    tally.failed += failed;

    // The workload's report, straight to device 0's shard server.
    let url = format!(
        "http://{}/report-location",
        shard_host(fleet.registry.shard_of(0))
    );
    let body = serde_json::to_vec(&TrackPoint {
        agent_id: 0,
        latitude: 28.5,
        longitude: 77.3,
        at_ms: 0,
    })
    .expect("a track point always serializes");
    let (ns, failed) = batch(&mut log, "apps.server.report".into(), REPORT_CALLS, || {
        post(device, &url, &body)
    });
    metrics.push(Metric::new("apps.server.report_ns", ns, "ns"));
    tally.attempted += REPORT_CALLS;
    tally.failed += failed;
    let tracks: u64 = fleet.servers.iter().map(|s| s.counts().tracks).sum();
    correct &= expect_eq(
        "server tracks",
        tracks,
        tally.http_ok + REPORT_CALLS - failed,
    );
    correct &= expect_eq("supervisor inbox", delivered_sms(&fleet), tally.sms_sent);

    // The server's durable path (journal, fsync, apply, checkpoint after
    // every apply) on a durable server of its own, the configuration of
    // the fleet's crash storm, which no listed workload enables. Every
    // report carries a key of its own, so each one applies.
    let fresh_key = |n: u64| IdempotencyKey::derive(seed, u64::MAX, n, 0);
    let durable = WfmServer::durable(DurabilityConfig {
        checkpoint_every: 1,
        policy: JournalPolicy::default(),
        crash: None,
    });
    durable.install(device.network(), DURABLE_HOST);
    let durable_url = format!("http://{DURABLE_HOST}/report-location");
    let mut report = 0;
    let (ns, failed) = batch(
        &mut log,
        "apps.server.durable_report".into(),
        REPORT_CALLS,
        || {
            report += 1;
            post(
                device,
                &url_with_idempotency_key(&durable_url, fresh_key(report)),
                &body,
            )
        },
    );
    metrics.push(Metric::new("apps.server.durable_report_ns", ns, "ns"));
    tally.attempted += REPORT_CALLS;
    tally.failed += failed;
    let ledger = durable
        .recovery_snapshot()
        .expect("a durable server keeps a recovery ledger");
    correct &= expect_eq("durable duplicates", ledger.duplicates(), 0);
    correct &= expect_eq(
        "durable checkpoints",
        ledger.checkpoints,
        REPORT_CALLS - failed,
    );
    drop(fleet);

    // The fleet engine's own loop at one worker.
    let started = Instant::now();
    let report = log.timed("apps.fleet.run", || engine.run());
    let run_s = started.elapsed().as_secs_f64();
    if report.errors != 0 || report.total_ops != workload.ops_per_fleet(DEVICES) {
        eprintln!(
            "correctness: Fleet::run made {} ops with {} errors",
            report.total_ops, report.errors
        );
        correct = false;
    }
    metrics.push(Metric::new(
        "apps.fleet.run_ops_per_s",
        report.total_ops as f64 / run_s,
        "1/s",
    ));

    // Fleets built and driven one after another in one process get
    // slower to build (the measured run builds each in a fresh process,
    // so none of its figures shows this): the last builds against the
    // first.
    let mut build_s = Vec::with_capacity(REPEAT_FLEETS);
    for _ in 0..REPEAT_FLEETS {
        let started = Instant::now();
        let built = log.timed("apps.fleet.build", || Fleet::build(config.clone()));
        build_s.push(started.elapsed().as_secs_f64());
        let built = built.expect("the workload's fleet config is valid");
        let mut driven = Tally::default();
        Target::new(built.registry()).drive(workload, seed, &mut Untimed, &mut driven);
        correct &= check_fleet(built.servers(), &driven);
        tally.attempted += driven.attempted;
        tally.failed += driven.failed;
    }
    eprintln!("back-to-back Fleet::build (s): {build_s:.3?}");
    let mut first = build_s[..REPEAT_MEDIAN].to_vec();
    let mut last = build_s[REPEAT_FLEETS - REPEAT_MEDIAN..].to_vec();
    metrics.push(Metric::new(
        "apps.fleet.repeat_build_ratio",
        median(&mut last).expect("builds ran") / median(&mut first).expect("builds ran"),
        "ratio",
    ));

    ladder(&mut log, &mut metrics, &mut tally);
    let ladder_ns = metrics
        .iter()
        .filter(|m| {
            m.name.starts_with("core.ladder.") && m.name.ends_with(&format!(".{method}.{rung}_ns"))
        })
        .map(|m| m.value)
        .sum::<f64>()
        / 3.0;
    correct &= within(
        &format!("ladder {method} +{rung} (ns, mean of platforms) vs fleet core.proxy.{method}_ns"),
        ladder_ns,
        fleet_method_ns,
        1.0 / LADDER_TOLERANCE,
        LADDER_TOLERANCE,
    );
    overhead_ratios(&mut log, &mut metrics);

    eprintln!(
        "{:<48} {:>10} {:>12} {:>12} {:>12}",
        "layer", "spans", "total ms", "self ms", "self ns/span"
    );
    for (name, time) in log.layer_times() {
        eprintln!(
            "{name:<48} {:>10} {:>12.3} {:>12.3} {:>12.1}",
            time.count,
            time.total_ns as f64 / 1e6,
            time.self_ns as f64 / 1e6,
            time.self_ns as f64 / time.count as f64
        );
    }
    if let Err(e) = log.write_chrome_trace(trace_out) {
        eprintln!("traced: writing {}: {e}", trace_out.display());
        correct = false;
    }
    TracedRun {
        correct: correct && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}
