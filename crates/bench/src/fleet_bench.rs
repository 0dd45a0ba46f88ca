//! Fleet-scale throughput and scaling benchmark.
//!
//! Three measurements, one artifact:
//!
//! 1. **Scaling sweep** — runs the [`mobivine_apps::fleet`] load engine
//!    at a fixed device count across several shard counts, reporting
//!    per-configuration throughput and virtual-latency percentiles.
//!    Everything in these rows except the wall-clock column derives
//!    from virtual time and seeded streams, so the JSON summary
//!    (`mobivine.fleet.v4`) is byte-identical across runs.
//! 2. **Resolution comparison** — acquisition throughput of the
//!    unsharded per-call-construction baseline (a fresh runtime and a
//!    freshly constructed proxy stack per acquisition, the shape of the
//!    pre-redesign accessors) against the sharded + memoized resolver
//!    ([`mobivine::shard::ShardedRegistry::resolve`]). Wall-clock
//!    ops/sec appears only in the human-readable table; the JSON
//!    carries the deterministic fields.
//! 3. **Cache comparison** — the same read-heavy traffic with the
//!    read-through proxy cache on and off: byte-identical checksums,
//!    ≥5x fewer binding-plane read invocations ([`cache_gate_holds`]).

use std::sync::Arc;
use std::time::Instant;

use mobivine::api::LocationProxy;
use mobivine::registry::Mobivine;
use mobivine::shard::ShardedRegistry;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_apps::fleet::{
    BrownoutConfig, CrashStormConfig, DurabilityFleetConfig, Fleet, FleetConfig,
};
use mobivine_device::Device;

/// One scaling-sweep configuration's results.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalingRow {
    /// Shard count of this configuration.
    pub shards: usize,
    /// Simulated devices driven.
    pub devices: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Lockstep rounds run.
    pub rounds: u64,
    /// Proxy operations per device per round.
    pub ops_per_round: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// Whether the device runtimes carried plane-aware telemetry.
    pub telemetry: bool,
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Throughput in ops per virtual second (deterministic).
    pub virtual_ops_per_sec: u64,
    /// Median per-op virtual latency, ms.
    pub p50_ms: u64,
    /// 95th-percentile per-op virtual latency, ms.
    pub p95_ms: u64,
    /// 99th-percentile per-op virtual latency, ms.
    pub p99_ms: u64,
    /// Determinism fingerprint of the run.
    pub checksum: u64,
    /// Wall-clock duration of the run, ms (table only — never in the
    /// JSON, which must be reproducible).
    pub wall_ms: f64,
}

/// One arm of the brownout comparison: the same traffic ramp run with
/// the overload layer on (`admission = true`) or off. Both arms run
/// with the flight recorder and SLO engine on, so each row also carries
/// the incident-debugging evidence (how many deadlines blew, how many
/// of those breaches the recorder promoted a trace for). Every field
/// but `wall_ms` derives from virtual time and seeded streams.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutRow {
    /// Whether the target shard's devices carried the overload layer.
    pub admission: bool,
    /// The ramped shard.
    pub target_shard: usize,
    /// Traffic multiplier applied to the target shard.
    pub ops_multiplier: u32,
    /// Per-batch deadline budget, virtual ms.
    pub deadline_budget_ms: u64,
    /// The accepted-call sojourn p99 bound the gate pins.
    pub p99_target_ms: u64,
    /// Total proxy operations issued fleet-wide.
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Calls rejected by the admission gate or bulkhead.
    pub shed: u64,
    /// Calls served degraded (cached fix / synthetic HTTP accept).
    pub degraded: u64,
    /// Calls failed fast on an exhausted deadline budget.
    pub deadline_exceeded: u64,
    /// Accepted-call sojourn p99 of the ramped shard, virtual ms.
    pub shard_p99_ms: u64,
    /// Calls whose per-batch deadline had expired by the time they
    /// finished (telemetry-independent; derived from flush sojourns).
    pub deadline_blown: u64,
    /// Traces the flight recorder promoted (kept + dropped).
    pub promoted_traces: u64,
    /// Kept promoted traces whose reason is a blown deadline.
    pub promoted_deadline: u64,
    /// Fingerprint of the incident digest (promoted trace ids, reasons
    /// and exemplars); separate from `checksum` by design.
    pub incident_checksum: u64,
    /// Determinism fingerprint of the run.
    pub checksum: u64,
    /// Wall-clock duration, ms (table only).
    pub wall_ms: f64,
}

impl BrownoutRow {
    /// Whether this arm behaved as the overload design promises: with
    /// admission on, excess load was shed and the accepted-call p99 of
    /// the ramped shard stayed within target; with admission off,
    /// nothing was shed, the p99 blew past it, **and** every
    /// deadline-blown call has a promoted trace explaining the breach
    /// (the flight recorder's accountability half of the gate).
    pub fn holds_the_gate(&self) -> bool {
        if self.admission {
            self.shed > 0 && self.shard_p99_ms <= self.p99_target_ms
        } else {
            self.shed == 0
                && self.shard_p99_ms > self.p99_target_ms
                && self.deadline_blown > 0
                && self.promoted_deadline == self.deadline_blown
        }
    }
}

/// One arm of the cache comparison: the same read-heavy traffic run
/// with the read-through proxy cache ([`mobivine::cache`]) on or off.
/// `binding_reads` is what the gate compares — the number of location
/// reads that reached the binding plane: *all* of them in the uncached
/// arm, only the cache misses in the cached arm. Every field but
/// `wall_ms` derives from virtual time and seeded streams.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRow {
    /// Whether the devices carried the read-through cache.
    pub cached: bool,
    /// Simulated devices driven.
    pub devices: usize,
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Location fixes obtained (identical across arms by design).
    pub location_fixes: u64,
    /// Location reads that invoked the binding plane.
    pub binding_reads: u64,
    /// Reads served from cache (zero in the uncached arm).
    pub hits: u64,
    /// Reads that waited on another caller's in-flight fill.
    pub coalesced: u64,
    /// Cached entries discarded by invalidation.
    pub invalidated: u64,
    /// Determinism fingerprint of the run — must equal the other arm's.
    pub checksum: u64,
    /// Wall-clock duration, ms (table only).
    pub wall_ms: f64,
}

/// Whether a cached/uncached arm pair behaves as the cache design
/// promises: byte-identical checksums (caching is invisible to what the
/// fleet computes), a warm cache that actually hits, and at least a 5x
/// cut in binding-plane read invocations.
pub fn cache_gate_holds(rows: &[CacheRow]) -> bool {
    let Some(on) = rows.iter().find(|r| r.cached) else {
        return false;
    };
    let Some(off) = rows.iter().find(|r| !r.cached) else {
        return false;
    };
    on.checksum == off.checksum
        && on.hits > 0
        && on.binding_reads > 0
        && off.binding_reads >= on.binding_reads * 5
}

/// Runs the cache comparison: the same read-heavy traffic (¾ location
/// reads), once with every device runtime carrying the read-through
/// cache and once without. Returns the cached arm first.
///
/// # Panics
///
/// Panics if the fleet cannot be built — a zero in the configuration or
/// a proxy-construction failure, both programming errors here.
pub fn run_fleet_cache(
    devices: usize,
    shards: usize,
    workers: usize,
    rounds: u64,
    ops_per_round: u32,
    seed: u64,
) -> Vec<CacheRow> {
    [true, false]
        .into_iter()
        .map(|cached| {
            let config = FleetConfig {
                devices,
                shards,
                workers,
                rounds,
                tick_ms: 1_000,
                ops_per_round,
                seed,
                read_heavy: true,
                cache: cached,
                telemetry: false,
                span_retention: 16,
                incident_capacity: 256,
                slo: false,
                brownout: None,
                bridge_batch: None,
                durability: None,
                crash_plan: None,
            };
            let fleet = Fleet::build(config).expect("cache configuration is valid");
            let started = Instant::now();
            let report = fleet.run();
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let digest = report.cache.clone().unwrap_or_default();
            CacheRow {
                cached,
                devices,
                total_ops: report.total_ops,
                errors: report.errors,
                location_fixes: report.location_fixes,
                binding_reads: if cached {
                    digest.misses
                } else {
                    report.location_fixes
                },
                hits: digest.hits,
                coalesced: digest.coalesced,
                invalidated: digest.invalidated,
                checksum: report.checksum,
                wall_ms,
            }
        })
        .collect()
}

/// One arm of the bridge comparison: the same read-heavy traffic with
/// every `LocationFix` widened into a multi-read (fix + power draw),
/// run with WebView bridge batching on or off. `crossings` is what the
/// gate compares — the number of times the fleet's WebView devices
/// crossed the JavaScript bridge: one per multi-read batched, two
/// unbatched. Every field but `wall_ms` derives from virtual time and
/// seeded streams.
#[derive(Debug, Clone, PartialEq)]
pub struct BridgeRow {
    /// Whether the WebView devices batched their multi-reads.
    pub batched: bool,
    /// Simulated devices driven (every third one WebView).
    pub devices: usize,
    /// WebView devices contributing crossings.
    pub webview_devices: u64,
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Location fixes obtained (identical across arms by design).
    pub location_fixes: u64,
    /// JavaScript-bridge crossings over the run, warm-up included.
    pub crossings: u64,
    /// Determinism fingerprint of the run — must equal the other arm's.
    pub checksum: u64,
    /// Wall-clock duration, ms (table only).
    pub wall_ms: f64,
}

/// Whether a batched/unbatched arm pair behaves as the wire layer
/// promises: byte-identical checksums (batching is invisible to what
/// the fleet computes) and strictly fewer bridge crossings on the
/// batched arm.
pub fn bridge_gate_holds(rows: &[BridgeRow]) -> bool {
    let Some(on) = rows.iter().find(|r| r.batched) else {
        return false;
    };
    let Some(off) = rows.iter().find(|r| !r.batched) else {
        return false;
    };
    on.checksum == off.checksum && on.crossings > 0 && on.crossings < off.crossings
}

/// Runs the bridge comparison: the same read-heavy multi-read traffic
/// (every location fix also reads the GPS power draw), once with the
/// WebView devices batching the two reads into one bridge crossing and
/// once making two wire calls. Returns the batched arm first.
///
/// # Panics
///
/// Panics if the fleet cannot be built — a zero in the configuration or
/// a proxy-construction failure, both programming errors here.
pub fn run_fleet_bridge(
    devices: usize,
    shards: usize,
    workers: usize,
    rounds: u64,
    ops_per_round: u32,
    seed: u64,
) -> Vec<BridgeRow> {
    [true, false]
        .into_iter()
        .map(|batched| {
            let config = FleetConfig {
                devices,
                shards,
                workers,
                rounds,
                tick_ms: 1_000,
                ops_per_round,
                seed,
                read_heavy: true,
                cache: false,
                telemetry: false,
                span_retention: 16,
                incident_capacity: 256,
                slo: false,
                brownout: None,
                bridge_batch: Some(batched),
                durability: None,
                crash_plan: None,
            };
            let fleet = Fleet::build(config).expect("bridge configuration is valid");
            let started = Instant::now();
            let report = fleet.run();
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let digest = report.bridge.clone().unwrap_or_default();
            BridgeRow {
                batched,
                devices,
                webview_devices: digest.webview_devices,
                total_ops: report.total_ops,
                errors: report.errors,
                location_fixes: report.location_fixes,
                crossings: digest.crossings,
                checksum: report.checksum,
                wall_ms,
            }
        })
        .collect()
}

/// One arm of the crash-storm comparison: the same durable traffic run
/// with the deterministic crash schedule armed (`stormed = true`) or
/// not. Both arms journal every mutating call, so the gate can pin the
/// storm's recovery work *and* prove it changed nothing the fleet
/// computes. Every field but `wall_ms` derives from virtual time and
/// seeded streams.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRow {
    /// Whether the crash schedule was armed on every shard.
    pub stormed: bool,
    /// Simulated devices driven.
    pub devices: usize,
    /// Shards (each takes `crashes_per_shard` crashes when stormed).
    pub shards: usize,
    /// Crashes injected per shard (zero in the crash-free arm).
    pub crashes_per_shard: usize,
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// Operations that returned an error after retries.
    pub errors: u64,
    /// Middleware recoveries performed (wipe + checkpoint + replay).
    pub recoveries: u64,
    /// Crashes that tore a journal record mid-write.
    pub torn_crashes: u64,
    /// Crashes landing between a durable intent and its effect.
    pub gap_crashes: u64,
    /// Crashes landing after the effect was applied.
    pub effect_crashes: u64,
    /// Journal records replayed across all recoveries.
    pub replayed_records: u64,
    /// Torn tails truncated during recovery.
    pub torn_truncated: u64,
    /// Retries absorbed by idempotency-key dedup.
    pub suppressed_duplicates: u64,
    /// Effects applied more than once (the exactly-once gate: zero).
    pub duplicates: u64,
    /// Median recovery latency, virtual µs.
    pub recovery_p50_us: u64,
    /// 99th-percentile recovery latency, virtual µs.
    pub recovery_p99_us: u64,
    /// Determinism fingerprint of the run — must equal the other arm's.
    pub checksum: u64,
    /// Wall-clock duration, ms (table only).
    pub wall_ms: f64,
}

/// Whether a stormed/crash-free arm pair behaves as the durability
/// design promises: byte-identical checksums (a storm of recovered
/// crashes is invisible to what the fleet computes), zero duplicate
/// effects, and a storm that actually exercised both hard crash points
/// — at least one torn write and one intent/effect gap per shard.
pub fn crash_gate_holds(rows: &[CrashRow]) -> bool {
    let Some(on) = rows.iter().find(|r| r.stormed) else {
        return false;
    };
    let Some(off) = rows.iter().find(|r| !r.stormed) else {
        return false;
    };
    on.checksum == off.checksum
        && on.errors == 0
        && on.duplicates == 0
        && off.duplicates == 0
        && on.recoveries == (on.shards * on.crashes_per_shard) as u64
        && on.torn_crashes >= on.shards as u64
        && on.gap_crashes >= on.shards as u64
        && off.recoveries == 0
}

/// Runs the crash-storm comparison: the same durable traffic (client
/// journals, per-apply server checkpoints, idempotency keys on the
/// wire), once with [`CrashStormConfig`] killing every shard's
/// middleware at deterministic points and once crash-free. Returns the
/// stormed arm first.
///
/// # Panics
///
/// Panics if the fleet cannot be built — a zero in the configuration,
/// too few mutating calls per shard for the requested storm, or a
/// proxy-construction failure, all programming errors here.
pub fn run_fleet_crash(
    devices: usize,
    shards: usize,
    workers: usize,
    rounds: u64,
    ops_per_round: u32,
    seed: u64,
    crashes_per_shard: usize,
) -> Vec<CrashRow> {
    [true, false]
        .into_iter()
        .map(|stormed| {
            let config = FleetConfig {
                devices,
                shards,
                workers,
                rounds,
                tick_ms: 1_000,
                ops_per_round,
                seed,
                read_heavy: false,
                cache: false,
                telemetry: false,
                span_retention: 16,
                incident_capacity: 256,
                slo: false,
                brownout: None,
                bridge_batch: None,
                durability: Some(DurabilityFleetConfig::default()),
                crash_plan: stormed.then_some(CrashStormConfig { crashes_per_shard }),
            };
            let fleet = Fleet::build(config).expect("crash configuration is valid");
            let started = Instant::now();
            let report = fleet.run();
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let digest = report
                .recovery
                .as_ref()
                .expect("durability is on, so the digest is present");
            CrashRow {
                stormed,
                devices,
                shards,
                crashes_per_shard: if stormed { crashes_per_shard } else { 0 },
                total_ops: report.total_ops,
                errors: report.errors,
                recoveries: digest.recoveries,
                torn_crashes: digest.torn_crashes,
                gap_crashes: digest.gap_crashes,
                effect_crashes: digest.effect_crashes,
                replayed_records: digest.replayed_records,
                torn_truncated: digest.torn_truncated,
                suppressed_duplicates: digest.suppressed_duplicates,
                duplicates: digest.duplicates,
                recovery_p50_us: digest.recovery_p50_us,
                recovery_p99_us: digest.recovery_p99_us,
                checksum: report.checksum,
                wall_ms,
            }
        })
        .collect()
}

/// One row of the resolution-throughput comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionRow {
    /// `per-call-construction` or `sharded-memoized`.
    pub mode: &'static str,
    /// Proxy acquisitions timed.
    pub acquisitions: u64,
    /// Distinct device runtimes cycled through.
    pub devices: usize,
    /// Wall-clock acquisitions per second (table only).
    pub wall_ops_per_sec: f64,
}

/// Runs the fleet at `devices` for each entry of `shard_counts`.
///
/// # Panics
///
/// Panics if the fleet cannot be built — a zero in the configuration or
/// a proxy-construction failure, both programming errors here.
pub fn run_fleet_scaling(
    devices: usize,
    shard_counts: &[usize],
    workers: usize,
    rounds: u64,
    ops_per_round: u32,
    seed: u64,
) -> Vec<FleetScalingRow> {
    run_fleet_scaling_with_telemetry(
        devices,
        shard_counts,
        workers,
        rounds,
        ops_per_round,
        seed,
        false,
    )
}

/// [`run_fleet_scaling`] with the telemetry decorators toggled: when
/// `telemetry` is true every device runtime carries the traced proxy
/// stack (span retention 16 per worker sink, the fleet default).
///
/// # Panics
///
/// Panics if the fleet cannot be built — a zero in the configuration or
/// a proxy-construction failure, both programming errors here.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_scaling_with_telemetry(
    devices: usize,
    shard_counts: &[usize],
    workers: usize,
    rounds: u64,
    ops_per_round: u32,
    seed: u64,
    telemetry: bool,
) -> Vec<FleetScalingRow> {
    shard_counts
        .iter()
        .map(|&shards| {
            let config = FleetConfig {
                devices,
                shards,
                workers,
                rounds,
                tick_ms: 1_000,
                ops_per_round,
                seed,
                read_heavy: false,
                cache: false,
                telemetry,
                span_retention: 16,
                incident_capacity: 256,
                slo: false,
                brownout: None,
                bridge_batch: None,
                durability: None,
                crash_plan: None,
            };
            let fleet = Fleet::build(config).expect("fleet configuration is valid");
            let started = Instant::now();
            let report = fleet.run();
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            FleetScalingRow {
                shards,
                devices,
                workers,
                rounds,
                ops_per_round,
                seed,
                telemetry,
                total_ops: report.total_ops,
                errors: report.errors,
                virtual_ops_per_sec: report.virtual_ops_per_sec(),
                p50_ms: report.p50_ms,
                p95_ms: report.p95_ms,
                p99_ms: report.p99_ms,
                checksum: report.checksum,
                wall_ms,
            }
        })
        .collect()
}

/// Runs the brownout comparison: the same traffic ramp against one
/// shard, once with the overload layer protecting the ramped devices
/// and once without. Both arms trace their devices (flight recorder +
/// SLO engine on) so the rows carry the incident evidence the gate
/// audits. Returns the protected arm first.
///
/// # Panics
///
/// Panics if the fleet cannot be built — a zero in the configuration or
/// a proxy-construction failure, both programming errors here.
pub fn run_fleet_brownout(
    devices: usize,
    shards: usize,
    workers: usize,
    rounds: u64,
    ops_per_round: u32,
    seed: u64,
) -> Vec<BrownoutRow> {
    [true, false]
        .into_iter()
        .map(|admission| {
            let brownout = BrownoutConfig {
                target_shard: 1 % shards,
                admission,
                ..BrownoutConfig::default()
            };
            let config = FleetConfig {
                devices,
                shards,
                workers,
                rounds,
                tick_ms: 1_000,
                ops_per_round,
                seed,
                read_heavy: false,
                cache: false,
                telemetry: true,
                span_retention: 16,
                incident_capacity: 256,
                slo: true,
                brownout: Some(brownout.clone()),
                bridge_batch: None,
                durability: None,
                crash_plan: None,
            };
            let fleet = Fleet::build(config).expect("brownout configuration is valid");
            let started = Instant::now();
            let report = fleet.run();
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let shard_p99_ms = report.per_shard[brownout.target_shard].p99_ms;
            let incidents = report
                .incidents
                .as_ref()
                .expect("telemetry is on, so the digest is present");
            BrownoutRow {
                admission,
                target_shard: brownout.target_shard,
                ops_multiplier: brownout.ops_multiplier,
                deadline_budget_ms: brownout.deadline_budget_ms,
                p99_target_ms: brownout.p99_target_ms,
                total_ops: report.total_ops,
                errors: report.errors,
                shed: report.shed,
                degraded: report.degraded,
                deadline_exceeded: report.deadline_exceeded,
                shard_p99_ms,
                deadline_blown: report.deadline_blown,
                promoted_traces: incidents.promoted_traces,
                promoted_deadline: incidents.promoted_deadline,
                incident_checksum: incidents.incident_checksum,
                checksum: report.checksum,
                wall_ms,
            }
        })
        .collect()
}

/// Times `acquisitions` proxy acquisitions in both modes: the unsharded
/// per-call-construction baseline first, then the sharded + memoized
/// resolver, cycling over `devices` distinct runtimes.
pub fn run_resolution_comparison(devices: usize, acquisitions: u64) -> Vec<ResolutionRow> {
    let devices = devices.max(1);

    // Baseline: every acquisition pays what the pre-redesign accessors
    // paid on a cold registry — runtime assembly plus full proxy-stack
    // construction.
    let contexts: Vec<_> = (0..devices)
        .map(|i| {
            AndroidPlatform::new(Device::builder().seed(i as u64).build(), SdkVersion::M5Rc15)
                .new_context()
        })
        .collect();
    let started = Instant::now();
    for i in 0..acquisitions {
        let runtime = Mobivine::for_android(contexts[(i as usize) % devices].clone());
        let proxy = runtime
            .proxy::<dyn LocationProxy>()
            .expect("android supports Location");
        std::hint::black_box(&proxy);
    }
    let baseline_secs = started.elapsed().as_secs_f64();

    // Sharded + memoized: warm once, then lock-free cache hits.
    let mut registry = ShardedRegistry::new(devices.clamp(1, 8)).expect("shard count is non-zero");
    for ctx in &contexts {
        let ctx = ctx.clone();
        registry
            .push_with(move |b| b.android(ctx))
            .expect("runtime builds");
    }
    let registry = Arc::new(registry);
    registry.warm().expect("warm-up succeeds");
    let started = Instant::now();
    for i in 0..acquisitions {
        let proxy = registry
            .resolve::<dyn LocationProxy>((i as usize) % devices)
            .expect("warmed registry resolves");
        std::hint::black_box(&proxy);
    }
    let memoized_secs = started.elapsed().as_secs_f64();

    let rate = |secs: f64| {
        if secs > 0.0 {
            acquisitions as f64 / secs
        } else {
            f64::INFINITY
        }
    };
    vec![
        ResolutionRow {
            mode: "per-call-construction",
            acquisitions,
            devices,
            wall_ops_per_sec: rate(baseline_secs),
        },
        ResolutionRow {
            mode: "sharded-memoized",
            acquisitions,
            devices,
            wall_ops_per_sec: rate(memoized_secs),
        },
    ]
}

/// The memoized-over-baseline speedup factor, when both rows are
/// present.
pub fn resolution_speedup(rows: &[ResolutionRow]) -> Option<f64> {
    let baseline = rows.iter().find(|r| r.mode == "per-call-construction")?;
    let memoized = rows.iter().find(|r| r.mode == "sharded-memoized")?;
    if baseline.wall_ops_per_sec > 0.0 {
        Some(memoized.wall_ops_per_sec / baseline.wall_ops_per_sec)
    } else {
        None
    }
}

/// Renders the scaling sweep as an aligned text table.
pub fn render_fleet_table(rows: &[FleetScalingRow]) -> String {
    let mut out = String::new();
    out.push_str("Fleet scaling (virtual ops/sec; latencies in virtual ms)\n");
    out.push_str(
        "shards | devices | workers | tel |   ops   | errors | vops/sec | p50 | p95 | p99 |  wall ms\n",
    );
    out.push_str(
        "-------+---------+---------+-----+---------+--------+----------+-----+-----+-----+---------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:>6} | {:>7} | {:>7} | {:>3} | {:>7} | {:>6} | {:>8} | {:>3} | {:>3} | {:>3} | {:>8.1}\n",
            row.shards,
            row.devices,
            row.workers,
            if row.telemetry { "on" } else { "off" },
            row.total_ops,
            row.errors,
            row.virtual_ops_per_sec,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            row.wall_ms,
        ));
    }
    out
}

/// Renders the brownout comparison, including the verdict line per arm.
pub fn render_brownout_table(rows: &[BrownoutRow]) -> String {
    let mut out = String::new();
    out.push_str("Brownout: one shard ramped, overload layer on vs off (virtual ms)\n");
    out.push_str(
        "admission |   ops   | errors |  shed | degraded | dl-exceeded | dl-blown | promoted | shard p99 | target | verdict\n",
    );
    out.push_str(
        "----------+---------+--------+-------+----------+-------------+----------+----------+-----------+--------+--------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:>9} | {:>7} | {:>6} | {:>5} | {:>8} | {:>11} | {:>8} | {:>8} | {:>9} | {:>6} | {}\n",
            if row.admission { "on" } else { "off" },
            row.total_ops,
            row.errors,
            row.shed,
            row.degraded,
            row.deadline_exceeded,
            row.deadline_blown,
            row.promoted_traces,
            row.shard_p99_ms,
            row.p99_target_ms,
            if row.holds_the_gate() {
                "holds"
            } else {
                "FAILS"
            },
        ));
    }
    out
}

/// Renders the cache comparison, including the verdict line the
/// acceptance gate reads.
pub fn render_cache_table(rows: &[CacheRow]) -> String {
    let mut out = String::new();
    out.push_str("Read-through cache: read-heavy fleet, cache on vs off\n");
    out.push_str(
        "cache |   ops   | fixes | binding reads |  hits | coalesced | invalidated |     checksum     |  wall ms\n",
    );
    out.push_str(
        "------+---------+-------+---------------+-------+-----------+-------------+------------------+---------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:>5} | {:>7} | {:>5} | {:>13} | {:>5} | {:>9} | {:>11} | {:016x} | {:>8.1}\n",
            if row.cached { "on" } else { "off" },
            row.total_ops,
            row.location_fixes,
            row.binding_reads,
            row.hits,
            row.coalesced,
            row.invalidated,
            row.checksum,
            row.wall_ms,
        ));
    }
    if let (Some(on), Some(off)) = (
        rows.iter().find(|r| r.cached),
        rows.iter().find(|r| !r.cached),
    ) {
        if on.binding_reads > 0 {
            out.push_str(&format!(
                "binding-plane read reduction: {:.1}x\n",
                off.binding_reads as f64 / on.binding_reads as f64
            ));
        }
    }
    out
}

/// Renders the bridge comparison, including the crossing-reduction
/// line the acceptance gate reads.
pub fn render_bridge_table(rows: &[BridgeRow]) -> String {
    let mut out = String::new();
    out.push_str("WebView bridge batching: read-heavy multi-read fleet, batching on vs off\n");
    out.push_str("batch |   ops   | fixes | webviews | crossings |     checksum     |  wall ms\n");
    out.push_str("------+---------+-------+----------+-----------+------------------+---------\n");
    for row in rows {
        out.push_str(&format!(
            "{:>5} | {:>7} | {:>5} | {:>8} | {:>9} | {:016x} | {:>8.1}\n",
            if row.batched { "on" } else { "off" },
            row.total_ops,
            row.location_fixes,
            row.webview_devices,
            row.crossings,
            row.checksum,
            row.wall_ms,
        ));
    }
    if let (Some(on), Some(off)) = (
        rows.iter().find(|r| r.batched),
        rows.iter().find(|r| !r.batched),
    ) {
        if on.crossings > 0 {
            out.push_str(&format!(
                "bridge-crossing reduction: {:.2}x\n",
                off.crossings as f64 / on.crossings as f64
            ));
        }
    }
    out
}

/// Renders the crash-storm comparison, including the verdict line the
/// acceptance gate reads.
pub fn render_crash_table(rows: &[CrashRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Crash storm: durable fleet, deterministic crashes on vs off (recovery in virtual µs)\n",
    );
    out.push_str(
        "storm |   ops   | errors | recoveries | torn | gap | post | replayed | dedup | dups | rec p50 | rec p99 |     checksum     |  wall ms\n",
    );
    out.push_str(
        "------+---------+--------+------------+------+-----+------+----------+-------+------+---------+---------+------------------+---------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:>5} | {:>7} | {:>6} | {:>10} | {:>4} | {:>3} | {:>4} | {:>8} | {:>5} | {:>4} | {:>7} | {:>7} | {:016x} | {:>8.1}\n",
            if row.stormed { "on" } else { "off" },
            row.total_ops,
            row.errors,
            row.recoveries,
            row.torn_crashes,
            row.gap_crashes,
            row.effect_crashes,
            row.replayed_records,
            row.suppressed_duplicates,
            row.duplicates,
            row.recovery_p50_us,
            row.recovery_p99_us,
            row.checksum,
            row.wall_ms,
        ));
    }
    out.push_str(&format!(
        "exactly-once gate: {}\n",
        if crash_gate_holds(rows) {
            "holds"
        } else {
            "FAILS"
        }
    ));
    out
}

/// Renders the resolution comparison, including the speedup line the
/// acceptance gate reads.
pub fn render_resolution_table(rows: &[ResolutionRow]) -> String {
    let mut out = String::new();
    out.push_str("Proxy acquisition throughput (wall clock)\n");
    out.push_str("mode                  | acquisitions | devices |   ops/sec\n");
    out.push_str("----------------------+--------------+---------+----------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<21} | {:>12} | {:>7} | {:>9.0}\n",
            row.mode, row.acquisitions, row.devices, row.wall_ops_per_sec,
        ));
    }
    if let Some(speedup) = resolution_speedup(rows) {
        out.push_str(&format!(
            "sharded+memoized speedup over per-call construction: {speedup:.1}x\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rows_are_deterministic_across_runs() {
        let first = run_fleet_scaling(60, &[1, 4], 3, 2, 2, 5);
        let second = run_fleet_scaling(60, &[1, 4], 3, 2, 2, 5);
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.total_ops, b.total_ops);
            assert_eq!(a.virtual_ops_per_sec, b.virtual_ops_per_sec);
            assert_eq!(
                (a.p50_ms, a.p95_ms, a.p99_ms),
                (b.p50_ms, b.p95_ms, b.p99_ms)
            );
        }
        assert_eq!(first[0].total_ops, 60 * 2 * 2);
    }

    #[test]
    fn brownout_rows_pin_the_overload_gate() {
        let rows = run_fleet_brownout(30, 4, 3, 3, 2, 11);
        assert_eq!(rows.len(), 2);
        let (on, off) = (&rows[0], &rows[1]);
        assert!(on.admission && !off.admission);
        assert!(on.holds_the_gate(), "protected arm: {on:?}");
        assert!(off.holds_the_gate(), "unprotected arm: {off:?}");
        assert!(on.shed > 0 && on.degraded > 0 && on.deadline_exceeded > 0);

        // The accountability half: the unprotected arm blew deadlines
        // and the recorder promoted a trace for every one of them.
        assert!(off.deadline_blown > 0, "unprotected arm: {off:?}");
        assert_eq!(off.promoted_deadline, off.deadline_blown);
        assert!(off.promoted_traces >= off.promoted_deadline);
        assert!(off.incident_checksum != 0, "digest fingerprint missing");

        // Deterministic: a re-run reproduces both arms exactly.
        let again = run_fleet_brownout(30, 4, 3, 3, 2, 11);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.incident_checksum, b.incident_checksum);
            assert_eq!(
                (a.shed, a.degraded, a.deadline_exceeded, a.shard_p99_ms),
                (b.shed, b.degraded, b.deadline_exceeded, b.shard_p99_ms)
            );
            assert_eq!(
                (a.deadline_blown, a.promoted_traces, a.promoted_deadline),
                (b.deadline_blown, b.promoted_traces, b.promoted_deadline)
            );
        }

        let table = render_brownout_table(&rows);
        assert!(table.contains("holds"), "{table}");
        assert!(!table.contains("FAILS"), "{table}");
    }

    #[test]
    fn cache_rows_hold_the_gate_and_are_deterministic() {
        let rows = run_fleet_cache(30, 4, 3, 4, 6, 11);
        assert_eq!(rows.len(), 2);
        let (on, off) = (&rows[0], &rows[1]);
        assert!(on.cached && !off.cached);
        assert_eq!(
            on.checksum, off.checksum,
            "caching changed what the fleet computes: {on:?} vs {off:?}"
        );
        assert_eq!(on.location_fixes, off.location_fixes);
        assert_eq!(off.hits, 0, "no cache, no hits");
        assert!(on.hits > 0, "cached arm must hit: {on:?}");
        assert!(
            cache_gate_holds(&rows),
            "≥5x binding-read cut required: {rows:?}"
        );

        let again = run_fleet_cache(30, 4, 3, 4, 6, 11);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(
                (a.binding_reads, a.hits, a.coalesced, a.invalidated),
                (b.binding_reads, b.hits, b.coalesced, b.invalidated)
            );
        }

        let table = render_cache_table(&rows);
        assert!(table.contains("reduction"), "{table}");
    }

    #[test]
    fn bridge_rows_hold_the_gate_and_are_deterministic() {
        let rows = run_fleet_bridge(30, 4, 3, 4, 6, 11);
        assert_eq!(rows.len(), 2);
        let (on, off) = (&rows[0], &rows[1]);
        assert!(on.batched && !off.batched);
        assert_eq!(
            on.checksum, off.checksum,
            "batching changed what the fleet computes: {on:?} vs {off:?}"
        );
        assert_eq!(on.location_fixes, off.location_fixes);
        assert!(
            bridge_gate_holds(&rows),
            "batched arm must cut crossings: {rows:?}"
        );

        let again = run_fleet_bridge(30, 4, 3, 4, 6, 11);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.crossings, b.crossings);
        }

        let table = render_bridge_table(&rows);
        assert!(table.contains("reduction"), "{table}");
    }

    #[test]
    fn bridge_gate_rejects_a_missing_or_drifted_arm() {
        let rows = run_fleet_bridge(30, 4, 3, 4, 6, 11);
        assert!(
            !bridge_gate_holds(&rows[..1]),
            "one arm is not a comparison"
        );
        let mut drifted = rows.clone();
        drifted[0].checksum ^= 1;
        assert!(
            !bridge_gate_holds(&drifted),
            "a checksum drift must fail the gate"
        );
        let mut inflated = rows;
        inflated[0].crossings = inflated[1].crossings;
        assert!(
            !bridge_gate_holds(&inflated),
            "equal crossings must fail the gate"
        );
    }

    #[test]
    fn cache_gate_rejects_a_missing_or_cold_arm() {
        let rows = run_fleet_cache(30, 4, 3, 4, 6, 11);
        assert!(!cache_gate_holds(&rows[..1]), "one arm is not a comparison");
        let mut cold = rows.clone();
        cold[0].hits = 0;
        assert!(!cache_gate_holds(&cold), "a cold cache must fail the gate");
        let mut drifted = rows;
        drifted[0].checksum ^= 1;
        assert!(
            !cache_gate_holds(&drifted),
            "a checksum drift must fail the gate"
        );
    }

    #[test]
    fn crash_rows_hold_the_gate_and_are_deterministic() {
        let rows = run_fleet_crash(30, 4, 3, 3, 2, 11, 3);
        assert_eq!(rows.len(), 2);
        let (on, off) = (&rows[0], &rows[1]);
        assert!(on.stormed && !off.stormed);
        assert_eq!(
            on.checksum, off.checksum,
            "the storm changed what the fleet computes: {on:?} vs {off:?}"
        );
        assert_eq!(on.duplicates, 0, "exactly-once violated: {on:?}");
        assert_eq!(on.recoveries, 12, "3 crashes on each of 4 shards");
        assert!(crash_gate_holds(&rows), "{rows:?}");

        let again = run_fleet_crash(30, 4, 3, 3, 2, 11, 3);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(
                (
                    a.recoveries,
                    a.torn_crashes,
                    a.gap_crashes,
                    a.effect_crashes
                ),
                (
                    b.recoveries,
                    b.torn_crashes,
                    b.gap_crashes,
                    b.effect_crashes
                )
            );
            assert_eq!(
                (a.replayed_records, a.recovery_p50_us, a.recovery_p99_us),
                (b.replayed_records, b.recovery_p50_us, b.recovery_p99_us)
            );
        }

        let table = render_crash_table(&rows);
        assert!(table.contains("holds"), "{table}");
        assert!(!table.contains("FAILS"), "{table}");
    }

    #[test]
    fn crash_gate_rejects_a_missing_or_drifted_arm() {
        let rows = run_fleet_crash(30, 4, 3, 3, 2, 11, 3);
        assert!(!crash_gate_holds(&rows[..1]), "one arm is not a comparison");
        let mut drifted = rows.clone();
        drifted[0].checksum ^= 1;
        assert!(
            !crash_gate_holds(&drifted),
            "a checksum drift must fail the gate"
        );
        let mut duplicated = rows;
        duplicated[0].duplicates = 1;
        assert!(
            !crash_gate_holds(&duplicated),
            "a duplicate effect must fail the gate"
        );
    }

    #[test]
    fn resolution_comparison_clears_the_speedup_bar() {
        let rows = run_resolution_comparison(16, 2_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "per-call-construction");
        assert_eq!(rows[1].mode, "sharded-memoized");
        let speedup = resolution_speedup(&rows).expect("both rows present");
        assert!(
            speedup >= 5.0,
            "memoized resolution must be >= 5x the construction baseline, got {speedup:.1}x"
        );
    }

    #[test]
    fn tables_render_both_rows() {
        let rows = run_resolution_comparison(4, 200);
        let table = render_resolution_table(&rows);
        assert!(table.contains("per-call-construction"));
        assert!(table.contains("sharded-memoized"));
        assert!(table.contains("speedup"));

        let scaling = run_fleet_scaling(30, &[2], 2, 1, 1, 3);
        let table = render_fleet_table(&scaling);
        assert!(table.contains("vops/sec"));
        assert!(table.contains(" 30 "), "{table}");
    }
}
