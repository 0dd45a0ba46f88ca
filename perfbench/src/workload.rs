//! The workloads: their fleet configuration, their fixed work per fleet,
//! and the op stream the fleet planner draws for them.

use mobivine_apps::fleet::FleetConfig;

/// Devices per fleet, in the usual Android/S60/WebView interleave
/// (`i % 3`).
pub const DEVICES: usize = 3_000;

/// Registry shards, one `WfmServer` each.
pub const SHARDS: usize = 4;

/// Ops each device plans per round.
pub const OPS_PER_ROUND: u32 = 4;

/// Virtual length of one round (the fleet engine's tick). The driver never
/// advances device clocks, so in its loop only the `TrackPoint`
/// timestamps read it.
pub const TICK_MS: u64 = 1_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy mix through the read-through cache.
    ReadsCached,
    /// Write-leaning mix through the telemetry decorators.
    WritesTraced,
}

impl Workload {
    /// Every workload, as `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::ReadsCached, Workload::WritesTraced];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadsCached => "reads_cached",
            Workload::WritesTraced => "writes_traced",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds driven per freshly built fleet. The work per fleet is fixed
    /// because tracks, SMSC state and span rings grow as a fleet runs: a
    /// fixed duration would measure a different mix of early and late
    /// calls on a faster or slower machine.
    pub fn rounds(self) -> u64 {
        match self {
            Workload::ReadsCached => 12,
            Workload::WritesTraced => 8,
        }
    }

    /// Calls driven per freshly built fleet of `devices` devices.
    pub fn ops_per_fleet(self, devices: usize) -> u64 {
        devices as u64 * self.rounds() * u64::from(OPS_PER_ROUND)
    }

    /// Whether the planner draws the read-heavy mix.
    pub fn read_heavy(self) -> bool {
        self == Workload::ReadsCached
    }

    /// The `Fleet::build` configuration of this workload. One worker:
    /// the benchmark drives the fleet from a single closed-loop thread.
    pub fn fleet_config(self, seed: u64, devices: usize) -> FleetConfig {
        FleetConfig {
            devices,
            shards: SHARDS,
            workers: 1,
            rounds: self.rounds(),
            tick_ms: TICK_MS,
            ops_per_round: OPS_PER_ROUND,
            seed,
            read_heavy: self.read_heavy(),
            cache: self == Workload::ReadsCached,
            telemetry: self == Workload::WritesTraced,
            ..FleetConfig::default()
        }
    }
}

/// One planned proxy call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `getLocation`.
    Location,
    /// `sendTextMessage` to the fleet supervisor.
    Sms,
    /// `POST /report-location` to the device's shard server.
    Report { latitude: f64, longitude: f64 },
}

/// The fleet engine's splitmix64 step.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Plans `device`'s batch for `round` into `out`, drawing from the same
/// per-(seed, device, round) splitmix64 stream, one draw per op, as the
/// fleet engine's planner: read-heavy is ¾ location, ⅛ SMS, ⅛ report;
/// write-leaning is ½ report, ¼ SMS, ¼ location.
pub fn plan_round(
    seed: u64,
    device: usize,
    round: u64,
    ops_per_round: u32,
    read_heavy: bool,
    out: &mut Vec<Op>,
) {
    out.clear();
    let mut rng = seed.wrapping_add((device as u64) << 20).wrapping_add(round);
    for _ in 0..ops_per_round {
        let draw = splitmix64(&mut rng);
        let report = Op::Report {
            latitude: 28.5 + (draw % 1_000) as f64 * 1e-6,
            longitude: 77.3 + (draw % 977) as f64 * 1e-6,
        };
        out.push(if read_heavy {
            match draw % 8 {
                6 => Op::Sms,
                7 => report,
                _ => Op::Location,
            }
        } else {
            match draw % 4 {
                0 | 1 => report,
                2 => Op::Sms,
                _ => Op::Location,
            }
        });
    }
}
