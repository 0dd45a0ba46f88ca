//! The closed-loop driver: one thread that acts like an app thread,
//! blocking on each proxy call in turn.

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::error::ProxyError;
use mobivine::shard::ShardedRegistry;
use mobivine_apps::fleet::{shard_host, FLEET_SUPERVISOR};
use mobivine_apps::server::TrackPoint;

use crate::workload::{plan_round, Op, Workload, OPS_PER_ROUND, TICK_MS};

/// Hooks the driver calls around each op and around each call into a
/// layer. The measured run times whole ops; the traced run records spans.
pub trait Probe {
    /// Runs one app-facing call (resolve + proxy method); `call` returns
    /// whether it succeeded.
    fn op(&mut self, call: impl FnOnce(&mut Self) -> bool) -> bool;

    /// Runs one call into the public function `name` of a layer.
    fn layer<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T;
}

/// Outcome counts of driven calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error or a non-2xx status.
    pub failed: u64,
    /// Successful `getLocation` calls.
    pub location_fixes: u64,
    /// Successful `sendTextMessage` calls.
    pub sms_sent: u64,
    /// `POST /report-location` calls answered 2xx.
    pub http_ok: u64,
}

/// What the driver calls into: a fleet's registry plus the per-shard
/// report URL and per-device SMS text, formatted once up front.
pub struct Target<'a> {
    registry: &'a ShardedRegistry,
    urls: Vec<String>,
    texts: Vec<String>,
}

impl<'a> Target<'a> {
    /// Targets a fleet's `registry`.
    pub fn new(registry: &'a ShardedRegistry) -> Self {
        Self {
            registry,
            urls: (0..registry.shard_count())
                .map(|shard| format!("http://{}/report-location", shard_host(shard)))
                .collect(),
            texts: (0..registry.len())
                .map(|device| format!("agent {device} checking in"))
                .collect(),
        }
    }

    /// The report URL of `device`'s shard.
    fn report_url(&self, device: usize) -> &str {
        &self.urls[self.registry.shard_of(device)]
    }

    /// Drives every device through `workload.rounds()` rounds of its
    /// planned ops, device by device within a round, like one worker of
    /// the fleet engine.
    pub fn drive<P: Probe>(&self, workload: Workload, seed: u64, probe: &mut P, tally: &mut Tally) {
        let mut batch = Vec::with_capacity(OPS_PER_ROUND as usize);
        for round in 1..=workload.rounds() {
            for device in 0..self.registry.len() {
                plan_round(
                    seed,
                    device,
                    round,
                    OPS_PER_ROUND,
                    workload.read_heavy(),
                    &mut batch,
                );
                for &op in &batch {
                    self.call(device, round, op, probe, tally);
                }
            }
        }
    }

    /// Makes one app-facing call and tallies its outcome.
    fn call<P: Probe>(&self, device: usize, round: u64, op: Op, probe: &mut P, tally: &mut Tally) {
        let body = match op {
            Op::Report {
                latitude,
                longitude,
            } => serde_json::to_vec(&TrackPoint {
                agent_id: device as u64,
                latitude,
                longitude,
                at_ms: round * TICK_MS,
            })
            .expect("a track point always serializes"),
            _ => Vec::new(),
        };
        tally.attempted += 1;
        let ok = probe.op(|probe| self.dispatch(device, op, &body, probe).is_ok_and(|ok| ok));
        if !ok {
            tally.failed += 1;
            return;
        }
        match op {
            Op::Location => tally.location_fixes += 1,
            Op::Sms => tally.sms_sent += 1,
            Op::Report { .. } => tally.http_ok += 1,
        }
    }

    /// Resolves the op's proxy and calls it; `Ok(false)` is a report the
    /// server did not answer 2xx.
    fn dispatch<P: Probe>(
        &self,
        device: usize,
        op: Op,
        body: &[u8],
        probe: &mut P,
    ) -> Result<bool, ProxyError> {
        let registry = self.registry;
        match op {
            Op::Location => {
                let proxy = probe.layer("core.shard.resolve", || {
                    registry.resolve::<dyn LocationProxy>(device)
                })?;
                probe.layer("core.proxy.getLocation", || proxy.get_location())?;
                Ok(true)
            }
            Op::Sms => {
                let proxy = probe.layer("core.shard.resolve", || {
                    registry.resolve::<dyn SmsProxy>(device)
                })?;
                let text = &self.texts[device];
                probe.layer("core.proxy.sendTextMessage", || {
                    proxy.send_text_message(FLEET_SUPERVISOR, text, None)
                })?;
                Ok(true)
            }
            Op::Report { .. } => {
                let proxy = probe.layer("core.shard.resolve", || {
                    registry.resolve::<dyn HttpProxy>(device)
                })?;
                let url = self.report_url(device);
                let response =
                    probe.layer("core.proxy.request", || proxy.request("POST", url, body))?;
                Ok((200..300).contains(&response.status))
            }
        }
    }
}

/// A probe that only makes the calls.
pub struct Untimed;

impl Probe for Untimed {
    fn op(&mut self, call: impl FnOnce(&mut Self) -> bool) -> bool {
        call(self)
    }

    fn layer<T>(&mut self, _name: &'static str, call: impl FnOnce() -> T) -> T {
        call()
    }
}

#[cfg(test)]
mod tests {
    use mobivine_apps::fleet::Fleet;

    use super::*;
    use crate::rebuild::rebuild;

    #[test]
    fn the_driver_makes_the_calls_the_fleet_engine_makes() {
        for workload in Workload::ALL {
            let config = workload.fleet_config(11, 30);
            let report = Fleet::build(config.clone())
                .expect("the fleet builds")
                .run();
            let fleet = rebuild(&config, &mut Untimed).expect("the fleet rebuilds");
            let mut tally = Tally::default();
            Target::new(&fleet.registry).drive(workload, 11, &mut Untimed, &mut tally);
            assert_eq!(report.errors, 0, "{workload:?}");
            assert_eq!(tally.failed, 0, "{workload:?}");
            assert_eq!(tally.attempted, report.total_ops, "{workload:?}");
            assert_eq!(tally.location_fixes, report.location_fixes, "{workload:?}");
            assert_eq!(tally.sms_sent, report.sms_sent, "{workload:?}");
            assert_eq!(tally.http_ok, report.http_ok, "{workload:?}");
        }
    }
}
