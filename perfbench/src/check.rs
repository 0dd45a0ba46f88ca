//! Correctness checks: every call succeeds, and the servers and SMSCs
//! hold exactly what the client says it sent.

use mobivine_apps::fleet::FLEET_SUPERVISOR;
use mobivine_apps::server::WfmServer;

use crate::drive::{Tally, Target, Untimed};
use crate::rebuild::{rebuild, Rebuilt};
use crate::workload::Workload;

/// Devices in the fleet the SMSC check assembles.
const SMSC_CHECK_DEVICES: usize = 60;

/// Virtual time past every pending SMS delivery.
const DELIVERY_HORIZON_MS: u64 = 3_600_000;

/// Whether `got == want`; reports a mismatch on stderr.
pub(crate) fn expect_eq(what: &str, got: u64, want: u64) -> bool {
    if got != want {
        eprintln!("correctness: {what} is {got}, expected {want}");
    }
    got == want
}

/// Checks a driven fleet against the client's tally: no call failed and
/// the servers stored one track per 2xx report.
pub fn check_fleet(servers: &[WfmServer], tally: &Tally) -> bool {
    let ok = expect_eq("failed calls", tally.failed, 0);
    let tracks: u64 = servers.iter().map(|s| s.counts().tracks).sum();
    ok & expect_eq("server tracks", tracks, tally.http_ok)
}

/// Sums the supervisor inbox over `rebuilt`'s devices after delivering
/// every pending message.
pub fn delivered_sms(rebuilt: &Rebuilt) -> u64 {
    rebuilt
        .devices
        .iter()
        .map(|device| {
            device.advance_ms(DELIVERY_HORIZON_MS);
            device.smsc().inbox(FLEET_SUPERVISOR).len() as u64
        })
        .sum()
}

/// Drives a small fleet assembled from `Fleet::build`'s public calls and
/// checks that the supervisor's inboxes received every SMS sent, on top
/// of [`check_fleet`].
pub fn check_smsc(workload: Workload, seed: u64) -> bool {
    let config = workload.fleet_config(seed, SMSC_CHECK_DEVICES);
    let rebuilt = match rebuild(&config, &mut Untimed) {
        Ok(rebuilt) => rebuilt,
        Err(e) => {
            eprintln!("correctness: the SMSC check fleet did not build: {e}");
            return false;
        }
    };
    let mut tally = Tally::default();
    Target::new(&rebuilt.registry).drive(workload, seed, &mut Untimed, &mut tally);
    let ok = check_fleet(&rebuilt.servers, &tally);
    ok & expect_eq("supervisor inbox", delivered_sms(&rebuilt), tally.sms_sent)
}
