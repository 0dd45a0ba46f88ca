//! The measured run: end-to-end metrics with the benchmark's tracing off.
//!
//! Each fleet is built and driven in a fresh child process, so every
//! fleet starts from the same process state: fleets built one after
//! another in one process get slower (on `writes_traced`, set-up roughly
//! doubles over twenty builds), which would tie the figures to how many
//! fleets fit in a run.

use std::process::Command;
use std::time::{Duration, Instant};

use mobivine_apps::fleet::Fleet;

use crate::check::{check_fleet, check_smsc};
use crate::drive::{Probe, Tally, Target};
use crate::report::{Metric, ResultLine};
use crate::stats::{interquartile_mean, proc_status_kb, quantile};
use crate::workload::{Workload, DEVICES};

/// Calls per timing window. A fleet's fixed work cuts into 16
/// (`writes_traced`) or 24 (`reads_cached`) windows of 10–60 ms, and
/// window `k` of every fleet makes the same calls, so each window
/// position is a sample of the same work once per fleet. A window's p99
/// has 60 calls beyond it.
const WINDOW_CALLS: usize = 6_000;

/// Name prefixes of a fleet child's per-window metrics; the window's
/// position follows the prefix.
const WINDOW_OPS: &str = "window.ops_per_s.";
const WINDOW_IQM: &str = "window.call_iqm_ns.";
const WINDOW_P99: &str = "window.call_p99_ns.";

/// Fleets measured per run at the least, so every figure is an order
/// statistic over several fleets.
const MIN_FLEETS: usize = 5;

/// The quantile over a run's fleets that every timing figure reports:
/// the fast decile. On a host shared with other tenants the cores slow
/// down in phases of seconds to half a minute, by up to a third; a slowed
/// sample is never faster, so the fast decile keeps reading the program's
/// own speed while up to nine tenths of a run is slowed, where a median
/// moves as soon as half of it is.
const FAST_DECILE: f64 = 0.10;

/// Times every app-facing call and the wall time of each window of calls.
struct Timer {
    calls_in_window: usize,
    window_start: Instant,
    call_ns: Vec<u32>,
    window_ops_per_s: Vec<f64>,
}

impl Probe for Timer {
    fn op(&mut self, call: impl FnOnce(&mut Self) -> bool) -> bool {
        let started = Instant::now();
        let ok = call(self);
        let ended = Instant::now();
        let ns = ended.duration_since(started).as_nanos();
        self.call_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.calls_in_window += 1;
        if self.calls_in_window == WINDOW_CALLS {
            let secs = ended.duration_since(self.window_start).as_secs_f64();
            self.window_ops_per_s.push(WINDOW_CALLS as f64 / secs);
            self.calls_in_window = 0;
            self.window_start = Instant::now();
        }
        ok
    }

    fn layer<T>(&mut self, _name: &'static str, call: impl FnOnce() -> T) -> T {
        call()
    }
}

/// Builds one fleet of `workload` through `Fleet::build`, drives it
/// through its fixed work and checks it. Its metrics are `setup_s`,
/// `rss_kb_per_device` and, for each window of calls, its throughput,
/// interquartile mean and p99. Meant to run once in a fresh process: the
/// RSS reading assumes nothing was built before.
pub fn measure_fleet(workload: Workload, seed: u64) -> Measured {
    let config = workload.fleet_config(seed, DEVICES);
    let ops_per_fleet = workload.ops_per_fleet(DEVICES);
    let mut timer = Timer {
        calls_in_window: 0,
        window_start: Instant::now(),
        call_ns: Vec::with_capacity(ops_per_fleet as usize),
        window_ops_per_s: Vec::new(),
    };
    let rss_before_kb = proc_status_kb("VmRSS").unwrap_or(0);
    let started = Instant::now();
    let fleet = Fleet::build(config.clone()).expect("the workload's fleet config is valid");
    let setup_s = started.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    timer.window_start = Instant::now();
    Target::new(fleet.registry()).drive(workload, seed, &mut timer, &mut tally);
    let rss_kb = proc_status_kb("VmHWM")
        .unwrap_or(0)
        .saturating_sub(rss_before_kb);
    let correct = check_fleet(fleet.servers(), &tally);
    let mut metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("rss_kb_per_device", rss_kb as f64 / DEVICES as f64, "kB"),
    ];
    let windows = timer.call_ns.chunks_exact_mut(WINDOW_CALLS);
    for (k, (calls, &rate)) in windows.zip(&timer.window_ops_per_s).enumerate() {
        let p99 = f64::from(quantile(calls, 0.99).unwrap_or(0));
        metrics.push(Metric::new(
            format!("{WINDOW_IQM}{k}"),
            interquartile_mean(calls),
            "ns",
        ));
        metrics.push(Metric::new(format!("{WINDOW_P99}{k}"), p99, "ns"));
        metrics.push(Metric::new(format!("{WINDOW_OPS}{k}"), rate, "1/s"));
    }
    Measured {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Runs [`measure_fleet`] in a child process of this executable.
fn fleet_child(workload: Workload, seed: u64) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--one-fleet", "1"])
        .output()
        .map_err(|e| format!("running a fleet child: {e}"))?;
    ResultLine::parse(&String::from_utf8_lossy(&output.stdout)).map_err(|e| {
        format!(
            "fleet child exited with {}: {e}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

/// What a measured run found.
pub struct Measured {
    /// Every correctness check held.
    pub correct: bool,
    /// Calls attempted across every fleet.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
}

/// Measures fresh fleets of `workload`, one child process each, until
/// `seconds` have passed and at least [`MIN_FLEETS`] have run. Timing
/// figures take the fast decile ([`FAST_DECILE`]) over fleets: of the
/// build time for `setup_s`, and of each window position for the call
/// figures, which then combine over positions — `ops_per_s` as calls
/// over the summed window times, `call_iqm_ns` and `call_p99_ns` as the
/// mean over positions. `rss_kb_per_device` is the median over fleets.
/// Mismatches are reported on stderr.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Measured {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut correct = true;
    while samples.len() < MIN_FLEETS || started.elapsed() < budget {
        match fleet_child(workload, seed) {
            Ok(sample) => {
                correct &= sample.correct;
                samples.push(sample);
            }
            Err(e) => {
                eprintln!("measure: {e}");
                correct = false;
                break;
            }
        }
    }
    // The SMSC inboxes live on the devices, which a built `Fleet` keeps
    // to itself; they are checked on a small fleet assembled from the same
    // public calls.
    correct &= check_smsc(workload, seed);

    let over_fleets = |name: &str, q: f64| {
        quantile(
            &mut samples
                .iter()
                .filter_map(|s| s.value(name))
                .collect::<Vec<_>>(),
            q,
        )
    };
    let windows = workload.ops_per_fleet(DEVICES) as usize / WINDOW_CALLS;
    let per_window = |prefix: &str, q: f64| -> Option<Vec<f64>> {
        (0..windows)
            .map(|k| over_fleets(&format!("{prefix}{k}"), q))
            .collect()
    };
    let ops_per_s = per_window(WINDOW_OPS, 1.0 - FAST_DECILE)
        .map(|rates| rates.len() as f64 / rates.iter().map(|rate| 1.0 / rate).sum::<f64>());
    let call_ns =
        |prefix| per_window(prefix, FAST_DECILE).map(|v| v.iter().sum::<f64>() / v.len() as f64);
    let metrics = [
        ("setup_s", over_fleets("setup_s", FAST_DECILE), "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("call_iqm_ns", call_ns(WINDOW_IQM), "ns"),
        ("call_p99_ns", call_ns(WINDOW_P99), "ns"),
        (
            "rss_kb_per_device",
            over_fleets("rss_kb_per_device", 0.5),
            "kB",
        ),
    ]
    .into_iter()
    .filter_map(|(name, value, unit)| Some(Metric::new(name, value?, unit)))
    .collect();
    let attempted = samples.iter().map(|s| s.attempted).sum();
    eprintln!(
        "{}: {} fleets of {windows} windows, {attempted} calls",
        workload.name(),
        samples.len(),
    );
    Measured {
        correct,
        attempted,
        failed: samples.iter().map(|s| s.failed).sum(),
        metrics,
    }
}
