//! Command-line arguments and the result line.

use serde_json::Value;

use crate::workload::Workload;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// The unit, as in `ms`, `1/s` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The arguments every run takes:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, plus the
/// internal `--one-fleet 1`.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The seed the inputs derive from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Measure one fleet in this process and print its sample line (the
    /// measured run starts one such child per fleet).
    pub one_fleet: bool,
}

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut one_fleet = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                "--one-fleet" => one_fleet = value == "1",
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            one_fleet,
        })
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// A non-finite value would not be JSON, so it is written as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                Value::Number(metric.value)
            } else {
                Value::Null
            };
            let fields = vec![
                ("value".to_owned(), value),
                ("unit".to_owned(), Value::String(metric.unit.to_owned())),
            ];
            (metric.name.clone(), Value::Object(fields))
        })
        .collect();
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::Number(attempted as f64)),
        ("failed".to_owned(), Value::Number(failed as f64)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
    .to_string()
}

/// A result line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every correctness check held.
    pub correct: bool,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Each metric's name and value, in order; `null` values are left out.
    pub values: Vec<(String, f64)>,
}

impl ResultLine {
    /// Parses the last line of `stdout` as a [`result_line`].
    ///
    /// # Errors
    ///
    /// A message naming what is missing or malformed.
    pub fn parse(stdout: &str) -> Result<Self, String> {
        let line = stdout.lines().last().ok_or("no result line")?;
        let value: Value = serde_json::from_str(line).map_err(|e| format!("{e}: {line:?}"))?;
        let field = |name: &str| {
            value
                .get_field(name)
                .ok_or_else(|| format!("no {name} in {line:?}"))
        };
        let count = |name: &str| match field(name)? {
            Value::Number(n) => Ok(*n as u64),
            other => Err(format!("{name} is {other:?}")),
        };
        let Value::Bool(correct) = field("correct")? else {
            return Err(format!("correct is not a bool in {line:?}"));
        };
        let Value::Object(metrics) = field("metrics")? else {
            return Err(format!("metrics is not an object in {line:?}"));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, metric)| match metric.get_field("value") {
                Some(Value::Number(v)) => Some((name.clone(), *v)),
                _ => None,
            })
            .collect();
        Ok(Self {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            values,
        })
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}
