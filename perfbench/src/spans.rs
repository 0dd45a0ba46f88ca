//! The traced run's spans: recorded by the benchmark around each call
//! into a layer's public function, kept in memory, and written out at the
//! end as Chrome trace-event JSON.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::drive::Probe;

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    /// The layer function, as `core.proxy.getLocation`.
    name: Cow<'static, str>,
    /// The op this span belongs to; every root span starts a new op.
    op: u64,
    /// The index of the enclosing span.
    parent: Option<usize>,
    /// Start, ns since the log began.
    start_ns: u64,
    /// End, ns since the log began.
    end_ns: u64,
}

/// Time spent in one layer function, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean span duration, ns.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// An in-memory span log.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>) {
        let parent = self.open.last().copied();
        let op = match parent {
            Some(parent) => self.spans[parent].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration, ns.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `call` inside a span named `name`.
    pub fn timed<T>(&mut self, name: impl Into<Cow<'static, str>>, call: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = call();
        self.end();
        out
    }

    /// Per-name totals and self times, by name.
    pub fn layer_times(&self) -> BTreeMap<&str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut times: BTreeMap<&str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let time = times.entry(span.name.as_ref()).or_default();
            time.count += 1;
            time.total_ns += duration;
            time.self_ns += duration.saturating_sub(children);
        }
        times
    }

    /// Writes every span as a Chrome trace-event (`ph: "X"`) to `path`,
    /// with the op id and parent span index in `args`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating, writing or flushing the file.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.write_all(b",\n")?;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{index},\"op\":{},\"parent\":{parent}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or_default(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

impl Probe for SpanLog {
    fn op(&mut self, call: impl FnOnce(&mut Self) -> bool) -> bool {
        self.begin("app.op");
        let ok = call(self);
        self.end();
        ok
    }

    fn layer<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.timed(name, call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name: name.into(),
            op,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut log = SpanLog::new();
        log.spans = vec![
            span("app.op", 1, None, 0, 100),
            span("core.shard.resolve", 1, Some(0), 10, 20),
            span("core.proxy.request", 1, Some(0), 30, 90),
            span("app.op", 2, None, 100, 150),
        ];
        let times = log.layer_times();
        assert_eq!(
            times["app.op"],
            LayerTime {
                count: 2,
                total_ns: 150,
                self_ns: 30 + 50
            }
        );
        assert_eq!(times["core.proxy.request"].self_ns, 60);
    }

    #[test]
    fn root_spans_start_ops_and_children_share_them() {
        let mut log = SpanLog::new();
        log.op(|log| log.layer("core.shard.resolve", || true));
        log.timed("device.build", || ());
        let ops: Vec<(u64, Option<usize>)> = log.spans.iter().map(|s| (s.op, s.parent)).collect();
        assert_eq!(ops, [(1, None), (1, Some(0)), (2, None)]);
    }
}
