//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Each request gets one root span for the client round
//! trip (`client.*`) and one for its in-process re-execution
//! (`replay.*`), under which the layer spans nest. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Self time per span name over one workload round, in ms.
pub type RoundLayers = BTreeMap<&'static str, f64>;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round_start: usize,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            round_start: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record an interval measured elsewhere (the client call) as a span
    /// under the innermost open span, if any.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(now),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = Instant::now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(now);
    }

    /// Duration of a closed span, ms.
    pub fn duration_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// A leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let r = f();
        self.end(id);
        r
    }

    /// Close the current round: self time (duration minus the time its
    /// child spans cover) summed per span name over the spans recorded
    /// since the previous call.
    pub fn close_round(&mut self) -> RoundLayers {
        assert!(self.open.is_empty(), "round closed with open spans");
        let spans = &self.spans[self.round_start..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - self.round_start] += s.end_ns - s.start_ns;
            }
        }
        let mut out = RoundLayers::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        self.round_start = self.spans.len();
        out
    }

    /// Append another tracer's spans (a second connection's), keeping
    /// parent links and request ids intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        self.round_start = self.spans.len();
    }

    /// Write every span as one JSON object per line: id, name, start and
    /// end (ns since the traced phase began), parent id and request id.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Is this span a layer (as opposed to a root or grouping span)?
pub fn is_layer(name: &str) -> bool {
    !(name.starts_with("client.") || name.starts_with("replay.") || name.starts_with("server."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("replay.tune", 1);
        let inner = t.begin("flat.eval", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let layers = t.close_round();
        assert!(layers["flat.eval"] >= 2.0);
        assert!(layers["replay.tune"] < layers["flat.eval"]);
        assert!(t.close_round().is_empty());
    }
}
