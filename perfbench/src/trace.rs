//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer's public function,
//! with the span that caused it and the trace (epoch or request) it belongs to.
//! Spans are kept in memory, up to a cap, and written out when the run ends;
//! per-name totals cover every span, kept or not.  The program under test is not
//! instrumented: every span is taken here, around calls the benchmark makes.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    next_id: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Default for Tracer {
    /// A recorder that keeps totals but no spans.
    fn default() -> Self {
        Self::new(0)
    }
}

impl Tracer {
    /// A recorder keeping at most `cap` spans for the dump.
    pub fn new(cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            next_id: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Reserves a span id, so children can name a parent recorded after them.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records `[start, now)` under a fresh id; returns its duration in ns.
    pub fn span(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record(id, name, trace, parent, start, Instant::now())
    }

    /// Records `[start, end)` under a reserved id; returns its duration in ns.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur = end_ns.saturating_sub(start_ns);
        let total = self.totals.entry(name).or_insert((0, 0));
        total.0 += 1;
        total.1 += dur;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                parent,
                trace,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Number of spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Total duration of the spans recorded under `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3)
    }

    /// Mean duration of the spans recorded under `name`, in µs (0 without any).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.total_us(name) / self.count(name).max(1) as f64
    }

    /// Spans recorded but not kept for the dump.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The kept spans, one JSON object per line.
    pub fn to_json_lines(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.trace,
                    s.name,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect()
    }
}
