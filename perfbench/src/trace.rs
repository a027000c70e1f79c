//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls into
//! the program's public functions; nothing inside the program is touched.
//! With tracing off every method is a no-op that reads no clock. After the
//! run the spans are written as JSON (through the vendored `serde_json`)
//! together with each span name's self time, i.e. its duration minus the part
//! covered by its child spans.

use serde::Value;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

/// Spans kept in the written trace file; self times cover every span.
const WRITTEN_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
}

/// Handle of an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::end"]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone)]
pub struct LayerTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it is a child of the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`Self::begin`]; returns its duration in ns
    /// (0 with tracing off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if !self.on {
            return 0;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child[span.parent] += span.end_ns - span.start_ns;
            }
        }
        child
    }

    /// Count, total and self time per span name, in first-seen order.
    pub fn totals(&self) -> Vec<LayerTotal> {
        let child = self.child_ns();
        let mut totals: Vec<LayerTotal> = Vec::new();
        for (span, child_ns) in self.spans.iter().zip(child) {
            let total = span.end_ns - span.start_ns;
            let entry = match totals.iter_mut().position(|t| t.name == span.name) {
                Some(i) => &mut totals[i],
                None => {
                    totals.push(LayerTotal {
                        name: span.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(child_ns);
        }
        totals
    }

    /// Share of the timed phases' wall time (spans named `phase.*`) that no
    /// child span covers: time spent in the benchmark's own code between
    /// calls into the program.
    pub fn unattributed_share(&self) -> f64 {
        let child = self.child_ns();
        let (mut wall, mut uncovered) = (0u64, 0u64);
        for (span, child_ns) in self.spans.iter().zip(child) {
            if span.name.starts_with("phase.") {
                let total = span.end_ns - span.start_ns;
                wall += total;
                uncovered += total.saturating_sub(child_ns);
            }
        }
        if wall == 0 {
            0.0
        } else {
            uncovered as f64 / wall as f64
        }
    }

    /// The trace document: run identity, end-to-end figures of this traced
    /// run, per-name totals, per-phase coverage and the spans themselves.
    pub fn to_json(&self, header: Vec<(String, Value)>) -> Value {
        let child = self.child_ns();
        let layers = self
            .totals()
            .into_iter()
            .map(|t| {
                Value::Map(vec![
                    ("name".into(), Value::Str(t.name.into())),
                    ("count".into(), Value::U64(t.count)),
                    ("total_ns".into(), Value::U64(t.total_ns)),
                    ("self_ns".into(), Value::U64(t.self_ns)),
                ])
            })
            .collect();
        let phases = self
            .spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name.starts_with("phase."))
            .map(|(s, &child_ns)| {
                let wall = s.end_ns - s.start_ns;
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("wall_ns".into(), Value::U64(wall)),
                    ("attributed_ns".into(), Value::U64(child_ns.min(wall))),
                    (
                        "unattributed_ns".into(),
                        Value::U64(wall.saturating_sub(child_ns)),
                    ),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .take(WRITTEN_SPANS)
            .map(|s| {
                Value::Seq(vec![
                    Value::Str(s.name.into()),
                    Value::U64(s.start_ns),
                    Value::U64(s.end_ns),
                    if s.parent == NO_PARENT {
                        Value::I64(-1)
                    } else {
                        Value::U64(s.parent as u64)
                    },
                ])
            })
            .collect();
        let mut doc = header;
        doc.extend([
            (
                "unattributed_share".into(),
                Value::F64(self.unattributed_share()),
            ),
            ("layers".into(), Value::Seq(layers)),
            ("phases".into(), Value::Seq(phases)),
            (
                "span_fields".into(),
                Value::Str("[name, start_ns, end_ns, parent]".into()),
            ),
            ("spans_recorded".into(), Value::U64(self.spans.len() as u64)),
            ("spans".into(), Value::Seq(spans)),
        ]);
        Value::Map(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_phases_report_the_rest() {
        let mut t = Tracer::new(true);
        let phase = t.begin("phase.test");
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(phase);
        let totals = t.totals();
        let get = |n: &str| totals.iter().find(|x| x.name == n).unwrap().clone();
        let (phase, outer, inner) = (get("phase.test"), get("outer"), get("inner"));
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // The phase's own sleep is the part no child covers.
        assert!(phase.self_ns >= 2_000_000);
        assert_eq!(phase.self_ns, phase.total_ns - outer.total_ns);
        let share = phase.self_ns as f64 / phase.total_ns as f64;
        assert_eq!(t.unattributed_share(), share);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        assert_eq!(t.end(id), 0);
        assert!(t.totals().is_empty());
    }
}
