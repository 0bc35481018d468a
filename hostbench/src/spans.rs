//! In-memory spans for the traced pass: record around each call into a
//! layer, derive self times, export Chrome trace-event JSON.
//!
//! A span's layer is its name up to the first `.` (`trace.capture` is
//! layer `trace`). Self time is a span's duration minus the part of its
//! interval that its children cover. Some spans are *derived*: a layer
//! that runs inside another layer's call (the VM inside `capture`) gets
//! a child span whose length comes from a separate calibration run, laid
//! out inside the parent. Derived spans are marked in the export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.stage` name.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell the span belongs to (spans of one cell share it).
    pub cell: u32,
    /// True when the length was derived from a calibration run.
    pub derived: bool,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            cell: self.cell,
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a leaf span; returns its result and the span index.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Lays derived children of `parent` end to end from its start, one
    /// per `(name, ns)` pair.
    pub fn derive(&mut self, parent: usize, parts: &[(&'static str, u64)]) {
        let mut at = self.spans[parent].start;
        let cell = self.spans[parent].cell;
        for &(name, ns) in parts {
            self.spans.push(Span {
                name,
                start: at,
                end: at + ns,
                parent: Some(parent),
                cell,
                derived: true,
            });
            at += ns;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`, ns.
    pub fn dur(&self, id: usize) -> u64 {
        self.spans[id].dur()
    }
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            let (cs, ce) = (s.start.max(ps), s.end.min(pe));
            if cs < ce {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(cs, ce) in kids.iter() {
                let from = cs.max(reach);
                if ce > from {
                    covered += ce - from;
                }
                reach = reach.max(ce);
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, ns, over spans accepted by `keep`.
pub fn layer_self_times(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if keep(s) {
            *out.entry(s.layer()).or_insert(0) += t;
        }
    }
    out
}

/// Renders the spans as Chrome trace-event JSON (complete `X` events,
/// microseconds), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"cell\":{},\"self_us\":{:.3},\"derived\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.cell,
            self_ns as f64 / 1e3,
            s.derived,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("trace.capture", 10, 60, Some(0)),
            span("vm.exec", 10, 40, Some(1)),
            span("simple.replay", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 30, 35]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("a.x", 10, 50, Some(0)),
            span("b.y", 30, 70, Some(0)),
            span("c.z", 90, 150, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn layer_totals_sum_to_the_root() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("trace.capture", 0, 60, Some(0)),
            span("vm.exec", 0, 40, Some(1)),
            span("trace.capture", 60, 90, Some(0)),
        ];
        let layers = layer_self_times(&spans, |_| true);
        assert_eq!(layers["trace"], 20 + 30);
        assert_eq!(layers["vm"], 40);
        assert_eq!(layers["cell"], 10);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_derives() {
        let mut t = Tracer::default();
        t.set_cell(3);
        let cell = t.begin("cell");
        let ((), cap) = t.time("trace.capture", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.derive(cap, &[("frontend.parse", 100), ("vm.exec", 1_000)]);
        t.end(cell);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(cell));
        assert_eq!(s[2].parent, Some(cap));
        assert!(s.iter().all(|x| x.cell == 3));
        assert_eq!(s[3].start, s[2].end);
        assert!(s[2].derived && !s[1].derived);
        let selfs = self_times(s);
        assert_eq!(selfs[1], t.dur(cap) - 1_100);
    }

    #[test]
    fn chrome_export_has_one_event_per_span() {
        let spans = vec![
            span("cell", 0, 2_000, None),
            span("vm.exec", 0, 1_000, Some(0)),
        ];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"vm.exec\",\"cat\":\"vm\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"self_us\":1.000"));
    }
}
