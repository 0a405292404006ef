//! The traced pass's span recorder. Spans are recorded from the harness,
//! around its calls into each layer; nothing inside the program is touched.
//! They stay in memory and are written out once, after the measuring.

use crate::workloads::{pass_ms, typical_ms, Op};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `op` is shared by every span of one operation, and
/// `input` by every operation on the same input; `parent` is the span that
/// was open when this one started.
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub input: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    input: u32,
}

/// The two sides of `obs.trace_overhead_share`: a replay runs every other
/// operation with the recorder off, the same code path without the
/// bookkeeping.
#[derive(Default)]
pub struct Overhead {
    traced: Vec<Op>,
    untraced: Vec<Op>,
}

impl Overhead {
    pub fn push(&mut self, traced: bool, op: Op) {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
        .push(op);
    }

    /// Traced over untraced time for one pass over the inputs, less one.
    pub fn share(&self) -> f64 {
        pass_ms(&self.traced) / pass_ms(&self.untraced) - 1.0
    }
}

/// What the spans say about one layer.
pub struct LayerTime {
    pub calls: usize,
    /// The layer's self time within one operation, summarised over the
    /// operations as `workloads::typical_ms` summarises latencies.
    pub self_ms: f64,
    /// The same over one pass of every input, as `workloads::pass_ms`.
    pub pass_ms: f64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            input: 0,
        }
    }

    /// See [`Overhead`].
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` as one operation on input number `input`: a root span named
    /// `name` and a fresh operation id.
    pub fn operation<R>(
        &mut self,
        name: &'static str,
        input: usize,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.op += 1;
        self.input = input as u32;
        self.span(name, f)
    }

    /// Run `f` inside a span that is a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            op: self.op,
            input: self.input,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Self time of a span: its duration less what its direct children cover
    /// (children never overlap: the recorder is single-threaded).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent as usize] = own[parent as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per layer (span name): calls and the typical per-operation self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let own = self.self_ns();
        // layer → operation → (input, self time summed over the layer's calls)
        let mut per_op: BTreeMap<&'static str, BTreeMap<u32, (u32, u64)>> = BTreeMap::new();
        let mut calls: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(&own) {
            per_op
                .entry(span.name)
                .or_default()
                .entry(span.op)
                .or_insert((span.input, 0))
                .1 += ns;
            *calls.entry(span.name).or_default() += 1;
        }
        per_op
            .into_iter()
            .map(|(name, ops)| {
                let ops: Vec<Op> = ops
                    .values()
                    .map(|&(input, ns)| (input, ns as f64 / 1e6))
                    .collect();
                let layer = LayerTime {
                    calls: calls[name],
                    self_ms: typical_ms(&ops),
                    pass_ms: pass_ms(&ops),
                };
                (name, layer)
            })
            .collect()
    }

    /// One JSON object per span and line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"op\":{},\"input\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.op, s.input, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {}
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        for _ in 0..3 {
            rec.operation("request", 0, |rec| {
                spin(2);
                rec.span("child", |_| spin(4));
                rec.span("child", |_| spin(4));
            });
        }
        let layers = rec.layers();
        assert_eq!(layers["child"].calls, 6);
        assert_eq!(layers["request"].calls, 3);
        // two 4 ms children per operation; the parent keeps only its own 2 ms
        assert!(
            (layers["child"].self_ms - 8.0).abs() < 2.0,
            "{}",
            layers["child"].self_ms
        );
        assert!(
            (layers["request"].self_ms - 2.0).abs() < 1.5,
            "{}",
            layers["request"].self_ms
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        rec.set_enabled(false);
        assert_eq!(
            rec.operation("request", 0, |rec| rec.span("child", |_| 7)),
            7
        );
        assert!(rec.layers().is_empty());
    }
}
