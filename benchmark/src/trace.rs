//! Spans recorded by the benchmark around its calls into each engine layer.
//!
//! A span is {name, start, end, parent, op}: spans of one operation share
//! the op id, the root span of an operation has no parent, and a layer's
//! self time is its span minus the part its children cover. Spans stay in
//! memory during the run and are written to a file when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client's span log. Times are nanoseconds since `epoch`, which all
/// tracers of a run share so their spans line up in the written file.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: how many spans, their total time and their total self
/// time, in name order.
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's duration, ascending.
    pub durs: Vec<u64>,
}

pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert(LayerTime {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durs: Vec::new(),
        });
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.durs.push(s.dur_ns());
    }
    for e in out.values_mut() {
        e.durs.sort_unstable();
    }
    out
}

/// Append one tracer's spans to `all`, rebasing parent indexes so they
/// still point at the right span.
pub fn append(all: &mut Vec<Span>, t: Tracer) {
    let base = all.len();
    all.extend(t.spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Concatenate per-client tracers into one span list.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::new();
    for t in tracers {
        append(&mut all, t);
    }
    all
}

pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("unit", Json::str("ns since the traced pass began")),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        Json::obj(vec![
                            ("id", Json::Num(id as f64)),
                            ("name", Json::str(s.name)),
                            ("start", Json::Num(s.start_ns as f64)),
                            ("end", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("op", Json::Num(s.op as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("exec", 30, 90, Some(0)),
            span("scan", 40, 60, Some(2)),
            // Overlapping siblings are counted once.
            span("scan", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 20, 30]);
        let layers = by_layer(&spans);
        assert_eq!(layers["scan"].count, 2);
        assert_eq!(layers["scan"].total_ns, 50);
        assert_eq!(layers["exec"].self_ns, 20);
        // Self times of a tree add up to the root's duration when siblings
        // do not overlap.
        let tree = &spans[..4];
        assert_eq!(self_times(tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("op", None, 1);
        a.span("x", Some(root), 1, || ());
        a.end(root);
        let mut b = Tracer::new(epoch);
        let root = b.begin("op", None, 2);
        b.span("y", Some(root), 2, || ());
        b.end(root);
        let all = merge(vec![a, b]);
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[3].op, 2);
    }
}
