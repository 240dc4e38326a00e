//! Spans around the benchmark's own calls into the file system.
//!
//! Spans are recorded from outside the program under test (in-program spans
//! are a later change): one per public `fs` call, each the child of the
//! logical op that made it (`create_file` ⊃ `fs.create`, `fs.write`…,
//! `fs.close`). They stay in memory and are written out when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` is the id of the span that caused it (0 for
/// a logical op); spans of one logical op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Disabled, `start` returns `None` and `end`
/// does nothing, so the untraced run pays one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub thread: u32,
    /// Thread tag in the high bits keeps ids unique across recorders.
    next_id: u32,
    pub spans: Vec<Span>,
}

/// An open span: its id and start.
pub type Open = Option<(u32, Instant)>;

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool, thread: u32) -> Tracer {
        Tracer {
            epoch,
            enabled,
            thread,
            next_id: thread << 28,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn start(&mut self) -> Open {
        self.enabled.then(|| {
            self.next_id += 1;
            (self.next_id, Instant::now())
        })
    }

    pub fn end(&mut self, open: Open, name: &'static str, parent: Open, op: u64) {
        if let Some((id, start)) = open {
            let end = Instant::now();
            self.spans.push(Span {
                name,
                id,
                parent: parent.map_or(0, |(p, _)| p),
                op,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }
}

/// A span's self time: its duration minus the part of it its children
/// cover. Children of one parent never overlap here (a thread runs one call
/// at a time), so covered time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
    let mut covered = std::collections::HashMap::<u32, u64>::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.duration_ns();
    }
    spans
        .iter()
        .map(|s| {
            let children = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(children))
        })
        .collect()
}

/// Durations in µs of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Total self time in seconds per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let names: std::collections::HashMap<u32, &'static str> =
        spans.iter().map(|s| (s.id, s.name)).collect();
    let mut totals = std::collections::BTreeMap::<&'static str, f64>::new();
    for (id, ns) in self_times(spans) {
        *totals.entry(names[&id]).or_default() += ns as f64 / 1e9;
    }
    let mut ranked: Vec<_> = totals.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

/// The trace file: one array per span, `[name, id, parent, op, start_ns,
/// end_ns]`, under a header that names the columns.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Str(s.name.into()),
                Json::Num(f64::from(s.id)),
                Json::Num(f64::from(s.parent)),
                Json::Num(s.op as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        (
            "columns",
            Json::Arr(
                ["name", "id", "parent", "op", "start_ns", "end_ns"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // create_file [0, 100) ⊃ fs.create [5, 25), fs.write [30, 50),
        // fs.write [50, 60), fs.close [60, 95); fs.close ⊃ drain [70, 90).
        let spans = vec![
            span("create_file", 1, 0, 0, 100),
            span("fs.create", 2, 1, 5, 25),
            span("fs.write", 3, 1, 30, 50),
            span("fs.write", 4, 1, 50, 60),
            span("fs.close", 5, 1, 60, 95),
            span("drain", 6, 5, 70, 90),
        ];
        let own: std::collections::HashMap<u32, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(own[&1], 100 - (20 + 20 + 10 + 35));
        assert_eq!(own[&2], 20);
        assert_eq!(
            own[&5],
            35 - 20,
            "a grandchild is charged to its parent only"
        );
        assert_eq!(own[&6], 20);
        let total: u64 = own.values().sum();
        assert_eq!(total, 100, "self times partition the root span");

        let ranked = self_time_by_name(&spans);
        assert_eq!(ranked[0].0, "fs.write");
        assert!((ranked[0].1 - 30e-9).abs() < 1e-15);
        assert_eq!(durations_us(&spans, "fs.write"), vec![0.02, 0.01]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        let op = t.start();
        let call = t.start();
        t.end(call, "fs.open", op, 7);
        t.end(op, "read_file", None, 7);
        assert!(t.spans.is_empty());
        t.set_enabled(true);
        let op = t.start();
        let call = t.start();
        t.end(call, "fs.open", op, 7);
        t.end(op, "read_file", None, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, t.spans[1].id);
        assert_eq!(t.spans[1].parent, 0);
    }
}
