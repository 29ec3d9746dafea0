//! Spans the benchmark records around each call it makes into a layer:
//! name, start, end, the span that caused it, and the lap. They are kept in
//! memory and written as JSONL when the run ends. Recording happens only on
//! a `--trace 1` run; end-to-end metrics come from runs where the recorder
//! is disabled and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. A span's id is its index in [`Recorder::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub parent: Option<u32>,
    pub name: &'static str,
    pub lap: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    lap: u32,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
    /// On a [`fork`](Self::fork): the span of the forking recorder that this
    /// one's top-level spans become children of when joined.
    root: Option<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            lap: 0,
            spans: Vec::new(),
            open: Vec::new(),
            root: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_lap(&mut self, lap: u32) {
        self.lap = lap;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children. With the recorder disabled this is exactly `f(self)`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            lap: self.lap,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval the caller timed itself (one request, one step)
    /// as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            lap: self.lap,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// A recorder for a worker thread, sharing this one's clock and lap. Its
    /// top-level spans are children of the span open here now; hand it back
    /// with [`join`](Self::join).
    pub fn fork(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            lap: self.lap,
            spans: Vec::new(),
            open: Vec::new(),
            root: self.open.last().copied(),
        }
    }

    pub fn join(&mut self, worker: Recorder) {
        let offset = self.spans.len() as u32;
        for mut span in worker.spans {
            // Ids the worker minted move up by the offset; its top-level
            // spans hang under the span that was open at the fork.
            span.parent = match span.parent {
                Some(local) => Some(local + offset),
                None => worker.root,
            };
            self.spans.push(span);
        }
    }

    /// Self time per span: its duration minus the part of it that its child
    /// spans cover (children on parallel threads may overlap each other).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let covered = children
                    .get_mut(&(id as u32))
                    .map_or(0, |intervals| covered_ns(intervals, span));
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Durations in seconds of every span called `name`, grouped by lap.
    pub fn lap_durations(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut by_lap: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            by_lap
                .entry(span.lap)
                .or_default()
                .push(span.duration_ns() as f64 / 1e9);
        }
        by_lap
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"lap\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.name, span.lap, span.start_ns, span.end_ns, self_ns[id]
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `within`.
fn covered_ns(intervals: &mut [(u64, u64)], within: &Span) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = within.start_ns;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(within.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s",
            lap: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            // Two children on parallel threads overlap on [40, 50).
            span(Some(0), 40, 60),
            span(Some(0), 50, 70),
            span(Some(1), 15, 20),
        ];
        assert_eq!(rec.self_ns(), vec![100 - 20 - 30, 20 - 5, 20, 20, 5]);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut rec = Recorder::new(true);
        rec.set_lap(3);
        let out = rec.span("outer", |rec| {
            rec.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            let t = Instant::now();
            rec.leaf("leaf", t, t + Duration::from_millis(1));
            7
        });
        assert_eq!(out, 7);
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("leaf", Some(0))]
        );
        assert!(rec.spans().iter().all(|s| s.lap == 3));
        assert!(rec.spans()[0].duration_ns() >= rec.spans()[1].duration_ns());
        assert_eq!(rec.lap_durations("inner")[&3].len(), 1);
    }

    #[test]
    fn a_joined_worker_hangs_under_the_span_open_at_the_fork() {
        let mut rec = Recorder::new(true);
        rec.span("setup", |_| ());
        rec.span("timed", |rec| {
            let mut worker = rec.fork();
            worker.span("request", |w| w.span("write", |_| ()));
            rec.join(worker);
        });
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("setup", None),
                ("timed", None),
                ("request", Some(1)),
                ("write", Some(2)),
            ]
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let out = rec.span("outer", |rec| {
            let t = Instant::now();
            rec.leaf("leaf", t, t);
            let mut worker = rec.fork();
            worker.span("w", |_| ());
            rec.join(worker);
            1
        });
        assert_eq!(out, 1);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn the_span_file_has_one_object_per_span() {
        let mut rec = Recorder::new(true);
        rec.span("a", |rec| rec.span("b", |_| ()));
        let dir = crate::sys::RunDir::create(false).expect("run dir");
        let path = dir.file("spans.jsonl");
        rec.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = tacc_core::wire::parse(lines[1]).expect("json");
        assert_eq!(second.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(second.get("name").and_then(|n| n.as_str()), Some("b"));
        assert!(second.get("self_ns").is_some());
    }
}
