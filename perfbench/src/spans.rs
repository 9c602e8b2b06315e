//! Bench-side host spans around the calls into each layer.
//!
//! Spans stay in memory while the workload runs and are written out once,
//! at exit, as a Chrome trace (`chrome://tracing`, Perfetto). Every span
//! of one query or request shares its id; the parent link gives the tree
//! `query` → `sql.parse` / `sql.bind` / `sql.optimize` / `core.compile` /
//! `core.exec` → `core.step`, and `serve.replay` for each serving rung.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed host span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Query or request id shared by every span of one query.
    pub id: u64,
    /// Layer name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset from the recorder's origin.
    pub start: Duration,
    /// Offset from the recorder's origin.
    pub end: Duration,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span that started at `start`; close it with
    /// [`Spans::close`]. Returns its index, the parent handle for children.
    pub fn open(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        let at = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            id,
            name,
            parent,
            start: at,
            end: at,
        });
        self.spans.len() - 1
    }

    /// Close span `idx` at `end`.
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end = end.saturating_duration_since(self.origin);
    }

    /// Record an already finished span.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let idx = self.open(id, name, parent, start);
        self.close(idx, end);
        idx
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: summed self time (span duration minus the part of it its
    /// children cover) and span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end - s.start).saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }

    /// Write every span as a Chrome trace "complete" event (microseconds),
    /// with its id and parent index in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                "{}\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"span\": {i}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.id,
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let mut s = Spans {
            origin: t,
            spans: Vec::new(),
        };
        let q = s.open(1, "query", None, at(0));
        s.record(1, "sql.parse", Some(q), at(1), at(3));
        let exec = s.open(1, "core.exec", Some(q), at(3));
        s.record(1, "core.step", Some(exec), at(4), at(6));
        s.record(1, "core.step", Some(exec), at(5), at(7)); // overlaps the first step
        s.close(exec, at(9));
        s.close(q, at(10));
        let st = s.self_times();
        assert_eq!(st["query"], (Duration::from_millis(2), 1));
        assert_eq!(st["core.exec"], (Duration::from_millis(3), 1));
        assert_eq!(st["core.step"], (Duration::from_millis(4), 2));
        assert_eq!(st["sql.parse"], (Duration::from_millis(2), 1));
    }
}
