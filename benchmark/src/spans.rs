//! Benchmark-side host-clock spans, kept in memory and written out as
//! JSON lines when the run ends. Spans around the calls into each layer
//! live here; spans inside the crates are a later change.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A stack-disciplined span recorder for one workload process.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span and returns it.
    pub fn exit(&mut self) -> &Span {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
        &self.spans[id]
    }

    #[cfg(test)]
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Duration of the first span called `name` under `ancestor`.
    pub fn seconds_under(&self, ancestor: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .skip(ancestor + 1)
            .find(|(i, s)| s.name == name && self.descends(*i, ancestor))
            .map_or(0.0, |(_, s)| s.seconds())
    }

    fn descends(&self, mut id: usize, ancestor: usize) -> bool {
        while let Some(p) = self.spans[id].parent {
            if p == ancestor {
                return true;
            }
            id = p;
        }
        false
    }

    /// One JSON object per line: name, start, end, parent, workload id.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::object(vec![
                ("workload", Json::str(workload)),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut s = Spans::new();
        let root = s.enter("workload");
        let rep = s.enter("rep");
        s.enter("run.window");
        s.exit();
        s.exit();
        s.exit();
        assert_eq!(s.get(rep).parent, Some(root));
        assert!(s.get(root).end_ns >= s.get(rep).end_ns);
        assert!(s.seconds_under(rep, "run.window") >= 0.0);
        assert_eq!(s.seconds_under(rep, "missing"), 0.0);
        let text = s.to_jsonl("w");
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = Json::parse(line).expect("line parses");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("w"));
        }
    }
}
