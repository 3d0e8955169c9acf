//! Bench-side spans. Kept in memory while the run measures and written to
//! `out/trace.jsonl` when it ends; the per-layer metrics are derived from
//! the same list. Spans inside the program are a later change, so a span
//! here brackets a call (or a batch of sub-microsecond calls) into one of
//! the program's public functions.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: `count` is the number of calls (or items) the interval
/// covered, so `duration ÷ count` is a unit cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the spans still open, innermost last.
    stack: Vec<u64>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, layer: &'static str, name: &str) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn close(&mut self, id: u64, count: u64) {
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Times `f` as one span covering `count` calls or items.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, name);
        let out = f();
        self.close(id, count);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Unit costs (ns per count) of every closed span called `name` in
    /// `layer`, in recording order.
    pub fn unit_costs_ns(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && s.count > 0)
            .map(|s| s.duration_ns() as f64 / s.count as f64)
            .collect()
    }

    /// One JSON object per span, one per line; `append` adds them to what
    /// the file already holds (ids restart per workload).
    pub fn write_jsonl(&self, path: &Path, append: bool) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"workload\": {}, \"layer\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.id,
                s.parent,
                crate::report::json_string(&self.workload),
                crate::report::json_string(s.layer),
                crate::report::json_string(&s.name),
                s.start_ns,
                s.end_ns,
                s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_one() {
        let mut t = Tracer::new("w");
        let outer = t.open("bench", "block");
        let a = t.span("core", "join.sr", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(a, 7);
        t.span("core", "join.up", 1, || ());
        t.close(outer, 2);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 1)
        );
        assert!(spans[1].duration_ns() >= 2_000_000);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        // A root opened afterwards has no parent.
        let root = t.open("geom", "probe");
        t.close(root, 10);
        assert_eq!(t.spans()[3].parent, 0);
    }

    #[test]
    fn unit_costs_divide_by_count() {
        let mut t = Tracer::new("w");
        t.spans.push(Span {
            id: 1,
            parent: 0,
            layer: "rtree",
            name: "count".into(),
            start_ns: 100,
            end_ns: 1100,
            count: 10,
        });
        assert_eq!(t.unit_costs_ns("rtree", "count"), vec![100.0]);
        assert!(t.unit_costs_ns("rtree", "window").is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new("rail \"x\"");
        t.span("net.codec", "v1_encode", 1000, || ());
        let dir = std::env::temp_dir().join(format!("asj-bench-trace-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        t.write_jsonl(&path, false).unwrap();
        t.write_jsonl(&path, false).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        t.write_jsonl(&path, true).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2, "appending keeps what was there");
        assert!(text.starts_with("{\"id\": 1, \"parent\": 0, \"workload\": \"rail \\\"x\\\"\""));
        assert!(text.contains("\"layer\": \"net.codec\", \"name\": \"v1_encode\""));
        assert!(text.trim_end().ends_with("\"count\": 1000}"));
    }
}
