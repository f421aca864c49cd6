//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one call made from the benchmark.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name, `layer.stage` (e.g. `huffman.decode`).
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u64,
    /// Operation the span belongs to (one field rep, one read, one put).
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder of one thread. Ids are unique across recorders that
/// were given distinct `lane`s.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span times count from `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id for a span recorded later with
    /// [`Tracer::record`], so children can name their parent first.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 48) | self.next
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with a reserved id.
    pub fn record(&mut self, name: &'static str, id: u64, parent: u64, op: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            op,
        });
    }

    /// Runs `f` inside a new span and returns its result with the span's
    /// duration in milliseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.reserve();
        let start = self.now_ns();
        let r = f();
        self.record(name, id, parent, op, start);
        let ms = self.spans.last().map_or(0.0, Span::ms);
        (r, ms)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.reserve();
        let start = t.now_ns();
        let (v, ms) = t.time("inner.stage", root, 7, || 41 + 1);
        t.record("outer.op", root, 0, 7, start);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        let [inner, outer] = t.spans() else {
            panic!("two spans expected")
        };
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.id >> 48, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"name\":\"inner.stage\""));
    }
}
