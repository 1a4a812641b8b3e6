//! Spans recorded from outside the program: the benchmark opens a span
//! around each call it makes into a layer's public functions, keeps the
//! spans in memory and writes them out once the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span sink threaded through code shared by timed and traced runs. Timed
/// runs use [`NoTrace`], whose calls compile to nothing.
pub trait Tracer {
    /// Whether spans are being recorded at all.
    const RECORDING: bool;

    /// Open a span named `name` as a child of the innermost open span.
    fn enter(&mut self, name: &'static str);

    /// Close the innermost open span.
    fn exit(&mut self);

    /// Run `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }
}

/// The tracer of timed runs: records nothing.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    const RECORDING: bool = false;

    fn enter(&mut self, _name: &'static str) {}

    fn exit(&mut self) {}
}

/// One recorded span; times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.run`.
    pub name: &'static str,
    /// Start time.
    pub start_s: f64,
    /// End time (equal to `start_s` while the span is open).
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// The tracer of the traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer for Recorder {
    const RECORDING: bool = true;

    fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
    }
}

impl Recorder {
    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Duration of the most recent span called `name`.
    pub fn last_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.end_s - s.start_s)
    }

    /// Write every span as JSON to `path` (one object per span, with its
    /// index, parent index and microsecond start and end).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_s * 1e6,
                span.end_s * 1e6
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
