//! In-memory span recorder for the traced run. Spans are taken around the
//! calls this benchmark makes into the program's public functions; nothing
//! inside the program is instrumented. Each span carries its name, start,
//! end, parent and trace id (the process id), stays in memory while the
//! run measures, and is written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    trace: Option<usize>,
}

/// Per-name totals: calls and self time (duration minus child spans).
#[derive(Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    traces: Vec<String>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { on: true, epoch: Instant::now(), spans: Vec::new(), traces: Vec::new() }
    }

    /// A recorder that keeps nothing: `time` just runs the closure. The
    /// same hand-driven work run through it measures the spans' own cost.
    pub fn disabled() -> Recorder {
        Recorder { on: false, ..Recorder::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Register a trace id (a process id); returns its index.
    pub fn trace(&mut self, process_id: &str) -> usize {
        if !self.on {
            return 0;
        }
        self.traces.push(process_id.to_string());
        self.traces.len() - 1
    }

    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: Option<usize>,
    ) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            trace,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        self.spans[id.0].end_ns = end;
    }

    /// Time `f` as a child of `parent`, inheriting its trace id.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let trace = self.spans[parent.0].trace;
        let id = self.open(name, Some(parent), trace);
        let out = f();
        self.close(id);
        out
    }

    /// Self time and call count per span name, over the spans whose
    /// top-level ancestor is named `root` (the root spans included).
    pub fn totals_under(&self, root: &str) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut top = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // parents always precede their children
            top[i] = s.parent.map_or(i, |p| top[p]);
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[top[i]].name != root {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let trace = s.trace.map_or("null".to_string(), |t| format!("\"{}\"", self.traces[t]));
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace\": {trace}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Write the run's spans under `.bench_out/` in the working directory.
pub fn write_out(rec: &Recorder, workload: &str, seed: u64) -> String {
    let path =
        std::path::PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}.spans.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written ({}): {e}", path.display()),
    }
}
