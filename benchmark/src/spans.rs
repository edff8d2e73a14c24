//! The traced run's span recorder.
//!
//! Spans are opened and closed by the benchmark's own files around each
//! call into a layer's public functions, and by [`SpanSink`], a
//! harness-side [`TelemetrySink`] that stamps `round_start`/`round_end`,
//! phases and engine runs as the library reports them.  They stay in
//! memory and are written once, when the run ends.

use dbf_scenario::telemetry::TelemetrySink;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.  A span's index in the recorder is its id;
/// `parent` is the id of the span that was open when it started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (and anything still open inside it); returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        now - self.spans[id].start_ns
    }

    /// Time `f` as a span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.open(name);
        let r = f(self);
        (r, self.close(id) as f64 / 1e9)
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Write every span, one JSON object per line inside one array.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, own[id]
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// What one σ round (or δ step) did, as the library reported it, with the
/// harness's own clock around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    pub recomputed: u64,
    pub changed: u64,
    pub ns: u64,
}

/// The harness-side telemetry sink: turns the library's event stream into
/// spans (`engine:<run>` ⊃ `phase:<label>` ⊃ `round`) and keeps the
/// per-round counts.
pub struct SpanSink<'a> {
    spans: &'a mut Spans,
    run: Option<usize>,
    phase: Option<usize>,
    round: Option<usize>,
    pub rounds: Vec<Round>,
}

impl<'a> SpanSink<'a> {
    pub fn new(spans: &'a mut Spans) -> SpanSink<'a> {
        SpanSink {
            spans,
            run: None,
            phase: None,
            round: None,
            rounds: Vec::new(),
        }
    }

    /// Close whatever the library left open (an engine run has no end
    /// event) and hand back the per-round record.
    pub fn finish(mut self) -> Vec<Round> {
        if let Some(id) = self.run.take().or(self.phase.take()) {
            self.spans.close(id);
        }
        self.rounds
    }
}

impl TelemetrySink for SpanSink<'_> {
    fn run_start(&mut self, run: &str, _engine: &str) {
        if let Some(id) = self.run.take() {
            self.spans.close(id);
        }
        self.run = Some(self.spans.open(&format!("engine:{run}")));
    }

    fn phase_start(&mut self, label: &str, _nodes: usize) {
        self.phase = Some(self.spans.open(&format!("phase:{label}")));
    }

    fn phase_end(&mut self, _label: &str) {
        if let Some(id) = self.phase.take() {
            self.spans.close(id);
        }
    }

    fn round_start(&mut self, _round: u64, _scheduled: u64, _frontier: u64) {
        self.round = Some(self.spans.open("round"));
    }

    fn round_end(&mut self, _round: u64, recomputed: u64, changed: u64, _wall_ns: u64) {
        if let Some(id) = self.round.take() {
            let ns = self.spans.close(id);
            self.rounds.push(Round {
                recomputed,
                changed,
                ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new();
        let outer = s.open("outer");
        let a = s.open("a");
        s.close(a);
        let b = s.open("b");
        s.close(b);
        s.close(outer);
        // Make the intervals exact so the arithmetic is checkable.
        s.spans[outer] = Span {
            name: "outer".into(),
            start_ns: 0,
            end_ns: 100,
            parent: None,
        };
        s.spans[a].start_ns = 10;
        s.spans[a].end_ns = 40;
        s.spans[b].start_ns = 50;
        s.spans[b].end_ns = 60;
        assert_eq!(s.spans[a].parent, Some(outer));
        assert_eq!(s.spans[b].parent, Some(outer));
        assert_eq!(s.self_ns(), vec![60, 30, 10]);
    }

    #[test]
    fn sink_nests_rounds_under_phases_under_runs() {
        let mut s = Spans::new();
        let mut sink = SpanSink::new(&mut s);
        sink.run_start("sync", "sync");
        sink.phase_start("baseline", 4);
        sink.round_start(1, 4, 4);
        sink.round_end(1, 4, 3, 0);
        sink.phase_end("baseline");
        sink.run_start("delta[1]", "delta");
        let rounds = sink.finish();
        assert_eq!(rounds.len(), 1);
        assert_eq!((rounds[0].recomputed, rounds[0].changed), (4, 3));
        let names: Vec<&str> = s.spans.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            ["engine:sync", "phase:baseline", "round", "engine:delta[1]"]
        );
        assert_eq!(s.spans[2].parent, Some(1));
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[3].parent, None);
        assert!(s.open.is_empty());
    }
}
