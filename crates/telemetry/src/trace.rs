//! The JSONL trace writer: one flat, single-line JSON object per event,
//! schema-versioned, emitted in the deterministic order the coordinating
//! thread produces events.

use std::io::{self, Write};

use crate::sink::{MessageCounters, TelemetrySink};

/// Version stamped into every trace line as `"v"`.  Bump on any change to
/// line shapes or field meanings.  v2: `round_start` carries the active
/// frontier size alongside the scheduled-row count.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Writes the event stream as JSON Lines to any [`Write`] target.
///
/// Every line is a *flat* object (scalar fields only, no nesting) starting
/// with `"v"` (schema version) and `"ev"` (event name), so consumers can
/// validate and filter with nothing more than a line-oriented JSON parser.
/// Write errors are sticky: the first one is remembered, subsequent events
/// become no-ops, and [`TraceSink::finish`] surfaces it.
pub struct TraceSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl TraceSink<io::BufWriter<std::fs::File>> {
    /// Create (truncating) a trace file at `path`.
    pub fn to_file(path: &str) -> io::Result<Self> {
        Ok(TraceSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> TraceSink<W> {
    /// Wrap an arbitrary writer.
    pub fn new(out: W) -> Self {
        TraceSink { out, error: None }
    }

    /// Flush and return the first write error, if any.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    fn line(&mut self, ev: &str, fields: &[(&str, Field<'_>)]) {
        if self.error.is_some() {
            return;
        }
        let mut buf = format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"ev\":\"{ev}\"");
        for (key, value) in fields {
            buf.push_str(",\"");
            buf.push_str(key);
            buf.push_str("\":");
            match value {
                Field::U64(x) => buf.push_str(&x.to_string()),
                Field::Str(s) => {
                    buf.push('"');
                    escape_into(&mut buf, s);
                    buf.push('"');
                }
                Field::Null => buf.push_str("null"),
            }
        }
        buf.push_str("}\n");
        if let Err(e) = self.out.write_all(buf.as_bytes()) {
            self.error = Some(e);
        }
    }
}

enum Field<'a> {
    U64(u64),
    Str(&'a str),
    Null,
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

impl<W: Write> TelemetrySink for TraceSink<W> {
    fn run_start(&mut self, run: &str, engine: &str) {
        self.line(
            "run_start",
            &[("run", Field::Str(run)), ("engine", Field::Str(engine))],
        );
    }
    fn phase_start(&mut self, label: &str, nodes: usize) {
        self.line(
            "phase_start",
            &[
                ("label", Field::Str(label)),
                ("nodes", Field::U64(nodes as u64)),
            ],
        );
    }
    fn phase_end(&mut self, label: &str) {
        self.line("phase_end", &[("label", Field::Str(label))]);
    }
    fn round_start(&mut self, round: u64, scheduled: u64, frontier: u64) {
        self.line(
            "round_start",
            &[
                ("round", Field::U64(round)),
                ("scheduled", Field::U64(scheduled)),
                ("frontier", Field::U64(frontier)),
            ],
        );
    }
    fn round_end(&mut self, round: u64, recomputed: u64, changed: u64, wall_ns: u64) {
        self.line(
            "round_end",
            &[
                ("round", Field::U64(round)),
                ("recomputed", Field::U64(recomputed)),
                ("changed", Field::U64(changed)),
                ("wall_ns", Field::U64(wall_ns)),
            ],
        );
    }
    fn band_sweep(&mut self, round: u64, band: u64, rows: u64, weight: u64, wall_ns: u64) {
        self.line(
            "band_sweep",
            &[
                ("round", Field::U64(round)),
                ("band", Field::U64(band)),
                ("rows", Field::U64(rows)),
                ("weight", Field::U64(weight)),
                ("wall_ns", Field::U64(wall_ns)),
            ],
        );
    }
    fn node_settled(&mut self, node: usize, round: u64) {
        self.line(
            "node_settled",
            &[
                ("node", Field::U64(node as u64)),
                ("round", Field::U64(round)),
            ],
        );
    }
    fn serve_batch(
        &mut self,
        batch: u64,
        events: u64,
        naive_dirty: u64,
        batch_dirty: u64,
        rounds: u64,
    ) {
        self.line(
            "serve_batch",
            &[
                ("batch", Field::U64(batch)),
                ("events", Field::U64(events)),
                ("naive_dirty", Field::U64(naive_dirty)),
                ("batch_dirty", Field::U64(batch_dirty)),
                ("rounds", Field::U64(rounds)),
            ],
        );
    }
    fn pool_utilization(&mut self, workers: u64, epochs: u64, jobs: u64, worker_share: f64) {
        // The share is scheduling-dependent; quantize to per-mille so the
        // line stays integer-valued like every other trace field.
        self.line(
            "pool_utilization",
            &[
                ("workers", Field::U64(workers)),
                ("epochs", Field::U64(epochs)),
                ("jobs", Field::U64(jobs)),
                (
                    "worker_share_permille",
                    Field::U64((worker_share * 1000.0) as u64),
                ),
            ],
        );
    }
    fn fault_injected(&mut self, kind: &str, at: u64) {
        self.line(
            "fault_injected",
            &[("kind", Field::Str(kind)), ("at", Field::U64(at))],
        );
    }
    fn serve_degraded(&mut self, flush: u64, rounds_done: u64) {
        self.line(
            "serve_degraded",
            &[
                ("flush", Field::U64(flush)),
                ("rounds_done", Field::U64(rounds_done)),
            ],
        );
    }
    fn serve_restored(&mut self, flush: u64, rounds_total: u64, stale_answers: u64) {
        self.line(
            "serve_restored",
            &[
                ("flush", Field::U64(flush)),
                ("rounds_total", Field::U64(rounds_total)),
                ("stale_answers", Field::U64(stale_answers)),
            ],
        );
    }
    fn serve_recovery(&mut self, offset: u64, wal_events: u64) {
        self.line(
            "serve_recovery",
            &[
                ("offset", Field::U64(offset)),
                ("wal_events", Field::U64(wal_events)),
            ],
        );
    }
    fn messages(&mut self, c: &MessageCounters) {
        let bytes = match c.bytes {
            Some(b) => Field::U64(b),
            None => Field::Null,
        };
        self.line(
            "messages",
            &[
                ("sent", Field::U64(c.sent)),
                ("delivered", Field::U64(c.delivered)),
                ("dropped", Field::U64(c.dropped)),
                ("duplicated", Field::U64(c.duplicated)),
                ("bytes", bytes),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(f: impl FnOnce(&mut TraceSink<&mut Vec<u8>>)) -> String {
        let mut buf = Vec::new();
        let mut sink = TraceSink::new(&mut buf);
        f(&mut sink);
        sink.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn every_line_is_flat_versioned_json() {
        let text = capture(|sink| {
            sink.run_start("delta[7]", "delta");
            sink.phase_start("baseline", 5);
            sink.round_start(1, 5, 2);
            sink.round_end(1, 5, 4, 123);
            sink.band_sweep(1, 0, 3, 9, 50);
            sink.node_settled(2, 1);
            sink.messages(&MessageCounters {
                sent: 10,
                delivered: 9,
                dropped: 1,
                duplicated: 0,
                bytes: None,
            });
            sink.phase_end("baseline");
        });
        for line in text.lines() {
            assert!(line.starts_with("{\"v\":2,\"ev\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            // Flat: no nested objects after the opening brace.
            assert!(!line[1..].contains('{'), "{line}");
        }
        assert!(text.contains("\"ev\":\"messages\",\"sent\":10"));
        assert!(text.contains("\"bytes\":null"));
        assert!(text.contains("\"scheduled\":5,\"frontier\":2"));
    }

    #[test]
    fn labels_are_escaped() {
        let text = capture(|sink| sink.phase_start("a\"b\\c\nd", 1));
        assert!(text.contains("\"label\":\"a\\\"b\\\\c\\nd\""), "{text}");
    }
}
