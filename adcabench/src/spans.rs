//! In-memory spans around the benchmark's own calls into the program.
//!
//! A span is `(id, parent, name, start, end)`, with times in nanoseconds
//! since the run started. Spans are kept in memory (capped, with a count
//! of what the cap shed) and written out as JSON lines when the run ends,
//! so recording never does I/O while something is being timed. Untraced
//! runs record nothing.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Spans kept per run; later ones are counted, not kept.
const CAP: usize = 200_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: u64,
    kept: Vec<Span>,
    shed: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans::with_epoch(on, Instant::now(), 1)
    }

    /// A recorder sharing `epoch` whose ids start at `first_id` (one per
    /// thread, merged with [`Spans::absorb`] at the end).
    pub fn with_epoch(on: bool, epoch: Instant, first_id: u64) -> Self {
        Spans {
            on,
            epoch,
            next_id: first_id,
            kept: Vec::new(),
            shed: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent closes. 0 when tracing is off.
    pub fn id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records span `id` (from [`Spans::id`]).
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        if self.kept.len() >= CAP {
            self.shed += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.kept.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a fresh span and returns its id.
    pub fn leaf(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.id();
        self.record(id, parent, name, start, end);
        id
    }

    /// Takes over another recorder's spans.
    pub fn absorb(&mut self, other: Spans) {
        self.shed += other.shed;
        for s in other.kept {
            if self.kept.len() >= CAP {
                self.shed += 1;
            } else {
                self.kept.push(s);
            }
        }
    }

    /// Writes the spans as JSON lines under `adcabench/out/`.
    /// Writes the spans, and the run's `details` as one JSON object next
    /// to them; returns the spans file's path.
    pub fn write(
        &self,
        workload: &str,
        seed: u64,
        details: &[(String, f64, &'static str)],
    ) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("details-{workload}-seed{seed}.json")),
            crate::metrics_json(details) + "\n",
        )?;
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.kept {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "{{\"shed\":{}}}", self.shed)?;
        w.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        let t = Instant::now();
        assert_eq!(s.leaf(0, "x", t, t), 0);
        assert!(s.kept.is_empty());
    }
}
