//! In-memory span recorder for the traced run.
//!
//! Every timed section of the benchmark goes through [`Tracer::span`],
//! which always returns the section's wall time and, when tracing is on,
//! also records `{id, name, start_ns, end_ns, parent, count}`. End-to-end
//! runs keep tracing off (one predictable branch per section); the traced
//! run turns it on, derives every per-layer metric from the recorded
//! spans, and writes them out at exit. The benchmark drives the library
//! from one client thread, so spans nest strictly and a layer's self time
//! is its span minus its children.

use std::io::Write;
use std::time::Instant;

/// One recorded section. `count` is the work the section did (updates
/// applied, calls made), so rates are computed where the work happens.
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub count: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording; the traced run alternates it to price the
    /// recorder itself (`trace.overhead_share`).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, returning its result and wall time in seconds. Sections
    /// opened inside `f` (through the tracer it receives) become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        if !self.on {
            let r = f(self);
            return (r, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            count,
        });
        self.open.push(id);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id as usize].end_ns = (end - self.origin).as_nanos() as u64;
        (r, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Wall time in seconds of every span called `name`, in record order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::seconds).collect()
    }

    /// `count ÷ wall time` of every span called `name`.
    pub fn rates(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.count as f64 / s.seconds())
            .collect()
    }

    /// Summed wall time in seconds of the spans called `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.named(name).map(Span::seconds).sum()
    }

    /// Summed self time in seconds of the spans called `name`: each
    /// span's duration minus the part its child spans cover.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns - child_ns[s.id as usize]) as f64 / 1e9)
            .sum()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"count\":{}}}{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.count, sep
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.span("a", 1, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn children_point_at_their_parent_and_self_time_excludes_them() {
        let mut tr = Tracer::new(true);
        tr.span("outer", 1, |tr| {
            tr.span("inner", 10, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("inner", 10, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let outer = tr.total_seconds("outer");
        let inner = tr.total_seconds("inner");
        assert!(inner >= 0.005 && outer >= inner);
        assert!((tr.self_seconds("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(tr.rates("inner").len(), 2);
    }
}
