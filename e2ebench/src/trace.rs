//! In-memory spans: name, start, end, parent and request id. Layer self
//! time is a span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub req: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Collects spans; ids are indices into the collection.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        id
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children
    /// recorded in between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = Instant::now();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, req, start, end);
        out
    }
}

/// Self time of every span in microseconds, grouped by span name.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let mut covered: Vec<(Instant, Instant)> = children
            .get(&s.id)
            .map(|kids| {
                kids.iter()
                    .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        covered.sort();
        let mut union_ns = 0u128;
        let mut current: Option<(Instant, Instant)> = None;
        for (a, b) in covered {
            current = match current {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    union_ns += (cb - ca).as_nanos();
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = current {
            union_ns += (cb - ca).as_nanos();
        }
        let total = s.end.saturating_duration_since(s.start).as_nanos();
        out.entry(s.name)
            .or_default()
            .push(total.saturating_sub(union_ns) as f64 / 1e3);
    }
    out
}

/// Writes spans as JSON lines, times in microseconds since `origin`.
///
/// # Errors
///
/// I/O failures.
pub fn write_jsonl(path: &Path, origin: Instant, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.req,
            s.name,
            us(s.start),
            us(s.end)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut t = Tracer::default();
        let root = t.record("root", None, 1, at(0), at(100));
        // Two overlapping children cover 10..40, a third 60..70, and one
        // sticks out past the parent's end (clipped to 90..100).
        t.record("a", Some(root), 1, at(10), at(30));
        t.record("a", Some(root), 1, at(20), at(40));
        t.record("b", Some(root), 1, at(60), at(70));
        let c = t.record("c", Some(root), 1, at(90), at(120));
        t.record("d", Some(c), 1, at(95), at(100));
        let st = self_times_us(&t.spans);
        assert_eq!(st["root"], vec![100.0 - 30.0 - 10.0 - 10.0]);
        assert_eq!(st["a"], vec![20.0, 20.0]);
        assert_eq!(st["b"], vec![10.0]);
        assert_eq!(st["c"], vec![30.0 - 5.0]);
        assert_eq!(st["d"], vec![5.0]);
    }

    #[test]
    fn open_close_and_time_nest() {
        let mut t = Tracer::default();
        let root = t.open("root", None, 7);
        let v = t.time("child", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans[0].end >= t.spans[1].end);
        let st = self_times_us(&t.spans);
        assert!(st["root"][0] >= 0.0);
    }
}
