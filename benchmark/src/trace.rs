//! In-memory spans recorded from outside the program, around the calls into
//! each layer. Written as JSON lines when the traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub query_id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id, to be passed as a child's `parent` and
    /// to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, query_id: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        query_id: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, query_id, parent);
        let r = f();
        (r, self.end(id))
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"query_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.query_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Share of the `pass.*` spans' time that no layer call covers: what the
    /// ladder's own loops (building arguments, recording spans) cost.
    pub fn pass_self_share(&self) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (s, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            if s.parent == NO_PARENT && s.name.starts_with("pass.") {
                own += self_ns;
                total += s.end_ns - s.start_ns;
            }
        }
        own as f64 / total.max(1) as f64
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            query_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(NO_PARENT, 0, 100), // root
            span(0, 10, 40),         // child
            span(0, 30, 60),         // overlaps the first child
            span(0, 80, 120),        // runs past the parent: clipped
            span(1, 15, 20),         // grandchild, charged to span 1 only
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 30 - 5, 30, 40, 5]);
    }

    #[test]
    fn tracer_nests_and_orders() {
        let mut t = Tracer::new();
        let root = t.begin("root", 7, NO_PARENT);
        let (v, d) = t.timed("leaf", 7, root, || 42);
        let total = t.end(root);
        assert_eq!(v, 42);
        assert!(d <= total);
        assert_eq!(t.spans.len(), 2);
        let st = self_times(&t.spans);
        assert_eq!(st[0] + st[1], total);
    }
}
