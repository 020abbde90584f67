//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span has a name, start and end (nanoseconds on the run's clock), the
//! index of the span that caused it and the id of its request. A span's
//! self time is its duration minus the part of it that its children
//! cover.

use std::fmt::Write as _;
use std::io::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    /// `(time_ns, queue depth)` samples taken at each submit.
    depths: Vec<(u64, usize)>,
}

impl SpanLog {
    /// Record a span and return its index, the handle children name as
    /// their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        debug_assert!(start_ns <= end_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn depth_sample(&mut self, time_ns: u64, depth: usize) {
        self.depths.push((time_ns, depth));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn depths(&self) -> impl Iterator<Item = usize> + '_ {
        self.depths.iter().map(|&(_, d)| d)
    }

    /// Each span's duration minus the union of its children's intervals,
    /// clipped to the span itself.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Write every span (with its self time) and queue-depth sample to
    /// `path` as one JSON document, creating its directory.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_json(&mut file)?;
        file.flush()
    }

    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let self_times = self.self_times();
        let mut text = String::from("{\"spans\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{own}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        text.push_str("],\n\"queue_depth\":[");
        for (i, (t, d)) in self.depths.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(text, "{sep}[{t},{d}]");
        }
        text.push_str("]}\n");
        out.write_all(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut log = SpanLog::default();
        let root = log.push("core.recommend_into", 100, 200, None, 1);
        let grow = log.push("graph.grow", 100, 140, Some(root), 1);
        log.push("markov.dp", 140, 180, Some(root), 1);
        log.push("scratch", 110, 120, Some(grow), 1);
        let own = log.self_times();
        assert_eq!(own, vec![20, 30, 40, 10]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut log = SpanLog::default();
        let root = log.push("request", 0, 100, None, 7);
        log.push("a", 10, 50, Some(root), 7);
        log.push("b", 30, 70, Some(root), 7);
        log.push("c", 90, 150, Some(root), 7);
        // Children cover [10, 70) and [90, 100): 70 of the root's 100.
        assert_eq!(log.self_times()[0], 30);
    }

    #[test]
    fn writes_spans_and_depths() {
        let mut log = SpanLog::default();
        let root = log.push("request", 0, 10, None, 3);
        log.push("serve.submit", 1, 2, Some(root), 3);
        log.depth_sample(1, 4);
        let mut bytes = Vec::new();
        log.write_json(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"name\":\"serve.submit\""));
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"queue_depth\":[[1,4]]"));
    }
}
