//! Benchmark-owned spans for the traced replay.
//!
//! A span carries a name, start, end, parent and request id. Spans are
//! kept in memory and written out when the run ends; nothing here reaches
//! into the program under test. A span's self time is its duration minus
//! the part of its interval that its direct children cover (overlapping
//! children are counted once).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its recorder.
    pub id: usize,
    /// The span that caused it, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one replayed request.
    pub request: u64,
    /// Layer boundary name, e.g. `http.parse`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (`u64::MAX` while open).
    pub end_ns: u64,
}

/// Records spans; when built disabled, `enter`/`exit` do nothing, which
/// is how the traced run measures its own overhead.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), enabled }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: u64::MAX });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// The closed spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, for writing out at the end of a run.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let dur = s.end_ns - s.start_ns;
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            dur - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 50).
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            // A nested grandchild is covered by its parent, not the root.
            span(3, Some(1), 12, 15),
            // A disjoint child.
            span(4, Some(0), 60, 70),
            // A child running past the root's end is clipped to it.
            span(5, Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10 - 10);
        assert_eq!(selfs[1], 20 - 3);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 3);
    }

    #[test]
    fn self_times_of_a_tree_without_overlap_add_up_to_the_root() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn contained_child_inside_another_child_is_not_double_counted() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 90), span(2, Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let a = rec.enter("a", 7);
        let b = rec.enter("b", 7);
        rec.exit(b);
        rec.exit(a);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = by_name(spans);
        assert_eq!(totals["a"].count, 1);
        assert_eq!(totals["a"].self_ns + totals["b"].self_ns, totals["a"].total_ns);

        let mut off = Recorder::new(false);
        let id = off.enter("a", 1);
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
