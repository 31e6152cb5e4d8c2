//! Hierarchical phase spans with a collapsed-stack exporter.
//!
//! Spans aggregate by path: entering `"prune"` twice under `"mine"`
//! accumulates into one `mine;prune` node with `count == 2`, so the cost of
//! a span is two monotonic clock reads per enter/exit pair regardless of
//! how often the phase repeats. Per-transaction work is therefore recorded
//! as one span around the whole loop (its `count` carries the iteration
//! count), not one span per transaction.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Aggregating recorder for hierarchical phase spans.
///
/// `enter`/`exit` must nest like brackets. Timing uses [`Instant`], so
/// spans are monotonic even if the wall clock steps.
#[derive(Debug)]
pub struct SpanRecorder {
    /// Node 0 is a sentinel root that never accumulates time.
    names: Vec<&'static str>,
    parents: Vec<usize>,
    children: Vec<Vec<usize>>,
    totals: Vec<Duration>,
    counts: Vec<u64>,
    /// Open spans: `(node index, enter time)`.
    stack: Vec<(usize, Instant)>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder {
            names: vec![""],
            parents: vec![usize::MAX],
            children: vec![Vec::new()],
            totals: vec![Duration::ZERO],
            counts: vec![0],
            stack: Vec::new(),
        }
    }

    /// Opens a span named `name` under the currently open span (or at the
    /// top level). Re-entering the same name under the same parent
    /// accumulates into the existing node.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(0, |&(n, _)| n);
        let node = match self.children[parent]
            .iter()
            .copied()
            .find(|&c| self.names[c] == name)
        {
            Some(c) => c,
            None => {
                let c = self.names.len();
                self.names.push(name);
                self.parents.push(parent);
                self.children.push(Vec::new());
                self.totals.push(Duration::ZERO);
                self.counts.push(0);
                self.children[parent].push(c);
                c
            }
        };
        self.stack.push((node, Instant::now()));
    }

    /// Closes the most recently opened span. A stray `exit` with nothing
    /// open is ignored (debug builds assert).
    pub fn exit(&mut self) {
        debug_assert!(!self.stack.is_empty(), "span exit with no open span");
        if let Some((node, start)) = self.stack.pop() {
            self.totals[node] += start.elapsed();
            self.counts[node] += 1;
        }
    }

    /// Number of distinct span paths recorded.
    pub fn num_spans(&self) -> usize {
        self.names.len() - 1
    }

    /// Total accumulated time of the top-level spans.
    pub fn total(&self) -> Duration {
        self.children[0].iter().map(|&c| self.totals[c]).sum()
    }

    /// `(path, total, count)` rows in recording order, paths joined with
    /// `;` like the collapsed output.
    pub fn rows(&self) -> Vec<(String, Duration, u64)> {
        (1..self.names.len())
            .map(|n| (self.path_of(n), self.totals[n], self.counts[n]))
            .collect()
    }

    /// `(path, self_time)` rows — total minus child totals, the same
    /// quantity [`write_collapsed`](Self::write_collapsed) emits — for
    /// consumers that want durations rather than formatted lines (the run
    /// ledger's per-phase column). Zero-self-time nodes are kept so the
    /// phase list is stable across runs.
    pub fn self_rows(&self) -> Vec<(String, Duration)> {
        (1..self.names.len())
            .map(|node| {
                let child_total: Duration =
                    self.children[node].iter().map(|&c| self.totals[c]).sum();
                (
                    self.path_of(node),
                    self.totals[node].saturating_sub(child_total),
                )
            })
            .collect()
    }

    fn path_of(&self, mut node: usize) -> String {
        let mut parts = Vec::new();
        while node != 0 {
            parts.push(self.names[node]);
            node = self.parents[node];
        }
        parts.reverse();
        parts.join(";")
    }

    /// Writes the spans in collapsed-stack format: one `path;to;span N`
    /// line per node, `N` the node's *self* time in microseconds (total
    /// minus child totals), which is what `flamegraph.pl` and inferno sum
    /// back up the stack. A node whose self time is under a microsecond
    /// is written with 0, so every span that was entered appears.
    pub fn write_collapsed(&self, w: &mut dyn Write) -> io::Result<()> {
        for node in 1..self.names.len() {
            let child_total: Duration = self.children[node].iter().map(|&c| self.totals[c]).sum();
            let self_time = self.totals[node].saturating_sub(child_total);
            writeln!(w, "{} {}", self.path_of(node), self_time.as_micros())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_aggregation() {
        let mut r = SpanRecorder::new();
        r.enter("mine");
        r.enter("prune");
        r.exit();
        r.enter("prune");
        r.exit();
        r.enter("compact");
        r.exit();
        r.exit();
        let rows = r.rows();
        assert_eq!(r.num_spans(), 3);
        assert_eq!(rows[0].0, "mine");
        assert_eq!(rows[0].2, 1);
        assert_eq!(rows[1].0, "mine;prune");
        assert_eq!(rows[1].2, 2, "re-entered span aggregates");
        assert_eq!(rows[2].0, "mine;compact");
        assert!(rows[0].1 >= rows[1].1 + rows[2].1, "parent covers children");
    }

    #[test]
    fn same_name_under_different_parents_is_distinct() {
        let mut r = SpanRecorder::new();
        r.enter("a");
        r.enter("x");
        r.exit();
        r.exit();
        r.enter("b");
        r.enter("x");
        r.exit();
        r.exit();
        let paths: Vec<_> = r.rows().into_iter().map(|(p, _, _)| p).collect();
        assert_eq!(paths, vec!["a", "a;x", "b", "b;x"]);
    }

    #[test]
    fn collapsed_output_is_parseable() {
        let mut r = SpanRecorder::new();
        r.enter("mine");
        std::thread::sleep(Duration::from_millis(2));
        r.enter("report");
        std::thread::sleep(Duration::from_millis(2));
        r.exit();
        r.exit();
        let mut buf = Vec::new();
        r.write_collapsed(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            // collapsed-stack grammar: frames joined by ';', space, integer
            let (stack, value) = line.rsplit_once(' ').expect("space separator");
            assert!(!stack.is_empty());
            assert!(stack.split(';').all(|f| !f.is_empty()));
            value.parse::<u64>().expect("integer sample value");
        }
        assert!(text.lines().any(|l| l.starts_with("mine;report ")));
    }

    #[test]
    fn stray_exit_is_ignored_in_release() {
        let mut r = SpanRecorder::new();
        r.enter("only");
        r.exit();
        // no open span: must not panic in release; rows unchanged
        if cfg!(not(debug_assertions)) {
            r.exit();
        }
        assert_eq!(r.num_spans(), 1);
    }
}
