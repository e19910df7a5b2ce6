//! The machine-readable run report: span tree, metric snapshots and
//! the event log, exported as JSON per replay.

use crate::metrics::HistogramSnapshot;
use serde::Serialize;
use std::collections::BTreeMap;

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanNode {
    /// Span name ("epoch", "detect", "solve", …).
    pub name: String,
    /// Start timestamp from the recorder's clock (ms).
    pub start_ms: f64,
    /// Duration (ms); 0 for spans still open at snapshot time.
    pub duration_ms: f64,
    /// `key = value` annotations attached while the span was open
    /// (e.g. `recovered_from = <epoch>` after a crash restart).
    pub annotations: Vec<(String, String)>,
    /// Nested child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Value of the first annotation with the given key, if any.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// One structured event ("degradation-detected", "warm-start", …).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Timestamp from the recorder's clock (ms).
    pub at_ms: f64,
    /// Event kind (stable, kebab-case vocabulary).
    pub kind: String,
    /// Free-form detail for humans and diffing.
    pub detail: String,
}

/// Snapshot of everything a [`Recorder`](crate::Recorder) collected.
///
/// Serialization order is deterministic (metric maps are `BTreeMap`s,
/// spans and events are chronological), so two replays under a
/// deterministic clock serialize to byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct RunReport {
    /// Whether the recorder's clock was deterministic (logical) —
    /// reports taken under a monotonic clock are *not* expected to be
    /// replay-identical.
    pub deterministic: bool,
    /// Root spans in start order (one per epoch, typically).
    pub spans: Vec<SpanNode>,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms with ladder percentiles.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Bounded structured event log, chronological.
    pub events: Vec<Event>,
    /// Events dropped after the log filled up.
    pub dropped_events: u64,
}

/// One row of the stage-attribution table: a direct child of the root
/// span aggregated across all roots of that name, or the closing
/// [`UNATTRIBUTED`] row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageRow {
    /// Child span name.
    pub stage: String,
    /// Number of spans aggregated.
    pub calls: u64,
    /// Total duration across calls (ms).
    pub total_ms: f64,
    /// Share of the aggregated root duration, in percent.
    pub share_pct: f64,
}

/// Stage name of the last stage-attribution row: root time that no
/// direct child span covers.
pub const UNATTRIBUTED: &str = "unattributed";

impl RunReport {
    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("run report serializes")
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("run report serializes")
    }

    /// Aggregates the direct children of every root span named `root`
    /// into a stage-attribution table, ordered by first appearance,
    /// and closes it with an [`UNATTRIBUTED`] row (summed root time
    /// minus summed child time, one call per root), so the shares sum
    /// to 100 %. Share is relative to the summed root durations.
    pub fn stage_attribution(&self, root: &str) -> Vec<StageRow> {
        let mut order: Vec<String> = Vec::new();
        let mut acc: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let (mut roots, mut root_total) = (0u64, 0.0);
        for r in self.spans.iter().filter(|s| s.name == root) {
            roots += 1;
            root_total += r.duration_ms;
            for c in &r.children {
                if !acc.contains_key(&c.name) {
                    order.push(c.name.clone());
                }
                let e = acc.entry(c.name.clone()).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += c.duration_ms;
            }
        }
        let share = |ms: f64| if root_total > 0.0 { 100.0 * ms / root_total } else { 0.0 };
        let mut rows: Vec<StageRow> = order
            .into_iter()
            .map(|stage| {
                let (calls, total_ms) = acc[&stage];
                StageRow { stage, calls, total_ms, share_pct: share(total_ms) }
            })
            .collect();
        let unattributed = root_total - rows.iter().map(|r| r.total_ms).sum::<f64>();
        rows.push(StageRow {
            stage: UNATTRIBUTED.into(),
            calls: roots,
            total_ms: unattributed,
            share_pct: share(unattributed),
        });
        rows
    }

    /// All span names present in the tree (depth-first, deduplicated) —
    /// convenient for asserting pipeline coverage in tests.
    pub fn span_names(&self) -> Vec<String> {
        fn walk(nodes: &[SpanNode], out: &mut Vec<String>) {
            for n in nodes {
                if !out.contains(&n.name) {
                    out.push(n.name.clone());
                }
                walk(&n.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.spans, &mut out);
        out
    }

    /// Events of a given kind, chronological.
    pub fn events_of_kind(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Checks span-tree well-formedness, returning the first violation:
    /// every node must have finite, non-negative timestamps and
    /// duration; children must start in order and lie inside their
    /// parent's `[start, start + duration]` window. Spans with zero
    /// duration and children are treated as open-at-snapshot and only
    /// ordering is checked for their subtree. The chaos harness runs
    /// this as a per-epoch invariant.
    pub fn validate_spans(&self) -> Result<(), String> {
        fn check(node: &SpanNode, path: &str) -> Result<(), String> {
            let path = if path.is_empty() {
                node.name.clone()
            } else {
                format!("{path}/{}", node.name)
            };
            if !node.start_ms.is_finite() || node.start_ms < 0.0 {
                return Err(format!("span {path}: bad start {}", node.start_ms));
            }
            if !node.duration_ms.is_finite() || node.duration_ms < 0.0 {
                return Err(format!("span {path}: bad duration {}", node.duration_ms));
            }
            let closed = node.duration_ms > 0.0 || node.children.is_empty();
            let end = node.start_ms + node.duration_ms;
            let mut prev_start = node.start_ms;
            for c in &node.children {
                if c.start_ms < prev_start {
                    return Err(format!(
                        "span {path}: child {} starts at {} before {}",
                        c.name, c.start_ms, prev_start
                    ));
                }
                prev_start = c.start_ms;
                if closed && c.start_ms + c.duration_ms > end + 1e-9 {
                    return Err(format!(
                        "span {path}: child {} ends at {} past parent end {end}",
                        c.name,
                        c.start_ms + c.duration_ms
                    ));
                }
                check(c, &path)?;
            }
            Ok(())
        }
        let mut prev = f64::NEG_INFINITY;
        for root in &self.spans {
            if root.start_ms < prev {
                return Err(format!(
                    "root span {} starts at {} before previous root {prev}",
                    root.name, root.start_ms
                ));
            }
            prev = root.start_ms;
            check(root, "")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, start: f64, dur: f64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            start_ms: start,
            duration_ms: dur,
            annotations: Vec::new(),
            children,
        }
    }

    fn two_epoch_report() -> RunReport {
        RunReport {
            spans: vec![
                node(
                    "epoch",
                    0.0,
                    10.0,
                    vec![node("detect", 0.0, 4.0, vec![]), node("solve", 4.0, 6.0, vec![])],
                ),
                node(
                    "epoch",
                    10.0,
                    10.0,
                    vec![node("detect", 10.0, 2.0, vec![]), node("solve", 12.0, 8.0, vec![])],
                ),
            ],
            ..RunReport::default()
        }
    }

    #[test]
    fn stage_attribution_aggregates_across_roots() {
        let mut report = two_epoch_report();
        // A third root whose children cover only 5 of its 20 ms.
        report.spans.push(node(
            "epoch",
            20.0,
            20.0,
            vec![node("detect", 20.0, 2.0, vec![]), node("solve", 30.0, 3.0, vec![])],
        ));
        let rows = report.stage_attribution("epoch");
        let stages: Vec<&str> = rows.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, ["detect", "solve", UNATTRIBUTED]);
        assert_eq!(rows[0].calls, 3);
        assert!((rows[0].total_ms - 8.0).abs() < 1e-12);
        assert!((rows[0].share_pct - 20.0).abs() < 1e-9);
        assert!((rows[1].share_pct - 42.5).abs() < 1e-9);
        assert_eq!(rows[2].calls, 3);
        assert!((rows[2].total_ms - 15.0).abs() < 1e-12);
        assert!((rows[2].share_pct - 37.5).abs() < 1e-9);
        let total: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");
        // Fully covered roots leave a zero unattributed row.
        let rows = two_epoch_report().stage_attribution("epoch");
        assert_eq!(rows.len(), 3);
        assert!((rows[0].share_pct - 30.0).abs() < 1e-9);
        assert!((rows[1].share_pct - 70.0).abs() < 1e-9);
        assert_eq!(rows[2].total_ms, 0.0);
    }

    #[test]
    fn span_names_walks_depth_first() {
        let names = two_epoch_report().span_names();
        assert_eq!(names, vec!["epoch".to_string(), "detect".into(), "solve".into()]);
    }

    #[test]
    fn validate_spans_accepts_well_formed_trees() {
        assert_eq!(two_epoch_report().validate_spans(), Ok(()));
        assert_eq!(RunReport::default().validate_spans(), Ok(()));
    }

    #[test]
    fn validate_spans_rejects_malformed_trees() {
        // Child escapes its parent's window.
        let r = RunReport {
            spans: vec![node("epoch", 0.0, 5.0, vec![node("solve", 2.0, 10.0, vec![])])],
            ..RunReport::default()
        };
        assert!(r.validate_spans().unwrap_err().contains("past parent end"));
        // Children out of start order.
        let r = RunReport {
            spans: vec![node(
                "epoch",
                0.0,
                10.0,
                vec![node("b", 5.0, 1.0, vec![]), node("a", 2.0, 1.0, vec![])],
            )],
            ..RunReport::default()
        };
        assert!(r.validate_spans().unwrap_err().contains("starts at"));
        // Non-finite duration.
        let r = RunReport {
            spans: vec![node("epoch", 0.0, f64::NAN, vec![])],
            ..RunReport::default()
        };
        assert!(r.validate_spans().unwrap_err().contains("bad duration"));
        // Roots out of chronological order.
        let r = RunReport {
            spans: vec![node("epoch", 10.0, 1.0, vec![]), node("epoch", 0.0, 1.0, vec![])],
            ..RunReport::default()
        };
        assert!(r.validate_spans().unwrap_err().contains("before previous root"));
    }

    #[test]
    fn open_span_subtrees_skip_containment() {
        // duration 0 + children = open at snapshot time; the child is
        // ordered but not contained.
        let r = RunReport {
            spans: vec![node("epoch", 0.0, 0.0, vec![node("solve", 1.0, 3.0, vec![])])],
            ..RunReport::default()
        };
        assert_eq!(r.validate_spans(), Ok(()));
    }

    #[test]
    fn report_serializes_to_json() {
        let j = two_epoch_report().to_json();
        assert!(j.contains("\"spans\""));
        assert!(j.contains("\"epoch\""));
        // Two identical reports give identical JSON.
        assert_eq!(j, two_epoch_report().to_json());
    }
}
