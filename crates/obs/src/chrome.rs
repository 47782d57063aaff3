//! Chrome `trace_event` exporter.
//!
//! Emits one "process" per simulated node on the **virtual-time** axis, so
//! Perfetto / `chrome://tracing` render exactly the per-node, per-phase
//! Gantt the paper's tables describe. Phase and collective spans carry
//! virtual endpoints directly; wall-only [`crate::SpanKind::Task`] spans are
//! linearly rescaled into the virtual window of the smallest enclosing
//! virtual-bearing span (they happened inside that phase's wall window, so
//! they are drawn inside its virtual window). Properly nested "X" complete
//! events stack automatically in the viewer.

use crate::json::{escape, num};
use crate::report::{ClusterObs, NodeObs};
use crate::span::SpanRecord;

/// Virtual window (µs endpoints) a span should be drawn in.
fn virt_window_us(span: &SpanRecord, node: &NodeObs) -> (f64, f64) {
    if let (Some(a), Some(b)) = (span.virt_start, span.virt_end) {
        return (a * 1e6, b * 1e6);
    }
    // Wall-only span: map into the smallest enclosing virtual-bearing span.
    let host = node
        .spans
        .iter()
        .filter(|s| s.has_virtual() && s.contains_wall(span))
        .min_by(|x, y| x.wall_secs().total_cmp(&y.wall_secs()));
    match host {
        Some(h) => {
            let (hv0, hv1) = (h.virt_start.unwrap(), h.virt_end.unwrap());
            let hw = h.wall_secs();
            if hw <= 0.0 {
                // Degenerate wall window: pin to the host's virtual start.
                return (hv0 * 1e6, hv0 * 1e6);
            }
            let scale = (hv1 - hv0) / hw;
            let v0 = hv0 + (span.wall_start - h.wall_start) * scale;
            let v1 = hv0 + (span.wall_end - h.wall_start) * scale;
            (v0 * 1e6, v1 * 1e6)
        }
        // No host: fall back to the raw wall axis.
        None => (span.wall_start * 1e6, span.wall_end * 1e6),
    }
}

/// Serialises a [`ClusterObs`] as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`): per node, an "M" `process_name` metadata
/// event plus one "X" complete event per span, `pid` = node rank,
/// timestamps in virtual microseconds.
pub fn chrome_trace(obs: &ClusterObs) -> String {
    let mut events: Vec<String> = Vec::new();
    for node in &obs.nodes {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            node.node,
            escape(&node.label),
        ));
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"virtual time\"}}}}",
            node.node,
        ));
        for span in &node.spans {
            let (ts, end) = virt_window_us(span, node);
            let dur = (end - ts).max(0.0);
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\
                 \"ts\":{},\"dur\":{}}}",
                escape(span.name),
                span.kind.label(),
                node.node,
                num(ts),
                num(dur),
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::span::{Obs, SpanKind};

    fn sample_node() -> NodeObs {
        let obs = Obs::enabled();
        // A phase of 2 virtual seconds, with a wall-only task inside it.
        let w0 = obs.elapsed();
        obs.record_span("inner", SpanKind::Task, w0, w0, None);
        obs.phase_mark("local-sort", 2.0);
        obs.phase_mark("merge", 3.0);
        obs.finish(0, "node0 (perf 1)".to_string())
    }

    #[test]
    fn output_is_valid_json_with_expected_events() {
        let cluster = ClusterObs {
            nodes: vec![sample_node()],
            cluster: Default::default(),
        };
        let doc = chrome_trace(&cluster);
        validate(&doc).expect("chrome trace must be valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"name\":\"local-sort\""));
        assert!(doc.contains("\"cat\":\"phase\""));
        assert!(doc.contains("\"cat\":\"task\""));
    }

    #[test]
    fn phase_spans_use_virtual_microseconds() {
        let node = sample_node();
        let phase = node.phases().next().unwrap().clone();
        let (ts, end) = virt_window_us(&phase, &node);
        assert_eq!(ts, 0.0);
        assert_eq!(end, 2_000_000.0);
    }

    #[test]
    fn wall_only_spans_rescale_into_host_phase() {
        let node = sample_node();
        let task = node
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Task)
            .unwrap()
            .clone();
        let (ts, end) = virt_window_us(&task, &node);
        // The task sits inside the first phase's wall window, so its virtual
        // window must land inside [0, 2s] in microseconds.
        assert!(ts >= 0.0 && end <= 2_000_000.0 && ts <= end);
    }

    #[test]
    fn orphan_wall_span_falls_back_to_wall_axis() {
        let span = SpanRecord {
            name: "orphan",
            kind: SpanKind::Task,
            wall_start: 1.0,
            wall_end: 2.0,
            virt_start: None,
            virt_end: None,
        };
        let node = NodeObs {
            spans: vec![span.clone()],
            ..Default::default()
        };
        assert_eq!(virt_window_us(&span, &node), (1e6, 2e6));
    }
}
