//! Critical-path extraction with blame attribution.
//!
//! The paper's whole argument is about *where heterogeneous-cluster time
//! goes* — slow CPUs vs. disk vs. communication. This module answers that
//! question automatically from a trace: the cluster runtime records one
//! [`PhaseCost`] per phase per node (resource-time deltas straight off the
//! Charger's exact accounting identity), and [`critical_path`] walks the
//! cross-node causal chain backwards from the makespan, attributing every
//! second on the path to one of seven blame categories.
//!
//! # The accounting identity
//!
//! A node's clock only ever advances through four channels, so for any
//! phase window the Charger guarantees **exactly**
//!
//! ```text
//! duration = cpu + io − overlap_saved + wait
//! ```
//!
//! where `io = io_read + io_write` and `wait` further splits into message
//! transfer and collective straggling. [`PhaseCost::blame`] converts that
//! identity into the seven categories and renormalizes so
//! blame sums to the phase duration *exactly* — which makes the whole-path
//! invariant (blame sums to the makespan within 1%) hold by construction.
//!
//! # The causal chain
//!
//! Edges of the DAG are (a) intra-node phase ordering (a phase cannot
//! start before its predecessor ends), and (b) message send→recv pairs:
//! when a phase's largest clock jump came from waiting on a message
//! (the Charger's dominant-wait record), the receiver's timeline before
//! that arrival was *not* load-bearing — the sender's timeline up to the
//! departure instant was. The backward walk follows exactly those edges,
//! inserting a pure `net-transfer` segment for the wire time, so the
//! extracted segments tile `[0, makespan]` with no gaps or overlaps.

use crate::report::ClusterObs;

/// Small tolerance for the backward walk's time comparisons (seconds).
const EPS: f64 = 1e-12;

/// One phase's resource-time breakdown on one node, recorded by the
/// cluster runtime at the phase mark. All fields are virtual seconds of
/// *delta* within the phase, except `end` (the phase's virtual end) and
/// the `dominant_*` provenance of the largest message wait.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCost {
    /// Phase name (matches the phase span vocabulary).
    pub name: &'static str,
    /// Virtual end of the phase; its start is the previous record's end
    /// (or 0 for the first phase).
    pub end: f64,
    /// Charged CPU seconds in the phase.
    pub cpu: f64,
    /// Read share of charged I/O seconds.
    pub io_read: f64,
    /// Write share of charged I/O seconds.
    pub io_write: f64,
    /// Always zero and read by nothing: a node's disk serves one request
    /// stream, so no I/O is queueing. Kept only because perfbench still
    /// sets it.
    pub queue_wait: f64,
    /// Seconds hidden by CPU/I/O overlap (`cpu + io − overlap_saved`
    /// is what actually hit the clock).
    pub overlap_saved: f64,
    /// Total message-wait seconds (Lamport merge jumps).
    pub wait: f64,
    /// Share of `wait` spent inside collectives (stragglers at barriers,
    /// gathers, broadcasts).
    pub coll_wait: f64,
    /// Sender rank of the largest single message wait in the phase
    /// (−1 when no arrival jumped the clock).
    pub dominant_from: i64,
    /// Virtual time that message departed the sender.
    pub dominant_depart: f64,
    /// Virtual time it arrived (the clock's value after the jump).
    pub dominant_arrival: f64,
}

/// Seconds attributed to each blame category. Categories are disjoint and
/// (for a [`PhaseCost::blame`] or a [`CritPath::blame`]) sum exactly to
/// the window they describe. The `queue-wait` and `credit-stall`
/// categories have no field: a node's disk serves one request stream and no
/// protocol blocks on flow-control credits, so their rows in
/// [`Self::parts`] always read 0. They keep their places in the reporting
/// order because consumers read the rows by position.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Blame {
    /// Computation (sorting, merging, message packing).
    pub cpu: f64,
    /// Disk reads.
    pub io_read: f64,
    /// Disk writes.
    pub io_write: f64,
    /// Time on the wire (message transfer + latency).
    pub net_transfer: f64,
    /// Waiting for slower peers at collectives.
    pub idle_straggler: f64,
}

/// Category names, in the fixed reporting order.
pub const BLAME_CATEGORIES: [&str; 7] = [
    "cpu",
    "io-read",
    "io-write",
    "queue-wait",
    "net-transfer",
    "credit-stall",
    "idle-straggler",
];

impl Blame {
    /// The categories as `(name, seconds)` pairs in reporting order.
    pub fn parts(&self) -> [(&'static str, f64); 7] {
        [
            ("cpu", self.cpu),
            ("io-read", self.io_read),
            ("io-write", self.io_write),
            ("queue-wait", 0.0),
            ("net-transfer", self.net_transfer),
            ("credit-stall", 0.0),
            ("idle-straggler", self.idle_straggler),
        ]
    }

    /// Seconds in a category by name (`None` for an unknown name).
    pub fn get(&self, category: &str) -> Option<f64> {
        self.parts()
            .iter()
            .find(|(n, _)| *n == category)
            .map(|(_, v)| *v)
    }

    /// Sum over all categories.
    pub fn total(&self) -> f64 {
        self.parts().iter().map(|(_, v)| v).sum()
    }

    /// Adds `other` scaled by `k`.
    pub fn add_scaled(&mut self, other: &Blame, k: f64) {
        self.cpu += other.cpu * k;
        self.io_read += other.io_read * k;
        self.io_write += other.io_write * k;
        self.net_transfer += other.net_transfer * k;
        self.idle_straggler += other.idle_straggler * k;
    }

    /// Scales every category by `k` in place.
    fn scale(&mut self, k: f64) {
        self.cpu *= k;
        self.io_read *= k;
        self.io_write *= k;
        self.net_transfer *= k;
        self.idle_straggler *= k;
    }
}

impl PhaseCost {
    /// Attributes this phase's `duration` seconds to the seven categories.
    ///
    /// The effective (clock-visible) charge subtracts `overlap_saved` from
    /// the smaller of the CPU and I/O components (the hidden one under the
    /// `max(cpu, io)` overlap rule); the I/O side then splits into read
    /// and write pro-rata, and the wait splits into collective straggling
    /// and residual wire time. The
    /// result is renormalized so the categories sum to `duration` exactly.
    pub fn blame(&self, duration: f64) -> Blame {
        let dur = duration.max(0.0);
        let io = self.io_read + self.io_write;
        let saved = self.overlap_saved.max(0.0);
        let (cpu_eff, io_eff) = if self.cpu <= io {
            ((self.cpu - saved).max(0.0), io)
        } else {
            (self.cpu, (io - saved).max(0.0))
        };
        let (read_eff, write_eff) = if io > 0.0 {
            let r = io_eff * self.io_read / io;
            (r, io_eff - r)
        } else {
            (0.0, 0.0)
        };
        let wait = self.wait.max(0.0);
        let straggler = self.coll_wait.clamp(0.0, wait);
        let net = (wait - straggler).max(0.0);

        let mut b = Blame {
            cpu: cpu_eff,
            io_read: read_eff,
            io_write: write_eff,
            net_transfer: net,
            idle_straggler: straggler,
        };
        let sum = b.total();
        if sum > 0.0 {
            b.scale(dur / sum);
        } else {
            b.cpu = dur;
        }
        b
    }
}

/// One slice of the critical path: `[start, end]` virtual seconds spent on
/// `node`, attributed per category. `phase` is the phase the node was in
/// (or `"net-transfer"` for a pure wire segment between two nodes).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Node whose timeline this slice lies on (the receiver, for wire
    /// segments).
    pub node: usize,
    /// Phase name, or `"net-transfer"`.
    pub phase: &'static str,
    /// Virtual start of the slice.
    pub start: f64,
    /// Virtual end of the slice.
    pub end: f64,
    /// Blame within the slice; sums to `end − start` exactly.
    pub blame: Blame,
}

/// The extracted end-to-end critical path.
#[derive(Debug, Clone)]
pub struct CritPath {
    /// Traced makespan (largest virtual phase end across nodes).
    pub makespan: f64,
    /// Total blame over the whole path; sums to `makespan` exactly
    /// (within float rounding).
    pub blame: Blame,
    /// Path slices in chronological order, tiling `[0, makespan]`.
    pub segments: Vec<Segment>,
}

impl CritPath {
    /// Relative error between the blame total and the makespan
    /// (0 when the makespan is 0).
    pub fn blame_sum_rel_err(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (self.blame.total() - self.makespan).abs() / self.makespan
    }
}

/// Phase geometry for one node: name plus `[start, end]` window.
struct PhaseWindow {
    cost: PhaseCost,
    start: f64,
}

fn windows(costs: &[PhaseCost]) -> Vec<PhaseWindow> {
    let mut out = Vec::with_capacity(costs.len());
    let mut start = 0.0;
    for c in costs {
        out.push(PhaseWindow { cost: *c, start });
        start = c.end.max(start);
    }
    out
}

/// Index of the phase on `node` whose window contains `t` (the latest
/// phase with `start < t`), or `None` when `t` precedes all work.
fn phase_at(wins: &[PhaseWindow], t: f64) -> Option<usize> {
    if t <= EPS {
        return None;
    }
    // Prefer the earliest phase whose end reaches t (skips zero-duration
    // phases stacked at the same instant); fall back to the last phase if
    // t sits past the node's recorded end.
    match wins.iter().position(|w| w.cost.end >= t - EPS) {
        Some(i) => Some(i),
        None if !wins.is_empty() => Some(wins.len() - 1),
        None => None,
    }
}

/// Extracts the end-to-end critical path from a traced run. `None` when no
/// node recorded phase costs (e.g. tracing was off or the runtime predates
/// the recorder).
pub fn critical_path(obs: &ClusterObs) -> Option<CritPath> {
    let per_node: Vec<Vec<PhaseWindow>> =
        obs.nodes.iter().map(|n| windows(&n.phase_costs)).collect();
    // The makespan owner: the node whose recorded phases end last.
    let (mut node, makespan) = per_node
        .iter()
        .enumerate()
        .filter_map(|(i, w)| w.last().map(|l| (i, l.cost.end)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite virtual times"))?;

    let mut segments: Vec<Segment> = Vec::new();
    let mut cur_t = makespan;
    let mut blame = Blame::default();
    // Bounded walk: each iteration either consumes a phase slice or jumps
    // across a message edge, both of which strictly decrease cur_t.
    for _ in 0..10_000 {
        if cur_t <= EPS {
            break;
        }
        let wins = &per_node[node];
        let Some(idx) = phase_at(wins, cur_t) else {
            break;
        };
        let w = &wins[idx];
        let seg_lo = w.start.min(cur_t);
        let dur = (w.cost.end - w.start).max(0.0);
        let phase_blame = w.cost.blame(dur);

        // A message edge is load-bearing when the phase's dominant wait
        // arrived strictly inside the remaining window and its departure
        // predates both the arrival and the window top: everything on this
        // node before the arrival was slack, the sender's timeline was not.
        let d_from = w.cost.dominant_from;
        let follow_edge = d_from >= 0
            && (d_from as usize) < per_node.len()
            && d_from as usize != node
            && !per_node[d_from as usize].is_empty()
            && w.cost.dominant_arrival > seg_lo + EPS
            && w.cost.dominant_arrival < cur_t - EPS
            && w.cost.dominant_depart < w.cost.dominant_arrival - EPS
            && w.cost.dominant_depart < cur_t - EPS;

        let slice_lo = if follow_edge {
            w.cost.dominant_arrival
        } else {
            seg_lo
        };
        let width = (cur_t - slice_lo).max(0.0);
        if width > 0.0 {
            let mut b = phase_blame;
            b.scale(if dur > 0.0 { width / dur } else { 0.0 });
            if dur <= 0.0 {
                b.cpu = width; // degenerate: phase recorded no duration
            }
            blame.add_scaled(&b, 1.0);
            segments.push(Segment {
                node,
                phase: w.cost.name,
                start: slice_lo,
                end: cur_t,
                blame: b,
            });
        }

        if follow_edge {
            // Pure wire segment from the sender's departure to the arrival.
            let depart = w.cost.dominant_depart.max(0.0);
            let wire = Blame {
                net_transfer: w.cost.dominant_arrival - depart,
                ..Blame::default()
            };
            blame.add_scaled(&wire, 1.0);
            segments.push(Segment {
                node,
                phase: "net-transfer",
                start: depart,
                end: w.cost.dominant_arrival,
                blame: wire,
            });
            node = d_from as usize;
            cur_t = depart;
        } else {
            cur_t = seg_lo;
        }
    }
    segments.reverse();
    Some(CritPath {
        makespan,
        blame,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::NodeObs;

    fn cost(name: &'static str, end: f64, cpu: f64, io_r: f64, io_w: f64, wait: f64) -> PhaseCost {
        PhaseCost {
            name,
            end,
            cpu,
            io_read: io_r,
            io_write: io_w,
            wait,
            dominant_from: -1,
            ..PhaseCost::default()
        }
    }

    fn node_obs(node: usize, costs: Vec<PhaseCost>) -> NodeObs {
        NodeObs {
            node,
            phase_costs: costs,
            ..NodeObs::default()
        }
    }

    #[test]
    fn no_phase_costs_yields_none() {
        let obs = ClusterObs {
            nodes: vec![NodeObs::default()],
            cluster: Default::default(),
        };
        assert!(critical_path(&obs).is_none());
    }

    #[test]
    fn single_node_blame_tiles_makespan() {
        let obs = ClusterObs {
            nodes: vec![node_obs(
                0,
                vec![
                    cost("local-sort", 4.0, 3.0, 1.0, 0.0, 0.0),
                    cost("merge", 10.0, 2.0, 1.0, 3.0, 0.0),
                ],
            )],
            cluster: Default::default(),
        };
        let cp = critical_path(&obs).expect("path");
        assert_eq!(cp.makespan, 10.0);
        assert!(
            cp.blame_sum_rel_err() < 1e-9,
            "err {}",
            cp.blame_sum_rel_err()
        );
        assert_eq!(cp.segments.len(), 2);
        assert_eq!(cp.segments[0].phase, "local-sort");
        assert_eq!(cp.segments[1].phase, "merge");
        assert!((cp.blame.cpu - 3.0 - 2.0).abs() < 1e-9);
        assert!((cp.blame.io_write - 3.0).abs() < 1e-9);
    }

    #[test]
    fn phase_blame_respects_overlap() {
        // cpu 2, io 6 (4r + 2w) with 2 saved by overlap:
        // duration = 2 + 6 − 2 = 6.
        let pc = PhaseCost {
            name: "merge",
            end: 6.0,
            cpu: 2.0,
            io_read: 4.0,
            io_write: 2.0,
            overlap_saved: 2.0,
            ..PhaseCost::default()
        };
        let b = pc.blame(6.0);
        assert!((b.total() - 6.0).abs() < 1e-12);
        // cpu fully hidden by overlap: zero cpu blame.
        assert_eq!(b.cpu, 0.0);
        assert_eq!(b.get("queue-wait"), Some(0.0));
        assert_eq!(b.parts()[3].0, "queue-wait");
        assert!((b.io_read - 4.0).abs() < 1e-12);
        assert!((b.io_write - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wait_splits_into_straggler_and_net() {
        let pc = PhaseCost {
            name: "redistribute",
            end: 10.0,
            cpu: 2.0,
            wait: 8.0,
            coll_wait: 1.0,
            ..PhaseCost::default()
        };
        let b = pc.blame(10.0);
        assert!((b.total() - 10.0).abs() < 1e-12);
        assert_eq!(b.get("credit-stall"), Some(0.0));
        assert_eq!(b.parts()[5].0, "credit-stall");
        assert!((b.idle_straggler - 1.0).abs() < 1e-9);
        assert!((b.net_transfer - 7.0).abs() < 1e-9);
        assert!((b.cpu - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_phase_blames_cpu() {
        let pc = cost("pivots", 5.0, 0.0, 0.0, 0.0, 0.0);
        let b = pc.blame(5.0);
        assert_eq!(b.cpu, 5.0);
        assert_eq!(b.total(), 5.0);
    }

    #[test]
    fn message_edge_jumps_to_sender() {
        // Node 1 waits from t=2 to t=9 on a message node 0 sent at t=4
        // (arriving t=8): the path must hop to node 0's timeline.
        let mut recv_phase = cost("merge", 10.0, 2.0, 0.0, 0.0, 6.0);
        recv_phase.dominant_from = 0;
        recv_phase.dominant_depart = 4.0;
        recv_phase.dominant_arrival = 8.0;
        let obs = ClusterObs {
            nodes: vec![
                node_obs(0, vec![cost("local-sort", 6.0, 6.0, 0.0, 0.0, 0.0)]),
                node_obs(
                    1,
                    vec![cost("local-sort", 2.0, 2.0, 0.0, 0.0, 0.0), recv_phase],
                ),
            ],
            cluster: Default::default(),
        };
        let cp = critical_path(&obs).expect("path");
        assert_eq!(cp.makespan, 10.0);
        assert!(
            cp.blame_sum_rel_err() < 1e-9,
            "err {}",
            cp.blame_sum_rel_err()
        );
        let phases: Vec<_> = cp.segments.iter().map(|s| (s.node, s.phase)).collect();
        assert!(
            phases.contains(&(1, "net-transfer")),
            "wire segment present: {phases:?}"
        );
        assert!(
            phases.contains(&(0, "local-sort")),
            "sender timeline on path: {phases:?}"
        );
        // Wire time 8−4 = 4s lands in net-transfer.
        assert!(cp.blame.net_transfer >= 4.0 - 1e-9);
        // Segments tile [0, makespan] in order.
        let mut t = 0.0;
        for s in &cp.segments {
            assert!((s.start - t).abs() < 1e-9, "gap at {t}: {s:?}");
            t = s.end;
        }
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn self_edges_and_past_arrivals_are_ignored() {
        let mut p = cost("merge", 5.0, 5.0, 0.0, 0.0, 0.0);
        p.dominant_from = 0; // self
        p.dominant_depart = 1.0;
        p.dominant_arrival = 3.0;
        let obs = ClusterObs {
            nodes: vec![node_obs(0, vec![p])],
            cluster: Default::default(),
        };
        let cp = critical_path(&obs).expect("path");
        assert_eq!(cp.segments.len(), 1);
        assert!(cp.blame_sum_rel_err() < 1e-9);
    }
}
