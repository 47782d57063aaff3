//! Cluster runtime: executes node functions and collects outcomes.
//!
//! [`run_cluster`] materializes a [`ClusterSpec`]: every node gets a
//! private disk, RNG, charger and endpoint, all wrapped in a [`NodeCtx`]
//! façade, and the node function (an async closure) runs to completion.
//! The runtime then syncs outstanding I/O charges, executes a final
//! barrier (so every clock reflects the full run) and reports per-node
//! outcomes plus the makespan.
//!
//! One executor runs every node as a task over *shards* (see the `events`
//! module): each shard is an OS thread that polls its own tasks, resumes
//! its runnable task with the smallest (virtual clock, rank) key, and
//! parks a task whose receive finds an empty mailbox until the matching
//! delivery. [`ClusterSpec::runtime`] only picks the shard count:
//!
//! * **Events** ([`RuntimeKind::Events`]) — one shard on the calling
//!   thread. Scheduling is a pure function of virtual time, and one
//!   process comfortably simulates hundreds of nodes.
//! * **Threads** ([`RuntimeKind::Threads`]) — one shard per node, each on
//!   its own scoped thread, so nodes compute in parallel.
//!
//! Both share one transport, one deadlock report and one panic path, and
//! the virtual-time arithmetic in the comm layer depends only on each
//! node's program order. Every protocol receives at blocking program
//! points, so every run produces bit-identical clocks on either runtime.

use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;

use obs::{ClusterObs, NodeObs, Obs, SpanKind};
use pdm::{record, Disk, IoSnapshot, Record, ScratchDir};
use sim::rng::Pcg64;
use sim::{Jitter, SimDuration, SimTime, SplitMix64};

use crate::charge::Charger;
use crate::collectives::{KIND_A2A, KIND_BCAST, KIND_GATHER};
use crate::comm::{Endpoint, Message, Tag};
use crate::events::{Fabric, Stop};
use crate::spec::{ClusterSpec, RuntimeKind, StorageKind};

/// One phase boundary recorded by [`NodeCtx::mark_phase`]: the cumulative
/// clock and traffic at the stamp (deltas between consecutive marks give
/// per-phase time and h-relation sizes — what the BSP analysis consumes).
#[derive(Debug, Clone, Copy)]
pub struct PhaseMark {
    /// Phase name.
    pub name: &'static str,
    /// Node clock at the end of the phase.
    pub at: SimTime,
    /// Cumulative bytes this node had sent by the end of the phase.
    pub sent_bytes: u64,
}

/// Cumulative charger readings at the previous phase mark; deltas against
/// it become one [`obs::PhaseCost`] record. Pure bookkeeping — only reads
/// accessors, never touches the clock.
#[derive(Debug, Clone, Copy, Default)]
struct CostCursor {
    cpu: f64,
    io_read: f64,
    io_write: f64,
    overlap_saved: f64,
    wait: f64,
    coll_wait: f64,
}

/// Everything a node function needs, bundled per node.
pub struct NodeCtx {
    /// This node's rank in `0..p`.
    pub rank: usize,
    /// Cluster size.
    pub p: usize,
    /// The full performance vector (shared knowledge, like the paper's
    /// `perf` array baked into the program).
    pub perf: Vec<u64>,
    /// This node's private disk.
    pub disk: Disk,
    /// Deterministic per-node RNG (forked from the spec seed).
    pub rng: Pcg64,
    /// Time accounting for this node.
    pub charger: Charger,
    /// Tracing handle (disabled unless [`ClusterSpec::tracing`] is set).
    /// Recording only reads clocks — it never advances them — so traced
    /// and untraced runs are observationally identical.
    pub obs: Obs,
    endpoint: Endpoint,
    phases: Vec<PhaseMark>,
    /// Cumulative message-wait seconds incurred inside collective spans
    /// (the "idle straggler" share of wait time).
    coll_wait: f64,
    /// Charger readings at the previous phase mark.
    cost_cursor: CostCursor,
}

impl NodeCtx {
    /// Opens a collective span: `(wall, virtual, cumulative wait)` at
    /// entry, or `None` when tracing is disabled (skips even the clock
    /// reads).
    fn span_open(&self) -> Option<(f64, f64, f64)> {
        if self.obs.is_enabled() {
            Some((
                self.obs.elapsed(),
                self.charger.now().as_secs(),
                self.charger.wait_time().as_secs(),
            ))
        } else {
            None
        }
    }

    /// Closes a collective span opened by [`Self::span_open`]; the wait
    /// accumulated inside it is booked as collective (straggler) wait.
    fn span_close(&mut self, name: &'static str, opened: Option<(f64, f64, f64)>) {
        if let Some((w0, v0, wait0)) = opened {
            let w1 = self.obs.elapsed();
            let v1 = self.charger.now().as_secs();
            self.obs
                .record_span(name, SpanKind::Collective, w0, w1, Some((v0, v1)));
            self.coll_wait += (self.charger.wait_time().as_secs() - wait0).max(0.0);
        }
    }

    /// Sends `bytes` to `to`. Never blocks — sends are not yield points.
    pub fn send(&mut self, to: usize, tag: Tag, bytes: Vec<u8>) {
        self.obs.hist_record("net.msg_bytes", bytes.len() as u64);
        self.endpoint.send(to, tag, bytes, &mut self.charger);
    }

    /// Receives from `from` with `tag` (blocking, selective).
    pub async fn recv_from(&mut self, from: usize, tag: Tag) -> Message {
        self.endpoint.recv_from(from, tag, &mut self.charger).await
    }

    /// Typed record send: encodes records as their fixed-size
    /// little-endian bytes.
    pub fn send_records<R: Record>(&mut self, to: usize, tag: Tag, records: &[R]) {
        self.send(to, tag, record::encode_all(records));
    }

    /// Typed record receive.
    pub async fn recv_records<R: Record>(&mut self, from: usize, tag: Tag) -> Vec<R> {
        record::decode_all(&self.recv_from(from, tag).await.bytes)
    }

    /// Blocking arrival-ordered receive from any source (see
    /// [`Endpoint::recv_any`]): delivers whichever matching message lands
    /// first instead of polling ranks in a fixed order. Merges the arrival
    /// into the clock; per-message CPU overhead is charged separately in
    /// aggregate via [`Self::charge_recv_overheads`].
    pub async fn recv_any(&mut self, tag: Tag) -> Message {
        self.endpoint.recv_any(tag, &mut self.charger).await
    }

    /// Charges the per-message receive CPU overhead for `msgs` deliveries
    /// in one aggregate shot. Paired with [`Self::recv_any`], which
    /// deliberately skips the per-message charge: one summed charge is
    /// order-independent, so the virtual clock stays deterministic however
    /// the arrivals interleave.
    pub fn charge_recv_overheads(&mut self, msgs: u64) {
        if msgs > 0 {
            self.charger
                .charge_cpu_raw(self.endpoint.net().recv_overhead.scale(msgs as f64));
        }
    }

    /// Barrier across all nodes.
    pub async fn barrier(&mut self) {
        let span = self.span_open();
        self.endpoint.barrier(&mut self.charger).await;
        self.span_close("barrier", span);
    }

    /// Gathers every node's payload at `root`. Returns `Some(payloads)` at
    /// the root (indexed by rank) and `None` elsewhere.
    pub async fn gather(&mut self, root: usize, bytes: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let (all, tag) = self.endpoint.global(KIND_GATHER);
        self.gather_subset(&all, root, bytes, tag).await
    }

    /// Broadcasts `bytes` from `root` to everyone; returns the payload on
    /// every node (the root passes its own through untouched).
    pub async fn broadcast(&mut self, root: usize, bytes: Vec<u8>) -> Vec<u8> {
        let (all, tag) = self.endpoint.global(KIND_BCAST);
        self.broadcast_subset(&all, root, bytes, tag).await
    }

    /// Personalized all-to-all: `outgoing[j]` goes to node `j`; returns
    /// `incoming[i]` = the payload node `i` sent here. The self-payload is
    /// moved locally for free.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != p`.
    pub async fn all_to_all(&mut self, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let (all, tag) = self.endpoint.global(KIND_A2A);
        self.all_to_all_subset(&all, outgoing, tag).await
    }

    /// Gather restricted to a rank subset (see
    /// [`Endpoint::gather_subset`]): `members` are sorted global ranks
    /// including this one, `root` a global rank in `members`, `tag` a user
    /// tag unique to the algorithmic sub-step. The root's result is
    /// indexed by member position.
    pub async fn gather_subset(
        &mut self,
        members: &[usize],
        root: usize,
        bytes: Vec<u8>,
        tag: Tag,
    ) -> Option<Vec<Vec<u8>>> {
        let span = self.span_open();
        self.obs.hist_record("net.msg_bytes", bytes.len() as u64);
        let out = self
            .endpoint
            .gather_subset(members, root, bytes, tag, &mut self.charger)
            .await;
        self.span_close("gather", span);
        out
    }

    /// Broadcast restricted to a rank subset (see
    /// [`Endpoint::broadcast_subset`]).
    pub async fn broadcast_subset(
        &mut self,
        members: &[usize],
        root: usize,
        bytes: Vec<u8>,
        tag: Tag,
    ) -> Vec<u8> {
        let span = self.span_open();
        if self.rank == root {
            self.obs.hist_record("net.msg_bytes", bytes.len() as u64);
        }
        let out = self
            .endpoint
            .broadcast_subset(members, root, bytes, tag, &mut self.charger)
            .await;
        self.span_close("broadcast", span);
        out
    }

    /// Personalized all-to-all restricted to a rank subset; payloads are
    /// indexed by member position (see [`Endpoint::all_to_all_subset`]).
    pub async fn all_to_all_subset(
        &mut self,
        members: &[usize],
        outgoing: Vec<Vec<u8>>,
        tag: Tag,
    ) -> Vec<Vec<u8>> {
        let span = self.span_open();
        if self.obs.is_enabled() {
            for (idx, msg) in outgoing.iter().enumerate() {
                if members[idx] != self.rank {
                    self.obs.hist_record("net.msg_bytes", msg.len() as u64);
                }
            }
        }
        let out = self
            .endpoint
            .all_to_all_subset(members, outgoing, tag, &mut self.charger)
            .await;
        self.span_close("all-to-all", span);
        out
    }

    /// Labels this node's current sub-communicator for the deadlock
    /// report (`None` = global communicator). Pure diagnostics — never
    /// affects timing or routing.
    pub fn set_comm_group(&mut self, label: Option<&str>) {
        self.endpoint.set_group_label(label);
    }

    /// Records a phase boundary: prices outstanding I/O, then stamps
    /// `name` at the current clock. The phase report shows cumulative
    /// times, so phase `k`'s duration is `stamp[k] − stamp[k−1]`.
    pub fn mark_phase(&mut self, name: &'static str) {
        self.charger.sync_io();
        let at = self.charger.now();
        self.phases.push(PhaseMark {
            name,
            at,
            sent_bytes: self.endpoint.sent_bytes(),
        });
        if self.obs.is_enabled() {
            // Record the phase's resource deltas for the critical-path
            // analyzer. Reads accessors only — the clock was already synced
            // above, identically to the untraced path.
            let cur = CostCursor {
                cpu: self.charger.cpu_time().as_secs(),
                io_read: self.charger.io_read_time().as_secs(),
                io_write: self.charger.io_write_time().as_secs(),
                overlap_saved: self.charger.overlap_saved().as_secs(),
                wait: self.charger.wait_time().as_secs(),
                coll_wait: self.coll_wait,
            };
            let prev = self.cost_cursor;
            let dom = self.charger.take_dominant();
            self.obs.phase_cost(obs::PhaseCost {
                name,
                end: at.as_secs(),
                cpu: (cur.cpu - prev.cpu).max(0.0),
                io_read: (cur.io_read - prev.io_read).max(0.0),
                io_write: (cur.io_write - prev.io_write).max(0.0),
                overlap_saved: (cur.overlap_saved - prev.overlap_saved).max(0.0),
                wait: (cur.wait - prev.wait).max(0.0),
                coll_wait: (cur.coll_wait - prev.coll_wait).max(0.0),
                dominant_from: dom.map_or(-1, |d| d.from as i64),
                dominant_depart: dom.map_or(0.0, |d| d.depart.as_secs()),
                dominant_arrival: dom.map_or(0.0, |d| d.arrival.as_secs()),
                ..Default::default()
            });
            self.cost_cursor = cur;
        }
        // Close the phase span on the tracer with the same stamp the mark
        // reports (the tracer itself never touches the clock).
        self.obs.phase_mark(name, at.as_secs());
    }

    /// Synchronizes all nodes, then zeroes this node's clock, counters and
    /// phase marks. Call on **every** node at the same program point to
    /// exclude setup (e.g. workload generation) from the timed region, as
    /// the paper does for the initial data distribution.
    pub async fn reset_timing(&mut self) {
        self.barrier().await;
        self.charger.reset();
        self.phases.clear();
        self.coll_wait = 0.0;
        self.cost_cursor = CostCursor::default();
        self.obs.reset();
    }

    /// Network traffic sent by this node so far.
    pub fn sent_bytes(&self) -> u64 {
        self.endpoint.sent_bytes()
    }

    /// Messages sent by this node so far.
    pub fn sent_messages(&self) -> u64 {
        self.endpoint.sent_messages()
    }
}

/// Per-node result of a cluster run.
#[derive(Debug)]
pub struct NodeOutcome<T> {
    /// Whatever the node function returned.
    pub value: T,
    /// The node's clock after the final barrier.
    pub finish: SimTime,
    /// Total block I/O performed by the node.
    pub io: IoSnapshot,
    /// Cumulative phase stamps recorded via [`NodeCtx::mark_phase`].
    pub phases: Vec<PhaseMark>,
    /// Charged CPU time (post-slowdown).
    pub cpu_time: SimDuration,
    /// Charged disk time (post-slowdown).
    pub io_time: SimDuration,
    /// Time spent waiting on messages.
    pub wait_time: SimDuration,
    /// Bytes this node pushed into the network.
    pub sent_bytes: u64,
    /// The node's finished observability data (empty unless
    /// [`ClusterSpec::tracing`] was set).
    pub obs: NodeObs,
}

/// One phase's per-node durations, derived from [`PhaseMark`] stamps.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Phase name.
    pub name: &'static str,
    /// Duration of this phase on each node, indexed by rank.
    pub per_node: Vec<SimDuration>,
}

impl PhaseBreakdown {
    /// The slowest node's duration for this phase (what the makespan sees).
    pub fn max(&self) -> SimDuration {
        self.per_node
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Result of [`run_cluster`].
#[derive(Debug)]
pub struct ClusterReport<T> {
    /// Outcomes indexed by rank.
    pub nodes: Vec<NodeOutcome<T>>,
    /// The simulated wall time of the whole run (max node finish).
    pub makespan: SimDuration,
}

impl<T> ClusterReport<T> {
    /// Values only, indexed by rank.
    pub fn values(&self) -> Vec<&T> {
        self.nodes.iter().map(|n| &n.value).collect()
    }

    /// Total block I/O across nodes.
    pub fn total_io(&self) -> IoSnapshot {
        self.nodes
            .iter()
            .fold(IoSnapshot::default(), |acc, n| acc.plus(&n.io))
    }

    /// Per-phase, per-node durations derived from the cumulative
    /// [`PhaseMark`] stamps: phase `k` on a node lasted
    /// `at[k] − at[k−1]` (phase 0 starts at the timing reset). Phase
    /// order follows node 0; nodes that skipped a phase report zero.
    /// Works with or without tracing — marks are always recorded.
    pub fn phase_breakdown(&self) -> Vec<PhaseBreakdown> {
        let Some(first) = self.nodes.first() else {
            return Vec::new();
        };
        first
            .phases
            .iter()
            .enumerate()
            .map(|(idx, mark)| PhaseBreakdown {
                name: mark.name,
                per_node: self
                    .nodes
                    .iter()
                    .map(|n| match n.phases.get(idx) {
                        Some(m) => {
                            let prev = if idx == 0 {
                                SimTime::ZERO
                            } else {
                                n.phases[idx - 1].at
                            };
                            m.at.since(prev)
                        }
                        None => SimDuration::ZERO,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Bundles every node's observability data (empty per-node records
    /// unless the spec enabled tracing). Cluster-level metrics start
    /// empty; trial runners inject cross-node gauges (e.g. skew) on top.
    pub fn cluster_obs(&self) -> ClusterObs {
        ClusterObs {
            nodes: self.nodes.iter().map(|n| n.obs.clone()).collect(),
            cluster: Default::default(),
        }
    }
}

/// Builds one node's context: disk, jitter, charger, RNG, tracer and
/// endpoint, identically on every shard.
fn make_node_ctx(
    spec: &ClusterSpec,
    rank: usize,
    endpoint: Endpoint,
    scratch: Option<&ScratchDir>,
) -> NodeCtx {
    let disk = match scratch {
        None => Disk::in_memory(spec.block_bytes),
        Some(dir) => Disk::on_files(dir.path(), spec.block_bytes),
    }
    .with_model(spec.disk_model.clone())
    .with_label(format!("node{rank}"));
    let jitter = Jitter::new(
        SplitMix64::mix(spec.seed ^ (rank as u64).wrapping_mul(0x9E37)),
        // Loaded nodes show proportionally noisier timings
        // (cf. Table 2's deviations); scale sigma by √slowdown.
        (spec.jitter_sigma * spec.slowdown(rank).sqrt()).min(0.9),
    );
    let charger = Charger::new(
        spec.cpu.clone(),
        spec.slowdown(rank),
        jitter,
        disk.clone(),
        spec.time_policy,
    );
    let node_obs = if spec.tracing {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    NodeCtx {
        rank,
        p: spec.p(),
        perf: spec.perf.clone(),
        disk,
        rng: Pcg64::with_stream(spec.seed, rank as u64),
        charger,
        obs: node_obs,
        endpoint,
        phases: Vec::new(),
        coll_wait: 0.0,
        cost_cursor: CostCursor::default(),
    }
}

/// Runs the node function and the shared finish path — the final I/O
/// sync + barrier, counter folding and outcome assembly. Every shard
/// drives this same future, so a node's observable behavior cannot depend
/// on which runtime ran it.
async fn drive<T, F>(ctx: &mut NodeCtx, f: &F, perf: u64) -> NodeOutcome<T>
where
    F: AsyncFn(&mut NodeCtx) -> T,
{
    let value = f(ctx).await;
    ctx.charger.sync_io();
    ctx.barrier().await;
    let io = ctx.disk.stats().snapshot();
    if ctx.obs.is_enabled() {
        // Fold the classic report counters into the unified registry so
        // exporters see one coherent namespace.
        ctx.obs.counter_add("io.blocks_read", io.blocks_read);
        ctx.obs.counter_add("io.blocks_written", io.blocks_written);
        ctx.obs.counter_add("io.bytes_read", io.bytes_read);
        ctx.obs.counter_add("io.bytes_written", io.bytes_written);
        ctx.obs.counter_add("io.random_reads", io.random_reads);
        ctx.obs.counter_add("io.seek_bytes", io.seek_bytes);
        ctx.obs.counter_add("io.files_created", io.files_created);
        ctx.obs
            .counter_add("net.sent_bytes", ctx.endpoint.sent_bytes());
        ctx.obs
            .counter_add("net.sent_messages", ctx.endpoint.sent_messages());
        ctx.obs
            .gauge_set("time.cpu_secs", ctx.charger.cpu_time().as_secs());
        ctx.obs
            .gauge_set("time.io_secs", ctx.charger.io_time().as_secs());
        ctx.obs
            .gauge_set("time.io_read_secs", ctx.charger.io_read_time().as_secs());
        ctx.obs
            .gauge_set("time.io_write_secs", ctx.charger.io_write_time().as_secs());
        ctx.obs
            .gauge_set("time.wait_secs", ctx.charger.wait_time().as_secs());
        ctx.obs.gauge_set(
            "time.overlap_saved_secs",
            ctx.charger.overlap_saved().as_secs(),
        );
        ctx.obs
            .gauge_set("time.finish_secs", ctx.charger.now().as_secs());
    }
    let rank = ctx.rank;
    let node_obs = ctx.obs.finish(rank, format!("node{rank} (perf {perf})"));
    NodeOutcome {
        value,
        finish: ctx.charger.now(),
        io,
        phases: std::mem::take(&mut ctx.phases),
        cpu_time: ctx.charger.cpu_time(),
        io_time: ctx.charger.io_time(),
        wait_time: ctx.charger.wait_time(),
        sent_bytes: ctx.endpoint.sent_bytes(),
        obs: node_obs,
    }
}

/// Per-node scratch dirs for file-backed clusters, kept alive until every
/// node finishes.
fn make_scratches(spec: &ClusterSpec) -> Vec<Option<ScratchDir>> {
    (0..spec.p())
        .map(|i| match spec.storage {
            StorageKind::Memory => None,
            StorageKind::Files => Some(
                ScratchDir::new(&format!("cluster-node{i}")).expect("cannot create scratch dir"),
            ),
        })
        .collect()
}

/// Runs `f` on every node of the cluster and reports outcomes plus the
/// makespan. [`ClusterSpec::runtime`] picks one shard on the calling
/// thread or one shard per node.
///
/// The runtime adds a final I/O sync + barrier after `f` returns so that
/// every node's clock covers the entire computation; the makespan is the
/// maximum finish time.
///
/// ```
/// use cluster::{run_cluster, ClusterSpec, Tag};
///
/// // Two nodes, the second 4x faster; node 0 sends its rank to node 1.
/// let spec = ClusterSpec::new(vec![1, 4]);
/// let report = run_cluster(&spec, async |ctx| {
///     if ctx.rank == 0 {
///         ctx.send_records::<u32>(1, Tag::user(1), &[7]);
///         0
///     } else {
///         ctx.recv_records::<u32>(0, Tag::user(1)).await[0]
///     }
/// });
/// assert_eq!(report.nodes[1].value, 7);
/// assert!(report.makespan.as_secs() > 0.0); // wire time was charged
/// ```
///
/// # Panics
/// If a node function panics, every shard stops at its next yield and
/// this re-raises that node's own panic payload. If every unfinished node
/// waits on a receive that nothing can satisfy, it panics at once with a
/// per-node report of each parked rank, what it waits for and its comm
/// group.
pub fn run_cluster<T, F>(spec: &ClusterSpec, f: F) -> ClusterReport<T>
where
    T: Send,
    F: AsyncFn(&mut NodeCtx) -> T + Send + Sync,
{
    let p = spec.p();
    let shards = match spec.runtime {
        RuntimeKind::Events => 1,
        RuntimeKind::Threads => p,
    };
    let fabric = Fabric::new(p, shards);
    let scratches = make_scratches(spec);
    let run = |shard| run_shard(spec, &f, &fabric, &scratches, shard);
    let finished: Vec<Vec<(usize, NodeOutcome<T>)>> = if shards == 1 {
        vec![run(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| s.spawn(move || run(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shards catch node panics"))
                .collect()
        })
    };
    match fabric.take_stop() {
        Some(Stop::Panic(payload)) => panic::resume_unwind(payload),
        Some(Stop::Deadlock(report)) => panic!("{report}"),
        None => {}
    }
    // With no stop, every shard ran all its tasks to completion.
    let mut finished: Vec<(usize, NodeOutcome<T>)> = finished.into_iter().flatten().collect();
    finished.sort_unstable_by_key(|&(rank, _)| rank);
    let nodes: Vec<NodeOutcome<T>> = finished.into_iter().map(|(_, node)| node).collect();
    let makespan = nodes
        .iter()
        .map(|n| n.finish)
        .max()
        .unwrap_or(SimTime::ZERO)
        .since(SimTime::ZERO);
    ClusterReport { nodes, makespan }
}

/// One node task: the boxed context and the future driving it. `fut` is
/// declared first so it drops before `_ctx` — it holds an exclusive
/// borrow of the boxed context through a raw pointer.
struct Task<'f, T> {
    fut: Pin<Box<dyn Future<Output = NodeOutcome<T>> + 'f>>,
    _ctx: Box<NodeCtx>,
    rank: usize,
    /// The node's tracer, installed in TLS around every poll so library
    /// code attributes spans to the *task*, not the shard's thread.
    obs: Obs,
}

/// Builds the tasks of `shard` on the calling thread (the `Rc` recorders
/// inside [`NodeCtx`] never cross threads) and polls them to completion.
/// Returns the outcomes of the tasks that finished. A panic while
/// building or polling stops every shard through the fabric.
fn run_shard<'a, T, F>(
    spec: &'a ClusterSpec,
    f: &'a F,
    fabric: &Arc<Fabric>,
    scratches: &[Option<ScratchDir>],
    shard: usize,
) -> Vec<(usize, NodeOutcome<T>)>
where
    T: 'a,
    F: AsyncFn(&mut NodeCtx) -> T,
{
    let mut outcomes = Vec::new();
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut tasks: Vec<Task<'a, T>> = fabric
            .ranks(shard)
            .map(|rank| {
                let endpoint = Endpoint::new(rank, spec.p(), fabric.clone(), spec.net.clone());
                let mut ctx = Box::new(make_node_ctx(
                    spec,
                    rank,
                    endpoint,
                    scratches[rank].as_ref(),
                ));
                let obs = ctx.obs.clone();
                let ctx_ptr: *mut NodeCtx = &mut *ctx;
                // SAFETY: the box pins the context to a stable heap address
                // for the task's lifetime, and the future (dropped first —
                // see the field order on `Task`) is the only code that
                // touches it.
                let fut = Box::pin(drive(unsafe { &mut *ctx_ptr }, f, spec.perf[rank]));
                Task {
                    fut,
                    _ctx: ctx,
                    rank,
                    obs,
                }
            })
            .collect();
        fabric.run_shard(shard, |slot, cx| {
            let task = &mut tasks[slot];
            // Scope the TLS install to the poll: whichever task runs owns
            // the recorder for exactly that slice of execution. Untraced
            // runs skip the TLS churn — a disabled recorder observes
            // nothing either way, and polls are the executor's hot path.
            let _obs_guard = task
                .obs
                .is_enabled()
                .then(|| obs::install(task.obs.clone()));
            let poll = task.fut.as_mut().poll(cx);
            poll.map(|outcome| outcomes.push((task.rank, outcome)))
        });
    }));
    if let Err(payload) = run {
        fabric.fail(payload);
    }
    outcomes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::charge::Work;
    use crate::cost::CpuModel;
    use crate::net::NetworkModel;
    use pdm::DiskModel;

    /// Runs `f` on a homogeneous `p`-node cluster with free CPU work (so
    /// clocks move only by message costs) under both runtimes, asserts
    /// that every node returns the same value on each, and returns the
    /// values by rank.
    pub(crate) fn values_on_both_runtimes<T, F>(p: usize, net: NetworkModel, f: F) -> Vec<T>
    where
        T: PartialEq + std::fmt::Debug + Send,
        F: AsyncFn(&mut NodeCtx) -> T + Send + Sync,
    {
        let values = |runtime| {
            let spec = ClusterSpec::homogeneous(p)
                .with_net(net.clone())
                .with_cpu(CpuModel::free())
                .with_runtime(runtime);
            let report = run_cluster(&spec, &f);
            report
                .nodes
                .into_iter()
                .map(|n| n.value)
                .collect::<Vec<T>>()
        };
        let threads = values(RuntimeKind::Threads);
        assert_eq!(threads, values(RuntimeKind::Events), "runtimes disagree");
        threads
    }

    #[test]
    fn nodes_run_and_report() {
        let spec = ClusterSpec::homogeneous(3);
        let report = run_cluster(&spec, async |ctx| ctx.rank * 10);
        assert_eq!(report.nodes.len(), 3);
        for (rank, n) in report.nodes.iter().enumerate() {
            assert_eq!(n.value, rank * 10);
        }
    }

    #[test]
    fn makespan_is_slowest_node() {
        let spec = ClusterSpec::new(vec![1, 4]); // node 0 is 4× slower
        let report = run_cluster(&spec, async |ctx| {
            ctx.charger.compute(Work::comparisons(1_000_000), || ());
        });
        // Reference work = 0.28 s; node 0 takes 1.12 s; makespan ≈ that
        // plus barrier wire time.
        assert!(report.makespan.as_secs() >= 1.12);
        assert!(report.makespan.as_secs() < 1.2);
        // Both nodes finish at (about) the makespan thanks to the barrier.
        assert!(report.nodes[1].finish.as_secs() >= 1.12);
    }

    #[test]
    fn per_node_disks_are_private() {
        let spec = ClusterSpec::homogeneous(2);
        let report = run_cluster(&spec, async |ctx| {
            let name = "private";
            ctx.disk
                .write_file::<u32>(name, &[ctx.rank as u32])
                .unwrap();
            ctx.disk.read_file::<u32>(name).unwrap()
        });
        assert_eq!(report.nodes[0].value, vec![0]);
        assert_eq!(report.nodes[1].value, vec![1]);
    }

    #[test]
    fn io_counted_and_charged() {
        let spec = ClusterSpec::homogeneous(1).with_disk_model(DiskModel::scsi_2000());
        let report = run_cluster(&spec, async |ctx| {
            let data: Vec<u32> = (0..10_000).collect();
            ctx.disk.write_file("f", &data).unwrap();
            ctx.disk.read_file::<u32>("f").unwrap().len()
        });
        assert_eq!(report.nodes[0].value, 10_000);
        assert!(report.nodes[0].io.blocks_written > 0);
        assert!(report.nodes[0].io_time.as_secs() > 0.0);
    }

    #[test]
    fn phase_marks_are_cumulative() {
        let spec = ClusterSpec::homogeneous(1).with_cpu(CpuModel::alpha_533());
        let report = run_cluster(&spec, async |ctx| {
            ctx.charger.charge_work(Work::comparisons(1000));
            ctx.mark_phase("first");
            ctx.charger.charge_work(Work::comparisons(1000));
            ctx.mark_phase("second");
        });
        let phases = &report.nodes[0].phases;
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "first");
        assert!(phases[1].at > phases[0].at);
    }

    #[test]
    fn messaging_inside_cluster() {
        let spec = ClusterSpec::homogeneous(2);
        let report = run_cluster(&spec, async |ctx| {
            if ctx.rank == 0 {
                ctx.send_records(1, Tag::user(5), &[1u32, 2, 3]);
                0
            } else {
                let v: Vec<u32> = ctx.recv_records(0, Tag::user(5)).await;
                v.iter().sum::<u32>() as usize
            }
        });
        assert_eq!(report.nodes[1].value, 6);
        assert!(report.nodes[1].wait_time.as_secs() > 0.0);
        assert!(report.nodes[0].sent_bytes >= 12);
    }

    #[test]
    fn event_runtime_matches_threads_bitwise() {
        // The same jittered compute + message + barrier workload must
        // produce bit-identical clocks, traffic and values under both
        // schedulers: charges happen in per-node program order either
        // way, and arrival merges are commutative maxima.
        let run = |runtime: RuntimeKind| {
            let spec = ClusterSpec::new(vec![1, 2, 4])
                .with_jitter(0.05)
                .with_seed(11)
                .with_runtime(runtime);
            run_cluster(&spec, async |ctx| {
                ctx.charger
                    .compute(Work::comparisons(100_000 * (ctx.rank as u64 + 1)), || ());
                if ctx.rank == 0 {
                    for to in 1..ctx.p {
                        ctx.send_records(to, Tag::user(2), &[to as u32; 64]);
                    }
                } else {
                    let v: Vec<u32> = ctx.recv_records(0, Tag::user(2)).await;
                    assert_eq!(v.len(), 64);
                }
                ctx.mark_phase("exchange");
                ctx.barrier().await;
                ctx.charger.now().as_secs()
            })
        };
        let threads = run(RuntimeKind::Threads);
        let events = run(RuntimeKind::Events);
        assert_eq!(threads.makespan, events.makespan);
        for (a, b) in threads.nodes.iter().zip(&events.nodes) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.finish, b.finish);
            assert_eq!(a.cpu_time, b.cpu_time);
            assert_eq!(a.wait_time, b.wait_time);
            assert_eq!(a.sent_bytes, b.sent_bytes);
            assert_eq!(a.io, b.io);
            assert_eq!(a.phases.len(), b.phases.len());
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.at, pb.at);
            }
        }
    }

    #[test]
    fn both_runtimes_detect_deadlock_immediately() {
        // Both nodes receive from each other without anyone sending: every
        // shard finds its tasks parked and the run panics at once with the
        // per-node report.
        for runtime in [RuntimeKind::Threads, RuntimeKind::Events] {
            let spec = ClusterSpec::homogeneous(2).with_runtime(runtime);
            let t0 = std::time::Instant::now();
            let err = std::panic::catch_unwind(|| {
                run_cluster(&spec, async |ctx| {
                    ctx.recv_from(1 - ctx.rank, Tag::user(1)).await
                })
            })
            .expect_err("a deadlock must panic");
            assert!(
                t0.elapsed().as_secs() < 1,
                "{runtime:?} took {:?}",
                t0.elapsed()
            );
            let report = err.downcast_ref::<String>().expect("formatted report");
            let parked = |rank: usize| report.contains(&format!("node {rank}: parked"));
            assert!(parked(0) && parked(1), "{runtime:?}: {report}");
        }
    }

    #[test]
    fn tls_recorder_follows_the_task_not_the_thread() {
        // Regression for the per-task recorder: all event-runtime nodes
        // share one executor thread, and each barrier parks the task and
        // hands the thread to the other node. Library code that records
        // through the TLS handle (obs::counter_add) must still attribute
        // to the node whose task is running.
        let spec = ClusterSpec::homogeneous(2)
            .with_tracing(true)
            .with_runtime(RuntimeKind::Events);
        let report = run_cluster(&spec, async |ctx| {
            for _ in 0..3 {
                if ctx.rank == 0 {
                    obs::counter_add("test.left", 1);
                } else {
                    obs::counter_add("test.right", 1);
                }
                ctx.barrier().await;
            }
        });
        let left = &report.nodes[0].obs.metrics.counters;
        let right = &report.nodes[1].obs.metrics.counters;
        assert_eq!(left.get("test.left"), Some(&3));
        assert_eq!(left.get("test.right"), None, "node 1's counts leaked");
        assert_eq!(right.get("test.right"), Some(&3));
        assert_eq!(right.get("test.left"), None, "node 0's counts leaked");
    }

    #[test]
    fn tracing_records_phase_spans_and_metrics() {
        let spec = ClusterSpec::new(vec![1, 2]).with_tracing(true);
        let report = run_cluster(&spec, async |ctx| {
            ctx.charger.charge_work(Work::comparisons(1000));
            ctx.mark_phase("first");
            if ctx.rank == 0 {
                ctx.send_records(1, Tag::user(9), &[1u32, 2, 3]);
            } else {
                let _: Vec<u32> = ctx.recv_records(0, Tag::user(9)).await;
            }
            ctx.barrier().await;
            ctx.mark_phase("second");
        });
        for node in &report.nodes {
            let phases: Vec<_> = node.obs.phases().map(|s| s.name).collect();
            assert_eq!(phases, vec!["first", "second"]);
            // Phase stamps on the tracer agree with the classic marks.
            for (span, mark) in node.obs.phases().zip(&node.phases) {
                assert_eq!(span.virt_end, Some(mark.at.as_secs()));
            }
            // The barrier shows up as a collective span.
            assert!(node
                .obs
                .spans
                .iter()
                .any(|s| s.kind == obs::SpanKind::Collective && s.name == "barrier"));
            // Classic counters were folded into the registry.
            assert_eq!(
                node.obs.metrics.counters.get("io.blocks_read"),
                Some(&node.io.blocks_read)
            );
            assert_eq!(
                node.obs.metrics.counters.get("net.sent_bytes"),
                Some(&node.sent_bytes)
            );
        }
        // The sender's message-size histogram saw the 12-byte payload.
        let hist = report.nodes[0]
            .obs
            .metrics
            .histograms
            .get("net.msg_bytes")
            .expect("sender records message sizes");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 12);
    }

    #[test]
    fn tracing_records_phase_costs_satisfying_the_identity() {
        let spec = ClusterSpec::new(vec![1, 2]).with_tracing(true);
        let report = run_cluster(&spec, async |ctx| {
            ctx.charger.charge_work(Work::comparisons(500_000));
            ctx.disk
                .write_file::<u32>("f", &(0..2048).collect::<Vec<_>>())
                .unwrap();
            ctx.mark_phase("work");
            if ctx.rank == 0 {
                ctx.send_records(1, Tag::user(3), &[9u32; 256]);
            } else {
                let _: Vec<u32> = ctx.recv_records(0, Tag::user(3)).await;
            }
            ctx.barrier().await;
            ctx.mark_phase("exchange");
        });
        for node in &report.nodes {
            let costs = &node.obs.phase_costs;
            assert_eq!(costs.len(), 2);
            assert_eq!(costs[0].name, "work");
            // The Charger identity: duration = cpu + io − overlap + wait,
            // exactly, per phase.
            let mut start = 0.0;
            for c in costs {
                let dur = c.end - start;
                let accounted = c.cpu + c.io_read + c.io_write - c.overlap_saved + c.wait;
                assert!(
                    (dur - accounted).abs() < 1e-9,
                    "node {} phase {}: dur {dur} vs accounted {accounted}",
                    node.obs.node,
                    c.name
                );
                start = c.end;
            }
            // Phase ends agree with the classic marks.
            for (c, mark) in costs.iter().zip(&node.phases) {
                assert_eq!(c.end, mark.at.as_secs());
            }
        }
        // The receiver's exchange phase waited on node 0's message or the
        // barrier; its dominant sender must be a real peer.
        let recv_costs = &report.nodes[1].obs.phase_costs[1];
        assert!(recv_costs.wait > 0.0);
        if recv_costs.dominant_from >= 0 {
            assert_eq!(recv_costs.dominant_from, 0);
            assert!(recv_costs.dominant_depart <= recv_costs.dominant_arrival);
        }
        // The barrier wait was booked as collective straggling.
        assert!(report
            .nodes
            .iter()
            .any(|n| n.obs.phase_costs.iter().any(|c| c.coll_wait > 0.0)));
    }

    #[test]
    fn untraced_run_records_no_phase_costs() {
        let spec = ClusterSpec::homogeneous(2);
        let report = run_cluster(&spec, async |ctx| {
            ctx.mark_phase("only");
        });
        for node in &report.nodes {
            assert!(node.obs.phase_costs.is_empty());
        }
    }

    #[test]
    fn tracing_off_yields_empty_obs() {
        let spec = ClusterSpec::homogeneous(2);
        let report = run_cluster(&spec, async |ctx| {
            ctx.mark_phase("only");
        });
        for node in &report.nodes {
            assert!(node.obs.spans.is_empty());
            assert!(node.obs.metrics.is_empty());
        }
    }

    #[test]
    fn phase_breakdown_from_marks() {
        let spec = ClusterSpec::new(vec![1, 4]);
        let report = run_cluster(&spec, async |ctx| {
            ctx.charger.charge_work(Work::comparisons(1_000_000));
            ctx.mark_phase("compute");
            ctx.barrier().await;
            ctx.mark_phase("sync");
        });
        let breakdown = report.phase_breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0].name, "compute");
        assert_eq!(breakdown[0].per_node.len(), 2);
        // Node 0 is 4x slower, so its compute phase takes 4x longer.
        let slow = breakdown[0].per_node[0].as_secs();
        let fast = breakdown[0].per_node[1].as_secs();
        assert!((slow / fast - 4.0).abs() < 1e-9);
        assert_eq!(breakdown[0].max().as_secs(), slow);
        // Durations are deltas: the sync phase excludes compute time.
        assert!(breakdown[1].per_node[1].as_secs() < slow);
    }

    #[test]
    fn file_backed_cluster_works() {
        let spec = ClusterSpec::homogeneous(2).with_storage(StorageKind::Files);
        let report = run_cluster(&spec, async |ctx| {
            ctx.disk
                .write_file::<u32>("x", &[ctx.rank as u32; 100])
                .unwrap();
            ctx.disk.len_records::<u32>("x").unwrap()
        });
        assert!(report.nodes.iter().all(|n| n.value == 100));
    }
}
