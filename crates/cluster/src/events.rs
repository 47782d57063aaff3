//! Discrete-event machinery behind the cluster runtime.
//!
//! Every node is a cooperatively-scheduled task (a `Future` polled by
//! [`crate::runtime::run_cluster`]) and every message travels through one
//! shared [`Fabric`]. A blocking receive that finds nothing in its mailbox
//! parks the task by awaiting a [`Park`] future; delivering a message to a
//! parked rank makes it runnable again.
//!
//! The tasks are split over *shards*: OS threads that each poll their own
//! ranks (rank `r` lives on shard `r mod shards`) and always resume their
//! runnable task with the smallest (virtual clock, rank) key. With one
//! shard the schedule is a pure function of virtual time, independent of
//! wall clock, host load and thread scheduling. A shard with nothing
//! runnable sleeps on its own condvar until a delivery wakes it. When every
//! live shard sleeps, no rank can ever run again: the fabric stops every
//! shard with a per-rank wait report. A node panic stops every shard the
//! same way, carrying the node's own payload.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

use sim::SimTime;

use crate::comm::{Mailbox, Message, Tag};

/// What a parked task is waiting for — kept for deadlock diagnostics.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WaitKind {
    /// A selective receive for one (sender, tag) pair.
    From { from: usize, tag: Tag },
    /// An any-source receive for one tag.
    Any { tag: Tag },
}

impl WaitKind {
    fn describe(&self) -> String {
        match self {
            WaitKind::From { from, tag } => format!("(from={from}, tag={tag:?})"),
            WaitKind::Any { tag } => format!("(from=any, tag={tag:?})"),
        }
    }
}

#[derive(Debug)]
enum TaskState {
    /// Ready to be polled: fresh, or woken by a delivery. Its key in the
    /// shard's runnable index holds the node's virtual time when it last
    /// parked (zero for a fresh task).
    Runnable,
    /// Being polled by its shard.
    Running,
    /// Waiting for a delivery.
    Parked { clock: SimTime, wait: WaitKind },
    /// The node function returned.
    Done,
}

/// The scheduling key of a runnable task: its parked virtual clock, then
/// its rank. Virtual clocks are non-negative finite floats, so the IEEE
/// bit pattern orders exactly like the value. Wrapped in `Reverse` so a
/// max-heap pops the smallest key.
fn sched_key(clock: SimTime, rank: usize) -> Reverse<(u64, usize)> {
    Reverse((clock.as_secs().to_bits(), rank))
}

/// Why the fabric stopped every shard before the tasks finished.
pub(crate) enum Stop {
    /// Every live task parked: the per-rank wait report.
    Deadlock(String),
    /// A node panicked: its original payload.
    Panic(Box<dyn Any + Send>),
}

/// The cluster's shared mail system and scheduler: one mailbox and one
/// task state per rank, one runnable index and one condvar per shard.
pub(crate) struct Fabric {
    state: Mutex<FabricState>,
    /// A sleeping shard waits on its own condvar, so a delivery wakes
    /// exactly the shard that owns the receiver.
    wake: Vec<Condvar>,
}

struct FabricState {
    inboxes: Vec<VecDeque<Message>>,
    states: Vec<TaskState>,
    /// Per-shard min-heap over the `Runnable` entries of `states`, so
    /// picking the next task is O(log p) instead of an O(p) scan — the
    /// scan costs O(p² · messages) over a whole run and dominated
    /// wide-cluster simulations before the index existed.
    runnable: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
    /// Tasks not yet done, per shard.
    live: Vec<usize>,
    /// Per shard: asleep on its condvar with nothing runnable.
    asleep: Vec<bool>,
    stop: Option<Stop>,
    /// Current sub-communicator membership per rank (e.g. `"g3"` while a
    /// node runs a group-scoped collective, `"leaders"` during the
    /// inter-group exchange). Pure diagnostics: once sub-communicators
    /// exist, a deadlock report naming only global ranks is ambiguous, so
    /// parked ranks print their group too.
    groups: Vec<Option<String>>,
}

impl Fabric {
    /// A fabric for `p` ranks spread over `shards` shards, every task
    /// runnable at time zero.
    pub(crate) fn new(p: usize, shards: usize) -> Arc<Fabric> {
        assert!((1..=p).contains(&shards), "{shards} shards for {p} ranks");
        let mut runnable = vec![BinaryHeap::new(); shards];
        let mut live = vec![0; shards];
        for rank in 0..p {
            runnable[shard_of(rank, shards)].push(sched_key(SimTime::ZERO, rank));
            live[shard_of(rank, shards)] += 1;
        }
        Arc::new(Fabric {
            state: Mutex::new(FabricState {
                inboxes: (0..p).map(|_| VecDeque::new()).collect(),
                states: (0..p).map(|_| TaskState::Runnable).collect(),
                runnable,
                live,
                asleep: vec![false; shards],
                stop: None,
                groups: vec![None; p],
            }),
            wake: (0..shards).map(|_| Condvar::new()).collect(),
        })
    }

    fn shards(&self) -> usize {
        self.wake.len()
    }

    /// The ranks `shard` polls, in slot order: the `i`-th is the one
    /// [`Self::run_shard`] names as slot `i`.
    pub(crate) fn ranks(&self, shard: usize) -> impl Iterator<Item = usize> {
        let p = self.lock().states.len();
        (shard..p).step_by(self.shards())
    }

    /// The shared state. No update leaves it invalid halfway, and the
    /// only panic under the lock (the yield check in [`Self::run_shard`])
    /// changes nothing, so a poisoned guard is recovered: the panicking
    /// shard must still be able to stop the others.
    fn lock(&self) -> MutexGuard<'_, FabricState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Labels `rank` with its current sub-communicator (`None` = the
    /// global communicator). Shows up in the deadlock report.
    pub(crate) fn set_group(&self, rank: usize, label: Option<String>) {
        self.lock().groups[rank] = label;
    }

    /// Queues a message for `to`, waking it if parked and its shard if
    /// asleep. Per-sender FIFO order is preserved because each sender
    /// appends in program order and nothing reorders a mailbox.
    pub(crate) fn deliver(&self, to: usize, msg: Message) {
        let woken = self.lock().deliver(to, msg);
        if let Some(shard) = woken {
            self.wake[shard].notify_one();
        }
    }

    /// Moves every queued message for `rank` into its endpoint's pending
    /// mailbox.
    pub(crate) fn drain_into(&self, rank: usize, pending: &mut Mailbox) {
        pending.extend(self.lock().inboxes[rank].drain(..));
    }

    /// Polls `shard`'s tasks until they are all done or the fabric stops.
    /// `poll(slot, cx)` polls the task of the `slot`-th rank of
    /// [`Self::ranks`] once and reports `Ready` when its node function has
    /// returned.
    pub(crate) fn run_shard(
        &self,
        shard: usize,
        mut poll: impl FnMut(usize, &mut Context<'_>) -> Poll<()>,
    ) {
        let mut cx = Context::from_waker(Waker::noop());
        let mut st = self.lock();
        loop {
            if st.stop.is_some() || st.live[shard] == 0 {
                return;
            }
            let Some(Reverse((_, rank))) = st.runnable[shard].pop() else {
                // Nothing runnable: sleep until a delivery wakes this shard,
                // unless every live shard is asleep.
                st.asleep[shard] = true;
                if st.stalled() {
                    self.wake_all();
                }
                while st.asleep[shard] && st.stop.is_none() {
                    st = self.wake[shard]
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                continue;
            };
            st.states[rank] = TaskState::Running;
            drop(st);
            let ready = poll(rank / self.shards(), &mut cx).is_ready();
            st = self.lock();
            if ready {
                if st.finish(rank) {
                    self.wake_all();
                }
            } else {
                // The only legal yield is a parked receive; anything else
                // could never be woken. Another shard may already have
                // delivered to the parked task and made it runnable.
                assert!(
                    !matches!(st.states[rank], TaskState::Running),
                    "node {rank} yielded to the scheduler without parking"
                );
            }
        }
    }

    /// Stops every shard because a node panicked; the first failure wins.
    pub(crate) fn fail(&self, payload: Box<dyn Any + Send>) {
        self.lock().stop.get_or_insert(Stop::Panic(payload));
        self.wake_all();
    }

    fn wake_all(&self) {
        for cv in &self.wake {
            cv.notify_all();
        }
    }

    /// Why the shards stopped early, if they did.
    pub(crate) fn take_stop(&self) -> Option<Stop> {
        self.lock().stop.take()
    }
}

/// Rank `r` lives on shard `r mod shards`.
fn shard_of(rank: usize, shards: usize) -> usize {
    rank % shards
}

impl FabricState {
    /// Queues `msg` and wakes `to` if parked; returns the shard to
    /// notify when that shard is asleep, so a shard that is busy (always
    /// the case with one shard) costs no system call.
    fn deliver(&mut self, to: usize, msg: Message) -> Option<usize> {
        self.inboxes[to].push_back(msg);
        let TaskState::Parked { clock, .. } = self.states[to] else {
            return None;
        };
        self.states[to] = TaskState::Runnable;
        let shard = shard_of(to, self.asleep.len());
        self.runnable[shard].push(sched_key(clock, to));
        std::mem::take(&mut self.asleep[shard]).then_some(shard)
    }

    /// Moves `rank`'s queued messages onto `pending`, or parks the
    /// running `rank` if there are none; returns whether it parked.
    fn drain_or_park(
        &mut self,
        rank: usize,
        pending: &mut Mailbox,
        clock: SimTime,
        wait: WaitKind,
    ) -> bool {
        let inbox = &mut self.inboxes[rank];
        if inbox.is_empty() {
            self.states[rank] = TaskState::Parked { clock, wait };
            return true;
        }
        pending.extend(inbox.drain(..));
        false
    }

    /// Marks `rank` done; returns whether that left every other live
    /// shard asleep (and so stopped the fabric).
    fn finish(&mut self, rank: usize) -> bool {
        self.states[rank] = TaskState::Done;
        let shard = shard_of(rank, self.live.len());
        self.live[shard] -= 1;
        self.live[shard] == 0 && self.stalled()
    }

    /// Stops the fabric with the deadlock report if some shard has live
    /// tasks and every such shard is asleep: no rank is runnable and none
    /// ever will be.
    fn stalled(&mut self) -> bool {
        let stuck = self.live.iter().any(|&n| n > 0)
            && (self.live.iter().zip(&self.asleep)).all(|(&n, &asleep)| n == 0 || asleep);
        if self.stop.is_some() || !stuck {
            return false;
        }
        self.stop = Some(Stop::Deadlock(self.deadlock_report()));
        true
    }

    /// A per-rank wait report for the deadlock panic.
    fn deadlock_report(&self) -> String {
        let mut out = String::from("cluster deadlocked; per-node waits:\n");
        for (rank, s) in self.states.iter().enumerate() {
            let group = match &self.groups[rank] {
                Some(label) => format!(" [comm group {label}]"),
                None => String::from(" [global comm]"),
            };
            match s {
                TaskState::Parked { clock, wait } => {
                    let _ = writeln!(
                        out,
                        "  node {rank}: parked at t={:.6}s waiting for {} ({} queued){group}",
                        clock.as_secs(),
                        wait.describe(),
                        self.inboxes[rank].len()
                    );
                }
                TaskState::Runnable | TaskState::Running => {
                    let _ = writeln!(out, "  node {rank}: runnable{group}");
                }
                TaskState::Done => {
                    let _ = writeln!(out, "  node {rank}: done");
                }
            }
        }
        out
    }
}

/// The yield point of a blocking receive: a poll moves whatever the
/// rank's mailbox holds into the endpoint's pending mailbox and completes,
/// or, with the mailbox empty, parks the task until a delivery makes it
/// runnable again.
pub(crate) struct Park<'a> {
    pub(crate) fabric: &'a Fabric,
    pub(crate) rank: usize,
    pub(crate) pending: &'a mut Mailbox,
    pub(crate) clock: SimTime,
    pub(crate) wait: WaitKind,
}

impl Future for Park<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.fabric.lock();
        if st.drain_or_park(this.rank, this.pending, this.clock, this.wait) {
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: usize) -> Message {
        Message {
            from,
            tag: Tag::user(1),
            arrival: SimTime::ZERO,
            depart: SimTime::ZERO,
            bytes: vec![1, 2, 3],
        }
    }

    /// Runs `rank` as its shard would, then parks it at `secs` on `wait`.
    fn park(st: &mut FabricState, rank: usize, secs: f64, wait: WaitKind) {
        let shard = shard_of(rank, st.asleep.len());
        st.runnable[shard].retain(|&Reverse((_, r))| r != rank);
        st.states[rank] = TaskState::Running;
        let clock = SimTime::from_secs(secs);
        assert!(st.drain_or_park(rank, &mut Mailbox::default(), clock, wait));
    }

    fn any() -> WaitKind {
        WaitKind::Any { tag: Tag::user(1) }
    }

    #[test]
    fn delivery_wakes_a_parked_task() {
        let fabric = Fabric::new(2, 1);
        let mut f = fabric.lock();
        park(&mut f, 1, 3.0, any());
        // Only rank 0 is runnable while 1 is parked.
        assert_eq!(f.runnable[0].peek().map(|k| k.0 .1), Some(0));
        f.runnable[0].clear();
        assert!(!f.finish(0));
        assert_eq!(f.deliver(1, msg(0)), None, "a busy shard needs no wakeup");
        assert_eq!(f.runnable[0].peek().map(|k| k.0 .1), Some(1));
        drop(f);
        let mut pending = Mailbox::default();
        fabric.drain_into(1, &mut pending);
        fabric.drain_into(1, &mut pending);
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn scheduler_prefers_smallest_clock_then_rank() {
        let fabric = Fabric::new(3, 1);
        let mut f = fabric.lock();
        for (rank, secs) in [(0, 5.0), (1, 2.0), (2, 2.0)] {
            park(&mut f, rank, secs, any());
            f.deliver(rank, msg(rank));
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| f.runnable[0].pop().map(|k| k.0 .1)).collect();
        assert_eq!(order, vec![1, 2, 0], "ties break by rank");
    }

    #[test]
    fn a_delivery_before_the_park_completes_it() {
        let fabric = Fabric::new(1, 1);
        let mut cx = Context::from_waker(Waker::noop());
        let mut pending = Mailbox::default();
        for queued in [false, true] {
            fabric.lock().states[0] = TaskState::Running;
            if queued {
                fabric.deliver(0, msg(0));
            }
            let mut park = Park {
                fabric: &fabric,
                rank: 0,
                pending: &mut pending,
                clock: SimTime::ZERO,
                wait: any(),
            };
            // A message already queued means there is nothing to wait for.
            assert_eq!(Pin::new(&mut park).poll(&mut cx).is_ready(), queued);
            let parked = matches!(fabric.lock().states[0], TaskState::Parked { .. });
            assert_eq!(parked, !queued);
        }
        assert_eq!(pending.len(), 1, "the queued message moved to pending");
    }

    #[test]
    fn sleeping_shards_are_woken_and_a_full_stall_stops_the_fabric() {
        let fabric = Fabric::new(2, 2);
        let mut f = fabric.lock();
        park(&mut f, 0, 0.0, any());
        park(&mut f, 1, 0.0, any());
        f.asleep[0] = true;
        assert!(!f.stalled(), "shard 1 is still awake");
        assert_eq!(f.deliver(0, msg(1)), Some(0), "the sleeping shard is woken");
        assert!(!f.asleep[0]);
        f.asleep = vec![true, true];
        assert!(f.stalled());
        assert!(matches!(f.stop, Some(Stop::Deadlock(_))));
    }

    #[test]
    fn deadlock_report_names_group_membership() {
        let fabric = Fabric::new(3, 1);
        fabric.set_group(0, Some("g0".into()));
        fabric.set_group(1, Some("leaders".into()));
        let mut f = fabric.lock();
        let wait = WaitKind::From {
            from: 1,
            tag: Tag::user(0x0200),
        };
        park(&mut f, 0, 1.0, wait);
        park(&mut f, 1, 2.0, any());
        let report = f.deadlock_report();
        assert!(report.contains("node 0: parked") && report.contains("[comm group g0]"));
        assert!(report.contains("[comm group leaders]"), "{report}");
        // Rank 2 never joined a sub-communicator: global.
        assert!(
            report.contains("node 2: runnable [global comm]"),
            "{report}"
        );
        // Leaving a group reverts to the global label.
        f.groups[1] = None;
        assert!(f.deadlock_report().contains("node 1: parked"));
        assert!(!f.deadlock_report().contains("leaders"), "label must clear");
    }
}
