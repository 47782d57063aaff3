//! Point-to-point messaging with Lamport-timestamped delivery.
//!
//! Every node owns an [`Endpoint`]. A message records its *arrival time* —
//! the sender's clock at send plus the network's wire time — and the
//! receiver merges that into its own clock, so causality and waiting fall
//! out of the timestamps without a global scheduler.
//!
//! Every endpoint talks through one shared `Fabric` of per-rank mailboxes,
//! whichever runtime runs the nodes. A send lands in the receiver's
//! mailbox at once; a blocking receive that finds nothing parks the node
//! *task* until a delivery wakes it. The fabric sees every parked task, so
//! a deadlock is reported as soon as no task can run, with no timeout.
//!
//! The virtual-time arithmetic (link occupancy, arrival stamps, delivery
//! charges) depends only on each node's program order, which is what makes
//! the two runtimes produce bit-identical clocks on blocking exchange
//! patterns.
//!
//! Receives are *selective* (by sender and tag), as in MPI, and no message
//! overtakes an earlier one from the same sender; messages not yet asked
//! for wait in the endpoint's `Mailbox`, one FIFO per sender. A selective
//! receive searches one sender's FIFO, an any-source receive the FIFOs of
//! the senders with messages held. The blocking receives are `async`: the
//! `.await` is the point where a task with nothing to receive yields to
//! its shard.

use std::sync::Arc;

use sim::SimTime;

use crate::charge::Charger;
use crate::events::{Fabric, Park, WaitKind};
use crate::net::NetworkModel;

/// Message tag: a user kind plus a sequence number for collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

impl Tag {
    /// A user-level tag (kinds `0..=0x7FFF`).
    pub fn user(kind: u16) -> Tag {
        assert!(kind < 0x8000, "user tags must be below 0x8000");
        Tag(kind as u64)
    }

    /// An internal collective tag: kind ≥ 0x8000 plus a per-endpoint
    /// sequence number (all nodes execute collectives in the same order, so
    /// sequence numbers agree).
    pub(crate) fn collective(kind: u16, seq: u64) -> Tag {
        debug_assert!(kind >= 0x8000);
        Tag((kind as u64) | (seq << 16))
    }
}

/// A delivered message.
#[derive(Debug)]
pub struct Message {
    /// Sender rank.
    pub from: usize,
    /// Tag it was sent with.
    pub tag: Tag,
    /// Virtual time at which the bytes are fully available at the receiver.
    pub arrival: SimTime,
    /// Virtual time at which transmission started on the sender's link
    /// (equals the send instant for self-sends). Provenance for the
    /// critical-path analyzer: the receiver's wait on this message traces
    /// back to the sender at this instant.
    pub depart: SimTime,
    /// Payload.
    pub bytes: Vec<u8>,
}

/// The messages a node has received but not yet taken: one FIFO per
/// sender, in the order they reached the mailbox. Links are FIFO, so each
/// sender's arrivals are nondecreasing along its FIFO, and a sender's
/// first message with a tag is also its earliest-arriving one. The FIFOs
/// are lists threaded through one slab of slots, reused once taken, so a
/// node's mailbox stops allocating once it has held its most messages at
/// once (DESIGN §5j says why not a `VecDeque` per sender).
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Each message with the slot of the next one from its sender; `None`
    /// once taken.
    slots: Vec<(Option<Message>, usize)>,
    /// Slots whose message was taken.
    free: Vec<usize>,
    /// Per sender rank: the first and the last slot of its FIFO.
    ends: Vec<(usize, usize)>,
    /// The senders whose FIFO is not empty, in no particular order.
    senders: Vec<usize>,
}

/// The end of a FIFO.
const NIL: usize = usize::MAX;

impl Mailbox {
    /// Files `msgs`, in order, behind the messages already held.
    pub(crate) fn extend(&mut self, msgs: impl IntoIterator<Item = Message>) {
        for msg in msgs {
            let from = msg.from;
            if from >= self.ends.len() {
                self.ends.resize(from + 1, (NIL, NIL));
            }
            let tail = self.ends[from].1;
            debug_assert!(
                tail == NIL || self.message(tail).arrival <= msg.arrival,
                "a link from rank {from} delivered out of arrival order"
            );
            let at = self.free.pop().unwrap_or(self.slots.len());
            if at == self.slots.len() {
                self.slots.push((None, NIL));
            }
            self.slots[at] = (Some(msg), NIL);
            match tail {
                NIL => {
                    self.ends[from].0 = at;
                    self.senders.push(from);
                }
                _ => self.slots[tail].1 = at,
            }
            self.ends[from].1 = at;
        }
    }

    /// Messages held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn message(&self, at: usize) -> &Message {
        let slot = &self.slots[at].0;
        slot.as_ref().expect("a listed slot holds a message")
    }

    /// The slot of the first message from `from` with `tag`, after the
    /// slot before it in `from`'s FIFO.
    fn find(&self, from: usize, tag: Tag) -> Option<(usize, usize)> {
        let (mut prev, mut at) = (NIL, self.ends.get(from)?.0);
        while at != NIL && self.message(at).tag != tag {
            (prev, at) = (at, self.slots[at].1);
        }
        (at != NIL).then_some((prev, at))
    }

    /// Takes the oldest message from `from` with `tag`.
    fn take_from(&mut self, from: usize, tag: Tag) -> Option<Message> {
        let (prev, at) = self.find(from, tag)?;
        Some(self.take(from, prev, at))
    }

    /// Takes the message with `tag` that arrived first, the lower sender
    /// rank first on ties.
    fn take_earliest(&mut self, tag: Tag) -> Option<Message> {
        let (_, from, prev, at) = (self.senders.iter())
            .filter_map(|&from| {
                let (prev, at) = self.find(from, tag)?;
                Some((self.message(at).arrival, from, prev, at))
            })
            .min_by_key(|&(arrival, from, ..)| (arrival, from))?;
        Some(self.take(from, prev, at))
    }

    /// Unlinks slot `at`, which follows slot `prev` in `from`'s FIFO.
    fn take(&mut self, from: usize, prev: usize, at: usize) -> Message {
        let (msg, next) = (self.slots[at].0.take(), self.slots[at].1);
        match prev {
            NIL => self.ends[from].0 = next,
            _ => self.slots[prev].1 = next,
        }
        if self.ends[from].1 == at {
            self.ends[from].1 = prev;
        }
        if self.ends[from].0 == NIL {
            let i = self.senders.iter().position(|&s| s == from);
            self.senders
                .swap_remove(i.expect("a held sender is listed"));
        }
        self.free.push(at);
        msg.expect("a listed slot holds a message")
    }
}

/// One node's communication port.
pub struct Endpoint {
    rank: usize,
    p: usize,
    fabric: Arc<Fabric>,
    pending: Mailbox,
    net: NetworkModel,
    /// Per-destination link occupancy: the virtual time at which this
    /// node's outgoing link to each peer finishes its last transmission.
    /// Makes links FIFO (a later message cannot overtake an earlier one).
    link_free: Vec<SimTime>,
    pub(crate) coll_seq: u64,
    sent_messages: u64,
    sent_bytes: u64,
}

impl Endpoint {
    /// The port of `rank` in a `p`-node cluster wired through `fabric`.
    pub(crate) fn new(rank: usize, p: usize, fabric: Arc<Fabric>, net: NetworkModel) -> Endpoint {
        Endpoint {
            rank,
            p,
            fabric,
            pending: Mailbox::default(),
            net,
            link_free: vec![SimTime::ZERO; p],
            coll_seq: 0,
            sent_messages: 0,
            sent_bytes: 0,
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The fabric model in use.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Labels this rank with its current sub-communicator for deadlock
    /// diagnostics (`None` = back on the global communicator).
    pub fn set_group_label(&mut self, label: Option<&str>) {
        self.fabric.set_group(self.rank, label.map(String::from));
    }

    /// Messages sent so far (excluding self-sends).
    pub fn sent_messages(&self) -> u64 {
        self.sent_messages
    }

    /// Bytes sent so far (excluding self-sends).
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Sends `bytes` to node `to`. Charges the sender the per-message CPU
    /// overhead; the wire time shows up in the message's arrival timestamp.
    /// Self-sends are free local moves. Never blocks (mailboxes queue
    /// without bound), so sends are not yield points.
    pub fn send(&mut self, to: usize, tag: Tag, bytes: Vec<u8>, charger: &mut Charger) {
        assert!(to < self.p, "send to rank {to} of {}", self.p);
        let (depart, arrival) = if to == self.rank {
            (charger.now(), charger.now())
        } else {
            charger.charge_cpu_raw(self.net.send_overhead);
            self.sent_messages += 1;
            self.sent_bytes += bytes.len() as u64;
            // Store-and-forward FIFO link: transmission starts when both
            // the sender and the link are ready; the link stays busy for
            // the transfer, and the payload lands one latency later.
            let transfer = self.net.wire_time(bytes.len() as u64) - self.net.latency;
            let depart = charger.now().merge(self.link_free[to]);
            self.link_free[to] = depart + transfer;
            (depart, depart + transfer + self.net.latency)
        };
        let msg = Message {
            from: self.rank,
            tag,
            arrival,
            depart,
            bytes,
        };
        self.fabric.deliver(to, msg);
    }

    /// Waits until at least one new message lands in the pending mailbox,
    /// parking the task while the mailbox is empty.
    async fn await_delivery(&mut self, wait: WaitKind, now: SimTime) {
        Park {
            fabric: &self.fabric,
            rank: self.rank,
            pending: &mut self.pending,
            clock: now,
            wait,
        }
        .await
    }

    /// Receives the next message from `from` with tag `tag`, blocking until
    /// it arrives. Merges the arrival timestamp into the node clock.
    ///
    /// Never returns if no matching message is ever sent: the task stays
    /// parked, and once every task is parked or done, [`crate::run_cluster`]
    /// panics with the per-node deadlock report.
    pub async fn recv_from(&mut self, from: usize, tag: Tag, charger: &mut Charger) -> Message {
        loop {
            if let Some(msg) = self.pending.take_from(from, tag) {
                self.charge_delivery(&msg, charger);
                return msg;
            }
            self.await_delivery(WaitKind::From { from, tag }, charger.now())
                .await;
        }
    }

    /// Per-message receive cost (self-deliveries are free local moves),
    /// then the Lamport merge of the arrival timestamp.
    fn charge_delivery(&self, msg: &Message, charger: &mut Charger) {
        if msg.from != self.rank {
            charger.charge_cpu_raw(self.net.recv_overhead);
        }
        charger.merge_arrival_from(msg.arrival, msg.from, msg.depart);
    }

    /// Blocking arrival-ordered receive from **any** source: the earliest-
    /// arriving message with `tag`, waiting for one to exist if necessary
    /// (ties broken by sender rank; one sender's messages arrive in the
    /// order it sent them — a total, scheduling-independent order). Merges
    /// the arrival timestamp into the clock (the wait).
    ///
    /// No per-message CPU overhead is charged here: batch receivers charge
    /// `recv_overhead` in aggregate once the batch completes, which keeps
    /// the virtual clock independent of the real-thread interleaving (the
    /// arrival merge is a pure `max`, so *it* commutes; interleaved
    /// additive charges would not).
    ///
    /// Never returns if no matching message is ever sent (see
    /// [`Self::recv_from`]).
    pub async fn recv_any(&mut self, tag: Tag, charger: &mut Charger) -> Message {
        loop {
            self.fabric.drain_into(self.rank, &mut self.pending);
            if let Some(msg) = self.pending.take_earliest(tag) {
                charger.merge_arrival_from(msg.arrival, msg.from, msg.depart);
                return msg;
            }
            self.await_delivery(WaitKind::Any { tag }, charger.now())
                .await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::values_on_both_runtimes;

    #[test]
    fn two_node_ping_pong() {
        let clocks = values_on_both_runtimes(2, NetworkModel::fast_ethernet(), async |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, Tag::user(1), b"ping".to_vec());
                let reply = ctx.recv_from(1, Tag::user(2)).await;
                assert_eq!(reply.bytes, b"pong");
            } else {
                let msg = ctx.recv_from(0, Tag::user(1)).await;
                assert_eq!(msg.bytes, b"ping");
                ctx.send(0, Tag::user(2), b"pong".to_vec());
            }
            ctx.charger.now()
        });
        // The reply's arrival is after two wire traversals.
        assert!(clocks[0] > clocks[1].merge(SimTime::ZERO) || clocks[0].as_secs() > 0.0);
        assert!(
            clocks[0].as_secs() >= 2.0 * 100e-6,
            "two latencies: {}",
            clocks[0]
        );
    }

    #[test]
    fn selective_receive_reorders() {
        let got = values_on_both_runtimes(2, NetworkModel::infinite(), async |ctx| {
            if ctx.rank == 0 {
                for kind in 1..=3 {
                    ctx.send(1, Tag::user(kind), vec![kind as u8]);
                }
                return Vec::new();
            }
            // Receive in reverse tag order.
            let mut got = Vec::new();
            for kind in (1..=3).rev() {
                got.push(ctx.recv_from(0, Tag::user(kind)).await.bytes);
            }
            got
        });
        assert_eq!(got[1], vec![vec![3], vec![2], vec![1]]);
    }

    #[test]
    fn arrival_timestamp_reflects_bandwidth() {
        let got = values_on_both_runtimes(2, NetworkModel::fast_ethernet(), async |ctx| {
            if ctx.rank == 0 {
                let payload = vec![0u8; 1_250_000]; // 0.1 s on 12.5 MB/s
                ctx.send(1, Tag::user(1), payload);
                return None;
            }
            let msg = ctx.recv_from(0, Tag::user(1)).await;
            Some((msg.arrival, ctx.charger.now()))
        });
        let (arrival, now) = got[1].expect("receiver reports");
        assert!(arrival.as_secs() >= 0.1, "arrival {arrival}");
        assert_eq!(now, arrival); // receiver waited for the bytes
    }

    #[test]
    fn self_send_is_instant() {
        let got = values_on_both_runtimes(1, NetworkModel::fast_ethernet(), async |ctx| {
            ctx.send(0, Tag::user(1), vec![42]);
            let msg = ctx.recv_from(0, Tag::user(1)).await;
            (msg.bytes, ctx.charger.now().as_secs(), ctx.sent_messages())
        });
        assert_eq!(got[0], (vec![42], 0.0, 0));
    }

    #[test]
    fn typed_records_roundtrip() {
        let data: Vec<u32> = (0..100).collect();
        let got = values_on_both_runtimes(2, NetworkModel::infinite(), async |ctx| {
            if ctx.rank == 0 {
                ctx.send_records(1, Tag::user(7), &data);
                return Vec::new();
            }
            ctx.recv_records::<u32>(0, Tag::user(7)).await
        });
        assert_eq!(got[1], data);
    }

    #[test]
    fn traffic_counters() {
        let got = values_on_both_runtimes(2, NetworkModel::infinite(), async |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, Tag::user(1), vec![0; 100]);
                ctx.send(1, Tag::user(1), vec![0; 50]);
            }
            (ctx.sent_messages(), ctx.sent_bytes())
        });
        assert_eq!(got[0], (2, 150));
    }

    #[test]
    #[should_panic(expected = "user tags must be below")]
    fn user_tag_range_enforced() {
        let _ = Tag::user(0x8000);
    }

    #[test]
    fn recv_any_orders_by_arrival_not_rank() {
        // Both senders transmit before the receiver looks; the bigger
        // payload from the lower rank arrives later, so arrival order and
        // rank order disagree. recv_any must follow arrivals. Rank 3 tells
        // rank 2 when both sends are in its mailbox, over links the big
        // payload does not occupy.
        let got = values_on_both_runtimes(4, NetworkModel::fast_ethernet(), async |ctx| {
            match ctx.rank {
                0 | 1 => {
                    let size = if ctx.rank == 0 { 500_000 } else { 100 }; // 40 ms vs fast wire
                    ctx.send(2, Tag::user(1), vec![7u8; size]);
                    ctx.send(3, Tag::user(2), Vec::new());
                    None
                }
                3 => {
                    for from in 0..2 {
                        let _ = ctx.recv_from(from, Tag::user(2)).await;
                    }
                    ctx.send(2, Tag::user(3), Vec::new());
                    None
                }
                _ => {
                    let _ = ctx.recv_from(3, Tag::user(3)).await;
                    let first = ctx.recv_any(Tag::user(1)).await;
                    let second = ctx.recv_any(Tag::user(1)).await;
                    Some((
                        (first.from, first.arrival),
                        (second.from, second.arrival),
                        ctx.charger.now(),
                    ))
                }
            }
        });
        let ((first, first_at), (second, second_at), now) = got[2].expect("receiver reports");
        assert_eq!(first, 1, "earlier arrival must win");
        assert_eq!(second, 0);
        assert!(first_at <= second_at);
        // The clock merged both arrivals (pure max — no additive charge).
        assert_eq!(now, second_at.merge(first_at));
    }

    #[test]
    fn mailbox_keeps_each_sender_fifo_and_the_arrival_order() {
        let msg = |from, kind, secs, byte| Message {
            from,
            tag: Tag::user(kind),
            arrival: SimTime::from_secs(secs),
            depart: SimTime::ZERO,
            bytes: vec![byte],
        };
        let mut mailbox = Mailbox::default();
        // Each sender's arrivals are nondecreasing, as over a FIFO link.
        mailbox.extend([
            msg(2, 1, 1.0, 0),
            msg(1, 1, 0.5, 1),
            msg(1, 2, 0.5, 2),
            msg(1, 1, 1.0, 3),
            msg(0, 1, 2.0, 4),
            msg(1, 2, 1.0, 5),
        ]);
        assert_eq!(mailbox.len(), 6);
        // A selective receive takes its sender's oldest message with the tag.
        assert_eq!(mailbox.take_from(1, Tag::user(1)).unwrap().bytes, [1]);
        assert!(mailbox.take_from(0, Tag::user(2)).is_none());
        assert!(mailbox.take_from(7, Tag::user(1)).is_none());
        // An arrival-ordered one: arrival, then sender, past the earlier
        // message with another tag at the front of sender 1's FIFO.
        let mut order = Vec::new();
        while let Some(m) = mailbox.take_earliest(Tag::user(1)) {
            order.push(m.bytes[0]);
        }
        mailbox.extend([msg(1, 2, 1.5, 6)]);
        while let Some(m) = mailbox.take_earliest(Tag::user(2)) {
            order.push(m.bytes[0]);
        }
        assert_eq!(order, [3, 0, 4, 2, 5, 6]);
        assert_eq!(mailbox.len(), 0);
    }

    #[test]
    fn recv_any_matches_tag_filter() {
        let got = values_on_both_runtimes(2, NetworkModel::infinite(), async |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, Tag::user(9), vec![9]);
                ctx.send(1, Tag::user(1), vec![1]);
                return None;
            }
            // Only tag 1 qualifies; tag 9 stays pending for a later
            // selective receive.
            let msg = ctx.recv_any(Tag::user(1)).await;
            let parked = ctx.recv_from(0, Tag::user(9)).await;
            Some((msg.bytes, parked.bytes))
        });
        assert_eq!(got[1], Some((vec![1], vec![9])));
    }
}
