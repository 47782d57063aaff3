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
//! Receives are *selective* (by sender and tag); out-of-order arrivals park
//! in the endpoint's `Mailbox`, one FIFO per `(sender, tag)`, so a
//! receive costs O(log pending) however many messages wait. The blocking
//! receives are `async`: the `.await` is the point where a task with
//! nothing to receive yields to its shard.

use std::collections::{BTreeSet, HashMap, VecDeque};
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

/// The messages a node has received but not yet taken. Each `(from, tag)`
/// pair has a FIFO of its own, and each tag an index of its messages in
/// [`Endpoint::recv_any`]'s order, `(arrival, from, seq)`, where `seq`
/// numbers the messages in the order they reached the mailbox. Empty
/// queues and indexes are dropped, as a collective's tag is used once.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    queues: HashMap<(usize, Tag), VecDeque<(u64, Message)>>,
    by_arrival: HashMap<Tag, BTreeSet<(SimTime, usize, u64)>>,
    seq: u64,
}

impl Mailbox {
    /// Files `msgs`, in order, behind the messages already held.
    pub(crate) fn extend(&mut self, msgs: impl IntoIterator<Item = Message>) {
        for msg in msgs {
            let index = self.by_arrival.entry(msg.tag).or_default();
            index.insert((msg.arrival, msg.from, self.seq));
            let queue = self.queues.entry((msg.from, msg.tag)).or_default();
            queue.push_back((self.seq, msg));
            self.seq += 1;
        }
    }

    /// Messages held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Takes the oldest message from `from` with `tag`.
    fn take_from(&mut self, from: usize, tag: Tag) -> Option<Message> {
        let (seq, msg) = self.queues.get(&(from, tag))?.front()?;
        let entry = (msg.arrival, from, *seq);
        Some(self.take(tag, entry))
    }

    /// Takes the first message in `(arrival, from, seq)` order among those
    /// with any of `tags`.
    fn take_earliest(&mut self, tags: &[Tag]) -> Option<Message> {
        let (entry, tag) = tags
            .iter()
            .filter_map(|tag| Some((*self.by_arrival.get(tag)?.first()?, *tag)))
            .min_by_key(|&(entry, _)| entry)?;
        Some(self.take(tag, entry))
    }

    /// Removes the held message `entry = (arrival, from, seq)` with `tag`.
    /// Links are FIFO, so the search of its queue ends at the front in
    /// practice.
    fn take(&mut self, tag: Tag, entry: (SimTime, usize, u64)) -> Message {
        let (_, from, seq) = entry;
        let index = self
            .by_arrival
            .get_mut(&tag)
            .expect("a held tag is indexed");
        index.remove(&entry);
        if index.is_empty() {
            self.by_arrival.remove(&tag);
        }
        let queue = self
            .queues
            .get_mut(&(from, tag))
            .expect("a held message is queued");
        let at = queue.iter().position(|(s, _)| *s == seq);
        let (_, msg) = queue
            .remove(at.expect("an indexed message is in its queue"))
            .expect("a position in the queue");
        if queue.is_empty() {
            self.queues.remove(&(from, tag));
        }
        msg
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
    /// arriving message matching one of `tags`, waiting for one to exist if
    /// necessary (ties broken by sender rank, then by the order the
    /// messages reached the mailbox — a total, scheduling-independent
    /// order). Merges the arrival timestamp into the clock (the wait).
    ///
    /// No per-message CPU overhead is charged here: batch receivers charge
    /// `recv_overhead` in aggregate once the batch completes, which keeps
    /// the virtual clock independent of the real-thread interleaving (the
    /// arrival merge is a pure `max`, so *it* commutes; interleaved
    /// additive charges would not).
    ///
    /// Never returns if no matching message is ever sent (see
    /// [`Self::recv_from`]).
    pub async fn recv_any(&mut self, tags: &[Tag], charger: &mut Charger) -> Message {
        loop {
            self.fabric.drain_into(self.rank, &mut self.pending);
            if let Some(msg) = self.pending.take_earliest(tags) {
                charger.merge_arrival_from(msg.arrival, msg.from, msg.depart);
                return msg;
            }
            self.await_delivery(
                WaitKind::Any {
                    tags: tags.to_vec(),
                },
                charger.now(),
            )
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
                    let first = ctx.recv_any(&[Tag::user(1)]).await;
                    let second = ctx.recv_any(&[Tag::user(1)]).await;
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
    fn mailbox_keeps_each_pair_fifo_and_the_arrival_order() {
        let msg = |from, kind, secs, byte| Message {
            from,
            tag: Tag::user(kind),
            arrival: SimTime::from_secs(secs),
            depart: SimTime::ZERO,
            bytes: vec![byte],
        };
        let mut mailbox = Mailbox::default();
        mailbox.extend([
            msg(2, 1, 1.0, 0),
            msg(1, 1, 1.0, 1),
            msg(1, 2, 0.5, 2),
            msg(1, 1, 1.0, 3),
            msg(0, 1, 2.0, 4),
            msg(1, 2, 1.0, 5),
        ]);
        assert_eq!(mailbox.len(), 6);
        // A selective receive takes its pair's oldest message.
        assert_eq!(mailbox.take_from(1, Tag::user(1)).unwrap().bytes, [1]);
        assert!(mailbox.take_from(0, Tag::user(2)).is_none());
        // An arrival-ordered one: arrival, then sender, then mailbox order,
        // across the tags it names only.
        let mut order = Vec::new();
        while let Some(m) = mailbox.take_earliest(&[Tag::user(1), Tag::user(2)]) {
            order.push(m.bytes[0]);
        }
        assert_eq!(order, [2, 3, 5, 0, 4]);
        assert!(mailbox.queues.is_empty() && mailbox.by_arrival.is_empty());
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
            let msg = ctx.recv_any(&[Tag::user(1)]).await;
            let parked = ctx.recv_from(0, Tag::user(9)).await;
            Some((msg.bytes, parked.bytes))
        });
        assert_eq!(got[1], Some((vec![1], vec![9])));
    }
}
