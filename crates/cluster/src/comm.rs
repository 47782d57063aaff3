//! Point-to-point messaging with Lamport-timestamped delivery.
//!
//! Every node owns an [`Endpoint`]. A message records its *arrival time* —
//! the sender's clock at send plus the network's wire time — and the
//! receiver merges that into its own clock, so causality and waiting fall
//! out of the timestamps without a global scheduler.
//!
//! Endpoints run over one of two transports, chosen by the runtime:
//!
//! * **Threads** — an inbound mpsc channel plus senders to every node;
//!   blocking receives park the OS thread. A 60-second real-time timeout
//!   turns an algorithmic deadlock into a loud panic instead of a hung
//!   test suite.
//! * **Events** — a shared `Fabric` mailbox; blocking receives park the
//!   node *task* on the single-threaded event scheduler, which detects
//!   deadlock immediately (all tasks parked) instead of timing out.
//!
//! The virtual-time arithmetic (link occupancy, arrival stamps, delivery
//! charges) is transport-independent, which is what makes the two runtimes
//! produce bit-identical clocks on blocking exchange patterns.
//!
//! Receives are *selective* (by sender and tag); out-of-order arrivals park
//! in a pending list. The blocking receives are `async`: under the thread
//! transport they never actually yield (the channel read blocks
//! internally), under the event transport the `.await` is the yield point.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pdm::{record, Record};
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

/// How messages physically move between endpoints. Virtual-time stamps are
/// computed identically on both arms; only the carrier differs.
#[derive(Debug)]
enum Transport {
    /// One unbounded mpsc channel per node (thread runtime).
    Threads {
        rx: Receiver<Message>,
        txs: Vec<Sender<Message>>,
    },
    /// Shared mailbox fabric (event runtime). The mutex is never contended
    /// — the event loop is single-threaded — it only keeps `Endpoint: Send`.
    Events { fabric: Arc<Mutex<Fabric>> },
}

/// One node's communication port.
#[derive(Debug)]
pub struct Endpoint {
    rank: usize,
    p: usize,
    transport: Transport,
    pending: Vec<Message>,
    net: NetworkModel,
    /// Per-destination link occupancy: the virtual time at which this
    /// node's outgoing link to each peer finishes its last transmission.
    /// Makes links FIFO (a later message cannot overtake an earlier one).
    link_free: Vec<SimTime>,
    pub(crate) coll_seq: u64,
    sent_messages: u64,
    sent_bytes: u64,
}

/// How long a blocking receive waits (wall-clock) before declaring the
/// cluster deadlocked. Thread transport only; the event scheduler detects
/// deadlock exactly, with no timeout.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(60);

impl Endpoint {
    /// Wires up thread-transport endpoints for `p` nodes over the given
    /// fabric model.
    pub fn mesh(p: usize, net: NetworkModel) -> Vec<Endpoint> {
        let mut rxs = Vec::with_capacity(p);
        let mut txs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Endpoint::with_transport(
                    rank,
                    p,
                    Transport::Threads {
                        rx,
                        txs: txs.clone(),
                    },
                    net.clone(),
                )
            })
            .collect()
    }

    /// Wires up event-transport endpoints for `p` nodes; the returned
    /// fabric is handed to the event scheduler.
    pub(crate) fn event_mesh(p: usize, net: NetworkModel) -> (Vec<Endpoint>, Arc<Mutex<Fabric>>) {
        let fabric = Fabric::new(p);
        let eps = (0..p)
            .map(|rank| {
                Endpoint::with_transport(
                    rank,
                    p,
                    Transport::Events {
                        fabric: fabric.clone(),
                    },
                    net.clone(),
                )
            })
            .collect();
        (eps, fabric)
    }

    fn with_transport(rank: usize, p: usize, transport: Transport, net: NetworkModel) -> Endpoint {
        Endpoint {
            rank,
            p,
            transport,
            pending: Vec::new(),
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
    /// diagnostics (`None` = back on the global communicator). Only the
    /// event runtime keeps a central registry; the thread transport has no
    /// central deadlock reporter, so this is a no-op there.
    pub fn set_group_label(&mut self, label: Option<&str>) {
        if let Transport::Events { fabric } = &self.transport {
            fabric
                .lock()
                .expect("fabric lock")
                .set_group(self.rank, label.map(String::from));
        }
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
    /// Self-sends are free local moves. Never blocks (both transports queue
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
        match &self.transport {
            Transport::Threads { txs, .. } => txs[to].send(msg).expect("receiver endpoint dropped"),
            Transport::Events { fabric } => fabric.lock().expect("fabric lock").deliver(to, msg),
        }
    }

    /// Waits until at least one new message lands on the pending list. The
    /// thread transport blocks the OS thread on its channel (deadlock
    /// timeout); the event transport parks the task on the scheduler.
    async fn await_delivery(&mut self, wait: WaitKind, now: SimTime) {
        match &mut self.transport {
            Transport::Threads { rx, .. } => match rx.recv_timeout(DEADLOCK_TIMEOUT) {
                Ok(msg) => {
                    self.pending.push(msg);
                    // Absorb whatever else already landed while we slept.
                    while let Ok(m) = rx.try_recv() {
                        self.pending.push(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => panic!(
                    "node {} deadlocked waiting for {}; {} messages pending",
                    self.rank,
                    wait.describe(),
                    self.pending.len()
                ),
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("cluster torn down while node {} was receiving", self.rank)
                }
            },
            Transport::Events { fabric } => loop {
                let drained = fabric
                    .lock()
                    .expect("fabric lock")
                    .drain_into(self.rank, &mut self.pending);
                if drained {
                    return;
                }
                Park::new(fabric.clone(), self.rank, now, wait.clone()).await;
            },
        }
    }

    /// Moves everything already delivered onto the pending list without
    /// blocking.
    fn drain_available(&mut self) {
        match &mut self.transport {
            Transport::Threads { rx, .. } => {
                while let Ok(msg) = rx.try_recv() {
                    self.pending.push(msg);
                }
            }
            Transport::Events { fabric } => {
                fabric
                    .lock()
                    .expect("fabric lock")
                    .drain_into(self.rank, &mut self.pending);
            }
        }
    }

    /// Receives the next message from `from` with tag `tag`, blocking until
    /// it arrives. Merges the arrival timestamp into the node clock.
    ///
    /// # Panics
    /// Panics on deadlock: after 60 s of wall-clock inactivity under the
    /// thread transport, immediately under the event scheduler.
    pub async fn recv_from(&mut self, from: usize, tag: Tag, charger: &mut Charger) -> Message {
        loop {
            if let Some(i) = self
                .pending
                .iter()
                .position(|m| m.from == from && m.tag == tag)
            {
                let msg = self.pending.remove(i);
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

    /// Index of the pending message with the earliest arrival among those
    /// matching any of `tags` (ties broken by sender rank, then FIFO
    /// position — a total, scheduling-independent order).
    fn earliest_pending(&self, tags: &[Tag]) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .filter(|(_, m)| tags.contains(&m.tag))
            .min_by_key(|(i, m)| (m.arrival, m.from, *i))
            .map(|(i, _)| i)
    }

    /// Blocking arrival-ordered receive from **any** source: the earliest-
    /// arriving message matching one of `tags`, waiting for one to exist if
    /// necessary. Merges the arrival timestamp into the clock (the wait).
    ///
    /// No per-message CPU overhead is charged here: batch receivers charge
    /// `recv_overhead` in aggregate once the batch completes, which keeps
    /// the virtual clock independent of the real-thread interleaving (the
    /// arrival merge is a pure `max`, so *it* commutes; interleaved
    /// additive charges would not).
    ///
    /// # Panics
    /// Panics on deadlock (see [`Self::recv_from`]).
    pub async fn recv_any(&mut self, tags: &[Tag], charger: &mut Charger) -> Message {
        loop {
            self.drain_available();
            if let Some(i) = self.earliest_pending(tags) {
                let msg = self.pending.remove(i);
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

    /// Typed send: encodes records as their fixed-size little-endian bytes.
    pub fn send_records<R: Record>(
        &mut self,
        to: usize,
        tag: Tag,
        records: &[R],
        charger: &mut Charger,
    ) {
        self.send(to, tag, record::encode_all(records), charger);
    }

    /// Typed receive counterpart of [`Self::send_records`].
    pub async fn recv_records<R: Record>(
        &mut self,
        from: usize,
        tag: Tag,
        charger: &mut Charger,
    ) -> Vec<R> {
        let msg = self.recv_from(from, tag, charger).await;
        record::decode_all(&msg.bytes)
    }

    /// Typed receive into a caller-owned scratch buffer (cleared first).
    /// Receive loops that drain thousands of small chunks reuse one
    /// allocation instead of building a fresh `Vec<R>` per message.
    pub async fn recv_records_into<R: Record>(
        &mut self,
        from: usize,
        tag: Tag,
        out: &mut Vec<R>,
        charger: &mut Charger,
    ) {
        let msg = self.recv_from(from, tag, charger).await;
        record::decode_all_into(&msg.bytes, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CpuModel;
    use crate::events::block_on;
    use crate::spec::TimePolicy;
    use pdm::Disk;
    use sim::Jitter;

    fn charger() -> Charger {
        Charger::new(
            CpuModel::free(),
            1.0,
            Jitter::none(),
            Disk::in_memory(64),
            TimePolicy::Modeled,
        )
    }

    #[test]
    fn two_node_ping_pong() {
        let mut eps = Endpoint::mesh(2, NetworkModel::fast_ethernet());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let mut ch = charger();
            let msg = block_on(e1.recv_from(0, Tag::user(1), &mut ch));
            assert_eq!(msg.bytes, b"ping");
            e1.send(0, Tag::user(2), b"pong".to_vec(), &mut ch);
            ch.now()
        });
        let mut ch = charger();
        e0.send(1, Tag::user(1), b"ping".to_vec(), &mut ch);
        let reply = block_on(e0.recv_from(1, Tag::user(2), &mut ch));
        assert_eq!(reply.bytes, b"pong");
        let peer_time = t.join().unwrap();
        // The reply's arrival is after two wire traversals.
        assert!(ch.now() > peer_time.merge(SimTime::ZERO) || ch.now().as_secs() > 0.0);
        assert!(
            ch.now().as_secs() >= 2.0 * 100e-6,
            "two latencies: {}",
            ch.now()
        );
    }

    #[test]
    fn selective_receive_reorders() {
        let mut eps = Endpoint::mesh(2, NetworkModel::infinite());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch0 = charger();
        e0.send(1, Tag::user(1), vec![1], &mut ch0);
        e0.send(1, Tag::user(2), vec![2], &mut ch0);
        e0.send(1, Tag::user(3), vec![3], &mut ch0);
        let mut ch1 = charger();
        // Receive in reverse tag order.
        assert_eq!(
            block_on(e1.recv_from(0, Tag::user(3), &mut ch1)).bytes,
            vec![3]
        );
        assert_eq!(
            block_on(e1.recv_from(0, Tag::user(2), &mut ch1)).bytes,
            vec![2]
        );
        assert_eq!(
            block_on(e1.recv_from(0, Tag::user(1), &mut ch1)).bytes,
            vec![1]
        );
    }

    #[test]
    fn arrival_timestamp_reflects_bandwidth() {
        let mut eps = Endpoint::mesh(2, NetworkModel::fast_ethernet());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch0 = charger();
        let payload = vec![0u8; 1_250_000]; // 0.1 s on 12.5 MB/s
        e0.send(1, Tag::user(1), payload, &mut ch0);
        let mut ch1 = charger();
        let msg = block_on(e1.recv_from(0, Tag::user(1), &mut ch1));
        assert!(msg.arrival.as_secs() >= 0.1, "arrival {}", msg.arrival);
        assert_eq!(ch1.now(), msg.arrival); // receiver waited for the bytes
    }

    #[test]
    fn self_send_is_instant() {
        let mut eps = Endpoint::mesh(1, NetworkModel::fast_ethernet());
        let mut e0 = eps.pop().unwrap();
        let mut ch = charger();
        e0.send(0, Tag::user(1), vec![42], &mut ch);
        let msg = block_on(e0.recv_from(0, Tag::user(1), &mut ch));
        assert_eq!(msg.bytes, vec![42]);
        assert_eq!(ch.now().as_secs(), 0.0);
        assert_eq!(e0.sent_messages(), 0);
    }

    #[test]
    fn typed_records_roundtrip() {
        let mut eps = Endpoint::mesh(2, NetworkModel::infinite());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch0 = charger();
        let data: Vec<u32> = (0..100).collect();
        e0.send_records(1, Tag::user(7), &data, &mut ch0);
        let mut ch1 = charger();
        let got: Vec<u32> = block_on(e1.recv_records(0, Tag::user(7), &mut ch1));
        assert_eq!(got, data);
    }

    #[test]
    fn traffic_counters() {
        let mut eps = Endpoint::mesh(2, NetworkModel::infinite());
        let _e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch = charger();
        e0.send(1, Tag::user(1), vec![0; 100], &mut ch);
        e0.send(1, Tag::user(1), vec![0; 50], &mut ch);
        assert_eq!(e0.sent_messages(), 2);
        assert_eq!(e0.sent_bytes(), 150);
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
        // rank order disagree. recv_any must follow arrivals.
        let mut eps = Endpoint::mesh(3, NetworkModel::fast_ethernet());
        let mut e2 = eps.pop().unwrap();
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch0 = charger();
        let mut ch1 = charger();
        e0.send(2, Tag::user(1), vec![0u8; 500_000], &mut ch0); // slow: 40 ms wire
        e1.send(2, Tag::user(1), vec![7u8; 100], &mut ch1); // fast
        let mut ch2 = charger();
        let first = block_on(e2.recv_any(&[Tag::user(1)], &mut ch2));
        let second = block_on(e2.recv_any(&[Tag::user(1)], &mut ch2));
        assert_eq!(first.from, 1, "earlier arrival must win");
        assert_eq!(second.from, 0);
        assert!(first.arrival <= second.arrival);
        // The clock merged both arrivals (pure max — no additive charge).
        assert_eq!(ch2.now(), second.arrival.merge(first.arrival));
    }

    #[test]
    fn recv_any_matches_tag_filter() {
        let mut eps = Endpoint::mesh(2, NetworkModel::infinite());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch0 = charger();
        e0.send(1, Tag::user(9), vec![9], &mut ch0);
        e0.send(1, Tag::user(1), vec![1], &mut ch0);
        let mut ch1 = charger();
        // Only tag 1 qualifies; tag 9 stays pending for a later selective
        // receive.
        let msg = block_on(e1.recv_any(&[Tag::user(1)], &mut ch1));
        assert_eq!(msg.bytes, vec![1]);
        let parked = block_on(e1.recv_from(0, Tag::user(9), &mut ch1));
        assert_eq!(parked.bytes, vec![9]);
    }

    #[test]
    fn event_transport_delivers_without_threads() {
        // The same ping-pong as above, but over the event fabric with no
        // extra thread: sends land synchronously in the peer's mailbox, so
        // single-threaded sequential code can drive both endpoints.
        let (mut eps, _fabric) = Endpoint::event_mesh(2, NetworkModel::fast_ethernet());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let mut ch0 = charger();
        let mut ch1 = charger();
        e0.send(1, Tag::user(1), b"ping".to_vec(), &mut ch0);
        let msg = block_on(e1.recv_from(0, Tag::user(1), &mut ch1));
        assert_eq!(msg.bytes, b"ping");
        e1.send(0, Tag::user(2), b"pong".to_vec(), &mut ch1);
        let reply = block_on(e0.recv_from(1, Tag::user(2), &mut ch0));
        assert_eq!(reply.bytes, b"pong");
        assert_eq!(e0.sent_messages(), 1);
    }
}
