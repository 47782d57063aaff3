//! Collective operations: barrier, gather, broadcast, all-to-all.
//!
//! All collectives are built from timestamped point-to-point messages, so
//! their synchronizing effect on the virtual clocks is exact: a barrier
//! leaves every clock at ≥ the maximum participant clock at entry (plus the
//! wire costs), which is precisely how the makespan of a phase-structured
//! algorithm like PSRS is defined.
//!
//! Every collective call bumps the endpoint's internal sequence number;
//! since all nodes execute collectives in the same program order, sequence
//! numbers agree and back-to-back collectives cannot cross-talk.
//!
//! Gather, broadcast and all-to-all are their subset forms over every
//! rank, with a sequenced collective tag.
//!
//! **Subset collectives** (`*_subset`) restrict a collective to an
//! explicit rank subset — the group-scoped sub-communicators of the
//! multi-level splitter path. They deliberately do *not* use the internal
//! sequence counter: overlapping subsets (a node can be both a group
//! member and a group leader) would desynchronize a shared per-endpoint
//! counter, so each call takes an explicit caller-supplied user [`Tag`]
//! instead. Per-sender FIFO delivery plus selective receives make a fixed
//! tag per algorithmic sub-step safe: successive rounds on the same
//! `(sender, tag)` pair are matched in send order.

use crate::charge::Charger;
use crate::comm::{Endpoint, Tag};

const KIND_BARRIER_IN: u16 = 0x8001;
const KIND_BARRIER_OUT: u16 = 0x8002;
pub(crate) const KIND_GATHER: u16 = 0x8003;
pub(crate) const KIND_BCAST: u16 = 0x8004;
pub(crate) const KIND_A2A: u16 = 0x8005;

impl Endpoint {
    /// Synchronizes all nodes (flat tree through rank 0).
    pub async fn barrier(&mut self, charger: &mut Charger) {
        let seq = self.next_seq();
        let p = self.p();
        let me = self.rank();
        if me == 0 {
            for from in 1..p {
                let _ = self
                    .recv_from(from, Tag::collective(KIND_BARRIER_IN, seq), charger)
                    .await;
            }
            for to in 1..p {
                self.send(
                    to,
                    Tag::collective(KIND_BARRIER_OUT, seq),
                    Vec::new(),
                    charger,
                );
            }
        } else {
            self.send(
                0,
                Tag::collective(KIND_BARRIER_IN, seq),
                Vec::new(),
                charger,
            );
            let _ = self
                .recv_from(0, Tag::collective(KIND_BARRIER_OUT, seq), charger)
                .await;
        }
    }

    /// Gathers every node's payload at `root`. Returns `Some(payloads)` at
    /// the root (indexed by rank) and `None` elsewhere.
    pub async fn gather(
        &mut self,
        root: usize,
        bytes: Vec<u8>,
        charger: &mut Charger,
    ) -> Option<Vec<Vec<u8>>> {
        let (all, tag) = self.global(KIND_GATHER);
        self.gather_subset(&all, root, bytes, tag, charger).await
    }

    /// Broadcasts `bytes` from `root` to everyone; returns the payload on
    /// every node (the root passes its own through untouched).
    pub async fn broadcast(
        &mut self,
        root: usize,
        bytes: Vec<u8>,
        charger: &mut Charger,
    ) -> Vec<u8> {
        let (all, tag) = self.global(KIND_BCAST);
        self.broadcast_subset(&all, root, bytes, tag, charger).await
    }

    /// Personalized all-to-all: `outgoing[j]` goes to node `j`; returns
    /// `incoming[i]` = the payload node `i` sent here. The self-payload is
    /// moved locally for free.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != p`.
    pub async fn all_to_all(
        &mut self,
        outgoing: Vec<Vec<u8>>,
        charger: &mut Charger,
    ) -> Vec<Vec<u8>> {
        let (all, tag) = self.global(KIND_A2A);
        self.all_to_all_subset(&all, outgoing, tag, charger).await
    }

    /// The global communicator as a subset: every rank, plus the next
    /// sequenced collective tag of `kind`.
    pub(crate) fn global(&mut self, kind: u16) -> (Vec<usize>, Tag) {
        let tag = Tag::collective(kind, self.next_seq());
        ((0..self.p()).collect(), tag)
    }

    fn next_seq(&mut self) -> u64 {
        self.coll_seq += 1;
        self.coll_seq
    }

    /// Position of this endpoint's rank inside `members`, panicking if the
    /// subset does not contain it — subset collectives must only be called
    /// by participating ranks.
    fn member_index(&self, members: &[usize]) -> usize {
        members
            .iter()
            .position(|&m| m == self.rank())
            .unwrap_or_else(|| {
                panic!(
                    "rank {} called a subset collective over {members:?} without being a member",
                    self.rank()
                )
            })
    }

    /// [`Self::gather`] restricted to `members` (sorted global ranks that
    /// include the caller). Returns `Some(payloads)` — indexed by member
    /// *position* — at `root` (a global rank in `members`), `None`
    /// elsewhere. `tag` must be a user tag unique to this algorithmic
    /// sub-step.
    pub async fn gather_subset(
        &mut self,
        members: &[usize],
        root: usize,
        bytes: Vec<u8>,
        tag: Tag,
        charger: &mut Charger,
    ) -> Option<Vec<Vec<u8>>> {
        let me_idx = self.member_index(members);
        let root_idx = members
            .iter()
            .position(|&m| m == root)
            .expect("subset gather root must be a member");
        if me_idx == root_idx {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); members.len()];
            out[root_idx] = bytes;
            for (idx, &from) in members.iter().enumerate().filter(|&(i, _)| i != root_idx) {
                out[idx] = self.recv_from(from, tag, charger).await.bytes;
            }
            Some(out)
        } else {
            self.send(root, tag, bytes, charger);
            None
        }
    }

    /// [`Self::broadcast`] restricted to `members`; returns the payload on
    /// every member. See [`Self::gather_subset`] for the tag contract.
    pub async fn broadcast_subset(
        &mut self,
        members: &[usize],
        root: usize,
        bytes: Vec<u8>,
        tag: Tag,
        charger: &mut Charger,
    ) -> Vec<u8> {
        let _ = self.member_index(members);
        if self.rank() == root {
            for &to in members.iter().filter(|&&m| m != root) {
                self.send(to, tag, bytes.clone(), charger);
            }
            bytes
        } else {
            self.recv_from(root, tag, charger).await.bytes
        }
    }

    /// [`Self::all_to_all`] restricted to `members`: `outgoing[i]` goes to
    /// the member at position `i`; returns payloads indexed by member
    /// position. See [`Self::gather_subset`] for the tag contract.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != members.len()`.
    pub async fn all_to_all_subset(
        &mut self,
        members: &[usize],
        mut outgoing: Vec<Vec<u8>>,
        tag: Tag,
        charger: &mut Charger,
    ) -> Vec<Vec<u8>> {
        assert_eq!(
            outgoing.len(),
            members.len(),
            "subset all_to_all needs one payload per member"
        );
        let me_idx = self.member_index(members);
        let mut incoming: Vec<Vec<u8>> = vec![Vec::new(); members.len()];
        incoming[me_idx] = std::mem::take(&mut outgoing[me_idx]);
        // Send everything first (channels are unbounded, so this cannot
        // deadlock), then drain the inbound side.
        for (idx, &to) in members.iter().enumerate().filter(|&(i, _)| i != me_idx) {
            self.send(to, tag, std::mem::take(&mut outgoing[idx]), charger);
        }
        for (idx, &from) in members.iter().enumerate().filter(|&(i, _)| i != me_idx) {
            incoming[idx] = self.recv_from(from, tag, charger).await.bytes;
        }
        incoming
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CpuModel;
    use crate::events::block_on;
    use crate::net::NetworkModel;
    use crate::spec::TimePolicy;
    use pdm::Disk;
    use sim::{Jitter, SimDuration};

    fn charger() -> Charger {
        Charger::new(
            CpuModel::free(),
            1.0,
            Jitter::none(),
            Disk::in_memory(64),
            TimePolicy::Modeled,
        )
    }

    /// Runs `f(rank, endpoint, charger)` on `p` threads; returns per-rank
    /// outputs.
    fn on_cluster<T: Send>(
        p: usize,
        net: NetworkModel,
        f: impl Fn(usize, &mut Endpoint, &mut Charger) -> T + Send + Sync,
    ) -> Vec<T> {
        let eps = Endpoint::mesh(p, net);
        let mut out: Vec<Option<T>> = Vec::new();
        for _ in 0..p {
            out.push(None);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    let f = &f;
                    s.spawn(move || {
                        let mut ch = charger();
                        f(rank, &mut ep, &mut ch)
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("node panicked"));
            }
        });
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let times = on_cluster(4, NetworkModel::fast_ethernet(), |rank, ep, ch| {
            // Node `rank` works for `rank` seconds before the barrier.
            ch.charge_cpu_raw(SimDuration::from_secs(rank as f64));
            block_on(ep.barrier(ch));
            ch.now().as_secs()
        });
        // Everyone leaves the barrier at ≥ the slowest node's entry time.
        for &t in &times {
            assert!(t >= 3.0, "clock {t} below the barrier floor");
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let results = on_cluster(3, NetworkModel::infinite(), |rank, ep, ch| {
            block_on(ep.gather(0, vec![rank as u8; rank + 1], ch))
        });
        let at_root = results[0].as_ref().expect("root gets the gather");
        assert_eq!(at_root[0], vec![0u8; 1]);
        assert_eq!(at_root[1], vec![1u8; 2]);
        assert_eq!(at_root[2], vec![2u8; 3]);
        assert!(results[1].is_none() && results[2].is_none());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let results = on_cluster(4, NetworkModel::infinite(), |rank, ep, ch| {
            let payload = if rank == 2 {
                b"pivots".to_vec()
            } else {
                Vec::new()
            };
            block_on(ep.broadcast(2, payload, ch))
        });
        assert!(results.iter().all(|r| r == b"pivots"));
    }

    #[test]
    fn all_to_all_routes_correctly() {
        let results = on_cluster(3, NetworkModel::infinite(), |rank, ep, ch| {
            // Node i sends the byte (10*i + j) to node j.
            let outgoing: Vec<Vec<u8>> = (0..3).map(|j| vec![(10 * rank + j) as u8]).collect();
            block_on(ep.all_to_all(outgoing, ch))
        });
        for (j, incoming) in results.iter().enumerate() {
            for (i, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![(10 * i + j) as u8], "i={i} j={j}");
            }
        }
    }

    #[test]
    fn subset_collectives_route_within_the_group() {
        // Groups {0,2} and {1,3}: each group gathers at its first member,
        // broadcasts a verdict back, then all-to-alls inside the group —
        // all with fixed user tags, concurrently across groups.
        let results = on_cluster(4, NetworkModel::infinite(), |rank, ep, ch| {
            let members = if rank % 2 == 0 {
                vec![0usize, 2]
            } else {
                vec![1usize, 3]
            };
            let root = members[0];
            let g = block_on(ep.gather_subset(&members, root, vec![rank as u8], Tag::user(9), ch));
            let verdict = if rank == root {
                let got = g.as_ref().expect("root gathers");
                vec![got[0][0] + got[1][0]]
            } else {
                Vec::new()
            };
            let b = block_on(ep.broadcast_subset(&members, root, verdict, Tag::user(10), ch));
            let out: Vec<Vec<u8>> = members
                .iter()
                .map(|&m| vec![(rank * 10 + m) as u8])
                .collect();
            let a2a = block_on(ep.all_to_all_subset(&members, out, Tag::user(11), ch));
            (g, b, a2a)
        });
        // Gather lands only at each group's root, indexed by position.
        let at0 = results[0].0.as_ref().expect("rank 0 is a root");
        assert_eq!(at0, &vec![vec![0u8], vec![2u8]]);
        assert!(results[2].0.is_none());
        // Broadcast: group {0,2} sums to 2, group {1,3} to 4.
        assert_eq!(results[0].1, vec![2]);
        assert_eq!(results[2].1, vec![2]);
        assert_eq!(results[1].1, vec![4]);
        assert_eq!(results[3].1, vec![4]);
        // All-to-all by member position: member i of {0,2} receives
        // 10·peer + own rank.
        assert_eq!(results[2].2, vec![vec![2u8], vec![22u8]]);
        assert_eq!(results[3].2, vec![vec![13u8], vec![33u8]]);
    }

    #[test]
    #[should_panic(expected = "node panicked")]
    fn subset_collective_rejects_non_members() {
        let _ = on_cluster(2, NetworkModel::infinite(), |_rank, ep, ch| {
            // Rank 1 is not in the subset — must panic.
            block_on(ep.broadcast_subset(&[0], 0, Vec::new(), Tag::user(9), ch))
        });
    }

    #[test]
    fn consecutive_collectives_do_not_crosstalk() {
        let results = on_cluster(2, NetworkModel::infinite(), |rank, ep, ch| {
            let a = block_on(ep.broadcast(0, if rank == 0 { vec![1] } else { vec![] }, ch));
            let b = block_on(ep.broadcast(0, if rank == 0 { vec![2] } else { vec![] }, ch));
            block_on(ep.barrier(ch));
            let c = block_on(ep.broadcast(1, if rank == 1 { vec![3] } else { vec![] }, ch));
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, vec![1]);
            assert_eq!(b, vec![2]);
            assert_eq!(c, vec![3]);
        }
    }
}
