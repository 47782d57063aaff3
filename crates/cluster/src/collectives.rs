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
//! The global gather, broadcast and all-to-all on
//! [`crate::NodeCtx`] are their subset forms over every rank, with a
//! sequenced collective tag.
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

    /// [`crate::NodeCtx::gather`] restricted to `members` (sorted global
    /// ranks that include the caller). Returns `Some(payloads)` — indexed
    /// by member *position* — at `root` (a global rank in `members`),
    /// `None` elsewhere. `tag` must be a user tag unique to this algorithmic
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

    /// [`crate::NodeCtx::broadcast`] restricted to `members`; returns the
    /// payload on every member. See [`Self::gather_subset`] for the tag contract.
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

    /// [`crate::NodeCtx::all_to_all`] restricted to `members`: `outgoing[i]`
    /// goes to the member at position `i`; returns payloads indexed by
    /// member position. See [`Self::gather_subset`] for the tag contract.
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
    use crate::comm::Tag;
    use crate::net::NetworkModel;
    use crate::runtime::run_cluster;
    use crate::runtime::tests::values_on_both_runtimes as on_cluster;
    use crate::spec::{ClusterSpec, RuntimeKind};
    use sim::SimDuration;

    #[test]
    fn barrier_synchronizes_clocks() {
        let times = on_cluster(4, NetworkModel::fast_ethernet(), async |ctx| {
            // Node `rank` works for `rank` seconds before the barrier.
            ctx.charger
                .charge_cpu_raw(SimDuration::from_secs(ctx.rank as f64));
            ctx.barrier().await;
            ctx.charger.now().as_secs()
        });
        // Everyone leaves the barrier at ≥ the slowest node's entry time.
        for &t in &times {
            assert!(t >= 3.0, "clock {t} below the barrier floor");
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let results = on_cluster(3, NetworkModel::infinite(), async |ctx| {
            ctx.gather(0, vec![ctx.rank as u8; ctx.rank + 1]).await
        });
        let at_root = results[0].as_ref().expect("root gets the gather");
        assert_eq!(at_root[0], vec![0u8; 1]);
        assert_eq!(at_root[1], vec![1u8; 2]);
        assert_eq!(at_root[2], vec![2u8; 3]);
        assert!(results[1].is_none() && results[2].is_none());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let results = on_cluster(4, NetworkModel::infinite(), async |ctx| {
            let payload = if ctx.rank == 2 {
                b"pivots".to_vec()
            } else {
                Vec::new()
            };
            ctx.broadcast(2, payload).await
        });
        assert!(results.iter().all(|r| r == b"pivots"));
    }

    #[test]
    fn all_to_all_routes_correctly() {
        let results = on_cluster(3, NetworkModel::infinite(), async |ctx| {
            // Node i sends the byte (10*i + j) to node j.
            let outgoing: Vec<Vec<u8>> = (0..3).map(|j| vec![(10 * ctx.rank + j) as u8]).collect();
            ctx.all_to_all(outgoing).await
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
        let results = on_cluster(4, NetworkModel::infinite(), async |ctx| {
            let rank = ctx.rank;
            let members = if rank % 2 == 0 {
                vec![0usize, 2]
            } else {
                vec![1usize, 3]
            };
            let root = members[0];
            let g = ctx
                .gather_subset(&members, root, vec![rank as u8], Tag::user(9))
                .await;
            let verdict = if rank == root {
                let got = g.as_ref().expect("root gathers");
                vec![got[0][0] + got[1][0]]
            } else {
                Vec::new()
            };
            let b = ctx
                .broadcast_subset(&members, root, verdict, Tag::user(10))
                .await;
            let out: Vec<Vec<u8>> = members
                .iter()
                .map(|&m| vec![(rank * 10 + m) as u8])
                .collect();
            let a2a = ctx.all_to_all_subset(&members, out, Tag::user(11)).await;
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
    fn subset_collective_rejects_non_members() {
        for runtime in [RuntimeKind::Threads, RuntimeKind::Events] {
            let spec = ClusterSpec::homogeneous(2).with_runtime(runtime);
            let err = std::panic::catch_unwind(|| {
                run_cluster(&spec, async |ctx| {
                    // Rank 1 is not in the subset — must panic.
                    ctx.broadcast_subset(&[0], 0, Vec::new(), Tag::user(9))
                        .await
                })
            })
            .expect_err("a non-member must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains("rank 1 called a subset collective over [0] without being a member"),
                "{runtime:?}: {msg}"
            );
        }
    }

    #[test]
    fn consecutive_collectives_do_not_crosstalk() {
        let results = on_cluster(2, NetworkModel::infinite(), async |ctx| {
            let rank = ctx.rank;
            let a = ctx
                .broadcast(0, if rank == 0 { vec![1] } else { vec![] })
                .await;
            let b = ctx
                .broadcast(0, if rank == 0 { vec![2] } else { vec![] })
                .await;
            ctx.barrier().await;
            let c = ctx
                .broadcast(1, if rank == 1 { vec![3] } else { vec![] })
                .await;
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, vec![1]);
            assert_eq!(b, vec![2]);
            assert_eq!(c, vec![3]);
        }
    }
}
