//! OpenSHMEM 1.5-style teams (`shmem_team_split_strided` and friends).
//!
//! A [`Team`] names a `(start, stride, size)` subset of the job's PEs, like
//! the C API's `shmem_team_t`. Teams generalize the 1.x [`ActiveSet`]s the
//! collectives run over: strides need not be powers of two, teams can be
//! split recursively, and a team carries an **id** that flows into every
//! operation issued under its scope (see [`Shmem::with_team_scope`]), so the
//! sanitizer, metrics registry, and flow tracer attribute traffic per team.
//!
//! Creation discipline: team creation is SPMD-symmetric, like `shmalloc` and
//! `register_am` — every PE performs the same `team_split_strided` calls in
//! the same order, so team ids agree machine-wide without communication.
//! PEs outside the new team receive `None` (the C API's
//! `SHMEM_TEAM_INVALID`).

use crate::active_set::ActiveSet;
use crate::data::{Scalar, SymPtr};
use crate::shmem::Shmem;
use pgas_conduit::Ctx;
use pgas_machine::machine::PeId;

/// A strided subset of the job's PEs with a machine-wide id.
///
/// Id 0 is reserved for the world team ("no team scope"); split teams get
/// ids from 1 up, in creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Team {
    id: u32,
    start: PeId,
    stride: usize,
    size: usize,
}

impl Team {
    /// The world team of an `n`-PE job (id 0: operations under it are
    /// attributed as un-scoped, exactly like operations issued with no team
    /// at all).
    pub fn world(n: usize) -> Team {
        assert!(n > 0, "world team of an empty job");
        Team { id: 0, start: 0, stride: 1, size: n }
    }

    /// The team's machine-wide id (0 = world).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of member PEs (`shmem_team_n_pes`).
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.size
    }

    /// First member, in global PE terms.
    #[inline]
    pub fn start(&self) -> PeId {
        self.start
    }

    /// Stride between members, in global PE terms.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Global PE of team rank `rank` (`shmem_team_translate_pe` towards the
    /// world team).
    #[inline]
    pub fn translate(&self, rank: usize) -> PeId {
        assert!(rank < self.size, "rank {rank} out of team of {}", self.size);
        self.start + rank * self.stride
    }

    /// Team rank of global PE `pe`, if a member.
    pub fn rank_of(&self, pe: PeId) -> Option<usize> {
        if pe < self.start {
            return None;
        }
        let d = pe - self.start;
        (d.is_multiple_of(self.stride) && d / self.stride < self.size).then(|| d / self.stride)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, pe: PeId) -> bool {
        self.rank_of(pe).is_some()
    }

    /// All members in ascending PE order.
    pub fn members(&self) -> Vec<PeId> {
        (0..self.size).map(|k| self.translate(k)).collect()
    }

    /// The 1.x active set covering the same PEs, when the stride is a power
    /// of two (active sets are `(start, log2 stride, size)` triples). The
    /// tree collectives run over this representation.
    pub fn active_set(&self) -> Option<ActiveSet> {
        self.stride
            .is_power_of_two()
            .then(|| ActiveSet::new(self.start, self.stride.trailing_zeros(), self.size))
    }
}

impl<'m> Shmem<'m> {
    /// The team containing every PE.
    pub fn team_world(&self) -> Team {
        Team::world(self.n_pes())
    }

    /// `shmem_team_split_strided`: carve a new team from `parent`, taking
    /// `size` members starting at parent rank `start`, every `stride`-th
    /// parent rank. Symmetric-creation collective (see the module docs);
    /// returns `None` on PEs outside the new team.
    pub fn team_split_strided(
        &self,
        parent: &Team,
        start: usize,
        stride: usize,
        size: usize,
    ) -> Option<Team> {
        assert!(size > 0, "team must be non-empty");
        assert!(stride > 0, "team stride must be positive");
        assert!(
            start + (size - 1) * stride < parent.n_pes(),
            "team split (start {start}, stride {stride}, size {size}) overruns parent of {}",
            parent.n_pes()
        );
        let id = self.reserve_team_ids(1);
        let team =
            Team { id, start: parent.translate(start), stride: stride * parent.stride(), size };
        team.contains(self.my_pe()).then_some(team)
    }

    /// Reserve `n` consecutive team ids, returning the first. Exposed so
    /// higher layers (CAF's `form team`, which mints several sibling teams
    /// in one statement) share the id space; must be called symmetrically.
    pub fn reserve_team_ids(&self, n: u32) -> u32 {
        let base = self.next_team.get();
        self.next_team.set(base + n);
        base
    }

    /// `shmem_team_my_pe`: this PE's rank within `team`, or `None` when not
    /// a member.
    pub fn team_my_pe(&self, team: &Team) -> Option<usize> {
        team.rank_of(self.my_pe())
    }

    /// Run `f` with every operation it issues attributed to `team` — the
    /// descriptors submitted underneath carry the team id, so spans,
    /// metrics (`team_op`/`team_hazard`), and fault events break down per
    /// team. Scopes nest: the previous scope is restored on return.
    pub fn with_team_scope<R>(&self, team: &Team, f: impl FnOnce() -> R) -> R {
        let prev = self.ctx().set_team_scope(team.id());
        let r = f();
        self.ctx().set_team_scope(prev);
        r
    }

    /// `shmem_team_sync`: barrier over the team's members (with the usual
    /// quiet-first completion). Must be called by every live member.
    pub fn team_barrier(&self, team: &Team) {
        debug_assert!(team.contains(self.my_pe()), "team barrier from a non-member");
        self.with_team_scope(team, || self.ctx().barrier_group(&team.members()));
    }

    /// Team-scoped broadcast: [`Shmem::broadcast`] over the team's PEs,
    /// attributed to the team. Requires a power-of-two stride (the tree
    /// collectives run over 1.x active sets).
    pub fn team_broadcast<T: Scalar>(
        &self,
        team: &Team,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        root_rank: usize,
    ) {
        let set = team.active_set().expect("team collectives need a power-of-two stride");
        self.with_team_scope(team, || self.broadcast(dest, src, nelems, root_rank, &set));
    }

    /// Team-scoped all-reduce (see [`Shmem::reduce_to_all`]).
    pub fn team_reduce_to_all<T: Scalar>(
        &self,
        team: &Team,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
        op: impl Fn(T, T) -> T + Copy,
    ) {
        let set = team.active_set().expect("team collectives need a power-of-two stride");
        self.with_team_scope(team, || self.reduce_to_all(dest, src, nelems, &set, op));
    }

    /// Team-scoped `shmem_sum_to_all`.
    pub fn team_sum_to_all<T: Scalar + std::ops::Add<Output = T>>(
        &self,
        team: &Team,
        dest: SymPtr<T>,
        src: SymPtr<T>,
        nelems: usize,
    ) {
        self.team_reduce_to_all(team, dest, src, nelems, |a, b| a + b);
    }

    /// `shmem_ctx_create`: a sibling communication context sharing this
    /// PE's heap, pending-op ledger and AM registry, but with its own
    /// coalescing buffers, quiet/fence scope, and NIC-channel identity —
    /// the deterministic arbiter parks `(start, pe, ctx)` keys, so traffic
    /// on different contexts drains independently. Inherits the current
    /// team scope at creation.
    pub fn ctx_create(&self) -> Ctx<'m> {
        self.ctx().create_ctx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shmem::ShmemConfig;
    use pgas_conduit::ConduitProfile;
    use pgas_machine::{generic_smp, run, stampede, Platform};

    fn cfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 17)
    }

    fn mk(pe: pgas_machine::machine::Pe<'_>) -> Shmem<'_> {
        Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)))
    }

    #[test]
    fn split_translate_and_rank_round_trip() {
        // PEs 1, 4, 7 out of 8 (stride 3 — not expressible as an
        // active set).
        let t = Team { id: 5, start: 1, stride: 3, size: 3 };
        assert_eq!(t.members(), vec![1, 4, 7]);
        assert_eq!(t.rank_of(4), Some(1));
        assert_eq!(t.rank_of(2), None);
        assert_eq!(t.rank_of(10), None);
        assert_eq!(t.translate(2), 7);
        assert!(t.active_set().is_none());
        let even = Team { id: 6, start: 0, stride: 2, size: 4 };
        assert_eq!(even.active_set().unwrap().members(), vec![0, 2, 4, 6]);
    }

    #[test]
    fn split_strided_is_symmetric_and_recursive() {
        let out = run(cfg(8), |pe| {
            let shmem = mk(pe);
            let world = shmem.team_world();
            let evens = shmem.team_split_strided(&world, 0, 2, 4);
            // Split the evens again: every other even -> PEs 0, 4.
            let quarter = match &evens {
                Some(e) => shmem.team_split_strided(e, 0, 2, 2),
                // Non-members still reserve the id to stay symmetric.
                None => {
                    shmem.reserve_team_ids(1);
                    None
                }
            };
            (
                evens.as_ref().map(|t| (t.id(), shmem.team_my_pe(t).unwrap())),
                quarter.as_ref().map(|t| (t.id(), t.members())),
            )
        });
        for (pe, (evens, quarter)) in out.results.into_iter().enumerate() {
            if pe % 2 == 0 {
                assert_eq!(evens, Some((1, pe / 2)));
            } else {
                assert_eq!(evens, None);
            }
            if pe % 4 == 0 {
                assert_eq!(quarter, Some((2, vec![0, 4])));
            } else {
                assert_eq!(quarter, None);
            }
        }
    }

    #[test]
    fn team_barrier_rendezvouses_members_only() {
        let out = run(cfg(4), |pe| {
            let shmem = mk(pe);
            let world = shmem.team_world();
            let evens = shmem.team_split_strided(&world, 0, 2, 2);
            shmem.barrier_all();
            if let Some(t) = &evens {
                // PE 2 runs ahead; the team barrier aligns 0 and 2 without
                // waiting on 1 and 3.
                if shmem.my_pe() == 2 {
                    pe.advance(5_000.0);
                }
                shmem.team_barrier(t);
            }
            pe.now()
        });
        assert_eq!(out.results[0], out.results[2], "members aligned");
        assert!(out.results[0] >= 5_000);
        assert!(out.results[1] < 5_000, "non-member not dragged along");
    }

    #[test]
    fn sync_spans_carry_the_team_scope_they_ran_in() {
        use pgas_machine::trace::SpanKind::{Barrier, Quiet};
        // A quiet or barrier submits no op, so its span takes its team from
        // the scope it ran in, not from the last op submitted.
        let out = run(cfg(4).with_trace(true), |pe| {
            let shmem = mk(pe);
            let evens = shmem.team_split_strided(&shmem.team_world(), 0, 2, 2);
            shmem.barrier_all();
            if let Some(t) = &evens {
                shmem.team_barrier(t);
            }
            shmem.barrier_all();
        });
        let syncs = |pe| -> Vec<_> {
            let spans =
                out.trace.iter().filter(|s| s.pe == pe && matches!(s.kind, Quiet | Barrier));
            spans.map(|s| (s.kind, s.team)).collect()
        };
        let world_team_world =
            [(Quiet, 0), (Barrier, 0), (Quiet, 1), (Barrier, 1), (Quiet, 0), (Barrier, 0)];
        for pe in [0, 2] {
            let got = syncs(pe);
            assert_eq!(got[got.len() - 6..], world_team_world, "PE {pe}");
        }
        for pe in [1, 3] {
            assert!(syncs(pe).iter().all(|&(_, team)| team == 0), "PE {pe}");
        }
    }

    #[test]
    fn team_collectives_and_attribution() {
        let out = pgas_machine::with_forced_metrics(true, || {
            run(cfg(4), |pe| {
                let shmem = mk(pe);
                let src = shmem.shmalloc::<i64>(1).unwrap();
                let dest = shmem.shmalloc::<i64>(1).unwrap();
                shmem.write_local(src, &[shmem.my_pe() as i64 + 1]);
                shmem.barrier_all();
                let world = shmem.team_world();
                let odds = shmem.team_split_strided(&world, 1, 2, 2);
                if let Some(t) = &odds {
                    shmem.team_sum_to_all(t, dest, src, 1);
                }
                shmem.barrier_all();
                shmem.read_local_one(dest)
            })
        });
        assert_eq!(out.results[1], 6, "2 + 4 over the odd team");
        assert_eq!(out.results[3], 6);
        assert_eq!(out.results[0], 0, "non-members untouched");
        // The team's traffic is attributed: team_op counters keyed by the
        // team id exist for the members.
        assert!(
            out.metrics.counter_total("team_op") > 0,
            "team-scoped ops recorded under the team id"
        );
    }

    #[test]
    fn per_context_quiet_scopes_independently() {
        let out = run(stampede(2, 2).with_heap_bytes(1 << 16), |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(ConduitProfile::mvapich_shmem()));
            let buf = shmem.shmalloc::<u8>(4096).unwrap();
            shmem.barrier_all();
            if shmem.my_pe() == 0 {
                let c2 = shmem.ctx_create();
                assert_ne!(c2.ctx_id(), shmem.ctx().ctx_id());
                // Big transfer outstanding on the second context: quiet on
                // the default context must not pay for it.
                let big = vec![0xA5u8; 4096];
                c2.put_nbi(2, buf.offset(), &big);
                let t0 = pe.now();
                shmem.quiet();
                let default_quiet = pe.now() - t0;
                let t1 = pe.now();
                c2.quiet();
                let ctx_quiet = pe.now() - t1;
                (default_quiet, ctx_quiet)
            } else {
                (0, 0)
            }
        });
        let (default_quiet, ctx_quiet) = out.results[0];
        assert!(
            ctx_quiet > default_quiet,
            "the 4 KiB transfer completes at its own context's quiet, not \
             the default's (default {default_quiet} ns, ctx {ctx_quiet} ns)"
        );
        assert!(ctx_quiet > 500, "cross-node completion costs real wire time, got {ctx_quiet}");
    }
}
