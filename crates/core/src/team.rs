//! Fortran 2018 teams: `form team`, `change team`, `sync team`, and
//! team-scoped collectives.
//!
//! A [`CafTeam`] is the runtime object behind a `team_type` variable:
//! the set of images that passed the same team number to [`Image::form_team`],
//! plus a machine-wide attribution id drawn from the OpenSHMEM layer's team
//! id space ([`openshmem::Shmem::reserve_team_ids`]). Operations issued
//! inside [`Image::change_team`] carry that id through every `OpDesc`, so
//! the sanitizer, metrics, and flow traces break traffic down per team.
//!
//! **Failure & re-formation.** Teams are the recovery unit of this runtime:
//! after a scheduled image failure, the survivors observe the death at an
//! image-control point (`sync_all_stat` & co.), then call `form_team` again
//! — dead images are excluded from the member exchange, a spare image can
//! pass the workers' team number to rejoin in a dead image's place, and the
//! new team's barriers and collectives run entirely among its live members.
//! With a fixed plan and seed, membership, team ids, and every team
//! collective are deterministic.

use crate::failure::CafStat;
use crate::image::{Image, ImageId};
use openshmem::data::Scalar;

/// A formed team: the images that supplied the same team number, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CafTeam {
    number: i64,
    id: u32,
    members: Vec<ImageId>,
}

impl CafTeam {
    /// The team number this team was formed with.
    #[inline]
    pub fn number(&self) -> i64 {
        self.number
    }

    /// The machine-wide attribution id carried by operations issued under
    /// this team's scope.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Member images (1-based, ascending) as of formation time.
    #[inline]
    pub fn members(&self) -> &[ImageId] {
        &self.members
    }

    /// `num_images(team)`.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Membership test (1-based image index).
    pub fn contains(&self, image: ImageId) -> bool {
        self.members.binary_search(&image).is_ok()
    }

    /// `this_image(team)`: 1-based rank of `image` within the team.
    pub fn rank_of(&self, image: ImageId) -> Option<usize> {
        self.members.binary_search(&image).ok().map(|k| k + 1)
    }
}

impl<'m> Image<'m> {
    /// `form team(number, team)`: images passing the same (positive) number
    /// form a team together. Collective over the *live* images — every
    /// image that has not failed must call, in the same statement order
    /// (the member exchange and the id reservation are both symmetric).
    /// Failed images are excluded from membership; calling again after a
    /// failure re-forms the team among the survivors, and a previously
    /// idle image may pass the same number to join in a dead one's place.
    pub fn form_team(&self, number: i64) -> CafTeam {
        assert!(number > 0, "team numbers must be positive, got {number}");
        let m = self.machine();
        let shmem = self.shmem();
        let n = self.num_images();
        let me0 = self.this_image() - 1;
        // Exchange team numbers by *pushing*: every image writes its number
        // into its own slot of every peer's table before the barrier, then
        // reads only locally afterwards. Membership is then decided by the
        // deadline probe at the barrier-aligned clock — a pure function of
        // the fault plan and a clock every live image shares — never by the
        // host-racy failure flag. A death racing the exchange is excluded
        // (or included) identically on every image; split membership would
        // put survivors behind *different* team barriers, which deadlocks.
        let slots = shmem.shmalloc::<i64>(n).expect("form team: scratch allocation failed");
        shmem.write_local(slots.at(me0), &[number]);
        for q in (0..n).filter(|&q| q != me0) {
            // A push to a dying image just vanishes with it; nobody reads
            // a dead image's table.
            let _ = shmem.try_put(slots.at(me0), &[number], q);
        }
        // Drain deferred dead-target errors from the pushes so the barrier
        // (whose implicit quiet panics on them) stays clean.
        let _ = shmem.ctx().try_quiet();
        self.sync_all();
        let t_form = shmem.ctx().pe().now();
        let mut numbers: Vec<Option<i64>> = vec![None; n];
        numbers[me0] = Some(number);
        for p in (0..n).filter(|&p| p != me0) {
            if m.pe_dead_at(p, t_form) {
                continue;
            }
            let mut got = [0i64];
            shmem.read_local(slots.at(p), &mut got);
            numbers[p] = Some(got[0]);
        }
        // Sibling teams minted by this statement share one deterministic id
        // block: sorted distinct numbers index into it, so every live image
        // computes the same id for the same number.
        let mut distinct: Vec<i64> = numbers.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let base = shmem.reserve_team_ids(distinct.len() as u32);
        let idx = distinct.binary_search(&number).expect("own team number present");
        let members: Vec<ImageId> =
            (0..n).filter(|&p| numbers[p] == Some(number)).map(|p| p + 1).collect();
        self.sync_all(); // all reads done before the scratch is recycled
        shmem.shfree(slots).expect("form team: scratch free");
        CafTeam { number, id: base + idx as u32, members }
    }

    /// `change team(team) ... end team`: run `f` scoped to `team`. Entry
    /// and exit synchronize the team's live members (as the construct's
    /// implicit `sync team` pair), and every operation `f` issues is
    /// attributed to the team.
    pub fn change_team<R>(&self, team: &CafTeam, f: impl FnOnce() -> R) -> R {
        debug_assert!(
            team.contains(self.this_image()),
            "change team on image {} outside the team",
            self.this_image()
        );
        self.sync_team(team);
        let r = self.in_scope(team, f);
        self.sync_team(team);
        r
    }

    /// Run `f` with every operation it issues attributed to `team`.
    fn in_scope<R>(&self, team: &CafTeam, f: impl FnOnce() -> R) -> R {
        let prev = self.shmem().ctx().set_team_scope(team.id());
        let r = f();
        self.shmem().ctx().set_team_scope(prev);
        r
    }

    /// `sync team(team)`: barrier over the team's live members, with memory
    /// completion. Dead members are detached automatically; use
    /// [`Self::sync_team_stat`] to observe them.
    pub fn sync_team(&self, team: &CafTeam) {
        self.in_scope(team, || self.shmem().ctx().barrier_group(&Self::member_pes(team)));
    }

    /// `sync team(team, stat=s)`: like [`Self::sync_team`], but deferred
    /// communication errors (a coalesced put whose target died before the
    /// flush) and failed members surface as a [`CafStat`] instead of
    /// hanging or panicking. The barrier itself always completes among the
    /// survivors, so live members stay in step even on the error path.
    pub fn sync_team_stat(&self, team: &CafTeam) -> Result<(), CafStat> {
        self.check_alive()?;
        let r =
            self.in_scope(team, || self.shmem().ctx().try_barrier_group(&Self::member_pes(team)));
        self.team_stat(team, r.err().map(CafStat::from))
    }

    /// `co_reduce` scoped to a team: combine `data` element-wise across the
    /// team's live members; every live member receives the result. Linear
    /// over the team's lowest live member (teams name arbitrary image
    /// subsets, which the tree collectives' active sets cannot), with the
    /// same deterministic combine order on every image. Reports the first
    /// failed member or communication fault as its stat; the data exchange
    /// still completes among the survivors.
    pub fn team_reduce<T: Scalar>(
        &self,
        team: &CafTeam,
        data: &mut [T],
        op: impl Fn(T, T) -> T + Copy,
    ) -> Result<(), CafStat> {
        self.check_alive()?;
        let live = self.live_pes(team);
        let stat = self.in_scope(team, || {
            self.linear_reduce(&live, data, op, |_| true, |s| self.team_barrier(&live, s))
        });
        self.team_stat(team, stat)
    }

    /// `co_sum` scoped to a team.
    pub fn team_sum<T: Scalar + std::ops::Add<Output = T>>(
        &self,
        team: &CafTeam,
        data: &mut [T],
    ) -> Result<(), CafStat> {
        self.team_reduce(team, data, |a, b| a + b)
    }

    /// `co_broadcast` scoped to a team: replicate `data` from the member
    /// with team rank `source_rank` (1-based, counting dead members — ranks
    /// are stable across failures) to every live member.
    pub fn team_broadcast<T: Scalar>(
        &self,
        team: &CafTeam,
        data: &mut [T],
        source_rank: usize,
    ) -> Result<(), CafStat> {
        self.check_alive()?;
        assert!(
            (1..=team.size()).contains(&source_rank),
            "source rank {source_rank} outside team of {}",
            team.size()
        );
        let source = team.members()[source_rank - 1];
        let root = self.pe_of(source);
        if self.machine().pe_failed(root) {
            return Err(CafStat::FailedImage { image: source });
        }
        let live = self.live_pes(team);
        let stat = self.in_scope(team, || {
            self.linear_broadcast(&live, root, data, |s| self.team_barrier(&live, s))
        });
        self.team_stat(team, stat)
    }

    /// A team collective's phase barrier over its `live` members. Every
    /// live member enters every phase whatever its stat, so the members'
    /// barriers stay paired; the first stat this member saw wins.
    fn team_barrier(&self, live: &[usize], stat: Option<CafStat>) -> Option<CafStat> {
        let barrier = self.shmem().ctx().try_barrier_group(live).err().map(CafStat::from);
        stat.or(barrier)
    }

    /// The stat a team collective reports: `stat` from the exchange, else
    /// the first failed member's.
    fn team_stat(&self, team: &CafTeam, stat: Option<CafStat>) -> Result<(), CafStat> {
        let first_failed = || team.members().iter().find(|&&img| self.image_failed(img));
        stat.or_else(|| first_failed().map(|&image| CafStat::FailedImage { image }))
            .map_or(Ok(()), Err)
    }

    /// The team's members not failed so far, as sorted 0-based PEs.
    fn live_pes(&self, team: &CafTeam) -> Vec<usize> {
        let m = self.machine();
        team.members().iter().map(|&img| img - 1).filter(|&p| !m.pe_failed(p)).collect()
    }

    /// Member images as sorted 0-based PEs, for the machine's group
    /// barriers.
    fn member_pes(team: &CafTeam) -> Vec<usize> {
        team.members().iter().map(|&img| img - 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, CafConfig};
    use crate::runtime::run_caf;
    use pgas_machine::{generic_smp, Platform};
    use pgas_machine::{with_forced_plan, FaultPlan};

    fn cfg() -> CafConfig {
        CafConfig::new(Backend::Shmem, Platform::GenericSmp)
    }

    fn mcfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 18)
    }

    #[test]
    fn form_team_partitions_by_number() {
        let out = run_caf(mcfg(6), cfg(), |img| {
            let color = if img.this_image() <= 2 { 7 } else { 9 };
            let team = img.form_team(color);
            (team.number(), team.id(), team.members().to_vec(), team.rank_of(img.this_image()))
        });
        let (n0, id0, m0, r0) = &out.results[0];
        assert_eq!((*n0, m0.clone()), (7, vec![1, 2]));
        let (n5, id5, m5, r5) = &out.results[5];
        assert_eq!((*n5, m5.clone()), (9, vec![3, 4, 5, 6]));
        assert_ne!(id0, id5, "sibling teams get distinct ids");
        assert_eq!(*r0, Some(1));
        assert_eq!(*r5, Some(4));
        // Every member of a team agrees on its id.
        assert_eq!(out.results[0].1, out.results[1].1);
        assert_eq!(out.results[2].1, out.results[5].1);
    }

    #[test]
    fn change_team_scopes_and_synchronizes() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let a = img.coarray::<i64>(&[1]).unwrap();
            img.sync_all();
            let team = img.form_team(if img.this_image() <= 2 { 1 } else { 2 });
            img.change_team(&team, || {
                // Ring put within the team: rank k writes to rank k+1.
                let rank = team.rank_of(img.this_image()).unwrap();
                let next = team.members()[rank % team.size()];
                a.put_to(img, next, &[img.this_image() as i64 * 10]);
                img.sync_team(&team);
            });
            a.read_local(img)[0]
        });
        // Teams {1,2} and {3,4}: 1<->2 and 3<->4 exchanged.
        assert_eq!(out.results, vec![20, 10, 40, 30]);
    }

    #[test]
    fn team_sum_and_broadcast_stay_inside_the_team() {
        let out = run_caf(mcfg(5), cfg(), |img| {
            let color = if img.this_image() % 2 == 1 { 11 } else { 22 };
            let team = img.form_team(color);
            let mut v = [img.this_image() as i64];
            img.team_sum(&team, &mut v).unwrap();
            let mut b = [img.this_image() as i64 * 100];
            img.team_broadcast(&team, &mut b, 1).unwrap();
            (v[0], b[0])
        });
        // Odd team {1,3,5}: sum 9, broadcast from image 1. Even {2,4}:
        // sum 6, broadcast from image 2.
        assert_eq!(out.results[0], (9, 100));
        assert_eq!(out.results[2], (9, 100));
        assert_eq!(out.results[4], (9, 100));
        assert_eq!(out.results[1], (6, 200));
        assert_eq!(out.results[3], (6, 200));
    }

    /// Run `collective` once in a 4-image team under a plan whose seed drops
    /// exactly one put, with no retry, then `sync team`. Checks that the job
    /// finishes (no stall report), that the one drop is `dropper`'s put to
    /// `target` inside the collective, that `dropper` gets its stat back,
    /// and that every member leaves the following team barrier at the same
    /// virtual instant, so the barriers stayed paired.
    fn one_dropped_put_in_a_team_collective(
        seed: u64,
        dropper: usize,
        target: usize,
        collective: impl Fn(&Image<'_>, &CafTeam, &mut [i64]) -> Result<(), CafStat> + Sync,
    ) {
        use pgas_machine::RetryPolicy;
        let plan = FaultPlan::new(seed)
            .with_drop_prob(0.15)
            .with_retry(RetryPolicy { max_attempts: 1, ..Default::default() });
        let out = crate::runtime::run_caf_result(mcfg(4).with_faults(plan), cfg(), |img| {
            let team = img.form_team(1);
            let mut v = [img.this_image() as i64];
            let stat = collective(img, &team, &mut v);
            img.sync_team(&team);
            (stat, img.shmem().ctx().pe().now())
        })
        .unwrap_or_else(|e| panic!("a member skipped a phase barrier: {}", e.message));
        let drops: Vec<_> = out.fault_events.iter().filter(|e| e.kind == "drop").collect();
        assert_eq!(drops.len(), 1, "the seed drops exactly one put: {drops:?}");
        assert_eq!((drops[0].pe, drops[0].op, drops[0].target), (dropper, "put", target));
        assert_eq!(
            out.results[dropper].0,
            Err(CafStat::CommFailure { image: target + 1, attempts: 1 }),
            "the member whose put failed gets its stat"
        );
        let left = out.results[0].1;
        assert!(
            out.results.iter().all(|r| r.1 == left),
            "every member leaves the next team barrier together: {:?}",
            out.results
        );
    }

    #[test]
    fn a_failed_contribution_put_keeps_team_reduce_barriers_paired() {
        // Image 2's contribution to the root (image 1) is dropped.
        one_dropped_put_in_a_team_collective(8, 1, 0, |img, team, v| img.team_sum(team, v));
    }

    #[test]
    fn a_failed_payload_put_keeps_team_broadcast_barriers_paired() {
        // The root's (image 1's) payload put to image 2 is dropped.
        one_dropped_put_in_a_team_collective(50, 0, 1, |img, team, v| {
            img.team_broadcast(team, v, 1)
        });
    }

    #[test]
    fn reformation_excludes_a_dead_image_and_admits_a_spare() {
        // Images 1..4 work, image 5 idles as a spare. Image 3 dies; the
        // survivors re-form and the spare joins under the same number.
        let plan = FaultPlan::new(42).with_pe_failure(2, 50_000);
        let out = with_forced_plan(plan, || {
            run_caf(mcfg(5), cfg(), |img| {
                let me = img.this_image();
                let first = img.form_team(if me <= 4 { 3 } else { 4 });
                // Everyone (spare included) advances past the death
                // instant, then observes it at an image-control point.
                img.machine().advance(me - 1, 60_000.0);
                if me == 3 {
                    // Dead image: cooperative exit.
                    return (first.members().to_vec(), Vec::new(), 0);
                }
                let err = img.sync_all_stat().unwrap_err();
                assert_eq!(err, CafStat::FailedImage { image: 3 });
                // Re-form: survivors and the spare all pass number 3 now.
                // The reformed team contains no dead member, so its
                // collectives succeed again.
                let second = img.form_team(3);
                let mut v = [1i64];
                img.team_sum(&second, &mut v).unwrap();
                (first.members().to_vec(), second.members().to_vec(), v[0])
            })
        });
        let (first, second, sum) = &out.results[0];
        assert_eq!(*first, vec![1, 2, 3, 4]);
        assert_eq!(*second, vec![1, 2, 4, 5], "dead image out, spare in");
        assert_eq!(*sum, 4, "reduction ran over the four live members");
        // All live images agree on the reformed membership.
        for pe in [1usize, 3, 4] {
            assert_eq!(out.results[pe].1, *second);
        }
    }
}
