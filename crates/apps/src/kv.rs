//! The sharded table under the DHT, churn and serving workloads: the slot
//! update (one active message or a locked get–modify–put), the recovery
//! state that re-forms the worker team around a lost shard owner, and the
//! end-of-run accounting. Where a key lands (home and slot) stays with each
//! workload.
//!
//! Every slot update is a wrapping add of the key, so the final table is
//! independent of update order: replays and retries may land in any order,
//! and the oracle is a plain key sum.

use caf::{CafLock, CafStat, CafTeam, Coarray, Image};
use openshmem::{AmHandler, AmHandlerId, AmTarget, ConduitError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Team number the serving workers form (and re-form) under; the spare
/// passes it too when it rejoins after a failure.
pub(crate) const WORKER_TEAM: i64 = 7;
/// Team number the spare idles under before a failure.
pub(crate) const SPARE_TEAM: i64 = 11;

/// Seed of `image`'s key stream.
pub(crate) fn key_seed(seed: u64, image: usize) -> u64 {
    seed ^ (image as u64).wrapping_mul(0x9E37_79B9)
}

/// Wrapping sum of the first `per_image` keys of each of images
/// `1..=images`: the table oracle of a healthy run.
pub(crate) fn key_sum(seed: u64, images: usize, per_image: usize) -> u64 {
    (1..=images).fold(0, |sum, image| {
        let mut rng = SmallRng::seed_from_u64(key_seed(seed, image));
        (0..per_image).fold(sum, |sum, _| sum.wrapping_add(rng.gen::<u64>()))
    })
}

/// The update handler: `arg` is `[slot offset, key]` as two little-endian
/// u64s, and the slot gets `wrapping_add(key)` in place at the home image.
/// It charges no target-side compute: the message costs the profile's
/// dispatch and nothing more.
pub(crate) struct UpdateAm;

impl AmHandler for UpdateAm {
    fn execute(&self, t: &mut AmTarget<'_>, arg: &[u8]) -> Option<Vec<u8>> {
        let off = u64::from_le_bytes(arg[0..8].try_into().expect("update arg")) as usize;
        let key = u64::from_le_bytes(arg[8..16].try_into().expect("update arg"));
        let v = t.read_u64(off);
        t.write_u64(off, v.wrapping_add(key));
        None
    }
}

/// Add `key` to `slot` of `home`'s shard with one [`UpdateAm`] message.
pub(crate) fn am_update(
    img: &Image<'_>,
    table: &Coarray<u64>,
    am: AmHandlerId,
    home: usize,
    slot: usize,
    key: u64,
) -> Result<(), ConduitError> {
    let mut arg = [0u8; 16];
    arg[0..8].copy_from_slice(&(table.ptr().at(slot).offset() as u64).to_le_bytes());
    arg[8..16].copy_from_slice(&key.to_le_bytes());
    img.shmem().try_am_send(img.pe_of(home), am, &arg)
}

/// Add `key` to `slot` of `home`'s shard under `lock` on `home`: lock, get,
/// put, unlock. A failed get skips the put; the lock is released either
/// way.
pub(crate) fn locked_update(
    img: &Image<'_>,
    lock: &CafLock,
    table: &Coarray<u64>,
    home: usize,
    slot: usize,
    key: u64,
) -> Result<(), CafStat> {
    img.lock(lock, home);
    let r = table
        .get_elem_stat(img, home, &[slot])
        .and_then(|v| table.put_elem_stat(img, home, &[slot], v.wrapping_add(key)));
    img.unlock(lock, home);
    r
}

/// One acknowledged update: its shard, its key, and the image that
/// acknowledged it most recently (moved when a recovery replay re-sends it).
pub(crate) struct Rec {
    pub shard: usize,
    pub key: u64,
    pub owner: usize,
}

/// The end-of-run accounting, after a completion barrier: the wrapping key
/// sum of the acknowledged `(owner, key)` updates whose owner is live, and
/// on image 1 the wrapping sum of the live part of the table (0 on every
/// other image).
///
/// Both liveness guards are deterministic here: the failure flag is
/// ordered before the barrier exit, and the deadline probe is a pure
/// function of this image's barrier-aligned clock.
pub(crate) fn settle(
    img: &Image<'_>,
    table: &Coarray<u64>,
    acks: impl IntoIterator<Item = (usize, u64)>,
) -> (u64, u64) {
    let dead = |image: usize| img.image_failed(image) || img.image_dead_by_now(image);
    let live = acks.into_iter().filter(|&(owner, _)| !dead(owner));
    let acked = live.fold(0u64, |a, (_, key)| a.wrapping_add(key));
    let mut checksum = 0u64;
    if img.this_image() == 1 && !img.this_image_failed() {
        for image in (1..=img.num_images()).filter(|&i| !dead(i)) {
            // The fold itself moves the clock, so a shard can cross its
            // scheduled deadline between the probe and the read: skip it,
            // exactly as the probe would have.
            if let Ok(vs) = table.get_from_stat(img, image) {
                checksum = vs.into_iter().fold(checksum, u64::wrapping_add);
            }
        }
    }
    (acked, checksum)
}

/// Reassign shards after a re-formation: shards whose owner survives stay
/// put; a dead owner's shards go to the newcomers (images that were not
/// owners before — the spares) round-robin, or to surviving members if no
/// newcomer joined. Pure function of the old map and the new membership,
/// so every live image computes the same map without communicating.
fn reassign_shards(map: &[usize], team: &CafTeam) -> Vec<usize> {
    let newcomers: Vec<usize> =
        team.members().iter().copied().filter(|m| !map.contains(m)).collect();
    let pool = if newcomers.is_empty() { team.members() } else { &newcomers };
    let mut moved = 0;
    map.iter()
        .map(|&owner| {
            if team.contains(owner) {
                return owner;
            }
            moved += 1;
            pool[(moved - 1) % pool.len()]
        })
        .collect()
}

/// Who serves which shard, for a table with one shard per initial worker
/// and a spare that rejoins after a failure. Recovery runs at most once.
pub(crate) struct Shards {
    /// The worker team (the spare's own team until the re-formation).
    pub team: CafTeam,
    /// Owner image of each shard.
    pub map: Vec<usize>,
    /// Whether the team has re-formed; barriers are team-scoped from then on.
    reformed: bool,
}

impl Shards {
    /// Collective: images `1..=workers` form the worker team, each owning
    /// the shard of its own number; the rest idle as spares.
    pub fn form(img: &Image<'_>, workers: usize) -> Shards {
        let number = if img.this_image() <= workers { WORKER_TEAM } else { SPARE_TEAM };
        Shards { team: img.form_team(number), map: (1..=workers).collect(), reformed: false }
    }

    /// Does image `me` serve this epoch?
    pub fn serving(&self, me: usize) -> bool {
        self.team.number() == WORKER_TEAM && self.team.contains(me)
    }

    /// An epoch boundary. Synchronize (globally before recovery, so the
    /// idle spare observes a failure at the same control point; team-scoped
    /// after, when every live image is a member), then probe the owners. If
    /// one was lost: re-form the worker team with the spare, reassign the
    /// dead owner's shards, and replay onto them every `journal` entry
    /// whose shard moved, through `send` (true = acknowledged). Returns the
    /// number replayed when recovery ran; the caller drains its own parked
    /// work against the new map, then calls `img.sync_team(&self.team)` so
    /// all of it lands before anyone serves against that map.
    pub fn boundary(
        &mut self,
        img: &Image<'_>,
        journal: &mut [Rec],
        mut send: impl FnMut(usize, u64) -> bool,
    ) -> Option<u64> {
        let _ = if self.reformed { img.sync_team_stat(&self.team) } else { img.sync_all_stat() };
        // The stat result above races host time: the victim's failure flag
        // flips when *its* thread crosses the deadline, so a slow survivor
        // could see FailedImage a round before a fast one, and a split
        // decision would leave some images inside the `form_team`
        // collective. The decision branches instead on the deadline probe
        // against the barrier-aligned clock, which every live image
        // evaluates identically.
        let lost = !self.reformed
            && !img.this_image_failed()
            && self.map.iter().any(|&owner| img.image_dead_by_now(owner));
        if !lost {
            return None;
        }
        // Survivors and the spare all pass the worker number: the dead
        // image is excluded from the member exchange, the spare joins.
        self.team = img.form_team(WORKER_TEAM);
        self.map = reassign_shards(&self.map, &self.team);
        self.reformed = true;
        let mut replayed = 0;
        for r in journal.iter_mut() {
            let home = self.map[r.shard];
            if home != r.owner && send(home, r.key) {
                r.owner = home;
                replayed += 1;
            }
        }
        Some(replayed)
    }

    /// The completion barrier of a live image (a failed one skips it): so
    /// every in-flight update has applied before the accounting reads.
    pub fn complete(&self, img: &Image<'_>) {
        if !img.this_image_failed() {
            if self.reformed {
                img.sync_team(&self.team);
            } else {
                img.sync_all();
            }
        }
    }
}
