//! End-to-end Fortran 2018 failed-image semantics: a scheduled PE death
//! mid-run, observed by the survivors through `stat=` interfaces, with the
//! MCS lock the dead image held repaired by the next waiter.

use caf::{run_caf, Backend, CafConfig, CafStat, LockStat};
use pgas_machine::{generic_smp, FaultPlan, Platform, SanitizerMode};

fn cfg() -> CafConfig {
    CafConfig::new(Backend::Shmem, Platform::GenericSmp)
}

fn mcfg(n: usize) -> pgas_machine::MachineConfig {
    generic_smp(n).with_heap_bytes(1 << 18)
}

/// The acceptance scenario: image 2 acquires a lock homed on image 1, dies
/// at its scheduled instant, and returns early without unlocking (the
/// cooperative failure model). Image 3, queued behind it, evicts the dead
/// holder (one lock repair); the survivors see STAT_FAILED_IMAGE from
/// `sync all`, `failed_images()` reports the death, and a survivor-side
/// `co_sum` still completes.
#[test]
fn scheduled_death_is_survivable_and_lock_is_repaired() {
    let deadline = 300_000; // ns, comfortably after the setup barriers
    let plan = FaultPlan::new(0xDEAD).with_pe_failure(1, deadline);
    let out = run_caf(mcfg(4).with_faults(plan), cfg(), |img| {
        let lck = img.lock_var();
        let me = img.this_image();
        img.sync_all();
        if me == 2 {
            img.lock(&lck, 1);
            img.sync_all(); // publish: the lock is now held
                            // Run the clock over the scheduled failure instant, then
                            // cooperate: return without unlocking.
            while !img.this_image_failed() {
                img.machine().advance(me - 1, 10_000.0);
            }
            assert_eq!(img.sync_all_stat(), Err(CafStat::FailedImage { image: 2 }));
            assert_eq!(
                img.lock_stat(&lck, 2),
                Err(LockStat::StatFailedImage),
                "a dead image's own lock attempts observe its failure"
            );
            return (Vec::new(), Ok(()), 0);
        }
        img.sync_all(); // matches image 2's post-acquire barrier
        if me == 3 {
            // Queues behind the (soon to be dead) holder; the repair path
            // steals the lock once image 2's death is marked.
            img.lock(&lck, 1);
            img.unlock(&lck, 1);
        }
        // Enter the post-failure collective phase only after observing the
        // failure — the survivor-set discipline.
        img.machine().wait_on(me - 1, || img.image_failed(2));
        let stat = img.sync_all_stat();
        let failed = img.failed_images();
        let mut v = [me as i64];
        let cs = img.co_sum_stat(&mut v, None);
        assert_eq!(cs, Err(CafStat::FailedImage { image: 2 }));
        (failed, stat, v[0])
    });

    for pe in [0, 2, 3] {
        let (failed, stat, sum) = &out.results[pe];
        assert_eq!(failed, &vec![2], "PE {pe} failed_images()");
        assert_eq!(stat, &Err(CafStat::FailedImage { image: 2 }), "PE {pe} sync_all_stat");
        assert_eq!(*sum, 1 + 3 + 4, "PE {pe} survivor co_sum");
    }
    assert_eq!(out.stats.pe_failures, 1);
    assert_eq!(out.stats.lock_repairs, 1, "image 3 evicted the dead holder exactly once");
    assert_eq!(out.stats.lock_leaks, 1, "image 2's held lock leaked at teardown");
    assert_eq!(out.failed_pes, vec![1]);
    assert!(
        out.fault_events.iter().any(|e| e.kind == "pe-failure" && e.pe == 1),
        "death logged: {:?}",
        out.fault_events
    );
    assert!(
        out.fault_events.iter().any(|e| e.kind == "lock-repair" && e.pe == 2 && e.target == 1),
        "repair logged: {:?}",
        out.fault_events
    );
}

/// `sync images` with a partner that dies before arriving abandons the
/// handshake with STAT_FAILED_IMAGE; handshakes with live partners in the
/// same list still complete.
#[test]
fn sync_images_stat_abandons_dead_partner() {
    let plan = FaultPlan::new(7).with_pe_failure(2, 100_000);
    let out = run_caf(mcfg(3).with_faults(plan), cfg(), |img| {
        let me = img.this_image();
        img.sync_all();
        match me {
            3 => {
                // Die without ever syncing.
                while !img.this_image_failed() {
                    img.machine().advance(2, 10_000.0);
                }
                Ok(())
            }
            _ => {
                img.machine().wait_on(me - 1, || img.image_failed(3));
                let partner = if me == 1 { 2 } else { 1 };
                img.sync_images_stat(&[partner, 3])
            }
        }
    });
    assert_eq!(out.results[0], Err(CafStat::FailedImage { image: 3 }));
    assert_eq!(out.results[1], Err(CafStat::FailedImage { image: 3 }));
}

/// A dead source image turns `co_broadcast_stat` into an error on every
/// survivor; a live source among survivors still replicates.
#[test]
fn survivor_broadcast_and_dead_source() {
    let plan = FaultPlan::new(9).with_pe_failure(0, 100_000);
    let out = run_caf(mcfg(4).with_faults(plan), cfg(), |img| {
        let me = img.this_image();
        img.sync_all();
        if me == 1 {
            while !img.this_image_failed() {
                img.machine().advance(0, 10_000.0);
            }
            return (Err(CafStat::FailedImage { image: 1 }), 0);
        }
        img.machine().wait_on(me - 1, || img.image_failed(1));
        let mut dead_src = [me as i64];
        let from_dead = img.co_broadcast_stat(&mut dead_src, 1);
        assert_eq!(dead_src[0], me as i64, "buffer untouched when the source is dead");
        let mut live_src = [if me == 2 { 77 } else { 0 }];
        let from_live = img.co_broadcast_stat(&mut live_src, 2);
        assert_eq!(from_live, Err(CafStat::FailedImage { image: 1 }), "stat still reports");
        (from_dead, live_src[0])
    });
    for pe in 1..4 {
        let (from_dead, v) = out.results[pe];
        assert_eq!(from_dead, Err(CafStat::FailedImage { image: 1 }));
        assert_eq!(v, 77, "PE {pe} received the live source's payload");
    }
}

/// Stat-bearing co-indexed access: puts/gets to a dead image return
/// STAT_FAILED_IMAGE instead of panicking, and the survivors' transfers
/// still land.
#[test]
fn coarray_stat_ops_observe_dead_targets() {
    let plan = FaultPlan::new(3).with_pe_failure(1, 100_000);
    let out = run_caf(mcfg(3).with_faults(plan), cfg(), |img| {
        let c = img.coarray::<i64>(&[2]).unwrap();
        let me = img.this_image();
        img.sync_all();
        if me == 2 {
            while !img.this_image_failed() {
                img.machine().advance(1, 10_000.0);
            }
            return (Ok(()), Ok(0), 0);
        }
        img.machine().wait_on(me - 1, || img.image_failed(2));
        let to_dead = c.put_to_stat(img, 2, &[5, 5]);
        let from_dead = c.get_elem_stat(img, 2, &[0]);
        let partner = if me == 1 { 3 } else { 1 };
        c.put_elem_stat(img, partner, &[0], me as i64).unwrap();
        img.sync_images_stat(&[partner]).unwrap();
        (to_dead, from_dead, c.get_elem_stat(img, partner, &[1]).unwrap_or(-1))
    });
    for pe in [0, 2] {
        let (to_dead, from_dead, _) = &out.results[pe];
        assert_eq!(to_dead, &Err(CafStat::FailedImage { image: 2 }));
        assert_eq!(from_dead, &Err(CafStat::FailedImage { image: 2 }));
    }
}

/// `event wait` with a poster that dies reports STAT_FAILED_IMAGE; posts
/// that arrived before the death stay consumable.
#[test]
fn event_wait_stat_observes_poster_death() {
    let plan = FaultPlan::new(5).with_pe_failure(1, 100_000);
    let out = run_caf(mcfg(2).with_faults(plan), cfg(), |img| {
        let ev = img.event_var();
        let me = img.this_image();
        if me == 2 {
            img.event_post(&ev, 1); // one post, then die
            while !img.this_image_failed() {
                img.machine().advance(1, 10_000.0);
            }
            return (Ok(()), 0);
        }
        let first = img.event_wait_stat(&ev, 1, 2); // satisfied by the post
        let second = img.event_wait_stat(&ev, 1, 2); // poster dies instead
        assert_eq!(second, Err(CafStat::FailedImage { image: 2 }));
        (first, img.event_query(&ev))
    });
    assert_eq!(out.results[0], (Ok(()), 0), "the delivered post was consumed, none leak");
}

/// Satellite: deallocating a *held* lock variable (then recycling its slot)
/// is caught by the sanitizer's teardown audit as a stale-lock hazard.
#[test]
fn stale_lock_audit_reports_erroneous_deallocation() {
    pgas_machine::with_forced_mode(SanitizerMode::Record, || {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let lck1 = img.lock_var();
            if img.this_image() == 1 {
                img.lock(&lck1, 1);
            }
            img.sync_all();
            // Erroneous: the lock is still held by image 1.
            img.shmem().shfree(lck1.tail_ptr()).unwrap();
            let lck2 = img.lock_var(); // recycles the freed slot
            assert_eq!(lck2.tail_ptr().offset(), lck1.tail_ptr().offset());
            img.sync_all();
        });
        let stale: Vec<_> =
            out.hazard_reports.iter().filter(|r| r.kind == caf::HazardKind::StaleLock).collect();
        assert_eq!(stale.len(), 1, "exactly image 1's held entry is stale: {stale:?}");
        assert_eq!(stale[0].accessor, 0, "image 1 held it");
        assert_eq!(out.stats.lock_leaks, 1, "still counted as a leak too");
    });
}

/// Balanced lock use with no deallocation produces no stale-lock reports —
/// the audit has no false positives on clean runs.
#[test]
fn stale_lock_audit_is_quiet_on_clean_runs() {
    pgas_machine::with_forced_mode(SanitizerMode::Record, || {
        let out = run_caf(mcfg(2), cfg(), |img| {
            let lck = img.lock_var();
            img.sync_all();
            img.lock(&lck, 1);
            img.unlock(&lck, 1);
            img.critical(|| ());
            img.sync_all();
        });
        assert!(
            out.hazard_reports.iter().all(|r| r.kind != caf::HazardKind::StaleLock),
            "{:?}",
            out.hazard_reports
        );
    });
}
