//! Regression: team formation racing a scheduled PE death on a multi-node
//! machine.
//!
//! `form_team`'s member exchange once consulted the host-racy failure flag
//! to decide membership. A death landing mid-exchange — inevitable once
//! setup costs push formation past the deadline on larger machines — could
//! be observed by some images and not others, so survivors computed
//! *different* member lists and then waited behind *different* subset
//! barriers: a deadlock with every thread parked at ~0% CPU. Membership is
//! now a pure function of the fault plan and the barrier-aligned clock
//! (`pe_dead_at` at the post-exchange `sync all` instant), so every live
//! image derives the same list by construction.
//!
//! The test sweeps the death deadline across the whole formation window on
//! a 2-node machine (cross-node clock skew is what staggered the old
//! exchange). For every deadline the run must complete — completion *is*
//! the assertion, the old code deadlocked — and all survivors must agree
//! on the final membership.

use caf::{run_caf, Backend, CafConfig, CafStat};
use pgas_machine::{FaultPlan, Platform};

const WORKER_TEAM: i64 = 7;

/// Traffic + formation cycle at 8 images on two Titan nodes with worker
/// PE 2 (image 3) scheduled to die at `deadline`. Returns each live
/// image's final member list (`None` for the victim).
fn formation_cycle(deadline: u64) -> pgas_machine::SimOutcome<Option<Vec<usize>>> {
    let mcfg = Platform::Titan
        .config(2, 4)
        .with_heap_bytes(1 << 18)
        .with_faults(FaultPlan::new(0xF0B1).with_pe_failure(2, deadline));
    let ccfg = CafConfig::new(Backend::Shmem, Platform::Titan);
    let out = run_caf(mcfg, ccfg, |img| {
        let n = img.num_images();
        let me = img.this_image();
        let a = img.coarray::<u64>(&[8]).expect("scratch coarray");
        img.sync_all();
        let mut team = img.form_team(WORKER_TEAM);
        for round in 0..4u64 {
            if img.this_image_failed() {
                return None;
            }
            // Cross-node puts stagger the image clocks, so each round's
            // re-formation starts from skewed instants — the shape that
            // split the old flag-based exchange.
            let peer = (me % n) + 1;
            if !img.image_dead_by_now(peer) {
                let _ = a.put_elem_stat(img, peer, &[(round % 8) as usize], me as u64);
            }
            match img.sync_all_stat() {
                Ok(()) | Err(CafStat::FailedImage { .. }) => {}
                Err(e) => panic!("unexpected stat: {e:?}"),
            }
            if img.this_image_failed() {
                return None;
            }
            // Re-form every round: some sweep deadlines land inside this
            // call's exchange, some inside the barrier before or after it.
            team = img.form_team(WORKER_TEAM);
        }
        Some(team.members().to_vec())
    });
    out
}

#[test]
fn formation_survives_a_death_anywhere_in_its_window() {
    // The healthy cycle spans roughly 3–60 µs of virtual time at this
    // size; step fine enough that deadlines land between, before, and
    // inside the formation calls.
    for deadline in (3_000..=63_000).step_by(4_000) {
        let out = formation_cycle(deadline);
        assert_eq!(out.stats.pe_failures, 1, "the death landed (deadline {deadline})");
        let results = out.results;
        let survivors: Vec<&Vec<usize>> = results.iter().flatten().collect();
        assert!(
            survivors.len() >= results.len() - 1,
            "only the victim may drop out (deadline {deadline}): {results:?}"
        );
        for m in &survivors {
            assert_eq!(
                *m, survivors[0],
                "every survivor derives the same membership (deadline {deadline})"
            );
        }
        // Once the death lands before the last re-formation, the final
        // membership must exclude the victim (image 3).
        if survivors.iter().any(|m| !m.contains(&3)) {
            assert!(
                survivors.iter().all(|m| !m.contains(&3)),
                "the victim's exclusion is agreed unanimously (deadline {deadline})"
            );
        }
    }
}
