// Tests of the carrier API (`run`, `park`, `unpark`, `yield_now`, `current`),
// included in the test module of both carriers: `fiber::tests` and
// `baton::tests` run the same cases.

use crate::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn unwrap_all<T>(results: Vec<std::thread::Result<T>>) -> Vec<T> {
    results.into_iter().map(|r| r.expect("fiber panicked")).collect()
}

fn message(payload: &(dyn std::any::Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s,
        _ => "<non-string panic payload>",
    }
}

#[test]
fn yields_take_turns_in_fifo_order_and_every_one_is_a_switch() {
    const YIELDS: usize = 1000;
    let order = Mutex::new(Vec::new());
    let (results, stats) = run(
        3,
        64 << 10,
        |id| {
            for round in 0..YIELDS {
                order.lock().push((round, id));
                yield_now();
            }
            current()
        },
        || false,
    );
    assert_eq!(unwrap_all(results), vec![Some(0), Some(1), Some(2)]);
    let want: Vec<_> = (0..YIELDS).flat_map(|round| (0..3).map(move |id| (round, id))).collect();
    assert_eq!(*order.lock(), want);
    assert_eq!(stats.switches, 3 * (YIELDS as u64 + 1));
    assert_eq!(current(), None, "the caller is not a fiber once the run returned");
}

#[test]
fn a_panicking_fiber_is_caught_and_the_others_finish() {
    let (results, _) = run(
        3,
        64 << 10,
        |id| {
            yield_now();
            if id == 1 {
                panic!("fiber 1 gives up");
            }
            yield_now();
            id * 10
        },
        || false,
    );
    assert_eq!(*results[0].as_ref().unwrap(), 0);
    assert_eq!(message(&**results[1].as_ref().unwrap_err()), "fiber 1 gives up");
    assert_eq!(*results[2].as_ref().unwrap(), 20);
}

#[test]
fn unpark_hands_the_carrier_from_fiber_to_fiber() {
    // Two fibers take turns: each bumps the counter, unparks the other and
    // parks, so every round is one unpark and one park.
    const ROUNDS: usize = 10_000;
    let turn = AtomicUsize::new(0);
    let (results, stats) = run(
        2,
        64 << 10,
        |me| {
            while turn.load(Ordering::Relaxed) < ROUNDS {
                if turn.load(Ordering::Relaxed) % 2 == me {
                    turn.fetch_add(1, Ordering::Relaxed);
                    assert!(unpark(1 - me) || turn.load(Ordering::Relaxed) == 1, "the other parked");
                } else {
                    park();
                }
            }
            unpark(1 - me);
        },
        || unreachable!("the fibers wake each other"),
    );
    unwrap_all(results);
    assert!(stats.switches >= ROUNDS as u64);
}

#[test]
fn the_idle_handler_runs_only_when_no_fiber_can() {
    // Three fibers park; a fourth yields 100 times first. The handler is
    // called once the yielder is done, and unparks one fiber a call, highest
    // first.
    let order = Mutex::new(Vec::new());
    let mut idle_calls = 0;
    let (results, _) = run(
        4,
        64 << 10,
        |id| {
            if id == 3 {
                (0..100).for_each(|_| yield_now());
            } else {
                park();
            }
            order.lock().push(id);
        },
        || {
            idle_calls += 1;
            (0..3).rev().any(unpark)
        },
    );
    unwrap_all(results);
    assert_eq!(*order.lock(), vec![3, 2, 1, 0]);
    assert_eq!(idle_calls, 3);
}

#[test]
fn untimed_waiters_with_nobody_to_wake_them_stall_at_once() {
    let set = AtomicBool::new(false);
    let mut idle_calls = 0;
    let (results, _) = run(
        1,
        64 << 10,
        |_| {
            while !set.load(Ordering::Relaxed) {
                park();
            }
        },
        || {
            idle_calls += 1;
            set.store(true, Ordering::Relaxed);
            unpark(0)
        },
    );
    unwrap_all(results);
    assert_eq!(idle_calls, 1);
}

#[test]
#[should_panic(expected = "woke none")]
fn a_stall_the_handler_does_not_resolve_panics_instead_of_hanging() {
    run(2, 64 << 10, |_| park(), || false);
}

#[test]
fn a_foreign_thread_notifying_parked_fibers_panics_with_a_message() {
    let set = AtomicBool::new(false);
    let mut foreign = None;
    let (results, _) = run(
        1,
        64 << 10,
        |_| {
            while !set.load(Ordering::Relaxed) {
                park();
            }
        },
        || {
            // The fiber is parked now. A thread that is not its carrier
            // cannot reach it…
            foreign = Some(std::thread::scope(|s| {
                s.spawn(|| std::panic::catch_unwind(|| unpark(0))).join().unwrap()
            }));
            // …and the fiber is still there for its own carrier to wake.
            set.store(true, Ordering::Relaxed);
            unpark(0)
        },
    );
    unwrap_all(results);
    let payload = foreign.unwrap().unwrap_err();
    let msg = message(&*payload);
    assert!(msg.contains("from outside a carrier"), "got: {msg}");
}

#[test]
fn a_second_carrier_cannot_unpark_the_first_ones_fibers() {
    // Fiber 0 of the outer run parks; its idle handler runs a second run
    // on the same thread, whose fiber 0 unparks "fiber 0": itself, running,
    // so nothing happens. The outer fiber stays parked until its own carrier
    // wakes it.
    let set = AtomicBool::new(false);
    let mut inner = None;
    let (results, _) = run(
        1,
        64 << 10,
        |_| {
            while !set.load(Ordering::Relaxed) {
                park();
            }
        },
        || {
            let (r, _) = run(1, 64 << 10, |_| unpark(0), || false);
            inner = unwrap_all(r).pop();
            set.store(true, Ordering::Relaxed);
            unpark(0)
        },
    );
    unwrap_all(results);
    assert_eq!(inner, Some(false), "the inner run reached the outer fiber");
}

#[test]
fn a_run_from_inside_a_fiber_nests_on_that_fibers_stack() {
    let (results, _) = run(
        2,
        256 << 10,
        |outer| {
            yield_now();
            let (inner, stats) = run(
                3,
                64 << 10,
                |id| {
                    yield_now();
                    assert_eq!(current(), Some(id));
                    outer * 10 + id
                },
                || false,
            );
            assert_eq!(stats.switches, 6);
            // Back under the outer run: yielding reaches the sibling.
            assert_eq!(current(), Some(outer));
            yield_now();
            unwrap_all(inner)
        },
        || false,
    );
    assert_eq!(unwrap_all(results), vec![vec![0, 1, 2], vec![10, 11, 12]]);
}
