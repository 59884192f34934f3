//! The baton carrier: the [`crate::fiber`] API over scoped OS threads, one
//! per fiber, of which exactly one runs at a time.
//!
//! [`run`] spawns a thread per fiber and passes a baton between them and the
//! calling thread, which schedules. A fiber runs only while it holds the
//! baton and hands it back only in [`park`], [`yield_now`] or by finishing:
//! the yield points, FIFO ready queue and idle handler of the fiber carrier,
//! so a protocol written against one runs unchanged on the other. It is the
//! carrier of targets without the context switch, and on x86_64 Linux the
//! second carrier the first is tested against.
//!
//! If the scheduler unwinds (an idle handler that woke nobody), every fiber
//! still waiting for the baton unwinds out of its wait, so the threads can
//! be joined instead of hanging.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// What one [`run`] did, for the caller's ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Times a fiber was given the carrier.
    pub switches: u64,
}

/// The baton's holder when no fiber has it.
const SCHEDULER: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Ready,
    Running,
    Parked,
    Done,
}

struct Sched {
    holder: usize,
    state: Vec<State>,
    ready: VecDeque<usize>,
    live: usize,
    switches: u64,
    /// The scheduler unwound: nobody will hand the baton on again.
    abandoned: bool,
}

struct Baton {
    sched: Mutex<Sched>,
    /// One per fiber and the scheduler's last: signalled when the baton is
    /// handed to that holder.
    turn: Vec<Condvar>,
}

thread_local! {
    /// The baton this thread takes part in, and as whom (a fiber's id or
    /// `SCHEDULER`).
    static CURRENT: RefCell<Option<(Arc<Baton>, usize)>> = const { RefCell::new(None) };
}

impl Baton {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn signal(&self, who: usize) {
        self.turn[who.min(self.turn.len() - 1)].notify_one();
    }

    /// Give the baton from `me` to `next` and wait until it comes back.
    fn pass<'a>(
        &'a self,
        mut s: MutexGuard<'a, Sched>,
        me: usize,
        next: usize,
    ) -> MutexGuard<'a, Sched> {
        s.holder = next;
        self.signal(next);
        self.wait_for(s, me)
    }

    /// Wait until `me` holds the baton. A fiber unwinds instead if the run
    /// was abandoned.
    fn wait_for<'a>(&'a self, mut s: MutexGuard<'a, Sched>, me: usize) -> MutexGuard<'a, Sched> {
        while s.holder != me {
            if s.abandoned && me != SCHEDULER {
                drop(s);
                panic!("the carrier of this fiber unwound");
            }
            s = self.turn[me.min(self.turn.len() - 1)].wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s
    }

    /// Wake every waiting fiber to unwind: the scheduler is gone.
    fn abandon(&self) {
        self.lock().abandoned = true;
        self.turn.iter().for_each(Condvar::notify_all);
    }
}

/// The baton of the calling thread and its role in it, if any.
fn current_baton() -> Option<(Arc<Baton>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `body(0)`, …, `body(n - 1)` as baton fibers, each an OS thread with
/// `stack_bytes` of stack, and return their results (a panic's payload in
/// place of the result of the fiber it ended) with the run's counts.
///
/// `on_idle` is called on the calling thread whenever no fiber is runnable
/// and some are parked; it returns whether it made one runnable. If it did
/// not, the job can never go on and `run` panics.
pub fn run<T: Send>(
    n: usize,
    stack_bytes: usize,
    body: impl Fn(usize) -> T + Sync,
    mut on_idle: impl FnMut() -> bool,
) -> (Vec<std::thread::Result<T>>, RunStats) {
    if n == 0 {
        return (Vec::new(), RunStats::default());
    }
    let shared = Arc::new(Baton {
        sched: Mutex::new(Sched {
            holder: SCHEDULER,
            state: vec![State::Ready; n],
            ready: (0..n).collect(),
            live: n,
            switches: 0,
            abandoned: false,
        }),
        turn: (0..=n).map(|_| Condvar::new()).collect(),
    });
    let baton = &*shared;

    /// Puts the outer baton (none, unless this is a nested run) back.
    struct Restore(Option<(Arc<Baton>, usize)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    /// Releases the fibers, before the scope joins them, if the scheduler
    /// unwinds.
    struct Abandon<'a>(&'a Baton);
    impl Drop for Abandon<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.abandon();
            }
        }
    }

    let body = &body;
    let root = |id: usize, shared: Arc<Baton>| {
        CURRENT.with(|c| *c.borrow_mut() = Some((shared, id)));
        // Only an abandoned run never hands this fiber the baton.
        let started = catch_unwind(AssertUnwindSafe(|| drop(baton.wait_for(baton.lock(), id))));
        let out = started.ok().map(|()| catch_unwind(AssertUnwindSafe(|| body(id))));
        let mut s = baton.lock();
        s.state[id] = State::Done;
        s.live -= 1;
        s.holder = SCHEDULER;
        baton.signal(SCHEDULER);
        out
    };
    let outer = CURRENT.with(|c| c.replace(Some((Arc::clone(&shared), SCHEDULER))));
    let _restore = Restore(outer);
    std::thread::scope(|scope| {
        let fibers: Vec<_> = (0..n)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .stack_size(stack_bytes)
                    .spawn_scoped(scope, move || root(id, shared))
                    .expect("cannot spawn a baton fiber's thread")
            })
            .collect();
        let _abandon = Abandon(baton);
        let mut s = baton.lock();
        while s.live > 0 {
            let Some(id) = s.ready.pop_front() else {
                drop(s);
                let woke = on_idle();
                s = baton.lock();
                assert!(
                    woke && !s.ready.is_empty(),
                    "fiber deadlock: {} fibers are parked for good and the idle handler woke none",
                    s.live
                );
                continue;
            };
            s.state[id] = State::Running;
            s.switches += 1;
            s = baton.pass(s, SCHEDULER, id);
        }
        let stats = RunStats { switches: s.switches };
        drop(s);
        let results = fibers
            .into_iter()
            .map(|f| f.join().expect("a fiber's root catches its panics").expect("it ran"))
            .collect();
        (results, stats)
    })
}

/// Give up the baton until [`unpark`]ed. Panics off a fiber.
pub fn park() {
    let (baton, me) = current_baton()
        .filter(|&(_, me)| me != SCHEDULER)
        .expect("park() outside a fiber: only a fiber of a run can park");
    let mut s = baton.lock();
    s.state[me] = State::Parked;
    drop(baton.pass(s, me, SCHEDULER));
}

/// Make fiber `id` of the calling thread's run runnable if it is parked, and
/// say whether it was. Callable from the run's fibers and its idle handler;
/// panics anywhere else.
pub fn unpark(id: usize) -> bool {
    let (baton, _) = current_baton().expect(
        "unpark() from outside a carrier: only a run's fibers and its idle handler can unpark them",
    );
    let mut s = baton.lock();
    if s.state[id] != State::Parked {
        return false;
    }
    s.state[id] = State::Ready;
    s.ready.push_back(id);
    true
}

/// Let the other runnable fibers of this run go first; on a plain thread,
/// `std::thread::yield_now`.
pub fn yield_now() {
    match current_baton().filter(|&(_, me)| me != SCHEDULER) {
        Some((baton, me)) => {
            let mut s = baton.lock();
            s.state[me] = State::Ready;
            s.ready.push_back(me);
            drop(baton.pass(s, me, SCHEDULER));
        }
        None => std::thread::yield_now(),
    }
}

/// The index of the fiber the caller is running as, if it is one.
pub fn current() -> Option<usize> {
    current_baton().map(|(_, me)| me).filter(|&me| me != SCHEDULER)
}

/// Is the caller running as a fiber of some [`run`]?
pub fn is_fiber() -> bool {
    current().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    include!("carrier_tests.rs");
}
