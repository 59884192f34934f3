//! Stackful fibers on one carrier thread: the workspace's only `unsafe`.
//!
//! [`run`] turns the calling thread into a *carrier*: it maps one stack per
//! fiber, runs `body(0..n)` as fibers under a FIFO scheduler on the caller's
//! own stack, and returns when all have finished. A fiber gives up the
//! carrier only inside this crate: [`crate::Condvar::wait`] /
//! [`crate::Condvar::wait_for`] park it until a notify (or an expiry, below),
//! and [`yield_now`] requeues it behind the other runnable fibers. Nothing
//! preempts a fiber, so code between two such calls runs atomically with
//! respect to every other fiber of the job.
//!
//! **Timed waits are not real time.** With one carrier nothing can change
//! while no fiber runs, so sleeping out a timeout would only burn host time.
//! A `wait_for` records a deadline on a logical clock instead; when the ready
//! queue runs dry the scheduler expires *every* timed waiter, earliest
//! deadline first, and counts them ([`RunStats::expiries`]). A protocol that
//! sends every wake it owes therefore shows 0 expiries.
//!
//! **Stalls are detected.** If one such sweep made no waiter leave its wait
//! loop (each re-waited with the guard it woke up with, see
//! [`Parker::park`]) and nobody finished, no fiber can ever run again. The
//! scheduler then calls the job's `on_stall`, which must make one runnable
//! (the machine poisons itself and interrupts every wait) — a hang becomes a
//! report.
//!
//! # The `unsafe` contract
//!
//! * **Stacks.** All stacks are one private anonymous `mmap`, each slot a
//!   `PROT_NONE` guard page below `stack_bytes` of stack; an overflow faults
//!   in the fiber's own guard page (frames larger than a page are probed by
//!   rustc), never in a neighbour. The mapping outlives every switch into it:
//!   it is unmapped when [`run`] returns or unwinds, after which no fiber is
//!   ever resumed.
//! * **Switch.** `pgas_fiber_switch` saves the System V callee-saved integer
//!   registers and the stack pointer, and restores another context's; to the
//!   compiler it is an ordinary `extern "C"` call. MXCSR and the x87 control
//!   word are not switched: nothing in a Rust program changes them. A fresh
//!   stack is seeded so that the first switch into it "returns" into
//!   [`fiber_main`] with the alignment a `call` would have left.
//! * **No unwinding across a switch.** Every fiber's root is the
//!   `catch_unwind` around `body` in [`run`]; `fiber_main` is `extern "C"`,
//!   so anything that still escaped would abort rather than unwind into the
//!   seeded frame. A fiber must not park while it unwinds (the panic count is
//!   the carrier's thread-local).
//! * **No `&mut` across a switch.** The runtime lives on the carrier's stack
//!   and is only ever reached through a shared reference; its state is in
//!   `Cell`s and statement-scoped `RefCell` borrows, so no exclusive borrow
//!   is alive when control moves to another stack.
//! * **One thread.** The runtime is found through a thread-local, so only
//!   the carrier can touch it. A [`Waiter`] is plain data and may be read by
//!   another thread (it sits in a `Condvar`); acting on it there panics in
//!   [`carrier_of`] before any queue is touched.
//!
//! Every fiber shares the carrier's thread-locals; a nested [`run`] from
//! inside a fiber runs its own scheduler on that fiber's stack and suspends
//! the outer job until it returns.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// This target has the context switch; [`run`] works.
pub const SUPPORTED: bool = true;

// rdi = where to save the outgoing stack pointer, rsi = stack pointer to load.
core::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".hidden pgas_fiber_switch",
    ".global pgas_fiber_switch",
    ".type pgas_fiber_switch,@function",
    "pgas_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size pgas_fiber_switch, .-pgas_fiber_switch",
);

extern "C" {
    fn pgas_fiber_switch(save: *mut *mut u8, load: *mut u8);
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
/// The base page size of x86_64 Linux.
const PAGE: usize = 4096;
/// Words seeded on a fresh stack: six registers, the entry address, and the
/// slot a `call` would have pushed its return address into.
const SEED_WORDS: usize = 8;

/// Every fiber's stack, in one mapping.
struct Stacks {
    base: *mut u8,
    slot: usize,
    n: usize,
}

impl Stacks {
    fn map(n: usize, stack_bytes: usize) -> Stacks {
        let stack = stack_bytes.max(4 * PAGE).next_multiple_of(PAGE);
        let slot = stack + PAGE;
        let len = slot.checked_mul(n).expect("fiber stacks overflow the address space");
        // SAFETY: a fresh anonymous private mapping at an address the kernel
        // picks aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_PRIVATE_ANON_NORESERVE, -1, 0)
        };
        assert!(base as isize != -1, "cannot map {n} fiber stacks of {stack} bytes");
        let stacks = Stacks { base: base.cast(), slot, n };
        for i in 0..n {
            // SAFETY: the page is the first of slot `i`, inside the mapping
            // made above and owned by `stacks`; no stack is in use yet.
            let rc = unsafe { mprotect(stacks.base.add(i * slot).cast(), PAGE, PROT_NONE) };
            assert!(rc == 0, "cannot protect the guard page of fiber {i} (vm.max_map_count?)");
        }
        stacks
    }

    /// The initial stack pointer of fiber `i`: its stack seeded so that the
    /// first switch into it pops six zeroed registers and returns into
    /// [`fiber_main`].
    fn seeded(&self, i: usize) -> *mut u8 {
        assert!(i < self.n);
        // SAFETY: `top` is one past slot `i` of the mapping, page-aligned; the
        // `SEED_WORDS` words below it are writable stack that nothing else
        // uses before the first switch. The entry address sits at `top - 16`,
        // so after the `ret` that pops it `rsp = top - 8`: 8 mod 16, what the
        // ABI guarantees a callee at entry.
        unsafe {
            let top = self.base.add((i + 1) * self.slot).cast::<usize>();
            let sp = top.sub(SEED_WORDS);
            sp.write_bytes(0, SEED_WORDS);
            top.sub(2).write(fiber_main as extern "C" fn() -> ! as usize);
            sp.cast()
        }
    }
}

impl Drop for Stacks {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping made in `map`; `run` drops it only once
        // no fiber will be resumed again.
        unsafe { munmap(self.base.cast(), self.slot * self.n) };
    }
}

/// Why a parked fiber runs again.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Wake {
    Notified,
    Expired,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Ready,
    Running,
    Parked,
    Done,
}

struct Fiber {
    /// Saved stack pointer while the fiber is not running.
    sp: Cell<*mut u8>,
    state: Cell<State>,
    wake: Cell<Wake>,
    /// Key of this fiber in `Runtime::timed` while it is in a timed park.
    deadline: Cell<Option<u64>>,
}

/// What one [`run`] did, for the caller's ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Times a fiber was given the carrier.
    pub switches: u64,
    /// Timed waits that ran out (see the module docs): 0 in a run whose
    /// every wake was sent.
    pub expiries: u64,
    /// Times the scheduler found the job stalled and called `on_stall`.
    pub stalls: u64,
}

const SCHEDULER: usize = usize::MAX;

struct Runtime<'a> {
    /// Runs fiber `i`'s body to completion; never unwinds.
    entry: &'a dyn Fn(usize),
    fibers: Vec<Fiber>,
    sched_sp: Cell<*mut u8>,
    /// The running fiber, or `SCHEDULER`.
    current: Cell<usize>,
    ready: RefCell<VecDeque<usize>>,
    /// Timed parks, by `(deadline on the logical clock, fiber)`.
    timed: RefCell<BTreeSet<(u64, usize)>>,
    /// The logical clock deadlines are set against; moves only on expiry.
    vnow: Cell<u64>,
    live: Cell<usize>,
    /// Moves whenever a fiber finishes or starts a wait it did not just
    /// expire out of; a sweep after which it has not moved woke nobody for
    /// good.
    progress: Cell<u64>,
    stats: Cell<RunStats>,
}

thread_local! {
    /// The runtime whose fibers this thread is carrying, if any.
    static RUNTIME: Cell<*const Runtime<'static>> = const { Cell::new(std::ptr::null()) };
}

fn runtime<'a>() -> Option<&'a Runtime<'a>> {
    let rt = RUNTIME.with(Cell::get);
    // SAFETY: non-null only while `run` is on this thread's stack below the
    // caller (it resets the pointer before its `Runtime` dies, also on
    // unwind), and every caller is either that `run` or a fiber it resumed,
    // neither of which outlives it. The lifetime only ever shrinks.
    unsafe { rt.cast::<Runtime<'a>>().as_ref() }
}

impl Runtime<'_> {
    fn bump(&self, f: impl FnOnce(&mut RunStats)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        self.stats.set(stats);
    }

    /// Leave fiber `id` (whose state the caller has set) for the scheduler;
    /// returns when the scheduler resumes it.
    fn leave(&self, id: usize) {
        // SAFETY: called on fiber `id`'s stack, so its `sp` cell is the right
        // place for the outgoing context; `sched_sp` was saved by the
        // scheduler's own switch into this fiber and its frame in `run` is
        // still live. No `RefCell` borrow is open (all are statement-scoped).
        unsafe { pgas_fiber_switch(self.fibers[id].sp.as_ptr(), self.sched_sp.get()) };
    }

    fn make_ready(&self, id: usize, wake: Wake) {
        let f = &self.fibers[id];
        f.wake.set(wake);
        f.state.set(State::Ready);
        self.ready.borrow_mut().push_back(id);
    }

    /// Expire every timed waiter, earliest deadline first.
    fn sweep(&self) {
        let timed = std::mem::take(&mut *self.timed.borrow_mut());
        for &(deadline, id) in &timed {
            self.vnow.set(deadline);
            self.fibers[id].deadline.set(None);
            self.make_ready(id, Wake::Expired);
        }
        self.bump(|s| s.expiries += timed.len() as u64);
    }
}

/// First frame of every fiber.
extern "C" fn fiber_main() -> ! {
    let rt = runtime().expect("a fiber runs under its runtime");
    let id = rt.current.get();
    (rt.entry)(id);
    rt.fibers[id].state.set(State::Done);
    rt.live.set(rt.live.get() - 1);
    rt.progress.set(rt.progress.get() + 1);
    rt.leave(id);
    // A finished fiber is never resumed, and there is no frame to return to.
    std::process::abort()
}

/// Run `body(0)`, …, `body(n - 1)` as fibers with `stack_bytes` of stack
/// each on the calling thread, and return their results (a panic's payload
/// in place of the result of the fiber it ended) with the run's counts.
///
/// `on_stall` is called from the scheduler when no fiber can ever run again
/// (see the module docs); it must make at least one runnable, or `run`
/// panics.
pub fn run<T>(
    n: usize,
    stack_bytes: usize,
    body: impl Fn(usize) -> T,
    mut on_stall: impl FnMut(),
) -> (Vec<std::thread::Result<T>>, RunStats) {
    if n == 0 {
        return (Vec::new(), RunStats::default());
    }
    let results: Vec<Cell<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Cell::new(None)).collect();
    let entry = |id: usize| {
        results[id].set(Some(catch_unwind(AssertUnwindSafe(|| body(id)))));
    };
    let stacks = Stacks::map(n, stack_bytes);
    let rt = Runtime {
        entry: &entry,
        fibers: (0..n)
            .map(|i| Fiber {
                sp: Cell::new(stacks.seeded(i)),
                state: Cell::new(State::Ready),
                wake: Cell::new(Wake::Notified),
                deadline: Cell::new(None),
            })
            .collect(),
        sched_sp: Cell::new(std::ptr::null_mut()),
        current: Cell::new(SCHEDULER),
        ready: RefCell::new((0..n).collect()),
        timed: RefCell::new(BTreeSet::new()),
        vnow: Cell::new(0),
        live: Cell::new(n),
        progress: Cell::new(0),
        stats: Cell::new(RunStats::default()),
    };

    /// Puts the outer runtime (none, unless this is a nested run) back.
    struct Restore(*const Runtime<'static>);
    impl Drop for Restore {
        fn drop(&mut self) {
            RUNTIME.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(RUNTIME.with(|r| r.replace((&raw const rt).cast())));

    let mut swept_at = None;
    while rt.live.get() > 0 {
        let next = rt.ready.borrow_mut().pop_front();
        let Some(id) = next else {
            let none_timed = rt.timed.borrow().is_empty();
            if none_timed || swept_at == Some(rt.progress.get()) {
                rt.bump(|s| s.stalls += 1);
                on_stall();
                assert!(
                    !rt.ready.borrow().is_empty(),
                    "fiber deadlock: {} fibers are parked for good and the stall handler \
                     woke none",
                    rt.live.get()
                );
                swept_at = None;
            } else {
                swept_at = Some(rt.progress.get());
                rt.sweep();
            }
            continue;
        };
        rt.fibers[id].state.set(State::Running);
        rt.current.set(id);
        rt.bump(|s| s.switches += 1);
        // SAFETY: `sp` is either the seed of a stack nobody has run on, or
        // what fiber `id`'s own `leave` saved; its stack is mapped until
        // `stacks` drops below. No `RefCell` borrow is open.
        unsafe { pgas_fiber_switch(rt.sched_sp.as_ptr(), rt.fibers[id].sp.get()) };
        rt.current.set(SCHEDULER);
    }
    let results =
        results.iter().map(|r| r.take().expect("every fiber ran to completion")).collect();
    (results, rt.stats.get())
}

/// Let the other runnable fibers of this job go first; on a plain thread,
/// `std::thread::yield_now`.
pub fn yield_now() {
    match current() {
        Some(me) => {
            let rt = me.rt;
            rt.fibers[me.id].state.set(State::Ready);
            rt.ready.borrow_mut().push_back(me.id);
            rt.leave(me.id);
        }
        None => std::thread::yield_now(),
    }
}

/// Is the caller running as a fiber of some [`run`]?
pub fn is_fiber() -> bool {
    current().is_some()
}

/// The fiber the caller is running as, if it is one.
pub(crate) fn current<'a>() -> Option<Parker<'a>> {
    let rt = runtime()?;
    let id = rt.current.get();
    (id != SCHEDULER).then_some(Parker { rt, id })
}

/// The running fiber's handle on its own runtime.
pub(crate) struct Parker<'a> {
    rt: &'a Runtime<'a>,
    id: usize,
}

/// A parked (or about to park) fiber as others see it: what a `Condvar`
/// queues. Plain data; only its own carrier may unpark it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Waiter {
    carrier: usize,
    id: usize,
}

impl Waiter {
    pub(crate) fn same_carrier(&self, other: &Waiter) -> bool {
        self.carrier == other.carrier
    }
}

impl Parker<'_> {
    pub(crate) fn waiter(&self) -> Waiter {
        Waiter { carrier: std::ptr::from_ref(self.rt) as usize, id: self.id }
    }

    /// Give up the carrier until unparked or (with a `timeout`) expired.
    /// `fresh` says this is not the re-wait of a wait that just expired —
    /// the waiter got somewhere since, which is what stall detection asks.
    pub(crate) fn park(&self, timeout: Option<Duration>, fresh: bool) -> Wake {
        let (rt, f) = (self.rt, &self.rt.fibers[self.id]);
        if fresh {
            rt.progress.set(rt.progress.get() + 1);
        }
        if let Some(timeout) = timeout {
            let ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
            let deadline = rt.vnow.get().saturating_add(ns);
            f.deadline.set(Some(deadline));
            rt.timed.borrow_mut().insert((deadline, self.id));
        }
        f.state.set(State::Parked);
        rt.leave(self.id);
        f.wake.get()
    }
}

/// The carrier of `w`, which must be the calling thread's: panics otherwise,
/// so that a queue is only ever touched by the thread that owns it. (Every
/// waiter queued on one `Condvar` has the same carrier.)
pub(crate) fn carrier_of<'a>(w: &Waiter) -> Carrier<'a> {
    let rt = runtime().filter(|rt| std::ptr::from_ref(*rt) as usize == w.carrier).expect(
        "a Condvar with parked fibers was notified from outside their carrier thread; \
         fibers can only share a Condvar with fibers of the same job",
    );
    Carrier(rt)
}

/// Proof that the calling thread carries this runtime's fibers.
pub(crate) struct Carrier<'a>(&'a Runtime<'a>);

impl Carrier<'_> {
    /// Make a queued fiber of this carrier runnable.
    pub(crate) fn unpark(&self, w: Waiter) {
        let (rt, f) = (self.0, &self.0.fibers[w.id]);
        match f.state.get() {
            State::Parked => {
                if let Some(deadline) = f.deadline.take() {
                    rt.timed.borrow_mut().remove(&(deadline, w.id));
                }
                rt.make_ready(w.id, Wake::Notified);
            }
            // Expired but not resumed yet: the notify still reached it first.
            State::Ready => f.wake.set(Wake::Notified),
            State::Running | State::Done => {
                unreachable!("only a parked fiber is queued on a Condvar")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Condvar, Mutex};

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
    fn a_million_switches_preserve_each_fibers_registers_and_stack() {
        // Four fibers, 250 000 yields each, each carrying more live values
        // across every yield than there are callee-saved registers (so some
        // live in registers and some on the fiber's stack).
        const YIELDS: u64 = 250_000;
        let (results, stats) = run(
            4,
            64 << 10,
            |id| {
                let mut acc: [u64; 8] = std::array::from_fn(|k| (id as u64 + 1) * (k as u64 + 1));
                for round in 0..YIELDS {
                    for (k, a) in acc.iter_mut().enumerate() {
                        *a = a.wrapping_mul(6364136223846793005).wrapping_add(round ^ k as u64);
                    }
                    yield_now();
                }
                acc
            },
            || unreachable!("yielding fibers never stall"),
        );
        for (id, got) in unwrap_all(results).into_iter().enumerate() {
            let mut want: [u64; 8] = std::array::from_fn(|k| (id as u64 + 1) * (k as u64 + 1));
            for round in 0..YIELDS {
                for (k, a) in want.iter_mut().enumerate() {
                    *a = a.wrapping_mul(6364136223846793005).wrapping_add(round ^ k as u64);
                }
            }
            assert_eq!(got, want, "fiber {id}");
        }
        assert_eq!(stats.switches, 4 * (YIELDS + 1));
        assert_eq!((stats.expiries, stats.stalls), (0, 0));
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
            || unreachable!(),
        );
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        assert_eq!(message(&**results[1].as_ref().unwrap_err()), "fiber 1 gives up");
        assert_eq!(*results[2].as_ref().unwrap(), 20);
    }

    #[test]
    fn ten_thousand_fibers_of_128_kib_start_and_finish() {
        let (results, stats) = run(
            10_000,
            128 << 10,
            |id| {
                yield_now();
                id
            },
            || unreachable!(),
        );
        assert_eq!(unwrap_all(results), (0..10_000).collect::<Vec<_>>());
        assert_eq!(stats.switches, 20_000);
    }

    #[test]
    fn condvar_hands_the_carrier_from_fiber_to_fiber() {
        // The shim's thread ping-pong, on fibers: every wake is a notify, so
        // no timed wait ever expires although none is given real time.
        const ROUNDS: u64 = 10_000;
        let (turn, cv) = (Mutex::new(0u64), Condvar::new());
        let (results, stats) = run(
            2,
            64 << 10,
            |parity| {
                let mut turn = turn.lock();
                while *turn < ROUNDS {
                    if *turn % 2 == parity as u64 {
                        *turn += 1;
                        assert!(cv.notify_one() || *turn == 1, "the other side is waiting");
                    } else {
                        let r = cv.wait_for(&mut turn, Duration::from_secs(3600));
                        assert!(!r.timed_out(), "wake lost at turn {}", *turn);
                    }
                }
            },
            || unreachable!(),
        );
        unwrap_all(results);
        assert_eq!((stats.expiries, stats.stalls), (0, 0));
        assert!(stats.switches >= ROUNDS);
    }

    #[test]
    fn timed_waits_expire_earliest_first_and_only_when_nothing_can_run() {
        let (m, cv) = (Mutex::new(Vec::new()), Condvar::new());
        let t0 = std::time::Instant::now();
        let (results, stats) = run(
            3,
            64 << 10,
            |id| {
                let mut order = m.lock();
                if id == 2 {
                    // Runnable while the other two are parked: they stay so.
                    drop(order);
                    for _ in 0..100 {
                        yield_now();
                    }
                    m.lock().push(id);
                    return;
                }
                let hours = if id == 0 { 2 } else { 1 };
                assert!(cv.wait_for(&mut order, Duration::from_secs(hours * 3600)).timed_out());
                order.push(id);
            },
            || unreachable!("an expired waiter that returns has made progress"),
        );
        unwrap_all(results);
        assert_eq!(*m.lock(), vec![2, 1, 0], "the yielder, then the 1 h wait, then the 2 h wait");
        assert_eq!((stats.expiries, stats.stalls), (2, 0));
        assert!(t0.elapsed() < Duration::from_secs(60), "hours of timeout cost no real time");
    }

    #[test]
    fn a_stall_is_reported_once_a_sweep_moved_nobody() {
        // Two fibers wait for a flag nobody sets, re-waiting on every expiry
        // like the machine's wait loops do. One sweep later the scheduler
        // calls the handler, which here sets the flag and notifies.
        let (flag, cv) = (Mutex::new(false), Condvar::new());
        let mut stalls = 0;
        let (results, stats) = run(
            2,
            64 << 10,
            |_| {
                let mut set = flag.lock();
                while !*set {
                    cv.wait_for(&mut set, Duration::from_millis(200));
                }
            },
            || {
                stalls += 1;
                *flag.lock() = true;
                cv.notify_all();
            },
        );
        unwrap_all(results);
        assert_eq!((stalls, stats.stalls), (1, 1));
        assert_eq!(stats.expiries, 2, "one sweep of both waiters");
    }

    #[test]
    fn untimed_waiters_with_nobody_to_wake_them_stall_at_once() {
        let (m, cv) = (Mutex::new(false), Condvar::new());
        let (results, stats) = run(
            1,
            64 << 10,
            |_| {
                let mut set = m.lock();
                while !*set {
                    cv.wait(&mut set);
                }
            },
            || {
                *m.lock() = true;
                cv.notify_all();
            },
        );
        unwrap_all(results);
        assert_eq!((stats.expiries, stats.stalls), (0, 1));
    }

    #[test]
    #[should_panic(expected = "woke none")]
    fn a_stall_the_handler_does_not_resolve_panics_instead_of_hanging() {
        let (m, cv) = (Mutex::new(()), Condvar::new());
        run(1, 64 << 10, |_| cv.wait(&mut m.lock()), || {});
    }

    #[test]
    fn a_foreign_thread_notifying_parked_fibers_panics_with_a_message() {
        let (m, cv) = (Mutex::new(false), Condvar::new());
        let mut foreign = None;
        let (results, _) = run(
            1,
            64 << 10,
            |_| {
                let mut set = m.lock();
                while !*set {
                    cv.wait(&mut set);
                }
            },
            || {
                // The fiber is parked on `cv` now. A thread that is not its
                // carrier must be refused before it touches the ready queue…
                foreign = Some(std::thread::scope(|s| {
                    s.spawn(|| catch_unwind(AssertUnwindSafe(|| cv.notify_all()))).join().unwrap()
                }));
                // …and the fiber is still there for its own carrier to wake.
                *m.lock() = true;
                assert_eq!(cv.notify_all(), 1);
            },
        );
        unwrap_all(results);
        let payload = foreign.unwrap().unwrap_err();
        let msg = message(&*payload);
        assert!(msg.contains("outside their carrier thread"), "got: {msg}");
    }

    #[test]
    fn a_second_carrier_on_the_same_condvar_panics_with_a_message() {
        // Fiber 0 of the outer job parks on `cv`; the stall handler then runs
        // a second job (its own runtime, same thread) whose fiber notifies
        // `cv`: a different carrier as far as the queue is concerned.
        let (m, cv) = (Mutex::new(false), Condvar::new());
        let mut inner = None;
        let (results, _) = run(
            1,
            64 << 10,
            |_| {
                let mut set = m.lock();
                while !*set {
                    cv.wait(&mut set);
                }
            },
            || {
                let (r, _) = run(1, 64 << 10, |_| cv.notify_all(), || unreachable!());
                inner = r.into_iter().next();
                *m.lock() = true;
                cv.notify_all();
            },
        );
        unwrap_all(results);
        let payload = inner.unwrap().unwrap_err();
        assert!(message(&*payload).contains("outside their carrier"));
    }

    #[test]
    fn a_thread_and_a_fiber_waiting_on_one_condvar_panics_with_a_message() {
        let (m, cv) = (Mutex::new(false), Condvar::new());
        std::thread::scope(|s| {
            let sleeper = s.spawn(|| {
                let mut set = m.lock();
                while !*set {
                    cv.wait(&mut set);
                }
            });
            // Once the thread is counted (under the mutex), a fiber that
            // waits on the same condvar is refused.
            loop {
                let g = m.lock();
                if cv.thread_sleepers() == 1 {
                    break;
                }
                drop(g);
                std::thread::yield_now();
            }
            let (results, _) = run(1, 64 << 10, |_| cv.wait(&mut m.lock()), || unreachable!());
            *m.lock() = true;
            cv.notify_all();
            sleeper.join().unwrap();
            let payload = results.into_iter().next().unwrap().unwrap_err();
            let msg = message(&*payload);
            assert!(msg.contains("shared between fibers and a thread"), "got: {msg}");
        });
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
                    32 << 10,
                    |id| {
                        yield_now();
                        outer * 10 + id
                    },
                    || unreachable!(),
                );
                assert_eq!(stats.switches, 6);
                // Back under the outer runtime: yielding reaches the sibling.
                yield_now();
                unwrap_all(inner)
            },
            || unreachable!(),
        );
        assert_eq!(unwrap_all(results), vec![vec![0, 1, 2], vec![10, 11, 12]]);
    }

    /// Child half of the guard-page test: recurses off the end of a 64 KiB
    /// fiber stack. Does nothing unless the parent test asked for it.
    #[test]
    fn overflow_child() {
        if std::env::var_os("PGAS_FIBER_OVERFLOW_CHILD").is_none() {
            return;
        }
        #[allow(unconditional_recursion)]
        fn recurse(depth: u64) -> u64 {
            let pad = std::hint::black_box([depth; 64]);
            recurse(depth + 1) + pad[0]
        }
        // The neighbour above must stay intact while fiber 0 dies.
        run(2, 64 << 10, |id| if id == 0 { recurse(0) } else { 0 }, || {});
    }

    #[test]
    fn deep_recursion_dies_in_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "fiber::tests::overflow_child", "--test-threads=1"])
            .env("PGAS_FIBER_OVERFLOW_CHILD", "1")
            .output()
            .unwrap();
        const SIGSEGV: i32 = 11;
        assert_eq!(
            out.status.signal(),
            Some(SIGSEGV),
            "child: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
