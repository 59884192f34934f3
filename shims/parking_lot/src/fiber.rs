//! Stackful fibers on one carrier thread: the workspace's only `unsafe`.
//!
//! [`run`] turns the calling thread into a *carrier*: it maps one stack per
//! fiber, runs `body(0..n)` as fibers under a FIFO scheduler on the caller's
//! own stack, and returns when all have finished. A fiber gives up the
//! carrier only in [`park`], until some fiber or the idle handler calls
//! [`unpark`] on it, and in [`yield_now`], which requeues it behind the
//! other runnable fibers. Nothing preempts a fiber, so code between two such
//! calls runs atomically with respect to every other fiber of the job.
//!
//! **The idle point.** Whenever no fiber is runnable the scheduler calls the
//! job's `on_idle`, which says whether it made one runnable. Nothing can
//! change while no fiber runs, so a `false` is final: the job is stalled,
//! and `run` panics instead of hanging. (The machine grants its NIC turns
//! here, and turns a stall into a report.)
//!
//! Off a fiber carrier, every function here is the [`crate::baton`]
//! carrier's: [`park`], [`unpark`], [`yield_now`] and [`current`] act on
//! whichever of the two carries the calling thread.
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
//!   the carrier can touch it: [`unpark`] from another thread never reaches
//!   this runtime's queue.
//! * **The allocator policy.** [`keep_freed_memory`] calls glibc's `mallopt`
//!   with two documented parameters, once per process.
//!
//! Every fiber shares the carrier's thread-locals; a nested [`run`] from
//! inside a fiber runs its own scheduler on that fiber's stack and suspends
//! the outer job until it returns.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use crate::baton::RunStats;

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
    live: Cell<usize>,
    switches: Cell<u64>,
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
    /// Leave fiber `id` (whose state the caller has set) for the scheduler;
    /// returns when the scheduler resumes it.
    fn leave(&self, id: usize) {
        // SAFETY: called on fiber `id`'s stack, so its `sp` cell is the right
        // place for the outgoing context; `sched_sp` was saved by the
        // scheduler's own switch into this fiber and its frame in `run` is
        // still live. No `RefCell` borrow is open (all are statement-scoped).
        unsafe { pgas_fiber_switch(self.fibers[id].sp.as_ptr(), self.sched_sp.get()) };
    }

    fn make_ready(&self, id: usize) {
        self.fibers[id].state.set(State::Ready);
        self.ready.borrow_mut().push_back(id);
    }

    /// The running fiber, if the scheduler is not what runs.
    fn running(&self) -> Option<usize> {
        Some(self.current.get()).filter(|&id| id != SCHEDULER)
    }
}

/// First frame of every fiber.
extern "C" fn fiber_main() -> ! {
    let rt = runtime().expect("a fiber runs under its runtime");
    let id = rt.current.get();
    (rt.entry)(id);
    rt.fibers[id].state.set(State::Done);
    rt.live.set(rt.live.get() - 1);
    rt.leave(id);
    // A finished fiber is never resumed, and there is no frame to return to.
    std::process::abort()
}

/// Run `body(0)`, …, `body(n - 1)` as fibers with `stack_bytes` of stack
/// each on the calling thread, and return their results (a panic's payload
/// in place of the result of the fiber it ended) with the run's counts.
///
/// `on_idle` is called from the scheduler whenever no fiber is runnable and
/// some are parked; it returns whether it made one runnable (see the module
/// docs). If it did not, `run` panics.
pub fn run<T: Send>(
    n: usize,
    stack_bytes: usize,
    body: impl Fn(usize) -> T + Sync,
    mut on_idle: impl FnMut() -> bool,
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
            .map(|i| Fiber { sp: Cell::new(stacks.seeded(i)), state: Cell::new(State::Ready) })
            .collect(),
        sched_sp: Cell::new(std::ptr::null_mut()),
        current: Cell::new(SCHEDULER),
        ready: RefCell::new((0..n).collect()),
        live: Cell::new(n),
        switches: Cell::new(0),
    };

    /// Puts the outer runtime (none, unless this is a nested run) back.
    struct Restore(*const Runtime<'static>);
    impl Drop for Restore {
        fn drop(&mut self) {
            RUNTIME.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(RUNTIME.with(|r| r.replace((&raw const rt).cast())));

    while rt.live.get() > 0 {
        let next = rt.ready.borrow_mut().pop_front();
        let Some(id) = next else {
            let woke = on_idle();
            assert!(
                woke && !rt.ready.borrow().is_empty(),
                "fiber deadlock: {} fibers are parked for good and the idle handler woke none",
                rt.live.get()
            );
            continue;
        };
        rt.fibers[id].state.set(State::Running);
        rt.current.set(id);
        rt.switches.set(rt.switches.get() + 1);
        // SAFETY: `sp` is either the seed of a stack nobody has run on, or
        // what fiber `id`'s own `leave` saved; its stack is mapped until
        // `stacks` drops below. No `RefCell` borrow is open.
        unsafe { pgas_fiber_switch(rt.sched_sp.as_ptr(), rt.fibers[id].sp.get()) };
        rt.current.set(SCHEDULER);
    }
    let results =
        results.iter().map(|r| r.take().expect("every fiber ran to completion")).collect();
    (results, RunStats { switches: rt.switches.get() })
}

/// Give up the carrier until [`unpark`]ed. Panics off a fiber.
pub fn park() {
    match runtime() {
        Some(rt) => {
            let id = rt.running().expect("park() outside a fiber: only a fiber of a run can park");
            rt.fibers[id].state.set(State::Parked);
            rt.leave(id);
        }
        None => crate::baton::park(),
    }
}

/// Make fiber `id` of the calling thread's run runnable if it is parked, and
/// say whether it was. Callable from the run's fibers and its idle handler;
/// panics anywhere else.
pub fn unpark(id: usize) -> bool {
    match runtime() {
        Some(rt) => {
            let parked = rt.fibers[id].state.get() == State::Parked;
            if parked {
                rt.make_ready(id);
            }
            parked
        }
        None => crate::baton::unpark(id),
    }
}

/// Let the other runnable fibers of this job go first; on a plain thread,
/// `std::thread::yield_now`.
pub fn yield_now() {
    match runtime() {
        Some(rt) if rt.running().is_some() => {
            let id = rt.current.get();
            rt.make_ready(id);
            rt.leave(id);
        }
        _ => crate::baton::yield_now(),
    }
}

/// The index of the fiber the caller is running as, if it is one.
pub fn current() -> Option<usize> {
    match runtime() {
        Some(rt) => rt.running(),
        None => crate::baton::current(),
    }
}

/// Is the caller running as a fiber of some [`run`]?
pub fn is_fiber() -> bool {
    current().is_some()
}

/// Keep the memory a launch frees for the next one: glibc's `malloc` serves
/// allocations up to 32 MiB from its arena instead of fresh `mmap`s, and never
/// trims the arena's top. Without it, whether a freed 40 MiB of PE heaps stays
/// mapped depends on where small allocations happened to land, and every
/// launch that finds it trimmed re-faults all of it. Once per process; a
/// no-op off glibc.
pub fn keep_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only sets allocator tunables; both parameters are
        // documented glibc ones, 32 MiB is the largest mmap threshold it
        // accepts on 64-bit targets, and the call is thread-safe.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    include!("carrier_tests.rs");

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
            || unreachable!("yielding fibers never idle"),
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
            || false,
        );
        assert_eq!(unwrap_all(results), (0..10_000).collect::<Vec<_>>());
        assert_eq!(stats.switches, 20_000);
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
        run(2, 64 << 10, |id| if id == 0 { recurse(0) } else { 0 }, || false);
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
