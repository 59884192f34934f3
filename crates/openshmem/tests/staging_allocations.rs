//! A steady-state typed transfer allocates exactly what the conduit call
//! under it allocates: `Shmem::{put, get}` of `u8` and `f64` slices and an
//! `iput` of an `f32` pencil are compared with the same bytes issued
//! straight through `Ctx`, counting heap allocations with a counting global
//! allocator. This binary holds one test, so nothing else allocates on its
//! thread while it counts.

use openshmem::data::to_bytes;
use openshmem::{Shmem, ShmemConfig};
use pgas_conduit::ConduitProfile;
use pgas_machine::machine::Pe;
use pgas_machine::{
    generic_smp, run, with_forced_metrics, with_forced_mode, with_forced_tracing, FaultPlan,
    Platform, SanitizerMode,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails, even while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only addition is `bump`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller guarantees `ptr` was allocated here (that is,
        // by `System`) with `layout`, and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` was allocated here (that is,
        // by `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One way of issuing a transfer, run repeatedly.
type Op<'a> = Box<dyn FnMut() + 'a>;

/// Allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Transfers per counted batch.
const REPS: usize = 16;
/// Elements of the `f32` pencil.
const PENCIL: usize = 65;

#[test]
fn typed_transfers_allocate_no_more_than_the_conduit_calls_under_them() {
    // Every optional subsystem pinned off, so the counts compare the data
    // paths alone: faults, aggregation and checksums in the config, which
    // beats the environment; the three observers through forced scopes,
    // since a config `off` leaves an observer to the environment.
    let cfg = generic_smp(2)
        .with_heap_bytes(1 << 18)
        .with_faults(FaultPlan::none())
        .with_aggregation(false)
        .with_checksums(false);
    let out = with_forced_tracing(false, || {
        with_forced_metrics(false, || {
            with_forced_mode(SanitizerMode::Off, || run(cfg, count_allocations))
        })
    });
    let counts = &out.results[0];
    assert_eq!(counts.len(), 5);
    for (name, typed, raw) in counts {
        assert_eq!(typed, raw, "{name}: {REPS} typed ops allocated {typed}, the raw ones {raw}");
    }
}

/// On PE 0, `(transfer, typed allocations, raw allocations)` for each
/// transfer kind; PE 1 only waits.
fn count_allocations(pe: Pe<'_>) -> Vec<(String, u64, u64)> {
    let shmem =
        Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(Platform::GenericSmp)));
    let bytes = shmem.shmalloc::<u8>(4096).unwrap();
    let words = shmem.shmalloc::<f64>(512).unwrap();
    let grid = shmem.shmalloc::<f32>(2 * PENCIL).unwrap();
    shmem.barrier_all();
    let mut counts = Vec::new();
    if shmem.my_pe() == 0 {
        let ctx = shmem.ctx();
        let src_u8: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        let src_f64: Vec<f64> = (0..512).map(|i| i as f64 * 0.5).collect();
        let pencil: Vec<f32> = (0..PENCIL).map(|i| i as f32).collect();
        let (f64_bytes, pencil_bytes) = (to_bytes(&src_f64), to_bytes(&pencil));
        let (mut out_u8, mut out_f64) = (vec![0u8; 4096], vec![0f64; 512]);
        let (mut raw_u8, mut raw_f64) = (vec![0u8; 4096], vec![0u8; 4096]);
        let mut ops: Vec<(&str, Op<'_>, Op<'_>)> = vec![
            (
                "put u8",
                Box::new(|| shmem.put(bytes, &src_u8, 1)),
                Box::new(|| ctx.put(1, bytes.offset(), &src_u8)),
            ),
            (
                "put f64",
                Box::new(|| shmem.put(words, &src_f64, 1)),
                Box::new(|| ctx.put(1, words.offset(), &f64_bytes)),
            ),
            (
                "get u8",
                Box::new(|| shmem.get(bytes, &mut out_u8, 1)),
                Box::new(|| ctx.get(1, bytes.offset(), &mut raw_u8)),
            ),
            (
                "get f64",
                Box::new(|| shmem.get(words, &mut out_f64, 1)),
                Box::new(|| ctx.get(1, words.offset(), &mut raw_f64)),
            ),
            (
                "iput f32 pencil",
                Box::new(|| shmem.iput(grid, 2, &pencil, 1, PENCIL, 1)),
                Box::new(|| ctx.iput(1, grid.offset(), 2, &pencil_bytes, 4, 1, PENCIL)),
            ),
        ];
        for (name, typed, raw) in &mut ops {
            // A batch of each, with a quiet after it, so the scratch, the
            // pending set and any state the conduit builds lazily have grown
            // before counting; each counted batch then starts from an empty
            // pending set.
            let batch = |op: &mut dyn FnMut()| {
                let n = allocs_in(|| (0..REPS).for_each(|_| op()));
                shmem.quiet();
                n
            };
            batch(&mut **typed);
            batch(&mut **raw);
            let typed_allocs = batch(&mut **typed);
            let raw_allocs = batch(&mut **raw);
            counts.push((name.to_string(), typed_allocs, raw_allocs));
        }
    }
    shmem.barrier_all();
    counts
}
