//! Hybrid CAF + OpenSHMEM programming — the motivation the paper's
//! introduction gives for the whole design: "such an implementation allows
//! us to incorporate OpenSHMEM calls directly into CAF applications ... and
//! explore the ramifications of such a hybrid model."
//!
//! Because the CAF runtime *is* an OpenSHMEM client, every image can drop
//! down to the SHMEM layer (`img.shmem()`) and mix library calls with
//! coarray accesses against the same symmetric heap. This example builds a
//! pipeline where coarrays carry the bulk data, a raw `shmem_fadd` ticket
//! counter distributes work, and `shmem_wait_until` signals completion.
//!
//! Run with: `cargo run --release --example hybrid_caf_shmem`

use caf::{run_caf, Backend, CafConfig};
use openshmem::Cmp;
use pgas_machine::Platform;

fn main() {
    let images = 8;
    let tasks = 40usize;
    let out = run_caf(
        Platform::CrayXc30.config(2, 4).with_heap_bytes(1 << 18),
        CafConfig::new(Backend::Shmem, Platform::CrayXc30),
        move |img| {
            let shmem = img.shmem(); // drop down to the OpenSHMEM layer
            let n = img.num_images();

            // CAF side: a coarray of task results.
            let results = img.coarray::<i64>(&[tasks]).unwrap();
            // SHMEM side: a raw symmetric ticket counter and a done-flag.
            let ticket = shmem.shmalloc::<u64>(1).unwrap();
            let done = shmem.shmalloc::<u64>(1).unwrap();
            img.sync_all();

            // Dynamic work distribution via shmem_fadd on image 1's counter.
            let mut mine = 0;
            loop {
                let t = shmem.fadd(ticket, 1u64, 0) as usize;
                if t >= tasks {
                    break;
                }
                // "Compute" the task (some real work so images genuinely
                // interleave), then publish through the coarray.
                let value = (t as i64 + 1) * (t as i64 + 1);
                img.shmem().ctx().pe().compute_flops(5_000.0);
                std::hint::black_box((0..20_000u64).sum::<u64>());
                results.put_elem(img, 1, &[t], value);
                mine += 1;
                shmem.ctx().pe().yield_now();
            }

            // Everyone reports completion with an atomic increment; image 1
            // waits for all workers with shmem_wait_until.
            shmem.inc(done, 0);
            if img.this_image() == 1 {
                shmem.wait_until(done, Cmp::Ge, n as u64);
                let sum: i64 = results.read_local(img).iter().sum();
                let expect: i64 = (1..=tasks as i64).map(|k| k * k).sum();
                assert_eq!(sum, expect, "no task lost or duplicated");
                println!("image 1 collected {tasks} task results, sum = {sum} (expected {expect})");
            }
            img.sync_all();
            mine
        },
    );
    println!("\ntasks per image (dynamic shmem_fadd distribution):");
    for (i, m) in out.results.iter().enumerate() {
        println!("  image {}: {m}", i + 1);
    }
    let total: usize = out.results.iter().sum();
    assert_eq!(total, 40);
    println!("\nhybrid CAF + OpenSHMEM over one symmetric heap: {} total tasks", total);
    let _ = images;
}
