//! Multi-dimensional strided remote access: the paper's §IV-C example.
//!
//! A 3-D coarray section `X(1:100:2, 1:80:2, 1:100:4)` has 50 x 40 x 25
//! strided elements; the naive translation needs one `shmem_putmem` per
//! element (50,000 calls) while the paper's `2dim_strided` algorithm issues
//! one `shmem_iput` per pencil of the best of the first two dimensions
//! (1,000 calls). This example performs the transfer with each algorithm on
//! a simulated Cray XC30 and reports messages and virtual time.
//!
//! Run with: `cargo run --release --example strided_sections`

use caf::{run_caf, Backend, CafConfig, DimRange, Section, StridedAlgorithm};
use pgas_machine::Platform;

fn main() {
    let shape = [100usize, 100, 100];
    let sec = Section::new(vec![
        DimRange::triplet(0, 99, 2), // 1:100:2 -> 50 elements
        DimRange::triplet(0, 79, 2), // 1:80:2  -> 40 elements
        DimRange::triplet(0, 99, 4), // 1:100:4 -> 25 elements
    ]);
    println!(
        "section {}x{}x{} = {} elements of a (100,100,100) coarray\n",
        50,
        40,
        25,
        sec.total()
    );
    println!("{:<14} {:>10} {:>14} {:>16}", "algorithm", "messages", "time (ms)", "bandwidth MB/s");

    let mut reference: Option<Vec<i32>> = None;
    for algo in [
        StridedAlgorithm::Naive,
        StridedAlgorithm::OneDim,
        StridedAlgorithm::TwoDim,
        StridedAlgorithm::BestOfAll,
        StridedAlgorithm::AmPacked,
        StridedAlgorithm::Tuned,
    ] {
        let sec2 = sec.clone();
        let out = run_caf(
            Platform::CrayXc30.config(2, 1).with_heap_bytes(1 << 23),
            CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_strided(algo),
            move |img| {
                let a = img.coarray::<i32>(&shape).unwrap();
                if img.this_image() == 1 {
                    let data: Vec<i32> = (0..sec2.total() as i32).collect();
                    let t0 = img.shmem().ctx().pe().now();
                    a.put_section(img, 2, &sec2, &data);
                    img.shmem().ctx().pe().now() - t0
                } else {
                    0
                }
            },
        );
        let ms = out.results[0] as f64 / 1e6;
        let bytes = sec.total() * 4;
        println!(
            "{:<14} {:>10} {:>14.3} {:>16.1}",
            algo.label(),
            out.stats.puts,
            ms,
            bytes as f64 / (out.results[0] as f64) * 1e3
        );

        // All algorithms must land identical bytes.
        let check = run_caf(
            Platform::CrayXc30.config(2, 1).with_heap_bytes(1 << 23),
            CafConfig::new(Backend::Shmem, Platform::CrayXc30).with_strided(algo),
            {
                let sec = sec.clone();
                move |img| {
                    let a = img.coarray::<i32>(&shape).unwrap();
                    if img.this_image() == 1 {
                        let data: Vec<i32> = (0..sec.total() as i32).collect();
                        a.put_section(img, 2, &sec, &data);
                    }
                    img.sync_all();
                    a.read_local(img)
                }
            },
        );
        let landed = check.results[1].clone();
        match &reference {
            None => reference = Some(landed),
            Some(r) => assert_eq!(&landed, r, "{algo:?} moved different bytes"),
        }
    }
    println!("\nall six algorithms produced byte-identical target arrays");
}
