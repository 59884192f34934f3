//! # caf-apps — application benchmarks over the CAF runtime
//!
//! The two applications of the paper's evaluation, two workloads grown on
//! its hash table, and four mini-apps:
//!
//! * [`dht`] — the distributed hash table benchmark (§V-C, Figure 9):
//!   random updates under CAF per-image locks, or one active message each.
//! * [`churn`] — the table through a scheduled image failure and recovery.
//! * [`serve`] — open-loop Zipfian reads and writes on the table, with
//!   windowed latency metrics and an SLO, through the same recovery.
//! * [`himeno`] — the Himeno pressure solver (§V-D, Figure 10): 19-point
//!   Jacobi stencil with matrix-oriented strided halo exchange.
//! * [`heat`] — a 1-D heat-diffusion mini-app exercising `sync images`
//!   with neighbour lists and section-based gather.
//! * [`stencil2d`] — a 2-D Laplace stencil with contiguous and strided halos.
//! * [`histogram`] — a histogram on image 1, by remote atomics or a lock.
//! * [`transpose`] — a matrix transpose landed by strided puts.

#![forbid(unsafe_code)]

pub mod churn;
pub mod dht;
pub mod heat;
pub mod himeno;
pub mod histogram;
mod kv;
pub mod serve;
pub mod stencil2d;
pub mod transpose;

pub use churn::{run_churn, run_churn_outcome, ChurnConfig, ChurnResult, RoundStat};
pub use dht::{run_dht, run_dht_outcome, DhtConfig, DhtResult, DhtUpdateMode};
pub use heat::{parallel_heat, serial_heat, HeatConfig};
pub use himeno::{run_himeno, run_himeno_outcome, serial_gosa, HimenoConfig, HimenoResult};
pub use histogram::{run_histogram, serial_histogram, HistogramConfig, HistogramMethod};
pub use serve::{
    expected_write_sum, global_arrivals, run_serve, run_serve_outcome, EpochStat, ReqSpec,
    RequestGen, ServeConfig, ServeImageOut, ServeResult, Zipf,
};
pub use stencil2d::{parallel_stencil, parallel_stencil_with_stats, serial_stencil, StencilConfig};
pub use transpose::{parallel_transpose, serial_transpose, TransposeConfig};

use pgas_machine::{MachineConfig, Platform};

/// Build a machine for a job of `images` images: 16 cores/node on the paper
/// platforms (like the paper's runs), a single node on GenericSmp.
pub(crate) fn job_machine(platform: Platform, images: usize, heap_bytes: usize) -> MachineConfig {
    let cfg = match platform {
        Platform::GenericSmp => platform.config(1, images),
        _ => {
            let cores = 16.min(images);
            platform.config(images.div_ceil(cores), cores)
        }
    };
    cfg.with_heap_bytes(heap_bytes.next_power_of_two())
}
