//! # pgas-microbench — the PGAS Microbenchmark suite, reproduced
//!
//! The paper measures with the HPCTools PGAS Microbenchmark suite
//! (the paper's reference 20): point-to-point put/get latency and bandwidth between
//! node pairs, multi-dimensional strided put bandwidth, and a lock
//! contention kernel. This crate reproduces those kernels over the
//! simulated machines, at two levels:
//!
//! * [`rma::PairBench`] — library-level (raw OpenSHMEM / GASNet / MPI-3
//!   profiles), feeding Figures 2–3;
//! * [`caf_rma::CafPairBench`] and [`lock_bench::LockBench`] — CAF-level
//!   (through the full runtime), feeding Figures 6–8.
//!
//! [`report`] holds the series/panel/figure containers the reproduction
//! binaries print and archive.

#![forbid(unsafe_code)]

pub mod caf_rma;
pub mod lock_bench;
pub mod report;
pub mod rma;

pub use caf_rma::CafPairBench;
pub use lock_bench::LockBench;
pub use report::{Figure, Panel, Series};
pub use rma::PairBench;
