//! # openshmem — an OpenSHMEM-1.x-style library over a simulated PGAS cluster
//!
//! This crate reproduces the OpenSHMEM interface surface the paper maps
//! Coarray Fortran onto (its Table II):
//!
//! | Feature                 | C API                      | Here |
//! |-------------------------|----------------------------|------|
//! | Symmetric allocation    | `shmalloc` / `shfree`      | [`Shmem::shmalloc`] / [`Shmem::shfree`] |
//! | PE identity             | `my_pe` / `num_pes`        | [`Shmem::my_pe`] / [`Shmem::n_pes`] |
//! | Contiguous RMA          | `shmem_put/get/p/g`        | [`Shmem::put`] / [`Shmem::get`] / [`Shmem::p`] / [`Shmem::g`] |
//! | 1-D strided RMA         | `shmem_iput` / `shmem_iget`| [`Shmem::iput`] / [`Shmem::iget`] |
//! | Atomics                 | `shmem_swap/cswap/fadd/...`| [`Shmem::swap`] etc. |
//! | Point-to-point sync     | `shmem_wait_until`         | [`Shmem::wait_until`] |
//! | Ordering                | `shmem_quiet` / `fence`    | [`Shmem::quiet`] / [`Shmem::fence`] |
//! | Barriers                | `shmem_barrier(_all)`      | [`Shmem::barrier_all`] / [`Shmem::barrier`] |
//! | Broadcast               | `shmem_broadcast`          | [`Shmem::broadcast`] |
//! | Reductions              | `shmem_*_to_all`           | [`Shmem::sum_to_all`] etc. |
//! | Collect                 | `shmem_(f)collect`         | [`Shmem::fcollect`] / [`Shmem::collect`] |
//! | Global locks            | `shmem_set/test/clear_lock`| [`Shmem::set_lock`] etc. |
//! | Active messages (ext.)  | —                          | [`Shmem::am_send`] / [`Shmem::am_call`] |
//!
//! The library runs over `pgas-conduit`, so the same program can be executed
//! on any of the modeled communication substrates (Cray SHMEM, MVAPICH2-X
//! SHMEM, GASNet, MPI-3) and any of the modeled machines.

#![forbid(unsafe_code)]

pub mod active_set;
pub mod alloc;
pub mod collectives;
pub mod data;
pub mod lock;
pub mod shmem;
pub mod team;

pub use active_set::ActiveSet;
pub use alloc::{AllocError, SymAlloc};
pub use data::{Scalar, SymPtr};
pub use pgas_conduit::{AmHandler, AmHandlerId, AmTarget, ConduitError};
pub use shmem::{AtomicWord, Cmp, LocalView, Shmem, ShmemConfig};
pub use team::Team;
