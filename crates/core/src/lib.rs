//! # caf — Coarray Fortran runtime semantics over OpenSHMEM
//!
//! The core crate of this reproduction: the runtime design of
//! *"OpenSHMEM as a Portable Communication Layer for PGAS Models: A Case
//! Study with Coarray Fortran"* (CLUSTER 2015), re-implemented as a Rust
//! library. It plays the role of UHCAF — the CAF runtime of the OpenUH
//! compiler — re-targeted to OpenSHMEM:
//!
//! * **Images & coarrays** (§IV-A): SPMD images with 1-based indices;
//!   symmetric coarray allocation over `shmalloc`; non-symmetric remotely
//!   accessible data carved from a pre-allocated symmetric buffer.
//! * **Remote memory access** (§IV-B): co-indexed puts/gets over
//!   `shmem_put`/`shmem_get`, with the runtime inserting `shmem_quiet` to
//!   restore CAF's program-order completion guarantees on top of
//!   OpenSHMEM's weaker model.
//! * **Multi-dimensional strided transfers** (§IV-C): the `2dim_strided`
//!   algorithm composed from 1-D `shmem_iput`/`shmem_iget`, alongside the
//!   naive baseline, a Cray-runtime model, a best-of-all-dims ablation and
//!   an AM-packed variant.
//! * **Per-image locks** (§IV-D): the MCS queue lock adapted to CAF
//!   semantics, with qnodes in non-symmetric buffer space and 20/36/8-bit
//!   packed remote pointers updated through 8-byte OpenSHMEM atomics.
//! * **Synchronization & collectives**: `sync all`, `sync images`,
//!   `critical`, events, CAF atomics, and `co_sum`/`co_min`/`co_max`/
//!   `co_broadcast`/`co_reduce` over the OpenSHMEM collectives.
//!
//! The runtime is generic over the communication [`Backend`] — native
//! SHMEM, GASNet, or the Cray-CAF DMAPP baseline — mirroring the
//! configurations the paper evaluates.
//!
//! ## Quick start
//!
//! ```
//! use caf::{run_caf, Backend, CafConfig};
//! use pgas_machine::{generic_smp, Platform};
//!
//! let out = run_caf(
//!     generic_smp(4),
//!     CafConfig::new(Backend::Shmem, Platform::GenericSmp),
//!     |img| {
//!         let a = img.coarray::<i64>(&[4]).unwrap();
//!         img.sync_all();
//!         // a(:)[next] = this_image()
//!         let next = img.this_image() % img.num_images() + 1;
//!         a.put_to(img, next, &[img.this_image() as i64; 4]);
//!         img.sync_all();
//!         a.read_local(img)[0]
//!     },
//! );
//! assert_eq!(out.results, vec![4, 1, 2, 3]);
//! ```

#![forbid(unsafe_code)]

pub mod atomics;
pub mod coarray;
pub mod config;
pub mod events;
pub mod failure;
pub mod grid;
pub mod image;
pub mod locks;
pub mod mapping;
pub mod nonsym;
pub mod planner;
pub mod remote_ptr;
pub mod runtime;
pub mod section;
pub mod strided;
pub mod team;

pub use atomics::AtomicVar;
pub use coarray::{CoDims, Coarray};
pub use config::{Backend, CafConfig, StridedAlgorithm};
pub use events::EventVar;
pub use failure::CafStat;
pub use grid::ImageGrid;
pub use image::{Image, ImageId, NonSymHandle};
pub use locks::{CafLock, LockStat};
pub use nonsym::NonSymArray;
pub use pgas_conduit::CoalescePolicy;
pub use pgas_machine::sanitizer::{HazardKind, HazardReport, SanitizerMode};
pub use pgas_machine::stats::PlanDecision;
pub use planner::{PlanChoice, TransferDir};
pub use remote_ptr::RemotePtr;
pub use runtime::{run_caf, run_caf_result};
pub use section::{DimRange, Section};
pub use strided::{plan_call_count, Plan};
pub use team::CafTeam;
