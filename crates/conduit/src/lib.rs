//! # pgas-conduit — one-sided communication engine with library profiles
//!
//! The paper compares several one-sided communication libraries as candidate
//! runtime substrates for PGAS languages: Cray SHMEM, MVAPICH2-X SHMEM,
//! GASNet, MPI-3 RMA, and Cray's DMAPP (used directly by the Cray CAF
//! compiler). On real hardware those libraries differ in software issue
//! overhead, protocol efficiency, whether remote atomics are offloaded to the
//! NIC or emulated with active messages, and whether the 1-D strided
//! `shmem_iput`/`shmem_iget` calls are NIC-native or a software loop of
//! contiguous puts.
//!
//! This crate reproduces exactly those axes: one generic engine
//! ([`Ctx`]) parameterized by a [`ConduitProfile`]. All profiles share
//! mechanics (real data movement through `pgas-machine` heaps, virtual-time
//! costs, NIC contention) and differ only in the published properties the
//! paper attributes to each library.
//!
//! The engine also implements the OpenSHMEM **completion semantics** that
//! drive §IV-B of the paper: a put returns after *local* completion; *remote*
//! completion requires `quiet`. Outstanding-put state feeds an ordering
//! hazard detector used as failure injection: a CAF runtime that forgets to
//! insert `shmem_quiet` between dependent transfers trips it.

//! Two contention killers ride on top of the shared mechanics, both hooked
//! into the single [`Ctx::submit`] choke point (see [`op`]): an
//! active-message layer ([`am`]) that ships compute to the target instead
//! of a get–compute–put round trip, and per-destination-node coalescing
//! buffers ([`coalesce`]) that batch small puts and non-fetching AMOs into
//! single wire transfers.

#![forbid(unsafe_code)]

pub mod am;
pub mod coalesce;
pub mod cost;
pub mod ctx;
pub mod integrity;
mod layout;
pub mod op;
pub mod pending;
pub mod profile;

pub use am::{AmHandler, AmHandlerId, AmTarget};
pub use coalesce::{CoalescePolicy, CoalescingConfig};
pub use cost::{CostModel, AM_HEADER_BYTES};
pub use ctx::{ConduitError, Ctx, CtxOptions};
pub use integrity::{crc32, Crc32};
pub use op::{Completion, OpDesc, OpKind, OpReceipt};
pub use pending::{Hazard, HazardKind};
pub use profile::{AmoSupport, ConduitKind, ConduitProfile, StridedSupport};
