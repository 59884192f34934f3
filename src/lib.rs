//! Workspace façade: re-exports the public API of the CAF-over-OpenSHMEM
//! reproduction so examples and integration tests can use one crate.

#![forbid(unsafe_code)]

pub use caf;
pub use caf_apps as apps;
pub use openshmem;
pub use pgas_conduit as conduit;
pub use pgas_machine as machine;
pub use pgas_microbench as microbench;
