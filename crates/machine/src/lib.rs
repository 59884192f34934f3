//! # pgas-machine — a simulated multi-node PGAS cluster
//!
//! This crate is the hardware substrate for the CAF-over-OpenSHMEM
//! reproduction. It stands in for the physical clusters used in the paper
//! (Stampede, Titan, Cray XC30): processing elements (PEs) are OS threads (or
//! fibers on one thread, under the NIC arbiter — see `launch`), each node has a NIC that is a shared, serializing resource, and every PE
//! carries a **virtual clock** measured in nanoseconds.
//!
//! Two things happen on every remote operation:
//!
//! 1. **Real data movement** — bytes are copied into the target PE's heap
//!    through per-word atomics, so all synchronization built on top (locks,
//!    barriers, events) is exercised for real.
//! 2. **Virtual timing** — the operation's cost is charged to the issuing
//!    PE's clock and to the NICs it crosses, so latency, bandwidth and
//!    contention emerge from a LogGP-style model instead of wall time.
//!
//! Causality is propagated Lamport-style: every 8-byte word of every heap
//! carries a shadow timestamp holding the virtual completion time of the last
//! remote write, and reads/waits advance the reader's clock past it. This is
//! what makes, e.g., MCS lock handoff latency an *emergent* quantity.
//!
//! The crate deliberately knows nothing about OpenSHMEM or CAF; it exposes
//! heaps, clocks, NICs, barriers and a SPMD launcher. Communication-library
//! semantics live in `pgas-conduit` and above.

#![forbid(unsafe_code)]

pub mod config;
pub mod critdiff;
pub mod critpath;
pub mod fault;
pub mod heap;
pub mod json;
pub mod knobs;
pub mod launch;
pub mod machine;
pub mod metrics;
pub mod nic;
pub mod platforms;
pub mod sanitizer;
pub mod slo;
pub mod stats;
pub mod stream;
pub mod sync;
pub mod tailprof;
pub mod trace;

pub use config::{ComputeParams, LinkParams, MachineConfig, WireParams};
pub use critdiff::{digest_metrics, CritDiff, MetricDigest, RunDigest};
pub use critpath::{critical_path, CriticalPathReport, PathCategory, PathSegment};
pub use fault::{DegradedWindow, FaultKind, FaultPlan, PeFailure, RetryPolicy};
pub use knobs::{
    with_forced_aggregation, with_forced_checksums, with_forced_metrics, with_forced_mode,
    with_forced_plan, with_forced_stream, with_forced_tracing, Knobs, ResolvedKnobs,
};
pub use launch::{run, run_with_result, EngineStats, NicSnapshot, SimError, SimOutcome};
pub use machine::{Machine, PeId};
pub use metrics::{
    HistogramEntry, MetricsRegistry, MetricsSnapshot, WindowCounterEntry, WindowEntry,
};
pub use platforms::{cray_xc30, generic_smp, stampede, titan, Platform};
pub use sanitizer::{HazardKind, HazardReport, SanitizerMode};
pub use slo::{BurnWindow, SloAlert, SloReport, SloSpec, SloWindow};
pub use stats::{FaultEvent, PlanDecision, StatsSnapshot};
pub use stream::{SnapshotRing, StreamConfig, StreamConsumer, StreamSample};
pub use tailprof::{
    attribute, req_paths, Exemplar, ReqPathReport, ReqPhase, TailAttribution, TailProfile,
    TailSampler, REQ_PHASES,
};
