//! Platform presets mirroring Table III of the paper.
//!
//! The paper evaluates on three machines:
//!
//! | Cluster     | Processor                      | Cores/node | Interconnect        |
//! |-------------|--------------------------------|-----------:|---------------------|
//! | Stampede    | Intel Xeon E5 (Sandy Bridge)   | 16         | InfiniBand Mellanox |
//! | Cray XC30   | Intel Xeon E5 (Sandy Bridge)   | 16         | Aries / Dragonfly   |
//! | Titan (XK7) | AMD Opteron                    | 16         | Cray Gemini         |
//!
//! The presets encode publicly documented ballpark hardware characteristics of
//! those interconnects (FDR InfiniBand, Gemini, Aries). They set the *wire*
//! level only; per-library software behaviour (why Cray SHMEM beats GASNet on
//! Titan, why MVAPICH2-X `shmem_iput` is slow, ...) is layered on by the
//! conduit profiles in `pgas-conduit`.

use crate::config::{ComputeParams, LinkParams, MachineConfig, WireParams};
use crate::knobs::Knobs;

/// Identifier for a paper platform, used by benchmark harnesses to pick both
/// a `MachineConfig` and the set of conduit profiles evaluated on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// TACC Stampede: Sandy Bridge + Mellanox FDR InfiniBand.
    Stampede,
    /// OLCF Titan: AMD Opteron + Cray Gemini.
    Titan,
    /// Cray XC30: Sandy Bridge + Aries (Dragonfly).
    CrayXc30,
    /// A single shared-memory node; not in the paper, used for examples/tests.
    GenericSmp,
}

impl Platform {
    /// Construct the corresponding configuration.
    pub fn config(self, nodes: usize, cores_per_node: usize) -> MachineConfig {
        match self {
            Platform::Stampede => stampede(nodes, cores_per_node),
            Platform::Titan => titan(nodes, cores_per_node),
            Platform::CrayXc30 => cray_xc30(nodes, cores_per_node),
            Platform::GenericSmp => generic_smp(cores_per_node),
        }
    }

    /// Name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Stampede => "stampede",
            Platform::Titan => "titan",
            Platform::CrayXc30 => "cray-xc30",
            Platform::GenericSmp => "generic-smp",
        }
    }

    /// All platforms that appear in the paper's evaluation.
    pub fn paper_platforms() -> [Platform; 3] {
        [Platform::Stampede, Platform::Titan, Platform::CrayXc30]
    }
}

const DEFAULT_HEAP: usize = 1 << 20; // 1 MiB per PE
const DEFAULT_STACK: usize = 1 << 19; // 512 KiB per PE thread

/// TACC Stampede: FDR InfiniBand (~6.8 GB/s peak per port, ~1 us MPI latency).
pub fn stampede(nodes: usize, cores_per_node: usize) -> MachineConfig {
    MachineConfig {
        name: "stampede".into(),
        nodes,
        cores_per_node,
        heap_bytes: DEFAULT_HEAP,
        wire: WireParams {
            inter: LinkParams { latency_ns: 900.0, bytes_per_ns: 6.0 },
            intra: LinkParams { latency_ns: 80.0, bytes_per_ns: 12.0 },
            nic_msg_overhead_ns: 200.0,
            amo_ns: 350.0,
        },
        compute: ComputeParams { core_gflops: 2.0, local_op_ns: 1.0 },
        stack_bytes: DEFAULT_STACK,
        metrics_window_ns: 0,
        knobs: Knobs::default(),
    }
}

/// OLCF Titan (Cray XK7): Gemini interconnect — higher latency than Aries,
/// good hardware AMO support (exploited by Cray SHMEM for locks).
pub fn titan(nodes: usize, cores_per_node: usize) -> MachineConfig {
    MachineConfig {
        name: "titan".into(),
        nodes,
        cores_per_node,
        heap_bytes: DEFAULT_HEAP,
        wire: WireParams {
            inter: LinkParams { latency_ns: 1400.0, bytes_per_ns: 5.0 },
            intra: LinkParams { latency_ns: 90.0, bytes_per_ns: 10.0 },
            nic_msg_overhead_ns: 250.0,
            amo_ns: 150.0,
        },
        compute: ComputeParams { core_gflops: 1.2, local_op_ns: 1.2 },
        stack_bytes: DEFAULT_STACK,
        metrics_window_ns: 0,
        knobs: Knobs::default(),
    }
}

/// Cray XC30: Aries / Dragonfly — lowest latency, highest bandwidth of the
/// three, fast hardware AMOs.
pub fn cray_xc30(nodes: usize, cores_per_node: usize) -> MachineConfig {
    MachineConfig {
        name: "cray-xc30".into(),
        nodes,
        cores_per_node,
        heap_bytes: DEFAULT_HEAP,
        wire: WireParams {
            inter: LinkParams { latency_ns: 700.0, bytes_per_ns: 9.0 },
            intra: LinkParams { latency_ns: 80.0, bytes_per_ns: 12.0 },
            nic_msg_overhead_ns: 150.0,
            amo_ns: 100.0,
        },
        compute: ComputeParams { core_gflops: 2.0, local_op_ns: 1.0 },
        stack_bytes: DEFAULT_STACK,
        metrics_window_ns: 0,
        knobs: Knobs::default(),
    }
}

/// One shared-memory node with `cores` PEs: everything goes over the
/// intra-node fabric. Handy for examples and fast tests.
pub fn generic_smp(cores: usize) -> MachineConfig {
    MachineConfig {
        name: "generic-smp".into(),
        nodes: 1,
        cores_per_node: cores,
        heap_bytes: DEFAULT_HEAP,
        wire: WireParams {
            inter: LinkParams { latency_ns: 1000.0, bytes_per_ns: 5.0 },
            intra: LinkParams { latency_ns: 60.0, bytes_per_ns: 16.0 },
            nic_msg_overhead_ns: 100.0,
            amo_ns: 60.0,
        },
        compute: ComputeParams { core_gflops: 2.5, local_op_ns: 0.8 },
        stack_bytes: DEFAULT_STACK,
        metrics_window_ns: 0,
        knobs: Knobs::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc30_is_fastest_wire() {
        let s = stampede(2, 16);
        let t = titan(2, 16);
        let x = cray_xc30(2, 16);
        assert!(x.wire.inter.latency_ns < s.wire.inter.latency_ns);
        assert!(s.wire.inter.latency_ns < t.wire.inter.latency_ns);
        assert!(x.wire.inter.bytes_per_ns > s.wire.inter.bytes_per_ns);
        assert!(s.wire.inter.bytes_per_ns > t.wire.inter.bytes_per_ns);
    }

    #[test]
    fn platform_config_roundtrip() {
        for p in Platform::paper_platforms() {
            let cfg = p.config(2, 16);
            assert_eq!(cfg.name, p.name());
            assert_eq!(cfg.total_pes(), 32);
        }
        assert_eq!(Platform::GenericSmp.config(3, 4).total_pes(), 4);
    }

    #[test]
    fn amo_hardware_fast_on_cray_interconnects() {
        // The paper's lock results rely on Gemini/Aries having fast remote
        // atomics relative to IB-verbs emulation on Stampede.
        assert!(titan(1, 1).wire.amo_ns < stampede(1, 1).wire.amo_ns);
        assert!(cray_xc30(1, 1).wire.amo_ns < stampede(1, 1).wire.amo_ns);
    }
}
