//! Machine description: topology, wire parameters, compute speed.

use crate::fault::FaultPlan;
use crate::knobs::Knobs;
use crate::sanitizer::SanitizerMode;
use crate::stream::StreamConfig;

/// Parameters of one class of link (inter-node wire or intra-node memory bus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way wire latency in nanoseconds (time of flight, not occupancy).
    pub latency_ns: f64,
    /// Sustained bandwidth in bytes per nanosecond (1 byte/ns == ~0.93 GiB/s).
    pub bytes_per_ns: f64,
}

impl LinkParams {
    /// Pure serialization time for `bytes` on this link (no latency term).
    #[inline]
    pub fn occupancy_ns(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bytes_per_ns
    }
}

/// Wire-level parameters of the interconnect and the intra-node fabric.
///
/// These are raw hardware numbers; per-library software overheads (issue cost,
/// completion cost, active-message processing) belong to conduit profiles in
/// `pgas-conduit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParams {
    /// Inter-node link (InfiniBand / Gemini / Aries ...).
    pub inter: LinkParams,
    /// Intra-node transfers (shared memory bus).
    pub intra: LinkParams,
    /// Fixed NIC processing time charged per message that crosses it, ns.
    pub nic_msg_overhead_ns: f64,
    /// Hardware time for a remote atomic at the target NIC/memory controller.
    pub amo_ns: f64,
}

/// Compute-speed parameters used by application kernels (Himeno, DHT) to
/// charge local computation to the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeParams {
    /// Sustained floating-point rate of one core, in flops per nanosecond
    /// (i.e. GFLOP/s).
    pub core_gflops: f64,
    /// Fixed cost of a local function call / loop iteration bookkeeping, ns.
    pub local_op_ns: f64,
}

/// Full description of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Human-readable platform name ("stampede", "titan", ...).
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Cores (= PEs) per node.
    pub cores_per_node: usize,
    /// Symmetric heap size per PE, in bytes (rounded up to 8).
    pub heap_bytes: usize,
    pub wire: WireParams,
    pub compute: ComputeParams,
    /// Stack size of each PE's thread or fiber, bytes.
    pub stack_bytes: usize,
    /// Width of the metrics registry's virtual-time windows, ns. `0` (the
    /// default) records no windowed series; non-zero additionally buckets
    /// `observe_windowed`/`count_windowed` feeds into fixed windows for
    /// deterministic percentile-over-time / throughput-over-time series.
    /// Only meaningful when metrics are enabled.
    pub metrics_window_ns: u64,
    /// This config's choices for the seven machine-wide knobs (sanitizer,
    /// faults, trace, metrics, aggregation, checksums, stream); all `None`
    /// in the presets. A launch resolves them against the thread-forced
    /// and environment layers (see `crate::knobs`).
    pub knobs: Knobs,
}

impl MachineConfig {
    /// Total number of PEs.
    pub fn total_pes(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Override the number of nodes (keeps other parameters).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Override cores per node.
    pub fn with_cores_per_node(mut self, cores: usize) -> Self {
        self.cores_per_node = cores;
        self
    }

    /// Override the per-PE symmetric heap size.
    pub fn with_heap_bytes(mut self, bytes: usize) -> Self {
        self.heap_bytes = bytes;
        self
    }

    // The seven knob builders. What counts as "no choice" is asymmetric, and
    // this is the one place that says so: `false`/`Off` for the three
    // observers (trace, metrics, sanitizer) leaves the knob unset, because
    // the `PGAS_TRACE`/`PGAS_METRICS`/`PGAS_SANITIZER` CI jobs must reach
    // configs that spell out the off default, and only a `with_forced_*`
    // scope turns an observer off. For the other knobs every value —
    // `with_aggregation(false)`, `with_checksums(false)`,
    // `with_faults(FaultPlan::none())` — is an explicit choice that beats
    // the environment: timing-exact tests opt out of the env default with it.

    /// Enable virtual-time execution tracing.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.knobs.trace = on.then_some(true);
        self
    }

    /// Enable the per-op metrics registry.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.knobs.metrics = on.then_some(true);
        self
    }

    /// Bucket windowed metric feeds into fixed `window_ns`-wide virtual-time
    /// windows (see the `metrics_window_ns` field). Implies nothing about
    /// the enable flag — combine with [`MachineConfig::with_metrics`].
    pub fn with_metrics_window(mut self, window_ns: u64) -> Self {
        self.metrics_window_ns = window_ns;
        self
    }

    /// Set the race & sync sanitizer mode.
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.knobs.sanitizer = (mode != SanitizerMode::Off).then_some(mode);
        self
    }

    /// Attach a deterministic fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.knobs.faults = Some(plan);
        self
    }

    /// Attach a live streaming snapshot channel.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.knobs.stream = Some(stream);
        self
    }

    /// No-op, kept for callers written when the virtual-time NIC arbiter was
    /// opt-in: every launched machine is arbitrated now (see
    /// `crate::launch`), whatever its config says.
    pub fn with_deterministic_nic(self) -> Self {
        self
    }

    /// Override the PE stack size (large jobs shrink it so thousands of PE
    /// stacks fit the host's address-space and memory budget).
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// Set the conduit small-op aggregation default.
    pub fn with_aggregation(mut self, on: bool) -> Self {
        self.knobs.aggregation = Some(on);
        self
    }

    /// Set the conduit payload-checksum default.
    pub fn with_checksums(mut self, on: bool) -> Self {
        self.knobs.checksums = Some(on);
        self
    }

    /// Validate the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("machine must have at least one node".into());
        }
        if self.cores_per_node == 0 {
            return Err("machine must have at least one core per node".into());
        }
        if self.heap_bytes < 64 {
            return Err("per-PE heap must be at least 64 bytes".into());
        }
        if !(self.wire.inter.latency_ns > 0.0 && self.wire.inter.bytes_per_ns > 0.0) {
            return Err("inter-node link parameters must be positive".into());
        }
        if !(self.wire.intra.latency_ns > 0.0 && self.wire.intra.bytes_per_ns > 0.0) {
            return Err("intra-node link parameters must be positive".into());
        }
        if self.total_pes() > crate::machine::MAX_PES {
            return Err(format!(
                "{} PEs exceeds the supported maximum of {}",
                self.total_pes(),
                crate::machine::MAX_PES
            ));
        }
        if let Some(plan) = &self.knobs.faults {
            plan.validate(self.total_pes(), self.nodes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;

    #[test]
    fn occupancy_scales_linearly() {
        let link = LinkParams { latency_ns: 1000.0, bytes_per_ns: 2.0 };
        assert_eq!(link.occupancy_ns(0), 0.0);
        assert_eq!(link.occupancy_ns(4096), 2048.0);
        assert_eq!(link.occupancy_ns(8192), 2.0 * link.occupancy_ns(4096));
    }

    #[test]
    fn presets_validate() {
        for cfg in [
            platforms::stampede(2, 16),
            platforms::titan(64, 16),
            platforms::cray_xc30(2, 16),
            platforms::generic_smp(8),
        ] {
            cfg.validate().unwrap_or_else(|e| panic!("{}: {}", cfg.name, e));
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut cfg = platforms::generic_smp(4);
        cfg.nodes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = platforms::generic_smp(4);
        cfg.cores_per_node = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = platforms::generic_smp(4);
        cfg.heap_bytes = 8;
        assert!(cfg.validate().is_err());

        let mut cfg = platforms::generic_smp(4);
        cfg.wire.inter.latency_ns = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_overrides_apply() {
        let cfg = platforms::titan(4, 8).with_nodes(9).with_cores_per_node(3).with_heap_bytes(4096);
        assert_eq!(cfg.nodes, 9);
        assert_eq!(cfg.cores_per_node, 3);
        assert_eq!(cfg.heap_bytes, 4096);
        assert_eq!(cfg.total_pes(), 27);
    }

    #[test]
    fn validate_checks_fault_plan() {
        let cfg = platforms::generic_smp(4).with_faults(FaultPlan::transient_drops(1, 2.0));
        assert!(cfg.validate().is_err());
        let cfg = platforms::generic_smp(4).with_faults(FaultPlan::new(1).with_pe_failure(7, 10));
        assert!(cfg.validate().is_err(), "failure of a PE the machine does not have");
        let cfg = platforms::generic_smp(4).with_faults(FaultPlan::transient_drops(1, 0.01));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sanitizer_mode_names_parse() {
        assert_eq!(SanitizerMode::parse("off"), Some(SanitizerMode::Off));
        assert_eq!(SanitizerMode::parse(" Record\n"), Some(SanitizerMode::Record));
        assert_eq!(SanitizerMode::parse("PANIC"), Some(SanitizerMode::Panic));
        assert_eq!(SanitizerMode::parse("tsan"), None);
        assert_eq!(SanitizerMode::parse(""), None);
    }
}
