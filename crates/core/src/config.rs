//! Runtime configuration: which communication backend UHCAF runs over and
//! which strided-transfer algorithm it uses.

use pgas_conduit::{CoalescePolicy, ConduitProfile, CtxOptions};
use pgas_machine::Platform;

/// The communication substrate beneath the CAF runtime — the axis the paper
/// evaluates (UHCAF over OpenSHMEM vs UHCAF over GASNet vs the Cray CAF
/// compiler's DMAPP runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// UHCAF over the platform's native OpenSHMEM (Cray SHMEM on Gemini /
    /// Aries machines, MVAPICH2-X SHMEM on InfiniBand).
    Shmem,
    /// UHCAF over GASNet with the platform's conduit.
    Gasnet,
    /// The Cray Fortran compiler's own runtime over DMAPP (baseline).
    CrayCaf,
}

impl Backend {
    /// The conduit profile this backend links against on `platform`.
    pub fn profile(self, platform: Platform) -> ConduitProfile {
        match self {
            Backend::Shmem => ConduitProfile::native_shmem(platform),
            Backend::Gasnet => ConduitProfile::gasnet(platform),
            Backend::CrayCaf => ConduitProfile::dmapp(platform),
        }
    }

    /// The strided algorithm the backend uses unless overridden: the paper's
    /// `2dim_strided` for UHCAF-over-SHMEM, plain contiguous chunks for
    /// GASNet (no `iput` worth exploiting), and an always-dimension-1 strided
    /// descriptor for the Cray runtime.
    pub fn default_strided(self) -> StridedAlgorithm {
        match self {
            Backend::Shmem => StridedAlgorithm::TwoDim,
            Backend::Gasnet => StridedAlgorithm::Naive,
            Backend::CrayCaf => StridedAlgorithm::OneDim,
        }
    }

    /// Legend label used by the figure harnesses ("UHCAF-Cray-SHMEM", ...).
    pub fn label(self, platform: Platform) -> String {
        match self {
            Backend::Shmem => match platform {
                Platform::Titan | Platform::CrayXc30 => "UHCAF-Cray-SHMEM".into(),
                Platform::Stampede => "UHCAF-MVAPICH2-X-SHMEM".into(),
                Platform::GenericSmp => "UHCAF-SHMEM".into(),
            },
            Backend::Gasnet => "UHCAF-GASNet".into(),
            Backend::CrayCaf => "Cray-CAF".into(),
        }
    }
}

/// Algorithms for remote access to multi-dimensional strided sections
/// (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StridedAlgorithm {
    /// One contiguous transfer per stride-1 run (a run degenerates to one
    /// element when the innermost dimension is strided). The paper's naive
    /// baseline.
    Naive,
    /// 1-D strided `iput`/`iget` always along dimension 1 — our model of the
    /// Cray compiler's runtime.
    OneDim,
    /// The paper's `2dim_strided`: pick the base dimension with the most
    /// elements among the *first two* dimensions (locality-bounded), then
    /// issue one `iput`/`iget` per remaining pencil.
    TwoDim,
    /// Ablation: pick the best dimension among *all* dimensions, ignoring
    /// the locality argument of §IV-C.
    BestOfAll,
    /// Pack the whole section into one active-message transfer, unpacked by
    /// a handler at the target (GASNet VIS; the Himeno figure's "with-AM").
    AmPacked,
    /// The paper's §VII future work, implemented: price every base
    /// dimension, the contiguous-run (naive) plan and, where an AM layer
    /// exists, the AM-packed plan with the conduit's `CostModel` on idle
    /// lanes between the caller and the target, then execute the cheapest
    /// (see [`crate::planner::plan`]).
    Tuned,
}

impl StridedAlgorithm {
    /// Every selectable algorithm, in presentation order.
    pub const ALL: [StridedAlgorithm; 6] = [
        StridedAlgorithm::Naive,
        StridedAlgorithm::OneDim,
        StridedAlgorithm::TwoDim,
        StridedAlgorithm::BestOfAll,
        StridedAlgorithm::AmPacked,
        StridedAlgorithm::Tuned,
    ];

    pub fn label(self) -> &'static str {
        match self {
            StridedAlgorithm::Naive => "naive",
            StridedAlgorithm::OneDim => "1dim",
            StridedAlgorithm::TwoDim => "2dim",
            StridedAlgorithm::BestOfAll => "best-of-all",
            StridedAlgorithm::AmPacked => "with-AM",
            StridedAlgorithm::Tuned => "tuned",
        }
    }

    /// Look an algorithm up by its [`Self::label`] name, so apps and bench
    /// harnesses can select one from a CLI flag or environment string.
    /// `"adaptive"` is an alias of [`Self::Tuned`].
    pub fn from_name(name: &str) -> Option<StridedAlgorithm> {
        match name.trim() {
            "adaptive" => Some(StridedAlgorithm::Tuned),
            name => StridedAlgorithm::ALL.into_iter().find(|a| a.label() == name),
        }
    }
}

/// Full CAF runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct CafConfig {
    pub backend: Backend,
    /// Platform (selects wire parameters and vendor libraries).
    pub platform: Platform,
    /// Override the backend's default strided algorithm.
    pub strided: Option<StridedAlgorithm>,
    /// Size of the pre-allocated symmetric buffer that backs non-symmetric
    /// remotely-accessible data (derived-type components, lock qnodes).
    pub nonsym_bytes: usize,
    /// Insert `shmem_quiet` after puts / before gets, as §IV-B requires.
    /// Disabled only by tests that demonstrate the resulting hazards.
    pub insert_quiet: bool,
    /// Panic on ordering hazards (failure injection for runtime tests).
    pub strict_ordering: bool,
    /// Use direct load/store for same-node transfers (`shmem_ptr`, §VII).
    pub fastpath: bool,
    /// Small-op aggregation policy handed to the conduit: coalesce small
    /// puts and non-fetching AMOs into per-destination-node buffers.
    /// `Auto` (the default) defers to the machine/environment
    /// (`PGAS_COALESCE`).
    pub aggregation: CoalescePolicy,
}

impl CafConfig {
    pub fn new(backend: Backend, platform: Platform) -> CafConfig {
        CafConfig {
            backend,
            platform,
            strided: None,
            nonsym_bytes: 64 * 1024,
            insert_quiet: true,
            strict_ordering: false,
            fastpath: false,
            aggregation: CoalescePolicy::Auto,
        }
    }

    /// The effective strided algorithm.
    pub fn strided_algorithm(&self) -> StridedAlgorithm {
        self.strided.unwrap_or_else(|| self.backend.default_strided())
    }

    pub fn with_strided(mut self, algo: StridedAlgorithm) -> Self {
        self.strided = Some(algo);
        self
    }

    pub fn with_nonsym_bytes(mut self, bytes: usize) -> Self {
        self.nonsym_bytes = bytes;
        self
    }

    pub fn with_strict_ordering(mut self, on: bool) -> Self {
        self.strict_ordering = on;
        self
    }

    pub fn with_insert_quiet(mut self, on: bool) -> Self {
        self.insert_quiet = on;
        self
    }

    pub fn with_fastpath(mut self, on: bool) -> Self {
        self.fastpath = on;
        self
    }

    pub fn with_aggregation(mut self, policy: CoalescePolicy) -> Self {
        self.aggregation = policy;
        self
    }

    pub(crate) fn ctx_options(&self) -> CtxOptions {
        CtxOptions {
            strict_ordering: self.strict_ordering,
            shmem_ptr_fastpath: self.fastpath,
            coalesce: self.aggregation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_conduit::ConduitKind;

    #[test]
    fn backend_profiles_match_paper_configurations() {
        assert_eq!(Backend::Shmem.profile(Platform::Titan).kind, ConduitKind::CrayShmem);
        assert_eq!(Backend::Shmem.profile(Platform::Stampede).kind, ConduitKind::MvapichShmem);
        assert_eq!(Backend::Gasnet.profile(Platform::Titan).kind, ConduitKind::Gasnet);
        assert_eq!(Backend::CrayCaf.profile(Platform::CrayXc30).kind, ConduitKind::Dmapp);
    }

    #[test]
    fn default_strided_per_backend() {
        assert_eq!(Backend::Shmem.default_strided(), StridedAlgorithm::TwoDim);
        assert_eq!(Backend::CrayCaf.default_strided(), StridedAlgorithm::OneDim);
        assert_eq!(Backend::Gasnet.default_strided(), StridedAlgorithm::Naive);
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(Backend::Shmem.label(Platform::Titan), "UHCAF-Cray-SHMEM");
        assert_eq!(Backend::Shmem.label(Platform::Stampede), "UHCAF-MVAPICH2-X-SHMEM");
        assert_eq!(Backend::Gasnet.label(Platform::Titan), "UHCAF-GASNet");
        assert_eq!(Backend::CrayCaf.label(Platform::CrayXc30), "Cray-CAF");
    }

    #[test]
    fn from_name_round_trips_every_label() {
        for algo in StridedAlgorithm::ALL {
            assert_eq!(StridedAlgorithm::from_name(algo.label()), Some(algo));
        }
        assert_eq!(StridedAlgorithm::from_name("tuned"), Some(StridedAlgorithm::Tuned));
        assert_eq!(StridedAlgorithm::from_name(" adaptive "), Some(StridedAlgorithm::Tuned));
        assert_eq!(StridedAlgorithm::from_name("3dim"), None);
    }

    #[test]
    fn strided_override() {
        let cfg = CafConfig::new(Backend::Shmem, Platform::Titan);
        assert_eq!(cfg.strided_algorithm(), StridedAlgorithm::TwoDim);
        let cfg = cfg.with_strided(StridedAlgorithm::Naive);
        assert_eq!(cfg.strided_algorithm(), StridedAlgorithm::Naive);
    }
}
