//! # mbavf-workloads — benchmark kernels for the MB-AVF studies
//!
//! Hand-written kernels in the `mbavf-sim` ISA mirroring the algorithmic
//! skeletons of the paper's workload suites (Rodinia, the AMD OpenCL/APP SDK
//! samples, and Mantevo):
//!
//! | Workload | Suite | Character |
//! |---|---|---|
//! | `minife` | Mantevo | CG solve with a distinct assembly phase (Fig. 5) |
//! | `comd` | Mantevo | force loop with dead energy diagnostics (false DUE) |
//! | `srad` | Rodinia | stencil with dead statistics pass (false DUE) |
//! | `matmul` | AMD APP | dense GEMM, high reuse |
//! | `transpose` | AMD APP | strided stores across indices |
//! | `dct` | AMD APP | 8-point DCT rows via a coefficient table |
//! | `histogram` | AMD APP | byte loads, bin counting |
//! | `prefix_sum` | AMD APP | Hillis-Steele scan through memory |
//! | `scan_large` | AMD APP | blocked two-phase scan |
//! | `fast_walsh` | AMD APP | XOR butterflies (ACE-interference prone) |
//! | `dwt_haar` | AMD APP | multi-level Haar wavelet |
//! | `recursive_gaussian` | AMD APP | IIR filter, long register lifetimes |
//! | `pathfinder` | Rodinia | DP grid walk with EXEC-mask divergence |
//!
//! Each workload builds an [`Instance`]: a program, an initialized
//! [`Memory`] with declared outputs, a workgroup count, and a host-side
//! checker validating the kernel against a reference implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod util;

use mbavf_sim::{Memory, Program};

/// Problem-size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for unit tests.
    Test,
    /// The sizes used by the experiment harness.
    Paper,
}

impl Scale {
    /// Stable lowercase name: the `--scale` flag, `MBAVF_SCALE`, and the
    /// `"scale"` field of repro bundles and hello frames.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    }

    /// Parse [`Self::as_str`] output.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Addresses/sizes a workload records for its checker and for reports.
#[derive(Debug, Clone, Default)]
pub struct InstanceMeta {
    /// Named buffer base addresses.
    pub addrs: Vec<(&'static str, u32)>,
    /// Problem size (workload-specific meaning).
    pub n: u32,
}

impl InstanceMeta {
    /// Look up a named buffer address.
    ///
    /// # Panics
    ///
    /// Panics if the name was not registered (a workload bug).
    pub fn addr(&self, name: &str) -> u32 {
        self.addrs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no buffer named {name}"))
            .1
    }
}

/// A built, runnable workload.
pub struct Instance {
    /// Workload name (stable identifier).
    pub name: &'static str,
    /// The kernel.
    pub program: Program,
    /// Memory with inputs written and outputs marked.
    pub mem: Memory,
    /// Number of workgroups to dispatch.
    pub workgroups: u32,
    /// Host-side reference check of the final memory contents.
    check: fn(&Memory, &InstanceMeta) -> Result<(), String>,
    /// Buffer addresses and sizes the checker needs.
    pub meta: InstanceMeta,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("name", &self.name)
            .field("workgroups", &self.workgroups)
            .field("insts", &self.program.len())
            .finish()
    }
}

impl Instance {
    /// Validate the (post-run) memory against the host reference.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check(&self, mem: &Memory) -> Result<(), String> {
        (self.check)(mem, &self.meta)
    }
}

/// A workload definition in the registry.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Stable name.
    pub name: &'static str,
    /// Origin suite and one-line description.
    pub desc: &'static str,
    builder: fn(Scale) -> Instance,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workload({})", self.name)
    }
}

impl Workload {
    /// Build a fresh instance (new memory, same deterministic inputs).
    pub fn build(&self, scale: Scale) -> Instance {
        (self.builder)(scale)
    }
}

/// The full workload suite, in a stable order.
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "minife",
            desc: "Mantevo: CG solve with assembly phase",
            builder: kernels::minife::build,
        },
        Workload {
            name: "comd",
            desc: "Mantevo: LJ force loop with dead energy diagnostics",
            builder: kernels::comd::build,
        },
        Workload {
            name: "srad",
            desc: "Rodinia: diffusion stencil with dead statistics",
            builder: kernels::srad::build,
        },
        Workload {
            name: "matmul",
            desc: "AMD APP: dense matrix multiply",
            builder: kernels::matmul::build,
        },
        Workload {
            name: "transpose",
            desc: "AMD APP: matrix transpose (strided stores)",
            builder: kernels::transpose::build,
        },
        Workload {
            name: "dct",
            desc: "AMD APP: 8-point DCT over rows",
            builder: kernels::dct::build,
        },
        Workload {
            name: "histogram",
            desc: "AMD APP: byte histogram by bin counting",
            builder: kernels::histogram::build,
        },
        Workload {
            name: "prefix_sum",
            desc: "AMD APP: Hillis-Steele prefix sum",
            builder: kernels::prefix_sum::build,
        },
        Workload {
            name: "scan_large",
            desc: "AMD APP: blocked two-phase scan",
            builder: kernels::scan_large::build,
        },
        Workload {
            name: "fast_walsh",
            desc: "AMD APP: fast Walsh-Hadamard transform",
            builder: kernels::fast_walsh::build,
        },
        Workload {
            name: "dwt_haar",
            desc: "AMD APP: 1D Haar wavelet",
            builder: kernels::dwt_haar::build,
        },
        Workload {
            name: "recursive_gaussian",
            desc: "AMD APP: recursive (IIR) Gaussian",
            builder: kernels::recursive_gaussian::build,
        },
        Workload {
            name: "pathfinder",
            desc: "Rodinia: DP grid walk with EXEC-mask divergence",
            builder: kernels::pathfinder::build,
        },
    ]
}

/// Look up one workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

/// The deliberately **nondeterministic** drill workload: every
/// [`Workload::build`] call perturbs its input, so two golden runs of
/// "the same" instance disagree. It exists to prove the golden-run
/// integrity gates fire, is excluded from [`suite`] (and thus from
/// [`by_name`]), and must never be used for real measurements.
pub fn nondet_drill() -> Workload {
    Workload {
        name: "nondet_drill",
        desc: "negative control: input drifts between builds",
        builder: kernels::nondet_drill::build,
    }
}

/// The deliberately **lopsided** drill workload: deterministic, but with a
/// cubically skewed per-workgroup retirement profile (64 : 27 : 8 : 1 at
/// four workgroups). It exists to make fault-site sampling bias measurable
/// — a sampler uniform per workgroup rather than per retired instruction
/// visibly over-samples its idle tail — and is excluded from [`suite`]
/// (and thus from [`by_name`]) because it measures the harness, not the
/// hardware.
pub fn lopsided_drill() -> Workload {
    Workload {
        name: "lopsided_drill",
        desc: "positive control: cubically skewed per-workgroup retirement",
        builder: kernels::lopsided_drill::build,
    }
}

/// The nine AMD-APP-style workloads used in the paper's Table II fault
/// injection study.
pub fn injection_suite() -> Vec<Workload> {
    let names = [
        "scan_large",
        "dct",
        "dwt_haar",
        "fast_walsh",
        "histogram",
        "transpose",
        "prefix_sum",
        "recursive_gaussian",
        "matmul",
    ];
    names.iter().map(|n| by_name(n).expect("registered")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_sim::interp::run_golden;

    #[test]
    fn suite_has_thirteen_unique_workloads() {
        let s = suite();
        assert_eq!(s.len(), 13);
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn injection_suite_is_the_table2_nine() {
        assert_eq!(injection_suite().len(), 9);
    }

    #[test]
    fn by_name_roundtrip() {
        assert!(by_name("minife").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn nondet_drill_is_kept_out_of_the_suite() {
        // The drill is a negative control: reachable on purpose, never by
        // accident.
        assert!(by_name("nondet_drill").is_none());
        assert_eq!(nondet_drill().name, "nondet_drill");
    }

    #[test]
    fn lopsided_drill_is_kept_out_of_the_suite() {
        assert!(by_name("lopsided_drill").is_none());
        assert_eq!(lopsided_drill().name, "lopsided_drill");
    }

    /// Every workload must run to completion at test scale and pass its own
    /// host-reference check — the master correctness gate for the suite.
    #[test]
    fn all_workloads_match_reference_at_test_scale() {
        for w in suite() {
            let mut inst = w.build(Scale::Test);
            let program = inst.program.clone();
            let wgs = inst.workgroups;
            run_golden(&program, &mut inst.mem, wgs);
            inst.check(&inst.mem).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn all_workloads_match_reference_at_paper_scale() {
        for w in suite() {
            let mut inst = w.build(Scale::Paper);
            let program = inst.program.clone();
            let wgs = inst.workgroups;
            run_golden(&program, &mut inst.mem, wgs);
            inst.check(&inst.mem).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    /// The timing model must produce the same results as the functional
    /// interpreter for every workload.
    #[test]
    fn timing_matches_functional_for_all_workloads() {
        for w in suite() {
            let mut inst = w.build(Scale::Test);
            let program = inst.program.clone();
            let wgs = inst.workgroups;
            mbavf_sim::run_timed(&program, &mut inst.mem, wgs, &mbavf_sim::GpuConfig::default());
            inst.check(&inst.mem).unwrap_or_else(|e| panic!("{} (timed): {e}", w.name));
        }
    }
}
