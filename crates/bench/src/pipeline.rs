//! The measurement pipeline: timed run → liveness → timelines, cached per
//! workload so the figure generators share one simulation.
//!
//! The suite runners degrade gracefully: a workload that crashes the
//! simulator, fails its reference check, or fails the double-golden
//! determinism check is reported as a [`PipelineError`] and *skipped*, so
//! the remaining workloads still produce their tables and figures. Two
//! entries of the `MBAVF_DRILL` plan ([`mbavf_inject::drill`]) exercise
//! the degraded path end-to-end: `fail@<workload>` forces that workload to
//! fail, and `nondet` appends the deliberately nondeterministic control
//! workload, which the golden-integrity check must catch.

use mbavf_core::error::PipelineError;
use mbavf_core::layout::{CacheGeometry, VgprGeometry};
use mbavf_core::rng::fnv1a;
use mbavf_core::timeline::TimelineStore;
use mbavf_inject::drill::{self, DrillPlan};
use mbavf_sim::extract::{l1_timelines, l2_timelines, vgpr_timelines};
use mbavf_sim::interp::run_golden;
use mbavf_sim::liveness::analyze;
use mbavf_sim::{catch_crash, run_timed, GpuConfig};
use mbavf_workloads::{nondet_drill, suite, Scale, Workload};

/// Everything the experiments need about one workload's run.
pub struct WorkloadData {
    /// Workload name.
    pub name: &'static str,
    /// Per-byte timelines of CU0's 16KB L1 data array.
    pub l1: TimelineStore,
    /// The L1 geometry matching the timeline indexing.
    pub l1_geom: CacheGeometry,
    /// Per-byte timelines of the shared 256KB L2.
    pub l2: TimelineStore,
    /// The L2 geometry.
    pub l2_geom: CacheGeometry,
    /// Per-byte timelines of CU0's vector register file.
    pub vgpr: TimelineStore,
    /// The VGPR geometry.
    pub vgpr_geom: VgprGeometry,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Fraction of dynamic instructions that were (transitively) live.
    pub live_fraction: f64,
}

/// What a degradable suite run produced: the workloads that made it through
/// and the per-workload reasons for the ones that did not.
pub struct SuiteOutcome {
    /// Successful workloads, in suite order.
    pub data: Vec<WorkloadData>,
    /// One entry per skipped workload.
    pub failures: Vec<PipelineError>,
}

impl SuiteOutcome {
    /// Look up a surviving workload by name.
    pub fn get(&self, name: &str) -> Option<&WorkloadData> {
        self.data.iter().find(|d| d.name == name)
    }
}

/// Run one workload through the full pipeline at the given scale on the
/// paper's GPU configuration (4 CUs, 16KB L1s, 256KB L2).
///
/// Before anything is measured, the workload's fault-free golden run is
/// executed **twice** from independently built instances and the output
/// digests compared. Every downstream verdict — Masked/SDC classification,
/// AVF timelines, the validation gate — diffs against "the" golden output,
/// so a workload whose build or execution drifts between runs would poison
/// all of it silently. Nondeterminism is surfaced as a typed skip instead.
///
/// # Errors
///
/// [`PipelineError::Crash`] if the simulation panics,
/// [`PipelineError::NondeterministicGolden`] if the two golden runs
/// disagree, [`PipelineError::CheckFailed`] if the run completes but the
/// output fails the workload's host-side reference check.
pub fn try_run_workload(w: &Workload, scale: Scale) -> Result<WorkloadData, PipelineError> {
    let name = w.name;
    catch_crash(|| {
        let golden_digest = || {
            let mut inst = w.build(scale);
            let program = inst.program.clone();
            let wgs = inst.workgroups;
            let run = run_golden(&program, &mut inst.mem, wgs);
            (fnv1a(&run.output), run.per_wg_retired)
        };
        let (digest_a, shape_a) = golden_digest();
        let (digest_b, shape_b) = golden_digest();
        if digest_a != digest_b || shape_a != shape_b {
            return Err(PipelineError::NondeterministicGolden {
                workload: name.to_string(),
                digest_a,
                digest_b,
            });
        }
        let mut inst = w.build(scale);
        let program = inst.program.clone();
        let wgs = inst.workgroups;
        let cfg = GpuConfig::default();
        let res = run_timed(&program, &mut inst.mem, wgs, &cfg);
        inst.check(&inst.mem)
            .map_err(|detail| PipelineError::CheckFailed { workload: name.to_string(), detail })?;
        let lv = analyze(&res.trace, &inst.mem);
        let l1 = l1_timelines(&res, &lv, &inst.mem, 0);
        let l2 = l2_timelines(&res, &lv, &inst.mem);
        let (vgpr, vgpr_geom) = vgpr_timelines(&res, &lv, 0);
        Ok(WorkloadData {
            name,
            l1,
            l1_geom: CacheGeometry {
                sets: cfg.l1.sets,
                ways: cfg.l1.ways,
                line_bytes: cfg.l1.line_bytes,
            },
            l2,
            l2_geom: CacheGeometry {
                sets: cfg.l2.sets,
                ways: cfg.l2.ways,
                line_bytes: cfg.l2.line_bytes,
            },
            vgpr,
            vgpr_geom,
            cycles: res.cycles,
            retired: res.retired,
            live_fraction: lv.live_fraction(),
        })
    })
    .unwrap_or_else(|reason| Err(PipelineError::Crash { workload: name.to_string(), reason }))
}

/// Run one workload, panicking on failure.
///
/// # Panics
///
/// Panics if the simulation crashes or the reference check fails. Use
/// [`try_run_workload`] for a typed error instead.
pub fn run_workload(w: &Workload, scale: Scale) -> WorkloadData {
    try_run_workload(w, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// Run the whole suite at the given scale with one worker thread per
/// workload (runs are independent and deterministic), keeping the survivors
/// and reporting failures instead of aborting. `should_fail` forces named
/// workloads to fail — the seam resilience tests and the `fail@` drill
/// use.
pub fn try_run_suite_with(
    scale: Scale,
    should_fail: &(dyn Fn(&str) -> bool + Sync),
) -> SuiteOutcome {
    let mut workloads = suite();
    // The nondeterminism drill: appending the deliberately unstable workload
    // must end with it in `failures` (caught by the double-golden check),
    // never in `data`.
    if drills().nondet {
        workloads.push(nondet_drill());
    }
    let results: Vec<Result<WorkloadData, PipelineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .into_iter()
            .map(|w| {
                scope.spawn(move || {
                    if should_fail(w.name) {
                        return Err(PipelineError::CheckFailed {
                            workload: w.name.to_string(),
                            detail: "forced failure (resilience drill)".to_string(),
                        });
                    }
                    eprintln!("  simulating {} ...", w.name);
                    try_run_workload(&w, scale)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    // try_run_workload already isolates simulation panics, so
                    // this only fires if the harness around it panics.
                    Err(PipelineError::Crash {
                        workload: "<unknown>".to_string(),
                        reason: "workload worker thread panicked".to_string(),
                    })
                })
            })
            .collect()
    });
    let mut out = SuiteOutcome { data: Vec::new(), failures: Vec::new() };
    for r in results {
        match r {
            Ok(d) => out.data.push(d),
            Err(e) => out.failures.push(e),
        }
    }
    out
}

/// Run the whole suite at the given scale, degrading gracefully. Workloads
/// named by `fail@` drill entries are forced to fail.
pub fn try_run_suite_at(scale: Scale) -> SuiteOutcome {
    let forced = &drills().fail;
    try_run_suite_with(scale, &|name| forced.iter().any(|f| f == name))
}

/// The drill plan; a malformed one is a hard error, never run undrilled.
fn drills() -> &'static DrillPlan {
    drill::plan().unwrap_or_else(|e| panic!("{e}"))
}

/// Run the whole suite at the given scale, printing a warning for each
/// failed workload and returning the survivors in suite order.
pub fn run_suite_at(scale: Scale) -> Vec<WorkloadData> {
    let outcome = try_run_suite_at(scale);
    for e in &outcome.failures {
        eprintln!("warning: skipping workload: {e}");
    }
    outcome.data
}

/// Run the whole suite at paper scale.
pub fn run_suite() -> Vec<WorkloadData> {
    run_suite_at(Scale::Paper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_core::avf::raw_avf;
    use mbavf_workloads::by_name;

    #[test]
    fn pipeline_produces_consistent_data() {
        let w = by_name("transpose").expect("registered");
        let d = run_workload(&w, Scale::Test);
        d.l1.validate().unwrap();
        d.l2.validate().unwrap();
        d.vgpr.validate().unwrap();
        assert_eq!(d.l1.num_bytes(), 16 * 1024);
        assert_eq!(d.l2.num_bytes(), 256 * 1024);
        assert!(d.cycles > 0);
        assert!(raw_avf(&d.l1) > 0.0);
        assert!(raw_avf(&d.vgpr) > 0.0);
        assert!(d.live_fraction > 0.0 && d.live_fraction <= 1.0);
    }

    #[test]
    fn nondeterministic_golden_runs_are_detected_and_skipped() {
        let err = try_run_workload(&nondet_drill(), Scale::Test)
            .err()
            .expect("the drill workload must not survive the integrity check");
        match &err {
            PipelineError::NondeterministicGolden { workload, digest_a, digest_b } => {
                assert_eq!(workload, "nondet_drill");
                assert_ne!(digest_a, digest_b);
            }
            other => panic!("expected NondeterministicGolden, got {other}"),
        }
        assert_eq!(err.workload(), "nondet_drill");
    }

    #[test]
    fn one_failing_workload_does_not_sink_the_suite() {
        let outcome = try_run_suite_with(Scale::Test, &|name| name == "dct");
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].workload(), "dct");
        let expected = suite().len() - 1;
        assert_eq!(outcome.data.len(), expected);
        assert!(outcome.get("dct").is_none());
        assert!(outcome.get("transpose").is_some());
    }
}
