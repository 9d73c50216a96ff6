//! Whole-workload differential reference for the trial arena.
//!
//! Campaigns execute every trial on a reusable [`TrialArena`] (dirty-page
//! memory reset, in-place wavefront relaunch). This suite pins it to the
//! plainest possible execution of the same fault: a freshly built workload
//! instance run once through [`run_functional_isolated`]. For real
//! workloads — including histogram with wild accesses faulting, so crash
//! outcomes appear — and for 1-, 2- and 4-bit modes, the verdict and the
//! read-before-overwrite bit must agree on every sampled site.
//!
//! The arena runs untracked images ([`mbavf_sim::Memory::into_untracked`])
//! while every fresh build here keeps its provenance, so the suite also
//! pins the untracked fast path to the tracked one.
//!
//! It lives here rather than in `mbavf-sim` because the simulator crate
//! cannot see the workloads.

use mbavf_inject::campaign::{CampaignConfig, OutcomeKind, SiteSampler};
use mbavf_sim::interp::{run_functional_isolated, run_golden, InterpError, Termination};
use mbavf_sim::TrialArena;
use mbavf_workloads::{by_name, injection_suite, Workload};

const TRIALS: u64 = 40;

/// Verdict of one trial from its termination and output comparison, or
/// from a captured crash — the campaign's decision order.
fn verdict(result: Result<(Termination, bool, bool), InterpError>) -> (OutcomeKind, bool) {
    match result {
        Ok((Termination::Hang, _, read)) => (OutcomeKind::Hang, read),
        Ok((_, true, read)) => (OutcomeKind::Masked, read),
        Ok((_, false, read)) => (OutcomeKind::Sdc, read),
        Err(InterpError::Crash { .. }) => (OutcomeKind::Crash, false),
        Err(e) => panic!("sampled site rejected: {e}"),
    }
}

/// Compare arena and fresh-build verdicts over `trials` sampled sites per
/// mode width, returning how many trials crashed.
fn assert_arena_matches_fresh_builds(w: &Workload, cfg: &CampaignConfig, trials: u64) -> usize {
    let mut inst = w.build(cfg.scale);
    let golden = run_golden(&inst.program, &mut inst.mem, inst.workgroups);
    let max_steps = golden.per_wg_retired.iter().copied().max().unwrap_or(1) * cfg.hang_factor;
    let sampler = SiteSampler::new(&golden.per_wg_retired, inst.program.num_vregs()).unwrap();
    let fresh = w.build(cfg.scale);
    let mut arena = TrialArena::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob);

    let mut crashes = 0;
    for m in [1u8, 2, 4] {
        for trial in 0..trials {
            let inj = sampler.sample(cfg.seed, trial).injection(m);
            let from_arena = verdict(
                arena
                    .run_trial(inj, max_steps, &golden.output)
                    .map(|r| (r.termination, r.output_matches, r.injected_value_read)),
            );
            let mut built = w.build(cfg.scale);
            assert!(built.mem.tracking(), "fresh builds keep their provenance");
            built.mem.set_wrap_oob(cfg.wrap_oob);
            let from_fresh = verdict(
                run_functional_isolated(
                    &built.program,
                    &mut built.mem,
                    built.workgroups,
                    &[inj],
                    max_steps,
                )
                .map(|r| (r.termination, r.output == golden.output, r.injected_value_read)),
            );
            assert_eq!(from_arena, from_fresh, "{} m={m} trial {trial}: {inj:?}", w.name);
            crashes += usize::from(from_arena.0 == OutcomeKind::Crash);
        }
    }
    crashes
}

#[test]
fn arena_matches_fresh_builds_on_fast_walsh() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, ..CampaignConfig::default() };
    assert_arena_matches_fresh_builds(&w, &cfg, TRIALS);
}

#[test]
fn untracked_arena_matches_tracked_fresh_builds_on_every_injection_workload() {
    let cfg = CampaignConfig { seed: 11, ..CampaignConfig::default() };
    for w in injection_suite() {
        assert_arena_matches_fresh_builds(&w, &cfg, 12);
    }
}

#[test]
fn arena_matches_fresh_builds_on_crashing_histogram() {
    let w = by_name("histogram").expect("registered");
    let cfg = CampaignConfig { seed: 0xC0FFEE, wrap_oob: false, ..CampaignConfig::default() };
    let crashes = assert_arena_matches_fresh_builds(&w, &cfg, TRIALS);
    assert!(crashes > 0, "histogram with wild accesses faulting must produce crash outcomes");
}
