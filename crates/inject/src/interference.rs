//! The ACE-interference study (paper Table II, Section VII-A).
//!
//! The MB-AVF model describes multi-bit masking behaviour using single-bit
//! ACE results, which is wrong exactly when flipping several bits together
//! changes each bit's individual ACEness — e.g. two flipped inputs of an
//! XOR cancelling, or a corrupted branch re-converging. This module
//! measures how often that happens: for each SDC ACE bit found by a
//! single-bit campaign, build 2x1/3x1/4x1 fault groups containing it and
//! count groups where the multi-bit outcome contradicts the union of the
//! single-bit outcomes.
//!
//! Every group contains its campaign's SDC bit, so the union is always
//! "error" and a group shows interference exactly when its own run is not
//! an error. The constituent single-bit runs cannot change a count, so the
//! study makes, per SDC site, one full replay of the SDC bit (it must come
//! back SDC, or the study fails with [`InjectError::ReplayNotSdc`]) and one
//! run per mode of the group, through the executor's exact golden-run
//! shortcuts.

use crate::campaign::{
    golden_shape, CampaignConfig, FaultSite, GoldenShape, Outcome, SiteSampler, TrialExecutor,
};
use crate::runner::{run_campaign_with, RunnerConfig};
use mbavf_core::error::InjectError;
use mbavf_workloads::Workload;

/// The fault modes of Table II.
pub const MODES: [u8; 3] = [2, 3, 4];

/// One workload's row of Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceRow {
    /// Workload name.
    pub workload: &'static str,
    /// SDC ACE bits identified by the single-bit campaign.
    pub sdc_ace_bits: usize,
    /// Fault groups tested per mode (2x1, 3x1, 4x1).
    pub groups_tested: [usize; 3],
    /// Groups exhibiting ACE interference per mode.
    pub interference: [usize; 3],
}

impl InterferenceRow {
    /// Total interference fraction over all tested groups.
    pub fn interference_fraction(&self) -> f64 {
        let tested: usize = self.groups_tested.iter().sum();
        if tested == 0 {
            0.0
        } else {
            self.interference.iter().sum::<usize>() as f64 / tested as f64
        }
    }
}

/// Run the Table II experiment for one workload.
///
/// `max_groups_per_mode` bounds the number of multi-bit groups tested per
/// mode. Each tested SDC site costs one full replay plus one golden-run
/// shortcut run per mode, so at most `4 × max_groups_per_mode` injected
/// runs beyond the campaign itself.
///
/// # Panics
///
/// Panics if the study fails; use [`try_interference_study`] for a typed
/// error instead.
pub fn interference_study(
    workload: &Workload,
    cfg: &CampaignConfig,
    max_groups_per_mode: usize,
) -> InterferenceRow {
    try_interference_study(workload, cfg, max_groups_per_mode)
        .unwrap_or_else(|e| panic!("interference study over {} failed: {e}", workload.name))
}

/// [`interference_study`], reporting failures as typed errors instead of
/// panicking (so the experiment harness can skip the workload).
///
/// # Errors
///
/// * [`InjectError::GoldenRunFailed`] if the fault-free reference run fails.
/// * [`InjectError::BadConfig`] if `cfg.mode_bits` is above 1: the groups
///   are built around single-bit SDC sites.
/// * [`InjectError::ReplayNotSdc`] if a full replay of a campaign SDC site
///   does not come back SDC.
pub fn try_interference_study(
    workload: &Workload,
    cfg: &CampaignConfig,
    max_groups_per_mode: usize,
) -> Result<InterferenceRow, InjectError> {
    let study = SdcCampaign::run(workload, cfg)?;
    let sites = study.tested(max_groups_per_mode);
    // One executor per study, reset between runs.
    let mut exec = TrialExecutor::new(workload, cfg, &study.golden, &study.sampler, 1);
    for &site in sites {
        let (outcome, _) = exec.run_site(site, 1);
        if outcome != Outcome::Sdc {
            return Err(InjectError::ReplayNotSdc {
                workload: workload.name.to_string(),
                site: format!("{site:?}"),
                outcome: outcome.kind().as_str().to_string(),
            });
        }
    }
    let mut groups_tested = [0usize; 3];
    let mut interference = [0usize; 3];
    for (mi, m, group) in groups(sites) {
        let (outcome, _) = exec.run_site_shortcut(group, m);
        groups_tested[mi] += 1;
        // The union of single-bit outcomes is "error" (the SDC bit).
        interference[mi] += usize::from(!outcome.is_error());
    }
    Ok(InterferenceRow {
        workload: workload.name,
        sdc_ace_bits: study.sdc_sites.len(),
        groups_tested,
        interference,
    })
}

/// The single-bit campaign a study builds its groups from.
struct SdcCampaign {
    golden: GoldenShape,
    sampler: SiteSampler,
    /// The campaign's SDC sites, in trial order.
    sdc_sites: Vec<FaultSite>,
}

impl SdcCampaign {
    fn run(workload: &Workload, cfg: &CampaignConfig) -> Result<Self, InjectError> {
        if cfg.mode_bits > 1 {
            return Err(InjectError::BadConfig {
                detail: format!(
                    "the interference study needs a single-bit campaign, not mode_bits = {}",
                    cfg.mode_bits
                ),
            });
        }
        let golden = golden_shape(workload, cfg)?;
        let report = run_campaign_with(workload, cfg, &RunnerConfig::serial(), &golden)?;
        let sampler = SiteSampler::new(&golden.per_wg_retired, golden.num_vregs)?;
        Ok(SdcCampaign { golden, sampler, sdc_sites: report.summary.sdc_sites() })
    }

    /// The SDC sites whose groups a study tests.
    fn tested(&self, max_groups_per_mode: usize) -> &[FaultSite] {
        &self.sdc_sites[..self.sdc_sites.len().min(max_groups_per_mode)]
    }
}

/// Every group a study tests, as `(mode index, mode bits, group)`: per
/// mode, `m` contiguous bits anchored so each site's SDC bit is included
/// ([`FaultSite::injection`] clips at the register edge).
fn groups(sites: &[FaultSite]) -> impl Iterator<Item = (usize, u8, FaultSite)> + '_ {
    MODES.iter().enumerate().flat_map(move |(mi, &m)| {
        sites.iter().map(move |site| (mi, m, FaultSite { bit: site.bit.min(32 - m), ..*site }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Shortcuts;
    use mbavf_workloads::{by_name, Scale};

    #[test]
    fn interference_is_rare() {
        // The paper's central claim for the SDC model: interference occurs
        // in ~0.1% of groups. With a small budget we check it stays rare.
        let w = by_name("transpose").expect("registered");
        let cfg = CampaignConfig {
            seed: 3,
            injections: 40,
            scale: Scale::Test,
            ..CampaignConfig::default()
        };
        let row = interference_study(&w, &cfg, 6);
        assert!(row.sdc_ace_bits > 0, "transpose must have SDC ACE bits");
        assert!(
            row.interference_fraction() < 0.25,
            "interference should be rare, got {}",
            row.interference_fraction()
        );
    }

    #[test]
    fn groups_are_bounded_by_budget() {
        let w = by_name("dct").expect("registered");
        let cfg = CampaignConfig {
            seed: 5,
            injections: 30,
            scale: Scale::Test,
            ..CampaignConfig::default()
        };
        let row = interference_study(&w, &cfg, 3);
        for &g in &row.groups_tested {
            assert!(g <= 3);
        }
    }

    /// The study as it was before it used the union argument: each group's
    /// constituent single bits, then the group, all run in full.
    fn reference_study(w: &Workload, cfg: &CampaignConfig, max: usize) -> InterferenceRow {
        let study = SdcCampaign::run(w, cfg).expect("campaign");
        let mut exec = TrialExecutor::new(w, cfg, &study.golden, &study.sampler, 1);
        let mut groups_tested = [0usize; 3];
        let mut interference = [0usize; 3];
        for (mi, &m) in MODES.iter().enumerate() {
            for site in study.sdc_sites.iter().take(max) {
                let anchor = FaultSite { bit: site.bit.min(32 - m), ..*site };
                let mut any_single_error = false;
                for k in 0..m {
                    let single = FaultSite { bit: anchor.bit + k, ..anchor };
                    let (o, _) = exec.run_site(single, 1);
                    any_single_error |= o.is_error();
                }
                let (multi, _) = exec.run_site(anchor, m);
                groups_tested[mi] += 1;
                if any_single_error != multi.is_error() {
                    interference[mi] += 1;
                }
            }
        }
        assert_eq!(exec.take_shortcuts(), Shortcuts::default(), "run_site ran in full");
        InterferenceRow {
            workload: w.name,
            sdc_ace_bits: study.sdc_sites.len(),
            groups_tested,
            interference,
        }
    }

    /// Injection-suite workloads whose studies at these budgets include
    /// interference groups (histogram and prefix_sum at seed 2) and groups
    /// that rejoin the golden run at a later workgroup boundary (matmul at
    /// seed 1, prefix_sum at seed 2).
    const SUITE: [&str; 4] = ["fast_walsh", "histogram", "prefix_sum", "matmul"];
    /// The workloads the reference comparison covers: the reference runs
    /// every group's single bits in full, and matmul's are the slowest.
    const REFERENCE: [&str; 3] = ["fast_walsh", "histogram", "prefix_sum"];
    const GROUPS: usize = 16;

    fn cfg(seed: u64) -> CampaignConfig {
        CampaignConfig { seed, injections: 50, scale: Scale::Test, ..CampaignConfig::default() }
    }

    #[test]
    fn study_matches_the_single_bit_reference() {
        let (mut tested, mut found) = (0, 0);
        for name in REFERENCE {
            let w = by_name(name).expect("registered");
            for seed in [1, 2] {
                let row = interference_study(&w, &cfg(seed), GROUPS);
                assert_eq!(row, reference_study(&w, &cfg(seed), GROUPS), "{name} seed {seed}");
                tested += row.groups_tested.iter().sum::<usize>();
                found += row.interference.iter().sum::<usize>();
            }
        }
        assert!(tested > 0, "no group was tested");
        assert!(found > 0, "no group showed interference");
    }

    #[test]
    fn shortcut_group_runs_match_full_runs() {
        let mut stopped_early = 0;
        for name in SUITE {
            let w = by_name(name).expect("registered");
            for seed in [1, 2] {
                let cfg = cfg(seed);
                let study = SdcCampaign::run(&w, &cfg).expect("campaign");
                let mut exec = TrialExecutor::new(&w, &cfg, &study.golden, &study.sampler, 1);
                // The SDC sites of the campaign run in full, so a wrong
                // shortcut cannot hide by also steering which sites (and
                // so which groups) the campaign reports.
                let full: Vec<FaultSite> = (0..cfg.injections as u64)
                    .map(|trial| exec.run_trial_in_full(trial).0)
                    .filter(|r| r.outcome == Outcome::Sdc)
                    .map(|r| r.site)
                    .collect();
                for (_, m, group) in groups(&full[..full.len().min(GROUPS)]) {
                    let cut = exec.run_site_shortcut(group, m);
                    assert_eq!(cut, exec.run_site(group, m), "{name} seed {seed} {m}x1 {group:?}");
                }
                assert_eq!(study.sdc_sites, full, "{name} seed {seed}: campaign SDC sites");
                stopped_early += exec.take_shortcuts().stopped_early;
            }
        }
        assert!(stopped_early > 0, "no group run stopped at a golden boundary");
    }
}
