//! The ACE-vs-injection differential validation gate (paper Section VII-A,
//! Table III spirit): does the analytical model agree with fault-injection
//! ground truth, with uncertainty made explicit?
//!
//! Two comparisons run per workload, with different statistical character:
//!
//! 1. **Checked-rate differential (exact).** The golden-run register-use
//!    profile ([`mbavf_sim::profile`]) predicts, for *every individual
//!    fault site*, whether the flipped register would be read before being
//!    overwritten. Until that first read an injected run is bit-identical
//!    to the golden run, so for each non-crashing trial the campaign's
//!    recorded `read_before_overwrite` flag must equal the profile's
//!    answer **exactly** (crashing trials imply the value *was* read).
//!    Any per-site mismatch is a model/injector divergence — never
//!    sampling noise — and is always a confirmed failure. Campaigns settle
//!    the sites the profile calls unread from that same profile without
//!    running them, so the gate re-executes every such site in full and
//!    requires a golden run: completed, golden output, no read. The
//!    two-proportion agreement test quantifies the same signal at the
//!    rate level.
//!
//! 2. **Per-mode SDC comparison (statistical).** For each spatial fault
//!    mode `m`x1, the ACE-model SDC AVF (from the timed run's VGPR
//!    timelines, restricted to the architectural registers injection can
//!    hit) is compared against the injection-measured visible-error rate
//!    with a Wilson interval. The model is the MB-AVF engine itself
//!    ([`mbavf_core::analysis::mb_avf`]) on the injectable-register
//!    layout, with the clipped top window weighted `m` as the campaign's
//!    bit draws weight it ([`mode_model_sdc`]), so the gate checks the
//!    engine that draws the figures. The two measures weight time
//!    differently (model: cycles; injection: dynamic instructions), so
//!    agreement is expected within a multiplicative tolerance band, not
//!    exactly: the verdict is [`Verdict::Agree`] when the interval
//!    intersects the band, [`Verdict::ConfirmedDivergence`] when a
//!    well-resolved interval lies entirely outside it, and
//!    [`Verdict::Inconclusive`] when the trial budget is too small to call.

use crate::pipeline::{try_run_workload, WorkloadData};
use mbavf_core::analysis::{mb_avf, AnalysisConfig};
use mbavf_core::error::PipelineError;
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{BitRef, PhysicalLayout, VgprGeometry, VgprInterleave, VgprLayout};
use mbavf_core::protection::ProtectionKind;
use mbavf_core::stats::{two_proportion_test, wilson, AgreementTest, RateEstimate};
use mbavf_inject::{
    run_campaign, CampaignConfig, FaultSite, Outcome, RunnerConfig, SingleBitRecord,
    DEFAULT_BUNDLE_CAP,
};
use mbavf_sim::interp::Termination;
use mbavf_sim::profile::{profile_golden, RegUseProfile};
use mbavf_sim::TrialArena;
use mbavf_workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Validation-gate parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateConfig {
    /// Problem scale for both the model pipeline and the campaigns.
    pub scale: Scale,
    /// Injection trials per workload per fault mode.
    pub injections: usize,
    /// Campaign seed (the gate is fully deterministic given it).
    pub seed: u64,
    /// Confidence level for every interval and agreement test.
    pub confidence: f64,
    /// Spatial fault-mode widths to compare (bits per fault).
    pub modes: Vec<u8>,
    /// Multiplicative tolerance of the per-mode band: the measured-rate
    /// interval must intersect `[model / tolerance, model * tolerance]`.
    pub tolerance: f64,
    /// Minimum trials before a band miss is *confirmed* rather than
    /// inconclusive.
    pub min_trials_to_confirm: u64,
    /// When set, confirmed divergences write repro bundles here: the
    /// error-outcome trials of any mode campaign whose verdict is a
    /// confirmed divergence, and every trial whose recorded read flag
    /// contradicts the per-site oracle. Bundle-write failures degrade to
    /// warnings — the verdict never depends on the disk.
    pub repro_dir: Option<PathBuf>,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Paper,
            injections: 300,
            seed: 0xACE5,
            confidence: 0.95,
            modes: vec![1, 2, 4],
            tolerance: 5.0,
            min_trials_to_confirm: 50,
            repro_dir: None,
        }
    }
}

/// The outcome of one model-vs-injection comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measurement is consistent with the model.
    Agree,
    /// The measurement misses the model band, but the trial budget is too
    /// small to rule out noise.
    Inconclusive,
    /// The model and the measurement disagree decisively.
    ConfirmedDivergence,
}

impl Verdict {
    /// Stable lowercase name (the machine-readable output format).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Inconclusive => "inconclusive",
            Verdict::ConfirmedDivergence => "confirmed-divergence",
        }
    }

    /// Whether this verdict must fail a CI gate.
    pub fn is_failure(self) -> bool {
        self == Verdict::ConfirmedDivergence
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Verdict for a band comparison: `interval` vs `[model/tol, model*tol]`.
///
/// Exposed so the decision rule itself is unit-testable: intersect → agree,
/// miss with a well-resolved interval → confirmed, miss on a thin sample →
/// inconclusive.
pub fn band_verdict(model: f64, interval: &RateEstimate, tolerance: f64, min_n: u64) -> Verdict {
    let lo = model / tolerance;
    let hi = (model * tolerance).min(1.0);
    if interval.hi >= lo && interval.lo <= hi {
        Verdict::Agree
    } else if interval.n >= min_n {
        Verdict::ConfirmedDivergence
    } else {
        Verdict::Inconclusive
    }
}

/// One fault mode's model-vs-injection row.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Fault width in bits (`m`x1).
    pub mode_bits: u8,
    /// ACE-model SDC AVF for this mode over the architectural registers.
    pub model_sdc: f64,
    /// Injection-measured SDC rate.
    pub sdc: RateEstimate,
    /// Injection-measured visible-error rate (SDC + hang + crash) — the
    /// quantity the unprotected ACE model actually predicts.
    pub error: RateEstimate,
    /// The band comparison's outcome.
    pub verdict: Verdict,
}

/// The exact checked-rate differential for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedRate {
    /// Analytic read-before-overwrite probability over the whole fault
    /// space (from the golden-run profile).
    pub model: f64,
    /// Measured read-before-overwrite rate, with crashing trials counted
    /// as read (a crash is fault propagation, which requires a read).
    pub measured: RateEstimate,
    /// How many of the sampled sites the profile predicts as read.
    pub predicted_hits: u64,
    /// Sites where the campaign record contradicts the profile's per-site
    /// prediction, or the profile calls the site unread but its full
    /// re-execution is not the golden run. **Must be zero**: any mismatch
    /// is a confirmed model or injector bug, not noise.
    pub site_mismatches: u64,
    /// Two-proportion agreement test between the predicted and measured
    /// hit counts over the same trials.
    pub test: AgreementTest,
    /// Combined verdict.
    pub verdict: Verdict,
}

/// Everything the gate concluded about one workload.
#[derive(Debug, Clone)]
pub struct WorkloadVerdict {
    /// Workload name.
    pub workload: &'static str,
    /// The exact checked-rate differential (computed on the 1x1 campaign).
    pub checked: CheckedRate,
    /// One row per fault mode.
    pub modes: Vec<ModeRow>,
    /// Repro bundles written for this workload's confirmed divergences
    /// (empty when nothing diverged or no `repro_dir` was configured).
    pub bundles: Vec<PathBuf>,
}

impl WorkloadVerdict {
    /// The most severe verdict across the checked-rate gate and all modes.
    pub fn worst(&self) -> Verdict {
        let mut worst = self.checked.verdict;
        for row in &self.modes {
            worst = match (worst, row.verdict) {
                (Verdict::ConfirmedDivergence, _) | (_, Verdict::ConfirmedDivergence) => {
                    Verdict::ConfirmedDivergence
                }
                (Verdict::Inconclusive, _) | (_, Verdict::Inconclusive) => Verdict::Inconclusive,
                _ => Verdict::Agree,
            };
        }
        worst
    }
}

/// The full validation report across a set of workloads.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Per-workload verdicts, in input order.
    pub rows: Vec<WorkloadVerdict>,
    /// Workloads that could not be validated (pipeline or campaign
    /// failures), skipped like any other degraded workload.
    pub skipped: Vec<PipelineError>,
    /// The confidence level every interval was computed at.
    pub confidence: f64,
    /// The multiplicative tolerance of the per-mode band.
    pub tolerance: f64,
}

impl ValidationReport {
    /// Whether any workload produced a confirmed divergence — the condition
    /// under which the `validate` binary exits nonzero.
    pub fn confirmed_divergence(&self) -> bool {
        self.rows.iter().any(|r| r.worst().is_failure())
    }

    /// Render the human-readable verdict tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checked-rate differential (exact per-site gate, {:.0}% intervals):",
            self.confidence * 100.0
        );
        let mut t = crate::report::Table::new(&[
            "workload",
            "model",
            "measured",
            "mismatches",
            "p-value",
            "verdict",
        ]);
        for r in &self.rows {
            let c = &r.checked;
            t.row(vec![
                r.workload.into(),
                format!("{:.4}", c.model),
                c.measured.display(4),
                c.site_mismatches.to_string(),
                format!("{:.3}", c.test.p_value),
                c.verdict.to_string(),
            ]);
        }
        out.push_str(&t.render());
        let _ =
            writeln!(out, "\nper-mode SDC, model vs injection (tolerance x{:.1}):", self.tolerance);
        let mut t = crate::report::Table::new(&[
            "workload",
            "mode",
            "model SDC",
            "injected SDC",
            "injected error",
            "n",
            "verdict",
        ]);
        for r in &self.rows {
            for m in &r.modes {
                t.row(vec![
                    r.workload.into(),
                    format!("{}x1", m.mode_bits),
                    format!("{:.4}", m.model_sdc),
                    m.sdc.display(4),
                    m.error.display(4),
                    m.error.n.to_string(),
                    m.verdict.to_string(),
                ]);
            }
        }
        out.push_str(&t.render());
        for e in &self.skipped {
            let _ = writeln!(out, "skipped: {e}");
        }
        out
    }

    /// Serialize the report as a JSON document (machine-readable verdicts
    /// for CI and downstream tooling).
    pub fn to_json(&self) -> String {
        fn rate(out: &mut String, r: &RateEstimate) {
            let _ = write!(
                out,
                "{{\"estimate\":{},\"lo\":{},\"hi\":{},\"n\":{},\"successes\":{}}}",
                r.estimate, r.lo, r.hi, r.n, r.successes
            );
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"confidence\":{},\"tolerance\":{},\"confirmed_divergence\":{},\"workloads\":[",
            self.confidence,
            self.tolerance,
            self.confirmed_divergence()
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"workload\":");
            mbavf_inject::json::write_str(&mut out, r.workload);
            let c = &r.checked;
            let _ = write!(
                out,
                ",\"verdict\":\"{}\",\"checked\":{{\"model\":{},\"measured\":",
                r.worst().as_str(),
                c.model
            );
            rate(&mut out, &c.measured);
            let _ = write!(
                out,
                ",\"predicted_hits\":{},\"site_mismatches\":{},\"z\":{},\"p_value\":{},\"verdict\":\"{}\"}},\"modes\":[",
                c.predicted_hits,
                c.site_mismatches,
                c.test.z,
                c.test.p_value,
                c.verdict.as_str()
            );
            for (j, m) in r.modes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"mode_bits\":{},\"model_sdc\":{},\"sdc\":",
                    m.mode_bits, m.model_sdc
                );
                rate(&mut out, &m.sdc);
                out.push_str(",\"error\":");
                rate(&mut out, &m.error);
                let _ = write!(out, ",\"verdict\":\"{}\"}}", m.verdict.as_str());
            }
            out.push_str("],\"bundles\":[");
            for (j, p) in r.bundles.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                mbavf_inject::json::write_str(&mut out, &p.display().to_string());
            }
            out.push_str("]}");
        }
        out.push_str("],\"skipped\":[");
        for (i, e) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            mbavf_inject::json::write_str(&mut out, &e.to_string());
        }
        out.push_str("]}");
        out
    }
}

/// ACE-model SDC AVF for an `m`x1 fault over the architectural registers —
/// the part of the physical file injection actually samples.
///
/// Mirrors the campaign's fault geometry exactly: the flipped window is `m`
/// contiguous bits at start `lo = min(bit, 32 - m)` for a uniform `bit` in
/// `[0, 32)` (so the top `m` draws clip to the same window, same as
/// [`FaultSite::injection`](mbavf_inject::FaultSite)), and the fault is
/// modeled as SDC when *any* flipped bit is ACE at the fault cycle.
///
/// The model is the MB-AVF engine itself: the unprotected `m`x1 SDC
/// group-cycles of the injectable registers laid out one register per row
/// (`rx1`), plus `m - 1` more copies of the clipped top window's, over
/// `cycles · registers · 32` draws.
pub fn mode_model_sdc(d: &WorkloadData, num_vregs: u32, mode_bits: u8) -> f64 {
    // `byte_index` is register-major, so this layout covers exactly the
    // store's `reg < num_vregs` prefix.
    let geom = VgprGeometry { regs: num_vregs.min(d.vgpr_geom.regs), ..d.vgpr_geom };
    let layout = VgprLayout::new(geom, VgprInterleave::IntraThread(1)).expect("rx1 fits any file");
    let total = d.vgpr.total_cycles();
    if total == 0 || layout.rows() == 0 {
        return 0.0;
    }
    let m = u32::from(mode_bits.min(32)).max(1);
    let mode = FaultMode::mx1(m);
    let cfg = AnalysisConfig::new(ProtectionKind::None);
    let in_store = "the injectable registers lie in the VGPR store";
    let all = mb_avf(&d.vgpr, &layout, &mode, &cfg).expect(in_store).sdc_group_cycles();
    let top = TopColumns { inner: layout, m };
    let top = mb_avf(&d.vgpr, &top, &mode, &cfg).expect(in_store).sdc_group_cycles();
    let draws = u128::from(total) * u128::from(layout.rows()) * u128::from(VgprGeometry::REG_BITS);
    (all + u128::from(m - 1) * top) as f64 / draws as f64
}

/// The top `m` columns of every row of an `rx1` register layout: the window
/// `32 - m ..= 31` of each register, where the campaign clips its top
/// `m - 1` bit draws.
struct TopColumns {
    inner: VgprLayout,
    m: u32,
}

impl PhysicalLayout for TopColumns {
    fn rows(&self) -> u32 {
        self.inner.rows()
    }

    fn cols(&self) -> u32 {
        self.m
    }

    fn bit_at(&self, row: u32, col: u32) -> BitRef {
        self.inner.bit_at(row, self.inner.cols() - self.m + col)
    }
}

/// The checked-rate gate's per-site oracle: the golden run's register-use
/// profile, plus a full-run arena that re-executes each site the profile
/// calls unread. Campaigns settle those sites from the same profile
/// without running them, so comparing their read flags with it alone would
/// pass by construction.
struct SiteOracle {
    prof: RegUseProfile,
    arena: TrialArena,
    /// Golden output bytes.
    golden: Vec<u8>,
    /// The campaigns' hang guard.
    max_steps: u64,
}

impl SiteOracle {
    /// Profile `w`'s golden run at `scale` and build a full-run arena with
    /// the campaigns' default hang guard and out-of-bounds policy.
    fn new(w: &Workload, scale: Scale) -> Self {
        let mut inst = w.build(scale);
        let prof = profile_golden(&inst.program, &mut inst.mem, inst.workgroups);
        let defaults = CampaignConfig::default();
        let max_steps =
            prof.per_wg.iter().map(|wg| wg.retired).max().unwrap_or(1) * defaults.hang_factor;
        let fresh = w.build(scale);
        let arena = TrialArena::new(fresh.program, fresh.mem, fresh.workgroups, defaults.wrap_oob);
        SiteOracle { prof, arena, golden: inst.mem.output_snapshot(), max_steps }
    }

    fn is_read(&self, s: FaultSite) -> bool {
        self.prof.site_is_read(s.wg, s.after_retired, s.reg, s.lane)
    }

    /// Whether one 1x1 campaign record contradicts the oracle — the
    /// checked-rate gate's confirmed-failure condition, record by record.
    /// An unread site must also run, in full, exactly as the golden run.
    fn mismatch(&mut self, r: &SingleBitRecord) -> bool {
        let read = self.is_read(r.site);
        if !read {
            let run = self.arena.run_trial(r.site.injection(1), self.max_steps, &self.golden);
            let golden_run = run.is_ok_and(|t| {
                t.termination == Termination::Completed
                    && t.output_matches
                    && !t.injected_value_read
            });
            if !golden_run {
                return true;
            }
        }
        if matches!(r.outcome, Outcome::Crash { .. }) {
            !read
        } else {
            r.read_before_overwrite != read
        }
    }
}

/// Best-effort repro-bundle emission for a divergent validate campaign.
/// Failures degrade to a warning: the gate's verdict is already decided
/// and must not be masked by a full disk or an unwritable directory.
fn emit_bundles(
    dir: &Path,
    w: &Workload,
    campaign: &CampaignConfig,
    records: &[SingleBitRecord],
    keep: &dyn Fn(&SingleBitRecord) -> bool,
) -> Vec<PathBuf> {
    match mbavf_inject::bundle::write_campaign_bundles(
        dir,
        w,
        campaign,
        records,
        DEFAULT_BUNDLE_CAP,
        keep,
    ) {
        Ok(paths) => {
            if !paths.is_empty() {
                eprintln!(
                    "validate: wrote {} repro bundle(s) for {} ({}x1) to {}",
                    paths.len(),
                    w.name,
                    campaign.mode_bits,
                    dir.display()
                );
            }
            paths
        }
        Err(e) => {
            eprintln!("warning: could not write repro bundles to {}: {e}", dir.display());
            Vec::new()
        }
    }
}

/// The checked-rate differential of one 1x1 campaign, and the trials
/// whose records contradict the oracle (ascending).
fn checked_rate(
    oracle: &mut SiteOracle,
    summary: &mbavf_inject::CampaignSummary,
    confidence: f64,
) -> (CheckedRate, Vec<u64>) {
    let n = summary.records.len() as u64;
    let mut predicted = 0u64;
    let mut measured_k = 0u64;
    let mut mismatched = Vec::new();
    for r in &summary.records {
        predicted += u64::from(oracle.is_read(r.site));
        // The injector loses the watchpoint flag on a crash, but a crash
        // is propagation, which requires a read: count it as read, and
        // the profile must agree.
        let measured_read = matches!(r.outcome, Outcome::Crash { .. }) || r.read_before_overwrite;
        measured_k += u64::from(measured_read);
        if oracle.mismatch(r) {
            mismatched.push(r.trial);
        }
    }
    let mismatches = mismatched.len() as u64;
    let model = oracle.prof.read_before_overwrite_probability();
    let measured = wilson(measured_k, n, confidence);
    let test = two_proportion_test(predicted, n, measured_k, n, confidence);
    let verdict = if mismatches > 0 || !test.agree {
        Verdict::ConfirmedDivergence
    } else if n == 0 || measured.contains(model) {
        Verdict::Agree
    } else {
        // Per-site agreement holds, so an interval miss on the whole-space
        // probability is sampling fluctuation (expected ~5% of the time).
        Verdict::Inconclusive
    };
    let rate = CheckedRate {
        model,
        measured,
        predicted_hits: predicted,
        site_mismatches: mismatches,
        test,
        verdict,
    };
    (rate, mismatched)
}

/// Run the full gate for one workload.
///
/// # Errors
///
/// Any [`PipelineError`] from the measurement pipeline (including the
/// double-golden integrity check), or [`PipelineError::Inject`] if a
/// campaign fails.
pub fn validate_workload(
    w: &Workload,
    cfg: &ValidateConfig,
) -> Result<WorkloadVerdict, PipelineError> {
    let data = try_run_workload(w, cfg.scale)?;

    let mut oracle = SiteOracle::new(w, cfg.scale);

    // The checked-rate gate needs a 1x1 campaign; run one after the
    // requested modes if they do not include it (the read flag is
    // mode-independent, but 1x1 is the canonical space).
    let mut runs = cfg.modes.clone();
    if !runs.iter().any(|&m| m <= 1) {
        runs.push(1);
    }
    let mut checked = None;
    let mut modes = Vec::with_capacity(cfg.modes.len());
    let mut bundles: Vec<PathBuf> = Vec::new();
    for (i, &m) in runs.iter().enumerate() {
        let campaign = CampaignConfig {
            seed: cfg.seed,
            injections: cfg.injections,
            scale: cfg.scale,
            mode_bits: m,
            ..CampaignConfig::default()
        };
        let report = run_campaign(w, &campaign, &RunnerConfig::default())
            .map_err(|source| PipelineError::Inject { workload: w.name.to_string(), source })?;
        if m <= 1 {
            let (c, mismatched) = checked_rate(&mut oracle, &report.summary, cfg.confidence);
            if let Some(dir) = cfg.repro_dir.as_deref() {
                if c.site_mismatches > 0 {
                    bundles.extend(emit_bundles(
                        dir,
                        w,
                        &campaign,
                        &report.summary.records,
                        &|r| mismatched.binary_search(&r.trial).is_ok(),
                    ));
                }
            }
            checked = Some(c);
        }
        if i >= cfg.modes.len() {
            continue; // the added 1x1 campaign: no mode row
        }
        let stats = report.summary.stats(cfg.confidence);
        let model_sdc = mode_model_sdc(&data, u32::from(oracle.prof.num_vregs), m);
        let verdict =
            band_verdict(model_sdc, &stats.error, cfg.tolerance, cfg.min_trials_to_confirm);
        if let Some(dir) = cfg.repro_dir.as_deref() {
            if verdict.is_failure() {
                bundles.extend(emit_bundles(dir, w, &campaign, &report.summary.records, &|r| {
                    r.outcome.is_error()
                }));
            }
        }
        modes.push(ModeRow {
            mode_bits: m,
            model_sdc,
            sdc: stats.sdc,
            error: stats.error,
            verdict,
        });
    }
    let checked = checked.expect("the runs hold a 1x1 campaign");
    // The writer dedups per (kind, trial) across calls, so the same path
    // can come back from several mode campaigns; report each file once.
    bundles.sort();
    bundles.dedup();
    Ok(WorkloadVerdict { workload: w.name, checked, modes, bundles })
}

/// Run the gate over several workloads, degrading gracefully: a workload
/// that fails to validate is reported in `skipped`, not fatal.
pub fn validate_suite(workloads: &[Workload], cfg: &ValidateConfig) -> ValidationReport {
    let results = crate::par_map(workloads.to_vec(), |w| validate_workload(&w, cfg));
    let mut report = ValidationReport {
        rows: Vec::new(),
        skipped: Vec::new(),
        confidence: cfg.confidence,
        tolerance: cfg.tolerance,
    };
    for r in results {
        match r {
            Ok(v) => report.rows.push(v),
            Err(e) => report.skipped.push(e),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_core::layout::CacheGeometry;
    use mbavf_core::timeline::{Cycle, Interval, TimelineStore};
    use mbavf_workloads::{by_name, nondet_drill};

    fn quick_cfg() -> ValidateConfig {
        ValidateConfig {
            scale: Scale::Test,
            injections: 80,
            seed: 0x7E57,
            modes: vec![1, 2],
            ..ValidateConfig::default()
        }
    }

    #[test]
    fn band_verdict_decision_rule() {
        let tight = wilson(50, 100, 0.95); // ~[0.40, 0.60]
        assert_eq!(band_verdict(0.5, &tight, 5.0, 50), Verdict::Agree);
        // Interval far below the band with plenty of trials: confirmed.
        let low = wilson(0, 400, 0.95);
        assert_eq!(band_verdict(0.5, &low, 2.0, 50), Verdict::ConfirmedDivergence);
        // Same miss on a thin sample: inconclusive.
        let thin = wilson(0, 10, 0.95);
        assert_eq!(band_verdict(0.9, &thin, 1.05, 50), Verdict::Inconclusive);
        // Band edges are inclusive-ish: touching counts as agreement.
        let r = wilson(20, 100, 0.95);
        assert_eq!(band_verdict(r.hi * 5.0, &r, 5.0, 50), Verdict::Agree);
    }

    /// The gate's model before it ran on the MB-AVF engine: a per-bit
    /// union of ACE intervals over every clipped window. Kept as the
    /// reference `mode_model_sdc` must match.
    fn reference_model_sdc(d: &WorkloadData, num_vregs: u32, mode_bits: u8) -> f64 {
        let geom = d.vgpr_geom;
        let total = d.vgpr.total_cycles();
        let regs = num_vregs.min(geom.regs);
        if total == 0 || regs == 0 {
            return 0.0;
        }
        let m = u32::from(mode_bits.min(32)).max(1);
        let mut acc = 0.0f64;
        for thread in 0..geom.threads {
            for reg in 0..regs {
                // Per-bit ACE interval lists for the register's 32 bits.
                let mut per_bit: Vec<Vec<(Cycle, Cycle)>> = vec![Vec::new(); 32];
                for byte in 0..4u32 {
                    let tl = d.vgpr.byte(geom.byte_index(thread, reg, byte) as usize);
                    for iv in tl.intervals() {
                        for bit in 0..8u32 {
                            if iv.ace_mask & (1 << bit) != 0 {
                                per_bit[(byte * 8 + bit) as usize].push((iv.start, iv.end));
                            }
                        }
                    }
                }
                // Weighted windows: draws `bit <= 32 - m` map to themselves,
                // the top `m - 1` draws clip onto `32 - m`.
                for lo in 0..=(32 - m) {
                    let weight = if lo == 32 - m { m } else { 1 };
                    let len = union_len(&per_bit[lo as usize..(lo + m) as usize]);
                    acc += f64::from(weight) * (len as f64 / total as f64);
                }
            }
        }
        acc / (f64::from(geom.threads) * f64::from(regs) * 32.0)
    }

    /// Total length of the union of several sorted interval lists.
    fn union_len(lists: &[Vec<(Cycle, Cycle)>]) -> Cycle {
        let mut all: Vec<(Cycle, Cycle)> = lists.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut len = 0;
        let mut cur: Option<(Cycle, Cycle)> = None;
        for (s, e) in all {
            match &mut cur {
                Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
                _ => {
                    if let Some((cs, ce)) = cur {
                        len += ce - cs;
                    }
                    cur = Some((s, e));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            len += ce - cs;
        }
        len
    }

    fn num_vregs(w: &Workload) -> u32 {
        u32::from(w.build(Scale::Test).program.num_vregs())
    }

    #[test]
    fn engine_model_matches_the_interval_union_reference() {
        for name in ["dct", "fast_walsh", "minife", "pathfinder"] {
            let w = by_name(name).expect("registered");
            let d = try_run_workload(&w, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
            let nv = num_vregs(&w);
            for m in [1u8, 2, 4, 32] {
                let engine = mode_model_sdc(&d, nv, m);
                let reference = reference_model_sdc(&d, nv, m);
                assert!(reference > 0.0, "{name} {m}x1: reference model is zero");
                let rel = (engine - reference).abs() / reference;
                assert!(rel <= 1e-12, "{name} {m}x1: engine {engine} vs reference {reference}");
            }
        }
    }

    #[test]
    fn clipped_top_window_counts_m_times() {
        // Two threads of three registers; only bit 31 of thread 1's
        // register 1 is ACE, for `len` cycles. Of the 4x1 windows only the
        // top one (bits 28..32) covers it, and four draws clip onto it.
        let geom = VgprGeometry { threads: 2, regs: 3 };
        let (total, len) = (100u64, 40u64);
        let mut vgpr = TimelineStore::new((geom.instances() * 4) as usize, total);
        let ace = Interval { start: 10, end: 10 + len, ace_mask: 0x80, checked: false };
        vgpr.byte_mut(geom.byte_index(1, 1, 3) as usize).push(ace).unwrap();
        let empty = CacheGeometry { sets: 1, ways: 1, line_bytes: 1 };
        let d = WorkloadData {
            name: "hand-built",
            l1: TimelineStore::new(1, total),
            l1_geom: empty,
            l2: TimelineStore::new(1, total),
            l2_geom: empty,
            vgpr,
            vgpr_geom: geom,
            cycles: total,
            retired: 0,
            live_fraction: 0.0,
        };
        // Only registers 0 and 1 are injectable: 2 threads x 2 registers.
        let den = u128::from(total) * 2 * 2 * 32;
        assert_eq!(mode_model_sdc(&d, 2, 4), (4 * u128::from(len)) as f64 / den as f64);
        assert_eq!(mode_model_sdc(&d, 2, 1), u128::from(len) as f64 / den as f64);
        // Register 1 lies outside a one-register prefix.
        assert_eq!(mode_model_sdc(&d, 1, 4), 0.0);
    }

    #[test]
    fn checked_rate_does_not_depend_on_the_requested_modes() {
        let w = by_name("fast_walsh").expect("registered");
        let with_1x1 = validate_workload(&w, &quick_cfg()).unwrap_or_else(|e| panic!("{e}"));
        let cfg = ValidateConfig { modes: vec![2], ..quick_cfg() };
        let without = validate_workload(&w, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(without.checked, with_1x1.checked);
        let rows: Vec<u8> = without.modes.iter().map(|r| r.mode_bits).collect();
        assert_eq!(rows, [2], "the added 1x1 campaign has no mode row");
    }

    #[test]
    fn union_len_merges_overlaps() {
        assert_eq!(union_len(&[vec![(0, 10)], vec![(5, 15)]]), 15);
        assert_eq!(union_len(&[vec![(0, 2), (8, 10)], vec![(4, 6)]]), 6);
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[vec![]]), 0);
    }

    #[test]
    fn gate_passes_on_healthy_workloads() {
        for name in ["dct", "fast_walsh"] {
            let w = by_name(name).expect("registered");
            let v = validate_workload(&w, &quick_cfg()).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                v.checked.site_mismatches, 0,
                "{name}: the per-site oracle must match the injector exactly"
            );
            assert!(v.checked.test.agree, "{name}: rate-level agreement test failed");
            assert!(v.checked.model > 0.0, "{name}: model found no read windows");
            assert!(
                !v.worst().is_failure(),
                "{name}: healthy workload reported divergence: {:?}",
                v
            );
            assert_eq!(v.modes.len(), 2);
            for m in &v.modes {
                assert!(m.model_sdc > 0.0, "{name} {}x1: model SDC is zero", m.mode_bits);
            }
        }
    }

    #[test]
    fn wider_modes_do_not_shrink_the_model() {
        // P(any of m bits ACE) is monotone in m for nested windows; clipped
        // windows keep the monotonicity since every 1-bit window is a
        // subset of some m-bit window's union coverage per draw.
        let w = by_name("dct").expect("registered");
        let d = try_run_workload(&w, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        let nv = num_vregs(&w);
        let m1 = mode_model_sdc(&d, nv, 1);
        let m2 = mode_model_sdc(&d, nv, 2);
        let m32 = mode_model_sdc(&d, nv, 32);
        // Allow float summation-order noise on the comparisons.
        let eps = 1e-9;
        assert!(m1 > 0.0);
        assert!(m2 >= m1 - eps, "2x1 model {m2} below 1x1 {m1}");
        assert!(m32 >= m2 - eps, "32x1 model {m32} below 2x1 {m2}");
        assert!(m32 <= 1.0);
    }

    #[test]
    fn confirmed_divergence_lists_bundle_paths_in_json() {
        let dir = std::env::temp_dir().join("mbavf-validate-bundles");
        std::fs::remove_dir_all(&dir).ok();
        // A degenerate tolerance band (`[model * 1e300, ~0]`) that no
        // interval can intersect forces every mode to a confirmed
        // divergence, deterministically, without needing a real model bug.
        let cfg = ValidateConfig {
            tolerance: 1e-300,
            min_trials_to_confirm: 1,
            repro_dir: Some(dir.clone()),
            ..quick_cfg()
        };
        let w = by_name("fast_walsh").expect("registered");
        let v = validate_workload(&w, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert!(v.worst().is_failure(), "degenerate band must confirm a divergence");
        assert!(!v.bundles.is_empty(), "confirmed divergence must write repro bundles");
        let mut sorted = v.bundles.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(v.bundles, sorted, "bundle paths must be sorted and deduped");
        for p in &v.bundles {
            assert!(p.is_file(), "listed bundle missing on disk: {}", p.display());
        }

        let report = ValidationReport {
            rows: vec![v.clone()],
            skipped: Vec::new(),
            confidence: cfg.confidence,
            tolerance: cfg.tolerance,
        };
        let json = mbavf_inject::json::parse(&report.to_json()).expect("valid JSON");
        let rows = json.get("workloads").and_then(|val| val.as_arr()).unwrap();
        let listed = rows[0].get("bundles").and_then(|val| val.as_arr()).unwrap();
        let listed: Vec<&str> = listed.iter().filter_map(|val| val.as_str()).collect();
        let expect: Vec<String> = v.bundles.iter().map(|p| p.display().to_string()).collect();
        assert_eq!(listed, expect, "--json must list every divergence bundle path");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_serializes_and_degrades() {
        let report = validate_suite(&[by_name("dct").unwrap(), nondet_drill()], &quick_cfg());
        assert_eq!(report.rows.len(), 1, "the drill must be skipped, not validated");
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].workload(), "nondet_drill");
        assert!(!report.confirmed_divergence());

        let rendered = report.render();
        assert!(rendered.contains("dct"));
        assert!(rendered.contains("nondeterministic"));

        let json = mbavf_inject::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(json.get("confirmed_divergence").and_then(|v| v.as_bool()), Some(false));
        let rows = json.get("workloads").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("workload").and_then(|v| v.as_str()), Some("dct"));
        let modes = rows[0].get("modes").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(modes.len(), 2);
        assert!(modes[0].get("sdc").and_then(|v| v.get("lo")).is_some());
        // A healthy workload with no repro_dir still carries the (empty)
        // bundle list so consumers can rely on the key being present.
        assert_eq!(rows[0].get("bundles").and_then(|v| v.as_arr()).map(<[_]>::len), Some(0));
        assert_eq!(json.get("skipped").and_then(|v| v.as_arr()).map(<[_]>::len), Some(1));
    }
}
