//! Deterministic single-trial replay of repro bundles.
//!
//! Replay is the forensic half of the campaign engine: a bundle written by
//! [`crate::bundle`] names one fault, and this module re-executes exactly
//! that trial and reports whether the recorded outcome reproduces. Before a
//! single instruction runs, three gates must pass, each with a typed
//! refusal:
//!
//! 1. the workload must exist in this build
//!    ([`BundleError::UnknownWorkload`]);
//! 2. the fingerprint recomputed from the bundle's own embedded
//!    configuration must equal the recorded one
//!    ([`BundleError::FingerprintMismatch`]) — catching both file
//!    corruption and a fingerprint-scheme change;
//! 3. this build's golden output digest must equal the recorded one
//!    ([`BundleError::GoldenMismatch`]) — a workload whose golden output
//!    drifted would silently reclassify every outcome.
//!
//! [`find_divergence`] goes one level deeper: it runs the golden and the
//! faulty execution of the injected workgroup in lockstep — both through
//! the shared [`mbavf_sim::exec::step`] the timing and functional models
//! use — and reports the first architectural-state delta (registers,
//! masks, pc, or memory) after the flip, i.e. the exact instruction where
//! the fault escaped the register file.

use crate::bundle::ReproBundle;
use crate::campaign::{
    golden_shape, CampaignConfig, FaultSite, GoldenShape, Outcome, SiteSampler, TrialExecutor,
};
use crate::checkpoint::config_fingerprint;
use mbavf_core::error::{BundleError, InjectError};
use mbavf_core::rng::fnv1a;
use mbavf_sim::exec::{step, NullPorts, StepCtx, Wavefront};
use mbavf_sim::isa::Inst;
use mbavf_sim::isolate::catch_crash;
use mbavf_sim::{Memory, Program};
use mbavf_workloads::{by_name, Workload};
use std::cell::Cell;
use std::path::Path;

/// Result of replaying one bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Outcome observed by this replay.
    pub observed: Outcome,
    /// Whether the flipped register was read before overwrite this time.
    pub read_before_overwrite: bool,
    /// Whether the observed outcome kind matches the recorded one.
    pub reproduced: bool,
}

/// Load the bundle at `path` (schema validation only; see
/// [`crate::bundle::load`]).
pub fn load_bundle(path: &Path) -> Result<ReproBundle, BundleError> {
    crate::bundle::load(path)
}

/// Resolve a bundle against this build: find the workload, verify the
/// fingerprint and golden digest, and bounds-check the fault site.
fn prepare(b: &ReproBundle) -> Result<(Workload, CampaignConfig, GoldenShape), InjectError> {
    let w = by_name(&b.workload)
        .ok_or_else(|| BundleError::UnknownWorkload { name: b.workload.clone() })?;
    let cfg = b.campaign_config();
    let expected = config_fingerprint(w.name, &cfg);
    if expected != b.config_fingerprint {
        return Err(
            BundleError::FingerprintMismatch { expected, found: b.config_fingerprint }.into()
        );
    }
    let golden = golden_shape(&w, &cfg)?;
    let digest = fnv1a(&golden.output);
    if digest != b.golden_digest {
        return Err(BundleError::GoldenMismatch { expected: b.golden_digest, found: digest }.into());
    }
    if b.site.wg as usize >= golden.per_wg_retired.len() {
        return Err(BundleError::SiteOutOfRange {
            detail: format!(
                "wg {} but {} launches {} workgroup(s)",
                b.site.wg,
                w.name,
                golden.per_wg_retired.len()
            ),
        }
        .into());
    }
    if b.site.reg >= golden.num_vregs {
        return Err(BundleError::SiteOutOfRange {
            detail: format!(
                "reg {} but {} uses {} vector register(s)",
                b.site.reg, w.name, golden.num_vregs
            ),
        }
        .into());
    }
    Ok((w, cfg, golden))
}

/// Re-execute the single trial a bundle records and compare outcome kinds.
///
/// Deterministic: the same bundle on the same build always produces the
/// same report. The crash *reason* is not compared — panic messages carry
/// source locations that legitimately move across refactors — only the
/// outcome kind is.
pub fn replay_bundle(b: &ReproBundle) -> Result<ReplayReport, InjectError> {
    replay_site(b, b.site, b.mode_bits)
}

/// Replay a bundle's trial at an explicit (site, width) — the entry point
/// the shrinker uses to confirm minimized faults against the same golden
/// reference the original outcome was classified with.
pub fn replay_site(
    b: &ReproBundle,
    site: FaultSite,
    mode_bits: u8,
) -> Result<ReplayReport, InjectError> {
    let (w, cfg, golden) = prepare(b)?;
    let sampler = SiteSampler::new(&golden.per_wg_retired, golden.num_vregs)?;
    let mut exec = TrialExecutor::new(&w, &cfg, &golden, &sampler, 1);
    let (observed, read) = exec.run_site(site, mode_bits.clamp(1, 32));
    let reproduced = observed.kind() == b.outcome.kind();
    Ok(ReplayReport { observed, read_before_overwrite: read, reproduced })
}

/// The first architectural-state difference between the golden and the
/// faulty execution, beyond the injected register itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Workgroup in which the divergence appeared (always the injected
    /// one: register state dies at workgroup end, and memory deltas are
    /// detected the step they happen).
    pub wg: u32,
    /// Instructions the faulty wavefront had retired when the divergent
    /// instruction executed.
    pub after_retired: u64,
    /// Program counter of the divergent instruction (faulty side).
    pub pc: u32,
    /// Which piece of state diverged first, human-readable.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wg {} pc {} after {} retired: {}",
            self.wg, self.pc, self.after_retired, self.detail
        )
    }
}

/// Which memory bytes [`state_delta`] compares after a lockstep step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemScan {
    /// None: neither side stored, so memory is as equal as it was.
    Skip,
    /// The pages either image wrote since the lockstep began, ascending.
    Dirty,
    /// Every byte: the reference the other two must agree with.
    Full,
}

/// Compare golden vs. faulty state after one lockstep step. `skip` is the
/// injected (reg, lane): that cell differs by construction until the fault
/// is overwritten, and reporting it would bury the interesting delta.
fn state_delta(
    g: &Wavefront,
    f: &Wavefront,
    gmem: &Memory,
    fmem: &Memory,
    scan: MemScan,
    skip: Option<(u8, u8)>,
) -> Option<String> {
    if g.done != f.done {
        return Some(format!("termination: golden done={}, faulty done={}", g.done, f.done));
    }
    if g.pc != f.pc {
        return Some(format!("control flow: golden pc={}, faulty pc={}", g.pc, f.pc));
    }
    if g.exec != f.exec {
        return Some(format!("exec mask: {:#018x} vs {:#018x}", g.exec, f.exec));
    }
    if g.vcc != f.vcc {
        return Some(format!("vcc: {:#018x} vs {:#018x}", g.vcc, f.vcc));
    }
    if g.scc != f.scc {
        return Some(format!("scc: {} vs {}", g.scc, f.scc));
    }
    for (i, (a, b)) in g.sregs.iter().zip(f.sregs.iter()).enumerate() {
        if a != b {
            return Some(format!("s{i}: {a:#x} vs {b:#x}"));
        }
    }
    for (r, (ra, rb)) in g.vregs.iter().zip(f.vregs.iter()).enumerate() {
        for (lane, (a, b)) in ra.iter().zip(rb.iter()).enumerate() {
            if a != b && skip != Some((r as u8, lane as u8)) {
                return Some(format!("v{r} lane {lane}: {a:#x} vs {b:#x}"));
            }
        }
    }
    let (gb, fb) = (gmem.bytes(), fmem.bytes());
    let first = match scan {
        MemScan::Skip => None,
        MemScan::Dirty => gmem.first_difference(fmem),
        MemScan::Full if gb == fb => None,
        MemScan::Full => gb.iter().zip(fb).position(|(a, b)| a != b),
    };
    first.map(|i| format!("memory byte {i:#x}: {:#04x} vs {:#04x}", gb[i], fb[i]))
}

/// Run the bundle's workload twice — fault-free and with the recorded
/// injection — in per-instruction lockstep, and return the first
/// architectural-state delta, or `None` if the fault never escapes the
/// injected register (a masked trial).
///
/// A fault that crashes the interpreter is reported as a divergence at the
/// crashing instruction; a fault that hangs is reported when the faulty
/// side exceeds the campaign's step budget.
pub fn find_divergence(b: &ReproBundle) -> Result<Option<Divergence>, InjectError> {
    trace_lockstep(b, false)
}

/// [`find_divergence`]'s lockstep. Memory changes only at a store, so
/// after each step it compares memory only if either side stored, and then
/// only the pages either image wrote since the lockstep began; with
/// `full_scan` it compares every byte after every step instead.
fn trace_lockstep(b: &ReproBundle, full_scan: bool) -> Result<Option<Divergence>, InjectError> {
    let (w, cfg, golden) = prepare(b)?;
    let site = b.site;
    let inj = site.injection(b.mode_bits.clamp(1, 32));
    // Where the faulty side was just before each step, so a crash can be
    // attributed to the instruction that raised it.
    let progress = Cell::new((0u64, 0u32));
    let traced = catch_crash(|| {
        let mut gi = w.build(cfg.scale);
        let mut fi = w.build(cfg.scale);
        fi.mem.set_wrap_oob(cfg.wrap_oob);
        let gp = gi.program.clone();
        let fp = fi.program.clone();
        let wgs = gi.workgroups;
        // Workgroups before the injected one run identically on both
        // sides; execute them at full speed with no comparisons.
        for wg in 0..site.wg {
            for (program, inst) in [(&gp, &mut gi), (&fp, &mut fi)] {
                let mut wf = Wavefront::launch(program, wg, 0, wgs);
                while !wf.done {
                    let mut ctx =
                        StepCtx { mem: &mut inst.mem, trace: None, ports: &mut NullPorts, now: 0 };
                    step(&mut wf, program, &mut ctx);
                }
            }
        }
        // Lockstep the injected workgroup. Register state dies at
        // workgroup end and memory is compared after every store, so if no
        // delta surfaces here, none ever will: later workgroups are
        // identical. The images are equal here, so from now on every
        // difference lies on a page one of them writes.
        gi.mem.clear_dirty();
        fi.mem.clear_dirty();
        let stores = |program: &Program, wf: &Wavefront| {
            !wf.done && matches!(program.inst(wf.pc as usize), Inst::VStore { .. })
        };
        let mut wf_g = Wavefront::launch(&gp, site.wg, 0, wgs);
        let mut wf_f = Wavefront::launch(&fp, site.wg, 0, wgs);
        let mut injected = false;
        while !wf_g.done || !wf_f.done {
            if !injected && site.after_retired <= wf_f.retired && !wf_f.done {
                wf_f.flip_bits(site.reg, site.lane as usize, inj.bits);
                injected = true;
            }
            let at = (wf_f.retired, wf_f.pc);
            progress.set(at);
            let scan = match (full_scan, stores(&gp, &wf_g) || stores(&fp, &wf_f)) {
                (true, _) => MemScan::Full,
                (false, true) => MemScan::Dirty,
                (false, false) => MemScan::Skip,
            };
            if !wf_g.done {
                let mut ctx =
                    StepCtx { mem: &mut gi.mem, trace: None, ports: &mut NullPorts, now: 0 };
                step(&mut wf_g, &gp, &mut ctx);
            }
            if !wf_f.done {
                let mut ctx =
                    StepCtx { mem: &mut fi.mem, trace: None, ports: &mut NullPorts, now: 0 };
                step(&mut wf_f, &fp, &mut ctx);
            }
            let skip = (injected && site.wg == wf_f.wf_id).then_some((site.reg, site.lane));
            if let Some(detail) = state_delta(&wf_g, &wf_f, &gi.mem, &fi.mem, scan, skip) {
                return Some(Divergence { wg: site.wg, after_retired: at.0, pc: at.1, detail });
            }
            if wf_f.retired >= golden.max_steps {
                return Some(Divergence {
                    wg: site.wg,
                    after_retired: at.0,
                    pc: at.1,
                    detail: format!("hang: faulty side exceeded step budget {}", golden.max_steps),
                });
            }
        }
        None
    });
    match traced {
        Ok(d) => Ok(d),
        Err(reason) => {
            let (after_retired, pc) = progress.get();
            Ok(Some(Divergence {
                wg: site.wg,
                after_retired,
                pc,
                detail: format!("crash: {reason}"),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::BundleWriter;
    use crate::campaign::{single_bit_campaign, OutcomeKind, SingleBitRecord};
    use std::path::PathBuf;

    fn campaign_bundles(dir_name: &str, cfg: &CampaignConfig) -> Vec<PathBuf> {
        let w = by_name("fast_walsh").expect("registered");
        let summary = single_bit_campaign(&w, cfg);
        let golden = golden_shape(&w, cfg).unwrap();
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::remove_dir_all(&dir).ok();
        let writer = BundleWriter {
            dir: &dir,
            workload: w.name,
            cfg,
            fingerprint: config_fingerprint(w.name, cfg),
            golden_digest: fnv1a(&golden.output),
            cap: 4,
        };
        writer.write(&summary.records, &|r| r.outcome.is_error()).unwrap()
    }

    #[test]
    fn every_emitted_bundle_reproduces() {
        let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };
        let paths = campaign_bundles("mbavf-replay-repro", &cfg);
        assert!(!paths.is_empty(), "campaign must emit at least one bundle");
        for p in &paths {
            let b = load_bundle(p).unwrap();
            let report = replay_bundle(&b).unwrap();
            assert!(report.reproduced, "{}: {:?} != {:?}", p.display(), report.observed, b.outcome);
        }
        std::fs::remove_dir_all(paths[0].parent().unwrap()).ok();
    }

    #[test]
    fn replay_refuses_tampered_bundles_with_typed_errors() {
        let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };
        let paths = campaign_bundles("mbavf-replay-refuse", &cfg);
        let b = load_bundle(&paths[0]).unwrap();

        let mut wrong_print = b.clone();
        wrong_print.config_fingerprint ^= 1;
        assert!(matches!(
            replay_bundle(&wrong_print),
            Err(InjectError::Bundle(BundleError::FingerprintMismatch { .. }))
        ));
        // A tampered seed changes the recomputed fingerprint, so it is
        // caught by the same gate even though the field itself is "valid".
        let mut wrong_seed = b.clone();
        wrong_seed.seed ^= 1;
        assert!(matches!(
            replay_bundle(&wrong_seed),
            Err(InjectError::Bundle(BundleError::FingerprintMismatch { .. }))
        ));
        let mut wrong_digest = b.clone();
        wrong_digest.golden_digest ^= 1;
        assert!(matches!(
            replay_bundle(&wrong_digest),
            Err(InjectError::Bundle(BundleError::GoldenMismatch { .. }))
        ));
        let mut ghost = b.clone();
        ghost.workload = "no_such_workload".into();
        assert!(matches!(
            replay_bundle(&ghost),
            Err(InjectError::Bundle(BundleError::UnknownWorkload { .. }))
        ));
        let mut wild_site = b.clone();
        wild_site.site.reg = 200;
        assert!(matches!(
            replay_bundle(&wild_site),
            Err(InjectError::Bundle(BundleError::SiteOutOfRange { .. }))
        ));
        std::fs::remove_dir_all(paths[0].parent().unwrap()).ok();
    }

    #[test]
    fn divergence_trace_finds_the_escape_point() {
        let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };
        let paths = campaign_bundles("mbavf-replay-diverge", &cfg);
        let sdc = paths
            .iter()
            .map(|p| load_bundle(p).unwrap())
            .find(|b| b.outcome == Outcome::Sdc)
            .expect("campaign must find an SDC");
        let d = find_divergence(&sdc).unwrap().expect("an SDC must diverge");
        assert_eq!(d.wg, sdc.site.wg);
        assert!(d.after_retired >= sdc.site.after_retired);
        assert!(!d.detail.is_empty());
        assert!(!d.to_string().is_empty());
        // Deterministic: tracing twice finds the identical point.
        assert_eq!(find_divergence(&sdc).unwrap(), Some(d));
        std::fs::remove_dir_all(paths[0].parent().unwrap()).ok();
    }

    /// The bundle a campaign over `w` would write for `r`.
    fn bundle_of(w: &Workload, cfg: &CampaignConfig, r: &SingleBitRecord) -> ReproBundle {
        let golden = golden_shape(w, cfg).unwrap();
        ReproBundle {
            workload: w.name.to_string(),
            config_fingerprint: config_fingerprint(w.name, cfg),
            seed: cfg.seed,
            scale: cfg.scale,
            hang_factor: cfg.hang_factor,
            wrap_oob: cfg.wrap_oob,
            mode_bits: cfg.mode_bits,
            trial: r.trial,
            site: r.site,
            outcome: r.outcome.clone(),
            read_before_overwrite: r.read_before_overwrite,
            golden_digest: fnv1a(&golden.output),
            minimized: None,
        }
    }

    #[test]
    fn masked_fault_has_no_divergence() {
        // Build a bundle for a site the campaign classified as masked and
        // check the tracer agrees nothing escaped.
        let w = by_name("fast_walsh").expect("registered");
        let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };
        let summary = single_bit_campaign(&w, &cfg);
        let masked = summary
            .records
            .iter()
            .find(|r| r.outcome == Outcome::Masked && !r.read_before_overwrite)
            .expect("campaign must mask some faults");
        let b = bundle_of(&w, &cfg, masked);
        assert!(replay_bundle(&b).unwrap().reproduced);
        assert_eq!(find_divergence(&b).unwrap(), None);
    }

    /// Comparing memory only after stores, and only on written pages,
    /// finds the same first delta as comparing every byte after every
    /// step, on masked and corrupted trials alike.
    #[test]
    fn store_scoped_memory_compare_matches_full_compare() {
        let w = by_name("fast_walsh").expect("registered");
        let cfg =
            CampaignConfig { seed: 7, injections: 24, mode_bits: 2, ..CampaignConfig::default() };
        let summary = single_bit_campaign(&w, &cfg);
        let (mut memory_deltas, mut kinds) = (0, std::collections::HashSet::new());
        for r in &summary.records {
            let b = bundle_of(&w, &cfg, r);
            let want = trace_lockstep(&b, true).unwrap();
            assert_eq!(find_divergence(&b).unwrap(), want, "trial {}", r.trial);
            memory_deltas += usize::from(want.is_some_and(|d| d.detail.starts_with("memory")));
            kinds.insert(r.outcome.kind());
        }
        assert!(kinds.contains(&OutcomeKind::Sdc) && kinds.contains(&OutcomeKind::Masked));
        assert!(memory_deltas > 0, "no trial diverged first in memory");
    }
}
