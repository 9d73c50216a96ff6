//! Single- and multi-bit fault-injection campaigns over workload instances.
//!
//! The outcome taxonomy follows what real injectors (and the related
//! undervolted-SRAM injection literature) observe: a fault is **masked**,
//! causes **SDC**, **hangs** the program, or **crashes** it. Crash here
//! means the fault drove the interpreter itself into a panic — a corrupted
//! address or allocation size tripping an assert or out-of-bounds access —
//! and the harness records it as data rather than dying with it.

use mbavf_core::error::InjectError;
use mbavf_core::rng::{fnv1a, SplitMix64};
use mbavf_core::stats::{wilson, RateEstimate};
use mbavf_sim::interp::{run_golden, InterpError, Termination};
use mbavf_sim::profile::{profile_golden, RegUseProfile};
use mbavf_workloads::{Scale, Workload};
use std::ops::RangeInclusive;
use std::time::Instant;

/// Where and when a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// Target wavefront (workgroup).
    pub wg: u32,
    /// Dynamic point: inject before the wavefront's `after_retired`-th
    /// instruction retires.
    pub after_retired: u64,
    /// Target vector register.
    pub reg: u8,
    /// Target lane.
    pub lane: u8,
    /// First flipped bit within the register.
    pub bit: u8,
}

impl FaultSite {
    /// The [`Injection`](mbavf_sim::interp::Injection) flipping `m`
    /// contiguous bits starting at `bit` (clipped to the 32-bit register;
    /// `m >= 32` flips the whole register).
    pub fn injection(&self, m: u8) -> mbavf_sim::interp::Injection {
        // Clamp before subtracting: `32 - m` underflows u8 for m > 32.
        let m = m.min(32);
        let lo = self.bit.min(32 - m);
        let mask = if m == 32 { u32::MAX } else { ((1u32 << m) - 1) << lo };
        mbavf_sim::interp::Injection {
            wg: self.wg,
            after_retired: self.after_retired,
            reg: self.reg,
            lane: self.lane,
            bits: mask,
        }
    }
}

/// Identifier of the fault-site sampling scheme this build implements,
/// recorded in repro bundles so replay can refuse trials whose
/// `(seed, trial)` pair maps to a different site under a different scheme.
///
/// `"v2"` is the residency-weighted sampler: one draw uniform over *total
/// retired instructions*, mapped to `(wg, after_retired)` through a
/// prefix-sum table. The retired v1 scheme drew the workgroup uniformly
/// over workgroups first, over-sampling low-retirement workgroups per
/// retired instruction.
pub const SAMPLER_ID: &str = "v2";

/// Residency-weighted fault-site sampler (scheme [`SAMPLER_ID`]).
///
/// Statistical fault injection estimates per-bit vulnerability, so sites
/// must be drawn uniformly over *bit residency* — every retired dynamic
/// instruction equally likely, whichever wavefront retires it. The sampler
/// folds the golden run's `per_wg_retired` into an inclusive prefix-sum
/// table once, then maps a single draw in `[0, total_retired)` to
/// `(wg, after_retired)` by binary search. Wavefronts that retire nothing
/// are never sampled: no residency, no fault.
///
/// Each trial's draws still come from the trial's own SplitMix stream, so a
/// site depends only on `(seed, trial)` and the golden shape — never on
/// which thread executes the trial or in what order — which is what keeps
/// parallel campaigns bit-identical to serial ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSampler {
    /// `cumulative[i]` = total instructions retired by wavefronts `0..=i`.
    cumulative: Vec<u64>,
    num_vregs: u8,
}

impl SiteSampler {
    /// Build the prefix-sum table over the golden run's per-wavefront
    /// retirement counts.
    ///
    /// Returns [`InjectError::EmptySampleSpace`] when `per_wg_retired` is
    /// empty or all-zero — there is no residency to sample — and
    /// [`InjectError::BadConfig`] if the total overflows `u64` (not
    /// reachable from a real golden run).
    pub fn new(per_wg_retired: &[u64], num_vregs: u8) -> Result<Self, InjectError> {
        let mut cumulative = Vec::with_capacity(per_wg_retired.len());
        let mut total: u64 = 0;
        for (wg, &n) in per_wg_retired.iter().enumerate() {
            total = total.checked_add(n).ok_or_else(|| InjectError::BadConfig {
                detail: format!("retired-instruction total overflows u64 at wavefront {wg}"),
            })?;
            cumulative.push(total);
        }
        if total == 0 {
            return Err(InjectError::EmptySampleSpace {
                detail: format!(
                    "golden run retired 0 instructions across {} wavefront(s)",
                    per_wg_retired.len()
                ),
            });
        }
        Ok(Self { cumulative, num_vregs: num_vregs.max(1) })
    }

    /// Total instructions retired across all wavefronts (the sample space).
    pub fn total_retired(&self) -> u64 {
        *self.cumulative.last().expect("nonempty by construction")
    }

    /// Sample the site for `trial` of the campaign seeded with `seed`.
    pub fn sample(&self, seed: u64, trial: u64) -> FaultSite {
        let mut rng = SplitMix64::stream(seed, trial);
        let g = rng.below(self.total_retired());
        let wg = self.cumulative.partition_point(|&c| c <= g);
        let before = if wg == 0 { 0 } else { self.cumulative[wg - 1] };
        FaultSite {
            wg: wg as u32,
            after_retired: g - before,
            reg: rng.below(u64::from(self.num_vregs)) as u8,
            lane: rng.below(64) as u8,
            bit: rng.below(32) as u8,
        }
    }
}

/// The architectural outcome of an injected fault (no protection assumed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Program output identical to the golden run.
    Masked,
    /// Output differs: silent data corruption.
    Sdc,
    /// The run exceeded its step budget (fault-induced hang).
    Hang,
    /// The fault crashed the simulated program (interpreter panic caught
    /// and recorded by the trial-isolation layer).
    Crash {
        /// Captured panic message and location.
        reason: String,
    },
}

impl Outcome {
    /// Whether the fault produced a visible error (SDC, hang, or crash).
    pub fn is_error(&self) -> bool {
        !matches!(self, Outcome::Masked)
    }

    /// The outcome class without crash details (for counting and
    /// serialization).
    pub fn kind(&self) -> OutcomeKind {
        match self {
            Outcome::Masked => OutcomeKind::Masked,
            Outcome::Sdc => OutcomeKind::Sdc,
            Outcome::Hang => OutcomeKind::Hang,
            Outcome::Crash { .. } => OutcomeKind::Crash,
        }
    }
}

/// The four outcome classes, detail-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// No visible effect.
    Masked,
    /// Silent data corruption.
    Sdc,
    /// Step budget exceeded.
    Hang,
    /// Program crash.
    Crash,
}

impl OutcomeKind {
    /// Every outcome class, in taxonomy order (the order counters and
    /// heartbeat lines report).
    pub const ALL: [OutcomeKind; 4] =
        [OutcomeKind::Masked, OutcomeKind::Sdc, OutcomeKind::Hang, OutcomeKind::Crash];

    /// Position of this class in [`Self::ALL`] (a stable dense index for
    /// per-kind counter arrays).
    pub fn index(self) -> usize {
        match self {
            OutcomeKind::Masked => 0,
            OutcomeKind::Sdc => 1,
            OutcomeKind::Hang => 2,
            OutcomeKind::Crash => 3,
        }
    }

    /// Stable lowercase name (the checkpoint wire format).
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeKind::Masked => "masked",
            OutcomeKind::Sdc => "sdc",
            OutcomeKind::Hang => "hang",
            OutcomeKind::Crash => "crash",
        }
    }

    /// Parse [`Self::as_str`] output.
    pub fn parse(s: &str) -> Option<OutcomeKind> {
        match s {
            "masked" => Some(OutcomeKind::Masked),
            "sdc" => Some(OutcomeKind::Sdc),
            "hang" => Some(OutcomeKind::Hang),
            "crash" => Some(OutcomeKind::Crash),
            _ => None,
        }
    }
}

/// One single-bit injection and its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleBitRecord {
    /// Campaign trial index (position in the seed's trial sequence; also
    /// the checkpoint resume key).
    pub trial: u64,
    /// The fault.
    pub site: FaultSite,
    /// What happened.
    pub outcome: Outcome,
    /// Whether the flipped register was read before being overwritten — the
    /// detection opportunity a per-register parity/ECC check would use.
    pub read_before_overwrite: bool,
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
    /// Number of single-bit injections (the paper uses 5000 per workload).
    pub injections: usize,
    /// Problem scale for the workload instances.
    pub scale: Scale,
    /// Hang guard: a run is declared hung after
    /// `hang_factor × golden-instructions` retire in one wavefront.
    pub hang_factor: u64,
    /// Whether out-of-bounds device accesses wrap around (the paper's
    /// model: a wild access on a real GPU touches *some* flat address)
    /// instead of crashing the simulated program. Set `false` to model a
    /// strict memory system where wild accesses fault — corrupted address
    /// registers then surface as [`Outcome::Crash`].
    pub wrap_oob: bool,
    /// Spatial fault-mode width: each trial flips this many contiguous bits
    /// (clipped at the register edge; `1` is the classic single-bit
    /// campaign, larger values model the paper's 1xM multi-bit modes).
    pub mode_bits: u8,
}

impl CampaignConfig {
    /// The fault-mode widths a campaign accepts: one bit up to a whole
    /// 32-bit register. The CLIs, hello frames and repro bundles share it.
    pub const MODE_BITS: RangeInclusive<u64> = 1..=32;

    /// The hang factors a campaign accepts: a guard of zero golden runs
    /// would declare every trial hung.
    pub const HANG_FACTORS: RangeInclusive<u64> = 1..=u64::MAX;
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0xACE5,
            injections: 500,
            scale: Scale::Test,
            hang_factor: 8,
            wrap_oob: true,
            mode_bits: 1,
        }
    }
}

/// Outcome shares of a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fractions {
    /// Share of masked outcomes.
    pub masked: f64,
    /// Share of SDC outcomes.
    pub sdc: f64,
    /// Share of hangs.
    pub hang: f64,
    /// Share of crashes.
    pub crash: f64,
}

/// Per-outcome rate estimates with confidence intervals — the statistical
/// view of a campaign that [`Fractions`] (bare point estimates) lacks.
///
/// All intervals are Wilson score intervals at the same confidence level;
/// an empty campaign yields the vacuous estimate (point 0, interval
/// `[0, 1]`) for every outcome rather than NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignStats {
    /// Trials in the campaign.
    pub n: u64,
    /// Masked rate.
    pub masked: RateEstimate,
    /// SDC rate — the quantity adaptive sizing drives to precision.
    pub sdc: RateEstimate,
    /// Hang rate.
    pub hang: RateEstimate,
    /// Crash rate.
    pub crash: RateEstimate,
    /// Any-visible-error rate (SDC + hang + crash).
    pub error: RateEstimate,
    /// Read-before-overwrite rate (the injection-measured "checked" rate
    /// the ACE model must agree with).
    pub read: RateEstimate,
}

/// Aggregate campaign results.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Workload name.
    pub workload: &'static str,
    /// Every injection performed, in trial order.
    pub records: Vec<SingleBitRecord>,
    /// Durable-write failures the run survived (failed snapshot
    /// compactions, journal appends/resets). Nonzero means checkpoint
    /// durability was degraded for part of the run; the records themselves
    /// are unaffected.
    pub durable_write_failures: u64,
    /// Records re-executed locally by the trust audit (`--audit RATE`).
    /// The audited set is a pure function of `(seed, trial)`, so this count
    /// is worker-count- and endpoint-invariant. Zero when auditing is off
    /// (including all thread-mode runs).
    pub audited: u64,
    /// Audited records whose local re-execution disagreed with the worker.
    /// Each divergence was resolved in the local record's favor, so the
    /// [`records`](Self::records) themselves are unaffected by the lies.
    pub audit_divergences: u64,
    /// Worker records the merge rejected for contradicting already
    /// committed state — each charged to its endpoint's trust ledger.
    pub merge_conflicts: u64,
    /// Endpoints quarantined by the trust ledger (audit divergences or
    /// merge conflicts past `--max-audit-failures`), sorted. Their shards
    /// were re-leased to surviving endpoints.
    pub quarantined_endpoints: Vec<String>,
}

impl CampaignSummary {
    /// Injections that caused SDC.
    pub fn sdc_sites(&self) -> Vec<FaultSite> {
        self.records.iter().filter(|r| r.outcome == Outcome::Sdc).map(|r| r.site).collect()
    }

    /// Number of records with the given outcome class.
    pub fn count(&self, kind: OutcomeKind) -> usize {
        self.records.iter().filter(|r| r.outcome.kind() == kind).count()
    }

    /// Fraction of injections with each outcome.
    pub fn fractions(&self) -> Fractions {
        let n = self.records.len().max(1) as f64;
        Fractions {
            masked: self.count(OutcomeKind::Masked) as f64 / n,
            sdc: self.count(OutcomeKind::Sdc) as f64 / n,
            hang: self.count(OutcomeKind::Hang) as f64 / n,
            crash: self.count(OutcomeKind::Crash) as f64 / n,
        }
    }

    /// Fraction of injections whose register was read before overwrite
    /// (the AVF-model "checked" rate, measured by injection).
    pub fn read_fraction(&self) -> f64 {
        let n = self.records.len().max(1) as f64;
        self.records.iter().filter(|r| r.read_before_overwrite).count() as f64 / n
    }

    /// Per-outcome rates with Wilson confidence intervals at `confidence`
    /// (e.g. `0.95`). The statistical counterpart of [`Self::fractions`]:
    /// a 5000-trial rate and a 50-trial rate stop printing identically.
    pub fn stats(&self, confidence: f64) -> CampaignStats {
        let n = self.records.len() as u64;
        let k = |kind| self.count(kind) as u64;
        let sdc = k(OutcomeKind::Sdc);
        let hang = k(OutcomeKind::Hang);
        let crash = k(OutcomeKind::Crash);
        let read = self.records.iter().filter(|r| r.read_before_overwrite).count() as u64;
        CampaignStats {
            n,
            masked: wilson(k(OutcomeKind::Masked), n, confidence),
            sdc: wilson(sdc, n, confidence),
            hang: wilson(hang, n, confidence),
            crash: wilson(crash, n, confidence),
            error: wilson(sdc + hang + crash, n, confidence),
            read: wilson(read, n, confidence),
        }
    }
}

/// The one trial-execution core: samples a trial's fault site, runs the
/// faulty kernel, and classifies it against the golden run. Every injection
/// the crate performs goes through it — thread workers, `__serve` daemon
/// leases, the supervisor's audit re-execution, bundle replay, and the
/// Table II interference groups — so they all agree byte for byte.
///
/// It borrows the campaign's config, [`GoldenShape`] and [`SiteSampler`]
/// and owns the engine: a [`TrialArena`](mbavf_sim::TrialArena) at width 1,
/// a lockstep [`TrialBatch`](mbavf_sim::TrialBatch) at width W, both with
/// bit-identical verdicts.
///
/// [`run_unit`](Self::run_unit) and
/// [`run_site_shortcut`](Self::run_site_shortcut) settle each injection with
/// the least execution the golden run proves it needs (see
/// [`GoldenShape::shortcuts_exact`]); campaign trials and Table II's group
/// runs take them. [`run_site`](Self::run_site) and
/// [`run_trial_in_full`](Self::run_trial_in_full) always run the whole
/// kernel, so audits, bundle replay and Table II's replay of each SDC site
/// check those shortcuts rather than repeat them.
pub(crate) struct TrialExecutor<'g> {
    cfg: &'g CampaignConfig,
    golden: &'g GoldenShape,
    sampler: &'g SiteSampler,
    engine: Engine,
    /// Whether the golden run makes the shortcuts exact
    /// ([`GoldenShape::shortcuts_exact`]).
    exact: bool,
    /// The current unit's records and wall-clocks, reused across units.
    unit: Vec<(SingleBitRecord, u64)>,
    /// Injections `run_unit` and `run_site_shortcut` cut short since the
    /// last [`take_shortcuts`](Self::take_shortcuts).
    shortcuts: Shortcuts,
}

/// How many trials the executor settled without running the whole kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shortcuts {
    /// Trials whose fault the golden profile proves is never read: settled
    /// as masked, unread, without executing anything.
    pub settled: u64,
    /// Read trials that stopped at a workgroup boundary where their memory
    /// image rejoined the golden run's.
    pub stopped_early: u64,
}

enum Engine {
    Arena(Box<mbavf_sim::TrialArena>),
    Batch { batch: Box<mbavf_sim::TrialBatch>, injections: Vec<mbavf_sim::Injection> },
}

impl<'g> TrialExecutor<'g> {
    /// Build the engine over a fresh instance of `workload` at the
    /// campaign's scale and out-of-bounds policy: the sequential arena at
    /// `width` 1 (or 0), the lockstep batch above it.
    pub(crate) fn new(
        workload: &Workload,
        cfg: &'g CampaignConfig,
        golden: &'g GoldenShape,
        sampler: &'g SiteSampler,
        width: usize,
    ) -> Self {
        let inst = workload.build(cfg.scale);
        let (program, mem, wgs, wrap) = (inst.program, inst.mem, inst.workgroups, cfg.wrap_oob);
        let engine = if width > 1 {
            let batch = mbavf_sim::TrialBatch::new(program, mem, wgs, wrap, width);
            Engine::Batch { batch: Box::new(batch), injections: Vec::with_capacity(width) }
        } else {
            Engine::Arena(Box::new(mbavf_sim::TrialArena::new(program, mem, wgs, wrap)))
        };
        let unit = Vec::with_capacity(width.max(1));
        let exact = golden.shortcuts_exact();
        TrialExecutor { cfg, golden, sampler, engine, exact, unit, shortcuts: Shortcuts::default() }
    }

    /// The shortcut counts since the last call, resetting them.
    pub(crate) fn take_shortcuts(&mut self) -> Shortcuts {
        std::mem::take(&mut self.shortcuts)
    }

    /// Trials one [`run_unit`](Self::run_unit) call takes: 1 at width 1,
    /// the lockstep width W above it.
    pub(crate) fn width(&self) -> usize {
        match &self.engine {
            Engine::Arena(_) => 1,
            Engine::Batch { batch, .. } => batch.width(),
        }
    }

    /// Sample, execute and classify one unit of `trials` (at most
    /// [`width`](Self::width) of them at width W; any number at width 1,
    /// run one after another), returning each record with its wall-clock in
    /// microseconds, in the order given. A lockstep batch's span is
    /// apportioned over the trials it ran by [`per_trial_latency_us`].
    ///
    /// When the golden run makes them exact, two shortcuts apply: a trial
    /// whose fault is never read is settled from the profile without
    /// running (at width W it never joins the batch), and at width 1 each
    /// trial goes through [`run_site_shortcut`](Self::run_site_shortcut),
    /// so a read trial runs only from its fault's workgroup to the first
    /// boundary where its memory rejoins the golden run. The records are
    /// those of full runs.
    pub(crate) fn run_unit(
        &mut self,
        trials: &[u64],
    ) -> std::vec::Drain<'_, (SingleBitRecord, u64)> {
        let (cfg, golden, sampler) = (self.cfg, self.golden, self.sampler);
        // Each record starts as what an unread fault yields; the engine
        // below classifies the trials the profile cannot settle.
        let sampled = |trial| {
            let site = sampler.sample(cfg.seed, trial);
            SingleBitRecord { trial, site, outcome: Outcome::Masked, read_before_overwrite: false }
        };
        let mut unit = std::mem::take(&mut self.unit);
        unit.clear();
        unit.extend(trials.iter().map(|&trial| (sampled(trial), 0)));
        let m = cfg.mode_bits.max(1);
        if let Engine::Batch { batch, injections } = &mut self.engine {
            let settled = |site: &FaultSite| settled_unread(self.exact, golden, site);
            injections.clear();
            for (record, _) in &unit {
                if settled(&record.site) {
                    self.shortcuts.settled += 1;
                } else {
                    injections.push(record.site.injection(m));
                }
            }
            if !injections.is_empty() {
                let t0 = Instant::now();
                let results = batch.run_batch(injections, golden.max_steps, &golden.output);
                let span_us = t0.elapsed().as_micros() as u64;
                let n = injections.len();
                let ran = unit.iter_mut().filter(|(r, _)| !settled(&r.site));
                for (k, ((record, us), result)) in ran.zip(results).enumerate() {
                    (record.outcome, record.read_before_overwrite) = classify_trial(result);
                    *us = per_trial_latency_us(span_us, n, k);
                }
            }
        } else {
            for (record, us) in &mut unit {
                let t0 = Instant::now();
                (record.outcome, record.read_before_overwrite) =
                    self.run_site_shortcut(record.site, m);
                *us = t0.elapsed().as_micros() as u64;
            }
        }
        self.unit = unit;
        self.unit.drain(..)
    }

    /// [`run_site`](Self::run_site) with the golden-run shortcuts, when
    /// they are exact: a fault the profile proves is never read is settled
    /// as masked and unread without running, and a read fault runs from its
    /// workgroup's golden boundary image to the first later boundary where
    /// its memory rejoins the golden run. The verdict is that of the full
    /// run. Campaign trials at width 1 ([`run_unit`](Self::run_unit)) and
    /// the Table II group runs take this path; the lockstep batch has no
    /// boundary stop, so under it this is [`run_site`](Self::run_site).
    ///
    /// # Panics
    ///
    /// As [`run_site`](Self::run_site), for an out-of-range `site`.
    pub(crate) fn run_site_shortcut(&mut self, site: FaultSite, m: u8) -> (Outcome, bool) {
        let golden = self.golden;
        let Engine::Arena(arena) = &mut self.engine else { return self.run_site(site, m) };
        if settled_unread(self.exact, golden, &site) {
            self.shortcuts.settled += 1;
            return (Outcome::Masked, false);
        }
        let (inj, steps, output) = (site.injection(m), golden.max_steps, &golden.output);
        classify_trial(if self.exact {
            let images = golden.profile.boundary_images();
            arena.run_trial_from_boundary(inj, steps, output, images).map(|(result, stopped)| {
                self.shortcuts.stopped_early += u64::from(stopped);
                result
            })
        } else {
            arena.run_trial(inj, steps, output)
        })
    }

    /// Run one injection of `m` contiguous bits at an explicit `site` and
    /// classify it: the outcome and whether the flipped register was read
    /// before being overwritten.
    ///
    /// Always runs the whole kernel from workgroup 0, never a shortcut.
    ///
    /// # Panics
    ///
    /// Panics if `site` targets a register, lane, or workgroup that does
    /// not exist in the workload (samplers draw sites in range; passing an
    /// out-of-range site is a caller bug, not a fault outcome).
    pub(crate) fn run_site(&mut self, site: FaultSite, m: u8) -> (Outcome, bool) {
        let (inj, golden) = (site.injection(m), self.golden);
        classify_trial(match &mut self.engine {
            Engine::Arena(arena) => arena.run_trial(inj, golden.max_steps, &golden.output),
            Engine::Batch { batch, .. } => {
                let mut results = batch.run_batch(&[inj], golden.max_steps, &golden.output);
                results.pop().expect("one injection, one result")
            }
        })
    }

    /// Campaign trial `trial` run in full through [`run_site`](Self::run_site)
    /// — the record [`run_unit`](Self::run_unit) must produce for it — with
    /// its wall-clock in microseconds. The supervisor's audit uses this,
    /// so a wrong shortcut on a worker shows up as a divergence.
    pub(crate) fn run_trial_in_full(&mut self, trial: u64) -> (SingleBitRecord, u64) {
        let t0 = Instant::now();
        let site = self.sampler.sample(self.cfg.seed, trial);
        let (outcome, read_before_overwrite) = self.run_site(site, self.cfg.mode_bits.max(1));
        let record = SingleBitRecord { trial, site, outcome, read_before_overwrite };
        (record, t0.elapsed().as_micros() as u64)
    }
}

/// Whether the golden profile settles `site` without a run: the shortcuts
/// are `exact` and the faulty (register, lane) is never read.
fn settled_unread(exact: bool, golden: &GoldenShape, site: &FaultSite) -> bool {
    exact && !golden.profile.site_is_read(site.wg, site.after_retired, site.reg, site.lane)
}

/// Attribute one batch's wall-clock span to its `n` trials: trial `k` gets
/// `span / n` microseconds, with the first `span % n` trials carrying one
/// extra so the attributed latencies sum exactly to the span. Without this,
/// a width-W batch would book its whole span W times — inflating latency
/// percentiles by ~W and corrupting the heartbeat's trials/sec-derived ETA.
fn per_trial_latency_us(span_us: u64, n: usize, k: usize) -> u64 {
    debug_assert!(k < n, "trial index {k} outside batch of {n}");
    let n = n as u64;
    span_us / n + u64::from((k as u64) < span_us % n)
}

/// Classify one trial result with the campaign's decision order: hang
/// first, then output comparison; crashes become data; out-of-range sites
/// are a sampler bug and panic.
fn classify_trial(result: Result<mbavf_sim::TrialResult, InterpError>) -> (Outcome, bool) {
    match result {
        Ok(run) => {
            let outcome = if run.termination == Termination::Hang {
                Outcome::Hang
            } else if run.output_matches {
                Outcome::Masked
            } else {
                Outcome::Sdc
            };
            (outcome, run.injected_value_read)
        }
        Err(InterpError::Crash { reason }) => (Outcome::Crash { reason }, false),
        Err(e @ InterpError::BadInjection(_)) => {
            panic!("campaign sampled an out-of-range site: {e}")
        }
        Err(e) => panic!("unexpected interpreter error: {e}"),
    }
}

/// Run a seeded single-bit campaign serially: `cfg.injections` uniform
/// random faults over (wavefront, dynamic time, register, lane, bit).
///
/// This is the one-thread, no-checkpoint convenience wrapper around
/// [`run_campaign`](crate::runner::run_campaign); both produce bit-identical
/// summaries for the same config.
///
/// # Panics
///
/// Panics if the fault-free golden run of the workload fails — without a
/// golden output no trial can be classified. Use
/// [`run_campaign`](crate::runner::run_campaign) for a typed error instead.
pub fn single_bit_campaign(workload: &Workload, cfg: &CampaignConfig) -> CampaignSummary {
    crate::runner::run_campaign(workload, cfg, &crate::runner::RunnerConfig::serial())
        .unwrap_or_else(|e| panic!("campaign over {} failed: {e}", workload.name))
        .summary
}

/// The golden-run shape a campaign samples against.
pub(crate) struct GoldenShape {
    /// Golden output bytes.
    pub output: Vec<u8>,
    /// Instructions retired per wavefront.
    pub per_wg_retired: Vec<u64>,
    /// Step budget for injected runs.
    pub max_steps: u64,
    /// Register-file size.
    pub num_vregs: u8,
    /// Register-use profile and workgroup-boundary images of the golden
    /// run: the executor's oracle for trial shortcuts.
    pub profile: RegUseProfile,
}

impl GoldenShape {
    /// Whether the golden run proves the executor's shortcuts exact: no
    /// golden workgroup reaches the hang guard. Then a trial that runs the
    /// golden code for its unread fault, or for the workgroups its fault
    /// cannot reach, completes them exactly as the golden run did. (Only a
    /// `hang_factor` below 2 can break this.)
    pub(crate) fn shortcuts_exact(&self) -> bool {
        self.per_wg_retired.iter().all(|&retired| retired < self.max_steps)
    }
}

/// Run the fault-free golden pass **twice** (from two independently built
/// instances) and capture everything trial sampling needs. Crash-isolated:
/// a panicking golden run becomes [`InjectError::GoldenRunFailed`].
///
/// The double run is the campaign's integrity gate: every Masked/SDC
/// verdict is a diff against the golden output, so a workload whose build
/// or execution is nondeterministic would silently poison the whole
/// campaign. If the two runs disagree — in output bytes or in retirement
/// shape — the campaign refuses to start. The second run is the profiling
/// one ([`profile_golden`], functionally identical to [`run_golden`]), so
/// the register-use profile costs no third run.
pub(crate) fn golden_shape(
    workload: &Workload,
    cfg: &CampaignConfig,
) -> Result<GoldenShape, InjectError> {
    let failed =
        |detail| InjectError::GoldenRunFailed { workload: workload.name.to_string(), detail };
    // Neither run reads provenance, so both run on untracked images.
    let first = mbavf_sim::isolate::catch_crash(|| {
        let inst = workload.build(cfg.scale);
        run_golden(&inst.program, &mut inst.mem.into_untracked(), inst.workgroups)
    })
    .map_err(failed)?;
    let (output, profile) = mbavf_sim::isolate::catch_crash(|| {
        let inst = workload.build(cfg.scale);
        let mut mem = inst.mem.into_untracked();
        let profile = profile_golden(&inst.program, &mut mem, inst.workgroups);
        (mem.output_snapshot(), profile)
    })
    .map_err(failed)?;
    let per_wg_retired: Vec<u64> = profile.per_wg.iter().map(|wg| wg.retired).collect();
    let digest_a = fnv1a(&first.output);
    let digest_b = fnv1a(&output);
    if digest_a != digest_b || first.per_wg_retired != per_wg_retired {
        return Err(failed(format!(
            "nondeterministic golden run (output digests {digest_a:#018x} vs {digest_b:#018x}); \
             injection outcomes cannot be classified against an unstable reference"
        )));
    }
    let max_steps = per_wg_retired.iter().copied().max().unwrap_or(1) * cfg.hang_factor;
    Ok(GoldenShape {
        output: first.output,
        per_wg_retired,
        max_steps,
        num_vregs: profile.num_vregs,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_workloads::by_name;

    fn quick_cfg(n: usize) -> CampaignConfig {
        CampaignConfig { seed: 7, injections: n, ..CampaignConfig::default() }
    }

    #[test]
    fn fault_site_masks() {
        let s = FaultSite { wg: 0, after_retired: 0, reg: 3, lane: 2, bit: 5 };
        assert_eq!(s.injection(1).bits, 1 << 5);
        assert_eq!(s.injection(3).bits, 0b111 << 5);
        // Clipping near the top of the register.
        let hi = FaultSite { bit: 31, ..s };
        assert_eq!(hi.injection(4).bits, 0b1111 << 28);
    }

    #[test]
    fn oversized_mode_flips_whole_register() {
        // Regression: `32 - m` underflowed u8 for m > 32 and panicked in
        // debug builds; the width must clamp to the register instead.
        let s = FaultSite { wg: 0, after_retired: 0, reg: 1, lane: 0, bit: 9 };
        assert_eq!(s.injection(32).bits, u32::MAX);
        assert_eq!(s.injection(33).bits, u32::MAX);
        assert_eq!(s.injection(u8::MAX).bits, u32::MAX);
    }

    #[test]
    fn sampled_sites_are_in_range() {
        let per_wg = [5u64, 9, 0, 40];
        let sampler = SiteSampler::new(&per_wg, 17).expect("nonzero residency");
        assert_eq!(sampler.total_retired(), 54);
        for trial in 0..200 {
            let s = sampler.sample(0xBEEF, trial);
            assert!((s.wg as usize) < per_wg.len());
            assert!(s.after_retired < per_wg[s.wg as usize], "{s:?}");
            assert_ne!(s.wg, 2, "zero-residency wavefronts must never be sampled");
            assert!(s.reg < 17);
            assert!(s.lane < 64);
            assert!(s.bit < 32);
        }
    }

    #[test]
    fn sampler_covers_the_whole_residency_space() {
        // Every (wg, after_retired) pair with nonzero residency must be
        // reachable: walk the prefix-sum mapping directly over a tiny space.
        let per_wg = [2u64, 1, 3];
        let sampler = SiteSampler::new(&per_wg, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for trial in 0..4000u64 {
            let s = sampler.sample(42, trial);
            seen.insert((s.wg, s.after_retired));
        }
        let expected: std::collections::HashSet<_> = per_wg
            .iter()
            .enumerate()
            .flat_map(|(wg, &n)| (0..n).map(move |t| (wg as u32, t)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn sampler_refuses_empty_sample_space() {
        for per_wg in [&[] as &[u64], &[0, 0, 0]] {
            match SiteSampler::new(per_wg, 8) {
                Err(InjectError::EmptySampleSpace { detail }) => {
                    assert!(detail.contains("retired 0 instructions"), "{detail}");
                }
                other => panic!("expected EmptySampleSpace, got {other:?}"),
            }
        }
    }

    #[test]
    fn sampler_weights_wavefronts_by_retirement() {
        // The tentpole property, at the unit level: per-wavefront hit counts
        // must track retirement weights, not be uniform over wavefronts.
        // wg 0 retires 100x what each of the other three retire; under the
        // biased v1 scheme it would receive ~25% of sites, under v2 ~97%.
        let per_wg = [5000u64, 50, 50, 50];
        let total: u64 = per_wg.iter().sum();
        let sampler = SiteSampler::new(&per_wg, 8).unwrap();
        let n = 20_000u64;
        let mut hits = [0u64; 4];
        for trial in 0..n {
            hits[sampler.sample(0xD15E, trial).wg as usize] += 1;
        }
        for (wg, (&h, &w)) in hits.iter().zip(per_wg.iter()).enumerate() {
            let observed = h as f64 / n as f64;
            let expected = w as f64 / total as f64;
            // Binomial std-dev at n=20k is < 0.004 for every weight here;
            // a 0.02 absolute band is > 5 sigma yet rejects the uniform
            // draw (off by ~0.72 for wg 0) by orders of magnitude.
            assert!(
                (observed - expected).abs() < 0.02,
                "wg {wg}: observed share {observed:.4}, expected {expected:.4}"
            );
        }
    }

    /// The executor's calls agree: for every sampled trial, the per-unit
    /// call at width 1 and at width 8 — with their golden-run shortcuts —
    /// and `run_site` on the lockstep engine yield the record `run_site`
    /// produces on that trial's site at width 1, running the whole kernel.
    /// Histogram with wrapping off covers crash outcomes; transpose and
    /// fast_walsh have many workgroup boundaries to stop at; pathfinder's
    /// divergent EXEC masks make the profile's lane bits matter.
    #[test]
    fn executor_units_match_run_site_at_every_width() {
        let mut crashes = 0;
        let mut cut = Shortcuts::default();
        for name in ["histogram", "dct", "fast_walsh", "transpose", "pathfinder"] {
            let w = by_name(name).expect("registered");
            for (wrap_oob, m) in [true, false].into_iter().flat_map(|o| [1, 2, 4].map(|m| (o, m))) {
                // Few of pathfinder's sites sit before a divergent access.
                let n = if name == "pathfinder" { 160 } else { 24 };
                let cfg = CampaignConfig { wrap_oob, mode_bits: m, ..quick_cfg(n) };
                let golden = golden_shape(&w, &cfg).unwrap();
                assert!(golden.shortcuts_exact());
                let sampler = SiteSampler::new(&golden.per_wg_retired, golden.num_vregs).unwrap();
                let trials: Vec<u64> = (0..cfg.injections as u64).collect();
                let mut single = TrialExecutor::new(&w, &cfg, &golden, &sampler, 1);
                let expect: Vec<SingleBitRecord> = trials
                    .iter()
                    .map(|&trial| {
                        let site = sampler.sample(cfg.seed, trial);
                        let (outcome, read_before_overwrite) = single.run_site(site, m);
                        SingleBitRecord { trial, site, outcome, read_before_overwrite }
                    })
                    .collect();
                assert_eq!(single.take_shortcuts(), Shortcuts::default(), "run_site ran in full");
                crashes += expect.iter().filter(|r| r.outcome.kind() == OutcomeKind::Crash).count();
                for width in [1, 8] {
                    let at = format!("{name} wrap_oob={wrap_oob} m={m} width={width}");
                    let mut exec = TrialExecutor::new(&w, &cfg, &golden, &sampler, width);
                    assert_eq!(exec.width(), width);
                    let mut got = Vec::new();
                    for unit in trials.chunks(width) {
                        got.extend(exec.run_unit(unit).map(|(record, _)| record));
                    }
                    assert_eq!(got, expect, "{at}");
                    let counts = exec.take_shortcuts();
                    cut.settled += counts.settled;
                    cut.stopped_early += counts.stopped_early;
                    if width > 1 {
                        assert_eq!(counts.stopped_early, 0, "{at}: the batch runs in full");
                    }
                    for r in &expect {
                        let run = exec.run_site(r.site, m);
                        assert_eq!(run, (r.outcome.clone(), r.read_before_overwrite), "{at}");
                    }
                }
            }
        }
        assert!(crashes > 0, "no crash outcome exercised the executor");
        assert!(cut.settled > 0, "no trial was settled from the profile");
        assert!(cut.stopped_early > 0, "no trial stopped at a golden boundary");
    }

    /// A hang guard the golden run itself reaches (`hang_factor` 1) makes
    /// the shortcuts inexact, so the executor runs every trial in full.
    #[test]
    fn shortcuts_stay_off_when_the_golden_run_hits_the_hang_guard() {
        let w = by_name("fast_walsh").expect("registered");
        let cfg = CampaignConfig { hang_factor: 1, ..quick_cfg(16) };
        let golden = golden_shape(&w, &cfg).unwrap();
        assert!(!golden.shortcuts_exact());
        let sampler = SiteSampler::new(&golden.per_wg_retired, golden.num_vregs).unwrap();
        let mut exec = TrialExecutor::new(&w, &cfg, &golden, &sampler, 1);
        for trial in 0..cfg.injections as u64 {
            let (record, _) = exec.run_unit(&[trial]).next().expect("one record");
            assert_eq!(
                exec.run_site(record.site, 1),
                (record.outcome, record.read_before_overwrite)
            );
        }
        assert_eq!(exec.take_shortcuts(), Shortcuts::default());
    }

    #[test]
    fn per_trial_latency_sums_to_the_batch_span() {
        for (span, n) in [(0u64, 1usize), (7, 1), (7, 3), (8, 8), (100, 7), (3, 8)] {
            let parts: Vec<u64> = (0..n).map(|k| per_trial_latency_us(span, n, k)).collect();
            assert_eq!(parts.iter().sum::<u64>(), span, "span={span} n={n}");
            // Fair split: no trial differs from another by more than 1µs,
            // so percentiles over batched trials cannot spike by ~W.
            let (min, max) = (parts.iter().min().unwrap(), parts.iter().max().unwrap());
            assert!(max - min <= 1, "span={span} n={n}: {parts:?}");
        }
        // Width 1 is the exact sequential accounting.
        assert_eq!(per_trial_latency_us(1234, 1, 0), 1234);
    }

    #[test]
    fn outcome_kind_roundtrip() {
        for (o, name) in [
            (Outcome::Masked, "masked"),
            (Outcome::Sdc, "sdc"),
            (Outcome::Hang, "hang"),
            (Outcome::Crash { reason: "r".into() }, "crash"),
        ] {
            assert_eq!(o.kind().as_str(), name);
            assert_eq!(OutcomeKind::parse(name), Some(o.kind()));
        }
        assert_eq!(OutcomeKind::parse("nope"), None);
        assert!(Outcome::Crash { reason: "x".into() }.is_error());
        // The dense index must agree with the position in ALL.
        for (i, k) in OutcomeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn empty_campaign_yields_zeros_not_nan() {
        // A zero-injection campaign (or a summary built before any trial
        // lands) must report explicit zeros and vacuous intervals.
        let summary = CampaignSummary {
            workload: "none",
            records: vec![],
            durable_write_failures: 0,
            audited: 0,
            audit_divergences: 0,
            merge_conflicts: 0,
            quarantined_endpoints: vec![],
        };
        let f = summary.fractions();
        for v in [f.masked, f.sdc, f.hang, f.crash, summary.read_fraction()] {
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }
        let s = summary.stats(0.95);
        assert_eq!(s.n, 0);
        for r in [s.masked, s.sdc, s.hang, s.crash, s.error, s.read] {
            assert_eq!(r.estimate, 0.0);
            assert_eq!((r.lo, r.hi), (0.0, 1.0));
        }
        // And an actual zero-budget campaign goes through the same path.
        let w = by_name("transpose").expect("registered");
        let empty = single_bit_campaign(&w, &quick_cfg(0));
        assert_eq!(empty.records.len(), 0);
        assert_eq!(empty.fractions().sdc, 0.0);
    }

    #[test]
    fn stats_intervals_cover_fractions_and_tighten_with_n() {
        let w = by_name("fast_walsh").expect("registered");
        let small = single_bit_campaign(&w, &quick_cfg(40)).stats(0.95);
        let large = single_bit_campaign(&w, &quick_cfg(160)).stats(0.95);
        for s in [&small, &large] {
            for r in [s.masked, s.sdc, s.hang, s.crash, s.error, s.read] {
                assert!(r.contains(r.estimate));
                assert!(r.lo >= 0.0 && r.hi <= 1.0);
            }
        }
        // More trials, tighter interval on the same underlying rate.
        assert!(large.sdc.halfwidth() < small.sdc.halfwidth());
        // The error rate aggregates the three failure classes.
        assert_eq!(
            large.error.successes,
            large.sdc.successes + large.hang.successes + large.crash.successes
        );
    }

    #[test]
    fn multi_bit_mode_is_deterministic_and_distinct() {
        let w = by_name("fast_walsh").expect("registered");
        let wide = CampaignConfig { mode_bits: 32, ..quick_cfg(40) };
        let a = single_bit_campaign(&w, &wide);
        let b = single_bit_campaign(&w, &wide);
        assert_eq!(a.records, b.records);
        // Same seed, same sites — only the flipped mask differs. For this
        // workload/seed a whole-register flip flips several trials from
        // masked to visible, so the wide campaign must diverge in outcomes
        // while sampling identical sites.
        let narrow = single_bit_campaign(&w, &quick_cfg(40));
        assert_ne!(a.records, narrow.records);
        for (x, y) in a.records.iter().zip(narrow.records.iter()) {
            assert_eq!(x.site, y.site, "sites must not depend on mode width");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let w = by_name("transpose").expect("registered");
        let a = single_bit_campaign(&w, &quick_cfg(20));
        let b = single_bit_campaign(&w, &quick_cfg(20));
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn campaign_finds_both_masked_and_sdc() {
        let w = by_name("fast_walsh").expect("registered");
        let summary = single_bit_campaign(&w, &quick_cfg(60));
        let f = summary.fractions();
        assert!(f.masked > 0.0, "some faults must be masked");
        assert!(f.sdc > 0.0, "some faults must corrupt the output");
        assert!(!summary.sdc_sites().is_empty());
    }

    #[test]
    fn sdc_implies_read_before_overwrite() {
        // A fault cannot corrupt output through a register that is never
        // read after the flip (memory corruption goes through stores, which
        // read the register).
        let w = by_name("dct").expect("registered");
        let summary = single_bit_campaign(&w, &quick_cfg(60));
        for r in &summary.records {
            if r.outcome == Outcome::Sdc {
                assert!(r.read_before_overwrite, "{:?}", r.site);
            }
        }
    }
}
