//! Layer probes for the traced run: each layer's public function is timed
//! in isolation on one workload's real inputs — its kernels, the fault
//! sites its campaigns sample, and the records they commit. Probe verdicts
//! are checked against those records, so a probe that measures a wrong
//! answer counts as a failed operation.

use crate::stats::{median_of, percentile};
use crate::tally::Tally;
use crate::trace::Tracer;
use mbavf_core::rng::SplitMix64;
use mbavf_inject::checkpoint::{self, config_fingerprint, wal};
use mbavf_inject::{
    CampaignConfig, FaultSite, MergeVerdict, Outcome, RecordMerge, SingleBitRecord, SiteSampler,
};
use mbavf_sim::interp::{run_golden, InterpError, Termination};
use mbavf_sim::{TrialArena, TrialBatch, TrialResult};
use mbavf_workloads::Workload;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Lockstep width of the batch probe (the `campaign_durable` width).
const BATCH_WIDTH: usize = 8;

/// Repetitions of the cheap per-kernel probes (build, golden, save); the
/// reset probe runs four times as many.
const REPS: usize = 5;

/// One campaign's inputs: the kernel, its config, and the records the
/// campaign committed for trials `0..cfg.injections`, in trial order.
pub struct Input<'a> {
    /// The kernel.
    pub workload: Workload,
    /// The campaign's config.
    pub cfg: CampaignConfig,
    /// Committed records, one per trial, in trial order.
    pub records: &'a [SingleBitRecord],
}

/// What the probes measured.
pub struct Probed {
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
    /// Per input: mean seconds of one trial on the sequential arena and on
    /// the lockstep batch.
    pub trial_s: Vec<(f64, f64)>,
}

/// Probe every layer over `inputs`, running at most `max_trials` trials
/// and journal appends per input. Probe files go under `dir`.
pub fn probe(
    inputs: &[Input<'_>],
    max_trials: usize,
    dir: &Path,
    t: &Tracer,
    tally: &mut Tally,
) -> io::Result<Probed> {
    std::fs::create_dir_all(dir)?;
    let mut sums = Sums::default();
    let mut trial_s = Vec::with_capacity(inputs.len());
    for input in inputs {
        trial_s.push(sums.simulator(input, max_trials, t, tally)?);
        sums.durability(input, max_trials, &dir.join("probe.ckpt.json"), t)?;
        sums.merge(input, t, tally);
    }
    Ok(Probed { metrics: sums.metrics(t), trial_s })
}

/// Running totals over every probed input.
#[derive(Default)]
struct Sums {
    build_ms: f64,
    golden_ms: f64,
    retired: u64,
    reset_us: Vec<f64>,
    sample_ns: f64,
    samples: u64,
    batch_s: f64,
    batch_trials: u64,
    lockstep: u64,
    wal_bytes: u64,
    wal_frames: u64,
    save_ms: f64,
    offer_ns: f64,
    offers: u64,
}

impl Sums {
    /// Build, golden run, memory reset, site sampling, and the arena and
    /// batch trial executors. Returns the mean seconds per arena trial and
    /// per batched trial.
    fn simulator(
        &mut self,
        input: &Input<'_>,
        max_trials: usize,
        t: &Tracer,
        tally: &mut Tally,
    ) -> io::Result<(f64, f64)> {
        let (w, cfg) = (&input.workload, &input.cfg);
        let builds: Vec<f64> =
            (0..REPS).map(|_| t.timed("workloads.build", || w.build(cfg.scale)).0).collect();
        self.build_ms += median_of(&builds) * 1e3;

        // Golden runs on fresh copies of the built image; the last one's shape
        // drives the sampler exactly as a campaign's does.
        let inst = w.build(cfg.scale);
        let mut secs = Vec::with_capacity(REPS);
        let mut golden = None;
        for _ in 0..REPS {
            let mut mem = inst.mem.clone();
            let (s, run) = t.timed("sim.interp.golden", || {
                run_golden(&inst.program, &mut mem, inst.workgroups)
            });
            secs.push(s);
            golden = Some(run);
        }
        let run = golden.expect("REPS > 0");
        self.golden_ms += median_of(&secs) * 1e3;
        self.retired += run.retired;
        let max_steps = run.per_wg_retired.iter().copied().max().unwrap_or(1) * cfg.hang_factor;

        for _ in 0..REPS * 4 {
            let mut mem = inst.mem.clone();
            run_golden(&inst.program, &mut mem, inst.workgroups);
            let (s, ()) = t.timed("sim.mem.reset_from", || mem.reset_from(&inst.mem));
            self.reset_us.push(s * 1e6);
        }

        let sampler = SiteSampler::new(&run.per_wg_retired, inst.program.num_vregs())
            .map_err(io::Error::other)?;
        let n = cfg.injections as u64;
        let (s, sites) = t.timed("inject.campaign.sample", || {
            (0..n).map(|trial| sampler.sample(cfg.seed, trial)).collect::<Vec<_>>()
        });
        self.sample_ns += s * 1e9;
        self.samples += n;
        let sites = &sites[..sites.len().min(max_trials)];
        let mode = cfg.mode_bits.max(1);

        let fresh = w.build(cfg.scale);
        let mut arena = TrialArena::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob);
        let mut arena_s = 0.0;
        for (trial, site) in sites.iter().enumerate() {
            let (s, result) = t.timed("sim.arena.run_trial", || {
                arena.run_trial(site.injection(mode), max_steps, &run.output)
            });
            arena_s += s;
            check(tally, input.records, trial, site, result);
        }

        let fresh = w.build(cfg.scale);
        let mut batch =
            TrialBatch::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob, BATCH_WIDTH);
        let mut batch_s = 0.0;
        for (g, group) in sites.chunks(BATCH_WIDTH).enumerate() {
            let injections: Vec<_> = group.iter().map(|s| s.injection(mode)).collect();
            let (s, results) = t.timed("sim.batch.run_batch", || {
                batch.run_batch(&injections, max_steps, &run.output)
            });
            batch_s += s;
            for (k, result) in results.into_iter().enumerate() {
                let trial = g * BATCH_WIDTH + k;
                check(tally, input.records, trial, &sites[trial], result);
            }
        }
        self.batch_s += batch_s;
        self.batch_trials += sites.len() as u64;
        self.lockstep += batch.lockstep_completed();
        let per_trial = |s: f64| if sites.is_empty() { 0.0 } else { s / sites.len() as f64 };
        Ok((per_trial(arena_s), per_trial(batch_s)))
    }

    /// Journal appends of the committed records, then snapshots of all of
    /// them, against a scratch checkpoint at `ckpt`.
    fn durability(
        &mut self,
        input: &Input<'_>,
        max_appends: usize,
        ckpt: &Path,
        t: &Tracer,
    ) -> io::Result<()> {
        let (w, cfg, records) = (&input.workload, &input.cfg, input.records);
        let fingerprint = config_fingerprint(w.name, cfg);
        let journal = wal::wal_path(ckpt);
        let mut writer = wal::WalWriter::create(ckpt, w.name, fingerprint, cfg.mode_bits)
            .map_err(io::Error::other)?;
        let header = std::fs::metadata(&journal)?.len();
        let appended = &records[..records.len().min(max_appends)];
        for r in appended {
            t.span("inject.checkpoint.wal.append", None, |_| writer.append(r))
                .map_err(io::Error::other)?;
        }
        self.wal_bytes += std::fs::metadata(&journal)?.len() - header;
        self.wal_frames += appended.len() as u64;
        drop(writer);
        std::fs::remove_file(&journal)?;

        let mut saves = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let (s, saved) = t.timed("inject.checkpoint.save", || {
                checkpoint::save(ckpt, w.name, fingerprint, cfg.mode_bits, records)
            });
            saved.map_err(io::Error::other)?;
            saves.push(s);
        }
        self.save_ms += median_of(&saves) * 1e3;
        std::fs::remove_file(ckpt)
    }

    /// Offer the committed records to a fresh merge in a seeded shuffled
    /// order; the merge must rebuild them exactly.
    fn merge(&mut self, input: &Input<'_>, t: &Tracer, tally: &mut Tally) {
        let records = input.records;
        let mut order: Vec<usize> = (0..records.len()).collect();
        let mut rng = SplitMix64::new(input.cfg.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let shuffled: Vec<SingleBitRecord> = order.iter().map(|&i| records[i].clone()).collect();
        let mut merge = RecordMerge::new(input.cfg.injections);
        let (s, fresh) = t.timed("inject.supervisor.merge.offer", || {
            shuffled
                .into_iter()
                .map(|r| merge.offer(r))
                .filter(|v| *v == MergeVerdict::Fresh)
                .count()
        });
        self.offer_ns += s * 1e9;
        self.offers += records.len() as u64;
        tally.ops(1, u64::from(fresh != records.len() || merge.records() != records));
    }

    fn metrics(&self, t: &Tracer) -> BTreeMap<String, f64> {
        let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
        let us = |name: &str, per_mille: usize| percentile(&t.durations(name), per_mille) * 1e6;
        [
            ("workloads.build_ms", self.build_ms),
            ("sim.interp.golden_ms", self.golden_ms),
            ("sim.interp.golden_minst_per_s", self.retired as f64 / self.golden_ms / 1e3),
            ("sim.arena.trial_us.p50", us("sim.arena.run_trial", 500)),
            ("sim.arena.trial_us.p99", us("sim.arena.run_trial", 990)),
            ("sim.batch.trial_us", ratio(self.batch_s * 1e6, self.batch_trials)),
            ("sim.batch.lockstep_share", ratio(self.lockstep as f64, self.batch_trials)),
            ("sim.mem.reset_us", median_of(&self.reset_us)),
            ("inject.campaign.sample_ns", ratio(self.sample_ns, self.samples)),
            ("inject.checkpoint.wal.append_us.p50", us("inject.checkpoint.wal.append", 500)),
            ("inject.checkpoint.wal.append_us.p99", us("inject.checkpoint.wal.append", 990)),
            (
                "inject.checkpoint.wal.bytes_per_trial",
                ratio(self.wal_bytes as f64, self.wal_frames),
            ),
            ("inject.checkpoint.save_ms", self.save_ms),
            ("inject.supervisor.merge.offer_ns", ratio(self.offer_ns, self.offers)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Count one probed trial: it fails unless its classified record equals
/// the committed record of the same trial.
fn check(
    tally: &mut Tally,
    records: &[SingleBitRecord],
    trial: usize,
    site: &FaultSite,
    result: Result<TrialResult, InterpError>,
) {
    let (outcome, read) = match result {
        Ok(run) if run.termination == Termination::Hang => {
            (Some(Outcome::Hang), run.injected_value_read)
        }
        Ok(run) if run.output_matches => (Some(Outcome::Masked), run.injected_value_read),
        Ok(run) => (Some(Outcome::Sdc), run.injected_value_read),
        Err(InterpError::Crash { reason }) => (Some(Outcome::Crash { reason }), false),
        Err(_) => (None, false),
    };
    let same = outcome.is_some_and(|outcome| {
        records.get(trial)
            == Some(&SingleBitRecord {
                trial: trial as u64,
                site: *site,
                outcome,
                read_before_overwrite: read,
            })
    });
    tally.ops(1, u64::from(!same));
}
