//! The campaign workloads: the fault-injection runner and supervisor driven
//! through their public entry points (`run_campaign`, `run_supervised`) in
//! the configurations people run, each chosen to stress a different layer.

use crate::probes::{self, Input};
use crate::stats::median_of;
use crate::tally::Tally;
use crate::trace::Tracer;
use crate::Measured;
use mbavf_inject::checkpoint::{config_fingerprint, render, wal::wal_path};
use mbavf_inject::supervisor::default_poison_path;
use mbavf_inject::{
    run_campaign, run_supervised, AuditPolicy, CampaignConfig, CampaignReport, CancelToken,
    InjectError, RunnerConfig, SingleBitRecord, SupervisorConfig,
};
use mbavf_workloads::{by_name, Scale, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads, or worker processes under the supervisor.
const THREADS: usize = 2;

/// Environment variable naming the file each routed `__worker`/`__serve`
/// invocation appends a line to.
pub const SPAWN_LOG_ENV: &str = "PERF_SPAWN_LOG";

/// Traced passes, each run right after an untraced one; the two medians
/// are compared. One short pass alone is too noisy to show a few percent
/// of overhead, and pairing cancels the machine's slow drift.
const TRACED_PASSES: usize = 3;

/// Audit rate of the isolated workload.
const AUDIT_RATE: f64 = 0.1;

/// How the entry point executes a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mode {
    batch_width: usize,
    checkpoint: bool,
    isolated: bool,
    audit: bool,
}

/// One campaign workload.
#[derive(Debug, Clone)]
pub struct Spec {
    name: &'static str,
    kernels: Vec<Workload>,
    /// The config every kernel's campaign runs.
    cfg: CampaignConfig,
    mode: Mode,
    /// Whether records are checked against an independent reference run
    /// (threads 1, width 1, checkpoint off) rather than the first pass.
    reference: bool,
    /// Trials per kernel the traced run's layer probes execute.
    probe_trials: usize,
    /// Untraced passes a run makes at least.
    min_passes: usize,
    /// Zero-budget set-up calls per kernel before each untraced pass, so
    /// the set-up samples spread over the whole run.
    setup_reps: usize,
}

impl Spec {
    /// The workload named `name`, if it is a campaign workload. `smoke`
    /// shrinks every budget to seconds.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Spec> {
        let plain = Mode { batch_width: 1, checkpoint: false, isolated: false, audit: false };
        let (name, kernels, injections, mode, reference): (_, &[&str], _, _, _) = match name {
            "campaign_kernel" => {
                ("campaign_kernel", &["matmul", "histogram", "minife"], 500, plain, false)
            }
            "campaign_durable" => (
                "campaign_durable",
                &["dct", "transpose", "fast_walsh", "prefix_sum"],
                5000,
                Mode { batch_width: 8, checkpoint: true, ..plain },
                true,
            ),
            "campaign_isolated" => (
                "campaign_isolated",
                &["dct", "fast_walsh"],
                5000,
                Mode { checkpoint: true, isolated: true, audit: true, ..plain },
                true,
            ),
            _ => return None,
        };
        let injections = if smoke { 40 } else { injections };
        Some(Spec {
            name,
            kernels: kernels.iter().map(|k| by_name(k).expect("registered")).collect(),
            cfg: CampaignConfig {
                seed,
                injections,
                scale: if smoke { Scale::Test } else { Scale::Paper },
                ..CampaignConfig::default()
            },
            mode,
            reference,
            probe_trials: if smoke { 16 } else { 500 },
            min_passes: if smoke { 2 } else { 3 },
            setup_reps: if smoke { 1 } else { 4 },
        })
    }

    fn checkpoint(&self, dir: &Path, w: &Workload) -> PathBuf {
        dir.join(format!("{}.ckpt.json", w.name))
    }

    /// Remove every durable artifact a previous call left, so each call
    /// starts a fresh campaign.
    fn clean(&self, dir: &Path) {
        for w in &self.kernels {
            let ckpt = self.checkpoint(dir, w);
            for path in [wal_path(&ckpt), default_poison_path(&ckpt), ckpt] {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    fn runner(&self, mode: Mode, ckpt: PathBuf, cancel: CancelToken) -> RunnerConfig {
        RunnerConfig {
            threads: THREADS,
            checkpoint: mode.checkpoint.then_some(ckpt),
            checkpoint_every: 64,
            batch_width: mode.batch_width,
            cancel,
            ..RunnerConfig::default()
        }
    }

    fn supervisor(&self, mode: Mode, spawn_log: &Path) -> SupervisorConfig {
        SupervisorConfig {
            workers: THREADS,
            shard_size: 64,
            audit: mode.audit.then(|| AuditPolicy::new(AUDIT_RATE, 0)),
            worker_env: vec![(SPAWN_LOG_ENV.to_string(), spawn_log.display().to_string())],
            ..SupervisorConfig::default()
        }
    }

    /// One call of the workload's entry point.
    fn call(
        &self,
        w: &Workload,
        mode: Mode,
        runner: &RunnerConfig,
        sup: &SupervisorConfig,
    ) -> Result<CampaignReport, InjectError> {
        if mode.isolated {
            run_supervised(w, &self.cfg, runner, sup)
        } else {
            run_campaign(w, &self.cfg, runner)
        }
    }

    /// Set-up samples: per kernel, `setup_reps` zero-budget calls of the
    /// entry point with the same config (golden double run, durable
    /// restore, journal open and final save), each wall appended to that
    /// kernel's entry of `samples`.
    fn sample_setup(&self, dir: &Path, samples: &mut [Vec<f64>]) -> Result<(), String> {
        let sup = self.supervisor(self.mode, &dir.join("spawns.log"));
        for (w, walls) in self.kernels.iter().zip(samples) {
            for _ in 0..self.setup_reps {
                self.clean(dir);
                let runner =
                    self.runner(self.mode, self.checkpoint(dir, w), CancelToken::limited(0));
                let t0 = Instant::now();
                let report = self
                    .call(w, self.mode, &runner, &sup)
                    .map_err(|e| format!("{}: zero-budget call failed: {e}", w.name))?;
                walls.push(t0.elapsed().as_secs_f64());
                if report.newly_run != 0 {
                    return Err(format!("{}: zero-budget call ran trials", w.name));
                }
            }
        }
        Ok(())
    }

    /// One pass: a fresh campaign per kernel, in order, timed as a whole.
    fn pass(&self, mode: Mode, dir: &Path, t: &Tracer) -> Pass {
        self.clean(dir);
        let log = dir.join("spawns.log");
        let _ = std::fs::remove_file(&log);
        let sup = self.supervisor(mode, &log);
        let name = if mode.isolated {
            "inject.supervisor.run_supervised"
        } else {
            "inject.runner.run_campaign"
        };
        let t0 = Instant::now();
        let reports = self
            .kernels
            .iter()
            .map(|w| {
                let runner = self.runner(mode, self.checkpoint(dir, w), CancelToken::new());
                t.span(name, None, |_| self.call(w, mode, &runner, &sup)).map_err(|e| {
                    eprintln!("{}: campaign failed: {e}", w.name);
                })
            })
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let spawns = std::fs::read_to_string(&log).map_or(0, |s| s.lines().count());
        Pass { wall_s, reports, spawns }
    }

    /// Count the pass's trials against `truth` (per kernel, one record per
    /// trial in trial order). A trial fails if it is uncommitted (including
    /// poisoned), differs from the truth, or diverged under audit; a process
    /// pass that spawned no worker fails every trial, because the
    /// supervisor silently degraded to thread mode.
    fn check(&self, pass: &Pass, mode: Mode, truth: &[Vec<SingleBitRecord>], tally: &mut Tally) {
        let n = self.cfg.injections as u64;
        let degraded = mode.isolated && pass.spawns == 0;
        if degraded {
            eprintln!("{}: process pass spawned no worker", self.name);
        }
        for (report, truth) in pass.reports.iter().zip(truth) {
            let failed = match report {
                Ok(r) if !degraded => {
                    let s = &r.summary;
                    let good = s
                        .records
                        .iter()
                        .filter(|rec| truth.get(rec.trial as usize) == Some(*rec))
                        .count() as u64;
                    (n - good + s.audit_divergences).min(n)
                }
                _ => n,
            };
            tally.ops(n, failed);
        }
    }

    /// FNV-1a digest input of a pass's records: each kernel's checkpoint
    /// rendering, in kernel order.
    fn digest_records(&self, pass: &Pass, tally: &mut Tally) {
        for (w, report) in self.kernels.iter().zip(&pass.reports) {
            if let Ok(r) = report {
                let fingerprint = config_fingerprint(w.name, &self.cfg);
                let doc = render(w.name, fingerprint, self.cfg.mode_bits, &r.summary.records);
                tally.feed(doc.as_bytes());
            }
        }
    }
}

/// What one pass produced.
struct Pass {
    wall_s: f64,
    /// Per kernel: the campaign's report, or `Err` if it failed outright.
    reports: Vec<Result<CampaignReport, ()>>,
    /// Worker processes spawned during the pass.
    spawns: usize,
}

impl Pass {
    fn records(&self) -> Vec<Vec<SingleBitRecord>> {
        self.reports
            .iter()
            .map(|r| r.as_ref().map(|r| r.summary.records.clone()).unwrap_or_default())
            .collect()
    }
}

/// Run the workload: untraced passes for `seconds` (at least
/// `min_passes`), each after its set-up samples, then with `trace` the
/// traced passes, the layer probes, and the ablation passes.
pub fn run(spec: &Spec, seconds: f64, trace: bool, work: &Path) -> Result<Measured, String> {
    let dir = work.join(spec.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let off = Tracer::off();

    let mut truth = Vec::new();
    if spec.reference {
        for w in &spec.kernels {
            let r = run_campaign(w, &spec.cfg, &RunnerConfig::serial())
                .map_err(|e| format!("{}: reference run failed: {e}", w.name))?;
            truth.push(r.summary.records);
        }
    }

    let mut tally = Tally::default();
    let mut setups = vec![Vec::new(); spec.kernels.len()];
    let mut walls = Vec::new();
    let mut spawns = Vec::new();
    let mut audited = 0;
    let t0 = Instant::now();
    while crate::more_passes(&walls, spec.min_passes, t0, seconds) {
        spec.sample_setup(&dir, &mut setups)?;
        let pass = spec.pass(spec.mode, &dir, &off);
        if walls.is_empty() {
            if !spec.reference {
                truth = pass.records();
            }
            spec.digest_records(&pass, &mut tally);
            audited = pass.reports.iter().flatten().map(|r| r.summary.audited).sum::<u64>();
        }
        spec.check(&pass, spec.mode, &truth, &mut tally);
        walls.push(pass.wall_s);
        spawns.push(pass.spawns as f64);
    }
    let trials = (spec.cfg.injections * spec.kernels.len()) as f64;
    let mut measured = Measured {
        trials_per_s: walls.iter().map(|w| trials / w).collect(),
        walls,
        setup_s: setups.iter().map(|s| median_of(s)).sum(),
        digest_name: "records_digest",
        tally,
        layers: Default::default(),
        tracer: None,
    };
    if !trace {
        return Ok(measured);
    }

    let t = Tracer::new(spec.name);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_PASSES {
        for (tracer, walls) in [(&off, &mut untraced), (&t, &mut traced)] {
            let p = spec.pass(spec.mode, &dir, tracer);
            spec.check(&p, spec.mode, &truth, &mut measured.tally);
            walls.push(p.wall_s);
        }
    }
    // Ablations and shares compare with these untraced passes, made close
    // in time to them, rather than with the run's first passes.
    let base_wall = median_of(&untraced);
    let inputs: Vec<Input<'_>> = spec
        .kernels
        .iter()
        .zip(&truth)
        .map(|(w, records)| Input { workload: *w, cfg: spec.cfg, records })
        .collect();
    let probed =
        probes::probe(&inputs, spec.probe_trials, &dir.join("probe"), &t, &mut measured.tally)
            .map_err(|e| format!("{}: probe failed: {e}", spec.name))?;

    // Ablations: the same entry point with one mechanism switched off;
    // each pass must still reproduce the truth. A mechanism the workload
    // does not use costs and saves nothing.
    let m = spec.mode;
    let mut ablated = |on: bool, mode: Mode| {
        on.then(|| {
            let p = spec.pass(mode, &dir, &t);
            spec.check(&p, mode, &truth, &mut measured.tally);
            p.wall_s
        })
    };
    let batch_speedup =
        ablated(m.batch_width > 1, Mode { batch_width: 1, ..m }).map_or(0.0, |w| w / base_wall);
    let cost = |wall: Option<f64>| wall.map_or(0.0, |w| 1.0 - w / base_wall);
    let checkpoint = cost(ablated(m.checkpoint, Mode { checkpoint: false, ..m }));
    let audit = cost(ablated(m.audit, Mode { audit: false, ..m }));
    let supervisor = cost(ablated(m.isolated, Mode { isolated: false, audit: false, ..m }));

    // Trial busy time the probes account for, against the pass's capacity.
    let busy: f64 = probed
        .trial_s
        .iter()
        .map(|&(arena, batch)| if m.batch_width > 1 { batch } else { arena })
        .sum::<f64>()
        * spec.cfg.injections as f64;

    measured.layers = probed.metrics;
    measured.layers.extend(
        [
            ("trace.overhead_share", median_of(&traced) / base_wall - 1.0),
            ("inject.runner.residual_share", 1.0 - busy / (THREADS as f64 * base_wall)),
            ("sim.batch.speedup", batch_speedup),
            ("inject.checkpoint.share", checkpoint),
            ("inject.supervisor.audit.share", audit),
            ("inject.supervisor.share", supervisor),
            ("inject.supervisor.worker_spawns", median_of(&spawns)),
            ("inject.supervisor.audit.records", audited as f64),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    measured.tracer = Some(t);
    Ok(measured)
}
