//! The resilient campaign engine: crash-isolated trials, deterministic
//! parallelism, and checkpoint/resume.
//!
//! ## Determinism contract
//!
//! Every trial's fault site comes from its own SplitMix64 stream keyed by
//! `(campaign seed, trial index)`, and trials never share mutable state — so
//! the record produced for trial *i* is a pure function of the campaign
//! config. Workers claim trial indices from an atomic counter and write each
//! record into its trial's slot; after the scope joins, slots are read out in
//! index order. Summaries are therefore **bit-identical** across any thread
//! count, and across interrupted-then-resumed executions. Each worker runs
//! its claimed trials one unit at a time — one trial, or a lockstep group
//! at batch width W — on its own `campaign::TrialExecutor`, the executor
//! worker daemons, the audit, replay and Table II share.
//!
//! ## Checkpointing
//!
//! With [`RunnerConfig::checkpoint`] set, the runner loads any existing
//! checkpoint document (validating its config fingerprint), replays the
//! write-ahead trial journal over it ([`checkpoint::wal`]), and runs only
//! the missing trials. While the campaign runs, the journal is its only
//! durable record. Thread workers and supervisor handlers commit their
//! finished trials in groups through one path, `Shared::commit`: under one
//! commit lock a group is merged into the slots and its fresh trials are
//! journaled to `<checkpoint>.wal`, one CRC-framed frame each, with one
//! write and one fsync, before any of it counts. A group closes after
//! [`RunnerConfig::checkpoint_every`] trials (at most 32), at the end of a
//! lockstep group (batch width > 1) or of a worker's claimed chunk of 32
//! trials, when the cancel token trips, and — for a handler — whenever no
//! record frame is ready. A campaign killed at any point loses at most each
//! worker's or handler's open group, never a committed trial.
//!
//! The checkpoint document is an O(N) rewrite of every record, so it is
//! written only off the commit path: at open when recovery found
//! journal-only records, when a failed append is repaired, and at
//! the end of the run (completion, preemption drain, fatal error), which
//! also deletes the journal.
//!
//! Durable-write failures degrade instead of killing the run: a failed
//! append is *repaired* — every committed record compacted into the
//! document, then a fresh journal started — and after
//! `MAX_DURABLE_WRITE_FAILURES` (3) failed writes checkpointing is
//! disabled (counted and reported as `durable_write_failures`). Only a
//! failing *final* save is a hard, typed error — silently losing a
//! finished campaign is the one thing this layer must never do.

use crate::campaign::{
    golden_shape, CampaignConfig, CampaignSummary, GoldenShape, Outcome, OutcomeKind, Shortcuts,
    SingleBitRecord, SiteSampler, TrialExecutor,
};
use crate::checkpoint::{self, wal};
use crate::supervisor::merge::{merge_slot, MergeVerdict};
use crate::supervisor::PoisonEntry;
use mbavf_core::error::{CheckpointError, InjectError, SupervisorError};
use mbavf_workloads::Workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use crate::durable::{quarantine_corrupt, quarantine_path};

/// How to execute a campaign (as opposed to *what* to run, which is
/// [`CampaignConfig`]). Execution knobs never affect the records produced —
/// only how fast they appear and how interruption-proof the run is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Checkpoint document to resume from and save into; its write-ahead
    /// journal lives beside it at `<checkpoint>.wal`.
    pub checkpoint: Option<PathBuf>,
    /// When checkpointing, a thread worker commits its open group after at
    /// most this many trials, so a crash loses at most this many per worker.
    pub checkpoint_every: usize,
    /// Shared cancellation token, polled at every trial boundary. Arms all
    /// three graceful early-exit paths: signal handlers trip it, `--max-wall`
    /// arms a deadline on it, and a trial budget (`--max-trials-this-run`,
    /// née `stop_after`) deterministically truncates the pending list. A
    /// cancelled run still exits through the normal final-checkpoint path.
    pub cancel: crate::cancel::CancelToken,
    /// Directory to write repro bundles into (one self-contained JSON file
    /// per interesting trial, capped per outcome kind). `None` disables
    /// bundle emission.
    pub repro_dir: Option<PathBuf>,
    /// Per-outcome-kind cap on emitted repro bundles.
    pub repro_cap: usize,
    /// Emit a progress heartbeat line to stderr at this interval (trials
    /// done/total, trials/sec, per-kind counts, live workers, ETA). `None`
    /// keeps the runner silent until the end. Heartbeats are an observation
    /// channel only — they never change the records produced.
    pub heartbeat: Option<Duration>,
    /// Trials each worker thread executes in lockstep per batch
    /// ([`mbavf_sim::TrialBatch`]): the golden instruction stream is decoded
    /// once per batch instead of once per trial. Width 1 (the default) is
    /// the sequential [`mbavf_sim::TrialArena`] path. An execution knob like
    /// `threads` — records are bit-identical at every width, and the width
    /// is never part of the config fingerprint.
    pub batch_width: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            checkpoint: None,
            checkpoint_every: 64,
            cancel: crate::cancel::CancelToken::new(),
            repro_dir: None,
            repro_cap: crate::bundle::DEFAULT_BUNDLE_CAP,
            heartbeat: None,
            batch_width: 1,
        }
    }
}

impl RunnerConfig {
    /// Single-threaded, no checkpointing — the simplest execution mode.
    pub fn serial() -> Self {
        Self { threads: 1, ..Self::default() }
    }
}

/// `requested` workers (`0` = one per available CPU), clamped to
/// `1..=units` so no worker starts without work.
pub(crate) fn worker_count(requested: usize, units: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, units.max(1))
}

/// Wall-clock percentiles over the trials a single call executed.
///
/// Latency is an execution-side observation (it depends on the machine, not
/// the campaign config), so it lives in the report, never in checkpoints or
/// summaries — two bit-identical campaigns can legitimately differ here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Trials measured (newly run by this call; resumed trials have no
    /// latency).
    pub n: usize,
    /// Median trial wall-clock, microseconds.
    pub p50_us: u64,
    /// 99th-percentile trial wall-clock, microseconds.
    pub p99_us: u64,
    /// Slowest trial wall-clock, microseconds.
    pub max_us: u64,
}

impl LatencyStats {
    /// Nearest-rank percentiles over per-trial latencies (microseconds).
    /// Returns `None` for an empty sample.
    pub fn from_micros(mut us: Vec<u64>) -> Option<LatencyStats> {
        if us.is_empty() {
            return None;
        }
        us.sort_unstable();
        let rank = |q: f64| us[((q * us.len() as f64).ceil() as usize).clamp(1, us.len()) - 1];
        Some(LatencyStats {
            n: us.len(),
            p50_us: rank(0.50),
            p99_us: rank(0.99),
            max_us: *us.last().expect("nonempty"),
        })
    }
}

/// What a [`run_campaign`] call accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// All completed trials, in trial order (the union of resumed and newly
    /// run records).
    pub summary: CampaignSummary,
    /// Trials restored from the checkpoint instead of re-run.
    pub resumed: usize,
    /// Trials executed by this call.
    pub newly_run: usize,
    /// Whether every trial in the budget is now complete. `false` only when
    /// the [`RunnerConfig::cancel`] token cut the run short.
    pub complete: bool,
    /// Why the run stopped early, when it did (`None` on a complete run):
    /// a signal, the wall-clock budget, or the trial budget. The summary and
    /// its Wilson intervals are still honest at the achieved N — a partial
    /// run is a smaller campaign, not a broken one.
    pub interrupted: Option<crate::cancel::CancelReason>,
    /// Repro bundles this campaign's records select (written or already on
    /// disk), in trial order. Empty unless [`RunnerConfig::repro_dir`] is
    /// set.
    pub bundles: Vec<PathBuf>,
    /// Trials quarantined by the process-isolation supervisor because they
    /// repeatedly killed their worker. Always empty in thread mode; the
    /// summary deliberately excludes these trials (they are counted
    /// honestly as *unmeasured*, not guessed at).
    pub poisoned: Vec<PoisonEntry>,
    /// Wall-clock percentiles of the trials this call executed, when any
    /// were measured.
    pub trial_latency: Option<LatencyStats>,
    /// Trials this process's executors settled from the golden profile or
    /// stopped early at a golden workgroup boundary — why a p50 latency can
    /// be near zero. Trials run by worker daemons are not counted.
    pub shortcuts: Shortcuts,
}

/// Where a checkpointed campaign keeps its durable state, and the campaign
/// header its checkpoint document and journal both carry.
struct Durable {
    path: PathBuf,
    workload: &'static str,
    fingerprint: u64,
    mode_bits: u8,
}

impl Durable {
    /// Atomically write `records` as the checkpoint document.
    fn save(&self, records: &[SingleBitRecord]) -> Result<(), CheckpointError> {
        checkpoint::save(&self.path, self.workload, self.fingerprint, self.mode_bits, records)
    }
}

/// What a campaign has committed, behind the one commit lock.
struct Committed {
    /// One slot per trial in the budget; `Some` once completed.
    slots: Vec<Option<SingleBitRecord>>,
    /// Write-ahead trial journal: while the campaign runs, the only durable
    /// copy of the trials committed since it opened. `None` without
    /// checkpointing, once checkpointing is disabled, or while a failed
    /// repair waits for the next commit to retry it.
    journal: Option<wal::WalWriter>,
    /// Per-trial wall-clock, microseconds, for trials run by this call.
    /// Pre-reserved to the pending count so the hot path never allocates.
    latencies_us: Vec<u64>,
}

/// Shared worker state for one campaign execution. Also reused by the
/// process-isolation supervisor ([`crate::supervisor`]), whose record
/// stream arrives from worker daemons instead of in-process threads.
pub(crate) struct Shared {
    /// Slots, journal and latency log: every commit takes this one lock.
    committed: Mutex<Committed>,
    /// Next index into the pending-trials list.
    next: AtomicUsize,
    /// Completions since the run started.
    pub(crate) completed: AtomicUsize,
    /// Completions per outcome class (heartbeat reporting).
    pub(crate) kind_counts: [AtomicUsize; 4],
    /// Workers currently executing trials (heartbeat reporting and monitor
    /// shutdown).
    pub(crate) active_workers: AtomicUsize,
    /// Trials settled from the golden profile without running (heartbeat
    /// and report).
    settled: AtomicU64,
    /// Trials stopped early at a golden workgroup boundary.
    stopped_early: AtomicU64,
    /// Where the checkpoint document and journal live; `None` without
    /// checkpointing.
    durable: Option<Durable>,
    /// Durable-write failures observed so far: failed journal appends,
    /// document compactions and journal creations. Surfaced in the summary
    /// and the heartbeat so degraded durability is never silent.
    pub(crate) durable_write_failures: AtomicUsize,
    /// Set once [`MAX_DURABLE_WRITE_FAILURES`] durable-write failures
    /// accumulate: the campaign keeps running, but stops journaling and
    /// repairing (only the final save is still tried — and is a hard error
    /// if it fails).
    pub(crate) checkpointing_disabled: AtomicBool,
}

/// Durable-write failures tolerated before checkpointing is disabled for
/// the rest of the run. Each failure has already survived bounded retry
/// inside [`crate::durable`], so three strikes means the disk is
/// persistently refusing writes (full, read-only, gone) — keep the science
/// running, report honestly, stop hammering the filesystem.
pub(crate) const MAX_DURABLE_WRITE_FAILURES: usize = 3;

impl Shared {
    fn new(slots: Vec<Option<SingleBitRecord>>, pending: usize, durable: Option<Durable>) -> Self {
        let latencies_us = Vec::with_capacity(pending);
        Shared {
            committed: Mutex::new(Committed { slots, journal: None, latencies_us }),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            kind_counts: Default::default(),
            active_workers: AtomicUsize::new(0),
            settled: AtomicU64::new(0),
            stopped_early: AtomicU64::new(0),
            durable,
            durable_write_failures: AtomicUsize::new(0),
            checkpointing_disabled: AtomicBool::new(false),
        }
    }

    /// Count a failed durable write and warn that `what` failed and the run
    /// goes on to `next` — unless this was failure
    /// [`MAX_DURABLE_WRITE_FAILURES`], which disables checkpointing instead.
    fn write_failed(&self, journal: &mut Option<wal::WalWriter>, what: String, next: &str) {
        let failures = self.durable_write_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures < MAX_DURABLE_WRITE_FAILURES {
            eprintln!("warning: {what}; {next}");
            return;
        }
        self.checkpointing_disabled.store(true, Ordering::SeqCst);
        *journal = None;
        eprintln!(
            "warning: {what}; {failures} durable-write failures, checkpointing disabled — \
             trials committed from here on are saved only when the run ends"
        );
    }

    /// Start a fresh journal through the held commit lock, first compacting
    /// every committed slot into the checkpoint document when `compact` is
    /// set. This is the repair for a failed append (called after the
    /// failing group's slots are stored, so no committed record is ever in
    /// neither artifact) and, at open, the fold of journal-only records into
    /// the document. A failure is counted and leaves the journal empty — the
    /// old journal file, still the durable copy of its records, stays on
    /// disk — and the next commit retries.
    fn reopen_journal(&self, committed: &mut Committed, compact: bool) {
        let Some(durable) = &self.durable else { return };
        if self.checkpointing_disabled.load(Ordering::SeqCst) {
            return;
        }
        let Committed { slots, journal, .. } = committed;
        *journal = None;
        let retry = "retrying at the next commit";
        if compact {
            let records: Vec<SingleBitRecord> = slots.iter().flatten().cloned().collect();
            if let Err(e) = durable.save(&records) {
                let what =
                    format!("could not compact committed trials into {}", durable.path.display());
                return self.write_failed(journal, format!("{what} ({e})"), retry);
            }
        }
        let (workload, fingerprint, mode_bits) =
            (durable.workload, durable.fingerprint, durable.mode_bits);
        match wal::WalWriter::create(&durable.path, workload, fingerprint, mode_bits) {
            Ok(writer) => *journal = Some(writer),
            Err(e) => {
                let path = wal::wal_path(&durable.path);
                let what = format!("could not open the trial journal at {} ({e})", path.display());
                self.write_failed(journal, what, retry);
            }
        }
    }

    /// Add an executor's shortcut counts to the campaign's.
    fn count_shortcuts(&self, counts: Shortcuts) {
        self.settled.fetch_add(counts.settled, Ordering::Relaxed);
        self.stopped_early.fetch_add(counts.stopped_early, Ordering::Relaxed);
    }

    fn shortcuts(&self) -> Shortcuts {
        Shortcuts {
            settled: self.settled.load(Ordering::Relaxed),
            stopped_early: self.stopped_early.load(Ordering::Relaxed),
        }
    }

    /// Durably commit a group of trials — a thread worker's or a supervisor
    /// handler's — draining `group`, all under the one commit lock: merge
    /// the records into their slots in order, stopping at the first
    /// conflicting or foreign one (the records after it are dropped);
    /// journal the fresh ones from their slots with one write and one
    /// fsync; count them; and, if the append failed, repair the journal,
    /// whose compaction then sees the group's slots. Only a fresh verdict
    /// counts, so a replayed record can never inflate the campaign, and
    /// only a merged record is journaled, so a foreign one can never poison
    /// recovery. Fills `verdicts` with each merged record's trial and
    /// verdict; returns the completion count after the commit.
    pub(crate) fn commit(
        &self,
        group: &mut Vec<Offer>,
        verdicts: &mut Vec<(u64, MergeVerdict)>,
    ) -> usize {
        verdicts.clear();
        if group.is_empty() {
            return self.completed.load(Ordering::SeqCst);
        }
        let mut committed = self.committed.lock().expect("commit lock");
        let Committed { slots, journal, latencies_us } = &mut *committed;
        for (record, elapsed_us, leased) in group.drain(..) {
            let trial = record.trial;
            let verdict = merge_slot(slots, record, leased);
            debug_assert!(!leased || verdict == MergeVerdict::Fresh, "a leased trial commits once");
            if verdict == MergeVerdict::Fresh {
                latencies_us.push(elapsed_us);
            }
            let last = !matches!(verdict, MergeVerdict::Fresh | MergeVerdict::Duplicate);
            verdicts.push((trial, verdict));
            if last {
                break;
            }
        }
        let fresh = || {
            let fresh = verdicts.iter().filter(|(_, v)| *v == MergeVerdict::Fresh);
            fresh.map(|&(trial, _)| slots[trial as usize].as_ref().expect("a fresh trial's slot"))
        };
        // One write and one fsync for the group. A failed append (already
        // retried inside the writer, now counted) or a repair still pending
        // leaves the journal unsound, to be repaired once the group counts.
        let sound = match journal.as_mut().map(|writer| writer.append_all(fresh())) {
            None => self.durable.is_none() || self.checkpointing_disabled.load(Ordering::SeqCst),
            Some(Ok(())) => true,
            Some(Err(e)) => {
                let next =
                    "compacting committed trials into the checkpoint and starting a fresh journal";
                self.write_failed(journal, format!("trial journal append failed ({e})"), next);
                false
            }
        };
        let mut n = 0;
        for record in fresh() {
            self.kind_counts[record.outcome.kind().index()].fetch_add(1, Ordering::Relaxed);
            n += 1;
        }
        let done = self.completed.fetch_add(n, Ordering::SeqCst) + n;
        if !sound {
            self.reopen_journal(&mut committed, true);
        }
        done
    }

    /// Heartbeat monitor loop: print a progress line to stderr every
    /// `interval` until all workers have retired (`active_workers` reaches
    /// zero — the caller pre-registers the worker count *before* spawning,
    /// so the monitor cannot exit during worker startup). `done_offset`
    /// counts trials restored from a checkpoint before this call started;
    /// `label` names the execution mode; `live` reports the current worker
    /// count (threads or daemon connections); `extra` appends mode-specific
    /// detail (e.g. poison counts).
    pub(crate) fn monitor(
        &self,
        interval: Duration,
        done_offset: usize,
        total: usize,
        label: &str,
        live: &dyn Fn() -> usize,
        extra: &dyn Fn() -> String,
    ) {
        let start = Instant::now();
        let mut last_beat = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(25));
            if self.active_workers.load(Ordering::SeqCst) == 0 {
                return;
            }
            if last_beat.elapsed() < interval {
                continue;
            }
            last_beat = Instant::now();
            let new = self.completed.load(Ordering::SeqCst);
            let done = done_offset + new;
            let secs = start.elapsed().as_secs_f64();
            // Before any completion (or on a degenerate clock) there is no
            // rate to report: print `--` rather than 0.0/inf/NaN noise.
            let (rate, eta) = if new == 0 || secs <= f64::EPSILON {
                ("--".to_string(), "--".to_string())
            } else {
                let r = new as f64 / secs;
                let eta = if total >= done {
                    format!("{:.0}s", (total - done) as f64 / r)
                } else {
                    "?".to_string()
                };
                (format!("{r:.1}"), eta)
            };
            let kinds: Vec<String> = OutcomeKind::ALL
                .iter()
                .map(|k| {
                    format!(
                        "{} {}",
                        k.as_str(),
                        self.kind_counts[k.index()].load(Ordering::Relaxed)
                    )
                })
                .collect();
            let shortcuts = self.shortcuts();
            let shortcuts = if shortcuts == Shortcuts::default() {
                String::new()
            } else {
                format!(", settled {} stopped early {}", shortcuts.settled, shortcuts.stopped_early)
            };
            // Degraded durability is reported on every beat, not buried in
            // a one-time warning that scrolled away hours ago.
            let failures = self.durable_write_failures.load(Ordering::SeqCst);
            let durability = if self.checkpointing_disabled.load(Ordering::SeqCst) {
                format!(", durable-write failures {failures} (checkpointing disabled)")
            } else if failures > 0 {
                format!(", durable-write failures {failures}")
            } else {
                String::new()
            };
            eprintln!(
                "heartbeat[{label}]: {done}/{total} trials, {rate} trials/s, eta {eta}, workers {}, {}{shortcuts}{}{durability}",
                live(),
                kinds.join(" "),
                extra()
            );
        }
    }
}

/// An RAII guard retiring one pre-registered worker slot on drop.
/// [`OpenCampaign::execute`] stores the worker count before launching
/// workers, and each worker (thread or supervisor-side shard handler) holds
/// one guard — so [`Shared::monitor`] observes a non-zero count from before
/// the first worker starts until after the last exits.
struct WorkerGuard<'a>(&'a Shared);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.active_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Load the checkpoint at `path`, quarantining corruption: a file that
/// fails to *parse* (truncated mid-write by a crash, damaged on disk) is
/// renamed to `<path>.corrupt` with a warning and the campaign restarts
/// from zero, instead of wedging every future resume of the run. Version
/// and config mismatches still error — those are real incompatibilities,
/// not damage.
pub(crate) fn load_or_quarantine(
    path: &std::path::Path,
) -> Result<Option<checkpoint::Checkpoint>, CheckpointError> {
    match checkpoint::load(path) {
        Ok(ck) => Ok(Some(ck)),
        Err(CheckpointError::Malformed { detail }) => {
            // Quarantine failing (permissions, a vanished parent dir) is a
            // warning, not an abort: the campaign restarts from zero and its
            // next document write overwrites the corrupt file anyway.
            let instead = "restarting campaign over it";
            crate::durable::quarantine_with_warning(path, "checkpoint", &detail, instead);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// The trials a campaign has durably completed: the checkpoint document
/// (fingerprint-validated) with the write-ahead journal's surviving frames
/// merged over it, in `budget` slots. Returns the slots, how many trials
/// they hold, and how many only the journal held. Writes nothing beyond the
/// journal's own repair (torn tails truncated, corruption quarantined).
///
/// # Errors
///
/// A document that cannot be read or belongs to another campaign;
/// [`CheckpointError::TrialOutOfRange`] for a recorded trial outside the
/// budget; [`CheckpointError::Malformed`] when a journal frame *conflicts*
/// with the document, which only mixed-up artifacts can produce.
fn recover_slots(
    runner: &RunnerConfig,
    workload: &str,
    fingerprint: u64,
    budget: usize,
) -> Result<(Vec<Option<SingleBitRecord>>, usize, usize), InjectError> {
    let mut slots: Vec<Option<SingleBitRecord>> = vec![None; budget];
    let (mut resumed, mut journaled) = (0usize, 0usize);
    let Some(path) = &runner.checkpoint else {
        return Ok((slots, resumed, journaled));
    };
    let out_of_range = |trial| CheckpointError::TrialOutOfRange { trial, budget: budget as u64 };
    if path.exists() {
        if let Some(ck) = load_or_quarantine(path)? {
            if ck.config_hash != fingerprint {
                return Err(CheckpointError::ConfigMismatch {
                    expected: fingerprint,
                    found: ck.config_hash,
                }
                .into());
            }
            for rec in ck.records {
                let trial = rec.trial;
                let slot = slots.get_mut(trial as usize).ok_or(out_of_range(trial))?;
                if slot.is_none() {
                    resumed += 1;
                }
                *slot = Some(rec);
            }
        }
    }
    for rec in wal::recover(path, workload, fingerprint)?.records {
        let trial = rec.trial;
        match merge_slot(&mut slots, rec, true) {
            MergeVerdict::Fresh => {
                resumed += 1;
                journaled += 1;
            }
            // A crash between writing the document and starting a fresh
            // journal leaves the compacted frames behind; they replay as
            // no-ops.
            MergeVerdict::Duplicate => {}
            MergeVerdict::Conflict { detail } => {
                return Err(CheckpointError::Malformed {
                    detail: format!(
                        "journal record for trial {trial} conflicts with the checkpoint \
                         ({detail}); artifacts are from different campaigns"
                    ),
                }
                .into())
            }
            MergeVerdict::Foreign { trial } => return Err(out_of_range(trial).into()),
        }
    }
    Ok((slots, resumed, journaled))
}

/// Run (or resume) a single-bit campaign under the given execution config.
///
/// Trials are crash-isolated: a fault that panics the interpreter is
/// recorded as [`Outcome::Crash`] and the campaign continues. The summary
/// is bit-identical for any `threads` setting and for any interrupt/resume
/// schedule of the same campaign.
///
/// # Errors
///
/// [`InjectError::GoldenRunFailed`] if the fault-free reference run fails;
/// [`InjectError::Checkpoint`] if a configured checkpoint cannot be loaded,
/// does not match this campaign, or cannot be written;
/// [`InjectError::BadConfig`] for inconsistent runner settings.
pub fn run_campaign(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
) -> Result<CampaignReport, InjectError> {
    run_campaign_with(workload, cfg, runner, &golden_shape(workload, cfg)?)
}

/// Trials a thread worker claims per atomic increment, and the most a
/// commit group holds in any mode. Chunking changes only which worker runs
/// which trial — records land in per-trial slots, so summaries stay
/// bit-identical at any chunk size or thread count.
pub(crate) const CLAIM_CHUNK: usize = 32;

/// A trial waiting in a commit group: its record, its wall-clock in
/// microseconds, and whether its sender holds a lease covering it (always,
/// for a thread worker).
pub(crate) type Offer = (SingleBitRecord, u64, bool);

/// An open commit group: a thread worker's or a supervisor handler's
/// finished trials, not yet journaled. A crash loses at most this group.
pub(crate) struct CommitGroup<'s> {
    shared: &'s Shared,
    trials: Vec<Offer>,
    /// The last commit's verdicts, reused so commits do not allocate.
    verdicts: Vec<(u64, MergeVerdict)>,
    /// Trials at which the group is full.
    limit: usize,
}

impl<'s> CommitGroup<'s> {
    pub(crate) fn new(shared: &'s Shared, limit: usize) -> Self {
        let trials = Vec::with_capacity(limit.min(CLAIM_CHUNK));
        CommitGroup { shared, trials, verdicts: Vec::new(), limit }
    }

    /// Add a finished trial; returns whether the group is now full.
    pub(crate) fn push(&mut self, record: SingleBitRecord, elapsed_us: u64, leased: bool) -> bool {
        self.trials.push((record, elapsed_us, leased));
        self.trials.len() >= self.limit
    }

    /// Add a locally-run trial, committing the group once it is full. The
    /// preempt drill counts the open group, so its signal lands while the
    /// group is still uncommitted unless this trial filled it.
    fn add(&mut self, record: SingleBitRecord, elapsed_us: u64) {
        let open = self.shared.completed.load(Ordering::SeqCst) + self.trials.len() + 1;
        if self.push(record, elapsed_us, true) {
            self.commit();
        }
        crate::signals::preempt_drill(open - 1, open);
    }

    /// Commit the group through [`Shared::commit`]: returns the completion
    /// count after it and each merged record's trial and verdict.
    pub(crate) fn commit(&mut self) -> (usize, &[(u64, MergeVerdict)]) {
        let done = self.shared.commit(&mut self.trials, &mut self.verdicts);
        (done, &self.verdicts)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Whether the open group already holds a record for `trial`.
    pub(crate) fn holds(&self, trial: u64) -> bool {
        self.trials.iter().any(|(record, _, _)| record.trial == trial)
    }
}

/// [`run_campaign`] against an already-computed golden shape, so callers
/// scheduling several budgets over the same campaign config (adaptive
/// sizing) pay for the double golden integrity run once, not per stage.
pub(crate) fn run_campaign_with(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
    golden: &GoldenShape,
) -> Result<CampaignReport, InjectError> {
    if runner.batch_width == 0 {
        return Err(InjectError::BadConfig {
            detail: "batch_width must be at least 1 (1 = sequential execution)".into(),
        });
    }
    let campaign = OpenCampaign::open(workload, cfg, runner, golden, &[])?;
    campaign.run_threads();
    campaign.finish(Supervision::default())
}

/// A campaign opened for execution: validated, its sampler built, its
/// completed trials restored from the checkpoint and journal, and its work
/// list cut to the trial budget. Both execution modes run the same
/// lifecycle — [`OpenCampaign::open`], then [`OpenCampaign::execute`] with
/// their own workers, then [`OpenCampaign::finish`] — and differ only in
/// what their workers do and the [`Supervision`] data they hand back.
pub(crate) struct OpenCampaign<'a> {
    pub(crate) workload: &'a Workload,
    pub(crate) cfg: &'a CampaignConfig,
    pub(crate) runner: &'a RunnerConfig,
    pub(crate) golden: &'a GoldenShape,
    /// `None` only for a zero-budget campaign, which samples nothing.
    pub(crate) sampler: Option<SiteSampler>,
    pub(crate) fingerprint: u64,
    /// Trials restored from the checkpoint and journal.
    resumed: usize,
    /// Trials this call will run, oldest first.
    pub(crate) pending: Vec<u64>,
    /// Trials missing before the trial budget cut the work list.
    total_missing: usize,
    pub(crate) shared: Shared,
}

/// What supervised execution adds to a finished campaign, as plain data.
/// Thread mode passes the default: nothing poisoned, no sidecar, no fatal
/// error, nothing audited. A supervised campaign that degraded to threads
/// passes only the earlier runs' poison and the sidecar path.
#[derive(Default)]
pub(crate) struct Supervision {
    /// Every poisoned trial — earlier runs' and this run's — by trial.
    pub(crate) poisoned: Vec<PoisonEntry>,
    /// How many of `poisoned` this run added; they count as finished work.
    pub(crate) newly_poisoned: usize,
    /// Where the poison sidecar lives; written when anything is poisoned.
    pub(crate) poison_path: Option<PathBuf>,
    /// A campaign-fatal supervisor error, returned once the final
    /// checkpoint and the sidecar are safely written.
    pub(crate) fatal: Option<SupervisorError>,
    /// Audit and trust counters for the summary.
    pub(crate) audited: u64,
    pub(crate) audit_divergences: u64,
    pub(crate) merge_conflicts: u64,
    pub(crate) quarantined_endpoints: Vec<String>,
}

impl<'a> OpenCampaign<'a> {
    /// Validate the runner settings, build the site sampler, restore the
    /// durable state, and list the pending trials: every trial neither
    /// restored nor in `skip` (trials an earlier run poisoned), cut to the
    /// graceful-stop budget.
    ///
    /// # Errors
    ///
    /// [`InjectError::BadConfig`] for a zero `checkpoint_every` while
    /// checkpointing, or a malformed drill plan; a degenerate sample space;
    /// everything [`recover_slots`] raises.
    pub(crate) fn open(
        workload: &'a Workload,
        cfg: &'a CampaignConfig,
        runner: &'a RunnerConfig,
        golden: &'a GoldenShape,
        skip: &[u64],
    ) -> Result<Self, InjectError> {
        if runner.checkpoint.is_some() && runner.checkpoint_every == 0 {
            return Err(InjectError::BadConfig {
                detail: "checkpoint_every must be at least 1 when checkpointing".into(),
            });
        }
        crate::drill::plan().map_err(|e| InjectError::BadConfig { detail: e.into() })?;
        // A zero-budget campaign samples nothing, so a degenerate retirement
        // shape is only an error when there are trials to draw.
        let sampler = if cfg.injections == 0 {
            None
        } else {
            Some(SiteSampler::new(&golden.per_wg_retired, golden.num_vregs).map_err(
                |e| match e {
                    InjectError::EmptySampleSpace { detail } => InjectError::EmptySampleSpace {
                        detail: format!("{}: {detail}", workload.name),
                    },
                    other => other,
                },
            )?)
        };
        let fingerprint = checkpoint::config_fingerprint(workload.name, cfg);
        let (slots, resumed, journaled) =
            recover_slots(runner, workload.name, fingerprint, cfg.injections)?;
        let mut pending: Vec<u64> = (0..cfg.injections as u64)
            .filter(|&t| slots[t as usize].is_none() && !skip.contains(&t))
            .collect();
        let total_missing = pending.len();
        if let Some(cap) = runner.cancel.trial_budget() {
            pending.truncate(cap);
        }
        let durable = runner.checkpoint.clone().map(|path| Durable {
            path,
            workload: workload.name,
            fingerprint,
            mode_bits: cfg.mode_bits,
        });
        if let Some(durable) = durable.as_ref().filter(|_| journaled > 0) {
            let at = wal::wal_path(&durable.path);
            eprintln!(
                "note: recovered {journaled} trial(s) from the write-ahead journal at {}",
                at.display()
            );
        }
        let shared = Shared::new(slots, pending.len(), durable);
        shared.reopen_journal(&mut shared.committed.lock().expect("commit lock"), journaled > 0);
        Ok(OpenCampaign {
            workload,
            cfg,
            runner,
            golden,
            sampler,
            fingerprint,
            resumed,
            pending,
            total_missing,
            shared,
        })
    }

    /// Run `work(id)` on `workers` scoped threads, each retiring its worker
    /// slot on exit, with the heartbeat monitor alongside when one is
    /// configured. `label` names the execution mode, `live` counts its
    /// current workers, and `extra` appends mode-specific heartbeat detail.
    pub(crate) fn execute(
        &self,
        workers: usize,
        label: &str,
        live: &(dyn Fn() -> usize + Sync),
        extra: &(dyn Fn() -> String + Sync),
        work: &(dyn Fn(usize) + Sync),
    ) {
        self.shared.active_workers.store(workers, Ordering::SeqCst);
        std::thread::scope(|scope| {
            if let Some(interval) = self.runner.heartbeat {
                if !self.pending.is_empty() {
                    scope.spawn(move || {
                        self.shared.monitor(
                            interval,
                            self.resumed,
                            self.cfg.injections,
                            label,
                            live,
                            &|| match self.runner.cancel.cancelled() {
                                Some(reason) => format!(", draining ({reason}){}", extra()),
                                None => extra(),
                            },
                        );
                    });
                }
            }
            for id in 0..workers {
                scope.spawn(move || {
                    let _slot = WorkerGuard(&self.shared);
                    work(id)
                });
            }
        });
    }

    /// Close the campaign: write the final checkpoint and the poison
    /// sidecar — both *before* a fatal supervisor error is returned, so the
    /// evidence survives for the resume that follows the fix — then, on
    /// success only, the repro bundles, and assemble the report.
    ///
    /// # Errors
    ///
    /// A failed final save or sidecar write, `supervision.fatal`, or a
    /// bundle write failure.
    pub(crate) fn finish(self, supervision: Supervision) -> Result<CampaignReport, InjectError> {
        let (workload, fingerprint, shared) = (self.workload.name, self.fingerprint, self.shared);
        let durable_write_failures = shared.durable_write_failures.load(Ordering::SeqCst) as u64;
        let shortcuts = shared.shortcuts();
        let Committed { slots, latencies_us, .. } =
            shared.committed.into_inner().expect("commit lock");
        let records: Vec<SingleBitRecord> = slots.into_iter().flatten().collect();
        // The final checkpoint replaces the journal — a finished campaign
        // leaves exactly one durable artifact. This is the one durable write
        // that cannot be degraded away: its failure is the typed
        // FinalSaveFailed, and the campaign exits nonzero rather than
        // pretending completed trials are safe.
        if let Some(durable) = &shared.durable {
            match durable.save(&records) {
                Ok(()) => {
                    let _ = std::fs::remove_file(wal::wal_path(&durable.path));
                }
                Err(CheckpointError::Io { path, detail }) => {
                    return Err(CheckpointError::FinalSaveFailed {
                        path,
                        detail,
                        durable_write_failures,
                    }
                    .into())
                }
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(path) = &supervision.poison_path {
            if !supervision.poisoned.is_empty() {
                crate::supervisor::save_poison(path, workload, fingerprint, &supervision.poisoned)
                    .map_err(InjectError::from)?;
            }
        }
        if let Some(e) = supervision.fatal {
            return Err(e.into());
        }

        // Emit repro bundles for every visible error, in trial order. Records
        // are thread-count- and resume-invariant and an interrupted run's
        // records are a prefix of the full trial sequence, so the bundle set a
        // completed campaign ends up with is a pure function of its config.
        let mut bundles = Vec::new();
        if let Some(dir) = &self.runner.repro_dir {
            let writer = crate::bundle::BundleWriter {
                dir,
                workload,
                cfg: self.cfg,
                fingerprint,
                golden_digest: mbavf_core::rng::fnv1a(&self.golden.output),
                cap: self.runner.repro_cap,
            };
            bundles = writer.write(&records, &|r| r.outcome.is_error())?;
            // Poisoned trials get repro bundles too: the whole point of the
            // quarantine is that someone replays them later, in isolation.
            let poison_records: Vec<SingleBitRecord> = supervision
                .poisoned
                .iter()
                .map(|e| SingleBitRecord {
                    trial: e.trial,
                    site: e.site,
                    outcome: Outcome::Crash { reason: format!("poison: {}", e.reason) },
                    read_before_overwrite: false,
                })
                .collect();
            bundles.extend(writer.write(&poison_records, &|_| true)?);
        }

        let newly_run = shared.completed.into_inner();
        let complete = newly_run + supervision.newly_poisoned == self.total_missing;
        let trial_latency = LatencyStats::from_micros(latencies_us);
        Ok(CampaignReport {
            summary: CampaignSummary {
                workload,
                records,
                durable_write_failures,
                audited: supervision.audited,
                audit_divergences: supervision.audit_divergences,
                merge_conflicts: supervision.merge_conflicts,
                quarantined_endpoints: supervision.quarantined_endpoints,
            },
            resumed: self.resumed,
            newly_run,
            complete,
            // An incomplete run with no tripped token can only be the armed
            // trial budget: the pending list was truncated before any worker
            // spawned, so there is no reason atomic to consult.
            interrupted: (!complete).then(|| {
                self.runner.cancel.cancelled().unwrap_or(crate::cancel::CancelReason::TrialBudget)
            }),
            bundles,
            poisoned: supervision.poisoned,
            trial_latency,
            shortcuts,
        })
    }

    /// Run the pending trials on in-process worker threads
    /// ([`RunnerConfig::threads`] of them, at most one per pending trial).
    pub(crate) fn run_threads(&self) {
        let threads = worker_count(self.runner.threads, self.pending.len());
        self.execute(
            threads,
            "thread",
            &|| self.shared.active_workers.load(Ordering::SeqCst),
            &String::new,
            &|_| self.run_thread_worker(),
        );
    }

    /// One thread-mode worker: claim chunks of pending trials, run them
    /// unit by unit on a per-thread executor, and commit them in groups.
    fn run_thread_worker(&self) {
        let (runner, shared) = (self.runner, &self.shared);
        // Built lazily on the first claimed chunk: one instance build per
        // worker per campaign.
        let mut exec: Option<TrialExecutor> = None;
        let limit = if runner.checkpoint.is_some() { runner.checkpoint_every } else { usize::MAX };
        let mut group = CommitGroup::new(shared, limit);
        loop {
            // Graceful preemption: stop claiming work once the token trips.
            // Unclaimed and unstarted trials simply stay pending; every
            // committed trial is already durable.
            if runner.cancel.cancelled().is_some() {
                return;
            }
            let start = shared.next.fetch_add(CLAIM_CHUNK, Ordering::SeqCst);
            let end = self.pending.len().min(start.saturating_add(CLAIM_CHUNK));
            if start >= end {
                return;
            }
            let exec = exec.get_or_insert_with(|| {
                let sampler = self.sampler.as_ref().expect("pending trials imply a sampler");
                TrialExecutor::new(
                    self.workload,
                    self.cfg,
                    self.golden,
                    sampler,
                    runner.batch_width,
                )
            });
            let width = exec.width();
            for unit in self.pending[start..end].chunks(width) {
                // The unit is the trial boundary: a lockstep group in
                // flight finishes and commits whole before the token is
                // honored.
                if runner.cancel.cancelled().is_some() {
                    group.commit();
                    return;
                }
                for (record, elapsed_us) in exec.run_unit(unit) {
                    group.add(record, elapsed_us);
                }
                shared.count_shortcuts(exec.take_shortcuts());
                // Each lockstep group commits as (at least) one group.
                if width > 1 {
                    group.commit();
                }
            }
            // The end of the claimed chunk closes the group.
            group.commit();
        }
    }
}

/// How an adaptive campaign decides it has run enough trials.
///
/// The campaign grows its budget in deterministic stages — `batch`,
/// `2×batch`, `4×batch`, … capped at `max_injections` — and after each
/// *complete* stage evaluates the Wilson interval of the SDC rate. It stops
/// as soon as the interval's halfwidth is at most `target_halfwidth`.
///
/// Because stage boundaries are a pure function of `(batch,
/// max_injections)` and each stage's records are thread-count-invariant,
/// the final trial count — and every record in it — is bit-identical across
/// thread counts and across interrupt/resume schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Stop when the SDC interval halfwidth is at most this.
    pub target_halfwidth: f64,
    /// Confidence level of the interval being tightened (e.g. 0.95).
    pub confidence: f64,
    /// First-stage trial budget; later stages double it.
    pub batch: usize,
    /// Hard trial cap: the campaign never exceeds this many injections,
    /// even if the target was not reached.
    pub max_injections: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self { target_halfwidth: 0.05, confidence: 0.95, batch: 100, max_injections: 5000 }
    }
}

impl AdaptiveConfig {
    /// The deterministic stage-budget sequence: `batch`, `2×batch`, …,
    /// ending exactly at `max_injections`.
    pub fn stage_budgets(&self) -> Vec<usize> {
        let mut budgets = Vec::new();
        let mut b = self.batch.min(self.max_injections).max(1);
        loop {
            budgets.push(b);
            if b >= self.max_injections {
                return budgets;
            }
            b = b.saturating_mul(2).min(self.max_injections);
        }
    }
}

/// What [`run_adaptive`] accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// The final stage's campaign report (all completed trials).
    pub report: CampaignReport,
    /// SDC rate with its interval at the adaptive confidence level,
    /// evaluated over the final records.
    pub sdc: mbavf_core::stats::RateEstimate,
    /// Whether the halfwidth target was reached (as opposed to hitting the
    /// trial cap, or being cancelled through the runner's token).
    pub target_met: bool,
    /// Stage budgets actually evaluated, in order.
    pub stages: Vec<usize>,
}

/// Run a campaign adaptively: keep scheduling trial batches until the SDC
/// rate's confidence interval is tighter than
/// [`AdaptiveConfig::target_halfwidth`] or the budget reaches
/// [`AdaptiveConfig::max_injections`].
///
/// `cfg.injections` is ignored — the adaptive schedule owns the budget.
/// Checkpointing works exactly as in [`run_campaign`] (the config
/// fingerprint excludes the budget, so every stage extends the same
/// checkpoint), and an interrupted adaptive run resumes into the identical
/// stage sequence: the result is bit-identical across thread counts and
/// interruption schedules.
///
/// # Errors
///
/// Everything [`run_campaign`] can raise, plus [`InjectError::BadConfig`]
/// for a non-positive target, a confidence outside `(0, 1)`, a zero batch,
/// or a zero trial cap.
pub fn run_adaptive(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
    adaptive: &AdaptiveConfig,
) -> Result<AdaptiveReport, InjectError> {
    if adaptive.target_halfwidth.is_nan() || adaptive.target_halfwidth <= 0.0 {
        return Err(InjectError::BadConfig {
            detail: format!("target halfwidth must be positive, got {}", adaptive.target_halfwidth),
        });
    }
    if adaptive.confidence.is_nan() || adaptive.confidence <= 0.0 || adaptive.confidence >= 1.0 {
        return Err(InjectError::BadConfig {
            detail: format!("confidence must be in (0, 1), got {}", adaptive.confidence),
        });
    }
    if adaptive.batch == 0 || adaptive.max_injections == 0 {
        return Err(InjectError::BadConfig {
            detail: "adaptive batch and max_injections must be at least 1".into(),
        });
    }

    // The golden shape depends on (workload, scale, hang_factor) but not on
    // the budget, so one double-run integrity check covers every stage.
    let golden = golden_shape(workload, cfg)?;

    // Resuming: skip straight to the first stage whose budget covers every
    // already-recorded trial — in the document *or* the journal, recovered
    // exactly as the stage's own open step will — so a run killed mid-stage
    // never trips the budget bound. Skipped stages were already evaluated
    // as "not tight enough" by the run that recorded past them.
    let budgets = adaptive.stage_budgets();
    let fingerprint = checkpoint::config_fingerprint(workload.name, cfg);
    let (recorded, _, _) =
        recover_slots(runner, workload.name, fingerprint, adaptive.max_injections)?;
    let start_stage = match recorded.iter().rposition(Option::is_some) {
        Some(max_trial) => budgets.iter().position(|&b| b > max_trial).unwrap_or(budgets.len() - 1),
        None => 0,
    };

    let mut stages = Vec::new();
    for (i, &budget) in budgets.iter().enumerate().skip(start_stage) {
        let stage_cfg = CampaignConfig { injections: budget, ..*cfg };
        let report = run_campaign_with(workload, &stage_cfg, runner, &golden)?;
        stages.push(budget);
        let sdc = report.summary.stats(adaptive.confidence).sdc;
        if !report.complete {
            // Cancellation interrupted the stage; report partial state. The
            // checkpoint (if any) lets a later call resume this exact stage.
            return Ok(AdaptiveReport { report, sdc, target_met: false, stages });
        }
        let target_met = sdc.halfwidth() <= adaptive.target_halfwidth;
        if target_met || i + 1 == budgets.len() {
            return Ok(AdaptiveReport { report, sdc, target_met, stages });
        }
    }
    unreachable!("stage_budgets is never empty");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FaultSite, OutcomeKind};
    use mbavf_workloads::by_name;

    fn cfg(n: usize) -> CampaignConfig {
        CampaignConfig { seed: 0xD15EA5E, injections: n, ..CampaignConfig::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mbavf-runner-{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn serial_and_parallel_summaries_are_bit_identical() {
        let w = by_name("prefix_sum").expect("registered");
        let cfg = cfg(24);
        let serial = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        for threads in [2, 8] {
            let par = run_campaign(&w, &cfg, &RunnerConfig { threads, ..RunnerConfig::default() })
                .unwrap();
            assert_eq!(par.summary, serial.summary, "threads={threads}");
        }
        assert!(serial.complete);
        assert_eq!(serial.newly_run, 24);
        assert_eq!(serial.resumed, 0);
    }

    fn record(trial: usize) -> SingleBitRecord {
        SingleBitRecord {
            trial: trial as u64,
            site: FaultSite {
                wg: trial as u32,
                after_retired: trial as u64 * 3,
                reg: 1,
                lane: 2,
                bit: 3,
            },
            outcome: crate::campaign::Outcome::Sdc,
            read_before_overwrite: false,
        }
    }

    /// A `Shared` for `trials` trials checkpointing to `path`, with its
    /// journal open as [`OpenCampaign::open`] leaves it.
    fn journaled_shared(path: &std::path::Path, trials: usize) -> Shared {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(wal::wal_path(path)).ok();
        let durable = Durable {
            path: path.to_path_buf(),
            workload: "dct",
            fingerprint: 0xFEED,
            mode_bits: 1,
        };
        let shared = Shared::new(vec![None; trials], trials, Some(durable));
        shared.reopen_journal(&mut shared.committed.lock().unwrap(), false);
        assert!(shared.committed.lock().unwrap().journal.is_some());
        shared
    }

    /// Concurrent group commits of mixed sizes journal every record: with
    /// no checkpoint document written during the run, recovery from the
    /// journal alone must hand every committed record back.
    #[test]
    fn concurrent_group_commits_journal_every_committed_record() {
        const TRIALS: usize = 480;
        const WORKERS: usize = 4;
        const GROUP_SIZES: [usize; 3] = [1, 7, 32];
        let dir = tmpdir("group-commits");
        let path = dir.join("race.ckpt.json");
        let shared = journaled_shared(&path, TRIALS);

        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let shared = &shared;
                scope.spawn(move || {
                    let mut group = Vec::new();
                    let mut sizes = GROUP_SIZES.iter().cycle().skip(worker);
                    let mut size = *sizes.next().unwrap();
                    for trial in (worker..TRIALS).step_by(WORKERS) {
                        group.push((record(trial), 1, true));
                        if group.len() == size {
                            shared.commit(&mut group, &mut Vec::new());
                            assert!(group.is_empty(), "commit drains the group");
                            size = *sizes.next().unwrap();
                        }
                    }
                    shared.commit(&mut group, &mut Vec::new());
                });
            }
        });
        assert_eq!(shared.durable_write_failures.load(Ordering::SeqCst), 0);
        assert_eq!(shared.completed.load(Ordering::SeqCst), TRIALS);
        assert!(!path.exists(), "commits must never write the checkpoint document");

        // "Crash" here: resume from disk alone and demand every record back.
        let runner = RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::default() };
        let (slots, resumed, journaled) = recover_slots(&runner, "dct", 0xFEED, TRIALS).unwrap();
        assert_eq!(slots.iter().flatten().count(), TRIALS);
        assert_eq!((resumed, journaled), (TRIALS, TRIALS));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker's group commits on its own once it holds `checkpoint_every`
    /// trials, so no journaled group — and no crash's loss — exceeds it.
    #[test]
    fn no_journaled_group_exceeds_checkpoint_every() {
        let dir = tmpdir("group-bound");
        let path = dir.join("bound.ckpt.json");
        for every in [1, 3, 4] {
            let shared = journaled_shared(&path, 10);
            let mut group = CommitGroup::new(&shared, every);
            for trial in 0..10 {
                group.add(record(trial), 1);
                let journaled = wal::recover(&path, "dct", 0xFEED).unwrap().records.len();
                assert_eq!(journaled, (trial + 1) / every * every, "every {every}, trial {trial}");
            }
            group.commit();
            assert_eq!(wal::recover(&path, "dct", 0xFEED).unwrap().records.len(), 10);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed append is repaired under the commit lock: every committed
    /// record — the failing group included — is compacted into the
    /// checkpoint document, and the next group lands in a fresh journal.
    #[test]
    fn failed_append_is_repaired_into_the_document_and_a_fresh_journal() {
        let dir = tmpdir("repair");
        let path = dir.join("repair.ckpt.json");
        let shared = journaled_shared(&path, 6);
        shared.commit(&mut vec![(record(0), 1, true), (record(1), 1, true)], &mut Vec::new());

        // A crash reason past the journal's 1 MiB frame cap fails the append.
        let mut big = record(2);
        big.outcome = crate::campaign::Outcome::Crash { reason: "x".repeat((1 << 20) + 1) };
        let failing = vec![(big, 1, true), (record(3), 1, true)];
        shared.commit(&mut failing.clone(), &mut Vec::new());
        assert_eq!(shared.durable_write_failures.load(Ordering::SeqCst), 1);
        assert!(!shared.checkpointing_disabled.load(Ordering::SeqCst));
        let document = checkpoint::load(&path).unwrap().records;
        let expect: Vec<SingleBitRecord> = [record(0), record(1)]
            .into_iter()
            .chain(failing.into_iter().map(|(r, _, _)| r))
            .collect();
        assert_eq!(document, expect, "the document holds every committed record");
        assert!(wal::recover(&path, "dct", 0xFEED).unwrap().records.is_empty());

        shared.commit(&mut vec![(record(4), 1, true)], &mut Vec::new());
        assert_eq!(wal::recover(&path, "dct", 0xFEED).unwrap().records, vec![record(4)]);
        assert_eq!(shared.durable_write_failures.load(Ordering::SeqCst), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One commit merges a mixed group in order and stops at the first
    /// conflict: the records after it stay unmerged, and only the fresh
    /// records before it are journaled and counted.
    #[test]
    fn a_mixed_group_commits_up_to_its_first_conflict() {
        let dir = tmpdir("mixed");
        let path = dir.join("mixed.ckpt.json");
        let shared = journaled_shared(&path, 5);
        // Trial 1 was committed before the journal opened, as a resume's
        // document records are.
        shared.committed.lock().unwrap().slots[1] = Some(record(1));
        let mut conflicting = record(1);
        conflicting.outcome = crate::campaign::Outcome::Masked;
        let mut group = CommitGroup::new(&shared, usize::MAX);
        for (r, leased) in [(record(0), true), (record(1), false), (record(2), true)] {
            group.push(r, 1, leased);
        }
        group.push(conflicting, 1, false);
        group.push(record(3), 1, true);
        let (done, verdicts) = group.commit();
        assert_eq!(done, 2);
        let trials: Vec<u64> = verdicts.iter().map(|(t, _)| *t).collect();
        assert_eq!(trials, vec![0, 1, 2, 1], "the verdicts stop at the conflict");
        assert_eq!(verdicts[0].1, MergeVerdict::Fresh);
        assert_eq!(verdicts[1].1, MergeVerdict::Duplicate);
        assert_eq!(verdicts[2].1, MergeVerdict::Fresh);
        assert!(matches!(verdicts[3].1, MergeVerdict::Conflict { .. }));
        assert!(group.is_empty(), "the records after the conflict are dropped");
        assert_eq!(shared.completed.load(Ordering::SeqCst), 2);
        assert_eq!(wal::recover(&path, "dct", 0xFEED).unwrap().records, vec![record(0), record(2)]);
        let committed = shared.committed.lock().unwrap();
        assert_eq!(committed.slots[1], Some(record(1)), "a conflict never overwrites");
        assert_eq!(committed.slots[3], None, "the trailing record is left unmerged");
        assert_eq!(committed.latencies_us.len(), 2);
        drop(committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_then_resumed_matches_uninterrupted() {
        let w = by_name("scan_large").expect("registered");
        let cfg = cfg(18);
        let dir = tmpdir("resume");
        let path = dir.join("scan.ckpt.json");
        std::fs::remove_file(&path).ok();

        let uninterrupted = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

        // "Kill" the campaign after 7 trials, then resume twice.
        let stop = RunnerConfig {
            threads: 2,
            checkpoint: Some(path.clone()),
            checkpoint_every: 3,
            cancel: crate::cancel::CancelToken::limited(7),
            ..RunnerConfig::default()
        };
        let first = run_campaign(&w, &cfg, &stop).unwrap();
        assert!(!first.complete);
        assert_eq!(first.interrupted, Some(crate::cancel::CancelReason::TrialBudget));
        assert_eq!(first.newly_run, 7);

        let second = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { cancel: crate::cancel::CancelToken::limited(7), ..stop.clone() },
        )
        .unwrap();
        assert!(!second.complete);
        assert_eq!(second.resumed, 7);
        assert_eq!(second.newly_run, 7);

        let finish = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::default() },
        )
        .unwrap();
        assert!(finish.complete);
        assert_eq!(finish.resumed, 14);
        assert_eq!(finish.newly_run, 4);
        assert_eq!(finish.summary, uninterrupted.summary);

        // Running again is a no-op resume: everything restored, nothing run.
        let again = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::default() },
        )
        .unwrap();
        assert!(again.complete);
        assert_eq!(again.newly_run, 0);
        assert_eq!(again.summary, uninterrupted.summary);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tripped_token_stops_before_any_trial_and_names_the_reason() {
        let w = by_name("scan_large").expect("registered");
        let cfg = cfg(12);

        let signalled = RunnerConfig { threads: 2, ..RunnerConfig::default() };
        signalled.cancel.cancel(crate::cancel::CancelReason::Signal);
        let report = run_campaign(&w, &cfg, &signalled).unwrap();
        assert_eq!(report.newly_run, 0);
        assert!(!report.complete);
        assert_eq!(report.interrupted, Some(crate::cancel::CancelReason::Signal));

        // An already-expired wall-clock budget behaves identically (the
        // token trips lazily on the first poll), with its own reason. The
        // batched path honors the token at its group boundary too.
        let walled = RunnerConfig { threads: 2, batch_width: 4, ..RunnerConfig::default() };
        walled.cancel.set_max_wall(Duration::ZERO);
        let report = run_campaign(&w, &cfg, &walled).unwrap();
        assert_eq!(report.newly_run, 0);
        assert!(!report.complete);
        assert_eq!(report.interrupted, Some(crate::cancel::CancelReason::WallClock));
    }

    #[test]
    fn resume_refuses_a_different_campaign() {
        let w = by_name("transpose").expect("registered");
        let dir = tmpdir("mismatch");
        let path = dir.join("ck.json");
        std::fs::remove_file(&path).ok();
        let a = cfg(6);
        run_campaign(
            &w,
            &a,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() },
        )
        .unwrap();

        let b = CampaignConfig { seed: a.seed + 1, ..a };
        let err = run_campaign(
            &w,
            &b,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() },
        )
        .unwrap_err();
        assert!(matches!(err, InjectError::Checkpoint(CheckpointError::ConfigMismatch { .. })));

        // A shrunken budget makes recorded trials out of range.
        let small = CampaignConfig { injections: 3, ..a };
        std::fs::write(
            &path,
            checkpoint::render(
                w.name,
                checkpoint::config_fingerprint(w.name, &small),
                small.mode_bits,
                &run_campaign(&w, &a, &RunnerConfig::serial()).unwrap().summary.records,
            ),
        )
        .unwrap();
        let err = run_campaign(
            &w,
            &small,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() },
        )
        .unwrap_err();
        assert!(matches!(err, InjectError::Checkpoint(CheckpointError::TrialOutOfRange { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_outcomes_are_recorded_not_fatal() {
        // With OOB wrapping off, corrupted address registers fault the
        // interpreter; the runner must record those panics as Crash data
        // while the campaign (and the test harness) survives.
        let w = by_name("histogram").expect("registered");
        let cfg = CampaignConfig {
            seed: 0xC0FFEE,
            injections: 120,
            wrap_oob: false,
            ..CampaignConfig::default()
        };
        let report =
            run_campaign(&w, &cfg, &RunnerConfig { threads: 4, ..RunnerConfig::default() })
                .unwrap();
        assert!(report.complete);
        let crashes = report.summary.count(OutcomeKind::Crash);
        assert!(crashes > 0, "expected some wild accesses to crash");
        for r in &report.summary.records {
            if let crate::campaign::Outcome::Crash { reason } = &r.outcome {
                assert!(!reason.is_empty());
            }
        }
        // Crash fraction participates in the taxonomy.
        let f = report.summary.fractions();
        assert!((f.masked + f.sdc + f.hang + f.crash - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_have_nearest_rank_semantics_at_tiny_n() {
        // n = 1: every percentile is the one sample.
        let s = LatencyStats::from_micros(vec![42]).unwrap();
        assert_eq!((s.n, s.p50_us, s.p99_us, s.max_us), (1, 42, 42, 42));
        // n = 2: nearest-rank p50 is the *lower* sample (ceil(0.5·2) = 1),
        // p99 and max are the upper.
        let s = LatencyStats::from_micros(vec![20, 10]).unwrap();
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (10, 20, 20));
        // n = 3: p50 is the middle sample (ceil(1.5) = 2), p99 the last.
        let s = LatencyStats::from_micros(vec![30, 10, 20]).unwrap();
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (20, 30, 30));
        // q = 1.0 ranks to the last sample without overflowing the clamp.
        let rank_full = LatencyStats::from_micros(vec![5, 7, 6]).unwrap().max_us;
        assert_eq!(rank_full, 7);
        // Empty sample: no stats, not a panic.
        assert!(LatencyStats::from_micros(Vec::new()).is_none());
    }

    #[test]
    fn batched_widths_produce_identical_summaries_and_sane_latency() {
        let w = by_name("dct").expect("registered");
        let cfg = cfg(40);
        let base = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        for (threads, width) in [(1, 2), (1, 8), (3, 8), (2, 40)] {
            let batched = run_campaign(
                &w,
                &cfg,
                &RunnerConfig { threads, batch_width: width, ..RunnerConfig::default() },
            )
            .unwrap();
            assert_eq!(batched.summary, base.summary, "threads={threads} width={width}");
            // One latency sample per trial, not per batch.
            assert_eq!(batched.trial_latency.unwrap().n, 40);
        }
    }

    #[test]
    fn zero_batch_width_is_rejected() {
        let w = by_name("transpose").expect("registered");
        let bad = RunnerConfig { batch_width: 0, ..RunnerConfig::default() };
        assert!(matches!(run_campaign(&w, &cfg(2), &bad), Err(InjectError::BadConfig { .. })));
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let w = by_name("transpose").expect("registered");
        let bad = RunnerConfig {
            checkpoint: Some(std::env::temp_dir().join("unused.json")),
            checkpoint_every: 0,
            ..RunnerConfig::default()
        };
        assert!(matches!(run_campaign(&w, &cfg(2), &bad), Err(InjectError::BadConfig { .. })));
    }
}
