//! Fault-tolerant supervisor: survive workers that really die — or that
//! live on the far side of a hostile network.
//!
//! The thread-mode engine in [`crate::runner`] crash-isolates *unwinding*
//! panics, but a fault campaign can provoke failures no in-process mechanism
//! survives: `std::process::abort`, stack exhaustion, the OOM killer, or a
//! livelock that outruns the hang guard. This module runs trials in
//! **worker daemons** — local children of this binary, or processes on
//! other machines — so the supervising campaign outlives all of them.
//!
//! ## Architecture
//!
//! [`run_supervised`] shards the pending trial indices into contiguous
//! blocks whose boundaries depend only on the trial index (`trial /
//! shard_size`), so the shard layout — and therefore every record — is
//! invariant under the worker count. Each supervisor-side handler thread
//! holds one persistent TCP connection to a worker daemon
//! ([`serve_main`]) and leases shards to it over a `transport::Transport`:
//!
//! * **Local** ([`TransportKind::Local`], the default): the daemon is a
//!   child of this process — the current executable re-executed with the
//!   hidden `__serve` argv (hosting binaries route it to [`serve_main`]) on
//!   a loopback ephemeral port. It is spawned on the handler's first lease,
//!   respawned when it dies, and SIGKILLed when its lease is revoked.
//! * **TCP** ([`TransportKind::Tcp`]): the daemons are `campaign --listen`
//!   processes at the given endpoints, one handler per endpoint.
//!
//! Per connection the supervisor sends the campaign config once (a hello
//! frame), then a lease frame per shard. Frames are length-delimited JSON:
//!
//! 1. a handshake — `{"mbavf_worker": 1, "fingerprint": <u64>}` — that the
//!    supervisor validates against its own config fingerprint,
//! 2. one record frame per trial, in order (checkpoint record fields plus
//!    `"us"`, the trial's wall-clock in microseconds), interleaved with
//!    `{"hb": N}` heartbeat frames,
//! 3. a `{"done": N}` sentinel on success; or `{"error": "<detail>"}` for a
//!    fatal configuration error.
//!
//! ## Failure policy
//!
//! While a worker holds a shard, a `lease::Lease` tracks the revocation
//! deadline: a **sliding lease** (`lease_timeout`) renewed by progress —
//! records, or heartbeat frames whose completion count advanced, so a
//! livelocked executor with a beating heart still loses its lease. A missed
//! deadline revokes the lease (sever the socket; kill a local daemon) and
//! retries the shard's *remaining* trials with bounded, per-handler-jittered
//! exponential backoff; because records arrive in trial order and are
//! committed through an idempotent [`merge`] keyed by trial index, a
//! reconnect simply re-leases from the first missing trial, and duplicated
//! or reordered records can never double-count. A **remote endpoint that
//! stays unreachable** hands its shard — failure history intact — back to
//! the queue for any surviving endpoint to pick up.
//!
//! After `max_retries` consecutive no-progress failures a shard's head trial
//! is **poisoned**: excluded from the summary (the campaign completes with
//! N−1 trials, counted honestly), quarantined into a fingerprint-validated
//! `*.poison.json` sidecar next to the checkpoint, given a standard repro
//! bundle, and skipped by every future resume. More than `max_poison` total
//! poisoned trials aborts the campaign with
//! [`SupervisorError::TooManyPoisoned`] — mass poisoning means the
//! environment, not the trials, is broken.
//!
//! ## Graceful degradation
//!
//! If no worker has produced anything yet — local daemons cannot be
//! spawned, the first frame is not a valid handshake, or no TCP endpoint
//! ever connects — the supervisor warns and falls back one isolation level
//! (remote daemons → local daemons → threads) instead of failing the
//! campaign: same checkpoint, bit-identical records. Thread workers take
//! over the already-open campaign, so trials poisoned by earlier runs stay
//! skipped and reported. Once work has been
//! committed the fallback is off the table, and losing every endpoint
//! raises [`TransportError::AllEndpointsLost`].

use crate::campaign::{golden_shape, CampaignConfig, FaultSite, SingleBitRecord, TrialExecutor};
use crate::checkpoint;
use crate::durable::{atomic_write_durable, jittered_backoff, quarantine_with_warning};
use crate::json::{self, Value};
use crate::runner::{
    worker_count, CampaignReport, OpenCampaign, RemoteCommit, RunnerConfig, Supervision,
};
use mbavf_core::error::{InjectError, SupervisorError, TransportError};
use mbavf_workloads::Workload;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub mod audit;
pub(crate) mod lease;
pub mod merge;
mod serve;
pub(crate) mod transport;

pub use self::audit::AuditPolicy;
pub use self::serve::serve_main;

use self::audit::TrustLedger;
use self::lease::{Lease, LeaseQueue, Shard};
use self::transport::{render_hello, ChannelEvent, Transport};

/// Version of the supervisor↔worker protocol (the handshake's
/// `mbavf_worker` field, and the hello frame's `mbavf_hello` field). Bumped
/// whenever the frame format changes.
pub const PROTOCOL_VERSION: u64 = 1;

/// Version of the `*.poison.json` sidecar format.
pub const POISON_VERSION: u64 = 1;

/// How a campaign executes its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process worker threads (panic isolation only).
    Thread,
    /// Local worker daemons under [`run_supervised`]
    /// ([`TransportKind::Local`]: survives aborts, livelocks, OOM kills).
    Process,
    /// Remote worker daemons ([`TransportKind::Tcp`]): process isolation
    /// spread across machines, plus endpoint failover.
    Tcp,
}

impl IsolationMode {
    /// Parse the CLI spelling (`"thread"` / `"process"` / `"tcp"`).
    pub fn parse(s: &str) -> Option<IsolationMode> {
        match s {
            "thread" => Some(IsolationMode::Thread),
            "process" => Some(IsolationMode::Process),
            "tcp" => Some(IsolationMode::Tcp),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
            IsolationMode::Tcp => "tcp",
        }
    }
}

/// How the supervisor reaches its workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportKind {
    /// `__serve` daemons spawned by the supervisor on loopback, one per
    /// handler, respawned when they die.
    Local,
    /// `campaign --listen` worker daemons at fixed endpoints, one handler
    /// per endpoint.
    Tcp {
        /// Worker daemon `host:port` endpoints.
        endpoints: Vec<String>,
    },
}

/// Supervision knobs (the execution policy; [`RunnerConfig`] still owns
/// checkpointing, bundles, and the heartbeat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Concurrent local worker daemons; `0` means one per available CPU.
    /// Ignored by the TCP transport, which runs one handler per endpoint.
    pub workers: usize,
    /// Trials per worker shard. Shard boundaries are `trial / shard_size`,
    /// so records are invariant under the worker count.
    pub shard_size: usize,
    /// Consecutive no-progress worker failures tolerated before the shard's
    /// first remaining trial is poisoned. Progress resets the count.
    pub max_retries: u32,
    /// First retry delay; doubles per consecutive failure. The actual sleep
    /// is jittered deterministically per handler so workers that died
    /// together do not respawn together.
    pub backoff_base: Duration,
    /// Ceiling on the retry delay.
    pub backoff_cap: Duration,
    /// Abort the campaign once more than this many trials (including ones
    /// poisoned by earlier runs) are poisoned.
    pub max_poison: usize,
    /// Poison sidecar path. `None` derives `<checkpoint>.poison.json` when
    /// a checkpoint is configured (no checkpoint → poison kept in-memory
    /// only, in the report).
    pub poison_path: Option<PathBuf>,
    /// Extra environment variables for local worker daemons (e.g. fault
    /// drills). Remote daemons inherit their own environment.
    pub worker_env: Vec<(String, String)>,
    /// Where the worker daemons are: spawned locally (default) or at
    /// `campaign --listen` endpoints.
    pub transport: TransportKind,
    /// Shard lease: a worker whose *progress* stalls for this long loses
    /// its shard (revoked and re-leased, possibly elsewhere). Renewed by
    /// records and by heartbeat frames whose completion count advanced —
    /// never by heartbeats alone.
    pub lease_timeout: Duration,
    /// Trust-but-verify: deterministically sample worker records for local
    /// re-execution before commit, and quarantine endpoints whose records
    /// diverge or conflict (see [`AuditPolicy`]). `None` trusts workers
    /// unconditionally — the pre-audit behavior.
    pub audit: Option<AuditPolicy>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            shard_size: 64,
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_poison: 8,
            poison_path: None,
            worker_env: Vec::new(),
            transport: TransportKind::Local,
            lease_timeout: Duration::from_secs(30),
            audit: None,
        }
    }
}

/// One quarantined trial: it repeatedly killed its worker and was excluded
/// from the campaign summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonEntry {
    /// Campaign trial index.
    pub trial: u64,
    /// The fault the trial would have injected.
    pub site: FaultSite,
    /// The last worker failure observed (daemon death, lease expiry,
    /// connection loss).
    pub reason: String,
    /// Worker attempts the trial consumed before being poisoned.
    pub attempts: u32,
}

/// Render a sorted trial list compactly: `"0-5,9,11-20"`.
pub fn format_trials(trials: &[u64]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < trials.len() {
        let start = trials[i];
        let mut end = start;
        while i + 1 < trials.len() && trials[i + 1] == end + 1 {
            i += 1;
            end = trials[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            let _ = write!(out, "{start}");
        } else {
            let _ = write!(out, "{start}-{end}");
        }
        i += 1;
    }
    out
}

/// Parse [`format_trials`] output back into a trial list.
///
/// # Errors
///
/// A description of the first malformed segment (bad integer, inverted
/// range, empty list).
pub fn parse_trials(s: &str) -> Result<Vec<u64>, String> {
    let mut trials = Vec::new();
    for seg in s.split(',') {
        let parse = |t: &str| t.parse::<u64>().map_err(|_| format!("bad trial index {t:?}"));
        match seg.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (parse(a)?, parse(b)?);
                if a > b {
                    return Err(format!("inverted range {seg:?}"));
                }
                trials.extend(a..=b);
            }
            None => trials.push(parse(seg)?),
        }
    }
    if trials.is_empty() {
        return Err("empty trial list".into());
    }
    Ok(trials)
}

/// Default sidecar location: `<checkpoint>.poison.json` (appended, so the
/// checkpoint's own extension survives).
pub fn default_poison_path(checkpoint: &Path) -> PathBuf {
    let mut name = checkpoint.as_os_str().to_os_string();
    name.push(".poison.json");
    PathBuf::from(name)
}

/// Serialize a poison sidecar document.
pub fn render_poison(workload: &str, config_hash: u64, entries: &[PoisonEntry]) -> String {
    let mut out = String::with_capacity(96 + entries.len() * 128);
    let _ = write!(out, "{{\n  \"version\": {POISON_VERSION},\n  \"workload\": ");
    json::write_str(&mut out, workload);
    let _ = write!(out, ",\n  \"config_hash\": {config_hash},\n  \"poisoned\": [");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"trial\": {}, \"wg\": {}, \"after\": {}, \"reg\": {}, \"lane\": {}, \"bit\": {}, \"attempts\": {}, \"reason\": ",
            e.trial, e.site.wg, e.site.after_retired, e.site.reg, e.site.lane, e.site.bit, e.attempts,
        );
        json::write_str(&mut out, &e.reason);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Durably and atomically write the poison sidecar at `path` (temp file,
/// `sync_all`, rename, parent-directory fsync — the same discipline as
/// checkpoints, through the same failpoint-aware layer).
///
/// # Errors
///
/// [`SupervisorError::Io`] if the write cannot be made durable after
/// bounded retry.
pub fn save_poison(
    path: &Path,
    workload: &str,
    config_hash: u64,
    entries: &[PoisonEntry],
) -> Result<(), SupervisorError> {
    atomic_write_durable(path, render_poison(workload, config_hash, entries).as_bytes()).map_err(
        |e| SupervisorError::Io { path: path.display().to_string(), detail: e.to_string() },
    )
}

/// A loaded poison sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonSidecar {
    /// Workload the poisoning campaign ran over.
    pub workload: String,
    /// Fingerprint of the poisoning campaign's configuration.
    pub config_hash: u64,
    /// Quarantined trials, sorted by trial index.
    pub entries: Vec<PoisonEntry>,
}

/// Load and validate the poison sidecar at `path`.
///
/// # Errors
///
/// [`SupervisorError::Io`] if the file cannot be read;
/// [`SupervisorError::Protocol`] for parse or schema violations (the caller
/// quarantines those). Fingerprint validation is the caller's job.
pub fn load_poison(path: &Path) -> Result<PoisonSidecar, SupervisorError> {
    let text = std::fs::read_to_string(path).map_err(|e| SupervisorError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let bad = |detail: String| SupervisorError::Protocol { detail };
    let doc = json::parse(&text).map_err(|d| bad(format!("poison sidecar: {d}")))?;
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("poison sidecar: missing \"version\"".into()))?;
    if version != POISON_VERSION {
        return Err(bad(format!("poison sidecar: foreign version {version}")));
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("poison sidecar: missing \"workload\"".into()))?
        .to_string();
    let config_hash = doc
        .get("config_hash")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("poison sidecar: missing \"config_hash\"".into()))?;
    let raw = doc
        .get("poisoned")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("poison sidecar: missing \"poisoned\"".into()))?;
    let mut entries = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let missing = |k: &str| bad(format!("poison entry {i}: missing \"{k}\""));
        let (trial, site) = checkpoint::parse_site(e, i).map_err(|d| bad(format!("poison {d}")))?;
        entries.push(PoisonEntry {
            trial,
            site,
            attempts: e
                .get("attempts")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing("attempts"))? as u32,
            reason: e
                .get("reason")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("reason"))?
                .to_string(),
        });
    }
    entries.sort_by_key(|e| e.trial);
    entries.dedup_by_key(|e| e.trial);
    Ok(PoisonSidecar { workload, config_hash, entries })
}

/// Load the sidecar, quarantining malformed files (like checkpoint
/// corruption: moved to `<path>.corrupt` with a warning, treated as
/// absent). A fingerprint mismatch is a hard error — the sidecar belongs to
/// a different campaign.
fn load_or_quarantine_poison(
    path: &Path,
    fingerprint: u64,
) -> Result<Vec<PoisonEntry>, SupervisorError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    match load_poison(path) {
        Ok(sidecar) => {
            if sidecar.config_hash != fingerprint {
                return Err(SupervisorError::SidecarMismatch {
                    expected: fingerprint,
                    found: sidecar.config_hash,
                });
            }
            Ok(sidecar.entries)
        }
        Err(SupervisorError::Protocol { detail }) => {
            quarantine_with_warning(path, "poison sidecar", &detail, "ignoring it");
            Ok(Vec::new())
        }
        Err(e) => Err(e),
    }
}

/// A record frame: the checkpoint's record object
/// ([`checkpoint::write_record`]) plus `"us"`, the trial's wall-clock in
/// microseconds.
pub(crate) fn render_record_frame(r: &SingleBitRecord, us: u64) -> String {
    let mut out = String::with_capacity(128);
    checkpoint::write_record(&mut out, r);
    out.pop(); // the record object's closing brace
    let _ = write!(out, ", \"us\": {us}}}");
    out
}

fn parse_record_frame(v: &Value) -> Result<(SingleBitRecord, u64), String> {
    let record = checkpoint::parse_record(v, 0).map_err(|e| e.to_string())?;
    let us = v.get("us").and_then(Value::as_u64).ok_or("missing or non-integer \"us\"")?;
    Ok((record, us))
}

// ---------------------------------------------------------------------------
// Worker side: `serve.rs`, running leases on the crate's one trial executor
// ---------------------------------------------------------------------------

/// Retired entry point of the per-shard `__worker` subprocess, kept so
/// binaries that still route `__worker` link; process isolation now runs
/// local `__serve` daemons ([`serve_main`]).
#[doc(hidden)]
pub fn worker_main(_args: &[String]) -> i32 {
    10
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

enum ShardRun {
    /// Worker finished every remaining trial.
    Done,
    /// Worker died or lost its lease (signal, abort, torn frame, lease
    /// expiry, connection loss). `handshaken` records whether the worker
    /// ever answered the lease: a death before the handshake is the channel
    /// failing, not the trial.
    Died { progress: bool, handshaken: bool, detail: String },
    /// Non-retryable worker failure.
    Fatal(SupervisorError),
    /// First frame was not a valid handshake for this campaign.
    Mismatch(String),
    /// The worker sent a record conflicting with committed state — a trust
    /// failure charged to the endpoint (`quarantined` reports whether it
    /// crossed the ledger's budget), not a campaign-fatal protocol error.
    Hostile { quarantined: bool, detail: String },
    /// An audit divergence pushed the endpoint past the trust ledger's
    /// failure budget; it is quarantined for the rest of the campaign.
    Quarantined { detail: String },
}

/// What the pre-commit audit concluded about one record.
enum AuditOutcome {
    /// Not in the audit sample (or auditing is off).
    Skipped,
    /// Re-executed locally; bit-identical.
    Passed,
    /// Re-executed locally; the records disagree. The local record is
    /// committed in the remote one's place.
    Diverged,
}

/// Why a handler stopped driving a shard.
enum ShardEnd {
    /// The shard is fully committed (or its stragglers poisoned).
    Finished,
    /// The campaign is stopping (fatal error, degradation, shutdown).
    Stop,
    /// The remote endpoint stayed unreachable through the retry budget; the
    /// (partially completed) shard should be re-offered to other handlers.
    EndpointDead { detail: String },
}

struct SupCtx<'a> {
    campaign: &'a OpenCampaign<'a>,
    sup: &'a SupervisorConfig,
    prior_poison: usize,
    /// Local re-executor for audited records, over the campaign's own
    /// golden shape and sampler; built once when auditing is on and trials
    /// are pending. Serializes audits across handlers.
    auditor: Option<Mutex<TrialExecutor<'a>>>,
    /// Per-endpoint trust state plus the campaign-wide audit counters.
    ledger: TrustLedger,
    queue: LeaseQueue,
    poison: Mutex<Vec<PoisonEntry>>,
    fatal: Mutex<Option<SupervisorError>>,
    degrade: AtomicBool,
    stop: AtomicBool,
    live_children: AtomicUsize,
    /// Handlers holding (or about to take) a shard that may be given back.
    holders: AtomicUsize,
    handlers: usize,
    retired: AtomicUsize,
}

impl SupCtx<'_> {
    fn should_stop(&self) -> bool {
        // A tripped cancel token stops new leases exactly like an internal
        // stop: handlers drain what is in flight and retire. It also
        // suppresses the AllEndpointsLost backstop — pending trials after a
        // cancellation are deliberate, not stranded.
        self.stop.load(Ordering::SeqCst)
            || self.degrade.load(Ordering::SeqCst)
            || self.campaign.runner.cancel.cancelled().is_some()
    }

    fn raise_fatal(&self, e: SupervisorError) {
        self.fatal.lock().expect("fatal lock").get_or_insert(e);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Degrade is only safe while nothing has happened yet: no completed
    /// trial, no new poison. Returns whether degradation was initiated.
    fn try_degrade(&self) -> bool {
        let untouched = self.campaign.shared.completed.load(Ordering::SeqCst) == 0
            && self.poison.lock().expect("poison lock").is_empty();
        if untouched {
            self.degrade.store(true, Ordering::SeqCst);
        }
        untouched
    }

    fn backoff(&self, handler: usize, consecutive_failures: u32) -> Duration {
        jittered_backoff(
            self.sup.backoff_base,
            self.sup.backoff_cap,
            self.campaign.cfg.seed,
            handler,
            consecutive_failures,
        )
    }

    /// Build handler `id`'s channel to its worker.
    fn make_transport(&self, id: usize) -> Transport {
        let hello =
            render_hello(self.campaign.workload.name, self.campaign.cfg, self.sup.lease_timeout);
        match &self.sup.transport {
            TransportKind::Local => {
                Transport::local(self.sup.worker_env.clone(), self.sup.lease_timeout, hello)
            }
            TransportKind::Tcp { endpoints } => Transport::remote(
                endpoints[id % endpoints.len()].clone(),
                self.sup.lease_timeout,
                hello,
            ),
        }
    }

    /// Stream one lease's messages, committing records as they arrive.
    /// Committed trials are removed from `remaining`, so a retry re-leases
    /// only what is still missing — and the head of `remaining` is always
    /// the trial the last death is attributable to.
    fn stream_shard(&self, transport: &mut Transport, remaining: &mut VecDeque<u64>) -> ShardRun {
        let mut lease = Lease::new(self.sup.lease_timeout);
        let mut progress = false;
        let mut handshaken = false;
        let mut drain_sent = false;
        // Progress gate for heartbeats: renew only when the daemon's
        // completion count *changes*, so a frozen executor with a beating
        // heart still loses its lease.
        let mut last_hb: Option<u64> = None;
        loop {
            if self.stop.load(Ordering::SeqCst) || self.degrade.load(Ordering::SeqCst) {
                transport.revoke();
                return ShardRun::Died {
                    progress,
                    handshaken,
                    detail: "supervisor shutdown".into(),
                };
            }
            if let Some(reason) = self.campaign.runner.cancel.cancelled() {
                if handshaken {
                    // Graceful preemption of a live daemon: ask it to finish
                    // the trial in flight and part cleanly, then keep
                    // streaming (and committing) until its `drained` ack.
                    // A daemon that never acks still loses its lease on the
                    // ordinary expiry path below — drain adds no new way to
                    // hang the supervisor.
                    if !drain_sent {
                        if let Err(detail) = transport.drain() {
                            transport.revoke();
                            return ShardRun::Died {
                                progress,
                                handshaken,
                                detail: format!("cancelled ({reason}); drain failed: {detail}"),
                            };
                        }
                        drain_sent = true;
                    }
                } else {
                    // A daemon that has not yet handshaken has streamed no
                    // work: revoke.
                    transport.revoke();
                    return ShardRun::Died {
                        progress,
                        handshaken,
                        detail: format!("cancelled ({reason})"),
                    };
                }
            }
            match transport.recv(lease.poll_wait()) {
                ChannelEvent::Msg(frame) => {
                    if !handshaken {
                        let parsed = json::parse(&frame).ok();
                        // An error can precede the handshake: the daemon
                        // rejected our hello. A fatal configuration error.
                        if let Some(detail) =
                            parsed.as_ref().and_then(|v| v.get("error")).and_then(Value::as_str)
                        {
                            let detail = detail.to_string();
                            transport.revoke();
                            return ShardRun::Fatal(SupervisorError::WorkerFatal { detail });
                        }
                        let ok = parsed.is_some_and(|v| {
                            v.get("mbavf_worker").and_then(Value::as_u64) == Some(PROTOCOL_VERSION)
                                && v.get("fingerprint").and_then(Value::as_u64)
                                    == Some(self.campaign.fingerprint)
                        });
                        if !ok {
                            transport.revoke();
                            let head: String = frame.chars().take(120).collect();
                            return ShardRun::Mismatch(format!(
                                "expected worker handshake, got {head:?}"
                            ));
                        }
                        handshaken = true;
                        lease.renew();
                        continue;
                    }
                    let Ok(v) = json::parse(&frame) else {
                        // A malformed frame: nothing to commit. A dying
                        // worker's EOF drives the retry.
                        continue;
                    };
                    if let Some(n) = v.get("hb").and_then(Value::as_u64) {
                        if last_hb != Some(n) {
                            last_hb = Some(n);
                            lease.renew();
                        }
                        continue;
                    }
                    if v.get("drained").is_some() {
                        // The daemon honored our drain frame: its in-flight
                        // trial is committed (we streamed it above), its
                        // lease is flushed back, and it parted cleanly. The
                        // shard's leftovers stay pending for the resume.
                        return ShardRun::Died {
                            progress,
                            handshaken,
                            detail: "endpoint drained after cancellation".into(),
                        };
                    }
                    if let Some(detail) = v.get("error").and_then(Value::as_str) {
                        let detail = detail.to_string();
                        transport.revoke();
                        return ShardRun::Fatal(SupervisorError::WorkerFatal { detail });
                    }
                    if v.get("done").is_some() {
                        return if remaining.is_empty() {
                            ShardRun::Done
                        } else {
                            ShardRun::Fatal(SupervisorError::Protocol {
                                detail: format!(
                                    "worker reported done with {} trials unaccounted for",
                                    remaining.len()
                                ),
                            })
                        };
                    }
                    let (record, us) = match parse_record_frame(&v) {
                        Ok(r) => r,
                        Err(detail) => {
                            transport.revoke();
                            return ShardRun::Fatal(SupervisorError::Protocol {
                                detail: format!("bad record frame: {detail}"),
                            });
                        }
                    };
                    let trial = record.trial;
                    let leased = remaining.iter().position(|&t| t == trial);
                    // Trust-but-verify: re-execute sampled records through
                    // the local arena path *before* they reach the WAL. The
                    // sample is a pure function of (seed, trial), so it is
                    // invariant under the worker count and endpoint layout;
                    // only leased (first-delivery) records are audited, so
                    // each selected trial is audited exactly once. On
                    // divergence the local re-execution wins the tie: the
                    // local record is committed, the remote one discarded.
                    let (mut record, mut us) = (record, us);
                    let mut audit = AuditOutcome::Skipped;
                    if leased.is_some() {
                        if let (Some(policy), Some(auditor)) = (self.sup.audit, &self.auditor) {
                            if policy.selects(self.campaign.cfg.seed, trial) {
                                let (local, local_us) = auditor
                                    .lock()
                                    .expect("auditor lock")
                                    .run_unit(&[trial])
                                    .next()
                                    .expect("one trial, one record");
                                if local == record {
                                    audit = AuditOutcome::Passed;
                                } else {
                                    audit = AuditOutcome::Diverged;
                                    record = local;
                                    us = local_us;
                                }
                            }
                        }
                    }
                    match self.campaign.shared.commit_remote(record, us, leased.is_some()) {
                        RemoteCommit::Fresh(done) => {
                            let pos = leased.expect("fresh commits are leased");
                            remaining.remove(pos);
                            progress = true;
                            lease.renew();
                            crate::signals::preempt_drill(done - 1, done);
                            match audit {
                                AuditOutcome::Skipped => {}
                                AuditOutcome::Passed => self.ledger.record_pass(),
                                AuditOutcome::Diverged => {
                                    let endpoint = transport.endpoint();
                                    eprintln!(
                                        "warning: audit divergence on trial {trial}: endpoint {endpoint} disagrees with local re-execution; the local record was committed"
                                    );
                                    if self.ledger.record_divergence(&endpoint) {
                                        transport.revoke();
                                        return ShardRun::Quarantined {
                                            detail: format!(
                                                "quarantined by the trust ledger after an audit divergence on trial {trial}"
                                            ),
                                        };
                                    }
                                }
                            }
                        }
                        RemoteCommit::Duplicate => {
                            // A replay of a record committed by an earlier
                            // lease (reconnect, duplicated frames): dropped
                            // by the merge, never recounted.
                            if let Some(pos) = leased {
                                remaining.remove(pos);
                                progress = true;
                            }
                            lease.renew();
                        }
                        RemoteCommit::Conflict { detail } => {
                            // A record contradicting committed state is a
                            // trust failure, charged to the endpoint's
                            // retry budget and trust ledger — not silently
                            // formatted into a fatal error.
                            let quarantined = self.ledger.record_conflict(&transport.endpoint());
                            transport.revoke();
                            return ShardRun::Hostile { quarantined, detail };
                        }
                        RemoteCommit::Foreign => {
                            transport.revoke();
                            return ShardRun::Fatal(SupervisorError::Protocol {
                                detail: format!("worker emitted trial {trial} outside its shard"),
                            });
                        }
                    }
                }
                ChannelEvent::Idle => {
                    if lease.expired() {
                        let detail = lease.describe(remaining.len());
                        transport.revoke();
                        return ShardRun::Died { progress, handshaken, detail };
                    }
                }
                ChannelEvent::Eof { status } => {
                    // A worker that drained its shard but lost the sentinel
                    // did all the work; don't retry an empty shard.
                    return if remaining.is_empty() {
                        ShardRun::Done
                    } else {
                        ShardRun::Died {
                            progress,
                            handshaken,
                            detail: format!("{status} with {} trials left", remaining.len()),
                        }
                    };
                }
            }
        }
    }

    /// Drive one shard to completion: lease/re-lease with jittered backoff,
    /// poison the head trial after repeated no-progress failure, declare
    /// the endpoint dead when it stays unreachable.
    fn run_shard(&self, transport: &mut Transport, handler: usize, shard: &mut Shard) -> ShardEnd {
        let mut lease_fails: u32 = 0;
        while !shard.remaining.is_empty() {
            if self.should_stop() {
                return ShardEnd::Stop;
            }
            // A quarantined endpoint never leases again this campaign; its
            // shard goes back to the queue for surviving endpoints.
            if transport.is_remote() && self.ledger.is_quarantined(&transport.endpoint()) {
                return ShardEnd::EndpointDead {
                    detail: "endpoint is quarantined by the trust ledger".into(),
                };
            }
            if shard.attempts > self.sup.max_retries {
                let trial = shard.remaining.pop_front().expect("remaining is non-empty");
                let sampler =
                    self.campaign.sampler.as_ref().expect("pending trials imply a sampler");
                let (attempts, last_fail) = (shard.attempts, shard.last_fail.clone());
                let entry = PoisonEntry {
                    trial,
                    site: sampler.sample(self.campaign.cfg.seed, trial),
                    reason: last_fail.clone(),
                    attempts,
                };
                eprintln!(
                    "warning: poisoning trial {trial} after {attempts} failed worker attempts ({last_fail})"
                );
                let total = {
                    let mut poison = self.poison.lock().expect("poison lock");
                    poison.push(entry);
                    self.prior_poison + poison.len()
                };
                if total > self.sup.max_poison {
                    self.raise_fatal(SupervisorError::TooManyPoisoned {
                        poisoned: total,
                        cap: self.sup.max_poison,
                    });
                    return ShardEnd::Stop;
                }
                shard.attempts = 0;
                shard.last_fail = String::from("never ran");
                continue;
            }
            let failures = shard.attempts.max(lease_fails);
            if failures > 0 {
                std::thread::sleep(self.backoff(handler, failures));
            }
            let trials: Vec<u64> = shard.remaining.iter().copied().collect();
            if let Err(detail) = transport.lease(&trials, shard.attempts + lease_fails) {
                lease_fails += 1;
                if lease_fails > self.sup.max_retries {
                    if transport.is_remote() {
                        return ShardEnd::EndpointDead { detail };
                    }
                    if self.try_degrade() {
                        eprintln!("warning: cannot start a local worker daemon ({detail})");
                    } else {
                        self.raise_fatal(SupervisorError::Spawn { detail });
                    }
                    return ShardEnd::Stop;
                }
                continue;
            }
            self.live_children.fetch_add(1, Ordering::SeqCst);
            let run = self.stream_shard(transport, &mut shard.remaining);
            self.live_children.fetch_sub(1, Ordering::SeqCst);
            match run {
                ShardRun::Done => return ShardEnd::Finished,
                ShardRun::Died { progress, handshaken, detail } => {
                    if !handshaken && transport.is_remote() {
                        // The connection died before the daemon answered the
                        // lease — e.g. a dial that landed in a dying
                        // listener's backlog. The trial never ran, so charge
                        // the endpoint's retry budget, not the trial's.
                        lease_fails += 1;
                        if lease_fails > self.sup.max_retries {
                            return ShardEnd::EndpointDead { detail };
                        }
                        continue;
                    }
                    lease_fails = 0;
                    shard.attempts = if progress { 1 } else { shard.attempts + 1 };
                    shard.last_fail = detail;
                }
                ShardRun::Fatal(e) => {
                    self.raise_fatal(e);
                    return ShardEnd::Stop;
                }
                ShardRun::Hostile { quarantined, detail } => {
                    if !transport.is_remote() {
                        // A local daemon contradicting committed state is a
                        // determinism bug, not a trust problem — fail
                        // loudly, exactly as before auditing existed.
                        self.raise_fatal(SupervisorError::Protocol { detail });
                        return ShardEnd::Stop;
                    }
                    // Charged like a pre-handshake death: the endpoint's
                    // budget, not the head trial's.
                    lease_fails += 1;
                    if quarantined || lease_fails > self.sup.max_retries {
                        return ShardEnd::EndpointDead { detail };
                    }
                }
                ShardRun::Quarantined { detail } => {
                    if transport.is_remote() {
                        return ShardEnd::EndpointDead { detail };
                    }
                    // A local daemon diverging from local re-execution is
                    // nondeterminism in this very binary — campaign-fatal.
                    self.raise_fatal(SupervisorError::Protocol { detail });
                    return ShardEnd::Stop;
                }
                ShardRun::Mismatch(detail) => {
                    if self.try_degrade() {
                        if transport.is_remote() {
                            eprintln!(
                                "warning: worker endpoint {} is not serving this campaign ({detail})",
                                transport.endpoint()
                            );
                        } else {
                            eprintln!("warning: local worker daemon handshake failed ({detail})");
                        }
                        return ShardEnd::Stop;
                    }
                    self.raise_fatal(SupervisorError::Protocol { detail });
                    return ShardEnd::Stop;
                }
            }
        }
        ShardEnd::Finished
    }

    /// Handler `id`'s main loop: lease shards off the queue until it is
    /// drained or the campaign stops. A dead endpoint hands its shard back
    /// for the surviving handlers and retires.
    fn drive(&self, id: usize) {
        let mut transport = self.make_transport(id);
        loop {
            if self.should_stop() {
                return;
            }
            // Count as a holder *before* taking, so a peer that finds the
            // queue empty never misses a shard that may yet come back.
            self.holders.fetch_add(1, Ordering::SeqCst);
            let Some(mut shard) = self.queue.take() else {
                // Another handler may yet give its shard back if its
                // endpoint dies — mid-stream or while redialing — so stay
                // alive while anyone still holds one.
                if self.holders.fetch_sub(1, Ordering::SeqCst) > 1 {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                return;
            };
            let end = self.run_shard(&mut transport, id, &mut shard);
            if let ShardEnd::EndpointDead { detail } = &end {
                eprintln!(
                    "warning: worker endpoint {} lost ({detail}); re-offering its shard",
                    transport.endpoint()
                );
                self.queue.give_back(shard);
            }
            self.holders.fetch_sub(1, Ordering::SeqCst);
            if !matches!(end, ShardEnd::Finished) {
                return;
            }
        }
    }

    fn handler(&self, id: usize) {
        self.drive(id);
        // Backstop: the last handler out must not strand re-offered shards.
        // With work still queued and no stop in flight, every endpoint died
        // after work was committed — degrade if still possible, else fail
        // loudly rather than report a silent partial campaign.
        if self.retired.fetch_add(1, Ordering::SeqCst) + 1 == self.handlers {
            let pending = self.queue.outstanding();
            if pending > 0
                && !self.should_stop()
                && self.fatal.lock().expect("fatal lock").is_none()
                && !self.try_degrade()
            {
                self.raise_fatal(TransportError::AllEndpointsLost { pending }.into());
            }
        }
    }
}

/// Run (or resume) a campaign on local or remote worker daemons.
///
/// Identical record semantics to [`crate::runner::run_campaign`] — the same
/// checkpoint format, the same fingerprint, bit-identical non-poison
/// records at any worker count over any transport — plus the failure policy
/// described at the module level. Trials that repeatedly kill their worker
/// are poisoned rather than failing the campaign; if no worker ever
/// produces a record the supervisor degrades one isolation level (remote
/// daemons → local daemons → threads) with a warning.
///
/// # Errors
///
/// Everything [`crate::runner::run_campaign`] can raise, plus
/// [`InjectError::Supervisor`] for a fatal worker error (an `error`
/// frame), a local daemon that cannot be started once work was committed,
/// a protocol violation after trials have completed, a poison sidecar from
/// a different campaign, more than
/// [`SupervisorConfig::max_poison`] poisoned trials, a TCP transport with
/// no endpoints ([`TransportError::NoEndpoints`]), or every endpoint lost
/// after work was committed ([`TransportError::AllEndpointsLost`]).
pub fn run_supervised(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
    sup: &SupervisorConfig,
) -> Result<CampaignReport, InjectError> {
    if sup.shard_size == 0 {
        return Err(InjectError::BadConfig { detail: "shard_size must be at least 1".into() });
    }
    if let TransportKind::Tcp { endpoints } = &sup.transport {
        if endpoints.is_empty() {
            return Err(SupervisorError::from(TransportError::NoEndpoints).into());
        }
    }

    let golden = golden_shape(workload, cfg)?;
    let fingerprint = checkpoint::config_fingerprint(workload.name, cfg);
    let poison_path = sup
        .poison_path
        .clone()
        .or_else(|| runner.checkpoint.as_ref().map(|p| default_poison_path(p)));
    let prior_poison = match &poison_path {
        Some(p) => load_or_quarantine_poison(p, fingerprint).map_err(InjectError::from)?,
        None => Vec::new(),
    };
    let skip: Vec<u64> = prior_poison.iter().map(|e| e.trial).collect();
    let campaign = OpenCampaign::open(workload, cfg, runner, &golden, &skip)?;

    // Contiguous shards with boundaries fixed by trial index, so the shard
    // layout is invariant under the worker count.
    let mut shards: VecDeque<Shard> = VecDeque::new();
    for &t in &campaign.pending {
        let shard_id = t / sup.shard_size as u64;
        match shards.back_mut() {
            Some(last)
                if last
                    .remaining
                    .back()
                    .is_some_and(|&p| p / sup.shard_size as u64 == shard_id) =>
            {
                last.remaining.push_back(t)
            }
            _ => shards.push_back(Shard::new(VecDeque::from([t]))),
        }
    }
    let requested = match &sup.transport {
        TransportKind::Tcp { endpoints } => endpoints.len(),
        TransportKind::Local => sup.workers,
    };
    let workers = worker_count(requested, shards.len());
    let label = match &sup.transport {
        TransportKind::Local => "process",
        TransportKind::Tcp { .. } => "tcp",
    };

    // The audit re-executor runs the same executor the daemons do, at
    // width 1, built once and reused for every audited trial. Built only
    // when something can actually be audited.
    let auditor = match (&campaign.sampler, sup.audit) {
        (Some(sampler), Some(_)) if !campaign.pending.is_empty() => {
            Some(Mutex::new(TrialExecutor::new(workload, cfg, campaign.golden, sampler, 1)))
        }
        _ => None,
    };

    let ctx = SupCtx {
        campaign: &campaign,
        sup,
        prior_poison: prior_poison.len(),
        auditor,
        ledger: TrustLedger::new(sup.audit.map_or(0, |a| a.max_failures())),
        queue: LeaseQueue::new(shards),
        poison: Mutex::new(Vec::new()),
        fatal: Mutex::new(None),
        degrade: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        live_children: AtomicUsize::new(0),
        holders: AtomicUsize::new(0),
        handlers: workers,
        retired: AtomicUsize::new(0),
    };
    campaign.execute(
        workers,
        label,
        &|| ctx.live_children.load(Ordering::SeqCst),
        &|| {
            let mut extra = String::new();
            let n = ctx.prior_poison + ctx.poison.lock().expect("poison lock").len();
            if n > 0 {
                let _ = write!(extra, ", poisoned {n}");
            }
            let audited = ctx.ledger.audited();
            if audited > 0 {
                let _ =
                    write!(extra, ", audited {audited} ({} divergent)", ctx.ledger.divergences());
            }
            let q = ctx.ledger.quarantined_count();
            if q > 0 {
                let _ = write!(extra, ", quarantined {q}");
            }
            extra
        },
        &|id| ctx.handler(id),
    );

    if ctx.degrade.load(Ordering::SeqCst) {
        if let TransportKind::Tcp { .. } = &sup.transport {
            eprintln!(
                "warning: no tcp worker produced a record; degrading to local process isolation for this campaign"
            );
            let local = SupervisorConfig { transport: TransportKind::Local, ..sup.clone() };
            return run_supervised(workload, cfg, runner, &local);
        }
        eprintln!(
            "warning: process isolation unavailable; degrading to thread isolation for this campaign"
        );
        // Same open campaign, same skip list: trials an earlier run
        // poisoned stay unmeasured and stay in the report.
        campaign.run_threads();
        return campaign.finish(Supervision {
            poisoned: prior_poison,
            poison_path,
            ..Supervision::default()
        });
    }

    let new_poison = ctx.poison.into_inner().expect("poison lock");
    let newly_poisoned = new_poison.len();
    let mut poisoned = prior_poison;
    poisoned.extend(new_poison);
    poisoned.sort_by_key(|e| e.trial);
    let supervision = Supervision {
        poisoned,
        newly_poisoned,
        poison_path,
        fatal: ctx.fatal.into_inner().expect("fatal lock"),
        audited: ctx.ledger.audited(),
        audit_divergences: ctx.ledger.divergences(),
        merge_conflicts: ctx.ledger.conflicts(),
        quarantined_endpoints: ctx.ledger.quarantined(),
    };
    campaign.finish(supervision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Outcome;
    use crate::runner::run_campaign;
    use mbavf_workloads::by_name;

    fn cfg(n: usize) -> CampaignConfig {
        CampaignConfig { seed: 0x5EED, injections: n, ..CampaignConfig::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mbavf-supervisor-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A scripted fake worker daemon on a loopback port: it accepts any
    /// number of connections, reads each one's hello, and answers every
    /// lease frame with `frames` — then stays silent until the supervisor
    /// hangs up. Returns the address to connect to.
    fn fake_daemon(frames: Vec<String>) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let frames = frames.clone();
                std::thread::spawn(move || {
                    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                    let mut leases = 0;
                    while let Ok(Some(_)) = transport::read_frame(&mut reader) {
                        leases += 1;
                        if leases == 1 {
                            continue; // the hello
                        }
                        for f in &frames {
                            if transport::write_frame(&mut &stream, f).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
        });
        addr
    }

    /// A supervisor pointed at one fake daemon, failing fast.
    fn fake_sup(frames: Vec<String>) -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            transport: TransportKind::Tcp { endpoints: vec![fake_daemon(frames)] },
            ..SupervisorConfig::default()
        }
    }

    fn handshake(w: &Workload, cfg: &CampaignConfig) -> String {
        let fp = checkpoint::config_fingerprint(w.name, cfg);
        format!("{{\"mbavf_worker\": {PROTOCOL_VERSION}, \"fingerprint\": {fp}}}")
    }

    #[test]
    fn rangelist_roundtrips() {
        for trials in [
            vec![0u64],
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 5, 9, 10, 11, 40],
            vec![7],
            (100..200).collect(),
        ] {
            let s = format_trials(&trials);
            assert_eq!(parse_trials(&s).unwrap(), trials, "via {s:?}");
        }
        assert_eq!(format_trials(&[0, 1, 2, 5, 9, 10, 11]), "0-2,5,9-11");
        assert!(parse_trials("").is_err());
        assert!(parse_trials("3-1").is_err());
        assert!(parse_trials("a-b").is_err());
    }

    #[test]
    fn poison_sidecar_roundtrips_and_quarantines() {
        let dir = tmpdir("sidecar");
        let path = dir.join("c.json.poison.json");
        let entries = vec![
            PoisonEntry {
                trial: 3,
                site: FaultSite { wg: 1, after_retired: 17, reg: 3, lane: 9, bit: 30 },
                reason: "local worker daemon 127.0.0.1:7017 exited (signal: 6) with 2 trials left"
                    .into(),
                attempts: 3,
            },
            PoisonEntry {
                trial: 9,
                site: FaultSite { wg: 0, after_retired: 0, reg: 0, lane: 0, bit: 0 },
                reason: "shard lease expired after 100ms with 1 trials outstanding".into(),
                attempts: 1,
            },
        ];
        save_poison(&path, "transpose", 0xABCD, &entries).unwrap();
        let loaded = load_poison(&path).unwrap();
        assert_eq!(loaded.workload, "transpose");
        assert_eq!(loaded.config_hash, 0xABCD);
        assert_eq!(loaded.entries, entries);
        assert_eq!(load_or_quarantine_poison(&path, 0xABCD).unwrap(), entries);

        // Wrong campaign: hard error, not quarantine.
        assert!(matches!(
            load_or_quarantine_poison(&path, 0xBEEF),
            Err(SupervisorError::SidecarMismatch { expected: 0xBEEF, found: 0xABCD })
        ));

        // Corruption: quarantined aside, treated as absent.
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(load_or_quarantine_poison(&path, 0xABCD).unwrap(), Vec::new());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_frame_roundtrips() {
        let records = [
            SingleBitRecord {
                trial: 7,
                site: FaultSite { wg: 2, after_retired: 99, reg: 11, lane: 63, bit: 31 },
                outcome: Outcome::Crash { reason: "boom \"quoted\"\n".into() },
                read_before_overwrite: true,
            },
            SingleBitRecord {
                trial: 0,
                site: FaultSite { wg: 0, after_retired: 0, reg: 0, lane: 0, bit: 0 },
                outcome: Outcome::Masked,
                read_before_overwrite: false,
            },
        ];
        for r in records {
            let line = render_record_frame(&r, 1234);
            let v = json::parse(&line).unwrap();
            assert_eq!(parse_record_frame(&v).unwrap(), (r, 1234));
        }
    }

    #[test]
    fn respawn_backoff_is_jittered_deterministic_and_bounded() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let d0 = jittered_backoff(base, cap, 0x5EED, 0, 1);
        assert_eq!(d0, jittered_backoff(base, cap, 0x5EED, 0, 1), "jitter must be deterministic");
        let distinct: std::collections::HashSet<Duration> =
            (0..8).map(|h| jittered_backoff(base, cap, 0x5EED, h, 1)).collect();
        assert!(distinct.len() > 1, "handlers must not retry in lockstep");
        for handler in 0..8 {
            for failures in 1..=20u32 {
                let full = base.saturating_mul(1u32 << failures.saturating_sub(1).min(16)).min(cap);
                let d = jittered_backoff(base, cap, 0x5EED, handler, failures);
                assert!(
                    d <= full && d >= full / 2,
                    "handler {handler} failure {failures}: {d:?} outside [{:?}, {full:?}]",
                    full / 2
                );
                assert!(d <= cap);
            }
        }
    }

    #[test]
    fn spawn_failure_degrades_to_thread_mode() {
        // Local daemons re-execute the current binary as `__serve`; this
        // libtest binary never announces an address, so no daemon starts.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(8);
        let sup = SupervisorConfig {
            workers: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        assert_eq!(report.summary, thread.summary);
        assert!(report.complete);
        assert!(report.poisoned.is_empty());
    }

    #[test]
    fn degrading_to_threads_keeps_earlier_poison() {
        // No local daemon starts under libtest, so the campaign degrades to
        // thread workers — which must still skip, and still report, the
        // trial an earlier run poisoned, in the summary and the checkpoint.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(8);
        let dir = tmpdir("degrade-poison");
        let ckpt = dir.join("c.json");
        let fingerprint = checkpoint::config_fingerprint(w.name, &cfg);
        let entry = PoisonEntry {
            trial: 3,
            site: FaultSite { wg: 0, after_retired: 1, reg: 2, lane: 3, bit: 4 },
            reason: "local worker daemon exited (signal: 9) with 5 trials left".into(),
            attempts: 3,
        };
        let sidecar = default_poison_path(&ckpt);
        save_poison(&sidecar, w.name, fingerprint, std::slice::from_ref(&entry)).unwrap();
        let sup = SupervisorConfig {
            workers: 1,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let runner = RunnerConfig { checkpoint: Some(ckpt.clone()), ..RunnerConfig::serial() };
        let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
        let trials =
            |records: &[SingleBitRecord]| -> Vec<u64> { records.iter().map(|r| r.trial).collect() };
        let expect = vec![0, 1, 2, 4, 5, 6, 7];
        assert_eq!(trials(&report.summary.records), expect);
        assert_eq!(trials(&checkpoint::load(&ckpt).unwrap().records), expect);
        assert_eq!(report.poisoned, vec![entry.clone()]);
        assert_eq!(load_poison(&sidecar).unwrap().entries, vec![entry]);
        assert!(report.complete);
        assert_eq!(report.newly_run, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handshake_garbage_degrades_to_thread_mode() {
        // Garbage instead of a handshake degrades the remote rung to local
        // daemons, which cannot start here either: thread mode finishes.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(6);
        let sup = fake_sup(vec!["running 4 tests".into()]);
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        assert_eq!(report.summary, thread.summary);
        assert!(report.poisoned.is_empty());
    }

    #[test]
    fn tcp_with_no_endpoints_is_rejected() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(4);
        let sup = SupervisorConfig {
            transport: TransportKind::Tcp { endpoints: Vec::new() },
            ..SupervisorConfig::default()
        };
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        assert!(
            matches!(
                err,
                InjectError::Supervisor(SupervisorError::Transport(TransportError::NoEndpoints))
            ),
            "{err}"
        );
    }

    #[test]
    fn lease_expiry_poisons_silent_workers() {
        // A worker that handshakes and then never speaks again: every trial
        // is eventually poisoned, with the lease named as the reason, and
        // the campaign still completes, honestly reporting zero measured
        // trials.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(2);
        let sup = SupervisorConfig {
            lease_timeout: Duration::from_millis(200),
            max_poison: 8,
            ..fake_sup(vec![handshake(&w, &cfg)])
        };
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        assert!(report.complete);
        assert_eq!(report.newly_run, 0);
        assert_eq!(report.summary.records.len(), 0);
        assert_eq!(report.poisoned.len(), 2);
        assert_eq!(report.poisoned[0].trial, 0);
        assert_eq!(report.poisoned[1].trial, 1);
        assert!(
            report.poisoned[0].reason.contains("lease expired"),
            "{}",
            report.poisoned[0].reason
        );
    }

    #[test]
    fn poison_cap_aborts_the_campaign() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(3);
        let sup = SupervisorConfig {
            lease_timeout: Duration::from_millis(150),
            max_poison: 1,
            ..fake_sup(vec![handshake(&w, &cfg)])
        };
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        assert!(
            matches!(
                err,
                InjectError::Supervisor(SupervisorError::TooManyPoisoned { poisoned: 2, cap: 1 })
            ),
            "{err}"
        );
    }

    #[test]
    fn worker_error_frame_is_fatal_not_retried() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(4);
        let sup = fake_sup(vec![handshake(&w, &cfg), "{\"error\": \"unknown workload\"}".into()]);
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        match err {
            InjectError::Supervisor(SupervisorError::WorkerFatal { detail }) => {
                assert_eq!(detail, "unknown workload");
            }
            other => panic!("expected WorkerFatal, got {other}"),
        }
    }

    #[test]
    fn pre_handshake_error_frame_is_fatal_not_mismatch() {
        // A daemon that rejects the hello emits the error frame *before*
        // any handshake; the supervisor must surface the configuration
        // error rather than degrade on a handshake mismatch.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(4);
        let sup = fake_sup(vec!["{\"error\": \"unknown workload \\\"x\\\"\"}".into()]);
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        match err {
            InjectError::Supervisor(SupervisorError::WorkerFatal { detail }) => {
                assert_eq!(detail, "unknown workload \"x\"");
            }
            other => panic!("expected WorkerFatal, got {other}"),
        }
    }
}
