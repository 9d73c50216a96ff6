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
//! frame, `{"mbavf_hello": 2, "workload": …, <config fields>}`), then a
//! lease frame per shard. Frames are length-delimited JSON. The daemon
//! answers each lease with:
//!
//! 1. a handshake — `{"mbavf_worker": 2, "fingerprint": <u64>}` — that the
//!    supervisor validates against its own config fingerprint,
//! 2. one record frame per trial, in order (checkpoint record fields plus
//!    `"us"`, the trial's wall-clock in microseconds),
//! 3. a `{"done": N}` sentinel on success; or `{"error": "<detail>"}` for a
//!    fatal configuration error.
//!
//! A handler commits records in groups through the thread workers' commit
//! path ([`crate::runner`]): one journal write and fsync per group.
//!
//! ## Failure policy
//!
//! While a worker holds a shard, a `lease::Lease` tracks the revocation
//! deadline: a **sliding lease** (`lease_timeout`) renewed by the handshake
//! and by committed records only, so a livelocked executor on an open
//! connection still loses its lease. A missed deadline revokes the lease
//! (sever the socket; kill a local daemon) and retries the shard's
//! *remaining* trials with bounded, per-handler-jittered exponential
//! backoff; because records arrive in trial order and are
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
    worker_count, CampaignReport, CommitGroup, OpenCampaign, RunnerConfig, Supervision, CLAIM_CHUNK,
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
use self::merge::MergeVerdict;
use self::transport::{render_hello, ChannelEvent, Transport};

/// Version of the supervisor↔worker protocol (the handshake's
/// `mbavf_worker` field, and the hello frame's `mbavf_hello` field). Bumped
/// whenever the frame format changes; a daemon answers a hello of another
/// version with an error frame.
pub const PROTOCOL_VERSION: u64 = 2;

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
    /// Trials per worker shard, at most [`MAX_LEASE_TRIALS`]. Shard
    /// boundaries are `trial / shard_size`, so records are invariant under
    /// the worker count.
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
    /// its shard (revoked and re-leased, possibly elsewhere). Renewed by the
    /// handshake and by committed records, nothing else: a trial that runs
    /// longer than this loses its lease. Also bounds the dial and the
    /// arrival of a frame already begun.
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

/// Most trials one lease may name. A lease covers one shard, so
/// [`run_supervised`] refuses a larger [`SupervisorConfig::shard_size`], and
/// [`parse_trials`] refuses a longer list before allocating for it.
pub const MAX_LEASE_TRIALS: usize = 1 << 16;

/// Parse [`format_trials`] output back into a trial list.
///
/// # Errors
///
/// A description of the first malformed segment (bad integer, inverted
/// range, empty list), or of a list naming more than
/// [`MAX_LEASE_TRIALS`] trials — rejected before the segment that crosses
/// the bound is expanded, since a daemon parses whatever a peer sends.
pub fn parse_trials(s: &str) -> Result<Vec<u64>, String> {
    let mut trials = Vec::new();
    for seg in s.split(',') {
        let parse = |t: &str| t.parse::<u64>().map_err(|_| format!("bad trial index {t:?}"));
        let (a, b) = match seg.split_once('-') {
            Some((a, b)) => (parse(a)?, parse(b)?),
            None => (parse(seg)?, parse(seg)?),
        };
        if a > b {
            return Err(format!("inverted range {seg:?}"));
        }
        // The segment names `b - a + 1` trials; the list has room for
        // `MAX_LEASE_TRIALS - trials.len()` more.
        if b - a >= (MAX_LEASE_TRIALS - trials.len()) as u64 {
            return Err(format!("trial list names more than {MAX_LEASE_TRIALS} trials"));
        }
        trials.extend(a..=b);
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
        let _ = write!(out, "{sep}    {{\"trial\": {}, ", e.trial);
        checkpoint::write_site(&mut out, &e.site);
        let _ = write!(out, ", \"attempts\": {}, \"reason\": ", e.attempts);
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
    let bad =
        |detail: String| SupervisorError::Protocol { detail: format!("poison sidecar: {detail}") };
    let doc = json::parse(&text).map_err(bad)?;
    let version = checkpoint::parse_u64(&doc, "version", ..).map_err(bad)?;
    if version != POISON_VERSION {
        return Err(bad(format!("foreign version {version}")));
    }
    let workload = checkpoint::parse_str(&doc, "workload").map_err(bad)?.to_string();
    let config_hash = checkpoint::parse_u64(&doc, "config_hash", ..).map_err(bad)?;
    let raw = doc
        .get("poisoned")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("missing \"poisoned\"".into()))?;
    let mut entries = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let bad = |detail: String| bad(format!("entry {i}: {detail}"));
        entries.push(PoisonEntry {
            trial: checkpoint::parse_u64(e, "trial", ..).map_err(bad)?,
            site: checkpoint::parse_site(e).map_err(bad)?,
            attempts: checkpoint::parse_u64(e, "attempts", ..=u64::from(u32::MAX)).map_err(bad)?
                as u32,
            reason: checkpoint::parse_str(e, "reason").map_err(bad)?.to_string(),
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

/// Parse a record frame, `v` being its JSON. Only a record's canonical
/// rendering is one, so what a handler journals is byte for byte what its
/// daemon sent — never a reading of duplicate, defaulted or stray keys.
fn parse_record_frame(frame: &str, v: &Value) -> Result<(SingleBitRecord, u64), String> {
    let record = checkpoint::parse_record(v, 0).map_err(|e| e.to_string())?;
    let us = v.get("us").and_then(Value::as_u64).ok_or("missing or non-integer \"us\"")?;
    if render_record_frame(&record, us) != frame {
        return Err("not the canonical rendering of its record".into());
    }
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
    /// The worker sent a record conflicting with committed state, or an
    /// audit divergence pushed it past the trust ledger's budget — a trust
    /// failure charged to the endpoint (`quarantined` reports whether it is
    /// now quarantined for the rest of the campaign), not a campaign-fatal
    /// protocol error.
    Hostile { quarantined: bool, detail: String },
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

/// One lease's stream: the handler's open commit group and what the lease
/// has achieved so far.
struct LeaseStream<'a, 'r> {
    /// The shard's trials not yet committed, in trial order.
    remaining: &'r mut VecDeque<u64>,
    group: CommitGroup<'a>,
    /// Per grouped record: whether it passed an audit.
    passed: Vec<bool>,
    lease: Lease,
    progress: bool,
    handshaken: bool,
}

impl LeaseStream<'_, '_> {
    fn died(&self, detail: String) -> ShardRun {
        ShardRun::Died { progress: self.progress, handshaken: self.handshaken, detail }
    }
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
        let hello = render_hello(self.campaign.workload.name, self.campaign.cfg);
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

    /// Stream one lease's messages, committing its records in groups.
    /// Committed trials are removed from `remaining`, so a retry re-leases
    /// only what is still missing — and the head of `remaining` is always
    /// the trial the last death is attributable to. A record frame is
    /// audited on arrival and joins the open group, which commits when full,
    /// when no frame is ready, right after an audit divergence, and before
    /// anything else is acted on — so no return leaves it open.
    fn stream_shard(&self, transport: &mut Transport, remaining: &mut VecDeque<u64>) -> ShardRun {
        let limit = self.campaign.runner.checkpoint_every.min(CLAIM_CHUNK);
        let mut s = LeaseStream {
            remaining,
            group: CommitGroup::new(&self.campaign.shared, limit),
            passed: Vec::new(),
            lease: Lease::new(self.sup.lease_timeout),
            progress: false,
            handshaken: false,
        };
        let mut drain_sent = false;
        loop {
            // Stop and cancellation are acted on between groups: an open
            // group commits at the next empty poll, or once it is full.
            if s.group.is_empty() {
                if self.stop.load(Ordering::SeqCst) || self.degrade.load(Ordering::SeqCst) {
                    transport.revoke();
                    return s.died("supervisor shutdown".into());
                }
                if let Some(reason) = self.campaign.runner.cancel.cancelled() {
                    if !s.handshaken {
                        // A daemon that has not yet handshaken has streamed
                        // no work: revoke.
                        transport.revoke();
                        return s.died(format!("cancelled ({reason})"));
                    }
                    // Graceful preemption of a live daemon: ask it to finish
                    // the trial in flight and part cleanly, then keep
                    // streaming (and committing) until its `drained` ack. A
                    // daemon that never acks still loses its lease on the
                    // ordinary expiry path below — drain adds no new way to
                    // hang the supervisor.
                    if !drain_sent {
                        if let Err(detail) = transport.drain() {
                            transport.revoke();
                            let detail = format!("cancelled ({reason}); drain failed: {detail}");
                            return s.died(detail);
                        }
                        drain_sent = true;
                    }
                }
            }
            // With a group open, poll without waiting: the first empty poll
            // commits it.
            let wait = if s.group.is_empty() { s.lease.poll_wait() } else { Duration::ZERO };
            let event = transport.recv(wait);
            let frame = match &event {
                ChannelEvent::Msg(frame) => Some(frame.as_str()),
                _ => None,
            };
            let v = frame.and_then(|frame| json::parse(frame).ok());
            let control =
                |v: &Value| ["drained", "error", "done"].iter().any(|k| v.get(k).is_some());
            let record = frame
                .zip(v.as_ref())
                .filter(|(_, v)| s.handshaken && !control(v))
                .map(|(frame, v)| parse_record_frame(frame, v));
            if let Some(Ok((mut record, mut us))) = record {
                let trial = record.trial;
                // Leased: covered by the sender's lease and not already
                // delivered into the open group.
                let leased = s.remaining.contains(&trial) && !s.group.holds(trial);
                // Trust-but-verify: re-execute sampled records in full on
                // the local arena *before* they reach the WAL — never through
                // the shortcuts the worker took, so a wrong shortcut surfaces
                // as a divergence. The sample is a pure function of (seed,
                // trial), so it is invariant under the worker count and
                // endpoint layout; only leased (first-delivery) records are
                // audited, so each selected trial is audited exactly once. On
                // divergence the local re-execution wins the tie: the local
                // record is committed, the remote one discarded.
                let (mut passed, mut diverged) = (false, false);
                let auditor = self.auditor.as_ref().filter(|_| leased);
                if let (Some(policy), Some(auditor)) = (self.sup.audit, auditor) {
                    if policy.selects(self.campaign.cfg.seed, trial) {
                        let (local, local_us) =
                            auditor.lock().expect("auditor lock").run_trial_in_full(trial);
                        (passed, diverged) = (local == record, local != record);
                        if diverged {
                            (record, us) = (local, local_us);
                        }
                    }
                }
                s.passed.push(passed);
                if s.group.push(record, us, leased) || diverged {
                    if let Some(run) = self.settle(&mut s, transport) {
                        return run;
                    }
                }
                // A divergence commits its group at once, so the local record
                // is committed and the ledger charged before the next frame.
                if diverged {
                    let endpoint = transport.endpoint();
                    eprintln!(
                        "warning: audit divergence on trial {trial}: endpoint {endpoint} disagrees with local re-execution; the local record was committed"
                    );
                    if self.ledger.record_divergence(&endpoint) {
                        transport.revoke();
                        return ShardRun::Hostile {
                            quarantined: true,
                            detail: format!(
                                "quarantined by the trust ledger after an audit divergence on trial {trial}"
                            ),
                        };
                    }
                }
                continue;
            }
            // Anything but a record frame is acted on only once the open
            // group is committed.
            if let Some(run) = self.settle(&mut s, transport) {
                return run;
            }
            let frame = match event {
                ChannelEvent::Msg(frame) => frame,
                ChannelEvent::Idle => {
                    if s.lease.expired() {
                        let detail = s.lease.describe(s.remaining.len());
                        transport.revoke();
                        return s.died(detail);
                    }
                    continue;
                }
                ChannelEvent::Eof { status } => {
                    // A worker that drained its shard but lost the sentinel
                    // did all the work; don't retry an empty shard.
                    if s.remaining.is_empty() {
                        return ShardRun::Done;
                    }
                    return s.died(format!("{status} with {} trials left", s.remaining.len()));
                }
            };
            // An error frame is fatal, even before the handshake: there it
            // means the daemon rejected our hello's configuration.
            if let Some(detail) = v.as_ref().and_then(|v| v.get("error")).and_then(Value::as_str) {
                let detail = detail.to_string();
                transport.revoke();
                return ShardRun::Fatal(SupervisorError::WorkerFatal { detail });
            }
            if !s.handshaken {
                let ok = v.is_some_and(|v| {
                    v.get("mbavf_worker").and_then(Value::as_u64) == Some(PROTOCOL_VERSION)
                        && v.get("fingerprint").and_then(Value::as_u64)
                            == Some(self.campaign.fingerprint)
                });
                if !ok {
                    transport.revoke();
                    let head: String = frame.chars().take(120).collect();
                    return ShardRun::Mismatch(format!("expected worker handshake, got {head:?}"));
                }
                s.handshaken = true;
                s.lease.renew();
                continue;
            }
            let Some(v) = v else {
                // A malformed frame: nothing to commit. A dying worker's EOF
                // drives the retry.
                continue;
            };
            if let Some(Err(detail)) = record {
                transport.revoke();
                return ShardRun::Fatal(SupervisorError::Protocol {
                    detail: format!("bad record frame: {detail}"),
                });
            }
            if v.get("drained").is_some() {
                // The daemon honored our drain frame: its in-flight trial is
                // committed (we streamed it above), its lease is flushed
                // back, and it parted cleanly. The shard's leftovers stay
                // pending for the resume.
                return s.died("endpoint drained after cancellation".into());
            }
            // The one frame left is `done`.
            return if s.remaining.is_empty() {
                ShardRun::Done
            } else {
                ShardRun::Fatal(SupervisorError::Protocol {
                    detail: format!(
                        "worker reported done with {} trials unaccounted for",
                        s.remaining.len()
                    ),
                })
            };
        }
    }

    /// Commit the handler's open group and settle its verdicts, once per
    /// group: committed trials leave `remaining` and renew the lease, passed
    /// audits are counted, and the preempt drill counts the group's fresh
    /// trials. Returns how the stream ends when the group held a
    /// conflicting or foreign record.
    fn settle(&self, s: &mut LeaseStream, transport: &mut Transport) -> Option<ShardRun> {
        if s.group.is_empty() {
            return None;
        }
        let (done, verdicts) = s.group.commit();
        let fresh = verdicts.iter().filter(|(_, v)| *v == MergeVerdict::Fresh).count();
        crate::signals::preempt_drill(done - fresh, done);
        for (&(trial, ref verdict), passed) in verdicts.iter().zip(s.passed.drain(..)) {
            match verdict {
                // A duplicate replays a record an earlier lease committed
                // (reconnect, duplicated frames): dropped by the merge,
                // never recounted. Only fresh records passed an audit.
                MergeVerdict::Fresh | MergeVerdict::Duplicate => {
                    if let Some(pos) = s.remaining.iter().position(|&t| t == trial) {
                        s.remaining.remove(pos);
                        s.progress = true;
                    }
                    if passed {
                        self.ledger.record_pass();
                    }
                }
                MergeVerdict::Conflict { detail } => {
                    // A record contradicting committed state is a trust
                    // failure, charged to the endpoint's retry budget and
                    // trust ledger — not silently formatted into a fatal
                    // error.
                    let quarantined = self.ledger.record_conflict(&transport.endpoint());
                    transport.revoke();
                    return Some(ShardRun::Hostile { quarantined, detail: detail.clone() });
                }
                MergeVerdict::Foreign { .. } => {
                    transport.revoke();
                    return Some(ShardRun::Fatal(SupervisorError::Protocol {
                        detail: format!("worker emitted trial {trial} outside its shard"),
                    }));
                }
            }
        }
        s.lease.renew();
        None
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
                        // A local daemon contradicting committed state or
                        // its audit is a determinism bug in this very
                        // binary, not a trust problem — fail loudly.
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
    if !(1..=MAX_LEASE_TRIALS).contains(&sup.shard_size) {
        return Err(InjectError::BadConfig {
            detail: format!("shard_size must be in 1..={MAX_LEASE_TRIALS}"),
        });
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
    let size = sup.shard_size as u64;
    let shards: VecDeque<Shard> = campaign
        .pending
        .chunk_by(|a, b| a / size == b / size)
        .map(|trials| Shard::new(trials.iter().copied().collect()))
        .collect();
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
mod parser_fuzz;

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
    /// lease frame with `frames`, pausing `gap` before each but the first —
    /// then stays silent until the supervisor hangs up. Returns the address
    /// to connect to.
    fn fake_daemon(frames: Vec<String>, gap: Duration) -> String {
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
                        for (i, f) in frames.iter().enumerate() {
                            if i > 0 {
                                std::thread::sleep(gap);
                            }
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
        paced_sup(frames, Duration::ZERO)
    }

    /// [`fake_sup`] with the fake daemon pausing `gap` between frames.
    fn paced_sup(frames: Vec<String>, gap: Duration) -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            transport: TransportKind::Tcp { endpoints: vec![fake_daemon(frames, gap)] },
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

    /// A lease list is bounded before it is expanded. The inputs stay small
    /// even if the bound regresses: the full `u64` range overflows the
    /// allocator's capacity check at once, and one trial over the bound is
    /// half a megabyte.
    #[test]
    fn lease_lists_are_bounded_before_allocating() {
        let at_bound = parse_trials(&format!("0-{}", MAX_LEASE_TRIALS - 1)).unwrap();
        assert_eq!(at_bound.len(), MAX_LEASE_TRIALS);
        for over in [
            format!("0-{}", u64::MAX),
            format!("0-{MAX_LEASE_TRIALS}"),
            format!("7,0-{}", MAX_LEASE_TRIALS - 1),
        ] {
            let err = parse_trials(&over).unwrap_err();
            assert!(err.contains("more than"), "{over}: {err}");
        }
        // No honest lease reaches the bound: a larger shard is refused.
        let w = by_name("transpose").expect("registered");
        let sup =
            SupervisorConfig { shard_size: MAX_LEASE_TRIALS + 1, ..SupervisorConfig::default() };
        let err = run_supervised(&w, &cfg(4), &RunnerConfig::serial(), &sup).unwrap_err();
        assert!(matches!(err, InjectError::BadConfig { .. }), "{err}");
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
            assert_eq!(parse_record_frame(&line, &v).unwrap(), (r, 1234));
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
    fn records_alone_keep_a_slow_workers_lease() {
        // A worker whose records land half a lease timeout apart, over three
        // timeouts, with nothing in between: each committed record renews
        // the lease, so the campaign completes with nothing poisoned (with
        // no retries, one expiry would poison a trial).
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(6);
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        let lease_timeout = Duration::from_millis(300);
        let mut frames = vec![handshake(&w, &cfg)];
        frames.extend(thread.summary.records.iter().map(|r| render_record_frame(r, 1)));
        frames.push("{\"done\": 6}".into());
        let sup = SupervisorConfig { lease_timeout, ..paced_sup(frames, lease_timeout / 2) };
        let t0 = std::time::Instant::now();
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        assert!(t0.elapsed() > 2 * lease_timeout, "the stream must outlast two lease timeouts");
        assert!(report.complete);
        assert!(report.poisoned.is_empty(), "poisoned: {:?}", report.poisoned);
        assert_eq!(report.summary, thread.summary);
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
    fn a_megabyte_of_nesting_from_a_worker_is_dropped_and_the_stream_goes_on() {
        // A hostile worker slips the largest frame the protocol allows — all
        // nesting — into an otherwise honest record stream. The handler
        // drops it as malformed instead of overflowing its stack, and the
        // campaign finishes bit-identical to thread mode.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(6);
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        let mut frames = vec![handshake(&w, &cfg), "[".repeat(transport::MAX_FRAME)];
        frames.extend(thread.summary.records.iter().map(|r| render_record_frame(r, 1)));
        frames.push("{\"done\": 6}".into());
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &fake_sup(frames)).unwrap();
        assert_eq!(report.summary, thread.summary);
        assert!(report.poisoned.is_empty());
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
