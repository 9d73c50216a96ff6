//! Error types shared across the crate.

use std::fmt;

/// Errors produced by MB-AVF analysis and its supporting data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An interval was pushed out of order or overlapping a previous interval.
    IntervalOrder {
        /// Start cycle of the offending interval.
        start: u64,
        /// End of the last interval already in the timeline.
        prev_end: u64,
    },
    /// An interval is empty or inverted (`end <= start`).
    EmptyInterval {
        /// Start cycle of the offending interval.
        start: u64,
        /// End cycle of the offending interval.
        end: u64,
    },
    /// An interval extends past the timeline store's total cycle count.
    IntervalPastEnd {
        /// End cycle of the offending interval.
        end: u64,
        /// Total number of cycles in the store.
        total: u64,
    },
    /// A layout mapped a physical bit to a byte index outside the store.
    ByteOutOfRange {
        /// Offending byte index.
        byte: u32,
        /// Number of bytes in the timeline store.
        len: u32,
    },
    /// A layout mapped a physical bit to a bit index outside `0..8`.
    BitOutOfRange {
        /// Offending bit index.
        bit: u8,
    },
    /// A fault mode has no offsets.
    EmptyFaultMode,
    /// The fault mode does not fit in the layout even once.
    ModeLargerThanLayout {
        /// Mode bounding-box width (columns).
        mode_cols: u32,
        /// Layout width (columns).
        layout_cols: u32,
        /// Mode bounding-box height (rows).
        mode_rows: u32,
        /// Layout height (rows).
        layout_rows: u32,
    },
    /// A windowed analysis was requested with a zero-length window.
    ZeroWindow,
    /// A windowed analysis would need more windows than a result can index
    /// (`u32::MAX`).
    TooManyWindows {
        /// Number of windows the run length and window length imply.
        windows: u64,
    },
    /// A structure was declared with zero bytes or zero cycles.
    EmptyStructure,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::IntervalOrder { start, prev_end } => write!(
                f,
                "interval starting at cycle {start} overlaps or precedes previous interval ending at {prev_end}"
            ),
            CoreError::EmptyInterval { start, end } => {
                write!(f, "interval [{start}, {end}) is empty or inverted")
            }
            CoreError::IntervalPastEnd { end, total } => {
                write!(f, "interval ends at cycle {end} past the structure lifetime of {total} cycles")
            }
            CoreError::ByteOutOfRange { byte, len } => {
                write!(f, "layout references byte {byte} but the timeline store has {len} bytes")
            }
            CoreError::BitOutOfRange { bit } => {
                write!(f, "layout references bit {bit}, outside 0..8")
            }
            CoreError::EmptyFaultMode => write!(f, "fault mode contains no bit offsets"),
            CoreError::ModeLargerThanLayout {
                mode_cols,
                layout_cols,
                mode_rows,
                layout_rows,
            } => write!(
                f,
                "fault mode bounding box {mode_rows}x{mode_cols} does not fit layout {layout_rows}x{layout_cols}"
            ),
            CoreError::ZeroWindow => write!(f, "analysis window length must be nonzero"),
            CoreError::TooManyWindows { windows } => write!(
                f,
                "windowed analysis needs {windows} windows, more than the {} a result can index",
                u32::MAX
            ),
            CoreError::EmptyStructure => {
                write!(f, "structure must have at least one byte and one cycle")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Why a campaign checkpoint could not be used.
///
/// Checkpoints are only valid against the exact campaign that wrote them:
/// the runner fingerprints its configuration (workload, seed, budget, scale,
/// fault width) and refuses to resume across a mismatch, because per-trial
/// seeds — and therefore the meaning of each recorded trial index — depend
/// on all of it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file is not valid checkpoint JSON.
    Malformed {
        /// What the parser objected to.
        detail: String,
    },
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
    /// The checkpoint belongs to a different campaign configuration.
    ConfigMismatch {
        /// Fingerprint of the campaign being resumed.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// A recorded trial index is outside the campaign's injection budget.
    TrialOutOfRange {
        /// The offending trial index.
        trial: u64,
        /// The campaign's injection count.
        budget: u64,
    },
    /// The file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// The campaign's *final* checkpoint save failed even after bounded
    /// retries. Mid-campaign durable-write failures are repaired, or
    /// degrade the run to a checkpointing-disabled mode, and are only
    /// counted; but the final save failing means completed trials were
    /// never made durable — that must be a hard, nonzero-exit error, not a
    /// warning.
    FinalSaveFailed {
        /// Checkpoint path involved.
        path: String,
        /// OS error text of the last attempt.
        detail: String,
        /// Durable-write failures accumulated earlier in the run (the
        /// degradation counter), for the post-mortem.
        durable_write_failures: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { detail } => {
                write!(f, "malformed checkpoint: {detail}")
            }
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint format version {found}, this build expects {expected}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different campaign (config hash {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::TrialOutOfRange { trial, budget } => {
                write!(f, "checkpoint records trial {trial} outside the campaign budget of {budget}")
            }
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O on {path}: {detail}")
            }
            CheckpointError::FinalSaveFailed { path, detail, durable_write_failures } => write!(
                f,
                "final checkpoint save to {path} failed ({detail}) after {durable_write_failures} earlier durable-write failure(s): completed trials are not durable"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a repro bundle could not be loaded or replayed.
///
/// Repro bundles are single-trial forensic records written by the campaign
/// runner; replay refuses to run a bundle whose recorded configuration
/// fingerprint or golden-output digest no longer matches this build, because
/// a "reproduction" against a different golden run would be meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BundleError {
    /// The file is not valid repro-bundle JSON.
    Malformed {
        /// What the parser objected to.
        detail: String,
    },
    /// The bundle was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
    /// The bundle's recorded configuration fingerprint does not match the
    /// fingerprint recomputed from its own embedded configuration.
    FingerprintMismatch {
        /// Fingerprint recomputed by this build.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The golden (fault-free) output digest of this build differs from the
    /// digest recorded at capture time, so outcome classification would not
    /// be comparable.
    GoldenMismatch {
        /// Digest recorded in the bundle.
        expected: u64,
        /// Digest this build computed.
        found: u64,
    },
    /// The bundle names a workload this build does not know.
    UnknownWorkload {
        /// The workload name from the file.
        name: String,
    },
    /// The recorded fault site does not exist in the named workload.
    SiteOutOfRange {
        /// Human-readable explanation of which coordinate is out of range.
        detail: String,
    },
    /// The bundle's trial was drawn by an incompatible fault-site sampler,
    /// so its `(seed, trial)` pair maps to a *different site* under this
    /// build. Replaying it would silently test the wrong fault.
    SamplerMismatch {
        /// Sampler identifier recorded in (or implied by) the file.
        found: String,
        /// Sampler identifier this build uses.
        expected: String,
    },
    /// The file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        detail: String,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Malformed { detail } => {
                write!(f, "malformed repro bundle: {detail}")
            }
            BundleError::VersionMismatch { found, expected } => {
                write!(f, "repro bundle format version {found}, this build expects {expected}")
            }
            BundleError::FingerprintMismatch { expected, found } => write!(
                f,
                "repro bundle fingerprint {found:#018x} does not match its own configuration (recomputed {expected:#018x}); refusing to replay"
            ),
            BundleError::GoldenMismatch { expected, found } => write!(
                f,
                "golden output digest drifted: bundle recorded {expected:#018x}, this build produces {found:#018x}; refusing to replay"
            ),
            BundleError::UnknownWorkload { name } => {
                write!(f, "repro bundle names unknown workload {name:?}")
            }
            BundleError::SiteOutOfRange { detail } => {
                write!(f, "repro bundle fault site out of range: {detail}")
            }
            BundleError::SamplerMismatch { found, expected } => write!(
                f,
                "repro bundle sampled by {found}, this build samples with {expected}; the recorded trial maps to a different fault site — refusing to replay"
            ),
            BundleError::Io { path, detail } => {
                write!(f, "repro bundle I/O on {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for BundleError {}

/// Why a networked supervisor↔worker channel failed.
///
/// The transport carries length-prefixed JSON frames to local and remote
/// worker daemons alike. Most network failures are
/// *retryable* — the supervisor redials with backoff and re-leases the
/// shard — so these variants name only an oversized frame and a campaign
/// left with no endpoint to run on.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// A frame's length prefix (or outbound payload) exceeded the hard
    /// cap, so a corrupt or hostile peer cannot make the supervisor
    /// allocate an attacker-chosen buffer. Mirrors the WAL's record cap.
    FrameTooLarge {
        /// The claimed (or attempted) frame length in bytes.
        len: u64,
        /// The enforced cap in bytes.
        cap: u64,
    },
    /// No worker endpoints were configured for a TCP-transport campaign.
    NoEndpoints,
    /// Every configured worker endpoint died or became unreachable while
    /// shards were still outstanding (and degradation to local execution
    /// was no longer safe).
    AllEndpointsLost {
        /// Shards still waiting for a worker when the last endpoint died.
        pending: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::FrameTooLarge { len, cap } => {
                write!(f, "transport frame of {len} bytes exceeds the {cap}-byte cap")
            }
            TransportError::NoEndpoints => {
                write!(f, "tcp transport configured with no worker endpoints")
            }
            TransportError::AllEndpointsLost { pending } => write!(
                f,
                "all worker endpoints lost with {pending} shard(s) still pending and work already committed"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// Why a supervised (process-isolated) campaign could not continue.
///
/// The supervisor runs trials in worker daemons — local children of the
/// campaign binary, or remote `--listen` processes — so a trial that
/// aborts, OOMs, or livelocks the simulator kills only its worker. These variants cover failures of the *supervision machinery*;
/// a worker dying is ordinarily handled by retry/backoff and poison
/// quarantine, not surfaced as an error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SupervisorError {
    /// A local worker daemon could not be started (and no graceful
    /// degradation to thread mode was possible).
    Spawn {
        /// OS error text.
        detail: String,
    },
    /// A worker produced output that violates the line-delimited JSON
    /// worker protocol (wrong handshake, malformed record, trial outside
    /// its shard).
    Protocol {
        /// What the supervisor objected to.
        detail: String,
    },
    /// A worker reported a deterministic, non-retryable failure (unknown
    /// workload, failed golden run, empty sample space).
    WorkerFatal {
        /// The worker's own description of the failure.
        detail: String,
    },
    /// More trials were poisoned than the configured cap allows; the
    /// campaign is systematically killing its workers rather than hitting
    /// isolated poison trials.
    TooManyPoisoned {
        /// Trials quarantined so far.
        poisoned: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The poison sidecar file exists but belongs to a different campaign
    /// configuration.
    SidecarMismatch {
        /// Fingerprint of the campaign being run.
        expected: u64,
        /// Fingerprint recorded in the sidecar.
        found: u64,
    },
    /// The poison sidecar could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// The networked transport to the worker fleet failed unrecoverably.
    Transport(TransportError),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Spawn { detail } => {
                write!(f, "cannot start a local worker daemon: {detail}")
            }
            SupervisorError::Protocol { detail } => {
                write!(f, "worker protocol violation: {detail}")
            }
            SupervisorError::WorkerFatal { detail } => {
                write!(f, "worker reported a non-retryable failure: {detail}")
            }
            SupervisorError::TooManyPoisoned { poisoned, cap } => write!(
                f,
                "{poisoned} trials poisoned (cap {cap}): workers are dying systematically, not on isolated poison trials"
            ),
            SupervisorError::SidecarMismatch { expected, found } => write!(
                f,
                "poison sidecar belongs to a different campaign (config hash {found:#018x}, expected {expected:#018x})"
            ),
            SupervisorError::Io { path, detail } => {
                write!(f, "poison sidecar I/O on {path}: {detail}")
            }
            SupervisorError::Transport(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for SupervisorError {
    fn from(e: TransportError) -> Self {
        SupervisorError::Transport(e)
    }
}

/// Errors from fault-injection campaigns (the `mbavf-inject` runner).
///
/// A *trial* panicking is deliberately **not** an error: fault-induced
/// interpreter crashes are campaign data (`Outcome::Crash`). These variants
/// cover failures of the campaign itself.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectError {
    /// The golden (fault-free) run failed, so no trial can be classified.
    GoldenRunFailed {
        /// Workload name.
        workload: String,
        /// What went wrong.
        detail: String,
    },
    /// A checkpoint could not be loaded or saved.
    Checkpoint(CheckpointError),
    /// A repro bundle could not be written, loaded, or replayed.
    Bundle(BundleError),
    /// Process-isolated execution failed at the supervision layer.
    Supervisor(SupervisorError),
    /// The runner was configured inconsistently.
    BadConfig {
        /// Human-readable explanation.
        detail: String,
    },
    /// The golden run retired no instructions in any wavefront, so there is
    /// no residency to sample fault sites from (an empty or degenerate
    /// workload, not a campaign failure worth panicking over).
    EmptySampleSpace {
        /// Human-readable explanation (workload / retirement shape).
        detail: String,
    },
    /// A full replay of a campaign's SDC site did not come back SDC. Replay
    /// is deterministic and the campaign's golden-run shortcuts are exact,
    /// so this is a bug in one of them, never a result to count.
    ReplayNotSdc {
        /// Workload name.
        workload: String,
        /// The replayed fault site, rendered.
        site: String,
        /// The outcome class the replay produced instead.
        outcome: String,
    },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::GoldenRunFailed { workload, detail } => {
                write!(f, "golden run of {workload} failed: {detail}")
            }
            InjectError::Checkpoint(e) => write!(f, "{e}"),
            InjectError::Bundle(e) => write!(f, "{e}"),
            InjectError::Supervisor(e) => write!(f, "{e}"),
            InjectError::BadConfig { detail } => write!(f, "bad campaign config: {detail}"),
            InjectError::EmptySampleSpace { detail } => {
                write!(f, "no retired instructions to sample fault sites from: {detail}")
            }
            InjectError::ReplayNotSdc { workload, site, outcome } => write!(
                f,
                "replaying SDC site {site} of {workload} gave {outcome}, not sdc: \
                 the executor is nondeterministic or a golden-run shortcut is wrong"
            ),
        }
    }
}

impl std::error::Error for InjectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InjectError::Checkpoint(e) => Some(e),
            InjectError::Bundle(e) => Some(e),
            InjectError::Supervisor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for InjectError {
    fn from(e: CheckpointError) -> Self {
        InjectError::Checkpoint(e)
    }
}

impl From<BundleError> for InjectError {
    fn from(e: BundleError) -> Self {
        InjectError::Bundle(e)
    }
}

impl From<SupervisorError> for InjectError {
    fn from(e: SupervisorError) -> Self {
        InjectError::Supervisor(e)
    }
}

/// One workload's failure inside the measurement pipeline.
///
/// The experiment harness treats these as *skips*, not aborts: one workload
/// failing its reference check (or crashing the simulator) must not cost the
/// other twelve their tables and figures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The workload's post-run reference check rejected the output.
    CheckFailed {
        /// Workload name.
        workload: String,
        /// The checker's description of the first mismatch.
        detail: String,
    },
    /// The simulation itself panicked.
    Crash {
        /// Workload name.
        workload: String,
        /// Captured panic message.
        reason: String,
    },
    /// An injection campaign attached to this workload failed.
    Inject {
        /// Workload name.
        workload: String,
        /// The underlying campaign error.
        source: InjectError,
    },
    /// Two fault-free golden runs of the workload produced different
    /// outputs. A nondeterministic golden run would silently poison every
    /// Masked/SDC classification downstream, so the pipeline refuses to
    /// measure the workload at all.
    NondeterministicGolden {
        /// Workload name.
        workload: String,
        /// Output digest of the first golden run.
        digest_a: u64,
        /// Output digest of the second golden run.
        digest_b: u64,
    },
}

impl PipelineError {
    /// The workload this failure belongs to.
    pub fn workload(&self) -> &str {
        match self {
            PipelineError::CheckFailed { workload, .. }
            | PipelineError::Crash { workload, .. }
            | PipelineError::Inject { workload, .. }
            | PipelineError::NondeterministicGolden { workload, .. } => workload,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::CheckFailed { workload, detail } => {
                write!(f, "{workload}: reference check failed: {detail}")
            }
            PipelineError::Crash { workload, reason } => {
                write!(f, "{workload}: simulation crashed: {reason}")
            }
            PipelineError::Inject { workload, source } => {
                write!(f, "{workload}: injection campaign failed: {source}")
            }
            PipelineError::NondeterministicGolden { workload, digest_a, digest_b } => write!(
                f,
                "{workload}: golden run is nondeterministic (output digests {digest_a:#018x} vs {digest_b:#018x}); refusing to classify injections against it"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Inject { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            CoreError::IntervalOrder { start: 5, prev_end: 9 },
            CoreError::EmptyInterval { start: 3, end: 3 },
            CoreError::IntervalPastEnd { end: 11, total: 10 },
            CoreError::ByteOutOfRange { byte: 7, len: 4 },
            CoreError::BitOutOfRange { bit: 9 },
            CoreError::EmptyFaultMode,
            CoreError::ModeLargerThanLayout {
                mode_cols: 8,
                layout_cols: 4,
                mode_rows: 1,
                layout_rows: 1,
            },
            CoreError::ZeroWindow,
            CoreError::TooManyWindows { windows: 1 << 32 },
            CoreError::EmptyStructure,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        assert_send_sync::<CheckpointError>();
        assert_send_sync::<InjectError>();
        assert_send_sync::<PipelineError>();
    }

    #[test]
    fn campaign_errors_display_and_chain() {
        let ck = CheckpointError::ConfigMismatch { expected: 1, found: 2 };
        let inj: InjectError = ck.clone().into();
        assert!(inj.to_string().contains("different campaign"));
        let pipe = PipelineError::Inject { workload: "dct".into(), source: inj };
        assert_eq!(pipe.workload(), "dct");
        assert!(std::error::Error::source(&pipe).is_some());
        for e in [
            PipelineError::CheckFailed { workload: "a".into(), detail: "x".into() },
            PipelineError::Crash { workload: "b".into(), reason: "y".into() },
            PipelineError::NondeterministicGolden {
                workload: "c".into(),
                digest_a: 1,
                digest_b: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(
            PipelineError::NondeterministicGolden {
                workload: "c".into(),
                digest_a: 1,
                digest_b: 2
            }
            .workload(),
            "c"
        );
        for e in [
            CheckpointError::Malformed { detail: "d".into() },
            CheckpointError::VersionMismatch { found: 9, expected: 1 },
            CheckpointError::TrialOutOfRange { trial: 10, budget: 5 },
            CheckpointError::Io { path: "/p".into(), detail: "gone".into() },
            CheckpointError::FinalSaveFailed {
                path: "/p".into(),
                detail: "No space left on device".into(),
                durable_write_failures: 3,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
        let fin = CheckpointError::FinalSaveFailed {
            path: "/p".into(),
            detail: "No space left on device".into(),
            durable_write_failures: 3,
        };
        let text = fin.to_string();
        assert!(text.contains("/p") && text.contains("3") && text.contains("not durable"));
    }

    #[test]
    fn bundle_errors_display_and_chain() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BundleError>();
        for e in [
            BundleError::Malformed { detail: "d".into() },
            BundleError::VersionMismatch { found: 9, expected: 1 },
            BundleError::FingerprintMismatch { expected: 1, found: 2 },
            BundleError::GoldenMismatch { expected: 3, found: 4 },
            BundleError::UnknownWorkload { name: "ghost".into() },
            BundleError::SiteOutOfRange { detail: "wg 99".into() },
            BundleError::SamplerMismatch { found: "v1".into(), expected: "v2".into() },
            BundleError::Io { path: "/p".into(), detail: "gone".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
        let sm = BundleError::SamplerMismatch { found: "v1".into(), expected: "v2".into() };
        assert!(sm.to_string().contains("v1") && sm.to_string().contains("v2"));
        assert!(InjectError::EmptySampleSpace { detail: "all-zero retirement".into() }
            .to_string()
            .contains("all-zero retirement"));
        let inj: InjectError = BundleError::UnknownWorkload { name: "ghost".into() }.into();
        assert!(inj.to_string().contains("ghost"));
        assert!(std::error::Error::source(&inj).is_some());
    }

    #[test]
    fn supervisor_errors_display_and_chain() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SupervisorError>();
        for e in [
            SupervisorError::Spawn { detail: "ENOENT".into() },
            SupervisorError::Protocol { detail: "bad handshake".into() },
            SupervisorError::WorkerFatal { detail: "unknown workload".into() },
            SupervisorError::TooManyPoisoned { poisoned: 17, cap: 16 },
            SupervisorError::SidecarMismatch { expected: 1, found: 2 },
            SupervisorError::Io { path: "/p".into(), detail: "gone".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
        let tm = SupervisorError::TooManyPoisoned { poisoned: 17, cap: 16 };
        assert!(tm.to_string().contains("17") && tm.to_string().contains("16"));
        let inj: InjectError = SupervisorError::Spawn { detail: "ENOENT".into() }.into();
        assert!(inj.to_string().contains("ENOENT"));
        assert!(std::error::Error::source(&inj).is_some());
    }

    #[test]
    fn transport_errors_display_and_chain() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TransportError>();
        for e in [
            TransportError::FrameTooLarge { len: 1 << 30, cap: 1 << 20 },
            TransportError::NoEndpoints,
            TransportError::AllEndpointsLost { pending: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
        let big = TransportError::FrameTooLarge { len: 1 << 30, cap: 1 << 20 };
        let text = big.to_string();
        assert!(
            text.contains(&(1u64 << 30).to_string()) && text.contains(&(1u64 << 20).to_string())
        );
    }

    #[test]
    fn version_mismatch_messages_name_both_versions() {
        // A researcher staring at a stale file needs to see the version they
        // have AND the version this build wants, for both file formats.
        let ck = CheckpointError::VersionMismatch { found: 1, expected: 2 };
        assert!(ck.to_string().contains('1') && ck.to_string().contains('2'));
        let bu = BundleError::VersionMismatch { found: 1, expected: 2 };
        assert!(bu.to_string().contains('1') && bu.to_string().contains('2'));
    }
}
