//! # mbavf-inject — deterministic fault-injection campaigns
//!
//! The role multi2sim's injector plays in the paper (Section VII-A): flip
//! bits in the GPU vector register file at random dynamic points, diff the
//! final program output against a golden run, and classify the outcome.
//! Campaigns are seeded and fully deterministic.
//!
//! The headline experiment is the **ACE-interference study** (Table II):
//! single-bit injections identify *SDC ACE bits*; multi-bit faults are then
//! injected on fault groups containing those bits plus adjacent bits, and a
//! group exhibits *ACE interference* when the multi-bit outcome contradicts
//! the union of its constituents' single-bit outcomes (e.g. two flips
//! cancelling inside an XOR tree). The paper finds interference in 0.1% of
//! groups, justifying estimating SDC MB-AVF from single-bit ACE analysis.
//!
//! The **failure triage layer** ([`bundle`], [`replay`], [`shrink`]) turns
//! every visible error a campaign records into a one-command, bit-exact
//! reproduction: campaigns emit self-contained repro bundles, replay
//! re-executes a single bundled trial against a fingerprint-verified golden
//! reference, and the shrinker minimizes multi-bit faults to the smallest
//! window that still reproduces.
//!
//! The **durability layer** ([`checkpoint::wal`], [`durable`], [`chaos`])
//! holds the harness to the standard it measures: every committed trial is
//! journaled with CRC framing and fsync discipline before the next starts,
//! and a deterministic chaos engine (`campaign --chaos <seed>:<rate>`)
//! continuously injects disk-full, torn-write, and fsync failures into the
//! harness's *own* I/O paths to prove committed records survive them.
//!
//! The **preemption layer** ([`cancel`], [`signals`]) makes deliberate
//! early exit as safe as the crashes above: a shared [`CancelToken`]
//! (signal / wall-clock / trial-budget) is checked at every trial
//! boundary, the supervisor drains in-flight shards instead of leasing
//! new ones, and a cancelled run still ends with an fsync'd WAL, a final
//! checkpoint, and honest intervals at the achieved N.

// Unsafe is denied crate-wide and allowed in exactly one place: the two
// hand-declared libc calls in `signals::ffi` (no external crates allowed).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod campaign;
pub mod cancel;
pub mod chaos;
pub mod checkpoint;
pub mod drill;
pub mod durable;
pub mod interference;
pub mod json;
pub mod replay;
pub mod runner;
pub mod shrink;
pub mod signals;
pub mod supervisor;

pub use bundle::{Minimized, ReproBundle, BUNDLE_VERSION, DEFAULT_BUNDLE_CAP};
pub use campaign::{
    single_bit_campaign, CampaignConfig, CampaignStats, CampaignSummary, FaultSite, Fractions,
    Outcome, OutcomeKind, Shortcuts, SingleBitRecord, SiteSampler, SAMPLER_ID,
};
pub use cancel::{CancelReason, CancelToken};
pub use chaos::{ChaosEngine, ChaosSpec};
pub use interference::{interference_study, try_interference_study, InterferenceRow};
pub use mbavf_core::error::{
    BundleError, CheckpointError, InjectError, SupervisorError, TransportError,
};
pub use replay::{find_divergence, load_bundle, replay_bundle, Divergence, ReplayReport};
pub use runner::{
    run_adaptive, run_campaign, AdaptiveConfig, AdaptiveReport, CampaignReport, LatencyStats,
    RunnerConfig,
};
pub use shrink::{shrink_and_update, shrink_bundle, ShrinkOutcome};
pub use signals::{install_terminate_handlers, reset_sigpipe};
pub use supervisor::merge::{MergeVerdict, RecordMerge};
pub use supervisor::{
    run_supervised, serve_main, worker_main, AuditPolicy, IsolationMode, PoisonEntry,
    SupervisorConfig, TransportKind,
};
