//! Trust-but-verify: deterministic record auditing and the endpoint trust
//! ledger.
//!
//! The supervisor's merge already guarantees records cannot be
//! double-counted or reordered, but until now it *trusted their contents*:
//! a worker daemon on defective silicon — a mercurial core — can return a
//! confidently wrong verdict and silently skew the MB-AVF estimate the
//! campaign exists to compute. A harness that measures silent data
//! corruption must not itself be corruptible by it.
//!
//! [`AuditPolicy`] closes that gap. `campaign --audit RATE` selects a
//! deterministic sample of committed-candidate records — the draw is a pure
//! function of `(campaign seed, trial index)`, so the audited set is
//! invariant under the worker count, the endpoint layout, and the resume
//! schedule — and re-executes each selected trial locally through the same
//! arena path the workers use, *before* the remote record reaches the WAL.
//! The two records must be bit-identical. On divergence the local
//! re-execution is authoritative (local tie-break): the local record is
//! committed, the remote one discarded, and the lie is charged to the
//! endpoint.
//!
//! `TrustLedger` keeps the per-endpoint score. Audit divergences and
//! merge [`Conflict`](super::merge::MergeVerdict::Conflict)s both count as
//! trust failures; past `--max-audit-failures` of them the endpoint is
//! **quarantined** for the rest of the campaign — its current lease is
//! revoked, its shard handed back through the `LeaseQueue`
//! give-back for surviving endpoints, and it is never leased to again. The
//! summary reports `audited`, `audit_divergences`, `merge_conflicts`, and
//! `quarantined_endpoints` honestly; the checkpoint itself carries only the
//! (audited) records, so an audited campaign's checkpoint stays
//! byte-identical to an unaudited or thread-mode run.

use mbavf_core::rng::SplitMix64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Domain tag folded into the audit seed so the sampling stream cannot
/// collide with trial streams, backoff jitter, or the chaos schedule
/// derived from the same user seed.
const AUDIT_TAG: u64 = 0xA0D1_7A0D_17A0_D17A;

/// Parsed `--audit RATE` / `--max-audit-failures N` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditPolicy {
    /// Sampling rate in 2^-32 units, so selection is integer-exact and
    /// a rate of 1.0 audits every record.
    threshold: u32,
    /// Trust failures (divergences + merge conflicts) an endpoint may
    /// accumulate before it is quarantined. `0` quarantines on the first.
    max_failures: u32,
}

impl AuditPolicy {
    /// Build a policy auditing `rate` (a probability in `[0, 1]`) of all
    /// committed-candidate records, quarantining endpoints past
    /// `max_failures` trust failures.
    #[must_use]
    pub fn new(rate: f64, max_failures: u32) -> AuditPolicy {
        // Same quantization as the chaos engine: branch-exact, and 1.0
        // really selects everything.
        let threshold = if rate >= 1.0 { u32::MAX } else { (rate * f64::from(u32::MAX)) as u32 };
        AuditPolicy { threshold, max_failures }
    }

    /// Whether `trial` is in the audit sample. A pure function of
    /// `(seed, trial)` — never of which worker, endpoint, lease, or attempt
    /// delivered the record — so the audited set is invariant under the
    /// entire execution schedule.
    #[must_use]
    pub fn selects(&self, seed: u64, trial: u64) -> bool {
        if self.threshold == 0 {
            // Rates that quantize to zero mean "audit nothing" — without
            // this gate a draw of exactly 0 would still select.
            return false;
        }
        SplitMix64::stream(seed ^ AUDIT_TAG, trial).next_u32() <= self.threshold
    }

    /// The quarantine budget: trust failures tolerated per endpoint.
    #[must_use]
    pub fn max_failures(&self) -> u32 {
        self.max_failures
    }
}

/// Per-endpoint trust state.
#[derive(Debug, Default)]
struct EndpointTrust {
    /// Trust failures charged so far (divergences + merge conflicts).
    failures: u32,
    /// Whether this endpoint is quarantined for the rest of the campaign.
    quarantined: bool,
}

/// The campaign-wide trust ledger: per-endpoint failure counts keyed by the
/// transport's endpoint description, plus the global audit counters the
/// summary and heartbeat report.
#[derive(Debug)]
pub(crate) struct TrustLedger {
    /// Trust failures tolerated per endpoint before quarantine.
    max_failures: u32,
    endpoints: Mutex<BTreeMap<String, EndpointTrust>>,
    audited: AtomicU64,
    divergences: AtomicU64,
    conflicts: AtomicU64,
}

impl TrustLedger {
    pub(crate) fn new(max_failures: u32) -> TrustLedger {
        TrustLedger {
            max_failures,
            endpoints: Mutex::new(BTreeMap::new()),
            audited: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    /// An audited record matched its local re-execution.
    pub(crate) fn record_pass(&self) {
        self.audited.fetch_add(1, Ordering::SeqCst);
    }

    /// An audited record diverged from its local re-execution. Charges the
    /// endpoint one trust failure; returns whether it is now quarantined.
    pub(crate) fn record_divergence(&self, endpoint: &str) -> bool {
        self.audited.fetch_add(1, Ordering::SeqCst);
        self.divergences.fetch_add(1, Ordering::SeqCst);
        self.charge(endpoint)
    }

    /// A record conflicted with an already-committed one in the merge.
    /// Charges the endpoint one trust failure; returns whether it is now
    /// quarantined.
    pub(crate) fn record_conflict(&self, endpoint: &str) -> bool {
        self.conflicts.fetch_add(1, Ordering::SeqCst);
        self.charge(endpoint)
    }

    fn charge(&self, endpoint: &str) -> bool {
        let mut map = self.endpoints.lock().expect("trust ledger lock");
        let trust = map.entry(endpoint.to_string()).or_default();
        trust.failures += 1;
        if trust.failures > self.max_failures {
            trust.quarantined = true;
        }
        trust.quarantined
    }

    /// Whether `endpoint` has been quarantined this campaign.
    pub(crate) fn is_quarantined(&self, endpoint: &str) -> bool {
        self.endpoints
            .lock()
            .expect("trust ledger lock")
            .get(endpoint)
            .is_some_and(|t| t.quarantined)
    }

    /// Quarantined endpoints, sorted (the map is ordered by endpoint).
    pub(crate) fn quarantined(&self) -> Vec<String> {
        self.endpoints
            .lock()
            .expect("trust ledger lock")
            .iter()
            .filter(|(_, t)| t.quarantined)
            .map(|(ep, _)| ep.clone())
            .collect()
    }

    /// How many quarantined endpoints the ledger holds.
    pub(crate) fn quarantined_count(&self) -> usize {
        self.endpoints.lock().expect("trust ledger lock").values().filter(|t| t.quarantined).count()
    }

    /// Records audited (re-executed locally), diverged or not.
    pub(crate) fn audited(&self) -> u64 {
        self.audited.load(Ordering::SeqCst)
    }

    /// Audited records whose local re-execution disagreed.
    pub(crate) fn divergences(&self) -> u64 {
        self.divergences.load(Ordering::SeqCst)
    }

    /// Records the merge rejected as conflicting with committed state.
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_schedule_invariant() {
        let policy = AuditPolicy::new(0.5, 0);
        let picked: Vec<u64> = (0..256).filter(|&t| policy.selects(7, t)).collect();
        // Same seed, same trials — regardless of evaluation order.
        let again: Vec<u64> = (0..256).rev().filter(|&t| policy.selects(7, t)).collect();
        let mut again_sorted = again;
        again_sorted.sort_unstable();
        assert_eq!(picked, again_sorted);
        // A different seed samples a different set.
        let other: Vec<u64> = (0..256).filter(|&t| policy.selects(8, t)).collect();
        assert_ne!(picked, other);
    }

    #[test]
    fn rate_zero_selects_nothing_and_rate_one_everything() {
        let none = AuditPolicy::new(0.0, 0);
        let all = AuditPolicy::new(1.0, 0);
        for t in 0..512 {
            assert!(!none.selects(3, t));
            assert!(all.selects(3, t));
        }
    }

    #[test]
    fn observed_audit_rate_tracks_requested_rate() {
        let policy = AuditPolicy::new(0.1, 0);
        let picked = (0..10_000).filter(|&t| policy.selects(11, t)).count();
        let observed = picked as f64 / 10_000.0;
        assert!((0.08..0.12).contains(&observed), "observed audit rate {observed}");
    }

    #[test]
    fn ledger_quarantines_past_the_failure_budget() {
        let ledger = TrustLedger::new(1);
        assert!(!ledger.record_divergence("liar:1"), "first failure is within budget");
        assert!(!ledger.is_quarantined("liar:1"));
        assert!(ledger.record_conflict("liar:1"), "second failure crosses the budget");
        assert!(ledger.is_quarantined("liar:1"));
        assert!(!ledger.is_quarantined("honest:2"));
        ledger.record_pass();
        assert_eq!(ledger.audited(), 2);
        assert_eq!(ledger.divergences(), 1);
        assert_eq!(ledger.conflicts(), 1);
        assert_eq!(ledger.quarantined(), vec!["liar:1".to_string()]);
        assert_eq!(ledger.quarantined_count(), 1);
    }

    #[test]
    fn zero_budget_quarantines_on_first_failure() {
        let ledger = TrustLedger::new(0);
        assert!(ledger.record_divergence("liar:1"));
        assert_eq!(ledger.quarantined(), vec!["liar:1".to_string()]);
    }
}
