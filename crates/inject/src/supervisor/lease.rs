//! Shard leases: who owns which trials, and for how long.
//!
//! A shard travels through the [`LeaseQueue`] carrying its own failure
//! history, so retry/poison accounting survives the shard being re-offered
//! to a different worker after its original endpoint dies. While a worker
//! holds a shard, a [`Lease`] tracks the revocation deadline: a sliding
//! deadline renewed by progress (the handshake, then committed records).

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One shard of trial indices plus the failure history charged to its head
/// trial. `attempts` and `last_fail` ride along through give-backs so a
/// shard that hops between workers still poisons its head trial after the
/// configured retry budget, no matter which endpoints it visited.
pub(crate) struct Shard {
    /// Trials not yet committed, in trial order.
    pub(crate) remaining: VecDeque<u64>,
    /// Consecutive no-progress worker failures charged to the head trial.
    pub(crate) attempts: u32,
    /// The last worker failure observed (daemon death, lease expiry,
    /// connection loss).
    pub(crate) last_fail: String,
}

impl Shard {
    pub(crate) fn new(trials: VecDeque<u64>) -> Self {
        Shard { remaining: trials, attempts: 0, last_fail: String::from("never ran") }
    }
}

/// The supervisor's shared work queue. Handlers lease shards off the front;
/// a handler whose endpoint dies gives its shard back (history intact) for
/// any surviving handler to pick up.
pub(crate) struct LeaseQueue {
    shards: Mutex<VecDeque<Shard>>,
}

impl LeaseQueue {
    pub(crate) fn new(shards: VecDeque<Shard>) -> Self {
        LeaseQueue { shards: Mutex::new(shards) }
    }

    pub(crate) fn take(&self) -> Option<Shard> {
        self.shards.lock().expect("lease queue lock").pop_front()
    }

    pub(crate) fn give_back(&self, shard: Shard) {
        self.shards.lock().expect("lease queue lock").push_back(shard);
    }

    pub(crate) fn outstanding(&self) -> usize {
        self.shards.lock().expect("lease queue lock").len()
    }
}

/// Deadline tracking for one leased shard attempt: a sliding deadline
/// renewed on progress. A worker keeps its shard as long as records keep
/// landing, and loses it `timeout` after progress stalls — even with its
/// connection open, so a livelocked executor cannot hold a lease forever.
pub(crate) struct Lease {
    timeout: Duration,
    deadline: Instant,
}

impl Lease {
    pub(crate) fn new(timeout: Duration) -> Self {
        Lease { timeout, deadline: Instant::now() + timeout }
    }

    /// Push the deadline out on progress.
    pub(crate) fn renew(&mut self) {
        self.deadline = Instant::now() + self.timeout;
    }

    pub(crate) fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// How long the stream loop may block waiting for the next message:
    /// until the deadline, capped at 50 ms so shutdown and cancellation are
    /// noticed promptly — a pending drain must never sit behind a long
    /// lease timeout. (Named for what it is: a poll interval, not a wait
    /// for the deadline itself.)
    pub(crate) fn poll_wait(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now()).min(Duration::from_millis(50))
    }

    /// The failure message recorded when this lease is revoked.
    pub(crate) fn describe(&self, outstanding: usize) -> String {
        format!(
            "shard lease expired after {:?} with {outstanding} trials outstanding",
            self.timeout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renewal_keeps_a_lease_alive_and_a_stall_expires_it() {
        let mut renewed = Lease::new(Duration::from_millis(80));
        let stalled = Lease::new(Duration::from_millis(20));
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(30) {
            renewed.renew();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(stalled.expired(), "a lease nobody renews must expire");
        assert!(!renewed.expired(), "renewal must keep the lease alive");
    }

    #[test]
    fn revocation_message_names_the_lease() {
        let lease = Lease::new(Duration::from_secs(30));
        assert_eq!(lease.describe(1), "shard lease expired after 30s with 1 trials outstanding");
    }

    #[test]
    fn poll_wait_caps_the_block_interval_at_50ms_under_long_leases() {
        // The stream loop blocks in `recv(lease.poll_wait())` and re-checks
        // stop/cancel between blocks. The cap is what makes a pending
        // shutdown observable within ~50 ms even when the lease itself has
        // a 60-second deadline — without it a drain request would wait out
        // the full lease timeout before anyone looked at the token.
        let lease = Lease::new(Duration::from_secs(60));
        assert!(lease.poll_wait() <= Duration::from_millis(50), "got {:?}", lease.poll_wait());
        let lease = Lease::new(Duration::from_secs(3600));
        assert!(lease.poll_wait() <= Duration::from_millis(50), "got {:?}", lease.poll_wait());
    }

    #[test]
    fn poll_wait_shrinks_to_the_deadline_when_it_is_nearer_than_the_cap() {
        // Near expiry the poll interval tightens to the remaining budget
        // (never negative), so expiry itself is also observed on time.
        let lease = Lease::new(Duration::from_millis(10));
        assert!(lease.poll_wait() <= Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(lease.poll_wait(), Duration::ZERO, "expired lease must not block");
        assert!(lease.expired());
    }

    #[test]
    fn queue_give_back_preserves_failure_history() {
        let q = LeaseQueue::new(VecDeque::from([Shard::new(VecDeque::from([0, 1, 2]))]));
        let mut shard = q.take().expect("one shard queued");
        assert_eq!(q.outstanding(), 0);
        shard.attempts = 2;
        shard.last_fail = "connection lost".into();
        shard.remaining.pop_front();
        q.give_back(shard);
        assert_eq!(q.outstanding(), 1);
        let back = q.take().expect("shard re-offered");
        assert_eq!(back.attempts, 2);
        assert_eq!(back.last_fail, "connection lost");
        assert_eq!(back.remaining, VecDeque::from([1, 2]));
    }

    #[test]
    fn multi_shard_give_backs_release_in_fifo_order_with_history_intact() {
        // Three shards, three handlers: when two endpoints die (e.g. both
        // get quarantined by the trust ledger), their shards must be
        // re-offered to the survivor in the order they were given back,
        // each carrying its own distinct failure history — the shards must
        // never swap or merge their retry accounting.
        let q = LeaseQueue::new(VecDeque::from([
            Shard::new(VecDeque::from([0, 1])),
            Shard::new(VecDeque::from([2, 3])),
            Shard::new(VecDeque::from([4, 5])),
        ]));
        let a = q.take().expect("shard a");
        let mut b = q.take().expect("shard b");
        let mut c = q.take().expect("shard c");
        assert_eq!(q.outstanding(), 0, "all three leased out");
        drop(a); // handler A commits its whole shard: nothing to give back

        // Handler C's endpoint dies first, then handler B's, each having
        // made different partial progress with different failure counts.
        c.attempts = 1;
        c.last_fail = "endpoint is quarantined by the trust ledger".into();
        c.remaining.pop_front();
        q.give_back(c);
        b.attempts = 3;
        b.last_fail = "connection lost".into();
        q.give_back(b);
        assert_eq!(q.outstanding(), 2);

        // The survivor re-leases in give-back (FIFO) order: C then B, each
        // with exactly the history its own failures earned.
        let first = q.take().expect("first re-offer");
        assert_eq!(first.remaining, VecDeque::from([5]));
        assert_eq!(first.attempts, 1);
        assert_eq!(first.last_fail, "endpoint is quarantined by the trust ledger");
        let second = q.take().expect("second re-offer");
        assert_eq!(second.remaining, VecDeque::from([2, 3]));
        assert_eq!(second.attempts, 3);
        assert_eq!(second.last_fail, "connection lost");
        assert!(q.take().is_none(), "queue drained");
    }
}
