//! Deterministic I/O chaos: a SplitMix64-seeded failpoint engine injecting
//! disk-full, I/O errors, torn writes, failed renames, failed fsyncs, and
//! stalls into the harness's *own* durable-state paths.
//!
//! The campaign measures fault tolerance by injecting faults into a
//! simulated pipeline; this module turns the same discipline on the
//! harness itself. Every durable write ([`crate::durable`]), write-ahead
//! journal append ([`crate::checkpoint::wal`]), and transport frame send
//! draws one verdict from the engine. The draw is a pure function of
//! `(chaos seed, global operation index)`, so a run with `--chaos
//! <seed>:<rate>` injects the *same* fault schedule every time the same
//! sequence of I/O operations is issued — failures are reproducible, and a
//! campaign that survives a seed once survives it forever.
//!
//! Faults are independent per draw: a retried operation gets a fresh
//! verdict, so bounded retry-with-backoff converges with probability
//! `1 - rate^attempts`. That is what lets the acceptance contract hold —
//! a chaos campaign at 5% fault rate still ends with a checkpoint
//! byte-identical to a fault-free run, because committed records survive
//! every injected failure.
//!
//! The engine installs process-globally (the CLI does this once at
//! startup); nothing installs it in worker daemons, so
//! chaos targets exactly the supervisor-side durability plumbing under
//! test. Tests that install an engine run in the sequential torture
//! binary, never under the parallel unit-test harness.

use mbavf_core::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Domain tag folded into the chaos seed so its draw stream cannot collide
/// with trial streams or backoff jitter derived from the same user seed.
const CHAOS_TAG: u64 = 0xC4A0_5C4A_05C4_A05C;

/// Parsed `--chaos <seed>:<rate>` specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Per-operation fault probability in `[0, 1]`.
    pub rate: f64,
}

impl ChaosSpec {
    /// Parse `"<seed>:<rate>"`, e.g. `"7:0.05"` or `"0xACE5:0.1"`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed half.
    pub fn parse(s: &str) -> Result<ChaosSpec, String> {
        let (seed_s, rate_s) =
            s.split_once(':').ok_or_else(|| format!("--chaos wants <seed>:<rate>, got {s:?}"))?;
        let seed = parse_seed(seed_s)
            .ok_or_else(|| format!("--chaos seed {seed_s:?} is not an unsigned integer"))?;
        let rate: f64 = rate_s
            .parse()
            .ok()
            .filter(|r: &f64| (0.0..=1.0).contains(r))
            .ok_or_else(|| format!("--chaos rate {rate_s:?} is not a probability in [0, 1]"))?;
        Ok(ChaosSpec { seed, rate })
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Which class of I/O operation is asking for a verdict. The class gates
/// which fault kinds are physically plausible for it (a rename cannot tear,
/// an fsync cannot run out of space mid-flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Writing file data (checkpoint/bundle/sidecar temp files, WAL frames).
    Write,
    /// Renaming a temp file over its destination.
    Rename,
    /// `fsync` of a file or its parent directory.
    Fsync,
    /// Sending a length-prefixed transport frame.
    Frame,
    /// Classifying one trial's outcome in a worker daemon — the Byzantine
    /// lie drill (`MBAVF_DRILL=lie@<seed>:<rate>`), where the fault is a
    /// flipped verdict rather than a failed operation.
    Verdict,
}

/// The verdict for one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Proceed normally.
    None,
    /// Fail as if the disk were full (`ENOSPC`).
    DiskFull,
    /// Fail with a generic I/O error (`EIO`).
    Io,
    /// Persist only `keep_64ths/64` of the payload, then fail — a torn
    /// write, the failure mode CRC framing exists to catch.
    Torn {
        /// Numerator of the surviving prefix fraction, in `0..64`.
        keep_64ths: u8,
    },
    /// The rename does not happen.
    RenameFailed,
    /// The fsync reports failure (data may or may not have reached disk).
    FsyncFailed,
    /// The operation stalls for `millis` before proceeding normally.
    Stall {
        /// Injected delay in milliseconds.
        millis: u8,
    },
    /// The trial's reported outcome is silently replaced with a wrong one —
    /// a mercurial core returning a confident lie instead of an error.
    VerdictFlip,
}

/// The deterministic fault engine. One global operation counter indexes the
/// SplitMix64 stream, so the schedule depends only on the seed and the
/// order durable operations are issued.
#[derive(Debug)]
pub struct ChaosEngine {
    seed: u64,
    /// Rate in 2^-32 units, so the draw is integer-exact.
    threshold: u32,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl ChaosEngine {
    /// Build an engine from a parsed spec.
    #[must_use]
    pub fn new(spec: ChaosSpec) -> ChaosEngine {
        // Quantize the rate onto 2^32 so `chance` is branch-exact and a
        // rate of 1.0 really faults every operation.
        let threshold =
            if spec.rate >= 1.0 { u32::MAX } else { (spec.rate * f64::from(u32::MAX)) as u32 };
        ChaosEngine {
            seed: spec.seed,
            threshold,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Draw the verdict for the next operation of `class`.
    pub fn draw(&self, class: OpClass) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.threshold == 0 {
            // Rates that quantize to a zero threshold (including rate 0.0
            // exactly) mean "never fault" — without this gate a draw of
            // exactly 0 (probability 2^-32 per op) would still inject.
            return Fault::None;
        }
        let mut rng = SplitMix64::stream(self.seed ^ CHAOS_TAG, op);
        if rng.next_u32() > self.threshold {
            return Fault::None;
        }
        let fault = match class {
            OpClass::Write => match rng.below(4) {
                0 => Fault::DiskFull,
                1 => Fault::Io,
                2 => Fault::Torn { keep_64ths: rng.below(64) as u8 },
                _ => Fault::Stall { millis: 1 + rng.below(4) as u8 },
            },
            OpClass::Rename => match rng.below(2) {
                0 => Fault::RenameFailed,
                _ => Fault::Stall { millis: 1 + rng.below(4) as u8 },
            },
            OpClass::Fsync => match rng.below(3) {
                0 | 1 => Fault::FsyncFailed,
                _ => Fault::Stall { millis: 1 + rng.below(4) as u8 },
            },
            OpClass::Frame => match rng.below(3) {
                0 => Fault::Io,
                1 => Fault::Torn { keep_64ths: rng.below(64) as u8 },
                _ => Fault::Stall { millis: 1 + rng.below(4) as u8 },
            },
            // A verdict cannot tear or stall: the only lie is a wrong answer.
            OpClass::Verdict => Fault::VerdictFlip,
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        fault
    }

    /// How many faults the engine has injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// How many operations have drawn a verdict so far.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

fn global() -> &'static Mutex<Option<Arc<ChaosEngine>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<ChaosEngine>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Install `spec` as the process-global chaos engine, replacing any
/// previous one. Returns the installed engine for end-of-run reporting.
pub fn install(spec: ChaosSpec) -> Arc<ChaosEngine> {
    let engine = Arc::new(ChaosEngine::new(spec));
    *global().lock().expect("chaos install lock") = Some(Arc::clone(&engine));
    engine
}

/// Remove the process-global engine (sequential tests only).
pub fn clear() {
    *global().lock().expect("chaos clear lock") = None;
}

/// The currently installed engine, if any.
pub(crate) fn current() -> Option<Arc<ChaosEngine>> {
    global().lock().expect("chaos current lock").clone()
}

/// Draw a verdict from the global engine; `Fault::None` when chaos is off.
pub(crate) fn draw(class: OpClass) -> Fault {
    match current() {
        Some(engine) => engine.draw(class),
        None => Fault::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_decimal_hex_and_rejects_garbage() {
        assert_eq!(ChaosSpec::parse("7:0.05"), Ok(ChaosSpec { seed: 7, rate: 0.05 }));
        assert_eq!(ChaosSpec::parse("0xACE5:1"), Ok(ChaosSpec { seed: 0xACE5, rate: 1.0 }));
        assert_eq!(ChaosSpec::parse("0:0"), Ok(ChaosSpec { seed: 0, rate: 0.0 }));
        for bad in ["", "7", "7:", ":0.5", "x:0.5", "7:1.5", "7:-0.1", "7:nan", "7:lots"] {
            assert!(ChaosSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn schedule_is_deterministic_in_seed_and_op_index() {
        let a = ChaosEngine::new(ChaosSpec { seed: 42, rate: 0.5 });
        let b = ChaosEngine::new(ChaosSpec { seed: 42, rate: 0.5 });
        for _ in 0..256 {
            assert_eq!(a.draw(OpClass::Write), b.draw(OpClass::Write));
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn rate_zero_never_faults_and_rate_one_always_faults() {
        let never = ChaosEngine::new(ChaosSpec { seed: 1, rate: 0.0 });
        let always = ChaosEngine::new(ChaosSpec { seed: 1, rate: 1.0 });
        for class in
            [OpClass::Write, OpClass::Rename, OpClass::Fsync, OpClass::Frame, OpClass::Verdict]
        {
            for _ in 0..64 {
                assert_eq!(never.draw(class), Fault::None);
                assert_ne!(always.draw(class), Fault::None);
            }
        }
        assert_eq!(never.injected(), 0);
        assert_eq!(always.injected(), always.operations());
    }

    #[test]
    fn faults_are_plausible_for_their_op_class() {
        let engine = ChaosEngine::new(ChaosSpec { seed: 9, rate: 1.0 });
        for _ in 0..256 {
            match engine.draw(OpClass::Rename) {
                Fault::RenameFailed | Fault::Stall { .. } => {}
                other => panic!("rename drew {other:?}"),
            }
            match engine.draw(OpClass::Fsync) {
                Fault::FsyncFailed | Fault::Stall { .. } => {}
                other => panic!("fsync drew {other:?}"),
            }
            match engine.draw(OpClass::Write) {
                Fault::DiskFull | Fault::Io | Fault::Torn { .. } | Fault::Stall { .. } => {}
                other => panic!("write drew {other:?}"),
            }
            match engine.draw(OpClass::Frame) {
                Fault::Io | Fault::Torn { .. } | Fault::Stall { .. } => {}
                other => panic!("frame drew {other:?}"),
            }
            match engine.draw(OpClass::Verdict) {
                Fault::VerdictFlip => {}
                other => panic!("verdict drew {other:?}"),
            }
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let engine = ChaosEngine::new(ChaosSpec { seed: 3, rate: 0.05 });
        for _ in 0..10_000 {
            engine.draw(OpClass::Write);
        }
        let observed = engine.injected() as f64 / engine.operations() as f64;
        assert!((0.03..0.07).contains(&observed), "observed rate {observed}");
    }
}
