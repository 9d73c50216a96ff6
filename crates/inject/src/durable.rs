//! Chaos-aware durable filesystem primitives: every durable-state write in
//! the harness (checkpoint documents, the trial journal, repro bundles, the
//! poison sidecar) goes through this layer.
//!
//! Two things live here:
//!
//! 1. **fsync discipline.** A temp-file + rename is atomic but *not*
//!    durable: after a power cut the rename may be replayed against a file
//!    whose data blocks never reached disk. [`atomic_write_durable`] does
//!    the full sequence — write temp, `sync_all` the file, rename, fsync
//!    the parent directory — so a completed save survives power loss.
//! 2. **Failpoints + bounded retry.** Each primitive draws a verdict from
//!    the [`crate::chaos`] engine (a no-op unless `--chaos` installed one)
//!    and maps injected faults onto real `io::Error`s. Failures — injected
//!    or genuine — are retried with deterministic jittered exponential
//!    backoff (`jittered_backoff`, shared with the supervisor's worker
//!    respawn path); every attempt rebuilds the temp file from scratch, so
//!    a torn write can never leak a partial payload into the final file.
//!
//! The quarantine helpers ([`quarantine_corrupt`]) also live here so that
//! every recovery route — checkpoint, write-ahead journal, poison sidecar —
//! moves damaged evidence aside through one no-clobber path.

use crate::chaos::{self, Fault, OpClass};
use mbavf_core::rng::SplitMix64;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Attempts per durable operation before the caller's degradation policy
/// (checkpointing-disabled mode, typed final-save error) takes over. With
/// independent per-attempt fault draws at rate `r`, the operation fails
/// persistently with probability ~`r^8`.
pub(crate) const MAX_ATTEMPTS: u32 = 8;

/// Backoff window for durable-write retries. Short: these guard against
/// transient local conditions (injected faults, brief ENOSPC races), not
/// remote endpoints.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Seed domain for durable-write retry jitter, distinct from the
/// supervisor's respawn jitter which is keyed by the campaign seed.
const RETRY_SEED: u64 = 0xD1_5C_D1_5C;

/// Deterministic jittered exponential backoff: the delay doubles per
/// consecutive failure (capped), then loses up to half to a jitter keyed by
/// `(seed, handler, consecutive_failures)` — so retries are reproducible,
/// but handlers whose workers died together (one machine rebooting, one
/// poison trial killing a whole fleet tier) do not retry in lockstep.
pub(crate) fn jittered_backoff(
    base: Duration,
    cap: Duration,
    seed: u64,
    handler: usize,
    consecutive_failures: u32,
) -> Duration {
    let shift = consecutive_failures.saturating_sub(1).min(16);
    let full = base.saturating_mul(1u32 << shift).min(cap);
    let span = full.as_micros() as u64 / 2;
    let mut rng = SplitMix64::stream(
        seed ^ 0xB0FF_0FF5,
        ((handler as u64) << 32) | u64::from(consecutive_failures),
    );
    full - Duration::from_micros(rng.below(span + 1))
}

/// Run `op` up to [`MAX_ATTEMPTS`] times with jittered backoff between
/// failures, returning the last error if every attempt fails.
pub(crate) fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut failures = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                failures += 1;
                if failures >= MAX_ATTEMPTS {
                    return Err(e);
                }
                std::thread::sleep(jittered_backoff(
                    BACKOFF_BASE,
                    BACKOFF_CAP,
                    RETRY_SEED,
                    0,
                    failures,
                ));
            }
        }
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("chaos: injected {what}"))
}

/// Write all of `bytes` to `file` under one chaos verdict: a torn verdict
/// persists a deterministic prefix and then fails, exactly the damage shape
/// CRC framing and temp-file rebuild exist to contain.
pub(crate) fn chaos_write(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    match chaos::draw(OpClass::Write) {
        Fault::None => file.write_all(bytes),
        Fault::Stall { millis } => {
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
            file.write_all(bytes)
        }
        Fault::Torn { keep_64ths } => {
            let keep = bytes.len() * usize::from(keep_64ths) / 64;
            file.write_all(&bytes[..keep])?;
            let _ = file.flush();
            Err(injected(&format!("torn write ({keep} of {} bytes persisted)", bytes.len())))
        }
        Fault::DiskFull => Err(injected("ENOSPC (disk full)")),
        _ => Err(injected("EIO (write error)")),
    }
}

/// `sync_all` under a chaos verdict. An injected fsync failure does *not*
/// sync first: the data's durability is genuinely unknown, as after a real
/// fsync failure, and the caller must retry or degrade.
pub(crate) fn chaos_fsync(file: &File) -> io::Result<()> {
    match chaos::draw(OpClass::Fsync) {
        Fault::None => file.sync_all(),
        Fault::Stall { millis } => {
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
            file.sync_all()
        }
        _ => Err(injected("fsync failure")),
    }
}

/// `rename` under a chaos verdict: an injected failure leaves both paths
/// untouched, like a rename that never reached the journal.
pub(crate) fn chaos_rename(from: &Path, to: &Path) -> io::Result<()> {
    match chaos::draw(OpClass::Rename) {
        Fault::None => std::fs::rename(from, to),
        Fault::Stall { millis } => {
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
            std::fs::rename(from, to)
        }
        _ => Err(injected("rename failure")),
    }
}

/// fsync the directory containing `path`, making a rename within it
/// durable. Without this, a power cut after rename can resurrect the old
/// directory entry even though the rename "succeeded".
pub(crate) fn fsync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = File::open(parent)?;
    chaos_fsync(&dir)
}

fn atomic_write_once(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        // `create` truncates, so a retry after a torn write starts clean.
        let mut f = File::create(&tmp)?;
        chaos_write(&mut f, bytes)?;
        chaos_fsync(&f)?;
    }
    chaos_rename(&tmp, path)?;
    fsync_parent(path)
}

/// Durably and atomically replace `path` with `bytes`: temp-file write,
/// `sync_all`, rename, fsync of the parent directory — retried with
/// deterministic backoff against transient (or injected) failures.
///
/// # Errors
///
/// The last attempt's `io::Error` once `MAX_ATTEMPTS` are exhausted.
pub fn atomic_write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    with_retry(|| atomic_write_once(path, bytes))
}

/// Where a corrupt file is moved aside: `<path>.corrupt`.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    PathBuf::from(name)
}

/// Move the corrupt file at `path` aside to the first free quarantine slot
/// (`<path>.corrupt`, `<path>.corrupt.1`, `<path>.corrupt.2`, …), so an
/// earlier quarantined file — evidence of a previous corruption — is never
/// clobbered by a later one. One shared path for every recovery route:
/// checkpoint, write-ahead journal, poison sidecar.
///
/// Returns the destination on success, `None` if the rename failed (the
/// caller degrades to a warning).
pub fn quarantine_corrupt(path: &Path) -> Option<PathBuf> {
    let base = quarantine_path(path);
    let mut dest = base.clone();
    let mut n = 0u32;
    // Bounded probe: a directory with 10k quarantined checkpoints is a
    // deeper problem than one more clobbered file.
    while dest.exists() && n < 10_000 {
        n += 1;
        let mut name = base.as_os_str().to_os_string();
        name.push(format!(".{n}"));
        dest = PathBuf::from(name);
    }
    std::fs::rename(path, &dest).ok().map(|()| dest)
}

/// [`quarantine_corrupt`] with the warning every recovery route prints:
/// what was corrupt and why, and where it went — or, when even the rename
/// fails, what the caller does `instead`.
pub(crate) fn quarantine_with_warning(
    path: &Path,
    what: &str,
    detail: &str,
    instead: &str,
) -> Option<PathBuf> {
    let dest = quarantine_corrupt(path);
    let fate = dest
        .as_ref()
        .map_or(format!("quarantine failed, {instead}"), |q| format!("moved to {}", q.display()));
    eprintln!("warning: corrupt {what} at {} ({detail}); {fate}", path.display());
    dest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_durable_roundtrips_and_replaces() {
        let dir = std::env::temp_dir().join("mbavf-durable-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        atomic_write_durable(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_durable(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("tmp").exists(), "temp file must not survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_durable_reports_unwritable_destination() {
        let dir = std::env::temp_dir().join("mbavf-durable-missing");
        std::fs::remove_dir_all(&dir).ok();
        // Parent directory does not exist: every attempt fails, typed error.
        let err = atomic_write_durable(&dir.join("state.json"), b"x").unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn retry_returns_first_success_and_last_error() {
        let mut calls = 0;
        let ok: io::Result<u32> = with_retry(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::other("transient"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(ok.unwrap(), 7);
        assert_eq!(calls, 3);

        let mut calls = 0;
        let err: io::Result<u32> = with_retry(|| {
            calls += 1;
            Err(io::Error::other(format!("attempt {calls}")))
        });
        assert_eq!(calls, MAX_ATTEMPTS);
        assert!(err.unwrap_err().to_string().contains(&format!("attempt {MAX_ATTEMPTS}")));
    }

    #[test]
    fn backoff_is_deterministic_and_within_jitter_band() {
        let base = Duration::from_millis(4);
        let cap = Duration::from_millis(64);
        for failures in 1..10 {
            let d = jittered_backoff(base, cap, RETRY_SEED, 0, failures);
            let full = base.saturating_mul(1u32 << (failures - 1).min(16)).min(cap);
            assert!(d <= full && d >= full / 2, "failures={failures}: {d:?} vs {full:?}");
            assert_eq!(d, jittered_backoff(base, cap, RETRY_SEED, 0, failures));
        }
    }
}
