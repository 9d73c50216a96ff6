//! The write-ahead trial journal: append-only, CRC32-framed durability for
//! every trial a campaign commits.
//!
//! While a campaign runs, the journal is its only durable record. Each
//! committed trial is one frame in `<checkpoint>.wal`; trials commit in
//! groups, and a group's frames go to disk as one write and one fsync
//! ([`WalWriter::append_all`]), so a crash loses at most the groups still in
//! flight, never a committed frame. The O(N) checkpoint document
//! ([`super::save`]) is written only when a campaign opens over journaled
//! records, when a failed append is repaired, and when the campaign
//! finishes — each time followed by a fresh journal ([`WalWriter::create`])
//! or, at the finish, by deleting the journal.
//!
//! ## On-disk format (journal version 1)
//!
//! A sequence of frames, each:
//!
//! ```text
//! [u32 BE payload length][u32 BE CRC-32 of payload][payload bytes]
//! ```
//!
//! The first frame's payload is a JSON header naming the journal version,
//! checkpoint format version, workload, config fingerprint, and fault-mode
//! width — so a journal can never be replayed against the wrong campaign.
//! Every later frame's payload is one trial record, in the exact JSON shape
//! the checkpoint document uses ([`super::write_record`]).
//!
//! ## Recovery
//!
//! [`recover`] scans frames front to back and distinguishes two kinds of
//! damage:
//!
//! - a **torn tail** — the file ends inside a frame, the signature of a
//!   crash mid-append. Expected; the tail is truncated in place and every
//!   complete frame survives.
//! - **corruption** — a CRC mismatch, an absurd length, or an unparseable
//!   payload before the end. Not a crash signature; the whole journal is
//!   moved aside through the shared no-clobber quarantine
//!   ([`crate::durable::quarantine_corrupt`]) as evidence, and the frames
//!   that scanned clean before the damage still count.
//!
//! Recovered records are merged over the checkpoint document through the
//! same idempotent trial-index merge the networked supervisor uses, so
//! frames duplicating records already in the document (a crash between
//! writing the document and starting a fresh journal) are dropped without
//! double-counting.

use super::{parse_record, write_record, VERSION};
use crate::campaign::SingleBitRecord;
use crate::durable::{
    chaos_fsync, chaos_write, quarantine_corrupt, quarantine_with_warning, with_retry,
};
use crate::json::{self, Value};
use mbavf_core::crc::crc32;
use mbavf_core::error::CheckpointError;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Journal format version, independent of the checkpoint document version.
pub const WAL_VERSION: u64 = 1;

/// Upper bound on a sane frame payload; a length prefix beyond this is
/// corruption, not a frame (mirrors the transport's frame cap).
const MAX_FRAME: usize = 1 << 20;

/// Where the journal for `checkpoint` lives: `<checkpoint>.wal`.
pub fn wal_path(checkpoint: &Path) -> PathBuf {
    let mut name = checkpoint.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// Append one `[len][crc][payload]` frame to `out`.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

fn header_payload(workload: &str, config_hash: u64, mode_bits: u8) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"wal\": {WAL_VERSION}, \"version\": {VERSION}, \"workload\": ");
    json::write_str(&mut out, workload);
    let _ = write!(out, ", \"config_hash\": {config_hash}, \"mode_bits\": {mode_bits}}}");
    out
}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.display().to_string(), detail: e.to_string() }
}

/// An open journal accepting committed trials in groups, one frame each.
///
/// Appends are self-repairing under retry: before each attempt the file is
/// truncated back to the last committed group boundary, so a torn write
/// from a failed attempt can never leave a half-frame in front of a later
/// successful one.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Byte length of the journal's committed (fsynced, whole-frame) prefix.
    committed: u64,
    /// The encoded frames of the group being appended. Reused, like
    /// `payload`, so steady-state appends do not allocate.
    frames: Vec<u8>,
    /// One record's JSON payload, encoded before it is framed.
    payload: String,
}

impl WalWriter {
    /// Create the journal for `checkpoint` holding just the campaign header
    /// frame, discarding any journal already there.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the journal cannot be opened or the
    /// header cannot be made durable.
    pub fn create(
        checkpoint: &Path,
        workload: &str,
        config_hash: u64,
        mode_bits: u8,
    ) -> Result<WalWriter, CheckpointError> {
        let path = wal_path(checkpoint);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        let mut frames = Vec::new();
        push_frame(&mut frames, header_payload(workload, config_hash, mode_bits).as_bytes());
        let mut writer = WalWriter { path, file, committed: 0, frames, payload: String::new() };
        writer.write_frames()?;
        Ok(writer)
    }

    /// Append one committed trial record as a durable frame: a group of one.
    ///
    /// # Errors
    ///
    /// As [`WalWriter::append_all`].
    pub fn append(&mut self, record: &SingleBitRecord) -> Result<(), CheckpointError> {
        self.append_all(std::iter::once(record))
    }

    /// Append a group of committed trial records, one frame each, with one
    /// write and one fsync for the whole group. An empty group does no I/O.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] once bounded retry is exhausted, or
    /// [`CheckpointError::Malformed`] for a record serializing past
    /// [`MAX_FRAME`]; either way the journal is left at its previous
    /// committed length (the failed group is rolled back or never written),
    /// so the writer stays usable if the caller wants to continue.
    pub fn append_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a SingleBitRecord>,
    ) -> Result<(), CheckpointError> {
        self.frames.clear();
        for record in records {
            self.payload.clear();
            write_record(&mut self.payload, record);
            if self.payload.len() > MAX_FRAME {
                // Mirror the transport's write_frame cap: recover() treats
                // any length prefix past MAX_FRAME as corruption, so writing
                // such a frame now would quarantine the whole journal — and
                // discard every frame after this one — at the next resume.
                return Err(CheckpointError::Malformed {
                    detail: format!(
                        "trial {} record serializes to {} bytes, over the {MAX_FRAME}-byte \
                         journal frame cap",
                        record.trial,
                        self.payload.len()
                    ),
                });
            }
            push_frame(&mut self.frames, self.payload.as_bytes());
        }
        self.write_frames()
    }

    /// Make `self.frames` durable past the committed boundary: one write
    /// and one fsync per attempt, retried from the boundary.
    fn write_frames(&mut self) -> Result<(), CheckpointError> {
        if self.frames.is_empty() {
            return Ok(());
        }
        let (file, frames, committed) = (&mut self.file, &self.frames, self.committed);
        with_retry(|| {
            // Roll back any torn partial append before (re)trying.
            file.set_len(committed)?;
            file.seek(SeekFrom::Start(committed))?;
            chaos_write(file, frames)?;
            chaos_fsync(file)
        })
        .map_err(|e| {
            // Best-effort rollback so a torn final attempt is not left
            // dangling past the committed boundary.
            let _ = self.file.set_len(committed);
            io_err(&self.path, &e)
        })?;
        self.committed += self.frames.len() as u64;
        Ok(())
    }
}

/// What [`recover`] found in (and did to) the journal.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Records from intact frames, in append order.
    pub records: Vec<SingleBitRecord>,
    /// Bytes dropped as a torn tail (the file was truncated in place).
    pub torn_tail: u64,
    /// Where the journal was moved when corruption or a foreign header was
    /// found (`<path>.corrupt[.N]`, via the shared quarantine).
    pub quarantined: Option<PathBuf>,
}

/// Scan the journal for `checkpoint`, truncate any torn tail, quarantine
/// corruption, and return every surviving record.
///
/// A missing or empty journal is not an event — campaigns predating the
/// journal, or crashes before the header frame landed, recover to "nothing
/// journaled" with no noise.
///
/// # Errors
///
/// [`CheckpointError::Io`] only for hard filesystem failures (the journal
/// exists but cannot be read). Damage is never an error: torn tails
/// truncate, corruption quarantines, and both preserve every frame that
/// scanned clean.
pub fn recover(
    checkpoint: &Path,
    workload: &str,
    config_hash: u64,
) -> Result<WalRecovery, CheckpointError> {
    let path = wal_path(checkpoint);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalRecovery::default()),
        Err(e) => return Err(io_err(&path, &e)),
    };
    if bytes.is_empty() {
        return Ok(WalRecovery::default());
    }

    // Scan frames until the end, a torn tail, or corruption.
    let mut payloads: Vec<&[u8]> = Vec::new();
    let mut offset = 0usize;
    let mut torn = false;
    let mut corrupt: Option<String> = None;
    while offset < bytes.len() {
        if bytes.len() - offset < 8 {
            torn = true;
            break;
        }
        let len =
            u32::from_be_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            corrupt = Some(format!("frame at byte {offset} claims {len} byte payload"));
            break;
        }
        let crc = u32::from_be_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if bytes.len() - offset - 8 < len {
            torn = true;
            break;
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if crc32(payload) != crc {
            corrupt = Some(format!("CRC mismatch in frame at byte {offset}"));
            break;
        }
        payloads.push(payload);
        offset += 8 + len;
    }

    // First frame is the campaign header; validate or treat as foreign.
    let mut records = Vec::new();
    if let Some(header) = payloads.first() {
        if let Err(detail) = check_header(header, workload, config_hash) {
            corrupt = Some(detail);
        } else {
            for (i, payload) in payloads[1..].iter().enumerate() {
                let parsed = std::str::from_utf8(payload)
                    .map_err(|_| CheckpointError::Malformed {
                        detail: format!("frame {i}: non-UTF-8 payload"),
                    })
                    .and_then(|text| {
                        json::parse(text).map_err(|detail| CheckpointError::Malformed { detail })
                    })
                    .and_then(|value| parse_record(&value, i));
                match parsed {
                    Ok(record) => records.push(record),
                    Err(e) => {
                        // A frame with a valid CRC but an unparseable record
                        // is writer damage, not a crash signature:
                        // quarantine, keep what parsed.
                        corrupt = Some(format!("journal frame {i}: {e}"));
                        break;
                    }
                }
            }
        }
    }

    if let Some(detail) = corrupt {
        let quarantined =
            quarantine_with_warning(&path, "or foreign journal", &detail, "continuing over it");
        return Ok(WalRecovery { records, torn_tail: 0, quarantined });
    }

    let mut torn_tail = 0u64;
    if torn {
        torn_tail = (bytes.len() - offset) as u64;
        match OpenOptions::new().write(true).open(&path) {
            Ok(file) => {
                if file.set_len(offset as u64).is_ok() {
                    let _ = file.sync_all();
                } else {
                    let _ = quarantine_corrupt(&path);
                }
            }
            Err(_) => {
                let _ = quarantine_corrupt(&path);
            }
        }
        eprintln!(
            "warning: journal {} had a torn tail ({torn_tail} bytes after the last complete frame); truncated",
            path.display()
        );
    }
    Ok(WalRecovery { records, torn_tail, quarantined: None })
}

fn check_header(payload: &[u8], workload: &str, config_hash: u64) -> Result<(), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 header".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("unparseable header: {e}"))?;
    let field = |key: &str| doc.get(key).and_then(Value::as_u64);
    match field("wal") {
        Some(WAL_VERSION) => {}
        other => {
            return Err(format!("journal version {other:?}, this build expects {WAL_VERSION}"))
        }
    }
    match field("version") {
        Some(VERSION) => {}
        other => return Err(format!("checkpoint version {other:?}, this build expects {VERSION}")),
    }
    match doc.get("workload").and_then(Value::as_str) {
        Some(w) if w == workload => {}
        other => return Err(format!("journal for workload {other:?}, campaign runs {workload:?}")),
    }
    match field("config_hash") {
        Some(h) if h == config_hash => Ok(()),
        other => {
            Err(format!("journal config hash {other:?}, campaign expects {config_hash:#018x}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FaultSite, Outcome};

    fn rec(trial: u64) -> SingleBitRecord {
        SingleBitRecord {
            trial,
            site: FaultSite { wg: trial as u32, after_retired: trial * 3, reg: 1, lane: 2, bit: 3 },
            outcome: if trial.is_multiple_of(2) {
                Outcome::Sdc
            } else {
                Outcome::Crash { reason: format!("reason \"{trial}\"\n") }
            },
            read_before_overwrite: trial.is_multiple_of(3),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mbavf-wal-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_appends_and_recovers_in_order() {
        let dir = tmpdir("roundtrip");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 2).unwrap();
        for t in [3u64, 0, 7] {
            w.append(&rec(t)).unwrap();
        }
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(3), rec(0), rec(7)]);
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_empty_journal_recovers_to_nothing() {
        let dir = tmpdir("absent");
        let ckpt = dir.join("c.json");
        let got = recover(&ckpt, "dct", 1).unwrap();
        assert!(got.records.is_empty() && got.quarantined.is_none());
        std::fs::write(wal_path(&ckpt), b"").unwrap();
        let got = recover(&ckpt, "dct", 1).unwrap();
        assert!(got.records.is_empty() && got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write `all` through `write`, then cut the journal at every byte
    /// length: recovery must return exactly the complete record frames.
    fn assert_every_prefix_recovers_complete_frames(
        tag: &str,
        write: impl Fn(&mut WalWriter, &[SingleBitRecord]),
    ) {
        let dir = tmpdir(tag);
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        let all: Vec<SingleBitRecord> = (0..8).map(rec).collect();
        write(&mut w, &all);
        drop(w);
        let path = wal_path(&ckpt);
        let intact = std::fs::read(&path).unwrap();

        // Frame boundaries: replaying the scan tells us how many records a
        // prefix of each length must recover.
        for cut in 0..=intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let got = recover(&ckpt, "dct", 0xFEED).unwrap();
            assert!(got.quarantined.is_none(), "cut={cut} must be torn, not corrupt");
            assert_eq!(got.records, all[..expected_complete(&intact, cut)], "cut at {cut} bytes");
            // The torn tail was truncated: a second recovery is clean.
            let again = recover(&ckpt, "dct", 0xFEED).unwrap();
            assert_eq!(again.torn_tail, 0, "cut={cut} second pass must be clean");
            assert_eq!(again.records, got.records);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_prefix_truncation_recovers_exactly_complete_frames() {
        assert_every_prefix_recovers_complete_frames("torn", |w, all| {
            for r in all {
                w.append(r).unwrap();
            }
        });
    }

    #[test]
    fn every_prefix_truncation_of_grouped_appends_recovers_exactly_complete_frames() {
        // A torn group is no different from a torn frame: every frame of it
        // that landed whole survives, including an empty group's nothing.
        assert_every_prefix_recovers_complete_frames("torn-groups", |w, all| {
            let mut rest = all;
            for size in [3, 0, 1, 4] {
                let (group, tail) = rest.split_at(size);
                w.append_all(group).unwrap();
                rest = tail;
            }
            assert!(rest.is_empty());
        });
    }

    #[test]
    fn append_all_writes_the_bytes_of_one_append_per_record() {
        let dir = tmpdir("group-bytes");
        let (single, grouped) = (dir.join("single.json"), dir.join("grouped.json"));
        let all: Vec<SingleBitRecord> = (0..9).map(rec).collect();
        let mut w = WalWriter::create(&single, "dct", 0xFEED, 1).unwrap();
        for r in &all {
            w.append(r).unwrap();
        }
        let mut w = WalWriter::create(&grouped, "dct", 0xFEED, 1).unwrap();
        w.append_all(&all).unwrap();
        w.append_all(std::iter::empty()).unwrap();
        drop(w);
        assert_eq!(
            std::fs::read(wal_path(&single)).unwrap(),
            std::fs::read(wal_path(&grouped)).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// How many *record* frames are complete within the first `cut` bytes.
    fn expected_complete(intact: &[u8], cut: usize) -> usize {
        let mut offset = 0usize;
        let mut frames = 0usize;
        while offset + 8 <= cut {
            let len = u32::from_be_bytes(intact[offset..offset + 4].try_into().unwrap()) as usize;
            if offset + 8 + len > cut {
                break;
            }
            frames += 1;
            offset += 8 + len;
        }
        frames.saturating_sub(1) // minus the header frame
    }

    #[test]
    fn per_byte_corruption_never_panics_and_never_invents_records() {
        let dir = tmpdir("corrupt");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        let all: Vec<SingleBitRecord> = (0..3).map(rec).collect();
        for r in &all {
            w.append(r).unwrap();
        }
        drop(w);
        let path = wal_path(&ckpt);
        let intact = std::fs::read(&path).unwrap();

        for pos in 0..intact.len() {
            // Fresh directory per position: quarantine renames the file.
            let mut damaged = intact.clone();
            damaged[pos] ^= 0x55;
            std::fs::write(&path, &damaged).unwrap();
            let got = recover(&ckpt, "dct", 0xFEED).unwrap();
            // Every recovered record must be one of the real ones, in
            // order — corruption may cost records, never invent them.
            assert!(
                got.records.iter().zip(&all).all(|(a, b)| a == b),
                "byte {pos}: recovered {:?}",
                got.records
            );
            assert!(
                got.records.len() < all.len()
                    || got.torn_tail > 0
                    || got.quarantined.is_some()
                    || got.records == all,
                "byte {pos}: damage went entirely unnoticed with records intact"
            );
            // Reset state for the next position.
            for leftover in std::fs::read_dir(&dir).unwrap() {
                let p = leftover.unwrap().path();
                if p != path {
                    std::fs::remove_file(&p).ok();
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_header_quarantines_instead_of_replaying() {
        let dir = tmpdir("foreign");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        drop(w);

        // Wrong fingerprint: the journal belongs to a different campaign.
        let got = recover(&ckpt, "dct", 0xBEEF).unwrap();
        assert!(got.records.is_empty(), "foreign journal must contribute nothing");
        let q = got.quarantined.expect("foreign journal must be quarantined");
        assert!(q.exists());
        assert!(!wal_path(&ckpt).exists());

        // Wrong workload, same shape.
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let got = recover(&ckpt, "matmul", 0xFEED).unwrap();
        assert!(got.records.is_empty() && got.quarantined.is_some());
        // The first quarantined journal was not clobbered.
        assert!(q.exists());
        assert_ne!(got.quarantined.unwrap(), q);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_record_is_rejected_at_append_and_never_poisons_the_journal() {
        let dir = tmpdir("oversize");
        let ckpt = dir.join("c.json");
        let path = wal_path(&ckpt);
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        let boundary = std::fs::metadata(&path).unwrap().len();
        let mut big = rec(1);
        big.outcome = Outcome::Crash { reason: "x".repeat(MAX_FRAME + 1) };
        assert!(matches!(w.append(&big), Err(CheckpointError::Malformed { .. })));
        // Anywhere in a group, it rejects the whole group before any write.
        for pos in 0..3 {
            let mut group = vec![rec(2), rec(3), rec(4)];
            group[pos] = big.clone();
            assert!(matches!(w.append_all(&group), Err(CheckpointError::Malformed { .. })));
            assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary, "big at {pos}");
        }
        // The writer stays usable at its committed boundary, and recovery
        // sees a clean journal — no quarantine, no lost later frames.
        w.append_all(&[rec(2), rec(3)]).unwrap();
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(0), rec(2), rec(3)]);
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_over_an_existing_journal_keeps_only_the_header() {
        let dir = tmpdir("recreate");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        assert!(recover(&ckpt, "dct", 0xFEED).unwrap().records.is_empty());
        w.append(&rec(2)).unwrap();
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(2)]);
        assert_eq!(got.torn_tail, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
