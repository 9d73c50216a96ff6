//! Campaign checkpoint files: a JSON document of completed trials,
//! validated and replayed on resume, plus the append-only write-ahead trial
//! journal ([`wal`]) that makes every committed trial durable while the
//! campaign runs; the document is rewritten only off the commit path.
//!
//! ## File format (version 4)
//!
//! ```json
//! {
//!   "version": 4,
//!   "workload": "dct",
//!   "config_hash": 1234567890123456789,
//!   "mode_bits": 1,
//!   "records": [
//!     {"trial": 0, "wg": 1, "after": 17, "reg": 3, "lane": 9, "bit": 30,
//!      "outcome": "sdc", "read": true},
//!     {"trial": 2, "wg": 0, "after": 5, "reg": 8, "lane": 1, "bit": 2,
//!      "outcome": "crash", "reason": "index out of bounds ...", "read": false}
//!   ]
//! }
//! ```
//!
//! `config_hash` fingerprints the campaign (workload name, seed, scale,
//! hang factor, OOB policy, fault-mode width): per-trial outcomes depend on
//! all of it, so a checkpoint is only meaningful against the identical
//! campaign and resume refuses anything else. The injection *budget* is
//! deliberately **not** fingerprinted: trial streams are keyed by
//! `(seed, trial)`, so growing the budget — which is how adaptive sizing
//! extends a campaign — changes no existing trial's meaning. Records may be
//! sparse in `trial` — under a parallel runner trials complete out of order —
//! and the resume path simply runs whichever indices are missing.
//!
//! Writes are atomic *and durable*: temp file + `sync_all` + rename +
//! fsync of the parent directory (see [`crate::durable`]), so a campaign
//! killed mid-write — or a machine losing power just after a write — leaves
//! the previous checkpoint intact.
//!
//! The document carries committed records and nothing else — no summary
//! counters, no transport or trust bookkeeping. That is what lets the
//! record-auditing supervisor ([`crate::supervisor::audit`]) promise that
//! a campaign run over untrusted endpoints with `--audit` produces a
//! checkpoint *byte-identical* to a fault-free thread-mode run: audits,
//! divergences, and quarantines all happen before commit, so only the
//! (deterministic, locally verified) records ever reach this file.

use crate::campaign::{CampaignConfig, FaultSite, Outcome, OutcomeKind, SingleBitRecord};
use crate::json::{self, Value};
use mbavf_core::error::CheckpointError;
use mbavf_core::rng::fnv1a;
use mbavf_workloads::Scale;
use std::fmt::{Debug, Write as _};
use std::ops::RangeBounds;
use std::path::Path;

pub mod wal;

/// The checkpoint format version this build reads and writes.
///
/// Version 2 added the `mode_bits` field and removed the injection budget
/// from the config fingerprint (budgets may grow under adaptive sizing).
/// Version 3 marks the switch to the residency-weighted v2 fault-site
/// sampler ([`crate::campaign::SAMPLER_ID`]). Version 4 introduces the
/// durable-write discipline and the `<checkpoint>.wal` write-ahead trial
/// journal ([`wal`]): snapshot contents are unchanged, but a v4 resume
/// also consults the journal, which older builds would silently ignore —
/// losing the exact records the journal exists to preserve — so older
/// builds must refuse v4 state and this build refuses theirs.
pub const VERSION: u64 = 4;

/// The trial-semantics epoch folded into [`config_fingerprint`].
///
/// This is deliberately decoupled from [`VERSION`]: the fingerprint answers
/// "does trial `i` mean the same fault?", which last changed at version 3
/// (the residency-weighted sampler). Version 4 changed only the durability
/// format, not trial semantics, so fingerprints — which are also pinned
/// inside every repro bundle — stay stable across the 3→4 migration. Bump
/// this only when `(seed, trial)` maps to a different fault site.
pub const FINGERPRINT_EPOCH: u64 = 3;

/// A loaded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Workload the campaign ran over.
    pub workload: String,
    /// Fingerprint of the writing campaign's configuration.
    pub config_hash: u64,
    /// Fault-mode width the campaign injected (informational; the
    /// fingerprint is what resume validates).
    pub mode_bits: u8,
    /// Completed trials, sorted by trial index.
    pub records: Vec<SingleBitRecord>,
}

/// Stable fingerprint of a campaign configuration.
///
/// Everything that changes the meaning of a trial index goes in: the
/// workload, the seed (trial streams), the scale (the program being
/// injected), the hang factor (outcome classification), the OOB policy
/// (crash vs. wrap semantics), and the fault-mode width (what each trial
/// flips). The injection budget stays out: per-trial streams are keyed by
/// `(seed, trial)`, so a grown budget extends a checkpointed campaign
/// without invalidating it — the contract adaptive trial sizing relies on.
pub fn config_fingerprint(workload: &str, cfg: &CampaignConfig) -> u64 {
    let canon = format!(
        "v{FINGERPRINT_EPOCH};workload={workload};seed={};scale={:?};hang={};wrap_oob={};mode_bits={}",
        cfg.seed, cfg.scale, cfg.hang_factor, cfg.wrap_oob, cfg.mode_bits
    );
    fnv1a(canon.as_bytes())
}

/// Append one record's JSON object (no surrounding whitespace) to `out` —
/// the exact serialization used both inline in [`render`] and as the
/// payload of a write-ahead journal frame, so a journal replay and a
/// snapshot agree byte-for-byte on what a record is.
pub(crate) fn write_record(out: &mut String, r: &SingleBitRecord) {
    let _ = write!(out, "{{\"trial\": {}, ", r.trial);
    write_site(out, &r.site);
    out.push_str(", ");
    write_outcome(out, &r.outcome, ", ");
    let _ = write!(out, "\"read\": {}}}", r.read_before_overwrite);
}

/// Parse one record object (as produced by [`write_record`]); `i` labels
/// the record in error messages.
pub(crate) fn parse_record(rec: &Value, i: usize) -> Result<SingleBitRecord, CheckpointError> {
    let bad =
        |detail: String| CheckpointError::Malformed { detail: format!("record {i}: {detail}") };
    Ok(SingleBitRecord {
        outcome: parse_outcome(rec).map_err(bad)?,
        read_before_overwrite: parse_bool(rec, "read").map_err(bad)?,
        site: parse_site(rec).map_err(bad)?,
        trial: parse_u64(rec, "trial", ..).map_err(bad)?,
    })
}

// ---------------------------------------------------------------------------
// The field codec every campaign document and frame shares: checkpoint and
// journal records, record frames, poison entries, repro bundles and hello
// frames all write and read a fault site, an outcome and a campaign
// configuration through these functions and nothing else.
// ---------------------------------------------------------------------------

/// Append a fault site's five coordinates as object members.
pub(crate) fn write_site(out: &mut String, site: &FaultSite) {
    let _ = write!(
        out,
        "\"wg\": {}, \"after\": {}, \"reg\": {}, \"lane\": {}, \"bit\": {}",
        site.wg, site.after_retired, site.reg, site.lane, site.bit
    );
}

/// Append an outcome's kind and, for a crash, its reason, each member
/// followed by `sep`.
pub(crate) fn write_outcome(out: &mut String, outcome: &Outcome, sep: &str) {
    let _ = write!(out, "\"outcome\": \"{}\"{sep}", outcome.kind().as_str());
    if let Outcome::Crash { reason } = outcome {
        out.push_str("\"reason\": ");
        json::write_str(out, reason);
        out.push_str(sep);
    }
}

/// Append the five configuration fields that fix what a trial means (the
/// injection budget is not one of them), joined by `sep`.
pub(crate) fn write_config(out: &mut String, cfg: &CampaignConfig, sep: &str) {
    let _ = write!(
        out,
        "\"seed\": {}{sep}\"scale\": \"{}\"{sep}\"hang_factor\": {}{sep}\"wrap_oob\": {}{sep}\"mode_bits\": {}",
        cfg.seed,
        cfg.scale.as_str(),
        cfg.hang_factor,
        cfg.wrap_oob,
        cfg.mode_bits,
    );
}

/// The unsigned integer member `key` of `v`, required to lie in `range`.
pub(crate) fn parse_u64(
    v: &Value,
    key: &str,
    range: impl RangeBounds<u64> + Debug,
) -> Result<u64, String> {
    let n = member(v, key)?
        .as_u64()
        .ok_or_else(|| format!("bad \"{key}\": not an unsigned integer"))?;
    if range.contains(&n) {
        Ok(n)
    } else {
        Err(format!("\"{key}\" out of range: {n} not in {range:?}"))
    }
}

/// The boolean member `key` of `v`.
pub(crate) fn parse_bool(v: &Value, key: &str) -> Result<bool, String> {
    member(v, key)?.as_bool().ok_or_else(|| format!("bad \"{key}\": not a boolean"))
}

/// The string member `key` of `v`.
pub(crate) fn parse_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    member(v, key)?.as_str().ok_or_else(|| format!("bad \"{key}\": not a string"))
}

fn member<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

/// Parse the fault site [`write_site`] wrote into `v`.
pub(crate) fn parse_site(v: &Value) -> Result<FaultSite, String> {
    Ok(FaultSite {
        wg: parse_u64(v, "wg", ..=u64::from(u32::MAX))? as u32,
        after_retired: parse_u64(v, "after", ..)?,
        reg: parse_u64(v, "reg", ..=255)? as u8,
        lane: parse_u64(v, "lane", ..=63)? as u8,
        bit: parse_u64(v, "bit", ..=31)? as u8,
    })
}

/// Parse the outcome [`write_outcome`] wrote into `v`.
pub(crate) fn parse_outcome(v: &Value) -> Result<Outcome, String> {
    let kind = parse_str(v, "outcome")?;
    Ok(match OutcomeKind::parse(kind).ok_or_else(|| format!("bad \"outcome\": {kind:?}"))? {
        OutcomeKind::Masked => Outcome::Masked,
        OutcomeKind::Sdc => Outcome::Sdc,
        OutcomeKind::Hang => Outcome::Hang,
        OutcomeKind::Crash => Outcome::Crash {
            reason: v
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("unrecorded crash reason")
                .to_string(),
        },
    })
}

/// Parse the configuration [`write_config`] wrote into `v`, under the
/// ranges the CLIs enforce ([`CampaignConfig::MODE_BITS`],
/// [`CampaignConfig::HANG_FACTORS`]). The budget is not part of it and
/// reads as 1.
pub(crate) fn parse_config(v: &Value) -> Result<CampaignConfig, String> {
    let scale = parse_str(v, "scale")?;
    Ok(CampaignConfig {
        seed: parse_u64(v, "seed", ..)?,
        injections: 1,
        scale: Scale::parse(scale).ok_or_else(|| format!("bad \"scale\": {scale:?}"))?,
        hang_factor: parse_u64(v, "hang_factor", CampaignConfig::HANG_FACTORS)?,
        wrap_oob: parse_bool(v, "wrap_oob")?,
        mode_bits: parse_u64(v, "mode_bits", CampaignConfig::MODE_BITS)? as u8,
    })
}

/// Serialize a checkpoint document.
pub fn render(
    workload: &str,
    config_hash: u64,
    mode_bits: u8,
    records: &[SingleBitRecord],
) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    let _ = write!(out, "{{\n  \"version\": {VERSION},\n  \"workload\": ");
    json::write_str(&mut out, workload);
    let _ = write!(
        out,
        ",\n  \"config_hash\": {config_hash},\n  \"mode_bits\": {mode_bits},\n  \"records\": ["
    );
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        write_record(&mut out, r);
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Atomically and durably write `records` as the checkpoint at `path`:
/// temp file, `sync_all`, rename, fsync of the parent directory, with
/// bounded retry against transient failures (see [`crate::durable`]).
///
/// # Errors
///
/// [`CheckpointError::Io`] if every write attempt failed.
pub fn save(
    path: &Path,
    workload: &str,
    config_hash: u64,
    mode_bits: u8,
    records: &[SingleBitRecord],
) -> Result<(), CheckpointError> {
    let doc = render(workload, config_hash, mode_bits, records);
    crate::durable::atomic_write_durable(path, doc.as_bytes()).map_err(|e| CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Load and validate the checkpoint at `path`.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read,
/// [`CheckpointError::Malformed`] for parse or schema violations, and
/// [`CheckpointError::VersionMismatch`] for a foreign format version.
/// Config-hash validation is the caller's job (it knows the campaign).
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let doc = json::parse(&text).map_err(|detail| CheckpointError::Malformed { detail })?;
    let bad = |detail: String| CheckpointError::Malformed { detail };

    let version = parse_u64(&doc, "version", ..).map_err(bad)?;
    if version != VERSION {
        return Err(CheckpointError::VersionMismatch { found: version, expected: VERSION });
    }
    let workload = parse_str(&doc, "workload").map_err(bad)?.to_string();
    let config_hash = parse_u64(&doc, "config_hash", ..).map_err(bad)?;
    let mode_bits = parse_u64(&doc, "mode_bits", ..=u64::from(u8::MAX)).map_err(bad)? as u8;
    let raw_records = doc
        .get("records")
        .and_then(Value::as_arr)
        .ok_or_else(|| CheckpointError::Malformed { detail: "missing \"records\"".into() })?;

    let mut records = Vec::with_capacity(raw_records.len());
    for (i, rec) in raw_records.iter().enumerate() {
        records.push(parse_record(rec, i)?);
    }
    records.sort_by_key(|r| r.trial);
    records.dedup_by_key(|r| r.trial);
    Ok(Checkpoint { workload, config_hash, mode_bits, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<SingleBitRecord> {
        vec![
            SingleBitRecord {
                trial: 0,
                site: FaultSite { wg: 1, after_retired: 17, reg: 3, lane: 9, bit: 30 },
                outcome: Outcome::Sdc,
                read_before_overwrite: true,
            },
            SingleBitRecord {
                trial: 5,
                site: FaultSite { wg: 0, after_retired: 2, reg: 8, lane: 1, bit: 2 },
                outcome: Outcome::Crash { reason: "index 70000 out of bounds: len 65536".into() },
                read_before_overwrite: false,
            },
            SingleBitRecord {
                trial: 2,
                site: FaultSite { wg: 2, after_retired: 0, reg: 0, lane: 63, bit: 0 },
                outcome: Outcome::Hang,
                read_before_overwrite: true,
            },
        ]
    }

    #[test]
    fn save_load_roundtrip_sorts_by_trial() {
        let dir = std::env::temp_dir().join("mbavf-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.json");
        let records = sample_records();
        save(&path, "dct", 0xFEED, 2, &records).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.workload, "dct");
        assert_eq!(loaded.config_hash, 0xFEED);
        assert_eq!(loaded.mode_bits, 2);
        let mut expect = records;
        expect.sort_by_key(|r| r.trial);
        assert_eq!(loaded.records, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Loading is linear in the document: every resume and every adaptive
    /// stage pays it. A per-character rescan of the rest of the document
    /// takes minutes at this size; a linear parse takes well under a second.
    #[test]
    fn twenty_thousand_record_checkpoint_loads_in_linear_time() {
        let dir = std::env::temp_dir().join("mbavf-ckpt-large");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.json");
        let records: Vec<SingleBitRecord> = (0..20_000u64)
            .map(|trial| SingleBitRecord {
                trial,
                site: FaultSite {
                    wg: (trial % 7) as u32,
                    after_retired: trial * 13,
                    reg: (trial % 200) as u8,
                    lane: (trial % 64) as u8,
                    bit: (trial % 32) as u8,
                },
                outcome: match trial % 4 {
                    0 => Outcome::Masked,
                    1 => Outcome::Sdc,
                    2 => Outcome::Hang,
                    _ => Outcome::Crash { reason: format!("índex {trial} \"out\" of bounds ✓") },
                },
                read_before_overwrite: trial % 2 == 0,
            })
            .collect();
        save(&path, "dct", 0xFEED, 1, &records).unwrap();
        let start = std::time::Instant::now();
        let loaded = load(&path).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(loaded.records, records);
        assert!(elapsed.as_secs_f64() < 10.0, "loading 20 000 records took {elapsed:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = CampaignConfig::default();
        let h = config_fingerprint("dct", &base);
        assert_eq!(h, config_fingerprint("dct", &base));
        assert_ne!(h, config_fingerprint("matmul", &base));
        assert_ne!(h, config_fingerprint("dct", &CampaignConfig { seed: 1, ..base }));
        assert_ne!(h, config_fingerprint("dct", &CampaignConfig { wrap_oob: false, ..base }));
        assert_ne!(h, config_fingerprint("dct", &CampaignConfig { mode_bits: 2, ..base }));
        // The budget is *not* part of the identity: `(seed, trial)` streams
        // make a grown budget a pure extension of the same campaign, which
        // is what lets adaptive sizing resume its own checkpoints.
        assert_eq!(h, config_fingerprint("dct", &CampaignConfig { injections: 9, ..base }));
    }

    #[test]
    fn version_and_schema_are_enforced() {
        let dir = std::env::temp_dir().join("mbavf-ckpt-schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.json");

        std::fs::write(
            &path,
            "{\"version\": 99, \"workload\": \"x\", \"config_hash\": 1, \"records\": []}",
        )
        .unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::VersionMismatch { found: 99, expected: VERSION })
        ));

        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Malformed { .. })));

        std::fs::write(
            &path,
            format!("{{\"version\": {VERSION}, \"workload\": \"x\", \"config_hash\": 1, \"mode_bits\": 1, \"records\": [{{\"trial\": 0}}]}}"),
        )
        .unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Malformed { .. })));

        // A version-1 file (no mode_bits, budget-fingerprinted) is foreign.
        std::fs::write(
            &path,
            "{\"version\": 1, \"workload\": \"x\", \"config_hash\": 1, \"records\": []}",
        )
        .unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::VersionMismatch { found: 1, expected: VERSION })
        ));

        // A version-2 file predates the residency-weighted sampler: its
        // trial indices map to different fault sites, so it is foreign too.
        std::fs::write(
            &path,
            "{\"version\": 2, \"workload\": \"x\", \"config_hash\": 1, \"mode_bits\": 1, \"records\": []}",
        )
        .unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::VersionMismatch { found: 2, expected: VERSION })
        ));

        assert!(matches!(load(&dir.join("absent.json")), Err(CheckpointError::Io { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_epoch_is_decoupled_from_format_version() {
        // Version 4 changed the durability format, not trial semantics:
        // fingerprints (pinned inside every repro bundle) must not move.
        assert_eq!(FINGERPRINT_EPOCH, 3);
        assert_eq!(VERSION, 4);
        let canon_prefix = format!("v{FINGERPRINT_EPOCH};");
        assert_eq!(canon_prefix, "v3;");
    }

    #[test]
    fn version_3_document_is_refused_with_both_versions_named() {
        // The v3 → v4 migration: a version-3 checkpoint (pre-WAL, no
        // durable-write discipline) is structurally identical but its
        // resume contract is not — a v4 build consults the journal, a v3
        // build would ignore it. Migration policy is refusal, and the error
        // text must name both the version found and the version expected.
        let dir = std::env::temp_dir().join("mbavf-ckpt-migration-v3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v3.json");
        std::fs::write(
            &path,
            "{\n  \"version\": 3,\n  \"workload\": \"dct\",\n  \"config_hash\": 42,\n  \"mode_bits\": 1,\n  \"records\": [\n    {\"trial\": 0, \"wg\": 1, \"after\": 17, \"reg\": 3, \"lane\": 9, \"bit\": 30, \"outcome\": \"sdc\", \"read\": true}\n  ]\n}\n",
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err, CheckpointError::VersionMismatch { found: 3, expected: VERSION });
        let text = err.to_string();
        assert!(text.contains("version 3"), "must name the found version: {text}");
        assert!(text.contains("expects 4"), "must name the expected version: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_document_is_refused_with_both_versions_named() {
        // A realistic version-1 checkpoint: no `mode_bits` field, budget
        // still folded into the fingerprint, records present. Migration
        // policy is refusal — v1 trial indices mean different faults — and
        // the error text must tell the researcher both the version they
        // have and the version this build expects.
        let dir = std::env::temp_dir().join("mbavf-ckpt-migration");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        std::fs::write(
            &path,
            "{\n  \"version\": 1,\n  \"workload\": \"dct\",\n  \"config_hash\": 42,\n  \"records\": [\n    {\"trial\": 0, \"wg\": 1, \"after\": 17, \"reg\": 3, \"lane\": 9, \"bit\": 30, \"outcome\": \"sdc\", \"read\": true}\n  ]\n}\n",
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err, CheckpointError::VersionMismatch { found: 1, expected: VERSION });
        let text = err.to_string();
        assert!(text.contains("version 1"), "must name the found version: {text}");
        assert!(text.contains(&VERSION.to_string()), "must name the expected version: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_reasons_with_hostile_characters_roundtrip() {
        let dir = std::env::temp_dir().join("mbavf-ckpt-escape");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.json");
        let records = vec![SingleBitRecord {
            trial: 1,
            site: FaultSite { wg: 0, after_retired: 0, reg: 0, lane: 0, bit: 0 },
            outcome: Outcome::Crash { reason: "assert \"a < b\"\n\tat mem.rs:96 \\ λ".into() },
            read_before_overwrite: false,
        }];
        save(&path, "w", 7, 1, &records).unwrap();
        assert_eq!(load(&path).unwrap().records, records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
