//! Self-contained repro bundles: one file per interesting trial, holding
//! everything needed to re-execute that single fault deterministically.
//!
//! ## File format (version 2)
//!
//! ```json
//! {
//!   "version": 2,
//!   "sampler": "v2",
//!   "workload": "fast_walsh",
//!   "config_fingerprint": 1234567890123456789,
//!   "seed": 44357,
//!   "scale": "test",
//!   "hang_factor": 8,
//!   "wrap_oob": true,
//!   "mode_bits": 4,
//!   "trial": 17,
//!   "wg": 1, "after": 17, "reg": 3, "lane": 9, "bit": 30,
//!   "outcome": "sdc",
//!   "read": true,
//!   "golden_digest": 987654321,
//!   "minimized": {"wg": 1, "after": 17, "reg": 3, "lane": 9, "bit": 30,
//!                 "mode_bits": 1, "outcome": "sdc"}
//! }
//! ```
//!
//! The `sampler` field records which fault-site sampling scheme drew the
//! bundle's trial ([`SAMPLER_ID`]); replay refuses any other value — and
//! refuses format-version-1 files outright, whose trials were drawn by the
//! retired per-workgroup-uniform v1 scheme and therefore name different
//! faults under this build. The `config_fingerprint` is the same campaign
//! fingerprint checkpoints carry; replay recomputes it from the bundle's
//! own embedded configuration and refuses a mismatch, so any corruption of
//! a classification-relevant field is caught before a single instruction
//! executes. `golden_digest` is
//! the FNV-1a digest of the golden output the outcome was classified
//! against; replay re-derives it and refuses drift. The optional
//! `minimized` section is written back by the shrinker
//! ([`crate::shrink`]) and records the smallest fault found that still
//! produces the recorded outcome kind.
//!
//! Writes are atomic (temp file + rename). Bundles are emitted in trial
//! order, capped and deduplicated per outcome kind, so the set of files a
//! campaign produces is a pure function of its configuration — independent
//! of thread count and of any interrupt/resume schedule.

use crate::campaign::{
    golden_shape, CampaignConfig, FaultSite, Outcome, OutcomeKind, SingleBitRecord, SAMPLER_ID,
};
use crate::checkpoint::config_fingerprint;
use crate::json::{self, Value};
use mbavf_core::error::{BundleError, InjectError};
use mbavf_core::rng::fnv1a;
use mbavf_workloads::{Scale, Workload};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The repro-bundle format version this build reads and writes.
///
/// Version 2 added the `sampler` field alongside the switch to the
/// residency-weighted fault-site sampler; version-1 bundles are refused
/// with [`BundleError::SamplerMismatch`] because their trials were drawn by
/// the retired v1 scheme.
pub const BUNDLE_VERSION: u64 = 2;

/// Default per-outcome-kind cap on bundles emitted by one campaign.
pub const DEFAULT_BUNDLE_CAP: usize = 8;

/// The shrinker's record of the smallest fault that still reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimized {
    /// Minimized fault site (usually the same word, narrower window).
    pub site: FaultSite,
    /// Minimized fault-mode width.
    pub mode_bits: u8,
}

/// A loaded (or about-to-be-written) repro bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    /// Workload name.
    pub workload: String,
    /// Campaign fingerprint recorded at capture time (see
    /// [`crate::checkpoint::config_fingerprint`]).
    pub config_fingerprint: u64,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Problem scale.
    pub scale: Scale,
    /// Hang guard multiplier.
    pub hang_factor: u64,
    /// Out-of-bounds device-access policy.
    pub wrap_oob: bool,
    /// Fault-mode width in bits.
    pub mode_bits: u8,
    /// Campaign trial index this fault came from.
    pub trial: u64,
    /// The fault.
    pub site: FaultSite,
    /// Outcome recorded at capture time.
    pub outcome: Outcome,
    /// Whether the flipped register was read before being overwritten.
    pub read_before_overwrite: bool,
    /// FNV-1a digest of the golden output the outcome was classified
    /// against.
    pub golden_digest: u64,
    /// Shrinker result, if one has been written back.
    pub minimized: Option<Minimized>,
}

impl ReproBundle {
    /// The campaign configuration this bundle embeds. The injection budget
    /// is irrelevant to a single-trial replay and set to 1.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            injections: 1,
            scale: self.scale,
            hang_factor: self.hang_factor,
            wrap_oob: self.wrap_oob,
            mode_bits: self.mode_bits,
        }
    }
}

fn scale_str(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "test" => Some(Scale::Test),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

fn render_site(out: &mut String, site: &FaultSite) {
    let _ = write!(
        out,
        "\"wg\": {}, \"after\": {}, \"reg\": {}, \"lane\": {}, \"bit\": {}",
        site.wg, site.after_retired, site.reg, site.lane, site.bit
    );
}

/// Serialize a bundle document.
pub fn render(b: &ReproBundle) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\n  \"version\": {BUNDLE_VERSION},\n  \"sampler\": \"{SAMPLER_ID}\",\n  \"workload\": "
    );
    json::write_str(&mut out, &b.workload);
    let _ = write!(
        out,
        ",\n  \"config_fingerprint\": {},\n  \"seed\": {},\n  \"scale\": \"{}\",\n  \
         \"hang_factor\": {},\n  \"wrap_oob\": {},\n  \"mode_bits\": {},\n  \"trial\": {},\n  ",
        b.config_fingerprint,
        b.seed,
        scale_str(b.scale),
        b.hang_factor,
        b.wrap_oob,
        b.mode_bits,
        b.trial,
    );
    render_site(&mut out, &b.site);
    let _ = write!(out, ",\n  \"outcome\": \"{}\",\n  ", b.outcome.kind().as_str());
    if let Outcome::Crash { reason } = &b.outcome {
        out.push_str("\"reason\": ");
        json::write_str(&mut out, reason);
        out.push_str(",\n  ");
    }
    let _ = write!(
        out,
        "\"read\": {},\n  \"golden_digest\": {}",
        b.read_before_overwrite, b.golden_digest
    );
    if let Some(m) = &b.minimized {
        out.push_str(",\n  \"minimized\": {");
        render_site(&mut out, &m.site);
        let _ = write!(out, ", \"mode_bits\": {}", m.mode_bits);
        out.push('}');
    }
    out.push_str("\n}\n");
    out
}

/// Durably and atomically write `bundle` to `path` (temp file, `sync_all`,
/// rename, parent-directory fsync, via [`crate::durable`]).
pub fn save(path: &Path, bundle: &ReproBundle) -> Result<(), BundleError> {
    crate::durable::atomic_write_durable(path, render(bundle).as_bytes())
        .map_err(|e| BundleError::Io { path: path.display().to_string(), detail: e.to_string() })
}

fn field_u64(doc: &Value, key: &str) -> Result<u64, BundleError> {
    doc.get(key).and_then(Value::as_u64).ok_or_else(|| BundleError::Malformed {
        detail: format!("missing or non-integer \"{key}\""),
    })
}

fn narrow(v: u64, key: &str, max: u64) -> Result<u64, BundleError> {
    if v > max {
        Err(BundleError::Malformed { detail: format!("\"{key}\" = {v} out of range") })
    } else {
        Ok(v)
    }
}

fn parse_site(doc: &Value, ctx: &str) -> Result<FaultSite, BundleError> {
    let key = |k: &str| format!("{ctx}{k}");
    Ok(FaultSite {
        wg: narrow(field_u64(doc, "wg")?, &key("wg"), u64::from(u32::MAX))? as u32,
        after_retired: field_u64(doc, "after")?,
        reg: narrow(field_u64(doc, "reg")?, &key("reg"), 255)? as u8,
        lane: narrow(field_u64(doc, "lane")?, &key("lane"), 63)? as u8,
        bit: narrow(field_u64(doc, "bit")?, &key("bit"), 31)? as u8,
    })
}

/// Load and schema-validate the bundle at `path`.
///
/// Every malformed input yields a typed error — the torture tests in
/// `crates/inject/tests/torture.rs` prove this never panics for any
/// truncation or byte corruption of a valid file. Fingerprint and golden
/// digest validation happen at replay time, not here: loading a bundle to
/// *look* at it must work even on a build that can no longer run it.
pub fn load(path: &Path) -> Result<ReproBundle, BundleError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BundleError::Io { path: path.display().to_string(), detail: e.to_string() })?;
    let doc = json::parse(&text).map_err(|detail| BundleError::Malformed { detail })?;

    let version = field_u64(&doc, "version")?;
    if version == 1 {
        // Format version 1 predates the sampler field; its trials were
        // drawn by the per-workgroup-uniform v1 scheme, so under this build
        // the recorded (seed, trial) names a different fault entirely.
        return Err(BundleError::SamplerMismatch {
            found: "v1 (implied by bundle format version 1)".into(),
            expected: SAMPLER_ID.into(),
        });
    }
    if version != BUNDLE_VERSION {
        return Err(BundleError::VersionMismatch { found: version, expected: BUNDLE_VERSION });
    }
    let sampler = doc
        .get("sampler")
        .and_then(Value::as_str)
        .ok_or_else(|| BundleError::Malformed { detail: "missing \"sampler\"".into() })?;
    if sampler != SAMPLER_ID {
        return Err(BundleError::SamplerMismatch {
            found: sampler.to_string(),
            expected: SAMPLER_ID.into(),
        });
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| BundleError::Malformed { detail: "missing \"workload\"".into() })?
        .to_string();
    let scale =
        doc.get("scale").and_then(Value::as_str).and_then(parse_scale).ok_or_else(|| {
            BundleError::Malformed { detail: "missing or unknown \"scale\"".into() }
        })?;
    let wrap_oob = doc
        .get("wrap_oob")
        .and_then(Value::as_bool)
        .ok_or_else(|| BundleError::Malformed { detail: "missing \"wrap_oob\"".into() })?;
    let mode_bits = narrow(field_u64(&doc, "mode_bits")?, "mode_bits", 32)? as u8;
    if mode_bits == 0 {
        return Err(BundleError::Malformed { detail: "\"mode_bits\" = 0 out of range".into() });
    }
    let kind = doc.get("outcome").and_then(Value::as_str).and_then(OutcomeKind::parse).ok_or_else(
        || BundleError::Malformed { detail: "missing or unknown \"outcome\"".into() },
    )?;
    let outcome = match kind {
        OutcomeKind::Masked => Outcome::Masked,
        OutcomeKind::Sdc => Outcome::Sdc,
        OutcomeKind::Hang => Outcome::Hang,
        OutcomeKind::Crash => Outcome::Crash {
            reason: doc
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("unrecorded crash reason")
                .to_string(),
        },
    };
    let read = doc
        .get("read")
        .and_then(Value::as_bool)
        .ok_or_else(|| BundleError::Malformed { detail: "missing \"read\"".into() })?;
    let minimized = match doc.get("minimized") {
        None => None,
        Some(m) => {
            let site = parse_site(m, "minimized.")?;
            let bits = narrow(field_u64(m, "mode_bits")?, "minimized.mode_bits", 32)? as u8;
            if bits == 0 {
                return Err(BundleError::Malformed {
                    detail: "\"minimized.mode_bits\" = 0 out of range".into(),
                });
            }
            Some(Minimized { site, mode_bits: bits })
        }
    };
    Ok(ReproBundle {
        workload,
        config_fingerprint: field_u64(&doc, "config_fingerprint")?,
        seed: field_u64(&doc, "seed")?,
        scale,
        hang_factor: field_u64(&doc, "hang_factor")?,
        wrap_oob,
        mode_bits,
        trial: field_u64(&doc, "trial")?,
        site: parse_site(&doc, "")?,
        outcome,
        read_before_overwrite: read,
        golden_digest: field_u64(&doc, "golden_digest")?,
        minimized,
    })
}

/// Deterministic file name for a trial's bundle. The fingerprint keeps
/// bundles from different campaigns apart even in a shared directory.
pub fn bundle_path(
    dir: &Path,
    workload: &str,
    fingerprint: u64,
    trial: u64,
    kind: OutcomeKind,
) -> PathBuf {
    dir.join(format!("{workload}-{fingerprint:016x}-t{trial:06}-{}.repro.json", kind.as_str()))
}

/// What [`BundleWriter::write`] needs to stamp every bundle it emits.
#[derive(Debug, Clone, Copy)]
pub struct BundleWriter<'a> {
    /// Directory bundles are written into (created if absent).
    pub dir: &'a Path,
    /// Workload name.
    pub workload: &'a str,
    /// Campaign configuration the records came from.
    pub cfg: &'a CampaignConfig,
    /// Campaign fingerprint (must match `cfg`; the runner already has it).
    pub fingerprint: u64,
    /// FNV-1a digest of the campaign's golden output.
    pub golden_digest: u64,
    /// Per-outcome-kind cap on emitted bundles.
    pub cap: usize,
}

impl BundleWriter<'_> {
    /// Emit bundles for the records selected by `keep`, in trial order,
    /// capped per outcome kind and deduplicated (crash records with an
    /// already-bundled panic reason are skipped — a hundred trials tripping
    /// the same assert are one bug, not a hundred).
    ///
    /// Writing is idempotent: a bundle whose file already exists with
    /// identical contents is left untouched, so a resumed campaign re-emits
    /// the exact same set without churn. Returns the paths of all bundles
    /// that are part of this campaign's selection (existing or new).
    pub fn write(
        &self,
        records: &[SingleBitRecord],
        keep: &dyn Fn(&SingleBitRecord) -> bool,
    ) -> Result<Vec<PathBuf>, BundleError> {
        std::fs::create_dir_all(self.dir).map_err(|e| BundleError::Io {
            path: self.dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let mut counts = [0usize; 4];
        let mut seen_reasons: BTreeSet<&str> = BTreeSet::new();
        let mut paths = Vec::new();
        for r in records {
            if !keep(r) {
                continue;
            }
            let kind = r.outcome.kind();
            let slot = kind.index();
            if counts[slot] >= self.cap {
                continue;
            }
            if let Outcome::Crash { reason } = &r.outcome {
                if !seen_reasons.insert(reason) {
                    continue;
                }
            }
            counts[slot] += 1;
            let bundle = ReproBundle {
                workload: self.workload.to_string(),
                config_fingerprint: self.fingerprint,
                seed: self.cfg.seed,
                scale: self.cfg.scale,
                hang_factor: self.cfg.hang_factor,
                wrap_oob: self.cfg.wrap_oob,
                mode_bits: self.cfg.mode_bits.clamp(1, 32),
                trial: r.trial,
                site: r.site,
                outcome: r.outcome.clone(),
                read_before_overwrite: r.read_before_overwrite,
                golden_digest: self.golden_digest,
                minimized: None,
            };
            let path = bundle_path(self.dir, self.workload, self.fingerprint, r.trial, kind);
            // A bundle already on disk may carry a shrinker's `minimized`
            // section; re-emitting the same trial must not erase it.
            let unchanged = load(&path)
                .is_ok_and(|existing| ReproBundle { minimized: None, ..existing } == bundle);
            if !unchanged {
                save(&path, &bundle)?;
            }
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Emit repro bundles for `records` of a campaign over `workload`,
/// recomputing the fingerprint and golden digest from `cfg`.
///
/// The convenience entry point for callers (like the validate gate) that
/// hold a finished [`CampaignSummary`](crate::campaign::CampaignSummary)
/// but not the runner's internal golden shape.
pub fn write_campaign_bundles(
    dir: &Path,
    workload: &Workload,
    cfg: &CampaignConfig,
    records: &[SingleBitRecord],
    cap: usize,
    keep: &dyn Fn(&SingleBitRecord) -> bool,
) -> Result<Vec<PathBuf>, InjectError> {
    let golden = golden_shape(workload, cfg)?;
    let writer = BundleWriter {
        dir,
        workload: workload.name,
        cfg,
        fingerprint: config_fingerprint(workload.name, cfg),
        golden_digest: fnv1a(&golden.output),
        cap,
    };
    Ok(writer.write(records, keep)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> ReproBundle {
        ReproBundle {
            workload: "fast_walsh".into(),
            config_fingerprint: 0xDEAD_BEEF_CAFE,
            seed: 7,
            scale: Scale::Test,
            hang_factor: 8,
            wrap_oob: true,
            mode_bits: 4,
            trial: 17,
            site: FaultSite { wg: 1, after_retired: 40, reg: 3, lane: 9, bit: 30 },
            outcome: Outcome::Sdc,
            read_before_overwrite: true,
            golden_digest: 0xFEED,
            minimized: None,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_roundtrip_with_and_without_minimized() {
        let dir = tmp_dir("mbavf-bundle-roundtrip");
        let path = dir.join("b.repro.json");
        let mut b = sample_bundle();
        save(&path, &b).unwrap();
        assert_eq!(load(&path).unwrap(), b);
        b.minimized = Some(Minimized { site: FaultSite { bit: 31, ..b.site }, mode_bits: 1 });
        b.outcome = Outcome::Crash { reason: "assert \"a < b\"\n\tat mem.rs \\ λ".into() };
        save(&path, &b).unwrap();
        assert_eq!(load(&path).unwrap(), b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_and_schema_are_enforced() {
        let dir = tmp_dir("mbavf-bundle-schema");
        let path = dir.join("b.repro.json");
        std::fs::write(&path, "{\"version\": 99}").unwrap();
        assert!(matches!(
            load(&path),
            Err(BundleError::VersionMismatch { found: 99, expected: BUNDLE_VERSION })
        ));
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(load(&path), Err(BundleError::Malformed { .. })));
        // Out-of-range coordinates are schema violations, not panics.
        let mut b = sample_bundle();
        b.mode_bits = 4;
        let doc = render(&b).replace("\"bit\": 30", "\"bit\": 77");
        std::fs::write(&path, doc).unwrap();
        assert!(matches!(load(&path), Err(BundleError::Malformed { .. })));
        assert!(matches!(load(&dir.join("absent.json")), Err(BundleError::Io { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampler_provenance_is_enforced() {
        let dir = tmp_dir("mbavf-bundle-sampler");
        let path = dir.join("b.repro.json");
        // Format-version-1 files predate the sampler field; the refusal is a
        // SamplerMismatch, not a generic version error, because the recorded
        // trial maps to a different fault under the v2 sampler.
        let v1 = render(&sample_bundle())
            .replace("\"version\": 2,\n  \"sampler\": \"v2\",", "\"version\": 1,");
        std::fs::write(&path, v1).unwrap();
        match load(&path) {
            Err(BundleError::SamplerMismatch { found, expected }) => {
                assert!(found.contains("v1"), "found: {found}");
                assert_eq!(expected, SAMPLER_ID);
            }
            other => panic!("v1 bundle not refused as SamplerMismatch: {other:?}"),
        }
        // A v2 file claiming some other sampler is also refused.
        let foreign =
            render(&sample_bundle()).replace("\"sampler\": \"v2\"", "\"sampler\": \"v9\"");
        std::fs::write(&path, foreign).unwrap();
        assert!(matches!(
            load(&path),
            Err(BundleError::SamplerMismatch { found, .. }) if found == "v9"
        ));
        // A v2 file with no sampler stamp at all is malformed.
        let missing = render(&sample_bundle()).replace("  \"sampler\": \"v2\",\n", "");
        std::fs::write(&path, missing).unwrap();
        assert!(matches!(load(&path), Err(BundleError::Malformed { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_caps_and_dedups_per_kind() {
        let dir = tmp_dir("mbavf-bundle-writer");
        let site = FaultSite { wg: 0, after_retired: 0, reg: 0, lane: 0, bit: 0 };
        let rec =
            |trial, outcome| SingleBitRecord { trial, site, outcome, read_before_overwrite: false };
        let records = vec![
            rec(0, Outcome::Sdc),
            rec(1, Outcome::Masked),
            rec(2, Outcome::Crash { reason: "same assert".into() }),
            rec(3, Outcome::Sdc),
            rec(4, Outcome::Crash { reason: "same assert".into() }),
            rec(5, Outcome::Sdc),
            rec(6, Outcome::Crash { reason: "different assert".into() }),
        ];
        let cfg = CampaignConfig::default();
        let writer = BundleWriter {
            dir: &dir,
            workload: "w",
            cfg: &cfg,
            fingerprint: 0xF00D,
            golden_digest: 1,
            cap: 2,
        };
        let paths = writer.write(&records, &|r| r.outcome.is_error()).unwrap();
        // Cap 2 keeps sdc trials 0 and 3 (not 5); the duplicate crash reason
        // at trial 4 is skipped, the distinct one at trial 6 kept; masked is
        // filtered out by `keep` entirely.
        let names: Vec<String> =
            paths.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
        assert_eq!(
            names,
            vec![
                "w-000000000000f00d-t000000-sdc.repro.json",
                "w-000000000000f00d-t000002-crash.repro.json",
                "w-000000000000f00d-t000003-sdc.repro.json",
                "w-000000000000f00d-t000006-crash.repro.json",
            ]
        );
        // Idempotent: a second pass selects the same set, rewrites nothing.
        let again = writer.write(&records, &|r| r.outcome.is_error()).unwrap();
        assert_eq!(paths, again);
        // A minimized section added later survives re-emission.
        let mut first = load(&paths[0]).unwrap();
        first.minimized = Some(Minimized { site, mode_bits: 1 });
        save(&paths[0], &first).unwrap();
        writer.write(&records, &|r| r.outcome.is_error()).unwrap();
        assert_eq!(load(&paths[0]).unwrap().minimized, first.minimized);
        std::fs::remove_dir_all(&dir).ok();
    }
}
