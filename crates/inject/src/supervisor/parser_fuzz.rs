//! Deterministic, structure-aware fuzzing of every parser a trial record
//! crosses on its way into the journal — the transport's frame reader
//! (`read_frame`), [`json::parse`], record frames (`parse_record_frame`,
//! over [`checkpoint::parse_record`]) and journal recovery
//! ([`wal::recover`]) — and of the documents that share the record's field
//! codec: hello frames, lease frames and repro bundles.
//!
//! Every mutant comes from a fixed SplitMix64 seed, so a failure replays
//! exactly. The mutants are every truncation, seeded byte flips,
//! length-prefix edits, nesting wrappers (up to a megabyte deep),
//! duplicate keys and oversized numbers. The properties:
//!
//! * no parser panics or overflows its stack — the parsers run on a
//!   2 MiB thread, the size of a daemon's connection thread;
//! * a frame that parses as a record re-renders to exactly its own bytes;
//! * a hello or bundle that parses holds a configuration and fault sites
//!   inside the campaign's ranges, and survives its own round trip;
//! * a lease that parses names at most [`MAX_LEASE_TRIALS`] trials;
//! * a damaged journal recovers exactly a prefix of the committed records.

use super::serve::{parse_hello, parse_lease};
use super::transport::{read_frame, render_hello, render_lease, MAX_FRAME};
use super::{parse_record_frame, render_record_frame, MAX_LEASE_TRIALS};
use crate::bundle::{self, Minimized, ReproBundle};
use crate::campaign::{CampaignConfig, FaultSite, Outcome, SingleBitRecord};
use crate::checkpoint::{self, wal};
use crate::json::{self, Value};
use mbavf_core::rng::SplitMix64;
use mbavf_workloads::Scale;
use std::path::Path;

const SEED: u64 = 0xF0_22ED;

/// Byte-flip mutants per record frame, and per journal.
const FLIPS: usize = 128;

/// Record frames covering every outcome, a string with escapes, and the
/// extremes of every field.
fn frames() -> Vec<String> {
    let record = |trial: u64, outcome: Outcome, read| SingleBitRecord {
        trial,
        site: FaultSite { wg: trial as u32, after_retired: trial * 7, reg: 3, lane: 9, bit: 30 },
        outcome,
        read_before_overwrite: read,
    };
    let crash = Outcome::Crash { reason: "index out of bounds: \"len\"\n\tat mem.rs λ".into() };
    let extreme = SingleBitRecord {
        trial: u64::MAX,
        site: FaultSite { wg: u32::MAX, after_retired: u64::MAX, reg: 255, lane: 63, bit: 31 },
        outcome: Outcome::Hang,
        read_before_overwrite: false,
    };
    [
        (record(0, Outcome::Masked, false), 0),
        (record(7, Outcome::Sdc, true), 1234),
        (record(41, crash, false), 99),
        (extreme, u64::MAX),
    ]
    .iter()
    .map(|(r, us)| render_record_frame(r, *us))
    .collect()
}

/// Replace the value of numeric field `key` in a rendered frame.
fn with_value(frame: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\": ");
    let start = frame.find(&tag).expect("field present") + tag.len();
    let end = start + frame[start..].find([',', '}']).expect("value ends");
    format!("{}{value}{}", &frame[..start], &frame[end..])
}

/// The numeric and the other fields of a record frame.
const RECORD_FIELDS: Fields =
    (&["trial", "wg", "after", "reg", "lane", "bit", "us"], &["outcome", "read"]);

/// A frame's numeric fields, and its fields of other types.
type Fields = (&'static [&'static str], &'static [&'static str]);

/// The structure-aware mutants of one frame, whose fields are `fields`.
fn mutants(frame: &str, (numeric, other): Fields, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let bytes = frame.as_bytes();
    let mut out: Vec<Vec<u8>> = (0..=bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for _ in 0..FLIPS {
        let mut flipped = bytes.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        flipped[at] ^= 1 + rng.below(255) as u8;
        out.push(flipped);
    }
    // Nesting: shallow wrappers, either side of the parser's depth cap, and
    // as deep as the largest frame a peer may send allows.
    let wrap = |open: &str, close: &str, depth: usize| {
        format!("{}{frame}{}", open.repeat(depth), close.repeat(depth)).into_bytes()
    };
    for depth in [1, json::MAX_DEPTH - 1, json::MAX_DEPTH, (MAX_FRAME - frame.len()) / 2] {
        out.push(wrap("[", "]", depth));
    }
    out.push(wrap("{\"a\": ", "}", (MAX_FRAME - frame.len()) / 7));
    for key in numeric.iter().chain(other) {
        // The key again, first and last, with a value of each type.
        for value in ["1", "\"sdc\"", "true"] {
            out.push(format!("{{\"{key}\": {value}, {}", &frame[1..]).into_bytes());
            out.push(format!("{}, \"{key}\": {value}}}", &frame[..frame.len() - 1]).into_bytes());
        }
    }
    let huge = format!("1{}", "0".repeat(400));
    // Just past each field's range, then past every integer's.
    let values = ["0", "33", "64", "256", "4294967296", "18446744073709551616", &huge];
    for &key in numeric {
        for value in values.iter().chain(&["1e999", "-1", "0.5"]) {
            out.push(with_value(frame, key, value).into_bytes());
        }
    }
    out
}

/// Length-prefixed transport encodings of `payload`: honest, and with the
/// prefix edited or cut short.
fn framings(payload: &[u8]) -> Vec<(Vec<u8>, u32)> {
    let len = payload.len() as u32;
    let mut out = Vec::new();
    for claim in [len, len.saturating_sub(1), len + 1, 0, MAX_FRAME as u32 + 1, u32::MAX] {
        let mut wire = claim.to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        out.push((wire, claim));
    }
    out.push((len.to_be_bytes()[..3].to_vec(), len));
    out
}

/// Run `f` on a thread with a daemon connection's 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    let thread = std::thread::Builder::new().stack_size(2 << 20);
    thread.spawn(f).expect("spawn").join().expect("a parser panicked");
}

#[test]
fn record_frame_parsers_survive_structured_mutants() {
    on_small_stack(|| {
        let mut rng = SplitMix64::new(SEED);
        let mut parsed_as_records = 0;
        for frame in frames() {
            assert!(parse_record_frame(&frame, &json::parse(&frame).unwrap()).is_ok());
            for mutant in mutants(&frame, RECORD_FIELDS, &mut rng) {
                for (wire, claim) in framings(&mutant) {
                    match read_frame(&mut wire.as_slice()) {
                        Ok(Some(payload)) => {
                            assert!(claim as usize <= MAX_FRAME && claim as usize <= mutant.len());
                            assert_eq!(payload.as_bytes(), &mutant[..claim as usize]);
                        }
                        Ok(None) => panic!("a non-empty stream read as a clean EOF"),
                        Err(_) => {}
                    }
                }
                let Ok(text) = std::str::from_utf8(&mutant) else { continue };
                let Ok(v) = json::parse(text) else { continue };
                // The checkpoint's record parser is total over any JSON, and
                // what it accepts re-parses to the same record.
                if let Ok(record) = checkpoint::parse_record(&v, 0) {
                    let mut again = String::new();
                    checkpoint::write_record(&mut again, &record);
                    let again = checkpoint::parse_record(&json::parse(&again).unwrap(), 0);
                    assert_eq!(again.unwrap(), record);
                }
                if let Ok((record, us)) = parse_record_frame(text, &v) {
                    assert_eq!(render_record_frame(&record, us), text, "accepted {text:?}");
                    parsed_as_records += 1;
                }
            }
        }
        // The untruncated frame, a flipped digit, a wrapper-free mutant: the
        // fuzz must have accepted some records, or it proved nothing.
        assert!(parsed_as_records >= frames().len(), "{parsed_as_records}");
    });
}

/// The numeric and the other fields of a hello frame.
const HELLO_FIELDS: Fields =
    (&["mbavf_hello", "seed", "hang_factor", "mode_bits"], &["workload", "scale", "wrap_oob"]);

/// The numeric and the other fields of a lease frame.
const LEASE_FIELDS: Fields = (&["attempt"], &["trials"]);

/// The numeric and the other fields of a repro bundle.
const BUNDLE_FIELDS: Fields = (
    &[
        "version",
        "config_fingerprint",
        "seed",
        "hang_factor",
        "mode_bits",
        "trial",
        "wg",
        "after",
        "reg",
        "lane",
        "bit",
        "golden_digest",
    ],
    &["sampler", "workload", "scale", "wrap_oob", "outcome", "reason", "read", "minimized"],
);

/// A configuration with every field at the far edge of its range.
fn extreme_config() -> CampaignConfig {
    CampaignConfig {
        seed: u64::MAX,
        injections: 1,
        scale: Scale::Paper,
        hang_factor: u64::MAX,
        wrap_oob: false,
        mode_bits: 32,
    }
}

/// Hello frames: the default configuration, and the extreme one under a
/// workload name with escapes.
fn hellos() -> Vec<String> {
    vec![
        render_hello("transpose", &CampaignConfig::default()),
        render_hello("tr\"an\\spose λ", &extreme_config()),
    ]
}

/// Lease frames: a short list, exactly the bound, and one trial over the
/// bound. No seed holds a long index: a flipped byte could turn it into a
/// range of billions, which a regressed bound would try to allocate.
fn leases() -> Vec<String> {
    let bound: Vec<u64> = (0..MAX_LEASE_TRIALS as u64).collect();
    vec![
        render_lease(&[0, 1, 2, 5, 9, 10, 11], 0),
        render_lease(&bound, u32::MAX),
        format!("{{\"trials\": \"0-{MAX_LEASE_TRIALS}\", \"attempt\": 0}}"),
    ]
}

/// Bundle documents: a plain SDC, and a crash with a minimized section and
/// every field at an extreme.
fn bundles() -> Vec<String> {
    let plain = ReproBundle {
        workload: "fast_walsh".into(),
        config_fingerprint: 0xDEAD_BEEF,
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
    };
    let cfg = extreme_config();
    let site = FaultSite { wg: u32::MAX, after_retired: u64::MAX, reg: 255, lane: 63, bit: 31 };
    let extreme = ReproBundle {
        workload: "w \"λ\"".into(),
        config_fingerprint: u64::MAX,
        seed: cfg.seed,
        scale: cfg.scale,
        hang_factor: cfg.hang_factor,
        wrap_oob: cfg.wrap_oob,
        mode_bits: cfg.mode_bits,
        trial: u64::MAX,
        site,
        outcome: Outcome::Crash { reason: "index out of bounds: \"len\"\n\tat mem.rs λ".into() },
        read_before_overwrite: false,
        golden_digest: u64::MAX,
        minimized: Some(Minimized { site, mode_bits: 1 }),
    };
    // Trimmed, so a duplicate key appended before the closing brace still
    // makes a well-formed document.
    [plain, extreme].iter().map(|b| bundle::render(b).trim_end().to_string()).collect()
}

/// The configuration ranges every parser of a campaign configuration
/// enforces.
fn assert_config_in_range(cfg: &CampaignConfig) {
    assert!(CampaignConfig::MODE_BITS.contains(&u64::from(cfg.mode_bits)), "{cfg:?}");
    assert!(CampaignConfig::HANG_FACTORS.contains(&cfg.hang_factor), "{cfg:?}");
}

fn assert_site_in_range(site: &FaultSite) {
    assert!(site.lane <= 63 && site.bit <= 31, "{site:?}");
}

/// The mutants of `seeds` that are JSON, as text and value.
fn json_mutants(seeds: &[String], fields: Fields, rng: &mut SplitMix64) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for seed in seeds {
        for mutant in mutants(seed, fields, rng) {
            let Ok(text) = String::from_utf8(mutant) else { continue };
            if let Ok(v) = json::parse(&text) {
                out.push((text, v));
            }
        }
    }
    out
}

#[test]
fn hello_lease_and_bundle_parsers_survive_structured_mutants() {
    on_small_stack(|| {
        let mut rng = SplitMix64::new(SEED);
        let mut accepted = 0;
        for (_, v) in json_mutants(&hellos(), HELLO_FIELDS, &mut rng) {
            let Ok((workload, cfg)) = parse_hello(&v) else { continue };
            assert_config_in_range(&cfg);
            let again = render_hello(&workload, &cfg);
            assert_eq!(parse_hello(&json::parse(&again).unwrap()), Ok((workload, cfg)));
            accepted += 1;
        }
        assert!(accepted >= hellos().len(), "{accepted} hellos accepted");

        let mut accepted = 0;
        for (text, v) in json_mutants(&leases(), LEASE_FIELDS, &mut rng) {
            let Ok((trials, _)) = parse_lease(&v) else { continue };
            assert!(trials.len() <= MAX_LEASE_TRIALS, "{} trials from {text:?}", trials.len());
            accepted += 1;
        }
        assert!(accepted >= leases().len() - 1, "{accepted} leases accepted");

        let mut accepted = 0;
        for (text, _) in json_mutants(&bundles(), BUNDLE_FIELDS, &mut rng) {
            let Ok(b) = bundle::parse(&text) else { continue };
            assert_config_in_range(&b.campaign_config());
            assert_site_in_range(&b.site);
            if let Some(m) = &b.minimized {
                assert!(CampaignConfig::MODE_BITS.contains(&u64::from(m.mode_bits)), "{m:?}");
                assert_site_in_range(&m.site);
            }
            assert_eq!(bundle::parse(&bundle::render(&b)), Ok(b));
            accepted += 1;
        }
        assert!(accepted >= bundles().len(), "{accepted} bundles accepted");
    });
}

/// Write `bytes` as the journal of `ckpt`, recover it, and require exactly
/// a prefix of `committed` back; a torn tail must be gone on a second pass.
fn assert_recovers_a_prefix(ckpt: &Path, bytes: &[u8], committed: &[SingleBitRecord]) {
    let dir = ckpt.parent().expect("in a directory");
    for stale in std::fs::read_dir(dir).unwrap() {
        std::fs::remove_file(stale.unwrap().path()).unwrap();
    }
    std::fs::write(wal::wal_path(ckpt), bytes).unwrap();
    let got = wal::recover(ckpt, "dct", 0xFEED).unwrap().records;
    assert!(got.len() <= committed.len() && got == committed[..got.len()], "{got:?}");
    if wal::wal_path(ckpt).exists() {
        let again = wal::recover(ckpt, "dct", 0xFEED).unwrap();
        assert_eq!((again.records, again.torn_tail), (got, 0));
    }
}

#[test]
fn a_damaged_journal_recovers_exactly_a_prefix() {
    let dir = std::env::temp_dir().join("mbavf-parser-fuzz-wal");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c.json");
    let committed: Vec<SingleBitRecord> = frames()
        .iter()
        .map(|f| checkpoint::parse_record(&json::parse(f).unwrap(), 0).unwrap())
        .collect();
    let mut writer = wal::WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
    writer.append_all(&committed[..1]).unwrap();
    writer.append_all(&committed[1..]).unwrap();
    drop(writer);
    let intact = std::fs::read(wal::wal_path(&ckpt)).unwrap();
    assert_recovers_a_prefix(&ckpt, &intact, &committed);

    let mut rng = SplitMix64::new(SEED);
    for _ in 0..FLIPS {
        let cut = rng.below(intact.len() as u64) as usize;
        assert_recovers_a_prefix(&ckpt, &intact[..cut], &committed);
        let mut flipped = intact.clone();
        let at = rng.below(intact.len() as u64) as usize;
        flipped[at] ^= 1 + rng.below(255) as u8;
        assert_recovers_a_prefix(&ckpt, &flipped, &committed);
    }
    // Edit each frame's length prefix.
    let mut offset = 0;
    while offset < intact.len() {
        let len = u32::from_be_bytes(intact[offset..offset + 4].try_into().unwrap());
        for claim in [len - 1, len + 1, 0, MAX_FRAME as u32 + 1, u32::MAX] {
            let mut edited = intact.clone();
            edited[offset..offset + 4].copy_from_slice(&claim.to_be_bytes());
            assert_recovers_a_prefix(&ckpt, &edited, &committed);
        }
        offset += 8 + len as usize;
    }
    std::fs::remove_dir_all(&dir).ok();
}
