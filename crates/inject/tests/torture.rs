//! Durability torture: checkpoint and repro-bundle loading must survive
//! arbitrary on-disk damage — every possible truncation length and every
//! single-byte corruption of a valid file — without panicking; the campaign
//! engine must quarantine damage and carry on; and the supervisor must
//! survive worker daemons that abort, get SIGKILLed, or tear a frame
//! mid-record.
//!
//! This test runs with `harness = false` and a hand-rolled main: process
//! isolation re-executes the current binary with the hidden `__serve` argv
//! as local worker daemons, and libtest's own main would not understand it.
//! Our main dispatches `__serve` to [`mbavf_inject::serve_main`] before
//! anything else, making re-execution safe. The TCP tests spawn the same
//! daemons themselves on loopback ephemeral ports and point the supervisor
//! at them.

use mbavf_core::error::{BundleError, CheckpointError};
use mbavf_inject::campaign::{CampaignConfig, Outcome, OutcomeKind};
use mbavf_inject::runner::{quarantine_corrupt, quarantine_path};
use mbavf_inject::supervisor::{default_poison_path, load_poison};
use mbavf_inject::{
    bundle, checkpoint, run_campaign, run_supervised, serve_main, AuditPolicy, CancelToken,
    RunnerConfig, SupervisorConfig, TransportKind,
};
use mbavf_workloads::by_name;
use std::io::{BufRead as _, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("__serve") {
        std::process::exit(serve_main(&args[2..]));
    }
    let tests: &[(&str, fn())] = &[
        ("checkpoint_load_never_panics_under_damage", checkpoint_load_never_panics_under_damage),
        ("bundle_load_never_panics_under_damage", bundle_load_never_panics_under_damage),
        (
            "quarantine_preserves_every_corpse_and_degrades",
            quarantine_preserves_every_corpse_and_degrades,
        ),
        (
            "kill_resume_with_mid_run_corruption_converges",
            kill_resume_with_mid_run_corruption_converges,
        ),
        (
            "wal_crash_at_every_boundary_resumes_byte_identical",
            wal_crash_at_every_boundary_resumes_byte_identical,
        ),
        (
            "wal_torn_group_rolls_back_to_the_group_boundary",
            wal_torn_group_rolls_back_to_the_group_boundary,
        ),
        (
            "chaos_campaign_checkpoint_matches_fault_free",
            chaos_campaign_checkpoint_matches_fault_free,
        ),
        ("chaos_group_commits_match_fault_free", chaos_group_commits_match_fault_free),
        (
            "process_isolation_matches_thread_mode_bit_exact",
            process_isolation_matches_thread_mode_bit_exact,
        ),
        ("abort_drill_poisons_and_resumes_clean", abort_drill_poisons_and_resumes_clean),
        ("sigkill_mid_shard_recovers_bit_exact", sigkill_mid_shard_recovers_bit_exact),
        ("process_torn_frame_recovers_bit_exact", process_torn_frame_recovers_bit_exact),
        ("process_kill_resume_converges_cross_mode", process_kill_resume_converges_cross_mode),
        (
            "local_daemon_exits_when_its_supervisor_hangs_up",
            local_daemon_exits_when_its_supervisor_hangs_up,
        ),
        ("tcp_loopback_matches_thread_mode_bit_exact", tcp_loopback_matches_thread_mode_bit_exact),
        ("tcp_endpoint_sigkill_fails_over_bit_exact", tcp_endpoint_sigkill_fails_over_bit_exact),
        ("tcp_net_drill_replays_without_double_count", tcp_net_drill_replays_without_double_count),
        ("tcp_lease_expiry_poisons_stalled_trial", tcp_lease_expiry_poisons_stalled_trial),
        ("tcp_unreachable_degrades_to_process_mode", tcp_unreachable_degrades_to_process_mode),
        (
            "tcp_byzantine_liar_is_quarantined_and_bit_exact",
            tcp_byzantine_liar_is_quarantined_and_bit_exact,
        ),
    ];
    let filter = args.iter().skip(1).find(|a| !a.starts_with('-')).cloned();
    let mut ran = 0usize;
    let mut failed = 0usize;
    for (name, f) in tests {
        if let Some(fil) = &filter {
            if !name.contains(fil.as_str()) {
                continue;
            }
        }
        ran += 1;
        println!("test {name} ...");
        match std::panic::catch_unwind(f) {
            Ok(()) => println!("test {name} ... ok"),
            Err(_) => {
                println!("test {name} ... FAILED");
                failed += 1;
            }
        }
    }
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    println!("\ntest result: {verdict}. {} passed; {failed} failed", ran - failed);
    if failed > 0 {
        std::process::exit(1);
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mbavf-torture-{tag}"));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run a tiny campaign that emits both a checkpoint and repro bundles,
/// returning (checkpoint path, bundle paths).
fn seed_artifacts(dir: &Path) -> (PathBuf, Vec<PathBuf>) {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };
    let ckpt = dir.join("camp.json");
    let runner = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };
    let report = run_campaign(&w, &cfg, &runner).unwrap();
    assert!(!report.bundles.is_empty(), "seed campaign must emit at least one bundle");
    (ckpt, report.bundles)
}

/// A supervisor tuned for tests: tiny shards (so several workers get work)
/// and millisecond backoff.
fn test_supervisor(workers: usize, shard_size: usize) -> SupervisorConfig {
    SupervisorConfig {
        workers,
        shard_size,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..SupervisorConfig::default()
    }
}

/// Every prefix truncation and every single-byte corruption of a valid
/// checkpoint must load as `Ok` or a typed error — never a panic. The
/// damaged loads are run under `catch_unwind` so a regression reports the
/// offending byte rather than aborting the suite.
fn checkpoint_load_never_panics_under_damage() {
    let dir = tmpdir("ckpt");
    let (ckpt, _) = seed_artifacts(&dir);
    let intact = std::fs::read(&ckpt).unwrap();
    assert!(checkpoint::load(&ckpt).is_ok());

    let damaged = dir.join("damaged.json");
    for cut in 0..intact.len() {
        std::fs::write(&damaged, &intact[..cut]).unwrap();
        let got = std::panic::catch_unwind(|| checkpoint::load(&damaged).map(drop));
        match got {
            Ok(_) => {}
            Err(_) => panic!("checkpoint load panicked on truncation to {cut} bytes"),
        }
    }
    for pos in 0..intact.len() {
        let mut bytes = intact.clone();
        bytes[pos] ^= 0x55;
        std::fs::write(&damaged, &bytes).unwrap();
        let got = std::panic::catch_unwind(|| checkpoint::load(&damaged).map(drop));
        match got {
            Ok(
                Ok(_)
                | Err(
                    CheckpointError::Malformed { .. }
                    | CheckpointError::VersionMismatch { .. }
                    | CheckpointError::Io { .. },
                ),
            ) => {}
            Ok(Err(other)) => panic!("unexpected error class at byte {pos}: {other}"),
            Err(_) => panic!("checkpoint load panicked on corrupt byte {pos}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same torture applied to repro bundles: `bundle::load` must return
/// `Ok` or a typed [`BundleError`] on every prefix and every flipped byte.
fn bundle_load_never_panics_under_damage() {
    let dir = tmpdir("bundle");
    let (_, bundles) = seed_artifacts(&dir);
    let intact = std::fs::read(&bundles[0]).unwrap();
    assert!(bundle::load(&bundles[0]).is_ok());

    let damaged = dir.join("damaged.repro.json");
    for cut in 0..intact.len() {
        std::fs::write(&damaged, &intact[..cut]).unwrap();
        if std::panic::catch_unwind(|| bundle::load(&damaged).map(drop)).is_err() {
            panic!("bundle load panicked on truncation to {cut} bytes");
        }
    }
    for pos in 0..intact.len() {
        let mut bytes = intact.clone();
        bytes[pos] ^= 0x55;
        std::fs::write(&damaged, &bytes).unwrap();
        match std::panic::catch_unwind(|| bundle::load(&damaged).map(drop)) {
            Ok(
                Ok(())
                | Err(
                    BundleError::Malformed { .. }
                    | BundleError::VersionMismatch { .. }
                    | BundleError::SamplerMismatch { .. }
                    | BundleError::SiteOutOfRange { .. }
                    | BundleError::Io { .. },
                ),
            ) => {}
            Ok(Err(other)) => panic!("unexpected error class at byte {pos}: {other}"),
            Err(_) => panic!("bundle load panicked on corrupt byte {pos}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Quarantine never clobbers earlier evidence: a second corruption of the
/// same checkpoint moves to `.corrupt.1` while `.corrupt` keeps the first
/// damaged file, and a vanished path degrades to `None` instead of failing.
fn quarantine_preserves_every_corpse_and_degrades() {
    let dir = tmpdir("quarantine");
    let path = dir.join("camp.json");

    std::fs::write(&path, b"first corpse").unwrap();
    let q0 = quarantine_corrupt(&path).expect("first quarantine succeeds");
    assert_eq!(q0, quarantine_path(&path));
    assert_eq!(std::fs::read(&q0).unwrap(), b"first corpse");

    std::fs::write(&path, b"second corpse").unwrap();
    let q1 = quarantine_corrupt(&path).expect("second quarantine succeeds");
    assert_ne!(q0, q1, "second quarantine must not clobber the first");
    assert!(q1.to_string_lossy().ends_with(".corrupt.1"), "got {}", q1.display());
    assert_eq!(std::fs::read(&q0).unwrap(), b"first corpse", "first corpse clobbered");
    assert_eq!(std::fs::read(&q1).unwrap(), b"second corpse");

    std::fs::write(&path, b"third corpse").unwrap();
    let q2 = quarantine_corrupt(&path).expect("third quarantine succeeds");
    assert!(q2.to_string_lossy().ends_with(".corrupt.2"), "got {}", q2.display());

    // A path that cannot be renamed (already gone) degrades to None.
    assert!(quarantine_corrupt(&dir.join("never-existed.json")).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-resume loop with damage injected between rounds: whatever
/// prefix the checkpoint holds, a resumed campaign ends with the exact
/// record set of an uninterrupted run, and the bundle set matches too.
fn kill_resume_with_mid_run_corruption_converges() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let clean_dir = tmpdir("kr-clean");
    let clean = run_campaign(
        &w,
        &cfg,
        &RunnerConfig { repro_dir: Some(clean_dir.join("repro")), ..RunnerConfig::serial() },
    )
    .unwrap();

    let dir = tmpdir("kr");
    let ckpt = dir.join("camp.json");
    let runner = |stop: Option<usize>| RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 2,
        cancel: stop.map_or_else(CancelToken::new, CancelToken::limited),
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };

    // Kill after a few trials, then corrupt the tail of the checkpoint.
    run_campaign(&w, &cfg, &runner(Some(5))).unwrap();
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len().saturating_sub(4)]).unwrap();

    // Kill again mid-flight, then run to completion: the quarantine path
    // plus per-trial determinism must still converge on the clean summary.
    run_campaign(&w, &cfg, &runner(Some(9))).unwrap();
    let finished = run_campaign(&w, &cfg, &runner(None)).unwrap();
    assert!(finished.complete);
    assert_eq!(finished.summary, clean.summary, "records diverged after corruption + resume");

    // Record-for-record identity on disk, and identical bundle bytes.
    let reloaded = checkpoint::load(&ckpt).unwrap();
    assert_eq!(reloaded.records, clean.summary.records);
    assert_eq!(finished.bundles.len(), clean.bundles.len());
    for (a, b) in finished.bundles.iter().zip(&clean.bundles) {
        assert_eq!(a.file_name(), b.file_name());
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap(), "{}", a.display());
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// Crash-at-every-write-boundary drill for the write-ahead trial journal.
/// The durable cycle is append → compact (temp write, rename) → journal
/// reset; a crash can land between any two of those steps. Each iteration
/// fabricates the exact on-disk state such a crash leaves behind — snapshot
/// holding the first `m` records, journal holding the next `j` frames,
/// plus torn-tail, stale-temp-file, and compacted-but-not-reset
/// (duplicate-frame) variants — and the resumed campaign must always end
/// with a checkpoint byte-identical to an uninterrupted run's.
fn wal_crash_at_every_boundary_resumes_byte_identical() {
    use mbavf_inject::checkpoint::wal;

    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let fingerprint = checkpoint::config_fingerprint(w.name, &cfg);

    let ref_dir = tmpdir("walb-ref");
    let ref_ckpt = ref_dir.join("camp.json");
    run_campaign(
        &w,
        &cfg,
        &RunnerConfig { checkpoint: Some(ref_ckpt.clone()), ..RunnerConfig::serial() },
    )
    .unwrap();
    let reference = std::fs::read(&ref_ckpt).unwrap();
    let all = checkpoint::load(&ref_ckpt).unwrap().records;

    let dir = tmpdir("walb");
    let ckpt = dir.join("camp.json");
    let wal_file = wal::wal_path(&ckpt);
    let resume = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 4,
        ..RunnerConfig::serial()
    };

    // Snapshot of the first `m` records + journal frames for the next `j`.
    let fabricate = |m: usize, j: usize| {
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&wal_file).ok();
        if m > 0 {
            checkpoint::save(&ckpt, w.name, fingerprint, cfg.mode_bits, &all[..m]).unwrap();
        }
        let mut writer = wal::WalWriter::create(&ckpt, w.name, fingerprint, cfg.mode_bits)
            .expect("journal create");
        for r in &all[m..m + j] {
            writer.append(r).expect("journal append");
        }
    };
    let check = |label: &str| {
        let report = run_campaign(&w, &cfg, &resume).unwrap();
        assert!(report.complete, "{label}");
        assert_eq!(
            std::fs::read(&ckpt).unwrap(),
            reference,
            "{label}: resumed checkpoint must be byte-identical to the uninterrupted run"
        );
        assert!(!wal_file.exists(), "{label}: a finished campaign must remove its journal");
    };

    // Crash between trial appends, for every journal length — including
    // j = 0 (crash right after a reset) and m = 0 (crash before the first
    // compaction ever succeeded, the journal alone carrying the records).
    for j in 0..=6 {
        fabricate(6, j);
        check(&format!("append boundary m=6 j={j}"));
    }
    fabricate(0, 5);
    check("journal-only state (crash before first snapshot)");

    // Crash mid-append: a torn partial frame past the committed tail.
    fabricate(6, 3);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_file).unwrap();
        f.write_all(&[0, 0, 0, 96, 0xde, 0xad, 0xbe]).unwrap();
    }
    check("torn frame past the committed tail");

    // Crash mid-compaction: the snapshot's temp file written but not yet
    // renamed. Resume must ignore the temp and replace it.
    fabricate(6, 3);
    std::fs::write(ckpt.with_extension("tmp"), b"{ half a snapsh").unwrap();
    check("stale snapshot temp file");

    // Crash between compaction's rename and the journal reset: the
    // snapshot already holds the journaled records, so every frame must
    // replay as an idempotent-merge duplicate, not a double-count.
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&wal_file).ok();
    checkpoint::save(&ckpt, w.name, fingerprint, cfg.mode_bits, &all[..9]).unwrap();
    {
        let mut writer = wal::WalWriter::create(&ckpt, w.name, fingerprint, cfg.mode_bits)
            .expect("journal create");
        for r in &all[6..9] {
            writer.append(r).expect("journal append");
        }
    }
    check("compacted but journal not yet reset (duplicate frames)");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// Uninstalls the global chaos engine on every exit path, including panics,
/// so a failing chaos test cannot leak faults into the rest of the suite.
struct ClearChaos;

impl Drop for ClearChaos {
    fn drop(&mut self) {
        mbavf_inject::chaos::clear();
    }
}

/// A journal group write that fails under chaos — torn write, full disk,
/// failed fsync — rolls the file back to the previous group boundary, and
/// the writer keeps appending once the faults stop: recovery returns
/// exactly the groups that were acknowledged.
fn wal_torn_group_rolls_back_to_the_group_boundary() {
    use mbavf_inject::campaign::{FaultSite, SingleBitRecord};
    use mbavf_inject::checkpoint::wal;

    let rec = |trial: u64| SingleBitRecord {
        trial,
        site: FaultSite { wg: 0, after_retired: trial * 5, reg: 1, lane: 2, bit: 3 },
        outcome: Outcome::Sdc,
        read_before_overwrite: false,
    };
    let dir = tmpdir("wal-torn-group");
    let ckpt = dir.join("c.json");
    let path = wal::wal_path(&ckpt);
    let mut w = wal::WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
    let mut committed = Vec::new();
    let mut torn_failures = 0;
    {
        // Every write and fsync draws a fault and only stalls proceed, so
        // about half of the groups exhaust their retries.
        let _guard = ClearChaos;
        mbavf_inject::chaos::install(mbavf_inject::ChaosSpec { seed: 0x7042, rate: 1.0 });
        for g in 0..16u64 {
            let group: Vec<SingleBitRecord> = (g * 3..g * 3 + 3).map(rec).collect();
            let boundary = std::fs::metadata(&path).unwrap().len();
            match w.append_all(&group) {
                Ok(()) => committed.extend(group),
                Err(CheckpointError::Io { detail, .. }) => {
                    torn_failures += usize::from(detail.contains("torn write"));
                    let len = std::fs::metadata(&path).unwrap().len();
                    assert_eq!(len, boundary, "group {g} must roll back: {detail}");
                }
                Err(e) => panic!("group {g}: unexpected error {e}"),
            }
        }
    }
    assert!(torn_failures > 0, "the schedule must end some group on a torn write");
    assert!(!committed.is_empty(), "the schedule must let some group through");
    w.append_all(&[rec(100), rec(101)]).unwrap();
    committed.extend([rec(100), rec(101)]);
    drop(w);
    let got = wal::recover(&ckpt, "dct", 0xFEED).unwrap();
    assert_eq!(got.records, committed);
    assert_eq!(got.torn_tail, 0);
    assert!(got.quarantined.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end chaos: with the deterministic fault engine injecting into
/// every durable write the harness makes, a campaign still completes, no
/// committed record is lost, and the final checkpoint is byte-identical to
/// a fault-free run's. Runs in this sequential binary because the chaos
/// engine is process-global — installing it under libtest's parallel
/// harness would inject faults into unrelated tests.
fn chaos_campaign_checkpoint_matches_fault_free() {
    assert_chaos_run_matches_fault_free("chaos", 60, RunnerConfig::serial());
}

/// The same contract for group commits: two threads committing width-8
/// lockstep groups, split at every fourth completion by the checkpoint
/// cadence, so torn journal writes and failed fsyncs land mid-group.
fn chaos_group_commits_match_fault_free() {
    assert_chaos_run_matches_fault_free(
        "chaos-groups",
        96,
        RunnerConfig { threads: 2, batch_width: 8, ..RunnerConfig::default() },
    );
}

/// Run `injections` fast_walsh trials under `runner` (checkpointing every
/// 4 completions) with a 10% chaos engine installed, and compare the final
/// checkpoint, records, and repro bundles with a fault-free serial run's.
fn assert_chaos_run_matches_fault_free(tag: &str, injections: usize, runner: RunnerConfig) {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections, ..CampaignConfig::default() };

    let clean_dir = tmpdir(&format!("{tag}-clean"));
    let clean_ckpt = clean_dir.join("camp.json");
    let clean = run_campaign(
        &w,
        &cfg,
        &RunnerConfig {
            checkpoint: Some(clean_ckpt.clone()),
            repro_dir: Some(clean_dir.join("repro")),
            ..RunnerConfig::serial()
        },
    )
    .unwrap();
    let reference = std::fs::read(&clean_ckpt).unwrap();

    let dir = tmpdir(tag);
    let ckpt = dir.join("camp.json");
    let runner = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 4,
        repro_dir: Some(dir.join("repro")),
        ..runner
    };
    let _guard = ClearChaos;
    let engine =
        mbavf_inject::chaos::install(mbavf_inject::ChaosSpec { seed: 0xC4A0_5EED, rate: 0.1 });
    let report = run_campaign(&w, &cfg, &runner).unwrap();
    mbavf_inject::chaos::clear();

    assert!(report.complete);
    assert!(engine.injected() > 0, "a 10% chaos rate must actually inject faults");
    assert_eq!(
        std::fs::read(&ckpt).unwrap(),
        reference,
        "chaos run's final checkpoint must be byte-identical to the fault-free run's"
    );
    assert_eq!(report.summary.records, clean.summary.records, "no committed record may be lost");
    assert_eq!(report.bundles.len(), clean.bundles.len());
    for (a, b) in report.bundles.iter().zip(&clean.bundles) {
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap(), "{}", a.display());
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// Real local worker daemons (re-executing this binary through `__serve`)
/// must produce records bit-identical to the in-process thread engine, at
/// any worker count and shard size — including crash outcomes, whose
/// reasons cross the frame protocol as escaped JSON.
fn process_isolation_matches_thread_mode_bit_exact() {
    let w = by_name("histogram").expect("registered");
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        injections: 40,
        wrap_oob: false,
        ..CampaignConfig::default()
    };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    assert!(
        thread.summary.count(OutcomeKind::Crash) > 0,
        "campaign must include crash outcomes to exercise reason transport"
    );
    for (workers, shard_size) in [(1usize, 8usize), (2, 8), (3, 64)] {
        let sup = test_supervisor(workers, shard_size);
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        assert!(report.complete, "workers={workers} shard={shard_size}");
        assert!(report.poisoned.is_empty(), "workers={workers} shard={shard_size}");
        assert_eq!(report.summary, thread.summary, "workers={workers} shard={shard_size}");
        assert!(report.trial_latency.is_some(), "worker latencies must reach the report");
    }
}

/// The abort drill end-to-end: a daemon that dies (`die@T`, every attempt)
/// on a marker trial is retried, bisected, and the marker poisoned — the
/// campaign completes with N−1 trials, the sidecar and a repro bundle name
/// exactly the marker, and a later resume leaves the quarantine intact.
fn abort_drill_poisons_and_resumes_clean() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let dir = tmpdir("abort-drill");
    let ckpt = dir.join("camp.json");
    let runner = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 4,
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };
    let marker = 5u64;
    let mut sup = test_supervisor(2, 4);
    sup.worker_env = vec![("MBAVF_DRILL".into(), format!("die@{marker}"))];

    let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
    assert!(report.complete);
    assert_eq!(report.newly_run, 11);
    assert_eq!(report.poisoned.len(), 1, "poisoned: {:?}", report.poisoned);
    assert_eq!(report.poisoned[0].trial, marker);
    assert!(report.summary.records.iter().all(|r| r.trial != marker));

    // The sidecar names exactly the drilled trial.
    let sidecar = load_poison(&default_poison_path(&ckpt)).unwrap();
    assert_eq!(sidecar.entries.len(), 1);
    assert_eq!(sidecar.entries[0].trial, marker);
    assert_eq!(sidecar.config_hash, checkpoint::config_fingerprint(w.name, &cfg));

    // The poisoned trial has a standard repro bundle, flagged as poison.
    let fp = checkpoint::config_fingerprint(w.name, &cfg);
    let bpath = bundle::bundle_path(&dir.join("repro"), w.name, fp, marker, OutcomeKind::Crash);
    assert!(bpath.exists(), "missing poison bundle {}", bpath.display());
    let b = bundle::load(&bpath).unwrap();
    assert!(
        matches!(&b.outcome, Outcome::Crash { reason } if reason.starts_with("poison: ")),
        "{:?}",
        b.outcome
    );

    // Resume without the drill: the quarantine holds (the trial is *not*
    // retried just because the environment recovered), nothing re-runs, and
    // the summary is unchanged.
    let resume = run_supervised(&w, &cfg, &runner, &test_supervisor(1, 4)).unwrap();
    assert!(resume.complete);
    assert_eq!(resume.newly_run, 0);
    assert_eq!(resume.resumed, 11);
    assert_eq!(resume.poisoned, report.poisoned);
    assert_eq!(resume.summary, report.summary);
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL mid-shard: the daemon kills itself (simulating the OOM killer)
/// before the marker trial on its first attempt only. The respawn must pick
/// up exactly the remaining trials and converge bit-exact with no poison.
fn sigkill_mid_shard_recovers_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let mut sup = test_supervisor(2, 4);
    sup.worker_env = vec![("MBAVF_DRILL".into(), "die@6/once".into())];
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "kill drill must recover, not poison");
    assert_eq!(report.summary, thread.summary);
}

/// A torn frame from a local daemon: on its first attempt the daemon
/// replays its lease's records as duplicates, then severs the connection
/// inside a length-prefixed frame (`MBAVF_DRILL=sever@T/once`). The supervisor must
/// drop the duplicates and the partial frame, respawn the daemon on the
/// remaining trials, and converge bit-exact with no poison.
fn process_torn_frame_recovers_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let mut sup = test_supervisor(2, 4);
    sup.worker_env = vec![("MBAVF_DRILL".into(), "sever@2/once".into())];
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "a torn frame must recover, not poison");
    assert_eq!(report.summary, thread.summary);
    assert_eq!(report.newly_run, 12, "replayed records must not inflate the count");
}

/// A process-isolated campaign interrupted by a trial budget must resume —
/// in *thread* mode — into the identical final checkpoint and summary:
/// isolation is an execution property, never a record property.
fn process_kill_resume_converges_cross_mode() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 16, ..CampaignConfig::default() };
    let clean = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let dir = tmpdir("proc-resume");
    let ckpt = dir.join("camp.json");
    let runner = |stop: Option<usize>| RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 2,
        cancel: stop.map_or_else(CancelToken::new, CancelToken::limited),
        ..RunnerConfig::serial()
    };
    let first = run_supervised(&w, &cfg, &runner(Some(6)), &test_supervisor(2, 4)).unwrap();
    assert!(!first.complete);
    assert_eq!(first.newly_run, 6);

    let finished = run_campaign(&w, &cfg, &runner(None)).unwrap();
    assert!(finished.complete);
    assert_eq!(finished.resumed, 6);
    assert_eq!(finished.summary, clean.summary, "process-then-thread resume diverged");
    let reloaded = checkpoint::load(&ckpt).unwrap();
    assert_eq!(reloaded.records, clean.summary.records);
    std::fs::remove_dir_all(&dir).ok();
}

/// Write one length-prefixed protocol frame.
fn send_frame(stream: &mut std::net::TcpStream, payload: &str) {
    stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
}

/// The lifecycle guarantee that keeps a SIGKILLed supervisor from leaking
/// its local daemons: a daemon spawned the way process isolation spawns it
/// serves its one supervisor connection and, once that connection closes
/// mid-lease, exits by itself — no kill needed.
fn local_daemon_exits_when_its_supervisor_hangs_up() {
    let mut daemon = Daemon::spawn_with(&["--exit-with-supervisor"], &[]);
    let mut stream = std::net::TcpStream::connect(&daemon.addr).unwrap();
    send_frame(
        &mut stream,
        "{\"mbavf_hello\": 2, \"workload\": \"fast_walsh\", \"seed\": 7, \
         \"scale\": \"test\", \"hang_factor\": 8, \"wrap_oob\": true, \"mode_bits\": 1}",
    );
    send_frame(&mut stream, "{\"trials\": \"0-999\", \"attempt\": 0}");
    // Wait for the handshake: the daemon is now mid-lease.
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut handshake = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut handshake).unwrap();
    assert!(String::from_utf8_lossy(&handshake).contains("mbavf_worker"));
    drop(stream);

    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = daemon.child.try_wait().unwrap() {
            break status;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "daemon outlived its supervisor");
        std::thread::sleep(Duration::from_millis(20));
    };
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt as _;
        assert_eq!(status.signal(), None, "the daemon must exit by itself: {status}");
    }
    #[cfg(not(unix))]
    let _ = status;
}

// ---------------------------------------------------------------------------
// TCP transport torture
// ---------------------------------------------------------------------------

/// A real `__serve` worker daemon on a loopback ephemeral port, killed on
/// drop. The bound address is parsed from the daemon's single stdout
/// announcement line.
struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Daemon {
    fn spawn(env: &[(&str, &str)]) -> Daemon {
        Daemon::spawn_with(&[], env)
    }

    fn spawn_with(extra: &[&str], env: &[(&str, &str)]) -> Daemon {
        let exe = std::env::current_exe().expect("current exe");
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["__serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn __serve daemon");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("daemon announcement");
        // {"mbavf_serve": 1, "listen": "127.0.0.1:PORT"}
        let addr = line
            .split("\"listen\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("unparseable daemon announcement: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A TCP supervisor config tuned for tests: short lease, fast backoff.
fn tcp_supervisor(endpoints: Vec<String>, shard_size: usize) -> SupervisorConfig {
    SupervisorConfig {
        shard_size,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        transport: TransportKind::Tcp { endpoints },
        lease_timeout: Duration::from_secs(30),
        ..SupervisorConfig::default()
    }
}

/// A campaign leased to two loopback daemons must land the exact thread-mode
/// summary AND write a byte-identical checkpoint — the tentpole invariant:
/// transport is an execution property, never a record property.
fn tcp_loopback_matches_thread_mode_bit_exact() {
    let w = by_name("histogram").expect("registered");
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        injections: 40,
        wrap_oob: false,
        ..CampaignConfig::default()
    };
    let dir = tmpdir("tcp-loopback");
    let thread_ckpt = dir.join("thread.json");
    let tcp_ckpt = dir.join("tcp.json");
    let runner = |ckpt: &Path| RunnerConfig {
        checkpoint: Some(ckpt.to_path_buf()),
        checkpoint_every: 8,
        ..RunnerConfig::serial()
    };
    let thread = run_campaign(&w, &cfg, &runner(&thread_ckpt)).unwrap();
    assert!(
        thread.summary.count(OutcomeKind::Crash) > 0,
        "campaign must include crash outcomes to exercise reason framing"
    );

    let (a, b) = (Daemon::spawn(&[]), Daemon::spawn(&[]));
    let sup = tcp_supervisor(vec![a.addr.clone(), b.addr.clone()], 8);
    let report = run_supervised(&w, &cfg, &runner(&tcp_ckpt), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "{:?}", report.poisoned);
    assert_eq!(report.summary, thread.summary);
    assert!(report.trial_latency.is_some(), "remote latencies must reach the report");
    assert_eq!(
        std::fs::read(&tcp_ckpt).unwrap(),
        std::fs::read(&thread_ckpt).unwrap(),
        "tcp checkpoint must be byte-identical to thread mode"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL an entire worker daemon mid-shard (the `die@T` drill fires on
/// every attempt, so the killed endpoint can never serve the marker). The
/// supervisor must re-offer the dead endpoint's shard — failure history
/// intact — to the surviving daemon and converge bit-exact with no poison.
fn tcp_endpoint_sigkill_fails_over_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let doomed = Daemon::spawn(&[("MBAVF_DRILL", "die@2")]);
    let survivor = Daemon::spawn(&[]);
    let sup = tcp_supervisor(vec![doomed.addr.clone(), survivor.addr.clone()], 8);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "failover must recover, not poison: {:?}", report.poisoned);
    assert_eq!(report.summary, thread.summary);
}

/// The hostile-network drill: the daemon replays every record of the lease
/// as duplicates, then severs the connection inside a frame's length
/// prefix. The idempotent merge must drop the replays without recounting,
/// the torn frame must not panic the supervisor, and the reconnect must
/// resume from the first missing trial — honest completion, bit-exact.
fn tcp_net_drill_replays_without_double_count() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let daemon = Daemon::spawn(&[("MBAVF_DRILL", "sever@5/once")]);
    let sup = tcp_supervisor(vec![daemon.addr.clone()], 8);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "replays must recover, not poison: {:?}", report.poisoned);
    assert_eq!(report.summary, thread.summary);
    assert_eq!(report.newly_run, 24, "duplicated records must not inflate the count");
}

/// A daemon whose executor freezes on the marker trial with its connection
/// still open: the progress-gated lease must expire anyway, and since
/// the stall recurs on every attempt, the marker is eventually poisoned —
/// with the lease named as the reason — while every other trial completes.
fn tcp_lease_expiry_poisons_stalled_trial() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let marker = 5u64;
    let daemon = Daemon::spawn(&[("MBAVF_DRILL", &format!("stall@{marker}"))]);
    let mut sup = tcp_supervisor(vec![daemon.addr.clone()], 4);
    sup.lease_timeout = Duration::from_millis(400);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert_eq!(report.newly_run, 11);
    assert_eq!(report.poisoned.len(), 1, "poisoned: {:?}", report.poisoned);
    assert_eq!(report.poisoned[0].trial, marker);
    assert!(
        report.poisoned[0].reason.contains("lease expired"),
        "reason must name the lease: {}",
        report.poisoned[0].reason
    );
    assert!(report.summary.records.iter().all(|r| r.trial != marker));
}

/// No endpoint ever connects (nothing listens on the address): before any
/// record lands, the campaign must degrade to local process isolation and
/// still finish bit-exact — same contract as process→thread degradation.
fn tcp_unreachable_degrades_to_process_mode() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    // Reserve a loopback port and close it, so the dial is refused fast.
    let dead_addr = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().to_string()
    };
    let mut sup = tcp_supervisor(vec![dead_addr], 4);
    sup.lease_timeout = Duration::from_secs(2);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty());
    assert_eq!(report.summary, thread.summary);
}

/// The Byzantine drill: one honest daemon, one daemon that computes every
/// trial correctly and then lies about the verdict (`MBAVF_DRILL=lie@9:1` at
/// rate 1.0 flips every outcome it reports). With `--audit 1.0` every
/// incoming record is re-executed locally before commit, so the liar's
/// first record diverges, the trust ledger quarantines the endpoint
/// (one-strike default), the local truth is committed in the lie's place,
/// and the liar's shards hand over to the honest daemon. The campaign must
/// finish with records — and a checkpoint — byte-identical to fault-free
/// thread mode, and must name exactly the lying endpoint.
fn tcp_byzantine_liar_is_quarantined_and_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let dir = tmpdir("tcp-byzantine");
    let thread_ckpt = dir.join("thread.json");
    let tcp_ckpt = dir.join("tcp.json");
    let runner = |ckpt: &Path| RunnerConfig {
        checkpoint: Some(ckpt.to_path_buf()),
        checkpoint_every: 8,
        ..RunnerConfig::serial()
    };
    let thread = run_campaign(&w, &cfg, &runner(&thread_ckpt)).unwrap();

    let honest = Daemon::spawn(&[]);
    let liar = Daemon::spawn(&[("MBAVF_DRILL", "lie@9:1")]);
    let mut sup = tcp_supervisor(vec![honest.addr.clone(), liar.addr.clone()], 8);
    sup.audit = Some(AuditPolicy::new(1.0, 0));
    let report = run_supervised(&w, &cfg, &runner(&tcp_ckpt), &sup).unwrap();

    assert!(report.complete);
    assert!(
        report.poisoned.is_empty(),
        "lies must be corrected, not poisoned: {:?}",
        report.poisoned
    );
    // The liar was caught on its first committed record and named; the
    // honest endpoint kept its good name.
    assert_eq!(
        report.summary.quarantined_endpoints,
        vec![liar.addr.clone()],
        "exactly the lying endpoint must be quarantined"
    );
    assert!(report.summary.audit_divergences >= 1, "the audit must have caught at least one lie");
    // With --audit 1.0 every newly committed record was audited, and the
    // audit sample is chosen by (seed, trial) alone — worker-count-invariant.
    assert_eq!(report.summary.audited, 24);
    // Every lie was replaced by the local truth before commit: the records
    // and the checkpoint are exactly thread mode's.
    assert_eq!(report.summary.records, thread.summary.records);
    assert_eq!(
        std::fs::read(&tcp_ckpt).unwrap(),
        std::fs::read(&thread_ckpt).unwrap(),
        "audited checkpoint must be byte-identical to thread mode"
    );
    std::fs::remove_dir_all(&dir).ok();
}
