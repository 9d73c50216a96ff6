//! Standalone fault-injection campaign driver over the resilient runner:
//! crash-isolated trials, deterministic multi-threading, checkpoint/resume,
//! confidence intervals, and adaptive trial sizing.
//!
//! ```text
//! campaign --workload dct [--injections 5000] [--seed 0xACE5]
//!          [--mode-bits M] [--threads 8] [--batch-width W]
//!          [--checkpoint dct.ckpt.json]
//!          [--checkpoint-every 64] [--max-wall DUR]
//!          [--max-trials-this-run N]
//!          [--scale test|paper] [--no-wrap-oob]
//!          [--hang-multiplier K] [--heartbeat SECS]
//!          [--isolation thread|process|tcp] [--workers N] [--shard-size N]
//!          [--lease-timeout SECS] [--max-retries N] [--backoff-ms MS]
//!          [--max-poison N] [--poison-file FILE]
//!          [--connect HOST:PORT,HOST:PORT,...]
//!          [--confidence 0.95] [--fail-on sdc,hang,crash]
//!          [--repro-dir DIR] [--repro-cap N]
//!          [--chaos SEED:RATE]
//!          [--audit RATE [--max-audit-failures N]]
//!          [--target-ci-halfwidth H [--batch N] [--max-injections N]]
//! campaign --listen HOST:PORT        # worker daemon for --isolation tcp
//! ```
//!
//! Summaries are bit-identical for any `--threads` value, and a killed run
//! restarted with the same `--checkpoint` file picks up where it left off.
//! While the campaign runs, its write-ahead journal (`FILE.wal`) is the
//! only durable record: each thread commits its finished trials in groups
//! of at most `--checkpoint-every` (and at most 32, or `W` at
//! `--batch-width W`) with one fsynced write, so a crash loses at most each
//! thread's open group. The checkpoint document `FILE` itself is written
//! at open when the journal held trials, when a failed append is repaired,
//! and when the run ends, never while trials commit.
//! `--no-wrap-oob` makes wild memory accesses fault instead of wrapping, so
//! corrupted address registers surface as `crash` outcomes. `--mode-bits M`
//! flips `M` contiguous bits per trial (the paper's Mx1 spatial modes).
//!
//! `--batch-width W` runs each thread's trials in lockstep batches of `W`:
//! one decoded golden stream drives every trial that has not yet diverged,
//! and a trial whose state splits from the golden stream is retired onto the
//! sequential single-trial path. Like `--threads`, it is a pure execution
//! knob — records, checkpoints, and repro bundles are bit-identical to
//! `--batch-width 1` — and it currently requires `--isolation thread`.
//!
//! `--hang-multiplier K` (alias: `--hang-factor`) declares a trial hung
//! after `K × golden-instructions` retire in one wavefront. The multiplier
//! is part of the campaign's config fingerprint — it changes which trials
//! classify as hangs, so a checkpoint written under one multiplier refuses
//! to resume under another.
//!
//! `--isolation process` runs trials in `--workers` local worker daemons
//! (this binary re-executed as `campaign __serve` on loopback ephemeral
//! ports), surviving aborts, livelocks, and OOM kills that in-process
//! isolation cannot. Each supervisor handler holds one connection to its
//! daemon; shard ownership is a sliding lease (`--lease-timeout`, default
//! 30s) renewed by progress, so a stuck daemon is SIGKILLed and its shard
//! re-leased from the first missing trial. Dead daemons are respawned with
//! backoff, and a trial that repeatedly kills its daemon is *poisoned* —
//! quarantined to `<checkpoint>.poison.json` (or `--poison-file`) with a
//! repro bundle, and excluded from the rates so the campaign still
//! completes. Non-poison records are bit-identical to thread mode. If no
//! daemon can be started, the campaign degrades to thread isolation with a
//! warning.
//!
//! `--isolation tcp` runs the same protocol against **worker daemons on
//! other machines**: start `campaign --listen 0.0.0.0:7017` on each worker
//! host, then point the supervisor at them with `--connect
//! hostA:7017,hostB:7017`. A severed connection is redialed with backoff,
//! and an endpoint that stays unreachable hands its shard to the surviving
//! endpoints. Records merge idempotently by trial index, so replays and
//! reorderings cannot double-count: non-poison records — and the
//! checkpoint — are bit-identical to thread mode. If no endpoint ever
//! produces a record the campaign degrades to local process isolation with
//! a warning.
//!
//! A heartbeat line (trials done/total, trials/sec, per-kind counts, live
//! workers, ETA) is printed to stderr every `--heartbeat` seconds
//! (default 5; 0 disables), and the final summary reports p50/p99 trial
//! latency.
//!
//! Passing `--target-ci-halfwidth` switches to **adaptive sizing**: trial
//! batches are scheduled (starting at `--batch`, doubling) until the SDC
//! rate's interval halfwidth at `--confidence` reaches the target or the
//! `--max-injections` cap. The stage schedule is deterministic, so adaptive
//! runs stay checkpoint/resume-compatible and thread-count-invariant.
//!
//! With `--repro-dir`, every SDC/hang/crash trial (capped per outcome kind
//! by `--repro-cap`, duplicate crash reasons collapsed) is written as a
//! self-contained repro bundle that the `replay` binary re-executes
//! bit-exactly — see `replay --help` for the triage workflow.
//!
//! `--chaos SEED:RATE` turns the harness's own I/O against itself: every
//! durable write (checkpoint, trial journal, repro bundle, poison sidecar)
//! and every transport frame draws from a deterministic, seeded fault
//! schedule injecting ENOSPC, EIO, torn writes, failed renames, failed
//! fsyncs, and stalls at the given per-operation rate. Transient faults are
//! retried with backoff; a journal append that still fails is repaired by
//! compacting every committed trial into the checkpoint document and
//! starting a fresh journal, and repeated failure degrades to
//! checkpointing-disabled mode (counted as `durable-write failures`) instead of
//! killing the campaign; committed trial records are never lost. The trial records
//! themselves are untouched — a chaos run's final checkpoint is
//! byte-identical to a fault-free run's.
//!
//! `--audit RATE` (process/tcp isolation only) treats workers as untrusted:
//! a deterministic sample of incoming records — chosen by `(seed, trial)`
//! alone, so the same trials are audited regardless of worker count or
//! endpoint layout — is re-executed locally through the supervisor's own
//! arena *before* commit and must match bit-for-bit. A divergent record is
//! discarded, the local re-execution is committed in its place, and the
//! endpoint is charged in a trust ledger; past `--max-audit-failures`
//! (default 0: one strike) the endpoint is quarantined for the rest of the
//! campaign and its shards hand over to trusted endpoints. Merge conflicts
//! (two endpoints disagreeing about a committed trial) charge the same
//! ledger even without `--audit`. The summary names every quarantined
//! endpoint, and an audited run's checkpoint stays byte-identical to thread
//! mode — lies are caught and corrected, never recorded.
//!
//! **Graceful preemption** — a campaign can stop on purpose without losing
//! anything. SIGINT/SIGTERM (Ctrl-C, a preempting scheduler), `--max-wall
//! DUR`, and `--max-trials-this-run N` all trip one shared cancel token
//! that every execution mode polls at trial boundaries: thread workers
//! stop claiming trials, the supervisor drains in-flight shards instead of
//! leasing new ones, and worker daemons — local or remote — get a `drain`
//! frame so they finish the trial in flight and part cleanly. The run then exits through the
//! ordinary final-checkpoint path — WAL fsync'd, checkpoint written,
//! summary printed with `partial: <reason>` and honest intervals at the
//! achieved N — and exits 4. Resuming the checkpoint converges
//! bit-identically to a never-interrupted run. A second signal skips the
//! drain and aborts immediately (exit `128+signo`); the WAL still protects
//! every committed trial.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | campaign completed |
//! | 1 | usage error or campaign failure |
//! | 2 | an outcome named by `--fail-on` was observed |
//! | 3 | adaptive target not reached within `--max-injections` |
//! | 4 | stopped early (signal, `--max-wall`, or `--max-trials-this-run`); partial results are checkpointed and resumable |
//!
//! `__serve` (the local daemon entry point) is not a user-facing mode; the
//! supervisor translates its deaths into retries and poisoned trials.

use mbavf_core::stats::RateEstimate;
use mbavf_inject::{
    install_terminate_handlers, reset_sigpipe, run_adaptive, run_campaign, run_supervised,
    serve_main, AdaptiveConfig, AuditPolicy, CampaignConfig, CampaignReport, ChaosSpec,
    IsolationMode, OutcomeKind, RunnerConfig, SupervisorConfig, TransportKind,
};
use mbavf_workloads::{by_name, suite, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    listen: Option<String>,
    cfg: CampaignConfig,
    runner: RunnerConfig,
    isolation: IsolationMode,
    sup: SupervisorConfig,
    confidence: f64,
    fail_on: Vec<OutcomeKind>,
    adaptive: Option<AdaptiveConfig>,
    batch: usize,
    max_injections: usize,
    chaos: Option<ChaosSpec>,
}

fn usage() -> String {
    let names: Vec<&str> = suite().iter().map(|w| w.name).collect();
    format!(
        "usage: campaign --workload NAME [--injections N] [--seed S] [--mode-bits M]\n\
         \u{20}                [--threads N] [--batch-width W (lockstep trials per batch)]\n\
         \u{20}                [--checkpoint FILE (plus its journal FILE.wal)]\n\
         \u{20}                [--checkpoint-every N (journal each thread's trials\n\
         \u{20}                 at least every N; a crash loses at most N per thread)]\n\
         \u{20}                [--max-wall DUR (30s|15m|2h; bare numbers are seconds)]\n\
         \u{20}                [--max-trials-this-run N (alias: --stop-after)]\n\
         \u{20}                [--scale test|paper] [--no-wrap-oob]\n\
         \u{20}                [--hang-multiplier K] [--heartbeat SECS (0 = off)]\n\
         \u{20}                [--isolation thread|process|tcp] [--workers N] [--shard-size N]\n\
         \u{20}                [--lease-timeout SECS] [--max-retries N] [--backoff-ms MS]\n\
         \u{20}                [--max-poison N] [--poison-file FILE]\n\
         \u{20}                [--connect HOST:PORT,...]\n\
         \u{20}                [--confidence C] [--fail-on sdc,hang,crash]\n\
         \u{20}                [--repro-dir DIR] [--repro-cap N]\n\
         \u{20}                [--chaos SEED:RATE (inject faults into the harness's own I/O)]\n\
         \u{20}                [--audit RATE (re-execute a deterministic sample of worker\n\
         \u{20}                 records locally; divergent endpoints are quarantined past\n\
         \u{20}                 --max-audit-failures N, default 0)]\n\
         \u{20}                [--target-ci-halfwidth H [--batch N] [--max-injections N]]\n\
         \u{20}      campaign --listen HOST:PORT   (worker daemon for --isolation tcp)\n\
         exit codes: 0 = done, 1 = error, 2 = --fail-on outcome seen,\n\
         \u{20}           3 = adaptive target not reached,\n\
         \u{20}           4 = stopped early (signal, --max-wall, or --max-trials-this-run);\n\
         \u{20}               partial results are checkpointed and resumable\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_u64(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("not an unsigned integer: {v}"))
}

/// Wall-clock budget spelling: `500ms`, `30s`, `15m`, `2h`, or a bare
/// number of seconds.
fn parse_duration(v: &str) -> Result<Duration, String> {
    let (num, unit_ms) = if let Some(n) = v.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = v.strip_suffix('m') {
        (n, 60_000)
    } else if let Some(n) = v.strip_suffix('h') {
        (n, 3_600_000)
    } else {
        (v, 1_000)
    };
    let n = num.parse::<u64>().map_err(|_| format!("bad duration: {v} (want 30s, 15m, 2h)"))?;
    let ms = n.checked_mul(unit_ms).ok_or_else(|| format!("duration overflows: {v}"))?;
    Ok(Duration::from_millis(ms))
}

fn parse_fail_on(v: &str) -> Result<Vec<OutcomeKind>, String> {
    const VALID: &str = "valid outcomes: sdc, hang, crash";
    let mut kinds = Vec::new();
    for token in v.split(',') {
        let kind = match token.trim() {
            "sdc" => OutcomeKind::Sdc,
            "hang" => OutcomeKind::Hang,
            "crash" => OutcomeKind::Crash,
            other => return Err(format!("unknown outcome {other:?} in --fail-on ({VALID})")),
        };
        if kinds.contains(&kind) {
            return Err(format!(
                "duplicate outcome {:?} in --fail-on ({VALID}, each at most once)",
                token.trim()
            ));
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        listen: None,
        cfg: CampaignConfig { injections: 5000, scale: Scale::Paper, ..CampaignConfig::default() },
        runner: RunnerConfig { heartbeat: Some(Duration::from_secs(5)), ..RunnerConfig::default() },
        isolation: IsolationMode::Thread,
        sup: SupervisorConfig::default(),
        confidence: 0.95,
        fail_on: Vec::new(),
        adaptive: None,
        batch: 100,
        max_injections: 5000,
        chaos: None,
    };
    let mut target_halfwidth = None;
    let mut endpoints: Vec<String> = Vec::new();
    let mut audit_rate: Option<f64> = None;
    let mut max_audit_failures: Option<u32> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--injections" => args.cfg.injections = parse_u64(value()?)? as usize,
            "--seed" => args.cfg.seed = parse_u64(value()?)?,
            // `--hang-multiplier` is the documented spelling; `--hang-factor`
            // is kept as a compatible alias. Both feed the config fingerprint.
            "--hang-factor" | "--hang-multiplier" => {
                args.cfg.hang_factor = match parse_u64(value()?)? {
                    0 => return Err("hang multiplier must be at least 1".into()),
                    k => k,
                }
            }
            "--mode-bits" => {
                args.cfg.mode_bits = match parse_u64(value()?)? {
                    b @ 1..=32 => b as u8,
                    other => return Err(format!("mode width {other} out of range (1..=32)")),
                }
            }
            "--threads" => args.runner.threads = parse_u64(value()?)? as usize,
            "--batch-width" => {
                args.runner.batch_width = match parse_u64(value()?)? as usize {
                    0 => {
                        return Err(
                            "--batch-width must be at least 1 (1 = sequential execution)".into()
                        )
                    }
                    n => n,
                }
            }
            "--checkpoint" => args.runner.checkpoint = Some(PathBuf::from(value()?)),
            "--checkpoint-every" => args.runner.checkpoint_every = parse_u64(value()?)? as usize,
            // Trial budget for *this invocation* (the resume runs the rest).
            // `--stop-after` is the original spelling, kept as an alias.
            "--max-trials-this-run" | "--stop-after" => {
                args.runner.cancel.set_trial_budget(parse_u64(value()?)? as usize)
            }
            // The deadline is armed here at parse time; the first trial
            // boundary polled past it trips the token.
            "--max-wall" => args.runner.cancel.set_max_wall(parse_duration(value()?)?),
            "--scale" => {
                args.cfg.scale = match value()?.as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale {other} (test|paper)")),
                }
            }
            "--no-wrap-oob" => args.cfg.wrap_oob = false,
            "--heartbeat" => {
                args.runner.heartbeat = match parse_u64(value()?)? {
                    0 => None,
                    secs => Some(Duration::from_secs(secs)),
                }
            }
            "--isolation" => {
                let v = value()?;
                args.isolation = IsolationMode::parse(v)
                    .ok_or_else(|| format!("unknown isolation mode {v} (thread|process|tcp)"))?;
            }
            "--listen" => args.listen = Some(value()?.clone()),
            "--connect" => {
                for ep in value()?.split(',') {
                    let ep = ep.trim();
                    if ep.is_empty() {
                        return Err("--connect has an empty endpoint".into());
                    }
                    endpoints.push(ep.to_string());
                }
            }
            "--lease-timeout" => {
                args.sup.lease_timeout = match parse_u64(value()?)? {
                    0 => return Err("--lease-timeout must be at least 1 second".into()),
                    secs => Duration::from_secs(secs),
                }
            }
            "--workers" => args.sup.workers = parse_u64(value()?)? as usize,
            "--shard-size" => {
                args.sup.shard_size = match parse_u64(value()?)? as usize {
                    0 => return Err("--shard-size must be at least 1".into()),
                    n => n,
                }
            }
            "--max-retries" => args.sup.max_retries = parse_u64(value()?)? as u32,
            "--backoff-ms" => {
                let base = Duration::from_millis(parse_u64(value()?)?);
                args.sup.backoff_base = base;
                args.sup.backoff_cap = args.sup.backoff_cap.max(base);
            }
            "--max-poison" => args.sup.max_poison = parse_u64(value()?)? as usize,
            "--poison-file" => args.sup.poison_path = Some(PathBuf::from(value()?)),
            "--confidence" => {
                let c: f64 = value()?.parse().map_err(|_| "bad --confidence".to_string())?;
                if c.is_nan() || c <= 0.0 || c >= 1.0 {
                    return Err(format!("confidence {c} out of range (0, 1)"));
                }
                args.confidence = c;
            }
            "--fail-on" => args.fail_on = parse_fail_on(value()?)?,
            "--repro-dir" => args.runner.repro_dir = Some(PathBuf::from(value()?)),
            "--repro-cap" => {
                args.runner.repro_cap = match parse_u64(value()?)? as usize {
                    0 => return Err("--repro-cap must be at least 1".into()),
                    n => n,
                }
            }
            "--target-ci-halfwidth" => {
                let h: f64 =
                    value()?.parse().map_err(|_| "bad --target-ci-halfwidth".to_string())?;
                if h.is_nan() || h <= 0.0 {
                    return Err(format!("halfwidth {h} must be positive"));
                }
                target_halfwidth = Some(h);
            }
            "--chaos" => args.chaos = Some(ChaosSpec::parse(value()?)?),
            "--audit" => {
                let r: f64 = value()?.parse().map_err(|_| "bad --audit rate".to_string())?;
                if r.is_nan() || !(0.0..=1.0).contains(&r) {
                    return Err(format!("audit rate {r} out of range [0, 1]"));
                }
                audit_rate = Some(r);
            }
            "--max-audit-failures" => {
                max_audit_failures = Some(parse_u64(value()?)? as u32);
            }
            "--batch" => args.batch = parse_u64(value()?)? as usize,
            "--max-injections" => args.max_injections = parse_u64(value()?)? as usize,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.listen.is_some() {
        // Daemon mode serves whatever campaigns connect to it; every other
        // flag (including --workload) arrives over the wire.
        if argv.len() != 2 {
            return Err("--listen (worker daemon mode) takes no other flags".into());
        }
        return Ok(args);
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{}", usage()));
    }
    match (args.isolation, endpoints.is_empty()) {
        (IsolationMode::Tcp, true) => {
            return Err("--isolation tcp requires --connect HOST:PORT[,HOST:PORT...]".into());
        }
        (IsolationMode::Tcp, false) => {
            args.sup.transport = TransportKind::Tcp { endpoints };
        }
        (_, false) => return Err("--connect requires --isolation tcp".into()),
        (_, true) => {}
    }
    if max_audit_failures.is_some() && audit_rate.is_none() {
        return Err("--max-audit-failures requires --audit".into());
    }
    match audit_rate {
        Some(r) if r > 0.0 => {
            if args.isolation == IsolationMode::Thread {
                return Err(
                    "--audit requires --isolation process or tcp (thread-mode trials already \
                     run in this process; there is nothing to distrust)"
                        .into(),
                );
            }
            args.sup.audit = Some(AuditPolicy::new(r, max_audit_failures.unwrap_or(0)));
        }
        // --audit 0 is an explicit "off": identical to not passing the flag,
        // so scripts can parameterize the rate without special-casing zero.
        _ => {}
    }
    if args.runner.batch_width > 1 && args.isolation != IsolationMode::Thread {
        return Err("--batch-width currently requires --isolation thread (worker daemons run \
             the sequential arena path)"
            .into());
    }
    if target_halfwidth.is_some() && args.isolation != IsolationMode::Thread {
        return Err(
            "--target-ci-halfwidth (adaptive sizing) currently requires --isolation thread".into(),
        );
    }
    if let Some(h) = target_halfwidth {
        args.adaptive = Some(AdaptiveConfig {
            target_halfwidth: h,
            confidence: args.confidence,
            batch: args.batch,
            max_injections: args.max_injections,
        });
    }
    Ok(args)
}

fn rate_line(label: &str, r: &RateEstimate) {
    println!("  {label:<22} {}", r.display(4));
}

fn print_report(report: &CampaignReport, confidence: f64) {
    let s = &report.summary;
    println!(
        "{}: {} trials ({} resumed from checkpoint, {} run now){}",
        s.workload,
        s.records.len(),
        report.resumed,
        report.newly_run,
        match &report.interrupted {
            Some(reason) => format!("  [partial: {reason}]"),
            None => String::new(),
        }
    );
    let stats = s.stats(confidence);
    println!("  {:.0}% confidence intervals (Wilson):", confidence * 100.0);
    rate_line("masked", &stats.masked);
    rate_line("sdc", &stats.sdc);
    rate_line("hang", &stats.hang);
    rate_line("crash", &stats.crash);
    rate_line("error (sdc+hang+crash)", &stats.error);
    rate_line("read-before-overwrite", &stats.read);
    if let Some(l) = &report.trial_latency {
        println!(
            "  trial latency (n={}): p50 {}us, p99 {}us, max {}us",
            l.n, l.p50_us, l.p99_us, l.max_us
        );
    }
    if s.durable_write_failures > 0 {
        println!(
            "  {} durable-write failure(s) survived (checkpoint durability was degraded; \
             records are unaffected)",
            s.durable_write_failures
        );
    }
    if s.audited > 0 || s.merge_conflicts > 0 {
        println!(
            "  {} record(s) audited against local re-execution ({} divergent, \
             {} merge conflict(s))",
            s.audited, s.audit_divergences, s.merge_conflicts
        );
    }
    if !s.quarantined_endpoints.is_empty() {
        println!(
            "  {} endpoint(s) quarantined by the trust ledger (their divergent records \
             were discarded and re-executed locally):",
            s.quarantined_endpoints.len()
        );
        for ep in &s.quarantined_endpoints {
            println!("    quarantined endpoint: {ep}");
        }
    }
    if !report.poisoned.is_empty() {
        println!(
            "  {} poisoned trial(s) quarantined (excluded from the rates above):",
            report.poisoned.len()
        );
        for e in report.poisoned.iter().take(5) {
            println!("    trial {:>6}: {} ({} attempts)", e.trial, e.reason, e.attempts);
        }
    }
    let crashes = s.count(OutcomeKind::Crash);
    if crashes > 0 {
        println!("  first crash reasons:");
        for r in s
            .records
            .iter()
            .filter_map(|r| match &r.outcome {
                mbavf_inject::Outcome::Crash { reason } => Some((r.trial, reason)),
                _ => None,
            })
            .take(5)
        {
            println!("    trial {:>6}: {}", r.0, r.1);
        }
    }
}

fn main() -> ExitCode {
    // Piping the summary into `head` must end the process quietly, not
    // panic on a broken pipe: restore SIGPIPE's default disposition before
    // any output.
    reset_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Hidden daemon entrypoint: `campaign __serve --listen host:port` (the
    // spelling orchestration scripts and process isolation's local daemons
    // use; `campaign --listen host:port` is the user-facing alias below).
    // Must be dispatched before normal flag parsing.
    if argv.first().map(String::as_str) == Some("__serve") {
        std::process::exit(serve_main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = &args.listen {
        std::process::exit(serve_main(&["--listen".to_string(), addr.clone()]));
    }
    let Some(w) = by_name(&args.workload) else {
        eprintln!("unknown workload {}\n{}", args.workload, usage());
        return ExitCode::FAILURE;
    };
    // Graceful preemption: the first SIGINT/SIGTERM trips the runner's
    // cancel token (drain, checkpoint, exit 4); the second aborts. Only the
    // campaign proper installs handlers — worker daemons are driven by
    // their supervisor and die by default disposition when signalled
    // directly.
    install_terminate_handlers(&args.runner.cancel);
    // Chaos is installed in this (supervisor) process only: worker daemons
    // run fault-free, so injected damage exercises
    // the harness's durable-state paths, not the trials themselves.
    let chaos_engine = args.chaos.map(|spec| {
        eprintln!(
            "chaos: injecting I/O faults at rate {} (seed {:#x}) into the harness's own writes",
            spec.rate, spec.seed
        );
        mbavf_inject::chaos::install(spec)
    });

    let mut target_missed = false;
    let report = if let Some(adaptive) = &args.adaptive {
        match run_adaptive(&w, &args.cfg, &args.runner, adaptive) {
            Ok(r) => {
                println!(
                    "adaptive: stages {:?}, target halfwidth {} {}",
                    r.stages,
                    adaptive.target_halfwidth,
                    if r.target_met { "met" } else { "NOT met (trial cap reached)" }
                );
                target_missed = !r.target_met;
                r.report
            }
            Err(e) => {
                eprintln!("campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let run = match args.isolation {
            IsolationMode::Thread => run_campaign(&w, &args.cfg, &args.runner),
            IsolationMode::Process | IsolationMode::Tcp => {
                run_supervised(&w, &args.cfg, &args.runner, &args.sup)
            }
        };
        match run {
            Ok(r) => r,
            Err(e) => {
                eprintln!("campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    print_report(&report, args.confidence);
    if let Some(engine) = &chaos_engine {
        println!(
            "  chaos: {} of {} I/O operations faulted",
            engine.injected(),
            engine.operations()
        );
    }
    if let Some(dir) = &args.runner.repro_dir {
        println!(
            "  {} repro bundle(s) in {} (replay with: replay {}/*.repro.json)",
            report.bundles.len(),
            dir.display(),
            dir.display()
        );
    }

    // A partial run exits with its own documented code, *before* the gating
    // checks below: a `--fail-on` or adaptive-target verdict rendered over a
    // deliberately truncated sample would be premature either way. The
    // checkpoint holds everything; resume and let the full run be judged.
    if let Some(reason) = report.interrupted {
        eprintln!(
            "partial: campaign stopped early ({reason}); resume from the checkpoint to finish"
        );
        return ExitCode::from(4);
    }

    for kind in &args.fail_on {
        // Poisoned trials killed their daemon outright, so they count as
        // crash-class outcomes for gating purposes.
        let poisoned = match kind {
            OutcomeKind::Crash => report.poisoned.len(),
            _ => 0,
        };
        let k = report.summary.count(*kind) + poisoned;
        if k > 0 {
            eprintln!("fail-on: observed {k} {kind:?} outcomes");
            return ExitCode::from(2);
        }
    }
    if target_missed {
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn preemption_flags_arm_the_cancel_token() {
        let args =
            parse_args(&argv(&["--workload", "dct", "--max-trials-this-run", "250"])).unwrap();
        assert_eq!(args.runner.cancel.trial_budget(), Some(250));
        assert_eq!(args.runner.cancel.cancelled(), None, "a budget is not a trip");

        // The original test-hook spelling still works, as an alias.
        let args = parse_args(&argv(&["--workload", "dct", "--stop-after", "7"])).unwrap();
        assert_eq!(args.runner.cancel.trial_budget(), Some(7));

        // A generous wall budget arms without tripping; an already-expired
        // one trips on the first poll with the wall-clock reason.
        let args = parse_args(&argv(&["--workload", "dct", "--max-wall", "2h"])).unwrap();
        assert_eq!(args.runner.cancel.cancelled(), None);
        let args = parse_args(&argv(&["--workload", "dct", "--max-wall", "0"])).unwrap();
        assert_eq!(args.runner.cancel.cancelled(), Some(mbavf_inject::CancelReason::WallClock));

        // No flags: a live token with nothing armed.
        let args = parse_args(&argv(&["--workload", "dct"])).unwrap();
        assert_eq!(args.runner.cancel.trial_budget(), None);
        assert_eq!(args.runner.cancel.cancelled(), None);
    }

    #[test]
    fn durations_parse_with_units_and_default_to_seconds() {
        assert_eq!(parse_duration("30").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("15m").unwrap(), Duration::from_secs(900));
        assert_eq!(parse_duration("2h").unwrap(), Duration::from_secs(7200));
        for bad in ["", "s", "h", "ten", "1.5h", "-4s"] {
            assert!(parse_duration(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn fail_on_parses_each_kind_once() {
        assert_eq!(parse_fail_on("sdc").unwrap(), vec![OutcomeKind::Sdc]);
        assert_eq!(
            parse_fail_on("sdc, hang,crash").unwrap(),
            vec![OutcomeKind::Sdc, OutcomeKind::Hang, OutcomeKind::Crash]
        );
    }

    #[test]
    fn fail_on_rejects_duplicates_and_lists_valid_tokens() {
        let err = parse_fail_on("sdc,hang,sdc").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(err.contains("sdc, hang, crash"), "must list valid tokens: {err}");
    }

    #[test]
    fn fail_on_rejects_unknown_tokens_and_lists_valid_ones() {
        for bad in ["masked", "SDC", "", "sdc;hang"] {
            let err = parse_fail_on(bad).unwrap_err();
            assert!(err.contains("unknown outcome"), "{bad}: {err}");
            assert!(err.contains("sdc, hang, crash"), "{bad} must list valid tokens: {err}");
        }
    }

    #[test]
    fn isolation_flags_parse_and_validate() {
        let args = parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "process",
            "--workers",
            "3",
            "--shard-size",
            "16",
            "--lease-timeout",
            "120",
            "--max-retries",
            "4",
            "--backoff-ms",
            "10",
            "--max-poison",
            "2",
            "--poison-file",
            "bad.json",
        ]))
        .unwrap();
        assert_eq!(args.isolation, IsolationMode::Process);
        assert_eq!(args.sup.workers, 3);
        assert_eq!(args.sup.shard_size, 16);
        assert_eq!(args.sup.lease_timeout, Duration::from_secs(120));
        assert_eq!(args.sup.max_retries, 4);
        assert_eq!(args.sup.backoff_base, Duration::from_millis(10));
        assert!(args.sup.backoff_cap >= args.sup.backoff_base);
        assert_eq!(args.sup.max_poison, 2);
        assert_eq!(args.sup.poison_path, Some(PathBuf::from("bad.json")));

        // Defaults: thread isolation, so existing invocations are unchanged.
        assert_eq!(
            parse_args(&argv(&["--workload", "dct"])).unwrap().isolation,
            IsolationMode::Thread
        );
        assert!(parse_args(&argv(&["--workload", "dct", "--isolation", "forkbomb"])).is_err());
        assert!(parse_args(&argv(&["--workload", "dct", "--shard-size", "0"])).is_err());
        assert!(parse_args(&argv(&["--workload", "dct", "--lease-timeout", "0"])).is_err());
    }

    #[test]
    fn tcp_flags_parse_and_validate() {
        let args = parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "tcp",
            "--connect",
            "hostA:7017, hostB:7017",
            "--lease-timeout",
            "45",
        ]))
        .unwrap();
        assert_eq!(args.isolation, IsolationMode::Tcp);
        assert_eq!(
            args.sup.transport,
            TransportKind::Tcp { endpoints: vec!["hostA:7017".into(), "hostB:7017".into()] }
        );
        assert_eq!(args.sup.lease_timeout, Duration::from_secs(45));

        let Err(err) = parse_args(&argv(&["--workload", "dct", "--isolation", "tcp"])) else {
            panic!("tcp isolation without --connect must be rejected");
        };
        assert!(err.contains("--connect"), "{err}");
        let Err(err) = parse_args(&argv(&["--workload", "dct", "--connect", "h:1"])) else {
            panic!("--connect without tcp isolation must be rejected");
        };
        assert!(err.contains("--isolation tcp"), "{err}");
        assert!(parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "tcp",
            "--connect",
            "h:1,,h:2"
        ]))
        .is_err());
        assert!(parse_args(&argv(&["--workload", "dct", "--lease-timeout", "0"])).is_err());
    }

    #[test]
    fn listen_mode_needs_no_workload_and_rejects_extra_flags() {
        let args = parse_args(&argv(&["--listen", "127.0.0.1:0"])).unwrap();
        assert_eq!(args.listen.as_deref(), Some("127.0.0.1:0"));
        assert!(args.workload.is_empty());
        let Err(err) = parse_args(&argv(&["--listen", "127.0.0.1:0", "--workload", "dct"])) else {
            panic!("--listen with extra flags must be rejected");
        };
        assert!(err.contains("no other flags"), "{err}");
    }

    #[test]
    fn adaptive_sizing_rejects_tcp_isolation() {
        let Err(err) = parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "tcp",
            "--connect",
            "h:1",
            "--target-ci-halfwidth",
            "0.01",
        ])) else {
            panic!("adaptive + tcp isolation must be rejected");
        };
        assert!(err.contains("--isolation thread"), "{err}");
    }

    #[test]
    fn adaptive_sizing_rejects_process_isolation() {
        let Err(err) = parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "process",
            "--target-ci-halfwidth",
            "0.01",
        ])) else {
            panic!("adaptive + process isolation must be rejected");
        };
        assert!(err.contains("--isolation thread"), "{err}");
    }

    #[test]
    fn batch_width_parses_and_validates() {
        let args = parse_args(&argv(&["--workload", "dct", "--batch-width", "8"])).unwrap();
        assert_eq!(args.runner.batch_width, 8);
        // Default: width 1, the sequential path.
        assert_eq!(parse_args(&argv(&["--workload", "dct"])).unwrap().runner.batch_width, 1);

        let Err(err) = parse_args(&argv(&["--workload", "dct", "--batch-width", "0"])) else {
            panic!("--batch-width 0 must be rejected");
        };
        assert!(err.contains("at least 1"), "{err}");

        // Batched lockstep execution lives in the in-process runner; the
        // supervisor's worker daemons run their executors at width 1.
        let Err(err) = parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "process",
            "--batch-width",
            "8",
        ])) else {
            panic!("--batch-width + process isolation must be rejected");
        };
        assert!(err.contains("--isolation thread"), "{err}");
        // Width 1 is the sequential path, so any isolation mode accepts it.
        assert!(parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "process",
            "--batch-width",
            "1",
        ]))
        .is_ok());
    }

    #[test]
    fn hang_multiplier_aliases_hang_factor() {
        let a = parse_args(&argv(&["--workload", "dct", "--hang-multiplier", "12"])).unwrap();
        let b = parse_args(&argv(&["--workload", "dct", "--hang-factor", "12"])).unwrap();
        assert_eq!(a.cfg.hang_factor, 12);
        assert_eq!(b.cfg.hang_factor, 12);
        assert!(parse_args(&argv(&["--workload", "dct", "--hang-multiplier", "0"])).is_err());
    }

    #[test]
    fn heartbeat_flag_sets_interval_and_zero_disables() {
        let on = parse_args(&argv(&["--workload", "dct", "--heartbeat", "2"])).unwrap();
        assert_eq!(on.runner.heartbeat, Some(Duration::from_secs(2)));
        let off = parse_args(&argv(&["--workload", "dct", "--heartbeat", "0"])).unwrap();
        assert_eq!(off.runner.heartbeat, None);
        // Default: heartbeat on, every 5s.
        let dflt = parse_args(&argv(&["--workload", "dct"])).unwrap();
        assert_eq!(dflt.runner.heartbeat, Some(Duration::from_secs(5)));
    }

    #[test]
    fn chaos_flag_parses_and_validates() {
        let args = parse_args(&argv(&["--workload", "dct", "--chaos", "0xC4A05:0.05"])).unwrap();
        let spec = args.chaos.expect("chaos spec");
        assert_eq!(spec.seed, 0xC4A05);
        assert_eq!(spec.rate, 0.05);
        for bad in ["7", "7:", ":0.1", "7:1.5", "7:-0.1", "x:0.1", "7:nan"] {
            assert!(
                parse_args(&argv(&["--workload", "dct", "--chaos", bad])).is_err(),
                "--chaos {bad} must be rejected"
            );
        }
        // Default: no chaos.
        assert!(parse_args(&argv(&["--workload", "dct"])).unwrap().chaos.is_none());
    }

    #[test]
    fn audit_flags_parse_and_validate() {
        let args = parse_args(&argv(&[
            "--workload",
            "dct",
            "--isolation",
            "tcp",
            "--connect",
            "h:1",
            "--audit",
            "0.25",
            "--max-audit-failures",
            "3",
        ]))
        .unwrap();
        assert_eq!(args.sup.audit, Some(AuditPolicy::new(0.25, 3)));

        // Works under process isolation too, with the one-strike default.
        let args =
            parse_args(&argv(&["--workload", "dct", "--isolation", "process", "--audit", "1.0"]))
                .unwrap();
        assert_eq!(args.sup.audit, Some(AuditPolicy::new(1.0, 0)));

        // --audit 0 is an explicit off switch, not an error.
        let args =
            parse_args(&argv(&["--workload", "dct", "--isolation", "process", "--audit", "0"]))
                .unwrap();
        assert_eq!(args.sup.audit, None);

        // Default: no auditing.
        assert_eq!(parse_args(&argv(&["--workload", "dct"])).unwrap().sup.audit, None);

        let Err(err) = parse_args(&argv(&["--workload", "dct", "--audit", "0.5"])) else {
            panic!("--audit under thread isolation must be rejected");
        };
        assert!(err.contains("--isolation process or tcp"), "{err}");
        let Err(err) = parse_args(&argv(&["--workload", "dct", "--max-audit-failures", "2"]))
        else {
            panic!("--max-audit-failures without --audit must be rejected");
        };
        assert!(err.contains("requires --audit"), "{err}");
        for bad in ["1.5", "-0.1", "nan", "x"] {
            assert!(
                parse_args(&argv(&["--workload", "dct", "--isolation", "process", "--audit", bad]))
                    .is_err(),
                "--audit {bad} must be rejected"
            );
        }
    }

    #[test]
    fn repro_flags_parse_and_validate() {
        let args =
            parse_args(&argv(&["--workload", "dct", "--repro-dir", "bundles", "--repro-cap", "3"]))
                .unwrap();
        assert_eq!(args.runner.repro_dir, Some(PathBuf::from("bundles")));
        assert_eq!(args.runner.repro_cap, 3);
        assert!(parse_args(&argv(&["--workload", "dct", "--repro-cap", "0"])).is_err());
        // Default: no bundle emission.
        assert_eq!(parse_args(&argv(&["--workload", "dct"])).unwrap().runner.repro_dir, None);
    }
}
