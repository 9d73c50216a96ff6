//! Graceful-preemption contract of the `campaign` binary, exercised end to
//! end: SIGTERM at every phase of a campaign must yield the documented
//! partial exit code (4), a loadable checkpoint, and a resume that
//! converges **bit-identically** to an uninterrupted thread-mode run.
//!
//! The drill matrix (driven by `MBAVF_DRILL=term@<n>`, which delivers a
//! real SIGTERM to the campaign process once the `n`-th fresh trial has
//! finished — committed, under isolation; still in its worker's open commit
//! group, in thread mode — or `term2@<n>` for a double signal):
//!
//! * **mid-shard** — process isolation, signal while a local daemon owns a
//!   leased shard (the daemon is drained, not killed, exactly like a
//!   remote one);
//! * **mid-batch** — thread mode with `--batch-width`, signal inside a
//!   lockstep group (the group finishes, the next is never claimed);
//! * **mid-compaction** — signal immediately after a `--checkpoint-every`
//!   group commit, i.e. right at a journal group boundary;
//! * **mid-audit** — tcp isolation with `--audit 1.0`, signal between a
//!   fresh commit and its audit; the fleet drains (daemons stay alive and
//!   keep listening) instead of being killed;
//! * **mid-drain** — a second SIGTERM while the first is still draining
//!   escalates to an immediate abort (exit `128+15 = 143`), after which
//!   the WAL alone must still recover the run — under tcp isolation, and
//!   in thread and process mode, where the journal is the only durable
//!   record.
//!
//! Also pinned here: `--max-wall 0` exits partial with the wall-clock
//! reason, and `campaign | head` / `validate | head` / `replay | head`
//! die quietly by SIGPIPE instead of panicking on a broken pipe.
#![cfg(unix)]

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

/// A `campaign __serve` daemon on a loopback ephemeral port, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["__serve", "--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("campaign daemon must spawn");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("daemon announcement");
        let addr = line
            .split("\"listen\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("unparseable daemon announcement: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn campaign(dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.current_dir(dir).args([
        "--workload",
        "fast_walsh",
        "--scale",
        "test",
        "--injections",
        "24",
        "--seed",
        "7",
        "--heartbeat",
        "0",
    ]);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.args(extra).output().expect("campaign binary must spawn")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbavf-campaign-preempt-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Uninterrupted thread-mode reference checkpoint for this directory.
fn baseline(dir: &Path) -> Vec<u8> {
    let out = campaign(dir, &["--checkpoint", "base.json"], &[]);
    assert!(out.status.success(), "baseline: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::read(dir.join("base.json")).unwrap()
}

/// Assert the interrupted run honoured the partial contract: exit code 4,
/// a `[partial: signal]` header marker, and the resume hint on stderr.
fn assert_partial(out: &Output, reason: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr: {stderr}\nstdout: {stdout}");
    assert!(stdout.contains(&format!("[partial: {reason}]")), "missing marker:\n{stdout}");
    assert!(stderr.contains("resume from the checkpoint"), "missing resume hint:\n{stderr}");
}

/// Resume the named checkpoint in thread mode and require byte-identity
/// with the uninterrupted baseline.
fn resume_and_compare(dir: &Path, ckpt: &str, base: &[u8]) {
    let out = campaign(dir, &["--checkpoint", ckpt], &[]);
    assert!(out.status.success(), "resume: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(dir.join(ckpt)).unwrap(),
        base,
        "resumed checkpoint {ckpt} must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn sigterm_mid_shard_under_process_isolation_resumes_bit_identical() {
    let dir = temp_dir("mid-shard");
    let base = baseline(&dir);
    let out = campaign(
        &dir,
        &[
            "--checkpoint",
            "proc.json",
            "--isolation",
            "process",
            "--shard-size",
            "4",
            "--workers",
            "1",
        ],
        &[("MBAVF_DRILL", "term@3")],
    );
    assert_partial(&out, "signal");
    assert!(
        !dir.join("proc.json.poison.json").exists(),
        "a drained campaign must not write a poison sidecar"
    );
    resume_and_compare(&dir, "proc.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_mid_batch_resumes_bit_identical() {
    let dir = temp_dir("mid-batch");
    let base = baseline(&dir);
    let out = campaign(
        &dir,
        &["--checkpoint", "batch.json", "--threads", "1", "--batch-width", "4"],
        &[("MBAVF_DRILL", "term@7")],
    );
    assert_partial(&out, "signal");
    // The signal landed inside lockstep group 2 (trials 5..=8), before the
    // group was journaled: the group commits whole at its boundary, the
    // next group never runs.
    resume_and_compare(&dir, "batch.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_mid_compaction_resumes_bit_identical() {
    let dir = temp_dir("mid-compaction");
    let base = baseline(&dir);
    // checkpoint-every 4 with the drill at trial 8: the SIGTERM arrives
    // immediately after a group commit, i.e. at a journal group boundary.
    let out = campaign(
        &dir,
        &["--checkpoint", "compact.json", "--threads", "1", "--checkpoint-every", "4"],
        &[("MBAVF_DRILL", "term@8")],
    );
    assert_partial(&out, "signal");
    resume_and_compare(&dir, "compact.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_mid_audit_drains_the_tcp_fleet_and_resumes_bit_identical() {
    let dir = temp_dir("mid-audit");
    let base = baseline(&dir);
    let (mut a, mut b) = (Daemon::spawn(), Daemon::spawn());
    let connect = format!("{},{}", a.addr, b.addr);
    let out = campaign(
        &dir,
        &[
            "--checkpoint",
            "audit.json",
            "--isolation",
            "tcp",
            "--connect",
            &connect,
            "--shard-size",
            "4",
            "--workers",
            "1",
            "--audit",
            "1.0",
        ],
        &[("MBAVF_DRILL", "term@6")],
    );
    assert_partial(&out, "signal");
    assert!(
        !dir.join("audit.json.poison.json").exists(),
        "a drained campaign must not write a poison sidecar"
    );
    // Drained, not killed: both daemons must still be alive and listening.
    assert!(a.alive(), "daemon a should survive a supervisor drain");
    assert!(b.alive(), "daemon b should survive a supervisor drain");
    resume_and_compare(&dir, "audit.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_sigterm_mid_drain_aborts_and_the_wal_still_recovers() {
    let dir = temp_dir("mid-drain");
    let base = baseline(&dir);
    let (_a, _b) = (Daemon::spawn(), Daemon::spawn());
    let connect = format!("{},{}", _a.addr, _b.addr);
    // term2@6: SIGTERM after trial 6 starts the drain, then a second SIGTERM
    // lands while it is still in flight — the escalation contract is an
    // immediate abort with exit 128+15, no final checkpoint, WAL only.
    let out = campaign(
        &dir,
        &[
            "--checkpoint",
            "abort.json",
            "--isolation",
            "tcp",
            "--connect",
            &connect,
            "--shard-size",
            "4",
            "--workers",
            "1",
            "--checkpoint-every",
            "1",
        ],
        &[("MBAVF_DRILL", "term2@6")],
    );
    assert_eq!(
        out.status.code(),
        Some(143),
        "second signal must abort with 128+SIGTERM; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    resume_and_compare(&dir, "abort.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_sigterm_mid_thread_campaign_leaves_only_the_journal() {
    let dir = temp_dir("thread-abort");
    let base = baseline(&dir);
    // One thread, groups of 4: trials 1–4 are committed when term2@6 lands
    // inside the open group 5–8. The abort writes no checkpoint document,
    // and the commits never wrote one, so the journal is the only record.
    let out = campaign(
        &dir,
        &["--checkpoint", "thread.json", "--threads", "1", "--checkpoint-every", "4"],
        &[("MBAVF_DRILL", "term2@6")],
    );
    assert_eq!(
        out.status.code(),
        Some(143),
        "second signal must abort with 128+SIGTERM; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("thread.json").exists(), "commits must not write the checkpoint document");
    let journal = std::fs::metadata(dir.join("thread.json.wal")).expect("journal must exist");
    assert!(journal.len() > 0, "the journal must hold the committed trials");
    resume_and_compare(&dir, "thread.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_sigterm_mid_process_campaign_resumes_from_the_journal() {
    let dir = temp_dir("process-abort");
    let base = baseline(&dir);
    // Process isolation, groups of 4: a supervisor handler journals each
    // group before the drill counts it, so term2@6 lands with trial 6's
    // group already durable. The abort writes no checkpoint document, and
    // the commits never wrote one, so the journal is the only record.
    let out = campaign(
        &dir,
        &["--checkpoint", "process.json", "--isolation", "process", "--checkpoint-every", "4"],
        &[("MBAVF_DRILL", "term2@6")],
    );
    assert_eq!(
        out.status.code(),
        Some(143),
        "second signal must abort with 128+SIGTERM; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("process.json").exists(), "commits must not write the checkpoint document");
    let journal = std::fs::metadata(dir.join("process.json.wal")).expect("journal must exist");
    assert!(journal.len() > 0, "the journal must hold the committed trials");
    resume_and_compare(&dir, "process.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adaptive_campaign_killed_mid_stage_resumes_bit_identical() {
    let dir = temp_dir("adaptive-mid-stage");
    // Stages 4, 8, …, 256; the 0.06 target is first met at 256. The drill
    // counts fresh trials per stage, so term2@40 aborts inside stage 128
    // with trials ≥ 64 committed to the journal but not in the document —
    // the resume must pick its stage from the journal too, or its first
    // stage rejects them as outside the budget.
    let run = |ckpt: &str, env: &[(&str, &str)]| {
        let adaptive = ["--target-ci-halfwidth", "0.06", "--batch", "4", "--max-injections", "256"];
        campaign(&dir, &[&["--checkpoint", ckpt, "--threads", "1"][..], &adaptive].concat(), env)
    };
    let base = run("base.json", &[]);
    assert!(base.status.success(), "baseline: {}", String::from_utf8_lossy(&base.stderr));
    let out = run("adaptive.json", &[("MBAVF_DRILL", "term2@40")]);
    assert_eq!(
        out.status.code(),
        Some(143),
        "second signal must abort with 128+SIGTERM; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resume = run("adaptive.json", &[]);
    assert_eq!(
        resume.status.code(),
        Some(0),
        "resume: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert_eq!(
        std::fs::read(dir.join("adaptive.json")).unwrap(),
        std::fs::read(dir.join("base.json")).unwrap(),
        "the resumed adaptive checkpoint must be byte-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn max_wall_zero_exits_partial_with_the_wall_clock_reason() {
    let dir = temp_dir("max-wall");
    let base = baseline(&dir);
    let out = campaign(&dir, &["--checkpoint", "wall.json", "--max-wall", "0"], &[]);
    assert_partial(&out, "wall-clock");
    resume_and_compare(&dir, "wall.json", &base);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawn `bin args.. | <closed pipe>` and return (status, stderr): every
/// stdout write hits EPIPE, so a binary with the default SIGPIPE
/// disposition dies by signal 13 — while a binary that inherited Rust's
/// SIG_IGN panics with "failed printing to stdout".
fn run_into_closed_pipe(
    bin: &str,
    args: &[&str],
    dir: &Path,
) -> (std::process::ExitStatus, String) {
    let (reader, writer) = std::io::pipe().expect("os pipe");
    drop(reader); // close the read end before the child ever writes
    let out = Command::new(bin)
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("binary must spawn");
    (out.status, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn piped_binaries_die_quietly_on_a_broken_pipe() {
    use std::os::unix::process::ExitStatusExt as _;
    let dir = temp_dir("sigpipe");
    let cases: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_campaign"),
            &[
                "--workload",
                "fast_walsh",
                "--scale",
                "test",
                "--injections",
                "12",
                "--seed",
                "7",
                "--heartbeat",
                "0",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_validate"),
            &[
                "--workloads",
                "fast_walsh",
                "--modes",
                "1",
                "--injections",
                "4",
                "--seed",
                "7",
                "--scale",
                "test",
            ],
        ),
        (env!("CARGO_BIN_EXE_replay"), &["--help"]),
    ];
    for (bin, args) in cases {
        let (status, stderr) = run_into_closed_pipe(bin, args, &dir);
        assert!(
            !stderr.contains("panicked"),
            "{bin} panicked on a broken pipe instead of dying quietly:\n{stderr}"
        );
        assert_eq!(
            status.signal(),
            Some(13),
            "{bin} should die by SIGPIPE (default disposition); stderr:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
