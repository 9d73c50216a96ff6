//! Process-isolation contract of the `campaign` binary, exercised end to
//! end against real local worker daemons:
//!
//! * `--isolation process` produces the same printed rates as thread mode
//!   on a clean run;
//! * a daemon that dies mid-shard (the `MBAVF_DRILL=die@T` drill) does
//!   not kill the campaign: the offending trial is bisected, quarantined
//!   into the poison sidecar with a repro bundle, and the run still exits 0;
//! * resuming the same checkpoint without the drill re-runs nothing and
//!   reports the same rates — poisoned trials stay excluded.
//!
//! This is the same scenario the CI `isolation-smoke` job scripts against
//! the release binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign(dir: &Path, extra: &[&str], drill: Option<(&str, &str)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.current_dir(dir)
        .args([
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
        ])
        .args(extra);
    // The drills only fire inside the local `__serve` daemons, which
    // inherit this environment through the supervisor.
    if let Some((var, val)) = drill {
        cmd.env(var, val);
    }
    cmd.output().expect("campaign binary must spawn")
}

fn rates(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| {
            // Everything bit-stable across isolation modes: the header and the
            // interval lines. Latency is execution-side and poison lines are
            // mode-specific, so both are excluded.
            l.contains("confidence intervals")
                || l.trim_start().starts_with("masked")
                || l.trim_start().starts_with("sdc")
                || l.trim_start().starts_with("hang")
                || l.trim_start().starts_with("crash")
                || l.trim_start().starts_with("error")
                || l.trim_start().starts_with("read-before-overwrite")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbavf-campaign-cli-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const PROCESS_FLAGS: &[&str] = &[
    "--isolation",
    "process",
    "--workers",
    "2",
    "--shard-size",
    "4",
    "--lease-timeout",
    "60",
    "--max-retries",
    "1",
    "--backoff-ms",
    "1",
];

#[test]
fn process_isolation_prints_thread_identical_rates() {
    let dir = temp_dir("equiv");
    let thread = campaign(&dir, &[], None);
    assert_eq!(thread.status.code(), Some(0));
    let process = campaign(&dir, PROCESS_FLAGS, None);
    assert_eq!(
        process.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&process.stderr)
    );
    assert_eq!(rates(&thread), rates(&process), "rates must not depend on isolation mode");
    let stdout = String::from_utf8_lossy(&process.stdout);
    assert!(stdout.contains("trial latency"), "summary must report latency: {stdout}");
}

#[test]
fn abort_drill_is_quarantined_and_resume_is_clean() {
    let dir = temp_dir("drill");
    let mut flags = vec!["--checkpoint", "c.json"];
    flags.extend_from_slice(PROCESS_FLAGS);

    let out = campaign(&dir, &flags, Some(("MBAVF_DRILL", "die@5")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "drilled campaign must survive, stderr: {stderr}");
    assert!(stderr.contains("poisoning trial 5"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("11 run now"), "one trial must be quarantined: {stdout}");
    assert!(stdout.contains("1 poisoned trial(s)"), "stdout: {stdout}");

    // The sidecar names exactly the drilled trial.
    let sidecar = std::fs::read_to_string(dir.join("c.json.poison.json")).unwrap();
    assert!(sidecar.contains("\"trial\": 5"), "sidecar: {sidecar}");
    assert_eq!(sidecar.matches("\"attempts\"").count(), 1, "exactly one entry: {sidecar}");

    // Resume without the drill: nothing re-runs, the poison stays excluded,
    // and the rates are unchanged.
    let resumed = campaign(&dir, &flags, None);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let rstdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(rstdout.contains("11 resumed from checkpoint, 0 run now"), "stdout: {rstdout}");
    assert_eq!(rates(&out), rates(&resumed));
}

#[test]
fn fail_on_crash_counts_poisoned_trials() {
    let dir = temp_dir("failon");
    let mut flags = vec!["--checkpoint", "c.json", "--fail-on", "crash"];
    flags.extend_from_slice(PROCESS_FLAGS);
    let out = campaign(&dir, &flags, Some(("MBAVF_DRILL", "die@3")));
    assert_eq!(
        out.status.code(),
        Some(2),
        "a poisoned trial is a crash-class outcome for gating, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Audits re-execute in full, so they check the golden-run shortcuts the
/// worker daemons take instead of repeating them. With `--audit 1.0` every
/// trial is audited, and thread mode shows the same trials include ones
/// settled from the profile without running.
#[test]
fn audits_of_shortcut_trials_find_no_divergence() {
    let dir = temp_dir("audit-shortcuts");
    let thread = campaign(&dir, &[], None);
    assert_eq!(thread.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&thread.stdout);
    let settled = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("golden-run shortcuts: "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("thread mode must report its shortcuts: {stdout}"));
    assert!(settled > 0, "no trial was settled from the profile: {stdout}");

    let mut flags = vec!["--audit", "1.0"];
    flags.extend_from_slice(PROCESS_FLAGS);
    let audited = campaign(&dir, &flags, None);
    let stdout = String::from_utf8_lossy(&audited.stdout);
    assert_eq!(
        audited.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&audited.stderr)
    );
    assert!(
        stdout.contains("12 record(s) audited against local re-execution (0 divergent"),
        "every trial audited, none divergent: {stdout}"
    );
    assert_eq!(rates(&thread), rates(&audited));
}
