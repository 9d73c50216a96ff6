//! Networked-supervisor contract of the `campaign` binary, exercised end to
//! end against real `--listen` worker daemons on loopback:
//!
//! * `campaign --listen 127.0.0.1:0` (and the hidden `__serve` spelling)
//!   binds an ephemeral port and announces it as a single JSON stdout line;
//! * `--isolation tcp --connect ...` produces the same printed rates and a
//!   byte-identical checkpoint versus thread mode, with no poison sidecar;
//! * killing one of two daemons mid-campaign (`MBAVF_DRILL=die@T`) fails
//!   over to the survivor and still exits 0 with identical rates;
//! * a hostile peer's megabyte of nested JSON as its hello is refused, and
//!   the daemon goes on to serve a byte-identical campaign;
//! * `--isolation tcp` without `--connect` is a usage error.
//!
//! This is the same scenario the CI `network-smoke` job scripts against the
//! release binary.

use std::io::{BufRead as _, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

/// A `campaign __serve` daemon on a loopback ephemeral port, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(args: &[&str], env: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
        cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("campaign daemon must spawn");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("daemon announcement");
        assert!(line.contains("\"mbavf_serve\""), "unexpected announcement: {line:?}");
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

fn campaign(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .current_dir(dir)
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
        .args(extra)
        .output()
        .expect("campaign binary must spawn")
}

/// The printed lines that must be bit-stable across isolation modes.
fn rates(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| {
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
    let dir = std::env::temp_dir().join(format!("mbavf-campaign-tcp-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn listen_announces_on_both_spellings() {
    // The hidden orchestration spelling and the user-facing alias both bind
    // and announce; Daemon::spawn already asserts the announcement shape.
    let hidden = Daemon::spawn(&["__serve", "--listen", "127.0.0.1:0"], &[]);
    assert!(hidden.addr.starts_with("127.0.0.1:"), "{}", hidden.addr);
    let alias = Daemon::spawn(&["--listen", "127.0.0.1:0"], &[]);
    assert!(alias.addr.starts_with("127.0.0.1:"), "{}", alias.addr);
}

#[test]
fn tcp_isolation_matches_thread_mode_with_no_poison() {
    let dir = temp_dir("loopback");
    let thread = campaign(&dir, &["--checkpoint", "thread.json"]);
    assert!(thread.status.success(), "{}", String::from_utf8_lossy(&thread.stderr));

    let (a, b) = (
        Daemon::spawn(&["__serve", "--listen", "127.0.0.1:0"], &[]),
        Daemon::spawn(&["__serve", "--listen", "127.0.0.1:0"], &[]),
    );
    let connect = format!("{},{}", a.addr, b.addr);
    let tcp = campaign(
        &dir,
        &[
            "--checkpoint",
            "tcp.json",
            "--isolation",
            "tcp",
            "--connect",
            &connect,
            "--shard-size",
            "4",
            "--lease-timeout",
            "30",
        ],
    );
    assert!(tcp.status.success(), "{}", String::from_utf8_lossy(&tcp.stderr));
    assert_eq!(rates(&tcp), rates(&thread), "tcp rates diverged from thread mode");
    assert_eq!(
        std::fs::read(dir.join("tcp.json")).unwrap(),
        std::fs::read(dir.join("thread.json")).unwrap(),
        "tcp checkpoint must be byte-identical to thread mode"
    );
    assert!(
        !dir.join("tcp.json.poison.json").exists(),
        "a clean tcp campaign must not write a poison sidecar"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_hello_is_refused_and_the_daemon_keeps_serving() {
    let dir = temp_dir("nested-hello");
    let thread = campaign(&dir, &["--checkpoint", "thread.json"]);
    assert!(thread.status.success(), "{}", String::from_utf8_lossy(&thread.stderr));

    // A hostile peer's hello: a megabyte of nesting, the largest frame the
    // protocol allows. The daemon must hang up on it, not overflow a stack.
    let daemon = Daemon::spawn(&["__serve", "--listen", "127.0.0.1:0"], &[]);
    let mut peer = TcpStream::connect(&daemon.addr).expect("daemon accepts");
    let hello = "[".repeat(1 << 20);
    peer.write_all(&(hello.len() as u32).to_be_bytes()).unwrap();
    peer.write_all(hello.as_bytes()).unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut answer = Vec::new();
    peer.read_to_end(&mut answer).expect("the daemon closes the connection");
    assert!(answer.is_empty(), "no reply to a refused hello: {answer:?}");

    // The same daemon then serves a real campaign, bit-identical to threads.
    let tcp = campaign(
        &dir,
        &["--checkpoint", "tcp.json", "--isolation", "tcp", "--connect", &daemon.addr],
    );
    assert!(tcp.status.success(), "{}", String::from_utf8_lossy(&tcp.stderr));
    assert_eq!(
        std::fs::read(dir.join("tcp.json")).unwrap(),
        std::fs::read(dir.join("thread.json")).unwrap(),
        "tcp checkpoint must be byte-identical to thread mode"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_daemon_fails_over_to_the_survivor() {
    let dir = temp_dir("failover");
    let thread = campaign(&dir, &[]);
    assert!(thread.status.success());

    let doomed =
        Daemon::spawn(&["__serve", "--listen", "127.0.0.1:0"], &[("MBAVF_DRILL", "die@2")]);
    let survivor = Daemon::spawn(&["__serve", "--listen", "127.0.0.1:0"], &[]);
    let connect = format!("{},{}", doomed.addr, survivor.addr);
    let tcp = campaign(
        &dir,
        &[
            "--isolation",
            "tcp",
            "--connect",
            &connect,
            "--shard-size",
            "4",
            "--max-retries",
            "1",
            "--backoff-ms",
            "1",
        ],
    );
    assert!(tcp.status.success(), "{}", String::from_utf8_lossy(&tcp.stderr));
    assert_eq!(rates(&tcp), rates(&thread), "failover rates diverged from thread mode");
    let stdout = String::from_utf8_lossy(&tcp.stdout);
    assert!(!stdout.contains("poisoned"), "failover must not poison trials:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_without_connect_is_a_usage_error() {
    let dir = temp_dir("usage");
    let out = campaign(&dir, &["--isolation", "tcp"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--connect"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
