//! A malformed `MBAVF_DRILL` plan must stop every binary that reads it,
//! naming the bad entry — never run undrilled, which would let a drill test
//! pass vacuously.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], plan: &str) -> Output {
    Command::new(bin)
        .args(args)
        .env("MBAVF_DRILL", plan)
        .env("MBAVF_SCALE", "test")
        .output()
        .expect("binary must spawn")
}

fn assert_refused(out: &Output, entry: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a malformed plan must fail the run; stderr: {stderr}");
    assert!(stderr.contains(&format!("{entry:?}")), "stderr must name {entry:?}: {stderr}");
}

#[test]
fn campaign_refuses_a_malformed_drill_plan() {
    let campaign = env!("CARGO_BIN_EXE_campaign");
    let flags = ["--workload", "fast_walsh", "--scale", "test", "--injections", "6"];
    assert_refused(&run(campaign, &flags, "die@6x"), "die@6x");
    let process = [&flags[..], &["--isolation", "process", "--workers", "1"]].concat();
    assert_refused(&run(campaign, &process, "term@3,"), "");
    let adaptive = [&flags[..], &["--target-ci-halfwidth", "0.1", "--batch", "2"]].concat();
    assert_refused(&run(campaign, &adaptive, "term@7:3"), "term@7:3");
}

#[test]
fn worker_daemons_refuse_a_malformed_drill_plan() {
    let campaign = env!("CARGO_BIN_EXE_campaign");
    assert_refused(&run(campaign, &["--listen", "127.0.0.1:0"], "lie@9"), "lie@9");
    assert_refused(&run(campaign, &["__serve", "--listen", "127.0.0.1:0"], "kill@2"), "kill@2");
}

#[test]
fn repro_all_refuses_a_malformed_drill_plan() {
    assert_refused(&run(env!("CARGO_BIN_EXE_repro_all"), &[], "fail@minfe"), "fail@minfe");
}
