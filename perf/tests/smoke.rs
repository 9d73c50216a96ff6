//! End-to-end smoke test of the `perf` binary: every workload at tiny
//! budgets, untraced and traced, each in a child process, must finish
//! correct and report every metric it declares.

use mbavf_inject::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] =
    ["exhibits", "campaign_kernel", "campaign_durable", "campaign_isolated"];

/// Run `perf --workload all --smoke` with `--trace` and return the parsed
/// result line and the collected results file.
fn run_all(trace: bool, out: &Path) -> (Value, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", "all", "--smoke", "--seed", "3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--out"])
        .arg(out)
        .output()
        .expect("run perf");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "perf failed: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a result line");
    let result = parse(line).expect("the result line is JSON");
    let file = out.join(if trace { "BENCH_layers.json" } else { "BENCH_e2e.json" });
    let doc = parse(&std::fs::read_to_string(&file).expect("results file")).expect("JSON file");
    (result, doc)
}

fn num(v: &Value) -> f64 {
    match v.get("value") {
        Some(Value::Num(raw)) => raw.parse().expect("a number"),
        other => panic!("not a metric value: {other:?}"),
    }
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("workloads").and_then(|w| w.get(name)).unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn smoke_runs_are_correct_and_report_every_metric() {
    let out = out_dir("smoke-e2e");
    let (result, doc) = run_all(false, &out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() > 0);
    assert!(doc.get("stamp").and_then(|s| s.get("work_dir_fs")).is_some());
    for name in WORKLOADS {
        let w = workload(&doc, name);
        assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0), "{name}");
        let digest = if name == "exhibits" { "exhibits_digest" } else { "records_digest" };
        assert!(w.get(digest).and_then(Value::as_str).is_some_and(|d| d.starts_with("0x")));
        let e2e = w.get("end_to_end").expect("end-to-end metrics");
        for metric in ["wall_s", "setup_s", "peak_rss_mb"] {
            let v = num(e2e.get(metric).unwrap_or_else(|| panic!("{name}: {metric} missing")));
            assert!(v > 0.0, "{name}: {metric} = {v}");
        }
        let metrics = result.get("metrics").expect("metrics");
        assert!(metrics.get(&format!("{name}.wall_s")).is_some(), "{name}");
    }
}

#[test]
fn traced_smoke_runs_report_every_layer_metric() {
    let out = out_dir("smoke-layers");
    let (result, doc) = run_all(true, &out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let Some(Value::Obj(declared)) = workload(&doc, "exhibits").get("per_layer") else {
        panic!("exhibits per-layer metrics missing");
    };
    assert!(declared.len() >= 40, "only {} layer metrics", declared.len());
    for name in WORKLOADS {
        let layers = workload(&doc, name).get("per_layer").expect("per-layer metrics");
        for metric in declared.keys() {
            let v = num(layers.get(metric).unwrap_or_else(|| panic!("{name}: {metric} missing")));
            assert!(v.is_finite(), "{name}: {metric}");
        }
        assert!(out.join(format!("{name}.spans.jsonl")).exists(), "{name}: no spans");
    }
    // The process pass really spawned the production worker path.
    let isolated = workload(&doc, "campaign_isolated").get("per_layer").unwrap();
    assert!(num(isolated.get("inject.supervisor.worker_spawns").unwrap()) > 0.0);
    assert!(num(isolated.get("inject.supervisor.audit.records").unwrap()) > 0.0);
    // Each workload's own layers did work.
    let exhibits = workload(&doc, "exhibits").get("per_layer").unwrap();
    for metric in ["core.analysis.fig11.busy_s", "exhibits.fig11.wall_s", "sim.gpu.cycles_per_s"] {
        assert!(num(exhibits.get(metric).unwrap()) > 0.0, "exhibits: {metric}");
    }
    for name in ["campaign_kernel", "campaign_durable", "campaign_isolated"] {
        let layers = workload(&doc, name).get("per_layer").unwrap();
        for metric in ["sim.arena.trial_us.p50", "inject.checkpoint.wal.append_us.p50"] {
            assert!(num(layers.get(metric).unwrap()) > 0.0, "{name}: {metric}");
        }
    }
    // Spans parse and name their workload.
    let spans = std::fs::read_to_string(out.join("campaign_durable.spans.jsonl")).unwrap();
    let first = parse(spans.lines().next().expect("a span")).expect("span JSON");
    assert_eq!(first.get("workload").and_then(Value::as_str), Some("campaign_durable"));
}

#[test]
fn unknown_workloads_are_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", "nope"])
        .output()
        .expect("run perf");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result may be printed");
}
