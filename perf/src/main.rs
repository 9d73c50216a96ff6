//! `perf` — end-to-end and per-layer benchmark of the MB-AVF reproduction.
//!
//! ```text
//! perf --workload NAME[,NAME...]|all [--seed S] [--seconds N] [--trace 0|1]
//!      [--smoke] [--out DIR]
//! ```
//!
//! Workloads: `exhibits` (regenerate every exhibit as `repro_all` does at CI
//! scale), `campaign_kernel`, `campaign_durable` and `campaign_isolated`
//! (the campaign runner in three configurations). One workload runs in this
//! process: untraced passes for `--seconds` (at least one `exhibits` pass or
//! three campaign passes; two under `--smoke`), then with `--trace 1`
//! separate traced passes, the layer probes and the ablation passes.
//! Several workloads run one after another, each in a fresh child process
//! of this binary, and their results are collected into
//! `DIR/BENCH_e2e.json` (untraced) or `DIR/BENCH_layers.json` (traced).
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics untraced,
//! the per-layer metrics traced. The line before it is the workload's full
//! result (medians with quartiles, sample counts, digests, machine stamp),
//! also written to `DIR/<workload>.json`; a traced run writes its spans to
//! `DIR/<workload>.spans.jsonl`. `DIR` defaults to `target/perf-work`, which
//! also holds the campaigns' checkpoints.
//!
//! The binary also serves as the campaign supervisor's worker: the hidden
//! `__worker` and `__serve` entry points are routed to the production
//! `worker_main` and `serve_main`, and each routed invocation appends a line
//! to the file named by `PERF_SPAWN_LOG`.

mod campaigns;
mod cpu;
mod exhibits;
mod probes;
mod report;
mod stats;
mod tally;
mod trace;

use mbavf_inject::{json, serve_main, worker_main};
use report::{metric, object, string, summarized};
use stats::Summary;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tally::Tally;
use trace::Tracer;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] =
    ["exhibits", "campaign_kernel", "campaign_durable", "campaign_isolated"];

/// Which workloads measure a per-layer metric. On any other workload the
/// layer does no work, and the metric reads 0.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Owner {
    All,
    Exhibits,
    Campaigns,
}

/// Every per-layer metric with its unit and the workloads that measure it.
const LAYERS: [(&str, &str, Owner); 47] = [
    ("trace.overhead_share", "fraction", Owner::All),
    ("workloads.build_ms", "ms", Owner::All),
    ("sim.interp.golden_ms", "ms", Owner::All),
    ("sim.interp.golden_minst_per_s", "Minst/s", Owner::All),
    ("sim.arena.trial_us.p50", "us", Owner::All),
    ("sim.arena.trial_us.p99", "us", Owner::All),
    ("sim.batch.trial_us", "us", Owner::All),
    ("sim.batch.lockstep_share", "fraction", Owner::All),
    ("sim.mem.reset_us", "us", Owner::All),
    ("inject.campaign.sample_ns", "ns", Owner::All),
    ("inject.checkpoint.wal.append_us.p50", "us", Owner::All),
    ("inject.checkpoint.wal.append_us.p99", "us", Owner::All),
    ("inject.checkpoint.wal.bytes_per_trial", "B", Owner::All),
    ("inject.checkpoint.save_ms", "ms", Owner::All),
    ("inject.supervisor.merge.offer_ns", "ns", Owner::All),
    ("inject.runner.residual_share", "fraction", Owner::Campaigns),
    ("sim.batch.speedup", "x", Owner::Campaigns),
    ("inject.checkpoint.share", "fraction", Owner::Campaigns),
    ("inject.supervisor.share", "fraction", Owner::Campaigns),
    ("inject.supervisor.audit.share", "fraction", Owner::Campaigns),
    ("inject.supervisor.worker_spawns", "count", Owner::Campaigns),
    ("inject.supervisor.audit.records", "count", Owner::Campaigns),
    ("exhibits.residual_share", "fraction", Owner::Exhibits),
    ("sim.interp.busy_s", "s", Owner::Exhibits),
    ("sim.gpu.busy_s", "s", Owner::Exhibits),
    ("sim.gpu.cycles_per_s", "cycles/s", Owner::Exhibits),
    ("sim.liveness.busy_s", "s", Owner::Exhibits),
    ("sim.extract.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig4.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig5.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig6.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig8.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig9.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig10.busy_s", "s", Owner::Exhibits),
    ("core.analysis.fig11.busy_s", "s", Owner::Exhibits),
    ("inject.interference.busy_s", "s", Owner::Exhibits),
    ("bench.validate.busy_s", "s", Owner::Exhibits),
    ("exhibits.simulate.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig4.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig5.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig6.wall_s", "s", Owner::Exhibits),
    ("exhibits.table2.wall_s", "s", Owner::Exhibits),
    ("exhibits.validate.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig8.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig9.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig10.wall_s", "s", Owner::Exhibits),
    ("exhibits.fig11.wall_s", "s", Owner::Exhibits),
];

/// What one workload's run measured.
pub struct Measured {
    /// Wall seconds of each untraced pass.
    pub walls: Vec<f64>,
    /// Set-up seconds (a median over repeated set-ups).
    pub setup_s: f64,
    /// Committed trials per second of each untraced pass (campaigns only).
    pub trials_per_s: Vec<f64>,
    /// What the digest covers: `records_digest` or `exhibits_digest`.
    pub digest_name: &'static str,
    /// Operations attempted and failed, and the digest of their output.
    pub tally: Tally,
    /// Per-layer metrics of the traced run (empty untraced).
    pub layers: BTreeMap<String, f64>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perf --workload NAME[,NAME...]|all [--seed S] [--seconds N] \
                     [--trace 0|1] [--smoke] [--out DIR]\n\
                     workloads: exhibits, campaign_kernel, campaign_durable, campaign_isolated";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/perf-work"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" | "--workloads" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    WORKLOADS.iter().map(|w| w.to_string()).collect()
                } else {
                    v.split(',').map(str::to_string).collect()
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                args.seconds = match value()?.parse::<f64>() {
                    Ok(s) if s >= 0.0 && s.is_finite() => s,
                    _ => return Err("--seconds: not a non-negative number".into()),
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.workloads.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if let Some(bad) = args.workloads.iter().find(|w| !WORKLOADS.contains(&w.as_str())) {
        return Err(format!("unknown workload {bad}\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The supervisor re-executes this binary as its worker; route the hidden
    // entry points before anything else, as the `campaign` binary does.
    let entry: Option<fn(&[String]) -> i32> = match argv.first().map(String::as_str) {
        Some("__worker") => Some(worker_main),
        Some("__serve") => Some(serve_main),
        _ => None,
    };
    if let Some(entry) = entry {
        log_spawn(&argv[0]);
        std::process::exit(entry(&argv[1..]));
    }
    // Fault drills are read from MBAVF_* variables; none may reach a
    // measured run or the workers it spawns.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MBAVF_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workloads.as_slice() {
        [one] => run_one(&args, one),
        many => run_many(&args, many),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Append one line naming the routed entry point to the spawn log.
fn log_spawn(entry: &str) {
    if let Some(path) = std::env::var_os(campaigns::SPAWN_LOG_ENV) {
        let line = format!("{entry} {}\n", std::process::id());
        let _ = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }
}

/// Whether to start another pass: until `min_passes` have run, then while
/// a pass as long as the last one would still end within `seconds`.
pub fn more_passes(walls: &[f64], min_passes: usize, t0: Instant, seconds: f64) -> bool {
    let last = walls.last().copied().unwrap_or(0.0);
    walls.len() < min_passes || t0.elapsed().as_secs_f64() + last <= seconds
}

/// Run one workload in this process and print its result.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    // Smoke runs make exactly their minimum of passes; otherwise passes
    // repeat for the requested seconds.
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let work = args.out.as_path();
    let m = match campaigns::Spec::new(name, args.seed, args.smoke) {
        Some(spec) => campaigns::run(&spec, seconds, args.trace, work)?,
        None => {
            exhibits::run(&exhibits::Plan::new(args.seed, args.smoke), seconds, args.trace, work)?
        }
    };
    let owner = if name == "exhibits" { Owner::Exhibits } else { Owner::Campaigns };
    let rss = report::peak_rss_mb();

    let wall = Summary::of(&m.walls).ok_or("no pass completed")?;
    let mut e2e = vec![
        ("wall_s", summarized(&wall, "s")),
        ("setup_s", metric(m.setup_s, "s")),
        ("peak_rss_mb", metric(rss, "MB")),
    ];
    if let Some(tps) = Summary::of(&m.trials_per_s) {
        e2e.push(("trials_per_s", summarized(&tps, "1/s")));
    }
    let mut layers = Vec::new();
    if args.trace {
        let mut measured = m.layers.clone();
        for (layer, unit, by) in LAYERS {
            let value = match measured.remove(layer) {
                Some(v) => v,
                None if by != Owner::All && by != owner => 0.0,
                None => return Err(format!("{name}: layer metric {layer} was not measured")),
            };
            layers.push((layer, value, unit));
        }
        if let Some(extra) = measured.keys().next() {
            return Err(format!("{name}: layer metric {extra} is not declared"));
        }
    }

    let per_layer = object(layers.iter().map(|(k, v, u)| (*k, metric(*v, u))));
    let digest = format!("\"{:#018x}\"", m.tally.digest());
    let detail = object([
        ("workload", string(name)),
        ("seed", args.seed.to_string()),
        ("seconds", report::num(seconds)),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
        ("correct", (m.tally.failed == 0).to_string()),
        ("attempted", m.tally.attempted.to_string()),
        ("failed", m.tally.failed.to_string()),
        (m.digest_name, digest),
        ("end_to_end", object(e2e.iter().map(|(k, v)| (*k, v.clone())))),
        (
            "pass_walls_s",
            format!("[{}]", m.walls.iter().map(|w| report::num(*w)).collect::<Vec<_>>().join(", ")),
        ),
        ("per_layer", per_layer.clone()),
        ("stamp", report::stamp(work)),
    ]);
    let io = |e: std::io::Error| format!("{}: {e}", work.display());
    std::fs::write(work.join(format!("{name}.json")), format!("{detail}\n")).map_err(io)?;
    if let Some(t) = &m.tracer {
        t.write_jsonl(&work.join(format!("{name}.spans.jsonl"))).map_err(io)?;
    }

    eprintln!(
        "{name}: {} passes, wall median {:.3}s [{:.3}, {:.3}], setup {:.3}s, peak RSS {:.1} MB, \
         {}/{} failed, {} {:#018x}",
        wall.n,
        wall.median,
        wall.q1,
        wall.q3,
        m.setup_s,
        rss,
        m.tally.failed,
        m.tally.attempted,
        m.digest_name,
        m.tally.digest()
    );
    let metrics = if args.trace {
        per_layer
    } else {
        object([
            ("wall_s", metric(wall.median, "s")),
            ("setup_s", metric(m.setup_s, "s")),
            ("peak_rss_mb", metric(rss, "MB")),
        ])
    };
    println!("{detail}");
    println!("{}", result_line(m.tally.failed == 0, m.tally.attempted, m.tally.failed, &metrics));
    Ok(())
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics.to_string()),
    ])
}

/// Run each workload in a fresh child process of this binary, one at a
/// time, and collect their results into one stamped file.
fn run_many(args: &Args, names: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut details = Vec::new();
    let mut metrics = Vec::new();
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &report::num(args.seconds)])
            .args(["--trace", if args.trace { "1" } else { "0" }, "--out"])
            .arg(&args.out)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("{name}: cannot spawn: {e}"))?;
        if !out.status.success() {
            return Err(format!("{name}: exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines = stdout.lines().rev();
        let (last, detail) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
        let result = json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
        correct &= result.get("correct").and_then(json::Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(json::Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(json::Value::as_u64).unwrap_or(0);
        if let Some(json::Value::Obj(m)) = result.get("metrics") {
            for (k, v) in m {
                let value = match v.get("value") {
                    Some(json::Value::Num(raw)) => raw.clone(),
                    _ => "0".to_string(),
                };
                let unit = v.get("unit").and_then(json::Value::as_str).unwrap_or("");
                metrics.push((
                    format!("{name}.{k}"),
                    format!("{{\"value\": {value}, \"unit\": {}}}", string(unit)),
                ));
            }
        }
        details.push((name.as_str(), detail.to_string()));
    }
    // One workload per line, so a checked-in baseline diffs line by line.
    let file = if args.trace { "BENCH_layers.json" } else { "BENCH_e2e.json" };
    let rows: Vec<String> =
        details.iter().map(|(n, d)| format!("    {}: {d}", string(n))).collect();
    let doc = format!(
        "{{\n  \"stamp\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        report::stamp(&args.out),
        rows.join(",\n")
    );
    let path = args.out.join(file);
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    let metrics = object(metrics.iter().map(|(k, v)| (k.as_str(), v.clone())));
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn benchmark_arguments_parse() {
        let a = parse_args(&argv(&[
            "--workload",
            "campaign_kernel",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, ["campaign_kernel"]);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 20.0, true, false));
        let a = parse_args(&argv(&["--workload", "all", "--smoke"])).unwrap();
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        assert!(a.smoke);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "exhibits", "--trace", "2"],
            &["--workload", "exhibits", "--seconds", "-1"],
            &["--workload", "exhibits", "--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn layer_table_names_are_unique_and_valid() {
        let mut names: Vec<&str> = LAYERS.iter().map(|l| l.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
        for (name, unit, _) in LAYERS {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_declares_what_this_binary_reports() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let list = |key: &str, field: &str| -> Vec<String> {
            let items = doc.get(key).and_then(json::Value::as_arr).expect(key);
            items
                .iter()
                .map(|m| m.get(field).and_then(json::Value::as_str).unwrap().into())
                .collect()
        };
        assert_eq!(list("workloads", "name"), WORKLOADS);
        assert_eq!(list("per_layer", "name"), LAYERS.map(|l| l.0));
        assert_eq!(list("per_layer", "unit"), LAYERS.map(|l| l.1));
        assert_eq!(list("end_to_end", "name"), ["wall_s", "setup_s", "peak_rss_mb"]);
        assert_eq!(list("end_to_end", "unit"), ["s", "s", "MB"]);
    }

    #[test]
    fn result_line_parses_back() {
        let line = result_line(true, 10, 0, &object([("wall_s", metric(1.25, "s"))]));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(json::Value::as_u64), Some(10));
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(json::Value::as_str), Some("s"));
    }
}
