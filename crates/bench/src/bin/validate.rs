//! The ACE-vs-injection differential validation gate (paper Section VII-A,
//! Table III spirit): for every workload × fault mode, compare the ACE
//! model's SDC MB-AVF against injection-measured rates with Wilson error
//! bars, plus the exact per-site checked-rate differential.
//!
//! ```text
//! validate [--workloads dct,fast_walsh,...] [--modes 1,2,4]
//!          [--injections N] [--seed S] [--confidence 0.95]
//!          [--tolerance 5.0] [--scale test|paper] [--json FILE]
//!          [--repro-dir DIR]
//! ```
//!
//! Exit codes: `0` all comparisons agree (or are inconclusive at the given
//! budget), `1` usage or harness error, `2` **confirmed divergence** — the
//! model and the injector decisively disagree somewhere, which should fail
//! CI.
//!
//! With `--repro-dir`, every confirmed divergence also writes repro
//! bundles for the trials behind it (error outcomes of a diverging mode
//! campaign; per-site oracle contradictions of the checked-rate gate), so
//! a red gate arrives with one-command `replay` reproductions attached.

use mbavf_bench::validate::{validate_suite, ValidateConfig};
use mbavf_inject::CampaignConfig;
use mbavf_workloads::{by_name, injection_suite, Scale, Workload};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = injection_suite().iter().map(|w| w.name).collect();
    format!(
        "usage: validate [--workloads A,B,...] [--modes 1,2,4] [--injections N]\n\
         \u{20}               [--seed S] [--confidence C] [--tolerance T]\n\
         \u{20}               [--scale test|paper] [--json FILE] [--repro-dir DIR]\n\
         exit codes: 0 = agreement, 1 = error, 2 = confirmed divergence\n\
         default workloads: {}",
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

struct Args {
    cfg: ValidateConfig,
    workloads: Vec<Workload>,
    json: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { cfg: ValidateConfig::default(), workloads: injection_suite(), json: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workloads" => {
                args.workloads = value()?
                    .split(',')
                    .map(|n| by_name(n).ok_or_else(|| format!("unknown workload {n}")))
                    .collect::<Result<_, _>>()?;
            }
            "--modes" => {
                args.cfg.modes = value()?
                    .split(',')
                    .map(|m| match parse_u64(m)? {
                        b if CampaignConfig::MODE_BITS.contains(&b) => Ok(b as u8),
                        other => Err(format!("mode width {other} out of range (1..=32)")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--injections" => args.cfg.injections = parse_u64(value()?)? as usize,
            "--seed" => args.cfg.seed = parse_u64(value()?)?,
            "--confidence" => {
                let c: f64 = value()?.parse().map_err(|_| "bad --confidence".to_string())?;
                if !(0.0..1.0).contains(&c) || c <= 0.0 {
                    return Err(format!("confidence {c} out of range (0, 1)"));
                }
                args.cfg.confidence = c;
            }
            "--tolerance" => {
                let t: f64 = value()?.parse().map_err(|_| "bad --tolerance".to_string())?;
                if t.is_nan() || t < 1.0 {
                    return Err(format!("tolerance {t} must be >= 1"));
                }
                args.cfg.tolerance = t;
            }
            "--scale" => {
                let v = value()?;
                args.cfg.scale =
                    Scale::parse(v).ok_or_else(|| format!("unknown scale {v} (test|paper)"))?;
            }
            "--json" => args.json = Some(value()?.clone()),
            "--repro-dir" => {
                args.cfg.repro_dir = Some(std::path::PathBuf::from(value()?));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        return Err("no workloads selected".to_string());
    }
    if args.cfg.modes.is_empty() {
        return Err("no fault modes selected".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // `validate ... | head` must end quietly, not panic on a broken pipe.
    mbavf_inject::reset_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "validating {} workloads x {} modes, {} injections each ...",
        args.workloads.len(),
        args.cfg.modes.len(),
        args.cfg.injections
    );
    let report = validate_suite(&args.workloads, &args.cfg);
    println!("{}", report.render());

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if report.confirmed_divergence() {
        eprintln!("CONFIRMED DIVERGENCE: the ACE model and the injector disagree");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
