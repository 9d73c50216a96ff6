//! Rendering results as JSON, and the machine stamp recorded with them.

use crate::stats::Summary;
use mbavf_inject::json::write_str;
use std::fmt::Write as _;
use std::path::Path;

/// A metric value as JSON: finite numbers as measured, anything else as 0
/// (a timing over an empty sample).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> String {
    let mut out = format!("{{\"value\": {}, \"unit\": ", num(value));
    write_str(&mut out, unit);
    out.push('}');
    out
}

/// A metric with its sample statistics: median as the value, quartiles,
/// sample count, and the highest percentile with ten samples beyond it.
pub fn summarized(s: &Summary, unit: &str) -> String {
    let mut out = metric(s.median, unit);
    out.pop();
    let _ =
        write!(out, ", \"n\": {}, \"q1\": {}, \"q3\": {}, \"tail\": ", s.n, num(s.q1), num(s.q3));
    match s.tail {
        Some((p, v)) => {
            let _ = write!(out, "{{\"percentile\": {p}, \"value\": {}}}", num(v));
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// A JSON object from already-rendered `(key, value)` pairs.
pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, k);
        out.push_str(": ");
        out.push_str(&v);
    }
    out.push('}');
    out
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// The machine and checkout a result was measured on. The commit is read
/// only from a git repository rooted in the working directory, so a
/// checkout without one never makes git search the directories above it.
pub fn stamp(work: &Path) -> String {
    let commit = Path::new(".git")
        .exists()
        .then(|| std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok())
        .flatten()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown", |(_, m)| m.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    object([
        ("commit", string(&commit)),
        ("nproc", nproc.to_string()),
        ("cpu", string(cpu)),
        ("kernel", string(kernel.trim())),
        ("work_dir_fs", string(&fs_type(work))),
    ])
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            // Mount points escape spaces as \040.
            let point = point.replace("\\040", " ");
            path.starts_with(&point).then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_inject::json::parse;

    #[test]
    fn rendered_objects_parse_back() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let doc = object([
            ("wall_s", summarized(&s, "s")),
            ("rss", metric(12.5, "MB")),
            ("name", string("a \"quoted\" name")),
        ]);
        let v = parse(&doc).expect("valid JSON");
        let wall = v.get("wall_s").unwrap();
        assert_eq!(wall.get("n").and_then(|n| n.as_u64()), Some(3));
        assert_eq!(wall.get("tail"), Some(&mbavf_inject::json::Value::Null));
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("a \"quoted\" name"));
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(0.25), "0.25");
    }

    #[test]
    fn machine_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}
