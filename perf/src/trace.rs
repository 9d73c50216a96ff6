//! In-memory spans, recorded by the benchmark around its own
//! calls into each layer and written out as JSON lines when a traced run
//! ends. A disabled tracer runs the wrapped call and records nothing, so
//! traced and untraced passes share one body of code.
//!
//! A span can also record CPU time: the calling thread's for calls that
//! stay on one thread, or the whole process's for a section whose calls
//! spawn threads of their own.

use mbavf_inject::json::write_str;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    /// Unique within the run, starting at 1.
    id: u64,
    /// The span that made the call, if any.
    parent: Option<u64>,
    /// Layer call name, e.g. `sim.gpu.run_timed`.
    name: &'static str,
    /// Seconds from the tracer's creation.
    start_s: f64,
    /// Seconds from the tracer's creation.
    end_s: f64,
    /// CPU seconds spent in the span, when its clock records them.
    cpu_s: Option<f64>,
}

impl Span {
    /// Duration in seconds.
    fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Which CPU time a span records besides its wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time only.
    Wall,
    /// CPU time of the calling thread.
    Thread,
    /// CPU time of the whole process.
    Process,
}

impl Clock {
    /// The clock's current reading in seconds (0 for [`Clock::Wall`]).
    fn now(self) -> f64 {
        match self {
            Clock::Wall => 0.0,
            Clock::Thread => crate::cpu::thread_s(),
            Clock::Process => crate::cpu::process_s(),
        }
    }
}

/// Span recorder for one workload's run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer for `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            enabled: true,
            workload,
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { enabled: false, ..Tracer::new("") }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id, to
    /// parent the spans of the calls it makes (0 when disabled).
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        self.span_with(Clock::Wall, name, parent, f)
    }

    /// [`span`](Self::span), also recording CPU time on `clock`.
    pub fn span_with<R>(
        &self,
        clock: Clock,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let cpu0 = clock.now();
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end_s = self.origin.elapsed().as_secs_f64();
        let cpu_s = (clock != Clock::Wall).then(|| clock.now() - cpu0);
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            name,
            start_s,
            end_s,
            cpu_s,
        });
        out
    }

    /// [`span`](Self::span), also returning the call's wall seconds, which
    /// are measured even when the tracer is disabled.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
        let t0 = Instant::now();
        let out = self.span(name, None, |_| f());
        (t0.elapsed().as_secs_f64(), out)
    }

    /// Durations in seconds of every span named `name`, in completion order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span lock");
        spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Summed wall seconds of every span named `name`.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed CPU seconds of every span named `name` that recorded them:
    /// the layer's busy time.
    pub fn cpu_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span lock");
        spans.iter().filter(|s| s.name == name).filter_map(|s| s.cpu_s).sum()
    }

    /// Write every span as one JSON object per line, oldest first.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span lock").clone();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        let mut out = String::with_capacity(spans.len() * 120);
        for s in &spans {
            let _ = write!(out, "{{\"id\": {}, \"parent\": ", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"name\": ");
            write_str(&mut out, s.name);
            out.push_str(", \"workload\": ");
            write_str(&mut out, self.workload);
            let _ = write!(out, ", \"start_s\": {}, \"end_s\": {}", s.start_s, s.end_s);
            match s.cpu_s {
                Some(cpu) => {
                    let _ = writeln!(out, ", \"cpu_s\": {cpu}}}");
                }
                None => out.push_str("}\n"),
            }
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let t = Tracer::new("w");
        let outer = t.span("outer", None, |id| {
            t.span("inner", Some(id), |_| ());
            t.span("inner", Some(id), |_| ());
            id
        });
        assert_eq!(t.durations("inner").len(), 2);
        assert!(t.wall_s("outer") >= t.wall_s("inner"));
        let spans = t.spans.lock().unwrap();
        assert!(spans.iter().filter(|s| s.name == "inner").all(|s| s.parent == Some(outer)));
    }

    #[test]
    fn thread_clock_counts_cpu_time() {
        let t = Tracer::new("w");
        t.span_with(Clock::Thread, "spin", None, |_| {
            let t0 = Instant::now();
            while t0.elapsed().as_millis() < 30 {
                std::hint::black_box(0u64);
            }
        });
        let cpu = t.cpu_s("spin");
        assert!(cpu > 0.01 && cpu <= t.wall_s("spin") + 0.005, "cpu {cpu}");
        assert_eq!(t.cpu_s("missing"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", None, |id| id), 0);
        assert!(t.durations("x").is_empty());
    }
}
