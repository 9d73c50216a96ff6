//! Campaign hot-path microbenchmark: reusable arena vs. lockstep trial
//! batching, and both against the golden-run shortcuts a campaign takes.
//!
//! Measures the same pre-sampled fault sites through three trial paths —
//! the sequential arena path (one [`TrialArena`] reset between trials via
//! dirty-page tracking), the batched path (a [`TrialBatch`] decoding each
//! golden instruction once for a whole lockstep group), and the shortcut
//! arena path a width-1 campaign runs (unread sites settled from the
//! golden register-use profile, read sites run from their fault's
//! workgroup to the first golden boundary they rejoin). Serial
//! `run_campaign` calls at width 1 and at the batch width then time both
//! engines with their campaign shortcuts, golden double run included. The
//! results go to a machine-readable `BENCH_campaign.json`:
//!
//! ```json
//! {
//!   "workload": "fast_walsh",
//!   "trials": 300,
//!   "arena": {"trials_per_sec": ..., "allocs_per_trial": ...},
//!   "batch": {"width": 8, "trials_per_sec": ..., "allocs_per_trial": ...,
//!             "lockstep_completed": ..., "retired_to_sequential": ...},
//!   "batch_speedup": ...,
//!   "shortcut": {"trials_per_sec": ..., "allocs_per_trial": ...,
//!                "settled": ..., "stopped_early": ...,
//!                "campaign_trials_per_sec": ..., "campaign_batch_trials_per_sec": ...,
//!                "campaign_batch_speedup": ...}
//! }
//! ```
//!
//! Every trial's verdict is cross-checked between the paths; any
//! disagreement is a hard failure (the batch and the shortcuts must be
//! optimizations, not reinterpretations). `--min-batch-speedup X` gates the
//! raw batch-vs-arena speedup for CI; `campaign_batch_speedup` says whether
//! lockstep batching still pays once campaigns take the shortcuts.
//!
//! ```text
//! campaign_bench [--workload NAME] [--trials N] [--out FILE]
//!                [--batch-width W] [--min-batch-speedup X]
//! ```

use mbavf_inject::campaign::{CampaignConfig, OutcomeKind, SiteSampler};
use mbavf_inject::{run_campaign, RunnerConfig};
use mbavf_sim::interp::{run_golden, InterpError, Termination};
use mbavf_sim::profile::profile_golden;
use mbavf_sim::{TrialArena, TrialBatch, TrialResult};
use mbavf_workloads::by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapped with an allocation counter, so the benchmark
/// can report *allocations per trial* — the quantity the arena exists to
/// eliminate — not just wall-clock.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: campaign_bench [--workload NAME] [--trials N] [--out FILE]\n\
                       [--batch-width W] [--min-batch-speedup X]";

struct PathStats {
    trials_per_sec: f64,
    allocs_per_trial: f64,
}

/// One verdict classification shared by every measured path, so a
/// cross-check failure always means the execution diverged, never the
/// bookkeeping.
fn classify(result: Result<TrialResult, InterpError>) -> (OutcomeKind, bool) {
    match result {
        Ok(run) => {
            let kind = if run.termination == Termination::Hang {
                OutcomeKind::Hang
            } else if run.output_matches {
                OutcomeKind::Masked
            } else {
                OutcomeKind::Sdc
            };
            (kind, run.injected_value_read)
        }
        Err(InterpError::Crash { .. }) => (OutcomeKind::Crash, false),
        Err(e) => panic!("trial path refused a sampled site: {e}"),
    }
}

fn measure(trials: usize, mut trial: impl FnMut(usize)) -> PathStats {
    trial(0); // warm-up: fault the lazy setup out of the measured region
    let alloc0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for t in 0..trials {
        trial(t);
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let allocs = ALLOCS.load(Ordering::Relaxed) - alloc0;
    PathStats {
        trials_per_sec: trials as f64 / secs,
        allocs_per_trial: allocs as f64 / trials as f64,
    }
}

fn main() -> ExitCode {
    let mut workload = "fast_walsh".to_string();
    let mut trials = 300usize;
    let mut out = "BENCH_campaign.json".to_string();
    let mut batch_width = 8usize;
    let mut min_batch_speedup: Option<f64> = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = match flag.as_str() {
            "--workload" => value().map(|v| workload = v),
            "--trials" => value()
                .and_then(|v| v.parse().map(|n| trials = n).map_err(|e| format!("--trials: {e}"))),
            "--out" => value().map(|v| out = v),
            "--batch-width" => value().and_then(|v| {
                v.parse().map_err(|e| format!("--batch-width: {e}")).and_then(|n: usize| match n {
                    0 => Err("--batch-width must be at least 1".to_string()),
                    n => {
                        batch_width = n;
                        Ok(())
                    }
                })
            }),
            "--min-batch-speedup" => value().and_then(|v| {
                v.parse()
                    .map(|x| min_batch_speedup = Some(x))
                    .map_err(|e| format!("--min-batch-speedup: {e}"))
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other}\n{USAGE}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if trials == 0 {
        eprintln!("--trials must be positive");
        return ExitCode::FAILURE;
    }

    let Some(w) = by_name(&workload) else {
        eprintln!("unknown workload {workload}");
        return ExitCode::FAILURE;
    };
    let cfg = CampaignConfig { seed: 0xBE9C, injections: trials, ..CampaignConfig::default() };

    // Golden reference + sampler, set up exactly as a campaign would.
    let mut inst = w.build(cfg.scale);
    let program = inst.program.clone();
    let wgs = inst.workgroups;
    let golden = run_golden(&program, &mut inst.mem, wgs);
    let max_steps = golden.per_wg_retired.iter().copied().max().unwrap_or(1) * cfg.hang_factor;
    let sampler = match SiteSampler::new(&golden.per_wg_retired, program.num_vregs()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sites: Vec<_> = (0..trials as u64).map(|t| sampler.sample(cfg.seed, t)).collect();

    // Both paths classify the identical site list; verdicts must agree.
    let fresh = w.build(cfg.scale);
    let mut arena = TrialArena::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob);
    let mut arena_verdicts: Vec<(OutcomeKind, bool)> = Vec::with_capacity(trials + 1);
    let arena_stats = measure(trials, |t| {
        arena_verdicts.push(classify(arena.run_trial(
            sites[t].injection(1),
            max_steps,
            &golden.output,
        )));
    });

    // Batched lockstep path: the identical site list in groups of
    // `batch_width`, one decoded golden stream per group.
    let fresh = w.build(cfg.scale);
    let mut batch =
        TrialBatch::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob, batch_width);
    let mut injections = Vec::with_capacity(batch_width);
    let mut batch_verdicts: Vec<(OutcomeKind, bool)> = Vec::with_capacity(trials);

    // Warm-up group, mirroring measure()'s warm-up trial: fault the lazy
    // setup (lane forks, dirty-page growth) out of the measured region.
    injections.extend(sites[..trials.min(batch_width)].iter().map(|s| s.injection(1)));
    batch.run_batch(&injections, max_steps, &golden.output);

    let alloc0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for group in sites.chunks(batch_width) {
        injections.clear();
        injections.extend(group.iter().map(|s| s.injection(1)));
        for result in batch.run_batch(&injections, max_steps, &golden.output) {
            batch_verdicts.push(classify(result));
        }
    }
    let batch_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let batch_stats = PathStats {
        trials_per_sec: trials as f64 / batch_secs,
        allocs_per_trial: (ALLOCS.load(Ordering::Relaxed) - alloc0) as f64 / trials as f64,
    };

    // Shortcut arena path: settle unread sites from the profile, run read
    // ones between golden workgroup boundaries — as a width-1 campaign
    // does.
    let mut profiled = w.build(cfg.scale);
    let profile = profile_golden(&profiled.program, &mut profiled.mem, profiled.workgroups);
    let fresh = w.build(cfg.scale);
    let mut arena = TrialArena::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob);
    let mut shortcut_verdicts: Vec<(OutcomeKind, bool)> = Vec::with_capacity(trials + 1);
    let (mut settled, mut stopped_early) = (0u64, 0u64);
    let shortcut_stats = measure(trials, |t| {
        let s = sites[t];
        shortcut_verdicts.push(if profile.site_is_read(s.wg, s.after_retired, s.reg, s.lane) {
            let run = arena.run_trial_from_boundary(
                s.injection(1),
                max_steps,
                &golden.output,
                profile.boundary_images(),
            );
            classify(run.map(|(result, stopped)| {
                stopped_early += u64::from(stopped);
                result
            }))
        } else {
            settled += 1;
            (OutcomeKind::Masked, false)
        });
    });

    // Drop the warm-up entries, then insist on bit-identical verdicts.
    let paths = arena_verdicts[1..].iter().zip(&batch_verdicts).zip(&shortcut_verdicts[1..]);
    for (t, ((a, b), c)) in paths.enumerate() {
        if a != b || a != c {
            eprintln!("trial {t}: arena {a:?}, batch {b:?}, shortcut {c:?} — the paths diverged");
            return ExitCode::FAILURE;
        }
    }

    // The same trials as serial campaigns, each engine with its shortcuts.
    let campaign_tps = |batch_width| {
        let runner = RunnerConfig { batch_width, ..RunnerConfig::serial() };
        let t0 = Instant::now();
        let report = run_campaign(&w, &cfg, &runner);
        report.map(|_| trials as f64 / t0.elapsed().as_secs_f64().max(1e-9))
    };
    let (campaign_1, campaign_w) = match (campaign_tps(1), campaign_tps(batch_width)) {
        (Ok(one), Ok(wide)) => (one, wide),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{workload}: campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let batch_speedup = batch_stats.trials_per_sec / arena_stats.trials_per_sec.max(1e-9);
    let doc = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"trials\": {trials},\n  \
         \"arena\": {{\"trials_per_sec\": {:.1}, \"allocs_per_trial\": {:.2}}},\n  \
         \"batch\": {{\"width\": {batch_width}, \"trials_per_sec\": {:.1}, \
         \"allocs_per_trial\": {:.2}, \"lockstep_completed\": {}, \
         \"retired_to_sequential\": {}}},\n  \
         \"batch_speedup\": {batch_speedup:.2},\n  \
         \"shortcut\": {{\"trials_per_sec\": {:.1}, \"allocs_per_trial\": {:.2}, \
         \"settled\": {settled}, \"stopped_early\": {stopped_early}, \
         \"campaign_trials_per_sec\": {campaign_1:.1}, \
         \"campaign_batch_trials_per_sec\": {campaign_w:.1}, \
         \"campaign_batch_speedup\": {:.2}}}\n}}\n",
        arena_stats.trials_per_sec,
        arena_stats.allocs_per_trial,
        batch_stats.trials_per_sec,
        batch_stats.allocs_per_trial,
        batch.lockstep_completed(),
        batch.retired_to_sequential(),
        shortcut_stats.trials_per_sec,
        shortcut_stats.allocs_per_trial,
        campaign_w / campaign_1.max(1e-9),
    );
    print!("{doc}");
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");

    if let Some(min) = min_batch_speedup {
        if batch_speedup < min {
            eprintln!(
                "batch speedup {batch_speedup:.2}x (width {batch_width}) below required {min:.2}x"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
