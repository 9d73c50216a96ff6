//! End-to-end distribution checks for the residency-weighted (v2)
//! fault-site sampler, driven against the deliberately lopsided drill
//! workload.
//!
//! The drill's per-workgroup retirement is cubically skewed (64 : 27 : 8 :
//! 1 at four workgroups). The v1 sampler drew the workgroup uniformly and
//! would hand the nearly idle tail a flat 25% of all injections — a 20x
//! over-sampling per retired instruction. These tests measure what an
//! actual campaign does, against retirement counts measured independently
//! of the campaign engine (by single-stepping each workgroup's wavefront).

use mbavf_inject::campaign::{CampaignConfig, SiteSampler};
use mbavf_inject::{run_campaign, CancelToken, RunnerConfig};
use mbavf_sim::exec::{step, NullPorts, StepCtx, Wavefront};
use mbavf_sim::profile::profile_golden;
use mbavf_workloads::{lopsided_drill, Scale, Workload};

/// Retired-instruction count per workgroup, measured with the bare
/// simulator — no campaign machinery involved.
fn measured_retirement(w: &Workload) -> Vec<u64> {
    let mut inst = w.build(Scale::Test);
    let program = inst.program.clone();
    let wgs = inst.workgroups;
    (0..wgs)
        .map(|wg| {
            let mut wf = Wavefront::launch(&program, wg, 0, wgs);
            while !wf.done {
                let mut ctx =
                    StepCtx { mem: &mut inst.mem, trace: None, ports: &mut NullPorts, now: 0 };
                step(&mut wf, &program, &mut ctx);
            }
            wf.retired
        })
        .collect()
}

/// A real campaign's per-workgroup injection counts must track the
/// per-workgroup retirement shares, and every sampled site must fall
/// inside its workgroup's actual execution.
#[test]
fn campaign_injections_track_retirement_shares() {
    let w = lopsided_drill();
    let retired = measured_retirement(&w);
    assert_eq!(retired.len(), 4);
    let total: u64 = retired.iter().sum();

    let cfg = CampaignConfig { seed: 0x10B5_1DED, injections: 4000, ..CampaignConfig::default() };
    let report = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let mut counts = vec![0u64; retired.len()];
    for r in &report.summary.records {
        counts[r.site.wg as usize] += 1;
        assert!(
            r.site.after_retired < retired[r.site.wg as usize],
            "trial {}: site after {} retired, but wg {} only retires {}",
            r.trial,
            r.site.after_retired,
            r.site.wg,
            retired[r.site.wg as usize]
        );
    }

    let n = report.summary.records.len() as f64;
    for (wg, (&count, &ret)) in counts.iter().zip(&retired).enumerate() {
        let got = count as f64 / n;
        let want = ret as f64 / total as f64;
        assert!(
            (got - want).abs() < 0.02,
            "wg {wg}: injected share {got:.4} vs retirement share {want:.4} \
             (counts {counts:?}, retired {retired:?})"
        );
    }

    // The discriminating assertion: the idle tail's share. The v1 sampler
    // gave workgroup 3 a flat 1/4 of all injections; its true retirement
    // share here is ~1%. Anything near uniform means the bias is back.
    let tail = counts[3] as f64 / n;
    assert!(tail < 0.05, "workgroup 3 drew {tail:.3} of injections — v1-style uniform bias");
}

/// The profile's exact read fraction is the one the v2 sampler draws: the
/// pooled ratio over every retired instruction, in which the busy
/// workgroup weighs by its residency. A mean of per-workgroup ratios (the
/// v1 weighting) reads 0.5389 here, against the pooled 0.5821.
#[test]
fn exact_read_fraction_matches_the_residency_weighted_sampler() {
    let w = lopsided_drill();
    let mut inst = w.build(Scale::Test);
    let profile = profile_golden(&inst.program, &mut inst.mem, inst.workgroups);
    let exact = profile.read_before_overwrite_probability();
    assert!((exact - 0.5821).abs() < 5e-5, "exact read fraction {exact:.6}");

    let retired: Vec<u64> = profile.per_wg.iter().map(|wg| wg.retired).collect();
    let sampler = SiteSampler::new(&retired, profile.num_vregs).unwrap();
    const DRAWS: u64 = 200_000;
    let read = (0..DRAWS)
        .filter(|&trial| {
            let s = sampler.sample(0xACE5, trial);
            profile.site_is_read(s.wg, s.after_retired, s.reg, s.lane)
        })
        .count();
    // One standard error of the sampled fraction is about 0.0011.
    let sampled = read as f64 / DRAWS as f64;
    assert!((sampled - exact).abs() < 0.005, "sampled {sampled:.4} vs exact {exact:.4}");
}

/// The lopsided workload obeys the same engine guarantees as the suite:
/// bit-identical records at any thread count, and kill/resume equivalence.
#[test]
fn lopsided_campaigns_are_thread_and_interrupt_invariant() {
    let w = lopsided_drill();
    let cfg = CampaignConfig { seed: 0x10B5, injections: 60, ..CampaignConfig::default() };
    let serial = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    for threads in [2, 5] {
        let par =
            run_campaign(&w, &cfg, &RunnerConfig { threads, ..RunnerConfig::default() }).unwrap();
        assert_eq!(par.summary, serial.summary, "threads {threads}");
    }

    let dir = std::env::temp_dir().join("mbavf-sampling-dist-resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("camp.json");
    let interrupted = run_campaign(
        &w,
        &cfg,
        &RunnerConfig {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 5,
            cancel: CancelToken::limited(23),
            ..RunnerConfig::serial()
        },
    )
    .unwrap();
    assert!(!interrupted.complete);
    let resumed = run_campaign(
        &w,
        &cfg,
        &RunnerConfig { checkpoint: Some(ckpt), threads: 3, ..RunnerConfig::default() },
    )
    .unwrap();
    assert!(resumed.complete);
    assert!(resumed.resumed >= 20, "expected checkpointed progress, got {}", resumed.resumed);
    assert_eq!(resumed.summary, serial.summary, "kill/resume diverged from the clean run");
    std::fs::remove_dir_all(&dir).ok();
}
