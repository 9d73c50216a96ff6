//! The `exhibits` workload: one pass regenerates every exhibit of the paper
//! through the same public calls, in the same order and with the same
//! budgets as `repro_all` at CI scale (`MBAVF_SCALE=test`), without
//! printing.
//!
//! Untraced, the suite is simulated by `try_run_suite_at`. Traced, the
//! benchmark assembles each [`WorkloadData`] from the pipeline's public
//! parts so every part gets its own span.

use crate::probes::{self, Input};
use crate::stats::median_of;
use crate::tally::Tally;
use crate::trace::{Clock, Tracer};
use crate::Measured;
use mbavf_bench::experiments::{fig10, fig11, fig4, fig5, fig6, fig8, fig9};
use mbavf_bench::validate::{validate_workload, ValidateConfig, ValidationReport};
use mbavf_bench::{
    par_map, try_run_suite_at, try_run_workload, validate_suite, PipelineError, SuiteOutcome,
    WorkloadData,
};
use mbavf_core::layout::CacheGeometry;
use mbavf_core::mttf::figure2;
use mbavf_core::rng::fnv1a;
use mbavf_core::ser::{ibe_table1, paper_table3};
use mbavf_inject::{run_campaign, try_interference_study, CampaignConfig, RunnerConfig};
use mbavf_sim::extract::{l1_timelines, l2_timelines, vgpr_timelines};
use mbavf_sim::interp::run_golden;
use mbavf_sim::liveness::analyze;
use mbavf_sim::{catch_crash, run_timed, GpuConfig};
use mbavf_workloads::{by_name, injection_suite, suite, Scale, Workload};
use std::path::Path;
use std::time::Instant;

/// Problem scale of the simulated suite (`MBAVF_SCALE=test`).
const SCALE: Scale = Scale::Test;

/// Time windows of the MiniFE time-series figures, as in `repro_all`.
const WINDOWS: u64 = 40;

/// Every section of a pass, in `repro_all` order.
const SECTIONS: [&str; 10] =
    ["simulate", "fig4", "fig5", "fig6", "table2", "validate", "fig8", "fig9", "fig10", "fig11"];

/// The analysis calls timed per workload, by figure.
const FIGURES: [&str; 7] = ["fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11"];

/// What one pass runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Whether the suite is the whole registry (so `try_run_suite_at`
    /// simulates it untraced).
    whole_suite: bool,
    suite: Vec<Workload>,
    /// Table II workloads.
    injectable: Vec<Workload>,
    /// Validation-gate workloads.
    gate: Vec<Workload>,
    /// Single-bit budget of Table II and of each validation campaign.
    injections: usize,
    /// Multi-bit groups per mode in Table II.
    groups: usize,
    seed: u64,
    /// Untraced passes a run makes at least.
    min_passes: usize,
    /// Suite simulations timed for the set-up time before the first
    /// untraced pass, and again after the last.
    setup_reps: usize,
}

impl Plan {
    /// The CI-scale plan of `repro_all`, or with `smoke` the same calls
    /// over `transpose` alone with tiny budgets.
    pub fn new(seed: u64, smoke: bool) -> Plan {
        if smoke {
            let one = vec![by_name("transpose").expect("registered")];
            return Plan {
                whole_suite: false,
                suite: one.clone(),
                injectable: one.clone(),
                gate: one,
                injections: 24,
                groups: 2,
                seed,
                min_passes: 2,
                setup_reps: 1,
            };
        }
        Plan {
            whole_suite: true,
            suite: suite(),
            injectable: injection_suite(),
            gate: ["dct", "fast_walsh", "prefix_sum"]
                .iter()
                .map(|n| by_name(n).expect("registered"))
                .collect(),
            injections: 300,
            groups: 40,
            seed,
            min_passes: 1,
            // One simulation varies by a third with how the machine
            // schedules its thirteen threads; twenty steady the median.
            setup_reps: 10,
        }
    }

    fn validate_config(&self) -> ValidateConfig {
        ValidateConfig {
            scale: SCALE,
            injections: self.injections,
            seed: self.seed,
            modes: vec![1, 2],
            ..ValidateConfig::default()
        }
    }

    /// The single-bit campaigns the validation gate runs, which the layer
    /// probes reuse as this workload's injection inputs.
    fn gate_campaigns(&self) -> Vec<(Workload, CampaignConfig)> {
        let cfg = CampaignConfig {
            seed: self.seed,
            injections: self.injections,
            scale: SCALE,
            ..CampaignConfig::default()
        };
        self.gate.iter().map(|w| (*w, cfg)).collect()
    }
}

/// What one pass measured and produced.
#[derive(Debug)]
struct Pass {
    /// Wall seconds of the whole pass.
    wall_s: f64,
    /// Exhibit cells attempted and failed, and the digest of their numbers.
    tally: Tally,
    /// Cycles the timing simulator simulated, over every workload.
    cycles: u64,
}

/// Run one pass; `t` records spans when enabled.
fn pass(plan: &Plan, t: &Tracer) -> Pass {
    let t0 = Instant::now();
    let mut tally = Tally::default();

    let outcome = t.span("exhibits.simulate", None, |id| simulate(plan, t, id));
    for w in &plan.suite {
        match outcome.get(w.name) {
            Some(d) => tally.cell(true, &[d.cycles as f64, d.retired as f64, d.live_fraction]),
            None => tally.cell(false, &[]),
        }
    }
    let data: Vec<&WorkloadData> = outcome.data.iter().collect();
    let cycles = data.iter().map(|d| d.cycles).sum();
    let minife = outcome.get("minife");

    // Model-only exhibits: Table I and Figure 2 (Table III follows the
    // validation gate, as in repro_all).
    let table1: Vec<f64> = ibe_table1().iter().map(|n| n.total_multibit_pct()).collect();
    tally.cell(true, &table1);
    let fig2: Vec<f64> = figure2(&[1e-8, 1e-6, 1e-4])
        .iter()
        .flat_map(|r| [r.smbf_0p1_hours, r.smbf_5_hours, r.tmbf_infinite_hours, r.tmbf_100y_hours])
        .collect();
    tally.cell(true, &fig2);

    let rows = t.span("exhibits.fig4", None, |id| {
        par_map(data.clone(), |d| {
            t.span_with(Clock::Thread, "core.analysis.fig4", Some(id), |_| fig4(d))
        })
    });
    for r in rows {
        tally.cell(true, &[r.sb_due, r.normalized[0], r.normalized[1], r.normalized[2]]);
    }

    if let Some(minife) = minife {
        let s = t.span("exhibits.fig5", None, |id| {
            t.span_with(Clock::Thread, "core.analysis.fig5", Some(id), |_| fig5(minife, WINDOWS))
        });
        let values: Vec<f64> = s.sb.iter().chain(s.mb.iter().flatten()).copied().collect();
        tally.cell(true, &values);
    }

    let rows = t.span("exhibits.fig6", None, |id| {
        par_map(data.clone(), |d| {
            t.span_with(Clock::Thread, "core.analysis.fig6", Some(id), |_| fig6(d))
        })
    });
    for r in rows {
        tally.cell(true, &[r.parity.as_slice(), r.secded.as_slice()].concat());
    }

    // Table II: skip workloads that already failed the pipeline, exactly
    // as repro_all does (their failure is counted under `simulate`).
    let survived = |w: &&Workload| outcome.failures.iter().all(|e| e.workload() != w.name);
    let injectable: Vec<Workload> = plan.injectable.iter().filter(survived).copied().collect();
    let cfg = CampaignConfig {
        seed: plan.seed,
        injections: plan.injections,
        scale: Scale::Paper,
        ..CampaignConfig::default()
    };
    let rows = t.span_with(Clock::Process, "exhibits.table2", None, |id| {
        par_map(injectable, |w| {
            t.span("inject.interference", Some(id), |_| {
                try_interference_study(&w, &cfg, plan.groups)
            })
        })
    });
    for row in rows {
        match row {
            Ok(r) => {
                let counts = [r.groups_tested, r.interference].concat();
                let mut values = vec![r.sdc_ace_bits as f64];
                values.extend(counts.iter().map(|&c| c as f64));
                tally.cell(true, &values);
            }
            Err(_) => tally.cell(false, &[]),
        }
    }

    let gate: Vec<Workload> = plan.gate.iter().filter(survived).copied().collect();
    let report =
        t.span_with(Clock::Process, "exhibits.validate", None, |id| validate(plan, gate, t, id));
    for v in &report.rows {
        let c = &v.checked;
        let mut values = vec![c.model, c.measured.estimate, c.site_mismatches as f64];
        for m in &v.modes {
            values.extend([m.model_sdc, m.sdc.estimate, m.error.estimate]);
        }
        tally.cell(!v.worst().is_failure(), &values);
    }
    for _ in &report.skipped {
        tally.cell(false, &[]);
    }

    let table3: Vec<f64> = paper_table3().iter().map(|r| r.rate_fit).collect();
    tally.cell(true, &table3);

    if let Some(minife) = minife {
        let f8 = t.span("exhibits.fig8", None, |id| {
            t.span_with(Clock::Thread, "core.analysis.fig8", Some(id), |_| fig8(minife, WINDOWS))
        });
        let values: Vec<f64> = f8.index.iter().chain(&f8.way).flat_map(|&(s, d)| [s, d]).collect();
        tally.cell(true, &values);
    }

    let rows = t.span("exhibits.fig9", None, |id| {
        par_map(data.clone(), |d| {
            t.span_with(Clock::Thread, "core.analysis.fig9", Some(id), |_| fig9(d))
        })
    });
    for r in rows {
        tally.cell(true, &r.sdc);
    }

    let rows = t.span("exhibits.fig10", None, |id| {
        par_map(data.clone(), |d| {
            t.span_with(Clock::Thread, "core.analysis.fig10", Some(id), |_| fig10(d))
        })
    });
    for r in rows {
        let values: Vec<f64> = r.due.iter().flat_map(|&(tr, fa)| [tr, fa]).collect();
        tally.cell(true, &values);
    }

    let rows = t.span("exhibits.fig11", None, |id| {
        par_map(data, |d| t.span_with(Clock::Thread, "core.analysis.fig11", Some(id), |_| fig11(d)))
    });
    for designs in rows {
        let values: Vec<f64> =
            designs.iter().flat_map(|r| [r.sdc_mb, r.sdc_approx, r.due_mb, r.overhead]).collect();
        tally.cell(true, &values);
    }

    Pass { wall_s: t0.elapsed().as_secs_f64(), tally, cycles }
}

/// The suite simulation: `try_run_suite_at` untraced; traced, the same
/// pipeline assembled from its parts.
fn simulate(plan: &Plan, t: &Tracer, parent: u64) -> SuiteOutcome {
    let results: Vec<Result<WorkloadData, PipelineError>> = if t.enabled() {
        par_map(plan.suite.clone(), |w| {
            t.span("bench.pipeline", Some(parent), |id| pipeline_parts(&w, t, id))
        })
    } else if plan.whole_suite {
        return try_run_suite_at(SCALE);
    } else {
        par_map(plan.suite.clone(), |w| try_run_workload(&w, SCALE))
    };
    let mut out = SuiteOutcome { data: Vec::new(), failures: Vec::new() };
    for r in results {
        match r {
            Ok(d) => out.data.push(d),
            Err(e) => out.failures.push(e),
        }
    }
    out
}

/// `try_run_workload`, with a span around each of its calls: two golden
/// builds and runs, the timed run, liveness, and timeline extraction.
fn pipeline_parts(w: &Workload, t: &Tracer, parent: u64) -> Result<WorkloadData, PipelineError> {
    let name = w.name;
    let p = Some(parent);
    catch_crash(|| {
        let golden_digest = || {
            let mut inst = t.span_with(Clock::Thread, "workloads.build", p, |_| w.build(SCALE));
            let program = inst.program.clone();
            let wgs = inst.workgroups;
            let run = t.span_with(Clock::Thread, "sim.interp.golden", p, |_| {
                run_golden(&program, &mut inst.mem, wgs)
            });
            (fnv1a(&run.output), run.per_wg_retired)
        };
        let (digest_a, shape_a) = golden_digest();
        let (digest_b, shape_b) = golden_digest();
        if digest_a != digest_b || shape_a != shape_b {
            return Err(PipelineError::NondeterministicGolden {
                workload: name.to_string(),
                digest_a,
                digest_b,
            });
        }
        let mut inst = t.span_with(Clock::Thread, "workloads.build", p, |_| w.build(SCALE));
        let program = inst.program.clone();
        let wgs = inst.workgroups;
        let cfg = GpuConfig::default();
        let res = t.span_with(Clock::Thread, "sim.gpu.run_timed", p, |_| {
            run_timed(&program, &mut inst.mem, wgs, &cfg)
        });
        inst.check(&inst.mem)
            .map_err(|detail| PipelineError::CheckFailed { workload: name.to_string(), detail })?;
        let lv = t.span_with(Clock::Thread, "sim.liveness.analyze", p, |_| {
            analyze(&res.trace, &inst.mem)
        });
        let l1 = t.span_with(Clock::Thread, "sim.extract.timelines", p, |_| {
            l1_timelines(&res, &lv, &inst.mem, 0)
        });
        let l2 = t.span_with(Clock::Thread, "sim.extract.timelines", p, |_| {
            l2_timelines(&res, &lv, &inst.mem)
        });
        let (vgpr, vgpr_geom) = t
            .span_with(Clock::Thread, "sim.extract.timelines", p, |_| vgpr_timelines(&res, &lv, 0));
        let geometry = |c: &mbavf_sim::cache::CacheConfig| CacheGeometry {
            sets: c.sets,
            ways: c.ways,
            line_bytes: c.line_bytes,
        };
        Ok(WorkloadData {
            name,
            l1,
            l1_geom: geometry(&cfg.l1),
            l2,
            l2_geom: geometry(&cfg.l2),
            vgpr,
            vgpr_geom,
            cycles: res.cycles,
            retired: res.retired,
            live_fraction: lv.live_fraction(),
        })
    })
    .unwrap_or_else(|reason| Err(PipelineError::Crash { workload: name.to_string(), reason }))
}

/// The validation gate: `validate_suite` untraced; traced, its per-workload
/// calls each inside a span.
fn validate(plan: &Plan, gate: Vec<Workload>, t: &Tracer, parent: u64) -> ValidationReport {
    let vcfg = plan.validate_config();
    if !t.enabled() {
        return validate_suite(&gate, &vcfg);
    }
    let results =
        par_map(gate, |w| t.span("bench.validate", Some(parent), |_| validate_workload(&w, &vcfg)));
    let mut report = ValidationReport {
        rows: Vec::new(),
        skipped: Vec::new(),
        confidence: vcfg.confidence,
        tolerance: vcfg.tolerance,
    };
    for r in results {
        match r {
            Ok(v) => report.rows.push(v),
            Err(e) => report.skipped.push(e),
        }
    }
    report
}

/// Run the workload: untraced passes for `seconds` (at least `min_passes`)
/// between two rounds of set-up samples, then with `trace` a traced pass,
/// one more untraced pass, and the layer probes over the validation
/// gate's campaigns.
pub fn run(plan: &Plan, seconds: f64, trace: bool, work: &Path) -> Result<Measured, String> {
    let off = Tracer::off();
    let mut setups = Vec::new();
    let mut sample_setup = || {
        for _ in 0..plan.setup_reps {
            let t0 = Instant::now();
            simulate(plan, &off, 0);
            setups.push(t0.elapsed().as_secs_f64());
        }
    };

    sample_setup();
    let t0 = Instant::now();
    let first = pass(plan, &off);
    let mut walls = vec![first.wall_s];
    let mut tally = first.tally;
    while crate::more_passes(&walls, plan.min_passes, t0, seconds) {
        let p = pass(plan, &off);
        walls.push(p.wall_s);
        absorb(&mut tally, p.tally);
    }
    sample_setup();
    let before = walls[walls.len() - 1];
    let mut measured = Measured {
        walls,
        setup_s: median_of(&setups),
        trials_per_s: Vec::new(),
        digest_name: "exhibits_digest",
        tally,
        layers: Default::default(),
        tracer: None,
    };
    if !trace {
        return Ok(measured);
    }

    let t = Tracer::new("exhibits");
    let traced = pass(plan, &t);
    absorb(&mut measured.tally, traced.tally);
    // The overhead compares the traced pass with the untraced passes just
    // before and after it, which cancels the machine's slow drift.
    let after = pass(plan, &off);
    absorb(&mut measured.tally, after.tally);
    let base_wall = (before + after.wall_s) / 2.0;
    let layers = &mut measured.layers;
    for s in SECTIONS {
        layers.insert(format!("exhibits.{s}.wall_s"), t.wall_s(&format!("exhibits.{s}")));
    }
    for f in FIGURES {
        layers.insert(format!("core.analysis.{f}.busy_s"), t.cpu_s(&format!("core.analysis.{f}")));
    }
    let gpu = t.cpu_s("sim.gpu.run_timed");
    let busy = [
        ("sim.interp.busy_s", t.cpu_s("sim.interp.golden")),
        ("sim.gpu.busy_s", gpu),
        ("sim.liveness.busy_s", t.cpu_s("sim.liveness.analyze")),
        ("sim.extract.busy_s", t.cpu_s("sim.extract.timelines")),
        ("inject.interference.busy_s", t.cpu_s("exhibits.table2")),
        ("bench.validate.busy_s", t.cpu_s("exhibits.validate")),
    ];
    layers.extend(busy.iter().map(|&(k, v)| (k.to_string(), v)));
    layers.insert("sim.gpu.cycles_per_s".into(), traced.cycles as f64 / gpu);
    // CPU the spans account for, against the pass's capacity on every core.
    let figures: f64 = FIGURES.iter().map(|f| t.cpu_s(&format!("core.analysis.{f}"))).sum();
    let accounted = t.cpu_s("workloads.build") + figures + busy.iter().map(|b| b.1).sum::<f64>();
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    layers.insert("exhibits.residual_share".into(), 1.0 - accounted / (cores * traced.wall_s));
    layers.insert("trace.overhead_share".into(), traced.wall_s / base_wall - 1.0);

    // The gate's campaigns, modes 1 and 2, are the workload's injection
    // inputs: their records are exactly what `validate_workload` computes.
    let mut campaigns = Vec::new();
    for (w, cfg) in plan.gate_campaigns() {
        for mode_bits in [1, 2] {
            let cfg = CampaignConfig { mode_bits, ..cfg };
            let r = run_campaign(&w, &cfg, &RunnerConfig::serial())
                .map_err(|e| format!("{}: gate campaign failed: {e}", w.name))?;
            campaigns.push((w, cfg, r.summary.records));
        }
    }
    let inputs: Vec<Input<'_>> = campaigns
        .iter()
        .map(|(w, cfg, records)| Input { workload: *w, cfg: *cfg, records })
        .collect();
    let probed =
        probes::probe(&inputs, usize::MAX, &work.join("exhibits"), &t, &mut measured.tally)
            .map_err(|e| format!("exhibits: probe failed: {e}"))?;
    measured.layers.extend(probed.metrics);
    measured.tracer = Some(t);
    Ok(measured)
}

/// Fold a later pass's tally into the first's: counts add up, and a pass
/// whose digest differs from the first pass's fails every cell.
fn absorb(first: &mut Tally, pass: Tally) {
    let failed = if pass.digest() == first.digest() { pass.failed } else { pass.attempted };
    first.ops(pass.attempted, failed);
}
