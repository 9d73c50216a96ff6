//! Cross-validation of the ACE-analysis model against fault injection —
//! the spirit of the paper's Section VII-A accuracy study, applied to the
//! whole stack: the VGPR SDC AVF estimated from timelines should agree with
//! the SDC rate measured by random single-bit injection.
//!
//! The two measures weight time differently (the model integrates over
//! *cycles* of the timed run; injection samples *dynamic instructions* of
//! the functional run), so agreement is expected within a small factor, not
//! exactly.

use mbavf::core::analysis::{mb_avf, AnalysisConfig};
use mbavf::core::geometry::FaultMode;
use mbavf::core::layout::{VgprGeometry, VgprInterleave, VgprLayout};
use mbavf::core::protection::ProtectionKind;
use mbavf::inject::{single_bit_campaign, CampaignConfig};
use mbavf::sim::extract::vgpr_timelines;
use mbavf::sim::liveness::analyze;
use mbavf::sim::{run_timed, GpuConfig};
use mbavf::workloads::{by_name, Scale};

fn model_sdc_avf(name: &str) -> f64 {
    let w = by_name(name).expect("registered");
    let mut inst = w.build(Scale::Test);
    let program = inst.program.clone();
    let res = run_timed(&program, &mut inst.mem, inst.workgroups, &GpuConfig::default());
    let lv = analyze(&res.trace, &inst.mem);
    let (vgpr, geom) = vgpr_timelines(&res, &lv, 0);
    // Restrict to the registers injection can target: wavefront slot 0's
    // architectural registers (injection never hits the unused slots of the
    // physical file). `byte_index` is register-major, so they are a prefix
    // of the store.
    let regs = u32::from(program.num_vregs()).min(geom.regs);
    let layout =
        VgprLayout::new(VgprGeometry { regs, ..geom }, VgprInterleave::IntraThread(1)).unwrap();
    let cfg = AnalysisConfig::new(ProtectionKind::None);
    mb_avf(&vgpr, &layout, &FaultMode::mx1(1), &cfg).unwrap().sdc_avf()
}

fn injected_sdc_rate(name: &str, n: usize) -> f64 {
    let w = by_name(name).expect("registered");
    let cfg =
        CampaignConfig { seed: 99, injections: n, scale: Scale::Test, ..CampaignConfig::default() };
    let summary = single_bit_campaign(&w, &cfg);
    let f = summary.fractions();
    // Crashes count as visible errors alongside hangs for this comparison
    // (both are fault-induced failures the model folds into non-masked).
    f.sdc + f.hang + f.crash
}

#[test]
fn model_and_injection_agree_on_vgpr_sdc() {
    for name in ["dct", "fast_walsh"] {
        let model = model_sdc_avf(name);
        let measured = injected_sdc_rate(name, 250);
        assert!(model > 0.0, "{name}: model found no vulnerable register state");
        assert!(measured > 0.0, "{name}: injection found no SDC");
        let ratio = model / measured;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{name}: model SDC AVF {model:.4} vs injected rate {measured:.4} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn model_is_an_upper_bound_in_expectation() {
    // ACE analysis is conservative: averaged across several workloads, the
    // model should not *under*estimate the injected SDC rate by a wide
    // margin. (It may overestimate freely.)
    let names = ["dct", "transpose", "prefix_sum"];
    let mut model_sum = 0.0;
    let mut measured_sum = 0.0;
    for name in names {
        model_sum += model_sdc_avf(name);
        measured_sum += injected_sdc_rate(name, 150);
    }
    assert!(
        model_sum >= measured_sum * 0.5,
        "aggregate model {model_sum:.4} far below injection {measured_sum:.4}"
    );
}
