//! Whole-chip SER composition: "By summing SER_H over all structures we can
//! calculate the overall soft error rate of a chip from all single- and
//! multi-bit transient faults" (Section IV-E).
//!
//! Composes per-mode MB-AVFs of every modelled structure — the four per-CU
//! 16KB L1s, the shared 256KB L2, and the four per-CU vector register files
//! — with the Table III raw fault rates, scaled by each structure's bit
//! count (raw rates are per-bit processes: bigger arrays collect more
//! strikes).

use mbavf_bench::report::{pct, Table};
use mbavf_bench::{run_workload, scale_from_env};
use mbavf_core::analysis::{mb_avf_grid, AnalysisConfig};
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{
    CacheInterleave, CacheLayout, PhysicalLayout, VgprInterleave, VgprLayout,
};
use mbavf_core::protection::ProtectionKind;
use mbavf_core::ser::paper_table3;
use mbavf_core::timeline::TimelineStore;
use mbavf_workloads::by_name;

struct StructureSer {
    name: String,
    bits: u64,
    sdc_fit: f64,
    due_fit: f64,
}

/// One structure's SER from the MB-AVFs of every Table III mode, analysed
/// in one grid.
fn compose(
    name: &str,
    bits: u64,
    store: &TimelineStore,
    layout: &impl PhysicalLayout,
    cfg: AnalysisConfig,
) -> StructureSer {
    let rates = paper_table3();
    let modes: Vec<FaultMode> = rates.iter().map(|r| FaultMode::mx1(r.mode_bits)).collect();
    let grid = mb_avf_grid(store, layout, &modes, &[cfg]).expect("fits");
    // Table III rates are per a notional 100-FIT array; scale by bit count
    // so structures of different sizes weigh correctly.
    let scale = bits as f64 / (16.0 * 1024.0 * 8.0); // normalize to one L1
    let mut sdc = 0.0;
    let mut due = 0.0;
    for (r, row) in rates.iter().zip(&grid) {
        sdc += r.rate_fit * row[0].sdc_avf() * scale;
        due += r.rate_fit * row[0].due_avf() * scale;
    }
    StructureSer { name: name.to_owned(), bits, sdc_fit: sdc, due_fit: due }
}

fn main() {
    // The protected design under evaluation: parity everywhere, x2
    // way-physical in the caches, x4 inter-thread in the VGPRs.
    println!("Whole-chip SER (parity, x2 way caches, tx4 VGPR), workload `minife`\n");
    let w = by_name("minife").expect("registered");
    eprintln!("  simulating minife ...");
    let d = run_workload(&w, scale_from_env());

    let mut structures = Vec::new();

    let l1_layout = CacheLayout::new(d.l1_geom, CacheInterleave::WayPhysical(2)).expect("valid");
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    // All four L1s: CU0 measured, others assumed statistically identical
    // (workgroups are distributed round-robin).
    structures.push(compose("4 x L1 (16KB)", 4 * 16 * 1024 * 8, &d.l1, &l1_layout, cfg));

    let l2_layout = CacheLayout::new(d.l2_geom, CacheInterleave::WayPhysical(2)).expect("valid");
    structures.push(compose("L2 (256KB)", 256 * 1024 * 8, &d.l2, &l2_layout, cfg));

    let vgpr_layout = VgprLayout::new(d.vgpr_geom, VgprInterleave::InterThread(4)).expect("valid");
    let vgpr_cfg = AnalysisConfig::new(ProtectionKind::Parity).with_due_preempts_sdc(true);
    let vgpr_bits = 4 * u64::from(d.vgpr_geom.bytes()) * 8;
    structures.push(compose("4 x VGPR", vgpr_bits, &d.vgpr, &vgpr_layout, vgpr_cfg));

    let mut t = Table::new(&["structure", "bits", "SDC FIT", "DUE FIT", "SDC share"]);
    let total_sdc: f64 = structures.iter().map(|s| s.sdc_fit).sum();
    let total_due: f64 = structures.iter().map(|s| s.due_fit).sum();
    for s in &structures {
        t.row(vec![
            s.name.clone(),
            s.bits.to_string(),
            format!("{:.4}", s.sdc_fit),
            format!("{:.4}", s.due_fit),
            pct(if total_sdc > 0.0 { s.sdc_fit / total_sdc } else { 0.0 }),
        ]);
    }
    t.row(vec![
        "CHIP TOTAL".into(),
        structures.iter().map(|s| s.bits).sum::<u64>().to_string(),
        format!("{total_sdc:.4}"),
        format!("{total_due:.4}"),
        String::new(),
    ]);
    println!("{}", t.render());
    println!("Per-structure MB-AVF x per-mode raw rate x size, summed: the chip-level");
    println!("budget an architect validates against the product's FIT target.");
}
