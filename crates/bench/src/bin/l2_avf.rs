//! L2 AVFs — the paper measures both L1 and L2 ("We measure AVF in the GPU
//! L1 and L2 caches", Section VI-A); this binary reports the shared 256KB
//! L2's single- and multi-bit AVFs across the suite.

use mbavf_bench::report::{f3, ratio, Table};
use mbavf_bench::scale_from_env;
use mbavf_core::analysis::{mb_avf, mb_avf_grid, AnalysisConfig};
use mbavf_core::avf::{normalized, raw_avf};
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{CacheInterleave, CacheLayout};
use mbavf_core::protection::ProtectionKind;

fn main() {
    println!("L2 (256KB shared) AVFs, parity, x2 way-physical interleaving\n");
    let scale = scale_from_env();
    let mut t = Table::new(&["workload", "raw ACE AVF", "1x1 DUE", "2x1 / SB", "4x1 / SB"]);
    for d in mbavf_bench::run_suite_at(scale) {
        let layout = CacheLayout::new(d.l2_geom, CacheInterleave::WayPhysical(2))
            .expect("8-way L2 accepts x2");
        let flat = CacheLayout::new(d.l2_geom, CacheInterleave::Logical(1)).expect("valid");
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let sb = mb_avf(&d.l2, &flat, &FaultMode::mx1(1), &cfg).expect("fits").due_avf();
        let modes = [FaultMode::mx1(2), FaultMode::mx1(4)];
        let grid = mb_avf_grid(&d.l2, &layout, &modes, &[cfg]).expect("fits");
        let (mb2, mb4) = (grid[0][0].due_avf(), grid[1][0].due_avf());
        t.row(vec![
            d.name.into(),
            f3(raw_avf(&d.l2)),
            f3(sb),
            ratio(normalized(mb2, sb)),
            ratio(normalized(mb4, sb)),
        ]);
    }
    println!("{}", t.render());
    println!("L2 AVFs are far lower than L1 AVFs for streaming kernels (data passes");
    println!("through the L2 on its way to an L1 and is consumed there), and grow for");
    println!("workloads whose working set spills the 16KB L1s.");
}
