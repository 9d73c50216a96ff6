//! Micro-benchmarks for the MB-AVF analysis engine: group-sweep throughput
//! as a function of fault-mode size, protection scheme, and windowing.
//!
//! The random-store cache groups are the memo's all-miss worst case: almost
//! no two wordlines or groups repeat. The lane-replicated register file is
//! the case that dominates the paper's exhibits: every SIMT lane shares one
//! timeline per register byte, so most wordlines repeat. Its Figure 11
//! shape compares one `mb_avf` call per mode and scheme with one grid.
//!
//! A store canonizes its timelines on its first analysis and keeps the ids,
//! so every timed call after the warm-up one measures the analysis alone.

use mbavf_bench::microbench::{group, run};
use mbavf_core::analysis::{mb_avf, mb_avf_grid, windowed_mb_avf, AnalysisConfig};
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{
    CacheGeometry, CacheInterleave, CacheLayout, VgprGeometry, VgprInterleave, VgprLayout,
};
use mbavf_core::protection::ProtectionKind;
use mbavf_core::ser::paper_table3;
use mbavf_core::timeline::{ByteTimeline, Interval, TimelineStore};

const TOTAL_CYCLES: u64 = 100_000;

/// A deterministic xorshift stream.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A few labelled intervals spread over the whole run.
fn random_timeline(rng: &mut impl FnMut() -> u64) -> ByteTimeline {
    let mut tl = ByteTimeline::new();
    let mut t = rng() % 500;
    while t < TOTAL_CYCLES - 600 {
        let len = 50 + rng() % 400;
        let mask = (rng() & 0xFF) as u8;
        let checked = !rng().is_multiple_of(4);
        tl.push(Interval { start: t, end: t + len, ace_mask: mask, checked }).expect("ordered");
        t += len + rng() % 300;
    }
    tl
}

/// A deterministic synthetic store resembling a busy small cache: 4KB, with
/// a few labelled intervals per byte.
fn synthetic_store() -> (TimelineStore, CacheGeometry) {
    let geom = CacheGeometry { sets: 16, ways: 4, line_bytes: 64 };
    let mut store = TimelineStore::new(geom.bytes() as usize, TOTAL_CYCLES);
    let mut rng = xorshift(0x1234_5678);
    for b in 0..geom.bytes() as usize {
        *store.byte_mut(b) = random_timeline(&mut rng);
    }
    (store, geom)
}

/// A 64-lane register file whose lanes run in lockstep: one random timeline
/// per register byte, replicated across every thread.
fn lane_replicated_vgpr() -> (TimelineStore, VgprGeometry) {
    let geom = VgprGeometry { threads: 64, regs: 16 };
    let mut store = TimelineStore::new(geom.bytes() as usize, TOTAL_CYCLES);
    let mut rng = xorshift(0x9e37_79b9);
    for reg in 0..geom.regs {
        for byte in 0..VgprGeometry::REG_BITS / 8 {
            let tl = random_timeline(&mut rng);
            for thread in 0..geom.threads {
                *store.byte_mut(geom.byte_index(thread, reg, byte) as usize) = tl.clone();
            }
        }
    }
    (store, geom)
}

fn main() {
    let (store, geom) = synthetic_store();

    group("mb_avf by fault-mode size (parity, x2 way-physical)");
    let layout = CacheLayout::new(geom, CacheInterleave::WayPhysical(2)).unwrap();
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    for m in [1u32, 2, 4, 8] {
        let mode = FaultMode::mx1(m);
        run(&format!("mb_avf_{m}x1"), || mb_avf(&store, &layout, &mode, &cfg).unwrap());
    }

    group("mb_avf by protection scheme (4x1, x4 way-physical)");
    let layout = CacheLayout::new(geom, CacheInterleave::WayPhysical(4)).unwrap();
    let mode = FaultMode::mx1(4);
    for (name, scheme) in [
        ("parity", ProtectionKind::Parity),
        ("secded", ProtectionKind::SecDed),
        ("dected", ProtectionKind::DecTed),
    ] {
        let cfg = AnalysisConfig::new(scheme);
        run(&format!("mb_avf_{name}"), || mb_avf(&store, &layout, &mode, &cfg).unwrap());
    }

    group("windowed mb_avf, 40 windows (2x1 logical, parity, random store: all-miss)");
    let layout = CacheLayout::new(geom, CacheInterleave::Logical(2)).unwrap();
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    let mode = FaultMode::mx1(2);
    run("windowed_40", || windowed_mb_avf(&store, &layout, &mode, &cfg, 2500).unwrap());

    group("mb_avf over Table III modes (lane-replicated 64x16 VGPR, parity)");
    let (vgpr, vgeom) = lane_replicated_vgpr();
    let modes: Vec<FaultMode> =
        paper_table3().iter().map(|r| FaultMode::mx1(r.mode_bits)).collect();
    for il in [VgprInterleave::IntraThread(2), VgprInterleave::InterThread(4)] {
        let layout = VgprLayout::new(vgeom, il).unwrap();
        // Inter-thread rows are read in lockstep (Section VIII).
        let lock_step = matches!(il, VgprInterleave::InterThread(_));
        let cfg = AnalysisConfig::new(ProtectionKind::Parity).with_due_preempts_sdc(lock_step);
        run(&format!("mb_avf_vgpr_{}_table3", il.label()), || {
            modes.iter().map(|m| mb_avf(&vgpr, &layout, m, &cfg).unwrap()).collect::<Vec<_>>()
        });
    }

    group("windowed mb_avf, 40 windows (2x1, parity, lane-replicated VGPR)");
    for il in [VgprInterleave::IntraThread(2), VgprInterleave::InterThread(4)] {
        let layout = VgprLayout::new(vgeom, il).unwrap();
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let mode = FaultMode::mx1(2);
        run(&format!("windowed_40_vgpr_{}", il.label()), || {
            windowed_mb_avf(&vgpr, &layout, &mode, &cfg, 2500).unwrap()
        });
    }

    group("Figure 11 shape: Table III modes x {parity, SEC-DED} (lane-replicated VGPR)");
    for il in [VgprInterleave::IntraThread(2), VgprInterleave::InterThread(4)] {
        let layout = VgprLayout::new(vgeom, il).unwrap();
        let lock_step = matches!(il, VgprInterleave::InterThread(_));
        let cfgs = [ProtectionKind::Parity, ProtectionKind::SecDed]
            .map(|s| AnalysisConfig::new(s).with_due_preempts_sdc(lock_step));
        run(&format!("fig11_{}_per_call", il.label()), || {
            let per_mode = modes.iter().map(|m| {
                cfgs.iter().map(|c| mb_avf(&vgpr, &layout, m, c).unwrap()).collect::<Vec<_>>()
            });
            per_mode.collect::<Vec<_>>()
        });
        run(&format!("fig11_{}_grid", il.label()), || {
            mb_avf_grid(&vgpr, &layout, &modes, &cfgs).unwrap()
        });
    }
}
