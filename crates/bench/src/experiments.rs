//! Per-exhibit computations over [`WorkloadData`].

use crate::pipeline::WorkloadData;
use mbavf_core::analysis::{mb_avf, mb_avf_grid, windowed_mb_avf, AnalysisConfig, MbAvfResult};
use mbavf_core::avf::{normalized, raw_avf};
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{CacheInterleave, CacheLayout, VgprInterleave, VgprLayout};
use mbavf_core::protection::{Action, ProtectionKind};
use mbavf_core::ser::{paper_table3, SerBreakdown};

/// The three x2 interleavings compared in Figure 4.
pub const FIG4_SCHEMES: [CacheInterleave; 3] = [
    CacheInterleave::Logical(2),
    CacheInterleave::WayPhysical(2),
    CacheInterleave::IndexPhysical(2),
];

fn l1_layout(d: &WorkloadData, il: CacheInterleave) -> CacheLayout {
    CacheLayout::new(d.l1_geom, il).expect("paper geometry accepts x2/x4 factors")
}

/// The single-bit baseline used for normalization throughout the figures:
/// the 1x1 DUE AVF of the parity-protected, un-interleaved L1.
pub fn sb_due_avf(d: &WorkloadData) -> f64 {
    let layout = l1_layout(d, CacheInterleave::Logical(1));
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    mb_avf(&d.l1, &layout, &FaultMode::mx1(1), &cfg).expect("1x1 fits").due_avf()
}

/// One L1 MB-AVF measurement.
pub fn l1_mb_avf(
    d: &WorkloadData,
    il: CacheInterleave,
    scheme: ProtectionKind,
    m: u32,
) -> MbAvfResult {
    let layout = l1_layout(d, il);
    let cfg = AnalysisConfig::new(scheme);
    mb_avf(&d.l1, &layout, &FaultMode::mx1(m), &cfg).expect("mode fits the L1")
}

/// L1 MB-AVFs of the `Mx1` modes `ms` under every scheme of `schemes` on one
/// layout, from one grid analysis, as `[mode][scheme]`.
fn l1_grid(
    d: &WorkloadData,
    il: CacheInterleave,
    ms: &[u32],
    schemes: &[ProtectionKind],
) -> Vec<Vec<MbAvfResult>> {
    let modes: Vec<FaultMode> = ms.iter().map(|&m| FaultMode::mx1(m)).collect();
    let cfgs: Vec<AnalysisConfig> = schemes.iter().map(|&s| AnalysisConfig::new(s)).collect();
    mb_avf_grid(&d.l1, &l1_layout(d, il), &modes, &cfgs).expect("modes fit the L1")
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// One workload's bars of Figure 4: 2x1 DUE MB-AVF normalized to SB-AVF for
/// the three x2 interleavings, under parity.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: &'static str,
    /// Absolute single-bit DUE AVF (the baseline).
    pub sb_due: f64,
    /// Normalized 2x1 MB-AVF per scheme: logical, way-physical,
    /// index-physical.
    pub normalized: [f64; 3],
}

/// Compute Figure 4 for one workload.
pub fn fig4(d: &WorkloadData) -> Fig4Row {
    let sb = sb_due_avf(d);
    let mut normalized_v = [0.0; 3];
    for (i, il) in FIG4_SCHEMES.into_iter().enumerate() {
        let mb = l1_mb_avf(d, il, ProtectionKind::Parity, 2).due_avf();
        normalized_v[i] = normalized(mb, sb);
    }
    Fig4Row { workload: d.name, sb_due: sb, normalized: normalized_v }
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Time-series AVFs for Figure 5 (MiniFE).
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// Window length in cycles.
    pub window: u64,
    /// Per-window SB (1x1) DUE AVF, parity, x2 index-physical layout.
    pub sb: Vec<f64>,
    /// Per-window 2x1 DUE MB-AVF per scheme (same order as
    /// [`FIG4_SCHEMES`]).
    pub mb: [Vec<f64>; 3],
}

/// Compute Figure 5 with `windows` time windows.
pub fn fig5(d: &WorkloadData, windows: u64) -> Fig5Series {
    let window = d.cycles.div_ceil(windows.max(1));
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    let sb_layout = l1_layout(d, CacheInterleave::IndexPhysical(2));
    let sb = windowed_mb_avf(&d.l1, &sb_layout, &FaultMode::mx1(1), &cfg, window)
        .expect("window nonzero")
        .iter()
        .map(MbAvfResult::due_avf)
        .collect();
    let mut mb: [Vec<f64>; 3] = Default::default();
    for (i, il) in FIG4_SCHEMES.into_iter().enumerate() {
        let layout = l1_layout(d, il);
        mb[i] = windowed_mb_avf(&d.l1, &layout, &FaultMode::mx1(2), &cfg, window)
            .expect("window nonzero")
            .iter()
            .map(MbAvfResult::due_avf)
            .collect();
    }
    Fig5Series { window, sb, mb }
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// The fault modes swept in Figure 6 and beyond.
pub const MODES_2_TO_8: [u32; 7] = [2, 3, 4, 5, 6, 7, 8];

/// One workload's Figure 6 data: DUE MB-AVF normalized to SB-AVF for 2x1–8x1
/// faults under x4 way-physical interleaving.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: &'static str,
    /// Normalized DUE MB-AVF per mode, parity (panel a).
    pub parity: [f64; 7],
    /// Normalized DUE MB-AVF per mode, SEC-DED (panel b).
    pub secded: [f64; 7],
}

/// Compute Figure 6 for one workload.
pub fn fig6(d: &WorkloadData) -> Fig6Row {
    let sb = sb_due_avf(d);
    let schemes = [ProtectionKind::Parity, ProtectionKind::SecDed];
    let grid = l1_grid(d, CacheInterleave::WayPhysical(4), &MODES_2_TO_8, &schemes);
    let mut parity = [0.0; 7];
    let mut secded = [0.0; 7];
    for (i, row) in grid.iter().enumerate() {
        parity[i] = normalized(row[0].due_avf(), sb);
        secded[i] = normalized(row[1].due_avf(), sb);
    }
    Fig6Row { workload: d.name, parity, secded }
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Time-series SDC and DUE MB-AVF for 3x1 faults (Figure 8, MiniFE).
#[derive(Debug, Clone)]
pub struct Fig8Series {
    /// Window length in cycles.
    pub window: u64,
    /// Per-window (SDC, DUE) for x2 index-physical interleaving.
    pub index: Vec<(f64, f64)>,
    /// Per-window (SDC, DUE) for x2 way-physical interleaving.
    pub way: Vec<(f64, f64)>,
}

/// Compute Figure 8 with `windows` time windows.
pub fn fig8(d: &WorkloadData, windows: u64) -> Fig8Series {
    let window = d.cycles.div_ceil(windows.max(1));
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    let series = |il: CacheInterleave| -> Vec<(f64, f64)> {
        let layout = l1_layout(d, il);
        windowed_mb_avf(&d.l1, &layout, &FaultMode::mx1(3), &cfg, window)
            .expect("window nonzero")
            .iter()
            .map(|r| (r.sdc_avf(), r.due_avf()))
            .collect()
    };
    Fig8Series {
        window,
        index: series(CacheInterleave::IndexPhysical(2)),
        way: series(CacheInterleave::WayPhysical(2)),
    }
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// One workload's Figure 9 data: SDC MB-AVF of 5x1–8x1 faults with SEC-DED
/// and x2 way-physical interleaving, normalized to SB-AVF.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Workload name.
    pub workload: &'static str,
    /// Normalized SDC MB-AVF for modes 5..=8.
    pub sdc: [f64; 4],
}

/// Compute Figure 9 for one workload.
pub fn fig9(d: &WorkloadData) -> Fig9Row {
    let sb = sb_due_avf(d);
    let grid =
        l1_grid(d, CacheInterleave::WayPhysical(2), &[5, 6, 7, 8], &[ProtectionKind::SecDed]);
    let mut sdc = [0.0; 4];
    for (i, row) in grid.iter().enumerate() {
        sdc[i] = normalized(row[0].sdc_avf(), sb);
    }
    Fig9Row { workload: d.name, sdc }
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// True/false DUE decomposition by fault mode (Figure 10), parity with x4
/// way-physical interleaving (x4 keeps 2x1–4x1 faults within parity's
/// detection reach so a DUE component exists for every mode).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: &'static str,
    /// Per mode in {1, 2, 3, 4}: `(true DUE AVF, false DUE AVF)`.
    pub due: [(f64, f64); 4],
}

impl Fig10Row {
    /// False-DUE share of total DUE for mode index `i`.
    pub fn false_share(&self, i: usize) -> f64 {
        let (t, f) = self.due[i];
        if t + f == 0.0 {
            0.0
        } else {
            f / (t + f)
        }
    }
}

/// Compute Figure 10 for one workload.
pub fn fig10(d: &WorkloadData) -> Fig10Row {
    let grid =
        l1_grid(d, CacheInterleave::WayPhysical(4), &[1, 2, 3, 4], &[ProtectionKind::Parity]);
    let mut due = [(0.0, 0.0); 4];
    for (i, row) in grid.iter().enumerate() {
        due[i] = (row[0].true_due_avf(), row[0].false_due_avf());
    }
    Fig10Row { workload: d.name, due }
}

// ---------------------------------------------------------------------------
// Figure 11 — the VGPR case study
// ---------------------------------------------------------------------------

/// One protection design point of the Section VIII case study.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Design label, e.g. `"parity tx4"`.
    pub label: String,
    /// SDC rate (FIT, Table III total = 100) from full MB-AVF analysis.
    pub sdc_mb: f64,
    /// SDC rate when every mode's MB-AVF is approximated with the single-bit
    /// AVF and undetected faults are conservatively assumed SDC.
    pub sdc_approx: f64,
    /// DUE rate (FIT) from MB-AVF analysis.
    pub due_mb: f64,
    /// Check-bit area overhead of the scheme on 32-bit registers.
    pub overhead: f64,
}

/// The protection schemes of Figure 11's design points.
const FIG11_SCHEMES: [ProtectionKind; 2] = [ProtectionKind::Parity, ProtectionKind::SecDed];

/// The VGPR interleavings of Figure 11's design points.
const FIG11_INTERLEAVES: [VgprInterleave; 4] = [
    VgprInterleave::IntraThread(2),
    VgprInterleave::IntraThread(4),
    VgprInterleave::InterThread(2),
    VgprInterleave::InterThread(4),
];

/// The eight design points of Figure 11.
pub fn fig11_designs() -> Vec<(ProtectionKind, VgprInterleave)> {
    FIG11_SCHEMES.into_iter().flat_map(|s| FIG11_INTERLEAVES.map(|il| (s, il))).collect()
}

/// Whether the worst overlapped region of an `Mx1` fault under `xI`
/// interleaving defeats the scheme (the designer's conservative model used
/// for the SB-AVF approximation).
pub fn approx_defeated(scheme: ProtectionKind, m: u32, i: u32) -> bool {
    let q = m / i;
    let r = m % i;
    let mut defeated = false;
    if r > 0 {
        defeated |= scheme.action(q + 1) == Action::NoDetect;
    }
    if q > 0 && (i - r) > 0 {
        defeated |= scheme.action(q) == Action::NoDetect;
    }
    defeated
}

/// Compute the Figure 11 case study from one workload's VGPR data.
pub fn fig11(d: &WorkloadData) -> Vec<Fig11Row> {
    let rates = paper_table3();
    let sb_ace = raw_avf(&d.vgpr);
    let modes: Vec<FaultMode> = rates.iter().map(|r| FaultMode::mx1(r.mode_bits)).collect();
    // Every design below analyses the same store, and the designs of one
    // interleaving share a layout: one grid each, `[mode][scheme]`.
    let grids: Vec<Vec<Vec<MbAvfResult>>> = FIG11_INTERLEAVES
        .into_iter()
        .map(|il| {
            let layout = VgprLayout::new(d.vgpr_geom, il).expect("paper geometry");
            // Inter-thread interleaving is read lock-step by the SIMD unit:
            // a detected error preempts a same-cycle SDC (Section VIII).
            let lock_step = matches!(il, VgprInterleave::InterThread(_));
            let cfgs =
                FIG11_SCHEMES.map(|s| AnalysisConfig::new(s).with_due_preempts_sdc(lock_step));
            mb_avf_grid(&d.vgpr, &layout, &modes, &cfgs).expect("modes fit the VGPR row")
        })
        .collect();
    let mut rows = Vec::new();
    for (s, scheme) in FIG11_SCHEMES.into_iter().enumerate() {
        for (grid, il) in grids.iter().zip(FIG11_INTERLEAVES) {
            let mut sdc_pairs = Vec::new();
            let mut due_pairs = Vec::new();
            let mut approx_pairs = Vec::new();
            for (rate, results) in rates.iter().zip(grid) {
                sdc_pairs.push((rate.clone(), results[s].sdc_avf()));
                due_pairs.push((rate.clone(), results[s].due_avf()));
                let approx =
                    if approx_defeated(scheme, rate.mode_bits, il.factor()) { sb_ace } else { 0.0 };
                approx_pairs.push((rate.clone(), approx));
            }
            rows.push(Fig11Row {
                label: format!("{scheme} {}", il.label()),
                sdc_mb: SerBreakdown::new(sdc_pairs).total_fit(),
                sdc_approx: SerBreakdown::new(approx_pairs).total_fit(),
                due_mb: SerBreakdown::new(due_pairs).total_fit(),
                overhead: scheme.overhead(32),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_workload;
    use mbavf_workloads::{by_name, Scale};

    fn data(name: &str) -> WorkloadData {
        run_workload(&by_name(name).expect("registered"), Scale::Test)
    }

    #[test]
    fn fig4_normalized_values_are_in_the_paper_band() {
        let d = data("transpose");
        let row = fig4(&d);
        assert!(row.sb_due > 0.0);
        // Section IV-D: the 2x1 MB-AVF sits between 1x and 2x the SB-AVF
        // (with a whisker of slack for the group-count denominator edge).
        for (i, v) in row.normalized.iter().enumerate() {
            assert!((0.99..=2.02).contains(v), "scheme {i}: 2x1/SB = {v}");
        }
        // Logical interleaving keeps a 2x1 fault inside one line, whose
        // bytes are ACE together: the MB-AVF is the SB-AVF (1.00x).
        let logical = row.normalized[0];
        assert!((1.0..=1.01).contains(&logical), "logical x2 2x1/SB = {logical}");
    }

    #[test]
    fn fig6_mode_ladders_match_the_protection_arithmetic() {
        let d = data("matmul");
        let row = fig6(&d);
        // Parity with x4 interleaving detects 2x1..4x1 (one bit per domain)
        // and grows over those modes...
        assert!(row.parity[0] >= 0.99, "2x1 {:?}", row.parity);
        assert!(row.parity[2] >= row.parity[0] - 0.02, "4x1 vs 2x1 {:?}", row.parity);
        // ...but an 8x1 fault puts an even two bits in every domain: parity
        // is fully defeated, so its *DUE* MB-AVF collapses.
        assert_eq!(row.parity[6], 0.0);
        // SEC-DED x4 corrects 2x1..4x1 entirely (single-bit regions)...
        assert_eq!(row.secded[0], 0.0);
        assert_eq!(row.secded[2], 0.0);
        // ...and detects 8x1 (two-bit regions): Section VI-C's equivalence,
        // Mx1 with SEC-DED ~ (M/I)x1 with parity.
        assert!(row.secded[6] > 0.0);
        let rel = row.secded[6] / row.parity[0];
        assert!((0.5..=2.0).contains(&rel), "8x1 SEC-DED vs 2x1 parity: {rel}");
        // Both put one detected region in each of the same four domains:
        // 8x1 SEC-DED equals 4x1 parity.
        let rel = row.secded[6] / row.parity[2];
        assert!((rel - 1.0).abs() <= 0.01, "8x1 SEC-DED vs 4x1 parity: {rel}");
    }

    #[test]
    fn fig9_sdc_plateaus_for_large_modes() {
        let d = data("matmul");
        let row = fig9(&d);
        // 6x1 SDC >= 5x1 SDC (a 5x1 fault leaves one detectable region).
        assert!(row.sdc[1] >= row.sdc[0] - 1e-9, "{:?}", row.sdc);
        // From 6x1 on every region defeats SEC-DED: the SDC MB-AVF
        // plateaus.
        assert!(row.sdc[1] > 0.0, "{:?}", row.sdc);
        for m in [7, 8] {
            let rel = row.sdc[m - 5] / row.sdc[1];
            assert!((rel - 1.0).abs() <= 0.01, "{m}x1 vs 6x1 SDC: {rel} in {:?}", row.sdc);
        }
    }

    #[test]
    fn fig10_false_due_present_for_comd() {
        let d = data("comd");
        let row = fig10(&d);
        let (t, f) = row.due[0];
        assert!(t > 0.0);
        assert!(f > 0.0, "comd's dead diagnostics must produce false DUE");
    }

    #[test]
    fn fig11_mb_analysis_beats_approximation() {
        let d = data("dct");
        let rows = fig11(&d);
        assert_eq!(rows.len(), 8);
        // For inter-thread (lock-step) designs the MB-AVF analysis converts
        // SDCs to DUEs that the SB-AVF approximation misses entirely.
        for r in rows.iter().filter(|r| r.label.contains("tx")) {
            assert!(
                r.sdc_mb <= r.sdc_approx + 1e-9,
                "{}: MB-AVF SDC {} must not exceed the conservative approx {}",
                r.label,
                r.sdc_mb,
                r.sdc_approx
            );
        }
        // The Section VIII headline: parity with x4 inter-thread interleaving
        // has substantially lower SDC than SEC-DED with x2 interleaving.
        let find = |label: &str| rows.iter().find(|r| r.label == label).expect("design present");
        let p_tx4 = find("parity tx4");
        let e_rx2 = find("SEC-DED rx2");
        let e_tx2 = find("SEC-DED tx2");
        assert!(
            p_tx4.sdc_mb < e_rx2.sdc_mb,
            "parity tx4 ({}) must beat SEC-DED rx2 ({})",
            p_tx4.sdc_mb,
            e_rx2.sdc_mb
        );
        assert!(p_tx4.sdc_mb <= e_tx2.sdc_mb + 1e-12);
        // For every scheme and factor, inter-thread interleaving beats
        // intra-thread interleaving on SDC.
        for scheme in ["parity", "SEC-DED"] {
            for f in [2, 4] {
                let tx = find(&format!("{scheme} tx{f}")).sdc_mb;
                let rx = find(&format!("{scheme} rx{f}")).sdc_mb;
                assert!(tx <= rx, "{scheme} x{f}: tx SDC {tx} must not exceed rx SDC {rx}");
            }
        }
        // Parity is cheaper than SEC-DED.
        assert!(rows[0].overhead < rows[4].overhead);
    }

    #[test]
    fn approx_defeat_logic() {
        use ProtectionKind::*;
        // 2x1 with x2 interleave: one bit per parity domain -> detected.
        assert!(!approx_defeated(Parity, 2, 2));
        // 4x1 with x2: two bits per parity domain -> undetected.
        assert!(approx_defeated(Parity, 4, 2));
        // 6x1 with x2 SEC-DED: three bits per domain -> undetected.
        assert!(approx_defeated(SecDed, 6, 2));
        // 5x1 with x2 SEC-DED: regions of 3 and 2 -> the 3 defeats it.
        assert!(approx_defeated(SecDed, 5, 2));
        // 4x1 with x4 SEC-DED: single-bit regions -> corrected.
        assert!(!approx_defeated(SecDed, 4, 4));
    }

    /// Figures 6, 9, 10 and 11 as computed before the grid: one `mb_avf`
    /// call per mode and scheme.
    mod per_call {
        use super::super::*;

        pub fn fig6(d: &WorkloadData) -> Fig6Row {
            let sb = sb_due_avf(d);
            let il = CacheInterleave::WayPhysical(4);
            let mut parity = [0.0; 7];
            let mut secded = [0.0; 7];
            for (i, m) in MODES_2_TO_8.into_iter().enumerate() {
                parity[i] = normalized(l1_mb_avf(d, il, ProtectionKind::Parity, m).due_avf(), sb);
                secded[i] = normalized(l1_mb_avf(d, il, ProtectionKind::SecDed, m).due_avf(), sb);
            }
            Fig6Row { workload: d.name, parity, secded }
        }

        pub fn fig9(d: &WorkloadData) -> Fig9Row {
            let sb = sb_due_avf(d);
            let il = CacheInterleave::WayPhysical(2);
            let mut sdc = [0.0; 4];
            for (i, m) in [5u32, 6, 7, 8].into_iter().enumerate() {
                sdc[i] = normalized(l1_mb_avf(d, il, ProtectionKind::SecDed, m).sdc_avf(), sb);
            }
            Fig9Row { workload: d.name, sdc }
        }

        pub fn fig10(d: &WorkloadData) -> Fig10Row {
            let il = CacheInterleave::WayPhysical(4);
            let mut due = [(0.0, 0.0); 4];
            for (i, m) in [1u32, 2, 3, 4].into_iter().enumerate() {
                let r = l1_mb_avf(d, il, ProtectionKind::Parity, m);
                due[i] = (r.true_due_avf(), r.false_due_avf());
            }
            Fig10Row { workload: d.name, due }
        }

        pub fn fig11(d: &WorkloadData) -> Vec<Fig11Row> {
            let rates = paper_table3();
            let sb_ace = raw_avf(&d.vgpr);
            fig11_designs()
                .into_iter()
                .map(|(scheme, il)| {
                    let layout = VgprLayout::new(d.vgpr_geom, il).expect("paper geometry");
                    let lock_step = matches!(il, VgprInterleave::InterThread(_));
                    let cfg = AnalysisConfig::new(scheme).with_due_preempts_sdc(lock_step);
                    let mut sdc_pairs = Vec::new();
                    let mut due_pairs = Vec::new();
                    let mut approx_pairs = Vec::new();
                    for rate in &rates {
                        let res = mb_avf(&d.vgpr, &layout, &FaultMode::mx1(rate.mode_bits), &cfg)
                            .expect("mode fits the VGPR row");
                        sdc_pairs.push((rate.clone(), res.sdc_avf()));
                        due_pairs.push((rate.clone(), res.due_avf()));
                        let approx = if approx_defeated(scheme, rate.mode_bits, il.factor()) {
                            sb_ace
                        } else {
                            0.0
                        };
                        approx_pairs.push((rate.clone(), approx));
                    }
                    Fig11Row {
                        label: format!("{scheme} {}", il.label()),
                        sdc_mb: SerBreakdown::new(sdc_pairs).total_fit(),
                        sdc_approx: SerBreakdown::new(approx_pairs).total_fit(),
                        due_mb: SerBreakdown::new(due_pairs).total_fit(),
                        overhead: scheme.overhead(32),
                    }
                })
                .collect()
        }
    }

    /// Figures 5 and 8 without windowed analysis: each window's value is
    /// the whole-run MB-AVF of the L1 clipped to that window.
    mod direct {
        use super::super::*;
        use mbavf_core::timeline::{Interval, TimelineStore};

        /// `store`'s timelines within `[start, end)`, shifted to start at
        /// cycle 0.
        fn clip(store: &TimelineStore, start: u64, end: u64) -> TimelineStore {
            let mut clipped = TimelineStore::new(store.num_bytes(), end - start);
            for (b, tl) in store.iter().enumerate() {
                for iv in tl.intervals().iter().filter(|iv| iv.start < end && iv.end > start) {
                    let (s, e) = (iv.start.max(start) - start, iv.end.min(end) - start);
                    let iv = Interval { start: s, end: e, ..*iv };
                    clipped.byte_mut(b).push(iv).expect("clipped intervals stay ordered");
                }
            }
            clipped
        }

        /// The L1 clipped to each of the windows `fig5` and `fig8` use.
        pub fn windows(d: &WorkloadData, windows: u64) -> Vec<TimelineStore> {
            let window = d.cycles.div_ceil(windows.max(1));
            let total = d.l1.total_cycles();
            (0..total.div_ceil(window))
                .map(|w| clip(&d.l1, w * window, (w * window + window).min(total)))
                .collect()
        }

        /// Per window, the parity MB-AVFs of the `Mx1` modes `ms` on one
        /// layout, as `[window][mode]`.
        fn series(
            d: &WorkloadData,
            clipped: &[TimelineStore],
            il: CacheInterleave,
            ms: &[u32],
        ) -> Vec<Vec<MbAvfResult>> {
            let layout = l1_layout(d, il);
            let modes: Vec<FaultMode> = ms.iter().map(|&m| FaultMode::mx1(m)).collect();
            let cfg = [AnalysisConfig::new(ProtectionKind::Parity)];
            clipped
                .iter()
                .map(|store| {
                    let grid = mb_avf_grid(store, &layout, &modes, &cfg).expect("modes fit the L1");
                    grid.into_iter().map(|mut row| row.remove(0)).collect()
                })
                .collect()
        }

        pub fn fig5_fig8(
            d: &WorkloadData,
            windows: u64,
            clipped: &[TimelineStore],
        ) -> (Fig5Series, Fig8Series) {
            let window = d.cycles.div_ceil(windows.max(1));
            let index = series(d, clipped, CacheInterleave::IndexPhysical(2), &[1, 2, 3]);
            let way = series(d, clipped, CacheInterleave::WayPhysical(2), &[2, 3]);
            let logical = series(d, clipped, CacheInterleave::Logical(2), &[2]);
            let due = |s: &[Vec<MbAvfResult>], m: usize| s.iter().map(|w| w[m].due_avf()).collect();
            let fig5 = Fig5Series {
                window,
                sb: due(&index, 0),
                mb: [due(&logical, 0), due(&way, 0), due(&index, 1)],
            };
            let sdc_due = |s: &[Vec<MbAvfResult>], m: usize| -> Vec<(f64, f64)> {
                s.iter().map(|w| (w[m].sdc_avf(), w[m].due_avf())).collect()
            };
            let fig8 = Fig8Series { window, index: sdc_due(&index, 2), way: sdc_due(&way, 1) };
            (fig5, fig8)
        }
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    /// The grid-based Figures 6, 9, 10 and 11 reproduce the per-call rows
    /// bit for bit, on workloads that include divergent EXEC (pathfinder).
    #[test]
    fn grid_figures_match_the_per_call_reference() {
        for name in ["matmul", "dct", "comd", "pathfinder"] {
            let d = data(name);
            let (got, want) = (fig6(&d), per_call::fig6(&d));
            assert_eq!(got.workload, want.workload);
            assert_eq!(bits(got.parity), bits(want.parity), "{name} fig6 parity");
            assert_eq!(bits(got.secded), bits(want.secded), "{name} fig6 SEC-DED");

            let (got, want) = (fig9(&d), per_call::fig9(&d));
            assert_eq!(got.workload, want.workload);
            assert_eq!(bits(got.sdc), bits(want.sdc), "{name} fig9");

            let (got, want) = (fig10(&d), per_call::fig10(&d));
            assert_eq!(got.workload, want.workload);
            let flat = |row: &Fig10Row| bits(row.due.iter().flat_map(|&(t, f)| [t, f]));
            assert_eq!(flat(&got), flat(&want), "{name} fig10");

            let (got, want) = (fig11(&d), per_call::fig11(&d));
            assert_eq!(got.len(), want.len(), "{name} fig11 designs");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.label, w.label, "{name} fig11 design order");
                let row = |r: &Fig11Row| bits([r.sdc_mb, r.sdc_approx, r.due_mb, r.overhead]);
                assert_eq!(row(g), row(w), "{name} fig11 {}", g.label);
            }
        }
    }

    /// Windowed Figures 5 and 8 reproduce, bit for bit, the whole-run
    /// analysis of each window's clipped L1 on MiniFE.
    #[test]
    fn windowed_figures_match_the_direct_sweep() {
        const WINDOWS: u64 = 40;
        let d = data("minife");
        let clipped = direct::windows(&d, WINDOWS);
        let (want5, want8) = direct::fig5_fig8(&d, WINDOWS, &clipped);
        let got = fig5(&d, WINDOWS);
        assert_eq!(got.window, want5.window);
        assert_eq!(bits(got.sb), bits(want5.sb), "fig5 SB");
        for (i, (g, w)) in got.mb.into_iter().zip(want5.mb).enumerate() {
            assert_eq!(bits(g), bits(w), "fig5 {:?}", FIG4_SCHEMES[i]);
        }
        let got = fig8(&d, WINDOWS);
        assert_eq!(got.window, want8.window);
        let flat = |s: Vec<(f64, f64)>| bits(s.into_iter().flat_map(|(sdc, due)| [sdc, due]));
        assert_eq!(flat(got.index), flat(want8.index), "fig8 index-physical");
        assert_eq!(flat(got.way), flat(want8.way), "fig8 way-physical");
    }

    #[test]
    fn windows_sum_to_run() {
        let d = data("minife");
        let s = fig5(&d, 10);
        assert_eq!(s.sb.len(), s.mb[0].len());
        assert!(s.sb.len() >= 10);
        let f8 = fig8(&d, 10);
        assert_eq!(f8.index.len(), f8.way.len());
    }
}
