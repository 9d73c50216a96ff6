//! Property-based tests for mbavf-core's data structures and models.
//!
//! These were originally written against the `proptest` crate; the workspace
//! is dependency-free (builds must succeed on a machine with no registry
//! access), so each property is now driven by an explicit case loop over
//! [`SplitMix64`] streams. Every case's stream index is part of the panic
//! message, so a failure reproduces with `SplitMix64::stream(SEED, index)`.

use mbavf_core::analysis::{mb_avf, mb_avf_grid, windowed_mb_avf, AnalysisConfig, MbAvfResult};
use mbavf_core::ecc::{Crc32, Crc8, DecTed, Decoded, Gf64, Parity, SecDed};
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{
    CacheGeometry, CacheInterleave, CacheLayout, LinearLayout, PhysicalLayout, VgprGeometry,
    VgprInterleave, VgprLayout,
};
use mbavf_core::markov::MarkovModel;
use mbavf_core::mttf::MemoryModel;
use mbavf_core::protection::{Action, ProtectionKind};
use mbavf_core::rng::SplitMix64;
use mbavf_core::timeline::{BitState, ByteTimeline, Interval, TimelineStore};
use mbavf_core::{BitRef, CoreError};
use std::collections::HashSet;

/// Test-suite master seed: every property derives its cases from streams of
/// this value, so the whole file is one deterministic corpus.
const SEED: u64 = 0x5EED_CA5E;

/// Run `cases` deterministic random cases of a property.
fn for_cases(cases: u64, mut prop: impl FnMut(&mut SplitMix64)) {
    for i in 0..cases {
        let mut rng = SplitMix64::stream(SEED, i);
        prop(&mut rng);
    }
}

fn severity(a: Action) -> u8 {
    match a {
        Action::Correct => 0,
        Action::Detect => 1,
        Action::NoDetect => 2,
    }
}

/// Fault-mode normalization is idempotent and anchored at the origin.
#[test]
fn fault_mode_normalization() {
    for_cases(64, |rng| {
        let n = rng.range_u64(1, 12) as usize;
        let offsets: Vec<(u32, u32)> =
            (0..n).map(|_| (rng.below_u32(40), rng.below_u32(40))).collect();
        let m = FaultMode::from_offsets("m", offsets.clone()).unwrap();
        assert!(m.offsets().iter().any(|o| o.0 == 0));
        assert!(m.offsets().iter().any(|o| o.1 == 0));
        assert!(m.len() <= offsets.len());
        // Re-normalizing the normalized offsets is a fixed point.
        let m2 = FaultMode::from_offsets("m2", m.offsets().iter().copied()).unwrap();
        assert_eq!(m.offsets(), m2.offsets());
        // Group counting matches enumeration on a small array.
        let count = m.groups(45, 45).unwrap().count() as u64;
        assert_eq!(count, m.group_count(45, 45));
    });
}

/// Correction capability orders the schemes: DEC-TED's action is never more
/// severe than SEC-DED's, which is never more severe than unprotected.
#[test]
fn protection_strength_is_ordered() {
    for k in 0u32..16 {
        let none = ProtectionKind::None.action(k);
        let secded = ProtectionKind::SecDed.action(k);
        let dected = ProtectionKind::DecTed.action(k);
        assert!(severity(dected) <= severity(secded), "k={k}");
        assert!(severity(secded) <= severity(none).max(1), "k={k}");
        // Parity detects exactly the odd weights.
        let parity = ProtectionKind::Parity.action(k);
        if k > 0 {
            assert_eq!(parity == Action::Detect, k % 2 == 1, "k={k}");
        }
    }
}

/// Even parity over any word flags exactly the odd-weight flips.
#[test]
fn parity_flags_odd_weights() {
    for_cases(256, |rng| {
        let data = rng.next_u64();
        let flips = rng.next_u64();
        let p = Parity;
        let bit = p.encode(data);
        let decoded = p.decode(data ^ flips, bit);
        if flips.count_ones() % 2 == 1 {
            assert_eq!(decoded, Decoded::Detected, "data {data:#x} flips {flips:#x}");
        } else {
            assert_eq!(decoded, Decoded::Ok(data ^ flips), "data {data:#x} flips {flips:#x}");
        }
    });
}

/// SEC-DED roundtrips and corrects any single flip for any width.
#[test]
fn secded_any_width() {
    for_cases(128, |rng| {
        let width = rng.range_u64(1, 65) as u32;
        let code = SecDed::new(width);
        let data = if width == 64 { rng.next_u64() } else { rng.next_u64() & ((1 << width) - 1) };
        let cw = code.encode(data);
        assert_eq!(code.decode(cw), Decoded::Ok(data), "width {width}");
        let pos = rng.below_u32(code.codeword_bits());
        assert_eq!(
            code.decode(cw ^ (1u128 << pos)),
            Decoded::Corrected { data, bits: 1 },
            "width {width} pos {pos}"
        );
    });
}

/// The DEC-TED syndrome machinery distinguishes 0/1/2-flip cosets for
/// arbitrary data; triples never decode back to the original.
#[test]
fn dected_cosets() {
    for_cases(128, |rng| {
        let data = rng.next_u32();
        let code = DecTed::new();
        let cw = code.encode(data);
        assert_eq!(code.decode(cw), Decoded::Ok(data));
        let (i, j, k) = (rng.below_u32(45), rng.below_u32(45), rng.below_u32(45));
        if i != j && j != k && i != k {
            let bad = cw ^ (1u64 << i) ^ (1u64 << j) ^ (1u64 << k);
            match code.decode(bad) {
                Decoded::Detected => {}
                Decoded::Corrected { data: d, .. } => {
                    assert_ne!(d, data, "bits {i},{j},{k}")
                }
                Decoded::Ok(_) => panic!("triple {i},{j},{k} produced a clean decode"),
            }
        }
    });
}

/// CRC32 detects any nonzero flip pattern within a 32-bit window.
#[test]
fn crc32_short_windows() {
    for_cases(128, |rng| {
        let len = rng.range_u64(8, 32) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let crc = Crc32::new();
        let sum = crc.checksum(&data);
        let mut bad = data.clone();
        let start = (rng.below(24) as usize).min(data.len() - 4);
        let pat = rng.next_u32().max(1);
        for (k, byte) in pat.to_le_bytes().iter().enumerate() {
            bad[start + k] ^= byte;
        }
        if bad != data {
            assert_eq!(crc.decode(&bad, sum), Decoded::Detected, "start {start} pat {pat:#x}");
        }
    });
}

/// CRC8 roundtrips.
#[test]
fn crc8_roundtrip() {
    for_cases(128, |rng| {
        let len = rng.below(64) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let crc = Crc8;
        let sum = crc.checksum(&data);
        assert_eq!(crc.decode(&data, sum), Decoded::Ok(&data[..]));
    });
}

/// GF(2^6) is a field: nonzero elements form a group under mul.
#[test]
fn gf64_field_axioms() {
    let gf = Gf64::new();
    for_cases(256, |rng| {
        let a = rng.range_u64(1, 64) as u8;
        let b = rng.range_u64(1, 64) as u8;
        let c = rng.range_u64(1, 64) as u8;
        assert_eq!(gf.mul(a, b), gf.mul(b, a));
        assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        assert_eq!(gf.mul(a, gf.inv(a)), 1);
        assert_eq!(gf.div(gf.mul(a, b), b), a);
    });
}

/// Every cache layout is a bijection bits <-> (byte, bit) and its domain
/// partition covers whole lines (physical) or splits lines evenly (logical).
#[test]
fn cache_layouts_bijective() {
    // Small enough space to sweep exhaustively instead of sampling.
    for sets_pow in 1u32..4 {
        for ways_pow in 0u32..3 {
            for style in 0u8..3 {
                for factor_pow in 0u32..2 {
                    let geom =
                        CacheGeometry { sets: 1 << sets_pow, ways: 1 << ways_pow, line_bytes: 16 };
                    let f = 1 << factor_pow;
                    let il = match style {
                        0 => CacheInterleave::Logical(f),
                        1 => CacheInterleave::WayPhysical(f),
                        _ => CacheInterleave::IndexPhysical(f),
                    };
                    let Ok(layout) = CacheLayout::new(geom, il) else {
                        continue; // invalid factor for this geometry: fine
                    };
                    let mut seen = HashSet::new();
                    let mut domains = HashSet::new();
                    for r in 0..layout.rows() {
                        for c in 0..layout.cols() {
                            let b = layout.bit_at(r, c);
                            assert!(b.bit < 8);
                            assert!(seen.insert((b.byte, b.bit)), "{il:?} duplicate ({r},{c})");
                            domains.insert(b.domain);
                        }
                    }
                    assert_eq!(seen.len() as u64, u64::from(geom.bytes()) * 8, "{il:?}");
                    let expect_domains = match il {
                        CacheInterleave::Logical(i) => geom.lines() * i,
                        _ => geom.lines(),
                    };
                    assert_eq!(domains.len() as u32, expect_domains, "{il:?}");
                }
            }
        }
    }
}

/// VGPR layouts are bijective with one domain per register instance.
#[test]
fn vgpr_layouts_bijective() {
    for threads_pow in 1u32..4 {
        for regs_pow in 1u32..4 {
            for inter in [false, true] {
                for factor_pow in 0u32..2 {
                    let geom = VgprGeometry { threads: 1 << threads_pow, regs: 1 << regs_pow };
                    let f = 1 << factor_pow;
                    let il = if inter {
                        VgprInterleave::InterThread(f)
                    } else {
                        VgprInterleave::IntraThread(f)
                    };
                    let Ok(layout) = VgprLayout::new(geom, il) else { continue };
                    let mut seen = HashSet::new();
                    let mut domains = HashSet::new();
                    for r in 0..layout.rows() {
                        for c in 0..layout.cols() {
                            let b = layout.bit_at(r, c);
                            assert!(seen.insert((b.byte, b.bit)), "{il:?} duplicate ({r},{c})");
                            domains.insert(b.domain);
                        }
                    }
                    assert_eq!(seen.len() as u64, u64::from(geom.bytes()) * 8, "{il:?}");
                    assert_eq!(domains.len() as u32, geom.instances(), "{il:?}");
                }
            }
        }
    }
}

/// Run length of the memo-differential stores.
const MEMO_CYCLES: u64 = 100;

/// A random timeline of a few labelled intervals (possibly none).
fn random_timeline(rng: &mut SplitMix64) -> ByteTimeline {
    let mut tl = ByteTimeline::new();
    let mut t = rng.below(20);
    while t < MEMO_CYCLES - 20 && !rng.chance(0.3) {
        let end = t + rng.range_u64(1, 20);
        tl.push(Interval { start: t, end, ace_mask: rng.next_u32() as u8, checked: rng.bool() })
            .unwrap();
        t = end + rng.below(10);
    }
    tl
}

/// A store of `units` runs of `unit_bytes` bytes (cache lines, register
/// instances) whose content repeats, so both memo levels hit: each unit
/// copies its lane group's pattern (`lanes` consecutive units share one),
/// except for an occasional divergent unit. Patterns draw their bytes from
/// a small timeline pool, so bytes repeat within and across units too.
fn replicated_store(
    rng: &mut SplitMix64,
    units: usize,
    unit_bytes: usize,
    lanes: usize,
) -> TimelineStore {
    let pool: Vec<ByteTimeline> = (0..4).map(|_| random_timeline(rng)).collect();
    let patterns: Vec<Vec<usize>> =
        (0..3).map(|_| (0..unit_bytes).map(|_| rng.below(4) as usize).collect()).collect();
    let base: Vec<usize> = (0..units.div_ceil(lanes)).map(|_| rng.below(3) as usize).collect();
    let mut store = TimelineStore::new(units * unit_bytes, MEMO_CYCLES);
    for u in 0..units {
        let p = if rng.chance(0.125) { rng.below(3) as usize } else { base[u / lanes] };
        for (b, &tl) in patterns[p].iter().enumerate() {
            *store.byte_mut(u * unit_bytes + b) = pool[tl].clone();
        }
    }
    store
}

/// The unmemoized reference of the memo properties: per configuration of
/// `cfgs`, per cycle, the `[false DUE, true DUE, SDC]` group counts of
/// `mode`. Every group is resolved bit by bit through `bit_at`, split into
/// regions by domain, and classified cycle by cycle from its bits' interval
/// states — no band classes, no group memo, no segment sweep. Errors come
/// in the order `mb_avf` reports them.
fn direct_cycle_counts<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfgs: &[AnalysisConfig],
) -> Result<Vec<Vec<[u128; 3]>>, CoreError> {
    let total = store.total_cycles();
    // The state of every bit of the store in every cycle.
    let states: Vec<Vec<BitState>> = (0..store.num_bytes() * 8)
        .map(|i| {
            let intervals = store.byte(i / 8).intervals();
            (0..total)
                .map(|t| {
                    let iv = intervals.iter().find(|iv| iv.start <= t && t < iv.end);
                    iv.map_or(BitState::UnAce, |iv| iv.bit_state((i % 8) as u8))
                })
                .collect()
        })
        .collect();
    // Resolve every group first: the first bit outside the store, in group
    // order, is the error. Per group, per member: its bit's index in
    // `states` and its region; then the number of regions.
    let mut groups: Vec<(Vec<(usize, usize)>, usize)> = Vec::new();
    for group in mode.groups(layout.rows(), layout.cols())? {
        let mut domains: Vec<u64> = Vec::new();
        let mut members: Vec<(usize, usize)> = Vec::new();
        for (row, col) in group.bits(mode) {
            let BitRef { domain, byte, bit } = layout.bit_at(row, col);
            if byte as usize >= store.num_bytes() {
                return Err(CoreError::ByteOutOfRange { byte, len: store.num_bytes() as u32 });
            }
            if bit >= 8 {
                return Err(CoreError::BitOutOfRange { bit });
            }
            let region = domains.iter().position(|&d| d == domain).unwrap_or_else(|| {
                domains.push(domain);
                domains.len() - 1
            });
            members.push((byte as usize * 8 + usize::from(bit), region));
        }
        groups.push((members, domains.len()));
    }
    let mut counts = vec![vec![[0u128; 3]; total as usize]; cfgs.len()];
    for (members, regions) in groups {
        let sizes = (0..regions).map(|r| members.iter().filter(|m| m.1 == r).count() as u32);
        let sizes: Vec<u32> = sizes.collect();
        let actions: Vec<Vec<Action>> =
            cfgs.iter().map(|cfg| sizes.iter().map(|&k| cfg.scheme.action(k)).collect()).collect();
        let mut region_state = vec![BitState::UnAce; regions];
        for t in 0..total as usize {
            region_state.fill(BitState::UnAce);
            for &(bit, region) in &members {
                region_state[region] = region_state[region].max(states[bit][t]);
            }
            if region_state.iter().all(|&st| st == BitState::UnAce) {
                continue;
            }
            for ((cfg, actions), counts) in cfgs.iter().zip(&actions).zip(&mut counts) {
                let (mut sdc, mut true_due, mut false_due) = (false, false, false);
                for (action, state) in actions.iter().zip(&region_state) {
                    match (action, state) {
                        (Action::Detect, BitState::Ace) => true_due = true,
                        (Action::Detect, BitState::FalseDetect) => false_due = true,
                        (Action::NoDetect, BitState::Ace) => sdc = true,
                        _ => {}
                    }
                }
                // SDC outranks DUE, unless a lock-step read raises the DUE
                // first.
                let class = match (sdc, true_due, false_due) {
                    (true, true, _) | (true, _, true) if cfg.due_preempts_sdc => 1,
                    (true, _, _) => 2,
                    (false, true, _) => 1,
                    (false, false, true) => 0,
                    (false, false, false) => continue,
                };
                counts[t][class] += 1;
            }
        }
    }
    Ok(counts)
}

/// Sum per-cycle `[false DUE, true DUE, SDC]` counts.
fn sum_counts(cycles: &[[u128; 3]]) -> [u128; 3] {
    cycles.iter().fold([0; 3], |[f, t, s], c| [f + c[0], t + c[1], s + c[2]])
}

/// A result's `[false DUE, true DUE, SDC]` group-cycles.
fn counters(r: &MbAvfResult) -> [u128; 3] {
    [r.false_due_group_cycles(), r.true_due_group_cycles(), r.sdc_group_cycles()]
}

/// Check memoized `mb_avf` against the unmemoized reference for every mode
/// and analysis configuration.
fn assert_memo_matches_direct<L: PhysicalLayout>(store: &TimelineStore, layout: &L, what: &str) {
    let cfgs = grid_configs();
    for mode in grid_modes() {
        let reference = direct_cycle_counts(store, layout, &mode, &cfgs);
        for (i, cfg) in cfgs.iter().enumerate() {
            let (scheme, lock_step) = (cfg.scheme, cfg.due_preempts_sdc);
            let ctx = format!("{what} {mode} {scheme:?} lock_step={lock_step}");
            let memo = mb_avf(store, layout, &mode, cfg).map(|r| counters(&r));
            let direct = reference.clone().map(|counts| sum_counts(&counts[i]));
            // Modes wider than the layout must fail the same way.
            assert_eq!(memo, direct, "[false DUE, true DUE, SDC] of {ctx}");
        }
    }
}

/// Check memoized `windowed_mb_avf` against the unmemoized reference for
/// every mode of `modes` and every analysis configuration, with windows of 7
/// and 13 cycles (neither divides the run) and one run-long window.
fn assert_memo_windows_match_direct<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    modes: &[FaultMode],
    what: &str,
) {
    let cfgs = grid_configs();
    for mode in modes {
        let reference = direct_cycle_counts(store, layout, mode, &cfgs);
        for (i, cfg) in cfgs.iter().enumerate() {
            for window in [7, 13, MEMO_CYCLES] {
                let (scheme, lock_step) = (cfg.scheme, cfg.due_preempts_sdc);
                let ctx = format!("{what} {mode} {scheme:?} lock_step={lock_step} window={window}");
                let memo = windowed_mb_avf(store, layout, mode, cfg, window)
                    .map(|windows| windows.iter().map(counters).collect::<Vec<_>>());
                let direct = reference
                    .clone()
                    .map(|counts| counts[i].chunks(window as usize).map(sum_counts).collect());
                assert_eq!(memo, direct, "per-window [false DUE, true DUE, SDC] of {ctx}");
            }
        }
    }
}

/// Any of the three layout families, so one case list can hold them all.
#[derive(Debug)]
enum AnyLayout {
    Linear(LinearLayout),
    Cache(CacheLayout),
    Vgpr(VgprLayout),
}

impl PhysicalLayout for AnyLayout {
    fn rows(&self) -> u32 {
        match self {
            Self::Linear(l) => l.rows(),
            Self::Cache(l) => l.rows(),
            Self::Vgpr(l) => l.rows(),
        }
    }

    fn cols(&self) -> u32 {
        match self {
            Self::Linear(l) => l.cols(),
            Self::Cache(l) => l.cols(),
            Self::Vgpr(l) => l.cols(),
        }
    }

    fn bit_at(&self, row: u32, col: u32) -> BitRef {
        match self {
            Self::Linear(l) => l.bit_at(row, col),
            Self::Cache(l) => l.bit_at(row, col),
            Self::Vgpr(l) => l.bit_at(row, col),
        }
    }
}

/// The memo properties' cases: stores with replicated rows and lanes, over
/// every layout family, as `(label, store, layout)`.
fn memo_cases(rng: &mut SplitMix64) -> Vec<(String, TimelineStore, AnyLayout)> {
    let mut cases = Vec::new();
    // Linear rows over (mostly) one repeated byte: 12-bit rows put equal
    // bytes on different bit indices, and 8-bit rows with an odd domain
    // width put them on different domain partitions. Regular layouts never
    // vary either between rows. 40-bit rows of 3-bit domains cross 14
    // domains per row and up to 28 per 2-row band, more than any layout
    // below, with a partition that shifts from row to row.
    let bits_per_domain = [3, 5, 6, 7][rng.below(4) as usize];
    for layout in [
        LinearLayout::new(4, 12, 4),
        LinearLayout::new(4, 8, bits_per_domain),
        LinearLayout::new(4, 40, 3),
    ] {
        let bytes = (layout.num_bits() as usize).div_ceil(8);
        let store = replicated_store(rng, bytes, 1, bytes);
        cases.push((format!("{layout:?}"), store, AnyLayout::Linear(layout)));
    }

    let geom = CacheGeometry { sets: 4, ways: 4, line_bytes: 2 };
    for f in [2, 4] {
        for il in [
            CacheInterleave::Logical(f),
            CacheInterleave::WayPhysical(f),
            CacheInterleave::IndexPhysical(f),
        ] {
            let layout = CacheLayout::new(geom, il).unwrap();
            let store = replicated_store(rng, geom.lines() as usize, 2, 1);
            cases.push((il.label(), store, AnyLayout::Cache(layout)));
        }
    }

    // Lanes of one register share a pattern, as lockstep SIMT lanes do.
    let geom = VgprGeometry { threads: 4, regs: 4 };
    for il in [
        VgprInterleave::IntraThread(2),
        VgprInterleave::IntraThread(4),
        VgprInterleave::InterThread(2),
        VgprInterleave::InterThread(4),
    ] {
        let layout = VgprLayout::new(geom, il).unwrap();
        let store = replicated_store(rng, geom.instances() as usize, 4, 4);
        cases.push((il.label(), store, AnyLayout::Vgpr(layout)));
    }
    cases
}

/// The two-level MB-AVF memo (wordline bands, then fault groups) is exact:
/// on stores with replicated rows and lanes, memoized `mb_avf` equals the
/// unmemoized per-cycle reference (`direct_cycle_counts`) in every
/// group-cycle counter, across layouts, modes, schemes, and both SDC
/// precedence rules.
#[test]
fn memoized_mb_avf_matches_direct_sweep() {
    for_cases(2, |rng| {
        for (what, store, layout) in memo_cases(rng) {
            assert_memo_matches_direct(&store, &layout, &what);
        }
    });
}

/// Windowed analysis goes through the same memo, and is exact too: on the
/// stores, layouts, modes and schemes of `memoized_mb_avf_matches_direct_sweep`,
/// every window's counters equal the unmemoized reference's, for window
/// lengths that do and do not divide the run. A mode wider than the layout,
/// and a layout reaching past the store, fail with the reference's error.
#[test]
fn memoized_windows_match_direct_sweep() {
    for_cases(2, |rng| {
        for (what, store, layout) in memo_cases(rng) {
            assert_memo_windows_match_direct(&store, &layout, &grid_modes(), &what);
            let wide = [FaultMode::mx1(layout.cols() + 1)];
            assert_memo_windows_match_direct(&store, &layout, &wide, &format!("wide {what}"));
            let mut short = TimelineStore::new(store.num_bytes() - 1, MEMO_CYCLES);
            for b in 0..short.num_bytes() {
                *short.byte_mut(b) = store.byte(b).clone();
            }
            let cfg = AnalysisConfig::new(ProtectionKind::None);
            let err = windowed_mb_avf(&short, &layout, &FaultMode::mx1(1), &cfg, 7);
            assert!(err.is_err(), "{what}: a layout past the store must fail");
            assert_memo_windows_match_direct(
                &short,
                &layout,
                &grid_modes(),
                &format!("short {what}"),
            );
        }
    });
}

/// The fault modes every grid case asks for: `1x1`–`8x1`, a square, and a
/// sparse pattern.
fn grid_modes() -> Vec<FaultMode> {
    let sparse = FaultMode::from_offsets("sparse", [(0, 0), (1, 2), (0, 3)]).unwrap();
    (1..=8).map(FaultMode::mx1).chain([FaultMode::rect(2, 2), sparse]).collect()
}

/// Every (scheme, SDC precedence) configuration.
fn grid_configs() -> Vec<AnalysisConfig> {
    let schemes = [
        ProtectionKind::None,
        ProtectionKind::Parity,
        ProtectionKind::SecDed,
        ProtectionKind::DecTed,
        ProtectionKind::Crc { burst_detect: 3 },
    ];
    schemes
        .into_iter()
        .flat_map(|scheme| {
            [false, true]
                .map(|lock_step| AnalysisConfig::new(scheme).with_due_preempts_sdc(lock_step))
        })
        .collect()
}

/// Check one grid call against per-pair `mb_avf` calls: every result (mode
/// name, groups, cycles and counters), or the error of the first failing
/// pair in mode order.
fn assert_grid_matches_per_call<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    modes: &[FaultMode],
    what: &str,
) {
    let cfgs = grid_configs();
    let per_call: Result<Vec<Vec<_>>, _> = modes
        .iter()
        .map(|mode| cfgs.iter().map(|cfg| mb_avf(store, layout, mode, cfg)).collect())
        .collect();
    let grid = mb_avf_grid(store, layout, modes, &cfgs);
    assert_eq!(grid, per_call, "{what}");
}

/// One `mb_avf_grid` call over every mode and configuration equals the
/// per-pair `mb_avf` calls, on the replicated stores and layout families of
/// `memoized_mb_avf_matches_direct_sweep`, for modes on both sides of the
/// memo cutoff, and fails with the per-call error when a mode does not fit
/// or the layout reaches past the store.
#[test]
fn mb_avf_grid_matches_per_call() {
    for_cases(2, |rng| {
        let bits_per_domain = [3, 5, 6, 7][rng.below(4) as usize];
        for layout in [LinearLayout::new(4, 12, 4), LinearLayout::new(4, 8, bits_per_domain)] {
            let bytes = (layout.num_bits() as usize).div_ceil(8);
            let store = replicated_store(rng, bytes, 1, bytes);
            let what = format!("{layout:?}");
            assert_grid_matches_per_call(&store, &layout, &grid_modes(), &what);
            // A mode too wide for the layout fails the grid.
            let mut modes = grid_modes();
            modes.insert(3, FaultMode::mx1(layout.cols() + 1));
            let err = mb_avf_grid(&store, &layout, &modes, &grid_configs());
            assert!(err.is_err(), "{what}: a mode wider than the layout must fail");
            assert_grid_matches_per_call(&store, &layout, &modes, &what);
            // So does a layout reaching past the store: its last rows hold
            // bits of missing bytes.
            let short = TimelineStore::new(bytes - 1, MEMO_CYCLES);
            let err = mb_avf_grid(&short, &layout, &grid_modes(), &grid_configs());
            assert!(err.is_err(), "{what}: a layout past the store must fail");
            assert_grid_matches_per_call(&short, &layout, &grid_modes(), &format!("short {what}"));
        }

        // Wide rows: modes past the 16-bit memo cutoff take the direct sweep.
        let layout = LinearLayout::new(4, 24, bits_per_domain);
        let bytes = (layout.num_bits() as usize).div_ceil(8);
        let store = replicated_store(rng, bytes, 1, bytes);
        let modes: Vec<FaultMode> = grid_modes().into_iter().chain([FaultMode::mx1(20)]).collect();
        assert_grid_matches_per_call(&store, &layout, &modes, &format!("{layout:?}"));

        let geom = CacheGeometry { sets: 4, ways: 4, line_bytes: 2 };
        for f in [2, 4] {
            for il in [
                CacheInterleave::Logical(f),
                CacheInterleave::WayPhysical(f),
                CacheInterleave::IndexPhysical(f),
            ] {
                let layout = CacheLayout::new(geom, il).unwrap();
                let store = replicated_store(rng, geom.lines() as usize, 2, 1);
                assert_grid_matches_per_call(&store, &layout, &grid_modes(), &il.label());
            }
        }

        let geom = VgprGeometry { threads: 4, regs: 4 };
        for il in [
            VgprInterleave::IntraThread(2),
            VgprInterleave::IntraThread(4),
            VgprInterleave::InterThread(2),
            VgprInterleave::InterThread(4),
        ] {
            let layout = VgprLayout::new(geom, il).unwrap();
            let store = replicated_store(rng, geom.instances() as usize, 4, 4);
            assert_grid_matches_per_call(&store, &layout, &grid_modes(), &il.label());
        }
    });
}

/// Timeline pushes preserve total ACE accounting under coalescing.
#[test]
fn timeline_accounting() {
    for_cases(128, |rng| {
        let n = rng.below(10) as usize;
        let mut tl = ByteTimeline::new();
        let mut t = 0u64;
        let mut expect_bits: u128 = 0;
        for _ in 0..n {
            let gap = rng.range_u64(1, 20);
            let len = rng.range_u64(1, 30);
            let mask = rng.next_u32() as u8;
            let checked = rng.bool();
            let start = t + gap;
            let end = start + len;
            tl.push(Interval { start, end, ace_mask: mask, checked }).unwrap();
            expect_bits += u128::from(mask.count_ones()) * u128::from(len);
            t = end;
        }
        assert_eq!(tl.ace_bit_cycles(), expect_bits);
        // Intervals stay sorted and disjoint.
        for w in tl.intervals().windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    });
}

/// Markov survival decreases with rate.
#[test]
fn markov_monotonicity() {
    for rate_exp in -2i32..4 {
        let rate = 10f64.powi(rate_exp);
        let m = MarkovModel::secded64(rate, None);
        let m_hot = MarkovModel::secded64(rate * 10.0, None);
        assert!(m.mttf_hours() >= m_hot.mttf_hours(), "rate {rate}");
    }
}

/// Empirical coverage of the binomial interval: across many seeded
/// Bernoulli campaigns, a nominal-95% Wilson interval must contain the true
/// rate about 95% of the time. It may dip slightly below nominal at awkward
/// (p, n) pairs.
#[test]
fn interval_empirical_coverage() {
    use mbavf_core::stats::wilson;
    const CAMPAIGNS: u64 = 400;
    for &(p, n) in &[(0.05f64, 200u64), (0.3, 120), (0.7, 80)] {
        let mut wilson_hits = 0u64;
        for c in 0..CAMPAIGNS {
            let mut rng = SplitMix64::stream(SEED ^ (n << 8), c);
            let k = (0..n).filter(|_| rng.f64() < p).count() as u64;
            if wilson(k, n, 0.95).contains(p) {
                wilson_hits += 1;
            }
        }
        let w_cov = wilson_hits as f64 / CAMPAIGNS as f64;
        assert!((0.91..=0.99).contains(&w_cov), "p={p} n={n}: wilson coverage {w_cov}");
        // Intervals that claim less must also deliver less: 80% interval is
        // strictly narrower than the 95% one on the same data.
        let narrow = wilson(n / 4, n, 0.80);
        let wide = wilson(n / 4, n, 0.95);
        assert!(narrow.halfwidth() < wide.halfwidth());
    }
}

/// MTTF scaling laws: temporal ~ 1/rate^2 (fixed lifetime), spatial ~ 1/rate.
#[test]
fn mttf_scaling() {
    for rate_exp in -8i32..-2 {
        let r = 10f64.powi(rate_exp);
        let a = MemoryModel::cache_32mb(r);
        let b = MemoryModel::cache_32mb(r * 10.0);
        let t_ratio = a.temporal_mttf_hours(Some(1e4)) / b.temporal_mttf_hours(Some(1e4));
        assert!((t_ratio - 100.0).abs() < 1e-6 * 100.0, "rate exp {rate_exp}");
        let s_ratio = a.spatial_mttf_hours(0.001) / b.spatial_mttf_hours(0.001);
        assert!((s_ratio - 10.0).abs() < 1e-6 * 10.0, "rate exp {rate_exp}");
    }
}
