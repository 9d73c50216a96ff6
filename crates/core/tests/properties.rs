//! Property-based tests for mbavf-core's data structures and models.
//!
//! These were originally written against the `proptest` crate; the workspace
//! is dependency-free (builds must succeed on a machine with no registry
//! access), so each property is now driven by an explicit case loop over
//! [`SplitMix64`] streams. Every case's stream index is part of the panic
//! message, so a failure reproduces with `SplitMix64::stream(SEED, index)`.

use mbavf_core::analysis::{mb_avf, windowed_mb_avf, AnalysisConfig};
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
use mbavf_core::timeline::{ByteTimeline, Interval, TimelineStore};
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

/// Check memoized `mb_avf` against the unmemoized direct sweep for every
/// mode and analysis configuration.
fn assert_memo_matches_direct<L: PhysicalLayout>(store: &TimelineStore, layout: &L, what: &str) {
    let sparse = FaultMode::from_offsets("sparse", [(0, 0), (1, 2), (0, 3)]).unwrap();
    let modes = (1..=8).map(FaultMode::mx1).chain([FaultMode::rect(2, 2), sparse]);
    let schemes = [
        ProtectionKind::None,
        ProtectionKind::Parity,
        ProtectionKind::SecDed,
        ProtectionKind::DecTed,
        ProtectionKind::Crc { burst_detect: 3 },
    ];
    for mode in modes {
        for scheme in schemes {
            for lock_step in [false, true] {
                let cfg = AnalysisConfig::new(scheme).with_due_preempts_sdc(lock_step);
                let ctx = format!("{what} {mode} {scheme:?} lock_step={lock_step}");
                let memo = mb_avf(store, layout, &mode, &cfg).map(|r| {
                    [r.false_due_group_cycles(), r.true_due_group_cycles(), r.sdc_group_cycles()]
                });
                let direct =
                    windowed_mb_avf(store, layout, &mode, &cfg, MEMO_CYCLES).map(|windows| {
                        windows.iter().fold([0u128; 3], |[f, t, s], r| {
                            [
                                f + r.false_due_group_cycles(),
                                t + r.true_due_group_cycles(),
                                s + r.sdc_group_cycles(),
                            ]
                        })
                    });
                // Modes wider than the layout must fail the same way.
                assert_eq!(memo, direct, "[false DUE, true DUE, SDC] of {ctx}");
            }
        }
    }
}

/// The two-level MB-AVF memo (wordline bands, then fault groups) is exact:
/// on stores with replicated rows and lanes, memoized `mb_avf` equals the
/// direct sweep — `windowed_mb_avf` with one run-long window — in every
/// group-cycle counter, across layouts, modes, schemes, and both SDC
/// precedence rules.
#[test]
fn memoized_mb_avf_matches_direct_sweep() {
    for_cases(2, |rng| {
        // Linear rows over (mostly) one repeated byte: 12-bit rows put equal
        // bytes on different bit indices, and 8-bit rows with an odd domain
        // width put them on different domain partitions. Regular layouts
        // never vary either between rows.
        let bits_per_domain = [3, 5, 6, 7][rng.below(4) as usize];
        for layout in [LinearLayout::new(4, 12, 4), LinearLayout::new(4, 8, bits_per_domain)] {
            let bytes = (layout.num_bits() as usize).div_ceil(8);
            let store = replicated_store(rng, bytes, 1, bytes);
            assert_memo_matches_direct(&store, &layout, &format!("{layout:?}"));
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
                assert_memo_matches_direct(&store, &layout, &il.label());
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
            assert_memo_matches_direct(&store, &layout, &il.label());
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

/// Empirical coverage of the binomial intervals: across many seeded
/// Bernoulli campaigns, a nominal-95% interval must contain the true rate
/// about 95% of the time. Wilson may dip slightly below nominal at awkward
/// (p, n) pairs; Clopper–Pearson is conservative by construction and must
/// stay at or above nominal (up to sampling noise of the 400-campaign
/// estimate itself).
#[test]
fn interval_empirical_coverage() {
    use mbavf_core::stats::{clopper_pearson, wilson};
    const CAMPAIGNS: u64 = 400;
    for &(p, n) in &[(0.05f64, 200u64), (0.3, 120), (0.7, 80)] {
        let mut wilson_hits = 0u64;
        let mut cp_hits = 0u64;
        for c in 0..CAMPAIGNS {
            let mut rng = SplitMix64::stream(SEED ^ (n << 8), c);
            let k = (0..n).filter(|_| rng.f64() < p).count() as u64;
            if wilson(k, n, 0.95).contains(p) {
                wilson_hits += 1;
            }
            if clopper_pearson(k, n, 0.95).contains(p) {
                cp_hits += 1;
            }
        }
        let w_cov = wilson_hits as f64 / CAMPAIGNS as f64;
        let cp_cov = cp_hits as f64 / CAMPAIGNS as f64;
        assert!((0.91..=0.99).contains(&w_cov), "p={p} n={n}: wilson coverage {w_cov}");
        assert!(cp_cov >= 0.93, "p={p} n={n}: clopper-pearson coverage {cp_cov}");
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
