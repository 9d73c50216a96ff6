//! The MB-AVF engine: multi-bit ACE analysis over fault groups, overlapped
//! regions, and protection domains (paper Sections IV, V, VII).
//!
//! For a structure `H` with `G_{H,M}` fault groups of mode `M` observed for
//! `N` cycles, the multi-bit AVF is (equation 2):
//!
//! ```text
//! MB-AVF(H, M) = Σ_n |ACE groups at cycle n| / (G_{H,M} · N)
//! ```
//!
//! A group's classification at a cycle is derived from its *overlapped
//! regions* — the subsets of the group's bits falling in each protection
//! domain:
//!
//! * the region's ACEness is the union of its member bits' ACEness
//!   (equation 5),
//! * the domain's [`Action`] for the region's
//!   flipped-bit count decides corrected / detected / undetected,
//! * a region is DUE ACE iff it is ACE *and* detected (equation 6); group
//!   DUE ACEness is the union over regions (equation 7),
//! * with program-level masking, regions (and groups) are further classified
//!   as unACE, **false DUE**, **true DUE**, or **SDC**, with SDC taking
//!   precedence unless [`AnalysisConfig::due_preempts_sdc`] is set (the
//!   lock-step inter-thread-read rule of Section VIII).

use crate::error::CoreError;
use crate::geometry::{FaultGroup, FaultMode};
use crate::layout::{BitRef, PhysicalLayout};
use crate::protection::{Action, ProtectionKind};
use crate::timeline::{BitState, Cycle, Interval, TimelineStore};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Classification of one fault group during one cycle, in increasing order of
/// severity (the precedence order of Section VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupClass {
    /// The fault vanishes: corrected, overwritten, or never observed.
    UnAce,
    /// Detected, but the affected data never mattered: raises the DUE rate
    /// without preventing any corruption.
    FalseDue,
    /// Detected, and the affected data was architecturally required.
    TrueDue,
    /// Undetected corruption of architecturally required data.
    Sdc,
}

/// Configuration of a single MB-AVF analysis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Protection scheme applied to every domain of the structure.
    pub scheme: ProtectionKind,
    /// Section VIII rule: when a group contains both an SDC region and a DUE
    /// region in the same cycle and the structure is read in lock-step (e.g.
    /// a 16-thread SIMD register read with inter-thread interleaving), the
    /// detection fires before the corruption can propagate, so the group is
    /// classified as a (true) DUE instead of an SDC.
    ///
    /// Leave `false` for cache structures, where detection of one line is not
    /// guaranteed to precede consumption of another (Section VII-B).
    pub due_preempts_sdc: bool,
}

impl AnalysisConfig {
    /// Analysis under `scheme` with the default cache-style SDC precedence.
    pub fn new(scheme: ProtectionKind) -> Self {
        Self { scheme, due_preempts_sdc: false }
    }

    /// Enable the lock-step read rule (see
    /// [`due_preempts_sdc`](Self::due_preempts_sdc)).
    pub fn with_due_preempts_sdc(mut self, on: bool) -> Self {
        self.due_preempts_sdc = on;
        self
    }
}

/// The outcome of an MB-AVF analysis of one fault mode over one structure
/// (or one time window of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbAvfResult {
    mode: String,
    groups: u64,
    cycles: Cycle,
    window: Option<u32>,
    sdc_gc: u128,
    true_due_gc: u128,
    false_due_gc: u128,
}

impl MbAvfResult {
    fn new(mode: &FaultMode, groups: u64, cycles: Cycle, window: Option<u32>) -> Self {
        Self {
            mode: mode.name().to_owned(),
            groups,
            cycles,
            window,
            sdc_gc: 0,
            true_due_gc: 0,
            false_due_gc: 0,
        }
    }

    /// Name of the analyzed fault mode, e.g. `"3x1"`.
    pub fn mode(&self) -> &str {
        &self.mode
    }

    /// Number of fault groups `G_{H,M}` of the mode on the structure.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Observation length in cycles (window length for windowed results).
    pub fn cycles(&self) -> Cycle {
        self.cycles
    }

    /// Index of the time window, for results from [`windowed_mb_avf`].
    pub fn window(&self) -> Option<u32> {
        self.window
    }

    /// Accumulated SDC group-cycles.
    pub fn sdc_group_cycles(&self) -> u128 {
        self.sdc_gc
    }

    /// Accumulated true-DUE group-cycles.
    pub fn true_due_group_cycles(&self) -> u128 {
        self.true_due_gc
    }

    /// Accumulated false-DUE group-cycles.
    pub fn false_due_group_cycles(&self) -> u128 {
        self.false_due_gc
    }

    fn denom(&self) -> u128 {
        u128::from(self.groups) * u128::from(self.cycles)
    }

    fn frac(&self, num: u128) -> f64 {
        if self.denom() == 0 {
            0.0
        } else {
            num as f64 / self.denom() as f64
        }
    }

    /// SDC MB-AVF: the probability that a fault of this mode, uniformly
    /// placed in group and time, causes silent data corruption.
    pub fn sdc_avf(&self) -> f64 {
        self.frac(self.sdc_gc)
    }

    /// True-DUE MB-AVF (detected errors that would have corrupted output).
    pub fn true_due_avf(&self) -> f64 {
        self.frac(self.true_due_gc)
    }

    /// False-DUE MB-AVF (detected errors that were harmless).
    pub fn false_due_avf(&self) -> f64 {
        self.frac(self.false_due_gc)
    }

    /// Total DUE MB-AVF — true plus false DUE, the quantity measured in
    /// Section V.
    pub fn due_avf(&self) -> f64 {
        self.frac(self.true_due_gc + self.false_due_gc)
    }

    /// Total error AVF: SDC plus DUE.
    pub fn total_avf(&self) -> f64 {
        self.frac(self.sdc_gc + self.true_due_gc + self.false_due_gc)
    }

    fn add(&mut self, class: GroupClass, dur: u128) {
        match class {
            GroupClass::UnAce => {}
            GroupClass::FalseDue => self.false_due_gc += dur,
            GroupClass::TrueDue => self.true_due_gc += dur,
            GroupClass::Sdc => self.sdc_gc += dur,
        }
    }
}

/// Scratch buffers reused across fault groups to keep the per-group sweep
/// allocation-free.
#[derive(Default)]
struct Scratch {
    bits: Vec<BitRef>,
    /// Region index of each bit (parallel to `bits`).
    region_of: Vec<u8>,
    /// Per-region protection action.
    actions: Vec<Action>,
    /// Merged, deduplicated interval boundaries of the group's bits.
    bounds: Vec<Cycle>,
    /// Per-bit monotone cursor into its timeline.
    cursors: Vec<usize>,
    /// Per-region max bit state within the current segment.
    region_state: Vec<BitState>,
}

/// Compute the MB-AVF of `mode` on the structure described by `store`,
/// physically arranged by `layout`, protected per `cfg` — equation (2).
///
/// The returned [`MbAvfResult`] carries SDC, true-DUE, and false-DUE
/// components; single-bit AVFs are simply the `1x1` mode.
///
/// A thin wrapper over [`PreparedStore::mb_avf`]; prepare the store once
/// instead when analysing it under many layouts, modes or schemes.
///
/// # Errors
///
/// * [`CoreError::ModeLargerThanLayout`] if the mode has no placement.
/// * [`CoreError::ByteOutOfRange`] / [`CoreError::BitOutOfRange`] if the
///   layout references bits outside the store.
pub fn mb_avf<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfg: &AnalysisConfig,
) -> Result<MbAvfResult, CoreError> {
    PreparedStore::new(store).mb_avf(layout, mode, cfg)
}

/// A timeline store prepared for repeated whole-run MB-AVF analysis: the
/// store plus the canonical content id of every byte's timeline, computed
/// once (on the first memoized analysis) and shared by every
/// [`mb_avf`](Self::mb_avf) call over it.
///
/// ```
/// use mbavf_core::analysis::{mb_avf, AnalysisConfig, PreparedStore};
/// use mbavf_core::geometry::FaultMode;
/// use mbavf_core::layout::LinearLayout;
/// use mbavf_core::protection::ProtectionKind;
/// use mbavf_core::timeline::{Interval, TimelineStore};
///
/// let mut store = TimelineStore::new(2, 100);
/// store.byte_mut(1).push(Interval { start: 10, end: 60, ace_mask: 0x0f, checked: true }).unwrap();
/// let layout = LinearLayout::new(1, 16, 2);
/// let cfg = AnalysisConfig::new(ProtectionKind::Parity);
/// let prepared = PreparedStore::new(&store);
/// for m in 1..=4 {
///     let mode = FaultMode::mx1(m);
///     assert_eq!(prepared.mb_avf(&layout, &mode, &cfg)?, mb_avf(&store, &layout, &mode, &cfg)?);
/// }
/// # Ok::<(), mbavf_core::CoreError>(())
/// ```
pub struct PreparedStore<'s> {
    store: &'s TimelineStore,
    content_ids: OnceLock<Vec<u32>>,
}

impl<'s> PreparedStore<'s> {
    /// Prepare `store`. Cheap: the content ids are computed on first use.
    pub fn new(store: &'s TimelineStore) -> Self {
        Self { store, content_ids: OnceLock::new() }
    }

    /// [`mb_avf`] over the prepared store.
    ///
    /// # Errors
    ///
    /// As [`mb_avf`].
    pub fn mb_avf<L: PhysicalLayout>(
        &self,
        layout: &L,
        mode: &FaultMode,
        cfg: &AnalysisConfig,
    ) -> Result<MbAvfResult, CoreError> {
        let store = self.store;
        let groups = mode.group_count(layout.rows(), layout.cols());
        let mut result = MbAvfResult::new(mode, groups, store.total_cycles(), None);
        if mode.len() <= MEMO_MAX_BITS {
            // Whole-run totals admit memoization at two levels: a repeated
            // band fingerprint reuses a whole row's totals (`Band`), a
            // repeated group key one group's (`GroupMemo`). This collapses
            // the 64 replicated SIMT lanes of a register file, and the sea
            // of untouched cache lines, into one row computation each.
            mode.groups(layout.rows(), layout.cols())?; // fails before any bit is resolved
            let content_ids = self.content_ids.get_or_init(|| content_ids(store));
            let mut memo = GroupMemo::new(content_ids);
            let mut bands: FxHashMap<Vec<BandCell>, [u128; 3]> = FxHashMap::default();
            let mut band = Band::default();
            for anchor_row in 0..=layout.rows() - mode.rows() {
                let keyed = band.build(layout, content_ids, anchor_row, mode.rows());
                let cached = if keyed { bands.get(band.cells.as_slice()).copied() } else { None };
                let totals = match cached {
                    Some(t) => t,
                    None => {
                        let t = memo.row_totals(store, layout, mode, cfg, anchor_row)?;
                        if keyed {
                            bands.insert(band.cells.clone(), t);
                        }
                        t
                    }
                };
                result.false_due_gc += totals[0];
                result.true_due_gc += totals[1];
                result.sdc_gc += totals[2];
            }
        } else {
            sweep_groups(store, layout, mode, cfg, |class, start, end| {
                result.add(class, u128::from(end - start));
            })?;
        }
        Ok(result)
    }
}

/// Sweep the contiguous wordline fault modes `1x1 ..= max_bits x1` in one
/// call — the per-mode loop every soft-error-rate composition needs.
///
/// ```
/// use mbavf_core::analysis::{mb_avf_modes, AnalysisConfig};
/// use mbavf_core::layout::LinearLayout;
/// use mbavf_core::protection::ProtectionKind;
/// use mbavf_core::timeline::{Interval, TimelineStore};
///
/// let mut store = TimelineStore::new(1, 100);
/// store.byte_mut(0).push(Interval { start: 0, end: 40, ace_mask: 0xff, checked: true }).unwrap();
/// let layout = LinearLayout::new(1, 8, 4);
/// let cfg = AnalysisConfig::new(ProtectionKind::SecDed);
/// let sweep = mb_avf_modes(&store, &layout, 4, &cfg)?;
/// assert_eq!(sweep.len(), 4);
/// assert_eq!(sweep[0].total_avf(), 0.0); // SEC-DED corrects single bits
/// assert!(sweep[1].due_avf() > 0.0);     // ...and detects pairs
/// # Ok::<(), mbavf_core::CoreError>(())
/// ```
///
/// # Errors
///
/// As [`mb_avf`], for the first failing mode.
pub fn mb_avf_modes<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    max_bits: u32,
    cfg: &AnalysisConfig,
) -> Result<Vec<MbAvfResult>, CoreError> {
    let prepared = PreparedStore::new(store);
    (1..=max_bits).map(|m| prepared.mb_avf(layout, &FaultMode::mx1(m), cfg)).collect()
}

/// Memoization cutoff: modes larger than this fall back to the direct sweep.
const MEMO_MAX_BITS: usize = 16;

/// A fault group's classification fingerprint: per member bit, the canonical
/// content id of its timeline, its bit index, and its overlapped-region id.
/// Two groups with equal keys (under one scheme) have identical outcomes.
#[derive(Default, PartialEq, Eq, Hash)]
struct MemoKey {
    entries: [(u32, u8, u8); MEMO_MAX_BITS],
    len: u8,
}

impl MemoKey {
    fn push(&mut self, content: u32, bit: u8, region: u8) {
        self.entries[self.len as usize] = (content, bit, region);
        self.len += 1;
    }
}

/// The group level of the memo: whole-run `[false DUE, true DUE, SDC]`
/// group-cycles per [`MemoKey`], shared by every band of one analysis.
struct GroupMemo<'c> {
    content_ids: &'c [u32],
    totals: FxHashMap<MemoKey, [u128; 3]>,
    scratch: Scratch,
}

impl<'c> GroupMemo<'c> {
    fn new(content_ids: &'c [u32]) -> Self {
        Self { content_ids, totals: FxHashMap::default(), scratch: Scratch::default() }
    }

    /// Summed totals of every group anchored on `anchor_row`, sweeping only
    /// the groups whose key has not been seen.
    fn row_totals<L: PhysicalLayout>(
        &mut self,
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        cfg: &AnalysisConfig,
        anchor_row: u32,
    ) -> Result<[u128; 3], CoreError> {
        let mut row = [0u128; 3];
        let s = &mut self.scratch;
        for anchor_col in 0..=layout.cols() - mode.cols() {
            let group = FaultGroup { anchor_row, anchor_col };
            gather_group(store, layout, mode, &group, cfg, s)?;
            if s.actions.iter().all(|a| *a == Action::Correct) {
                continue;
            }
            let mut key = MemoKey::default();
            for (i, b) in s.bits.iter().enumerate() {
                key.push(self.content_ids[b.byte as usize], b.bit, s.region_of[i]);
            }
            let totals = match self.totals.get(&key) {
                Some(t) => *t,
                None => {
                    let mut t = [0u128; 3];
                    sweep_one_group(store, cfg, s, &mut |class, start, end| {
                        let d = u128::from(end - start);
                        match class {
                            GroupClass::FalseDue => t[0] += d,
                            GroupClass::TrueDue => t[1] += d,
                            GroupClass::Sdc => t[2] += d,
                            GroupClass::UnAce => {}
                        }
                    });
                    self.totals.insert(key, t);
                    t
                }
            };
            for (acc, x) in row.iter_mut().zip(totals) {
                *acc += x;
            }
        }
        Ok(row)
    }
}

/// One cell of a wordline band's fingerprint: the canonical content id of
/// the bit's timeline, its bit index, and its band-local domain label (the
/// domain's first-appearance index within the band).
type BandCell = (u32, u8, u32);

/// Reused buffers for a wordline band's fingerprint: physical rows
/// `anchor_row .. anchor_row + mode.rows()` across every column, row-major.
///
/// Equal fingerprints give every group anchored at the same column equal
/// member content, bit indices, and domain partition — hence equal
/// [`MemoKey`]s and equal totals.
#[derive(Default)]
struct Band {
    cells: Vec<BandCell>,
    labels: FxHashMap<u64, u32>,
}

impl Band {
    /// Fingerprint the band anchored at `anchor_row`. Returns `false` (and
    /// leaves the fingerprint unusable) if a cell lies outside the store, so
    /// the caller's per-group path reports the error exactly as a plain
    /// group sweep would.
    fn build<L: PhysicalLayout>(
        &mut self,
        layout: &L,
        content_ids: &[u32],
        anchor_row: u32,
        rows: u32,
    ) -> bool {
        self.cells.clear();
        self.labels.clear();
        for row in anchor_row..anchor_row + rows {
            for col in 0..layout.cols() {
                let b = layout.bit_at(row, col);
                let Some(&content) = content_ids.get(b.byte as usize) else { return false };
                if b.bit >= 8 {
                    return false;
                }
                let next = self.labels.len() as u32;
                let label = *self.labels.entry(b.domain).or_insert(next);
                self.cells.push((content, b.bit, label));
            }
        }
        true
    }
}

/// Multiplicative (Fx-style) hasher for the memo tables. Keys are still
/// compared with `Eq`, so the hash only picks buckets and needs no
/// collision resistance — just speed on small integer keys.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate the well-mixed high bits down to
        // where the table takes its bucket index.
        self.0.rotate_left(26)
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Canonical content id per byte: bytes with byte-for-byte identical
/// timelines share an id (exact comparison: the hash only picks buckets).
fn content_ids(store: &TimelineStore) -> Vec<u32> {
    let mut canon: FxHashMap<&[Interval], u32> = FxHashMap::default();
    (0..store.num_bytes())
        .map(|b| {
            let next = canon.len() as u32;
            *canon.entry(store.byte(b).intervals()).or_insert(next)
        })
        .collect()
}

/// Compute MB-AVF per time window of `window` cycles (Figure 5's
/// time-varying AVF). The final window may be shorter than `window`.
///
/// # Errors
///
/// As [`mb_avf`], plus [`CoreError::ZeroWindow`] if `window == 0`.
pub fn windowed_mb_avf<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfg: &AnalysisConfig,
    window: Cycle,
) -> Result<Vec<MbAvfResult>, CoreError> {
    if window == 0 {
        return Err(CoreError::ZeroWindow);
    }
    let total = store.total_cycles();
    let groups = mode.group_count(layout.rows(), layout.cols());
    let num_windows = total.div_ceil(window) as u32;
    let mut results: Vec<MbAvfResult> = (0..num_windows)
        .map(|w| {
            let start = Cycle::from(w) * window;
            let len = window.min(total - start);
            MbAvfResult::new(mode, groups, len, Some(w))
        })
        .collect();
    sweep_groups(store, layout, mode, cfg, |class, start, end| {
        // Split [start, end) across window bins.
        let mut t = start;
        while t < end {
            let w = (t / window) as usize;
            let wend = (t / window + 1) * window;
            let seg_end = end.min(wend);
            results[w].add(class, u128::from(seg_end - t));
            t = seg_end;
        }
    })?;
    Ok(results)
}

/// Measure the structure's *ACE locality* under `layout`: the tendency of
/// physically adjacent bits to be ACE in the same cycles (Section VI-B).
///
/// Computed from the unprotected 1x1 and 2x1 SDC AVFs: for an adjacent pair,
/// `|a ∪ b|` is the 2x1 group-ACE time and `|a| + |b|` is twice the
/// single-bit ACE time, so the mean Jaccard overlap is
/// `(2·SB − MB₂) / MB₂`, clamped to `[0, 1]`. A value of 1 means adjacent
/// bits are always ACE together (logical interleaving of a hot line); 0
/// means their ACE times never coincide. Structures with high ACE locality
/// have lower MB-AVFs.
///
/// Returns 1.0 for a structure with no ACE state at all (vacuously local).
///
/// # Errors
///
/// As [`mb_avf`].
pub fn ace_locality<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
) -> Result<f64, CoreError> {
    let cfg = AnalysisConfig::new(ProtectionKind::None);
    let prepared = PreparedStore::new(store);
    let sb = prepared.mb_avf(layout, &FaultMode::mx1(1), &cfg)?.sdc_avf();
    let mb2 = prepared.mb_avf(layout, &FaultMode::mx1(2), &cfg)?.sdc_avf();
    if mb2 <= 0.0 {
        return Ok(1.0);
    }
    Ok(((2.0 * sb - mb2) / mb2).clamp(0.0, 1.0))
}

/// Enumerate groups and report every non-unACE `(class, start, end)` segment
/// to `sink`.
fn sweep_groups<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfg: &AnalysisConfig,
    mut sink: impl FnMut(GroupClass, Cycle, Cycle),
) -> Result<(), CoreError> {
    let mut scratch = Scratch::default();
    for group in mode.groups(layout.rows(), layout.cols())? {
        gather_group(store, layout, mode, &group, cfg, &mut scratch)?;
        if scratch.actions.iter().all(|a| *a == Action::Correct) {
            continue; // every region corrected: the group can never err
        }
        sweep_one_group(store, cfg, &mut scratch, &mut sink);
    }
    Ok(())
}

/// Resolve a group's bits, partition them into overlapped regions by
/// protection domain, and compute each region's action.
fn gather_group<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    group: &FaultGroup,
    cfg: &AnalysisConfig,
    s: &mut Scratch,
) -> Result<(), CoreError> {
    s.bits.clear();
    s.region_of.clear();
    s.actions.clear();
    for (r, c) in group.bits(mode) {
        let b = layout.bit_at(r, c);
        if b.byte as usize >= store.num_bytes() {
            return Err(CoreError::ByteOutOfRange { byte: b.byte, len: store.num_bytes() as u32 });
        }
        if b.bit >= 8 {
            return Err(CoreError::BitOutOfRange { bit: b.bit });
        }
        s.bits.push(b);
    }
    // Group bits by domain. Fault modes are small (2–16 bits), so a simple
    // O(M^2) scan beats sorting.
    s.region_of.resize(s.bits.len(), u8::MAX);
    for i in 0..s.bits.len() {
        if s.region_of[i] != u8::MAX {
            continue;
        }
        let region = s.actions.len() as u8;
        let mut k = 0u32;
        for j in i..s.bits.len() {
            if s.region_of[j] == u8::MAX && s.bits[j].domain == s.bits[i].domain {
                s.region_of[j] = region;
                k += 1;
            }
        }
        s.actions.push(cfg.scheme.action(k));
    }
    Ok(())
}

/// Per-bit state lookup with a monotone cursor over the bit's timeline.
fn bit_state_at(intervals: &[Interval], cursor: &mut usize, bit: u8, t: Cycle) -> BitState {
    while *cursor < intervals.len() && intervals[*cursor].end <= t {
        *cursor += 1;
    }
    match intervals.get(*cursor) {
        Some(iv) if iv.start <= t => iv.bit_state(bit),
        _ => BitState::UnAce,
    }
}

fn sweep_one_group(
    store: &TimelineStore,
    cfg: &AnalysisConfig,
    s: &mut Scratch,
    sink: &mut impl FnMut(GroupClass, Cycle, Cycle),
) {
    s.bounds.clear();
    for (i, b) in s.bits.iter().enumerate() {
        // A byte's bounds once, however many of the group's bits it holds.
        if s.bits[..i].iter().any(|p| p.byte == b.byte) {
            continue;
        }
        for iv in store.byte(b.byte as usize).intervals() {
            s.bounds.push(iv.start);
            s.bounds.push(iv.end);
        }
    }
    s.bounds.sort_unstable();
    s.bounds.dedup();
    if s.bounds.len() < 2 {
        return;
    }
    s.cursors.clear();
    s.cursors.resize(s.bits.len(), 0);
    s.region_state.clear();
    s.region_state.resize(s.actions.len(), BitState::UnAce);
    for w in s.bounds.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        s.region_state.fill(BitState::UnAce);
        for (i, b) in s.bits.iter().enumerate() {
            let st =
                bit_state_at(store.byte(b.byte as usize).intervals(), &mut s.cursors[i], b.bit, t0);
            let r = s.region_of[i] as usize;
            if st > s.region_state[r] {
                s.region_state[r] = st;
            }
        }
        let class = classify(cfg, &s.actions, &s.region_state);
        if class != GroupClass::UnAce {
            sink(class, t0, t1);
        }
    }
}

/// Combine per-region actions and states into the group classification
/// (equations 6–7 plus the Section VII-B precedence).
fn classify(cfg: &AnalysisConfig, actions: &[Action], states: &[BitState]) -> GroupClass {
    let mut best = GroupClass::UnAce;
    let mut has_due = false;
    let mut has_sdc = false;
    for (action, state) in actions.iter().zip(states) {
        let class = match (action, state) {
            (Action::Correct, _) => GroupClass::UnAce,
            (Action::Detect, BitState::Ace) => GroupClass::TrueDue,
            (Action::Detect, BitState::FalseDetect) => GroupClass::FalseDue,
            (Action::NoDetect, BitState::Ace) => GroupClass::Sdc,
            _ => GroupClass::UnAce,
        };
        has_due |= matches!(class, GroupClass::TrueDue | GroupClass::FalseDue);
        has_sdc |= class == GroupClass::Sdc;
        if class > best {
            best = class;
        }
    }
    if cfg.due_preempts_sdc && has_sdc && has_due {
        // Lock-step read: the DUE is raised before the SDC data propagates.
        GroupClass::TrueDue
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LinearLayout;

    /// One byte, one row of 8 bits, `bits_per_domain` per parity/ECC word.
    fn store_1byte(total: Cycle) -> TimelineStore {
        TimelineStore::new(1, total)
    }

    #[test]
    fn all_ace_group_has_mb_avf_equal_to_sb_avf() {
        // Section IV-D: if all bits of a group are ACE in the same cycles,
        // MB-AVF == SB-AVF.
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 50, ace_mask: 0xff, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
        let mb = mb_avf(&store, &layout, &FaultMode::mx1(8), &cfg).unwrap();
        assert_eq!(sb.sdc_avf(), 0.5);
        assert_eq!(mb.sdc_avf(), 0.5);
    }

    #[test]
    fn disjoint_ace_gives_m_times_sb_avf() {
        // Section IV-D: if only one bit is ACE per cycle, MB-AVF = M x SB-AVF.
        let mut store = store_1byte(80);
        // Bit i ACE during [i*10, (i+1)*10).
        for i in 0u64..8 {
            store
                .byte_mut(0)
                .push(Interval {
                    start: i * 10,
                    end: (i + 1) * 10,
                    ace_mask: 1 << i,
                    checked: false,
                })
                .unwrap();
        }
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
        let mb = mb_avf(&store, &layout, &FaultMode::mx1(8), &cfg).unwrap();
        assert!((sb.sdc_avf() - 0.125).abs() < 1e-12);
        assert_eq!(mb.sdc_avf(), 1.0);
        assert!((mb.sdc_avf() / sb.sdc_avf() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_secded_due_example() {
        // Figure 3: a 3x1 fault over two SEC-DED domains. Two bits fall in
        // PD0 (detected), one in PD1 (corrected). Group is DUE ACE whenever
        // the PD0 region is ACE.
        let mut store = store_1byte(30);
        // Bits 0..2 used; PD boundaries: bits 0-1 in domain 0, bits 2-3 in
        // domain 1 (bits_per_domain = 2).
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0b011, checked: true })
            .unwrap();
        store
            .byte_mut(0)
            .push(Interval { start: 20, end: 30, ace_mask: 0b100, checked: true })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::SecDed);
        let mode = FaultMode::mx1(3);
        let res = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        // Groups on 8 columns: 6. Group at col 0 (bits 0,1,2): region PD0
        // {b0,b1} k=2 -> Detect; region PD1 {b2} k=1 -> Correct.
        // DUE whenever bits 0/1 ACE: [0,10) - but also unACE bits of a
        // checked interval are FalseDetect: during [20,30) bits 0,1 are
        // FalseDetect -> false DUE.
        // Other groups contribute too; just check totals are consistent.
        assert!(res.true_due_group_cycles() > 0);
        assert!(res.false_due_group_cycles() > 0);
        assert_eq!(res.sdc_group_cycles(), 0); // SEC-DED never misses k<=2 here
        assert_eq!(res.groups(), 6);
    }

    #[test]
    fn figure7_parity_sdc_example() {
        // Figure 7: a 3x1 fault over two parity domains: 2 bits in PD0
        // (undetected, SDC if ACE), 1 bit in PD1 (detected, DUE if ACE).
        // SDC takes precedence over DUE in the same cycle.
        let mut store = store_1byte(30);
        // Bits 0,1 in domain 0; bit 2 in domain 1. All ACE during [0,10).
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0b111, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let mode = FaultMode::mx1(3);
        // Only look at the group anchored at column 0.
        let res = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        // Group 0: SDC during [0,10). Group 1 (bits 1,2,3): regions {b1} k=1
        // detect, {b2,b3} k=2 no-detect; bit1 ACE -> DUE, bit3 unACE,
        // bit2 ACE in no-detect region -> SDC; precedence -> SDC.
        // Group 2 (bits 2,3,4): {b2,b3} k=2 nodetect (b2 ACE -> SDC).
        // Groups 3..5: all unACE.
        assert_eq!(res.sdc_group_cycles(), 30); // 3 groups x 10 cycles
        assert_eq!(res.true_due_group_cycles(), 0);
    }

    #[test]
    fn due_preempts_sdc_rule() {
        // Same shape as figure7 test, but with the Section VIII lock-step
        // rule: the group with both SDC and DUE regions becomes DUE.
        let mut store = store_1byte(30);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0b111, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity).with_due_preempts_sdc(true);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(3), &cfg).unwrap();
        // Groups 0 and 1 have both SDC and DUE regions -> now TrueDue;
        // group 2's only detect region is unACE, so it stays SDC.
        assert_eq!(res.sdc_group_cycles(), 10);
        assert_eq!(res.true_due_group_cycles(), 20);
    }

    #[test]
    fn corrected_regions_contribute_nothing() {
        let mut store = store_1byte(10);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0xff, checked: true })
            .unwrap();
        // 1 bit per domain: SEC-DED corrects every single-bit region.
        let layout = LinearLayout::new(1, 8, 1);
        let cfg = AnalysisConfig::new(ProtectionKind::SecDed);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(4), &cfg).unwrap();
        assert_eq!(res.total_avf(), 0.0);
    }

    #[test]
    fn parity_due_for_single_bit_mode() {
        let mut store = store_1byte(10);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 5, ace_mask: 0x0f, checked: true })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
        // 4 ACE bits -> true DUE; 4 unACE-but-checked bits -> false DUE.
        assert_eq!(res.true_due_group_cycles(), 4 * 5);
        assert_eq!(res.false_due_group_cycles(), 4 * 5);
        assert_eq!(res.due_avf(), (40.0) / (8.0 * 10.0));
    }

    #[test]
    fn windowed_matches_total() {
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 5, end: 42, ace_mask: 0b1, checked: false })
            .unwrap();
        store
            .byte_mut(0)
            .push(Interval { start: 60, end: 77, ace_mask: 0b10, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let mode = FaultMode::mx1(2);
        let total = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        let windows = windowed_mb_avf(&store, &layout, &mode, &cfg, 13).unwrap();
        let sum: u128 = windows.iter().map(|w| w.sdc_group_cycles()).sum();
        assert_eq!(sum, total.sdc_group_cycles());
        let cyc: Cycle = windows.iter().map(|w| w.cycles()).sum();
        assert_eq!(cyc, 100);
        assert_eq!(windows.len(), 8);
        assert_eq!(windows.last().unwrap().cycles(), 100 - 7 * 13);
    }

    #[test]
    fn zero_window_rejected() {
        let store = store_1byte(10);
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        assert_eq!(
            windowed_mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg, 0),
            Err(CoreError::ZeroWindow)
        );
    }

    #[test]
    fn layout_past_store_is_error() {
        let store = store_1byte(10);
        let layout = LinearLayout::new(1, 16, 8); // 2 bytes worth of bits
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let err = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap_err();
        assert!(matches!(err, CoreError::ByteOutOfRange { .. }));
    }

    #[test]
    fn mode_too_large_is_error() {
        let store = store_1byte(10);
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        assert!(mb_avf(&store, &layout, &FaultMode::mx1(9), &cfg).is_err());
    }

    #[test]
    fn group_class_precedence() {
        assert!(GroupClass::Sdc > GroupClass::TrueDue);
        assert!(GroupClass::TrueDue > GroupClass::FalseDue);
        assert!(GroupClass::FalseDue > GroupClass::UnAce);
    }

    #[test]
    fn ace_locality_extremes() {
        // Perfect locality: whole byte ACE together.
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 60, ace_mask: 0xff, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        assert!((ace_locality(&store, &layout).unwrap() - 1.0).abs() < 1e-9);

        // Zero locality: alternating bits ACE in disjoint windows.
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 50, ace_mask: 0b0101_0101, checked: false })
            .unwrap();
        store
            .byte_mut(0)
            .push(Interval { start: 50, end: 100, ace_mask: 0b1010_1010, checked: false })
            .unwrap();
        let loc = ace_locality(&store, &layout).unwrap();
        assert!(loc < 0.01, "disjoint neighbours must have ~0 locality, got {loc}");

        // No ACE state at all: vacuously local.
        let store = store_1byte(10);
        assert_eq!(ace_locality(&store, &layout).unwrap(), 1.0);
    }

    #[test]
    fn mb_avf_bounded_by_m_times_sb() {
        // Randomized check of the Section IV-D bound: SB <= MB <= M * SB for
        // total error AVF without protection.
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(7);
        for _ in 0..10 {
            let mut store = TimelineStore::new(4, 200);
            for b in 0..4 {
                let mut t = 0u64;
                let tl = store.byte_mut(b);
                while t < 190 {
                    let len = rng.range_u64(1, 20);
                    let mask = rng.next_u32() as u8;
                    let end = (t + len).min(200);
                    tl.push(Interval { start: t, end, ace_mask: mask, checked: false }).unwrap();
                    t = end + rng.below(10);
                }
            }
            let layout = LinearLayout::new(1, 32, 32);
            let cfg = AnalysisConfig::new(ProtectionKind::None);
            let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap().sdc_avf();
            for m in [2u32, 4, 8] {
                let mb = mb_avf(&store, &layout, &FaultMode::mx1(m), &cfg).unwrap().sdc_avf();
                // Denominators differ (G = B - M + 1 groups vs. B bits), so
                // allow the B/G edge-effect slack on the upper bound.
                let slack = 32.0 / (32.0 - f64::from(m) + 1.0);
                assert!(mb >= sb * 0.999, "m={m} mb={mb} sb={sb}");
                assert!(mb <= sb * f64::from(m) * slack + 1e-9, "m={m} mb={mb} sb={sb}");
            }
        }
    }
}
