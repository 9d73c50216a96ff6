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
use crate::fxhash::FxHashMap;
use crate::geometry::{FaultGroup, FaultMode};
use crate::layout::{BitRef, PhysicalLayout};
use crate::protection::{Action, ProtectionKind};
use crate::timeline::{BitState, Cycle, Interval, TimelineIds, TimelineStore};
use std::hash::{Hash, Hasher};
use std::slice;

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
    region_of: Vec<u32>,
    /// Number of the group's bits in each region.
    region_bits: Vec<u32>,
    /// Protection action of each configuration on each region, laid out
    /// `[config][region]`.
    actions: Vec<Action>,
    /// Per configuration: whether some region is left uncorrected.
    live: Vec<bool>,
    /// Merged, deduplicated interval boundaries of the group's bits.
    bounds: Vec<Cycle>,
    /// Per-bit monotone cursor into its timeline.
    cursors: Vec<usize>,
    /// Per-region max bit state within the current segment.
    region_state: Vec<BitState>,
}

impl Scratch {
    /// Compute every configuration's action on every region of the gathered
    /// group. Returns `false` if every configuration corrects every region:
    /// then the group can never err.
    fn protect(&mut self, cfgs: &[AnalysisConfig]) -> bool {
        self.actions.clear();
        self.live.clear();
        for cfg in cfgs {
            let first = self.actions.len();
            self.actions.extend(self.region_bits.iter().map(|&k| cfg.scheme.action(k)));
            self.live.push(self.actions[first..].iter().any(|a| *a != Action::Correct));
        }
        self.live.contains(&true)
    }
}

/// Compute the MB-AVF of `mode` on the structure described by `store`,
/// physically arranged by `layout`, protected per `cfg` — equation (2).
///
/// The returned [`MbAvfResult`] carries SDC, true-DUE, and false-DUE
/// components; single-bit AVFs are simply the `1x1` mode.
///
/// The 1×1 case of [`mb_avf_grid`]; ask the grid for every mode and scheme of
/// a layout at once.
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
    let mut grid = mb_avf_grid(store, layout, slice::from_ref(mode), slice::from_ref(cfg))?;
    Ok(grid.swap_remove(0).swap_remove(0))
}

/// [`mb_avf`] of every fault mode in `modes` under every configuration in
/// `cfgs`, on one layout, as `[mode][cfg]` — the one entry point of the
/// engine.
///
/// Equal to one [`mb_avf`] call per pair, but the work that does not depend
/// on the scheme is done once: the anchor rows are classified once per mode
/// row span, and each distinct fault group is resolved, partitioned into
/// regions and swept once for all configurations. The store's timeline ids
/// are computed once per store, on its first analysis.
///
/// ```
/// use mbavf_core::analysis::{mb_avf, mb_avf_grid, AnalysisConfig};
/// use mbavf_core::geometry::FaultMode;
/// use mbavf_core::layout::LinearLayout;
/// use mbavf_core::protection::ProtectionKind;
/// use mbavf_core::timeline::{Interval, TimelineStore};
///
/// let mut store = TimelineStore::new(2, 100);
/// store.byte_mut(0).push(Interval { start: 0, end: 40, ace_mask: 0x3c, checked: true }).unwrap();
/// let layout = LinearLayout::new(1, 16, 4);
/// let modes: Vec<FaultMode> = (1..=4).map(FaultMode::mx1).collect();
/// let cfgs = [ProtectionKind::Parity, ProtectionKind::SecDed].map(AnalysisConfig::new);
/// let grid = mb_avf_grid(&store, &layout, &modes, &cfgs)?;
/// for (mode, row) in modes.iter().zip(&grid) {
///     for (cfg, result) in cfgs.iter().zip(row) {
///         assert_eq!(*result, mb_avf(&store, &layout, mode, cfg)?);
///     }
/// }
/// # Ok::<(), mbavf_core::CoreError>(())
/// ```
///
/// # Errors
///
/// The error of the first failing per-pair [`mb_avf`] in mode order. An
/// analysis's errors never depend on its configuration.
pub fn mb_avf_grid<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    modes: &[FaultMode],
    cfgs: &[AnalysisConfig],
) -> Result<Vec<Vec<MbAvfResult>>, CoreError> {
    if cfgs.is_empty() {
        return Ok(modes.iter().map(|_| Vec::new()).collect());
    }
    let mut engine = Engine::default();
    let mut grid = Vec::with_capacity(modes.len());
    for mode in modes {
        let groups = mode.group_count(layout.rows(), layout.cols());
        let mut results: Vec<MbAvfResult> = cfgs
            .iter()
            .map(|_| MbAvfResult::new(mode, groups, store.total_cycles(), None))
            .collect();
        engine.sweep_mode(store, layout, mode, cfgs, |c, class, start, end, groups| {
            results[c].add(class, u128::from(end - start) * u128::from(groups));
        })?;
        grid.push(results);
    }
    Ok(grid)
}

/// Memoization cutoff: modes larger than this fall back to the direct sweep.
const MEMO_MAX_BITS: usize = 16;

/// What the engine keeps across the modes of one layout: the band classes
/// of each mode row span, and the group memo's tables.
#[derive(Default)]
struct Engine {
    spans: Vec<(u32, Vec<BandClass>)>,
    memo: GroupMemo,
}

impl Engine {
    /// Sweep every fault group of `mode` and report each non-unACE
    /// `(config, class, start, end)` segment to `sink`, with the number of
    /// groups that share it; `config` indexes `cfgs`.
    fn sweep_mode<L: PhysicalLayout>(
        &mut self,
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        cfgs: &[AnalysisConfig],
        mut sink: impl FnMut(usize, GroupClass, Cycle, Cycle, u64),
    ) -> Result<(), CoreError> {
        if mode.len() > MEMO_MAX_BITS {
            return sweep_groups(store, layout, mode, cfgs, |c, class, start, end| {
                sink(c, class, start, end, 1);
            });
        }
        // Group outcomes admit memoization at two levels: anchor rows with
        // one band fingerprint share their groups (`BandClass`), groups with
        // one key their segments (`GroupMemo`). This collapses the 64
        // replicated SIMT lanes of a register file, and the sea of untouched
        // cache lines, into one sweep each.
        mode.groups(layout.rows(), layout.cols())?; // fails before any bit is resolved
        let span = match self.spans.iter().position(|(rows, _)| *rows == mode.rows()) {
            Some(i) => i,
            None => {
                self.spans.push((mode.rows(), band_classes(layout, store.ids(), mode.rows())));
                self.spans.len() - 1
            }
        };
        self.memo.count(store, layout, mode, &self.spans[span].1)?;
        self.memo.sweep(store, layout, mode, cfgs, &mut sink);
        Ok(())
    }
}

/// A fault group's classification fingerprint: per member bit, the
/// [`TimelineIds`] id of the bit's timeline and its overlapped-region id,
/// packed into one word. Two groups with equal keys have identical outcomes
/// under every scheme, in every cycle.
#[derive(Default, PartialEq, Eq)]
struct MemoKey {
    entries: [u64; MEMO_MAX_BITS],
    len: u8,
}

impl MemoKey {
    fn push(&mut self, bit_timeline: u64, region: u8) {
        self.entries[self.len as usize] = bit_timeline << 8 | u64::from(region);
        self.len += 1;
    }

    /// The key of the group anchored at column `anchor_col` of a band with
    /// fingerprint `cells` (`cols` cells per row). Regions are numbered by
    /// first appearance among the members, as [`gather_group`] numbers them.
    fn from_band(cells: &[BandCell], cols: u32, mode: &FaultMode, anchor_col: u32) -> Self {
        let mut key = Self::default();
        let mut labels = [0u64; MEMO_MAX_BITS];
        let mut regions = 0;
        for &(dr, dc) in mode.offsets() {
            let cell = cells[dr as usize * cols as usize + (anchor_col + dc) as usize];
            let (timeline, label) = (cell >> LABEL_BITS, cell & ((1 << LABEL_BITS) - 1));
            let region = match labels[..regions].iter().position(|&l| l == label) {
                Some(region) => region,
                None => {
                    labels[regions] = label;
                    regions += 1;
                    regions - 1
                }
            };
            key.push(timeline, region as u8);
        }
        key
    }

    /// The key of the group gathered into `s`.
    fn from_gathered(ids: &TimelineIds, s: &Scratch) -> Self {
        let mut key = Self::default();
        for (b, &region) in s.bits.iter().zip(&s.region_of) {
            key.push(ids.bit(b.byte, b.bit).expect("gathered bits lie in the store"), region as u8);
        }
        key
    }
}

impl Hash for MemoKey {
    /// Only the member entries: unused ones are always zero.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &entry in &self.entries[..usize::from(self.len)] {
            state.write_u64(entry);
        }
    }
}

/// The group level of the memo, for one mode: per [`MemoKey`], one slot,
/// swept once through its first group and counted once per group with its
/// key.
#[derive(Default)]
struct GroupMemo {
    slots: FxHashMap<MemoKey, u32>,
    /// Per slot: its first group, and the number of groups with its key.
    groups: Vec<(FaultGroup, u64)>,
    scratch: Scratch,
}

impl GroupMemo {
    /// Key every group of `mode` anchored in `classes`, and count the groups
    /// per slot: a group of a class counts once per anchor row of the class.
    /// Only a class without a fingerprint resolves its groups' bits, so only
    /// it can fail, in the order of a plain group sweep.
    fn count<L: PhysicalLayout>(
        &mut self,
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        classes: &[BandClass],
    ) -> Result<(), CoreError> {
        let Self { slots, groups, scratch: s } = self;
        slots.clear();
        groups.clear();
        for class in classes {
            for anchor_col in 0..=layout.cols() - mode.cols() {
                let group = FaultGroup { anchor_row: class.anchor_row, anchor_col };
                let key = match &class.cells {
                    Some(cells) => MemoKey::from_band(cells, layout.cols(), mode, anchor_col),
                    None => {
                        gather_group(store, layout, mode, &group, s)?;
                        MemoKey::from_gathered(store.ids(), s)
                    }
                };
                let next = groups.len() as u32;
                let slot = *slots.entry(key).or_insert(next) as usize;
                if slot == groups.len() {
                    groups.push((group, 0));
                }
                groups[slot].1 += u64::from(class.rows);
            }
        }
        Ok(())
    }

    /// Sweep each counted slot's first group, reporting its segments to
    /// `sink` with the slot's group count.
    fn sweep<L: PhysicalLayout>(
        &mut self,
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        cfgs: &[AnalysisConfig],
        sink: &mut impl FnMut(usize, GroupClass, Cycle, Cycle, u64),
    ) {
        let Self { groups, scratch: s, .. } = self;
        for &(group, count) in groups.iter() {
            gather_group(store, layout, mode, &group, s).expect("counted groups lie in the store");
            if s.protect(cfgs) {
                sweep_one_group(store, cfgs, s, &mut |c, class, start, end| {
                    sink(c, class, start, end, count);
                });
            }
        }
    }
}

/// Anchor rows whose wordline bands share one fingerprint: every group
/// anchored on one of them has the segments of the group at the same column
/// of `anchor_row`.
struct BandClass {
    /// The class's first anchor row, whose groups are swept.
    anchor_row: u32,
    /// Number of anchor rows in the class.
    rows: u32,
    /// The band's fingerprint (see [`Band`]), or `None` if it has none: then
    /// the class is its anchor row alone, whose groups are resolved bit by
    /// bit.
    cells: Option<Vec<BandCell>>,
}

/// Classify the anchor rows of `span`-row bands by fingerprint, in order of
/// first appearance. A band without a fingerprint is a class of its own, so
/// a cell outside the store is reported at the row a plain group sweep would
/// report it.
fn band_classes<L: PhysicalLayout>(layout: &L, ids: &TimelineIds, span: u32) -> Vec<BandClass> {
    let mut band = Band::default();
    let mut index: FxHashMap<Vec<BandCell>, usize> = FxHashMap::default();
    let mut classes: Vec<BandClass> = Vec::new();
    for anchor_row in 0..=layout.rows() - span {
        if band.build(layout, ids, anchor_row, span) {
            if let Some(&class) = index.get(band.cells.as_slice()) {
                classes[class].rows += 1;
                continue;
            }
            index.insert(band.cells.clone(), classes.len());
        }
        classes.push(BandClass { anchor_row, rows: 1, cells: None });
    }
    for (cells, class) in index {
        classes[class].cells = Some(cells);
    }
    classes
}

/// One cell of a wordline band's fingerprint: the [`TimelineIds`] id of the
/// bit's timeline above [`LABEL_BITS`] bits of its band-local domain label
/// (the domain's first-appearance index within the band).
type BandCell = u64;

/// Width of a [`BandCell`]'s label. A timeline id takes at most 35 bits (a
/// `u32` content id and a bit index); a band with more labels than fit has
/// no fingerprint.
const LABEL_BITS: u32 = 29;

/// Reused buffers for a wordline band's fingerprint: physical rows
/// `anchor_row .. anchor_row + rows` across every column, row-major.
///
/// Equal fingerprints give every group anchored at the same column equal
/// member bit timelines and domain partition — hence equal [`MemoKey`]s and
/// equal segments.
#[derive(Default)]
struct Band {
    cells: Vec<BandCell>,
    labels: FxHashMap<u64, u32>,
}

impl Band {
    /// Fingerprint the band anchored at `anchor_row`. Returns `false` (and
    /// leaves the fingerprint unusable) if a cell lies outside the store, or
    /// its label does not fit a [`BandCell`].
    fn build<L: PhysicalLayout>(
        &mut self,
        layout: &L,
        ids: &TimelineIds,
        anchor_row: u32,
        rows: u32,
    ) -> bool {
        self.cells.clear();
        self.labels.clear();
        for row in anchor_row..anchor_row + rows {
            for col in 0..layout.cols() {
                let b = layout.bit_at(row, col);
                let Some(timeline) = ids.bit(b.byte, b.bit) else { return false };
                let next = self.labels.len() as u32;
                let label = *self.labels.entry(b.domain).or_insert(next);
                if label >> LABEL_BITS != 0 {
                    return false;
                }
                self.cells.push(timeline << LABEL_BITS | u64::from(label));
            }
        }
        true
    }
}

/// Compute MB-AVF per time window of `window` cycles (Figure 5's
/// time-varying AVF). The final window may be shorter than `window`.
///
/// Each distinct fault group is swept once, as in [`mb_avf_grid`], and its
/// segments are split across the windows once for every group that shares
/// them.
///
/// # Errors
///
/// As [`mb_avf`], plus [`CoreError::ZeroWindow`] if `window == 0` and
/// [`CoreError::TooManyWindows`] if the run needs more than `u32::MAX`
/// windows.
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
    let windows = total.div_ceil(window);
    let num_windows = u32::try_from(windows).map_err(|_| CoreError::TooManyWindows { windows })?;
    let mut results: Vec<MbAvfResult> = (0..num_windows)
        .map(|w| {
            let start = Cycle::from(w) * window;
            let len = window.min(total - start);
            MbAvfResult::new(mode, groups, len, Some(w))
        })
        .collect();
    let cfgs = slice::from_ref(cfg);
    Engine::default().sweep_mode(store, layout, mode, cfgs, |_, class, start, end, groups| {
        // Split [start, end) across window bins.
        let mut t = start;
        while t < end {
            let w = t / window;
            let seg_end = end.min((w + 1) * window);
            results[w as usize].add(class, u128::from(seg_end - t) * u128::from(groups));
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
    let modes = [FaultMode::mx1(1), FaultMode::mx1(2)];
    let grid = mb_avf_grid(store, layout, &modes, &[cfg])?;
    let (sb, mb2) = (grid[0][0].sdc_avf(), grid[1][0].sdc_avf());
    if mb2 <= 0.0 {
        return Ok(1.0);
    }
    Ok(((2.0 * sb - mb2) / mb2).clamp(0.0, 1.0))
}

/// Enumerate groups and report every non-unACE `(config, class, start, end)`
/// segment to `sink`, where `config` indexes `cfgs`.
fn sweep_groups<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfgs: &[AnalysisConfig],
    mut sink: impl FnMut(usize, GroupClass, Cycle, Cycle),
) -> Result<(), CoreError> {
    let mut scratch = Scratch::default();
    for group in mode.groups(layout.rows(), layout.cols())? {
        gather_group(store, layout, mode, &group, &mut scratch)?;
        if scratch.protect(cfgs) {
            sweep_one_group(store, cfgs, &mut scratch, &mut sink);
        }
    }
    Ok(())
}

/// Resolve a group's bits and partition them into overlapped regions by
/// protection domain.
fn gather_group<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    group: &FaultGroup,
    s: &mut Scratch,
) -> Result<(), CoreError> {
    s.bits.clear();
    s.region_of.clear();
    s.region_bits.clear();
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
    s.region_of.resize(s.bits.len(), u32::MAX);
    for i in 0..s.bits.len() {
        if s.region_of[i] != u32::MAX {
            continue;
        }
        let region = s.region_bits.len() as u32;
        let mut k = 0u32;
        for j in i..s.bits.len() {
            if s.region_of[j] == u32::MAX && s.bits[j].domain == s.bits[i].domain {
                s.region_of[j] = region;
                k += 1;
            }
        }
        s.region_bits.push(k);
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

/// Sweep one gathered, [protected](Scratch::protect) group through time.
/// The segment bounds and region states do not depend on the scheme, so
/// each segment is classified under every configuration from one pass.
fn sweep_one_group(
    store: &TimelineStore,
    cfgs: &[AnalysisConfig],
    s: &mut Scratch,
    sink: &mut impl FnMut(usize, GroupClass, Cycle, Cycle),
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
    let regions = s.region_bits.len();
    s.region_state.clear();
    s.region_state.resize(regions, BitState::UnAce);
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
        if s.region_state.iter().all(|st| *st == BitState::UnAce) {
            continue; // unACE under every scheme
        }
        for (c, cfg) in cfgs.iter().enumerate() {
            if !s.live[c] {
                continue; // every region corrected
            }
            let actions = &s.actions[c * regions..(c + 1) * regions];
            let class = classify(cfg, actions, &s.region_state);
            if class != GroupClass::UnAce {
                sink(c, class, t0, t1);
            }
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
    fn regions_past_255_domains_stay_distinct() {
        // 257 two-bit parity domains on one row: each 513-bit group spans
        // more than 255 of them. Only bit 511 is ACE, and both groups hold
        // it with bit 510 in one undetected 2-bit domain.
        let mut store = TimelineStore::new(65, 100);
        store
            .byte_mut(63)
            .push(Interval { start: 0, end: 100, ace_mask: 0x80, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 514, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(513), &cfg).unwrap();
        assert_eq!(res.sdc_group_cycles(), 200);
        assert_eq!(res.true_due_group_cycles(), 0);
    }

    #[test]
    fn analysis_after_byte_mut_sees_the_new_timeline() {
        // Two equal bytes share one timeline id; the first analysis caches
        // that. A push to one of them must make the next analysis tell them
        // apart again.
        let layout = LinearLayout::new(1, 16, 16);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let mode = FaultMode::mx1(1);
        let mut store = TimelineStore::new(2, 100);
        assert_eq!(mb_avf(&store, &layout, &mode, &cfg).unwrap().sdc_group_cycles(), 0);
        let ace = Interval { start: 20, end: 30, ace_mask: 0xff, checked: false };
        store.byte_mut(1).push(ace).unwrap();
        let mut fresh = TimelineStore::new(2, 100);
        fresh.byte_mut(1).push(ace).unwrap();
        let after = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        assert_eq!(after.sdc_group_cycles(), 8 * 10);
        assert_eq!(after, mb_avf(&fresh, &layout, &mode, &cfg).unwrap());
    }

    #[test]
    fn window_count_past_u32_is_rejected() {
        let total = (1u64 << 32) + 10;
        let mut store = store_1byte(total);
        store
            .byte_mut(0)
            .push(Interval { start: 100, end: 101, ace_mask: 0x01, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        assert_eq!(
            windowed_mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg, 1),
            Err(CoreError::TooManyWindows { windows: total })
        );
    }

    #[test]
    fn windowed_errors_keep_their_order() {
        // A zero window, then too many windows, then the mode's own errors.
        let total = (1u64 << 32) + 10;
        let store = store_1byte(total);
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let wide = FaultMode::mx1(9);
        let windowed = |window| windowed_mb_avf(&store, &layout, &wide, &cfg, window);
        assert_eq!(windowed(0), Err(CoreError::ZeroWindow));
        assert_eq!(windowed(1), Err(CoreError::TooManyWindows { windows: total }));
        assert!(matches!(windowed(1 << 31), Err(CoreError::ModeLargerThanLayout { .. })));
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
