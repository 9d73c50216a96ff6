//! Per-byte ACE interval timelines — the output of the simulator's
//! event-tracking phase and the input to MB-AVF analysis.
//!
//! ACE analysis (paper Section II-B) classifies every bit-cycle of a structure
//! as *ACE* (required for architecturally correct execution) or *unACE*. For
//! DUE and false-DUE analysis (Sections V and VII) one more distinction is
//! needed: whether a fault arising in a bit would be *observed* by the
//! protection-domain check (e.g. the parity check performed when the domain is
//! read) before the data is overwritten. A fault in an unACE-but-observed bit
//! becomes a **false DUE** when the protection scheme detects it.
//!
//! Timelines are stored per *byte* because the simulators produce byte- and
//! word-granular events; bit-level differences within a byte (from logic
//! masking) are captured by each interval's `ace_mask`.

use crate::error::CoreError;
use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::OnceLock;

/// Simulation time, in cycles.
pub type Cycle = u64;

/// The vulnerability state of a single bit during a single interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BitState {
    /// The bit's value does not matter and no check would observe a flip:
    /// a fault here vanishes.
    UnAce,
    /// The bit's value does not matter, but a protection-domain check (a read
    /// of the domain, or a write-back) observes the flip before the data is
    /// overwritten: a detectable flip here is a *false* DUE.
    FalseDetect,
    /// The bit's value is required for architecturally correct execution.
    Ace,
}

/// One labelled interval `[start, end)` of a byte's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// First cycle of the interval (inclusive).
    pub start: Cycle,
    /// End of the interval (exclusive).
    pub end: Cycle,
    /// Bits of the byte whose value is architecturally required during this
    /// interval (bit `i` of the mask covers bit `i` of the byte).
    pub ace_mask: u8,
    /// Whether a protection-domain check observes a fault arising in this
    /// interval before the data is overwritten. Bits set in `ace_mask` are
    /// always observed (their consuming read is itself a check), regardless
    /// of this flag; `checked` additionally covers the remaining bits.
    pub checked: bool,
}

impl Interval {
    /// An interval during which `ace_mask` bits are ACE (and, necessarily,
    /// observed by the domain check at their consuming read).
    pub fn ace(start: Cycle, end: Cycle, ace_mask: u8) -> Self {
        Self { start, end, ace_mask, checked: true }
    }

    /// An interval whose bits are all unACE but observed by a later domain
    /// check: any detectable flip becomes a false DUE.
    pub fn false_detect(start: Cycle, end: Cycle) -> Self {
        Self { start, end, ace_mask: 0, checked: true }
    }

    /// An interval whose bits are all unACE and never observed.
    pub fn un_ace(start: Cycle, end: Cycle) -> Self {
        Self { start, end, ace_mask: 0, checked: false }
    }

    /// The state of bit `bit` (0–7) during this interval.
    pub fn bit_state(&self, bit: u8) -> BitState {
        debug_assert!(bit < 8);
        if self.ace_mask & (1 << bit) != 0 {
            BitState::Ace
        } else if self.checked {
            BitState::FalseDetect
        } else {
            BitState::UnAce
        }
    }

    /// Interval length in cycles.
    pub fn len(&self) -> Cycle {
        self.end - self.start
    }

    /// `true` if the interval covers no cycles. Validated intervals are never
    /// empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The lifetime of one byte of a hardware structure: a sorted, non-overlapping
/// sequence of labelled [`Interval`]s. Gaps between intervals are implicitly
/// [`BitState::UnAce`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteTimeline {
    intervals: Vec<Interval>,
}

impl ByteTimeline {
    /// An empty timeline: the byte is unACE for its whole lifetime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an interval. Intervals must be pushed in increasing time order
    /// and must not overlap.
    ///
    /// Intervals that are empty (`end <= start`) are rejected; intervals that
    /// carry no information (`ace_mask == 0 && !checked`) are silently dropped
    /// since gaps already mean unACE.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyInterval`] for empty intervals and
    /// [`CoreError::IntervalOrder`] for out-of-order or overlapping pushes.
    pub fn push(&mut self, iv: Interval) -> Result<(), CoreError> {
        if iv.is_empty() {
            return Err(CoreError::EmptyInterval { start: iv.start, end: iv.end });
        }
        if let Some(last) = self.intervals.last() {
            if iv.start < last.end {
                return Err(CoreError::IntervalOrder { start: iv.start, prev_end: last.end });
            }
        }
        if iv.ace_mask == 0 && !iv.checked {
            return Ok(());
        }
        // Coalesce with the previous interval when labels match exactly.
        if let Some(last) = self.intervals.last_mut() {
            if last.end == iv.start && last.ace_mask == iv.ace_mask && last.checked == iv.checked {
                last.end = iv.end;
                return Ok(());
            }
        }
        self.intervals.push(iv);
        Ok(())
    }

    /// The stored intervals, sorted by time.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Total cycles during which any bit of the byte is ACE.
    pub fn ace_cycles(&self) -> Cycle {
        self.intervals.iter().filter(|iv| iv.ace_mask != 0).map(Interval::len).sum()
    }

    /// Total ACE *bit*-cycles of the byte: the sum over intervals of
    /// `popcount(ace_mask) * len` — the numerator contribution of this byte to
    /// equation (1).
    pub fn ace_bit_cycles(&self) -> u128 {
        self.intervals
            .iter()
            .map(|iv| u128::from(iv.ace_mask.count_ones()) * u128::from(iv.len()))
            .sum()
    }

    /// Total bit-cycles in the `FalseDetect` state (unACE but observed).
    pub fn false_detect_bit_cycles(&self) -> u128 {
        self.intervals
            .iter()
            .filter(|iv| iv.checked)
            .map(|iv| u128::from(8 - iv.ace_mask.count_ones()) * u128::from(iv.len()))
            .sum()
    }

    /// The end of the last interval, or 0 for an empty timeline.
    pub fn last_end(&self) -> Cycle {
        self.intervals.last().map_or(0, |iv| iv.end)
    }
}

/// The timelines of every byte of one hardware structure, plus the structure's
/// observation length `N` in cycles (the denominator of equations (1)–(2)).
///
/// The MB-AVF engine canonizes the bytes' timelines once per store, on first
/// use; [`byte_mut`](Self::byte_mut) drops that cache. Equality and `Debug`
/// ignore it.
#[derive(Clone)]
pub struct TimelineStore {
    bytes: Vec<ByteTimeline>,
    total_cycles: Cycle,
    ids: OnceLock<TimelineIds>,
}

impl PartialEq for TimelineStore {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.total_cycles == other.total_cycles
    }
}

impl Eq for TimelineStore {}

impl fmt::Debug for TimelineStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimelineStore")
            .field("bytes", &self.bytes)
            .field("total_cycles", &self.total_cycles)
            .finish()
    }
}

impl TimelineStore {
    /// A store for a structure of `num_bytes` bytes observed for
    /// `total_cycles` cycles, with every byte initially unACE.
    ///
    /// # Panics
    ///
    /// Panics if `num_bytes == 0` or `total_cycles == 0`.
    pub fn new(num_bytes: usize, total_cycles: Cycle) -> Self {
        assert!(num_bytes > 0 && total_cycles > 0, "structure must be nonempty");
        Self { bytes: vec![ByteTimeline::new(); num_bytes], total_cycles, ids: OnceLock::new() }
    }

    /// Number of bytes tracked.
    pub fn num_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of bits tracked (`B_H` of equation (1)).
    pub fn num_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Observation length in cycles (`N` of equations (1)–(2)).
    pub fn total_cycles(&self) -> Cycle {
        self.total_cycles
    }

    /// Extend the observation length (used when simulation finishes later
    /// than the initially estimated cycle count).
    ///
    /// # Panics
    ///
    /// Panics if `total_cycles` is smaller than the end of any recorded
    /// interval.
    pub fn set_total_cycles(&mut self, total_cycles: Cycle) {
        let max_end = self.bytes.iter().map(ByteTimeline::last_end).max().unwrap_or(0);
        assert!(
            total_cycles >= max_end,
            "total_cycles {total_cycles} precedes recorded interval end {max_end}"
        );
        self.total_cycles = total_cycles;
    }

    /// The timeline of byte `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn byte(&self, idx: usize) -> &ByteTimeline {
        &self.bytes[idx]
    }

    /// Mutable access to the timeline of byte `idx`, for recording intervals.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn byte_mut(&mut self, idx: usize) -> &mut ByteTimeline {
        self.ids.take();
        &mut self.bytes[idx]
    }

    /// The canonical ids of the bytes' timelines, computed on first use.
    pub(crate) fn ids(&self) -> &TimelineIds {
        self.ids.get_or_init(|| TimelineIds::new(self))
    }

    /// Checked access to the timeline of byte `idx`.
    pub fn get(&self, idx: usize) -> Option<&ByteTimeline> {
        self.bytes.get(idx)
    }

    /// Validate that no interval extends past [`total_cycles`].
    ///
    /// [`total_cycles`]: TimelineStore::total_cycles
    ///
    /// # Errors
    ///
    /// [`CoreError::IntervalPastEnd`] naming the first offending interval.
    pub fn validate(&self) -> Result<(), CoreError> {
        for tl in &self.bytes {
            let end = tl.last_end();
            if end > self.total_cycles {
                return Err(CoreError::IntervalPastEnd { end, total: self.total_cycles });
            }
        }
        Ok(())
    }

    /// Iterate over all byte timelines.
    pub fn iter(&self) -> impl Iterator<Item = &ByteTimeline> {
        self.bytes.iter()
    }
}

/// Canonical ids of a store's bit timelines (exact comparison: the hash
/// only picks buckets), computed once per store (see
/// [`TimelineStore::ids`]).
///
/// Bytes with byte-for-byte identical timelines share a content id, and a
/// bit's id is its byte's content id with its bit index. A byte-granular
/// timeline (every interval's mask `0x00` or `0xff`) puts its eight bits in
/// the same state in every cycle, so they share the id of bit 0. Two bits
/// with equal ids are in the same state in every cycle.
#[derive(Clone)]
pub(crate) struct TimelineIds {
    /// Per byte: the content id of its timeline.
    byte: Vec<u32>,
    /// Per content id: whether the timeline is byte-granular.
    granular: Vec<bool>,
}

impl TimelineIds {
    pub(crate) fn new(store: &TimelineStore) -> Self {
        let mut canon: FxHashMap<&[Interval], u32> = FxHashMap::default();
        let mut granular = Vec::new();
        let byte = (0..store.num_bytes())
            .map(|b| {
                let intervals = store.byte(b).intervals();
                *canon.entry(intervals).or_insert_with(|| {
                    granular.push(intervals.iter().all(|iv| matches!(iv.ace_mask, 0x00 | 0xff)));
                    granular.len() as u32 - 1
                })
            })
            .collect();
        Self { byte, granular }
    }

    /// The id of the timeline of bit `bit` of byte `byte`, or `None` if the
    /// bit lies outside the store.
    pub(crate) fn bit(&self, byte: u32, bit: u8) -> Option<u64> {
        let content = *self.byte.get(byte as usize)?;
        if bit >= 8 {
            return None;
        }
        let bit = if self.granular[content as usize] { 0 } else { bit };
        Some(u64::from(content) << 3 | u64::from(bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_state_from_mask_and_checked() {
        let iv = Interval { start: 0, end: 10, ace_mask: 0b0000_0101, checked: true };
        assert_eq!(iv.bit_state(0), BitState::Ace);
        assert_eq!(iv.bit_state(1), BitState::FalseDetect);
        assert_eq!(iv.bit_state(2), BitState::Ace);
        let silent = Interval { start: 0, end: 10, ace_mask: 0b1, checked: false };
        assert_eq!(silent.bit_state(0), BitState::Ace);
        assert_eq!(silent.bit_state(7), BitState::UnAce);
    }

    #[test]
    fn bit_state_ordering_matches_precedence() {
        assert!(BitState::Ace > BitState::FalseDetect);
        assert!(BitState::FalseDetect > BitState::UnAce);
    }

    #[test]
    fn push_enforces_order() {
        let mut tl = ByteTimeline::new();
        tl.push(Interval::ace(0, 10, 0xff)).unwrap();
        tl.push(Interval::ace(10, 20, 0x0f)).unwrap();
        assert_eq!(
            tl.push(Interval::ace(15, 30, 0xff)),
            Err(CoreError::IntervalOrder { start: 15, prev_end: 20 })
        );
    }

    #[test]
    fn push_rejects_empty() {
        let mut tl = ByteTimeline::new();
        assert_eq!(
            tl.push(Interval::ace(5, 5, 0xff)),
            Err(CoreError::EmptyInterval { start: 5, end: 5 })
        );
    }

    #[test]
    fn push_drops_pure_unace() {
        let mut tl = ByteTimeline::new();
        tl.push(Interval::un_ace(0, 10)).unwrap();
        assert!(tl.intervals().is_empty());
        // ... but order is still validated against retained intervals only.
        tl.push(Interval::ace(3, 7, 1)).unwrap();
        assert_eq!(tl.intervals().len(), 1);
    }

    #[test]
    fn push_coalesces_identical_adjacent() {
        let mut tl = ByteTimeline::new();
        tl.push(Interval::ace(0, 10, 0xff)).unwrap();
        tl.push(Interval::ace(10, 20, 0xff)).unwrap();
        assert_eq!(tl.intervals().len(), 1);
        assert_eq!(tl.intervals()[0].len(), 20);
    }

    #[test]
    fn ace_accounting() {
        let mut tl = ByteTimeline::new();
        tl.push(Interval::ace(0, 10, 0b11)).unwrap(); // 2 ace bits * 10
        tl.push(Interval::false_detect(10, 20)).unwrap(); // 8 fd bits * 10
        assert_eq!(tl.ace_cycles(), 10);
        assert_eq!(tl.ace_bit_cycles(), 20);
        assert_eq!(tl.false_detect_bit_cycles(), 6 * 10 + 8 * 10);
    }

    #[test]
    fn store_validation() {
        let mut store = TimelineStore::new(2, 100);
        store.byte_mut(0).push(Interval::ace(0, 100, 0xff)).unwrap();
        assert!(store.validate().is_ok());
        store.byte_mut(1).push(Interval::ace(0, 150, 0xff)).unwrap();
        assert_eq!(store.validate(), Err(CoreError::IntervalPastEnd { end: 150, total: 100 }));
        store.set_total_cycles(150);
        assert!(store.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "precedes recorded interval end")]
    fn shrinking_total_cycles_panics() {
        let mut store = TimelineStore::new(1, 100);
        store.byte_mut(0).push(Interval::ace(0, 80, 1)).unwrap();
        store.set_total_cycles(50);
    }

    #[test]
    fn store_equality_ignores_the_ids_cache() {
        let mut analysed = TimelineStore::new(2, 100);
        analysed.byte_mut(0).push(Interval::ace(0, 10, 0x0f)).unwrap();
        let plain = analysed.clone();
        analysed.ids();
        assert_eq!(analysed, plain);
        assert_eq!(plain, analysed.clone());
        assert_eq!(format!("{analysed:?}"), format!("{plain:?}"));
    }

    #[test]
    fn store_counts() {
        let store = TimelineStore::new(3, 7);
        assert_eq!(store.num_bytes(), 3);
        assert_eq!(store.num_bits(), 24);
        assert_eq!(store.total_cycles(), 7);
        assert_eq!(store.iter().count(), 3);
        assert!(store.get(2).is_some());
        assert!(store.get(3).is_none());
    }

    #[test]
    fn bit_timeline_ids_follow_bit_states() {
        let mut store = TimelineStore::new(4, 100);
        // Byte-granular: all eight bits share one timeline.
        let ace = Interval { start: 0, end: 10, ace_mask: 0xff, checked: true };
        store.byte_mut(0).push(ace).unwrap();
        store.byte_mut(1).push(ace).unwrap();
        // Logic-masked: bits 1..8 FalseDetect, bit 0 ACE.
        store.byte_mut(2).push(Interval { ace_mask: 0x01, ..ace }).unwrap();
        let ids = TimelineIds::new(&store);
        let id = |byte, bit| ids.bit(byte, bit).unwrap();
        assert!((1..8).all(|bit| id(0, bit) == id(0, 0)));
        assert_eq!(id(1, 5), id(0, 0));
        assert_ne!(id(2, 0), id(2, 1));
        assert_ne!(id(2, 1), id(2, 2));
        assert_ne!(id(3, 0), id(0, 0));
        assert_eq!(ids.bit(4, 0), None);
        assert_eq!(ids.bit(0, 8), None);
    }
}
