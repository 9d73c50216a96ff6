//! Flat simulated memory with host-side buffer management, output-range
//! marking, and per-byte provenance for liveness analysis.

use std::fmt;
use std::ops::Range;

/// Sentinel "writer" id for bytes initialized by the host (kernel inputs).
pub const HOST_WRITER: u32 = u32::MAX;

/// Dirty-page granularity: 1 KiB pages (`1 << PAGE_SHIFT` bytes).
const PAGE_SHIFT: u32 = 10;

/// Typed errors from the simulated memory's host-side fallible paths.
///
/// Device-side wild accesses during fault injection are handled by the
/// `wrap_oob` policy or the crash-capture boundary; these variants exist so
/// *host* code handling fault-corrupted addresses (replay, triage, result
/// extraction) can fail gracefully instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An allocation's end address overflows the 32-bit address space.
    AllocOverflow {
        /// Base address the allocation would start at.
        at: u32,
        /// Requested length in bytes.
        len: u32,
    },
    /// An allocation does not fit in the remaining simulated memory.
    MemoryExhausted {
        /// End address the allocation would need.
        needed: u64,
        /// Total memory size in bytes.
        size: u32,
    },
    /// A host access touches bytes outside the simulated memory.
    OutOfBounds {
        /// Base address of the access.
        addr: u32,
        /// Access length in bytes.
        len: u32,
        /// Total memory size in bytes.
        size: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::AllocOverflow { at, len } => {
                write!(f, "allocation overflows address space: {len} bytes at {at:#x}")
            }
            SimError::MemoryExhausted { needed, size } => {
                write!(f, "simulated memory exhausted: need {needed} bytes of {size}")
            }
            SimError::OutOfBounds { addr, len, size } => {
                write!(
                    f,
                    "host access out of bounds: {len} bytes at {addr:#x} in {size}-byte memory"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Byte-addressed simulated memory.
///
/// The host allocates buffers, fills inputs, marks output ranges (the ranges
/// whose final contents constitute the program's architectural output), and
/// reads results back after a run.
#[derive(Clone)]
pub struct Memory {
    data: Vec<u8>,
    /// Per-byte dynamic-instruction id of the last writer (for provenance);
    /// populated only when tracking is enabled.
    writer: Vec<u32>,
    /// Which byte of the writing store produced this byte (0..4).
    writer_byte: Vec<u8>,
    next_alloc: u32,
    outputs: Vec<Range<u32>>,
    track: bool,
    wrap_oob: bool,
    /// One bit per [`PAGE_SHIFT`]-sized page, set when any byte of the page
    /// is written after construction (or after the last
    /// [`Memory::reset_from`]). Lets a reusable trial memory restore only
    /// the pages a run touched instead of deep-copying the whole image.
    dirty: Vec<u64>,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.data.len())
            .field("allocated", &self.next_alloc)
            .field("outputs", &self.outputs)
            .field("tracking", &self.track)
            .finish()
    }
}

impl Memory {
    /// A memory of `size` bytes with provenance tracking enabled.
    pub fn new(size: u32) -> Self {
        Self::with_tracking(size, true)
    }

    /// A memory of `size` bytes; `track = false` skips provenance metadata.
    /// Fault-injection runs take that fast path: a trial arena and the
    /// campaign's golden runs turn each built image into an untracked one
    /// with [`Memory::into_untracked`].
    pub fn with_tracking(size: u32, track: bool) -> Self {
        let pages = (size as usize).div_ceil(1 << PAGE_SHIFT);
        Self {
            data: vec![0; size as usize],
            writer: if track { vec![HOST_WRITER; size as usize] } else { Vec::new() },
            writer_byte: if track { vec![0; size as usize] } else { Vec::new() },
            next_alloc: 64, // keep address 0 unused to catch null-ish bugs
            outputs: Vec::new(),
            track,
            wrap_oob: false,
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Mark byte index `i` dirty. Callers must bounds-check before marking:
    /// a write that slipped past the bitmap would survive the next
    /// [`Memory::reset_from`] and leak into the following trial. Marking
    /// *before* writing keeps a panic-interrupted multi-byte store fully
    /// covered by the dirty map.
    #[inline]
    fn mark_dirty(&mut self, i: usize) {
        debug_assert!(
            i < self.data.len(),
            "mark_dirty({i}) out of range for {}-byte memory",
            self.data.len()
        );
        let page = i >> PAGE_SHIFT;
        if let Some(word) = self.dirty.get_mut(page >> 6) {
            *word |= 1 << (page & 63);
        }
    }

    /// Mark every page overlapping `[start, start + len)` dirty — not just
    /// the endpoints. Endpoint-only marking happens to work for today's
    /// 4-byte stores against 1 KiB pages, but any write wider than a page
    /// would leave interior pages unmarked and leak stale bytes through the
    /// next [`Memory::reset_from`].
    #[inline]
    fn mark_dirty_range(&mut self, start: usize, len: usize) {
        debug_assert!(
            start.checked_add(len).is_some_and(|end| end <= self.data.len()),
            "mark_dirty_range({start}, {len}) out of range for {}-byte memory",
            self.data.len()
        );
        if len == 0 {
            return;
        }
        for page in (start >> PAGE_SHIFT)..=((start + len - 1) >> PAGE_SHIFT) {
            if let Some(word) = self.dirty.get_mut(page >> 6) {
                *word |= 1 << (page & 63);
            }
        }
    }

    /// Out-of-bounds device accesses wrap around instead of panicking.
    ///
    /// Fault-injection runs corrupt address registers, so wild accesses are
    /// expected behaviour there (a real GPU would touch some arbitrary flat
    /// address); the default panic policy stays on for golden/timing runs to
    /// catch kernel bugs.
    pub fn set_wrap_oob(&mut self, wrap: bool) {
        self.wrap_oob = wrap;
    }

    fn index(&self, addr: u32, k: usize) -> usize {
        let i = addr as usize + k;
        if self.wrap_oob {
            i % self.data.len()
        } else {
            i
        }
    }

    /// This image without provenance: drops the per-byte writer arrays,
    /// five of every six bytes of a tracked image, and keeps the data,
    /// outputs, allocation cursor, dirty map and `wrap_oob` policy. No
    /// fault-injection trial reads provenance, so trial images take this
    /// form and restore only data bytes between trials.
    pub fn into_untracked(mut self) -> Self {
        self.writer = Vec::new();
        self.writer_byte = Vec::new();
        self.track = false;
        self
    }

    /// Whether provenance tracking is on.
    pub fn tracking(&self) -> bool {
        self.track
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Allocate `len` bytes aligned to 64 (a cache line).
    ///
    /// Returns a typed error when the allocation overflows the address space
    /// or exhausts the simulated memory, so host code sizing buffers from
    /// possibly-corrupted values never panics.
    pub fn try_alloc(&mut self, len: u32) -> Result<u32, SimError> {
        let addr = self.next_alloc;
        let end = addr.checked_add(len).ok_or(SimError::AllocOverflow { at: addr, len })?;
        if end as usize > self.data.len() {
            return Err(SimError::MemoryExhausted {
                needed: u64::from(end),
                size: self.data.len() as u32,
            });
        }
        // Aligning the *next* allocation up can itself overflow when `end`
        // sits in the last line of the address space; saturate so the next
        // try_alloc reports exhaustion instead of wrapping to low addresses.
        self.next_alloc = end.checked_add(63).map_or(u32::MAX, |e| e & !63);
        Ok(addr)
    }

    /// Allocate `len` bytes aligned to 64 (a cache line).
    ///
    /// # Panics
    ///
    /// Panics if memory is exhausted; see [`Memory::try_alloc`] for the
    /// fallible equivalent.
    pub fn alloc(&mut self, len: u32) -> u32 {
        self.try_alloc(len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocate and fill a buffer of u32 words; returns its base address.
    pub fn alloc_u32(&mut self, words: &[u32]) -> u32 {
        let addr = self.alloc(words.len() as u32 * 4);
        for (i, w) in words.iter().enumerate() {
            self.write_u32_host(addr + i as u32 * 4, *w);
        }
        addr
    }

    /// Allocate and fill a buffer of f32 values; returns its base address.
    pub fn alloc_f32(&mut self, values: &[f32]) -> u32 {
        let words: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        self.alloc_u32(&words)
    }

    /// Allocate a zero-filled buffer of `words` u32 entries.
    pub fn alloc_zeroed(&mut self, words: u32) -> u32 {
        let len = words.checked_mul(4).unwrap_or_else(|| {
            panic!("{}", SimError::AllocOverflow { at: self.next_alloc, len: u32::MAX })
        });
        self.alloc(len)
    }

    /// Mark `[addr, addr+len)` as architectural output: the final contents of
    /// output ranges are what the program is "for", so their last writers are
    /// liveness roots.
    pub fn mark_output(&mut self, addr: u32, len: u32) {
        self.outputs.push(addr..addr + len);
    }

    /// The declared output ranges.
    pub fn outputs(&self) -> &[Range<u32>] {
        &self.outputs
    }

    /// The entire memory contents, for lockstep state comparison between a
    /// golden and a faulty execution (divergence tracing).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Concatenated bytes of all output ranges, for golden-output comparison
    /// in fault-injection campaigns.
    pub fn output_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.outputs {
            out.extend_from_slice(&self.data[r.start as usize..r.end as usize]);
        }
        out
    }

    // --- host access (no provenance) ---------------------------------------

    /// Host write of a u32 (marks the bytes as host-initialized).
    pub fn write_u32_host(&mut self, addr: u32, value: u32) {
        self.write_bytes_host(addr, &value.to_le_bytes());
    }

    /// Host write of a raw byte span (marks the bytes as host-initialized);
    /// the bulk counterpart of [`Memory::write_u32_host`].
    pub fn write_bytes_host(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        self.mark_dirty_range(a, bytes.len());
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
        if self.track {
            for k in 0..bytes.len() {
                self.writer[a + k] = HOST_WRITER;
                self.writer_byte[a + k] = (k % 4) as u8;
            }
        }
    }

    /// Host read of a u32.
    ///
    /// Returns a typed error instead of panicking when the four bytes are not
    /// all inside the simulated memory — the host-side path for addresses
    /// that may have been corrupted by an injected fault.
    pub fn try_read_u32(&self, addr: u32) -> Result<u32, SimError> {
        let a = addr as usize;
        let bytes = a
            .checked_add(4)
            .and_then(|end| self.data.get(a..end))
            .ok_or(SimError::OutOfBounds { addr, len: 4, size: self.data.len() as u32 })?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Host read of a u32.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access; see [`Memory::try_read_u32`] for the
    /// fallible equivalent.
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.try_read_u32(addr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Host read of an f32.
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Host read of `n` consecutive u32 words.
    pub fn read_u32_slice(&self, addr: u32, n: u32) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + i * 4)).collect()
    }

    /// Host read of `n` consecutive f32 values.
    pub fn read_f32_slice(&self, addr: u32, n: u32) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + i * 4)).collect()
    }

    // --- device access (with provenance) ------------------------------------

    /// Device load of `len` bytes (1 or 4) at `addr`, little-endian
    /// zero-extended into a u32.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access (a kernel bug).
    pub fn load(&self, addr: u32, len: u32) -> u32 {
        let a = addr as usize;
        match self.data.get(a..a + len as usize) {
            Some(&[b]) => u32::from(b),
            Some(&[b0, b1, b2, b3]) => u32::from_le_bytes([b0, b1, b2, b3]),
            _ => self.load_bytewise(addr, len),
        }
    }

    /// [`Memory::load`] byte by byte through the `wrap_oob` policy: the
    /// path of an access that leaves the image, and the reference the
    /// in-bounds word path equals.
    #[cold]
    fn load_bytewise(&self, addr: u32, len: u32) -> u32 {
        let mut v = 0u32;
        for k in 0..len as usize {
            v |= u32::from(self.data[self.index(addr, k)]) << (8 * k);
        }
        v
    }

    /// Device store of the low `len` bytes (1 or 4) of `value` at `addr`,
    /// recording `dyn_id` as the writer.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access (a kernel bug).
    pub fn store(&mut self, addr: u32, len: u32, value: u32, dyn_id: u32) {
        let (a, n) = (addr as usize, len as usize);
        if a + n > self.data.len() || n > 4 {
            self.store_bytewise(addr, len, value, dyn_id);
            return;
        }
        self.mark_dirty_range(a, n);
        self.data[a..a + n].copy_from_slice(&value.to_le_bytes()[..n]);
        if self.track {
            for k in 0..n {
                self.writer[a + k] = dyn_id;
                self.writer_byte[a + k] = k as u8;
            }
        }
    }

    /// [`Memory::store`] byte by byte through the `wrap_oob` policy: the
    /// path of an access that leaves the image, and the reference the
    /// in-bounds word path equals.
    #[cold]
    fn store_bytewise(&mut self, addr: u32, len: u32, value: u32, dyn_id: u32) {
        // Validate every byte before mutating anything: a store that panics
        // must leave the image untouched, so the dirty map covers exactly
        // the bytes that changed (a partial write with unmarked tail bytes
        // would leak through the next reset_from).
        if !self.device_range_in_bounds(addr, len) {
            panic!(
                "device store out of bounds: {len} bytes at {addr:#x} in {}-byte memory",
                self.data.len()
            );
        }
        for k in 0..len as usize {
            let i = self.index(addr, k);
            self.mark_dirty(i);
            self.data[i] = (value >> (8 * k)) as u8;
            if self.track {
                self.writer[i] = dyn_id;
                self.writer_byte[i] = k as u8;
            }
        }
    }

    /// Whether a device access of `len` bytes at `addr` stays in bounds
    /// under this memory's `wrap_oob` policy — exactly the condition under
    /// which [`Memory::load`] / [`Memory::store`] will not panic. Lets the
    /// batched executor pre-flight a faulty trial's wild address and retire
    /// it instead of panicking mid-batch.
    pub(crate) fn device_range_in_bounds(&self, addr: u32, len: u32) -> bool {
        self.wrap_oob || addr as usize + len as usize <= self.data.len()
    }

    /// Restore this memory to the state of `template`, copying only the
    /// pages written since the last reset (or since construction).
    ///
    /// This is the allocation-free alternative to `*self = template.clone()`
    /// for trial loops that rerun a kernel thousands of times against the
    /// same golden image: a trial typically touches a small fraction of the
    /// address space, and only those pages need restoring. The receiver's
    /// `wrap_oob` policy is preserved (it belongs to the run, not the
    /// image). Works even after a crash-isolated trial panicked mid-store:
    /// pages are marked dirty *before* each byte write, so every mutated
    /// page is covered.
    ///
    /// # Panics
    ///
    /// Panics if `template` differs in size or tracking mode — resetting
    /// against a different image is a harness bug, not a recoverable state.
    pub fn reset_from(&mut self, template: &Memory) {
        assert_eq!(self.data.len(), template.data.len(), "reset_from: size mismatch");
        assert_eq!(self.track, template.track, "reset_from: tracking mismatch");
        for wi in 0..self.dirty.len() {
            let word = std::mem::take(&mut self.dirty[wi]);
            for page in pages_of(wi, word) {
                self.copy_page(template, page);
            }
        }
        self.next_alloc = template.next_alloc;
        self.outputs.clone_from(&template.outputs);
    }

    /// Byte range of page `page`, clipped to the image.
    fn page_range(&self, page: usize) -> Range<usize> {
        (page << PAGE_SHIFT)..((page + 1) << PAGE_SHIFT).min(self.data.len())
    }

    /// Copy page `page` — data and provenance — from `src`, leaving the
    /// dirty map alone.
    fn copy_page(&mut self, src: &Memory, page: usize) {
        let r = self.page_range(page);
        self.data[r.clone()].copy_from_slice(&src.data[r.clone()]);
        if self.track {
            self.writer[r.clone()].copy_from_slice(&src.writer[r.clone()]);
            self.writer_byte[r.clone()].copy_from_slice(&src.writer_byte[r]);
        }
    }

    /// Make this image byte-identical to `leader`, copying only the pages
    /// where either image differs from their common ancestor.
    ///
    /// Precondition (a harness invariant, not checked byte-for-byte): both
    /// images were last reset from the *same* template, so each differs
    /// from it only on its own dirty pages. Copying the union of the two
    /// dirty sets from `leader` therefore reproduces `leader` exactly:
    /// pages dirty in neither are already equal, pages dirty only in `self`
    /// are rolled back to template bytes via `leader`'s clean copy.
    ///
    /// This is the fork step of trial-lockstep batching — splitting a
    /// trial's private image off the shared golden image at its fault site
    /// without a full-size copy.
    ///
    /// # Panics
    ///
    /// Panics if `leader` differs in size or tracking mode.
    pub(crate) fn fork_from(&mut self, leader: &Memory) {
        assert_eq!(self.data.len(), leader.data.len(), "fork_from: size mismatch");
        assert_eq!(self.track, leader.track, "fork_from: tracking mismatch");
        for wi in 0..self.dirty.len() {
            for page in pages_of(wi, self.dirty[wi] | leader.dirty[wi]) {
                self.copy_page(leader, page);
            }
            self.dirty[wi] = leader.dirty[wi];
        }
        self.next_alloc = leader.next_alloc;
        self.outputs.clone_from(&leader.outputs);
    }

    /// Whether this image's bytes equal `other`'s, comparing only the pages
    /// dirty in either — sound under the same shared-template precondition
    /// as [`Memory::fork_from`]. Used to detect a faulty trial whose image
    /// has reconverged with the golden image at a workgroup boundary.
    pub(crate) fn same_device_bytes(&self, other: &Memory) -> bool {
        self.first_difference(other).is_none()
    }

    /// Forget which pages have been written, so the dirty map counts only
    /// later writes. An image cleared this way can no longer be restored
    /// by [`Memory::reset_from`]: this is for images that are compared
    /// with [`Memory::first_difference`] and then dropped.
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// The lowest byte index at which this image and `other` differ,
    /// scanning only the pages dirty in either, in ascending order. It
    /// finds every difference when the two images were equal at their
    /// last [`Memory::clear_dirty`] (or at their last reset from one
    /// template).
    ///
    /// # Panics
    ///
    /// Panics if `other` differs in size.
    pub fn first_difference(&self, other: &Memory) -> Option<usize> {
        assert_eq!(self.data.len(), other.data.len(), "first_difference: size mismatch");
        (0..self.dirty.len()).find_map(|wi| {
            pages_of(wi, self.dirty[wi] | other.dirty[wi]).find_map(|page| {
                let r = self.page_range(page);
                let (a, b) = (&self.data[r.clone()], &other.data[r.clone()]);
                if a == b {
                    return None;
                }
                a.iter().zip(b).position(|(x, y)| x != y).map(|i| r.start + i)
            })
        })
    }

    /// Make this image byte-identical to boundary `k` of `images`: the
    /// template's bytes everywhere except the pages the boundary's delta
    /// holds. Copies only the pages dirty here or in that delta, and leaves
    /// exactly the delta's pages dirty, so a later
    /// [`Memory::reset_from`] or restore still sees every page that
    /// differs from `template`.
    ///
    /// Same precondition as [`Memory::reset_from`] (this image was last
    /// reset or restored from `template`); `images` must have been
    /// captured from an image equal to `template`. Data bytes only:
    /// provenance of the delta's pages is left unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `template` or `images` differ in size from this image, or
    /// `k` is not a captured boundary.
    pub(crate) fn restore_boundary(
        &mut self,
        template: &Memory,
        images: &BoundaryImages,
        k: usize,
    ) {
        assert_eq!(self.data.len(), template.data.len(), "restore_boundary: size mismatch");
        assert_eq!(self.data.len(), images.size, "restore_boundary: image size mismatch");
        let b = &images.boundaries[k];
        for wi in 0..self.dirty.len() {
            for page in pages_of(wi, self.dirty[wi] & !b.pages[wi]) {
                self.copy_page(template, page);
            }
        }
        for &(page, version) in &b.delta {
            let r = self.page_range(page as usize);
            let len = r.len();
            self.data[r].copy_from_slice(&images.version(version)[..len]);
        }
        self.dirty.copy_from_slice(&b.pages);
        self.next_alloc = template.next_alloc;
        self.outputs.clone_from(&template.outputs);
    }

    /// Whether this image's bytes equal boundary `k` of `images`: the
    /// delta's pages against their captured versions, every other page
    /// dirty here against `template`. Pages dirty in neither already equal
    /// the template in both, so this is `same_device_bytes`'s question
    /// asked of a stored golden image. Same precondition as
    /// [`Memory::restore_boundary`].
    pub(crate) fn matches_boundary(
        &self,
        template: &Memory,
        images: &BoundaryImages,
        k: usize,
    ) -> bool {
        let b = &images.boundaries[k];
        let delta_matches = b.delta.iter().all(|&(page, version)| {
            let r = self.page_range(page as usize);
            let len = r.len();
            self.data[r] == images.version(version)[..len]
        });
        delta_matches
            && (0..self.dirty.len()).all(|wi| {
                pages_of(wi, self.dirty[wi] & !b.pages[wi]).all(|page| {
                    let r = self.page_range(page);
                    self.data[r.clone()] == template.data[r]
                })
            })
    }

    /// Whether the concatenated output ranges equal `golden`, byte for byte
    /// — the in-place equivalent of `output_snapshot() == golden` without
    /// building the snapshot vector.
    pub fn output_matches(&self, golden: &[u8]) -> bool {
        let mut off = 0usize;
        for r in &self.outputs {
            let (start, end) = (r.start as usize, r.end as usize);
            let len = end - start;
            match golden.get(off..off + len) {
                Some(g) if g == &self.data[start..end] => off += len,
                _ => return false,
            }
        }
        off == golden.len()
    }

    /// The `(writer dyn-id, byte-within-store)` provenance of byte `addr`.
    ///
    /// # Panics
    ///
    /// Panics if tracking is disabled.
    pub fn provenance(&self, addr: u32) -> (u32, u8) {
        assert!(self.track, "provenance requires tracking");
        (self.writer[addr as usize], self.writer_byte[addr as usize])
    }
}

/// Page indices of the set bits of dirty-map word `wi`, ascending.
fn pages_of(wi: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let page = wi * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            page
        })
    })
}

/// A run's memory images at its workgroup boundaries, stored as page
/// deltas against the image the run started from (its template).
///
/// Boundary `k` is the image just before workgroup `k` ran; boundary 0 is
/// the template itself. Each boundary lists the pages the run has written
/// by then (every other page still holds template bytes) as indices into
/// one shared store of page versions, and a page gets a new version only
/// when a workgroup changes it. The store therefore grows with the bytes
/// the run writes, not with boundaries × image size. Data bytes only:
/// provenance is not captured.
#[derive(Debug, Clone)]
pub struct BoundaryImages {
    /// Image size in bytes.
    size: usize,
    /// Page versions, one full page each (a short last page is padded).
    versions: Vec<u8>,
    boundaries: Vec<Boundary>,
}

/// One boundary's delta against the template.
#[derive(Debug, Clone)]
struct Boundary {
    /// Dirty-map-shaped bitmap of the pages the delta holds.
    pages: Vec<u64>,
    /// `(page, version)` per held page, ascending by page.
    delta: Vec<(u32, u32)>,
}

impl BoundaryImages {
    /// Start capturing a run from its template image `start`, which
    /// becomes boundary 0. Until [`BoundaryCapture::finish`] hands them
    /// back, `start`'s dirty marks count only the run's writes since the
    /// last boundary.
    pub(crate) fn capture(start: &mut Memory) -> BoundaryCapture {
        let pages = start.dirty.len();
        BoundaryCapture {
            images: BoundaryImages {
                size: start.data.len(),
                versions: Vec::new(),
                boundaries: vec![Boundary { pages: vec![0; pages], delta: Vec::new() }],
            },
            set_aside: std::mem::replace(&mut start.dirty, vec![0; pages]),
        }
    }

    /// Boundaries captured (the run's workgroup count).
    pub(crate) fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// Bytes of page data stored across all boundaries.
    #[cfg(test)]
    fn stored_bytes(&self) -> usize {
        self.versions.len()
    }

    fn version(&self, v: u32) -> &[u8] {
        let start = (v as usize) << PAGE_SHIFT;
        &self.versions[start..start + (1 << PAGE_SHIFT)]
    }
}

/// An in-progress [`BoundaryImages`] capture.
#[derive(Debug)]
pub(crate) struct BoundaryCapture {
    images: BoundaryImages,
    /// Dirty marks taken off the run's image — the template's, then each
    /// boundary's — so that it marks only the latest workgroup's writes.
    set_aside: Vec<u64>,
}

impl BoundaryCapture {
    /// Record `mem` — the run's image, grown from the template by the run's
    /// writes — as the next boundary. Only pages written since the last
    /// boundary can have changed; each gets a new version the first time
    /// it is written and whenever its bytes change after that.
    ///
    /// # Panics
    ///
    /// Panics if `mem` differs in size from the template.
    pub(crate) fn boundary(&mut self, mem: &mut Memory) {
        assert_eq!(mem.data.len(), self.images.size, "boundary: size mismatch");
        let images = &mut self.images;
        let mut next = images.boundaries.last().expect("boundary 0 exists").clone();
        for wi in 0..mem.dirty.len() {
            let written = std::mem::take(&mut mem.dirty[wi]);
            self.set_aside[wi] |= written;
            for page in pages_of(wi, written) {
                let r = mem.page_range(page);
                let held = next.delta.binary_search_by_key(&(page as u32), |&(p, _)| p);
                if let Ok(i) = held {
                    if images.version(next.delta[i].1)[..r.len()] == mem.data[r.clone()] {
                        continue;
                    }
                }
                let version = u32::try_from(images.versions.len() >> PAGE_SHIFT)
                    .expect("boundary: over 2^32 page versions");
                images.versions.extend_from_slice(&mem.data[r]);
                images.versions.resize((version as usize + 1) << PAGE_SHIFT, 0);
                match held {
                    Ok(i) => next.delta[i].1 = version,
                    Err(i) => next.delta.insert(i, (page as u32, version)),
                }
                next.pages[wi] |= 1 << (page & 63);
            }
        }
        images.boundaries.push(next);
    }

    /// The captured images. `mem`, the run's image, gets its dirty marks
    /// back, so it can again be reset against the template.
    pub(crate) fn finish(self, mem: &mut Memory) -> BoundaryImages {
        for (word, set_aside) in mem.dirty.iter_mut().zip(self.set_aside) {
            *word |= set_aside;
        }
        self.images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = Memory::new(4096);
        let a = m.alloc(10);
        let b = m.alloc(100);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_overflow_panics() {
        let mut m = Memory::new(128);
        m.alloc(256);
    }

    #[test]
    fn try_alloc_returns_typed_errors() {
        let mut m = Memory::new(128);
        assert_eq!(
            m.try_alloc(256),
            Err(SimError::MemoryExhausted { needed: 64 + 256, size: 128 })
        );
        // The failed allocation must not move the cursor.
        assert_eq!(m.try_alloc(32), Ok(64));
        let mut m = Memory::new(256);
        let base = m.try_alloc(0).unwrap();
        assert_eq!(m.try_alloc(u32::MAX), Err(SimError::AllocOverflow { at: base, len: u32::MAX }));
    }

    #[test]
    fn try_read_u32_returns_typed_errors() {
        let mut m = Memory::new(128);
        let a = m.alloc(8);
        m.write_u32_host(a, 0xDEADBEEF);
        assert_eq!(m.try_read_u32(a), Ok(0xDEADBEEF));
        // Straddling the end and numeric overflow of addr+4 both fail typed.
        assert_eq!(
            m.try_read_u32(126),
            Err(SimError::OutOfBounds { addr: 126, len: 4, size: 128 })
        );
        assert_eq!(
            m.try_read_u32(u32::MAX - 1),
            Err(SimError::OutOfBounds { addr: u32::MAX - 1, len: 4, size: 128 })
        );
        // The panicking wrapper keeps its documented message substring.
        let err = SimError::OutOfBounds { addr: 126, len: 4, size: 128 };
        assert!(err.to_string().contains("out of bounds"));
        let ex = SimError::MemoryExhausted { needed: 320, size: 128 };
        assert!(ex.to_string().contains("exhausted"));
    }

    #[test]
    fn host_roundtrip() {
        let mut m = Memory::new(1024);
        let a = m.alloc_f32(&[1.5, -2.0]);
        assert_eq!(m.read_f32(a), 1.5);
        assert_eq!(m.read_f32(a + 4), -2.0);
        assert_eq!(m.read_f32_slice(a, 2), vec![1.5, -2.0]);
    }

    #[test]
    fn device_store_records_provenance() {
        let mut m = Memory::new(1024);
        let a = m.alloc(64);
        m.store(a, 4, 0xAABBCCDD, 42);
        assert_eq!(m.load(a, 4), 0xAABBCCDD);
        assert_eq!(m.load(a + 1, 1), 0xCC);
        assert_eq!(m.provenance(a + 2), (42, 2));
        assert_eq!(m.provenance(a + 63), (HOST_WRITER, 0));
    }

    #[test]
    fn untracked_memory_skips_metadata() {
        let mut m = Memory::with_tracking(1024, false);
        let a = m.alloc(8);
        m.store(a, 4, 7, 1);
        assert_eq!(m.load(a, 4), 7);
        assert!(!m.tracking());
    }

    #[test]
    fn reset_from_restores_only_dirty_pages_exactly() {
        let mut template = Memory::new(8192);
        let a = template.alloc_u32(&[1, 2, 3, 4]);
        template.mark_output(a, 16);
        let mut work = template.clone();
        // Touch bytes across two pages, bump the cursor, add an output.
        work.store(a, 4, 0xDEAD_BEEF, 9);
        work.store(4096, 4, 0x0BAD_CAFE, 10);
        let _ = work.alloc(64);
        work.mark_output(4096, 4);
        work.reset_from(&template);
        assert_eq!(work.bytes(), template.bytes());
        assert_eq!(work.outputs(), template.outputs());
        assert_eq!(work.alloc(4), template.clone().alloc(4), "cursor restored");
        assert_eq!(work.provenance(a), template.provenance(a));
    }

    #[test]
    fn reset_from_preserves_receiver_wrap_policy() {
        let template = Memory::new(1024);
        let mut work = template.clone();
        work.set_wrap_oob(true);
        // A wrapping store lands in-bounds and must be rolled back too.
        work.store(1022, 4, 0xFFFF_FFFF, 1);
        work.reset_from(&template);
        assert_eq!(work.bytes(), template.bytes());
        // wrap_oob belongs to the run, not the image: still wrapping.
        work.store(1022, 4, 0xFFFF_FFFF, 1);
        assert_eq!(work.load(0, 1), 0xFF);
    }

    #[test]
    fn output_matches_agrees_with_snapshot() {
        let mut m = Memory::new(1024);
        let a = m.alloc(64);
        let b = m.alloc(64);
        m.write_u32_host(a, 0x01020304);
        m.write_u32_host(b, 0x05060708);
        m.mark_output(a, 4);
        m.mark_output(b, 2);
        let snap = m.output_snapshot();
        assert!(m.output_matches(&snap));
        assert!(!m.output_matches(&snap[..5]), "length mismatch (short)");
        let mut longer = snap.clone();
        longer.push(0);
        assert!(!m.output_matches(&longer), "length mismatch (long)");
        let mut wrong = snap;
        wrong[0] ^= 1;
        assert!(!m.output_matches(&wrong));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn reset_from_refuses_mismatched_images() {
        let template = Memory::new(1024);
        let mut other = Memory::new(2048);
        other.reset_from(&template);
    }

    #[test]
    fn bulk_host_writes_mark_every_touched_page() {
        let template = Memory::with_tracking(16 << 10, false);
        let mut work = template.clone();
        // 3 KiB spanning four 1 KiB pages: endpoint-only marking would skip
        // the two interior pages and leave their bytes stale after reset.
        work.write_bytes_host(512, &vec![0xAB; 3 << 10]);
        work.reset_from(&template);
        assert_eq!(work.bytes(), template.bytes());
        assert_eq!(template.bytes(), vec![0u8; 16 << 10]);
    }

    #[test]
    fn page_boundary_store_and_reset_torture() {
        let mut template = Memory::new(8192);
        let a = template.alloc(4096);
        template.mark_output(a, 4096);
        let mut work = template.clone();
        for round in 0..3u32 {
            // Stores straddling every page boundary in the allocation, plus
            // host writes at the same spots, then an exact rollback.
            for page in 1..4u32 {
                let boundary = page * 1024;
                work.store(boundary - 2, 4, 0xA1B2C3D4 ^ round, 7);
                work.write_u32_host(boundary - 1, 0x55AA55AA);
            }
            assert_ne!(work.bytes(), template.bytes());
            work.reset_from(&template);
            assert_eq!(work.bytes(), template.bytes());
            assert_eq!(work.provenance(1022), template.provenance(1022));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn device_store_oob_panics() {
        let mut m = Memory::with_tracking(1024, false);
        m.store(1022, 4, 0xFFFF_FFFF, 1);
    }

    #[test]
    fn oob_store_panics_before_mutating() {
        let template = Memory::with_tracking(1024, false);
        let mut work = template.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            work.store(1022, 4, 0xFFFF_FFFF, 1);
        }));
        assert!(r.is_err(), "straddling store must panic with wrap_oob off");
        // No partial write: the first two bytes are untouched, and a reset
        // still restores a byte-identical image.
        assert_eq!(work.bytes(), template.bytes());
        work.reset_from(&template);
        assert_eq!(work.bytes(), template.bytes());
    }

    /// The word path of `load` and `store` equals the byte-by-byte
    /// reference at every kind of offset — data, provenance, dirty map, and
    /// the panic (message and location) of an access that leaves the image
    /// — and a panicking store leaves the image untouched.
    #[test]
    fn word_access_matches_bytewise_reference() {
        use crate::isolate::catch_crash;
        const SIZE: u32 = 4096;
        let offsets = [
            100,          // page interior
            1020,         // last word of a page
            1022,         // straddles a page edge
            1024,         // first word of a page
            SIZE - 4,     // last word of the image
            SIZE - 1,     // last byte of the image
            SIZE - 2,     // straddles the end
            SIZE,         // one past the end
            0x8000_0001,  // wild
            u32::MAX - 1, // wild, wraps the address space
        ];
        let pattern: Vec<u8> = (0..SIZE).map(|i| (i * 37 + 11) as u8).collect();
        for track in [false, true] {
            let mut template = Memory::with_tracking(SIZE, track);
            template.write_bytes_host(0, &pattern);
            template.store(2000, 4, 0x0102_0304, 5); // a device writer to overwrite
            template.clear_dirty();
            for wrap in [false, true] {
                template.set_wrap_oob(wrap);
                let mut panics = 0;
                for len in [1, 4] {
                    for addr in offsets {
                        let at = format!("addr {addr:#x} len {len} wrap {wrap} track {track}");
                        let got = catch_crash(|| template.load(addr, len));
                        assert_eq!(got, catch_crash(|| template.load_bytewise(addr, len)), "{at}");
                        let (mut word, mut bytewise) = (template.clone(), template.clone());
                        let got = catch_crash(|| word.store(addr, len, 0xA1B2_C3D4, 77));
                        let want =
                            catch_crash(|| bytewise.store_bytewise(addr, len, 0xA1B2_C3D4, 77));
                        assert_eq!(got, want, "{at}");
                        assert_eq!(word.data, bytewise.data, "{at}");
                        assert_eq!(word.writer, bytewise.writer, "{at}");
                        assert_eq!(word.writer_byte, bytewise.writer_byte, "{at}");
                        assert_eq!(word.dirty, bytewise.dirty, "{at}");
                        if got.is_err() {
                            panics += 1;
                            assert_eq!(word.data, template.data, "{at}: partial write");
                            assert_eq!(word.dirty, template.dirty, "{at}: stray dirty mark");
                        }
                    }
                }
                assert_eq!(panics > 0, !wrap, "wrap {wrap} track {track}: {panics} panics");
            }
        }
    }

    #[test]
    fn into_untracked_keeps_the_image_and_drops_provenance() {
        let mut m = Memory::new(4096);
        let a = m.alloc_u32(&[1, 2, 3]);
        m.mark_output(a, 12);
        m.set_wrap_oob(true);
        let (tracked, untracked) = (m.clone(), m.into_untracked());
        assert!(!untracked.tracking());
        assert!(untracked.writer.is_empty() && untracked.writer_byte.is_empty());
        assert_eq!(untracked.bytes(), tracked.bytes());
        assert_eq!(untracked.outputs(), tracked.outputs());
        assert_eq!(untracked.dirty, tracked.dirty);
        assert_eq!(untracked.next_alloc, tracked.next_alloc);
        assert_eq!(untracked.load(4095, 4), tracked.load(4095, 4), "wrap policy kept");
    }

    #[test]
    fn first_difference_scans_written_pages_in_order() {
        let mut base = Memory::with_tracking(8192, false);
        base.write_bytes_host(0, &[7; 8192]);
        base.clear_dirty();
        let (mut a, mut b) = (base.clone(), base.clone());
        assert_eq!(a.first_difference(&b), None);
        b.store(5000, 1, 9, 1);
        assert_eq!(a.first_difference(&b), Some(5000));
        a.store(3000, 4, 0x0707_0107, 2); // differs in byte 3001 only
        assert_eq!(a.first_difference(&b), Some(3001));
        assert_eq!(b.first_difference(&a), Some(3001));
        a.store(3000, 4, 0x0707_0707, 3);
        assert_eq!(a.first_difference(&b), Some(5000), "same bytes again");
    }

    #[test]
    fn fork_from_reproduces_leader_exactly() {
        let mut template = Memory::new(8192);
        let a = template.alloc_u32(&[1, 2, 3, 4]);
        template.mark_output(a, 16);
        let mut leader = template.clone();
        let mut lane = template.clone();
        // Diverge both images from the template on different pages.
        leader.store(a, 4, 0xDEAD_BEEF, 3);
        leader.store(4096, 4, 0x0BAD_CAFE, 4);
        let _ = leader.alloc(64);
        leader.mark_output(4096, 4);
        lane.store(2048, 4, 0x1111_2222, 5);
        lane.fork_from(&leader);
        assert_eq!(lane.bytes(), leader.bytes());
        assert_eq!(lane.outputs(), leader.outputs());
        assert!(lane.same_device_bytes(&leader));
        // The lane's own divergence (page 2) was rolled back via the leader.
        assert_eq!(lane.load(2048, 4), 0);
        // A later reset still restores the template exactly, so no page
        // escaped the dirty map during the fork.
        lane.reset_from(&template);
        assert_eq!(lane.bytes(), template.bytes());
        assert_eq!(lane.outputs(), template.outputs());
    }

    #[test]
    fn same_device_bytes_detects_divergence_and_reconvergence() {
        let template = Memory::with_tracking(4096, false);
        let mut a = template.clone();
        let mut b = template.clone();
        assert!(a.same_device_bytes(&b));
        a.store(100, 4, 0xFF, 1);
        assert!(!a.same_device_bytes(&b));
        b.store(100, 4, 0xFF, 2);
        assert!(a.same_device_bytes(&b), "same bytes, different writers");
        a.store(3000, 1, 9, 3);
        assert!(!a.same_device_bytes(&b));
        a.reset_from(&template);
        b.reset_from(&template);
        assert!(a.same_device_bytes(&b));
    }

    #[test]
    fn boundary_images_restore_and_match_exactly() {
        let mut template = Memory::new(8192);
        let a = template.alloc_u32(&[1, 2, 3, 4]);
        template.mark_output(a, 16);
        let mut run = template.clone();
        let mut capture = BoundaryImages::capture(&mut run);
        run.store(a, 4, 0xDEAD_BEEF, 1);
        capture.boundary(&mut run);
        let after_first = run.clone();
        // The second "workgroup" writes a new page and puts page 0 back.
        run.store(4096, 4, 7, 2);
        run.store(a, 4, 1, 3);
        capture.boundary(&mut run);
        let after_second = run.clone();
        let images = capture.finish(&mut run);
        assert_eq!(images.len(), 3);
        assert_eq!(images.stored_bytes(), 3 << PAGE_SHIFT, "one version per changed page");
        // The run's image got its template marks back: it resets exactly.
        run.reset_from(&template);
        assert_eq!(run.bytes(), template.bytes());
        let mut work = template.clone();
        work.store(2048, 4, 9, 4);
        for (k, want) in [(0, &template), (1, &after_first), (2, &after_second)] {
            work.restore_boundary(&template, &images, k);
            assert_eq!(work.bytes(), want.bytes(), "boundary {k}");
            assert!(work.matches_boundary(&template, &images, k), "boundary {k}");
            // Diverge on page 0: held by boundaries 1 and 2, clean in 0.
            work.store(100, 1, 0x55, 5);
            assert!(!work.matches_boundary(&template, &images, k), "boundary {k}");
            // And off every delta page: only the dirty map can see it.
            work.restore_boundary(&template, &images, k);
            work.store(6000, 1, 0x55, 6);
            assert!(!work.matches_boundary(&template, &images, k), "boundary {k}");
        }
        // Restores keep the dirty map covering every changed page.
        work.reset_from(&template);
        assert_eq!(work.bytes(), template.bytes());
    }

    #[test]
    fn output_snapshot_concatenates_ranges() {
        let mut m = Memory::new(1024);
        let a = m.alloc(64);
        let b = m.alloc(64);
        m.write_u32_host(a, 0x01020304);
        m.write_u32_host(b, 0x05060708);
        m.mark_output(a, 4);
        m.mark_output(b, 2);
        assert_eq!(m.output_snapshot(), vec![4, 3, 2, 1, 8, 7]);
    }
}
