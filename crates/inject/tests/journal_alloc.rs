//! The journal hot path does not allocate: once warmed up, a
//! [`WalWriter::append_all`] of a full commit group encodes into buffers the
//! writer already owns and reaches the disk with one write and one fsync,
//! so checkpointed campaigns keep the runner's zero allocations per trial.
//!
//! A counting global allocator (as in `campaign_bench`) tallies heap
//! allocations per thread, so the test harness's own threads cannot leak
//! into the count.

use mbavf_inject::campaign::{FaultSite, Outcome, SingleBitRecord};
use mbavf_inject::checkpoint::wal::{self, WalWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The runner's commit group at width 1: one claimed chunk of 32 trials.
const GROUP: u64 = 32;

fn group(first: u64) -> Vec<SingleBitRecord> {
    (first..first + GROUP)
        .map(|trial| SingleBitRecord {
            trial,
            site: FaultSite {
                wg: (trial % 7) as u32,
                after_retired: 1_000_000 + trial,
                reg: (trial % 200) as u8,
                lane: (trial % 64) as u8,
                bit: (trial % 32) as u8,
            },
            outcome: match trial % 3 {
                0 => Outcome::Masked,
                1 => Outcome::Sdc,
                _ => Outcome::Hang,
            },
            read_before_overwrite: trial % 2 == 0,
        })
        .collect()
}

#[test]
fn append_all_of_a_warm_group_does_not_allocate() {
    let dir = std::env::temp_dir().join("mbavf-journal-alloc");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c.json");
    let mut writer = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();

    // Warm-up: the first group sizes the writer's buffers. Trials 100..196
    // all print with three digits, so every group encodes to within a few
    // bytes of the same size.
    writer.append_all(&group(100)).unwrap();

    for first in [100 + GROUP, 100 + 2 * GROUP] {
        let records = group(first);
        let n = allocations_in(|| writer.append_all(&records).unwrap());
        assert_eq!(n, 0, "append_all of {GROUP} records from trial {first} allocated {n} times");
    }
    drop(writer);

    // Every group really reached the journal.
    let recovered = wal::recover(&ckpt, "dct", 0xFEED).unwrap();
    assert_eq!(recovered.records.len() as u64, 3 * GROUP);
    std::fs::remove_dir_all(&dir).ok();
}
