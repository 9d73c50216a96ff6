//! The hot paths do not allocate. Once warmed up:
//!
//! - a [`TrialArena::run_trial`] or [`TrialArena::run_trial_from_boundary`]
//!   restores the arena's images, relaunches its wavefront and runs the
//!   injected kernel in buffers the arena already owns;
//! - a width-1 [`TrialExecutor::run_unit`], the path every campaign trial
//!   takes, settles, stops early or runs each trial without a heap
//!   allocation of its own;
//! - a [`WalWriter::append_all`] of a full commit group encodes into buffers
//!   the writer already owns and reaches the disk with one write and one
//!   fsync, so checkpointed campaigns keep zero allocations per trial.
//!
//! One counting global allocator tallies heap allocations per thread, so
//! the test harness's own threads cannot leak into the count.

// The allocator's trait is unsafe to implement; it only forwards to
// `System`.
#![allow(unsafe_code)]

use crate::campaign::{
    golden_shape, CampaignConfig, FaultSite, Outcome, OutcomeKind, Shortcuts, SingleBitRecord,
    SiteSampler, TrialExecutor,
};
use crate::checkpoint::wal::{self, WalWriter};
use mbavf_sim::{profile_golden, TrialArena};
use mbavf_workloads::{by_name, Scale};
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
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Warm-up trials per path before counting starts.
const WARM_UP: u64 = 2;
/// Counted trials per path.
const COUNTED: u64 = 4;

fn assert_trials_do_not_allocate(name: &str) {
    let w = by_name(name).expect("registered");
    let mut golden_inst = w.build(Scale::Paper);
    let profile =
        profile_golden(&golden_inst.program, &mut golden_inst.mem, golden_inst.workgroups);
    let golden = golden_inst.mem.output_snapshot();
    let per_wg: Vec<u64> = profile.per_wg.iter().map(|wg| wg.retired).collect();
    let max_steps = per_wg.iter().copied().max().unwrap() * 4;
    let sampler = SiteSampler::new(&per_wg, profile.num_vregs).unwrap();
    let inst = w.build(Scale::Paper);
    let mut arena = TrialArena::new(inst.program, inst.mem, inst.workgroups, true);

    for trial in 0..WARM_UP + COUNTED {
        let inj = sampler.sample(7, trial).injection(1);
        let (full, r) = allocations_in(|| arena.run_trial(inj, max_steps, &golden));
        r.unwrap_or_else(|e| panic!("{name} trial {trial}: {e}"));
        let (cut, r) = allocations_in(|| {
            arena.run_trial_from_boundary(inj, max_steps, &golden, profile.boundary_images())
        });
        r.unwrap_or_else(|e| panic!("{name} trial {trial} from its boundary: {e}"));
        if trial >= WARM_UP {
            assert_eq!(full, 0, "{name}: run_trial {trial} allocated {full} times");
            assert_eq!(cut, 0, "{name}: run_trial_from_boundary {trial} allocated {cut} times");
        }
    }
}

#[test]
fn warm_matmul_trials_do_not_allocate() {
    assert_trials_do_not_allocate("matmul");
}

#[test]
fn warm_minife_trials_do_not_allocate() {
    assert_trials_do_not_allocate("minife");
}

/// Trials per workload the executor check counts, after [`WARM_UP`].
const UNITS: u64 = 48;

/// Run [`UNITS`] warm one-trial units of `name` through a width-1 executor,
/// as a campaign's thread worker or `__serve` lease does, and assert that
/// none allocates. Returns how many counted trials were settled from the
/// profile, stopped early at a golden boundary, and run to the end.
fn assert_units_do_not_allocate(name: &str, hang_factor: u64) -> [u64; 3] {
    let w = by_name(name).expect("registered");
    // Wrapping stays on: a crash outcome carries its reason as a string.
    let cfg = CampaignConfig { seed: 7, hang_factor, ..CampaignConfig::default() };
    let golden = golden_shape(&w, &cfg).unwrap();
    let sampler = SiteSampler::new(&golden.per_wg_retired, golden.num_vregs).unwrap();
    let mut exec = TrialExecutor::new(&w, &cfg, &golden, &sampler, 1);
    let mut kinds = [0; 3];
    for trial in 0..WARM_UP + UNITS {
        let (n, record) = allocations_in(|| exec.run_unit(&[trial]).next().map(|(r, _)| r));
        let record = record.expect("one trial, one record");
        assert_ne!(record.outcome.kind(), OutcomeKind::Crash, "{name} trial {trial}");
        let Shortcuts { settled, stopped_early } = exec.take_shortcuts();
        if trial >= WARM_UP {
            assert_eq!(n, 0, "{name}: run_unit of trial {trial} allocated {n} times");
            // One trial per unit: at most one of the two counts is 1.
            kinds[0] += settled;
            kinds[1] += stopped_early;
            kinds[2] += 1 - settled - stopped_early;
        }
    }
    kinds
}

/// Every way a campaign trial can go through the executor: settled from
/// the profile, stopped at a boundary, run from its boundary to the end,
/// and (with the shortcuts off) run in full from workgroup 0.
#[test]
fn warm_executor_units_do_not_allocate() {
    let mut kinds = [0; 3];
    for name in ["matmul", "fast_walsh", "dct"] {
        for (k, n) in kinds.iter_mut().zip(assert_units_do_not_allocate(name, 8)) {
            *k += n;
        }
    }
    let [settled, stopped, to_the_end] = kinds;
    assert!(settled > 0, "no counted trial was settled from the profile");
    assert!(stopped > 0, "no counted trial stopped at a golden boundary");
    assert!(to_the_end > 0, "no counted trial ran to the end");
    // A hang guard the golden run reaches turns the shortcuts off.
    let [settled, stopped, in_full] = assert_units_do_not_allocate("fast_walsh", 1);
    assert_eq!((settled, stopped, in_full), (0, 0, UNITS));
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
        let (n, ()) = allocations_in(|| writer.append_all(&records).unwrap());
        assert_eq!(n, 0, "append_all of {GROUP} records from trial {first} allocated {n} times");
    }
    drop(writer);

    // Every group really reached the journal.
    let recovered = wal::recover(&ckpt, "dct", 0xFEED).unwrap();
    assert_eq!(recovered.records.len() as u64, 3 * GROUP);
    std::fs::remove_dir_all(&dir).ok();
}
