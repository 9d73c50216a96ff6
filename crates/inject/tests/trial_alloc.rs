//! The trial hot path does not allocate: once warmed up, a
//! [`TrialArena::run_trial`] or [`TrialArena::run_trial_from_boundary`]
//! restores the arena's images, relaunches its wavefront and runs the
//! injected kernel in buffers the arena already owns.
//!
//! A counting global allocator (as in `journal_alloc.rs`) tallies heap
//! allocations per thread, so the test harness's own threads cannot leak
//! into the count.

use mbavf_inject::campaign::SiteSampler;
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
