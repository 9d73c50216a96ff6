//! Trial-lockstep batched execution: fetch/decode each golden instruction
//! once and advance every live fault image with it.
//!
//! Every trial of a workload executes the *same* golden instruction stream
//! up to its fault site, so the interpreter's fetch/decode/dispatch loop —
//! the dominant cost once [`TrialArena`] made trials allocation-free — is
//! paid N times for near-identical streams. A [`TrialBatch`] amortizes it:
//! one *leader* wavefront + memory image executes the golden stream, and
//! each of up to W trials rides the leader until its fault site, where its
//! private wavefront and memory image are forked off the leader
//! ([`Wavefront::copy_state_from`], `Memory::fork_from`) and stepped in
//! lockstep with the real `step` on its own state.
//!
//! Verdicts stay bit-identical to the sequential [`TrialArena`] path by
//! construction, not by re-implementation:
//!
//! * Riding trials are byte-identical to the leader, so the leader's steps
//!   *are* their steps.
//! * Forked trials execute the unmodified [`step`] on
//!   their own state with the same per-workgroup watch-port lifecycle as
//!   the arena.
//! * The moment a forked trial's control flow leaves the leader's (PC
//!   divergence), or its next memory access would panic under the
//!   `wrap_oob = false` policy, it is *retired from the batch* and replayed
//!   from scratch on the embedded sequential arena — crash reasons, hang
//!   verdicts and outputs all come from the existing single-trial path.
//! * A trial whose memory image reconverges with the leader's at a
//!   workgroup boundary resumes riding (common for faults whose corruption
//!   is masked or overwritten), keeping multi-workgroup kernels cheap.
//!
//! The hang guard trips at the same retired count for every lockstep
//! participant, so a leader hang is every surviving trial's hang — exactly
//! the sequential semantics, which check the guard after each step.

use crate::arena::{ArenaWatch, TrialArena, TrialResult};
use crate::exec::{step, vop_values, NullPorts, StepCtx, Wavefront};
use crate::interp::{Injection, InterpError, Termination};
use crate::isa::{Inst, WAVE_LANES};
use crate::mem::Memory;
use crate::program::Program;

/// One trial's private execution state within the batch.
struct Lane {
    wf: Wavefront,
    mem: Memory,
    /// Armed-lane mask per vector register (watch-port buffer), reset per
    /// workgroup like the arena's.
    armed: Vec<u64>,
    /// Watch observations accumulated in the current workgroup.
    observed_wg: bool,
}

/// Where a trial currently executes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Bit-identical to the leader; the leader steps for it.
    Riding,
    /// Forked: stepped in lockstep on its own wavefront + image.
    Active,
    /// Left lockstep; will be replayed on the sequential arena.
    Retired,
    /// Verdict produced.
    Finished,
}

/// Per-trial bookkeeping for one `run_batch` call.
struct Slot {
    inj: Injection,
    phase: Phase,
    /// The flip was applied (or its site was passed in an earlier
    /// workgroup and can no longer fire).
    fault_done: bool,
    /// Read-before-overwrite observations folded in at workgroup ends.
    observed: bool,
    result: Option<Result<TrialResult, InterpError>>,
}

/// A reusable executor running up to `width` injected trials in lockstep
/// against one decoded program, retiring divergent trials onto an embedded
/// sequential [`TrialArena`] so verdicts are bit-identical to width 1.
pub struct TrialBatch {
    arena: TrialArena,
    wrap_oob: bool,
    leader_wf: Wavefront,
    leader_mem: Memory,
    lanes: Vec<Lane>,
    slots: Vec<Slot>,
    lockstep_completed: u64,
    retired_to_sequential: u64,
}

impl TrialBatch {
    /// Build a batch of `width` lanes (clamped to at least 1) from a
    /// freshly built workload instance's parts; same contract as
    /// [`TrialArena::new`].
    pub fn new(
        program: Program,
        template: Memory,
        workgroups: u32,
        wrap_oob: bool,
        width: usize,
    ) -> Self {
        let arena = TrialArena::new(program, template, workgroups, wrap_oob);
        let width = width.max(1);
        let wgs = workgroups.max(1);
        let mut leader_mem = arena.template.clone();
        leader_mem.set_wrap_oob(wrap_oob);
        let leader_wf = Wavefront::launch(&arena.program, 0, 0, wgs);
        let lanes = (0..width)
            .map(|_| Lane {
                wf: Wavefront::launch(&arena.program, 0, 0, wgs),
                mem: {
                    let mut m = arena.template.clone();
                    m.set_wrap_oob(wrap_oob);
                    m
                },
                armed: vec![0u64; arena.program.num_vregs() as usize],
                observed_wg: false,
            })
            .collect();
        Self {
            arena,
            wrap_oob,
            leader_wf,
            leader_mem,
            lanes,
            slots: Vec::with_capacity(width),
            lockstep_completed: 0,
            retired_to_sequential: 0,
        }
    }

    /// The maximum number of trials one [`run_batch`](Self::run_batch) call
    /// accepts.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Trials whose verdict came out of lockstep execution, summed over the
    /// batch's lifetime (diagnostic: batching only pays off when this
    /// dominates [`retired_to_sequential`](Self::retired_to_sequential)).
    pub fn lockstep_completed(&self) -> u64 {
        self.lockstep_completed
    }

    /// Trials retired from lockstep and replayed sequentially, summed over
    /// the batch's lifetime.
    pub fn retired_to_sequential(&self) -> u64 {
        self.retired_to_sequential
    }

    /// Run up to `width` injected trials and classify each output against
    /// `golden`, returning one result per injection in order. Each result
    /// is bit-identical to [`TrialArena::run_trial`] with the same
    /// arguments.
    ///
    /// # Panics
    ///
    /// Panics if more injections than the batch width are passed.
    ///
    /// # Errors
    ///
    /// Per-slot, the same errors as [`TrialArena::run_trial`]:
    /// [`InterpError::BadInjection`] for out-of-range injections,
    /// [`InterpError::Crash`] when that trial's (isolated) replay panics.
    pub fn run_batch(
        &mut self,
        injections: &[Injection],
        max_steps_per_wf: u64,
        golden: &[u8],
    ) -> Vec<Result<TrialResult, InterpError>> {
        assert!(
            injections.len() <= self.lanes.len(),
            "run_batch: {} injections exceed batch width {}",
            injections.len(),
            self.lanes.len()
        );
        self.slots.clear();
        for &inj in injections {
            let bad = inj.reg as usize >= self.arena.program.num_vregs() as usize
                || inj.lane as usize >= WAVE_LANES
                || inj.wg >= self.arena.workgroups;
            self.slots.push(Slot {
                inj,
                phase: if bad { Phase::Finished } else { Phase::Riding },
                fault_done: false,
                observed: false,
                result: bad.then_some(Err(InterpError::BadInjection(inj))),
            });
        }

        let wrap_oob = self.wrap_oob;
        let Self { arena, leader_wf, leader_mem, lanes, slots, .. } = self;
        // The whole lockstep phase is crash-isolated as a unit: the OOB
        // pre-flight keeps faulty trials from panicking, so this is a
        // safety net — if it ever fires, every unfinished trial falls back
        // to the sequential path, which regenerates the exact verdict.
        let _ = crate::isolate::catch_crash(|| {
            run_lockstep(
                arena,
                leader_wf,
                leader_mem,
                lanes,
                slots,
                wrap_oob,
                max_steps_per_wf,
                golden,
            );
        });

        for slot in self.slots.iter_mut() {
            match &slot.result {
                Some(Ok(_)) => self.lockstep_completed += 1,
                Some(Err(_)) => {}
                None => {
                    self.retired_to_sequential += 1;
                    slot.result = Some(self.arena.run_trial(slot.inj, max_steps_per_wf, golden));
                }
            }
        }
        self.slots.iter_mut().map(|s| s.result.take().expect("every slot resolved")).collect()
    }
}

/// The lockstep phase: advance the leader through the golden stream,
/// forking, stepping, retiring and rejoining trials as they interact with
/// their fault sites. Fills `slot.result` for every trial whose verdict
/// lockstep can produce; leaves it `None` for retired trials.
#[allow(clippy::too_many_arguments)]
fn run_lockstep(
    arena: &TrialArena,
    leader_wf: &mut Wavefront,
    leader_mem: &mut Memory,
    lanes: &mut [Lane],
    slots: &mut [Slot],
    wrap_oob: bool,
    max_steps_per_wf: u64,
    golden: &[u8],
) {
    let program = &arena.program;
    let workgroups = arena.workgroups;
    leader_mem.reset_from(&arena.template);
    let mut null = NullPorts;
    let mut hung = false;
    'wgs: for wg in 0..workgroups {
        leader_wf.relaunch(program, wg, 0, workgroups);
        for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
            if slot.phase == Phase::Active {
                lane.wf.relaunch(program, wg, 0, workgroups);
                lane.armed.fill(0);
                lane.observed_wg = false;
            }
        }
        while !leader_wf.done {
            // Fault arming mirrors the sequential pending-check-then-step
            // order: riding trials are bit-identical to the leader, so the
            // leader's retired count is theirs.
            for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
                if slot.phase == Phase::Riding
                    && !slot.fault_done
                    && slot.inj.wg == wg
                    && slot.inj.after_retired <= leader_wf.retired
                {
                    lane.wf.copy_state_from(leader_wf);
                    lane.mem.fork_from(leader_mem);
                    lane.wf.flip_bits(slot.inj.reg, slot.inj.lane as usize, slot.inj.bits);
                    lane.armed.fill(0);
                    lane.armed[slot.inj.reg as usize] |= 1 << slot.inj.lane;
                    lane.observed_wg = false;
                    slot.fault_done = true;
                    slot.phase = Phase::Active;
                }
            }
            {
                let mut ctx = StepCtx { mem: leader_mem, trace: None, ports: &mut null, now: 0 };
                step(leader_wf, program, &mut ctx);
            }
            for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
                if slot.phase != Phase::Active {
                    continue;
                }
                // Pre-flight the one panic a faulty trial can cause in
                // step(): a wild memory access with wrapping off. Retire it
                // unstepped — the sequential replay reproduces the crash
                // verdict (including the captured panic site) exactly.
                if !wrap_oob && wild_mem_access(&lane.wf, program, &lane.mem) {
                    slot.phase = Phase::Retired;
                    continue;
                }
                let mut watch = ArenaWatch { armed: &mut lane.armed, observed: false };
                let mut ctx =
                    StepCtx { mem: &mut lane.mem, trace: None, ports: &mut watch, now: 0 };
                step(&mut lane.wf, program, &mut ctx);
                lane.observed_wg |= watch.observed;
            }
            if leader_wf.retired >= max_steps_per_wf {
                // Everyone still in lockstep has the same retired count, so
                // the sequential hang guard would have tripped for each of
                // them on this very step.
                for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
                    let output_matches = match slot.phase {
                        Phase::Riding => leader_mem.output_matches(golden),
                        Phase::Active => lane.mem.output_matches(golden),
                        _ => continue,
                    };
                    slot.result = Some(Ok(TrialResult {
                        termination: Termination::Hang,
                        output_matches,
                        injected_value_read: slot.observed
                            | (slot.phase == Phase::Active && lane.observed_wg),
                    }));
                    slot.phase = Phase::Finished;
                }
                hung = true;
                break 'wgs;
            }
            for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
                if slot.phase == Phase::Active
                    && (lane.wf.pc != leader_wf.pc || lane.wf.done != leader_wf.done)
                {
                    slot.phase = Phase::Retired;
                }
            }
        }
        // Workgroup boundary: fold watch state, expire faults whose site
        // was passed without firing (the arena's `pending` goes dead at
        // workgroup end too), and let trials whose image reconverged with
        // the leader's ride the shared stream again.
        for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
            match slot.phase {
                Phase::Riding if slot.inj.wg == wg => slot.fault_done = true,
                Phase::Active => {
                    slot.observed |= lane.observed_wg;
                    if lane.mem.same_device_bytes(leader_mem) {
                        slot.phase = Phase::Riding;
                    }
                }
                _ => {}
            }
        }
    }
    if hung {
        return;
    }
    let leader_matches = leader_mem.output_matches(golden);
    for (lane, slot) in lanes.iter_mut().zip(slots.iter_mut()) {
        let output_matches = match slot.phase {
            Phase::Riding => leader_matches,
            Phase::Active => lane.mem.output_matches(golden),
            _ => continue,
        };
        slot.result = Some(Ok(TrialResult {
            termination: Termination::Completed,
            output_matches,
            injected_value_read: slot.observed,
        }));
        slot.phase = Phase::Finished;
    }
}

/// Whether the instruction `wf` is about to execute would touch memory out
/// of bounds in any active lane — the exact condition under which `step`
/// would panic with `wrap_oob` off.
fn wild_mem_access(wf: &Wavefront, program: &Program, mem: &Memory) -> bool {
    let (addr_op, offset, width) = match program.inst(wf.pc as usize) {
        Inst::VLoad { addr, offset, width, .. } => (addr, offset, width),
        Inst::VStore { addr, offset, width, .. } => (addr, offset, width),
        _ => return false,
    };
    let base = vop_values(wf, addr_op);
    (0..WAVE_LANES).any(|l| {
        wf.exec >> l & 1 == 1
            && !mem.device_range_in_bounds(base[l].wrapping_add(offset), width.bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_golden;
    use crate::isa::{CmpOp, SReg, VReg};
    use crate::program::Assembler;

    /// Same kernel as the arena tests: live and dead registers, a
    /// value-dependent loop, and a store — surface for masked/SDC/hang/
    /// crash outcomes across two workgroups.
    fn build_instance() -> (Program, Memory, u32) {
        let mut mem = Memory::with_tracking(1 << 16, false);
        let out = mem.alloc_zeroed(128);
        mem.mark_output(out, 512);
        let mut a = Assembler::new();
        a.v_mul_u(VReg(2), VReg(1), 4u32);
        a.v_mov(VReg(4), 0u32);
        a.label("loop");
        a.v_add_u(VReg(4), VReg(4), 3u32);
        a.v_read_lane(SReg(2), VReg(4), 0);
        a.s_cmp(CmpOp::LtU, SReg(2), 12u32);
        a.branch_scc_nz("loop");
        a.v_add_u(VReg(3), VReg(4), VReg(1));
        a.v_store(VReg(3), VReg(2), out);
        a.end();
        (a.finish().unwrap(), mem, 2)
    }

    fn sweep_injection(p: &Program, wgs: u32, trial: u64) -> Injection {
        Injection {
            wg: (trial % u64::from(wgs)) as u32,
            after_retired: trial % 9,
            reg: (trial % u64::from(p.num_vregs())) as u8,
            lane: (trial % 64) as u8,
            bits: 1 << (trial % 32),
        }
    }

    fn assert_same(
        batch_r: &Result<TrialResult, InterpError>,
        arena_r: &Result<TrialResult, InterpError>,
        trial: u64,
    ) {
        match (batch_r, arena_r) {
            (Ok(b), Ok(a)) => assert_eq!(b, a, "trial {trial}"),
            (Err(InterpError::Crash { reason: rb }), Err(InterpError::Crash { reason: ra })) => {
                assert_eq!(rb, ra, "trial {trial}: crash reasons must match bit for bit");
            }
            (b, a) => panic!("trial {trial}: batch {b:?} vs arena {a:?}"),
        }
    }

    #[test]
    fn batch_matches_sequential_arena_bit_for_bit() {
        let (p, mut gm, wgs) = build_instance();
        let template = gm.clone();
        let golden = run_golden(&p, &mut gm, wgs);
        let max_steps = golden.per_wg_retired.iter().copied().max().unwrap() * 8;
        for width in [1usize, 2, 3, 8] {
            let mut batch = TrialBatch::new(p.clone(), template.clone(), wgs, true, width);
            let mut arena = TrialArena::new(p.clone(), template.clone(), wgs, true);
            let mut kinds = [0u64; 3]; // masked-ish, mismatch, hang
            let mut trial = 0u64;
            while trial < 200 {
                let injs: Vec<Injection> = (trial..(trial + width as u64).min(200))
                    .map(|t| sweep_injection(&p, wgs, t))
                    .collect();
                let results = batch.run_batch(&injs, max_steps, &golden.output);
                for (k, r) in results.iter().enumerate() {
                    let t = trial + k as u64;
                    let a = arena.run_trial(injs[k], max_steps, &golden.output);
                    assert_same(r, &a, t);
                    if let Ok(tr) = r {
                        let kind = match (tr.termination, tr.output_matches) {
                            (Termination::Hang, _) => 2,
                            (_, false) => 1,
                            (_, true) => 0,
                        };
                        kinds[kind] += 1;
                    }
                }
                trial += width as u64;
            }
            assert!(
                kinds[0] > 0 && kinds[1] > 0,
                "width {width}: sweep must cover masked and SDC, got {kinds:?}"
            );
            assert!(
                batch.lockstep_completed() > 0,
                "width {width}: lockstep must complete some trials, not retire everything"
            );
            // Hang coverage: a step budget below the kernel's length makes
            // every trial hang, riding and forked alike.
            let injs: Vec<Injection> =
                (0..width as u64).map(|t| sweep_injection(&p, wgs, t)).collect();
            let hung = batch.run_batch(&injs, 3, &golden.output);
            for (k, r) in hung.iter().enumerate() {
                let a = arena.run_trial(injs[k], 3, &golden.output);
                assert_same(r, &a, k as u64);
                assert_eq!(r.as_ref().unwrap().termination, Termination::Hang);
            }
        }
    }

    #[test]
    fn batch_with_crashy_trials_matches_and_heals() {
        let (p, mut gm, wgs) = build_instance();
        let template = gm.clone();
        let golden = run_golden(&p, &mut gm, wgs);
        let max_steps = golden.per_wg_retired.iter().copied().max().unwrap() * 8;
        // wrap_oob off: corrupted address registers panic the store in the
        // sequential path; the batch must pre-flight and retire instead.
        let mut batch = TrialBatch::new(p.clone(), template.clone(), wgs, false, 4);
        let mut arena = TrialArena::new(p.clone(), template.clone(), wgs, false);
        let mut crashes = 0;
        for start in (0..120u64).step_by(4) {
            let injs: Vec<Injection> =
                (start..start + 4).map(|t| sweep_injection(&p, wgs, t)).collect();
            let results = batch.run_batch(&injs, max_steps, &golden.output);
            for (k, r) in results.iter().enumerate() {
                let a = arena.run_trial(injs[k], max_steps, &golden.output);
                assert_same(r, &a, start + k as u64);
                if matches!(r, Err(InterpError::Crash { .. })) {
                    crashes += 1;
                }
            }
        }
        assert!(crashes > 0, "the sweep must include crash outcomes");
    }

    #[test]
    fn batch_rejects_out_of_range_injections_per_slot() {
        let (p, mem, wgs) = build_instance();
        let mut batch = TrialBatch::new(p, mem, wgs, true, 4);
        let good = Injection { wg: 0, after_retired: 0, reg: 0, lane: 5, bits: 1 << 2 };
        let bad_wg = Injection { wg: 99, ..good };
        let bad_reg = Injection { reg: 200, ..good };
        let r = batch.run_batch(&[good, bad_wg, bad_reg], 10_000, &[]);
        assert!(r[0].is_ok());
        assert!(matches!(r[1], Err(InterpError::BadInjection(_))));
        assert!(matches!(r[2], Err(InterpError::BadInjection(_))));
    }

    #[test]
    fn partial_batches_and_reuse_stay_exact() {
        let (p, mut gm, wgs) = build_instance();
        let template = gm.clone();
        let golden = run_golden(&p, &mut gm, wgs);
        let max_steps = golden.per_wg_retired.iter().copied().max().unwrap() * 8;
        let mut batch = TrialBatch::new(p.clone(), template.clone(), wgs, true, 8);
        let mut arena = TrialArena::new(p.clone(), template.clone(), wgs, true);
        // Irregular group sizes (including 1) across a reused batch: stale
        // lane state from a previous group must never leak forward.
        let mut trial = 0u64;
        for group in [3usize, 1, 8, 5, 2] {
            let injs: Vec<Injection> =
                (trial..trial + group as u64).map(|t| sweep_injection(&p, wgs, t)).collect();
            let results = batch.run_batch(&injs, max_steps, &golden.output);
            for (k, r) in results.iter().enumerate() {
                let a = arena.run_trial(injs[k], max_steps, &golden.output);
                assert_same(r, &a, trial + k as u64);
            }
            trial += group as u64;
        }
    }

    #[test]
    #[should_panic(expected = "exceed batch width")]
    fn overfull_batch_is_rejected() {
        let (p, mem, wgs) = build_instance();
        let mut batch = TrialBatch::new(p, mem, wgs, true, 2);
        let inj = Injection { wg: 0, after_retired: 0, reg: 0, lane: 0, bits: 1 };
        let _ = batch.run_batch(&[inj; 3], 1000, &[]);
    }
}
