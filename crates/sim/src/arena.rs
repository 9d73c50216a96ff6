//! Reusable per-thread trial execution arena for fault-injection campaigns.
//!
//! The naive trial loop rebuilds the whole workload instance per injection:
//! allocate a fresh [`Memory`], regenerate inputs, relaunch wavefronts —
//! megabytes of allocation to flip one bit. A [`TrialArena`] amortizes all
//! of that: it keeps one golden memory image as a template plus one working
//! copy, and between trials restores only the pages the previous run dirtied
//! ([`Memory::reset_from`]) and relaunches the one resident wavefront in
//! place ([`Wavefront::relaunch`]). Both images are untracked
//! ([`Memory::into_untracked`]): no trial reads provenance, so a reset
//! copies each dirty page's data bytes and nothing else. The steady-state
//! hot path performs no heap allocation.
//!
//! Semantics are bit-identical to
//! [`run_functional_isolated`](crate::interp::run_functional_isolated) on a
//! freshly built instance: same per-workgroup watch-port lifecycle, same
//! injection timing, same hang guard, same crash capture. The campaign
//! runner's verdicts must not depend on which path executed a trial.
//!
//! With the golden run's workgroup-boundary images, the same trial loop
//! also runs a trial only across the workgroups its fault can change
//! ([`TrialArena::run_trial_from_boundary`]).

use crate::exec::{step, Lanes, Ports, StepCtx, Wavefront};
use crate::interp::{Injection, InterpError, Termination};
use crate::isa::{MemWidth, WAVE_LANES};
use crate::mem::{BoundaryImages, Memory};
use crate::program::Program;

/// What one arena-executed trial produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialResult {
    /// How the run ended.
    pub termination: Termination,
    /// Whether the concatenated output ranges equal the golden output
    /// passed to [`TrialArena::run_trial`] (meaningless when the run hung).
    pub output_matches: bool,
    /// Whether the injected register was read, flipped bits still in place,
    /// before being overwritten.
    pub injected_value_read: bool,
}

/// Watch-port state mirroring the interpreter's per-workgroup fault
/// observer, over a borrowed armed-lane buffer so the buffer outlives the
/// trial.
pub(crate) struct ArenaWatch<'a> {
    pub(crate) armed: &'a mut [u64],
    pub(crate) observed: bool,
}

impl Ports for ArenaWatch<'_> {
    fn mem_access(&mut self, _: u64, _: u32, _: &Lanes, _: u64, _: MemWidth, _: bool) -> u64 {
        0
    }
    fn reg_write(&mut self, _: u64, _: u8, reg: u8, _: u32, exec: u64) {
        // Only the written lanes are scrubbed; divergent writes leave
        // inactive lanes' faults armed.
        self.armed[reg as usize] &= !exec;
    }
    fn reg_read(&mut self, _: u64, _: u8, reg: u8, _: u32, _: u8, exec: u64) {
        if self.armed[reg as usize] & exec != 0 {
            self.observed = true;
        }
    }
    fn valu_cost(&self) -> u64 {
        0
    }
    fn salu_cost(&self) -> u64 {
        0
    }
}

/// A reusable single-injection trial executor over one workload instance.
///
/// Build it once per worker thread from a deterministically built instance,
/// then call [`run_trial`](Self::run_trial) per injection. A trial that
/// crashes (fault-induced interpreter panic) poisons only the working
/// state, and the next trial's dirty-page reset and wavefront relaunch
/// restore it — the arena is self-healing across crash outcomes.
#[derive(Debug)]
pub struct TrialArena {
    pub(crate) program: Program,
    pub(crate) workgroups: u32,
    /// Pristine post-build memory image (inputs written, outputs marked).
    pub(crate) template: Memory,
    /// Working image, restored from `template` before every trial.
    mem: Memory,
    /// The one resident wavefront, relaunched per workgroup per trial.
    wf: Wavefront,
    /// Armed-lane mask per vector register (the watch-port buffer).
    armed: Vec<u64>,
}

impl TrialArena {
    /// Build an arena from a freshly built workload instance's parts.
    ///
    /// `template` must be the instance's post-build memory (not yet run);
    /// `wrap_oob` is the fault-model policy applied to trial runs (the
    /// template itself is never executed). The arena keeps the template
    /// without its provenance.
    pub fn new(program: Program, template: Memory, workgroups: u32, wrap_oob: bool) -> Self {
        let template = template.into_untracked();
        let mut mem = template.clone();
        mem.set_wrap_oob(wrap_oob);
        let wf = Wavefront::launch(&program, 0, 0, workgroups.max(1));
        let armed = vec![0u64; program.num_vregs() as usize];
        Self { program, workgroups, template, mem, wf, armed }
    }

    /// The workgroup count the arena runs per trial.
    pub fn workgroups(&self) -> u32 {
        self.workgroups
    }

    /// Run one injected trial against the template image and classify its
    /// output against `golden` (the concatenated golden output ranges).
    ///
    /// Bit-identical to running
    /// [`run_functional_isolated`](crate::interp::run_functional_isolated)
    /// with `&[inj]` on a fresh instance, without the per-trial rebuild.
    ///
    /// # Errors
    ///
    /// [`InterpError::BadInjection`] for out-of-range injections,
    /// [`InterpError::Crash`] when the (isolated) run panics.
    pub fn run_trial(
        &mut self,
        inj: Injection,
        max_steps_per_wf: u64,
        golden: &[u8],
    ) -> Result<TrialResult, InterpError> {
        self.run(inj, max_steps_per_wf, golden, None).map(|(result, _)| result)
    }

    /// [`run_trial`](Self::run_trial) cut to the workgroups the fault can
    /// change, using the golden run's boundary `images`
    /// ([`RegUseProfile::boundary_images`](crate::profile::RegUseProfile::boundary_images)).
    /// Also returns whether the trial stopped early.
    ///
    /// Only memory crosses a workgroup boundary: each workgroup relaunches
    /// the wavefront, clears the watch state, and the fault fires only in
    /// `inj.wg`. So the workgroups before `inj.wg` run the golden run, and
    /// the trial starts from the golden image at boundary `inj.wg`. After
    /// each later workgroup, a trial whose image equals the golden image
    /// at the next boundary would run the rest of the golden run: it stops
    /// there as masked, with the read flag observed so far. A trial that
    /// never rejoins runs to the end and is classified as in `run_trial`.
    ///
    /// The result equals `run_trial`'s provided the golden run — the run
    /// that produced `golden` and `images` from this arena's template —
    /// keeps every workgroup under `max_steps_per_wf` retired
    /// instructions; otherwise the skipped workgroups would have tripped
    /// the hang guard.
    ///
    /// # Errors
    ///
    /// As [`run_trial`](Self::run_trial).
    ///
    /// # Panics
    ///
    /// Panics if `images` does not hold one boundary per workgroup of an
    /// image of this arena's size.
    pub fn run_trial_from_boundary(
        &mut self,
        inj: Injection,
        max_steps_per_wf: u64,
        golden: &[u8],
        images: &BoundaryImages,
    ) -> Result<(TrialResult, bool), InterpError> {
        assert_eq!(images.len(), self.workgroups as usize, "one boundary image per workgroup");
        self.run(inj, max_steps_per_wf, golden, Some(images))
    }

    /// The one trial loop: from workgroup 0 with no `images`, otherwise
    /// from boundary `inj.wg` with the reconvergence stop.
    fn run(
        &mut self,
        inj: Injection,
        max_steps_per_wf: u64,
        golden: &[u8],
        images: Option<&BoundaryImages>,
    ) -> Result<(TrialResult, bool), InterpError> {
        if inj.reg as usize >= self.program.num_vregs() as usize
            || inj.lane as usize >= WAVE_LANES
            || inj.wg >= self.workgroups
        {
            return Err(InterpError::BadInjection(inj));
        }
        let first = match images {
            Some(images) => {
                self.mem.restore_boundary(&self.template, images, inj.wg as usize);
                inj.wg
            }
            None => {
                self.mem.reset_from(&self.template);
                0
            }
        };
        let Self { program, workgroups, template, mem, wf, armed } = self;
        let caught = crate::isolate::catch_crash(move || {
            let mut termination = Termination::Completed;
            let mut observed = false;
            let mut rejoined = false;
            for wg in first..*workgroups {
                wf.relaunch(program, wg, 0, *workgroups);
                armed.fill(0);
                let mut pending = (inj.wg == wg).then_some(inj);
                let mut ports = ArenaWatch { armed: &mut armed[..], observed: false };
                while !wf.done {
                    if let Some(p) = pending {
                        if p.after_retired <= wf.retired {
                            wf.flip_bits(p.reg, p.lane as usize, p.bits);
                            ports.armed[p.reg as usize] |= 1 << p.lane;
                            pending = None;
                        }
                    }
                    let mut ctx = StepCtx { mem, trace: None, ports: &mut ports, now: 0 };
                    step(wf, program, &mut ctx);
                    if wf.retired >= max_steps_per_wf {
                        termination = Termination::Hang;
                        break;
                    }
                }
                observed |= ports.observed;
                if termination == Termination::Hang {
                    break;
                }
                let next = wg as usize + 1;
                if next < *workgroups as usize
                    && images.is_some_and(|images| mem.matches_boundary(template, images, next))
                {
                    rejoined = true;
                    break;
                }
            }
            let output_matches = rejoined || mem.output_matches(golden);
            (TrialResult { termination, output_matches, injected_value_read: observed }, rejoined)
        });
        caught.map_err(|reason| InterpError::Crash { reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_functional_isolated, run_golden};
    use crate::isa::{CmpOp, SReg, VReg};
    use crate::program::Assembler;

    /// A kernel with live and dead registers, a value-dependent loop, and a
    /// store — enough surface for masked/SDC/hang/crash outcomes.
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

    #[test]
    fn arena_trials_match_fresh_instance_runs() {
        let (p, mut gm, wgs) = build_instance();
        let template = gm.clone();
        let golden = run_golden(&p, &mut gm, wgs);
        let max_steps = golden.per_wg_retired.iter().copied().max().unwrap() * 8;
        let mut arena = TrialArena::new(p.clone(), template.clone(), wgs, true);
        // Sweep sites covering masked, SDC, hang, and dead registers,
        // interleaved so arena state from one outcome class bleeds into the
        // next if the reset is incomplete.
        for trial in 0..200u64 {
            let inj = Injection {
                wg: (trial % u64::from(wgs)) as u32,
                after_retired: trial % 9,
                reg: (trial % u64::from(p.num_vregs())) as u8,
                lane: (trial % 64) as u8,
                bits: 1 << (trial % 32),
            };
            let arena_r = arena.run_trial(inj, max_steps, &golden.output);
            let mut fresh_mem = template.clone();
            fresh_mem.set_wrap_oob(true);
            let fresh_r = run_functional_isolated(&p, &mut fresh_mem, wgs, &[inj], max_steps);
            match (arena_r, fresh_r) {
                (Ok(a), Ok(f)) => {
                    assert_eq!(a.termination, f.termination, "trial {trial}");
                    assert_eq!(a.output_matches, f.output == golden.output, "trial {trial}");
                    assert_eq!(a.injected_value_read, f.injected_value_read, "trial {trial}");
                }
                (Err(InterpError::Crash { .. }), Err(InterpError::Crash { .. })) => {}
                (a, f) => panic!("trial {trial}: arena {a:?} vs fresh {f:?}"),
            }
        }
    }

    /// Starting at the fault's workgroup and stopping where the image
    /// rejoins the golden one changes no verdict, whatever the previous
    /// trial left behind — crashes included.
    #[test]
    fn boundary_trials_match_full_runs() {
        let (p, mut gm, wgs) = build_instance();
        let template = gm.clone();
        let prof = crate::profile::profile_golden(&p, &mut gm, wgs);
        let golden = gm.output_snapshot();
        let max_steps = prof.per_wg.iter().map(|w| w.retired).max().unwrap() * 8;
        let mut stops = 0;
        for wrap_oob in [true, false] {
            let mut full = TrialArena::new(p.clone(), template.clone(), wgs, wrap_oob);
            let mut cut = TrialArena::new(p.clone(), template.clone(), wgs, wrap_oob);
            for trial in 0..200u64 {
                let inj = Injection {
                    wg: (trial % u64::from(wgs)) as u32,
                    after_retired: trial % 9,
                    reg: (trial % u64::from(p.num_vregs())) as u8,
                    lane: (trial % 64) as u8,
                    bits: 1 << (trial % 32),
                };
                let want = full.run_trial(inj, max_steps, &golden);
                let got =
                    cut.run_trial_from_boundary(inj, max_steps, &golden, prof.boundary_images());
                match (want, got) {
                    (Ok(w), Ok((g, stopped))) => {
                        assert_eq!(w, g, "trial {trial} wrap_oob={wrap_oob}");
                        stops += u32::from(stopped);
                    }
                    (Err(InterpError::Crash { .. }), Err(InterpError::Crash { .. })) => {}
                    (w, g) => panic!("trial {trial}: full {w:?} vs from boundary {g:?}"),
                }
            }
        }
        assert!(stops > 0, "no trial rejoined the golden image early");
    }

    #[test]
    fn arena_heals_after_crash_trials() {
        let (p, mut gm, wgs) = build_instance();
        let template = gm.clone();
        let golden = run_golden(&p, &mut gm, wgs);
        let max_steps = golden.per_wg_retired.iter().copied().max().unwrap() * 8;
        // wrap_oob off: a corrupted address register panics the store.
        let mut arena = TrialArena::new(p.clone(), template, wgs, false);
        let wild = Injection { wg: 0, after_retired: 1, reg: 2, lane: 0, bits: 1 << 30 };
        assert!(matches!(
            arena.run_trial(wild, max_steps, &golden.output),
            Err(InterpError::Crash { .. })
        ));
        // The very next trial on the poisoned arena must still be exact:
        // a no-op flip of a dead register is masked.
        let benign = Injection { wg: 0, after_retired: 8, reg: 0, lane: 5, bits: 1 << 2 };
        let r = arena.run_trial(benign, max_steps, &golden.output).unwrap();
        assert_eq!(r.termination, Termination::Completed);
        assert!(r.output_matches, "post-crash reset must restore the template image");
    }

    #[test]
    fn arena_rejects_out_of_range_injections() {
        let (p, mem, wgs) = build_instance();
        let mut arena = TrialArena::new(p, mem, wgs, true);
        for inj in [
            Injection { wg: 99, after_retired: 0, reg: 0, lane: 0, bits: 1 },
            Injection { wg: 0, after_retired: 0, reg: 200, lane: 0, bits: 1 },
        ] {
            assert!(matches!(arena.run_trial(inj, 1000, &[]), Err(InterpError::BadInjection(_))));
        }
    }
}
