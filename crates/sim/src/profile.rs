//! Analytic register-use profiling of the golden run — the model side of
//! the ACE-vs-injection validation gate, and the campaign executor's oracle
//! for trial shortcuts.
//!
//! A fault-injection campaign measures the *read-before-overwrite* rate
//! empirically: flip a bit, watch whether the register is read (with the
//! flip still in place) before being overwritten. But for the fault-free
//! run that rate is not a random quantity at all — it is fully determined
//! by the golden instruction stream. This module records every vector
//! register-file access of a golden run (through the same [`Ports`] hooks
//! the injector's watchpoints use, so the two views share one event
//! ordering) and computes, in closed form, the probability that a
//! uniformly sampled campaign fault lands in a read-before-overwrite
//! window.
//!
//! The key identity the validation gate leans on: until the flipped
//! (register, lane) is first read, an injected run executes *bit-identically*
//! to the golden run — a fault cannot steer control flow before anything
//! reads it. So for every non-crashing trial, the campaign's recorded
//! `read_before_overwrite` flag must equal [`RegUseProfile::site_is_read`]
//! for that trial's site, exactly — not statistically. Any mismatch is a
//! model/injector divergence, never sampling noise.
//!
//! The same identity lets a campaign skip work. A fault the profile calls
//! unread runs the golden run bit for bit, so its trial is settled without
//! executing it. And since only memory crosses a workgroup boundary, the
//! profiling run also captures the golden memory image at every boundary
//! ([`RegUseProfile::boundary_images`]): a read trial can start from the
//! image before its fault's workgroup and stop once its image rejoins the
//! golden one ([`TrialArena::run_trial_from_boundary`]).
//!
//! [`TrialArena::run_trial_from_boundary`]: crate::arena::TrialArena::run_trial_from_boundary

use crate::exec::{step, Lanes, Ports, StepCtx, Wavefront};
use crate::isa::{MemWidth, WAVE_LANES};
use crate::mem::{BoundaryImages, Memory};
use crate::program::Program;

/// One vector register-file access during the golden run, packed into 16
/// bytes: a campaign keeps its workload's profile, tens of thousands of
/// events at Paper scale, for as long as it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    /// Lanes active (EXEC mask) at the access. Divergent writes scrub only
    /// their active lanes, so lane membership is part of the event.
    exec: u64,
    /// Retired-instruction index of the accessing instruction (the campaign
    /// sampler's `after_retired` clock: an injection at time `tau` lands
    /// before the instruction with index `tau` executes) in the low 31
    /// bits; [`Event::READ`] marks a read (source operand) rather than a
    /// write (destination).
    tagged_idx: u32,
}

impl Event {
    const READ: u32 = 1 << 31;

    /// # Panics
    ///
    /// Panics if `idx` does not fit in 31 bits (a wavefront retiring over
    /// two billion instructions).
    fn new(idx: u64, exec: u64, read: bool) -> Self {
        let idx = u32::try_from(idx)
            .ok()
            .filter(|&i| i < Self::READ)
            .unwrap_or_else(|| panic!("profile: instruction index {idx} exceeds 31 bits"));
        Event { exec, tagged_idx: idx | if read { Self::READ } else { 0 } }
    }

    fn idx(self) -> u64 {
        u64::from(self.tagged_idx & !Self::READ)
    }

    fn read(self) -> bool {
        self.tagged_idx & Self::READ != 0
    }
}

/// [`Ports`] backend that records register accesses and costs nothing.
struct Recorder {
    /// `wf.retired` at the start of the current step — the index of the
    /// instruction whose operand reads / destination write are firing.
    idx: u64,
    /// Per-register event list, in program order.
    events: Vec<Vec<Event>>,
}

impl Ports for Recorder {
    fn mem_access(&mut self, _: u64, _: u32, _: &Lanes, _: u64, _: MemWidth, _: bool) -> u64 {
        0
    }
    fn reg_write(&mut self, _: u64, _: u8, reg: u8, _: u32, exec: u64) {
        if exec != 0 {
            self.events[reg as usize].push(Event::new(self.idx, exec, false));
        }
    }
    fn reg_read(&mut self, _: u64, _: u8, reg: u8, _: u32, _: u8, exec: u64) {
        if exec != 0 {
            self.events[reg as usize].push(Event::new(self.idx, exec, true));
        }
    }
    fn valu_cost(&self) -> u64 {
        0
    }
    fn salu_cost(&self) -> u64 {
        0
    }
}

/// Register-access timeline of one wavefront's golden execution.
#[derive(Debug)]
pub struct WgProfile {
    /// Instructions this wavefront retired.
    pub retired: u64,
    /// Every access event, grouped by register; within a register ordered
    /// by retired-instruction index (reads of an instruction precede its
    /// write). One exact-size allocation per workgroup.
    events: Vec<Event>,
    /// Register `r`'s events are `events[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
}

impl WgProfile {
    /// Flatten a recorder's per-register event lists, leaving them empty
    /// (but allocated) for the next workgroup.
    fn from_recorded(retired: u64, per_reg: &mut [Vec<Event>]) -> Self {
        let total = per_reg.iter().map(Vec::len).sum();
        let mut events = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(per_reg.len() + 1);
        starts.push(0);
        for reg in per_reg {
            events.append(reg);
            starts.push(u32::try_from(events.len()).expect("profile: over 2^32 events"));
        }
        WgProfile { retired, events, starts }
    }

    fn reg_events(&self, reg: u8) -> &[Event] {
        let reg = reg as usize;
        &self.events[self.starts[reg] as usize..self.starts[reg + 1] as usize]
    }

    /// For each lane of `reg`: how many injection times `tau` in
    /// `[0, retired)` would be read before overwrite.
    ///
    /// An event at index `idx` settles every pending injection time in
    /// `[boundary, idx + 1)` — as observed if it is a read, as scrubbed if
    /// it is a write — and advances that lane's boundary to `idx + 1`.
    /// Times after the last event of a lane are never read (the register
    /// is dead there).
    pub fn observed_lanes(&self, reg: u8) -> [u64; WAVE_LANES] {
        let mut boundary = [0u64; WAVE_LANES];
        let mut observed = [0u64; WAVE_LANES];
        for e in self.reg_events(reg) {
            let mut mask = e.exec;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let end = e.idx() + 1;
                if e.read() && end > boundary[lane] {
                    observed[lane] += end - boundary[lane];
                }
                boundary[lane] = boundary[lane].max(end);
            }
        }
        observed
    }

    /// Whether a fault injected into `(reg, lane)` at time `after_retired`
    /// would be read before being overwritten: true iff the first
    /// subsequent access of that lane is a read.
    ///
    /// Events are ordered by index, so this binary-searches the first event
    /// at or after `after_retired` and scans on from there for the lane.
    pub fn site_is_read(&self, after_retired: u64, reg: u8, lane: u8) -> bool {
        let bit = 1u64 << lane;
        let events = self.reg_events(reg);
        let from = events.partition_point(|e| e.idx() < after_retired);
        events[from..].iter().find(|e| e.exec & bit != 0).is_some_and(|e| e.read())
    }
}

/// The recorded register-use timelines of a full golden run.
#[derive(Debug)]
pub struct RegUseProfile {
    /// Vector registers per wavefront (the `reg` axis of the sample space).
    pub num_vregs: u8,
    /// One timeline per workgroup, in dispatch order.
    pub per_wg: Vec<WgProfile>,
    /// The golden memory image before each workgroup ran.
    images: BoundaryImages,
}

impl RegUseProfile {
    /// Exact probability that a campaign fault — sampled uniformly as
    /// (retired instruction of the whole run, register, lane) — lands in a
    /// read-before-overwrite window.
    ///
    /// Mirrors the campaign sampler, which draws the time uniformly over
    /// every retired instruction, so a workgroup weighs by its residency:
    /// the result is the pooled ratio Σ observed / (Σ retired · registers ·
    /// lanes), counted exactly in integers and divided once.
    pub fn read_before_overwrite_probability(&self) -> f64 {
        let mut observed = 0u128;
        for wg in &self.per_wg {
            for reg in 0..self.num_vregs {
                observed += wg.observed_lanes(reg).iter().map(|&n| u128::from(n)).sum::<u128>();
            }
        }
        let sites = u128::from(self.retired()) * u128::from(self.num_vregs) * WAVE_LANES as u128;
        if sites == 0 {
            return 0.0;
        }
        observed as f64 / sites as f64
    }

    /// Point query: would a fault at this site be read before overwrite?
    ///
    /// # Panics
    ///
    /// Panics if `wg` or `reg` is out of range (the campaign samples sites
    /// in range; an out-of-range site is a caller bug).
    pub fn site_is_read(&self, wg: u32, after_retired: u64, reg: u8, lane: u8) -> bool {
        assert!(reg < self.num_vregs, "register {reg} out of range");
        self.per_wg[wg as usize].site_is_read(after_retired, reg, lane)
    }

    /// Total instructions retired across all workgroups.
    pub fn retired(&self) -> u64 {
        self.per_wg.iter().map(|w| w.retired).sum()
    }

    /// The golden memory image at every workgroup boundary: boundary `k`
    /// is the image just before workgroup `k` ran, as page deltas against
    /// the image the profiled run started from.
    pub fn boundary_images(&self) -> &BoundaryImages {
        &self.images
    }
}

/// Execute the golden (fault-free) run and record every vector
/// register-file access and the memory image at every workgroup boundary.
/// Functionally identical to [`run_golden`](crate::interp::run_golden) —
/// same sequential workgroup order, same memory effects — but with the
/// recording backend attached.
///
/// # Panics
///
/// Panics if a wavefront retires 2³¹ instructions or more.
pub fn profile_golden(program: &Program, mem: &mut Memory, workgroups: u32) -> RegUseProfile {
    let mut per_wg = Vec::with_capacity(workgroups as usize);
    let mut images = BoundaryImages::capture(mem);
    let mut rec = Recorder { idx: 0, events: vec![Vec::new(); program.num_vregs() as usize] };
    for wg in 0..workgroups {
        if wg > 0 {
            images.boundary(mem);
        }
        let mut wf = Wavefront::launch(program, wg, 0, workgroups);

        while !wf.done {
            rec.idx = wf.retired;
            let mut ctx = StepCtx { mem, trace: None, ports: &mut rec, now: 0 };
            step(&mut wf, program, &mut ctx);
        }
        per_wg.push(WgProfile::from_recorded(wf.retired, &mut rec.events));
    }
    RegUseProfile { num_vregs: program.num_vregs(), per_wg, images: images.finish(mem) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_functional, run_golden, Injection};
    use crate::isa::{CmpOp, ExecOp, SReg, VOp, VReg};
    use crate::program::Assembler;
    use mbavf_core::rng::SplitMix64;

    /// out[i] = i*2 — same shape as the interpreter's test kernel: v1 read
    /// twice, v2/v3 written then read by the store, v0 dead.
    fn toy() -> (Program, Memory) {
        let mut mem = Memory::with_tracking(1 << 16, false);
        let out = mem.alloc_zeroed(64);
        mem.mark_output(out, 256);
        let mut a = Assembler::new();
        a.v_mul_u(VReg(2), VReg(1), 4u32);
        a.v_mul_u(VReg(3), VReg(1), 2u32);
        a.v_store(VReg(3), VReg(2), out);
        a.end();
        (a.finish().unwrap(), mem)
    }

    #[test]
    fn profile_retires_like_the_golden_run() {
        let (p, mut m1) = toy();
        let golden = run_golden(&p, &mut m1, 1);
        let (p2, mut m2) = toy();
        let prof = profile_golden(&p2, &mut m2, 1);
        assert_eq!(prof.retired(), golden.retired);
        assert_eq!(prof.per_wg.len(), 1);
        assert_eq!(prof.per_wg[0].retired, golden.per_wg_retired[0]);
    }

    #[test]
    fn toy_kernel_windows_are_exact() {
        let (p, mut mem) = toy();
        let prof = profile_golden(&p, &mut mem, 1);
        // v0 (lane id) is never accessed: dead everywhere.
        assert!(!prof.site_is_read(0, 0, 0, 5));
        assert_eq!(prof.per_wg[0].observed_lanes(0).iter().sum::<u64>(), 0);
        // v1 is read by instructions 0 and 1: times 0 and 1 are covered,
        // nothing after.
        assert!(prof.site_is_read(0, 0, 1, 3));
        assert!(prof.site_is_read(0, 1, 1, 3));
        assert!(!prof.site_is_read(0, 2, 1, 3));
        assert_eq!(prof.per_wg[0].observed_lanes(1)[3], 2);
        // v3 is written at 1 and read by the store at 2: a fault at time 0
        // or 1 is overwritten, one at 2 is read, one at 3 is dead.
        assert!(!prof.site_is_read(0, 0, 3, 0));
        assert!(!prof.site_is_read(0, 1, 3, 0));
        assert!(prof.site_is_read(0, 2, 3, 0));
        assert!(!prof.site_is_read(0, 3, 3, 0));
        assert_eq!(prof.per_wg[0].observed_lanes(3)[0], 1);
    }

    #[test]
    fn events_pack_into_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        let e = Event::new((1 << 31) - 1, 5, true);
        assert_eq!((e.idx(), e.exec, e.read()), ((1 << 31) - 1, 5, true));
        assert!(!Event::new(7, 1, false).read());
    }

    /// The analytic probability must equal brute-force enumeration of
    /// `site_is_read` over the entire sample space — same integers, not
    /// just close floats.
    #[test]
    fn probability_equals_enumeration() {
        let (p, mut mem) = toy();
        let prof = profile_golden(&p, &mut mem, 1);
        let wg = &prof.per_wg[0];
        let mut by_span = 0u64;
        let mut by_enum = 0u64;
        for reg in 0..prof.num_vregs {
            by_span += wg.observed_lanes(reg).iter().sum::<u64>();
            for lane in 0..WAVE_LANES as u8 {
                for tau in 0..wg.retired {
                    by_enum += u64::from(wg.site_is_read(tau, reg, lane));
                }
            }
        }
        assert_eq!(by_span, by_enum);
        let denom = wg.retired as f64 * f64::from(prof.num_vregs) * WAVE_LANES as f64;
        let expect = by_span as f64 / denom;
        assert!((prof.read_before_overwrite_probability() - expect).abs() < 1e-15);
    }

    /// Ground truth: for every site of the toy kernel, the profile's answer
    /// must equal what the injector's watchpoints actually observe.
    #[test]
    fn profile_agrees_with_injection_on_every_toy_site() {
        let (p, mut mem) = toy();
        let prof = profile_golden(&p, &mut mem, 1);
        for reg in 0..prof.num_vregs {
            for lane in [0u8, 3, 63] {
                for tau in 0..prof.per_wg[0].retired {
                    let (p2, mut m2) = toy();
                    let inj = Injection { wg: 0, after_retired: tau, reg, lane, bits: 1 << 7 };
                    let run = run_functional(&p2, &mut m2, 1, &[inj], 10_000).unwrap();
                    assert_eq!(
                        prof.site_is_read(0, tau, reg, lane),
                        run.injected_value_read,
                        "reg {reg} lane {lane} tau {tau}"
                    );
                }
            }
        }
    }

    /// Divergent writes scrub only their active lanes: a fault in a lane
    /// the write skips stays live and the next full-width read observes it.
    #[test]
    fn divergent_write_leaves_inactive_lanes_live() {
        fn build() -> (Program, Memory) {
            let mut mem = Memory::with_tracking(1 << 16, false);
            let out = mem.alloc_zeroed(64);
            mem.mark_output(out, 256);
            let mut a = Assembler::new();
            a.v_mul_u(VReg(2), VReg(0), 4u32); // 0: addresses
            a.v_mov(VReg(3), 7u32); //            1: full-width init
            a.v_cmp(CmpOp::LtU, VReg(0), 8u32);
            a.s_set_exec(ExecOp::Vcc); //         lanes 0..8 only
            a.v_mov(VReg(3), 9u32); //            3: partial overwrite
            a.s_set_exec(ExecOp::All);
            a.v_store(VReg(3), VReg(2), out); //  5: full-width read
            a.end();
            (a.finish().unwrap(), mem)
        }
        let (p, mut mem) = build();
        let prof = profile_golden(&p, &mut mem, 1);
        // Fault after the init (time 2): lane 2 is overwritten at
        // instruction 3, lane 40 is not — the store reads it.
        assert!(!prof.site_is_read(0, 2, 3, 2));
        assert!(prof.site_is_read(0, 2, 3, 40));
        // And the injector agrees on both.
        for (lane, want) in [(2u8, false), (40, true)] {
            let (p2, mut m2) = build();
            let inj = Injection { wg: 0, after_retired: 2, reg: 3, lane, bits: 1 };
            let run = run_functional(&p2, &mut m2, 1, &[inj], 10_000).unwrap();
            assert_eq!(run.injected_value_read, want, "lane {lane}");
        }
    }

    /// On a real multi-workgroup kernel with EXEC divergence and loops,
    /// randomly sampled sites must agree with the injector's observation.
    /// (Exhaustive agreement is the campaign-level integrity check; this
    /// keeps the sim-level test fast.)
    #[test]
    fn profile_agrees_with_injection_on_sampled_pathfinder_sites() {
        let build = || {
            let inst = crate_test_pathfinder();
            (inst.0, inst.1, inst.2)
        };
        let (p, mut mem, wgs) = build();
        let prof = profile_golden(&p, &mut mem, wgs);
        let mut rng = SplitMix64::new(0x9F0F11E);
        let mut reads = 0;
        for case in 0..40u32 {
            let wg = rng.below(u64::from(wgs)) as u32;
            let tau = rng.below(prof.per_wg[wg as usize].retired.max(1));
            let reg = rng.below(u64::from(prof.num_vregs)) as u8;
            let lane = rng.below(WAVE_LANES as u64) as u8;
            let want = prof.site_is_read(wg, tau, reg, lane);
            reads += u32::from(want);
            let (p2, mut m2, _) = build();
            let inj = Injection { wg, after_retired: tau, reg, lane, bits: 1 << 3 };
            let run = run_functional(&p2, &mut m2, wgs, &[inj], 1 << 22).unwrap();
            assert_eq!(
                run.injected_value_read, want,
                "case {case}: wg {wg} tau {tau} reg {reg} lane {lane}"
            );
        }
        assert!(reads > 0, "sampling never hit a live window — test is vacuous");
    }

    /// A looped, divergent, multi-wg kernel built locally so this crate's
    /// tests stay independent of the workloads crate (which depends on us).
    fn crate_test_pathfinder() -> (Program, Memory, u32) {
        let mut mem = Memory::with_tracking(1 << 18, false);
        let data = {
            let vals: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let addr = mem.alloc_zeroed(256);
            for (i, v) in vals.iter().enumerate() {
                mem.write_u32_host(addr + 4 * i as u32, *v);
            }
            addr
        };
        let out = mem.alloc_zeroed(128);
        mem.mark_output(out, 512);
        let mut a = Assembler::new();
        let (acc, addr, val, lane4) = (VReg(2), VReg(3), VReg(4), VReg(5));
        let s_i = SReg(2);
        a.v_mul_u(lane4, VReg(1), 4u32);
        a.v_mov(acc, 0u32);
        a.s_mov(s_i, 0u32);
        a.label("loop");
        a.s_mul(SReg(3), s_i, 256);
        a.v_add_u(addr, lane4, VOp::Sreg(SReg(3)));
        a.v_load(val, addr, data);
        a.v_cmp(CmpOp::LtU, val, 1u32 << 31);
        a.s_set_exec(ExecOp::Vcc);
        a.v_add_u(acc, acc, val);
        a.s_set_exec(ExecOp::All);
        a.s_add(s_i, s_i, 1u32);
        a.s_cmp(CmpOp::LtU, s_i, 3u32);
        a.branch_scc_nz("loop");
        a.v_store(acc, lane4, out);
        a.end();
        (a.finish().unwrap(), mem, 2)
    }
}
