//! Shared instruction semantics: the one `step` used by both the timing
//! simulator ([`crate::gpu`]) and the functional interpreter
//! ([`crate::interp`]), parameterized over a [`Ports`] backend that supplies
//! memory timing and event capture.
//!
//! Data always lives in the flat [`Memory`]; caches are *timing and event*
//! models only (a standard trace-driven simplification), so both execution
//! modes are bit-identical by construction.

use crate::isa::{BranchCond, CmpOp, ExecOp, Inst, MemWidth, SAluOp, SOp, VAluOp, VOp, WAVE_LANES};
use crate::mem::Memory;
use crate::program::Program;
use crate::trace::{MemSrc, Trace, Transfer, NO_PRODUCER};

/// Per-lane values of one vector operand.
pub type Lanes = [u32; WAVE_LANES];

/// Backend hooks for memory timing and AVF event capture. The functional
/// interpreter uses [`NullPorts`]; the timing GPU routes memory through the
/// cache hierarchy and records VGPR events.
pub trait Ports {
    /// Timing/event side of a vector memory operation (the data transfer
    /// itself goes through [`Memory`]). Returns the cost in cycles.
    fn mem_access(
        &mut self,
        now: u64,
        dyn_id: u32,
        addrs: &Lanes,
        active: u64,
        width: MemWidth,
        is_store: bool,
    ) -> u64;

    /// A vector register was written by `dyn_id` in the lanes of `exec`.
    fn reg_write(&mut self, now: u64, slot: u8, reg: u8, dyn_id: u32, exec: u64);

    /// A vector register was read as source operand `src_slot` of `dyn_id`
    /// in the lanes of `exec`.
    fn reg_read(&mut self, now: u64, slot: u8, reg: u8, dyn_id: u32, src_slot: u8, exec: u64);

    /// Cycles for a vector ALU operation (16-wide SIMD over 64 lanes).
    fn valu_cost(&self) -> u64 {
        4
    }

    /// Cycles for a scalar operation.
    fn salu_cost(&self) -> u64 {
        1
    }
}

/// A backend that costs nothing and records nothing: pure functional
/// execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPorts;

impl Ports for NullPorts {
    fn mem_access(&mut self, _: u64, _: u32, _: &Lanes, _: u64, _: MemWidth, _: bool) -> u64 {
        0
    }
    fn reg_write(&mut self, _: u64, _: u8, _: u8, _: u32, _: u64) {}
    fn reg_read(&mut self, _: u64, _: u8, _: u8, _: u32, _: u8, _: u64) {}
    fn valu_cost(&self) -> u64 {
        0
    }
    fn salu_cost(&self) -> u64 {
        0
    }
}

/// Architectural state of one wavefront (64 work-items).
#[derive(Debug, Clone)]
pub struct Wavefront {
    /// Global wavefront (= workgroup) id.
    pub wf_id: u32,
    /// Resident slot on its compute unit (indexes the physical VGPR file).
    pub slot: u8,
    /// Program counter.
    pub pc: u32,
    /// Vector registers: `vregs[r][lane]`.
    pub vregs: Vec<Lanes>,
    /// Scalar registers.
    pub sregs: Vec<u32>,
    /// Scalar condition code.
    pub scc: bool,
    /// Per-lane vector condition mask.
    pub vcc: u64,
    /// Per-lane execution mask: vector instructions write registers and
    /// memory only in active lanes.
    pub exec: u64,
    /// Set when `EndPgm` retires.
    pub done: bool,
    /// Instructions retired by this wavefront.
    pub retired: u64,
    // Provenance: dynamic id of each register's last writer.
    vreg_writer: Vec<u32>,
    sreg_writer: Vec<u32>,
    vcc_writer: u32,
    scc_writer: u32,
}

impl Wavefront {
    /// Launch state for workgroup `wf_id` of `total_wgs`, resident in `slot`:
    /// `v0` = lane id, `v1` = global work-item id, `s0` = workgroup id,
    /// `s1` = workgroup count.
    pub fn launch(program: &Program, wf_id: u32, slot: u8, total_wgs: u32) -> Self {
        let nv = program.num_vregs() as usize;
        let ns = program.num_sregs() as usize;
        let mut vregs = vec![[0u32; WAVE_LANES]; nv];
        let (v0, rest) = vregs.split_at_mut(1);
        for (lane, (l0, l1)) in v0[0].iter_mut().zip(rest[0].iter_mut()).enumerate() {
            *l0 = lane as u32;
            *l1 = wf_id * WAVE_LANES as u32 + lane as u32;
        }
        let mut sregs = vec![0u32; ns.max(2)];
        sregs[0] = wf_id;
        sregs[1] = total_wgs;
        Self {
            wf_id,
            slot,
            pc: 0,
            vregs,
            sregs,
            scc: false,
            vcc: 0,
            exec: !0,
            done: false,
            retired: 0,
            vreg_writer: vec![NO_PRODUCER; nv],
            sreg_writer: vec![NO_PRODUCER; ns.max(2)],
            vcc_writer: NO_PRODUCER,
            scc_writer: NO_PRODUCER,
        }
    }

    /// Reset this wavefront in place to the state [`Wavefront::launch`]
    /// would produce for `(program, wf_id, slot, total_wgs)` — without
    /// reallocating the register files when the program's register demand
    /// is unchanged. The reusable-arena counterpart of `launch`, for trial
    /// loops that rerun the same kernel thousands of times.
    pub fn relaunch(&mut self, program: &Program, wf_id: u32, slot: u8, total_wgs: u32) {
        let nv = program.num_vregs() as usize;
        let ns = (program.num_sregs() as usize).max(2);
        self.vregs.resize(nv, [0u32; WAVE_LANES]);
        self.vregs.fill([0u32; WAVE_LANES]);
        let (v0, rest) = self.vregs.split_at_mut(1);
        for (lane, (l0, l1)) in v0[0].iter_mut().zip(rest[0].iter_mut()).enumerate() {
            *l0 = lane as u32;
            *l1 = wf_id * WAVE_LANES as u32 + lane as u32;
        }
        self.sregs.resize(ns, 0);
        self.sregs.fill(0);
        self.sregs[0] = wf_id;
        self.sregs[1] = total_wgs;
        self.vreg_writer.resize(nv, NO_PRODUCER);
        self.vreg_writer.fill(NO_PRODUCER);
        self.sreg_writer.resize(ns, NO_PRODUCER);
        self.sreg_writer.fill(NO_PRODUCER);
        self.wf_id = wf_id;
        self.slot = slot;
        self.pc = 0;
        self.scc = false;
        self.vcc = 0;
        self.exec = !0;
        self.done = false;
        self.retired = 0;
        self.vcc_writer = NO_PRODUCER;
        self.scc_writer = NO_PRODUCER;
    }

    /// Flip `bit_mask` bits of register `reg` in `lane` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `reg` or `lane` is out of range.
    pub fn flip_bits(&mut self, reg: u8, lane: usize, bit_mask: u32) {
        self.vregs[reg as usize][lane] ^= bit_mask;
    }

    /// Make this wavefront bit-identical to `src` without reallocating its
    /// register files (both must come from the same program, so the files
    /// have equal sizes). The fork step of trial-lockstep batching: a
    /// trial's private state is split off the shared golden wavefront at
    /// its fault site.
    pub fn copy_state_from(&mut self, src: &Wavefront) {
        self.wf_id = src.wf_id;
        self.slot = src.slot;
        self.pc = src.pc;
        self.vregs.clone_from(&src.vregs);
        self.sregs.clone_from(&src.sregs);
        self.scc = src.scc;
        self.vcc = src.vcc;
        self.exec = src.exec;
        self.done = src.done;
        self.retired = src.retired;
        self.vreg_writer.clone_from(&src.vreg_writer);
        self.sreg_writer.clone_from(&src.sreg_writer);
        self.vcc_writer = src.vcc_writer;
        self.scc_writer = src.scc_writer;
    }
}

/// The quiet bit of an f32 NaN.
const QUIET_NAN: u32 = 0x0040_0000;

/// Evaluate a vector ALU op on one lane.
pub fn eval_valu(op: VAluOp, a: u32, b: u32) -> u32 {
    let fa = f32::from_bits(a);
    let fb = f32::from_bits(b);
    match op {
        VAluOp::AddU => a.wrapping_add(b),
        VAluOp::SubU => a.wrapping_sub(b),
        VAluOp::MulU => a.wrapping_mul(b),
        // Rust leaves open which NaN payload `+` and `*` return when both
        // operands are NaN, and LLVM commutes them freely, so the lane loop
        // and a one-lane call could differ. Fix the choice the interpreter
        // has always made on x86-64: the second operand's, quieted.
        VAluOp::AddF | VAluOp::MulF if fb.is_nan() => b | QUIET_NAN,
        VAluOp::AddF => (fa + fb).to_bits(),
        VAluOp::SubF => (fa - fb).to_bits(),
        VAluOp::MulF => (fa * fb).to_bits(),
        VAluOp::DivF => (fa / fb).to_bits(),
        VAluOp::MinF => fa.min(fb).to_bits(),
        VAluOp::MaxF => fa.max(fb).to_bits(),
        VAluOp::And => a & b,
        VAluOp::Or => a | b,
        VAluOp::Xor => a ^ b,
        VAluOp::Shl => a << (b & 31),
        VAluOp::Shr => a >> (b & 31),
    }
}

/// [`eval_valu`] over every lane, matching on `op` once: each arm passes
/// a constant op, so the per-lane match folds away.
fn valu_lanes(op: VAluOp, a: &Lanes, b: &Lanes) -> Lanes {
    macro_rules! per_op {
        ($($op:ident),*) => {
            match op {
                $(VAluOp::$op => std::array::from_fn(|l| eval_valu(VAluOp::$op, a[l], b[l])),)*
            }
        };
    }
    per_op!(AddU, SubU, MulU, AddF, SubF, MulF, DivF, MinF, MaxF, And, Or, Xor, Shl, Shr)
}

/// [`eval_cmp`] over every lane as a lane mask, matching on `op` once.
fn cmp_lanes(op: CmpOp, a: &Lanes, b: &Lanes) -> u64 {
    macro_rules! per_op {
        ($($op:ident),*) => {
            match op {
                $(CmpOp::$op => (0..WAVE_LANES).fold(0, |mask, l| {
                    mask | u64::from(eval_cmp(CmpOp::$op, a[l], b[l])) << l
                }),)*
            }
        };
    }
    per_op!(EqU, NeU, LtU, GeU, LtF, GtF)
}

/// Evaluate a comparison on one lane (or on scalars).
pub fn eval_cmp(op: CmpOp, a: u32, b: u32) -> bool {
    match op {
        CmpOp::EqU => a == b,
        CmpOp::NeU => a != b,
        CmpOp::LtU => a < b,
        CmpOp::GeU => a >= b,
        CmpOp::LtF => f32::from_bits(a) < f32::from_bits(b),
        CmpOp::GtF => f32::from_bits(a) > f32::from_bits(b),
    }
}

/// Evaluate a scalar ALU op.
pub fn eval_salu(op: SAluOp, a: u32, b: u32) -> u32 {
    match op {
        SAluOp::Add => a.wrapping_add(b),
        SAluOp::Sub => a.wrapping_sub(b),
        SAluOp::Mul => a.wrapping_mul(b),
        SAluOp::And => a & b,
        SAluOp::Or => a | b,
        SAluOp::Shl => a << (b & 31),
        SAluOp::Shr => a >> (b & 31),
    }
}

/// The demand-transfer pair for a binary vector ALU op, given the lane-OR of
/// each operand's values (used for AND masking) and whether shifts have an
/// immediate amount.
fn valu_transfers(op: VAluOp, or_a: u32, or_b: u32, b_imm: Option<u32>) -> (Transfer, Transfer) {
    match op {
        VAluOp::AddU | VAluOp::SubU | VAluOp::MulU => (Transfer::Arith, Transfer::Arith),
        VAluOp::AddF | VAluOp::SubF | VAluOp::MulF | VAluOp::DivF | VAluOp::MinF | VAluOp::MaxF => {
            (Transfer::Full, Transfer::Full)
        }
        VAluOp::And => (Transfer::And(or_b), Transfer::And(or_a)),
        VAluOp::Or | VAluOp::Xor => (Transfer::Copy, Transfer::Copy),
        VAluOp::Shl => match b_imm {
            Some(k) => (Transfer::Shl((k & 31) as u8), Transfer::Full),
            None => (Transfer::Full, Transfer::Full),
        },
        VAluOp::Shr => match b_imm {
            Some(k) => (Transfer::Shr((k & 31) as u8), Transfer::Full),
            None => (Transfer::Full, Transfer::Full),
        },
    }
}

/// Execution context threaded through [`step`].
pub struct StepCtx<'a, P: Ports> {
    /// Simulated memory.
    pub mem: &'a mut Memory,
    /// Provenance trace (None in fast functional mode).
    pub trace: Option<&'a mut Trace>,
    /// Timing/event backend.
    pub ports: &'a mut P,
    /// Current cycle.
    pub now: u64,
}

struct OperandEnv {
    dyn_id: u32,
    next_src: u8,
}

impl OperandEnv {
    /// Read a vector operand: returns per-lane values, recording provenance
    /// and VGPR read events.
    fn read_vop<P: Ports>(
        &mut self,
        wf: &Wavefront,
        op: VOp,
        transfer: Transfer,
        ctx: &mut StepCtx<'_, P>,
    ) -> Lanes {
        self.note_vop(wf, op, transfer, ctx);
        vop_values(wf, op)
    }

    /// Record the provenance and VGPR read events of reading a vector
    /// operand, without copying its values.
    fn note_vop<P: Ports>(
        &mut self,
        wf: &Wavefront,
        op: VOp,
        transfer: Transfer,
        ctx: &mut StepCtx<'_, P>,
    ) {
        match op {
            VOp::Reg(r) => {
                if let Some(trace) = ctx.trace.as_deref_mut() {
                    let slot = trace.last_mut().push_src(wf.vreg_writer[r.0 as usize], transfer);
                    ctx.ports.reg_read(ctx.now, wf.slot, r.0, self.dyn_id, slot, wf.exec);
                    self.next_src = slot + 1;
                } else {
                    ctx.ports.reg_read(ctx.now, wf.slot, r.0, self.dyn_id, self.next_src, wf.exec);
                    self.next_src += 1;
                }
            }
            VOp::Sreg(s) => {
                if let Some(trace) = ctx.trace.as_deref_mut() {
                    trace.last_mut().push_src(wf.sreg_writer[s.0 as usize], transfer);
                }
            }
            VOp::Imm(_) => {}
        }
    }

    fn read_sop<P: Ports>(
        &mut self,
        wf: &Wavefront,
        op: SOp,
        transfer: Transfer,
        ctx: &mut StepCtx<'_, P>,
    ) -> u32 {
        match op {
            SOp::Reg(s) => {
                if let Some(trace) = ctx.trace.as_deref_mut() {
                    trace.last_mut().push_src(wf.sreg_writer[s.0 as usize], transfer);
                }
                wf.sregs[s.0 as usize]
            }
            SOp::Imm(v) => v,
        }
    }
}

pub(crate) fn vop_values(wf: &Wavefront, op: VOp) -> Lanes {
    match op {
        VOp::Reg(r) => wf.vregs[r.0 as usize],
        VOp::Sreg(s) => [wf.sregs[s.0 as usize]; WAVE_LANES],
        VOp::Imm(v) => [v; WAVE_LANES],
    }
}

fn or_lanes(l: &Lanes) -> u32 {
    l.iter().fold(0, |acc, v| acc | v)
}

/// Execute the instruction at `wf.pc`, updating state, recording provenance
/// and events, and returning the instruction's cost in cycles.
///
/// # Panics
///
/// Panics if the wavefront has already finished, or on out-of-bounds memory
/// accesses (kernel bugs).
pub fn step<P: Ports>(wf: &mut Wavefront, program: &Program, ctx: &mut StepCtx<'_, P>) -> u64 {
    assert!(!wf.done, "stepping a finished wavefront");
    let inst = program.inst(wf.pc as usize);
    let dyn_id = match ctx.trace.as_deref_mut() {
        Some(t) => t.begin(wf.pc, wf.wf_id),
        None => NO_PRODUCER,
    };
    let mut env = OperandEnv { dyn_id, next_src: 0 };
    let mut next_pc = wf.pc + 1;
    let mut cost = ctx.ports.valu_cost();

    match inst {
        Inst::VAlu { op, dst, a, b } => {
            let va = vop_values(wf, a);
            let vb = vop_values(wf, b);
            // Transfers feed only the trace's demand analysis.
            let (ta, tb) = if ctx.trace.is_some() {
                let b_imm = if let VOp::Imm(v) = b { Some(v) } else { None };
                valu_transfers(op, or_lanes(&va), or_lanes(&vb), b_imm)
            } else {
                (Transfer::Full, Transfer::Full)
            };
            env.note_vop(wf, a, ta, ctx);
            env.note_vop(wf, b, tb, ctx);
            write_vreg(wf, dst.0, valu_lanes(op, &va, &vb), dyn_id, ctx);
        }
        Inst::VMov { dst, src } => {
            let v = env.read_vop(wf, src, Transfer::Copy, ctx);
            write_vreg(wf, dst.0, v, dyn_id, ctx);
        }
        Inst::VSel { dst, a, b } => {
            let va = env.read_vop(wf, a, Transfer::Copy, ctx);
            let vb = env.read_vop(wf, b, Transfer::Copy, ctx);
            if let Some(trace) = ctx.trace.as_deref_mut() {
                trace.last_mut().push_src(wf.vcc_writer, Transfer::Full);
            }
            let mut out = [0u32; WAVE_LANES];
            for l in 0..WAVE_LANES {
                out[l] = if wf.vcc >> l & 1 == 1 { va[l] } else { vb[l] };
            }
            write_vreg(wf, dst.0, out, dyn_id, ctx);
        }
        Inst::VCmp { op, a, b } => {
            let va = env.read_vop(wf, a, Transfer::Full, ctx);
            let vb = env.read_vop(wf, b, Transfer::Full, ctx);
            wf.vcc = cmp_lanes(op, &va, &vb);
            wf.vcc_writer = dyn_id;
        }
        Inst::VReadLane { sdst, vsrc, lane } => {
            let v = env.read_vop(wf, VOp::Reg(vsrc), Transfer::Copy, ctx);
            wf.sregs[sdst.0 as usize] = v[lane as usize];
            wf.sreg_writer[sdst.0 as usize] = dyn_id;
            cost = ctx.ports.salu_cost();
        }
        Inst::VLoad { dst, addr, offset, width } => {
            let base = env.read_vop(wf, addr, Transfer::Full, ctx);
            let mut addrs = [0u32; WAVE_LANES];
            for l in 0..WAVE_LANES {
                addrs[l] = base[l].wrapping_add(offset);
            }
            // Provenance of loaded bytes (before any state changes).
            if ctx.mem.tracking() {
                if let Some(trace) = ctx.trace.as_deref_mut() {
                    let nbytes = width.bytes();
                    let exec = wf.exec;
                    let srcs = addrs
                        .iter()
                        .enumerate()
                        .filter(move |(l, _)| exec >> l & 1 == 1)
                        .flat_map(move |(_, &a)| (0..nbytes).map(move |k| (a + k, k as u8)));
                    let mem = &*ctx.mem;
                    let entries: Vec<MemSrc> = srcs
                        .map(|(a, k)| {
                            let (writer, wb) = mem.provenance(a);
                            MemSrc { writer, out_byte: k, writer_byte: wb }
                        })
                        .collect();
                    trace.attach_mem_srcs(dyn_id, entries);
                }
            }
            let mut out = wf.vregs[dst.0 as usize];
            if let VOp::Reg(_) = addr {
                for l in 0..WAVE_LANES {
                    if wf.exec >> l & 1 == 1 {
                        out[l] = ctx.mem.load(addrs[l], width.bytes());
                    }
                }
            } else if wf.exec != 0 {
                // A scalar or immediate address is the same in every lane:
                // load it once; `write_vreg` keeps the inactive lanes.
                out = [ctx.mem.load(addrs[0], width.bytes()); WAVE_LANES];
            }
            cost = ctx.ports.mem_access(ctx.now, dyn_id, &addrs, wf.exec, width, false);
            write_vreg(wf, dst.0, out, dyn_id, ctx);
        }
        Inst::VStore { src, addr, offset, width } => {
            let values = env.read_vop(wf, src, Transfer::Copy, ctx);
            let base = env.read_vop(wf, addr, Transfer::Always, ctx);
            let mut addrs = [0u32; WAVE_LANES];
            for l in 0..WAVE_LANES {
                addrs[l] = base[l].wrapping_add(offset);
            }
            if let Some(trace) = ctx.trace.as_deref_mut() {
                trace.last_mut().is_store = true;
            }
            for l in 0..WAVE_LANES {
                if wf.exec >> l & 1 == 1 {
                    ctx.mem.store(addrs[l], width.bytes(), values[l], dyn_id);
                }
            }
            cost = ctx.ports.mem_access(ctx.now, dyn_id, &addrs, wf.exec, width, true);
        }
        Inst::SAlu { op, dst, a, b } => {
            let va = env.read_sop(wf, a, Transfer::Arith, ctx);
            let vb = env.read_sop(wf, b, Transfer::Arith, ctx);
            wf.sregs[dst.0 as usize] = eval_salu(op, va, vb);
            wf.sreg_writer[dst.0 as usize] = dyn_id;
            cost = ctx.ports.salu_cost();
        }
        Inst::SMov { dst, src } => {
            let v = env.read_sop(wf, src, Transfer::Copy, ctx);
            wf.sregs[dst.0 as usize] = v;
            wf.sreg_writer[dst.0 as usize] = dyn_id;
            cost = ctx.ports.salu_cost();
        }
        Inst::SCmp { op, a, b } => {
            let va = env.read_sop(wf, a, Transfer::Full, ctx);
            let vb = env.read_sop(wf, b, Transfer::Full, ctx);
            wf.scc = eval_cmp(op, va, vb);
            wf.scc_writer = dyn_id;
            cost = ctx.ports.salu_cost();
        }
        Inst::SSetExec { op } => {
            if let Some(trace) = ctx.trace.as_deref_mut() {
                if !matches!(op, ExecOp::All) && wf.vcc_writer != NO_PRODUCER {
                    trace.last_mut().push_src(wf.vcc_writer, Transfer::Always);
                }
            }
            wf.exec = match op {
                ExecOp::All => !0,
                ExecOp::Vcc => wf.vcc,
                ExecOp::NotVcc => !wf.vcc,
                ExecOp::AndVcc => wf.exec & wf.vcc,
            };
            cost = ctx.ports.salu_cost();
        }
        Inst::Branch { cond, target } => {
            let (taken, writer) = match cond {
                BranchCond::Always => (true, NO_PRODUCER),
                BranchCond::SccZ => (!wf.scc, wf.scc_writer),
                BranchCond::SccNz => (wf.scc, wf.scc_writer),
                BranchCond::VccAny => (wf.vcc != 0, wf.vcc_writer),
                BranchCond::VccNone => (wf.vcc == 0, wf.vcc_writer),
            };
            if let Some(trace) = ctx.trace.as_deref_mut() {
                if writer != NO_PRODUCER {
                    trace.last_mut().push_src(writer, Transfer::Always);
                }
            }
            if taken {
                next_pc = target;
            }
            cost = ctx.ports.salu_cost();
        }
        Inst::EndPgm => {
            wf.done = true;
            cost = ctx.ports.salu_cost();
        }
    }
    wf.pc = next_pc;
    wf.retired += 1;
    cost
}

fn write_vreg<P: Ports>(
    wf: &mut Wavefront,
    reg: u8,
    values: Lanes,
    dyn_id: u32,
    ctx: &mut StepCtx<'_, P>,
) {
    if wf.exec == !0 {
        wf.vregs[reg as usize] = values;
    } else {
        // Divergent write: inactive lanes keep their old contents.
        let dst = &mut wf.vregs[reg as usize];
        for (l, v) in values.into_iter().enumerate() {
            if wf.exec >> l & 1 == 1 {
                dst[l] = v;
            }
        }
    }
    wf.vreg_writer[reg as usize] = dyn_id;
    ctx.ports.reg_write(ctx.now, wf.slot, reg, dyn_id, wf.exec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{SReg, VReg};
    use crate::program::Assembler;

    fn run_functional(program: &Program, mem: &mut Memory, wgs: u32) -> Trace {
        let mut trace = Trace::new();
        for wg in 0..wgs {
            let mut wf = Wavefront::launch(program, wg, 0, wgs);
            let mut ports = NullPorts;
            while !wf.done {
                let mut ctx = StepCtx { mem, trace: Some(&mut trace), ports: &mut ports, now: 0 };
                step(&mut wf, program, &mut ctx);
            }
        }
        trace
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(eval_valu(VAluOp::AddU, 3, 4), 7);
        assert_eq!(eval_valu(VAluOp::SubU, 3, 4), u32::MAX);
        assert_eq!(eval_valu(VAluOp::MulF, 2.0f32.to_bits(), 3.5f32.to_bits()), 7.0f32.to_bits());
        assert_eq!(eval_valu(VAluOp::DivF, 1.0f32.to_bits(), 2.0f32.to_bits()), 0.5f32.to_bits());
        assert_eq!(eval_valu(VAluOp::Shl, 1, 33), 2); // shift amount masked

        // Two NaN operands: `+` and `*` return the second one's, quieted.
        assert_eq!(eval_valu(VAluOp::AddF, 0x7FC0_1234, 0xFF80_0001), 0xFFC0_0001);
        assert_eq!(eval_valu(VAluOp::MulF, 0xFF80_0001, 0x7FC0_1234), 0x7FC0_1234);
        assert!(eval_cmp(CmpOp::LtF, 1.0f32.to_bits(), 2.0f32.to_bits()));
        assert!(eval_cmp(CmpOp::GeU, 5, 5));
        assert_eq!(eval_salu(SAluOp::Mul, 6, 7), 42);
    }

    #[test]
    fn launch_preloads() {
        let mut a = Assembler::new();
        a.end();
        let p = a.finish().unwrap();
        let wf = Wavefront::launch(&p, 3, 1, 8);
        assert_eq!(wf.vregs[0][5], 5);
        assert_eq!(wf.vregs[1][5], 3 * 64 + 5);
        assert_eq!(wf.sregs[0], 3);
        assert_eq!(wf.sregs[1], 8);
    }

    #[test]
    fn simple_kernel_computes_and_stores() {
        // out[i] = in[i] + 10 for 64 elements.
        let mut mem = Memory::new(1 << 16);
        let input: Vec<u32> = (0..64).collect();
        let a_in = mem.alloc_u32(&input);
        let a_out = mem.alloc_zeroed(64);
        mem.mark_output(a_out, 256);

        let mut a = Assembler::new();
        a.v_mul_u(VReg(2), VReg(1), 4u32);
        a.v_load(VReg(3), VReg(2), a_in);
        a.v_add_u(VReg(3), VReg(3), 10u32);
        a.v_store(VReg(3), VReg(2), a_out);
        a.end();
        let p = a.finish().unwrap();

        let trace = run_functional(&p, &mut mem, 1);
        assert_eq!(trace.len(), 5);
        for i in 0..64 {
            assert_eq!(mem.read_u32(a_out + i * 4), i + 10);
        }
        // The load recorded the host as producer of its bytes: no mem srcs.
        assert_eq!(trace.mem_srcs_of(1).len(), 0);
    }

    #[test]
    fn loop_with_scalar_branch() {
        // s2 = 0; do { s2 += 2 } while (s2 < 10); store s2 from lane 0.
        let mut mem = Memory::new(1 << 16);
        let out = mem.alloc_zeroed(1);
        let mut a = Assembler::new();
        a.s_mov(SReg(2), 0u32);
        a.label("loop");
        a.s_add(SReg(2), SReg(2), 2u32);
        a.s_cmp(CmpOp::LtU, SReg(2), 10u32);
        a.branch_scc_nz("loop");
        a.v_mov(VReg(2), SReg(2));
        a.v_mul_u(VReg(3), VReg(0), 4u32);
        a.v_store(VReg(2), VReg(3), out); // lane l stores to out + 4l
        a.end();
        // Allocate enough room for all 64 lanes' stores.
        let _pad = mem.alloc(64 * 4);
        let p = a.finish().unwrap();
        run_functional(&p, &mut mem, 1);
        assert_eq!(mem.read_u32(out), 10);
    }

    #[test]
    fn provenance_links_load_to_store() {
        // Kernel 1 stores, kernel 2 (same program, later wavefront) loads.
        let mut mem = Memory::new(1 << 16);
        let buf = mem.alloc_zeroed(64);
        let out = mem.alloc_zeroed(64);
        mem.mark_output(out, 256);
        let mut a = Assembler::new();
        a.v_mul_u(VReg(2), VReg(0), 4u32);
        a.v_store(VReg(1), VReg(2), buf); // store global id
        a.v_load(VReg(3), VReg(2), buf); // load it back
        a.v_store(VReg(3), VReg(2), out);
        a.end();
        let p = a.finish().unwrap();
        let trace = run_functional(&p, &mut mem, 1);
        // dyn 1 = first store, dyn 2 = load: load's mem srcs point at dyn 1.
        let srcs = trace.mem_srcs_of(2);
        assert!(!srcs.is_empty());
        assert!(srcs.iter().all(|s| s.writer == 1));
        // All lanes load the same dword they stored, byte k from byte k.
        assert!(srcs.iter().all(|s| s.out_byte == s.writer_byte));
    }

    #[test]
    fn vcmp_vsel_lanes() {
        // v2 = (lane < 3) ? 100 : 200
        let mut mem = Memory::new(1 << 16);
        let out = mem.alloc_zeroed(64);
        let mut a = Assembler::new();
        a.v_cmp(CmpOp::LtU, VReg(0), 3u32);
        a.v_sel(VReg(2), 100u32, 200u32);
        a.v_mul_u(VReg(3), VReg(0), 4u32);
        a.v_store(VReg(2), VReg(3), out);
        a.end();
        let p = a.finish().unwrap();
        run_functional(&p, &mut mem, 1);
        assert_eq!(mem.read_u32(out), 100);
        assert_eq!(mem.read_u32(out + 2 * 4), 100);
        assert_eq!(mem.read_u32(out + 3 * 4), 200);
    }

    #[test]
    fn readlane_steers_branch() {
        // If v1[0] == 0 store 7 else store 9 (wavefront 0 takes the first arm).
        let mut mem = Memory::new(1 << 16);
        let out = mem.alloc_zeroed(64);
        let mut a = Assembler::new();
        a.v_read_lane(SReg(2), VReg(1), 0);
        a.s_cmp(CmpOp::EqU, SReg(2), 0u32);
        a.branch_scc_nz("zero");
        a.v_mov(VReg(2), 9u32);
        a.jump("store");
        a.label("zero");
        a.v_mov(VReg(2), 7u32);
        a.label("store");
        a.v_mul_u(VReg(3), VReg(0), 4u32);
        a.v_store(VReg(2), VReg(3), out);
        a.end();
        let p = a.finish().unwrap();
        run_functional(&p, &mut mem, 1);
        assert_eq!(mem.read_u32(out), 7);
    }

    #[test]
    fn relaunch_matches_fresh_launch_bit_for_bit() {
        // Dirty every piece of wavefront state by running a real kernel,
        // then relaunch and compare against a fresh launch field by field —
        // a stale writer id or condition code would silently skew
        // read-before-overwrite detection in reused arenas.
        let mut mem = Memory::new(1 << 16);
        let out = mem.alloc_zeroed(64);
        let mut a = Assembler::new();
        a.s_mov(SReg(2), 5u32);
        a.v_cmp(CmpOp::LtU, VReg(0), 3u32);
        a.s_set_exec(crate::isa::ExecOp::Vcc);
        a.v_mul_u(VReg(2), VReg(1), 4u32);
        a.v_store(VReg(2), VReg(2), out);
        a.s_cmp(CmpOp::LtU, SReg(2), 10u32);
        a.end();
        let p = a.finish().unwrap();
        let mut wf = Wavefront::launch(&p, 2, 1, 4);
        let mut ports = NullPorts;
        while !wf.done {
            let mut ctx = StepCtx { mem: &mut mem, trace: None, ports: &mut ports, now: 0 };
            step(&mut wf, &p, &mut ctx);
        }
        wf.relaunch(&p, 3, 0, 8);
        let fresh = Wavefront::launch(&p, 3, 0, 8);
        assert_eq!(wf.wf_id, fresh.wf_id);
        assert_eq!(wf.slot, fresh.slot);
        assert_eq!(wf.pc, fresh.pc);
        assert_eq!(wf.vregs, fresh.vregs);
        assert_eq!(wf.sregs, fresh.sregs);
        assert_eq!(wf.scc, fresh.scc);
        assert_eq!(wf.vcc, fresh.vcc);
        assert_eq!(wf.exec, fresh.exec);
        assert_eq!(wf.done, fresh.done);
        assert_eq!(wf.retired, fresh.retired);
        assert_eq!(wf.vreg_writer, fresh.vreg_writer);
        assert_eq!(wf.sreg_writer, fresh.sreg_writer);
        assert_eq!(wf.vcc_writer, fresh.vcc_writer);
        assert_eq!(wf.scc_writer, fresh.scc_writer);
    }

    #[test]
    fn copy_state_from_is_bit_identical_mid_kernel() {
        // Stop a wavefront mid-kernel with divergence, provenance, and
        // condition codes all live, copy it into a wavefront that ran a
        // different trajectory, and compare every field: a missed field
        // would desynchronize a forked batch trial from its sequential
        // replay.
        let mut mem = Memory::new(1 << 16);
        let out = mem.alloc_zeroed(64);
        let mut a = Assembler::new();
        a.s_mov(SReg(2), 5u32);
        a.v_cmp(CmpOp::LtU, VReg(0), 3u32);
        a.s_set_exec(crate::isa::ExecOp::Vcc);
        a.v_mul_u(VReg(2), VReg(1), 4u32);
        a.v_store(VReg(2), VReg(2), out);
        a.s_cmp(CmpOp::LtU, SReg(2), 10u32);
        a.end();
        let p = a.finish().unwrap();
        let mut src = Wavefront::launch(&p, 2, 1, 4);
        let mut dst = Wavefront::launch(&p, 0, 0, 4);
        let mut ports = NullPorts;
        for _ in 0..4 {
            let mut ctx = StepCtx { mem: &mut mem, trace: None, ports: &mut ports, now: 0 };
            step(&mut src, &p, &mut ctx);
        }
        let mut ctx = StepCtx { mem: &mut mem, trace: None, ports: &mut ports, now: 0 };
        step(&mut dst, &p, &mut ctx); // different position, stale state
        dst.copy_state_from(&src);
        assert_eq!(dst.wf_id, src.wf_id);
        assert_eq!(dst.slot, src.slot);
        assert_eq!(dst.pc, src.pc);
        assert_eq!(dst.vregs, src.vregs);
        assert_eq!(dst.sregs, src.sregs);
        assert_eq!(dst.scc, src.scc);
        assert_eq!(dst.vcc, src.vcc);
        assert_eq!(dst.exec, src.exec);
        assert_eq!(dst.done, src.done);
        assert_eq!(dst.retired, src.retired);
        assert_eq!(dst.vreg_writer, src.vreg_writer);
        assert_eq!(dst.sreg_writer, src.sreg_writer);
        assert_eq!(dst.vcc_writer, src.vcc_writer);
        assert_eq!(dst.scc_writer, src.scc_writer);
    }

    /// Edge operands for the lane-op equivalence test: shift amounts at and
    /// past 32, ±0.0, infinities, subnormals, and NaNs with payloads.
    const EDGES: [u32; 20] = [
        0,
        1,
        31,
        32,
        33,
        64,
        0x7FFF_FFFF,
        0x8000_0000, // -0.0
        u32::MAX,    // a negative NaN with a full payload
        0x3F80_0000, // 1.0
        0xBFC0_0000, // -1.5
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0000, // quiet NaN
        0x7FC0_1234, // quiet NaN with a payload
        0x7F80_0001, // signalling NaN
        0xFFC0_0000, // negative quiet NaN
        0x0000_0001, // smallest subnormal
        0x0080_0000, // smallest normal
        0x4B80_0000, // 2^24
    ];

    #[test]
    fn lane_ops_match_per_lane_eval_on_edge_values() {
        use VAluOp::*;
        let pairs: Vec<(u32, u32)> =
            EDGES.iter().flat_map(|&a| EDGES.iter().map(move |&b| (a, b))).collect();
        for chunk in pairs.chunks(WAVE_LANES) {
            let mut a = [0u32; WAVE_LANES];
            let mut b = [0u32; WAVE_LANES];
            for (l, &(x, y)) in chunk.iter().enumerate() {
                (a[l], b[l]) = (x, y);
            }
            for op in [AddU, SubU, MulU, AddF, SubF, MulF, DivF, MinF, MaxF, And, Or, Xor, Shl, Shr]
            {
                let out = valu_lanes(op, &a, &b);
                for l in 0..WAVE_LANES {
                    assert_eq!(
                        out[l],
                        eval_valu(op, a[l], b[l]),
                        "{op:?}({:#x}, {:#x})",
                        a[l],
                        b[l]
                    );
                }
            }
            for op in [CmpOp::EqU, CmpOp::NeU, CmpOp::LtU, CmpOp::GeU, CmpOp::LtF, CmpOp::GtF] {
                let mask = cmp_lanes(op, &a, &b);
                for l in 0..WAVE_LANES {
                    let want = eval_cmp(op, a[l], b[l]);
                    assert_eq!(mask >> l & 1 == 1, want, "{op:?}({:#x}, {:#x})", a[l], b[l]);
                }
            }
        }
    }

    /// A load from a scalar or immediate address — loaded once and
    /// broadcast — leaves every lane as a per-lane load of the same address
    /// does: under a partial and an empty exec mask, traced or not, and
    /// with a wild address it panics with the same message.
    #[test]
    fn scalar_address_load_matches_per_lane_load() {
        let mut template = Memory::new(1 << 12);
        let buf = template.alloc_u32(&[0xDEAD_BEEF, 0x0BAD_F00D]);
        let wild = 0x8000_0000u32;
        // `lanes` selects the exec mask (0 = none); `via` the address form.
        let run = |addr: u32, lanes: u32, via: u8, traced: bool| {
            let mut a = Assembler::new();
            a.v_mov(VReg(3), 0x5555_5555u32);
            a.v_cmp(CmpOp::LtU, VReg(0), lanes);
            a.s_set_exec(crate::isa::ExecOp::Vcc);
            a.s_mov(SReg(2), addr);
            a.v_mov(VReg(4), SReg(2));
            match via {
                0 => a.v_load(VReg(3), SReg(2), 4),
                1 => a.v_load(VReg(3), addr.wrapping_add(4), 0),
                _ => a.v_load(VReg(3), VReg(4), 4),
            };
            a.v_load_byte(VReg(5), SReg(2), 1);
            a.end();
            let p = a.finish().unwrap();
            let mut mem = template.clone();
            let mut trace = Trace::new();
            crate::isolate::catch_crash(|| {
                let mut wf = Wavefront::launch(&p, 0, 0, 1);
                while !wf.done {
                    let trace = traced.then_some(&mut trace);
                    let mut ctx = StepCtx { mem: &mut mem, trace, ports: &mut NullPorts, now: 0 };
                    step(&mut wf, &p, &mut ctx);
                }
                (wf.vregs[3], wf.vregs[5])
            })
        };
        for addr in [buf, wild] {
            for lanes in [0, 1, 37, 64] {
                for traced in [false, true] {
                    let want = run(addr, lanes, 2, traced);
                    assert_eq!(want.is_err(), addr == wild && lanes > 0, "{want:?}");
                    for via in [0, 1] {
                        let got = run(addr, lanes, via, traced);
                        assert_eq!(got, want, "addr {addr:#x} lanes {lanes} via {via}");
                    }
                }
            }
        }
        let (v3, v5) = run(buf, 37, 0, false).unwrap();
        assert_eq!((v3[36], v3[37]), (0x0BAD_F00D, 0x5555_5555));
        assert_eq!((v5[0], v5[63]), (0xBE, 0));
    }

    #[test]
    fn flip_bits_changes_lane() {
        let mut a = Assembler::new();
        a.end();
        let p = a.finish().unwrap();
        let mut wf = Wavefront::launch(&p, 0, 0, 1);
        wf.flip_bits(0, 5, 0b100);
        assert_eq!(wf.vregs[0][5], 5 ^ 0b100);
    }
}
