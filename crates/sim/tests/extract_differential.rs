//! Timeline extraction against its per-byte reference.
//!
//! [`mbavf_sim::extract`] answers each cache line's memory demand in one
//! query ([`MemIndex::line_demand`]) and builds a lock-step register's byte
//! timelines once for all 64 lanes. The `reference` module below is the
//! per-byte formulation those replace: every byte of a residency scans the
//! accesses on its own and asks [`MemIndex::post_demand`] for its own
//! demand, and every lane of every register is pushed on its own. Both
//! must produce equal [`TimelineStore`]s.

use mbavf_core::layout::CacheGeometry;
use mbavf_core::timeline::TimelineStore;
use mbavf_sim::cache::{CacheConfig, CacheEventKind};
use mbavf_sim::extract::{l1_timelines, l2_timelines, vgpr_timelines, MemIndex};
use mbavf_sim::isa::{CmpOp, ExecOp, SReg, VReg};
use mbavf_sim::liveness::{analyze, Liveness};
use mbavf_sim::program::{Assembler, Program};
use mbavf_sim::trace::NO_PRODUCER;
use mbavf_sim::{run_timed, GpuConfig, Memory, RunResult};
use mbavf_workloads::{suite, Scale};

/// The per-byte extraction algorithm.
mod reference {
    use super::*;
    use mbavf_core::layout::VgprGeometry;
    use mbavf_core::timeline::Interval;
    use mbavf_sim::cache::Cache;
    use mbavf_sim::gpu::RegEvent;

    #[derive(Clone, Copy)]
    struct AccessRec {
        t: u64,
        offset: u8,
        len: u8,
        dyn_id: u32,
        is_store: bool,
        out_byte0: u8,
        width: u8,
    }

    struct Residency {
        addr: u32,
        fill_t: u64,
        accesses: Vec<AccessRec>,
    }

    pub fn cache_timelines(
        cache: &Cache,
        lv: &Liveness,
        midx: &MemIndex<'_>,
        total_cycles: u64,
    ) -> TimelineStore {
        let c = cache.config();
        let geom = CacheGeometry { sets: c.sets, ways: c.ways, line_bytes: c.line_bytes };
        let mut store = TimelineStore::new(geom.bytes() as usize, total_cycles.max(1));
        let mut residencies: Vec<Option<Residency>> = (0..geom.lines()).map(|_| None).collect();
        for ev in cache.events() {
            let line_idx = (ev.set * geom.ways + ev.way) as usize;
            match ev.kind {
                CacheEventKind::Fill { addr } => {
                    residencies[line_idx] =
                        Some(Residency { addr, fill_t: ev.t, accesses: Vec::new() });
                }
                CacheEventKind::Access { offset, len, dyn_id, is_store, out_byte0, width } => {
                    if let Some(r) = residencies[line_idx].as_mut() {
                        r.accesses.push(AccessRec {
                            t: ev.t,
                            offset,
                            len,
                            dyn_id,
                            is_store,
                            out_byte0,
                            width,
                        });
                    }
                }
                CacheEventKind::Evict { dirty_mask } => {
                    if let Some(r) = residencies[line_idx].take() {
                        for o in 0..geom.line_bytes {
                            let tl = store.byte_mut(geom.byte_index(ev.set, ev.way, o) as usize);
                            for iv in byte_segments(&r, ev.t, dirty_mask, o, lv, midx).iter().rev()
                            {
                                tl.push(*iv).expect("residencies are time-ordered per line");
                            }
                        }
                    }
                }
            }
        }
        store
    }

    /// Byte `o`'s segments of one residency, latest first.
    fn byte_segments(
        r: &Residency,
        evict_t: u64,
        dirty_mask: u64,
        o: u32,
        lv: &Liveness,
        midx: &MemIndex<'_>,
    ) -> Vec<Interval> {
        let mut segs = Vec::new();
        let line_dirty = dirty_mask != 0;
        let mut cur_mask = if line_dirty { midx.post_demand(lv, r.addr + o, evict_t) } else { 0 };
        let mut cur_checked = line_dirty;
        let mut seg_end = evict_t;
        for a in r.accesses.iter().rev() {
            if a.t < seg_end {
                push_seg(&mut segs, a.t, seg_end, cur_mask, cur_checked);
                seg_end = a.t;
            }
            let covers = o >= u32::from(a.offset) && o < u32::from(a.offset) + u32::from(a.len);
            if a.is_store {
                if covers {
                    cur_mask = 0;
                    cur_checked = false;
                }
            } else {
                if covers {
                    cur_mask |= if a.dyn_id != NO_PRODUCER {
                        let out_byte = (u32::from(a.out_byte0) + (o - u32::from(a.offset)))
                            % u32::from(a.width);
                        lv.byte_demand(a.dyn_id, out_byte as u8)
                    } else {
                        midx.post_demand(lv, r.addr + o, a.t)
                    };
                }
                cur_checked = true;
            }
        }
        if seg_end > r.fill_t {
            push_seg(&mut segs, r.fill_t, seg_end, cur_mask, cur_checked);
        }
        segs
    }

    fn push_seg(segs: &mut Vec<Interval>, start: u64, end: u64, ace_mask: u8, checked: bool) {
        if end > start && (ace_mask != 0 || checked) {
            segs.push(Interval { start, end, ace_mask, checked });
        }
    }

    fn scan_reg_events(
        events: &[&RegEvent],
        lane: Option<u32>,
        total_cycles: u64,
        lv: &Liveness,
    ) -> Vec<(u64, u64, u32, bool)> {
        let mut segs = Vec::new();
        let (mut cur_mask, mut cur_checked, mut seg_end) = (0u32, false, total_cycles);
        for e in events.iter().rev() {
            if lane.is_some_and(|l| e.exec >> l & 1 == 0) {
                continue;
            }
            if e.t < seg_end {
                segs.push((e.t, seg_end, cur_mask, cur_checked));
                seg_end = e.t;
            }
            match e.read_slot {
                None => (cur_mask, cur_checked) = (0, false),
                Some(slot) => {
                    cur_mask |= lv.use_mask(e.dyn_id, slot);
                    cur_checked = true;
                }
            }
        }
        if seg_end > 0 {
            segs.push((0, seg_end, cur_mask, cur_checked));
        }
        segs
    }

    pub fn vgpr_timelines(res: &RunResult, lv: &Liveness, cu: usize) -> TimelineStore {
        let regs = res.slots_per_cu as u32 * u32::from(res.num_vregs);
        let geom = VgprGeometry { threads: 64, regs };
        let mut store = TimelineStore::new(geom.bytes() as usize, res.cycles.max(1));
        let mut per_reg: Vec<Vec<&RegEvent>> = vec![Vec::new(); regs as usize];
        for e in &res.reg_events[cu] {
            per_reg[usize::from(e.slot) * usize::from(res.num_vregs) + usize::from(e.reg)].push(e);
        }
        for (reg, events) in per_reg.iter().enumerate() {
            let uniform = events.iter().all(|e| e.exec == !0);
            for thread in 0..geom.threads {
                let lane = if uniform { None } else { Some(thread) };
                for &(start, end, mask, checked) in
                    scan_reg_events(events, lane, res.cycles, lv).iter().rev()
                {
                    for byte in 0..4u32 {
                        let ace_mask = (mask >> (8 * byte)) as u8;
                        if ace_mask == 0 && !checked {
                            continue;
                        }
                        store
                            .byte_mut(geom.byte_index(thread, reg as u32, byte) as usize)
                            .push(Interval { start, end, ace_mask, checked })
                            .expect("register events are time-ordered");
                    }
                }
            }
        }
        store
    }
}

/// Every store the extraction builds from one timing run equals the
/// reference's: the L1 of each of the first two CUs, the L2, and CU 0's
/// VGPR file.
fn assert_matches_reference(what: &str, res: &RunResult, lv: &Liveness, mem: &Memory) {
    let midx = MemIndex::new(res.hier.log(), mem);
    for cu in 0..res.reg_events.len().min(2) {
        let want = reference::cache_timelines(res.hier.l1(cu), lv, &midx, res.cycles);
        assert!(l1_timelines(res, lv, mem, cu) == want, "{what}: L1 of CU {cu} differs");
    }
    let want = reference::cache_timelines(res.hier.l2(), lv, &midx, res.cycles);
    assert!(l2_timelines(res, lv, mem) == want, "{what}: L2 differs");
    let want = reference::vgpr_timelines(res, lv, 0);
    assert!(vgpr_timelines(res, lv, 0).0 == want, "{what}: VGPR of CU 0 differs");
}

/// Every line query equals its bytes' per-byte queries: for each log entry,
/// the 64-byte lines at and around its address, one cycle before, at and
/// after its own.
fn assert_line_queries_match(res: &RunResult, lv: &Liveness, mem: &Memory, line: u32) {
    let midx = MemIndex::new(res.hier.log(), mem);
    for e in res.hier.log() {
        let first = e.addr - e.addr % line;
        for t in [e.t.saturating_sub(1), e.t, e.t + 1] {
            for addr in [first, first + line, first.saturating_sub(line), e.addr] {
                let got = midx.line_demand(lv, addr, line, t);
                for o in 0..line {
                    let want = midx.post_demand(lv, addr + o, t);
                    assert_eq!(got[o as usize], want, "byte {} at cycle {t}", addr + o);
                }
            }
        }
    }
}

fn timed(p: &Program, mem: &mut Memory, wgs: u32, cfg: &GpuConfig) -> (RunResult, Liveness) {
    let res = run_timed(p, mem, wgs, cfg);
    let lv = analyze(&res.trace, mem);
    (res, lv)
}

#[test]
fn suite_workloads_match_the_per_byte_reference() {
    for w in suite() {
        let mut inst = w.build(Scale::Test);
        let (res, lv) = timed(&inst.program, &mut inst.mem, inst.workgroups, &GpuConfig::default());
        assert_matches_reference(w.name, &res, &lv, &inst.mem);
    }
}

/// `out[i] += in[i]`: the output buffer is loaded, then overwritten by a
/// store, so before the store its bytes' demand is the load's alone.
fn read_modify_write() -> (Program, Memory, u32) {
    let mut mem = Memory::new(1 << 16);
    let a_in = mem.alloc_u32(&(0..64).map(|i| i * 3 + 1).collect::<Vec<_>>());
    let a_out = mem.alloc_u32(&(0..64).collect::<Vec<_>>());
    mem.mark_output(a_out, 256);
    let mut a = Assembler::new();
    a.v_mul_u(VReg(2), VReg(1), 4u32);
    a.v_load(VReg(3), VReg(2), a_in);
    a.v_load(VReg(4), VReg(2), a_out);
    a.v_and(VReg(4), VReg(4), 0xFFu32);
    a.v_add_u(VReg(4), VReg(4), VReg(3));
    a.v_store(VReg(4), VReg(2), a_out);
    a.end();
    (a.finish().unwrap(), mem, a_out)
}

#[test]
fn a_store_ending_an_output_version_leaves_no_output_demand() {
    let (p, mut mem, a_out) = read_modify_write();
    let (res, lv) = timed(&p, &mut mem, 1, &GpuConfig::tiny());
    let midx = MemIndex::new(res.hier.log(), &mem);
    let store_t = res.hier.log().iter().find(|e| e.is_store).expect("the kernel stores").t;
    // Before the store, the old version of an output byte is demanded only
    // by the load that reads it (its low byte feeds the sum; the rest is
    // masked off): no 0xFF for surviving as output.
    let before = midx.line_demand(&lv, a_out, 64, 0);
    assert_eq!(before[0], 0xFF, "the low byte of each word is read in full");
    assert_eq!(before[1], 0, "masked-off bytes of a version that a store ends are not output");
    // After the store the new version survives as output.
    let after = midx.line_demand(&lv, a_out, 64, store_t + 1);
    assert_eq!(after, [0xFF; 64]);
    assert_line_queries_match(&res, &lv, &mem, 64);
    assert_matches_reference("read-modify-write", &res, &lv, &mem);
}

#[test]
fn lines_straddling_two_blocks_match_the_reference() {
    // 48-byte lines: most lines, and the log entries split at them, cross
    // a 64-byte block boundary of the memory index.
    let line = |sets| CacheConfig { sets, ways: 2, line_bytes: 48, hit_latency: 4 };
    let cfg = GpuConfig { l1: line(4), l2: line(16), ..GpuConfig::tiny() };
    let (p, mut mem, _) = read_modify_write();
    let (res, lv) = timed(&p, &mut mem, 1, &cfg);
    let straddles = |addr: u32, len: u32| addr / 64 != (addr + len - 1) / 64;
    assert!(res.hier.log().iter().any(|e| straddles(e.addr, e.len)));
    assert_line_queries_match(&res, &lv, &mem, 48);
    assert_matches_reference("48-byte lines", &res, &lv, &mem);
}

#[test]
fn a_log_entry_at_the_query_cycle_is_a_consumer() {
    let (p, mut mem, _) = read_modify_write();
    let (res, lv) = timed(&p, &mut mem, 1, &GpuConfig::tiny());
    let midx = MemIndex::new(res.hier.log(), &mem);
    let load = res.hier.log().iter().find(|e| !e.is_store).expect("the kernel loads");
    let line = load.addr - load.addr % 64;
    let o = (load.addr - line) as usize;
    let demand = lv.byte_demand(load.dyn_id, load.out_byte0);
    assert_ne!(demand, 0, "the first load is live");
    assert_eq!(midx.line_demand(&lv, line, 64, load.t)[o] & demand, demand);
    assert_line_queries_match(&res, &lv, &mem, 64);
}

#[test]
fn anonymous_l2_fills_match_the_reference() {
    // Read a buffer, thrash the L1 with a sweep it cannot hold, then read
    // the buffer again: the second read refills the L1 from the L2.
    let mut mem = Memory::new(1 << 20);
    let a_buf = mem.alloc_u32(&(0..64).collect::<Vec<_>>());
    let a_big = mem.alloc_zeroed(4 * 64);
    let a_out = mem.alloc_zeroed(64);
    mem.mark_output(a_out, 256);
    let mut a = Assembler::new();
    a.v_mul_u(VReg(2), VReg(1), 4u32);
    a.v_load(VReg(3), VReg(2), a_buf);
    a.s_mov(SReg(2), 0u32);
    a.label("sweep");
    a.s_mul(SReg(3), SReg(2), 256u32);
    a.v_add_u(VReg(4), VReg(2), SReg(3));
    a.v_load(VReg(5), VReg(4), a_big);
    a.s_add(SReg(2), SReg(2), 1u32);
    a.s_cmp(CmpOp::LtU, SReg(2), 4u32);
    a.branch_scc_nz("sweep");
    a.v_load(VReg(6), VReg(2), a_buf);
    a.v_add_u(VReg(6), VReg(6), VReg(3));
    a.v_store(VReg(6), VReg(2), a_out);
    a.end();
    let p = a.finish().unwrap();
    let (res, lv) = timed(&p, &mut mem, 1, &GpuConfig::tiny());
    let fills = res
        .hier
        .l2()
        .events()
        .iter()
        .filter(|ev| {
            matches!(ev.kind, CacheEventKind::Access { dyn_id, is_store: false, .. }
                if dyn_id == NO_PRODUCER)
        })
        .count();
    assert!(fills > 1, "the L2 must serve several L1 fills");
    assert_matches_reference("L1 refill", &res, &lv, &mem);
}

#[test]
fn divergent_exec_registers_match_the_reference() {
    // Odd lanes take one side of a branch, even lanes the other, each
    // writing and reading v4 under its own EXEC mask.
    let mut mem = Memory::new(1 << 16);
    let a_out = mem.alloc_zeroed(64);
    mem.mark_output(a_out, 256);
    let mut a = Assembler::new();
    a.v_mul_u(VReg(2), VReg(1), 4u32);
    a.v_and(VReg(3), VReg(1), 1u32);
    a.v_cmp(CmpOp::EqU, VReg(3), 1u32);
    a.s_set_exec(ExecOp::Vcc);
    a.v_add_u(VReg(4), VReg(1), 7u32);
    a.v_store(VReg(4), VReg(2), a_out);
    a.s_set_exec(ExecOp::NotVcc);
    a.v_mul_u(VReg(4), VReg(1), 3u32);
    a.v_and(VReg(4), VReg(4), 0xFFu32);
    a.v_store(VReg(4), VReg(2), a_out);
    a.s_set_exec(ExecOp::All);
    a.end();
    let p = a.finish().unwrap();
    let (res, lv) = timed(&p, &mut mem, 1, &GpuConfig::tiny());
    assert!(res.reg_events[0].iter().any(|e| e.exec != !0), "the kernel diverges");
    assert_matches_reference("divergent EXEC", &res, &lv, &mem);
}
