//! Run every experiment: simulates the suite once and regenerates every
//! table and figure from the shared data (Table II runs its own injection
//! campaigns; Table I / Figure 2 / Table III are model-only).
//!
//! Degrades gracefully: a workload that crashes the simulator or fails its
//! reference check is reported and skipped, and every exhibit is produced
//! from the surviving workloads (exhibits tied to a failed workload, like
//! the MiniFE time-series figures, are skipped with a note). Set
//! `MBAVF_DRILL=fail@name[,fail@name...]` to drill the degraded path.
//!
//! Budget knobs: `MBAVF_SCALE=test` for small problem sizes,
//! `MBAVF_INJECTIONS` / `MBAVF_GROUPS` for the Table II and validation-gate
//! budgets. Set `MBAVF_DRILL=nondet` to append the deliberately
//! nondeterministic control workload and watch the golden-run integrity
//! check report it as skipped.

use mbavf_bench::experiments::{fig10, fig11, fig4, fig5, fig6, fig8, fig9};
use mbavf_bench::report::{f3, pct, ratio, sparkline, Table};
use mbavf_bench::validate::{validate_suite, ValidateConfig};
use mbavf_bench::{injections_from_env, scale_from_env, table2};
use mbavf_core::avf::mean;
use mbavf_core::mttf::figure2;
use mbavf_core::ser::{ibe_table1, paper_table3};
use mbavf_core::stats::wilson;
use mbavf_inject::try_interference_study;
use mbavf_workloads::{by_name, injection_suite};
use std::collections::BTreeMap;

/// Accumulated per-design series: (sdc_mb, sdc_approx, due_mb).
type DesignAcc = (Vec<f64>, Vec<f64>, Vec<f64>);

fn section(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

fn main() {
    if let Err(e) = mbavf_inject::drill::plan() {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let scale = scale_from_env();
    eprintln!("simulating the workload suite ({:?} scale) ...", scale);
    let outcome = mbavf_bench::try_run_suite_at(scale);
    let data: &[mbavf_bench::WorkloadData] = &outcome.data;

    if !outcome.failures.is_empty() {
        section("Skipped workloads");
        for e in &outcome.failures {
            println!("  {e}");
        }
        println!(
            "  continuing with the {} surviving workload(s); affected exhibits are noted below",
            data.len()
        );
    }

    section("Workload characteristics");
    let mut t = Table::new(&["workload", "cycles", "instructions", "live fraction"]);
    for d in data {
        t.row(vec![
            d.name.into(),
            d.cycles.to_string(),
            d.retired.to_string(),
            pct(d.live_fraction),
        ]);
    }
    println!("{}", t.render());

    section("Table I: multi-bit fault ratios by node (Ibe et al.)");
    let mut t = Table::new(&["node (nm)", "total multi-bit %"]);
    for node in ibe_table1() {
        t.row(vec![node.nm.to_string(), format!("{:.2}", node.total_multibit_pct())]);
    }
    println!("{}", t.render());

    section("Figure 2: MTTF, temporal vs spatial MBFs (32MB cache)");
    let rows = figure2(&[1e-8, 1e-6, 1e-4]);
    for r in rows {
        println!(
            "  {:>7.0e} FIT/bit: sMBF(0.1%) {:.2e}h  sMBF(5%) {:.2e}h  tMBF(inf) {:.2e}h  tMBF(100y) {:.2e}h",
            r.fit_per_bit, r.smbf_0p1_hours, r.smbf_5_hours, r.tmbf_infinite_hours, r.tmbf_100y_hours
        );
    }

    section("Figure 4: 2x1 DUE MB-AVF / SB-AVF by interleaving (L1, parity)");
    let mut t = Table::new(&["workload", "SB DUE", "logical x2", "way x2", "index x2"]);
    let mut cols: [Vec<f64>; 3] = Default::default();
    for row in mbavf_bench::par_map(data.iter().collect(), fig4) {
        t.row(vec![
            row.workload.into(),
            f3(row.sb_due),
            ratio(row.normalized[0]),
            ratio(row.normalized[1]),
            ratio(row.normalized[2]),
        ]);
        for (col, v) in cols.iter_mut().zip(row.normalized) {
            col.push(v);
        }
    }
    t.row(vec![
        "MEAN".into(),
        String::new(),
        ratio(mean(cols[0].iter().copied())),
        ratio(mean(cols[1].iter().copied())),
        ratio(mean(cols[2].iter().copied())),
    ]);
    println!("{}", t.render());

    section("Figure 5: MiniFE time-varying AVFs (L1, parity)");
    let minife = outcome.get("minife");
    match minife {
        Some(minife) => {
            let s = fig5(minife, 40);
            println!("  SB       {}", sparkline(&s.sb));
            println!("  2x1 log  {}", sparkline(&s.mb[0]));
            println!("  2x1 way  {}", sparkline(&s.mb[1]));
            println!("  2x1 idx  {}", sparkline(&s.mb[2]));
        }
        None => println!("  skipped: minife did not survive the pipeline"),
    }

    section("Figure 6: DUE MB-AVF / SB-AVF by fault mode (x4 way-physical)");
    let fig6_rows = mbavf_bench::par_map(data.iter().collect(), fig6);
    for (panel, pick) in [("parity", 0usize), ("SEC-DED", 1)] {
        let mut sums = vec![Vec::new(); 7];
        for row in &fig6_rows {
            let vals = if pick == 0 { &row.parity } else { &row.secded };
            for (i, v) in vals.iter().enumerate() {
                sums[i].push(*v);
            }
        }
        let cells: Vec<String> = sums.iter().map(|s| ratio(mean(s.iter().copied()))).collect();
        println!("  {panel:8} mean over suite, 2x1..8x1: {}", cells.join("  "));
    }

    section("Table II: ACE interference (VGPR fault injection)");
    let injections = injections_from_env();
    let groups = table2::groups_from_env();
    let cfg = table2::campaign_config(injections);
    let mut t = Table::new(&["benchmark", "SDC ACE bits", "2x1 intf", "3x1 intf", "4x1 intf"]);
    let (mut tg, mut ti, mut tb) = (0usize, 0usize, 0usize);
    // Skip workloads that already failed the pipeline; their golden runs
    // would fail here for the same reason.
    let injectable: Vec<_> = injection_suite()
        .into_iter()
        .filter(|w| outcome.failures.iter().all(|e| e.workload() != w.name))
        .collect();
    let rows = mbavf_bench::par_map(injectable, |w| {
        eprintln!("  injecting {} ...", w.name);
        try_interference_study(&w, &cfg, groups)
    });
    for row in rows {
        let row = match row {
            Ok(row) => row,
            Err(e) => {
                println!("  skipped: {e}");
                continue;
            }
        };
        t.row(table2::row_cells(&row));
        tg += row.groups_tested.iter().sum::<usize>();
        ti += row.interference.iter().sum::<usize>();
        tb += row.sdc_ace_bits;
    }
    println!("{}", t.render());
    let total = wilson(ti as u64, tg.max(1) as u64, 0.95);
    println!(
        "  total: {tb} SDC ACE bits, {ti}/{tg} groups with interference ({}, 95% CI [{}, {}])",
        pct(ti as f64 / tg.max(1) as f64),
        pct(total.lo),
        pct(total.hi)
    );

    section("Validation gate: ACE model vs fault injection");
    // A smoke-scale differential check over a representative slice of the
    // injection suite; the `validate` binary runs the full gate. The slice
    // excludes `transpose`, whose stall-dominated cycle profile is a known
    // model underestimate (see EXPERIMENTS.md).
    let gate_workloads: Vec<_> = ["dct", "fast_walsh", "prefix_sum"]
        .iter()
        .filter(|n| outcome.failures.iter().all(|e| e.workload() != **n))
        .filter_map(|n| by_name(n))
        .collect();
    if gate_workloads.is_empty() {
        println!("  skipped: no gate workloads survived the pipeline");
    } else {
        let vcfg =
            ValidateConfig { scale, injections, modes: vec![1, 2], ..ValidateConfig::default() };
        let report = validate_suite(&gate_workloads, &vcfg);
        println!("{}", report.render());
        if report.confirmed_divergence() {
            println!("  WARNING: confirmed model/injection divergence — run `validate` for detail");
        }
    }

    section("Table III: case-study fault rates");
    for r in paper_table3() {
        println!("  {}x1: {:.2}", r.mode_bits, r.rate_fit);
    }

    section("Figure 8: MiniFE 3x1 SDC vs DUE over time (parity x2)");
    match minife {
        Some(minife) => {
            let f8 = fig8(minife, 40);
            for (name, series) in [("index", &f8.index), ("way", &f8.way)] {
                let sdc = mean(series.iter().map(|p| p.0));
                let due = mean(series.iter().map(|p| p.1));
                println!("  x2 {name:6}: mean SDC {}  mean DUE {}", pct(sdc), pct(due));
            }
        }
        None => println!("  skipped: minife did not survive the pipeline"),
    }

    section("Figure 9: SDC MB-AVF / SB-AVF, 5x1-8x1 (SEC-DED x2 way)");
    let mut sums = vec![Vec::new(); 4];
    for row in mbavf_bench::par_map(data.iter().collect(), fig9) {
        for (i, v) in row.sdc.iter().enumerate() {
            sums[i].push(*v);
        }
    }
    let cells: Vec<String> = sums.iter().map(|s| ratio(mean(s.iter().copied()))).collect();
    println!("  mean over suite, 5x1..8x1: {}", cells.join("  "));

    section("Figure 10: true/false DUE by mode (parity x4 way)");
    let mut t = Table::new(&["workload", "1x1 false share", "4x1 false share"]);
    for row in mbavf_bench::par_map(data.iter().collect(), fig10) {
        t.row(vec![row.workload.into(), pct(row.false_share(0)), pct(row.false_share(3))]);
    }
    println!("{}", t.render());

    section("Figure 11: VGPR case study (averaged over workloads)");
    let mut acc: BTreeMap<String, DesignAcc> = BTreeMap::new();
    for rows in mbavf_bench::par_map(data.iter().collect(), fig11) {
        for row in rows {
            let e = acc.entry(row.label.clone()).or_default();
            e.0.push(row.sdc_mb);
            e.1.push(row.sdc_approx);
            e.2.push(row.due_mb);
        }
    }
    let mut t = Table::new(&["design", "SDC (MB-AVF)", "SDC (SB approx)", "DUE (MB-AVF)"]);
    let mut means: BTreeMap<String, f64> = BTreeMap::new();
    for (label, (sdc, approx, due)) in &acc {
        let m = mean(sdc.iter().copied());
        means.insert(label.clone(), m);
        t.row(vec![
            label.clone(),
            format!("{m:.4}"),
            format!("{:.4}", mean(approx.iter().copied())),
            format!("{:.4}", mean(due.iter().copied())),
        ]);
    }
    println!("{}", t.render());
    let get = |l: &str| means.get(l).copied().unwrap_or(f64::NAN);
    println!(
        "  parity tx4 vs SEC-DED rx2: {} lower SDC (paper: 86%)",
        pct(1.0 - get("parity tx4") / get("SEC-DED rx2"))
    );
    println!(
        "  parity tx4 vs SEC-DED tx2: {} lower SDC (paper: 71%)",
        pct(1.0 - get("parity tx4") / get("SEC-DED tx2"))
    );
}
