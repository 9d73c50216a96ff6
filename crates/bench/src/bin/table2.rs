//! Table II: the ACE-interference fault-injection study — SDC ACE bits per
//! workload and the number of multi-bit fault groups whose outcome
//! contradicts their constituents' single-bit outcomes.
//!
//! Budget knobs: `MBAVF_INJECTIONS` single-bit injections per workload
//! (default 300; the paper uses 5000) and `MBAVF_GROUPS` multi-bit groups
//! per mode (default 40).
//!
//! Interference cells read `k/n [lo, hi]` — the observed count with its 95%
//! Wilson interval, so a "0.1% of groups" conclusion carries its
//! uncertainty at the chosen budget.

use mbavf_bench::injections_from_env;
use mbavf_bench::report::{pct, Table};
use mbavf_bench::table2::{campaign_config, groups_from_env, row_cells};
use mbavf_core::stats::wilson;
use mbavf_inject::try_interference_study;
use mbavf_workloads::injection_suite;

fn main() {
    let injections = injections_from_env();
    let groups = groups_from_env();
    println!("Table II: ACE interference in multi-bit faults (VGPR injection)");
    println!("({injections} single-bit injections/workload, up to {groups} groups/mode)\n");

    let cfg = campaign_config(injections);
    let mut t = Table::new(&["benchmark", "SDC ACE bits", "2x1 intf", "3x1 intf", "4x1 intf"]);
    let mut total_groups = 0usize;
    let mut total_intf = 0usize;
    let mut total_bits = 0usize;
    for w in injection_suite() {
        eprintln!("  injecting {} ...", w.name);
        let row = match try_interference_study(&w, &cfg, groups) {
            Ok(row) => row,
            Err(e) => {
                eprintln!("  skipping {}: {e}", w.name);
                continue;
            }
        };
        t.row(row_cells(&row));
        total_groups += row.groups_tested.iter().sum::<usize>();
        total_intf += row.interference.iter().sum::<usize>();
        total_bits += row.sdc_ace_bits;
    }
    println!("{}", t.render());
    let total = wilson(total_intf as u64, total_groups.max(1) as u64, 0.95);
    println!(
        "total: {total_bits} SDC ACE bits, {total_intf}/{total_groups} groups with interference \
         ({}, 95% CI [{}, {}])",
        pct(total_intf as f64 / total_groups.max(1) as f64),
        pct(total.lo),
        pct(total.hi)
    );
    println!("\nACE interference — multiple flipped bits interacting so the group outcome");
    println!("contradicts its constituents — is rare, so single-bit ACE analysis is an");
    println!("accurate basis for SDC MB-AVF estimation (Section VII-A).");
}
