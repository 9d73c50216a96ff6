//! Table I: percent ratio of multi-bit faults to total faults by technology
//! node (reproduced from Ibe et al. \[17\]).

use mbavf_bench::report::Table;
use mbavf_core::ser::ibe_table1;

fn main() {
    println!("Table I: percent of all SRAM faults that are multi-bit, by wordline width\n");
    let mut t = Table::new(&["node (nm)", "2", "3", "4", "5", "6", "7", "8", ">8", "total MBF %"]);
    for node in ibe_table1() {
        let mut cells = vec![node.nm.to_string()];
        for w in node.pct_by_width {
            cells.push(format!("{w:.2}"));
        }
        cells.push(format!("{:.2}", node.pct_over_8));
        cells.push(format!("{:.2}", node.total_multibit_pct()));
        t.row(cells);
    }
    println!("{}", t.render());
    println!("Multi-bit faults grow from ~0.5% of all faults at 180nm to 3.9% at 22nm,");
    println!("with both the rate and the width increasing as feature size shrinks.");
}
