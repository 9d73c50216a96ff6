//! The Table II driver that `repro_all` and the `table2` binary share: the
//! study's campaign configuration, its group budget, and how an
//! interference cell reads.

use mbavf_core::stats::wilson;
use mbavf_inject::{CampaignConfig, InterferenceRow};
use mbavf_workloads::Scale;

/// Multi-bit groups tested per mode, selected by `MBAVF_GROUPS`
/// (default 40).
pub fn groups_from_env() -> usize {
    std::env::var("MBAVF_GROUPS").ok().and_then(|v| v.parse().ok()).unwrap_or(40)
}

/// The single-bit campaign every Table II study runs: `injections` trials
/// per workload at Paper scale, fixed seed.
pub fn campaign_config(injections: usize) -> CampaignConfig {
    CampaignConfig { seed: 0xACE5, injections, scale: Scale::Paper, ..CampaignConfig::default() }
}

/// Interference count as `k/n [lo, hi]`, with its 95% Wilson interval.
pub fn interference_cell(k: usize, n: usize) -> String {
    if n == 0 {
        return "0/0".to_string();
    }
    let r = wilson(k as u64, n as u64, 0.95);
    format!("{k}/{n} [{:.2}, {:.2}]", r.lo, r.hi)
}

/// One row of the Table II table: workload, SDC ACE bits, and the 2x1,
/// 3x1 and 4x1 interference cells.
pub fn row_cells(row: &InterferenceRow) -> Vec<String> {
    let mut cells = vec![row.workload.to_string(), row.sdc_ace_bits.to_string()];
    cells.extend((0..3).map(|i| interference_cell(row.interference[i], row.groups_tested[i])));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_read_count_and_interval() {
        assert_eq!(interference_cell(0, 0), "0/0");
        assert_eq!(interference_cell(0, 40), "0/40 [0.00, 0.09]");
        let row = InterferenceRow {
            workload: "dct",
            sdc_ace_bits: 7,
            groups_tested: [4, 4, 0],
            interference: [0, 1, 0],
        };
        assert_eq!(row_cells(&row), ["dct", "7", "0/4 [0.00, 0.49]", "1/4 [0.05, 0.70]", "0/0"]);
    }
}
