//! # mbavf-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! `src/bin/*.rs` binary reproduces one exhibit; `repro_all` runs the lot.
//! The heavy lifting (timed workload runs, liveness, timeline extraction,
//! MB-AVF sweeps) lives here so binaries stay thin and share cached
//! [`WorkloadData`].
//!
//! | Binary | Exhibit |
//! |---|---|
//! | `table1` | Ibe et al. multi-bit fault ratios by technology node |
//! | `fig2` | MTTF: temporal vs. spatial MBFs, 32MB cache |
//! | `fig4` | 2x1 DUE MB-AVF vs interleaving style, L1 + parity |
//! | `fig5` | MiniFE time-varying SB/MB-AVF and interleavings |
//! | `fig6` | DUE MB-AVF vs fault mode, parity and SEC-DED, x4 way |
//! | `table2` | ACE-interference fault-injection study |
//! | `table3` | per-mode fault rates used for the case study |
//! | `fig8` | 3x1 SDC vs DUE MB-AVF, MiniFE, x2 index vs way |
//! | `fig9` | 5x1–8x1 SDC MB-AVF, SEC-DED + x2 way |
//! | `fig10` | true vs false DUE by fault mode |
//! | `fig11` | VGPR case study: SDC of parity/ECC × rx/tx interleaving |
//! | `validate` | ACE-vs-injection differential validation gate |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod microbench;
pub mod pipeline;
pub mod report;
pub mod table2;
pub mod validate;

pub use mbavf_core::error::PipelineError;
pub use pipeline::{
    run_suite, run_suite_at, run_workload, try_run_suite_at, try_run_suite_with, try_run_workload,
    SuiteOutcome, WorkloadData,
};
pub use validate::{
    validate_suite, validate_workload, ValidateConfig, ValidationReport, Verdict, WorkloadVerdict,
};

use mbavf_workloads::Scale;

/// Problem scale selected by the `MBAVF_SCALE` environment variable
/// (`test` for the small sizes, anything else — or unset — for paper scale).
pub fn scale_from_env() -> Scale {
    match std::env::var("MBAVF_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Paper,
    }
}

/// Single-bit injection budget selected by `MBAVF_INJECTIONS`
/// (default 300; the paper uses 5000).
pub fn injections_from_env() -> usize {
    std::env::var("MBAVF_INJECTIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

/// Map `f` over `items` with one thread per item, preserving order.
/// Experiments are per-workload independent and deterministic, so this is a
/// pure wall-clock optimization.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.into_iter().map(|item| scope.spawn(move || f(item))).collect();
        handles
            .into_iter()
            // Re-raise a worker panic as itself rather than masking it
            // behind a generic expect message.
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}
