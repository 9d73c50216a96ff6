//! The drill plan: every fault the harness deliberately stages against
//! itself, named by one environment variable, `MBAVF_DRILL` — comma-separated
//! `<kind>@<arg>` entries (`die@T`, `sever@T`, `stall@T`, `lie@S:R`,
//! `term@N`, `term2@N`, `nondet`, `fail@W`; EXPERIMENTS.md tabulates them),
//! parsed once per process. Daemon trial drills fire on every lease
//! attempt, or only the first with a `/once` suffix, at exact trials so
//! tests can pin them. The parser is strict: a malformed entry is an error
//! naming it, so a typo cannot make a drill test pass vacuously.

use crate::chaos::ChaosSpec;
use std::sync::OnceLock;

/// What a trial-indexed daemon drill does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialAction {
    /// SIGKILL the daemon before running the trial.
    Die,
    /// After sending the trial's record, replay the lease's records and
    /// tear the connection mid-frame.
    Sever,
    /// Freeze the executor before the trial, connection still open.
    Stall,
}

/// A parsed `MBAVF_DRILL` value.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillPlan {
    /// Daemon drills: action, trial, and whether it is `/once`.
    pub trials: Vec<(TrialAction, u64, bool)>,
    /// The Byzantine verdict-flip schedule (`lie@S:R`).
    pub lie: Option<ChaosSpec>,
    /// Self-delivered SIGTERM: fresh-completion count, and whether doubled.
    pub term: Option<(usize, bool)>,
    /// Append the nondeterministic control workload to the suite.
    pub nondet: bool,
    /// Suite workloads forced to fail.
    pub fail: Vec<String>,
}

impl DrillPlan {
    /// The empty plan: no drill armed.
    pub const NONE: DrillPlan =
        DrillPlan { trials: Vec::new(), lie: None, term: None, nondet: false, fail: Vec::new() };

    /// Parse a plan; the empty string is [`DrillPlan::NONE`].
    ///
    /// # Errors
    ///
    /// A message naming the first malformed entry: empty (a stray comma),
    /// an unknown kind, a bad argument, a `fail` naming no suite workload,
    /// `/once` on anything but a trial drill, or a second `lie`, `term` or
    /// `nondet`.
    pub fn parse(spec: &str) -> Result<DrillPlan, String> {
        let mut plan = DrillPlan::NONE;
        if spec.is_empty() {
            return Ok(plan);
        }
        for entry in spec.split(',') {
            let bad = |why: &str| format!("bad MBAVF_DRILL entry {entry:?}: {why}");
            let (kind, arg) = entry.split_once('@').unwrap_or((entry, ""));
            let (arg, once) = arg.strip_suffix("/once").map_or((arg, false), |a| (a, true));
            let action = match kind {
                "die" => Some(TrialAction::Die),
                "sever" => Some(TrialAction::Sever),
                "stall" => Some(TrialAction::Stall),
                _ => None,
            };
            if once && action.is_none() {
                return Err(bad("only die, sever and stall take /once"));
            }
            if let Some(action) = action {
                let trial = arg.parse().map_err(|_| bad(&format!("want {kind}@<trial index>")))?;
                plan.trials.push((action, trial, once));
                continue;
            }
            match kind {
                "term" | "term2" if plan.term.is_none() => {
                    let at = arg.parse().map_err(|_| bad(&format!("want {kind}@<trial count>")))?;
                    plan.term = Some((at, kind == "term2"));
                }
                "lie" if plan.lie.is_none() => {
                    let spec = ChaosSpec::parse(arg)
                        .map_err(|_| bad("want lie@<seed>:<rate>, the rate in [0, 1]"))?;
                    plan.lie = Some(spec);
                }
                "nondet" if entry == "nondet" && !plan.nondet => plan.nondet = true,
                "fail" if mbavf_workloads::by_name(arg).is_some() => plan.fail.push(arg.into()),
                "fail" => return Err(bad("no suite workload by that name")),
                _ => return Err(bad("unknown, repeated or malformed drill")),
            }
        }
        Ok(plan)
    }

    /// Whether an `action` drill fires at `trial` on lease attempt
    /// `attempt` (0 = first).
    pub fn fires(&self, action: TrialAction, trial: u64, attempt: u32) -> bool {
        self.trials.iter().any(|&(a, t, once)| a == action && t == trial && (attempt == 0 || !once))
    }
}

/// This process's drill plan, parsed from `MBAVF_DRILL` on first use.
///
/// # Errors
///
/// The parse error naming the malformed entry, or a non-UTF-8 value.
pub fn plan() -> Result<&'static DrillPlan, &'static str> {
    static PLAN: OnceLock<Result<DrillPlan, String>> = OnceLock::new();
    PLAN.get_or_init(|| match std::env::var("MBAVF_DRILL") {
        Ok(spec) => DrillPlan::parse(&spec),
        Err(std::env::VarError::NotPresent) => Ok(DrillPlan::NONE),
        Err(std::env::VarError::NotUnicode(_)) => Err("MBAVF_DRILL is not UTF-8".into()),
    })
    .as_ref()
    .map_err(String::as_str)
}

/// The plan the engine's drill hooks consult: [`plan`], or no drill at all
/// when it is invalid (the entry point has already refused to run).
pub(crate) fn armed() -> &'static DrillPlan {
    static NONE: DrillPlan = DrillPlan::NONE;
    plan().unwrap_or(&NONE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use TrialAction::{Die, Sever, Stall};

    #[test]
    fn every_kind_parses() {
        let plan = DrillPlan::parse(
            "die@5,die@6/once,sever@2/once,stall@7,lie@9:1,term2@6,nondet,fail@minife,fail@dct",
        )
        .unwrap();
        assert_eq!(
            plan,
            DrillPlan {
                trials: vec![(Die, 5, false), (Die, 6, true), (Sever, 2, true), (Stall, 7, false)],
                lie: Some(ChaosSpec { seed: 9, rate: 1.0 }),
                term: Some((6, true)),
                nondet: true,
                fail: vec!["minife".into(), "dct".into()],
            }
        );
        assert_eq!(DrillPlan::parse("term@3").unwrap().term, Some((3, false)));
        assert_eq!(DrillPlan::parse("").unwrap(), DrillPlan::NONE);
    }

    #[test]
    fn once_limits_a_drill_to_the_first_attempt() {
        let plan = DrillPlan::parse("die@5,die@6/once,sever@2/once").unwrap();
        assert!(plan.fires(Die, 5, 0) && plan.fires(Die, 5, 3));
        assert!(plan.fires(Die, 6, 0) && !plan.fires(Die, 6, 1));
        assert!(!plan.fires(Die, 2, 0), "actions do not cross");
        assert!(plan.fires(Sever, 2, 0) && !plan.fires(Sever, 2, 1));
    }

    #[test]
    fn malformed_entries_are_rejected_by_name() {
        for (spec, entry) in [
            ("die@", "die@"),
            ("die@x", "die@x"),
            ("die", "die"),
            ("die@-1", "die@-1"),
            ("die@5/twice", "die@5/twice"),
            ("term@7:3", "term@7:3"),
            ("term@7/once", "term@7/once"),
            ("lie@9", "lie@9"),
            ("lie@9:2", "lie@9:2"),
            ("lie@1:0.5,lie@2:0.5", "lie@2:0.5"),
            ("term@1,term2@2", "term2@2"),
            ("nondet@1", "nondet@1"),
            ("nondet,nondet", "nondet"),
            ("fail@", "fail@"),
            ("fail@minfe", "fail@minfe"),
            ("explode@3", "explode@3"),
            ("die@3,,die@4", ""),
            ("die@3,", ""),
            (",die@3", ""),
            ("die@3, die@4", " die@4"),
        ] {
            let err = DrillPlan::parse(spec).expect_err(spec);
            assert!(err.contains(&format!("MBAVF_DRILL entry {entry:?}")), "{spec:?}: {err}");
        }
    }
}
