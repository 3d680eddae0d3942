//! Pieces shared by the workloads: the run result, output checks on
//! rankings, the top-K hit rate, and process counters read from `/proc`.

use sdd_core::{ErrorFunction, RankedSite};
use sdd_netlist::EdgeId;
use std::collections::{BTreeMap, HashSet};

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to value (units live in the metric tables of
    /// `main.rs`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
    /// Failed output checks; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check (kept short: the first few are printed).
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.check_failures.push(what.into());
    }
}

/// The error functions the hit rate averages over: the paper's Table I
/// columns `Alg_sim I`, `Alg_sim II` and `Alg_rev`.
pub const HIT_RATE_FUNCTIONS: [ErrorFunction; 3] = [
    ErrorFunction::MethodI,
    ErrorFunction::MethodII,
    ErrorFunction::Euclidean,
];

/// Structural checks on one diagnosis: one ranking per error function in
/// [`ErrorFunction::EXTENDED`] order, each listing every suspect exactly
/// once with a finite score, ordered best-first by
/// [`ErrorFunction::compare`] (ties towards lower arc ids), and all
/// rankings over the same suspect set.
pub fn check_rankings(rankings: &[Vec<RankedSite>]) -> Result<(), String> {
    if rankings.is_empty() {
        return Ok(());
    }
    if rankings.len() != ErrorFunction::EXTENDED.len() {
        return Err(format!(
            "{} rankings, expected one per error function ({})",
            rankings.len(),
            ErrorFunction::EXTENDED.len()
        ));
    }
    let mut suspect_set: Option<Vec<EdgeId>> = None;
    for (f, ranking) in ErrorFunction::EXTENDED.into_iter().zip(rankings) {
        let mut seen = HashSet::new();
        for site in ranking {
            if !site.score.is_finite() {
                return Err(format!(
                    "{}: suspect {} scored {}",
                    f.name(),
                    site.edge,
                    site.score
                ));
            }
            if !seen.insert(site.edge) {
                return Err(format!("{}: suspect {} listed twice", f.name(), site.edge));
            }
        }
        for w in ranking.windows(2) {
            let order = f
                .compare(w[0].score, w[1].score)
                .then_with(|| w[0].edge.cmp(&w[1].edge));
            if order != std::cmp::Ordering::Less {
                return Err(format!(
                    "{}: {} ({}) ranked before {} ({})",
                    f.name(),
                    w[0].edge,
                    w[0].score,
                    w[1].edge,
                    w[1].score
                ));
            }
        }
        let mut edges: Vec<EdgeId> = ranking.iter().map(|s| s.edge).collect();
        edges.sort();
        match &suspect_set {
            None => suspect_set = Some(edges),
            Some(first) if *first != edges => {
                return Err(format!("{} ranks a different suspect set", f.name()));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Mean top-K hit rate, in percent, over [`HIT_RATE_FUNCTIONS`] and
/// `k_values`: one entry per diagnosed chip, `(injected arc, rankings)`
/// with empty rankings for an undiagnosed chip (a miss at every K).
pub fn hit_rate_pct(outcomes: &[(EdgeId, &[Vec<RankedSite>])], k_values: &[usize]) -> f64 {
    let mut hits = 0usize;
    let mut trials = 0usize;
    for (injected, rankings) in outcomes {
        for f in HIT_RATE_FUNCTIONS {
            let ix = ErrorFunction::EXTENDED
                .iter()
                .position(|&g| g == f)
                .expect("hit-rate functions are extended functions");
            for &k in k_values {
                trials += 1;
                if rankings
                    .get(ix)
                    .is_some_and(|r| r.iter().take(k).any(|s| s.edge == *injected))
                {
                    hits += 1;
                }
            }
        }
    }
    if trials == 0 {
        0.0
    } else {
        100.0 * hits as f64 / trials as f64
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of process `pid` (all its threads), in ms.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(edge: usize, score: f64) -> RankedSite {
        RankedSite {
            edge: EdgeId::from_index(edge),
            score,
        }
    }

    /// A consistent diagnosis over suspects {1, 2, 3}.
    fn good() -> Vec<Vec<RankedSite>> {
        ErrorFunction::EXTENDED
            .into_iter()
            .map(|f| {
                if f.higher_is_better() {
                    vec![site(2, 0.9), site(1, 0.5), site(3, 0.5)]
                } else {
                    vec![site(3, 0.1), site(1, 0.4), site(2, 0.4)]
                }
            })
            .collect()
    }

    #[test]
    fn consistent_rankings_pass() {
        assert_eq!(check_rankings(&good()), Ok(()));
        assert_eq!(check_rankings(&[]), Ok(()));
    }

    #[test]
    fn malformed_rankings_are_caught() {
        let mut dup = good();
        dup[0][2] = site(1, 0.5);
        assert!(check_rankings(&dup).unwrap_err().contains("twice"));
        let mut nan = good();
        nan[1][0].score = f64::NAN;
        assert!(check_rankings(&nan).unwrap_err().contains("scored"));
        let mut unordered = good();
        unordered[3].swap(0, 1);
        assert!(check_rankings(&unordered)
            .unwrap_err()
            .contains("ranked before"));
        let mut tie_order = good();
        tie_order[0].swap(1, 2);
        assert!(
            check_rankings(&tie_order).is_err(),
            "ties go to lower arc ids"
        );
        let mut other_set = good();
        other_set[4][0] = site(9, 0.1);
        assert!(check_rankings(&other_set)
            .unwrap_err()
            .contains("suspect set"));
        assert!(check_rankings(&good()[..4]).is_err());
    }

    #[test]
    fn hit_rate_averages_functions_and_k() {
        let rankings = good();
        // Arc 1 is 2nd under the Alg_sim functions and 2nd under Alg_rev.
        let outcomes = [(EdgeId::from_index(1), rankings.as_slice())];
        assert_eq!(hit_rate_pct(&outcomes, &[1]), 0.0);
        assert_eq!(hit_rate_pct(&outcomes, &[2]), 100.0);
        assert_eq!(hit_rate_pct(&outcomes, &[1, 3]), 50.0);
        // An undiagnosed chip misses at every K.
        let none: [(EdgeId, &[Vec<RankedSite>]); 2] = [
            (EdgeId::from_index(1), rankings.as_slice()),
            (EdgeId::from_index(1), &[]),
        ];
        assert_eq!(hit_rate_pct(&none, &[2]), 50.0);
    }

    #[test]
    fn proc_counters_read_this_process() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        assert!(cpu_ms(pid).is_some_and(|ms| ms >= 0.0));
    }
}
