//! `compare <a.json> <b.json>`: judge result file B (the change) against
//! result file A (the parent) by the fixed bound of every end-to-end metric,
//! one row per (workload, metric).

use crate::json::Json;
use crate::metrics::{Workload, END_TO_END};
use crate::stats::{median, spread};

/// Outcome of one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B's median is better than A's by more than the bound, or every run of
    /// B reads better than every run of A.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so the medians cannot be
    /// told apart at this bound.
    Unresolved,
    /// One of the files has no value for the pair.
    Missing,
}

impl Verdict {
    /// Label printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judge runs `b` against runs `a` of one metric (lower is better) at
/// `bound`, a share of `a`'s median.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        mb - ma
    } else {
        (mb - ma) / ma.abs()
    };
    if spread(a).max(spread(b)) > bound {
        let worst_b = b.iter().copied().fold(f64::MIN, f64::max);
        let best_a = a.iter().copied().fold(f64::MAX, f64::min);
        return if worst_b < best_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// The runs of `workload` in a result file.
fn runs<'a>(file: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Values of `metric` over the runs of `workload` in a result file.
fn runs_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(file, workload)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed operations of `workload` summed over a file's runs.
fn failed_of(file: &Json, workload: &str) -> f64 {
    runs(file, workload)
        .filter_map(|r| r.get("failed")?.as_f64())
        .sum()
}

/// Print the comparison table. Returns `false` when any pair regressed or
/// B failed more operations than A.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>5} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "unit", "A median", "B median", "change", "spread", "bound"
    );
    for w in Workload::ALL {
        for e in END_TO_END {
            let (va, vb) = (runs_of(a, w.name(), e.name), runs_of(b, w.name(), e.name));
            let verdict = judge(&va, &vb, e.bound);
            ok &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma
            };
            let sp = 100.0
                * if va.is_empty() || vb.is_empty() {
                    0.0
                } else {
                    spread(&va).max(spread(&vb))
                };
            println!(
                "{:<14} {:<14} {:>5} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>6.1}%  {} (n={}/{})",
                w.name(),
                e.name,
                e.unit,
                ma,
                mb,
                change,
                sp,
                100.0 * e.bound,
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
        let (fa, fb) = (failed_of(a, w.name()), failed_of(b, w.name()));
        let verdict = if fb > fa { "REGRESSED" } else { "within bound" };
        ok &= fb <= fa;
        println!(
            "{:<14} {:<14} {:>5} {:>14} {:>14} {:>8} {:>8} {:>7}  {}",
            w.name(),
            "ops_failed",
            "count",
            fa,
            fb,
            "",
            "",
            "0",
            verdict
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(judge(&a, &[1.02, 1.03, 1.01], 0.10), Verdict::Within);
        assert_eq!(judge(&a, &[1.20, 1.21, 1.19], 0.10), Verdict::Regressed);
        assert_eq!(judge(&a, &[0.80, 0.81, 0.79], 0.10), Verdict::Improved);
        // Spread wider than the bound: unresolved, not "unchanged" ...
        let noisy = [1.0, 1.3, 0.8];
        assert_eq!(judge(&noisy, &[1.05, 1.0, 1.1], 0.10), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[0.5, 0.6, 0.7], 0.10), Verdict::Improved);
        assert_eq!(judge(&[], &[1.0], 0.10), Verdict::Missing);
        // Exact counts: identical values are within any bound.
        assert_eq!(judge(&[4096.0; 3], &[4096.0; 3], 0.01), Verdict::Within);
        assert_eq!(judge(&[4096.0; 3], &[4200.0; 3], 0.01), Verdict::Regressed);
    }
}
