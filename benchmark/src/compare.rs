//! `compare`: two sets of result files, one row per workload and end-to-end
//! metric, judged against the bound the manifest fixes. The tool for the A/A
//! check of the benchmark itself and for every later performance claim.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use crate::stats::{quartiles, relative_iqr};

/// `workload -> metric -> values`, from the untraced lines of result files.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read result files written by `run --out`: one JSON object per line with
/// `workload`, `seed`, `trace` and the driver-shaped `result`.
pub fn load(paths: &[String]) -> Result<Results, String> {
    let mut results = Results::new();
    for path in paths {
        let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
            if value.get("trace").and_then(Value::as_f64) != Some(0.0) {
                continue;
            }
            let workload = value
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}:{}: no workload", number + 1))?;
            let measured = value
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("{path}:{}: no result.metrics", number + 1))?;
            let by_metric = results.entry(workload.to_string()).or_default();
            for (name, metric) in measured {
                if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                    by_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(results)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A side's run-to-run spread is wider than the bound: the runs cannot
    /// show that the metric held.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judge one metric: `new` against `base`, both sets of same-code runs.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<(f64, Verdict)> {
    let [_, base_median, _] = quartiles(base)?;
    let [_, new_median, _] = quartiles(new)?;
    if base_median == 0.0 {
        return None;
    }
    let ratio = new_median / base_median;
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let spread = relative_iqr(base)
        .unwrap_or(0.0)
        .max(relative_iqr(new).unwrap_or(0.0));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some((ratio, verdict))
}

/// Print the comparison; returns how many rows regressed.
pub fn report(base: &Results, new: &Results, bounds: &[(String, f64)]) -> usize {
    let mut regressed = 0;
    println!(
        "{:<16} {:<27} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "new/base", "bound"
    );
    for (workload, base_metrics) in base {
        for def in metrics::END_TO_END {
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map_or(0.0, |(_, b)| *b);
            let empty = Vec::new();
            let base_values = base_metrics.get(def.name).unwrap_or(&empty);
            let new_values = new
                .get(workload)
                .and_then(|m| m.get(def.name))
                .unwrap_or(&empty);
            let shown = |values: &[f64]| match quartiles(values) {
                Some([q1, q2, q3]) => format!("{q1:.4} / {q2:.4} / {q3:.4}"),
                None => format!("{} run(s): too few", values.len()),
            };
            let (ratio, verdict) = match judge(base_values, new_values, def.better, bound) {
                Some((ratio, verdict)) => (format!("{ratio:.4}"), verdict.word()),
                None => ("-".to_string(), "unresolved"),
            };
            regressed += usize::from(verdict == "regressed");
            println!(
                "{workload:<16} {:<27} {:>36} {:>36} {ratio:>8} {bound:>6}  {verdict}",
                format!("{} ({}, {})", def.name, def.unit, def.better.word()),
                shown(base_values),
                shown(new_values),
            );
        }
    }
    println!(
        "ratios are new median / base median; base has {} run(s) per workload, new has {}",
        runs_per_workload(base),
        runs_per_workload(new)
    );
    regressed
}

fn runs_per_workload(results: &Results) -> String {
    let counts: Vec<String> = results
        .values()
        .map(|m| m.values().map(Vec::len).max().unwrap_or(0).to_string())
        .collect();
    counts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 100.0, 125.0, 90.0, 110.0];
        assert_eq!(
            judge(&steady, &same, Better::Lower, 0.05).unwrap().1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.05).unwrap().1,
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.05).unwrap().1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.05).unwrap().1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.05).unwrap().1,
            Verdict::Unresolved
        );
        assert!(judge(&[1.0], &steady, Better::Lower, 0.05).is_none());
        let (ratio, _) = judge(&steady, &slower, Better::Lower, 0.05).unwrap();
        assert!((ratio - 1.2).abs() < 1e-9);
    }
}
