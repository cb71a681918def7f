//! Run files (`bench run --out`) and their comparison (`bench compare`).
//!
//! A run file holds a stamp (commit, cores, threads, seed, compiler) and
//! one entry per process run: workload, trace mode, seed and the result
//! line. `compare` applies each end-to-end metric's direction and bound
//! from `BENCHMARK.json`, one row per (workload, metric).

use std::collections::BTreeMap;

use polytops_core::json::{self, Json};

use crate::stats::Samples;

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message when the document is not shaped as the contract
/// says.
pub fn rules(benchmark: &Json) -> Result<Vec<Rule>, String> {
    let metrics = benchmark
        .as_object()
        .and_then(|o| o.get("end_to_end")?.as_array())
        .ok_or("BENCHMARK.json has no `end_to_end` array")?;
    metrics
        .iter()
        .map(|m| {
            let m = m.as_object().ok_or("metric is not an object")?;
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("`{k}` missing"))
            };
            Ok(Rule {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("`bound` missing")?,
            })
        })
        .collect()
}

/// Values by `(workload, metric)` over a run file's untraced runs, plus
/// the workloads that reported `correct: false`.
type Table = (BTreeMap<(String, String), Vec<f64>>, Vec<String>);

fn table(run_file: &Json) -> Result<Table, String> {
    let runs = run_file
        .as_object()
        .and_then(|o| o.get("runs")?.as_array())
        .ok_or("run file has no `runs` array")?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut incorrect = Vec::new();
    for run in runs {
        let run = run.as_object().ok_or("run entry is not an object")?;
        if run.get("trace").and_then(Json::as_int) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run entry without `workload`")?;
        let result = run
            .get("result")
            .and_then(Json::as_object)
            .ok_or("run entry without `result`")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            incorrect.push(workload.to_string());
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result without `metrics`")?;
        for (name, entry) in metrics {
            let value = entry
                .as_object()
                .and_then(|e| e.get("value")?.as_f64())
                .ok_or(format!("metric `{name}` without a value"))?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok((values, incorrect))
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The runs spread wider than the bound and overlap: the data cannot
    /// tell a regression from noise.
    Unresolved,
}

/// Interquartile range as a share of the median; `None` below four
/// samples, where quartiles say nothing.
fn spread(samples: &Samples) -> Option<f64> {
    if samples.len() < 4 || samples.median() == 0.0 {
        return None;
    }
    let (q1, q3) = samples.quartiles();
    Some((q3 - q1) / samples.median().abs())
}

/// Judges candidate runs `b` against baseline runs `a` of one metric.
pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (Samples::new(a.to_vec()), Samples::new(b.to_vec()));
    let sign = if rule.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median() - sa.median()) / sa.median().abs().max(f64::MIN_POSITIVE);
    let noisy = [spread(&sa), spread(&sb)]
        .into_iter()
        .flatten()
        .any(|s| s > rule.bound);
    if noisy {
        // Every candidate run better than every baseline run still
        // resolves it.
        let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares two run files; returns the printed report and whether any
/// row regressed. A (workload, metric) pair the baseline has and the
/// candidate lacks counts as regressed; `only` restricts the comparison
/// to one workload.
///
/// # Errors
///
/// Returns a message for a malformed document.
pub fn compare(
    benchmark: &str,
    a: &str,
    b: &str,
    only: Option<&str>,
) -> Result<(String, bool), String> {
    let rules = rules(&json::parse(benchmark)?)?;
    let (ta, _) = table(&json::parse(a)?)?;
    let (tb, incorrect) = table(&json::parse(b)?)?;
    let mut out = format!(
        "{:<12} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    let mut regressed = false;
    for ((workload, metric), va) in &ta {
        let Some(rule) = rules.iter().find(|r| &r.name == metric) else {
            continue;
        };
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let Some(vb) = tb.get(&(workload.clone(), metric.clone())) else {
            regressed = true;
            out.push_str(&format!(
                "{workload:<12} {metric:<22} missing from the candidate  regressed\n"
            ));
            continue;
        };
        let verdict = judge(rule, va, vb);
        regressed |= verdict == Verdict::Regressed;
        let (ma, mb) = (
            Samples::new(va.clone()).median(),
            Samples::new(vb.clone()).median(),
        );
        out.push_str(&format!(
            "{workload:<12} {metric:<22} {ma:>14.4} {mb:>14.4} {:>+7.2}% {:>5.1}%  {}\n",
            (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
            rule.bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    for workload in &incorrect {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        regressed = true;
        out.push_str(&format!(
            "{workload:<12} candidate run reported correct: false  regressed\n"
        ));
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn direction_and_bound_decide() {
        // Lower is better, 10 %: +5 % passes, +20 % regresses.
        assert_eq!(judge(&rule(false, 0.1), &[100.0], &[105.0]), Verdict::Ok);
        assert_eq!(
            judge(&rule(false, 0.1), &[100.0], &[120.0]),
            Verdict::Regressed
        );
        // Higher is better: the same numbers flip.
        assert_eq!(judge(&rule(true, 0.1), &[100.0], &[120.0]), Verdict::Ok);
        assert_eq!(
            judge(&rule(true, 0.1), &[100.0], &[80.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let noisy = [80.0, 95.0, 100.0, 105.0, 130.0];
        let shifted = [85.0, 99.0, 104.0, 110.0, 140.0];
        assert_eq!(
            judge(&rule(false, 0.05), &noisy, &shifted),
            Verdict::Unresolved
        );
        let far_better = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(judge(&rule(false, 0.05), &noisy, &far_better), Verdict::Ok);
    }

    #[test]
    fn compare_reads_run_files() {
        let benchmark = r#"{"end_to_end":[
            {"name":"request_p50_ms","unit":"ms","better":"lower","bound":0.1},
            {"name":"schedules_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;
        let run = |p50: f64, rate: f64, correct: bool| {
            format!(
                r#"{{"runs":[{{"workload":"serve_warm","trace":0,"result":{{"correct":{correct},
                "attempted":1,"failed":0,"metrics":{{
                "request_p50_ms":{{"value":{p50},"unit":"ms"}},
                "schedules_per_s":{{"value":{rate},"unit":"1/s"}}}}}}}},
                {{"workload":"serve_warm","trace":1,"result":{{"correct":true,"metrics":{{}}}}}}]}}"#
            )
        };
        let compare = |a: &str, b: &str| compare(benchmark, a, b, None).expect("compares");
        let (report, regressed) = compare(&run(4.0, 500.0, true), &run(4.1, 495.0, true));
        assert!(!regressed, "{report}");
        assert_eq!(report.matches(" ok\n").count(), 2, "{report}");
        let (report, regressed) = compare(&run(4.0, 500.0, true), &run(5.0, 500.0, true));
        assert!(regressed && report.contains("regressed"), "{report}");
        let (_, regressed) = compare(&run(4.0, 500.0, true), &run(4.0, 500.0, false));
        assert!(regressed);
    }

    #[test]
    fn a_pair_the_candidate_lacks_is_a_regression() {
        let benchmark = r#"{"end_to_end":[
            {"name":"request_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#;
        let run = |workload: &str| {
            format!(
                r#"{{"runs":[{{"workload":"{workload}","trace":0,"result":{{"correct":true,
                "metrics":{{"request_p50_ms":{{"value":4.0,"unit":"ms"}}}}}}}}]}}"#
            )
        };
        let (report, regressed) =
            compare(benchmark, &run("serve_warm"), &run("serve_churn"), None).expect("compares");
        assert!(regressed && report.contains("missing"), "{report}");
        // Unless the comparison was asked to leave that workload out.
        let (report, regressed) = compare(
            benchmark,
            &run("serve_warm"),
            &run("serve_churn"),
            Some("sweep_ilp"),
        )
        .expect("compares");
        assert!(!regressed, "{report}");
    }
}
