//! `compare A.json B.json`: judge set B against set A, one row per
//! (workload, end-to-end metric), by the metric's own bound and direction.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either set is wider than the bound, so a
    /// move of the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` and `b` are the per-run values of the two sets.
/// Returns the verdict with the relative change of the median (positive =
/// worse) and the wider of the two spreads.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = metric.bound.expect("only bounded metrics are judged");
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = if med_a == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by, spread)
}

/// The per-run values of `metric` on `workload` in a result file.
fn values(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed_ops(result: &Json, workload: &str) -> f64 {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Print the comparison; `Ok(true)` when no row is worse and no set failed
/// more ops than the other.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no `workloads`")?;
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut ok = true;
    for workload in workloads.keys() {
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            ) else {
                return Err(format!("{workload}/{} is missing from a file", metric.name));
            };
            let (verdict, worse_by, spread) = judge(metric, &va, &vb);
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<12} {:<24} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                // Shown in the metric's own direction: + is more of it.
                if metric.higher_is_better {
                    -worse_by
                } else {
                    worse_by
                } * 100.0,
                spread * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
        let (fa, fb) = (failed_ops(a, workload), failed_ops(b, workload));
        if fb > fa {
            ok = false;
        }
        println!(
            "{workload:<12} {:<24} {fa:>12} {fb:>12} {:>33}",
            "failed_ops",
            if fb > fa { "worse" } else { "same" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound.
    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m",
            unit: "x",
            higher_is_better,
            bound: Some(0.10),
        }
    }

    fn around(center: f64, rel_step: f64) -> Vec<f64> {
        (-4..=5)
            .map(|i| center * (1.0 + rel_step * f64::from(i)))
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let (thr, lat) = (&metric(true), &metric(false));
        let a = around(1000.0, 0.002);
        assert_eq!(judge(thr, &a, &around(1000.0, 0.002)).0, Verdict::Same);
        assert_eq!(judge(thr, &a, &around(950.0, 0.002)).0, Verdict::Same);
        assert_eq!(judge(thr, &a, &around(880.0, 0.002)).0, Verdict::Worse);
        assert_eq!(judge(thr, &a, &around(1150.0, 0.002)).0, Verdict::Better);
        // The same numbers read the other way for a lower-is-better metric.
        assert_eq!(judge(lat, &a, &around(880.0, 0.002)).0, Verdict::Better);
        assert_eq!(judge(lat, &a, &around(1150.0, 0.002)).0, Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let thr = &metric(true);
        let steady = around(1000.0, 0.002);
        let noisy = around(1000.0, 0.04); // quartiles ≈ 22 % apart
        let (verdict, _, spread) = judge(thr, &steady, &noisy);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!(spread > 0.10);
        // Even a large drop is unresolved when the base itself is noisy.
        assert_eq!(
            judge(thr, &noisy, &around(700.0, 0.002)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn single_runs_compare_on_their_values() {
        let thr = &metric(true);
        assert_eq!(judge(thr, &[1000.0], &[700.0]).0, Verdict::Worse);
        assert_eq!(judge(thr, &[1000.0], &[990.0]).0, Verdict::Same);
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |write: f64, failed: f64| {
            let e2e = Json::obj(END_TO_END.iter().map(|m| {
                let v = if m.name == "write_mibps" { write } else { 1.0 };
                (
                    m.name,
                    Json::obj([("values", Json::Arr(vec![Json::Num(v); 3]))]),
                )
            }));
            Json::obj([(
                "workloads",
                Json::obj([(
                    "seq_large",
                    Json::obj([("end_to_end", e2e), ("failed", Json::Num(failed))]),
                )]),
            )])
        };
        assert_eq!(compare(&file(1000.0, 0.0), &file(1000.0, 0.0)), Ok(true));
        assert_eq!(compare(&file(1000.0, 0.0), &file(500.0, 0.0)), Ok(false));
        assert_eq!(compare(&file(1000.0, 0.0), &file(1000.0, 2.0)), Ok(false));
        assert!(compare(
            &file(1000.0, 0.0),
            &Json::obj([("workloads", Json::obj::<String>([]))])
        )
        .is_err());
    }
}
