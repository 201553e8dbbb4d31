//! Metric definitions, the result file, the tables printed for people, the
//! one-line result printed for the driver, and `polybench diff`.

use crate::json::Json;
use crate::load::Measured;
use crate::stats;

/// An end-to-end metric: what a user of the federation would see.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression. `BENCHMARK.json` carries the same numbers.
    pub bound: f64,
}

pub const END_TO_END: [MetricDef; 8] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "query_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    },
    MetricDef {
        name: "query_p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    MetricDef {
        name: "write_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    MetricDef {
        name: "throughput_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    },
    MetricDef {
        name: "cpu_ms_per_query",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    MetricDef {
        name: "wire_bytes_per_query",
        unit: "B",
        higher_is_better: false,
        bound: 0.10,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `measured` as the end-to-end metric called `name`, with its unit.
pub fn end_to_end(name: &'static str, measured: Measured) -> Reported {
    let def = END_TO_END
        .iter()
        .find(|d| d.name == name)
        .expect("an end-to-end metric of the table above");
    Reported {
        name,
        unit: def.unit,
        measured,
    }
}

/// One metric of one run: the pooled value, and where it was measured in
/// parts (rounds of the window, repeated set-ups) each part's value and
/// their quartile spread.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub measured: Measured,
}

impl Reported {
    pub fn spread(&self) -> Option<f64> {
        stats::quartile_spread(&self.measured.rounds)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.measured.value)),
            ("unit", Json::Str(self.unit.into())),
            ("rounds", Json::nums(&self.measured.rounds)),
            ("spread", self.spread().map_or(Json::Null, Json::Num)),
        ])
    }
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    /// `run` (end-to-end metrics) or `trace` (per-layer metrics).
    pub mode: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Counts and sizes that explain the metrics: operations by kind,
    /// window length, pool size, hit ratio.
    pub ops: Vec<(String, f64)>,
    pub metrics: Vec<Reported>,
    /// Why the run should not be trusted as a baseline, if anything.
    pub unstable: Vec<String>,
}

impl RunResult {
    /// Mark the run unstable for every end-to-end metric whose rounds
    /// spread wider than twice its bound.
    pub fn flag_wide_spreads(&mut self) {
        for m in &self.metrics {
            let Some(def) = END_TO_END.iter().find(|d| d.name == m.name) else {
                continue;
            };
            if let Some(spread) = m.spread().filter(|s| *s > 2.0 * def.bound) {
                self.unstable.push(format!(
                    "{} spread {:.1} % over its rounds, bound {:.0} %",
                    m.name,
                    spread * 100.0,
                    def.bound * 100.0
                ));
            }
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.workload.into())),
            ("mode", Json::Str(self.mode.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("unstable", Json::Bool(!self.unstable.is_empty())),
            (
                "unstable_why",
                Json::Arr(self.unstable.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "ops",
                Json::obj(self.ops.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, m.to_json()))),
            ),
        ])
    }

    /// The table for people: every metric by name with its unit.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{} ({}, seed {}, {} s): {} operations, {} failed{}\n",
            self.workload,
            self.mode,
            self.seed,
            self.seconds,
            self.attempted,
            self.failed,
            if self.correct { "" } else { " — INCORRECT" },
        );
        for m in &self.metrics {
            let spread = m
                .spread()
                .map_or(String::new(), |s| format!("  (spread {:.1} %)", s * 100.0));
            out.push_str(&format!(
                "  {:<28} {:>14.4} {}{}\n",
                m.name, m.measured.value, m.unit, spread
            ));
        }
        for (k, v) in &self.ops {
            out.push_str(&format!("  · {k} = {v}\n"));
        }
        for why in &self.unstable {
            out.push_str(&format!("  ! unstable: {why}\n"));
        }
        out
    }

    /// The last line of standard output: what the driver reads.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.measured.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }
}

/// A result file: where it was measured, and one entry per workload run.
pub fn result_file(env: Json, runs: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Str("polybench-1".into())),
        ("env", env),
        ("workloads", Json::Arr(runs)),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The files' own round-to-round spread exceeds the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate `b` against baseline `a` for one metric.
pub fn verdict(def: &MetricDef, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > def.bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `polybench diff`: one row per (workload, end-to-end metric). Returns the
/// rendered table and whether the candidate regressed (any `worse` row, or
/// a higher share of failed operations).
pub fn diff(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let runs = |file: &Json| -> Vec<Json> {
        file.get("workloads")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter(|w| w.get("mode").and_then(Json::as_str) == Some("run"))
            .cloned()
            .collect()
    };
    let (runs_a, runs_b) = (runs(a), runs(b));
    let name_of = |w: &Json| {
        w.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut out = format!(
        "{:<15} {:<22} {:>13} {:>13} {:>9}  {}\n",
        "workload", "metric", "a", "b", "b/a", "verdict (bound)"
    );
    let mut regressed = false;
    let mut compared = 0;
    for wa in &runs_a {
        let Some(wb) = runs_b.iter().find(|w| name_of(w) == name_of(wa)) else {
            continue;
        };
        compared += 1;
        let field = |w: &Json, metric: &str, key: &str| {
            w.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get(key))
                .and_then(Json::as_f64)
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (field(wa, def.name, "value"), field(wb, def.name, "value"))
            else {
                return Err(format!(
                    "{}: {} is missing from a file",
                    name_of(wa),
                    def.name
                ));
            };
            let spread = [field(wa, def.name, "spread"), field(wb, def.name, "spread")]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let v = verdict(def, va, vb, spread);
            regressed |= v == Verdict::Worse;
            out.push_str(&format!(
                "{:<15} {:<22} {:>13.4} {:>13.4} {:>9.4}  {} ({:.0} % of a = {:.4} {})\n",
                name_of(wa),
                def.name,
                va,
                vb,
                vb / va,
                v.label(),
                def.bound * 100.0,
                def.bound * va,
                def.unit,
            ));
        }
        let failed_frac = |w: &Json| {
            let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            n("failed") / n("attempted")
        };
        let (fa, fb) = (failed_frac(wa), failed_frac(wb));
        let more_failed = fb > fa || fb.is_nan();
        regressed |= more_failed;
        out.push_str(&format!(
            "{:<15} {:<22} {:>13.6} {:>13.6} {:>9}  {}\n",
            name_of(wa),
            "failed_frac",
            fa,
            fb,
            "",
            if more_failed {
                "worse (any increase)"
            } else {
                "same"
            },
        ));
        for (side, w) in [("a", wa), ("b", wb)] {
            if w.get("unstable").and_then(Json::as_bool) == Some(true) {
                out.push_str(&format!(
                    "{:<15} file {side} marks this run unstable\n",
                    name_of(wa)
                ));
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no workload run".into());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_json(p50: f64, spread_rounds: [f64; 5], failed: usize) -> Json {
        let mut result = RunResult {
            workload: "join_ship",
            mode: "run",
            seed: 1,
            seconds: 1.0,
            correct: failed == 0,
            attempted: 100,
            failed,
            ops: vec![("reads".into(), 98.0)],
            metrics: END_TO_END
                .iter()
                .map(|d| Reported {
                    name: d.name,
                    unit: d.unit,
                    measured: Measured {
                        value: if d.name == "query_p50_ms" { p50 } else { 10.0 },
                        rounds: if d.name == "query_p50_ms" {
                            spread_rounds.to_vec()
                        } else {
                            vec![10.0; 5]
                        },
                    },
                })
                .collect(),
            unstable: Vec::new(),
        };
        result.flag_wide_spreads();
        result_file(
            Json::obj([("nproc", Json::Num(2.0))]),
            vec![result.to_json()],
        )
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = &END_TO_END[1]; // query_p50_ms, 10 %
        let higher = &END_TO_END[4]; // throughput_qps, 10 %
        assert_eq!(verdict(lower, 10.0, 10.9, Some(0.02)), Verdict::Same);
        assert_eq!(verdict(lower, 10.0, 11.5, None), Verdict::Worse);
        assert_eq!(verdict(lower, 10.0, 8.5, Some(0.0)), Verdict::Better);
        assert_eq!(verdict(higher, 100.0, 85.0, None), Verdict::Worse);
        assert_eq!(verdict(higher, 100.0, 115.0, None), Verdict::Better);
        assert_eq!(verdict(lower, 10.0, 20.0, Some(0.3)), Verdict::Unresolved);
    }

    #[test]
    fn diff_reports_every_metric_and_fails_on_worse_or_more_failures() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.0];
        let base = run_json(10.0, steady, 0);
        let (table, regressed) = diff(&base, &run_json(10.2, steady, 0)).unwrap();
        assert!(!regressed);
        assert_eq!(table.matches("join_ship").count(), END_TO_END.len() + 1);
        assert!(table.contains("query_p50_ms") && table.contains("same (10 % of a = 1.0000 ms)"));

        let (table, regressed) = diff(&base, &run_json(12.0, steady, 0)).unwrap();
        assert!(regressed && table.contains("worse (10 %"));

        let (table, regressed) = diff(&base, &run_json(10.0, steady, 1)).unwrap();
        assert!(regressed && table.contains("worse (any increase)"));

        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        let (table, regressed) = diff(&base, &run_json(12.0, noisy, 0)).unwrap();
        assert!(!regressed && table.contains("unresolved"));
        assert!(table.contains("file b marks this run unstable"));

        assert!(diff(&base, &Json::obj::<String>([])).is_err());
    }

    #[test]
    fn driver_line_is_one_json_object_with_the_four_keys() {
        let file = run_json(10.0, [10.0; 5], 0);
        let run = &file.get("workloads").unwrap().as_arr()[0];
        assert_eq!(run.get("unstable").unwrap().as_bool(), Some(false));
        let result = RunResult {
            workload: "x",
            mode: "run",
            seed: 1,
            seconds: 1.0,
            correct: true,
            attempted: 7,
            failed: 0,
            ops: Vec::new(),
            metrics: vec![Reported {
                name: "setup_s",
                unit: "s",
                measured: Measured {
                    value: 0.8127,
                    rounds: vec![],
                },
            }],
            unstable: Vec::new(),
        };
        let line = result.driver_line();
        assert!(!line.contains('\n'));
        let parsed = crate::json::parse(&line).unwrap();
        let Json::Obj(pairs) = &parsed else {
            panic!("the driver's line is a JSON object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
