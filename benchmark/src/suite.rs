//! The suite: every workload as child processes in the driver's form of the
//! command (so each run starts from a clean process and clean servers),
//! gathered into one result file with a stable schema.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use crate::baseline;
use crate::cli::{sibling, Args};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::NAMES;

/// What one child run printed.
#[derive(Default)]
pub struct ChildRun {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: BTreeMap<String, f64>,
    /// `self_time` and `layer_cost` lines: (kind, name) → value.
    pub ranked: Vec<(String, String, f64)>,
}

/// Run one child, echoing its output, and parse its result line.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = sibling(trace)?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--memfsd")
        .arg(&args.memfsd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let mut proc = cmd.spawn().map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut run = ChildRun::default();
    let mut last = String::new();
    for line in BufReader::new(proc.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["self_time" | "layer_cost", name, value] = words[..] {
            if let Ok(v) = value.parse() {
                run.ranked.push((words[0].to_string(), name.to_string(), v));
            }
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| e.to_string())?;
    let result = Json::parse(&last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({status}): {e}"))?;
    run.correct = result
        .get("correct")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    run.attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    run.failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    for (name, m) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
    {
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            run.metrics.insert(name.clone(), v);
        }
    }
    Ok(run)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    let mut by_workload = BTreeMap::new();
    for workload in &workloads {
        let mut runs = Vec::new();
        for i in 0..args.runs {
            println!("\n== {workload}: run {} of {}", i + 1, args.runs);
            runs.push(child(args, workload, args.seed + i as u64, false)?);
        }
        let traced = if args.traced {
            println!("\n== {workload}: traced run");
            Some(child(args, workload, args.seed, true)?)
        } else {
            None
        };
        all_correct &= runs.iter().chain(&traced).all(|r| r.correct);

        let end_to_end = Json::obj(END_TO_END.iter().map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.metrics.get(m.name).copied().unwrap_or(0.0))
                .collect();
            (
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.into())),
                    ("median", Json::Num(median(&values))),
                    ("spread", Json::Num(spread(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        }));
        let mut entry = BTreeMap::from([
            (
                "correct".to_string(),
                Json::Bool(runs.iter().chain(&traced).all(|r| r.correct)),
            ),
            (
                "attempted".to_string(),
                Json::Num(runs.iter().map(|r| r.attempted).sum()),
            ),
            (
                "failed".to_string(),
                Json::Num(runs.iter().chain(&traced).map(|r| r.failed).sum()),
            ),
            ("end_to_end".to_string(), end_to_end),
        ]);
        if let Some(t) = traced {
            entry.insert(
                "per_layer".into(),
                Json::obj(PER_LAYER.iter().map(|m| {
                    let value = t.metrics.get(m.name).copied().unwrap_or(0.0);
                    (
                        m.name,
                        Json::obj([
                            ("unit", Json::Str(m.unit.into())),
                            ("value", Json::Num(value)),
                        ]),
                    )
                })),
            );
            for kind in ["self_time", "layer_cost"] {
                entry.insert(
                    format!("{kind}_ranked"),
                    Json::Arr(
                        t.ranked
                            .iter()
                            .filter(|(k, _, _)| k == kind)
                            .map(|(_, name, v)| {
                                Json::Arr(vec![Json::Str(name.clone()), Json::Num(*v)])
                            })
                            .collect(),
                    ),
                );
            }
        }
        by_workload.insert(workload.to_string(), Json::Obj(entry));
    }

    let result = Json::obj([
        ("schema", Json::Str("memfs-benchmark/1".into())),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("link", Json::Str("host loopback, not a real link".into())),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::Obj(by_workload)),
    ]);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, result.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if args.quick {
        println!("--quick: schema and read-back check only — NOT FOR NUMBERS");
    }
    if let Some(path) = &args.baseline {
        std::fs::write(path, baseline::render(&result))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if !all_correct {
        println!("FAILED: a run had failed or incorrect operations");
    }
    Ok(all_correct)
}
