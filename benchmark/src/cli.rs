//! Command line: one contract run, the suite, `compare`, `manifest`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::compare;
use crate::json::Json;
use crate::metrics::{self, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::{self, Config, Outcome};
use crate::suite;
use crate::workloads::{Kind, NAMES};

const USAGE: &str = "\
usage: run.sh [--seed N] [--workload W] [--seconds S] [--runs N] [--traced]
              [--quick] [--out DIR] [--baseline FILE]
           runs the suite: every workload (or W), N runs each on seeds
           N, N+1, ..., untraced, plus one traced run each with --traced;
           prints every metric and writes DIR/result.json
       run.sh --workload W --seed N --seconds S --trace 0|1
           one run in the driver's form: the last line is the result
       run.sh compare A.json B.json
           judges result B against result A by each metric's bound
       run.sh manifest
           prints BENCHMARK.json";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 0|1`: present only in the driver's form of the command.
    pub trace: Option<bool>,
    pub traced: bool,
    pub quick: bool,
    pub runs: usize,
    pub out_dir: PathBuf,
    pub memfsd: PathBuf,
    pub baseline: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        traced: false,
        quick: false,
        runs: 1,
        out_dir: PathBuf::from("benchmark/out"),
        memfsd: PathBuf::from("target/release/memfsd"),
        baseline: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("--seed: bad number {v}"))?;
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--runs" => args.runs = number(value()?)? as usize,
            "--trace" => args.trace = Some(number(value()?)? != 0.0),
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--memfsd" => args.memfsd = PathBuf::from(value()?),
            "--baseline" => args.baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if Kind::named(w).is_none() {
            return Err(format!("unknown workload {w}; one of {}", NAMES.join(", ")));
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.runs == 0 {
        return Err("--seconds must be in (0, 600] and --runs at least 1".into());
    }
    Ok(args)
}

/// `traced_binary`: whether this executable carries the counting allocator.
pub fn main(traced_binary: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("compare") => match &argv[1..] {
            [a, b] => read_json(a).and_then(|a| compare::compare(&a, &read_json(b)?)),
            _ => Err(USAGE.into()),
        },
        // The body of a keep-awake process (`cluster::KeepAwake`). A plain
        // loop, not `spin_loop()`: PAUSE in a long loop makes a hypervisor
        // take the virtual CPU away, the halt this process is there to avoid.
        Some("spin") => {
            let mut n = 0u64;
            loop {
                n = std::hint::black_box(n.wrapping_add(1));
            }
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse(&argv).and_then(|args| match (args.trace, &args.workload) {
            (Some(trace), Some(_)) if trace && !traced_binary => reexec_traced(&argv),
            (Some(trace), Some(workload)) => single(&args, workload, trace),
            (Some(_), None) => Err("--trace needs --workload".into()),
            (None, _) => suite::run(&args),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("memfs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The path of the benchmark binary built with (or without) the counting
/// allocator, beside this one.
pub fn sibling(traced: bool) -> Result<PathBuf, String> {
    let name = if traced {
        "memfs-benchmark-traced"
    } else {
        "memfs-benchmark"
    };
    std::env::current_exe()
        .map(|p| p.with_file_name(name))
        .map_err(|e| format!("cannot find own executable: {e}"))
}

/// A traced run needs the binary that counts allocations: run it with the
/// same arguments and wait for it.
fn reexec_traced(argv: &[String]) -> Result<bool, String> {
    let exe = sibling(true)?;
    let status = Command::new(&exe)
        .args(argv)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(status.success())
}

/// One run in the driver's form.
fn single(args: &Args, workload: &str, trace: bool) -> Result<bool, String> {
    let cfg = Config {
        workload: workload.to_string(),
        kind: Kind::named(workload).expect("checked by parse"),
        seed: args.seed,
        seconds: args.seconds,
        traced: trace,
        quick: args.quick,
        memfsd: args.memfsd.clone(),
        spin_exe: sibling(false)?,
        out_dir: args.out_dir.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# memfs-benchmark workload={workload} seed={} seconds={} trace={} quick={}",
        cfg.seed,
        cfg.seconds,
        u8::from(trace),
        cfg.quick
    );
    println!(
        "# system: {} memfsd processes on the HOST LOOPBACK (not a real link), one mount, \
         {} caller thread(s), closed loop, nproc={nproc}",
        crate::cluster::SERVERS,
        cfg.kind.callers()
    );
    if cfg.quick {
        println!("# --quick: one round, schema and read-back check only — NOT FOR NUMBERS");
    }
    let outcome = run::run(&cfg)?;
    print_outcome(&outcome, trace);
    println!("{}", result_line(&outcome, trace).render());
    Ok(outcome.failed == 0)
}

fn table(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn print_outcome(o: &Outcome, trace: bool) {
    println!("info timed_rounds {}", o.timed_rounds);
    println!("info plan_hash {:016x}", o.plan_hash);
    println!("info attempted {} failed {}", o.attempted, o.failed);
    for e in &o.errors {
        println!("info error {e}");
    }
    // The tails beside the gated medians, for people; not part of the result.
    let extra: &[(&str, &str)] = if trace {
        &[]
    } else {
        &[
            ("create_p99_us", "us"),
            ("read_p99_us", "us"),
            ("unlink_p99_us", "us"),
        ]
    };
    let rows = table(trace)
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(extra.iter().copied());
    for (name, unit) in rows {
        let value = o.values.get(name).copied().unwrap_or(0.0);
        match o.samples.get(name) {
            Some(n) => println!("{name} {value} {unit} (n={n})"),
            None => println!("{name} {value} {unit}"),
        }
    }
    for (name, secs) in &o.self_time {
        println!("self_time {name} {secs}");
    }
    for (layer, us) in &o.layer_cost_us {
        println!("layer_cost {layer} {us}");
    }
}

/// The last line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(o: &Outcome, trace: bool) -> Json {
    let metrics: BTreeMap<String, Json> = table(trace)
        .iter()
        .map(|m| {
            let value = o.values.get(m.name).copied().unwrap_or(0.0);
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_form_and_the_suite_form() {
        let a = parse(&argv(
            "--workload rand_read --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("rand_read"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, Some(true)));
        let a = parse(&argv("--traced --runs 10 --out x")).unwrap();
        assert!(a.traced && a.trace.is_none() && a.runs == 10 && a.workload.is_none());
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 12,
            failed: 0,
            errors: vec![],
            values: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            samples: BTreeMap::new(),
            timed_rounds: 3,
            plan_hash: 0,
            self_time: vec![],
            layer_cost_us: vec![],
        };
        let line = result_line(&o, false);
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.render().contains("\"attempted\":12,"));
        assert_eq!(
            result_line(&o, true)
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
    }
}
