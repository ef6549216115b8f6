//! `perf_ledger`: the repository's benchmark. Four fixed workloads, each
//! driven through a `tv-server` front door and checked against the
//! harness's own brute force; seven end-to-end metrics with tracing off, and
//! one traced ladder of per-layer metrics. See `benchmark/README.md`.
//!
//! ```text
//! perf_ledger --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf_ledger compare <a.jsonl> <b.jsonl> [--benchmark-json BENCHMARK.json]
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…},…}`.

mod catalog;
mod compare;
mod gen;
mod ladder;
mod load;
mod oracle;
mod rig;
mod run;
mod stats;
mod trace;

use rig::Res;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SECONDS: u64 = 15;
const SMOKE_SECONDS: u64 = 2;
const OUT_DIR: &str = "benchmark/out";

struct Cli {
    workload: String,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Res<Cli> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = Some(number(value()?)?.max(1)),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload <name|all> is required".into());
    }
    Ok(cli)
}

fn seconds_of(cli: &Cli) -> u64 {
    cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

fn result_json(out: &run::RunOutput) -> serde_json::Value {
    let mut metrics = serde_json::Map::new();
    for (name, value) in &out.metrics {
        metrics.insert(
            name.clone(),
            serde_json::json!({"value": *value, "unit": catalog::named(name).map_or("", |d| d.unit)}),
        );
    }
    serde_json::json!({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": serde_json::Value::Object(metrics),
    })
}

fn print_metrics(workload: &str, metrics: &[(String, f64)]) {
    for (name, value) in metrics {
        let (unit, better) = catalog::named(name).map_or(("", ""), |d| (d.unit, d.better));
        println!("{workload:<16} {name:<36} {value:>16.4} {unit:<6} ({better} is better)");
    }
}

fn append_line(path: &Path, line: &str) -> Res<()> {
    let mut f = rig::ctx(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path),
        "open runs.jsonl",
    )?;
    rig::ctx(writeln!(f, "{line}"), "append to runs.jsonl")
}

fn run_one(cli: &Cli) -> Res<bool> {
    let spec = rig::spec_named(&cli.workload).ok_or_else(|| {
        let names: Vec<&str> = rig::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {}; one of {names:?} or all", cli.workload)
    })?;
    let out = run::run(&run::RunArgs {
        spec,
        seed: cli.seed,
        seconds: seconds_of(cli),
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: cli.out_dir.clone(),
    })?;
    print_metrics(spec.name, &out.metrics);
    println!("provenance {}", out.provenance);

    // The ledger line keeps the provenance; the driver's line has exactly
    // the four keys of the contract.
    let result = result_json(&out);
    let mut ledger = result.as_object().cloned().unwrap_or_default();
    ledger.insert("provenance".into(), out.provenance.clone());
    append_line(
        &cli.out_dir.join("runs.jsonl"),
        &serde_json::Value::Object(ledger).to_string(),
    )?;
    println!("{result}");
    Ok(out.recall_ok)
}

/// All four workloads, tracing off and then traced, each in a process of
/// its own so that `peak_rss_mb` is that workload's alone.
fn run_all(cli: &Cli) -> Res<bool> {
    let exe = rig::ctx(std::env::current_exe(), "locate own executable")?;
    let mut all_correct = true;
    let mut table: Vec<(String, String, f64, String)> = Vec::new();
    for spec in rig::SPECS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &seconds_of(cli).to_string()])
                .arg("--out-dir")
                .arg(&cli.out_dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if cli.smoke {
                cmd.arg("--smoke");
            }
            eprintln!("perf_ledger: {} (trace {trace})", spec.name);
            let out = rig::ctx(cmd.output(), "run workload")?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !out.status.success() {
                return Err(format!(
                    "{} (trace {trace}) exited {}",
                    spec.name, out.status
                ));
            }
            let doc = serde_json::from_str(last)
                .map_err(|_| format!("{}: last line is not a result", spec.name))?;
            let correct = matches!(doc.get("correct"), Some(serde_json::Value::Bool(true)));
            let count = |k: &str| doc.get(k).and_then(serde_json::Value::as_u64).unwrap_or(0);
            println!(
                "{:<16} trace={trace} correct={correct} attempted={} failed={}",
                spec.name,
                count("attempted"),
                count("failed")
            );
            all_correct &= correct;
            if let Some(metrics) = doc.get("metrics").and_then(|m| m.as_object()) {
                for (name, entry) in metrics.iter() {
                    let value = entry.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
                    let unit = entry.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                    table.push((spec.name.into(), name.clone(), value, unit.into()));
                }
            }
        }
    }
    for (workload, name, value, unit) in &table {
        println!("{workload:<16} {name:<36} {value:>16.4} {unit}");
    }
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Res<bool> {
    let mut files = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark-json" {
            benchmark_json = PathBuf::from(it.next().ok_or("--benchmark-json needs a path")?);
        } else {
            files.push(a);
        }
    }
    let [a, b] = files[..] else {
        return Err("usage: perf_ledger compare <a.jsonl> <b.jsonl>".into());
    };
    let read = |p: &Path| rig::ctx(std::fs::read_to_string(p), &p.display().to_string());
    let bounds = compare::bounds_from(&read(&benchmark_json)?)?;
    let a = compare::ledger_from(&read(Path::new(a))?)?;
    let b = compare::ledger_from(&read(Path::new(b))?)?;
    let (worse, unresolved) = compare::compare(&a, &b, &bounds);
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0 && unresolved == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => parse_cli(&args).and_then(|cli| {
            if cli.workload == "all" {
                run_all(&cli)
            } else {
                // Failed operations are counted in the result line; the exit
                // code is non-zero only for a harness error (2) or a recall
                // under the floor (1).
                run_one(&cli)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::from(2)
        }
    }
}
