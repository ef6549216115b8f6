//! `perf_ledger compare <a.jsonl> <b.jsonl>`: the verdict the agreement
//! criterion and every later PR uses. Each file holds one JSON object per
//! line, as the benchmark appends them to `benchmark/out/runs.jsonl`; `a` is
//! the parent (or first set), `b` the change (or second set). Bounds come
//! from `BENCHMARK.json`.

use crate::rig::Res;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// Run-to-run spread on either side is wider than the bound: the
    /// metric cannot show a change of that size either way.
    Unresolved,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &str) -> Res<Vec<Bound>> {
    let doc = serde_json::from_str(benchmark_json).map_err(|_| "BENCHMARK.json does not parse")?;
    let listed = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|e| {
            let text = |k: &str| e.get(k).and_then(|v| v.as_str());
            Ok(Bound {
                name: text("name").ok_or("metric without a name")?.to_string(),
                higher_is_better: text("better") == Some("higher"),
                bound: e
                    .get("bound")
                    .and_then(|v| v.as_f64())
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `(workload, metric) → values`.
pub type Series = BTreeMap<(String, String), Vec<f64>>;

/// What the result lines of one workload say beside their metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    pub runs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Runs whose `correct` was not `true`.
    pub incorrect_runs: u64,
    /// Read-your-write probes and misses, from the provenance. The issue
    /// counts a miss as a failed operation; the result line does not
    /// (README, "Read-your-write"), so it gets a row of its own here.
    pub ryw_probes: u64,
    pub ryw_misses: u64,
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

#[derive(Debug, Default)]
pub struct Ledger {
    pub series: Series,
    pub health: BTreeMap<String, Health>,
}

pub fn ledger_from(jsonl: &str) -> Res<Ledger> {
    let mut out = Ledger::default();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let doc = serde_json::from_str(line).map_err(|_| "a result line does not parse")?;
        let provenance = doc.get("provenance");
        let workload = provenance
            .and_then(|p| p.get("workload"))
            .and_then(|v| v.as_str())
            .ok_or("a result line has no provenance.workload")?;
        let count = |k: &str| doc.get(k).and_then(serde_json::Value::as_u64);
        let ryw = |k: &str| {
            provenance
                .and_then(|p| p.get(k))
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        let h = out.health.entry(workload.to_string()).or_default();
        h.runs += 1;
        h.attempted += count("attempted").ok_or("a result line has no attempted")?;
        h.failed += count("failed").ok_or("a result line has no failed")?;
        h.ryw_probes += ryw("ryw_probes");
        h.ryw_misses += ryw("ryw_misses");
        if !matches!(doc.get("correct"), Some(serde_json::Value::Bool(true))) {
            h.incorrect_runs += 1;
        }
        let Some(metrics) = doc.get("metrics").and_then(|m| m.as_object()) else {
            continue;
        };
        for (name, entry) in metrics.iter() {
            if let Some(v) = entry.get("value").and_then(|v| v.as_f64()) {
                out.series
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound.bound);
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by(median(a), median(b), bound.higher_is_better) > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `b` has more of `part` than `a` would have had over as many operations
/// (rounded up, so that 1 of 8 542 is not "more" than 1 of 8 545).
fn more_than_scaled((part_a, whole_a): (u64, u64), (part_b, whole_b): (u64, u64)) -> bool {
    let scaled = (u128::from(part_a) * u128::from(whole_b)).div_ceil(u128::from(whole_a.max(1)));
    u128::from(part_b) > scaled
}

/// The two rows with bound 0. `failed_share`: `b` failed more operations than
/// `a` would have over as many, or more of its runs were not `correct`.
/// `ryw_miss_share`: more of its read-your-write probes missed.
pub fn health_verdicts(a: &Health, b: &Health) -> [Verdict; 2] {
    let worse_if = |worse: bool| if worse { Verdict::Worse } else { Verdict::Ok };
    [
        worse_if(
            more_than_scaled((a.failed, a.attempted), (b.failed, b.attempted))
                || more_than_scaled((a.incorrect_runs, a.runs), (b.incorrect_runs, b.runs)),
        ),
        worse_if(more_than_scaled(
            (a.ryw_misses, a.ryw_probes),
            (b.ryw_misses, b.ryw_probes),
        )),
    ]
}

/// Print one row per (workload, bounded metric), and a `failed_share` and a
/// `ryw_miss_share` row per workload. A bounded metric or a workload that only one side has is
/// printed as `only in a` / `only in b` and counted as unresolved. Returns
/// how many rows were `worse` and how many `unresolved`.
pub fn compare(a: &Ledger, b: &Ledger, bounds: &[Bound]) -> (usize, usize) {
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a.median", "b.median", "a.iqr%", "b.iqr%", "worse%", "bound%"
    );
    let (mut worse, mut unresolved) = (0, 0);
    let mut tally = |v: Verdict| match v {
        Verdict::Worse => worse += 1,
        Verdict::Unresolved => unresolved += 1,
        Verdict::Ok => {}
    };
    let one_sided = |in_a: bool| if in_a { "only in a" } else { "only in b" };

    let keys: std::collections::BTreeSet<&(String, String)> =
        a.series.keys().chain(b.series.keys()).collect();
    for key in keys {
        let (workload, metric) = key;
        let Some(bound) = bounds.iter().find(|x| &x.name == metric) else {
            continue;
        };
        let (Some(av), Some(bv)) = (a.series.get(key), b.series.get(key)) else {
            tally(Verdict::Unresolved);
            let side = one_sided(a.series.contains_key(key));
            println!("{workload:<16} {metric:<22} {side}");
            continue;
        };
        let v = verdict(av, bv, bound);
        tally(v);
        let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}", s * 100.0));
        println!(
            "{workload:<16} {metric:<22} {:>12.4} {:>12.4} {:>8} {:>8} {:>8.2} {:>6.1}  {}",
            median(av),
            median(bv),
            pct(spread(av)),
            pct(spread(bv)),
            worse_by(median(av), median(bv), bound.higher_is_better) * 100.0,
            bound.bound * 100.0,
            v.name()
        );
    }

    let workloads: std::collections::BTreeSet<&String> =
        a.health.keys().chain(b.health.keys()).collect();
    for workload in workloads {
        let (Some(ha), Some(hb)) = (a.health.get(workload), b.health.get(workload)) else {
            tally(Verdict::Unresolved);
            let side = one_sided(a.health.contains_key(workload));
            println!("{workload:<16} {:<22} {side}", "failed_share");
            continue;
        };
        let [failed, ryw] = health_verdicts(ha, hb);
        for (name, v, (pa, wa), (pb, wb)) in [
            (
                "failed_share",
                failed,
                (ha.failed, ha.attempted),
                (hb.failed, hb.attempted),
            ),
            (
                "ryw_miss_share",
                ryw,
                (ha.ryw_misses, ha.ryw_probes),
                (hb.ryw_misses, hb.ryw_probes),
            ),
        ] {
            tally(v);
            println!(
                "{workload:<16} {name:<22} {:>12.6} {:>12.6} {:>8} {:>8} {:>8} {:>6.1}  {} \
                 ({pa}/{wa} vs {pb}/{wb})",
                share(pa, wa),
                share(pb, wb),
                "-",
                "-",
                "-",
                0.0,
                v.name(),
            );
        }
        if ha.incorrect_runs + hb.incorrect_runs > 0 {
            println!(
                "{workload:<16} runs not correct: {}/{} vs {}/{}",
                ha.incorrect_runs, ha.runs, hb.incorrect_runs, hb.runs
            );
        }
    }
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        // Latency-like: lower is better, 10 % bound.
        let lat = bound(false, 0.10);
        assert_eq!(verdict(&steady, &steady, &lat), Verdict::Ok);
        assert_eq!(verdict(&steady, &slower, &lat), Verdict::Worse);
        assert_eq!(verdict(&steady, &faster, &lat), Verdict::Ok);
        assert_eq!(verdict(&steady, &noisy, &lat), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &steady, &lat), Verdict::Unresolved);
        // Throughput-like: higher is better, so the slower set is fine and
        // the "faster" (smaller) one is the regression.
        let qps = bound(true, 0.10);
        assert_eq!(verdict(&steady, &slower, &qps), Verdict::Ok);
        assert_eq!(verdict(&steady, &faster, &qps), Verdict::Worse);
        // Within the bound is not worse.
        let nudged: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&steady, &nudged, &lat), Verdict::Ok);
    }

    fn line(workload: &str, metric: &str, value: f64, failed: u64, correct: bool) -> String {
        format!(
            r#"{{"correct":{correct},"attempted":100,"failed":{failed},"metrics":{{"{metric}":{{"value":{value},"unit":"1/s"}}}},"provenance":{{"workload":"{workload}"}}}}"#
        ) + "\n"
    }

    #[test]
    fn parses_result_lines_and_bounds() {
        let lines = line("w1", "qps", 10.5, 0, true) + &line("w1", "qps", 10.6, 1, false);
        let l = ledger_from(&lines).expect("parses");
        assert_eq!(
            l.series[&("w1".to_string(), "qps".to_string())],
            vec![10.5, 10.6]
        );
        assert_eq!(
            l.health["w1"],
            Health {
                runs: 2,
                attempted: 200,
                failed: 1,
                incorrect_runs: 1,
                ryw_probes: 0,
                ryw_misses: 0
            }
        );
        let b = bounds_from(
            r#"{"end_to_end":[{"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("parses");
        assert!(b[0].higher_is_better && b[0].bound == 0.1 && b[0].name == "qps");
        assert_eq!(compare(&l, &l, &b), (0, 0));
        assert!(ledger_from(r#"{"metrics":{},"provenance":{"workload":"w"}}"#).is_err());
    }

    #[test]
    fn failures_and_one_sided_rows_are_not_ok() {
        let bounds = [Bound {
            name: "qps".into(),
            higher_is_better: true,
            bound: 0.1,
        }];
        let clean = ledger_from(&line("w1", "qps", 10.0, 0, true)).expect("parses");
        // Same numbers, but `b` failed an operation: worse, whatever the
        // metrics say.
        let failing = ledger_from(&line("w1", "qps", 10.0, 1, true)).expect("parses");
        assert_eq!(compare(&clean, &failing, &bounds), (1, 0));
        assert_eq!(compare(&failing, &clean, &bounds), (0, 0));
        // So is a read-your-write miss, which only the provenance carries.
        let missed = line("w1", "qps", 10.0, 0, true).replace(
            r#""provenance":{"#,
            r#""provenance":{"ryw_probes":50,"ryw_misses":2,"#,
        );
        let missed = ledger_from(&missed).expect("parses");
        assert_eq!(missed.health["w1"].ryw_misses, 2);
        assert_eq!(compare(&clean, &missed, &bounds), (1, 0));
        assert_eq!(compare(&missed, &clean, &bounds), (0, 0));
        // As many misses over slightly fewer probes is not more.
        assert!(!more_than_scaled((1, 8545), (1, 8542)));
        assert!(more_than_scaled((1, 8545), (2, 8542)));
        assert!(more_than_scaled((0, 0), (1, 10)));
        // `correct: false` with nothing counted as failed is worse too.
        let incorrect = ledger_from(&line("w1", "qps", 10.0, 0, false)).expect("parses");
        assert_eq!(compare(&clean, &incorrect, &bounds), (1, 0));
        // A bounded metric and a workload that only one side has: one
        // unresolved row each. An unbounded metric is not compared.
        let other = ledger_from(&line("w2", "qps", 10.0, 0, true)).expect("parses");
        assert_eq!(compare(&clean, &other, &bounds), (0, 4));
        let renamed = ledger_from(&line("w1", "qps2", 10.0, 0, true)).expect("parses");
        assert_eq!(compare(&clean, &renamed, &bounds), (0, 1));
    }
}
