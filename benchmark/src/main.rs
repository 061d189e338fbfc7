//! Command line of the benchmark.
//!
//! ```text
//! pumi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--scale tiny] [--inject-failure <timed step>]   (self-test hooks)
//! pumi-benchmark run   --seed <n> [--seconds <s>] [--repeat <k>] [--out <file>]
//! pumi-benchmark trace --seed <n> [--seconds <s>] [--repeat <k>] [--out <file>]
//! pumi-benchmark compare <a.json> <b.json>
//! ```
//!
//! The flag form runs one workload in this process and prints the result
//! object as the last line of standard output. `run` and `trace` run every
//! workload that way, each in its own child process, and tabulate.

use pumi_benchmark::harness::{self, RunCfg, RunOut, Scale};
use pumi_benchmark::json::{self, Json};
use pumi_benchmark::metrics::{Workload, END_TO_END, PER_LAYER};
use pumi_benchmark::report::{self, Metrics};
use pumi_benchmark::stats::{median, spread};
use pumi_benchmark::{calls, compare, trace};
use std::process::{Command, ExitCode};

const DEFAULT_SECONDS: f64 = 12.0;

fn main() -> ExitCode {
    // Library defaults are what is measured: clear the variables that
    // override them before the first library call reads them.
    for var in calls::SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args[1..], false),
        Some("trace") => all_workloads(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        _ => one_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pumi-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(name) = it.next() {
        let name = name
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{name}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse '{v}'"))
}

fn one_workload(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut scale, mut inject) = (Scale::Full, None);
    for (name, v) in flags(args)? {
        match name {
            "workload" => {
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?)
            }
            "seed" => seed = Some(parse::<u64>(name, v)?),
            "seconds" => seconds = Some(parse::<f64>(name, v)?),
            "trace" => traced = Some(parse::<u8>(name, v)? != 0),
            "scale" if v == "tiny" => scale = Scale::Tiny,
            "inject-failure" => inject = Some(parse::<usize>(name, v)?),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let mut cfg = RunCfg::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        traced.ok_or("--trace is required")?,
    );
    cfg.scale = scale;
    cfg.inject_failure = inject;

    let out = harness::run(&cfg);
    let correct = out.failed == 0 && !out.blocks.is_empty();
    let metrics = if cfg.trace {
        let layers = report::per_layer(&cfg, &out);
        write_trace(&cfg, &out)?;
        for (name, share) in report::layer_shares(&out, &layers) {
            eprintln!("  {name:<22} {share:6.1} % of the median step");
        }
        layers
    } else if out.blocks.is_empty() {
        Metrics::new()
    } else {
        report::end_to_end(&out)
    };
    let (samples, tail) = report::step_tail(&out, cfg.trace);
    eprintln!(
        "{}: seed {} blocks {} abandoned {} steps {} failed {} nproc {} workers {}",
        cfg.workload.name(),
        cfg.seed,
        out.blocks.len(),
        out.hung_blocks,
        out.attempted,
        out.failed,
        harness::nproc(),
        cfg.workers
    );
    println!(
        "# detail {{\"blocks\":{},\"step_samples\":{},\"step_tail_pctile\":{},\"step_tail_s\":{},\
         \"nproc\":{},\"workers\":{}}}",
        out.blocks.len(),
        samples,
        tail.map_or(0, |t| t.0),
        json::num(tail.map_or(0.0, |t| t.1)),
        harness::nproc(),
        cfg.workers
    );
    println!("{}", result_line(&cfg, &out, correct, &metrics));
    Ok(correct)
}

/// Names and units of the metrics a traced / untraced run reports.
fn metric_names(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    }
}

/// The one-line result object the contract prescribes.
fn result_line(cfg: &RunCfg, out: &RunOut, correct: bool, metrics: &Metrics) -> String {
    let body: Vec<String> = metric_names(cfg.trace)
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::num(v),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    )
}

fn write_trace(cfg: &RunCfg, out: &RunOut) -> Result<(), String> {
    let dir = harness::out_dir().join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let blocks: Vec<(usize, &[Vec<trace::Span>])> = out
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.traced)
        .map(|(i, b)| (i, b.tracks.as_slice()))
        .collect();
    let path = dir.join(format!("{}.json", cfg.workload.name()));
    std::fs::write(&path, trace::chrome_json(&blocks))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn capture(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `run` / `trace`: every workload in its own child process.
fn all_workloads(args: &[String], traced: bool) -> Result<bool, String> {
    let (mut seed, mut seconds, mut repeat, mut out_path) = (None, DEFAULT_SECONDS, 1usize, None);
    for (name, v) in flags(args)? {
        match name {
            "seed" => seed = Some(parse::<u64>(name, v)?),
            "seconds" => seconds = parse(name, v)?,
            "repeat" => repeat = parse(name, v)?,
            "out" => out_path = Some(v.to_string()),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: Vec<(Workload, Json, Json)> = Vec::new();
    let mut all_ok = true;
    for rep in 0..repeat {
        for w in Workload::ALL {
            eprintln!("-- {} (run {} of {repeat})", w.name(), rep + 1);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            for var in calls::SCRUBBED_ENV {
                child.env_remove(var);
            }
            let output = child.output().map_err(|e| format!("spawn child: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout
                .lines()
                .last()
                .ok_or_else(|| format!("{}: child printed nothing", w.name()))
                .and_then(|l| json::parse(l).map_err(|e| format!("{}: {e}", w.name())))?;
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix("# detail "))
                .and_then(|l| json::parse(l).ok())
                .unwrap_or(Json::Null);
            all_ok &= output.status.success()
                && result.get("correct").and_then(Json::as_bool) == Some(true);
            runs.push((w, result, detail));
        }
    }
    print_table(&runs, traced);
    let kind = if traced { "trace" } else { "run" };
    let path = match out_path {
        Some(p) => std::path::PathBuf::from(p),
        None => harness::out_dir().join(format!("{kind}-seed{seed}.json")),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result_file(kind, seed, seconds, &runs))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(all_ok)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_table(runs: &[(Workload, Json, Json)], traced: bool) {
    let names = metric_names(traced);
    println!(
        "{:<14} {:<32} {:>16} {:<6} {:>5} {:>8}  note",
        "workload", "metric", "median", "unit", "runs", "spread"
    );
    for w in Workload::ALL {
        let mine: Vec<&(Workload, Json, Json)> = runs.iter().filter(|r| r.0 == w).collect();
        for (name, unit) in &names {
            let xs: Vec<f64> = mine
                .iter()
                .filter_map(|r| metric_value(&r.1, name))
                .collect();
            if traced && xs.iter().all(|&x| x == 0.0) {
                continue;
            }
            let sp = if xs.len() >= 2 {
                format!("{:.2}%", 100.0 * spread(&xs))
            } else {
                "-".to_string()
            };
            let note = match (*name, mine.first()) {
                ("step_s", Some(r)) => {
                    let d = |k: &str| r.2.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    format!(
                        "{} steps/run, p{} = {:.6} s",
                        d("step_samples"),
                        d("step_tail_pctile"),
                        d("step_tail_s")
                    )
                }
                _ => String::new(),
            };
            println!(
                "{:<14} {:<32} {:>16.6} {:<6} {:>5} {:>8}  {}",
                w.name(),
                name,
                median(&xs),
                unit,
                xs.len(),
                sp,
                note
            );
        }
        let sum = |k: &str| -> f64 {
            mine.iter()
                .filter_map(|r| r.1.get(k).and_then(Json::as_f64))
                .sum()
        };
        println!(
            "{:<14} {:<32} {:>16} {:<6} {:>5} {:>8}  of {} ops",
            w.name(),
            "ops_failed",
            sum("failed"),
            "count",
            mine.len(),
            "-",
            sum("attempted")
        );
    }
}

fn result_file(kind: &str, seed: u64, seconds: f64, runs: &[(Workload, Json, Json)]) -> String {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let fingerprint = format!(
        "{{\"nproc\":{},\"workers\":{},\"rustc\":{},\"features\":\"obs\",\"commit\":{}}}",
        harness::nproc(),
        harness::nproc(),
        json::quote(&capture("rustc", &["--version"])),
        json::quote(&capture("git", &["-C", manifest_dir, "rev-parse", "HEAD"]))
    );
    let rows: Vec<String> = runs
        .iter()
        .map(|(w, result, detail)| {
            let mut members = vec![("workload".to_string(), Json::Str(w.name().to_string()))];
            members.extend(result.as_obj().unwrap_or(&[]).iter().cloned());
            members.push(("detail".to_string(), detail.clone()));
            Json::Obj(members).render()
        })
        .collect();
    format!(
        "{{\"kind\":{},\"seed\":{seed},\"seconds\":{},\"fingerprint\":{fingerprint},\"runs\":[\n{}\n]}}\n",
        json::quote(kind),
        json::num(seconds),
        rows.join(",\n")
    )
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare <a.json> <b.json>".to_string());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}
