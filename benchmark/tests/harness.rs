//! Harness self-tests at a tiny scale: names, the metric set of every
//! workload, exact repeatability of counts, failure accounting, and the
//! "one file calls the library" rule.

use pumi_benchmark::harness::{self, RunCfg, RunOut, Scale};
use pumi_benchmark::json::{self, Json};
use pumi_benchmark::metrics::{Workload, END_TO_END, HIGHER_IS_BETTER, PER_LAYER};
use pumi_benchmark::report::{self, Metrics};
use std::collections::BTreeSet;
use std::process::Command;

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunCfg {
    let mut cfg = RunCfg::new(workload, seed, 0.0, trace);
    cfg.scale = Scale::Tiny;
    cfg.min_blocks = if trace { 2 } else { 1 };
    cfg
}

fn run(cfg: &RunCfg) -> (RunOut, Metrics) {
    let out = harness::run(cfg);
    let metrics = if cfg.trace {
        report::per_layer(cfg, &out)
    } else {
        report::end_to_end(&out)
    };
    (out, metrics)
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|e| e.name))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for name in names {
        assert!(well_formed(name), "bad name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
    for e in END_TO_END {
        assert!(
            e.bound > 0.0 && e.bound <= 0.25,
            "{}: bound {}",
            e.name,
            e.bound
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|e| e.name == "setup_s" && e.unit == "s"));
}

/// `BENCHMARK.json` at the repository root lists exactly the names and
/// bounds the code uses.
#[test]
fn benchmark_json_agrees_with_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), want);
    let want: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    assert_eq!(names("end_to_end"), want);
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names("per_layer"), want);
    for (m, e) in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(e.unit));
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(e.bound));
        assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
    }
    for (m, want) in doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(want.1));
        let better = if HIGHER_IS_BETTER.contains(&want.0) {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
    }
}

/// Layers that do the work of a workload report time; layers the workload
/// leaves idle report exactly 0.
fn busy_and_idle(w: Workload) -> (&'static [&'static str], &'static [&'static str]) {
    match w {
        Workload::AdaptCycle => (
            &[
                "adapt.adapt_s",
                "adapt.stamp_s",
                "parma.improve_s",
                "adapt.splits",
            ],
            &[
                "core.migrate_s",
                "field.sync_s",
                "io.write_base_s",
                "serve.restore_s",
            ],
        ),
        Workload::MigrateBand => (
            &["core.migrate_s", "core.migrate_elems"],
            &[
                "adapt.adapt_s",
                "parma.improve_s",
                "field.sync_s",
                "io.read_s",
            ],
        ),
        Workload::HaloSync => (
            &[
                "field.sync_s",
                "mesh.elem_loop_s",
                "core.ghost_copies",
                "field.sync_first_s",
            ],
            &[
                "core.migrate_s",
                "adapt.adapt_s",
                "parma.improve_s",
                "io.write_base_s",
            ],
        ),
        Workload::WideExchange => (
            &["pcu.exchange_s", "pcu.envelope_ns", "pcu.offnode_msgs"],
            &[
                "core.distribute_s",
                "meshgen.generate_s",
                "field.sync_s",
                "io.read_s",
            ],
        ),
        Workload::CkptWrite => (
            &[
                "io.write_base_s",
                "io.write_delta_s",
                "io.base_bytes",
                "io.disk_bytes",
            ],
            &[
                "adapt.adapt_s",
                "parma.improve_s",
                "core.migrate_s",
                "serve.restore_s",
            ],
        ),
        Workload::CkptRestore => (
            &[
                "io.read_s",
                "serve.open_s",
                "serve.restore_s",
                "serve.slice_s",
                "io.disk_bytes",
            ],
            &[
                "adapt.adapt_s",
                "parma.improve_s",
                "field.sync_s",
                "io.write_base_s",
            ],
        ),
    }
}

#[test]
fn every_workload_reports_exactly_its_metrics() {
    for w in Workload::ALL {
        let (out, e2e) = run(&tiny(w, 7, false));
        assert_eq!(out.failed, 0, "{}: failed operations", w.name());
        assert!(out.attempted > 0);
        let want: BTreeSet<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(e2e.keys().copied().collect::<BTreeSet<_>>(), want);
        for (name, v) in &e2e {
            assert!(*v > 0.0, "{}: end-to-end {name} must never be 0", w.name());
        }

        let (out, layers) = run(&tiny(w, 7, true));
        assert_eq!(out.failed, 0, "{}: failed operations (traced)", w.name());
        let want: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(layers.keys().copied().collect::<BTreeSet<_>>(), want);
        let (busy, idle) = busy_and_idle(w);
        for name in busy {
            assert!(layers[name] > 0.0, "{}: {name} should be busy", w.name());
        }
        for name in idle {
            assert_eq!(layers[name], 0.0, "{}: {name} should be idle", w.name());
        }
        assert!(layers["trace.unattributed_pct"] < 50.0);
    }
}

/// The count-valued metrics of a run that do not depend on timing. Left
/// out: the sample counts of the run itself, abandoned blocks, and the serve
/// cache's hits and misses — two clients that miss the same chunk at the
/// same moment both decode it, so that split follows their interleaving.
fn counts(e2e: &Metrics, layers: &Metrics) -> Vec<(&'static str, u64)> {
    const TIMING_DEPENDENT: [&str; 3] =
        ["pcu.hung_blocks", "serve.chunk_hits", "serve.chunk_misses"];
    let mut out = vec![("offnode_bytes", e2e["offnode_bytes"].to_bits())];
    for (name, unit) in PER_LAYER {
        let timing_derived = name.starts_with("step.")
            || name.starts_with("trace.")
            || TIMING_DEPENDENT.contains(&name);
        if (unit == "count" || unit == "B") && !timing_derived {
            out.push((name, layers[name].to_bits()));
        }
    }
    out
}

/// Counts repeat exactly for one seed. Across seeds the *data* changes
/// (coordinates, weights, payload bytes, field values, touched vertices)
/// but not the size of the job, so only the checkpoint workloads — whose
/// compressed bytes follow the values — report different counts.
#[test]
fn counts_repeat_exactly_and_only_checkpoint_bytes_follow_the_seed() {
    for w in Workload::ALL {
        let once = |seed| {
            let (_, e2e) = run(&tiny(w, seed, false));
            let (_, layers) = run(&tiny(w, seed, true));
            counts(&e2e, &layers)
        };
        let (a, b, other) = (once(11), once(11), once(12));
        assert_eq!(
            a,
            b,
            "{}: counts differ between two runs of one seed",
            w.name()
        );
        if matches!(w, Workload::CkptWrite | Workload::CkptRestore) {
            assert_ne!(a, other, "{}: bytes on disk ignore the seed", w.name());
        } else {
            assert_eq!(
                a,
                other,
                "{}: the seed changed the size of the job",
                w.name()
            );
        }
    }
}

#[test]
fn injected_failure_is_counted_and_changes_the_exit_code() {
    for w in [Workload::MigrateBand, Workload::CkptRestore] {
        let mut cfg = tiny(w, 3, false);
        cfg.min_blocks = 2;
        cfg.inject_failure = Some(1);
        let out = harness::run(&cfg);
        assert_eq!(out.failed, 2, "{}: one failed step per block", w.name());
        assert!(out.attempted > out.failed);
    }
    let exe = env!("CARGO_BIN_EXE_pumi-benchmark");
    let run = |extra: &[&str]| {
        Command::new(exe)
            .args(["--workload", "halo_sync", "--seed", "3", "--seconds", "0"])
            .args(["--trace", "0", "--scale", "tiny"])
            .args(extra)
            .output()
            .expect("run the benchmark binary")
    };
    let last = |o: &std::process::Output| {
        let text = String::from_utf8_lossy(&o.stdout).into_owned();
        json::parse(text.lines().last().expect("a result line")).expect("valid JSON")
    };
    let good = run(&[]);
    assert!(good.status.success());
    let doc = last(&good);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let bad = run(&["--inject-failure", "0"]);
    assert_eq!(bad.status.code(), Some(1));
    let doc = last(&bad);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    assert!(doc.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
}

/// Checkpoint scratch directories are gone when the process ends, also
/// after a run that failed.
#[test]
fn scratch_directories_are_removed() {
    for extra in [&[][..], &["--inject-failure", "0"][..]] {
        let child = Command::new(env!("CARGO_BIN_EXE_pumi-benchmark"))
            .args(["--workload", "ckpt_write", "--seed", "5", "--seconds", "0"])
            .args(["--trace", "0", "--scale", "tiny"])
            .args(extra)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("run the benchmark binary");
        let mine = format!("-{}-", child.id());
        assert_eq!(
            child.wait_with_output().unwrap().status.success(),
            extra.is_empty()
        );
        let left: Vec<String> = std::fs::read_dir(harness::out_dir().join("tmp"))
            .map(|d| {
                d.filter_map(Result::ok)
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|name| name.contains(&mine))
                    .collect()
            })
            .unwrap_or_default();
        assert!(left.is_empty(), "left behind: {left:?}");
    }
}

/// `calls.rs` is the only source file that names a library crate.
#[test]
fn only_calls_rs_names_the_library() {
    let sources = [
        ("compare.rs", include_str!("../src/compare.rs")),
        ("harness.rs", include_str!("../src/harness.rs")),
        ("json.rs", include_str!("../src/json.rs")),
        ("main.rs", include_str!("../src/main.rs")),
        ("metrics.rs", include_str!("../src/metrics.rs")),
        ("report.rs", include_str!("../src/report.rs")),
        ("stats.rs", include_str!("../src/stats.rs")),
        ("trace.rs", include_str!("../src/trace.rs")),
        ("workloads.rs", include_str!("../src/workloads.rs")),
    ];
    for (file, text) in sources {
        for needle in ["pumi_", "parma::"] {
            let hits: Vec<&str> = text
                .lines()
                .filter(|l| l.contains(needle) && !l.contains("pumi_benchmark"))
                .collect();
            assert!(hits.is_empty(), "{file} names the library: {hits:?}");
        }
    }
}
