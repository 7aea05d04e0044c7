//! Toy-scale runs of every workload: each emits exactly the metrics
//! `BENCHMARK.json` names, with their units, and a tampered expected
//! answer fails the run.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::run::{run, Options, Workload};

/// Tracing state is process-wide, so runs take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn toy(workload: Workload, trace: bool, tag: &str) -> Options {
    let mut o = Options::new(workload, 7, 0.2, trace);
    o.scale = 20_000;
    o.setups = 1;
    o.opens = 1;
    o.server_exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    o.work_dir = tmp.join(format!("smoke-{tag}-{}", workload.name()));
    o.out_dir = tmp.join("smoke-out");
    o
}

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("parse BENCHMARK.json")
}

/// `(name, unit, better)` of one `BENCHMARK.json` metric list.
fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or_default().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn table(t: &[Metric]) -> Vec<(String, String, String)> {
    t.iter().map(|m| (m.name.into(), m.unit.into(), m.better.into())).collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
        .collect();
    let ours: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} names no end-to-end metric to move",
            m.name
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = toy(workload, trace, "emit");
            let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(out.correct, "{} trace={trace}: {} failed", workload.name(), out.failed);
            assert!(out.attempted > 0);
            let want = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> =
                out.metrics.iter().map(|(m, _)| (m.name, m.unit)).collect();
            let expect: Vec<(&str, &str)> = want.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expect, "{} trace={trace}", workload.name());
            for (m, v) in &out.metrics {
                assert!(v.is_finite(), "{} {} = {v}", workload.name(), m.name);
            }
            for key in ["nproc", "cpu", "git_sha", "scale", "seed", "workload"] {
                assert!(out.record.contains_key(key), "record lacks {key}");
            }

            let line: serde_json::Value =
                serde_json::from_str(&perfbench::result_line(&out)).expect("result line is JSON");
            let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = line.get("metrics").and_then(|m| m.as_object()).expect("metrics");
            for m in want {
                let entry = metrics.get(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
                assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(m.unit));
                assert!(entry.get("value").and_then(|v| v.as_f64()).is_some());
            }
            assert!(!opts.work_dir.exists(), "work dir left behind");
        }
    }
}

#[test]
fn a_tampered_expected_answer_fails_the_run() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let mut opts = toy(workload, false, "tamper");
        opts.tamper = true;
        let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(!out.correct, "{}: tampered answer went unnoticed", workload.name());
        assert!(out.failed > 0);
    }
}
