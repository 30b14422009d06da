//! Self-tests of the benchmark at tiny sizes: every workload reports every metric
//! `BENCHMARK.json` names, with its unit, and a corrupted expected answer makes
//! the correctness checks fail.

use kspot_perfbench::{run, Config, Outcome, Size, WorkloadName, END_TO_END, PER_LAYER};
use std::sync::Mutex;
use std::time::Duration;

/// Held while a workload runs: the tests run on parallel threads, and timings
/// taken while another workload competes for the cores would fail the traced
/// run's decomposition check.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: WorkloadName, trace: bool, corrupt_expected: bool) -> Outcome {
    let config = Config {
        workload,
        seed: 7,
        budget: Duration::ZERO,
        trace,
        size: Size::TINY,
        corrupt_expected,
    };
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    run(&config).unwrap_or_else(|e| panic!("{} (trace {trace}) failed: {e}", workload.as_str()))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn catalog(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn the_catalogues_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), catalog(END_TO_END));
    assert_eq!(declared("per_layer"), catalog(PER_LAYER));
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in WorkloadName::ALL {
        let plain = tiny(workload, false, false);
        assert_eq!(
            reported(&plain),
            catalog(END_TO_END),
            "{}",
            workload.as_str()
        );
        assert!(
            plain
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {:?}",
            workload.as_str(),
            plain.metrics
        );
        assert_eq!(plain.failed, 0, "{}: {:?}", workload.as_str(), plain.record);
        assert!(plain.attempted > 0);

        let traced = tiny(workload, true, false);
        assert_eq!(
            reported(&traced),
            catalog(PER_LAYER),
            "{}",
            workload.as_str()
        );
        assert!(
            traced.metrics.iter().all(|m| m.value.is_finite()),
            "{}: {:?}",
            workload.as_str(),
            traced.metrics
        );
        assert_eq!(
            traced.failed,
            0,
            "{}: {:?}",
            workload.as_str(),
            traced.record
        );
        assert!(!traced.spans.is_empty());
    }
}

#[test]
fn a_corrupted_expected_answer_drives_the_error_rate_above_zero() {
    for workload in WorkloadName::ALL {
        let outcome = tiny(workload, false, true);
        assert!(
            outcome.failed > 0,
            "{}: the corrupted answer went unnoticed",
            workload.as_str()
        );
        assert!(outcome.error_rate() > 0.0);
    }
}

#[test]
fn the_traced_shared_loop_decomposes_the_engine_epoch() {
    let traced = tiny(WorkloadName::SharedLoop, true, false);
    let note = |key: &str| -> f64 {
        let (_, v) = traced.record.iter().find(|(k, _)| k == key).expect("noted");
        v.parse().expect("a number")
    };
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("reported")
    };
    // `tiny` panics unless the run passed its decomposition check, which ties
    // the traced engine epoch to the untraced one recorded here.
    let (epoch, untraced) = (
        note("trace.engine_epoch_us"),
        note("trace.untraced_engine_epoch_us"),
    );
    assert!(epoch > 0.0 && untraced > 0.0);
    assert!(note("trace.replayed_layers_us") > 0.0);
    assert!(value("algos.mint_us") > 0.0 && value("net.flush_frames_us") > 0.0);
    assert_eq!(value("engine.sessions_retained"), 16.0);
}
