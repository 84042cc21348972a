//! Smoke runs of every workload on the 24-FF demo circuit: each must pass
//! its own checks and print exactly the metrics `BENCHMARK.json` declares,
//! each with its declared unit, both untraced and traced.

use psbi_benchmark::workloads::{run, Params, Workload};
use psbi_fleet::json::Json;
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric declared in one section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name()));
        let p = Params {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            tiny: true,
            work_dir,
        };
        let text = run(&p).expect("workload sets up").render();
        let last = Json::parse(text.lines().last().expect("output")).expect("last line is JSON");
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{text}");
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0), "{text}");
        assert!(last.get("attempted").and_then(Json::as_u64) >= Some(1));

        let expected = declared(if trace { "per_layer" } else { "end_to_end" });
        let Some(Json::Obj(printed)) = last.get("metrics") else {
            panic!("metrics object missing: {text}");
        };
        let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, want, "{} trace={trace}", workload.name());
        for (name, unit) in &expected {
            let m = last.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            assert!(m
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
            let line = text
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some(name))
                .unwrap_or_else(|| panic!("no printed line for {name}"));
            assert_eq!(
                line.split_whitespace().nth(3),
                Some(unit.as_str()),
                "{line}"
            );
        }
    }
}

#[test]
fn declared_workloads_are_implemented() {
    let declared = benchmark_json();
    let declared = declared
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert!(declared.len() >= 2);
    for w in declared {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "{name} is not implemented");
    }
}

#[test]
fn exact_s9234_smoke() {
    smoke(Workload::ExactS9234);
}

#[test]
fn fallback_s38584_smoke() {
    smoke(Workload::FallbackS38584);
}

#[test]
fn sweep_fleet_smoke() {
    smoke(Workload::SweepFleet);
}
