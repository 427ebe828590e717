//! Smoke runs of every workload at a small size. Each run must answer
//! correctly, run the checks its workload calls for, and report every
//! metric `BENCHMARK.json` names — once, with the unit listed there.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

use payless_json::Json;
use payless_sockbench::load::Workload;
use payless_sockbench::run::{run, Config, Outcome};

/// Runs share the machine's two cores; one at a time keeps them honest.
static SERIAL: Mutex<()> = Mutex::new(());

/// Build `payless-server` once, into its own target directory beside this
/// test's (a nested build must not wait on the outer one's lock).
fn server() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        let target = exe
            .ancestors()
            .nth(3)
            .expect("<target>/<profile>/deps/<test>")
            .join("sockbench-server");
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "payless-server",
            ])
            .arg("--manifest-path")
            .arg(repo.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building payless-server failed");
        target.join("release").join("payless-server")
    })
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let spec = payless_json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// One run at `--seconds 1`. Cargo runs the test with this package's
/// directory as the working directory, so its temporary files go where a
/// run from the command line would put them.
fn smoke(workload: Workload, trace: bool) -> Outcome {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A stray knob in the caller's environment must not reach the server:
    // with ten-record pages it would bill other page counts than the replay.
    std::env::set_var("PAYLESS_PAGE", "10");
    std::env::set_var("PAYLESS_FAULT_SEED", "7");
    let cfg = Config {
        workload,
        seed: 11,
        seconds: 1,
        trace,
        server: server().to_path_buf(),
    };
    run(&cfg).expect("run completes")
}

fn check(workload: Workload) {
    for trace in [false, true] {
        let out = smoke(workload, trace);
        for c in &out.checks {
            assert!(
                c.passed,
                "{}: check {} failed: {}",
                workload.name(),
                c.name,
                c.detail
            );
        }
        assert!(out.correct());
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= workload.queries_per_second() as u64);

        let mut expected = vec!["answers_ok", "digests_match_reference", "pages_match_meter"];
        if workload.single_table() {
            expected.push("replay_pages_match");
        }
        if workload.durable() {
            expected.push("store_reconciles");
        }
        if trace {
            expected.push("attribution");
        }
        let ran: Vec<&str> = out.checks.iter().map(|c| c.name).collect();
        assert_eq!(ran, expected, "{}", workload.name());

        let (key, metrics) = if trace {
            ("per_layer", &out.layers)
        } else {
            ("end_to_end", &out.e2e)
        };
        let reported: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(reported, listed(key), "{} {key}", workload.name());
        for m in metrics {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        }
        if !trace {
            for m in &out.e2e {
                assert!(
                    m.value > 0.0,
                    "{} reads {} on {}",
                    m.name,
                    m.value,
                    workload.name()
                );
            }
        }

        let line = payless_json::parse(&out.result_line(trace)).expect("result line is JSON");
        assert!(line
            .get("correct")
            .and_then(Json::as_bool)
            .expect("correct"));
        let printed = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(printed.len(), reported.len());
    }
}

#[test]
fn hot_point_smoke() {
    check(Workload::HotPoint);
}

#[test]
fn cold_durable_smoke() {
    check(Workload::ColdDurable);
}

#[test]
fn join_buy_smoke() {
    check(Workload::JoinBuy);
}
