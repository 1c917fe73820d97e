//! Telemetry contract tests: the deterministic work counters belong to
//! the golden surface (bit-identical at any thread count), and the
//! exported artifacts are well-formed.
//!
//! Exact-value assertions go through `report.aggregate.work` — the
//! report-side counter surface — because the process-global registry is
//! shared across tests running in one binary. Registry- and trace-level
//! assertions are structural so they tolerate counts contributed by
//! sibling tests.

use proptest::prelude::*;
use usta_fleet::{run_sweep, SweepConfig};
use usta_workloads::Benchmark;

fn tiny_sweep(device: &str, users: usize, threads: usize, seed: u64) -> SweepConfig {
    SweepConfig {
        users,
        threads,
        seed,
        devices: vec![device.to_owned()],
        max_sim_seconds: 20.0,
        predictor_pool: 1,
        training_benchmarks: vec![Benchmark::GfxBench],
        training_cap_seconds: 30.0,
        chunk_size: 2,
        smoke: true,
        ..SweepConfig::default()
    }
}

#[test]
fn work_counters_cover_the_multi_domain_path() {
    // The flagship has GPU + display domains, so USTA's system-level
    // decide path (and with it the arbiter) must actually run.
    let report = run_sweep(&tiny_sweep("flagship-octa", 2, 1, 7)).expect("sweep runs");
    let work = report.aggregate.work;
    assert!(work.steps > 0, "a sweep simulates steps");
    assert!(work.governor_decisions > 0);
    assert!(work.predictions > 0, "USTA predicts on its cadence");
    assert!(
        work.arbiter_invocations > 0,
        "multi-domain devices route every system decide through the arbiter"
    );
}

proptest! {
    // Each case runs two real sweeps, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn work_counters_are_bit_identical_across_thread_counts(
        users in 1usize..4,
        device_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let device = ["nexus4", "flagship-octa"][device_idx];
        let single = run_sweep(&tiny_sweep(device, users, 1, seed)).expect("sweep runs");
        let four = run_sweep(&tiny_sweep(device, users, 4, seed)).expect("sweep runs");
        prop_assert_eq!(single.aggregate.work, four.aggregate.work);
        prop_assert!(single.aggregate.work.steps > 0);
    }
}

#[test]
fn exported_artifacts_are_well_formed() {
    // Turning the global sink on is sticky for the whole test binary;
    // the registry may also hold counts from sibling tests, so every
    // assertion below is structural rather than exact.
    usta_telemetry::enable();
    let report = run_sweep(&tiny_sweep("nexus4", 2, 2, 3)).expect("sweep runs");
    assert!(report.aggregate.work.steps > 0);

    let metrics = usta_telemetry::json::parse(&usta_telemetry::global().to_json())
        .expect("metrics JSON parses");
    let root = metrics.as_object().expect("metrics root is an object");
    assert_eq!(
        root.get("schema").and_then(|v| v.as_str()),
        Some("usta-telemetry/v1")
    );
    let deterministic = root
        .get("deterministic")
        .and_then(|v| v.as_object())
        .expect("deterministic section is an object");
    let triples = deterministic
        .get("fleet.triples")
        .and_then(|v| v.as_f64())
        .expect("fleet.triples is a number");
    assert!(triples >= 2.0, "this test alone contributed 2 triples");
    assert!(root.get("wallclock").and_then(|v| v.as_object()).is_some());

    let trace = usta_telemetry::json::parse(&usta_telemetry::trace::chrome_trace_json())
        .expect("chrome trace parses");
    let events = trace
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "the sweep above emitted spans");
    // Chrome's renderer requires ts to be sorted within a thread row;
    // the exporter guarantees it per tid.
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for event in events {
        let obj = event.as_object().expect("event is an object");
        assert_eq!(obj.get("ph").and_then(|v| v.as_str()), Some("X"));
        let tid = obj.get("tid").and_then(|v| v.as_f64()).expect("tid") as u64;
        let ts = obj.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(obj.get("dur").and_then(|v| v.as_f64()).expect("dur") >= 0.0);
        if let Some(prev) = last_ts.insert(tid, ts) {
            assert!(ts >= prev, "ts must be monotone within tid {tid}");
        }
    }
}

/// Each `fleet.triple` span covers exactly one triple, so on one worker
/// the spans can never add up to more than the process ran. The sweep
/// runs in its own `fleet_sweep` process: the global registry here is
/// shared with every sibling test in this binary.
#[test]
fn triple_spans_fit_inside_a_single_thread_sweep() {
    let metrics = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("triple_spans.json");
    let start = std::time::Instant::now();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args(["--users", "10", "--seed", "42", "--threads", "1", "--quiet"])
        .arg("--metrics-json")
        .arg(&metrics)
        .output()
        .expect("fleet_sweep spawns");
    let wall_s = start.elapsed().as_secs_f64();
    assert!(output.status.success(), "fleet_sweep failed: {output:?}");

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let root = usta_telemetry::json::parse(&text).expect("metrics parse");
    let span = root
        .as_object()
        .and_then(|o| o.get("wallclock"))
        .and_then(|v| v.as_object())
        .and_then(|w| w.get("fleet.triple"))
        .and_then(|v| v.as_object())
        .expect("a fleet.triple histogram");
    let field = |name: &str| span.get(name).and_then(|v| v.as_f64()).expect(name);
    // 10 users x the default 4 scenarios.
    assert_eq!(field("count"), 40.0, "one span per triple");
    assert!(
        field("total_s") <= wall_s,
        "fleet.triple spans sum to {} s inside a {wall_s} s process",
        field("total_s")
    );
}
