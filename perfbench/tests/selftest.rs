//! Self-tests of the benchmark's own machinery: percentiles and the tail
//! rule, failure accounting, argument errors, seeds, span self times and
//! the metric tables `BENCHMARK.json` declares.

use std::process::Command;
use std::sync::Arc;

use lams_core::{ArrivalPlan, ArtifactCache};
use lams_perfbench::batch::{run_unit, run_unit_traced, BatchPlan, OpenConfig};
use lams_perfbench::cli::{self, WorkloadName};
use lams_perfbench::report::{Output, END_TO_END, PER_LAYER};
use lams_perfbench::serve::{pool, RequestStream};
use lams_perfbench::spans::Tracer;
use lams_perfbench::stats::{
    best_per_key, nearest_rank, tail_percentile_milli, Dist, Reply, Tally,
};
use lams_serve::{execute_work, Request, Work};
use lams_workloads::Workload;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 50_000), 5.0);
    assert_eq!(nearest_rank(&v, 90_000), 9.0);
    assert_eq!(nearest_rank(&v, 91_000), 10.0);
    assert_eq!(nearest_rank(&v, 99_900), 10.0);
    assert_eq!(nearest_rank(&v, 10_000), 1.0);
    assert_eq!(nearest_rank(&v, 1), 1.0);
    assert_eq!(nearest_rank(&[7.0], 50_000), 7.0);
    // Unsorted input is sorted by Dist.
    let d = Dist::of(&[3.0, 1.0, 2.0]);
    assert_eq!(d.p50, 2.0);
    assert_eq!(d.n, 3);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile_milli(19), None);
    assert_eq!(tail_percentile_milli(20), Some(50_000));
    assert_eq!(tail_percentile_milli(100), Some(90_000));
    assert_eq!(tail_percentile_milli(450), Some(97_000));
    assert_eq!(tail_percentile_milli(1000), Some(99_000));
    assert_eq!(tail_percentile_milli(10_000), Some(99_900));
    for n in 20..3000 {
        let p = tail_percentile_milli(n).expect("n >= 20");
        let rank = (p * n as u64).div_ceil(100_000);
        assert!(n as u64 - rank >= 10, "n={n} p={p}");
    }
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let d = Dist::of(&samples);
    assert_eq!((d.tail, d.tail_pct), (90.0, 90.0));
    // Too few samples for any percentile: the maximum, at 100.
    let d = Dist::of(&[1.0, 9.0, 4.0]);
    assert_eq!((d.tail, d.tail_pct), (9.0, 100.0));
}

#[test]
fn best_time_per_operation() {
    let samples = [(0, 5.0), (2, 9.0), (0, 3.0), (0, 4.0)];
    // Key 1 was never sampled and is left out.
    assert_eq!(best_per_key(samples, 3), vec![3.0, 9.0]);
    // An operation that failed in any sample reads infinite, whichever
    // order its failures and successes came in, so it misses every
    // latency bound.
    for samples in [
        [(0, 2.0), (1, 9.0), (1, f64::INFINITY), (1, 4.0)],
        [(0, 2.0), (1, f64::INFINITY), (1, 9.0), (1, 4.0)],
    ] {
        assert_eq!(best_per_key(samples, 2), vec![2.0, f64::INFINITY]);
    }
    assert_eq!(best_per_key([(0, f64::INFINITY)], 1), vec![f64::INFINITY]);
}

#[test]
fn busy_and_err_replies_count_as_failed_and_miss_every_bound() {
    let ok = Reply::parse("ok id=r1 app=shape policy=ls makespan=1234 cache_hits=9");
    assert!(ok.is_ok());
    assert_eq!(ok.u64_field("makespan"), Some(1234));
    let busy = Reply::parse("err id=r2 code=busy queue full");
    assert_eq!(
        busy,
        Reply::Failed {
            id: Some("r2".into()),
            code: "busy".into()
        }
    );
    let err = Reply::parse("err id=- code=bad_request unknown verb");
    assert!(!err.is_ok());
    assert!(!Reply::parse("garbage").is_ok());
    assert_eq!(busy.u64_field("makespan"), None);

    let mut tally = Tally::default();
    for r in [&ok, &busy, &err] {
        tally.record(r.is_ok());
    }
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!((tally.error_rate() - 2.0 / 3.0).abs() < 1e-12);

    // A failed request's latency is infinite: it lands in the tail.
    let mut lat: Vec<f64> = (1..=30).map(f64::from).collect();
    lat.push(f64::INFINITY);
    let d = Dist::of(&lat);
    assert!(d.p50.is_finite());
    assert_eq!(Dist::of(&[f64::INFINITY; 25]).tail, f64::INFINITY);
}

#[test]
fn usage_errors() {
    let good = cli::parse(&args(&[
        "--workload",
        "serve-mix",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]))
    .expect("valid arguments");
    assert_eq!(good.workload, WorkloadName::ServeMix);
    assert_eq!((good.seed, good.seconds, good.trace), (7, 3, true));
    assert!(!good.setup_only);
    let setup = cli::parse(&args(&[
        "--setup-only",
        "--workload",
        "fig6-huge",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "0",
    ]))
    .expect("valid arguments");
    assert!(setup.setup_only);

    let bad = [
        (
            &["--workload", "fig7", "--seed", "1"][..],
            "unknown workload",
        ),
        (
            &["--workload", "fig6-huge", "--seed", "12x"],
            "malformed seed",
        ),
        (
            &["--workload", "fig6-huge", "--seed", "-1"],
            "malformed seed",
        ),
        (&["--workload", "fig6-huge"], "--seed is required"),
        (
            &["--workload", "fig6-huge", "--seed", "1"],
            "--seconds is required",
        ),
        (
            &["--workload", "fig6-huge", "--seed", "1", "--seed", "2"],
            "twice",
        ),
        (
            &["--workload", "fig6-huge", "--seed", "1", "--trace", "2"],
            "trace",
        ),
        (
            &["--workload", "fig6-huge", "--seed", "1", "--seconds", "0"],
            "seconds",
        ),
        (
            &["--workload", "fig6-huge", "--seed", "1", "--bogus", "1"],
            "unknown flag",
        ),
        (&["--workload"], "needs a value"),
        (&["--setup-only", "--setup-only"], "twice"),
    ];
    for (argv, want) in bad {
        let e = cli::parse(&args(argv)).expect_err("must be rejected");
        assert!(e.contains(want), "{argv:?}: {e}");
    }

    // The binary rejects them with a usage error, exit code 2 and no
    // result line.
    for argv in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "open-pipeline", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(argv)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

/// A pipeline small enough for a test, shaped like the benchmark's.
const SMALL_OPEN: OpenConfig = OpenConfig {
    app_seed: 0xC0FFEE,
    stages: 3,
    procs_per_stage: 6,
    dim: 24,
    load_milli: 900,
};

#[test]
fn another_seed_gives_other_inputs_that_pass_the_same_checks() {
    let mut checksums = Vec::new();
    let mut mixes = Vec::new();
    for seed in [1u64, 2] {
        // Open pipeline: the arrival plan differs, the unit is
        // repeatable, and the traced decomposition simulates exactly
        // what the untraced unit does.
        let plan = BatchPlan::open_pipeline(SMALL_OPEN, seed);
        let phase = &plan.phases[0];
        let w = Workload::single(phase.apps[0].clone()).expect("valid synthetic app");
        let service: Vec<u64> = w.process_ids().map(|p| w.trace_len(p)).collect();
        let arrivals = phase.arrivals.expect("open system");
        checksums.push(ArrivalPlan::generate(arrivals, &service, 8).checksum());
        let mut lat = Vec::new();
        let first = run_unit(&plan, &mut lat).expect("unit runs");
        assert_eq!(lat.len(), plan.jobs_per_unit());
        assert_eq!(first, run_unit(&plan, &mut lat).expect("unit runs"));
        let mut tr = Tracer::new();
        let (traced, counts) = run_unit_traced(&plan, &mut tr, 0).expect("traced unit runs");
        assert_eq!(first, traced);
        assert!(counts.trace_ops > 0 && first.sojourn_p99 > 0);

        // Serve mix: the request stream differs, and the daemon's
        // execute path agrees with the in-process experiment.
        let scenarios = pool(seed);
        let mut stream = RequestStream::new(seed, scenarios.len());
        let mix: Vec<String> = (0..12)
            .map(|i| scenarios[stream.next_index()].line(&format!("q{i}")))
            .collect();
        let cache = Arc::new(ArtifactCache::new());
        let memo = ArtifactCache::shared();
        for line in mix.iter().take(4) {
            let Ok(Some(Request::Run(req))) = Request::parse(line) else {
                panic!("{line} must parse as run");
            };
            let scenario = scenarios
                .iter()
                .find(|s| s.line(&req.id) == *line)
                .expect("line comes from the pool");
            let reply = Reply::parse(&execute_work(&Work::Run(req), None, &cache).to_string());
            let want = scenario.expected(&memo).expect("scenario runs");
            assert_eq!(
                reply.u64_field("makespan"),
                Some(want.makespan_cycles),
                "{line}"
            );
        }
        mixes.push(mix);
    }
    assert_ne!(
        checksums[0], checksums[1],
        "arrival plans must differ by seed"
    );
    assert_ne!(mixes[0], mixes[1], "request mixes must differ by seed");
    assert_ne!(pool(1), pool(2));
}

#[test]
fn self_time_subtracts_children_and_unions_overlaps() {
    use std::time::{Duration, Instant};
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let root = tr.push("unit", (at(0), at(100)), None, 0, "");
    let a = tr.push("layer.a", (at(10), at(40)), Some(root), 1, "");
    tr.push("layer.b", (at(30), at(60)), Some(root), 2, "");
    tr.push("layer.c", (at(15), at(25)), Some(a), 1, "");
    let ms: Vec<f64> = tr.self_ns().iter().map(|&n| n as f64 / 1e6).collect();
    // Root: 100 - union([10,40], [30,60]) = 50; a: 30 - 10 = 20.
    assert!((ms[0] - 50.0).abs() < 0.01, "{ms:?}");
    assert!((ms[1] - 20.0).abs() < 0.01, "{ms:?}");
    assert!((tr.attributed_ms_per_unit(&[])[0] - 60.0).abs() < 0.01);
    assert!((tr.attributed_ms_per_unit(&["layer.b"])[0] - 30.0).abs() < 0.01);
    assert!((tr.self_ms_per_unit("layer.c")[0] - 10.0).abs() < 0.01);
    assert_eq!(tr.self_ms_per_unit("missing"), vec![0.0]);

    let mut nested = Tracer::new();
    let outer = nested.enter("unit", "u");
    let v = nested.time("inner", "x", || 41 + 1);
    nested.exit(outer);
    assert_eq!(v, 42);
    assert_eq!(nested.spans()[1].parent, Some(0));
    let json = lams_perfbench::spans::chrome_trace(&[("t", &nested)], &[("seed", "9".into())]);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"inner\"") && json.contains("\"seed\":\"9\""));
}

#[test]
fn result_line_shape() {
    let mut values = lams_perfbench::report::Values::new();
    for (name, _) in END_TO_END {
        values.insert(name, 1.5);
    }
    values.insert("sim_makespan_cycles", 12.0);
    let out = Output {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: Output::select(&values, &END_TO_END, true),
    };
    let json = out.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    assert!(json.contains("\"sim_makespan_cycles\": {\"value\": 12, \"unit\": \"cycles\"}"));
    // Per-layer metrics a workload does not exercise read 0.
    let layers = Output::select(&values, &PER_LAYER, false);
    assert_eq!(layers.len(), PER_LAYER.len());
}

#[test]
fn metric_tables_match_benchmark_json() {
    let spec = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"better\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the benchmark does not print"
    );
    for w in WorkloadName::ALL {
        assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}
