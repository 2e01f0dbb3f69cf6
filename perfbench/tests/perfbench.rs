//! Tests of the benchmark's own code: order statistics, span self time, the
//! transport probe's transparency, and a tiny run of every workload.

use perfbench::probe::Tap;
use perfbench::span::{Recorder, Span};
use perfbench::stats::{beyond, median, percentile, rank, supported_percentile, MIN_BEYOND};
use perfbench::{per_layer_names, serve, Params, Scale, Workload, END_TO_END};
use std::path::PathBuf;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), Some(50));
    assert_eq!(percentile(&v, 99.0), Some(99));
    assert_eq!(percentile(&v, 100.0), Some(100));
    assert_eq!(percentile(&v, 0.0), Some(1));
    assert_eq!(percentile(&[10, 20, 30], 50.0), Some(20));
    assert_eq!(percentile(&[7], 99.0), Some(7));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(rank(3, 50.0), 2);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    let v: Vec<u64> = (1..=1000).collect();
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(supported_percentile(&v, 99.0), Some(990));
    // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond it.
    assert_eq!(beyond(999, 99.0), 9);
    assert_eq!(supported_percentile(&v[..999], 99.0), None);
    assert_eq!(supported_percentile(&v[..20], 50.0), Some(10));
    assert_eq!(supported_percentile(&v[..19], 50.0), None);
    assert_eq!(beyond(0, 50.0), 0);
}

#[test]
fn median_of_run_figures() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        req: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let rec = Recorder::new();
    let root = rec.push(span("root", 0, 100, None));
    // Two overlapping children cover [10, 50); one runs past the parent's
    // end and counts only up to it; a grandchild does not touch the root.
    let a = rec.push(span("a", 10, 30, Some(root)));
    rec.push(span("b", 20, 50, Some(root)));
    rec.push(span("c", 90, 120, Some(root)));
    rec.push(span("d", 12, 18, Some(a)));
    let selfs = rec.self_times();
    assert_eq!(selfs, vec![50, 14, 30, 30, 6]);
    assert_eq!(rec.total_self("root"), 50);
    assert_eq!(rec.total("b"), 30);
}

#[test]
fn nested_spans_from_the_clock_are_consistent() {
    let rec = Recorder::new();
    let root = rec.open("root", None, 1);
    let x = rec.time("child", Some(root), 1, || (0..1000u64).sum::<u64>());
    rec.close(root);
    assert_eq!(x, 499_500);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    let selfs = rec.self_times();
    assert_eq!(selfs[0] + spans[1].nanos(), spans[0].nanos());
}

fn tiny(trace: bool) -> Params {
    Params {
        seed: 3,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        threads: 2,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

#[test]
fn probed_fleet_matches_the_unprobed_one() {
    let cfg = serve::fleet_config(&tiny(false), 0);
    let plain = serve::run_direct(&cfg, None);
    assert!(plain.report.ops_executed > 0);
    let traced = Tap::new(true);
    let direct = serve::run_direct(&cfg, Some(&traced));
    assert_eq!(direct.report, plain.report);
    assert_eq!(direct.hash, plain.hash);
    // Every exchange was noted, and each one's span hangs off the fleet run.
    let rec = traced.recorder().expect("traced tap");
    assert_eq!(rec.len(), traced.samples().len() + 1);
    assert!(rec.spans()[1..].iter().all(|s| s.parent.is_some()));

    let untraced = Tap::new(false);
    let tcp = serve::run_tcp(&cfg, Some(&untraced));
    assert_eq!(tcp.report, plain.report);
    assert_eq!(tcp.hash, plain.hash);
    let (stats, _) = tcp.wire.expect("reactor figures");
    assert_eq!(stats.refused_throttle + stats.refused_capacity, 0);
    assert_eq!(untraced.samples().len(), traced.samples().len());
}

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let params = tiny(trace);
        let out = perfbench::run(workload, &params);
        assert!(
            out.checks.passed(),
            "{:?}: {:?}",
            workload,
            out.checks.failures()
        );
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);
        for (name, unit) in END_TO_END {
            let m = out.e2e.iter().find(|m| m.name == name).expect(name);
            assert_eq!(m.unit, unit);
            assert!(m.value.is_finite() && m.value > 0.0, "{name} = {}", m.value);
        }
        let names = per_layer_names();
        assert_eq!(out.layers.is_empty(), !trace);
        for m in &out.layers {
            assert!(
                names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "{}",
                m.name
            );
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        assert_eq!(out.spans.is_some(), trace);
    }
}

#[test]
fn month_runs_tiny() {
    smoke(Workload::Month);
}

#[test]
fn crowd_runs_tiny() {
    smoke(Workload::Crowd);
}

#[test]
fn analyze_runs_tiny() {
    smoke(Workload::Analyze);
}

#[test]
fn serve_runs_tiny() {
    smoke(Workload::Serve);
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return;
    };
    for (name, _) in END_TO_END {
        assert!(json.contains(&format!("\"{name}\"")), "{name}");
    }
    for (name, _) in per_layer_names() {
        assert!(json.contains(&format!("\"{name}\"")), "{name}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"{}\"", w.name())), "{}", w.name());
    }
}
