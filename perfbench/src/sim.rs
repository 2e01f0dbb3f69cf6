//! `month` and `crowd`: the simulate pipeline, `u1_bench::run_scenario`,
//! which ends when the sorted trace is in hand.
//!
//! `month` is the paper-scaled 2,500 users x 30 days; `crowd` has ten times
//! the users over a tenth of the days, so the record count stays about the
//! same and only the working set grows.

use crate::check::{self, Checks};
use crate::span::Recorder;
use crate::stats::{median, ratio};
use crate::{
    measure, median_rate, metric, overhead_frac, peak_rss_mb, timed, Metric, Outcome, Params, Scale,
};
use crate::{Workload, Workload::Crowd, Workload::Month};
use u1_bench::{run_scenario, Scenario};
use u1_core::timing::PhaseNanos;
use u1_workload::{DriverReport, WorkloadConfig};

/// Set-ups per run; `setup_s` is their median. `month`'s set-up takes
/// ~0.1 s, so it repeats more often to hold its median steady.
fn setups(workload: Workload) -> usize {
    match workload {
        Month => 11,
        _ => 5,
    }
}

fn config(workload: Workload, params: &Params) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper_scaled();
    let (users, days) = match (workload, params.scale) {
        (Crowd, Scale::Full) => (25_000, 3),
        (Crowd, Scale::Tiny) => (300, 1),
        (_, Scale::Full) => (cfg.users, cfg.days),
        (_, Scale::Tiny) => (60, 3),
    };
    cfg.users = users;
    cfg.days = days;
    cfg.seed ^= params.seed;
    cfg.workers = params.threads;
    cfg
}

/// The golden hash this run must reproduce, if it has one.
fn pinned(workload: Workload, params: &Params) -> Option<&'static str> {
    if params.scale != Scale::Full || params.seed != 0 {
        return None;
    }
    match workload {
        Month => Some(check::MONTH_SHA),
        Crowd => Some(check::CROWD_SHA),
        _ => None,
    }
}

/// The first run's output, which every later run must repeat.
struct Reference {
    report: DriverReport,
    records: usize,
    hash: String,
}

impl Reference {
    fn of(scn: &Scenario) -> Self {
        Reference {
            report: scn.report.clone(),
            records: scn.records.len(),
            hash: check::trace_hash(&scn.records),
        }
    }

    fn expect_same(&self, scn: &Scenario, checks: &mut Checks) {
        checks.expect_eq(scn.records.len(), self.records, "records in a repeated run");
        checks.expect(scn.report == self.report, || {
            "driver report changed between repeated runs".to_string()
        });
        checks.expect_eq(
            check::trace_hash(&scn.records),
            self.hash.clone(),
            "trace hash of a repeated run",
        );
    }
}

pub fn run(workload: Workload, params: &Params) -> Outcome {
    let cfg = config(workload, params);
    let mut checks = Checks::default();

    // Set-up: the simulated population alone (users, seeded files, shares,
    // the first content epoch), i.e. the same scenario over zero days.
    let setup_s: Vec<f64> = (0..setups(workload))
        .map(|_| {
            let mut c = cfg.clone();
            c.days = 0;
            timed(|| run_scenario(c)).0
        })
        .collect();

    let mut reference: Option<Reference> = None;
    let mut peak = 0.0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let times = measure(
        params.seconds,
        || timed(|| run_scenario(cfg.clone())),
        |scn| {
            attempted += scn.report.ops_executed;
            failed += scn.report.trace_io_errors;
            match &reference {
                Some(r) => r.expect_same(&scn, &mut checks),
                None => {
                    // Later runs reuse the allocator's pages; the first
                    // one shows the pipeline's own peak.
                    peak = peak_rss_mb();
                    reference = Some(Reference::of(&scn));
                }
            }
        },
    );
    let reference = reference.expect("measure runs at least once");
    let per_run = reference.records as f64;
    let per_s = median_rate(times.iter().map(|&t| (per_run, t)));

    match pinned(workload, params) {
        Some(golden) => checks.expect_eq(reference.hash.as_str(), golden, "canonical trace hash"),
        None => {
            let mut one = cfg.clone();
            one.workers = 1;
            let scn = run_scenario(one);
            checks.expect_eq(
                check::trace_hash(&scn.records),
                reference.hash.clone(),
                "trace hash at 1 worker vs all workers",
            );
            checks.expect(scn.report == reference.report, || {
                "driver report at 1 worker differs from all workers".to_string()
            });
        }
    }

    let spans = params.trace.then(Recorder::new);
    let layers = match &spans {
        Some(rec) => traced(&cfg, params, rec, &reference, per_s, &mut checks),
        None => Vec::new(),
    };

    Outcome {
        checks,
        attempted,
        failed,
        e2e: vec![
            metric("setup_s", "s", median(&setup_s)),
            metric("throughput_per_s", "1/s", per_s),
            metric(
                "latency_p50_us",
                "us",
                median(&times) * 1e6 / reference.records as f64,
            ),
        ],
        named: vec![
            metric("peak_rss_mb", "MB", peak),
            metric("sim_records_per_s", "1/s", per_s),
            metric("sim_s", "s", median(&times)),
            metric("records_per_run", "count", reference.records as f64),
            metric("ops_per_run", "count", reference.report.ops_executed as f64),
            metric(
                "failed_frac",
                "ratio",
                ratio(failed as f64, attempted as f64),
            ),
        ],
        layers,
        spans,
    }
}

/// The traced run: the same scenario with a span around each call, and the
/// driver's and stores' own counters.
fn traced(
    cfg: &WorkloadConfig,
    params: &Params,
    rec: &Recorder,
    reference: &Reference,
    untraced_per_s: f64,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut phases = Vec::<PhaseNanos>::new();
    let mut records = 0u64;
    let mut stores: Vec<Metric> = Vec::new();
    let mut iteration = 0u64;
    let times = measure(
        params.seconds,
        || {
            iteration += 1;
            timed(|| {
                rec.time("run_scenario", None, iteration, || {
                    run_scenario(cfg.clone())
                })
            })
        },
        |scn| {
            records += scn.records.len() as u64;
            phases.push(scn.report.timing.0);
            reference.expect_same(&scn, checks);
            if stores.is_empty() {
                stores = store_layers(&scn);
            }
        },
    );
    let runs = phases.len() as f64;
    let sum = |f: fn(&PhaseNanos) -> u64| phases.iter().map(f).sum::<u64>() as f64;
    let run_ns = sum(|p| p.worker_run_nanos);
    let park_ns = sum(|p| p.barrier_park_nanos);
    let flush_ns = sum(|p| p.day_flush_nanos);
    let per_run = reference.records as f64;
    let traced_per_s = median_rate(times.iter().map(|&t| (per_run, t)));
    let mut v = vec![
        metric("driver.worker_run_s", "s", run_ns / runs / 1e9),
        metric(
            "driver.worker_run_ns_per_record",
            "ns",
            run_ns / records as f64,
        ),
        metric(
            "driver.barrier_park_frac",
            "ratio",
            ratio(park_ns, run_ns + park_ns + flush_ns),
        ),
        metric("driver.day_flush_s", "s", flush_ns / runs / 1e9),
        metric("driver.seal_s", "s", sum(|p| p.seal_nanos) / runs / 1e9),
        metric(
            "driver.coordinator_s",
            "s",
            sum(|p| p.coordinator_nanos) / runs / 1e9,
        ),
        metric("driver.ops", "count", reference.report.ops_executed as f64),
        metric(
            "trace.overhead_frac",
            "ratio",
            overhead_frac(untraced_per_s, traced_per_s),
        ),
        metric("trace.spans", "count", rec.len() as f64),
    ];
    v.extend(stores);
    v
}

/// Metastore and blobstore counters at the end of one month.
fn store_layers(scn: &Scenario) -> Vec<Metric> {
    let per_shard = scn.backend.store.users_per_shard();
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean = per_shard.iter().sum::<usize>() as f64 / per_shard.len().max(1) as f64;
    let blobs = &scn.blob_stats;
    vec![
        metric(
            "metastore.shard_users_max_over_mean",
            "ratio",
            ratio(max, mean),
        ),
        metric("metastore.dedup_ratio", "ratio", scn.store_dedup_ratio),
        metric(
            "metastore.contents",
            "count",
            scn.backend.store.content_count() as f64,
        ),
        metric("blobstore.put_ops", "count", blobs.put_ops as f64),
        metric("blobstore.get_ops", "count", blobs.get_ops as f64),
        metric(
            "blobstore.bytes_stored_per_uploaded_byte",
            "ratio",
            ratio(blobs.bytes_stored as f64, blobs.bytes_uploaded as f64),
        ),
        metric(
            "blobstore.multipart_aborted",
            "count",
            blobs.multipart_aborted as f64,
        ),
    ]
}
