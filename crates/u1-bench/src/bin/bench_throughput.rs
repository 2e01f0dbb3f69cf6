//! Throughput benchmark: the same `paper_scaled()` month replayed at
//! 1/2/4/8 worker threads.
//!
//! Writes `BENCH_throughput.json` (ops/sec, wall-clock, speedup vs the
//! single-worker run) so future changes have a performance trajectory to
//! beat, and cross-checks the determinism contract of the parallel driver:
//! every worker count produces the identical `DriverReport` **and** the
//! identical canonical trace (SHA-1 over every line in `(t, origin, seq)`
//! order).
//!
//! A final run with the auth token cache enabled measures
//! `token_cache_hit_rate`; its trace legitimately differs (cache hits skip
//! the `GetUserIdFromToken` rpc and auth records), so it is excluded from
//! the hash cross-check.
//!
//! Environment overrides: `U1_USERS`, `U1_DAYS`, `U1_SEED`, `U1_ATTACKS=0`
//! (same as the experiment harness), plus `U1_BENCH_WORKERS` as a
//! comma-separated list of worker counts (default `1,2,4,8`).
//!
//! `--faults <spec>` (or `U1_FAULTS=<spec>`) runs the whole benchmark under
//! an injected fault plan — `light`, `none`, or a `key=value` list such as
//! `shard=0.01,rpc=0.002,part=0.01,crash=0.005` (see
//! [`u1_core::fault::FaultPlan::parse`]). The determinism cross-checks
//! still apply: a seeded fault plan must produce the identical report and
//! trace at every worker count.

use serde_json::json;
use std::sync::Arc;
use std::time::Instant;
use u1_core::fault::FaultPlan;
use u1_core::{SimClock, SimDuration};
use u1_server::{Backend, BackendConfig};
use u1_trace::MemorySink;
use u1_workload::{Driver, DriverReport, WorkloadConfig};

#[global_allocator]
static ALLOC: u1_bench::mem::CountingAlloc = u1_bench::mem::CountingAlloc;

struct Run {
    label: &'static str,
    workers: usize,
    wall_secs: f64,
    ops: u64,
    records: u64,
    trace_hash: String,
    report: DriverReport,
}

fn run_once(
    mut cfg: WorkloadConfig,
    fault: &FaultPlan,
    label: &'static str,
    workers: usize,
    auth_cache: bool,
) -> Run {
    cfg.workers = workers;
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend_cfg = BackendConfig {
        seed: cfg.seed ^ 0xBACC,
        auth_cache_ttl: auth_cache.then(|| SimDuration::from_hours(8)),
        fault: fault.clone(),
        ..BackendConfig::default()
    };
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    let driver = Driver::new(cfg, Arc::clone(&backend), clock);
    let started = Instant::now();
    let report = driver.run();
    let wall_secs = started.elapsed().as_secs_f64();
    let records = sink.take_sorted();
    Run {
        label,
        workers,
        wall_secs,
        ops: report.ops_executed + report.attack_ops,
        records: records.len() as u64,
        trace_hash: u1_trace::trace_hash(&records),
        report,
    }
}

fn main() {
    // The 1-CPU-bench trap: speedup numbers from a single-core container are
    // meaningless (every worker count degenerates to ~1.0x). Record the host
    // parallelism FIRST and stamp every emitted row set with its validity.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scaling_valid = host_cpus >= 2;
    if !scaling_valid {
        eprintln!(
            "[throughput] WARNING: host has {host_cpus} cpu(s) — speedup \
             columns are NOT meaningful (scaling_valid=false); run on a \
             multi-core host to measure scaling"
        );
    }
    let cfg = u1_bench::config_from_env();
    // `--faults <spec>` / `U1_FAULTS=<spec>`: run under an injected fault
    // plan (default: faults off).
    let args: Vec<String> = std::env::args().collect();
    let fault_spec = args
        .iter()
        .position(|a| a == "--faults")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("U1_FAULTS").ok());
    let fault = match &fault_spec {
        Some(spec) => FaultPlan::parse(spec, SimDuration::from_days(cfg.days))
            .unwrap_or_else(|e| panic!("bad --faults spec {spec:?}: {e}")),
        None => FaultPlan::none(),
    };
    if let Some(spec) = &fault_spec {
        eprintln!("[throughput] fault plan: {spec}");
    }
    let worker_counts: Vec<usize> = std::env::var("U1_BENCH_WORKERS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .map(|w| w.trim().parse().expect("U1_BENCH_WORKERS must be integers"))
        .collect();

    let mut runs: Vec<Run> = Vec::new();
    for &w in &worker_counts {
        runs.push(run_once(cfg.clone(), &fault, "default", w, false));
        let run = runs.last().unwrap();
        eprintln!(
            "[throughput] workers={} wall={:.2}s ops/s={:.0}",
            run.workers,
            run.wall_secs,
            run.ops as f64 / run.wall_secs
        );
    }

    // Determinism cross-check: the worker count may not change what
    // happened or what was traced.
    let deterministic = runs.windows(2).all(|w| {
        w[0].report == w[1].report
            && w[0].records == w[1].records
            && w[0].trace_hash == w[1].trace_hash
    });
    assert!(
        deterministic,
        "DriverReport or canonical trace differs across worker counts — determinism violated"
    );

    // Auth-cache run: same workload with the memcached-analogue token cache
    // enabled, to record the hit rate and the fast-path throughput.
    let cached = run_once(cfg.clone(), &fault, "auth-cached", worker_counts[0], true);
    let cache_lookups = cached.report.token_cache_hits + cached.report.token_cache_misses;
    let token_cache_hit_rate = if cache_lookups == 0 {
        0.0
    } else {
        cached.report.token_cache_hits as f64 / cache_lookups as f64
    };
    eprintln!(
        "[throughput] workers={} auth-cached wall={:.2}s ops/s={:.0} hit_rate={:.3}",
        cached.workers,
        cached.wall_secs,
        cached.ops as f64 / cached.wall_secs,
        token_cache_hit_rate
    );

    let base = &runs[0];
    let mut human = String::new();
    human.push_str(&format!(
        "{} users x {} days (seed {:#x}), {} trace records, hash {}\n",
        cfg.users, cfg.days, cfg.seed, base.records, base.trace_hash
    ));
    human.push_str(&format!(
        "host cpus: {host_cpus} (scaling columns {})\n",
        if scaling_valid {
            "valid"
        } else {
            "NOT VALID — single-core host"
        }
    ));
    human.push_str("workers  mode        wall(s)   ops/s     speedup   park%\n");
    let mut rows: Vec<serde_json::Value> = Vec::new();
    for r in runs.iter().chain([&cached]) {
        let ops_per_sec = r.ops as f64 / r.wall_secs;
        let speedup = base.wall_secs / r.wall_secs;
        // Phase accounting: thread-seconds per phase, measured inside the
        // driver (see DESIGN.md §13). Park% is the share of worker thread
        // time spent waiting at day barriers.
        let t = &*r.report.timing;
        let worker_total = (t.worker_run_nanos + t.barrier_park_nanos).max(1);
        human.push_str(&format!(
            "{:>7}  {:<10}  {:>7.2}  {:>8.0}  {:>6.2}x  {:>5.1}\n",
            r.workers,
            r.label,
            r.wall_secs,
            ops_per_sec,
            speedup,
            100.0 * t.barrier_park_nanos as f64 / worker_total as f64,
        ));
        rows.push(json!({
            "workers": r.workers,
            "mode": r.label,
            "wall_secs": r.wall_secs,
            "ops": r.ops,
            "ops_per_sec": ops_per_sec,
            "speedup_vs_serial": speedup,
            "phase_nanos": *t,
        }));
    }
    human.push_str(&format!(
        "token cache hit rate: {token_cache_hit_rate:.3}\n"
    ));
    human.push_str(&format!(
        "peak rss: {}, allocator peak: {}\n",
        u1_core::ByteSize(u1_bench::mem::peak_rss_bytes().unwrap_or(0)),
        u1_core::ByteSize(u1_bench::mem::alloc_peak_bytes()),
    ));
    if !fault.is_none() {
        let r = &base.report;
        human.push_str(&format!(
            "faults: rpc_timeouts {} retries {} client_retries {} \
             uploads interrupted/resumed/abandoned {}/{}/{} rescans {}\n",
            r.rpc_timeouts,
            r.rpc_retries,
            r.client_retries,
            r.uploads_interrupted,
            r.uploads_resumed,
            r.uploads_abandoned,
            r.rescans_forced,
        ));
    }
    u1_bench::emit(
        "BENCH_throughput",
        &human,
        &json!({
            "config": {
                "users": cfg.users,
                "days": cfg.days,
                "seed": cfg.seed,
                "attacks": cfg.attacks,
                "faults": fault_spec,
            },
            "host_cpus": host_cpus,
            "scaling_valid": scaling_valid,
            "peak_rss_bytes": u1_bench::mem::peak_rss_bytes().unwrap_or(0),
            "alloc_peak_bytes": u1_bench::mem::alloc_peak_bytes(),
            "trace_records": base.records,
            "trace_hash": base.trace_hash,
            "deterministic_across_worker_counts": deterministic,
            "token_cache_hit_rate": token_cache_hit_rate,
            "runs": rows,
        }),
    );
}
