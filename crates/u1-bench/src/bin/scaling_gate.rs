//! CI scaling gate: fails (exit 1) when the multi-core speedup of any of
//! the three parallel paths drops below its pinned floor.
//!
//! The three paths and their default floors (4 workers/threads vs 1, on a
//! ≥ 4-core host):
//!
//! * driver replay (`Driver::run` at `workers = 4`)      — ≥ 2.5x
//! * logfile parse (`LogDirReader::read_all_parallel`)   — ≥ 1.8x
//! * chunked analytics (`run_all_chunked` at 4 threads)  — ≥ 2.5x
//!
//! Measures in-process (best-of-`U1_GATE_REPS`, default 2, to absorb
//! scheduler noise) rather than parsing bench JSON, so the gate needs no
//! JSON reader and cannot drift from the benches' output schema.
//!
//! On a host with fewer than 4 CPUs the gate prints a warning and exits 0 —
//! a single- or dual-core container cannot exhibit 4-way scaling, and a
//! fake failure there would train people to ignore the gate (see the
//! `scaling_valid` flag the benches emit for the same reason).
//!
//! Environment overrides: `U1_USERS` / `U1_DAYS` / `U1_SEED` (workload
//! size; defaults 600 x 4), `U1_GATE_REPS`, and the floors
//! `U1_GATE_DRIVER_FLOOR`, `U1_GATE_PARSE_FLOOR`, `U1_GATE_CHUNKED_FLOOR`.

use std::sync::Arc;
use std::time::Instant;
use u1_analytics::engine::{run_all_chunked, EngineReport};
use u1_core::SimClock;
use u1_server::{Backend, BackendConfig};
use u1_trace::logfile::LogDirReader;
use u1_trace::{DirSink, MemorySink, TraceRecord, TraceSink};
use u1_workload::{Driver, WorkloadConfig};

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Wall-clock of the fastest of `reps` runs of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

fn run_driver(cfg: &WorkloadConfig, workers: usize) -> Vec<TraceRecord> {
    let mut cfg = cfg.clone();
    cfg.workers = workers;
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend_cfg = BackendConfig {
        seed: cfg.seed ^ 0xBACC,
        ..BackendConfig::default()
    };
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    Driver::new(cfg, backend, clock).run();
    sink.take_sorted()
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if host_cpus < 4 {
        eprintln!(
            "[scaling-gate] SKIP: host has {host_cpus} cpu(s); 4-way scaling \
             floors need a >= 4-core host (scaling_valid=false)"
        );
        return;
    }
    let reps: usize = env_or("U1_GATE_REPS", 2);
    let driver_floor: f64 = env_or("U1_GATE_DRIVER_FLOOR", 2.5);
    let parse_floor: f64 = env_or("U1_GATE_PARSE_FLOOR", 1.8);
    let chunked_floor: f64 = env_or("U1_GATE_CHUNKED_FLOOR", 2.5);

    let mut cfg = WorkloadConfig::paper_scaled();
    cfg.users = env_or("U1_USERS", 600);
    cfg.days = env_or("U1_DAYS", 4);
    cfg.seed = env_or("U1_SEED", cfg.seed);

    // Driver replay: workers=1 vs workers=4.
    let driver_serial = best_of(reps, || {
        run_driver(&cfg, 1);
    });
    let driver_parallel = best_of(reps, || {
        run_driver(&cfg, 4);
    });
    let driver_speedup = driver_serial / driver_parallel;
    eprintln!(
        "[scaling-gate] driver: 1w {driver_serial:.2}s, 4w {driver_parallel:.2}s \
         -> {driver_speedup:.2}x (floor {driver_floor:.2}x)"
    );

    // One trace for the parse and analytics paths.
    let records = run_driver(&cfg, 4);
    let backend_defaults = BackendConfig::default();
    let engine_cfg = u1_analytics::engine::EngineConfig::new(
        cfg.horizon(),
        backend_defaults.cluster.machines as usize,
        backend_defaults.store.shards as usize,
    );

    // Logfile parse: serial vs byte-range parallel over the dumped trace.
    let log_dir = u1_bench::out_dir().join("scaling-gate-logs");
    let _ = std::fs::remove_dir_all(&log_dir);
    let sink = DirSink::create(&log_dir).expect("create log dir");
    for rec in &records {
        sink.record(rec.clone());
    }
    sink.flush();
    assert_eq!(sink.io_errors(), 0, "log dump hit I/O errors");
    let reader = LogDirReader::new(&log_dir);
    let parse_serial = best_of(reps, || {
        std::hint::black_box(reader.read_all().expect("serial read"));
    });
    let parse_parallel = best_of(reps, || {
        std::hint::black_box(reader.read_all_parallel(4).expect("parallel read"));
    });
    let _ = std::fs::remove_dir_all(&log_dir);
    let parse_speedup = parse_serial / parse_parallel;
    eprintln!(
        "[scaling-gate] parse: serial {parse_serial:.2}s, x4 {parse_parallel:.2}s \
         -> {parse_speedup:.2}x (floor {parse_floor:.2}x)"
    );

    // Chunked analytics: 1 thread vs 4 threads.
    let chunked_serial = best_of(reps, || {
        std::hint::black_box::<EngineReport>(run_all_chunked(&records, &engine_cfg, 1));
    });
    let chunked_parallel = best_of(reps, || {
        std::hint::black_box::<EngineReport>(run_all_chunked(&records, &engine_cfg, 4));
    });
    let chunked_speedup = chunked_serial / chunked_parallel;
    eprintln!(
        "[scaling-gate] chunked: x1 {chunked_serial:.2}s, x4 {chunked_parallel:.2}s \
         -> {chunked_speedup:.2}x (floor {chunked_floor:.2}x)"
    );

    let mut failed = false;
    for (name, got, floor) in [
        ("driver", driver_speedup, driver_floor),
        ("parse", parse_speedup, parse_floor),
        ("chunked", chunked_speedup, chunked_floor),
    ] {
        if got < floor {
            eprintln!(
                "[scaling-gate] FAIL: {name} speedup {got:.2}x is below the \
                 pinned floor {floor:.2}x"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("[scaling-gate] OK: all parallel paths at or above their pinned floors");
}
