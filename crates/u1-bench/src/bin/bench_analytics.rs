//! Analytics benchmark: the Table-3/figure battery over the bench trace as
//! one streaming [`u1_analytics::engine::run_all`] pass, the chunk-parallel
//! pass at several thread counts, and the logfile parse path (the serial
//! `LogDirReader::read_all` against draining `LogDirReader::day_chunks`).
//!
//! Writes `BENCH_analytics.json` with wall times, records/sec, parse
//! throughput and thread scaling, and cross-checks that every mode produces
//! the identical analysis (scalar outputs compared bit-for-bit) and the
//! identical parsed records.
//!
//! Environment overrides: `U1_USERS`, `U1_DAYS`, `U1_SEED`, `U1_ATTACKS=0`
//! (same as the experiment harness), plus `U1_BENCH_THREADS` as a
//! comma-separated list of chunk-parallel thread counts (default `1,2,4,8`).

use serde_json::json;
use std::time::Instant;
use u1_analytics::engine::{
    fold_chunked_into, host_clamped, plan_chunk_count, run_all, Battery, TraceFold,
};
use u1_bench::Fingerprint;
use u1_core::timing::{Phase, PhaseTimers};
use u1_trace::logfile::LogDirReader;
use u1_trace::{DirSink, ParseStats, TraceSink};

#[global_allocator]
static ALLOC: u1_bench::mem::CountingAlloc = u1_bench::mem::CountingAlloc;

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn main() {
    // The 1-CPU-bench trap: thread-scaling numbers from a single-core host
    // are meaningless. Record host parallelism FIRST and stamp the output.
    let host_cpus = std::thread::available_parallelism()
        .map(|nz| nz.get())
        .unwrap_or(1);
    let scaling_valid = host_cpus >= 2;
    if !scaling_valid {
        eprintln!(
            "[analytics] WARNING: host has {host_cpus} cpu(s) — thread-scaling \
             columns are NOT meaningful (scaling_valid=false); run on a \
             multi-core host to measure scaling"
        );
    }
    let scenario = u1_bench::scenario_from_env();
    let cfg = u1_bench::engine_config(&scenario);
    let records = &scenario.records;
    let n = records.len();
    let thread_counts: Vec<usize> = std::env::var("U1_BENCH_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .map(|w| w.trim().parse().expect("U1_BENCH_THREADS must be integers"))
        .collect();

    // Streaming single pass.
    let started = Instant::now();
    let report = run_all(records, &cfg);
    let streaming_secs = started.elapsed().as_secs_f64();
    let streaming_fp = Fingerprint::of(&report);
    eprintln!(
        "[analytics] streaming battery: 1 record pass, {streaming_secs:.2}s \
         ({:.0} records/s)",
        n as f64 / streaming_secs
    );

    // Chunk-parallel scaling, with per-phase accounting (fold thread-seconds
    // vs merge seconds — merge is the serial tail the tree merge shrinks).
    let mut scaling: Vec<(usize, f64, u64, u64)> = Vec::new();
    for &threads in &thread_counts {
        let timers = PhaseTimers::new();
        let started = Instant::now();
        let mut battery = Battery::new(&cfg);
        fold_chunked_into(&mut battery, records, threads, &timers);
        let chunked = battery.finish();
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(
            Fingerprint::of(&chunked),
            streaming_fp,
            "chunk-parallel battery at {threads} threads disagrees with serial"
        );
        let fold_nanos = timers.get(Phase::Fold);
        let merge_nanos = timers.get(Phase::Merge);
        eprintln!(
            "[analytics] chunked threads={threads} (chunks={}): {secs:.2}s \
             ({:.0} records/s, {:.2}x vs serial; fold {:.2}ts, merge {:.3}s)",
            plan_chunk_count(n, host_clamped(threads)),
            n as f64 / secs,
            streaming_secs / secs,
            fold_nanos as f64 / 1e9,
            merge_nanos as f64 / 1e9,
        );
        scaling.push((threads, secs, fold_nanos, merge_nanos));
    }

    // Logfile parse path: dump the trace as per-(machine, process, day)
    // logfiles, then read it back serially and day by day in parallel.
    let log_dir = u1_bench::out_dir().join("bench-analytics-logs");
    let _ = std::fs::remove_dir_all(&log_dir);
    let sink = DirSink::create(&log_dir).expect("create log dir");
    let started = Instant::now();
    for rec in records {
        sink.record(rec.clone());
    }
    sink.flush();
    let write_secs = started.elapsed().as_secs_f64();
    assert_eq!(sink.io_errors(), 0, "log dump hit I/O errors");
    let trace_bytes = dir_bytes(&log_dir);

    let reader = LogDirReader::new(&log_dir);
    let started = Instant::now();
    let (serial_records, serial_stats) = reader.read_all().expect("serial read");
    let parse_serial_secs = started.elapsed().as_secs_f64();
    // Each day chunk is checked against its run of the serial records as
    // it arrives and then dropped, so no third copy of the month is held;
    // the timer covers only the `next_day` calls.
    let parse_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let mut chunks = reader.day_chunks(parse_threads).expect("day chunks");
    let mut parse_parallel = std::time::Duration::ZERO;
    let mut par_stats = ParseStats {
        skipped_files: chunks.skipped_files(),
        ..ParseStats::default()
    };
    let mut par_len = 0;
    loop {
        let started = Instant::now();
        let next = chunks.next_day();
        parse_parallel += started.elapsed();
        let Some(chunk) = next else { break };
        let chunk = chunk.expect("read day chunk");
        par_stats.absorb(&chunk.stats);
        let end = par_len + chunk.records.len();
        assert!(
            serial_records.get(par_len..end) == Some(&chunk.records[..]),
            "parallel parse records differ in records {par_len}..{end}"
        );
        par_len = end;
    }
    let parse_parallel_secs = parse_parallel.as_secs_f64();
    let parse_phases = chunks.phases();
    assert_eq!(par_stats, serial_stats, "parallel parse stats differ");
    assert_eq!(
        par_len,
        serial_records.len(),
        "parallel parse records differ"
    );
    assert_eq!(serial_stats.parsed, n, "parse round-trip lost records");
    let _ = std::fs::remove_dir_all(&log_dir);
    eprintln!(
        "[analytics] parse: {} files, {:.1} MB; serial {parse_serial_secs:.2}s \
         ({:.0} rec/s, {:.1} MB/s), parallel x{parse_threads} {parse_parallel_secs:.2}s ({:.2}x)",
        serial_stats.files,
        trace_bytes as f64 / 1e6,
        n as f64 / parse_serial_secs,
        trace_bytes as f64 / 1e6 / parse_serial_secs,
        parse_serial_secs / parse_parallel_secs,
    );

    let mut human = String::new();
    human.push_str(&format!(
        "{} users x {} days (seed {:#x}), {} trace records\n",
        scenario.cfg.users, scenario.cfg.days, scenario.cfg.seed, n
    ));
    human.push_str(&format!(
        "host cpus: {host_cpus} (scaling columns {})\n",
        if scaling_valid {
            "valid"
        } else {
            "NOT VALID — single-core host"
        }
    ));
    human.push_str(&format!(
        "peak rss: {}, allocator peak: {}\n",
        u1_core::ByteSize(u1_bench::mem::peak_rss_bytes().unwrap_or(0)),
        u1_core::ByteSize(u1_bench::mem::alloc_peak_bytes()),
    ));
    human.push_str(&format!(
        "streaming battery    1 pass    {streaming_secs:>7.2}s\n"
    ));
    for &(threads, secs, fold_nanos, merge_nanos) in &scaling {
        human.push_str(&format!(
            "chunked x{threads:<2}                      {secs:>7.2}s  {:>5.2}x vs serial streaming \
             (fold {:.2}ts, merge {:.3}s)\n",
            streaming_secs / secs,
            fold_nanos as f64 / 1e9,
            merge_nanos as f64 / 1e9,
        ));
    }
    human.push_str(&format!(
        "parse: serial {parse_serial_secs:.2}s, day chunks x{parse_threads} {parse_parallel_secs:.2}s \
         over {:.1} MB in {} files\n",
        trace_bytes as f64 / 1e6,
        serial_stats.files,
    ));
    u1_bench::emit(
        "BENCH_analytics",
        &human,
        &json!({
            "config": {
                "users": scenario.cfg.users,
                "days": scenario.cfg.days,
                "seed": scenario.cfg.seed,
                "attacks": scenario.cfg.attacks,
            },
            "host_cpus": host_cpus,
            "scaling_valid": scaling_valid,
            "peak_rss_bytes": u1_bench::mem::peak_rss_bytes().unwrap_or(0),
            "alloc_peak_bytes": u1_bench::mem::alloc_peak_bytes(),
            "trace_records": n,
            "battery": {
                "streaming_record_passes": 1,
                "streaming_wall_secs": streaming_secs,
                "streaming_records_per_sec": n as f64 / streaming_secs,
                "outputs_identical": true,
            },
            "thread_scaling": scaling
                .iter()
                .map(|&(threads, secs, fold_nanos, merge_nanos)| json!({
                    "threads": threads,
                    "chunks": plan_chunk_count(n, host_clamped(threads)),
                    "wall_secs": secs,
                    "records_per_sec": n as f64 / secs,
                    "speedup_vs_serial_streaming": streaming_secs / secs,
                    "fold_thread_nanos": fold_nanos,
                    "merge_nanos": merge_nanos,
                }))
                .collect::<Vec<_>>(),
            "parse": {
                "files": serial_stats.files,
                "bytes": trace_bytes,
                "lines": serial_stats.lines,
                "malformed": serial_stats.malformed,
                "write_secs": write_secs,
                "serial_secs": parse_serial_secs,
                "parallel_secs": parse_parallel_secs,
                "parallel_threads": parse_threads,
                "serial_records_per_sec": n as f64 / parse_serial_secs,
                "serial_mb_per_sec": trace_bytes as f64 / 1e6 / parse_serial_secs,
                "parallel_speedup": parse_serial_secs / parse_parallel_secs,
                "parallel_identical": true,
                "parse_thread_nanos": parse_phases.parse_nanos,
                "sort_nanos": parse_phases.sort_nanos,
            },
        }),
    );
}
